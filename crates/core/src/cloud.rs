//! ProvChain-style cloud-storage auditing (the RQ1 reproduction).
//!
//! ProvChain \[47\] hooks a cloud storage service (ownCloud in the paper) so
//! every user file operation produces a provenance record that is hashed
//! into blockchain transactions; a *block confirmation* later, users can
//! request Merkle-proof validation of their operations from an auditor.
//! Privacy comes from publishing hashed user ids rather than identities.
//!
//! [`CloudAuditor`] reproduces that loop: file operations → capture →
//! transactions → sealed blocks → [`crate::RecordProof`]s a user verifies
//! against the block header without trusting the auditor.

use crate::config::LedgerConfig;
use crate::ledger::{CoreError, ProvenanceLedger};
use crate::RecordProof;
use blockprov_ledger::tx::AccountId;
use blockprov_provenance::model::{Action, RecordId};
use blockprov_provenance::query::ProvQuery;

/// Cloud file operations audited by ProvChain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloudOpKind {
    /// File created/uploaded.
    Upload,
    /// File content read.
    Read,
    /// File content changed.
    Update,
    /// File shared with another user.
    Share,
    /// File removed.
    Delete,
}

impl CloudOpKind {
    fn action(&self) -> Action {
        match self {
            CloudOpKind::Upload => Action::Create,
            CloudOpKind::Read => Action::Read,
            CloudOpKind::Update => Action::Update,
            CloudOpKind::Share => Action::Share,
            CloudOpKind::Delete => Action::Delete,
        }
    }
}

/// Summary counters for an auditing session (experiment E4).
#[derive(Debug, Default, Clone)]
pub struct CloudReport {
    /// File operations processed.
    pub operations: u64,
    /// Blocks sealed.
    pub blocks: u64,
    /// Proofs issued to users.
    pub proofs_issued: u64,
    /// Total serialized proof bytes.
    pub proof_bytes: u64,
}

/// The auditing service wrapping a provenance ledger.
pub struct CloudAuditor {
    ledger: ProvenanceLedger,
    /// Seal automatically after this many pending operations.
    batch_size: usize,
    report: CloudReport,
}

impl CloudAuditor {
    /// Create over a (typically `Domain::Cloud`) ledger configuration.
    pub fn new(config: LedgerConfig, batch_size: usize) -> Self {
        Self {
            ledger: ProvenanceLedger::open(config),
            batch_size: batch_size.max(1),
            report: CloudReport::default(),
        }
    }

    /// Register a storage user.
    pub fn register_user(&mut self, name: &str) -> Result<AccountId, CoreError> {
        self.ledger.register_agent(name)
    }

    /// Record one file operation; seals a block when the batch fills
    /// (ProvChain's "block confirmation" granularity).
    pub fn file_op(
        &mut self,
        user: &AccountId,
        file: &str,
        kind: CloudOpKind,
        content: &[u8],
    ) -> Result<RecordId, CoreError> {
        let rid = self
            .ledger
            .apply_operation(user, file, kind.action(), content)?;
        self.report.operations += 1;
        if self.ledger.pending() >= self.batch_size {
            self.seal()?;
        }
        Ok(rid)
    }

    /// Seal any pending operations into a block.
    pub fn seal(&mut self) -> Result<(), CoreError> {
        if self.ledger.pending() > 0 {
            self.ledger.seal_block()?;
            self.report.blocks += 1;
        }
        Ok(())
    }

    /// Auditor-side: produce the proof a user asked for.
    ///
    /// The returned proof is self-contained; the user checks it with
    /// [`CloudAuditor::user_verify`] (or independently) against the block
    /// hash they obtained from the network.
    pub fn issue_proof(&mut self, record: &RecordId) -> Result<RecordProof, CoreError> {
        let proof = self.ledger.prove_record(record)?;
        self.report.proofs_issued += 1;
        self.report.proof_bytes +=
            blockprov_wire::Codec::to_wire(&proof.inclusion.proof).len() as u64;
        Ok(proof)
    }

    /// User-side verification: record body + proof + canonical block check.
    pub fn user_verify(&self, record: &RecordId, proof: &RecordProof) -> bool {
        let Some(body) = self.ledger.record(record) else {
            return false;
        };
        proof.verify(body)
            && self
                .ledger
                .chain()
                .is_canonical(&proof.inclusion.block_hash)
    }

    /// History of a file, oldest first (provenance retrieval, E2).
    pub fn file_history(&mut self, file: &str) -> Vec<RecordId> {
        self.ledger
            .query(&ProvQuery::BySubject(file.to_string()))
            .ids
    }

    /// The session report.
    pub fn report(&self) -> &CloudReport {
        &self.report
    }

    /// Access the underlying ledger (experiments).
    pub fn ledger(&self) -> &ProvenanceLedger {
        &self.ledger
    }

    /// Mutable access to the underlying ledger (experiments).
    pub fn ledger_mut(&mut self) -> &mut ProvenanceLedger {
        &mut self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockprov_ledger::tx::AccountId;

    fn auditor() -> CloudAuditor {
        CloudAuditor::new(LedgerConfig::private_default(), 4)
    }

    #[test]
    fn provchain_loop_record_seal_prove_verify() {
        let mut a = auditor();
        let alice = a.register_user("alice").unwrap();
        let r1 = a
            .file_op(&alice, "thesis.tex", CloudOpKind::Upload, b"v1")
            .unwrap();
        for i in 0..5u8 {
            a.file_op(&alice, "thesis.tex", CloudOpKind::Update, &[i])
                .unwrap();
        }
        a.seal().unwrap();
        let proof = a.issue_proof(&r1).unwrap();
        assert!(a.user_verify(&r1, &proof));
        assert!(a.report().blocks >= 1);
        assert_eq!(a.report().operations, 6);
    }

    #[test]
    fn proof_fails_for_wrong_record() {
        let mut a = auditor();
        let alice = a.register_user("alice").unwrap();
        let r1 = a
            .file_op(&alice, "a.txt", CloudOpKind::Upload, b"a")
            .unwrap();
        let r2 = a
            .file_op(&alice, "b.txt", CloudOpKind::Upload, b"b")
            .unwrap();
        a.seal().unwrap();
        let p1 = a.issue_proof(&r1).unwrap();
        assert!(
            !a.user_verify(&r2, &p1),
            "proof bound to r1 must not verify r2"
        );
    }

    #[test]
    fn pseudonymized_records_hide_user_identity() {
        let mut a = auditor();
        let alice = a.register_user("alice").unwrap();
        let rid = a.file_op(&alice, "f", CloudOpKind::Upload, b"x").unwrap();
        let record = a.ledger().record(&rid).unwrap();
        assert_ne!(record.agent, alice, "on-chain agent is a pseudonym");
        assert_ne!(record.agent, AccountId::from_name("alice"));
    }

    #[test]
    fn auto_seal_at_batch_size() {
        let mut a = auditor(); // batch 4
        let u = a.register_user("u").unwrap();
        for i in 0..8u8 {
            a.file_op(&u, "f", CloudOpKind::Update, &[i]).unwrap();
        }
        assert_eq!(a.report().blocks, 2, "two auto-sealed blocks");
        assert_eq!(a.ledger().pending(), 0);
    }

    #[test]
    fn file_history_in_order() {
        let mut a = auditor();
        let u = a.register_user("u").unwrap();
        let expect = vec![
            a.file_op(&u, "f", CloudOpKind::Upload, b"1").unwrap(),
            a.file_op(&u, "f", CloudOpKind::Update, b"2").unwrap(),
            a.file_op(&u, "f", CloudOpKind::Read, b"").unwrap(),
        ];
        a.seal().unwrap();
        assert_eq!(a.file_history("f"), expect);
    }

    #[test]
    fn tampering_detected_by_verification() {
        let mut a = auditor();
        let u = a.register_user("u").unwrap();
        let rid = a.file_op(&u, "f", CloudOpKind::Upload, b"honest").unwrap();
        a.seal().unwrap();
        let mut proof = a.issue_proof(&rid).unwrap();
        // Tamper with the claimed header.
        proof.inclusion.header.timestamp_ms += 1;
        assert!(!a.user_verify(&rid, &proof));
    }
}
