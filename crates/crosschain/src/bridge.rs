//! ForensiCross \[11\]: cross-chain digital-forensics collaboration through a
//! BridgeChain.
//!
//! Multiple organizations each run a private forensics chain; a BridgeChain
//! mediates: it relays investigation records between organizations
//! (verified by Merkle proof through the relay layer), synchronizes
//! investigation stages, and requires **unanimous agreement** of all member
//! organizations for stage progression — the paper: "Nodes validate
//! transactions across blockchains, requiring unanimous agreement for
//! progression."

use crate::relay::RelayChain;
use blockprov_core::{CoreError, LedgerConfig, ProvenanceLedger};
use blockprov_forensics::Stage;
use blockprov_ledger::tx::AccountId;
use blockprov_provenance::model::{Action, Domain, ProvenanceRecord, RecordId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Bridge failures.
#[derive(Debug)]
pub enum BridgeError {
    /// Organization id not registered.
    UnknownOrg(String),
    /// Case not opened on the bridge.
    UnknownCase(String),
    /// A vote from a non-member or duplicate vote.
    BadVote(String),
    /// Stage transition attempted without unanimity.
    NotUnanimous {
        /// Votes collected so far.
        votes: usize,
        /// Members required.
        needed: usize,
    },
    /// The requested stage is not the successor of the current stage.
    BadTransition {
        /// Current bridge-level stage.
        from: Stage,
        /// Requested stage.
        to: Stage,
    },
    /// Cross-chain record verification failed.
    VerificationFailed,
    /// Ledger failure.
    Core(CoreError),
}

impl fmt::Display for BridgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BridgeError::UnknownOrg(o) => write!(f, "unknown org {o}"),
            BridgeError::UnknownCase(c) => write!(f, "unknown case {c}"),
            BridgeError::BadVote(m) => write!(f, "bad vote: {m}"),
            BridgeError::NotUnanimous { votes, needed } => {
                write!(f, "only {votes}/{needed} organizations approved")
            }
            BridgeError::BadTransition { from, to } => {
                write!(f, "cannot move from {} to {}", from.label(), to.label())
            }
            BridgeError::VerificationFailed => write!(f, "cross-chain proof failed"),
            BridgeError::Core(e) => write!(f, "ledger: {e}"),
        }
    }
}

impl std::error::Error for BridgeError {}

impl From<CoreError> for BridgeError {
    fn from(e: CoreError) -> Self {
        BridgeError::Core(e)
    }
}

/// One member organization: a private provenance ledger plus its relay feed.
pub struct OrgChain {
    /// Organization id.
    pub id: String,
    /// The org's private ledger.
    pub ledger: ProvenanceLedger,
    /// The org's investigator account used on the bridge.
    pub delegate: AccountId,
}

impl OrgChain {
    /// Create an organization chain.
    pub fn new(id: &str) -> Self {
        let mut ledger = ProvenanceLedger::open(
            LedgerConfig::private_default().with_domain(Domain::DigitalForensics),
        );
        let delegate = ledger
            .register_agent(&format!("{id}-delegate"))
            .expect("register delegate");
        Self {
            id: id.to_string(),
            ledger,
            delegate,
        }
    }

    /// Record an investigation step on the org's own chain and seal it.
    pub fn record_step(
        &mut self,
        case: &str,
        stage: Stage,
        description: &str,
    ) -> Result<RecordId, BridgeError> {
        let ts = self.ledger.advance_clock();
        let record = ProvenanceRecord::new(
            &format!("case:{case}"),
            self.delegate,
            Action::Custom(description.to_string()),
            ts,
            Domain::DigitalForensics,
        )
        .with_field("case_number", case)
        .with_field("investigation_stage", stage.label())
        .with_field("access_patterns", description);
        let rid = self.ledger.submit_record(record, &[])?;
        self.ledger.seal_block()?;
        Ok(rid)
    }
}

struct BridgeCase {
    stage: Stage,
    /// Pending stage-change votes: target stage → orgs approving.
    votes: BTreeMap<&'static str, BTreeSet<String>>,
    /// Synchronized records: (org, record) pairs accepted by the bridge.
    synced: Vec<(String, RecordId)>,
}

/// The BridgeChain: membership, case registry, record sync, stage votes.
pub struct Bridge {
    orgs: Vec<String>,
    relay: RelayChain,
    cases: BTreeMap<String, BridgeCase>,
    /// Bridge's own audit ledger (communication records — ForensiBlock
    /// tracks these too).
    pub audit: ProvenanceLedger,
    bridge_agent: AccountId,
}

impl Bridge {
    /// Create a bridge over the given organizations.
    pub fn new(org_ids: &[&str]) -> Self {
        let mut audit =
            ProvenanceLedger::open(LedgerConfig::private_default().with_domain(Domain::Generic));
        let bridge_agent = audit
            .register_agent("bridge")
            .expect("register bridge agent");
        let mut relay = RelayChain::new();
        for id in org_ids {
            relay.register_chain(id);
        }
        Self {
            orgs: org_ids.iter().map(|s| s.to_string()).collect(),
            relay,
            cases: BTreeMap::new(),
            audit,
            bridge_agent,
        }
    }

    /// Member organizations.
    pub fn members(&self) -> &[String] {
        &self.orgs
    }

    /// Feed an org's latest headers to the bridge relay.
    pub fn sync_headers(&mut self, org: &OrgChain) -> Result<(), BridgeError> {
        if !self.orgs.contains(&org.id) {
            return Err(BridgeError::UnknownOrg(org.id.clone()));
        }
        let from = self.relay.tip_height(&org.id).map_or(0, |h| h + 1);
        for height in from..=org.ledger.chain().height() {
            let header = org
                .ledger
                .chain()
                .block_at(height)
                .expect("height on canonical chain")
                .header
                .clone();
            self.relay
                .submit_header(&org.id, header)
                .map_err(|_| BridgeError::VerificationFailed)?;
        }
        Ok(())
    }

    /// Open a case across all organizations (starts at Identification).
    pub fn open_case(&mut self, case: &str) -> Result<(), BridgeError> {
        self.cases.insert(
            case.to_string(),
            BridgeCase {
                stage: Stage::Identification,
                votes: BTreeMap::new(),
                synced: Vec::new(),
            },
        );
        self.audit_event(case, "case-opened")?;
        Ok(())
    }

    /// Current bridge-level stage of a case.
    pub fn stage_of(&self, case: &str) -> Option<Stage> {
        self.cases.get(case).map(|c| c.stage)
    }

    /// Share a record from an org's chain with the bridge: the org provides
    /// the record id; the bridge demands an inclusion proof and checks it
    /// against the relayed headers before accepting.
    pub fn sync_record(
        &mut self,
        org: &OrgChain,
        case: &str,
        record: &RecordId,
    ) -> Result<(), BridgeError> {
        if !self.orgs.contains(&org.id) {
            return Err(BridgeError::UnknownOrg(org.id.clone()));
        }
        if !self.cases.contains_key(case) {
            return Err(BridgeError::UnknownCase(case.to_string()));
        }
        let proof = org
            .ledger
            .prove_record(record)
            .map_err(|_| BridgeError::VerificationFailed)?;
        let ok = self
            .relay
            .verify_inclusion(&org.id, &proof.inclusion)
            .map_err(|_| BridgeError::VerificationFailed)?;
        if !ok {
            return Err(BridgeError::VerificationFailed);
        }
        self.cases
            .get_mut(case)
            .expect("checked")
            .synced
            .push((org.id.clone(), *record));
        self.audit_event(case, &format!("record-synced:{}", org.id))?;
        Ok(())
    }

    /// Records the bridge has accepted for a case.
    pub fn synced_records(&self, case: &str) -> &[(String, RecordId)] {
        self.cases.get(case).map_or(&[], |c| c.synced.as_slice())
    }

    /// An organization votes to advance a case to `to`.
    ///
    /// Returns `Ok(true)` when unanimity is reached and the stage advances.
    pub fn vote_stage(&mut self, org_id: &str, case: &str, to: Stage) -> Result<bool, BridgeError> {
        if !self.orgs.iter().any(|o| o == org_id) {
            return Err(BridgeError::UnknownOrg(org_id.to_string()));
        }
        let state = self
            .cases
            .get_mut(case)
            .ok_or_else(|| BridgeError::UnknownCase(case.to_string()))?;
        if state.stage.next() != Some(to) {
            return Err(BridgeError::BadTransition {
                from: state.stage,
                to,
            });
        }
        let voters = state.votes.entry(to.label()).or_default();
        if !voters.insert(org_id.to_string()) {
            return Err(BridgeError::BadVote(format!("{org_id} already voted")));
        }
        if voters.len() == self.orgs.len() {
            state.stage = to;
            state.votes.clear();
            self.audit_event(case, &format!("stage-advanced:{}", to.label()))?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn audit_event(&mut self, case: &str, what: &str) -> Result<(), BridgeError> {
        let ts = self.audit.advance_clock();
        let record = ProvenanceRecord::new(
            &format!("bridge-case:{case}"),
            self.bridge_agent,
            Action::Custom(what.to_string()),
            ts,
            Domain::Generic,
        );
        self.audit.submit_record(record, &[])?;
        Ok(())
    }

    /// Audit-trail length (communication records).
    pub fn audit_len(&self) -> usize {
        self.audit.graph().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Bridge, OrgChain, OrgChain) {
        let bridge = Bridge::new(&["org-A", "org-B"]);
        (bridge, OrgChain::new("org-A"), OrgChain::new("org-B"))
    }

    #[test]
    fn record_sync_requires_valid_proof() {
        let (mut bridge, mut org_a, _org_b) = setup();
        bridge.open_case("x-case").unwrap();
        let rid = org_a
            .record_step("x-case", Stage::Identification, "seize-router")
            .unwrap();
        // Without header sync, verification fails.
        assert!(matches!(
            bridge.sync_record(&org_a, "x-case", &rid),
            Err(BridgeError::VerificationFailed)
        ));
        bridge.sync_headers(&org_a).unwrap();
        bridge.sync_record(&org_a, "x-case", &rid).unwrap();
        assert_eq!(bridge.synced_records("x-case").len(), 1);
    }

    #[test]
    fn unanimous_vote_advances_stage() {
        let (mut bridge, _a, _b) = setup();
        bridge.open_case("c").unwrap();
        assert_eq!(bridge.stage_of("c"), Some(Stage::Identification));
        assert!(!bridge
            .vote_stage("org-A", "c", Stage::Preservation)
            .unwrap());
        assert_eq!(
            bridge.stage_of("c"),
            Some(Stage::Identification),
            "one vote is not enough"
        );
        assert!(bridge
            .vote_stage("org-B", "c", Stage::Preservation)
            .unwrap());
        assert_eq!(bridge.stage_of("c"), Some(Stage::Preservation));
    }

    #[test]
    fn double_votes_and_outsiders_rejected() {
        let (mut bridge, _a, _b) = setup();
        bridge.open_case("c").unwrap();
        bridge
            .vote_stage("org-A", "c", Stage::Preservation)
            .unwrap();
        assert!(matches!(
            bridge.vote_stage("org-A", "c", Stage::Preservation),
            Err(BridgeError::BadVote(_))
        ));
        assert!(matches!(
            bridge.vote_stage("org-C", "c", Stage::Preservation),
            Err(BridgeError::UnknownOrg(_))
        ));
    }

    #[test]
    fn stage_skipping_rejected_at_bridge_level() {
        let (mut bridge, _a, _b) = setup();
        bridge.open_case("c").unwrap();
        assert!(matches!(
            bridge.vote_stage("org-A", "c", Stage::Analysis),
            Err(BridgeError::BadTransition { .. })
        ));
    }

    #[test]
    fn full_cross_org_investigation_flow() {
        let (mut bridge, mut org_a, mut org_b) = setup();
        bridge.open_case("joint-1").unwrap();

        let ra = org_a
            .record_step("joint-1", Stage::Identification, "identify-suspect-laptop")
            .unwrap();
        let rb = org_b
            .record_step("joint-1", Stage::Identification, "identify-cloud-account")
            .unwrap();
        bridge.sync_headers(&org_a).unwrap();
        bridge.sync_headers(&org_b).unwrap();
        bridge.sync_record(&org_a, "joint-1", &ra).unwrap();
        bridge.sync_record(&org_b, "joint-1", &rb).unwrap();

        for stage in [
            Stage::Preservation,
            Stage::Collection,
            Stage::Analysis,
            Stage::Reporting,
        ] {
            bridge.vote_stage("org-A", "joint-1", stage).unwrap();
            bridge.vote_stage("org-B", "joint-1", stage).unwrap();
        }
        assert_eq!(bridge.stage_of("joint-1"), Some(Stage::Reporting));
        assert!(bridge.audit_len() >= 7, "open + 2 syncs + 4 stage advances");
    }

    #[test]
    fn incremental_header_sync() {
        let (mut bridge, mut org_a, _b) = setup();
        bridge.open_case("c").unwrap();
        org_a.record_step("c", Stage::Identification, "s1").unwrap();
        bridge.sync_headers(&org_a).unwrap();
        let first = bridge.relay.headers_relayed;
        // More blocks later sync incrementally without re-submitting.
        org_a.record_step("c", Stage::Identification, "s2").unwrap();
        bridge.sync_headers(&org_a).unwrap();
        assert_eq!(bridge.relay.headers_relayed, first + 1);
    }
}
