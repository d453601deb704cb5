//! Digital-forensics provenance — the ForensiBlock \[12\] reproduction.
//!
//! ForensiBlock is "a provenance-driven blockchain framework for data
//! forensics and auditability": it tracks *all* investigation data
//! (evidence operations and communication records), supports investigation
//! **stage changes** with stage-gated access control, and verifies case
//! integrity with a **distributed Merkle tree** so one case can be audited
//! without touching another case's records.
//!
//! The five-stage methodology of the paper's Figure 5 is enforced by
//! [`Stage`]: Identification → Preservation → Collection → Analysis →
//! Reporting, with transitions recorded on-chain and role requirements per
//! stage.

pub mod iot;
pub mod stego;

use blockprov_access::rbac::{Permission, RbacEngine, Role};
use blockprov_core::{CoreError, LedgerConfig, ProvenanceLedger};
use blockprov_crypto::dmt::{CompoundProof, DistributedMerkleTree};
use blockprov_crypto::sha256::Hash256;
use blockprov_ledger::tx::AccountId;
use blockprov_provenance::model::{Action, Domain, ProvenanceRecord, RecordId};
use std::collections::BTreeMap;
use std::fmt;

/// The five stages of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Identify evidence sources and relevant individuals.
    Identification,
    /// Preserve electronically stored information.
    Preservation,
    /// Collect data and create exact duplicates.
    Collection,
    /// Analyze the duplicates.
    Analysis,
    /// Compile findings into a report.
    Reporting,
}

impl Stage {
    /// All stages in order.
    pub const ALL: [Stage; 5] = [
        Stage::Identification,
        Stage::Preservation,
        Stage::Collection,
        Stage::Analysis,
        Stage::Reporting,
    ];

    /// Stable label.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::Identification => "identification",
            Stage::Preservation => "preservation",
            Stage::Collection => "collection",
            Stage::Analysis => "analysis",
            Stage::Reporting => "reporting",
        }
    }

    /// The stage that must follow this one.
    pub fn next(&self) -> Option<Stage> {
        let all = Stage::ALL;
        all.iter()
            .position(|s| s == self)
            .and_then(|i| all.get(i + 1))
            .copied()
    }

    /// The role allowed to perform evidence operations in this stage.
    pub fn required_role(&self) -> Role {
        match self {
            Stage::Identification => Role::new("first-responder"),
            Stage::Preservation => Role::new("evidence-custodian"),
            Stage::Collection => Role::new("collector"),
            Stage::Analysis => Role::new("analyst"),
            Stage::Reporting => Role::new("lead-investigator"),
        }
    }
}

/// Forensics domain errors.
#[derive(Debug)]
pub enum ForensicsError {
    /// Unknown case number.
    UnknownCase(String),
    /// The requested stage transition is not the successor stage.
    BadTransition {
        /// Current stage.
        from: Stage,
        /// Requested stage.
        to: Stage,
    },
    /// Actor lacks the role required in the current stage.
    RoleDenied {
        /// Acting account.
        actor: AccountId,
        /// Role needed.
        needed: Role,
    },
    /// Case already closed (reporting complete).
    CaseClosed(String),
    /// Ledger failure.
    Core(CoreError),
}

impl fmt::Display for ForensicsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForensicsError::UnknownCase(c) => write!(f, "unknown case {c}"),
            ForensicsError::BadTransition { from, to } => {
                write!(f, "cannot move from {} to {}", from.label(), to.label())
            }
            ForensicsError::RoleDenied { actor, needed } => {
                write!(f, "{actor} lacks role {}", needed.0)
            }
            ForensicsError::CaseClosed(c) => write!(f, "case {c} is closed"),
            ForensicsError::Core(e) => write!(f, "ledger: {e}"),
        }
    }
}

impl std::error::Error for ForensicsError {}

impl From<CoreError> for ForensicsError {
    fn from(e: CoreError) -> Self {
        ForensicsError::Core(e)
    }
}

/// One custody event for an evidence item.
#[derive(Debug, Clone)]
pub struct CustodyEvent {
    /// Acting account.
    pub actor: AccountId,
    /// What happened.
    pub action: String,
    /// Stage at the time.
    pub stage: Stage,
    /// Anchoring record.
    pub record: RecordId,
}

struct CaseState {
    stage: Stage,
    opened_ms: u64,
    closed_ms: Option<u64>,
    /// evidence id → custody log.
    custody: BTreeMap<String, Vec<CustodyEvent>>,
    last_record: Option<RecordId>,
}

/// The ForensiBlock ledger.
pub struct ForensicsLedger {
    ledger: ProvenanceLedger,
    /// Role assignments (stage gating).
    pub rbac: RbacEngine,
    cases: BTreeMap<String, CaseState>,
    /// Per-case segment trees over record hashes (the distributed Merkle
    /// tree of ForensiBlock).
    dmt: DistributedMerkleTree,
    /// Position of each record within its case segment.
    record_pos: BTreeMap<RecordId, (String, usize)>,
}

impl Default for ForensicsLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl ForensicsLedger {
    /// Open a private forensics ledger.
    pub fn new() -> Self {
        let config = LedgerConfig::private_default().with_domain(Domain::DigitalForensics);
        Self {
            ledger: ProvenanceLedger::open(config),
            rbac: RbacEngine::new(),
            cases: BTreeMap::new(),
            dmt: DistributedMerkleTree::new(),
            record_pos: BTreeMap::new(),
        }
    }

    /// Register an investigator with roles.
    pub fn register_investigator(
        &mut self,
        name: &str,
        roles: &[Role],
    ) -> Result<AccountId, ForensicsError> {
        let id = self.ledger.register_agent(name)?;
        for role in roles {
            self.rbac.grant(role, Permission::new("evidence.op"));
            self.rbac.assign(id, role);
        }
        Ok(id)
    }

    /// Open a case (starts in Identification).
    pub fn open_case(&mut self, case: &str, by: AccountId) -> Result<RecordId, ForensicsError> {
        self.require_role(&by, &Stage::Identification.required_role())?;
        let ts = self.ledger.advance_clock();
        let record = self.case_record(case, by, Action::Create, Stage::Identification, ts, None);
        let rid = self.anchor(case, record)?;
        self.cases.insert(
            case.to_string(),
            CaseState {
                stage: Stage::Identification,
                opened_ms: ts,
                closed_ms: None,
                custody: BTreeMap::new(),
                last_record: Some(rid),
            },
        );
        Ok(rid)
    }

    fn require_role(&self, actor: &AccountId, role: &Role) -> Result<(), ForensicsError> {
        if self.rbac.roles_of(actor).any(|r| r == role) {
            Ok(())
        } else {
            Err(ForensicsError::RoleDenied {
                actor: *actor,
                needed: role.clone(),
            })
        }
    }

    fn case_record(
        &self,
        case: &str,
        actor: AccountId,
        action: Action,
        stage: Stage,
        ts: u64,
        parent: Option<RecordId>,
    ) -> ProvenanceRecord {
        let mut record = ProvenanceRecord::new(
            &format!("case:{case}"),
            actor,
            action,
            ts,
            Domain::DigitalForensics,
        )
        .with_field("case_number", case)
        .with_field("investigation_stage", stage.label())
        .with_field(
            "case_start_date",
            &self.cases.get(case).map_or(ts, |c| c.opened_ms).to_string(),
        );
        if let Some(p) = parent {
            record = record.with_parent(p);
        }
        record
    }

    fn anchor(&mut self, case: &str, record: ProvenanceRecord) -> Result<RecordId, ForensicsError> {
        let rid = self.ledger.submit_record(record, &[])?;
        let pos = self.dmt.record_count(case);
        self.dmt
            .append(case, blockprov_crypto::merkle::leaf_hash(rid.0.as_bytes()));
        self.record_pos.insert(rid, (case.to_string(), pos));
        Ok(rid)
    }

    /// Advance a case to its next stage (records the transition).
    pub fn advance_stage(
        &mut self,
        case: &str,
        to: Stage,
        by: AccountId,
    ) -> Result<RecordId, ForensicsError> {
        let state = self
            .cases
            .get(case)
            .ok_or_else(|| ForensicsError::UnknownCase(case.to_string()))?;
        if state.closed_ms.is_some() {
            return Err(ForensicsError::CaseClosed(case.to_string()));
        }
        let from = state.stage;
        if from.next() != Some(to) {
            return Err(ForensicsError::BadTransition { from, to });
        }
        // The role of the *target* stage authorizes the hand-off.
        self.require_role(&by, &to.required_role())?;
        let parent = state.last_record;
        let ts = self.ledger.advance_clock();
        let record = self.case_record(
            case,
            by,
            Action::Custom("stage-change".into()),
            to,
            ts,
            parent,
        );
        let rid = self.anchor(case, record)?;
        let state = self.cases.get_mut(case).expect("checked");
        state.stage = to;
        state.last_record = Some(rid);
        if to == Stage::Reporting {
            state.closed_ms = Some(ts);
        }
        Ok(rid)
    }

    /// Record an evidence operation in the current stage (custody chain).
    pub fn evidence_op(
        &mut self,
        case: &str,
        evidence: &str,
        by: AccountId,
        action: &str,
        payload: &[u8],
    ) -> Result<RecordId, ForensicsError> {
        let state = self
            .cases
            .get(case)
            .ok_or_else(|| ForensicsError::UnknownCase(case.to_string()))?;
        if state.closed_ms.is_some() {
            return Err(ForensicsError::CaseClosed(case.to_string()));
        }
        let stage = state.stage;
        self.require_role(&by, &stage.required_role())?;
        let parent = state
            .custody
            .get(evidence)
            .and_then(|log| log.last())
            .map(|e| e.record)
            .or(state.last_record);
        let ts = self.ledger.advance_clock();
        let record = self
            .case_record(
                case,
                by,
                Action::Custom(action.to_string()),
                stage,
                ts,
                parent,
            )
            .with_field("file_types", "binary")
            .with_field("access_patterns", action)
            .with_field("files_dependency", evidence)
            .with_content(payload);
        let rid = self.anchor(case, record)?;
        self.cases
            .get_mut(case)
            .expect("checked")
            .custody
            .entry(evidence.to_string())
            .or_default()
            .push(CustodyEvent {
                actor: by,
                action: action.to_string(),
                stage,
                record: rid,
            });
        Ok(rid)
    }

    /// Record a *multi-modal* evidence operation: the payload is tokenized
    /// per its modality (paper §6.2 / Table 2 "handling multi-modal data")
    /// so re-encoded duplicates of the same artifact stay linkable while
    /// modalities never collide.
    pub fn evidence_op_modal(
        &mut self,
        case: &str,
        evidence: &str,
        by: AccountId,
        action: &str,
        token: blockprov_provenance::multimodal::ModalToken,
        payload: &[u8],
    ) -> Result<RecordId, ForensicsError> {
        let rid = self.evidence_op(case, evidence, by, action, payload)?;
        // Attach the modal token as a follow-up annotation record linked to
        // the operation (records are immutable once submitted).
        let stage = self
            .cases
            .get(case)
            .expect("evidence_op validated the case")
            .stage;
        let ts = self.ledger.advance_clock();
        let annotation = self
            .case_record(
                case,
                by,
                Action::Custom("modal-annotation".into()),
                stage,
                ts,
                Some(rid),
            )
            .with_field("file_types", token.modality.label())
            .with_field("access_patterns", "tokenize")
            .with_field("files_dependency", evidence)
            .with_field("modal_token", &token.digest.to_hex());
        self.anchor(case, annotation)?;
        Ok(rid)
    }

    /// The chain of custody for one evidence item.
    pub fn custody_chain(&self, case: &str, evidence: &str) -> &[CustodyEvent] {
        self.cases
            .get(case)
            .and_then(|c| c.custody.get(evidence))
            .map_or(&[], Vec::as_slice)
    }

    /// Current stage of a case.
    pub fn stage_of(&self, case: &str) -> Option<Stage> {
        self.cases.get(case).map(|c| c.stage)
    }

    /// Forest root over all case segments (publish in block headers / to
    /// auditors).
    pub fn integrity_root(&mut self) -> Hash256 {
        self.dmt.forest_root()
    }

    /// Prove one record belongs to one case under the forest root —
    /// without exposing any other case's records.
    pub fn prove_case_record(&mut self, record: &RecordId) -> Option<CompoundProof> {
        let (case, pos) = self.record_pos.get(record)?.clone();
        self.dmt.prove(&case, pos)
    }

    /// Verify a compound proof for a record id.
    pub fn verify_case_record(root: &Hash256, record: &RecordId, proof: &CompoundProof) -> bool {
        proof.verify_record_hash(
            root,
            &blockprov_crypto::merkle::leaf_hash(record.0.as_bytes()),
        )
    }

    /// Seal pending provenance.
    pub fn seal(&mut self) -> Result<(), ForensicsError> {
        self.ledger.seal_block()?;
        Ok(())
    }

    /// Underlying ledger.
    pub fn ledger(&self) -> &ProvenanceLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staff(f: &mut ForensicsLedger) -> (AccountId, AccountId, AccountId) {
        let responder = f
            .register_investigator("riley", &[Stage::Identification.required_role()])
            .unwrap();
        let custodian = f
            .register_investigator(
                "casey",
                &[
                    Stage::Preservation.required_role(),
                    Stage::Collection.required_role(),
                ],
            )
            .unwrap();
        let lead = f
            .register_investigator(
                "lee",
                &[
                    Stage::Analysis.required_role(),
                    Stage::Reporting.required_role(),
                ],
            )
            .unwrap();
        (responder, custodian, lead)
    }

    #[test]
    fn five_stage_walk_matches_figure5() {
        let mut f = ForensicsLedger::new();
        let (responder, custodian, lead) = staff(&mut f);
        f.open_case("2024-001", responder).unwrap();
        assert_eq!(f.stage_of("2024-001"), Some(Stage::Identification));
        f.advance_stage("2024-001", Stage::Preservation, custodian)
            .unwrap();
        f.advance_stage("2024-001", Stage::Collection, custodian)
            .unwrap();
        f.advance_stage("2024-001", Stage::Analysis, lead).unwrap();
        f.advance_stage("2024-001", Stage::Reporting, lead).unwrap();
        assert_eq!(f.stage_of("2024-001"), Some(Stage::Reporting));
        // Closed case refuses further work.
        assert!(matches!(
            f.evidence_op("2024-001", "disk-1", lead, "read", b""),
            Err(ForensicsError::CaseClosed(_))
        ));
    }

    #[test]
    fn stages_cannot_be_skipped() {
        let mut f = ForensicsLedger::new();
        let (responder, _custodian, lead) = staff(&mut f);
        f.open_case("c", responder).unwrap();
        assert!(matches!(
            f.advance_stage("c", Stage::Analysis, lead),
            Err(ForensicsError::BadTransition { .. })
        ));
    }

    #[test]
    fn stage_roles_gate_operations() {
        let mut f = ForensicsLedger::new();
        let (responder, custodian, lead) = staff(&mut f);
        f.open_case("c", responder).unwrap();
        // In Identification, only the first responder may act.
        assert!(matches!(
            f.evidence_op("c", "phone", custodian, "photograph", b""),
            Err(ForensicsError::RoleDenied { .. })
        ));
        f.evidence_op("c", "phone", responder, "photograph", b"img")
            .unwrap();
        // Advance to Preservation: responder may no longer act.
        f.advance_stage("c", Stage::Preservation, custodian)
            .unwrap();
        assert!(matches!(
            f.evidence_op("c", "phone", responder, "seize", b""),
            Err(ForensicsError::RoleDenied { .. })
        ));
        f.evidence_op("c", "phone", custodian, "seize", b"")
            .unwrap();
        let _ = lead;
    }

    #[test]
    fn custody_chain_is_ordered_and_linked() {
        let mut f = ForensicsLedger::new();
        let (responder, custodian, _) = staff(&mut f);
        f.open_case("c", responder).unwrap();
        f.evidence_op("c", "disk", responder, "identify", b"")
            .unwrap();
        f.advance_stage("c", Stage::Preservation, custodian)
            .unwrap();
        f.evidence_op("c", "disk", custodian, "hash-image", b"sha256...")
            .unwrap();
        let chain = f.custody_chain("c", "disk");
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].action, "identify");
        assert_eq!(chain[1].action, "hash-image");
        // Custody records are linked via parents.
        let second = f.ledger().record(&chain[1].record).unwrap();
        assert_eq!(second.parents, vec![chain[0].record]);
    }

    #[test]
    fn distributed_merkle_isolates_cases() {
        let mut f = ForensicsLedger::new();
        let (responder, _, _) = staff(&mut f);
        f.open_case("case-A", responder).unwrap();
        f.open_case("case-B", responder).unwrap();
        let ra = f
            .evidence_op("case-A", "laptop", responder, "identify", b"a")
            .unwrap();
        let rb = f
            .evidence_op("case-B", "phone", responder, "identify", b"b")
            .unwrap();
        let root = f.integrity_root();
        let pa = f.prove_case_record(&ra).unwrap();
        let pb = f.prove_case_record(&rb).unwrap();
        assert!(ForensicsLedger::verify_case_record(&root, &ra, &pa));
        assert!(ForensicsLedger::verify_case_record(&root, &rb, &pb));
        // Proofs are bound to their case segment.
        assert_eq!(pa.segment, "case-A");
        assert!(!ForensicsLedger::verify_case_record(&root, &rb, &pa));
    }

    #[test]
    fn unknown_case_and_unauthorized_open() {
        let mut f = ForensicsLedger::new();
        let outsider = f.register_investigator("outsider", &[]).unwrap();
        assert!(matches!(
            f.open_case("c", outsider),
            Err(ForensicsError::RoleDenied { .. })
        ));
        assert!(matches!(
            f.evidence_op("ghost", "e", outsider, "x", b""),
            Err(ForensicsError::UnknownCase(_))
        ));
    }

    #[test]
    fn modal_evidence_annotations_link_and_tokenize() {
        use blockprov_provenance::multimodal::{tokenize_text, Modality};
        let mut f = ForensicsLedger::new();
        let (responder, _, _) = staff(&mut f);
        f.open_case("c", responder).unwrap();
        let token = tokenize_text("Witness  Statement\n#1");
        let rid = f
            .evidence_op_modal(
                "c",
                "statement-1",
                responder,
                "collect",
                token,
                b"Witness Statement #1",
            )
            .unwrap();
        // The annotation record is a child of the evidence record and
        // carries the modality + token.
        let children = f.ledger().graph().descendants(&rid).unwrap();
        assert_eq!(children.len(), 1);
        let annotation = f.ledger().record(&children[0]).unwrap();
        assert_eq!(annotation.fields["file_types"], Modality::Text.label());
        assert_eq!(annotation.fields["modal_token"], token.digest.to_hex());
        // A re-formatted duplicate of the statement yields the same token.
        assert_eq!(tokenize_text("witness statement #1"), token);
    }

    #[test]
    fn chain_seals_and_verifies() {
        let mut f = ForensicsLedger::new();
        let (responder, custodian, _) = staff(&mut f);
        f.open_case("c", responder).unwrap();
        f.evidence_op("c", "disk", responder, "identify", b"x")
            .unwrap();
        f.advance_stage("c", Stage::Preservation, custodian)
            .unwrap();
        f.seal().unwrap();
        f.ledger().verify_chain().unwrap();
    }
}
