//! The pandemic diagnostics platform of Abouyoussef et al. \[3\].
//!
//! The surveyed system collects symptoms remotely during a pandemic,
//! diagnoses them automatically with a detector deployed *as a smart
//! contract*, and shares diagnosis data with healthcare entities over a
//! consortium blockchain — while guaranteeing patient **anonymity** and
//! **data unlinkability** "through group signature and random numbers".
//!
//! Reproduction map:
//!
//! * group signature + random numbers → [`blockprov_crypto::groupsig`]:
//!   each submission is signed with a fresh one-time credential, so the
//!   platform verifies "an enrolled patient sent this" without learning
//!   which one, and two submissions by the same patient cannot be linked;
//! * deep-neural-network detector contract → [`DiagnosticContract`], a
//!   fixed-point logistic scorer run under the deterministic contract
//!   runtime (it exercises the identical
//!   model-as-contract execution path without an ML framework);
//! * consortium data access → [`PandemicPlatform::aggregate_report`] for
//!   registered healthcare entities (aggregates only — individual
//!   submissions stay pseudonymous);
//! * the manager-only deanonymization path (contact tracing under legal
//!   order) → [`PandemicPlatform::open_submission`], which is logged.

use blockprov_contracts::{
    Contract, ContractCtx, ContractError, ContractId, ContractRuntime,
};
use blockprov_crypto::groupsig::{
    verify_group, GroupManager, GroupMember, GroupPublicKey, GroupSigError, GroupSignature,
};
use blockprov_crypto::sha256::{hash_parts, Hash256};
use blockprov_ledger::tx::AccountId;
use blockprov_wire::{Reader, Writer};
use std::collections::HashSet;
use std::fmt;

/// Number of symptom features.
pub const FEATURES: usize = 6;

/// A symptom vector in milli-units (0 = absent … 1000 = severe):
/// fever, cough, fatigue, anosmia, dyspnea, exposure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymptomVector(pub [u32; FEATURES]);

impl SymptomVector {
    /// Canonical byte encoding (what gets signed and scored).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        for v in self.0 {
            w.put_u32(v.min(1000));
        }
        w.into_bytes()
    }

    /// Decode from the canonical encoding.
    pub fn from_bytes(buf: &[u8]) -> Option<Self> {
        let mut r = Reader::new(buf);
        let mut out = [0u32; FEATURES];
        for slot in &mut out {
            *slot = r.get_u32().ok()?;
        }
        r.is_exhausted().then_some(SymptomVector(out))
    }
}

/// A diagnosis produced by the on-chain detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Diagnosis {
    /// Positive (suspected case) at the 0.5 decision threshold.
    pub positive: bool,
    /// Risk score in milli-probability (0..=1000).
    pub risk_milli: u32,
}

/// The detector-as-contract: a fixed-point logistic scorer.
///
/// Weights are fixed at deployment (milli-units). Inference is pure integer
/// arithmetic — a piecewise-linear logistic — so every consortium node
/// reproduces bit-identical diagnoses, which is the property the surveyed
/// platform needs from putting the detector on chain.
pub struct DiagnosticContract {
    /// Per-feature weights (milli, signed).
    pub weights: [i64; FEATURES],
    /// Bias (milli).
    pub bias: i64,
}

impl DiagnosticContract {
    /// The detector used by the paper-shaped experiments: fever, anosmia
    /// and exposure dominate, cough/fatigue contribute, dyspnea strongly.
    pub fn default_model() -> Self {
        Self {
            weights: [1800, 700, 500, 2200, 2000, 1500],
            bias: -4300,
        }
    }

    /// Fixed-point logistic: piecewise-linear approximation of
    /// `1000 · σ(z/1000)`, exact at z = 0 and saturating beyond |z| = 6000.
    fn sigmoid_milli(z: i64) -> u32 {
        // Breakpoints every 1000 milli-units of z, values of 1000·σ(z).
        const TABLE: [(i64, i64); 13] = [
            (-6000, 2),
            (-5000, 7),
            (-4000, 18),
            (-3000, 47),
            (-2000, 119),
            (-1000, 269),
            (0, 500),
            (1000, 731),
            (2000, 881),
            (3000, 953),
            (4000, 982),
            (5000, 993),
            (6000, 998),
        ];
        if z <= TABLE[0].0 {
            return TABLE[0].1 as u32;
        }
        if z >= TABLE[12].0 {
            return TABLE[12].1 as u32;
        }
        let idx = ((z - TABLE[0].0) / 1000) as usize;
        let (x0, y0) = TABLE[idx];
        let (x1, y1) = TABLE[idx + 1];
        (y0 + (y1 - y0) * (z - x0) / (x1 - x0)) as u32
    }

    fn score(&self, features: &SymptomVector) -> Diagnosis {
        let mut z = self.bias;
        for (w, &x) in self.weights.iter().zip(features.0.iter()) {
            z += w * i64::from(x.min(1000)) / 1000;
        }
        let risk_milli = Self::sigmoid_milli(z);
        Diagnosis { positive: risk_milli >= 500, risk_milli }
    }
}

impl Contract for DiagnosticContract {
    fn name(&self) -> &'static str {
        "pandemic-detector-v1"
    }

    fn call(
        &self,
        ctx: &mut ContractCtx<'_>,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        match method {
            "diagnose" => {
                ctx.gas.charge(args.len() as u64)?;
                let features = SymptomVector::from_bytes(args).ok_or_else(|| {
                    ContractError::BadArguments("expected 6 u32 features".into())
                })?;
                let d = self.score(&features);
                // Tally aggregates in contract state so the consortium can
                // read counts without seeing submissions.
                let bump = |ctx: &mut ContractCtx<'_>, key: &[u8]| -> Result<(), ContractError> {
                    let cur = ctx
                        .get(key)?
                        .map(|v| u64::from_le_bytes(v.try_into().unwrap_or([0; 8])))
                        .unwrap_or(0);
                    ctx.put(key, (cur + 1).to_le_bytes().to_vec())
                };
                bump(ctx, b"total")?;
                if d.positive {
                    bump(ctx, b"positive")?;
                }
                ctx.emit("diagnosed", vec![u8::from(d.positive)])?;
                let mut w = Writer::new();
                w.put_u8(u8::from(d.positive));
                w.put_u32(d.risk_milli);
                Ok(w.into_bytes())
            }
            other => Err(ContractError::UnknownMethod(other.to_string())),
        }
    }
}

/// A recorded (anonymous) submission.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Submission digest (features + nonce).
    pub digest: Hash256,
    /// One-time leaf that signed it (public; reveals nothing about who).
    pub leaf_index: u64,
    /// The diagnosis.
    pub diagnosis: Diagnosis,
    /// Hash-chain value for tamper evidence.
    pub chain_hash: Hash256,
}

/// Errors from the platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PandemicError {
    /// The group signature did not verify.
    InvalidSignature,
    /// The one-time credential was already used (replay).
    CredentialReplayed(u64),
    /// The member ran out of credentials.
    Group(GroupSigError),
    /// Contract-level failure.
    Contract(ContractError),
    /// Unknown healthcare entity.
    UnknownEntity(String),
    /// Submission index out of range.
    UnknownSubmission(usize),
}

impl fmt::Display for PandemicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PandemicError::InvalidSignature => write!(f, "group signature invalid"),
            PandemicError::CredentialReplayed(l) => write!(f, "credential {l} replayed"),
            PandemicError::Group(e) => write!(f, "group error: {e}"),
            PandemicError::Contract(e) => write!(f, "contract error: {e}"),
            PandemicError::UnknownEntity(e) => write!(f, "unknown healthcare entity {e:?}"),
            PandemicError::UnknownSubmission(i) => write!(f, "no submission #{i}"),
        }
    }
}

impl std::error::Error for PandemicError {}

impl From<GroupSigError> for PandemicError {
    fn from(e: GroupSigError) -> Self {
        PandemicError::Group(e)
    }
}

impl From<ContractError> for PandemicError {
    fn from(e: ContractError) -> Self {
        PandemicError::Contract(e)
    }
}

/// Aggregate counts visible to consortium entities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregateReport {
    /// Total diagnosed submissions.
    pub total: u64,
    /// Positive diagnoses.
    pub positive: u64,
}

/// An audit entry for a deanonymization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpeningAudit {
    /// Which submission was opened.
    pub submission: usize,
    /// Stated legal basis.
    pub basis: String,
    /// The revealed patient.
    pub patient: String,
}

/// The consortium diagnostics platform.
pub struct PandemicPlatform {
    manager: GroupManager,
    group_pk: GroupPublicKey,
    runtime: ContractRuntime,
    detector: ContractId,
    gateway: AccountId,
    entities: HashSet<String>,
    submissions: Vec<Submission>,
    sig_store: Vec<(Hash256, GroupSignature)>,
    used_leaves: HashSet<u64>,
    opening_log: Vec<OpeningAudit>,
}

impl fmt::Debug for PandemicPlatform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PandemicPlatform")
            .field("submissions", &self.submissions.len())
            .field("entities", &self.entities.len())
            .finish_non_exhaustive()
    }
}

impl PandemicPlatform {
    /// Set up the platform: enroll `patients` (each with `per_patient`
    /// one-time submission credentials) and deploy the detector contract.
    /// Returns the platform and the patients' signing handles.
    pub fn setup(
        seed: &[u8],
        patients: &[&str],
        per_patient: usize,
    ) -> Result<(Self, Vec<GroupMember>), PandemicError> {
        let (manager, members) = GroupManager::setup(seed, patients, per_patient)?;
        let group_pk = manager.group_public_key();
        let mut runtime = ContractRuntime::new();
        let detector = runtime.register(Box::new(DiagnosticContract::default_model()));
        Ok((
            Self {
                manager,
                group_pk,
                runtime,
                detector,
                gateway: AccountId::from_name("pandemic-gateway"),
                entities: HashSet::new(),
                submissions: Vec::new(),
                sig_store: Vec::new(),
                used_leaves: HashSet::new(),
                opening_log: Vec::new(),
            },
            members,
        ))
    }

    /// Register a healthcare entity (hospital, public-health agency) for
    /// consortium data access.
    pub fn register_entity(&mut self, name: &str) {
        self.entities.insert(name.to_string());
    }

    /// The group verification key (what relying parties pin).
    pub fn group_public_key(&self) -> GroupPublicKey {
        self.group_pk
    }

    /// A patient submits symptoms anonymously. The platform verifies the
    /// group signature, rejects credential replays, runs the on-chain
    /// detector, and records the submission. Returns (submission index,
    /// diagnosis).
    pub fn submit(
        &mut self,
        patient: &mut GroupMember,
        symptoms: &SymptomVector,
        nonce: u64,
    ) -> Result<(usize, Diagnosis), PandemicError> {
        // "Random number" of the surveyed design: a per-submission nonce
        // folded into the signed digest so identical symptom vectors yield
        // unlinkable submissions.
        let payload = symptoms.to_bytes();
        let digest =
            hash_parts("blockprov-pandemic-submission", &[&payload, &nonce.to_le_bytes()]);
        let sig = patient.sign(digest.as_bytes())?;
        self.ingest(digest, &payload, sig)
    }

    /// Verify and record a submission produced elsewhere (e.g. a mobile
    /// client). Exposed separately so tests can exercise forged inputs.
    pub fn ingest(
        &mut self,
        digest: Hash256,
        payload: &[u8],
        sig: GroupSignature,
    ) -> Result<(usize, Diagnosis), PandemicError> {
        if !verify_group(&self.group_pk, digest.as_bytes(), &sig) {
            return Err(PandemicError::InvalidSignature);
        }
        if !self.used_leaves.insert(sig.leaf_index) {
            return Err(PandemicError::CredentialReplayed(sig.leaf_index));
        }
        let height = self.submissions.len() as u64;
        let receipt = self.runtime.invoke(
            self.detector,
            self.gateway,
            "diagnose",
            payload,
            100_000,
            height,
            height * 1000,
        )?;
        let mut r = Reader::new(&receipt.output);
        let positive = r.get_u8().map_err(|_| PandemicError::InvalidSignature)? == 1;
        let risk_milli = r.get_u32().map_err(|_| PandemicError::InvalidSignature)?;
        let diagnosis = Diagnosis { positive, risk_milli };
        let prev = self
            .submissions
            .last()
            .map(|s| s.chain_hash)
            .unwrap_or(Hash256::ZERO);
        let chain_hash = hash_parts(
            "blockprov-pandemic-chain",
            &[prev.as_bytes(), digest.as_bytes(), &[u8::from(positive)]],
        );
        let idx = self.submissions.len();
        self.submissions.push(Submission {
            digest,
            leaf_index: sig.leaf_index,
            diagnosis,
            chain_hash,
        });
        // Keep the signature around for lawful opening.
        self.sig_store.push((digest, sig));
        Ok((idx, diagnosis))
    }

    /// Aggregate counts for a registered consortium entity.
    pub fn aggregate_report(&mut self, entity: &str) -> Result<AggregateReport, PandemicError> {
        if !self.entities.contains(entity) {
            return Err(PandemicError::UnknownEntity(entity.to_string()));
        }
        let read = |rt: &ContractRuntime, key: &[u8]| -> u64 {
            rt.read_state(ContractId::from_name("pandemic-detector-v1"), key)
                .map(|v| u64::from_le_bytes(v.clone().try_into().unwrap_or([0; 8])))
                .unwrap_or(0)
        };
        Ok(AggregateReport {
            total: read(&self.runtime, b"total"),
            positive: read(&self.runtime, b"positive"),
        })
    }

    /// Lawful deanonymization of one submission by the group manager
    /// (contact tracing / court order). Logged in the opening audit.
    pub fn open_submission(
        &mut self,
        index: usize,
        legal_basis: &str,
    ) -> Result<String, PandemicError> {
        let (digest, sig) = self
            .sig_store
            .get(index)
            .ok_or(PandemicError::UnknownSubmission(index))?;
        let patient = self
            .manager
            .open(digest.as_bytes(), sig)
            .ok_or(PandemicError::InvalidSignature)?
            .to_string();
        self.opening_log.push(OpeningAudit {
            submission: index,
            basis: legal_basis.to_string(),
            patient: patient.clone(),
        });
        Ok(patient)
    }

    /// The deanonymization audit log (itself subject to oversight).
    pub fn opening_log(&self) -> &[OpeningAudit] {
        &self.opening_log
    }

    /// Recorded submissions (public view: digests, leaves, diagnoses).
    pub fn submissions(&self) -> &[Submission] {
        &self.submissions
    }

    /// Verify the submission hash chain (tamper evidence).
    pub fn verify_chain(&self) -> bool {
        let mut prev = Hash256::ZERO;
        for s in &self.submissions {
            let expect = hash_parts(
                "blockprov-pandemic-chain",
                &[prev.as_bytes(), s.digest.as_bytes(), &[u8::from(s.diagnosis.positive)]],
            );
            if s.chain_hash != expect {
                return false;
            }
            prev = s.chain_hash;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> (PandemicPlatform, Vec<GroupMember>) {
        PandemicPlatform::setup(b"pandemic-2026", &["ana", "ben", "cleo"], 4).unwrap()
    }

    fn severe() -> SymptomVector {
        SymptomVector([900, 800, 700, 1000, 900, 1000])
    }

    fn mild() -> SymptomVector {
        SymptomVector([100, 200, 100, 0, 0, 0])
    }

    #[test]
    fn severe_symptoms_diagnose_positive_mild_negative() {
        let (mut p, mut pts) = platform();
        let (_, d1) = p.submit(&mut pts[0], &severe(), 1).unwrap();
        assert!(d1.positive);
        assert!(d1.risk_milli > 700);
        let (_, d2) = p.submit(&mut pts[1], &mild(), 2).unwrap();
        assert!(!d2.positive);
        assert!(d2.risk_milli < 300);
    }

    #[test]
    fn submissions_are_anonymous_and_unlinkable() {
        let (mut p, mut pts) = platform();
        p.submit(&mut pts[0], &severe(), 10).unwrap();
        p.submit(&mut pts[0], &severe(), 11).unwrap();
        let subs = p.submissions();
        // No patient identity anywhere in the public record, and the two
        // submissions by the same patient consume different leaves with
        // different digests (the nonce defeats content linkage too).
        assert_ne!(subs[0].leaf_index, subs[1].leaf_index);
        assert_ne!(subs[0].digest, subs[1].digest);
    }

    #[test]
    fn forged_signature_rejected() {
        let (mut p, _) = platform();
        let (_, mut outsiders) = GroupManager::setup(b"other", &["eve"], 2).unwrap();
        let payload = severe().to_bytes();
        let digest = hash_parts("blockprov-pandemic-submission", &[&payload, &7u64.to_le_bytes()]);
        let sig = outsiders[0].sign(digest.as_bytes()).unwrap();
        assert_eq!(p.ingest(digest, &payload, sig).unwrap_err(), PandemicError::InvalidSignature);
    }

    #[test]
    fn credential_replay_rejected() {
        let (mut p, mut pts) = platform();
        let payload = severe().to_bytes();
        let digest = hash_parts("blockprov-pandemic-submission", &[&payload, &1u64.to_le_bytes()]);
        let sig = pts[0].sign(digest.as_bytes()).unwrap();
        p.ingest(digest, &payload, sig.clone()).unwrap();
        assert_eq!(
            p.ingest(digest, &payload, sig.clone()).unwrap_err(),
            PandemicError::CredentialReplayed(sig.leaf_index)
        );
    }

    #[test]
    fn aggregates_require_registration_and_count_correctly() {
        let (mut p, mut pts) = platform();
        assert!(matches!(
            p.aggregate_report("cdc"),
            Err(PandemicError::UnknownEntity(_))
        ));
        p.register_entity("cdc");
        p.submit(&mut pts[0], &severe(), 1).unwrap();
        p.submit(&mut pts[1], &mild(), 2).unwrap();
        p.submit(&mut pts[2], &severe(), 3).unwrap();
        let rep = p.aggregate_report("cdc").unwrap();
        assert_eq!(rep.total, 3);
        assert_eq!(rep.positive, 2);
    }

    #[test]
    fn lawful_opening_identifies_patient_and_is_logged() {
        let (mut p, mut pts) = platform();
        let (idx, _) = p.submit(&mut pts[2], &severe(), 42).unwrap();
        let who = p.open_submission(idx, "contact tracing order 7").unwrap();
        assert_eq!(who, "cleo");
        assert_eq!(p.opening_log().len(), 1);
        assert_eq!(p.opening_log()[0].basis, "contact tracing order 7");
    }

    #[test]
    fn open_unknown_submission_errors() {
        let (mut p, _) = platform();
        assert_eq!(
            p.open_submission(3, "none").unwrap_err(),
            PandemicError::UnknownSubmission(3)
        );
    }

    #[test]
    fn submission_chain_is_tamper_evident() {
        let (mut p, mut pts) = platform();
        p.submit(&mut pts[0], &severe(), 1).unwrap();
        p.submit(&mut pts[1], &mild(), 2).unwrap();
        assert!(p.verify_chain());
        p.submissions[0].diagnosis.positive = false;
        assert!(!p.verify_chain());
    }

    #[test]
    fn detector_is_deterministic_across_instances() {
        let (mut p1, mut a) = platform();
        let (mut p2, mut b) =
            PandemicPlatform::setup(b"pandemic-2026", &["ana", "ben", "cleo"], 4).unwrap();
        let (_, d1) = p1.submit(&mut a[0], &severe(), 5).unwrap();
        let (_, d2) = p2.submit(&mut b[0], &severe(), 5).unwrap();
        assert_eq!(d1, d2);
    }

    #[test]
    fn sigmoid_is_monotone_and_bounded() {
        let mut last = 0u32;
        for z in (-8000..=8000).step_by(250) {
            let v = DiagnosticContract::sigmoid_milli(z);
            assert!(v <= 1000);
            assert!(v >= last, "sigmoid must be monotone at z={z}");
            last = v;
        }
        assert_eq!(DiagnosticContract::sigmoid_milli(0), 500);
    }
}
