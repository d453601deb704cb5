//! Healthcare EHR provenance — Singh et al. \[69\], MedBlock \[27\] and
//! HealthBlock \[1\] reproduced on the blockprov substrate.
//!
//! The Table 2 healthcare column drives the design:
//!
//! * **determining data ownership** — every EHR belongs to a patient, who
//!   is the only party able to grant access (patient-centricity);
//! * **manager of access** — consent grants (provider, purpose, expiry)
//!   checked by an ABAC policy on every read; emergency "break-glass"
//!   access is possible but forces an audit record (HealthBlock's
//!   emergency-access requirement);
//! * **HIPAA** — minimum-necessary reads (purpose must match the grant) and
//!   a complete immutable audit trail of every disclosure;
//! * **privacy** — record payloads are hash-anchored off-chain and patients
//!   appear on-chain only via pseudonymous subject ids. (Ciphertext-policy
//!   attribute-based encryption from \[59\] is substituted by ABAC-gated
//!   access to the off-chain store.)
//!
//! Beyond the EHR domain, this crate also owns the workspace's *service*
//! health surface: [`metrics`] provides the `Send + Sync` counters, gauges
//! and latency histograms `blockprov-node` exposes on `GET /healthz` and
//! `GET /metrics`.

pub mod metrics;
pub mod pandemic;
pub mod search;

use blockprov_access::abac::{AbacPolicy, Attribute, Attributes, Condition, Decision, Rule, Scope};
use blockprov_core::{CoreError, LedgerConfig, ProvenanceLedger};
use blockprov_crypto::sha256::{hash_parts, Hash256};
use blockprov_ledger::tx::AccountId;
use blockprov_provenance::model::{Action, Domain, ProvenanceRecord, RecordId};
use blockprov_provenance::query::ProvQuery;
use std::collections::BTreeMap;
use std::fmt;

/// Kinds of EHR entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordType {
    /// Physician notes.
    ClinicalNote,
    /// Laboratory result.
    LabResult,
    /// Prescription.
    Prescription,
    /// Imaging study.
    Imaging,
}

impl RecordType {
    /// Stable label.
    pub fn label(&self) -> &'static str {
        match self {
            RecordType::ClinicalNote => "clinical-note",
            RecordType::LabResult => "lab-result",
            RecordType::Prescription => "prescription",
            RecordType::Imaging => "imaging",
        }
    }
}

/// Why access is requested (HIPAA purpose binding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Purpose {
    /// Direct treatment.
    Treatment,
    /// Billing / payment.
    Payment,
    /// Research (requires explicit consent).
    Research,
    /// Life-threatening emergency (break-glass).
    Emergency,
}

impl Purpose {
    /// Stable label.
    pub fn label(&self) -> &'static str {
        match self {
            Purpose::Treatment => "treatment",
            Purpose::Payment => "payment",
            Purpose::Research => "research",
            Purpose::Emergency => "emergency",
        }
    }
}

/// A consent grant from a patient to a provider.
#[derive(Debug, Clone)]
pub struct Consent {
    /// Granted provider.
    pub provider: AccountId,
    /// Allowed purpose.
    pub purpose: Purpose,
    /// Expiry (logical ms); `None` = until revoked.
    pub expires_ms: Option<u64>,
}

/// Healthcare domain errors.
#[derive(Debug)]
pub enum HealthError {
    /// Unknown patient.
    UnknownPatient(String),
    /// Unknown EHR entry.
    UnknownRecord(RecordId),
    /// No valid consent covers the access.
    ConsentDenied {
        /// Requesting provider.
        provider: AccountId,
        /// Requested purpose.
        purpose: Purpose,
    },
    /// Ledger failure.
    Core(CoreError),
}

impl fmt::Display for HealthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthError::UnknownPatient(p) => write!(f, "unknown patient {p}"),
            HealthError::UnknownRecord(r) => write!(f, "unknown record {r}"),
            HealthError::ConsentDenied { provider, purpose } => {
                write!(
                    f,
                    "no consent for {provider} to access for {}",
                    purpose.label()
                )
            }
            HealthError::Core(e) => write!(f, "ledger: {e}"),
        }
    }
}

impl std::error::Error for HealthError {}

impl From<CoreError> for HealthError {
    fn from(e: CoreError) -> Self {
        HealthError::Core(e)
    }
}

struct PatientState {
    /// The patient's own account (owner of every grant decision).
    pub account: AccountId,
    pseudonym: String,
    consents: Vec<Consent>,
    records: Vec<RecordId>,
}

/// The patient-centric EHR ledger.
pub struct HealthLedger {
    ledger: ProvenanceLedger,
    patients: BTreeMap<String, PatientState>,
    policy: AbacPolicy,
    /// Count of break-glass accesses (each one also has an audit record).
    pub emergency_accesses: u64,
}

impl Default for HealthLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl HealthLedger {
    /// Open with the HIPAA-shaped ABAC policy installed.
    pub fn new() -> Self {
        let config = LedgerConfig::private_default().with_domain(Domain::Healthcare);
        // ABAC layer: purpose must match the consent purpose recorded on the
        // resource; emergency bypasses consent but never bypasses audit.
        let policy = AbacPolicy::new(vec![
            Rule::allow(
                "ehr.read",
                vec![
                    Condition::Eq(Scope::Subject, "kind".into(), "provider".into()),
                    Condition::SameAs("purpose".into()),
                ],
            ),
            Rule::allow(
                "ehr.read",
                vec![Condition::Eq(
                    Scope::Subject,
                    "purpose".into(),
                    "emergency".into(),
                )],
            ),
            Rule::deny(
                "ehr.read",
                vec![Condition::Eq(
                    Scope::Resource,
                    "sealed".into(),
                    "yes".into(),
                )],
            ),
        ]);
        Self {
            ledger: ProvenanceLedger::open(config),
            patients: BTreeMap::new(),
            policy,
            emergency_accesses: 0,
        }
    }

    /// Register a patient; their on-chain subject is a pseudonym.
    pub fn register_patient(&mut self, name: &str) -> Result<AccountId, HealthError> {
        let account = self.ledger.register_agent(name)?;
        let pseudonym = hash_parts("patient-pseudonym", &[name.as_bytes()]).short();
        self.patients.insert(
            name.to_string(),
            PatientState {
                account,
                pseudonym,
                consents: Vec::new(),
                records: Vec::new(),
            },
        );
        Ok(account)
    }

    /// Register a provider (doctor, lab, pharmacy, insurer).
    pub fn register_provider(&mut self, name: &str) -> Result<AccountId, HealthError> {
        Ok(self.ledger.register_agent(name)?)
    }

    /// The account that owns a patient's records (grant authority).
    pub fn patient_account(&self, patient: &str) -> Option<AccountId> {
        self.patients.get(patient).map(|s| s.account)
    }

    /// A provider adds an EHR entry for a patient (payload stays off-chain).
    pub fn add_record(
        &mut self,
        patient: &str,
        provider: AccountId,
        record_type: RecordType,
        content: &[u8],
    ) -> Result<RecordId, HealthError> {
        let state = self
            .patients
            .get(patient)
            .ok_or_else(|| HealthError::UnknownPatient(patient.to_string()))?;
        let subject = format!("ehr:{}", state.pseudonym);
        let ts = self.ledger.advance_clock();
        let mut record =
            ProvenanceRecord::new(&subject, provider, Action::Create, ts, Domain::Healthcare)
                .with_field("patient_id", &state.pseudonym)
                .with_field("record_type", record_type.label())
                .with_field("provider_id", &provider.to_string())
                .with_field("consent_reference", "owner-write")
                .with_field("access_purpose", Purpose::Treatment.label())
                .with_content(content);
        if let Some(prev) = state.records.last() {
            record = record.with_parent(*prev);
        }
        let rid = self.ledger.submit_record(record, content)?;
        self.patients
            .get_mut(patient)
            .expect("exists")
            .records
            .push(rid);
        Ok(rid)
    }

    /// Patient grants consent.
    pub fn grant_consent(
        &mut self,
        patient: &str,
        provider: AccountId,
        purpose: Purpose,
        expires_ms: Option<u64>,
    ) -> Result<(), HealthError> {
        let state = self
            .patients
            .get_mut(patient)
            .ok_or_else(|| HealthError::UnknownPatient(patient.to_string()))?;
        state.consents.push(Consent {
            provider,
            purpose,
            expires_ms,
        });
        Ok(())
    }

    /// Patient revokes all consents held by a provider.
    pub fn revoke_consent(
        &mut self,
        patient: &str,
        provider: &AccountId,
    ) -> Result<(), HealthError> {
        let state = self
            .patients
            .get_mut(patient)
            .ok_or_else(|| HealthError::UnknownPatient(patient.to_string()))?;
        state.consents.retain(|c| c.provider != *provider);
        Ok(())
    }

    fn consent_covers(
        &self,
        patient: &str,
        provider: &AccountId,
        purpose: Purpose,
        now: u64,
    ) -> bool {
        self.patients.get(patient).is_some_and(|s| {
            s.consents.iter().any(|c| {
                c.provider == *provider
                    && c.purpose == purpose
                    && c.expires_ms.is_none_or(|e| now < e)
            })
        })
    }

    /// Provider reads a patient's record: consent + ABAC gate + mandatory
    /// audit record. Emergency purpose bypasses consent (break-glass) but is
    /// counted and audited.
    pub fn access_record(
        &mut self,
        patient: &str,
        provider: AccountId,
        record: &RecordId,
        purpose: Purpose,
    ) -> Result<Vec<u8>, HealthError> {
        let now = self.ledger.now_ms();
        let state = self
            .patients
            .get(patient)
            .ok_or_else(|| HealthError::UnknownPatient(patient.to_string()))?;
        if !state.records.contains(record) {
            return Err(HealthError::UnknownRecord(*record));
        }
        let consent_ok =
            purpose == Purpose::Emergency || self.consent_covers(patient, &provider, purpose, now);
        if !consent_ok {
            return Err(HealthError::ConsentDenied { provider, purpose });
        }
        // ABAC layer: purposes must line up (the consent defines the
        // resource-side purpose attribute).
        let subject_attrs: Attributes = [
            ("kind".to_string(), Attribute::Str("provider".into())),
            (
                "purpose".to_string(),
                Attribute::Str(purpose.label().into()),
            ),
        ]
        .into_iter()
        .collect();
        let resource_attrs: Attributes = [(
            "purpose".to_string(),
            Attribute::Str(purpose.label().into()),
        )]
        .into_iter()
        .collect();
        if self
            .policy
            .evaluate("ehr.read", &subject_attrs, &resource_attrs)
            != Decision::Permit
        {
            return Err(HealthError::ConsentDenied { provider, purpose });
        }

        // Fetch the payload from the off-chain store via the content hash.
        let body = self
            .ledger
            .record(record)
            .ok_or(HealthError::UnknownRecord(*record))?;
        let content = body
            .content_hash
            .and_then(|h| self.fetch_offchain(&h))
            .unwrap_or_default();

        // Mandatory disclosure audit (HIPAA accounting of disclosures).
        let pseudonym = state.pseudonym.clone();
        let ts = self.ledger.advance_clock();
        let audit = ProvenanceRecord::new(
            &format!("ehr:{pseudonym}"),
            provider,
            Action::Read,
            ts,
            Domain::Healthcare,
        )
        .with_field("patient_id", &pseudonym)
        .with_field("record_type", "disclosure-audit")
        .with_field("provider_id", &provider.to_string())
        .with_field("access_purpose", purpose.label())
        .with_parent(*record);
        self.ledger.submit_record(audit, &[])?;
        if purpose == Purpose::Emergency {
            self.emergency_accesses += 1;
        }
        Ok(content)
    }

    fn fetch_offchain(&self, hash: &Hash256) -> Option<Vec<u8>> {
        self.ledger.offchain().get(hash).map(<[u8]>::to_vec)
    }

    /// The patient's full audit trail (every record + disclosure).
    pub fn audit_trail(&mut self, patient: &str) -> Result<Vec<RecordId>, HealthError> {
        let pseudonym = self
            .patients
            .get(patient)
            .ok_or_else(|| HealthError::UnknownPatient(patient.to_string()))?
            .pseudonym
            .clone();
        Ok(self
            .ledger
            .query(&ProvQuery::BySubject(format!("ehr:{pseudonym}")))
            .ids)
    }

    /// Seal pending provenance.
    pub fn seal(&mut self) -> Result<(), HealthError> {
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

    fn setup() -> (HealthLedger, AccountId, AccountId, RecordId) {
        let mut h = HealthLedger::new();
        h.register_patient("alice").unwrap();
        let dr = h.register_provider("dr-bob").unwrap();
        let lab = h.register_provider("lab-1").unwrap();
        let rid = h
            .add_record("alice", dr, RecordType::ClinicalNote, b"bp 120/80")
            .unwrap();
        (h, dr, lab, rid)
    }

    #[test]
    fn consent_gated_read_happy_path() {
        let (mut h, dr, _, rid) = setup();
        h.grant_consent("alice", dr, Purpose::Treatment, None)
            .unwrap();
        let content = h
            .access_record("alice", dr, &rid, Purpose::Treatment)
            .unwrap();
        assert_eq!(content, b"bp 120/80");
    }

    #[test]
    fn access_without_consent_denied() {
        let (mut h, _, lab, rid) = setup();
        assert!(matches!(
            h.access_record("alice", lab, &rid, Purpose::Treatment),
            Err(HealthError::ConsentDenied { .. })
        ));
    }

    #[test]
    fn purpose_mismatch_denied() {
        let (mut h, dr, _, rid) = setup();
        h.grant_consent("alice", dr, Purpose::Treatment, None)
            .unwrap();
        // Consent is for treatment; research read must fail (HIPAA
        // minimum-necessary / purpose binding).
        assert!(matches!(
            h.access_record("alice", dr, &rid, Purpose::Research),
            Err(HealthError::ConsentDenied { .. })
        ));
    }

    #[test]
    fn revocation_cuts_access() {
        let (mut h, dr, _, rid) = setup();
        h.grant_consent("alice", dr, Purpose::Treatment, None)
            .unwrap();
        h.access_record("alice", dr, &rid, Purpose::Treatment)
            .unwrap();
        h.revoke_consent("alice", &dr).unwrap();
        assert!(matches!(
            h.access_record("alice", dr, &rid, Purpose::Treatment),
            Err(HealthError::ConsentDenied { .. })
        ));
    }

    #[test]
    fn expired_consent_denied() {
        let (mut h, dr, _, rid) = setup();
        // Expires at logical time 1 — already past once records exist.
        h.grant_consent("alice", dr, Purpose::Treatment, Some(1))
            .unwrap();
        assert!(matches!(
            h.access_record("alice", dr, &rid, Purpose::Treatment),
            Err(HealthError::ConsentDenied { .. })
        ));
    }

    #[test]
    fn break_glass_works_but_is_audited() {
        let (mut h, _, lab, rid) = setup();
        // No consent, but an emergency.
        let content = h
            .access_record("alice", lab, &rid, Purpose::Emergency)
            .unwrap();
        assert_eq!(content, b"bp 120/80");
        assert_eq!(h.emergency_accesses, 1);
        // The audit trail shows the disclosure.
        let trail = h.audit_trail("alice").unwrap();
        assert_eq!(trail.len(), 2, "original record + disclosure audit");
        let audit = h.ledger().record(&trail[1]).unwrap();
        assert_eq!(audit.fields["access_purpose"], "emergency");
    }

    #[test]
    fn every_disclosure_is_audited() {
        let (mut h, dr, _, rid) = setup();
        h.grant_consent("alice", dr, Purpose::Treatment, None)
            .unwrap();
        for _ in 0..3 {
            h.access_record("alice", dr, &rid, Purpose::Treatment)
                .unwrap();
        }
        let trail = h.audit_trail("alice").unwrap();
        assert_eq!(trail.len(), 4, "1 record + 3 disclosures");
    }

    #[test]
    fn patient_identity_is_pseudonymous_on_chain() {
        let (h, _, _, rid) = setup();
        let record = h.ledger().record(&rid).unwrap();
        assert!(!record.subject.contains("alice"));
        assert!(!record.fields["patient_id"].contains("alice"));
    }

    #[test]
    fn record_chain_links_patient_history() {
        let (mut h, dr, _, r1) = setup();
        let r2 = h
            .add_record("alice", dr, RecordType::LabResult, b"hb 14")
            .unwrap();
        let body = h.ledger().record(&r2).unwrap();
        assert_eq!(body.parents, vec![r1]);
    }

    #[test]
    fn sealed_chain_verifies() {
        let (mut h, dr, _, rid) = setup();
        h.grant_consent("alice", dr, Purpose::Treatment, None)
            .unwrap();
        h.access_record("alice", dr, &rid, Purpose::Treatment)
            .unwrap();
        h.seal().unwrap();
        h.ledger().verify_chain().unwrap();
    }
}
