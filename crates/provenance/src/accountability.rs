//! Data accountability and usage control — the Neisse et al. \[58\]
//! reproduction (GDPR-style provenance).
//!
//! The survey lists GDPR as a driving use case for collaborative provenance
//! (§1). Neisse et al. put *data-usage policies* on a blockchain and hold
//! controllers/processors accountable by recording every usage event
//! against them. This module reproduces that accountability core:
//!
//! * a controller declares a [`UsagePolicy`] per data item: permitted
//!   purposes, authorized processors, a retention deadline and the consent
//!   state;
//! * every processing action is recorded as a hash-chained [`UsageEvent`]
//!   and judged against the policy at record time — violations are
//!   *recorded, not hidden* (accountability means the evidence of misuse is
//!   as durable as the evidence of use);
//! * data-subject rights map to queries: right of access =
//!   [`AccountabilityLedger::subject_report`], right to erasure = the
//!   retention obligation surfaced by
//!   [`AccountabilityLedger::due_obligations`] and discharged by
//!   [`AccountabilityLedger::record_erasure`];
//! * consent withdrawal flips the policy so later events are violations.

use blockprov_crypto::sha256::{hash_parts, Hash256};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A declared data-usage policy for one data item.
#[derive(Debug, Clone)]
pub struct UsagePolicy {
    /// The data subject the item is about.
    pub subject: String,
    /// The controller who declared the policy.
    pub controller: String,
    /// Purposes processing may claim.
    pub purposes: BTreeSet<String>,
    /// Processors authorized to act.
    pub processors: BTreeSet<String>,
    /// Last day (inclusive) the data may be processed / retained.
    pub retention_until_day: u64,
    /// Whether the subject has withdrawn consent.
    pub consent_withdrawn: bool,
    /// Whether the item has been erased.
    pub erased: bool,
}

/// Why a usage event violated its policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// No policy declared for the data item.
    NoPolicy,
    /// Purpose not in the policy's permitted set.
    PurposeMismatch,
    /// Processor not authorized.
    UnauthorizedProcessor,
    /// Processing after the retention deadline.
    RetentionExpired,
    /// Processing after consent withdrawal.
    ConsentWithdrawn,
    /// Processing after erasure.
    DataErased,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            Violation::NoPolicy => "no policy declared",
            Violation::PurposeMismatch => "purpose not permitted",
            Violation::UnauthorizedProcessor => "processor not authorized",
            Violation::RetentionExpired => "retention period expired",
            Violation::ConsentWithdrawn => "consent withdrawn",
            Violation::DataErased => "data already erased",
        };
        write!(f, "{msg}")
    }
}

/// Verdict recorded with each event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Event complied with the policy.
    Compliant,
    /// Event violated the policy.
    Violation(Violation),
}

/// One recorded usage event (hash-chained).
#[derive(Debug, Clone)]
pub struct UsageEvent {
    /// Monotonic sequence number.
    pub seq: u64,
    /// The data item.
    pub data_key: String,
    /// Acting processor.
    pub processor: String,
    /// Claimed purpose.
    pub purpose: String,
    /// Logical day of the event.
    pub day: u64,
    /// The verdict at record time.
    pub verdict: Verdict,
    /// Hash chain value.
    pub chain: Hash256,
}

/// A due obligation surfaced by the ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Obligation {
    /// Retention deadline passed; the item must be erased.
    EraseExpired {
        /// The overdue data item.
        data_key: String,
        /// Deadline that passed.
        deadline_day: u64,
    },
    /// Consent withdrawn; the item must be erased.
    EraseWithdrawn {
        /// The data item.
        data_key: String,
    },
}

/// Errors from the accountability ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccountabilityError {
    /// Policy already declared for this data item.
    DuplicatePolicy(String),
    /// No policy for this data item.
    UnknownData(String),
}

impl fmt::Display for AccountabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccountabilityError::DuplicatePolicy(k) => {
                write!(f, "policy for {k:?} already declared")
            }
            AccountabilityError::UnknownData(k) => write!(f, "no policy for {k:?}"),
        }
    }
}

impl std::error::Error for AccountabilityError {}

/// The accountability ledger: policies + the hash-chained event log.
#[derive(Debug, Default)]
pub struct AccountabilityLedger {
    policies: BTreeMap<String, UsagePolicy>,
    events: Vec<UsageEvent>,
    day: u64,
}

impl AccountabilityLedger {
    /// Empty ledger at day 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the logical calendar.
    pub fn advance_days(&mut self, days: u64) {
        self.day += days;
    }

    /// Current logical day.
    pub fn today(&self) -> u64 {
        self.day
    }

    /// Declare a policy for a data item.
    pub fn declare_policy(
        &mut self,
        data_key: &str,
        subject: &str,
        controller: &str,
        purposes: &[&str],
        processors: &[&str],
        retention_days: u64,
    ) -> Result<(), AccountabilityError> {
        if self.policies.contains_key(data_key) {
            return Err(AccountabilityError::DuplicatePolicy(data_key.to_string()));
        }
        self.policies.insert(
            data_key.to_string(),
            UsagePolicy {
                subject: subject.to_string(),
                controller: controller.to_string(),
                purposes: purposes.iter().map(|s| s.to_string()).collect(),
                processors: processors.iter().map(|s| s.to_string()).collect(),
                retention_until_day: self.day + retention_days,
                consent_withdrawn: false,
                erased: false,
            },
        );
        Ok(())
    }

    /// The policy for a data item.
    pub fn policy(&self, data_key: &str) -> Option<&UsagePolicy> {
        self.policies.get(data_key)
    }

    fn judge(&self, data_key: &str, processor: &str, purpose: &str) -> Verdict {
        let Some(policy) = self.policies.get(data_key) else {
            return Verdict::Violation(Violation::NoPolicy);
        };
        if policy.erased {
            Verdict::Violation(Violation::DataErased)
        } else if policy.consent_withdrawn {
            Verdict::Violation(Violation::ConsentWithdrawn)
        } else if self.day > policy.retention_until_day {
            Verdict::Violation(Violation::RetentionExpired)
        } else if !policy.processors.contains(processor) {
            Verdict::Violation(Violation::UnauthorizedProcessor)
        } else if !policy.purposes.contains(purpose) {
            Verdict::Violation(Violation::PurposeMismatch)
        } else {
            Verdict::Compliant
        }
    }

    fn append_event(&mut self, data_key: &str, processor: &str, purpose: &str, verdict: Verdict) {
        let seq = self.events.len() as u64;
        let prev = self.events.last().map(|e| e.chain).unwrap_or(Hash256::ZERO);
        let verdict_byte = [match verdict {
            Verdict::Compliant => 0u8,
            Verdict::Violation(_) => 1u8,
        }];
        let chain = hash_parts(
            "blockprov-accountability",
            &[
                prev.as_bytes(),
                data_key.as_bytes(),
                processor.as_bytes(),
                purpose.as_bytes(),
                &self.day.to_le_bytes(),
                &verdict_byte,
            ],
        );
        self.events.push(UsageEvent {
            seq,
            data_key: data_key.to_string(),
            processor: processor.to_string(),
            purpose: purpose.to_string(),
            day: self.day,
            verdict,
            chain,
        });
    }

    /// Record a processing action and judge it. The verdict is returned
    /// *and* durably recorded — violations are evidence, not errors.
    pub fn record_usage(&mut self, data_key: &str, processor: &str, purpose: &str) -> Verdict {
        let verdict = self.judge(data_key, processor, purpose);
        self.append_event(data_key, processor, purpose, verdict);
        verdict
    }

    /// The subject withdraws consent for a data item.
    pub fn withdraw_consent(&mut self, data_key: &str) -> Result<(), AccountabilityError> {
        let policy = self
            .policies
            .get_mut(data_key)
            .ok_or_else(|| AccountabilityError::UnknownData(data_key.to_string()))?;
        policy.consent_withdrawn = true;
        Ok(())
    }

    /// Obligations currently due (erasures for expired / withdrawn items).
    pub fn due_obligations(&self) -> Vec<Obligation> {
        let mut due = Vec::new();
        for (key, p) in &self.policies {
            if p.erased {
                continue;
            }
            if p.consent_withdrawn {
                due.push(Obligation::EraseWithdrawn {
                    data_key: key.clone(),
                });
            } else if self.day > p.retention_until_day {
                due.push(Obligation::EraseExpired {
                    data_key: key.clone(),
                    deadline_day: p.retention_until_day,
                });
            }
        }
        due
    }

    /// Discharge an erasure obligation (recorded as a compliant event with
    /// the reserved purpose `"erasure"`).
    pub fn record_erasure(
        &mut self,
        data_key: &str,
        processor: &str,
    ) -> Result<(), AccountabilityError> {
        let policy = self
            .policies
            .get_mut(data_key)
            .ok_or_else(|| AccountabilityError::UnknownData(data_key.to_string()))?;
        policy.erased = true;
        self.append_event(data_key, processor, "erasure", Verdict::Compliant);
        Ok(())
    }

    /// Right of access: every event about the subject's data items.
    pub fn subject_report(&self, subject: &str) -> Vec<&UsageEvent> {
        let keys: BTreeSet<&str> = self
            .policies
            .iter()
            .filter(|(_, p)| p.subject == subject)
            .map(|(k, _)| k.as_str())
            .collect();
        self.events
            .iter()
            .filter(|e| keys.contains(e.data_key.as_str()))
            .collect()
    }

    /// All recorded violations (the supervisory-authority view).
    pub fn violations(&self) -> Vec<&UsageEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.verdict, Verdict::Violation(_)))
            .collect()
    }

    /// All events, oldest first.
    pub fn events(&self) -> &[UsageEvent] {
        &self.events
    }

    /// Verify the event hash chain.
    pub fn verify_chain(&self) -> bool {
        let mut prev = Hash256::ZERO;
        for e in &self.events {
            let verdict_byte = [match e.verdict {
                Verdict::Compliant => 0u8,
                Verdict::Violation(_) => 1u8,
            }];
            let expect = hash_parts(
                "blockprov-accountability",
                &[
                    prev.as_bytes(),
                    e.data_key.as_bytes(),
                    e.processor.as_bytes(),
                    e.purpose.as_bytes(),
                    &e.day.to_le_bytes(),
                    &verdict_byte,
                ],
            );
            if e.chain != expect {
                return false;
            }
            prev = e.chain;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger_with_policy() -> AccountabilityLedger {
        let mut l = AccountabilityLedger::new();
        l.declare_policy(
            "ehr/alice/visit-1",
            "alice",
            "clinic",
            &["treatment", "billing"],
            &["dr-bob", "billing-svc"],
            30,
        )
        .unwrap();
        l
    }

    #[test]
    fn compliant_usage_recorded_as_compliant() {
        let mut l = ledger_with_policy();
        let v = l.record_usage("ehr/alice/visit-1", "dr-bob", "treatment");
        assert_eq!(v, Verdict::Compliant);
        assert_eq!(l.events().len(), 1);
        assert!(l.violations().is_empty());
    }

    #[test]
    fn purpose_mismatch_is_a_recorded_violation() {
        let mut l = ledger_with_policy();
        let v = l.record_usage("ehr/alice/visit-1", "dr-bob", "marketing");
        assert_eq!(v, Verdict::Violation(Violation::PurposeMismatch));
        assert_eq!(
            l.violations().len(),
            1,
            "violations are evidence, not dropped"
        );
    }

    #[test]
    fn unauthorized_processor_detected() {
        let mut l = ledger_with_policy();
        let v = l.record_usage("ehr/alice/visit-1", "data-broker", "treatment");
        assert_eq!(v, Verdict::Violation(Violation::UnauthorizedProcessor));
    }

    #[test]
    fn retention_expiry_detected() {
        let mut l = ledger_with_policy();
        l.advance_days(31);
        let v = l.record_usage("ehr/alice/visit-1", "dr-bob", "treatment");
        assert_eq!(v, Verdict::Violation(Violation::RetentionExpired));
    }

    #[test]
    fn consent_withdrawal_blocks_future_use() {
        let mut l = ledger_with_policy();
        assert_eq!(
            l.record_usage("ehr/alice/visit-1", "dr-bob", "treatment"),
            Verdict::Compliant
        );
        l.withdraw_consent("ehr/alice/visit-1").unwrap();
        assert_eq!(
            l.record_usage("ehr/alice/visit-1", "dr-bob", "treatment"),
            Verdict::Violation(Violation::ConsentWithdrawn)
        );
    }

    #[test]
    fn unknown_data_is_no_policy_violation() {
        let mut l = AccountabilityLedger::new();
        assert_eq!(
            l.record_usage("unregistered", "p", "x"),
            Verdict::Violation(Violation::NoPolicy)
        );
    }

    #[test]
    fn duplicate_policy_rejected() {
        let mut l = ledger_with_policy();
        assert_eq!(
            l.declare_policy("ehr/alice/visit-1", "alice", "clinic", &[], &[], 1)
                .unwrap_err(),
            AccountabilityError::DuplicatePolicy("ehr/alice/visit-1".into())
        );
    }

    #[test]
    fn obligations_surface_and_discharge() {
        let mut l = ledger_with_policy();
        assert!(l.due_obligations().is_empty());
        l.advance_days(31);
        assert_eq!(
            l.due_obligations(),
            vec![Obligation::EraseExpired {
                data_key: "ehr/alice/visit-1".into(),
                deadline_day: 30
            }]
        );
        l.record_erasure("ehr/alice/visit-1", "clinic").unwrap();
        assert!(l.due_obligations().is_empty());
        // Post-erasure use is its own violation class.
        assert_eq!(
            l.record_usage("ehr/alice/visit-1", "dr-bob", "treatment"),
            Verdict::Violation(Violation::DataErased)
        );
    }

    #[test]
    fn withdrawal_creates_erasure_obligation() {
        let mut l = ledger_with_policy();
        l.withdraw_consent("ehr/alice/visit-1").unwrap();
        assert_eq!(
            l.due_obligations(),
            vec![Obligation::EraseWithdrawn {
                data_key: "ehr/alice/visit-1".into()
            }]
        );
    }

    #[test]
    fn subject_report_covers_only_their_data() {
        let mut l = ledger_with_policy();
        l.declare_policy(
            "ehr/bob/visit-9",
            "bob",
            "clinic",
            &["treatment"],
            &["dr-bob"],
            30,
        )
        .unwrap();
        l.record_usage("ehr/alice/visit-1", "dr-bob", "treatment");
        l.record_usage("ehr/bob/visit-9", "dr-bob", "treatment");
        l.record_usage("ehr/alice/visit-1", "billing-svc", "billing");
        let alice = l.subject_report("alice");
        assert_eq!(alice.len(), 2);
        assert!(alice.iter().all(|e| e.data_key.contains("alice")));
        assert_eq!(l.subject_report("bob").len(), 1);
        assert!(l.subject_report("nobody").is_empty());
    }

    #[test]
    fn event_chain_is_tamper_evident() {
        let mut l = ledger_with_policy();
        l.record_usage("ehr/alice/visit-1", "dr-bob", "treatment");
        l.record_usage("ehr/alice/visit-1", "data-broker", "treatment");
        assert!(l.verify_chain());
        // A processor trying to scrub its violation from history:
        l.events[1].verdict = Verdict::Compliant;
        assert!(!l.verify_chain());
    }
}
