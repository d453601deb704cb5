//! Bloxberg \[80\]: research-object provenance and reproducibility
//! certification.
//!
//! The surveyed system "introduces a unique provenance model encompassing
//! configuration details, code, and other data specific to scientific
//! software systems", run by a consortium of research institutions that
//! certify results. Reproduction:
//!
//! * a [`ResearchObject`] captures everything a re-run needs to be
//!   comparable: code digest, canonicalized configuration, input digests,
//!   environment tag — plus the produced result digest;
//! * its identity is the digest of all of the above **except** the result,
//!   so two executions of the same computation share an object identity
//!   and their results can be compared;
//! * consortium institutions **certify** an object by independently
//!   re-running it and voting; a threshold of matching results yields a
//!   [`Certificate`] (and a mismatching re-run is recorded — failed
//!   reproduction is a first-class outcome);
//! * verification: anyone holding the certificate and a claimed result
//!   checks both the consortium signature count and the result digest.

use blockprov_crypto::sha256::{hash_parts, sha256, Hash256};
use std::collections::BTreeMap;
use std::fmt;

/// A research object: the reproducibility unit of Bloxberg.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResearchObject {
    /// Digest of the exact code (source tree / container image).
    pub code_digest: Hash256,
    /// Canonicalized configuration (sorted key → value).
    pub config: BTreeMap<String, String>,
    /// Digests of every input dataset.
    pub input_digests: Vec<Hash256>,
    /// Environment tag (toolchain, OS image…).
    pub environment: String,
    /// Digest of the produced result.
    pub result_digest: Hash256,
}

impl ResearchObject {
    /// Build an object from raw artifacts.
    pub fn from_artifacts(
        code: &[u8],
        config: &[(&str, &str)],
        inputs: &[&[u8]],
        environment: &str,
        result: &[u8],
    ) -> Self {
        Self {
            code_digest: sha256(code),
            config: config
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            input_digests: inputs.iter().map(|i| sha256(i)).collect(),
            environment: environment.to_string(),
            result_digest: sha256(result),
        }
    }

    /// The computation identity: code + config + inputs + environment,
    /// *excluding* the result — re-runs of the same computation share it.
    pub fn computation_id(&self) -> Hash256 {
        let mut parts: Vec<Vec<u8>> = vec![self.code_digest.0.to_vec()];
        for (k, v) in &self.config {
            let mut row = Vec::with_capacity(k.len() + v.len() + 16);
            row.extend_from_slice(&(k.len() as u64).to_le_bytes());
            row.extend_from_slice(k.as_bytes());
            row.extend_from_slice(v.as_bytes());
            parts.push(row);
        }
        for d in &self.input_digests {
            parts.push(d.0.to_vec());
        }
        parts.push(self.environment.as_bytes().to_vec());
        let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        hash_parts("blockprov-bloxberg-computation", &refs)
    }
}

/// One institution's re-run verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endorsement {
    /// Voting institution.
    pub institution: String,
    /// Result digest the institution obtained.
    pub obtained: Hash256,
    /// Whether it matched the claimed result.
    pub matched: bool,
}

/// A consortium reproducibility certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The certified computation.
    pub computation: Hash256,
    /// The certified result digest.
    pub result: Hash256,
    /// Institutions whose re-runs matched.
    pub endorsers: Vec<String>,
    /// Certificate digest (what goes on chain).
    pub digest: Hash256,
}

/// Errors from the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BloxbergError {
    /// Computation not registered.
    UnknownComputation(Hash256),
    /// Institution is not a consortium member.
    UnknownInstitution(String),
    /// Institution already endorsed this computation.
    DuplicateEndorsement(String),
    /// Not enough matching endorsements yet.
    ThresholdNotMet {
        /// Matching endorsements so far.
        have: usize,
        /// Matching endorsements needed.
        need: usize,
    },
}

impl fmt::Display for BloxbergError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BloxbergError::UnknownComputation(c) => write!(f, "unknown computation {c}"),
            BloxbergError::UnknownInstitution(i) => write!(f, "unknown institution {i:?}"),
            BloxbergError::DuplicateEndorsement(i) => {
                write!(f, "institution {i:?} already endorsed")
            }
            BloxbergError::ThresholdNotMet { have, need } => {
                write!(f, "only {have}/{need} matching endorsements")
            }
        }
    }
}

impl std::error::Error for BloxbergError {}

struct Registered {
    object: ResearchObject,
    endorsements: Vec<Endorsement>,
}

/// The consortium registry of research objects.
pub struct BloxbergRegistry {
    institutions: Vec<String>,
    threshold: usize,
    objects: BTreeMap<Hash256, Registered>,
}

impl fmt::Debug for BloxbergRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BloxbergRegistry")
            .field("institutions", &self.institutions.len())
            .field("objects", &self.objects.len())
            .finish_non_exhaustive()
    }
}

impl BloxbergRegistry {
    /// A consortium of `institutions` requiring `threshold` matching
    /// re-runs for certification.
    pub fn new(institutions: &[&str], threshold: usize) -> Self {
        Self {
            institutions: institutions.iter().map(|s| s.to_string()).collect(),
            threshold: threshold.max(1),
            objects: BTreeMap::new(),
        }
    }

    /// Register a research object; returns its computation id.
    pub fn register(&mut self, object: ResearchObject) -> Hash256 {
        let id = object.computation_id();
        self.objects
            .entry(id)
            .or_insert(Registered { object, endorsements: Vec::new() });
        id
    }

    /// The registered object for a computation.
    pub fn object(&self, computation: &Hash256) -> Option<&ResearchObject> {
        self.objects.get(computation).map(|r| &r.object)
    }

    /// An institution submits its re-run result for a computation.
    pub fn endorse(
        &mut self,
        computation: &Hash256,
        institution: &str,
        obtained_result: &[u8],
    ) -> Result<&Endorsement, BloxbergError> {
        if !self.institutions.iter().any(|i| i == institution) {
            return Err(BloxbergError::UnknownInstitution(institution.to_string()));
        }
        let reg = self
            .objects
            .get_mut(computation)
            .ok_or(BloxbergError::UnknownComputation(*computation))?;
        if reg.endorsements.iter().any(|e| e.institution == institution) {
            return Err(BloxbergError::DuplicateEndorsement(institution.to_string()));
        }
        let obtained = sha256(obtained_result);
        let matched = obtained == reg.object.result_digest;
        reg.endorsements.push(Endorsement {
            institution: institution.to_string(),
            obtained,
            matched,
        });
        Ok(reg.endorsements.last().expect("just pushed"))
    }

    /// All endorsements for a computation.
    pub fn endorsements(&self, computation: &Hash256) -> &[Endorsement] {
        self.objects
            .get(computation)
            .map(|r| r.endorsements.as_slice())
            .unwrap_or(&[])
    }

    /// Issue a certificate once the matching-endorsement threshold is met.
    pub fn certify(&self, computation: &Hash256) -> Result<Certificate, BloxbergError> {
        let reg = self
            .objects
            .get(computation)
            .ok_or(BloxbergError::UnknownComputation(*computation))?;
        let endorsers: Vec<String> = reg
            .endorsements
            .iter()
            .filter(|e| e.matched)
            .map(|e| e.institution.clone())
            .collect();
        if endorsers.len() < self.threshold {
            return Err(BloxbergError::ThresholdNotMet {
                have: endorsers.len(),
                need: self.threshold,
            });
        }
        let mut parts: Vec<Vec<u8>> =
            vec![computation.0.to_vec(), reg.object.result_digest.0.to_vec()];
        for e in &endorsers {
            parts.push(e.as_bytes().to_vec());
        }
        let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        Ok(Certificate {
            computation: *computation,
            result: reg.object.result_digest,
            endorsers,
            digest: hash_parts("blockprov-bloxberg-cert", &refs),
        })
    }

    /// Verify a claimed result against a certificate.
    pub fn verify_result(cert: &Certificate, claimed_result: &[u8]) -> bool {
        sha256(claimed_result) == cert.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn object(result: &[u8]) -> ResearchObject {
        ResearchObject::from_artifacts(
            b"fn main() { simulate(); }",
            &[("steps", "1000"), ("dt", "0.01")],
            &[b"dataset-a", b"dataset-b"],
            "rust-1.95/linux",
            result,
        )
    }

    fn consortium() -> BloxbergRegistry {
        BloxbergRegistry::new(&["mpg", "eth", "cnrs", "csail"], 3)
    }

    #[test]
    fn same_computation_same_id_results_differ() {
        let a = object(b"result-x");
        let b = object(b"result-y");
        assert_eq!(a.computation_id(), b.computation_id());
        assert_ne!(a.result_digest, b.result_digest);
    }

    #[test]
    fn config_change_changes_identity() {
        let a = object(b"r");
        let mut b = object(b"r");
        b.config.insert("dt".into(), "0.02".into());
        assert_ne!(a.computation_id(), b.computation_id());
    }

    #[test]
    fn certification_after_threshold_matching_reruns() {
        let mut reg = consortium();
        let id = reg.register(object(b"the result"));
        reg.endorse(&id, "mpg", b"the result").unwrap();
        reg.endorse(&id, "eth", b"the result").unwrap();
        assert!(matches!(
            reg.certify(&id),
            Err(BloxbergError::ThresholdNotMet { have: 2, need: 3 })
        ));
        reg.endorse(&id, "cnrs", b"the result").unwrap();
        let cert = reg.certify(&id).unwrap();
        assert_eq!(cert.endorsers.len(), 3);
        assert!(BloxbergRegistry::verify_result(&cert, b"the result"));
        assert!(!BloxbergRegistry::verify_result(&cert, b"fabricated"));
    }

    #[test]
    fn failed_reproduction_is_recorded_and_blocks_certification() {
        let mut reg = consortium();
        let id = reg.register(object(b"claimed"));
        reg.endorse(&id, "mpg", b"claimed").unwrap();
        let e = reg.endorse(&id, "eth", b"different output").unwrap();
        assert!(!e.matched, "mismatching re-run is recorded, not hidden");
        reg.endorse(&id, "cnrs", b"another output").unwrap();
        assert!(matches!(
            reg.certify(&id),
            Err(BloxbergError::ThresholdNotMet { have: 1, need: 3 })
        ));
        assert_eq!(reg.endorsements(&id).len(), 3);
    }

    #[test]
    fn outsiders_and_double_votes_rejected() {
        let mut reg = consortium();
        let id = reg.register(object(b"r"));
        assert_eq!(
            reg.endorse(&id, "paper-mill", b"r").unwrap_err(),
            BloxbergError::UnknownInstitution("paper-mill".into())
        );
        reg.endorse(&id, "mpg", b"r").unwrap();
        assert_eq!(
            reg.endorse(&id, "mpg", b"r").unwrap_err(),
            BloxbergError::DuplicateEndorsement("mpg".into())
        );
    }

    #[test]
    fn unknown_computation_errors() {
        let mut reg = consortium();
        let ghost = sha256(b"never registered");
        assert_eq!(
            reg.endorse(&ghost, "mpg", b"r").unwrap_err(),
            BloxbergError::UnknownComputation(ghost)
        );
        assert!(matches!(
            reg.certify(&ghost),
            Err(BloxbergError::UnknownComputation(_))
        ));
    }

    #[test]
    fn registering_twice_is_idempotent() {
        let mut reg = consortium();
        let id1 = reg.register(object(b"r"));
        let id2 = reg.register(object(b"r"));
        assert_eq!(id1, id2);
        reg.endorse(&id1, "mpg", b"r").unwrap();
        assert_eq!(reg.endorsements(&id2).len(), 1);
    }
}
