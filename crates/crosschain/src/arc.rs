//! ARC \[88\]: an asynchronous consensus + relay-chain cross-chain solution
//! for consortium blockchains.
//!
//! The survey notes ARC "focuses on security and provides a clear system
//! description, but lacks a thorough evaluation and detailed implementation
//! discussion. Improvements could include a detailed evaluation, better
//! implementation discussions, and consideration of alternative trust
//! models for participants." This module supplies all three:
//!
//! * an implementation: cross-chain requests enqueue **asynchronously** —
//!   the source chain never blocks on the relay; a validator committee
//!   confirms requests in batches and acknowledgments flow back on the
//!   next batch boundary;
//! * alternative **trust models** ([`TrustModel`]): single operator,
//!   t-of-n committee, or unanimous consortium — the knob the survey asks
//!   for;
//! * an evaluation: experiment E22 sweeps batch size against latency
//!   (in batch intervals) and per-request validator signatures, the
//!   throughput/trust trade-off ARC's paper left unmeasured.

use crate::notary::{CrossChainEvent, NotaryCommittee};
use blockprov_crypto::sha256::{hash_parts, Hash256};
use blockprov_ledger::block::BlockHash;
use std::collections::BTreeMap;
use std::fmt;

/// Who must confirm a batch before it commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrustModel {
    /// One relay operator signs (fast, centralized trust).
    Single,
    /// `t` of the committee must sign.
    Committee {
        /// Required signatures.
        threshold: usize,
    },
    /// Every member must sign (consortium-unanimous).
    Unanimous,
}

/// State of a cross-chain request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    /// Accepted into the pending queue; source chain continues.
    Pending,
    /// Confirmed in a committed batch; acknowledgment available.
    Committed {
        /// Batch that carried it.
        batch: u64,
    },
}

/// Identifier of a queued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub Hash256);

/// A cross-chain request between consortium chains.
#[derive(Debug, Clone)]
pub struct CrossRequest {
    /// Identifier.
    pub id: RequestId,
    /// Source chain.
    pub from: String,
    /// Destination chain.
    pub to: String,
    /// Opaque payload.
    pub payload: Vec<u8>,
    /// Submission tick.
    pub submitted_at: u64,
    /// Current state.
    pub state: RequestState,
}

/// A committed batch: the relay-chain block.
#[derive(Debug, Clone)]
pub struct RelayBatch {
    /// Batch height.
    pub height: u64,
    /// Previous batch hash.
    pub prev: Hash256,
    /// Digest over the carried request ids.
    pub root: Hash256,
    /// Requests carried.
    pub requests: Vec<RequestId>,
    /// Validator signatures collected (count depends on the trust model).
    pub signatures: usize,
    /// Commit tick.
    pub committed_at: u64,
    /// Batch hash.
    pub hash: Hash256,
}

/// Errors from the ARC relay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArcError {
    /// Chain not registered with the consortium.
    UnknownChain(String),
    /// Request id not known.
    UnknownRequest(RequestId),
}

impl fmt::Display for ArcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArcError::UnknownChain(c) => write!(f, "chain {c:?} not in consortium"),
            ArcError::UnknownRequest(r) => write!(f, "unknown request {:?}", r.0),
        }
    }
}

impl std::error::Error for ArcError {}

/// The asynchronous relay.
pub struct ArcRelay {
    chains: Vec<String>,
    trust: TrustModel,
    committee: NotaryCommittee,
    pending: Vec<RequestId>,
    requests: BTreeMap<RequestId, CrossRequest>,
    batches: Vec<RelayBatch>,
    tick: u64,
    seq: u64,
}

impl fmt::Debug for ArcRelay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArcRelay")
            .field("chains", &self.chains.len())
            .field("pending", &self.pending.len())
            .field("batches", &self.batches.len())
            .finish_non_exhaustive()
    }
}

impl ArcRelay {
    /// A consortium relay over `chains` with `validators` members and the
    /// given trust model.
    pub fn new(chains: &[&str], validators: usize, trust: TrustModel) -> Self {
        Self::with_key_capacity(chains, validators, trust, 6)
    }

    /// Like [`ArcRelay::new`] with an explicit validator signing capacity
    /// (`2^key_height` batch signatures per validator) — short simulations
    /// should pass a small height, keygen cost is linear in the leaf count.
    pub fn with_key_capacity(
        chains: &[&str],
        validators: usize,
        trust: TrustModel,
        key_height: u32,
    ) -> Self {
        Self {
            chains: chains.iter().map(|c| c.to_string()).collect(),
            trust,
            committee: NotaryCommittee::with_prefix_and_capacity(
                "arc-validator",
                validators,
                validators,
                key_height,
            ),
            pending: Vec::new(),
            requests: BTreeMap::new(),
            batches: Vec::new(),
            tick: 0,
            seq: 0,
        }
    }

    fn signatures_required(&self) -> usize {
        match self.trust {
            TrustModel::Single => 1,
            TrustModel::Committee { threshold } => threshold.min(self.committee.len()),
            TrustModel::Unanimous => self.committee.len(),
        }
    }

    /// Current logical tick (advanced by batch processing).
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Submit a request; returns immediately (asynchronous — the source
    /// chain does not wait for relay consensus).
    pub fn submit(
        &mut self,
        from: &str,
        to: &str,
        payload: &[u8],
    ) -> Result<RequestId, ArcError> {
        for c in [from, to] {
            if !self.chains.iter().any(|x| x == c) {
                return Err(ArcError::UnknownChain(c.to_string()));
            }
        }
        let seq = self.seq;
        self.seq += 1;
        let id = RequestId(hash_parts(
            "blockprov-arc-request",
            &[from.as_bytes(), to.as_bytes(), payload, &seq.to_le_bytes()],
        ));
        self.requests.insert(
            id,
            CrossRequest {
                id,
                from: from.to_string(),
                to: to.to_string(),
                payload: payload.to_vec(),
                submitted_at: self.tick,
                state: RequestState::Pending,
            },
        );
        self.pending.push(id);
        Ok(id)
    }

    /// Process one batch interval: take up to `batch_size` pending requests,
    /// collect validator signatures per the trust model, and commit the
    /// batch. Advances the clock by one tick either way.
    pub fn process_batch(&mut self, batch_size: usize) -> Option<&RelayBatch> {
        self.tick += 1;
        if self.pending.is_empty() {
            return None;
        }
        let take = batch_size.max(1).min(self.pending.len());
        let ids: Vec<RequestId> = self.pending.drain(..take).collect();

        let id_bytes: Vec<[u8; 32]> = ids.iter().map(|r| r.0 .0).collect();
        let parts: Vec<&[u8]> = id_bytes.iter().map(|b| b.as_slice()).collect();
        let root = hash_parts("blockprov-arc-batch-root", &parts);

        // Validator confirmation: threshold signatures over the batch root.
        let need = self.signatures_required();
        let signers: Vec<usize> = (0..need).collect();
        let event = CrossChainEvent {
            chain: "arc-relay".into(),
            block: BlockHash(root),
            height: self.batches.len() as u64,
            tx: root,
        };
        let attestation = self.committee.attest(&event, &signers);
        let signatures = attestation.signatures.len();

        let height = self.batches.len() as u64;
        let prev = self.batches.last().map(|b| b.hash).unwrap_or(Hash256::ZERO);
        let hash = hash_parts(
            "blockprov-arc-batch",
            &[&height.to_le_bytes(), prev.as_bytes(), root.as_bytes()],
        );
        for id in &ids {
            if let Some(req) = self.requests.get_mut(id) {
                req.state = RequestState::Committed { batch: height };
            }
        }
        self.batches.push(RelayBatch {
            height,
            prev,
            root,
            requests: ids,
            signatures,
            committed_at: self.tick,
            hash,
        });
        self.batches.last()
    }

    /// Asynchronous acknowledgment: Some(latency in ticks) once committed.
    pub fn ack_of(&self, id: &RequestId) -> Result<Option<u64>, ArcError> {
        let req = self.requests.get(id).ok_or(ArcError::UnknownRequest(*id))?;
        match req.state {
            RequestState::Pending => Ok(None),
            RequestState::Committed { batch } => {
                let b = &self.batches[batch as usize];
                Ok(Some(b.committed_at - req.submitted_at))
            }
        }
    }

    /// Look up a request.
    pub fn request(&self, id: &RequestId) -> Option<&CrossRequest> {
        self.requests.get(id)
    }

    /// Committed batches.
    pub fn batches(&self) -> &[RelayBatch] {
        &self.batches
    }

    /// Requests still pending.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Verify the relay chain's hash linkage.
    pub fn verify_chain(&self) -> bool {
        let mut prev = Hash256::ZERO;
        for b in &self.batches {
            let expect = hash_parts(
                "blockprov-arc-batch",
                &[&b.height.to_le_bytes(), prev.as_bytes(), b.root.as_bytes()],
            );
            if b.prev != prev || b.hash != expect {
                return false;
            }
            prev = b.hash;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relay(trust: TrustModel) -> ArcRelay {
        ArcRelay::with_key_capacity(&["org-a", "org-b", "org-c"], 4, trust, 3)
    }

    #[test]
    fn submit_is_asynchronous() {
        let mut r = relay(TrustModel::Committee { threshold: 3 });
        let id = r.submit("org-a", "org-b", b"tx-1").unwrap();
        // No batch processed yet: request pending, no ack, clock unmoved.
        assert_eq!(r.request(&id).unwrap().state, RequestState::Pending);
        assert_eq!(r.ack_of(&id).unwrap(), None);
        assert_eq!(r.pending_count(), 1);
    }

    #[test]
    fn batch_commits_and_acks() {
        let mut r = relay(TrustModel::Committee { threshold: 3 });
        let id = r.submit("org-a", "org-b", b"tx-1").unwrap();
        let batch = r.process_batch(16).unwrap();
        assert_eq!(batch.requests, vec![id]);
        assert_eq!(batch.signatures, 3);
        assert_eq!(r.ack_of(&id).unwrap(), Some(1), "committed on the next tick");
    }

    #[test]
    fn unknown_chain_rejected() {
        let mut r = relay(TrustModel::Single);
        assert_eq!(
            r.submit("org-a", "mallory-chain", b"x").unwrap_err(),
            ArcError::UnknownChain("mallory-chain".into())
        );
    }

    #[test]
    fn trust_models_scale_signature_count() {
        for (trust, expect) in [
            (TrustModel::Single, 1usize),
            (TrustModel::Committee { threshold: 3 }, 3),
            (TrustModel::Unanimous, 4),
        ] {
            let mut r = relay(trust);
            r.submit("org-a", "org-b", b"x").unwrap();
            assert_eq!(r.process_batch(8).unwrap().signatures, expect, "{trust:?}");
        }
    }

    #[test]
    fn latency_depends_on_queue_position_and_batch_size() {
        let mut r = relay(TrustModel::Single);
        let ids: Vec<RequestId> = (0..6u8)
            .map(|i| r.submit("org-a", "org-b", &[i]).unwrap())
            .collect();
        // Batch size 2: requests drain two per tick.
        while r.pending_count() > 0 {
            r.process_batch(2);
        }
        let lat: Vec<u64> = ids.iter().map(|i| r.ack_of(i).unwrap().unwrap()).collect();
        assert_eq!(lat, vec![1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn empty_interval_produces_no_batch_but_time_passes() {
        let mut r = relay(TrustModel::Single);
        assert!(r.process_batch(4).is_none());
        assert_eq!(r.now(), 1);
    }

    #[test]
    fn relay_chain_links_and_detects_tamper() {
        let mut r = relay(TrustModel::Unanimous);
        for i in 0..5u8 {
            r.submit("org-a", "org-c", &[i]).unwrap();
            r.process_batch(1);
        }
        assert_eq!(r.batches().len(), 5);
        assert!(r.verify_chain());
        r.batches[2].root = Hash256::ZERO;
        assert!(!r.verify_chain());
    }

    #[test]
    fn ack_of_unknown_request_errors() {
        let r = relay(TrustModel::Single);
        let ghost = RequestId(hash_parts("x", &[b"ghost"]));
        assert_eq!(r.ack_of(&ghost).unwrap_err(), ArcError::UnknownRequest(ghost));
    }
}
