//! Hash-chain range proofs (HashWires-style), substituting PrivChain's ZKRPs.
//!
//! PrivChain \[52\] lets supply-chain actors prove facts like "the shipment
//! temperature stayed within [2, 8] °C" without revealing readings, using
//! Bulletproofs-style zero-knowledge range proofs. Those need homomorphic
//! commitments we cannot build from scratch responsibly, so this module
//! implements the strongest hash-only alternative — two hash chains per
//! value, the construction behind PayWord/HashWires:
//!
//! * commit: `C = H(H^v(s_up) || H^(M-v)(s_down) || salt)` for value
//!   `v ∈ [0, M]`;
//! * prove `v ≥ lo`: reveal `a = H^(v-lo)(s_up)`; the verifier checks
//!   `H^lo(a)` matches the up-chain head;
//! * prove `v ≤ hi`: reveal `b = H^((M-v)-(M-hi))(s_down) = H^(hi-v)(s_down)`;
//!   the verifier applies `H^(M-hi)`.
//!
//! The revealed values are interior chain points: inverting them to recover
//! `v` requires breaking SHA-256 preimage resistance. **Trust model** (same
//! as HashWires): soundness holds when the
//! commitment was formed honestly — e.g. by sensor firmware or the capture
//! pathway at record time — because a malicious committer could bind the two
//! chains to different values. Completeness and verifier cost match the
//! shapes the paper's evaluation axis E11 measures (linear in range size).

use crate::hmac::hmac_sha256_parts;
use crate::sha256::{hash_parts, Hash256, Sha256};
use blockprov_wire::{Codec, Reader, WireError, Writer};

/// One hash-chain step, domain-separated from every other chain use.
fn step(v: Hash256) -> Hash256 {
    Sha256::new().chain(&[0x04]).chain(v.as_bytes()).finalize()
}

/// Apply `n` chain steps.
fn walk(mut v: Hash256, n: u64) -> Hash256 {
    for _ in 0..n {
        v = step(v);
    }
    v
}

/// Errors from range-proof construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeProofError {
    /// The value lies outside `[0, max]`.
    ValueOutOfDomain,
    /// The requested interval is empty or exceeds the domain.
    BadInterval,
    /// The value does not satisfy the requested interval.
    ValueOutsideInterval,
}

impl std::fmt::Display for RangeProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RangeProofError::ValueOutOfDomain => write!(f, "value outside commitment domain"),
            RangeProofError::BadInterval => write!(f, "invalid interval"),
            RangeProofError::ValueOutsideInterval => write!(f, "value outside requested interval"),
        }
    }
}

impl std::error::Error for RangeProofError {}

/// Secret material for a committed value (kept by the prover).
#[derive(Debug, Clone)]
pub struct RangeWitness {
    value: u64,
    max: u64,
    seed_up: Hash256,
    seed_down: Hash256,
    salt: Hash256,
}

/// Public commitment to a value in `[0, max]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RangeCommitment {
    /// Domain upper bound `M` (chain length).
    pub max: u64,
    /// `H(up_head || down_head || salt)`.
    pub digest: Hash256,
}

impl Codec for RangeCommitment {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.max);
        self.digest.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            max: r.get_varint()?,
            digest: Hash256::decode(r)?,
        })
    }
}

/// A proof that the committed value lies in `[lo, hi]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeProof {
    /// Claimed interval lower bound.
    pub lo: u64,
    /// Claimed interval upper bound.
    pub hi: u64,
    /// `H^(v-lo)(seed_up)` — walks to the up head in `lo` steps.
    pub up_point: Hash256,
    /// `H^(hi-v)(seed_down)` — walks to the down head in `max-hi` steps.
    pub down_point: Hash256,
    /// Commitment salt (safe to reveal; hiding comes from the chain points).
    pub salt: Hash256,
}

impl Codec for RangeProof {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.lo);
        w.put_varint(self.hi);
        self.up_point.encode(w);
        self.down_point.encode(w);
        self.salt.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            lo: r.get_varint()?,
            hi: r.get_varint()?,
            up_point: Hash256::decode(r)?,
            down_point: Hash256::decode(r)?,
            salt: Hash256::decode(r)?,
        })
    }
}

impl RangeWitness {
    /// Commit to `value ∈ [0, max]`, deriving chain seeds from `seed`.
    ///
    /// Commitment cost is `O(max)` hash steps; keep `max ≤ ~2^17` (sensor
    /// scales). Larger domains should be quantized by the caller.
    pub fn commit(
        value: u64,
        max: u64,
        seed: &[u8; 32],
    ) -> Result<(RangeWitness, RangeCommitment), RangeProofError> {
        if value > max {
            return Err(RangeProofError::ValueOutOfDomain);
        }
        let seed_up = hmac_sha256_parts(seed, &[b"range-up"]);
        let seed_down = hmac_sha256_parts(seed, &[b"range-down"]);
        let salt = hmac_sha256_parts(seed, &[b"range-salt"]);
        let witness = RangeWitness {
            value,
            max,
            seed_up,
            seed_down,
            salt,
        };
        let commitment = witness.commitment();
        Ok((witness, commitment))
    }

    /// The committed value (prover-side only).
    pub fn value(&self) -> u64 {
        self.value
    }

    fn up_head(&self) -> Hash256 {
        walk(self.seed_up, self.value)
    }

    fn down_head(&self) -> Hash256 {
        walk(self.seed_down, self.max - self.value)
    }

    /// Recompute the public commitment.
    pub fn commitment(&self) -> RangeCommitment {
        let digest = hash_parts(
            "blockprov-range",
            &[
                &self.max.to_le_bytes(),
                self.up_head().as_bytes(),
                self.down_head().as_bytes(),
                self.salt.as_bytes(),
            ],
        );
        RangeCommitment {
            max: self.max,
            digest,
        }
    }

    /// Prove `lo ≤ value ≤ hi` without revealing `value`.
    pub fn prove(&self, lo: u64, hi: u64) -> Result<RangeProof, RangeProofError> {
        if lo > hi || hi > self.max {
            return Err(RangeProofError::BadInterval);
        }
        if self.value < lo || self.value > hi {
            return Err(RangeProofError::ValueOutsideInterval);
        }
        Ok(RangeProof {
            lo,
            hi,
            up_point: walk(self.seed_up, self.value - lo),
            down_point: walk(self.seed_down, self.max - self.value - (self.max - hi)),
            salt: self.salt,
        })
    }
}

impl RangeProof {
    /// Verify against a commitment. Cost: `lo + (max - hi)` hash steps.
    pub fn verify(&self, commitment: &RangeCommitment) -> bool {
        if self.lo > self.hi || self.hi > commitment.max {
            return false;
        }
        let up_head = walk(self.up_point, self.lo);
        let down_head = walk(self.down_point, commitment.max - self.hi);
        let digest = hash_parts(
            "blockprov-range",
            &[
                &commitment.max.to_le_bytes(),
                up_head.as_bytes(),
                down_head.as_bytes(),
                self.salt.as_bytes(),
            ],
        );
        digest == commitment.digest
    }

    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.to_wire().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed(n: u8) -> [u8; 32] {
        [n; 32]
    }

    #[test]
    fn commit_prove_verify_happy_path() {
        let (w, c) = RangeWitness::commit(42, 255, &seed(1)).unwrap();
        let p = w.prove(10, 100).unwrap();
        assert!(p.verify(&c));
    }

    #[test]
    fn tight_bounds_verify() {
        let (w, c) = RangeWitness::commit(42, 255, &seed(2)).unwrap();
        // Exact-value interval still verifies (degenerate range).
        let p = w.prove(42, 42).unwrap();
        assert!(p.verify(&c));
        // Full-domain interval verifies.
        let p = w.prove(0, 255).unwrap();
        assert!(p.verify(&c));
    }

    #[test]
    fn boundary_values() {
        let (w0, c0) = RangeWitness::commit(0, 100, &seed(3)).unwrap();
        assert!(w0.prove(0, 0).unwrap().verify(&c0));
        let (wm, cm) = RangeWitness::commit(100, 100, &seed(4)).unwrap();
        assert!(wm.prove(100, 100).unwrap().verify(&cm));
    }

    #[test]
    fn prover_cannot_claim_false_interval() {
        let (w, _) = RangeWitness::commit(42, 255, &seed(5)).unwrap();
        assert_eq!(w.prove(43, 100), Err(RangeProofError::ValueOutsideInterval));
        assert_eq!(w.prove(0, 41), Err(RangeProofError::ValueOutsideInterval));
        assert_eq!(w.prove(50, 40), Err(RangeProofError::BadInterval));
        assert_eq!(w.prove(0, 300), Err(RangeProofError::BadInterval));
    }

    #[test]
    fn forged_proof_rejected() {
        let (w, c) = RangeWitness::commit(42, 255, &seed(6)).unwrap();
        let honest = w.prove(40, 50).unwrap();

        // Widening the claimed interval breaks the chain arithmetic.
        let mut forged = honest.clone();
        forged.lo = 0;
        assert!(!forged.verify(&c));
        let mut forged = honest.clone();
        forged.hi = 255;
        assert!(!forged.verify(&c));

        // Random points do not verify.
        let mut forged = honest.clone();
        forged.up_point = crate::sha256::sha256(b"junk");
        assert!(!forged.verify(&c));
    }

    #[test]
    fn proof_does_not_verify_under_other_commitment() {
        let (w1, _c1) = RangeWitness::commit(42, 255, &seed(7)).unwrap();
        let (_w2, c2) = RangeWitness::commit(42, 255, &seed(8)).unwrap();
        let p = w1.prove(0, 255).unwrap();
        assert!(!p.verify(&c2));
    }

    #[test]
    fn commitment_hides_value() {
        // Same seeds, different values → different digests (binding), and
        // the digest alone reveals nothing recoverable without chain walks.
        let (_, c1) = RangeWitness::commit(10, 255, &seed(9)).unwrap();
        let (_, c2) = RangeWitness::commit(11, 255, &seed(9)).unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn out_of_domain_value_rejected_at_commit() {
        assert_eq!(
            RangeWitness::commit(256, 255, &seed(10)).err(),
            Some(RangeProofError::ValueOutOfDomain)
        );
    }

    #[test]
    fn codec_round_trips() {
        let (w, c) = RangeWitness::commit(7, 64, &seed(11)).unwrap();
        let p = w.prove(0, 10).unwrap();
        assert_eq!(RangeCommitment::from_wire(&c.to_wire()).unwrap(), c);
        let decoded = RangeProof::from_wire(&p.to_wire()).unwrap();
        assert_eq!(decoded, p);
        assert!(decoded.verify(&c));
    }

    #[test]
    fn supply_chain_temperature_scenario() {
        // Cold-chain: temperature scaled to decicelsius in [0, 400] (= 0.0 to
        // 40.0 °C). Prove the reading stayed in [2.0, 8.0] °C.
        let reading_decic = 55; // 5.5 °C
        let (w, c) = RangeWitness::commit(reading_decic, 400, &seed(12)).unwrap();
        let p = w.prove(20, 80).unwrap();
        assert!(p.verify(&c));
        // A spoiled reading cannot produce the proof.
        let (w_bad, _) = RangeWitness::commit(120, 400, &seed(13)).unwrap();
        assert!(w_bad.prove(20, 80).is_err());
    }
}
