//! BlockDFL \[62\]: fully decentralized P2P federated learning with
//! committee voting and gradient compression.
//!
//! The surveyed system "employs a voting mechanism and gradient compression
//! to coordinate FL among participants without mutual trust, defending
//! against poisoning attacks". Two mechanisms distinguish it from the
//! reputation scheme in [`crate::fl`]:
//!
//! * **Top-k gradient compression** — workers ship only the `k` largest-
//!   magnitude coordinates of each gradient, cutting per-round
//!   communication by ~`dim/k` while preserving the descent direction
//!   (experiment E21 measures both);
//! * **committee voting** — each round a rotating verification committee
//!   scores every candidate update against its own local gradient (sign
//!   agreement of the shipped coordinates); only majority-approved updates
//!   are aggregated, so there is no trusted server to poison and no
//!   long-lived reputation to game.
//!
//! Every aggregated round is sealed into a hash-chained block, the
//! decentralized ledger of model versions.

use blockprov_crypto::hmac::HmacDrbg;
use blockprov_crypto::sha256::{hash_parts, Hash256};
use std::fmt;

/// A top-k sparsified gradient.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseGradient {
    /// Full dimensionality of the dense gradient.
    pub dim: usize,
    /// Retained coordinate indices (ascending).
    pub indices: Vec<u32>,
    /// Values at those coordinates.
    pub values: Vec<f64>,
}

impl SparseGradient {
    /// Wire size in bytes (4 per index + 8 per value) — the communication
    /// metric of E21.
    pub fn wire_bytes(&self) -> u64 {
        (self.indices.len() * 4 + self.values.len() * 8) as u64
    }

    /// Expand back to a dense vector (zeros elsewhere).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] = v;
        }
        out
    }
}

/// Keep the `k` largest-magnitude coordinates of `grad`.
pub fn compress_topk(grad: &[f64], k: usize) -> SparseGradient {
    let k = k.clamp(1, grad.len());
    let mut order: Vec<usize> = (0..grad.len()).collect();
    order.sort_by(|&a, &b| {
        grad[b]
            .abs()
            .partial_cmp(&grad[a].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut picked: Vec<usize> = order.into_iter().take(k).collect();
    picked.sort_unstable();
    SparseGradient {
        dim: grad.len(),
        indices: picked.iter().map(|&i| i as u32).collect(),
        values: picked.iter().map(|&i| grad[i]).collect(),
    }
}

/// Worker behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerKind {
    /// Follows the protocol.
    Honest,
    /// Ships reversed gradients (model poisoning).
    Poisoner,
}

/// Configuration of a BlockDFL federation.
#[derive(Debug, Clone)]
pub struct DflConfig {
    /// Number of peers.
    pub peers: usize,
    /// Fraction of poisoning peers (0.0–1.0).
    pub poisoner_fraction: f64,
    /// Model dimensionality.
    pub dim: usize,
    /// Coordinates shipped per update (top-k). `dim` disables compression.
    pub topk: usize,
    /// Verification committee size per round.
    pub committee: usize,
    /// Enable committee voting (disabling reproduces the undefended
    /// baseline).
    pub voting: bool,
    /// Non-IID spread of local optima around the global optimum.
    pub spread: f64,
    /// Learning rate.
    pub lr: f64,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for DflConfig {
    fn default() -> Self {
        Self {
            peers: 12,
            poisoner_fraction: 0.0,
            dim: 64,
            topk: 64,
            committee: 5,
            voting: true,
            spread: 0.2,
            lr: 0.25,
            seed: 7,
        }
    }
}

/// Per-round outcome.
#[derive(Debug, Clone)]
pub struct DflRound {
    /// Round number (1-based).
    pub round: u32,
    /// Updates approved by the committee.
    pub approved: usize,
    /// Updates rejected.
    pub rejected: usize,
    /// Bytes shipped by workers this round (compressed updates).
    pub comm_bytes: u64,
    /// Distance of the global model to the true optimum after the round.
    pub distance: f64,
    /// Hash of the sealed round block.
    pub block_hash: Hash256,
}

/// The decentralized federation.
pub struct BlockDfl {
    config: DflConfig,
    kinds: Vec<PeerKind>,
    local_optima: Vec<Vec<f64>>,
    global: Vec<f64>,
    optimum: Vec<f64>,
    rounds: Vec<DflRound>,
    drbg: HmacDrbg,
}

impl fmt::Debug for BlockDfl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockDfl")
            .field("peers", &self.config.peers)
            .field("rounds", &self.rounds.len())
            .field("distance", &self.distance())
            .finish_non_exhaustive()
    }
}

impl BlockDfl {
    /// Set up the federation: the true optimum, non-IID local optima, and
    /// the peer population (the first `⌈f·n⌉` peers are poisoners; committee
    /// rotation makes index order irrelevant).
    pub fn new(config: DflConfig) -> Self {
        assert!(config.peers > 0 && config.dim > 0);
        let mut drbg = HmacDrbg::new(
            hash_parts("blockprov-blockdfl", &[&config.seed.to_le_bytes()]).as_bytes(),
        );
        let optimum: Vec<f64> =
            (0..config.dim).map(|_| drbg.next_f64() * 2.0 - 1.0).collect();
        let n_poison = (config.poisoner_fraction * config.peers as f64).round() as usize;
        let kinds: Vec<PeerKind> = (0..config.peers)
            .map(|i| if i < n_poison { PeerKind::Poisoner } else { PeerKind::Honest })
            .collect();
        let local_optima: Vec<Vec<f64>> = (0..config.peers)
            .map(|_| {
                optimum
                    .iter()
                    .map(|o| o + (drbg.next_f64() * 2.0 - 1.0) * config.spread)
                    .collect()
            })
            .collect();
        Self {
            kinds,
            local_optima,
            global: vec![0.0; config.dim],
            optimum,
            rounds: Vec::new(),
            drbg,
            config,
        }
    }

    /// Euclidean distance of the global model to the true optimum.
    pub fn distance(&self) -> f64 {
        self.global
            .iter()
            .zip(&self.optimum)
            .map(|(g, o)| (g - o) * (g - o))
            .sum::<f64>()
            .sqrt()
    }

    /// Completed rounds.
    pub fn rounds(&self) -> &[DflRound] {
        &self.rounds
    }

    /// Verify the round-block hash chain.
    pub fn verify_chain(&self) -> bool {
        let mut prev = Hash256::ZERO;
        for r in &self.rounds {
            let expect = hash_parts(
                "blockprov-blockdfl-block",
                &[
                    prev.as_bytes(),
                    &r.round.to_le_bytes(),
                    &(r.approved as u64).to_le_bytes(),
                    &r.distance.to_bits().to_le_bytes(),
                ],
            );
            if r.block_hash != expect {
                return false;
            }
            prev = r.block_hash;
        }
        true
    }

    /// One peer's candidate update (dense), before compression.
    fn peer_gradient(&self, peer: usize) -> Vec<f64> {
        let toward: Vec<f64> = self.local_optima[peer]
            .iter()
            .zip(&self.global)
            .map(|(l, g)| l - g)
            .collect();
        match self.kinds[peer] {
            PeerKind::Honest => toward,
            PeerKind::Poisoner => toward.iter().map(|v| -v * 2.0).collect(),
        }
    }

    /// Sign-agreement score of `update` against `own` on the shipped
    /// coordinates — the committee member's local verification.
    fn agreement(update: &SparseGradient, own: &[f64]) -> f64 {
        if update.indices.is_empty() {
            return 0.0;
        }
        let agree = update
            .indices
            .iter()
            .zip(&update.values)
            .filter(|(&i, &v)| v * own[i as usize] > 0.0)
            .count();
        agree as f64 / update.indices.len() as f64
    }

    /// Run one round: compress → committee vote → aggregate approved →
    /// seal block.
    pub fn run_round(&mut self) -> &DflRound {
        let round = self.rounds.len() as u32 + 1;
        let n = self.config.peers;

        // Candidate updates, compressed.
        let updates: Vec<SparseGradient> = (0..n)
            .map(|p| compress_topk(&self.peer_gradient(p), self.config.topk))
            .collect();
        let comm_bytes: u64 = updates.iter().map(SparseGradient::wire_bytes).sum();

        // Rotating committee: a random subset of peers each round. A
        // committee member's vote uses its *own* local gradient as the
        // reference; members never see who produced an update.
        let mut pool: Vec<usize> = (0..n).collect();
        self.drbg.shuffle(&mut pool);
        let committee: Vec<usize> = pool.into_iter().take(self.config.committee.max(1)).collect();
        let committee_grads: Vec<Vec<f64>> =
            committee.iter().map(|&m| self.peer_gradient(m)).collect();

        let mut approved_updates: Vec<&SparseGradient> = Vec::new();
        let mut rejected = 0usize;
        for update in &updates {
            let accepted = if self.config.voting {
                let yes = committee_grads
                    .iter()
                    .filter(|own| Self::agreement(update, own) > 0.5)
                    .count();
                yes * 2 > committee_grads.len()
            } else {
                true
            };
            if accepted {
                approved_updates.push(update);
            } else {
                rejected += 1;
            }
        }

        // Aggregate approved updates (dense average) and step.
        if !approved_updates.is_empty() {
            let mut agg = vec![0.0; self.config.dim];
            for u in &approved_updates {
                for (&i, &v) in u.indices.iter().zip(&u.values) {
                    agg[i as usize] += v;
                }
            }
            let scale = self.config.lr / approved_updates.len() as f64;
            for (g, a) in self.global.iter_mut().zip(&agg) {
                *g += a * scale;
            }
        }

        let approved = approved_updates.len();
        let distance = self.distance();
        let prev = self.rounds.last().map(|r| r.block_hash).unwrap_or(Hash256::ZERO);
        let block_hash = hash_parts(
            "blockprov-blockdfl-block",
            &[
                prev.as_bytes(),
                &round.to_le_bytes(),
                &(approved as u64).to_le_bytes(),
                &distance.to_bits().to_le_bytes(),
            ],
        );
        self.rounds.push(DflRound {
            round,
            approved,
            rejected,
            comm_bytes,
            distance,
            block_hash,
        });
        self.rounds.last().expect("just pushed")
    }

    /// Run `n` rounds, returning the final distance.
    pub fn run(&mut self, n: u32) -> f64 {
        for _ in 0..n {
            self.run_round();
        }
        self.distance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_keeps_largest_magnitudes() {
        let g = vec![0.1, -5.0, 0.3, 4.0, -0.2];
        let s = compress_topk(&g, 2);
        assert_eq!(s.indices, vec![1, 3]);
        assert_eq!(s.values, vec![-5.0, 4.0]);
        let dense = s.to_dense();
        assert_eq!(dense, vec![0.0, -5.0, 0.0, 4.0, 0.0]);
    }

    #[test]
    fn topk_clamps_k() {
        let g = vec![1.0, 2.0];
        assert_eq!(compress_topk(&g, 10).indices.len(), 2);
        assert_eq!(compress_topk(&g, 0).indices.len(), 1);
    }

    #[test]
    fn compression_reduces_wire_bytes_proportionally() {
        let g: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        let full = compress_topk(&g, 1000).wire_bytes();
        let tenth = compress_topk(&g, 100).wire_bytes();
        assert_eq!(full, 12_000);
        assert_eq!(tenth, 1_200);
    }

    #[test]
    fn honest_federation_converges() {
        let mut fed = BlockDfl::new(DflConfig::default());
        let start = fed.distance();
        let end = fed.run(40);
        assert!(end < start * 0.2, "distance {start:.3} → {end:.3}");
    }

    #[test]
    fn compressed_federation_still_converges() {
        let mut fed = BlockDfl::new(DflConfig { topk: 8, ..DflConfig::default() });
        let start = fed.distance();
        let end = fed.run(80);
        assert!(end < start * 0.3, "top-8/64 coordinates: {start:.3} → {end:.3}");
    }

    #[test]
    fn voting_defends_against_poisoning() {
        let attacked = DflConfig {
            poisoner_fraction: 0.33,
            ..DflConfig::default()
        };
        let mut defended = BlockDfl::new(DflConfig { voting: true, ..attacked.clone() });
        let mut undefended = BlockDfl::new(DflConfig { voting: false, ..attacked });
        let d_def = defended.run(40);
        let d_undef = undefended.run(40);
        assert!(
            d_def < d_undef * 0.5,
            "voting {d_def:.3} should beat plain averaging {d_undef:.3}"
        );
    }

    #[test]
    fn committee_rejects_poisoned_updates() {
        let mut fed = BlockDfl::new(DflConfig {
            poisoner_fraction: 0.33,
            ..DflConfig::default()
        });
        fed.run(5);
        let rejected: usize = fed.rounds().iter().map(|r| r.rejected).sum();
        assert!(rejected > 0, "poisoned updates must be voted out");
    }

    #[test]
    fn honest_updates_pass_committee() {
        let mut fed = BlockDfl::new(DflConfig::default());
        fed.run(5);
        for r in fed.rounds() {
            assert!(r.approved >= fed.config.peers / 2, "round {}: {r:?}", r.round);
        }
    }

    #[test]
    fn round_blocks_chain_and_verify() {
        let mut fed = BlockDfl::new(DflConfig::default());
        fed.run(6);
        assert!(fed.verify_chain());
        fed.rounds[2].approved += 1;
        assert!(!fed.verify_chain(), "tampered round must break the chain");
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = BlockDfl::new(DflConfig::default());
        let mut b = BlockDfl::new(DflConfig::default());
        assert_eq!(a.run(10), b.run(10));
        assert_eq!(
            a.rounds().last().unwrap().block_hash,
            b.rounds().last().unwrap().block_hash
        );
    }
}
