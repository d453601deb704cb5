//! Consensus engines for the blockprov workspace.
//!
//! The paper's background section (§2.1) names Proof of Work, Proof of
//! Stake and BFT agreement as the trust mechanisms of provenance
//! blockchains; the surveyed systems use all of them (ProvChain → PoW
//! anchoring, BlockCloud \[75\] → PoS, the EO system \[87\] → Raft + PBFT,
//! consortium prototypes → authority round-robin). This crate implements:
//!
//! * [`pow`] — real hash-search mining with difficulty retargeting;
//! * [`pos`] — stake-weighted deterministic leader election with
//!   equivocation slashing;
//! * [`poa`] — authority round-robin (consortium sealing);
//! * [`pbft`] — a PBFT replica (pre-prepare/prepare/commit + view change)
//!   running on the `simnet` discrete-event simulator, with injectable
//!   Byzantine behaviours;
//! * [`raft`] — leader election and log replication on `simnet`, with
//!   crash injection;
//! * [`harness`] — the §6.1 evaluation harness: throughput / commit-latency
//!   sweeps across engines and network sizes (experiments E1, E12).

pub mod harness;
pub mod pbft;
pub mod poa;
pub mod pos;
pub mod pow;
pub mod raft;

pub use harness::{run_throughput, ConsensusKind, ThroughputReport};
pub use poa::AuthoritySet;
pub use pos::{SlashingReason, ValidatorSet};
pub use pow::{mine, retarget, MiningOutcome};
