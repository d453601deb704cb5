//! Machine-learning provenance — Lüthi et al. \[51\] asset tracking and
//! Yang & Li \[84\] / BlockDFL \[62\] blockchain-coordinated federated
//! learning, reproduced on the blockprov substrate.
//!
//! Two halves:
//!
//! * [`assets`] — the AI-asset provenance model: datasets, operations and
//!   models as a DAG, so "interacting AI value chains" can be traced and
//!   dataset owners fairly remunerated by contribution share;
//! * [`blockdfl`] — BlockDFL \[62\] proper: fully decentralized P2P rounds
//!   with top-k gradient compression and rotating-committee voting
//!   (experiment E21);
//! * [`fl`] — federated learning with on-ledger round coordination, a
//!   reputation mechanism against model-poisoning and free-riding, and the
//!   non-IID / attacker-fraction sweeps of experiment E9 (the paper's
//!   claim: reputation-weighted aggregation "remains stable under 50%
//!   attacks").

pub mod blockdfl;
pub mod assets;
pub mod fl;

pub use assets::{AssetGraph, AssetId, AssetKind, MlError};
pub use fl::{FlConfig, FlCoordinator, FlRoundReport, WorkerKind};
