//! # blockprov
//!
//! Umbrella crate for the `blockprov` workspace — a from-scratch Rust
//! reproduction of the system families surveyed in *SOK: Blockchain for
//! Provenance* (Akbarfam & Maleki, VLDB 2024).
//!
//! The workspace is organized along the paper's three research questions:
//!
//! * **RQ1 (single-entity provenance)** — [`core`] provides a configurable
//!   [`core::ProvenanceLedger`] and a ProvChain-style cloud-storage auditor.
//! * **RQ2 (intra-chain collaboration)** — the domain crates [`sciwork`],
//!   [`supply`], [`health`], [`mlprov`] and [`forensics`] build collaborative
//!   provenance applications on the shared ledger substrate.
//! * **RQ3 (multi-chain collaboration)** — [`crosschain`] implements HTLC
//!   atomic swaps, notary committees, relay-chain verification, a
//!   ForensiCross-style bridge, and Vassago-style cross-chain provenance
//!   queries.
//!
//! Substrates (all implemented from scratch): [`wire`] (canonical binary
//! codec), [`crypto`] (SHA-256, Merkle trees, hash-based + group signatures,
//! range proofs), [`ledger`] (blocks/chain/mempool), [`consensus`] (PoW, PoS,
//! PBFT, Raft, PoA), [`simnet`] (discrete-event network simulator),
//! [`storage`] (content-addressed chunked storage with a replicated swarm —
//! the IPFS substitute), [`contracts`] (deterministic smart contracts) and
//! [`access`] (RBAC/ABAC/ledger views).
//!
//! See the README's "Workspace layout" for the crate inventory; the
//! `tables` binary of `blockprov-bench` regenerates the paper's tables and
//! figures.
//!
//! ## Quickstart
//!
//! ```
//! use blockprov::core::{LedgerConfig, ProvenanceLedger};
//!
//! // A private, PoA-sealed provenance ledger for a single organization.
//! let mut ledger = ProvenanceLedger::open(LedgerConfig::private_default());
//! let actor = ledger.register_agent("alice").unwrap();
//! let file = ledger.register_entity("report.pdf", b"v1 contents").unwrap();
//! ledger.record_action(&actor, &file, blockprov::provenance::Action::Create).unwrap();
//! ledger.seal_block().unwrap();
//! assert!(ledger.verify_chain().is_ok());
//! ```

pub use blockprov_access as access;
pub use blockprov_consensus as consensus;
pub use blockprov_contracts as contracts;
pub use blockprov_core as core;
pub use blockprov_crosschain as crosschain;
pub use blockprov_crypto as crypto;
pub use blockprov_forensics as forensics;
pub use blockprov_health as health;
pub use blockprov_ledger as ledger;
pub use blockprov_mlprov as mlprov;
pub use blockprov_provenance as provenance;
pub use blockprov_sciwork as sciwork;
pub use blockprov_simnet as simnet;
pub use blockprov_storage as storage;
pub use blockprov_supply as supply;
pub use blockprov_wire as wire;
