//! The configurable provenance-ledger framework.
//!
//! This crate operationalizes the paper's §6.1 "Design Considerations": a
//! [`ProvenanceLedger`] is assembled from explicit choices along every axis
//! the paper names —
//!
//! | §6.1 axis | Type |
//! |---|---|
//! | Blockchain choice | [`BlockchainKind`] (public PoW / private PoA / consortium PoS) |
//! | Domain | [`blockprov_provenance::Domain`] + the domain crates |
//! | Access control | RBAC engine + ledger views (from `blockprov-access`) |
//! | Provenance capture | [`blockprov_provenance::CapturePathway`] (Figure 3) |
//! | Provenance query | indexed engine + repeated-query cache |
//! | Evaluation | every component exposes counters; see `blockprov-bench` |
//!
//! It also contains the RQ1 reproduction: [`cloud::CloudAuditor`], a
//! ProvChain \[47\]-style cloud-storage auditing pipeline (file operations →
//! provenance records → block anchoring → user-verifiable Merkle proofs,
//! with hashed user identities for privacy).

pub mod cloud;
pub mod config;
pub mod design;
pub mod ledger;
pub mod offchain;

pub use blockprov_provenance::log::{
    decode_record_prefix, LedgerReader, RecordProof, SubjectAudit,
};
pub use blockprov_provenance::txkind;
pub use cloud::{CloudAuditor, CloudOpKind, CloudReport};
pub use config::{BlockchainKind, LedgerConfig, StorageMode};
pub use design::{table2, DomainProfile};
pub use ledger::{CoreError, ProvenanceLedger};
pub use offchain::OffChainStore;
