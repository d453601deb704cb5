//! The provenance model: records, graph, capture pathways and queries.
//!
//! This crate operationalizes the paper's §2.2 ("Provenance") and the
//! Table 1 / Figure 3 artifacts:
//!
//! * [`model`] — [`model::ProvenanceRecord`], the on-chain unit of
//!   provenance: who ([`model::ProvenanceRecord::agent`]) did what
//!   ([`model::Action`]) to which entity, when, in which domain — plus the
//!   per-domain record field schemas of **Table 1** and their validation;
//! * [`graph`] — the derivation DAG with SciBlock-style timestamp-based
//!   invalidation propagation;
//! * [`capture`] — the four capture pathways of **Figure 3** (user-direct,
//!   data-store-emitted, third-party-mediated centralized/decentralized,
//!   multi-source);
//! * [`query`] — the query engine (§6.1 "Provenance Query"): subject
//!   lineage, time windows, agents, batch queries, plus the repeated-query
//!   cache the paper's future-work section calls for;
//! * [`log`] — [`log::ProvenanceLog`], a chain plus per-subject postings:
//!   block ingest and artifact audits with no derivation graph, what a
//!   node serves from;
//! * [`accountability`] — GDPR-style data accountability (Neisse et al.
//!   \[58\]): usage policies, judged hash-chained usage events, consent
//!   withdrawal, and erasure obligations.

pub mod accountability;
pub mod capture;
pub mod graph;
pub mod log;
pub mod model;
pub mod multimodal;
pub mod query;

pub use accountability::{AccountabilityLedger, Obligation, UsagePolicy, Verdict, Violation};
pub use capture::{CaptureError, CapturePathway, CapturePipeline, CaptureStats, DataOperation};
pub use graph::{GraphError, ProvGraph};
pub use log::{
    decode_record_prefix, LedgerReader, LoggedRecord, ProvenanceLog, RecordProof, RecordVisitor,
    SubjectAudit,
};
pub use model::{Action, Domain, ProvenanceRecord, RecordId};
pub use multimodal::{ModalToken, Modality};
pub use query::{ProvQuery, QueryCache, QueryEngine, QueryResult};

/// Transaction kind tags used by the framework.
pub mod txkind {
    /// Provenance record payload.
    pub const PROVENANCE: u16 = 1;
    /// Smart-contract invocation.
    pub const CONTRACT_CALL: u16 = 2;
    /// Cross-chain receipt (used by `blockprov-crosschain`).
    pub const CROSS_CHAIN: u16 = 3;
    /// Domain-specific envelope.
    pub const DOMAIN: u16 = 4;
}
