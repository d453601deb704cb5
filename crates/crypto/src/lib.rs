//! Cryptographic substrate for the blockprov workspace, implemented from
//! scratch (no external crypto dependencies).
//!
//! Contents:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256 with an incremental hasher and the
//!   workspace-wide [`Hash256`] digest type.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104) and a deterministic HMAC-DRBG
//!   (SP 800-90A profile) used wherever protocol randomness must be
//!   reproducible (PoS leader election, key derivation, workload seeds).
//! * [`merkle`] — RFC 6962-style Merkle trees with domain-separated leaf and
//!   node hashes and logarithmic inclusion proofs (the paper's Figure 2
//!   tamper-evidence mechanism).
//! * [`dmt`] — the *distributed Merkle tree* of ForensiBlock \[12\]: per-case
//!   segment trees aggregated under a top tree, with compound proofs.
//! * [`sig`] — hash-based signatures: Lamport and Winternitz one-time
//!   signatures plus a Merkle (many-time) signature scheme. These substitute
//!   ECDSA/EdDSA: same API, unforgeability
//!   resting on SHA-256 preimage resistance.
//! * [`groupsig`] — hash-based group signatures (anonymous sign, public
//!   verify against a 32-byte group root, manager-only opening), the
//!   anonymity/unlinkability primitive of Abouyoussef et al. \[3\].
//! * [`commit`] — salted hash commitments.
//! * [`rangeproof`] — hash-chain range proofs in the issuer-trust model
//!   (HashWires-style), standing in for PrivChain's ZK range proofs.
//!
//! The crate is safe Rust except for one private module, the SHA-NI kernel
//! in [`mod@sha256`], which is the only place allowed to lift the lint below.

#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod commit;
pub mod dmt;
pub mod groupsig;
pub mod hmac;
pub mod merkle;
pub mod rangeproof;
pub mod sha256;
pub mod sig;

pub use commit::Commitment;
pub use dmt::{CompoundProof, DistributedMerkleTree};
pub use groupsig::{verify_group, GroupManager, GroupMember, GroupPublicKey, GroupSignature};
pub use hmac::{hmac_sha256, HmacDrbg};
pub use merkle::{MerkleProof, MerkleTree};
pub use rangeproof::{RangeCommitment, RangeProof};
pub use sha256::{sha256, Hash256, Sha256};
pub use sig::{Keypair, PublicKey, Signature, SigningError};
