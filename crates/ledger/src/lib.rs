//! Ledger substrate: transactions, blocks, the chain store with fork choice,
//! a mempool, and pluggable block storage.
//!
//! This is the "chain of blocks" of the paper's Figure 2: every block header
//! carries the previous block's hash and a Merkle root over its transactions,
//! so altering any historical transaction invalidates every later block —
//! the tamper-evidence property all surveyed provenance systems inherit.
//!
//! The ledger is deliberately application-agnostic: a [`Transaction`] carries
//! an opaque `kind` tag and payload, and upper layers (provenance records,
//! smart-contract calls, cross-chain messages) define the semantics. This
//! mirrors how ProvChain \[47\] rides on Bitcoin-style transactions and how
//! Fabric-based systems ride on endorsed key/value writes.

pub mod block;
pub mod cache;
pub mod chain;
pub mod index;
pub mod manifest;
pub mod mempool;
pub mod meta;
pub mod readview;
pub mod segment;
pub mod store;
pub mod tx;

pub use block::{Block, BlockHash, BlockHeader, Checkpoint};
pub use cache::LruCache;
pub use chain::{
    BatchError, Chain, ChainConfig, ChainReader, ChainSnapshot, ChainView, PrevalidatedBlock,
    ResidentMetadata, SignaturePolicy, ValidationError,
};
pub use index::{IndexEntry, TxIndex, TxIndexConfig, TxIndexReader};
pub use manifest::{
    commit_manifest, read_manifest, Manifest, ManifestEntry, ManifestFileKind, ManifestState,
};
pub use mempool::Mempool;
pub use meta::{HeightMap, HeightReader, MetaConfig, MetaStore};
pub use readview::{Published, ShardedCache};
pub use segment::{TieredConfig, TieredReader, TieredStore};
pub use store::{BlockReader, BlockStore, MemReader, MemStore};
pub use tx::{AccountId, SignatureEnvelope, Transaction, TxId};
