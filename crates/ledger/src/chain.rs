//! The chain: validation, fork choice, canonical indexes, checkpoint
//! finality and integrity verification.
//!
//! Storage seam: the chain owns a pluggable [`BlockStore`] and never assumes
//! blocks stay resident in memory. Canonical indexes are maintained
//! *incrementally* across reorgs (undo back to the fork point, redo along
//! the winning branch) instead of rebuilt from scratch, and a configured
//! finality depth turns old blocks into checkpoints: their fork metadata is
//! pruned and their decoded bodies are demoted to the store's cold tier,
//! except a block still staged in the group commit that finalized it, which
//! stays hot. The combination gives bounded resident memory over unbounded
//! history when paired with [`crate::segment::TieredStore`]. Each
//! [`AppendOutcome`] carries the block the store holds, so a caller folding
//! committed blocks into its own state reads none back.

use crate::block::{Block, BlockHash, BlockHeader, Checkpoint};
use crate::index::{IndexEntry, TxIndex, TxIndexReader};
use crate::meta::{HeightReader, MetaStore};
use crate::readview::Published;
use crate::store::{BlockReader, BlockStore, MemStore};
use crate::tx::{AccountId, Transaction, TxId};
use blockprov_crypto::merkle::MerkleProof;
use blockprov_crypto::sha256::Hash256;
use blockprov_wire::meta::{CheckpointSnapshot, SNAPSHOT_VERSION};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// How strictly transaction signatures are enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignaturePolicy {
    /// Signatures ignored entirely (closed-world simulations, benches).
    Off,
    /// Signatures verified when present; unsigned transactions accepted.
    IfPresent,
    /// Every transaction must carry a valid signature.
    Required,
}

/// Chain-level validation parameters.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// Signature enforcement level.
    pub signature_policy: SignaturePolicy,
    /// Require headers to meet their stated PoW difficulty, and require a
    /// non-zero difficulty.
    pub require_pow: bool,
    /// Maximum transactions per block.
    pub max_block_txs: usize,
    /// Allowed backwards clock drift between parent and child (ms).
    pub timestamp_tolerance_ms: u64,
    /// Enforce per-author nonce sequencing on the canonical chain.
    pub enforce_nonces: bool,
    /// Checkpoint finality depth: blocks this far behind the tip become
    /// irreversible — fork choice refuses to reorg across them, stale fork
    /// metadata at or below the checkpoint is pruned, and finalized blocks
    /// are demoted from the store's hot tier — unless the batch being
    /// committed wrote them, in which case they stay hot until the cache
    /// evicts them. `None` disables finality (every historical fork stays
    /// replayable forever).
    pub finality_depth: Option<u64>,
    /// Ignored. The stateless ingest stage runs inline on the committing
    /// thread at every setting; the field is kept only so the benchmark
    /// harness, which sets it, keeps compiling (ROADMAP item 15).
    pub ingest_threads: usize,
}

impl Default for ChainConfig {
    fn default() -> Self {
        Self {
            signature_policy: SignaturePolicy::IfPresent,
            require_pow: false,
            max_block_txs: 10_000,
            timestamp_tolerance_ms: 5_000,
            enforce_nonces: false,
            finality_depth: None,
            ingest_threads: 0,
        }
    }
}

/// Why a block was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Parent block not known.
    UnknownParent(BlockHash),
    /// Height is not parent height + 1.
    BadHeight { expected: u64, got: u64 },
    /// Unsupported block version.
    BadVersion(u16),
    /// Header Merkle root does not match the transactions.
    BadTxRoot,
    /// Too many transactions.
    TooManyTxs { max: usize, got: usize },
    /// A transaction id appears twice in the block.
    DuplicateTx(TxId),
    /// Header fails its own difficulty target (or PoW required but absent).
    BadProofOfWork,
    /// Timestamp regressed beyond tolerance.
    BadTimestamp { parent_ms: u64, block_ms: u64 },
    /// A transaction signature is missing or invalid.
    BadSignature(TxId),
    /// A transaction nonce does not continue its author's sequence.
    BadNonce {
        author: AccountId,
        expected: u64,
        got: u64,
    },
    /// The block is already stored.
    Duplicate(BlockHash),
    /// The block forks at or below the finality checkpoint.
    BelowFinality { finalized: u64, got: u64 },
    /// Durable storage failed while committing the block (full disk, I/O
    /// error). Carries the I/O error's message: `std::io::Error` is neither
    /// `Clone` nor `PartialEq`, which this enum must be. Not a validation
    /// verdict — the block may be perfectly valid; the chain could not
    /// persist it, and the instance should be reopened (replay heals).
    StoreIo(String),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::UnknownParent(h) => write!(f, "unknown parent {h}"),
            ValidationError::BadHeight { expected, got } => {
                write!(f, "bad height: expected {expected}, got {got}")
            }
            ValidationError::BadVersion(v) => write!(f, "unsupported block version {v}"),
            ValidationError::BadTxRoot => write!(f, "tx merkle root mismatch"),
            ValidationError::TooManyTxs { max, got } => write!(f, "{got} txs exceeds limit {max}"),
            ValidationError::DuplicateTx(id) => write!(f, "duplicate transaction {id}"),
            ValidationError::BadProofOfWork => write!(f, "proof-of-work check failed"),
            ValidationError::BadTimestamp {
                parent_ms,
                block_ms,
            } => {
                write!(f, "timestamp {block_ms} regressed from parent {parent_ms}")
            }
            ValidationError::BadSignature(id) => write!(f, "bad signature on {id}"),
            ValidationError::BadNonce {
                author,
                expected,
                got,
            } => {
                write!(f, "bad nonce for {author}: expected {expected}, got {got}")
            }
            ValidationError::Duplicate(h) => write!(f, "duplicate block {h}"),
            ValidationError::BelowFinality { finalized, got } => {
                write!(
                    f,
                    "height {got} at or below finality checkpoint {finalized}"
                )
            }
            ValidationError::StoreIo(msg) => write!(f, "block store I/O failed: {msg}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Result of appending a block.
#[derive(Clone, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Hash of the appended block.
    pub hash: BlockHash,
    /// Whether the canonical tip moved to this block.
    pub new_tip: bool,
    /// Whether a reorganization occurred (tip moved to a different branch).
    pub reorged: bool,
    /// The block as the store holds it, so a caller folding the committed
    /// blocks into its own state reads nothing back.
    pub block: Arc<Block>,
}

impl fmt::Debug for AppendOutcome {
    /// The block by its hash only: a batch's outcomes end up in error
    /// messages, and a body there is noise.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AppendOutcome")
            .field("hash", &self.hash)
            .field("new_tip", &self.new_tip)
            .field("reorged", &self.reorged)
            .finish_non_exhaustive()
    }
}

#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    height: u64,
    total_work: u128,
    parent: BlockHash,
    /// Header timestamp, carried here so validating a child never re-reads
    /// the parent block from the store/LRU just for its clock.
    timestamp_ms: u64,
}

/// Rank of a validation check in [`Chain::validate`]'s canonical order.
///
/// The parallel ingest stage runs the *stateless* checks out of band; when
/// the serialized commit interleaves its stateful checks it uses these ranks
/// to surface the same error a fully sequential `validate` would have.
fn check_rank(e: &ValidationError) -> u8 {
    match e {
        ValidationError::Duplicate(_) => 0,
        ValidationError::BadVersion(_) => 1,
        ValidationError::UnknownParent(_) => 2,
        ValidationError::BadHeight { .. } => 3,
        ValidationError::BelowFinality { .. } => 4,
        ValidationError::TooManyTxs { .. } => 5,
        ValidationError::BadTxRoot => 6,
        ValidationError::DuplicateTx(_) => 7,
        ValidationError::BadTimestamp { .. } => 8,
        ValidationError::BadProofOfWork => 9,
        ValidationError::BadSignature(_) => 10,
        ValidationError::BadNonce { .. } => 11,
        // Not a check at all: storage failed after every check passed, so
        // it never competes with a stateless error for attribution.
        ValidationError::StoreIo(_) => u8::MAX,
    }
}

/// A block that has been through the stateless validation stage.
///
/// Carries everything the serialized commit section needs so the hot path
/// never re-hashes: the verified header hash, the derived transaction ids
/// (in block order) and the header's proof-of-work contribution. Stateless
/// checks that failed are *recorded*, not raised — the commit section
/// interleaves them with the stateful checks in canonical order so batched
/// ingest reports the exact error sequential [`Chain::append`] would.
#[derive(Debug, Clone)]
pub struct PrevalidatedBlock {
    /// The block, ready to commit; the store keeps this very `Arc`.
    pub block: Arc<Block>,
    /// Header hash (the block identity), computed once.
    pub hash: BlockHash,
    /// Transaction ids in block order, computed once.
    pub tx_ids: Vec<TxId>,
    /// Work contributed under the heaviest-chain rule.
    pub work: u128,
    /// First stateless check failure in canonical order, if any.
    pub(crate) stateless_err: Option<ValidationError>,
}

impl PrevalidatedBlock {
    /// Run every stateless check for `block` under `config`: header hash,
    /// version, transaction count, per-tx id derivation, in-block duplicate
    /// ids, Merkle root recomputation, PoW/difficulty and signature policy.
    /// No chain state is consulted — this is stage 1 of the ingest
    /// pipeline, run on the committing thread just before
    /// [`Chain::append_batch`] commits the block.
    pub fn compute(block: impl Into<Arc<Block>>, config: &ChainConfig) -> Self {
        let block = block.into();
        let hash = block.hash();
        let work = block.header.work();
        let tx_ids: Vec<TxId> = block.txs.iter().map(Transaction::id).collect();
        let stateless_err = Self::stateless_err(&block, hash, &tx_ids, config).err();
        Self {
            block,
            hash,
            tx_ids,
            work,
            stateless_err,
        }
    }

    /// The stateless checks in canonical rank order, first failure wins.
    fn stateless_err(
        block: &Block,
        hash: BlockHash,
        tx_ids: &[TxId],
        config: &ChainConfig,
    ) -> Result<(), ValidationError> {
        if block.header.version != Block::VERSION {
            return Err(ValidationError::BadVersion(block.header.version));
        }
        if block.txs.len() > config.max_block_txs {
            return Err(ValidationError::TooManyTxs {
                max: config.max_block_txs,
                got: block.txs.len(),
            });
        }
        if Block::tx_root_from_ids(tx_ids) != block.header.tx_root {
            return Err(ValidationError::BadTxRoot);
        }
        let mut seen = HashSet::with_capacity(tx_ids.len());
        for id in tx_ids {
            if !seen.insert(*id) {
                return Err(ValidationError::DuplicateTx(*id));
            }
        }
        if config.require_pow && block.header.difficulty_bits == 0 {
            return Err(ValidationError::BadProofOfWork);
        }
        if block.header.difficulty_bits > 0
            && hash.0.leading_zero_bits() < block.header.difficulty_bits
        {
            return Err(ValidationError::BadProofOfWork);
        }
        match config.signature_policy {
            SignaturePolicy::Off => {}
            SignaturePolicy::IfPresent => {
                for (tx, id) in block.txs.iter().zip(tx_ids) {
                    if tx.signature.is_some() && !tx.verify_signature() {
                        return Err(ValidationError::BadSignature(*id));
                    }
                }
            }
            SignaturePolicy::Required => {
                for (tx, id) in block.txs.iter().zip(tx_ids) {
                    if !tx.verify_signature() {
                        return Err(ValidationError::BadSignature(*id));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Why (and where) a batched append stopped.
///
/// Blocks before `index` committed — durably, the group flush runs before
/// this error is returned — and their outcomes are returned; the failing
/// block and everything after it were not committed. Chain state is exactly
/// what a sequential [`Chain::append`] loop stopping at the same block
/// would leave behind.
///
/// One exception to "the block at `index` failed validation": when `error`
/// is [`ValidationError::StoreIo`] and `index == committed.len()`, every
/// submitted block validated but the group flush itself failed — the
/// committed prefix's durability is unknown and the chain should be
/// reopened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchError {
    /// Position of the failing block within the submitted batch.
    pub index: usize,
    /// Why that block was rejected.
    pub error: ValidationError,
    /// Outcomes of the blocks before `index`, which committed.
    pub committed: Vec<AppendOutcome>,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch append failed at block {} ({} committed): {}",
            self.index,
            self.committed.len(),
            self.error
        )
    }
}

impl std::error::Error for BatchError {}

/// A proof that a transaction is included in a specific block.
///
/// Self-contained: the verifier needs only the expected canonical block hash
/// (e.g. from a header relay or a trusted checkpoint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxInclusionProof {
    /// The proven transaction id.
    pub tx_id: TxId,
    /// Hash of the containing block.
    pub block_hash: BlockHash,
    /// The containing block's header.
    pub header: BlockHeader,
    /// Merkle path from the transaction id to `header.tx_root`.
    pub proof: MerkleProof,
}

impl TxInclusionProof {
    /// The proof for the transaction at `pos` in `block`: the one place a
    /// proof is built, for [`Chain::prove_tx`] and [`ChainView::prove_tx`].
    fn at(block: &Block, pos: u32) -> Option<Self> {
        let (tx_id, proof) = block.prove_tx(pos as usize)?;
        Some(Self {
            tx_id,
            block_hash: block.hash(),
            header: block.header.clone(),
            proof,
        })
    }

    /// Verify internal consistency: header hashes to `block_hash` and the
    /// Merkle path binds `tx_id` to the header's root.
    pub fn verify(&self) -> bool {
        self.header.hash() == self.block_hash
            && Block::verify_tx_proof(&self.header.tx_root, &self.tx_id, &self.proof)
    }
}

/// One transaction's worth of index undo state, captured while absorbing.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TxUndo {
    id: TxId,
    author: AccountId,
    kind: u16,
    /// The transaction's own nonce — at finality this raises the author's
    /// nonce floor without re-reading the block.
    nonce: u64,
    /// Previous canonical location of this id (normally `None`; `Some` when
    /// the same id also appears in an earlier canonical block).
    prev_loc: Option<(BlockHash, u32)>,
    /// Author's `next_nonce` before this transaction (`None` = no entry).
    prev_nonce: Option<u64>,
}

/// Everything needed to un-absorb one block from the canonical indexes
/// without touching the block body — reorgs never re-read evicted blocks on
/// the losing side of the fork.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct BlockUndo {
    txs: Vec<TxUndo>,
}

/// Canonical-chain indexes, maintained incrementally: extending the tip
/// absorbs one block, a reorg un-absorbs back to the fork point and
/// re-absorbs along the winning branch.
///
/// When the chain runs with a [`TxIndex`], this mutable tier covers only the
/// *non-finalized suffix*: finality spills a block's entries to the durable
/// index and pops them here, so resident entries stay O(finality window)
/// over unbounded history. Kind lists are deques because absorb appends at
/// the back, reorg undo pops from the back, and finality spill pops from
/// the front.
///
/// This is what every published [`ChainSnapshot`] clones. The per-author
/// `next_nonce` map that absorb and undo also maintain is writer-only and
/// lives on [`Chain`], beside the nonce floors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ChainIndex {
    tx_loc: HashMap<TxId, (BlockHash, u32)>,
    by_kind: HashMap<u16, VecDeque<TxId>>,
}

impl ChainIndex {
    /// Index a block that just became canonical, raising its authors'
    /// entries in `next_nonce`; returns the undo record that exactly
    /// reverses this call.
    fn absorb(&mut self, block: &Block, next_nonce: &mut HashMap<AccountId, u64>) -> BlockUndo {
        let hash = block.hash();
        let tx_ids: Vec<TxId> = block.txs.iter().map(Transaction::id).collect();
        self.absorb_with(block, hash, &tx_ids, next_nonce)
    }

    /// [`ChainIndex::absorb`] with the hash and transaction ids already
    /// derived — the batched ingest path hands these in from the parallel
    /// stateless stage so the serialized commit never re-hashes.
    fn absorb_with(
        &mut self,
        block: &Block,
        hash: BlockHash,
        tx_ids: &[TxId],
        next_nonce: &mut HashMap<AccountId, u64>,
    ) -> BlockUndo {
        let mut undo = Vec::with_capacity(block.txs.len());
        for (i, tx) in block.txs.iter().enumerate() {
            let id = tx_ids[i];
            let prev_loc = self.tx_loc.insert(id, (hash, i as u32));
            self.by_kind.entry(tx.kind).or_default().push_back(id);
            let prev_nonce = next_nonce.get(&tx.author).copied();
            let next = next_nonce.entry(tx.author).or_insert(0);
            *next = (*next).max(tx.nonce + 1);
            undo.push(TxUndo {
                id,
                author: tx.author,
                kind: tx.kind,
                nonce: tx.nonce,
                prev_loc,
                prev_nonce,
            });
        }
        BlockUndo { txs: undo }
    }

    /// Reverse one [`ChainIndex::absorb`]. Must be applied in reverse
    /// canonical order (newest un-absorbed first), which makes each
    /// transaction the current tail of its kind list.
    fn unabsorb(&mut self, undo: BlockUndo, next_nonce: &mut HashMap<AccountId, u64>) {
        for u in undo.txs.into_iter().rev() {
            match u.prev_loc {
                Some(loc) => {
                    self.tx_loc.insert(u.id, loc);
                }
                None => {
                    self.tx_loc.remove(&u.id);
                }
            }
            if let Some(list) = self.by_kind.get_mut(&u.kind) {
                debug_assert_eq!(list.back(), Some(&u.id), "undo out of order");
                list.pop_back();
                if list.is_empty() {
                    self.by_kind.remove(&u.kind);
                }
            }
            match u.prev_nonce {
                Some(n) => {
                    next_nonce.insert(u.author, n);
                }
                None => {
                    next_nonce.remove(&u.author);
                }
            }
        }
    }

    /// Drop one *finalized* block's entries from the mutable tier after they
    /// were flushed to the durable [`TxIndex`]. Spilling runs in canonical
    /// order (oldest block first), so each transaction is the current front
    /// of its kind deque.
    fn spill(&mut self, hash: BlockHash, undo: &BlockUndo) {
        for (i, u) in undo.txs.iter().enumerate() {
            // A later canonical block may have re-sealed the same id and
            // overwritten `tx_loc`; only remove the entry this block owns.
            if self.tx_loc.get(&u.id) == Some(&(hash, i as u32)) {
                self.tx_loc.remove(&u.id);
            }
            if let Some(list) = self.by_kind.get_mut(&u.kind) {
                debug_assert_eq!(list.front(), Some(&u.id), "spill out of order");
                list.pop_front();
                if list.is_empty() {
                    self.by_kind.remove(&u.kind);
                }
            }
        }
    }

    /// Occurrence count across the kind lists (one per canonical tx).
    fn resident_entries(&self) -> usize {
        self.by_kind.values().map(VecDeque::len).sum()
    }
}

/// Resident per-block chain metadata counts — what the bounded-memory
/// story is about (ROADMAP: ~80 bytes per block without the durable tier).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidentMetadata {
    /// Fork-choice metadata entries (`meta`): non-finalized blocks plus the
    /// checkpoint when a metadata tier prunes the finalized prefix.
    pub meta: usize,
    /// In-memory canonical height→hash entries (the suffix above the
    /// checkpoint when a metadata tier is attached, all of history else).
    pub canonical: usize,
    /// Mutable per-author `next_nonce` entries (suffix authors when a
    /// durable index is attached).
    pub next_nonce: usize,
    /// Resident floor entries (distinct finalized authors).
    pub nonce_floor: usize,
    /// Reorg undo records (always bounded by the finality window).
    pub undo: usize,
    /// Height-bucket entries for finality pruning.
    pub at_height: usize,
}

impl ResidentMetadata {
    /// Total resident entries across all per-block metadata structures.
    pub fn total(&self) -> usize {
        self.meta + self.canonical + self.next_nonce + self.nonce_floor + self.undo + self.at_height
    }

    /// Rough resident bytes (hash/account keys + fixed payloads; excludes
    /// map overhead).
    pub fn approx_bytes(&self) -> u64 {
        (self.meta * (32 + 56)
            + self.canonical * 32
            + (self.next_nonce + self.nonce_floor) * (32 + 8)
            + self.undo * 32
            + self.at_height * (8 + 32)) as u64
    }
}

/// One immutable published view of the chain's mutable suffix, captured at
/// a commit point: tip, canonical hash deque, finality checkpoint and a
/// clone of the suffix `ChainIndex`.
///
/// Everything *finalized* is deliberately absent — readers resolve it
/// through the durable tiers' own published states ([`HeightReader`],
/// [`TxIndexReader`]), filtered to `height <= finalized_height` of this
/// snapshot. The writer publishes each tier *before* the chain snapshot, so
/// a tier's published state is always at least as new as any snapshot a
/// reader holds; the height filter then trims the tier back to exactly this
/// snapshot's prefix. That pairing is what makes a [`ChainView`]'s answers
/// prefix-consistent: they describe one chain state that actually existed,
/// never a torn mix of two commits.
#[derive(Debug, Clone)]
pub struct ChainSnapshot {
    tip: BlockHash,
    canonical_base: u64,
    canonical: VecDeque<BlockHash>,
    finalized_height: u64,
    checkpoint: Option<Checkpoint>,
    index: ChainIndex,
}

impl ChainSnapshot {
    /// Height of the tip at the captured commit point.
    fn height(&self) -> u64 {
        self.canonical_base + self.canonical.len() as u64 - 1
    }

    /// Canonical hash at `height` from the snapshot's in-memory suffix.
    fn suffix_hash(&self, height: u64) -> Option<BlockHash> {
        let idx = height.checked_sub(self.canonical_base)?;
        self.canonical.get(idx as usize).copied()
    }
}

/// What the writer shares with every [`ChainReader`]: the published
/// snapshot slot, a reader census, and the durable tiers' read handles.
///
/// The census gates publishing — with zero readers attached the writer
/// skips snapshot construction entirely, so a reader-free chain (replay,
/// single-threaded benches) pays nothing for this machinery.
struct ChainReadShared {
    snapshot: Published<ChainSnapshot>,
    readers: AtomicUsize,
    blocks: Arc<dyn BlockReader>,
    tx_index: Option<TxIndexReader>,
    heights: Option<HeightReader>,
}

impl fmt::Debug for ChainReadShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChainReadShared")
            .field("readers", &self.readers.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A cloneable, `Send + Sync` query handle over the chain's published
/// snapshots. Obtained from [`Chain::reader`]; cloning and dropping handles
/// maintains the reader census that gates the writer's publish work.
///
/// Every query goes through [`ChainReader::view`], which pins one snapshot:
/// pin one per request, and its answers agree with each other.
#[derive(Debug)]
pub struct ChainReader {
    shared: Arc<ChainReadShared>,
}

impl Clone for ChainReader {
    fn clone(&self) -> Self {
        self.shared.readers.fetch_add(1, Ordering::SeqCst);
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for ChainReader {
    fn drop(&mut self) {
        self.shared.readers.fetch_sub(1, Ordering::SeqCst);
    }
}

impl ChainReader {
    /// Pin the latest published snapshot for a prefix-consistent view.
    pub fn view(&self) -> ChainView {
        ChainView {
            snap: self.shared.snapshot.load(),
            shared: Arc::clone(&self.shared),
        }
    }
}

/// One pinned snapshot plus the durable tiers' read handles: every query
/// answers from the same chain state, no matter what the writer commits
/// meanwhile.
///
/// Durable-tier results are filtered to `height <= finalized_height` of the
/// pinned snapshot, which is what keeps a tier that has advanced past the
/// snapshot from leaking newer entries into the view. Durable read *errors*
/// are logged and surface as absence (`None` / empty), as
/// [`BlockStore::get`]'s `Option` contract does for blocks.
#[derive(Debug, Clone)]
pub struct ChainView {
    snap: Arc<ChainSnapshot>,
    shared: Arc<ChainReadShared>,
}

impl ChainView {
    /// Tip hash of the pinned snapshot.
    pub fn tip(&self) -> BlockHash {
        self.snap.tip
    }

    /// Tip height of the pinned snapshot.
    pub fn height(&self) -> u64 {
        self.snap.height()
    }

    /// Finality checkpoint height of the pinned snapshot.
    pub fn finalized_height(&self) -> u64 {
        self.snap.finalized_height
    }

    /// The finality checkpoint, when a finality depth is configured.
    pub fn checkpoint(&self) -> Option<Checkpoint> {
        self.snap.checkpoint
    }

    /// Canonical block hash at `height`: the snapshot suffix covers heights
    /// above the checkpoint, the durable height map serves finalized
    /// history. Heights at or below the checkpoint are immutable, so a
    /// height-map state newer than the snapshot returns the same hashes the
    /// snapshot's writer would have.
    pub fn hash_at(&self, height: u64) -> Option<BlockHash> {
        if let Some(hash) = self.snap.suffix_hash(height) {
            return Some(hash);
        }
        if height >= self.snap.canonical_base {
            return None; // above the snapshot's tip
        }
        match &self.shared.heights {
            Some(map) => map.hash_at(height).unwrap_or_else(|e| {
                eprintln!("ledger: reader height lookup failed: {e}");
                None
            }),
            None => None,
        }
    }

    /// Fetch any stored block.
    pub fn block(&self, hash: &BlockHash) -> Option<Arc<Block>> {
        self.shared.blocks.get(hash)
    }

    /// Fetch the canonical block at `height`.
    pub fn block_at(&self, height: u64) -> Option<Arc<Block>> {
        let hash = self.hash_at(height)?;
        self.block(&hash)
    }

    /// Locate a canonical transaction: `(containing block hash, position)`.
    /// Two-tier merged: the snapshot's suffix index first, then the durable
    /// index capped at the snapshot's checkpoint. When the same id was
    /// sealed into several canonical blocks, the latest occurrence wins.
    pub fn tx_by_id(&self, id: &TxId) -> Option<(BlockHash, u32)> {
        if let Some(loc) = self.snap.index.tx_loc.get(id) {
            return Some(*loc);
        }
        let ix = self.shared.tx_index.as_ref()?;
        ix.lookup(id, self.snap.finalized_height)
            .unwrap_or_else(|e| {
                eprintln!("ledger: reader tx lookup failed: {e}");
                None
            })
    }

    /// Locate a canonical transaction and fetch its block.
    pub fn find_tx(&self, id: &TxId) -> Option<(Arc<Block>, u32)> {
        let (hash, pos) = self.tx_by_id(id)?;
        Some((self.block(&hash)?, pos))
    }

    /// Fetch a canonical transaction by id.
    pub fn get_tx(&self, id: &TxId) -> Option<Transaction> {
        let (block, pos) = self.find_tx(id)?;
        block.txs.get(pos as usize).cloned()
    }

    /// All canonical transaction ids with the given kind tag, oldest first:
    /// durable entries capped at the snapshot's checkpoint, then the
    /// snapshot's suffix list.
    pub fn txs_by_kind(&self, kind: u16) -> Vec<TxId> {
        let mut out = match &self.shared.tx_index {
            Some(ix) => ix
                .entries_by_kind(kind, self.snap.finalized_height)
                .map(|es| es.into_iter().map(|e| e.id).collect())
                .unwrap_or_else(|e| {
                    eprintln!("ledger: reader kind sweep failed: {e}");
                    Vec::new()
                }),
            None => Vec::new(),
        };
        if let Some(list) = self.snap.index.by_kind.get(&kind) {
            out.extend(list.iter().copied());
        }
        out
    }

    /// Produce a self-contained inclusion proof for a canonical transaction.
    pub fn prove_tx(&self, id: &TxId) -> Option<TxInclusionProof> {
        let (block, pos) = self.find_tx(id)?;
        TxInclusionProof::at(&block, pos)
    }

    /// Whether `hash` lies on the canonical chain of the pinned snapshot.
    /// Requires a store with a concurrent reader to resolve the block's
    /// height.
    pub fn is_canonical(&self, hash: &BlockHash) -> bool {
        match self.block(hash) {
            Some(block) => self.hash_at(block.header.height) == Some(*hash),
            None => false,
        }
    }
}

/// The blockchain: stores all blocks (forks included), tracks the heaviest
/// tip, maintains canonical-chain indexes and advances a finality
/// checkpoint.
pub struct Chain {
    config: ChainConfig,
    store: Box<dyn BlockStore>,
    meta: HashMap<BlockHash, BlockMeta>,
    tip: BlockHash,
    genesis: BlockHash,
    /// First height covered by the in-memory `canonical` suffix. Stays 0
    /// without a metadata tier; tracks the finality checkpoint with one.
    canonical_base: u64,
    /// Canonical block hashes for heights `canonical_base..=height`.
    canonical: VecDeque<BlockHash>,
    index: ChainIndex,

    /// Undo records for canonical blocks above the finality checkpoint —
    /// exactly the blocks a reorg may still un-absorb.
    undo: HashMap<BlockHash, BlockUndo>,
    /// Every non-finalized block (canonical and fork) by height, for
    /// finality pruning without a full `meta` sweep.
    at_height: HashMap<u64, Vec<BlockHash>>,
    /// Height of the current finality checkpoint (0 = only genesis final…
    /// and genesis is only treated as final once a depth is configured).
    finalized_height: u64,
    /// Durable index tier: finalized entries spill here at checkpoint time
    /// and the mutable [`ChainIndex`] then covers only the suffix. `None`
    /// keeps the PR 2 behavior (everything resident).
    tx_index: Option<TxIndex>,
    /// Durable metadata tier: finalized height→hash entries and checkpoint
    /// snapshots land here, and `meta`/`canonical`/`next_nonce` prune to
    /// the non-finalized suffix. `None` keeps everything resident.
    meta_tier: Option<MetaStore>,
    /// Height through which the durable tx index was last fully synced
    /// (recorded in snapshots; bounds crash-recovery re-derivation).
    index_synced_height: u64,
    /// Checkpoint height of the last written snapshot (amortizes snapshot
    /// writes under `MetaConfig::snapshot_interval`).
    last_snapshot_height: u64,
    /// Blocks validated and appended since this instance was constructed —
    /// a snapshot fast-start re-appends only the non-finalized suffix.
    appended: u64,
    /// Snapshot slot + reader census shared with every [`ChainReader`].
    read_shared: Arc<ChainReadShared>,
    /// Group-commit staging: durable-index entries gathered by finality
    /// advances since the last [`Chain::flush_commits`], appended to the
    /// [`TxIndex`] in one call per batch instead of one per advance.
    staged_spill: Vec<IndexEntry>,
    /// Mutable per-author next nonce, raised by absorb and restored by
    /// reorg undo. With a durable index attached, finality drops an entry
    /// once the author's nonce floor covers it, so it holds suffix authors
    /// only. Writer-side only, like the floors.
    next_nonce: HashMap<AccountId, u64>,
    /// Nonce floors: `author → next nonce` over every finalized
    /// transaction, raised (max wins) as blocks finalize. Consulted by
    /// [`Chain::next_nonce_for`] because the resident nonce entry is pruned
    /// once the floor covers it. Writer-side only — never cloned into a
    /// [`ChainSnapshot`] — and carried whole in every
    /// [`CheckpointSnapshot`], so a fast-start resumes from it.
    nonce_floors: HashMap<AccountId, u64>,
}

impl Chain {
    /// Create a chain with an in-memory store and a deterministic genesis.
    pub fn new(config: ChainConfig) -> Self {
        Self::with_store(Box::new(MemStore::new()), config)
    }

    /// Create a chain over a custom store.
    ///
    /// If the store already holds a genesis-compatible history it is *not*
    /// replayed — this constructor always starts a fresh lineage. Use
    /// [`Chain::replay_with_tiers`] to resume from durable tiers.
    pub fn with_store(store: Box<dyn BlockStore>, config: ChainConfig) -> Self {
        Self::with_optional_tiers(store, None, None, config)
    }

    /// Create a chain over a custom store *and* a durable transaction
    /// index: at each finality checkpoint, entries for newly-final blocks
    /// are flushed to `index` and dropped from the mutable in-memory index,
    /// bounding resident index memory by the finality window.
    ///
    /// The index must belong to this store's history (fresh, or reopened
    /// alongside it). To resume from disk use [`Chain::replay_with_tiers`].
    pub fn with_store_and_index(
        store: Box<dyn BlockStore>,
        index: TxIndex,
        config: ChainConfig,
    ) -> Self {
        Self::with_optional_tiers(store, Some(index), None, config)
    }

    /// Create a chain over all three durable tiers: block store, durable
    /// transaction index, and the metadata tier (height→hash map plus
    /// checkpoint snapshots). Finality then prunes `meta`, the canonical
    /// height vector and per-author nonces down to the non-finalized
    /// suffix, leaving resident chain state O(finality window + live
    /// forks) over unbounded history. Use [`Chain::replay_with_tiers`] to
    /// resume from disk.
    pub fn with_tiers(
        store: Box<dyn BlockStore>,
        index: Option<TxIndex>,
        meta: MetaStore,
        config: ChainConfig,
    ) -> Self {
        Self::with_optional_tiers(store, index, Some(meta), config)
    }

    fn with_optional_tiers(
        mut store: Box<dyn BlockStore>,
        tx_index: Option<TxIndex>,
        mut meta_tier: Option<MetaStore>,
        config: ChainConfig,
    ) -> Self {
        let genesis_block = Self::genesis_block();
        let genesis = genesis_block.hash();
        // A reopened store already holds genesis. Storing it again would
        // append a second frame of it wherever the store has not indexed
        // the first, and the next canonical scan would meet height 0 twice.
        let arc = match store.get(&genesis) {
            Some(arc) => arc,
            None => store.put(genesis_block).expect("store genesis"),
        };
        let mut meta = HashMap::new();
        meta.insert(
            genesis,
            BlockMeta {
                height: 0,
                total_work: 0,
                parent: BlockHash::ZERO,
                timestamp_ms: arc.header.timestamp_ms,
            },
        );
        let mut index = ChainIndex::default();
        let mut next_nonce = HashMap::new();
        index.absorb(&arc, &mut next_nonce);
        let mut at_height = HashMap::new();
        at_height.insert(0u64, vec![genesis]);
        if let Some(meta_store) = &mut meta_tier {
            // A fresh lineage starts its height map at genesis; a reused
            // metadata directory must belong to the same lineage.
            let map = meta_store.height_map_mut();
            if map.is_empty() {
                map.push(0, genesis).expect("height map genesis");
            } else {
                let at0 = map.hash_at(0).expect("height map readable");
                assert_eq!(
                    at0,
                    Some(genesis),
                    "metadata tier belongs to a different lineage"
                );
            }
        }
        let read_shared = Self::make_read_shared(
            store.as_ref(),
            &tx_index,
            &meta_tier,
            ChainSnapshot {
                tip: genesis,
                canonical_base: 0,
                canonical: VecDeque::from([genesis]),
                finalized_height: 0,
                checkpoint: config.finality_depth.map(|_| Checkpoint {
                    height: 0,
                    hash: genesis,
                }),
                index: index.clone(),
            },
        );
        Self {
            config,
            store,
            meta,
            tip: genesis,
            genesis,
            canonical_base: 0,
            canonical: VecDeque::from([genesis]),
            index,
            undo: HashMap::new(),
            at_height,
            finalized_height: 0,
            tx_index,
            meta_tier,
            index_synced_height: 0,
            last_snapshot_height: 0,
            appended: 0,
            read_shared,
            staged_spill: Vec::new(),
            next_nonce,
            nonce_floors: HashMap::new(),
        }
    }

    /// Assemble the shared read state for a freshly constructed chain:
    /// durable-tier read handles plus an initial snapshot.
    fn make_read_shared(
        store: &dyn BlockStore,
        tx_index: &Option<TxIndex>,
        meta_tier: &Option<MetaStore>,
        initial: ChainSnapshot,
    ) -> Arc<ChainReadShared> {
        Arc::new(ChainReadShared {
            snapshot: Published::new(initial),
            readers: AtomicUsize::new(0),
            blocks: store.reader(),
            tx_index: tx_index.as_ref().map(TxIndex::reader),
            heights: meta_tier.as_ref().map(|m| m.height_map().reader()),
        })
    }

    /// Resume a chain from all three durable tiers.
    ///
    /// When the metadata tier holds a readable [`CheckpointSnapshot`], the
    /// chain *fast-starts*: state is seeded from the checkpoint (height,
    /// hash, nonce floor), finalized height→hash lookups come from the
    /// durable height map, and only the non-finalized suffix is
    /// re-validated and re-absorbed — cold-start cost is O(suffix), not
    /// O(history). A torn height-map tail or a lost index tail is healed
    /// from blocks (blocks stay authoritative); a snapshot that contradicts
    /// the block store fails loudly.
    ///
    /// Without a usable snapshot this is a full replay: the store's headers
    /// are scanned (parents before children), the deterministic genesis is
    /// matched, and every other block is re-validated and re-appended under
    /// `config` — fork choice, canonical indexes and the finality
    /// checkpoint all land where the original process left them, and the
    /// metadata tier is rebuilt and rewritten. [`TxIndex::append`] drops
    /// entries already durable in a partition, so only an index suffix
    /// lost to a crash is rewritten. Resident memory stays bounded by the
    /// store's hot tier: the scan only retains `(height, hash)` pairs, and
    /// bodies are fetched a chunk at a time.
    pub fn replay_with_tiers(
        store: Box<dyn BlockStore>,
        index: Option<TxIndex>,
        meta: MetaStore,
        config: ChainConfig,
    ) -> std::io::Result<Self> {
        if let Some(snap) = meta.read_snapshot()? {
            if snap.height > 0 {
                return Self::fast_start(store, index, meta, snap, config);
            }
        }
        let mut order: Vec<(u64, BlockHash)> = Vec::new();
        store.scan_headers_from(0, &mut |h, hash| order.push((h, hash)))?;
        // Stable sort: parents (strictly lower height) come first, original
        // append order is preserved within a height.
        order.sort_by_key(|&(h, _)| h);
        let mut chain = Self::with_optional_tiers(store, index, Some(meta), config);
        chain.replay_all(order)?;
        chain.sync_meta()?;
        Ok(chain)
    }

    /// Re-append scanned blocks in height order, then check that skipping
    /// orphans did not silently truncate the canonical chain.
    ///
    /// Replay runs through the same two-stage pipeline as live ingest:
    /// each stored body is fetched, prevalidated and committed in turn,
    /// with a group flush every chunk of blocks. Blocks that are
    /// provably stale — duplicates, forks at or below the advancing
    /// checkpoint, and blocks whose fork parents were pruned by finality
    /// during this very replay — are skipped: the store is append-only, so
    /// every fork block ever stored is met again here. Any other validation
    /// failure fails the replay loudly.
    fn replay_all(&mut self, order: Vec<(u64, BlockHash)>) -> std::io::Result<()> {
        const REPLAY_CHUNK: usize = 256;
        let mut max_orphan_height = 0u64;
        for chunk in order.chunks(REPLAY_CHUNK) {
            for &(h, hash) in chunk {
                if self.meta.contains_key(&hash) {
                    continue; // genesis (or a duplicate frame)
                }
                let block = self.store.get(&hash).ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("replay: scanned block {hash} missing from store"),
                    )
                })?;
                let pre = PrevalidatedBlock::compute(block, &self.config);
                match self.commit_prevalidated(pre) {
                    Ok(_)
                    | Err(ValidationError::Duplicate(_) | ValidationError::BelowFinality { .. }) => {
                    }
                    Err(ValidationError::UnknownParent(_)) => {
                        max_orphan_height = max_orphan_height.max(h);
                    }
                    Err(e) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("replay: stored block {hash} no longer valid: {e}"),
                        ))
                    }
                }
            }
            // Group-flush per chunk: the bodies are already durable (they
            // came from the store), but the tier staging buffers must not
            // grow unbounded across a long replay.
            self.flush_commits()?;
        }
        // An orphan *above* the final tip can only be the descendant of a
        // canonical block the store no longer holds — corruption, not
        // stale-fork residue (a stale fork never outgrows the heaviest
        // tip here). Fork residue, which the append-only store keeps
        // beside canonical blocks forever, sits at or below the tip and
        // stays skippable.
        if max_orphan_height > self.height() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "replay: canonical history truncated — a stored block at height \
                     {max_orphan_height} has no ancestry but the replayed tip is at {}",
                    self.height()
                ),
            ));
        }
        Ok(())
    }

    /// Seed a chain from a checkpoint snapshot and replay only the
    /// non-finalized suffix. See [`Chain::replay_with_tiers`].
    fn fast_start(
        store: Box<dyn BlockStore>,
        tx_index: Option<TxIndex>,
        mut meta_tier: MetaStore,
        snap: CheckpointSnapshot,
        config: ChainConfig,
    ) -> std::io::Result<Self> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let cp_hash = BlockHash(Hash256(snap.hash));
        // Loud-failure contract: a valid snapshot must agree with the block
        // store, otherwise the directories belong to different histories.
        let cp_block = store.get(&cp_hash).ok_or_else(|| {
            invalid(format!(
                "snapshot checkpoint {cp_hash} at height {} missing from the block store",
                snap.height
            ))
        })?;
        if cp_block.header.height != snap.height {
            return Err(invalid(format!(
                "snapshot says height {} but stored block {cp_hash} has height {}",
                snap.height, cp_block.header.height
            )));
        }
        // Heal the height map: open kept only the prefix the snapshot
        // vouches for, and a crash can leave it short of the checkpoint.
        // Blocks are authoritative — walk parent pointers down from the
        // checkpoint and refill.
        let have = meta_tier.height_map().len();
        if have <= snap.height {
            let mut fill: Vec<(u64, BlockHash)> = Vec::new();
            let mut cur = Arc::clone(&cp_block);
            loop {
                let h = cur.header.height;
                if h < have {
                    break;
                }
                fill.push((h, cur.hash()));
                if h == 0 {
                    break;
                }
                let parent = store.get(&cur.header.prev).ok_or_else(|| {
                    invalid(format!(
                        "height map heal: canonical ancestor {} missing from the block store",
                        cur.header.prev
                    ))
                })?;
                cur = parent;
            }
            for (h, hash) in fill.into_iter().rev() {
                meta_tier.height_map_mut().push(h, hash)?;
            }
        }
        if meta_tier.height_map().hash_at(snap.height)? != Some(cp_hash) {
            return Err(invalid(format!(
                "height map disagrees with snapshot checkpoint at height {}",
                snap.height
            )));
        }
        let mut meta = HashMap::new();
        // The checkpoint anchors fork choice: every later block's
        // total_work is relative to it, and relative order is all the
        // heaviest-chain rule compares.
        meta.insert(
            cp_hash,
            BlockMeta {
                height: snap.height,
                total_work: 0,
                parent: cp_block.header.prev,
                timestamp_ms: cp_block.header.timestamp_ms,
            },
        );
        let mut at_height = HashMap::new();
        at_height.insert(snap.height, vec![cp_hash]);
        let genesis = Self::genesis_block().hash();
        let meta_tier = Some(meta_tier);
        let read_shared = Self::make_read_shared(
            store.as_ref(),
            &tx_index,
            &meta_tier,
            ChainSnapshot {
                tip: cp_hash,
                canonical_base: snap.height,
                canonical: VecDeque::from([cp_hash]),
                finalized_height: snap.height,
                checkpoint: config.finality_depth.map(|_| Checkpoint {
                    height: snap.height,
                    hash: cp_hash,
                }),
                index: ChainIndex::default(),
            },
        );
        let mut chain = Self {
            config,
            store,
            meta,
            tip: cp_hash,
            genesis,
            canonical_base: snap.height,
            canonical: VecDeque::from([cp_hash]),
            index: ChainIndex::default(),
            undo: HashMap::new(),
            at_height,
            finalized_height: snap.height,
            tx_index,
            meta_tier,
            index_synced_height: snap.index_durable_height,
            last_snapshot_height: snap.height,
            appended: 0,
            read_shared,
            staged_spill: Vec::new(),
            next_nonce: HashMap::new(),
            nonce_floors: snap
                .nonce_floors
                .iter()
                .map(|&(author, nonce)| (AccountId(Hash256(author)), nonce))
                .collect(),
        };
        chain.heal_index(&snap)?;
        // Replay only the non-finalized suffix: a fenced header scan skips
        // sealed segments wholly below the checkpoint (the manifest's
        // per-segment height fences), so cold-start I/O is O(finality
        // window), not O(history bytes). Over-visiting is allowed; the
        // height filter keeps correctness independent of fence precision.
        let mut order: Vec<(u64, BlockHash)> = Vec::new();
        chain.store.scan_headers_from(snap.height, &mut |h, hash| {
            if h > snap.height {
                order.push((h, hash));
            }
        })?;
        order.sort_by_key(|&(h, _)| h);
        chain.replay_all(order)?;
        chain.sync_meta()?;
        Ok(chain)
    }

    /// Re-derive durable-index entries a crash may have lost.
    ///
    /// Entries at or below the snapshot's `index_durable_height` were
    /// synced to durable pages; anything above it up to the checkpoint may
    /// have sat in the crash-lossy staged tail. If a partition's durable
    /// watermark additionally fell below what the snapshot recorded (a
    /// torn page truncated on open), the re-derivation floor drops to that
    /// watermark. Appends are idempotent per partition, so over-covering
    /// costs reads, never duplicates.
    fn heal_index(&mut self, snap: &CheckpointSnapshot) -> std::io::Result<()> {
        let Some(ix) = &self.tx_index else {
            return Ok(());
        };
        let watermarks = ix.partition_watermarks();
        if !snap.index_watermarks.is_empty() && watermarks.len() != snap.index_watermarks.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "snapshot records {} index partitions, index has {}",
                    snap.index_watermarks.len(),
                    watermarks.len()
                ),
            ));
        }
        let mut from = snap.index_durable_height;
        for (current, recorded) in watermarks.iter().zip(&snap.index_watermarks) {
            if current < recorded {
                from = from.min(*current);
            }
        }
        if from >= snap.height {
            return Ok(());
        }
        let mut entries: Vec<IndexEntry> = Vec::new();
        for h in (from + 1)..=snap.height {
            let hash = self.try_hash_at(h)?.ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("index heal: no canonical hash at height {h}"),
                )
            })?;
            let block = self.store.get(&hash).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("index heal: canonical block {hash} missing from the block store"),
                )
            })?;
            entries.extend(block.txs.iter().enumerate().map(|(pos, tx)| IndexEntry {
                id: tx.id(),
                kind: tx.kind,
                block: hash,
                height: h,
                pos: pos as u32,
            }));
        }
        if !entries.is_empty() {
            self.tx_index
                .as_mut()
                .expect("checked above")
                .append(entries)?;
        }
        Ok(())
    }

    /// The deterministic genesis block shared by every chain instance.
    pub fn genesis_block() -> Block {
        Block::assemble(
            0,
            BlockHash::ZERO,
            0,
            AccountId::from_name("genesis"),
            0,
            Vec::new(),
        )
    }

    /// Chain configuration.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Current tip hash.
    pub fn tip(&self) -> BlockHash {
        self.tip
    }

    /// Current tip header.
    pub fn tip_header(&self) -> BlockHeader {
        self.store
            .get(&self.tip)
            .expect("tip exists")
            .header
            .clone()
    }

    /// Height of the tip (genesis = 0).
    pub fn height(&self) -> u64 {
        self.canonical_base + self.canonical.len() as u64 - 1
    }

    /// Genesis hash.
    pub fn genesis(&self) -> BlockHash {
        self.genesis
    }

    /// Height of the finality checkpoint (0 until finality advances).
    pub fn finalized_height(&self) -> u64 {
        self.finalized_height
    }

    /// Canonical hash at `height` from the in-memory suffix only.
    fn suffix_hash(&self, height: u64) -> Option<BlockHash> {
        let idx = height.checked_sub(self.canonical_base)?;
        self.canonical.get(idx as usize).copied()
    }

    /// Canonical block hash at `height` — the two-tier merged accessor.
    ///
    /// The in-memory suffix covers heights above the checkpoint; the
    /// durable height map (when a metadata tier is attached) serves
    /// finalized history. An unreadable durable tier reads as absent here,
    /// matching [`BlockStore::get`].
    pub fn hash_at(&self, height: u64) -> Option<BlockHash> {
        self.try_hash_at(height).unwrap_or(None)
    }

    /// [`Chain::hash_at`], surfacing durable-tier read errors.
    fn try_hash_at(&self, height: u64) -> std::io::Result<Option<BlockHash>> {
        if let Some(hash) = self.suffix_hash(height) {
            return Ok(Some(hash));
        }
        if height >= self.canonical_base {
            return Ok(None); // above the tip
        }
        match &self.meta_tier {
            Some(meta) => meta.height_map().hash_at(height),
            None => Ok(None),
        }
    }

    /// The current finality checkpoint, when a finality depth is configured.
    pub fn checkpoint(&self) -> Option<Checkpoint> {
        self.config.finality_depth.map(|_| Checkpoint {
            height: self.finalized_height,
            hash: self
                .suffix_hash(self.finalized_height)
                .expect("suffix covers the checkpoint"),
        })
    }

    /// Fetch any stored block (canonical or fork).
    pub fn block(&self, hash: &BlockHash) -> Option<Arc<Block>> {
        self.store.get(hash)
    }

    /// Fetch the canonical block at `height`.
    pub fn block_at(&self, height: u64) -> Option<Arc<Block>> {
        let hash = self.hash_at(height)?;
        self.store.get(&hash)
    }

    /// Whether `hash` lies on the canonical chain.
    ///
    /// Non-finalized blocks answer from fork-choice metadata; finalized
    /// blocks (whose metadata a metadata tier prunes) answer through the
    /// durable height map, fetching the block once for its height.
    pub fn is_canonical(&self, hash: &BlockHash) -> bool {
        if let Some(m) = self.meta.get(hash) {
            return self.suffix_hash(m.height) == Some(*hash);
        }
        if self.meta_tier.is_none() {
            return false;
        }
        match self.store.get(hash) {
            Some(block) => self.hash_at(block.header.height) == Some(*hash),
            None => false,
        }
    }

    /// Total blocks stored (including forks).
    pub fn stored_blocks(&self) -> usize {
        self.store.len()
    }

    /// Decoded blocks currently resident in memory — bounded by the hot-set
    /// capacity when the chain runs over a tiered store.
    pub fn resident_blocks(&self) -> usize {
        self.store.resident_blocks()
    }

    /// Bytes held by the block store (E3 storage accounting).
    pub fn stored_bytes(&self) -> u64 {
        self.store.stored_bytes()
    }

    /// Next expected nonce for an author on the canonical chain.
    ///
    /// The mutable tier covers authors with transactions in the
    /// non-finalized suffix; the nonce floors (raised at each finality
    /// advance) cover finalized history. The maximum of the two is the
    /// full-history value.
    pub fn next_nonce_for(&self, author: &AccountId) -> u64 {
        let mutable = self.next_nonce.get(author).copied().unwrap_or(0);
        let floor = self.nonce_floors.get(author).copied().unwrap_or(0);
        mutable.max(floor)
    }

    /// Locate a canonical transaction in the writer's state: the same
    /// two-tier merge as [`ChainView::tx_by_id`], over the suffix index and
    /// the durable index capped at the checkpoint.
    fn locate_tx(&self, id: &TxId) -> std::io::Result<Option<(BlockHash, u32)>> {
        if let Some(loc) = self.index.tx_loc.get(id) {
            return Ok(Some(*loc));
        }
        match &self.tx_index {
            Some(ix) => ix.lookup(id, self.finalized_height),
            None => Ok(None),
        }
    }

    /// Visit every canonical block, genesis to tip, in one sequential pass
    /// over the block store ([`BlockStore::scan`]) — no index walk, no
    /// point read through the hot tier.
    ///
    /// A stored block is visited iff its height is at or below the tip and
    /// the height map names it there, so fork blocks are skipped. A block is
    /// stored only after its parent, so canonical blocks arrive in strictly
    /// ascending height; anything else — a height missing from the store, a
    /// repeat, an out-of-order block — fails with `InvalidData` naming the
    /// height, instead of handing the caller a partial history. Height-map
    /// and frame-decode errors surface as they are.
    pub fn scan_canonical(&self, visit: &mut dyn FnMut(&Block)) -> std::io::Result<()> {
        use std::cmp::Ordering;
        use std::io::ErrorKind::InvalidData;
        let tip = self.height();
        let mut next = 0u64;
        let mut failed: Option<std::io::Error> = None;
        self.store.scan(&mut |block| {
            let height = block.header.height;
            if failed.is_some() || height > tip {
                return;
            }
            let broken = |msg: String| Some(std::io::Error::new(InvalidData, msg));
            match self.try_hash_at(height) {
                Ok(Some(hash)) if hash == block.hash() => match height.cmp(&next) {
                    Ordering::Equal => {
                        visit(&block);
                        next += 1;
                    }
                    Ordering::Greater => {
                        failed = broken(format!(
                            "canonical height {next} is missing from the block store \
                             before height {height}"
                        ))
                    }
                    Ordering::Less => {
                        failed = broken(format!("canonical height {height} is stored twice"))
                    }
                },
                Ok(_) => {}
                Err(e) => failed = Some(e),
            }
        })?;
        match failed {
            Some(e) => Err(e),
            None if next <= tip => Err(std::io::Error::new(
                InvalidData,
                format!("canonical height {next} is missing from the block store (tip {tip})"),
            )),
            None => Ok(()),
        }
    }

    /// Entries currently held in the mutable in-memory index — O(finality
    /// window) when a durable index is attached, O(history) otherwise.
    pub fn resident_index_entries(&self) -> usize {
        self.index.resident_entries()
    }

    /// The attached durable index tier, if any (stats and inspection).
    pub fn tx_index(&self) -> Option<&TxIndex> {
        self.tx_index.as_ref()
    }

    /// Force staged durable-index entries onto disk (checkpoint/shutdown
    /// hygiene; queries see staged entries either way).
    pub fn sync_index(&mut self) -> std::io::Result<()> {
        match &mut self.tx_index {
            Some(ix) => {
                ix.sync()?;
                self.index_synced_height = self.finalized_height;
                self.publish_read_state();
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// The attached durable metadata tier, if any (stats and inspection).
    pub fn meta_tier(&self) -> Option<&MetaStore> {
        self.meta_tier.as_ref()
    }

    /// Resident per-block chain metadata counts — bounded by O(finality
    /// window + live forks) when the durable tiers are attached,
    /// O(history) otherwise.
    pub fn resident_metadata(&self) -> ResidentMetadata {
        ResidentMetadata {
            meta: self.meta.len(),
            canonical: self.canonical.len(),
            next_nonce: self.next_nonce.len(),
            nonce_floor: self.nonce_floors.len(),
            undo: self.undo.len(),
            at_height: self.at_height.values().map(Vec::len).sum(),
        }
    }

    /// Blocks validated and appended since this instance was constructed.
    /// After a snapshot fast-start this counts only the re-absorbed
    /// non-finalized suffix — the observable "no re-absorption of
    /// finalized history" guarantee.
    pub fn appended_blocks(&self) -> u64 {
        self.appended
    }

    /// Attach a concurrent read handle.
    ///
    /// The handle is cloneable and `Send + Sync`; clones share one snapshot
    /// slot with the writer. While at least one handle is alive the writer
    /// re-publishes a fresh [`ChainSnapshot`] at every commit point
    /// (append, batch append, reorg, finality advance, tier sync);
    /// with none alive it skips that work entirely, so the single-writer
    /// hot path is unchanged when nobody is reading.
    pub fn reader(&mut self) -> ChainReader {
        self.force_publish_read_state();
        self.read_shared.readers.fetch_add(1, Ordering::SeqCst);
        ChainReader {
            shared: Arc::clone(&self.read_shared),
        }
    }

    /// Publish the current chain state for readers — a no-op with no
    /// attached [`ChainReader`]s.
    fn publish_read_state(&mut self) {
        if self.read_shared.readers.load(Ordering::Acquire) == 0 {
            return;
        }
        self.force_publish_read_state();
    }

    /// Publish unconditionally: durable tiers first, chain snapshot second.
    ///
    /// The order is load-bearing. A reader loads the snapshot *first* and
    /// queries tiers after, so tier states must be at least as new as any
    /// loadable snapshot; publishing tiers first guarantees it, and the
    /// reader-side `height <= finalized_height` filter trims a tier that
    /// ran ahead back to the snapshot's prefix.
    fn force_publish_read_state(&mut self) {
        if let Some(ix) = &self.tx_index {
            ix.publish();
        }
        if let Some(meta) = &self.meta_tier {
            meta.height_map().publish();
        }
        self.read_shared.snapshot.store(Arc::new(ChainSnapshot {
            tip: self.tip,
            canonical_base: self.canonical_base,
            canonical: self.canonical.clone(),
            finalized_height: self.finalized_height,
            checkpoint: self.checkpoint(),
            index: self.index.clone(),
        }));
    }

    /// Flush every durable tier: staged index entries become pages, the
    /// staged height-map tail lands in the array, and a fresh snapshot records
    /// the resulting watermarks. Shutdown hygiene — a restart after this
    /// heals nothing and fast-starts immediately.
    pub fn sync_meta(&mut self) -> std::io::Result<()> {
        // Land any group-commit staging first: sync watermarks recorded
        // below must cover it.
        self.flush_commits()?;
        self.sync_index()?;
        if let Some(meta) = &mut self.meta_tier {
            meta.height_map_mut().sync()?;
        }
        self.write_snapshot()?;
        self.publish_read_state();
        Ok(())
    }

    /// Write the checkpoint snapshot for the current finality state (no-op
    /// without a metadata tier).
    fn write_snapshot(&mut self) -> std::io::Result<()> {
        if self.meta_tier.is_none() {
            return Ok(());
        }
        let cp_hash = self
            .suffix_hash(self.finalized_height)
            .expect("suffix covers the checkpoint");
        let meta = self.meta_tier.as_mut().expect("checked above");
        let snap = CheckpointSnapshot {
            version: SNAPSHOT_VERSION,
            height: self.finalized_height,
            hash: *cp_hash.0.as_bytes(),
            index_watermarks: self
                .tx_index
                .as_ref()
                .map(|ix| ix.partition_watermarks())
                .unwrap_or_default(),
            index_durable_height: self.index_synced_height,
            nonce_floors: self
                .nonce_floors
                .iter()
                .map(|(author, &nonce)| (*author.0.as_bytes(), nonce))
                .collect(),
            height_map_len: meta.height_map().durable_len(),
        };
        meta.write_snapshot(&snap)?;
        // Recorded only on success: a failed write must not suppress the
        // next interval-driven attempt.
        self.last_snapshot_height = self.finalized_height;
        Ok(())
    }

    /// Produce a self-contained inclusion proof for a canonical transaction.
    pub fn prove_tx(&self, id: &TxId) -> Option<TxInclusionProof> {
        let (hash, pos) = self.locate_tx(id).unwrap_or(None)?;
        TxInclusionProof::at(&*self.store.get(&hash)?, pos)
    }

    /// Validate a block against its parent without inserting it.
    ///
    /// Composed from the same two stages batched ingest uses — stateless
    /// prevalidation ([`PrevalidatedBlock::compute`]) plus the stateful
    /// checks — so single-block and batched paths report identical errors.
    pub fn validate(&self, block: &Block) -> Result<(), ValidationError> {
        let hash = block.hash();
        let tx_ids: Vec<TxId> = block.txs.iter().map(Transaction::id).collect();
        let stateless = PrevalidatedBlock::stateless_err(block, hash, &tx_ids, &self.config).err();
        self.validate_stateful(block, hash, stateless.as_ref())
    }

    /// The stateful (chain-dependent) validation checks, interleaved with a
    /// recorded stateless failure so the first error *in canonical check
    /// order* is the one reported — exactly what a fully sequential
    /// [`Chain::validate`] produces.
    fn validate_stateful(
        &self,
        block: &Block,
        hash: BlockHash,
        stateless: Option<&ValidationError>,
    ) -> Result<(), ValidationError> {
        // A stateless failure outranks any stateful check at or above `rank`.
        let pending = |rank: u8| stateless.filter(|e| check_rank(e) < rank).cloned();
        if self.meta.contains_key(&hash) {
            return Err(ValidationError::Duplicate(hash));
        }
        if let Some(e) = pending(2) {
            return Err(e); // BadVersion
        }
        let parent_meta = self
            .meta
            .get(&block.header.prev)
            .ok_or(ValidationError::UnknownParent(block.header.prev))?;
        if block.header.height != parent_meta.height + 1 {
            return Err(ValidationError::BadHeight {
                expected: parent_meta.height + 1,
                got: block.header.height,
            });
        }
        // Finality: a block at or below the checkpoint would fork across an
        // irreversible boundary.
        if self.config.finality_depth.is_some() && block.header.height <= self.finalized_height {
            return Err(ValidationError::BelowFinality {
                finalized: self.finalized_height,
                got: block.header.height,
            });
        }
        if let Some(e) = pending(8) {
            return Err(e); // TooManyTxs / BadTxRoot / DuplicateTx
        }
        // Timestamps: non-decreasing within tolerance, against the parent
        // clock carried in `BlockMeta` — no store read on the hot path.
        let parent_ms = parent_meta.timestamp_ms;
        if block.header.timestamp_ms + self.config.timestamp_tolerance_ms < parent_ms {
            return Err(ValidationError::BadTimestamp {
                parent_ms,
                block_ms: block.header.timestamp_ms,
            });
        }
        if let Some(e) = pending(11) {
            return Err(e); // BadProofOfWork / BadSignature
        }
        // Nonces: enforced only for blocks extending the canonical tip (fork
        // branches are re-validated wholesale if they win fork choice).
        if self.config.enforce_nonces && block.header.prev == self.tip {
            let mut expected: HashMap<AccountId, u64> = HashMap::new();
            for tx in &block.txs {
                let e = expected
                    .entry(tx.author)
                    .or_insert_with(|| self.next_nonce_for(&tx.author));
                if tx.nonce != *e {
                    return Err(ValidationError::BadNonce {
                        author: tx.author,
                        expected: *e,
                        got: tx.nonce,
                    });
                }
                *e += 1;
            }
        }
        Ok(())
    }

    /// Validate and insert a block, updating fork choice and finality.
    ///
    /// A single append is a batch of one: the commit stages its durable
    /// work and the group flush lands it before the snapshot publishes, so
    /// the durability contract ("returned means durable") is unchanged.
    pub fn append(&mut self, block: Block) -> Result<AppendOutcome, ValidationError> {
        let outcome = self.commit_prevalidated(PrevalidatedBlock::compute(block, &self.config))?;
        self.flush_commits()
            .map_err(|e| ValidationError::StoreIo(e.to_string()))?;
        self.publish_read_state();
        Ok(outcome)
    }

    /// Validate and insert a batch of blocks through the two-stage ingest
    /// pipeline, one block at a time on the calling thread: stage 1
    /// ([`PrevalidatedBlock::compute`]) runs every stateless check, stage 2
    /// commits in batch order — stateful checks, fork choice, index
    /// absorption and finality, unchanged from [`Chain::append`]. Only the
    /// group flush and the snapshot publish are shared by the batch.
    ///
    /// Commit stops at the first invalid block: earlier blocks are in and
    /// their outcomes returned inside the error, the failing block and all
    /// later ones are not. The resulting chain state — tip, canonical
    /// hashes, indexes, nonces — is byte-identical to appending the same
    /// blocks one at a time.
    pub fn append_batch(&mut self, blocks: Vec<Block>) -> Result<Vec<AppendOutcome>, BatchError> {
        let mut committed = Vec::with_capacity(blocks.len());
        for (index, block) in blocks.into_iter().enumerate() {
            let pre = PrevalidatedBlock::compute(block, &self.config);
            match self.commit_prevalidated(pre) {
                Ok(outcome) => committed.push(outcome),
                Err(error) => {
                    // The prefix before `index` committed — group-flush it
                    // so everything this error reports as committed is
                    // durable before the caller sees the error, then
                    // publish. If the flush itself fails, that failure
                    // outranks the validation error (the prefix's
                    // durability is unknown) and publication is skipped —
                    // readers keep the last flushed snapshot.
                    match self.flush_commits() {
                        Ok(()) => self.publish_read_state(),
                        Err(e) => {
                            return Err(BatchError {
                                index,
                                error: ValidationError::StoreIo(e.to_string()),
                                committed,
                            })
                        }
                    }
                    return Err(BatchError {
                        index,
                        error,
                        committed,
                    });
                }
            }
        }
        // Stage-3 group flush: one durable write per tier for the whole
        // batch. `index == committed.len()` marks a flush failure after
        // every block validated (no single block is at fault).
        if let Err(e) = self.flush_commits() {
            let index = committed.len();
            return Err(BatchError {
                index,
                error: ValidationError::StoreIo(e.to_string()),
                committed,
            });
        }
        // One snapshot per batch: readers observe batch-granular epochs,
        // and the per-block suffix clone is amortized across the batch.
        self.publish_read_state();
        Ok(committed)
    }

    /// Stage 2 of the ingest pipeline: the serialized commit section.
    ///
    /// Runs the stateful checks (interleaved with any recorded stateless
    /// failure), then the unchanged fork-choice / absorb / undo / finality
    /// machinery — reusing the hash, tx ids and work derived in stage 1.
    fn commit_prevalidated(
        &mut self,
        pre: PrevalidatedBlock,
    ) -> Result<AppendOutcome, ValidationError> {
        self.validate_stateful(&pre.block, pre.hash, pre.stateless_err.as_ref())?;
        let PrevalidatedBlock {
            block,
            hash,
            tx_ids,
            work,
            ..
        } = pre;
        let parent_meta = self.meta[&block.header.prev];
        let meta = BlockMeta {
            height: block.header.height,
            total_work: parent_meta.total_work.saturating_add(work),
            parent: block.header.prev,
            timestamp_ms: block.header.timestamp_ms,
        };
        let extends_tip = block.header.prev == self.tip;
        // Stage the body for the group flush: the frame is buffered (and
        // served from the store's pending set) until `flush_commits` lands
        // the whole batch with one write. A failure here — full disk, I/O
        // error — propagates instead of aborting the process; nothing of
        // this block entered the chain state yet.
        let block = self
            .store
            .put_staged(block, hash)
            .map_err(|e| ValidationError::StoreIo(e.to_string()))?;
        self.meta.insert(hash, meta);
        self.at_height.entry(meta.height).or_default().push(hash);

        self.appended += 1;
        let tip_work = self.meta[&self.tip].total_work;
        let wins = meta.total_work > tip_work;
        if extends_tip {
            // Fast path: extend canonical chain incrementally.
            self.tip = hash;
            self.canonical.push_back(hash);
            let undo = self
                .index
                .absorb_with(&block, hash, &tx_ids, &mut self.next_nonce);
            self.undo.insert(hash, undo);
            self.advance_finality();
            Ok(AppendOutcome {
                hash,
                new_tip: true,
                reorged: false,
                block,
            })
        } else if wins {
            // Reorg: undo the losing suffix, redo along the winning branch.
            self.reorg_to(hash);
            self.advance_finality();
            Ok(AppendOutcome {
                hash,
                new_tip: true,
                reorged: true,
                block,
            })
        } else {
            Ok(AppendOutcome {
                hash,
                new_tip: false,
                reorged: false,
                block,
            })
        }
    }

    /// Move the canonical chain to `new_tip` incrementally: walk the new
    /// branch back to its canonical ancestor, un-absorb the old suffix
    /// (newest first, from undo records — no block bodies are re-read on
    /// the losing side), then absorb the new branch oldest first.
    fn reorg_to(&mut self, new_tip: BlockHash) {
        let mut branch = vec![new_tip];
        let mut cursor = self.meta[&new_tip].parent;
        while !self.is_canonical(&cursor) {
            branch.push(cursor);
            cursor = self.meta[&cursor].parent;
        }
        let ancestor_height = self.meta[&cursor].height;
        debug_assert!(
            ancestor_height >= self.finalized_height,
            "fork choice must never cross the finality checkpoint"
        );
        while self.height() > ancestor_height {
            let old = self.canonical.pop_back().expect("suffix non-empty");
            let undo = self
                .undo
                .remove(&old)
                .expect("non-finalized canonical block has an undo record");
            self.index.unabsorb(undo, &mut self.next_nonce);
        }
        for hash in branch.iter().rev() {
            let block = self.store.get(hash).expect("branch block stored");
            let undo = self.index.absorb(&block, &mut self.next_nonce);
            self.undo.insert(*hash, undo);
            self.canonical.push_back(*hash);
        }
        self.tip = new_tip;
    }

    /// Advance the finality checkpoint to `height - depth`, pruning stale
    /// fork metadata at newly-final heights (plus any fork descendants that
    /// become orphaned) and demoting finalized canonical blocks to the
    /// store's cold tier (the store keeps a block of the current group
    /// commit hot).
    ///
    /// The per-author nonce floors absorb the newly-final transactions'
    /// nonces. With a metadata tier attached this is also where the chain's
    /// resident footprint is bounded: newly-final canonical hashes move to
    /// the durable height map, finalized `meta`/`canonical` entries are
    /// pruned down to the suffix, and a checkpoint snapshot is written
    /// atomically.
    fn advance_finality(&mut self) {
        let Some(depth) = self.config.finality_depth else {
            return;
        };
        let new_fin = self.height().saturating_sub(depth);
        if new_fin <= self.finalized_height {
            return;
        }
        let old_fin = self.finalized_height;
        self.finalized_height = new_fin;
        // Prune newly-final heights, spilling their index entries to the
        // durable tier (when attached) so the mutable index keeps covering
        // only the non-finalized suffix.
        let mut spill: Vec<IndexEntry> = Vec::new();
        let mut orphan_frontier: HashSet<BlockHash> = HashSet::new();
        for h in (old_fin + 1)..=new_fin {
            let canon = self
                .suffix_hash(h)
                .expect("suffix covers finalizing heights");
            if let Some(undo) = self.undo.remove(&canon) {
                let spilling = self.tx_index.is_some();
                for u in &undo.txs {
                    let floor = self.nonce_floors.entry(u.author).or_insert(0);
                    *floor = (*floor).max(u.nonce + 1);
                    // With the durable tier attached the mutable nonce map
                    // keeps an author only while it says more than the
                    // raised floor, so it holds suffix authors alone.
                    if spilling && self.next_nonce.get(&u.author).is_some_and(|&n| n <= *floor) {
                        self.next_nonce.remove(&u.author);
                    }
                }
                if spilling {
                    spill.extend(undo.txs.iter().enumerate().map(|(i, u)| IndexEntry {
                        id: u.id,
                        kind: u.kind,
                        block: canon,
                        height: h,
                        pos: i as u32,
                    }));
                    self.index.spill(canon, &undo);
                }
            }
            if let Some(meta) = &mut self.meta_tier {
                meta.height_map_mut()
                    .push(h, canon)
                    .expect("height map append");
            }
            self.store.demote(&canon);
            if let Some(list) = self.at_height.remove(&h) {
                for hash in list {
                    if hash != canon {
                        self.meta.remove(&hash);
                        orphan_frontier.insert(hash);
                    }
                }
            }
        }
        // Group-commit staging: spill entries accumulate here and reach
        // the durable index in one append when `flush_commits` runs at the
        // batch boundary — durable I/O is O(tiers) per batch, not
        // O(advances). Height-map pushes above stage in memory; their
        // flush moves to the batch boundary too.
        self.staged_spill.extend(spill);
        if self.meta_tier.is_some() {
            // The durable tier now serves finalized heights: prune the
            // in-memory prefix (fork-choice metadata, canonical hashes and
            // height buckets strictly below the new checkpoint).
            for h in self.canonical_base..new_fin {
                let hash = self
                    .canonical
                    .pop_front()
                    .expect("suffix covers pruned heights");
                self.meta.remove(&hash);
                self.at_height.remove(&h);
            }
            self.canonical_base = new_fin;
        }
        // Cascade: fork blocks above the checkpoint whose ancestry was just
        // pruned can never win fork choice again — drop their metadata too.
        let tip_height = self.height();
        let mut h = new_fin + 1;
        while !orphan_frontier.is_empty() && h <= tip_height {
            let mut next = HashSet::new();
            let meta = &mut self.meta;
            if let Some(list) = self.at_height.get_mut(&h) {
                list.retain(|hash| {
                    let parent = meta[hash].parent;
                    if orphan_frontier.contains(&parent) {
                        meta.remove(hash);
                        next.insert(*hash);
                        false
                    } else {
                        true
                    }
                });
            }
            orphan_frontier = next;
            h += 1;
        }
        // Interval-driven durability (index sync, snapshot write) happens
        // in `flush_commits`: mid-batch the staged tails are incomplete, so
        // forcing them durable here would record watermarks ahead of the
        // block flush.
    }

    /// Stage-3 group flush: land everything the batch's commits staged,
    /// with one durable append per tier.
    ///
    /// Order is load-bearing. Block bodies flush first — every other tier
    /// is derived from blocks, so after a crash the replay path can heal a
    /// tier that lags its blocks, but a tier that leads its blocks would
    /// reference frames that do not exist. Then the durable tx-index
    /// append, the height-map flush, and finally the interval-driven
    /// sync/snapshot (which record watermarks, so they must observe the
    /// staged appends). Publication to readers stays with
    /// the callers: tiers first, snapshot second, at the batch boundary.
    ///
    /// On error the chain's in-memory state is ahead of disk and the
    /// instance should be dropped and reopened — replay re-derives the
    /// missing tail from whatever block prefix landed.
    fn flush_commits(&mut self) -> std::io::Result<()> {
        self.store.flush_staged()?;
        if !self.staged_spill.is_empty() {
            let spill = std::mem::take(&mut self.staged_spill);
            self.tx_index
                .as_mut()
                .expect("spill staged only with an index")
                .append(spill)?;
        }
        if let Some(meta) = &mut self.meta_tier {
            meta.height_map_mut().flush()?;
        }
        if self.meta_tier.is_some() {
            // Bound crash recovery: periodically force the staged tier
            // tails into durable pages so the snapshot's durable heights
            // keep up with the checkpoint. Same cadence as before group
            // commit, evaluated once per batch instead of per advance.
            let config = *self.meta_tier.as_ref().expect("checked above").config();
            let fin = self.finalized_height;
            if self.tx_index.is_some()
                && fin.saturating_sub(self.index_synced_height) >= config.index_sync_interval
            {
                self.sync_index()?;
            }
            if fin.saturating_sub(self.last_snapshot_height) >= config.snapshot_interval.max(1) {
                self.write_snapshot()?;
            }
        }
        Ok(())
    }

    /// Walk the canonical chain and re-verify every link: header hashes,
    /// parent pointers, heights, Merkle roots and PoW targets.
    ///
    /// This is the auditor-side check of Figure 2 — any in-store tampering
    /// surfaces here.
    pub fn verify_integrity(&self) -> Result<(), ValidationError> {
        let mut prev_hash = BlockHash::ZERO;
        for h in 0..=self.height() {
            // Two-tier resolution: the walk covers finalized history via
            // the durable height map, so tampering below the checkpoint
            // still surfaces.
            let hash = self
                .hash_at(h)
                .ok_or(ValidationError::UnknownParent(prev_hash))?;
            let block = self
                .store
                .get(&hash)
                .ok_or(ValidationError::UnknownParent(hash))?;
            if block.hash() != hash {
                return Err(ValidationError::BadTxRoot); // header bytes changed
            }
            if block.header.height != h {
                return Err(ValidationError::BadHeight {
                    expected: h,
                    got: block.header.height,
                });
            }
            if block.header.prev != prev_hash {
                return Err(ValidationError::UnknownParent(block.header.prev));
            }
            if !block.tx_root_valid() {
                return Err(ValidationError::BadTxRoot);
            }
            if block.header.difficulty_bits > 0 && !block.header.meets_difficulty() {
                return Err(ValidationError::BadProofOfWork);
            }
            prev_hash = hash;
        }
        Ok(())
    }

    /// Audit helper: rebuild the canonical indexes from scratch and compare
    /// with the incrementally-maintained ones. `true` means they agree —
    /// the invariant the incremental undo/redo (and finality spill)
    /// machinery must preserve across any fork/reorg/finality sequence.
    ///
    /// Without a durable index this is a structural equality check; with
    /// one, the *merged* two-tier query results are compared against the
    /// rebuild, entry by entry.
    pub fn index_consistent(&self) -> bool {
        let mut rebuilt = ChainIndex::default();
        let mut rebuilt_nonces = HashMap::new();
        for h in 0..=self.height() {
            let block = match self.hash_at(h).and_then(|hash| self.store.get(&hash)) {
                Some(b) => b,
                None => return false,
            };
            rebuilt.absorb(&block, &mut rebuilt_nonces);
        }
        if self.tx_index.is_none() && self.meta_tier.is_none() {
            return rebuilt == self.index && rebuilt_nonces == self.next_nonce;
        }
        // Nonces: the merged two-tier view must equal the full-history
        // rebuild, and neither resident tier may exceed it (no phantoms).
        for (author, expect) in &rebuilt_nonces {
            if self.next_nonce_for(author) != *expect {
                return false;
            }
        }
        for (author, n) in &self.next_nonce {
            if rebuilt_nonces.get(author).is_none_or(|r| r < n) {
                return false;
            }
        }
        let Some(ix) = &self.tx_index else {
            // Metadata tier only: the mutable tx indexes still cover all of
            // history and must match the rebuild structurally.
            return rebuilt == self.index;
        };
        // Every canonical location resolves through the merged lookup, and
        // the mutable tier holds no phantom entries.
        for (id, loc) in &rebuilt.tx_loc {
            if self.locate_tx(id).unwrap_or(None) != Some(*loc) {
                return false;
            }
        }
        for (id, loc) in &self.index.tx_loc {
            if rebuilt.tx_loc.get(id) != Some(loc) {
                return false;
            }
        }
        // Kind lists match the rebuild in full, including order; the
        // merged result must also cover no extra kinds.
        for (kind, list) in &rebuilt.by_kind {
            let Ok(durable) = ix.entries_by_kind(*kind, self.finalized_height) else {
                return false;
            };
            let suffix = self.index.by_kind.get(kind).into_iter().flatten();
            if durable.iter().map(|e| &e.id).chain(suffix).ne(list) {
                return false;
            }
        }
        for kind in self.index.by_kind.keys() {
            if !rebuilt.by_kind.contains_key(kind) {
                return false;
            }
        }
        true
    }

    /// Iterate canonical block hashes from genesis to tip.
    ///
    /// Owned values: finalized heights resolve through the durable height
    /// map when a metadata tier is attached (panicking on an unreadable
    /// tier, like the store-backed accessors' `expect`s), the suffix from
    /// memory.
    pub fn canonical_hashes(&self) -> impl Iterator<Item = BlockHash> + '_ {
        (0..=self.height()).map(move |h| {
            self.hash_at(h)
                .expect("every height at or below the tip resolves")
        })
    }

    /// Convenience for sealing: assemble a child of the current tip.
    pub fn assemble_next(
        &self,
        timestamp_ms: u64,
        proposer: AccountId,
        difficulty_bits: u32,
        txs: Vec<Transaction>,
    ) -> Block {
        Block::assemble(
            self.height() + 1,
            self.tip,
            timestamp_ms,
            proposer,
            difficulty_bits,
            txs,
        )
    }

    /// State root of the tip (ZERO when the application does not use one).
    pub fn tip_state_root(&self) -> Hash256 {
        self.tip_header().state_root
    }
}

impl Drop for Chain {
    fn drop(&mut self) {
        // Best effort, mirroring `TxIndex`: a clean shutdown cuts the
        // staged tails and writes a current snapshot, so the next open
        // fast-starts with nothing to heal. Everything here is re-derived
        // from blocks after a hard crash, so failures are ignorable.
        if self.meta_tier.is_some() {
            let _ = self.sync_meta();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(author: &str, nonce: u64) -> Transaction {
        Transaction::new(
            AccountId::from_name(author),
            nonce,
            1000 + nonce,
            1,
            vec![nonce as u8],
        )
    }

    fn chain() -> Chain {
        Chain::new(ChainConfig::default())
    }

    fn seal(chain: &mut Chain, txs: Vec<Transaction>) -> BlockHash {
        let block = chain.assemble_next(
            chain.tip_header().timestamp_ms + 1000,
            AccountId::from_name("sealer"),
            0,
            txs,
        );
        chain.append(block).unwrap().hash
    }

    #[test]
    fn genesis_is_deterministic() {
        assert_eq!(chain().genesis(), chain().genesis());
        assert_eq!(chain().height(), 0);
    }

    #[test]
    fn linear_growth_and_lookup() {
        let mut c = chain();
        let t0 = tx("alice", 0);
        let id0 = t0.id();
        seal(&mut c, vec![t0, tx("bob", 0)]);
        seal(&mut c, vec![tx("alice", 1)]);
        assert_eq!(c.height(), 2);
        let view = c.reader().view();
        assert_eq!(
            view.get_tx(&id0).unwrap().author,
            AccountId::from_name("alice")
        );
        assert_eq!(view.txs_by_kind(1).len(), 3);
        assert_eq!(c.next_nonce_for(&AccountId::from_name("alice")), 2);
    }

    #[test]
    fn rejects_unknown_parent_and_bad_height() {
        let mut c = chain();
        let mut b = c.assemble_next(1, AccountId::from_name("s"), 0, vec![]);
        b.header.prev = BlockHash(blockprov_crypto::sha256::sha256(b"nope"));
        assert!(matches!(
            c.append(b),
            Err(ValidationError::UnknownParent(_))
        ));

        let mut b = c.assemble_next(1, AccountId::from_name("s"), 0, vec![]);
        b.header.height = 5;
        assert!(matches!(
            c.append(b),
            Err(ValidationError::BadHeight { .. })
        ));
    }

    #[test]
    fn rejects_bad_tx_root_and_duplicates() {
        let mut c = chain();
        let mut b = c.assemble_next(1, AccountId::from_name("s"), 0, vec![tx("a", 0)]);
        b.txs.push(tx("b", 0)); // root now stale
        assert_eq!(c.append(b), Err(ValidationError::BadTxRoot));

        let t = tx("a", 0);
        let b = c.assemble_next(1, AccountId::from_name("s"), 0, vec![t.clone(), t]);
        assert!(matches!(c.append(b), Err(ValidationError::DuplicateTx(_))));
    }

    #[test]
    fn rejects_duplicate_block() {
        let mut c = chain();
        let b = c.assemble_next(1000, AccountId::from_name("s"), 0, vec![]);
        c.append(b.clone()).unwrap();
        assert!(matches!(c.append(b), Err(ValidationError::Duplicate(_))));
    }

    #[test]
    fn timestamps_may_tie_but_not_regress_beyond_tolerance() {
        let mut c = Chain::new(ChainConfig {
            timestamp_tolerance_ms: 10,
            ..ChainConfig::default()
        });
        let b = Block::assemble(1, c.tip(), 50_000, AccountId::from_name("s"), 0, vec![]);
        c.append(b).unwrap();
        // Equal timestamp is allowed.
        let tie = Block::assemble(2, c.tip(), 50_000, AccountId::from_name("s"), 0, vec![]);
        c.append(tie).unwrap();
        // Regressing past the tolerance is rejected.
        let bad = Block::assemble(3, c.tip(), 10_000, AccountId::from_name("s"), 0, vec![]);
        assert!(matches!(
            c.append(bad),
            Err(ValidationError::BadTimestamp { .. })
        ));
    }

    #[test]
    fn signature_policy_required_rejects_unsigned() {
        let mut c = Chain::new(ChainConfig {
            signature_policy: SignaturePolicy::Required,
            ..ChainConfig::default()
        });
        let b = c.assemble_next(1, AccountId::from_name("s"), 0, vec![tx("a", 0)]);
        assert!(matches!(c.append(b), Err(ValidationError::BadSignature(_))));
    }

    #[test]
    fn nonce_enforcement_on_tip_extension() {
        let mut c = Chain::new(ChainConfig {
            enforce_nonces: true,
            ..ChainConfig::default()
        });
        let b = c.assemble_next(
            1,
            AccountId::from_name("s"),
            0,
            vec![tx("a", 0), tx("a", 1)],
        );
        c.append(b).unwrap();
        // Skipping nonce 2 fails.
        let b = c.assemble_next(2, AccountId::from_name("s"), 0, vec![tx("a", 3)]);
        assert!(matches!(c.append(b), Err(ValidationError::BadNonce { .. })));
        // Continuing works.
        let b = c.assemble_next(2, AccountId::from_name("s"), 0, vec![tx("a", 2)]);
        c.append(b).unwrap();
    }

    #[test]
    fn fork_choice_prefers_heavier_work() {
        let mut c = chain();
        let a1 = seal(&mut c, vec![tx("a", 0)]);
        assert_eq!(c.tip(), a1);

        // Competing branch from genesis with two (zero-difficulty) blocks:
        // work 2 beats work 1 ⇒ reorg.
        let b1 = Block::assemble(
            1,
            c.genesis(),
            500,
            AccountId::from_name("rival"),
            0,
            vec![tx("r", 0)],
        );
        let b1h = b1.hash();
        let out = c.append(b1).unwrap();
        assert!(!out.new_tip, "equal work keeps existing tip");
        let b2 = Block::assemble(
            2,
            b1h,
            600,
            AccountId::from_name("rival"),
            0,
            vec![tx("r", 1)],
        );
        let out = c.append(b2).unwrap();
        assert!(out.new_tip && out.reorged);
        assert_eq!(c.height(), 2);
        // Index now reflects the rival branch only.
        let view = c.reader().view();
        assert_eq!(view.txs_by_kind(1), vec![tx("r", 0).id(), tx("r", 1).id()]);
        assert_eq!(view.tx_by_id(&tx("a", 0).id()), None);
        assert!(c.is_canonical(&b1h));
        assert!(!c.is_canonical(&a1));
        assert!(c.index_consistent());
    }

    #[test]
    fn scan_canonical_visits_each_height_once_and_refuses_a_partial_store() {
        let mut c = chain();
        seal(&mut c, vec![tx("a", 0)]);
        // A losing sibling of height 1: stored, never canonical.
        let rival = Block::assemble(
            1,
            c.genesis(),
            500,
            AccountId::from_name("rival"),
            0,
            vec![tx("r", 0)],
        );
        assert!(!c.append(rival).unwrap().new_tip);
        for nonce in 1..4 {
            seal(&mut c, vec![tx("a", nonce)]);
        }
        let canonical: Vec<BlockHash> = c.canonical_hashes().collect();
        let mut seen = Vec::new();
        c.scan_canonical(&mut |b| seen.push(b.hash())).unwrap();
        assert_eq!(seen, canonical);

        // The canonical blocks again, in stores that lose a height or hold
        // one ahead of its parent.
        let blocks: Vec<Block> = canonical
            .iter()
            .map(|h| (*c.block(h).unwrap()).clone())
            .collect();
        for (order, missing) in [
            (vec![0, 1, 3, 4], 2),
            (vec![0, 2, 1, 3, 4], 1),
            (vec![0, 1, 2, 3], 4),
        ] {
            let mut store = MemStore::new();
            for i in order {
                store.put(blocks[i].clone()).unwrap();
            }
            c.store = Box::new(store);
            let err = c.scan_canonical(&mut |_| {}).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(
                err.to_string()
                    .contains(&format!("height {missing} is missing")),
                "{err}"
            );
        }
    }

    #[test]
    fn reorg_back_and_forth_keeps_indexes_incremental() {
        let mut c = chain();
        // Canonical: g → a1 → a2.
        let _a1 = seal(&mut c, vec![tx("a", 0)]);
        let a2 = seal(&mut c, vec![tx("a", 1)]);
        // Rival branch g → b1 → b2 → b3 wins.
        let mut parent = c.genesis();
        let mut last = parent;
        for i in 0..3 {
            let b = Block::assemble(
                i + 1,
                parent,
                700 + i,
                AccountId::from_name("rival"),
                0,
                vec![tx("r", i)],
            );
            last = b.hash();
            c.append(b).unwrap();
            parent = last;
        }
        assert_eq!(c.tip(), last);
        assert!(c.index_consistent());
        let ids = |author: &str, n: u64| (0..n).map(|i| tx(author, i).id()).collect::<Vec<_>>();
        let view = c.reader().view();
        assert_eq!(view.txs_by_kind(1), ids("r", 3));
        assert_eq!(view.tx_by_id(&tx("a", 1).id()), None);
        // Original branch strikes back: a3, a4 on top of a2.
        let a3 = Block::assemble(3, a2, 900, AccountId::from_name("s"), 0, vec![tx("a", 2)]);
        let a3h = a3.hash();
        c.append(a3).unwrap();
        let a4 = Block::assemble(4, a3h, 950, AccountId::from_name("s"), 0, vec![tx("a", 3)]);
        let out = c.append(a4).unwrap();
        assert!(out.reorged);
        assert_eq!(c.height(), 4);
        assert!(c.index_consistent());
        let view = c.reader().view();
        assert_eq!(view.txs_by_kind(1), ids("a", 4));
        assert_eq!(c.next_nonce_for(&AccountId::from_name("a")), 4);
        assert_eq!(c.next_nonce_for(&AccountId::from_name("r")), 0);
        assert_eq!(view.tx_by_id(&tx("r", 2).id()), None);
    }

    #[test]
    fn inclusion_proofs_round_trip() {
        let mut c = chain();
        let t = tx("alice", 0);
        let id = t.id();
        seal(&mut c, vec![tx("x", 0), t, tx("y", 0)]);
        let proof = c.prove_tx(&id).unwrap();
        assert!(proof.verify());
        assert!(c.is_canonical(&proof.block_hash));
        // Forged header breaks verification.
        let mut forged = proof.clone();
        forged.header.timestamp_ms += 1;
        assert!(!forged.verify());
    }

    #[test]
    fn integrity_walk_passes_on_honest_chain() {
        let mut c = chain();
        for i in 0..10 {
            seal(&mut c, vec![tx("w", i)]);
        }
        assert!(c.verify_integrity().is_ok());
    }

    #[test]
    fn pow_requirement_enforced() {
        let mut c = Chain::new(ChainConfig {
            require_pow: true,
            ..ChainConfig::default()
        });
        let b = c.assemble_next(1, AccountId::from_name("m"), 0, vec![]);
        assert_eq!(c.append(b), Err(ValidationError::BadProofOfWork));

        // Difficulty-1 block must actually meet the target.
        let mut b = c.assemble_next(1, AccountId::from_name("m"), 1, vec![]);
        while !b.header.meets_difficulty() {
            b.header.nonce += 1;
        }
        c.append(b).unwrap();
        assert!(c.verify_integrity().is_ok());
    }

    #[test]
    fn finality_advances_and_prunes_fork_metadata() {
        let mut c = Chain::new(ChainConfig {
            finality_depth: Some(2),
            ..ChainConfig::default()
        });
        // A fork block at height 1 that will fall below the checkpoint.
        let fork = Block::assemble(
            1,
            c.genesis(),
            100,
            AccountId::from_name("rival"),
            0,
            vec![tx("r", 0)],
        );
        let fork_hash = fork.hash();
        // Canonical chain outruns it.
        seal(&mut c, vec![tx("a", 0)]);
        c.append(fork).unwrap();
        assert!(c.meta.contains_key(&fork_hash));
        for i in 1..6 {
            seal(&mut c, vec![tx("a", i)]);
        }
        assert_eq!(c.height(), 6);
        assert_eq!(c.finalized_height(), 4);
        let cp = c.checkpoint().unwrap();
        assert_eq!(cp.height, 4);
        assert_eq!(cp.hash, c.canonical_hashes().nth(4).unwrap());
        // Stale fork metadata at height 1 is pruned; the block body may
        // remain in cold storage but fork choice no longer tracks it.
        assert!(!c.meta.contains_key(&fork_hash));
        // Undo records survive only for the non-finalized window.
        assert_eq!(c.undo.len() as u64, c.height() - c.finalized_height());
        assert!(c.index_consistent());
    }

    #[test]
    fn finality_rejects_blocks_below_checkpoint() {
        let mut c = Chain::new(ChainConfig {
            finality_depth: Some(1),
            ..ChainConfig::default()
        });
        for i in 0..4 {
            seal(&mut c, vec![tx("a", i)]);
        }
        assert_eq!(c.finalized_height(), 3);
        // A would-be fork off a finalized block is refused.
        let fork = Block::assemble(
            2,
            c.canonical_hashes().nth(1).unwrap(),
            100,
            AccountId::from_name("rival"),
            0,
            vec![],
        );
        assert!(matches!(
            c.append(fork),
            Err(ValidationError::BelowFinality { .. })
        ));
    }

    #[test]
    fn finality_cascade_prunes_orphaned_fork_descendants() {
        let mut c = Chain::new(ChainConfig {
            finality_depth: Some(2),
            ..ChainConfig::default()
        });
        // Fork of two blocks off genesis.
        let f1 = Block::assemble(
            1,
            c.genesis(),
            100,
            AccountId::from_name("rival"),
            0,
            vec![tx("r", 0)],
        );
        let f1h = f1.hash();
        let f2 = Block::assemble(
            2,
            f1h,
            150,
            AccountId::from_name("rival"),
            0,
            vec![tx("r", 1)],
        );
        let f2h = f2.hash();
        // Keep canonical level with the fork (ties keep the existing tip),
        // and append the fork before finality passes its heights.
        seal(&mut c, vec![tx("a", 0)]);
        seal(&mut c, vec![tx("a", 1)]);
        c.append(f1).unwrap();
        c.append(f2).unwrap();
        assert!(c.meta.contains_key(&f1h) && c.meta.contains_key(&f2h));
        seal(&mut c, vec![tx("a", 2)]);
        // Outrun the fork until height 1 finalizes; f2 (height 2, above the
        // checkpoint) must be cascade-pruned with its parent.
        for i in 3..6 {
            seal(&mut c, vec![tx("a", i)]);
        }
        assert!(c.finalized_height() >= 2);
        assert!(!c.meta.contains_key(&f1h), "fork block pruned at finality");
        assert!(!c.meta.contains_key(&f2h), "orphaned descendant pruned too");
        // Extending the pruned branch now fails with UnknownParent.
        let f3 = Block::assemble(3, f2h, 200, AccountId::from_name("rival"), 0, vec![]);
        assert!(matches!(
            c.append(f3),
            Err(ValidationError::UnknownParent(_))
        ));
        assert!(c.index_consistent());
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "blockprov-chain-meta-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_tiers(dir: &std::path::Path) -> (TxIndex, crate::meta::MetaStore) {
        let index = TxIndex::open(
            dir.join("txindex"),
            crate::index::TxIndexConfig {
                partitions: 2,
                page_entries: 4,
                cached_pages: 4,
            },
        )
        .unwrap();
        let meta = crate::meta::MetaStore::open(
            dir.join("meta"),
            crate::meta::MetaConfig {
                index_sync_interval: 8,
                ..Default::default()
            },
        )
        .unwrap();
        (index, meta)
    }

    fn durable_store(dir: &std::path::Path) -> Box<dyn BlockStore> {
        Box::new(
            crate::segment::TieredStore::open(
                dir.join("blocks"),
                crate::segment::TieredConfig {
                    segment_bytes: 4096,
                    hot_capacity: 8,
                },
            )
            .unwrap(),
        )
    }

    #[test]
    fn meta_tier_prunes_resident_metadata_and_serves_two_tier_lookups() {
        let dir = temp_dir("prune");
        let (index, meta) = small_tiers(&dir);
        let depth = 3u64;
        let mut c = Chain::with_tiers(
            Box::new(MemStore::new()),
            Some(index),
            meta,
            ChainConfig {
                finality_depth: Some(depth),
                ..ChainConfig::default()
            },
        );
        let mut hashes = vec![c.genesis()];
        for i in 0..30 {
            let author = ["alice", "bob"][(i % 2) as usize];
            hashes.push(seal(&mut c, vec![tx(author, i / 2)]));
        }
        assert_eq!(c.height(), 30);
        assert_eq!(c.finalized_height(), 27);
        // Resident per-block metadata is the suffix, not history.
        let resident = c.resident_metadata();
        assert_eq!(resident.canonical as u64, depth + 1);
        assert_eq!(resident.undo as u64, depth);
        assert!(
            resident.meta as u64 <= depth + 1,
            "fork-choice metadata kept for {} blocks, want the suffix",
            resident.meta
        );
        assert!(resident.next_nonce <= 2);
        // Finalized heights resolve through the durable height map…
        for (h, hash) in hashes.iter().enumerate() {
            assert_eq!(c.hash_at(h as u64), Some(*hash), "height {h}");
            assert!(c.is_canonical(hash), "height {h} canonical");
        }
        assert_eq!(c.hash_at(31), None);
        // …nonces merge the finalized floor with the mutable suffix…
        assert_eq!(c.next_nonce_for(&AccountId::from_name("alice")), 15);
        assert_eq!(c.next_nonce_for(&AccountId::from_name("bob")), 15);
        // …and the audit walks still pass over both tiers.
        assert!(c.index_consistent());
        c.verify_integrity().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fast_start_reproduces_tip_without_reabsorbing_history() {
        let dir = temp_dir("faststart");
        let depth = 4u64;
        let config = ChainConfig {
            finality_depth: Some(depth),
            ..ChainConfig::default()
        };
        let alice = AccountId::from_name("alice");
        let (tip, height, hashes) = {
            let (index, meta) = small_tiers(&dir);
            let mut c = Chain::with_tiers(durable_store(&dir), Some(index), meta, config.clone());
            let mut hashes = vec![c.genesis()];
            for i in 0..40 {
                hashes.push(seal(&mut c, vec![tx("alice", i)]));
            }
            c.sync_meta().unwrap();
            (c.tip(), c.height(), hashes)
        };

        let (index, meta) = small_tiers(&dir);
        let c = Chain::replay_with_tiers(durable_store(&dir), Some(index), meta, config).unwrap();
        assert_eq!(c.tip(), tip);
        assert_eq!(c.height(), height);
        // Only the non-finalized suffix was re-validated.
        assert!(
            c.appended_blocks() <= depth,
            "fast start re-absorbed {} blocks, want at most the {depth}-block suffix",
            c.appended_blocks()
        );
        for (h, hash) in hashes.iter().enumerate() {
            assert_eq!(c.hash_at(h as u64), Some(*hash), "height {h}");
        }
        assert_eq!(c.next_nonce_for(&alice), 40);
        assert!(c.index_consistent());
        c.verify_integrity().unwrap();
        // The suffix keeps extending normally after a fast start.
        let mut c = c;
        seal(&mut c, vec![tx("alice", 40)]);
        assert_eq!(c.height(), height + 1);
        assert!(c.index_consistent());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_reconstructs_chain_from_store_scan() {
        // Build a chain with a fork and a reorg over a MemStore, then replay
        // an identical history into a fresh chain and compare.
        let mut c = chain();
        let t0 = tx("alice", 0);
        let id0 = t0.id();
        seal(&mut c, vec![t0]);
        let b1 = Block::assemble(
            1,
            c.genesis(),
            500,
            AccountId::from_name("rival"),
            0,
            vec![tx("r", 0)],
        );
        let b1h = b1.hash();
        c.append(b1).unwrap();
        let b2 = Block::assemble(
            2,
            b1h,
            600,
            AccountId::from_name("rival"),
            0,
            vec![tx("r", 1)],
        );
        c.append(b2).unwrap();

        // Replay from a store holding the same blocks.
        let mut store = MemStore::new();
        let mut blocks = Vec::new();
        c.store.scan(&mut |b| blocks.push(b)).unwrap();
        for b in &blocks {
            store.put((**b).clone()).unwrap();
        }
        let dir = temp_dir("replay-scan");
        let meta = crate::meta::MetaStore::open(dir.join("meta"), Default::default()).unwrap();
        let mut replayed =
            Chain::replay_with_tiers(Box::new(store), None, meta, ChainConfig::default()).unwrap();
        assert_eq!(replayed.tip(), c.tip());
        assert_eq!(replayed.height(), c.height());
        assert_eq!(
            replayed.canonical_hashes().collect::<Vec<_>>(),
            c.canonical_hashes().collect::<Vec<_>>()
        );
        assert!(replayed.index_consistent());
        let view = replayed.reader().view();
        assert_eq!(view.get_tx(&id0), None, "losing-branch tx not canonical");
        assert_eq!(view.txs_by_kind(1), vec![tx("r", 0).id(), tx("r", 1).id()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_replay_stores_genesis_once() {
        let dir = temp_dir("genesis-once");
        let (tip, stored) = {
            let mut c = Chain::with_store(durable_store(&dir), ChainConfig::default());
            for i in 0..60 {
                seal(&mut c, vec![tx("alice", i)]);
            }
            (c.tip(), c.stored_blocks())
        };
        // No snapshot, so a full replay, over a store whose genesis sits in
        // a sealed segment the open has not indexed.
        let meta = crate::meta::MetaStore::open(dir.join("meta"), Default::default()).unwrap();
        let c = Chain::replay_with_tiers(durable_store(&dir), None, meta, ChainConfig::default())
            .unwrap();
        assert_eq!(c.tip(), tip);
        assert_eq!(c.stored_blocks(), stored);
        c.scan_canonical(&mut |_| {}).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_tracks_commits_and_matches_writer_queries() {
        let dir = temp_dir("reader");
        let (index, meta) = small_tiers(&dir);
        let mut c = Chain::with_tiers(
            Box::new(MemStore::new()),
            Some(index),
            meta,
            ChainConfig {
                finality_depth: Some(3),
                ..ChainConfig::default()
            },
        );
        let reader = c.reader();
        assert_eq!(reader.view().tip(), c.genesis());
        // One id sealed three times: by the end its first occurrence sits in
        // a durable page, its second in the staged tail, its third in the
        // suffix, and the latest canonical occurrence must win.
        let dup = tx("dup", 0);
        let dup_heights = [7, 26, 29];
        let mut hashes = vec![c.genesis()];
        // Oracle from the sealed txs: latest location per id, and every
        // kind-1 occurrence in canonical order.
        let mut loc: HashMap<TxId, (BlockHash, u32)> = HashMap::new();
        let mut by_kind: Vec<TxId> = Vec::new();
        // A view pinned at every commit, with the writer's proof of the
        // duplicate at that commit.
        let mut pinned = Vec::new();
        for i in 0..30 {
            let author = ["alice", "bob"][(i % 2) as usize];
            let mut txs = vec![tx(author, i / 2)];
            if dup_heights.contains(&(i + 1)) {
                txs.push(dup.clone());
            }
            let ids: Vec<TxId> = txs.iter().map(Transaction::id).collect();
            let hash = seal(&mut c, txs);
            hashes.push(hash);
            for (pos, id) in ids.into_iter().enumerate() {
                loc.insert(id, (hash, pos as u32));
                by_kind.push(id);
            }
            pinned.push((reader.view(), c.prove_tx(&dup.id())));
        }
        let ix = c.tx_index().unwrap();
        let p = crate::index::route_hash(dup.id().0.as_bytes()) % u64::from(ix.partition_count());
        let paged = ix.partition_watermarks()[p as usize];
        assert!(dup_heights[0] <= paged && paged < dup_heights[1]);
        assert!(dup_heights[1] <= c.finalized_height() && c.finalized_height() < dup_heights[2]);
        // Every commit re-published: the reader's view matches the writer
        // across both tiers.
        let view = reader.view();
        assert_eq!(view.tip(), c.tip());
        assert_eq!(view.height(), 30);
        assert_eq!(view.finalized_height(), 27);
        for (h, hash) in hashes.iter().enumerate() {
            assert_eq!(view.hash_at(h as u64), Some(*hash), "height {h}");
            assert!(view.is_canonical(hash), "height {h} canonical");
            assert_eq!(view.block_at(h as u64).unwrap().hash(), *hash);
        }
        assert_eq!(view.hash_at(31), None);
        assert_eq!(view.txs_by_kind(1), by_kind);
        for (id, at) in &loc {
            assert_eq!(view.tx_by_id(id), Some(*at));
            let proof = c.prove_tx(id).expect("proof through writer");
            assert!(proof.verify());
            assert_eq!(proof.block_hash, at.0);
            assert_eq!(view.prove_tx(id), Some(proof));
        }
        // Alice's third transaction, finalized deep in the durable tier.
        let some_id = tx("alice", 2).id();
        assert_eq!(view.txs_by_kind(1)[4], some_id);
        assert_eq!(view.tx_by_id(&some_id).unwrap().0, hashes[5]);
        assert_eq!(view.tx_by_id(&dup.id()).unwrap().0, hashes[29]);
        // A pinned view still answers what the writer answered at its
        // commit, though the durable tiers have since moved past it.
        for (h, (view, proof)) in pinned.iter().enumerate() {
            assert_eq!(view.prove_tx(&dup.id()), *proof, "view at height {}", h + 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_view_is_immune_to_later_commits() {
        let mut c = chain();
        let a = seal(&mut c, vec![tx("a", 0)]);
        let reader = c.reader();
        let view = reader.view();
        assert_eq!(view.tip(), a);
        // A reorg moves the writer's tip; the pinned view keeps answering
        // from the captured commit point, a cloned handle sees the new one.
        let f1 = Block::assemble(
            1,
            c.genesis(),
            500,
            AccountId::from_name("r"),
            0,
            vec![tx("r", 0)],
        );
        let f1h = f1.hash();
        c.append(f1).unwrap();
        let f2 = Block::assemble(2, f1h, 600, AccountId::from_name("r"), 0, vec![tx("r", 1)]);
        let f2h = f2.hash();
        assert!(c.append(f2).unwrap().reorged);
        assert_eq!(view.tip(), a, "pinned view holds the old commit");
        assert_eq!(view.hash_at(1), Some(a));
        assert_eq!(reader.view().tip(), f2h, "fresh view sees the reorg");
        assert_eq!(reader.view().hash_at(1), Some(f1h));

        // Census: dropping the last handle stops publishing, attaching a
        // new one force-refreshes.
        let counted = reader.clone();
        drop(reader);
        drop(counted);
        seal(&mut c, vec![tx("a", 1)]);
        let reattached = c.reader();
        assert_eq!(reattached.view().tip(), c.tip());
    }
}
