//! The system under test, as the harness calls it in-process.
//!
//! Every call into a repo crate is in this file and nowhere else, so a
//! change to the crates' API (collapsing the `Chain` constructors, say)
//! needs a paired change here of a few lines and no change to the
//! workloads, the oracle or the metric definitions.
//!
//! Three groups: building the block stream, the in-process ledger opened
//! exactly as `blockprov-node` opens its own ([`DirectLedger`]), and the
//! single timed calls of the ingest ladder and the read path.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use blockprov_core::{txkind, LedgerConfig, LedgerReader, ProvenanceLedger};
use blockprov_crypto::sha256::{sha256, Hash256};
use blockprov_ledger::{
    AccountId, Block, BlockHash, BlockHeader, BlockStore, Chain, ChainConfig, ChainReader,
    MetaConfig, MetaStore, PrevalidatedBlock, TieredConfig, TieredStore, Transaction, TxId,
    TxIndex, TxIndexConfig,
};
use blockprov_provenance::{Action, Domain, ProvGraph, ProvenanceRecord, QueryEngine};
use blockprov_wire::{decode_seq, encode_seq, Codec, Reader, Writer};

/// A 32-byte digest: block hash or transaction id.
pub type Hash = [u8; 32];

/// A decoded block, opaque to the rest of the harness.
pub type SutBlock = Block;
/// A transaction under construction, opaque to the rest of the harness.
pub type SutTx = Transaction;

/// The settings `blockprov-node` runs its ledger with when started with
/// default flags (`NodeConfig::default`): the in-process workload and the
/// ladder use the same, so direct and HTTP numbers describe one system.
pub const HOT_CAPACITY: usize = 1024;
pub const FINALITY_DEPTH: u64 = 16;
pub const INGEST_THREADS: usize = 4;

/// What the repo flushes and when, for the manifest: every tier is flushed
/// once per ingested batch (group commit); nothing is fsynced.
pub const DURABILITY: &str = "flush per group commit, no fsync";

pub fn hex(h: &Hash) -> String {
    Hash256(*h).to_hex()
}

pub fn sha256_hex(data: &[u8]) -> String {
    sha256(data).to_hex()
}

// ---------------------------------------------------------------- stream

/// Hash and timestamp of the deterministic genesis block every chain
/// starts from; the stream is chained onto it.
pub fn genesis() -> (Hash, u64) {
    let g = Chain::genesis_block();
    (g.hash().0 .0, g.header.timestamp_ms)
}

/// The four survey scenarios the stream rotates through: acting agent,
/// artifact-name prefix, domain tag.
pub const SCENARIOS: [(&str, &str); 4] = [
    ("supply-manufacturer", "pallet"),
    ("forensics-investigator", "evidence"),
    ("mlprov-trainer", "model"),
    ("sciwork-engine", "dataset"),
];
const SCENARIO_DOMAINS: [Domain; 4] = [
    Domain::SupplyChain,
    Domain::DigitalForensics,
    Domain::MachineLearning,
    Domain::ScientificCollaboration,
];

/// Actions the stream rotates through (all parent-free, so absorbing a
/// record into the provenance graph cannot fail).
pub const ACTION_COUNT: usize = 6;
fn action(i: usize) -> Action {
    match i % ACTION_COUNT {
        0 => Action::Create,
        1 => Action::Update,
        2 => Action::Read,
        3 => Action::Share,
        4 => Action::Transfer,
        _ => Action::Execute,
    }
}

/// The acting account of each scenario, derived once per stream.
pub struct Agents([AccountId; 4]);

impl Agents {
    pub fn new(salt: u64) -> Self {
        Self(std::array::from_fn(|s| {
            AccountId::from_name(&format!("{}-{salt:x}", SCENARIOS[s].0))
        }))
    }
}

/// One provenance transaction: a real `ProvenanceRecord`, wire-encoded as
/// the payload of a `txkind::PROVENANCE` transaction. Returns the
/// transaction and its id.
pub fn provenance_tx(
    agents: &Agents,
    scenario: usize,
    subject: &str,
    action_idx: usize,
    nonce: u64,
    timestamp_ms: u64,
) -> (SutTx, Hash) {
    let agent = agents.0[scenario];
    let record = ProvenanceRecord::new(
        subject,
        agent,
        action(action_idx),
        timestamp_ms,
        SCENARIO_DOMAINS[scenario],
    );
    let tx = Transaction::new(
        agent,
        nonce,
        timestamp_ms,
        txkind::PROVENANCE,
        record.to_wire(),
    );
    let id = tx.id().0 .0;
    (tx, id)
}

/// Assemble the block at `height` over `txs` (whose ids are `ids`, so they
/// are not derived twice). Returns the block and its hash.
pub fn assemble_block(
    height: u64,
    prev: Hash,
    timestamp_ms: u64,
    txs: Vec<SutTx>,
    ids: &[Hash],
) -> (SutBlock, Hash) {
    let ids: Vec<TxId> = ids.iter().map(|h| TxId(Hash256(*h))).collect();
    let block = Block {
        header: BlockHeader {
            version: Block::VERSION,
            height,
            prev: BlockHash(Hash256(prev)),
            tx_root: Block::tx_root_from_ids(&ids),
            state_root: Hash256::ZERO,
            timestamp_ms,
            difficulty_bits: 0,
            nonce: 0,
            proposer: AccountId::from_name("bench-sealer"),
        },
        txs,
    };
    let hash = block.hash().0 .0;
    (block, hash)
}

/// The body of one `POST /blocks`.
pub fn encode_batch(blocks: &[SutBlock]) -> Vec<u8> {
    let mut w = Writer::new();
    encode_seq(blocks, &mut w);
    w.into_bytes()
}

/// What the node's ingest handler does to a body before queueing it.
pub fn decode_batch(body: &[u8]) -> Result<Vec<SutBlock>, String> {
    let mut r = Reader::new(body);
    match decode_seq::<Block>(&mut r) {
        Ok(blocks) if r.remaining() == 0 && !blocks.is_empty() => Ok(blocks),
        Ok(_) => Err("empty batch or trailing bytes".into()),
        Err(e) => Err(format!("undecodable batch: {e:?}")),
    }
}

// ---------------------------------------------------- in-process ledger

fn ledger_config(ingest_threads: usize) -> LedgerConfig {
    LedgerConfig::private_default()
        .with_finality(FINALITY_DEPTH)
        .with_ingest_threads(ingest_threads)
}

/// The chain-level parameters `ProvenanceLedger` derives from
/// [`ledger_config`] (its own derivation is private), for the ladder rungs
/// that drive `Chain` without the provenance layer.
fn chain_config(ingest_threads: usize) -> ChainConfig {
    let lc = ledger_config(ingest_threads);
    ChainConfig {
        signature_policy: lc.signature_policy,
        require_pow: false,
        max_block_txs: lc.max_block_txs,
        timestamp_tolerance_ms: 5_000,
        enforce_nonces: false,
        finality_depth: lc.finality_depth,
        ingest_threads: lc.ingest_threads,
    }
}

struct Tiers {
    store: TieredStore,
    index: TxIndex,
    meta: MetaStore,
}

/// Open the three durable tiers under `dir` with the node's layout and
/// settings (`blocks/`, `index/`, `meta/`).
fn open_tiers(dir: &Path) -> io::Result<Tiers> {
    Ok(Tiers {
        store: TieredStore::open(
            dir.join("blocks"),
            TieredConfig {
                hot_capacity: HOT_CAPACITY,
                ..TieredConfig::default()
            },
        )?,
        index: TxIndex::open(dir.join("index"), TxIndexConfig::default())?,
        meta: MetaStore::open(dir.join("meta"), MetaConfig::default())?,
    })
}

/// A `ProvenanceLedger` over durable tiers with a live reader attached:
/// what `Node::start` builds, minus the socket, queue and writer thread.
pub struct DirectLedger {
    ledger: ProvenanceLedger,
    reader: LedgerReader,
}

impl DirectLedger {
    /// Open (or reopen, replaying what `dir` holds).
    pub fn open(dir: &Path) -> io::Result<Self> {
        let t = open_tiers(dir)?;
        let mut ledger = ProvenanceLedger::open_with_tiers(
            ledger_config(INGEST_THREADS),
            Box::new(t.store),
            t.index,
            t.meta,
        )?;
        let reader = ledger.reader();
        Ok(Self { ledger, reader })
    }

    /// One batch through `ProvenanceLedger::ingest_blocks`; returns the
    /// number of blocks committed.
    pub fn ingest(&mut self, blocks: Vec<SutBlock>) -> Result<usize, String> {
        self.ledger
            .ingest_blocks(blocks)
            .map(|outcomes| outcomes.len())
            .map_err(|e| e.to_string())
    }

    /// Clean-shutdown sync (what the node does on SIGTERM).
    pub fn sync(&mut self) -> io::Result<()> {
        self.ledger.sync()
    }

    pub fn reader(&self) -> DirectReader {
        DirectReader(self.reader.clone())
    }
}

/// The read side of [`DirectLedger`]: each call pins one snapshot and does
/// what the matching node handler does before it serializes a reply.
#[derive(Clone)]
pub struct DirectReader(LedgerReader);

impl DirectReader {
    /// Pin a snapshot and drop it.
    pub fn view(&self) {
        std::hint::black_box(self.0.view());
    }

    /// `GET /tip`: height and hash.
    pub fn tip(&self) -> (u64, Hash) {
        let view = self.0.view();
        (view.height(), view.tip().0 .0)
    }

    /// `GET /tx/{id}`: containing block height and position.
    pub fn tx(&self, id: &Hash) -> Option<(u64, u32)> {
        let view = self.0.view();
        let (block, pos) = view.find_tx(&TxId(Hash256(*id)))?;
        std::hint::black_box(&block.txs[pos as usize]);
        Some((block.header.height, pos))
    }

    /// `GET /block/{height}`: the canonical block's hash.
    pub fn block(&self, height: u64) -> Option<Hash> {
        let view = self.0.view();
        view.block_at(height).map(|b| b.hash().0 .0)
    }

    /// `GET /prove/{tx}`: whether the proof verifies, and its leaf index.
    pub fn prove(&self, id: &Hash) -> Option<(bool, u64)> {
        let view = self.0.view();
        let proof = view.prove_tx(&TxId(Hash256(*id)))?;
        Some((proof.verify(), proof.proof.leaf_index))
    }

    /// `GET /provenance/{artifact}`: the handler's own loop — every
    /// provenance transaction id, a point lookup of each, a record decode
    /// of each — returning how many records name `artifact`.
    pub fn audit(&self, artifact: &str) -> usize {
        let view = self.0.view();
        let mut count = 0;
        for id in view.txs_by_kind(txkind::PROVENANCE) {
            let Some(tx) = view.get_tx(&id) else { continue };
            let mut r = Reader::new(&tx.payload);
            let Ok(record) = ProvenanceRecord::decode(&mut r) else {
                continue;
            };
            if record.subject == artifact {
                count += 1;
            }
        }
        count
    }
}

// ------------------------------------------------------- timed layer calls

/// `Chain::replay_with_tiers` alone over `dir` — the O(window) part of a
/// restart, without the provenance rehydration `ProvenanceLedger` adds.
pub fn time_chain_replay(dir: &Path) -> io::Result<Duration> {
    let t0 = Instant::now();
    let t = open_tiers(dir)?;
    let chain = Chain::replay_with_tiers(
        Box::new(t.store),
        Some(t.index),
        t.meta,
        chain_config(INGEST_THREADS),
    )?;
    let elapsed = t0.elapsed();
    drop(chain);
    Ok(elapsed)
}

/// SHA-256 over `data`, `rounds` times.
pub fn time_sha256(data: &[u8], rounds: usize) -> Duration {
    let t0 = Instant::now();
    for _ in 0..rounds {
        std::hint::black_box(sha256(std::hint::black_box(data)));
    }
    t0.elapsed()
}

/// `Block::tx_root` of every block (tx-id derivation plus Merkle root).
pub fn time_tx_root(blocks: &[SutBlock]) -> Duration {
    let t0 = Instant::now();
    for b in blocks {
        std::hint::black_box(Block::tx_root(&b.txs));
    }
    t0.elapsed()
}

/// `PrevalidatedBlock::compute` of every block (the stateless stage).
pub fn time_prevalidate(blocks: Vec<SutBlock>) -> Duration {
    let config = chain_config(1);
    let t0 = Instant::now();
    for b in blocks {
        std::hint::black_box(PrevalidatedBlock::compute(b, &config));
    }
    t0.elapsed()
}

/// Record decode + `ProvGraph::insert` + `QueryEngine::index_record` of
/// every transaction: the provenance layer's share of absorbing a block.
pub fn time_graph_insert(blocks: &[SutBlock]) -> Duration {
    let mut graph = ProvGraph::new();
    let mut engine = QueryEngine::new();
    let t0 = Instant::now();
    for b in blocks {
        for tx in &b.txs {
            let mut r = Reader::new(&tx.payload);
            let record = ProvenanceRecord::decode(&mut r).expect("stream payloads are records");
            let id = record.id();
            if graph.insert(record.clone()).is_ok() {
                engine.index_record(id, &record);
            }
        }
    }
    let elapsed = t0.elapsed();
    std::hint::black_box((graph.len(), &engine));
    elapsed
}

/// Which tiers a ladder rung's `Chain` runs over; each adds one to the
/// previous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainRung {
    /// `Chain::new`: in-memory store.
    Mem,
    /// `Chain::with_store(TieredStore)`: + segment log.
    Segment,
    /// `Chain::with_store_and_index`: + durable tx index.
    Index,
    /// `Chain::with_tiers`: + metadata tier.
    Meta,
}

/// A ladder rung's system: a bare `Chain` over some tiers, or the full
/// `ProvenanceLedger`, each with the reader handle that keeps snapshot
/// publishing on (or `None`). `append` is the one timed call.
pub enum RungSut {
    Chain(Box<Chain>, #[allow(dead_code)] Option<ChainReader>),
    Ledger(
        Box<ProvenanceLedger>,
        #[allow(dead_code)] Option<LedgerReader>,
    ),
}

impl RungSut {
    /// A fresh chain for `rung` under `dir`, optionally with a live reader
    /// attached (which makes every commit publish a snapshot).
    pub fn chain(
        rung: ChainRung,
        dir: &Path,
        ingest_threads: usize,
        reader: bool,
    ) -> io::Result<Self> {
        let config = chain_config(ingest_threads);
        let mut chain = match rung {
            ChainRung::Mem => Chain::new(config),
            ChainRung::Segment => {
                let store: Box<dyn BlockStore> = Box::new(open_tiers(dir)?.store);
                Chain::with_store(store, config)
            }
            ChainRung::Index => {
                let t = open_tiers(dir)?;
                Chain::with_store_and_index(Box::new(t.store), t.index, config)
            }
            ChainRung::Meta => {
                let t = open_tiers(dir)?;
                Chain::with_tiers(Box::new(t.store), Some(t.index), t.meta, config)
            }
        };
        let handle = reader.then(|| chain.reader());
        Ok(RungSut::Chain(Box::new(chain), handle))
    }

    /// A fresh full ledger under `dir` (all tiers), with or without a
    /// live reader.
    pub fn ledger(dir: &Path, reader: bool) -> io::Result<Self> {
        let t = open_tiers(dir)?;
        let mut ledger = ProvenanceLedger::open_with_tiers(
            ledger_config(INGEST_THREADS),
            Box::new(t.store),
            t.index,
            t.meta,
        )?;
        let handle = reader.then(|| ledger.reader());
        Ok(RungSut::Ledger(Box::new(ledger), handle))
    }

    /// `Chain::append_batch` or `ProvenanceLedger::ingest_blocks`.
    pub fn append(&mut self, blocks: Vec<SutBlock>) -> Result<usize, String> {
        match self {
            RungSut::Chain(chain, _) => chain
                .append_batch(blocks)
                .map(|o| o.len())
                .map_err(|e| format!("{e:?}")),
            RungSut::Ledger(ledger, _) => ledger
                .ingest_blocks(blocks)
                .map(|o| o.len())
                .map_err(|e| e.to_string()),
        }
    }

    /// The clean-shutdown sync, timed by the caller.
    pub fn sync(&mut self) -> io::Result<()> {
        match self {
            RungSut::Chain(chain, _) => chain.sync_meta(),
            RungSut::Ledger(ledger, _) => ledger.sync(),
        }
    }
}
