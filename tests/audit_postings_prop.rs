//! Property: `LedgerReader::provenance_of(subject)` — the audit served from
//! subject postings — equals the scan it replaced (`txs_by_kind(PROVENANCE)`,
//! `get_tx`, record decode, subject filter) evaluated on the *same* returned
//! view, ids and order included, for every subject and for an unknown one.
//!
//! The streams are built to break a postings index that trusted itself:
//! mixed transaction kinds (a non-provenance transaction may carry a valid
//! record), undecodable provenance payloads, records followed by raw content,
//! the same record in two transactions, fork blocks that reuse their
//! sibling's transactions, stale forks revived later, reorgs inside the
//! finality window, restarts mid-stream, and reader threads auditing while
//! the writer ingests.
//!
//! The node serves the same audit from a `ProvenanceLog` (chain and postings,
//! no graph); one case drives the forking, restarting stream through a log
//! beside the ledger and requires the two to answer identically.

use blockprov::core::{
    decode_record_prefix, txkind, CoreError, LedgerConfig, LedgerReader, ProvenanceLedger,
};
use blockprov::ledger::{
    AccountId, Block, BlockHash, Chain, ChainView, MetaConfig, MetaStore, TieredConfig,
    TieredStore, Transaction, TxId, TxIndex, TxIndexConfig,
};
use blockprov::provenance::{Action, Domain, ProvenanceLog, ProvenanceRecord, RecordId};
use blockprov::wire::Codec;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const FINALITY: u64 = 4;
const SUBJECTS: usize = 7;
const UNKNOWN: &str = "no-such-artifact";

/// Deterministic xorshift PRNG: the op sequence reproduces from the seed,
/// and the interesting nondeterminism is thread scheduling.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn subject(i: u64) -> String {
    format!("artifact-{i}")
}

fn every_subject() -> Vec<String> {
    (0..SUBJECTS as u64)
        .map(subject)
        .chain([UNKNOWN.to_string()])
        .collect()
}

/// The audit the node used to run per request, kept here as the reference.
fn scan(view: &ChainView, subject: &str) -> Vec<(TxId, ProvenanceRecord)> {
    view.txs_by_kind(txkind::PROVENANCE)
        .into_iter()
        .filter_map(|id| {
            let record = decode_record_prefix(&view.get_tx(&id)?.payload)?;
            (record.subject == subject).then_some((id, record))
        })
        .collect()
}

/// Audit every subject and compare each answer with the scan of the view
/// that answer came with. Returns `(candidates, matches)` summed.
fn audits_agree(reader: &LedgerReader) -> (usize, usize) {
    let (mut candidates, mut matches) = (0, 0);
    for subject in every_subject() {
        let audit = reader.provenance_of(&subject);
        assert_eq!(
            audit.records,
            scan(&audit.view, &subject),
            "{subject} at height {} (finalized {})",
            audit.view.height(),
            audit.view.finalized_height()
        );
        assert!(audit.candidates >= audit.records.len());
        candidates += audit.candidates;
        matches += audit.records.len();
    }
    assert!(reader.provenance_of(UNKNOWN).records.is_empty());
    (candidates, matches)
}

/// Transaction and block generator. Every transaction is unique (one
/// global nonce), so only a fork block's deliberate reuse puts a
/// transaction in two blocks.
struct Stream {
    rng: Rng,
    nonce: u64,
    issued: Vec<ProvenanceRecord>,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Self {
            rng: Rng(seed | 1),
            nonce: 0,
            issued: Vec::new(),
        }
    }

    fn record(&mut self) -> ProvenanceRecord {
        let n = self.nonce;
        let record = ProvenanceRecord::new(
            &subject(self.rng.below(SUBJECTS as u64)),
            AccountId::from_name("auditor"),
            [Action::Create, Action::Update, Action::Read][(n % 3) as usize].clone(),
            1_000 + n,
            Domain::Generic,
        );
        self.issued.push(record.clone());
        record
    }

    fn tx(&mut self) -> Transaction {
        let (kind, payload) = match self.rng.below(10) {
            // A plain record.
            0..=4 => (txkind::PROVENANCE, self.record().to_wire()),
            // A record followed by raw content (the OnChainFull shape).
            5 => {
                let mut bytes = self.record().to_wire();
                bytes.extend_from_slice(b"raw content after the record");
                (txkind::PROVENANCE, bytes)
            }
            // The same record again, in a new transaction.
            6 if !self.issued.is_empty() => {
                let again = self.rng.below(self.issued.len() as u64) as usize;
                (txkind::PROVENANCE, self.issued[again].to_wire())
            }
            // A provenance transaction nothing can decode.
            7 => (txkind::PROVENANCE, vec![0xFF; 9]),
            // A decodable record under another kind: not provenance.
            8 => (txkind::DOMAIN, self.record().to_wire()),
            _ => (txkind::CONTRACT_CALL, vec![1, 2, 3]),
        };
        self.nonce += 1;
        let author = AccountId::from_name("auditor");
        Transaction::new(author, self.nonce, 1_000 + self.nonce, kind, payload)
    }

    /// One block on `prev`; `reuse` transactions (a sibling's) go in first.
    fn block(&mut self, prev: BlockHash, height: u64, reuse: &[Transaction]) -> Block {
        let mut txs = reuse.to_vec();
        for _ in 0..1 + self.rng.below(4) {
            txs.push(self.tx());
        }
        // Distinct timestamps keep siblings with equal bodies distinct.
        let ts = 10_000 + self.nonce;
        Block::assemble(height, prev, ts, AccountId::from_name("sealer"), 0, txs)
    }

    /// `len` chained blocks on `(prev, height)`. With `canonical` given,
    /// each block may reuse transactions of the canonical block it rivals.
    fn branch(
        &mut self,
        mut prev: BlockHash,
        height: u64,
        len: u64,
        canonical: Option<&Chain>,
    ) -> Vec<Block> {
        (1..=len)
            .map(|i| {
                let rival = canonical.and_then(|c| c.block_at(height + i));
                let reuse: Vec<Transaction> = match rival {
                    Some(rival) if self.rng.below(2) == 0 => {
                        let keep = self.rng.below(rival.txs.len() as u64 + 1) as usize;
                        rival.txs[rival.txs.len() - keep..].to_vec()
                    }
                    _ => Vec::new(),
                };
                let block = self.block(prev, height + i, &reuse);
                prev = block.hash();
                block
            })
            .collect()
    }
}

/// Ingest `blocks` as one batch or block by block. A chain refusal is part
/// of the stream (a revived fork may have been pruned); a provenance-layer
/// error is not.
fn ingest(ledger: &mut ProvenanceLedger, blocks: Vec<Block>, one_batch: bool) {
    let batches: Vec<Vec<Block>> = if one_batch {
        vec![blocks]
    } else {
        blocks.into_iter().map(|b| vec![b]).collect()
    };
    for batch in batches {
        match ledger.ingest_blocks(batch) {
            Ok(_) | Err(CoreError::Batch(_)) => {}
            Err(e) => panic!("provenance layer refused a committed block: {e}"),
        }
    }
}

/// One random step on `chain`: extend the tip, fork inside the finality
/// window (sometimes far enough to reorg), or revive a stale fork tip.
/// Returns the blocks and whether to ingest them as one batch, or `None`
/// when there is nothing to revive.
fn next_blocks(
    chain: &Chain,
    stream: &mut Stream,
    stale: &mut Vec<(BlockHash, u64)>,
    forks: bool,
) -> Option<(Vec<Block>, bool)> {
    let (tip, height, floor) = (chain.tip(), chain.height(), chain.finalized_height());
    let one_batch = stream.rng.below(2) == 0;
    let blocks = match stream.rng.below(if forks { 10 } else { 1 }) {
        0..=5 => {
            let len = 1 + stream.rng.below(3);
            stream.branch(tip, height, len, None)
        }
        6..=8 if height > floor => {
            // Fork off a canonical block `depth` below the tip; a branch of
            // `depth + 1` blocks outgrows the canonical one and reorgs.
            let depth = 1 + stream.rng.below((height - floor).min(3));
            let parent_height = height - depth;
            let parent = chain.hash_at(parent_height).expect("canonical hash");
            let len = 1 + stream.rng.below(depth + 1);
            let blocks = stream.branch(parent, parent_height, len, Some(chain));
            let last = blocks.last().expect("len >= 1");
            stale.push((last.hash(), last.header.height));
            blocks
        }
        _ => {
            // Revive a fork tip stored earlier (maybe before a restart):
            // long enough to win if it is still there.
            let (hash, at) = stale.pop()?;
            if at <= floor || chain.is_canonical(&hash) {
                return None;
            }
            let len = height.saturating_sub(at) + 1;
            stream.branch(hash, at, len, None)
        }
    };
    Some((blocks, one_batch))
}

/// One random step ([`next_blocks`]) through the ledger.
fn step(
    ledger: &mut ProvenanceLedger,
    stream: &mut Stream,
    stale: &mut Vec<(BlockHash, u64)>,
    forks: bool,
) {
    if let Some((blocks, one_batch)) = next_blocks(ledger.chain(), stream, stale, forks) {
        ingest(ledger, blocks, one_batch);
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "blockprov-audit-postings-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The three durable tiers under `dir`, sized small enough that a short
/// stream spills out of the hot tier and across segments and index pages.
fn open_tiers(dir: &Path) -> (TieredStore, TxIndex, MetaStore) {
    let store = TieredStore::open(
        dir.join("blocks"),
        TieredConfig {
            segment_bytes: 4096,
            hot_capacity: 8,
        },
    )
    .expect("open store");
    let index = TxIndex::open(
        dir.join("index"),
        TxIndexConfig {
            partitions: 2,
            page_entries: 8,
            cached_pages: 4,
        },
    )
    .expect("open index");
    let meta = MetaStore::open(
        dir.join("meta"),
        MetaConfig {
            snapshot_interval: 2,
            ..MetaConfig::default()
        },
    )
    .expect("open meta");
    (store, index, meta)
}

fn config() -> LedgerConfig {
    LedgerConfig::private_default().with_finality(FINALITY)
}

/// A ledger over [`open_tiers`].
fn open_tiered(dir: &Path) -> ProvenanceLedger {
    let (store, index, meta) = open_tiers(dir);
    ProvenanceLedger::open_with_tiers(config(), Box::new(store), index, meta).expect("open ledger")
}

/// A log over [`open_tiers`], on the chain settings of [`open_tiered`].
fn open_tiered_log(dir: &Path) -> ProvenanceLog {
    let (store, index, meta) = open_tiers(dir);
    let chain =
        Chain::replay_with_tiers(Box::new(store), Some(index), meta, config().chain_config())
            .expect("replay chain");
    ProvenanceLog::new(chain).expect("open log")
}

#[test]
fn fork_free_audits_touch_only_the_records_of_the_artifact() {
    let mut ledger = ProvenanceLedger::open(LedgerConfig::private_default());
    let reader = ledger.reader();
    let mut stream = Stream::new(11);
    let mut stale = Vec::new();
    for _ in 0..60 {
        step(&mut ledger, &mut stream, &mut stale, false);
    }
    // No fork ever stored: every candidate is a match, exactly.
    let (candidates, matches) = audits_agree(&reader);
    assert_eq!(candidates, matches);
    assert!(matches > 60, "the stream must name its subjects often");
    // Postings hold one entry per decodable provenance transaction.
    let view = reader.view();
    let decodable = view
        .txs_by_kind(txkind::PROVENANCE)
        .iter()
        .filter(|id| decode_record_prefix(&view.get_tx(id).unwrap().payload).is_some())
        .count();
    assert_eq!(reader.postings_len(), decodable);
    assert_eq!(matches, decodable);

    // The work of an audit does not grow with history that does not name
    // the artifact: ten times the blocks, the same candidates.
    let before = reader.provenance_of(&subject(0));
    let author = AccountId::from_name("auditor");
    let mut prev = ledger.chain().tip();
    let base = ledger.chain().height();
    let quiet: Vec<Block> = (1..=600u64)
        .map(|i| {
            let record =
                ProvenanceRecord::new("elsewhere", author, Action::Read, i, Domain::Generic);
            let tx = Transaction::new(author, 1 << 32 | i, i, txkind::PROVENANCE, record.to_wire());
            let block = Block::assemble(base + i, prev, 50_000 + i, author, 0, vec![tx]);
            prev = block.hash();
            block
        })
        .collect();
    ledger.ingest_blocks(quiet).expect("ingest");
    let after = reader.provenance_of(&subject(0));
    assert_eq!(after.view.height(), base + 600);
    assert_eq!(after.candidates, before.candidates);
    assert_eq!(after.records, before.records);
    assert_eq!(reader.provenance_of("elsewhere").candidates, 600);
}

#[test]
fn audits_equal_the_scan_under_forks_reorgs_and_restarts() {
    let dir = temp_dir("restarts");
    let mut ledger = open_tiered(&dir);
    let mut reader = ledger.reader();
    let mut stream = Stream::new(23);
    let mut stale = Vec::new();
    let mut reorged_entries = false;
    for i in 1..=240 {
        step(&mut ledger, &mut stream, &mut stale, true);
        let (candidates, matches) = audits_agree(&reader);
        reorged_entries |= candidates > matches;
        if i % 40 == 0 {
            // Restart mid-stream: postings are rebuilt by rehydration, and
            // fork tips stored before it stay revivable after it.
            ledger.sync().expect("sync");
            drop(reader);
            drop(ledger);
            ledger = open_tiered(&dir);
            reader = ledger.reader();
            audits_agree(&reader);
        }
    }
    assert!(
        ledger.chain().finalized_height() > 100,
        "history must finalize and spill"
    );
    assert!(
        reorged_entries,
        "the stream must leave entries the view rejects"
    );
    drop((reader, ledger));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every subject's audit, and the postings count, answered identically by
/// a log's reader and a ledger's reader.
fn log_agrees_with_ledger(log: &LedgerReader, ledger: &LedgerReader) {
    assert_eq!(log.postings_len(), ledger.postings_len());
    for subject in every_subject() {
        let (from_log, from_ledger) = (log.provenance_of(&subject), ledger.provenance_of(&subject));
        assert_eq!(from_log.view.tip(), from_ledger.view.tip(), "{subject}");
        assert_eq!(from_log.records, from_ledger.records, "{subject}");
        assert_eq!(from_log.candidates, from_ledger.candidates, "{subject}");
    }
}

#[test]
fn a_log_beside_the_ledger_audits_identically_under_forks_reorgs_and_restarts() {
    let (ledger_dir, log_dir) = (temp_dir("beside-ledger"), temp_dir("beside-log"));
    let mut ledger = open_tiered(&ledger_dir);
    let mut log = open_tiered_log(&log_dir);
    let (mut ledger_reader, mut log_reader) = (ledger.reader(), log.reader());
    let mut stream = Stream::new(23);
    let mut stale = Vec::new();
    let mut reorged_entries = false;
    for i in 1..=240 {
        if let Some((blocks, one_batch)) =
            next_blocks(ledger.chain(), &mut stream, &mut stale, true)
        {
            let batches: Vec<Vec<Block>> = if one_batch {
                vec![blocks.clone()]
            } else {
                blocks.iter().map(|b| vec![b.clone()]).collect()
            };
            for batch in batches {
                // A chain refusal is part of the stream, as for the ledger.
                let _ = log.ingest_blocks(batch);
            }
            ingest(&mut ledger, blocks, one_batch);
        }
        assert_eq!(log.chain().tip(), ledger.chain().tip());
        log_agrees_with_ledger(&log_reader, &ledger_reader);
        let (candidates, matches) = audits_agree(&log_reader);
        reorged_entries |= candidates > matches;
        if i % 40 == 0 {
            ledger.sync().expect("sync ledger");
            log.sync().expect("sync log");
            drop((ledger_reader, ledger, log_reader, log));
            ledger = open_tiered(&ledger_dir);
            log = open_tiered_log(&log_dir);
            (ledger_reader, log_reader) = (ledger.reader(), log.reader());
            log_agrees_with_ledger(&log_reader, &ledger_reader);
        }
    }
    assert!(
        reorged_entries,
        "the stream must leave entries the view rejects"
    );
    drop((ledger_reader, ledger, log_reader, log));
    let _ = std::fs::remove_dir_all(&ledger_dir);
    let _ = std::fs::remove_dir_all(&log_dir);
}

#[test]
fn a_fork_stored_before_a_restart_is_audited_once_it_wins_after_it() {
    // Rehydration walks canonical transactions only, so the fork block
    // below is in no postings list when the reopened ledger starts; the
    // reorg that makes it canonical must fold it in.
    let dir = temp_dir("revived");
    let mut stream = Stream::new(5);
    let fork_tip = {
        let mut ledger = open_tiered(&dir);
        let main = stream.branch(ledger.chain().tip(), 0, 3, None);
        let fork_parent = main[0].hash();
        ledger.ingest_blocks(main).expect("main chain");
        let fork = stream.branch(fork_parent, 1, 1, Some(ledger.chain()));
        let fork_tip = fork[0].hash();
        ledger.ingest_blocks(fork).expect("stale fork");
        assert!(!ledger.chain().is_canonical(&fork_tip));
        ledger.sync().expect("sync");
        fork_tip
    };
    let mut ledger = open_tiered(&dir);
    let reader = ledger.reader();
    audits_agree(&reader);
    let winner = stream.branch(fork_tip, 2, 2, None);
    let outcomes = ledger.ingest_blocks(winner).expect("winning branch");
    assert!(outcomes.iter().any(|o| o.reorged));
    assert!(ledger.chain().is_canonical(&fork_tip));
    let (_, matches) = audits_agree(&reader);
    assert!(matches > 0);
    drop((reader, ledger));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_record_the_graph_refuses_is_still_audited() {
    // A record naming a parent the ledger has never seen is on the chain
    // all the same: ingest reports the graph's refusal, and the audit —
    // whose authority is the chain — still equals the scan, for that
    // record and for everything committed after it in the batch.
    let mut ledger = ProvenanceLedger::open(LedgerConfig::private_default());
    let reader = ledger.reader();
    let mut stream = Stream::new(7);
    let author = AccountId::from_name("auditor");
    let orphan = ProvenanceRecord::new(&subject(0), author, Action::Update, 7, Domain::Generic)
        .with_parent(RecordId(blockprov::crypto::sha256::sha256(
            b"never recorded",
        )));
    let orphan_tx = Transaction::new(author, 1 << 40, 7, txkind::PROVENANCE, orphan.to_wire());
    let first = stream.block(ledger.chain().tip(), 1, std::slice::from_ref(&orphan_tx));
    let mut blocks = stream.branch(first.hash(), 1, 3, None);
    blocks.insert(0, first);
    assert!(matches!(
        ledger.ingest_blocks(blocks),
        Err(CoreError::Graph(_))
    ));
    assert_eq!(reader.view().height(), 4, "the chain committed the batch");
    audits_agree(&reader);
    let audit = reader.provenance_of(&subject(0));
    assert!(audit.records.iter().any(|(id, _)| *id == orphan_tx.id()));
}

/// The writer runs a forking, reorging stream over the durable tiers while
/// `readers` threads audit every subject in a loop, each answer checked
/// against the scan of the view it came with.
fn audits_agree_while_the_writer_ingests(readers: usize) {
    let dir = temp_dir(&format!("threads-{readers}"));
    let mut ledger = open_tiered(&dir);
    let reader = ledger.reader();
    let done = Arc::new(AtomicBool::new(false));
    let audits: Vec<_> = (0..readers)
        .map(|_| {
            let (reader, done) = (reader.clone(), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut rounds = 0u64;
                loop {
                    // Read the flag first: the last round then audits the
                    // writer's final state.
                    let finished = done.load(Ordering::Acquire);
                    audits_agree(&reader);
                    rounds += 1;
                    if finished {
                        return rounds;
                    }
                }
            })
        })
        .collect();
    let mut stream = Stream::new(31 + readers as u64);
    let mut stale = Vec::new();
    for _ in 0..160 {
        step(&mut ledger, &mut stream, &mut stale, true);
    }
    done.store(true, Ordering::Release);
    for audit in audits {
        assert!(audit.join().expect("reader thread") >= 1);
    }
    // With the writer idle the covered view is the chain's own tip.
    assert_eq!(
        reader.provenance_of(UNKNOWN).view.tip(),
        ledger.chain().tip()
    );
    drop((reader, ledger));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn audits_equal_the_scan_beside_a_writer_with_1_reader_thread() {
    audits_agree_while_the_writer_ingests(1);
}

#[test]
fn audits_equal_the_scan_beside_a_writer_with_8_reader_threads() {
    audits_agree_while_the_writer_ingests(8);
}
