//! [`ProvenanceLog`]: a [`Chain`] plus the per-subject postings its readers
//! audit from — what a node needs to ingest blocks and answer "who did what
//! to this artifact", and nothing more.
//!
//! Every block the chain commits is walked once: each provenance
//! transaction's record is decoded once and posted under its subject. No
//! transaction id or record id is computed, and no derivation graph is
//! built. A caller that keeps more provenance state (the core crate's
//! ledger keeps a graph, query indexes, record anchoring, author nonces and
//! a logical clock) passes a [`RecordVisitor`] to the `*_visiting` methods
//! and folds each record in during that same walk.

use crate::model::{ProvenanceRecord, RecordId};
use crate::txkind;
use blockprov_ledger::block::{Block, BlockHash, BlockHeader};
use blockprov_ledger::chain::{
    AppendOutcome, BatchError, Chain, ChainReader, ChainView, TxInclusionProof, ValidationError,
};
use blockprov_ledger::readview::Published;
use blockprov_ledger::tx::{Transaction, TxId};
use blockprov_wire::Codec;
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, RwLock};

/// Decode a provenance record from the front of a transaction payload.
///
/// `OnChainFull` transactions append raw content after the record, so the
/// record is a prefix of the payload (a payload that is exactly one record
/// is the prefix case with no tail). Everything that reads records off the
/// chain — absorption, rehydration, audits, the node's `/tx` — uses this
/// one convention.
pub fn decode_record_prefix(payload: &[u8]) -> Option<ProvenanceRecord> {
    let mut r = blockprov_wire::Reader::new(payload);
    ProvenanceRecord::decode(&mut r).ok()
}

/// A self-contained, user-verifiable proof that a provenance record is
/// anchored on the chain — what a ProvChain auditor hands back to a client.
#[derive(Debug, Clone)]
pub struct RecordProof {
    /// The proven record id.
    pub record_id: RecordId,
    /// The transaction carrying the record.
    pub tx_id: TxId,
    /// Inclusion proof of the transaction in its block.
    pub inclusion: TxInclusionProof,
}

impl RecordProof {
    /// Verify the whole chain of custody of the proof:
    /// record → transaction payload → Merkle root → block hash.
    pub fn verify(&self, record: &ProvenanceRecord) -> bool {
        if record.id() != self.record_id {
            return false;
        }
        self.inclusion.tx_id == self.tx_id && self.inclusion.verify()
    }
}

/// Per subject, the `(block height, position)` of every provenance
/// transaction the log has absorbed whose record names the subject — fork
/// blocks included — kept sorted and unique.
///
/// A *hint*, never an answer: [`LedgerReader::provenance_of`] resolves each
/// entry through a pinned [`ChainView`], which decides what is canonical.
/// Heights and positions rather than 32-byte ids: 16 bytes per provenance
/// transaction, and the id falls out of the resolved transaction.
#[derive(Debug, Default)]
struct SubjectPostings {
    by_subject: HashMap<String, Vec<(u64, u32)>>,
    entries: usize,
}

impl SubjectPostings {
    fn insert(&mut self, subject: &str, at: (u64, u32)) {
        // `entry` would allocate the key on every call; subjects repeat.
        let list = match self.by_subject.get_mut(subject) {
            Some(list) => list,
            None => self.by_subject.entry(subject.to_string()).or_default(),
        };
        match list.last() {
            // Canonical growth appends. A fork sibling, or a block absorbed
            // a second time after a reorg, lands inside the list or is
            // already there.
            Some(last) if *last >= at => match list.binary_search(&at) {
                Ok(_) => return,
                Err(i) => list.insert(i, at),
            },
            _ => list.push(at),
        }
        self.entries += 1;
    }
}

/// What [`LedgerReader::provenance_of`] answers.
#[derive(Debug, Clone)]
pub struct SubjectAudit {
    /// The pinned view the answer describes: the chain as of the last batch
    /// the log finished absorbing.
    pub view: ChainView,
    /// Every canonical provenance transaction of `view` whose record names
    /// the subject, as `(carrying tx id, record)` in `(height, position)`
    /// order.
    pub records: Vec<(TxId, ProvenanceRecord)>,
    /// Postings entries resolved against `view` to find them. Equal to
    /// `records.len()` unless forks or reorgs left entries the view
    /// rejects.
    pub candidates: usize,
}

/// A cloneable, `Send + Sync` query handle over a [`ProvenanceLog`],
/// obtained from [`ProvenanceLog::reader`].
///
/// Backed by the chain's epoch-published snapshots and the durable tiers'
/// published states: every query answers without blocking the writer.
/// Chain queries go through [`LedgerReader::view`], which pins one
/// snapshot, so the answers a request reads off one view agree with each
/// other.
///
/// One piece of provenance state is covered too: the per-subject audit,
/// [`LedgerReader::provenance_of`], served from subject postings the log
/// shares with its readers.
#[derive(Debug, Clone)]
pub struct LedgerReader {
    chain: ChainReader,
    postings: Arc<RwLock<SubjectPostings>>,
    /// The newest view whose every block the postings cover.
    covered: Arc<Published<ChainView>>,
}

impl LedgerReader {
    /// The underlying chain read handle.
    pub fn chain(&self) -> &ChainReader {
        &self.chain
    }

    /// Pin the latest published snapshot for a prefix-consistent view.
    pub fn view(&self) -> ChainView {
        self.chain.view()
    }

    /// Produce a user-verifiable anchoring proof for a sealed record whose
    /// carrying transaction id is known (e.g. from the ledger's record → tx
    /// mapping at seal time).
    pub fn prove_record_tx(&self, record_id: RecordId, tx_id: TxId) -> Option<RecordProof> {
        let inclusion = self.view().prove_tx(&tx_id)?;
        Some(RecordProof {
            record_id,
            tx_id,
            inclusion,
        })
    }

    /// "Who did what to this artifact": every canonical provenance record
    /// whose subject is `subject`, oldest first — in time proportional to
    /// the records naming the subject, not to the chain's history.
    ///
    /// The answer is exactly what scanning the returned view would give
    /// (`txs_by_kind(PROVENANCE)`, fetch, decode, filter on subject), ids
    /// and order included. The subject's postings supply candidate
    /// `(height, position)`s; a candidate counts iff the view's canonical
    /// block at that height carries a provenance transaction at that
    /// position whose record names the subject, so fork blocks, reorged-out
    /// blocks and undecodable payloads drop out here. An unknown subject is
    /// an empty answer, not an error.
    ///
    /// The view is the one the log pinned after it last finished absorbing
    /// a batch, not [`LedgerReader::view`]: the chain publishes a batch's
    /// snapshot before the log has absorbed it, and only blocks absorbed
    /// before a view was pinned are certain to be in the postings.
    pub fn provenance_of(&self, subject: &str) -> SubjectAudit {
        let view = ChainView::clone(&self.covered.load());
        let mut candidates = self
            .postings
            .read()
            .expect("postings lock poisoned by a panicked writer")
            .by_subject
            .get(subject)
            .cloned()
            .unwrap_or_default();
        // Entries above the view's tip belong to batches absorbed since.
        candidates.truncate(candidates.partition_point(|&(h, _)| h <= view.height()));
        let mut records = Vec::with_capacity(candidates.len());
        let mut block: Option<Arc<Block>> = None;
        for &(height, pos) in &candidates {
            if block.as_ref().map(|b| b.header.height) != Some(height) {
                block = view.block_at(height);
            }
            let Some(tx) = block.as_ref().and_then(|b| b.txs.get(pos as usize)) else {
                continue;
            };
            if tx.kind != txkind::PROVENANCE {
                continue;
            }
            match decode_record_prefix(&tx.payload) {
                Some(record) if record.subject == subject => records.push((tx.id(), record)),
                _ => {}
            }
        }
        SubjectAudit {
            view,
            records,
            candidates: candidates.len(),
        }
    }

    /// Subject-postings entries held (one per absorbed provenance
    /// transaction, fork blocks included).
    pub fn postings_len(&self) -> usize {
        self.postings
            .read()
            .expect("postings lock poisoned by a panicked writer")
            .entries
    }
}

/// One decodable provenance record a [`ProvenanceLog`] walk absorbed.
#[derive(Debug)]
pub struct LoggedRecord<'a> {
    /// The decoded record (moved out to the visitor; the log keeps only its
    /// subject's postings entry).
    pub record: ProvenanceRecord,
    /// The carrying transaction.
    pub tx: &'a Transaction,
    /// `(block height, position)` of the carrying transaction.
    pub at: (u64, u32),
}

impl LoggedRecord<'_> {
    /// The carrying transaction's id, hashed on each call — on open and on
    /// commit alike (the log itself never needs it).
    pub fn tx_id(&self) -> TxId {
        self.tx.id()
    }
}

/// Provenance state kept beside a [`ProvenanceLog`], folded in during the
/// log's own walk: over every canonical block on open, over every committed
/// block and over the winning branch of a reorg. Both hooks default to
/// nothing.
pub trait RecordVisitor {
    /// The walk entered a block; its records follow. Every block the walk
    /// covers is entered, whether or not it carries a record, and a block
    /// may be entered more than once (a reorg re-walks the winning branch).
    fn block(&mut self, _header: &BlockHeader) {}

    /// The walk absorbed one decodable provenance record. Called again for
    /// the same transaction when a reorg re-walks its block.
    fn record(&mut self, _record: LoggedRecord<'_>) {}
}

/// The log on its own: no state beyond the postings.
impl RecordVisitor for () {}

/// A [`Chain`] and the subject postings that cover its canonical chain.
///
/// The postings are rebuilt on open from one sequential pass over the
/// chain's canonical blocks and extended by every block the log commits
/// (fork blocks included); readers from [`ProvenanceLog::reader`] audit
/// subjects against views the log pins once a batch is absorbed.
pub struct ProvenanceLog {
    chain: Chain,
    /// Shared with every [`LedgerReader`]; written under one lock per batch.
    postings: Arc<RwLock<SubjectPostings>>,
    /// Set by the first [`ProvenanceLog::reader`]: the chain handle the log
    /// pins covered views from, and the slot it publishes them to.
    covered: Option<(ChainReader, Arc<Published<ChainView>>)>,
}

impl ProvenanceLog {
    /// Wrap `chain` (fresh or replayed from its tiers), rebuilding the
    /// postings from its canonical blocks.
    ///
    /// One sequential pass over the block store ([`Chain::scan_canonical`]):
    /// every canonical block is decoded once, in height order, and absorbed
    /// exactly as a commit absorbs it. No index page is read and no block is
    /// fetched through the hot tier. A block-store or height-map read
    /// failure, an undecodable frame, or a canonical height the store does
    /// not hold fails the open loudly instead of leaving audits a partial
    /// history.
    ///
    /// Stored fork blocks are not visited; should a later reorg make one
    /// canonical, the winning-branch walk folds it in then.
    pub fn new(chain: Chain) -> io::Result<Self> {
        Self::new_visiting(chain, &mut ())
    }

    /// [`ProvenanceLog::new`], handing every block entered and every record
    /// absorbed on the way to `visitor`.
    pub fn new_visiting(chain: Chain, visitor: &mut impl RecordVisitor) -> io::Result<Self> {
        let mut postings = SubjectPostings::default();
        chain.scan_canonical(&mut |block| absorb_block(block, &mut postings, visitor))?;
        Ok(Self {
            chain,
            postings: Arc::new(RwLock::new(postings)),
            covered: None,
        })
    }

    /// The underlying chain (read access for audits and experiments).
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// Ingest a batch of blocks through the chain's batched pipeline and
    /// post every committed provenance record under its subject.
    ///
    /// Blocks before the first invalid one commit and are absorbed; the
    /// error reports which block failed and why. Durability is the chain's:
    /// every tier is group-flushed to the OS once per call, on the error
    /// path too — a returned batch survives a process kill; nothing is
    /// fsynced.
    pub fn ingest_blocks(&mut self, blocks: Vec<Block>) -> Result<Vec<AppendOutcome>, BatchError> {
        self.ingest_blocks_visiting(blocks, &mut ())
    }

    /// [`ProvenanceLog::ingest_blocks`], handing every block entered and
    /// every record absorbed on the way to `visitor`.
    pub fn ingest_blocks_visiting(
        &mut self,
        blocks: Vec<Block>,
        visitor: &mut impl RecordVisitor,
    ) -> Result<Vec<AppendOutcome>, BatchError> {
        let old_tip = self.chain.tip();
        let result = self.chain.append_batch(blocks);
        let committed = match &result {
            Ok(outcomes) => outcomes,
            Err(e) => &e.committed,
        };
        self.absorb(old_tip, committed, visitor);
        result
    }

    /// Append one block (a locally sealed one) and absorb it, handing its
    /// records to `visitor`.
    pub fn append_visiting(
        &mut self,
        block: Block,
        visitor: &mut impl RecordVisitor,
    ) -> Result<AppendOutcome, ValidationError> {
        let old_tip = self.chain.tip();
        let outcome = self.chain.append(block)?;
        self.absorb(old_tip, std::slice::from_ref(&outcome), visitor);
        Ok(outcome)
    }

    /// Fold every committed block into the postings — whatever an earlier
    /// one held, since audits rely on the postings covering every stored
    /// block — then walk the winning branch of any reorg, then publish a
    /// covered view.
    ///
    /// Each outcome carries the block the commit stored, so nothing is
    /// read back: a block the batch already finalized would otherwise cost
    /// a `pread` and a decode on this, the one writer thread.
    fn absorb(
        &mut self,
        old_tip: BlockHash,
        outcomes: &[AppendOutcome],
        visitor: &mut impl RecordVisitor,
    ) {
        {
            let mut postings = self.postings.write().expect("postings lock poisoned");
            for outcome in outcomes {
                absorb_block(&outcome.block, &mut postings, visitor);
            }
            if outcomes.iter().any(|o| o.reorged) {
                self.absorb_winning_branch(old_tip, &mut postings, visitor);
            }
        }
        self.publish_covered();
    }

    /// After a reorg, absorb the winning branch down to the fork point.
    ///
    /// Its blocks were absorbed when they were stored — unless that was
    /// before a restart: replay restores stored fork blocks to the chain,
    /// but the open walks canonical blocks only. Both branches are
    /// walked down from their tips until they meet, or to the finality
    /// checkpoint when the losing branch has been pruned; absorbing is
    /// idempotent, so a block absorbed before costs its decode and no more.
    fn absorb_winning_branch(
        &self,
        old_tip: BlockHash,
        postings: &mut SubjectPostings,
        visitor: &mut impl RecordVisitor,
    ) {
        let floor = self.chain.finalized_height();
        let mut old = self.chain.block(&old_tip);
        let mut new = self.chain.block(&self.chain.tip());
        while let Some(block) = new {
            let height = block.header.height;
            if height <= floor {
                break;
            }
            while let Some(o) = old.take_if(|o| o.header.height > height) {
                old = self.chain.block(&o.header.prev);
            }
            if let Some(o) = old.take_if(|o| o.header.height == height) {
                if o.hash() == block.hash() {
                    break; // the fork point: canonical before the reorg too
                }
                old = self.chain.block(&o.header.prev);
            }
            absorb_block(&block, postings, visitor);
            new = self.chain.block(&block.header.prev);
        }
    }

    /// Attach a concurrent, cloneable query handle over the chain.
    ///
    /// The handle is `Send + Sync` and answers from epoch-published chain
    /// snapshots plus the durable tiers' published states, so query threads
    /// never block the ingest path and never observe torn commit state.
    /// While at least one handle is alive the chain re-publishes a snapshot
    /// at every commit point; queries then lag live state by at most one
    /// commit. This is the chain-level view, pinned through
    /// [`LedgerReader::view`] — id/kind lookups, height/hash resolution,
    /// block fetch and Merkle inclusion proofs — plus the per-subject audit ([`LedgerReader::provenance_of`]), which
    /// answers as of the last batch this log finished absorbing.
    pub fn reader(&mut self) -> LedgerReader {
        let (chain, covered) = match &self.covered {
            Some((chain, covered)) => (chain.clone(), Arc::clone(covered)),
            None => {
                // `&mut self`: no batch is in flight, so every block of the
                // view pinned here has been absorbed.
                let chain = self.chain.reader();
                let covered = Arc::new(Published::new(chain.view()));
                self.covered = Some((chain.clone(), Arc::clone(&covered)));
                (chain, covered)
            }
        };
        LedgerReader {
            chain,
            postings: Arc::clone(&self.postings),
            covered,
        }
    }

    /// Pin the chain's current snapshot as the view audits answer from.
    /// Called once the postings cover every block stored so far — after a
    /// batch (or an appended block) has been absorbed — so a block in a
    /// covered view was absorbed before the view was pinned. Costs two
    /// `Arc` clones, and nothing before the first [`Self::reader`] call.
    fn publish_covered(&mut self) {
        let Some((chain, covered)) = &self.covered else {
            return;
        };
        if Arc::strong_count(covered) == 1 {
            // Every `LedgerReader` is gone: give up the chain handle, so
            // the chain stops building snapshots nobody will load.
            self.covered = None;
            return;
        }
        covered.store(Arc::new(chain.view()));
    }

    /// Force a clean-shutdown sync: flush staged commits across every
    /// durable tier and write the checkpoint snapshot the next open
    /// fast-starts from.
    ///
    /// Dropping the log performs the same sync implicitly; long-running
    /// services call this explicitly (e.g. on SIGTERM) so a durability
    /// failure surfaces as an error instead of being swallowed by `Drop`.
    pub fn sync(&mut self) -> io::Result<()> {
        self.chain.sync_meta()
    }
}

/// Fold one committed block into the postings.
fn absorb_block(block: &Block, postings: &mut SubjectPostings, visitor: &mut impl RecordVisitor) {
    visitor.block(&block.header);
    for (pos, tx) in block.txs.iter().enumerate() {
        absorb_tx(tx, (block.header.height, pos as u32), postings, visitor);
    }
}

/// Post one transaction's record under its subject, if it carries one, and
/// hand the record on. A non-provenance or undecodable transaction is not
/// a record.
fn absorb_tx(
    tx: &Transaction,
    at: (u64, u32),
    postings: &mut SubjectPostings,
    visitor: &mut impl RecordVisitor,
) {
    if tx.kind != txkind::PROVENANCE {
        return;
    }
    let Some(record) = decode_record_prefix(&tx.payload) else {
        return;
    };
    postings.insert(&record.subject, at);
    visitor.record(LoggedRecord { record, tx, at });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Action, Domain};
    use blockprov_ledger::chain::ChainConfig;
    use blockprov_ledger::tx::AccountId;
    use blockprov_ledger::{
        BlockReader, BlockStore, MetaConfig, MetaStore, TieredConfig, TieredReader, TieredStore,
        TxIndex, TxIndexConfig,
    };

    fn log() -> ProvenanceLog {
        ProvenanceLog::new(Chain::new(ChainConfig::default())).unwrap()
    }

    /// `n` chained single-record blocks about `subject` on the log's tip.
    fn record_blocks(log: &ProvenanceLog, subject: &str, n: usize) -> Vec<Block> {
        branch(
            log.chain.tip(),
            log.chain.height() + 1,
            &vec![subject; n],
            0,
        )
    }

    /// Chained blocks from `prev` (at `height - 1`), one record per block
    /// about each subject in turn; `salt` keeps sibling branches distinct.
    fn branch(prev: BlockHash, height: u64, subjects: &[&str], salt: u64) -> Vec<Block> {
        let author = AccountId::from_name("peer");
        let mut prev = prev;
        (height..)
            .zip(subjects)
            .map(|(h, subject)| {
                let ts = 10 * h + salt;
                let record =
                    ProvenanceRecord::new(subject, author, Action::Update, ts, Domain::Generic);
                let tx = Transaction::new(author, h, ts, txkind::PROVENANCE, record.to_wire());
                let block = Block::assemble(h, prev, ts, author, 0, vec![tx]);
                prev = block.hash();
                block
            })
            .collect()
    }

    #[test]
    fn audits_answer_as_of_the_last_absorbed_batch() {
        let mut l = log();
        let reader = l.reader();
        l.ingest_blocks(record_blocks(&l, "f", 3)).unwrap();
        assert_eq!(reader.provenance_of("f").records.len(), 3);

        // Stop a batch where `ingest_blocks` is between the chain's commit
        // and the absorb: the snapshot is out, the postings are not. An
        // audit must keep answering from the view the postings cover.
        let batch = record_blocks(&l, "f", 2);
        let outcomes = l.chain.append_batch(batch).unwrap();
        assert_eq!(reader.view().height(), 5, "the chain published the batch");
        let audit = reader.provenance_of("f");
        assert_eq!(audit.view.height(), 3);
        assert_eq!((audit.candidates, audit.records.len()), (3, 3));

        // Finishing the batch — absorb, then pin — catches the audit up.
        l.absorb(BlockHash::ZERO, &outcomes, &mut ());
        let audit = reader.provenance_of("f");
        assert_eq!(audit.view.height(), 5);
        assert_eq!((audit.candidates, audit.records.len()), (5, 5));
    }

    fn chain_config() -> ChainConfig {
        ChainConfig {
            finality_depth: Some(4),
            ..ChainConfig::default()
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("blockprov-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The block store under `dir`, with segments of about three blocks
    /// each.
    fn open_store(dir: &std::path::Path) -> TieredStore {
        TieredStore::open(
            dir.join("blocks"),
            TieredConfig {
                segment_bytes: 1024,
                hot_capacity: 4,
            },
        )
        .unwrap()
    }

    /// The three durable tiers under `dir`.
    fn open_tiers(dir: &std::path::Path) -> (TieredStore, TxIndex, MetaStore) {
        let store = open_store(dir);
        let index = TxIndex::open(dir.join("index"), TxIndexConfig::default()).unwrap();
        let meta = MetaStore::open(dir.join("meta"), MetaConfig::default()).unwrap();
        (store, index, meta)
    }

    fn replay(dir: &std::path::Path) -> io::Result<(Chain, TieredReader)> {
        let (store, index, meta) = open_tiers(dir);
        assert!(store.segment_count() >= 2);
        let tiers = store.tiered_reader();
        let chain = Chain::replay_with_tiers(Box::new(store), Some(index), meta, chain_config())?;
        Ok((chain, tiers))
    }

    /// Write a durable history with a stored losing fork and a reorg, sync
    /// it, and return its canonical blocks above genesis in height order.
    fn write_forked_history(dir: &std::path::Path) -> Vec<Block> {
        let (store, index, meta) = open_tiers(dir);
        let chain = Chain::with_tiers(Box::new(store), Some(index), meta, chain_config());
        let mut log = ProvenanceLog::new(chain).unwrap();
        let subjects = ["a", "b", "c"];
        let main = branch(log.chain.tip(), 1, &subjects.repeat(7)[..20], 0);
        log.ingest_blocks(main.clone()).unwrap();

        // A losing sibling at height 18: stored, never canonical.
        let loser = branch(main[16].hash(), 18, &["z"], 1);
        let outcomes = log.ingest_blocks(loser).unwrap();
        assert!(!outcomes[0].new_tip);
        // A heavier branch from height 18 reorgs heights 18..=20 away.
        let winner = branch(main[16].hash(), 18, &["a", "y", "b", "y"], 2);
        let outcomes = log.ingest_blocks(winner.clone()).unwrap();
        assert!(outcomes.iter().any(|o| o.reorged));
        let tail = branch(winner[3].hash(), 22, &subjects.repeat(4), 0);
        log.ingest_blocks(tail.clone()).unwrap();
        log.sync().unwrap();

        let canonical: Vec<Block> = [&main[..17], &winner, &tail].concat();
        assert_eq!(log.chain.hash_at(33), canonical.last().map(Block::hash));
        // The live log posted the fork blocks too.
        let mut oracle = log_of(&canonical);
        assert!(log.reader().postings_len() > oracle.reader().postings_len());
        canonical
    }

    /// An in-memory log fed exactly `blocks`.
    fn log_of(blocks: &[Block]) -> ProvenanceLog {
        let mut l = ProvenanceLog::new(Chain::new(chain_config())).unwrap();
        l.ingest_blocks(blocks.to_vec()).unwrap();
        l
    }

    #[test]
    fn reopen_rebuilds_canonical_postings_without_point_reads() {
        let dir = temp_dir("reopen");
        let canonical = write_forked_history(&dir);

        let (chain, tiers) = replay(&dir).unwrap();
        let before = tiers.tier_stats();
        let mut reopened = ProvenanceLog::new(chain).unwrap();
        assert_eq!(tiers.tier_stats(), before, "the open made a point read");

        let (reopened, oracle) = (reopened.reader(), log_of(&canonical).reader());
        assert_eq!(reopened.postings_len(), oracle.postings_len());
        for subject in ["a", "b", "c", "y", "z", "unknown"] {
            let (got, want) = (
                reopened.provenance_of(subject),
                oracle.provenance_of(subject),
            );
            assert_eq!(got.records, want.records, "{subject}");
            assert_eq!(got.candidates, want.candidates, "{subject}");
        }
        assert!(oracle.provenance_of("z").records.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_undecodable_committed_frame_fails_the_reopen() {
        let dir = temp_dir("corrupt");
        let canonical = write_forked_history(&dir);

        // Overwrite everything after the header of block 1's frame: the
        // frame keeps its length and the header, but no transaction list.
        let wire = canonical[0].to_wire();
        let mut garbled = wire.clone();
        garbled[canonical[0].header.to_wire().len()..].fill(0xFF);
        assert!(Block::from_wire(&garbled).is_err());
        let mut corrupted = 0;
        for entry in std::fs::read_dir(dir.join("blocks")).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            let Some(at) = bytes.windows(wire.len()).position(|w| w == wire) else {
                continue;
            };
            bytes[at..at + wire.len()].copy_from_slice(&garbled);
            std::fs::write(&path, bytes).unwrap();
            corrupted += 1;
        }
        assert_eq!(corrupted, 1);

        // The fast-start replay reads no frame that far below the
        // checkpoint; the postings pass decodes every one.
        let (chain, _) = replay(&dir).unwrap();
        let err = ProvenanceLog::new(chain)
            .err()
            .expect("the reopen must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_bad_segment_header_fails_every_scan_of_the_store() {
        let dir = temp_dir("bad-magic");
        write_forked_history(&dir);
        // Overwrite a sealed segment's magic bytes. Its length is unchanged,
        // so the MANIFEST check passes and the store opens.
        let path = dir.join("blocks").join("seg-00001.blk");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..4].copy_from_slice(b"XXXX");
        std::fs::write(&path, bytes).unwrap();
        let names_the_segment = |err: io::Error| {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("segment 1"), "{err}");
        };

        let store = open_store(&dir);
        names_the_segment(store.scan(&mut |_| {}).unwrap_err());
        names_the_segment(store.scan_headers_from(0, &mut |_, _| {}).unwrap_err());
        drop(store);
        // The fast-start replay reads nothing that far below the
        // checkpoint; the canonical pass and the postings rebuild read it.
        let (chain, _) = replay(&dir).unwrap();
        names_the_segment(chain.scan_canonical(&mut |_| {}).unwrap_err());
        let err = ProvenanceLog::new(chain).err();
        names_the_segment(err.expect("the reopen must fail"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropping_every_reader_releases_the_chain_handle() {
        let mut l = log();
        let reader = l.reader();
        l.ingest_blocks(record_blocks(&l, "f", 1)).unwrap();
        assert!(l.covered.is_some());
        drop(reader);
        l.ingest_blocks(record_blocks(&l, "f", 1)).unwrap();
        assert!(l.covered.is_none(), "no reader left to publish views for");
        // A later reader starts from a view covering everything absorbed.
        let reader = l.reader();
        assert_eq!(reader.provenance_of("f").records.len(), 2);
    }

    /// Absorbing a batch folds the blocks the commit holds: the writer
    /// reads nothing back from the store, and the hot set ends up as if it
    /// had — a block the batch wrote and finalized stays hot, a block a
    /// later batch finalizes goes cold.
    #[test]
    fn absorbing_a_batch_reads_no_block_back() {
        const BATCH: usize = 64;
        const FINALITY: u64 = 16;
        let dir = temp_dir("no-read-back");
        // The tiers as the node opens them, with its finality depth.
        let store = TieredStore::open(
            dir.join("blocks"),
            TieredConfig {
                hot_capacity: 256,
                ..TieredConfig::default()
            },
        )
        .unwrap();
        let tiers = store.tiered_reader();
        let index = TxIndex::open(dir.join("index"), TxIndexConfig::default()).unwrap();
        let meta = MetaStore::open(dir.join("meta"), MetaConfig::default()).unwrap();
        let config = ChainConfig {
            finality_depth: Some(FINALITY),
            ..ChainConfig::default()
        };
        let chain = Chain::replay_with_tiers(Box::new(store), Some(index), meta, config).unwrap();
        let mut log = ProvenanceLog::new(chain).unwrap();
        let reader = log.reader();

        let mut batches = Vec::new();
        for _ in 0..2 {
            let batch = record_blocks(&log, "s", BATCH);
            let before = tiers.tier_stats();
            log.ingest_blocks(batch.clone()).unwrap();
            assert_eq!(tiers.tier_stats(), before, "the ingest read a block");
            batches.push(batch);
        }
        assert_eq!(log.chain.finalized_height(), 2 * BATCH as u64 - FINALITY);

        let (hits, misses) = tiers.tier_stats();
        for block in &batches[1] {
            assert!(tiers.get(&block.hash()).is_some());
        }
        assert_eq!(
            tiers.tier_stats(),
            (hits + BATCH as u64, misses),
            "the second batch must read hot"
        );
        let (hits, misses) = tiers.tier_stats();
        for block in &batches[0][BATCH - FINALITY as usize..] {
            assert!(tiers.get(&block.hash()).is_some());
        }
        assert_eq!(
            tiers.tier_stats(),
            (hits, misses + FINALITY),
            "the first batch's unfinalized tail was demoted by the second"
        );
        // Audits (which read blocks, so they come last) see every record.
        assert_eq!(reader.provenance_of("s").records.len(), 2 * BATCH);
        drop(reader);
        drop(log);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
