//! [`ProvenanceLedger`]: the framework facade assembling chain, capture,
//! graph, query, access control and contracts behind one API.

use crate::config::{BlockchainKind, LedgerConfig, StorageMode};
use crate::offchain::OffChainStore;
use crate::txkind;
use blockprov_access::rbac::{Permission, RbacEngine, Role};
use blockprov_access::views::ViewManager;
use blockprov_consensus::poa::AuthoritySet;
use blockprov_consensus::pos::ValidatorSet;
use blockprov_consensus::pow;
use blockprov_contracts::ContractRuntime;
use blockprov_crypto::sha256::{sha256, Hash256};
use blockprov_ledger::block::{Block, BlockHash, BlockHeader};
use blockprov_ledger::chain::{AppendOutcome, BatchError, Chain, ValidationError};
use blockprov_ledger::mempool::{Mempool, MempoolError};
use blockprov_ledger::tx::{AccountId, Transaction, TxId};
use blockprov_provenance::capture::{CaptureError, CapturePipeline, DataOperation};
use blockprov_provenance::graph::{GraphError, ProvGraph};
use blockprov_provenance::log::{
    LedgerReader, LoggedRecord, ProvenanceLog, RecordProof, RecordVisitor,
};
use blockprov_provenance::model::{Action, MissingField, ProvenanceRecord, RecordId};
use blockprov_provenance::query::{ProvQuery, QueryCache, QueryEngine, QueryResult};
use blockprov_wire::Codec;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Framework-level errors.
#[derive(Debug)]
pub enum CoreError {
    /// Chain-level validation failure.
    Chain(ValidationError),
    /// Mempool refusal.
    Mempool(MempoolError),
    /// Capture pathway refusal.
    Capture(CaptureError),
    /// DAG violation.
    Graph(GraphError),
    /// Table 1 schema violation.
    Schema(MissingField),
    /// Unknown agent (not registered).
    UnknownAgent(AccountId),
    /// PoW search exhausted its budget.
    MiningFailed,
    /// Record not found on the canonical chain.
    UnknownRecord(RecordId),
    /// The open's pass over the canonical blocks failed (an unreadable or
    /// corrupt block store or height map, or a canonical height the store
    /// does not hold) — surfaced loudly instead of rebuilding a partial
    /// provenance graph.
    StoreIo(std::io::Error),
    /// A batched block ingest stopped at an invalid block. Blocks before
    /// it committed; the failing block and everything after it did not.
    Batch(BatchError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Chain(e) => write!(f, "chain: {e}"),
            CoreError::Mempool(e) => write!(f, "mempool: {e}"),
            CoreError::Capture(e) => write!(f, "capture: {e}"),
            CoreError::Graph(e) => write!(f, "graph: {e}"),
            CoreError::Schema(e) => write!(f, "schema: {e}"),
            CoreError::UnknownAgent(a) => write!(f, "unknown agent {a}"),
            CoreError::MiningFailed => write!(f, "mining budget exhausted"),
            CoreError::UnknownRecord(r) => write!(f, "unknown record {r}"),
            CoreError::StoreIo(e) => write!(f, "block store read failed: {e}"),
            CoreError::Batch(e) => write!(f, "ingest: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<ValidationError> for CoreError {
    fn from(e: ValidationError) -> Self {
        CoreError::Chain(e)
    }
}
impl From<MempoolError> for CoreError {
    fn from(e: MempoolError) -> Self {
        CoreError::Mempool(e)
    }
}
impl From<CaptureError> for CoreError {
    fn from(e: CaptureError) -> Self {
        CoreError::Capture(e)
    }
}
impl From<GraphError> for CoreError {
    fn from(e: GraphError) -> Self {
        CoreError::Graph(e)
    }
}
impl From<BatchError> for CoreError {
    fn from(e: BatchError) -> Self {
        CoreError::Batch(e)
    }
}

/// The provenance state a [`ProvenanceLedger`] keeps beyond its log's
/// subject postings — derivation graph, query indexes, record → tx
/// anchoring, author nonces and the logical clock — folded in by the log's
/// own walk on open, on every commit and on a reorg's winning branch.
struct RecordState {
    graph: ProvGraph,
    engine: QueryEngine,
    /// record → carrying tx (filled as blocks are absorbed).
    record_tx: HashMap<RecordId, TxId>,
    nonces: HashMap<AccountId, u64>,
    /// Logical clock (ms); deterministic and strictly monotonic.
    now_ms: u64,
    /// The first record the graph refused during the current walk.
    refused: Option<GraphError>,
}

impl RecordState {
    fn new() -> Self {
        Self {
            graph: ProvGraph::new(),
            engine: QueryEngine::new(),
            record_tx: HashMap::new(),
            nonces: HashMap::new(),
            now_ms: 1,
            refused: None,
        }
    }
}

impl RecordVisitor for RecordState {
    fn block(&mut self, header: &BlockHeader) {
        self.now_ms = self.now_ms.max(header.timestamp_ms);
    }

    /// Fold one committed record into the provenance layer: logical clock,
    /// author nonces, record→tx anchoring, then graph and query indexes.
    /// Idempotent. The log has posted the record whether or not the graph
    /// takes it (the same record in a second transaction is another entry;
    /// a record whose parent is unknown is still on the chain), and a
    /// record the graph refuses is never indexed.
    fn record(&mut self, logged: LoggedRecord<'_>) {
        let tx_id = logged.tx_id();
        let (tx, record) = (logged.tx, logged.record);
        let record_id = record.id();
        self.now_ms = self.now_ms.max(record.timestamp_ms);
        let nonce = self.nonces.entry(tx.author).or_insert(0);
        *nonce = (*nonce).max(tx.nonce + 1);
        self.record_tx.insert(record_id, tx_id);
        match self.graph.insert_with_id(record_id, record) {
            Ok(()) => {
                let record = self.graph.get(&record_id).expect("inserted just above");
                self.engine.index_record(record_id, record);
            }
            Err(GraphError::DuplicateRecord(_)) => {}
            Err(e) => {
                self.refused.get_or_insert(e);
            }
        }
    }
}

/// The assembled provenance ledger.
pub struct ProvenanceLedger {
    config: LedgerConfig,
    /// The chain and the subject postings its readers audit from.
    log: ProvenanceLog,
    /// Everything else the log's walk folds committed records into.
    records: RecordState,
    mempool: Mempool,
    capture: CapturePipeline,
    cache: QueryCache,
    offchain: OffChainStore,
    /// Role-based access control over ledger operations.
    pub rbac: RbacEngine,
    /// LedgerView-style filtered views.
    pub views: ViewManager,
    /// Smart-contract runtime (state root sealed into headers).
    pub contracts: ContractRuntime,
    authorities: AuthoritySet,
    validators: ValidatorSet,
    epoch_seed: Hash256,
    agents: BTreeMap<AccountId, String>,
}

impl ProvenanceLedger {
    /// Open a fresh ledger under `config` (in-memory block store).
    pub fn open(config: LedgerConfig) -> Self {
        let log = ProvenanceLog::new(Chain::new(config.chain_config()))
            .expect("a fresh in-memory chain holds only its genesis");
        Self::assemble(config, log, RecordState::new())
    }

    /// Open a ledger over the three durable tiers — block store
    /// (typically a [`blockprov_ledger::segment::TieredStore`] for
    /// bounded-memory operation), transaction index and metadata tier —
    /// replaying any history they already hold.
    ///
    /// The chain consumes the checkpoint snapshot and height map: when a
    /// snapshot is present, cold start re-validates only the non-finalized
    /// suffix (blocks above the checkpoint) instead of re-absorbing all of
    /// history, resident chain metadata stays O(finality window + live
    /// forks), and a snapshot that contradicts the block store fails the
    /// open loudly; without one the whole store is replayed. The
    /// provenance layer (graph, query indexes, record→tx anchoring, author
    /// nonces, logical clock) is rebuilt from one sequential pass over
    /// every stored canonical block. Off-chain payloads, agent
    /// registrations and unsealed mempool contents are process state, not
    /// chain state, and do not survive a restart.
    pub fn open_with_tiers(
        config: LedgerConfig,
        store: Box<dyn blockprov_ledger::store::BlockStore>,
        index: blockprov_ledger::index::TxIndex,
        meta: blockprov_ledger::meta::MetaStore,
    ) -> std::io::Result<Self> {
        let chain = Chain::replay_with_tiers(store, Some(index), meta, config.chain_config())?;
        Self::finish_open(config, chain)
    }

    /// Rebuild the provenance layer from the canonical chain after replay,
    /// in the one walk that rebuilds the log's postings (see
    /// [`ProvenanceLog::new`]: one sequential pass over the block store,
    /// canonical blocks in height order, each decoded once). A failed
    /// block-store or height-map read, a canonical height the store does
    /// not hold, or a record the graph refuses fails the open loudly
    /// instead of silently rebuilding a partial provenance graph. The
    /// logical clock resumes from the newest timestamp of the visited
    /// blocks (the tip among them) and records.
    fn finish_open(config: LedgerConfig, chain: Chain) -> std::io::Result<Self> {
        let replay = |e: CoreError| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("replay: {e}"))
        };
        let mut records = RecordState::new();
        let opened = ProvenanceLog::new_visiting(chain, &mut records);
        if let Some(e) = records.refused.take() {
            return Err(replay(CoreError::Graph(e)));
        }
        let log = opened.map_err(|e| replay(CoreError::StoreIo(e)))?;
        Ok(Self::assemble(config, log, records))
    }

    /// Assemble the framework around an opened log.
    fn assemble(config: LedgerConfig, log: ProvenanceLog, records: RecordState) -> Self {
        let mut capture = CapturePipeline::new(config.capture, config.domain);
        if config.pseudonymize {
            capture = capture.with_pseudonyms(sha256(b"blockprov-epoch-0"));
        }
        let (authorities, validators) = match &config.kind {
            BlockchainKind::Private { authorities } => {
                (AuthoritySet::new(authorities.clone()), ValidatorSet::new())
            }
            BlockchainKind::Consortium { validators } => {
                let mut vs = ValidatorSet::new();
                for (v, s) in validators {
                    vs.bond(*v, *s);
                }
                (AuthoritySet::default(), vs)
            }
            BlockchainKind::Public { .. } => (AuthoritySet::default(), ValidatorSet::new()),
        };
        Self {
            log,
            records,
            mempool: Mempool::new(config.max_block_txs * 64),
            capture,
            cache: QueryCache::new(config.cache_capacity.max(1)),
            offchain: OffChainStore::new(),
            rbac: RbacEngine::new(),
            views: ViewManager::new(),
            contracts: ContractRuntime::new(),
            authorities,
            validators,
            epoch_seed: sha256(b"blockprov-pos-epoch"),
            agents: BTreeMap::new(),
            config,
        }
    }

    /// The configuration this ledger runs under.
    pub fn config(&self) -> &LedgerConfig {
        &self.config
    }

    /// The underlying chain (read access for audits and experiments).
    pub fn chain(&self) -> &Chain {
        self.log.chain()
    }

    /// Attach a concurrent, cloneable query handle over the chain.
    ///
    /// The handle is `Send + Sync` and answers from epoch-published chain
    /// snapshots plus the durable tiers' published states, so query threads
    /// never block the sealing/ingest path and never observe torn commit
    /// state. While at least one handle is alive the chain re-publishes a
    /// snapshot at every commit point; queries then lag live state by at
    /// most one commit. This is the chain-level view, pinned through
    /// [`LedgerReader::view`] — id/kind lookups, height/hash resolution,
    /// block fetch and Merkle inclusion proofs — plus the per-subject audit
    /// ([`LedgerReader::provenance_of`]), which answers as of the last
    /// batch this ledger finished absorbing. The provenance graph (DAG
    /// edges, invalidation) is not covered.
    pub fn reader(&mut self) -> LedgerReader {
        self.log.reader()
    }

    /// Force a clean-shutdown sync: flush staged commits across every
    /// durable tier and write the checkpoint snapshot the next open
    /// fast-starts from.
    ///
    /// Dropping the ledger performs the same sync implicitly; long-running
    /// services call this explicitly (e.g. on SIGTERM) so a durability
    /// failure surfaces as an error instead of being swallowed by `Drop`.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.log.sync()
    }

    /// The provenance DAG.
    pub fn graph(&self) -> &ProvGraph {
        &self.records.graph
    }

    /// The off-chain store.
    pub fn offchain(&self) -> &OffChainStore {
        &self.offchain
    }

    /// Capture-pipeline work counters (F3/E4).
    pub fn capture_stats(&self) -> &blockprov_provenance::CaptureStats {
        &self.capture.stats
    }

    /// Query-cache hit/miss counters (E2).
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits, self.cache.misses)
    }

    /// Advance the logical clock and return the new time.
    fn tick(&mut self) -> u64 {
        self.records.now_ms += 1;
        self.records.now_ms
    }

    /// Current logical time (ms).
    pub fn now_ms(&self) -> u64 {
        self.records.now_ms
    }

    /// Advance the logical clock by one tick and return the new time.
    ///
    /// Domain crates building records directly (rather than through
    /// [`ProvenanceLedger::apply_operation`]) must stamp each record with a
    /// fresh tick so that semantically identical consecutive records (e.g.
    /// repeated disclosure audits) keep distinct content-addressed ids.
    pub fn advance_clock(&mut self) -> u64 {
        self.tick()
    }

    /// Register an agent by name. Grants the default `participant` role and
    /// authenticates the agent with third-party capture pathways.
    pub fn register_agent(&mut self, name: &str) -> Result<AccountId, CoreError> {
        let id = AccountId::from_name(name);
        self.agents.insert(id, name.to_string());
        let role = Role::new("participant");
        self.rbac.grant(&role, Permission::new("record.append"));
        self.rbac.grant(&role, Permission::new("record.read"));
        self.rbac.assign(id, &role);
        self.capture.authenticate(id);
        Ok(id)
    }

    /// Whether an agent is registered.
    pub fn is_registered(&self, agent: &AccountId) -> bool {
        self.agents.contains_key(agent)
    }

    /// Register an entity: captures and submits a `Create` record over the
    /// initial content. Returns the subject name for chaining.
    pub fn register_entity(&mut self, subject: &str, content: &[u8]) -> Result<String, CoreError> {
        // System-level creation uses the first registered agent if any,
        // otherwise an internal system account.
        let agent = self
            .agents
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| AccountId::from_name("system"));
        self.apply_operation(&agent, subject, Action::Create, content)?;
        Ok(subject.to_string())
    }

    /// Record an action with empty content.
    pub fn record_action(
        &mut self,
        agent: &AccountId,
        subject: &str,
        action: Action,
    ) -> Result<RecordId, CoreError> {
        self.apply_operation(agent, subject, action, &[])
    }

    /// Capture one data operation end-to-end: pathway → record → schema
    /// check → (off-chain payload) → mempool transaction.
    pub fn apply_operation(
        &mut self,
        agent: &AccountId,
        subject: &str,
        action: Action,
        content: &[u8],
    ) -> Result<RecordId, CoreError> {
        if !self.agents.contains_key(agent) && *agent != AccountId::from_name("system") {
            return Err(CoreError::UnknownAgent(*agent));
        }
        let ts = self.tick();
        let op = DataOperation {
            user: *agent,
            object: subject.to_string(),
            action,
            timestamp_ms: ts,
            content: content.to_vec(),
        };
        let mut record = self.capture.capture(&op)?;
        // Derivation edge: link to the latest prior record of this subject.
        if let Some(prev) = self
            .records
            .engine
            .execute(
                &self.records.graph,
                &ProvQuery::BySubject(subject.to_string()),
            )
            .ids
            .last()
        {
            record = record.with_parent(*prev);
        }
        if self.config.enforce_schema {
            record.validate_schema().map_err(CoreError::Schema)?;
        }
        self.submit_record(record, content)
    }

    /// Submit a pre-built record (domain crates use this directly).
    pub fn submit_record(
        &mut self,
        record: ProvenanceRecord,
        content: &[u8],
    ) -> Result<RecordId, CoreError> {
        let payload = match self.config.storage {
            StorageMode::HashAnchored => {
                if !content.is_empty() {
                    self.offchain.put(content);
                }
                record.to_wire()
            }
            StorageMode::OnChainFull => {
                let mut bytes = record.to_wire();
                bytes.extend_from_slice(content);
                bytes
            }
        };
        let author = record.agent;
        let nonce = self.records.nonces.entry(author).or_insert(0);
        let tx = Transaction::new(
            author,
            *nonce,
            record.timestamp_ms,
            txkind::PROVENANCE,
            payload,
        );
        *nonce += 1;
        let record_id = record.id();
        self.mempool.insert(tx)?;
        // Insert into the graph immediately (pending); queries see pending
        // records, proofs only exist after sealing.
        self.records.graph.insert(record.clone())?;
        self.records.engine.index_record(record_id, &record);
        Ok(record_id)
    }

    /// Seal pending transactions into a block under the configured
    /// consensus. Returns the new block hash (or the current tip if the
    /// mempool was empty).
    pub fn seal_block(&mut self) -> Result<BlockHash, CoreError> {
        let txs = self.mempool.take_batch(self.config.max_block_txs);
        if txs.is_empty() {
            return Ok(self.chain().tip());
        }
        let ts = self.tick();
        let height = self.chain().height() + 1;
        let (proposer, difficulty) = match &self.config.kind {
            BlockchainKind::Public { pow_bits } => (AccountId::from_name("miner-0"), *pow_bits),
            BlockchainKind::Private { .. } => (
                self.authorities
                    .sealer_for(height)
                    .unwrap_or_else(|| AccountId::from_name("authority-0")),
                0,
            ),
            BlockchainKind::Consortium { .. } => (
                self.validators
                    .leader(&self.epoch_seed, height)
                    .unwrap_or_else(|| AccountId::from_name("validator-0")),
                0,
            ),
        };
        let tx_ids: Vec<TxId> = txs.iter().map(Transaction::id).collect();
        let mut block = self.chain().assemble_next(ts, proposer, difficulty, txs);
        block.header.state_root = self.contracts.state_root();
        if difficulty > 0 {
            match pow::mine(&mut block.header, 1 << 28) {
                pow::MiningOutcome::Found { .. } => {}
                pow::MiningOutcome::Exhausted => return Err(CoreError::MiningFailed),
            }
        }
        // The records entered the graph when they were submitted; absorbing
        // the sealed block adds what sealing decides: record→tx anchoring
        // and the subject postings.
        let outcome = self.log.append_visiting(block, &mut self.records)?;
        self.mempool.remove_committed(&tx_ids);
        match self.records.refused.take() {
            Some(e) => Err(CoreError::Graph(e)),
            None => Ok(outcome.hash),
        }
    }

    /// Ingest a batch of externally produced blocks (e.g. replicated from
    /// a peer) through the two-stage pipeline: each block's stateless
    /// validation runs on this thread just before the commit section
    /// applies fork choice and finality, and the ledger's
    /// [`ProvenanceLog`] walks each committed block once, posting every
    /// record's subject and handing the record to the graph and query
    /// indexes. Durability is batch-granular: the chain group-flushes every
    /// tier once per call, on the error path too (written to the OS, not
    /// fsynced), before the error surfaces. The log absorbs each committed
    /// block from its outcome, which carries the block itself, so no body
    /// is read back from the store. Blocks before
    /// the first invalid one commit, and the error reports which block
    /// failed and why (a `StoreIo` error with `index == committed.len()`
    /// means the group flush itself failed; reopen and replay). A record
    /// the provenance graph refuses (an unknown parent) is reported as
    /// [`CoreError::Graph`], ahead of any chain error, after every
    /// committed block has been absorbed: its block is on the chain
    /// regardless, and readers audit what the chain holds.
    pub fn ingest_blocks(&mut self, blocks: Vec<Block>) -> Result<Vec<AppendOutcome>, CoreError> {
        let result = self.log.ingest_blocks_visiting(blocks, &mut self.records);
        match self.records.refused.take() {
            Some(e) => Err(CoreError::Graph(e)),
            None => result.map_err(CoreError::Batch),
        }
    }

    /// Number of transactions waiting to be sealed.
    pub fn pending(&self) -> usize {
        self.mempool.len()
    }

    /// Execute a provenance query through the repeated-query cache.
    pub fn query(&mut self, query: &ProvQuery) -> QueryResult {
        self.cache
            .execute(&self.records.engine, &self.records.graph, query)
    }

    /// Fetch a record body by id.
    pub fn record(&self, id: &RecordId) -> Option<&ProvenanceRecord> {
        self.records.graph.get(id)
    }

    /// Produce a user-verifiable anchoring proof for a sealed record.
    pub fn prove_record(&self, id: &RecordId) -> Result<RecordProof, CoreError> {
        let tx_id = self
            .records
            .record_tx
            .get(id)
            .ok_or(CoreError::UnknownRecord(*id))?;
        let inclusion = self
            .chain()
            .prove_tx(tx_id)
            .ok_or(CoreError::UnknownRecord(*id))?;
        Ok(RecordProof {
            record_id: *id,
            tx_id: *tx_id,
            inclusion,
        })
    }

    /// Re-verify the whole chain (Figure 2 integrity walk).
    pub fn verify_chain(&self) -> Result<(), CoreError> {
        self.chain().verify_integrity().map_err(CoreError::Chain)
    }

    /// On-chain bytes (block store) — experiment E3.
    pub fn onchain_bytes(&self) -> u64 {
        self.chain().stored_bytes()
    }

    /// Off-chain bytes — experiment E3.
    pub fn offchain_bytes(&self) -> u64 {
        self.offchain.stored_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockprov_provenance::Domain;

    fn ledger() -> ProvenanceLedger {
        ProvenanceLedger::open(LedgerConfig::private_default())
    }

    #[test]
    fn end_to_end_record_seal_prove_verify() {
        let mut l = ledger();
        let alice = l.register_agent("alice").unwrap();
        l.register_entity("report.pdf", b"v1").unwrap();
        let rid = l
            .apply_operation(&alice, "report.pdf", Action::Update, b"v2")
            .unwrap();
        l.seal_block().unwrap();

        let proof = l.prove_record(&rid).unwrap();
        let record = l.record(&rid).unwrap().clone();
        assert!(proof.verify(&record));
        assert!(l.chain().is_canonical(&proof.inclusion.block_hash));
        l.verify_chain().unwrap();
    }

    #[test]
    fn unknown_agent_rejected() {
        let mut l = ledger();
        let ghost = AccountId::from_name("ghost");
        assert!(matches!(
            l.apply_operation(&ghost, "f", Action::Read, &[]),
            Err(CoreError::UnknownAgent(_))
        ));
    }

    #[test]
    fn unsealed_record_has_no_proof_but_is_queryable() {
        let mut l = ledger();
        let alice = l.register_agent("alice").unwrap();
        let rid = l
            .apply_operation(&alice, "f", Action::Create, b"x")
            .unwrap();
        assert!(matches!(
            l.prove_record(&rid),
            Err(CoreError::UnknownRecord(_))
        ));
        let res = l.query(&ProvQuery::BySubject("f".into()));
        assert_eq!(res.ids, vec![rid]);
    }

    #[test]
    fn derivation_chain_links_successive_operations() {
        let mut l = ledger();
        let alice = l.register_agent("alice").unwrap();
        let r1 = l
            .apply_operation(&alice, "f", Action::Create, b"v1")
            .unwrap();
        let r2 = l
            .apply_operation(&alice, "f", Action::Update, b"v2")
            .unwrap();
        let r3 = l
            .apply_operation(&alice, "f", Action::Update, b"v3")
            .unwrap();
        let rec3 = l.record(&r3).unwrap();
        assert_eq!(rec3.parents, vec![r2]);
        let anc = l.graph().ancestors(&r3).unwrap();
        assert_eq!(anc, vec![r2, r1]);
    }

    #[test]
    fn storage_modes_split_bytes_differently() {
        let payload = vec![0xABu8; 4096];
        let mut anchored = ProvenanceLedger::open(
            LedgerConfig::private_default().with_storage(StorageMode::HashAnchored),
        );
        let a = anchored.register_agent("a").unwrap();
        anchored
            .apply_operation(&a, "f", Action::Create, &payload)
            .unwrap();
        anchored.seal_block().unwrap();

        let mut full = ProvenanceLedger::open(
            LedgerConfig::private_default().with_storage(StorageMode::OnChainFull),
        );
        let b = full.register_agent("a").unwrap();
        full.apply_operation(&b, "f", Action::Create, &payload)
            .unwrap();
        full.seal_block().unwrap();

        assert!(full.onchain_bytes() > anchored.onchain_bytes() + 3000);
        assert_eq!(full.offchain_bytes(), 0);
        assert!(anchored.offchain_bytes() >= 4096);
    }

    #[test]
    fn public_chain_mines_and_validates_pow() {
        let mut l = ProvenanceLedger::open(LedgerConfig::public_default());
        let a = l.register_agent("a").unwrap();
        l.apply_operation(&a, "f", Action::Create, b"x").unwrap();
        let hash = l.seal_block().unwrap();
        let block = l.chain().block(&hash).unwrap();
        assert!(block.header.difficulty_bits == 8);
        assert!(block.header.meets_difficulty());
        l.verify_chain().unwrap();
    }

    #[test]
    fn consortium_rotates_stake_weighted_proposers() {
        let mut l =
            ProvenanceLedger::open(LedgerConfig::consortium(4).with_domain(Domain::Generic));
        let a = l.register_agent("a").unwrap();
        let mut proposers = std::collections::BTreeSet::new();
        for i in 0..12 {
            l.apply_operation(&a, &format!("f{i}"), Action::Create, b"x")
                .unwrap();
            let h = l.seal_block().unwrap();
            proposers.insert(l.chain().block(&h).unwrap().header.proposer);
        }
        assert!(proposers.len() > 1, "multiple validators should win");
    }

    #[test]
    fn empty_seal_is_a_noop() {
        let mut l = ledger();
        let tip = l.chain().tip();
        assert_eq!(l.seal_block().unwrap(), tip);
    }

    #[test]
    fn cache_serves_repeated_queries() {
        let mut l = ledger();
        let a = l.register_agent("a").unwrap();
        l.apply_operation(&a, "f", Action::Create, b"x").unwrap();
        let q = ProvQuery::BySubject("f".into());
        let _ = l.query(&q);
        let second = l.query(&q);
        assert!(second.from_cache);
        assert_eq!(l.cache_stats().0, 1);
    }

    fn tiered_store(dir: &std::path::Path) -> Box<dyn blockprov_ledger::store::BlockStore> {
        use blockprov_ledger::segment::{TieredConfig, TieredStore};
        Box::new(
            TieredStore::open(
                dir,
                TieredConfig {
                    segment_bytes: 64 * 1024,
                    hot_capacity: 16,
                },
            )
            .unwrap(),
        )
    }

    /// Open a ledger over the block store in `dir`, with the index and
    /// metadata tiers in a fresh `dir/{tag}`: with no snapshot to start
    /// from, the open replays the whole store.
    fn open_over_store(
        config: &LedgerConfig,
        dir: &std::path::Path,
        tag: &str,
    ) -> ProvenanceLedger {
        use blockprov_ledger::index::{TxIndex, TxIndexConfig};
        use blockprov_ledger::meta::{MetaConfig, MetaStore};
        let tiers = dir.join(tag);
        let _ = std::fs::remove_dir_all(&tiers);
        ProvenanceLedger::open_with_tiers(
            config.clone(),
            tiered_store(dir),
            TxIndex::open(tiers.join("index"), TxIndexConfig::default()).unwrap(),
            MetaStore::open(tiers.join("meta"), MetaConfig::default()).unwrap(),
        )
        .unwrap()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("blockprov-core-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ledger_over_tiered_store_serves_queries_and_replays_after_restart() {
        let dir = temp_dir("tiered");
        let config = LedgerConfig::private_default().with_finality(4);
        let (rid, tip, height);
        {
            let mut l = open_over_store(&config, &dir, "first");
            let alice = l.register_agent("alice").unwrap();
            l.register_entity("report.pdf", b"v1").unwrap();
            rid = l
                .apply_operation(&alice, "report.pdf", Action::Update, b"v2")
                .unwrap();
            l.seal_block().unwrap();
            // Grow history so finality advances and old blocks go cold.
            for i in 0..12 {
                l.apply_operation(&alice, &format!("f{i}"), Action::Create, b"x")
                    .unwrap();
                l.seal_block().unwrap();
            }
            // Query paths run over the tiered chain.
            let res = l.query(&ProvQuery::BySubject("report.pdf".into()));
            assert_eq!(res.ids.len(), 2);
            let proof = l.prove_record(&rid).unwrap();
            let record = l.record(&rid).unwrap().clone();
            assert!(proof.verify(&record));
            l.verify_chain().unwrap();
            assert!(l.chain().finalized_height() > 0);
            assert!(l.chain().resident_blocks() <= 16);
            tip = l.chain().tip();
            height = l.chain().height();
        }

        // "Restart": replay the same segment directory.
        let mut l = open_over_store(&config, &dir, "restart");
        assert_eq!(l.chain().tip(), tip);
        assert_eq!(l.chain().height(), height);
        l.verify_chain().unwrap();
        // Sealed provenance state is reconstructed: graph, query indexes,
        // and record→tx anchoring all survive.
        let res = l.query(&ProvQuery::BySubject("report.pdf".into()));
        assert_eq!(res.ids.len(), 2);
        let record = l.record(&rid).unwrap().clone();
        let proof = l.prove_record(&rid).unwrap();
        assert!(proof.verify(&record));
        // The derivation edge survives replay too.
        assert_eq!(l.graph().ancestors(&rid).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ledger_over_indexed_store_bounds_resident_index_and_replays() {
        use blockprov_ledger::index::{TxIndex, TxIndexConfig};
        use blockprov_ledger::meta::{MetaConfig, MetaStore};
        let dir = temp_dir("indexed");
        let config = LedgerConfig::private_default().with_finality(4);
        let index_config = TxIndexConfig {
            partitions: 4,
            page_entries: 8,
            cached_pages: 8,
        };
        // Each open gets a fresh metadata tier, so the restart replays the
        // whole store over the durable index.
        let open = |config: &LedgerConfig, meta: &str| {
            ProvenanceLedger::open_with_tiers(
                config.clone(),
                tiered_store(&dir),
                TxIndex::open(dir.join("txindex"), index_config).unwrap(),
                MetaStore::open(dir.join(meta), MetaConfig::default()).unwrap(),
            )
            .unwrap()
        };
        let (rid, tip, height);
        {
            let mut l = open(&config, "meta-first");
            let alice = l.register_agent("alice").unwrap();
            l.register_entity("report.pdf", b"v1").unwrap();
            rid = l
                .apply_operation(&alice, "report.pdf", Action::Update, b"v2")
                .unwrap();
            l.seal_block().unwrap();
            for i in 0..24 {
                l.apply_operation(&alice, &format!("f{i}"), Action::Create, b"x")
                    .unwrap();
                l.seal_block().unwrap();
            }
            // The mutable index covers only the non-finalized suffix…
            let suffix = l.chain().height() - l.chain().finalized_height();
            assert!(
                (l.chain().resident_index_entries() as u64) <= 2 * suffix,
                "resident index entries {} not bounded by suffix {suffix}",
                l.chain().resident_index_entries()
            );
            // …while finalized entries are served from the durable tier.
            assert!(l.chain().tx_index().unwrap().entries() > 0);
            let proof = l.prove_record(&rid).unwrap();
            assert!(proof.verify(&l.record(&rid).unwrap().clone()));
            tip = l.chain().tip();
            height = l.chain().height();
        }

        // Restart: chain queries rehydrate from index pages, and the
        // provenance layer is rebuilt from one pass over the block store.
        let mut l = open(&config, "meta-restart");
        assert_eq!(l.chain().tip(), tip);
        assert_eq!(l.chain().height(), height);
        l.verify_chain().unwrap();
        let res = l.query(&ProvQuery::BySubject("report.pdf".into()));
        assert_eq!(res.ids.len(), 2);
        let record = l.record(&rid).unwrap().clone();
        assert!(l.prove_record(&rid).unwrap().verify(&record));
        // Nonces continue, so new operations seal cleanly.
        let alice = l.register_agent("alice").unwrap();
        l.apply_operation(&alice, "f-new", Action::Create, b"y")
            .unwrap();
        l.seal_block().unwrap();
        l.verify_chain().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ledger_over_all_three_tiers_fast_starts_from_snapshot() {
        use blockprov_ledger::index::{TxIndex, TxIndexConfig};
        use blockprov_ledger::meta::{MetaConfig, MetaStore};
        let dir = temp_dir("tiers");
        let config = LedgerConfig::private_default().with_finality(4);
        let index_config = TxIndexConfig {
            partitions: 4,
            page_entries: 8,
            cached_pages: 8,
        };
        let open = |config: &LedgerConfig| {
            ProvenanceLedger::open_with_tiers(
                config.clone(),
                tiered_store(&dir),
                TxIndex::open(dir.join("txindex"), index_config).unwrap(),
                MetaStore::open(dir.join("meta"), MetaConfig::default()).unwrap(),
            )
            .unwrap()
        };
        let (rid, tip, height);
        {
            let mut l = open(&config);
            let alice = l.register_agent("alice").unwrap();
            l.register_entity("report.pdf", b"v1").unwrap();
            rid = l
                .apply_operation(&alice, "report.pdf", Action::Update, b"v2")
                .unwrap();
            l.seal_block().unwrap();
            for i in 0..24 {
                l.apply_operation(&alice, &format!("f{i}"), Action::Create, b"x")
                    .unwrap();
                l.seal_block().unwrap();
            }
            // Resident chain metadata is bounded by the finality window,
            // not history.
            let r = l.chain().resident_metadata();
            let suffix = l.chain().height() - l.chain().finalized_height();
            assert!(
                (r.canonical as u64) == suffix + 1,
                "canonical suffix {} vs window {suffix}",
                r.canonical
            );
            tip = l.chain().tip();
            height = l.chain().height();
        }

        // Restart: the chain fast-starts from the snapshot — only the
        // non-finalized suffix is re-validated — while provenance state is
        // rebuilt from one pass over the stored canonical blocks.
        let mut l = open(&config);
        assert_eq!(l.chain().tip(), tip);
        assert_eq!(l.chain().height(), height);
        assert!(
            l.chain().appended_blocks() <= 5,
            "fast start re-absorbed {} blocks",
            l.chain().appended_blocks()
        );
        l.verify_chain().unwrap();
        let res = l.query(&ProvQuery::BySubject("report.pdf".into()));
        assert_eq!(res.ids.len(), 2);
        let record = l.record(&rid).unwrap().clone();
        assert!(l.prove_record(&rid).unwrap().verify(&record));
        // Nonces continue across the fast start.
        let alice = l.register_agent("alice").unwrap();
        l.apply_operation(&alice, "f-new", Action::Create, b"y")
            .unwrap();
        l.seal_block().unwrap();
        l.verify_chain().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_restores_author_nonces() {
        let dir = temp_dir("nonces");
        let config = LedgerConfig::private_default();
        {
            let mut l = open_over_store(&config, &dir, "first");
            let a = l.register_agent("alice").unwrap();
            for i in 0..3 {
                l.apply_operation(&a, &format!("f{i}"), Action::Create, b"x")
                    .unwrap();
            }
            l.seal_block().unwrap();
        }
        let mut l = open_over_store(&config, &dir, "restart");
        // A fresh operation must continue the nonce sequence, not restart it
        // (a restarted sequence would collide in the mempool).
        let a = l.register_agent("alice").unwrap();
        l.apply_operation(&a, "f-new", Action::Create, b"y")
            .unwrap();
        l.seal_block().unwrap();
        l.verify_chain().unwrap();
        assert_eq!(l.chain().height(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ledger_reader_serves_concurrent_queries_while_sealing() {
        let mut l = ProvenanceLedger::open(LedgerConfig::private_default().with_finality(4));
        let alice = l.register_agent("alice").unwrap();
        l.apply_operation(&alice, "f0", Action::Create, b"x")
            .unwrap();
        l.seal_block().unwrap();
        let reader = l.reader();
        let poller = {
            let r = reader.clone();
            std::thread::spawn(move || loop {
                // Every pinned view must be internally consistent no matter
                // where the writer is: the tip resolves at the view's own
                // height.
                let v = r.view();
                assert_eq!(v.hash_at(v.height()), Some(v.tip()), "torn view");
                if v.height() >= 10 {
                    break;
                }
                std::thread::yield_now();
            })
        };
        for i in 1..=12 {
            l.apply_operation(&alice, &format!("f{i}"), Action::Create, b"x")
                .unwrap();
            l.seal_block().unwrap();
        }
        poller.join().unwrap();
        let view = reader.view();
        assert_eq!(view.height(), l.chain().height());
        assert_eq!(view.tip(), l.chain().tip());
        assert_eq!(view.txs_by_kind(txkind::PROVENANCE).len(), 13);
        let some_id = view.txs_by_kind(txkind::PROVENANCE)[4];
        let proof = view.prove_tx(&some_id).expect("proof through reader");
        assert!(proof.verify());
    }

    #[test]
    fn schema_enforcement_rejects_incomplete_domain_records() {
        let mut l = ProvenanceLedger::open(
            LedgerConfig::private_default().with_domain(Domain::SupplyChain),
        );
        let a = l.register_agent("factory").unwrap();
        // The capture pipeline does not fill supply-chain fields, so schema
        // enforcement must reject the bare operation.
        assert!(matches!(
            l.apply_operation(&a, "device-1", Action::Create, b""),
            Err(CoreError::Schema(_))
        ));
        // A fully-specified record submitted directly passes.
        let record = ProvenanceRecord::new("device-1", a, Action::Create, 99, Domain::SupplyChain)
            .with_field("unique_product_id", "device-1")
            .with_field("manufacturer_id", "acme");
        l.submit_record(record, b"").unwrap();
    }
}
