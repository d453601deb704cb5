//! End-to-end node test: a real server on an ephemeral port, a real HTTP
//! client, and a direct [`ProvenanceLedger`] oracle ingesting the very
//! same mixed-scenario stream.
//!
//! Covers the ISSUE 10 acceptance path: HTTP ingest through the bounded
//! queue, every read endpoint agreeing with the oracle (tip, blocks, txs,
//! every artifact's provenance, Merkle proofs), backpressure 429s with
//! `Retry-After`, metrics/healthz wiring, graceful shutdown (the SIGTERM
//! handler in the binary calls the same [`Node::shutdown`]), and a reopen
//! that fast-starts from the clean-shutdown snapshot instead of
//! re-validating finalized history.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use blockprov_core::{txkind, CoreError, LedgerConfig, ProvenanceLedger};
use blockprov_crypto::sha256::{sha256, Hash256};
use blockprov_ledger::{AccountId, Block, BlockHash, Transaction};
use blockprov_node::{Node, NodeConfig};
use blockprov_provenance::{Action, Domain, ProvenanceRecord, RecordId};
use blockprov_wire::{encode_seq, Codec, Writer};
use flood::{artifact_name, flood_blocks, mixed_tx};

mod flood;

const FINALITY: u64 = 8;
const BLOCKS: u64 = 96;
const TXS_PER_BLOCK: u64 = 4;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blockprov-node-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One-shot HTTP exchange over a fresh connection:
/// `(status, body, retry_after_seconds)`.
fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> (u16, String, Option<u64>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    read_response(&mut BufReader::new(stream))
}

/// Read one `Content-Length`-framed response off a connection.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String, Option<u64>) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let mut content_length = 0usize;
    let mut retry_after = None;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => content_length = value.trim().parse().unwrap_or(0),
                "retry-after" => retry_after = value.trim().parse().ok(),
                _ => {}
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (
        status,
        String::from_utf8_lossy(&body).into_owned(),
        retry_after,
    )
}

fn get(addr: &str, path: &str) -> (u16, String) {
    let (status, body, _) = request(addr, "GET", path, b"");
    (status, body)
}

fn post_blocks(addr: &str, blocks: &[Block]) -> (u16, String, Option<u64>) {
    let mut w = Writer::new();
    encode_seq(blocks, &mut w);
    request(addr, "POST", "/blocks", &w.into_bytes())
}

fn json_str(body: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = body.find(&tag)? + tag.len();
    let end = body[start..].find('"')? + start;
    Some(body[start..end].to_string())
}

fn json_u64(body: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let start = body.find(&tag)? + tag.len();
    let digits: String = body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Every `"tx":"<hex>"` value of a `/provenance` body, in body order.
fn json_txs(body: &str) -> Vec<String> {
    body.split("\"tx\":\"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

/// The value of one counter or gauge line on the `/metrics` page.
fn metric(page: &str, name: &str) -> u64 {
    page.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no {name} on /metrics"))
        .parse()
        .expect("integer metric")
}

/// `(genesis hash, genesis timestamp)` as served by the node.
fn genesis_info(addr: &str) -> (BlockHash, u64) {
    let (_, tip_body) = get(addr, "/tip");
    let hash = BlockHash(
        Hash256::from_hex(&json_str(&tip_body, "hash").expect("tip hash")).expect("tip hex"),
    );
    let (_, genesis_body) = get(addr, "/block/0");
    let ts = json_u64(&genesis_body, "timestamp_ms").expect("genesis ts");
    (hash, ts)
}

#[test]
fn node_agrees_with_direct_ledger_oracle_and_fast_starts() {
    let dir = temp_dir("oracle");
    let config = NodeConfig {
        data_dir: Some(dir.clone()),
        finality_depth: FINALITY,
        queue_capacity: 8,
        hot_capacity: 64,
    };
    let mut node = Node::start("127.0.0.1:0", config.clone()).expect("start node");
    let addr = node.addr().to_string();

    // The node starts at the deterministic genesis; the oracle shares it.
    let (status, tip_body) = get(&addr, "/tip");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&tip_body, "height"), Some(0));
    let (genesis_hash, genesis_ts) = genesis_info(&addr);

    let mut oracle =
        ProvenanceLedger::open(LedgerConfig::private_default().with_finality(FINALITY));
    let oracle_reader = oracle.reader();
    assert_eq!(
        oracle_reader.view().tip().0,
        genesis_hash.0,
        "node and oracle must share the deterministic genesis"
    );

    // Ingest the same mixed-scenario stream over HTTP and directly.
    let stream = flood_blocks(genesis_hash, 0, genesis_ts, BLOCKS, TXS_PER_BLOCK, 0);
    for chunk in stream.chunks(16) {
        let (status, body, _) = post_blocks(&addr, chunk);
        assert_eq!(status, 200, "ingest failed: {body}");
        assert_eq!(json_u64(&body, "committed"), Some(chunk.len() as u64));
        oracle.ingest_blocks(chunk.to_vec()).expect("oracle ingest");
    }

    // Tip agreement.
    let (_, tip_body) = get(&addr, "/tip");
    assert_eq!(json_u64(&tip_body, "height"), Some(BLOCKS));
    assert_eq!(
        json_str(&tip_body, "hash"),
        Some(oracle_reader.view().tip().0.to_hex())
    );
    assert_eq!(
        json_u64(&tip_body, "finalized_height"),
        Some(oracle_reader.view().finalized_height())
    );

    // Block agreement at a finalized height, a suffix height and the tip.
    for h in [1, BLOCKS / 2, BLOCKS] {
        let (status, body) = get(&addr, &format!("/block/{h}"));
        assert_eq!(status, 200);
        let oracle_hash = oracle_reader
            .view()
            .hash_at(h)
            .expect("oracle hash")
            .0
            .to_hex();
        assert_eq!(json_str(&body, "hash"), Some(oracle_hash), "height {h}");
        assert_eq!(json_u64(&body, "tx_count"), Some(TXS_PER_BLOCK));
    }
    let (status, _) = get(&addr, &format!("/block/{}", BLOCKS + 100));
    assert_eq!(status, 404);

    // Transaction agreement: one finalized, one in the mutable suffix.
    for block_idx in [0usize, (BLOCKS - 1) as usize] {
        let tx = &stream[block_idx].txs[1];
        let id_hex = tx.id().0.to_hex();
        let (status, body) = get(&addr, &format!("/tx/{id_hex}"));
        assert_eq!(status, 200);
        assert_eq!(json_u64(&body, "block_height"), Some(block_idx as u64 + 1));
        assert_eq!(json_u64(&body, "kind"), Some(txkind::PROVENANCE as u64));
        let (ob, opos) = oracle_reader.view().tx_by_id(&tx.id()).expect("oracle tx");
        assert_eq!(json_str(&body, "block"), Some(ob.0.to_hex()));
        assert_eq!(json_u64(&body, "position"), Some(opos as u64));
        // The decoded record rides along for provenance txs.
        assert_eq!(
            json_str(&body, "subject"),
            Some(artifact_name(block_idx as u64 * TXS_PER_BLOCK + 1))
        );
    }

    // Per-artifact provenance agreement, every artifact: the count and
    // the carrying transactions in chain order, against the stream itself.
    let mut by_artifact: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (i, tx) in stream.iter().flat_map(|b| &b.txs).enumerate() {
        by_artifact
            .entry(artifact_name(i as u64))
            .or_default()
            .push(tx.id().0.to_hex());
    }
    assert!(
        by_artifact.values().any(|txs| txs.len() > 1),
        "artifact rotation must revisit names"
    );
    for (artifact, txs) in &by_artifact {
        let (status, body) = get(&addr, &format!("/provenance/{artifact}"));
        assert_eq!(status, 200);
        let count = json_u64(&body, "count");
        assert_eq!(count, Some(txs.len() as u64), "{artifact}");
        assert_eq!(&json_txs(&body), txs, "{artifact}");
    }

    // A malformed escape in the artifact name is a literal, not a panic:
    // `%` + one ASCII char + a raw multi-byte char used to kill the
    // connection thread on a char boundary. The connection must survive.
    let mut conn = BufReader::new(TcpStream::connect(&addr).expect("connect"));
    conn.get_mut()
        .write_all("GET /provenance/%a\u{e9} HTTP/1.1\r\nhost: test\r\n\r\n".as_bytes())
        .expect("write");
    let (status, body, _) = read_response(&mut conn);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "count"), Some(0));
    conn.get_mut()
        .write_all(b"GET /tip HTTP/1.1\r\nhost: test\r\n\r\n")
        .expect("write on the same connection");
    assert_eq!(read_response(&mut conn).0, 200);
    drop(conn);

    // Proof agreement: the node's proof verifies and matches the oracle's.
    let proved_tx = &stream[3].txs[2];
    let id_hex = proved_tx.id().0.to_hex();
    let (status, body) = get(&addr, &format!("/prove/{id_hex}"));
    assert_eq!(status, 200);
    assert!(
        body.contains("\"verified\":true"),
        "proof must verify: {body}"
    );
    let oracle_proof = oracle_reader
        .view()
        .prove_tx(&proved_tx.id())
        .expect("oracle proof");
    assert_eq!(
        json_u64(&body, "leaf_index"),
        Some(oracle_proof.proof.leaf_index)
    );
    assert_eq!(
        json_u64(&body, "leaf_count"),
        Some(oracle_proof.proof.leaf_count)
    );
    assert_eq!(
        json_str(&body, "block"),
        Some(oracle_proof.block_hash.0.to_hex())
    );

    // Unknown entities 404; malformed ids 400.
    let fake = "00".repeat(32);
    assert_eq!(get(&addr, &format!("/tx/{fake}")).0, 404);
    assert_eq!(get(&addr, &format!("/prove/{fake}")).0, 404);
    assert_eq!(get(&addr, "/tx/not-hex").0, 400);
    assert_eq!(get(&addr, "/nope").0, 404);

    // Health + metrics reflect the traffic.
    let (status, health) = get(&addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(json_str(&health, "status"), Some("ok".into()));
    assert_eq!(json_u64(&health, "height"), Some(BLOCKS));
    assert_eq!(json_u64(&health, "ingested_blocks"), Some(BLOCKS));
    let (status, metrics) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains(&format!("node_ingest_blocks_total {BLOCKS}")));
    assert!(metrics.contains("node_query_tip_total"));
    assert!(metrics.contains("node_ingest_latency_ns_count"));
    // The page names the hash kernel its timings were taken on, last.
    let kernel = blockprov_crypto::sha256::kernel();
    assert!(["sha-ni", "portable"].contains(&kernel));
    assert!(metrics.ends_with(&format!("node_sha256_kernel{{kernel=\"{kernel}\"}} 1\n")));
    // Each artifact was audited once over a fork-free chain: the audits
    // resolved one postings entry per record returned, one per transaction
    // of the stream in all — a count of work done, whatever the history.
    let total = BLOCKS * TXS_PER_BLOCK;
    assert_eq!(metric(&metrics, "node_provenance_candidates_total"), total);
    assert_eq!(metric(&metrics, "node_provenance_matches_total"), total);
    assert_eq!(metric(&metrics, "node_provenance_postings"), total);
    assert_eq!(
        metric(&metrics, "node_query_provenance_total"),
        by_artifact.len() as u64 + 1
    );

    // SIGTERM-equivalent shutdown: drains, syncs the snapshot, stops.
    node.shutdown().expect("clean shutdown");
    drop(node);

    // Reopen from the same tiers: tip and finalized history both survive.
    let node2 = Node::start("127.0.0.1:0", config).expect("reopen node");
    let addr2 = node2.addr().to_string();
    let (status, tip_body) = get(&addr2, "/tip");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&tip_body, "height"), Some(BLOCKS));
    assert_eq!(
        json_str(&tip_body, "hash"),
        Some(oracle_reader.view().tip().0.to_hex())
    );
    let (status, body) = get(&addr2, &format!("/tx/{}", stream[0].txs[0].id().0.to_hex()));
    assert_eq!(status, 200);
    assert_eq!(json_u64(&body, "block_height"), Some(1));
    // The reopen rebuilt every posting, and `/metrics` splits its startup
    // into the replay and the postings rebuild.
    let (status, metrics) = get(&addr2, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(metric(&metrics, "node_provenance_postings"), total);
    assert!(metric(&metrics, "node_open_replay_us") > 0);
    assert!(metric(&metrics, "node_open_postings_us") > 0);
    drop(node2);

    // The fast-start claim itself, via a direct reopen: a snapshot-driven
    // open re-absorbs at most the non-finalized suffix.
    let store = blockprov_ledger::TieredStore::open(
        dir.join("blocks"),
        blockprov_ledger::TieredConfig::default(),
    )
    .expect("reopen store");
    let index = blockprov_ledger::TxIndex::open(
        dir.join("index"),
        blockprov_ledger::TxIndexConfig::default(),
    )
    .expect("reopen index");
    let meta = blockprov_ledger::MetaStore::open(
        dir.join("meta"),
        blockprov_ledger::MetaConfig::default(),
    )
    .expect("reopen meta");
    let reopened = ProvenanceLedger::open_with_tiers(
        LedgerConfig::private_default().with_finality(FINALITY),
        Box::new(store),
        index,
        meta,
    )
    .expect("reopen ledger");
    let replayed = reopened.chain().appended_blocks();
    assert!(
        replayed <= BLOCKS - FINALITY + 1,
        "fast start must skip finalized history (re-absorbed {replayed} of {BLOCKS})"
    );
    drop(reopened);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn backpressure_surfaces_as_429_with_retry_after() {
    // A rendezvous queue (capacity 0) accepts a batch only while the
    // writer is blocked waiting for one — so with the writer busy on a
    // large commit, the next POST bounces deterministically.
    let config = NodeConfig {
        data_dir: None,
        finality_depth: 4,
        queue_capacity: 0,
        hot_capacity: 16,
    };
    let mut node = Node::start("127.0.0.1:0", config).expect("start node");
    let addr = node.addr().to_string();
    let (genesis_hash, genesis_ts) = genesis_info(&addr);

    // One chained stream, split into an expensive head and a small tail.
    let stream = flood_blocks(genesis_hash, 0, genesis_ts, 520, 8, 0);
    let (head, tail) = stream.split_at(512);

    let post_addr = addr.clone();
    let head_blocks = head.to_vec();
    let head_thread = std::thread::spawn(move || post_blocks(&post_addr, &head_blocks));
    // Give the head time to reach the writer; it commits 512 blocks x
    // 8 txs, far longer than these margins.
    std::thread::sleep(std::time::Duration::from_millis(50));

    let (status, body, retry_after) = post_blocks(&addr, tail);
    assert_eq!(status, 429, "expected backpressure bounce, got: {body}");
    assert!(
        retry_after.is_some(),
        "429 must carry Retry-After for well-behaved clients"
    );

    let (status, body, _) = head_thread.join().expect("head thread");
    assert_eq!(status, 200, "head batch must commit: {body}");

    // A bounced batch is not partially applied: retry it verbatim.
    loop {
        let (status, body, _) = post_blocks(&addr, tail);
        if status == 200 {
            assert_eq!(json_u64(&body, "committed"), Some(tail.len() as u64));
            break;
        }
        assert_eq!(status, 429, "retry must bounce or commit: {body}");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let (_, tip_body) = get(&addr, "/tip");
    assert_eq!(json_u64(&tip_body, "height"), Some(520));

    // The bounce is visible on /metrics.
    let (_, metrics) = get(&addr, "/metrics");
    assert!(
        metric(&metrics, "node_ingest_backpressure_total") >= 1,
        "backpressure counter must record the bounce"
    );

    // Validation failures are 409 (orphan parent), not transport errors.
    // A rendezvous queue accepts only while the writer is parked in recv,
    // so ride out scheduling jitter by retrying 429s.
    let orphan = flood_blocks(BlockHash::ZERO, 41, genesis_ts, 1, 1, 777);
    let status = loop {
        let (status, body, _) = post_blocks(&addr, &orphan);
        if status != 429 {
            assert_eq!(status, 409, "orphan must be rejected by the chain: {body}");
            break status;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert_eq!(status, 409);

    // Undecodable bodies are 400.
    let (status, _, _) = request(&addr, "POST", "/blocks", b"garbage");
    assert_eq!(status, 400);

    // After shutdown, ingest is refused (connection or request level).
    node.shutdown().expect("shutdown");
    let refused = match TcpStream::connect(&addr) {
        Err(_) => true,
        Ok(_) => match std::panic::catch_unwind(|| post_blocks(&addr, tail)) {
            Ok((status, _, _)) => status != 200,
            Err(_) => true, // connection reset mid-request
        },
    };
    assert!(refused, "ingest must be refused after shutdown");
}

#[test]
fn in_memory_node_serves_mixed_tx_shapes() {
    // Cheap smoke for the in-memory mode (no data_dir): single txs built
    // by `mixed_tx` round-trip through ingest and decode on /tx.
    let mut node = Node::start("127.0.0.1:0", NodeConfig::default()).expect("start");
    let addr = node.addr().to_string();
    let (genesis_hash, ts) = genesis_info(&addr);

    let tx = mixed_tx(0, ts + 1);
    let block = Block::assemble(
        1,
        genesis_hash,
        ts + 1,
        AccountId::from_name("sealer"),
        0,
        vec![tx.clone()],
    );
    let (status, _, _) = post_blocks(&addr, &[block]);
    assert_eq!(status, 200);
    let (status, body) = get(&addr, &format!("/tx/{}", tx.id().0.to_hex()));
    assert_eq!(status, 200);
    assert_eq!(json_str(&body, "subject"), Some(artifact_name(0)));
    node.shutdown().expect("shutdown");
}

#[test]
fn a_record_naming_an_unknown_parent_is_committed_and_served() {
    // The node keeps no derivation graph, so it cannot refuse a record: one
    // naming a parent nobody recorded commits with `200` and is served like
    // any other. (`409` is for blocks the chain refuses.) The in-process
    // ledger commits the same block and still reports the graph's refusal.
    let mut node = Node::start("127.0.0.1:0", NodeConfig::default()).expect("start");
    let addr = node.addr().to_string();
    let (genesis_hash, ts) = genesis_info(&addr);

    let author = AccountId::from_name("orphan-author");
    let record = ProvenanceRecord::new(
        "orphaned-artifact",
        author,
        Action::Update,
        ts + 1,
        Domain::Generic,
    )
    .with_parent(RecordId(sha256(b"never recorded")));
    let tx = Transaction::new(author, 0, ts + 1, txkind::PROVENANCE, record.to_wire());
    let block = Block::assemble(
        1,
        genesis_hash,
        ts + 1,
        AccountId::from_name("sealer"),
        0,
        vec![tx.clone()],
    );

    let (status, body, _) = post_blocks(&addr, std::slice::from_ref(&block));
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_u64(&body, "committed"), Some(1));
    let id_hex = tx.id().0.to_hex();
    let (status, body) = get(&addr, &format!("/tx/{id_hex}"));
    assert_eq!(status, 200);
    assert_eq!(json_str(&body, "subject"), Some("orphaned-artifact".into()));
    let (status, body) = get(&addr, "/provenance/orphaned-artifact");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&body, "count"), Some(1));
    assert_eq!(json_txs(&body), vec![id_hex]);

    let mut oracle = ProvenanceLedger::open(LedgerConfig::private_default());
    assert!(matches!(
        oracle.ingest_blocks(vec![block]),
        Err(CoreError::Graph(_))
    ));
    assert_eq!(oracle.chain().height(), 1, "the ledger committed it too");
    node.shutdown().expect("shutdown");
}

#[test]
fn a_data_dir_of_another_format_is_refused_once_naming_index_and_meta() {
    use blockprov_wire::index::{write_page_to, BloomFilter, IndexPageHeader};
    use blockprov_wire::meta::{encode_snapshot_slot, CheckpointSnapshot, SNAPSHOT_VERSION};

    let dir = temp_dir("stale");
    // One index page of version 1 and one intact snapshot of version 4,
    // as an older build would have left them.
    std::fs::create_dir_all(dir.join("index")).unwrap();
    let page = IndexPageHeader {
        version: 1,
        partition: 0,
        sequence: 0,
        entry_count: 0,
        first_height: 1,
        last_height: 1,
        key_bloom: BloomFilter::with_capacity(0),
        tag_mask: 0,
    };
    let mut pages = Vec::new();
    write_page_to(&mut pages, &page, &[]).unwrap();
    std::fs::write(dir.join("index").join("idx-00.pages"), pages).unwrap();
    std::fs::create_dir_all(dir.join("meta")).unwrap();
    let snapshot = CheckpointSnapshot {
        version: SNAPSHOT_VERSION - 1,
        height: 1,
        hash: [7; 32],
        index_watermarks: Vec::new(),
        index_durable_height: 0,
        nonce_floors: Vec::new(),
        height_map_len: 0,
    };
    let slot = encode_snapshot_slot(1, &snapshot.to_wire(), |b| sha256(b).0);
    std::fs::write(dir.join("meta").join("snapshot.0"), slot).unwrap();

    let config = NodeConfig {
        data_dir: Some(dir.clone()),
        ..NodeConfig::default()
    };
    let Err(err) = Node::start("127.0.0.1:0", config) else {
        panic!("a stale data directory must be refused");
    };
    let msg = err.to_string();
    for part in ["index/", "version 1", "meta/", "version 4"] {
        assert!(msg.contains(part), "{part:?} missing from: {msg}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
