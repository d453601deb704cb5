//! Golden data dir: pins the on-disk format of every durable tier.
//!
//! `tests/golden/v5/` holds the data dir a fixed 40-block stream leaves
//! behind — unsigned transactions, fixed timestamps, finality depth 3, two
//! authors and one fork — written through `Chain::with_tiers` and closed
//! cleanly. One test opens a copy of it and queries it against an
//! in-memory chain fed the same stream; the other writes the stream again
//! and requires every file to be byte-identical to the checked-in copy.
//! The snapshot slots are compared decoded, with the nonce floors as a
//! set, because the chain encodes them in `HashMap` order.
//!
//! A deliberate format change regenerates the dir (and bumps
//! `SNAPSHOT_VERSION` and the directory name with it):
//!
//! ```sh
//! cargo test -p blockprov-ledger --test golden_format -- --ignored regenerate_golden
//! ```

use blockprov_ledger::block::Block;
use blockprov_ledger::chain::{Chain, ChainConfig};
use blockprov_ledger::index::{TxIndex, TxIndexConfig};
use blockprov_ledger::meta::{MetaConfig, MetaStore};
use blockprov_ledger::segment::{TieredConfig, TieredStore};
use blockprov_ledger::tx::{AccountId, Transaction};
use blockprov_wire::meta::{decode_snapshot_slot, CheckpointSnapshot};
use blockprov_wire::Codec;
use std::path::{Path, PathBuf};

/// Height at which a one-block branch is replaced by a two-block rival.
const FORK_HEIGHT: u64 = 20;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/v5")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blockprov-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> ChainConfig {
    ChainConfig {
        finality_depth: Some(3),
        ..ChainConfig::default()
    }
}

fn authors() -> [AccountId; 2] {
    [AccountId::from_name("alice"), AccountId::from_name("bob")]
}

/// The fixed stream: 40 blocks of one transaction each, alice on even
/// heights and bob on odd ones. At [`FORK_HEIGHT`] a block is followed by
/// a rival at the same height and the rival's child, so the rival branch
/// wins and the first block stays in the store as fork residue.
fn stream() -> Vec<Block> {
    let sealer = AccountId::from_name("sealer");
    let mut nonces = [0u64; 2];
    let mut tx = |height: u64, payload: &[u8]| {
        let who = (height % 2) as usize;
        let t = Transaction::new(
            authors()[who],
            nonces[who],
            1_000 + height,
            1 + who as u16,
            payload.to_vec(),
        );
        nonces[who] += 1;
        t
    };
    let mut chain = Chain::new(config());
    let mut out = Vec::new();
    let mut push = |chain: &mut Chain, block: Block| {
        chain.append(block.clone()).unwrap();
        out.push(block);
    };
    for height in 1..FORK_HEIGHT {
        let block = chain.assemble_next(10 * height, sealer, 0, vec![tx(height, b"canon")]);
        push(&mut chain, block);
    }
    let parent = chain.tip();
    let (ts, fork_tx) = (10 * FORK_HEIGHT, tx(FORK_HEIGHT, b"loser"));
    let loser = Block::assemble(FORK_HEIGHT, parent, ts, sealer, 0, vec![fork_tx.clone()]);
    push(&mut chain, loser);
    let rival_tx = Transaction {
        payload: b"winner".to_vec(),
        ..fork_tx
    };
    let rival = Block::assemble(FORK_HEIGHT, parent, ts, sealer, 0, vec![rival_tx]);
    push(&mut chain, rival.clone());
    let child = Block::assemble(
        FORK_HEIGHT + 1,
        rival.hash(),
        ts + 10,
        sealer,
        0,
        vec![tx(FORK_HEIGHT + 1, b"canon")],
    );
    push(&mut chain, child);
    for height in FORK_HEIGHT + 2..40 {
        let block = chain.assemble_next(10 * height, sealer, 0, vec![tx(height, b"canon")]);
        push(&mut chain, block);
    }
    assert_eq!(out.len(), 40);
    out
}

/// Open the three tiers of a data dir under the golden configuration.
fn tiers(dir: &Path) -> (Box<TieredStore>, TxIndex, MetaStore) {
    let store = TieredStore::open(
        dir.join("blocks"),
        TieredConfig {
            segment_bytes: 2048,
            hot_capacity: 8,
        },
    )
    .unwrap();
    let index = TxIndex::open(
        dir.join("txindex"),
        TxIndexConfig {
            partitions: 2,
            page_entries: 4,
            cached_pages: 4,
        },
    )
    .unwrap();
    let meta = MetaStore::open(
        dir.join("meta"),
        MetaConfig {
            index_sync_interval: 8,
            snapshot_interval: 4,
        },
    )
    .unwrap();
    (Box::new(store), index, meta)
}

/// Write the stream into a fresh data dir at `dir` and close it cleanly.
fn write_stream(dir: &Path) {
    let (store, index, meta) = tiers(dir);
    let mut chain = Chain::with_tiers(store, Some(index), meta, config());
    for block in stream() {
        chain.append(block).unwrap();
    }
    chain.sync_meta().unwrap();
}

/// Every file under `dir`, as paths relative to it, sorted.
fn files(dir: &Path) -> Vec<PathBuf> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                out.push(path.strip_prefix(root).unwrap().to_path_buf());
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

fn copy_dir(from: &Path, to: &Path) {
    for rel in files(from) {
        std::fs::create_dir_all(to.join(&rel).parent().unwrap()).unwrap();
        std::fs::copy(from.join(&rel), to.join(&rel)).unwrap();
    }
}

/// A snapshot slot's sequence number and snapshot, floors sorted.
fn decoded_slot(bytes: &[u8]) -> Option<(u64, CheckpointSnapshot)> {
    let digest = |b: &[u8]| blockprov_crypto::sha256::sha256(b).0;
    let (seq, payload) = decode_snapshot_slot(bytes, digest)?;
    let mut snap = CheckpointSnapshot::from_wire(payload).unwrap();
    snap.nonce_floors.sort();
    Some((seq, snap))
}

#[test]
fn golden_dir_answers_like_an_in_memory_chain() {
    let stream = stream();
    let mut oracle = Chain::new(config());
    for block in &stream {
        oracle.append(block.clone()).unwrap();
    }
    let dir = temp_dir("open");
    copy_dir(&golden_dir(), &dir);
    let (store, index, meta) = tiers(&dir);
    let mut chain = Chain::replay_with_tiers(store, Some(index), meta, config()).unwrap();
    assert_eq!(chain.tip(), oracle.tip());
    for h in 0..=oracle.height() + 1 {
        assert_eq!(chain.hash_at(h), oracle.hash_at(h), "height {h}");
    }
    for h in [3, FORK_HEIGHT, 38] {
        assert_eq!(chain.block_at(h), oracle.block_at(h), "block at {h}");
    }
    // Finalized deep, the winning rival's, one in the suffix, and the
    // fork loser's, which no canonical block carries.
    let (view, oracle_view) = (chain.reader().view(), oracle.reader().view());
    for block in [&stream[2], &stream[20], &stream[37], &stream[19]] {
        let id = block.txs[0].id();
        assert_eq!(view.tx_by_id(&id), oracle_view.tx_by_id(&id), "tx {id}");
    }
    assert_eq!(view.tx_by_id(&stream[19].txs[0].id()), None);
    for author in authors() {
        assert_eq!(
            chain.next_nonce_for(&author),
            oracle.next_nonce_for(&author)
        );
    }
    drop(chain);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn rewriting_the_stream_reproduces_every_file() {
    let dir = temp_dir("rewrite");
    write_stream(&dir);
    let golden = golden_dir();
    assert_eq!(files(&dir), files(&golden), "file sets differ");
    for rel in files(&golden) {
        let (ours, theirs) = (
            std::fs::read(dir.join(&rel)).unwrap(),
            std::fs::read(golden.join(&rel)).unwrap(),
        );
        if rel
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("snapshot.")
        {
            assert_eq!(ours.len(), theirs.len(), "{}", rel.display());
            assert_eq!(
                decoded_slot(&ours),
                decoded_slot(&theirs),
                "{}",
                rel.display()
            );
        } else {
            assert!(
                ours == theirs,
                "{} differs from the golden copy",
                rel.display()
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
#[ignore = "rewrites tests/golden/v5; run on purpose after a format change"]
fn regenerate_golden() {
    let golden = golden_dir();
    let _ = std::fs::remove_dir_all(&golden);
    write_stream(&golden);
}
