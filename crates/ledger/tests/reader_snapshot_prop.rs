//! Multi-threaded snapshot-consistency stress: a single writer drives a
//! fully-tiered chain through hundreds of randomized append / fork / reorg /
//! batch operations while 1, 2, and 8 reader threads continuously pin
//! [`ChainView`]s and assert that every view they ever observe is
//! prefix-consistent:
//!
//! 1. the view's tip resolves at the view's height,
//! 2. every height up to the tip resolves to *some* hash (no torn suffix /
//!    durable-tier boundary),
//! 3. heights past the tip resolve to nothing, and
//! 4. the finalized prefix is immutable across successive pins — once a
//!    reader has seen height `h` finalized as hash `x`, every later view
//!    must still report `x` at `h`.
//!
//! Readers never take the writer's locks, so this also serves as a
//! deadlock / torn-commit smoke test for the epoch-published read path.

use blockprov_ledger::block::{Block, BlockHash};
use blockprov_ledger::chain::{Chain, ChainConfig, ChainReader, ValidationError};
use blockprov_ledger::index::{TxIndex, TxIndexConfig};
use blockprov_ledger::meta::{MetaConfig, MetaStore};
use blockprov_ledger::segment::{SegmentConfig, TieredConfig, TieredStore};
use blockprov_ledger::tx::{AccountId, Transaction};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Deterministic xorshift PRNG so failures reproduce without a proptest
/// shrink loop (the interesting nondeterminism here is thread scheduling,
/// not the op sequence).
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
}

fn tiered_chain(dir: &std::path::Path) -> Chain {
    let config = ChainConfig {
        finality_depth: Some(3),
        ..ChainConfig::default()
    };
    let store = TieredStore::open(
        dir.join("blocks"),
        TieredConfig {
            segment: SegmentConfig { segment_bytes: 2048 },
            hot_capacity: 8,
        },
    )
    .expect("open tiered store");
    let index = TxIndex::open(
        dir.join("txindex"),
        TxIndexConfig {
            partitions: 2,
            page_entries: 4,
            cached_pages: 4,
        },
    )
    .expect("open tx index");
    let meta = MetaStore::open(
        dir.join("meta"),
        MetaConfig {
            page_heights: 4,
            cached_pages: 2,
            index_sync_interval: 8,
            snapshot_interval: 4,
        },
    )
    .expect("open meta store");
    Chain::replay_with_tiers(Box::new(store), Some(index), meta, config).expect("open tiers")
}

/// One reader thread: pin views in a tight loop until the writer signals
/// done, asserting the four prefix-consistency properties on every pin.
fn reader_loop(reader: ChainReader, done: Arc<AtomicBool>) -> u64 {
    // Finalized prefix observed so far: height -> hash. Property 4 says
    // entries here may only be extended, never rewritten.
    let mut finalized_seen: HashMap<u64, BlockHash> = HashMap::new();
    let mut pins = 0u64;
    loop {
        let finished = done.load(Ordering::Acquire);
        let v = reader.view();
        pins += 1;

        // 1. Tip resolves at the view's height.
        let tip_at = v.hash_at(v.height());
        assert_eq!(
            tip_at,
            Some(v.tip()),
            "pin {pins}: tip did not resolve at view height {}",
            v.height()
        );

        // 2. Every height up to the tip resolves — the durable tier the
        // snapshot points at must already cover everything below the
        // suffix (tiers publish before the chain snapshot).
        for h in 0..=v.height() {
            assert!(
                v.hash_at(h).is_some(),
                "pin {pins}: hole at height {h} (view height {}, finalized {})",
                v.height(),
                v.finalized_height()
            );
        }

        // 3. Nothing past the tip.
        assert_eq!(
            v.hash_at(v.height() + 1),
            None,
            "pin {pins}: phantom block past view tip"
        );

        // 4. Finalized prefix is immutable across pins.
        for h in 0..=v.finalized_height() {
            let hash = v.hash_at(h).expect("finalized height resolves");
            match finalized_seen.get(&h) {
                Some(prev) => assert_eq!(
                    *prev, hash,
                    "pin {pins}: finalized height {h} was rewritten"
                ),
                None => {
                    finalized_seen.insert(h, hash);
                }
            }
        }

        if finished {
            return pins;
        }
        std::thread::yield_now();
    }
}

/// Drive ~`ops` randomized writer operations against `chain` while
/// `n_readers` threads hammer the published read path.
fn stress(n_readers: usize, ops: usize, seed: u64) {
    let dir = std::env::temp_dir().join(format!(
        "blockprov-reader-prop-{}-{n_readers}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut chain = tiered_chain(&dir);

    let done = Arc::new(AtomicBool::new(false));
    let first = chain.reader();
    let handles: Vec<_> = (0..n_readers)
        .map(|_| {
            let r = first.clone();
            let d = Arc::clone(&done);
            std::thread::spawn(move || reader_loop(r, d))
        })
        .collect();
    drop(first);

    let mut rng = Rng(seed | 1);
    let mut pool: Vec<BlockHash> = vec![chain.genesis()];
    let mut appended = 0usize;
    let mut reorgs = 0usize;
    let mut i = 0usize;
    while i < ops {
        let roll = rng.next() % 10;
        if roll == 0 {
            // Batch append: a short linear run off the current tip,
            // exercising the once-per-batch publish path.
            let mut parent = chain.tip();
            let mut parent_block = chain.block(&parent).expect("tip readable");
            let mut batch = Vec::new();
            for _ in 0..3 {
                let block = assemble_child(&mut rng, &parent_block, parent, i);
                parent = block.hash();
                batch.push(block.clone());
                parent_block = Arc::new(block);
                i += 1;
            }
            let outcomes = chain.append_batch(batch).expect("linear batch appends");
            for out in outcomes {
                pool.push(out.hash);
                appended += 1;
            }
            continue;
        }
        // Single append onto a random known parent: extends, forks, and
        // reorgs depending on where the parent sits relative to the tip.
        let parent = pool[(rng.next() as usize) % pool.len()];
        let Some(parent_block) = chain.block(&parent) else {
            i += 1;
            continue; // parent pruned by finality
        };
        let block = assemble_child(&mut rng, &parent_block, parent, i);
        match chain.append(block) {
            Ok(out) => {
                pool.push(out.hash);
                appended += 1;
                if out.reorged {
                    reorgs += 1;
                }
            }
            Err(
                ValidationError::Duplicate(_)
                | ValidationError::DuplicateTx(_)
                | ValidationError::BelowFinality { .. }
                | ValidationError::UnknownParent(_),
            ) => {}
            Err(e) => panic!("unexpected validation error: {e}"),
        }
        i += 1;
    }

    done.store(true, Ordering::Release);
    let mut total_pins = 0u64;
    for h in handles {
        total_pins += h.join().expect("reader thread panicked");
    }
    drop(chain);
    let _ = std::fs::remove_dir_all(&dir);

    // Most random parents sit below the finality checkpoint and are
    // rejected — that's the point (readers see real reorg/finality churn).
    // Just require the writer made real forward progress.
    assert!(appended >= ops / 5, "writer made no progress: {appended}");
    assert!(
        total_pins >= n_readers as u64,
        "readers never pinned a view"
    );
    eprintln!(
        "reader_snapshot_prop[{n_readers} readers]: {appended} appends \
         ({reorgs} reorgs), {total_pins} view pins"
    );
}

fn assemble_child(rng: &mut Rng, parent_block: &Block, parent: BlockHash, i: usize) -> Block {
    let author = AccountId::from_name(match rng.next() % 3 {
        0 => "alice",
        1 => "bob",
        _ => "carol",
    });
    let n_txs = (rng.next() % 3) as usize;
    let txs: Vec<Transaction> = (0..n_txs)
        .map(|j| Transaction::new(author, j as u64, 2_000, (rng.next() % 2) as u16, vec![i as u8]))
        .collect();
    Block::assemble(
        parent_block.header.height + 1,
        parent,
        parent_block.header.timestamp_ms + 10 + i as u64,
        AccountId::from_name("sealer"),
        0,
        txs,
    )
}

#[test]
fn snapshots_stay_prefix_consistent_under_one_reader() {
    stress(1, 300, 0x9e3779b97f4a7c15);
}

#[test]
fn snapshots_stay_prefix_consistent_under_two_readers() {
    stress(2, 300, 0xd1b54a32d192ed03);
}

#[test]
fn snapshots_stay_prefix_consistent_under_eight_readers() {
    stress(8, 300, 0x2545f4914f6cdd1d);
}
