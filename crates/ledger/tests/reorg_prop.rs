//! Property tests for incremental reorg indexing: after ANY sequence of
//! fork/extend/reorg appends — with or without checkpoint finality — the
//! incrementally-maintained canonical indexes must equal a from-scratch
//! rebuild over the canonical chain.

use blockprov_ledger::block::{Block, BlockHash};
use blockprov_ledger::chain::{Chain, ChainConfig, ValidationError};
use blockprov_ledger::index::{TxIndex, TxIndexConfig};
use blockprov_ledger::store::MemStore;
use blockprov_ledger::tx::{AccountId, Transaction};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// One generated append attempt: which existing block to build on, and a
/// small transaction batch. Low-entropy fields maximize collisions (same tx
/// id on competing branches, same authors everywhere) — exactly the cases
/// where undo bookkeeping can silently drift.
#[derive(Debug, Clone)]
struct Op {
    parent_sel: u16,
    n_txs: usize,
    author_sel: u8,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (any::<u16>(), 0usize..3, any::<u8>()).prop_map(|(parent_sel, n_txs, author_sel)| Op {
        parent_sel,
        n_txs,
        author_sel,
    })
}

/// Drive a chain through `ops`, asserting index consistency after every
/// successful append.
fn run_sequence(config: ChainConfig, ops: &[Op]) -> Result<(), TestCaseError> {
    run_sequence_on(Chain::new(config), ops)
}

fn run_sequence_on(mut chain: Chain, ops: &[Op]) -> Result<(), TestCaseError> {
    // Pool of known block hashes to fork from (genesis included).
    let mut pool: Vec<BlockHash> = vec![chain.genesis()];
    for (i, op) in ops.iter().enumerate() {
        let parent = pool[op.parent_sel as usize % pool.len()];
        let parent_block = match chain.block(&parent) {
            Some(b) => b,
            None => continue, // parent pruned by finality — skip
        };
        let author = AccountId::from_name(match op.author_sel % 3 {
            0 => "alice",
            1 => "bob",
            _ => "carol",
        });
        // Deliberately low-entropy txs: the same (author, nonce, ts, kind,
        // payload) tuple recurs across branches, so identical tx ids appear
        // in multiple blocks and tx_loc undo must restore prior locations.
        let txs: Vec<Transaction> = (0..op.n_txs)
            .map(|j| {
                Transaction::new(
                    author,
                    j as u64,
                    2_000,
                    u16::from(op.author_sel % 2),
                    vec![op.author_sel % 4],
                )
            })
            .collect();
        let block = Block::assemble(
            parent_block.header.height + 1,
            parent,
            parent_block.header.timestamp_ms + 10 + i as u64,
            AccountId::from_name("sealer"),
            0,
            txs,
        );
        match chain.append(block) {
            Ok(out) => {
                pool.push(out.hash);
                prop_assert!(
                    chain.index_consistent(),
                    "incremental index diverged from rebuild after append {i} \
                     (reorged={})",
                    out.reorged
                );
            }
            Err(
                ValidationError::Duplicate(_)
                | ValidationError::DuplicateTx(_)
                | ValidationError::BelowFinality { .. }
                | ValidationError::UnknownParent(_),
            ) => {}
            Err(e) => prop_assert!(false, "unexpected validation error: {e}"),
        }
    }
    prop_assert!(chain.index_consistent());
    prop_assert!(chain.verify_integrity().is_ok());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No finality: every historical fork stays reorg-able forever.
    #[test]
    fn incremental_index_equals_rebuild(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        run_sequence(ChainConfig::default(), &ops)?;
    }

    /// Shallow finality: reorgs race the advancing checkpoint, fork
    /// metadata is pruned mid-sequence.
    #[test]
    fn incremental_index_equals_rebuild_under_finality(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        depth in 1u64..6,
    ) {
        let config = ChainConfig { finality_depth: Some(depth), ..ChainConfig::default() };
        run_sequence(config, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Spilled tier: finality flushes entries to a durable TxIndex with
    /// deliberately tiny pages, so the two-tier merged queries (not just
    /// the mutable maps) must keep agreeing with a from-scratch rebuild
    /// while reorgs, duplicate tx ids and checkpoint spills interleave.
    #[test]
    fn two_tier_index_equals_rebuild_under_finality(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        depth in 1u64..6,
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "blockprov-reorg-prop-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let index = TxIndex::open(
            &dir,
            TxIndexConfig { partitions: 4, page_entries: 4, cached_pages: 4 },
        )
        .expect("open tx index");
        let config = ChainConfig { finality_depth: Some(depth), ..ChainConfig::default() };
        let chain = Chain::with_store_and_index(Box::new(MemStore::new()), index, config);
        let result = run_sequence_on(chain, &ops);
        let _ = std::fs::remove_dir_all(&dir);
        result?;
    }
}

// ---------------------------------------------------------------------------
// Full-tier property: random append/reorg/finalize/RESTART sequences over a
// durable store + TxIndex + metadata tier. After every restart and at the
// end, the two-tier `hash_at` / `next_nonce_for` views must equal a
// from-scratch rebuild derived by walking parent pointers from the tip
// (authoritative block bytes — deliberately NOT through the height map
// under test), and an LSM page merge must leave every query unchanged.
// ---------------------------------------------------------------------------

use blockprov_ledger::meta::{MetaConfig, MetaStore};
use blockprov_ledger::segment::{TieredConfig, TieredStore};
use blockprov_ledger::tx::AccountId as Acct;
use std::collections::HashMap;
use std::path::Path;

fn tiers(dir: &Path, case: u64) -> Chain {
    let config = ChainConfig {
        finality_depth: Some(1 + case % 4),
        ..ChainConfig::default()
    };
    let store = TieredStore::open(
        dir.join("blocks"),
        TieredConfig {
            segment_bytes: 2048,
            hot_capacity: 4,
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
            index_sync_interval: 8,
            snapshot_interval: 1,
        },
    )
    .expect("open meta store");
    Chain::replay_with_tiers(Box::new(store), Some(index), meta, config).expect("reopen tiers")
}

/// Assert the two-tier metadata views against a parent-walk rebuild.
fn assert_two_tier_matches(chain: &Chain) -> Result<(), TestCaseError> {
    let mut canonical: Vec<(u64, BlockHash)> = Vec::new();
    let mut nonces: HashMap<Acct, u64> = HashMap::new();
    let mut cursor = chain.tip();
    loop {
        let block = chain.block(&cursor).expect("canonical ancestry readable");
        canonical.push((block.header.height, cursor));
        for tx in &block.txs {
            let e = nonces.entry(tx.author).or_insert(0);
            *e = (*e).max(tx.nonce + 1);
        }
        if block.header.height == 0 {
            break;
        }
        cursor = block.header.prev;
    }
    prop_assert_eq!(canonical.len() as u64, chain.height() + 1);
    for &(h, hash) in &canonical {
        prop_assert_eq!(
            chain.hash_at(h),
            Some(hash),
            "two-tier hash_at diverged from parent walk at height {}",
            h
        );
    }
    prop_assert_eq!(chain.hash_at(chain.height() + 1), None);
    for (author, expect) in &nonces {
        prop_assert_eq!(
            chain.next_nonce_for(author),
            *expect,
            "two-tier nonce diverged for {}",
            author
        );
    }
    prop_assert!(chain.index_consistent());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn two_tier_metadata_survives_restarts_and_merges(
        ops in proptest::collection::vec(op_strategy(), 4..48),
        restart_every in 5usize..12,
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "blockprov-metaprop-{}-{}",
            std::process::id(),
            case
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let result = (|| -> Result<(), TestCaseError> {
            let mut chain = tiers(&dir, case);
            let mut pool: Vec<BlockHash> = vec![chain.genesis()];
            for (i, op) in ops.iter().enumerate() {
                if i > 0 && i % restart_every == 0 {
                    // Restart: drop every in-memory structure and resume
                    // from the durable tiers (snapshot fast-start).
                    drop(chain);
                    chain = tiers(&dir, case);
                    assert_two_tier_matches(&chain)?;
                }
                let parent = pool[op.parent_sel as usize % pool.len()];
                let parent_block = match chain.block(&parent) {
                    Some(b) => b,
                    None => continue, // pruned by finality — skip
                };
                let author = Acct::from_name(match op.author_sel % 3 {
                    0 => "alice",
                    1 => "bob",
                    _ => "carol",
                });
                let txs: Vec<Transaction> = (0..op.n_txs)
                    .map(|j| {
                        Transaction::new(
                            author,
                            j as u64,
                            2_000,
                            u16::from(op.author_sel % 2),
                            vec![op.author_sel % 4],
                        )
                    })
                    .collect();
                let block = Block::assemble(
                    parent_block.header.height + 1,
                    parent,
                    parent_block.header.timestamp_ms + 10 + i as u64,
                    Acct::from_name("sealer"),
                    0,
                    txs,
                );
                match chain.append(block) {
                    Ok(out) => {
                        pool.push(out.hash);
                        prop_assert!(chain.index_consistent(), "diverged after append {}", i);
                    }
                    Err(
                        ValidationError::Duplicate(_)
                        | ValidationError::DuplicateTx(_)
                        | ValidationError::BelowFinality { .. }
                        | ValidationError::UnknownParent(_),
                    ) => {}
                    Err(e) => prop_assert!(false, "unexpected validation error: {}", e),
                }
            }
            // Final restart lands in the same state; every query must be
            // unchanged across it.
            let authors = ["alice", "bob", "carol"].map(Acct::from_name);
            let nonces_before: Vec<_> = authors.iter().map(|a| chain.next_nonce_for(a)).collect();
            let view = chain.reader().view();
            let by_kind_before: Vec<_> = (0..2u16).map(|k| view.txs_by_kind(k)).collect();
            assert_two_tier_matches(&chain)?;
            let tip = chain.tip();
            let height = chain.height();
            drop(chain);
            let mut chain = tiers(&dir, case);
            prop_assert_eq!(chain.tip(), tip);
            prop_assert_eq!(chain.height(), height);
            for (a, before) in authors.iter().zip(&nonces_before) {
                prop_assert_eq!(&chain.next_nonce_for(a), before, "next nonce changed over restart");
            }
            let view = chain.reader().view();
            for (k, before) in (0..2u16).zip(&by_kind_before) {
                prop_assert_eq!(&view.txs_by_kind(k), before, "by_kind changed over restart");
            }
            assert_two_tier_matches(&chain)?;
            prop_assert!(chain.verify_integrity().is_ok());
            Ok(())
        })();
        let _ = std::fs::remove_dir_all(&dir);
        result?;
    }
}
