//! Stage 1 of ingest (stateless validation) runs on the committing thread:
//! neither a batched append nor a replay starts a thread, whatever
//! `ChainConfig::ingest_threads` says.
//!
//! Threads are counted from `/proc/self/task`, so this file holds exactly
//! one test: no sibling test can start or end a thread between two counts.
#![cfg(target_os = "linux")]

use blockprov_ledger::block::Block;
use blockprov_ledger::chain::{Chain, ChainConfig};
use blockprov_ledger::meta::{MetaConfig, MetaStore};
use blockprov_ledger::segment::{TieredConfig, TieredStore};
use blockprov_ledger::tx::{AccountId, Transaction};
use std::path::Path;

/// Threads in this process right now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

fn open(dir: &Path, config: ChainConfig) -> Chain {
    let store =
        TieredStore::open(dir.join("blocks"), TieredConfig::default()).expect("open block store");
    let meta = MetaStore::open(dir.join("meta"), MetaConfig::default()).expect("open meta store");
    Chain::replay_with_tiers(Box::new(store), None, meta, config).expect("open chain")
}

/// `n` blocks extending `chain`'s tip, one transaction each.
fn linear_blocks(chain: &Chain, n: u64) -> Vec<Block> {
    let tip = chain.block(&chain.tip()).expect("tip readable");
    let (mut parent, mut height, mut ts) =
        (chain.tip(), tip.header.height, tip.header.timestamp_ms);
    (0..n)
        .map(|i| {
            height += 1;
            ts += 10;
            let tx = Transaction::new(AccountId::from_name("alice"), i, ts, 1, vec![i as u8]);
            let block = Block::assemble(
                height,
                parent,
                ts,
                AccountId::from_name("sealer"),
                0,
                vec![tx],
            );
            parent = block.hash();
            block
        })
        .collect()
}

#[test]
fn batched_append_and_replay_start_no_thread() {
    let dir = std::env::temp_dir().join(format!(
        "blockprov-inline-prevalidate-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ChainConfig {
        ingest_threads: 8,
        ..ChainConfig::default()
    };

    let mut chain = open(&dir, config.clone());
    let blocks = linear_blocks(&chain, 64);
    let before = threads();
    let outcomes = chain.append_batch(blocks).expect("linear batch appends");
    let after = threads();
    assert_eq!(outcomes.len(), 64);
    assert!(
        after <= before,
        "append_batch started threads: {before} -> {after}"
    );
    chain.sync_meta().expect("sync meta");
    drop(chain);

    let before = threads();
    let chain = open(&dir, config);
    let after = threads();
    assert_eq!(chain.height(), 64, "replay restores the batch");
    assert!(
        after <= before,
        "replay started threads: {before} -> {after}"
    );
    drop(chain);
    let _ = std::fs::remove_dir_all(&dir);
}
