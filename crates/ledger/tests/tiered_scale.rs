//! Scale acceptance: bounded resident memory over unbounded history.
//!
//! Appending 100k blocks through a [`TieredStore`] with checkpoint finality
//! must keep the chain's resident decoded-block count bounded by the hot
//! cache capacity, while every historical block stays readable from the
//! cold tier and inclusion proofs still verify.

use blockprov_ledger::chain::{Chain, ChainConfig};
use blockprov_ledger::segment::{TieredConfig, TieredStore};
use blockprov_ledger::tx::{AccountId, Transaction};

const BLOCKS: u64 = 100_000;
const HOT_CAPACITY: usize = 256;

#[test]
fn appending_100k_blocks_stays_within_hot_cache_bounds() {
    let dir = std::env::temp_dir().join(format!("blockprov-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TieredStore::open(
        &dir,
        TieredConfig {
            segment_bytes: 8 * 1024 * 1024,
            hot_capacity: HOT_CAPACITY,
        },
    )
    .unwrap();
    let mut chain = Chain::with_store(
        Box::new(store),
        ChainConfig {
            finality_depth: Some(64),
            ..ChainConfig::default()
        },
    );

    let sealer = AccountId::from_name("sealer");
    let mut max_resident = 0usize;
    let mut sample_txs = Vec::new();
    for i in 0..BLOCKS {
        // A sparse sprinkling of transactions keeps the index paths hot
        // without dominating the append loop.
        let txs = if i % 1000 == 0 {
            let tx = Transaction::new(AccountId::from_name("auditor"), i, i, 7, vec![1, 2, 3]);
            sample_txs.push(tx.id());
            vec![tx]
        } else {
            Vec::new()
        };
        let block = chain.assemble_next(i + 1, sealer, 0, txs);
        chain.append(block).unwrap();
        max_resident = max_resident.max(chain.resident_blocks());
    }

    assert_eq!(chain.height(), BLOCKS);
    assert_eq!(chain.stored_blocks(), BLOCKS as usize + 1);
    assert!(
        max_resident <= HOT_CAPACITY,
        "resident blocks peaked at {max_resident}, above the hot capacity {HOT_CAPACITY}"
    );
    assert_eq!(chain.finalized_height(), BLOCKS - 64);
    assert_eq!(chain.checkpoint().unwrap().height, BLOCKS - 64);

    // Historical blocks long evicted from the hot set are still readable…
    let old = chain.block_at(1).expect("genesis-adjacent block readable");
    assert_eq!(old.header.height, 1);
    // …and canonical tx lookups + inclusion proofs work across the history.
    for id in sample_txs.iter().step_by(10) {
        let proof = chain.prove_tx(id).expect("indexed tx provable");
        assert!(proof.verify());
    }
    // Reading history back does not break the residency bound either.
    for h in (0..BLOCKS).step_by(1000) {
        assert!(chain.block_at(h).is_some());
        assert!(chain.resident_blocks() <= HOT_CAPACITY);
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
