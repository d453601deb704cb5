//! Acceptance: bounded resident *index* memory over unbounded history.
//!
//! Appending 100k single-transaction blocks through a tiered store plus a
//! durable [`TxIndex`] with a small finality depth must keep the mutable
//! in-memory index sized O(non-finalized suffix) — not O(history) — while
//! `ChainView::{tx_by_id, txs_by_kind}` return exactly what a
//! from-scratch in-memory rebuild over the canonical chain would.

use blockprov_ledger::block::BlockHash;
use blockprov_ledger::chain::{Chain, ChainConfig};
use blockprov_ledger::index::{TxIndex, TxIndexConfig};
use blockprov_ledger::segment::{TieredConfig, TieredStore};
use blockprov_ledger::tx::{AccountId, Transaction, TxId};
use std::collections::HashMap;

const BLOCKS: u64 = 100_000;
const FINALITY_DEPTH: u64 = 64;
const AUTHORS: [&str; 4] = ["alice", "bob", "carol", "dave"];
const KINDS: u16 = 3;

#[test]
fn spilled_index_stays_bounded_and_matches_full_rebuild() {
    let dir = std::env::temp_dir().join(format!("blockprov-index-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TieredStore::open(
        &dir,
        TieredConfig {
            segment_bytes: 8 * 1024 * 1024,
            hot_capacity: 256,
        },
    )
    .unwrap();
    let index = TxIndex::open(dir.join("txindex"), TxIndexConfig::default()).unwrap();
    let mut chain = Chain::with_store_and_index(
        Box::new(store),
        index,
        ChainConfig {
            finality_depth: Some(FINALITY_DEPTH),
            ..ChainConfig::default()
        },
    );

    let sealer = AccountId::from_name("sealer");
    let mut nonces: HashMap<AccountId, u64> = HashMap::new();
    let mut max_resident_entries = 0usize;
    for i in 0..BLOCKS {
        let author = AccountId::from_name(AUTHORS[(i % 4) as usize]);
        let nonce = nonces.entry(author).or_insert(0);
        let tx = Transaction::new(
            author,
            *nonce,
            i,
            (i % u64::from(KINDS)) as u16,
            vec![0xAB; 24],
        );
        *nonce += 1;
        let block = chain.assemble_next(i + 1, sealer, 0, vec![tx]);
        chain.append(block).unwrap();
        max_resident_entries = max_resident_entries.max(chain.resident_index_entries());
    }

    assert_eq!(chain.height(), BLOCKS);
    assert_eq!(chain.finalized_height(), BLOCKS - FINALITY_DEPTH);
    // The mutable tier never held more than the non-finalized suffix (one
    // tx per block; +1 for the block whose append triggers the spill).
    assert!(
        max_resident_entries as u64 <= FINALITY_DEPTH + 1,
        "mutable index peaked at {max_resident_entries} entries — O(history), not O(suffix)"
    );
    let ix = chain.tx_index().expect("durable index attached");
    assert_eq!(
        ix.entries(),
        BLOCKS - FINALITY_DEPTH,
        "every finalized tx spilled exactly once"
    );
    assert!(ix.page_count() > 0, "pages must have been cut");
    let view = chain.reader().view();

    // From-scratch in-memory rebuild over the canonical chain.
    let mut tx_loc: HashMap<TxId, (BlockHash, u32)> = HashMap::new();
    let mut by_kind: HashMap<u16, Vec<TxId>> = HashMap::new();
    let mut all_ids: Vec<TxId> = Vec::new();
    for h in 0..=chain.height() {
        let block = chain.block_at(h).expect("canonical block readable");
        let hash = block.hash();
        for (pos, tx) in block.txs.iter().enumerate() {
            let id = tx.id();
            tx_loc.insert(id, (hash, pos as u32));
            by_kind.entry(tx.kind).or_default().push(id);
            all_ids.push(id);
        }
    }
    assert_eq!(all_ids.len() as u64, BLOCKS);

    // tx_by_id: sampled across the whole history (hot suffix, cold pages).
    for id in all_ids.iter().step_by(97) {
        assert_eq!(
            view.tx_by_id(id),
            tx_loc.get(id).copied(),
            "two-tier lookup diverged from rebuild"
        );
    }
    // The genesis-adjacent oldest and the newest resolve too.
    assert_eq!(view.tx_by_id(&all_ids[0]), tx_loc.get(&all_ids[0]).copied());
    let last = *all_ids.last().unwrap();
    assert_eq!(view.tx_by_id(&last), tx_loc.get(&last).copied());

    // Kind queries: full equality, order included.
    for kind in 0..KINDS {
        assert_eq!(
            view.txs_by_kind(kind),
            by_kind[&kind],
            "merged by-kind query diverged for kind {kind}"
        );
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
