//! Acceptance: bounded resident chain *metadata* over unbounded history.
//!
//! 100k single-transaction blocks through all three durable tiers (tiered
//! block store, durable tx index, metadata tier) with a small finality
//! depth must keep resident `meta`/`canonical`/`next_nonce`/`undo` entries
//! O(finality window + live forks) — not O(history) — while the two-tier
//! `hash_at` / `next_nonce_for` / tx queries match a from-scratch rebuild,
//! and a restart fast-starts from the snapshot without re-absorbing
//! finalized history or changing a single query result.
//!
//! A second input holds the same checks over 1,000 distinct authors with a
//! snapshot written at every finality advance: the per-author nonce floors
//! are the one piece of chain state that is O(authors), not O(window).

use blockprov_ledger::block::BlockHash;
use blockprov_ledger::chain::{Chain, ChainConfig};
use blockprov_ledger::index::{TxIndex, TxIndexConfig};
use blockprov_ledger::meta::{MetaConfig, MetaStore};
use blockprov_ledger::segment::{TieredConfig, TieredStore};
use blockprov_ledger::store::BlockStore;
use blockprov_ledger::tx::{AccountId, Transaction, TxId};
use std::collections::HashMap;
use std::path::Path;

const FINALITY_DEPTH: u64 = 64;
const KINDS: u16 = 3;

/// One input to the suite.
struct Case {
    tag: &'static str,
    blocks: u64,
    /// Distinct authors, taking turns one block each.
    authors: usize,
    snapshot_interval: u64,
}

const CASES: [Case; 2] = [
    Case {
        tag: "long",
        blocks: 100_000,
        authors: 4,
        snapshot_interval: 64,
    },
    // The nonce floors (one per finalized author, carried whole in every
    // snapshot) far outnumber the finality window, and the snapshot is
    // rewritten at every advance.
    Case {
        tag: "many-authors",
        blocks: 20_000,
        authors: 1_000,
        snapshot_interval: 1,
    },
];

fn store(dir: &Path) -> Box<dyn BlockStore> {
    Box::new(
        TieredStore::open(
            dir.join("blocks"),
            TieredConfig {
                segment_bytes: 8 * 1024 * 1024,
                hot_capacity: 256,
            },
        )
        .unwrap(),
    )
}

fn index(dir: &Path) -> TxIndex {
    TxIndex::open(dir.join("txindex"), TxIndexConfig::default()).unwrap()
}

fn meta(dir: &Path, case: &Case) -> MetaStore {
    MetaStore::open(
        dir.join("meta"),
        MetaConfig {
            snapshot_interval: case.snapshot_interval,
            ..MetaConfig::default()
        },
    )
    .unwrap()
}

fn config() -> ChainConfig {
    ChainConfig {
        finality_depth: Some(FINALITY_DEPTH),
        ..ChainConfig::default()
    }
}

#[test]
fn resident_metadata_stays_bounded_and_restart_is_suffix_sized() {
    for case in &CASES {
        run(case);
    }
}

fn run(case: &Case) {
    let blocks = case.blocks;
    let authors: Vec<String> = (0..case.authors).map(|i| format!("author-{i}")).collect();
    let dir = std::env::temp_dir().join(format!(
        "blockprov-meta-scale-{}-{}",
        case.tag,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut chain = Chain::with_tiers(store(&dir), Some(index(&dir)), meta(&dir, case), config());

    let sealer = AccountId::from_name("sealer");
    let mut nonces: HashMap<AccountId, u64> = HashMap::new();
    let mut max_resident = 0usize;
    for i in 0..blocks {
        let author = AccountId::from_name(&authors[i as usize % authors.len()]);
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
        let r = chain.resident_metadata();
        // The nonce floor is O(distinct authors) consensus state, not
        // per-block metadata; everything else must track the window.
        max_resident = max_resident.max(r.total() - r.nonce_floor);
    }
    assert_eq!(chain.height(), blocks);
    assert_eq!(chain.finalized_height(), blocks - FINALITY_DEPTH);
    // meta + canonical + at_height + undo + mutable nonces: each is at most
    // window+1 entries on this linear history, so 5·(window+1) with slack
    // for the spill-triggering block. O(window), emphatically not O(blocks).
    assert!(
        max_resident as u64 <= 6 * (FINALITY_DEPTH + 2),
        "resident metadata peaked at {max_resident} entries — O(history), not O(window)"
    );
    let final_resident = chain.resident_metadata();
    assert!(
        (final_resident.canonical as u64) == FINALITY_DEPTH + 1,
        "canonical suffix holds {} entries",
        final_resident.canonical
    );
    assert_eq!(
        final_resident.nonce_floor,
        authors.len(),
        "one floor per finalized author"
    );

    // Independent from-scratch rebuild: walk parent pointers from the tip
    // (authoritative block data, no height map involved).
    let mut canonical = vec![BlockHash::ZERO; (blocks + 1) as usize];
    let mut tx_loc: HashMap<TxId, (BlockHash, u32)> = HashMap::new();
    let mut by_kind: HashMap<u16, Vec<TxId>> = HashMap::new();
    let mut expected_nonce: HashMap<AccountId, u64> = HashMap::new();
    let mut all_ids: Vec<TxId> = Vec::new();
    {
        let mut cursor = chain.tip();
        let mut per_height: Vec<(u64, BlockHash)> = Vec::new();
        loop {
            let block = chain.block(&cursor).expect("canonical ancestry readable");
            per_height.push((block.header.height, cursor));
            if block.header.height == 0 {
                break;
            }
            cursor = block.header.prev;
        }
        per_height.reverse();
        for (h, hash) in per_height {
            canonical[h as usize] = hash;
            let block = chain.block(&hash).unwrap();
            for (pos, tx) in block.txs.iter().enumerate() {
                let id = tx.id();
                tx_loc.insert(id, (hash, pos as u32));
                by_kind.entry(tx.kind).or_default().push(id);
                let e = expected_nonce.entry(tx.author).or_insert(0);
                *e = (*e).max(tx.nonce + 1);
                all_ids.push(id);
            }
        }
    }
    assert_eq!(all_ids.len() as u64, blocks);

    // Two-tier hash_at equals the parent-walk rebuild at every height.
    for h in 0..=blocks {
        assert_eq!(chain.hash_at(h), Some(canonical[h as usize]), "height {h}");
    }
    // Two-tier nonces equal the rebuild.
    for name in &authors {
        let author = AccountId::from_name(name);
        assert_eq!(
            chain.next_nonce_for(&author),
            expected_nonce[&author],
            "{name}"
        );
    }
    // Tx queries (sampled point lookups + full kind scans).
    let view = chain.reader().view();
    for id in all_ids.iter().step_by(97) {
        assert_eq!(view.tx_by_id(id), tx_loc.get(id).copied());
    }
    for kind in 0..KINDS {
        assert_eq!(view.txs_by_kind(kind), by_kind[&kind], "kind {kind}");
    }

    // Restart via snapshot: identical tip, O(suffix) re-absorption.
    let tip = chain.tip();
    chain.sync_meta().unwrap();
    drop(chain);
    let mut chain =
        Chain::replay_with_tiers(store(&dir), Some(index(&dir)), meta(&dir, case), config())
            .expect("fast start");
    assert_eq!(chain.tip(), tip);
    assert_eq!(chain.height(), blocks);
    assert!(
        chain.appended_blocks() <= FINALITY_DEPTH,
        "restart re-absorbed {} blocks — snapshot fast-start must stay O(suffix)",
        chain.appended_blocks()
    );
    for h in (0..=blocks).step_by(977) {
        assert_eq!(chain.hash_at(h), Some(canonical[h as usize]), "height {h}");
    }
    for name in &authors {
        let author = AccountId::from_name(name);
        assert_eq!(chain.next_nonce_for(&author), expected_nonce[&author]);
    }

    let view = chain.reader().view();
    for id in all_ids.iter().step_by(97) {
        assert_eq!(view.tx_by_id(id), tx_loc.get(id).copied());
    }
    for kind in 0..KINDS {
        assert_eq!(view.txs_by_kind(kind), by_kind[&kind]);
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
