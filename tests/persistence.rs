//! Integration: durable block storage — a chain written through a
//! `TieredStore` survives process restart with proofs intact (the §6.1
//! "storage performance overhead" axis needs a real persistent backend).

use blockprov::ledger::chain::{Chain, ChainConfig};
use blockprov::ledger::segment::{TieredConfig, TieredStore};
use blockprov::ledger::store::BlockStore;
use blockprov::ledger::tx::{AccountId, Transaction};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("blockprov-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &std::path::Path) -> std::io::Result<TieredStore> {
    TieredStore::open(dir, TieredConfig::default())
}

#[test]
fn chain_over_tiered_store_persists_blocks_and_proofs() {
    let dir = temp_dir("persist");

    let mut tx_ids = Vec::new();
    let tip;
    {
        let store = open(&dir).unwrap();
        let mut chain = Chain::with_store(Box::new(store), ChainConfig::default());
        for i in 0..20u64 {
            let tx = Transaction::new(AccountId::from_name("writer"), i, i, 1, vec![i as u8; 32]);
            tx_ids.push(tx.id());
            let block =
                chain.assemble_next(1_000 * (i + 1), AccountId::from_name("sealer"), 0, vec![tx]);
            chain.append(block).unwrap();
        }
        chain.verify_integrity().unwrap();
        tip = chain.tip();
    }

    // "Restart": reopen the directory and check every block decodes and every
    // transaction proof still verifies against its stored header.
    let store = open(&dir).unwrap();
    assert_eq!(store.len(), 21, "genesis + 20 blocks on disk");
    let tip_block = store.get(&tip).expect("tip block persisted");
    assert_eq!(tip_block.header.height, 20);

    // Rebuild proofs block by block from the durable store.
    let mut checked = 0;
    for height_hash in [tip] {
        let mut cursor = height_hash;
        while let Some(block) = store.get(&cursor) {
            for (i, tx) in block.txs.iter().enumerate() {
                let (txid, proof) = block.prove_tx(i).unwrap();
                assert!(blockprov::ledger::block::Block::verify_tx_proof(
                    &block.header.tx_root,
                    &txid,
                    &proof
                ));
                assert!(tx_ids.contains(&txid) || tx.kind != 1);
                checked += 1;
            }
            if block.header.height == 0 {
                break;
            }
            cursor = block.header.prev;
        }
    }
    assert_eq!(checked, 20, "all transactions re-proven from disk");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_trailing_write_is_rejected_on_reopen() {
    let dir = temp_dir("corrupt");
    {
        let store = open(&dir).unwrap();
        let mut chain = Chain::with_store(Box::new(store), ChainConfig::default());
        let tx = Transaction::new(AccountId::from_name("w"), 0, 0, 1, vec![1, 2, 3]);
        let block = chain.assemble_next(1_000, AccountId::from_name("s"), 0, vec![tx]);
        chain.append(block).unwrap();
    }
    // Append garbage that claims a huge length: reopen must fail loudly
    // rather than silently truncate.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("seg-00000.blk"))
            .unwrap();
        f.write_all(&[0xFF, 0xFF, 0x00, 0x00]).unwrap();
        f.write_all(&[0xAB; 64]).unwrap();
    }
    assert!(
        open(&dir).is_err(),
        "corruption must not be silently accepted"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
