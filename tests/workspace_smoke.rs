//! Workspace bring-up smoke test: the seam the whole DAG rests on.
//!
//! Exercises the wire→crypto→ledger path end to end through the umbrella
//! crate: transactions flow `Mempool` → `Chain`, a committed transaction is
//! proven by Merkle inclusion, and mutating a historical transaction is
//! detected (Figure 2 tamper evidence).

use blockprov::ledger::block::Block;
use blockprov::ledger::chain::{Chain, ChainConfig};
use blockprov::ledger::mempool::Mempool;
use blockprov::ledger::tx::{AccountId, Transaction};

fn make_tx(author: &AccountId, nonce: u64, payload: &[u8]) -> Transaction {
    Transaction::new(*author, nonce, 1_700_000_000_000 + nonce, 1, payload.to_vec())
}

#[test]
fn mempool_to_chain_to_proof_to_tamper_evidence() {
    let mut chain = Chain::new(ChainConfig::default());
    let mut mempool = Mempool::new(1024);
    let alice = AccountId::from_name("alice");
    let sealer = AccountId::from_name("sealer");

    // Append three blocks of transactions through the mempool.
    let mut committed = Vec::new();
    for block_no in 0u64..3 {
        for i in 0..8 {
            let nonce = block_no * 8 + i;
            let payload = format!("provenance-record-{nonce}");
            let id = mempool
                .insert(make_tx(&alice, nonce, payload.as_bytes()))
                .expect("mempool accepts fresh txs");
            committed.push(id);
        }
        let batch = mempool.take_batch(8);
        assert_eq!(batch.len(), 8, "mempool hands back the whole batch");
        let block = chain.assemble_next(
            1_700_000_100_000 + block_no,
            sealer,
            0,
            batch,
        );
        chain.append(block).expect("well-formed child block appends");
    }
    assert_eq!(chain.height(), 3);
    assert!(mempool.is_empty(), "all txs drained into blocks");
    chain
        .verify_integrity()
        .expect("untampered chain passes full verification");

    // A committed transaction is proven by Merkle inclusion, and the proof
    // is self-contained (header → block hash, path → tx root).
    let target = &committed[10];
    let proof = chain.prove_tx(target).expect("canonical tx is provable");
    assert!(proof.verify(), "inclusion proof verifies");
    assert_eq!(&proof.tx_id, target);

    // A proof does not transfer to a different transaction.
    let other = &committed[11];
    let mut wrong = proof.clone();
    wrong.tx_id = *other;
    assert!(!wrong.verify(), "proof is bound to its transaction id");

    // Tamper evidence: mutate a historical transaction and re-derive.
    let original = chain.block_at(2).expect("block 2 is canonical");
    let mut tampered = (*original).clone();
    tampered.txs[3].payload = b"forged-history".to_vec();

    // The header's Merkle root no longer covers the transaction set...
    assert!(
        !tampered.tx_root_valid(),
        "mutating a tx invalidates the committed tx root"
    );

    // ...and repairing the root changes the block hash, severing the link
    // from every later block (the hash chain of Figure 2).
    tampered.header.tx_root = Block::tx_root(&tampered.txs);
    assert!(tampered.tx_root_valid());
    assert_ne!(
        tampered.hash(),
        original.hash(),
        "a repaired forgery has a different block hash"
    );
    let child = chain.block_at(3).expect("block 3 is canonical");
    assert_eq!(child.header.prev, original.hash());
    assert_ne!(
        child.header.prev,
        tampered.hash(),
        "the child's prev-hash no longer matches the forged block"
    );
}

#[test]
fn umbrella_reexports_cover_every_crate() {
    // One symbol per re-exported module: a compile-time check that the
    // umbrella's module map stays complete as crates evolve.
    use std::any::type_name;
    let symbols = [
        type_name::<blockprov::access::RbacEngine>(),
        type_name::<blockprov::consensus::ConsensusKind>(),
        type_name::<blockprov::contracts::ContractRuntime>(),
        type_name::<blockprov::core::LedgerConfig>(),
        type_name::<blockprov::crosschain::htlc::Htlc>(),
        type_name::<blockprov::crypto::MerkleTree>(),
        type_name::<blockprov::forensics::Stage>(),
        type_name::<blockprov::health::RecordType>(),
        type_name::<blockprov::ledger::Chain>(),
        type_name::<blockprov::mlprov::AssetKind>(),
        type_name::<blockprov::provenance::Action>(),
        type_name::<blockprov::sciwork::WorkflowId>(),
        type_name::<blockprov::simnet::SimTime>(),
        type_name::<blockprov::storage::Chunker>(),
        type_name::<blockprov::supply::PufDevice>(),
    ];
    assert_eq!(symbols.len(), 15);

    // `wire` exports a trait, referenced via a bound instead of a type name.
    fn assert_codec<T: blockprov::wire::Codec>() {}
    assert_codec::<u64>();
}
