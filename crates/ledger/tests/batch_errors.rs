//! Error attribution for batched ingest: a bad block in the middle of a
//! batch must fail with the same `ValidationError` sequential `append`
//! would report, at the right batch index; blocks before it commit, blocks
//! after it do not, and the chain's indexes stay consistent.

use blockprov_crypto::sha256::sha256;
use blockprov_ledger::block::Block;
use blockprov_ledger::chain::{Chain, ChainConfig, SignaturePolicy, ValidationError};
use blockprov_ledger::tx::{AccountId, Transaction};

/// A linear stream of `n` blocks on top of `chain`'s tip. `tx_for` decides
/// which blocks carry a transaction.
fn linear_stream(
    chain: &Chain,
    n: usize,
    tx_for: impl Fn(usize) -> Vec<Transaction>,
) -> Vec<Block> {
    let tip = chain.block(&chain.tip()).expect("tip readable");
    let mut parent = chain.tip();
    let mut height = tip.header.height;
    let mut ts = tip.header.timestamp_ms;
    (0..n)
        .map(|i| {
            height += 1;
            ts += 10;
            let b = Block::assemble(
                height,
                parent,
                ts,
                AccountId::from_name("sealer"),
                0,
                tx_for(i),
            );
            parent = b.hash();
            b
        })
        .collect()
}

/// The failure must carry the right index, the right error, exactly the
/// prefix committed, and leave the chain consistent with the suffix absent.
fn assert_stops_at(
    mut chain: Chain,
    blocks: Vec<Block>,
    bad_index: usize,
    expect: impl Fn(&ValidationError) -> bool,
) {
    let suffix_hashes: Vec<_> = blocks[bad_index..].iter().map(Block::hash).collect();
    let err = chain
        .append_batch(blocks)
        .expect_err("the corrupted block must fail the batch");
    assert_eq!(
        err.index, bad_index,
        "failure attributed to the wrong block"
    );
    assert!(expect(&err.error), "wrong validation error: {}", err.error);
    assert_eq!(
        err.committed.len(),
        bad_index,
        "exactly the prefix before the bad block must commit"
    );
    assert_eq!(
        chain.height() as usize,
        bad_index,
        "chain tip must sit at the last good block"
    );
    for hash in &suffix_hashes {
        assert!(
            chain.block(hash).is_none(),
            "block at or after the failure must not be committed"
        );
    }
    assert!(
        chain.index_consistent(),
        "indexes diverged after a failed batch"
    );
    assert!(chain.verify_integrity().is_ok());
}

fn one_tx(i: usize) -> Vec<Transaction> {
    vec![Transaction::new(
        AccountId::from_name("alice"),
        i as u64,
        2_000 + i as u64,
        1,
        vec![i as u8],
    )]
}

#[test]
fn bad_tx_root_mid_batch() {
    let chain = Chain::new(ChainConfig::default());
    let mut blocks = linear_stream(&chain, 5, one_tx);
    blocks[2].header.tx_root = sha256(b"forged root");
    assert_stops_at(chain, blocks, 2, |e| {
        matches!(e, ValidationError::BadTxRoot)
    });
}

#[test]
fn bad_signature_mid_batch() {
    let config = ChainConfig {
        signature_policy: SignaturePolicy::Required,
        ..ChainConfig::default()
    };
    let chain = Chain::new(config);
    // Empty blocks satisfy `Required` trivially; block 2 carries an
    // unsigned transaction.
    let blocks = linear_stream(&chain, 5, |i| if i == 2 { one_tx(i) } else { vec![] });
    let bad_tx_id = blocks[2].txs[0].id();
    assert_stops_at(
        chain,
        blocks,
        2,
        |e| matches!(e, ValidationError::BadSignature(id) if *id == bad_tx_id),
    );
}

#[test]
fn bad_pow_mid_batch() {
    let chain = Chain::new(ChainConfig::default());
    let mut blocks = linear_stream(&chain, 5, one_tx);
    // Claim 64 leading zero bits without mining: the difficulty check
    // fails on the already-computed hash.
    blocks[2].header.difficulty_bits = 64;
    assert_stops_at(chain, blocks, 2, |e| {
        matches!(e, ValidationError::BadProofOfWork)
    });
}

#[test]
fn first_and_last_block_failures_attribute_correctly() {
    // Corrupt the first block: nothing commits.
    let chain = Chain::new(ChainConfig::default());
    let mut blocks = linear_stream(&chain, 3, one_tx);
    blocks[0].header.tx_root = sha256(b"forged");
    assert_stops_at(chain, blocks, 0, |e| {
        matches!(e, ValidationError::BadTxRoot)
    });

    // Corrupt the last block: everything else commits.
    let chain = Chain::new(ChainConfig::default());
    let mut blocks = linear_stream(&chain, 3, one_tx);
    blocks[2].header.tx_root = sha256(b"forged");
    assert_stops_at(chain, blocks, 2, |e| {
        matches!(e, ValidationError::BadTxRoot)
    });
}

#[test]
fn batch_resumes_after_skipping_the_bad_block() {
    // The committed prefix stays usable: re-submitting the suffix re-built
    // on the surviving tip succeeds.
    let mut chain = Chain::new(ChainConfig::default());
    let mut blocks = linear_stream(&chain, 5, one_tx);
    blocks[2].header.tx_root = sha256(b"forged root");
    let err = chain
        .append_batch(blocks)
        .expect_err("must fail at block 2");
    assert_eq!(err.index, 2);
    let repaired = linear_stream(&chain, 3, |i| one_tx(10 + i));
    let outcomes = chain
        .append_batch(repaired)
        .expect("repaired suffix must append cleanly");
    assert_eq!(outcomes.len(), 3);
    assert_eq!(chain.height(), 5);
    assert!(chain.index_consistent());
}

/// A failure in the middle of a batch is attributed to its own index.
/// (The name dates from when stage 1 could run on a worker pool; it now
/// always runs inline, so one config covers it.)
#[test]
fn pooled_and_inline_attribution_agree() {
    let chain = Chain::new(ChainConfig::default());
    let mut blocks = linear_stream(&chain, 6, one_tx);
    blocks[3].header.tx_root = sha256(b"forged");
    assert_stops_at(chain, blocks, 3, |e| {
        matches!(e, ValidationError::BadTxRoot)
    });
}
