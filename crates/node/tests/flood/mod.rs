//! Mixed-scenario traffic for the node's end-to-end tests.
//!
//! Builds a pre-chained stream of blocks whose transactions carry real
//! [`ProvenanceRecord`]s rotating across four survey scenarios — supply
//! chain, digital forensics (IoT custody), ML asset tracking and
//! scientific workflows — so a stream posted to the node exercises the
//! same decode/index path as the domain crates, not opaque byte blobs.
//!
//! The HTTP-ingested node and the test's direct-ledger oracle both ingest
//! streams built here, which is what lets them agree block-for-block.

use blockprov_core::txkind;
use blockprov_ledger::block::{Block, BlockHash};
use blockprov_ledger::tx::{AccountId, Transaction};
use blockprov_provenance::model::{Action, Domain, ProvenanceRecord};
use blockprov_wire::Codec;

/// One survey scenario: acting agent, artifact name prefix, domain tag.
const SCENARIOS: [(&str, &str, Domain); 4] = [
    ("supply-manufacturer", "pallet", Domain::SupplyChain),
    (
        "forensics-investigator",
        "evidence",
        Domain::DigitalForensics,
    ),
    ("mlprov-trainer", "model", Domain::MachineLearning),
    ("sciwork-engine", "dataset", Domain::ScientificCollaboration),
];

/// Action rotation (all parent-free, so graph insertion cannot fail).
const ACTIONS: [Action; 6] = [
    Action::Create,
    Action::Update,
    Action::Read,
    Action::Share,
    Action::Transfer,
    Action::Execute,
];

/// Distinct artifacts per scenario; queries against any one artifact see
/// a deep history once the stream is a few hundred transactions long.
pub const ARTIFACTS_PER_SCENARIO: u64 = 64;

/// The artifact name the `i`-th flood transaction touches.
pub fn artifact_name(i: u64) -> String {
    let (_, prefix, _) = SCENARIOS[(i % 4) as usize];
    format!("{prefix}-{}", (i / 4) % ARTIFACTS_PER_SCENARIO)
}

/// The `i`-th flood transaction: a provenance record in the `i % 4`-th
/// scenario, wire-encoded into a [`txkind::PROVENANCE`] transaction.
/// Timestamps advance with `i`, so record ids never collide.
pub fn mixed_tx(i: u64, timestamp_ms: u64) -> Transaction {
    let (agent_name, _, domain) = SCENARIOS[(i % 4) as usize];
    let agent = AccountId::from_name(agent_name);
    let record = ProvenanceRecord::new(
        &artifact_name(i),
        agent,
        ACTIONS[((i / 4) % ACTIONS.len() as u64) as usize].clone(),
        timestamp_ms,
        domain,
    );
    Transaction::new(agent, i, timestamp_ms, txkind::PROVENANCE, record.to_wire())
}

/// Pre-assemble `blocks` chained blocks of mixed-scenario traffic on top
/// of `(parent, parent_height, parent_ts)`, `txs_per_block` transactions
/// each. `tx_base` offsets the global transaction counter so successive
/// streams against one chain stay distinct.
pub fn flood_blocks(
    parent: BlockHash,
    parent_height: u64,
    parent_ts: u64,
    blocks: u64,
    txs_per_block: u64,
    tx_base: u64,
) -> Vec<Block> {
    let sealer = AccountId::from_name("flood-sealer");
    let mut prev = parent;
    (0..blocks)
        .map(|b| {
            let ts = parent_ts + b + 1;
            let txs = (0..txs_per_block)
                .map(|t| mixed_tx(tx_base + b * txs_per_block + t, ts))
                .collect();
            let block = Block::assemble(parent_height + b + 1, prev, ts, sealer, 0, txs);
            prev = block.hash();
            block
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_chains_and_rotates_scenarios() {
        let stream = flood_blocks(BlockHash::ZERO, 0, 1_000, 8, 4, 0);
        assert_eq!(stream.len(), 8);
        for (i, block) in stream.iter().enumerate() {
            assert_eq!(block.header.height, i as u64 + 1);
            assert_eq!(block.txs.len(), 4);
            if i > 0 {
                assert_eq!(block.header.prev, stream[i - 1].hash());
            }
        }
        // Each block's 4 txs cover all 4 scenario agents.
        let authors: std::collections::BTreeSet<_> =
            stream[0].txs.iter().map(|tx| tx.author).collect();
        assert_eq!(authors.len(), 4);
    }

    #[test]
    fn records_decode_back_out() {
        let tx = mixed_tx(5, 42);
        let mut r = blockprov_wire::Reader::new(&tx.payload);
        let record = ProvenanceRecord::decode(&mut r).expect("decodable");
        assert_eq!(record.subject, artifact_name(5));
        assert_eq!(record.timestamp_ms, 42);
    }
}
