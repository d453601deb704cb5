//! Blocks: headers committing to transactions through a Merkle root.

use crate::tx::{AccountId, Transaction, TxId};
use blockprov_crypto::merkle::{MerkleProof, MerkleTree};
use blockprov_crypto::sha256::{sha256, Hash256};
use blockprov_wire::{decode_seq, encode_seq, Codec, Reader, WireError, Writer};
use std::fmt;

/// Hash of a block header — the block's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockHash(pub Hash256);

impl BlockHash {
    /// Parent pointer of the genesis block.
    pub const ZERO: BlockHash = BlockHash(Hash256::ZERO);
}

impl fmt::Display for BlockHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{}", self.0.short())
    }
}

impl Codec for BlockHash {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BlockHash(Hash256::decode(r)?))
    }
}

/// A finality checkpoint: a height/hash pair the chain treats as
/// irreversible.
///
/// Once a block is checkpointed, fork choice never reorgs across it, its
/// fork-path undo metadata is dropped, and its decoded body is demoted from
/// the hot tier to cold storage unless it is still staged in the group
/// commit that checkpointed it. Checkpoints are `Codec` so header
/// relays and light verifiers can ship them as trusted anchors (the
/// "trusted checkpoint" a [`crate::chain::TxInclusionProof`] verifier
/// starts from).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Height of the checkpointed block.
    pub height: u64,
    /// Hash of the checkpointed block.
    pub hash: BlockHash,
}

impl fmt::Display for Checkpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint@{}:{}", self.height, self.hash)
    }
}

impl Codec for Checkpoint {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.height);
        self.hash.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            height: r.get_u64()?,
            hash: BlockHash::decode(r)?,
        })
    }
}

/// The fields of Figure 2: previous hash, Merkle root, plus consensus
/// metadata (difficulty + nonce for PoW, proposer for PoS/PBFT/PoA).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Format version.
    pub version: u16,
    /// Height above genesis (genesis = 0).
    pub height: u64,
    /// Hash of the parent block header.
    pub prev: BlockHash,
    /// Merkle root over the block's transaction ids.
    pub tx_root: Hash256,
    /// Root of application state after this block (ZERO when unused).
    pub state_root: Hash256,
    /// Proposal time (milliseconds).
    pub timestamp_ms: u64,
    /// Required leading zero bits of the block hash (0 = no PoW).
    pub difficulty_bits: u32,
    /// PoW search counter (0 when unused).
    pub nonce: u64,
    /// Block proposer (miner / validator / authority).
    pub proposer: AccountId,
}

impl BlockHeader {
    /// The block hash: digest of the canonical header encoding.
    pub fn hash(&self) -> BlockHash {
        BlockHash(sha256(&self.to_wire()))
    }

    /// Whether the header hash meets its own difficulty target.
    pub fn meets_difficulty(&self) -> bool {
        self.hash().0.leading_zero_bits() >= self.difficulty_bits
    }

    /// Work contributed by this block under the heaviest-chain rule.
    ///
    /// `2^difficulty_bits`, saturating; difficulty 0 still contributes 1 so
    /// that longest-chain selection falls out of the same rule.
    pub fn work(&self) -> u128 {
        1u128.checked_shl(self.difficulty_bits).unwrap_or(u128::MAX)
    }
}

impl Codec for BlockHeader {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(self.version);
        w.put_u64(self.height);
        self.prev.encode(w);
        self.tx_root.encode(w);
        self.state_root.encode(w);
        w.put_u64(self.timestamp_ms);
        w.put_u32(self.difficulty_bits);
        w.put_u64(self.nonce);
        self.proposer.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            version: r.get_u16()?,
            height: r.get_u64()?,
            prev: BlockHash::decode(r)?,
            tx_root: Hash256::decode(r)?,
            state_root: Hash256::decode(r)?,
            timestamp_ms: r.get_u64()?,
            difficulty_bits: r.get_u32()?,
            nonce: r.get_u64()?,
            proposer: AccountId::decode(r)?,
        })
    }
}

/// A full block: header plus transaction list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The committed header.
    pub header: BlockHeader,
    /// Transactions in commitment order.
    pub txs: Vec<Transaction>,
}

impl Block {
    /// Current block format version.
    pub const VERSION: u16 = 1;

    /// Assemble a block over `txs` with the correct Merkle root.
    ///
    /// `difficulty_bits` and `nonce` start at the provided values; PoW miners
    /// mutate the nonce afterwards (see `blockprov-consensus`).
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        height: u64,
        prev: BlockHash,
        timestamp_ms: u64,
        proposer: AccountId,
        difficulty_bits: u32,
        txs: Vec<Transaction>,
    ) -> Block {
        let tx_root = Self::tx_root(&txs);
        Block {
            header: BlockHeader {
                version: Self::VERSION,
                height,
                prev,
                tx_root,
                state_root: Hash256::ZERO,
                timestamp_ms,
                difficulty_bits,
                nonce: 0,
                proposer,
            },
            txs,
        }
    }

    /// Merkle root over transaction ids.
    pub fn tx_root(txs: &[Transaction]) -> Hash256 {
        let ids: Vec<TxId> = txs.iter().map(Transaction::id).collect();
        Self::tx_root_from_ids(&ids)
    }

    /// Merkle root over already-derived transaction ids.
    ///
    /// The parallel ingest stage derives every tx id once and reuses them
    /// for both the root recomputation and the commit-side indexes, so the
    /// root check must not re-derive them.
    pub fn tx_root_from_ids(ids: &[TxId]) -> Hash256 {
        let leaves: Vec<Hash256> = ids
            .iter()
            .map(|id| blockprov_crypto::merkle::leaf_hash(id.0.as_bytes()))
            .collect();
        MerkleTree::from_leaf_hashes(leaves).root()
    }

    /// The block hash.
    pub fn hash(&self) -> BlockHash {
        self.header.hash()
    }

    /// True if the header's Merkle root matches the transactions.
    pub fn tx_root_valid(&self) -> bool {
        Self::tx_root(&self.txs) == self.header.tx_root
    }

    /// Inclusion proof for the transaction at `index`.
    ///
    /// Verifies against `header.tx_root` with the transaction id as leaf —
    /// this is the proof ProvChain-style auditors hand to users.
    pub fn prove_tx(&self, index: usize) -> Option<(TxId, MerkleProof)> {
        let tx = self.txs.get(index)?;
        let leaves: Vec<Hash256> = self
            .txs
            .iter()
            .map(|t| blockprov_crypto::merkle::leaf_hash(t.id().0.as_bytes()))
            .collect();
        let tree = MerkleTree::from_leaf_hashes(leaves);
        Some((tx.id(), tree.prove(index)?))
    }

    /// Verify a transaction inclusion proof produced by [`Block::prove_tx`].
    pub fn verify_tx_proof(tx_root: &Hash256, tx_id: &TxId, proof: &MerkleProof) -> bool {
        proof.verify_data(tx_root, tx_id.0.as_bytes())
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.to_wire().len()
    }
}

impl Codec for Block {
    fn encode(&self, w: &mut Writer) {
        self.header.encode(w);
        encode_seq(&self.txs, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            header: BlockHeader::decode(r)?,
            txs: decode_seq(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_txs(n: usize) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                Transaction::new(
                    AccountId::from_name(&format!("user-{}", i % 3)),
                    i as u64,
                    1000 + i as u64,
                    1,
                    format!("op-{i}").into_bytes(),
                )
            })
            .collect()
    }

    fn sample_block(n: usize) -> Block {
        Block::assemble(
            1,
            BlockHash::ZERO,
            5000,
            AccountId::from_name("proposer"),
            0,
            sample_txs(n),
        )
    }

    #[test]
    fn assemble_produces_valid_root() {
        let b = sample_block(7);
        assert!(b.tx_root_valid());
    }

    #[test]
    fn tampering_tx_breaks_root_and_hash() {
        let mut b = sample_block(5);
        let before = b.hash();
        b.txs[2].payload = b"evil".to_vec();
        assert!(!b.tx_root_valid(), "root no longer matches");
        // Recomputing the root changes the header, hence the block hash —
        // the Figure 2 cascade.
        b.header.tx_root = Block::tx_root(&b.txs);
        assert_ne!(b.hash(), before);
    }

    #[test]
    fn header_hash_covers_all_fields() {
        let b = sample_block(3);
        let base = b.hash();
        let mut h = b.header.clone();
        h.nonce += 1;
        assert_ne!(h.hash(), base);
        let mut h = b.header.clone();
        h.timestamp_ms += 1;
        assert_ne!(h.hash(), base);
        let mut h = b.header.clone();
        h.prev = BlockHash(sha256(b"other"));
        assert_ne!(h.hash(), base);
    }

    #[test]
    fn tx_inclusion_proofs() {
        let b = sample_block(9);
        for i in 0..9 {
            let (txid, proof) = b.prove_tx(i).unwrap();
            assert!(Block::verify_tx_proof(&b.header.tx_root, &txid, &proof));
        }
        assert!(b.prove_tx(9).is_none());
    }

    #[test]
    fn tx_proof_fails_for_foreign_tx() {
        let b = sample_block(4);
        let other = Transaction::new(AccountId::from_name("mallory"), 0, 0, 1, b"fake".to_vec());
        let (_, proof) = b.prove_tx(0).unwrap();
        assert!(!Block::verify_tx_proof(
            &b.header.tx_root,
            &other.id(),
            &proof
        ));
    }

    #[test]
    fn empty_block_is_well_formed() {
        let b = sample_block(0);
        assert!(b.tx_root_valid());
        assert_eq!(b.header.tx_root, blockprov_crypto::merkle::empty_root());
    }

    #[test]
    fn difficulty_and_work() {
        let mut b = sample_block(1);
        b.header.difficulty_bits = 0;
        assert!(b.header.meets_difficulty(), "difficulty 0 always met");
        assert_eq!(b.header.work(), 1);
        b.header.difficulty_bits = 8;
        assert_eq!(b.header.work(), 256);
        b.header.difficulty_bits = 200;
        assert_eq!(b.header.work(), u128::MAX, "oversized difficulty saturates");
    }

    #[test]
    fn codec_round_trip() {
        let b = sample_block(6);
        let decoded = Block::from_wire(&b.to_wire()).unwrap();
        assert_eq!(decoded, b);
        assert_eq!(decoded.hash(), b.hash());
    }

    #[test]
    fn checkpoint_round_trip_and_display() {
        let cp = Checkpoint {
            height: 42,
            hash: sample_block(1).hash(),
        };
        assert_eq!(Checkpoint::from_wire(&cp.to_wire()).unwrap(), cp);
        assert!(cp.to_string().starts_with("checkpoint@42:"));
    }
}
