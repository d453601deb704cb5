//! InfiniteChain \[37\]: a two-layer main/side blockchain organization with
//! distributed auditing of side chains.
//!
//! Hwang et al. organize blockchains in two layers — "a main blockchain and
//! a side blockchain with the same architecture. This approach allows for
//! effective data sharing within a homogeneous side blockchain … However,
//! it struggles with expansion to heterogeneous participant blockchains,
//! where different data structures prevent direct communication".
//!
//! Reproduction:
//!
//! * side chains commit record batches into Merkle-rooted blocks and
//!   periodically **anchor** their tips on the main chain;
//! * **distributed auditing**: any auditor samples a side block and checks
//!   it against the main-chain anchor — a side-chain operator cannot
//!   rewrite anchored history without the audit failing;
//! * **homogeneous data sharing**: a record moves between side chains with
//!   a Merkle inclusion proof verified against the main-chain anchor — but
//!   only between chains declaring the same schema; the heterogeneous case
//!   fails with [`TwoLayerError::HeterogeneousSchemas`], reproducing the
//!   limitation the paper calls out (and RQ3 motivates solving).

use blockprov_crypto::merkle::MerkleTree;
use blockprov_crypto::sha256::{hash_parts, Hash256};
use std::collections::BTreeMap;
use std::fmt;

/// A record stored on a side chain (schema-tagged key/value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SideRecord {
    /// Record key.
    pub key: String,
    /// Record payload.
    pub value: Vec<u8>,
}

impl SideRecord {
    fn leaf_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.key.len() + self.value.len() + 16);
        out.extend_from_slice(&(self.key.len() as u64).to_le_bytes());
        out.extend_from_slice(self.key.as_bytes());
        out.extend_from_slice(&self.value);
        out
    }
}

/// A block on a side chain.
#[derive(Debug, Clone)]
pub struct SideBlock {
    /// Height on its side chain.
    pub height: u64,
    /// Previous side-block hash.
    pub prev: Hash256,
    /// Merkle root over the records.
    pub records_root: Hash256,
    /// The records (kept inline; a production chain would prune).
    pub records: Vec<SideRecord>,
    /// This block's hash.
    pub hash: Hash256,
}

fn side_block_hash(height: u64, prev: &Hash256, root: &Hash256) -> Hash256 {
    hash_parts(
        "blockprov-twolayer-side",
        &[&height.to_le_bytes(), prev.as_bytes(), root.as_bytes()],
    )
}

/// An anchor of one side-chain tip on the main chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anchor {
    /// Which side chain.
    pub side: usize,
    /// Anchored side height.
    pub side_height: u64,
    /// Anchored side-block hash.
    pub side_hash: Hash256,
}

/// A main-chain block: a batch of side anchors.
#[derive(Debug, Clone)]
pub struct MainBlock {
    /// Main-chain height.
    pub height: u64,
    /// Previous main-block hash.
    pub prev: Hash256,
    /// Side anchors in this block.
    pub anchors: Vec<Anchor>,
    /// This block's hash.
    pub hash: Hash256,
}

/// One side chain.
#[derive(Debug)]
pub struct SideChain {
    /// Schema all participants of this side chain share.
    pub schema: String,
    blocks: Vec<SideBlock>,
}

impl SideChain {
    /// Latest block.
    pub fn tip(&self) -> Option<&SideBlock> {
        self.blocks.last()
    }

    /// Block at a height.
    pub fn block(&self, height: u64) -> Option<&SideBlock> {
        self.blocks.get(height as usize)
    }

    /// Chain length.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the chain has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// Errors from the two-layer network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwoLayerError {
    /// Unknown side chain.
    UnknownSide(usize),
    /// Side chain has nothing to anchor / share.
    EmptySide(usize),
    /// The record key is not in the given block.
    UnknownRecord(String),
    /// Receiving chain's schema differs — the InfiniteChain limitation.
    HeterogeneousSchemas {
        /// Sender's schema.
        from: String,
        /// Receiver's schema.
        to: String,
    },
    /// The block to share from has not been anchored on the main chain.
    NotAnchored {
        /// Side chain.
        side: usize,
        /// Side height.
        height: u64,
    },
    /// Inclusion proof failed against the anchored root.
    ProofRejected,
}

impl fmt::Display for TwoLayerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TwoLayerError::UnknownSide(s) => write!(f, "unknown side chain {s}"),
            TwoLayerError::EmptySide(s) => write!(f, "side chain {s} has no blocks"),
            TwoLayerError::UnknownRecord(k) => write!(f, "record {k:?} not found"),
            TwoLayerError::HeterogeneousSchemas { from, to } => {
                write!(f, "cannot share between schemas {from:?} and {to:?}")
            }
            TwoLayerError::NotAnchored { side, height } => {
                write!(f, "side {side} block {height} not anchored on main chain")
            }
            TwoLayerError::ProofRejected => write!(f, "inclusion proof rejected"),
        }
    }
}

impl std::error::Error for TwoLayerError {}

/// Outcome of a distributed audit of one side block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Audited side chain.
    pub side: usize,
    /// Audited height.
    pub height: u64,
    /// Hash linkage from genesis to this block holds.
    pub linkage_ok: bool,
    /// Records match the block's Merkle root.
    pub records_ok: bool,
    /// Block hash matches a main-chain anchor.
    pub anchored_ok: bool,
}

impl AuditReport {
    /// All checks passed.
    pub fn passed(&self) -> bool {
        self.linkage_ok && self.records_ok && self.anchored_ok
    }
}

/// The two-layer network: one main chain, many side chains.
#[derive(Debug, Default)]
pub struct TwoLayerNetwork {
    sides: Vec<SideChain>,
    main: Vec<MainBlock>,
    /// (side, side_height) → main anchor lookup.
    anchor_index: BTreeMap<(usize, u64), Hash256>,
}

impl TwoLayerNetwork {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a side chain with a declared record schema. Returns its id.
    pub fn add_side_chain(&mut self, schema: &str) -> usize {
        self.sides.push(SideChain { schema: schema.to_string(), blocks: Vec::new() });
        self.sides.len() - 1
    }

    /// Access a side chain.
    pub fn side(&self, id: usize) -> Option<&SideChain> {
        self.sides.get(id)
    }

    /// The main chain.
    pub fn main_chain(&self) -> &[MainBlock] {
        &self.main
    }

    /// Commit a batch of records as a new side block.
    pub fn commit_side_block(
        &mut self,
        side: usize,
        records: Vec<SideRecord>,
    ) -> Result<u64, TwoLayerError> {
        let chain = self.sides.get_mut(side).ok_or(TwoLayerError::UnknownSide(side))?;
        let height = chain.blocks.len() as u64;
        let prev = chain.blocks.last().map(|b| b.hash).unwrap_or(Hash256::ZERO);
        let leaves: Vec<Vec<u8>> = records.iter().map(SideRecord::leaf_bytes).collect();
        let records_root = MerkleTree::from_data(&leaves).root();
        let hash = side_block_hash(height, &prev, &records_root);
        chain.blocks.push(SideBlock { height, prev, records_root, records, hash });
        Ok(height)
    }

    /// Anchor the current tips of all side chains into a new main block.
    /// (The paper's periodic distributed-audit checkpoint.)
    pub fn anchor_all(&mut self) -> u64 {
        let anchors: Vec<Anchor> = self
            .sides
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.tip().map(|b| Anchor { side: i, side_height: b.height, side_hash: b.hash })
            })
            .collect();
        let height = self.main.len() as u64;
        let prev = self.main.last().map(|b| b.hash).unwrap_or(Hash256::ZERO);
        let mut parts: Vec<Vec<u8>> = vec![height.to_le_bytes().to_vec(), prev.0.to_vec()];
        for a in &anchors {
            let mut row = Vec::with_capacity(48);
            row.extend_from_slice(&(a.side as u64).to_le_bytes());
            row.extend_from_slice(&a.side_height.to_le_bytes());
            row.extend_from_slice(a.side_hash.as_bytes());
            parts.push(row);
        }
        let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        let hash = hash_parts("blockprov-twolayer-main", &refs);
        for a in &anchors {
            self.anchor_index.insert((a.side, a.side_height), a.side_hash);
        }
        self.main.push(MainBlock { height, prev, anchors, hash });
        height
    }

    /// Distributed audit of one side block by an independent auditor: check
    /// hash linkage, the records' Merkle root, and the main-chain anchor.
    pub fn audit(&self, side: usize, height: u64) -> Result<AuditReport, TwoLayerError> {
        let chain = self.sides.get(side).ok_or(TwoLayerError::UnknownSide(side))?;
        let block = chain
            .block(height)
            .ok_or(TwoLayerError::EmptySide(side))?;

        // Linkage from genesis.
        let mut linkage_ok = true;
        let mut prev = Hash256::ZERO;
        for b in &chain.blocks[..=height as usize] {
            if b.prev != prev || b.hash != side_block_hash(b.height, &b.prev, &b.records_root) {
                linkage_ok = false;
                break;
            }
            prev = b.hash;
        }

        let leaves: Vec<Vec<u8>> = block.records.iter().map(SideRecord::leaf_bytes).collect();
        let records_ok = MerkleTree::from_data(&leaves).root() == block.records_root;

        let anchored_ok = self
            .anchor_index
            .get(&(side, height))
            .is_some_and(|h| *h == block.hash);

        Ok(AuditReport { side, height, linkage_ok, records_ok, anchored_ok })
    }

    /// Share a record from one side chain to another, verified against the
    /// main-chain anchor. Homogeneous schemas only — the heterogeneous case
    /// is the limitation the survey highlights.
    pub fn share_record(
        &mut self,
        from: usize,
        height: u64,
        key: &str,
        to: usize,
    ) -> Result<(), TwoLayerError> {
        let from_schema =
            self.sides.get(from).ok_or(TwoLayerError::UnknownSide(from))?.schema.clone();
        let to_schema =
            self.sides.get(to).ok_or(TwoLayerError::UnknownSide(to))?.schema.clone();
        if from_schema != to_schema {
            return Err(TwoLayerError::HeterogeneousSchemas { from: from_schema, to: to_schema });
        }
        let block = self.sides[from]
            .block(height)
            .ok_or(TwoLayerError::EmptySide(from))?;

        // The receiver trusts only the main chain: the source block must be
        // anchored and the record proven under its root.
        let anchored = self
            .anchor_index
            .get(&(from, height))
            .ok_or(TwoLayerError::NotAnchored { side: from, height })?;
        if *anchored != block.hash {
            return Err(TwoLayerError::ProofRejected);
        }
        let idx = block
            .records
            .iter()
            .position(|r| r.key == key)
            .ok_or_else(|| TwoLayerError::UnknownRecord(key.to_string()))?;
        let leaves: Vec<Vec<u8>> = block.records.iter().map(SideRecord::leaf_bytes).collect();
        let tree = MerkleTree::from_data(&leaves);
        let proof = tree.prove(idx).ok_or(TwoLayerError::ProofRejected)?;
        let record = block.records[idx].clone();
        if !proof.verify_data(&block.records_root, &record.leaf_bytes()) {
            return Err(TwoLayerError::ProofRejected);
        }

        // Import on the receiving side as a new block.
        self.commit_side_block(to, vec![record])?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(key: &str, value: &[u8]) -> SideRecord {
        SideRecord { key: key.to_string(), value: value.to_vec() }
    }

    fn network_with_two_homogeneous_sides() -> (TwoLayerNetwork, usize, usize) {
        let mut n = TwoLayerNetwork::new();
        let a = n.add_side_chain("edu-credential-v1");
        let b = n.add_side_chain("edu-credential-v1");
        (n, a, b)
    }

    #[test]
    fn side_blocks_chain_and_anchor() {
        let (mut n, a, _) = network_with_two_homogeneous_sides();
        n.commit_side_block(a, vec![rec("k1", b"v1")]).unwrap();
        n.commit_side_block(a, vec![rec("k2", b"v2")]).unwrap();
        let main_h = n.anchor_all();
        assert_eq!(main_h, 0);
        // Only side `a` has blocks, and only its tip (height 1) is anchored.
        let anchors = &n.main_chain()[0].anchors;
        assert_eq!(anchors.len(), 1);
        assert_eq!(anchors[0].side_height, 1);
    }

    #[test]
    fn audit_passes_for_honest_anchored_block() {
        let (mut n, a, _) = network_with_two_homogeneous_sides();
        n.commit_side_block(a, vec![rec("k1", b"v1"), rec("k2", b"v2")]).unwrap();
        n.anchor_all();
        let report = n.audit(a, 0).unwrap();
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn audit_flags_unanchored_block() {
        let (mut n, a, _) = network_with_two_homogeneous_sides();
        n.commit_side_block(a, vec![rec("k1", b"v1")]).unwrap();
        // No anchor_all: auditors must notice the missing anchor.
        let report = n.audit(a, 0).unwrap();
        assert!(report.linkage_ok && report.records_ok);
        assert!(!report.anchored_ok);
        assert!(!report.passed());
    }

    #[test]
    fn audit_detects_side_history_rewrite() {
        let (mut n, a, _) = network_with_two_homogeneous_sides();
        n.commit_side_block(a, vec![rec("grade", b"C")]).unwrap();
        n.anchor_all();
        // The side operator rewrites the record after anchoring.
        n.sides[a].blocks[0].records[0].value = b"A+".to_vec();
        let report = n.audit(a, 0).unwrap();
        assert!(!report.records_ok);
        assert!(!report.passed());
    }

    #[test]
    fn audit_detects_relink_attack() {
        let (mut n, a, _) = network_with_two_homogeneous_sides();
        n.commit_side_block(a, vec![rec("k", b"v")]).unwrap();
        n.commit_side_block(a, vec![rec("k2", b"v2")]).unwrap();
        n.anchor_all();
        // Rebuild block 0 entirely (consistent root+hash) — linkage of
        // block 1 and the anchor both break.
        let forged = vec![rec("k", b"forged")];
        let leaves: Vec<Vec<u8>> = forged.iter().map(SideRecord::leaf_bytes).collect();
        let root = MerkleTree::from_data(&leaves).root();
        let hash = side_block_hash(0, &Hash256::ZERO, &root);
        n.sides[a].blocks[0] = SideBlock {
            height: 0,
            prev: Hash256::ZERO,
            records_root: root,
            records: forged,
            hash,
        };
        assert!(!n.audit(a, 1).unwrap().linkage_ok);
        assert!(!n.audit(a, 0).unwrap().anchored_ok);
    }

    #[test]
    fn homogeneous_sharing_succeeds_with_proof() {
        let (mut n, a, b) = network_with_two_homogeneous_sides();
        n.commit_side_block(a, vec![rec("diploma-77", b"magna cum laude")]).unwrap();
        n.anchor_all();
        n.share_record(a, 0, "diploma-77", b).unwrap();
        let imported = n.side(b).unwrap().tip().unwrap();
        assert_eq!(imported.records[0].key, "diploma-77");
        assert_eq!(imported.records[0].value, b"magna cum laude");
    }

    #[test]
    fn heterogeneous_sharing_fails() {
        let mut n = TwoLayerNetwork::new();
        let a = n.add_side_chain("edu-credential-v1");
        let c = n.add_side_chain("medical-record-v2");
        n.commit_side_block(a, vec![rec("k", b"v")]).unwrap();
        n.anchor_all();
        assert_eq!(
            n.share_record(a, 0, "k", c).unwrap_err(),
            TwoLayerError::HeterogeneousSchemas {
                from: "edu-credential-v1".into(),
                to: "medical-record-v2".into()
            }
        );
    }

    #[test]
    fn sharing_requires_anchoring() {
        let (mut n, a, b) = network_with_two_homogeneous_sides();
        n.commit_side_block(a, vec![rec("k", b"v")]).unwrap();
        assert_eq!(
            n.share_record(a, 0, "k", b).unwrap_err(),
            TwoLayerError::NotAnchored { side: a, height: 0 }
        );
    }

    #[test]
    fn sharing_unknown_record_fails() {
        let (mut n, a, b) = network_with_two_homogeneous_sides();
        n.commit_side_block(a, vec![rec("k", b"v")]).unwrap();
        n.anchor_all();
        assert_eq!(
            n.share_record(a, 0, "missing", b).unwrap_err(),
            TwoLayerError::UnknownRecord("missing".into())
        );
    }

    #[test]
    fn main_chain_links() {
        let (mut n, a, _) = network_with_two_homogeneous_sides();
        n.commit_side_block(a, vec![rec("k", b"v")]).unwrap();
        n.anchor_all();
        n.commit_side_block(a, vec![rec("k2", b"v2")]).unwrap();
        n.anchor_all();
        let main = n.main_chain();
        assert_eq!(main.len(), 2);
        assert_eq!(main[1].prev, main[0].hash);
    }
}
