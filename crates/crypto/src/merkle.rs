//! Merkle trees with domain-separated hashing and inclusion proofs.
//!
//! This is the tamper-evidence mechanism of the paper's Figure 2: a block
//! header commits to its transactions through the Merkle root, so altering
//! any transaction invalidates the header and every subsequent block.
//!
//! Design notes:
//!
//! * Leaf and interior hashes use distinct prefixes (`0x00` / `0x01`,
//!   RFC 6962 style) so an interior node can never be replayed as a leaf
//!   (second-preimage defence).
//! * Odd nodes are promoted unchanged to the next level (no duplication, so
//!   the CVE-2012-2459-style duplicate-leaf ambiguity cannot arise).
//! * The empty tree has a distinguished root `H(0x02 || "merkle-empty")`.

use crate::sha256::{Hash256, Sha256};
use blockprov_wire::{decode_seq, encode_seq, Codec, Reader, WireError, Writer};

const LEAF_PREFIX: u8 = 0x00;
const NODE_PREFIX: u8 = 0x01;
const EMPTY_PREFIX: u8 = 0x02;

/// Hash a leaf payload.
pub fn leaf_hash(data: &[u8]) -> Hash256 {
    Sha256::new().chain(&[LEAF_PREFIX]).chain(data).finalize()
}

/// Hash two child digests into a parent.
pub fn node_hash(left: &Hash256, right: &Hash256) -> Hash256 {
    Sha256::new()
        .chain(&[NODE_PREFIX])
        .chain(left.as_bytes())
        .chain(right.as_bytes())
        .finalize()
}

/// Root of the empty tree.
pub fn empty_root() -> Hash256 {
    Sha256::new()
        .chain(&[EMPTY_PREFIX])
        .chain(b"merkle-empty")
        .finalize()
}

/// An immutable Merkle tree storing all levels for O(log n) proof extraction.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// `levels[0]` = leaf hashes, last level = `[root]`. Empty for 0 leaves.
    levels: Vec<Vec<Hash256>>,
}

impl MerkleTree {
    /// Build from raw leaf payloads.
    pub fn from_data<T: AsRef<[u8]>>(leaves: &[T]) -> Self {
        Self::from_leaf_hashes(leaves.iter().map(|l| leaf_hash(l.as_ref())).collect())
    }

    /// Build from already-hashed leaves.
    pub fn from_leaf_hashes(leaves: Vec<Hash256>) -> Self {
        if leaves.is_empty() {
            return Self { levels: Vec::new() };
        }
        let mut levels = vec![leaves];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            let mut i = 0;
            while i + 1 < prev.len() {
                next.push(node_hash(&prev[i], &prev[i + 1]));
                i += 2;
            }
            if i < prev.len() {
                // Odd node: promote unchanged.
                next.push(prev[i]);
            }
            levels.push(next);
        }
        Self { levels }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// True when the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The root digest.
    pub fn root(&self) -> Hash256 {
        match self.levels.last() {
            Some(top) => top[0],
            None => empty_root(),
        }
    }

    /// Leaf hash at `index`, if present.
    pub fn leaf(&self, index: usize) -> Option<Hash256> {
        self.levels.first().and_then(|l| l.get(index)).copied()
    }

    /// Produce an inclusion proof for the leaf at `index`.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len() {
            return None;
        }
        let mut siblings = Vec::with_capacity(self.levels.len());
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = idx ^ 1;
            if sibling_idx < level.len() {
                siblings.push(ProofStep {
                    hash: level[sibling_idx],
                    sibling_on_left: sibling_idx < idx,
                });
            }
            // If no sibling (odd promotion), the node moves up unchanged and
            // contributes no step.
            idx /= 2;
        }
        Some(MerkleProof {
            leaf_index: index as u64,
            leaf_count: self.len() as u64,
            siblings,
        })
    }
}

/// One step of a Merkle path: a sibling digest and its side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofStep {
    /// The sibling node's digest.
    pub hash: Hash256,
    /// True if the sibling sits to the left of the running hash.
    pub sibling_on_left: bool,
}

impl Codec for ProofStep {
    fn encode(&self, w: &mut Writer) {
        self.hash.encode(w);
        self.sibling_on_left.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            hash: Hash256::decode(r)?,
            sibling_on_left: bool::decode(r)?,
        })
    }
}

/// An inclusion proof binding one leaf to a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: u64,
    /// Total number of leaves in the tree at proof time.
    pub leaf_count: u64,
    /// Bottom-up sibling path.
    pub siblings: Vec<ProofStep>,
}

impl MerkleProof {
    /// Verify that `data` is the leaf this proof commits to under `root`.
    pub fn verify_data(&self, root: &Hash256, data: &[u8]) -> bool {
        self.verify_leaf_hash(root, &leaf_hash(data))
    }

    /// Verify with a precomputed leaf hash.
    ///
    /// The path is bound to the position it claims: each step's side and
    /// the number of steps follow from `(leaf_index, leaf_count)` under the
    /// tree's odd-promotion rule, and a proof whose steps disagree with
    /// them is rejected whatever it hashes to. That pins `leaf_index`; it
    /// pins `leaf_count` only as far as the count shapes this leaf's path,
    /// because the root does not commit to the number of leaves.
    pub fn verify_leaf_hash(&self, root: &Hash256, leaf: &Hash256) -> bool {
        if self.leaf_index >= self.leaf_count {
            return false;
        }
        let (mut index, mut width) = (self.leaf_index, self.leaf_count);
        let mut steps = self.siblings.iter();
        let mut acc = *leaf;
        while width > 1 {
            // The last node of an odd level has no sibling: it moves up
            // unchanged and takes no step.
            if index ^ 1 < width {
                let Some(step) = steps.next() else {
                    return false;
                };
                let sibling_on_left = index & 1 == 1;
                if step.sibling_on_left != sibling_on_left {
                    return false;
                }
                acc = if sibling_on_left {
                    node_hash(&step.hash, &acc)
                } else {
                    node_hash(&acc, &step.hash)
                };
            }
            index /= 2;
            width = width.div_ceil(2);
        }
        steps.next().is_none() && acc == *root
    }

    /// Size of the proof in bytes when serialized (for storage benches).
    pub fn encoded_len(&self) -> usize {
        self.to_wire().len()
    }
}

impl Codec for MerkleProof {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.leaf_index);
        w.put_varint(self.leaf_count);
        encode_seq(&self.siblings, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            leaf_index: r.get_varint()?,
            leaf_count: r.get_varint()?,
            siblings: decode_seq(r)?,
        })
    }
}

/// Convenience: compute the Merkle root of a list of payloads.
pub fn merkle_root<T: AsRef<[u8]>>(leaves: &[T]) -> Hash256 {
    MerkleTree::from_data(leaves).root()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree_has_sentinel_root() {
        let t = MerkleTree::from_data::<Vec<u8>>(&[]);
        assert!(t.is_empty());
        assert_eq!(t.root(), empty_root());
        assert!(t.prove(0).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let t = MerkleTree::from_data(&[b"only".to_vec()]);
        assert_eq!(t.root(), leaf_hash(b"only"));
        let p = t.prove(0).unwrap();
        assert!(p.siblings.is_empty());
        assert!(p.verify_data(&t.root(), b"only"));
    }

    #[test]
    fn proofs_verify_for_all_sizes_and_indices() {
        for n in 1..=33 {
            let data = leaves(n);
            let t = MerkleTree::from_data(&data);
            for (i, leaf) in data.iter().enumerate() {
                let p = t.prove(i).unwrap_or_else(|| panic!("no proof n={n} i={i}"));
                assert!(p.verify_data(&t.root(), leaf), "verify n={n} i={i}");
            }
        }
    }

    #[test]
    fn proof_rejects_wrong_leaf_and_wrong_root() {
        let data = leaves(8);
        let t = MerkleTree::from_data(&data);
        let p = t.prove(3).unwrap();
        assert!(!p.verify_data(&t.root(), b"not-the-leaf"));
        let other = MerkleTree::from_data(&leaves(9));
        assert!(!p.verify_data(&other.root(), &data[3]));
    }

    #[test]
    fn proof_is_bound_to_the_position_it_claims() {
        let sides = |p: &MerkleProof| -> Vec<bool> {
            p.siblings.iter().map(|s| s.sibling_on_left).collect()
        };
        let mut refused_counts = 0;
        for n in 1..=33u64 {
            let data = leaves(n as usize);
            let t = MerkleTree::from_data(&data);
            let root = t.root();
            for i in 0..n {
                let leaf = &data[i as usize];
                let p = t.prove(i as usize).unwrap();
                assert!(p.verify_data(&root, leaf), "n={n} i={i}");

                // The same path under any other index of the same tree.
                for other in (0..n + 2).filter(|&other| other != i) {
                    let mut moved = p.clone();
                    moved.leaf_index = other;
                    assert!(!moved.verify_data(&root, leaf), "n={n} i={i} as {other}");
                }
                // A leaf count off by one either way passes only where the
                // claimed position has this very path shape (the root does
                // not commit to the count).
                for count in [n - 1, n + 1] {
                    let mut resized = p.clone();
                    resized.leaf_count = count;
                    let same_shape = MerkleTree::from_data(&leaves(count as usize))
                        .prove(i as usize)
                        .is_some_and(|claimed| sides(&claimed) == sides(&p));
                    assert_eq!(
                        resized.verify_data(&root, leaf),
                        same_shape,
                        "n={n} i={i} of {count}"
                    );
                    refused_counts += usize::from(!same_shape);
                }
                for step in 0..p.siblings.len() {
                    let mut flipped = p.clone();
                    flipped.siblings[step].sibling_on_left ^= true;
                    assert!(!flipped.verify_data(&root, leaf), "n={n} i={i} flip {step}");

                    let mut dropped = p.clone();
                    dropped.siblings.remove(step);
                    assert!(!dropped.verify_data(&root, leaf), "n={n} i={i} drop {step}");

                    let mut doubled = p.clone();
                    doubled.siblings.insert(step, p.siblings[step].clone());
                    assert!(!doubled.verify_data(&root, leaf), "n={n} i={i} dup {step}");
                }
            }
        }
        // Most single-leaf changes of the count leave a given path alone,
        // but the check must not be vacuous.
        assert!(refused_counts > 0);
    }

    #[test]
    fn a_path_that_hashes_to_the_root_from_another_position_is_refused() {
        // Two leaves: the honest proof for leaf 1 is "leaf 0 on the left".
        // Relabelled as leaf 0 with the flag kept, the hashes still reach
        // the root; only the position check can tell.
        let data = leaves(2);
        let t = MerkleTree::from_data(&data);
        let mut p = t.prove(1).unwrap();
        p.leaf_index = 0;
        assert!(!p.verify_data(&t.root(), &data[1]));
    }

    #[test]
    fn tampering_any_leaf_changes_root() {
        let data = leaves(16);
        let base = merkle_root(&data);
        for i in 0..16 {
            let mut tampered = data.clone();
            tampered[i][0] ^= 0xFF;
            assert_ne!(merkle_root(&tampered), base, "tamper at {i}");
        }
    }

    #[test]
    fn leaf_order_matters() {
        let a = merkle_root(&[b"x".to_vec(), b"y".to_vec()]);
        let b = merkle_root(&[b"y".to_vec(), b"x".to_vec()]);
        assert_ne!(a, b);
    }

    #[test]
    fn interior_node_cannot_pose_as_leaf() {
        // Domain separation: a two-leaf root differs from the leaf hash of
        // the concatenated children, so no interior/leaf confusion exists.
        let l = leaf_hash(b"a");
        let r = leaf_hash(b"b");
        let interior = node_hash(&l, &r);
        let mut concat = Vec::new();
        concat.extend_from_slice(l.as_bytes());
        concat.extend_from_slice(r.as_bytes());
        assert_ne!(interior, leaf_hash(&concat));
    }

    #[test]
    fn proof_codec_round_trip() {
        let data = leaves(11);
        let t = MerkleTree::from_data(&data);
        let p = t.prove(10).unwrap();
        let decoded = MerkleProof::from_wire(&p.to_wire()).unwrap();
        assert_eq!(decoded, p);
        assert!(decoded.verify_data(&t.root(), &data[10]));
    }

    #[test]
    fn proof_length_is_logarithmic() {
        let t = MerkleTree::from_data(&leaves(1024));
        let p = t.prove(512).unwrap();
        assert_eq!(p.siblings.len(), 10); // log2(1024)
    }
}
