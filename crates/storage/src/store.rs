//! The local content-addressed block store: deduplication, pinning, and
//! mark-and-sweep garbage collection.
//!
//! Storage is keyed by [`Cid`], so identical nodes are stored once no matter
//! how many files reference them — the deduplication that experiment E14
//! quantifies. Pins declare GC roots; [`BlockStore::gc`] removes everything
//! unreachable from a pin, the discipline IPFS-backed systems (Ahmed \[8\],
//! HealthBlock \[1\]) rely on to bound evidence-store growth.

use crate::dag::{Cid, DagNode, NodeSink};
use std::collections::{HashMap, HashSet};

/// Cumulative ingest/dedup statistics for a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes offered across all `put_node` calls (including duplicates).
    pub logical_bytes: u64,
    /// Bytes actually resident (unique encoded nodes).
    pub unique_bytes: u64,
    /// `put_node` calls that were deduplicated against existing content.
    pub dedup_hits: u64,
    /// Unique nodes currently resident.
    pub nodes: usize,
}

impl StoreStats {
    /// logical/unique ratio; 1.0 means no deduplication occurred.
    pub fn dedup_ratio(&self) -> f64 {
        if self.unique_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.unique_bytes as f64
        }
    }
}

/// An in-memory content-addressed node store with pinning and GC.
#[derive(Debug, Default, Clone)]
pub struct BlockStore {
    blocks: HashMap<Cid, Vec<u8>>,
    pins: HashSet<Cid>,
    logical_bytes: u64,
    dedup_hits: u64,
}

impl BlockStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a node with this CID is resident.
    pub fn has(&self, cid: &Cid) -> bool {
        self.blocks.contains_key(cid)
    }

    /// Raw encoded bytes of a node (what a wire transfer would ship).
    pub fn get_encoded(&self, cid: &Cid) -> Option<&[u8]> {
        self.blocks.get(cid).map(Vec::as_slice)
    }

    /// Insert a pre-encoded node *after verifying* its digest matches `cid`.
    /// Returns false (and stores nothing) on a digest mismatch — the defense
    /// that makes content addressing tamper-evident in transit.
    pub fn put_encoded(&mut self, cid: Cid, encoded: Vec<u8>) -> bool {
        match DagNode::decode(&encoded) {
            Ok(node) if node.cid() == cid => {
                self.logical_bytes += encoded.len() as u64;
                match self.blocks.entry(cid) {
                    std::collections::hash_map::Entry::Occupied(_) => self.dedup_hits += 1,
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(encoded);
                    }
                }
                true
            }
            _ => false,
        }
    }

    /// Mark `cid` as a GC root. Returns false if the node is absent.
    pub fn pin(&mut self, cid: Cid) -> bool {
        if self.blocks.contains_key(&cid) {
            self.pins.insert(cid);
            true
        } else {
            false
        }
    }

    /// Remove a pin (the node stays until the next [`Self::gc`]).
    pub fn unpin(&mut self, cid: &Cid) -> bool {
        self.pins.remove(cid)
    }

    /// Currently pinned roots.
    pub fn pins(&self) -> impl Iterator<Item = &Cid> {
        self.pins.iter()
    }

    /// Mark-and-sweep: keep every node reachable from a pin, drop the rest.
    /// Returns (nodes removed, bytes reclaimed).
    pub fn gc(&mut self) -> (usize, u64) {
        let mut live: HashSet<Cid> = HashSet::with_capacity(self.blocks.len());
        let mut stack: Vec<Cid> = self.pins.iter().copied().collect();
        while let Some(cid) = stack.pop() {
            if !live.insert(cid) {
                continue;
            }
            if let Some(enc) = self.blocks.get(&cid) {
                if let Ok(node) = DagNode::decode(enc) {
                    stack.extend(node.children());
                }
            }
        }
        let mut removed = 0usize;
        let mut reclaimed = 0u64;
        self.blocks.retain(|cid, enc| {
            if live.contains(cid) {
                true
            } else {
                removed += 1;
                reclaimed += enc.len() as u64;
                false
            }
        });
        (removed, reclaimed)
    }

    /// Current statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            logical_bytes: self.logical_bytes,
            unique_bytes: self.blocks.values().map(|b| b.len() as u64).sum(),
            dedup_hits: self.dedup_hits,
            nodes: self.blocks.len(),
        }
    }

    /// Number of unique resident nodes.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

impl NodeSink for BlockStore {
    fn put_node(&mut self, node: &DagNode) -> Cid {
        let cid = node.cid();
        let encoded = node.encode();
        self.logical_bytes += encoded.len() as u64;
        match self.blocks.entry(cid) {
            std::collections::hash_map::Entry::Occupied(_) => self.dedup_hits += 1,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(encoded);
            }
        }
        cid
    }

    fn get_node(&self, cid: &Cid) -> Option<DagNode> {
        self.blocks.get(cid).and_then(|enc| DagNode::decode(enc).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{add_file, cat};
    use crate::Chunker;
    use blockprov_crypto::{sha256, HmacDrbg};

    fn sample(len: usize, seed: u64) -> Vec<u8> {
        let mut drbg = HmacDrbg::new(&seed.to_le_bytes());
        let mut out = vec![0u8; len];
        drbg.fill_bytes(&mut out);
        out
    }

    #[test]
    fn duplicate_puts_dedup() {
        let mut store = BlockStore::new();
        let node = DagNode::Raw(b"dup".to_vec());
        let a = store.put_node(&node);
        let b = store.put_node(&node);
        assert_eq!(a, b);
        let s = store.stats();
        assert_eq!(s.nodes, 1);
        assert_eq!(s.dedup_hits, 1);
        assert!(s.dedup_ratio() > 1.9 && s.dedup_ratio() < 2.1);
    }

    #[test]
    fn put_encoded_verifies_digest() {
        let mut store = BlockStore::new();
        let node = DagNode::Raw(b"payload".to_vec());
        let cid = node.cid();
        assert!(store.put_encoded(cid, node.encode()));
        // Wrong CID for these bytes → rejected, nothing stored.
        let wrong = Cid(sha256(b"not the digest"));
        assert!(!store.put_encoded(wrong, node.encode()));
        assert!(!store.has(&wrong));
        // Corrupted bytes under the right CID → rejected.
        let mut bad = node.encode();
        bad[1] ^= 0xff;
        let fresh_cid = DagNode::Raw(b"other".to_vec()).cid();
        assert!(!store.put_encoded(fresh_cid, bad));
    }

    #[test]
    fn gc_keeps_pinned_subtree_only() {
        let mut store = BlockStore::new();
        let keep = sample(8_000, 1);
        let drop_ = sample(8_000, 2);
        let keep_root = add_file(&mut store, &keep, Chunker::Fixed(1024), 4);
        let drop_root = add_file(&mut store, &drop_, Chunker::Fixed(1024), 4);
        assert!(store.pin(keep_root));
        let before = store.len();
        let (removed, reclaimed) = store.gc();
        assert!(removed > 0 && reclaimed > 0);
        assert_eq!(store.len(), before - removed);
        // Pinned file still fully readable; unpinned one is gone.
        assert_eq!(cat(&store, &keep_root).unwrap(), keep);
        assert!(cat(&store, &drop_root).is_err());
    }

    #[test]
    fn gc_with_no_pins_clears_everything() {
        let mut store = BlockStore::new();
        add_file(&mut store, &sample(4_000, 3), Chunker::Fixed(512), 4);
        let (removed, _) = store.gc();
        assert!(removed > 0);
        assert!(store.is_empty());
    }

    #[test]
    fn unpin_then_gc_removes() {
        let mut store = BlockStore::new();
        let root = add_file(&mut store, b"short", Chunker::Fixed(16), 4);
        assert!(store.pin(root));
        assert!(store.unpin(&root));
        store.gc();
        assert!(!store.has(&root));
    }

    #[test]
    fn pin_missing_node_fails() {
        let mut store = BlockStore::new();
        assert!(!store.pin(Cid(sha256(b"ghost"))));
    }

    #[test]
    fn shared_chunks_survive_gc_of_sibling() {
        let mut store = BlockStore::new();
        // Two files sharing a long common prefix chunk-align under fixed
        // chunking, so they share leaves.
        let common = sample(4_096, 4);
        let mut a = common.clone();
        a.extend_from_slice(b"tail-a");
        let mut b = common.clone();
        b.extend_from_slice(b"tail-b");
        let ra = add_file(&mut store, &a, Chunker::Fixed(1024), 4);
        let rb = add_file(&mut store, &b, Chunker::Fixed(1024), 4);
        assert!(store.stats().dedup_hits >= 4, "prefix leaves should dedup");
        store.pin(ra);
        store.gc();
        // a intact, b's unique tail gone but shared leaves remain.
        assert_eq!(cat(&store, &ra).unwrap(), a);
        assert!(cat(&store, &rb).is_err());
    }
}
