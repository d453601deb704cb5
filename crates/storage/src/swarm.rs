//! A replicated storage swarm: the distributed half of the IPFS substitute.
//!
//! Every node is placed on `replication` peers chosen by rendezvous
//! (highest-random-weight) hashing, so placement is deterministic, needs no
//! coordinator, and rebalances minimally when membership changes. Retrieval
//! probes peers in rank order and counts probes, which is the latency proxy
//! the availability experiment sweeps: with replication `r` and `f` failed
//! peers, content survives unless all `r` replicas landed on failed peers.
//!
//! This reproduces the property the surveyed systems buy from IPFS —
//! "enhanced availability" (Hasan \[33\]) — without a network stack; the
//! probe counter stands in for round trips.

use crate::dag::{Cid, DagNode, NodeSink};
use crate::store::BlockStore;
use blockprov_crypto::hmac_sha256;
use std::cell::Cell;

/// One storage peer.
#[derive(Debug, Clone)]
struct Peer {
    name: String,
    store: BlockStore,
    online: bool,
}

/// A set of peers replicating content by rendezvous hashing.
#[derive(Debug)]
pub struct Swarm {
    peers: Vec<Peer>,
    replication: usize,
    probes: Cell<u64>,
    fetches: Cell<u64>,
}

/// Swarm-wide counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwarmStats {
    /// Peer probes issued by all fetches (a latency proxy: 1 probe ≈ 1 RTT).
    pub probes: u64,
    /// Successful fetches.
    pub fetches: u64,
    /// Peers currently online.
    pub online_peers: usize,
    /// Total peers.
    pub peers: usize,
}

impl Swarm {
    /// A swarm of `n_peers` peers storing each node on `replication` of them.
    ///
    /// # Panics
    /// If `n_peers == 0` or `replication == 0`.
    pub fn new(n_peers: usize, replication: usize) -> Self {
        assert!(n_peers > 0, "swarm needs at least one peer");
        assert!(replication > 0, "replication factor must be positive");
        let peers = (0..n_peers)
            .map(|i| Peer {
                name: format!("peer-{i}"),
                store: BlockStore::new(),
                online: true,
            })
            .collect();
        Self {
            peers,
            replication: replication.min(n_peers),
            probes: Cell::new(0),
            fetches: Cell::new(0),
        }
    }

    /// Number of peers.
    pub fn n_peers(&self) -> usize {
        self.peers.len()
    }

    /// Rendezvous ranking of peers for `cid` (best first): peer score is
    /// HMAC(peer-name, cid), highest wins. Includes offline peers — rank is
    /// a pure function of membership, not liveness.
    fn rank(&self, cid: &Cid) -> Vec<usize> {
        let mut scored: Vec<(u64, usize)> = self
            .peers
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mac = hmac_sha256(p.name.as_bytes(), cid.0.as_bytes());
                let mut w = [0u8; 8];
                w.copy_from_slice(&mac.as_bytes()[..8]);
                (u64::from_be_bytes(w), i)
            })
            .collect();
        scored.sort_by(|a, b| b.cmp(a));
        scored.into_iter().map(|(_, i)| i).collect()
    }

    /// Take a peer offline (simulated crash). Returns false for bad index.
    pub fn fail_peer(&mut self, index: usize) -> bool {
        match self.peers.get_mut(index) {
            Some(p) => {
                p.online = false;
                true
            }
            None => false,
        }
    }

    /// Bring a peer back online (its stored content is intact — a restart,
    /// not a disk loss).
    pub fn recover_peer(&mut self, index: usize) -> bool {
        match self.peers.get_mut(index) {
            Some(p) => {
                p.online = true;
                true
            }
            None => false,
        }
    }

    /// Live replicas of `cid` (online peers holding it).
    pub fn replica_count(&self, cid: &Cid) -> usize {
        self.peers.iter().filter(|p| p.online && p.store.has(cid)).count()
    }

    /// Whether a fetch of `cid` would currently succeed.
    pub fn is_retrievable(&self, cid: &Cid) -> bool {
        self.replica_count(cid) > 0
    }

    /// Re-replicate `cid` onto the best-ranked online peers until the
    /// replication factor is met. Returns new copies made, or None if no
    /// online replica exists to copy from.
    pub fn repair(&mut self, cid: &Cid) -> Option<usize> {
        let encoded = self
            .peers
            .iter()
            .find(|p| p.online && p.store.has(cid))?
            .store
            .get_encoded(cid)?
            .to_vec();
        let rank = self.rank(cid);
        let mut live = self.replica_count(cid);
        let mut made = 0usize;
        for idx in rank {
            if live >= self.replication {
                break;
            }
            let peer = &mut self.peers[idx];
            if peer.online && !peer.store.has(cid) {
                peer.store.put_encoded(*cid, encoded.clone());
                live += 1;
                made += 1;
            }
        }
        Some(made)
    }

    /// Repair every node in the subtree rooted at `root`. Returns the total
    /// number of new copies, or None if any node is unrecoverable.
    pub fn repair_subtree(&mut self, root: &Cid) -> Option<usize> {
        let mut made = 0usize;
        let mut stack = vec![*root];
        while let Some(cid) = stack.pop() {
            made += self.repair(&cid)?;
            let node = self.get_node(&cid)?;
            stack.extend(node.children());
        }
        Some(made)
    }

    /// Counters.
    pub fn stats(&self) -> SwarmStats {
        SwarmStats {
            probes: self.probes.get(),
            fetches: self.fetches.get(),
            online_peers: self.peers.iter().filter(|p| p.online).count(),
            peers: self.peers.len(),
        }
    }

    /// Bytes resident across all peers (replication included).
    pub fn resident_bytes(&self) -> u64 {
        self.peers.iter().map(|p| p.store.stats().unique_bytes).sum()
    }
}

impl NodeSink for Swarm {
    fn put_node(&mut self, node: &DagNode) -> Cid {
        let cid = node.cid();
        let encoded = node.encode();
        let targets: Vec<usize> =
            self.rank(&cid).into_iter().take(self.replication).collect();
        for idx in targets {
            // Placement ignores liveness (deterministic rendezvous); an
            // offline target simply misses this write until a repair.
            let peer = &mut self.peers[idx];
            if peer.online {
                peer.store.put_encoded(cid, encoded.clone());
            }
        }
        cid
    }

    fn get_node(&self, cid: &Cid) -> Option<DagNode> {
        for idx in self.rank(cid) {
            self.probes.set(self.probes.get() + 1);
            let peer = &self.peers[idx];
            if peer.online {
                if let Some(node) = peer.store.get_node(cid) {
                    self.fetches.set(self.fetches.get() + 1);
                    return Some(node);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{add_file, cat};
    use crate::Chunker;
    use blockprov_crypto::HmacDrbg;

    fn sample(len: usize, seed: u64) -> Vec<u8> {
        let mut drbg = HmacDrbg::new(&seed.to_le_bytes());
        let mut out = vec![0u8; len];
        drbg.fill_bytes(&mut out);
        out
    }

    #[test]
    fn put_places_exactly_replication_copies() {
        let mut swarm = Swarm::new(8, 3);
        let cid = swarm.put_node(&DagNode::Raw(b"replicated".to_vec()));
        assert_eq!(swarm.replica_count(&cid), 3);
    }

    #[test]
    fn fetch_succeeds_until_all_replicas_fail() {
        let mut swarm = Swarm::new(6, 2);
        let data = sample(10_000, 1);
        let root = add_file(&mut swarm, &data, Chunker::Fixed(2048), 4);
        assert_eq!(cat(&swarm, &root).unwrap(), data);

        // Kill peers one at a time; content must remain retrievable while
        // any replica of every node survives, and cat must fail only after
        // some node loses both replicas.
        let mut lost = false;
        for i in 0..6 {
            swarm.fail_peer(i);
            match cat(&swarm, &root) {
                Ok(bytes) => assert_eq!(bytes, data),
                Err(_) => {
                    lost = true;
                    break;
                }
            }
        }
        assert!(lost, "with all peers down content cannot survive");
    }

    #[test]
    fn recovery_restores_retrieval() {
        let mut swarm = Swarm::new(4, 1);
        let cid = swarm.put_node(&DagNode::Raw(b"solo".to_vec()));
        let holder = (0..4)
            .find(|&i| swarm.peers[i].store.has(&cid))
            .expect("one peer must hold the block");
        swarm.fail_peer(holder);
        assert!(!swarm.is_retrievable(&cid));
        swarm.recover_peer(holder);
        assert!(swarm.is_retrievable(&cid));
    }

    #[test]
    fn repair_restores_replication_factor() {
        let mut swarm = Swarm::new(8, 3);
        let data = sample(6_000, 2);
        let root = add_file(&mut swarm, &data, Chunker::Fixed(1024), 4);

        // Fail one holder of the root, degrading it to 2 live replicas.
        let holder = (0..8)
            .find(|&i| swarm.peers[i].store.has(&root))
            .expect("root must be stored somewhere");
        swarm.fail_peer(holder);
        assert!(swarm.replica_count(&root) < 3);

        let made = swarm.repair_subtree(&root).expect("still recoverable");
        assert!(made > 0);
        assert!(swarm.replica_count(&root) >= 3);
        assert_eq!(cat(&swarm, &root).unwrap(), data);
    }

    #[test]
    fn repair_of_lost_content_reports_none() {
        let mut swarm = Swarm::new(3, 1);
        let cid = swarm.put_node(&DagNode::Raw(b"fragile".to_vec()));
        for i in 0..3 {
            swarm.fail_peer(i);
        }
        assert_eq!(swarm.repair(&cid), None);
    }

    #[test]
    fn probes_grow_with_failures() {
        let mut swarm = Swarm::new(8, 2);
        let cid = swarm.put_node(&DagNode::Raw(b"probe-me".to_vec()));
        swarm.get_node(&cid).unwrap();
        let fast = swarm.stats().probes;

        // Fail the best-ranked holder: the fetch now walks further down the
        // rank order, so cumulative probes for one more fetch exceed the
        // first fetch's cost.
        let first_holder = swarm.rank(&cid)[0];
        swarm.fail_peer(first_holder);
        swarm.get_node(&cid);
        let slow = swarm.stats().probes - fast;
        assert!(
            slow >= fast,
            "fetch after failure should probe at least as many peers ({slow} vs {fast})"
        );
    }

    #[test]
    fn rendezvous_rank_is_stable() {
        let swarm = Swarm::new(10, 3);
        let cid = DagNode::Raw(b"stable".to_vec()).cid();
        assert_eq!(swarm.rank(&cid), swarm.rank(&cid));
    }

    #[test]
    fn replication_capped_at_peer_count() {
        let mut swarm = Swarm::new(2, 5);
        let cid = swarm.put_node(&DagNode::Raw(b"capped".to_vec()));
        assert_eq!(swarm.replica_count(&cid), 2);
    }
}
