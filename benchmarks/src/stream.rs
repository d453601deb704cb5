//! The stream family every workload draws from, and its oracle.
//!
//! Blocks carry real provenance records over 4 scenarios × 64 artifacts,
//! chained on genesis, pre-encoded into `POST /blocks` bodies during
//! set-up: the timed loops never generate or encode. The generator keeps
//! what the oracle needs to check any answer of the system — every block
//! hash, every transaction id, and the closed form of how many records
//! name each artifact after any number of transactions.
//!
//! The seed salts the artifact names, the agent accounts, the artifact and
//! action rotation, and (through [`Rng`]) the query keys; the stream's
//! shape and size never depend on it.

use crate::sut::{self, Hash};

/// Artifacts per scenario and in total; queries address them by index.
pub const ARTIFACTS_PER_SCENARIO: usize = 64;
pub const ARTIFACTS: usize = 4 * ARTIFACTS_PER_SCENARIO;

/// Transactions per block and blocks per `POST`. Both shapes carry 256
/// transactions per batch, so they differ only in how much fixed per-block
/// work comes with them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub name: &'static str,
    pub txs_per_block: usize,
    pub blocks_per_batch: usize,
}

/// 4 txs/block × 64 blocks: per-block overhead is a large share of the cost.
pub const SMALL: Shape = Shape {
    name: "small",
    txs_per_block: 4,
    blocks_per_batch: 64,
};
/// 32 txs/block × 8 blocks: per-transaction work dominates.
pub const WIDE: Shape = Shape {
    name: "wide",
    txs_per_block: 32,
    blocks_per_batch: 8,
};

impl Shape {
    pub fn txs_per_batch(&self) -> usize {
        self.txs_per_block * self.blocks_per_batch
    }
}

/// SplitMix64: the harness's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at these
    /// ranges.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One pre-encoded `POST /blocks` body and what the oracle knows about it.
pub struct Batch {
    pub body: Vec<u8>,
    /// Height and hash of the batch's last block: the tip once it commits.
    pub tip_height: u64,
    pub tip_hash: Hash,
}

pub struct Stream {
    pub shape: Shape,
    pub batches: Vec<Batch>,
    /// The first blocks after some batch boundary once more, each as a
    /// `POST` body of its own ([`Stream::generate_with_singles`]): a way to
    /// commit something without making the history noticeably longer.
    pub singles: Vec<Batch>,
    /// `block_hashes[h - 1]` is the hash of the block at height `h`.
    pub block_hashes: Vec<Hash>,
    /// `tx_ids[(h - 1) * txs_per_block + pos]`.
    pub tx_ids: Vec<Hash>,
    name_salt: u32,
    artifact_rot: u64,
}

impl Stream {
    /// Generate and encode `batches` batches of `shape`, chained on genesis.
    pub fn generate(seed: u64, shape: Shape, batches: usize) -> Stream {
        Self::generate_with_singles(seed, shape, batches, 0, 0)
    }

    /// [`Stream::generate`], and the first `singles` blocks after the first
    /// `after_batches` batches encoded singly as well.
    pub fn generate_with_singles(
        seed: u64,
        shape: Shape,
        batches: usize,
        after_batches: usize,
        singles: usize,
    ) -> Stream {
        let mut rng = Rng::new(seed ^ 0x5374_7265_616d_5f76); // "Stream_v"
        let name_salt = (rng.next() & 0xff_ffff) as u32;
        let agents = sut::Agents::new(rng.next() & 0xffff_ffff);
        let artifact_rot = rng.below(ARTIFACTS_PER_SCENARIO as u64);
        let action_rot = rng.below(sut::ACTION_COUNT as u64);
        let names: Vec<String> = (0..ARTIFACTS)
            .map(|a| artifact_name(name_salt, a))
            .collect();

        let (mut prev, genesis_ts) = sut::genesis();
        let mut stream = Stream {
            shape,
            batches: Vec::with_capacity(batches),
            singles: Vec::with_capacity(singles),
            block_hashes: Vec::with_capacity(batches * shape.blocks_per_batch),
            tx_ids: Vec::with_capacity(batches * shape.txs_per_batch()),
            name_salt,
            artifact_rot,
        };
        let mut height = 0u64;
        let mut tx_no = 0u64;
        for batch_no in 0..batches {
            let mut blocks = Vec::with_capacity(shape.blocks_per_batch);
            for _ in 0..shape.blocks_per_batch {
                height += 1;
                // One millisecond per block keeps record ids distinct: no
                // two records of one block share an artifact.
                let ts = genesis_ts + height;
                let first_id = stream.tx_ids.len();
                let mut txs = Vec::with_capacity(shape.txs_per_block);
                for _ in 0..shape.txs_per_block {
                    let a = artifact_of(tx_no, artifact_rot);
                    let action = (tx_no / 4 + action_rot) as usize;
                    let (tx, id) = sut::provenance_tx(
                        &agents,
                        a / ARTIFACTS_PER_SCENARIO,
                        &names[a],
                        action,
                        tx_no,
                        ts,
                    );
                    txs.push(tx);
                    stream.tx_ids.push(id);
                    tx_no += 1;
                }
                let (block, hash) =
                    sut::assemble_block(height, prev, ts, txs, &stream.tx_ids[first_id..]);
                stream.block_hashes.push(hash);
                prev = hash;
                if batch_no >= after_batches && stream.singles.len() < singles {
                    stream.singles.push(Batch {
                        body: sut::encode_batch(std::slice::from_ref(&block)),
                        tip_height: height,
                        tip_hash: hash,
                    });
                }
                blocks.push(block);
            }
            stream.batches.push(Batch {
                body: sut::encode_batch(&blocks),
                tip_height: height,
                tip_hash: prev,
            });
        }
        stream
    }

    pub fn blocks(&self) -> u64 {
        self.block_hashes.len() as u64
    }

    /// Transactions in the first `batches` batches.
    pub fn txs_in(&self, batches: usize) -> u64 {
        (batches * self.shape.txs_per_batch()) as u64
    }

    pub fn body_bytes(&self) -> u64 {
        self.batches.iter().map(|b| b.body.len() as u64).sum()
    }

    /// The name queries use for artifact index `a` (`0..ARTIFACTS`).
    pub fn artifact(&self, a: usize) -> String {
        artifact_name(self.name_salt, a)
    }

    /// How many of the stream's first `n_txs` transactions name artifact
    /// `a`: the exact answer an audit of `a` must give at that point.
    pub fn artifact_count(&self, a: usize, n_txs: u64) -> u64 {
        // Transaction i names scenario i % 4 and, within it, artifact
        // (i / 4 + rot) % 64: every artifact exactly once per 256.
        let scenario = (a / ARTIFACTS_PER_SCENARIO) as u64;
        let k = (a % ARTIFACTS_PER_SCENARIO) as u64;
        let per = ARTIFACTS_PER_SCENARIO as u64;
        let slot = ((k + per - self.artifact_rot) % per) * 4 + scenario;
        n_txs / ARTIFACTS as u64 + u64::from(n_txs % ARTIFACTS as u64 > slot)
    }

    /// Id of the transaction at `pos` of the block at `height`.
    pub fn tx_id(&self, height: u64, pos: usize) -> &Hash {
        &self.tx_ids[(height as usize - 1) * self.shape.txs_per_block + pos]
    }

    pub fn block_hash(&self, height: u64) -> &Hash {
        &self.block_hashes[height as usize - 1]
    }
}

/// Artifact index (`scenario * 64 + k`) the `i`-th transaction names.
fn artifact_of(i: u64, rot: u64) -> usize {
    let scenario = (i % 4) as usize;
    let k = ((i / 4 + rot) % ARTIFACTS_PER_SCENARIO as u64) as usize;
    scenario * ARTIFACTS_PER_SCENARIO + k
}

/// Fixed-width, so the encoded size of a record never depends on the seed.
fn artifact_name(salt: u32, a: usize) -> String {
    let prefix = sut::SCENARIOS[a / ARTIFACTS_PER_SCENARIO].1;
    format!("{prefix}-{salt:06x}-{:02}", a % ARTIFACTS_PER_SCENARIO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tip_and_different_seed_different_tip() {
        let a = Stream::generate(1, SMALL, 3);
        let b = Stream::generate(1, SMALL, 3);
        let c = Stream::generate(2, SMALL, 3);
        assert_eq!(a.batches[2].tip_hash, b.batches[2].tip_hash);
        assert_eq!(a.tx_ids, b.tx_ids);
        assert!(a
            .batches
            .iter()
            .zip(&b.batches)
            .all(|(x, y)| x.body == y.body));
        assert_ne!(a.batches[2].tip_hash, c.batches[2].tip_hash);
        assert_ne!(a.artifact(0), c.artifact(0));
        // Size and shape never depend on the seed.
        assert_eq!(a.body_bytes(), c.body_bytes());
        assert_eq!(a.blocks(), 192);
        assert_eq!(a.tx_ids.len(), 768);
    }

    #[test]
    fn both_shapes_carry_256_txs_per_batch_and_decode_back() {
        for shape in [SMALL, WIDE] {
            assert_eq!(shape.txs_per_batch(), 256);
            let s = Stream::generate(7, shape, 2);
            let mut height = 0;
            let mut prev = sut::genesis().0;
            for batch in &s.batches {
                let blocks = sut::decode_batch(&batch.body).expect("decodes");
                assert_eq!(blocks.len(), shape.blocks_per_batch);
                assert_eq!(blocks.iter().map(|b| b.txs.len()).sum::<usize>(), 256);
                for b in &blocks {
                    height += 1;
                    let (again, hash) = sut::assemble_block(
                        height,
                        prev,
                        sut::genesis().1 + height,
                        b.txs.clone(),
                        &s.tx_ids[(height as usize - 1) * shape.txs_per_block..]
                            [..shape.txs_per_block],
                    );
                    assert_eq!(&again, b, "block {height} chains on its parent");
                    assert_eq!(&hash, s.block_hash(height));
                    prev = hash;
                }
                assert_eq!((batch.tip_height, batch.tip_hash), (height, prev));
            }
        }
    }

    #[test]
    fn singles_are_the_blocks_after_the_boundary_one_by_one() {
        let s = Stream::generate_with_singles(7, WIDE, 4, 1, 10);
        assert_eq!(s.singles.len(), 10, "they run on into the next batch");
        for (k, single) in s.singles.iter().enumerate() {
            let height = WIDE.blocks_per_batch as u64 + 1 + k as u64;
            assert_eq!(single.tip_height, height);
            assert_eq!(&single.tip_hash, s.block_hash(height));
            let blocks = sut::decode_batch(&single.body).expect("decodes");
            assert_eq!(blocks.len(), 1);
            assert_eq!(blocks[0].txs.len(), WIDE.txs_per_block);
        }
        // The batches themselves are what they are without singles.
        let plain = Stream::generate(7, WIDE, 4);
        assert!(plain.singles.is_empty());
        assert_eq!(plain.batches[3].tip_hash, s.batches[3].tip_hash);
    }

    #[test]
    fn artifact_counts_are_exact_at_any_prefix() {
        let s = Stream::generate(11, WIDE, 3);
        // Recount by brute force from the generator's own rule.
        for n in [0u64, 1, 5, 255, 256, 257, 700, 768] {
            let mut brute = vec![0u64; ARTIFACTS];
            for i in 0..n {
                brute[artifact_of(i, s.artifact_rot)] += 1;
            }
            for (a, expect) in brute.iter().enumerate() {
                assert_eq!(
                    s.artifact_count(a, n),
                    *expect,
                    "artifact {a} after {n} txs"
                );
            }
        }
        let total: u64 = (0..ARTIFACTS).map(|a| s.artifact_count(a, 768)).sum();
        assert_eq!(total, 768);
    }

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(1);
        let mut c = Rng::new(2);
        let xs: Vec<u64> = (0..4).map(|_| a.next()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next()).collect::<Vec<_>>());
        assert!((0..100).all(|_| a.below(10) < 10));
    }
}
