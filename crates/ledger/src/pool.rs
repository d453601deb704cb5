//! Worker pool for the stateless validation stage of batched ingest.
//!
//! Stage 1 of the ingest pipeline ([`crate::chain::Chain::append_batch`])
//! fans the per-block stateless work — header hashing, tx-id derivation,
//! Merkle-root recomputation, PoW and signature checks — out across this
//! pool; stage 2 (the serialized commit section) consumes the results in
//! submission order. The pool is hand-rolled on `std::thread` plus mpsc
//! channels: workers share one receiver behind a mutex and race to pull
//! jobs, so an expensive block (many signatures) never stalls the cheap
//! ones queued behind it.
//!
//! Thread-count plumbing follows the repo convention: `0` means one worker
//! per available core, `1` runs everything inline on the calling thread
//! (no workers are ever spawned), and any other value is taken literally.

use crate::block::Block;
use crate::chain::{ChainConfig, PrevalidatedBlock};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

/// One unit of stateless work: a contiguous run of blocks plus everything
/// a worker needs to prevalidate them and report back.
///
/// Jobs carry *chunks* rather than single blocks: per-job channel traffic
/// (one mutex acquisition and two sends each) is pure overhead for cheap
/// blocks, so the submitter sizes chunks from the batch length to amortize
/// it while still leaving enough jobs for the pool to balance load.
struct Job {
    /// Position of the chunk's first block in the submitted batch, so
    /// results can be re-ordered.
    start: usize,
    blocks: Vec<Block>,
    config: Arc<ChainConfig>,
    out: Sender<(usize, Vec<PrevalidatedBlock>)>,
}

/// A fixed-size pool of prevalidation workers.
///
/// Created lazily by the first batched append on a [`crate::chain::Chain`]
/// and kept for the chain's lifetime. Dropping the pool closes the job
/// channel and joins every worker.
#[derive(Debug)]
pub struct ValidationPool {
    threads: usize,
    /// `None` when the pool runs inline (resolved thread count of 1).
    jobs: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ValidationPool {
    /// Spin up a pool. `threads` follows the `0 = auto` convention: zero
    /// resolves to the number of available cores; one (or an auto-resolve
    /// on a single-core host) spawns no threads at all and prevalidates
    /// inline on the caller.
    pub fn new(threads: usize) -> Self {
        let threads = resolve_threads(threads);
        if threads <= 1 {
            return Self {
                threads: 1,
                jobs: None,
                workers: Vec::new(),
            };
        }
        let (jobs, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&job_rx);
                thread::Builder::new()
                    .name(format!("blockprov-ingest-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .expect("spawn ingest worker")
            })
            .collect();
        Self {
            threads,
            jobs: Some(jobs),
            workers,
        }
    }

    /// The resolved worker count (1 means inline, no threads).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run the stateless stage for a batch, returning results in batch
    /// order. Single-block batches and inline pools skip the channels
    /// entirely — the caller's thread does the work — so tiny batches pay
    /// no coordination cost.
    pub fn prevalidate(&self, blocks: Vec<Block>, config: &ChainConfig) -> Vec<PrevalidatedBlock> {
        let inline = |blocks: Vec<Block>| {
            blocks
                .into_iter()
                .map(|b| PrevalidatedBlock::compute(b, config))
                .collect()
        };
        let Some(jobs) = &self.jobs else {
            return inline(blocks);
        };
        if blocks.len() < 2 {
            return inline(blocks);
        }
        let n = blocks.len();
        let chunk = chunk_size(n, self.threads);
        let config = Arc::new(config.clone());
        let (out, results) = channel();
        let mut sent = 0usize;
        let mut iter = blocks.into_iter();
        let mut start = 0usize;
        loop {
            let chunk_blocks: Vec<Block> = iter.by_ref().take(chunk).collect();
            if chunk_blocks.is_empty() {
                break;
            }
            let len = chunk_blocks.len();
            jobs.send(Job {
                start,
                blocks: chunk_blocks,
                config: Arc::clone(&config),
                out: out.clone(),
            })
            .expect("ingest pool workers alive");
            start += len;
            sent += 1;
        }
        drop(out);
        let mut slots: Vec<Option<PrevalidatedBlock>> = (0..n).map(|_| None).collect();
        for _ in 0..sent {
            let (start, pres) = results.recv().expect("ingest worker finished job");
            for (off, pre) in pres.into_iter().enumerate() {
                slots[start + off] = Some(pre);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("one result per submitted block"))
            .collect()
    }
}

impl Drop for ValidationPool {
    fn drop(&mut self) {
        // Closing the job channel makes every worker's recv() fail, which
        // is their exit signal.
        self.jobs = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the lock only while pulling a job, never while validating.
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return, // a sibling panicked mid-recv; shut down
        };
        let Ok(job) = job else {
            return; // channel closed: the pool is shutting down
        };
        let pres: Vec<PrevalidatedBlock> = job
            .blocks
            .into_iter()
            .map(|b| PrevalidatedBlock::compute(b, &job.config))
            .collect();
        // A send failure means the submitter gave up (panic unwind);
        // dropping the result is the only sane response.
        let _ = job.out.send((job.start, pres));
    }
}

/// Blocks per job for an `n`-block batch on a `threads`-worker pool.
///
/// Aim for ~4 jobs per worker: enough slack that an expensive chunk (many
/// signatures) doesn't leave siblings idle, while big batches still pay
/// channel overhead per *chunk* instead of per block.
fn chunk_size(n: usize, threads: usize) -> usize {
    (n / (threads.max(1) * 4)).max(1)
}

/// Resolve a configured thread count: `0` = one per available core.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::tx::{AccountId, Transaction};

    fn test_blocks(n: usize) -> Vec<Block> {
        let genesis = Block::assemble(
            0,
            crate::block::BlockHash::ZERO,
            0,
            AccountId::from_name("g"),
            0,
            vec![],
        );
        let mut parent = genesis.hash();
        (0..n)
            .map(|i| {
                let txs = (0..3)
                    .map(|j| {
                        Transaction::new(
                            AccountId::from_name("alice"),
                            (i * 3 + j) as u64,
                            1_000 + i as u64,
                            0,
                            vec![i as u8, j as u8],
                        )
                    })
                    .collect();
                let b = Block::assemble(
                    1 + i as u64,
                    parent,
                    1_000 + i as u64,
                    AccountId::from_name("sealer"),
                    0,
                    txs,
                );
                parent = b.hash();
                b
            })
            .collect()
    }

    #[test]
    fn zero_resolves_to_at_least_one() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn chunk_size_scales_with_batch_and_floors_at_one() {
        assert_eq!(chunk_size(2, 4), 1); // tiny batch: one block per job
        assert_eq!(chunk_size(16, 4), 1); // exactly 4 jobs per worker
        assert_eq!(chunk_size(160, 4), 10); // big batch: amortized chunks
        assert_eq!(chunk_size(7, 1), 1);
        assert!(chunk_size(100_000, 8) >= 1_000);
    }

    #[test]
    fn uneven_chunks_keep_batch_order() {
        // 17 blocks over 2 workers → chunk 2 → a short trailing chunk;
        // results must still come back in submission order.
        let config = ChainConfig::default();
        let blocks = test_blocks(17);
        let expect: Vec<PrevalidatedBlock> = blocks
            .iter()
            .cloned()
            .map(|b| PrevalidatedBlock::compute(b, &config))
            .collect();
        let pool = ValidationPool::new(2);
        let got = pool.prevalidate(blocks, &config);
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!(g.hash, e.hash);
        }
    }

    #[test]
    fn pooled_results_match_inline_in_order() {
        let config = ChainConfig::default();
        let blocks = test_blocks(16);
        let expect: Vec<PrevalidatedBlock> = blocks
            .iter()
            .cloned()
            .map(|b| PrevalidatedBlock::compute(b, &config))
            .collect();
        for threads in [1usize, 2, 4] {
            let pool = ValidationPool::new(threads);
            let got = pool.prevalidate(blocks.clone(), &config);
            assert_eq!(got.len(), expect.len());
            for (g, e) in got.iter().zip(&expect) {
                assert_eq!(
                    g.hash, e.hash,
                    "order or hash diverged at {threads} threads"
                );
                assert_eq!(g.tx_ids, e.tx_ids);
                assert_eq!(g.work, e.work);
                assert_eq!(g.stateless_err, e.stateless_err);
            }
        }
    }

    #[test]
    fn pool_survives_reuse_and_drop() {
        let config = ChainConfig::default();
        let pool = ValidationPool::new(4);
        for _ in 0..3 {
            let got = pool.prevalidate(test_blocks(5), &config);
            assert_eq!(got.len(), 5);
        }
        drop(pool); // must join cleanly, not hang
    }
}
