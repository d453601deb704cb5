//! Ledger at scale — tiered storage vs everything-in-memory.
//!
//! The storage-overhead experiments (E3) presuppose provenance history far
//! larger than RAM. This harness appends ~100k blocks through both store
//! backends and reports:
//!
//! * one-shot: append throughput (blocks/s), resident decoded blocks, and
//!   on-disk segment layout for `MemStore` vs `TieredStore` vs
//!   `TieredStore + TxIndex` (the spilled-index configuration, where the
//!   mutable in-memory index covers only the non-finalized suffix);
//! * timed: canonical tx-lookup latency — hot (repeated id, cache hit),
//!   uniform (sweep over all history, mostly cold-tier reads), and the
//!   spilled-index point/secondary query path (warm page cache vs sweep);
//! * one-shot: cold-start sweep — snapshot fast-start wall clock at
//!   10k/50k/100k-block histories (`cold_start/*`), which the manifest's
//!   height fences should keep flat as history grows.

use blockprov_ledger::block::Block;
use blockprov_ledger::chain::{Chain, ChainConfig};
use blockprov_ledger::index::{TxIndex, TxIndexConfig};
use blockprov_ledger::meta::{MetaConfig, MetaStore};
use blockprov_ledger::segment::{SegmentConfig, TieredConfig, TieredStore};
use blockprov_ledger::store::{BlockStore, MemStore};
use blockprov_ledger::tx::{AccountId, Transaction, TxId};
use criterion::{criterion_group, criterion_main, record_metric, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

const SCALE_BLOCKS: u64 = 100_000;
const TX_EVERY: u64 = 50;
const HOT_CAPACITY: usize = 256;
const FINALITY_DEPTH: u64 = 64;

fn chain_config() -> ChainConfig {
    ChainConfig {
        finality_depth: Some(FINALITY_DEPTH),
        ..ChainConfig::default()
    }
}

fn tiered_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "blockprov-bench-ledger-scale-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiered_chain(dir: &std::path::Path) -> Chain {
    let store = TieredStore::open(
        dir,
        TieredConfig {
            segment: SegmentConfig {
                segment_bytes: 8 * 1024 * 1024,
            },
            hot_capacity: HOT_CAPACITY,
        },
    )
    .expect("open tiered store");
    Chain::with_store(Box::new(store), chain_config())
}

/// Append `blocks` empty-ish blocks (one indexed tx every `TX_EVERY`),
/// returning the sample tx ids and the elapsed append time.
fn grow(chain: &mut Chain, blocks: u64) -> (Vec<TxId>, std::time::Duration) {
    let sealer = AccountId::from_name("sealer");
    let mut ids = Vec::new();
    let start = Instant::now();
    for i in 0..blocks {
        let txs = if i % TX_EVERY == 0 {
            let tx = Transaction::new(AccountId::from_name("auditor"), i, i, 7, vec![0xAA; 24]);
            ids.push(tx.id());
            vec![tx]
        } else {
            Vec::new()
        };
        let block = chain.assemble_next(i + 1, sealer, 0, txs);
        chain.append(block).expect("append");
    }
    (ids, start.elapsed())
}

fn spilled_chain(dir: &std::path::Path) -> Chain {
    let store = TieredStore::open(
        dir,
        TieredConfig {
            segment: SegmentConfig {
                segment_bytes: 8 * 1024 * 1024,
            },
            hot_capacity: HOT_CAPACITY,
        },
    )
    .expect("open tiered store");
    // Small pages and a page cache well below the page count, so the cold
    // sweep below actually exercises page reads rather than pure cache hits.
    let index = TxIndex::open(
        dir.join("txindex"),
        TxIndexConfig {
            partitions: 16,
            page_entries: 64,
            cached_pages: 8,
            ..TxIndexConfig::default()
        },
    )
    .expect("open tx index");
    Chain::with_store_and_index(Box::new(store), index, chain_config())
}

fn meta_tier_store(dir: &std::path::Path) -> Box<dyn BlockStore> {
    Box::new(
        TieredStore::open(
            dir.join("blocks"),
            TieredConfig {
                segment: SegmentConfig {
                    segment_bytes: 8 * 1024 * 1024,
                },
                hot_capacity: HOT_CAPACITY,
            },
        )
        .expect("open tiered store"),
    )
}

fn meta_tier_index(dir: &std::path::Path) -> TxIndex {
    TxIndex::open(dir.join("txindex"), TxIndexConfig::default()).expect("open tx index")
}

fn meta_tier_meta(dir: &std::path::Path) -> MetaStore {
    MetaStore::open(dir.join("meta"), MetaConfig::default()).expect("open meta store")
}

/// The fourth backend: all three durable tiers (blocks, tx index, chain
/// metadata) — the bounded-resident-memory configuration.
fn meta_chain(dir: &std::path::Path) -> Chain {
    Chain::with_tiers(
        meta_tier_store(dir),
        Some(meta_tier_index(dir)),
        meta_tier_meta(dir),
        chain_config(),
    )
}

/// Resident per-block metadata entries/bytes for one backend, one line.
fn report_resident_metadata(label: &str, chain: &Chain) {
    let r = chain.resident_metadata();
    record_metric(
        &format!("resident_metadata/{label}"),
        r.approx_bytes() as f64,
        "bytes",
    );
    println!(
        "ledger_scale resident metadata [{label}]: {} entries ≈ {} bytes \
         (meta {} / canonical {} / nonce {}+{} / undo {} / at_height {})",
        r.total(),
        r.approx_bytes(),
        r.meta,
        r.canonical,
        r.next_nonce,
        r.nonce_floor,
        r.undo,
        r.at_height,
    );
}

/// One-shot cold-start measurement over the meta-tier directory:
/// replay-from-snapshot (fast start) vs full replay of the same history.
fn report_cold_start(dir: &std::path::Path) {
    let t = Instant::now();
    let fast = Chain::replay_with_tiers(
        meta_tier_store(dir),
        Some(meta_tier_index(dir)),
        meta_tier_meta(dir),
        chain_config(),
    )
    .expect("fast start");
    let fast_t = t.elapsed();
    let fast_appended = fast.appended_blocks();
    let tip = fast.tip();
    drop(fast);

    let t = Instant::now();
    let full = Chain::replay_with_index(meta_tier_store(dir), meta_tier_index(dir), chain_config())
        .expect("full replay");
    let full_t = t.elapsed();
    assert_eq!(full.tip(), tip, "both cold starts must agree on the tip");
    println!(
        "ledger_scale cold start @ {SCALE_BLOCKS} blocks: snapshot fast-start {:.2?} \
         (re-absorbed {} blocks) vs full replay {:.2?} ({} blocks) — {:.1}x",
        fast_t,
        fast_appended,
        full_t,
        full.appended_blocks(),
        full_t.as_secs_f64() / fast_t.as_secs_f64().max(1e-9),
    );
}

/// One-shot 100k-block append measurement for all four backends (a
/// measurement, not a timing loop — printed once, `storage_dedup` style).
#[allow(clippy::type_complexity)]
fn report_append_throughput() -> (
    Chain,
    Vec<TxId>,
    Chain,
    Vec<TxId>,
    Chain,
    Vec<TxId>,
    Vec<std::path::PathBuf>,
) {
    let mut mem = Chain::with_store(Box::new(MemStore::new()), chain_config());
    let (mem_ids, mem_t) = grow(&mut mem, SCALE_BLOCKS);
    record_metric(
        "append/MemStore",
        SCALE_BLOCKS as f64 / mem_t.as_secs_f64(),
        "blk/s",
    );
    println!(
        "ledger_scale append [MemStore]: {SCALE_BLOCKS} blocks in {:.2?} \
         ({:.0} blocks/s), resident blocks {}",
        mem_t,
        SCALE_BLOCKS as f64 / mem_t.as_secs_f64(),
        mem.resident_blocks(),
    );

    let dir = tiered_dir("grow");
    let mut tiered = tiered_chain(&dir);
    let (tiered_ids, tiered_t) = grow(&mut tiered, SCALE_BLOCKS);
    record_metric(
        "append/TieredStore",
        SCALE_BLOCKS as f64 / tiered_t.as_secs_f64(),
        "blk/s",
    );
    println!(
        "ledger_scale append [TieredStore]: {SCALE_BLOCKS} blocks in {:.2?} \
         ({:.0} blocks/s), resident blocks {} (hot cap {HOT_CAPACITY}), \
         {} bytes cold, finalized height {}",
        tiered_t,
        SCALE_BLOCKS as f64 / tiered_t.as_secs_f64(),
        tiered.resident_blocks(),
        tiered.stored_bytes(),
        tiered.finalized_height(),
    );
    assert!(
        tiered.resident_blocks() <= HOT_CAPACITY,
        "tiered chain must stay within its hot-set bound"
    );

    let sdir = tiered_dir("spilled");
    let mut spilled = spilled_chain(&sdir);
    let (spilled_ids, spilled_t) = grow(&mut spilled, SCALE_BLOCKS);
    // Cut the staged tails into durable pages so the lookup benches below
    // measure the page path, not the in-memory staging buffer.
    spilled.sync_index().expect("sync index");
    let ix = spilled.tx_index().expect("index attached");
    record_metric(
        "append/Tiered+TxIndex",
        SCALE_BLOCKS as f64 / spilled_t.as_secs_f64(),
        "blk/s",
    );
    println!(
        "ledger_scale append [Tiered+TxIndex]: {SCALE_BLOCKS} blocks in {:.2?} \
         ({:.0} blocks/s), resident index entries {} (history {}), \
         {} spilled entries across {} pages / {} partitions, {} index bytes",
        spilled_t,
        SCALE_BLOCKS as f64 / spilled_t.as_secs_f64(),
        spilled.resident_index_entries(),
        spilled_ids.len(),
        ix.entries(),
        ix.page_count(),
        ix.partition_count(),
        ix.stored_bytes(),
    );
    // Fourth backend: + metadata tier (height map, snapshot per finality
    // advance). Reports the bounded-residency numbers and the
    // cold-start comparison, then drops — the lookup loops below already
    // cover the shared two-tier query paths.
    let mdir = tiered_dir("meta");
    let mut metad = meta_chain(&mdir);
    let (meta_ids, meta_t) = grow(&mut metad, SCALE_BLOCKS);
    let _ = meta_ids;
    record_metric(
        "append/Tiered+TxIndex+Meta",
        SCALE_BLOCKS as f64 / meta_t.as_secs_f64(),
        "blk/s",
    );
    println!(
        "ledger_scale append [Tiered+TxIndex+Meta]: {SCALE_BLOCKS} blocks in {:.2?} \
         ({:.0} blocks/s), height-map {} pages / {} bytes, snapshot every {} advances",
        meta_t,
        SCALE_BLOCKS as f64 / meta_t.as_secs_f64(),
        metad.meta_tier().expect("meta tier").height_map().page_count(),
        metad.meta_tier().expect("meta tier").height_map().stored_bytes(),
        metad.meta_tier().expect("meta tier").config().snapshot_interval,
    );
    report_resident_metadata("MemStore", &mem);
    report_resident_metadata("TieredStore", &tiered);
    report_resident_metadata("Tiered+TxIndex", &spilled);
    report_resident_metadata("Tiered+TxIndex+Meta", &metad);
    metad.sync_meta().expect("sync meta");
    drop(metad);
    report_cold_start(&mdir);

    (mem, mem_ids, tiered, tiered_ids, spilled, spilled_ids, vec![dir, sdir, mdir])
}

/// One-shot cold-start sweep: snapshot fast-start wall clock at several
/// history sizes. With the manifest's per-segment height fences, fast
/// start skips every sealed segment wholly below the checkpoint and reads
/// O(finality window), so the curve should stay flat as history grows —
/// `cold_start/100k` within noise of `cold_start/10k` is the acceptance
/// gate. `COLD_START_BLOCKS` caps the largest size (CI smoke runs set
/// 10000 and get just the first point).
fn report_cold_start_sweep() {
    let cap: u64 = std::env::var("COLD_START_BLOCKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(SCALE_BLOCKS);
    for blocks in [10_000u64, 50_000, 100_000] {
        if blocks > cap {
            continue;
        }
        let dir = tiered_dir(&format!("coldstart-{blocks}"));
        let mut chain = meta_chain(&dir);
        let _ = grow(&mut chain, blocks);
        chain.sync_meta().expect("sync meta");
        drop(chain);
        let t = Instant::now();
        let fast = Chain::replay_with_tiers(
            meta_tier_store(&dir),
            Some(meta_tier_index(&dir)),
            meta_tier_meta(&dir),
            chain_config(),
        )
        .expect("fast start");
        let dt = t.elapsed();
        record_metric(
            &format!("cold_start/{}k", blocks / 1_000),
            dt.as_secs_f64() * 1_000.0,
            "ms",
        );
        println!(
            "ledger_scale cold start sweep [{blocks} blocks]: fast-start {dt:.2?}, \
             re-absorbed {} blocks, tip height {}",
            fast.appended_blocks(),
            fast.height(),
        );
        drop(fast);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One-shot ingest-pipeline scaling curve: blocks/s of `append_batch` over
/// the all-tiers backend at 1/2/4/8 stateless-stage worker threads.
///
/// The stream is tx-heavy (24 txs per block) so the stateless stage —
/// header hashing, per-tx id derivation, Merkle recomputation — carries
/// real work to fan out; the serialized commit section is identical at
/// every thread count, and so is the resulting chain (asserted on the
/// tip). `INGEST_SCALE_BLOCKS` overrides the stream length (CI smoke runs
/// use a short one).
fn report_ingest_scaling() {
    const BATCH: usize = 512;
    const TXS_PER_BLOCK: u64 = 24;
    let blocks: u64 = std::env::var("INGEST_SCALE_BLOCKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let sealer = AccountId::from_name("sealer");
    // Pre-assemble the whole linear stream once; every thread count
    // ingests the identical blocks.
    let mut parent = Chain::genesis_block().hash();
    let stream: Vec<Block> = (0..blocks)
        .map(|i| {
            let txs: Vec<Transaction> = (0..TXS_PER_BLOCK)
                .map(|j| {
                    Transaction::new(
                        AccountId::from_name("auditor"),
                        i * TXS_PER_BLOCK + j,
                        i + 1,
                        7,
                        vec![0xAB; 24],
                    )
                })
                .collect();
            let b = Block::assemble(i + 1, parent, i + 1, sealer, 0, txs);
            parent = b.hash();
            b
        })
        .collect();
    let mut tips = Vec::new();
    let mut single_thread_rate = None;
    for threads in [1usize, 2, 4, 8] {
        let dir = tiered_dir(&format!("ingest-{threads}"));
        let config = ChainConfig {
            ingest_threads: threads,
            ..chain_config()
        };
        let mut chain = Chain::with_tiers(
            meta_tier_store(&dir),
            Some(meta_tier_index(&dir)),
            meta_tier_meta(&dir),
            config,
        );
        let t = Instant::now();
        for batch in stream.chunks(BATCH) {
            chain.append_batch(batch.to_vec()).expect("batch append");
        }
        let dt = t.elapsed();
        let rate = blocks as f64 / dt.as_secs_f64();
        let speedup = match single_thread_rate {
            None => {
                single_thread_rate = Some(rate);
                1.0
            }
            Some(base) => rate / base,
        };
        record_metric(
            &format!("ingest_scaling/all-tiers/threads/{threads}"),
            rate,
            "blk/s",
        );
        println!(
            "ledger_scale ingest scaling [all tiers, {threads} threads]: {blocks} blocks \
             x {TXS_PER_BLOCK} txs in {dt:.2?} ({rate:.0} blocks/s, {speedup:.2}x vs 1 thread)",
        );
        tips.push(chain.tip());
        drop(chain);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        tips.windows(2).all(|w| w[0] == w[1]),
        "ingest pipeline must produce an identical chain at every thread count"
    );
}

/// One-shot group-commit sweep: blocks/s of `append_batch` over the
/// all-tiers backend at batch sizes 1, 16 and 256, single ingest thread.
///
/// Size 1 degenerates to one durable flush per block — the pre-group-commit
/// write path. Larger batches coalesce the segment write, TxIndex spill
/// and snapshot cadence into one flush per batch, so the
/// curve isolates exactly what group commit buys at the commit stage
/// (stage-1 fan-out is pinned to one thread; `ingest_scaling` covers that
/// axis). `BATCH_COMMIT_BLOCKS` overrides the stream length (CI smoke runs
/// use a short one).
fn report_batch_commit() {
    const TXS_PER_BLOCK: u64 = 4;
    let blocks: u64 = std::env::var("BATCH_COMMIT_BLOCKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let sealer = AccountId::from_name("sealer");
    let mut parent = Chain::genesis_block().hash();
    let stream: Vec<Block> = (0..blocks)
        .map(|i| {
            let txs: Vec<Transaction> = (0..TXS_PER_BLOCK)
                .map(|j| {
                    Transaction::new(
                        AccountId::from_name("auditor"),
                        i * TXS_PER_BLOCK + j,
                        i + 1,
                        7,
                        vec![0xCD; 24],
                    )
                })
                .collect();
            let b = Block::assemble(i + 1, parent, i + 1, sealer, 0, txs);
            parent = b.hash();
            b
        })
        .collect();
    let mut tips = Vec::new();
    let mut size_one_rate = None;
    for size in [1usize, 16, 256] {
        let dir = tiered_dir(&format!("batch-commit-{size}"));
        let config = ChainConfig {
            ingest_threads: 1,
            ..chain_config()
        };
        let mut chain = Chain::with_tiers(
            meta_tier_store(&dir),
            Some(meta_tier_index(&dir)),
            meta_tier_meta(&dir),
            config,
        );
        let t = Instant::now();
        for batch in stream.chunks(size) {
            chain.append_batch(batch.to_vec()).expect("batch append");
        }
        let dt = t.elapsed();
        let rate = blocks as f64 / dt.as_secs_f64();
        let speedup = match size_one_rate {
            None => {
                size_one_rate = Some(rate);
                1.0
            }
            Some(base) => rate / base,
        };
        record_metric(&format!("batch_commit/{size}"), rate, "blk/s");
        println!(
            "ledger_scale batch commit [all tiers, batch {size}]: {blocks} blocks \
             x {TXS_PER_BLOCK} txs in {dt:.2?} ({rate:.0} blocks/s, {speedup:.2}x vs batch 1)",
        );
        tips.push(chain.tip());
        drop(chain);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        tips.windows(2).all(|w| w[0] == w[1]),
        "group commit must produce an identical chain at every batch size"
    );
}

fn bench_ledger_scale(c: &mut Criterion) {
    let (mem, mem_ids, tiered, tiered_ids, spilled, spilled_ids, dirs) =
        report_append_throughput();

    let mut group = c.benchmark_group("tx_lookup_100k_chain");
    group.sample_size(20);
    // Hot lookup: the same recent transaction over and over — the tiered
    // store serves this from its LRU hot set.
    for (label, chain, ids) in [
        ("mem", &mem, &mem_ids),
        ("tiered", &tiered, &tiered_ids),
        ("spilled", &spilled, &spilled_ids),
    ] {
        let hot_id = *ids.last().expect("sample txs");
        group.bench_with_input(BenchmarkId::new("hot", label), &hot_id, |b, id| {
            b.iter(|| chain.get_tx(black_box(id)).expect("hot tx"))
        });
    }
    // Uniform lookup: sweep across the whole history — for the tiered
    // store most probes miss the hot set and hit the cold segment tier.
    for (label, chain, ids) in [
        ("mem", &mem, &mem_ids),
        ("tiered", &tiered, &tiered_ids),
        ("spilled", &spilled, &spilled_ids),
    ] {
        let mut cursor = 0usize;
        group.bench_with_input(BenchmarkId::new("uniform", label), &(), |b, _| {
            b.iter(|| {
                let id = &ids[cursor % ids.len()];
                cursor = cursor.wrapping_add(1);
                chain.get_tx(black_box(id)).expect("indexed tx")
            })
        });
    }
    group.finish();

    // The spilled-index *point lookup* path in isolation (no block fetch):
    // hot = one long-finalized id, its page pinned in the LRU page cache;
    // cold = sweep over all finalized ids, page cache mostly missing.
    let mut group = c.benchmark_group("spilled_index_lookup");
    group.sample_size(20);
    let oldest = spilled_ids.first().expect("sample txs");
    group.bench_with_input(BenchmarkId::new("hot", "page-cached"), oldest, |b, id| {
        b.iter(|| spilled.tx_by_id(black_box(id)).expect("finalized tx"))
    });
    let mut cursor = 0usize;
    group.bench_with_input(BenchmarkId::new("cold", "page-sweep"), &(), |b, _| {
        b.iter(|| {
            let id = &spilled_ids[cursor % spilled_ids.len()];
            cursor = cursor.wrapping_add(1);
            spilled.tx_by_id(black_box(id)).expect("finalized tx")
        })
    });
    // Secondary full-history query across both tiers.
    let auditor = AccountId::from_name("auditor");
    group.bench_with_input(
        BenchmarkId::new("by_author", "full-history"),
        &auditor,
        |b, author| b.iter(|| spilled.txs_by_author(black_box(author)).len()),
    );
    group.finish();
    let (hits, misses) = spilled.tx_index().expect("index").cache_stats();
    println!("ledger_scale spilled-index page cache: {hits} hits / {misses} misses");

    report_cold_start_sweep();
    report_ingest_scaling();
    report_batch_commit();

    drop(tiered);
    drop(spilled);
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

criterion_group!(benches, bench_ledger_scale);
criterion_main!(benches);
