//! The layer budget: what each layer costs, measured from outside.
//!
//! A traced run ends with this report. It takes one stream of the
//! workload's shape and drives it through the system one layer at a time —
//! each rung of the ingest ladder is a timed call into a public function
//! of one crate, later rungs reported as the delta over the previous —
//! then through a node over HTTP (client spans, the node's `/metrics`
//! page, `/proc/<pid>`), and finally opens that node's data directory
//! in-process to split a restart and a read into their parts.
//!
//! Which end-to-end metric each of these should move is the README's
//! prediction table.

use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use crate::proc::{self, TempDir};
use crate::stats::Samples;
use crate::stream::{Shape, Stream};
use crate::sut::{self, ChainRung, RungSut};
use crate::system::{Env, System, Transport};
use crate::trace::{Span, Tracer, NO_SPAN};
use crate::workloads::{audit_phase, point_phase, write_closed, Metric, ReadStats};

/// Transactions the budget's stream holds per second of `--seconds` (500
/// `small` blocks or 62 `wide` ones): each of the nine ingest rungs then
/// takes ~1/40 of the run at today's ~13 us/tx.
const TXS_PER_SECOND: f64 = 2_000.0;

fn us_per(total: Duration, n: u64) -> f64 {
    total.as_secs_f64() * 1e6 / n.max(1) as f64
}

fn p50_us(ns: &[u64]) -> f64 {
    Samples::from_ns(ns.to_vec()).p_us(50.0)
}

/// Builds a rung's system under the directory it is given.
type MakeRung = Box<dyn FnOnce(&Path) -> std::io::Result<RungSut>>;

/// One rung of the ladder while it runs: its system, the directory under
/// it, and what its appends have taken so far.
struct Rung {
    name: &'static str,
    sut: RungSut,
    _dir: TempDir,
    span: crate::trace::SpanId,
    appends: Duration,
}

/// Drive every batch of `stream` through every rung, batch by batch in
/// turn, timing only the append calls (bodies are decoded outside the
/// timer). Rungs are reported as differences of one another, and on a
/// shared host a second of interference would otherwise land on whichever
/// rung was running: taking turns spreads it over all of them. Returns
/// each rung's append time and, for the last rung, its clean-shutdown sync.
fn run_ladder(
    stream: &Stream,
    tracer: &mut Tracer,
    tmp_root: &Path,
    makers: Vec<(&'static str, MakeRung)>,
) -> Result<(Vec<Duration>, Duration), String> {
    let mut rungs = Vec::with_capacity(makers.len());
    for (name, make) in makers {
        let dir = TempDir::new(tmp_root, name).map_err(|e| format!("{name}: {e}"))?;
        rungs.push(Rung {
            name,
            sut: make(dir.path()).map_err(|e| format!("{name}: {e}"))?,
            _dir: dir,
            span: tracer.begin(name, NO_SPAN, 0),
            appends: Duration::ZERO,
        });
    }
    for (i, batch) in stream.batches.iter().enumerate() {
        for rung in &mut rungs {
            let blocks = sut::decode_batch(&batch.body)?;
            let span = tracer.begin("sut.append", rung.span, i as u64);
            let t0 = Instant::now();
            let committed = rung.sut.append(blocks)?;
            rung.appends += t0.elapsed();
            tracer.end(span);
            if committed != stream.shape.blocks_per_batch {
                return Err(format!(
                    "{}: batch {i} committed {committed} blocks",
                    rung.name
                ));
            }
        }
    }
    let mut sync = Duration::ZERO;
    for rung in &mut rungs {
        let span = tracer.begin("sut.sync", rung.span, 0);
        let t0 = Instant::now();
        rung.sut
            .sync()
            .map_err(|e| format!("{}: sync: {e}", rung.name))?;
        sync = t0.elapsed();
        tracer.end(span);
        tracer.end(rung.span);
    }
    Ok((rungs.iter().map(|r| r.appends).collect(), sync))
}

/// p50 of the `http.wait` spans among `spans`, in microseconds.
fn wait_p50_us(spans: &[Span]) -> f64 {
    let ns: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "http.wait")
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    p50_us(&ns)
}

/// p50 latency of the point reads of one kind, in microseconds.
fn kind_p50_us(stats: &ReadStats, kind: usize) -> f64 {
    let ns: Vec<u64> = stats
        .latency_ns
        .iter()
        .zip(&stats.kinds)
        .filter(|(_, k)| **k as usize == kind)
        .map(|(ns, _)| *ns)
        .collect();
    p50_us(&ns)
}

/// The rungs whose sum is one block's way through `decode_seq` and
/// `ingest_blocks`: what `ingest_direct` times per batch.
pub const LADDER_SUM: [&str; 7] = [
    "wire.decode_us_per_blk",
    "ledger.chain.mem_us_per_blk",
    "ledger.segment.delta_us_per_blk",
    "ledger.index.delta_us_per_blk",
    "ledger.meta.delta_us_per_blk",
    "ledger.readview.publish_delta_us_per_blk",
    "core.absorb_delta_us_per_blk",
];

/// Batches in the budget's stream for a run of `seconds`.
pub fn budget_batches(shape: Shape, seconds: f64, smoke: bool) -> usize {
    let txs_wanted = if smoke {
        4_096.0
    } else {
        TXS_PER_SECOND * seconds
    };
    (txs_wanted / shape.txs_per_batch() as f64).ceil().max(2.0) as usize
}

/// Measure every per-layer metric of the system on a stream of `shape`
/// (the load generator's own three come from the traced workload run).
/// Spans of the read probes' own threads are appended to `probe_spans`.
pub fn budget(
    env: &Env,
    shape: Shape,
    seed: u64,
    seconds: f64,
    smoke: bool,
    tracer: &mut Tracer,
    probe_spans: &mut Vec<Span>,
) -> Result<Vec<Metric>, String> {
    let batches = budget_batches(shape, seconds, smoke);
    let stream = Stream::generate(seed, shape, batches);
    let blocks = stream.blocks();
    let txs = stream.txs_in(batches);
    let mut out = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        out.push(Metric::new(name, value, unit))
    };

    // --- wire, crypto, stateless validation, provenance: no chain state.
    let decoded: Vec<Vec<sut::SutBlock>> = stream
        .batches
        .iter()
        .map(|b| sut::decode_batch(&b.body))
        .collect::<Result<_, _>>()?;
    let t0 = Instant::now();
    let encoded_bytes: usize = tracer.span("wire.encode", NO_SPAN, 0, || {
        decoded
            .iter()
            .map(|b| std::hint::black_box(sut::encode_batch(b)).len())
            .sum()
    });
    put("wire.encode_us_per_blk", us_per(t0.elapsed(), blocks), "us");
    let t0 = Instant::now();
    tracer.span("wire.decode", NO_SPAN, 0, || {
        for b in &stream.batches {
            std::hint::black_box(sut::decode_batch(&b.body).map(|v| v.len()).unwrap_or(0));
        }
    });
    let decode_us = us_per(t0.elapsed(), blocks);
    put("wire.decode_us_per_blk", decode_us, "us");
    put("wire.bytes_per_tx", encoded_bytes as f64 / txs as f64, "B");

    let buf = vec![0xa5u8; 1 << 20];
    let rounds = if smoke { 8 } else { 64 };
    let sha = tracer.span("crypto.sha256", NO_SPAN, 0, || {
        sut::time_sha256(&buf, rounds)
    });
    put(
        "crypto.sha256_mb_per_s",
        rounds as f64 / sha.as_secs_f64().max(1e-9),
        "MB/s",
    );

    let flat: Vec<sut::SutBlock> = decoded.into_iter().flatten().collect();
    let d = tracer.span("crypto.tx_root", NO_SPAN, 0, || sut::time_tx_root(&flat));
    put("crypto.tx_root_us_per_blk", us_per(d, blocks), "us");
    let d = tracer.span("provenance.graph_insert", NO_SPAN, 0, || {
        sut::time_graph_insert(&flat)
    });
    put("provenance.graph_insert_us_per_tx", us_per(d, txs), "us");
    let d = tracer.span("ledger.chain.prevalidate", NO_SPAN, 0, || {
        sut::time_prevalidate(flat)
    });
    put(
        "ledger.chain.prevalidate_us_per_blk",
        us_per(d, blocks),
        "us",
    );

    // --- the chain ladder: each rung adds one tier or mechanism.
    let threads = sut::INGEST_THREADS;
    let chain = |rung, threads, reader| -> MakeRung {
        Box::new(move |dir| RungSut::chain(rung, dir, threads, reader))
    };
    let (appends, ledger_sync) = run_ladder(
        &stream,
        tracer,
        &env.tmp_root,
        vec![
            ("ladder.mem", chain(ChainRung::Mem, threads, false)),
            ("ladder.segment", chain(ChainRung::Segment, threads, false)),
            ("ladder.index", chain(ChainRung::Index, threads, false)),
            ("ladder.meta", chain(ChainRung::Meta, threads, false)),
            ("ladder.meta+reader", chain(ChainRung::Meta, threads, true)),
            (
                "ladder.core+reader",
                Box::new(|dir| RungSut::ledger(dir, true)),
            ),
        ],
    )?;
    let [mem, segment, index, meta, published, ledger] = <[f64; 6]>::try_from(
        appends
            .iter()
            .map(|d| us_per(*d, blocks))
            .collect::<Vec<_>>(),
    )
    .map_err(|_| "ladder: rung count")?;
    // What a second ingest thread buys is a question about a second CPU:
    // these two rungs alone run free of the pin (their pools are spawned by
    // their first append, inside the guard).
    let (pool_appends, _) = {
        let _free = proc::Unpinned::begin();
        run_ladder(
            &stream,
            tracer,
            &env.tmp_root,
            vec![
                ("ladder.meta.1t", chain(ChainRung::Meta, 1, false)),
                ("ladder.meta.2t", chain(ChainRung::Meta, 2, false)),
            ],
        )?
    };
    let [one_thread, two_threads] = <[f64; 2]>::try_from(
        pool_appends
            .iter()
            .map(|d| us_per(*d, blocks))
            .collect::<Vec<_>>(),
    )
    .map_err(|_| "ladder: pool rung count")?;
    put("ledger.chain.mem_us_per_blk", mem, "us");
    put("ledger.segment.delta_us_per_blk", segment - mem, "us");
    put("ledger.index.delta_us_per_blk", index - segment, "us");
    put("ledger.meta.delta_us_per_blk", meta - index, "us");
    put(
        "ledger.readview.publish_delta_us_per_blk",
        published - meta,
        "us",
    );
    put(
        "ledger.pool.speedup_2t",
        one_thread / two_threads.max(1e-9),
        "x",
    );
    put("core.absorb_delta_us_per_blk", ledger - published, "us");
    put("core.sync_ms", ledger_sync.as_secs_f64() * 1e3, "ms");
    let direct_us_per_blk = decode_us + ledger;

    // --- the same stream through a node: hops, server counters, /proc.
    let (mut sys, _) = System::bring_up(env, Transport::Http)?;
    let committed = AtomicU64::new(0);
    let page0 = sys.metrics_page().ok_or("no /metrics page")?;
    let w = write_closed(&mut sys, &stream, 0..batches, tracer, &committed);
    if w.tally.failed > 0 {
        return Err("budget: HTTP ingest failed".into());
    }
    let page1 = sys.metrics_page().ok_or("no /metrics page")?;
    let delta =
        |a: &std::collections::BTreeMap<String, f64>,
         b: &std::collections::BTreeMap<String, f64>,
         k: &str| { b.get(k).copied().unwrap_or(0.0) - a.get(k).copied().unwrap_or(0.0) };
    let server_ingest_ms = delta(&page0, &page1, "node_ingest_latency_ns_sum")
        / delta(&page0, &page1, "node_ingest_latency_ns_count").max(1.0)
        / 1e6;
    let client_commit_ms = Samples::from_ns(w.commit_ns.clone()).p_ms(50.0);
    let n_batches = w.batches.max(1) as f64;
    put("node.http.post_send_us_p50", p50_us(&w.first_ns), "us");
    put("node.http.post_wait_us_p50", p50_us(&w.second_ns), "us");
    put("node.server.ingest_ms_mean", server_ingest_ms, "ms");
    put(
        "node.server.backpressure_429",
        delta(&page0, &page1, "node_ingest_backpressure_total"),
        "count",
    );
    put(
        "node.http.ingest_overhead_ms",
        client_commit_ms - server_ingest_ms,
        "ms",
    );
    put(
        "node.http.gap_us_per_blk",
        us_per(w.elapsed, blocks) - direct_us_per_blk,
        "us",
    );
    put(
        "node.io.wchar_per_tx",
        w.used.wchar as f64 / txs as f64,
        "B",
    );
    put(
        "node.io.syscw_per_batch",
        w.used.syscw as f64 / n_batches,
        "count",
    );
    put(
        "node.io.syscr_per_batch",
        w.used.syscr as f64 / n_batches,
        "count",
    );
    put(
        "node.ctxsw_per_batch",
        w.used.ctxsw as f64 / n_batches,
        "count",
    );
    put("node.cpu_user_s", w.used.cpu_user_s, "s");
    put("node.cpu_sys_s", w.used.cpu_sys_s, "s");

    // Restart over the populated directory, so that the HTTP probes and
    // the in-process probes further down both read a freshly opened ledger
    // over the same bytes.
    sys.restart_clean(tracer, 0)?;
    put(
        "node.process.spawn_to_listen_ms",
        sys.last_spawn_to_listen.as_secs_f64() * 1e3,
        "ms",
    );

    // One connection, fixed operation counts, so the in-process probe
    // below can replay exactly the same keys.
    let (point_ops, audit_ops) = if smoke { (200, 4) } else { (4_000, 12) };
    let mut probe_tracer = [tracer.sibling(99)];
    let hot0 = sys.hot_stats();
    let page2 = sys.metrics_page().ok_or("no /metrics page")?;
    let http_point = point_phase(
        sys.readers(1)?,
        &stream,
        blocks,
        point_ops,
        seed,
        &mut probe_tracer,
    );
    let page3 = sys.metrics_page().ok_or("no /metrics page")?;
    let hot1 = sys.hot_stats();
    let http_audit = audit_phase(
        sys.readers(1)?,
        &stream,
        txs,
        audit_ops,
        seed,
        &mut probe_tracer,
    );
    if http_point.tally.failed + http_audit.tally.failed > 0 {
        return Err("budget: an HTTP probe read failed its oracle".into());
    }
    let (hits, misses) = ((hot1.0 - hot0.0) as f64, (hot1.1 - hot0.1) as f64);
    put(
        "node.http.get_wait_us_p50",
        wait_p50_us(probe_tracer[0].spans()),
        "us",
    );
    put(
        "node.server.query_us_mean",
        delta(&page2, &page3, "node_query_latency_ns_sum")
            / delta(&page2, &page3, "node_query_latency_ns_count").max(1.0)
            / 1e3,
        "us",
    );
    put(
        "ledger.segment.hot_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );

    let (_, data_dir) = sys.finish()?;
    for (tier, bytes_name, files_name) in [
        (
            "blocks",
            "ledger.segment.disk_bytes_per_tx",
            Some("ledger.segment.files"),
        ),
        (
            "index",
            "ledger.index.disk_bytes_per_tx",
            Some("ledger.index.files"),
        ),
        ("meta", "ledger.meta.disk_bytes_per_tx", None),
    ] {
        let (bytes, files) =
            proc::dir_usage(&data_dir.path().join(tier)).map_err(|e| format!("{tier}/: {e}"))?;
        put(bytes_name, bytes as f64 / txs as f64, "B");
        if let Some(name) = files_name {
            put(name, files as f64, "count");
        }
    }

    // --- the read path: the node's directory, opened in-process.
    let replay = tracer.span("ledger.chain.replay", NO_SPAN, 0, || {
        sut::time_chain_replay(data_dir.path())
    });
    let replay_ms = replay.map_err(|e| format!("replay: {e}"))?.as_secs_f64() * 1e3;
    let span = tracer.begin("core.open", NO_SPAN, 0);
    let (local, open) = System::over(env, data_dir, Transport::Direct)?;
    tracer.end(span);
    let open_ms = open.as_secs_f64() * 1e3;
    put("core.open_ms", open_ms, "ms");
    put("ledger.chain.replay_ms", replay_ms, "ms");
    put("core.rehydrate_ms", open_ms - replay_ms, "ms");

    let local_point = point_phase(
        local.readers(1)?,
        &stream,
        blocks,
        point_ops,
        seed,
        &mut probe_tracer,
    );
    let local_audit = audit_phase(
        local.readers(1)?,
        &stream,
        txs,
        audit_ops,
        seed,
        &mut probe_tracer,
    );
    if local_point.tally.failed + local_audit.tally.failed > 0 {
        return Err("budget: an in-process probe read failed its oracle".into());
    }
    let views = if smoke { 10_000 } else { 200_000 };
    put(
        "ledger.readview.view_ns",
        local.time_views(views).as_nanos() as f64 / views as f64,
        "ns",
    );
    put(
        "ledger.readview.tx_us_p50",
        kind_p50_us(&local_point, 1),
        "us",
    );
    put(
        "ledger.readview.block_us_p50",
        kind_p50_us(&local_point, 2),
        "us",
    );
    put(
        "ledger.readview.prove_us_p50",
        kind_p50_us(&local_point, 3),
        "us",
    );
    let local_audit_ms = Samples::from_ns(local_audit.latency_ns).p_ms(50.0);
    put("ledger.readview.audit_ms_p50", local_audit_ms, "ms");
    put(
        "node.http.point_overhead_us",
        p50_us(&http_point.latency_ns) - p50_us(&local_point.latency_ns),
        "us",
    );
    put(
        "node.http.audit_overhead_ms",
        Samples::from_ns(http_audit.latency_ns).p_ms(50.0) - local_audit_ms,
        "ms",
    );
    local.finish()?;
    let [probe_tracer] = probe_tracer;
    probe_spans.extend(probe_tracer.into_spans());

    Ok(out)
}
