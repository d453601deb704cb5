//! The four workloads: one scenario, four weightings.
//!
//! Every workload runs the same skeleton over its own stream and
//! transport, so every end-to-end metric has a meaning on every workload:
//!
//! ```text
//! set-up   bring a system up on an empty directory and post the warm
//!          history, closed loop; several times over (setup_s). The last
//!          two systems stay: the probe system, whose history stands still,
//!          and the write system, whose history grows.
//! rounds   the measured part, the same round over and over:
//!            write    slices of closed-loop posts to the write system, or
//!                     one open-loop segment with a point reader beside it
//!                     (ingest_*, commit_*, cpu_s_per_mtx)
//!            restart  a clean and a crash restart of the probe system
//!            audit    audits of the probe system, counts checked exactly
//!            point    slices of closed-loop point reads of the probe system
//! finish   tip oracles, clean shutdown, peak RSS, bytes on disk
//! ```
//!
//! Rounds, not phases, because of what the reference host does: its
//! hyperthread siblings belong to other tenants, and while one of them is
//! busy the same instructions take up to 1.7 times as long (README,
//! "Steadiness"). That state flips many times a second and a measurement
//! taken in one stretch of the run inherits whatever the stretch had. Taken
//! in slices spread over the whole run, every metric sees the same mixture,
//! and its quietest slices are the system on an undisturbed core.
//!
//! What differs between workloads is where a round's time goes: the ingest
//! workloads spend it writing, `query_http` reading a history larger than
//! both caches, `mixed_http` reads the very system an open loop writes to.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::proc::{self, ProcSample};
use crate::stats::{quietest, slice_p50s, Quiet, Samples};
use crate::stream::{Rng, Shape, Stream, ARTIFACTS, SMALL, WIDE};
use crate::system::{Env, PointOp, PostTiming, Reads, System, Transport};
use crate::trace::{Span, Tracer};

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "ingest_http",
        "single-organisation capture: small blocks posted closed-loop over one connection, so every node hop and per-block overhead count",
    ),
    (
        "ingest_direct",
        "the same bodies through decode_seq and ingest_blocks in-process: bypasses every node layer, so a node change must not move it",
    ),
    (
        "query_http",
        "auditor and operator view over a long history: point reads of a ledger 20x its block cache and larger than its index cache, between sparse writes, beside restarts and audits",
    ),
    (
        "mixed_http",
        "wide blocks posted open-loop at a fixed rate beside closed-loop point reads: per-tx work dominates and reads contend with the writer",
    ),
];

/// Sizes of one run. The warm history and what one round holds are fixed;
/// the number of rounds scales with `--seconds`.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: &'static str,
    pub transport: Transport,
    pub shape: Shape,
    /// Batches posted during a set-up: the history restarts and audits run
    /// over. Every round sets a probe system up afresh, so set-up is
    /// sampled like everything else and no round inherits what the
    /// restarts of earlier rounds left on disk. Small on purpose: an operation that takes half a second is
    /// hardly ever undisturbed from end to end on the reference host, one
    /// that takes a tenth of a second often is (README, "Steadiness").
    pub warm_batches: usize,
    /// Batches the write system starts from (at least `warm_batches`).
    pub writer_warm_batches: usize,
    /// Point slices read the write system, between its write slices,
    /// instead of the probe system: the one kind of read that is cheap
    /// enough to be measured over a history larger than the caches.
    pub points_on_writer: bool,
    /// Rounds of the measured part.
    pub rounds: usize,
    /// No round starts once the rounds have taken this long: on a host
    /// that runs at half speed for a quarter of an hour a run stops short
    /// (and says so) instead of taking twice its time. At the reference
    /// container's usual speed every round fits with a fifth to spare.
    pub rounds_cap_secs: f64,
    /// Per round: this many write slices of `slice_batches` batches each.
    pub write_slices: usize,
    pub slice_batches: usize,
    /// `Some(rate)`: a round's write slices are one open-loop segment at
    /// `rate` POST/s with one point reader beside it on the same system,
    /// instead of closed-loop posts alone.
    pub open_loop_rate: Option<f64>,
    /// Per round: point slices of `point_slice_ops` reads each over one
    /// connection (two saturate both cores of the reference container and
    /// the rate then follows where the scheduler puts the four threads).
    /// None with an open loop, whose reader supplies the point samples.
    pub point_slices: usize,
    pub point_slice_ops: usize,
    /// Per round: audits, one after the other on one connection. (And one
    /// clean and one crash restart, always.)
    pub audits: usize,
}

impl Plan {
    /// The plan of `workload` for a run measuring `seconds` seconds.
    ///
    /// One round was sized on the 2-core reference container to take about
    /// a second (README, "Sizing"), so `rounds` is about `seconds`.
    pub fn new(workload: &str, seconds: f64, smoke: bool) -> Option<Plan> {
        let name = WORKLOADS.iter().find(|(n, _)| *n == workload)?.0;
        let rounds = |per_second: f64| (per_second * seconds).round().max(2.0) as usize;
        // 2,048 `small` blocks or 256 `wide` ones, 8k txs: a restart is
        // ~60 ms, an audit ~12 ms.
        let warm_batches = 32;
        let ingest = |transport| Plan {
            workload: name,
            transport,
            shape: SMALL,
            warm_batches,
            writer_warm_batches: warm_batches,
            points_on_writer: false,
            rounds: rounds(1.7), // ~0.6 s each
            rounds_cap_secs: 1.25 * seconds,
            write_slices: 2, // ~0.2 s
            slice_batches: 25,
            open_loop_rate: None,
            point_slices: 2,
            // ~6-10 ms a slice over HTTP and in-process alike.
            point_slice_ops: if transport == Transport::Http {
                250
            } else {
                5_000
            },
            audits: 2,
        };
        let mut plan = match name {
            "ingest_http" => ingest(Transport::Http),
            "ingest_direct" => ingest(Transport::Direct),
            "query_http" => Plan {
                workload: name,
                transport: Transport::Http,
                shape: SMALL,
                warm_batches,
                // 20,032 blocks, 80k txs: 20x the 1024-block hot tier and
                // 1.2x the tx-index page cache (64 pages x 1024 entries).
                writer_warm_batches: 313,
                points_on_writer: true,
                rounds: rounds(1.5), // ~0.7 s each
                rounds_cap_secs: 1.25 * seconds,
                write_slices: 2,
                slice_batches: 25,
                open_loop_rate: None,
                point_slices: 4,
                point_slice_ops: 250,
                audits: 2,
            },
            "mixed_http" => Plan {
                workload: name,
                transport: Transport::Http,
                shape: WIDE,
                warm_batches,
                writer_warm_batches: warm_batches,
                points_on_writer: true,
                rounds: rounds(1.45), // ~0.73 s each
                rounds_cap_secs: 1.25 * seconds,
                write_slices: 2, // 0.4 s at 100 POST/s
                slice_batches: 20,
                open_loop_rate: Some(100.0),
                point_slices: 0, // the reader beside the open loop
                point_slice_ops: 250,
                audits: 2,
            },
            _ => unreachable!("WORKLOADS and Plan::new list the same names"),
        };
        if smoke {
            // 8 + 16 batches (1,536 `small` blocks, 6k txs) per system; the
            // same rounds and the same oracle.
            plan.warm_batches = 8;
            plan.writer_warm_batches = if plan.writer_warm_batches > warm_batches {
                12
            } else {
                8
            };
            plan.rounds = 2;
            plan.slice_batches = 4;
            plan.point_slices = plan.point_slices.min(1);
            plan.point_slice_ops = 50;
            plan.audits = 1;
            plan.open_loop_rate = plan.open_loop_rate.map(|r| r * 4.0);
        }
        Some(plan)
    }

    /// Batches the write system takes after the warm history.
    pub fn main_batches(&self) -> usize {
        self.rounds * self.write_slices * self.slice_batches
    }

    /// Batches the stream must hold: what the write system takes in all,
    /// or a probe system's history and the block its crash restart commits
    /// if that is longer (every system starts from the stream's first
    /// batch).
    pub fn stream_batches(&self) -> usize {
        (self.writer_warm_batches + self.main_batches()).max(self.warm_batches + 1)
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Timing sample count behind the value, where there is one.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value,
            unit,
            samples: None,
        }
    }

    pub fn sampled(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name,
            value,
            unit,
            samples: Some(samples),
        }
    }
}

/// Operations attempted and failed (non-2xx, I/O error or oracle mismatch).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One closed-loop write slice or one open-loop segment, as a whole.
#[derive(Debug, Clone, Copy)]
pub struct WriteSlice {
    pub batches: usize,
    pub wall: Duration,
    /// CPU time the system spent meanwhile (the node's threads; in-process,
    /// the harness's own).
    pub cpu_ns: u64,
}

/// What a write phase measured.
#[derive(Default)]
pub struct WriteStats {
    /// Per batch: closed loop, the call; open loop, from its due time.
    pub commit_ns: Vec<u64>,
    pub first_ns: Vec<u64>,
    pub second_ns: Vec<u64>,
    /// Open loop only: how late each send started.
    pub lag_ns: Vec<u64>,
    pub elapsed: Duration,
    pub batches: usize,
    /// The calls to [`write_closed`] or [`write_open`] pooled here, one
    /// entry each, in order.
    pub slices: Vec<WriteSlice>,
    /// System counters consumed by the phase.
    pub used: ProcSample,
    pub tally: Tally,
}

impl WriteStats {
    /// Batches over elapsed time: the pace of a closed loop as a whole, or
    /// an open loop's own schedule unless the system fell behind.
    pub fn batches_per_s(&self) -> f64 {
        self.batches as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Pool another phase over the same system into this one.
    pub fn absorb(&mut self, other: WriteStats) {
        self.commit_ns.extend(other.commit_ns);
        self.first_ns.extend(other.first_ns);
        self.second_ns.extend(other.second_ns);
        self.lag_ns.extend(other.lag_ns);
        self.slices.extend(other.slices);
        self.elapsed += other.elapsed;
        self.batches += other.batches;
        self.used = self.used.plus(&other.used);
        self.tally.add(other.tally);
    }

    /// Close one call's books: it is one slice.
    fn finish(&mut self, sys: &System, before: &ProcSample, t0: Instant) {
        self.elapsed = t0.elapsed();
        self.used = sys.counters().since(before);
        self.slices.push(WriteSlice {
            batches: self.batches,
            wall: self.elapsed,
            cpu_ns: self.used.cpu_ns(),
        });
    }
}

/// What one or more readers measured.
#[derive(Default)]
pub struct ReadStats {
    pub latency_ns: Vec<u64>,
    /// Point reads only: [`PointOp::kind`] of each sample.
    pub kinds: Vec<u8>,
    /// Sum over readers of each reader's operations over its elapsed time.
    pub ops_per_s: f64,
    pub tally: Tally,
    /// Traced runs: summed latency and count of the operations that
    /// recorded spans and of the ones that did not.
    pub traced: (u64, u64),
    pub untraced: (u64, u64),
}

impl ReadStats {
    fn merge(&mut self, other: ReadStats) {
        self.latency_ns.extend(other.latency_ns);
        self.kinds.extend(other.kinds);
        self.ops_per_s += other.ops_per_s;
        self.tally.add(other.tally);
        self.traced = (
            self.traced.0 + other.traced.0,
            self.traced.1 + other.traced.1,
        );
        self.untraced = (
            self.untraced.0 + other.untraced.0,
            self.untraced.1 + other.untraced.1,
        );
    }

    /// Mean latency of traced operations over untraced ones, minus one,
    /// in percent (0 when either side is empty).
    pub fn trace_overhead_pct(&self) -> f64 {
        if self.traced.1 == 0 || self.untraced.1 == 0 {
            return 0.0;
        }
        let traced = self.traced.0 as f64 / self.traced.1 as f64;
        let untraced = self.untraced.0 as f64 / self.untraced.1 as f64;
        (traced / untraced - 1.0) * 100.0
    }
}

/// Post `batches[range]` one after the other, each as soon as the previous
/// is acknowledged. Stops at the first failure: the chain has a gap and
/// nothing after it can commit.
pub fn write_closed(
    sys: &mut System,
    stream: &Stream,
    range: std::ops::Range<usize>,
    tracer: &mut Tracer,
    committed: &AtomicU64,
) -> WriteStats {
    let mut st = WriteStats::default();
    let before = sys.counters();
    let t0 = Instant::now();
    for i in range {
        let batch = &stream.batches[i];
        match sys.post(batch, stream.shape.blocks_per_batch, tracer, i as u64) {
            Ok(PostTiming {
                total,
                first,
                second,
            }) => {
                st.tally.count(true);
                st.commit_ns.push(total.as_nanos() as u64);
                st.first_ns.push(first.as_nanos() as u64);
                st.second_ns.push(second.as_nanos() as u64);
                st.batches += 1;
                committed.store(batch.tip_height, Ordering::Release);
            }
            Err(e) => {
                eprintln!("bench: batch {i} failed: {e}");
                st.tally.count(false);
                break;
            }
        }
    }
    st.finish(sys, &before, t0);
    st
}

/// When batch `i` of an open loop at `rate` per second is due, as an
/// offset from the loop's start.
pub fn due_offset(i: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// Open-loop accounting for one send: given when it was due, when the
/// sender got to it and when its reply arrived (all offsets from the
/// loop's start), how late the generator ran and the latency the client
/// saw — counted from the due time, so a stall is charged to every
/// request it delayed, not only to the one that stalled.
pub fn open_loop_sample(due: Duration, started: Duration, done: Duration) -> (Duration, Duration) {
    (started.saturating_sub(due), done.saturating_sub(due))
}

/// Post `batches[range]` on a fixed schedule of `rate` per second over
/// one connection, whatever the system's pace.
pub fn write_open(
    sys: &mut System,
    stream: &Stream,
    range: std::ops::Range<usize>,
    rate: f64,
    tracer: &mut Tracer,
    committed: &AtomicU64,
) -> WriteStats {
    let mut st = WriteStats::default();
    let before = sys.counters();
    let t0 = Instant::now();
    for (n, i) in range.enumerate() {
        let batch = &stream.batches[i];
        let due = due_offset(n, rate);
        if let Some(ahead) = due.checked_sub(t0.elapsed()) {
            std::thread::sleep(ahead);
        }
        let started = t0.elapsed();
        let posted = sys.post(batch, stream.shape.blocks_per_batch, tracer, i as u64);
        let (lag, latency) = open_loop_sample(due, started, t0.elapsed());
        match posted {
            Ok(PostTiming { first, second, .. }) => {
                st.tally.count(true);
                st.lag_ns.push(lag.as_nanos() as u64);
                st.commit_ns.push(latency.as_nanos() as u64);
                st.first_ns.push(first.as_nanos() as u64);
                st.second_ns.push(second.as_nanos() as u64);
                st.batches += 1;
                committed.store(batch.tip_height, Ordering::Release);
            }
            Err(e) => {
                eprintln!("bench: batch {i} failed: {e}");
                st.tally.count(false);
                break;
            }
        }
    }
    st.finish(sys, &before, t0);
    st
}

/// The point mix: 40% `/tx`, 25% `/block`, 25% `/prove`, 10% `/tip`; half
/// the keys from the newest 512 blocks, half uniform over all committed
/// history.
pub fn next_point_op(rng: &mut Rng, committed_height: u64, txs_per_block: usize) -> PointOp {
    let height = if rng.below(2) == 0 {
        committed_height - rng.below(committed_height.min(512))
    } else {
        1 + rng.below(committed_height)
    };
    let pos = rng.below(txs_per_block as u64) as usize;
    match rng.below(100) {
        0..=39 => PointOp::Tx(height, pos),
        40..=64 => PointOp::Block(height),
        65..=89 => PointOp::Prove(height, pos),
        _ => PointOp::Tip,
    }
}

/// One reader's closed loop of point reads until `stop` says so.
fn point_loop(
    reader: &mut dyn Reads,
    stream: &Stream,
    committed: &AtomicU64,
    stop: &(dyn Fn() -> bool + Sync),
    seed: u64,
    tracer: &mut Tracer,
) -> ReadStats {
    let mut st = ReadStats::default();
    let mut rng = Rng::new(seed);
    let tracing = tracer.is_on();
    let t0 = Instant::now();
    let mut n = 0u64;
    while !stop() {
        let height = committed.load(Ordering::Acquire);
        let op = next_point_op(&mut rng, height, stream.shape.txs_per_block);
        let traced = tracing && n.is_multiple_of(2);
        tracer.set_on(traced);
        let (latency, ok) = reader.point(op, stream, height, tracer, n);
        let ns = latency.as_nanos() as u64;
        st.tally.count(ok);
        st.latency_ns.push(ns);
        st.kinds.push(op.kind() as u8);
        let side = if traced {
            &mut st.traced
        } else {
            &mut st.untraced
        };
        *side = (side.0 + ns, side.1 + 1);
        n += 1;
    }
    tracer.set_on(tracing);
    st.ops_per_s = n as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    st
}

/// One reader's closed loop of audits until `stop`; every count is
/// checked against the exact number of records the first `txs`
/// transactions of the stream give the artifact.
fn audit_loop(
    reader: &mut dyn Reads,
    stream: &Stream,
    txs: u64,
    stop: &(dyn Fn() -> bool + Sync),
    seed: u64,
    tracer: &mut Tracer,
) -> ReadStats {
    let mut st = ReadStats::default();
    let mut rng = Rng::new(seed);
    let t0 = Instant::now();
    let mut n = 0u64;
    while !stop() {
        let a = rng.below(ARTIFACTS as u64) as usize;
        let (latency, ok) = reader.audit(a, stream, stream.artifact_count(a, txs), tracer, n);
        st.tally.count(ok);
        st.latency_ns.push(latency.as_nanos() as u64);
        n += 1;
    }
    st.ops_per_s = n as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    st
}

/// Run `body` on one thread per reader and merge what they measured.
fn on_readers(
    readers: Vec<Box<dyn Reads>>,
    tracers: &mut [Tracer],
    body: &(dyn Fn(&mut dyn Reads, usize, &mut Tracer) -> ReadStats + Sync),
) -> ReadStats {
    let mut merged = ReadStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = readers
            .into_iter()
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(k, (mut reader, tracer))| scope.spawn(move || body(reader.as_mut(), k, tracer)))
            .collect();
        for h in handles {
            merged.merge(h.join().expect("reader thread panicked"));
        }
    });
    merged
}

/// A shareable "stop now?" test that says yes after `ops` askings in total
/// across the readers.
fn after_ops(ops: u64) -> impl Fn() -> bool + Sync {
    let issued = AtomicU64::new(0);
    move || issued.fetch_add(1, Ordering::Relaxed) >= ops
}

/// `ops` closed-loop point reads on `readers` over a static history of
/// `height` blocks.
pub fn point_phase(
    readers: Vec<Box<dyn Reads>>,
    stream: &Stream,
    height: u64,
    ops: u64,
    seed: u64,
    tracers: &mut [Tracer],
) -> ReadStats {
    let committed = AtomicU64::new(height);
    let stop = after_ops(ops);
    on_readers(readers, tracers, &|reader, k, tracer| {
        point_loop(
            reader,
            stream,
            &committed,
            &stop,
            seed ^ ((k as u64 + 1) << 32),
            tracer,
        )
    })
}

/// `ops` closed-loop audits on `readers` over a static history of `txs`
/// transactions.
pub fn audit_phase(
    readers: Vec<Box<dyn Reads>>,
    stream: &Stream,
    txs: u64,
    ops: u64,
    seed: u64,
    tracers: &mut [Tracer],
) -> ReadStats {
    let stop = after_ops(ops);
    on_readers(readers, tracers, &|reader, k, tracer| {
        audit_loop(
            reader,
            stream,
            txs,
            &stop,
            seed ^ ((k as u64 + 1) << 40),
            tracer,
        )
    })
}

/// Everything one run of a workload produced.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Every oracle check passed and nothing failed.
    pub correct: bool,
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
    /// Measurements the per-layer report reuses.
    pub driver: DriverStats,
    /// Per-batch latencies of the measured write phase, in posting order.
    pub commit_ns: Vec<u64>,
    /// The per-slice values each sliced metric was taken from, in run
    /// order, for the result file.
    pub slices: Vec<(&'static str, Vec<f64>)>,
}

/// How the load generator itself behaved during the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverStats {
    /// Harness CPU over harness + system CPU, across the measured phases.
    pub cpu_share: f64,
    /// p99 of how late open-loop sends started (0 without an open loop).
    pub sched_lag_p99_ms: f64,
    pub trace_overhead_pct: f64,
    /// Share of the machine's CPU time the hypervisor ran elsewhere during
    /// the run: above a few percent the timings describe the host as much
    /// as the system.
    pub steal_share: f64,
}

fn ns_to_samples(ns: &[u64]) -> Samples {
    Samples::from_ns(ns.to_vec())
}

/// `ns` scaled to the metric's unit, per value.
fn scaled(ns: Vec<f64>, per_unit: f64) -> Vec<f64> {
    ns.into_iter().map(|v| v / per_unit).collect()
}

/// Bring a system up on an empty directory and post the stream's first
/// `batches` batches. Returns it, what that took and what the posts measured.
fn set_up(
    env: &Env,
    plan: &Plan,
    stream: &Stream,
    batches: usize,
    tracer: &mut Tracer,
) -> Result<(System, f64, WriteStats), String> {
    let (mut sys, ready) = System::bring_up(env, plan.transport)?;
    let w = write_closed(&mut sys, stream, 0..batches, tracer, &AtomicU64::new(0));
    if w.tally.failed > 0 {
        return Err("the warm phase failed; nothing after it can be measured".into());
    }
    Ok((sys, (ready + w.elapsed).as_secs_f64(), w))
}

/// One round's open-loop segment on `sys` with a point reader beside it.
#[allow(clippy::too_many_arguments)]
fn open_segment(
    sys: &mut System,
    stream: &Stream,
    range: std::ops::Range<usize>,
    rate: f64,
    committed: &AtomicU64,
    seed: u64,
    tracer: &mut Tracer,
    reader_tracer: &mut Tracer,
) -> Result<(WriteStats, ReadStats), String> {
    let mut reader = sys.readers(1)?.pop().ok_or("no reader")?;
    let done = AtomicBool::new(false);
    let stop = || done.load(Ordering::Acquire);
    Ok(std::thread::scope(|scope| {
        let h = scope.spawn(|| {
            point_loop(
                reader.as_mut(),
                stream,
                committed,
                &stop,
                seed,
                reader_tracer,
            )
        });
        let w = write_open(sys, stream, range, rate, tracer, committed);
        done.store(true, Ordering::Release);
        (w, h.join().expect("reader thread panicked"))
    }))
}

/// Run `plan` over `stream` and assemble the end-to-end metrics. `tracer`
/// (on or off) records the writer's spans and lends its switch and clock to
/// the reader's tracer.
pub fn run(
    env: &Env,
    plan: &Plan,
    stream: &Stream,
    seed: u64,
    mut tracer: Tracer,
) -> Result<Outcome, String> {
    let mut reader_tracers = [tracer.sibling(1)];
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let mut correct = true;
    let harness_before = proc::sample(0).unwrap_or_default();
    let steal_before = proc::machine_steal();

    // The write system, on its own CPU.
    env.beside_writer();
    let (mut writer, _, warm) = set_up(env, plan, stream, plan.writer_warm_batches, &mut tracer)?;
    tally.add(warm.tally);
    let setups_done = Instant::now();
    let mut write_next = plan.writer_warm_batches;
    let committed = AtomicU64::new(stream.batches[write_next - 1].tip_height);

    // What a probe system holds: the warm history, and after its crash
    // restart one block more.
    let warm_tip = &stream.batches[plan.warm_batches - 1];
    let crash_block = &stream.singles[0];

    let mut setups = Vec::with_capacity(plan.rounds);
    let mut write = WriteStats::default();
    let mut point = ReadStats::default();
    let mut audit = ReadStats::default();
    let mut clean_ms = Vec::new();
    let mut kill_ms = Vec::new();
    let (mut segment_point_us, mut segment_point_ops_per_s) = (Vec::new(), Vec::new());
    let mut probes_used = ProcSample::default();
    let mut probes_rss_mb = 0f64;
    let round_batches = plan.write_slices * plan.slice_batches;
    let mut rounds_run = 0;
    for round in 0..plan.rounds {
        if setups_done.elapsed().as_secs_f64() > plan.rounds_cap_secs {
            notes.push(format!(
                "stopped after {round} of {} rounds, which had taken {:.1} s: the host is slow",
                plan.rounds,
                setups_done.elapsed().as_secs_f64()
            ));
            break;
        }
        rounds_run += 1;
        let round_seed = seed ^ (round as u64) << 48;
        // write
        env.beside_writer();
        match plan.open_loop_rate {
            None => {
                for _ in 0..plan.write_slices {
                    let range = write_next..write_next + plan.slice_batches;
                    write_next = range.end;
                    write.absorb(write_closed(
                        &mut writer,
                        stream,
                        range,
                        &mut tracer,
                        &committed,
                    ));
                }
            }
            Some(rate) => {
                let range = write_next..write_next + round_batches;
                write_next = range.end;
                let (w, p) = open_segment(
                    &mut writer,
                    stream,
                    range,
                    rate,
                    &committed,
                    round_seed,
                    &mut tracer,
                    &mut reader_tracers[0],
                )?;
                write.absorb(w);
                // One point slice per segment: every read taken beside it.
                segment_point_us.push(ns_to_samples(&p.latency_ns).p_us(50.0));
                segment_point_ops_per_s.push(p.ops_per_s);
                point.merge(p);
            }
        }
        if write.tally.failed > 0 {
            // The chain has a gap; nothing after it can commit.
            break;
        }

        // set-up: this round's probe system, on the other CPU.
        env.beside_probe();
        let (mut probe, took, w) = set_up(env, plan, stream, plan.warm_batches, &mut tracer)?;
        tally.add(w.tally);
        setups.push(took);

        // audit and point probes over the warm history. (Before the
        // restarts, so that they fill most of the wait for the node's
        // shutdown poll.)
        audit.merge(audit_phase(
            probe.readers(1)?,
            stream,
            stream.txs_in(plan.warm_batches),
            plan.audits as u64,
            round_seed,
            &mut reader_tracers,
        ));
        if plan.point_slices > 0 {
            let (target, height) = if plan.points_on_writer {
                env.beside_writer();
                (&writer, stream.batches[write_next - 1].tip_height)
            } else {
                (&probe, warm_tip.tip_height)
            };
            point.merge(point_phase(
                target.readers(1)?,
                stream,
                height,
                (plan.point_slices * plan.point_slice_ops) as u64,
                round_seed,
                &mut reader_tracers,
            ));
            env.beside_probe();
        }

        // restart: clean, then crash (which commits one more block first).
        let elapsed = probe.restart_clean(&mut tracer, round as u64)?;
        let ok = probe.tip_is(stream, warm_tip);
        tally.count(ok);
        correct &= ok;
        clean_ms.push(elapsed.as_secs_f64() * 1e3);
        let elapsed = probe.restart_kill(crash_block, 1, &mut tracer, round as u64)?;
        // The acknowledged block must have survived the crash.
        let ok = probe.tip_is(stream, crash_block);
        if !ok {
            notes.push(format!("crash restart {round} lost an acknowledged block"));
        }
        tally.count(ok);
        correct &= ok;
        kill_ms.push(elapsed.as_secs_f64() * 1e3);
        probes_used = probes_used.plus(&probe.counters());
        probes_rss_mb = probes_rss_mb.max(probe.abandon());
    }
    tally.add(write.tally);
    tally.add(audit.tally);
    tally.add(point.tally);
    eprintln!(
        "bench: {rounds_run} rounds took {:.1} s",
        setups_done.elapsed().as_secs_f64()
    );

    // finish: the tip is the stream's, then shut down and measure.
    env.beside_writer();
    let tip_ok = write.tally.failed == 0 && writer.tip_is(stream, &stream.batches[write_next - 1]);
    if !tip_ok {
        notes.push("final tip does not match the generator's".into());
    }
    tally.count(tip_ok);
    correct &= tip_ok;
    let system_used = writer.counters().plus(&probes_used);
    let harness_used = proc::sample(0).unwrap_or_default().since(&harness_before);
    let is_http = plan.transport == Transport::Http;
    let (writer_rss_mb, data_dir) = writer.finish()?;
    let (disk_bytes, _files) =
        proc::dir_usage(data_dir.path()).map_err(|e| format!("data dir: {e}"))?;
    drop(data_dir);
    correct &= tally.failed == 0;

    // Every timing below is taken per slice and reported for the quietest
    // slice of the run (`stats::quietest`): a slice's p50 for latencies,
    // its batches over its wall time for the rate.
    let txs_per_batch = plan.shape.txs_per_batch() as f64;
    let open_loop = plan.open_loop_rate.is_some();
    let slice_tx_per_s: Vec<f64> = write
        .slices
        .iter()
        .map(|s| s.batches as f64 * txs_per_batch / s.wall.as_secs_f64().max(1e-9))
        .collect();
    let slice_cpu_s_per_mtx: Vec<f64> = write
        .slices
        .iter()
        .map(|s| s.cpu_ns as f64 / 1e9 / (s.batches as f64 * txs_per_batch / 1e6).max(1e-9))
        .collect();
    let slice_commit_ms = scaled(slice_p50s(&write.commit_ns, plan.slice_batches), 1e6);
    let (slice_point_us, slice_point_ops_per_s) = if open_loop {
        (segment_point_us, segment_point_ops_per_s)
    } else {
        (
            scaled(slice_p50s(&point.latency_ns, plan.point_slice_ops), 1e3),
            point
                .latency_ns
                .chunks_exact(plan.point_slice_ops.max(1))
                .map(|c| c.len() as f64 * 1e9 / (c.iter().sum::<u64>() as f64).max(1.0))
                .collect(),
        )
    };
    // An audit is a slice of its own: one pass over every transaction.
    let slice_audit_ms = scaled(slice_p50s(&audit.latency_ns, 1), 1e6);

    let commit = ns_to_samples(&write.commit_ns);
    let point_s = ns_to_samples(&point.latency_ns);
    let audit_s = ns_to_samples(&audit.latency_ns);
    let committed_txs = stream.txs_in(write_next) as f64;
    let ingest_tx_per_s = if open_loop {
        // The schedule's own rate unless the system fell behind.
        write.batches_per_s() * txs_per_batch
    } else {
        quietest(&slice_tx_per_s, Quiet::Highest)
    };
    let metrics = vec![
        Metric::sampled(
            "setup_s",
            quietest(&setups, Quiet::Lowest),
            "s",
            setups.len(),
        ),
        Metric::sampled(
            "ingest_tx_per_s",
            ingest_tx_per_s,
            "1/s",
            slice_tx_per_s.len(),
        ),
        Metric::sampled(
            "commit_p50_ms",
            quietest(&slice_commit_ms, Quiet::Lowest),
            "ms",
            slice_commit_ms.len(),
        ),
        Metric::sampled("commit_p99_ms", commit.p_ms(99.0), "ms", commit.len()),
        Metric::sampled(
            "point_ops_per_s",
            quietest(&slice_point_ops_per_s, Quiet::Highest),
            "1/s",
            slice_point_ops_per_s.len(),
        ),
        Metric::sampled(
            "point_p50_us",
            quietest(&slice_point_us, Quiet::Lowest),
            "us",
            slice_point_us.len(),
        ),
        Metric::sampled("point_p99_us", point_s.p_us(99.0), "us", point_s.len()),
        Metric::sampled(
            "audit_p50_ms",
            quietest(&slice_audit_ms, Quiet::Lowest),
            "ms",
            slice_audit_ms.len(),
        ),
        Metric::sampled("audit_p90_ms", audit_s.p_ms(90.0), "ms", audit_s.len()),
        Metric::sampled(
            "restart_clean_ms",
            quietest(&clean_ms, Quiet::Lowest),
            "ms",
            clean_ms.len(),
        ),
        Metric::sampled(
            "restart_kill_ms",
            quietest(&kill_ms, Quiet::Lowest),
            "ms",
            kill_ms.len(),
        ),
        Metric::new("peak_rss_mb", writer_rss_mb.max(probes_rss_mb), "MB"),
        Metric::new("disk_bytes_per_tx", disk_bytes as f64 / committed_txs, "B"),
        Metric::sampled(
            "cpu_s_per_mtx",
            quietest(&slice_cpu_s_per_mtx, Quiet::Lowest),
            "s",
            slice_cpu_s_per_mtx.len(),
        ),
        Metric::new(
            "failed_ops_share",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "share",
        ),
    ];

    // In-process the harness is the system; its share is then everything.
    let total_cpu = if is_http {
        harness_used.cpu_s() + system_used.cpu_s()
    } else {
        harness_used.cpu_s()
    };
    let steal_after = proc::machine_steal();
    let steal_share =
        (steal_after.0 - steal_before.0) as f64 / (steal_after.1 - steal_before.1).max(1) as f64;
    if steal_share > 0.02 {
        notes.push(format!(
            "the hypervisor took {:.1}% of this machine's CPU time away during the run; \
             its timings describe the host as much as the system",
            steal_share * 100.0
        ));
    }
    let driver = DriverStats {
        steal_share,
        cpu_share: harness_used.cpu_s() / total_cpu.max(1e-9),
        sched_lag_p99_ms: ns_to_samples(&write.lag_ns).p_ms(99.0),
        trace_overhead_pct: point.trace_overhead_pct(),
    };
    let mut spans = tracer.into_spans();
    for t in reader_tracers {
        spans.extend(t.into_spans());
    }
    Ok(Outcome {
        metrics,
        tally,
        correct,
        notes,
        spans,
        driver,
        commit_ns: write.commit_ns,
        slices: vec![
            ("setup_s", setups),
            ("ingest_tx_per_s", slice_tx_per_s),
            ("commit_p50_ms", slice_commit_ms),
            ("point_p50_us", slice_point_us),
            ("audit_p50_ms", slice_audit_ms),
            ("restart_clean_ms", clean_ms),
            ("restart_kill_ms", kill_ms),
            ("cpu_s_per_mtx", slice_cpu_s_per_mtx),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let ms = Duration::from_millis;
        // On time: sent when due, 3 ms to the reply.
        assert_eq!(open_loop_sample(ms(100), ms(100), ms(103)), (ms(0), ms(3)));
        // A 40 ms stall before sending is charged to this request: its own
        // service took 3 ms, the client waited 43.
        assert_eq!(
            open_loop_sample(ms(100), ms(140), ms(143)),
            (ms(40), ms(43))
        );
        // Ahead of schedule never goes negative.
        assert_eq!(open_loop_sample(ms(100), ms(99), ms(101)), (ms(0), ms(1)));
    }

    #[test]
    fn open_loop_schedule_is_fixed_by_the_rate_alone() {
        assert_eq!(due_offset(0, 160.0), Duration::ZERO);
        assert_eq!(due_offset(160, 160.0), Duration::from_secs(1));
        assert_eq!(due_offset(4, 160.0), Duration::from_micros(25_000));
    }

    #[test]
    fn point_mix_has_the_stated_shares_and_stays_in_range() {
        let mut rng = Rng::new(5);
        let mut kinds = [0usize; 4];
        let mut recent = 0usize;
        let n = 40_000;
        for _ in 0..n {
            let op = next_point_op(&mut rng, 10_000, 4);
            kinds[op.kind()] += 1;
            let h = match op {
                PointOp::Tx(h, p) | PointOp::Prove(h, p) => {
                    assert!(p < 4);
                    h
                }
                PointOp::Block(h) => h,
                PointOp::Tip => continue,
            };
            assert!((1..=10_000).contains(&h));
            recent += usize::from(h > 10_000 - 512);
        }
        let share = |k: usize| kinds[k] as f64 / n as f64;
        assert!((share(0) - 0.10).abs() < 0.01, "tip {}", share(0));
        assert!((share(1) - 0.40).abs() < 0.01, "tx {}", share(1));
        assert!((share(2) - 0.25).abs() < 0.01, "block {}", share(2));
        assert!((share(3) - 0.25).abs() < 0.01, "prove {}", share(3));
        // Half recent by construction plus the uniform half's 5%.
        let keyed = n - kinds[0];
        assert!((recent as f64 / keyed as f64 - 0.5256).abs() < 0.02);
        // A one-block history is still addressable.
        assert!(matches!(
            next_point_op(&mut Rng::new(1), 1, 4),
            PointOp::Tip | PointOp::Tx(1, _) | PointOp::Block(1) | PointOp::Prove(1, _)
        ));
    }

    #[test]
    fn plans_cover_every_workload_and_scale_with_seconds() {
        for (name, _) in WORKLOADS {
            let p = Plan::new(name, 20.0, false).expect(name);
            let half = Plan::new(name, 10.0, false).unwrap();
            assert_eq!(p.warm_batches, half.warm_batches, "history does not scale");
            assert_eq!(p.write_slices, half.write_slices, "a round does not scale");
            assert!(p.rounds > half.rounds);
            assert!(p.stream_batches() >= p.warm_batches + p.rounds);
            // Point samples come from the probe slices or from the reader
            // beside the open loop, never from neither.
            assert_ne!(p.point_slices == 0, p.open_loop_rate.is_none());
            let smoke = Plan::new(name, 20.0, true).unwrap();
            let blocks = smoke.stream_batches() * smoke.shape.blocks_per_batch;
            assert!(blocks <= 2_200, "{name} smoke is {blocks} blocks");
        }
        assert!(Plan::new("nope", 20.0, false).is_none());
    }
}
