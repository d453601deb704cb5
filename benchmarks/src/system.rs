//! The running system as a workload sees it: something batches are posted
//! to, read from, restarted and finally shut down — either a
//! `blockprov-node` process over HTTP or the same ledger in-process.
//!
//! Every answer is checked against the stream's oracle here, so a phase
//! only counts operations and collects latencies.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::http::{json_bool, json_str, json_u64, Conn};
use crate::proc::{self, NodeProc, ProcSample, TempDir};
use crate::stream::{Batch, Stream};
use crate::sut::{self, DirectLedger, DirectReader};
use crate::trace::{Tracer, NO_SPAN};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Http,
    Direct,
}

/// Where binaries and scratch data live for one harness invocation.
#[derive(Debug, Clone)]
pub struct Env {
    pub node_bin: PathBuf,
    /// Parent of every data directory the run creates (inside the
    /// checkout; each one is removed when its owner drops).
    pub tmp_root: PathBuf,
    /// The logical CPU the probe system runs on and the one the write
    /// system runs on, the harness beside whichever it is talking to
    /// (`None`: the kernel refused the pin).
    pub pinned_cpus: Option<(usize, usize)>,
}

impl Env {
    /// From here on the calling thread talks to (or starts) the probe
    /// system.
    pub fn beside_probe(&self) {
        if let Some((cpu, _)) = self.pinned_cpus {
            proc::move_to(cpu);
        }
    }

    /// From here on the calling thread talks to (or starts) the write
    /// system.
    pub fn beside_writer(&self) {
        if let Some((_, cpu)) = self.pinned_cpus {
            proc::move_to(cpu);
        }
    }
}

/// A point read and the key it addresses.
#[derive(Debug, Clone, Copy)]
pub enum PointOp {
    Tip,
    /// Transaction at `(height, position)`.
    Tx(u64, usize),
    Block(u64),
    Prove(u64, usize),
}

impl PointOp {
    pub fn span_name(&self) -> &'static str {
        match self {
            PointOp::Tip => "op.tip",
            PointOp::Tx(..) => "op.tx",
            PointOp::Block(..) => "op.block",
            PointOp::Prove(..) => "op.prove",
        }
    }

    /// Index into per-kind tables.
    pub fn kind(&self) -> usize {
        match self {
            PointOp::Tip => 0,
            PointOp::Tx(..) => 1,
            PointOp::Block(..) => 2,
            PointOp::Prove(..) => 3,
        }
    }
}

/// How one batch post spent its time. Over HTTP `first` is writing the
/// request and `second` waiting for the reply; in-process they are
/// `decode_seq` and `ingest_blocks`.
#[derive(Debug, Clone, Copy)]
pub struct PostTiming {
    pub total: Duration,
    pub first: Duration,
    pub second: Duration,
}

/// One read handle; each load-generator thread owns one.
pub trait Reads: Send {
    /// Run `op`, check the answer against the oracle (`floor` = lowest tip
    /// height a correct system may report), return latency and verdict.
    fn point(
        &mut self,
        op: PointOp,
        stream: &Stream,
        floor: u64,
        tracer: &mut Tracer,
        req: u64,
    ) -> (Duration, bool);

    /// Audit artifact index `a`, expecting exactly `expect` records.
    fn audit(
        &mut self,
        a: usize,
        stream: &Stream,
        expect: u64,
        tracer: &mut Tracer,
        req: u64,
    ) -> (Duration, bool);
}

/// The tip a correct system may report: at or above `floor`, and the
/// stream's own block at that height.
fn tip_ok(stream: &Stream, floor: u64, height: u64, hash_hex: &str) -> bool {
    height >= floor
        && height >= 1
        && height <= stream.blocks()
        && hash_hex == sut::hex(stream.block_hash(height))
}

struct HttpReads(Conn);

impl Reads for HttpReads {
    fn point(
        &mut self,
        op: PointOp,
        stream: &Stream,
        floor: u64,
        tracer: &mut Tracer,
        req: u64,
    ) -> (Duration, bool) {
        let path = match op {
            PointOp::Tip => "/tip".to_string(),
            PointOp::Tx(h, pos) => format!("/tx/{}", sut::hex(stream.tx_id(h, pos))),
            PointOp::Block(h) => format!("/block/{h}"),
            PointOp::Prove(h, pos) => format!("/prove/{}", sut::hex(stream.tx_id(h, pos))),
        };
        let t0 = Instant::now();
        let root = tracer.begin(op.span_name(), NO_SPAN, req);
        let reply = self.0.get(tracer, root, req, &path);
        tracer.end(root);
        let elapsed = t0.elapsed();
        let Ok(reply) = reply else {
            return (elapsed, false);
        };
        let body = reply.body.as_str();
        let ok = reply.status == 200
            && match op {
                PointOp::Tip => match (json_u64(body, "height"), json_str(body, "hash")) {
                    (Some(h), Some(hash)) => tip_ok(stream, floor, h, hash),
                    _ => false,
                },
                PointOp::Tx(h, pos) => {
                    json_u64(body, "block_height") == Some(h)
                        && json_u64(body, "position") == Some(pos as u64)
                }
                PointOp::Block(h) => {
                    json_str(body, "hash") == Some(sut::hex(stream.block_hash(h)).as_str())
                }
                PointOp::Prove(_, pos) => {
                    json_bool(body, "verified") == Some(true)
                        && json_u64(body, "leaf_index") == Some(pos as u64)
                }
            };
        (elapsed, ok)
    }

    fn audit(
        &mut self,
        a: usize,
        stream: &Stream,
        expect: u64,
        tracer: &mut Tracer,
        req: u64,
    ) -> (Duration, bool) {
        let path = format!("/provenance/{}", stream.artifact(a));
        let t0 = Instant::now();
        let root = tracer.begin("op.audit", NO_SPAN, req);
        let reply = self.0.get(tracer, root, req, &path);
        tracer.end(root);
        let elapsed = t0.elapsed();
        let ok = matches!(&reply, Ok(r) if r.status == 200 && json_u64(&r.body, "count") == Some(expect));
        (elapsed, ok)
    }
}

struct DirectReads(DirectReader);

impl Reads for DirectReads {
    fn point(
        &mut self,
        op: PointOp,
        stream: &Stream,
        floor: u64,
        tracer: &mut Tracer,
        req: u64,
    ) -> (Duration, bool) {
        let t0 = Instant::now();
        let root = tracer.begin(op.span_name(), NO_SPAN, req);
        let ok = match op {
            PointOp::Tip => {
                let (h, hash) = self.0.tip();
                tip_ok(stream, floor, h, &sut::hex(&hash))
            }
            PointOp::Tx(h, pos) => self.0.tx(stream.tx_id(h, pos)) == Some((h, pos as u32)),
            PointOp::Block(h) => self.0.block(h).as_ref() == Some(stream.block_hash(h)),
            PointOp::Prove(h, pos) => {
                self.0.prove(stream.tx_id(h, pos)) == Some((true, pos as u64))
            }
        };
        tracer.end(root);
        (t0.elapsed(), ok)
    }

    fn audit(
        &mut self,
        a: usize,
        stream: &Stream,
        expect: u64,
        tracer: &mut Tracer,
        req: u64,
    ) -> (Duration, bool) {
        let name = stream.artifact(a);
        let t0 = Instant::now();
        let root = tracer.begin("op.audit", NO_SPAN, req);
        let count = self.0.audit(&name);
        tracer.end(root);
        (t0.elapsed(), count as u64 == expect)
    }
}

// One `System` exists per run; boxing the node handle would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Backend {
    /// The node and the harness's own connection to it (posts, `/tip`,
    /// `/metrics`); `None` while the node is down between a stop and a start.
    Http(Option<(NodeProc, Conn)>),
    Direct(Option<DirectLedger>),
}

/// The system under test plus what the harness accumulates about it across
/// restarts: the highest peak RSS of any of its processes and the CPU time
/// of the ones already gone.
pub struct System {
    env: Env,
    dir: TempDir,
    backend: Backend,
    peak_rss_mb: f64,
    dead_cpu: ProcSample,
    /// Spawn → listening line of the most recent node start.
    pub last_spawn_to_listen: Duration,
}

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Spawn a node over `dir`, connect, and wait for its first `200 /tip`.
fn start_node(env: &Env, dir: &Path) -> io::Result<(NodeProc, Conn, Duration)> {
    let (node, spawn_to_listen) = NodeProc::spawn(&env.node_bin, dir)?;
    let mut conn = Conn::open(node.addr())?;
    let reply = conn.get(&mut Tracer::off(), NO_SPAN, 0, "/tip")?;
    if reply.status != 200 {
        return Err(io::Error::other(format!(
            "first GET /tip answered {}",
            reply.status
        )));
    }
    Ok((node, conn, spawn_to_listen))
}

impl System {
    /// Bring the system up over a fresh, empty data directory. Returns it
    /// and the time from nothing to ready for its first operation (the
    /// node's first `200 /tip`, or the in-process open returning).
    pub fn bring_up(env: &Env, transport: Transport) -> Result<(System, Duration), String> {
        let dir = TempDir::new(&env.tmp_root, "data").map_err(|e| io_err("temp dir", e))?;
        Self::over(env, dir, transport)
    }

    /// Bring the system up over `dir` as it is (empty, or left by a
    /// cleanly stopped system of either transport).
    pub fn over(
        env: &Env,
        dir: TempDir,
        transport: Transport,
    ) -> Result<(System, Duration), String> {
        let t0 = Instant::now();
        let mut last_spawn_to_listen = Duration::ZERO;
        let backend = match transport {
            Transport::Http => {
                let (node, conn, s2l) =
                    start_node(env, dir.path()).map_err(|e| io_err("node start", e))?;
                last_spawn_to_listen = s2l;
                Backend::Http(Some((node, conn)))
            }
            Transport::Direct => Backend::Direct(Some(
                DirectLedger::open(dir.path()).map_err(|e| io_err("ledger open", e))?,
            )),
        };
        let ready = t0.elapsed();
        Ok((
            System {
                env: env.clone(),
                dir,
                backend,
                peak_rss_mb: 0.0,
                dead_cpu: ProcSample::default(),
                last_spawn_to_listen,
            },
            ready,
        ))
    }

    pub fn transport(&self) -> Transport {
        match self.backend {
            Backend::Http(_) => Transport::Http,
            Backend::Direct(_) => Transport::Direct,
        }
    }

    /// Pid whose `/proc` counters describe the system: the node, or this
    /// process (`0`) when the ledger runs in-process.
    fn pid(&self) -> u32 {
        match &self.backend {
            Backend::Http(up) => up.as_ref().map_or(0, |(node, _)| node.pid()),
            Backend::Direct(_) => 0,
        }
    }

    /// Counters of the system since it first came up, across restarts.
    pub fn counters(&self) -> ProcSample {
        let live = proc::sample(self.pid()).unwrap_or_default();
        match self.backend {
            Backend::Http(_) => live.plus(&self.dead_cpu),
            Backend::Direct(_) => live,
        }
    }

    /// Fold the live process's peak RSS (and, before it dies, its
    /// counters) into the running totals.
    fn note_process(&mut self, dying: bool) {
        if let Ok(mb) = proc::peak_rss_mb(self.pid()) {
            self.peak_rss_mb = self.peak_rss_mb.max(mb);
        }
        if dying && self.transport() == Transport::Http {
            self.dead_cpu = self.counters();
        }
    }

    /// Post one batch and check the acknowledgement: `200` with the
    /// batch's own tip height (HTTP), or every block committed (direct).
    pub fn post(
        &mut self,
        batch: &Batch,
        blocks: usize,
        tracer: &mut Tracer,
        req: u64,
    ) -> Result<PostTiming, String> {
        match &mut self.backend {
            Backend::Http(up) => {
                let (_, conn) = up.as_mut().ok_or("node is down")?;
                let t0 = Instant::now();
                let root = tracer.begin("op.post", NO_SPAN, req);
                let reply = conn.request(tracer, root, req, "POST", "/blocks", &batch.body);
                tracer.end(root);
                let total = t0.elapsed();
                let reply = reply.map_err(|e| io_err("POST /blocks", e))?;
                if reply.status != 200 {
                    return Err(format!(
                        "POST /blocks answered {}: {}",
                        reply.status, reply.body
                    ));
                }
                if json_u64(&reply.body, "committed") != Some(blocks as u64)
                    || json_u64(&reply.body, "height") != Some(batch.tip_height)
                {
                    return Err(format!(
                        "ack {} does not match the batch (tip {})",
                        reply.body, batch.tip_height
                    ));
                }
                Ok(PostTiming {
                    total,
                    first: reply.send,
                    second: reply.wait,
                })
            }
            Backend::Direct(ledger) => {
                let ledger = ledger.as_mut().ok_or("ledger is closed")?;
                let t0 = Instant::now();
                let root = tracer.begin("op.post", NO_SPAN, req);
                let decoded =
                    tracer.span("sut.decode", root, req, || sut::decode_batch(&batch.body));
                let t1 = Instant::now();
                let committed =
                    decoded.and_then(|b| tracer.span("sut.ingest", root, req, || ledger.ingest(b)));
                tracer.end(root);
                let total = t0.elapsed();
                match committed {
                    Ok(n) if n == blocks => Ok(PostTiming {
                        total,
                        first: t1 - t0,
                        second: total - (t1 - t0),
                    }),
                    Ok(n) => Err(format!("committed {n} of {blocks} blocks")),
                    Err(e) => Err(e),
                }
            }
        }
    }

    /// `n` independent read handles (connections, or reader clones).
    pub fn readers(&self, n: usize) -> Result<Vec<Box<dyn Reads>>, String> {
        (0..n)
            .map(|_| -> Result<Box<dyn Reads>, String> {
                match &self.backend {
                    Backend::Http(up) => {
                        let addr = up.as_ref().ok_or("node is down")?.0.addr();
                        Ok(Box::new(HttpReads(
                            Conn::open(addr).map_err(|e| io_err("connect", e))?,
                        )))
                    }
                    Backend::Direct(ledger) => Ok(Box::new(DirectReads(
                        ledger.as_ref().ok_or("ledger is closed")?.reader(),
                    ))),
                }
            })
            .collect()
    }

    /// Fetch and parse the node's `/metrics` page (HTTP only).
    pub fn metrics_page(&mut self) -> Option<std::collections::BTreeMap<String, f64>> {
        match &mut self.backend {
            Backend::Http(up) => {
                let (_, conn) = up.as_mut()?;
                let reply = conn.get(&mut Tracer::off(), NO_SPAN, 0, "/metrics").ok()?;
                (reply.status == 200).then(|| crate::http::parse_metrics(&reply.body))
            }
            Backend::Direct(_) => None,
        }
    }

    /// Hot block-cache `(hits, misses)` from the node's `/metrics` gauges
    /// (zeros in-process, where nothing reports them).
    pub fn hot_stats(&mut self) -> (u64, u64) {
        let page = self.metrics_page().unwrap_or_default();
        let g = |k: &str| page.get(k).copied().unwrap_or(0.0) as u64;
        (g("node_reader_cache_hits"), g("node_reader_cache_misses"))
    }

    /// Time `n` snapshot pins on an in-process reader (zero over HTTP,
    /// where no handle is reachable).
    pub fn time_views(&self, n: usize) -> Duration {
        let Backend::Direct(Some(ledger)) = &self.backend else {
            return Duration::ZERO;
        };
        let reader = ledger.reader();
        let t0 = Instant::now();
        for _ in 0..n {
            reader.view();
        }
        t0.elapsed()
    }

    /// Shut the system down cleanly and leave it down: SIGTERM and wait
    /// (the node drains and writes its snapshot), or sync and drop.
    fn stop_clean(&mut self) -> Result<(), String> {
        self.note_process(true);
        match &mut self.backend {
            Backend::Http(up) => match up.take() {
                Some((node, _)) => node.terminate().map_err(|e| io_err("SIGTERM", e)),
                None => Ok(()),
            },
            Backend::Direct(ledger) => match ledger.take() {
                Some(mut l) => l.sync().map_err(|e| io_err("sync", e)),
                None => Ok(()),
            },
        }
    }

    /// Start over the existing data directory; ready when the first
    /// `200 /tip` arrives (HTTP) or the open returns (direct).
    fn start_again(&mut self) -> Result<(), String> {
        match &mut self.backend {
            Backend::Http(up) => {
                let (node, conn, s2l) = start_node(&self.env, self.dir.path())
                    .map_err(|e| io_err("node restart", e))?;
                self.last_spawn_to_listen = s2l;
                *up = Some((node, conn));
            }
            Backend::Direct(ledger) => {
                *ledger = Some(
                    DirectLedger::open(self.dir.path()).map_err(|e| io_err("ledger reopen", e))?,
                );
            }
        }
        Ok(())
    }

    /// Whether the tip is exactly the one `batch` left behind.
    pub fn tip_is(&mut self, stream: &Stream, batch: &Batch) -> bool {
        let (height, hash) = match &mut self.backend {
            Backend::Http(up) => {
                let Some(Ok(reply)) = up
                    .as_mut()
                    .map(|(_, c)| c.get(&mut Tracer::off(), NO_SPAN, 0, "/tip"))
                else {
                    return false;
                };
                let (Some(h), Some(hash)) = (
                    json_u64(&reply.body, "height"),
                    json_str(&reply.body, "hash"),
                ) else {
                    return false;
                };
                (h, hash.to_string())
            }
            Backend::Direct(ledger) => {
                let Some(l) = ledger.as_ref() else {
                    return false;
                };
                let (h, hash) = l.reader().tip();
                (h, sut::hex(&hash))
            }
        };
        height == batch.tip_height
            && hash == sut::hex(&batch.tip_hash)
            && tip_ok(stream, height, height, &hash)
    }

    /// Clean restart: from the shutdown request to ready again. The request
    /// is sent shortly before the node's next shutdown poll
    /// ([`NodeProc::until_shutdown_poll`]).
    pub fn restart_clean(&mut self, tracer: &mut Tracer, req: u64) -> Result<Duration, String> {
        if let Backend::Http(Some((node, _))) = &self.backend {
            std::thread::sleep(node.until_shutdown_poll());
        }
        let t0 = Instant::now();
        let root = tracer.begin("op.restart_clean", NO_SPAN, req);
        let stopped = tracer.span("sys.stop", root, req, || self.stop_clean());
        let started =
            stopped.and_then(|()| tracer.span("sys.start", root, req, || self.start_again()));
        tracer.end(root);
        started.map(|()| t0.elapsed())
    }

    /// Crash restart: commit `batch`, lose the process right after its
    /// acknowledgement with no shutdown work at all, and time from the
    /// crash to ready again. Over HTTP that is a SIGKILL; in-process the
    /// data directory is copied at the acknowledgement (exactly the bytes a
    /// killed process leaves in the OS cache: flushed, not fsynced) and the
    /// copy is opened.
    pub fn restart_kill(
        &mut self,
        batch: &Batch,
        blocks: usize,
        tracer: &mut Tracer,
        req: u64,
    ) -> Result<Duration, String> {
        self.post(batch, blocks, &mut Tracer::off(), req)?;
        self.note_process(true);
        let root = tracer.begin("op.restart_kill", NO_SPAN, req);
        let elapsed = match &mut self.backend {
            Backend::Http(up) => {
                let t0 = Instant::now();
                if let Some((node, _)) = up.take() {
                    tracer.span("sys.kill", root, req, || node.kill());
                }
                tracer.span("sys.start", root, req, || self.start_again())?;
                t0.elapsed()
            }
            Backend::Direct(ledger) => {
                let image =
                    TempDir::new(&self.env.tmp_root, "crash").map_err(|e| io_err("temp dir", e))?;
                proc::copy_tree(self.dir.path(), image.path())
                    .map_err(|e| io_err("crash image", e))?;
                // The pre-crash instance is discarded; its own shutdown
                // work lands in the old directory and is never read.
                drop(ledger.take());
                self.dir = image;
                let t0 = Instant::now();
                tracer.span("sys.start", root, req, || self.start_again())?;
                t0.elapsed()
            }
        };
        tracer.end(root);
        Ok(elapsed)
    }

    /// Throw the system away without any shutdown work (the node is
    /// SIGKILLed by its guard, the directory removed by its own). Returns
    /// the peak RSS over every process it ran as.
    pub fn abandon(mut self) -> f64 {
        self.note_process(false);
        self.peak_rss_mb
    }

    /// Final clean shutdown. Returns the peak RSS over every process the
    /// system ran as (in-process: of this process, which holds the ledger)
    /// and the data directory it leaves, kept alive for the caller to
    /// measure.
    pub fn finish(mut self) -> Result<(f64, TempDir), String> {
        self.stop_clean()?;
        Ok((self.peak_rss_mb, self.dir))
    }
}
