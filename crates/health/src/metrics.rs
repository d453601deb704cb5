//! Service-health instrumentation for the node tier: lock-free counters,
//! gauges and latency histograms behind a [`NodeMetrics`] registry.
//!
//! The EHR domain in this crate models *data* health; this module models
//! *system* health — the operational telemetry `blockprov-node` serves on
//! `GET /metrics` and summarizes on `GET /healthz`. Everything here is
//! `Send + Sync` and updates through relaxed atomics, so request handler
//! threads, the ingest writer thread and the metrics scraper never contend
//! on a lock. Rendering is a Prometheus-style text exposition
//! ([`NodeMetrics::render`]): one `# TYPE` line per family, `_total`
//! suffixes on counters, and pre-aggregated `p50`/`p90`/`p99` gauges for
//! each histogram (the vendored stack has no scraping server to do
//! quantile math downstream).
//!
//! Histograms use fixed power-of-two nanosecond buckets, so recording is
//! one `leading_zeros` plus one atomic increment, and quantile estimates
//! are exact to within a 2x bucket width at every scale from sub-µs cache
//! hits to multi-second stalls.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (queue depths, cache sizes).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Self(AtomicI64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Overwrite with `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count: bucket `i` holds samples in `[2^i, 2^(i+1))` nanoseconds,
/// except the last which absorbs everything above (≈ 34 s and beyond).
const HIST_BUCKETS: usize = 36;

/// A fixed-bucket latency histogram over power-of-two nanosecond spans.
///
/// Recording is wait-free (one atomic add); quantiles interpolate inside
/// the chosen bucket, so they are monotone and bounded by the true value's
/// bucket edges. Good enough for operational p50/p99 at nanosecond-to-
/// second scales without per-sample storage.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    fn bucket_for(ns: u64) -> usize {
        // floor(log2(ns)) clamped to the table; 0 ns lands in bucket 0.
        let idx = 63 - ns.max(1).leading_zeros() as usize;
        idx.min(HIST_BUCKETS - 1)
    }

    /// Record one duration.
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one sample in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[Self::bucket_for(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (ns).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Mean sample (ns); 0 when empty.
    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_ns() as f64 / n as f64
    }

    /// Estimated `q`-quantile (ns) by linear interpolation inside the
    /// containing bucket; 0 when empty. `q` is clamped to `[0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let lo = 1u64 << i;
                let hi = if i + 1 >= 64 { u64::MAX } else { 1u64 << (i + 1) };
                let into = (target - seen) as f64 / n as f64;
                return lo + ((hi - lo) as f64 * into) as u64;
            }
            seen += n;
        }
        u64::MAX
    }
}

/// The full metrics registry the node serves on `GET /metrics`.
///
/// Shared as one `Arc<NodeMetrics>` across every request-handler thread and
/// the ingest writer thread; all fields update independently through
/// relaxed atomics.
#[derive(Debug, Default)]
pub struct NodeMetrics {
    /// Every HTTP request accepted for processing (any endpoint).
    pub http_requests: Counter,
    /// Requests that produced a 404 (unknown route or absent entity).
    pub http_not_found: Counter,
    /// Requests rejected as malformed (400).
    pub http_bad_request: Counter,

    /// `POST /blocks` batches committed end-to-end.
    pub ingest_batches: Counter,
    /// Blocks appended through the ingest queue.
    pub ingest_blocks: Counter,
    /// Transactions inside appended blocks.
    pub ingest_txs: Counter,
    /// Batches bounced with `429 Retry-After` because the queue was full.
    pub ingest_backpressure: Counter,
    /// Batches rejected by chain validation (the request got a 409).
    pub ingest_invalid: Counter,
    /// Batches refused because the node was draining for shutdown (503).
    pub ingest_shutdown: Counter,

    /// `GET /tip` requests served.
    pub query_tip: Counter,
    /// `GET /block/{height}` requests served.
    pub query_block: Counter,
    /// `GET /tx/{id}` requests served.
    pub query_tx: Counter,
    /// `GET /provenance/{artifact}` requests served.
    pub query_provenance: Counter,
    /// `GET /prove/{tx}` requests served.
    pub query_prove: Counter,
    /// Subject-postings entries `/provenance` audits resolved against
    /// their view (attempts).
    pub provenance_candidates: Counter,
    /// Records those audits returned (useful outcomes). Equal to the
    /// candidates on a fork-free ledger.
    pub provenance_matches: Counter,

    /// Ingest batches currently queued between handlers and the writer.
    pub queue_depth: Gauge,
    /// Hot-tier block-cache hits observed by reader handles (sampled).
    pub reader_cache_hits: Gauge,
    /// Hot-tier block-cache misses observed by reader handles (sampled).
    pub reader_cache_misses: Gauge,
    /// Subject-postings entries the ledger holds for audits (sampled).
    pub provenance_postings: Gauge,
    /// Microseconds the open spent on the tiers and the chain replay (set
    /// once at startup).
    pub open_replay_us: Gauge,
    /// Microseconds the open spent rebuilding the subject postings (set
    /// once at startup).
    pub open_postings_us: Gauge,

    /// End-to-end `POST /blocks` latency (enqueue → committed reply).
    pub ingest_latency: Histogram,
    /// Read-endpoint latency (view pin → response body built).
    pub query_latency: Histogram,
}

impl NodeMetrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum of all query-endpoint counters.
    pub fn queries_total(&self) -> u64 {
        self.query_tip.get()
            + self.query_block.get()
            + self.query_tx.get()
            + self.query_provenance.get()
            + self.query_prove.get()
    }

    /// Render the Prometheus-style text exposition.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        counter(
            "node_http_requests_total",
            "HTTP requests accepted",
            self.http_requests.get(),
        );
        counter(
            "node_http_not_found_total",
            "404 responses",
            self.http_not_found.get(),
        );
        counter(
            "node_http_bad_request_total",
            "400 responses",
            self.http_bad_request.get(),
        );
        counter(
            "node_ingest_batches_total",
            "block batches committed",
            self.ingest_batches.get(),
        );
        counter(
            "node_ingest_blocks_total",
            "blocks appended",
            self.ingest_blocks.get(),
        );
        counter(
            "node_ingest_txs_total",
            "transactions appended",
            self.ingest_txs.get(),
        );
        counter(
            "node_ingest_backpressure_total",
            "batches bounced 429 (queue full)",
            self.ingest_backpressure.get(),
        );
        counter(
            "node_ingest_invalid_total",
            "batches rejected by validation",
            self.ingest_invalid.get(),
        );
        counter(
            "node_ingest_shutdown_total",
            "batches refused while draining",
            self.ingest_shutdown.get(),
        );
        counter("node_query_tip_total", "GET /tip served", self.query_tip.get());
        counter(
            "node_query_block_total",
            "GET /block served",
            self.query_block.get(),
        );
        counter("node_query_tx_total", "GET /tx served", self.query_tx.get());
        counter(
            "node_query_provenance_total",
            "GET /provenance served",
            self.query_provenance.get(),
        );
        counter(
            "node_query_prove_total",
            "GET /prove served",
            self.query_prove.get(),
        );
        counter(
            "node_provenance_candidates_total",
            "postings entries resolved by /provenance audits",
            self.provenance_candidates.get(),
        );
        counter(
            "node_provenance_matches_total",
            "records returned by /provenance audits",
            self.provenance_matches.get(),
        );

        let mut gauge = |name: &str, help: &str, v: i64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        };
        gauge(
            "node_ingest_queue_depth",
            "batches waiting for the writer thread",
            self.queue_depth.get(),
        );
        gauge(
            "node_reader_cache_hits",
            "hot-tier block cache hits (all handles)",
            self.reader_cache_hits.get(),
        );
        gauge(
            "node_reader_cache_misses",
            "hot-tier block cache misses (all handles)",
            self.reader_cache_misses.get(),
        );
        gauge(
            "node_provenance_postings",
            "subject-postings entries held for audits",
            self.provenance_postings.get(),
        );
        gauge(
            "node_open_replay_us",
            "startup: tiers opened and chain replayed (us)",
            self.open_replay_us.get(),
        );
        gauge(
            "node_open_postings_us",
            "startup: subject postings rebuilt (us)",
            self.open_postings_us.get(),
        );

        let mut histogram = |name: &str, help: &str, h: &Histogram| {
            out.push_str(&format!("# HELP {name}_ns {help}\n# TYPE {name}_ns summary\n"));
            out.push_str(&format!("{name}_ns_count {}\n", h.count()));
            out.push_str(&format!("{name}_ns_sum {}\n", h.sum_ns()));
            for (label, q) in [("0.5", 0.50), ("0.9", 0.90), ("0.99", 0.99)] {
                out.push_str(&format!(
                    "{name}_ns{{quantile=\"{label}\"}} {}\n",
                    h.quantile_ns(q)
                ));
            }
        };
        histogram(
            "node_ingest_latency",
            "POST /blocks end-to-end latency",
            &self.ingest_latency,
        );
        histogram(
            "node_query_latency",
            "read endpoint latency",
            &self.query_latency,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_and_gauges_move() {
        let m = NodeMetrics::new();
        m.http_requests.inc();
        m.ingest_blocks.add(256);
        m.queue_depth.inc();
        m.queue_depth.inc();
        m.queue_depth.dec();
        assert_eq!(m.http_requests.get(), 1);
        assert_eq!(m.ingest_blocks.get(), 256);
        assert_eq!(m.queue_depth.get(), 1);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record_ns(1_000); // ~1 µs
        }
        for _ in 0..10 {
            h.record_ns(1_000_000); // ~1 ms
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ns(0.50);
        assert!((512..=2048).contains(&p50), "p50 {p50} outside 1 µs bucket");
        let p99 = h.quantile_ns(0.99);
        assert!(
            (524_288..=2_097_152).contains(&p99),
            "p99 {p99} outside 1 ms bucket"
        );
        // Sub-bucket quantiles are monotone.
        assert!(h.quantile_ns(0.1) <= h.quantile_ns(0.5));
        assert!(h.quantile_ns(0.5) <= h.quantile_ns(0.999));
    }

    #[test]
    fn histogram_empty_and_extremes() {
        let h = Histogram::new();
        assert_eq!(h.quantile_ns(0.99), 0);
        assert_eq!(h.mean_ns(), 0.0);
        h.record_ns(0);
        h.record_ns(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile_ns(1.0) > 0);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let m = Arc::new(NodeMetrics::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        m.ingest_blocks.inc();
                        m.query_latency.record_ns(i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.ingest_blocks.get(), 4_000);
        assert_eq!(m.query_latency.count(), 4_000);
    }

    #[test]
    fn render_exposition_shape() {
        let m = NodeMetrics::new();
        m.ingest_backpressure.add(3);
        m.ingest_latency.record(Duration::from_micros(5));
        let text = m.render();
        assert!(text.contains("node_ingest_backpressure_total 3"));
        assert!(text.contains("# TYPE node_ingest_queue_depth gauge"));
        assert!(text.contains("node_ingest_latency_ns_count 1"));
        assert!(text.contains("quantile=\"0.99\""));
    }

    #[test]
    fn queries_total_sums_endpoints() {
        let m = NodeMetrics::new();
        m.query_tip.inc();
        m.query_prove.add(2);
        assert_eq!(m.queries_total(), 3);
    }
}
