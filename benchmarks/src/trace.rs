//! In-memory spans around every harness→layer call and HTTP request phase.
//!
//! Each load-generator thread owns one [`Tracer`]; nothing is shared while
//! the run is timed. When tracing is off every call is a branch on one
//! bool. When the run ends the tracers are merged and written as one JSON
//! file with a per-name summary (count, total time, self time).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// Identifies a span across all tracers of a run; 0 = no span.
pub type SpanId = u64;
pub const NO_SPAN: SpanId = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    /// The span that caused this one ([`NO_SPAN`] for a root).
    pub parent: SpanId,
    /// Request id: all spans of one operation share it.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// High bits of every id this tracer hands out.
    thread: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false, Instant::now(), 0)
    }

    /// `thread` must be unique per tracer of one run (ids embed it);
    /// `epoch` is shared so spans of different threads line up.
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Self {
            on,
            epoch,
            thread: (thread as u64 + 1) << 32,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off; a traced run alternates per operation
    /// so that one run yields both sides of the tracing-overhead figure.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// A fresh tracer with the same switch and epoch for another thread.
    pub fn sibling(&self, thread: u32) -> Self {
        Self::new(self.on, self.epoch, thread)
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.thread | (self.spans.len() as u64 + 1);
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        id
    }

    pub fn end(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let idx = (id & 0xffff_ffff) as usize - 1;
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals: `(count, total_ns, self_ns)`. Self time is a span's
/// duration minus the part of it its direct children cover (children of
/// one parent never overlap here: each thread runs one operation at a
/// time).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_SPAN {
            *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(covered);
    }
    by_name
}

/// Write `{"manifest":…, "summary":{name:{count,total_ns,self_ns}},
/// "columns":[…], "spans":[[…],…]}`.
pub fn write_trace(path: &Path, manifest: &Json, spans: &[Span]) -> std::io::Result<()> {
    let mut summary = Json::obj();
    for (name, (count, total, own)) in summarize(spans) {
        summary = summary.with(
            name,
            Json::obj()
                .with("count", count)
                .with("total_ns", total)
                .with("self_ns", own),
        );
    }
    let rows: Vec<Json> = spans
        .iter()
        .map(|s| {
            Json::Arr(vec![
                s.name.into(),
                s.start_ns.into(),
                s.end_ns.into(),
                s.id.into(),
                s.parent.into(),
                s.req.into(),
            ])
        })
        .collect();
    let columns: Vec<Json> = ["name", "start_ns", "end_ns", "id", "parent", "req"]
        .into_iter()
        .map(Json::from)
        .collect();
    let doc = Json::obj()
        .with("manifest", manifest.clone())
        .with("summary", summary)
        .with("columns", columns)
        .with("spans", rows);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_costs_no_ids() {
        let mut t = Tracer::off();
        let id = t.begin("x", NO_SPAN, 1);
        assert_eq!(id, NO_SPAN);
        t.end(id);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: NO_SPAN,
                req: 7,
                name: "post",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                req: 7,
                name: "send",
                start_ns: 0,
                end_ns: 30,
            },
            Span {
                id: 3,
                parent: 1,
                req: 7,
                name: "wait",
                start_ns: 30,
                end_ns: 90,
            },
        ];
        let s = summarize(&spans);
        assert_eq!(s["post"], (1, 100, 10));
        assert_eq!(s["send"], (1, 30, 30));
        assert_eq!(s["wait"], (1, 60, 60));
    }

    #[test]
    fn ids_are_unique_across_threads_and_nest() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch, 0);
        let mut b = a.sibling(1);
        let root = a.begin("op", NO_SPAN, 1);
        let child = a.begin("phase", root, 1);
        a.end(child);
        a.end(root);
        let other = b.begin("op", NO_SPAN, 2);
        b.end(other);
        assert_ne!(root, other);
        let spans = a.into_spans();
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
