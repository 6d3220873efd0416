//! An in-memory span recorder.
//!
//! A [`Span`] is one timed call into a layer: name, start, end, the span
//! that caused it and the request it belongs to. Calls too short and too
//! frequent to record one by one (a software energy query takes tens of
//! nanoseconds) are folded into a [`Rollup`] under their parent: a count
//! and the summed busy time of calls that ran one after another inside
//! the parent. Everything stays in memory until [`Tracer::write_jsonl`]
//! at the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span id (ids start at 1).
    pub id: u64,
    /// Id of the span that caused this one (0 = none).
    pub parent: u64,
    /// Request the span belongs to (0 = none).
    pub req: u64,
    /// Layer call name, e.g. `core.trial`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Sequential calls folded into one record under a parent span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rollup {
    /// The span the calls ran inside.
    pub parent: u64,
    /// Layer call name.
    pub name: &'static str,
    /// Number of calls.
    pub count: u64,
    /// Summed duration of the calls, nanoseconds.
    pub busy_ns: u64,
}

/// Nanoseconds of `[start, end)` covered by the union of `children`'s
/// intervals (children are clipped to the window; overlaps count once).
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of `span`: its duration minus the part its direct
/// children cover (overlapping children count once; grandchildren are
/// already inside their parents) minus the busy time of rolled-up calls.
/// Rolled-up calls run sequentially inside the span and outside its
/// child spans.
pub fn self_time_ns(span: &Span, children: &[Span], rollups: &[Rollup]) -> u64 {
    let intervals: Vec<(u64, u64)> = children
        .iter()
        .filter(|c| c.parent == span.id)
        .map(|c| (c.start_ns, c.end_ns))
        .collect();
    let rolled: u64 = rollups
        .iter()
        .filter(|r| r.parent == span.id)
        .map(|r| r.busy_ns)
        .sum();
    span.duration_ns()
        .saturating_sub(covered_ns(span.start_ns, span.end_ns, &intervals))
        .saturating_sub(rolled)
}

/// The recorder. Disabled tracers record nothing and hand out span id 0.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    rollups: Mutex<Vec<Rollup>>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            rollups: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id (0 when disabled), for spans recorded later with
    /// [`Tracer::record`] whose children must name them first.
    pub fn reserve(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Record a finished span under a reserved id.
    pub fn record(&self, span: Span) {
        if self.enabled {
            self.spans
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(span);
        }
    }

    /// Record a finished call as a span under a fresh id.
    pub fn record_call(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.enabled {
            self.record(Span {
                id: self.reserve(),
                parent,
                req,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Run `f` inside a span; `f` receives the span's id so its callees
    /// can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.reserve();
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.record(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Record a rollup of `count` calls totalling `busy_ns` under `parent`.
    pub fn rollup(&self, parent: u64, name: &'static str, count: u64, busy_ns: u64) {
        if self.enabled {
            self.rollups
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Rollup {
                    parent,
                    name,
                    count,
                    busy_ns,
                });
        }
    }

    /// Snapshot of the recorded spans, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Snapshot of the recorded rollups.
    pub fn rollups(&self) -> Vec<Rollup> {
        self.rollups
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Write every span and rollup as one JSON object per line.
    ///
    /// # Errors
    ///
    /// File creation and write errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"span\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        for r in self.rollups() {
            writeln!(
                out,
                "{{\"rollup\":\"{}\",\"parent\":{},\"count\":{},\"busy_ns\":{}}}",
                r.name, r.parent, r.count, r.busy_ns
            )?;
        }
        out.flush()
    }
}

/// Spans grouped for per-layer arithmetic.
#[derive(Debug, Default)]
pub struct TraceIndex {
    spans: Vec<Span>,
    by_parent: BTreeMap<u64, Vec<Span>>,
    rollups_by_parent: BTreeMap<u64, Vec<Rollup>>,
}

impl TraceIndex {
    /// Index a tracer's records.
    pub fn of(tracer: &Tracer) -> TraceIndex {
        TraceIndex::from_parts(tracer.spans(), tracer.rollups())
    }

    /// Index explicit records.
    pub fn from_parts(spans: Vec<Span>, rollups: Vec<Rollup>) -> TraceIndex {
        let mut by_parent: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
        for s in &spans {
            by_parent.entry(s.parent).or_default().push(*s);
        }
        let mut rollups_by_parent: BTreeMap<u64, Vec<Rollup>> = BTreeMap::new();
        for r in rollups {
            rollups_by_parent.entry(r.parent).or_default().push(r);
        }
        TraceIndex {
            spans,
            by_parent,
            rollups_by_parent,
        }
    }

    /// Every span called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| s.duration_ns() as f64 * 1e-6)
            .collect()
    }

    /// Summed duration in nanoseconds of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::duration_ns).sum()
    }

    /// Self time of `span` (see [`self_time_ns`]).
    pub fn self_ns(&self, span: &Span) -> u64 {
        let children = self.by_parent.get(&span.id).map_or(&[][..], Vec::as_slice);
        let rollups = self
            .rollups_by_parent
            .get(&span.id)
            .map_or(&[][..], Vec::as_slice);
        self_time_ns(span, children, rollups)
    }

    /// `(count, busy_ns)` of rollups called `name` under `parent`.
    pub fn rolled(&self, parent: u64, name: &str) -> (u64, u64) {
        self.rollups_by_parent
            .get(&parent)
            .into_iter()
            .flatten()
            .filter(|r| r.name == name)
            .fold((0, 0), |(c, b), r| (c + r.count, b + r.busy_ns))
    }
}
