//! In-memory span recorder for the traced run.
//!
//! A span is taken around one of the benchmark's own calls into a layer
//! of the program. Spans are kept in memory and written out once, when
//! the run ends, so recording costs a clock read and a push.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// Layer-qualified name, e.g. `setup.compile` or `protocol.decode`.
    pub name: String,
    /// Start and end in nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Request id shared by every span of one served request.
    pub request: Option<u64>,
}

/// Ids at and above this value name the root span of one request, so
/// spans recorded on the sender and reader threads can name their
/// parent before it is recorded.
const REQUEST_ID_BASE: u64 = 1 << 48;

/// The id of request `request`'s root span.
pub fn request_span_id(request: u64) -> u64 {
    REQUEST_ID_BASE + request
}

/// Collects spans from any thread.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, for a span whose children start before it ends.
    pub fn reserve_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Builds a span over `[start, end]` (not yet recorded).
    pub fn make(
        &self,
        id: u64,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        request: Option<u64>,
    ) -> Span {
        Span {
            id,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        }
    }

    /// Records a finished root span under a fresh id.
    pub fn record(&self, name: &str, start: Instant, end: Instant) {
        let span = self.make(self.reserve_id(), name, start, end, None, None);
        self.extend(vec![span]);
    }

    /// Runs `f` inside a span with a pre-reserved id `id`, returning
    /// `f`'s result and the span's duration in milliseconds.
    pub fn time<R>(
        &self,
        id: u64,
        name: &str,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let span = self.make(id, name, start, end, parent, None);
        self.extend(vec![span]);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<R>(&self, name: &str, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        self.time(self.reserve_id(), name, parent, f).0
    }

    /// Appends spans recorded elsewhere (a load-generator thread).
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("a span-recording thread panicked")
            .extend(spans);
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a span-recording thread panicked")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Writes every span plus the per-name totals as one JSON document.
    pub fn write_json(&self, path: &std::path::Path, meta_json: &str) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"meta\": {meta_json},")?;
        writeln!(out, "\"summary\": {{")?;
        let summary = summarize(&spans);
        for (i, (name, s)) in summary.iter().enumerate() {
            let comma = if i + 1 < summary.len() { "," } else { "" };
            writeln!(
                out,
                "  \"{name}\": {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}{comma}",
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            )?;
        }
        writeln!(out, "}},\n\"spans\": [")?;
        for (i, s) in spans.iter().enumerate() {
            let comma = if i + 1 < spans.len() { "," } else { "" };
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "  {{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}{comma}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request)
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Totals for every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct NameTotals {
    count: u64,
    total_ns: u64,
    /// Duration minus the part of it covered by child spans.
    self_ns: u64,
}

/// Per-name span count, total time and self time.
fn summarize(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered.min(dur);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| e > s)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, "layer", 0, 100, None),
            span(2, "stage", 10, 30, Some(1)),
            span(3, "stage", 20, 50, Some(1)), // overlaps the first child
            span(4, "stage", 90, 120, Some(1)), // runs past the parent
        ];
        let s = summarize(&spans);
        assert_eq!(s["layer"].total_ns, 100);
        assert_eq!(s["layer"].self_ns, 100 - 40 - 10);
        assert_eq!(s["stage"].count, 3);
        assert_eq!(s["stage"].self_ns, 20 + 30 + 30);
    }
}
