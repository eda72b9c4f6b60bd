//! Bench-side spans: each call into a layer is timed from outside, kept in
//! memory, and written out when the workload ends.
//!
//! A span has a name, a start and an end (ns since the tracer started), the
//! span that caused it, and a run or request id. Self time is a span's
//! duration minus the part of it its children cover. A tracer that is off
//! records nothing, so the untraced runs that give the end-to-end metrics
//! pay one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    id: u64,
}

/// A handle on an open span; `None` inside when tracing is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Per-name totals over every span of that name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`.
    pub fn begin(&self, name: &'static str, parent: SpanId, id: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            id,
        });
        SpanId(Some(spans.len() - 1))
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&self, span: SpanId) {
        if let Some(i) = span.0 {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span store poisoned")[i].end_ns = end_ns;
        }
    }

    /// Time `f` as one span.
    pub fn span<T>(&self, name: &'static str, parent: SpanId, id: u64, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, parent, id);
        let out = f();
        self.end(span);
        out
    }

    /// Record an already-measured interval (for calls timed on another
    /// clock, such as a request's scheduled send time).
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.lock().expect("span store poisoned").push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: parent.0,
            id,
        });
    }

    fn self_times(spans: &[Span]) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut cur): (u64, Option<(u64, u64)>) = (0, None);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if b <= a {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Count, total and self seconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let spans = self.spans.lock().expect("span store poisoned");
        let selfs = Self::self_times(&spans);
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, self_ns) in spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += (s.end_ns - s.start_ns) as f64 / 1e9;
            t.self_s += self_ns as f64 / 1e9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let selfs = Self::self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}

pub const ROOT: SpanId = SpanId(None);
