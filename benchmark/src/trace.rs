//! In-memory spans, recorded only from the benchmark's own files around
//! its calls into each layer, and written out once when the run ends.
//!
//! A span is `(name, start, end, parent)`; the spans of one request
//! share its root. A layer's busy time is the sum of its spans; a
//! root's *self* time is its duration minus what its children cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Tracer`]; `NO_PARENT` for roots.
pub type SpanId = u32;
/// The parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `cache.lookup`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
    /// The span that caused this one.
    pub parent: SpanId,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Busy {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub ns: u64,
}

/// A span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the epoch to `t` (0 if `t` is earlier).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let start = self.now();
        self.push(name, start, start, parent)
    }

    /// Close span `id` now.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id as usize].end = self.now();
    }

    /// Record a finished span.
    pub fn push(&mut self, name: &'static str, start: u64, end: u64, parent: SpanId) -> SpanId {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Time `f` as a child of `parent`.
    pub fn span<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        self.push(name, start, end, parent);
        r
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count and summed duration per span name.
    pub fn busy(&self) -> BTreeMap<&'static str, Busy> {
        let mut by_name: BTreeMap<&'static str, Busy> = BTreeMap::new();
        for s in &self.spans {
            let b = by_name.entry(s.name).or_default();
            b.count += 1;
            b.ns += s.end - s.start;
        }
        by_name
    }

    /// Summed self time of the roots: each root's duration minus the
    /// durations of its direct children (children of one root never
    /// overlap here — every recorder is single-threaded).
    pub fn root_self_ns(&self) -> u64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.parent == NO_PARENT)
            .map(|(s, c)| (s.end - s.start).saturating_sub(*c))
            .sum()
    }
}

/// What one `Instant::now()`-pair costs with nothing between: the floor
/// every span's duration includes. Median of many, so one preemption
/// does not set it.
pub fn clock_cost_ns() -> u64 {
    let epoch = Instant::now();
    let mut deltas: Vec<u64> = (0..4_001)
        .map(|_| {
            let a = epoch.elapsed();
            let b = epoch.elapsed();
            (b - a).as_nanos() as u64
        })
        .collect();
    deltas.sort_unstable();
    deltas[deltas.len() / 2]
}

/// Write the recorders' spans as one JSON document: a name table and,
/// per recorder, rows of `[name, start_ns, end_ns, parent]`.
pub fn write_json(path: &Path, workload: &str, seed: u64, tracers: &[(&str, &Tracer)]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut names: Vec<&'static str> = tracers
        .iter()
        .flat_map(|(_, t)| t.spans().iter().map(|s| s.name))
        .collect();
    names.sort_unstable();
    names.dedup();
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",")?;
    write!(out, "\"columns\":[\"name\",\"start\",\"end\",\"parent\"],\"names\":[")?;
    for (i, n) in names.iter().enumerate() {
        write!(out, "{}\"{n}\"", if i == 0 { "" } else { "," })?;
    }
    write!(out, "],\"recorders\":{{")?;
    for (i, (label, tracer)) in tracers.iter().enumerate() {
        write!(out, "{}\"{label}\":[", if i == 0 { "" } else { "," })?;
        for (j, s) in tracer.spans().iter().enumerate() {
            let name = names.binary_search(&s.name).unwrap_or(0);
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            write!(
                out,
                "{}[{name},{},{},{parent}]",
                if j == 0 { "" } else { "," },
                s.start,
                s.end
            )?;
        }
        write!(out, "]")?;
    }
    writeln!(out, "}}}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_root_minus_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.push("root", 0, 100, NO_PARENT);
        t.push("a", 10, 30, root);
        t.push("b", 40, 90, root);
        let other = t.push("root", 200, 210, NO_PARENT);
        t.push("a", 200, 204, other);
        assert_eq!(t.root_self_ns(), (100 - 20 - 50) + (10 - 4));
        let busy = t.busy();
        assert_eq!(busy["a"], Busy { count: 2, ns: 24 });
        assert_eq!(busy["root"], Busy { count: 2, ns: 110 });
    }
}
