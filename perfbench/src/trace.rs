//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records a name, its start and end (ns since the tracer was
//! created) and the span open around it when it began. Spans stay in
//! memory and are written out once the traced pass ends. A disabled
//! tracer reads no clock and records nothing, so the same re-drive code
//! gives the untraced baseline that prices the tracing overhead.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

use crate::metrics::percentile;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Handle of an open span; `exit` closes it.
#[must_use]
#[derive(Debug)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        Open(Some(index))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(index) = open.0 {
            let end = self.now();
            self.spans[index].end = end;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(index), "spans close in LIFO order");
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one `index name start_ns end_ns parent` line per span.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}", s.name, s.start, s.end)?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Default, Clone)]
pub struct SpanStats {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Durations in ns, ascending.
    pub durations: Vec<f64>,
}

impl SpanStats {
    pub fn p(&self, p: f64) -> f64 {
        percentile(&self.durations, p)
    }
}

pub fn stats_by_name(spans: &[Span]) -> BTreeMap<&'static str, SpanStats> {
    let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += s.duration();
        entry.self_ns += own;
        entry.durations.push(s.duration() as f64);
    }
    for stats in out.values_mut() {
        stats.durations.sort_by(f64::total_cmp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // arrival [0, 100) holds route [10, 20) and admit [30, 70); admit
        // holds carve [40, 50). A malformed child overlapping its sibling
        // [60, 80) must not be double-counted.
        let spans = [
            span("arrival", 0, 100, None),
            span("route", 10, 20, Some(0)),
            span("admit", 30, 70, Some(0)),
            span("carve", 40, 50, Some(2)),
            span("late", 60, 80, Some(0)),
            span("other", 200, 260, None),
        ];
        let own = self_times(&spans);
        // Children of arrival cover [10,20) + [30,80) = 60.
        assert_eq!(own, vec![40, 10, 30, 10, 20, 60]);
        let stats = stats_by_name(&spans);
        assert_eq!(stats["arrival"].self_ns, 40);
        assert_eq!(stats["admit"].total_ns, 40);
        assert_eq!(stats["admit"].self_ns, 30);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        let v = t.span("inner", || 7);
        t.exit(outer);
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

        let mut off = Tracer::new(false);
        let o = off.enter("outer");
        off.exit(o);
        assert!(off.spans().is_empty());
    }
}
