//! Benchmark-side spans around the public calls into each layer.
//!
//! Spans live in memory as (name, start, end, parent, op id) and are
//! written out when the run ends. A span's self time is its duration
//! minus the part of it its child spans cover; the per-layer table sums
//! the self times of every span in the traced ops, so its rows add up to
//! the total traced op time, with the ops' own self time shown as the
//! unaccounted remainder.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are raw host nanoseconds since the run began.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Name of the span that wraps a whole traced op.
pub const OP: &str = "op";

/// The span recorder. Outside a traced op, [`Spans::span`] just calls
/// its closure.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    /// Index of the open op span, while a traced op runs.
    open: Option<usize>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
            open: None,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the span of traced op `op`.
    pub fn begin_op(&mut self, op: u64) {
        let start = self.now();
        self.spans.push(Span {
            name: OP,
            start_ns: start,
            end_ns: start,
            parent: None,
            op,
        });
        self.open = Some(self.spans.len() - 1);
    }

    /// Closes the open op span.
    pub fn end_op(&mut self) {
        if let Some(i) = self.open.take() {
            self.spans[i].end_ns = self.now();
        }
    }

    /// Runs `f` inside a span named `name`, a child of the open op.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(parent) = self.open else {
            return f();
        };
        let start = self.now();
        let r = f();
        let end = self.now();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: Some(parent),
            op: self.spans[parent].op,
        });
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls and total duration (raw ns) of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + (s.end_ns - s.start_ns)))
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Self time per span name (raw ns) and the total op time. The op
/// spans' own self time is reported under [`OP`].
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, u64>, u64) {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut rows: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total = 0;
    for (i, s) in spans.iter().enumerate() {
        let intervals: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_ns.max(s.start_ns),
                    spans[c].end_ns.min(s.end_ns),
                )
            })
            .collect();
        let own = (s.end_ns - s.start_ns) - covered(intervals);
        *rows.entry(s.name).or_default() += own;
        if s.parent.is_none() {
            total += s.end_ns - s.start_ns;
        }
    }
    (rows, total)
}

/// The per-layer table: self time per traced op of every span name, in
/// reference-host ms (`scale` converts raw host time), with the ops' own
/// self time as the unaccounted row. The rows sum to the total.
pub fn table(
    rows: &BTreeMap<&'static str, u64>,
    total_ns: u64,
    ops: usize,
    scale: f64,
) -> Vec<String> {
    let per_op = |ns: u64| ns as f64 * scale / 1e6 / ops.max(1) as f64;
    let share = |ns: u64| 100.0 * ns as f64 / total_ns.max(1) as f64;
    let mut out = vec![format!(
        "{:<22} {:>12} {:>7}   (self time per traced op, reference-host ms; {ops} ops)",
        "span", "ms/op", "share"
    )];
    let mut named: Vec<(&str, u64)> = rows
        .iter()
        .filter(|(name, _)| **name != OP)
        .map(|(name, ns)| (*name, *ns))
        .collect();
    named.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    for (name, ns) in named {
        out.push(format!(
            "{name:<22} {:>12.4} {:>6.1}%",
            per_op(ns),
            share(ns)
        ));
    }
    let rest = rows.get(OP).copied().unwrap_or(0);
    out.push(format!(
        "{:<22} {:>12.4} {:>6.1}%",
        "(unaccounted)",
        per_op(rest),
        share(rest)
    ));
    out.push(format!(
        "{:<22} {:>12.4} {:>6.1}%",
        "total",
        per_op(total_ns),
        100.0
    ));
    out
}

/// Length of the union of `intervals`.
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.retain(|(a, b)| b > a);
    intervals.sort_unstable();
    let mut sum = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                sum += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    sum + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_times_sum_to_the_op_total() {
        let spans = vec![
            span(OP, 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 40, 70, Some(0)),
            span(OP, 200, 250, None),
            span("a", 200, 240, Some(3)),
        ];
        let (rows, total) = self_times(&spans);
        assert_eq!(total, 150);
        assert_eq!(rows["a"], 70);
        assert_eq!(rows["b"], 30);
        assert_eq!(rows[OP], 40 + 10);
        assert_eq!(rows.values().sum::<u64>(), total);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(covered(vec![(5, 5)]), 0);
        let spans = vec![
            span(OP, 0, 100, None),
            span("a", 0, 60, Some(0)),
            span("b", 50, 80, Some(0)),
        ];
        let (rows, total) = self_times(&spans);
        assert_eq!(rows[OP], 20);
        assert_eq!(total, 100);
    }
}
