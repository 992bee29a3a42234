//! In-memory spans recorded by the benchmark around its calls into the
//! library's layers. Nothing here runs inside the program: a span wraps one
//! call into a layer's public function, and a layer's self time is its
//! span minus the time its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `exec.reuse`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; `end_ns >= start_ns`.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The set-up repetition or measurement pass the span belongs to.
    pub pass: u32,
}

/// Records spans while enabled; while disabled, [`Tracer::span`] only runs
/// its closure and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pass: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), pass: 0, open: Vec::new(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off; spans already recorded are kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tag the spans that follow with `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Run `f` inside a span named `name`. Spans opened inside `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// The spans recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (clipped to the
/// parent, so overlapping or overhanging children are not counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Self time in seconds of the spans named `name`, grouped by pass, in
/// recording order within each pass.
fn self_secs_by_pass(spans: &[Span], name: &str) -> BTreeMap<u32, Vec<f64>> {
    let mut by_pass: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for (span, ns) in spans.iter().zip(self_times_ns(spans)) {
        if span.name == name {
            by_pass.entry(span.pass).or_default().push(ns as f64 * 1e-9);
        }
    }
    by_pass
}

/// Median of `values`; zero when there are none.
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Best self time of the calls named `name`: the `k`-th such call of every
/// pass is the same call on the same input, so each is minimised over the
/// passes and the minima are summed. Zero when no span has that name.
pub fn best_self_secs(spans: &[Span], name: &str) -> f64 {
    let by_pass = self_secs_by_pass(spans, name);
    let calls = by_pass.values().map(Vec::len).max().unwrap_or(0);
    (0..calls)
        .map(|k| by_pass.values().filter_map(|v| v.get(k)).copied().fold(f64::INFINITY, f64::min))
        .sum()
}
