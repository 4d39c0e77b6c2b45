//! Benchmark-side tracing: spans recorded *from the harness's own files*
//! around each call into a layer, held in memory and flushed at exit.
//!
//! In-program tracing is a later issue (ROADMAP item 2); until then the
//! harness can only see what it calls, so a span's children are the
//! harness-level calls made inside it, and a layer's self time is its
//! span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.client.walk`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Identifier shared by all spans of one operation (activation, round,
    /// message).
    pub op_id: u64,
}

/// Aggregate of all spans sharing a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanTotals {
    /// Number of spans.
    pub calls: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus direct children.
    pub self_ns: u64,
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &'static str, op_id: u64) -> u32 {
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`, and returns
    /// its duration in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order — a harness bug.
    pub fn exit(&mut self, index: u32) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(index),
            "spans must close innermost-first"
        );
        let span = &mut self.spans[index as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Forgets the innermost open span, which must be `index` and have no
    /// children: a poll that found nothing is not an operation.
    ///
    /// # Panics
    ///
    /// Panics when `index` is not the last span recorded — a harness bug.
    pub fn cancel(&mut self, index: u32) {
        assert_eq!(
            (self.open.pop(), self.spans.len()),
            (Some(index), index as usize + 1),
            "only the newest span can be cancelled"
        );
        self.spans.pop();
    }

    /// All closed and open spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Per-name totals, with self time (duration minus direct children),
    /// over the spans recorded from index `first` on.
    pub fn totals_since(&self, first: usize) -> BTreeMap<&'static str, SpanTotals> {
        let spans = &self.spans[first..];
        let mut children_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent.filter(|&p| p as usize >= first) {
                children_ns[parent as usize - first] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, covered) in spans.iter().zip(children_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(covered);
        }
        out
    }

    /// Writes one JSON object per span:
    /// `{name, start_ns, end_ns, parent, op_id}`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op_id\": {}}}",
                span.name, span.start_ns, span.end_ns, parent, span.op_id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds spans with hand-set times so the arithmetic is exact.
    fn fixed(spans: Vec<Span>) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let s = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 1,
        };
        let tracer = fixed(vec![
            s("round", 0, 100, None),
            s("walk", 10, 40, Some(0)),
            s("eval", 15, 25, Some(1)),
            s("train", 40, 90, Some(0)),
            s("walk", 200, 230, None),
        ]);
        let totals = tracer.totals_since(0);
        assert_eq!(
            totals["round"],
            SpanTotals {
                calls: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        // The grandchild is subtracted from `walk`, not from `round`.
        assert_eq!(
            totals["walk"],
            SpanTotals {
                calls: 2,
                total_ns: 60,
                self_ns: 50
            }
        );
        assert_eq!(totals["eval"].self_ns, 10);
        assert_eq!(totals["train"].self_ns, 50);
        let self_sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, 130, "self times partition the covered time");
    }

    #[test]
    fn nesting_assigns_parents_and_ops() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 7);
        for _ in 0..2 {
            let inner = t.enter("inner", 7);
            t.exit(inner);
        }
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op_id == 7 && s.end_ns >= s.start_ns));
        assert_eq!(t.durations("inner").len(), 2);

        let empty = t.enter("poll", 8);
        t.cancel(empty);
        assert_eq!(t.spans().len(), 3, "a cancelled span leaves no record");
        let next = t.enter("next", 8);
        t.exit(next);
        assert_eq!(t.spans()[3].parent, None);
        assert_eq!(t.totals_since(3).len(), 1);
    }
}
