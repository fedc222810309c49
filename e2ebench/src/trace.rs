//! In-memory spans opened by the benchmark around its calls into each
//! layer, their self-time attribution, and Chrome trace export.
//!
//! All spans of a run are recorded on the benchmark's own thread: the
//! conv-override hooks of `Graph::forward_with` run on the calling thread,
//! so a span stack with no locking is exact.

use snapea_obs::Stopwatch;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `exec.conv`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span within the same operation, if any.
    pub parent: Option<usize>,
    /// Operation this span belongs to (assigned by `harness::drive`).
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records the spans of one operation at a time.
#[derive(Debug)]
pub struct Tracer {
    clock: Stopwatch,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Self time per span name of one operation, plus its wall time.
#[derive(Debug, Clone, Default)]
pub struct OpAttribution {
    /// Wall time of the operation's root span, ns.
    pub wall_ns: u64,
    /// Self time of every non-root span, summed per name, ns.
    pub rows: BTreeMap<&'static str, u64>,
}

impl OpAttribution {
    /// Part of the wall time no layer row covers: the root span's own
    /// time between its children.
    pub fn unattributed_ns(&self) -> u64 {
        self.wall_ns - self.rows.values().sum::<u64>().min(self.wall_ns)
    }

    /// [`Self::unattributed_ns`] as a share of the wall time.
    pub fn unattributed_frac(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.unattributed_ns() as f64 / self.wall_ns as f64
    }
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
            clock: Stopwatch::start(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed_ns()
    }

    /// Starts an operation: the spans opened until [`Self::finish_op`]
    /// belong to it.
    pub fn begin_op(&mut self) {
        assert!(self.stack.is_empty(), "an operation is still open");
        self.spans.clear();
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: 0,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Ends the current operation, returning its spans (the first is the
    /// root) and their attribution.
    pub fn finish_op(&mut self) -> (Vec<Span>, OpAttribution) {
        assert!(self.stack.is_empty(), "every span must be closed");
        let spans = std::mem::take(&mut self.spans);
        let attribution = attribute(&spans);
        (spans, attribution)
    }
}

/// Self time of each span (its duration minus its children's), summed per
/// name over every span but the root (`spans[0]`).
pub fn attribute(spans: &[Span]) -> OpAttribution {
    let Some(root) = spans.first() else {
        return OpAttribution::default();
    };
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut rows = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().skip(1) {
        *rows.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(child_ns[i]);
    }
    OpAttribution {
        wall_ns: root.dur_ns(),
        rows,
    }
}

/// Chrome trace-event JSON (complete `X` events, µs timestamps) of `spans`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"op\":{},\"parent\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op,
            s.parent.map_or(-1, |p| p as i64),
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
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
    fn self_time_subtracts_children_and_rows_add_back_up() {
        let spans = [
            span("op", 0, 100, None),
            span("nn.forward", 5, 95, Some(0)),
            span("exec.conv", 10, 40, Some(1)),
            span("exec.conv", 50, 60, Some(1)),
            span("artifact.prep", 95, 99, Some(0)),
        ];
        let a = attribute(&spans);
        assert_eq!(a.rows["nn.forward"], 50);
        assert_eq!(a.rows["exec.conv"], 40);
        assert_eq!(a.rows["artifact.prep"], 4);
        assert_eq!(a.unattributed_ns(), 6);
        assert_eq!(
            a.rows.values().sum::<u64>() + a.unattributed_ns(),
            a.wall_ns
        );
    }

    #[test]
    fn tracer_nests_spans_and_exports_them() {
        let mut t = Tracer::new();
        t.begin_op();
        let op = t.open("op");
        let conv = t.open("exec.conv");
        t.close(conv);
        t.close(op);
        let (mut spans, a) = t.finish_op();
        spans.iter_mut().for_each(|s| s.op = 7);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(a.rows.contains_key("exec.conv"));
        let json = chrome_json(&spans);
        assert!(json.contains("\"op\":7"));
        assert!(snapea_obs::json::parse(&json).is_ok());
    }
}
