//! The closed loop shared by every workload: fixed rounds, per-input
//! minima, optional spans, and the per-layer aggregation of traced ops.

use crate::stats::PerInput;
use crate::sys;
use crate::trace::{OpAttribution, Span, Tracer};
use snapea_obs::Stopwatch;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Program counters read as per-op deltas in traced ops.
pub const COUNTERS: [&str; 17] = [
    "exec/macs_performed",
    "exec/macs_dense",
    "exec/lane_windows",
    "exec/scalar_windows",
    "exec/gather_cache_hits",
    "exec/gather_cache_misses",
    "exec/windows_positive",
    "exec/false_negatives",
    "optimizer/kernels_profiled",
    "optimizer/probes",
    "sim/layers",
    "sim/cycles",
    "par/invocations",
    "par/tasks",
    "par/busy_ns",
    "scratch/acquires",
    "scratch/reuses",
];

fn counter_refs() -> &'static [&'static snapea_obs::Counter] {
    static REFS: OnceLock<Vec<&'static snapea_obs::Counter>> = OnceLock::new();
    REFS.get_or_init(|| COUNTERS.iter().map(|n| snapea_obs::counter(n)).collect())
}

/// A reading of every counter in [`COUNTERS`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters([u64; COUNTERS.len()]);

impl Counters {
    /// Reads the counters now.
    pub fn read() -> Self {
        let mut v = [0u64; COUNTERS.len()];
        for (slot, c) in v.iter_mut().zip(counter_refs()) {
            *slot = c.get();
        }
        Self(v)
    }

    /// The counter named `name` (which must be listed in [`COUNTERS`]).
    pub fn get(&self, name: &str) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|n| *n == name)
            .expect("counter is listed in COUNTERS");
        self.0[i]
    }

    fn delta(&self, earlier: &Self) -> Self {
        let mut v = [0u64; COUNTERS.len()];
        for (i, slot) in v.iter_mut().enumerate() {
            *slot = self.0[i] - earlier.0[i];
        }
        Self(v)
    }

    fn add(&mut self, other: &Self) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

/// Span access for code under measurement; does nothing when untraced.
pub struct Probe<'a> {
    tracer: Option<&'a mut Tracer>,
}

impl Probe<'static> {
    /// A probe that records nothing.
    pub fn untraced() -> Self {
        Probe { tracer: None }
    }
}

impl Probe<'_> {
    /// Whether spans are being recorded.
    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Opens a span (no-op when untraced).
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        self.tracer.as_mut().map(|t| t.open(name))
    }

    /// Closes a span returned by [`Self::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), id) {
            t.close(id);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }
}

/// One measured call: its value, wall time and, when traced, its spans.
pub struct Timed<R> {
    /// What the call returned.
    pub value: R,
    /// Wall seconds.
    pub secs: f64,
    /// Spans and counter deltas, when traced.
    pub traced: Option<TracedOp>,
}

impl<R> Timed<R> {
    /// The same measurement of `f(value)`.
    pub fn map<S>(self, f: impl FnOnce(R) -> S) -> Timed<S> {
        Timed {
            value: f(self.value),
            secs: self.secs,
            traced: self.traced,
        }
    }

    /// Separates the value from the measurement.
    pub fn split(self) -> (R, Timed<()>) {
        let Timed {
            value,
            secs,
            traced,
        } = self;
        (
            value,
            Timed {
                value: (),
                secs,
                traced,
            },
        )
    }
}

/// What a traced call recorded.
pub struct TracedOp {
    /// The op's spans; the first is its root.
    pub spans: Vec<Span>,
    /// Self time per layer.
    pub attribution: OpAttribution,
    /// Counter deltas over the call.
    pub counters: Counters,
}

/// Times `f`. When `tracer` is set, opens a root span named `root` around
/// it and reads counter deltas; `f` opens its own layer spans through the
/// probe.
pub fn timed<R>(
    tracer: Option<&mut Tracer>,
    root: &'static str,
    f: impl FnOnce(&mut Probe<'_>) -> R,
) -> Timed<R> {
    match tracer {
        None => {
            let clock = Stopwatch::start();
            let value = std::hint::black_box(f(&mut Probe { tracer: None }));
            Timed {
                value,
                secs: clock.elapsed_secs(),
                traced: None,
            }
        }
        Some(t) => {
            let before = Counters::read();
            t.begin_op();
            let id = t.open(root);
            let value = std::hint::black_box(f(&mut Probe {
                tracer: Some(&mut *t),
            }));
            t.close(id);
            let (spans, attribution) = t.finish_op();
            let counters = Counters::read().delta(&before);
            Timed {
                value,
                secs: attribution.wall_ns as f64 / 1e9,
                traced: Some(TracedOp {
                    spans,
                    attribution,
                    counters,
                }),
            }
        }
    }
}

/// Result of one operation as [`drive`] sees it.
pub struct OpReport {
    /// The op's measurement (the value is dropped by the workload).
    pub timed: Timed<()>,
    /// Whether every per-operation check passed.
    pub ok: bool,
    /// Workload-specific per-op counts (e.g. Global-pass iterations).
    pub extra: BTreeMap<&'static str, f64>,
}

/// A workload as [`drive`] runs it.
pub trait Bench {
    /// Distinct inputs in one round.
    fn inputs(&self) -> usize;
    /// Items (images or networks) in one pass over the inputs.
    fn items_per_pass(&self) -> usize;
    /// Becomes ready from scratch once; returns the timed set-up.
    fn setup(&mut self, tracer: Option<&mut Tracer>) -> Result<Timed<()>, String>;
    /// Runs input `i` of round `round` once, timed, then checks it.
    fn op(&mut self, round: usize, i: usize, tracer: Option<&mut Tracer>) -> OpReport;
    /// Checks made once at the end of the run; returns failures.
    fn final_checks(&mut self) -> Vec<String>;
}

/// Aggregated spans and counters of the traced ops.
#[derive(Debug, Default)]
pub struct LayerAgg {
    /// Traced ops.
    pub ops: u64,
    /// Sum of traced ops' wall times, ns.
    pub wall_ns: u64,
    /// Self time per span name, summed over traced ops, ns.
    pub rows: BTreeMap<&'static str, u64>,
    /// Counter deltas summed over traced ops.
    pub counters: Counters,
    /// Workload-specific per-op counts, summed.
    pub extra: BTreeMap<&'static str, f64>,
    /// Traced set-ups.
    pub setups: u64,
    /// Self time per span name, summed over traced set-ups, ns.
    pub setup_rows: BTreeMap<&'static str, u64>,
}

impl LayerAgg {
    fn add_op(&mut self, op: &TracedOp, extra: &BTreeMap<&'static str, f64>) {
        self.ops += 1;
        self.wall_ns += op.attribution.wall_ns;
        for (k, v) in &op.attribution.rows {
            *self.rows.entry(k).or_insert(0) += v;
        }
        self.counters.add(&op.counters);
        for (k, v) in extra {
            *self.extra.entry(k).or_insert(0.0) += v;
        }
    }

    /// Mean self time of span `name` per traced op, ms.
    pub fn row_ms(&self, name: &str) -> f64 {
        self.rows.get(name).copied().unwrap_or(0) as f64 / 1e6 / self.ops.max(1) as f64
    }

    /// Mean self time of span `name` per traced set-up, ms.
    pub fn setup_row_ms(&self, name: &str) -> f64 {
        self.setup_rows.get(name).copied().unwrap_or(0) as f64 / 1e6 / self.setups.max(1) as f64
    }

    /// Mean counter delta per traced op.
    pub fn per_op(&self, counter: &str) -> f64 {
        self.counters.get(counter) as f64 / self.ops.max(1) as f64
    }

    /// Mean workload-specific count per traced op.
    pub fn extra_per_op(&self, name: &str) -> f64 {
        self.extra.get(name).copied().unwrap_or(0.0) / self.ops.max(1) as f64
    }

    /// Part of the traced ops' wall time no layer row covers.
    pub fn unattributed_frac(&self) -> f64 {
        let rows: u64 = self.rows.values().sum();
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.wall_ns.saturating_sub(rows) as f64 / self.wall_ns as f64
    }
}

/// Largest share of an op's wall time its layer rows may leave uncovered.
pub const MAX_UNATTRIBUTED: f64 = 0.05;

/// Everything a run measured.
pub struct RunRecord {
    /// Rounds planned.
    pub planned_rounds: usize,
    /// Rounds performed (fewer than planned only when the time cap hit).
    pub rounds: usize,
    /// Untraced op latencies, seconds.
    pub untraced: PerInput,
    /// Traced op latencies, seconds (empty when untraced).
    pub traced: PerInput,
    /// Set-up times, seconds, one per round.
    pub setups: Vec<f64>,
    /// Ops run.
    pub attempted: u64,
    /// Ops whose checks failed, plus failed set-ups and final checks.
    pub failed: u64,
    /// Failure descriptions (first few).
    pub failures: Vec<String>,
    /// Per-layer aggregation of the traced ops.
    pub layers: LayerAgg,
    /// Spans of the last traced round, for the Chrome trace.
    pub last_round_spans: Vec<Span>,
    /// Peak RSS over the set-ups and timed ops, MB.
    pub peak_rss_mb: f64,
    /// Host steal ticks over the timed phase.
    pub steal_ticks: u64,
    /// Involuntary context switches over the timed phase.
    pub involuntary_switches: u64,
}

fn note(failures: &mut Vec<String>, msg: String) {
    if failures.len() < 8 {
        failures.push(msg);
    }
}

/// Runs `rounds` rounds of `bench`. Each round repeats the set-up once and
/// then sends every distinct input once, so each input's repeats are spread
/// over the whole run. With `trace`, odd rounds are traced and even rounds
/// are not, so both latencies come from the same run.
///
/// `cap_secs` only guards the run's time limit on a badly contended host:
/// once the rounds have taken that long, no further round starts (after at
/// least two, and never between a traced round and its untraced pair).
pub fn drive(bench: &mut dyn Bench, rounds: usize, trace: bool, cap_secs: f64) -> RunRecord {
    let n = bench.inputs();
    let mut rec = RunRecord {
        planned_rounds: rounds,
        rounds: 0,
        untraced: PerInput::new(n),
        traced: PerInput::new(n),
        setups: Vec::with_capacity(rounds),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        layers: LayerAgg::default(),
        last_round_spans: Vec::new(),
        peak_rss_mb: 0.0,
        steal_ticks: 0,
        involuntary_switches: 0,
    };
    let mut tracer = Tracer::new();
    // Per input, the fastest traced op's unattributed share: the attribution
    // check applies to it, so preemption between two spans of one slow
    // repeat cannot fail the run.
    let mut best_traced: Vec<Option<(f64, f64)>> = vec![None; n];
    sys::reset_peak_rss();
    let steal0 = sys::steal_ticks().unwrap_or(0);
    let switches0 = sys::involuntary_switches().unwrap_or(0);
    let mut op_id = 0u64;
    let clock = Stopwatch::start();
    for round in 0..rounds {
        if round >= 2 && round % 2 == 0 && clock.elapsed_secs() > cap_secs {
            break;
        }
        rec.rounds = round + 1;
        let traced_round = trace && round % 2 == 1;
        match bench.setup(traced_round.then_some(&mut tracer)) {
            Ok(t) => {
                rec.setups.push(t.secs);
                if let Some(op) = t.traced {
                    rec.layers.setups += 1;
                    for (k, v) in op.attribution.rows {
                        *rec.layers.setup_rows.entry(k).or_insert(0) += v;
                    }
                }
            }
            Err(e) => {
                rec.failed += 1;
                note(&mut rec.failures, format!("round {round} set-up: {e}"));
                continue;
            }
        }
        if traced_round {
            rec.last_round_spans.clear();
        }
        for (i, best) in best_traced.iter_mut().enumerate() {
            op_id += 1;
            let report = bench.op(round, i, traced_round.then_some(&mut tracer));
            rec.attempted += 1;
            if !report.ok {
                rec.failed += 1;
                note(&mut rec.failures, format!("round {round} input {i}"));
            }
            match report.timed.traced {
                None => rec.untraced.push(i, report.timed.secs),
                Some(mut op) => {
                    rec.traced.push(i, report.timed.secs);
                    rec.layers.add_op(&op, &report.extra);
                    let frac = op.attribution.unattributed_frac();
                    if best.is_none_or(|(secs, _)| report.timed.secs < secs) {
                        *best = Some((report.timed.secs, frac));
                    }
                    for s in &mut op.spans {
                        s.op = op_id;
                    }
                    rec.last_round_spans.append(&mut op.spans);
                }
            }
        }
    }
    rec.peak_rss_mb = sys::peak_rss_mb().unwrap_or(0.0);
    rec.steal_ticks = sys::steal_ticks().unwrap_or(0).saturating_sub(steal0);
    rec.involuntary_switches = sys::involuntary_switches()
        .unwrap_or(0)
        .saturating_sub(switches0);
    for (i, best) in best_traced.iter().enumerate() {
        if let Some((_, frac)) = best {
            if *frac > MAX_UNATTRIBUTED {
                rec.failed += 1;
                note(
                    &mut rec.failures,
                    format!(
                        "input {i}: layer rows leave {:.1}% of the op unattributed",
                        frac * 100.0
                    ),
                );
            }
        }
    }
    for f in bench.final_checks() {
        rec.failed += 1;
        note(&mut rec.failures, f);
    }
    rec
}
