//! `snapea-obs` — unified observability for the SnaPEA reproduction.
//!
//! The paper's evaluation methodology (§VI-A) is built on per-component
//! event logs; this crate is the reproduction's equivalent substrate, shared
//! by every layer of the workspace:
//!
//! * [`metrics`] — a global registry of relaxed-atomic counters, gauges, and
//!   log-bucketed latency histograms. Always on; an increment is one
//!   `fetch_add(Relaxed)` with no allocation, cheap enough for the
//!   executor's per-layer hot path.
//! * [`span`](mod@span) — hierarchical wall-time span timers ([`span!`])
//!   that nest via a thread-local path stack and charge totals into the
//!   metrics registry.
//! * [`sink`] — pluggable event sinks ([`event!`]): a stderr pretty-printer
//!   for interactive runs and a JSONL file sink for run manifests. With no
//!   sink installed, [`sink::enabled`] is one relaxed load and no event
//!   payload is ever built.
//! * [`run`] — per-invocation run directories (`repro-results/<run>/`) with
//!   an `events.jsonl` log and a `manifest.json` stamping git revision,
//!   configuration, and elapsed time.
//! * [`report`] — offline aggregation of an event log into per-phase time
//!   (total and self/exclusive, from the span tree), MAC savings, and PE
//!   utilization (the `snapea-tool report` subcommand).
//! * [`chrome`] — Chrome trace-event export of an event log (wall-clock
//!   spans plus the simulator's deterministic virtual-time PE timelines),
//!   loadable in `chrome://tracing` / Perfetto.
//! * [`perfdiff`] — structural diff of two `BENCH_*.json` documents with a
//!   regression threshold (the `snapea-tool perf-diff` gate).
//! * [`json`] — the minimal JSON value/parser/writer backing all of the
//!   above, so this crate stays dependency-free and buildable offline.
//!
//! Event kinds are namespaced by layer: `train/…` (snapea-nn),
//! `optimizer/…` and `exec/…` (snapea core), `sim/…` (snapea-accel),
//! `run/…` (snapea-bench), plus `span` for timer closures.
//!
//! Environment knobs: `SNAPEA_LOG=off` silences the stderr sink;
//! `SNAPEA_LOG_FILE=<path>` tees events to a JSONL file;
//! `SNAPEA_TRACE_DETAIL=1` additionally enables the fine-grained trace
//! sources (per-kernel executor spans, per-worker pool lanes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod perfdiff;
pub mod report;
pub mod run;
pub mod sink;
pub mod span;

pub use chrome::{chrome_trace, validate_chrome_trace, Selection};
pub use json::{parse, Json, JsonError};
pub use metrics::{
    counter, gauge, log_histogram, registry, Counter, Gauge, LogHistogram, LogHistogramSnapshot,
    Registry,
};
pub use perfdiff::{DiffRow, PerfDiff};
pub use report::Report;
pub use run::{git_dirty, git_rev, RunHandle};
pub use sink::{
    detail_enabled, enabled, set_detail_enabled, FileSink, MemorySink, Sink, StderrSink,
};
pub use span::{SpanGuard, Stopwatch};
