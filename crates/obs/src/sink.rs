//! Pluggable event sinks.
//!
//! Events are structured objects (`kind` + timestamp + free fields). The
//! process holds a global list of sinks; [`emit`] fans each event out to all
//! of them. Two sinks ship with the crate:
//!
//! * [`StderrSink`] — a human-oriented pretty-printer for interactive runs
//!   (`[   12.3ms] train/epoch  epoch=1 loss=0.42`);
//! * [`FileSink`] — machine-oriented JSON Lines, one event per line, used
//!   for the `repro-results/<run>/events.jsonl` run manifests.
//!
//! With no sinks installed, [`enabled`] is `false` and instrumented code
//! must skip event construction entirely — a single relaxed atomic load is
//! the whole cost of the disabled path. The binaries that install sinks
//! (`repro`) honour two environment knobs:
//!
//! * `SNAPEA_LOG=off|0|none|quiet` suppresses the stderr sink
//!   ([`stderr_wanted`]);
//! * `SNAPEA_LOG_FILE=<path>` additionally installs a JSONL file sink.

use crate::json::Json;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A destination for structured events.
pub trait Sink: Send {
    /// Consumes one event (an object with at least `seq`, `t_ms`, `kind`).
    fn emit(&mut self, event: &Json);
    /// Flushes buffered output (called by [`flush`] and on manifest close).
    fn flush(&mut self) {}
}

static HAS_SINK: AtomicBool = AtomicBool::new(false);

/// Small per-thread integer ids for event attribution (allocation order of
/// first emission, so ids are compact but not stable across runs — consumers
/// must treat them as opaque lane labels).
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: std::cell::OnceCell<u64> = const { std::cell::OnceCell::new() };
}

/// This thread's small integer id (assigned on first use).
pub fn thread_id() -> u64 {
    TID.with(|t| *t.get_or_init(|| NEXT_TID.fetch_add(1, Ordering::Relaxed)))
}

/// The sink table: the sequence counter lives **inside** the same mutex as
/// the sinks, so the `seq` order of events is exactly the order they reach
/// every sink — a JSONL file shuffled by post-processing re-sorts to one
/// unique, gap-free order.
#[derive(Default)]
struct SinkTable {
    seq: u64,
    sinks: Vec<Box<dyn Sink>>,
}

fn sinks() -> &'static Mutex<SinkTable> {
    static SINKS: OnceLock<Mutex<SinkTable>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(SinkTable::default()))
}

/// Locks the sink registry, recovering from poisoning: a sink that panicked
/// mid-emit leaves the table itself intact, and observability must never
/// take the process down with it.
fn lock_sinks() -> std::sync::MutexGuard<'static, SinkTable> {
    sinks()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[allow(clippy::disallowed_methods)] // the obs layer owns the wall clock
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Milliseconds since the first obs call in this process. Event timestamps
/// are relative (wall-clock anchors live in the run manifest instead).
pub fn now_ms() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e3
}

/// `true` when at least one sink is installed. Instrumented code checks this
/// (one relaxed load) before building any event payload, so the disabled
/// path performs no allocation.
#[inline]
pub fn enabled() -> bool {
    HAS_SINK.load(Ordering::Relaxed)
}

/// Detail-trace state: 0 = unresolved, 1 = off, 2 = on.
static DETAIL: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// `true` when `SNAPEA_TRACE_DETAIL` is set to `1` (or `true`) in the
/// environment: opt-in for the fine-grained trace sources — per-kernel
/// executor spans and per-worker pool lanes — that would swamp the event
/// log of a full reproduction run if they were always on. Resolved once
/// and cached (one relaxed load afterwards); combine with [`enabled`] (no
/// sink still means no events). Override with [`set_detail_enabled`].
pub fn detail_enabled() -> bool {
    match DETAIL.load(Ordering::Relaxed) {
        0 => {
            #[allow(clippy::disallowed_methods)] // sanctioned config read (R1)
            let on = std::env::var("SNAPEA_TRACE_DETAIL")
                .map(|v| {
                    let v = v.trim();
                    v == "1" || v.eq_ignore_ascii_case("true")
                })
                .unwrap_or(false);
            DETAIL.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
        n => n == 2,
    }
}

/// Overrides the detail-trace opt-in for the rest of the process (tests and
/// tools that cannot set the environment before the first resolve). Detail
/// events carry wall times only and never feed back into results, so
/// toggling this mid-run is always safe.
pub fn set_detail_enabled(on: bool) {
    DETAIL.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Installs a sink. Events emitted from now on are fanned out to it.
pub fn install(sink: Box<dyn Sink>) {
    lock_sinks().sinks.push(sink);
    HAS_SINK.store(true, Ordering::Relaxed);
}

/// Removes every sink (used by tests and at manifest close), flushing them
/// first.
pub fn clear() {
    let mut g = lock_sinks();
    for s in g.sinks.iter_mut() {
        s.flush();
    }
    g.sinks.clear();
    HAS_SINK.store(false, Ordering::Relaxed);
}

/// Builds the event object and fans it out to every installed sink.
///
/// Callers should gate on [`enabled`] first (the `event!` macro does); this
/// function re-checks and is a no-op without sinks.
///
/// Every event carries the envelope `seq` (allocated under the sink lock,
/// so file order and seq order agree), `t_ms`, `kind`, `tid` (small
/// per-thread id) and — unless the caller supplied one, as `span` events
/// do — the `span_id` of the innermost span open on the emitting thread.
pub fn emit(kind: &str, fields: Vec<(String, Json)>) {
    if !enabled() {
        return;
    }
    let mut pairs: Vec<(String, Json)> = Vec::with_capacity(fields.len() + 5);
    pairs.push(("seq".to_string(), Json::Null)); // patched under the lock
    pairs.push(("t_ms".to_string(), Json::F64(now_ms())));
    pairs.push(("kind".to_string(), Json::Str(kind.to_string())));
    pairs.push(("tid".to_string(), Json::U64(thread_id())));
    if !fields.iter().any(|(k, _)| k == "span_id") {
        let current = crate::span::current_span_id();
        if current != 0 {
            pairs.push(("span_id".to_string(), Json::U64(current)));
        }
    }
    pairs.extend(fields);
    let mut event = Json::Obj(pairs);
    let mut g = lock_sinks();
    if let Json::Obj(pairs) = &mut event {
        pairs[0].1 = Json::U64(g.seq);
    }
    g.seq += 1;
    for s in g.sinks.iter_mut() {
        s.emit(&event);
    }
}

/// Flushes every installed sink.
pub fn flush() {
    let mut g = lock_sinks();
    for s in g.sinks.iter_mut() {
        s.flush();
    }
}

/// Pretty-printer for interactive runs: one line per event on stderr.
#[derive(Debug, Default)]
pub struct StderrSink;

impl Sink for StderrSink {
    fn emit(&mut self, event: &Json) {
        let t = event.get("t_ms").and_then(Json::as_f64).unwrap_or(0.0);
        let kind = event.get("kind").and_then(Json::as_str).unwrap_or("?");
        let mut line = format!("[{t:>9.1}ms] {kind:<24}");
        if let Some(pairs) = event.as_object() {
            for (k, v) in pairs {
                // Envelope and span-tree bookkeeping fields stay out of the
                // human-oriented line (they are for machine consumers).
                if matches!(
                    k.as_str(),
                    "seq" | "t_ms" | "kind" | "tid" | "span_id" | "parent_id" | "start_ms"
                ) {
                    continue;
                }
                match v {
                    Json::F64(x) => line.push_str(&format!(" {k}={x:.4}")),
                    other => line.push_str(&format!(" {k}={other}")),
                }
            }
        }
        eprintln!("{line}");
    }
}

/// JSON Lines writer; one event object per line.
#[derive(Debug)]
pub struct FileSink {
    writer: BufWriter<File>,
}

impl FileSink {
    /// Creates (truncating) the JSONL file at `path`, creating parent
    /// directories as needed.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(Self {
            writer: BufWriter::new(File::create(path)?),
        })
    }
}

impl Sink for FileSink {
    fn emit(&mut self, event: &Json) {
        // Ignore I/O errors: observability must never take down the run.
        let _ = writeln!(self.writer, "{event}");
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// A sink that appends events to a shared in-memory buffer (test helper).
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    buffer: std::sync::Arc<Mutex<Vec<Json>>>,
}

impl MemorySink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clone of every event captured so far.
    pub fn events(&self) -> Vec<Json> {
        self.buffer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

impl Sink for MemorySink {
    fn emit(&mut self, event: &Json) {
        self.buffer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(event.clone());
    }
}

/// `true` unless `SNAPEA_LOG` is set to `off`, `0`, `none`, `false`, or
/// `quiet` — the knob that silences interactive stderr progress.
#[allow(clippy::disallowed_methods)] // sanctioned config read (R1)
pub fn stderr_wanted() -> bool {
    match std::env::var("SNAPEA_LOG") {
        Ok(v) => !matches!(
            v.to_ascii_lowercase().as_str(),
            "off" | "0" | "none" | "false" | "quiet"
        ),
        Err(_) => true,
    }
}

/// Emits a structured event when any sink is installed.
///
/// The first argument is the event kind (conventionally `layer/verb`, e.g.
/// `train/epoch`, `optimizer/decision`, `exec/layer`, `sim/layer`); the rest
/// are `key = value` fields where the value converts via
/// [`Json::from`](crate::json::Json). Field expressions are **not evaluated**
/// when no sink is installed.
#[macro_export]
macro_rules! event {
    ($kind:expr $(, $key:ident = $val:expr )* $(,)?) => {
        if $crate::sink::enabled() {
            $crate::sink::emit($kind, vec![
                $( (stringify!($key).to_string(), $crate::json::Json::from($val)) ),*
            ]);
        }
    };
}

/// Serializes tests that install/clear global sinks (the sink list is
/// process-wide, and the test runner is parallel).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_captures_events_and_clear_disables() {
        let _guard = test_lock();
        clear();
        assert!(!enabled());
        let mem = MemorySink::new();
        install(Box::new(mem.clone()));
        assert!(enabled());

        crate::event!("test/sink", value = 42u64, name = "abc");
        // Other tests may run concurrently and emit into the global sink
        // list, so filter down to our own kind instead of asserting counts.
        let mine: Vec<Json> = mem
            .events()
            .into_iter()
            .filter(|e| e.get("kind").and_then(Json::as_str) == Some("test/sink"))
            .collect();
        assert_eq!(mine.len(), 1);
        let e = &mine[0];
        assert_eq!(e.get("value").and_then(Json::as_u64), Some(42));
        assert_eq!(e.get("name").and_then(Json::as_str), Some("abc"));
        assert!(e.get("t_ms").and_then(Json::as_f64).is_some());
        assert!(e.get("seq").and_then(Json::as_u64).is_some());

        clear();
        assert!(!enabled());
        crate::event!("test/sink", value = 1u64);
        let after: Vec<Json> = mem
            .events()
            .into_iter()
            .filter(|e| e.get("kind").and_then(Json::as_str) == Some("test/sink"))
            .collect();
        assert_eq!(after.len(), 1, "no emission after clear()");
    }

    #[test]
    fn file_sink_writes_jsonl() {
        let dir = std::env::temp_dir().join(format!("snapea-obs-test-{}", std::process::id()));
        let path = dir.join("events.jsonl");
        let mut fs = FileSink::create(&path).expect("create file sink");
        fs.emit(&Json::obj(vec![("kind", Json::from("a"))]));
        fs.emit(&Json::obj(vec![("kind", Json::from("b"))]));
        fs.flush();
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).expect("valid json line");
        assert_eq!(first.get("kind").and_then(Json::as_str), Some("a"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stderr_sink_formats_without_panicking() {
        let mut s = StderrSink;
        s.emit(&Json::obj(vec![
            ("seq", Json::from(0u64)),
            ("t_ms", Json::from(1.5f64)),
            ("kind", Json::from("test/fmt")),
            ("x", Json::from(3u64)),
        ]));
    }
}
