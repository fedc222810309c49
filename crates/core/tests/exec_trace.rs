//! The executor's trace wiring: every layer call opens an `exec/layer`
//! span and emits an `exec/layer` event (with its wall time and the count
//! of windows finished alone after their tile thinned), the `exec/layer_ms`
//! latency histogram accumulates, and — only under the
//! `SNAPEA_TRACE_DETAIL` opt-in — each task of the walk additionally
//! records an `exec/task` span naming its column range, on every datapath.
//!
//! This is one test function (not several) because the obs sink is a
//! process-wide global and the crate's other integration suites run in
//! their own binaries; a single test serialises sink installation without
//! needing a cross-crate lock.

use snapea::exec::{execute_conv, execute_conv_q16, execute_conv_stats, LayerConfig};
use snapea_nn::ops::Conv2d;
use snapea_obs::Json;
use snapea_tensor::q16::Q16Format;
use snapea_tensor::{im2col::ConvGeom, init, Shape4};

/// Columns per tile of the executor's walk.
const TILE: usize = 64;

#[test]
fn executor_emits_layer_spans_events_and_task_detail() {
    // Padded and multi-image: 2 images × 4 kernels × 576 windows, so the
    // walk's 1,152 columns make 18 tiles of 64, more than one task's worth
    // at any thread count.
    let mut rng = init::rng(9);
    let conv = Conv2d::new(3, 4, ConvGeom::square(3, 1, 1), &mut rng);
    let input = init::uniform4(Shape4::new(2, 3, 24, 24), 1.0, &mut rng).map(f32::abs);
    let columns = 2 * 24 * 24;
    let cfg = LayerConfig::exact(&conv);
    // The same layer with a -0.0 bias, where MACing a padding tap as +0.0
    // is not a no-op, walks the same padded plan.
    let mut neg_zero_bias = conv.clone();
    neg_zero_bias.bias_mut()[1] = -0.0;

    let alone = snapea_obs::counter("exec/windows_finished_alone");
    let alone_before = alone.get();
    let mem = snapea_obs::MemorySink::new();
    snapea_obs::sink::install(Box::new(mem.clone()));
    snapea_obs::set_detail_enabled(false);
    let baseline = execute_conv(&conv, &input, &cfg);
    snapea_obs::set_detail_enabled(true);
    // The event-log offset where each detailed call's events begin.
    let mut starts = vec![mem.events().len()];
    let detailed = execute_conv(&conv, &input, &cfg);
    starts.push(mem.events().len());
    execute_conv_stats(&conv, &input, &cfg);
    starts.push(mem.events().len());
    execute_conv_q16(&conv, &input, &cfg, Q16Format::new(10));
    starts.push(mem.events().len());
    snapea_obs::set_detail_enabled(false);
    execute_conv(&neg_zero_bias, &input, &cfg);
    snapea_obs::sink::clear();

    // Tracing must never perturb results.
    assert_eq!(
        baseline.output.as_slice(),
        detailed.output.as_slice(),
        "detail tracing changed the layer output"
    );
    assert_eq!(baseline.profile, detailed.profile);

    let events = mem.events();
    let spans_named = |name: &str| {
        events
            .iter()
            .filter(|e| {
                e.get("kind").and_then(Json::as_str) == Some("span")
                    && e.get("name").and_then(Json::as_str) == Some(name)
            })
            .count()
    };
    assert_eq!(spans_named("exec/layer"), 5, "one span per layer call");
    // Detail spans only for the opted-in calls — f32, f32 with stats, and
    // q16 alike: one per task, naming the task's columns.
    let task_ranges = |call: &[Json]| {
        let mut ranges: Vec<(usize, usize)> = call
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("exec/task"))
            .filter_map(|e| e.get("detail").and_then(Json::as_str))
            .map(|d| {
                let (a, b) = d
                    .strip_prefix("columns ")
                    .and_then(|r| r.split_once(".."))
                    .unwrap_or_else(|| panic!("task detail {d:?} names a column range"));
                (a.parse().unwrap(), b.parse().unwrap())
            })
            .collect();
        ranges.sort();
        ranges
    };
    let calls: Vec<&[Json]> = starts.windows(2).map(|w| &events[w[0]..w[1]]).collect();
    let tasks = task_ranges(calls[0]);
    assert!(tasks.len() > 1, "the layer splits into tasks: {tasks:?}");
    // The tasks are runs of whole tiles that cover every column once.
    let mut next = 0;
    for &(start, end) in &tasks {
        assert_eq!(start, next, "tasks {tasks:?} tile the columns in order");
        assert!(start % TILE == 0 && start < end, "task {start}..{end}");
        next = end;
    }
    assert_eq!(next, columns);
    for call in &calls[1..] {
        assert_eq!(task_ranges(call), tasks);
    }
    assert_eq!(spans_named("exec/task"), 3 * tasks.len());

    let layer_events: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("kind").and_then(Json::as_str) == Some("exec/layer"))
        .collect();
    assert_eq!(layer_events.len(), 5, "one exec/layer event per call");
    let count = |e: &Json, field: &str| e.get(field).and_then(Json::as_u64).expect(field);
    for e in &layer_events {
        let ms = e
            .get("elapsed_ms")
            .and_then(Json::as_f64)
            .expect("exec/layer carries its wall time");
        assert!(ms >= 0.0 && ms.is_finite());
        assert!(e.get("lane_windows").is_none() && e.get("scalar_windows").is_none());
    }
    // Thinned tiles finish their windows alone in the early-terminating
    // walks, the same windows with and without detail tracing; the
    // observed walk behind the stats takes every window to its end.
    let finished_alone: Vec<u64> = layer_events
        .iter()
        .map(|e| count(e, "windows_finished_alone"))
        .collect();
    assert!(finished_alone[0] > 0, "{finished_alone:?}");
    assert_eq!(finished_alone[1], finished_alone[0]);
    assert_eq!(finished_alone[2], 0, "observed walks never finish alone");
    assert_eq!(
        alone.get() - alone_before,
        finished_alone.iter().sum::<u64>(),
        "exec/windows_finished_alone counts what the events report"
    );

    // The latency histogram saw every call (≥, not ==: other layer calls in
    // this process would also be charged — there are none today, but the
    // histogram is a process-global).
    let snap = snapea_obs::log_histogram("exec/layer_ms").snapshot();
    assert!(snap.count() >= 5, "exec/layer_ms recorded every call");
}
