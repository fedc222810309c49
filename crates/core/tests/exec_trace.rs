//! The executor's trace wiring: every layer call opens an `exec/layer`
//! span and emits an `exec/layer` event (with its wall time and
//! lane/scalar window split), the `exec/layer_ms` latency
//! histogram accumulates, and — only under the `SNAPEA_TRACE_DETAIL`
//! opt-in — each `(image, kernel)` task additionally records an
//! `exec/kernel` span, on every datapath.
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

#[test]
fn executor_emits_layer_spans_events_and_kernel_detail() {
    // Padded and multi-image: 2 images × 4 kernels × 144 windows. The
    // executor walks a zero-padded copy of the input, so all 144 windows
    // of a pair are interior and walk in 18 batches of eight (144 lane
    // windows, 0 scalar).
    let mut rng = init::rng(9);
    let conv = Conv2d::new(3, 4, ConvGeom::square(3, 1, 1), &mut rng);
    let input = init::uniform4(Shape4::new(2, 3, 12, 12), 1.0, &mut rng).map(f32::abs);
    let cfg = LayerConfig::exact(&conv);
    // The same layer with a -0.0 bias, where a padding MAC is not a no-op,
    // keeps the bordered plan: of a pair's 144 windows, 100 are interior
    // (10 per inner output row, between two border windows) and batch
    // eight at a time across the border windows, so each pair walks 12
    // batches (96 lane windows) and 4 leftover interior plus 44 border
    // windows one at a time (48 scalar).
    let mut neg_zero_bias = conv.clone();
    neg_zero_bias.bias_mut()[1] = -0.0;

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
    // q16 alike: one per (image, kernel), 2 images × 4 kernels each.
    let kernel_spans = |call: &[Json]| {
        let mut details: Vec<String> = call
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("exec/kernel"))
            .filter_map(|e| e.get("detail").and_then(Json::as_str).map(str::to_string))
            .collect();
        details.sort();
        details
    };
    let calls: Vec<&[Json]> = starts.windows(2).map(|w| &events[w[0]..w[1]]).collect();
    assert_eq!(
        kernel_spans(calls[0]).len(),
        8,
        "one span per (image, kernel)"
    );
    for call in &calls[1..] {
        assert_eq!(kernel_spans(call), kernel_spans(calls[0]));
    }
    assert_eq!(spans_named("exec/kernel"), 24);

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
        // Every window is walked exactly once, batched or alone.
        assert_eq!(
            count(e, "lane_windows") + count(e, "scalar_windows"),
            2 * 4 * 144,
            "lane + scalar windows = images × kernels × windows"
        );
    }
    // The batching is a property of the plan, not of the datapath.
    for e in &layer_events[1..4] {
        for field in ["lane_windows", "scalar_windows"] {
            assert_eq!(count(e, field), count(layer_events[0], field), "{field}");
        }
    }
    assert_eq!(count(layer_events[0], "lane_windows"), 2 * 4 * 144);
    assert_eq!(count(layer_events[0], "scalar_windows"), 0);
    assert_eq!(count(layer_events[4], "lane_windows"), 2 * 4 * 96);
    assert_eq!(count(layer_events[4], "scalar_windows"), 2 * 4 * 48);

    // The latency histogram saw every call (≥, not ==: other layer calls in
    // this process would also be charged — there are none today, but the
    // histogram is a process-global).
    let snap = snapea_obs::log_histogram("exec/layer_ms").snapshot();
    assert!(snap.count() >= 5, "exec/layer_ms recorded every call");
}
