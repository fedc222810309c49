//! Cross-crate simulator invariants: timing monotonicity, MAC conservation,
//! and the SnaPEA-vs-baseline relationships the paper's evaluation rests on.

use proptest::prelude::*;
use snapea_suite::accel::sim::simulate;
use snapea_suite::accel::trace::{trace_layer, PeActivity};
use snapea_suite::accel::workload::{LayerWorkload, NetworkWorkload};
use snapea_suite::accel::{AccelConfig, EnergyModel};
use snapea_suite::core::exec::LayerProfile;
use snapea_suite::obs::{Json, MemorySink};
use snapea_suite::tensor::par;

fn workload_from(
    ops: Vec<u32>,
    kernels: usize,
    windows: usize,
    window_len: usize,
) -> NetworkWorkload {
    let profile = LayerProfile::from_ops(1, kernels, windows, window_len, ops);
    NetworkWorkload {
        name: "prop".into(),
        layers: vec![LayerWorkload::new("l", profile, 64)],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pointwise-smaller op counts never cost more cycles or energy.
    #[test]
    fn fewer_ops_never_slower(
        ops in prop::collection::vec(1u32..28, 64),
        cuts in prop::collection::vec(0u32..28, 64),
    ) {
        let kernels = 4;
        let windows = 16;
        let wl = 28;
        let reduced: Vec<u32> = ops
            .iter()
            .zip(&cuts)
            .map(|(&o, &c)| o.saturating_sub(c).max(1))
            .collect();
        let cfg = AccelConfig::snapea();
        let m = EnergyModel::default();
        let full = simulate(&cfg, &m, &workload_from(ops, kernels, windows, wl));
        let less = simulate(&cfg, &m, &workload_from(reduced, kernels, windows, wl));
        prop_assert!(less.cycles <= full.cycles);
        prop_assert!(less.total_pj() <= full.total_pj() + 1e-6);
    }

    /// Simulated MACs equal the workload's op counts on any machine.
    #[test]
    fn macs_are_conserved(ops in prop::collection::vec(0u32..36, 128)) {
        let net = workload_from(ops.clone(), 8, 16, 36);
        let m = EnergyModel::default();
        for cfg in [AccelConfig::snapea(), AccelConfig::eyeriss()] {
            let r = simulate(&cfg, &m, &net);
            prop_assert_eq!(r.events.macs, ops.iter().map(|&o| o as u64).sum::<u64>());
        }
    }

    /// The dense workload upper-bounds any early-terminated variant on both
    /// machines.
    #[test]
    fn dense_is_an_upper_bound(ops in prop::collection::vec(1u32..36, 128)) {
        let net = workload_from(ops, 8, 16, 36);
        let dense = net.to_dense();
        let m = EnergyModel::default();
        for cfg in [AccelConfig::snapea(), AccelConfig::eyeriss()] {
            let early = simulate(&cfg, &m, &net);
            let full = simulate(&cfg, &m, &dense);
            prop_assert!(early.cycles <= full.cycles);
        }
    }
}

/// Whole-pipeline smoke: profile a real network in exact mode, simulate both
/// machines, and check the headline relationships.
#[test]
fn network_level_speedup_holds() {
    use snapea_suite::accel::workload::network_workload;
    use snapea_suite::core::params::NetworkParams;
    use snapea_suite::core::spec_net::profile_network;
    use snapea_suite::nn::data::SynthShapes;
    use snapea_suite::nn::zoo;

    let net = zoo::mini_alexnet(10);
    let data = SynthShapes::new(zoo::INPUT_SIZE, 10).generate(2, 17);
    let batch = SynthShapes::batch(&data);
    let prof = profile_network(&net, &NetworkParams::new(), &batch, false);
    let m = EnergyModel::default();
    let wl = network_workload("alex", &net, &batch, &prof);
    let sn = simulate(&AccelConfig::snapea(), &m, &wl);
    let ey = simulate(&AccelConfig::eyeriss(), &m, &wl.to_dense());
    assert!(
        sn.speedup_over(&ey) > 0.9,
        "exact-mode SnaPEA should be at least near baseline parity, got {:.2}",
        sn.speedup_over(&ey)
    );
    // On an *untrained* net exact-mode savings are small, so energy may sit
    // near parity (SnaPEA pays index traffic and reuses inputs less); it
    // must not collapse.
    assert!(
        sn.energy_reduction_over(&ey) > 0.85,
        "exact-mode energy should stay near parity, got {:.2}",
        sn.energy_reduction_over(&ey)
    );
    // With aggressive speculation the MAC savings dominate and energy must
    // genuinely drop.
    let mut params = snapea_suite::core::params::NetworkParams::new();
    for id in net.conv_ids() {
        if let snapea_suite::nn::graph::Op::Conv(c) = &net.node(id).op {
            params.set(
                id,
                snapea_suite::core::params::LayerParams::uniform(
                    c.c_out(),
                    snapea_suite::core::params::KernelParams::new(f32::INFINITY, 1),
                ),
            );
        }
    }
    let prof_pred = profile_network(&net, &params, &batch, false);
    let wl_pred = network_workload("alex-pred", &net, &batch, &prof_pred);
    let sn_pred = simulate(&AccelConfig::snapea(), &m, &wl_pred);
    assert!(
        sn_pred.energy_reduction_over(&ey) > 1.5,
        "aggressive speculation must cut energy, got {:.2}",
        sn_pred.energy_reduction_over(&ey)
    );
    assert!(sn_pred.speedup_over(&ey) > 1.5);
    // Per-layer cycle totals add up.
    assert_eq!(
        sn.cycles,
        sn.per_layer.iter().map(|l| l.cycles).sum::<u64>()
    );
}

/// One event's fields without its envelope (`seq`, `t_ms`, `tid`,
/// `span_id`).
type Payload = Vec<(String, Json)>;

/// For each `sim/simulate` span on `net`, in log order, the payloads of the
/// `sim/layer` events whose enclosing span it is.
fn layer_events_by_call(events: &[Json], net: &str) -> Vec<Vec<Payload>> {
    let text = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).map(str::to_owned);
    let span_id = |e: &Json| e.get("span_id").and_then(Json::as_u64);
    let is = |e: &Json, kind: &str| text(e, "kind").as_deref() == Some(kind);
    events
        .iter()
        .filter(|e| {
            is(e, "span")
                && text(e, "name").as_deref() == Some("sim/simulate")
                && text(e, "detail").as_deref() == Some(net)
        })
        .map(|span| {
            events
                .iter()
                .filter(|e| is(e, "sim/layer") && span_id(e) == span_id(span))
                .map(|e| {
                    let fields = e.as_object().unwrap_or_default().iter();
                    fields
                        .filter(|(k, _)| !matches!(k.as_str(), "seq" | "t_ms" | "tid" | "span_id"))
                        .cloned()
                        .collect()
                })
                .collect()
        })
        .collect()
}

#[test]
fn sim_layer_events_keep_layer_order_on_the_pool() {
    // Six layers of 131,072 op-count entries each: one pool task per
    // layer at four threads, each long enough that the workers take some.
    let name = "event-order";
    let layers = (0..6u32)
        .map(|l| {
            let window_len = 18 + 9 * l as usize;
            let ops = (0..2 * 16 * 4096u32)
                .map(|i| (i.wrapping_mul(2_246_822_519) >> (5 + l)) % window_len as u32 + 1)
                .collect();
            let profile = LayerProfile::from_ops(2, 16, 4096, window_len, ops);
            LayerWorkload::new(format!("l{l}"), profile, 4096).with_spatial(64, 64)
        })
        .collect();
    let net = NetworkWorkload {
        name: name.into(),
        layers,
    };
    let m = EnergyModel::default();
    let prev = par::threads();
    let invocations = snapea_suite::obs::counter("par/invocations");
    // Start the pool's workers before the sink sees anything.
    par::set_threads(4);
    simulate(&AccelConfig::snapea(), &m, &net);
    let mem = MemorySink::new();
    snapea_suite::obs::sink::install(Box::new(mem.clone()));
    par::set_threads(1);
    let serial = simulate(&AccelConfig::snapea(), &m, &net);
    par::set_threads(4);
    let before = invocations.get();
    let threaded = simulate(&AccelConfig::snapea(), &m, &net);
    let dispatched = invocations.get() > before;
    par::set_threads(prev);
    snapea_suite::obs::sink::clear();

    assert!(dispatched, "the 4-thread simulation never reached the pool");
    assert_eq!(serial, threaded);
    // Each call's span encloses all six events, in layer order, with
    // identical payloads: an event emitted on a worker would miss its span.
    let calls = layer_events_by_call(&mem.events(), name);
    assert_eq!(calls.len(), 2, "one sim/simulate span per call");
    let field = |e: &Payload, key: &str| e.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
    let layer_names: Vec<Option<Json>> = calls[0].iter().map(|e| field(e, "layer")).collect();
    let want: Vec<Json> = (0..6).map(|l| Json::from(format!("l{l}"))).collect();
    assert_eq!(layer_names, want.into_iter().map(Some).collect::<Vec<_>>());
    assert_eq!(calls[0], calls[1]);
    // Each event's per-PE balance is the trace's fold of the same layer.
    for (event, layer) in calls[0].iter().zip(&net.layers) {
        let trace = trace_layer(&AccelConfig::snapea(), layer);
        let finish = trace.per_pe.iter().map(PeActivity::finish_cycle);
        let imbalance = field(event, "imbalance").and_then(|v| v.as_f64());
        assert_eq!(
            imbalance.map(f64::to_bits),
            Some(trace.imbalance().to_bits()),
            "{} imbalance",
            layer.name
        );
        let pe_cycles = |key| field(event, key).and_then(|v| v.as_u64());
        assert_eq!(
            pe_cycles("busiest_pe_cycles"),
            finish.clone().max(),
            "{}",
            layer.name
        );
        assert_eq!(
            pe_cycles("idlest_pe_cycles"),
            finish.min(),
            "{}",
            layer.name
        );
    }
}
