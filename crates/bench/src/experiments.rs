//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each `fig*`/`table*` function reproduces the corresponding artefact of
//! the paper on the mini workloads (see DESIGN.md §3 for the index and
//! EXPERIMENTS.md for recorded paper-vs-measured values). Shapes — who wins,
//! by roughly what factor, where trends bend — are the reproduction target;
//! absolute ImageNet numbers are not (the substrate is synthetic).

use crate::context::{Datasets, TrainedWorkload};
use crate::table::{geomean, pct, ratio, Table};
use snapea::params::NetworkParams;
use snapea::spec_net::{profile_network, NetworkProfile};
use snapea_accel::area::area_of;
use snapea_accel::sim::{simulate, SimReport};
use snapea_accel::workload::network_workload;
use snapea_accel::{AccelConfig, EnergyModel};
use snapea_nn::data::{LabeledImage, SynthShapes};
use snapea_nn::stats;
use snapea_nn::zoo::Workload;
use snapea_obs::Json;
use snapea_tensor::Tensor4;

/// Images used when profiling op counts for the simulator.
pub const SIM_IMAGES: usize = 16;

/// One regenerated experiment: identifier, title, rendered text, and
/// machine-readable payload.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Short id (`fig8`, `table4`, …).
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Rendered output.
    pub text: String,
    /// JSON payload for EXPERIMENTS.md tooling.
    pub json: Json,
}

fn sim_batch(data: &Datasets) -> Tensor4 {
    let refs: Vec<&LabeledImage> = data.eval.iter().take(SIM_IMAGES).collect();
    SynthShapes::batch_refs(&refs)
}

/// Simulates a network's profile on both machines, returning
/// `(snapea_report, eyeriss_report)`.
pub fn simulate_pair(
    trained: &TrainedWorkload,
    batch: &Tensor4,
    profile: &NetworkProfile,
    snapea_cfg: &AccelConfig,
) -> (SimReport, SimReport) {
    let model = EnergyModel::default();
    let wl = network_workload(trained.workload.name(), &trained.net, batch, profile);
    let sn = simulate(snapea_cfg, &model, &wl);
    let ey = simulate(&AccelConfig::eyeriss(), &model, &wl.to_dense());
    (sn, ey)
}

/// Figure 1: fraction of activation-layer inputs that are negative.
pub fn fig1(trained: &[TrainedWorkload], data: &Datasets) -> ExperimentResult {
    let batch = sim_batch(data);
    let mut t = Table::new(vec!["Network", "Negative inputs", "Paper"]);
    let mut vals = Vec::new();
    let mut fractions = Vec::new();
    let paper = [
        (Workload::AlexNet, "~55%"),
        (Workload::GoogLeNet, "~60%"),
        (Workload::SqueezeNet, "~50%"),
        (Workload::VggNet, "~58%"),
    ];
    for tw in trained {
        let s = stats::negative_fraction(&tw.net, &batch);
        let paper_s = paper
            .iter()
            .find(|(w, _)| *w == tw.workload)
            .map(|(_, p)| *p)
            .unwrap_or("-");
        t.row(vec![
            tw.workload.name().to_string(),
            pct(s.overall),
            paper_s.to_string(),
        ]);
        fractions.push(s.overall);
        vals.push(Json::obj(vec![
            ("network", Json::from(tw.workload.name())),
            ("negative_fraction", Json::from(s.overall)),
        ]));
    }
    let avg = fractions.iter().sum::<f64>() / fractions.len().max(1) as f64;
    t.row(vec!["Average".to_string(), pct(avg), "42-68%".to_string()]);
    ExperimentResult {
        id: "fig1",
        title: "Figure 1: fraction of negative activation-layer inputs".into(),
        text: t.render(),
        json: Json::obj(vec![
            ("networks", Json::Arr(vals)),
            ("average", Json::from(avg)),
        ]),
    }
}

/// Figure 2: spatial variation of zero activations across input images
/// (GoogLeNet's intermediate feature maps).
pub fn fig2(trained: &[TrainedWorkload], data: &Datasets) -> ExperimentResult {
    let tw = trained
        .iter()
        .find(|t| t.workload == Workload::GoogLeNet)
        // lint:allow(P1) the experiment driver always trains the full workload set, GoogLeNet included
        .expect("GoogLeNet trained");
    let refs: Vec<&LabeledImage> = data.eval.iter().take(2).collect();
    let batch = SynthShapes::batch_refs(&refs);
    let conv_ids = tw.net.conv_ids();
    let mut t = Table::new(vec![
        "Layer",
        "Zeros (img A)",
        "Zeros (img B)",
        "Jaccard overlap",
    ]);
    let mut rows = Vec::new();
    // A handful of intermediate layers across the depth of the network.
    for &idx in &[
        3usize,
        conv_ids.len() / 3,
        2 * conv_ids.len() / 3,
        conv_ids.len() - 2,
    ] {
        let id = conv_ids[idx.min(conv_ids.len() - 1)];
        let a = stats::zero_map(&tw.net, &batch, id, 0);
        let b = stats::zero_map(&tw.net, &batch, id, 1);
        let j = a.jaccard(&b);
        t.row(vec![
            tw.net.node(id).name.clone(),
            pct(a.zero_fraction()),
            pct(b.zero_fraction()),
            format!("{j:.3}"),
        ]);
        rows.push(Json::obj(vec![
            ("layer", Json::from(tw.net.node(id).name.as_str())),
            ("zero_fraction_a", Json::from(a.zero_fraction())),
            ("zero_fraction_b", Json::from(b.zero_fraction())),
            ("jaccard", Json::from(j)),
        ]));
    }
    let note = "Jaccard < 1 at every depth: zero locations are input-dependent,\n\
                so a static pruning scheme cannot capture them (the paper's Figure 2 insight).";
    ExperimentResult {
        id: "fig2",
        title: "Figure 2: spatial variation of zero activations across inputs".into(),
        text: format!("{}\n{note}\n", t.render()),
        json: Json::obj(vec![("layers", Json::Arr(rows))]),
    }
}

/// Table I: workloads.
pub fn table1(trained: &[TrainedWorkload]) -> ExperimentResult {
    let mut t = Table::new(vec![
        "Network",
        "Year",
        "Mini size (KB)",
        "Paper size (MB)",
        "Conv",
        "FC",
        "Mini accuracy",
        "Paper accuracy",
    ]);
    let mut rows = Vec::new();
    for tw in trained {
        let w = tw.workload;
        let (conv, fc) = w.paper_layer_counts();
        assert_eq!(tw.net.conv_ids().len(), conv, "layer-count fidelity");
        assert_eq!(tw.net.linear_ids().len(), fc, "fc-count fidelity");
        t.row(vec![
            w.name().to_string(),
            w.year().to_string(),
            format!("{:.1}", tw.net.model_size_bytes() as f64 / 1024.0),
            format!("{:.0}", w.paper_model_size_mb()),
            conv.to_string(),
            fc.to_string(),
            pct(tw.eval_accuracy),
            pct(w.paper_accuracy()),
        ]);
        rows.push(Json::obj(vec![
            ("network", Json::from(w.name())),
            ("model_size_bytes", Json::from(tw.net.model_size_bytes())),
            ("conv_layers", Json::from(conv)),
            ("fc_layers", Json::from(fc)),
            ("eval_accuracy", Json::from(tw.eval_accuracy)),
        ]));
    }
    ExperimentResult {
        id: "table1",
        title: "Table I: workloads".into(),
        text: t.render(),
        json: Json::obj(vec![("workloads", Json::Arr(rows))]),
    }
}

/// Table II: design parameters and area.
pub fn table2() -> ExperimentResult {
    let mut t = Table::new(vec!["Design", "Component", "Size", "Area (mm^2)"]);
    let mut rows = Vec::new();
    for (name, cfg) in [
        ("SnaPEA", AccelConfig::snapea()),
        ("EYERISS", AccelConfig::eyeriss()),
    ] {
        let a = area_of(&cfg);
        for item in &a.items {
            t.row(vec![
                name.to_string(),
                item.name.clone(),
                item.size.clone(),
                format!("{:.2}", item.area_mm2),
            ]);
        }
        t.row(vec![
            name.to_string(),
            "TOTAL".to_string(),
            format!(
                "{} PEs x {} lanes @ {} MHz",
                cfg.pe_count(),
                cfg.lanes_per_pe,
                cfg.frequency_mhz
            ),
            format!("{:.1}", a.total_mm2),
        ]);
        rows.push(Json::obj(vec![
            ("design", Json::from(name)),
            ("total_mm2", Json::from(a.total_mm2)),
        ]));
    }
    ExperimentResult {
        id: "table2",
        title: "Table II: design parameters and area (paper: 18.6 vs 17.8 mm^2)".into(),
        text: t.render(),
        json: Json::obj(vec![("designs", Json::Arr(rows))]),
    }
}

/// Table III: energy costs.
pub fn table3() -> ExperimentResult {
    let m = EnergyModel::default();
    let mut t = Table::new(vec!["Operation", "Energy (pJ/bit)", "Relative cost"]);
    let per_bit = [
        m.register_pj_bit,
        m.pe_pj_bit,
        m.inter_pe_pj_bit,
        m.buffer_pj_bit,
        m.dram_pj_bit,
    ];
    let mut rows = Vec::new();
    for ((name, rel), pj) in m.relative_costs().iter().zip(per_bit) {
        t.row(vec![
            name.to_string(),
            format!("{pj:.2}"),
            format!("{rel:.1}"),
        ]);
        rows.push(Json::obj(vec![
            ("operation", Json::from(*name)),
            ("pj_per_bit", Json::from(pj)),
            ("relative", Json::from(*rel)),
        ]));
    }
    ExperimentResult {
        id: "table3",
        title: "Table III: energy model".into(),
        text: t.render(),
        json: Json::obj(vec![("rows", Json::Arr(rows))]),
    }
}

/// `petrace`: cycle-accurate virtual PE timelines for a small deterministic
/// synthetic workload. The layer traces drive `sim/pe/phase` events through
/// the obs sinks (fill/compute/stall per PE on a shared virtual clock), so a
/// repro run's `events.jsonl` can be rendered with `snapea-tool trace
/// <events.jsonl> --pe-trace pe.json` and loaded in Perfetto. The workload
/// is synthetic and untrained — the artefact is the timeline itself, and the
/// experiment runs in milliseconds.
pub fn petrace() -> ExperimentResult {
    use snapea::exec::LayerProfile;
    use snapea_accel::trace::{emit_pe_timeline, trace_network};
    use snapea_accel::workload::{LayerWorkload, NetworkWorkload};

    // Deterministic per-window op counts with enough variance to exercise
    // early termination, stragglers, and the end-of-layer barrier.
    let mk = |name: &str, kernels: usize, windows: usize, wl: usize, stride: usize| {
        let ops: Vec<u32> = (0..2 * kernels * windows)
            .map(|i| ((i * stride) % wl) as u32 + 1)
            .collect();
        LayerWorkload::new(
            name,
            LayerProfile::from_ops(2, kernels, windows, wl, ops),
            (windows * 4) as u64,
        )
    };
    let net = NetworkWorkload {
        name: "petrace".into(),
        layers: vec![
            mk("conv1", 8, 64, 27, 13),
            mk("conv2", 16, 32, 36, 7),
            mk("conv3", 16, 16, 18, 5),
        ],
    };
    let cfg = AccelConfig::snapea();
    let traces = trace_network(&cfg, &net);
    for tr in &traces {
        tr.emit_events();
    }
    let total_cycles = emit_pe_timeline(&traces);

    let mut t = Table::new(vec!["Layer", "Cycles", "Units", "PEs", "Imbalance"]);
    let mut rows = Vec::new();
    for tr in &traces {
        let active = tr.per_pe.iter().filter(|p| p.units > 0).count();
        t.row(vec![
            tr.name.clone(),
            tr.cycles.to_string(),
            tr.units.len().to_string(),
            active.to_string(),
            pct(tr.imbalance()),
        ]);
        rows.push(Json::obj(vec![
            ("layer", Json::from(tr.name.as_str())),
            ("cycles", Json::from(tr.cycles)),
            ("units", Json::from(tr.units.len())),
            ("active_pes", Json::from(active)),
            ("imbalance", Json::from(tr.imbalance())),
        ]));
    }
    let mut text = t.render();
    text.push_str(&format!(
        "total: {total_cycles} cycles across {} layers; render the PE timeline with\n\
         `snapea-tool trace repro-results/<run>/events.jsonl --pe-trace pe-trace.json`\n",
        traces.len()
    ));
    ExperimentResult {
        id: "petrace",
        title: "PE timeline: cycle-accurate fill/compute/stall trace".into(),
        text,
        json: Json::obj(vec![
            ("total_cycles", Json::from(total_cycles)),
            ("layers", Json::Arr(rows)),
        ]),
    }
}

/// Shared engine for Figures 8 and 9: per-network speedup & energy reduction
/// of SnaPEA over the baseline under the given parameter source.
fn overall_benefit(
    id: &'static str,
    title: String,
    trained: &[TrainedWorkload],
    data: &Datasets,
    params_for: impl Fn(&TrainedWorkload) -> NetworkParams,
    paper: &[(Workload, f64, f64)],
) -> ExperimentResult {
    let batch = sim_batch(data);
    let mut t = Table::new(vec![
        "Network",
        "Speedup",
        "Paper speedup",
        "Energy reduction",
        "Paper energy",
        "Eval acc. drop",
    ]);
    let mut speedups = Vec::new();
    let mut energies = Vec::new();
    let mut rows = Vec::new();
    for tw in trained {
        let params = params_for(tw);
        let profile = profile_network(&tw.net, &params, &batch, false);
        if snapea_obs::enabled() {
            // Record which speculation mode each layer runs under for this
            // experiment — the per-layer decision trail of the run log.
            for (layer_id, name, p) in &profile.layers {
                snapea_obs::event!(
                    "optimizer/decision",
                    experiment = id,
                    workload = tw.workload.name(),
                    layer = name.clone(),
                    predictive = params
                        .get(*layer_id)
                        .map(|lp| lp.is_predictive())
                        .unwrap_or(false),
                    ops = p.total_ops(),
                    full_macs = p.full_macs(),
                );
            }
        }
        let (sn, ey) = simulate_pair(tw, &batch, &profile, &AccelConfig::snapea());
        let sp = sn.speedup_over(&ey);
        let er = sn.energy_reduction_over(&ey);
        // Held-out accuracy drop under the chosen parameters, measured
        // against the dense network on the same subset.
        let eval_subset = &data.eval[..data.eval.len().min(100)];
        let dense = NetworkParams::new();
        let base_acc = snapea::spec_net::SpecNet::new(&tw.net, &dense).accuracy(eval_subset);
        let spec = snapea::spec_net::SpecNet::new(&tw.net, &params);
        let spec_acc = spec.accuracy(eval_subset);
        let acc_drop = base_acc - spec_acc;
        let (psp, per) = paper
            .iter()
            .find(|(w, _, _)| *w == tw.workload)
            .map(|(_, s, e)| (*s, *e))
            .unwrap_or((f64::NAN, f64::NAN));
        t.row(vec![
            tw.workload.name().to_string(),
            ratio(sp),
            ratio(psp),
            ratio(er),
            ratio(per),
            format!("{:.1} pp", acc_drop * 100.0),
        ]);
        speedups.push(sp);
        energies.push(er);
        rows.push(Json::obj(vec![
            ("network", Json::from(tw.workload.name())),
            ("speedup", Json::from(sp)),
            ("energy_reduction", Json::from(er)),
            ("snapea_cycles", Json::from(sn.cycles)),
            ("eyeriss_cycles", Json::from(ey.cycles)),
            ("snapea_pj", Json::from(sn.total_pj())),
            ("eyeriss_pj", Json::from(ey.total_pj())),
            ("eval_accuracy_drop", Json::from(acc_drop)),
        ]));
    }
    let gs = geomean(&speedups);
    let ge = geomean(&energies);
    let paper_gs = geomean(&paper.iter().map(|(_, s, _)| *s).collect::<Vec<_>>());
    let paper_ge = geomean(&paper.iter().map(|(_, _, e)| *e).collect::<Vec<_>>());
    t.row(vec![
        "Geomean".to_string(),
        ratio(gs),
        ratio(paper_gs),
        ratio(ge),
        ratio(paper_ge),
        String::new(),
    ]);
    ExperimentResult {
        id,
        title,
        text: t.render(),
        json: Json::obj(vec![
            ("networks", Json::Arr(rows)),
            ("geomean_speedup", Json::from(gs)),
            ("geomean_energy", Json::from(ge)),
        ]),
    }
}

/// Figure 8: exact-mode speedup and energy reduction over the baseline.
pub fn fig8(trained: &[TrainedWorkload], data: &Datasets) -> ExperimentResult {
    // Paper's per-network readings (Figure 8 bars, approximate).
    let paper = [
        (Workload::AlexNet, 1.26, 1.15),
        (Workload::GoogLeNet, 1.35, 1.18),
        (Workload::SqueezeNet, 1.30, 1.14),
        (Workload::VggNet, 1.26, 1.15),
    ];
    overall_benefit(
        "fig8",
        "Figure 8: exact mode vs EYERISS (paper avg 1.28x speedup, 1.16x energy)".into(),
        trained,
        data,
        |_| NetworkParams::new(),
        &paper,
    )
}

/// Figure 9: predictive-mode speedup and energy reduction at ≤3% accuracy
/// loss.
pub fn fig9(
    trained: &[TrainedWorkload],
    data: &Datasets,
    params3: &dyn Fn(&TrainedWorkload) -> NetworkParams,
) -> ExperimentResult {
    let paper = [
        (Workload::AlexNet, 1.85, 1.55),
        (Workload::GoogLeNet, 2.08, 1.63),
        (Workload::SqueezeNet, 1.80, 1.42),
        (Workload::VggNet, 1.90, 1.53),
    ];
    overall_benefit(
        "fig9",
        "Figure 9: predictive mode @ <=3% accuracy loss vs EYERISS (paper avg ~1.9x)".into(),
        trained,
        data,
        |tw| params3(tw),
        &paper,
    )
}

/// Figure 10: per-conv-layer speedup distribution in predictive mode.
pub fn fig10(
    trained: &[TrainedWorkload],
    data: &Datasets,
    params3: &dyn Fn(&TrainedWorkload) -> NetworkParams,
) -> ExperimentResult {
    let batch = sim_batch(data);
    let mut t = Table::new(vec![
        "Network",
        "Min layer",
        "Min",
        "Max layer",
        "Max",
        "Median",
    ]);
    let mut rows = Vec::new();
    for tw in trained {
        let params = params3(tw);
        let profile = profile_network(&tw.net, &params, &batch, false);
        let (sn, ey) = simulate_pair(tw, &batch, &profile, &AccelConfig::snapea());
        let mut per_layer: Vec<(String, f64)> = sn
            .per_layer
            .iter()
            .zip(&ey.per_layer)
            .map(|(s, e)| (s.name.clone(), e.cycles as f64 / s.cycles.max(1) as f64))
            .collect();
        per_layer.sort_by(|a, b| a.1.total_cmp(&b.1));
        // lint:allow(P1) every network has at least one simulated layer
        let (min_name, min_v) = per_layer.first().expect("layers exist").clone();
        // lint:allow(P1) every network has at least one simulated layer
        let (max_name, max_v) = per_layer.last().expect("layers exist").clone();
        let med = per_layer[per_layer.len() / 2].1;
        t.row(vec![
            tw.workload.name().to_string(),
            min_name.clone(),
            ratio(min_v),
            max_name.clone(),
            ratio(max_v),
            ratio(med),
        ]);
        rows.push(Json::obj(vec![
            ("network", Json::from(tw.workload.name())),
            (
                "layers",
                Json::from(
                    per_layer
                        .iter()
                        .map(|(n, v)| {
                            Json::obj(vec![
                                ("layer", Json::from(n.as_str())),
                                ("speedup", Json::from(*v)),
                            ])
                        })
                        .collect::<Vec<_>>(),
                ),
            ),
        ]));
    }
    let note =
        "Paper: max 3.59x (GoogLeNet inception_4e/1x1), min 1.17x (inception_4e/5x5_reduce).";
    ExperimentResult {
        id: "fig10",
        title: "Figure 10: per-layer speedup range in predictive mode".into(),
        text: format!("{}\n{note}\n", Table::render(&t)),
        json: Json::obj(vec![("networks", Json::Arr(rows))]),
    }
}

/// Table IV: fraction of conv layers in predictive mode and their average
/// speedup/energy reduction.
pub fn table4(
    trained: &[TrainedWorkload],
    data: &Datasets,
    params3: &dyn Fn(&TrainedWorkload) -> NetworkParams,
) -> ExperimentResult {
    let batch = sim_batch(data);
    let mut t = Table::new(vec![
        "Network",
        "% predictive layers",
        "Paper %",
        "Avg speedup",
        "Paper",
        "Avg energy red.",
        "Paper",
    ]);
    let paper = [
        (Workload::AlexNet, 60.0, 2.11, 1.97),
        (Workload::GoogLeNet, 84.21, 2.17, 2.04),
        (Workload::SqueezeNet, 65.38, 1.94, 1.84),
        (Workload::VggNet, 61.50, 1.87, 1.73),
    ];
    let mut rows = Vec::new();
    let mut fracs = Vec::new();
    for tw in trained {
        let params = params3(tw);
        let profile = profile_network(&tw.net, &params, &batch, false);
        let (sn, ey) = simulate_pair(tw, &batch, &profile, &AccelConfig::snapea());
        let conv_ids = tw.net.conv_ids();
        let predictive: Vec<usize> = conv_ids
            .iter()
            .enumerate()
            .filter(|(_, id)| params.get(**id).map(|p| p.is_predictive()).unwrap_or(false))
            .map(|(i, _)| i)
            .collect();
        let frac = predictive.len() as f64 / conv_ids.len() as f64;
        fracs.push(frac);
        let (speedups, energies): (Vec<f64>, Vec<f64>) = predictive
            .iter()
            .map(|&i| {
                let s = &sn.per_layer[i];
                let e = &ey.per_layer[i];
                (
                    e.cycles as f64 / s.cycles.max(1) as f64,
                    e.energy.total_pj() / s.energy.total_pj().max(f64::MIN_POSITIVE),
                )
            })
            .unzip();
        let avg_sp = if speedups.is_empty() {
            1.0
        } else {
            geomean(&speedups)
        };
        let avg_en = if energies.is_empty() {
            1.0
        } else {
            geomean(&energies)
        };
        let (pf, ps, pe) = paper
            .iter()
            .find(|(w, _, _, _)| *w == tw.workload)
            .map(|(_, f, s, e)| (*f, *s, *e))
            .unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        t.row(vec![
            tw.workload.name().to_string(),
            pct(frac),
            format!("{pf:.1}%"),
            ratio(avg_sp),
            ratio(ps),
            ratio(avg_en),
            ratio(pe),
        ]);
        rows.push(Json::obj(vec![
            ("network", Json::from(tw.workload.name())),
            ("predictive_fraction", Json::from(frac)),
            ("avg_layer_speedup", Json::from(avg_sp)),
            ("avg_layer_energy_reduction", Json::from(avg_en)),
        ]));
    }
    let avg_frac = fracs.iter().sum::<f64>() / fracs.len().max(1) as f64;
    ExperimentResult {
        id: "table4",
        title: format!(
            "Table IV: predictive-mode layers @ <=3% loss (avg {} vs paper 67.8%)",
            pct(avg_frac)
        ),
        text: t.render(),
        json: Json::obj(vec![
            ("networks", Json::Arr(rows)),
            ("average_fraction", Json::from(avg_frac)),
        ]),
    }
}

/// Table V: true/false negative rates of the predictive mechanism.
pub fn table5(
    trained: &[TrainedWorkload],
    data: &Datasets,
    params3: &dyn Fn(&TrainedWorkload) -> NetworkParams,
) -> ExperimentResult {
    let batch = sim_batch(data);
    let mut t = Table::new(vec![
        "Network",
        "True negative rate",
        "Paper TN",
        "False negative rate",
        "Paper FN",
        "Squashed positive mass",
    ]);
    let paper = [
        (Workload::AlexNet, 61.84, 21.39),
        (Workload::GoogLeNet, 66.36, 28.37),
        (Workload::SqueezeNet, 49.32, 16.69),
        (Workload::VggNet, 47.54, 15.21),
    ];
    let mut rows = Vec::new();
    for tw in trained {
        let params = params3(tw);
        let profile = profile_network(&tw.net, &params, &batch, true);
        let s = profile.stats;
        let (ptn, pfn) = paper
            .iter()
            .find(|(w, _, _)| *w == tw.workload)
            .map(|(_, t, f)| (*t, *f))
            .unwrap_or((f64::NAN, f64::NAN));
        t.row(vec![
            tw.workload.name().to_string(),
            pct(s.true_negative_rate()),
            format!("{ptn:.1}%"),
            pct(s.false_negative_rate()),
            format!("{pfn:.1}%"),
            pct(s.squashed_mass_fraction()),
        ]);
        rows.push(Json::obj(vec![
            ("network", Json::from(tw.workload.name())),
            ("true_negative_rate", Json::from(s.true_negative_rate())),
            ("false_negative_rate", Json::from(s.false_negative_rate())),
            (
                "squashed_mass_fraction",
                Json::from(s.squashed_mass_fraction()),
            ),
        ]));
    }
    ExperimentResult {
        id: "table5",
        title: "Table V: prediction accuracy in predictive mode (paper avg TN 56.3%, FN 20.4%)"
            .into(),
        text: t.render(),
        json: Json::obj(vec![("networks", Json::Arr(rows))]),
    }
}

/// Figure 11: speedup as the accuracy-loss knob sweeps 0–3%.
pub fn fig11(
    trained: &[TrainedWorkload],
    data: &Datasets,
    params_at: &dyn Fn(&TrainedWorkload, f64) -> NetworkParams,
) -> ExperimentResult {
    let batch = sim_batch(data);
    let epsilons = [0.0, 0.01, 0.02, 0.03];
    let mut header = vec!["Network".to_string()];
    header.extend(epsilons.iter().map(|e| format!("loss<={}", pct(*e))));
    let mut t = Table::new(header);
    let mut rows = Vec::new();
    let mut per_eps: Vec<Vec<f64>> = vec![Vec::new(); epsilons.len()];
    for tw in trained {
        let mut cells = vec![tw.workload.name().to_string()];
        let mut series = Vec::new();
        // The feasible sets nest: any parameters acceptable at budget ε are
        // acceptable at every ε' ≥ ε, so the knob's true value at ε is the
        // best solution found at any budget up to ε (running maximum). This
        // smooths the greedy optimizer's run-to-run noise.
        let mut best = 0.0f64;
        for (i, &eps) in epsilons.iter().enumerate() {
            let params = if eps == 0.0 {
                NetworkParams::new() // pure exact mode
            } else {
                params_at(tw, eps)
            };
            let profile = profile_network(&tw.net, &params, &batch, false);
            let (sn, ey) = simulate_pair(tw, &batch, &profile, &AccelConfig::snapea());
            best = best.max(sn.speedup_over(&ey));
            cells.push(ratio(best));
            per_eps[i].push(best);
            series.push(Json::obj(vec![
                ("epsilon", Json::from(eps)),
                ("speedup", Json::from(best)),
            ]));
        }
        t.row(cells);
        rows.push(Json::obj(vec![
            ("network", Json::from(tw.workload.name())),
            ("series", Json::Arr(series)),
        ]));
    }
    let mut geo = vec!["Geomean".to_string()];
    for col in &per_eps {
        geo.push(ratio(geomean(col)));
    }
    t.row(geo);
    let note = "Paper geomeans: 1.28x / 1.38x / 1.63x / 1.90x at 0/1/2/3% loss.";
    ExperimentResult {
        id: "fig11",
        title: "Figure 11: speedup vs accuracy-loss knob".into(),
        text: format!("{}\n{note}\n", t.render()),
        json: Json::obj(vec![("networks", Json::Arr(rows))]),
    }
}

/// Figure 12: sensitivity to the number of compute lanes per PE.
pub fn fig12(
    trained: &[TrainedWorkload],
    data: &Datasets,
    params3: &dyn Fn(&TrainedWorkload) -> NetworkParams,
) -> ExperimentResult {
    let batch = sim_batch(data);
    let scales: [(usize, usize, &str); 4] = [
        (1, 2, "0.5x"),
        (1, 1, "default"),
        (2, 1, "2x"),
        (4, 1, "4x"),
    ];
    let mut header = vec!["Network".to_string()];
    header.extend(scales.iter().map(|(_, _, n)| format!("lanes {n}")));
    let mut t = Table::new(header);
    let mut rows = Vec::new();
    let mut per_scale: Vec<Vec<f64>> = vec![Vec::new(); scales.len()];
    for tw in trained {
        let params = params3(tw);
        let profile = profile_network(&tw.net, &params, &batch, false);
        let model = EnergyModel::default();
        let wl = network_workload(tw.workload.name(), &tw.net, &batch, &profile);
        let ey = simulate(&AccelConfig::eyeriss(), &model, &wl.to_dense());
        let mut cells = vec![tw.workload.name().to_string()];
        let mut series = Vec::new();
        for (i, (num, den, _label)) in scales.iter().enumerate() {
            let cfg = AccelConfig::snapea_lanes_scaled(*num, *den);
            let sn = simulate(&cfg, &model, &wl);
            let sp = sn.speedup_over(&ey);
            cells.push(ratio(sp));
            per_scale[i].push(sp);
            series.push(Json::obj(vec![
                ("lanes", Json::from(*_label)),
                ("speedup", Json::from(sp)),
            ]));
        }
        t.row(cells);
        rows.push(Json::obj(vec![
            ("network", Json::from(tw.workload.name())),
            ("series", Json::Arr(series)),
        ]));
    }
    let mut geo = vec!["Geomean".to_string()];
    for col in &per_scale {
        geo.push(ratio(geomean(col)));
    }
    t.row(geo);
    let note = "Paper: 0.5x lanes ~-26%, 2x ~-36%, 4x ~-45% vs the default 4-lane PEs.";
    ExperimentResult {
        id: "fig12",
        title: "Figure 12: speedup sensitivity to compute lanes per PE (@ <=3% loss)".into(),
        text: format!("{}\n{note}\n", t.render()),
        json: Json::obj(vec![("networks", Json::Arr(rows))]),
    }
}

/// Artifact cold start: `compile` time versus reloading the serialized
/// `.snapea` artifact, which runs the same layer derivation after decoding
/// (neither runs Algorithm 1: its parameters are an input). Bit-identity of
/// the loaded model's forward pass against the freshly-compiled one is
/// asserted, not just reported.
pub fn artifact(
    trained: &[TrainedWorkload],
    data: &Datasets,
    params3: &dyn Fn(&TrainedWorkload) -> NetworkParams,
) -> ExperimentResult {
    use snapea::artifact::{fnv64, CompiledModel};
    use snapea_obs::span::Stopwatch;
    use snapea_tensor::q16::Q16Format;

    let batch = sim_batch(data);
    let shape = batch.shape();
    let dims = (shape.c, shape.h, shape.w);
    let mut t = Table::new(vec![
        "Network",
        "Compile ms",
        "Load ms",
        "Bytes",
        "Pred. layers",
    ]);
    let mut rows = Vec::new();
    for tw in trained {
        let params = params3(tw);
        let sw = Stopwatch::start();
        let compiled = CompiledModel::compile(&tw.net, &params, dims, Q16Format::default());
        let compile_ms = sw.elapsed_ms();
        let (bytes, sizes) = compiled.to_bytes_sized();
        let sw = Stopwatch::start();
        let loaded = CompiledModel::from_bytes(&bytes)
            // lint:allow(P1) a freshly serialized artifact always loads
            .expect("freshly serialized artifact loads");
        let load_ms = sw.elapsed_ms();
        let fresh = compiled.forward(&batch);
        let reloaded = loaded.forward(&batch);
        assert_eq!(fresh.len(), reloaded.len(), "{}", tw.workload.name());
        for (i, (a, b)) in fresh.iter().zip(&reloaded).enumerate() {
            assert!(
                a.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{}: activation {i} differs between fresh and loaded execution",
                tw.workload.name()
            );
        }
        let kernels: usize = compiled.layers().iter().map(|l| l.kernels().len()).sum();
        t.row(vec![
            tw.workload.name().to_string(),
            format!("{compile_ms:.2}"),
            format!("{load_ms:.2}"),
            sizes.total().to_string(),
            compiled.layers().len().to_string(),
        ]);
        rows.push(Json::obj(vec![
            ("network", Json::from(tw.workload.name())),
            ("compile_ms", Json::from(compile_ms)),
            ("load_ms", Json::from(load_ms)),
            ("bytes", Json::from(sizes.total())),
            ("digest", Json::from(format!("{:#018x}", fnv64(&bytes)))),
            (
                "sections",
                Json::obj(vec![
                    ("header", Json::from(sizes.header)),
                    ("meta", Json::from(sizes.meta)),
                    ("graph", Json::from(sizes.graph)),
                    ("params", Json::from(sizes.params)),
                ]),
            ),
            ("predictive_layers", Json::from(compiled.layers().len())),
            ("predictive_kernels", Json::from(kernels)),
            ("bit_identical", Json::from(true)),
        ]));
    }
    let note = "Compile and load derive the same layers (load decodes first); timings are \
                wall-clock and machine-dependent, bit-identity is asserted.";
    ExperimentResult {
        id: "artifact",
        title: "Artifact cold start: compile once, reload bit-identically".into(),
        text: format!("{}\n{note}\n", t.render()),
        json: Json::obj(vec![("networks", Json::Arr(rows))]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        let t2 = table2();
        assert!(t2.text.contains("SnaPEA"));
        assert!(t2.text.contains("EYERISS"));
        let t3 = table3();
        assert!(t3.text.contains("DDR4"));
        assert_eq!(
            t3.json
                .get("rows")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(5)
        );
    }
}
