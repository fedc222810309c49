//! Ablation studies of SnaPEA's design choices (DESIGN.md §3):
//!
//! 1. **Speculative-weight selection** — the paper (§IV-A) argues that
//!    picking the `N` largest-magnitude weights outright "drastically
//!    declines" accuracy, because it ignores the data-dependent inputs the
//!    small weights multiply; group-based selection (ascending sort → `N`
//!    groups → one largest-magnitude representative each) keeps small weights
//!    in play. This experiment pits the two against each other at equal `N`
//!    and threshold-selection policy.
//! 2. **Sign reordering on/off** — exact mode with reordering vs a
//!    sign-check-only machine that keeps the original weight order (sound
//!    only once the remaining weights are all negative; here we emulate by
//!    disabling reordering, which collapses savings).

use crate::context::{Datasets, TrainedWorkload};
use crate::table::{pct, Table};
use snapea::exec::{
    execute_conv_stats, layer_plan, observe_kernel, KernelExec, LayerConfig, PredictionStats,
    WindowObs, WindowPlan,
};
use snapea::optimizer::profiling::{negative_prefixes, threshold_at};
use snapea::params::KernelParams;
use snapea::pau::Pau;
use snapea::reorder::{magnitude_reorder, predictive_reorder, ReorderedKernel};
use snapea_nn::data::{LabeledImage, SynthShapes};
use snapea_nn::loss::accuracy;
use snapea_obs::Json;
use snapea_tensor::Tensor4;

use crate::experiments::ExperimentResult;

/// The kernel `r` speculating at the `q`-quantile of the speculative partial
/// sums of truly-negative windows over `input`, read off the executor's
/// observed walk (under a `-inf` threshold only sign checks fire); the
/// threshold is `-inf` (never fires) when no window is negative.
fn with_threshold(
    r: ReorderedKernel,
    plan: &WindowPlan,
    input: &Tensor4,
    bias: f32,
    q: f64,
) -> KernelExec {
    let groups = r.spec_len();
    let pau = Pau::predictive(&r, KernelParams::new(f32::NEG_INFINITY, groups));
    let mut kernel = KernelExec::new(r, pau);
    let mut obs = vec![WindowObs::default(); input.shape().n * plan.windows()];
    observe_kernel(plan, &kernel, bias, input, &mut obs);
    let th = threshold_at(&negative_prefixes(&obs), q).unwrap_or(f32::NEG_INFINITY);
    kernel.pau = Pau::predictive(&kernel.reordered, KernelParams::new(th, groups));
    kernel
}

/// Runs a whole network with every conv layer speculating through the given
/// reordering strategy; returns `(accuracy, executed_ops, full_macs)`.
fn run_with_strategy(
    tw: &TrainedWorkload,
    images: &[LabeledImage],
    n: usize,
    quantile: f64,
    strategy: impl Fn(&[f32], usize) -> ReorderedKernel,
) -> (f64, u64, u64, PredictionStats) {
    let refs: Vec<&LabeledImage> = images.iter().collect();
    let batch = SynthShapes::batch_refs(&refs);
    let acts = tw.net.forward(&batch);
    let mut ops = 0u64;
    let mut full = 0u64;
    let mut stats = PredictionStats::default();
    let spec_acts = tw.net.forward_with(&batch, &mut |id, conv, x| {
        // Served from the executor's memoised plan cache — the same layer
        // geometry recurs for every strategy/quantile combination.
        let plan = layer_plan(x.shape(), conv.geom(), conv.c_in());
        let clean = &acts[tw.net.node(id).inputs[0]];
        let kernels: Vec<KernelExec> = (0..conv.c_out())
            .map(|k| {
                let weights = conv.weight().item(k);
                let r = strategy(weights, n.min(weights.len()));
                with_threshold(r, &plan, clean, conv.bias()[k], quantile)
            })
            .collect();
        let result = execute_conv_stats(conv, x, &LayerConfig::from_kernels(kernels));
        ops += result.profile.total_ops();
        full += result.profile.full_macs();
        stats.merge(&result.stats);
        Some(result.output)
    });
    let labels: Vec<usize> = images.iter().map(|d| d.label).collect();
    let acc = spec_acts
        .last()
        .map_or(0.0, |out| accuracy(&out.to_matrix(), &labels));
    (acc, ops, full, stats)
}

/// Ablation: group-based vs magnitude-based speculative-weight selection.
pub fn ablation_selection(trained: &[TrainedWorkload], data: &Datasets) -> ExperimentResult {
    let images = &data.eval[..data.eval.len().min(64)];
    let mut t = Table::new(vec![
        "Network",
        "Strategy",
        "Accuracy",
        "Acc. drop",
        "MACs saved",
        "TN rate",
        "FN rate",
    ]);
    let mut rows = Vec::new();
    for tw in trained {
        let base = tw.eval_accuracy;
        for (label, strat) in [
            (
                "group (paper)",
                predictive_reorder as fn(&[f32], usize) -> ReorderedKernel,
            ),
            (
                "magnitude",
                magnitude_reorder as fn(&[f32], usize) -> ReorderedKernel,
            ),
        ] {
            let (acc, ops, full, stats) = run_with_strategy(tw, images, 8, 0.9, strat);
            let saved = 1.0 - ops as f64 / full as f64;
            t.row(vec![
                tw.workload.name().to_string(),
                label.to_string(),
                pct(acc),
                format!("{:.1} pp", (base - acc) * 100.0),
                pct(saved),
                pct(stats.true_negative_rate()),
                pct(stats.false_negative_rate()),
            ]);
            rows.push(Json::obj(vec![
                ("network", Json::from(tw.workload.name())),
                ("strategy", Json::from(label)),
                ("accuracy", Json::from(acc)),
                ("accuracy_drop", Json::from(base - acc)),
                ("mac_savings", Json::from(saved)),
                ("true_negative_rate", Json::from(stats.true_negative_rate())),
                (
                    "false_negative_rate",
                    Json::from(stats.false_negative_rate()),
                ),
            ]));
        }
    }
    let note = "Paper §IV-A claims magnitude-only selection 'drastically declines' accuracy.\n\
                REPRODUCTION FINDING: with per-kernel conditional-quantile thresholds (both\n\
                strategies targeting the same true-negative coverage), magnitude selection\n\
                shows the LOWER false-negative rate on the mini workloads: at window lengths\n\
                of ~100-400 the few largest-magnitude weights carry most of the dot product's\n\
                variance, so their partial sum is the better sign predictor. The paper's claim\n\
                plausibly holds at ImageNet window lengths (1000+) and under its own threshold\n\
                procedure; see EXPERIMENTS.md for discussion.";
    ExperimentResult {
        id: "ablation_selection",
        title: "Ablation: speculative-weight selection strategy (N=8, q=0.9 thresholds)".into(),
        text: format!("{}\n{note}\n", t.render()),
        json: Json::obj(vec![("rows", Json::Arr(rows))]),
    }
}

/// Extension: PE-array scaling (paper §VI-A notes "the SnaPEA architecture
/// can be scaled up to larger numbers of PEs"). Sweeps the array dimension
/// at 4 lanes/PE and reports speedup over the 256-MAC baseline plus
/// utilisation — showing where mini-workload parallelism saturates.
pub fn sweep_pe_array(trained: &[TrainedWorkload], data: &Datasets) -> ExperimentResult {
    use snapea::params::NetworkParams;
    use snapea::spec_net::profile_network;
    use snapea_accel::sim::simulate;
    use snapea_accel::workload::network_workload;
    use snapea_accel::{AccelConfig, EnergyModel};

    let refs: Vec<&LabeledImage> = data.eval.iter().take(8).collect();
    let batch = SynthShapes::batch_refs(&refs);
    let model = EnergyModel::default();
    let dims = [4usize, 8, 12, 16];
    let mut header = vec!["Network".to_string()];
    for d in dims {
        header.push(format!("{d}x{d} ({} MACs)", d * d * 4));
    }
    let mut t = Table::new(header);
    let mut rows = Vec::new();
    for tw in trained {
        let profile = profile_network(&tw.net, &NetworkParams::new(), &batch, false);
        let wl = network_workload(tw.workload.name(), &tw.net, &batch, &profile);
        let ey = simulate(&AccelConfig::eyeriss(), &model, &wl.to_dense());
        let mut cells = vec![tw.workload.name().to_string()];
        let mut series = Vec::new();
        for d in dims {
            let cfg = AccelConfig {
                pe_rows: d,
                pe_cols: d,
                ..AccelConfig::snapea()
            };
            let sn = simulate(&cfg, &model, &wl);
            let sp = sn.speedup_over(&ey);
            cells.push(format!("{sp:.2}x @{:.0}%", sn.utilization() * 100.0));
            series.push(Json::obj(vec![
                ("dim", Json::from(d)),
                ("speedup", Json::from(sp)),
                ("utilization", Json::from(sn.utilization())),
            ]));
        }
        t.row(cells);
        rows.push(Json::obj(vec![
            ("network", Json::from(tw.workload.name())),
            ("series", Json::Arr(series)),
        ]));
    }
    let note = "Exact mode, speedup vs the fixed 256-MAC baseline. Throughput grows with the\n\
                array until the mini workloads run out of parallel windows and utilisation\n\
                collapses — the scaling head-room the paper alludes to is workload-bound.";
    ExperimentResult {
        id: "sweep_pes",
        title: "Extension: PE-array scaling at 4 lanes/PE".into(),
        text: format!("{}\n{note}\n", t.render()),
        json: Json::obj(vec![("networks", Json::Arr(rows))]),
    }
}

/// Related-work comparison (paper §VII): Cnvlutin-style input-zero skipping
/// vs SnaPEA's exact early termination vs the two combined, as MAC-level
/// savings per network. The paper argues the approaches are orthogonal; the
/// combined column quantifies that.
pub fn related_zeroskip(trained: &[TrainedWorkload], data: &Datasets) -> ExperimentResult {
    use snapea::exec::{combined_profile, execute_conv, zero_skip_profile};
    use snapea_nn::graph::Op;

    let refs: Vec<&LabeledImage> = data.eval.iter().take(8).collect();
    let batch = SynthShapes::batch_refs(&refs);
    let mut t = Table::new(vec![
        "Network",
        "SnaPEA exact",
        "Zero-skip (Cnvlutin-like)",
        "Combined",
    ]);
    let mut rows = Vec::new();
    for tw in trained {
        let acts = tw.net.forward(&batch);
        let (mut sn, mut zs, mut co, mut full) = (0u64, 0u64, 0u64, 0u64);
        for id in tw.net.conv_ids() {
            if !tw.net.feeds_only_relu(id) {
                continue;
            }
            let Op::Conv(conv) = &tw.net.node(id).op else {
                // lint:allow(P1) conv_ids yields only nodes whose op is Op::Conv
                unreachable!("conv_ids returns conv nodes");
            };
            let input = &acts[tw.net.node(id).inputs[0]];
            let cfg = LayerConfig::exact(conv);
            let p_sn = execute_conv(conv, input, &cfg).profile;
            let p_zs = zero_skip_profile(conv, input);
            let p_co = combined_profile(conv, input, &cfg);
            sn += p_sn.total_ops();
            zs += p_zs.total_ops();
            co += p_co.total_ops();
            full += p_sn.full_macs();
        }
        let sav = |ops: u64| 1.0 - ops as f64 / full as f64;
        t.row(vec![
            tw.workload.name().to_string(),
            pct(sav(sn)),
            pct(sav(zs)),
            pct(sav(co)),
        ]);
        rows.push(Json::obj(vec![
            ("network", Json::from(tw.workload.name())),
            ("snapea_savings", Json::from(sav(sn))),
            ("zero_skip_savings", Json::from(sav(zs))),
            ("combined_savings", Json::from(sav(co))),
        ]));
    }
    let note = "MAC-level savings over the dense convolution (exact mode, no accuracy loss\n\
                anywhere). Zero-skipping exploits input sparsity, SnaPEA exploits output\n\
                negativity; combined > max(either) confirms the paper's orthogonality claim.";
    ExperimentResult {
        id: "related_zeroskip",
        title: "Related work: input-zero skipping vs early termination vs combined".into(),
        text: format!("{}\n{note}\n", t.render()),
        json: Json::obj(vec![("rows", Json::Arr(rows))]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapea_nn::zoo::Workload;

    #[test]
    fn strategies_run_and_save_macs() {
        // Untrained net is fine for a smoke test of the machinery.
        let net = Workload::AlexNet.build(4);
        let tw = TrainedWorkload {
            workload: Workload::AlexNet,
            net,
            eval_accuracy: 0.25,
        };
        let images = SynthShapes::new(snapea_nn::zoo::INPUT_SIZE, 4).generate(4, 1);
        let (acc_g, ops_g, full, _) = run_with_strategy(&tw, &images, 4, 0.9, predictive_reorder);
        let (acc_m, ops_m, _, _) = run_with_strategy(&tw, &images, 4, 0.9, magnitude_reorder);
        assert!(ops_g < full && ops_m < full);
        assert!((0.0..=1.0).contains(&acc_g));
        assert!((0.0..=1.0).contains(&acc_m));
    }
}
