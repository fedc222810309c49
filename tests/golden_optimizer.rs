//! Golden digests of Algorithm 1's outcome.
//!
//! `Optimizer::run` is hashed with FNV-1a-64 — every `(layer id,
//! LayerParams)` with each kernel's mode, threshold bits and group count;
//! the bits of the baseline and final accuracies; the exact, final and
//! full op totals; the Global-pass iteration count; and every
//! `LayerDecision` — for two zoo networks at their seeded initialisation.
//! The images are SynthShapes images relabelled with the dense network's
//! own top-1, so the unspeculated network scores 1.0 and speculation has
//! accuracy to lose: on both networks the Global pass makes at least
//! [`MIN_MOVES`] ADJUSTPARAM moves, each steered by the accuracy its probe
//! measured, so a probe that computed other activations would change the
//! digest (GoogLeNet's Inception branches give a move several dirty
//! consumers).
//!
//! On an intentional numerical change, the failure message prints the new
//! digest to commit.

mod golden_common;

use golden_common::{images, Fnv};
use snapea_suite::core::optimizer::{OptimizeOutcome, Optimizer, OptimizerConfig};
use snapea_suite::core::params::{KernelMode, LayerParams};
use snapea_suite::nn::data::{LabeledImage, SynthShapes};
use snapea_suite::nn::graph::Graph;
use snapea_suite::nn::loss::argmax_rows;
use snapea_suite::nn::zoo::Workload;

/// `(workload, images, ε, outcome digest)`.
const GOLDEN: [(Workload, usize, f64, u64); 2] = [
    (Workload::SqueezeNet, 8, 0.03, 0xdb8d_8d17_6ee8_25c9),
    (Workload::GoogLeNet, 16, 0.1, 0x84b8_f63d_2299_485b),
];

/// Fewest Global-pass moves each case must make, so the digest always
/// covers a run of incremental probes.
const MIN_MOVES: usize = 20;

/// `n` of the fixed images, labelled with `net`'s own dense top-1.
fn self_labelled(net: &Graph, n: usize) -> Vec<LabeledImage> {
    let mut data = images(n);
    let top1 = argmax_rows(&net.logits(&SynthShapes::batch(&data)));
    for (d, label) in data.iter_mut().zip(top1) {
        d.label = label;
    }
    data
}

fn outcome_digest(out: &OptimizeOutcome) -> u64 {
    let mut h = Fnv::new();
    for (id, p) in out.params.iter() {
        h.u64(id as u64);
        match p {
            LayerParams::Exact => h.bytes(&[0]),
            LayerParams::Predictive(modes) => {
                h.bytes(&[1]);
                h.u64(modes.len() as u64);
                for m in modes {
                    match m {
                        KernelMode::Exact => h.bytes(&[0]),
                        KernelMode::Speculate(k) => {
                            h.bytes(&[1]);
                            h.bytes(&k.threshold.to_bits().to_le_bytes());
                            h.u64(k.groups as u64);
                        }
                    }
                }
            }
        }
    }
    h.u64(out.baseline_accuracy.to_bits());
    h.u64(out.final_accuracy.to_bits());
    for v in [out.exact_ops, out.final_ops, out.full_macs] {
        h.u64(v);
    }
    h.u64(out.global_iterations as u64);
    for d in &out.per_layer {
        h.u64(d.layer as u64);
        h.bytes(d.name.as_bytes());
        h.bytes(&[u8::from(d.predictive)]);
        for v in [d.ops, d.exact_ops, d.full_macs] {
            h.u64(v);
        }
    }
    h.0
}

#[test]
fn optimizer_outcomes_match_golden_digests() {
    let got: Vec<(Workload, usize, f64, u64)> = GOLDEN
        .iter()
        .map(|&(w, n, epsilon, _)| {
            let net = w.build(10);
            let data = self_labelled(&net, n);
            let out = Optimizer::new(&net, &data, OptimizerConfig::with_epsilon(epsilon)).run();
            assert!(
                out.global_iterations >= MIN_MOVES,
                "{}: {} Global-pass moves, want at least {MIN_MOVES}",
                w.name(),
                out.global_iterations
            );
            (w, n, epsilon, outcome_digest(&out))
        })
        .collect();
    let report: Vec<String> = got
        .iter()
        .map(|(w, _, _, d)| format!("{}: {d:#018x}", w.name()))
        .collect();
    assert_eq!(got, GOLDEN, "optimizer digests: {}", report.join(", "));
}
