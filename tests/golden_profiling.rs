//! Golden digests of Algorithm 1's Kernel Profiling pass.
//!
//! Every `profile_layer_kernels` table — candidate count, then per
//! candidate its mode (threshold bits and group count when speculative),
//! op count and surrogate-error bits — is hashed with FNV-1a-64 for every
//! ReLU-fed conv of the four zoo networks at their seeded initialisation,
//! on the golden batches' dense activations at n = 1 and n = 3, with
//! `OptimizerConfig::default()`'s grid and surrogate budget. The constants
//! pin the bits of every partial sum the profiler reads off the window
//! walk, in the pinned lane order.
//!
//! On an intentional numerical change, the failure message prints the new
//! digest to commit.

mod golden_common;

use golden_common::{batches, Fnv};
use snapea_suite::core::optimizer::profiling::profile_layer_kernels;
use snapea_suite::core::optimizer::OptimizerConfig;
use snapea_suite::core::params::KernelMode;
use snapea_suite::nn::graph::{Graph, Op};
use snapea_suite::nn::zoo::Workload;

/// `(workload, profiling digest over the n = 1 and n = 3 batches)`.
const GOLDEN: [(Workload, u64); 4] = [
    (Workload::AlexNet, 0x5ef9_64e7_656d_5573),
    (Workload::GoogLeNet, 0xdedb_d71e_10a3_c77d),
    (Workload::SqueezeNet, 0x9438_c24f_0038_69e6),
    (Workload::VggNet, 0x8109_008a_5d3a_09be),
];

fn profiling_digest(net: &Graph) -> u64 {
    let cfg = OptimizerConfig::default();
    let budget = cfg.epsilon * cfg.surrogate_scale;
    let mut h = Fnv::new();
    for x in batches() {
        let acts = net.forward(&x);
        for id in net.conv_ids() {
            if !net.feeds_only_relu(id) {
                continue;
            }
            let Op::Conv(conv) = &net.node(id).op else {
                unreachable!("conv_ids returns conv nodes");
            };
            let input = &acts[net.node(id).inputs[0]];
            let tables = profile_layer_kernels(
                conv,
                input,
                &cfg.group_candidates,
                &cfg.threshold_quantiles,
                budget,
            );
            for t in &tables {
                h.u64(t.len() as u64);
                for c in t.candidates() {
                    match c.mode {
                        KernelMode::Exact => h.bytes(&[0]),
                        KernelMode::Speculate(p) => {
                            h.bytes(&[1]);
                            h.bytes(&p.threshold.to_bits().to_le_bytes());
                            h.u64(p.groups as u64);
                        }
                    }
                    h.u64(c.ops);
                    h.u64(c.surrogate_err.to_bits());
                }
            }
        }
    }
    h.0
}

#[test]
fn profiling_tables_match_golden_digests() {
    let got: Vec<(Workload, u64)> = GOLDEN
        .iter()
        .map(|&(w, _)| (w, profiling_digest(&w.build(10))))
        .collect();
    let report: Vec<String> = got
        .iter()
        .map(|(w, d)| format!("{}: {d:#018x}", w.name()))
        .collect();
    assert_eq!(got, GOLDEN, "profiling digests: {}", report.join(", "));
}
