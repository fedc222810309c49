//! Inputs and the paper's metrics, shared by the workloads.

use crate::fixtures::CLASSES;
use crate::stats::geomean;
use snapea::params::NetworkParams;
use snapea::spec_net::{profile_network, SpecNet};
use snapea_accel::sim::{simulate, SimReport};
use snapea_accel::workload::network_workload;
use snapea_accel::{AccelConfig, EnergyModel};
use snapea_nn::data::{LabeledImage, SynthShapes};
use snapea_nn::graph::Graph;
use snapea_nn::loss::argmax_rows;
use snapea_nn::zoo::INPUT_SIZE;
use snapea_tensor::Tensor4;

/// `(c, h, w)` of every zoo input.
pub const INPUT_DIMS: (usize, usize, usize) = (3, INPUT_SIZE, INPUT_SIZE);

/// Images per batch when the paper metrics profile a set of images.
const METRIC_BATCH: usize = 8;

/// A stream seed for `tag`, derived from the run's `--seed` (SplitMix64
/// finaliser), so each workload draws its own images.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count` SynthShapes images drawn from `seed`.
pub fn images(count: usize, seed: u64) -> Vec<LabeledImage> {
    SynthShapes::new(INPUT_SIZE, CLASSES).generate(count, seed)
}

/// Top-1 class of each row of a logits tensor.
pub fn top1(logits: &Tensor4) -> Vec<usize> {
    argmax_rows(&logits.to_matrix())
}

/// Bit patterns of a tensor, for exact comparison.
pub fn bits(t: &Tensor4) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

/// Paper-metric totals of one net over a set of images.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PaperTotals {
    /// Conv MACs performed under the parameters.
    pub ops: u64,
    /// Conv MACs of the dense net.
    pub full_macs: u64,
    /// Simulated SnaPEA cycles.
    pub snapea_cycles: u64,
    /// Simulated EYERISS cycles.
    pub eyeriss_cycles: u64,
    /// Simulated SnaPEA energy, pJ.
    pub snapea_pj: f64,
    /// Simulated EYERISS energy, pJ.
    pub eyeriss_pj: f64,
    /// Images whose speculative top-1 equals the dense top-1.
    pub agree: usize,
    /// Images counted.
    pub images: usize,
}

impl PaperTotals {
    /// Adds one profiled batch and its simulations.
    pub fn add_sim(
        &mut self,
        profile: &snapea::spec_net::NetworkProfile,
        sn: &SimReport,
        ey: &SimReport,
    ) {
        self.ops += profile.total_ops();
        self.full_macs += profile.full_macs();
        self.snapea_cycles += sn.cycles;
        self.eyeriss_cycles += ey.cycles;
        self.snapea_pj += sn.total_pj();
        self.eyeriss_pj += ey.total_pj();
    }

    /// Adds another set of totals.
    pub fn merge(&mut self, o: &PaperTotals) {
        self.ops += o.ops;
        self.full_macs += o.full_macs;
        self.snapea_cycles += o.snapea_cycles;
        self.eyeriss_cycles += o.eyeriss_cycles;
        self.snapea_pj += o.snapea_pj;
        self.eyeriss_pj += o.eyeriss_pj;
        self.agree += o.agree;
        self.images += o.images;
    }

    /// Adds top-1 agreement over a batch.
    pub fn add_top1(&mut self, spec: &[usize], dense: &[usize]) {
        self.agree += spec.iter().zip(dense).filter(|(a, b)| a == b).count();
        self.images += spec.len();
    }

    /// Profiles and simulates `images` on `net` under `params` in batches,
    /// untimed; with `classify`, also counts top-1 agreement of
    /// `SpecNet::forward` with the dense net.
    pub fn measure(
        name: &str,
        net: &Graph,
        params: &NetworkParams,
        images: &[LabeledImage],
        classify: bool,
    ) -> Self {
        let mut t = Self::default();
        for chunk in images.chunks(METRIC_BATCH) {
            let batch = SynthShapes::batch(chunk);
            let profile = profile_network(net, params, &batch, false);
            let wl = network_workload(name, net, &batch, &profile);
            let model = EnergyModel::default();
            let sn = simulate(&AccelConfig::snapea(), &model, &wl);
            let ey = simulate(&AccelConfig::eyeriss(), &model, &wl.to_dense());
            t.add_sim(&profile, &sn, &ey);
            if classify {
                let spec = SpecNet::new(net, params).forward(&batch);
                let dense = net.forward(&batch);
                t.add_top1(&top1(last(&spec)), &top1(last(&dense)));
            }
        }
        t
    }
}

/// The last activation of a forward pass (the logits).
pub fn last(acts: &[Tensor4]) -> &Tensor4 {
    acts.last()
        .expect("a forward pass yields at least the input")
}

/// The four deterministic end-to-end metrics over per-net totals:
/// `(macs_skipped_frac, top1_agreement, sim_speedup_x,
/// sim_energy_reduction_x)`. MACs and agreement pool every net's counts;
/// the simulated ratios are geometric means over nets.
pub fn paper_metrics(per_net: &[PaperTotals]) -> [f64; 4] {
    let ops: u64 = per_net.iter().map(|t| t.ops).sum();
    let full: u64 = per_net.iter().map(|t| t.full_macs).sum();
    let agree: usize = per_net.iter().map(|t| t.agree).sum();
    let images: usize = per_net.iter().map(|t| t.images).sum();
    let speedups: Vec<f64> = per_net
        .iter()
        .map(|t| t.eyeriss_cycles as f64 / t.snapea_cycles.max(1) as f64)
        .collect();
    let energies: Vec<f64> = per_net
        .iter()
        .map(|t| t.eyeriss_pj / t.snapea_pj.max(f64::MIN_POSITIVE))
        .collect();
    [
        1.0 - ops as f64 / full.max(1) as f64,
        agree as f64 / images.max(1) as f64,
        geomean(&speedups),
        geomean(&energies),
    ]
}
