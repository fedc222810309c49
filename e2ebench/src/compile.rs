//! `compile`: Algorithm 1 (`Optimizer::run`, default config) on one trained
//! net over a fixed 4-image optimization set, then `CompiledModel::compile`,
//! `to_bytes` and `from_bytes`.
//!
//! The optimizer does nearly all of the work and runs nowhere else.
//! AlexNet's few large layers weight kernel profiling; GoogLeNet's 57 small
//! layers weight the local and Global passes. The optimization set is the
//! same for every seed because the amount of work depends on it; the seed
//! picks only the held-out images the chosen parameters are scored on.

use crate::common::{self, bits, derive_seed, PaperTotals, INPUT_DIMS};
use crate::fixtures::{self, Fixture};
use crate::harness::{timed, Bench, OpReport, Timed};
use crate::trace::Tracer;
use snapea::optimizer::{Optimizer, OptimizerConfig};
use snapea::params::NetworkParams;
use snapea::CompiledModel;
use snapea_nn::data::{LabeledImage, SynthShapes};
use snapea_nn::zoo::Workload;
use snapea_tensor::q16::Q16Format;
use snapea_tensor::Tensor4;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The nets compiled, one input each.
pub const NETS: [Workload; 2] = [Workload::AlexNet, Workload::GoogLeNet];

/// The optimization set: the first four images of the repro recipe's
/// optimization stream (`context::datasets().opt`).
const OPT_SEED: u64 = 0x0071;
const OPT_IMAGES: usize = 4;

/// Held-out images the chosen parameters are scored on.
pub const HELD_OUT: usize = 128;

const SEED_TAG: u64 = 3;

/// The compile workload.
pub struct Compile {
    fixture_dir: PathBuf,
    fixtures: Vec<Fixture>,
    opt_set: Vec<LabeledImage>,
    held_out: Vec<LabeledImage>,
    probe: Tensor4,
    /// Algorithm 1's parameters from each net's first op.
    chosen: Vec<Option<NetworkParams>>,
}

impl Compile {
    /// Loads the fixtures and draws the held-out images from `seed`.
    pub fn new(fixture_dir: PathBuf, seed: u64) -> Result<Self, String> {
        let held_out = common::images(HELD_OUT, derive_seed(seed, SEED_TAG));
        let probe = SynthShapes::batch(&held_out[..1]);
        let mut me = Self {
            fixture_dir,
            fixtures: Vec::new(),
            opt_set: Vec::new(),
            held_out,
            probe,
            chosen: vec![None; NETS.len()],
        };
        me.build()?;
        Ok(me)
    }

    fn build(&mut self) -> Result<(), String> {
        self.fixtures = NETS
            .iter()
            .map(|&w| fixtures::decode(w, &fixtures::read_checked(&self.fixture_dir, w)?))
            .collect::<Result<_, _>>()?;
        self.opt_set = common::images(OPT_IMAGES, OPT_SEED);
        Ok(())
    }

    /// The held-out images the chosen parameters are scored on.
    #[cfg(test)]
    pub fn held_out(&self) -> &[LabeledImage] {
        &self.held_out
    }

    /// The deterministic metrics: each net's chosen parameters profiled,
    /// simulated and classified on the held-out images.
    pub fn paper_totals(&self) -> Vec<PaperTotals> {
        self.fixtures
            .iter()
            .zip(&self.chosen)
            .filter_map(|(fx, params)| {
                let params = params.as_ref()?;
                Some(PaperTotals::measure(
                    fx.workload.name(),
                    &fx.net,
                    params,
                    &self.held_out,
                    true,
                ))
            })
            .collect()
    }
}

impl Bench for Compile {
    fn inputs(&self) -> usize {
        NETS.len()
    }

    fn items_per_pass(&self) -> usize {
        NETS.len()
    }

    fn setup(&mut self, tracer: Option<&mut Tracer>) -> Result<Timed<()>, String> {
        self.fixtures.clear();
        self.opt_set.clear();
        let (built, t) = timed(tracer, "compile.setup", |_| self.build()).split();
        built.map(|()| t)
    }

    fn op(&mut self, _round: usize, i: usize, tracer: Option<&mut Tracer>) -> OpReport {
        let fx = &self.fixtures[i];
        let opt_set = &self.opt_set;
        let t = timed(tracer, "compile.op", |p| {
            let out = p.span("optimizer.run", || {
                Optimizer::new(&fx.net, opt_set, OptimizerConfig::default()).run()
            });
            let model = p.span("artifact.compile", || {
                CompiledModel::compile(&fx.net, &out.params, INPUT_DIMS, Q16Format::default())
            });
            let (bytes, loaded) = p.span("artifact.codec", || {
                let bytes = model.to_bytes();
                let loaded = CompiledModel::from_bytes(&bytes);
                (bytes, loaded)
            });
            (out, model, bytes, loaded)
        });
        let ((out, model, bytes, loaded), timed) = t.split();
        let ordered = out.final_ops <= out.exact_ops && out.exact_ops <= out.full_macs;
        let ok = ordered
            && loaded.is_ok_and(|loaded| {
                loaded.to_bytes() == bytes
                    && model
                        .forward(&self.probe)
                        .iter()
                        .zip(&loaded.forward(&self.probe))
                        .all(|(a, b)| bits(a) == bits(b))
            });
        let mut extra = BTreeMap::new();
        extra.insert("optimizer.global_iterations", out.global_iterations as f64);
        extra.insert("artifact.bytes", bytes.len() as f64);
        if self.chosen[i].is_none() {
            self.chosen[i] = Some(out.params);
        }
        OpReport { timed, ok, extra }
    }

    fn final_checks(&mut self) -> Vec<String> {
        Vec::new()
    }
}
