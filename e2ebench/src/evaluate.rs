//! `evaluate`: the paper's evaluation loop (Figures 8–10, Table V) — per
//! (net, 8-image batch), `profile_network` with prediction statistics under
//! the fixture parameters, `network_workload`, then `simulate` on the
//! SnaPEA and EYERISS configurations.
//!
//! `profile_network`'s `exec` walks cover every ReLU-fed conv, exact and
//! predictive, so this is the workload where executor speed shows; the
//! artifact codec and the optimizer are bypassed. It is the only workload
//! whose pool runs more than one thread.

use crate::common::{self, derive_seed, PaperTotals};
use crate::fixtures::{self, Fixture};
use crate::harness::{timed, Bench, OpReport, Probe, Timed};
use crate::trace::Tracer;
use snapea::exec::{execute_conv, execute_conv_stats, LayerConfig, LayerProfile, PredictionStats};
use snapea::params::{LayerParams, NetworkParams};
use snapea::spec_net::{profile_network, NetworkProfile};
use snapea_accel::sim::{simulate, SimReport};
use snapea_accel::workload::network_workload;
use snapea_accel::{AccelConfig, EnergyModel};
use snapea_nn::data::SynthShapes;
use snapea_nn::graph::Graph;
use snapea_nn::zoo::Workload;
use snapea_oracle::reference::execute_layer;
use snapea_tensor::{Shape4, Tensor4};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Batches per net in one round.
pub const BATCHES_PER_NET: usize = 4;
/// Images per batch.
pub const BATCH: usize = 8;

const SEED_TAG: u64 = 2;

/// What one op produced, reduced to the values that must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// `(node, per-window op counts)` per profiled conv.
    layers: Vec<(usize, Vec<u32>)>,
    /// Prediction statistics, masses as bit patterns.
    stats: [u64; 7],
    /// MACs, simulated cycles and energy of both machines.
    totals: PaperTotals,
}

impl Outcome {
    fn new(profile: &NetworkProfile, sn: &SimReport, ey: &SimReport) -> Self {
        let s = &profile.stats;
        let mut totals = PaperTotals::default();
        totals.add_sim(profile, sn, ey);
        Self {
            layers: profile
                .layers
                .iter()
                .map(|(id, _, p)| (*id, p.ops_slice().to_vec()))
                .collect(),
            stats: [
                s.negative_windows,
                s.positive_windows,
                s.true_negatives,
                s.false_negatives,
                s.sign_terminations,
                s.positive_mass.to_bits(),
                s.squashed_mass.to_bits(),
            ],
            totals,
        }
    }
}

/// The oracle's op counts for one sampled layer and image of an input.
#[derive(Debug, Clone)]
struct Sample {
    node: usize,
    image: usize,
    /// Per kernel, the window op counts.
    ops: Vec<Vec<u32>>,
}

/// The evaluate workload.
pub struct Evaluate {
    fixture_dir: PathBuf,
    seed: u64,
    fixtures: Vec<Fixture>,
    batches: Vec<Tensor4>,
    samples: BTreeMap<(usize, usize), Sample>,
    first: Vec<Option<Outcome>>,
}

/// `profile_network`, rebuilt from the same public calls with a span around
/// each conv. Also returns the activations, whose conv inputs the oracle
/// samples are taken from.
pub fn profile_replica(
    net: &Graph,
    params: &NetworkParams,
    batch: &Tensor4,
    p: &mut Probe<'_>,
) -> (NetworkProfile, Vec<Tensor4>) {
    let mut layers = Vec::new();
    let mut stats = PredictionStats::default();
    let acts = net.forward_with(batch, &mut |id, conv, x| {
        let name = net.node(id).name.clone();
        if !net.feeds_only_relu(id) {
            let out = conv.out_shape(x.shape());
            let dense =
                LayerProfile::dense(out.n, conv.c_out(), out.plane_len(), conv.window_len());
            layers.push((id, name, dense));
            return Some(p.span("nn.dense_conv", || conv.forward(x)));
        }
        let cfg = LayerConfig::from_params(conv, params.get(id).unwrap_or(&LayerParams::Exact));
        let r = p.span("exec.conv", || {
            if cfg.is_predictive() {
                execute_conv_stats(conv, x, &cfg)
            } else {
                execute_conv(conv, x, &cfg)
            }
        });
        layers.push((id, name, r.profile));
        stats.merge(&r.stats);
        Some(r.output)
    });
    (NetworkProfile { layers, stats }, acts)
}

impl Evaluate {
    /// Loads the four fixtures, draws the round's 16 batches from `seed`
    /// and precomputes, for each of `rounds` rounds, the oracle's op
    /// counts of one sampled (layer, image) per input, all untimed.
    pub fn new(fixture_dir: PathBuf, seed: u64, rounds: usize) -> Result<Self, String> {
        let mut me = Self {
            fixture_dir,
            seed,
            fixtures: Vec::new(),
            batches: Vec::new(),
            samples: BTreeMap::new(),
            first: Vec::new(),
        };
        me.build()?;
        me.first = vec![None; me.batches.len()];
        let mut probe = Probe::untraced();
        let mut oracle: BTreeMap<(usize, usize, usize), Vec<Vec<u32>>> = BTreeMap::new();
        for i in 0..me.batches.len() {
            let fx = &me.fixtures[i / BATCHES_PER_NET];
            let (profile, acts) = profile_replica(&fx.net, &fx.params, &me.batches[i], &mut probe);
            let eligible: Vec<usize> = profile
                .layers
                .iter()
                .map(|(id, _, _)| *id)
                .filter(|&id| fx.net.feeds_only_relu(id))
                .collect();
            for round in 0..rounds {
                let pick = derive_seed(me.seed ^ round as u64, i as u64);
                let node = eligible[(pick % eligible.len() as u64) as usize];
                let image = ((pick >> 32) % BATCH as u64) as usize;
                let ops = oracle
                    .entry((i, node, image))
                    .or_insert_with(|| oracle_ops(fx, node, &acts, image))
                    .clone();
                me.samples.insert((round, i), Sample { node, image, ops });
            }
        }
        Ok(me)
    }

    /// Builds the nets from the fixture files and draws the batches.
    fn build(&mut self) -> Result<(), String> {
        let fixtures = fixtures::load_all(&self.fixture_dir)?;
        let data = common::images(
            Workload::ALL.len() * BATCHES_PER_NET * BATCH,
            derive_seed(self.seed, SEED_TAG),
        );
        self.batches = data.chunks(BATCH).map(SynthShapes::batch).collect();
        self.fixtures = fixtures;
        Ok(())
    }

    /// Corrupts the oracle's expected op counts for input `i` of `round`.
    #[cfg(test)]
    pub fn plant_wrong_sample(&mut self, round: usize, i: usize) {
        let sample = self.samples.get_mut(&(round, i)).expect("sampled");
        sample.ops[0][0] ^= 1;
    }

    /// The round's batches, in input order.
    #[cfg(test)]
    pub fn batches(&self) -> &[Tensor4] {
        &self.batches
    }

    /// The deterministic metrics: per net, the first op's profiles and
    /// simulations over its batches, and top-1 agreement of `SpecNet` with
    /// the dense net on the same images.
    pub fn paper_totals(&self) -> Vec<PaperTotals> {
        self.fixtures
            .iter()
            .enumerate()
            .map(|(n, fx)| {
                let mut t = PaperTotals::default();
                for i in n * BATCHES_PER_NET..(n + 1) * BATCHES_PER_NET {
                    if let Some(o) = &self.first[i] {
                        t.merge(&o.totals);
                    }
                    let spec = snapea::spec_net::SpecNet::new(&fx.net, &fx.params)
                        .forward(&self.batches[i]);
                    let dense = fx.net.forward(&self.batches[i]);
                    t.add_top1(
                        &common::top1(common::last(&spec)),
                        &common::top1(common::last(&dense)),
                    );
                }
                t
            })
            .collect()
    }

    /// Runs input `i` once: the op itself, optionally traced.
    fn run(&self, i: usize, tracer: Option<&mut Tracer>) -> Timed<Outcome> {
        let fx = &self.fixtures[i / BATCHES_PER_NET];
        let batch = &self.batches[i];
        let name = fx.workload.name();
        let t = timed(tracer, "evaluate.op", |p| {
            let profile = if p.traced() {
                let s = p.open("spec_net.profile");
                let (profile, acts) = profile_replica(&fx.net, &fx.params, batch, p);
                drop(acts);
                p.close(s);
                profile
            } else {
                profile_network(&fx.net, &fx.params, batch, true)
            };
            let (wl, dense) = p.span("accel.workload", || {
                let wl = network_workload(name, &fx.net, batch, &profile);
                let dense = wl.to_dense();
                (wl, dense)
            });
            let model = EnergyModel::default();
            let sn = p.span("accel.simulate", || {
                simulate(&AccelConfig::snapea(), &model, &wl)
            });
            let ey = p.span("accel.simulate", || {
                simulate(&AccelConfig::eyeriss(), &model, &dense)
            });
            (profile, sn, ey)
        });
        t.map(|(profile, sn, ey)| Outcome::new(&profile, &sn, &ey))
    }
}

/// The oracle's per-kernel window op counts of conv `node` on image
/// `image` of the activations `acts`.
fn oracle_ops(fx: &Fixture, node: usize, acts: &[Tensor4], image: usize) -> Vec<Vec<u32>> {
    let snapea_nn::graph::Op::Conv(conv) = &fx.net.node(node).op else {
        unreachable!("sampled layers are convs");
    };
    let input = &acts[fx.net.node(node).inputs[0]];
    let s = input.shape();
    let one = Tensor4::from_vec(Shape4::new(1, s.c, s.h, s.w), input.item(image).to_vec())
        .expect("one image of the batch");
    let params = fx.params.get(node).unwrap_or(&LayerParams::Exact);
    let layer = execute_layer(conv.weight(), conv.bias(), conv.geom(), &one, params);
    let kernels = conv.c_out();
    let windows = layer.ops.len() / kernels;
    layer.ops.chunks(windows).map(<[u32]>::to_vec).collect()
}

impl Bench for Evaluate {
    fn inputs(&self) -> usize {
        self.batches.len()
    }

    fn items_per_pass(&self) -> usize {
        self.batches.len() * BATCH
    }

    fn setup(&mut self, tracer: Option<&mut Tracer>) -> Result<Timed<()>, String> {
        self.fixtures.clear();
        self.batches.clear();
        let (built, t) = timed(tracer, "evaluate.setup", |_| self.build()).split();
        built.map(|()| t)
    }

    fn op(&mut self, round: usize, i: usize, tracer: Option<&mut Tracer>) -> OpReport {
        let (outcome, timed) = self.run(i, tracer).split();
        let mut ok = true;
        if let Some(sample) = self.samples.get(&(round, i)) {
            let got = outcome.layers.iter().find(|(id, _)| *id == sample.node);
            ok &= match got {
                Some((_, ops)) => {
                    let kernels = sample.ops.len();
                    let windows = ops.len() / (BATCH * kernels).max(1);
                    sample.ops.iter().enumerate().all(|(k, want)| {
                        let at = (sample.image * kernels + k) * windows;
                        ops.get(at..at + windows) == Some(want.as_slice())
                    })
                }
                None => false,
            };
        }
        match &self.first[i] {
            // A later repeat, or the traced replica, must reproduce the
            // first untraced op exactly.
            Some(first) => ok &= *first == outcome,
            None if timed.traced.is_none() => self.first[i] = Some(outcome),
            None => ok = false,
        }
        OpReport {
            timed,
            ok,
            extra: BTreeMap::new(),
        }
    }

    fn final_checks(&mut self) -> Vec<String> {
        let again = self.run(0, None).value;
        match &self.first[0] {
            Some(first) if *first == again => Vec::new(),
            Some(_) => {
                vec!["the first op's profile and simulation did not repeat bit-for-bit".into()]
            }
            None => vec!["the first op never ran".into()],
        }
    }
}
