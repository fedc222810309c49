//! Network-level SnaPEA execution: runs a [`snapea_nn::Graph`] with selected
//! convolution layers executed through the early-terminating executor.
//!
//! This is the `Simulate(CNN, D, …)` primitive of the paper's Algorithm 1:
//! it yields both the classification accuracy under a given parameter
//! assignment and the per-layer operation counts.

use crate::exec::{execute_conv, execute_conv_stats, LayerConfig, LayerProfile, PredictionStats};
use crate::params::{LayerParams, NetworkParams};
use snapea_nn::data::LabeledImage;
use snapea_nn::graph::{Graph, NodeId, Op};
use snapea_nn::loss::accuracy;
use snapea_nn::ops::Conv2d;
use snapea_tensor::Tensor4;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A network bound to a set of speculation parameters.
///
/// Layers with [`LayerParams::Predictive`] run through the SnaPEA executor
/// (their outputs may change); all other conv layers take the dense path,
/// which produces post-ReLU outputs equal to exact-mode SnaPEA's (up to
/// summation order) and is much faster in software.
///
/// Each predictive layer's [`LayerConfig`] (reordering plus PAU) is derived
/// once, when the parameters are bound; [`SpecNet::set_layer`] re-derives a
/// single layer's.
#[derive(Debug, Clone)]
pub struct SpecNet<'a> {
    net: &'a Graph,
    configs: BTreeMap<NodeId, LayerConfig>,
}

impl<'a> SpecNet<'a> {
    /// Binds `net` to `params`.
    pub fn new(net: &'a Graph, params: &NetworkParams) -> Self {
        let mut spec = Self {
            net,
            configs: BTreeMap::new(),
        };
        for (id, p) in params.iter() {
            spec.set_layer(id, p);
        }
        spec
    }

    /// Rebinds conv layer `id` to `params`, deriving its config again and
    /// leaving every other layer's as it is.
    pub fn set_layer(&mut self, id: NodeId, params: &LayerParams) {
        match (&self.net.node(id).op, params) {
            (Op::Conv(conv), LayerParams::Predictive(_)) => {
                self.configs
                    .insert(id, LayerConfig::from_params(conv, params));
            }
            _ => {
                self.configs.remove(&id);
            }
        }
    }

    /// The conv override hook: predictive layers run through the executor,
    /// all others dense.
    fn run_conv(&self, id: NodeId, conv: &Conv2d, x: &Tensor4) -> Option<Tensor4> {
        self.configs
            .get(&id)
            .map(|cfg| execute_conv(conv, x, cfg).output)
    }

    /// Forward pass with speculation applied; returns all activations.
    pub fn forward(&self, input: &Tensor4) -> Vec<Tensor4> {
        self.net
            .forward_with(input, &mut |id, conv, x| self.run_conv(id, conv, x))
    }

    /// Forward pass reusing `cached` activations of a forward under the
    /// same configs everywhere except at `root`, recomputing only `root`
    /// and what it feeds; the other activations are borrowed from `cached`.
    pub fn forward_from<'c>(
        &self,
        input: &Tensor4,
        cached: &'c [Tensor4],
        root: NodeId,
    ) -> Vec<Cow<'c, Tensor4>> {
        self.net
            .forward_from(input, cached, root, &mut |id, conv, x| {
                self.run_conv(id, conv, x)
            })
    }

    /// Classification accuracy over labelled images (batched as one tensor).
    pub fn accuracy(&self, images: &[LabeledImage]) -> f64 {
        if images.is_empty() {
            return 0.0;
        }
        let refs: Vec<&LabeledImage> = images.iter().collect();
        let batch = snapea_nn::data::SynthShapes::batch_refs(&refs);
        let labels: Vec<usize> = images.iter().map(|d| d.label).collect();
        let acts = self.forward(&batch);
        acts.last()
            .map_or(0.0, |out| accuracy(&out.to_matrix(), &labels))
    }
}

/// Per-layer profile of a network execution: op counts for **every** conv
/// layer under its configured mode (layers absent from `params` run exact).
/// This is the workload description the cycle-level simulator consumes.
#[derive(Debug, Clone)]
pub struct NetworkProfile {
    /// `(conv node id, layer name, profile)` per conv layer, topological
    /// order.
    pub layers: Vec<(NodeId, String, LayerProfile)>,
    /// Aggregated prediction statistics over all predictive layers.
    pub stats: PredictionStats,
}

impl NetworkProfile {
    /// Total MACs executed across all conv layers.
    pub fn total_ops(&self) -> u64 {
        self.layers.iter().map(|(_, _, p)| p.total_ops()).sum()
    }

    /// Total MACs of the unaltered network's conv layers.
    pub fn full_macs(&self) -> u64 {
        self.layers.iter().map(|(_, _, p)| p.full_macs()).sum()
    }

    /// Overall fraction of conv MACs eliminated.
    pub fn savings(&self) -> f64 {
        let full = self.full_macs();
        if full == 0 {
            return 0.0;
        }
        1.0 - self.total_ops() as f64 / full as f64
    }

    /// Profile of one layer by node id.
    pub fn layer(&self, id: NodeId) -> Option<&LayerProfile> {
        self.layers
            .iter()
            .find(|(lid, _, _)| *lid == id)
            .map(|(_, _, p)| p)
    }
}

/// Profiles every conv layer of `net` under `params` on a batch: runs the
/// real dataflow (speculative layers alter downstream activations) and
/// records per-window op counts per layer. With `collect_stats`, prediction
/// quality is also accounted (costs a full dot product per window).
pub fn profile_network(
    net: &Graph,
    params: &NetworkParams,
    batch: &Tensor4,
    collect_stats: bool,
) -> NetworkProfile {
    profile_network_full(net, params, batch, collect_stats, false)
}

/// Like [`profile_network`] but optionally profiling fully-connected layers
/// too, executed as 1×1 convolutions on the same hardware (paper §V). FC
/// layers feeding a ReLU run exact-mode SnaPEA; terminal classifiers (no
/// downstream ReLU) run dense. The paper reports FC layers account for ≈1%
/// of CNN computation, which this lets the simulator verify.
pub fn profile_network_full(
    net: &Graph,
    params: &NetworkParams,
    batch: &Tensor4,
    collect_stats: bool,
    include_fc: bool,
) -> NetworkProfile {
    let mut layers = Vec::new();
    let mut stats = PredictionStats::default();
    let acts = net.forward_with(batch, &mut |id, conv, x| {
        // Early activation is only sound when every consumer is a ReLU
        // (paper §II): other convs run dense and count full MACs.
        if !net.feeds_only_relu(id) {
            let out_shape = conv.out_shape(x.shape());
            layers.push((
                id,
                net.node(id).name.clone(),
                crate::exec::LayerProfile::dense(
                    out_shape.n,
                    conv.c_out(),
                    out_shape.plane_len(),
                    conv.window_len(),
                ),
            ));
            return Some(conv.forward(x));
        }
        let p = params.get(id).unwrap_or(&LayerParams::Exact);
        let cfg = LayerConfig::from_params(conv, p);
        let r = if collect_stats && cfg.is_predictive() {
            execute_conv_stats(conv, x, &cfg)
        } else {
            execute_conv(conv, x, &cfg)
        };
        layers.push((id, net.node(id).name.clone(), r.profile));
        stats.merge(&r.stats);
        Some(r.output)
    });
    if include_fc {
        for id in net.linear_ids() {
            let Op::Linear(lin) = &net.node(id).op else {
                // lint:allow(P1) linear_ids filters on Op::Linear, so this arm cannot be reached
                unreachable!("linear_ids returns linear nodes");
            };
            let as_conv = lin.to_conv();
            let input = &acts[net.node(id).inputs[0]];
            let profile = if net.feeds_only_relu(id) {
                execute_conv(&as_conv, input, &LayerConfig::exact(&as_conv)).profile
            } else {
                // Terminal classifier: no ReLU downstream, early activation
                // is unsound — dense execution.
                crate::exec::LayerProfile::dense(
                    input.shape().n,
                    as_conv.c_out(),
                    1,
                    as_conv.window_len(),
                )
            };
            layers.push((id, net.node(id).name.clone(), profile));
        }
        layers.sort_by_key(|(id, _, _)| *id);
    }
    NetworkProfile { layers, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::KernelParams;
    use snapea_nn::data::SynthShapes;
    use snapea_nn::loss::argmax_rows;
    use snapea_nn::zoo;

    #[test]
    fn exact_params_do_not_change_accuracy() {
        let net = zoo::mini_squeezenet(4);
        let data = SynthShapes::new(zoo::INPUT_SIZE, 4).generate(12, 21);
        let exact = NetworkParams::new();
        let spec = SpecNet::new(&net, &exact);
        let base = {
            let refs: Vec<&LabeledImage> = data.iter().collect();
            let batch = SynthShapes::batch_refs(&refs);
            let logits = net.logits(&batch);
            let preds = argmax_rows(&logits);
            preds
                .iter()
                .zip(&data)
                .filter(|(p, d)| **p == d.label)
                .count() as f64
                / data.len() as f64
        };
        assert_eq!(spec.accuracy(&data), base);
    }

    #[test]
    fn aggressive_speculation_degrades_outputs() {
        let net = zoo::mini_alexnet(4);
        let data = SynthShapes::new(zoo::INPUT_SIZE, 4).generate(8, 31);
        let batch = SynthShapes::batch(&data);
        let mut params = NetworkParams::new();
        for id in net.conv_ids() {
            if let Op::Conv(c) = &net.node(id).op {
                params.set(
                    id,
                    LayerParams::uniform(c.c_out(), KernelParams::new(f32::INFINITY, 1)),
                );
            }
        }
        let spec = SpecNet::new(&net, &params);
        let acts = spec.forward(&batch);
        // Every conv output is squashed to zero.
        let first_conv = net.conv_ids()[0];
        assert!(acts[first_conv].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn profile_counts_all_conv_layers() {
        let net = zoo::mini_alexnet(4);
        let data = SynthShapes::new(zoo::INPUT_SIZE, 4).generate(4, 41);
        let batch = SynthShapes::batch(&data);
        let params = NetworkParams::new();
        let prof = profile_network(&net, &params, &batch, false);
        assert_eq!(prof.layers.len(), net.conv_ids().len());
        assert!(prof.total_ops() > 0);
        assert!(prof.total_ops() <= prof.full_macs());
        assert!(prof.savings() > 0.0, "exact mode should save some MACs");
    }

    #[test]
    fn convs_without_downstream_relu_run_dense() {
        // A conv feeding the graph output directly (no ReLU) must be
        // profiled dense and produce its true (unterminated) outputs.
        use snapea_nn::GraphBuilder;
        use snapea_tensor::im2col::ConvGeom;
        use snapea_tensor::{init, Shape4};
        let mut rng = init::rng(77);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let c = b.conv("naked", x, 2, 3, ConvGeom::square(3, 1, 1), &mut rng);
        let _ = c;
        let net = b.build();
        let batch = init::uniform4(Shape4::new(1, 2, 6, 6), 1.0, &mut init::rng(78)).map(f32::abs);
        let prof = profile_network(&net, &NetworkParams::new(), &batch, false);
        let lp = prof.layer(1).expect("conv profiled");
        assert_eq!(lp.total_ops(), lp.full_macs(), "must run dense");
        // Raw (possibly negative) outputs must be preserved.
        let empty = NetworkParams::new();
        let spec = SpecNet::new(&net, &empty);
        let acts = spec.forward(&batch);
        let dense = net.forward(&batch);
        assert_eq!(acts[1], dense[1]);
        assert!(dense[1].negative_fraction() > 0.0, "test needs negatives");
    }

    #[test]
    fn fc_layers_account_for_a_tiny_share_of_macs() {
        // Paper §V: FC computation is ≈1% of the total in modern CNNs; the
        // mini GoogLeNet/SqueezeNet preserve that property.
        let data = SynthShapes::new(zoo::INPUT_SIZE, 4).generate(2, 61);
        let batch = SynthShapes::batch(&data);
        for build in [
            zoo::mini_googlenet as fn(usize) -> crate::spec_net::Graph,
            zoo::mini_squeezenet,
        ] {
            let net = build(4);
            let with_fc = profile_network_full(&net, &NetworkParams::new(), &batch, false, true);
            let conv_only = profile_network(&net, &NetworkParams::new(), &batch, false);
            assert_eq!(
                with_fc.layers.len(),
                net.conv_ids().len() + net.linear_ids().len()
            );
            let fc_macs = with_fc.full_macs() - conv_only.full_macs();
            let share = fc_macs as f64 / with_fc.full_macs() as f64;
            assert!(share < 0.05, "FC share {share} unexpectedly large");
        }
    }

    #[test]
    fn fc_exact_execution_saves_ops_when_relu_follows() {
        // AlexNet's fc6/fc7 feed ReLUs → exact SnaPEA applies; fc8 is the
        // classifier → dense.
        let net = zoo::mini_alexnet(4);
        let data = SynthShapes::new(zoo::INPUT_SIZE, 4).generate(2, 62);
        let batch = SynthShapes::batch(&data);
        let prof = profile_network_full(&net, &NetworkParams::new(), &batch, false, true);
        let fc_ids = net.linear_ids();
        let fc6 = prof.layer(fc_ids[0]).expect("fc6 profiled");
        assert!(
            fc6.total_ops() < fc6.full_macs(),
            "fc6 should terminate early"
        );
        let fc8 = prof.layer(fc_ids[2]).expect("fc8 profiled");
        assert_eq!(fc8.total_ops(), fc8.full_macs(), "classifier runs dense");
    }

    #[test]
    fn forward_from_agrees_with_full_forward() {
        let net = zoo::mini_squeezenet(4);
        let data = SynthShapes::new(zoo::INPUT_SIZE, 4).generate(4, 51);
        let batch = SynthShapes::batch(&data);
        let cached = net.forward(&batch);
        let conv = net.conv_ids()[3];
        let mut params = NetworkParams::new();
        if let Op::Conv(c) = &net.node(conv).op {
            params.set(
                conv,
                LayerParams::uniform(c.c_out(), KernelParams::new(0.1, 2)),
            );
        }
        let spec = SpecNet::new(&net, &params);
        let fast = spec.forward_from(&batch, &cached, conv);
        let slow = spec.forward(&batch);
        assert_eq!(fast.len(), slow.len());
        for (id, (f, s)) in fast.iter().zip(&slow).enumerate() {
            assert_eq!(**f, *s, "node {id}");
            // Nodes upstream of the recomputed conv come from the cache.
            if id < conv {
                assert!(matches!(f, Cow::Borrowed(_)), "node {id} was copied");
            }
        }
    }
}
