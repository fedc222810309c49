//! The multi-variable constrained optimizer of the paper's Algorithm 1.
//!
//! Finds per-kernel speculation parameters `(Th, N)` minimising total MAC
//! operations subject to `Accuracy_CNN − Accuracy_SnaPEA ≤ ε` (Eq. 2), in
//! three passes:
//!
//! 1. **Kernel Profiling** ([`profiling::profile_layer_kernels`]) — per
//!    kernel in isolation, grid over `(Th, N)`, keep acceptable candidates
//!    sorted by op count.
//! 2. **Local Optimization** — per layer in isolation, form `T`
//!    configurations (the `t`-th uses every kernel's `t`-th cheapest
//!    candidate), measure real network accuracy with only that layer
//!    speculating, keep configurations within `ε`.
//! 3. **Global Optimization** — start every layer at its cheapest acceptable
//!    configuration; while the combined accuracy loss exceeds `ε`, move the
//!    layer/configuration with the best merit `−Δerr/Δop` one step more
//!    conservative (the paper's `ADJUSTPARAM`), re-simulating after each
//!    adjustment.
//!
//! The optimizer runs **offline** — exactly as in the paper, it adds no
//! runtime cost to inference.

pub mod profiling;

use crate::params::{KernelMode, LayerParams, NetworkParams};
use crate::spec_net::{profile_network, SpecNet};
use profiling::{profile_layer_kernels, KernelTable};
use snapea_nn::data::{LabeledImage, SynthShapes};
use snapea_nn::graph::{Graph, NodeId, Op};
use snapea_nn::loss::accuracy;
use snapea_tensor::Tensor4;
use std::collections::BTreeMap;

/// Hyper-parameters of the optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerConfig {
    /// Acceptable absolute accuracy loss ε (the paper's headline setting is
    /// 0.03).
    pub epsilon: f64,
    /// Grid of group counts `N` profiled per kernel.
    pub group_candidates: Vec<usize>,
    /// Quantiles of the negative-window speculative partial-sum distribution
    /// used as threshold candidates.
    pub threshold_quantiles: Vec<f64>,
    /// Number of per-layer configurations `T` evaluated by the Local
    /// Optimization pass.
    pub local_configs: usize,
    /// Scale applied to ε to form the Kernel Profiling surrogate budget.
    pub surrogate_scale: f64,
    /// Safety cap on Global Optimization iterations.
    pub max_global_iters: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.03,
            group_candidates: vec![1, 2, 4, 8],
            threshold_quantiles: vec![0.5, 0.75, 0.9, 0.97, 1.0],
            local_configs: 5,
            surrogate_scale: 8.0,
            max_global_iters: 512,
        }
    }
}

impl OptimizerConfig {
    /// Config with a different ε, other settings default.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Self {
            epsilon,
            ..Self::default()
        }
    }
}

/// One acceptable configuration of a layer (an entry of the paper's
/// `ParamL[l]`).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerOption {
    /// The per-kernel modes.
    pub params: LayerParams,
    /// Profiled op count of the layer under this configuration.
    pub ops: u64,
    /// Measured accuracy loss with only this layer speculating.
    pub err: f64,
}

/// Final decision for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDecision {
    /// Conv node id.
    pub layer: NodeId,
    /// Layer name.
    pub name: String,
    /// Whether the layer ended up speculating.
    pub predictive: bool,
    /// Ops under the final configuration (profiled on the optimization set).
    pub ops: u64,
    /// Ops under pure exact mode (same set).
    pub exact_ops: u64,
    /// Full dense MACs (same set).
    pub full_macs: u64,
}

/// Result of the optimization.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The chosen speculation parameters.
    pub params: NetworkParams,
    /// Accuracy of the unaltered network on the optimization set.
    pub baseline_accuracy: f64,
    /// Accuracy of the speculating network on the optimization set.
    pub final_accuracy: f64,
    /// Total conv MACs in pure exact mode.
    pub exact_ops: u64,
    /// Total conv MACs under the final parameters.
    pub final_ops: u64,
    /// Total conv MACs of the unaltered network.
    pub full_macs: u64,
    /// Per-layer breakdown.
    pub per_layer: Vec<LayerDecision>,
    /// Global-pass iterations used.
    pub global_iterations: usize,
}

impl OptimizeOutcome {
    /// Accuracy loss `baseline − final` (clamped at 0 from below for
    /// reporting).
    pub fn accuracy_loss(&self) -> f64 {
        self.baseline_accuracy - self.final_accuracy
    }

    /// Fraction of conv layers operating in predictive mode (paper
    /// Table IV's first column).
    pub fn predictive_layer_fraction(&self) -> f64 {
        if self.per_layer.is_empty() {
            return 0.0;
        }
        self.per_layer.iter().filter(|d| d.predictive).count() as f64 / self.per_layer.len() as f64
    }
}

/// The Algorithm-1 optimizer bound to a network and an optimization dataset.
#[derive(Debug)]
pub struct Optimizer<'a> {
    net: &'a Graph,
    data: &'a [LabeledImage],
    cfg: OptimizerConfig,
}

impl<'a> Optimizer<'a> {
    /// Binds the optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn new(net: &'a Graph, data: &'a [LabeledImage], cfg: OptimizerConfig) -> Self {
        assert!(!data.is_empty(), "optimization dataset must be non-empty");
        Self { net, data, cfg }
    }

    /// Top-1 accuracy on the optimization set of a forward pass's output
    /// (its last activation; 0 for an empty graph).
    fn accuracy_of(&self, output: Option<&Tensor4>) -> f64 {
        let labels: Vec<usize> = self.data.iter().map(|d| d.label).collect();
        output.map_or(0.0, |out| accuracy(&out.to_matrix(), &labels))
    }

    /// Runs all three passes and returns the outcome.
    pub fn run(&self) -> OptimizeOutcome {
        let _run_span = snapea_obs::span!("optimizer/run");
        let refs: Vec<&LabeledImage> = self.data.iter().collect();
        let batch = SynthShapes::batch_refs(&refs);
        let cached = self.net.forward(&batch);
        let baseline_accuracy = self.accuracy_of(cached.last());

        // Eligible layers: conv nodes whose output feeds only ReLU.
        let eligible: Vec<NodeId> = self
            .net
            .conv_ids()
            .into_iter()
            .filter(|&id| self.net.feeds_only_relu(id))
            .collect();

        // Pass 1: kernel profiling.
        let budget = self.cfg.epsilon * self.cfg.surrogate_scale;
        let mut tables: BTreeMap<NodeId, Vec<KernelTable>> = BTreeMap::new();
        {
            let _span = snapea_obs::span!("optimizer/profile");
            for &l in &eligible {
                let Op::Conv(conv) = &self.net.node(l).op else {
                    // lint:allow(P1) eligible_ids filters on Op::Conv, so this arm cannot be reached
                    unreachable!("eligible ids are conv nodes");
                };
                let input = &cached[self.net.node(l).inputs[0]];
                let layer_tables = profile_layer_kernels(
                    conv,
                    input,
                    &self.cfg.group_candidates,
                    &self.cfg.threshold_quantiles,
                    budget,
                );
                snapea_obs::counter("optimizer/kernels_profiled").add(layer_tables.len() as u64);
                if snapea_obs::enabled() {
                    let candidates: u64 = layer_tables.iter().map(|t| t.len() as u64).sum();
                    snapea_obs::event!(
                        "optimizer/profile",
                        layer = self.net.node(l).name.clone(),
                        kernels = layer_tables.len() as u64,
                        candidates = candidates,
                    );
                }
                tables.insert(l, layer_tables);
            }
        }

        // Pass 2: local optimization.
        let mut options: BTreeMap<NodeId, Vec<LayerOption>> = BTreeMap::new();
        {
            let _span = snapea_obs::span!("optimizer/local");
            for &l in &eligible {
                let probes_before = snapea_obs::counter("optimizer/probes").get();
                let opts = self.local_options(l, &tables[&l], &batch, &cached, baseline_accuracy);
                if snapea_obs::enabled() {
                    snapea_obs::event!(
                        "optimizer/local",
                        layer = self.net.node(l).name.clone(),
                        options = opts.len() as u64,
                        probes = snapea_obs::counter("optimizer/probes").get() - probes_before,
                    );
                }
                options.insert(l, opts);
            }
        }

        // Pass 3: global optimization.
        let (current, global_iterations) = {
            let _span = snapea_obs::span!("optimizer/global");
            self.global_pass(&options, &batch, baseline_accuracy)
        };

        // Assemble final parameters.
        let mut params = NetworkParams::new();
        for (&l, opts) in &options {
            params.set(l, opts[current[&l]].params.clone());
        }

        // Final reporting profiles.
        let spec = SpecNet::new(self.net, &params);
        let final_accuracy = self.accuracy_of(spec.forward(&batch).last());
        let final_profile = profile_network(self.net, &params, &batch, false);
        let exact_profile = profile_network(self.net, &NetworkParams::new(), &batch, false);

        let per_layer = final_profile
            .layers
            .iter()
            .map(|(id, name, p)| {
                let exact_ops = exact_profile.layer(*id).map(|e| e.total_ops()).unwrap_or(0);
                LayerDecision {
                    layer: *id,
                    name: name.clone(),
                    predictive: params
                        .get(*id)
                        .map(|lp| lp.is_predictive())
                        .unwrap_or(false),
                    ops: p.total_ops(),
                    exact_ops,
                    full_macs: p.full_macs(),
                }
            })
            .collect();

        let outcome = OptimizeOutcome {
            params,
            baseline_accuracy,
            final_accuracy,
            exact_ops: exact_profile.total_ops(),
            final_ops: final_profile.total_ops(),
            full_macs: final_profile.full_macs(),
            per_layer,
            global_iterations,
        };
        if snapea_obs::enabled() {
            for d in &outcome.per_layer {
                snapea_obs::event!(
                    "optimizer/decision",
                    layer = d.name.clone(),
                    predictive = d.predictive,
                    ops = d.ops,
                    exact_ops = d.exact_ops,
                    full_macs = d.full_macs,
                );
            }
            snapea_obs::event!(
                "optimizer/global",
                iterations = outcome.global_iterations as u64,
                baseline_accuracy = outcome.baseline_accuracy,
                final_accuracy = outcome.final_accuracy,
                exact_ops = outcome.exact_ops,
                final_ops = outcome.final_ops,
                full_macs = outcome.full_macs,
            );
        }
        outcome
    }

    /// The paper's `LOCALOPTIMIZATIONPASS` for one layer.
    fn local_options(
        &self,
        layer: NodeId,
        tables: &[KernelTable],
        batch: &Tensor4,
        cached: &[Tensor4],
        baseline: f64,
    ) -> Vec<LayerOption> {
        let mut opts: Vec<LayerOption> = Vec::new();
        let max_t = tables.iter().map(KernelTable::len).max().unwrap_or(1);
        let mut seen: Vec<LayerParams> = Vec::new();
        for t in 0..self.cfg.local_configs.min(max_t) {
            let modes: Vec<KernelMode> = tables.iter().map(|tab| tab.get_clamped(t).mode).collect();
            let ops: u64 = tables.iter().map(|tab| tab.get_clamped(t).ops).sum();
            let params = if modes.iter().any(KernelMode::is_speculative) {
                LayerParams::Predictive(modes)
            } else {
                LayerParams::Exact
            };
            if seen.contains(&params) {
                continue;
            }
            seen.push(params.clone());
            let err = if params.is_predictive() {
                snapea_obs::counter("optimizer/probes").inc();
                let mut np = NetworkParams::new();
                np.set(layer, params.clone());
                let spec = SpecNet::new(self.net, &np);
                let acts = spec.forward_from(batch, cached, layer);
                baseline - self.accuracy_of(acts.last().map(|out| out.as_ref()))
            } else {
                0.0
            };
            if err <= self.cfg.epsilon {
                opts.push(LayerOption { params, ops, err });
            }
        }
        // The exact configuration is always an acceptable fallback.
        if !opts.iter().any(|o| !o.params.is_predictive()) {
            let exact_ops: u64 = tables
                .iter()
                .map(|tab| {
                    tab.candidates()
                        .iter()
                        .find(|c| matches!(c.mode, KernelMode::Exact))
                        .map(|c| c.ops)
                        .unwrap_or(0)
                })
                .sum();
            opts.push(LayerOption {
                params: LayerParams::Exact,
                ops: exact_ops,
                err: 0.0,
            });
        }
        opts.sort_by_key(|o| o.ops);
        opts
    }

    /// The paper's `GLOBALOPTIMIZATIONPASS` + `ADJUSTPARAM`.
    fn global_pass(
        &self,
        options: &BTreeMap<NodeId, Vec<LayerOption>>,
        batch: &Tensor4,
        baseline: f64,
    ) -> (BTreeMap<NodeId, usize>, usize) {
        let mut current: BTreeMap<NodeId, usize> = options.keys().map(|&l| (l, 0usize)).collect();
        let simulate = |cur: &BTreeMap<NodeId, usize>| -> f64 {
            snapea_obs::counter("optimizer/probes").inc();
            let mut params = NetworkParams::new();
            for (&l, &t) in cur {
                params.set(l, options[&l][t].params.clone());
            }
            let spec = SpecNet::new(self.net, &params);
            baseline - self.accuracy_of(spec.forward(batch).last())
        };
        let mut err = simulate(&current);
        let mut iters = 0usize;
        while err > self.cfg.epsilon && iters < self.cfg.max_global_iters {
            // ADJUSTPARAM: best merit −Δerr/Δop over every possible move.
            let mut best: Option<(NodeId, usize, f64)> = None;
            for (&l, opts) in options {
                let cur_t = current[&l];
                let cur_opt = &opts[cur_t];
                for (t, opt) in opts.iter().enumerate().skip(cur_t + 1) {
                    let d_err = opt.err - cur_opt.err;
                    let d_ops = (opt.ops.saturating_sub(cur_opt.ops)).max(1) as f64;
                    let merit = -d_err / d_ops;
                    if best.map(|(_, _, m)| merit > m).unwrap_or(true) {
                        best = Some((l, t, merit));
                    }
                }
            }
            let Some((l, t, _)) = best else {
                // Nothing left to adjust: fall back to all-exact.
                for (&l, opts) in options {
                    let exact_idx = opts
                        .iter()
                        .position(|o| !o.params.is_predictive())
                        .unwrap_or(opts.len() - 1);
                    current.insert(l, exact_idx);
                }
                iters += 1;
                break;
            };
            current.insert(l, t);
            err = simulate(&current);
            iters += 1;
        }
        (current, iters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapea_nn::zoo;

    fn small_setup() -> (Graph, Vec<LabeledImage>) {
        let net = zoo::mini_alexnet(4);
        let data = SynthShapes::new(zoo::INPUT_SIZE, 4).generate(16, 77);
        (net, data)
    }

    #[test]
    fn optimizer_respects_epsilon() {
        let (net, data) = small_setup();
        let cfg = OptimizerConfig {
            group_candidates: vec![1, 4],
            threshold_quantiles: vec![0.5],
            local_configs: 3,
            ..OptimizerConfig::with_epsilon(0.10)
        };
        let out = Optimizer::new(&net, &data, cfg).run();
        assert!(
            out.accuracy_loss() <= 0.10 + 1e-9,
            "loss {} exceeds epsilon",
            out.accuracy_loss()
        );
        assert!(
            out.final_ops <= out.exact_ops,
            "optimizer made things worse"
        );
        assert!(out.exact_ops < out.full_macs);
        assert_eq!(out.per_layer.len(), net.conv_ids().len());
    }

    #[test]
    fn zero_epsilon_keeps_exact_accuracy() {
        let (net, data) = small_setup();
        let cfg = OptimizerConfig {
            group_candidates: vec![2],
            threshold_quantiles: vec![0.5],
            local_configs: 2,
            ..OptimizerConfig::with_epsilon(0.0)
        };
        let out = Optimizer::new(&net, &data, cfg).run();
        assert!(out.accuracy_loss() <= 1e-9, "loss {}", out.accuracy_loss());
    }

    #[test]
    fn looser_epsilon_never_costs_more_ops() {
        let (net, data) = small_setup();
        let mk = |eps: f64| {
            let cfg = OptimizerConfig {
                group_candidates: vec![1, 4],
                threshold_quantiles: vec![0.5, 0.9],
                local_configs: 3,
                ..OptimizerConfig::with_epsilon(eps)
            };
            Optimizer::new(&net, &data, cfg).run()
        };
        let tight = mk(0.0);
        let loose = mk(0.25);
        assert!(
            loose.final_ops <= tight.final_ops,
            "loose {} > tight {}",
            loose.final_ops,
            tight.final_ops
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_dataset() {
        let net = zoo::mini_alexnet(4);
        let data: Vec<LabeledImage> = Vec::new();
        let _ = Optimizer::new(&net, &data, OptimizerConfig::default());
    }
}
