//! Kernel Profiling Pass (Algorithm 1, `KERNELPROFILINGPASS`).
//!
//! For every kernel in isolation, this pass measures the operation count and
//! a local error estimate for a grid of `(Th, N)` candidates, keeping those
//! whose error is acceptable, sorted by ascending operation count.
//!
//! ## Fidelity note
//!
//! The paper's inner `Simulate` call re-runs the whole network per kernel per
//! candidate to obtain the end-to-end accuracy loss. With hundreds of kernels
//! per network that is prohibitively slow on a CPU-only reproduction, so this
//! pass scores candidates with a *local surrogate*: the fraction of the
//! kernel's positive output **mass** that the candidate would squash to zero.
//! The paper itself observes (§VI-B, "Prediction accuracy") that >86% of
//! prediction error falls on small positive values filtered by downstream
//! max-pooling — i.e. squashed positive mass, not squashed count, is what
//! tracks final accuracy. The Local and Global optimization passes then
//! measure *real* network accuracy, exactly as in the paper, so surrogate
//! mis-rankings are corrected before any parameter is adopted.

use crate::exec::{observe_kernel, KernelExec, WindowObs, WindowPlan};
use crate::params::{KernelMode, KernelParams};
use crate::pau::Pau;
use crate::reorder::{predictive_reorder, sign_reorder};
use snapea_nn::ops::Conv2d;
use snapea_tensor::Tensor4;

/// One profiled candidate for a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCandidate {
    /// The kernel mode this candidate represents.
    pub mode: KernelMode,
    /// Total MACs over the profiling set when this kernel runs alone with
    /// this mode.
    pub ops: u64,
    /// Local surrogate error: squashed positive mass / total positive mass
    /// (always 0 for the exact candidate).
    pub surrogate_err: f64,
}

/// Profiled candidates of one kernel, sorted by ascending `ops`. Always
/// contains the exact-mode candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTable {
    candidates: Vec<KernelCandidate>,
}

impl KernelTable {
    /// Candidates sorted by ascending op count.
    pub fn candidates(&self) -> &[KernelCandidate] {
        &self.candidates
    }

    /// The `t`-th cheapest candidate, clamped to the table length (the
    /// indexing rule of Algorithm 1's Local Optimization pass).
    pub fn get_clamped(&self, t: usize) -> &KernelCandidate {
        &self.candidates[t.min(self.candidates.len() - 1)]
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the table is empty (never true for tables built by
    /// [`profile_layer_kernels`]).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }
}

/// The speculative partial sums of the truly-negative windows among `obs`
/// (full sum `< 0`), sorted ascending: the distribution a speculating
/// kernel's threshold is picked from.
pub fn negative_prefixes(obs: &[WindowObs]) -> Vec<f32> {
    let mut prefixes: Vec<f32> = obs
        .iter()
        .filter(|o| o.full < 0.0)
        .map(|o| o.prefix)
        .collect();
    prefixes.sort_by(f32::total_cmp);
    prefixes
}

/// The threshold at quantile `q` of ascending-sorted speculative partial
/// sums (nearest rank), or `None` when there are none.
pub fn threshold_at(sorted: &[f32], q: f64) -> Option<f32> {
    let last = sorted.len().checked_sub(1)?;
    let idx = (last as f64 * q).round() as usize;
    sorted.get(idx.min(last)).copied()
}

/// Profiles every kernel of `conv` against the layer input `input` (a batch
/// of optimization-set activations), producing one [`KernelTable`] per
/// kernel.
///
/// `group_candidates` is the grid of `N` values; thresholds are derived per
/// `(kernel, N)` from the `threshold_quantiles` of the speculative partial
/// sums of truly-negative windows. Candidates whose surrogate error exceeds
/// `budget` are discarded. The exact-mode candidate is always present.
pub fn profile_layer_kernels(
    conv: &Conv2d,
    input: &Tensor4,
    group_candidates: &[usize],
    threshold_quantiles: &[f64],
    budget: f64,
) -> Vec<KernelTable> {
    // One input and plan per layer, shared by every kernel and candidate:
    // the executor's own, so the observed walks are the executor's walks.
    let (input, plan) = WindowPlan::for_layer(conv, input);
    let windows = plan.windows();
    let images = input.shape().n;
    let window_len = conv.window_len();

    // Kernels are profiled in isolation, so the candidate walks — the
    // optimizer's dominant loop — fan out in blocks of kernels; the result
    // vector preserves kernel order and each kernel's numbers never depend
    // on the thread count or the block size. A kernel's cost is one
    // observed layer walk per candidate (the exact reorder plus each
    // in-range N), and the pool's walk floor groups kernels — or collapses
    // the whole profile to an inline call — when the walks are too small to
    // amortise a dispatch (tiny layers used to pay ~1.5× dispatch overhead
    // here).
    let grid: Vec<usize> = group_candidates
        .iter()
        .copied()
        .filter(|&n| n > 0 && n < window_len)
        .collect();
    let kernel_cost = (1 + grid.len()) * images * windows * window_len;
    let chunk = snapea_tensor::par::chunk_for(
        conv.c_out(),
        kernel_cost,
        snapea_tensor::par::WALK_TASK_FLOOR_OPS,
    );
    snapea_tensor::par::parallel_map(conv.c_out(), chunk, |k| {
        let weights = conv.weight().item(k);
        // The exact reordering under `Pau::exact`, then each in-range N's
        // predictive reordering under a threshold no partial sum is below,
        // so only sign checks fire: a window's `ops` is its sign-check op
        // count, its `prefix` the speculative partial sum every threshold
        // is compared against. All of them walk each tile fill together.
        let exact = sign_reorder(weights);
        let pau = Pau::exact(&exact);
        let mut walks = vec![KernelExec::new(exact, pau)];
        for &n in &grid {
            let r = predictive_reorder(weights, n);
            let pau = Pau::predictive(&r, KernelParams::new(f32::NEG_INFINITY, n));
            walks.push(KernelExec::new(r, pau));
        }
        let columns = images * windows;
        let mut obs = vec![WindowObs::default(); walks.len() * columns];
        observe_kernel(&plan, &walks, conv.bias()[k], &input, &mut obs);
        let walk_obs = |r: usize| &obs[r * columns..(r + 1) * columns];

        // Exact-mode candidate: the executor's exact walk.
        let mut candidates = vec![KernelCandidate {
            mode: KernelMode::Exact,
            ops: walk_obs(0).iter().map(|o| u64::from(o.result.ops)).sum(),
            surrogate_err: 0.0,
        }];

        for (r, &n) in grid.iter().enumerate() {
            let obs = walk_obs(r + 1);
            // Threshold grid: quantiles of the speculative partial sums of
            // truly-negative windows. No negative windows → nothing for this
            // kernel to gain from speculating at this N.
            let neg_prefixes = negative_prefixes(obs);
            let positive_mass: f64 = obs.iter().map(|o| o.full.max(0.0) as f64).sum();
            for th in threshold_quantiles
                .iter()
                .filter_map(|&q| threshold_at(&neg_prefixes, q))
            {
                let mut ops = 0u64;
                let mut squashed = 0.0f64;
                for o in obs {
                    if o.prefix < th {
                        ops += n as u64;
                        if o.full >= 0.0 {
                            squashed += o.full as f64;
                        }
                    } else {
                        ops += u64::from(o.result.ops);
                    }
                }
                let surrogate_err = if positive_mass > 0.0 {
                    squashed / positive_mass
                } else {
                    0.0
                };
                if surrogate_err <= budget {
                    candidates.push(KernelCandidate {
                        mode: KernelMode::spec(th, n),
                        ops,
                        surrogate_err,
                    });
                }
            }
        }

        candidates.sort_by_key(|c| c.ops);
        KernelTable { candidates }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapea_tensor::im2col::ConvGeom;
    use snapea_tensor::{init, Shape4};

    fn setup() -> (Conv2d, Tensor4) {
        let mut rng = init::rng(3);
        let conv = Conv2d::new(3, 4, ConvGeom::square(3, 1, 1), &mut rng);
        let input = init::uniform4(Shape4::new(3, 3, 8, 8), 1.0, &mut rng).map(f32::abs);
        (conv, input)
    }

    #[test]
    fn tables_always_contain_exact() {
        let (conv, input) = setup();
        let tables = profile_layer_kernels(&conv, &input, &[1, 2, 4], &[0.25, 0.5], 1.0);
        assert_eq!(tables.len(), conv.c_out());
        for t in &tables {
            assert!(!t.is_empty());
            assert!(t
                .candidates()
                .iter()
                .any(|c| matches!(c.mode, KernelMode::Exact)));
            // Sorted ascending by ops.
            for pair in t.candidates().windows(2) {
                assert!(pair[0].ops <= pair[1].ops);
            }
        }
    }

    #[test]
    fn generous_budget_admits_predictive_candidates() {
        let (conv, input) = setup();
        let tables = profile_layer_kernels(&conv, &input, &[1, 2, 4, 8], &[0.5, 0.9], 1.0);
        let any_spec = tables.iter().any(|t| {
            t.candidates()
                .iter()
                .any(|c| matches!(c.mode, KernelMode::Speculate(_)))
        });
        assert!(
            any_spec,
            "no speculative candidate survived a budget of 1.0"
        );
    }

    #[test]
    fn zero_budget_keeps_only_harmless_candidates() {
        let (conv, input) = setup();
        let tables = profile_layer_kernels(&conv, &input, &[1, 2, 4], &[0.5], 0.0);
        for t in &tables {
            for c in t.candidates() {
                assert_eq!(c.surrogate_err, 0.0);
            }
        }
    }

    #[test]
    fn predictive_candidates_cost_less_than_exact_when_aggressive() {
        let (conv, input) = setup();
        let tables = profile_layer_kernels(&conv, &input, &[1, 2], &[0.9], 1.0);
        for t in &tables {
            let exact_ops = t
                .candidates()
                .iter()
                .find(|c| matches!(c.mode, KernelMode::Exact))
                .map(|c| c.ops)
                .expect("exact present");
            if let Some(spec) = t
                .candidates()
                .iter()
                .find(|c| matches!(c.mode, KernelMode::Speculate(_)))
            {
                assert!(
                    spec.ops <= exact_ops,
                    "aggressive speculation should not cost more than exact"
                );
            }
        }
    }

    /// Every candidate's `ops` is the executor's op total for that kernel
    /// run alone in that mode on the profiling input — on padded,
    /// unpadded and strided layers, so padded copies, full batches and the
    /// windows left over after the last batch all count.
    #[test]
    fn candidate_ops_match_the_executor() {
        use crate::exec::{execute_conv, LayerConfig};
        for geom in [
            ConvGeom::square(3, 1, 1),
            ConvGeom::square(3, 1, 0),
            ConvGeom::square(3, 2, 1),
        ] {
            let mut rng = init::rng(77);
            let conv = Conv2d::new(3, 4, geom, &mut rng);
            let input = init::uniform4(Shape4::new(2, 3, 9, 9), 1.0, &mut rng).map(f32::abs);
            let tables =
                profile_layer_kernels(&conv, &input, &[1, 2, 4, 8], &[0.25, 0.5, 0.9, 1.0], 1.0);
            for (k, t) in tables.iter().enumerate() {
                for c in t.candidates() {
                    let mut modes = vec![KernelMode::Exact; conv.c_out()];
                    modes[k] = c.mode;
                    let cfg = LayerConfig::predictive(&conv, &modes);
                    let p = execute_conv(&conv, &input, &cfg).profile;
                    let ops: u64 = (0..p.images())
                        .flat_map(|n| p.kernel_ops(n, k))
                        .map(|&o| u64::from(o))
                        .sum();
                    assert_eq!(c.ops, ops, "{geom:?} kernel {k} {:?}", c.mode);
                }
            }
        }
    }

    #[test]
    fn get_clamped_saturates() {
        let (conv, input) = setup();
        let tables = profile_layer_kernels(&conv, &input, &[2], &[0.5], 1.0);
        let t = &tables[0];
        let last = t.get_clamped(usize::MAX);
        assert_eq!(last, &t.candidates()[t.len() - 1]);
    }
}
