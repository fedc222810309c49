//! Static weight reordering — the paper's Sign-Based Weight Reordering and
//! Weight Reordering (predictive) passes.
//!
//! Reordering is purely a software transform: the hardware receives the
//! weights in the new order plus an *index buffer* mapping each reordered
//! position back to the original weight index, so the PE can fetch the
//! matching input value (the inputs cannot be reordered — their order is
//! fixed by the activation layout).

/// A kernel's weights in SnaPEA execution order, together with the index
/// buffer contents.
///
/// Layout of the reordered sequence:
///
/// ```text
/// [ speculative set (spec_len) | remaining positives | remaining negatives ]
///                                                      ^ neg_start
/// ```
///
/// In exact mode `spec_len == 0`. `neg_start` is the position at which the
/// hardware begins its per-MAC sign checks.
#[derive(Debug, Clone, PartialEq)]
pub struct ReorderedKernel {
    order: Vec<u32>,
    weights: Vec<f32>,
    spec_len: usize,
    neg_start: usize,
}

impl ReorderedKernel {
    /// The index buffer: `order()[p]` is the original index of the weight at
    /// reordered position `p`.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// The weights in reordered (execution) order.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Number of leading speculative weights (0 in exact mode).
    pub fn spec_len(&self) -> usize {
        self.spec_len
    }

    /// Position where the trailing negative-weight region begins — the point
    /// from which the PAU performs per-MAC sign checks.
    pub fn neg_start(&self) -> usize {
        self.neg_start
    }

    /// Total number of weights.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the kernel has no weights.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The kernel whose speculative set is `spec`, followed by every other
    /// weight: the non-negative ones in original order, then the negative
    /// ones in descending magnitude order. A weight is negative iff `w <
    /// 0.0`; every other weight, `±0.0` and NaN included, is non-negative,
    /// so every weight lands in exactly one region.
    ///
    /// Within-subset order does not affect exactness (the sign check is only
    /// sound once *all* positives are done), but processing the
    /// largest-magnitude negatives first drives the partial sum below zero
    /// soonest, maximising the number of skipped MACs. This is the natural
    /// implementation choice for the paper's "negative subset".
    fn from_spec(weights: &[f32], spec: Vec<u32>) -> Self {
        let in_spec: std::collections::BTreeSet<u32> = spec.iter().copied().collect();
        let (mut negs, nonneg): (Vec<u32>, Vec<u32>) = (0..weights.len() as u32)
            .filter(|i| !in_spec.contains(i))
            .partition(|&i| weights[i as usize] < 0.0);
        negs.sort_by(|&a, &b| {
            weights[a as usize]
                .total_cmp(&weights[b as usize])
                .then(a.cmp(&b))
        });
        let spec_len = spec.len();
        let mut order = spec;
        order.extend(nonneg);
        let neg_start = order.len();
        order.extend(negs);
        let reordered: Vec<f32> = order.iter().map(|&i| weights[i as usize]).collect();
        Self {
            order,
            weights: reordered,
            spec_len,
            neg_start,
        }
    }
}

/// Exact-mode reordering: non-negative weights first (original relative
/// order preserved), then negative weights in descending magnitude order
/// (earliest possible sign-check termination).
pub fn sign_reorder(weights: &[f32]) -> ReorderedKernel {
    ReorderedKernel::from_spec(weights, Vec::new())
}

/// Predictive-mode reordering (paper §IV-A): sort the weights in ascending
/// order, partition them into `groups` near-equal contiguous groups, take the
/// largest-magnitude representative of each group as the speculative set,
/// then order the remaining weights positive-first / negative-last as in
/// [`sign_reorder`]. Magnitudes compare by `total_cmp`, so a NaN weight is
/// its group's largest.
///
/// Selecting one representative per group — rather than simply the `groups`
/// largest-magnitude weights — lets small weights (which may multiply large,
/// data-dependent inputs) participate in the speculation; the paper reports
/// that magnitude-only selection "drastically declines" accuracy, and the
/// `ablation_speculative_selection` bench reproduces that comparison.
///
/// # Panics
///
/// Panics if `groups == 0` or `groups > weights.len()`.
pub fn predictive_reorder(weights: &[f32], groups: usize) -> ReorderedKernel {
    assert!(groups >= 1, "at least one group");
    assert!(
        groups <= weights.len(),
        "groups ({groups}) exceed weight count ({})",
        weights.len()
    );
    // Ascending sort of the weight *values* (ties broken by index for
    // determinism).
    let mut sorted: Vec<u32> = (0..weights.len() as u32).collect();
    sorted.sort_by(|&a, &b| {
        weights[a as usize]
            .total_cmp(&weights[b as usize])
            .then(a.cmp(&b))
    });
    // Partition into `groups` near-equal contiguous chunks; from each take
    // the largest-magnitude element.
    let mut spec: Vec<u32> = Vec::with_capacity(groups);
    let len = sorted.len();
    for g in 0..groups {
        let lo = g * len / groups;
        let hi = ((g + 1) * len / groups).max(lo + 1);
        let pick = sorted[lo..hi]
            .iter()
            .copied()
            .max_by(|&a, &b| {
                weights[a as usize]
                    .abs()
                    .total_cmp(&weights[b as usize].abs())
                    .then(a.cmp(&b))
            })
            // lint:allow(P1) hi is clamped to at least lo + 1, so the group slice is never empty
            .expect("non-empty group");
        spec.push(pick);
    }
    ReorderedKernel::from_spec(weights, spec)
}

/// Ablation reordering (paper §IV-A's rejected alternative): speculative set
/// = the `count` largest-magnitude weights outright. Kept for the
/// `ablation_speculative_selection` experiment.
///
/// # Panics
///
/// Panics if `count == 0` or `count > weights.len()`.
pub fn magnitude_reorder(weights: &[f32], count: usize) -> ReorderedKernel {
    assert!(
        count >= 1 && count <= weights.len(),
        "bad speculative count"
    );
    let mut by_mag: Vec<u32> = (0..weights.len() as u32).collect();
    by_mag.sort_by(|&a, &b| {
        weights[b as usize]
            .abs()
            .total_cmp(&weights[a as usize].abs())
            .then(a.cmp(&b))
    });
    by_mag.truncate(count);
    ReorderedKernel::from_spec(weights, by_mag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_permutation(order: &[u32], len: usize) -> bool {
        let mut seen = vec![false; len];
        for &i in order {
            if seen[i as usize] {
                return false;
            }
            seen[i as usize] = true;
        }
        order.len() == len
    }

    /// NaN, ±inf and ±0.0 among ordinary weights.
    const HOSTILE: [f32; 8] = [
        0.5,
        f32::NAN,
        -0.0,
        f32::NEG_INFINITY,
        -1.0,
        f32::INFINITY,
        0.0,
        -0.25,
    ];

    /// Past the speculative set, every weight before `neg_start` is not `<
    /// 0.0` (NaN included) and every weight from it on is.
    fn has_sign_regions(r: &ReorderedKernel) -> bool {
        let negative = |v: &f32| *v < 0.0;
        let (mid, tail) = r.weights()[r.spec_len()..].split_at(r.neg_start() - r.spec_len());
        !mid.iter().any(negative) && tail.iter().all(negative)
    }

    #[test]
    fn sign_reorder_partitions_by_sign() {
        let w = [0.5, -1.0, 0.0, 2.0, -0.25];
        let r = sign_reorder(&w);
        assert!(is_permutation(r.order(), w.len()));
        assert_eq!(r.spec_len(), 0);
        assert_eq!(r.neg_start(), 3);
        assert!(r.weights()[..3].iter().all(|&v| v >= 0.0));
        assert!(r.weights()[3..].iter().all(|&v| v < 0.0));
        // Positives keep original order; negatives descend in magnitude.
        assert_eq!(r.order(), &[0, 2, 3, 1, 4]);
        assert_eq!(&r.weights()[3..], &[-1.0, -0.25]);

        // NaN and -0.0 are not `< 0.0`: they keep their place among the
        // non-negative weights, and every weight is walked.
        let r = sign_reorder(&HOSTILE);
        assert_eq!(r.order(), &[0, 1, 2, 5, 6, 3, 4, 7]);
        assert_eq!(r.neg_start(), 5);
    }

    #[test]
    fn sign_reorder_all_positive_or_all_negative() {
        let r = sign_reorder(&[1.0, 2.0]);
        assert_eq!(r.neg_start(), 2);
        let r = sign_reorder(&[-1.0, -2.0]);
        assert_eq!(r.neg_start(), 0);
    }

    #[test]
    fn predictive_reorder_structure() {
        let ordinary = [0.1, -0.9, 0.4, -0.2, 0.8, -0.05, 0.3, 0.05];
        for w in [ordinary, HOSTILE] {
            for groups in 1..=w.len() {
                let r = predictive_reorder(&w, groups);
                assert!(is_permutation(r.order(), w.len()), "{w:?} groups={groups}");
                assert_eq!(r.spec_len(), groups);
                assert!(r.neg_start() >= groups);
                // Region after spec: positives then negatives.
                assert!(has_sign_regions(&r), "{w:?} groups={groups}");
            }
        }
        // Magnitudes compare by `total_cmp`: NaN outranks ±inf, and -inf
        // ties +inf, the lower index first.
        assert_eq!(predictive_reorder(&HOSTILE, 1).order()[0], 1);
        assert_eq!(magnitude_reorder(&HOSTILE, 2).order()[..2], [1, 3]);
    }

    #[test]
    fn predictive_groups_cover_small_weights() {
        // With enough groups, at least one small-magnitude weight must appear
        // in the speculative set (the whole point of group-based selection).
        let w = [-1.0, 1.0, 0.01, -0.02, 0.03, -0.04, 0.05, 0.06];
        let r = predictive_reorder(&w, 4);
        let spec: Vec<f32> = r.weights()[..4].to_vec();
        assert!(
            spec.iter().any(|v| v.abs() < 0.1),
            "speculative set {spec:?} contains no small weight"
        );
    }

    #[test]
    fn magnitude_reorder_takes_largest() {
        let w = [0.1, -0.9, 0.4, -0.2, 0.8];
        let r = magnitude_reorder(&w, 2);
        let spec: Vec<f32> = r.weights()[..2].to_vec();
        assert_eq!(spec, vec![-0.9, 0.8]);
        assert!(is_permutation(r.order(), w.len()));
    }

    #[test]
    fn groups_equal_len_selects_everything() {
        let w = [0.3, -0.1, 0.2];
        let r = predictive_reorder(&w, 3);
        assert_eq!(r.spec_len(), 3);
        assert_eq!(r.neg_start(), 3);
        let mut spec: Vec<u32> = r.order().to_vec();
        spec.sort_unstable();
        assert_eq!(spec, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "groups")]
    fn predictive_rejects_too_many_groups() {
        let _ = predictive_reorder(&[1.0, 2.0], 3);
    }

    #[test]
    fn index_buffer_round_trips_weights() {
        let ordinary = [0.5, -1.0, 0.0, 2.0, -0.25, 0.7];
        for w in [&ordinary[..], &HOSTILE] {
            for r in [
                sign_reorder(w),
                predictive_reorder(w, 3),
                magnitude_reorder(w, 2),
            ] {
                assert!(is_permutation(r.order(), w.len()), "{w:?}");
                assert!(has_sign_regions(&r), "{w:?}");
                for (p, &orig) in r.order().iter().enumerate() {
                    assert_eq!(r.weights()[p].to_bits(), w[orig as usize].to_bits());
                }
            }
        }
    }
}
