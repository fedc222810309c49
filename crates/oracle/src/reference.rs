//! Deliberately-naive reference implementations.
//!
//! Everything here is written from the paper's definitions (and the
//! workspace's documented layout conventions) using direct coordinate
//! loops: no im2col, no GEMM, no worker pool, no `WindowPlan`. The window
//! walk re-derives the sign/predictive weight ordering and the PAU decision
//! rule from their specifications, and sums each window as a PE lane does
//! (the bias, then one `acc + x·w` per position in execution order;
//! DESIGN.md §11), so the executor's output can be pinned **bit-for-bit** —
//! the oracle performs the identical sequence of `f32` operations, arrived
//! at through independent code.
//!
//! Layout conventions relied on (all documented on the fast-path types):
//!
//! * activations and conv weights are dense row-major NCHW; a kernel's flat
//!   weight index is `(c * kh + ky) * kw + kx`;
//! * a convolution's padding tap is a `+0.0` input, MACed like any other
//!   tap (as Caffe's im2col writes padding as zeros), so `0.0 · ±inf` and
//!   `0.0 · NaN` are NaN and a `-0.0` partial sum plus a `+0.0` product is
//!   `+0.0`;
//! * a weight is in a kernel's negative region iff `w < 0.0`; every other
//!   weight, `±0.0` and NaN included, is non-negative;
//! * output extents are `(d + 2·pad).saturating_sub(k) / stride + 1` for
//!   convolutions (a kernel larger than the padded input still produces one
//!   all-padding window) and `0` when `d + 2·pad < k` for pooling;
//! * max-pool treats padding as absent and keeps a tap only if it is
//!   strictly greater than the best so far, starting from −∞ in row-major
//!   window order (NaN never wins, the first of tied values wins, and a
//!   window with no value above −∞ outputs 0 with argmax `u32::MAX`);
//!   average-pool divides by the full window area.

use snapea::exec::PredictionStats;
use snapea::params::{KernelMode, LayerParams};
use snapea_tensor::q16::Q16Format;
use snapea_tensor::{ConvGeom, Shape4, Tensor2, Tensor4};

/// Convolution output extent along one dimension.
pub fn conv_out_dim(d: usize, k: usize, stride: usize, pad: usize) -> usize {
    (d + 2 * pad).saturating_sub(k) / stride + 1
}

/// Pooling output extent along one dimension (0 when the padded input is
/// smaller than the window).
pub fn pool_out_dim(d: usize, k: usize, stride: usize, pad: usize) -> usize {
    let padded = d + 2 * pad;
    if padded < k {
        0
    } else {
        (padded - k) / stride + 1
    }
}

/// MAC count of a dense convolution over `input` (no skipping of any kind).
pub fn dense_macs(input: Shape4, c_out: usize, geom: ConvGeom) -> u64 {
    let oh = conv_out_dim(input.h, geom.kh, geom.stride, geom.pad);
    let ow = conv_out_dim(input.w, geom.kw, geom.stride, geom.pad);
    (input.n * c_out * oh * ow * input.c * geom.kh * geom.kw) as u64
}

/// Direct 7-loop convolution: `n, o, oy, ox`, then the weight index over
/// `c, ky, kx`, accumulating in `f32` with the bias added first. A padding
/// tap is a `+0.0` input.
pub fn conv_dense(weight: &Tensor4, bias: &[f32], geom: ConvGeom, input: &Tensor4) -> Tensor4 {
    let s = input.shape();
    let ws = weight.shape();
    assert_eq!(ws.c, s.c, "kernel channels match input channels");
    assert_eq!(bias.len(), ws.n, "one bias per kernel");
    let oh = conv_out_dim(s.h, geom.kh, geom.stride, geom.pad);
    let ow = conv_out_dim(s.w, geom.kw, geom.stride, geom.pad);
    let mut out = Tensor4::zeros(Shape4::new(s.n, ws.n, oh, ow));
    for n in 0..s.n {
        for o in 0..ws.n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[o];
                    for (i, &w) in weight.item(o).iter().enumerate() {
                        acc += tap(input, n, oy, ox, i, geom) * w;
                    }
                    out[(n, o, oy, ox)] = acc;
                }
            }
        }
    }
    out
}

/// Element-wise rectifier.
pub fn relu(t: &Tensor4) -> Tensor4 {
    let mut out = t.clone();
    for v in out.as_mut_slice() {
        *v = v.max(0.0);
    }
    out
}

/// Naive max pooling (Caffe semantics; see module docs). Returns the output
/// and the argmax map (linear input offsets, `u32::MAX` for all-padding
/// windows).
pub fn maxpool(input: &Tensor4, k: usize, stride: usize, pad: usize) -> (Tensor4, Vec<u32>) {
    let s = input.shape();
    let (oh, ow) = (
        pool_out_dim(s.h, k, stride, pad),
        pool_out_dim(s.w, k, stride, pad),
    );
    let mut out = Tensor4::zeros(Shape4::new(s.n, s.c, oh, ow));
    let mut arg = Vec::with_capacity(s.n * s.c * oh * ow);
    for n in 0..s.n {
        for c in 0..s.c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_off = u32::MAX;
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if iy < 0 || ix < 0 || iy as usize >= s.h || ix as usize >= s.w {
                                continue;
                            }
                            let v = input[(n, c, iy as usize, ix as usize)];
                            if v > best {
                                best = v;
                                best_off = s.offset(n, c, iy as usize, ix as usize) as u32;
                            }
                        }
                    }
                    out[(n, c, oy, ox)] = if best_off == u32::MAX { 0.0 } else { best };
                    arg.push(best_off);
                }
            }
        }
    }
    (out, arg)
}

/// Naive average pooling: padding counts as zero, the divisor is always the
/// full `k × k` window area.
pub fn avgpool(input: &Tensor4, k: usize, stride: usize, pad: usize) -> Tensor4 {
    let s = input.shape();
    let (oh, ow) = (
        pool_out_dim(s.h, k, stride, pad),
        pool_out_dim(s.w, k, stride, pad),
    );
    let mut out = Tensor4::zeros(Shape4::new(s.n, s.c, oh, ow));
    for n in 0..s.n {
        for c in 0..s.c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if iy >= 0 && ix >= 0 && (iy as usize) < s.h && (ix as usize) < s.w {
                                acc += input[(n, c, iy as usize, ix as usize)];
                            }
                        }
                    }
                    out[(n, c, oy, ox)] = acc / (k * k) as f32;
                }
            }
        }
    }
    out
}

/// Naive cross-channel LRN (Caffe `ACROSS_CHANNELS`):
/// `y = x / (k + alpha / size · Σ x'²)^beta`, where the sum runs in
/// ascending channel order over the `size` channels centred on `c`,
/// clamped at the edges (`c − size/2 ..= c + size/2`).
pub fn lrn(input: &Tensor4, size: usize, alpha: f32, beta: f32, k: f32) -> Tensor4 {
    let s = input.shape();
    let half = size / 2;
    let mut out = Tensor4::zeros(s);
    for n in 0..s.n {
        for c in 0..s.c {
            for y in 0..s.h {
                for x in 0..s.w {
                    let mut acc = 0.0f32;
                    for cc in c.saturating_sub(half)..(c + half + 1).min(s.c) {
                        let v = input[(n, cc, y, x)];
                        acc += v * v;
                    }
                    let scale = k + alpha / size as f32 * acc;
                    out[(n, c, y, x)] = input[(n, c, y, x)] / scale.powf(beta);
                }
            }
        }
    }
    out
}

/// Naive fully-connected forward: `y[n][o] = b[o] + Σ_i W[o][i]·x[n][i]`.
pub fn fc(weight: &Tensor2, bias: &[f32], input: &Tensor4) -> Tensor4 {
    let s = input.shape();
    let (rows, cols) = (weight.shape().rows, weight.shape().cols);
    assert_eq!(s.item_len(), cols, "input features match weight columns");
    assert_eq!(bias.len(), rows, "one bias per output feature");
    let mut out = Tensor4::zeros(Shape4::new(s.n, rows, 1, 1));
    for n in 0..s.n {
        let x = input.item(n);
        for o in 0..rows {
            let mut acc = bias[o];
            for (i, &xv) in x.iter().enumerate() {
                acc += weight[(o, i)] * xv;
            }
            out[(n, o, 0, 0)] = acc;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Independent SnaPEA window walk
// ---------------------------------------------------------------------------

/// Why the oracle walk stopped early (mirrors the paper's two termination
/// mechanisms; independent of `snapea::TerminationKind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleTermination {
    /// Speculative threshold check fired after the speculative MACs.
    Predicted,
    /// Sign check fired in the trailing negative-weight region.
    SignCheck,
}

/// One kernel's execution order, re-derived from the reordering spec.
#[derive(Debug, Clone)]
pub struct OracleOrder {
    /// Original weight index at each execution position.
    pub order: Vec<usize>,
    /// Speculative prefix length (0 = exact mode).
    pub spec_len: usize,
    /// Position where the trailing negative region begins.
    pub neg_start: usize,
    /// Speculative threshold (ignored when `spec_len == 0`).
    pub threshold: f32,
}

/// Ascending `(value, index)` comparison per the reordering spec's
/// `total_cmp`-plus-index tie-break (total order, so `-0.0` sorts before
/// `0.0` and no NaN escape hatch is needed) — mirroring `snapea`'s
/// `reorder` module exactly.
fn by_value(weights: &[f32]) -> impl Fn(&usize, &usize) -> std::cmp::Ordering + '_ {
    |&a, &b| weights[a].total_cmp(&weights[b]).then(a.cmp(&b))
}

/// `order` followed by every other weight index: the non-negative weights
/// in original order, then the negative ones (`w < 0.0`) ascending by value
/// (descending magnitude), ties by index. Returns the order and the start
/// of its negative region.
fn then_by_sign(mut order: Vec<usize>, weights: &[f32]) -> (Vec<usize>, usize) {
    let (mut negs, nonneg): (Vec<usize>, Vec<usize>) = (0..weights.len())
        .filter(|i| !order.contains(i))
        .partition(|&i| weights[i] < 0.0);
    order.extend(nonneg);
    let neg_start = order.len();
    negs.sort_by(by_value(weights));
    order.extend(negs);
    (order, neg_start)
}

/// Exact-mode order: non-negative weights in original order, then negative
/// weights ascending by value (descending magnitude), ties by index.
pub fn exact_order(weights: &[f32]) -> OracleOrder {
    let (order, neg_start) = then_by_sign(Vec::new(), weights);
    OracleOrder {
        order,
        spec_len: 0,
        neg_start,
        threshold: 0.0,
    }
}

/// Predictive-mode order: sort ascending by value, split into `groups`
/// near-equal contiguous chunks (`lo = g·len/groups`, `hi = (g+1)·len/groups`),
/// take each chunk's largest-magnitude member (magnitudes by `total_cmp`,
/// so a NaN is the largest; ties to the higher index) as the speculative
/// prefix, then the remaining weights positive-first as in [`exact_order`].
///
/// # Panics
///
/// Panics if `groups` is zero or exceeds the weight count.
pub fn predictive_order(weights: &[f32], groups: usize, threshold: f32) -> OracleOrder {
    let len = weights.len();
    assert!(groups >= 1 && groups <= len, "1 <= groups <= weight count");
    let mut sorted: Vec<usize> = (0..len).collect();
    sorted.sort_by(by_value(weights));
    let mut spec = Vec::with_capacity(groups);
    for g in 0..groups {
        let lo = g * len / groups;
        let hi = ((g + 1) * len / groups).max(lo + 1);
        let mut pick = sorted[lo];
        for &i in &sorted[lo..hi] {
            let magnitude = weights[i].abs().total_cmp(&weights[pick].abs());
            if magnitude.then(i.cmp(&pick)).is_gt() {
                pick = i;
            }
        }
        spec.push(pick);
    }
    let (order, neg_start) = then_by_sign(spec, weights);
    OracleOrder {
        order,
        spec_len: groups,
        neg_start,
        threshold,
    }
}

/// Derives the order for one kernel under `mode`.
pub fn order_for_mode(weights: &[f32], mode: KernelMode) -> OracleOrder {
    match mode {
        KernelMode::Exact => exact_order(weights),
        KernelMode::Speculate(p) => predictive_order(weights, p.groups, p.threshold),
    }
}

/// Outcome of one oracle window walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleWindow {
    /// MACs executed before stopping.
    pub ops: u32,
    /// Value written to the output buffer (0.0 when the early ReLU fired).
    pub output: f32,
    /// Early-termination kind, if any.
    pub termination: Option<OracleTermination>,
}

/// The input value under weight index `o` of window `(oy, ox)` of image
/// `n`: the index decodes to `(c, ky, kx)` and the tap to input coordinates;
/// `+0.0` for a padding tap.
fn tap(input: &Tensor4, n: usize, oy: usize, ox: usize, o: usize, geom: ConvGeom) -> f32 {
    let s = input.shape();
    let c = o / (geom.kh * geom.kw);
    let ky = (o % (geom.kh * geom.kw)) / geom.kw;
    let kx = o % geom.kw;
    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
    let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
    if iy >= 0 && ix >= 0 && (iy as usize) < s.h && (ix as usize) < s.w {
        input[(n, c, iy as usize, ix as usize)]
    } else {
        0.0
    }
}

/// The PAU decision rule before the MAC at position `p`, on partial sum
/// `v`: the predictive check fires exactly at `spec_len` when `v` is below
/// the threshold (the early ReLU outputs 0.0); from `neg_start` on, any
/// negative `v` terminates and is output as is. Returns `(p, output, kind)`
/// when the window stops.
fn decide(ord: &OracleOrder, p: usize, v: f32) -> Option<(usize, f32, OracleTermination)> {
    if ord.spec_len > 0 && p == ord.spec_len && v < ord.threshold {
        Some((p, 0.0, OracleTermination::Predicted))
    } else if p >= ord.neg_start && v < 0.0 {
        Some((p, v, OracleTermination::SignCheck))
    } else {
        None
    }
}

/// A walk's outcome from where it stopped ([`decide`]; `None` when it ran
/// all `len` positions), paired with the window's full value.
fn outcome(
    stop: Option<(usize, f32, OracleTermination)>,
    len: usize,
    full: f32,
) -> (OracleWindow, f32) {
    let window = match stop {
        Some((p, output, kind)) => OracleWindow {
            ops: p as u32,
            output,
            termination: Some(kind),
        },
        None => OracleWindow {
            ops: len as u32,
            output: full,
            termination: None,
        },
    };
    (window, full)
}

/// Walks one window in execution order, probing the PAU decision rule before
/// every MAC: the predictive check fires exactly at position `spec_len` when
/// the partial sum is below the threshold; from `neg_start` on, any negative
/// partial sum terminates. The partial sum is the bias, then one `acc + x·w`
/// per position in execution order, as a PE lane sums. Input
/// taps are decoded from the original weight index (`o → (c, ky, kx)`); a
/// padding tap is a `+0.0` input, MACed like any other tap. The sum runs on
/// past a termination, so this returns the walk's outcome and the window's
/// complete dot product (the value the executor's prediction accounting
/// compares against); a walk that never terminates outputs exactly that
/// value.
#[allow(clippy::too_many_arguments)]
pub fn walk_window(
    input: &Tensor4,
    n: usize,
    oy: usize,
    ox: usize,
    weights: &[f32],
    ord: &OracleOrder,
    geom: ConvGeom,
    bias: f32,
) -> (OracleWindow, f32) {
    let mut acc = bias;
    let mut stop = None;
    for (p, &o) in ord.order.iter().enumerate() {
        stop = stop.or_else(|| decide(ord, p, acc));
        acc += tap(input, n, oy, ox, o, geom) * weights[o];
    }
    outcome(stop, ord.order.len(), acc)
}

/// Walks one window in 16-bit fixed point, as the paper's PEs do (Table
/// II), probing the PAU decision rule of [`walk_window`] before every MAC.
/// Operands quantise to Q(16−f).f — scaled by `2^f`, rounded half away from
/// zero, saturated to `i16` (NaN to 0) — and products sum exactly in a wide
/// integer accumulator seeded with the quantised bias shifted left by `f`
/// bits, its value at the product scale Q.2f. The PAU reads the partial
/// sum dequantised from Q.2f to `f32`. A padding tap quantises to 0.
/// Returns the walk's outcome and the window's complete dequantised dot
/// product.
#[allow(clippy::too_many_arguments)]
pub fn walk_window_q16(
    input: &Tensor4,
    n: usize,
    oy: usize,
    ox: usize,
    weights: &[f32],
    ord: &OracleOrder,
    geom: ConvGeom,
    bias: f32,
    fmt: Q16Format,
) -> (OracleWindow, f32) {
    let f = fmt.frac_bits();
    // `as` saturates out-of-range floats and maps NaN to 0.
    let quantize = |v: f32| i64::from((v * (1u32 << f) as f32).round() as i16);
    let dequantize = |acc: i64| acc as f32 / (1u64 << (2 * f)) as f32;
    let mut acc = quantize(bias) << f;
    let mut stop = None;
    for (p, &o) in ord.order.iter().enumerate() {
        stop = stop.or_else(|| decide(ord, p, dequantize(acc)));
        acc += quantize(tap(input, n, oy, ox, o, geom)) * quantize(weights[o]);
    }
    outcome(stop, ord.order.len(), dequantize(acc))
}

/// Result of an oracle layer execution, laid out like the executor's
/// outputs: `output` is NCHW, the per-window vectors are indexed
/// `(n · kernels + k) · windows + w` with windows in row-major `(oy, ox)`
/// order.
#[derive(Debug, Clone)]
pub struct OracleLayer {
    /// Pre-ReLU output (predicted windows squashed to 0.0).
    pub output: Tensor4,
    /// MACs executed per window.
    pub ops: Vec<u32>,
    /// Termination kind per window.
    pub terminations: Vec<Option<OracleTermination>>,
    /// Full dot-product value per window (execution order).
    pub full: Vec<f32>,
}

impl OracleLayer {
    /// Re-derives the executor's `PredictionStats` from the per-window
    /// terminations and full values, in the executor's accumulation
    /// grouping: one record per `(image, kernel)` pair, folded in ascending
    /// window order and merged in ascending pair order — so the f64 masses
    /// must match bit-for-bit.
    pub fn stats(&self) -> PredictionStats {
        let windows = self.output.shape().plane_len();
        let mut total = PredictionStats::default();
        for pair in 0..self.output.shape().n * self.output.shape().c {
            let mut st = PredictionStats::default();
            for idx in pair * windows..(pair + 1) * windows {
                let full = self.full[idx];
                if full < 0.0 {
                    st.negative_windows += 1;
                } else {
                    st.positive_windows += 1;
                    st.positive_mass += full as f64;
                }
                match self.terminations[idx] {
                    Some(OracleTermination::Predicted) => {
                        if full < 0.0 {
                            st.true_negatives += 1;
                        } else {
                            st.false_negatives += 1;
                            st.squashed_mass += full.max(0.0) as f64;
                        }
                    }
                    Some(OracleTermination::SignCheck) => st.sign_terminations += 1,
                    None => {}
                }
            }
            total.merge(&st);
        }
        total
    }
}

/// Executes a convolution layer through the oracle walk, one kernel mode per
/// output channel (`LayerParams::Exact` means every kernel is exact).
pub fn execute_layer(
    weight: &Tensor4,
    bias: &[f32],
    geom: ConvGeom,
    input: &Tensor4,
    params: &LayerParams,
) -> OracleLayer {
    walk_layer(weight, geom, input, params, |n, oy, ox, k, ord| {
        walk_window(input, n, oy, ox, weight.item(k), ord, geom, bias[k])
    })
}

/// [`execute_layer`] through the 16-bit fixed-point walk
/// ([`walk_window_q16`]).
pub fn execute_layer_q16(
    weight: &Tensor4,
    bias: &[f32],
    geom: ConvGeom,
    input: &Tensor4,
    params: &LayerParams,
    fmt: Q16Format,
) -> OracleLayer {
    walk_layer(weight, geom, input, params, |n, oy, ox, k, ord| {
        walk_window_q16(input, n, oy, ox, weight.item(k), ord, geom, bias[k], fmt)
    })
}

/// Walks every `(image, kernel, oy, ox)` window in layout order through
/// `walk(n, oy, ox, k, order)`, which returns the window's outcome and full
/// value.
fn walk_layer(
    weight: &Tensor4,
    geom: ConvGeom,
    input: &Tensor4,
    params: &LayerParams,
    walk: impl Fn(usize, usize, usize, usize, &OracleOrder) -> (OracleWindow, f32),
) -> OracleLayer {
    let s = input.shape();
    let c_out = weight.shape().n;
    let modes: Vec<KernelMode> = match params {
        LayerParams::Exact => vec![KernelMode::Exact; c_out],
        LayerParams::Predictive(m) => {
            assert_eq!(m.len(), c_out, "one mode per kernel");
            m.clone()
        }
    };
    let orders: Vec<OracleOrder> = (0..c_out)
        .map(|k| order_for_mode(weight.item(k), modes[k]))
        .collect();
    let oh = conv_out_dim(s.h, geom.kh, geom.stride, geom.pad);
    let ow = conv_out_dim(s.w, geom.kw, geom.stride, geom.pad);
    let windows = oh * ow;
    let mut output = Tensor4::zeros(Shape4::new(s.n, c_out, oh, ow));
    let mut ops = Vec::with_capacity(s.n * c_out * windows);
    let mut terminations = Vec::with_capacity(s.n * c_out * windows);
    let mut full = Vec::with_capacity(s.n * c_out * windows);
    for n in 0..s.n {
        for (k, ord) in orders.iter().enumerate() {
            for oy in 0..oh {
                for ox in 0..ow {
                    let (r, f) = walk(n, oy, ox, k, ord);
                    output[(n, k, oy, ox)] = r.output;
                    ops.push(r.ops);
                    terminations.push(r.termination);
                    full.push(f);
                }
            }
        }
    }
    OracleLayer {
        output,
        ops,
        terminations,
        full,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn exact_order_partitions_by_sign() {
        let w = [0.5, -1.0, 0.0, 2.0, -0.25];
        let o = exact_order(&w);
        assert_eq!(o.order, vec![0, 2, 3, 1, 4]);
        assert_eq!(o.neg_start, 3);
        assert_eq!(o.spec_len, 0);
        // NaN and -0.0 are not `< 0.0`, so they stay among the non-negative
        // weights in original order.
        let o = exact_order(&HOSTILE);
        assert_eq!(o.order, vec![0, 1, 2, 5, 6, 3, 4, 7]);
        assert_eq!(o.neg_start, 5);
    }

    #[test]
    fn predictive_order_is_permutation_with_spec_prefix() {
        let ordinary = [0.1, -0.9, 0.4, -0.2, 0.8, -0.05, 0.3, 0.05];
        for w in [ordinary, HOSTILE] {
            for groups in 1..=w.len() {
                let o = predictive_order(&w, groups, 0.0);
                let mut seen = o.order.clone();
                seen.sort_unstable();
                assert_eq!(seen, (0..w.len()).collect::<Vec<_>>(), "groups={groups}");
                assert_eq!(o.spec_len, groups);
                assert!(o.neg_start >= groups);
                let negative = |&i: &usize| w[i] < 0.0;
                assert!(!o.order[groups..o.neg_start].iter().any(negative));
                assert!(o.order[o.neg_start..].iter().all(negative));
                // The executor's reorder, derived by other code, agrees.
                let r = snapea::reorder::predictive_reorder(&w, groups);
                let r_order: Vec<usize> = r.order().iter().map(|&i| i as usize).collect();
                assert_eq!(o.order, r_order, "{w:?} groups={groups}");
                assert_eq!(o.neg_start, r.neg_start(), "{w:?} groups={groups}");
            }
        }
        // A NaN's magnitude outranks every other by `total_cmp`.
        assert_eq!(predictive_order(&HOSTILE, 1, 0.0).order[0], 1);
    }

    #[test]
    fn dense_conv_identity_kernel() {
        // A 1x1 identity kernel reproduces the input.
        let x = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, -2.0, 3.0, 4.0]).unwrap();
        let w = Tensor4::from_vec(Shape4::new(1, 1, 1, 1), vec![1.0]).unwrap();
        let y = conv_dense(&w, &[0.0], ConvGeom::square(1, 1, 0), &x);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn walk_matches_full_value_when_nothing_terminates() {
        let x = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let w = [0.5, 0.25, 0.125, 1.0];
        let ord = exact_order(&w);
        let (r, f) = walk_window(&x, 0, 0, 0, &w, &ord, ConvGeom::square(2, 1, 0), 0.1);
        assert_eq!(r.termination, None);
        assert_eq!(r.ops, 4);
        assert_eq!(r.output.to_bits(), f.to_bits());
    }

    #[test]
    fn pool_references_agree_on_simple_case() {
        let x = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 5.0, 3.0, 2.0]).unwrap();
        let (y, arg) = maxpool(&x, 2, 2, 0);
        assert_eq!(y.as_slice(), &[5.0]);
        assert_eq!(arg, vec![1]);
        let a = avgpool(&x, 2, 2, 0);
        assert_eq!(a.as_slice(), &[2.75]);
    }

    /// A `[2, 3, 6, 7]` tensor of hostile values: plane (0, 1) holds only
    /// ±0 (ties), plane (1, 0) only NaN and −∞, plane (1, 2) only −∞, and
    /// the rest draw from NaN, ±∞, ±0 and a few finite values.
    fn hostile_pool_input() -> Tensor4 {
        const VALUES: [f32; 8] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.5,
            -2.0,
            1.5,
        ];
        let mut r = crate::rng::OracleRng::new(0x9001);
        Tensor4::from_fn(Shape4::new(2, 3, 6, 7), |n, c, _, _| {
            let v = VALUES[r.range(0, VALUES.len() - 1)];
            match (n, c) {
                (0, 1) => [0.0, -0.0][r.range(0, 1)],
                (1, 0) => [f32::NAN, f32::NEG_INFINITY][r.range(0, 1)],
                (1, 2) => f32::NEG_INFINITY,
                _ => v,
            }
        })
    }

    /// Equal bits, or NaN on both sides: LLVM leaves a NaN result's sign
    /// and payload unspecified, so only its position is pinned.
    fn assert_same_bits(got: &Tensor4, want: &Tensor4, label: &str) {
        assert_eq!(got.shape(), want.shape(), "{label}: shape");
        for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "{label}: element {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn both_maxpool_forms_match_the_reference_bit_for_bit() {
        use snapea_nn::ops::MaxPool;
        let x = hostile_pool_input();
        // The last geometry's window is taller than the input: empty output.
        for (k, stride, pad) in [(2, 2, 0), (3, 1, 1), (3, 2, 1), (7, 1, 0)] {
            let label = format!("k={k} stride={stride} pad={pad}");
            let (want, want_arg) = maxpool(&x, k, stride, pad);
            let pool = MaxPool::with_pad(k, stride, pad);
            let (got, got_arg) = pool.forward_with_argmax(&x);
            assert_same_bits(&got, &want, &label);
            assert_eq!(got_arg, want_arg, "{label}: argmax");
            assert_same_bits(&pool.forward(&x), &want, &label);
        }
        assert_eq!(maxpool(&x, 7, 1, 0).0.shape().len(), 0);
    }

    #[test]
    fn maxpool_semantics_on_hostile_windows() {
        use snapea_nn::ops::MaxPool;
        // (window, output bits, argmax): the first of tied zeros wins, NaN
        // never wins, and a window with nothing above −∞ outputs +0.
        let (inf, ninf) = (f32::INFINITY, f32::NEG_INFINITY);
        for (window, out, arg) in [
            ([-0.0, 0.0, -0.0, 0.0], (-0.0f32).to_bits(), 0),
            ([0.0, -0.0, 0.0, -0.0], 0.0f32.to_bits(), 0),
            ([f32::NAN, -1.0, f32::NAN, -3.0], (-1.0f32).to_bits(), 1),
            ([f32::NAN, ninf, ninf, f32::NAN], 0.0f32.to_bits(), u32::MAX),
            ([ninf; 4], 0.0f32.to_bits(), u32::MAX),
            ([1.0, inf, 2.0, inf], inf.to_bits(), 1),
        ] {
            let x = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), window.to_vec()).unwrap();
            let pool = MaxPool::new(2, 2);
            let (y, a) = pool.forward_with_argmax(&x);
            assert_eq!(y.as_slice()[0].to_bits(), out, "{window:?}");
            assert_eq!(a, vec![arg], "{window:?}");
            assert_eq!(pool.forward(&x).as_slice()[0].to_bits(), out, "{window:?}");
            assert_eq!(maxpool(&x, 2, 2, 0).1, vec![arg], "{window:?}");
        }
    }

    /// A `[2, 6, 3, 4]` input drawn from `values`.
    fn lrn_input(values: &[f32], seed: u64) -> Tensor4 {
        let mut r = crate::rng::OracleRng::new(seed);
        Tensor4::from_fn(Shape4::new(2, 6, 3, 4), |_, _, _, _| {
            values[r.range(0, values.len() - 1)]
        })
    }

    /// `(size, alpha, beta, k)`: AlexNet's constants, an even window, and
    /// `k = 0` (an all-zero window divides zero by zero).
    const LRN_PARAMS: [(usize, f32, f32, f32); 4] = [
        (5, 1e-4, 0.75, 2.0),
        (3, 0.5, 0.75, 1.0),
        (4, 1.0, 1.0, 0.0),
        (1, 2.0, 0.5, 1e-3),
    ];

    #[test]
    fn lrn_matches_the_reference_bit_for_bit() {
        use snapea_nn::ops::Lrn;
        // ±0, subnormals of both signs, ±∞ and ordinary values; an
        // infinite input makes ∞/∞ = NaN at its own position.
        let values = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 8.0,
            -1e-40,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.75,
            -3.0,
            1e20,
            -1e-3,
        ];
        let x = lrn_input(&values, 0x1e4);
        assert!(x.iter().all(|v| !v.is_nan()));
        for (size, alpha, beta, k) in LRN_PARAMS {
            let label = format!("size={size} alpha={alpha} beta={beta} k={k}");
            let got = Lrn::new(size, alpha, beta, k).forward(&x);
            assert_same_bits(&got, &lrn(&x, size, alpha, beta, k), &label);
        }
    }

    #[test]
    fn lrn_nan_inputs_give_nan_at_the_reference_positions() {
        use snapea_nn::ops::Lrn;
        let x = lrn_input(&[f32::NAN, 0.0, -0.0, 0.5, -2.0, 1e-39], 0x1e5);
        for (size, alpha, beta, k) in LRN_PARAMS {
            let label = format!("size={size} alpha={alpha} beta={beta} k={k}");
            let got = Lrn::new(size, alpha, beta, k).forward(&x);
            let want = lrn(&x, size, alpha, beta, k);
            assert!(
                want.iter().any(|v| v.is_nan()),
                "{label}: NaN reaches the output"
            );
            assert_same_bits(&got, &want, &label);
        }
    }
}
