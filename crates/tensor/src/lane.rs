//! Eight-wide lane layer: explicit SIMD-shaped types and the pinned
//! reduction order every numeric path in the suite is frozen to.
//!
//! The accelerator's PEs are eight-lane MAC arrays; this module gives the
//! software model the same shape in std-only Rust. [`f32x8`] / [`i32x8`]
//! wrap `[T; 8]` with `#[inline]` elementwise ops that LLVM turns into
//! vector instructions (`scripts/asm_check.sh` asserts this structurally on
//! the `#[inline(never)]` kernels below — check the asm, not just the
//! timing).
//!
//! # The pinned lane-tree reduction order
//!
//! Splitting a dot product across eight lanes changes float accumulation
//! order, so the order is *pinned* once, here, and every `f32`
//! implementation in the workspace (the executor's window walk, which the
//! optimizer's profiling observes, and the oracle reference) reproduces it
//! bit-for-bit:
//!
//! * positions `0..m8` (where `m8 = lane_prefix_len(stop1)` is the largest
//!   multiple of [`LANES`] no larger than the probe-free prefix) are summed
//!   into eight lane accumulators, position `p` into lane `p % 8`, each
//!   lane in ascending `p` order;
//! * the eight lanes collapse through the fixed tree
//!   `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` ([`tree8`]);
//! * the caller adds the tree sum to the bias **only when `m8 > 0`** (so an
//!   empty lane region leaves the bias bit-untouched, `-0.0` included);
//! * positions `m8..` continue in the original sequential order.
//!
//! A padding tap is a `+0.0` input, MACed like any other tap at every
//! position, as Caffe's im2col writes padding as zeros: the executor walks a
//! zero-padded copy of its input, so every tap these kernels gather is a
//! plain memory read, with no bounds check and no select.
//!
//! Integer accumulation ([`lane_q16_span`]) is exact and associative, so
//! the q16 path needs no pinning — any batching order is bit-identical.

use crate::q16::Q16;

/// Lane width of the engine (the paper's eight-MAC PE rows).
pub const LANES: usize = 8;

/// Largest multiple of [`LANES`] not exceeding `stop1`: the extent of the
/// lane-blocked region of a walk whose probe-free prefix is `stop1`.
#[inline]
pub const fn lane_prefix_len(stop1: usize) -> usize {
    stop1 - stop1 % LANES
}

/// The pinned eight-way reduction tree: `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
#[inline]
pub fn tree8(l: [f32; LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Eight `f32` lanes. Elementwise ops compile to vector instructions; the
/// horizontal reduction is pinned to [`tree8`].
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct f32x8([f32; LANES]);

impl f32x8 {
    /// All lanes zero (`+0.0`).
    pub const ZERO: Self = Self([0.0; LANES]);

    /// Wraps an array of lane values.
    #[inline]
    pub fn new(v: [f32; LANES]) -> Self {
        Self(v)
    }

    /// Broadcasts `v` to every lane.
    #[inline]
    pub fn splat(v: f32) -> Self {
        Self([v; LANES])
    }

    /// Loads the first [`LANES`] elements of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` has fewer than [`LANES`] elements.
    #[inline]
    pub fn load(s: &[f32]) -> Self {
        let chunk = s.first_chunk::<LANES>();
        // lint:allow(P1) documented precondition of an inline SIMD primitive; a Result here would defeat vectorization
        Self(*chunk.expect("lane load needs 8 elements"))
    }

    /// Stores the lanes into the first [`LANES`] elements of `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` has fewer than [`LANES`] elements.
    #[inline]
    pub fn store(self, out: &mut [f32]) {
        *out.first_chunk_mut::<LANES>()
            // lint:allow(P1) documented precondition of an inline SIMD primitive; a Result here would defeat vectorization
            .expect("lane store needs 8 elements") = self.0;
    }

    /// The lane values.
    #[inline]
    pub fn to_array(self) -> [f32; LANES] {
        self.0
    }

    /// The pinned horizontal reduction ([`tree8`]).
    #[inline]
    pub fn tree_sum(self) -> f32 {
        tree8(self.0)
    }
}

/// Elementwise lane addition.
impl std::ops::Add for f32x8 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let mut v = self.0;
        for (a, b) in v.iter_mut().zip(rhs.0) {
            *a += b;
        }
        Self(v)
    }
}

/// Elementwise lane multiplication.
impl std::ops::Mul for f32x8 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let mut v = self.0;
        for (a, b) in v.iter_mut().zip(rhs.0) {
            *a *= b;
        }
        Self(v)
    }
}

/// Eight `i32` lanes (wrapping arithmetic — the q16 kernels' products are
/// exact in `i32` by construction, so wrapping never fires in practice and
/// keeps the ops branch-free in debug builds too).
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct i32x8([i32; LANES]);

impl i32x8 {
    /// All lanes zero.
    pub const ZERO: Self = Self([0; LANES]);

    /// Wraps an array of lane values.
    #[inline]
    pub fn new(v: [i32; LANES]) -> Self {
        Self(v)
    }

    /// Broadcasts `v` to every lane.
    #[inline]
    pub fn splat(v: i32) -> Self {
        Self([v; LANES])
    }

    /// The lane values.
    #[inline]
    pub fn to_array(self) -> [i32; LANES] {
        self.0
    }
}

/// Elementwise wrapping lane addition.
impl std::ops::Add for i32x8 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let mut v = self.0;
        for (a, b) in v.iter_mut().zip(rhs.0) {
            *a = a.wrapping_add(b);
        }
        Self(v)
    }
}

/// Elementwise wrapping lane multiplication.
impl std::ops::Mul for i32x8 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let mut v = self.0;
        for (a, b) in v.iter_mut().zip(rhs.0) {
            *a = a.wrapping_mul(b);
        }
        Self(v)
    }
}

/// The GEMM microkernel: `out[j] += a[0]*b[0][j] + … + a[7]*b[7][j]` for
/// every `j`, each output element accumulating its eight products in
/// ascending `q` order — bit-identical to the scalar unrolled form, with
/// the `j` dimension carried in [`f32x8`] chunks.
///
/// `#[inline(never)]` keeps a standalone symbol for `scripts/asm_check.sh`;
/// the internal loop over `out` amortises the call.
///
/// # Panics
///
/// Panics if any `b[q]` is shorter than `out`.
#[inline(never)]
pub fn lane_axpy8(out: &mut [f32], a: &[f32; LANES], b: [&[f32]; LANES]) {
    let n = out.len();
    for bq in &b {
        assert!(bq.len() >= n, "lane_axpy8 row shorter than out");
    }
    let mut j = 0;
    while j + LANES <= n {
        let mut v = f32x8::load(&out[j..]);
        for (aq, bq) in a.iter().zip(b) {
            v = v + f32x8::splat(*aq) * f32x8::load(&bq[j..]);
        }
        v.store(&mut out[j..]);
        j += LANES;
    }
    while j < n {
        let mut v = out[j];
        for (aq, bq) in a.iter().zip(b) {
            v += aq * bq[j];
        }
        out[j] = v;
        j += 1;
    }
}

/// Lane-blocked dot product of contiguous `values`/`weights` over the
/// pinned order: positions `0..m8` (which must be a multiple of [`LANES`];
/// excess positions are ignored) summed into lane `p % 8`, collapsed via
/// [`tree8`]. Callers add the result to the bias only when `m8 > 0`.
#[inline(never)]
pub fn lane_dot(values: &[f32], weights: &[f32], m8: usize) -> f32 {
    debug_assert_eq!(m8 % LANES, 0);
    let mut lanes = f32x8::ZERO;
    let mut p = 0;
    while p + LANES <= m8 {
        let v = f32x8::load(&values[p..]);
        let w = f32x8::load(&weights[p..]);
        lanes = lanes + v * w;
        p += LANES;
    }
    lanes.tree_sum()
}

/// [`lane_dot`] over one window of a resolved-tap plan: value `p` is
/// gathered from `item[base + resolved[p]]`, branch-free, because the plan
/// walks a padded input whose windows hold no padding taps.
#[inline(never)]
pub fn lane_dot_resolved(
    weights: &[f32],
    resolved: &[i32],
    base: i32,
    item: &[f32],
    m8: usize,
) -> f32 {
    debug_assert_eq!(m8 % LANES, 0);
    let mut lanes = f32x8::ZERO;
    let mut p = 0;
    while p + LANES <= m8 {
        let w = f32x8::load(&weights[p..]);
        let mut v = [0.0f32; LANES];
        for (l, vl) in v.iter_mut().enumerate() {
            *vl = item[(base + resolved[p + l]) as usize];
        }
        lanes = lanes + f32x8::new(v) * w;
        p += LANES;
    }
    lanes.tree_sum()
}

/// Fixed-point MAC span for eight windows at once: for every position `p`
/// in `lo..hi`, accumulates `item_q[bases[l] + resolved[p]] * wq[p]` into
/// `accs[l]`. Products are exact in `i32` (15-bit operands) and the `i64`
/// sums are associative, so any interleaving is bit-identical to the
/// per-window sequential walk.
#[inline(never)]
pub fn lane_q16_span(
    accs: &mut [i64; LANES],
    wq: &[Q16],
    resolved: &[i32],
    bases: &[i32; LANES],
    item_q: &[Q16],
    lo: usize,
    hi: usize,
) {
    for p in lo..hi {
        let w = i32x8::splat(wq[p].0 as i32);
        let d = resolved[p];
        let mut v = [0i32; LANES];
        for (l, vl) in v.iter_mut().enumerate() {
            *vl = item_q[(bases[l] + d) as usize].0 as i32;
        }
        let prod = (i32x8::new(v) * w).to_array();
        for (a, p) in accs.iter_mut().zip(prod) {
            *a += p as i64;
        }
    }
}

/// Strictly sequential scalar dot product — **deliberately not
/// vectorizable** (the single accumulator chain forbids reassociation).
/// This is the planted-scalarization symbol `scripts/asm_check.sh
/// --negative-smoke` asserts its vector patterns *fail* on, proving the
/// check can actually detect a scalarized kernel.
#[inline(never)]
pub fn seq_dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Scalar reference for the pinned lane order: eight named accumulators
/// filled in ascending `p`, collapsed via [`tree8`]. The proptests pin the
/// vector kernels to this bit-for-bit.
pub fn pinned_dot_ref(values: &[f32], weights: &[f32], m8: usize) -> f32 {
    let mut lanes = [0.0f32; LANES];
    for p in 0..m8 {
        lanes[p % LANES] += values[p] * weights[p];
    }
    tree8(lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::q16::{Q16Format, QAcc};
    use proptest::prelude::*;

    fn lcg(seed: u64, n: usize) -> Vec<f32> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn lane_prefix_lengths() {
        for (len, m8) in [
            (0, 0),
            (1, 0),
            (7, 0),
            (8, 8),
            (9, 8),
            (15, 8),
            (16, 16),
            (17, 16),
        ] {
            assert_eq!(lane_prefix_len(len), m8, "m8 for {len}");
        }
    }

    // Remainder tails: lengths that are not multiples of 8, including 1
    // and 7, leave the lane region empty or partial and must agree with
    // the scalar pinned reference bit-for-bit.
    #[test]
    fn lane_dot_tail_cases_match_reference() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 24, 31, 33] {
            let v = lcg(len as u64 + 11, len);
            let w = lcg(len as u64 + 29, len);
            let m8 = lane_prefix_len(len);
            let got = lane_dot(&v, &w, m8);
            let want = pinned_dot_ref(&v, &w, m8);
            assert_eq!(got.to_bits(), want.to_bits(), "len {len}");
        }
    }

    #[test]
    fn lane_axpy8_tail_cases_match_scalar() {
        for n in [0usize, 1, 7, 8, 9, 16, 17, 31] {
            let a_v = lcg(n as u64 + 5, LANES);
            let a: [f32; LANES] = a_v.as_slice().try_into().unwrap();
            let rows: Vec<Vec<f32>> = (0..LANES).map(|q| lcg(q as u64 + 40, n)).collect();
            let b: [&[f32]; LANES] = std::array::from_fn(|q| rows[q].as_slice());
            let mut out = lcg(n as u64 + 99, n);
            let mut want = out.clone();
            for j in 0..n {
                let mut v = want[j];
                for q in 0..LANES {
                    v += a[q] * b[q][j];
                }
                want[j] = v;
            }
            lane_axpy8(&mut out, &a, b);
            for (g, w) in out.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "n {n}");
            }
        }
    }

    #[test]
    fn seq_dot_is_the_plain_sequential_sum() {
        let a = lcg(1, 37);
        let b = lcg(2, 37);
        let mut want = 0.0f32;
        for (x, y) in a.iter().zip(&b) {
            want += x * y;
        }
        assert_eq!(seq_dot(&a, &b).to_bits(), want.to_bits());
    }

    proptest! {
        #[test]
        fn prop_lane_dot_matches_pinned_reference(
            seed in 0u64..1000,
            len in 0usize..64,
        ) {
            let v = lcg(seed + 1, len);
            let w = lcg(seed + 2, len);
            let m8 = lane_prefix_len(len);
            prop_assert_eq!(
                lane_dot(&v, &w, m8).to_bits(),
                pinned_dot_ref(&v, &w, m8).to_bits()
            );
        }

        #[test]
        fn prop_lane_dot_resolved_matches_gathered_reference(
            seed in 0u64..1000,
            len in 0usize..48,
            extra in 0usize..16,
        ) {
            // Synthetic resolved taps: a permutation-ish scatter into a
            // larger item buffer, offset by a nonzero base.
            let item = lcg(seed + 3, len + extra + 4);
            let w = lcg(seed + 4, len);
            let base = 2i32;
            let resolved: Vec<i32> = (0..len)
                .map(|p| ((p * 7 + 3) % (len + extra).max(1)) as i32)
                .collect();
            let gathered: Vec<f32> = resolved
                .iter()
                .map(|&d| item[(base + d) as usize])
                .collect();
            let m8 = lane_prefix_len(len);
            prop_assert_eq!(
                lane_dot_resolved(&w, &resolved, base, &item, m8).to_bits(),
                pinned_dot_ref(&gathered, &w, m8).to_bits()
            );
        }

        #[test]
        fn prop_lane_q16_span_matches_sequential_macs(
            seed in 0u64..1000,
            len in 0usize..40,
            lo_frac in 0usize..8,
        ) {
            let fmt = Q16Format::default();
            let item = crate::q16::quantize_slice(fmt, &lcg(seed + 7, len + 40));
            let wq = crate::q16::quantize_slice(fmt, &lcg(seed + 8, len));
            let resolved: Vec<i32> = (0..len).map(|p| ((p * 5) % 32) as i32).collect();
            let bases: [i32; LANES] = std::array::from_fn(|l| l as i32);
            let lo = if len == 0 { 0 } else { lo_frac % (len + 1) };
            let mut accs = [3i64; LANES];
            lane_q16_span(&mut accs, &wq, &resolved, &bases, &item, lo, len);
            for (l, &acc) in accs.iter().enumerate() {
                let mut q = QAcc::from_raw(3);
                for p in lo..len {
                    q.mac(item[(bases[l] + resolved[p]) as usize], wq[p]);
                }
                prop_assert_eq!(acc, q.raw());
            }
        }

        #[test]
        fn prop_lane_axpy8_matches_scalar(seed in 0u64..500, n in 0usize..40) {
            let a_v = lcg(seed + 9, LANES);
            let a: [f32; LANES] = a_v.as_slice().try_into().unwrap();
            let rows: Vec<Vec<f32>> = (0..LANES).map(|q| lcg(seed + 10 + q as u64, n)).collect();
            let b: [&[f32]; LANES] = std::array::from_fn(|q| rows[q].as_slice());
            let mut out = lcg(seed + 20, n);
            let mut want = out.clone();
            for j in 0..n {
                for q in 0..LANES {
                    want[j] += a[q] * b[q][j];
                }
            }
            lane_axpy8(&mut out, &a, b);
            for (g, w) in out.iter().zip(&want) {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }
}
