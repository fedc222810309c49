//! Eight-wide lane layer: an explicit SIMD-shaped `f32` type and the two
//! kernels built on it.
//!
//! [`f32x8`] wraps `[f32; 8]` with `#[inline]` elementwise ops that LLVM
//! turns into vector instructions. [`lane_axpy8`], the body of every dense
//! GEMM, carries its output dimension in [`f32x8`] chunks; [`tile_mac`],
//! the MAC of the SnaPEA window walk, carries a tile of windows (im2col
//! columns) in [`f32x8`] chunks and multiplies them by one broadcast weight
//! per walk position, as a PE broadcasts one reordered weight to its lanes.
//! `scripts/asm_check.sh` asserts structurally that both `#[inline(never)]`
//! bodies are vectorized (check the asm, not just the timing). [`seq_dot`]
//! is the check's planted scalar negative.

/// Lane width of the engine (the paper's eight-MAC PE rows).
pub const LANES: usize = 8;

/// Eight `f32` lanes whose elementwise ops compile to vector instructions.
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct f32x8([f32; LANES]);

impl f32x8 {
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

/// The window walk's MAC over a tile of `acc.len()` columns, one window
/// per column: for each walk position `p`, in order, `acc[j] = acc[j] +
/// rows[order[p]·width + j] · weights[p]` for every column `j`, where
/// `width = acc.len()` and row `i` of `rows` holds tap `i` of every column.
/// The multiply and the add stay two operations, so each column sums
/// exactly as a one-window walk does, position by position.
///
/// The columns are carried in [`f32x8`] chunks, four chunks at a time:
/// each block's accumulators stay in registers across the positions, as
/// independent chains, and a width that is no multiple of the block
/// finishes chunk by chunk. `#[inline(never)]` keeps a standalone symbol
/// for `scripts/asm_check.sh`; the internal loop over the positions
/// amortises the call.
///
/// # Panics
///
/// Panics if `acc.len()` is not a multiple of [`LANES`], or a row `order`
/// names lies outside `rows`.
#[inline(never)]
pub fn tile_mac(acc: &mut [f32], rows: &[f32], order: &[u32], weights: &[f32]) {
    let width = acc.len();
    let (chunks, tail) = acc.as_chunks_mut::<LANES>();
    assert!(tail.is_empty(), "tile width is a multiple of {LANES}");
    let (blocks, rest) = chunks.as_chunks_mut::<TILE_BLOCK>();
    let mut col = 0;
    for block in blocks {
        mac_block(block, rows, width, col, order, weights);
        col += TILE_BLOCK * LANES;
    }
    for chunk in rest {
        mac_block(
            std::array::from_mut(chunk),
            rows,
            width,
            col,
            order,
            weights,
        );
        col += LANES;
    }
}

/// Chunks of [`LANES`] columns [`tile_mac`] carries together.
const TILE_BLOCK: usize = 4;

/// [`tile_mac`] on the `B` chunks of columns from `col` on.
#[inline(always)]
fn mac_block<const B: usize>(
    block: &mut [[f32; LANES]; B],
    rows: &[f32],
    width: usize,
    col: usize,
    order: &[u32],
    weights: &[f32],
) {
    let mut v = block.map(f32x8);
    for (&i, &w) in order.iter().zip(weights) {
        let (x, _) = rows[i as usize * width + col..][..B * LANES].as_chunks::<LANES>();
        let w = f32x8::splat(w);
        for (v, &x) in v.iter_mut().zip(x) {
            *v = *v + f32x8(x) * w;
        }
    }
    *block = v.map(|v| v.0);
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

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Every column of a tile sums `acc + x·w` in walk order, bit for bit
    /// as a scalar loop, at every tile width the walk uses.
    #[test]
    fn tile_mac_matches_the_scalar_walk() {
        let taps = 11;
        let order: Vec<u32> = (0..taps as u32).rev().step_by(2).chain([0, 3]).collect();
        let weights = lcg(3, order.len());
        for width in [8usize, 16, 24, 40, 64] {
            let rows = lcg(width as u64, taps * width);
            let mut acc = lcg(width as u64 + 1, width);
            let mut want = acc.clone();
            for (&i, &w) in order.iter().zip(&weights) {
                for (j, a) in want.iter_mut().enumerate() {
                    *a += rows[i as usize * width + j] * w;
                }
            }
            tile_mac(&mut acc, &rows, &order, &weights);
            for (g, w) in acc.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "width {width}");
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
