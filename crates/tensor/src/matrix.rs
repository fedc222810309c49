//! Dense 2-D matrix.

use crate::{Shape2, ShapeError};
use std::ops::{Index, IndexMut};

/// Output columns per GEMM tile: 4096 f32 = 16 KiB, so an output tile stays
/// L1-resident while `k` streams through for very wide outputs. Every shape
/// this workspace produces (`out_h × out_w` columns) fits a single tile —
/// perfbench showed a smaller tile (512) costs ~40% on the repo's GEMM
/// shapes by breaking the streaming access to `rhs`, so the tile only
/// engages where out rows genuinely exceed L1.
const GEMM_COL_TILE: usize = 4096;

/// `k` values fused per pass of the register-blocked axpy microkernel
/// ([`axpy_k8`]). Eight is past the knee on the repo's GEMM shapes: it cuts
/// the `out`-row load/store traffic 8× versus one-`k`-per-pass, and going
/// wider would spill the broadcast `a` registers.
const AXPY_K_UNROLL: usize = 8;

/// `out[j] += a * b[j]` — the single-`k` GEMM inner loop.
///
/// Deliberately written as the flat zip loop: LLVM's loop vectorizer emits
/// full-width vector code for it (with runtime alias checks). Hand-chunking
/// this loop into fixed 8-lane pieces *defeats* vectorization — the chunked
/// body has to be SLP-vectorized, and SLP cannot insert the alias checks the
/// loop vectorizer can, so it falls back to scalar code ~6× slower. Measured
/// on this toolchain via the `matmul` entry of `BENCH_kernels.json`.
#[inline]
fn axpy(out: &mut [f32], a: f32, b: &[f32]) {
    debug_assert_eq!(out.len(), b.len());
    for (o, &bv) in out.iter_mut().zip(b.iter()) {
        *o += a * bv;
    }
}

/// The register-blocked GEMM microkernel: fuses [`AXPY_K_UNROLL`] successive
/// `k` contributions into one pass over the output row.
///
/// Per element `j` it computes `(((out[j] + a[0]*b[0][j]) + a[1]*b[1][j]) +
/// …) + a[7]*b[7][j]` — exactly the sequence eight successive [`axpy`] calls
/// produce (keeping the partial in a register instead of storing/reloading
/// `out[j]` is exact: an `f32` load/store round-trip never changes the
/// value, and Rust does not contract `a*b + c` into FMA). So each element's
/// ascending-`k` accumulation order is unchanged and results stay
/// bit-identical, while `out` is loaded and stored once per eight `k` steps
/// instead of once per step. Vectorization happens across the independent
/// `n` dimension, never across `k`: the body is [`crate::lane::lane_axpy8`],
/// which carries `n` in explicit [`crate::lane::f32x8`] chunks (plus a
/// scalar tail) and is one of the symbols `scripts/asm_check.sh` asserts
/// compiles to vector mul/add.
#[inline]
fn axpy_k8(out: &mut [f32], a: &[f32; AXPY_K_UNROLL], b: [&[f32]; AXPY_K_UNROLL]) {
    for bq in b {
        debug_assert_eq!(bq.len(), out.len());
    }
    crate::lane::lane_axpy8(out, a, b);
}

/// Runs the `k` loop of one output tile: [`axpy_k8`] over full
/// [`AXPY_K_UNROLL`]-sized blocks of `k`, then plain [`axpy`] for the tail.
/// `a` holds the `k` coefficients for this output row; `bs(p)` must return
/// the RHS row-`p` slice aligned with `out`.
#[inline]
// lint:allow(P1) the try_into target is a p..p+AXPY_K_UNROLL window with p < k8 ≤ k − AXPY_K_UNROLL + …, always exactly block-sized
// lint:allow(P2) p stays below k = a.len() by both while bounds
fn axpy_k_loop<'a>(out: &mut [f32], a: &[f32], bs: impl Fn(usize) -> &'a [f32]) {
    let k = a.len();
    let k8 = k - k % AXPY_K_UNROLL;
    let mut p = 0;
    while p < k8 {
        let a8: &[f32; AXPY_K_UNROLL] = a[p..p + AXPY_K_UNROLL].try_into().expect("block size");
        axpy_k8(out, a8, std::array::from_fn(|q| bs(p + q)));
        p += AXPY_K_UNROLL;
    }
    while p < k {
        axpy(out, a[p], bs(p));
        p += 1;
    }
}

/// Validates the raw-slice operands of the `*_into` GEMM entry points.
fn check_slices(
    name: &str,
    lhs: &[f32],
    lhs_shape: Shape2,
    rhs: &[f32],
    rhs_shape: Shape2,
    out_len: usize,
    expected_out: usize,
) -> Result<(), ShapeError> {
    if lhs.len() != lhs_shape.len() || rhs.len() != rhs_shape.len() {
        return Err(ShapeError::new(format!(
            "{name}: slice lengths {}/{} do not match shapes {lhs_shape}/{rhs_shape}",
            lhs.len(),
            rhs.len()
        )));
    }
    if out_len != expected_out {
        return Err(ShapeError::new(format!(
            "{name}: output length {out_len}, expected {expected_out}"
        )));
    }
    Ok(())
}

/// `out += lhs × rhs` over raw row-major slices (`out` is `m × n` row-major
/// and is **accumulated into**, so it must be zeroed for a plain product).
///
/// This is the allocation-free core behind [`Tensor2::matmul`], exposed so
/// the conv forward path can run GEMM into a reused scratch buffer. Same
/// parallel row-partitioning, column tiling, and ascending-`k` bit-identity
/// contract as the method.
///
/// # Errors
///
/// Returns a [`ShapeError`] if the inner dimensions disagree or any slice
/// length does not match its shape.
// lint:allow(P2) row/tile indices are derived from chunks_mut geometry and check_slices-validated shapes
pub fn matmul_into(
    lhs: &[f32],
    lhs_shape: Shape2,
    rhs: &[f32],
    rhs_shape: Shape2,
    out: &mut [f32],
) -> Result<(), ShapeError> {
    if lhs_shape.cols != rhs_shape.rows {
        return Err(ShapeError::new(format!(
            "matmul: {lhs_shape} × {rhs_shape}"
        )));
    }
    let (m, k, n) = (lhs_shape.rows, lhs_shape.cols, rhs_shape.cols);
    check_slices(
        "matmul_into",
        lhs,
        lhs_shape,
        rhs,
        rhs_shape,
        out.len(),
        m * n,
    )?;
    if m == 0 || n == 0 {
        return Ok(());
    }
    // Each output row costs k·n MACs; the floor keeps every task above the
    // pool's dispatch-overhead crossover (small GEMMs run inline).
    let chunk = crate::par::chunk_for(m, k * n, crate::par::GEMM_TASK_FLOOR_MACS);
    crate::par::map_item_blocks(out, n, chunk, |row0, slab| {
        for (di, out_row) in slab.chunks_mut(n).enumerate() {
            let a_row = &lhs[(row0 + di) * k..][..k];
            for j0 in (0..n).step_by(GEMM_COL_TILE) {
                let j1 = (j0 + GEMM_COL_TILE).min(n);
                let out_tile = &mut out_row[j0..j1];
                axpy_k_loop(out_tile, a_row, |p| &rhs[p * n + j0..p * n + j1]);
            }
        }
    });
    Ok(())
}

/// `out += lhsᵀ × rhs` over raw row-major slices (`out` is
/// `lhs.cols × rhs.cols`, accumulated into). Allocation-free core behind
/// [`Tensor2::t_matmul`]; same determinism contract.
///
/// # Errors
///
/// Returns a [`ShapeError`] if `lhs_shape.rows != rhs_shape.rows` or any
/// slice length does not match its shape.
// lint:allow(P2) p0 < k and row0+di < m by the block loops; slice windows sized from check_slices-validated shapes
pub fn t_matmul_into(
    lhs: &[f32],
    lhs_shape: Shape2,
    rhs: &[f32],
    rhs_shape: Shape2,
    out: &mut [f32],
) -> Result<(), ShapeError> {
    if lhs_shape.rows != rhs_shape.rows {
        return Err(ShapeError::new(format!(
            "t_matmul: {lhs_shape}ᵀ × {rhs_shape}"
        )));
    }
    let (m, k, n) = (lhs_shape.cols, lhs_shape.rows, rhs_shape.cols);
    check_slices(
        "t_matmul_into",
        lhs,
        lhs_shape,
        rhs,
        rhs_shape,
        out.len(),
        m * n,
    )?;
    if m == 0 || n == 0 {
        return Ok(());
    }
    // k·n MACs per output row, floored like matmul_into so sub-crossover
    // gradient GEMMs stay inline.
    let chunk = crate::par::chunk_for(m, k * n, crate::par::GEMM_TASK_FLOOR_MACS);
    crate::par::map_item_blocks(out, n, chunk, |row0, slab| {
        // k-outer so each RHS row block stays hot across every output row of
        // the slab; blocks of AXPY_K_UNROLL keep per-element accumulation in
        // ascending-k order while touching each out row once per block.
        let k8 = k - k % AXPY_K_UNROLL;
        let mut p0 = 0;
        while p0 < k8 {
            for (di, out_row) in slab.chunks_mut(n).enumerate() {
                let a8: [f32; AXPY_K_UNROLL] =
                    std::array::from_fn(|q| lhs[(p0 + q) * m + row0 + di]);
                axpy_k8(
                    out_row,
                    &a8,
                    std::array::from_fn(|q| &rhs[(p0 + q) * n..][..n]),
                );
            }
            p0 += AXPY_K_UNROLL;
        }
        while p0 < k {
            let a_row = &lhs[p0 * m..][..m];
            let b_row = &rhs[p0 * n..][..n];
            for (di, out_row) in slab.chunks_mut(n).enumerate() {
                axpy(out_row, a_row[row0 + di], b_row);
            }
            p0 += 1;
        }
    });
    Ok(())
}

/// `out = lhs × rhsᵀ` over raw row-major slices (`out` is
/// `lhs.rows × rhs.rows` and is **overwritten**: each element is a single
/// ascending-`k` dot product, exactly as [`Tensor2::matmul_t`] computes it —
/// this one must *not* be lane-split, because that would reorder the
/// reduction).
///
/// # Errors
///
/// Returns a [`ShapeError`] if `lhs_shape.cols != rhs_shape.cols` or any
/// slice length does not match its shape.
// lint:allow(P2) row indices bounded by chunks_mut geometry; j < n = rhs rows by the take(n)
pub fn matmul_t_into(
    lhs: &[f32],
    lhs_shape: Shape2,
    rhs: &[f32],
    rhs_shape: Shape2,
    out: &mut [f32],
) -> Result<(), ShapeError> {
    if lhs_shape.cols != rhs_shape.cols {
        return Err(ShapeError::new(format!(
            "matmul_t: {lhs_shape} × {rhs_shape}ᵀ"
        )));
    }
    let (m, k, n) = (lhs_shape.rows, lhs_shape.cols, rhs_shape.rows);
    check_slices(
        "matmul_t_into",
        lhs,
        lhs_shape,
        rhs,
        rhs_shape,
        out.len(),
        m * n,
    )?;
    if m == 0 || n == 0 {
        return Ok(());
    }
    // k·n MACs per output row (each element one k-long dot product).
    let chunk = crate::par::chunk_for(m, k * n, crate::par::GEMM_TASK_FLOOR_MACS);
    crate::par::map_item_blocks(out, n, chunk, |row0, slab| {
        for (di, out_row) in slab.chunks_mut(n).enumerate() {
            let a_row = &lhs[(row0 + di) * k..][..k];
            for (j, o) in out_row.iter_mut().enumerate().take(n) {
                let b_row = &rhs[j * k..][..k];
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
    });
    Ok(())
}

/// A dense, row-major `f32` matrix.
///
/// Used by fully-connected layers, the im2col convolution path, and the
/// softmax/loss computations.
///
/// ```
/// use snapea_tensor::{Shape2, Tensor2};
/// let a = Tensor2::from_fn(Shape2::new(2, 3), |r, c| (r * 3 + c) as f32);
/// let b = Tensor2::eye(3);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c, a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor2 {
    shape: Shape2,
    data: Vec<f32>,
}

impl Tensor2 {
    /// Creates a matrix filled with zeros.
    pub fn zeros(shape: Shape2) -> Self {
        Self {
            shape,
            data: vec![0.0; shape.len()],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(shape: Shape2, value: f32) -> Self {
        Self {
            shape,
            data: vec![value; shape.len()],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(Shape2::new(n, n));
        for i in 0..n {
            // lint:allow(P2) (i, i) with i < n indexes inside the freshly allocated n × n matrix
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every coordinate.
    pub fn from_fn(shape: Shape2, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        for r in 0..shape.rows {
            for c in 0..shape.cols {
                data.push(f(r, c));
            }
        }
        Self { shape, data }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape2, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != shape.len() {
            return Err(ShapeError::new(format!(
                "expected {} elements for shape {shape}, got {}",
                shape.len(),
                data.len()
            )));
        }
        Ok(Self { shape, data })
    }

    /// The matrix shape.
    pub fn shape(&self) -> Shape2 {
        self.shape
    }

    /// Borrow the flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        let start = self.shape.offset(r, 0);
        &self.data[start..start + self.shape.cols]
    }

    /// Mutably borrow row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let start = self.shape.offset(r, 0);
        let cols = self.shape.cols;
        &mut self.data[start..start + cols]
    }

    /// Matrix product `self × rhs`.
    ///
    /// Row-partitioned across the [`crate::par`] pool (each worker owns a
    /// disjoint block of output rows) with column tiling so the output tile
    /// stays cache-resident while `k` streams through, and the fixed-width
    /// axpy microkernel on the inner loop. Every output element accumulates
    /// in ascending-`k` order regardless of thread count, tiling, or lane
    /// width, so the result is bit-identical to the naive serial ikj loop.
    ///
    /// Delegates to [`matmul_into`]; use that directly to GEMM into a reused
    /// scratch buffer.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Tensor2) -> Result<Tensor2, ShapeError> {
        let mut out = Tensor2::zeros(Shape2::new(self.shape.rows, rhs.shape.cols));
        matmul_into(&self.data, self.shape, &rhs.data, rhs.shape, &mut out.data)?;
        Ok(out)
    }

    /// Matrix product `selfᵀ × rhs` without materialising the transpose.
    ///
    /// Parallelised over blocks of output rows (columns of `self`) with the
    /// same axpy microkernel as [`Tensor2::matmul`]; each element accumulates
    /// in ascending-`k` order, so results are bit-identical for any thread
    /// count. Delegates to [`t_matmul_into`].
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `self.rows != rhs.rows`.
    pub fn t_matmul(&self, rhs: &Tensor2) -> Result<Tensor2, ShapeError> {
        let mut out = Tensor2::zeros(Shape2::new(self.shape.cols, rhs.shape.cols));
        t_matmul_into(&self.data, self.shape, &rhs.data, rhs.shape, &mut out.data)?;
        Ok(out)
    }

    /// Matrix product `self × rhsᵀ` without materialising the transpose.
    ///
    /// Parallelised over blocks of output rows; each element is a single
    /// ascending-`k` dot product, so results are bit-identical for any
    /// thread count. This kernel deliberately does **not** use the axpy
    /// microkernel: its per-element reduction runs over `k`, and lane-
    /// splitting it would reorder the floating-point sum. Delegates to
    /// [`matmul_t_into`].
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `self.cols != rhs.cols`.
    pub fn matmul_t(&self, rhs: &Tensor2) -> Result<Tensor2, ShapeError> {
        let mut out = Tensor2::zeros(Shape2::new(self.shape.rows, rhs.shape.rows));
        matmul_t_into(&self.data, self.shape, &rhs.data, rhs.shape, &mut out.data)?;
        Ok(out)
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Tensor2 {
        Tensor2::from_fn(Shape2::new(self.shape.cols, self.shape.rows), |r, c| {
            self[(c, r)]
        })
    }

    /// Adds `other` element-wise.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor2) -> Result<(), ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::new(format!(
                "add: {} vs {}",
                self.shape, other.shape
            )));
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Scales every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Iterate over all elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }
}

impl Index<(usize, usize)> for Tensor2 {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[self.shape.offset(r, c)]
    }
}

impl IndexMut<(usize, usize)> for Tensor2 {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[self.shape.offset(r, c)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, v: &[f32]) -> Tensor2 {
        Tensor2::from_vec(Shape2::new(rows, cols), v.to_vec()).unwrap()
    }

    #[test]
    fn matmul_small() {
        let a = mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mat(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, mat(2, 2, &[58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = mat(2, 3, &[0.0; 6]);
        let b = mat(2, 3, &[0.0; 6]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transposed_products_agree_with_explicit_transpose() {
        let a = mat(3, 2, &[1.0, -2.0, 0.5, 4.0, -1.0, 2.0]);
        let b = mat(
            3,
            4,
            &(0..12).map(|i| i as f32 * 0.25 - 1.0).collect::<Vec<_>>(),
        );
        let fast = a.t_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert_eq!(fast, slow);

        let c = mat(5, 2, &(0..10).map(|i| (i as f32).sin()).collect::<Vec<_>>());
        let fast = a.matmul_t(&c).unwrap();
        let slow = a.matmul(&c.transpose()).unwrap();
        for (x, y) in fast.iter().zip(slow.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    /// Naive triple loop accumulating in ascending-k order — the reference
    /// the parallel kernels must match bit-for-bit.
    fn naive_matmul(a: &Tensor2, b: &Tensor2) -> Tensor2 {
        let (m, k, n) = (a.shape().rows, a.shape().cols, b.shape().cols);
        let mut out = Tensor2::zeros(Shape2::new(m, n));
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[(i, p)] * b[(p, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    /// Deterministic pseudo-random matrix with a sprinkling of exact zeros.
    fn lcg_mat(rows: usize, cols: usize, seed: &mut u64) -> Tensor2 {
        Tensor2::from_fn(Shape2::new(rows, cols), |_, _| {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (*seed >> 20).is_multiple_of(5) {
                0.0
            } else {
                ((*seed >> 33) as f32 / (1u64 << 31) as f32) * 4.0 - 2.0
            }
        })
    }

    #[test]
    fn matmul_is_bit_identical_across_thread_counts() {
        let prev = crate::par::threads();
        let mut seed = 0x5EED_0001_u64;
        // The last shape exceeds GEMM_COL_TILE to exercise multi-tile rows.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 4), (17, 9, 23), (9, 8, GEMM_COL_TILE + 5)] {
            let a = lcg_mat(m, k, &mut seed);
            let b = lcg_mat(k, n, &mut seed);
            let reference = naive_matmul(&a, &b);
            for t in [1, 2, 4, 7] {
                crate::par::set_threads(t);
                assert_eq!(a.matmul(&b).unwrap(), reference, "m={m} k={k} n={n} t={t}");
            }
        }
        crate::par::set_threads(prev);
    }

    #[test]
    fn transposed_products_are_bit_identical_across_thread_counts() {
        let prev = crate::par::threads();
        let mut seed = 0x5EED_0002_u64;
        for &(m, k, n) in &[(2, 3, 2), (19, 11, 13), (40, 24, 31)] {
            let a = lcg_mat(k, m, &mut seed); // for t_matmul: aᵀ is m×k
            let b = lcg_mat(k, n, &mut seed);
            let c = lcg_mat(n, k, &mut seed); // for matmul_t: a2 × cᵀ
            let a2 = lcg_mat(m, k, &mut seed);
            crate::par::set_threads(1);
            let serial_t = a.t_matmul(&b).unwrap();
            let serial_mt = a2.matmul_t(&c).unwrap();
            for t in [2, 4, 7] {
                crate::par::set_threads(t);
                assert_eq!(a.t_matmul(&b).unwrap(), serial_t, "t_matmul t={t}");
                assert_eq!(a2.matmul_t(&c).unwrap(), serial_mt, "matmul_t t={t}");
            }
        }
        crate::par::set_threads(prev);
    }

    proptest::proptest! {
        #[test]
        fn prop_parallel_matmul_equals_serial_reference(
            m in 1usize..8,
            // Past AXPY_K_UNROLL so the proptest exercises both the fused
            // k-blocks and the plain-axpy tail of the microkernel.
            k in 1usize..(3 * AXPY_K_UNROLL),
            n in 1usize..24,
            raw_seed in 0u64..1024,
        ) {
            let mut seed = raw_seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
            let a = lcg_mat(m, k, &mut seed);
            let b = lcg_mat(k, n, &mut seed);
            let prev = crate::par::threads();
            crate::par::set_threads(4);
            let got = a.matmul(&b).unwrap();
            crate::par::set_threads(prev);
            proptest::prop_assert_eq!(got, naive_matmul(&a, &b));
        }
    }

    #[test]
    fn axpy_k_unroll_boundaries_match_sequential_axpy() {
        // k straddling the microkernel block width: tail-only, exact blocks,
        // blocks + tail. The fused k-block path must reproduce the exact
        // bit pattern of k successive single-k axpy passes.
        for k in [0, 1, 7, 8, 9, 16, 17, 31] {
            let n = 13;
            let a: Vec<f32> = (0..k).map(|p| ((p * 7 + 3) as f32).sin()).collect();
            let b: Vec<f32> = (0..k * n).map(|i| (i as f32).cos()).collect();
            let mut fast: Vec<f32> = (0..n).map(|i| i as f32 * 0.5 - 3.0).collect();
            let mut slow = fast.clone();
            axpy_k_loop(&mut fast, &a, |p| &b[p * n..(p + 1) * n]);
            for (p, &av) in a.iter().enumerate() {
                axpy(&mut slow, av, &b[p * n..(p + 1) * n]);
            }
            assert_eq!(fast, slow, "k={k}");
        }
    }

    #[test]
    fn into_variants_accumulate_and_match_methods() {
        let mut seed = 0x5EED_0003_u64;
        let a = lcg_mat(4, 6, &mut seed);
        let b = lcg_mat(6, 9, &mut seed);
        let mut out = vec![0.0f32; 4 * 9];
        matmul_into(a.as_slice(), a.shape(), b.as_slice(), b.shape(), &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap().into_vec());
        // Accumulate semantics: with k = 1 each element receives exactly one
        // product per call, so a second call doubles it bit-exactly.
        let ak = lcg_mat(4, 1, &mut seed);
        let bk = lcg_mat(1, 9, &mut seed);
        let mut out = vec![0.0f32; 4 * 9];
        matmul_into(
            ak.as_slice(),
            ak.shape(),
            bk.as_slice(),
            bk.shape(),
            &mut out,
        )
        .unwrap();
        let doubled: Vec<f32> = out.iter().map(|v| v + v).collect();
        matmul_into(
            ak.as_slice(),
            ak.shape(),
            bk.as_slice(),
            bk.shape(),
            &mut out,
        )
        .unwrap();
        assert_eq!(out, doubled);

        let at = lcg_mat(6, 4, &mut seed); // lhsᵀ is 4×6
        let mut out = vec![0.0f32; 4 * 9];
        t_matmul_into(at.as_slice(), at.shape(), b.as_slice(), b.shape(), &mut out).unwrap();
        assert_eq!(out, at.t_matmul(&b).unwrap().into_vec());

        let bt = lcg_mat(9, 6, &mut seed); // rhsᵀ is 6×9
        let mut out = vec![7.0f32; 4 * 9]; // matmul_t_into overwrites
        matmul_t_into(a.as_slice(), a.shape(), bt.as_slice(), bt.shape(), &mut out).unwrap();
        assert_eq!(out, a.matmul_t(&bt).unwrap().into_vec());
    }

    #[test]
    fn into_variants_reject_bad_lengths() {
        let a = mat(2, 3, &[0.0; 6]);
        let b = mat(3, 2, &[0.0; 6]);
        let mut short = vec![0.0f32; 3];
        assert!(matmul_into(a.as_slice(), a.shape(), b.as_slice(), b.shape(), &mut short).is_err());
        assert!(matmul_into(&[0.0; 5], a.shape(), b.as_slice(), b.shape(), &mut short).is_err());
    }

    #[test]
    fn eye_is_identity_for_matmul() {
        let a = mat(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.matmul(&Tensor2::eye(2)).unwrap(), a);
        assert_eq!(Tensor2::eye(2).matmul(&a).unwrap(), a);
    }

    #[test]
    fn rows_and_mutation() {
        let mut a = mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        a.row_mut(0)[2] = 9.0;
        assert_eq!(a[(0, 2)], 9.0);
        a.scale(2.0);
        assert_eq!(a.sum(), 2.0 * (1.0 + 2.0 + 9.0 + 4.0 + 5.0 + 6.0));
    }
}
