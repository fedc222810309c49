//! 2-D convolution layer (im2col fast path).

use snapea_tensor::im2col::{col2im_item_slice, im2col_into, ConvGeom};
use snapea_tensor::{
    init, matmul_into, matmul_t_into, scratch, t_matmul_into, Shape2, Shape4, Tensor2, Tensor4,
};

/// A 2-D convolution layer with bias.
///
/// Weights are stored NCHW as `[c_out, c_in, kh, kw]`. The forward/backward
/// passes lower the convolution to matrix products through im2col; the SnaPEA
/// executor (crate `snapea`) instead walks windows weight-by-weight to model
/// early termination, and integration tests assert the two paths agree.
///
/// ```
/// use snapea_nn::ops::Conv2d;
/// use snapea_tensor::{im2col::ConvGeom, init, Shape4, Tensor4};
///
/// let conv = Conv2d::new(3, 8, ConvGeom::square(3, 1, 1), &mut init::rng(0));
/// let x = Tensor4::full(Shape4::new(2, 3, 8, 8), 1.0);
/// let y = conv.forward(&x);
/// assert_eq!(y.shape(), Shape4::new(2, 8, 8, 8));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    weight: Tensor4,
    bias: Vec<f32>,
    geom: ConvGeom,
}

impl Conv2d {
    /// Creates a convolution with He-initialized weights and zero bias.
    pub fn new(c_in: usize, c_out: usize, geom: ConvGeom, rng: &mut rand::rngs::StdRng) -> Self {
        Self {
            weight: init::he_conv(Shape4::new(c_out, c_in, geom.kh, geom.kw), rng),
            bias: vec![0.0; c_out],
            geom,
        }
    }

    /// Creates a convolution from explicit weights and bias.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weight.shape().n` or the kernel spatial
    /// dimensions disagree with `geom`.
    pub fn from_parts(weight: Tensor4, bias: Vec<f32>, geom: ConvGeom) -> Self {
        assert_eq!(bias.len(), weight.shape().n, "bias per output channel");
        assert_eq!(weight.shape().h, geom.kh, "kernel height");
        assert_eq!(weight.shape().w, geom.kw, "kernel width");
        Self { weight, bias, geom }
    }

    /// The kernel tensor `[c_out, c_in, kh, kw]`.
    pub fn weight(&self) -> &Tensor4 {
        &self.weight
    }

    /// Mutable access to the kernel tensor.
    pub fn weight_mut(&mut self) -> &mut Tensor4 {
        &mut self.weight
    }

    /// Per-output-channel bias.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable access to the bias.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// The convolution geometry.
    pub fn geom(&self) -> ConvGeom {
        self.geom
    }

    /// Number of input channels.
    pub fn c_in(&self) -> usize {
        self.weight.shape().c
    }

    /// Number of output channels (kernels).
    pub fn c_out(&self) -> usize {
        self.weight.shape().n
    }

    /// Number of weights in a single kernel (`c_in * kh * kw`) — the window
    /// length the paper calls `C_in × D × D`.
    pub fn window_len(&self) -> usize {
        self.weight.shape().item_len()
    }

    /// Output shape for a given input shape.
    pub fn out_shape(&self, input: Shape4) -> Shape4 {
        Shape4::new(
            input.n,
            self.c_out(),
            self.geom.out_h(input.h),
            self.geom.out_w(input.w),
        )
    }

    /// MAC count for a full (non-terminated) evaluation of this layer on an
    /// input of shape `input`: `windows × window_len`.
    pub fn full_macs(&self, input: Shape4) -> u64 {
        let out = self.out_shape(input);
        (out.n * out.c * out.h * out.w) as u64 * self.window_len() as u64
    }

    /// Runs `f` on batch item `n`'s im2col patch matrix
    /// `[c_in*kh*kw, out_h*out_w]`. For a 1×1, stride-1, unpadded kernel
    /// over a non-empty plane that matrix is the input item itself, so it is
    /// lent directly; otherwise it is built in a [`snapea_tensor::scratch`]
    /// buffer.
    fn with_cols<R>(&self, input: &Tensor4, n: usize, f: impl FnOnce(&[f32]) -> R) -> R {
        let s = input.shape();
        let out = self.out_shape(s);
        if self.geom == ConvGeom::square(1, 1, 0) && (out.h, out.w) == (s.h, s.w) {
            return f(input.item(n));
        }
        scratch::with_zeroed(self.window_len() * out.plane_len(), |cols| {
            im2col_into(input, n, self.geom, cols);
            f(cols)
        })
    }

    /// Forward pass.
    ///
    /// Batch items are independent, so they are dispatched across the
    /// [`snapea_tensor::par`] pool (each worker owns one item's disjoint
    /// output slice); with a single item the inner GEMM parallelises over
    /// output rows instead. Results are bit-identical for any thread count.
    ///
    /// Each item's GEMM reads the weight tensor in place as the
    /// `[c_out, c_in*kh*kw]` matrix, accumulates straight into the zeroed
    /// output item, and the bias is then added in place, so a warmed-up
    /// thread performs no heap allocation per item beyond the output tensor
    /// itself (the im2col patch matrix lives in a
    /// [`snapea_tensor::scratch`] buffer).
    ///
    /// # Panics
    ///
    /// Panics if `input.shape().c != self.c_in()`.
    pub fn forward(&self, input: &Tensor4) -> Tensor4 {
        assert_eq!(input.shape().c, self.c_in(), "conv input channels");
        let out_shape = self.out_shape(input.shape());
        let mut out = Tensor4::zeros(out_shape);
        let item_len = out_shape.item_len();
        if item_len == 0 {
            return out;
        }
        let plane = out_shape.plane_len();
        let rows = self.window_len();
        let w_shape = Shape2::new(out_shape.c, rows);
        let cols_shape = Shape2::new(rows, plane);
        // One task per group of consecutive batch items: an item costs
        // c_out·plane·window_len GEMM MACs, and the floor groups items until
        // each task clears the pool's dispatch crossover. When the whole
        // batch fits under the floor (including n = 1 serving shapes) the
        // single task runs inline and the per-item `matmul_into` row-splits
        // across the pool instead.
        let item_cost = out_shape.c * plane * rows;
        let chunk = snapea_tensor::par::chunk_for(
            out_shape.n,
            item_cost,
            snapea_tensor::par::GEMM_TASK_FLOOR_MACS,
        );
        let blocks: Vec<(usize, &mut [f32])> = out
            .as_mut_slice()
            .chunks_mut(chunk * item_len)
            .enumerate()
            .map(|(bi, slab)| (bi * chunk, slab))
            .collect();
        snapea_tensor::par::run_tasks(blocks, |_, (n0, slab)| {
            for (di, dst) in slab.chunks_mut(item_len).enumerate() {
                self.with_cols(input, n0 + di, |cols| {
                    matmul_into(self.weight.as_slice(), w_shape, cols, cols_shape, dst)
                        // lint:allow(P1) the weight tensor, cols and dst all derive from the same conv geometry
                        .expect("im2col shape is consistent");
                });
                for (row, &b) in dst.chunks_exact_mut(plane).zip(&self.bias) {
                    for d in row {
                        *d += b;
                    }
                }
            }
        });
        out
    }

    /// Backward pass: given the layer input and the gradient of the loss with
    /// respect to the output, returns `(grad_input, grad_weight, grad_bias)`.
    ///
    /// Each batch item's `(dW, db, dIn)` contribution is computed on the
    /// [`snapea_tensor::par`] pool (workers own disjoint `grad_input` item
    /// slices); the weight and bias gradients are then merged on the calling
    /// thread in ascending item order, so the reduction is bit-identical for
    /// any thread count. The patch matrices live in
    /// [`snapea_tensor::scratch`] buffers and `grad_out` items are consumed
    /// in place, so only the returned gradients are allocated per item.
    pub fn backward(&self, input: &Tensor4, grad_out: &Tensor4) -> (Tensor4, Tensor4, Vec<f32>) {
        let in_shape = input.shape();
        let out_shape = self.out_shape(in_shape);
        assert_eq!(grad_out.shape(), out_shape, "conv grad_out shape");
        let plane = out_shape.plane_len();
        let rows = self.window_len();
        let w_shape = Shape2::new(self.c_out(), rows);
        let go_shape = Shape2::new(out_shape.c, plane);
        let cols_shape = Shape2::new(rows, plane);
        let mut grad_in = Tensor4::zeros(in_shape);
        let mut grad_w = Tensor2::zeros(w_shape);
        let mut grad_b = vec![0.0f32; self.c_out()];
        let in_item = in_shape.item_len();
        if in_shape.n > 0 && in_item > 0 {
            // Grouped like `forward`: an item's backward costs roughly three
            // forward GEMMs (dW, db, dIn), so the floor is reached at a third
            // of the items. Each task returns its items' (dW, db) pairs in
            // ascending item order; the flattened task-order merge below is
            // therefore the same ascending-item fold as the serial loop —
            // bit-identical for any thread count.
            let item_cost = 3 * out_shape.c * plane * rows;
            let chunk = snapea_tensor::par::chunk_for(
                in_shape.n,
                item_cost,
                snapea_tensor::par::GEMM_TASK_FLOOR_MACS,
            );
            let blocks: Vec<(usize, &mut [f32])> = grad_in
                .as_mut_slice()
                .chunks_mut(chunk * in_item)
                .enumerate()
                .map(|(bi, slab)| (bi * chunk, slab))
                .collect();
            let per_block: Vec<Vec<(Tensor2, Vec<f32>)>> =
                snapea_tensor::par::run_tasks(blocks, |_, (n0, slab)| {
                    slab.chunks_mut(in_item)
                        .enumerate()
                        .map(|(di, gi_item)| {
                            let n = n0 + di;
                            self.with_cols(input, n, |cols| {
                                // grad_out for this item as [c_out, oh*ow], in place
                                let go = grad_out.item(n);
                                // dW contribution: dOut × colsᵀ
                                let mut dw = Tensor2::zeros(Shape2::new(out_shape.c, rows));
                                matmul_t_into(go, go_shape, cols, cols_shape, dw.as_mut_slice())
                                    // lint:allow(P1) go, cols and dw all derive from the same conv geometry
                                    .expect("shapes agree");
                                // db contribution: row sums of dOut
                                let db: Vec<f32> = (0..out_shape.c)
                                    .map(|co| go[co * plane..(co + 1) * plane].iter().sum::<f32>())
                                    .collect();
                                // dIn = Wᵀ × dOut, scattered through col2im into this
                                // item's disjoint slice
                                scratch::with_zeroed(rows * plane, |dcols| {
                                    t_matmul_into(
                                        self.weight.as_slice(),
                                        w_shape,
                                        go,
                                        go_shape,
                                        dcols,
                                    )
                                    // lint:allow(P1) the weight tensor, go and dcols all derive from the same conv geometry
                                    .expect("shapes agree");
                                    col2im_item_slice(
                                        dcols, gi_item, in_shape.c, in_shape.h, in_shape.w,
                                        self.geom,
                                    );
                                });
                                (dw, db)
                            })
                        })
                        .collect()
                });
            for (dw, db) in per_block.into_iter().flatten() {
                // lint:allow(P1) every per-item dW was allocated with grad_w's own shape
                grad_w.add_assign(&dw).expect("same shape");
                for (g, d) in grad_b.iter_mut().zip(db) {
                    *g += d;
                }
            }
        }
        let grad_w4 = Tensor4::from_vec(self.weight.shape(), grad_w.into_vec())
            // lint:allow(P1) grad_w is a [c_out, window_len] matrix matching the weight tensor's element count
            .expect("weight layout is contiguous");
        (grad_in, grad_w4, grad_b)
    }

    /// Applies a gradient step `w -= lr * gw`, `b -= lr * gb` (used by the
    /// trainer through velocity buffers).
    pub fn apply_step(&mut self, gw: &Tensor4, gb: &[f32], lr: f32) {
        for (w, g) in self.weight.iter_mut().zip(gw.iter()) {
            *w -= lr * g;
        }
        for (b, g) in self.bias.iter_mut().zip(gb.iter()) {
            *b -= lr * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapea_tensor::init::rng;

    /// Reference direct convolution, used to validate the im2col path.
    fn conv_reference(conv: &Conv2d, input: &Tensor4) -> Tensor4 {
        let s = input.shape();
        let g = conv.geom();
        let os = conv.out_shape(s);
        Tensor4::from_fn(os, |n, co, oy, ox| {
            let mut acc = conv.bias()[co];
            for ci in 0..s.c {
                for ky in 0..g.kh {
                    for kx in 0..g.kw {
                        let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        if iy < 0 || ix < 0 || iy >= s.h as isize || ix >= s.w as isize {
                            continue;
                        }
                        acc += input[(n, ci, iy as usize, ix as usize)]
                            * conv.weight()[(co, ci, ky, kx)];
                    }
                }
            }
            acc
        })
    }

    #[test]
    fn forward_matches_direct_convolution() {
        for (k, stride, pad) in [(3, 1, 1), (3, 2, 0), (1, 1, 0), (5, 1, 2), (3, 2, 1)] {
            let mut r = rng(9);
            let conv = Conv2d::new(3, 4, ConvGeom::square(k, stride, pad), &mut r);
            let x = snapea_tensor::init::uniform4(Shape4::new(2, 3, 9, 9), 1.0, &mut r);
            let fast = conv.forward(&x);
            let slow = conv_reference(&conv, &x);
            assert_eq!(fast.shape(), slow.shape());
            for (a, b) in fast.iter().zip(slow.iter()) {
                assert!(
                    (a - b).abs() < 1e-4,
                    "{a} vs {b} (k={k} s={stride} p={pad})"
                );
            }
        }
    }

    /// The dense conv spelled out: a per-element im2col patch matrix,
    /// `Tensor2::matmul` with the weights, then the bias.
    fn conv_via_patch_matrix(conv: &Conv2d, input: &Tensor4) -> Tensor4 {
        let s = input.shape();
        let g = conv.geom();
        let os = conv.out_shape(s);
        let weights = Tensor2::from_vec(
            Shape2::new(conv.c_out(), conv.window_len()),
            conv.weight().as_slice().to_vec(),
        )
        .unwrap();
        let mut out = Tensor4::zeros(os);
        for n in 0..s.n {
            let cols = Tensor2::from_fn(Shape2::new(conv.window_len(), os.h * os.w), |r, j| {
                let (c, ky, kx) = (r / (g.kh * g.kw), r / g.kw % g.kh, r % g.kw);
                let iy = (j / os.w * g.stride + ky) as isize - g.pad as isize;
                let ix = (j % os.w * g.stride + kx) as isize - g.pad as isize;
                if iy < 0 || ix < 0 || iy >= s.h as isize || ix >= s.w as isize {
                    0.0
                } else {
                    input[(n, c, iy as usize, ix as usize)]
                }
            });
            let prod = weights.matmul(&cols).unwrap();
            for co in 0..os.c {
                for j in 0..os.h * os.w {
                    out[(n, co, j / os.w, j % os.w)] = prod[(co, j)] + conv.bias()[co];
                }
            }
        }
        out
    }

    #[test]
    fn forward_is_bit_identical_to_patch_matrix_times_weights() {
        // (k, stride, pad, h, w): the 1×1 direct path, strided and padded
        // kernels, a kernel as large as the input, and a 1×1 kernel over an
        // empty plane (one all-padding output row: the bias alone).
        for (k, stride, pad, h, w) in [
            (1, 1, 0, 7, 6),
            (1, 2, 0, 7, 6),
            (3, 1, 1, 7, 6),
            (3, 2, 1, 7, 6),
            (5, 1, 2, 7, 6),
            (6, 1, 0, 6, 6),
            (1, 1, 0, 0, 4),
        ] {
            for n in [0, 3] {
                let mut r = rng(17);
                let mut conv = Conv2d::new(3, 5, ConvGeom::square(k, stride, pad), &mut r);
                let bias = snapea_tensor::init::uniform4(Shape4::new(1, 5, 1, 1), 1.0, &mut r);
                conv.bias_mut().copy_from_slice(bias.as_slice());
                let x = snapea_tensor::init::uniform4(Shape4::new(n, 3, h, w), 1.0, &mut r);
                let got = conv.forward(&x);
                let want = conv_via_patch_matrix(&conv, &x);
                assert_eq!(got.shape(), want.shape(), "k={k} s={stride} p={pad} n={n}");
                for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "k={k} s={stride} p={pad} n={n} element {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn bias_is_added_per_channel() {
        let mut conv = Conv2d::new(1, 2, ConvGeom::square(1, 1, 0), &mut rng(0));
        conv.weight_mut().map_inplace(|_| 0.0);
        conv.bias_mut()[0] = 1.5;
        conv.bias_mut()[1] = -2.5;
        let x = Tensor4::zeros(Shape4::new(1, 1, 2, 2));
        let y = conv.forward(&x);
        assert!(y.plane(0, 0).iter().all(|&v| v == 1.5));
        assert!(y.plane(0, 1).iter().all(|&v| v == -2.5));
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let mut r = rng(3);
        let conv = Conv2d::new(2, 3, ConvGeom::square(3, 1, 1), &mut r);
        let x = snapea_tensor::init::uniform4(Shape4::new(1, 2, 4, 4), 1.0, &mut r);
        // Loss = sum(forward(x)); grad_out = ones.
        let y = conv.forward(&x);
        let go = Tensor4::full(y.shape(), 1.0);
        let (gi, gw, gb) = conv.backward(&x, &go);

        let eps = 1e-3;
        // Check a few input positions.
        for &(c, h, w) in &[(0usize, 0usize, 0usize), (1, 2, 3), (0, 3, 1)] {
            let mut xp = x.clone();
            xp[(0, c, h, w)] += eps;
            let mut xm = x.clone();
            xm[(0, c, h, w)] -= eps;
            let num = (conv.forward(&xp).sum() - conv.forward(&xm).sum()) / (2.0 * eps);
            assert!(
                (num - gi[(0, c, h, w)]).abs() < 1e-2,
                "input grad at ({c},{h},{w}): fd {num} vs {}",
                gi[(0, c, h, w)]
            );
        }
        // Check a few weight positions.
        for &(co, ci, ky, kx) in &[(0usize, 0usize, 0usize, 0usize), (2, 1, 2, 2), (1, 0, 1, 1)] {
            let mut cp = conv.clone();
            cp.weight_mut()[(co, ci, ky, kx)] += eps;
            let mut cm = conv.clone();
            cm.weight_mut()[(co, ci, ky, kx)] -= eps;
            let num = (cp.forward(&x).sum() - cm.forward(&x).sum()) / (2.0 * eps);
            assert!(
                (num - gw[(co, ci, ky, kx)]).abs() < 1e-2,
                "weight grad at ({co},{ci},{ky},{kx}): fd {num} vs {}",
                gw[(co, ci, ky, kx)]
            );
        }
        // Bias gradient is just the number of output positions per channel.
        let plane = conv.out_shape(x.shape()).plane_len() as f32;
        for &g in &gb {
            assert!((g - plane).abs() < 1e-3);
        }
    }

    #[test]
    fn full_macs_counts_every_tap() {
        let conv = Conv2d::new(4, 8, ConvGeom::square(3, 1, 1), &mut rng(0));
        let s = Shape4::new(2, 4, 8, 8);
        // 2 images × 8 kernels × 8×8 windows × (4×3×3) taps
        assert_eq!(conv.full_macs(s), 2 * 8 * 64 * 36);
        assert_eq!(conv.window_len(), 36);
    }

    #[test]
    fn from_parts_validates() {
        let w = Tensor4::zeros(Shape4::new(2, 1, 3, 3));
        let c = Conv2d::from_parts(w, vec![0.0, 0.0], ConvGeom::square(3, 1, 1));
        assert_eq!(c.c_out(), 2);
    }

    #[test]
    #[should_panic(expected = "bias per output channel")]
    fn from_parts_rejects_bad_bias() {
        let w = Tensor4::zeros(Shape4::new(2, 1, 3, 3));
        let _ = Conv2d::from_parts(w, vec![0.0], ConvGeom::square(3, 1, 1));
    }
}
