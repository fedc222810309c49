//! Cross-channel Local Response Normalization (AlexNet / GoogLeNet style).

use snapea_tensor::{par, Tensor4};

/// Local Response Normalization across channels:
///
/// `y[c] = x[c] / (k + (alpha/size) * Σ_{c' ∈ window(c)} x[c']²)^beta`
///
/// where the window spans `size` channels centred on `c` (clamped at the
/// edges), matching Caffe's `ACROSS_CHANNELS` LRN used by the paper's
/// AlexNet and GoogLeNet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lrn {
    /// Channel window size.
    pub size: usize,
    /// Scaling coefficient.
    pub alpha: f32,
    /// Exponent.
    pub beta: f32,
    /// Additive constant.
    pub k: f32,
}

impl Default for Lrn {
    /// AlexNet's published constants (`size=5, alpha=1e-4, beta=0.75, k=2`).
    fn default() -> Self {
        Self {
            size: 5,
            alpha: 1e-4,
            beta: 0.75,
            k: 2.0,
        }
    }
}

impl Lrn {
    /// Creates an LRN layer.
    pub fn new(size: usize, alpha: f32, beta: f32, k: f32) -> Self {
        Self {
            size,
            alpha,
            beta,
            k,
        }
    }

    fn window(&self, c: usize, channels: usize) -> (usize, usize) {
        let half = self.size / 2;
        let lo = c.saturating_sub(half);
        let hi = (c + half + 1).min(channels);
        (lo, hi)
    }

    /// Computes the per-element scale `S = k + (alpha/size) * Σ x²` of the
    /// whole items in `src` into the zeroed `dst`, each item `channels`
    /// planes of `plane` elements. For each (image, channel) the squares of
    /// the window's channel planes are summed in ascending channel order
    /// into that channel's output plane, so every element sees the
    /// operations of the per-element formula in its order.
    fn scales(&self, src: &[f32], dst: &mut [f32], channels: usize, plane: usize) {
        let scale = self.alpha / self.size as f32;
        // `p` counts planes across items: channel `c` of the item whose
        // first plane is `p - c`.
        for (p, acc) in dst.chunks_exact_mut(plane.max(1)).enumerate() {
            let c = p % channels;
            let (lo, hi) = self.window(c, channels);
            for cc in lo..hi {
                for (a, &v) in acc.iter_mut().zip(&src[(p - c + cc) * plane..][..plane]) {
                    *a += v * v;
                }
            }
            for a in acc {
                *a = self.k + scale * *a;
            }
        }
    }

    /// Forward pass: `x / S^beta`, one `powf` per element. Images split
    /// across the worker pool (`snapea_tensor::par`): a task owns a block of
    /// whole output items, at least `WALK_TASK_FLOOR_OPS` channel taps
    /// (`size` per element) of them, so a single image runs inline.
    pub fn forward(&self, input: &Tensor4) -> Tensor4 {
        let s = input.shape();
        let item = s.item_len();
        let mut out = Tensor4::zeros(s);
        let chunk = par::chunk_for(s.n, item * self.size, par::WALK_TASK_FLOOR_OPS);
        par::map_item_blocks(out.as_mut_slice(), item, chunk, |first, dst| {
            let src = &input.as_slice()[first * item..][..dst.len()];
            self.scales(src, dst, s.c, s.plane_len());
            for (o, &x) in dst.iter_mut().zip(src) {
                *o = x / o.powf(self.beta);
            }
        });
        out
    }

    /// Backward pass. `grad_out` must have `input`'s shape.
    pub fn backward(&self, input: &Tensor4, grad_out: &Tensor4) -> Tensor4 {
        let s = input.shape();
        let plane = s.plane_len();
        let mut scales = Tensor4::zeros(s);
        self.scales(input.as_slice(), scales.as_mut_slice(), s.c, plane);
        // Precompute t[n,c,h,w] = g * x * S^{-beta-1}; then
        // grad_x[j] = g[j] * S[j]^{-beta} - (2*alpha*beta/size) * x[j] * Σ_{c ∈ window(j)} t[c]
        let mut t = Tensor4::zeros(s);
        for (((tv, &g), &x), &sc) in t
            .iter_mut()
            .zip(grad_out.iter())
            .zip(input.iter())
            .zip(scales.iter())
        {
            *tv = g * x * sc.powf(-self.beta - 1.0);
        }
        let coeff = 2.0 * self.alpha * self.beta / self.size as f32;
        // As in `scales`: for each (image, channel) the window's `t` planes
        // are summed in ascending channel order into that channel's output
        // plane, which then becomes the gradient, so every element sees the
        // operations of the per-element formula in its order.
        let mut out = Tensor4::zeros(s);
        let (t, dst) = (t.as_slice(), out.as_mut_slice());
        let (g, x, sc) = (grad_out.as_slice(), input.as_slice(), scales.as_slice());
        for n in 0..s.n {
            for c in 0..s.c {
                let (lo, hi) = self.window(c, s.c);
                let at = (n * s.c + c) * plane;
                let acc = &mut dst[at..][..plane];
                for cc in lo..hi {
                    for (a, &v) in acc.iter_mut().zip(&t[(n * s.c + cc) * plane..][..plane]) {
                        *a += v;
                    }
                }
                let operands = g[at..][..plane]
                    .iter()
                    .zip(&x[at..][..plane])
                    .zip(&sc[at..][..plane]);
                for (a, ((&g, &x), &sc)) in acc.iter_mut().zip(operands) {
                    *a = g * sc.powf(-self.beta) - coeff * x * *a;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapea_tensor::{init, Shape4};

    #[test]
    fn forward_preserves_sign_and_shrinks() {
        let lrn = Lrn::new(3, 0.5, 0.75, 2.0);
        let x = Tensor4::from_vec(Shape4::new(1, 4, 1, 1), vec![3.0, -2.0, 1.0, 0.0]).unwrap();
        let y = lrn.forward(&x);
        for (&yy, &xx) in y.iter().zip(x.iter()) {
            assert!(yy.abs() <= xx.abs() + 1e-6);
            assert!(yy.signum() * xx.signum() >= 0.0);
        }
    }

    #[test]
    fn identity_when_alpha_zero_and_k_one() {
        let lrn = Lrn::new(5, 0.0, 0.75, 1.0);
        let x = Tensor4::from_fn(Shape4::new(1, 3, 2, 2), |_, c, h, w| {
            (c + h + w) as f32 - 2.0
        });
        let y = lrn.forward(&x);
        for (a, b) in y.iter().zip(x.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let lrn = Lrn::new(3, 0.3, 0.75, 2.0);
        let mut r = init::rng(11);
        let x = init::uniform4(Shape4::new(1, 5, 2, 2), 1.0, &mut r);
        let go = Tensor4::full(x.shape(), 1.0);
        let gi = lrn.backward(&x, &go);
        let eps = 1e-3;
        for &(c, h, w) in &[(0usize, 0usize, 0usize), (2, 1, 1), (4, 0, 1)] {
            let mut xp = x.clone();
            xp[(0, c, h, w)] += eps;
            let mut xm = x.clone();
            xm[(0, c, h, w)] -= eps;
            let num = (lrn.forward(&xp).sum() - lrn.forward(&xm).sum()) / (2.0 * eps);
            assert!(
                (num - gi[(0, c, h, w)]).abs() < 1e-2,
                "({c},{h},{w}): fd {num} vs {}",
                gi[(0, c, h, w)]
            );
        }
    }

    /// The plane-wise backward, bit for bit against the per-element
    /// formula, with fewer channels than the window and more.
    #[test]
    fn backward_matches_the_per_element_formula_bitwise() {
        let lrn = Lrn::new(5, 0.5, 0.75, 2.0);
        for channels in [3, 8] {
            let mut r = init::rng(channels as u64);
            let x = init::uniform4(Shape4::new(2, channels, 3, 4), 2.0, &mut r);
            let g = init::uniform4(x.shape(), 1.0, &mut r);
            let mut s = Tensor4::zeros(x.shape());
            lrn.scales(x.as_slice(), s.as_mut_slice(), channels, 3 * 4);
            let t = Tensor4::from_fn(x.shape(), |n, c, h, w| {
                g[(n, c, h, w)] * x[(n, c, h, w)] * s[(n, c, h, w)].powf(-lrn.beta - 1.0)
            });
            let coeff = 2.0 * lrn.alpha * lrn.beta / lrn.size as f32;
            let want = Tensor4::from_fn(x.shape(), |n, c, h, w| {
                let (lo, hi) = lrn.window(c, channels);
                let mut acc = 0.0f32;
                for cc in lo..hi {
                    acc += t[(n, cc, h, w)];
                }
                g[(n, c, h, w)] * s[(n, c, h, w)].powf(-lrn.beta) - coeff * x[(n, c, h, w)] * acc
            });
            let got = lrn.backward(&x, &g);
            for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{channels} channels, element {i}");
            }
        }
    }

    #[test]
    fn window_clamps_at_edges() {
        let lrn = Lrn::new(5, 1.0, 1.0, 0.0);
        assert_eq!(lrn.window(0, 8), (0, 3));
        assert_eq!(lrn.window(4, 8), (2, 7));
        assert_eq!(lrn.window(7, 8), (5, 8));
    }
}
