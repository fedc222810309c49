//! Cross-channel Local Response Normalization (AlexNet / GoogLeNet style).

use snapea_tensor::Tensor4;

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

    /// Computes the per-element scale `S = k + (alpha/size) * Σ x²`.
    fn scales(&self, input: &Tensor4) -> Tensor4 {
        let s = input.shape();
        Tensor4::from_fn(s, |n, c, h, w| {
            let (lo, hi) = self.window(c, s.c);
            let mut acc = 0.0f32;
            for cc in lo..hi {
                let v = input[(n, cc, h, w)];
                acc += v * v;
            }
            self.k + self.alpha / self.size as f32 * acc
        })
    }

    /// Forward pass.
    pub fn forward(&self, input: &Tensor4) -> Tensor4 {
        let scales = self.scales(input);
        let mut out = input.clone();
        for (o, &sc) in out.iter_mut().zip(scales.iter()) {
            *o /= sc.powf(self.beta);
        }
        out
    }

    /// Backward pass.
    pub fn backward(&self, input: &Tensor4, grad_out: &Tensor4) -> Tensor4 {
        let s = input.shape();
        let scales = self.scales(input);
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
        Tensor4::from_fn(s, |n, c, h, w| {
            let (lo, hi) = self.window(c, s.c);
            let mut acc = 0.0f32;
            for cc in lo..hi {
                acc += t[(n, cc, h, w)];
            }
            grad_out[(n, c, h, w)] * scales[(n, c, h, w)].powf(-self.beta)
                - coeff * input[(n, c, h, w)] * acc
        })
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

    #[test]
    fn window_clamps_at_edges() {
        let lrn = Lrn::new(5, 1.0, 1.0, 0.0);
        assert_eq!(lrn.window(0, 8), (0, 3));
        assert_eq!(lrn.window(4, 8), (2, 7));
        assert_eq!(lrn.window(7, 8), (5, 8));
    }
}
