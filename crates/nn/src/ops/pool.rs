//! Max and average pooling layers.

use snapea_tensor::{Shape4, Tensor4};

/// Pooling geometry: square window, stride, zero padding.
///
/// Padding semantics follow Caffe (which hosted the paper's networks):
/// max-pool treats padded positions as absent (−∞), average-pool treats them
/// as zeros and always divides by the full window area.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolGeom {
    /// Window side length.
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Padding on every side.
    pub pad: usize,
}

impl PoolGeom {
    /// Creates a pooling geometry without padding.
    pub fn new(k: usize, stride: usize) -> Self {
        Self { k, stride, pad: 0 }
    }

    /// Creates a pooling geometry with padding.
    pub fn with_pad(k: usize, stride: usize, pad: usize) -> Self {
        Self { k, stride, pad }
    }

    /// Output extent for an input extent `d`.
    pub fn out_dim(&self, d: usize) -> usize {
        let padded = d + 2 * self.pad;
        if padded < self.k {
            0
        } else {
            (padded - self.k) / self.stride + 1
        }
    }

    /// Output shape for an input shape.
    pub fn out_shape(&self, s: Shape4) -> Shape4 {
        Shape4::new(s.n, s.c, self.out_dim(s.h), self.out_dim(s.w))
    }

    /// Iterates the valid (in-bounds) input coordinates of output window
    /// `(oy, ox)` for an input of spatial extent `(h, w)`.
    fn window_coords(
        &self,
        oy: usize,
        ox: usize,
        h: usize,
        w: usize,
    ) -> impl Iterator<Item = (usize, usize)> + '_ {
        let y0 = (oy * self.stride) as isize - self.pad as isize;
        let x0 = (ox * self.stride) as isize - self.pad as isize;
        let k = self.k as isize;
        (0..k).flat_map(move |ky| {
            (0..k).filter_map(move |kx| {
                let iy = y0 + ky;
                let ix = x0 + kx;
                if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                    Some((iy as usize, ix as usize))
                } else {
                    None
                }
            })
        })
    }
}

/// Max pooling. The forward pass additionally returns the argmax map needed
/// by the backward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MaxPool {
    /// Pooling geometry.
    pub geom: PoolGeom,
}

impl MaxPool {
    /// Creates an unpadded max-pool layer.
    pub fn new(k: usize, stride: usize) -> Self {
        Self {
            geom: PoolGeom::new(k, stride),
        }
    }

    /// Creates a padded max-pool layer (e.g. the 3×3/s1/p1 pool branch of an
    /// Inception module).
    pub fn with_pad(k: usize, stride: usize, pad: usize) -> Self {
        Self {
            geom: PoolGeom::with_pad(k, stride, pad),
        }
    }

    /// Forward pass returning `(output, argmax)` where `argmax` holds, for
    /// every output element, the linear offset into the input of the winning
    /// element (`u32::MAX` for the degenerate all-padding window, which
    /// outputs 0).
    pub fn forward(&self, input: &Tensor4) -> (Tensor4, Vec<u32>) {
        let s = input.shape();
        let os = self.geom.out_shape(s);
        let mut out = Tensor4::zeros(os);
        let mut arg = vec![0u32; os.len()];
        let data = input.as_slice();
        let mut oi = 0;
        for n in 0..os.n {
            for c in 0..os.c {
                for oy in 0..os.h {
                    for ox in 0..os.w {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_off = u32::MAX;
                        for (iy, ix) in self.geom.window_coords(oy, ox, s.h, s.w) {
                            let off = s.offset(n, c, iy, ix);
                            if data[off] > best {
                                best = data[off];
                                best_off = off as u32;
                            }
                        }
                        out.as_mut_slice()[oi] = if best_off == u32::MAX { 0.0 } else { best };
                        arg[oi] = best_off;
                        oi += 1;
                    }
                }
            }
        }
        (out, arg)
    }

    /// Backward pass: routes each output gradient to its argmax position.
    pub fn backward(&self, input_shape: Shape4, argmax: &[u32], grad_out: &Tensor4) -> Tensor4 {
        let mut grad_in = Tensor4::zeros(input_shape);
        let gi = grad_in.as_mut_slice();
        for (&a, &g) in argmax.iter().zip(grad_out.as_slice()) {
            if a != u32::MAX {
                gi[a as usize] += g;
            }
        }
        grad_in
    }
}

/// Average pooling. With `k == stride == input extent` this is global average
/// pooling (used by the GoogLeNet/SqueezeNet heads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AvgPool {
    /// Pooling geometry.
    pub geom: PoolGeom,
}

impl AvgPool {
    /// Creates an unpadded average-pool layer.
    pub fn new(k: usize, stride: usize) -> Self {
        Self {
            geom: PoolGeom::new(k, stride),
        }
    }

    /// Forward pass.
    pub fn forward(&self, input: &Tensor4) -> Tensor4 {
        let s = input.shape();
        let os = self.geom.out_shape(s);
        let norm = 1.0 / (self.geom.k * self.geom.k) as f32;
        Tensor4::from_fn(os, |n, c, oy, ox| {
            let mut acc = 0.0;
            for (iy, ix) in self.geom.window_coords(oy, ox, s.h, s.w) {
                acc += input[(n, c, iy, ix)];
            }
            acc * norm
        })
    }

    /// Backward pass: distributes each output gradient evenly over its
    /// window.
    pub fn backward(&self, input_shape: Shape4, grad_out: &Tensor4) -> Tensor4 {
        let os = grad_out.shape();
        let norm = 1.0 / (self.geom.k * self.geom.k) as f32;
        let mut grad_in = Tensor4::zeros(input_shape);
        for n in 0..os.n {
            for c in 0..os.c {
                for oy in 0..os.h {
                    for ox in 0..os.w {
                        let g = grad_out[(n, c, oy, ox)] * norm;
                        for (iy, ix) in
                            self.geom
                                .window_coords(oy, ox, input_shape.h, input_shape.w)
                        {
                            grad_in[(n, c, iy, ix)] += g;
                        }
                    }
                }
            }
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_max_and_routes_grad() {
        let x = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 5.0, 3.0, 2.0]).unwrap();
        let p = MaxPool::new(2, 2);
        let (y, arg) = p.forward(&x);
        assert_eq!(y.as_slice(), &[5.0]);
        assert_eq!(arg, vec![1]);
        let go = Tensor4::full(y.shape(), 2.0);
        let gi = p.backward(x.shape(), &arg, &go);
        assert_eq!(gi.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_overlapping_windows() {
        // AlexNet-style overlapping pooling: k=3, stride=2.
        let x = Tensor4::from_fn(Shape4::new(1, 1, 5, 5), |_, _, h, w| (h * 5 + w) as f32);
        let p = MaxPool::new(3, 2);
        let (y, _) = p.forward(&x);
        assert_eq!(y.shape(), Shape4::new(1, 1, 2, 2));
        // Max of each 3x3 window is its bottom-right element.
        assert_eq!(y.as_slice(), &[12.0, 14.0, 22.0, 24.0]);
    }

    #[test]
    fn padded_maxpool_preserves_spatial_extent() {
        // Inception pool branch: 3x3, stride 1, pad 1 — same spatial size.
        let x = Tensor4::from_fn(Shape4::new(1, 1, 3, 3), |_, _, h, w| (h * 3 + w) as f32);
        let p = MaxPool::with_pad(3, 1, 1);
        let (y, arg) = p.forward(&x);
        assert_eq!(y.shape(), x.shape());
        // Corner output only sees the in-bounds 2x2 region.
        assert_eq!(y[(0, 0, 0, 0)], 4.0);
        assert_eq!(y[(0, 0, 2, 2)], 8.0);
        // Gradients still route correctly.
        let go = Tensor4::full(y.shape(), 1.0);
        let gi = p.backward(x.shape(), &arg, &go);
        // Element 8 (value 8.0) wins 4 windows.
        assert_eq!(gi[(0, 0, 2, 2)], 4.0);
        assert_eq!(gi.sum(), 9.0);
    }

    #[test]
    fn avgpool_averages_and_distributes() {
        let x = Tensor4::from_vec(Shape4::new(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 6.0]).unwrap();
        let p = AvgPool::new(2, 2);
        let y = p.forward(&x);
        assert_eq!(y.as_slice(), &[3.0]);
        let go = Tensor4::full(y.shape(), 4.0);
        let gi = p.backward(x.shape(), &go);
        assert_eq!(gi.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn global_avg_pool_shape() {
        let x = Tensor4::full(Shape4::new(2, 3, 4, 4), 2.0);
        let p = AvgPool::new(4, 4);
        let y = p.forward(&x);
        assert_eq!(y.shape(), Shape4::new(2, 3, 1, 1));
        assert!(y.iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn pool_geom_degenerate() {
        let g = PoolGeom::new(3, 2);
        assert_eq!(g.out_dim(2), 0);
        assert_eq!(g.out_dim(3), 1);
        assert_eq!(g.out_dim(7), 3);
        let gp = PoolGeom::with_pad(3, 1, 1);
        assert_eq!(gp.out_dim(4), 4);
    }
}
