//! Max and average pooling layers.

use snapea_tensor::{par, Shape4, Tensor4};
use std::ops::Range;

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

    /// Calls `f(o, ys, xs)` for every output position of an `h × w` input
    /// plane, in row-major order: `o` is the output's offset within its
    /// plane, and `ys`/`xs` are the rows and columns of its window clamped
    /// to the plane. Padding taps are absent, so an all-padding window has
    /// an empty range.
    fn for_each_window(
        &self,
        h: usize,
        w: usize,
        mut f: impl FnMut(usize, Range<usize>, Range<usize>),
    ) {
        let clamp = |o: usize, d: usize| {
            let start = o * self.stride;
            start.saturating_sub(self.pad).min(d)..(start + self.k).saturating_sub(self.pad).min(d)
        };
        let ow = self.out_dim(w);
        for oy in 0..self.out_dim(h) {
            let ys = clamp(oy, h);
            for ox in 0..ow {
                f(oy * ow + ox, ys.clone(), clamp(ox, w));
            }
        }
    }
}

/// Max pooling.
///
/// Inference runs [`MaxPool::forward`], which returns only the output;
/// training runs [`MaxPool::forward_with_argmax`], which also records the
/// argmax map [`MaxPool::backward`] routes gradients through. Both take the
/// maximum as a strict `>` select over the window in row-major order,
/// starting from −∞: NaN never wins, the first of tied values (e.g. −0.0
/// before +0.0) wins, and a window with no value above −∞ (all padding or
/// all −∞) outputs 0 with argmax `u32::MAX`.
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

    /// Forward pass (inference): the pooled output alone. Images split
    /// across the worker pool (`snapea_tensor::par`): a task owns a block of
    /// whole output items, at least `WALK_TASK_FLOOR_OPS` window taps of
    /// them, so a single image runs inline.
    pub fn forward(&self, input: &Tensor4) -> Tensor4 {
        let s = input.shape();
        let os = self.geom.out_shape(s);
        let mut out = Tensor4::zeros(os);
        let (pin, pout) = (s.plane_len(), os.plane_len());
        let taps = os.item_len() * self.geom.k * self.geom.k;
        let chunk = par::chunk_for(s.n, taps, par::WALK_TASK_FLOOR_OPS);
        let src = input.as_slice();
        par::map_item_blocks(out.as_mut_slice(), os.item_len(), chunk, |first, dst| {
            for (q, out_plane) in dst.chunks_exact_mut(pout).enumerate() {
                let p = first * s.c + q;
                let plane = &src[p * pin..(p + 1) * pin];
                self.geom.for_each_window(s.h, s.w, |o, ys, xs| {
                    let mut best = f32::NEG_INFINITY;
                    for iy in ys {
                        for &v in &plane[iy * s.w + xs.start..iy * s.w + xs.end] {
                            best = if v > best { v } else { best };
                        }
                    }
                    out_plane[o] = if best > f32::NEG_INFINITY { best } else { 0.0 };
                });
            }
        });
        out
    }

    /// Forward pass (training) returning `(output, argmax)`, where `argmax`
    /// holds, for every output element, the linear offset into the input of
    /// the winning element (`u32::MAX` for a window with no value above −∞,
    /// which outputs 0). The output is bit-identical to [`MaxPool::forward`].
    pub fn forward_with_argmax(&self, input: &Tensor4) -> (Tensor4, Vec<u32>) {
        let s = input.shape();
        let os = self.geom.out_shape(s);
        let mut out = Tensor4::zeros(os);
        let mut arg = vec![u32::MAX; os.len()];
        let (pin, pout) = (s.plane_len(), os.plane_len());
        let (src, dst) = (input.as_slice(), out.as_mut_slice());
        for p in 0..s.n * s.c {
            let plane = &src[p * pin..(p + 1) * pin];
            let out_plane = &mut dst[p * pout..(p + 1) * pout];
            let arg_plane = &mut arg[p * pout..(p + 1) * pout];
            self.geom.for_each_window(s.h, s.w, |o, ys, xs| {
                let mut best = f32::NEG_INFINITY;
                let mut best_off = u32::MAX;
                for iy in ys {
                    let row = iy * s.w + xs.start;
                    for (j, &v) in plane[row..iy * s.w + xs.end].iter().enumerate() {
                        let better = v > best;
                        best = if better { v } else { best };
                        best_off = if better {
                            (p * pin + row + j) as u32
                        } else {
                            best_off
                        };
                    }
                }
                if best_off != u32::MAX {
                    out_plane[o] = best;
                    arg_plane[o] = best_off;
                }
            });
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

    /// Forward pass: each window's in-bounds taps summed in row-major order,
    /// times `1 / k²`.
    pub fn forward(&self, input: &Tensor4) -> Tensor4 {
        let s = input.shape();
        let os = self.geom.out_shape(s);
        let norm = 1.0 / (self.geom.k * self.geom.k) as f32;
        let mut out = Tensor4::zeros(os);
        let (pin, pout) = (s.plane_len(), os.plane_len());
        let (src, dst) = (input.as_slice(), out.as_mut_slice());
        for p in 0..s.n * s.c {
            let plane = &src[p * pin..(p + 1) * pin];
            let out_plane = &mut dst[p * pout..(p + 1) * pout];
            self.geom.for_each_window(s.h, s.w, |o, ys, xs| {
                let mut acc = 0.0;
                for iy in ys {
                    for &v in &plane[iy * s.w + xs.start..iy * s.w + xs.end] {
                        acc += v;
                    }
                }
                out_plane[o] = acc * norm;
            });
        }
        out
    }

    /// Backward pass: distributes each output gradient evenly over its
    /// window.
    pub fn backward(&self, input_shape: Shape4, grad_out: &Tensor4) -> Tensor4 {
        let os = grad_out.shape();
        let norm = 1.0 / (self.geom.k * self.geom.k) as f32;
        let mut grad_in = Tensor4::zeros(input_shape);
        let (pin, pout) = (input_shape.plane_len(), os.plane_len());
        let (src, dst) = (grad_out.as_slice(), grad_in.as_mut_slice());
        let w = input_shape.w;
        for p in 0..os.n * os.c {
            let go_plane = &src[p * pout..(p + 1) * pout];
            let gi_plane = &mut dst[p * pin..(p + 1) * pin];
            self.geom.for_each_window(input_shape.h, w, |o, ys, xs| {
                let g = go_plane[o] * norm;
                for iy in ys {
                    for d in &mut gi_plane[iy * w + xs.start..iy * w + xs.end] {
                        *d += g;
                    }
                }
            });
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
        let (y, arg) = p.forward_with_argmax(&x);
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
        let y = p.forward(&x);
        assert_eq!(y.shape(), Shape4::new(1, 1, 2, 2));
        // Max of each 3x3 window is its bottom-right element.
        assert_eq!(y.as_slice(), &[12.0, 14.0, 22.0, 24.0]);
    }

    #[test]
    fn padded_maxpool_preserves_spatial_extent() {
        // Inception pool branch: 3x3, stride 1, pad 1 — same spatial size.
        let x = Tensor4::from_fn(Shape4::new(1, 1, 3, 3), |_, _, h, w| (h * 3 + w) as f32);
        let p = MaxPool::with_pad(3, 1, 1);
        let (y, arg) = p.forward_with_argmax(&x);
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
