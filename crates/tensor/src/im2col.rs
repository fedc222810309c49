//! im2col / col2im transforms used by the fast convolution path.
//!
//! The forward/backward passes of `snapea-nn`'s convolution layer lower a
//! convolution to a matrix product: weights `[c_out, c_in*kh*kw]` times the
//! im2col patch matrix `[c_in*kh*kw, out_h*out_w]`. The SnaPEA executor in the
//! `snapea` crate does *not* use this path — it walks windows weight-by-weight
//! to model early termination — but both paths must agree numerically, which
//! the integration tests assert.

use crate::{Shape2, Tensor2, Tensor4};
use std::ops::Range;

/// Geometry of a 2-D convolution: kernel size, stride and zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConvGeom {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Vertical and horizontal stride.
    pub stride: usize,
    /// Zero padding applied on every side.
    pub pad: usize,
}

impl ConvGeom {
    /// Creates a square-kernel geometry.
    pub fn square(k: usize, stride: usize, pad: usize) -> Self {
        Self {
            kh: k,
            kw: k,
            stride,
            pad,
        }
    }

    /// Output height for an input of height `h`.
    pub fn out_h(&self, h: usize) -> usize {
        (h + 2 * self.pad).saturating_sub(self.kh) / self.stride + 1
    }

    /// Output width for an input of width `w`.
    pub fn out_w(&self, w: usize) -> usize {
        (w + 2 * self.pad).saturating_sub(self.kw) / self.stride + 1
    }
}

/// Expands batch item `n` of `input` into the im2col patch matrix of shape
/// `[c_in*kh*kw, out_h*out_w]`. Out-of-bounds (padding) taps contribute zero.
///
/// # Panics
///
/// Panics if `n` is out of bounds.
pub fn im2col(input: &Tensor4, n: usize, geom: ConvGeom) -> Tensor2 {
    let s = input.shape();
    let (oh, ow) = (geom.out_h(s.h), geom.out_w(s.w));
    let rows = s.c * geom.kh * geom.kw;
    let mut out = Tensor2::zeros(Shape2::new(rows, oh * ow));
    im2col_into(input, n, geom, out.as_mut_slice());
    out
}

/// The output positions `o < out` whose tap `o·stride + k − pad` lands inside
/// `0..d`, for kernel offset `k` along one axis: a contiguous range, empty
/// when every position falls in the padding.
fn valid_outputs(k: usize, d: usize, out: usize, geom: ConvGeom) -> Range<usize> {
    let hi = (d + geom.pad)
        .saturating_sub(k)
        .div_ceil(geom.stride)
        .min(out);
    let lo = geom.pad.saturating_sub(k).div_ceil(geom.stride).min(hi);
    lo..hi
}

/// [`im2col`] writing into a caller-provided **zeroed** flat buffer of length
/// `c_in*kh*kw × out_h*out_w` (row-major) — the allocation-free form used by
/// the scratch-reuse convolution path. Padding taps are left untouched, which
/// is why the buffer must arrive zeroed (e.g. from
/// [`crate::scratch::with_zeroed`]).
///
/// Each patch-matrix row (one kernel tap `(c, ky, kx)`) resolves its valid
/// output rows and columns once; at stride 1 each output row's valid span
/// is then one `copy_from_slice` out of the input row.
///
/// # Panics
///
/// Panics if `n` is out of bounds or `out` has the wrong length.
// lint:allow(P2) rows/cols derive from the asserted buffer length; valid_outputs keeps every tap inside the input plane
pub fn im2col_into(input: &Tensor4, n: usize, geom: ConvGeom, out: &mut [f32]) {
    let s = input.shape();
    let (oh, ow) = (geom.out_h(s.h), geom.out_w(s.w));
    let rows = s.c * geom.kh * geom.kw;
    let cols = oh * ow;
    assert_eq!(out.len(), rows * cols, "im2col_into: buffer length");
    let item = input.item(n);
    let plane_len = s.h * s.w;
    for c in 0..s.c {
        let plane = &item[c * plane_len..(c + 1) * plane_len];
        for ky in 0..geom.kh {
            let ys = valid_outputs(ky, s.h, oh, geom);
            for kx in 0..geom.kw {
                let xs = valid_outputs(kx, s.w, ow, geom);
                if xs.is_empty() {
                    continue;
                }
                let x0 = xs.start * geom.stride + kx - geom.pad;
                let row = (c * geom.kh + ky) * geom.kw + kx;
                let dst = &mut out[row * cols..(row + 1) * cols];
                for oy in ys.clone() {
                    let iy = oy * geom.stride + ky - geom.pad;
                    let src = &plane[iy * s.w + x0..(iy + 1) * s.w];
                    let dst_row = &mut dst[oy * ow + xs.start..oy * ow + xs.end];
                    if geom.stride == 1 {
                        dst_row.copy_from_slice(&src[..dst_row.len()]);
                    } else {
                        for (d, &v) in dst_row.iter_mut().zip(src.iter().step_by(geom.stride)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// Scatters a patch-matrix gradient (shape `[c_in*kh*kw, out_h*out_w]`) back
/// into an input-shaped gradient for batch item `n`, accumulating overlaps.
///
/// Inverse-adjoint of [`im2col`]: padding positions are dropped.
///
/// # Panics
///
/// Panics if `cols` has the wrong shape for `(grad_input.shape(), geom)`.
pub fn col2im(cols: &Tensor2, grad_input: &mut Tensor4, n: usize, geom: ConvGeom) {
    let s = grad_input.shape();
    col2im_item(cols, grad_input.item_mut(n), s.c, s.h, s.w, geom);
}

/// [`col2im`] operating on a single batch item's flat `[c × h × w]` slice —
/// the form used by the parallel convolution backward pass, where each
/// worker owns one item's disjoint `grad_input` slice.
///
/// # Panics
///
/// Panics if `grad_item.len() != c * h * w` or `cols` has the wrong shape
/// for `(c, h, w, geom)`.
pub fn col2im_item(
    cols: &Tensor2,
    grad_item: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    geom: ConvGeom,
) {
    let (oh, ow) = (geom.out_h(h), geom.out_w(w));
    assert_eq!(
        cols.shape(),
        Shape2::new(c * geom.kh * geom.kw, oh * ow),
        "col2im: patch matrix shape mismatch"
    );
    col2im_item_slice(cols.as_slice(), grad_item, c, h, w, geom);
}

/// [`col2im_item`] over a raw flat `[c*kh*kw, out_h*out_w]` row-major patch
/// matrix — the allocation-free form used by the scratch-reuse convolution
/// backward pass.
///
/// # Panics
///
/// Panics if either slice has the wrong length for `(c, h, w, geom)`.
// lint:allow(P2) both slice lengths are asserted above the loops; valid_outputs keeps every tap inside the item
pub fn col2im_item_slice(
    cols: &[f32],
    grad_item: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    geom: ConvGeom,
) {
    let (oh, ow) = (geom.out_h(h), geom.out_w(w));
    let ocols = oh * ow;
    assert_eq!(grad_item.len(), c * h * w, "col2im: item slice length");
    assert_eq!(
        cols.len(),
        c * geom.kh * geom.kw * ocols,
        "col2im: patch matrix length mismatch"
    );
    for ci in 0..c {
        let plane = &mut grad_item[ci * h * w..(ci + 1) * h * w];
        for ky in 0..geom.kh {
            let ys = valid_outputs(ky, h, oh, geom);
            for kx in 0..geom.kw {
                let xs = valid_outputs(kx, w, ow, geom);
                if xs.is_empty() {
                    continue;
                }
                let x0 = xs.start * geom.stride + kx - geom.pad;
                let row = (ci * geom.kh + ky) * geom.kw + kx;
                let src = &cols[row * ocols..(row + 1) * ocols];
                for oy in ys.clone() {
                    let iy = oy * geom.stride + ky - geom.pad;
                    let dst = plane[iy * w + x0..(iy + 1) * w]
                        .iter_mut()
                        .step_by(geom.stride);
                    for (d, &v) in dst.zip(&src[oy * ow + xs.start..oy * ow + xs.end]) {
                        *d += v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape4;

    #[test]
    fn geometry() {
        let g = ConvGeom::square(3, 1, 1);
        assert_eq!(g.out_h(8), 8);
        assert_eq!(g.out_w(8), 8);
        let g = ConvGeom::square(3, 2, 0);
        assert_eq!(g.out_h(7), 3);
        let g = ConvGeom::square(1, 1, 0);
        assert_eq!(g.out_h(5), 5);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: im2col is just the channel planes.
        let t = Tensor4::from_fn(Shape4::new(1, 2, 2, 2), |_, c, h, w| {
            (c * 4 + h * 2 + w) as f32
        });
        let m = im2col(&t, 0, ConvGeom::square(1, 1, 0));
        assert_eq!(m.shape(), Shape2::new(2, 4));
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let t = Tensor4::full(Shape4::new(1, 1, 2, 2), 1.0);
        let m = im2col(&t, 0, ConvGeom::square(3, 1, 1));
        // Centre tap of the 3x3 kernel sees every input pixel.
        let centre = m.row(4);
        assert_eq!(centre, &[1.0, 1.0, 1.0, 1.0]);
        // Top-left tap only sees the input at output (1,1).
        let tl = m.row(0);
        assert_eq!(tl, &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let geom = ConvGeom::square(3, 2, 1);
        let shape = Shape4::new(1, 2, 5, 5);
        let x = Tensor4::from_fn(shape, |_, c, h, w| ((c * 25 + h * 5 + w) as f32).sin());
        let cols = im2col(&x, 0, geom);
        let y = Tensor2::from_fn(cols.shape(), |r, c| ((r * 31 + c * 7) as f32).cos());
        let lhs: f32 = cols.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
        let mut back = Tensor4::zeros(shape);
        col2im(&y, &mut back, 0, geom);
        let rhs: f32 = x.iter().zip(back.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
