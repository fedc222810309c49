//! Dense 4-D NCHW tensor.

use crate::{Shape4, ShapeError, Tensor2};
use std::ops::{Index, IndexMut};

/// A dense, row-major, NCHW `f32` tensor.
///
/// `Tensor4` is the activation/kernel container used throughout the
/// reproduction. It is deliberately simple: owned storage, no views, no
/// broadcasting — convolution layers index it directly.
///
/// ```
/// use snapea_tensor::{Shape4, Tensor4};
/// let t = Tensor4::from_fn(Shape4::new(1, 1, 2, 2), |_, _, h, w| (h * 2 + w) as f32);
/// assert_eq!(t[(0, 0, 1, 1)], 3.0);
/// assert_eq!(t.iter().sum::<f32>(), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor4 {
    shape: Shape4,
    data: Vec<f32>,
}

impl Tensor4 {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Shape4) -> Self {
        Self {
            shape,
            data: vec![0.0; shape.len()],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Shape4, value: f32) -> Self {
        Self {
            shape,
            data: vec![value; shape.len()],
        }
    }

    /// Creates a tensor by evaluating `f(n, c, h, w)` at every coordinate.
    pub fn from_fn(shape: Shape4, mut f: impl FnMut(usize, usize, usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        for n in 0..shape.n {
            for c in 0..shape.c {
                for h in 0..shape.h {
                    for w in 0..shape.w {
                        data.push(f(n, c, h, w));
                    }
                }
            }
        }
        Self { shape, data }
    }

    /// Creates a tensor from a flat row-major (NCHW) vector.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape4, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != shape.len() {
            return Err(ShapeError::new(format!(
                "expected {} elements for shape {shape}, got {}",
                shape.len(),
                data.len()
            )));
        }
        Ok(Self { shape, data })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape4 {
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

    /// Consumes the tensor and returns its flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterate over all elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Mutably iterate over all elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.data.iter_mut()
    }

    /// Element at `(n, c, h, w)`, or `None` if out of bounds.
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> Option<f32> {
        if n < self.shape.n && c < self.shape.c && h < self.shape.h && w < self.shape.w {
            Some(self.data[self.shape.offset(n, c, h, w)])
        } else {
            None
        }
    }

    /// Borrow the channel plane `(n, c)` as a contiguous `h*w` slice.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `c` is out of bounds.
    pub fn plane(&self, n: usize, c: usize) -> &[f32] {
        let start = self.shape.offset(n, c, 0, 0);
        &self.data[start..start + self.shape.plane_len()]
    }

    /// Borrow the batch item `n` as a contiguous `c*h*w` slice.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    pub fn item(&self, n: usize) -> &[f32] {
        // Computed from `item_len` rather than `offset(n, 0, 0, 0)` so that
        // degenerate shapes with a zero channel/spatial axis yield an empty
        // slice instead of tripping the offset bounds check.
        assert!(
            n < self.shape.n,
            "item {n} out of bounds for {}",
            self.shape
        );
        let len = self.shape.item_len();
        &self.data[n * len..(n + 1) * len]
    }

    /// Mutably borrow the batch item `n` as a contiguous `c*h*w` slice.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    pub fn item_mut(&mut self, n: usize) -> &mut [f32] {
        assert!(
            n < self.shape.n,
            "item {n} out of bounds for {}",
            self.shape
        );
        let len = self.shape.item_len();
        &mut self.data[n * len..(n + 1) * len]
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, f: impl FnMut(f32) -> f32) -> Self {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Adds `other` element-wise.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor4) -> Result<(), ShapeError> {
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

    /// Reinterprets batch item dimensions as a matrix of shape
    /// `n × (c*h*w)` (used at the conv→FC boundary).
    pub fn to_matrix(&self) -> Tensor2 {
        Tensor2::from_vec(
            crate::Shape2::new(self.shape.n, self.shape.item_len()),
            self.data.clone(),
        )
        // lint:allow(P1) n × item_len is by definition the element count of this tensor's own data
        .expect("shape product is preserved")
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Fraction of elements strictly below zero.
    ///
    /// This is the quantity the paper's Figure 1 reports for activation-layer
    /// inputs. Returns 0.0 for an empty tensor.
    pub fn negative_fraction(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let neg = self.data.iter().filter(|v| **v < 0.0).count();
        neg as f64 / self.data.len() as f64
    }
}

impl Index<(usize, usize, usize, usize)> for Tensor4 {
    type Output = f32;

    #[inline]
    fn index(&self, (n, c, h, w): (usize, usize, usize, usize)) -> &f32 {
        &self.data[self.shape.offset(n, c, h, w)]
    }
}

impl IndexMut<(usize, usize, usize, usize)> for Tensor4 {
    #[inline]
    fn index_mut(&mut self, (n, c, h, w): (usize, usize, usize, usize)) -> &mut f32 {
        &mut self.data[self.shape.offset(n, c, h, w)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let s = Shape4::new(2, 2, 3, 3);
        let t = Tensor4::from_fn(s, |n, c, h, w| (n * 1000 + c * 100 + h * 10 + w) as f32);
        assert_eq!(t[(1, 1, 2, 2)], 1122.0);
        assert_eq!(t.get(1, 1, 2, 2), Some(1122.0));
        assert_eq!(t.get(2, 0, 0, 0), None);
    }

    #[test]
    fn from_vec_validates_len() {
        let s = Shape4::new(1, 1, 2, 2);
        assert!(Tensor4::from_vec(s, vec![1.0; 4]).is_ok());
        assert!(Tensor4::from_vec(s, vec![1.0; 5]).is_err());
    }

    #[test]
    fn plane_and_item_slices() {
        let s = Shape4::new(2, 3, 2, 2);
        let t = Tensor4::from_fn(s, |n, c, _, _| (n * 10 + c) as f32);
        assert_eq!(t.plane(1, 2), &[12.0; 4]);
        assert_eq!(t.item(0).len(), 12);
        assert_eq!(t.item(1)[0], 10.0);
    }

    #[test]
    fn map_and_arith() {
        let s = Shape4::new(1, 1, 2, 2);
        let mut a = Tensor4::full(s, 2.0);
        let b = Tensor4::full(s, 3.0);
        a.add_assign(&b).unwrap();
        assert_eq!(a.sum(), 20.0);
        a.scale(0.5);
        assert_eq!(a.sum(), 10.0);
        let c = a.map(|v| v - 2.5);
        assert_eq!(c.sum(), 0.0);
        assert_eq!(c.negative_fraction(), 0.0);

        let d = Tensor4::from_fn(s, |_, _, h, w| if (h + w) % 2 == 0 { -1.0 } else { 1.0 });
        assert_eq!(d.negative_fraction(), 0.5);
    }

    #[test]
    fn add_shape_mismatch_errors() {
        let mut a = Tensor4::zeros(Shape4::new(1, 1, 2, 2));
        let b = Tensor4::zeros(Shape4::new(1, 1, 2, 3));
        assert!(a.add_assign(&b).is_err());
    }

    #[test]
    fn to_matrix_flattens_items() {
        let t = Tensor4::from_fn(Shape4::new(2, 1, 1, 3), |n, _, _, w| (n * 3 + w) as f32);
        let m = t.to_matrix();
        assert_eq!(m.shape().rows, 2);
        assert_eq!(m.shape().cols, 3);
        assert_eq!(m[(1, 2)], 5.0);
    }
}
