//! Shape types for 2-D and 4-D tensors.

use std::fmt;

/// Error produced when a shape-sensitive operation receives incompatible
/// shapes (e.g. reshaping to a different element count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    what: String,
}

impl ShapeError {
    pub(crate) fn new(what: impl Into<String>) -> Self {
        Self { what: what.into() }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape mismatch: {}", self.what)
    }
}

impl std::error::Error for ShapeError {}

/// Shape of a 4-D tensor in NCHW layout: batch `n`, channels `c`, height `h`,
/// width `w`.
///
/// ```
/// use snapea_tensor::Shape4;
/// let s = Shape4::new(2, 3, 8, 8);
/// assert_eq!(s.len(), 2 * 3 * 8 * 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape4 {
    /// Batch dimension.
    pub n: usize,
    /// Channel dimension.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl Shape4 {
    /// Creates a new NCHW shape.
    pub fn new(n: usize, c: usize, h: usize, w: usize) -> Self {
        Self { n, c, h, w }
    }

    /// Total number of elements.
    pub fn len(self) -> usize {
        self.n * self.c * self.h * self.w
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Row-major (NCHW) linear offset of element `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[inline]
    pub fn offset(self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(
            n < self.n && c < self.c && h < self.h && w < self.w,
            "index ({n},{c},{h},{w}) out of bounds for {self}"
        );
        ((n * self.c + c) * self.h + h) * self.w + w
    }

    /// Number of elements in a single batch item (`c * h * w`).
    pub fn item_len(self) -> usize {
        self.c * self.h * self.w
    }

    /// Number of elements in a single channel plane (`h * w`).
    pub fn plane_len(self) -> usize {
        self.h * self.w
    }
}

impl fmt::Display for Shape4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}, {}, {}]", self.n, self.c, self.h, self.w)
    }
}

/// Shape of a 2-D tensor (matrix): `rows × cols`, row-major.
///
/// ```
/// use snapea_tensor::Shape2;
/// let s = Shape2::new(3, 4);
/// assert_eq!(s.len(), 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape2 {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl Shape2 {
    /// Creates a new matrix shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self { rows, cols }
    }

    /// Total number of elements.
    pub fn len(self) -> usize {
        self.rows * self.cols
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Row-major linear offset of element `(r, c)`.
    #[inline]
    pub fn offset(self, r: usize, c: usize) -> usize {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {self}"
        );
        r * self.cols + c
    }
}

impl fmt::Display for Shape2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape4_len_and_offsets() {
        let s = Shape4::new(2, 3, 4, 5);
        assert_eq!(s.len(), 120);
        assert_eq!(s.offset(0, 0, 0, 0), 0);
        assert_eq!(s.offset(0, 0, 0, 1), 1);
        assert_eq!(s.offset(0, 0, 1, 0), 5);
        assert_eq!(s.offset(0, 1, 0, 0), 20);
        assert_eq!(s.offset(1, 0, 0, 0), 60);
        assert_eq!(s.offset(1, 2, 3, 4), 119);
    }

    #[test]
    fn shape4_item_and_plane() {
        let s = Shape4::new(2, 3, 4, 5);
        assert_eq!(s.item_len(), 60);
        assert_eq!(s.plane_len(), 20);
        assert!(!s.is_empty());
        assert!(Shape4::new(0, 3, 4, 5).is_empty());
    }

    #[test]
    fn shape2_offsets() {
        let s = Shape2::new(3, 4);
        assert_eq!(s.offset(0, 0), 0);
        assert_eq!(s.offset(2, 3), 11);
        assert_eq!(s.len(), 12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Shape4::new(1, 2, 3, 4).to_string(), "[1, 2, 3, 4]");
        assert_eq!(Shape2::new(5, 6).to_string(), "[5, 6]");
        let e = ShapeError::new("boom");
        assert_eq!(e.to_string(), "shape mismatch: boom");
    }
}
