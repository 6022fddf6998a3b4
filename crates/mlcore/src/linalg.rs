//! Minimal dense linear algebra: exactly the operations the models need.

use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element access.
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Mutable element access.
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Builds a matrix holding only the given rows of `self`.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.data[dst * self.cols..(dst + 1) * self.cols].copy_from_slice(self.row(src));
        }
        out
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `acc += scale * v`, element-wise.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy(acc: &mut [f32], scale: f32, v: &[f32]) {
    assert_eq!(acc.len(), v.len(), "axpy length mismatch");
    for (a, x) in acc.iter_mut().zip(v) {
        *a += scale * x;
    }
}

/// Numerically-stable softmax over `logits`, in place.
pub fn softmax_in_place(logits: &mut [f32]) {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for l in logits.iter_mut() {
        *l = (*l - max).exp();
        sum += *l;
    }
    for l in logits.iter_mut() {
        *l /= sum;
    }
}

/// Index of the maximum element (first on ties).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn argmax(values: &[f32]) -> usize {
    assert!(!values.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_shape_and_access() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn select_rows_keeps_the_given_order() {
        let mut m = Matrix::zeros(3, 2);
        for (i, v) in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0].into_iter().enumerate() {
            m.set(i / 2, i % 2, v);
        }
        let sel = m.select_rows(&[2, 0]);
        assert_eq!(sel.row(0), &[5.0, 6.0]);
        assert_eq!(sel.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn dot_and_axpy() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        let mut acc = vec![1.0, 1.0];
        axpy(&mut acc, 2.0, &[3.0, -1.0]);
        assert_eq!(acc, vec![7.0, -1.0]);
    }

    #[test]
    fn softmax_properties() {
        let mut v = vec![1.0, 2.0, 3.0];
        softmax_in_place(&mut v);
        let sum: f32 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(v[2] > v[1] && v[1] > v[0]);
        // Large logits don't overflow.
        let mut big = vec![1000.0, 1001.0];
        softmax_in_place(&mut big);
        assert!(big.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn argmax_first_max() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-5.0]), 0);
    }
}
