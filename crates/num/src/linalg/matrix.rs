//! Dense row-major matrix type.

use crate::error::{NumError, NumResult};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major, heap-allocated `f64` matrix.
///
/// Sized for the problems in this workspace (Jacobians over provider sets,
/// i.e. tens of rows at most), so all operations are straightforward
/// triple-loop implementations with bounds-checked construction and
/// dimension-checked arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from nested row slices. All rows must have equal
    /// length.
    pub fn from_rows(rows: &[&[f64]]) -> NumResult<Self> {
        let r = rows.len();
        if r == 0 {
            return Ok(Matrix::zeros(0, 0));
        }
        let c = rows[0].len();
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(NumError::DimensionMismatch { expected: c, actual: row.len() });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix { rows: r, cols: c, data })
    }

    /// Creates a matrix from a flat row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> NumResult<Self> {
        if data.len() != rows * cols {
            return Err(NumError::DimensionMismatch { expected: rows * cols, actual: data.len() });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds an `n × n` matrix from an entry generator `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a diagonal matrix from a slice.
    pub fn diag(d: &[f64]) -> Self {
        let mut m = Matrix::zeros(d.len(), d.len());
        for (i, &v) in d.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix–vector product `A x`.
    pub fn matvec(&self, x: &[f64]) -> NumResult<Vec<f64>> {
        if x.len() != self.cols {
            return Err(NumError::DimensionMismatch { expected: self.cols, actual: x.len() });
        }
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = 0.0;
            for j in 0..self.cols {
                acc += row[j] * x[j];
            }
            y[i] = acc;
        }
        Ok(y)
    }

    /// Matrix–matrix product `A B`.
    pub fn matmul(&self, other: &Matrix) -> NumResult<Matrix> {
        if self.cols != other.rows {
            return Err(NumError::DimensionMismatch { expected: self.cols, actual: other.rows });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Scales every entry by `s`, returning a new matrix.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|v| v * s).collect() }
    }

    /// Extracts the square submatrix with the given (sorted or unsorted)
    /// row/column indices — used to restrict Jacobians to the interior set
    /// `Ñ` in Theorem 6.
    pub fn submatrix(&self, idx: &[usize]) -> NumResult<Matrix> {
        for &i in idx {
            if i >= self.rows || i >= self.cols {
                return Err(NumError::DimensionMismatch {
                    expected: self.rows.min(self.cols),
                    actual: i,
                });
            }
        }
        let k = idx.len();
        let mut m = Matrix::zeros(k, k);
        for (a, &i) in idx.iter().enumerate() {
            for (b, &j) in idx.iter().enumerate() {
                m[(a, b)] = self[(i, j)];
            }
        }
        Ok(m)
    }

    /// Maximum absolute entry (the `max` norm).
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// True when all entries are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "matrix add: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "matrix sub: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect(),
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs).expect("matrix mul: inner dimension mismatch")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.5e}", self[(i, j)])?;
                if j + 1 < self.cols {
                    write!(f, " ")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn from_rows_ragged_rejected() {
        assert!(matches!(
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn from_vec_checks_size() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matvec_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let y = a.matvec(&[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_dimension_check() {
        let a = Matrix::identity(3);
        assert!(a.matvec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let ab = a.matmul(&b).unwrap();
        assert_eq!(ab, Matrix::from_rows(&[&[2.0, 1.0], &[4.0, 3.0]]).unwrap());
    }

    #[test]
    fn transpose_involutive() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::identity(2);
        let c = &a + &b;
        assert_eq!(c[(0, 0)], 2.0);
        let d = &c - &b;
        assert_eq!(d, a);
        assert_eq!(a.scale(2.0)[(1, 1)], 8.0);
    }

    #[test]
    fn submatrix_extracts_interior_block() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = a.submatrix(&[1, 3]).unwrap();
        assert_eq!(s, Matrix::from_rows(&[&[5.0, 7.0], &[13.0, 15.0]]).unwrap());
    }

    #[test]
    fn submatrix_out_of_range() {
        let a = Matrix::identity(2);
        assert!(a.submatrix(&[0, 5]).is_err());
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[-3.0, 0.5]]).unwrap();
        assert_eq!(a.norm_max(), 3.0);
    }

    #[test]
    fn diag_builder() {
        let d = Matrix::diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = Matrix::identity(2);
        assert!(a.all_finite());
        a[(0, 1)] = f64::NAN;
        assert!(!a.all_finite());
    }

    #[test]
    fn display_renders_rows() {
        let a = Matrix::identity(2);
        let s = format!("{a}");
        assert_eq!(s.lines().count(), 2);
    }
}
