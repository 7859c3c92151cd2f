//! Matrix structure tests backing the paper's equilibrium theory.
//!
//! * **P-matrix** (all principal minors positive): Theorem 4's uniqueness
//!   condition makes `-u` a *P-function* (Moré–Rheinboldt), whose Jacobian
//!   at any point is a P-matrix; Theorem 6 relies on `∇_s̃(-ũ)` being a
//!   P-matrix (hence nonsingular).
//! * **Z-matrix** (non-positive off-diagonal) and **M-matrix** (Z + P):
//!   Corollary 1's "off-diagonally monotone" condition turns `∇(-ũ)` into a
//!   Leontief/M-matrix, whose inverse is entrywise non-negative — exactly
//!   the step that yields `∂s/∂q ≥ 0`.
//! * **Hawkins–Simon**: for a Z-matrix, positivity of the *leading*
//!   principal minors is already equivalent to the M-matrix property, which
//!   gives a cheap `O(n^3)` certificate used on larger random markets.
//!
//! `is_p_matrix` enumerates all `2^n - 1` principal minors and is intended
//! for `n ≲ 20` — more than enough for provider-type markets (8–9 in the
//! paper).

use super::lu::LuDecomposition;
use super::matrix::Matrix;
use crate::error::{NumError, NumResult};

/// Computes the determinant of the principal submatrix indexed by `idx`.
fn principal_minor(a: &Matrix, idx: &[usize]) -> NumResult<f64> {
    let sub = a.submatrix(idx)?;
    match LuDecomposition::new(&sub) {
        Ok(lu) => Ok(lu.determinant()),
        // A singular principal submatrix has determinant (numerically) zero.
        Err(NumError::SingularMatrix { .. }) => Ok(0.0),
        Err(e) => Err(e),
    }
}

/// Returns the `n` leading principal minors `det A[0..k, 0..k]`, `k = 1..=n`.
pub fn leading_principal_minors(a: &Matrix) -> NumResult<Vec<f64>> {
    if !a.is_square() {
        return Err(NumError::DimensionMismatch { expected: a.rows(), actual: a.cols() });
    }
    let n = a.rows();
    let mut minors = Vec::with_capacity(n);
    let mut idx: Vec<usize> = Vec::with_capacity(n);
    for k in 0..n {
        idx.push(k);
        minors.push(principal_minor(a, &idx)?);
    }
    Ok(minors)
}

/// Tests whether `a` is a P-matrix: every principal minor is strictly
/// positive (tolerance `tol` guards the strictness numerically).
///
/// Exponential in `n` (all index subsets); fine for the market sizes here.
pub fn is_p_matrix(a: &Matrix, tol: f64) -> NumResult<bool> {
    if !a.is_square() {
        return Err(NumError::DimensionMismatch { expected: a.rows(), actual: a.cols() });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(true);
    }
    if n > 24 {
        return Err(NumError::Domain {
            what: "is_p_matrix: exhaustive minor enumeration limited to n <= 24",
            value: n as f64,
        });
    }
    let mut idx = Vec::with_capacity(n);
    for mask in 1u64..(1u64 << n) {
        idx.clear();
        for i in 0..n {
            if mask & (1 << i) != 0 {
                idx.push(i);
            }
        }
        if principal_minor(a, &idx)? <= tol {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Tests whether `a` is a Z-matrix: all off-diagonal entries `≤ tol`.
pub fn is_z_matrix(a: &Matrix, tol: f64) -> bool {
    if !a.is_square() {
        return false;
    }
    let n = a.rows();
    for i in 0..n {
        for j in 0..n {
            if i != j && a[(i, j)] > tol {
                return false;
            }
        }
    }
    true
}

/// Tests whether `a` is a (non-singular) M-matrix.
///
/// Uses the Hawkins–Simon criterion: a Z-matrix is an M-matrix iff its
/// leading principal minors are all strictly positive. Cost `O(n^4)` naive,
/// which is ample here.
pub fn is_m_matrix(a: &Matrix, tol: f64) -> NumResult<bool> {
    if !is_z_matrix(a, tol) {
        return Ok(false);
    }
    Ok(leading_principal_minors(a)?.iter().all(|&m| m > tol))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_p_and_m() {
        let i = Matrix::identity(4);
        assert!(is_p_matrix(&i, 1e-12).unwrap());
        assert!(is_m_matrix(&i, 1e-12).unwrap());
        assert!(is_z_matrix(&i, 1e-12));
    }

    #[test]
    fn leading_minors_known() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let m = leading_principal_minors(&a).unwrap();
        assert_eq!(m.len(), 2);
        assert!((m[0] - 2.0).abs() < 1e-14);
        assert!((m[1] - 3.0).abs() < 1e-13);
    }

    #[test]
    fn p_matrix_positive_definite_example() {
        // Symmetric positive definite => P-matrix.
        let a =
            Matrix::from_rows(&[&[4.0, -1.0, 0.0], &[-1.0, 4.0, -1.0], &[0.0, -1.0, 4.0]]).unwrap();
        assert!(is_p_matrix(&a, 1e-12).unwrap());
    }

    #[test]
    fn p_matrix_rejects_negative_minor() {
        // Negative diagonal entry => 1x1 principal minor negative.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -1.0]]).unwrap();
        assert!(!is_p_matrix(&a, 1e-12).unwrap());
    }

    #[test]
    fn p_matrix_rejects_hidden_negative_minor() {
        // Positive diagonal but 2x2 minor negative: [[1, 3], [3, 1]].
        let a = Matrix::from_rows(&[&[1.0, 3.0], &[3.0, 1.0]]).unwrap();
        assert!(!is_p_matrix(&a, 1e-12).unwrap());
    }

    #[test]
    fn z_matrix_detection() {
        let a = Matrix::from_rows(&[&[2.0, -1.0], &[-0.5, 3.0]]).unwrap();
        assert!(is_z_matrix(&a, 1e-12));
        let b = Matrix::from_rows(&[&[2.0, 0.1], &[-0.5, 3.0]]).unwrap();
        assert!(!is_z_matrix(&b, 1e-12));
    }

    #[test]
    fn m_matrix_leontief_example() {
        // Classic Leontief I - A with spectral radius(A) < 1.
        let a = Matrix::from_rows(&[&[1.0, -0.3], &[-0.4, 1.0]]).unwrap();
        assert!(is_m_matrix(&a, 1e-12).unwrap());
        // Its inverse must be entrywise non-negative.
        let inv = super::super::lu::inverse(&a).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!(inv[(i, j)] >= 0.0);
            }
        }
    }

    #[test]
    fn m_matrix_rejects_unstable_leontief() {
        // Off-diagonal mass too large: loses the Hawkins-Simon condition.
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[-2.0, 1.0]]).unwrap();
        assert!(!is_m_matrix(&a, 1e-12).unwrap());
    }

    #[test]
    fn empty_matrix_trivially_p() {
        let a = Matrix::zeros(0, 0);
        assert!(is_p_matrix(&a, 1e-12).unwrap());
    }

    #[test]
    fn p_matrix_size_guard() {
        let a = Matrix::identity(30);
        assert!(matches!(is_p_matrix(&a, 1e-12), Err(NumError::Domain { .. })));
    }
}
