//! Free functions on `&[f64]` vectors.
//!
//! Best-response iterations and equilibrium verification work on plain
//! slices of subsidies; these helpers keep that code free of ad-hoc loops.

/// Dot product. Panics on length mismatch (programming error, not input).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub fn norm_l2(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Sum of absolute values.
pub fn norm_l1(a: &[f64]) -> f64 {
    a.iter().map(|x| x.abs()).sum()
}

/// Maximum absolute value (sup norm); zero for the empty vector.
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

/// Sup-norm distance between two equal-length vectors.
pub fn sub_inf_norm(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sub_inf_norm: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0f64, f64::max)
}

/// In-place `y ← y + alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Clamped copy `dst ← clamp(src, lo, hi_i)` — an allocation-free
/// combination of copy and box projection. Panics on length mismatch.
pub fn copy_clamped(src: &[f64], lo: f64, hi: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "copy_clamped: length mismatch");
    assert_eq!(src.len(), hi.len(), "copy_clamped: length mismatch");
    for i in 0..src.len() {
        dst[i] = src[i].clamp(lo, hi[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_orthogonal() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn norms_345() {
        assert_eq!(norm_l2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm_l1(&[3.0, -4.0]), 7.0);
        assert_eq!(norm_inf(&[3.0, -4.0]), 4.0);
    }

    #[test]
    fn norms_empty() {
        assert_eq!(norm_l2(&[]), 0.0);
        assert_eq!(norm_l1(&[]), 0.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn sup_distance() {
        assert_eq!(sub_inf_norm(&[1.0, 2.0], &[1.5, 1.0]), 1.0);
        assert_eq!(sub_inf_norm(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn copy_clamped_copies_and_projects() {
        let mut dst = vec![0.0; 3];
        copy_clamped(&[-1.0, 0.3, 9.0], 0.0, &[1.0, 1.0, 0.5], &mut dst);
        assert_eq!(dst, vec![0.0, 0.3, 0.5]);
    }
}
