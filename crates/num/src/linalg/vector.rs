//! Free functions on `&[f64]` vectors.
//!
//! Best-response iterations and equilibrium verification work on plain
//! slices of subsidies; these helpers keep that code free of ad-hoc loops.

/// Sup-norm distance between two equal-length vectors.
pub fn sub_inf_norm(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sub_inf_norm: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0f64, f64::max)
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
    fn sup_distance() {
        assert_eq!(sub_inf_norm(&[1.0, 2.0], &[1.5, 1.0]), 1.0);
        assert_eq!(sub_inf_norm(&[], &[]), 0.0);
    }

    #[test]
    fn copy_clamped_copies_and_projects() {
        let mut dst = vec![0.0; 3];
        copy_clamped(&[-1.0, 0.3, 9.0], 0.0, &[1.0, 1.0, 0.5], &mut dst);
        assert_eq!(dst, vec![0.0, 0.3, 0.5]);
    }
}
