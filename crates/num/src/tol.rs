//! Convergence tolerances shared by every iterative solver.

use crate::{DEFAULT_ABS_TOL, DEFAULT_MAX_ITER, DEFAULT_REL_TOL};

/// Absolute/relative tolerance plus an iteration budget.
///
/// A solver is considered converged when the quantity it monitors (bracket
/// width, step size, residual — documented per solver) drops below
/// `abs + rel * scale`, where `scale` is the magnitude of the current
/// iterate. The iteration budget bounds work when convergence is impossible.
///
/// ```
/// use subcomp_num::Tolerance;
/// let tol = Tolerance::new(1e-9, 1e-9).with_max_iter(500);
/// assert!(tol.is_met(5e-10, 0.0));
/// assert!(!tol.is_met(1e-3, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Absolute tolerance; must be non-negative.
    pub abs: f64,
    /// Relative tolerance; must be non-negative.
    pub rel: f64,
    /// Iteration budget; must be at least 1.
    pub max_iter: usize,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance { abs: DEFAULT_ABS_TOL, rel: DEFAULT_REL_TOL, max_iter: DEFAULT_MAX_ITER }
    }
}

impl Tolerance {
    /// Creates a tolerance with the given absolute and relative parts and
    /// the default iteration budget. Negative inputs are clamped to zero.
    pub fn new(abs: f64, rel: f64) -> Self {
        Tolerance { abs: abs.max(0.0), rel: rel.max(0.0), max_iter: DEFAULT_MAX_ITER }
    }

    /// Returns a copy with the iteration budget replaced (minimum 1).
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter.max(1);
        self
    }

    /// The effective threshold at a given iterate magnitude.
    #[inline]
    pub fn threshold(&self, scale: f64) -> f64 {
        self.abs + self.rel * scale.abs()
    }

    /// Whether a monitored quantity `delta` meets the tolerance at `scale`.
    #[inline]
    pub fn is_met(&self, delta: f64, scale: f64) -> bool {
        delta.abs() <= self.threshold(scale)
    }

    /// A tight tolerance (1e-14 abs, 1e-13 rel) for substrate unit tests.
    pub fn tight() -> Self {
        Tolerance::new(1e-14, 1e-13).with_max_iter(500)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_crate_constants() {
        let t = Tolerance::default();
        assert_eq!(t.abs, DEFAULT_ABS_TOL);
        assert_eq!(t.rel, DEFAULT_REL_TOL);
        assert_eq!(t.max_iter, DEFAULT_MAX_ITER);
    }

    #[test]
    fn negative_inputs_clamped() {
        let t = Tolerance::new(-1.0, -2.0);
        assert_eq!(t.abs, 0.0);
        assert_eq!(t.rel, 0.0);
    }

    #[test]
    fn max_iter_at_least_one() {
        assert_eq!(Tolerance::default().with_max_iter(0).max_iter, 1);
    }

    #[test]
    fn threshold_scales_with_magnitude() {
        let t = Tolerance::new(1e-9, 1e-6);
        assert!((t.threshold(1000.0) - (1e-9 + 1e-3)).abs() < 1e-18);
        // scale sign is irrelevant
        assert_eq!(t.threshold(-1000.0), t.threshold(1000.0));
    }

    #[test]
    fn is_met_uses_absolute_delta() {
        let t = Tolerance::new(1e-3, 0.0);
        assert!(t.is_met(-5e-4, 123.0));
        assert!(!t.is_met(2e-3, 123.0));
    }

    #[test]
    fn builders_compose() {
        let t = Tolerance::new(1e-4, 1e-5).with_max_iter(7);
        assert_eq!((t.abs, t.rel, t.max_iter), (1e-4, 1e-5, 7));
    }

    #[test]
    fn presets() {
        assert!(Tolerance::tight().abs < Tolerance::default().abs);
    }
}
