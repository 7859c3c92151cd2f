//! Interpolation of tabulated curves.
//!
//! The flow-level simulator measures per-user throughput at discrete
//! utilization levels; to compare against the analytic `λ(φ)` families (and
//! to feed measured curves *back* into the model as a custom
//! `ThroughputFn`), we interpolate. Monotone (Fritsch–Carlson) cubic
//! interpolation preserves the monotonicity that Assumption 1 demands, which
//! plain cubic splines would not.

use crate::error::{NumError, NumResult};

/// Piecewise-linear interpolant over strictly increasing knots.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearInterp {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl LinearInterp {
    /// Builds the interpolant; `xs` must be strictly increasing and at
    /// least two points are required.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> NumResult<Self> {
        validate_knots(&xs, &ys)?;
        Ok(LinearInterp { xs, ys })
    }

    /// Evaluates with constant extrapolation beyond the knot range.
    ///
    /// Non-finite queries are rejected with [`NumError::NonFinite`] (a NaN
    /// would otherwise defeat the ordered binary search).
    pub fn eval(&self, x: f64) -> NumResult<f64> {
        validate_query(x)?;
        let n = self.xs.len();
        if x <= self.xs[0] {
            return Ok(self.ys[0]);
        }
        if x >= self.xs[n - 1] {
            return Ok(self.ys[n - 1]);
        }
        let k = upper_index(&self.xs, x);
        let (x0, x1) = (self.xs[k - 1], self.xs[k]);
        let (y0, y1) = (self.ys[k - 1], self.ys[k]);
        Ok(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
    }

    /// Knot range `[min, max]`.
    pub fn range(&self) -> (f64, f64) {
        (self.xs[0], *self.xs.last().unwrap())
    }
}

/// Monotone cubic Hermite interpolant (Fritsch–Carlson limiter).
///
/// If the data are monotone, the interpolant is monotone — no spline
/// overshoot. Evaluation is C¹.
#[derive(Debug, Clone, PartialEq)]
pub struct MonotoneCubic {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Endpoint-slope-adjusted tangents at each knot.
    tangents: Vec<f64>,
}

impl MonotoneCubic {
    /// Builds the interpolant; `xs` must be strictly increasing with at
    /// least two points.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> NumResult<Self> {
        validate_knots(&xs, &ys)?;
        let n = xs.len();
        let mut d = vec![0.0; n - 1]; // secant slopes
        for k in 0..n - 1 {
            d[k] = (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k]);
        }
        let mut m = vec![0.0; n];
        m[0] = d[0];
        m[n - 1] = d[n - 2];
        for k in 1..n - 1 {
            m[k] = if d[k - 1] * d[k] <= 0.0 { 0.0 } else { 0.5 * (d[k - 1] + d[k]) };
        }
        // Fritsch–Carlson limiting to guarantee monotonicity.
        for k in 0..n - 1 {
            if d[k] == 0.0 {
                m[k] = 0.0;
                m[k + 1] = 0.0;
            } else {
                let a = m[k] / d[k];
                let b = m[k + 1] / d[k];
                let s = a * a + b * b;
                if s > 9.0 {
                    let tau = 3.0 / s.sqrt();
                    m[k] = tau * a * d[k];
                    m[k + 1] = tau * b * d[k];
                }
            }
        }
        Ok(MonotoneCubic { xs, ys, tangents: m })
    }

    /// Evaluates with constant extrapolation beyond the knot range.
    ///
    /// Non-finite queries are rejected with [`NumError::NonFinite`].
    pub fn eval(&self, x: f64) -> NumResult<f64> {
        validate_query(x)?;
        let n = self.xs.len();
        if x <= self.xs[0] {
            return Ok(self.ys[0]);
        }
        if x >= self.xs[n - 1] {
            return Ok(self.ys[n - 1]);
        }
        let k = upper_index(&self.xs, x) - 1;
        let h = self.xs[k + 1] - self.xs[k];
        let t = (x - self.xs[k]) / h;
        let (t2, t3) = (t * t, t * t * t);
        let h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
        let h10 = t3 - 2.0 * t2 + t;
        let h01 = -2.0 * t3 + 3.0 * t2;
        let h11 = t3 - t2;
        Ok(h00 * self.ys[k]
            + h10 * h * self.tangents[k]
            + h01 * self.ys[k + 1]
            + h11 * h * self.tangents[k + 1])
    }

    /// Derivative of the interpolant (C⁰).
    ///
    /// Non-finite queries are rejected with [`NumError::NonFinite`].
    pub fn derivative(&self, x: f64) -> NumResult<f64> {
        validate_query(x)?;
        let n = self.xs.len();
        if x <= self.xs[0] {
            return Ok(self.tangents[0]);
        }
        if x >= self.xs[n - 1] {
            return Ok(self.tangents[n - 1]);
        }
        let k = upper_index(&self.xs, x) - 1;
        let h = self.xs[k + 1] - self.xs[k];
        let t = (x - self.xs[k]) / h;
        let t2 = t * t;
        let dh00 = (6.0 * t2 - 6.0 * t) / h;
        let dh10 = 3.0 * t2 - 4.0 * t + 1.0;
        let dh01 = (-6.0 * t2 + 6.0 * t) / h;
        let dh11 = 3.0 * t2 - 2.0 * t;
        Ok(dh00 * self.ys[k]
            + dh10 * self.tangents[k]
            + dh01 * self.ys[k + 1]
            + dh11 * self.tangents[k + 1])
    }

    /// Second derivative of the interpolant: linear on each segment and
    /// discontinuous at interior knots, where the segment to the right is
    /// used (the last segment at the last knot), as in
    /// [`MonotoneCubic::derivative`]. Zero beyond the knot range, where
    /// the derivative is extrapolated as a constant.
    ///
    /// Non-finite queries are rejected with [`NumError::NonFinite`].
    pub fn second_derivative(&self, x: f64) -> NumResult<f64> {
        validate_query(x)?;
        let n = self.xs.len();
        if x < self.xs[0] || x > self.xs[n - 1] {
            return Ok(0.0);
        }
        let k = (upper_index(&self.xs, x) - 1).min(n - 2);
        let h = self.xs[k + 1] - self.xs[k];
        let t = (x - self.xs[k]) / h;
        let d2h00 = (12.0 * t - 6.0) / (h * h);
        let d2h10 = (6.0 * t - 4.0) / h;
        let d2h11 = (6.0 * t - 2.0) / h;
        Ok(d2h00 * (self.ys[k] - self.ys[k + 1])
            + d2h10 * self.tangents[k]
            + d2h11 * self.tangents[k + 1])
    }
}

/// Rejects NaN/infinite query points before they reach `upper_index`,
/// whose ordered binary search would panic on an incomparable value.
fn validate_query(x: f64) -> NumResult<()> {
    if !x.is_finite() {
        return Err(NumError::NonFinite { what: "interpolation query", at: x });
    }
    Ok(())
}

fn validate_knots(xs: &[f64], ys: &[f64]) -> NumResult<()> {
    if xs.len() < 2 {
        return Err(NumError::Empty { what: "interpolation needs >= 2 knots" });
    }
    if xs.len() != ys.len() {
        return Err(NumError::DimensionMismatch { expected: xs.len(), actual: ys.len() });
    }
    for w in xs.windows(2) {
        if !(w[1] > w[0]) {
            return Err(NumError::Domain {
                what: "knots must be strictly increasing",
                value: w[1] - w[0],
            });
        }
    }
    if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
        return Err(NumError::NonFinite { what: "interpolation knots", at: 0.0 });
    }
    Ok(())
}

/// Smallest index `k` with `xs[k] > x` (xs strictly increasing, x interior).
fn upper_index(xs: &[f64], x: f64) -> usize {
    match xs.binary_search_by(|v| v.partial_cmp(&x).unwrap()) {
        Ok(k) => k + 1,
        Err(k) => k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_exact_on_line() {
        let li = LinearInterp::new(vec![0.0, 1.0, 2.0], vec![1.0, 3.0, 5.0]).unwrap();
        assert_eq!(li.eval(0.5).unwrap(), 2.0);
        assert_eq!(li.eval(1.5).unwrap(), 4.0);
        assert_eq!(li.eval(1.0).unwrap(), 3.0);
    }

    #[test]
    fn linear_constant_extrapolation() {
        let li = LinearInterp::new(vec![0.0, 1.0], vec![2.0, 4.0]).unwrap();
        assert_eq!(li.eval(-5.0).unwrap(), 2.0);
        assert_eq!(li.eval(9.0).unwrap(), 4.0);
        assert_eq!(li.range(), (0.0, 1.0));
    }

    #[test]
    fn knot_validation() {
        assert!(LinearInterp::new(vec![0.0], vec![1.0]).is_err());
        assert!(LinearInterp::new(vec![0.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(LinearInterp::new(vec![0.0, 1.0], vec![1.0]).is_err());
        assert!(LinearInterp::new(vec![0.0, f64::NAN], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn monotone_cubic_interpolates_knots() {
        let xs = vec![0.0, 0.5, 1.0, 2.0];
        let ys = vec![1.0, 0.6, 0.35, 0.1];
        let mc = MonotoneCubic::new(xs.clone(), ys.clone()).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            assert!((mc.eval(*x).unwrap() - y).abs() < 1e-14);
        }
    }

    #[test]
    fn monotone_cubic_preserves_monotonicity() {
        // Sampled e^{-2 phi}: the interpolant must be decreasing everywhere,
        // as Assumption 1 requires of a throughput function.
        let xs: Vec<f64> = (0..=10).map(|i| i as f64 * 0.3).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (-2.0 * x).exp()).collect();
        let mc = MonotoneCubic::new(xs, ys).unwrap();
        let mut prev = mc.eval(0.0).unwrap();
        let mut x = 0.01;
        while x < 3.0 {
            let y = mc.eval(x).unwrap();
            assert!(y <= prev + 1e-12, "not monotone at {x}: {y} > {prev}");
            prev = y;
            x += 0.01;
        }
    }

    #[test]
    fn monotone_cubic_close_to_smooth_truth() {
        let xs: Vec<f64> = (0..=20).map(|i| i as f64 * 0.15).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (-x).exp()).collect();
        let mc = MonotoneCubic::new(xs, ys).unwrap();
        // Hermite with secant-averaged tangents is O(h^3): at h = 0.15 a few
        // 1e-3 of absolute error is the expected accuracy class.
        for i in 0..100 {
            let x = i as f64 * 0.029;
            assert!((mc.eval(x).unwrap() - (-x).exp()).abs() < 3e-3);
        }
    }

    #[test]
    fn monotone_cubic_derivative_sign() {
        let xs: Vec<f64> = (0..=10).map(|i| i as f64 * 0.2).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (-3.0 * x).exp()).collect();
        let mc = MonotoneCubic::new(xs, ys).unwrap();
        for i in 1..19 {
            let x = i as f64 * 0.1;
            assert!(mc.derivative(x).unwrap() <= 1e-12, "derivative positive at {x}");
        }
    }

    #[test]
    fn non_finite_query_is_an_error_not_a_panic() {
        // Regression: a NaN query used to reach `upper_index` and panic in
        // `partial_cmp(..).unwrap()`; it must surface as `NonFinite`.
        let li = LinearInterp::new(vec![0.0, 1.0, 2.0], vec![1.0, 3.0, 5.0]).unwrap();
        let mc = MonotoneCubic::new(vec![0.0, 1.0, 2.0], vec![1.0, 0.5, 0.2]).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                li.eval(bad),
                Err(NumError::NonFinite { what: "interpolation query", .. })
            ));
            assert!(matches!(
                mc.eval(bad),
                Err(NumError::NonFinite { what: "interpolation query", .. })
            ));
            assert!(matches!(
                mc.derivative(bad),
                Err(NumError::NonFinite { what: "interpolation query", .. })
            ));
        }
        // Finite queries are untouched by the screen.
        assert_eq!(li.eval(0.5).unwrap(), 2.0);
    }

    #[test]
    fn monotone_cubic_second_derivative_matches_difference_of_derivative() {
        let xs: Vec<f64> = (0..=10).map(|i| i as f64 * 0.2).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (-3.0 * x).exp()).collect();
        let mc = MonotoneCubic::new(xs, ys).unwrap();
        // Off the knots the derivative is smooth, so a central difference
        // of it pins the closed form.
        for i in 0..40 {
            let x = 0.013 + i as f64 * 0.049;
            let h = 1e-6;
            let fd = (mc.derivative(x + h).unwrap() - mc.derivative(x - h).unwrap()) / (2.0 * h);
            let an = mc.second_derivative(x).unwrap();
            assert!((an - fd).abs() < 1e-6 * (1.0 + fd.abs()), "x {x}: {an} vs {fd}");
        }
        assert_eq!(mc.second_derivative(-1.0).unwrap(), 0.0);
        assert_eq!(mc.second_derivative(3.0).unwrap(), 0.0);
        assert!(mc.second_derivative(2.0).unwrap().is_finite(), "last knot uses the last segment");
        assert!(mc.second_derivative(f64::NAN).is_err());
    }

    #[test]
    fn monotone_cubic_flat_segment() {
        let mc = MonotoneCubic::new(vec![0.0, 1.0, 2.0], vec![1.0, 1.0, 0.5]).unwrap();
        assert!((mc.eval(0.5).unwrap() - 1.0).abs() < 1e-14);
    }
}
