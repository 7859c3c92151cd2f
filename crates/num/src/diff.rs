//! Numerical differentiation.
//!
//! Every closed-form derivative in the paper — the capacity/user effects of
//! Theorem 1, the price effect of Theorem 2, the marginal utilities behind
//! Theorem 3, the sensitivity matrices of Theorem 6, the marginal revenue of
//! Theorem 7 — is cross-validated in this repository against finite
//! differences from this module: central differences with a
//! magnitude-adaptive step.

use crate::error::{NumError, NumResult};

/// Chooses a central-difference step appropriate for the magnitude of `x`:
/// `h = cbrt(eps) * max(|x|, scale_floor)`, the standard trade-off between
/// truncation and rounding error for second-order schemes.
#[inline]
pub fn central_step(x: f64) -> f64 {
    const CBRT_EPS: f64 = 6.055_454_452_393_343e-6; // eps^(1/3)
    CBRT_EPS * x.abs().max(1.0)
}

/// First derivative by central difference, `O(h^2)` accurate.
pub fn derivative(f: &dyn Fn(f64) -> f64, x: f64) -> NumResult<f64> {
    derivative_with_step(f, x, central_step(x))
}

/// First derivative by central difference with an explicit step.
pub fn derivative_with_step(f: &dyn Fn(f64) -> f64, x: f64, h: f64) -> NumResult<f64> {
    if !(h > 0.0) {
        return Err(NumError::Domain { what: "derivative step must be positive", value: h });
    }
    let fp = f(x + h);
    let fm = f(x - h);
    let d = (fp - fm) / (2.0 * h);
    if d.is_finite() {
        Ok(d)
    } else {
        Err(NumError::NonFinite { what: "central difference", at: x })
    }
}

/// Second derivative by the symmetric three-point stencil.
pub fn second_derivative(f: &dyn Fn(f64) -> f64, x: f64) -> NumResult<f64> {
    // Optimal step for second derivatives is ~ eps^(1/4).
    let h = 1.22e-4 * x.abs().max(1.0);
    let d = (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h);
    if d.is_finite() {
        Ok(d)
    } else {
        Err(NumError::NonFinite { what: "second difference", at: x })
    }
}

/// Jacobian of a vector field `F: R^n -> R^m` by central differences.
///
/// `f` must write `F(x)` into its second argument (length `m`). Returns a
/// row-major `m × n` matrix as `Vec<Vec<f64>>` to avoid coupling this module
/// to the matrix type; callers convert as needed.
pub fn jacobian(f: &dyn Fn(&[f64], &mut [f64]), x: &[f64], m: usize) -> NumResult<Vec<Vec<f64>>> {
    let n = x.len();
    let mut xw = x.to_vec();
    let mut fp = vec![0.0; m];
    let mut fm = vec![0.0; m];
    let mut jac = vec![vec![0.0; n]; m];
    for j in 0..n {
        let h = central_step(x[j]);
        let orig = xw[j];
        xw[j] = orig + h;
        f(&xw, &mut fp);
        xw[j] = orig - h;
        f(&xw, &mut fm);
        xw[j] = orig;
        for i in 0..m {
            let d = (fp[i] - fm[i]) / (2.0 * h);
            if !d.is_finite() {
                return Err(NumError::NonFinite { what: "jacobian entry", at: x[j] });
            }
            jac[i][j] = d;
        }
    }
    Ok(jac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivative_of_exp() {
        let f = |x: f64| x.exp();
        let d = derivative(&f, 1.0).unwrap();
        assert!((d - 1f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn derivative_of_paper_demand_form() {
        // m(t) = e^{-alpha t}: m'(t) = -alpha e^{-alpha t} (Assumption 2 family).
        let alpha = 3.0;
        let f = move |t: f64| (-alpha * t).exp();
        let d = derivative(&f, 0.7).unwrap();
        assert!((d + alpha * (-alpha * 0.7f64).exp()).abs() < 1e-8);
    }

    #[test]
    fn second_derivative_of_quadratic() {
        let f = |x: f64| 3.0 * x * x + x + 7.0;
        let d2 = second_derivative(&f, -2.0).unwrap();
        assert!((d2 - 6.0).abs() < 1e-5, "d2 = {d2}");
    }

    #[test]
    fn jacobian_of_linear_map() {
        // F(x) = A x with A = [[1, 2], [3, 4], [5, 6]].
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = x[0] + 2.0 * x[1];
            out[1] = 3.0 * x[0] + 4.0 * x[1];
            out[2] = 5.0 * x[0] + 6.0 * x[1];
        };
        let j = jacobian(&f, &[0.3, -0.7], 3).unwrap();
        let expect = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]];
        for i in 0..3 {
            for k in 0..2 {
                assert!((j[i][k] - expect[i][k]).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn bad_step_rejected() {
        let f = |x: f64| x;
        assert!(derivative_with_step(&f, 0.0, 0.0).is_err());
        assert!(derivative_with_step(&f, 0.0, -1.0).is_err());
    }

    #[test]
    fn non_finite_detected() {
        let f = |x: f64| 1.0 / x;
        // Stencil straddles the pole at 0.
        assert!(derivative_with_step(&f, 0.0, 0.1).is_ok()); // (10 - -10)/0.2 finite
        let g = |x: f64| if x > 1.0 { f64::NAN } else { x };
        assert!(matches!(derivative_with_step(&g, 1.0, 0.5), Err(NumError::NonFinite { .. })));
    }
}
