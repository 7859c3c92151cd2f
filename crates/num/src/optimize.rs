//! Bounded scalar maximization.
//!
//! Each content provider's best-response subsidy maximizes
//! `U_i(s_i; s_{-i})` over `s_i ∈ [0, q]` (Definition 3), and the ISP
//! maximizes revenue `R(p)` over a price interval (Section 5).
//! [`maximize_scalar`] handles both: a coarse grid scan localizes the global
//! maximum (utilities can have a boundary maximum or, for pathological
//! function families, several local ones), then golden-section + parabolic
//! (Brent) polishing refines it.
//!
//! Every routine reports function-evaluation counts for benchmarking.

use crate::error::{NumError, NumResult};
use crate::tol::Tolerance;

/// Result of a scalar maximization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalarMax {
    /// Argmax location.
    pub x: f64,
    /// Objective value at [`ScalarMax::x`].
    pub value: f64,
    /// Function evaluations spent.
    pub evaluations: usize,
}

/// Golden-section search for the maximum of a unimodal `f` on `[a, b]`.
///
/// Linear convergence with ratio `1/φ ≈ 0.618`; derivative-free; never
/// leaves the interval. Converges when the interval width meets `tol`.
pub fn golden_max<F: Fn(f64) -> f64 + ?Sized>(
    f: &F,
    a: f64,
    b: f64,
    tol: Tolerance,
) -> NumResult<ScalarMax> {
    if !(b >= a) {
        return Err(NumError::Domain { what: "golden_max requires b >= a", value: b - a });
    }
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let mut lo = a;
    let mut hi = b;
    let mut x1 = hi - INV_PHI * (hi - lo);
    let mut x2 = lo + INV_PHI * (hi - lo);
    let mut f1 = f(x1);
    let mut f2 = f(x2);
    let mut evals = 2;
    for _ in 0..tol.max_iter {
        if tol.is_met(hi - lo, 0.5 * (hi + lo)) {
            break;
        }
        if f1 < f2 {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + INV_PHI * (hi - lo);
            f2 = f(x2);
        } else {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - INV_PHI * (hi - lo);
            f1 = f(x1);
        }
        evals += 1;
    }
    let (x, value) = if f1 >= f2 { (x1, f1) } else { (x2, f2) };
    if !value.is_finite() {
        return Err(NumError::NonFinite { what: "golden_max objective", at: x });
    }
    Ok(ScalarMax { x, value, evaluations: evals })
}

/// Brent's parabolic-interpolation maximizer on `[a, b]`.
///
/// Superlinear on smooth unimodal objectives; falls back to golden-section
/// steps when the parabolic model misbehaves. This is the standard `fmin`
/// algorithm with the objective negated.
pub fn brent_max<F: Fn(f64) -> f64 + ?Sized>(
    f: &F,
    a: f64,
    b: f64,
    tol: Tolerance,
) -> NumResult<ScalarMax> {
    if !(b >= a) {
        return Err(NumError::Domain { what: "brent_max requires b >= a", value: b - a });
    }
    const CGOLD: f64 = 0.381_966_011_250_105_2;
    let neg = |x: f64| -f(x);
    let (mut lo, mut hi) = (a, b);
    let mut x = lo + CGOLD * (hi - lo);
    let mut w = x;
    let mut v = x;
    let mut fx = neg(x);
    let mut fw = fx;
    let mut fv = fx;
    let mut d: f64 = 0.0;
    let mut e: f64 = 0.0;
    let mut evals = 1;
    for _ in 0..tol.max_iter {
        let xm = 0.5 * (lo + hi);
        let tol1 = tol.threshold(x).max(1e-15);
        let tol2 = 2.0 * tol1;
        if (x - xm).abs() <= tol2 - 0.5 * (hi - lo) {
            return Ok(ScalarMax { x, value: -fx, evaluations: evals });
        }
        let mut use_golden = true;
        if e.abs() > tol1 {
            // Fit a parabola through (v, fv), (w, fw), (x, fx).
            let r = (x - w) * (fx - fv);
            let mut q = (x - v) * (fx - fw);
            let mut p = (x - v) * q - (x - w) * r;
            q = 2.0 * (q - r);
            if q > 0.0 {
                p = -p;
            }
            q = q.abs();
            let etemp = e;
            e = d;
            if p.abs() < (0.5 * q * etemp).abs() && p > q * (lo - x) && p < q * (hi - x) {
                d = p / q;
                let u = x + d;
                if u - lo < tol2 || hi - u < tol2 {
                    d = tol1 * (xm - x).signum();
                }
                use_golden = false;
            }
        }
        if use_golden {
            e = if x >= xm { lo - x } else { hi - x };
            d = CGOLD * e;
        }
        // The tol1-floor step may overshoot when x sits within tol1 of a
        // boundary; clamp so the iterate never leaves [a, b].
        let u = if d.abs() >= tol1 { x + d } else { x + tol1 * d.signum() }.clamp(a, b);
        let fu = neg(u);
        evals += 1;
        if fu <= fx {
            if u >= x {
                lo = x;
            } else {
                hi = x;
            }
            v = w;
            fv = fw;
            w = x;
            fw = fx;
            x = u;
            fx = fu;
        } else {
            if u < x {
                lo = u;
            } else {
                hi = u;
            }
            if fu <= fw || w == x {
                v = w;
                fv = fw;
                w = u;
                fw = fu;
            } else if fu <= fv || v == x || v == w {
                v = u;
                fv = fu;
            }
        }
    }
    Err(NumError::MaxIterations { max_iter: tol.max_iter, residual: hi - lo })
}

/// Evaluates `f` on `n + 1` equispaced points of `[a, b]` and returns the
/// best point together with the (clamped) bracketing cell around it.
pub fn grid_scan<F: Fn(f64) -> f64 + ?Sized>(
    f: &F,
    a: f64,
    b: f64,
    n: usize,
) -> NumResult<(ScalarMax, f64, f64)> {
    if !(b >= a) {
        return Err(NumError::Domain { what: "grid_scan requires b >= a", value: b - a });
    }
    let n = n.max(1);
    let h = (b - a) / n as f64;
    // Pin the endpoints exactly: a + h*n can land a few ULPs outside b.
    let point = |i: usize| if i == n { b } else { a + h * i as f64 };
    let mut best_i = 0usize;
    let mut best_v = f64::NEG_INFINITY;
    for i in 0..=n {
        let v = f(point(i));
        if v.is_finite() && v > best_v {
            best_v = v;
            best_i = i;
        }
    }
    if !best_v.is_finite() {
        return Err(NumError::NonFinite { what: "grid_scan objective", at: a });
    }
    let x = point(best_i);
    let lo = if best_i == 0 { a } else { point(best_i - 1) };
    let hi = if best_i == n { b } else { point(best_i + 1) };
    Ok((ScalarMax { x, value: best_v, evaluations: n + 1 }, lo, hi))
}

/// Global-ish scalar maximization on `[a, b]`: grid scan to localize, then
/// Brent polish inside the bracketing cell.
///
/// This is the routine used for best responses: utilities in the
/// subsidization game are typically unimodal in the own-subsidy, but corner
/// solutions at `0` and `q` are *expected* equilibria (Theorem 3), so
/// endpoints are always candidates: the scan evaluates `f` at both ends,
/// once each, and the returned maximum is never below its best grid value.
/// `evaluations` counts the calls made.
///
/// ```
/// use subcomp_num::optimize::maximize_scalar;
/// use subcomp_num::Tolerance;
/// let f = |x: f64| -(x - 0.3).powi(2);
/// let m = maximize_scalar(&f, 0.0, 1.0, 16, Tolerance::default()).unwrap();
/// assert!((m.x - 0.3).abs() < 1e-8);
/// ```
pub fn maximize_scalar<F: Fn(f64) -> f64 + ?Sized>(
    f: &F,
    a: f64,
    b: f64,
    grid: usize,
    tol: Tolerance,
) -> NumResult<ScalarMax> {
    if b == a {
        let v = f(a);
        if !v.is_finite() {
            return Err(NumError::NonFinite { what: "maximize_scalar objective", at: a });
        }
        return Ok(ScalarMax { x: a, value: v, evaluations: 1 });
    }
    let (coarse, lo, hi) = grid_scan(f, a, b, grid)?;
    let polished = brent_max(f, lo, hi, tol).or_else(|_| golden_max(f, lo, hi, tol))?;
    let best = if polished.value >= coarse.value { polished } else { coarse };
    Ok(ScalarMax {
        x: best.x,
        value: best.value,
        evaluations: coarse.evaluations + polished.evaluations,
    })
}

/// Multi-start scalar maximization: runs [`maximize_scalar`] on `starts`
/// equal subintervals of `[a, b]` and returns the best result. Used for the
/// ISP's revenue curve, which can be multi-peaked once equilibrium subsidy
/// responses kick in and out at policy bounds.
pub fn maximize_multistart<F: Fn(f64) -> f64 + ?Sized>(
    f: &F,
    a: f64,
    b: f64,
    starts: usize,
    grid: usize,
    tol: Tolerance,
) -> NumResult<ScalarMax> {
    let starts = starts.max(1);
    let h = (b - a) / starts as f64;
    let mut best: Option<ScalarMax> = None;
    let mut evals = 0;
    for k in 0..starts {
        let lo = a + h * k as f64;
        let hi = if k + 1 == starts { b } else { lo + h };
        let m = maximize_scalar(f, lo, hi, grid, tol)?;
        evals += m.evaluations;
        if best.map_or(true, |b| m.value > b.value) {
            best = Some(m);
        }
    }
    let mut best = best.expect("starts >= 1");
    best.evaluations = evals;
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_finds_parabola_peak() {
        let f = |x: f64| 3.0 - (x - 1.25).powi(2);
        let m = golden_max(&f, 0.0, 4.0, Tolerance::new(1e-10, 1e-10).with_max_iter(200)).unwrap();
        // Argmin accuracy from value comparisons is limited to ~sqrt(eps).
        assert!((m.x - 1.25).abs() < 1e-6);
        assert!((m.value - 3.0).abs() < 1e-12);
    }

    #[test]
    fn golden_boundary_maximum() {
        let f = |x: f64| x; // max at right endpoint
        let m = golden_max(&f, 0.0, 1.0, Tolerance::default()).unwrap();
        assert!(m.x > 1.0 - 1e-6);
    }

    #[test]
    fn golden_rejects_reversed_interval() {
        let f = |x: f64| x;
        assert!(matches!(
            golden_max(&f, 1.0, 0.0, Tolerance::default()),
            Err(NumError::Domain { .. })
        ));
    }

    #[test]
    fn brent_max_beats_golden_on_smooth() {
        let f = |x: f64| -(x - 0.7).powi(2) + (x * 0.1).sin();
        let tol = Tolerance::new(1e-11, 1e-11).with_max_iter(200);
        let bm = brent_max(&f, 0.0, 2.0, tol).unwrap();
        let gm = golden_max(&f, 0.0, 2.0, tol).unwrap();
        assert!((bm.value - gm.value).abs() < 1e-9);
        assert!(bm.evaluations <= gm.evaluations);
    }

    #[test]
    fn brent_max_flat_function() {
        let f = |_: f64| 2.0;
        let m = brent_max(&f, 0.0, 1.0, Tolerance::default()).unwrap();
        assert_eq!(m.value, 2.0);
    }

    #[test]
    fn grid_scan_locates_cell() {
        let f = |x: f64| -(x - 0.33).powi(2);
        let (best, lo, hi) = grid_scan(&f, 0.0, 1.0, 10).unwrap();
        assert!(lo <= 0.33 && 0.33 <= hi);
        assert!(best.value <= 0.0);
    }

    #[test]
    fn grid_scan_ignores_non_finite_cells() {
        let f = |x: f64| if x < 0.5 { f64::NAN } else { -(x - 0.75).powi(2) };
        let (best, _, _) = grid_scan(&f, 0.0, 1.0, 8).unwrap();
        assert!(best.x >= 0.5);
    }

    #[test]
    fn maximize_scalar_interior() {
        // U(s) = (v - s) e^{alpha s}: the paper's single-CP utility shape
        // (population response collapsed); argmax at v - 1/alpha.
        let (v, alpha) = (1.0, 4.0);
        let f = move |s: f64| (v - s) * (alpha * s).exp();
        let m = maximize_scalar(&f, 0.0, 2.0, 32, Tolerance::new(1e-12, 1e-12).with_max_iter(300))
            .unwrap();
        assert!((m.x - (v - 1.0 / alpha)).abs() < 1e-7, "x = {}", m.x);
    }

    #[test]
    fn maximize_scalar_corner_at_cap() {
        // Monotone increasing on the box: corner at b, as in Theorem 3's
        // s_i = q case.
        let f = |s: f64| s * 2.0 + 1.0;
        let m = maximize_scalar(&f, 0.0, 0.8, 16, Tolerance::default()).unwrap();
        assert_eq!(m.x, 0.8);
        assert!((m.value - 2.6).abs() < 1e-12);
    }

    #[test]
    fn maximize_scalar_corner_at_zero() {
        let f = |s: f64| -s;
        let m = maximize_scalar(&f, 0.0, 1.0, 16, Tolerance::default()).unwrap();
        assert_eq!(m.x, 0.0);
    }

    #[test]
    fn maximize_scalar_degenerate_interval() {
        let f = |s: f64| s + 1.0;
        let m = maximize_scalar(&f, 0.5, 0.5, 16, Tolerance::default()).unwrap();
        assert_eq!((m.x, m.value), (0.5, 1.5));
    }

    #[test]
    fn maximize_scalar_evaluates_each_endpoint_once() {
        use std::cell::Cell;
        let (calls, at_a, at_b) = (Cell::new(0usize), Cell::new(0usize), Cell::new(0usize));
        let f = |x: f64| {
            calls.set(calls.get() + 1);
            if x == 0.0 {
                at_a.set(at_a.get() + 1);
            }
            if x == 1.0 {
                at_b.set(at_b.get() + 1);
            }
            -(x - 0.3).powi(2)
        };
        let m = maximize_scalar(&f, 0.0, 1.0, 16, Tolerance::default()).unwrap();
        assert!((m.x - 0.3).abs() < 1e-8);
        assert_eq!((at_a.get(), at_b.get()), (1, 1));
        assert_eq!(m.evaluations, calls.get());
    }

    #[test]
    fn maximize_scalar_multimodal_picks_global() {
        // Two peaks; global at x ~ 2.2.
        let f = |x: f64| (-(x - 0.5).powi(2)).exp() + 1.5 * (-(x - 2.2).powi(2) * 4.0).exp();
        let m = maximize_scalar(&f, 0.0, 3.0, 64, Tolerance::default()).unwrap();
        assert!((m.x - 2.2).abs() < 0.05, "x = {}", m.x);
    }

    #[test]
    fn multistart_beats_single_on_spiky() {
        let f = |x: f64| {
            let spike = |c: f64, w: f64, h: f64| h * (-(x - c).powi(2) / w).exp();
            spike(0.1, 0.001, 1.0) + spike(1.9, 0.001, 2.0)
        };
        let m = maximize_multistart(&f, 0.0, 2.0, 8, 64, Tolerance::default()).unwrap();
        assert!((m.x - 1.9).abs() < 0.01, "x = {}", m.x);
        assert!((m.value - 2.0).abs() < 1e-6);
    }
}
