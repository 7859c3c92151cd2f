//! Scalar root finding.
//!
//! The congestion equilibrium of the paper (Definition 1) is the unique zero
//! of the strictly increasing *gap function*
//! `g(φ) = Θ(φ, µ) − Σ_k m_k λ_k(φ)` (Lemma 1). The model layer solves it by
//! [`newton`], safeguarded by the bracket `[0, Φ(peak, µ)]` and seeded at the
//! previous probe's root, since the gap and its slope (Equation 2) come from
//! one `e^{−βφ}` table. [`solve_increasing`] (bracket expansion by
//! [`expand_upward`], then [`brent`]) needs no slope and no upper end; it is
//! the oracle the Newton solve is tested against. [`bisection`] is the
//! reference [`brent`] is tested against.
//!
//! All methods return a [`RootResult`] with the root, the residual actually
//! achieved and the number of function evaluations, so callers can assert on
//! solver health rather than trusting convergence blindly.

use crate::error::{NumError, NumResult};
use crate::tol::Tolerance;

/// An interval `[a, b]` expected to bracket a sign change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bracket {
    /// Left endpoint.
    pub a: f64,
    /// Right endpoint.
    pub b: f64,
}

impl Bracket {
    /// Creates a bracket, swapping endpoints if given in reverse order.
    pub fn new(a: f64, b: f64) -> Self {
        if a <= b {
            Bracket { a, b }
        } else {
            Bracket { a: b, b: a }
        }
    }
}

/// Outcome of a scalar root solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RootResult {
    /// Location of the root.
    pub x: f64,
    /// `f(x)` at the returned root.
    pub residual: f64,
    /// Number of function evaluations spent.
    pub evaluations: usize,
    /// Number of iterations of the outer loop.
    pub iterations: usize,
}

fn check_finite(what: &'static str, at: f64, v: f64) -> NumResult<f64> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(NumError::NonFinite { what, at })
    }
}

/// Expands `[lo, hi]` upward (geometrically) until `f` changes sign.
///
/// Intended for *increasing* functions that start negative — exactly the gap
/// function `g(φ)` of Lemma 1, which satisfies `g(0) < 0` whenever any
/// provider has users. Returns a valid [`Bracket`]. `hi` must exceed `lo`.
///
/// ```
/// use subcomp_num::roots::expand_upward;
/// let f = |x: f64| x - 100.0;
/// let br = expand_upward(&f, 0.0, 1.0, 64).unwrap();
/// assert!(br.a < 100.0 && br.b >= 100.0);
/// ```
pub fn expand_upward<F: Fn(f64) -> f64 + ?Sized>(
    f: &F,
    lo: f64,
    hi: f64,
    max_doublings: usize,
) -> NumResult<Bracket> {
    if !(hi > lo) {
        return Err(NumError::Domain { what: "expand_upward requires hi > lo", value: hi - lo });
    }
    let flo = check_finite("expand_upward f(lo)", lo, f(lo))?;
    if flo == 0.0 {
        return Ok(Bracket::new(lo, lo));
    }
    if flo > 0.0 {
        return Err(NumError::NoBracket { a: lo, b: hi, fa: flo, fb: flo });
    }
    let mut a = lo;
    let mut b = hi;
    let mut fb = check_finite("expand_upward f(hi)", b, f(b))?;
    let mut step = hi - lo;
    for _ in 0..max_doublings {
        if fb >= 0.0 {
            return Ok(Bracket::new(a, b));
        }
        a = b;
        step *= 2.0;
        b += step;
        fb = check_finite("expand_upward f", b, f(b))?;
    }
    Err(NumError::NoBracket { a: lo, b, fa: flo, fb })
}

/// Classic bisection. Robust and derivative-free; linear convergence.
///
/// Converges when the bracket width meets `tol` (monitored at the midpoint
/// magnitude) or an endpoint evaluates exactly to zero.
pub fn bisection<F: Fn(f64) -> f64 + ?Sized>(
    f: &F,
    bracket: Bracket,
    tol: Tolerance,
) -> NumResult<RootResult> {
    let Bracket { mut a, mut b } = bracket;
    let mut fa = check_finite("bisection f(a)", a, f(a))?;
    let fb = check_finite("bisection f(b)", b, f(b))?;
    let mut evals = 2;
    if fa == 0.0 {
        return Ok(RootResult { x: a, residual: 0.0, evaluations: evals, iterations: 0 });
    }
    if fb == 0.0 {
        return Ok(RootResult { x: b, residual: 0.0, evaluations: evals, iterations: 0 });
    }
    if fa * fb > 0.0 {
        return Err(NumError::NoBracket { a, b, fa, fb });
    }
    for iter in 0..tol.max_iter {
        let mid = 0.5 * (a + b);
        let fmid = check_finite("bisection f(mid)", mid, f(mid))?;
        evals += 1;
        if fmid == 0.0 || tol.is_met(b - a, mid) {
            return Ok(RootResult {
                x: mid,
                residual: fmid,
                evaluations: evals,
                iterations: iter + 1,
            });
        }
        if fa * fmid < 0.0 {
            b = mid;
        } else {
            a = mid;
            fa = fmid;
        }
    }
    Err(NumError::MaxIterations { max_iter: tol.max_iter, residual: b - a })
}

/// Brent's method: inverse quadratic interpolation + secant + bisection.
///
/// The workhorse root finder of the workspace: superlinear on smooth
/// functions, never worse than bisection. Implementation follows Brent
/// (1973) as presented in *Numerical Recipes*, with the tolerance adapted to
/// [`Tolerance`] semantics.
pub fn brent<F: Fn(f64) -> f64 + ?Sized>(
    f: &F,
    bracket: Bracket,
    tol: Tolerance,
) -> NumResult<RootResult> {
    let fa = check_finite("brent f(a)", bracket.a, f(bracket.a))?;
    let fb = check_finite("brent f(b)", bracket.b, f(bracket.b))?;
    let mut result = brent_seeded(&mut |x| f(x), bracket, fa, fb, tol)?;
    result.evaluations += 2;
    Ok(result)
}

/// [`brent`] with the endpoint values `f(a)`, `f(b)` supplied by the
/// caller — the hot-path variant for a caller that has already evaluated
/// both ends (the best-response threshold search). The iterate sequence
/// (and hence the root) is bit-identical to [`brent`]; only the duplicate
/// endpoint evaluations are skipped, so `evaluations` counts the polish
/// evaluations alone.
pub fn brent_seeded<F: FnMut(f64) -> f64 + ?Sized>(
    f: &mut F,
    bracket: Bracket,
    fa: f64,
    fb: f64,
    tol: Tolerance,
) -> NumResult<RootResult> {
    let Bracket { mut a, mut b } = bracket;
    let mut fa = check_finite("brent f(a)", a, fa)?;
    let mut fb = check_finite("brent f(b)", b, fb)?;
    let mut evals = 0;
    if fa == 0.0 {
        return Ok(RootResult { x: a, residual: 0.0, evaluations: evals, iterations: 0 });
    }
    if fb == 0.0 {
        return Ok(RootResult { x: b, residual: 0.0, evaluations: evals, iterations: 0 });
    }
    if fa * fb > 0.0 {
        return Err(NumError::NoBracket { a, b, fa, fb });
    }
    // c is the previous iterate; ensure |f(b)| <= |f(a)| throughout.
    let (mut c, mut fc) = (a, fa);
    let mut d = b - a;
    let mut e = d;
    for iter in 0..tol.max_iter {
        if fb.abs() > fc.abs() {
            a = b;
            b = c;
            c = a;
            fa = fb;
            fb = fc;
            fc = fa;
        }
        let tol1 = 0.5 * tol.threshold(b).max(f64::EPSILON * b.abs() * 2.0);
        let xm = 0.5 * (c - b);
        if xm.abs() <= tol1 || fb == 0.0 {
            return Ok(RootResult { x: b, residual: fb, evaluations: evals, iterations: iter });
        }
        if e.abs() >= tol1 && fa.abs() > fb.abs() {
            // Attempt inverse quadratic interpolation (secant if a == c).
            let s = fb / fa;
            let (mut p, mut q) = if a == c {
                (2.0 * xm * s, 1.0 - s)
            } else {
                let q0 = fa / fc;
                let r = fb / fc;
                (
                    s * (2.0 * xm * q0 * (q0 - r) - (b - a) * (r - 1.0)),
                    (q0 - 1.0) * (r - 1.0) * (s - 1.0),
                )
            };
            if p > 0.0 {
                q = -q;
            }
            p = p.abs();
            let min1 = 3.0 * xm * q.abs() - (tol1 * q).abs();
            let min2 = (e * q).abs();
            if 2.0 * p < min1.min(min2) {
                e = d;
                d = p / q;
            } else {
                d = xm;
                e = d;
            }
        } else {
            d = xm;
            e = d;
        }
        a = b;
        fa = fb;
        b += if d.abs() > tol1 { d } else { tol1 * xm.signum() };
        fb = check_finite("brent f", b, f(b))?;
        evals += 1;
        if (fb > 0.0) == (fc > 0.0) {
            c = a;
            fc = fa;
            d = b - a;
            e = d;
        }
    }
    Err(NumError::MaxIterations { max_iter: tol.max_iter, residual: fb })
}

/// Newton's method, safeguarded by an optional bracket.
///
/// `f` returns `(f(x), f'(x))` from one call, so a caller can share the
/// work of both. Each iterate first tests the Newton step for convergence:
/// when `|f/f'|` meets `tol` the stepped point is returned (clamped into the
/// bracket), even from an iterate on the bracket's end whose step rounds to
/// nothing. Otherwise a step inside the bracket is taken, and one that is
/// non-finite or leaves the bracket is replaced by a safeguard step:
/// bisection of the bracket, or, when one end is infinite, a step doubling
/// away from the finite end. A slope that is zero or non-finite always
/// takes the safeguard step, so an infinite slope cannot fake a zero step.
/// A bracket whose width meets `tol` also ends the search. With a bracket,
/// `f` is assumed increasing: the sign of `f` at each iterate moves one
/// end. `residual` is `f` at the last evaluated iterate, one step behind
/// the returned `x`: the accepted step costs no extra evaluation.
pub fn newton<F: FnMut(f64) -> (f64, f64) + ?Sized>(
    f: &mut F,
    x0: f64,
    bracket: Option<Bracket>,
    tol: Tolerance,
) -> NumResult<RootResult> {
    let (mut lo, mut hi) = match bracket {
        Some(br) => (br.a, br.b),
        None => (f64::NEG_INFINITY, f64::INFINITY),
    };
    if x0.is_nan() || lo.is_nan() || hi.is_nan() {
        return Err(NumError::Domain {
            what: "newton start and bracket must not be NaN",
            value: x0,
        });
    }
    let mut x = x0.clamp(lo, hi);
    for iter in 0..tol.max_iter {
        let (fx, dfx) = f(x);
        let fx = check_finite("newton f", x, fx)?;
        let evals = iter + 1;
        let done =
            |x: f64| Ok(RootResult { x, residual: fx, evaluations: evals, iterations: evals });
        if fx == 0.0 {
            return done(x);
        }
        if bracket.is_some() {
            if fx > 0.0 {
                hi = x;
            } else {
                lo = x;
            }
            if tol.is_met(hi - lo, x) {
                return done(x);
            }
        }
        let next = x - fx / dfx;
        if dfx.is_finite() && dfx != 0.0 && next.is_finite() {
            if tol.is_met(next - x, x) {
                return done(next.clamp(lo, hi));
            }
            if next > lo && next < hi {
                x = next;
                continue;
            }
        }
        x = match (lo.is_finite(), hi.is_finite()) {
            (true, true) => 0.5 * (lo + hi),
            (true, false) => lo + (1.0 + lo.abs()),
            (false, true) => hi - (1.0 + hi.abs()),
            (false, false) => return Err(NumError::NonFinite { what: "newton step", at: x }),
        };
    }
    Err(NumError::MaxIterations { max_iter: tol.max_iter, residual: f(x).0 })
}

/// Solves `f(x) = 0` for a strictly increasing `f` with `f(lo) < 0` by
/// expanding a bracket upward and applying Brent's method.
///
/// Needs nothing but `f` itself: no slope, no known upper end. That makes
/// it the oracle the model's seeded Newton φ solve is tested against, and
/// the solver for fixed points whose slope is not at hand (the continuum
/// market).
pub fn solve_increasing<F: Fn(f64) -> f64 + ?Sized>(
    f: &F,
    lo: f64,
    initial_step: f64,
    tol: Tolerance,
) -> NumResult<RootResult> {
    let flo = check_finite("solve_increasing f(lo)", lo, f(lo))?;
    if flo == 0.0 {
        return Ok(RootResult { x: lo, residual: 0.0, evaluations: 1, iterations: 0 });
    }
    if flo > 0.0 {
        // Strictly increasing with f(lo) > 0: no root to the right; the
        // caller's model guarantees this cannot happen for non-degenerate
        // inputs, so surface it as a bracket failure.
        return Err(NumError::NoBracket { a: lo, b: lo, fa: flo, fb: flo });
    }
    let bracket = expand_upward(f, lo, lo + initial_step.max(f64::MIN_POSITIVE), 128)?;
    brent(f, bracket, tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cubic(x: f64) -> f64 {
        x * x * x - 2.0 * x - 5.0
    }
    // Real root of x^3 - 2x - 5 (Wilkinson's classic test value).
    const CUBIC_ROOT: f64 = 2.094_551_481_542_326_5;

    #[test]
    fn bracket_orders_endpoints() {
        let b = Bracket::new(3.0, -1.0);
        assert_eq!((b.a, b.b), (-1.0, 3.0));
    }

    #[test]
    fn bisection_cubic() {
        let r = bisection(&cubic, Bracket::new(0.0, 3.0), Tolerance::default().with_max_iter(200))
            .unwrap();
        assert!((r.x - CUBIC_ROOT).abs() < 1e-9, "x = {}", r.x);
        assert!(r.evaluations > 2);
    }

    #[test]
    fn bisection_rejects_non_bracket() {
        let e = bisection(&cubic, Bracket::new(5.0, 6.0), Tolerance::default());
        assert!(matches!(e, Err(NumError::NoBracket { .. })));
    }

    #[test]
    fn bisection_exact_endpoint() {
        let f = |x: f64| x - 1.0;
        let r = bisection(&f, Bracket::new(1.0, 2.0), Tolerance::default()).unwrap();
        assert_eq!(r.x, 1.0);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn brent_cubic_fast_and_accurate() {
        let r = brent(&cubic, Bracket::new(0.0, 3.0), Tolerance::tight()).unwrap();
        assert!((r.x - CUBIC_ROOT).abs() < 1e-12, "x = {}", r.x);
        // Brent should need far fewer evaluations than bisection, which
        // needs ~48 at the `tight` tolerance on a width-3 bracket.
        assert!(r.evaluations < 40, "evaluations = {}", r.evaluations);
    }

    #[test]
    fn brent_matches_bisection() {
        let f = |x: f64| (x / 3.0).exp() - 7.0;
        let tol = Tolerance::new(1e-13, 1e-13).with_max_iter(300);
        let rb = brent(&f, Bracket::new(0.0, 20.0), tol).unwrap();
        let ri = bisection(&f, Bracket::new(0.0, 20.0), tol).unwrap();
        assert!((rb.x - ri.x).abs() < 1e-9);
        assert!((rb.x - 3.0 * 7f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn brent_rejects_non_bracket() {
        let e = brent(&cubic, Bracket::new(5.0, 6.0), Tolerance::default());
        assert!(matches!(e, Err(NumError::NoBracket { .. })));
    }

    #[test]
    fn brent_handles_root_at_endpoint() {
        let f = |x: f64| x * (x - 2.0);
        let r = brent(&f, Bracket::new(0.0, 1.0), Tolerance::default()).unwrap();
        assert_eq!(r.x, 0.0);
    }

    #[test]
    fn newton_quadratic_convergence() {
        let mut f = |x: f64| (x * x - 2.0, 2.0 * x);
        let r = newton(&mut f, 1.0, None, Tolerance::tight()).unwrap();
        assert!((r.x - 2f64.sqrt()).abs() < 1e-12);
        assert!(r.iterations <= 8);
    }

    #[test]
    fn newton_safeguarded_by_bracket() {
        // f has a nearly flat region that throws raw Newton far away.
        let mut f = |x: f64| (x.tanh() - 0.5, 1.0 - x.tanh().powi(2));
        let r = newton(
            &mut f,
            50.0,
            Some(Bracket::new(-100.0, 100.0)),
            Tolerance::default().with_max_iter(500),
        )
        .unwrap();
        assert!((r.x - 0.5f64.atanh()).abs() < 1e-8, "x = {}", r.x);
    }

    #[test]
    fn newton_accepts_a_converged_step_on_the_bracket_end() {
        // The root lies 1e-17 below the bracket's upper end, closer than
        // half an ulp of 1.0, so the Newton step from x0 = 1.0 rounds to
        // nothing. Testing the step before the bracket safeguard accepts
        // it; testing the bracket first bisects away and crawls back.
        let mut f = |x: f64| (x - 1.0 + 1e-17, 1.0);
        let r = newton(&mut f, 1.0, Some(Bracket::new(0.0, 1.0)), Tolerance::tight()).unwrap();
        assert_eq!(r.x, 1.0);
        assert!(r.iterations <= 2, "iterations = {}", r.iterations);
    }

    #[test]
    fn newton_infinite_slope_is_not_convergence() {
        // At x = 0 the slope of sqrt is infinite and the step f/f' is
        // exactly 0: the iterate must bisect, not stop at 0.
        let mut f = |x: f64| (x.sqrt() - 0.5, 0.5 / x.sqrt());
        let r = newton(&mut f, 0.0, Some(Bracket::new(0.0, 1.0)), Tolerance::tight()).unwrap();
        assert!((r.x - 0.25).abs() < 1e-13, "x = {}", r.x);
    }

    #[test]
    fn newton_steps_out_of_a_flat_start_on_a_half_open_bracket() {
        // A zero slope at the start and no finite upper end: the safeguard
        // steps away from the lower end until Newton can take over.
        let mut f = |x: f64| if x < 2.0 { (-1.0, 0.0) } else { (x - 5.0, 1.0) };
        let r = newton(&mut f, 0.0, Some(Bracket::new(0.0, f64::INFINITY)), Tolerance::tight())
            .unwrap();
        assert_eq!(r.x, 5.0);
        assert!(matches!(
            newton(&mut f, f64::NAN, None, Tolerance::tight()),
            Err(NumError::Domain { .. })
        ));
    }

    #[test]
    fn expand_upward_finds_far_root() {
        let f = |x: f64| x - 1e6;
        let br = expand_upward(&f, 0.0, 1.0, 64).unwrap();
        assert!(f(br.a) <= 0.0 && f(br.b) >= 0.0);
    }

    #[test]
    fn expand_upward_rejects_positive_start() {
        let f = |x: f64| x + 1.0;
        assert!(matches!(expand_upward(&f, 0.0, 1.0, 64), Err(NumError::NoBracket { .. })));
    }

    #[test]
    fn expand_upward_root_at_start() {
        let f = |x: f64| x;
        let br = expand_upward(&f, 0.0, 1.0, 8).unwrap();
        assert_eq!(br.a, 0.0);
        assert_eq!(br.b, 0.0);
    }

    #[test]
    fn solve_increasing_gap_like_function() {
        // A miniature of Lemma 1's gap function: g(phi) = phi*mu - sum m e^{-b phi}.
        let mu = 1.0;
        let pairs = [(1.0f64, 1.0f64), (0.5, 3.0), (0.2, 5.0)];
        let g =
            move |phi: f64| phi * mu - pairs.iter().map(|(m, b)| m * (-b * phi).exp()).sum::<f64>();
        let r = solve_increasing(&g, 0.0, 0.5, Tolerance::tight()).unwrap();
        assert!(r.x > 0.0);
        assert!(g(r.x).abs() < 1e-10);
    }

    #[test]
    fn solve_increasing_zero_demand_edge() {
        // With zero demand the root is at the origin.
        let g = |phi: f64| phi;
        let r = solve_increasing(&g, 0.0, 1.0, Tolerance::default()).unwrap();
        assert_eq!(r.x, 0.0);
    }

    #[test]
    fn non_finite_detected() {
        let f = |x: f64| if x > 1.0 { f64::NAN } else { x - 2.0 };
        let e = expand_upward(&f, 0.0, 1.5, 8);
        assert!(matches!(e, Err(NumError::NonFinite { .. })));
    }

    #[test]
    fn brent_tolerance_respected() {
        // Loose tolerance returns quickly with correspondingly loose root.
        let r = brent(&cubic, Bracket::new(0.0, 3.0), Tolerance::new(1e-3, 0.0)).unwrap();
        assert!((r.x - CUBIC_ROOT).abs() < 1e-2);
    }
}
