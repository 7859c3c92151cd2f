//! User-demand functions `m(t)` (Assumption 2).
//!
//! A CP's user population is a continuously differentiable, decreasing
//! function of the *effective* per-unit price `t = p − s` its users face
//! (ISP price minus the CP's subsidy), with `m(t) → 0` as `t → ∞`. As the
//! paper notes, this nests valuation-distribution models: `m(t)` is the mass
//! of users whose valuation exceeds `t`.
//!
//! The paper's numerics use the exponential family `m(t) = m₀ e^{-αt}`,
//! whose price elasticity is `ε^m_t = -αt`. Note the paper places no lower
//! bound on `t`: with a subsidy exceeding the price the effective price goes
//! negative and `m(t) > m₀` — users are being *paid* to consume. All
//! families here are therefore defined on the whole real line (the
//! isoelastic family documents its own domain handling).

use subcomp_num::{NumError, NumResult};

/// A demand function `m(t)` with derivative and elasticity.
pub trait DemandFn: Send + Sync {
    /// Population at effective price `t`.
    fn m(&self, t: f64) -> f64;

    /// Derivative `dm/dt` (non-positive).
    fn dm_dt(&self, t: f64) -> f64;

    /// Second derivative `d²m/dt²` — the curvature Theorem 6's Jacobian
    /// reads on its diagonal (`∂a_i/∂s_i = m_i''(t_i)` with
    /// `a_i = −m_i'(t_i)`). At a kink it returns the value of the piece
    /// [`DemandFn::dm_dt`] reports there.
    fn d2m_dt2(&self, t: f64) -> f64;

    /// t-elasticity `ε^m_t = (dm/dt)(t/m)` (Definition 2); non-positive for
    /// positive prices.
    fn elasticity(&self, t: f64) -> f64 {
        let m = self.m(t);
        if m == 0.0 {
            0.0
        } else {
            self.dm_dt(t) * t / m
        }
    }

    /// Human-readable family name for reports.
    fn name(&self) -> &'static str;

    /// Clones into a boxed trait object.
    fn boxed_clone(&self) -> Box<dyn DemandFn>;

    /// Returns a copy whose population scale is multiplied by `κ`
    /// (Lemma 2's population scaling).
    fn scaled(&self, kappa: f64) -> Box<dyn DemandFn>;

    /// If this is the exponential family `m(t) = m₀ e^{-αt}`, its
    /// `(m₀, α)` coefficients. The system's kernel uses them to read
    /// `m'` and `m''` off a population it already holds (`−α·m` and
    /// `α·α·m`, the expressions [`ExpDemand`] evaluates), with no `exp`.
    /// Other families return `None` and are evaluated through the trait
    /// object.
    fn exp_coeffs(&self) -> Option<(f64, f64)> {
        None
    }
}

impl Clone for Box<dyn DemandFn> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// The paper's exponential demand `m(t) = m₀ e^{-αt}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpDemand {
    m0: f64,
    alpha: f64,
}

impl ExpDemand {
    /// Creates `m₀ e^{-αt}`; requires `m₀ > 0`, `α > 0`.
    pub fn new(m0: f64, alpha: f64) -> Self {
        assert!(m0 > 0.0 && m0.is_finite(), "population scale must be positive");
        assert!(alpha > 0.0 && alpha.is_finite(), "price sensitivity must be positive");
        ExpDemand { m0, alpha }
    }

    /// Price sensitivity `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl DemandFn for ExpDemand {
    fn m(&self, t: f64) -> f64 {
        self.m0 * (-self.alpha * t).exp()
    }
    fn dm_dt(&self, t: f64) -> f64 {
        -self.alpha * self.m(t)
    }
    fn d2m_dt2(&self, t: f64) -> f64 {
        self.alpha * self.alpha * self.m(t)
    }
    fn elasticity(&self, t: f64) -> f64 {
        // Closed form: ε^m_t = -αt.
        -self.alpha * t
    }
    fn name(&self) -> &'static str {
        "exponential"
    }
    fn boxed_clone(&self) -> Box<dyn DemandFn> {
        Box::new(*self)
    }
    fn scaled(&self, kappa: f64) -> Box<dyn DemandFn> {
        Box::new(ExpDemand::new(self.m0 * kappa, self.alpha))
    }
    fn exp_coeffs(&self) -> Option<(f64, f64)> {
        Some((self.m0, self.alpha))
    }
}

/// Linear demand `m(t) = max(0, m₀ (1 − t / t_max))`: a uniform valuation
/// distribution on `[0, t_max]`, saturating at `m₀` for `t ≤ 0`.
///
/// Not differentiable exactly at the kinks `t = 0` (saturation) and
/// `t = t_max` (exhaustion); the derivative returns the interior value at
/// the kink, which is the convention finite-difference tests use too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearDemand {
    m0: f64,
    t_max: f64,
}

impl LinearDemand {
    /// Creates the family member; requires `m₀ > 0`, `t_max > 0`.
    pub fn new(m0: f64, t_max: f64) -> NumResult<Self> {
        if !(m0 > 0.0) || !(t_max > 0.0) {
            return Err(NumError::Domain {
                what: "LinearDemand requires m0 > 0, t_max > 0",
                value: m0.min(t_max),
            });
        }
        Ok(LinearDemand { m0, t_max })
    }
}

impl DemandFn for LinearDemand {
    fn m(&self, t: f64) -> f64 {
        if t <= 0.0 {
            self.m0
        } else if t >= self.t_max {
            0.0
        } else {
            self.m0 * (1.0 - t / self.t_max)
        }
    }
    fn dm_dt(&self, t: f64) -> f64 {
        if t < 0.0 || t > self.t_max {
            0.0
        } else {
            -self.m0 / self.t_max
        }
    }
    fn d2m_dt2(&self, _t: f64) -> f64 {
        // Piecewise linear: every piece is straight.
        0.0
    }
    fn name(&self) -> &'static str {
        "linear"
    }
    fn boxed_clone(&self) -> Box<dyn DemandFn> {
        Box::new(*self)
    }
    fn scaled(&self, kappa: f64) -> Box<dyn DemandFn> {
        Box::new(LinearDemand { m0: self.m0 * kappa, t_max: self.t_max })
    }
}

/// Isoelastic demand `m(t) = m₀ (1 + t)^{-α}` — constant-ish elasticity
/// with a finite value at `t = 0` (the `1 +` offset keeps Assumption 2's
/// differentiability on the whole line: for `t < -1` the population is
/// capped at the `t = -1` value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsoelasticDemand {
    m0: f64,
    alpha: f64,
}

impl IsoelasticDemand {
    /// Creates the family member; requires `m₀ > 0`, `α > 0`.
    pub fn new(m0: f64, alpha: f64) -> NumResult<Self> {
        if !(m0 > 0.0) || !(alpha > 0.0) {
            return Err(NumError::Domain {
                what: "IsoelasticDemand requires m0 > 0, alpha > 0",
                value: m0.min(alpha),
            });
        }
        Ok(IsoelasticDemand { m0, alpha })
    }
}

impl DemandFn for IsoelasticDemand {
    fn m(&self, t: f64) -> f64 {
        // Cap below t = -0.5 to keep the function bounded and decreasing on
        // the subsidized-past-free region (the model never needs t < -p).
        let t_eff = t.max(-0.5);
        self.m0 * (1.0 + t_eff).powf(-self.alpha)
    }
    fn dm_dt(&self, t: f64) -> f64 {
        if t < -0.5 {
            0.0
        } else {
            -self.alpha * self.m0 * (1.0 + t).powf(-self.alpha - 1.0)
        }
    }
    fn d2m_dt2(&self, t: f64) -> f64 {
        if t < -0.5 {
            0.0
        } else {
            self.alpha * (self.alpha + 1.0) * self.m0 * (1.0 + t).powf(-self.alpha - 2.0)
        }
    }
    fn name(&self) -> &'static str {
        "isoelastic"
    }
    fn boxed_clone(&self) -> Box<dyn DemandFn> {
        Box::new(*self)
    }
    fn scaled(&self, kappa: f64) -> Box<dyn DemandFn> {
        Box::new(IsoelasticDemand { m0: self.m0 * kappa, alpha: self.alpha })
    }
}

/// Logistic demand `m(t) = m₀ (1 + e^{-k t₀}) / (1 + e^{k(t - t₀)})`:
/// a smooth S-curve with mass concentrated around the reference valuation
/// `t₀`. Normalized so `m(0) = m₀`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogisticDemand {
    m0: f64,
    k: f64,
    t0: f64,
    norm: f64,
}

impl LogisticDemand {
    /// Creates the family member; requires `m₀ > 0`, steepness `k > 0`.
    pub fn new(m0: f64, k: f64, t0: f64) -> NumResult<Self> {
        if !(m0 > 0.0) || !(k > 0.0) {
            return Err(NumError::Domain {
                what: "LogisticDemand requires m0 > 0, k > 0",
                value: m0.min(k),
            });
        }
        let norm = 1.0 + (-k * t0).exp();
        Ok(LogisticDemand { m0, k, t0, norm })
    }
}

impl DemandFn for LogisticDemand {
    fn m(&self, t: f64) -> f64 {
        self.m0 * self.norm / (1.0 + (self.k * (t - self.t0)).exp())
    }
    fn dm_dt(&self, t: f64) -> f64 {
        let e = (self.k * (t - self.t0)).exp();
        -self.m0 * self.norm * self.k * e / (1.0 + e).powi(2)
    }
    fn d2m_dt2(&self, t: f64) -> f64 {
        let e = (self.k * (t - self.t0)).exp();
        self.m0 * self.norm * self.k * self.k * e * (e - 1.0) / (1.0 + e).powi(3)
    }
    fn name(&self) -> &'static str {
        "logistic"
    }
    fn boxed_clone(&self) -> Box<dyn DemandFn> {
        Box::new(*self)
    }
    fn scaled(&self, kappa: f64) -> Box<dyn DemandFn> {
        Box::new(LogisticDemand { m0: self.m0 * kappa, ..*self })
    }
}

/// Numerically verifies Assumption 2 on a grid of effective prices:
/// non-negative, non-increasing, vanishing tail, derivative consistent with
/// finite differences away from kinks. Returns the max derivative error.
pub fn check_assumption2(d: &dyn DemandFn, ts: &[f64]) -> NumResult<f64> {
    let mut prev: Option<f64> = None;
    let mut max_err = 0.0f64;
    for &t in ts {
        let m = d.m(t);
        if !(m >= 0.0) || !m.is_finite() {
            return Err(NumError::Domain {
                what: "m(t) must be non-negative and finite",
                value: m,
            });
        }
        if let Some(p) = prev {
            if m > p + 1e-12 {
                return Err(NumError::Domain { what: "m(t) must be non-increasing", value: m - p });
            }
        }
        prev = Some(m);
        let fd = subcomp_num::diff::derivative(&|x| d.m(x), t)?;
        let an = d.dm_dt(t);
        max_err = max_err.max((fd - an).abs() / an.abs().max(1e-6));
    }
    let tail = d.m(1e4);
    if !(tail <= 1e-3 * d.m(0.0).max(1e-300)) {
        return Err(NumError::Domain { what: "m(t) must vanish as t grows", value: tail });
    }
    Ok(max_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts() -> Vec<f64> {
        vec![0.05, 0.2, 0.5, 0.9, 1.5, 2.5]
    }

    #[test]
    fn exp_assumption2() {
        let d = ExpDemand::new(1.0, 3.0);
        assert!(check_assumption2(&d, &ts()).unwrap() < 1e-6);
    }

    #[test]
    fn linear_assumption2_interior() {
        let d = LinearDemand::new(2.0, 3.0).unwrap();
        assert!(check_assumption2(&d, &ts()).unwrap() < 1e-6);
        assert_eq!(d.m(5.0), 0.0);
        assert_eq!(d.m(-1.0), 2.0);
    }

    #[test]
    fn isoelastic_assumption2() {
        let d = IsoelasticDemand::new(1.0, 2.0).unwrap();
        assert!(check_assumption2(&d, &ts()).unwrap() < 1e-6);
    }

    #[test]
    fn logistic_assumption2() {
        let d = LogisticDemand::new(1.0, 4.0, 1.0).unwrap();
        assert!(check_assumption2(&d, &ts()).unwrap() < 1e-6);
        assert!((d.m(0.0) - 1.0).abs() < 1e-12, "normalization");
    }

    #[test]
    fn exp_elasticity_closed_form() {
        // The paper: epsilon^m_p = -alpha*p for the exponential family.
        let d = ExpDemand::new(1.0, 2.0);
        for t in ts() {
            assert!((d.elasticity(t) + 2.0 * t).abs() < 1e-12);
        }
    }

    #[test]
    fn negative_effective_price_grows_population() {
        // Subsidy beyond price: t < 0, m(t) > m0 for the exponential family
        // (the paper's Figure 8/9 regime at small p, large q).
        let d = ExpDemand::new(1.0, 2.0);
        assert!(d.m(-0.5) > 1.0);
        assert!(d.dm_dt(-0.5) < 0.0);
    }

    #[test]
    fn scaled_multiplies_population() {
        let fams: Vec<Box<dyn DemandFn>> = vec![
            Box::new(ExpDemand::new(1.0, 2.0)),
            Box::new(LinearDemand::new(1.0, 2.0).unwrap()),
            Box::new(IsoelasticDemand::new(1.0, 2.0).unwrap()),
            Box::new(LogisticDemand::new(1.0, 3.0, 0.5).unwrap()),
        ];
        for d in &fams {
            let s = d.scaled(3.0);
            for t in ts() {
                assert!((s.m(t) - 3.0 * d.m(t)).abs() < 1e-9, "{}", d.name());
                // Elasticity is scale-invariant.
                assert!((s.elasticity(t) - d.elasticity(t)).abs() < 1e-9, "{}", d.name());
            }
        }
    }

    #[test]
    fn elasticity_default_matches_closed_form() {
        struct Raw(ExpDemand);
        impl DemandFn for Raw {
            fn m(&self, t: f64) -> f64 {
                self.0.m(t)
            }
            fn dm_dt(&self, t: f64) -> f64 {
                self.0.dm_dt(t)
            }
            fn d2m_dt2(&self, t: f64) -> f64 {
                self.0.d2m_dt2(t)
            }
            fn name(&self) -> &'static str {
                "raw"
            }
            fn boxed_clone(&self) -> Box<dyn DemandFn> {
                Box::new(Raw(self.0))
            }
            fn scaled(&self, kappa: f64) -> Box<dyn DemandFn> {
                self.0.scaled(kappa)
            }
        }
        let raw = Raw(ExpDemand::new(1.5, 2.0));
        for t in ts() {
            assert!((raw.elasticity(t) - raw.0.elasticity(t)).abs() < 1e-12);
        }
    }

    #[test]
    fn isoelastic_capped_below() {
        let d = IsoelasticDemand::new(1.0, 2.0).unwrap();
        assert_eq!(d.m(-0.8), d.m(-0.5));
        assert_eq!(d.dm_dt(-0.8), 0.0);
    }

    #[test]
    #[should_panic(expected = "price sensitivity must be positive")]
    fn exp_rejects_bad_alpha() {
        ExpDemand::new(1.0, -2.0);
    }

    #[test]
    fn constructors_reject_bad_params() {
        assert!(LinearDemand::new(0.0, 1.0).is_err());
        assert!(IsoelasticDemand::new(1.0, 0.0).is_err());
        assert!(LogisticDemand::new(1.0, 0.0, 1.0).is_err());
    }

    #[test]
    fn boxed_clone_works() {
        let d: Box<dyn DemandFn> = Box::new(ExpDemand::new(1.0, 1.0));
        let c = d.clone();
        assert_eq!(d.m(0.3), c.m(0.3));
    }
}
