//! Per-user throughput functions `λ(φ)` (Assumption 1, second half).
//!
//! A CP's users obtain average throughput `λ_i(φ)`: strictly decreasing in
//! the system utilization `φ` (congestion) and vanishing as `φ → ∞`. The
//! paper's evaluation uses the exponential family `λ(φ) = λ₀ e^{-βφ}`,
//! where `β` is the *congestion sensitivity*: its φ-elasticity is exactly
//! `ε^λ_φ = -βφ`, which is what makes the paper's conditions (7)/(8) neat.
//!
//! [`PowerThroughput`] and [`LogisticThroughput`] satisfy the same axioms
//! with different tail behaviour and are used in robustness experiments.

use subcomp_num::{NumError, NumResult};

/// A per-user throughput function `λ(φ)` with derivative and elasticity.
pub trait ThroughputFn: Send + Sync {
    /// Throughput at utilization `φ ≥ 0`.
    fn lambda(&self, phi: f64) -> f64;

    /// Derivative `dλ/dφ` (strictly negative on `φ > 0`).
    fn dlambda_dphi(&self, phi: f64) -> f64;

    /// Second derivative `d²λ/dφ²` — with [`ThroughputFn::dlambda_dphi`],
    /// what the Theorem 6 Jacobian needs to differentiate `∂θ_i/∂s_i`
    /// through the utilization `φ`.
    fn d2lambda_dphi2(&self, phi: f64) -> f64;

    /// φ-elasticity `ε^λ_φ = (dλ/dφ)(φ/λ)` (Definition 2); non-positive.
    fn elasticity(&self, phi: f64) -> f64 {
        let l = self.lambda(phi);
        if l == 0.0 {
            0.0
        } else {
            self.dlambda_dphi(phi) * phi / l
        }
    }

    /// Peak (uncongested) throughput `λ(0)`.
    fn peak(&self) -> f64 {
        self.lambda(0.0)
    }

    /// Human-readable family name for reports.
    fn name(&self) -> &'static str;

    /// Clones into a boxed trait object.
    fn boxed_clone(&self) -> Box<dyn ThroughputFn>;

    /// Returns a copy whose peak `λ(0)` is scaled by `κ`, preserving the
    /// φ-elasticity profile — the scaling Lemma 2 builds on.
    fn scaled(&self, kappa: f64) -> Box<dyn ThroughputFn>;

    /// If this is the exponential family `λ(φ) = λ₀ e^{-βφ}`, its
    /// `(λ₀, β)` coefficients. The system's hot congestion loop uses this
    /// to share one `e^{-βφ}` evaluation among all providers with the same
    /// `β` (bit-identical to evaluating each [`ThroughputFn::lambda`],
    /// since `exp` is a pure function of the identical argument `-βφ`).
    /// Non-exponential families return `None` and are evaluated through
    /// the trait object as before.
    fn exp_coeffs(&self) -> Option<(f64, f64)> {
        None
    }
}

impl Clone for Box<dyn ThroughputFn> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// The paper's exponential throughput `λ(φ) = λ₀ e^{-βφ}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpThroughput {
    lambda0: f64,
    beta: f64,
}

impl ExpThroughput {
    /// Creates `λ₀ e^{-βφ}`; requires `λ₀ > 0`, `β > 0`.
    pub fn new(lambda0: f64, beta: f64) -> Self {
        assert!(lambda0 > 0.0 && lambda0.is_finite(), "peak throughput must be positive");
        assert!(beta > 0.0 && beta.is_finite(), "congestion sensitivity must be positive");
        ExpThroughput { lambda0, beta }
    }

    /// Congestion sensitivity `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }
}

impl ThroughputFn for ExpThroughput {
    fn lambda(&self, phi: f64) -> f64 {
        self.lambda0 * (-self.beta * phi).exp()
    }
    fn dlambda_dphi(&self, phi: f64) -> f64 {
        -self.beta * self.lambda(phi)
    }
    fn d2lambda_dphi2(&self, phi: f64) -> f64 {
        self.beta * self.beta * self.lambda(phi)
    }
    fn elasticity(&self, phi: f64) -> f64 {
        // Closed form: ε^λ_φ = -βφ.
        -self.beta * phi
    }
    fn name(&self) -> &'static str {
        "exponential"
    }
    fn boxed_clone(&self) -> Box<dyn ThroughputFn> {
        Box::new(*self)
    }
    fn scaled(&self, kappa: f64) -> Box<dyn ThroughputFn> {
        Box::new(ExpThroughput::new(self.lambda0 * kappa, self.beta))
    }
    fn exp_coeffs(&self) -> Option<(f64, f64)> {
        Some((self.lambda0, self.beta))
    }
}

/// Power-law throughput `λ(φ) = λ₀ (1 + φ)^{-β}`: heavier tail than the
/// exponential family (throughput degrades polynomially, not exponentially).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerThroughput {
    lambda0: f64,
    beta: f64,
}

impl PowerThroughput {
    /// Creates `λ₀ (1+φ)^{-β}`; requires `λ₀ > 0`, `β > 0`.
    pub fn new(lambda0: f64, beta: f64) -> Self {
        assert!(lambda0 > 0.0 && lambda0.is_finite(), "peak throughput must be positive");
        assert!(beta > 0.0 && beta.is_finite(), "congestion sensitivity must be positive");
        PowerThroughput { lambda0, beta }
    }
}

impl ThroughputFn for PowerThroughput {
    fn lambda(&self, phi: f64) -> f64 {
        self.lambda0 * (1.0 + phi).powf(-self.beta)
    }
    fn dlambda_dphi(&self, phi: f64) -> f64 {
        -self.beta * self.lambda0 * (1.0 + phi).powf(-self.beta - 1.0)
    }
    fn d2lambda_dphi2(&self, phi: f64) -> f64 {
        self.beta * (self.beta + 1.0) * self.lambda0 * (1.0 + phi).powf(-self.beta - 2.0)
    }
    fn elasticity(&self, phi: f64) -> f64 {
        // Closed form: -β φ / (1 + φ).
        -self.beta * phi / (1.0 + phi)
    }
    fn name(&self) -> &'static str {
        "power-law"
    }
    fn boxed_clone(&self) -> Box<dyn ThroughputFn> {
        Box::new(*self)
    }
    fn scaled(&self, kappa: f64) -> Box<dyn ThroughputFn> {
        Box::new(PowerThroughput::new(self.lambda0 * kappa, self.beta))
    }
}

/// Logistic throughput `λ(φ) = λ₀ · (1 + e^{-kφ₀}) / (1 + e^{k(φ - φ₀)})`.
///
/// Nearly flat below the knee `φ₀`, then collapses — models applications
/// that tolerate congestion up to a quality cliff (e.g. video with fixed
/// bitrate ladders). Normalized so `λ(0) = λ₀`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogisticThroughput {
    lambda0: f64,
    k: f64,
    knee: f64,
    norm: f64,
}

impl LogisticThroughput {
    /// Creates the family member; requires `λ₀ > 0`, steepness `k > 0`,
    /// knee `φ₀ ≥ 0`.
    pub fn new(lambda0: f64, k: f64, knee: f64) -> NumResult<Self> {
        if !(lambda0 > 0.0) || !(k > 0.0) || !(knee >= 0.0) {
            return Err(NumError::Domain {
                what: "LogisticThroughput requires lambda0 > 0, k > 0, knee >= 0",
                value: lambda0.min(k).min(knee),
            });
        }
        let norm = 1.0 + (-k * knee).exp();
        Ok(LogisticThroughput { lambda0, k, knee, norm })
    }
}

impl ThroughputFn for LogisticThroughput {
    fn lambda(&self, phi: f64) -> f64 {
        self.lambda0 * self.norm / (1.0 + (self.k * (phi - self.knee)).exp())
    }
    fn dlambda_dphi(&self, phi: f64) -> f64 {
        let e = (self.k * (phi - self.knee)).exp();
        -self.lambda0 * self.norm * self.k * e / (1.0 + e).powi(2)
    }
    fn d2lambda_dphi2(&self, phi: f64) -> f64 {
        let e = (self.k * (phi - self.knee)).exp();
        self.lambda0 * self.norm * self.k * self.k * e * (e - 1.0) / (1.0 + e).powi(3)
    }
    fn name(&self) -> &'static str {
        "logistic"
    }
    fn boxed_clone(&self) -> Box<dyn ThroughputFn> {
        Box::new(*self)
    }
    fn scaled(&self, kappa: f64) -> Box<dyn ThroughputFn> {
        Box::new(LogisticThroughput { lambda0: self.lambda0 * kappa, ..*self })
    }
}

/// Numerically verifies the throughput axioms on a φ-grid: positive,
/// strictly decreasing, vanishing tail, derivative consistent with finite
/// differences. Returns the max derivative error observed.
pub fn check_throughput_axioms(t: &dyn ThroughputFn, phis: &[f64]) -> NumResult<f64> {
    let mut max_err = 0.0f64;
    let mut prev: Option<f64> = None;
    for &phi in phis {
        let l = t.lambda(phi);
        if !(l > 0.0) || !l.is_finite() {
            return Err(NumError::Domain { what: "lambda must be positive and finite", value: l });
        }
        if let Some(p) = prev {
            if l >= p {
                return Err(NumError::Domain {
                    what: "lambda must strictly decrease",
                    value: l - p,
                });
            }
        }
        prev = Some(l);
        let fd = subcomp_num::diff::derivative(&|x| t.lambda(x.max(0.0)), phi.max(1e-4))?;
        let an = t.dlambda_dphi(phi.max(1e-4));
        max_err = max_err.max((fd - an).abs() / an.abs().max(1e-9));
    }
    // Vanishing tail.
    let tail = t.lambda(1e4);
    if !(tail < 1e-3 * t.peak()) {
        return Err(NumError::Domain { what: "lambda must vanish as phi grows", value: tail });
    }
    Ok(max_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phis() -> Vec<f64> {
        vec![0.1, 0.3, 0.7, 1.2, 2.0, 3.5]
    }

    #[test]
    fn exp_axioms() {
        let t = ExpThroughput::new(2.0, 3.0);
        let err = check_throughput_axioms(&t, &phis()).unwrap();
        assert!(err < 1e-6, "err {err}");
    }

    #[test]
    fn power_axioms() {
        let t = PowerThroughput::new(1.5, 4.0);
        let err = check_throughput_axioms(&t, &phis()).unwrap();
        assert!(err < 1e-6);
    }

    #[test]
    fn logistic_axioms() {
        let t = LogisticThroughput::new(1.0, 6.0, 0.8).unwrap();
        let err = check_throughput_axioms(&t, &phis()).unwrap();
        assert!(err < 1e-6);
    }

    #[test]
    fn exp_elasticity_closed_form() {
        // The paper: epsilon^lambda_phi = -beta*phi for the exponential family.
        let t = ExpThroughput::new(1.0, 2.5);
        for phi in phis() {
            assert!((t.elasticity(phi) + 2.5 * phi).abs() < 1e-12);
        }
    }

    #[test]
    fn power_elasticity_closed_form() {
        let t = PowerThroughput::new(1.0, 3.0);
        for phi in phis() {
            assert!((t.elasticity(phi) + 3.0 * phi / (1.0 + phi)).abs() < 1e-12);
        }
    }

    #[test]
    fn elasticity_default_impl_matches_closed_form() {
        // The default (derivative-based) elasticity must agree with the
        // overridden closed forms.
        struct Raw(ExpThroughput);
        impl ThroughputFn for Raw {
            fn lambda(&self, phi: f64) -> f64 {
                self.0.lambda(phi)
            }
            fn dlambda_dphi(&self, phi: f64) -> f64 {
                self.0.dlambda_dphi(phi)
            }
            fn d2lambda_dphi2(&self, phi: f64) -> f64 {
                self.0.d2lambda_dphi2(phi)
            }
            fn name(&self) -> &'static str {
                "raw"
            }
            fn boxed_clone(&self) -> Box<dyn ThroughputFn> {
                Box::new(Raw(self.0))
            }
            fn scaled(&self, kappa: f64) -> Box<dyn ThroughputFn> {
                self.0.scaled(kappa)
            }
        }
        let raw = Raw(ExpThroughput::new(1.3, 2.0));
        for phi in phis() {
            assert!((raw.elasticity(phi) - raw.0.elasticity(phi)).abs() < 1e-12);
        }
    }

    #[test]
    fn peak_is_lambda_at_zero() {
        assert_eq!(ExpThroughput::new(2.0, 1.0).peak(), 2.0);
        let lg = LogisticThroughput::new(1.7, 4.0, 0.5).unwrap();
        assert!((lg.peak() - 1.7).abs() < 1e-12, "normalization broken: {}", lg.peak());
    }

    #[test]
    fn scaled_preserves_elasticity() {
        // Lemma 2's scaling: kappa * lambda0 leaves epsilon^lambda_phi intact.
        let t = ExpThroughput::new(1.0, 3.0);
        let s = t.scaled(4.0);
        for phi in phis() {
            assert!((s.elasticity(phi) - t.elasticity(phi)).abs() < 1e-12);
            assert!((s.lambda(phi) - 4.0 * t.lambda(phi)).abs() < 1e-12);
        }
    }

    #[test]
    fn scaled_preserves_elasticity_all_families() {
        let fams: Vec<Box<dyn ThroughputFn>> = vec![
            Box::new(ExpThroughput::new(1.0, 2.0)),
            Box::new(PowerThroughput::new(1.0, 2.0)),
            Box::new(LogisticThroughput::new(1.0, 5.0, 0.7).unwrap()),
        ];
        for t in &fams {
            let s = t.scaled(2.5);
            for phi in phis() {
                let et = t.elasticity(phi);
                let es = s.elasticity(phi);
                assert!((et - es).abs() < 1e-9, "{}: {et} vs {es}", t.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "congestion sensitivity must be positive")]
    fn exp_rejects_bad_beta() {
        ExpThroughput::new(1.0, 0.0);
    }

    #[test]
    fn logistic_rejects_bad_params() {
        assert!(LogisticThroughput::new(0.0, 1.0, 1.0).is_err());
        assert!(LogisticThroughput::new(1.0, -1.0, 1.0).is_err());
        assert!(LogisticThroughput::new(1.0, 1.0, -0.1).is_err());
    }

    #[test]
    fn boxed_clone_works() {
        let t: Box<dyn ThroughputFn> = Box::new(PowerThroughput::new(1.0, 2.0));
        let c = t.clone();
        assert_eq!(t.lambda(0.4), c.lambda(0.4));
    }
}
