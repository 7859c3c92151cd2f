//! Utilization functions `φ = Φ(θ, µ)` and their inverses (Assumption 1).
//!
//! Assumption 1 of the paper requires `Φ` to be differentiable, strictly
//! increasing in aggregate throughput `θ`, strictly decreasing in capacity
//! `µ`, and to vanish as `θ → 0`. The analysis works with the inverse
//! `Θ(φ, µ) = Φ^{-1}(φ, µ)` — the throughput the system must carry to sit at
//! utilization `φ` — which is strictly increasing in both arguments.
//!
//! The paper's numerical sections use the linear form `Φ(θ, µ) = θ/µ`
//! ([`LinearUtilization`]); [`PowerUtilization`] and [`QueueUtilization`]
//! are alternative families satisfying the same axioms, used for
//! sensitivity/ablation experiments and property tests.

use subcomp_num::{NumError, NumResult};

/// A utilization function `Φ(θ, µ)` with its inverse and partials.
///
/// Implementors must satisfy Assumption 1 on the domain `θ ≥ 0`, `µ > 0`;
/// [`check_assumption1`] verifies the axioms numerically and is exercised by
/// every implementation's tests.
pub trait UtilizationFn: Send + Sync {
    /// Utilization `φ = Φ(θ, µ)`.
    fn phi(&self, theta: f64, mu: f64) -> f64;

    /// Inverse `Θ(φ, µ)`: the throughput inducing utilization `φ`.
    fn theta(&self, phi: f64, mu: f64) -> f64;

    /// Partial `∂Θ/∂φ` (strictly positive).
    fn dtheta_dphi(&self, phi: f64, mu: f64) -> f64;

    /// Partial `∂Θ/∂µ` (strictly positive).
    fn dtheta_dmu(&self, phi: f64, mu: f64) -> f64;

    /// Second partial `∂²Θ/∂φ²`: the curvature of the gap slope
    /// `dg/dφ` in `φ`, which the Theorem 6 Jacobian differentiates.
    fn d2theta_dphi2(&self, phi: f64, mu: f64) -> f64;

    /// Mixed partial `∂²Θ/∂φ∂µ`: how the gap slope moves with capacity,
    /// the µ-axis right-hand side of Theorem 6.
    fn d2theta_dphi_dmu(&self, phi: f64, mu: f64) -> f64;

    /// Human-readable family name for reports.
    fn name(&self) -> &'static str;

    /// Clones into a boxed trait object.
    fn boxed_clone(&self) -> Box<dyn UtilizationFn>;

    /// Whether this is exactly the paper's linear family `Θ(φ, µ) = φµ`.
    /// The system's hot congestion loop uses this to inline the inverse
    /// (`φ * µ`, bit-identical to [`UtilizationFn::theta`] for the linear
    /// family) instead of paying a virtual call per gap evaluation.
    fn is_linear(&self) -> bool {
        false
    }
}

impl Clone for Box<dyn UtilizationFn> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

impl UtilizationFn for Box<dyn UtilizationFn> {
    fn phi(&self, theta: f64, mu: f64) -> f64 {
        (**self).phi(theta, mu)
    }
    fn theta(&self, phi: f64, mu: f64) -> f64 {
        (**self).theta(phi, mu)
    }
    fn dtheta_dphi(&self, phi: f64, mu: f64) -> f64 {
        (**self).dtheta_dphi(phi, mu)
    }
    fn dtheta_dmu(&self, phi: f64, mu: f64) -> f64 {
        (**self).dtheta_dmu(phi, mu)
    }
    fn d2theta_dphi2(&self, phi: f64, mu: f64) -> f64 {
        (**self).d2theta_dphi2(phi, mu)
    }
    fn d2theta_dphi_dmu(&self, phi: f64, mu: f64) -> f64 {
        (**self).d2theta_dphi_dmu(phi, mu)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn boxed_clone(&self) -> Box<dyn UtilizationFn> {
        (**self).boxed_clone()
    }
    fn is_linear(&self) -> bool {
        (**self).is_linear()
    }
}

/// The paper's utilization metric: per-capacity throughput, `Φ(θ, µ) = θ/µ`.
///
/// `Θ(φ, µ) = φ µ`, `∂Θ/∂φ = µ`, `∂Θ/∂µ = φ`, `∂²Θ/∂φ² = 0`,
/// `∂²Θ/∂φ∂µ = 1`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinearUtilization;

impl UtilizationFn for LinearUtilization {
    fn phi(&self, theta: f64, mu: f64) -> f64 {
        theta / mu
    }
    fn theta(&self, phi: f64, mu: f64) -> f64 {
        phi * mu
    }
    fn dtheta_dphi(&self, _phi: f64, mu: f64) -> f64 {
        mu
    }
    fn dtheta_dmu(&self, phi: f64, _mu: f64) -> f64 {
        phi
    }
    fn d2theta_dphi2(&self, _phi: f64, _mu: f64) -> f64 {
        0.0
    }
    fn d2theta_dphi_dmu(&self, _phi: f64, _mu: f64) -> f64 {
        1.0
    }
    fn name(&self) -> &'static str {
        "linear (theta/mu)"
    }
    fn boxed_clone(&self) -> Box<dyn UtilizationFn> {
        Box::new(*self)
    }
    fn is_linear(&self) -> bool {
        true
    }
}

/// Power-law utilization `Φ(θ, µ) = (θ/µ)^γ`, `γ > 0`.
///
/// `γ > 1` models congestion that sharpens as load approaches capacity;
/// `γ < 1` models early-onset congestion. `γ = 1` recovers the linear form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerUtilization {
    gamma: f64,
}

impl PowerUtilization {
    /// Creates the family member with exponent `gamma > 0`.
    pub fn new(gamma: f64) -> NumResult<Self> {
        if !(gamma > 0.0) || !gamma.is_finite() {
            return Err(NumError::Domain {
                what: "PowerUtilization requires gamma > 0",
                value: gamma,
            });
        }
        Ok(PowerUtilization { gamma })
    }

    /// The exponent.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }
}

impl UtilizationFn for PowerUtilization {
    fn phi(&self, theta: f64, mu: f64) -> f64 {
        (theta / mu).powf(self.gamma)
    }
    fn theta(&self, phi: f64, mu: f64) -> f64 {
        phi.powf(1.0 / self.gamma) * mu
    }
    fn dtheta_dphi(&self, phi: f64, mu: f64) -> f64 {
        // d/dφ [φ^{1/γ} µ]; guard the φ = 0 boundary for γ > 1 where the
        // derivative diverges — callers stay interior but tests probe edges.
        let g = 1.0 / self.gamma;
        if phi == 0.0 {
            if g >= 1.0 {
                if g == 1.0 {
                    mu
                } else {
                    0.0
                }
            } else {
                f64::INFINITY
            }
        } else {
            g * phi.powf(g - 1.0) * mu
        }
    }
    fn dtheta_dmu(&self, phi: f64, _mu: f64) -> f64 {
        phi.powf(1.0 / self.gamma)
    }
    fn d2theta_dphi2(&self, phi: f64, mu: f64) -> f64 {
        // g(g − 1) φ^{g−2} µ; γ = 1 is the linear family (and would read
        // 0 · ∞ at φ = 0 otherwise).
        let g = 1.0 / self.gamma;
        if g == 1.0 {
            0.0
        } else {
            g * (g - 1.0) * phi.powf(g - 2.0) * mu
        }
    }
    fn d2theta_dphi_dmu(&self, phi: f64, _mu: f64) -> f64 {
        // ∂Θ/∂φ is linear in µ, so the mixed partial is its value at
        // µ = 1 (boundary guards included).
        self.dtheta_dphi(phi, 1.0)
    }
    fn name(&self) -> &'static str {
        "power ((theta/mu)^gamma)"
    }
    fn boxed_clone(&self) -> Box<dyn UtilizationFn> {
        Box::new(*self)
    }
}

/// Queueing-delay-like utilization `Φ(θ, µ) = θ / (µ - θ)` for `θ < µ`,
/// the normalized M/M/1 mean queue length.
///
/// Utilization (and hence congestion) blows up as load approaches capacity,
/// which is the behaviour of real bottleneck links. The inverse is
/// `Θ(φ, µ) = φ µ / (1 + φ)` — note `Θ < µ` always: this family cannot be
/// pushed past capacity, unlike the linear one.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueueUtilization;

impl UtilizationFn for QueueUtilization {
    fn phi(&self, theta: f64, mu: f64) -> f64 {
        if theta >= mu {
            f64::INFINITY
        } else {
            theta / (mu - theta)
        }
    }
    fn theta(&self, phi: f64, mu: f64) -> f64 {
        phi * mu / (1.0 + phi)
    }
    fn dtheta_dphi(&self, phi: f64, mu: f64) -> f64 {
        mu / (1.0 + phi).powi(2)
    }
    fn dtheta_dmu(&self, phi: f64, _mu: f64) -> f64 {
        phi / (1.0 + phi)
    }
    fn d2theta_dphi2(&self, phi: f64, mu: f64) -> f64 {
        -2.0 * mu / (1.0 + phi).powi(3)
    }
    fn d2theta_dphi_dmu(&self, phi: f64, _mu: f64) -> f64 {
        1.0 / (1.0 + phi).powi(2)
    }
    fn name(&self) -> &'static str {
        "queue (theta/(mu-theta))"
    }
    fn boxed_clone(&self) -> Box<dyn UtilizationFn> {
        Box::new(*self)
    }
}

/// Numerically verifies Assumption 1 for a utilization family on a grid:
/// `Φ` increasing in `θ`, decreasing in `µ`, `Φ(0, µ) = 0`, and `Θ` is the
/// inverse of `Φ`. Returns the maximum inversion error observed.
pub fn check_assumption1(u: &dyn UtilizationFn, thetas: &[f64], mus: &[f64]) -> NumResult<f64> {
    let mut max_inv_err = 0.0f64;
    for &mu in mus {
        if !(mu > 0.0) {
            return Err(NumError::Domain { what: "capacity must be positive", value: mu });
        }
        // Φ(θ→0) = 0.
        let phi0 = u.phi(1e-300, mu);
        if !(phi0.abs() < 1e-6) {
            return Err(NumError::Domain { what: "Phi(0, mu) must vanish", value: phi0 });
        }
        let mut prev_phi: Option<f64> = None;
        for &theta in thetas {
            let phi = u.phi(theta, mu);
            if !phi.is_finite() {
                continue; // families capped at capacity (queueing) may saturate
            }
            if let Some(p) = prev_phi {
                if phi <= p {
                    return Err(NumError::Domain {
                        what: "Phi must increase in theta",
                        value: phi - p,
                    });
                }
            }
            prev_phi = Some(phi);
            // Inverse property.
            let back = u.theta(phi, mu);
            max_inv_err = max_inv_err.max((back - theta).abs() / theta.abs().max(1.0));
            // Monotone decreasing in mu.
            let phi_bigger_mu = u.phi(theta, mu * 1.5);
            if phi_bigger_mu.is_finite() && phi_bigger_mu >= phi {
                return Err(NumError::Domain {
                    what: "Phi must decrease in mu",
                    value: phi_bigger_mu - phi,
                });
            }
        }
    }
    Ok(max_inv_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcomp_num::diff::derivative;

    fn grid() -> (Vec<f64>, Vec<f64>) {
        let thetas = vec![0.05, 0.1, 0.3, 0.6, 0.9];
        let mus = vec![0.5, 1.0, 2.0];
        (thetas, mus)
    }

    #[test]
    fn linear_assumption1() {
        let (t, m) = grid();
        let err = check_assumption1(&LinearUtilization, &t, &m).unwrap();
        assert!(err < 1e-12);
    }

    #[test]
    fn power_assumption1() {
        let (t, m) = grid();
        for gamma in [0.5, 1.0, 2.0] {
            let u = PowerUtilization::new(gamma).unwrap();
            let err = check_assumption1(&u, &t, &m).unwrap();
            assert!(err < 1e-10, "gamma {gamma}: err {err}");
        }
    }

    #[test]
    fn queue_assumption1() {
        let (t, m) = grid();
        let err = check_assumption1(&QueueUtilization, &t, &m).unwrap();
        assert!(err < 1e-10);
    }

    #[test]
    fn linear_partials_exact() {
        let u = LinearUtilization;
        assert_eq!(u.theta(0.7, 2.0), 1.4);
        assert_eq!(u.dtheta_dphi(0.7, 2.0), 2.0);
        assert_eq!(u.dtheta_dmu(0.7, 2.0), 0.7);
    }

    #[test]
    fn power_partials_match_finite_difference() {
        let u = PowerUtilization::new(1.7).unwrap();
        let (phi, mu) = (0.6, 1.3);
        let dphi = derivative(&|p| u.theta(p, mu), phi).unwrap();
        let dmu = derivative(&|m| u.theta(phi, m), mu).unwrap();
        assert!((u.dtheta_dphi(phi, mu) - dphi).abs() < 1e-7);
        assert!((u.dtheta_dmu(phi, mu) - dmu).abs() < 1e-7);
    }

    #[test]
    fn queue_partials_match_finite_difference() {
        let u = QueueUtilization;
        let (phi, mu) = (2.5, 0.8);
        let dphi = derivative(&|p| u.theta(p, mu), phi).unwrap();
        let dmu = derivative(&|m| u.theta(phi, m), mu).unwrap();
        assert!((u.dtheta_dphi(phi, mu) - dphi).abs() < 1e-7);
        assert!((u.dtheta_dmu(phi, mu) - dmu).abs() < 1e-7);
    }

    #[test]
    fn queue_saturates_at_capacity() {
        let u = QueueUtilization;
        assert!(u.phi(1.0, 1.0).is_infinite());
        assert!(u.phi(2.0, 1.0).is_infinite());
        // Theta never reaches capacity.
        assert!(u.theta(1e9, 1.0) < 1.0);
    }

    #[test]
    fn power_rejects_bad_gamma() {
        assert!(PowerUtilization::new(0.0).is_err());
        assert!(PowerUtilization::new(-1.0).is_err());
        assert!(PowerUtilization::new(f64::NAN).is_err());
    }

    #[test]
    fn power_gamma_one_equals_linear() {
        let p = PowerUtilization::new(1.0).unwrap();
        for theta in [0.1, 0.5, 2.0] {
            for mu in [0.5, 1.0, 3.0] {
                assert!((p.phi(theta, mu) - LinearUtilization.phi(theta, mu)).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn boxed_clone_preserves_behaviour() {
        let u: Box<dyn UtilizationFn> = Box::new(PowerUtilization::new(2.0).unwrap());
        let c = u.clone();
        assert_eq!(u.phi(0.5, 1.0), c.phi(0.5, 1.0));
        assert_eq!(u.name(), c.name());
    }

    #[test]
    fn check_assumption1_rejects_bad_capacity() {
        assert!(check_assumption1(&LinearUtilization, &[0.1], &[0.0]).is_err());
    }
}
