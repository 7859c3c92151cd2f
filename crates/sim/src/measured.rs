//! Feeding simulator-measured curves back into the analytic model.
//!
//! [`MeasuredThroughput`] wraps an empirical `(φ, per-user rate)` curve —
//! e.g. from [`crate::flow::FlowSim::measure_curve`] — as a
//! [`ThroughputFn`], closing the loop: *measure* the congestion response
//! of a (simulated) real link, then run every piece of the paper's
//! analysis on the measured curve instead of the stylized exponential.
//!
//! Assumption 1 requires `λ` strictly decreasing with a vanishing tail;
//! raw measurements are noisy and bounded, so construction (a) enforces
//! monotonicity by isotonic pruning, (b) interpolates with a monotone
//! cubic, and (c) extrapolates beyond the last knot with an exponential
//! tail matched to the end slope.

use subcomp_model::throughput::ThroughputFn;
use subcomp_num::interp::MonotoneCubic;
use subcomp_num::{NumError, NumResult};

/// A throughput function backed by measured samples.
#[derive(Debug, Clone)]
pub struct MeasuredThroughput {
    curve: MonotoneCubic,
    /// Last knot (start of the extrapolated tail).
    phi_max: f64,
    /// Value at the last knot.
    lambda_end: f64,
    /// Tail decay rate.
    tail_rate: f64,
    /// Value at φ = 0 (peak).
    peak: f64,
}

impl MeasuredThroughput {
    /// Builds from `(φ, rate)` samples (any order). Requires at least
    /// three distinct φ values and positive rates.
    pub fn from_samples(samples: &[(f64, f64)]) -> NumResult<Self> {
        if samples.len() < 3 {
            return Err(NumError::Empty { what: "MeasuredThroughput needs >= 3 samples" });
        }
        let mut pts: Vec<(f64, f64)> = samples.to_vec();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN in samples"));
        for &(phi, rate) in &pts {
            if !(phi >= 0.0) || !phi.is_finite() || !(rate > 0.0) || !rate.is_finite() {
                return Err(NumError::Domain {
                    what: "samples must have phi >= 0, rate > 0",
                    value: rate,
                });
            }
        }
        // Isotonic pruning: enforce strictly decreasing rates by dropping
        // any point that does not strictly decrease (noise-tolerant).
        let mut xs = vec![pts[0].0];
        let mut ys = vec![pts[0].1];
        for &(phi, rate) in &pts[1..] {
            if phi > *xs.last().unwrap() + 1e-12 && rate < *ys.last().unwrap() * (1.0 - 1e-9) {
                xs.push(phi);
                ys.push(rate);
            }
        }
        if xs.len() < 3 {
            return Err(NumError::Domain {
                what: "samples must contain >= 3 strictly decreasing points",
                value: xs.len() as f64,
            });
        }
        // Anchor a phi = 0 knot if the data starts later (flat extension).
        if xs[0] > 0.0 {
            xs.insert(0, 0.0);
            ys.insert(0, ys[0] * 1.0001);
        }
        let n = xs.len();
        let phi_max = xs[n - 1];
        let lambda_end = ys[n - 1];
        // Tail decay matched to the last secant slope, floored so the tail
        // actually vanishes.
        let end_slope = (ys[n - 2] - ys[n - 1]) / (xs[n - 1] - xs[n - 2]);
        let tail_rate = (end_slope / lambda_end).max(0.1);
        let peak = ys[0];
        let curve = MonotoneCubic::new(xs, ys)?;
        Ok(MeasuredThroughput { curve, phi_max, lambda_end, tail_rate, peak })
    }
}

impl ThroughputFn for MeasuredThroughput {
    fn lambda(&self, phi: f64) -> f64 {
        if phi <= self.phi_max {
            // The trait returns a bare f64; a non-finite query propagates
            // as NaN, matching the analytic `ThroughputFn` families.
            self.curve.eval(phi).unwrap_or(f64::NAN)
        } else {
            self.lambda_end * (-self.tail_rate * (phi - self.phi_max)).exp()
        }
    }
    fn dlambda_dphi(&self, phi: f64) -> f64 {
        if phi <= self.phi_max {
            // The monotone cubic derivative can be exactly zero on flat
            // segments; nudge it negative so Lemma 1's strict monotonicity
            // survives.
            let d = self.curve.derivative(phi).unwrap_or(f64::NAN);
            if d < -1e-12 {
                d
            } else {
                -1e-9 * self.peak
            }
        } else {
            -self.tail_rate * self.lambda(phi)
        }
    }
    fn d2lambda_dphi2(&self, phi: f64) -> f64 {
        if phi <= self.phi_max {
            // The nudged flat segments have a constant slope.
            let d = self.curve.derivative(phi).unwrap_or(f64::NAN);
            if d < -1e-12 {
                self.curve.second_derivative(phi).unwrap_or(f64::NAN)
            } else {
                0.0
            }
        } else {
            self.tail_rate * self.tail_rate * self.lambda(phi)
        }
    }
    fn name(&self) -> &'static str {
        "measured"
    }
    fn boxed_clone(&self) -> Box<dyn ThroughputFn> {
        Box::new(self.clone())
    }
    fn scaled(&self, kappa: f64) -> Box<dyn ThroughputFn> {
        let mut scaled = self.clone();
        // Rescale the stored curve by reconstructing from scaled samples.
        let knots: Vec<(f64, f64)> = (0..=40)
            .map(|k| {
                let phi = self.phi_max * k as f64 / 40.0;
                (phi, self.lambda(phi) * kappa)
            })
            .collect();
        if let Ok(m) = MeasuredThroughput::from_samples(&knots) {
            scaled = m;
        }
        Box::new(scaled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp_samples(beta: f64, n: usize, phi_max: f64) -> Vec<(f64, f64)> {
        (0..=n)
            .map(|k| {
                let phi = phi_max * k as f64 / n as f64;
                (phi, (-beta * phi).exp())
            })
            .collect()
    }

    #[test]
    fn reproduces_exponential_within_range() {
        let m = MeasuredThroughput::from_samples(&exp_samples(2.0, 20, 2.0)).unwrap();
        for k in 0..50 {
            let phi = k as f64 * 0.04;
            let err = (m.lambda(phi) - (-2.0 * phi).exp()).abs();
            assert!(err < 5e-3, "phi {phi}: err {err}");
        }
    }

    #[test]
    fn tail_vanishes() {
        let m = MeasuredThroughput::from_samples(&exp_samples(2.0, 10, 1.5)).unwrap();
        assert!(m.lambda(50.0) < 1e-3);
        assert!(m.lambda(8.0) < m.lambda(2.0));
    }

    #[test]
    fn strictly_decreasing_everywhere() {
        let m = MeasuredThroughput::from_samples(&exp_samples(3.0, 15, 2.0)).unwrap();
        let mut prev = m.lambda(0.0);
        for k in 1..200 {
            let phi = k as f64 * 0.025;
            let cur = m.lambda(phi);
            assert!(cur < prev + 1e-12, "not decreasing at {phi}");
            prev = cur;
        }
    }

    #[test]
    fn derivative_negative() {
        let m = MeasuredThroughput::from_samples(&exp_samples(2.0, 15, 2.0)).unwrap();
        for k in 0..100 {
            let phi = k as f64 * 0.05;
            assert!(m.dlambda_dphi(phi) < 0.0, "derivative not negative at {phi}");
        }
    }

    #[test]
    fn second_derivative_matches_difference_of_slope() {
        let m = MeasuredThroughput::from_samples(&exp_samples(2.0, 15, 2.0)).unwrap();
        // Off the knots (spacing 2/15) and on both sides of the tail start.
        for phi in [0.05, 0.31, 0.72, 1.1, 1.55, 1.9, 2.4, 3.7] {
            let h = 1e-6;
            let fd = (m.dlambda_dphi(phi + h) - m.dlambda_dphi(phi - h)) / (2.0 * h);
            let an = m.d2lambda_dphi2(phi);
            assert!((an - fd).abs() < 1e-5 * (1.0 + fd.abs()), "phi {phi}: {an} vs {fd}");
        }
    }

    #[test]
    fn tolerates_noisy_non_monotone_samples() {
        let mut s = exp_samples(2.0, 20, 2.0);
        s[5].1 *= 1.2; // a noise spike that breaks monotonicity
        s[11].1 *= 1.15;
        let m = MeasuredThroughput::from_samples(&s).unwrap();
        let mut prev = m.lambda(0.0);
        for k in 1..80 {
            let phi = k as f64 * 0.025;
            let cur = m.lambda(phi);
            assert!(cur <= prev + 1e-9);
            prev = cur;
        }
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(MeasuredThroughput::from_samples(&[(0.0, 1.0), (1.0, 0.5)]).is_err());
        assert!(MeasuredThroughput::from_samples(&[(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]).is_err());
        assert!(MeasuredThroughput::from_samples(&[(0.0, -1.0), (1.0, 0.5), (2.0, 0.2)]).is_err());
    }

    #[test]
    fn usable_inside_a_system() {
        // End-to-end: a System built on a measured curve still solves its
        // fixed point (Definition 1 on measured physics).
        use subcomp_model::cp::ContentProvider;
        use subcomp_model::demand::ExpDemand;
        use subcomp_model::system::System;
        use subcomp_model::utilization::LinearUtilization;

        let measured = MeasuredThroughput::from_samples(&exp_samples(3.0, 20, 2.5)).unwrap();
        let cp = ContentProvider::builder("measured-cp")
            .demand(ExpDemand::new(1.0, 2.0))
            .throughput(measured)
            .profitability(1.0)
            .build();
        let sys = System::new(vec![cp], 1.0, LinearUtilization).unwrap();
        let state = sys.state_at_uniform_price(0.4).unwrap();
        assert!(state.phi > 0.0);
        assert!(state.residual(&sys) < 1e-8);
        // Close to the true exponential system's fixed point.
        let exact = {
            use subcomp_model::throughput::ExpThroughput;
            let cp = ContentProvider::builder("exact")
                .demand(ExpDemand::new(1.0, 2.0))
                .throughput(ExpThroughput::new(1.0, 3.0))
                .profitability(1.0)
                .build();
            System::new(vec![cp], 1.0, LinearUtilization)
                .unwrap()
                .state_at_uniform_price(0.4)
                .unwrap()
                .phi
        };
        assert!((state.phi - exact).abs() < 0.01, "measured {} vs exact {exact}", state.phi);
    }

    #[test]
    fn scaled_preserves_shape() {
        let m = MeasuredThroughput::from_samples(&exp_samples(2.0, 15, 2.0)).unwrap();
        let s = m.scaled(2.0);
        for k in 0..20 {
            let phi = k as f64 * 0.1;
            assert!((s.lambda(phi) - 2.0 * m.lambda(phi)).abs() < 0.02 * m.lambda(phi).max(1e-9));
        }
    }
}
