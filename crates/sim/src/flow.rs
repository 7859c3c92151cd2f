//! Stochastic flow-level simulation of the shared access link.
//!
//! The analytic model compresses all packet/flow dynamics into
//! `λ_i(φ)` and the Definition 1 fixed point. This simulator re-expands
//! one level of detail:
//!
//! * **Discrete users.** CP `i`'s user pool is an M/M/∞ birth–death
//!   process whose stationary mean is the demand level `m_i(t_i)·scale`:
//!   arrivals are Poisson at rate `churn · m_i(t_i) · scale`, each user
//!   departs at rate `churn`.
//! * **Congestion adaptation.** In [`SharingMode::Adaptive`] every active
//!   user runs at `λ_i(φ̂)` where `φ̂` is the utilization *observed one
//!   tick ago* — the lagged tâtonnement whose rest point is exactly the
//!   fixed point of Definition 1.
//! * **Emergent sharing.** In [`SharingMode::ProcessorSharing`] users
//!   instead demand their uncongested peak and the link imposes max-min
//!   fairness; per-user throughput then *emerges* from contention, and
//!   [`FlowSim::measure_curve`] extracts an empirical `λ(φ)` curve that
//!   [`crate::measured::MeasuredThroughput`] can feed back into the
//!   analytic machinery.
//!
//! The report compares simulated time-averages against the analytic
//! state — the E3 sim-vs-theory experiment.

use crate::rng::SimRng;
use crate::trace::{Series, Trace};
use subcomp_model::system::System;
use subcomp_num::{NumError, NumResult};

/// How the link allocates capacity among active users.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingMode {
    /// Users self-adapt to observed congestion via their `λ_i(φ)` (the
    /// paper's abstraction, made dynamic).
    Adaptive,
    /// Users demand their peak rate; the link enforces max-min fairness.
    /// Per-user throughput emerges from contention.
    ProcessorSharing,
}

/// Discretization: simulated users per unit of model population.
const USER_SCALE: f64 = 400.0;

/// Churn rate (per user per time unit); higher = faster mixing.
const CHURN: f64 = 1.0;

/// Tick length. `CHURN · DT` stays below 0.5, so a tick's departures
/// thin a pool without emptying it (pinned by a unit test).
const DT: f64 = 0.05;

/// Configuration for a flow-level run.
#[derive(Debug, Clone, Copy)]
pub struct FlowSimConfig {
    /// Total ticks.
    pub ticks: usize,
    /// Warm-up ticks excluded from summaries.
    pub warmup: usize,
    /// Sharing mode.
    pub mode: SharingMode,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FlowSimConfig {
    fn default() -> Self {
        FlowSimConfig { ticks: 4000, warmup: 800, mode: SharingMode::Adaptive, seed: 0xC0FFEE }
    }
}

/// Summary of a flow-level run.
#[derive(Debug, Clone)]
pub struct FlowSimReport {
    /// Time-averaged utilization (post warm-up).
    pub phi_mean: f64,
    /// 95% CI half-width of the utilization estimate.
    pub phi_ci95: f64,
    /// Time-averaged *offered load* (aggregate demand over capacity).
    /// Equals `phi_mean` in [`SharingMode::Adaptive`]; exceeds it past
    /// saturation in [`SharingMode::ProcessorSharing`], where achieved
    /// utilization pins at 1 — this is the x-axis a measurement campaign
    /// would use for congestion-response curves.
    pub offered_mean: f64,
    /// Time-averaged per-CP throughput.
    pub theta_mean: Vec<f64>,
    /// Time-averaged per-CP population (model units).
    pub m_mean: Vec<f64>,
    /// The analytic fixed point for the same effective prices.
    pub analytic_phi: f64,
    /// Analytic per-CP throughput.
    pub analytic_theta: Vec<f64>,
    /// Relative error of the simulated vs analytic utilization.
    pub phi_rel_error: f64,
    /// Full recorded trace (`phi` plus one series per CP throughput).
    pub trace: Trace,
}

/// The flow-level simulator.
#[derive(Debug, Clone)]
pub struct FlowSim<'a> {
    system: &'a System,
    effective_prices: Vec<f64>,
    cfg: FlowSimConfig,
}

impl<'a> FlowSim<'a> {
    /// Creates a simulator for a system at given per-CP effective prices.
    pub fn new(
        system: &'a System,
        effective_prices: Vec<f64>,
        cfg: FlowSimConfig,
    ) -> NumResult<Self> {
        if effective_prices.len() != system.n() {
            return Err(NumError::DimensionMismatch {
                expected: system.n(),
                actual: effective_prices.len(),
            });
        }
        Ok(FlowSim { system, effective_prices, cfg })
    }

    /// Runs the simulation and summarizes against the analytic model.
    pub fn run(&self) -> NumResult<FlowSimReport> {
        self.run_at(1.0)
    }

    /// [`FlowSim::run`] with every CP's target population multiplied by
    /// `load` — how [`FlowSim::measure_curve`] sweeps the link through
    /// utilization levels without touching prices.
    fn run_at(&self, load: f64) -> NumResult<FlowSimReport> {
        let n = self.system.n();
        let cfg = &self.cfg;
        let mut rng = SimRng::new(cfg.seed);
        let targets: Vec<f64> = self
            .system
            .populations(&self.effective_prices)?
            .iter()
            .map(|m| m * load * USER_SCALE)
            .collect();
        // Start pools at their stationary means to shorten warm-up.
        let mut users: Vec<u64> = targets.iter().map(|t| t.round().max(0.0) as u64).collect();

        let mut trace = Trace::new();
        let phi_idx = trace.add(Series::new("phi", cfg.warmup));
        let offered_idx = trace.add(Series::new("offered", cfg.warmup));
        let theta_idx: Vec<usize> =
            (0..n).map(|i| trace.add(Series::new(format!("theta_{i}"), cfg.warmup))).collect();
        let m_idx: Vec<usize> =
            (0..n).map(|i| trace.add(Series::new(format!("m_{i}"), cfg.warmup))).collect();

        let mut phi_hat = 0.0; // last observed utilization
        for _ in 0..cfg.ticks {
            // Birth-death churn toward the demand target.
            for i in 0..n {
                let arrivals = rng.poisson(CHURN * targets[i] * DT);
                let departures = rng.poisson(CHURN * users[i] as f64 * DT).min(users[i]);
                users[i] = users[i] + arrivals - departures;
            }
            // Per-user rates under the sharing mode.
            let mut theta = vec![0.0; n];
            let offered: f64;
            match cfg.mode {
                SharingMode::Adaptive => {
                    for i in 0..n {
                        let rate = self.system.cp(i).lambda(phi_hat);
                        theta[i] = users[i] as f64 / USER_SCALE * rate;
                    }
                    // Adaptive users offer exactly what they achieve.
                    offered = theta.iter().sum::<f64>() / self.system.mu();
                }
                SharingMode::ProcessorSharing => {
                    // Max-min fairness with homogeneous peaks per CP class:
                    // water-fill the capacity across users.
                    let peaks: Vec<f64> =
                        (0..n).map(|i| self.system.cp(i).throughput().peak()).collect();
                    let capacity = self.system.mu() * USER_SCALE;
                    let fair = waterfill(&users, &peaks, capacity);
                    let mut demand = 0.0;
                    for i in 0..n {
                        theta[i] = users[i] as f64 / USER_SCALE * peaks[i].min(fair);
                        demand += users[i] as f64 / USER_SCALE * peaks[i];
                    }
                    offered = demand / self.system.mu();
                }
            }
            let total_theta: f64 = theta.iter().sum();
            let phi = self.system.utilization_fn().phi(total_theta.max(1e-300), self.system.mu());
            let phi = if phi.is_finite() { phi } else { phi_hat };
            // Record.
            trace.series_mut(phi_idx).push(phi);
            trace.series_mut(offered_idx).push(offered);
            for i in 0..n {
                trace.series_mut(theta_idx[i]).push(theta[i]);
                trace.series_mut(m_idx[i]).push(users[i] as f64 / USER_SCALE);
            }
            phi_hat = phi;
        }

        // Analytic reference at the same (multiplied) demand level.
        let analytic_m: Vec<f64> =
            self.system.populations(&self.effective_prices)?.iter().map(|m| m * load).collect();
        let analytic = self.system.solve_state(&analytic_m)?;
        let phi_mean = trace.series(phi_idx).mean();
        let report = FlowSimReport {
            phi_mean,
            phi_ci95: trace.series(phi_idx).ci95(),
            offered_mean: trace.series(offered_idx).mean(),
            theta_mean: theta_idx.iter().map(|&k| trace.series(k).mean()).collect(),
            m_mean: m_idx.iter().map(|&k| trace.series(k).mean()).collect(),
            analytic_phi: analytic.phi,
            analytic_theta: analytic.theta_i.clone(),
            phi_rel_error: subcomp_num::stats::relative_error(phi_mean, analytic.phi, 1e-9),
            trace,
        };
        Ok(report)
    }

    /// Measures an empirical per-user-throughput vs congestion curve by
    /// sweeping the demand scale in [`SharingMode::ProcessorSharing`].
    ///
    /// Returns `(offered_load, per_user_rate)` pairs for CP `cp_index`,
    /// sorted by offered load — the raw material for
    /// [`crate::measured::MeasuredThroughput`]. Offered load is the
    /// congestion axis (achieved utilization saturates at 1 under
    /// processor sharing, offered load keeps growing past it).
    pub fn measure_curve(&self, cp_index: usize, scales: &[f64]) -> NumResult<Vec<(f64, f64)>> {
        if cp_index >= self.system.n() {
            return Err(NumError::DimensionMismatch {
                expected: self.system.n(),
                actual: cp_index,
            });
        }
        let mut out = Vec::with_capacity(scales.len());
        for (k, &scale) in scales.iter().enumerate() {
            if !(scale > 0.0) {
                return Err(NumError::Domain {
                    what: "demand scale must be positive",
                    value: scale,
                });
            }
            let cfg = FlowSimConfig {
                mode: SharingMode::ProcessorSharing,
                seed: self.cfg.seed.wrapping_add(k as u64),
                ..self.cfg
            };
            let sim = FlowSim {
                system: self.system,
                effective_prices: self.effective_prices.clone(),
                cfg,
            };
            let rep = sim.run_at(scale)?;
            let m_i = rep.m_mean[cp_index].max(1e-12);
            out.push((rep.offered_mean, rep.theta_mean[cp_index] / m_i));
        }
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        Ok(out)
    }
}

/// Max-min fair share: the water level `r` with
/// `Σ_i users_i · min(peak_i, r) = capacity` (or `r = max peak` if the
/// link is underloaded).
fn waterfill(users: &[u64], peaks: &[f64], capacity: f64) -> f64 {
    let total_demand: f64 = users.iter().zip(peaks).map(|(&u, &p)| u as f64 * p).sum();
    if total_demand <= capacity {
        return peaks.iter().copied().fold(0.0, f64::max);
    }
    // Bisection on the water level.
    let mut lo = 0.0;
    let mut hi = peaks.iter().copied().fold(0.0, f64::max);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        let used: f64 = users.iter().zip(peaks).map(|(&u, &p)| u as f64 * p.min(mid)).sum();
        if used > capacity {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcomp_model::aggregation::{build_system, ExpCpSpec};

    fn test_system() -> System {
        build_system(
            &[
                ExpCpSpec::unit(2.0, 2.0, 1.0),
                ExpCpSpec::unit(5.0, 5.0, 0.5),
                ExpCpSpec::unit(3.0, 1.0, 1.0),
            ],
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn adaptive_mode_recovers_fixed_point() {
        // The headline validation: simulated mean utilization matches the
        // Definition 1 fixed point within a few percent.
        let sys = test_system();
        let sim = FlowSim::new(&sys, vec![0.5; 3], FlowSimConfig::default()).unwrap();
        let rep = sim.run().unwrap();
        assert!(
            rep.phi_rel_error < 0.03,
            "phi sim {} vs analytic {} (rel err {})",
            rep.phi_mean,
            rep.analytic_phi,
            rep.phi_rel_error
        );
        // Per-CP throughputs close too.
        for i in 0..3 {
            let err =
                subcomp_num::stats::relative_error(rep.theta_mean[i], rep.analytic_theta[i], 1e-9);
            assert!(
                err < 0.06,
                "CP {i}: sim {} vs analytic {}",
                rep.theta_mean[i],
                rep.analytic_theta[i]
            );
        }
    }

    #[test]
    fn populations_track_demand() {
        let sys = test_system();
        let prices = vec![0.3, 0.8, 0.1];
        let sim = FlowSim::new(&sys, prices.clone(), FlowSimConfig::default()).unwrap();
        let rep = sim.run().unwrap();
        let expect = sys.populations(&prices).unwrap();
        for i in 0..3 {
            // CP 1's population at t = 0.8 is ~0.018, i.e. ~7 simulated
            // users: allow the Poisson noise its due.
            let err = subcomp_num::stats::relative_error(rep.m_mean[i], expect[i], 1e-9);
            assert!(err < 0.10, "CP {i}: sim m {} vs demand {}", rep.m_mean[i], expect[i]);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let sys = test_system();
        let a = FlowSim::new(&sys, vec![0.5; 3], FlowSimConfig::default()).unwrap().run().unwrap();
        let b = FlowSim::new(&sys, vec![0.5; 3], FlowSimConfig::default()).unwrap().run().unwrap();
        assert_eq!(a.phi_mean, b.phi_mean);
        let c = FlowSim::new(&sys, vec![0.5; 3], FlowSimConfig { seed: 9, ..Default::default() })
            .unwrap()
            .run()
            .unwrap();
        assert_ne!(a.phi_mean, c.phi_mean);
    }

    #[test]
    fn subsidy_lowers_effective_price_and_raises_usage() {
        let sys = test_system();
        let base =
            FlowSim::new(&sys, vec![0.6; 3], FlowSimConfig::default()).unwrap().run().unwrap();
        let subsidized = FlowSim::new(&sys, vec![0.6, 0.2, 0.6], FlowSimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        assert!(subsidized.m_mean[1] > base.m_mean[1]);
        assert!(subsidized.phi_mean > base.phi_mean);
    }

    #[test]
    fn processor_sharing_under_and_overload() {
        let sys = test_system();
        // Very high price: few users, no contention -> everyone at peak.
        let light = FlowSim::new(
            &sys,
            vec![3.0; 3],
            FlowSimConfig { mode: SharingMode::ProcessorSharing, ..Default::default() },
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(light.phi_mean < 0.6);
        // Negative effective price (heavy subsidy): overload, fairness caps.
        let heavy = FlowSim::new(
            &sys,
            vec![-0.3; 3],
            FlowSimConfig { mode: SharingMode::ProcessorSharing, ..Default::default() },
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(
            heavy.phi_mean <= 1.0 + 1e-9,
            "PS cannot exceed capacity, phi = {}",
            heavy.phi_mean
        );
        assert!(heavy.phi_mean > light.phi_mean);
    }

    #[test]
    fn measured_curve_is_decreasing() {
        // Scales straddle the saturation point (total peak demand at
        // t = 0.2 is ~1.62, so the PS link saturates at scale ~0.62): the
        // offered-load axis keeps growing past it while the per-user rate
        // flattens below and falls above.
        let sys = test_system();
        let cfg = FlowSimConfig { ticks: 1500, warmup: 400, ..Default::default() };
        let sim = FlowSim::new(&sys, vec![0.2; 3], cfg).unwrap();
        let curve = sim.measure_curve(0, &[0.3, 0.6, 1.0, 1.5, 2.0]).unwrap();
        assert_eq!(curve.len(), 5);
        for w in curve.windows(2) {
            assert!(w[0].0 < w[1].0, "offered load must increase with demand scale: {curve:?}");
            assert!(w[0].1 >= w[1].1 - 1e-9, "per-user rate must not increase with load");
        }
        // The overloaded tail is strictly contention-limited: rate ~ 1/load.
        let last = curve.len() - 1;
        assert!(curve[last].1 < curve[1].1, "deep overload must cut the per-user rate");
    }

    #[test]
    fn waterfill_underload_gives_peaks() {
        let r = waterfill(&[10, 10], &[1.0, 2.0], 100.0);
        assert_eq!(r, 2.0);
    }

    #[test]
    fn waterfill_overload_conserves_capacity() {
        let users = [30u64, 10];
        let peaks = [1.0, 2.0];
        let cap = 25.0;
        let r = waterfill(&users, &peaks, cap);
        let used: f64 = users.iter().zip(&peaks).map(|(&u, &p)| u as f64 * p.min(r)).sum();
        assert!((used - cap).abs() < 1e-6, "used {used} vs cap {cap}");
    }

    #[test]
    fn config_validation() {
        let sys = test_system();
        assert!(FlowSim::new(&sys, vec![0.5; 2], FlowSimConfig::default()).is_err());
    }

    // A test, not a `const` assertion: rust-version 1.80 allows no float
    // arithmetic in const contexts.
    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn birth_death_step_is_stable() {
        // A tick's departures are Poisson(CHURN · users · DT): past a
        // rate of 0.5 per user they routinely empty a pool in one tick.
        assert!(USER_SCALE > 0.0 && CHURN > 0.0 && DT > 0.0);
        assert!(CHURN * DT < 0.5, "churn · dt = {}", CHURN * DT);
    }
}
