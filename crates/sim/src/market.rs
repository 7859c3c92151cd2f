//! Agent-based market simulation.
//!
//! The paper's equilibrium analysis presumes rational, instantaneous
//! adjustment; §6 concedes it cannot capture "short-term off-equilibrium
//! types of system dynamics, where players' decisions are not rational or
//! optimal". This simulator provides exactly that missing layer:
//!
//! * **Users** churn gradually: each day the population relaxes 45% of
//!   the way toward the demand level `m_i(t_i)`, with multiplicative
//!   noise — nobody re-reads the price sheet daily.
//! * **CPs** know neither the demand curves nor each other's strategies.
//!   Each review period, one CP (round-robin) runs an A/B experiment on
//!   its own subsidy: it perturbs `s_i` by `±step`, observes realized
//!   profit `(v_i − s_i)·volume` over the next period, and keeps the
//!   perturbation only if profit improved. Steps decay over time.
//! * **Money** is settled daily by [`crate::billing::Ledger`].
//!
//! Despite all this myopia, the long-run subsidies land near the analytic
//! Nash equilibrium — the strongest validation the repository offers that
//! the paper's static solution concept describes where a decentralized
//! market actually goes.

use crate::billing::Ledger;
use crate::rng::SimRng;
use crate::trace::{Series, Trace};
use subcomp_core::game::SubsidyGame;
use subcomp_core::nash::NashSolver;
use subcomp_num::{NumError, NumResult};

/// Daily population adjustment fraction: high enough that populations
/// mostly re-equilibrate within one review period, keeping A/B profit
/// comparisons honest.
const ADJUST_RATE: f64 = 0.45;

/// Population noise amplitude (multiplicative, per day).
const NOISE: f64 = 0.0015;

/// Days between one CP's subsidy experiments.
const REVIEW_PERIOD: usize = 6;

/// Initial experiment step.
const INITIAL_STEP: f64 = 0.1;

/// Multiplicative step decay applied after each full CP rotation. Slow:
/// the climb must be able to travel the full strategy box (sum of
/// accepted steps ≈ initial/(1-decay)/2) before the step collapses.
const STEP_DECAY: f64 = 0.99;

/// Configuration for the market simulation.
#[derive(Debug, Clone, Copy)]
pub struct MarketSimConfig {
    /// Days to simulate.
    pub days: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MarketSimConfig {
    fn default() -> Self {
        MarketSimConfig { days: 6000, seed: 0xBEEF }
    }
}

/// Result of a market simulation run.
#[derive(Debug, Clone)]
pub struct MarketSimReport {
    /// Final subsidies after the last day.
    pub final_subsidies: Vec<f64>,
    /// The analytic Nash equilibrium for the same `(p, q)`.
    pub nash_subsidies: Vec<f64>,
    /// Sup-norm distance between the two.
    pub distance_to_nash: f64,
    /// Cumulative settled ledger over the whole run.
    pub ledger: Ledger,
    /// Day-indexed traces: utilization plus one subsidy series per CP.
    pub trace: Trace,
}

/// The agent-based market simulator.
#[derive(Debug, Clone)]
pub struct MarketSim<'a> {
    game: &'a SubsidyGame,
    cfg: MarketSimConfig,
}

impl<'a> MarketSim<'a> {
    /// Creates a simulator over a game (price and cap fixed for the run).
    pub fn new(game: &'a SubsidyGame, cfg: MarketSimConfig) -> NumResult<Self> {
        if cfg.days == 0 {
            return Err(NumError::Domain { what: "days must be positive", value: 0.0 });
        }
        Ok(MarketSim { game, cfg })
    }

    /// Runs the simulation and compares against the analytic equilibrium
    /// (solved internally at tolerance 1e-8).
    pub fn run(&self) -> NumResult<MarketSimReport> {
        let nash = NashSolver::default().with_tol(1e-8).solve(self.game)?;
        self.run_against(&nash.subsidies)
    }

    /// Runs the simulation comparing against a caller-supplied reference
    /// profile — typically an already-solved Nash equilibrium. Skips the
    /// internal re-solve, so batch runners (the scenario corpus, sweeps)
    /// measure distance against *exactly* the equilibrium they snapshot.
    pub fn run_against(&self, nash_subsidies: &[f64]) -> NumResult<MarketSimReport> {
        let game = self.game;
        let cfg = &self.cfg;
        let n = game.n();
        if nash_subsidies.len() != n {
            return Err(NumError::DimensionMismatch { expected: n, actual: nash_subsidies.len() });
        }
        let mut rng = SimRng::new(cfg.seed);

        // Start at the no-subsidy baseline with populations at demand.
        let mut s = vec![0.0; n];
        let mut m = game.system().populations(&game.effective_prices(&s))?;
        let mut step = INITIAL_STEP;

        let mut trace = Trace::new();
        let phi_idx = trace.add(Series::new("phi", cfg.days / 4));
        let s_idx: Vec<usize> =
            (0..n).map(|i| trace.add(Series::new(format!("s_{i}"), cfg.days / 4))).collect();

        let mut ledger = Ledger::settle(&vec![0.0; n], 1.0, game.price(), &s)?;
        // Experiment state: the CP currently mid-experiment, its baseline
        // profit and pre-experiment subsidy.
        let mut experiment: Option<(usize, f64, f64)> = None;
        let mut rotation = 0usize;
        let mut profit_window = vec![0.0; n];
        let mut window_days = 0usize;

        for day in 0..cfg.days {
            // 1. Users churn toward the demand level (with noise).
            let targets = game.system().populations(&game.effective_prices(&s))?;
            for i in 0..n {
                let noise = 1.0 + NOISE * rng.gaussian(0.0, 1.0);
                m[i] += ADJUST_RATE * (targets[i] - m[i]);
                m[i] = (m[i] * noise).max(0.0);
            }
            // 2. The network settles within the day (fixed point at m).
            let state = game.system().solve_state(&m)?;
            // 3. Settle money and accumulate per-CP realized profits.
            let daily = Ledger::settle(&state.theta_i, 1.0, game.price(), &s)?;
            ledger.merge(&daily)?;
            for i in 0..n {
                profit_window[i] += (game.profitability(i) - s[i]) * state.theta_i[i];
            }
            window_days += 1;
            // 4. Record.
            trace.series_mut(phi_idx).push(state.phi);
            for i in 0..n {
                trace.series_mut(s_idx[i]).push(s[i]);
            }
            // 5. Subsidy experiments at review boundaries.
            if (day + 1) % REVIEW_PERIOD == 0 {
                let avg_profit: Vec<f64> =
                    profit_window.iter().map(|p| p / window_days as f64).collect();
                match experiment.take() {
                    None => {
                        // Start a new experiment for the next CP in rotation.
                        let i = rotation % n;
                        rotation += 1;
                        if rotation % n == 0 {
                            step *= STEP_DECAY;
                        }
                        let cap = game.effective_cap(i);
                        if cap > 0.0 {
                            let dir = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
                            let trial = (s[i] + dir * step).clamp(0.0, cap);
                            if (trial - s[i]).abs() > 1e-12 {
                                experiment = Some((i, avg_profit[i], s[i]));
                                s[i] = trial;
                            }
                        }
                    }
                    Some((i, baseline_profit, old_s)) => {
                        // Judge the experiment on realized profit.
                        if avg_profit[i] < baseline_profit {
                            s[i] = old_s; // revert
                        }
                    }
                }
                profit_window.iter_mut().for_each(|p| *p = 0.0);
                window_days = 0;
            }
        }

        let distance_to_nash =
            s.iter().zip(nash_subsidies).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        Ok(MarketSimReport {
            final_subsidies: s,
            nash_subsidies: nash_subsidies.to_vec(),
            distance_to_nash,
            ledger,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcomp_model::aggregation::{build_system, ExpCpSpec};

    fn two_cp_game() -> SubsidyGame {
        let specs = [ExpCpSpec::unit(5.0, 2.0, 1.0), ExpCpSpec::unit(2.0, 4.0, 0.4)];
        SubsidyGame::new(build_system(&specs, 1.0).unwrap(), 0.7, 1.0).unwrap()
    }

    #[test]
    fn market_converges_near_nash() {
        let game = two_cp_game();
        let report = MarketSim::new(&game, MarketSimConfig::default()).unwrap().run().unwrap();
        assert!(
            report.distance_to_nash < 0.1,
            "final {:?} vs nash {:?} (dist {})",
            report.final_subsidies,
            report.nash_subsidies,
            report.distance_to_nash
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let game = two_cp_game();
        let a = MarketSim::new(&game, MarketSimConfig { days: 300, ..Default::default() })
            .unwrap()
            .run()
            .unwrap();
        let b = MarketSim::new(&game, MarketSimConfig { days: 300, ..Default::default() })
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(a.final_subsidies, b.final_subsidies);
    }

    #[test]
    fn ledger_conserves_money() {
        let game = two_cp_game();
        let report = MarketSim::new(&game, MarketSimConfig { days: 400, ..Default::default() })
            .unwrap()
            .run()
            .unwrap();
        assert!(report.ledger.conservation_error() < 1e-6 * report.ledger.isp_revenue.abs());
        assert!(report.ledger.isp_revenue > 0.0);
    }

    #[test]
    fn zero_cap_market_never_subsidizes() {
        let specs = [ExpCpSpec::unit(5.0, 2.0, 1.0), ExpCpSpec::unit(2.0, 4.0, 0.4)];
        let game = SubsidyGame::new(build_system(&specs, 1.0).unwrap(), 0.7, 0.0).unwrap();
        let report = MarketSim::new(&game, MarketSimConfig { days: 300, ..Default::default() })
            .unwrap()
            .run()
            .unwrap();
        assert!(report.final_subsidies.iter().all(|&s| s == 0.0));
        assert!(report.distance_to_nash < 1e-12);
    }

    #[test]
    fn config_validation() {
        let game = two_cp_game();
        let bad = MarketSimConfig { days: 0, ..Default::default() };
        assert!(MarketSim::new(&game, bad).is_err());
    }

    #[test]
    fn run_against_matches_run_and_checks_arity() {
        let game = two_cp_game();
        let cfg = MarketSimConfig { days: 300, ..Default::default() };
        let sim = MarketSim::new(&game, cfg).unwrap();
        let auto = sim.run().unwrap();
        let manual = sim.run_against(&auto.nash_subsidies).unwrap();
        // Same trajectory (the reference only affects the comparison).
        assert_eq!(auto.final_subsidies, manual.final_subsidies);
        assert_eq!(auto.distance_to_nash, manual.distance_to_nash);
        assert!(sim.run_against(&[0.0; 5]).is_err(), "wrong arity must be rejected");
    }

    #[test]
    fn trace_has_expected_series() {
        let game = two_cp_game();
        let report = MarketSim::new(&game, MarketSimConfig { days: 100, ..Default::default() })
            .unwrap()
            .run()
            .unwrap();
        assert!(report.trace.by_name("phi").is_some());
        assert!(report.trace.by_name("s_0").is_some());
        assert!(report.trace.by_name("s_1").is_some());
        assert_eq!(report.trace.by_name("phi").unwrap().samples().len(), 100);
    }
}
