//! Capacity planning: the investment extension (paper §6, future work).
//!
//! The paper's central policy argument is that subsidization raises ISP
//! margins and therefore *investment incentives*; it explicitly defers the
//! capacity-planning decision to future work. This module implements the
//! natural formalization: the ISP chooses capacity `µ` (and price) to
//! maximize long-run profit `R(p*(µ, q), µ) − c·µ` against a linear
//! capacity cost `c`, with CPs at their subsidy equilibrium throughout.
//!
//! The headline experiment (E2 of the `extensions` binary in
//! `subcomp-exp`): the optimal capacity `µ*(q)` grows with the policy cap
//! `q` — deregulated subsidization funds expansion — and expansion
//! relieves exactly the congestion-sensitive providers that short-run
//! deregulation hurt.

use crate::nash::NashSolver;
use crate::pricing::optimal_price;
use subcomp_model::system::System;
use subcomp_num::optimize::maximize_scalar;
use subcomp_num::{NumError, NumResult, Tolerance};

/// Grid of the outer capacity scan in [`CapacityPlanner::optimal_capacity`].
const MU_GRID: usize = 12;

/// The ISP's capacity decision problem.
#[derive(Debug, Clone, Copy)]
pub struct CapacityPlanner {
    /// Linear capacity cost `c` per unit of `µ`.
    pub unit_cost: f64,
    /// Price search bracket.
    pub price_range: (f64, f64),
    /// Capacity search bracket.
    pub mu_range: (f64, f64),
}

impl CapacityPlanner {
    /// Creates a planner; cost must be positive, brackets ordered.
    pub fn new(unit_cost: f64, price_range: (f64, f64), mu_range: (f64, f64)) -> NumResult<Self> {
        if !(unit_cost > 0.0) {
            return Err(NumError::Domain {
                what: "capacity cost must be positive",
                value: unit_cost,
            });
        }
        if !(price_range.1 > price_range.0) || !(mu_range.1 > mu_range.0) || !(mu_range.0 > 0.0) {
            return Err(NumError::Domain { what: "invalid search brackets", value: mu_range.0 });
        }
        Ok(CapacityPlanner { unit_cost, price_range, mu_range })
    }

    /// Long-run ISP profit at capacity `µ` under cap `q`: revenue at the
    /// re-optimized price minus capacity cost.
    pub fn profit(&self, system: &System, mu: f64, q: f64, solver: &NashSolver) -> NumResult<f64> {
        let sys = system.with_capacity(mu)?;
        let choice = optimal_price(&sys, q, self.price_range.0, self.price_range.1, solver)?;
        Ok(choice.revenue - self.unit_cost * mu)
    }

    /// Solves `max_µ R(p*(µ), µ) − c µ` for a given cap.
    pub fn optimal_capacity(
        &self,
        system: &System,
        q: f64,
        solver: &NashSolver,
    ) -> NumResult<CapacityChoice> {
        let f = |mu: f64| self.profit(system, mu, q, solver).unwrap_or(f64::NEG_INFINITY);
        let m = maximize_scalar(
            &f,
            self.mu_range.0,
            self.mu_range.1,
            MU_GRID,
            Tolerance::new(1e-4, 1e-4).with_max_iter(60),
        )?;
        let sys = system.with_capacity(m.x)?;
        let price = optimal_price(&sys, q, self.price_range.0, self.price_range.1, solver)?;
        Ok(CapacityChoice {
            mu_star: m.x,
            profit: m.value,
            p_star: price.p_star,
            revenue: price.revenue,
            equilibrium_phi: price.equilibrium.state.phi,
        })
    }
}

/// The solved capacity decision.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityChoice {
    /// Profit-maximizing capacity `µ*`.
    pub mu_star: f64,
    /// Long-run profit at `µ*`.
    pub profit: f64,
    /// The re-optimized price at `µ*`.
    pub p_star: f64,
    /// Revenue at `(µ*, p*)`.
    pub revenue: f64,
    /// Utilization at the long-run optimum.
    pub equilibrium_phi: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcomp_model::aggregation::{build_system, ExpCpSpec};

    fn small_system() -> System {
        // Four types keep the capacity tests fast.
        let specs = [
            ExpCpSpec::unit(2.0, 2.0, 0.5),
            ExpCpSpec::unit(5.0, 2.0, 1.0),
            ExpCpSpec::unit(2.0, 5.0, 1.0),
            ExpCpSpec::unit(5.0, 5.0, 0.5),
        ];
        build_system(&specs, 1.0).unwrap()
    }

    fn fast_solver() -> NashSolver {
        NashSolver::default().with_tol(1e-6).with_max_sweeps(80)
    }

    #[test]
    fn planner_validates_inputs() {
        assert!(CapacityPlanner::new(0.0, (0.0, 2.0), (0.5, 3.0)).is_err());
        assert!(CapacityPlanner::new(0.1, (2.0, 0.0), (0.5, 3.0)).is_err());
        assert!(CapacityPlanner::new(0.1, (0.0, 2.0), (0.0, 3.0)).is_err());
        assert!(CapacityPlanner::new(0.1, (0.0, 2.0), (0.5, 3.0)).is_ok());
    }

    #[test]
    fn profit_decreases_with_prohibitive_cost() {
        let sys = small_system();
        let solver = fast_solver();
        let cheap = CapacityPlanner::new(0.01, (0.0, 2.0), (0.5, 4.0)).unwrap();
        let dear = CapacityPlanner::new(0.5, (0.0, 2.0), (0.5, 4.0)).unwrap();
        let mu = 2.0;
        let pc = cheap.profit(&sys, mu, 0.5, &solver).unwrap();
        let pd = dear.profit(&sys, mu, 0.5, &solver).unwrap();
        assert!(pc > pd);
        assert!((pc - pd - (0.5 - 0.01) * mu).abs() < 1e-9);
    }

    #[test]
    fn deregulation_funds_capacity_expansion() {
        // The paper's investment-incentive claim, made quantitative:
        // mu*(q = 1) >= mu*(q = 0).
        let sys = small_system();
        let solver = fast_solver();
        let planner = CapacityPlanner::new(0.08, (0.0, 2.0), (0.4, 4.0)).unwrap();
        let reg = planner.optimal_capacity(&sys, 0.0, &solver).unwrap();
        let dereg = planner.optimal_capacity(&sys, 1.0, &solver).unwrap();
        assert!(
            dereg.mu_star >= reg.mu_star - 0.05,
            "deregulated mu* {} should not fall below regulated {}",
            dereg.mu_star,
            reg.mu_star
        );
        assert!(dereg.profit > reg.profit, "deregulation must raise long-run profit");
    }

    #[test]
    fn optimal_capacity_beats_neighbors() {
        let sys = small_system();
        let solver = fast_solver();
        let planner = CapacityPlanner::new(0.1, (0.0, 2.0), (0.4, 4.0)).unwrap();
        let choice = planner.optimal_capacity(&sys, 0.5, &solver).unwrap();
        for dmu in [-0.3, 0.3] {
            let mu = (choice.mu_star + dmu).clamp(0.4, 4.0);
            let p = planner.profit(&sys, mu, 0.5, &solver).unwrap();
            assert!(choice.profit >= p - 1e-4, "mu = {mu} earns {p} > {}", choice.profit);
        }
    }
}
