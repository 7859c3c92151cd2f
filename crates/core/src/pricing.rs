//! The ISP's pricing decision `p*(q)` (Section 5).
//!
//! Under policy `q` the ISP sets the price that maximizes revenue *given*
//! the CPs' equilibrium subsidy response: `p*(q) = argmax_p p·θ(s(p, q))`.
//! The paper observes (Figure 7) that with `q = 2` the optimum sits a bit
//! below `p = 1`, where subsidies are still held high. Endogenizing `p(q)`
//! is what turns Corollary 1's "deregulation is good" into Theorem 8's
//! more cautious "deregulation may trigger a price increase".

use crate::game::SubsidyGame;
use crate::nash::{NashSolution, NashSolver};
use subcomp_model::system::System;
use subcomp_num::optimize::maximize_multistart;
use subcomp_num::{NumResult, Tolerance};

/// The ISP's optimal price under a policy cap.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceChoice {
    /// Revenue-maximizing price `p*`.
    pub p_star: f64,
    /// Revenue at `p*`.
    pub revenue: f64,
    /// The CP equilibrium at `(p*, q)`.
    pub equilibrium: NashSolution,
}

/// Finds `p*(q)` on `[lo, hi]` for a system under cap `q`.
///
/// Every objective evaluation solves a Nash equilibrium; the search uses a
/// modest multi-start grid, which is robust to the kinks that appear in
/// `R(p)` where providers enter/leave the cap.
pub fn optimal_price(
    system: &System,
    q: f64,
    lo: f64,
    hi: f64,
    solver: &NashSolver,
) -> NumResult<PriceChoice> {
    let objective = |p: f64| -> f64 {
        SubsidyGame::new(system.clone(), p, q)
            .and_then(|g| solver.solve(&g))
            .map(|eq| p * eq.state.theta())
            .unwrap_or(f64::NEG_INFINITY)
    };
    let m = maximize_multistart(&objective, lo, hi, 3, 24, Tolerance::new(1e-7, 1e-7))?;
    let game = SubsidyGame::new(system.clone(), m.x, q)?;
    let equilibrium = solver.solve(&game)?;
    Ok(PriceChoice { p_star: m.x, revenue: m.value, equilibrium })
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcomp_model::aggregation::{build_system, ExpCpSpec};

    fn paper_system() -> System {
        let mut specs = Vec::new();
        for &v in &[0.5, 1.0] {
            for &alpha in &[2.0, 5.0] {
                for &beta in &[2.0, 5.0] {
                    specs.push(ExpCpSpec::unit(alpha, beta, v));
                }
            }
        }
        build_system(&specs, 1.0).unwrap()
    }

    fn fast_solver() -> NashSolver {
        NashSolver::default().with_tol(1e-7).with_max_sweeps(120)
    }

    #[test]
    fn optimal_price_beats_neighbors() {
        let sys = paper_system();
        let solver = fast_solver();
        let choice = optimal_price(&sys, 1.0, 0.0, 2.0, &solver).unwrap();
        for dp in [-0.05, 0.05] {
            let p = (choice.p_star + dp).clamp(0.0, 2.0);
            let g = SubsidyGame::new(sys.clone(), p, 1.0).unwrap();
            let r = solver.solve(&g).unwrap().isp_revenue(&g);
            assert!(
                choice.revenue >= r - 1e-6,
                "neighbor p = {p} earns {r} > p* = {} earning {}",
                choice.p_star,
                choice.revenue
            );
        }
    }

    #[test]
    fn deregulation_raises_optimal_revenue() {
        // R(p*(q), q) is monotone in q: more subsidy room can only help
        // the ISP at its optimum (it can always ignore the response).
        let sys = paper_system();
        let solver = fast_solver();
        let r0 = optimal_price(&sys, 0.0, 0.0, 2.0, &solver).unwrap().revenue;
        let r1 = optimal_price(&sys, 1.0, 0.0, 2.0, &solver).unwrap().revenue;
        assert!(r1 > r0, "q=1 optimum {r1} must beat q=0 optimum {r0}");
    }

    #[test]
    fn paper_figure7_peak_location() {
        // The paper: with q = 2, the revenue-maximizing price is "a bit
        // less than 1".
        let sys = paper_system();
        let choice = optimal_price(&sys, 2.0, 0.0, 2.0, &fast_solver()).unwrap();
        assert!(
            choice.p_star > 0.6 && choice.p_star < 1.1,
            "p* = {} should be a bit below 1",
            choice.p_star
        );
    }
}
