//! Extension experiments E1–E5, run end to end by the `extensions` binary.
//!
//! * **E1 — endogenous pricing**: re-optimize the monopoly price at each
//!   cap and measure what deregulation does to price, revenue and welfare
//!   when the ISP is *not* price-regulated (the §5 regulatory caveat).
//! * **E2 — capacity planning**: the §6 future-work extension; how the
//!   profit-maximizing capacity `µ*(q)` moves with deregulation.
//! * **E3 — sim-vs-theory**: validate the analytic fixed point and Nash
//!   equilibrium against the flow-level and agent-based simulators.
//! * **E4 — ISP duopoly**: the §6 conjecture that access competition
//!   disciplines prices while subsidization keeps helping both ISPs.
//! * **E5 — continuum market**: a continuum of CP types (Lemma 2 taken
//!   to the limit) and the convergence of discrete type-panels to it.

use crate::report::Table;
use crate::scenarios::section5_system;
use subcomp_core::capacity::CapacityPlanner;
use subcomp_core::game::SubsidyGame;
use subcomp_core::nash::NashSolver;
use subcomp_core::policy::{policy_sweep, PolicyPoint, PriceResponse};
use subcomp_model::aggregation::{build_system, ExpCpSpec};
use subcomp_model::system::System;
use subcomp_num::NumResult;
use subcomp_sim::flow::{FlowSim, FlowSimConfig};
use subcomp_sim::market::{MarketSim, MarketSimConfig};

/// E1 result: fixed-price vs endogenous-price policy sweeps side by side.
#[derive(Debug, Clone)]
pub struct EndogenousPricing {
    /// Sweep with the price frozen at the `q = 0` monopoly optimum.
    pub fixed: Vec<PolicyPoint>,
    /// Sweep with the price re-optimized at each cap.
    pub endogenous: Vec<PolicyPoint>,
}

/// Runs E1 on the paper's §5 market.
pub fn endogenous_pricing(qs: &[f64], solver: &NashSolver) -> NumResult<EndogenousPricing> {
    let system = section5_system();
    // Freeze at the q = 0 optimum: the "ISP cannot react" benchmark.
    let p0 = subcomp_core::pricing::optimal_price(&system, 0.0, 0.0, 2.0, solver)?.p_star;
    let fixed = policy_sweep(&system, qs, PriceResponse::Fixed(p0), solver)?;
    let endogenous =
        policy_sweep(&system, qs, PriceResponse::Optimal { lo: 0.0, hi: 2.0 }, solver)?;
    Ok(EndogenousPricing { fixed, endogenous })
}

impl EndogenousPricing {
    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("E1 — deregulation with fixed vs re-optimized monopoly price\n\n");
        let mut t =
            Table::new(&["q", "p(fixed)", "R(fixed)", "W(fixed)", "p*(q)", "R*", "W at p*"]);
        for (f, e) in self.fixed.iter().zip(&self.endogenous) {
            t.row(&[f.q, f.p, f.revenue, f.welfare, e.p, e.revenue, e.welfare]);
        }
        out.push_str(&t.render());
        out
    }
}

/// E2 result: capacity planning across caps.
#[derive(Debug, Clone)]
pub struct CapacityStudy {
    /// Rows `(q, µ*, p*, long-run profit, utilization at the optimum)`.
    pub rows: Vec<(f64, f64, f64, f64, f64)>,
}

/// E2's capacity search bracket. The upper end sits well above every
/// optimum of the study market: at q = 1 the profit-maximizing capacity is
/// about 6.7, so a bracket ending at 4 would report its own end as µ*.
pub const CAPACITY_MU_RANGE: (f64, f64) = (0.4, 16.0);

/// A reduced 4-type market keeps E2 affordable (nested tri-level
/// optimization: capacity → price → equilibrium).
pub fn capacity_study_system() -> System {
    build_system(
        &[
            ExpCpSpec::unit(2.0, 2.0, 0.5),
            ExpCpSpec::unit(5.0, 2.0, 1.0),
            ExpCpSpec::unit(2.0, 5.0, 1.0),
            ExpCpSpec::unit(5.0, 5.0, 0.5),
        ],
        1.0,
    )
    .expect("static specs are valid")
}

/// Runs E2.
pub fn capacity_study(qs: &[f64], unit_cost: f64, solver: &NashSolver) -> NumResult<CapacityStudy> {
    let system = capacity_study_system();
    let planner = CapacityPlanner::new(unit_cost, (0.0, 2.0), CAPACITY_MU_RANGE)?;
    let mut rows = Vec::with_capacity(qs.len());
    for &q in qs {
        let c = planner.optimal_capacity(&system, q, solver)?;
        rows.push((q, c.mu_star, c.p_star, c.profit, c.equilibrium_phi));
    }
    Ok(CapacityStudy { rows })
}

impl CapacityStudy {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("E2 — ISP capacity planning (max_mu R(p*(mu), mu) - c*mu)\n\n");
        let mut t = Table::new(&["q", "mu*", "p*", "profit", "phi"]);
        for &(q, mu, p, profit, phi) in &self.rows {
            t.row(&[q, mu, p, profit, phi]);
        }
        out.push_str(&t.render());
        out
    }
}

/// E3 result: simulator cross-validation.
#[derive(Debug, Clone)]
pub struct SimVsTheory {
    /// Flow-sim rows `(price, phi_sim, phi_analytic, rel_err)`.
    pub flow_rows: Vec<(f64, f64, f64, f64)>,
    /// Market-sim distance to the analytic Nash equilibrium.
    pub market_distance: f64,
    /// Final market subsidies and the Nash reference.
    pub market_final: Vec<f64>,
    /// Nash subsidies.
    pub market_nash: Vec<f64>,
}

/// Runs E3 on a 3-type market (kept small so the binary finishes in
/// seconds).
pub fn sim_vs_theory(seed: u64) -> NumResult<SimVsTheory> {
    let system = build_system(
        &[
            ExpCpSpec::unit(2.0, 2.0, 1.0),
            ExpCpSpec::unit(5.0, 5.0, 0.5),
            ExpCpSpec::unit(3.0, 1.0, 1.0),
        ],
        1.0,
    )?;
    let mut flow_rows = Vec::new();
    for &p in &[0.2, 0.5, 1.0] {
        let cfg = FlowSimConfig { seed, ..Default::default() };
        let rep = FlowSim::new(&system, vec![p; 3], cfg)?.run()?;
        flow_rows.push((p, rep.phi_mean, rep.analytic_phi, rep.phi_rel_error));
    }
    let game_system =
        build_system(&[ExpCpSpec::unit(5.0, 2.0, 1.0), ExpCpSpec::unit(2.0, 4.0, 0.4)], 1.0)?;
    let game = SubsidyGame::new(game_system, 0.7, 1.0)?;
    let market = MarketSim::new(&game, MarketSimConfig { seed, ..Default::default() })?.run()?;
    Ok(SimVsTheory {
        flow_rows,
        market_distance: market.distance_to_nash,
        market_final: market.final_subsidies,
        market_nash: market.nash_subsidies,
    })
}

impl SimVsTheory {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("E3 — simulators vs analytic model\n\n");
        out.push_str("flow-level sim (adaptive users) vs Definition 1 fixed point:\n");
        let mut t = Table::new(&["p", "phi(sim)", "phi(model)", "rel err"]);
        for &(p, s, a, e) in &self.flow_rows {
            t.row(&[p, s, a, e]);
        }
        out.push_str(&t.render());
        out.push_str("\nagent-based market vs Nash equilibrium:\n");
        let mut t2 = Table::new(&["cp", "market", "nash"]);
        for i in 0..self.market_final.len() {
            t2.row(&[i as f64, self.market_final[i], self.market_nash[i]]);
        }
        out.push_str(&t2.render());
        out.push_str(&format!("\nsup-distance to Nash: {:.4}\n", self.market_distance));
        out
    }
}

/// E4 result: duopoly vs monopoly access market.
#[derive(Debug, Clone)]
pub struct DuopolyStudy {
    /// Duopoly equilibrium prices.
    pub p_duo: (f64, f64),
    /// Duopoly revenues `(A, B)`.
    pub revenue_duo: (f64, f64),
    /// Duopoly welfare.
    pub welfare_duo: f64,
    /// Monopoly benchmark `(p*, revenue, welfare)` at the same total
    /// capacity and cap.
    pub monopoly: (f64, f64, f64),
    /// Subsidization lift under competition: revenues `(banned, open)`
    /// summed over both ISPs at symmetric fixed prices.
    pub subsidy_lift: (f64, f64),
}

/// Runs E4 on a compact two-CP market.
pub fn duopoly_study(cap: f64) -> NumResult<DuopolyStudy> {
    use subcomp_core::duopoly::{monopoly_benchmark, Duopoly};
    let sys = build_system(&[ExpCpSpec::unit(4.0, 2.0, 1.0), ExpCpSpec::unit(2.0, 4.0, 0.5)], 1.0)?;
    let duo = Duopoly::new(&sys, 0.5, 0.5, 6.0, cap)?;
    let (p_a, p_b, st) = duo.price_competition((0.05, 1.5), 6)?;
    let monopoly = monopoly_benchmark(&sys, 1.0, cap, (0.05, 1.5))?;
    let banned = Duopoly::new(&sys, 0.5, 0.5, 6.0, 0.0)?.subsidy_equilibrium(0.5, 0.5)?;
    let open = Duopoly::new(&sys, 0.5, 0.5, 6.0, cap.max(0.6))?.subsidy_equilibrium(0.5, 0.5)?;
    Ok(DuopolyStudy {
        p_duo: (p_a, p_b),
        revenue_duo: (st.revenue_a, st.revenue_b),
        welfare_duo: st.welfare,
        monopoly,
        subsidy_lift: (banned.revenue_a + banned.revenue_b, open.revenue_a + open.revenue_b),
    })
}

impl DuopolyStudy {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("E4 — access-ISP duopoly vs monopoly (paper Sec. 6 conjecture)\n\n");
        out.push_str(&format!(
            "  duopoly prices   ({:.3}, {:.3})   monopoly price {:.3}\n",
            self.p_duo.0, self.p_duo.1, self.monopoly.0
        ));
        out.push_str(&format!(
            "  duopoly revenue  ({:.4}, {:.4})  monopoly revenue {:.4}\n",
            self.revenue_duo.0, self.revenue_duo.1, self.monopoly.1
        ));
        out.push_str(&format!(
            "  duopoly welfare  {:.4}            monopoly welfare {:.4}\n",
            self.welfare_duo, self.monopoly.2
        ));
        out.push_str(&format!(
            "  subsidization lift under competition: revenue {:.4} -> {:.4}\n",
            self.subsidy_lift.0, self.subsidy_lift.1
        ));
        out
    }
}

/// E5 result: continuum market and discretization convergence.
#[derive(Debug, Clone)]
pub struct ContinuumStudy {
    /// Exact continuum utilization at the probe price.
    pub phi_exact: f64,
    /// `(panel size, |phi_n - phi_exact|)` rows.
    pub convergence: Vec<(usize, f64)>,
    /// Probe price used.
    pub price: f64,
}

/// Runs E5: types spread over `α ∈ [1, 5]` with `β` moving oppositely.
pub fn continuum_study(price: f64) -> NumResult<ContinuumStudy> {
    use subcomp_model::continuum::ContinuumMarket;
    let market = ContinuumMarket::new(
        1.0,
        (0.0, 1.0),
        |_| 1.0,
        |w| 1.0 + 4.0 * w,
        |w| 5.0 - 4.0 * w,
        |w| 0.5 + 0.5 * w,
    )?;
    let phi_exact = market.utilization(price)?;
    let mut convergence = Vec::new();
    for n in [2usize, 4, 8, 16, 32, 64] {
        let specs = market.discretize(n)?;
        let sys = build_system(&specs, 1.0)?;
        let phi = sys.state_at_uniform_price(price)?.phi;
        convergence.push((n, (phi - phi_exact).abs()));
    }
    Ok(ContinuumStudy { phi_exact, convergence, price })
}

impl ContinuumStudy {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("E5 — continuum of CP types; discrete panels converge (Lemma 2 limit)\n\n");
        out.push_str(&format!(
            "  continuum fixed point at p = {}: phi = {:.8}\n",
            self.price, self.phi_exact
        ));
        let mut t = Table::new(&["panel size", "abs error"]).with_precision(8);
        for &(n, e) in &self.convergence {
            t.row(&[n as f64, e]);
        }
        out.push_str(&t.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solver() -> NashSolver {
        NashSolver::default().with_tol(1e-6).with_max_sweeps(100)
    }

    #[test]
    fn e4_duopoly_story() {
        let study = duopoly_study(0.5).unwrap();
        let (pa, pb) = study.p_duo;
        assert!(pa < study.monopoly.0 && pb < study.monopoly.0, "competition must undercut");
        assert!(study.welfare_duo > study.monopoly.2, "competition must raise welfare");
        assert!(study.subsidy_lift.1 > study.subsidy_lift.0, "subsidies must lift revenue");
        assert!(study.render().contains("E4"));
    }

    #[test]
    fn e5_panels_converge() {
        let study = continuum_study(0.5).unwrap();
        let errs: Vec<f64> = study.convergence.iter().map(|&(_, e)| e).collect();
        assert!(errs.windows(2).all(|w| w[1] <= w[0] + 1e-12), "errors must shrink: {errs:?}");
        assert!(*errs.last().unwrap() < 1e-5);
        assert!(study.render().contains("E5"));
    }

    #[test]
    fn e1_endogenous_beats_fixed_revenue() {
        let e1 = endogenous_pricing(&[0.0, 1.0], &solver()).unwrap();
        // Re-optimizing can only help the ISP.
        for (f, e) in e1.fixed.iter().zip(&e1.endogenous) {
            assert!(e.revenue >= f.revenue - 1e-6, "q = {}", f.q);
        }
        assert!(e1.render().contains("E1"));
    }

    #[test]
    fn e2_runs_and_reports() {
        let study = capacity_study(&[0.0, 0.5], 0.08, &solver()).unwrap();
        assert_eq!(study.rows.len(), 2);
        // Deregulation must not shrink long-run profit.
        assert!(study.rows[1].3 >= study.rows[0].3 - 1e-6);
        assert!(study.render().contains("mu*"));
    }

    #[test]
    fn e2_deregulated_optimum_is_interior() {
        // At q = 1 the optimum must be a true interior maximum of the
        // bracket, not one of its ends.
        let study = capacity_study(&[1.0], 0.08, &solver()).unwrap();
        let (_, mu_star, _, profit, _) = study.rows[0];
        let (lo, hi) = CAPACITY_MU_RANGE;
        assert!(mu_star > lo + 1e-3 && mu_star < hi - 1e-3, "mu* = {mu_star} is pinned");
        assert!(profit > 0.50, "profit {profit} at mu* = {mu_star}");
    }

    #[test]
    fn e3_simulators_agree_with_theory() {
        let r = sim_vs_theory(7).unwrap();
        for &(p, _, _, err) in &r.flow_rows {
            assert!(err < 0.05, "flow sim off at p = {p}: rel err {err}");
        }
        assert!(r.market_distance < 0.1, "market sim distance {}", r.market_distance);
        assert!(r.render().contains("sup-distance"));
    }
}
