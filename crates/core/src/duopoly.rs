//! Access-ISP duopoly: the paper's §6 conjecture, made computable.
//!
//! The paper studies a single access ISP and conjectures that
//! "competition between ISPs will also incentivize them to adopt
//! subsidization schemes" and discipline prices. This module models the
//! smallest such market:
//!
//! * two access ISPs `A`, `B` with capacities `µ_A`, `µ_B` and usage
//!   prices `p_A`, `p_B`;
//! * each CP chooses **one** subsidy `s_i` applied uniformly (the
//!   neutrality requirement of §6: the subsidization option must be
//!   identical everywhere);
//! * users of CP `i` face effective prices `t_{ik} = p_k − s_i` and
//!   split by a logit rule with sensitivity `κ`, while total demand
//!   follows the CP's demand curve at the *inclusive* (logsumexp) price
//!   — so fiercer price competition both shifts users to the cheaper
//!   ISP and grows the market;
//! * each network separately settles its own Definition 1 fixed point.
//!
//! On top sit the CPs' subsidy equilibrium (best-response iteration, as
//! in [`crate::nash`]) and the ISPs' price best-response dynamics. The
//! tests verify the conjecture's economics: duopoly prices undercut the
//! monopoly price and welfare rises, while deregulated subsidization
//! still lifts both ISPs' revenues.

use crate::game::SubsidyGame;
use subcomp_model::system::System;
use subcomp_num::linalg::sub_inf_norm;
use subcomp_num::optimize::maximize_scalar;
use subcomp_num::{NumError, NumResult, Tolerance};

/// A two-ISP access market over a shared CP population.
#[derive(Clone)]
pub struct Duopoly {
    /// The CP population with network A's capacity.
    system_a: System,
    /// The same CPs with network B's capacity.
    system_b: System,
    /// Logit sensitivity of the users' ISP choice.
    kappa: f64,
    /// Subsidy cap `q`.
    cap: f64,
}

/// A solved duopoly state at prices `(p_a, p_b)`.
#[derive(Debug, Clone)]
pub struct DuopolyState {
    /// Equilibrium subsidies (shared across networks).
    pub subsidies: Vec<f64>,
    /// Per-CP populations on network A.
    pub m_a: Vec<f64>,
    /// Per-CP populations on network B.
    pub m_b: Vec<f64>,
    /// Utilization of network A.
    pub phi_a: f64,
    /// Utilization of network B.
    pub phi_b: f64,
    /// Revenue of ISP A.
    pub revenue_a: f64,
    /// Revenue of ISP B.
    pub revenue_b: f64,
    /// System welfare `Σ v_i (θ_iA + θ_iB)`.
    pub welfare: f64,
}

impl Duopoly {
    /// Creates a duopoly; both capacities positive, `κ > 0`, `q ≥ 0`.
    pub fn new(system: &System, mu_a: f64, mu_b: f64, kappa: f64, cap: f64) -> NumResult<Self> {
        if !(kappa > 0.0) {
            return Err(NumError::Domain {
                what: "logit sensitivity must be positive",
                value: kappa,
            });
        }
        if !(cap >= 0.0) {
            return Err(NumError::Domain { what: "cap must be non-negative", value: cap });
        }
        Ok(Duopoly {
            system_a: system.with_capacity(mu_a)?,
            system_b: system.with_capacity(mu_b)?,
            kappa,
            cap,
        })
    }

    /// Number of CPs.
    pub fn n(&self) -> usize {
        self.system_a.n()
    }

    /// Splits CP `i`'s demand between the ISPs at effective prices
    /// `(t_a, t_b)`: returns `(m_a, m_b)`.
    ///
    /// Total demand is evaluated at the inclusive logsumexp price
    /// `t̄ = −κ^{-1} ln((e^{−κ t_a} + e^{−κ t_b})/2)`, which equals `t`
    /// when both ISPs charge `t` (no spurious demand from duplication)
    /// and drops below `min(t_a, t_b) + κ^{-1} ln 2` under competition.
    pub fn split_demand(&self, i: usize, t_a: f64, t_b: f64) -> (f64, f64) {
        let ea = (-self.kappa * t_a).exp();
        let eb = (-self.kappa * t_b).exp();
        let inclusive = -((ea + eb) / 2.0).ln() / self.kappa;
        let total = self.system_a.cp(i).population(inclusive);
        let share_a = ea / (ea + eb);
        (total * share_a, total * (1.0 - share_a))
    }

    /// Solves both networks' congestion fixed points and the ledger at
    /// given prices and subsidies.
    pub fn state_at(&self, p_a: f64, p_b: f64, s: &[f64]) -> NumResult<DuopolyState> {
        let n = self.n();
        if s.len() != n {
            return Err(NumError::DimensionMismatch { expected: n, actual: s.len() });
        }
        let mut m_a = vec![0.0; n];
        let mut m_b = vec![0.0; n];
        for i in 0..n {
            let (a, b) = self.split_demand(i, p_a - s[i], p_b - s[i]);
            m_a[i] = a;
            m_b[i] = b;
        }
        let st_a = self.system_a.solve_state(&m_a)?;
        let st_b = self.system_b.solve_state(&m_b)?;
        let welfare = (0..n)
            .map(|i| self.system_a.cp(i).profitability() * (st_a.theta_i[i] + st_b.theta_i[i]))
            .sum();
        Ok(DuopolyState {
            subsidies: s.to_vec(),
            m_a,
            m_b,
            phi_a: st_a.phi,
            phi_b: st_b.phi,
            revenue_a: p_a * st_a.theta(),
            revenue_b: p_b * st_b.theta(),
            welfare,
        })
    }

    /// CP `i`'s utility at `(p_a, p_b, s)`.
    fn utility(&self, i: usize, p_a: f64, p_b: f64, s: &[f64]) -> NumResult<f64> {
        let n = self.n();
        let mut m_a = vec![0.0; n];
        let mut m_b = vec![0.0; n];
        for j in 0..n {
            let (a, b) = self.split_demand(j, p_a - s[j], p_b - s[j]);
            m_a[j] = a;
            m_b[j] = b;
        }
        let st_a = self.system_a.solve_state(&m_a)?;
        let st_b = self.system_b.solve_state(&m_b)?;
        let v = self.system_a.cp(i).profitability();
        Ok((v - s[i]) * (st_a.theta_i[i] + st_b.theta_i[i]))
    }

    /// Solves the CPs' subsidy equilibrium at fixed prices by damped
    /// Gauss–Seidel best response.
    pub fn subsidy_equilibrium(&self, p_a: f64, p_b: f64) -> NumResult<DuopolyState> {
        let n = self.n();
        let mut s = vec![0.0; n];
        let mut delta = f64::NAN;
        let tol = Tolerance::new(1e-9, 1e-9).with_max_iter(80);
        for _ in 0..200 {
            let mut next = s.clone();
            for i in 0..n {
                let hi = self.cap.min(self.system_a.cp(i).profitability());
                let f = |si: f64| {
                    let mut prof = next.clone();
                    prof[i] = si;
                    self.utility(i, p_a, p_b, &prof).unwrap_or(f64::NEG_INFINITY)
                };
                next[i] = maximize_scalar(&f, 0.0, hi, 16, tol)?.x;
            }
            delta = sub_inf_norm(&s, &next);
            s = next;
            if delta < 1e-7 {
                return self.state_at(p_a, p_b, &s);
            }
        }
        Err(NumError::MaxIterations { max_iter: 200, residual: delta })
    }

    /// ISP price best-response dynamics: alternate `p_A`, `p_B` revenue
    /// maximization (with the CP equilibrium re-solved inside) until the
    /// price pair settles. Returns the final state and prices.
    pub fn price_competition(
        &self,
        p_range: (f64, f64),
        rounds: usize,
    ) -> NumResult<(f64, f64, DuopolyState)> {
        let mut p_a = 0.5 * (p_range.0 + p_range.1);
        let mut p_b = p_a * 0.9; // asymmetric start breaks symmetry traps
        let tol = Tolerance::new(1e-4, 1e-4).with_max_iter(40);
        for _ in 0..rounds {
            let rev_a = |p: f64| {
                self.subsidy_equilibrium(p, p_b).map(|st| st.revenue_a).unwrap_or(f64::NEG_INFINITY)
            };
            let new_a = maximize_scalar(&rev_a, p_range.0, p_range.1, 10, tol)?.x;
            let rev_b = |p: f64| {
                self.subsidy_equilibrium(new_a, p)
                    .map(|st| st.revenue_b)
                    .unwrap_or(f64::NEG_INFINITY)
            };
            let new_b = maximize_scalar(&rev_b, p_range.0, p_range.1, 10, tol)?.x;
            let moved = (new_a - p_a).abs().max((new_b - p_b).abs());
            p_a = new_a;
            p_b = new_b;
            if moved < 5e-3 {
                break;
            }
        }
        let st = self.subsidy_equilibrium(p_a, p_b)?;
        Ok((p_a, p_b, st))
    }
}

impl std::fmt::Debug for Duopoly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Duopoly")
            .field("n_cps", &self.n())
            .field("mu_a", &self.system_a.mu())
            .field("mu_b", &self.system_b.mu())
            .field("kappa", &self.kappa)
            .field("cap", &self.cap)
            .finish()
    }
}

/// Convenience: the monopoly counterpart (one ISP with the combined
/// capacity) for comparison, returning `(p*, revenue, welfare)`.
pub fn monopoly_benchmark(
    system: &System,
    total_mu: f64,
    cap: f64,
    p_range: (f64, f64),
) -> NumResult<(f64, f64, f64)> {
    let sys = system.with_capacity(total_mu)?;
    let solver = crate::nash::NashSolver::default().with_tol(1e-7).with_max_sweeps(120);
    let choice = crate::pricing::optimal_price(&sys, cap, p_range.0, p_range.1, &solver)?;
    let game = SubsidyGame::new(sys, choice.p_star, cap)?;
    let w = crate::welfare::welfare(&game, &choice.equilibrium.state);
    Ok((choice.p_star, choice.revenue, w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcomp_model::aggregation::{build_system, ExpCpSpec};

    fn market() -> System {
        build_system(&[ExpCpSpec::unit(4.0, 2.0, 1.0), ExpCpSpec::unit(2.0, 4.0, 0.5)], 1.0)
            .unwrap()
    }

    #[test]
    fn split_demand_symmetric_and_total_consistent() {
        let duo = Duopoly::new(&market(), 0.5, 0.5, 6.0, 0.5).unwrap();
        // Equal prices: even split, total equals the single-network demand.
        let (a, b) = duo.split_demand(0, 0.4, 0.4);
        assert!((a - b).abs() < 1e-12);
        let single = market().cp(0).population(0.4);
        assert!((a + b - single).abs() < 1e-12);
        // Cheaper ISP gets the bigger share and total demand grows.
        let (a2, b2) = duo.split_demand(0, 0.3, 0.5);
        assert!(a2 > b2);
        assert!(a2 + b2 > single);
    }

    #[test]
    fn state_solves_both_networks() {
        let duo = Duopoly::new(&market(), 0.6, 0.4, 6.0, 0.5).unwrap();
        let st = duo.state_at(0.5, 0.7, &[0.1, 0.0]).unwrap();
        assert!(st.phi_a > 0.0 && st.phi_b > 0.0);
        // The cheaper, bigger network A carries more and is busier.
        assert!(st.revenue_a > st.revenue_b);
        assert!(st.welfare > 0.0);
    }

    #[test]
    fn subsidy_equilibrium_feasible_and_stable() {
        let duo = Duopoly::new(&market(), 0.5, 0.5, 6.0, 0.6).unwrap();
        let st = duo.subsidy_equilibrium(0.6, 0.6).unwrap();
        assert!(st.subsidies[0] > 0.0, "the profitable CP subsidizes");
        assert!(st.subsidies[1] < 0.1, "the poor CP mostly sits out");
        for (i, &s) in st.subsidies.iter().enumerate() {
            assert!(s >= 0.0 && s <= duo.cap.min(duo.system_a.cp(i).profitability()) + 1e-9);
        }
    }

    #[test]
    fn competition_undercuts_monopoly() {
        // The paper's §6 conjecture: duopoly competition disciplines the
        // access price and raises welfare relative to a monopolist with
        // the same total capacity.
        let sys = market();
        let duo = Duopoly::new(&sys, 0.5, 0.5, 6.0, 0.5).unwrap();
        let (p_a, p_b, st) = duo.price_competition((0.05, 1.5), 6).unwrap();
        let (p_mono, _, w_mono) = monopoly_benchmark(&sys, 1.0, 0.5, (0.05, 1.5)).unwrap();
        assert!(
            p_a < p_mono && p_b < p_mono,
            "duopoly prices ({p_a:.3}, {p_b:.3}) must undercut monopoly {p_mono:.3}"
        );
        assert!(
            st.welfare > w_mono,
            "duopoly welfare {} must beat monopoly {}",
            st.welfare,
            w_mono
        );
    }

    #[test]
    fn subsidization_still_lifts_revenues_under_competition() {
        let sys = market();
        let banned = Duopoly::new(&sys, 0.5, 0.5, 6.0, 0.0).unwrap();
        let open = Duopoly::new(&sys, 0.5, 0.5, 6.0, 0.6).unwrap();
        let st0 = banned.subsidy_equilibrium(0.5, 0.5).unwrap();
        let st1 = open.subsidy_equilibrium(0.5, 0.5).unwrap();
        assert!(st1.revenue_a > st0.revenue_a);
        assert!(st1.revenue_b > st0.revenue_b);
        assert!(st1.welfare > st0.welfare);
    }

    #[test]
    fn constructor_validation() {
        let sys = market();
        assert!(Duopoly::new(&sys, 0.0, 0.5, 6.0, 0.5).is_err());
        assert!(Duopoly::new(&sys, 0.5, 0.5, 0.0, 0.5).is_err());
        assert!(Duopoly::new(&sys, 0.5, 0.5, 6.0, -0.1).is_err());
    }
}
