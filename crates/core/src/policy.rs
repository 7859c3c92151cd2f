//! Policy effects with endogenous ISP pricing (Theorem 8) and regulator
//! tooling.
//!
//! Theorem 8 chains the policy cap `q` through both responses — the ISP's
//! price `p(q)` and the CPs' equilibrium `s(p, q)`:
//!
//! ```text
//! dt_i/dq = (1 − ∂s_i/∂p) dp/dq − ∂s_i/∂q
//! dm_i/dq = m_i'(t_i) · dt_i/dq
//! dφ/dq  = (dg/dφ)^{-1} Σ_i λ_i dm_i/dq,     dλ_i/dq = λ_i'(φ) dφ/dq
//! dθ_i/dq = λ_i dm_i/dq + m_i dλ_i/dq
//! ```
//!
//! with the per-provider sign condition (17) in elasticity form. The
//! [`PriceResponse`] enum selects between the paper's two regimes — fixed
//! (competitive/regulated) price and revenue-maximizing monopoly price —
//! and [`policy_sweep`] drives the Figure 7-style `q` experiments.

use crate::game::SubsidyGame;
use crate::nash::{NashSolution, NashSolver};
use crate::pricing::optimal_price;
use crate::sensitivity::Sensitivity;
use crate::welfare::{corollary2, welfare, Corollary2};
use subcomp_model::system::System;
use subcomp_num::{NumError, NumResult};

/// How the ISP's price reacts to the policy cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PriceResponse {
    /// Competitive or regulated access market: `p` fixed, `dp/dq = 0`
    /// (the Corollary 1 regime).
    Fixed(f64),
    /// Monopoly ISP re-optimizing `p*(q)` on the given bracket
    /// (the Theorem 8 regime); `dp/dq` is obtained by finite difference.
    Optimal {
        /// Lower end of the price search bracket.
        lo: f64,
        /// Upper end of the price search bracket.
        hi: f64,
    },
}

/// Theorem 8's derivatives at one policy point.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEffect {
    /// The cap `q` at which effects are evaluated.
    pub q: f64,
    /// The (possibly endogenous) price `p(q)`.
    pub p: f64,
    /// `dp/dq` (zero in the fixed regime).
    pub dp_dq: f64,
    /// The equilibrium at `(p(q), q)`.
    pub equilibrium: NashSolution,
    /// `dt_i/dq` per provider.
    pub dt_dq: Vec<f64>,
    /// `dm_i/dq` per provider.
    pub dm_dq: Vec<f64>,
    /// `dφ/dq`.
    pub dphi_dq: f64,
    /// `dθ_i/dq` per provider (condition (17) decides the sign).
    pub dtheta_dq: Vec<f64>,
    /// Corollary 2 evaluation at this point.
    pub corollary2: Corollary2,
    /// `dR/dq` for the ISP, assembled from the same chain.
    pub dr_dq: f64,
}

impl PolicyEffect {
    /// Whether condition (17) predicts provider `i`'s throughput to rise
    /// with deregulation.
    pub fn throughput_increasing(&self, i: usize) -> bool {
        self.dtheta_dq[i] > 0.0
    }
}

fn price_at(
    system: &System,
    q: f64,
    response: PriceResponse,
    solver: &NashSolver,
) -> NumResult<f64> {
    match response {
        PriceResponse::Fixed(p) => Ok(p),
        PriceResponse::Optimal { lo, hi } => Ok(optimal_price(system, q, lo, hi, solver)?.p_star),
    }
}

/// Evaluates Theorem 8 at `(q, price_response)`.
pub fn policy_effect(
    system: &System,
    q: f64,
    response: PriceResponse,
    solver: &NashSolver,
) -> NumResult<PolicyEffect> {
    if !(q >= 0.0) {
        return Err(NumError::Domain { what: "policy cap must be non-negative", value: q });
    }
    let p = price_at(system, q, response, solver)?;
    let game = SubsidyGame::new(system.clone(), p, q)?;
    let equilibrium = solver.solve(&game)?;
    let s = &equilibrium.subsidies;
    let state = &equilibrium.state;
    let sens = Sensitivity::compute(&game, s)?;

    // dp/dq by central difference of the price response (0 when fixed).
    let dp_dq = match response {
        PriceResponse::Fixed(_) => 0.0,
        PriceResponse::Optimal { .. } => {
            let h = (1e-3 * (1.0 + q)).min(q.max(1e-3));
            let p_hi = price_at(system, q + h, response, solver)?;
            let q_lo = (q - h).max(0.0);
            let p_lo = price_at(system, q_lo, response, solver)?;
            (p_hi - p_lo) / (q + h - q_lo)
        }
    };

    let n = system.n();
    let mut dt_dq = Vec::with_capacity(n);
    let mut dm_dq = Vec::with_capacity(n);
    for i in 0..n {
        let dti = (1.0 - sens.ds_dp[i]) * dp_dq - sens.ds_dq[i];
        dt_dq.push(dti);
        dm_dq.push(system.cp(i).demand().dm_dt(p - s[i]) * dti);
    }
    let dphi_dq: f64 =
        dm_dq.iter().zip(&state.lambda).map(|(dm, l)| dm * l).sum::<f64>() / state.dg_dphi;
    let mut dtheta_dq = Vec::with_capacity(n);
    for i in 0..n {
        let dlam = system.cp(i).throughput().dlambda_dphi(state.phi) * dphi_dq;
        dtheta_dq.push(state.lambda[i] * dm_dq[i] + state.m[i] * dlam);
    }
    let c2 = corollary2(&game, state, s, &dt_dq)?;
    // dR/dq = d(p θ)/dq = (dp/dq) θ + p Σ dθ_i/dq.
    let dr_dq = dp_dq * state.theta() + p * dtheta_dq.iter().sum::<f64>();
    Ok(PolicyEffect {
        q,
        p,
        dp_dq,
        equilibrium,
        dt_dq,
        dm_dq,
        dphi_dq,
        dtheta_dq,
        corollary2: c2,
        dr_dq,
    })
}

/// One row of a policy sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyPoint {
    /// The cap.
    pub q: f64,
    /// Price in force at this cap.
    pub p: f64,
    /// Equilibrium subsidies.
    pub subsidies: Vec<f64>,
    /// Utilization.
    pub phi: f64,
    /// ISP revenue.
    pub revenue: f64,
    /// Welfare `W`.
    pub welfare: f64,
}

/// Sweeps the cap grid, solving price (per the response regime) and CP
/// equilibrium at each point — the engine behind the Figure 7 family and
/// the endogenous-pricing extension.
pub fn policy_sweep(
    system: &System,
    qs: &[f64],
    response: PriceResponse,
    solver: &NashSolver,
) -> NumResult<Vec<PolicyPoint>> {
    let mut out = Vec::with_capacity(qs.len());
    for &q in qs {
        let p = price_at(system, q, response, solver)?;
        let game = SubsidyGame::new(system.clone(), p, q)?;
        let eq = solver.solve(&game)?;
        out.push(PolicyPoint {
            q,
            p,
            subsidies: eq.subsidies.clone(),
            phi: eq.state.phi,
            revenue: eq.isp_revenue(&game),
            welfare: welfare(&game, &eq.state),
        });
    }
    Ok(out)
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

    fn solver() -> NashSolver {
        NashSolver::default().with_tol(1e-9)
    }

    #[test]
    fn fixed_price_policy_effect_matches_finite_difference() {
        let sys = paper_system();
        let q = 0.35;
        let pe = policy_effect(&sys, q, PriceResponse::Fixed(0.6), &solver()).unwrap();
        assert_eq!(pe.dp_dq, 0.0);
        // dphi/dq vs re-solved equilibria.
        let h = 1e-4;
        let phi = |qq: f64| {
            let g = SubsidyGame::new(sys.clone(), 0.6, qq).unwrap();
            solver().solve(&g).unwrap().state.phi
        };
        let fd = (phi(q + h) - phi(q - h)) / (2.0 * h);
        assert!(
            (pe.dphi_dq - fd).abs() < 3e-2 * (1.0 + fd.abs()),
            "dphi/dq {} vs fd {fd}",
            pe.dphi_dq
        );
        // Corollary 1: both utilization and revenue rise with q at fixed p.
        assert!(pe.dphi_dq > 0.0);
        assert!(pe.dr_dq > 0.0);
    }

    #[test]
    fn dtheta_dq_signs_match_finite_difference() {
        let sys = paper_system();
        let q = 0.35;
        let pe = policy_effect(&sys, q, PriceResponse::Fixed(0.6), &solver()).unwrap();
        let h = 1e-4;
        for i in 0..8 {
            let th = |qq: f64| {
                let g = SubsidyGame::new(sys.clone(), 0.6, qq).unwrap();
                solver().solve(&g).unwrap().state.theta_i[i]
            };
            let fd = (th(q + h) - th(q - h)) / (2.0 * h);
            assert!(
                (pe.dtheta_dq[i] - fd).abs() < 3e-2 * (1.0 + fd.abs()),
                "CP {i}: {} vs {fd}",
                pe.dtheta_dq[i]
            );
        }
    }

    #[test]
    fn congestion_sensitive_poor_cp_loses_under_deregulation() {
        // The paper's §6 discussion: CPs that cannot afford to subsidize
        // and are congestion-sensitive lose throughput as q relaxes.
        let sys = paper_system();
        let pe = policy_effect(&sys, 0.35, PriceResponse::Fixed(0.6), &solver()).unwrap();
        // Spec order: v=0.5 block first, (alpha, beta) = (2,2),(2,5),(5,2),(5,5).
        // The (alpha=2, beta=5, v=0.5) type is index 1.
        assert!(!pe.throughput_increasing(1), "poor congestion-sensitive CP should lose");
        // The (alpha=5, beta=2, v=1.0) type is index 6: aggressive subsidizer.
        assert!(pe.throughput_increasing(6), "rich elastic CP should gain");
    }

    #[test]
    fn policy_sweep_fixed_price_monotone_revenue_and_welfare() {
        // Figure 7 at a fixed price column: R and W rise with q.
        let sys = paper_system();
        let qs = [0.0, 0.5, 1.0, 1.5, 2.0];
        let rows = policy_sweep(&sys, &qs, PriceResponse::Fixed(0.6), &solver()).unwrap();
        for w in rows.windows(2) {
            assert!(w[1].revenue >= w[0].revenue - 1e-9, "revenue must rise with q");
            assert!(w[1].welfare >= w[0].welfare - 1e-9, "welfare must rise with q");
            assert!(w[1].phi >= w[0].phi - 1e-9, "utilization must rise with q");
        }
    }

    #[test]
    fn endogenous_pricing_reoptimizes_with_q() {
        // Theorem 8's regime: the monopoly price re-optimizes under
        // deregulation. In the paper's §5 parameterization the optimal
        // price moves *down* slightly (≈0.85 → ≈0.75: subsidies make
        // demand effectively more elastic around the peak) while optimal
        // revenue rises sharply — the paper's caution that deregulation
        // "might" raise prices is a possibility statement, not a theorem,
        // and this test pins the measured direction.
        let sys = paper_system();
        let s = NashSolver::default().with_tol(1e-7).with_max_sweeps(120);
        let rows = policy_sweep(&sys, &[0.0, 1.0], PriceResponse::Optimal { lo: 0.0, hi: 2.0 }, &s)
            .unwrap();
        assert!(rows[0].p > 0.6 && rows[0].p < 1.1, "q=0 monopoly price {}", rows[0].p);
        assert!(rows[1].p > 0.6 && rows[1].p < 1.1, "q=1 monopoly price {}", rows[1].p);
        assert!((rows[0].p - rows[1].p).abs() < 0.3, "re-optimized price moved implausibly");
        assert!(rows[1].revenue > rows[0].revenue, "optimal revenue must rise with q");
        assert!(rows[1].phi > rows[0].phi, "utilization must rise with q at the optimum");
    }

    #[test]
    fn negative_cap_rejected() {
        let sys = paper_system();
        assert!(policy_effect(&sys, -0.1, PriceResponse::Fixed(0.5), &solver()).is_err());
    }
}
