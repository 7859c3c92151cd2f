//! Cross-crate integration tests: every theorem and corollary of the
//! paper, checked end to end on the paper's own scenarios.

use subcomp::game::equilibrium::verify_equilibrium;
use subcomp::game::game::SubsidyGame;
use subcomp::game::nash::{NashSolver, WarmStart};
use subcomp::game::policy::{policy_effect, PriceResponse};
use subcomp::game::revenue::marginal_revenue_at;
use subcomp::game::sensitivity::Sensitivity;
use subcomp::game::structure::p_function_evidence;
use subcomp::game::welfare::{corollary2, welfare};
use subcomp::game::workspace::SolveWorkspace;
use subcomp::model::effects::{PriceEffects, SystemEffects};
use subcomp_exp::scenarios::{section3_system, section5_system};
use subcomp_exp::sweep::one_sided_sweep;

fn solver() -> NashSolver {
    NashSolver::default().with_tol(1e-9)
}

#[test]
fn lemma1_unique_utilization_fixed_point() {
    let sys = section3_system();
    let state = sys.state_at_uniform_price(0.4).unwrap();
    // Residual of Definition 1 is tiny and the gap slope positive.
    assert!(state.residual(&sys) < 1e-10);
    assert!(state.dg_dphi > 0.0);
    // Uniqueness: solving from the gap function and by damped Picard
    // iteration agree (two independent fixed-point routes).
    let m = state.m.clone();
    let mu = sys.mu();
    let map =
        |phi: f64| sys.cps().iter().zip(&m).map(|(cp, &mi)| mi * cp.lambda(phi)).sum::<f64>() / mu;
    // Damped Picard: φ ← 0.4φ + 0.6·T(φ) from 0.3 until a step below 1e-12.
    let mut phi = 0.3;
    let mut converged = false;
    for _ in 0..20_000 {
        let next = 0.4 * phi + 0.6 * map(phi);
        let step = (next - phi).abs();
        phi = next;
        if step < 1e-12 {
            converged = true;
            break;
        }
    }
    assert!(converged, "damped Picard iteration must converge");
    assert!((phi - state.phi).abs() < 1e-8);
}

#[test]
fn theorem1_capacity_and_user_effects() {
    let sys = section3_system();
    let state = sys.state_at_uniform_price(0.5).unwrap();
    let eff = SystemEffects::compute(&sys, &state).unwrap();
    assert_eq!(eff.check_signs(), None);
}

#[test]
fn theorem2_price_effect_and_condition7() {
    let sys = section3_system();
    for p in [0.2, 0.8, 1.5] {
        let state = sys.state_at_uniform_price(p).unwrap();
        let pe = PriceEffects::compute(&sys, &state, p).unwrap();
        assert!(pe.dphi_dp <= 0.0);
        assert!(pe.dtheta_total_dp <= 0.0);
    }
}

#[test]
fn lemma3_subsidy_monotonicity() {
    let game = SubsidyGame::new(section5_system(), 0.6, 1.0).unwrap();
    let s0 = vec![0.1; 8];
    let mut s1 = s0.clone();
    s1[4] = 0.5;
    let st0 = game.state(&s0).unwrap();
    let st1 = game.state(&s1).unwrap();
    assert!(st1.phi > st0.phi);
    assert!(st1.theta_i[4] > st0.theta_i[4]);
    for j in (0..8).filter(|&j| j != 4) {
        assert!(st1.theta_i[j] < st0.theta_i[j]);
    }
}

#[test]
fn theorem3_equilibrium_characterization() {
    let game = SubsidyGame::new(section5_system(), 0.6, 0.5).unwrap();
    let eq = solver().solve(&game).unwrap();
    let report = verify_equilibrium(&game, &eq.subsidies).unwrap();
    assert!(
        report.is_equilibrium(1e-5),
        "kkt {:.2e}, threshold {:.2e}",
        report.max_kkt_residual,
        report.max_threshold_residual
    );
}

#[test]
fn theorem4_uniqueness_evidence_and_solver_agreement() {
    let game = SubsidyGame::new(section5_system(), 0.7, 0.8).unwrap();
    // Sampled P-function condition.
    let ev = p_function_evidence(&game, 40, 11).unwrap();
    assert!(ev.holds(), "counterexample {:?}", ev.counterexample);
    // Independent solvers land on the same equilibrium.
    let gs = solver().solve(&game).unwrap();
    let mut ws = SolveWorkspace::for_game(&game);
    solver().solve_jacobi_into(&game, WarmStart::Zero, &mut ws, 0.6).unwrap();
    for (a, b) in gs.subsidies.iter().zip(ws.subsidies()) {
        assert!((a - b).abs() < 1e-6);
    }
}

#[test]
fn theorem5_profitability_raises_subsidy() {
    let game = SubsidyGame::new(section5_system(), 0.8, 1.0).unwrap();
    let base = solver().solve(&game).unwrap();
    // Raise CP 5's profitability (a2-b5-v1 -> v = 1.4).
    let richer = game.with_profitability(5, 1.4).unwrap();
    let eq2 = solver().solve(&richer).unwrap();
    assert!(
        eq2.subsidies[5] >= base.subsidies[5] - 1e-9,
        "subsidy must rise with profitability: {} -> {}",
        base.subsidies[5],
        eq2.subsidies[5]
    );
    // Lemma 3 follow-through: its throughput rises too.
    assert!(eq2.state.theta_i[5] > base.state.theta_i[5] - 1e-12);
}

#[test]
fn theorem6_sensitivities_match_resolved_equilibria() {
    let sys = section5_system();
    let (p, q) = (0.6, 0.35);
    let game = SubsidyGame::new(sys, p, q).unwrap();
    let eq = solver().solve(&game).unwrap();
    let sens = Sensitivity::compute(&game, &eq.subsidies).unwrap();
    assert!(sens.regular);
    let h = 1e-4;
    let hi = solver().solve(&game.with_cap(q + h).unwrap()).unwrap();
    let lo = solver().solve(&game.with_cap(q - h).unwrap()).unwrap();
    for i in 0..8 {
        let fd = (hi.subsidies[i] - lo.subsidies[i]) / (2.0 * h);
        assert!(
            (sens.ds_dq[i] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
            "CP {i}: {} vs {fd}",
            sens.ds_dq[i]
        );
    }
}

#[test]
fn corollary1_deregulation_helps_isp_at_fixed_price() {
    let sys = section5_system();
    let solver = solver();
    let mut prev: Option<(f64, f64)> = None;
    for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let game = SubsidyGame::new(sys.clone(), 0.6, q).unwrap();
        let eq = solver.solve(&game).unwrap();
        let now = (eq.state.phi, eq.isp_revenue(&game));
        if let Some((phi_prev, rev_prev)) = prev {
            assert!(now.0 >= phi_prev - 1e-9, "utilization fell with q");
            assert!(now.1 >= rev_prev - 1e-9, "revenue fell with q");
        }
        prev = Some(now);
    }
}

#[test]
fn theorem7_marginal_revenue_formula() {
    let sys = section5_system();
    let game = SubsidyGame::new(sys, 0.8, 0.4).unwrap();
    let solver = solver();
    let eq = solver.solve(&game).unwrap();
    let mr = marginal_revenue_at(&game, &eq).unwrap();
    // Numeric check with re-solved equilibria.
    let h = 1e-4;
    let rev = |p: f64| {
        let g = game.with_price(p).unwrap();
        solver.solve(&g).unwrap().isp_revenue(&g)
    };
    let fd = (rev(0.8 + h) - rev(0.8 - h)) / (2.0 * h);
    assert!((mr.dr_dp - fd).abs() < 2e-2 * (1.0 + fd.abs()), "{} vs {fd}", mr.dr_dp);
    assert!(mr.upsilon > 0.0 && mr.upsilon < 1.0);
}

#[test]
fn theorem8_policy_effect_with_fixed_price() {
    let sys = section5_system();
    let pe = policy_effect(&sys, 0.35, PriceResponse::Fixed(0.6), &solver()).unwrap();
    assert_eq!(pe.dp_dq, 0.0);
    assert!(pe.dphi_dq > 0.0, "Corollary 1: utilization rises with q");
    assert!(pe.dr_dq > 0.0, "Corollary 1: revenue rises with q");
    // Some CP gains and some loses (the congestion externality).
    assert!((0..8).any(|i| pe.throughput_increasing(i)));
    assert!((0..8).any(|i| !pe.throughput_increasing(i)));
}

#[test]
fn corollary2_welfare_condition_consistent() {
    let sys = section5_system();
    let (p, q) = (0.6, 0.35);
    let game = SubsidyGame::new(sys, p, q).unwrap();
    let solver = solver();
    let eq = solver.solve(&game).unwrap();
    let sens = Sensitivity::compute(&game, &eq.subsidies).unwrap();
    let dt_dq: Vec<f64> = sens.ds_dq.iter().map(|d| -d).collect();
    let c2 = corollary2(&game, &eq.state, &eq.subsidies, &dt_dq).unwrap();
    assert!(c2.dphi_dq > 0.0);
    // Sign consistency between the condition and dW/dq.
    assert_eq!(c2.predicts_increase(), c2.dw_dq > 0.0);
    // And against re-solved welfare.
    let h = 1e-4;
    let w = |qq: f64| {
        let g = game.with_cap(qq).unwrap();
        let e = solver.solve(&g).unwrap();
        welfare(&g, &e.state)
    };
    let fd = (w(q + h) - w(q - h)) / (2.0 * h);
    assert_eq!(fd > 0.0, c2.dw_dq > 0.0);
}

#[test]
fn theorem5_subsidy_monotone_in_profitability_across_grid() {
    // Theorem 5 asserted as a comparative-statics sweep, not a single
    // step: CP 5's equilibrium subsidy rises monotonically with its v
    // while it is interior, then pins at the effective cap min(q, v).
    let base = SubsidyGame::new(section5_system(), 0.8, 1.0).unwrap();
    let solver = solver();
    let mut prev = -f64::INFINITY;
    for v in [0.6, 0.8, 1.0, 1.2, 1.5, 2.0] {
        let game = base.with_profitability(5, v).unwrap();
        let eq = solver.solve(&game).unwrap();
        assert!(eq.converged);
        assert!(
            eq.subsidies[5] >= prev - 1e-9,
            "subsidy must be nondecreasing in v: s({v}) = {} < {prev}",
            eq.subsidies[5]
        );
        // Lemma 3 follow-through: throughput ranking moves with it.
        assert!(eq.subsidies[5] <= game.effective_cap(5) + 1e-12);
        prev = eq.subsidies[5];
    }
    // The sweep must actually traverse the interior and reach the cap.
    let rich = base.with_profitability(5, 2.0).unwrap();
    let pinned = solver.solve(&rich).unwrap();
    assert!((pinned.subsidies[5] - rich.effective_cap(5)).abs() < 1e-6);
}

#[test]
fn capacity_comparative_statics_split_by_congestion_sensitivity() {
    // Subsidy response to capacity µ, a claim the paper leaves implicit
    // in §6's capacity-planning discussion. Expanding µ relieves
    // congestion, which shifts the equilibrium in opposite directions for
    // the two congestion classes of the §5 market: congestion-tolerant
    // types (β = 2 — indices 2, 4, 6 among the active CPs) value the
    // extra headroom and escalate their subsidies, while
    // congestion-sensitive types (β = 5 — indices 3, 5, 7) rely less on
    // subsidizing once the network is fast anyway. Equilibrium
    // utilization falls and total throughput rises throughout (Theorem 1
    // carried through the equilibrium map).
    let solver = solver();
    let mut prev: Option<(Vec<f64>, f64, f64)> = None;
    for mu in [0.5, 0.75, 1.0, 1.5, 2.0, 3.0] {
        let sys = section5_system().with_capacity(mu).unwrap();
        let game = SubsidyGame::new(sys, 0.6, 1.0).unwrap();
        let eq = solver.solve(&game).unwrap();
        assert!(eq.converged, "mu = {mu}");
        if let Some((s_prev, phi_prev, theta_prev)) = &prev {
            for &i in &[2usize, 4, 6] {
                assert!(
                    eq.subsidies[i] >= s_prev[i] - 1e-9,
                    "beta=2 CP {i} must raise its subsidy with mu: {} -> {}",
                    s_prev[i],
                    eq.subsidies[i]
                );
            }
            for &i in &[3usize, 5, 7] {
                assert!(
                    eq.subsidies[i] <= s_prev[i] + 1e-9,
                    "beta=5 CP {i} must lower its subsidy with mu: {} -> {}",
                    s_prev[i],
                    eq.subsidies[i]
                );
            }
            assert!(eq.state.phi < *phi_prev, "utilization must fall with mu");
            assert!(eq.state.theta() > *theta_prev, "throughput must rise with mu");
        }
        prev = Some((eq.subsidies.clone(), eq.state.phi, eq.state.theta()));
    }
}

#[test]
fn figure4_one_sided_revenue_single_peaked() {
    // The revenue-maximizing uniform price on a grid over [0, 3], through
    // the one-sided sweep Figures 4–5 run.
    let prices: Vec<f64> = (0..=60).map(|k| 3.0 * k as f64 / 60.0).collect();
    let sweep = one_sided_sweep(&section3_system(), &prices).unwrap();
    let peak = sweep.iter().max_by(|a, b| a.revenue.total_cmp(&b.revenue)).unwrap();
    let (p_star, r_star) = (peak.p, peak.revenue);
    assert!(p_star > 0.0 && p_star < 3.0);
    assert!(r_star > 0.0);
}
