//! Independent solver families must agree: best-response iteration (the
//! Newton-corrected engine, pure Gauss–Seidel and damped Jacobi sweeps),
//! the projection VI reference, a projected gradient flow integrated in
//! the test itself, the grid-scan best-response oracle, and the
//! KKT/threshold/natural-residual certificates — across randomized markets.

use proptest::prelude::*;
use subcomp::exp::scenarios::farm_game;
use subcomp::exp::sweep::BatchSolver;
use subcomp::game::best_response::{deviation_gap, grid_best_response};
use subcomp::game::equilibrium::verify_equilibrium;
use subcomp::game::game::SubsidyGame;
use subcomp::game::nash::{NashSolver, WarmStart};
use subcomp::game::vi::{natural_residual, projection_solve};
use subcomp::game::workspace::{SolveBudget, SolveWorkspace};
use subcomp::model::aggregation::{build_system, ExpCpSpec};
use subcomp_exp::scenarios::random_system;

fn game_for_seed(seed: u64) -> SubsidyGame {
    let sys = random_system(5, seed, 1.0);
    SubsidyGame::new(sys, 0.5 + 0.3 * ((seed % 3) as f64), 0.8).unwrap()
}

/// Strategy: a random valid market of 2–6 exponential CP types.
fn market_strategy() -> impl Strategy<Value = Vec<ExpCpSpec>> {
    proptest::collection::vec(
        (0.5f64..6.0, 0.5f64..6.0, 0.1f64..1.2)
            .prop_map(|(alpha, beta, v)| ExpCpSpec::unit(alpha, beta, v)),
        2..=6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Theorem 4 as a property: on random valid games, the Newton-corrected
    /// engine, pure Gauss–Seidel sweeps and damped Jacobi sweeps must land
    /// on the same unique equilibrium within tolerance.
    #[test]
    fn sweep_families_agree_on_random_games(
        specs in market_strategy(),
        mu in 0.4f64..2.5,
        p in 0.1f64..1.2,
        q in 0.05f64..1.0,
    ) {
        let sys = build_system(&specs, mu).unwrap();
        let game = SubsidyGame::new(sys, p, q).unwrap();
        let solver = NashSolver::default().with_tol(1e-9);
        let reference = solver.solve(&game).unwrap();
        prop_assert!(reference.converged);
        let mut ws = SolveWorkspace::for_game(&game);
        for (label, damping) in
            [("gs-sweeps", None), ("jacobi-damped-0.8", Some(0.8)), ("jacobi-damped-0.5", Some(0.5))]
        {
            let stats = match damping {
                None => solver.solve_by_sweeps_into(
                    &game,
                    WarmStart::Zero,
                    &mut ws,
                    SolveBudget::unlimited(),
                ),
                Some(omega) => solver.solve_jacobi_into(&game, WarmStart::Zero, &mut ws, omega),
            }
            .unwrap();
            prop_assert!(stats.converged, "{label} did not converge");
            for (i, (a, b)) in reference.subsidies.iter().zip(ws.subsidies()).enumerate() {
                prop_assert!((a - b).abs() < 1e-5, "{label} CP {i}: GS {a} vs {b}");
            }
        }
    }

    /// The grid-scan oracle on the `solve_farm` ensemble definition: every
    /// equilibrium of the default batch engine (Theorem 3 threshold best
    /// responses, warm-started chains) is a fixed point of the independent
    /// grid-scan best response to 1e-7 per provider, and no provider can
    /// gain more than 1e-8 by deviating.
    #[test]
    fn farm_equilibria_are_grid_oracle_fixed_points(
        seed in 0u64..(1u64 << 48),
        count in 8usize..=40,
    ) {
        let games: Vec<SubsidyGame> =
            (0..count as u64).map(|k| farm_game(seed, k, 2, 12).unwrap()).collect();
        let solved = BatchSolver::default().solve_games(&games);
        for (k, (game, eq)) in games.iter().zip(solved).enumerate() {
            let eq = eq.unwrap();
            prop_assert!(eq.converged, "game {} did not converge", k);
            for i in 0..game.n() {
                let grid = grid_best_response(game, i, &eq.subsidies).unwrap();
                prop_assert!(
                    (grid.s - eq.subsidies[i]).abs() < 1e-7,
                    "game {} CP {}: equilibrium {} vs grid best response {}",
                    k, i, eq.subsidies[i], grid.s
                );
            }
            let (gap, who) = deviation_gap(game, &eq.subsidies).unwrap();
            prop_assert!(gap < 1e-8, "game {} CP {} gains {:e} by deviating", k, who, gap);
        }
    }

    /// The solved point carries independent certificates regardless of the
    /// sweep family that produced it.
    #[test]
    fn any_sweep_family_passes_certificates(
        specs in market_strategy(),
        p in 0.1f64..1.0,
        q in 0.05f64..0.9,
        omega in 0.5f64..1.0,
    ) {
        let sys = build_system(&specs, 1.0).unwrap();
        let game = SubsidyGame::new(sys, p, q).unwrap();
        let mut ws = SolveWorkspace::for_game(&game);
        NashSolver::default()
            .with_tol(1e-9)
            .solve_jacobi_into(&game, WarmStart::Zero, &mut ws, omega)
            .unwrap();
        let report = verify_equilibrium(&game, ws.subsidies()).unwrap();
        prop_assert!(
            report.is_equilibrium(1e-5),
            "kkt {:.2e} threshold {:.2e}",
            report.max_kkt_residual,
            report.max_threshold_residual
        );
    }
}

#[test]
fn br_vi_and_certificates_agree_on_random_markets() {
    for (seed, start) in [(1u64, 0.0), (2, 0.0), (3, 0.0), (4, 0.0), (5, 0.0), (7, 0.2)] {
        let game = game_for_seed(seed);
        let br = NashSolver::default().with_tol(1e-9).solve(&game).unwrap();
        let vi = projection_solve(&game, &[start; 5]).unwrap();
        for i in 0..5 {
            assert!(
                (br.subsidies[i] - vi.subsidies[i]).abs() < 1e-5,
                "seed {seed} CP {i}: BR {} vs VI {}",
                br.subsidies[i],
                vi.subsidies[i]
            );
        }
        // Certificates.
        let report = verify_equilibrium(&game, &br.subsidies).unwrap();
        assert!(report.is_equilibrium(1e-5), "seed {seed}");
        let nr = natural_residual(&game, &br.subsidies).unwrap();
        assert!(nr < 1e-6, "seed {seed}: natural residual {nr}");
    }
}

#[test]
fn deviation_gap_vanishes_only_at_equilibrium() {
    let game = game_for_seed(9);
    let eq = NashSolver::default().solve(&game).unwrap();
    let (gap_eq, _) = deviation_gap(&game, &eq.subsidies).unwrap();
    assert!(gap_eq < 1e-7, "gap at equilibrium {gap_eq}");
    let (gap_origin, _) = deviation_gap(&game, &[0.0; 5]).unwrap();
    assert!(gap_origin > gap_eq);
}

#[test]
fn continuous_dynamics_settle_on_the_same_point() {
    // Projected gradient dynamics ṡ_i = u_i(s) on the box [0, cap_i],
    // integrated by explicit Euler with every step clamped into the box;
    // its rest points are exactly the Nash equilibria. The flow's time
    // constant scales with 1/|∂u/∂s|, which is small for low-throughput
    // providers — give the integrator a long horizon.
    let game = game_for_seed(11);
    let eq = NashSolver::default().solve(&game).unwrap();
    let (horizon, steps) = (600.0, 3000);
    let dt = horizon / steps as f64;
    let caps: Vec<f64> = (0..5).map(|i| game.effective_cap(i)).collect();
    let dist =
        |s: &[f64]| s.iter().zip(&eq.subsidies).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    let mut s = vec![0.0; 5];
    let d0 = dist(&s);
    for _ in 0..steps {
        let u = game.marginal_utilities(&s).unwrap();
        for i in 0..5 {
            s[i] = (s[i] + dt * u[i]).clamp(0.0, caps[i]);
        }
    }
    let d_end = dist(&s);
    assert!(d_end < 2e-2, "flow must approach the Nash point: {s:?} vs {:?}", eq.subsidies);
    assert!(d_end < 0.05 * d0, "distance must shrink by 20x (was {d0}, now {d_end})");
}

#[test]
fn warm_and_cold_starts_unique_equilibrium() {
    // Theorem 4 in action on random markets: different starting profiles
    // converge to the same equilibrium.
    for seed in [21u64, 22, 23] {
        let game = game_for_seed(seed);
        let solver = NashSolver::default();
        let a = solver.solve(&game).unwrap();
        let caps: Vec<f64> = (0..5).map(|i| game.effective_cap(i)).collect();
        let mut ws = SolveWorkspace::for_game(&game);
        solver.solve_into(&game, WarmStart::Profile(&caps), &mut ws).unwrap();
        for (i, (a, b)) in a.subsidies.iter().zip(ws.subsidies()).enumerate() {
            assert!((a - b).abs() < 1e-6, "seed {seed} CP {i}");
        }
    }
}
