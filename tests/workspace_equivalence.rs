//! Property tier for the workspace engine: on random games, solves through
//! a reused [`SolveWorkspace`] must match fresh-workspace solves
//! **bit-exactly** — same subsidies, state, utilities, sweep counts and
//! residual bits — across the Nash engine, the damped-Jacobi cross-check
//! and both VI methods, including a workspace hopping between games of
//! different sizes.
//!
//! This is the contract that lets `solve`, `projection_solve` and
//! `extragradient_solve` remain thin shims over the engine (and what
//! keeps the golden snapshots byte-identical across the allocation-free
//! refactor).

use proptest::prelude::*;
use subcomp::game::game::SubsidyGame;
use subcomp::game::nash::{NashSolver, SolveStats, WarmStart};
use subcomp::game::vi::{
    extragradient_solve, extragradient_solve_into, projection_solve, projection_solve_into,
    ViConfig,
};
use subcomp::game::workspace::SolveWorkspace;
use subcomp::model::aggregation::{build_system, ExpCpSpec};

/// Strategy: a small market of 2–4 exponential CP types.
fn market_strategy() -> impl Strategy<Value = Vec<ExpCpSpec>> {
    proptest::collection::vec(
        (0.8f64..5.5, 0.8f64..5.5, 0.2f64..1.1)
            .prop_map(|(alpha, beta, v)| ExpCpSpec::unit(alpha, beta, v)),
        2..=4,
    )
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn nash_workspace_reuse_is_bit_exact(
        specs_a in market_strategy(),
        specs_b in market_strategy(),
        p in 0.3f64..1.0,
        q in 0.2f64..1.0,
    ) {
        let game_a = SubsidyGame::new(build_system(&specs_a, 1.0).unwrap(), p, q).unwrap();
        let game_b = SubsidyGame::new(build_system(&specs_b, 1.0).unwrap(), 1.3 - p, q).unwrap();
        let (engine, jacobi) = (NashSolver::default().with_tol(1e-8), NashSolver::default().with_tol(1e-7));
        let engine_run = |game: &SubsidyGame, ws: &mut SolveWorkspace| {
            engine.solve_into(game, WarmStart::Zero, ws).unwrap()
        };
        let jacobi_run = |game: &SubsidyGame, ws: &mut SolveWorkspace| {
            jacobi.solve_jacobi_into(game, WarmStart::Zero, ws, 0.6).unwrap()
        };
        let runs: [&dyn Fn(&SubsidyGame, &mut SolveWorkspace) -> SolveStats; 2] =
            [&engine_run, &jacobi_run];
        for run in runs {
            // Fresh-workspace reference solves.
            let fresh = |game: &SubsidyGame| {
                let mut ws = SolveWorkspace::for_game(game);
                let stats = run(game, &mut ws);
                ws.solution(stats)
            };
            let (fresh_a, fresh_b) = (fresh(&game_a), fresh(&game_b));
            // One workspace reused across games of (usually) different n,
            // then back to the first game — every run must be bit-exact.
            let mut ws = SolveWorkspace::new();
            for (game, fresh) in [(&game_a, &fresh_a), (&game_b, &fresh_b), (&game_a, &fresh_a)] {
                let stats = run(game, &mut ws);
                prop_assert_eq!(bits(ws.subsidies()), bits(&fresh.subsidies));
                prop_assert_eq!(bits(ws.utilities()), bits(&fresh.utilities));
                prop_assert_eq!(ws.state().phi.to_bits(), fresh.state.phi.to_bits());
                prop_assert_eq!(bits(&ws.state().theta_i), bits(&fresh.state.theta_i));
                prop_assert_eq!(stats.iterations, fresh.iterations);
                prop_assert_eq!(stats.residual.to_bits(), fresh.residual.to_bits());
                prop_assert_eq!(stats.converged, fresh.converged);
            }
        }
    }

    #[test]
    fn warm_profile_start_is_bit_exact(
        specs in market_strategy(),
        p in 0.3f64..1.0,
        q in 0.2f64..1.0,
        warm in 0.0f64..0.2,
    ) {
        let game = SubsidyGame::new(build_system(&specs, 1.0).unwrap(), p, q).unwrap();
        let s0 = vec![warm; game.n()];
        let solver = NashSolver::default().with_tol(1e-8);
        let mut fresh_ws = SolveWorkspace::for_game(&game);
        let fresh = solver.solve_into(&game, WarmStart::Profile(&s0), &mut fresh_ws).unwrap();
        // A workspace holding another solve's iterate must not leak it
        // into an explicit profile start.
        let mut ws = SolveWorkspace::new();
        solver.solve_into(&game, WarmStart::Zero, &mut ws).unwrap();
        let stats = solver.solve_into(&game, WarmStart::Profile(&s0), &mut ws).unwrap();
        prop_assert_eq!(bits(ws.subsidies()), bits(fresh_ws.subsidies()));
        prop_assert_eq!(stats.iterations, fresh.iterations);
        prop_assert_eq!(stats.residual.to_bits(), fresh.residual.to_bits());
    }

    #[test]
    fn vi_workspace_reuse_is_bit_exact(
        specs_a in market_strategy(),
        specs_b in market_strategy(),
        p in 0.3f64..1.0,
        q in 0.2f64..0.9,
    ) {
        let game_a = SubsidyGame::new(build_system(&specs_a, 1.0).unwrap(), p, q).unwrap();
        let game_b = SubsidyGame::new(build_system(&specs_b, 1.0).unwrap(), 1.2 - p, q).unwrap();
        let cfg = ViConfig { tol: 1e-6, ..Default::default() };
        let mut ws = SolveWorkspace::new();
        for game in [&game_a, &game_b, &game_a] {
            let s0 = vec![0.0; game.n()];
            let fresh_pj = projection_solve(game, &s0, &cfg).unwrap();
            let pj = projection_solve_into(game, &s0, &cfg, &mut ws).unwrap();
            prop_assert_eq!(bits(ws.subsidies()), bits(&fresh_pj.subsidies));
            prop_assert_eq!(ws.state().phi.to_bits(), fresh_pj.state.phi.to_bits());
            prop_assert_eq!(pj.iterations, fresh_pj.iterations);
            prop_assert_eq!(pj.natural_residual.to_bits(), fresh_pj.natural_residual.to_bits());

            let fresh_eg = extragradient_solve(game, &s0, &cfg).unwrap();
            let eg = extragradient_solve_into(game, &s0, &cfg, &mut ws).unwrap();
            prop_assert_eq!(bits(ws.subsidies()), bits(&fresh_eg.subsidies));
            prop_assert_eq!(eg.iterations, fresh_eg.iterations);
            prop_assert_eq!(eg.natural_residual.to_bits(), fresh_eg.natural_residual.to_bits());
        }
    }
}
