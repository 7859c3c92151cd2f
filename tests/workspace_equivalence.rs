//! Property tier for the workspace engine: on random games, solves through
//! a reused [`SolveWorkspace`] must match fresh-workspace solves
//! **bit-exactly** — same subsidies, state, utilities, sweep counts and
//! residual bits — for the Nash engine and the damped-Jacobi cross-check,
//! including a workspace hopping between games of different sizes.
//!
//! This is the contract that lets `NashSolver::solve` remain a thin shim
//! over the engine (and what keeps the golden snapshots byte-identical
//! across the allocation-free refactor).
//!
//! One more contract rides here: the congestion state an [`EqSnapshot`]
//! holds is bit-identical to the state solved cold at its subsidies,
//! whatever answered — a cold or warm solve, a budget-starved partial, or
//! a snapshot a rebuilt server preloaded after a kill. The equilibrium
//! server factors Theorem 6 from that state instead of solving it again,
//! so a solve that ever ended on a seeded state would fail here before it
//! moved a served derivative.

use proptest::prelude::*;
use subcomp::exp::server::{Reply, Request, Sabotage, ShardedConfig, ShardedServer, Source};
use subcomp::game::game::{Axis, SubsidyGame};
use subcomp::game::nash::{NashSolver, SolveStats, WarmStart};
use subcomp::game::snapshot::EqSnapshot;
use subcomp::game::workspace::{SolveBudget, SolveWorkspace};
use subcomp::model::aggregation::{build_system, ExpCpSpec};
use subcomp::model::system::SystemState;

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

/// Every float of a solved state, as bits.
fn state_bits(st: &SystemState) -> Vec<u64> {
    let mut out = vec![st.phi.to_bits(), st.dg_dphi.to_bits()];
    for xs in [&st.m, &st.lambda, &st.theta_i] {
        out.extend(bits(xs));
    }
    out
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
    fn snapshot_state_is_the_cold_state_at_its_subsidies(
        specs in market_strategy(),
        p in 0.3f64..1.0,
        q in 0.2f64..1.0,
    ) {
        let game = SubsidyGame::new(build_system(&specs, 1.0).unwrap(), p, q).unwrap();
        let mut neighbour = game.clone();
        Axis::Price.apply(&mut neighbour, p + 0.05).unwrap();
        let solver = NashSolver::default().with_tol(1e-10);
        let mut ws = SolveWorkspace::for_game(&game);
        let mut answers = Vec::new();
        let stats = solver.solve_into(&game, WarmStart::Zero, &mut ws).unwrap();
        answers.push((game.clone(), EqSnapshot::capture(&game, &ws, stats)));
        let stats = solver.solve_into(&neighbour, WarmStart::Previous, &mut ws).unwrap();
        answers.push((neighbour.clone(), EqSnapshot::capture(&neighbour, &ws, stats)));
        let budget = SolveBudget::sweeps(1);
        let stats = solver.solve_into_budgeted(&game, WarmStart::Zero, &mut ws, budget).unwrap();
        answers.push((game.clone(), EqSnapshot::capture(&game, &ws, stats)));
        // A kill rebuilds the market and preloads its published answer;
        // the next sensitivity read is a cache hit on that snapshot.
        let mut fleet =
            ShardedServer::new(vec![(0, game.clone())], &ShardedConfig::default()).unwrap();
        fleet.serve(0, Request::Equilibrium).unwrap();
        prop_assert!(fleet.serve_sabotaged(0, Request::Equilibrium, Sabotage::Kill).is_err());
        let (snap, source) = match fleet.serve(0, Request::Sensitivity { axis: Axis::Price }) {
            Ok(Reply::Sensitivity { snap, source, .. } | Reply::Degenerate { snap, source, .. }) => {
                (snap, source)
            }
            other => panic!("a converged market answers a sensitivity read, got {other:?}"),
        };
        prop_assert_eq!(source, Source::CacheHit);
        answers.push((game.clone(), (*snap).clone()));
        for (game, snap) in &answers {
            let cold = game.state(snap.subsidies()).unwrap();
            prop_assert_eq!(state_bits(snap.state()), state_bits(&cold));
        }
    }
}
