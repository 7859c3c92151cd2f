//! The Newton corrector against its pure-sweep oracle.
//!
//! `NashSolver::solve_into_budgeted` guesses the Theorem 3 active set at
//! its iterate and takes Newton steps on the interior conditions
//! `u_Ñ(s) = 0`, with Theorem 6's Jacobian as Newton's matrix;
//! Gauss–Seidel sweeps are its globalization. The pure sweep engine stays
//! callable as `NashSolver::solve_by_sweeps_into`, the oracle here: both
//! solve the same game from the same start, and their equilibria must
//! agree within 1e-8 in the sup-norm, on
//!
//! * `farm_game` ensembles with n = 2..64, cold and warm-started from the
//!   equilibrium at a 2% higher price;
//! * mixed model families (the inputs of `sensitivity_oracle.rs`);
//! * clamped-price farm games, kink equilibria included. A provider
//!   sitting on the `t = 0` kink has no root of `u_i`, so the corrector
//!   must decline there and the sweep finish;
//! * warm chains along the §5 market's price and µ axes.
//!
//! The oracle solves every best-response root to 1e-13. The engine's
//! sweeps solve theirs to a forcing tolerance, up to 1e-4, and a sweep
//! that did so cannot certify an update below that tolerance; the
//! agreement bound holds all the same. No farm or mixed game may take the
//! Newton path's dense fallback or the best response's grid-scan
//! fallback. Four warm-chain blocks of the farm ensembles, on which a
//! sweep without that certification floor, or with one keyed on where a
//! response landed, declared games converged off the equilibrium, pin
//! the floor.

mod common;

use common::mixed_game;
use proptest::prelude::*;
use subcomp::exp::scenarios::{farm_game, section5_system};
use subcomp::exp::sweep::BatchSolver;
use subcomp::game::equilibrium::{verify_equilibrium, PIN_TOL};
use subcomp::game::game::{Axis, SubsidyGame};
use subcomp::game::nash::{NashSolver, SolveStats, WarmStart};
use subcomp::game::workspace::{SolveBudget, SolveWorkspace};
use subcomp::num::NumResult;

const GAP: f64 = 1e-8;

/// The corrected engine and the oracle on one game from one start: the
/// engine's stats, its dense and grid-scan fallback counts, and the
/// sup-norm gap between the two equilibria.
fn compare(game: &SubsidyGame, start: WarmStart<'_>) -> (SolveStats, (u64, u64), f64) {
    let solver = NashSolver::default();
    let mut ws = SolveWorkspace::for_game(game);
    let stats = solver.solve_into(game, start, &mut ws).unwrap();
    let mut oracle = SolveWorkspace::for_game(game);
    let reference =
        solver.solve_by_sweeps_into(game, start, &mut oracle, SolveBudget::unlimited()).unwrap();
    assert!(stats.converged && reference.converged);
    let fallbacks = (ws.newton_dense_fallbacks(), ws.grid_fallbacks());
    (stats, fallbacks, sup_gap(ws.subsidies(), oracle.subsidies()))
}

fn sup_gap(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |m, (x, y)| m.max((x - y).abs()))
}

/// Checks `game` cold and warm-started from the equilibrium at a 2%
/// higher price; `fallback_free` also holds the engine to zero dense and
/// zero grid-scan fallbacks.
fn check(game: &SubsidyGame, fallback_free: bool) -> Result<(), TestCaseError> {
    let nearby = game.with_price(game.price() * 1.02).unwrap();
    let s0 = NashSolver::default().solve(&nearby).unwrap().subsidies;
    for start in [WarmStart::Zero, WarmStart::Profile(&s0)] {
        let (stats, fallbacks, gap) = compare(game, start);
        prop_assert!(gap <= GAP, "n {}: gap {gap:e} ({stats:?})", game.n());
        if fallback_free {
            prop_assert_eq!(fallbacks, (0, 0));
        }
    }
    Ok(())
}

/// The providers of an equilibrium `s` sitting on the clamped `t = 0`
/// kink inside their box, where `u_i` jumps instead of crossing zero.
fn kink_providers(game: &SubsidyGame, s: &[f64]) -> usize {
    (0..game.n())
        .filter(|&i| (game.price() - s[i]).abs() <= 1e-9 && s[i] < game.effective_cap(i) - PIN_TOL)
        .count()
}

/// A clamped game: the oracle check, and at a kink equilibrium the
/// corrector's decline — restarted on the equilibrium, the solve spends
/// no Newton step and one sweep confirms it. Returns whether the
/// equilibrium sits on the kink.
fn check_clamped(game: &SubsidyGame) -> Result<bool, TestCaseError> {
    check(game, false)?;
    let eq = NashSolver::default().solve(game).unwrap().subsidies;
    if kink_providers(game, &eq) == 0 {
        return Ok(false);
    }
    let (stats, _, gap) = compare(game, WarmStart::Profile(&eq));
    prop_assert_eq!((stats.newton_steps, stats.gs_sweeps()), (0, 1));
    prop_assert!(gap <= GAP);
    Ok(true)
}

/// Walks eight points along `axis` on the §5 market from `from` by
/// `step`, each warm-started from the previous point, with the engine and
/// the oracle on chains of their own.
fn check_chain(axis: Axis, q: f64, from: f64, step: f64) -> Result<(), TestCaseError> {
    let mut game = SubsidyGame::new(section5_system(), 0.6, q).unwrap();
    axis.apply(&mut game, from).unwrap();
    let solver = NashSolver::default();
    let (mut ws, mut oracle) = (SolveWorkspace::for_game(&game), SolveWorkspace::for_game(&game));
    solver.solve_into(&game, WarmStart::Zero, &mut ws).unwrap();
    solver
        .solve_by_sweeps_into(&game, WarmStart::Zero, &mut oracle, SolveBudget::unlimited())
        .unwrap();
    for k in 1..=8 {
        axis.apply(&mut game, from + k as f64 * step).unwrap();
        let stats = solver.solve_into(&game, WarmStart::Previous, &mut ws).unwrap();
        let reference = solver
            .solve_by_sweeps_into(&game, WarmStart::Previous, &mut oracle, SolveBudget::unlimited())
            .unwrap();
        prop_assert!(stats.converged && reference.converged);
        let gap = sup_gap(ws.subsidies(), oracle.subsidies());
        prop_assert!(gap <= GAP, "{} step {k}: gap {gap:e} ({stats:?})", axis.describe());
    }
    prop_assert_eq!(ws.newton_dense_fallbacks(), 0);
    Ok(())
}

#[test]
fn kink_equilibria_are_finished_by_the_sweep() {
    // farm_game draws caps above the price often enough that a fixed
    // slice of the ensemble holds kink equilibria.
    let mut kinks = 0;
    for index in 0..120 {
        let game = farm_game(11, index, 2, 12).unwrap().with_clamped_price(true);
        kinks += usize::from(check_clamped(&game).unwrap());
    }
    assert!(kinks > 0, "no kink equilibrium in the slice");
}

#[test]
fn forced_sweeps_certify_only_what_they_measured() {
    // Warm-chain blocks solved as the benchmarks solve them: three of the
    // benchmark farm's seed-11 ensemble (game i has 2 + i mod 11
    // providers) and one of `solve_farm`'s seed-7 ensemble. A sweep whose
    // roots stop at a forcing tolerance can move the iterate by less than
    // the solver tolerance while still that far off the equilibrium.
    // Without the certification floor, games 18636, 71859 and 78029 were
    // declared converged at KKT residuals from 3.8e-6 to 2.5e-5. With a
    // floor keyed on where a response landed instead of on how it was
    // solved, game 3696 was, at 1.01e-6: a root within the tolerance of a
    // corner is clamped onto it.
    let bench: fn(u64) -> NumResult<SubsidyGame> = |i| {
        let n = 2 + (i % 11) as usize;
        farm_game(11, i, n, n)
    };
    let farm: fn(u64) -> NumResult<SubsidyGame> = |i| farm_game(7, i, 2, 12);
    let batch = BatchSolver::default();
    for (build, from) in [(bench, 18_624u64), (bench, 71_840), (bench, 78_016), (farm, 3_680)] {
        let games: Vec<u64> = (from..from + batch.block as u64).collect();
        let solved = batch.run(
            &games,
            |&i| build(i),
            |game, ws, stats| {
                let report = verify_equilibrium(game, ws.subsidies()).unwrap();
                (stats.converged, report.max_kkt_residual, report.is_equilibrium(1e-6))
            },
        );
        for (i, result) in games.iter().zip(solved) {
            let (converged, kkt, certified) = result.unwrap();
            assert!(converged && certified, "game {i}: KKT residual {kkt:e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 32 } else { 256 }))]

    #[test]
    fn corrector_matches_the_oracle_on_farm_games(
        seed in 0u64..1_000_000,
        index in 0u64..1_000_000,
    ) {
        check(&farm_game(seed, index, 2, 64).unwrap(), true)?;
    }

    #[test]
    fn corrector_matches_the_oracle_on_mixed_families(
        util in 0usize..4,
        tput in 0usize..3,
        dem in 0usize..4,
        cps in proptest::collection::vec((1.0f64..5.0, 0.5f64..2.0, 0.5f64..5.0, 0.3f64..1.2), 2..7),
        mu in 0.5f64..2.0,
        p in 0.4f64..1.2,
        q_frac in 0.3f64..0.95,
    ) {
        check(&mixed_game((util, tput, dem), &cps, mu, p, q_frac), true)?;
    }

    #[test]
    fn corrector_matches_the_oracle_on_clamped_games(
        seed in 0u64..1_000_000,
        index in 0u64..1_000_000,
    ) {
        check_clamped(&farm_game(seed, index, 2, 12).unwrap().with_clamped_price(true))?;
    }

    #[test]
    fn corrector_matches_the_oracle_along_warm_chains(
        along_mu in 0usize..2,
        q in 0.2f64..1.0,
        from in 0.4f64..1.0,
        step in -0.05f64..0.05,
    ) {
        let (axis, from, step) =
            if along_mu == 1 { (Axis::Mu, 2.0 * from, 1.6 * step) } else { (Axis::Price, from, step) };
        check_chain(axis, q, from, step)?;
    }
}
