//! The structured Theorem 6 engine against its finite-difference oracle.
//!
//! `SensitivityWorkspace` assembles `∇u = diag(d) + A·φᵀ + B·cᵀ` from one
//! solved state and solves the interior block by Woodbury, with analytic
//! right-hand sides. The finite-difference path it replaced stays as the
//! oracle here:
//!
//! * the Jacobian: `structure::marginal_utility_jacobian`, central
//!   differences of the analytic `u`. A column pinned at a box corner is
//!   a one-sided difference there, only first order in its step, so
//!   pinned columns are checked against a second-order one-sided
//!   difference of the same `u` instead;
//! * `directional` along all four axes: the FD Jacobian's interior block
//!   factored by LU, against the right-hand sides of
//!   `Sensitivity::axis_shift` (price, capacity, profitability) and
//!   the pinned-at-`q` column sum (cap).
//!
//! Inputs: `farm_game` ensembles with n = 2..64; mixed model families
//! (power γ = 0.5 and 2 and queue utilization; power and logistic
//! throughput; linear, isoelastic and logistic demand); and clamped-price
//! games away from the `t = 0` kink. The bound is 1e-6 relative plus a
//! 1e-9 absolute floor — finite differences' own error — and no input may
//! take the engine's dense fallback. Jacobian entries are held to it one
//! by one. A derivative is held to it relative to the largest interior
//! component of the oracle's vector: the FD noise in the Jacobian and the
//! right-hand side spreads through `Ψ` into every component, so a
//! component far below the vector's scale carries the vector's absolute
//! noise, not its own relative one.

mod common;

use common::mixed_game;
use proptest::prelude::*;
use subcomp::exp::scenarios::farm_game;
use subcomp::game::game::{Axis, SubsidyGame};
use subcomp::game::nash::NashSolver;
use subcomp::game::sensitivity::{Sensitivity, SensitivityWorkspace};
use subcomp::game::structure::marginal_utility_jacobian;
use subcomp::num::linalg::lu::LuDecomposition;
use subcomp::num::linalg::Matrix;

const RTOL: f64 = 1e-6;
const ATOL: f64 = 1e-9;

fn close(structured: f64, oracle: f64, scale: f64) -> bool {
    (structured - oracle).abs() <= RTOL * scale + ATOL
}

/// The oracle Jacobian: `marginal_utility_jacobian`, with every column
/// pinned at a corner replaced by the second-order one-sided difference
/// `(−3u(s) + 4u(s ± h) − u(s ± 2h)) / 2h` into the box.
fn fd_jacobian(game: &SubsidyGame, s: &[f64], interior: &[usize]) -> Matrix {
    let mut jac = marginal_utility_jacobian(game, s).unwrap();
    let n = game.n();
    // marginal_utility_jacobian's own step: at the corners u can curve
    // hard enough that a larger one-sided step misses the bound.
    let h = 1e-6 * (1.0 + game.cap());
    let u0 = game.marginal_utilities(s).unwrap();
    let mut sp = s.to_vec();
    for j in (0..n).filter(|j| !interior.contains(j)) {
        let dir = if s[j] < 0.5 * game.cap() { 1.0 } else { -1.0 };
        sp[j] = (s[j] + dir * h).clamp(0.0, game.cap());
        let u1 = game.marginal_utilities(&sp).unwrap();
        sp[j] = (s[j] + 2.0 * dir * h).clamp(0.0, game.cap());
        let u2 = game.marginal_utilities(&sp).unwrap();
        sp[j] = s[j];
        for i in 0..n {
            jac[(i, j)] = dir * (-3.0 * u0[i] + 4.0 * u1[i] - u2[i]) / (2.0 * h);
        }
    }
    jac
}

/// The FD directional derivative: the oracle Jacobian's interior block
/// by LU against FD right-hand sides.
fn fd_directional(
    game: &SubsidyGame,
    s: &[f64],
    axis: Axis,
    jac: &Matrix,
    interior: &[usize],
    upper: &[usize],
) -> Vec<f64> {
    let n = game.n();
    let mut ds = vec![0.0; n];
    if axis == Axis::Cap {
        for &i in upper {
            ds[i] = 1.0;
        }
    }
    let rhs: Vec<f64> = match axis {
        Axis::Cap => {
            interior.iter().map(|&k| upper.iter().map(|&j| jac[(k, j)]).sum::<f64>()).collect()
        }
        _ => {
            let shift = Sensitivity::axis_shift(game, s, axis).unwrap();
            interior.iter().map(|&k| shift[k]).collect()
        }
    };
    let sol = LuDecomposition::new(&jac.submatrix(interior).unwrap()).unwrap().solve(&rhs).unwrap();
    for (&x, &i) in sol.iter().zip(interior) {
        ds[i] = -x;
    }
    ds
}

/// Solves `game` and checks the structured engine against the oracle at
/// its equilibrium: every Jacobian entry, then `directional` along price,
/// cap, capacity and the profitability of one interior and one pinned
/// provider. Skips (rejects) degenerate or fully pinned equilibria, and
/// ones within a finite-difference step of the clamped `t = 0` kink.
fn check_against_oracle(game: &SubsidyGame) -> Result<(), TestCaseError> {
    let s = NashSolver::default().with_tol(1e-10).solve(game).unwrap().subsidies;
    if game.clamps_effective_price() {
        prop_assume!(s.iter().all(|&si| (game.price() - si).abs() > 1e-4));
    }
    let mut ws = SensitivityWorkspace::new();
    prop_assume!(ws.factor(game, &s).unwrap());
    let (interior, upper, lower) =
        (ws.active().interior.clone(), ws.active().upper.clone(), ws.active().lower.clone());
    prop_assume!(!interior.is_empty());

    let structured = ws.jacobian();
    let oracle = fd_jacobian(game, &s, &interior);
    let n = game.n();
    for i in 0..n {
        for j in 0..n {
            prop_assert!(
                close(structured[(i, j)], oracle[(i, j)], oracle[(i, j)].abs()),
                "n {n}: ∂u_{i}/∂s_{j} = {} vs oracle {}",
                structured[(i, j)],
                oracle[(i, j)]
            );
        }
    }

    let mut axes = vec![Axis::Price, Axis::Cap, Axis::Mu, Axis::Profitability(interior[0])];
    if let Some(&j) = upper.first().or(lower.first()) {
        axes.push(Axis::Profitability(j));
    }
    let mut ds = Vec::new();
    for axis in axes {
        ws.solve_into(axis, &mut ds).unwrap();
        let fd = fd_directional(game, &s, axis, &oracle, &interior, &upper);
        let scale = interior.iter().map(|&k| fd[k].abs()).fold(0.0, f64::max);
        for i in 0..n {
            prop_assert!(
                close(ds[i], fd[i], scale),
                "n {n}, along {}: ∂s_{i} = {} vs oracle {}",
                axis.describe(),
                ds[i],
                fd[i]
            );
        }
    }
    prop_assert_eq!(ws.dense_fallbacks(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 32 } else { 256 }))]

    #[test]
    fn structured_engine_matches_the_oracle_on_farm_games(
        seed in 0u64..1_000_000,
        index in 0u64..1_000_000,
    ) {
        check_against_oracle(&farm_game(seed, index, 2, 64).unwrap())?;
    }

    #[test]
    fn structured_engine_matches_the_oracle_on_mixed_families(
        util in 0usize..4,
        tput in 0usize..3,
        dem in 0usize..4,
        cps in proptest::collection::vec((1.0f64..5.0, 0.5f64..2.0, 0.5f64..5.0, 0.3f64..1.2), 2..7),
        mu in 0.5f64..2.0,
        p in 0.4f64..1.2,
        q_frac in 0.3f64..0.95,
    ) {
        check_against_oracle(&mixed_game((util, tput, dem), &cps, mu, p, q_frac))?;
    }

    #[test]
    fn structured_engine_matches_the_oracle_on_clamped_games(
        seed in 0u64..1_000_000,
        index in 0u64..1_000_000,
    ) {
        // farm_game draws p ∈ [0.3, 1.2] and q ∈ [0.2, 1.0], so caps above
        // the price — where clamping can bind — are common.
        check_against_oracle(&farm_game(seed, index, 2, 12).unwrap().with_clamped_price(true))?;
    }
}
