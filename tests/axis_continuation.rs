//! Engine-equivalence tier for the axis-generic continuation engine: the
//! in-place system reparameterization (`set_mu`, `set_profitability`,
//! `patch_cps`) must be **bit-exact** to rebuilding the system from
//! scratch, the `ContinuationSolver` must agree with independent cold
//! solves on every axis, and the row fan-out must stay bit-identical for
//! any thread count on the new axes.
//!
//! Together with the µ-sweep case in `tests/alloc_free.rs` (zero heap
//! allocation per warm sweep) this pins the axis-engine contract: a
//! kernel patch is a *representation* change, never an *answer* change,
//! and continuation along any axis is a *speed* optimization, never an
//! *answer* change.

use subcomp::exp::scenarios::{random_specs, section5_system};
use subcomp::exp::sweep::{Axis, ContinuationSolver, EqGrid, GridContext};
use subcomp::game::game::SubsidyGame;
use subcomp::game::nash::NashSolver;
use subcomp::model::aggregation::{build_system, ExpCpSpec};

fn nash(tol: f64) -> NashSolver {
    NashSolver::default().with_tol(tol)
}

// ---------------------------------------------------------------------------
// Kernel-patch reparameterization is bit-exact to a full rebuild
// ---------------------------------------------------------------------------

#[test]
fn set_mu_is_bit_exact_to_rebuild_across_markets() {
    for (seed, n) in [(11u64, 3usize), (12, 5), (13, 8)] {
        let specs = random_specs(n, seed);
        let base = SubsidyGame::new(build_system(&specs, 1.0).unwrap(), 0.55, 0.8).unwrap();
        let mut patched = base.clone();
        for mu in [0.4, 1.0, 2.5, 6.0] {
            patched.set_mu(mu).unwrap();
            let rebuilt = SubsidyGame::new(build_system(&specs, mu).unwrap(), 0.55, 0.8).unwrap();
            let a = nash(1e-9).solve(&patched).unwrap();
            let b = nash(1e-9).solve(&rebuilt).unwrap();
            assert_eq!(a.subsidies, b.subsidies, "seed {seed}, mu {mu}");
            assert_eq!(a.state.phi.to_bits(), b.state.phi.to_bits());
            assert_eq!(a.iterations, b.iterations, "identical solves sweep for sweep");
            assert_eq!(a.residual.to_bits(), b.residual.to_bits());
        }
    }
}

#[test]
fn set_profitability_is_bit_exact_to_rebuild() {
    let specs = random_specs(6, 21);
    let base = SubsidyGame::new(build_system(&specs, 1.0).unwrap(), 0.6, 0.9).unwrap();
    for (i, v) in [(0usize, 0.05), (2, 1.4), (5, 0.0)] {
        let mut patched = base.clone();
        patched.set_profitability(i, v).unwrap();
        let mut respec = specs.clone();
        respec[i].v = v;
        let rebuilt = SubsidyGame::new(build_system(&respec, 1.0).unwrap(), 0.6, 0.9).unwrap();
        let a = nash(1e-9).solve(&patched).unwrap();
        let b = nash(1e-9).solve(&rebuilt).unwrap();
        assert_eq!(a.subsidies, b.subsidies, "v[{i}] = {v}");
        assert_eq!(a.utilities, b.utilities);
        // And the cloning shim rides the same path.
        let shimmed = base.with_profitability(i, v).unwrap();
        let c = nash(1e-9).solve(&shimmed).unwrap();
        assert_eq!(a.subsidies, c.subsidies);
    }
}

#[test]
fn patch_cps_is_bit_exact_to_rebuild_through_a_nash_solve() {
    // Replace one provider wholesale (new β — a distinct-β slot
    // re-derivation — and new demand/profitability), then check the full
    // equilibrium pipeline agrees bit for bit with a from-scratch system.
    let specs = random_specs(5, 31);
    let base_sys = build_system(&specs, 1.2).unwrap();
    let mut respec = specs.clone();
    respec[3] = ExpCpSpec::unit(4.5, 7.0, 0.9);
    let replacement = respec[3].build(base_sys.cp(3).name().to_string());

    let mut patched_sys = base_sys.clone();
    patched_sys.patch_cps([(3, replacement)]).unwrap();
    let rebuilt_sys = {
        let cps: Vec<_> = (0..5)
            .map(|i| {
                let s = &respec[i];
                s.build(base_sys.cp(i).name().to_string())
            })
            .collect();
        subcomp::model::system::System::new(
            cps,
            1.2,
            subcomp::model::utilization::LinearUtilization,
        )
        .unwrap()
    };
    let a = nash(1e-9).solve(&SubsidyGame::new(patched_sys, 0.6, 0.8).unwrap()).unwrap();
    let b = nash(1e-9).solve(&SubsidyGame::new(rebuilt_sys, 0.6, 0.8).unwrap()).unwrap();
    assert_eq!(a.subsidies, b.subsidies);
    assert_eq!(a.state.phi.to_bits(), b.state.phi.to_bits());
    assert_eq!(a.utilities, b.utilities);
}

// ---------------------------------------------------------------------------
// Engine vs independent cold solves on the new axes
// ---------------------------------------------------------------------------

#[test]
fn mu_axis_continuation_matches_independent_cold_solves() {
    let sys = section5_system();
    let base = SubsidyGame::new(sys.clone(), 0.6, 0.8).unwrap();
    let mus = [0.4, 0.7, 1.0, 1.6, 2.5];
    let grid =
        ContinuationSolver::over(Axis::Cap, Axis::Mu).solve_game(&base, &[0.8], &mus).unwrap();
    let reference = nash(1e-8);
    for (c, &mu) in mus.iter().enumerate() {
        let game = SubsidyGame::new(sys.with_capacity(mu).unwrap(), 0.6, 0.8).unwrap();
        let cold = reference.solve(&game).unwrap();
        let pt = grid.point(0, c);
        for i in 0..8 {
            assert!(
                (pt.subsidies[i] - cold.subsidies[i]).abs() < 1e-6,
                "mu = {mu}, CP {i}: continuation {} vs cold {}",
                pt.subsidies[i],
                cold.subsidies[i]
            );
        }
        assert!((pt.phi - cold.state.phi).abs() < 1e-6);
        assert!((pt.revenue - cold.isp_revenue(&game)).abs() < 1e-6);
    }
}

#[test]
fn profitability_axis_continuation_matches_independent_cold_solves() {
    let sys = section5_system();
    let base = SubsidyGame::new(sys, 0.6, 1.0).unwrap();
    let vs = [0.2, 0.6, 1.0, 1.5, 2.0];
    let j = 6; // the a5-b2 type of the v = 1 block
    let grid = ContinuationSolver::over(Axis::Cap, Axis::Profitability(j))
        .solve_game(&base, &[1.0], &vs)
        .unwrap();
    let reference = nash(1e-8);
    for (c, &v) in vs.iter().enumerate() {
        let game = base.with_profitability(j, v).unwrap();
        let cold = reference.solve(&game).unwrap();
        let pt = grid.point(0, c);
        for i in 0..8 {
            assert!((pt.subsidies[i] - cold.subsidies[i]).abs() < 1e-6, "v[{j}] = {v}, CP {i}");
        }
    }
    // Theorem 5's direction along the swept axis: the shocked provider's
    // equilibrium subsidy is monotone nondecreasing in its profitability.
    for c in 1..vs.len() {
        assert!(grid.point(0, c).subsidies[j] >= grid.point(0, c - 1).subsidies[j] - 1e-9);
    }
}

#[test]
fn mu_price_grid_thread_fanout_is_bit_identical() {
    let sys = section5_system();
    let base = SubsidyGame::new(sys, 0.0, 0.7).unwrap();
    let mus = [0.6, 1.0, 1.8];
    let prices = [0.3, 0.55, 0.9, 1.3];
    let solver = ContinuationSolver::over(Axis::Mu, Axis::Price);
    let one = solver.clone().with_threads(1).solve_game(&base, &mus, &prices).unwrap();
    let four = solver.clone().with_threads(4).solve_game(&base, &mus, &prices).unwrap();
    assert_eq!(one, four);
    // The sequential caller-owned-context engine is the same bits again,
    // and a context survives reuse across calls.
    let mut ctx = GridContext::for_game(&base);
    let mut seq = EqGrid::empty();
    solver.solve_seq_into(&mut ctx, &mus, &prices, &mut seq).unwrap();
    assert_eq!(one, seq);
    let mut again = EqGrid::empty();
    solver.solve_seq_into(&mut ctx, &mus, &prices, &mut again).unwrap();
    assert_eq!(seq, again);
}
