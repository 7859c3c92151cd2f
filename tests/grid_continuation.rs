//! Property tier for the continuation grid engine: on random markets and
//! random `(q, p)` grids, every [`GridSolver`] point must match an
//! independent cold solve of the same game within solver tolerance, every
//! row must be bit-identical to the same row solved alone (rows are
//! independent warm chains), and the parallel fan-out must be
//! bit-identical to the sequential engine for any thread count.
//!
//! Together with `tests/alloc_free.rs` (zero heap allocation per warm
//! sweep) this pins the contract the figure panel and the grid benchmarks
//! scale on: continuation is a *speed* optimization, never an *answer*
//! change.

use proptest::prelude::*;
use subcomp::exp::sweep::{EqGrid, GridContext, GridSolver};
use subcomp::game::game::SubsidyGame;
use subcomp::game::nash::NashSolver;
use subcomp::model::aggregation::{build_system, ExpCpSpec};
use subcomp::model::system::System;

/// Strategy: a small market of 2–4 exponential CP types.
fn market_strategy() -> impl Strategy<Value = Vec<ExpCpSpec>> {
    proptest::collection::vec(
        (0.8f64..5.5, 0.8f64..5.5, 0.2f64..1.1)
            .prop_map(|(alpha, beta, v)| ExpCpSpec::unit(alpha, beta, v)),
        2..=4,
    )
}

/// Strategy: a sorted grid axis of 2–4 values in `[lo, hi]`.
fn axis_strategy(lo: f64, hi: f64) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(lo..hi, 2..=4).prop_map(|mut v| {
        v.sort_by(f64::total_cmp);
        v
    })
}

fn system_of(specs: &[ExpCpSpec]) -> System {
    build_system(specs, 1.0).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn grid_points_match_independent_cold_solves(
        specs in market_strategy(),
        qs in axis_strategy(0.0, 1.2),
        prices in axis_strategy(0.1, 1.5),
    ) {
        let system = system_of(&specs);
        let grid = GridSolver::default().solve(&system, &qs, &prices).unwrap();
        // Reference: fresh games solved cold by the default solver — the
        // construction the panel used before continuation.
        let reference = NashSolver::default().with_tol(1e-8);
        for (r, &q) in qs.iter().enumerate() {
            for (c, &p) in prices.iter().enumerate() {
                let game = SubsidyGame::new(system.clone(), p, q).unwrap();
                let cold = reference.solve(&game).unwrap();
                let pt = grid.point(r, c);
                for i in 0..game.n() {
                    prop_assert!(
                        (pt.subsidies[i] - cold.subsidies[i]).abs() < 1e-6,
                        "(q={}, p={}) CP {}: continuation {} vs cold {}",
                        q, p, i, pt.subsidies[i], cold.subsidies[i]
                    );
                }
                prop_assert!((pt.phi - cold.state.phi).abs() < 1e-6);
                prop_assert!((pt.revenue - cold.isp_revenue(&game)).abs() < 1e-6);
                prop_assert!((pt.welfare - cold.welfare(&game)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn rows_are_independent(
        specs in market_strategy(),
        qs in axis_strategy(0.0, 1.2),
        prices in axis_strategy(0.1, 1.5),
    ) {
        let system = system_of(&specs);
        let grid = GridSolver::default().solve(&system, &qs, &prices).unwrap();
        for (r, &q) in qs.iter().enumerate() {
            let alone = GridSolver::default().solve(&system, &[q], &prices).unwrap();
            for c in 0..prices.len() {
                let (a, b) = (grid.point(r, c), alone.point(0, c));
                prop_assert!(a.subsidies == b.subsidies, "q = {}, column {}", q, c);
                prop_assert_eq!(a.m, b.m);
                prop_assert_eq!(a.theta, b.theta);
                prop_assert_eq!(a.utilities, b.utilities);
                prop_assert_eq!(a.phi.to_bits(), b.phi.to_bits());
                prop_assert_eq!(a.revenue.to_bits(), b.revenue.to_bits());
                prop_assert_eq!(a.welfare.to_bits(), b.welfare.to_bits());
                prop_assert_eq!(a.iterations, b.iterations);
                prop_assert_eq!(a.cold, b.cold);
            }
        }
    }

    #[test]
    fn thread_fanout_is_bit_identical_to_sequential(
        specs in market_strategy(),
        qs in axis_strategy(0.0, 1.2),
        prices in axis_strategy(0.1, 1.5),
        threads in 2usize..5,
    ) {
        let system = system_of(&specs);
        let solver = GridSolver::default();
        let parallel = solver
            .clone()
            .with_threads(threads)
            .solve(&system, &qs, &prices)
            .unwrap();
        let mut ctx = GridContext::new(&system);
        let mut seq = EqGrid::empty();
        solver.solve_seq_into(&mut ctx, &qs, &prices, &mut seq).unwrap();
        prop_assert_eq!(parallel, seq);
    }
}
