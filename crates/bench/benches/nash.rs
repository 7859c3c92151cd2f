//! Benchmarks Nash equilibrium solvers: the Newton-corrected Gauss–Seidel
//! engine, the damped-Jacobi cross-check and variational-inequality
//! methods, scaling in
//! the number of provider types, and two layers under a solve: the φ
//! fixed point every best-response probe solves, and one Newton step
//! against one sweep, exact or forced.
//!
//! All solver benches measure the allocation-free engine entry points
//! (`solve_into` / `*_solve_into`) on a reused [`SolveWorkspace`] — the
//! per-solve cost a batch caller actually pays. Cold benches still solve
//! from the zero profile to full convergence, so their numbers are
//! directly comparable with the pre-workspace `solve(&game)` baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use subcomp_bench::{market_of, market_spread};
use subcomp_core::game::SubsidyGame;
use subcomp_core::nash::{NashSolver, WarmStart};
use subcomp_core::vi::{extragradient_solve_into, projection_solve_into, ViConfig};
use subcomp_core::workspace::{SolveBudget, SolveWorkspace};
use subcomp_exp::scenarios::{farm_game, section5_system};
use subcomp_exp::sweep::BatchSolver;

fn bench_solvers(c: &mut Criterion) {
    let mut g = c.benchmark_group("nash/solver");
    g.sample_size(10);
    let game = SubsidyGame::new(market_of(8), 0.6, 0.8).unwrap();
    g.bench_function("gauss_seidel", |b| {
        let solver = NashSolver::default().with_tol(1e-8);
        let mut ws = SolveWorkspace::for_game(&game);
        b.iter(|| solver.solve_into(std::hint::black_box(&game), WarmStart::Zero, &mut ws).unwrap())
    });
    // The continuum-market counterpart of gauss_seidel: every provider has
    // its own congestion elasticity, so the kernel's exp-sharing is moot
    // and the number tracks the raw per-provider evaluation cost.
    let spread = SubsidyGame::new(market_spread(8), 0.6, 0.8).unwrap();
    g.bench_function("gauss_seidel_spread", |b| {
        let solver = NashSolver::default().with_tol(1e-8);
        let mut ws = SolveWorkspace::for_game(&spread);
        b.iter(|| {
            solver.solve_into(std::hint::black_box(&spread), WarmStart::Zero, &mut ws).unwrap()
        })
    });
    g.bench_function("jacobi_damped", |b| {
        let solver = NashSolver::default().with_tol(1e-8);
        let mut ws = SolveWorkspace::for_game(&game);
        b.iter(|| {
            let game = std::hint::black_box(&game);
            solver.solve_jacobi_into(game, WarmStart::Zero, &mut ws, 0.7).unwrap()
        })
    });
    g.bench_function("vi_projection", |b| {
        let cfg = ViConfig { tol: 1e-7, ..Default::default() };
        let mut ws = SolveWorkspace::for_game(&game);
        b.iter(|| {
            projection_solve_into(std::hint::black_box(&game), &[0.0; 8], &cfg, &mut ws).unwrap()
        })
    });
    g.bench_function("vi_extragradient", |b| {
        let cfg = ViConfig { tol: 1e-7, ..Default::default() };
        let mut ws = SolveWorkspace::for_game(&game);
        b.iter(|| {
            extragradient_solve_into(std::hint::black_box(&game), &[0.0; 8], &cfg, &mut ws).unwrap()
        })
    });
    g.finish();
}

fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("nash/market_size");
    g.sample_size(10);
    for n in [2usize, 4, 8, 16] {
        let game = SubsidyGame::new(market_of(n), 0.6, 0.8).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(n), &game, |b, game| {
            let solver = NashSolver::default().with_tol(1e-7);
            let mut ws = SolveWorkspace::for_game(game);
            b.iter(|| solver.solve_into(game, WarmStart::Zero, &mut ws).unwrap())
        });
    }
    g.finish();
}

fn bench_warm_start(c: &mut Criterion) {
    let mut g = c.benchmark_group("nash/warm_start");
    g.sample_size(10);
    let game = SubsidyGame::new(market_of(8), 0.6, 0.8).unwrap();
    let solver = NashSolver::default().with_tol(1e-8);
    let eq = solver.solve(&game).unwrap();
    let nearby = SubsidyGame::new(market_of(8), 0.62, 0.8).unwrap();
    g.bench_function("cold", |b| {
        let mut ws = SolveWorkspace::for_game(&nearby);
        b.iter(|| solver.solve_into(&nearby, WarmStart::Zero, &mut ws).unwrap())
    });
    g.bench_function("warm", |b| {
        let mut ws = SolveWorkspace::for_game(&nearby);
        b.iter(|| {
            solver
                .solve_into(
                    &nearby,
                    WarmStart::Profile(std::hint::black_box(&eq.subsidies)),
                    &mut ws,
                )
                .unwrap()
        })
    });
    g.finish();
}

/// The farm at ensemble scale: one `BatchSolver::default()` pass over
/// the exact `solve_farm` ensemble definition
/// ([`subcomp_exp::scenarios::farm_game`], seed 7, n ∈ 2..12) at 2000
/// games — each iteration IS one farm run, so `sample_size(2)` keeps the
/// suite tractable. Under `SUBCOMP_BENCH_QUICK=1` the ensemble shrinks to
/// 200 games so the CI smoke still exercises the engine and emits the id.
/// The million-game regime is a documented `solve_farm --games 1000000`
/// invocation, not a trajectory id.
fn bench_farm(c: &mut Criterion) {
    let mut g = c.benchmark_group("nash/farm");
    g.sample_size(2);
    let quick =
        std::env::var("SUBCOMP_BENCH_QUICK").map(|v| v != "0" && !v.is_empty()).unwrap_or(false);
    let games: u64 = if quick { 200 } else { 2_000 };
    let indices: Vec<u64> = (0..games).collect();
    g.bench_function("threshold", |b| {
        let batch = BatchSolver::default();
        b.iter(|| {
            std::hint::black_box(&batch)
                .run(&indices, |&k| farm_game(7, k, 2, 12), |_, _, stats| stats.iterations)
                .into_iter()
                .map(|r| r.expect("farm ensemble solves"))
                .sum::<usize>()
        })
    });
    g.finish();
}

/// The φ fixed point as a layer: one `System::solve_phi_with` on the §5
/// market (p 0.6, q 0.8) at its equilibrium populations. `cold` starts
/// from a NaN seed; `seeded` starts at the root one probe step away (the
/// threshold search's bracket step on provider 0's subsidy), as the
/// probes of a Nash solve do.
fn bench_phi_solve(c: &mut Criterion) {
    let mut g = c.benchmark_group("layers/phi_solve");
    let game = SubsidyGame::new(section5_system(), 0.6, 0.8).unwrap();
    let eq = NashSolver::default().solve(&game).unwrap();
    let sys = game.system();
    let m = eq.state.m.clone();
    let mut scratch = sys.make_scratch();
    let mut probe = m.clone();
    let step = 1e-2 * (1.0 + game.effective_cap(0));
    probe[0] = sys.cp(0).population(game.price() - (eq.subsidies[0] + step));
    let seed = sys.solve_phi_with(&probe, f64::NAN, &mut scratch).unwrap();
    g.bench_function("cold", |b| {
        b.iter(|| sys.solve_phi_with(std::hint::black_box(&m), f64::NAN, &mut scratch).unwrap())
    });
    g.bench_function("seeded", |b| {
        b.iter(|| {
            sys.solve_phi_with(std::hint::black_box(&m), std::hint::black_box(seed), &mut scratch)
                .unwrap()
        })
    });
    g.finish();
}

/// The two iteration kinds of a Gauss–Seidel solve as layers, sized by
/// n, each at a solved `farm_game` equilibrium with a non-empty interior
/// (the first of seed 7's games at that size to have one):
///
/// * `newton_step` — the default engine restarted on the equilibrium:
///   one Newton step (a state solve, the O(n) Jacobian factors and a
///   Woodbury solve), accepted;
/// * `sweep` — the sweep oracle `solve_by_sweeps_into` restarted there:
///   one Gauss–Seidel sweep, n threshold searches, confirming it;
/// * `first_sweep/{oracle,forced}` — the first iteration of a cold solve
///   of the same game under a one-iteration budget: the oracle's exact
///   sweep (`solve_by_sweeps_into`), and the default engine's, whose
///   roots are forced to 1e-4 (`solve_into_budgeted`). Their ratio is
///   what the forcing tolerance saves on the sweep that globalizes.
///
/// All include the final state assembly every solve ends with. The
/// `newton_step`/`sweep` ratio is what the corrector saves per iteration
/// it takes over.
fn bench_iteration_layers(c: &mut Criterion) {
    let mut g = c.benchmark_group("layers/nash");
    g.sample_size(10);
    let solver = NashSolver::default();
    for n in [8usize, 64] {
        let (game, eq) = (0..)
            .map(|k| farm_game(7, k, n, n).unwrap())
            .find_map(|game| {
                let eq = solver.solve(&game).ok()?;
                (eq.diagnostics(&game).ok()?.interior > 0).then_some((game, eq.subsidies))
            })
            .unwrap();
        let mut ws = SolveWorkspace::for_game(&game);
        let start = WarmStart::Profile(&eq);
        let step = solver.solve_into(&game, start, &mut ws).unwrap();
        assert_eq!((step.newton_steps, step.gs_sweeps()), (1, 0), "one accepted Newton step");
        g.bench_with_input(BenchmarkId::new("newton_step", n), &game, |b, game| {
            b.iter(|| {
                solver
                    .solve_into(game, WarmStart::Profile(std::hint::black_box(&eq)), &mut ws)
                    .unwrap()
            })
        });
        let unlimited = SolveBudget::unlimited();
        let sweep = solver.solve_by_sweeps_into(&game, start, &mut ws, unlimited).unwrap();
        assert_eq!(sweep.iterations, 1, "one confirming sweep");
        g.bench_with_input(BenchmarkId::new("sweep", n), &game, |b, game| {
            b.iter(|| {
                let start = WarmStart::Profile(std::hint::black_box(&eq));
                solver.solve_by_sweeps_into(game, start, &mut ws, unlimited).unwrap()
            })
        });
        let one = SolveBudget::sweeps(1);
        let oracle = solver.solve_by_sweeps_into(&game, WarmStart::Zero, &mut ws, one).unwrap();
        let forced = solver.solve_into_budgeted(&game, WarmStart::Zero, &mut ws, one).unwrap();
        assert_eq!((oracle.gs_sweeps(), forced.gs_sweeps()), (1, 1), "one cold sweep each");
        g.bench_with_input(BenchmarkId::new("first_sweep/oracle", n), &game, |b, game| {
            b.iter(|| {
                let game = std::hint::black_box(game);
                solver.solve_by_sweeps_into(game, WarmStart::Zero, &mut ws, one).unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("first_sweep/forced", n), &game, |b, game| {
            b.iter(|| {
                let game = std::hint::black_box(game);
                solver.solve_into_budgeted(game, WarmStart::Zero, &mut ws, one).unwrap()
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().warm_up_time(Duration::from_millis(400)).measurement_time(Duration::from_secs(2));
    targets = bench_solvers, bench_scaling, bench_warm_start, bench_farm, bench_phi_solve,
        bench_iteration_layers
}
criterion_main!(benches);
