//! Benchmarks the Theorem 6 sensitivity analysis (active sets, the
//! structured Jacobian and its Woodbury solve), the Jacobian as a layer —
//! the structured engine against the finite-difference oracle it replaced
//! — and continuation along the µ axis, warm against cold.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use subcomp_bench::{market_of, market_spread};
use subcomp_core::game::{Axis, SubsidyGame};
use subcomp_core::nash::{NashSolver, WarmStart};
use subcomp_core::sensitivity::{Sensitivity, SensitivityWorkspace};
use subcomp_core::structure::marginal_utility_jacobian;
use subcomp_core::workspace::SolveWorkspace;

fn bench_sensitivity(c: &mut Criterion) {
    let mut g = c.benchmark_group("sensitivity/theorem6");
    g.sample_size(10);
    for n in [4usize, 8, 16] {
        let game = SubsidyGame::new(market_spread(n), 0.6, 0.4).unwrap();
        let eq = NashSolver::default().with_tol(1e-9).solve(&game).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(n), &(game, eq), |b, (game, eq)| {
            b.iter(|| Sensitivity::compute(game, std::hint::black_box(&eq.subsidies)).unwrap())
        });
    }
    g.finish();
}

fn bench_jacobian(c: &mut Criterion) {
    let mut g = c.benchmark_group("sensitivity/jacobian");
    g.sample_size(10);
    let game = SubsidyGame::new(market_spread(8), 0.6, 0.8).unwrap();
    let s = vec![0.2; 8];
    g.bench_function("marginal_utility_jacobian_8", |b| {
        b.iter(|| marginal_utility_jacobian(&game, std::hint::black_box(&s)).unwrap())
    });
    g.finish();
}

/// The Jacobian layer of a sensitivity read, at the solved equilibrium
/// of a spread market (`n` = 8 and 64, `p = 0.6`, `q = 0.4`):
///
/// * `fd` — the finite-difference oracle, `marginal_utility_jacobian`
///   (2n state solves, the dense Jacobian the LU path used to factor);
/// * `structured` — what replaced it: [`SensitivityWorkspace::factor`]
///   (one state solve plus the O(n) factor assembly) and the Woodbury
///   solve of the price-axis derivative, on a warm workspace.
fn bench_jacobian_layer(c: &mut Criterion) {
    let mut g = c.benchmark_group("layers/jacobian");
    g.sample_size(10);
    for n in [8usize, 64] {
        let game = SubsidyGame::new(market_spread(n), 0.6, 0.4).unwrap();
        let s = NashSolver::default().with_tol(1e-9).solve(&game).unwrap().subsidies;
        g.bench_with_input(BenchmarkId::new("fd", n), &(&game, &s), |b, (game, s)| {
            b.iter(|| marginal_utility_jacobian(game, std::hint::black_box(s)).unwrap())
        });
        let mut ws = SensitivityWorkspace::new();
        let mut ds = Vec::new();
        g.bench_with_input(BenchmarkId::new("structured", n), &(&game, &s), |b, (game, s)| {
            b.iter(|| {
                ws.factor(game, std::hint::black_box(s)).unwrap();
                ws.solve_into(Axis::Price, &mut ds).unwrap();
                ds[0]
            })
        });
    }
    g.finish();
}

/// Tracks the axis-continuation win itself as a trajectory: the same
/// 12-point µ ladder on the paper-typed 8-CP market, solved two ways
/// through one in-place-reparameterized game and one reused workspace —
/// `cold` (every point from the zero profile) and `previous` (each point
/// warm-started from the previous equilibrium, the one warm-start rule).
/// `previous`/`cold` is the continuation speedup. A Theorem 6 first-order
/// start (`s + Δµ·∂s/∂µ`, its derivative included) cost 1.17–1.26x
/// `previous` on this ladder, so the solver no longer offers one.
fn bench_mu_continuation(c: &mut Criterion) {
    let mut g = c.benchmark_group("sensitivity/continuation");
    g.sample_size(10);
    let mus: Vec<f64> = (0..12).map(|k| 0.6 + 0.1 * k as f64).collect();
    let base = SubsidyGame::new(market_of(8), 0.6, 0.4).unwrap();
    let solver = NashSolver::default().with_tol(1e-8);
    g.bench_function("cold", |b| {
        let mut game = base.clone();
        let mut ws = SolveWorkspace::for_game(&game);
        b.iter(|| {
            let mut sweeps = 0usize;
            for &mu in std::hint::black_box(&mus[..]) {
                game.set_mu(mu).unwrap();
                sweeps += solver.solve_into(&game, WarmStart::Zero, &mut ws).unwrap().iterations;
            }
            sweeps
        })
    });
    g.bench_function("previous", |b| {
        let mut game = base.clone();
        let mut ws = SolveWorkspace::for_game(&game);
        b.iter(|| {
            let mut sweeps = 0usize;
            for (k, &mu) in std::hint::black_box(&mus[..]).iter().enumerate() {
                game.set_mu(mu).unwrap();
                let start = if k == 0 { WarmStart::Zero } else { WarmStart::Previous };
                sweeps += solver.solve_into(&game, start, &mut ws).unwrap().iterations;
            }
            sweeps
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().warm_up_time(Duration::from_millis(400)).measurement_time(Duration::from_secs(2));
    targets = bench_sensitivity, bench_jacobian, bench_jacobian_layer, bench_mu_continuation
}
criterion_main!(benches);
