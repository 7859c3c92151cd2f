//! Ablation benchmarks for the design choices DESIGN.md calls out: solver
//! tolerance and the extension substrates (duopoly inner equilibrium,
//! continuum quadrature).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use subcomp_bench::market_spread;
use subcomp_core::duopoly::Duopoly;
use subcomp_core::game::SubsidyGame;
use subcomp_core::nash::NashSolver;
use subcomp_model::continuum::ContinuumMarket;

fn bench_tolerance(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/solver_tol");
    g.sample_size(10);
    let game = SubsidyGame::new(market_spread(8), 0.6, 0.8).unwrap();
    for tol in [1e-5f64, 1e-7, 1e-9] {
        g.bench_with_input(BenchmarkId::from_parameter(tol), &tol, |b, &tol| {
            let solver = NashSolver::default().with_tol(tol);
            b.iter(|| solver.solve(std::hint::black_box(&game)).unwrap())
        });
    }
    g.finish();
}

fn bench_extensions(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/extensions");
    g.sample_size(10);
    let duo = Duopoly::new(&market_spread(2), 0.5, 0.5, 6.0, 0.5).unwrap();
    g.bench_function("duopoly_subsidy_equilibrium", |b| {
        b.iter(|| duo.subsidy_equilibrium(std::hint::black_box(0.6), 0.6).unwrap())
    });
    let market = ContinuumMarket::new(
        1.0,
        (0.0, 1.0),
        |_| 1.0,
        |w| 1.0 + 4.0 * w,
        |w| 5.0 - 4.0 * w,
        |w| 0.5 + 0.5 * w,
    )
    .unwrap();
    g.bench_function("continuum_fixed_point", |b| {
        b.iter(|| market.utilization(std::hint::black_box(0.5)).unwrap())
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().warm_up_time(Duration::from_millis(400)).measurement_time(Duration::from_secs(2));
    targets = bench_tolerance, bench_extensions
}
criterion_main!(benches);
