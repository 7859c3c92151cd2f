//! Benchmarks the simulators: flow-level ticks and market days per
//! second, the measurement pipeline, and the event-driven adoption
//! engine — standalone at the million-user scale and inside the closed
//! simulate → warm-resolve loop through the sharded server.
//!
//! The adoption ids:
//!
//! * `simulator/adoption/step_1m` — one serial tick of a 1,000,000-user
//!   population (quick mode: 50k) at adopt = churn = 0.5 and
//!   explore = decay = 0. That population absorbs within a few ticks,
//!   after which a tick only finds that no class has candidates: it
//!   times the absorbed floor, not a per-user cost.
//! * `simulator/adoption/step_1m_mixing` — the same population and drive
//!   under the adoption workload's hazards (adopt = churn = 0.5,
//!   explore = decay = 0.02), where every class keeps flipping: the
//!   step's steady cost, both event paths at once (explore and decay
//!   read skip gaps off their rate's table, adopt and churn hash their
//!   decoded members).
//! * `simulator/adoption/build_1m` — one `Population::build` of the same
//!   1,000,000 users: the hashes, the per-type sort by valuation and the
//!   bitset allocation.
//! * `simulator/adoption/loop_warm` — one closed-loop tick (10k users):
//!   lock-free externality read, simulate, µ write, warm re-solve.
//! * `simulator/adoption/loop_cold` — the same tick with every market
//!   cooled first (slot iterates, cache and published snapshot dropped),
//!   so the externality read pays a cold solve. The warm-vs-cold loop
//!   speedup is `loop_cold / loop_warm`.
//! * `simulator/adoption/served` — the loop tick at 512 users, where
//!   serving dominates simulation: the per-tick overhead floor of the
//!   server wiring.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use subcomp_core::game::SubsidyGame;
use subcomp_exp::adoption::{AdoptionLoop, LoopConfig};
use subcomp_exp::scenarios::section5_specs;
use subcomp_model::aggregation::{build_system, ExpCpSpec};
use subcomp_sim::adoption::{AdoptionParams, Population, TickDrive, TypeSpec};
use subcomp_sim::flow::{FlowSim, FlowSimConfig, SharingMode};
use subcomp_sim::market::{MarketSim, MarketSimConfig};

fn bench_flow(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator/flow");
    g.sample_size(10);
    let sys = build_system(
        &[
            ExpCpSpec::unit(2.0, 2.0, 1.0),
            ExpCpSpec::unit(5.0, 5.0, 0.5),
            ExpCpSpec::unit(3.0, 1.0, 1.0),
        ],
        1.0,
    )
    .unwrap();
    let cfg = FlowSimConfig { ticks: 1000, warmup: 200, ..Default::default() };
    g.bench_function("adaptive_1000_ticks", |b| {
        b.iter(|| FlowSim::new(&sys, vec![0.5; 3], cfg).unwrap().run().unwrap())
    });
    let ps = FlowSimConfig { mode: SharingMode::ProcessorSharing, ..cfg };
    g.bench_function("processor_sharing_1000_ticks", |b| {
        b.iter(|| FlowSim::new(&sys, vec![0.5; 3], ps).unwrap().run().unwrap())
    });
    g.finish();
}

fn bench_market(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator/market");
    g.sample_size(10);
    let sys = build_system(&[ExpCpSpec::unit(5.0, 2.0, 1.0), ExpCpSpec::unit(2.0, 4.0, 0.4)], 1.0)
        .unwrap();
    let game = SubsidyGame::new(sys, 0.7, 1.0).unwrap();
    let cfg = MarketSimConfig { days: 500, ..Default::default() };
    g.bench_function("market_500_days", |b| {
        b.iter(|| MarketSim::new(&game, cfg).unwrap().run().unwrap())
    });
    g.finish();
}

fn quick() -> bool {
    std::env::var("SUBCOMP_BENCH_QUICK").map(|v| v != "0" && !v.is_empty()).unwrap_or(false)
}

/// The engine standalone: one tick over a million users, serial (the
/// parallel fan-out is bit-identical by construction, so the single-lane
/// number is the per-core cost the scaling study divides), and one build.
fn bench_adoption_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator/adoption");
    g.sample_size(10);
    let n_users = if quick() { 50_000 } else { 1_000_000 };
    let types = [
        TypeSpec { mass: 1.0, alpha: 2.0 },
        TypeSpec { mass: 0.8, alpha: 5.0 },
        TypeSpec { mass: 1.2, alpha: 1.0 },
    ];
    let drive = TickDrive::uniform(types.len(), 0.4);
    let absorbing = AdoptionParams { seed: 7, adopt: 0.5, churn: 0.5, ..Default::default() };
    let mixing = AdoptionParams { explore: 0.02, decay: 0.02, ..absorbing };
    for (id, params) in [("step_1m", absorbing), ("step_1m_mixing", mixing)] {
        let mut pop = Population::build(&types, n_users, 16_384, params).unwrap();
        g.bench_function(id, |b| {
            b.iter(|| {
                pop.step(std::hint::black_box(&drive)).unwrap();
                pop.adopted_users()
            })
        });
    }
    g.bench_function("build_1m", |b| {
        b.iter(|| {
            Population::build(&types, std::hint::black_box(n_users), 16_384, absorbing)
                .unwrap()
                .n_users()
        })
    });
    g.finish();
}

/// The closed loop through the sharded server, warm vs cooled, plus the
/// serving-dominated floor at a tiny population.
fn bench_adoption_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator/adoption");
    g.sample_size(10);
    let specs = section5_specs();
    let users = if quick() { 2_000 } else { 10_000 };
    let build = |users: usize| {
        let cfg = LoopConfig { seed: 7, users, chunk: 16_384, ..Default::default() };
        let mut lp = AdoptionLoop::new(&specs, 3.0, 0.6, 0.8, &cfg).unwrap();
        lp.tick().unwrap(); // prime the resident state and published snapshot
        lp
    };
    let mut warm = build(users);
    g.bench_function("loop_warm", |b| b.iter(|| warm.tick().unwrap().adopted));
    let mut cold = build(users);
    g.bench_function("loop_cold", |b| {
        b.iter(|| {
            // Cooling is part of driving the cold regime; its cost (a
            // cache wipe) is dwarfed by the cold solve it forces.
            cold.cool().unwrap();
            cold.tick().unwrap().adopted
        })
    });
    let mut tiny = build(512.min(users));
    g.bench_function("served", |b| b.iter(|| tiny.tick().unwrap().adopted));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().warm_up_time(Duration::from_millis(400)).measurement_time(Duration::from_secs(2));
    targets = bench_flow, bench_market, bench_adoption_step, bench_adoption_loop
}
criterion_main!(benches);
