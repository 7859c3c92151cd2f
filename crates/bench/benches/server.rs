//! Equilibrium-server latency suite: per-request p50/p99 and sustained
//! throughput for the resident service, by answer path.
//!
//! `Bencher::iter` measures *mean* cost per iteration, which is the wrong
//! statistic for a server: the question is the latency *distribution* a
//! client sees, and the cache-hit fast path only matters if its tail stays
//! an order of magnitude under a solve. So this suite times individual
//! [`EquilibriumServer::serve`] calls itself and publishes computed
//! quantiles through [`criterion::record_metric`], landing in the same
//! `SUBCOMP_BENCH_JSON` trajectory file as every timed id.
//!
//! Four request mixes over the paper's §5 market, worst to best case:
//!
//! * `server/cold/*` — warm state and cache wiped before every read: each
//!   request pays a zero-seeded Nash solve (the batch-engine baseline).
//! * `server/warm_pool/*` — cache wiped before every read, slot iterates
//!   kept: each request pays a warm re-solve from the previous iterate.
//! * `server/cache_hit/*` — the fingerprint cache holds the answer: each
//!   request folds the axis scalars onto the market's stored curve digest
//!   and pays an `Arc` clone, no solve.
//! * `server/mixed/*` — the deterministic load-generator stream (80%
//!   reads over 8 hot keys, Zipf skew): the end-to-end client view.
//! * `server/sensitivity/{fresh,repeat}/*` — a price-sensitivity read
//!   of a cached equilibrium. `fresh` is the read right after a write that
//!   lands on the other of two cached operating points, so the server
//!   factors Theorem 6 for the answering snapshot; `repeat` is the same
//!   read again, which may reuse those factors.
//!
//! Each mix records `p50`, `p99` and `mean` per-request ns plus a
//! `throughput` id: sustained wall-clock ns per request over the whole
//! loop (requests/s = 1e9 / value), the inverse-throughput form that
//! keeps the trajectory file in a single unit.
//!
//! The sharded tier rides the same conventions:
//!
//! * `server/sharded/S{1,2,4}/{p50,p99,throughput}` — the multi-market
//!   interleaved stream (8 resident §5 markets) through a
//!   [`ShardedServer`] at 1, 2 and 4 shards; read-latency quantiles plus
//!   sustained inverse throughput over all requests. The fleet serves in
//!   the caller's thread, so the shard count only regroups the same work.
//! * `server/sharded/read_path/{locked,lockfree}` — median ns for the
//!   same already-cached equilibrium read answered by the market's
//!   resident server (`serve_direct`: a per-read key and a cache hit,
//!   `Source::CacheHit`) vs the router's published slot
//!   (`Source::LockFree`).

use std::time::Instant;
use subcomp_core::game::{Axis, SubsidyGame};
use subcomp_exp::scenarios::section5_system;
use subcomp_exp::server::{
    generate, generate_multi, EquilibriumServer, LoadGenConfig, Reply, Request, ShardedConfig,
    ShardedServer, Source,
};
use subcomp_num::stats::{mean, quantile};

use criterion::{criterion_group, criterion_main, record_metric, Criterion};

fn quick() -> bool {
    std::env::var("SUBCOMP_BENCH_QUICK").map(|v| v != "0" && !v.is_empty()).unwrap_or(false)
}

/// A fresh server over the §5 market (p = 0.6, q = 0.8) — the same
/// operating point `serve_market` defaults to.
fn section5_server() -> EquilibriumServer {
    let game = SubsidyGame::new(section5_system(), 0.6, 0.8).expect("§5 market is valid");
    EquilibriumServer::new(game, 2, 64)
}

/// Publishes the four ids for one mix: latency quantiles from the
/// per-request samples, plus the sustained inverse throughput.
fn publish(mix: &str, samples: &[f64], ns_per_req: f64) {
    record_metric(&format!("server/{mix}/p50"), quantile(samples, 0.50).expect("samples"));
    record_metric(&format!("server/{mix}/p99"), quantile(samples, 0.99).expect("samples"));
    record_metric(&format!("server/{mix}/mean"), mean(samples).expect("samples"));
    record_metric(&format!("server/{mix}/throughput"), ns_per_req);
}

/// Times `reads` equilibrium reads, resetting server state before each
/// one via `reset` (untimed). Asserts every answer came from `expect` so
/// a regression in the warm-start ladder fails the suite instead of
/// silently shifting an id onto a different path.
fn time_reads(
    server: &mut EquilibriumServer,
    reads: usize,
    expect: Source,
    mut reset: impl FnMut(&mut EquilibriumServer),
) -> (Vec<f64>, f64) {
    let mut samples = Vec::with_capacity(reads);
    let mut wall_ns = 0.0;
    for _ in 0..reads {
        reset(server);
        let t0 = Instant::now();
        let (_, source) = server.equilibrium().expect("§5 equilibrium solves");
        let dt = t0.elapsed().as_nanos() as f64;
        assert_eq!(source, expect, "mix drifted off its answer path");
        samples.push(dt);
        wall_ns += dt;
    }
    let ns_per_req = wall_ns / reads as f64;
    (samples, ns_per_req)
}

fn bench_cold(_c: &mut Criterion) {
    let reads = if quick() { 40 } else { 600 };
    let mut server = section5_server();
    let (samples, wall) = time_reads(&mut server, reads, Source::Cold, |s| {
        s.cool();
        s.invalidate_cache();
    });
    publish("cold", &samples, wall);
}

fn bench_warm_pool(_c: &mut Criterion) {
    let reads = if quick() { 60 } else { 1_500 };
    let mut server = section5_server();
    server.equilibrium().expect("priming solve"); // slot iterate now warm
    let (samples, wall) = time_reads(&mut server, reads, Source::Warm, |s| s.invalidate_cache());
    publish("warm_pool", &samples, wall);
}

fn bench_cache_hit(_c: &mut Criterion) {
    let reads = if quick() { 2_000 } else { 50_000 };
    let mut server = section5_server();
    server.equilibrium().expect("priming solve"); // answer now cached
    let (samples, wall) = time_reads(&mut server, reads, Source::CacheHit, |_| {});
    publish("cache_hit", &samples, wall);
}

/// The load-generator stream end to end: updates, equilibrium reads and
/// sensitivity reads over a skewed hot-key table. Only read latencies are
/// summarized (updates are deferred writes, ~free by design), but the
/// sustained throughput covers every request served.
fn bench_mixed(_c: &mut Criterion) {
    let requests = if quick() { 600 } else { 12_000 };
    let warmup = requests / 10;
    let mut server = section5_server();
    let stream = generate(&LoadGenConfig { requests, ..LoadGenConfig::default() })
        .expect("default load-generator config is valid");
    let mut samples = Vec::with_capacity(stream.len());
    let t_all = Instant::now();
    for (i, req) in stream.iter().enumerate() {
        let t0 = Instant::now();
        server.serve(*req).expect("load-generator requests are valid");
        let dt = t0.elapsed().as_nanos() as f64;
        if i >= warmup && !matches!(req, Request::Update { .. }) {
            samples.push(dt);
        }
    }
    let ns_per_req = t_all.elapsed().as_nanos() as f64 / stream.len() as f64;
    publish("mixed", &samples, ns_per_req);
}

/// Price-sensitivity reads on cached equilibria, split by whether a write
/// came between the read and the previous one: after each write to the
/// other of two cached prices, one `fresh` read and one `repeat` read.
/// Both must answer a derivative from the cache.
fn bench_sensitivity(_c: &mut Criterion) {
    let reads = if quick() { 1_000 } else { 20_000 };
    let mut server = section5_server();
    let prices = [0.6, 0.65];
    let sensitivity = |server: &mut EquilibriumServer| {
        let t0 = Instant::now();
        let reply = server.serve(Request::Sensitivity { axis: Axis::Price });
        let dt = t0.elapsed().as_nanos() as f64;
        let source = match reply.expect("§5 sensitivity read") {
            Reply::Sensitivity { source, .. } => source,
            other => panic!("a regular §5 equilibrium answered {other:?}"),
        };
        (dt, source)
    };
    let (mut fresh, mut repeat) = (Vec::with_capacity(reads), Vec::with_capacity(reads));
    // The first two rounds solve and cache both prices, untimed.
    for i in 0..reads + 2 {
        let value = prices[i % 2];
        server.serve(Request::Update { axis: Axis::Price, value }).expect("valid price");
        for samples in [&mut fresh, &mut repeat] {
            let (dt, source) = sensitivity(&mut server);
            if i >= 2 {
                assert_eq!(source, Source::CacheHit, "both prices stay cached");
                samples.push(dt);
            }
        }
    }
    publish("sensitivity/fresh", &fresh, mean(&fresh).expect("samples"));
    publish("sensitivity/repeat", &repeat, mean(&repeat).expect("samples"));
}

/// Fresh copies of the §5 market as resident sharded-server markets.
fn section5_markets(n: usize) -> Vec<(u64, SubsidyGame)> {
    (0..n as u64)
        .map(|id| (id, SubsidyGame::new(section5_system(), 0.6, 0.8).expect("§5 market is valid")))
        .collect()
}

/// The multi-market interleaved stream through the sharded router at
/// S = 1, 2, 4 shards. Per-market traffic is bit-identical across the
/// three runs (the loadgen contract), so the ids differ only by the
/// market → shard grouping.
fn bench_sharded(_c: &mut Criterion) {
    let requests = if quick() { 120 } else { 2_500 }; // per market
    let markets = 8;
    let stream = generate_multi(&LoadGenConfig { requests, ..LoadGenConfig::default() }, markets)
        .expect("default load-generator config is valid");
    let warmup = stream.len() / 10;
    for shards in [1usize, 2, 4] {
        let mut server = ShardedServer::new(
            section5_markets(markets),
            &ShardedConfig { shards, pool: 2, cache: 64 },
        )
        .expect("sharded config is valid");
        let mut samples = Vec::with_capacity(stream.len());
        let t_all = Instant::now();
        for (i, (market, req)) in stream.iter().enumerate() {
            let t0 = Instant::now();
            server.serve(*market, *req).expect("load-generator requests are valid");
            let dt = t0.elapsed().as_nanos() as f64;
            if i >= warmup && !matches!(req, Request::Update { .. }) {
                samples.push(dt);
            }
        }
        let ns_per_req = t_all.elapsed().as_nanos() as f64 / stream.len() as f64;
        record_metric(
            &format!("server/sharded/S{shards}/p50"),
            quantile(&samples, 0.50).expect("samples"),
        );
        record_metric(
            &format!("server/sharded/S{shards}/p99"),
            quantile(&samples, 0.99).expect("samples"),
        );
        record_metric(&format!("server/sharded/S{shards}/throughput"), ns_per_req);
    }
}

/// Reading the *same* already-cached equilibrium two ways: through the
/// market's resident server vs the router's published slot. The source
/// assertions keep both loops honest.
fn bench_read_path(_c: &mut Criterion) {
    let reads = if quick() { 1_000 } else { 30_000 };
    let mut server = ShardedServer::new(section5_markets(1), &ShardedConfig::default())
        .expect("sharded config is valid");
    server.serve(0, Request::Equilibrium).expect("priming solve"); // solved + published
    let time_path = |server: &mut ShardedServer,
                     expect: Source,
                     via: fn(&mut ShardedServer) -> Reply|
     -> Vec<f64> {
        let mut samples = Vec::with_capacity(reads);
        for _ in 0..reads {
            let t0 = Instant::now();
            let reply = via(server);
            let dt = t0.elapsed().as_nanos() as f64;
            match reply {
                Reply::Equilibrium { source, .. } => {
                    assert_eq!(source, expect, "read path drifted")
                }
                other => panic!("equilibrium read answered {other:?}"),
            }
            samples.push(dt);
        }
        samples
    };
    let locked = time_path(&mut server, Source::CacheHit, |s| {
        s.serve_direct(0, Request::Equilibrium).expect("cached read")
    });
    let lockfree = time_path(&mut server, Source::LockFree, |s| {
        s.serve(0, Request::Equilibrium).expect("cached read")
    });
    record_metric("server/sharded/read_path/locked", quantile(&locked, 0.50).expect("samples"));
    record_metric("server/sharded/read_path/lockfree", quantile(&lockfree, 0.50).expect("samples"));
}

/// The fault-recovery paths, timed end to end:
///
/// * `server/recovery/restart/*` — one shard kill: drop the killed
///   shard's resident servers and empty their slots, then rebuild every
///   resident market from its mirror and published pair (4 markets, 2
///   shards). The timed call is the sabotaged serve itself, which returns
///   the typed `ShardRestarted` only after recovery completed.
/// * `server/recovery/degraded/*` — one budget-starved solve: a
///   one-sweep [`SolveBudget`] forces the deterministic partial-answer
///   path (best iterate + residual, never cached), the latency floor a
///   pathological market costs under deadlines.
fn bench_recovery(_c: &mut Criterion) {
    use subcomp_core::workspace::SolveBudget;
    use subcomp_exp::server::Sabotage;

    let kills = if quick() { 8 } else { 120 };
    let mut server =
        ShardedServer::new(section5_markets(4), &ShardedConfig { shards: 2, pool: 2, cache: 16 })
            .expect("sharded config is valid");
    for id in 0..4u64 {
        server.serve(id, Request::Equilibrium).expect("priming solve");
    }
    let mut samples = Vec::with_capacity(kills);
    let mut wall_ns = 0.0;
    for _ in 0..kills {
        let t0 = Instant::now();
        let err = server.serve_sabotaged(0, Request::Equilibrium, Sabotage::Kill);
        let dt = t0.elapsed().as_nanos() as f64;
        assert!(err.is_err(), "a killed shard must fail the in-flight request");
        samples.push(dt);
        wall_ns += dt;
    }
    publish("recovery/restart", &samples, wall_ns / kills as f64);

    let reads = if quick() { 60 } else { 1_500 };
    let game = SubsidyGame::new(section5_system(), 0.6, 0.8).expect("§5 market is valid");
    let mut starved = EquilibriumServer::new(game, 2, 0).with_budget(SolveBudget::sweeps(1));
    let (samples, wall) = time_reads(&mut starved, reads, Source::Partial, |s| {
        // Untimed re-arm: a submit resets the strike counter so quarantine
        // never gates the loop, and wipes the warm state so every timed
        // read is the same budget-capped cold solve.
        let game = s.game().clone();
        s.submit(game).expect("starved submit still answers a partial");
    });
    publish("recovery/degraded", &samples, wall);
}

criterion_group!(
    benches,
    bench_cold,
    bench_warm_pool,
    bench_cache_hit,
    bench_mixed,
    bench_sensitivity,
    bench_sharded,
    bench_read_path,
    bench_recovery
);
criterion_main!(benches);
