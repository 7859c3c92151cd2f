//! Server tier: the resident equilibrium service end to end.
//!
//! Five contracts (see `tests/README.md`, "The server tier"):
//!
//! 1. **Cache hits are bit-identical to the solve that filled them.** A
//!    repeated query returns the *same* shared snapshot (`Arc::ptr_eq`),
//!    and that snapshot matches an independent cold solve of the same
//!    market with the server's solver configuration bit for bit.
//! 2. **The fingerprint sees every parameter.** A write on any [`Axis`]
//!    — price, cap, capacity, any single provider's profitability —
//!    forces a re-solve; writing the old value back restores the cache
//!    hit.
//! 3. **Eviction under pressure is deterministic LRU.** With a
//!    `capacity`-entry cache, the least-recently-answered equilibrium is
//!    the one that pays a re-solve.
//! 4. **The warm-start ladder serves tangent steps.** After a
//!    sensitivity read, a small write along the same axis is solved from
//!    the Theorem 6 tangent extrapolation (and still converges onto the
//!    true equilibrium); an oversized write is refused by the trust
//!    region and degrades to the previous-iterate seed.
//! 5. **Load-generator replay is deterministic.** Two servers fed the
//!    same stream produce identical replies (bit-level checksum),
//!    identical source mixes and identical cache counters.

use std::sync::Arc;
use subcomp::exp::scenarios::section5_system;
use subcomp::exp::server::{
    fingerprint, generate, generate_multi, summarize_latencies, EquilibriumServer, LoadGenConfig,
    Reply, Request, ShardedConfig, ShardedServer, Source,
};
use subcomp::game::game::{Axis, SubsidyGame};
use subcomp::game::nash::{NashSolver, WarmStart};
use subcomp::game::workspace::SolveWorkspace;
use subcomp::num::error::NumError;

/// The §5 market at the `serve_market` default operating point.
fn section5_game() -> SubsidyGame {
    SubsidyGame::new(section5_system(), 0.6, 0.8).expect("§5 market is valid")
}

#[test]
fn cache_hit_is_bit_identical_to_the_cold_solve_that_filled_it() {
    let mut server = EquilibriumServer::new(section5_game(), 2, 16);
    let (cold, src) = server.equilibrium().unwrap();
    assert_eq!(src, Source::Cold);
    let (hit, src) = server.equilibrium().unwrap();
    assert_eq!(src, Source::CacheHit);
    assert!(Arc::ptr_eq(&cold, &hit), "a cache hit must return the shared snapshot");

    // Independent reference: the server's solver configuration, cold,
    // outside the server. Same market, same engine — same bits.
    let game = section5_game();
    let mut ws = SolveWorkspace::new();
    let stats =
        NashSolver::default().with_tol(1e-10).solve_into(&game, WarmStart::Zero, &mut ws).unwrap();
    assert!(stats.converged);
    assert_eq!(hit.subsidies().len(), ws.subsidies().len());
    for (a, b) in hit.subsidies().iter().zip(ws.subsidies()) {
        assert_eq!(a.to_bits(), b.to_bits(), "cached subsidies drifted off the cold solve");
    }
    for (a, b) in hit.utilities().iter().zip(ws.utilities()) {
        assert_eq!(a.to_bits(), b.to_bits(), "cached utilities drifted off the cold solve");
    }
    assert_eq!(hit.state().phi.to_bits(), ws.state().phi.to_bits());
}

#[test]
fn every_axis_write_changes_the_fingerprint_and_reverting_restores_the_hit() {
    let n = section5_game().n();
    let axes =
        [Axis::Price, Axis::Cap, Axis::Mu, Axis::Profitability(0), Axis::Profitability(n - 1)];
    let mut server = EquilibriumServer::new(section5_game(), 2, 64);
    server.equilibrium().unwrap(); // prime the base point

    for axis in axes {
        let held = axis.value(server.game());
        server.update(axis, held * 1.01).unwrap();
        let (_, src) = server.equilibrium().unwrap();
        assert_ne!(src, Source::CacheHit, "{axis:?}: a parameter write must force a re-solve");
        server.update(axis, held).unwrap();
        let (_, src) = server.equilibrium().unwrap();
        assert_eq!(src, Source::CacheHit, "{axis:?}: reverting the write must restore the hit");
    }
}

#[test]
fn eviction_under_capacity_pressure_is_lru() {
    let mut server = EquilibriumServer::new(section5_game(), 1, 2);
    let prices = [0.5, 0.6, 0.7];
    let mut answer_at = |p: f64| {
        server.update(Axis::Price, p).unwrap();
        let (_, src) = server.equilibrium().unwrap();
        src
    };
    assert_eq!(answer_at(prices[0]), Source::Cold);
    assert_ne!(answer_at(prices[1]), Source::CacheHit);
    assert_ne!(answer_at(prices[2]), Source::CacheHit); // evicts prices[0]
    assert_ne!(
        answer_at(prices[0]),
        Source::CacheHit,
        "the least-recently-answered point must have been evicted"
    ); // re-solving it evicts prices[1]
    assert_eq!(answer_at(prices[2]), Source::CacheHit, "the hot tail must survive eviction");
    let cs = server.cache_stats();
    assert_eq!(cs.len, 2);
    assert!(cs.evictions >= 2, "expected eviction traffic, saw {}", cs.evictions);
}

#[test]
fn tangent_ladder_serves_small_steps_and_refuses_large_ones() {
    let mut server = EquilibriumServer::new(section5_game(), 1, 16);
    let sensitivity = |server: &mut EquilibriumServer| match server
        .serve(Request::Sensitivity { axis: Axis::Mu })
        .unwrap()
    {
        Reply::Sensitivity { source, .. } => source,
        other => panic!("a regular equilibrium must answer its derivative, got {other:?}"),
    };
    assert_eq!(sensitivity(&mut server), Source::Cold);

    // A small step along the differentiated axis rides the tangent.
    let mu = Axis::Mu.value(server.game());
    server.update(Axis::Mu, mu + 0.05).unwrap();
    let (snap, src) = server.equilibrium().unwrap();
    assert_eq!(src, Source::Tangent, "a small single-axis step must use the tangent seed");

    // And the tangent-seeded answer is the true equilibrium: compare to
    // an independent cold solve at the stepped market.
    let mut stepped = section5_game();
    stepped.set_mu(mu + 0.05).unwrap();
    let mut ws = SolveWorkspace::new();
    NashSolver::default().with_tol(1e-10).solve_into(&stepped, WarmStart::Zero, &mut ws).unwrap();
    for (a, b) in snap.subsidies().iter().zip(ws.subsidies()) {
        assert!((a - b).abs() < 1e-8, "tangent-seeded solve landed off the equilibrium");
    }

    // An oversized step is outside the trust region: the policy refuses
    // the extrapolation and the solve degrades to the warm slot iterate.
    sensitivity(&mut server);
    let mu = Axis::Mu.value(server.game());
    server.update(Axis::Mu, mu + 1.0).unwrap();
    let (_, src) = server.equilibrium().unwrap();
    assert_eq!(src, Source::Warm, "an out-of-trust-region step must not be extrapolated");
}

#[test]
fn full_game_submission_keeps_the_fingerprint_cache() {
    let mut server = EquilibriumServer::new(section5_game(), 2, 16);
    let (first, src) = server.equilibrium().unwrap();
    assert_eq!(src, Source::Cold);
    // Submitting a market that fingerprints to a cached equilibrium is
    // O(lookup), even though every warm seed was discarded.
    let (resub, src) = server.submit(section5_game()).unwrap();
    assert_eq!(src, Source::CacheHit);
    assert!(Arc::ptr_eq(&first, &resub));
    assert_eq!(fingerprint(server.game()).unwrap(), fingerprint(&section5_game()).unwrap());
}

/// Folds a reply into a bit-level checksum, mirroring `serve_market`.
fn checksum(acc: u64, reply: &Reply) -> u64 {
    let mut acc = acc.rotate_left(1);
    match reply {
        Reply::Updated { value, .. } => acc ^= value.to_bits(),
        Reply::Equilibrium { snap, .. } => {
            for s in snap.subsidies() {
                acc ^= s.to_bits();
            }
            acc ^= snap.state().phi.to_bits();
        }
        Reply::Sensitivity { ds, snap, .. } => {
            for d in ds {
                acc ^= d.to_bits();
            }
            acc ^= snap.state().phi.to_bits();
        }
        Reply::Degenerate { active_set, snap, .. } => {
            for &i in active_set.lower.iter().chain(&active_set.upper) {
                acc ^= (i as u64 + 1).wrapping_mul(0x517c_c1b7_2722_0a95);
            }
            acc ^= snap.state().phi.to_bits();
        }
    }
    acc
}

#[test]
fn load_generator_replay_through_the_server_is_deterministic() {
    let config = LoadGenConfig { requests: 400, ..LoadGenConfig::default() };
    let stream = generate(&config).unwrap();
    assert_eq!(
        stream,
        generate(&config).unwrap(),
        "the load generator itself must replay bit-identically"
    );

    let run = || {
        let mut server = EquilibriumServer::new(section5_game(), 2, 8);
        let mut sum = 0u64;
        for req in &stream {
            sum = checksum(sum, &server.serve(*req).unwrap());
        }
        (sum, server.stats(), server.cache_stats())
    };
    let (sum_a, stats_a, cache_a) = run();
    let (sum_b, stats_b, cache_b) = run();
    assert_eq!(sum_a, sum_b, "served replies diverged across identical replays");
    assert_eq!(stats_a, stats_b, "server counters diverged across identical replays");
    assert_eq!(cache_a, cache_b, "cache counters diverged across identical replays");
    // The mix exercised every tier of interest: reads hit the cache
    // (skewed hot keys revisit), and some writes forced real solves.
    assert!(stats_a.cache_hits > 0, "no cache traffic: {stats_a:?}");
    assert!(stats_a.cold_solves + stats_a.warm_solves > 0, "no solves: {stats_a:?}");
    assert!(stats_a.updates > 0 && stats_a.sensitivities > 0, "mix collapsed: {stats_a:?}");
}

/// The multi-market stream used by the sharded contracts: enough markets
/// to land on several shards, cache capacity comfortably above the
/// hot-key count so LRU recency (which lock-free serving does not touch)
/// can never drive an eviction difference.
fn sharded_fixture() -> (Vec<(u64, SubsidyGame)>, Vec<(u64, subcomp::exp::server::Request)>) {
    let markets: Vec<(u64, SubsidyGame)> = (0..4u64).map(|id| (id, section5_game())).collect();
    let cfg = LoadGenConfig { requests: 150, hot_keys: 6, ..LoadGenConfig::default() };
    let stream = generate_multi(&cfg, markets.len()).unwrap();
    (markets, stream)
}

#[test]
fn sharded_replay_is_bit_identical_across_shard_counts() {
    // The tentpole contract: shards are execution hosts, not state — the
    // same interleaved stream produces bit-identical replies (per-market
    // checksums), the same lock-free hit count and the same per-market
    // answer content at 1, 2 and 4 shards.
    let (_, stream) = sharded_fixture();
    let run = |shards: usize| -> (Vec<u64>, u64) {
        let (markets, _) = sharded_fixture();
        let n_markets = markets.len();
        let mut server =
            ShardedServer::new(markets, &ShardedConfig { shards, pool: 2, cache: 64 }).unwrap();
        let mut sums = vec![0u64; n_markets];
        for (market, req) in &stream {
            let reply = server.serve(*market, *req).unwrap();
            let m = *market as usize;
            sums[m] = checksum(sums[m], &reply);
        }
        (sums, server.lockfree_hits())
    };
    let (sums_1, hits_1) = run(1);
    let (sums_2, hits_2) = run(2);
    let (sums_4, hits_4) = run(4);
    assert_eq!(sums_1, sums_2, "replies diverged between 1 and 2 shards");
    assert_eq!(sums_1, sums_4, "replies diverged between 1 and 4 shards");
    assert_eq!(hits_1, hits_2, "lock-free fast-path firing depends on shard count");
    assert_eq!(hits_1, hits_4, "lock-free fast-path firing depends on shard count");
    assert!(hits_1 > 0, "the stream never exercised the lock-free path");
}

#[test]
fn lockfree_read_is_the_owning_shards_cache_entry() {
    // The published snapshot the router serves lock-free is the *same*
    // allocation as the owning shard's resident cache entry — an Arc
    // clone out of the index, never a copy.
    let mut server = ShardedServer::new(
        (0..3u64).map(|id| (id, section5_game())).collect(),
        &ShardedConfig { shards: 2, pool: 2, cache: 16 },
    )
    .unwrap();
    for id in 0..3u64 {
        server.serve(id, subcomp::exp::server::Request::Equilibrium).unwrap();
    }
    for id in 0..3u64 {
        let lockfree = server.read_cached(id).expect("read published its answer");
        let resident = server.peek_shard_cache(id).unwrap().expect("the shard cached its solve");
        assert!(
            Arc::ptr_eq(&lockfree, &resident),
            "market {id}: lock-free read is not the shard's cache entry"
        );
        // And the serving path hands out that same allocation.
        let reply = server.serve(id, subcomp::exp::server::Request::Equilibrium).unwrap();
        let Reply::Equilibrium { snap, source } = reply else { unreachable!() };
        assert_eq!(source, Source::LockFree);
        assert!(Arc::ptr_eq(&snap, &resident));
    }
}

#[test]
fn per_market_order_is_preserved_under_interleaved_load() {
    // Session multiplexing must not reorder any market's requests: each
    // market's replies under the interleaved sharded run are bit-identical
    // to a standalone EquilibriumServer fed that market's subsequence in
    // isolation (same pool/cache configuration).
    let (markets, stream) = sharded_fixture();
    let n_markets = markets.len();
    let mut server =
        ShardedServer::new(markets, &ShardedConfig { shards: 3, pool: 2, cache: 64 }).unwrap();
    let mut sharded_sums = vec![0u64; n_markets];
    for (market, req) in &stream {
        let reply = server.serve(*market, *req).unwrap();
        let m = *market as usize;
        sharded_sums[m] = checksum(sharded_sums[m], &reply);
    }
    assert!(server.lockfree_hits() > 0, "interleaved load never went lock-free");

    for m in 0..n_markets {
        let mut standalone = EquilibriumServer::new(section5_game(), 2, 64);
        let mut sum = 0u64;
        for (market, req) in &stream {
            if *market as usize == m {
                sum = checksum(sum, &standalone.serve(*req).unwrap());
            }
        }
        assert_eq!(
            sharded_sums[m], sum,
            "market {m}: interleaved replies drifted off the standalone serve"
        );
    }
}

/// A demand curve that answers NaN above a price threshold — legal to
/// construct (scalar parameters all validate), poisonous to fingerprint.
#[derive(Clone)]
struct NanAboveDemand {
    threshold: f64,
}

impl subcomp::model::demand::DemandFn for NanAboveDemand {
    fn m(&self, t: f64) -> f64 {
        if t >= self.threshold {
            f64::NAN
        } else {
            2.0 * (-t).exp()
        }
    }
    fn dm_dt(&self, t: f64) -> f64 {
        if t >= self.threshold {
            f64::NAN
        } else {
            -2.0 * (-t).exp()
        }
    }
    fn d2m_dt2(&self, t: f64) -> f64 {
        if t >= self.threshold {
            f64::NAN
        } else {
            2.0 * (-t).exp()
        }
    }
    fn name(&self) -> &'static str {
        "nan-above"
    }
    fn boxed_clone(&self) -> Box<dyn subcomp::model::demand::DemandFn> {
        Box::new(self.clone())
    }
    fn scaled(&self, _kappa: f64) -> Box<dyn subcomp::model::demand::DemandFn> {
        Box::new(self.clone())
    }
}

#[test]
fn nan_probing_curves_are_failed_requests_not_poisoned_cache_keys() {
    // The fingerprint regression: NaN never equals itself, so a
    // NaN-bearing key would never match its own cache entry and every
    // lookup of that market would silently re-solve. The fingerprint now
    // rejects non-finite probe responses with a typed error, and the
    // server surfaces it as a failed request — then recovers when a
    // well-behaved market is submitted.
    use subcomp::model::cp::ContentProvider;
    use subcomp::model::system::System;
    use subcomp::model::throughput::ExpThroughput;
    use subcomp::model::utilization::LinearUtilization;

    // The demand probe grid reaches t = 1.5; NaN starts at 1.4, so
    // construction-time scalar validation sees nothing wrong.
    let cp = ContentProvider::builder("poisoned")
        .demand(NanAboveDemand { threshold: 1.4 })
        .throughput(ExpThroughput::new(3.0, 1.0))
        .profitability(0.8)
        .build();
    let system = System::new(vec![cp], 1.2, LinearUtilization).unwrap();
    let game = SubsidyGame::new(system, 0.6, 0.8).unwrap();

    assert!(
        matches!(fingerprint(&game), Err(NumError::NonFinite { .. })),
        "a NaN probe response must be a typed fingerprint error"
    );

    let mut server = EquilibriumServer::new(game, 1, 8);
    assert!(
        matches!(server.equilibrium(), Err(NumError::NonFinite { .. })),
        "an unfingerprintable market must be a failed request"
    );
    // Submitting a sane market recovers the server.
    let (_, source) = server.submit(section5_game()).unwrap();
    assert_ne!(source, Source::CacheHit);
    let (_, source) = server.equilibrium().unwrap();
    assert_eq!(source, Source::CacheHit);
}

#[test]
fn retraction_empties_the_published_slot_and_reads_never_serve_dead_snapshots() {
    // The supervision contract on the read path: once a market has no
    // valid answer — after a failed submit, or after its shard was
    // killed and its rebuild failed — `read_cached` hands out nothing for
    // it, while healthy markets keep their published answers.
    use subcomp::exp::server::{poison_game, Sabotage, ServeError};

    let markets: Vec<(u64, SubsidyGame)> = (0..2u64).map(|id| (id, section5_game())).collect();
    let mut server =
        ShardedServer::new(markets, &ShardedConfig { shards: 1, pool: 2, cache: 16 }).unwrap();
    server.serve(0, Request::Equilibrium).unwrap();
    server.serve(1, Request::Equilibrium).unwrap();
    let survivor = server.read_cached(1).expect("market 1 published");
    assert!(server.read_cached(0).is_some(), "market 0 published");

    // A failed submit retracts: the slot is empty, not the corpse.
    let poisoned = poison_game(&section5_game()).unwrap();
    assert!(matches!(server.submit(0, poisoned), Err(ServeError::Num(NumError::NonFinite { .. }))));
    assert!(server.read_cached(0).is_none(), "retracted market must not serve a stale snapshot");
    let untouched = server.read_cached(1).expect("the healthy market is untouched");
    assert!(Arc::ptr_eq(&untouched, &survivor), "the healthy market's slot must not move");

    // Kill the shard. Recovery rebuilds market 1 from its published
    // answer; market 0's mirror is still poisoned, so its cold-solve
    // fallback fails and nothing may be republished for it.
    let err = server.serve_sabotaged(0, Request::Equilibrium, Sabotage::Kill);
    assert!(matches!(err, Err(ServeError::ShardRestarted { shard: 0 })));
    assert!(server.read_cached(0).is_none(), "a dead market must stay retracted after a kill");
    let republished = server.read_cached(1).expect("the rebuild republishes the survivor");
    assert!(Arc::ptr_eq(&republished, &survivor), "republished as the same allocation");

    // The universal heal: a clean submit republishes.
    server.submit(0, section5_game()).unwrap();
    assert!(server.read_cached(0).is_some(), "healed market publishes again");
}

#[test]
fn empty_latency_windows_are_errors_not_panics() {
    // The report path regression behind `serve_market --warmup N` with
    // N ≥ requests: an empty window is an explicit `NumError::Empty`
    // from the stats primitives, which the binary renders as "n/a".
    assert!(matches!(summarize_latencies(&[]), Err(NumError::Empty { .. })));
    let s = summarize_latencies(&[5.0, 1.0, 3.0]).unwrap();
    assert_eq!(s.count, 3);
    assert_eq!(s.p50, 3.0);
    assert_eq!(s.mean, 3.0);
}
