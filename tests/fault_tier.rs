//! Fault tier: the serving layer's recovery contracts under injected
//! failure (see `tests/README.md`, "The fault tier").
//!
//! Six contracts:
//!
//! 1. **Chaos replay is bit-identical and shard-invariant.** One seed,
//!    one fault schedule: two runs produce byte-equal reports, and the
//!    same run at 1, 2 and 4 shards produces the *same* checksum,
//!    failure breakdowns and recovery counters — shard kills trigger the
//!    canonical fleet-wide reset precisely so this holds.
//! 2. **Every fault is recovered.** No chaos episode leaves a market
//!    unrecovered after the final heal sweep; killed shards restart,
//!    panicked markets are rebuilt from their mirrors.
//! 3. **Budgets degrade deterministically, then quarantine.** A starved
//!    market answers identical `Source::Partial` iterates (never cached,
//!    never published), accumulates strikes, refuses all requests once
//!    quarantined — and only a submit heals it.
//! 4. **Poisoned curves are caught at the door.** A NaN-above-threshold
//!    demand curve fails admission fingerprinting as a typed
//!    `NonFinite`, never inside a solve, and never publishes.
//! 5. **Degenerate equilibria are typed replies, not errors.** A
//!    sensitivity read at an equilibrium violating strict
//!    complementarity answers `Reply::Degenerate` with the active-set
//!    partition, and the server keeps serving. A read along a provider
//!    the market does not have fails typed before any work, on a regular
//!    and a degenerate market alike.
//! 6. **A refused request changes nothing.** A write or a read refused
//!    before any state changed leaves the market's published slot as it
//!    was, so the next equilibrium read stays lock-free; an accepted
//!    write and a poisoned submit still empty it.

use std::sync::Arc;
use subcomp::exp::scenarios::section5_system;
use subcomp::exp::server::{
    poison_game, run_chaos, ChaosConfig, ChaosReport, EquilibriumServer, FaultKind, FaultPlan,
    LoadGenConfig, Reply, Request, Sabotage, ServeError, ShardedConfig, ShardedServer, Source,
};
use subcomp::game::game::{Axis, SubsidyGame};
use subcomp::game::workspace::SolveBudget;
use subcomp::num::error::NumError;

/// The §5 market at the `serve_market` default operating point.
fn section5_game() -> SubsidyGame {
    SubsidyGame::new(section5_system(), 0.6, 0.8).expect("§5 market is valid")
}

fn section5_markets(n: usize) -> Vec<(u64, SubsidyGame)> {
    (0..n as u64).map(|id| (id, section5_game())).collect()
}

fn chaos(shards: usize, seed: u64) -> ChaosReport {
    run_chaos(
        &section5_markets(4),
        &ChaosConfig {
            shards,
            pool: 2,
            cache: 16,
            load: LoadGenConfig { requests: 120, hot_keys: 6, ..LoadGenConfig::default() },
            chaos_seed: seed,
        },
    )
    .expect("chaos harness must run")
}

#[test]
fn chaos_replay_is_bit_identical_and_shard_invariant() {
    let one_a = chaos(1, 42);
    let one_b = chaos(1, 42);
    assert_eq!(one_a, one_b, "identical seeds must replay byte-identically");

    let two = chaos(2, 42);
    let four = chaos(4, 42);
    assert_eq!(one_a, two, "chaos outcome diverged between 1 and 2 shards");
    assert_eq!(one_a, four, "chaos outcome diverged between 1 and 4 shards");

    // The episode must have actually exercised the machinery.
    assert!(one_a.injected > 0, "no faults scheduled");
    assert!(one_a.failed > 0, "faults fired but nothing failed — injection is dead");
    assert!(one_a.ok > one_a.failed, "the service must keep serving through faults");
    assert!(one_a.unrecovered.is_empty(), "unrecovered markets: {:?}", one_a.unrecovered);

    // A different seed is a different episode.
    assert_ne!(one_a.checksum, chaos(1, 43).checksum, "the seed must matter");
}

#[test]
fn every_chaos_seed_recovers_every_market() {
    // The recovery bar across a spread of schedules: whatever mix of
    // panics, kills, poisons and starvations each seed draws, the final
    // heal sweep leaves zero unrecovered markets, and every kill was
    // answered by a restart.
    for seed in [1u64, 7, 42, 99, 1234] {
        let report = chaos(2, seed);
        assert!(
            report.unrecovered.is_empty(),
            "seed {seed}: unrecovered markets {:?}",
            report.unrecovered
        );
        let plan = FaultPlan::generate(seed, report.requests, 4);
        let kills =
            plan.events().iter().filter(|e| matches!(e.kind, FaultKind::Kill)).count() as u64;
        assert!(
            report.shard_restarts >= kills.min(1),
            "seed {seed}: {kills} kills scheduled but only {} restarts",
            report.shard_restarts
        );
    }
}

#[test]
fn budget_starvation_degrades_then_quarantines_and_submit_heals() {
    // Cache capacity 0: every read is a real solve, so strikes can never
    // be reset by a cache hit and the quarantine path is deterministic.
    let mut server =
        EquilibriumServer::new(section5_game(), 1, 0).with_budget(SolveBudget::sweeps(1));

    // Three starved reads: identical partial iterates, never cached.
    let mut first_bits = None;
    for strike in 1..=3u32 {
        let reply = server.serve(Request::Equilibrium).expect("partial answers are Ok");
        let Reply::Equilibrium { snap, source } = reply else {
            panic!("equilibrium request answered something else")
        };
        assert_eq!(source, Source::Partial, "a starved solve must degrade, not error");
        assert!(!snap.stats().converged, "partial snapshots carry their non-convergence");
        let bits: Vec<u64> = snap.subsidies().iter().map(|s| s.to_bits()).collect();
        match &first_bits {
            None => first_bits = Some(bits),
            Some(first) => {
                assert_eq!(first, &bits, "starved re-reads must answer identical iterates")
            }
        }
        assert_eq!(server.strikes(), strike);
    }
    assert!(server.is_quarantined(), "three blowouts must quarantine the market");

    // Quarantine refuses every request kind with the typed error.
    for req in [
        Request::Equilibrium,
        Request::Sensitivity { axis: Axis::Mu },
        Request::Update { axis: Axis::Price, value: 0.7 },
    ] {
        assert!(
            matches!(server.serve(req), Err(ServeError::Quarantined { strikes: 3 })),
            "quarantined server must refuse {req:?}"
        );
    }

    // Only a submit heals — and the healed server converges again once
    // the budget is restored.
    server.set_budget(SolveBudget::unlimited());
    assert!(
        matches!(server.serve(Request::Equilibrium), Err(ServeError::Quarantined { strikes: 3 })),
        "a budget change alone must not lift quarantine"
    );
    let (snap, _) = server.submit(section5_game()).expect("submit heals");
    assert!(snap.stats().converged);
    assert!(!server.is_quarantined());
    assert_eq!(server.strikes(), 0);
    let reply = server.serve(Request::Equilibrium).unwrap();
    let Reply::Equilibrium { source, .. } = reply else { unreachable!() };
    // Cache capacity is 0 here, so the healed read warm-starts from the
    // pool slot the submit populated — a full answer, never a partial.
    assert_eq!(source, Source::Warm, "healed markets serve full answers again");
}

#[test]
fn starved_sensitivity_reads_degrade_to_partial_equilibria() {
    // The first rung of the sensitivity ladder: a starved market that is
    // not yet quarantined answers a sensitivity read with its partial
    // equilibrium (no derivative of a non-converged iterate) and records
    // one strike, instead of erroring or panicking.
    let mut server =
        EquilibriumServer::new(section5_game(), 1, 0).with_budget(SolveBudget::sweeps(1));
    let reply = server.serve(Request::Sensitivity { axis: Axis::Mu }).expect("partials are Ok");
    let Reply::Equilibrium { snap, source: Source::Partial } = reply else {
        panic!("a starved sensitivity read must degrade to a partial equilibrium, got {reply:?}")
    };
    assert!(!snap.stats().converged, "partial snapshots carry their non-convergence");
    assert_eq!(server.strikes(), 1);
    assert!(!server.is_quarantined(), "one blowout must not quarantine");
    assert_eq!(server.stats().sensitivities, 0, "no derivative was served");
}

#[test]
fn partial_answers_are_never_published() {
    // Sharded view of the same contract: a starved market's partial
    // answers never reach the lock-free index, so no reader can mistake
    // a non-converged iterate for an equilibrium.
    let mut server =
        ShardedServer::new(section5_markets(1), &ShardedConfig { shards: 1, pool: 1, cache: 0 })
            .unwrap();
    server.set_budget(0, SolveBudget::sweeps(1)).unwrap();
    let reply = server.serve(0, Request::Equilibrium).unwrap();
    let Reply::Equilibrium { source, .. } = reply else { unreachable!() };
    assert_eq!(source, Source::Partial);
    assert!(server.read_cached(0).is_none(), "partial answers must never be published");
    // Healing restores publication.
    server.set_budget(0, SolveBudget::unlimited()).unwrap();
    server.submit(0, section5_game()).unwrap();
    assert!(server.read_cached(0).is_some());
}

#[test]
fn poisoned_curves_fail_typed_and_heal_cleanly() {
    let mut server =
        ShardedServer::new(section5_markets(2), &ShardedConfig { shards: 2, pool: 2, cache: 16 })
            .unwrap();
    server.serve(0, Request::Equilibrium).unwrap();
    let clean_bits = {
        let Reply::Equilibrium { snap, .. } = server.serve(0, Request::Equilibrium).unwrap() else {
            unreachable!()
        };
        snap.subsidies().to_vec()
    };

    let poisoned = poison_game(&section5_game()).unwrap();
    assert!(matches!(server.submit(0, poisoned), Err(ServeError::Num(NumError::NonFinite { .. }))));
    // Every read of the poisoned market is the same typed failure; the
    // other market keeps serving.
    for _ in 0..3 {
        assert!(matches!(
            server.serve(0, Request::Equilibrium),
            Err(ServeError::Num(NumError::NonFinite { .. }))
        ));
    }
    assert!(server.serve(1, Request::Equilibrium).is_ok());

    // Healing resubmits the clean game; the answer matches the pre-fault
    // equilibrium bit for bit.
    let healed = server.submit(0, section5_game()).unwrap();
    let Reply::Equilibrium { snap, .. } = healed else { panic!("submit answers equilibrium") };
    assert_eq!(snap.subsidies(), clean_bits.as_slice());
}

/// A regular one-CP market and its degenerate twin (strict
/// complementarity fails): solve the interior best response, then cap
/// exactly there.
fn one_cp_markets() -> [SubsidyGame; 2] {
    use subcomp::game::nash::NashSolver;
    use subcomp::model::aggregation::{build_system, ExpCpSpec};

    let sys = build_system(&[ExpCpSpec::unit(8.0, 2.0, 1.0)], 1.0).unwrap();
    let free = SubsidyGame::new(sys.clone(), 1.0, 2.0).unwrap();
    let s_star = NashSolver::default().with_tol(1e-10).solve(&free).unwrap().subsidies[0];
    let pinned = SubsidyGame::new(sys, 1.0, s_star).unwrap();
    [free, pinned]
}

#[test]
fn degenerate_equilibria_are_typed_replies_not_errors() {
    let [_, pinned] = one_cp_markets();
    let mut server = EquilibriumServer::new(pinned, 1, 8);
    let reply = server.serve(Request::Sensitivity { axis: Axis::Mu }).unwrap();
    let Reply::Degenerate { active_set, snap, .. } = reply else {
        panic!("a degenerate sensitivity read must answer Reply::Degenerate, got {reply:?}")
    };
    assert!(active_set.upper.contains(&0), "the pinned provider sits in N+");
    assert!(snap.stats().converged, "the equilibrium itself is perfectly good");
    // The server stays resident and keeps serving.
    let reply = server.serve(Request::Equilibrium).unwrap();
    let Reply::Equilibrium { source, .. } = reply else { unreachable!() };
    assert_eq!(source, Source::CacheHit);
}

#[test]
fn sensitivity_reads_along_a_missing_provider_fail_before_any_work() {
    for game in one_cp_markets() {
        let mut server = EquilibriumServer::new(game, 1, 8);
        let (stats, cache) = (server.stats(), server.cache_stats());
        let reply = server.serve(Request::Sensitivity { axis: Axis::Profitability(99) });
        assert!(
            matches!(
                reply,
                Err(ServeError::Num(NumError::DimensionMismatch { expected: 1, actual: 99 }))
            ),
            "a missing provider must fail typed, got {reply:?}"
        );
        assert_eq!(server.stats(), stats, "a refused read must count nothing");
        assert_eq!(server.cache_stats(), cache, "a refused read must solve and cache nothing");
    }
}

#[test]
fn refused_requests_leave_the_published_slot_as_it_was() {
    let mut server = ShardedServer::new(section5_markets(1), &ShardedConfig::default()).unwrap();
    server.serve(0, Request::Equilibrium).unwrap();
    let published = server.read_cached(0).expect("a full read publishes its answer");
    let refused = [
        Request::Update { axis: Axis::Mu, value: f64::NAN },
        Request::Update { axis: Axis::Cap, value: -1.0 },
        Request::Update { axis: Axis::Profitability(99), value: 1.0 },
        Request::Sensitivity { axis: Axis::Profitability(99) },
    ];
    for req in refused {
        let reply = server.serve(0, req);
        assert!(reply.is_err(), "{req:?} must be refused, got {reply:?}");
        let slot = server.read_cached(0).expect("a refused request must leave the slot");
        assert!(Arc::ptr_eq(&slot, &published), "{req:?} replaced the published snapshot");
        let Reply::Equilibrium { snap, source } = server.serve(0, Request::Equilibrium).unwrap()
        else {
            unreachable!()
        };
        assert_eq!(source, Source::LockFree, "the read after {req:?} left the lock-free path");
        assert!(Arc::ptr_eq(&snap, &published));
    }
    // An accepted write still empties the slot...
    server.serve(0, Request::Update { axis: Axis::Price, value: 0.7 }).unwrap();
    assert!(server.read_cached(0).is_none(), "an accepted write must retract the slot");
    // ...and so does a poisoned submit, which leaves no current answer.
    server.serve(0, Request::Equilibrium).unwrap();
    assert!(server.read_cached(0).is_some());
    let poisoned = poison_game(&section5_game()).unwrap();
    assert!(matches!(server.submit(0, poisoned), Err(ServeError::Num(NumError::NonFinite { .. }))));
    assert!(server.read_cached(0).is_none(), "a poisoned submit must retract the slot");
}

#[test]
fn sabotaged_requests_fail_typed_while_the_fleet_keeps_serving() {
    // The two supervision scopes, end to end: a request panic rebuilds
    // one market; a kill restarts the shard and rehydrates everything.
    // After both, every market serves full answers again with no submit.
    let mut server =
        ShardedServer::new(section5_markets(3), &ShardedConfig { shards: 2, pool: 2, cache: 16 })
            .unwrap();
    for id in 0..3u64 {
        server.serve(id, Request::Equilibrium).unwrap();
    }

    let panicked = server.serve_sabotaged(0, Request::Equilibrium, Sabotage::Panic);
    assert!(matches!(panicked, Err(ServeError::ShardRestarted { .. })));
    assert_eq!(server.shard_restarts(), 0);
    assert_eq!(server.market_rebuilds(), 1);

    let killed = server.serve_sabotaged(1, Request::Equilibrium, Sabotage::Kill);
    assert!(matches!(killed, Err(ServeError::ShardRestarted { .. })));
    assert_eq!(server.shard_restarts(), 1);
    assert_eq!(server.market_rebuilds(), 4, "kill recovery rebuilds the whole fleet");

    for id in 0..3u64 {
        let reply = server.serve(id, Request::Equilibrium).unwrap();
        let Reply::Equilibrium { snap, .. } = reply else { unreachable!() };
        assert!(snap.stats().converged, "market {id} must serve full answers after recovery");
    }
}

#[test]
fn fault_plans_are_pure_functions_of_their_arguments() {
    let a = FaultPlan::generate(7, 480, 4);
    assert_eq!(a, FaultPlan::generate(7, 480, 4));
    assert_ne!(a, FaultPlan::generate(8, 480, 4));
    // Nothing shard-shaped exists in the signature, and the schedule
    // pairs every curve/budget fault with a heal.
    let primaries = a
        .events()
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::NanCurve { .. } | FaultKind::Starve { .. }))
        .count();
    let heals = a.events().iter().filter(|e| matches!(e.kind, FaultKind::Heal { .. })).count();
    assert_eq!(primaries, heals);
}
