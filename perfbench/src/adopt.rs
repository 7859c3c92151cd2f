//! `adopt` — the closed Weber–Guérin adoption loop: `AdoptionLoop` over
//! the §5 specs with 2 cohorts × 1M users, 2 shards and one block fan-out
//! thread. A small explore/decay keeps the population from absorbing, so
//! µ moves every tick, and every 10th tick writes realized demand back
//! through a full `submit`.

use std::time::Instant;

use subcomp_core::game::SubsidyGame;
use subcomp_exp::adoption::{AdoptionLoop, LoopConfig, SourceCounts};
use subcomp_exp::scenarios::section5_specs;
use subcomp_exp::server::{CacheStats, ServerStats};
use subcomp_sim::adoption::AdoptionParams;

use crate::probes;
use crate::refclock::RefClock;
use crate::stats;
use crate::trace::Tracer;
use crate::{ExplainRow, Opts, Report};

const COHORTS: usize = 2;
const USERS: usize = 1_000_000;
const WRITEBACK_EVERY: u64 = 10;
const WARMUP_TICKS: u64 = 20;
const SETUPS: usize = 3;
const MU: f64 = 3.0;
const PRICE: f64 = 0.6;
const CAP: f64 = 0.8;
/// Re-solves timed for the `core::nash` solve quantiles.
const SOLVE_PROBES: usize = 128;
/// A small explore/decay keeps the population from absorbing, so µ keeps
/// moving and the re-solves keep solving.
const HAZARDS: AdoptionParams =
    AdoptionParams { adopt: 0.5, churn: 0.5, explore: 0.02, decay: 0.02, seed: 0 };

/// Tick paths: plain ticks by how many cohorts' closing re-solves were
/// solves (not cache hits), and demand write-back ticks.
const PATHS: [&str; 4] = ["plain-0", "plain-1", "plain-2", "writeback"];
const WRITEBACK: usize = 3;

/// Layers the loop never reaches: it runs no batch.
const UNREACHED: &[&str] = &["exp.sweep.warm_share", "exp.sweep.overhead_share"];

fn config(seed: u64, users: usize) -> LoopConfig {
    LoopConfig {
        seed,
        cohorts: COHORTS,
        users,
        threads: 1,
        hazards: HAZARDS,
        demand_every: WRITEBACK_EVERY,
        shards: 2,
        ..Default::default()
    }
}

/// FNV-1a over one word — the fold `AdoptionLoop::run` uses for its
/// trajectory checksum.
fn fold(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

fn delta(after: SourceCounts, before: SourceCounts) -> [u64; 6] {
    [
        after.lockfree - before.lockfree,
        after.cache - before.cache,
        after.tangent - before.tangent,
        after.warm - before.warm,
        after.cold - before.cold,
        after.partial - before.partial,
    ]
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let (users, warmup, setups) =
        if opts.tiny { (20_000, 5, 1) } else { (USERS, WARMUP_TICKS, SETUPS) };
    let cfg = config(opts.seed, users);
    let specs = section5_specs();
    let mut report = Report::default();
    let mut checksum = 0xCBF2_9CE4_8422_2325u64;

    // Set-up: build the populations and fleet, run the warm-up ticks.
    let mut clock = RefClock::new();
    let mut setup_times = Vec::new();
    let mut lp = None;
    for _ in 0..setups {
        drop(lp.take());
        checksum = 0xCBF2_9CE4_8422_2325;
        clock.restart();
        let t = Instant::now();
        let mut fresh =
            AdoptionLoop::new(&specs, MU, PRICE, CAP, &cfg).map_err(|e| e.to_string())?;
        let mut paused = clock.sample();
        for _ in 0..warmup {
            let s = fresh.tick().map_err(|e| e.to_string())?;
            checksum = fold(fold(fold(checksum, s.tick), s.adopted), s.mass.to_bits());
            paused += clock.sample();
        }
        setup_times.push((t.elapsed().as_secs_f64() - paused) * clock.speed());
        lp = Some(fresh);
    }
    report.setup_s = stats::median(&mut setup_times);
    report.peak_rss_mb = stats::peak_rss_mb();
    let mut lp = lp.expect("at least one set-up");

    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut rates = Vec::new();
    let mut traced_ticks = 0u64;
    let mut sources_before = lp.sources();
    let mut shards_before = (ServerStats::default(), CacheStats::default());
    let (mut sampled_sweeps, mut sampled_solves) = (0u64, 0u64);
    let mut mus = Vec::new();
    for &(tracing, share) in opts.phases() {
        if tracing {
            sources_before = lp.sources();
            shards_before = crate::serve::shard_totals(lp.server_mut())?;
        }
        let mut samples: Vec<(f64, usize)> = Vec::new();
        clock.restart();
        let start = Instant::now();
        let mut now = start;
        let mut paused = 0.0;
        let mut ticks = 0u64;
        while !opts.done(share, ticks, (now - start).as_secs_f64() - paused) {
            let before = lp.sources();
            let t0 = Instant::now();
            let result = lp.tick();
            now = Instant::now();
            ticks += 1;
            let s = match result {
                Ok(s) => s,
                Err(e) => {
                    report.fail(format!("tick failed: {e}"));
                    paused += clock.sample();
                    continue;
                }
            };
            checksum = fold(fold(fold(checksum, s.tick), s.adopted), s.mass.to_bits());
            let d = delta(lp.sources(), before);
            let solved = d[2] + d[3] + d[4];
            let path =
                if s.tick % WRITEBACK_EVERY == 0 { WRITEBACK } else { (solved as usize).min(2) };
            samples.push(((now - t0).as_secs_f64() * 1e6, path));
            if tracing {
                tracer.push("tick", t0, now, 0, s.tick, PATHS[path]);
                traced_ticks += 1;
                // Sweeps of the closing re-solves, read off the published
                // answers when every cohort's re-solve this tick was a solve.
                let solved_all = solved == COHORTS as u64;
                for m in 0..COHORTS {
                    let Some(snap) = lp.server_mut().read_cached(m as u64) else { continue };
                    if solved_all {
                        sampled_sweeps += snap.stats().iterations as u64;
                        sampled_solves += 1;
                    }
                    if m == 0 && mus.len() <= SOLVE_PROBES {
                        mus.push(snap.mu());
                    }
                }
            }
            paused += clock.sample();
        }
        let speed = clock.speed();
        rates.push(crate::rate(ticks, start.elapsed().as_secs_f64() - paused, speed)?);
        report.attempted += ticks;
        if !tracing {
            report.ops_per_s = rates[0];
            report.set_op_percentiles(opts, &samples, &PATHS, speed)?;
        }
    }

    // Output checks: no partial answers anywhere in the trajectory.
    let partial = lp.sources().partial;
    if partial > 0 {
        report.fail(format!("{partial} partial answers"));
    }
    report.notes.push(format!("adopt checksum after {} ticks: {checksum:016x}", lp.ticks()));

    if opts.trace {
        // Loop-level answer sources, and the shards' own counters: these
        // also see the solves inside a write-back `submit` and inside the
        // tangent-arming sensitivity read, which the loop does not tally.
        let d = delta(lp.sources(), sources_before);
        let (after, cache_after) = crate::serve::shard_totals(lp.server_mut())?;
        let (before, cache_before) = shards_before;
        let tangent = after.tangent_solves - before.tangent_solves;
        let warm = after.warm_solves - before.warm_solves;
        let cold = after.cold_solves - before.cold_solves;
        let partial = after.partial_solves - before.partial_solves;
        let solves = tangent + warm + cold + partial;
        let sensitivities = after.sensitivities - before.sensitivities;
        // Every shard request is an axis write or answers one equilibrium
        // (a read, a sensitivity read or a submit), and fingerprints it.
        let fingerprints = after.equilibria - before.equilibria;
        let roundtrips = (after.updates - before.updates) + fingerprints;
        let answers: u64 = d.iter().sum();
        let sweeps_per_solve = sampled_sweeps as f64 / sampled_solves.max(1) as f64;
        let n = specs.len() as f64;
        let br_calls = (solves as f64 * sweeps_per_solve * n).round();
        let users_stepped = traced_ticks * COHORTS as u64 * users as u64;
        for (name, v) in [
            ("exp.adoption.sources.lockfree", d[0]),
            ("exp.adoption.sources.cache", d[1]),
            ("exp.adoption.sources.tangent", d[2]),
            ("exp.adoption.sources.warm", d[3]),
            ("exp.adoption.sources.cold", d[4]),
            ("exp.adoption.sources.partial", d[5]),
            ("core.nash.solves.tangent", tangent),
            ("core.nash.solves.warm", warm),
            ("core.nash.solves.cold", cold),
            ("core.nash.solves.partial", partial),
            ("exp.server.sharded.roundtrips", roundtrips),
            ("exp.server.cache.evictions", cache_after.evictions - cache_before.evictions),
            ("sim.adoption.users_stepped", users_stepped),
        ] {
            report.set(name, v as f64);
        }
        report.set("exp.adoption.tangent_ratio", d[2] as f64 / (answers - d[0]).max(1) as f64);
        report.set("exp.server.sharded.lockfree_ratio", d[0] as f64 / answers.max(1) as f64);
        let hits = (cache_after.hits - cache_before.hits) as f64;
        let misses = (cache_after.misses - cache_before.misses) as f64;
        report.set("exp.server.cache.hit_ratio", hits / (hits + misses).max(1.0));
        report.set("core.nash.sweeps_per_solve", sweeps_per_solve);
        report.set("core.best_response.calls", br_calls);
        let mut wb: Vec<f64> =
            tracer.spans.iter().filter(|s| s.tag == PATHS[WRITEBACK]).map(|s| s.us()).collect();
        report.set(
            "exp.adoption.writeback_tick_p50_us",
            if wb.is_empty() { 0.0 } else { stats::median(&mut wb) },
        );
        // The solves inside `tick` are timed on cohort 0's market at each
        // served µ over the base §5 specs. The loop's demand write-backs
        // also move m⁰, which this does not replay: the games are right in
        // size and shape for unit costs, not in their answers.
        let chain: Vec<SubsidyGame> =
            mus.iter().map(|&mu| probes::market_at(mu, PRICE, CAP)).collect::<Result<_, _>>()?;
        let (p50, p99) = probes::solve_quantiles_us(&chain);
        report.set("core.nash.solve_p50_us", p50);
        report.set("core.nash.solve_p99_us", p99);

        // Unit costs on the cohorts' markets at their served µ (same
        // caveat), and the population step driven by cohort 0's answer.
        let mut games = Vec::new();
        let mut drive = None;
        for m in 0..COHORTS as u64 {
            let snap = lp.server_mut().read_cached(m).ok_or("a cohort published nothing")?;
            drive.get_or_insert_with(|| probes::drive_from(&snap, PRICE, cfg.gamma));
            games.push(probes::solved(probes::market_at(snap.mu(), PRICE, CAP)?)?);
        }
        let drive = drive.expect("at least one cohort");
        let state = probes::state_us(&mut games);
        let capture = probes::capture_us(&mut games);
        let fp = probes::fingerprint_us(&mut games);
        let sens = probes::directional_us(&mut games);
        let br = probes::best_response_us(&mut games);
        let index = probes::index_read_ns(lp.server_mut(), 0)?;
        let roundtrip = probes::roundtrip_us(lp.server_mut(), 0, &games[0].game)?;
        let ns_user = probes::ns_per_user(users, cfg.hazards, &drive);
        report.set("model.system.state_us", state);
        report.set("core.snapshot.capture_us", capture);
        report.set("exp.server.fingerprint.us", fp);
        report.set("core.sensitivity.directional_us", sens);
        report.set("core.best_response.us_per_call", br);
        report.set("core.snapshot.index_read_ns", index);
        report.set("exp.server.sharded.roundtrip_us", roundtrip);
        report.set("sim.adoption.ns_per_user", ns_user);
        report.covered_s = tracer.total_s("tick");
        report.set(
            "sim.adoption.simulate_share",
            users_stepped as f64 * ns_user * 1e-9 / report.covered_s,
        );
        report.unreached(UNREACHED);
        report.set("trace.overhead", rates[0] / rates[1] - 1.0);
        report.explain = vec![
            ExplainRow {
                layer: "sim.adoption step",
                count: users_stepped as f64,
                unit_s: ns_user * 1e-9,
            },
            ExplainRow { layer: "core.best_response", count: br_calls, unit_s: br * 1e-6 },
            ExplainRow {
                layer: "core.sensitivity",
                count: sensitivities as f64,
                unit_s: sens * 1e-6,
            },
            ExplainRow {
                layer: "exp.server.sharded roundtrip",
                count: roundtrips as f64,
                unit_s: roundtrip * 1e-6,
            },
            ExplainRow {
                layer: "exp.server.fingerprint",
                count: fingerprints as f64,
                unit_s: fp * 1e-6,
            },
            ExplainRow {
                layer: "core.snapshot capture",
                count: solves as f64,
                unit_s: capture * 1e-6,
            },
            ExplainRow {
                layer: "core.snapshot lock-free read",
                count: d[0] as f64,
                unit_s: index * 1e-9,
            },
        ];
        report.spans = Some(tracer);
    }
    Ok(report)
}
