//! `serve` — the equilibrium service as deployed: one closed-loop client
//! replaying `loadgen::generate_multi` over 16 resident §5 markets on a
//! `ShardedServer` (2 shards, pool 2, cache 64). `run.py` confines the
//! process to one CPU: otherwise the scheduler decides whether router and
//! shard threads hand off on one CPU or across two, and the run lands in
//! one of two latency bands.

use std::collections::HashSet;
use std::time::Instant;

use subcomp_core::equilibrium::verify_equilibrium;
use subcomp_core::game::{Axis, SubsidyGame};
use subcomp_exp::scenarios::section5_system;
use subcomp_exp::server::{
    generate_multi, CacheStats, LoadGenConfig, Reply, Request, ServeResult, ServerStats,
    ShardedConfig, ShardedServer, Source,
};

use crate::probes;
use crate::refclock::RefClock;
use crate::stats;
use crate::trace::Tracer;
use crate::{ExplainRow, Opts, Report, CERT_TOL};

const MARKETS: usize = 16;
const CONFIG: ShardedConfig = ShardedConfig { shards: 2, pool: 2, cache: 64 };
/// More hot operating points per market than cache entries, so evictions
/// and re-solves stay a steady share of the stream instead of dying out
/// once the warm-up has filled the caches.
const HOT_KEYS: usize = 96;
const SKEW: f64 = 0.8;
/// Warm-up requests: enough for every cache to reach its steady state.
const WARMUP: usize = 20_000;
/// Requests the timed phases cycle through. The stream is stationary
/// (fixed hot keys, fixed mix), so a phase that outruns it starts over at
/// its head, and the stream's memory does not grow with the request rate.
const TIMED: usize = 160_000;
const SETUPS: usize = 3;

/// The answer paths of a request; `note` returns an index into this list.
/// Writes and sensitivity reads take one path per axis (the loader writes
/// and differentiates along p, q and µ), and a read or sensitivity read
/// that had to solve takes the path of its solve's warm start.
const PATHS: [&str; 11] = [
    "lockfree", "cache", "write-p", "write-q", "write-mu", "sens-p", "sens-q", "sens-mu",
    "tangent", "warm", "cold",
];
const LOCKFREE: usize = 0;
const CACHE: usize = 1;
const WRITE: usize = 2;
const SENS: usize = 5;
const TANGENT: usize = 8;

/// Layers a request stream never reaches: no batch, no adoption loop.
const UNREACHED: &[&str] = &[
    "exp.sweep.warm_share",
    "exp.sweep.overhead_share",
    "sim.adoption.users_stepped",
    "sim.adoption.ns_per_user",
    "sim.adoption.simulate_share",
    "exp.adoption.sources.lockfree",
    "exp.adoption.sources.cache",
    "exp.adoption.sources.tangent",
    "exp.adoption.sources.warm",
    "exp.adoption.sources.cold",
    "exp.adoption.sources.partial",
    "exp.adoption.tangent_ratio",
    "exp.adoption.writeback_tick_p50_us",
];

fn market() -> SubsidyGame {
    SubsidyGame::new(section5_system(), 0.6, 0.8).expect("the §5 market is valid")
}

fn fleet() -> Result<ShardedServer, String> {
    let markets = (0..MARKETS as u64).map(|id| (id, market())).collect();
    ShardedServer::new(markets, &CONFIG).map_err(|e| e.to_string())
}

/// A solve-sourced answer, kept for the certificate check after timing.
struct Answer {
    price: f64,
    cap: f64,
    mu: f64,
    s: Vec<f64>,
}

impl Answer {
    fn game(&self) -> Result<SubsidyGame, String> {
        probes::market_at(self.mu, self.price, self.cap)
    }
}

/// Deterministic tallies of one phase.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    ops: u64,
    /// lock-free, cache, tangent, warm, cold, partial answers.
    sources: [u64; 6],
    plain_reads: u64,
    fingerprints: u64,
    differentiated: u64,
    sweeps: u64,
    br_calls: u64,
}

impl Tally {
    fn solves(&self) -> u64 {
        self.sources[2] + self.sources[3] + self.sources[4]
    }
}

fn source_slot(source: Source) -> usize {
    match source {
        Source::LockFree => 0,
        Source::CacheHit => 1,
        Source::Tangent => 2,
        Source::Warm => 3,
        Source::Cold => 4,
        Source::Partial => 5,
    }
}

/// Offset of a loader axis among the per-axis paths.
fn axis_slot(axis: Axis) -> Result<usize, String> {
    match axis {
        Axis::Price => Ok(0),
        Axis::Cap => Ok(1),
        Axis::Mu => Ok(2),
        other => Err(format!("the loader never uses axis {other:?}")),
    }
}

/// Classifies one reply, tallies it and keeps what the checks need.
/// Returns the answer path, or `Err` for a failed request.
fn note(
    req: Request,
    result: &ServeResult<Reply>,
    tally: &mut Tally,
    answers: &mut Vec<Answer>,
) -> Result<usize, String> {
    let reply = result.as_ref().map_err(|e| format!("request {req:?} failed: {e}"))?;
    let (snap, source) = match reply {
        Reply::Updated { axis, .. } => return Ok(WRITE + axis_slot(*axis)?),
        Reply::Equilibrium { snap, source } => (snap, *source),
        Reply::Sensitivity { snap, source, ds } => {
            if !ds.iter().all(|d| d.is_finite()) {
                return Err(format!("non-finite sensitivity {ds:?}"));
            }
            tally.differentiated += 1;
            (snap, *source)
        }
        Reply::Degenerate { snap, source, .. } => (snap, *source),
    };
    tally.sources[source_slot(source)] += 1;
    if source == Source::Partial {
        return Err(format!("request {req:?} got a partial answer"));
    }
    if source != Source::LockFree {
        tally.fingerprints += 1;
    }
    let solved = matches!(source, Source::Tangent | Source::Warm | Source::Cold);
    if solved {
        let sweeps = snap.stats().iterations as u64;
        tally.sweeps += sweeps;
        tally.br_calls += sweeps * snap.n() as u64;
        answers.push(Answer {
            price: snap.price(),
            cap: snap.cap(),
            mu: snap.mu(),
            s: snap.subsidies().to_vec(),
        });
    }
    Ok(match (req, solved) {
        (_, true) => TANGENT + source_slot(source) - source_slot(Source::Tangent),
        (Request::Sensitivity { axis }, false) => SENS + axis_slot(axis)?,
        (_, false) if source == Source::LockFree => LOCKFREE,
        _ => CACHE,
    })
}

/// Server and cache counters summed over the fleet's shards.
pub fn shard_totals(server: &mut ShardedServer) -> Result<(ServerStats, CacheStats), String> {
    let (mut stats, mut cache) = (ServerStats::default(), CacheStats::default());
    for r in server.shard_reports().map_err(|e| e.to_string())? {
        stats.updates += r.stats.updates;
        stats.equilibria += r.stats.equilibria;
        stats.sensitivities += r.stats.sensitivities;
        stats.tangent_solves += r.stats.tangent_solves;
        stats.warm_solves += r.stats.warm_solves;
        stats.cold_solves += r.stats.cold_solves;
        stats.partial_solves += r.stats.partial_solves;
        cache.hits += r.cache.hits;
        cache.misses += r.cache.misses;
        cache.evictions += r.cache.evictions;
    }
    Ok((stats, cache))
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let (warmup, timed, setups) =
        if opts.tiny { (2_000, 4_000, 1) } else { (WARMUP, TIMED, SETUPS) };
    let cfg = LoadGenConfig {
        requests: (warmup + timed).div_ceil(MARKETS),
        seed: opts.seed,
        read_fraction: 0.6,
        sensitivity_fraction: 0.2,
        hot_keys: HOT_KEYS,
        skew: SKEW,
    };
    let stream = generate_multi(&cfg, MARKETS).map_err(|e| e.to_string())?;
    let timed = &stream[warmup..];
    let mut report = Report::default();
    let mut answers = Vec::new();

    // Set-up: build the fleet and serve the warm-up stream, several times.
    let mut clock = RefClock::new();
    let mut setup_times = Vec::new();
    let mut server = None;
    for _ in 0..setups {
        drop(server.take());
        answers.clear();
        clock.restart();
        let t = Instant::now();
        let mut paused = 0.0;
        let mut fleet = fleet()?;
        let mut warm = Tally::default();
        for &(m, req) in &stream[..warmup] {
            let result = fleet.serve(m, req);
            if let Err(why) = note(req, &result, &mut warm, &mut answers) {
                report.fail(why);
            }
            paused += clock.sample();
        }
        setup_times.push((t.elapsed().as_secs_f64() - paused) * clock.speed());
        server = Some(fleet);
    }
    report.setup_s = stats::median(&mut setup_times);
    report.peak_rss_mb = stats::peak_rss_mb();
    let mut server = server.expect("at least one set-up");

    // Timed phases.
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut next = 0;
    let mut rates = Vec::new();
    let mut traced = Tally::default();
    let mut cache_before = CacheStats::default();
    let mut traced_answers = 0..0;
    for &(tracing, share) in opts.phases() {
        if tracing {
            cache_before = shard_totals(&mut server)?.1;
        }
        let first_answer = answers.len();
        let mut tally = Tally::default();
        let mut samples: Vec<(f64, usize)> = Vec::with_capacity(1 << 18);
        clock.restart();
        let start = Instant::now();
        let mut now = start;
        let mut paused = 0.0;
        while !opts.done(share, tally.ops, (now - start).as_secs_f64() - paused) {
            let (m, req) = timed[next % timed.len()];
            next += 1;
            let t0 = Instant::now();
            let result = server.serve(m, req);
            now = Instant::now();
            tally.ops += 1;
            if matches!(req, Request::Equilibrium) {
                tally.plain_reads += 1;
            }
            match note(req, &result, &mut tally, &mut answers) {
                Ok(path) => {
                    samples.push(((now - t0).as_secs_f64() * 1e6, path));
                    if tracing {
                        tracer.push("serve", t0, now, 0, tally.ops, PATHS[path]);
                    }
                }
                Err(why) => report.fail(why),
            }
            paused += clock.sample();
        }
        let speed = clock.speed();
        rates.push(crate::rate(tally.ops, start.elapsed().as_secs_f64() - paused, speed)?);
        report.attempted += tally.ops;
        if tracing {
            traced = tally;
            traced_answers = first_answer..answers.len();
        } else {
            report.set_op_percentiles(opts, &samples, &PATHS, speed)?;
            report.ops_per_s = rates[0];
        }
    }

    // Output checks, outside every timed span.
    let mut worst: f64 = 0.0;
    for answer in &answers {
        let game = answer.game()?;
        match verify_equilibrium(&game, &answer.s) {
            Ok(cert) => {
                worst = worst.max(cert.max_kkt_residual).max(cert.max_threshold_residual);
                if !cert.is_equilibrium(CERT_TOL) {
                    report.fail(format!(
                        "uncertified equilibrium at p={} q={} mu={}: kkt {:e}, threshold {:e}",
                        answer.price,
                        answer.cap,
                        answer.mu,
                        cert.max_kkt_residual,
                        cert.max_threshold_residual
                    ));
                }
            }
            Err(e) => report.fail(format!("certificate failed: {e}")),
        }
    }
    report.notes.push(format!(
        "serve: {} solve answers certified, worst residual {worst:e}",
        answers.len()
    ));

    if opts.trace {
        let cache_after = shard_totals(&mut server)?.1;
        layers(
            &mut report,
            &mut server,
            &traced,
            &answers[traced_answers],
            cache_before,
            cache_after,
        )?;
        report.set("trace.overhead", rates[0] / rates[1] - 1.0);
        report.covered_s = tracer.total_s("serve");
        let solve_us: Vec<f64> = tracer
            .spans
            .iter()
            .filter(|s| PATHS[TANGENT..].contains(&s.tag))
            .map(|s| s.us())
            .collect();
        let (p50, p99) = stats::p50_p99(solve_us);
        report.set("core.nash.solve_p50_us", p50);
        report.set("core.nash.solve_p99_us", p99);
        report.spans = Some(tracer);
    }
    Ok(report)
}

/// Per-layer metrics and explain rows of the traced phase.
fn layers(
    report: &mut Report,
    server: &mut ShardedServer,
    t: &Tally,
    answers: &[Answer],
    before: CacheStats,
    after: CacheStats,
) -> Result<(), String> {
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    let roundtrips = t.ops - t.sources[0];
    report.set(
        "exp.server.sharded.lockfree_ratio",
        t.sources[0] as f64 / t.plain_reads.max(1) as f64,
    );
    report.set("exp.server.sharded.roundtrips", roundtrips as f64);
    report.set("exp.server.cache.hit_ratio", hits / (hits + misses).max(1.0));
    report.set("exp.server.cache.evictions", (after.evictions - before.evictions) as f64);
    report.set("core.nash.solves.tangent", t.sources[2] as f64);
    report.set("core.nash.solves.warm", t.sources[3] as f64);
    report.set("core.nash.solves.cold", t.sources[4] as f64);
    report.set("core.nash.solves.partial", t.sources[5] as f64);
    report.set("core.nash.sweeps_per_solve", t.sweeps as f64 / t.solves().max(1) as f64);
    report.set("core.best_response.calls", t.br_calls as f64);

    // Unit costs on the hot-key games the phase solved.
    let mut seen = HashSet::new();
    let mut games = Vec::new();
    for a in answers {
        if games.len() < 16 && seen.insert((a.price.to_bits(), a.cap.to_bits(), a.mu.to_bits())) {
            games.push(probes::solved(a.game()?)?);
        }
    }
    if games.is_empty() {
        games.push(probes::solved(market())?);
    }
    let state = probes::state_us(&mut games);
    let capture = probes::capture_us(&mut games);
    let fp = probes::fingerprint_us(&mut games);
    let sens = probes::directional_us(&mut games);
    let br = probes::best_response_us(&mut games);
    let game0 = match server.read_cached(0) {
        Some(snap) => probes::market_at(snap.mu(), snap.price(), snap.cap())?,
        None => market(),
    };
    let index = probes::index_read_ns(server, 0)?;
    let roundtrip = probes::roundtrip_us(server, 0, &game0)?;
    report.set("model.system.state_us", state);
    report.set("core.snapshot.capture_us", capture);
    report.set("exp.server.fingerprint.us", fp);
    report.set("core.sensitivity.directional_us", sens);
    report.set("core.best_response.us_per_call", br);
    report.set("core.snapshot.index_read_ns", index);
    report.set("exp.server.sharded.roundtrip_us", roundtrip);
    report.unreached(UNREACHED);
    report.explain = vec![
        ExplainRow {
            layer: "core.snapshot lock-free read",
            count: t.sources[0] as f64,
            unit_s: index * 1e-9,
        },
        ExplainRow {
            layer: "exp.server.sharded roundtrip",
            count: roundtrips as f64,
            unit_s: roundtrip * 1e-6,
        },
        ExplainRow {
            layer: "exp.server.fingerprint",
            count: t.fingerprints as f64,
            unit_s: fp * 1e-6,
        },
        ExplainRow { layer: "core.best_response", count: t.br_calls as f64, unit_s: br * 1e-6 },
        ExplainRow {
            layer: "core.snapshot capture",
            count: t.solves() as f64,
            unit_s: capture * 1e-6,
        },
        ExplainRow {
            layer: "core.sensitivity",
            count: t.differentiated as f64,
            unit_s: sens * 1e-6,
        },
    ];
    Ok(())
}
