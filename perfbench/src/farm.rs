//! `farm` — the batch analyst path: `scenarios::farm_game` ensembles of
//! 2 to 12 providers solved through `BatchSolver::default()` (blocks of
//! 32, warm chains) on one worker thread. Its time is all in `core::nash`
//! and below, so a solver gain shows at full size here and a
//! serving-layer change must read as no change.

use std::time::Instant;

use subcomp_core::equilibrium::verify_equilibrium;
use subcomp_core::game::SubsidyGame;
use subcomp_core::nash::{SolveStats, WarmStart};
use subcomp_core::workspace::SolveWorkspace;
use subcomp_exp::scenarios::farm_game;
use subcomp_exp::sweep::BatchSolver;

use crate::probes;
use crate::refclock::RefClock;
use crate::stats;
use crate::trace::Tracer;
use crate::{ExplainRow, Opts, Report, CERT_TOL};

/// Games per `BatchSolver::run` call: whole warm-start blocks, so the
/// chains are exactly those of one run over the whole ensemble.
const SEGMENT: usize = 64;
const SETUPS: usize = 3;
/// Ensemble seed of the warm-up games.
const WARMUP_SEED: u64 = 0x5EED;
/// Warm-up games: enough solver work (about 2.5 s) that set-up time
/// repeats from run to run.
const WARMUP: usize = 4 * SEGMENT;
/// Alternating batch/replay rounds behind `exp.sweep.overhead_share`.
const REPLAYS: usize = 3;

/// Layers a batch never reaches: no fleet, no snapshots, no sensitivity
/// reads, no adoption loop.
const UNREACHED: &[&str] = &[
    "exp.server.sharded.lockfree_ratio",
    "exp.server.sharded.roundtrips",
    "exp.server.sharded.roundtrip_us",
    "core.snapshot.index_read_ns",
    "core.snapshot.capture_us",
    "exp.server.fingerprint.us",
    "exp.server.cache.hit_ratio",
    "exp.server.cache.evictions",
    "core.sensitivity.directional_us",
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

/// One solved game as `summarize` hands it out of the batch.
type Solved = (Instant, SolveStats, Vec<f64>);

/// The `SEGMENT` games of ensemble `seed` that start at game `from`.
/// Game `i` has `2 + i % 11` providers and draws everything else from
/// the seed: a game's cost grows with its size, so a size mix drawn from
/// the seed would move every latency percentile from seed to seed.
fn segment(seed: u64, from: usize) -> Result<Vec<SubsidyGame>, String> {
    (from..from + SEGMENT)
        .map(|i| {
            let n = 2 + i % 11;
            farm_game(seed, i as u64, n, n).map_err(|e| e.to_string())
        })
        .collect()
}

fn solve(batch: &BatchSolver, games: &[SubsidyGame]) -> Vec<subcomp_num::NumResult<Solved>> {
    batch.run(games, Ok, |_, ws, stats| (Instant::now(), stats, ws.subsidies().to_vec()))
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let batch = BatchSolver::default();
    let block = batch.block;
    let setups = if opts.tiny { 1 } else { SETUPS };
    let mut report = Report::default();

    // Set-up: build the first segment and solve a warm-up ensemble the
    // timed phase never sees. The warm-up games are the same for every
    // seed, so set-up time does not vary with the mix of game sizes a seed
    // draws. Later segments are built between the timed `run` calls.
    let mut clock = RefClock::new();
    let mut setup_times = Vec::new();
    let mut games = Vec::new();
    for _ in 0..setups {
        games.clear();
        clock.restart();
        let t = Instant::now();
        let mut paused = 0.0;
        games = segment(opts.seed, 0)?;
        for from in (0..WARMUP).step_by(SEGMENT) {
            for result in solve(&batch, &segment(WARMUP_SEED, from)?) {
                result.map_err(|e| format!("warm-up solve failed: {e}"))?;
            }
            paused += clock.sample();
        }
        setup_times.push((t.elapsed().as_secs_f64() - paused) * clock.speed());
    }
    report.setup_s = stats::median(&mut setup_times);
    report.peak_rss_mb = stats::peak_rss_mb();

    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut rates = Vec::new();
    let mut next = 0usize;
    let mut traced: Vec<SubsidyGame> = Vec::new();
    let (mut cold, mut warm, mut sweeps, mut br_calls) = (0u64, 0u64, 0u64, 0u64);
    let mut traced_sweeps = Vec::new();
    for &(tracing, share) in opts.phases() {
        let first = next;
        let mut wall = 0.0;
        clock.restart();
        let mut samples: Vec<(f64, usize)> = Vec::new();
        while !opts.done(share, (next - first) as u64, wall) {
            if next > 0 {
                games = segment(opts.seed, next)?;
            }
            let t0 = Instant::now();
            let results = solve(&batch, &games);
            let t1 = Instant::now();
            wall += (t1 - t0).as_secs_f64();
            let parent =
                if tracing { tracer.push("batch.run", t0, t1, 0, next as u64, "") } else { 0 };
            // Checks and bookkeeping, outside the timed calls.
            let mut prev = t0;
            let mut chained = false;
            for (k, (game, result)) in games.iter().zip(results).enumerate() {
                let head = k % block == 0 || !chained;
                let Ok((done, st, s)) = result else {
                    report.fail(format!("farm game {} failed to solve", next + k));
                    chained = false;
                    continue;
                };
                chained = true;
                samples.push(((done - prev).as_secs_f64() * 1e6, usize::from(!head)));
                if tracing {
                    let tag = if head { "cold" } else { "warm" };
                    tracer.push("nash.solve", prev, done, parent, (next + k) as u64, tag);
                    if head {
                        cold += 1;
                    } else {
                        warm += 1;
                    }
                    sweeps += st.iterations as u64;
                    traced_sweeps.push(st.iterations);
                    br_calls += (st.iterations * game.n()) as u64;
                }
                prev = done;
                match verify_equilibrium(game, &s) {
                    Ok(cert) if st.converged && cert.is_equilibrium(CERT_TOL) => {}
                    Ok(cert) => report.fail(format!(
                        "farm game {}: converged {}, kkt {:e}, threshold {:e}",
                        next + k,
                        st.converged,
                        cert.max_kkt_residual,
                        cert.max_threshold_residual
                    )),
                    Err(e) => report.fail(format!("farm game {} certificate: {e}", next + k)),
                }
            }
            if tracing {
                traced.append(&mut games);
            }
            next += SEGMENT;
            clock.sample();
        }
        let ops = (next - first) as u64;
        report.attempted += ops;
        let speed = clock.speed();
        rates.push(crate::rate(ops, wall, speed)?);
        if !tracing {
            report.ops_per_s = rates[0];
            report.set_op_percentiles(opts, &samples, &["cold", "warm"], speed)?;
        }
    }

    if opts.trace {
        let solves = cold + warm;
        report.set("core.nash.solves.cold", cold as f64);
        report.set("core.nash.solves.warm", warm as f64);
        report.set("core.nash.solves.tangent", 0.0);
        report.set("core.nash.solves.partial", 0.0);
        report.set("core.nash.sweeps_per_solve", sweeps as f64 / solves.max(1) as f64);
        report.set("core.best_response.calls", br_calls as f64);
        report.set("exp.sweep.warm_share", warm as f64 / solves.max(1) as f64);
        let overhead = overhead_share(&mut report, &batch, &traced, &traced_sweeps)?;
        report.set("exp.sweep.overhead_share", overhead);
        let solve_us: Vec<f64> =
            tracer.spans.iter().filter(|s| s.name == "nash.solve").map(|s| s.us()).collect();
        let (p50, p99) = stats::p50_p99(solve_us);
        report.set("core.nash.solve_p50_us", p50);
        report.set("core.nash.solve_p99_us", p99);

        let mut sample = Vec::new();
        for game in traced.iter().step_by(traced.len().div_ceil(16)) {
            sample.push(probes::solved(game.clone())?);
        }
        let state = probes::state_us(&mut sample);
        let br = probes::best_response_us(&mut sample);
        report.set("model.system.state_us", state);
        report.set("core.best_response.us_per_call", br);
        report.unreached(UNREACHED);
        report.set("trace.overhead", rates[0] / rates[1] - 1.0);
        report.covered_s = tracer.total_s("batch.run");
        report.explain = vec![
            ExplainRow { layer: "core.best_response", count: br_calls as f64, unit_s: br * 1e-6 },
            ExplainRow {
                layer: "model.system final state",
                count: solves as f64,
                unit_s: state * 1e-6,
            },
        ];
        report.spans = Some(tracer);
    }
    Ok(report)
}

/// `exp::sweep` overhead: the first traced segment solved by the batch
/// and re-solved through `NashSolver::solve_into` along the same warm
/// chains, alternately, so both see the same host speed; 1 − replay /
/// batch of the median times. Sweep counts must match the traced ones.
fn overhead_share(
    report: &mut Report,
    batch: &BatchSolver,
    traced: &[SubsidyGame],
    traced_sweeps: &[usize],
) -> Result<f64, String> {
    let games = &traced[..SEGMENT];
    let mut ws = SolveWorkspace::new();
    let (mut batch_s, mut replay_s) = (Vec::new(), Vec::new());
    for _ in 0..REPLAYS {
        let t = Instant::now();
        let results = solve(batch, games);
        batch_s.push(t.elapsed().as_secs_f64());
        drop(results);
        let mut sweeps = Vec::with_capacity(games.len());
        let t = Instant::now();
        for (k, game) in games.iter().enumerate() {
            let start = if k % batch.block == 0 { WarmStart::Zero } else { WarmStart::Previous };
            let st = batch.solver.solve_into(game, start, &mut ws).map_err(|e| e.to_string())?;
            sweeps.push(st.iterations);
        }
        replay_s.push(t.elapsed().as_secs_f64());
        if traced_sweeps.get(..sweeps.len()) != Some(&sweeps[..]) {
            report.fail("the solve_into replay took other sweep counts than the batch".into());
        }
    }
    Ok(1.0 - stats::median(&mut replay_s) / stats::median(&mut batch_s))
}
