//! `solve_farm` — the batched Nash engine at ensemble scale.
//!
//! Solves a seeded ensemble of random subsidization games (10k by
//! default) through [`subcomp_exp::sweep::BatchSolver`]: one reusable
//! [`SolveWorkspace`] per worker, warm-started chains inside fixed-size
//! blocks, zero solver-loop heap allocation after warm-up (pinned by
//! `tests/alloc_free.rs`). Every equilibrium is certified through the
//! Theorem 3 verifier — its KKT and threshold residuals must both be at
//! most `1e-6` — so the report doubles as an accuracy sweep, and the run
//! exits non-zero on any failed or uncertified game. The effort lines
//! split each solve's iterations into Gauss–Seidel sweeps and Newton
//! steps (`SolveStats::newton_steps`), mean and maximum per game, count
//! the fixed-point probes its best responses made (`SolveStats::probes`)
//! and the best responses that fell back from the threshold search to the
//! grid scan (`SolveWorkspace::grid_fallbacks`).
//!
//! Usage:
//!   `cargo run --release -p subcomp-exp --bin solve_farm [-- OPTIONS]`
//!
//! Options (all with defaults):
//!   `--games N`     ensemble size (default 10000)
//!   `--threads T`   worker threads (default: available parallelism).
//!                   A comma list (`--threads 1,2,4,8`) switches to the
//!                   *scaling study*: the ensemble is solved once per
//!                   count, a thread-count → wall-clock table is printed,
//!                   and the run **asserts** that every deterministic
//!                   aggregate is bit-identical across counts (the
//!                   BatchSolver block-structure guarantee).
//!   `--seed S`      master seed (default 7)
//!   `--block B`     warm-start block size (default 32)
//!   `--n-min A` / `--n-max B`  provider-count range (default 2..12)
//!
//! Bad arguments (zero threads/block, an inverted provider range, a
//! malformed value) exit with a one-line usage error on stderr.
//!
//! ## The million-game regime
//!
//! `--games 1000000` is the supported ensemble ceiling. At about 21,700
//! games/s per thread (the median of ten 20,000-game runs on a 2-vCPU
//! Intel Xeon x86-64 host, whose speed drifts up to 2x between runs) it
//! takes under a minute single-threaded, scaling near-linearly with
//! `--threads`. Memory stays flat in the game count — the farm streams
//! blocks through per-worker workspaces and keeps one `Copy` stat per
//! game — so 1M games is a time budget, not a memory one. The
//! deterministic aggregate (and its bit-identity across thread counts)
//! holds unchanged at this scale.
//!
//! Everything above the `timing` line is deterministic for a given
//! `(games, seed, block, n-min, n-max)` — thread count does not
//! change a single digit — so the report can be diffed across machines
//! and revisions; only the throughput lines vary.
//!
//! [`SolveWorkspace`]: subcomp_core::workspace::SolveWorkspace

use std::time::{Duration, Instant};
use subcomp_core::equilibrium::verify_equilibrium;
use subcomp_core::game::SubsidyGame;
use subcomp_core::welfare::welfare;
use subcomp_exp::scenarios::farm_game;
use subcomp_exp::sweep::BatchSolver;

#[derive(Debug)]
struct Args {
    games: usize,
    threads: Vec<usize>,
    seed: u64,
    block: usize,
    n_min: usize,
    n_max: usize,
}

/// Parses and validates the flag list (everything after the binary name).
/// Every rejected input — malformed values, zero thread/block counts,
/// an inverted provider range — comes back as a one-line message for the
/// usage error path; nothing in here panics.
fn parse_args_from<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut args = Args {
        games: 10_000,
        threads: vec![std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)],
        seed: 7,
        block: 32,
        n_min: 2,
        n_max: 12,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut take = |what: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{what} requires a value"))
        };
        let positive = |what: &str, raw: String| -> Result<usize, String> {
            match raw.parse::<usize>() {
                Ok(0) => Err(format!("{what} must be at least 1 (got 0)")),
                Ok(v) => Ok(v),
                Err(_) => Err(format!("{what}: expected a positive integer, got {raw:?}")),
            }
        };
        match flag.as_str() {
            "--games" => {
                args.games = take("--games")?
                    .parse()
                    .map_err(|_| "--games: expected an integer".to_string())?;
            }
            "--threads" => {
                let raw = take("--threads")?;
                args.threads = raw
                    .split(',')
                    .map(|t| positive("--threads", t.trim().to_string()))
                    .collect::<Result<Vec<usize>, String>>()?;
                if args.threads.is_empty() {
                    return Err("--threads: need at least one count".to_string());
                }
            }
            "--seed" => {
                args.seed = take("--seed")?
                    .parse()
                    .map_err(|_| "--seed: expected an integer".to_string())?;
            }
            "--block" => args.block = positive("--block", take("--block")?)?,
            "--n-min" => args.n_min = positive("--n-min", take("--n-min")?)?,
            "--n-max" => args.n_max = positive("--n-max", take("--n-max")?)?,
            other => return Err(format!("unknown flag {other} (see the module docs)")),
        }
    }
    if args.n_min > args.n_max {
        return Err(format!(
            "provider range is inverted: --n-min {} > --n-max {}",
            args.n_min, args.n_max
        ));
    }
    Ok(args)
}

fn parse_args() -> Args {
    match parse_args_from(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("solve_farm: {msg}");
            std::process::exit(2);
        }
    }
}

/// Deterministic per-item game parameters — the shared ensemble
/// definition in [`subcomp_exp::scenarios::farm_game`].
fn build_game(
    seed: u64,
    index: u64,
    n_min: usize,
    n_max: usize,
) -> subcomp_num::NumResult<SubsidyGame> {
    farm_game(seed, index, n_min, n_max)
}

/// Certificate bound: a game counts as certified only when both of its
/// Theorem 3 residuals, KKT and threshold, are at most this.
const CERT_TOL: f64 = 1e-6;

/// The Theorem 3 certificate of a solved profile: its maximum KKT
/// residual (NaN when the certificate could not even be computed) and
/// whether both residuals pass [`CERT_TOL`].
fn certify(game: &SubsidyGame, s: &[f64]) -> (f64, bool) {
    match verify_equilibrium(game, s) {
        Ok(report) => (report.max_kkt_residual, report.is_equilibrium(CERT_TOL)),
        Err(_) => (f64::NAN, false),
    }
}

/// What the farm keeps per game — small and `Copy`, so the reduction is
/// allocation-free too.
#[derive(Clone, Copy)]
struct FarmStat {
    n: usize,
    iterations: usize,
    newton_steps: usize,
    probes: usize,
    grid_fallbacks: u64,
    residual: f64,
    max_kkt: f64,
    certified: bool,
    welfare: f64,
    theta: f64,
}

/// The deterministic aggregate of one farm run. Floats are compared by
/// bits: the scaling study's cross-thread-count assertion is *bit*
/// identity, not approximate agreement.
#[derive(Clone, Copy, PartialEq)]
struct FarmAggregate {
    solved: usize,
    failed: usize,
    providers: usize,
    iterations: Effort,
    sweeps: Effort,
    newton_steps: Effort,
    probes: Effort,
    grid_fallbacks: u64,
    residual_max_bits: u64,
    kkt_max_bits: u64,
    uncertified: usize,
    welfare_sum_bits: u64,
    theta_sum_bits: u64,
}

/// Total and per-game maximum of one effort count.
#[derive(Clone, Copy, PartialEq, Default)]
struct Effort {
    total: usize,
    max: usize,
}

impl Effort {
    fn add(&mut self, count: usize) {
        self.total += count;
        self.max = self.max.max(count);
    }

    fn line(&self, what: &str, games: usize) -> String {
        format!("{what}: mean {:.4}, max {}", self.total as f64 / games.max(1) as f64, self.max)
    }
}

impl FarmAggregate {
    fn welfare_sum(&self) -> f64 {
        f64::from_bits(self.welfare_sum_bits)
    }
    fn theta_sum(&self) -> f64 {
        f64::from_bits(self.theta_sum_bits)
    }
    fn residual_max(&self) -> f64 {
        f64::from_bits(self.residual_max_bits)
    }
    fn kkt_max(&self) -> f64 {
        f64::from_bits(self.kkt_max_bits)
    }
}

/// Runs the ensemble on `threads` workers and reduces it.
fn run_farm(args: &Args, threads: usize) -> (FarmAggregate, Duration) {
    let indices: Vec<u64> = (0..args.games as u64).collect();
    let batch = BatchSolver::default().with_threads(threads).with_block(args.block);
    let start = Instant::now();
    let results = batch.run(
        &indices,
        |&k| build_game(args.seed, k, args.n_min, args.n_max),
        |game, ws, stats| {
            let (max_kkt, certified) = certify(game, ws.subsidies());
            FarmStat {
                n: game.n(),
                iterations: stats.iterations,
                newton_steps: stats.newton_steps,
                probes: stats.probes,
                grid_fallbacks: ws.grid_fallbacks(),
                residual: stats.residual,
                max_kkt,
                certified,
                welfare: welfare(game, ws.state()),
                theta: ws.state().theta(),
            }
        },
    );
    let elapsed = start.elapsed();

    let mut agg = FarmAggregate {
        solved: 0,
        failed: 0,
        providers: 0,
        iterations: Effort::default(),
        sweeps: Effort::default(),
        newton_steps: Effort::default(),
        probes: Effort::default(),
        grid_fallbacks: 0,
        residual_max_bits: 0.0f64.to_bits(),
        kkt_max_bits: 0.0f64.to_bits(),
        uncertified: 0,
        welfare_sum_bits: 0,
        theta_sum_bits: 0,
    };
    let mut residual_max = 0.0f64;
    let mut kkt_max = 0.0f64;
    let mut welfare_sum = 0.0f64;
    let mut theta_sum = 0.0f64;
    for r in &results {
        match r {
            Ok(s) => {
                agg.solved += 1;
                agg.providers += s.n;
                agg.iterations.add(s.iterations);
                agg.sweeps.add(s.iterations - s.newton_steps);
                agg.newton_steps.add(s.newton_steps);
                agg.probes.add(s.probes);
                agg.grid_fallbacks += s.grid_fallbacks;
                residual_max = residual_max.max(s.residual);
                if s.max_kkt.is_finite() {
                    kkt_max = kkt_max.max(s.max_kkt);
                }
                if !s.certified {
                    agg.uncertified += 1;
                }
                welfare_sum += s.welfare;
                theta_sum += s.theta;
            }
            Err(_) => agg.failed += 1,
        }
    }
    agg.residual_max_bits = residual_max.to_bits();
    agg.kkt_max_bits = kkt_max.to_bits();
    agg.welfare_sum_bits = welfare_sum.to_bits();
    agg.theta_sum_bits = theta_sum.to_bits();
    (agg, elapsed)
}

fn print_aggregate(args: &Args, agg: &FarmAggregate) {
    println!(
        "config: games={} seed={} block={} n={}..{}",
        args.games, args.seed, args.block, args.n_min, args.n_max
    );
    println!("solved: {} ({} failed)", agg.solved, agg.failed);
    println!("providers total: {}", agg.providers);
    println!("{}", agg.iterations.line("iterations", agg.solved));
    println!("{}", agg.sweeps.line("  GS sweeps", agg.solved));
    println!("{}", agg.newton_steps.line("  Newton steps", agg.solved));
    println!("{}", agg.probes.line("best-response probes", agg.solved));
    println!("grid fallbacks: {}", agg.grid_fallbacks);
    println!("max final-update residual: {:.3e}", agg.residual_max());
    println!(
        "max KKT residual (Theorem 3 certificate): {:.3e} ({} uncertified at {CERT_TOL:e})",
        agg.kkt_max(),
        agg.uncertified
    );
    println!("welfare sum: {:.9}", agg.welfare_sum());
    println!("throughput sum: {:.9}", agg.theta_sum());
}

fn main() {
    let args = parse_args();

    if args.threads.len() == 1 {
        let threads = args.threads[0];
        println!("solve_farm: seeded random-game ensemble through the batched Nash engine");
        let (agg, elapsed) = run_farm(&args, threads);
        print_aggregate(&args, &agg);
        println!(
            "timing (non-deterministic): {:.2}s wall on {} thread(s), {:.1} games/s",
            elapsed.as_secs_f64(),
            threads,
            args.games as f64 / elapsed.as_secs_f64().max(1e-9)
        );
        if agg.failed > 0 || agg.uncertified > 0 {
            std::process::exit(1);
        }
        return;
    }

    // Scaling study: one run per thread count, identical work definition.
    println!("solve_farm scaling study: one ensemble per thread count");
    let runs: Vec<(usize, FarmAggregate, Duration)> = args
        .threads
        .iter()
        .map(|&t| {
            let (agg, elapsed) = run_farm(&args, t);
            (t, agg, elapsed)
        })
        .collect();
    let (_, reference, base) = &runs[0];
    print_aggregate(&args, reference);
    println!("\n  threads      wall [s]      games/s      speedup");
    for (t, agg, elapsed) in &runs {
        assert!(
            agg == reference,
            "thread count {t} changed a deterministic aggregate — the BatchSolver \
             block-structure guarantee is broken"
        );
        println!(
            "  {:>7}  {:>12.3}  {:>11.1}  {:>11.2}x",
            t,
            elapsed.as_secs_f64(),
            args.games as f64 / elapsed.as_secs_f64().max(1e-9),
            base.as_secs_f64() / elapsed.as_secs_f64().max(1e-9)
        );
    }
    println!(
        "\nall {} runs bit-identical across thread counts (timing lines above are \
         non-deterministic)",
        runs.len()
    );
    if reference.failed > 0 || reference.uncertified > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::{certify, parse_args_from, BatchSolver};
    use subcomp_exp::scenarios::farm_game;

    fn parse(flags: &[&str]) -> Result<super::Args, String> {
        parse_args_from(flags.iter().map(|s| s.to_string()))
    }

    #[test]
    fn bad_arguments_are_usage_errors_not_panics() {
        // Each must come back as Err, never panic, never be silently
        // accepted.
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "4,0,2"]).is_err());
        assert!(parse(&["--block", "0"]).is_err());
        assert!(parse(&["--n-min", "9", "--n-max", "3"]).is_err());
        // Malformed values and structural mistakes too.
        assert!(parse(&["--games", "many"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--wat", "1"]).is_err());
        // Every message is a single line (the usage-error contract).
        for bad in [
            parse(&["--block", "0"]).unwrap_err(),
            parse(&["--n-min", "9", "--n-max", "3"]).unwrap_err(),
        ] {
            assert!(!bad.contains('\n'), "multi-line usage error: {bad:?}");
        }
    }

    #[test]
    fn good_arguments_parse() {
        let args = parse(&["--games", "64", "--threads", "1,2", "--block", "4"]).unwrap();
        assert_eq!(args.games, 64);
        assert_eq!(args.threads, vec![1, 2]);
        assert_eq!(args.block, 4);
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.block, 32);
        assert_eq!((defaults.n_min, defaults.n_max), (2, 12));
    }

    #[test]
    fn certificate_gate_rejects_a_non_equilibrium_profile() {
        // A finite but large KKT residual must count as uncertified, not
        // only a failed or non-finite certificate.
        let game = farm_game(7, 3, 2, 12).unwrap();
        let solved = BatchSolver::default().solve_games(std::slice::from_ref(&game));
        let eq = solved[0].as_ref().unwrap();
        let (kkt, certified) = certify(&game, &eq.subsidies);
        assert!(certified, "the solved equilibrium certifies (kkt {kkt:e})");

        let off: Vec<f64> = (0..game.n()).map(|i| 0.5 * game.effective_cap(i)).collect();
        let (kkt, certified) = certify(&game, &off);
        assert!(kkt.is_finite() && kkt > 1e-6, "kkt {kkt:e}");
        assert!(!certified);
    }
}
