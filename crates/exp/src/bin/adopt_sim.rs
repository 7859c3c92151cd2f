//! `adopt_sim` — the closed adoption loop, end to end.
//!
//! Stands up an [`AdoptionLoop`] over the paper's §5 market — one
//! resident market per cohort in a [`ShardedServer`], one event-driven
//! bitset user population per cohort — and drives the closed tick:
//! lock-free externality read → simulate one adoption tick over the
//! owned blocks → in-place `Axis::Mu` (and, on the demand cadence,
//! demand/`Axis::Profitability`) writes → warm re-solve.
//!
//! Everything on **stdout** is deterministic: the trajectory is a pure
//! function of the printed configuration, bit-identical across reruns,
//! thread counts, chunk sizes and shard counts (the engine keys its
//! draws by type, class, rank and canonical 4,096-user range, never by
//! block or thread). Thread, shard and chunk choice and wall-clock
//! timing go to **stderr**, so `adopt_sim ... > a.txt` diffs
//! byte-for-byte against a rerun — or a rerun at `--threads 4` or
//! `--chunk 4096` — with plain `cmp` (the CI smoke does exactly that).
//!
//! With `--cold` the loop cools every market before each tick
//! (dropping warm seeds, tangent seed, fingerprint cache and the
//! published snapshot), forcing every re-solve cold — the benchmark
//! control for the warm-vs-cold headline. The trajectory checksum is
//! unchanged by `--cold`; only the source tallies and the timing move.
//!
//! Usage:
//!   `cargo run --release -p subcomp-exp --bin adopt_sim [-- OPTIONS]`
//!
//! Options (all with defaults):
//!   `--ticks T`         closed-loop ticks to run (default 10)
//!   `--users N`         users per cohort (default 100000)
//!   `--cohorts C`       adoption cohorts = resident markets (default 1)
//!   `--chunk K`         parallel grain: users per block, rounded up to
//!                       whole 4,096-user ranges (default 16384)
//!   `--threads W`       block fan-out threads, 1 = serial (default 1)
//!   `--shards S`        shards of the server: fault domains and report
//!                       groups (default 1)
//!   `--seed S`          master seed (default 7)
//!   `--gamma G`         externality strength in `gain = 1 + γ·θ` (default 0.5)
//!   `--eta E`           load sensitivity in `µ = µ_base/(1+η·load)` (default 0.3)
//!   `--demand-every D`  demand write-back cadence in ticks, 0 = off (default 0)
//!   `--cold`            cool every market before each tick
//!
//! Bad arguments exit with a one-line usage error on stderr (code 2).
//!
//! [`AdoptionLoop`]: subcomp_exp::adoption::AdoptionLoop
//! [`ShardedServer`]: subcomp_exp::server::ShardedServer

use std::time::Instant;
use subcomp_exp::adoption::{AdoptionLoop, LoopConfig};
use subcomp_exp::scenarios::section5_specs;

#[derive(Debug)]
struct Args {
    ticks: u64,
    users: usize,
    cohorts: usize,
    chunk: usize,
    threads: usize,
    shards: usize,
    seed: u64,
    gamma: f64,
    eta: f64,
    demand_every: u64,
    cold: bool,
}

/// Parses and validates the flag list; every rejection is a one-line
/// message for the usage-error path, nothing panics.
fn parse_args_from<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut args = Args {
        ticks: 10,
        users: 100_000,
        cohorts: 1,
        chunk: 16_384,
        threads: 1,
        shards: 1,
        seed: 7,
        gamma: 0.5,
        eta: 0.3,
        demand_every: 0,
        cold: false,
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
        let nonneg = |what: &str, raw: String| -> Result<f64, String> {
            match raw.parse::<f64>() {
                Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
                Ok(v) => Err(format!("{what} must be finite and ≥ 0 (got {v})")),
                Err(_) => Err(format!("{what}: expected a number, got {raw:?}")),
            }
        };
        match flag.as_str() {
            "--ticks" => args.ticks = positive("--ticks", take("--ticks")?)? as u64,
            "--users" => args.users = positive("--users", take("--users")?)?,
            "--cohorts" => args.cohorts = positive("--cohorts", take("--cohorts")?)?,
            "--chunk" => args.chunk = positive("--chunk", take("--chunk")?)?,
            "--threads" => args.threads = positive("--threads", take("--threads")?)?,
            "--shards" => args.shards = positive("--shards", take("--shards")?)?,
            "--seed" => {
                args.seed = take("--seed")?
                    .parse()
                    .map_err(|_| "--seed: expected an integer".to_string())?;
            }
            "--gamma" => args.gamma = nonneg("--gamma", take("--gamma")?)?,
            "--eta" => args.eta = nonneg("--eta", take("--eta")?)?,
            "--demand-every" => {
                args.demand_every = take("--demand-every")?
                    .parse()
                    .map_err(|_| "--demand-every: expected a non-negative integer".to_string())?;
            }
            "--cold" => args.cold = true,
            other => return Err(format!("unknown flag {other} (see the module docs)")),
        }
    }
    Ok(args)
}

fn parse_args() -> Args {
    match parse_args_from(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("adopt_sim: {msg}");
            std::process::exit(2);
        }
    }
}

/// FNV-1a over one 64-bit word — the same fold [`AdoptionLoop::run`]
/// uses, replicated here so the `--cold` tick-by-tick drive reports the
/// identical trajectory checksum.
fn fnv_fold(h: u64, word: u64) -> u64 {
    let mut h = h;
    for byte in word.to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn main() {
    let args = parse_args();
    println!("adopt_sim: closed adoption loop over the sharded equilibrium service");
    // The stdout config line names only trajectory-determining knobs:
    // threads, shards and chunk are performance choices and live on
    // stderr so the report diffs cleanly across them.
    println!(
        "config: ticks={} users={}/cohort cohorts={} seed={} gamma={} eta={} \
         demand-every={} mode={}",
        args.ticks,
        args.users,
        args.cohorts,
        args.seed,
        args.gamma,
        args.eta,
        args.demand_every,
        if args.cold { "cold" } else { "warm" }
    );
    eprintln!("adopt_sim: threads={} shards={} chunk={}", args.threads, args.shards, args.chunk);

    let cfg = LoopConfig {
        seed: args.seed,
        cohorts: args.cohorts,
        users: args.users,
        chunk: args.chunk,
        threads: args.threads,
        gamma: args.gamma,
        eta: args.eta,
        demand_every: args.demand_every,
        shards: args.shards,
        ..Default::default()
    };
    let specs = section5_specs();
    let mut lp = AdoptionLoop::new(&specs, 3.0, 0.6, 0.8, &cfg).unwrap_or_else(|e| {
        eprintln!("adopt_sim: {e}");
        std::process::exit(2);
    });

    let mut checksum = 0xCBF2_9CE4_8422_2325u64;
    let mut last = None;
    let start = Instant::now();
    for _ in 0..args.ticks {
        if args.cold {
            lp.cool().unwrap_or_else(|e| {
                eprintln!("adopt_sim: cool failed: {e}");
                std::process::exit(1);
            });
        }
        let summary = lp.tick().unwrap_or_else(|e| {
            eprintln!("adopt_sim: tick failed: {e}");
            std::process::exit(1);
        });
        checksum = fnv_fold(checksum, summary.tick);
        checksum = fnv_fold(checksum, summary.adopted);
        checksum = fnv_fold(checksum, summary.mass.to_bits());
        last = Some(summary);
    }
    let elapsed = start.elapsed();

    let last = last.expect("--ticks is validated positive");
    let total_users = (args.users * args.cohorts) as u64;
    println!(
        "final: {} of {} users adopted ({:.4} fraction), mass {:.6}",
        last.adopted,
        total_users,
        last.adopted as f64 / total_users as f64,
        last.mass
    );
    let masses: Vec<String> = lp.cohort_masses(0).iter().map(|m| format!("{m:.6}")).collect();
    println!("cohort 0 masses: [{}]", masses.join(", "));
    let s = lp.sources();
    println!(
        "answer sources: {} lock-free, {} cache-hit, {} tangent, {} warm, {} cold, {} partial",
        s.lockfree, s.cache, s.tangent, s.warm, s.cold, s.partial
    );
    println!("trajectory checksum: {checksum:016x}");
    let stepped = args.ticks * total_users;
    eprintln!(
        "timing (non-deterministic): {:.3}s wall, {:.0} users-stepped/s over {} ticks",
        elapsed.as_secs_f64(),
        stepped as f64 / elapsed.as_secs_f64().max(1e-9),
        args.ticks
    );
}

#[cfg(test)]
mod tests {
    use super::parse_args_from;

    fn parse(flags: &[&str]) -> Result<super::Args, String> {
        parse_args_from(flags.iter().map(|s| s.to_string()))
    }

    #[test]
    fn bad_arguments_are_usage_errors_not_panics() {
        assert!(parse(&["--ticks", "0"]).is_err());
        assert!(parse(&["--users", "0"]).is_err());
        assert!(parse(&["--cohorts", "0"]).is_err());
        assert!(parse(&["--chunk", "0"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--shards", "0"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--gamma", "-1"]).is_err());
        assert!(parse(&["--eta", "nan"]).is_err());
        assert!(parse(&["--demand-every", "-1"]).is_err());
        assert!(parse(&["--users"]).is_err());
        assert!(parse(&["--wat", "1"]).is_err());
        for bad in [parse(&["--ticks", "0"]).unwrap_err(), parse(&["--eta", "nan"]).unwrap_err()] {
            assert!(!bad.contains('\n'), "multi-line usage error: {bad:?}");
        }
    }

    #[test]
    fn good_arguments_parse() {
        let args = parse(&[
            "--ticks",
            "5",
            "--users",
            "5000",
            "--cohorts",
            "2",
            "--chunk",
            "512",
            "--threads",
            "4",
            "--shards",
            "2",
            "--seed",
            "11",
            "--gamma",
            "0.7",
            "--eta",
            "0.1",
            "--demand-every",
            "3",
            "--cold",
        ])
        .unwrap();
        assert_eq!(args.ticks, 5);
        assert_eq!(args.users, 5000);
        assert_eq!(args.cohorts, 2);
        assert_eq!(args.chunk, 512);
        assert_eq!(args.threads, 4);
        assert_eq!(args.shards, 2);
        assert_eq!(args.seed, 11);
        assert_eq!(args.gamma, 0.7);
        assert_eq!(args.eta, 0.1);
        assert_eq!(args.demand_every, 3);
        assert!(args.cold);
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.ticks, 10);
        assert_eq!(defaults.users, 100_000);
        assert_eq!(defaults.chunk, 16_384);
        assert!(!defaults.cold);
        // Cadence 0 is the documented write-back-off configuration.
        assert_eq!(parse(&["--demand-every", "0"]).unwrap().demand_every, 0);
    }
}
