//! `serve_market` — the (sharded) equilibrium service under deterministic
//! load.
//!
//! Stands up a [`ShardedServer`] over one or more resident copies of the
//! paper's §5 market and drives it with the stream-split load generator:
//! mixed read/update traffic over a hot-key table with Zipf-like skew,
//! interleaved across markets, each market pinned to a shard (a fault
//! domain and report group) by stable hash. The report shows how the
//! request mix decomposed into answer sources (lock-free / cache hit /
//! warm / cold / partial), the per-shard counters, a failure
//! summary by typed error kind and by market, and a bit-level response
//! checksum — everything above the `timing` line is deterministic for a
//! given configuration, so the output diffs cleanly across machines *and
//! across shard counts* (per-market streams and replies do not depend on
//! `--shards`; only the `config:` and per-shard lines do).
//!
//! With `--chaos SEED` the same workload runs under the deterministic
//! fault harness instead: panics, shard kills, NaN-poisoned curves and
//! budget starvation are injected on a schedule derived purely from the
//! seed, every market is healed at the end, and the report pins the
//! fault-inclusive checksum plus the recovery counters. Replaying the
//! same seed — at any shard count — reproduces the report byte for byte.
//!
//! Usage:
//!   `cargo run --release -p subcomp-exp --bin serve_market [-- OPTIONS]`
//!
//! Options (all with defaults):
//!   `--requests N`      requests to serve per market (default 2000)
//!   `--markets M`       resident markets (default 1)
//!   `--shards S`        shards: fault domains and report groups (default 1)
//!   `--keys K`          hot operating points (default 8)
//!   `--skew Z`          Zipf-like skew over the keys (default 1.0)
//!   `--read-frac F`     probability a step is a plain read (default 0.8)
//!   `--sens-frac F`     probability a step is a sensitivity read (default 0.1)
//!                       (the fractions must sum to at most 1; the
//!                       remainder switches the operating point)
//!   `--pool P`          warm workspaces per market (default 2)
//!   `--cache C`         cache capacity per market, 0 = always-miss (default 64)
//!   `--seed S`          master seed (default 7)
//!   `--warmup W`        requests excluded from the latency window (default 100)
//!   `--chaos SEED`      run under the fault-injection harness
//!   `--max-fail-frac F` tolerated failed-request fraction (default 0)
//!
//! Latency percentiles come from `num::stats::quantile`, which reports an
//! explicit error on an empty window (e.g. `--warmup` ≥ total requests);
//! the report prints `n/a` for that window instead of dying.
//!
//! Bad arguments exit with a one-line usage error on stderr. The exit
//! code is 1 when the failed-request fraction exceeds `--max-fail-frac`,
//! or — under `--chaos` — when any market remains unrecovered after the
//! final heal sweep; 0 otherwise.
//!
//! [`ShardedServer`]: subcomp_exp::server::ShardedServer

use std::collections::BTreeMap;
use std::time::Instant;
use subcomp_core::game::SubsidyGame;
use subcomp_exp::adoption::SourceCounts;
use subcomp_exp::scenarios::section5_system;
use subcomp_exp::server::{
    error_kind, fold_reply, generate_multi, run_chaos, summarize_latencies, ChaosConfig,
    LoadGenConfig, Reply, ShardedConfig, ShardedServer,
};

#[derive(Debug)]
struct Args {
    requests: usize,
    markets: usize,
    shards: usize,
    keys: usize,
    skew: f64,
    read_frac: f64,
    sens_frac: f64,
    pool: usize,
    cache: usize,
    seed: u64,
    warmup: usize,
    chaos: Option<u64>,
    max_fail_frac: f64,
}

/// Parses and validates the flag list; every rejection is a one-line
/// message for the usage-error path, nothing panics.
fn parse_args_from<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut args = Args {
        requests: 2000,
        markets: 1,
        shards: 1,
        keys: 8,
        skew: 1.0,
        read_frac: 0.8,
        sens_frac: 0.1,
        pool: 2,
        cache: 64,
        seed: 7,
        warmup: 100,
        chaos: None,
        max_fail_frac: 0.0,
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
        let count = |what: &str, raw: String| -> Result<usize, String> {
            raw.parse::<usize>()
                .map_err(|_| format!("{what}: expected a non-negative integer, got {raw:?}"))
        };
        let fraction = |what: &str, raw: String| -> Result<f64, String> {
            match raw.parse::<f64>() {
                Ok(v) if (0.0..=1.0).contains(&v) => Ok(v),
                Ok(v) => Err(format!("{what} must lie in [0, 1] (got {v})")),
                Err(_) => Err(format!("{what}: expected a number, got {raw:?}")),
            }
        };
        match flag.as_str() {
            "--requests" => args.requests = positive("--requests", take("--requests")?)?,
            "--markets" => args.markets = positive("--markets", take("--markets")?)?,
            "--shards" => args.shards = positive("--shards", take("--shards")?)?,
            "--keys" => args.keys = positive("--keys", take("--keys")?)?,
            "--skew" => {
                let raw = take("--skew")?;
                args.skew =
                    raw.parse::<f64>().ok().filter(|z| z.is_finite() && *z >= 0.0).ok_or_else(
                        || format!("--skew: expected a finite number ≥ 0, got {raw:?}"),
                    )?;
            }
            "--read-frac" => args.read_frac = fraction("--read-frac", take("--read-frac")?)?,
            "--sens-frac" => args.sens_frac = fraction("--sens-frac", take("--sens-frac")?)?,
            "--pool" => args.pool = positive("--pool", take("--pool")?)?,
            "--cache" => args.cache = count("--cache", take("--cache")?)?,
            "--seed" => {
                args.seed = take("--seed")?
                    .parse()
                    .map_err(|_| "--seed: expected an integer".to_string())?;
            }
            "--warmup" => {
                args.warmup = take("--warmup")?
                    .parse()
                    .map_err(|_| "--warmup: expected an integer".to_string())?;
            }
            "--chaos" => {
                args.chaos = Some(
                    take("--chaos")?
                        .parse()
                        .map_err(|_| "--chaos: expected an integer seed".to_string())?,
                );
            }
            "--max-fail-frac" => {
                args.max_fail_frac = fraction("--max-fail-frac", take("--max-fail-frac")?)?;
            }
            other => return Err(format!("unknown flag {other} (see the module docs)")),
        }
    }
    // The two fractions are disjoint shares of one categorical draw; a
    // sum above 1 would silently skew the mix (the old behavior) — reject
    // it at the door instead.
    if args.read_frac + args.sens_frac > 1.0 {
        return Err(format!(
            "--read-frac + --sens-frac must not exceed 1 (got {} + {} = {})",
            args.read_frac,
            args.sens_frac,
            args.read_frac + args.sens_frac
        ));
    }
    Ok(args)
}

fn parse_args() -> Args {
    match parse_args_from(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("serve_market: {msg}");
            std::process::exit(2);
        }
    }
}

fn print_window(label: &str, samples: &[f64]) {
    match summarize_latencies(samples) {
        Ok(s) => println!(
            "latency ({label}, non-deterministic): p50 {:.1} ns, p99 {:.1} ns, mean {:.1} ns \
             over {} requests",
            s.p50, s.p99, s.mean, s.count
        ),
        Err(e) => println!("latency ({label}): n/a ({e})"),
    }
}

fn section5_markets(n: usize) -> Vec<(u64, SubsidyGame)> {
    (0..n as u64)
        .map(|id| (id, SubsidyGame::new(section5_system(), 0.6, 0.8).expect("§5 market is valid")))
        .collect()
}

/// The deterministic failure-summary section: totals by typed error
/// kind, then by market — or a single `failures: none` line.
fn print_failures(by_kind: &BTreeMap<&'static str, usize>, by_market: &BTreeMap<u64, usize>) {
    if by_kind.is_empty() {
        println!("failures: none");
        return;
    }
    let total: usize = by_kind.values().sum();
    let kinds: Vec<String> =
        by_kind.iter().map(|(kind, count)| format!("{count} {kind}")).collect();
    println!("failures: {total} total ({})", kinds.join(", "));
    let markets: Vec<String> =
        by_market.iter().map(|(market, count)| format!("market {market}: {count}")).collect();
    println!("failures by market: {}", markets.join(", "));
}

/// Exits by the failure-fraction gate shared by both modes.
fn exit_by_fail_frac(failed: usize, total: usize, max_fail_frac: f64) -> ! {
    let frac = failed as f64 / (total as f64).max(1.0);
    if frac > max_fail_frac {
        eprintln!(
            "serve_market: failure fraction {frac:.4} exceeds --max-fail-frac {max_fail_frac}"
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// The `--chaos` mode: run the deterministic fault harness over the same
/// workload and print the fault-inclusive replay report. Everything
/// printed here is deterministic — two runs with equal flags (any shard
/// count) are byte-identical.
fn run_chaos_mode(args: &Args, load: &LoadGenConfig, chaos_seed: u64) -> ! {
    let report = run_chaos(
        &section5_markets(args.markets),
        &ChaosConfig {
            shards: args.shards,
            pool: args.pool,
            cache: args.cache,
            load: *load,
            chaos_seed,
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("serve_market: chaos harness failed: {e}");
        std::process::exit(2);
    });
    println!(
        "chaos: seed {chaos_seed}, {} scheduled fault events over {} requests",
        report.injected, report.requests
    );
    println!("chaos served: {} ok, {} failed (typed)", report.ok, report.failed);
    println!(
        "chaos recovery: {} shard restarts, {} market rebuilds",
        report.shard_restarts, report.market_rebuilds
    );
    print_failures(
        &report.failures_by_kind.iter().copied().collect(),
        &report.failures_by_market.iter().copied().collect(),
    );
    println!("response checksum: {:016x}", report.checksum);
    println!("unrecovered markets: {}", report.unrecovered.len());
    if !report.unrecovered.is_empty() {
        eprintln!("serve_market: unrecovered markets after heal sweep: {:?}", report.unrecovered);
        std::process::exit(1);
    }
    exit_by_fail_frac(report.failed, report.requests, args.max_fail_frac);
}

fn main() {
    let args = parse_args();
    println!("serve_market: sharded equilibrium service under deterministic load");
    println!(
        "config: requests={}/market markets={} shards={} keys={} skew={} read-frac={} \
         sens-frac={} pool={} cache={} seed={} warmup={}",
        args.requests,
        args.markets,
        args.shards,
        args.keys,
        args.skew,
        args.read_frac,
        args.sens_frac,
        args.pool,
        args.cache,
        args.seed,
        args.warmup
    );

    let load = LoadGenConfig {
        requests: args.requests,
        seed: args.seed,
        read_fraction: args.read_frac,
        sensitivity_fraction: args.sens_frac,
        hot_keys: args.keys,
        skew: args.skew,
    };
    if let Some(chaos_seed) = args.chaos {
        run_chaos_mode(&args, &load, chaos_seed);
    }

    let mut server = ShardedServer::new(
        section5_markets(args.markets),
        &ShardedConfig { shards: args.shards, pool: args.pool, cache: args.cache },
    )
    .unwrap_or_else(|e| {
        eprintln!("serve_market: {e}");
        std::process::exit(2);
    });
    let stream = generate_multi(&load, args.markets).unwrap_or_else(|e| {
        eprintln!("serve_market: {e}");
        std::process::exit(2);
    });

    let mut sum = 0u64;
    let mut fail_kinds: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut fail_markets: BTreeMap<u64, usize> = BTreeMap::new();
    let mut sources = SourceCounts::default();
    let mut latencies = Vec::with_capacity(stream.len());
    let start = Instant::now();
    for (market, req) in &stream {
        let t0 = Instant::now();
        match server.serve(*market, *req) {
            Ok(reply) => {
                latencies.push(t0.elapsed().as_nanos() as f64);
                let source = match &reply {
                    Reply::Equilibrium { source, .. }
                    | Reply::Sensitivity { source, .. }
                    | Reply::Degenerate { source, .. } => Some(*source),
                    Reply::Updated { .. } => None,
                };
                if let Some(source) = source {
                    sources.note(source);
                }
                sum = fold_reply(sum, *market, &reply);
            }
            Err(e) => {
                latencies.push(t0.elapsed().as_nanos() as f64);
                *fail_kinds.entry(error_kind(&e)).or_insert(0) += 1;
                *fail_markets.entry(*market).or_insert(0) += 1;
            }
        }
    }
    let elapsed = start.elapsed();
    let failures: usize = fail_kinds.values().sum();

    let reports = server.shard_reports().unwrap_or_else(|e| {
        eprintln!("serve_market: {e}");
        std::process::exit(1);
    });
    let total =
        |f: fn(&subcomp_exp::server::ShardReport) -> u64| -> u64 { reports.iter().map(f).sum() };
    println!(
        "served: {} requests ({} updates, {} equilibria, {} sensitivities on shards, \
         {} lock-free, {} failed)",
        stream.len(),
        total(|r| r.stats.updates),
        total(|r| r.stats.equilibria),
        total(|r| r.stats.sensitivities),
        server.lockfree_hits(),
        failures
    );
    println!(
        "answer sources: {} lock-free, {} cache-hit, {} warm, {} cold, {} partial",
        sources.lockfree, sources.cache, sources.warm, sources.cold, sources.partial
    );
    println!(
        "cache (all shards): {} hits, {} misses, {} insertions, {} evictions, {}/{} resident",
        total(|r| r.cache.hits),
        total(|r| r.cache.misses),
        total(|r| r.cache.insertions),
        total(|r| r.cache.evictions),
        reports.iter().map(|r| r.cache.len).sum::<usize>(),
        reports.iter().map(|r| r.cache.capacity).sum::<usize>(),
    );
    for r in &reports {
        println!(
            "shard {}: markets={}, quarantined={}, {} updates, {} equilibria, {} sensitivities, \
             {} cache-hit, {} warm, {} cold, {} partial",
            r.shard,
            r.markets,
            r.quarantined,
            r.stats.updates,
            r.stats.equilibria,
            r.stats.sensitivities,
            r.stats.cache_hits,
            r.stats.warm_solves,
            r.stats.cold_solves,
            r.stats.partial_solves
        );
    }
    print_failures(&fail_kinds, &fail_markets);
    println!("response checksum: {sum:016x}");
    let measured = &latencies[args.warmup.min(latencies.len())..];
    print_window("steady state", measured);
    println!(
        "timing (non-deterministic): {:.3}s wall, {:.0} requests/s",
        elapsed.as_secs_f64(),
        stream.len() as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    exit_by_fail_frac(failures, stream.len(), args.max_fail_frac);
}

#[cfg(test)]
mod tests {
    use super::parse_args_from;

    fn parse(flags: &[&str]) -> Result<super::Args, String> {
        parse_args_from(flags.iter().map(|s| s.to_string()))
    }

    #[test]
    fn bad_arguments_are_usage_errors_not_panics() {
        assert!(parse(&["--requests", "0"]).is_err());
        assert!(parse(&["--keys", "0"]).is_err());
        assert!(parse(&["--markets", "0"]).is_err());
        assert!(parse(&["--shards", "0"]).is_err());
        assert!(parse(&["--read-frac", "1.5"]).is_err());
        assert!(parse(&["--sens-frac", "-0.1"]).is_err());
        assert!(parse(&["--skew", "-1"]).is_err());
        assert!(parse(&["--skew", "inf"]).is_err());
        assert!(parse(&["--pool"]).is_err());
        assert!(parse(&["--cache", "-1"]).is_err());
        assert!(parse(&["--chaos", "x"]).is_err());
        assert!(parse(&["--max-fail-frac", "1.5"]).is_err());
        assert!(parse(&["--max-fail-frac", "-0.1"]).is_err());
        assert!(parse(&["--wat", "1"]).is_err());
        for bad in [parse(&["--keys", "0"]).unwrap_err(), parse(&["--skew", "-1"]).unwrap_err()] {
            assert!(!bad.contains('\n'), "multi-line usage error: {bad:?}");
        }
    }

    #[test]
    fn fraction_sum_above_one_is_a_usage_error() {
        // The regression: 0.8 + 0.3 used to be silently accepted and
        // skewed the op mix; it must be a one-line usage error now.
        let bad = parse(&["--read-frac", "0.8", "--sens-frac", "0.3"]).unwrap_err();
        assert!(bad.contains("must not exceed 1"), "unexpected message: {bad}");
        assert!(!bad.contains('\n'), "multi-line usage error: {bad:?}");
        // Each flag alone stays within its own [0, 1] check (the sens
        // value must still clear the 0.8 default read fraction).
        assert!(parse(&["--read-frac", "0.8"]).is_ok());
        assert!(parse(&["--sens-frac", "0.2"]).is_ok());
        // The default read fraction participates in the sum check too.
        assert!(parse(&["--sens-frac", "0.3"]).unwrap_err().contains("must not exceed 1"));
        // Summing exactly to 1 is valid (a switch-free workload).
        let ok = parse(&["--read-frac", "0.75", "--sens-frac", "0.25"]).unwrap();
        assert_eq!(ok.read_frac + ok.sens_frac, 1.0);
    }

    #[test]
    fn good_arguments_parse() {
        let args = parse(&[
            "--requests",
            "500",
            "--keys",
            "4",
            "--skew",
            "1.5",
            "--pool",
            "3",
            "--cache",
            "16",
            "--shards",
            "4",
            "--markets",
            "8",
        ])
        .unwrap();
        assert_eq!(args.requests, 500);
        assert_eq!(args.keys, 4);
        assert_eq!(args.skew, 1.5);
        assert_eq!(args.pool, 3);
        assert_eq!(args.cache, 16);
        assert_eq!(args.shards, 4);
        assert_eq!(args.markets, 8);
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.warmup, 100);
        assert_eq!(defaults.cache, 64);
        assert_eq!(defaults.markets, 1);
        assert_eq!(defaults.shards, 1);
        assert_eq!(defaults.chaos, None);
        assert_eq!(defaults.max_fail_frac, 0.0);
        // Capacity 0 is the documented always-miss configuration.
        assert_eq!(parse(&["--cache", "0"]).unwrap().cache, 0);
    }

    #[test]
    fn chaos_and_fail_frac_flags_parse() {
        let args = parse(&["--chaos", "42", "--max-fail-frac", "0.25"]).unwrap();
        assert_eq!(args.chaos, Some(42));
        assert_eq!(args.max_fail_frac, 0.25);
    }
}
