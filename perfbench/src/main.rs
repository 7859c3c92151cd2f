//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload serve|farm|adopt --seed N --seconds S --trace 0|1
//!           [--ops N] [--tiny] [--spans PATH]
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets up (repeated, the
//! median is reported), then measures ops for `--seconds` (or exactly
//! `--ops` ops), checks every output outside the timed spans and prints
//! one JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The traced run measures its first half
//! untraced and its second half traced (the difference is
//! `trace.overhead`), writes its spans as CSV, and prints an explain
//! table on stderr. `--tiny` shrinks every workload for the self-tests.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod adopt;
mod farm;
mod probes;
mod refclock;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Theorem 3 certificate tolerance on the KKT and threshold residuals.
pub const CERT_TOL: f64 = 1e-6;

/// Run options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// Exactly this many timed ops instead of a time budget.
    pub ops: Option<u64>,
    pub tiny: bool,
    pub trace: bool,
}

impl Opts {
    /// Whether a timed phase that has run `done` ops in `elapsed_s`
    /// seconds should stop; `share` is the phase's share of the run.
    pub fn done(&self, share: f64, done: u64, elapsed_s: f64) -> bool {
        match self.ops {
            Some(ops) => done >= (ops as f64 * share).round().max(1.0) as u64,
            None => elapsed_s >= self.seconds * share,
        }
    }

    /// The timed phases: one untraced phase, or an untraced and a traced
    /// half in the traced run.
    pub fn phases(&self) -> &'static [(bool, f64)] {
        if self.trace {
            &[(false, 0.5), (true, 0.5)]
        } else {
            &[(false, 1.0)]
        }
    }
}

/// Ops per reference second of a finished timed phase that ran `ops`
/// ops in `wall_s` seconds at host speed `speed` (see [`refclock`]); a
/// phase that ran no ops is an error, not a NaN.
pub fn rate(ops: u64, wall_s: f64, speed: f64) -> Result<f64, String> {
    if ops == 0 {
        return Err("a timed phase ran no ops".into());
    }
    Ok(ops as f64 / (wall_s * speed))
}

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("exp.server.sharded.lockfree_ratio", "ratio"),
    ("exp.server.sharded.roundtrips", "count"),
    ("exp.server.sharded.roundtrip_us", "us"),
    ("core.snapshot.index_read_ns", "ns"),
    ("core.snapshot.capture_us", "us"),
    ("exp.server.fingerprint.us", "us"),
    ("exp.server.cache.hit_ratio", "ratio"),
    ("exp.server.cache.evictions", "count"),
    ("core.nash.solves.cold", "count"),
    ("core.nash.solves.warm", "count"),
    ("core.nash.solves.tangent", "count"),
    ("core.nash.solves.partial", "count"),
    ("core.nash.sweeps_per_solve", "sweeps"),
    ("core.nash.solve_p50_us", "us"),
    ("core.nash.solve_p99_us", "us"),
    ("core.best_response.calls", "count"),
    ("core.best_response.us_per_call", "us"),
    ("model.system.state_us", "us"),
    ("core.sensitivity.directional_us", "us"),
    ("exp.sweep.warm_share", "ratio"),
    ("exp.sweep.overhead_share", "ratio"),
    ("sim.adoption.users_stepped", "count"),
    ("sim.adoption.ns_per_user", "ns"),
    ("sim.adoption.simulate_share", "ratio"),
    ("exp.adoption.sources.lockfree", "count"),
    ("exp.adoption.sources.cache", "count"),
    ("exp.adoption.sources.tangent", "count"),
    ("exp.adoption.sources.warm", "count"),
    ("exp.adoption.sources.cold", "count"),
    ("exp.adoption.sources.partial", "count"),
    ("exp.adoption.tangent_ratio", "ratio"),
    ("exp.adoption.writeback_tick_p50_us", "us"),
    ("trace.overhead", "ratio"),
    ("trace.explained_share", "ratio"),
];

/// One row of the explain table: a layer's exact work count times its
/// unit cost, set against the measured time of the ops it covers.
#[derive(Debug, Clone)]
pub struct ExplainRow {
    pub layer: &'static str,
    pub count: f64,
    pub unit_s: f64,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    /// Peak resident set once set-up is done, MB. The timed phase adds
    /// only the benchmark's own per-op samples, which grow with the op
    /// rate, so the peak is read before it.
    pub peak_rss_mb: f64,
    pub ops_per_s: f64,
    pub op_p50_us: f64,
    pub op_p95_us: f64,
    /// Per-layer metrics (traced run only); names from [`LAYER_METRICS`].
    pub layers: BTreeMap<&'static str, f64>,
    pub explain: Vec<ExplainRow>,
    /// Measured time of the traced ops the explain rows cover, seconds.
    pub covered_s: f64,
    pub spans: Option<trace::Tracer>,
    /// Lines for stderr: checksums, tallies, check failures.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "unknown metric {name}");
        self.layers.insert(name, value);
    }

    /// Sets to 0 the per-layer metrics of layers the workload never
    /// reaches: their counts are 0 and they have no unit cost to time.
    pub fn unreached(&mut self, names: &[&'static str]) {
        for &name in names {
            self.set(name, 0.0);
        }
    }

    /// Records a failed op together with the reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 50 {
            self.notes.push(format!("check failed: {why}"));
        }
    }

    /// Sets the op percentiles from `(latency µs, path)` samples measured
    /// at host speed `speed`, each behind the answer-path guard. The traced
    /// run does not report them and tiny self-test runs are too short for
    /// the guard, so there a failure is only noted.
    pub fn set_op_percentiles(
        &mut self,
        opts: &Opts,
        samples: &[(f64, usize)],
        names: &[&'static str],
        speed: f64,
    ) -> Result<(), String> {
        let paths: Vec<stats::Path> = names
            .iter()
            .enumerate()
            .map(|(i, &name)| {
                let mut own: Vec<f64> = samples.iter().filter(|s| s.1 == i).map(|s| s.0).collect();
                let median = if own.is_empty() { 0.0 } else { stats::median(&mut own) };
                stats::Path { name, count: own.len(), median }
            })
            .collect();
        self.notes.push(format!(
            "paths: {}",
            paths
                .iter()
                .map(|p| format!("{} {} (p50 {:.2} us)", p.name, p.count, p.median))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        for (metric, q) in [("op_p50_us", 0.5), ("op_p95_us", 0.95)] {
            if let Err(why) = stats::guard(metric, q, &paths) {
                if !opts.tiny && !opts.trace {
                    return Err(why);
                }
                self.notes.push(format!("guard (not enforced here): {why}"));
            }
        }
        let mut all: Vec<f64> = samples.iter().map(|s| s.0).collect();
        if all.is_empty() {
            return Err("no timed op succeeded".into());
        }
        stats::sort(&mut all);
        let [p50, p95] = [0.5, 0.95].map(|q| stats::percentile(&all, q));
        self.notes
            .push(format!("measured at host speed {speed:.4}: op p50 {p50} us, p95 {p95} us"));
        [self.op_p50_us, self.op_p95_us] = [p50, p95].map(|p| p * speed);
        Ok(())
    }

    fn explained_share(&self) -> f64 {
        let explained: f64 = self.explain.iter().map(|r| r.count * r.unit_s).sum();
        explained / self.covered_s
    }

    fn print_explain(&self, workload: &str) {
        eprintln!("explain ({workload}): layer, count x unit cost, explained");
        for row in &self.explain {
            eprintln!(
                "  {:<28} {:>14.0} x {:>11.3} us = {:>9.4} s",
                row.layer,
                row.count,
                row.unit_s * 1e6,
                row.count * row.unit_s
            );
        }
        let share = self.explained_share();
        eprintln!(
            "  measured op time {:.4} s; explained {:.1}%, unexplained {:.1}%",
            self.covered_s,
            100.0 * share,
            100.0 * (1.0 - share)
        );
    }
}

fn usage() -> String {
    "usage: perfbench --workload serve|farm|adopt --seed N --seconds S --trace 0|1 \
     [--ops N] [--tiny] [--spans PATH]"
        .to_string()
}

fn parse(args: &[String]) -> Result<(String, Opts, Option<PathBuf>), String> {
    let mut workload = None;
    let mut opts = Opts { seed: 1, seconds: 10.0, ops: None, tiny: false, trace: false };
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()));
        let bad = |v: &str| format!("bad value {v:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|_| bad(flag))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| bad(flag))?;
                if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
                    return Err(bad(flag));
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--ops" => opts.ops = Some(value()?.parse().map_err(|_| bad(flag))?),
            "--tiny" => opts.tiny = true,
            "--spans" => spans = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok((workload, opts, spans))
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) -> Result<(), String> {
    if !value.is_finite() {
        return Err(format!("metric {name} is not finite ({value})"));
    }
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    // `{:?}` prints an f64 with every digit needed to read it back.
    out.push_str(&format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts, spans_path) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let result = match workload.as_str() {
        "serve" => serve::run(&opts),
        "farm" => farm::run(&opts),
        "adopt" => adopt::run(&opts),
        other => Err(format!("unknown workload {other:?}\n{}", usage())),
    };
    let mut report = match result {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("perfbench {workload}: {msg}");
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        eprintln!("{note}");
    }
    eprintln!(
        "{workload}: setup {:.4} s, {:.1} ops/s, op p50 {:.3} us, p95 {:.3} us, {} ops, {} failed",
        report.setup_s,
        report.ops_per_s,
        report.op_p50_us,
        report.op_p95_us,
        report.attempted,
        report.failed
    );
    let mut metrics = String::from("{");
    let written = if opts.trace {
        report.print_explain(&workload);
        let share = report.explained_share();
        report.set("trace.explained_share", share);
        let path = spans_path.unwrap_or_else(|| {
            PathBuf::from(format!("perfbench/out/spans-{workload}-{}.csv", opts.seed))
        });
        if let Some(spans) = &report.spans {
            if let Err(e) = spans.write_csv(&path) {
                eprintln!("perfbench {workload}: cannot write spans to {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        LAYER_METRICS.iter().try_for_each(|(name, unit)| match report.layers.get(name) {
            Some(value) => json_metric(&mut metrics, name, *value, unit),
            None => Err(format!("per-layer metric {name} was not measured")),
        })
    } else {
        [
            ("setup_s", report.setup_s, "s"),
            ("ops_per_s", report.ops_per_s, "1/s"),
            ("op_p50_us", report.op_p50_us, "us"),
            ("op_p95_us", report.op_p95_us, "us"),
            ("peak_rss_mb", report.peak_rss_mb, "MB"),
        ]
        .iter()
        .try_for_each(|&(name, value, unit)| json_metric(&mut metrics, name, value, unit))
    };
    if let Err(msg) = written {
        eprintln!("perfbench {workload}: {msg}");
        return ExitCode::from(2);
    }
    metrics.push('}');
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.attempted, report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
