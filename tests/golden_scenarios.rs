//! Golden-snapshot regression tier: re-runs the full scenario corpus and
//! diffs every field of every result against the committed snapshots in
//! `tests/golden/`, under the per-field tolerance policy of
//! `subcomp_exp::golden::snapshot_tolerances`.
//!
//! A failure here means a code change moved a pinned equilibrium (or a
//! solver-health indicator) beyond tolerance. If the change is intentional,
//! regenerate with `cargo run --release -p subcomp-exp --bin regen_golden`
//! and justify the shift in the commit message; see `tests/README.md`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use subcomp_exp::corpus::{corpus, run_scenario, ScenarioSpec};
use subcomp_exp::figures::snapshots::{figure_snapshot_names, figure_snapshots};
use subcomp_exp::golden::{diff_snapshots, render_diff, snapshot_tolerances, Json};
use subcomp_exp::sweep::parallel_map;

/// Largest scenario the *debug* diff run re-solves. The large-n ensembles
/// (n = 64, 256) take minutes without optimization, so under
/// `debug_assertions` they are diffed only for presence/canonical form;
/// release runs — CI's `--release` golden step and `regen_golden` — always
/// re-solve the full corpus.
const DEBUG_SIZE_CEILING: usize = 32;

fn diffable_specs() -> Vec<ScenarioSpec> {
    let all = corpus();
    if cfg!(debug_assertions) {
        let (run, skipped): (Vec<_>, Vec<_>) =
            all.into_iter().partition(|s| s.specs.len() <= DEBUG_SIZE_CEILING);
        for s in &skipped {
            println!(
                "skipping `{}` (n = {}) in this debug build — covered by the release golden run",
                s.name,
                s.specs.len()
            );
        }
        run
    } else {
        all
    }
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Every golden file stem this repository pins: the scenario corpus plus
/// the figure-series snapshots.
fn golden_stems() -> Vec<String> {
    let mut stems: Vec<String> = corpus().iter().map(|s| s.name.to_string()).collect();
    stems.extend(figure_snapshot_names().iter().map(|n| n.to_string()));
    stems
}

#[test]
fn golden_files_cover_exactly_the_corpus_and_figures() {
    let expected: BTreeSet<String> = golden_stems().iter().map(|s| format!("{s}.json")).collect();
    let on_disk: BTreeSet<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden/ must exist — run the regen_golden binary")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|f| f.ends_with(".json"))
        .collect();
    let missing: Vec<&String> = expected.difference(&on_disk).collect();
    let stale: Vec<&String> = on_disk.difference(&expected).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "golden set out of sync with the corpus + figure snapshots \
         (missing: {missing:?}, stale: {stale:?}) — \
         run `cargo run --release -p subcomp-exp --bin regen_golden`"
    );
}

#[test]
fn figure_series_match_committed_goldens() {
    // The figure pipelines (now routed through the axis-generic
    // continuation module) are pinned series-by-series exactly like the
    // scenario equilibria: a within-shape drift fails with a field diff.
    let dir = golden_dir();
    let mut report = String::new();
    let mut failed = 0usize;
    for (name, actual) in figure_snapshots().expect("figure snapshots compute") {
        let path = dir.join(format!("{name}.json"));
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                report.push_str(&format!(
                    "figure `{name}`: golden {} unreadable ({e}) — run regen_golden\n",
                    path.display()
                ));
                failed += 1;
                continue;
            }
        };
        let golden = match Json::parse(&text) {
            Ok(j) => j,
            Err(e) => {
                report.push_str(&format!("figure `{name}`: golden is corrupt: {e}\n"));
                failed += 1;
                continue;
            }
        };
        let diffs = diff_snapshots(&golden, &actual, &snapshot_tolerances);
        if !diffs.is_empty() {
            report.push_str(&render_diff(name, &diffs));
            report.push('\n');
            failed += 1;
        }
    }
    assert!(
        failed == 0,
        "{failed} figure snapshot(s) diverged:\n\n{report}\n\
         If the shift is intentional, regenerate with \
         `cargo run --release -p subcomp-exp --bin regen_golden` and explain why \
         in the commit message."
    );
}

#[test]
fn corpus_matches_committed_goldens() {
    let dir = golden_dir();
    let mut report = String::new();
    let mut failed = 0usize;

    let specs = diffable_specs();
    let mut refs: Vec<&ScenarioSpec> = specs.iter().collect();
    let results = parallel_map(&mut refs, threads(), || (), |_, spec| run_scenario(spec));
    let named = specs.iter().map(|s| s.name.to_string()).zip(results);
    for (name, result) in named {
        let path = dir.join(format!("{name}.json"));
        let actual = match result {
            Ok(res) => res.to_json(),
            Err(e) => {
                report.push_str(&format!("scenario `{name}`: run FAILED: {e}\n"));
                failed += 1;
                continue;
            }
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                report.push_str(&format!(
                    "scenario `{name}`: golden {} unreadable ({e}) — run regen_golden\n",
                    path.display()
                ));
                failed += 1;
                continue;
            }
        };
        let golden = match Json::parse(&text) {
            Ok(j) => j,
            Err(e) => {
                report.push_str(&format!("scenario `{name}`: golden is corrupt: {e}\n"));
                failed += 1;
                continue;
            }
        };
        let diffs = diff_snapshots(&golden, &actual, &snapshot_tolerances);
        if !diffs.is_empty() {
            report.push_str(&render_diff(&name, &diffs));
            report.push('\n');
            failed += 1;
        }
    }

    assert!(
        failed == 0,
        "{failed} scenario(s) diverged from their golden snapshots:\n\n{report}\n\
         If the shift is intentional, regenerate with \
         `cargo run --release -p subcomp-exp --bin regen_golden` and explain why \
         in the commit message."
    );
}

#[test]
fn goldens_are_canonical_renderings() {
    // Byte-level determinism guard: every committed file must be exactly
    // what the codec renders for its own parse. This keeps regen runs
    // diff-clean and catches hand-edited snapshots.
    for stem in golden_stems() {
        let path = golden_dir().join(format!("{stem}.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} — run regen_golden", path.display()));
        let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert_eq!(
            text,
            parsed.render(),
            "golden for `{stem}` is not in canonical codec form — run regen_golden"
        );
    }
}
