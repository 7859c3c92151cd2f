//! Golden snapshots for figure-series data.
//!
//! The scenario corpus pins *equilibria*; this module pins the *figure
//! pipelines*: the exact numeric series behind Figures 4 and 5, and the
//! §5 equilibrium panel behind Figures 7–11 (revenue, welfare and per-CP
//! subsidies on the figure tests' 3 × 9 grid), computed on fixed grids
//! and committed under `tests/golden/figure-*.json` alongside the
//! scenario snapshots. A figure refactor (like routing the
//! sweeps through the axis-generic continuation engine) that silently
//! shifts a plotted series now fails `tests/golden_scenarios.rs` with a
//! named field diff, exactly like a moved equilibrium — shape checks
//! alone would let a within-shape drift through.
//!
//! Snapshots are regenerated by the same `regen_golden` binary and
//! compared under the same tolerance policy
//! ([`crate::golden::snapshot_tolerances`]) as the corpus.

use crate::figures::{fig4, fig5, panel};
use crate::golden::Json;
use subcomp_num::NumResult;

/// Grid resolution the figure snapshots pin — the figure tests' historical
/// 26-point `p ∈ [0, 2.5]` grid (changing this intentionally moves the
/// goldens; regenerate and say why).
pub const SNAPSHOT_POINTS: usize = 26;

/// Policy caps of the pinned §5 panel — the figure tests' three rows.
const PANEL_CAPS: [f64; 3] = [0.0, 0.5, 2.0];

/// Prices of the pinned §5 panel — the figure tests' nine columns.
fn panel_prices() -> Vec<f64> {
    (0..9).map(|k| 0.1 + k as f64 * 0.2375).collect()
}

/// Names (and golden file stems) of every figure-series snapshot, in
/// deterministic order.
pub fn figure_snapshot_names() -> Vec<&'static str> {
    vec!["figure-fig4", "figure-fig5", "figure-panel"]
}

/// Computes every figure-series snapshot, in the same order as
/// [`figure_snapshot_names`].
pub fn figure_snapshots() -> NumResult<Vec<(&'static str, Json)>> {
    let prices = fig4::default_prices(SNAPSHOT_POINTS);

    let f4 = fig4::compute(&prices)?;
    let mut j4 = Json::obj();
    j4.set("name", Json::Str("figure-fig4".into()));
    j4.set("p", Json::nums(&f4.prices));
    j4.set("theta", Json::nums(&f4.theta));
    j4.set("revenue", Json::nums(&f4.revenue));
    j4.set("phi", Json::nums(&f4.phi));

    let f5 = fig5::compute(&prices)?;
    let mut series = Json::obj();
    for (label, theta) in f5.labels.iter().zip(&f5.theta) {
        series.set(label, Json::nums(theta));
    }
    let mut j5 = Json::obj();
    j5.set("name", Json::Str("figure-fig5".into()));
    j5.set("p", Json::nums(&f5.prices));
    j5.set("theta", series);

    // The §5 panel: the answers of every point, not the effort, so the
    // snapshot pins what Figures 7–11 plot whatever seeds the solves.
    let p = panel::compute_on(&PANEL_CAPS, &panel_prices(), 1)?;
    let mut rows = Vec::with_capacity(p.qs.len());
    for (qi, &q) in p.qs.iter().enumerate() {
        let mut subsidies = Json::obj();
        for (i, label) in p.labels.iter().enumerate() {
            subsidies.set(label, Json::nums(&p.cp_series(qi, i, |pt, i| pt.subsidies[i])));
        }
        let mut row = Json::obj();
        row.set("q", Json::Num(q));
        row.set("revenue", Json::nums(&p.series(qi, |pt| pt.revenue)));
        row.set("welfare", Json::nums(&p.series(qi, |pt| pt.welfare)));
        row.set("subsidies", subsidies);
        rows.push(row);
    }
    let mut jp = Json::obj();
    jp.set("name", Json::Str("figure-panel".into()));
    jp.set("p", Json::nums(&p.prices));
    jp.set("rows", Json::Arr(rows));

    Ok(vec![("figure-fig4", j4), ("figure-fig5", j5), ("figure-panel", jp)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_match_names_and_are_canonical() {
        let snaps = figure_snapshots().unwrap();
        let names = figure_snapshot_names();
        assert_eq!(snaps.len(), names.len());
        for ((name, json), expect) in snaps.iter().zip(&names) {
            assert_eq!(name, expect);
            assert_eq!(json.get("name").and_then(Json::as_str), Some(*expect));
            // Round-trips through the codec byte-for-byte (the canonical-
            // rendering requirement every golden file must meet).
            let text = json.render();
            assert_eq!(Json::parse(&text).unwrap().render(), text);
        }
    }

    #[test]
    fn snapshots_are_deterministic() {
        let a = figure_snapshots().unwrap();
        let b = figure_snapshots().unwrap();
        for ((_, x), (_, y)) in a.iter().zip(&b) {
            assert_eq!(x.render(), y.render());
        }
    }

    #[test]
    fn fig5_snapshot_has_one_series_per_type() {
        let snaps = figure_snapshots().unwrap();
        let (_, j5) = &snaps[1];
        let theta = j5.get("theta").unwrap();
        if let Json::Obj(fields) = theta {
            assert_eq!(fields.len(), 9, "one series per §3.2 type");
        } else {
            panic!("fig5 theta must be an object of labelled series");
        }
    }
}
