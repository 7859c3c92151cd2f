//! Figure 5: per-CP throughput `θ_i(p)` under one-sided pricing — the
//! 3×3 grid of `(α, β)` types from §3.2.
//!
//! Paper shape: every `θ_i` eventually decreases in `p`; CPs with a small
//! `α_i/β_i` ratio (price-insensitive users, congestion-sensitive
//! traffic) show an *initial rise* — condition (7)/(8) at work — while
//! large `α_i, β_i` types sit low and fall monotonically.

use crate::report::{sparkline, write_csv, Table};
use crate::scenarios::{section3_specs, section3_system, spec_label};
use crate::sweep::one_sided_sweep;
use std::path::Path;
use subcomp_num::NumResult;

/// The data behind Figure 5.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Price grid.
    pub prices: Vec<f64>,
    /// Per-CP throughput: `theta[i][k]` is CP `i` at price `prices[k]`.
    pub theta: Vec<Vec<f64>>,
    /// CP labels in spec order (`a1-b1`, `a1-b3`, …).
    pub labels: Vec<String>,
}

/// Computes the figure on a price grid — routed through the one-sided
/// price sweep (see [`crate::figures::fig4`]; values bit-identical to
/// per-point `System::state_at_uniform_price` solves, pinned by the
/// `figure-fig5` golden snapshot).
pub fn compute(prices: &[f64]) -> NumResult<Fig5> {
    let system = section3_system();
    let sweep = one_sided_sweep(&system, prices)?;
    let n = system.n();
    let mut theta = vec![Vec::with_capacity(prices.len()); n];
    for pt in &sweep {
        for i in 0..n {
            theta[i].push(pt.state.theta_i[i]);
        }
    }
    Ok(Fig5 {
        prices: prices.to_vec(),
        theta,
        labels: section3_specs().iter().map(spec_label).collect(),
    })
}

impl Fig5 {
    /// Renders the printed report (one row per CP panel).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Figure 5 — per-CP throughput vs price, 3x3 grid of (alpha, beta) types\n\n");
        for (i, label) in self.labels.iter().enumerate() {
            out.push_str(&format!("  {label:>10}: {}\n", sparkline(&self.theta[i])));
        }
        out.push('\n');
        let mut header: Vec<&str> = vec!["p"];
        for l in &self.labels {
            header.push(l.as_str());
        }
        let mut t = Table::new(&header);
        for (k, &p) in self.prices.iter().enumerate() {
            let mut row = vec![p];
            for i in 0..self.labels.len() {
                row.push(self.theta[i][k]);
            }
            t.row(&row);
        }
        out.push_str(&t.render());
        out
    }

    /// Writes the CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut cols: Vec<(&str, &[f64])> = vec![("p", &self.prices)];
        for (i, l) in self.labels.iter().enumerate() {
            cols.push((l.as_str(), &self.theta[i]));
        }
        write_csv(path, &cols)
    }

    /// The paper's qualitative claims for this figure.
    pub fn check_shape(&self) -> Result<(), String> {
        use super::shapes;
        let specs = section3_specs();
        for (i, th) in self.theta.iter().enumerate() {
            // Everybody falls eventually: the tail from the peak is
            // decreasing, and the last value is below the first.
            if !shapes::is_single_peaked(th, 1e-9) {
                return Err(format!("theta_{i} must be single-peaked/decreasing"));
            }
            // "Each theta_i decreases with p eventually" (paper, after
            // condition (8)): the tail after the peak falls. Note the
            // *level* can stay above theta_i(0) on a finite grid — for
            // alpha = 1 types the decongestion benefit dominates for a
            // long stretch — so we assert the direction, not the level.
            let peak = shapes::argmax(th);
            if peak + 2 < th.len() && th[th.len() - 1] >= th[peak] {
                return Err(format!("theta_{i} must decrease after its peak"));
            }
            let ratio = specs[i].alpha / specs[i].beta;
            if ratio <= 0.21 {
                // alpha/beta in {1/5}: the paper shows an initial rise.
                if !shapes::rises_initially(th, 0.0) {
                    return Err(format!("theta_{i} (alpha/beta = {ratio}) should rise at small p"));
                }
            }
            if ratio >= 3.0 {
                // alpha/beta in {3, 5}: monotone decreasing from the start.
                if !shapes::is_decreasing(th, 1e-9) {
                    return Err(format!(
                        "theta_{i} (alpha/beta = {ratio}) should be monotone decreasing"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::fig4::default_prices;

    #[test]
    fn shape_matches_paper() {
        let fig = compute(&default_prices(26)).unwrap();
        fig.check_shape().unwrap();
    }

    #[test]
    fn nine_panels() {
        let fig = compute(&default_prices(6)).unwrap();
        assert_eq!(fig.theta.len(), 9);
        assert_eq!(fig.labels.len(), 9);
        assert_eq!(fig.labels[0], "a1-b1-v1");
        assert!(fig.theta.iter().all(|t| t.len() == 6));
    }

    #[test]
    fn low_alpha_high_beta_rises() {
        // The (1, 5) type: most congestion-sensitive, least
        // price-sensitive: rises when price relieves congestion.
        let fig = compute(&default_prices(26)).unwrap();
        let i = fig.labels.iter().position(|l| l == "a1-b5-v1").unwrap();
        assert!(fig.theta[i][1] > fig.theta[i][0]);
    }

    #[test]
    fn render_and_csv() {
        let fig = compute(&default_prices(5)).unwrap();
        assert!(fig.render().contains("a5-b5"));
        let dir = std::env::temp_dir().join("subcomp_fig5_test");
        fig.write_csv(&dir.join("fig5.csv")).unwrap();
        let content = std::fs::read_to_string(dir.join("fig5.csv")).unwrap();
        assert!(content.lines().next().unwrap().split(',').count() == 10);
        std::fs::remove_dir_all(&dir).ok();
    }
}
