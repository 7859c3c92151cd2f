//! Figure 4: aggregate throughput `θ(p)` and ISP revenue `R(p)` under
//! one-sided pricing (§3.2 setting: 9 CP types, `(α, β) ∈ {1,3,5}²`,
//! `µ = 1`).
//!
//! Paper shape: θ strictly decreasing in `p` (Theorem 2); `R = pθ`
//! single-peaked with an interior maximum.

use crate::report::{sparkline, write_csv, Table};
use crate::scenarios::section3_system;
use crate::sweep::one_sided_sweep;
use std::path::Path;
use subcomp_num::NumResult;

/// The data behind Figure 4.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Price grid.
    pub prices: Vec<f64>,
    /// Aggregate throughput per price.
    pub theta: Vec<f64>,
    /// ISP revenue per price.
    pub revenue: Vec<f64>,
    /// Utilization per price (not plotted in the paper; kept for E3).
    pub phi: Vec<f64>,
}

/// Default price grid for Figures 4–5: `p ∈ [0, 2.5]` inclusive.
pub fn default_prices(points: usize) -> Vec<f64> {
    let n = points.max(2);
    (0..n).map(|k| 2.5 * k as f64 / (n - 1) as f64).collect()
}

/// Computes the figure on a price grid — routed through the one-sided
/// price sweep ([`crate::sweep::one_sided_sweep`]): one reused
/// scratch/state buffer across the whole grid, values bit-identical to
/// per-point `System::state_at_uniform_price` solves and pinned by the
/// `figure-fig4` golden snapshot.
pub fn compute(prices: &[f64]) -> NumResult<Fig4> {
    let system = section3_system();
    let sweep = one_sided_sweep(&system, prices)?;
    Ok(Fig4 {
        prices: prices.to_vec(),
        theta: sweep.iter().map(|pt| pt.state.theta()).collect(),
        revenue: sweep.iter().map(|pt| pt.revenue).collect(),
        phi: sweep.iter().map(|pt| pt.state.phi).collect(),
    })
}

impl Fig4 {
    /// Renders the printed report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Figure 4 — aggregate throughput and ISP revenue vs price (Sec. 3.2 setting)\n",
        );
        out.push_str(&format!("  theta(p):   {}\n", sparkline(&self.theta)));
        out.push_str(&format!("  revenue(p): {}\n\n", sparkline(&self.revenue)));
        let mut t = Table::new(&["p", "theta", "revenue", "phi"]);
        for i in 0..self.prices.len() {
            t.row(&[self.prices[i], self.theta[i], self.revenue[i], self.phi[i]]);
        }
        out.push_str(&t.render());
        out
    }

    /// Writes the CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        write_csv(
            path,
            &[
                ("p", &self.prices),
                ("theta", &self.theta),
                ("revenue", &self.revenue),
                ("phi", &self.phi),
            ],
        )
    }

    /// The paper's qualitative claims for this figure.
    pub fn check_shape(&self) -> Result<(), String> {
        use super::shapes;
        if !shapes::is_decreasing(&self.theta, 1e-9) {
            return Err("theta(p) must be strictly decreasing (Theorem 2)".into());
        }
        if !shapes::is_single_peaked(&self.revenue, 1e-9) {
            return Err("revenue(p) must be single-peaked".into());
        }
        if !shapes::has_interior_peak(&self.revenue) {
            return Err("revenue peak must be interior".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let fig = compute(&default_prices(26)).unwrap();
        fig.check_shape().unwrap();
    }

    #[test]
    fn render_contains_series() {
        let fig = compute(&default_prices(6)).unwrap();
        let s = fig.render();
        assert!(s.contains("Figure 4"));
        assert!(s.contains("revenue"));
        assert!(s.lines().count() > 8);
    }

    #[test]
    fn csv_written() {
        let fig = compute(&default_prices(5)).unwrap();
        let dir = std::env::temp_dir().join("subcomp_fig4_test");
        let path = dir.join("fig4.csv");
        fig.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("p,theta,revenue,phi"));
        assert_eq!(content.lines().count(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn throughput_at_zero_price_is_peak() {
        let fig = compute(&default_prices(26)).unwrap();
        assert_eq!(super::super::shapes::argmax(&fig.theta), 0);
        assert_eq!(fig.revenue[0], 0.0);
    }
}
