//! The shared §5 equilibrium sweep behind Figures 7–11.
//!
//! All five figures plot quantities of the *same* family of equilibria:
//! the 8-type market solved over `p ∈ [0, 2]` for each policy cap
//! `q ∈ {0, 0.5, 1, 1.5, 2}`. This module computes that grid once through
//! the [`GridSolver`] continuation engine — each cap row one warm chain
//! along the price axis, zero per-point allocation, rows in parallel —
//! and the per-figure modules extract their series from the resulting
//! [`EqGrid`] through borrowed [`EqPointView`]s.

use crate::scenarios::section5_system;
use crate::scenarios::{paper_policy_grid, paper_price_grid, section5_specs, spec_label};
use crate::sweep::{EqGrid, EqPointView, GridSolver};
use subcomp_num::{NumError, NumResult};

/// The full Figures 7–11 grid.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Policy caps (outer axis).
    pub qs: Vec<f64>,
    /// Price grid (inner axis).
    pub prices: Vec<f64>,
    /// CP labels in spec order.
    pub labels: Vec<String>,
    /// The solved equilibrium grid (rows = caps, columns = prices).
    pub grid: EqGrid,
}

/// Computes the paper's panel: `q ∈ {0, …, 2}`, `p ∈ [0, 2]` with
/// `points` samples, cap rows fanned across `threads` workers.
pub fn compute(points: usize, threads: usize) -> NumResult<Panel> {
    compute_on(&paper_policy_grid(), &paper_price_grid(points), threads)
}

/// Computes the panel on explicit grids.
pub fn compute_on(qs: &[f64], prices: &[f64], threads: usize) -> NumResult<Panel> {
    let system = section5_system();
    let solver = GridSolver::default().with_threads(threads);
    let grid = solver.solve(&system, qs, prices)?;
    Ok(Panel {
        qs: qs.to_vec(),
        prices: prices.to_vec(),
        labels: section5_specs().iter().map(spec_label).collect(),
        grid,
    })
}

impl Panel {
    /// Number of CP types.
    pub fn n_cps(&self) -> usize {
        self.labels.len()
    }

    /// The equilibrium at cap index `qi`, price index `pi`.
    pub fn point(&self, qi: usize, pi: usize) -> EqPointView<'_> {
        self.grid.point(qi, pi)
    }

    /// Extracts the series of a scalar quantity vs price at cap index
    /// `qi` — e.g. `|pt| pt.revenue`.
    pub fn series(&self, qi: usize, f: impl Fn(&EqPointView<'_>) -> f64) -> Vec<f64> {
        (0..self.prices.len()).map(|pi| f(&self.point(qi, pi))).collect()
    }

    /// Extracts a per-CP quantity vs price at cap index `qi` for CP `i`.
    pub fn cp_series(
        &self,
        qi: usize,
        i: usize,
        f: impl Fn(&EqPointView<'_>, usize) -> f64,
    ) -> Vec<f64> {
        (0..self.prices.len()).map(|pi| f(&self.point(qi, pi), i)).collect()
    }

    /// Index of a cap value in the grid.
    pub fn q_index(&self, q: f64) -> NumResult<usize> {
        self.qs
            .iter()
            .position(|&x| (x - q).abs() < 1e-12)
            .ok_or(NumError::Domain { what: "cap not in panel grid", value: q })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small panel reused by the figure tests (computing the full
    /// 41-point panel in every unit test would be wasteful).
    pub(crate) fn small_panel() -> Panel {
        compute_on(&[0.0, 1.0], &[0.2, 0.6, 1.0, 1.6], 2).unwrap()
    }

    #[test]
    fn grid_dimensions() {
        let p = small_panel();
        assert_eq!(p.grid.n_rows(), 2);
        assert_eq!(p.grid.n_cols(), 4);
        assert_eq!(p.n_cps(), 8);
        assert_eq!(p.q_index(1.0).unwrap(), 1);
        assert!(p.q_index(0.7).is_err());
    }

    #[test]
    fn baseline_q0_has_zero_subsidies() {
        let p = small_panel();
        for pi in 0..p.prices.len() {
            assert!(p.point(0, pi).subsidies.iter().all(|&s| s == 0.0));
        }
    }

    #[test]
    fn revenue_and_welfare_rise_with_q_at_fixed_price() {
        // Figure 7's headline: at any fixed p, larger q gives larger R
        // and W.
        let p = small_panel();
        for pi in 0..p.prices.len() {
            assert!(
                p.point(1, pi).revenue >= p.point(0, pi).revenue - 1e-9,
                "revenue at p = {}",
                p.prices[pi]
            );
            assert!(
                p.point(1, pi).welfare >= p.point(0, pi).welfare - 1e-9,
                "welfare at p = {}",
                p.prices[pi]
            );
        }
    }

    #[test]
    fn series_extraction() {
        let p = small_panel();
        let rev = p.series(1, |pt| pt.revenue);
        assert_eq!(rev.len(), 4);
        let s6 = p.cp_series(1, 6, |pt, i| pt.subsidies[i]);
        assert!(s6.iter().any(|&s| s > 0.0), "the a5-b2-v1 type must subsidize somewhere");
    }

    #[test]
    fn panel_matches_independent_solves() {
        // The continuation-computed panel must agree with fresh cold
        // solves of the same games (the pre-GridSolver construction).
        use subcomp_core::game::SubsidyGame;
        use subcomp_core::nash::NashSolver;
        let p = small_panel();
        let system = crate::scenarios::section5_system();
        let solver = NashSolver::default().with_tol(1e-8);
        for (qi, &q) in p.qs.iter().enumerate() {
            for (pi, &price) in p.prices.iter().enumerate() {
                let game = SubsidyGame::new(system.clone(), price, q).unwrap();
                let eq = solver.solve(&game).unwrap();
                let pt = p.point(qi, pi);
                for i in 0..8 {
                    assert!(
                        (pt.subsidies[i] - eq.subsidies[i]).abs() < 1e-6,
                        "(q={q}, p={price}) CP {i}"
                    );
                }
                assert!((pt.revenue - eq.isp_revenue(&game)).abs() < 1e-6);
                assert!((pt.welfare - eq.welfare(&game)).abs() < 1e-6);
            }
        }
    }
}
