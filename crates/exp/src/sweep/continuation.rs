//! Axis-generic continuation over parameter grids — the engine behind the
//! §5 figure panel, the price/µ/v sweeps and the grid benchmarks.
//!
//! The paper's evaluation is a dense family of Nash solves indexed by
//! parameters, and its comparative-statics results guarantee that
//! equilibria at adjacent parameter values are close: Theorem 6 for the
//! `(q, p)` axes, Theorem 1 for the capacity `µ`, Theorem 5 for the
//! profitabilities `v_i`. [`ContinuationSolver`] exploits that for *any*
//! pair of [`Axis`] values with one seeding rule: **every grid row is a
//! warm chain along the column axis.** A row's first point solves cold,
//! each later point starts from its neighbour's equilibrium
//! ([`WarmStart::Previous`]), and a point whose warm solve fails solves
//! cold again — continuation can never *lose* a point the cold solver
//! finds, only speed it up. [`EqGrid::cold_solves`] is therefore the row
//! count plus the fallbacks, so a degraded chain stays visible.
//!
//! Rows share nothing. Seeding a row from the adjacent row (another cap,
//! say) places providers pinned at the old cap inside the new box, so the
//! Newton corrector's active-set guess fails and the solve falls back to
//! Gauss–Seidel sweeps, each worth about twenty Newton steps at `n = 8`:
//! such a start costs more than a cold one. Theorem 6 first-order
//! (tangent) starts did not beat neighbour starts along the production
//! grids either, so the solver no longer offers them.
//!
//! Reparameterizing a grid point is two scalar writes through the axis
//! setters ([`SubsidyGame::set_price`] / [`SubsidyGame::set_cap`] /
//! [`SubsidyGame::set_mu`] / [`SubsidyGame::set_profitability`]): the
//! `System` and its precompiled kernel are built once per worker and never
//! cloned or rebuilt again, and all transients live in a caller-owned
//! [`GridContext`], so after warm-up the sequential engine performs **zero
//! heap allocation per grid point** on every axis (pinned by
//! `tests/alloc_free.rs` for the classic `(q, p)` panel and for µ-axis
//! sweeps).
//!
//! Because rows share nothing, a row is the unit [`parallel_map`] fans
//! out (one [`GridContext`] per worker), and results are **bit-identical
//! for any thread count** by construction.
//!
//! [`GridSolver`] — the engine's historical name — is an alias for the
//! default `Cap × Price` parameterization.

use super::parallel_map;
use subcomp_core::game::SubsidyGame;
use subcomp_core::nash::{NashSolver, WarmStart};
use subcomp_core::welfare::welfare;
use subcomp_core::workspace::SolveWorkspace;
use subcomp_model::system::{System, SystemState};
use subcomp_num::{NumError, NumResult};

pub use subcomp_core::game::Axis;

/// Per-CP values stored per point: subsidies, populations, throughputs
/// and utilities.
const PER_CP: usize = 4;

/// The per-point scalars of a solved grid point.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct PointRecord {
    phi: f64,
    revenue: f64,
    welfare: f64,
    iterations: u32,
    cold: bool,
}

/// A solved equilibrium grid in flat, row-major storage.
///
/// Point `(r, c)` is record `r·C + c`, where `C` is the number of
/// columns, and its per-CP values are the `4n` values from `(r·C + c)·4n`
/// on: subsidies, populations, throughputs, utilities. A row is thus one
/// contiguous slab of each buffer, which is what lets the parallel solver
/// hand disjoint `&mut` slices to workers with no locking. Use
/// [`EqGrid::point`] for ergonomic access; the grid doubles as a reusable
/// output buffer for [`ContinuationSolver::solve_seq_into`] (buffers only
/// grow, so re-solving a same-shape grid allocates nothing).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EqGrid {
    rows: Vec<f64>,
    cols: Vec<f64>,
    n: usize,
    points: Vec<PointRecord>,
    per_cp: Vec<f64>,
}

/// A borrowed view of one solved grid point — every quantity the figure
/// extractors read, without per-point allocation.
#[derive(Debug, Clone, Copy)]
pub struct EqPointView<'a> {
    /// Row-axis parameter value at this point (the policy cap `q` on the
    /// §5 panel's default `Cap × Price` grid).
    pub row: f64,
    /// Column-axis parameter value at this point (the ISP price `p` on
    /// the default grid).
    pub col: f64,
    /// Equilibrium subsidies per CP.
    pub subsidies: &'a [f64],
    /// Equilibrium populations per CP.
    pub m: &'a [f64],
    /// Equilibrium throughput per CP.
    pub theta: &'a [f64],
    /// Equilibrium utilities per CP.
    pub utilities: &'a [f64],
    /// System utilization.
    pub phi: f64,
    /// ISP revenue `p · θ` (at the point's price — the price axis value
    /// when price is swept, the base game's price otherwise).
    pub revenue: f64,
    /// System welfare `W = Σ v_i θ_i`.
    pub welfare: f64,
    /// Iterations this point's solve took (best-response sweeps plus
    /// Newton steps).
    pub iterations: usize,
    /// Whether the point solved cold (row start or warm-solve fallback)
    /// rather than from its neighbour's equilibrium.
    pub cold: bool,
}

impl EqGrid {
    /// An empty grid to use as a reusable output buffer.
    pub fn empty() -> EqGrid {
        EqGrid::default()
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Number of CP types.
    pub fn n_cps(&self) -> usize {
        self.n
    }

    /// The solved point at row `r`, column `c`.
    pub fn point(&self, r: usize, c: usize) -> EqPointView<'_> {
        debug_assert!(r < self.n_rows() && c < self.n_cols());
        let o = r * self.cols.len() + c;
        let n = self.n;
        let per_cp = |k: usize| &self.per_cp[(o * PER_CP + k) * n..(o * PER_CP + k + 1) * n];
        let rec = self.points[o];
        EqPointView {
            row: self.rows[r],
            col: self.cols[c],
            subsidies: per_cp(0),
            m: per_cp(1),
            theta: per_cp(2),
            utilities: per_cp(3),
            phi: rec.phi,
            revenue: rec.revenue,
            welfare: rec.welfare,
            iterations: rec.iterations as usize,
            cold: rec.cold,
        }
    }

    /// Number of points that solved cold — one per row plus the warm-solve
    /// fallbacks; the continuation health indicator the grid benches
    /// track.
    pub fn cold_solves(&self) -> usize {
        self.points.iter().filter(|p| p.cold).count()
    }

    /// Total iterations (best-response sweeps plus Newton steps) spent
    /// over the whole grid.
    pub fn total_sweeps(&self) -> usize {
        self.points.iter().map(|p| p.iterations as usize).sum()
    }

    /// Sizes both buffers for an `R × C × n` grid, retaining capacity.
    fn prepare(&mut self, rows: &[f64], cols: &[f64], n: usize) {
        self.rows.clear();
        self.rows.extend_from_slice(rows);
        self.cols.clear();
        self.cols.extend_from_slice(cols);
        self.n = n;
        let points = rows.len() * cols.len();
        self.points.resize(points, PointRecord::default());
        self.per_cp.resize(points * PER_CP * n, 0.0);
    }

    /// Splits the grid into per-row tasks: the row value plus the row's
    /// slab of each buffer. An iterator rather than a `Vec` so the
    /// sequential engine walks rows without allocating —
    /// `tests/alloc_free.rs` counts on it.
    fn row_tasks(&mut self) -> impl Iterator<Item = RowTask<'_>> {
        let cols = self.cols.len();
        let width = cols * PER_CP * self.n;
        let mut per_cp = self.per_cp.as_mut_slice();
        self.rows.iter().zip(self.points.chunks_mut(cols.max(1))).map(move |(&row, points)| {
            let (slab, rest) = std::mem::take(&mut per_cp).split_at_mut(width);
            per_cp = rest;
            RowTask { row, points, per_cp: slab }
        })
    }
}

/// One row of a grid: its row-axis value and its output slabs.
struct RowTask<'a> {
    row: f64,
    points: &'a mut [PointRecord],
    per_cp: &'a mut [f64],
}

/// Per-worker continuation state: the mutable game being reparameterized
/// (one `System` clone at construction — the only one the grid ever
/// pays) and the solver workspace. Reusable across
/// [`ContinuationSolver::solve_seq_into`] calls; zero allocation once
/// warm.
#[derive(Debug, Clone)]
pub struct GridContext {
    game: SubsidyGame,
    ws: SolveWorkspace,
}

impl GridContext {
    /// A context for grids over `system`, parameterized at `p = q = 0`
    /// (every non-swept parameter keeps that base; grids whose axes cover
    /// other parameters should use [`GridContext::for_game`]).
    pub fn new(system: &System) -> GridContext {
        let game = SubsidyGame::new(system.clone(), 0.0, 0.0)
            .expect("p = q = 0 is always a valid parameterization");
        GridContext::for_game(&game)
    }

    /// A context for grids over `base` — the non-swept parameters (price,
    /// cap, capacity, profitabilities) keep the base game's values.
    pub fn for_game(base: &SubsidyGame) -> GridContext {
        let game = base.clone();
        let ws = SolveWorkspace::for_game(&game);
        GridContext { game, ws }
    }
}

/// The axis-generic 2-D continuation solver (module docs).
#[derive(Debug, Clone)]
pub struct ContinuationSolver {
    /// The continuation solver. The default is [`NashSolver::default`] at
    /// tolerance `1e-8` — the panel's historical tolerance; every point
    /// agrees with an independent cold solve to solver tolerance
    /// (`tests/grid_continuation.rs` pins this on random grids).
    pub solver: NashSolver,
    /// Worker threads for the row fan-out (`<= 1` runs sequentially;
    /// results are bit-identical either way).
    pub threads: usize,
    /// The parameter swept across rows (default [`Axis::Cap`]).
    pub row_axis: Axis,
    /// The parameter swept across columns (default [`Axis::Price`]).
    pub col_axis: Axis,
}

impl Default for ContinuationSolver {
    fn default() -> Self {
        ContinuationSolver {
            solver: NashSolver::default().with_tol(1e-8),
            threads: 1,
            row_axis: Axis::Cap,
            col_axis: Axis::Price,
        }
    }
}

/// The `(q, p)` grid engine of the §5 panel — the historical name of
/// [`ContinuationSolver`], whose default axes are exactly `Cap × Price`.
pub type GridSolver = ContinuationSolver;

impl ContinuationSolver {
    /// A solver sweeping `row_axis` across rows and `col_axis` across
    /// columns (all other parameters stay at the base game's values).
    pub fn over(row_axis: Axis, col_axis: Axis) -> Self {
        ContinuationSolver { row_axis, col_axis, ..ContinuationSolver::default() }
    }

    /// Returns a copy fanning rows across `threads` workers.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Solves the full grid over `system` at base `p = q = 0`, allocating
    /// the result. This is the historical `(q, p)` entry point: both
    /// parameters not covered by [`ContinuationSolver::row_axis`] /
    /// [`ContinuationSolver::col_axis`] stay at zero — sweeps over other
    /// axes should parameterize a base game and use
    /// [`ContinuationSolver::solve_game`].
    pub fn solve(&self, system: &System, rows: &[f64], cols: &[f64]) -> NumResult<EqGrid> {
        let base = SubsidyGame::new(system.clone(), 0.0, 0.0)
            .expect("p = q = 0 is always a valid parameterization");
        self.solve_game(&base, rows, cols)
    }

    /// Solves the full grid over a base game: the two axes sweep their
    /// parameters, everything else (price, cap, capacity, profitabilities,
    /// clamping convention) keeps the base game's values. Rows fan out
    /// across [`ContinuationSolver::threads`] workers (one
    /// [`GridContext`] each); on failure the error is the first one in
    /// row order.
    pub fn solve_game(&self, base: &SubsidyGame, rows: &[f64], cols: &[f64]) -> NumResult<EqGrid> {
        self.validate_grid(base.n(), rows, cols)?;
        let mut out = EqGrid::empty();
        out.prepare(rows, cols, base.n());
        let mut tasks: Vec<RowTask<'_>> = out.row_tasks().collect();
        parallel_map(
            &mut tasks,
            self.threads,
            || GridContext::for_game(base),
            |ctx, task| self.solve_row(ctx, cols, task),
        )
        .into_iter()
        .collect::<NumResult<()>>()?;
        Ok(out)
    }

    /// The sequential, allocation-free engine: solves the whole grid
    /// through one caller-owned context into `out`. After a first call of
    /// a given shape (warm-up), repeated calls perform zero heap
    /// allocation — the contract `tests/alloc_free.rs` pins on both the
    /// `(q, p)` panel and on µ-axis sweeps. Results are bit-identical to
    /// [`ContinuationSolver::solve_game`] at any thread count.
    pub fn solve_seq_into(
        &self,
        ctx: &mut GridContext,
        rows: &[f64],
        cols: &[f64],
        out: &mut EqGrid,
    ) -> NumResult<()> {
        self.validate_grid(ctx.game.n(), rows, cols)?;
        out.prepare(rows, cols, ctx.game.n());
        for mut task in out.row_tasks() {
            self.solve_row(ctx, cols, &mut task)?;
        }
        Ok(())
    }

    /// Solves one row as a warm chain along the column axis: cold at the
    /// first column, from the neighbour's equilibrium after it, cold again
    /// wherever a warm solve fails.
    fn solve_row(
        &self,
        ctx: &mut GridContext,
        cols: &[f64],
        row: &mut RowTask<'_>,
    ) -> NumResult<()> {
        self.row_axis.apply(&mut ctx.game, row.row)?;
        let n = ctx.game.n();
        for (c, &cv) in cols.iter().enumerate() {
            self.col_axis.apply(&mut ctx.game, cv)?;
            let warm = if c == 0 {
                None
            } else {
                self.solver.solve_into(&ctx.game, WarmStart::Previous, &mut ctx.ws).ok()
            };
            let (stats, cold) = match warm {
                Some(stats) => (stats, false),
                None => (self.solver.solve_into(&ctx.game, WarmStart::Zero, &mut ctx.ws)?, true),
            };
            let state = ctx.ws.state();
            let values = [ctx.ws.subsidies(), &state.m[..], &state.theta_i[..], ctx.ws.utilities()];
            let slab = &mut row.per_cp[c * PER_CP * n..(c + 1) * PER_CP * n];
            for (k, src) in values.into_iter().enumerate() {
                slab[k * n..(k + 1) * n].copy_from_slice(src);
            }
            row.points[c] = PointRecord {
                phi: state.phi,
                revenue: ctx.game.price() * state.theta(),
                welfare: welfare(&ctx.game, state),
                iterations: stats.iterations as u32,
                cold,
            };
        }
        Ok(())
    }

    /// Validates the axis pair and every grid value against its axis'
    /// domain (`p, q, v_i ≥ 0`; `µ > 0`; provider indices in range).
    fn validate_grid(&self, n: usize, rows: &[f64], cols: &[f64]) -> NumResult<()> {
        if self.row_axis == self.col_axis {
            return Err(NumError::Domain {
                what: "continuation axes must be distinct parameters",
                value: f64::NAN,
            });
        }
        for (axis, values) in [(self.row_axis, rows), (self.col_axis, cols)] {
            if let Axis::Profitability(i) = axis {
                if i >= n {
                    return Err(NumError::DimensionMismatch { expected: n, actual: i });
                }
            }
            for &v in values {
                let ok = match axis {
                    Axis::Mu => v > 0.0 && v.is_finite(),
                    _ => v >= 0.0 && v.is_finite(),
                };
                if !ok {
                    return Err(NumError::Domain {
                        what: match axis {
                            Axis::Price => "grid price must be non-negative",
                            Axis::Cap => "grid cap must be non-negative",
                            Axis::Mu => "grid capacity must be positive",
                            Axis::Profitability(_) => "grid profitability must be non-negative",
                        },
                        value: v,
                    });
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// One-sided (no-subsidy) price sweep
// ---------------------------------------------------------------------------

/// One point of the one-sided price sweep: the §3.2 market (no subsidies)
/// evaluated at one uniform price.
#[derive(Debug, Clone, PartialEq)]
pub struct StatePoint {
    /// The uniform price `p` at this point.
    pub p: f64,
    /// The solved congestion state.
    pub state: SystemState,
    /// ISP revenue `R = p θ`.
    pub revenue: f64,
}

/// Sweeps the *one-sided* market (§3.2: every CP's users pay the uniform
/// price `p`, no subsidies) over a price grid — the engine behind Figures 4
/// and 5.
///
/// Every point solves through one reused scratch/state/price buffer, and
/// values are bit-identical to per-point
/// [`System::state_at_uniform_price`] solves (pinned by a unit test here
/// and by the figure-series goldens).
pub fn one_sided_sweep(system: &System, prices: &[f64]) -> NumResult<Vec<StatePoint>> {
    let mut scratch = system.make_scratch();
    let mut state = SystemState::empty();
    let mut t = vec![0.0; system.n()];
    let mut out = Vec::with_capacity(prices.len());
    for &p in prices {
        t.fill(p);
        system.state_at_prices_into(&t, &mut scratch, &mut state)?;
        let revenue = p * state.theta();
        out.push(StatePoint { p, state: state.clone(), revenue });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::section5_system;

    fn small_grid() -> (Vec<f64>, Vec<f64>) {
        (vec![0.0, 0.6, 1.2], vec![0.2, 0.5, 0.8, 1.1, 1.5])
    }

    #[test]
    fn grid_matches_independent_cold_solves() {
        let sys = section5_system();
        let (qs, prices) = small_grid();
        let grid = GridSolver::default().solve(&sys, &qs, &prices).unwrap();
        assert_eq!(grid.n_rows(), 3);
        assert_eq!(grid.n_cols(), 5);
        assert_eq!(grid.n_cps(), 8);
        let solver = NashSolver::default().with_tol(1e-8);
        for (r, &q) in qs.iter().enumerate() {
            for (c, &p) in prices.iter().enumerate() {
                let game = SubsidyGame::new(sys.clone(), p, q).unwrap();
                let cold = solver.solve(&game).unwrap();
                let pt = grid.point(r, c);
                assert_eq!(pt.row, q);
                assert_eq!(pt.col, p);
                for i in 0..8 {
                    assert!(
                        (pt.subsidies[i] - cold.subsidies[i]).abs() < 1e-6,
                        "(q={q}, p={p}) CP {i}: grid {} vs cold {}",
                        pt.subsidies[i],
                        cold.subsidies[i]
                    );
                }
                assert!((pt.phi - cold.state.phi).abs() < 1e-6);
                assert!((pt.revenue - cold.isp_revenue(&game)).abs() < 1e-6);
                assert!((pt.welfare - cold.welfare(&game)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn results_bit_identical_across_thread_counts() {
        let sys = section5_system();
        let (qs, prices) = small_grid();
        let one = GridSolver::default().with_threads(1).solve(&sys, &qs, &prices).unwrap();
        let four = GridSolver::default().with_threads(4).solve(&sys, &qs, &prices).unwrap();
        assert_eq!(one, four);
    }

    #[test]
    fn sequential_engine_matches_parallel() {
        let sys = section5_system();
        let (qs, prices) = small_grid();
        let solver = GridSolver::default();
        let parallel = solver.clone().with_threads(3).solve(&sys, &qs, &prices).unwrap();
        let mut ctx = GridContext::new(&sys);
        let mut seq = EqGrid::empty();
        solver.solve_seq_into(&mut ctx, &qs, &prices, &mut seq).unwrap();
        assert_eq!(parallel, seq);
        // And the context + buffer are reusable: a second run reproduces
        // the same grid byte for byte.
        let mut again = EqGrid::empty();
        solver.solve_seq_into(&mut ctx, &qs, &prices, &mut again).unwrap();
        assert_eq!(seq, again);
    }

    #[test]
    fn continuation_solves_mostly_warm() {
        let sys = section5_system();
        let (qs, prices) = small_grid();
        let grid = GridSolver::default().solve(&sys, &qs, &prices).unwrap();
        // Exactly one planned cold solve per row; fallbacks would push the
        // count up (and flag a continuation regression).
        assert_eq!(grid.cold_solves(), qs.len(), "continuation fell back to cold solves");
        for r in 0..qs.len() {
            assert!(grid.point(r, 0).cold);
            assert!((1..prices.len()).all(|c| !grid.point(r, c).cold));
        }
        assert!(grid.total_sweeps() > 0);
    }

    #[test]
    fn zero_cap_row_pins_subsidies() {
        let sys = section5_system();
        let grid = GridSolver::default().solve(&sys, &[0.0, 1.0], &[0.4, 0.9]).unwrap();
        for c in 0..2 {
            assert!(grid.point(0, c).subsidies.iter().all(|&s| s == 0.0));
            assert!(grid.point(1, c).subsidies.iter().any(|&s| s > 0.0));
        }
    }

    #[test]
    fn empty_and_invalid_grids() {
        let sys = section5_system();
        let grid = GridSolver::default().solve(&sys, &[], &[0.5]).unwrap();
        assert_eq!(grid.n_rows(), 0);
        let grid = GridSolver::default().solve(&sys, &[0.5], &[]).unwrap();
        assert_eq!(grid.n_cols(), 0);
        assert!(GridSolver::default().solve(&sys, &[-0.1], &[0.5]).is_err());
        assert!(GridSolver::default().solve(&sys, &[0.5], &[f64::NAN]).is_err());
        // A market without providers still solves every point: one cold
        // start per row, empty per-CP slices.
        let empty = subcomp_model::aggregation::build_system(&[], 1.0).unwrap();
        let grid = GridSolver::default().solve(&empty, &[0.0, 1.0], &[0.5, 0.9]).unwrap();
        assert_eq!(grid.cold_solves(), 2);
        assert!(grid.point(1, 1).subsidies.is_empty());
    }

    #[test]
    fn axis_validation() {
        let sys = section5_system();
        let base = SubsidyGame::new(sys.clone(), 0.6, 0.8).unwrap();
        // Same axis twice is rejected.
        let dup = ContinuationSolver::over(Axis::Mu, Axis::Mu);
        assert!(dup.solve_game(&base, &[1.0], &[0.5]).is_err());
        // Axis domains are enforced: µ must be positive…
        let mu = ContinuationSolver::over(Axis::Cap, Axis::Mu);
        assert!(mu.solve_game(&base, &[0.8], &[0.0]).is_err());
        // …and profitability indices in range.
        let v = ContinuationSolver::over(Axis::Cap, Axis::Profitability(99));
        assert!(v.solve_game(&base, &[0.8], &[0.5]).is_err());
    }

    #[test]
    fn mu_axis_sweep_matches_rebuilt_cold_solves() {
        let sys = section5_system();
        let base = SubsidyGame::new(sys.clone(), 0.6, 0.8).unwrap();
        let mus = [0.5, 1.0, 2.0];
        let grid =
            ContinuationSolver::over(Axis::Cap, Axis::Mu).solve_game(&base, &[0.8], &mus).unwrap();
        assert_eq!(grid.n_rows(), 1);
        assert_eq!(grid.n_cols(), 3);
        let solver = NashSolver::default().with_tol(1e-8);
        for (c, &mu) in mus.iter().enumerate() {
            let game = SubsidyGame::new(sys.with_capacity(mu).unwrap(), 0.6, 0.8).unwrap();
            let cold = solver.solve(&game).unwrap();
            let pt = grid.point(0, c);
            assert_eq!(pt.col, mu);
            for i in 0..8 {
                assert!((pt.subsidies[i] - cold.subsidies[i]).abs() < 1e-6, "mu = {mu}, CP {i}");
            }
            assert!((pt.phi - cold.state.phi).abs() < 1e-6);
            assert!((pt.revenue - cold.isp_revenue(&game)).abs() < 1e-6);
        }
        // More capacity, more equilibrium throughput (Theorem 1 direction).
        assert!(grid.point(0, 2).theta.iter().sum::<f64>() > grid.point(0, 0).theta.iter().sum());
    }

    #[test]
    fn one_sided_price_sweep_is_bit_identical_to_market_sweep() {
        // The reference is the market evaluated point by point: a fresh
        // uniform-price state solve and R = pθ.
        let sys = crate::scenarios::section3_system();
        let prices: Vec<f64> = (0..8).map(|k| 0.3 * k as f64).collect();
        let swept = one_sided_sweep(&sys, &prices).unwrap();
        assert_eq!(swept.len(), prices.len());
        for (&p, b) in prices.iter().zip(&swept) {
            let state = sys.state_at_uniform_price(p).unwrap();
            assert_eq!(p, b.p);
            assert_eq!(state.phi.to_bits(), b.state.phi.to_bits());
            assert_eq!((p * state.theta()).to_bits(), b.revenue.to_bits());
            assert_eq!(state.theta_i, b.state.theta_i);
        }
    }
}
