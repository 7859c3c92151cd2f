//! Axis-generic continuation over parameter grids — the engine behind the
//! §5 figure panel, the price/µ/v sweeps and the grid benchmarks.
//!
//! The paper's evaluation is a dense family of Nash solves indexed by
//! parameters, and its comparative-statics results guarantee that
//! equilibria at adjacent parameter values are close: Theorem 6 for the
//! `(q, p)` axes, Theorem 1 for the capacity `µ`, Theorem 5 for the
//! profitabilities `v_i`. [`ContinuationSolver`] exploits that for *any*
//! pair of [`Axis`] values:
//!
//! 1. **Column-axis continuation** — the first row is swept left to right,
//!    each solve warm-started from its neighbour's equilibrium
//!    ([`WarmStart::Previous`]), or — with
//!    [`ContinuationSolver::with_tangent`] — from a Theorem 6 first-order
//!    predictor ([`WarmStart::Tangent`], tangents from the structured
//!    Theorem 6 engine, [`SensitivityWorkspace::directional_into`]).
//! 2. **Row seeding** — every later row starts each point from the
//!    *adjacent row's* solution at the same column, so only one point of
//!    the whole grid ever solves cold (per block; see below). A seeded
//!    solve that fails to converge automatically falls back to a cold
//!    solve — continuation can never *lose* a point the cold solver
//!    finds, only speed it up.
//!
//! Reparameterizing a grid point is two scalar writes through the axis
//! setters ([`SubsidyGame::set_price`] / [`SubsidyGame::set_cap`] /
//! [`SubsidyGame::set_mu`] / [`SubsidyGame::set_profitability`]): the
//! `System` and its precompiled kernel are built once per worker and never
//! cloned or rebuilt again, and all transients live in a caller-owned
//! [`GridContext`], so after warm-up the sequential engine performs **zero
//! heap allocation per grid point** on every axis (pinned by
//! `tests/alloc_free.rs` for the classic `(q, p)` panel and for µ-axis
//! sweeps with and without the tangent predictor, whose Theorem 6
//! derivatives come from the context's resident [`SensitivityWorkspace`]).
//!
//! Parallelism follows the [`BatchSolver`](super::BatchSolver) recipe: the
//! grid is split into fixed-width *column blocks*, each block is one
//! self-contained continuation (its first row starts cold), and blocks —
//! not points — are fanned across workers through
//! [`parallel_map`]. Because the block structure
//! depends only on [`ContinuationSolver::block`], results are
//! **bit-identical for any thread count**.
//!
//! [`GridSolver`] — the engine's historical name — is an alias for the
//! default `Cap × Price` parameterization; existing `(q, p)` callers are
//! untouched and bit-identical (the `(q, p)` goldens and grid benches did
//! not move in the axis generalization).

use super::parallel_map;
use subcomp_core::game::SubsidyGame;
use subcomp_core::nash::{NashSolver, SolveStats, WarmStart};
use subcomp_core::sensitivity::SensitivityWorkspace;
use subcomp_core::welfare::welfare;
use subcomp_core::workspace::SolveWorkspace;
use subcomp_model::system::{System, SystemState};
use subcomp_num::{NumError, NumResult};

pub use subcomp_core::game::Axis;

/// A solved equilibrium grid in flat, column-major storage.
///
/// Per-point scalars (`phi`, `revenue`, …) live at index `c·R + r` and
/// per-CP vectors at `(c·R + r)·n`, where `R` is the number of rows —
/// column-major so a column block occupies one contiguous slab, which is
/// what lets the parallel solver hand disjoint `&mut` slices to workers
/// with no locking. Use [`EqGrid::point`] for ergonomic access; the grid
/// doubles as a reusable output buffer for
/// [`ContinuationSolver::solve_seq_into`] (buffers only grow, so
/// re-solving a same-shape grid allocates nothing).
#[derive(Debug, Clone, PartialEq)]
pub struct EqGrid {
    row_axis: Axis,
    col_axis: Axis,
    rows: Vec<f64>,
    cols: Vec<f64>,
    n: usize,
    subsidies: Vec<f64>,
    m: Vec<f64>,
    theta: Vec<f64>,
    utilities: Vec<f64>,
    phi: Vec<f64>,
    revenue: Vec<f64>,
    welfare: Vec<f64>,
    iterations: Vec<u32>,
    cold: Vec<bool>,
    tangent_fallback: Vec<bool>,
}

impl Default for EqGrid {
    fn default() -> Self {
        EqGrid {
            row_axis: Axis::Cap,
            col_axis: Axis::Price,
            rows: Vec::new(),
            cols: Vec::new(),
            n: 0,
            subsidies: Vec::new(),
            m: Vec::new(),
            theta: Vec::new(),
            utilities: Vec::new(),
            phi: Vec::new(),
            revenue: Vec::new(),
            welfare: Vec::new(),
            iterations: Vec::new(),
            cold: Vec::new(),
            tangent_fallback: Vec::new(),
        }
    }
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
    /// Whether the point solved cold (block start or continuation
    /// fallback) rather than from a continuation seed.
    pub cold: bool,
    /// Whether this point wanted a Theorem 6 tangent start but degraded
    /// to previous-iterate seeding because the derivative was unavailable
    /// at the preceding equilibrium (degenerate equilibrium — a provider
    /// exactly at its utility threshold). Always `false` outside tangent
    /// mode. The solution itself is unaffected; this marks where the
    /// predictor could not be trusted.
    pub tangent_fallback: bool,
}

impl EqGrid {
    /// An empty grid to use as a reusable output buffer.
    pub fn empty() -> EqGrid {
        EqGrid::default()
    }

    /// The row axis.
    pub fn row_axis(&self) -> Axis {
        self.row_axis
    }

    /// The column axis.
    pub fn col_axis(&self) -> Axis {
        self.col_axis
    }

    /// Row-axis values.
    pub fn rows(&self) -> &[f64] {
        &self.rows
    }

    /// Column-axis values.
    pub fn cols(&self) -> &[f64] {
        &self.cols
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

    #[inline]
    fn idx(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.n_rows() && c < self.n_cols());
        c * self.rows.len() + r
    }

    /// The solved point at row `r`, column `c`.
    pub fn point(&self, r: usize, c: usize) -> EqPointView<'_> {
        let o = self.idx(r, c);
        let n = self.n;
        EqPointView {
            row: self.rows[r],
            col: self.cols[c],
            subsidies: &self.subsidies[o * n..(o + 1) * n],
            m: &self.m[o * n..(o + 1) * n],
            theta: &self.theta[o * n..(o + 1) * n],
            utilities: &self.utilities[o * n..(o + 1) * n],
            phi: self.phi[o],
            revenue: self.revenue[o],
            welfare: self.welfare[o],
            iterations: self.iterations[o] as usize,
            cold: self.cold[o],
            tangent_fallback: self.tangent_fallback[o],
        }
    }

    /// Number of points that solved cold (block starts plus continuation
    /// fallbacks) — the continuation health indicator the grid benches
    /// track.
    pub fn cold_solves(&self) -> usize {
        self.cold.iter().filter(|&&c| c).count()
    }

    /// Total iterations (best-response sweeps plus Newton steps) spent
    /// over the whole grid.
    pub fn total_sweeps(&self) -> usize {
        self.iterations.iter().map(|&k| k as usize).sum()
    }

    /// Number of points where the tangent predictor degraded to
    /// previous-iterate seeding (see [`EqPointView::tangent_fallback`]).
    /// Zero outside tangent mode.
    pub fn tangent_fallbacks(&self) -> usize {
        self.tangent_fallback.iter().filter(|&&f| f).count()
    }

    /// Sizes every buffer for an `R × C × n` grid, retaining capacity.
    fn prepare(&mut self, row_axis: Axis, col_axis: Axis, rows: &[f64], cols: &[f64], n: usize) {
        self.row_axis = row_axis;
        self.col_axis = col_axis;
        self.rows.clear();
        self.rows.extend_from_slice(rows);
        self.cols.clear();
        self.cols.extend_from_slice(cols);
        self.n = n;
        let points = rows.len() * cols.len();
        for buf in [&mut self.subsidies, &mut self.m, &mut self.theta, &mut self.utilities] {
            buf.resize(points * n, 0.0);
        }
        for buf in [&mut self.phi, &mut self.revenue, &mut self.welfare] {
            buf.resize(points, 0.0);
        }
        self.iterations.resize(points, 0);
        self.cold.resize(points, false);
        self.tangent_fallback.resize(points, false);
    }
}

/// Per-worker continuation state: the mutable game being reparameterized
/// (one `System` clone at construction — the only one the grid ever
/// pays), the solver workspace, the row-seed buffer, and the tangent
/// buffer with the Theorem 6 engine that fills it. Reusable across
/// [`ContinuationSolver::solve_seq_into`] calls; zero allocation once
/// warm.
#[derive(Debug, Clone)]
pub struct GridContext {
    game: SubsidyGame,
    ws: SolveWorkspace,
    seed: Vec<f64>,
    tangent: Vec<f64>,
    sens: SensitivityWorkspace,
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
        let n = game.n();
        GridContext {
            game,
            ws,
            seed: vec![0.0; n],
            tangent: Vec::with_capacity(n),
            sens: SensitivityWorkspace::new(),
        }
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
    /// Worker threads for block fan-out (`<= 1` runs sequentially;
    /// results are bit-identical either way).
    pub threads: usize,
    /// Columns per continuation block — the unit of parallel
    /// distribution. Results depend on this, never on `threads`.
    pub block: usize,
    /// Process rows last-to-first (seeding row `r` from row `r + 1`).
    /// Exists to demonstrate continuation-path independence; results
    /// agree with forward order to solver tolerance.
    pub reverse_rows: bool,
    /// The parameter swept across rows (default [`Axis::Cap`]).
    pub row_axis: Axis,
    /// The parameter swept across columns (default [`Axis::Price`]).
    pub col_axis: Axis,
    /// Use the Theorem 6 tangent predictor for the column-axis
    /// continuation along each block's first processed row: after each
    /// solve the equilibrium's directional derivative along
    /// [`ContinuationSolver::col_axis`] seeds a first-order prediction of
    /// the next point ([`WarmStart::Tangent`]), which the solver then only
    /// corrects. Falls back to [`WarmStart::Previous`] whenever the
    /// derivative is unavailable (degenerate equilibrium). Allocation-free
    /// once warm, like the rest of the sequential engine (the Theorem 6
    /// Jacobian is assembled in the context's resident
    /// [`SensitivityWorkspace`]) — see the module docs.
    pub tangent: bool,
}

impl Default for ContinuationSolver {
    fn default() -> Self {
        ContinuationSolver {
            solver: NashSolver::default().with_tol(1e-8),
            threads: 1,
            block: 16,
            reverse_rows: false,
            row_axis: Axis::Cap,
            col_axis: Axis::Price,
            tangent: false,
        }
    }
}

/// The `(q, p)` grid engine of the §5 panel — the historical name of
/// [`ContinuationSolver`], whose default axes are exactly `Cap × Price`.
pub type GridSolver = ContinuationSolver;

/// One block task: a contiguous range of columns plus the matching slabs
/// of every output buffer.
struct BlockTask<'a> {
    cols: &'a [f64],
    subsidies: &'a mut [f64],
    m: &'a mut [f64],
    theta: &'a mut [f64],
    utilities: &'a mut [f64],
    phi: &'a mut [f64],
    revenue: &'a mut [f64],
    welfare: &'a mut [f64],
    iterations: &'a mut [u32],
    cold: &'a mut [bool],
    tangent_fallback: &'a mut [bool],
}

impl ContinuationSolver {
    /// A solver sweeping `row_axis` across rows and `col_axis` across
    /// columns (all other parameters stay at the base game's values).
    pub fn over(row_axis: Axis, col_axis: Axis) -> Self {
        ContinuationSolver { row_axis, col_axis, ..ContinuationSolver::default() }
    }

    /// Returns a copy fanning blocks across `threads` workers.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns a copy with a different block width (minimum 1).
    pub fn with_block(mut self, block: usize) -> Self {
        self.block = block.max(1);
        self
    }

    /// Returns a copy with a different continuation solver.
    pub fn with_solver(mut self, solver: NashSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Returns a copy processing rows in reverse order.
    pub fn with_reverse_rows(mut self, reverse: bool) -> Self {
        self.reverse_rows = reverse;
        self
    }

    /// Returns a copy with the Theorem 6 tangent predictor enabled (see
    /// [`ContinuationSolver::tangent`]).
    pub fn with_tangent(mut self, tangent: bool) -> Self {
        self.tangent = tangent;
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
    /// clamping convention) keeps the base game's values.
    pub fn solve_game(&self, base: &SubsidyGame, rows: &[f64], cols: &[f64]) -> NumResult<EqGrid> {
        let mut out = EqGrid::empty();
        self.solve_game_into(base, rows, cols, &mut out)?;
        Ok(out)
    }

    /// [`ContinuationSolver::solve_game`] into a reusable [`EqGrid`],
    /// fanning column blocks across [`ContinuationSolver::threads`]
    /// workers (one [`GridContext`] each). Bit-identical to the sequential
    /// engine for any thread count; on failure the error is the first one
    /// in block order.
    pub fn solve_game_into(
        &self,
        base: &SubsidyGame,
        rows: &[f64],
        cols: &[f64],
        out: &mut EqGrid,
    ) -> NumResult<()> {
        self.validate_grid(base.n(), rows, cols)?;
        out.prepare(self.row_axis, self.col_axis, rows, cols, base.n());
        let mut tasks: Vec<BlockTask<'_>> = block_tasks(out, self.block.max(1), cols).collect();
        parallel_map(
            &mut tasks,
            self.threads,
            || GridContext::for_game(base),
            |ctx, task| self.solve_block(rows, ctx, task),
        )
        .into_iter()
        .collect()
    }

    /// The sequential, allocation-free engine: solves the whole grid
    /// through one caller-owned context into `out`. After a first call of
    /// a given shape (warm-up), repeated calls perform zero heap
    /// allocation — the contract `tests/alloc_free.rs` pins on both the
    /// `(q, p)` panel and on µ-axis sweeps, tangent mode included. Results
    /// are bit-identical to [`ContinuationSolver::solve_game_into`] at any
    /// thread count.
    pub fn solve_seq_into(
        &self,
        ctx: &mut GridContext,
        rows: &[f64],
        cols: &[f64],
        out: &mut EqGrid,
    ) -> NumResult<()> {
        self.validate_grid(ctx.game.n(), rows, cols)?;
        out.prepare(self.row_axis, self.col_axis, rows, cols, ctx.game.n());
        for mut task in block_tasks(out, self.block.max(1), cols) {
            self.solve_block(rows, ctx, &mut task)?;
        }
        Ok(())
    }

    /// Solves one column block: column-axis continuation along the first
    /// processed row (tangent-predicted when configured), row seeding for
    /// every later row, cold fallback on non-convergence.
    fn solve_block(
        &self,
        rows: &[f64],
        ctx: &mut GridContext,
        blk: &mut BlockTask<'_>,
    ) -> NumResult<()> {
        let n_rows = rows.len();
        let n = ctx.game.n();
        ctx.seed.resize(n, 0.0);
        for step in 0..n_rows {
            let r = if self.reverse_rows { n_rows - 1 - step } else { step };
            self.row_axis.apply(&mut ctx.game, rows[r])?;
            let mut have_tangent = false;
            for (cl, &cv) in blk.cols.iter().enumerate() {
                self.col_axis.apply(&mut ctx.game, cv)?;
                let o = cl * n_rows + r;
                // This point wanted a tangent start (tangent mode, on the
                // continuation row, not the block-start column) but the
                // preceding equilibrium had no derivative — the graceful
                // degradation the mark below surfaces.
                let fell_back = self.tangent && step == 0 && cl > 0 && !have_tangent;
                let (stats, cold) = if step == 0 {
                    if cl == 0 {
                        (self.solve_cold(ctx)?, true)
                    } else if have_tangent {
                        // Predictor-corrector: first-order Theorem 6 step
                        // from the previous column's equilibrium.
                        let dtheta = cv - blk.cols[cl - 1];
                        let tangent = std::mem::take(&mut ctx.tangent);
                        let result = self
                            .solve_seeded(ctx, WarmStart::Tangent { ds_dtheta: &tangent, dtheta });
                        ctx.tangent = tangent;
                        result?
                    } else {
                        // Column-axis continuation: the workspace still
                        // holds the previous column's equilibrium.
                        self.solve_seeded(ctx, WarmStart::Previous)?
                    }
                } else {
                    // Row seeding: start from the adjacent row's solution
                    // at this column, re-clamped into the new box.
                    let prev = if self.reverse_rows { r + 1 } else { r - 1 };
                    let po = (cl * n_rows + prev) * n;
                    for i in 0..n {
                        ctx.seed[i] = blk.subsidies[po + i].clamp(0.0, ctx.game.effective_cap(i));
                    }
                    let seed = std::mem::take(&mut ctx.seed);
                    let result = self.solve_seeded(ctx, WarmStart::Profile(&seed));
                    ctx.seed = seed;
                    result?
                };
                if self.tangent && step == 0 && cl + 1 < blk.cols.len() {
                    // Tangent for the next column, taken at this point's
                    // equilibrium. A degenerate equilibrium (no derivative)
                    // simply degrades the next start to Previous.
                    have_tangent = ctx
                        .sens
                        .directional_into(
                            &ctx.game,
                            ctx.ws.subsidies(),
                            self.col_axis,
                            &mut ctx.tangent,
                        )
                        .is_ok();
                }
                blk.subsidies[o * n..(o + 1) * n].copy_from_slice(ctx.ws.subsidies());
                let state = ctx.ws.state();
                blk.m[o * n..(o + 1) * n].copy_from_slice(&state.m);
                blk.theta[o * n..(o + 1) * n].copy_from_slice(&state.theta_i);
                blk.utilities[o * n..(o + 1) * n].copy_from_slice(ctx.ws.utilities());
                blk.phi[o] = state.phi;
                blk.revenue[o] = ctx.game.price() * state.theta();
                blk.welfare[o] = welfare(&ctx.game, state);
                blk.iterations[o] = stats.iterations as u32;
                blk.cold[o] = cold;
                blk.tangent_fallback[o] = fell_back;
            }
        }
        Ok(())
    }

    /// A continuation-seeded solve with automatic cold fallback.
    fn solve_seeded(
        &self,
        ctx: &mut GridContext,
        start: WarmStart<'_>,
    ) -> NumResult<(SolveStats, bool)> {
        match self.solver.solve_into(&ctx.game, start, &mut ctx.ws) {
            Ok(stats) => Ok((stats, false)),
            Err(_) => Ok((self.solve_cold(ctx)?, true)),
        }
    }

    /// A cold solve from the zero profile.
    fn solve_cold(&self, ctx: &mut GridContext) -> NumResult<SolveStats> {
        self.solver.solve_into(&ctx.game, WarmStart::Zero, &mut ctx.ws)
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

/// Lazily splits the grid's output buffers into per-block mutable slabs
/// (the column-major layout makes every block contiguous in every
/// buffer). An iterator rather than a `Vec` so the sequential engine can
/// walk blocks without allocating — `tests/alloc_free.rs` counts on it.
fn block_tasks<'a>(
    out: &'a mut EqGrid,
    block: usize,
    cols: &'a [f64],
) -> impl Iterator<Item = BlockTask<'a>> {
    let rows = out.rows.len();
    let n = out.n;
    let per_cp = (block * rows * n).max(1);
    let per_pt = (block * rows).max(1);
    cols.chunks(block)
        .zip(out.subsidies.chunks_mut(per_cp))
        .zip(out.m.chunks_mut(per_cp))
        .zip(out.theta.chunks_mut(per_cp))
        .zip(out.utilities.chunks_mut(per_cp))
        .zip(out.phi.chunks_mut(per_pt))
        .zip(out.revenue.chunks_mut(per_pt))
        .zip(out.welfare.chunks_mut(per_pt))
        .zip(out.iterations.chunks_mut(per_pt))
        .zip(out.cold.chunks_mut(per_pt))
        .zip(out.tangent_fallback.chunks_mut(per_pt))
        .map(
            |(
                (
                    (
                        (((((((cols, subsidies), m), theta), utilities), phi), revenue), welfare),
                        iterations,
                    ),
                    cold,
                ),
                tangent_fallback,
            )| {
                BlockTask {
                    cols,
                    subsidies,
                    m,
                    theta,
                    utilities,
                    phi,
                    revenue,
                    welfare,
                    iterations,
                    cold,
                    tangent_fallback,
                }
            },
        )
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
        assert_eq!(grid.row_axis(), Axis::Cap);
        assert_eq!(grid.col_axis(), Axis::Price);
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
        let base = GridSolver::default().with_block(2);
        let one = base.clone().with_threads(1).solve(&sys, &qs, &prices).unwrap();
        let four = base.with_threads(4).solve(&sys, &qs, &prices).unwrap();
        assert_eq!(one, four);
    }

    #[test]
    fn sequential_engine_matches_parallel() {
        let sys = section5_system();
        let (qs, prices) = small_grid();
        let solver = GridSolver::default().with_block(2);
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
    fn reverse_row_order_agrees_within_tolerance() {
        let sys = section5_system();
        let (qs, prices) = small_grid();
        let fwd = GridSolver::default().solve(&sys, &qs, &prices).unwrap();
        let rev = GridSolver::default().with_reverse_rows(true).solve(&sys, &qs, &prices).unwrap();
        for r in 0..qs.len() {
            for c in 0..prices.len() {
                let (a, b) = (fwd.point(r, c), rev.point(r, c));
                for i in 0..8 {
                    assert!(
                        (a.subsidies[i] - b.subsidies[i]).abs() < 1e-6,
                        "(r={r}, c={c}) CP {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn continuation_solves_mostly_warm() {
        let sys = section5_system();
        let (qs, prices) = small_grid();
        let grid = GridSolver::default().with_block(8).solve(&sys, &qs, &prices).unwrap();
        // One block => exactly one planned cold solve; fallbacks would
        // push the count up (and flag a continuation regression).
        assert_eq!(grid.cold_solves(), 1, "continuation fell back to cold solves");
        assert!(grid.point(0, 0).cold);
        assert!(!grid.point(2, 4).cold);
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
    fn tangent_predictor_matches_previous_continuation() {
        let sys = section5_system();
        let base = SubsidyGame::new(sys, 0.6, 0.8).unwrap();
        let mus = [0.8, 1.0, 1.25, 1.6];
        let solver = ContinuationSolver::over(Axis::Cap, Axis::Mu);
        let previous = solver.solve_game(&base, &[0.8], &mus).unwrap();
        let tangent = solver.clone().with_tangent(true).solve_game(&base, &[0.8], &mus).unwrap();
        for c in 0..mus.len() {
            let (a, b) = (previous.point(0, c), tangent.point(0, c));
            for i in 0..8 {
                assert!((a.subsidies[i] - b.subsidies[i]).abs() < 1e-6, "mu = {}, CP {i}", mus[c]);
            }
        }
        assert_eq!(tangent.cold_solves(), 1, "the tangent path must not fall back cold");
    }

    #[test]
    fn tangent_sweep_degrades_gracefully_at_a_degenerate_equilibrium() {
        // A degenerate equilibrium *mid-sweep*: a monopolist whose cap is
        // set exactly at its interior optimum at µ = 1 (the recipe the
        // sensitivity tests use — the pinned provider has u ≈ 0, so
        // `Sensitivity::directional` refuses to differentiate there). The
        // tangent-mode sweep must NOT abort the ladder: it marks the next
        // point as a tangent fallback, seeds it from the previous iterate,
        // and completes the sweep in full.
        use subcomp_model::aggregation::{build_system, ExpCpSpec};
        let sys = build_system(&[ExpCpSpec::unit(8.0, 2.0, 1.0)], 1.0).unwrap();
        let free = SubsidyGame::new(sys.clone(), 1.0, 2.0).unwrap();
        let s_star = NashSolver::default().with_tol(1e-10).solve(&free).unwrap().subsidies[0];
        let base = SubsidyGame::new(sys, 1.0, s_star).unwrap();
        let mus = [0.9, 0.95, 1.0, 1.05, 1.1];
        let solver = ContinuationSolver::over(Axis::Cap, Axis::Mu)
            .with_solver(NashSolver::default().with_tol(1e-10))
            .with_block(8);
        let tangent = solver.clone().with_tangent(true).solve_game(&base, &[s_star], &mus).unwrap();
        // The ladder is complete and finite at every µ.
        for c in 0..mus.len() {
            let pt = tangent.point(0, c);
            assert!(pt.phi.is_finite() && pt.subsidies[0].is_finite(), "µ = {}", mus[c]);
        }
        // The point after µ = 1 wanted a tangent but had no derivative.
        assert!(tangent.point(0, 3).tangent_fallback, "fallback at µ = 1.05 must be marked");
        assert!(tangent.tangent_fallbacks() >= 1);
        assert!(!tangent.point(0, 1).tangent_fallback, "regular points keep their tangent");
        // Degradation, not divergence: the marked ladder agrees with the
        // plain previous-iterate sweep.
        let previous = solver.solve_game(&base, &[s_star], &mus).unwrap();
        assert_eq!(previous.tangent_fallbacks(), 0, "marks exist only in tangent mode");
        for c in 0..mus.len() {
            let (a, b) = (previous.point(0, c), tangent.point(0, c));
            assert!((a.subsidies[0] - b.subsidies[0]).abs() < 1e-6, "µ = {}", mus[c]);
            assert!((a.phi - b.phi).abs() < 1e-6);
        }
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
