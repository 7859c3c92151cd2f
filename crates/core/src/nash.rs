//! Nash equilibrium solvers (Definition 3): iterated best response,
//! corrected by Newton's method on the Theorem 3 active set.
//!
//! **The corrector.** By Theorem 3 every equilibrium is a KKT point:
//! providers pinned at `0` (`N⁻`) or at their cap `min(q, v_i)` (`N⁺`),
//! and interior providers `Ñ` with `u_Ñ(s) = 0`. Theorem 6's interior
//! Jacobian `∇_s̃ũ` is Newton's matrix for those conditions — nonsingular
//! under Theorem 4's P-function condition — and [`crate::sensitivity`]
//! assembles it in O(n) from one solved state and solves it by Woodbury.
//! So [`NashSolver::solve_into_budgeted`], the one entry point every
//! solve runs through, *guesses* the active set at the current iterate
//! (the [`crate::sensitivity::ActiveSet`] classifier, against the
//! solver's own box `[0, min(q, v_i)]`) and takes box-projected Newton
//! steps on the frozen guess:
//!
//! * pinned providers sit on their corners; a step solves the state once,
//!   reads every `u_i`, factors the Jacobian and solves
//!   `J_ÑÑ δ = −u_Ñ`, and the next iterate is `s + δ`, clamped to the box.
//!   The next step's state solve starts at `φ + Σ_{j∈Ñ} (∂φ/∂s_j) δ_j`,
//!   from the same factors (the first step of an attempt starts cold, and
//!   so does the state every solve ends with at its answer);
//! * the attempt is **accepted** when `max(‖δ‖∞, pinned violation) ≤ tol`.
//!   A pinned provider's violation is its wrong-signed marginal (`u_i > 0`
//!   at the lower pin, `u_i < 0` at the upper) over `|∂u_i/∂s_i|`, capped
//!   at its box width. Both terms are in subsidy units, so `tol` and the
//!   residual keep the meaning of a sweep update;
//! * it **declines** when a step leaves the box by more than `tol`, the
//!   residual fails to halve, the interior converges while a pinned sign
//!   contradicts its pin, an interior provider sits on (within
//!   [`PIN_TOL`], like a corner) or past the clamped `t = 0` kink, where
//!   `u_i` has no root, a value is non-finite or the block is singular —
//!   or after [`NEWTON_MAX_STEPS`] steps. A decline restores the
//!   pre-attempt iterate, runs one Gauss–Seidel sweep and guesses again.
//!
//! An empty guessed interior skips the attempt, so every cold start from
//! `s = 0` and every `q = 0` game begins with a sweep.
//!
//! **Globalization and oracles.** The Gauss–Seidel sweep — each
//! provider's best response, the Theorem 3 threshold search of
//! [`crate::best_response`] seeded at its current iterate, immediately
//! visible to the next provider — is the corrector's globalization. Its
//! job is to land in the corrector's basin with the right active set, so
//! it solves each interior threshold only as precisely as the next Newton
//! attempt needs (the inexact-Newton forcing rule of Dembo, Eisenstat and
//! Steihaug):
//!
//! * a sweep solves its Brent roots to `ε = clamp(0.01·r, 1e-13, 1e-4)`,
//!   absolute and relative, where `r` is the update of the solve's latest
//!   sweep (`∞` before the first). Only sweep updates set `r`: a declined
//!   attempt's residual measures the wrong active set;
//! * **certification floor**: a sweep in which any best response ended on
//!   a root solved to `ε > 1e-13` reports `max(update, ε)` as its
//!   residual, so only a sweep with `ε ≤ tol` can declare convergence.
//!   The corner classifications, a hint where `u_i = 0` and the grid-scan
//!   fallback are exact and raise no floor, so a `q = 0` solve or an
//!   all-corner sweep still certifies in one sweep;
//! * **exact after an unmeasured decline**: when an attempt declined
//!   before measuring any step (kink, non-finite value, singular block),
//!   the corrector cannot finish there, so the next sweep runs at 1e-13.
//!
//! Run alone, with every root solved to 1e-13, the sweep is the
//! corrector's oracle, [`NashSolver::solve_by_sweeps_into`], which no
//! production path calls. Damped Jacobi sweeps (simultaneous responses,
//! `s ← (1−ω) s + ω BR(s)`), exact and without Newton steps, are the
//! independent cross-check and the paper's stability story:
//! [`NashSolver::solve_jacobi_into`]. Under Theorem 4 all of them settle
//! on the same unique equilibrium.
//!
//! **Effort.** A Newton step and a sweep each count as one iteration
//! against `max_sweeps` and [`SolveBudget`]; [`SolveStats`] splits the
//! two and counts the fixed-point probes of the sweeps' best responses,
//! and [`SolveWorkspace::grid_fallbacks`] their grid-scan fallbacks. A
//! step that cannot measure its residual (kink, non-finite value,
//! singular block) ends its attempt without counting, so a partial or
//! [`NumError::MaxIterations`] answer always carries a finite residual.
//!
//! The returned [`NashSolution`] carries the full solved state and
//! diagnostics, and [`crate::equilibrium::verify_equilibrium`] gives an
//! independent KKT/deviation certificate.

use crate::best_response::{best_response_into, profile_populations, Origin, EXACT_ROOT_TOL};
use crate::equilibrium::PIN_TOL;
use crate::game::{PhiChain, SubsidyGame};
use crate::sensitivity::Pin;
use crate::workspace::{SolveBudget, SolveWorkspace};
use subcomp_model::system::SystemState;
use subcomp_num::linalg::vector::{copy_clamped, sub_inf_norm};
use subcomp_num::{NumError, NumResult};

/// Most Newton steps one corrector attempt takes before it declines.
pub const NEWTON_MAX_STEPS: usize = 8;

/// The forcing term of a corrector sweep: its interior roots are solved
/// to `FORCING` times the latest sweep update (module docs).
const FORCING: f64 = 0.01;

/// The loosest root tolerance a corrector sweep uses (its first one).
const LOOSEST_ROOT_TOL: f64 = 1e-4;

/// A solved equilibrium (or the best iterate when not converged).
#[derive(Debug, Clone, PartialEq)]
pub struct NashSolution {
    /// Equilibrium subsidies `s*`.
    pub subsidies: Vec<f64>,
    /// Solved system state at `s*`.
    pub state: SystemState,
    /// Utilities `U_i(s*)`.
    pub utilities: Vec<f64>,
    /// Iterations performed: best-response sweeps plus Newton steps.
    pub iterations: usize,
    /// Sup-norm of the final update (see [`SolveStats::residual`]).
    pub residual: f64,
    /// Whether the residual met the tolerance within the budget.
    pub converged: bool,
}

impl NashSolution {
    /// ISP revenue `p · θ(s*)` at this equilibrium (price from `game`).
    pub fn isp_revenue(&self, game: &SubsidyGame) -> f64 {
        game.price() * self.state.theta()
    }

    /// System welfare `W = Σ v_i θ_i` at this equilibrium.
    pub fn welfare(&self, game: &SubsidyGame) -> f64 {
        (0..game.n()).map(|i| game.profitability(i) * self.state.theta_i[i]).sum()
    }

    /// Bundles the solve's health indicators with the independent
    /// Theorem 3 certificate into one snapshot-friendly record.
    pub fn diagnostics(&self, game: &SubsidyGame) -> NumResult<SolveDiagnostics> {
        let report = crate::equilibrium::verify_equilibrium(game, &self.subsidies)?;
        let pin = crate::equilibrium::PIN_TOL;
        let mut pinned_low = 0usize;
        let mut pinned_high = 0usize;
        for (i, &s) in self.subsidies.iter().enumerate() {
            if s <= pin {
                pinned_low += 1;
            } else if s >= game.effective_cap(i) - pin {
                pinned_high += 1;
            }
        }
        Ok(SolveDiagnostics {
            iterations: self.iterations,
            residual: self.residual,
            converged: self.converged,
            max_kkt_residual: report.max_kkt_residual,
            max_threshold_residual: report.max_threshold_residual,
            pinned_low,
            pinned_high,
            interior: self.subsidies.len() - pinned_low - pinned_high,
        })
    }
}

/// Solver-health and certificate diagnostics of one Nash solve — the
/// record the golden-snapshot regression tier pins per scenario, so that
/// a refactor that degrades convergence (not just the answer) is caught.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveDiagnostics {
    /// Iterations performed: best-response sweeps plus Newton steps.
    pub iterations: usize,
    /// Sup-norm of the final update (see [`SolveStats::residual`]).
    pub residual: f64,
    /// Whether the solve met its tolerance.
    pub converged: bool,
    /// Maximum KKT residual over providers (Theorem 3 certificate).
    pub max_kkt_residual: f64,
    /// Maximum threshold residual `|s_i − min{τ_i, q}|`.
    pub max_threshold_residual: f64,
    /// Providers pinned at `s_i = 0`.
    pub pinned_low: usize,
    /// Providers pinned at the effective cap `min(q, v_i)`.
    pub pinned_high: usize,
    /// Providers strictly inside their strategy box.
    pub interior: usize,
}

/// Nash solver: Gauss–Seidel best-response sweeps corrected by Newton
/// steps on the guessed active set (module docs).
#[derive(Debug, Clone, Copy)]
pub struct NashSolver {
    /// Convergence threshold on the sup-norm update (a sweep's, or a
    /// Newton step's `max(‖δ‖∞, pinned violation)`).
    pub tol: f64,
    /// Maximum iterations: sweeps plus Newton steps.
    pub max_sweeps: usize,
}

impl Default for NashSolver {
    fn default() -> Self {
        NashSolver { tol: 1e-9, max_sweeps: 600 }
    }
}

impl NashSolver {
    /// Returns a copy with a different convergence threshold.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol.max(0.0);
        self
    }

    /// Returns a copy with a different iteration ceiling (sweeps plus
    /// Newton steps).
    pub fn with_max_sweeps(mut self, n: usize) -> Self {
        self.max_sweeps = n.max(1);
        self
    }

    /// Solves from the no-subsidy profile `s = 0` (the paper's baseline).
    ///
    /// Thin wrapper over [`NashSolver::solve_into`] with a throwaway
    /// workspace; batch callers should hold a [`SolveWorkspace`] and call
    /// the engine directly to solve allocation-free.
    pub fn solve(&self, game: &SubsidyGame) -> NumResult<NashSolution> {
        let mut ws = SolveWorkspace::for_game(game);
        let stats = self.solve_into(game, WarmStart::Zero, &mut ws)?;
        Ok(ws.solution(stats))
    }

    /// The allocation-free solve engine. Runs the same iteration as
    /// [`NashSolver::solve`] — bit-identical iterates, residuals and
    /// iteration counts — but every transient lives in the caller-owned
    /// `ws`: after a first solve at a given size (warm-up), repeated calls
    /// perform **zero heap allocation** (asserted by the counting-allocator
    /// suite). On success the solution is left in the workspace
    /// ([`SolveWorkspace::subsidies`], [`SolveWorkspace::state`],
    /// [`SolveWorkspace::utilities`]).
    pub fn solve_into(
        &self,
        game: &SubsidyGame,
        start: WarmStart<'_>,
        ws: &mut SolveWorkspace,
    ) -> NumResult<SolveStats> {
        self.solve_into_budgeted(game, start, ws, SolveBudget::unlimited())
    }

    /// [`NashSolver::solve_into`] under a deterministic [`SolveBudget`]:
    /// the one solve entry point, which every other solve wraps.
    ///
    /// The budget is an iteration ceiling — a Gauss–Seidel sweep or a
    /// Newton step each count one — checked inside the loop (an integer
    /// compare: no allocation, no clock). When it fires before
    /// convergence the engine does **not** error: it assembles the full
    /// state and utilities at the best iterate and returns
    /// `Ok(SolveStats { converged: false, .. })`, so a serving layer can
    /// degrade to a partial answer instead of spinning or failing. If it
    /// fires inside a Newton attempt, the best iterate is the one the
    /// attempt started from. A budget at or above the solver's own
    /// `max_sweeps` never fires — running out of `max_sweeps` stays the
    /// usual [`NumError::MaxIterations`] — and an unlimited budget makes
    /// this bit-identical to [`NashSolver::solve_into`]. Either way the
    /// residual reported is finite.
    pub fn solve_into_budgeted(
        &self,
        game: &SubsidyGame,
        start: WarmStart<'_>,
        ws: &mut SolveWorkspace,
        budget: SolveBudget,
    ) -> NumResult<SolveStats> {
        self.iterate(game, start, ws, budget, Sweeps::Corrected)
    }

    /// The Newton corrector's oracle: [`NashSolver::solve_into_budgeted`]
    /// with every iteration a best-response sweep, every root solved to
    /// 1e-13, and no Newton step. Like
    /// [`crate::best_response::grid_best_response`] for the threshold
    /// search, it runs on no production path; tests and benches hold the
    /// corrector to it (`tests/newton_oracle.rs`).
    pub fn solve_by_sweeps_into(
        &self,
        game: &SubsidyGame,
        start: WarmStart<'_>,
        ws: &mut SolveWorkspace,
        budget: SolveBudget,
    ) -> NumResult<SolveStats> {
        self.iterate(game, start, ws, budget, Sweeps::GaussSeidel)
    }

    /// The independent cross-check: damped Jacobi sweeps, where every
    /// provider responds to the previous iterate and the iterate moves to
    /// `(1−ω) s + ω BR(s)`, every root solved to 1e-13, no Newton step and
    /// no budget. Like [`NashSolver::solve_by_sweeps_into`] it runs on no
    /// serving path; the scenario corpus reports its distance to the
    /// engine's answer, and it is allocation-free on a warm workspace.
    ///
    /// # Errors
    /// A damping `ω` outside `(0, 1]` is refused with a domain error.
    pub fn solve_jacobi_into(
        &self,
        game: &SubsidyGame,
        start: WarmStart<'_>,
        ws: &mut SolveWorkspace,
        damping: f64,
    ) -> NumResult<SolveStats> {
        if !(damping > 0.0 && damping <= 1.0) {
            return Err(NumError::Domain {
                what: "Jacobi damping must lie in (0, 1]",
                value: damping,
            });
        }
        self.iterate(game, start, ws, SolveBudget::unlimited(), Sweeps::Jacobi(damping))
    }

    /// The iteration behind every entry point: before each sweep, a
    /// Newton attempt and the sweep's forcing tolerance for
    /// [`Sweeps::Corrected`], exact sweeps otherwise (module docs).
    fn iterate(
        &self,
        game: &SubsidyGame,
        start: WarmStart<'_>,
        ws: &mut SolveWorkspace,
        budget: SolveBudget,
        sweeps: Sweeps,
    ) -> NumResult<SolveStats> {
        if let WarmStart::Profile(s0) = start {
            game.validate(s0)?;
        }
        let n = game.n();
        ws.ensure(game);
        if n == 0 {
            game.state_into(&[], f64::NAN, &mut ws.m, &mut ws.scratch, &mut ws.state)?;
            return Ok(SolveStats {
                iterations: 0,
                newton_steps: 0,
                probes: 0,
                residual: 0.0,
                converged: true,
            });
        }
        // Clamp the start into the effective box [0, min(q, v_i)].
        match start {
            WarmStart::Zero => ws.s.fill(0.0),
            WarmStart::Profile(s0) => copy_clamped(s0, 0.0, &ws.caps, &mut ws.s),
            WarmStart::Previous => {
                // `ensure` preserved the previous iterate (padding with
                // zeros on growth); re-clamp it into the new game's box.
                for i in 0..n {
                    ws.s[i] = ws.s[i].clamp(0.0, ws.caps[i]);
                }
            }
        }
        let newton = matches!(sweeps, Sweeps::Corrected);
        let jacobi = match sweeps {
            Sweeps::Jacobi(omega) => Some(omega),
            Sweeps::Corrected | Sweeps::GaussSeidel => None,
        };
        // Each probe's φ solve starts from the previous probe's root. The
        // chain is local and starts cold, so the answer stays a pure
        // function of (game, start) whatever workspace runs it.
        let mut chain = PhiChain::COLD;
        let limit = budget.max_sweeps().min(self.max_sweeps);
        let mut stats = SolveStats {
            iterations: 0,
            newton_steps: 0,
            probes: 0,
            residual: f64::INFINITY,
            converged: false,
        };
        ws.grid_fallbacks = 0;
        // The latest sweep's update sets the next sweep's forcing
        // tolerance; a Newton attempt's residual never does.
        let mut update = f64::INFINITY;
        while stats.iterations < limit {
            let mut exact = !newton;
            if newton {
                match self.newton_attempt(game, ws, &mut stats, limit) {
                    Attempt::Accepted => {
                        stats.converged = true;
                        break;
                    }
                    // The corrector cannot finish here, so the sweep must.
                    Attempt::Unmeasured => exact = true,
                    Attempt::Declined => {}
                }
            }
            if stats.iterations >= limit {
                break;
            }
            let root_tol = if exact {
                EXACT_ROOT_TOL
            } else {
                (FORCING * update).clamp(EXACT_ROOT_TOL, LOOSEST_ROOT_TOL)
            };
            update = sweep(game, ws, jacobi, root_tol, &mut chain, &mut stats)?;
            if stats.residual <= self.tol {
                stats.converged = true;
                break;
            }
        }
        // A budget at or above max_sweeps defers to the MaxIterations
        // error, so unlimited budgets stay bit-identical to the
        // un-budgeted engine. A smaller one degrades, don't error: the
        // best iterate is a legitimate (partial) answer.
        if !stats.converged && budget.max_sweeps() >= self.max_sweeps {
            return Err(NumError::MaxIterations {
                max_iter: self.max_sweeps,
                residual: stats.residual,
            });
        }
        // The answer's state is solved cold: a snapshot of it is exactly
        // the state a Theorem 6 read would solve at the answer.
        game.state_into(&ws.s, f64::NAN, &mut ws.m, &mut ws.scratch, &mut ws.state)?;
        for i in 0..n {
            ws.utilities[i] = game.utility_at_state(i, &ws.s, &ws.state);
        }
        Ok(stats)
    }

    /// One corrector attempt from the current iterate (module docs).
    /// When accepted, the answer is in `ws.s` and its residual in
    /// `stats`. Otherwise `ws.s` is back at the pre-attempt iterate, and a
    /// residual still unmeasured becomes the first step's, taken from
    /// that iterate.
    fn newton_attempt(
        &self,
        game: &SubsidyGame,
        ws: &mut SolveWorkspace,
        stats: &mut SolveStats,
        limit: usize,
    ) -> Attempt {
        if !ws.guess_active_set() {
            return Attempt::Declined;
        }
        ws.saved.copy_from_slice(&ws.s);
        // The pinned providers move onto their corners: part of the
        // first step.
        let mut snap = 0.0f64;
        for i in 0..game.n() {
            let corner = match ws.pins[i] {
                Pin::Lower => 0.0,
                Pin::Upper => ws.caps[i],
                Pin::Interior => continue,
            };
            snap = snap.max((ws.s[i] - corner).abs());
            ws.s[i] = corner;
        }
        let (mut first, mut prev) = (None, f64::INFINITY);
        // The first step's state solve starts cold; each later one at the
        // first-order prediction of the step before it.
        let mut seed = f64::NAN;
        for _ in 0..NEWTON_MAX_STEPS {
            if stats.iterations >= limit {
                break;
            }
            let Some((step, violation)) = ws.newton_step(game, seed) else { break };
            seed = ws.predicted_phi();
            let step = step.max(std::mem::take(&mut snap));
            let residual = step.max(violation);
            stats.iterations += 1;
            stats.newton_steps += 1;
            first.get_or_insert(residual);
            let accept = residual <= self.tol;
            // A converged interior with residual left over means a
            // pinned sign contradicts its pin: the guess is wrong.
            if !accept && (step <= self.tol || residual > 0.5 * prev) {
                break;
            }
            if !ws.take_newton_step(self.tol) {
                break;
            }
            if accept {
                stats.residual = residual;
                return Attempt::Accepted;
            }
            prev = residual;
        }
        ws.s.copy_from_slice(&ws.saved);
        let Some(first) = first else {
            return Attempt::Unmeasured;
        };
        if !stats.residual.is_finite() {
            stats.residual = first;
        }
        Attempt::Declined
    }
}

/// The sweeps [`NashSolver::iterate`] runs, one per entry point.
#[derive(Debug, Clone, Copy)]
enum Sweeps {
    /// Gauss–Seidel at the forcing tolerance, each preceded by a Newton
    /// attempt: the engine.
    Corrected,
    /// Exact Gauss–Seidel alone: the corrector's oracle.
    GaussSeidel,
    /// Exact Jacobi alone, damped by `ω`: the cross-check.
    Jacobi(f64),
}

/// One best-response sweep of `ws.s` in place, interior roots solved to
/// `root_tol`: Gauss–Seidel, or Jacobi damped by `ω` when `jacobi` is
/// `Some(ω)`. Counts it, its probes and its grid fallbacks, and returns
/// the sup-norm of its update. The residual it reports is the update,
/// floored at `root_tol` when any response is an inexact root: such a
/// sweep cannot measure an update below its own precision.
fn sweep(
    game: &SubsidyGame,
    ws: &mut SolveWorkspace,
    jacobi: Option<f64>,
    root_tol: f64,
    chain: &mut PhiChain,
    stats: &mut SolveStats,
) -> NumResult<f64> {
    ws.next.copy_from_slice(&ws.s);
    // Gauss–Seidel responds to the freshest profile, Jacobi to the
    // previous iterate, which the sweep leaves untouched. A response moves
    // one component, so the populations are filled once and `ws.m` is kept
    // at the profile the next response sees.
    profile_populations(game, &ws.s, &mut ws.m)?;
    let mut floor = 0.0f64;
    for i in 0..game.n() {
        // Either way the search is seeded at `ws.s[i]`: provider `i` has
        // not been updated yet.
        let br = best_response_into(game, i, ws.s[i], root_tol, &mut ws.m, chain, &mut ws.scratch)?;
        match br.origin {
            Origin::Exact => {}
            Origin::Inexact => floor = root_tol,
            Origin::Grid => ws.grid_fallbacks += 1,
        }
        stats.probes += br.evaluations;
        ws.next[i] = match jacobi {
            Some(omega) => (1.0 - omega) * ws.s[i] + omega * br.s,
            None => br.s,
        };
        let basis_i = if jacobi.is_some() { ws.s[i] } else { ws.next[i] };
        ws.m[i] = game.population_at(i, basis_i);
    }
    let update = sub_inf_norm(&ws.s, &ws.next);
    std::mem::swap(&mut ws.s, &mut ws.next);
    stats.iterations += 1;
    stats.residual = update.max(floor);
    Ok(update)
}

/// How a corrector attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attempt {
    /// Converged: the answer is in the workspace.
    Accepted,
    /// Declined after a measured step, or never started (empty guessed
    /// interior).
    Declined,
    /// Declined before measuring any step: a kink, a non-finite value or
    /// a singular block.
    Unmeasured,
}

/// Starting profile for [`NashSolver::solve_into`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WarmStart<'a> {
    /// The paper's baseline `s = 0` (what [`NashSolver::solve`] uses).
    Zero,
    /// An explicit profile, validated against the game then clamped into
    /// the effective box.
    Profile(&'a [f64]),
    /// Reuse whatever iterate the workspace holds — the one warm-start
    /// rule: start from the neighbour's equilibrium (a grid row's
    /// previous point, a server slot's last iterate, a batch block's
    /// previous game), so consecutive solves of nearby games converge in
    /// a few Newton steps. Dimension changes are padded with zeros; the
    /// iterate is re-clamped into the new game's box. Falls back to
    /// `Zero` behaviour on a fresh workspace.
    Previous,
}

/// Health summary of one [`NashSolver::solve_into`] run; the solution
/// itself stays in the workspace. `iterations`, `residual` and
/// `converged` mirror the fields of [`NashSolution`] bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Iterations performed — best-response sweeps plus Newton steps —
    /// the unit `max_sweeps` and [`SolveBudget`] count.
    pub iterations: usize,
    /// Newton steps among the iterations.
    pub newton_steps: usize,
    /// Fixed-point probes made by the solve's best responses (the sum of
    /// their [`crate::best_response::BestResponse::evaluations`]).
    pub probes: usize,
    /// Sup-norm of the final update, in subsidy units: the last sweep's,
    /// or the accepted Newton step's `max(‖δ‖∞, pinned violation)`. A
    /// sweep that solved a root to a forcing tolerance reports at least
    /// that tolerance. A partial answer left inside a Newton attempt
    /// reports the update that measured the iterate it returns.
    pub residual: f64,
    /// Whether the residual met the tolerance within the budget.
    pub converged: bool,
}

impl SolveStats {
    /// Best-response sweeps among the iterations.
    pub fn gs_sweeps(&self) -> usize {
        self.iterations - self.newton_steps
    }
}

impl SolveWorkspace {
    /// Clones the workspace's solution out into an owning [`NashSolution`]
    /// (the one allocation the thin `solve` wrapper makes).
    pub fn solution(&self, stats: SolveStats) -> NashSolution {
        NashSolution {
            subsidies: self.subsidies().to_vec(),
            state: self.state().clone(),
            utilities: self.utilities().to_vec(),
            iterations: stats.iterations,
            residual: stats.residual,
            converged: stats.converged,
        }
    }

    /// Guesses the active set at the current iterate against the solver's
    /// box `[0, min(q, v_i)]` into `pins` and `interior`; returns whether
    /// the guessed interior is non-empty.
    fn guess_active_set(&mut self) -> bool {
        self.interior.clear();
        for (i, (&si, &cap)) in self.s.iter().zip(&self.caps).enumerate() {
            self.pins[i] = Pin::of(si, cap);
            if self.pins[i] == Pin::Interior {
                self.interior.push(i);
            }
        }
        !self.interior.is_empty()
    }

    /// One Newton step at the current iterate on the frozen guess: solves
    /// the state (φ's iteration started at `seed`), every `u_i` and the
    /// Jacobian factors there, and `J_ÑÑ δ = −u_Ñ` into `step`. Returns
    /// `(‖δ_Ñ‖∞, pinned violation)`, or `None` when the step cannot be
    /// measured: an interior provider on (within [`PIN_TOL`], like a
    /// corner) or past the clamped `t = 0` kink, a failed state solve, a
    /// non-finite value or a singular block.
    fn newton_step(&mut self, game: &SubsidyGame, seed: f64) -> Option<(f64, f64)> {
        let p = game.price();
        if game.clamps_effective_price() && self.interior.iter().any(|&i| p - self.s[i] <= PIN_TOL)
        {
            return None;
        }
        game.state_into(&self.s, seed, &mut self.m, &mut self.scratch, &mut self.state).ok()?;
        self.jac.assemble(game, &self.s, &self.state);
        let (mut violation, mut slot) = (0.0f64, 0);
        for i in 0..game.n() {
            let u = game.marginal_utility_at_state(i, &self.s, &self.state);
            if !u.is_finite() {
                return None;
            }
            let wrong_sign = match self.pins[i] {
                Pin::Interior => {
                    self.rhs[slot] = -u;
                    slot += 1;
                    continue;
                }
                Pin::Lower => u > 0.0,
                Pin::Upper => u < 0.0,
            };
            if wrong_sign {
                // How far a projected step would move it: its Newton
                // displacement, at most the width of its box.
                let shift = (u / self.jac.entry(i, i)).abs();
                if shift.is_nan() {
                    return None;
                }
                violation = violation.max(shift.min(self.caps[i]));
            }
        }
        let k = self.interior.len();
        self.jac.solve(&self.interior, &self.rhs[..k], &mut self.step[..k]).ok()?;
        let step = &self.step[..k];
        if step.iter().any(|x| !x.is_finite()) {
            return None;
        }
        Some((step.iter().fold(0.0f64, |m, x| m.max(x.abs())), violation))
    }

    /// φ after the last step, to first order: `φ + Σ_{j∈Ñ} φ_j δ_j` with
    /// the step's own `∂φ/∂s_j` column of the factors.
    fn predicted_phi(&self) -> f64 {
        let step = self.interior.iter().zip(&self.step);
        step.fold(self.state.phi, |phi, (&j, &d)| phi + self.jac.dphi_ds(j) * d)
    }

    /// Moves the interior by the last step, `s_Ñ ← clamp(s_Ñ + δ_Ñ)`.
    /// Returns `false`, leaving the iterate partly moved, when the step
    /// leaves the box by more than `tol`.
    fn take_newton_step(&mut self, tol: f64) -> bool {
        for (&i, &d) in self.interior.iter().zip(&self.step) {
            let x = self.s[i] + d;
            if x < -tol || x > self.caps[i] + tol {
                return false;
            }
            self.s[i] = x.clamp(0.0, self.caps[i]);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcomp_model::aggregation::{build_system, ExpCpSpec};

    fn paper_game(p: f64, q: f64) -> SubsidyGame {
        let mut specs = Vec::new();
        for &v in &[0.5, 1.0] {
            for &alpha in &[2.0, 5.0] {
                for &beta in &[2.0, 5.0] {
                    specs.push(ExpCpSpec::unit(alpha, beta, v));
                }
            }
        }
        SubsidyGame::new(build_system(&specs, 1.0).unwrap(), p, q).unwrap()
    }

    fn equilibrium(p: f64, q: f64) -> Vec<f64> {
        NashSolver::default().solve(&paper_game(p, q)).unwrap().subsidies
    }

    #[test]
    fn solves_paper_section5_game() {
        let game = paper_game(0.5, 1.0);
        let eq = NashSolver::default().solve(&game).unwrap();
        assert!(eq.converged);
        assert!(eq.residual <= 1e-9);
        // All subsidies feasible.
        for (i, &si) in eq.subsidies.iter().enumerate() {
            assert!(si >= 0.0 && si <= game.effective_cap(i) + 1e-12);
        }
    }

    #[test]
    fn gauss_seidel_and_jacobi_agree() {
        // Theorem 4 uniqueness: independent solvers land on the same point.
        let game = paper_game(0.7, 0.6);
        let gs = NashSolver::default().solve(&game).unwrap();
        let mut ws = SolveWorkspace::for_game(&game);
        NashSolver::default().solve_jacobi_into(&game, WarmStart::Zero, &mut ws, 0.7).unwrap();
        for (i, (a, b)) in gs.subsidies.iter().zip(ws.subsidies()).enumerate() {
            assert!((a - b).abs() < 1e-6, "CP {i}: GS {a} vs Jacobi {b}");
        }
    }

    #[test]
    fn warm_start_agrees_with_cold_start() {
        let game = paper_game(0.9, 1.0);
        let cold = NashSolver::default().solve(&game).unwrap();
        let mut ws = SolveWorkspace::for_game(&game);
        let warm = NashSolver::default()
            .solve_into(&game, WarmStart::Profile(&[0.3; 8]), &mut ws)
            .unwrap();
        for (a, b) in cold.subsidies.iter().zip(ws.subsidies()) {
            assert!((a - b).abs() < 1e-6);
        }
        assert!(warm.iterations <= cold.iterations + 5);
    }

    #[test]
    fn zero_cap_yields_zero_subsidies() {
        // q = 0 leaves no interior to guess: one sweep, no Newton step.
        let game = paper_game(0.5, 0.0);
        let eq = NashSolver::default().solve(&game).unwrap();
        assert!(eq.subsidies.iter().all(|&s| s == 0.0));
        assert!(eq.converged);
        assert_eq!(eq.iterations, 1);
        let mut ws = SolveWorkspace::for_game(&game);
        let stats = NashSolver::default().solve_into(&game, WarmStart::Zero, &mut ws).unwrap();
        assert_eq!((stats.iterations, stats.newton_steps), (1, 0));
    }

    #[test]
    fn profitable_cps_subsidize_more() {
        // Figure 8's headline pattern: v = 1 types out-subsidize v = 0.5
        // types with the same (alpha, beta).
        let game = paper_game(0.5, 1.0);
        let eq = NashSolver::default().solve(&game).unwrap();
        // Spec order: v=0.5 block (0..4), v=1.0 block (4..8), same
        // (alpha, beta) order within each block.
        for k in 0..4 {
            assert!(
                eq.subsidies[4 + k] >= eq.subsidies[k] - 1e-9,
                "type {k}: v=1 subsidy {} < v=0.5 subsidy {}",
                eq.subsidies[4 + k],
                eq.subsidies[k]
            );
        }
    }

    #[test]
    fn high_alpha_cps_subsidize_more() {
        // Figure 8: demand-elastic types (alpha = 5) subsidize more than
        // alpha = 2 types at the same (beta, v).
        let game = paper_game(0.5, 1.0);
        let eq = NashSolver::default().solve(&game).unwrap();
        // Within each v block: indices 0,1 are alpha=2; 2,3 are alpha=5.
        for blk in [0usize, 4] {
            for b in 0..2 {
                assert!(
                    eq.subsidies[blk + 2 + b] >= eq.subsidies[blk + b] - 1e-9,
                    "block {blk} beta-index {b}"
                );
            }
        }
    }

    #[test]
    fn empty_game() {
        let sys = build_system(&[], 1.0).unwrap();
        let game = SubsidyGame::new(sys, 0.5, 1.0).unwrap();
        let eq = NashSolver::default().solve(&game).unwrap();
        assert!(eq.converged);
        assert!(eq.subsidies.is_empty());
    }

    #[test]
    fn solution_accessors() {
        let game = paper_game(0.5, 1.0);
        let eq = NashSolver::default().solve(&game).unwrap();
        assert!((eq.isp_revenue(&game) - 0.5 * eq.state.theta()).abs() < 1e-12);
        let w: f64 = (0..8).map(|i| game.profitability(i) * eq.state.theta_i[i]).sum();
        assert!((eq.welfare(&game) - w).abs() < 1e-12);
    }

    #[test]
    fn diagnostics_report_certificates_and_active_set() {
        let game = paper_game(0.5, 1.0);
        let eq = NashSolver::default().solve(&game).unwrap();
        let d = eq.diagnostics(&game).unwrap();
        assert!(d.converged);
        assert_eq!(d.iterations, eq.iterations);
        assert!(d.max_kkt_residual < 1e-5, "kkt {}", d.max_kkt_residual);
        assert!(d.max_threshold_residual < 1e-5);
        assert_eq!(d.pinned_low + d.pinned_high + d.interior, 8);
        // At q = 0 everyone is pinned low.
        let flat = paper_game(0.5, 0.0);
        let eq0 = NashSolver::default().solve(&flat).unwrap();
        let d0 = eq0.diagnostics(&flat).unwrap();
        assert_eq!(d0.pinned_low, 8);
        assert_eq!(d0.interior, 0);
    }

    #[test]
    fn equilibrium_is_a_grid_oracle_fixed_point() {
        // The solver runs the threshold search; at its equilibrium the
        // independent grid-scan best response of every provider must land
        // back on `s_i*`, well within the sweep tolerance, across interior
        // and corner-heavy regimes.
        use crate::best_response::grid_best_response;
        for (p, q) in [(0.5, 1.0), (0.2, 0.4), (1.2, 0.8), (0.6, 0.0)] {
            let game = paper_game(p, q);
            let eq = NashSolver::default().with_tol(1e-9).solve(&game).unwrap();
            assert!(eq.converged);
            for i in 0..8 {
                let grid = grid_best_response(&game, i, &eq.subsidies).unwrap();
                assert!(
                    (grid.s - eq.subsidies[i]).abs() < 1e-7,
                    "(p={p}, q={q}) CP {i}: equilibrium {} vs grid best response {}",
                    eq.subsidies[i],
                    grid.s
                );
            }
        }
    }

    #[test]
    fn budgeted_solve_degrades_to_partial_instead_of_erroring() {
        use crate::workspace::SolveBudget;
        let game = paper_game(0.5, 1.0);
        let solver = NashSolver::default();
        let mut ws = SolveWorkspace::for_game(&game);
        let full = solver.solve_into(&game, WarmStart::Zero, &mut ws).unwrap();
        assert!(full.converged);
        assert!(full.iterations > 2, "need a multi-sweep solve for the budget to bite");

        // A starved budget returns the best iterate, fully assembled.
        let mut starved_ws = SolveWorkspace::for_game(&game);
        let partial = solver
            .solve_into_budgeted(&game, WarmStart::Zero, &mut starved_ws, SolveBudget::sweeps(2))
            .unwrap();
        assert!(!partial.converged);
        assert_eq!(partial.iterations, 2);
        assert!(partial.residual > solver.tol);
        assert!(partial.residual.is_finite());
        // The partial state/utilities are assembled at the best iterate.
        assert!(starved_ws.state().phi.is_finite());
        assert!(starved_ws.utilities().iter().all(|u| u.is_finite()));

        // An unlimited budget is bit-identical to the un-budgeted engine.
        let mut ws2 = SolveWorkspace::for_game(&game);
        let unlimited = solver
            .solve_into_budgeted(&game, WarmStart::Zero, &mut ws2, SolveBudget::unlimited())
            .unwrap();
        assert_eq!(unlimited.iterations, full.iterations);
        assert_eq!(unlimited.residual.to_bits(), full.residual.to_bits());
        for i in 0..ws.subsidies().len() {
            assert_eq!(ws.subsidies()[i].to_bits(), ws2.subsidies()[i].to_bits());
        }

        // A budget at or above max_sweeps defers to the MaxIterations
        // error path (never a silent partial).
        let tight = NashSolver::default().with_tol(0.0).with_max_sweeps(3);
        let mut ws3 = SolveWorkspace::for_game(&game);
        let err =
            tight.solve_into_budgeted(&game, WarmStart::Zero, &mut ws3, SolveBudget::sweeps(3));
        assert!(matches!(err, Err(NumError::MaxIterations { max_iter: 3, .. })));
    }

    #[test]
    fn newton_corrector_agrees_with_the_sweep_oracle() {
        // Every regime of the §5 market, cold and warm: the corrected
        // solve lands within 1e-8 of the pure sweep engine, mostly by
        // Newton steps once it has a non-empty interior to guess.
        let solver = NashSolver::default();
        let oracle = |game: &SubsidyGame, start: WarmStart<'_>| {
            let mut ws = SolveWorkspace::for_game(game);
            solver.solve_by_sweeps_into(game, start, &mut ws, SolveBudget::unlimited()).unwrap();
            ws.subsidies().to_vec()
        };
        let mut newton_steps = 0;
        for (p, q) in [(0.5, 1.0), (0.2, 0.4), (1.2, 0.8), (0.6, 0.35), (0.9, 2.0)] {
            let game = paper_game(p, q);
            let nearby = equilibrium(p * 1.02, q);
            for start in [WarmStart::Zero, WarmStart::Profile(&nearby)] {
                let mut ws = SolveWorkspace::for_game(&game);
                let stats = solver.solve_into(&game, start, &mut ws).unwrap();
                assert!(stats.converged && stats.residual <= solver.tol);
                let reference = oracle(&game, start);
                for (i, (a, b)) in ws.subsidies().iter().zip(&reference).enumerate() {
                    assert!((a - b).abs() <= 1e-8, "(p={p}, q={q}) CP {i}: {a} vs oracle {b}");
                }
                assert_eq!(ws.newton_dense_fallbacks(), 0);
                newton_steps += stats.newton_steps;
            }
        }
        assert!(newton_steps > 0, "the corrector never ran");
    }

    #[test]
    fn warm_start_at_an_equilibrium_is_accepted_without_a_sweep() {
        let game = paper_game(0.6, 0.35);
        let eq = NashSolver::default().solve(&game).unwrap();
        assert!(eq.diagnostics(&game).unwrap().interior > 0);
        let mut ws = SolveWorkspace::for_game(&game);
        let stats = NashSolver::default()
            .solve_into(&game, WarmStart::Profile(&eq.subsidies), &mut ws)
            .unwrap();
        assert!(stats.converged);
        assert_eq!((stats.iterations, stats.newton_steps, stats.gs_sweeps()), (1, 1, 0));
        for (a, b) in ws.subsidies().iter().zip(&eq.subsidies) {
            assert!((a - b).abs() <= 1e-12);
        }
    }

    #[test]
    fn budget_exhausted_mid_attempt_returns_the_pre_attempt_iterate() {
        // From a nearby equilibrium the corrector converges by Newton
        // alone, in more than one step; a one-iteration budget therefore
        // stops it inside its first attempt.
        let game = paper_game(0.5, 1.0);
        let start = equilibrium(0.55, 1.0);
        let solver = NashSolver::default();
        let mut ws = SolveWorkspace::for_game(&game);
        let full = solver.solve_into(&game, WarmStart::Profile(&start), &mut ws).unwrap();
        assert!(full.converged && full.gs_sweeps() == 0 && full.newton_steps >= 2, "{full:?}");

        let partial = solver
            .solve_into_budgeted(&game, WarmStart::Profile(&start), &mut ws, SolveBudget::sweeps(1))
            .unwrap();
        assert!(!partial.converged);
        assert_eq!((partial.iterations, partial.newton_steps), (1, 1));
        assert!(partial.residual.is_finite() && partial.residual > solver.tol);
        for (i, (&s, &s0)) in ws.subsidies().iter().zip(&start).enumerate() {
            assert_eq!(s.to_bits(), s0.to_bits(), "CP {i} left the pre-attempt iterate");
            assert!(s >= 0.0 && s <= game.effective_cap(i));
        }
        assert!(ws.state().phi.is_finite());
        assert!(ws.utilities().iter().all(|u| u.is_finite()));
        // The same cut under max_sweeps is an error, with a finite residual.
        let capped = solver.with_max_sweeps(1);
        match capped.solve_into(&game, WarmStart::Profile(&start), &mut ws) {
            Err(NumError::MaxIterations { max_iter: 1, residual }) => {
                assert_eq!(residual.to_bits(), partial.residual.to_bits())
            }
            other => panic!("expected MaxIterations, got {other:?}"),
        }
    }

    #[test]
    fn cold_one_iteration_partial_is_a_forced_sweep() {
        // A cold start guesses an empty interior, so its first iteration
        // is a sweep, with roots forced to 1e-4: it lands near the
        // oracle's exact sweep and never reports a residual below the
        // precision it solved to.
        let game = paper_game(0.5, 1.0);
        let solver = NashSolver::default();
        let budget = SolveBudget::sweeps(1);
        let mut ws = SolveWorkspace::for_game(&game);
        let got = solver.solve_into_budgeted(&game, WarmStart::Zero, &mut ws, budget).unwrap();
        let mut oracle_ws = SolveWorkspace::for_game(&game);
        let want =
            solver.solve_by_sweeps_into(&game, WarmStart::Zero, &mut oracle_ws, budget).unwrap();
        assert!(!got.converged && !want.converged);
        assert_eq!((got.iterations, got.newton_steps), (1, 0));
        assert!(got.residual >= LOOSEST_ROOT_TOL, "residual {:e}", got.residual);
        assert!(got.probes < want.probes, "{} vs {} probes", got.probes, want.probes);
        assert!(ws.state().phi.is_finite());
        assert!(ws.subsidies().iter().chain(ws.utilities()).all(|x| x.is_finite()));
        let gap = ws
            .subsidies()
            .iter()
            .zip(oracle_ws.subsidies())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(gap <= 1e-3, "gap {gap:e} to the oracle's sweep");
    }

    #[test]
    fn jacobi_is_an_exact_sweep_and_refuses_bad_damping() {
        let solver = NashSolver::default();
        let game = paper_game(0.7, 0.6);
        let mut ws = SolveWorkspace::for_game(&game);
        let stats = solver.solve_jacobi_into(&game, WarmStart::Zero, &mut ws, 0.7).unwrap();
        assert!(stats.converged && stats.residual <= solver.tol);
        assert_eq!(stats.newton_steps, 0);
        // A lone provider responds to the same profile in either sweep
        // order, so undamped Jacobi is the Gauss–Seidel oracle bit for bit.
        let solo = SubsidyGame::new(
            build_system(&[ExpCpSpec::unit(5.0, 2.0, 1.0)], 1.0).unwrap(),
            0.8,
            1.0,
        )
        .unwrap();
        let jacobi = solver.solve_jacobi_into(&solo, WarmStart::Zero, &mut ws, 1.0).unwrap();
        let mut oracle_ws = SolveWorkspace::for_game(&solo);
        let oracle = solver
            .solve_by_sweeps_into(&solo, WarmStart::Zero, &mut oracle_ws, SolveBudget::unlimited())
            .unwrap();
        assert_eq!(jacobi, oracle);
        assert_eq!(ws.subsidies()[0].to_bits(), oracle_ws.subsidies()[0].to_bits());
        // Damping outside (0, 1] is refused, not clamped.
        for omega in [0.0, -0.5, 1.5, f64::NAN] {
            let refused = solver.solve_jacobi_into(&game, WarmStart::Zero, &mut ws, omega);
            assert!(matches!(refused, Err(NumError::Domain { .. })), "ω = {omega}: {refused:?}");
        }
    }

    #[test]
    fn equilibrium_continuous_in_price() {
        // s(p) should move smoothly (Theorem 6 differentiability): small
        // price perturbations move the equilibrium by O(dp).
        let a = NashSolver::default().solve(&paper_game(0.50, 1.0)).unwrap();
        let b = NashSolver::default().solve(&paper_game(0.52, 1.0)).unwrap();
        for i in 0..8 {
            assert!(
                (a.subsidies[i] - b.subsidies[i]).abs() < 0.1,
                "CP {i} jumped: {} -> {}",
                a.subsidies[i],
                b.subsidies[i]
            );
        }
    }
}
