//! Caller-owned solver workspaces: the allocation-free batch engine.
//!
//! Every Nash/VI solve needs the same transient storage — iterate vectors,
//! a best-response population scratch, a congestion-state buffer, the
//! model layer's [`StateScratch`] and the Newton corrector's active-set
//! guess and Jacobian factors. A [`SolveWorkspace`] owns all of it, so
//! a caller that solves many games (parameter sweeps, seeded ensembles,
//! the `solve_farm` binary) pays for heap allocation once at warm-up and
//! never again: [`crate::nash::NashSolver::solve_into`],
//! [`crate::vi::projection_solve_into`] and
//! [`crate::vi::extragradient_solve_into`] all run allocation-free on a
//! warm workspace, as asserted by the counting-allocator suite in
//! `tests/alloc_free.rs`.
//!
//! Buffers only ever grow, so one workspace can hop between games of
//! different sizes; results are bit-identical to the allocating wrappers
//! (`solve`, `projection_solve`, `extragradient_solve`), which are thin
//! shims over this engine.

use crate::game::SubsidyGame;
use crate::sensitivity::{Factors, Pin};
use subcomp_model::system::{StateScratch, SystemState};

/// A deterministic per-solve iteration budget.
///
/// The serving layer needs a way to stop a pathological solve from
/// spinning without giving up determinism, so the budget is counted in
/// **iterations (a GS sweep or a Newton step), never wall-clock time**:
/// the same game under the same budget always stops at the same iterate
/// with the same residual, on any machine. Checking it is an integer
/// compare inside the solve loop — no boxing, no cloning, no allocation
/// (the counting-allocator suite pins the budgeted happy path at zero
/// warm allocations).
///
/// [`SolveBudget::unlimited`] (the default) never fires: the solver's
/// own `max_sweeps` bound is always reached first, so an unlimited
/// budget is bit-identical to the un-budgeted engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveBudget {
    max_sweeps: usize,
}

impl Default for SolveBudget {
    fn default() -> Self {
        SolveBudget::unlimited()
    }
}

impl SolveBudget {
    /// No budget: the solver runs to its own `max_sweeps` bound.
    pub fn unlimited() -> SolveBudget {
        SolveBudget { max_sweeps: usize::MAX }
    }

    /// At most `n` iterations, each a GS sweep or a Newton step (clamped
    /// to at least 1: a zero budget would forbid even looking at the start
    /// iterate).
    pub fn sweeps(n: usize) -> SolveBudget {
        SolveBudget { max_sweeps: n.max(1) }
    }

    /// The iteration ceiling (GS sweeps plus Newton steps) this budget
    /// imposes.
    pub fn max_sweeps(&self) -> usize {
        self.max_sweeps
    }

    /// Whether this budget can never fire.
    pub fn is_unlimited(&self) -> bool {
        self.max_sweeps == usize::MAX
    }
}

/// Reusable buffers for the Nash and VI solvers.
///
/// Create one per worker thread with [`SolveWorkspace::for_game`] (or
/// [`SolveWorkspace::new`] for lazy sizing) and pass it to the `_into`
/// solver entry points. After a successful solve the workspace holds the
/// solution: [`SolveWorkspace::subsidies`], [`SolveWorkspace::state`] and
/// [`SolveWorkspace::utilities`] expose it without copying.
#[derive(Debug, Clone, Default)]
pub struct SolveWorkspace {
    /// Current iterate; holds the solution after a successful solve.
    pub(crate) s: Vec<f64>,
    /// Next iterate under construction.
    pub(crate) next: Vec<f64>,
    /// Per-provider effective caps `min(q, v_i)` of the current game.
    pub(crate) caps: Vec<f64>,
    /// Population scratch for best-response probes.
    pub(crate) m: Vec<f64>,
    /// Effective-price scratch for full state assembly.
    pub(crate) prices: Vec<f64>,
    /// VI map buffer `F(s) = −u(s)`.
    pub(crate) vi_f: Vec<f64>,
    /// VI predictor / projection buffer.
    pub(crate) vi_pred: Vec<f64>,
    /// Model-layer scratch (exp table, population buffer).
    pub(crate) scratch: StateScratch,
    /// Solved congestion state at the current iterate.
    pub(crate) state: SystemState,
    /// Utilities at the solution.
    pub(crate) utilities: Vec<f64>,
    /// The Newton corrector's active-set guess, one pin per provider.
    pub(crate) pins: Vec<Pin>,
    /// The guessed interior `Ñ`, in provider order.
    pub(crate) interior: Vec<usize>,
    /// The iterate before the current Newton attempt, restored on a
    /// decline.
    pub(crate) saved: Vec<f64>,
    /// Newton right-hand side `−u_Ñ` and step `δ_Ñ` (first `|Ñ|` slots).
    pub(crate) rhs: Vec<f64>,
    pub(crate) step: Vec<f64>,
    /// The Theorem 6 Jacobian factors at the Newton iterate.
    pub(crate) jac: Factors,
    /// Threshold → grid-scan fallbacks of the last Nash solve.
    pub(crate) grid_fallbacks: u64,
}

impl SolveWorkspace {
    /// An empty workspace; buffers are sized lazily on first use.
    pub fn new() -> SolveWorkspace {
        SolveWorkspace::default()
    }

    /// A workspace pre-sized for `game`, so even the first solve against
    /// `game` allocates nothing.
    pub fn for_game(game: &SubsidyGame) -> SolveWorkspace {
        let mut ws = SolveWorkspace::default();
        ws.ensure(game);
        ws
    }

    /// Sizes every buffer for `game` and refreshes the per-game data
    /// (effective caps, exp-table width). Called by the solvers on entry;
    /// allocation-free once the workspace has seen a game at least this
    /// large. The current iterate is resized but its prefix is preserved,
    /// which is what [`crate::nash::WarmStart::Previous`] relies on.
    pub(crate) fn ensure(&mut self, game: &SubsidyGame) {
        let n = game.n();
        self.s.resize(n, 0.0);
        self.next.resize(n, 0.0);
        self.caps.resize(n, 0.0);
        for i in 0..n {
            self.caps[i] = game.effective_cap(i);
        }
        self.m.resize(n, 0.0);
        self.prices.resize(n, 0.0);
        self.vi_f.resize(n, 0.0);
        self.vi_pred.resize(n, 0.0);
        self.utilities.resize(n, 0.0);
        self.pins.resize(n, Pin::Lower);
        self.interior.clear();
        self.interior.reserve(n);
        for v in [&mut self.saved, &mut self.rhs, &mut self.step] {
            v.resize(n, 0.0);
        }
        self.jac.resize(n);
        game.system().prepare_scratch(&mut self.scratch);
    }

    /// The current iterate — the equilibrium after a successful solve.
    pub fn subsidies(&self) -> &[f64] {
        &self.s
    }

    /// The solved congestion state at [`SolveWorkspace::subsidies`].
    pub fn state(&self) -> &SystemState {
        &self.state
    }

    /// Utilities `U_i` at [`SolveWorkspace::subsidies`].
    pub fn utilities(&self) -> &[f64] {
        &self.utilities
    }

    /// How many Newton steps solved their interior block by the dense LU
    /// instead of Woodbury (the structural fallback of
    /// [`crate::sensitivity`]) over this workspace's lifetime, failed
    /// ones included.
    pub fn newton_dense_fallbacks(&self) -> u64 {
        self.jac.dense_fallbacks()
    }

    /// How many best responses of the last Nash solve on this workspace
    /// fell back from the Theorem 3 threshold search to the grid scan
    /// ([`crate::best_response`]). Unlike
    /// [`SolveWorkspace::newton_dense_fallbacks`] it counts one solve, like
    /// the solution the workspace holds, so a batch can attribute it to
    /// the game it solved.
    pub fn grid_fallbacks(&self) -> u64 {
        self.grid_fallbacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcomp_model::aggregation::{build_system, ExpCpSpec};

    fn tiny_game(n: usize) -> SubsidyGame {
        let specs: Vec<ExpCpSpec> =
            (0..n).map(|i| ExpCpSpec::unit(2.0 + i as f64, 3.0, 0.8)).collect();
        SubsidyGame::new(build_system(&specs, 1.0).unwrap(), 0.6, 0.9).unwrap()
    }

    #[test]
    fn for_game_sizes_all_buffers() {
        let game = tiny_game(4);
        let ws = SolveWorkspace::for_game(&game);
        assert_eq!(ws.s.len(), 4);
        assert_eq!(ws.caps, vec![0.8, 0.8, 0.8, 0.8]);
        assert_eq!(ws.subsidies().len(), 4);
    }

    #[test]
    fn ensure_grows_and_shrinks_logical_size() {
        let mut ws = SolveWorkspace::new();
        ws.ensure(&tiny_game(5));
        assert_eq!(ws.s.len(), 5);
        let cap5 = ws.s.capacity();
        ws.ensure(&tiny_game(2));
        assert_eq!(ws.s.len(), 2);
        // Capacity is retained: shrinking is free, regrowth within the old
        // high-water mark allocates nothing.
        assert!(ws.s.capacity() >= cap5);
        ws.ensure(&tiny_game(5));
        assert_eq!(ws.s.len(), 5);
    }

    #[test]
    fn solve_budget_clamps_and_classifies() {
        assert!(SolveBudget::default().is_unlimited());
        assert!(SolveBudget::unlimited().is_unlimited());
        assert_eq!(SolveBudget::sweeps(0).max_sweeps(), 1, "zero budgets clamp to one sweep");
        assert_eq!(SolveBudget::sweeps(7).max_sweeps(), 7);
        assert!(!SolveBudget::sweeps(7).is_unlimited());
    }

    #[test]
    fn caps_refresh_per_game() {
        let mut ws = SolveWorkspace::new();
        ws.ensure(&tiny_game(2));
        assert_eq!(ws.caps, vec![0.8, 0.8]);
        let other = SubsidyGame::new(
            build_system(&[ExpCpSpec::unit(2.0, 3.0, 0.3), ExpCpSpec::unit(2.0, 3.0, 2.0)], 1.0)
                .unwrap(),
            0.6,
            0.5,
        )
        .unwrap();
        ws.ensure(&other);
        assert_eq!(ws.caps, vec![0.3, 0.5]);
    }
}
