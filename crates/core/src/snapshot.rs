//! Immutable, shareable snapshots of solved equilibria, plus the tangent
//! warm-start admission policy — the session/state layer the equilibrium
//! server builds on.
//!
//! A [`SolveWorkspace`] is a *mutable* scratch: the next solve overwrites
//! the solution it holds, so it cannot be handed to readers while the
//! server keeps serving. [`EqSnapshot`] is the immutable counterpart —
//! every quantity a query answer needs, copied out of the workspace once
//! and then shared freely behind an [`Arc`] (`EqSnapshot` is plain `Send +
//! Sync` data, so any number of holders, on any thread, can keep the same
//! solved state while the workspace moves on). Which snapshot answers a
//! market's next read is the serving layer's business (the sharded
//! server keeps one published slot per market).
//!
//! Snapshots double as reusable buffers: [`EqSnapshot::capture_into`]
//! overwrites an existing snapshot in place, growing vectors at most to
//! the game's size, so a server that recycles retired snapshots performs
//! zero heap allocation per warm capture — the contract the warm-server
//! case in `tests/alloc_free.rs` pins.
//!
//! [`TangentPolicy`] decides when a parameter delta is small enough to
//! admit the Theorem 6 first-order predictor ([`WarmStart::Tangent`])
//! instead of plain previous-iterate seeding: tangent extrapolation only
//! pays off inside the equilibrium's differentiable neighbourhood, and a
//! large step (or a blown-up derivative near an active-set change) makes
//! the predictor *worse* than [`WarmStart::Previous`].
//!
//! [`Arc`]: std::sync::Arc
//! [`WarmStart::Tangent`]: crate::nash::WarmStart::Tangent
//! [`WarmStart::Previous`]: crate::nash::WarmStart::Previous

use crate::game::SubsidyGame;
use crate::nash::SolveStats;
use crate::workspace::SolveWorkspace;
use subcomp_model::system::SystemState;

/// An immutable copy of one solved equilibrium: parameters, subsidies,
/// congestion state, utilities and the derived report scalars. Share it
/// behind an `Arc` — cloning the `Arc` is the server's cache-hit path.
#[derive(Debug, Clone, PartialEq)]
pub struct EqSnapshot {
    price: f64,
    cap: f64,
    mu: f64,
    subsidies: Vec<f64>,
    utilities: Vec<f64>,
    state: SystemState,
    revenue: f64,
    welfare: f64,
    stats: SolveStats,
}

impl Default for EqSnapshot {
    fn default() -> Self {
        EqSnapshot {
            price: 0.0,
            cap: 0.0,
            mu: 0.0,
            subsidies: Vec::new(),
            utilities: Vec::new(),
            state: SystemState::empty(),
            revenue: 0.0,
            welfare: 0.0,
            stats: SolveStats {
                iterations: 0,
                newton_steps: 0,
                probes: 0,
                residual: 0.0,
                converged: false,
            },
        }
    }
}

impl EqSnapshot {
    /// An empty snapshot to use as a reusable capture buffer.
    pub fn empty() -> EqSnapshot {
        EqSnapshot::default()
    }

    /// Copies the solution a successful solve left in `ws` (see
    /// [`SolveWorkspace::subsidies`]) into a fresh snapshot.
    pub fn capture(game: &SubsidyGame, ws: &SolveWorkspace, stats: SolveStats) -> EqSnapshot {
        let mut snap = EqSnapshot::empty();
        snap.capture_into(game, ws, stats);
        snap
    }

    /// Overwrites this snapshot with the solution in `ws`, reusing every
    /// buffer — allocation-free once the snapshot has held a game at
    /// least this large.
    pub fn capture_into(&mut self, game: &SubsidyGame, ws: &SolveWorkspace, stats: SolveStats) {
        let n = game.n();
        self.price = game.price();
        self.cap = game.cap();
        self.mu = game.system().mu();
        copy_slice_into(&mut self.subsidies, ws.subsidies());
        copy_slice_into(&mut self.utilities, ws.utilities());
        let state = ws.state();
        self.state.phi = state.phi;
        self.state.dg_dphi = state.dg_dphi;
        copy_slice_into(&mut self.state.m, &state.m);
        copy_slice_into(&mut self.state.lambda, &state.lambda);
        copy_slice_into(&mut self.state.theta_i, &state.theta_i);
        let theta = state.theta();
        self.revenue = game.price() * theta;
        self.welfare = (0..n).map(|i| game.profitability(i) * state.theta_i[i]).sum();
        self.stats = stats;
    }

    /// The ISP price the equilibrium was solved at.
    pub fn price(&self) -> f64 {
        self.price
    }

    /// The subsidy cap the equilibrium was solved at.
    pub fn cap(&self) -> f64 {
        self.cap
    }

    /// The system capacity the equilibrium was solved at.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Equilibrium subsidies `s*`.
    pub fn subsidies(&self) -> &[f64] {
        &self.subsidies
    }

    /// Utilities `U_i(s*)`.
    pub fn utilities(&self) -> &[f64] {
        &self.utilities
    }

    /// Solved congestion state at `s*`.
    pub fn state(&self) -> &SystemState {
        &self.state
    }

    /// ISP revenue `p · θ(s*)`.
    pub fn revenue(&self) -> f64 {
        self.revenue
    }

    /// System welfare `W = Σ v_i θ_i` at `s*`.
    pub fn welfare(&self) -> f64 {
        self.welfare
    }

    /// The solve's health summary (sweeps, residual, convergence).
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Number of CP types in the snapshot.
    pub fn n(&self) -> usize {
        self.subsidies.len()
    }
}

/// Resizes `dst` to `src`'s length and copies — allocation-free when
/// `dst`'s capacity already covers `src` (buffers only grow).
fn copy_slice_into(dst: &mut Vec<f64>, src: &[f64]) {
    dst.resize(src.len(), 0.0);
    dst.copy_from_slice(src);
}

/// Admission policy for [`WarmStart::Tangent`] on small parameter deltas.
///
/// The Theorem 6 tangent is a *local* object: it predicts the equilibrium
/// displacement to first order around the point it was computed at. The
/// policy admits the predictor only when both the parameter step and the
/// predicted subsidy displacement stay inside a trust region; everything
/// else degrades to [`WarmStart::Previous`], which is always safe.
///
/// [`WarmStart::Tangent`]: crate::nash::WarmStart::Tangent
/// [`WarmStart::Previous`]: crate::nash::WarmStart::Previous
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TangentPolicy {
    /// Largest admissible parameter step `|Δθ|`.
    pub max_dtheta: f64,
    /// Largest admissible predicted displacement `max_i |Δθ · ∂s_i/∂θ|`.
    pub max_predicted_step: f64,
}

impl Default for TangentPolicy {
    fn default() -> Self {
        TangentPolicy { max_dtheta: 0.25, max_predicted_step: 0.5 }
    }
}

impl TangentPolicy {
    /// Whether a tangent step from `ds_dtheta` over `dtheta` is admitted.
    /// Non-finite inputs are always rejected.
    pub fn admits(&self, ds_dtheta: &[f64], dtheta: f64) -> bool {
        if !dtheta.is_finite() || dtheta.abs() > self.max_dtheta {
            return false;
        }
        ds_dtheta.iter().all(|d| {
            let step = d * dtheta;
            step.is_finite() && step.abs() <= self.max_predicted_step
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nash::{NashSolver, WarmStart};
    use subcomp_model::aggregation::{build_system, ExpCpSpec};

    fn game() -> SubsidyGame {
        let specs = [ExpCpSpec::unit(2.0, 3.0, 0.8), ExpCpSpec::unit(5.0, 2.0, 0.6)];
        SubsidyGame::new(build_system(&specs, 1.2).unwrap(), 0.6, 0.9).unwrap()
    }

    #[test]
    fn capture_matches_workspace() {
        let game = game();
        let solver = NashSolver::default().with_tol(1e-8);
        let mut ws = SolveWorkspace::for_game(&game);
        let stats = solver.solve_into(&game, WarmStart::Zero, &mut ws).unwrap();
        let snap = EqSnapshot::capture(&game, &ws, stats);
        assert_eq!(snap.subsidies(), ws.subsidies());
        assert_eq!(snap.utilities(), ws.utilities());
        assert_eq!(snap.state().phi.to_bits(), ws.state().phi.to_bits());
        assert_eq!(snap.n(), 2);
        assert_eq!(snap.price(), 0.6);
        assert_eq!(snap.cap(), 0.9);
        assert_eq!(snap.mu(), 1.2);
        assert_eq!(snap.stats(), stats);
        assert_eq!(snap.revenue(), 0.6 * ws.state().theta());
        let w: f64 = (0..2).map(|i| game.profitability(i) * ws.state().theta_i[i]).sum();
        assert_eq!(snap.welfare().to_bits(), w.to_bits());
    }

    #[test]
    fn capture_into_overwrites_and_reuses_buffers() {
        let game = game();
        let solver = NashSolver::default().with_tol(1e-8);
        let mut ws = SolveWorkspace::for_game(&game);
        let stats = solver.solve_into(&game, WarmStart::Zero, &mut ws).unwrap();
        let mut snap = EqSnapshot::capture(&game, &ws, stats);
        let reference = snap.clone();
        // Dirty the snapshot, then recapture: bit-identical to the first.
        snap.subsidies.iter_mut().for_each(|s| *s = -1.0);
        snap.revenue = f64::NAN;
        snap.capture_into(&game, &ws, stats);
        assert_eq!(snap, reference);
    }

    #[test]
    fn snapshot_is_shareable_across_threads() {
        let game = game();
        let solver = NashSolver::default();
        let mut ws = SolveWorkspace::for_game(&game);
        let stats = solver.solve_into(&game, WarmStart::Zero, &mut ws).unwrap();
        let snap = std::sync::Arc::new(EqSnapshot::capture(&game, &ws, stats));
        let phi = snap.state().phi;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reader = std::sync::Arc::clone(&snap);
                scope.spawn(move || {
                    assert_eq!(reader.state().phi.to_bits(), phi.to_bits());
                });
            }
        });
    }

    #[test]
    fn tangent_policy_trust_region() {
        let policy = TangentPolicy::default();
        assert!(policy.admits(&[0.5, -1.0], 0.1));
        // Parameter step too large.
        assert!(!policy.admits(&[0.5, -1.0], 0.3));
        // Predicted displacement too large even for a small step.
        assert!(!policy.admits(&[100.0], 0.01));
        // Non-finite inputs are rejected, never admitted.
        assert!(!policy.admits(&[f64::NAN], 0.01));
        assert!(!policy.admits(&[1.0], f64::NAN));
        // A tighter policy rejects what the default admits.
        let tight = TangentPolicy { max_dtheta: 0.05, max_predicted_step: 0.5 };
        assert!(!tight.admits(&[0.5], 0.1));
    }
}
