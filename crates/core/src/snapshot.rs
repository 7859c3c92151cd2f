//! Immutable, shareable snapshots of solved equilibria — the
//! session/state layer the equilibrium server builds on.
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
//! [`Arc`]: std::sync::Arc

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
        // Scribble over the snapshot, then recapture: bit-identical to the first.
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
}
