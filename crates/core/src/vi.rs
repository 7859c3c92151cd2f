//! The game as a variational inequality (the Theorem 4/6 formulation).
//!
//! By Proposition 1.4.2 of Facchinei–Pang (cited in the paper's proofs),
//! the Nash equilibria of the subsidization game coincide with the
//! solutions of `VI(F, K)` where `F = −u` (negated marginal utilities) and
//! `K = [0, q]^N`: find `s ∈ K` with `(x − s)ᵀ F(s) ≥ 0 ∀x ∈ K`.
//!
//! The natural-residual map `‖s − Π_K(s − F(s))‖_∞` vanishes exactly at
//! those solutions, so it certifies an equilibrium whichever solver found
//! it. Fixed-step **projection** (`s ← Π_K(s − γ F(s))`) is the VI
//! reference the best-response solvers in [`crate::nash`] are checked
//! against; no production path calls it.

use crate::game::SubsidyGame;
use subcomp_model::system::SystemState;
use subcomp_num::linalg::vector::sub_inf_norm;
use subcomp_num::{NumError, NumResult};

/// Step size `γ` of the projection method.
const STEP: f64 = 0.15;
/// Convergence threshold on the step `‖s_{k+1} − s_k‖_∞ / γ`.
const TOL: f64 = 1e-9;
/// Iteration budget.
const MAX_ITER: usize = 20_000;

/// Result of a VI solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ViSolution {
    /// The solution profile.
    pub subsidies: Vec<f64>,
    /// Solved state at the solution.
    pub state: SystemState,
    /// Natural residual `‖s − Π_K(s − F(s))‖_∞` at the solution.
    pub natural_residual: f64,
    /// Iterations performed.
    pub iterations: usize,
}

fn project(game: &SubsidyGame, s: &mut [f64]) {
    for (i, si) in s.iter_mut().enumerate() {
        *si = si.clamp(0.0, game.effective_cap(i));
    }
}

/// The VI map `F(s) = −u(s)`.
pub fn vi_map(game: &SubsidyGame, s: &[f64]) -> NumResult<Vec<f64>> {
    Ok(game.marginal_utilities(s)?.iter().map(|u| -u).collect())
}

/// Natural residual `‖s − Π_K(s − F(s))‖_∞`; zero exactly at solutions.
pub fn natural_residual(game: &SubsidyGame, s: &[f64]) -> NumResult<f64> {
    let f = vi_map(game, s)?;
    let mut proj: Vec<f64> = s.iter().zip(&f).map(|(si, fi)| si - fi).collect();
    project(game, &mut proj);
    Ok(s.iter().zip(&proj).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max))
}

/// Fixed-step projection method from `s0` (projected onto the box
/// first). Converges for co-coercive maps; on this game the fixed step
/// is conservative enough in practice.
///
/// # Errors
/// [`NumError::MaxIterations`] when the step has not fallen below the
/// tolerance within the iteration budget.
pub fn projection_solve(game: &SubsidyGame, s0: &[f64]) -> NumResult<ViSolution> {
    project_until(game, s0, MAX_ITER)
}

/// [`projection_solve`] with an explicit iteration budget.
fn project_until(game: &SubsidyGame, s0: &[f64], max_iter: usize) -> NumResult<ViSolution> {
    game.validate(s0)?;
    let mut s = s0.to_vec();
    project(game, &mut s);
    let mut residual = f64::INFINITY;
    for iter in 0..max_iter {
        let f = vi_map(game, &s)?;
        let mut next: Vec<f64> = s.iter().zip(&f).map(|(si, fi)| si - STEP * fi).collect();
        project(game, &mut next);
        residual = sub_inf_norm(&s, &next) / STEP;
        s = next;
        if residual <= TOL {
            return Ok(ViSolution {
                natural_residual: natural_residual(game, &s)?,
                state: game.state(&s)?,
                subsidies: s,
                iterations: iter + 1,
            });
        }
    }
    Err(NumError::MaxIterations { max_iter, residual })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nash::NashSolver;
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

    #[test]
    fn projection_agrees_with_best_response() {
        // Two starts, one at the origin and one inside the box, reach the
        // engine's equilibrium.
        let game = paper_game(0.7, 0.6);
        let br = NashSolver::default().solve(&game).unwrap();
        for start in [0.0, 0.4] {
            let vi = projection_solve(&game, &[start; 8]).unwrap();
            for i in 0..8 {
                assert!(
                    (br.subsidies[i] - vi.subsidies[i]).abs() < 1e-5,
                    "start {start}, CP {i}: BR {} vs VI {}",
                    br.subsidies[i],
                    vi.subsidies[i]
                );
            }
        }
    }

    #[test]
    fn natural_residual_zero_at_solution_positive_elsewhere() {
        let game = paper_game(0.6, 0.5);
        let sol = projection_solve(&game, &[0.0; 8]).unwrap();
        assert!(sol.natural_residual < 1e-7);
        let off = natural_residual(&game, &[0.0; 8]).unwrap();
        assert!(off > 1e-3, "residual at the origin should be large, got {off}");
    }

    #[test]
    fn vi_map_is_negated_marginal_utility() {
        let game = paper_game(0.5, 1.0);
        let s = vec![0.2; 8];
        let f = vi_map(&game, &s).unwrap();
        let u = game.marginal_utilities(&s).unwrap();
        for i in 0..8 {
            assert_eq!(f[i], -u[i]);
        }
    }

    #[test]
    fn tiny_budget_errors_out() {
        let game = paper_game(0.5, 1.0);
        assert!(matches!(
            project_until(&game, &[0.0; 8], 2),
            Err(NumError::MaxIterations { max_iter: 2, .. })
        ));
    }
}
