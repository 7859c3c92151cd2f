//! # `subcomp` — Subsidization Competition for a Neutral Internet
//!
//! Facade crate re-exporting the full workspace. [`paper_map`] maps each
//! result of the paper to the module that implements it and the test that
//! checks it; `ROADMAP.md` holds the open items and the measured state of
//! each engine, and `tests/README.md` the test tiers.
//!
//! Reproduces: Richard T. B. Ma, *Subsidization Competition: Vitalizing
//! the Neutral Internet*, ACM CoNEXT 2014 (arXiv:1406.2516).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use subcomp_core as game;
pub use subcomp_exp as exp;
pub use subcomp_model as model;
pub use subcomp_num as num;
pub use subcomp_sim as sim;

/// One-stop imports across the workspace.
pub mod prelude {
    pub use subcomp_core::prelude::*;
    pub use subcomp_model::prelude::*;
}

/// Where each result of the paper lives in this workspace.
///
/// | paper result | implementation | verified by |
/// |---|---|---|
/// | Definition 1 (utilization) | [`model::system::System::solve_state`] | `system` tests; `tests/properties.rs` |
/// | Lemma 1 (uniqueness) | [`model::system::System::solve_phi_with`]: seeded Newton on the gap function, bracketed by `[0, Φ(peak, µ)]` | `lemma1_unique_utilization_fixed_point`; `phi_solve.rs` against the [`num::roots::solve_increasing`] Brent oracle |
/// | Lemma 2 (aggregation) | [`model::aggregation`] | `lemma2_rescaling_is_invisible` property test |
/// | Theorem 1 (capacity/user effects) | [`model::effects::SystemEffects`] | finite-difference cross-checks |
/// | Definition 2 (elasticity) | [`model::elasticity`] | closed-form vs numeric tests |
/// | Theorem 2 (price effect, condition (7)) | [`model::effects::PriceEffects`] | per-CP sign agreement tests |
/// | Lemma 3 (subsidy monotonicity) | [`game::game::SubsidyGame::state`] | `lemma3_subsidy_monotonicity` |
/// | Definition 3 (Nash equilibrium) | [`game::nash::NashSolver`] | KKT + deviation certificates |
/// | Theorem 3 (characterization) | [`game::equilibrium`] (`τ_i`, KKT residuals); the `N⁻ / Ñ / N⁺` active set the [`game::nash::NashSolver`] corrector guesses and takes Newton steps on, accepting only when the pinned marginal signs confirm it | `theorem3_equilibrium_characterization`; the pure-sweep oracle in `tests/newton_oracle.rs` |
/// | Theorem 4 (uniqueness) | [`game::structure::p_function_evidence`]; the P-function condition keeps every interior Newton block of the corrector nonsingular | solver-agreement tests; zero dense fallbacks in `tests/newton_oracle.rs` |
/// | Theorem 5 (profitability effect) | [`game::game::SubsidyGame::with_profitability`] | `theorem5_profitability_raises_subsidy` |
/// | Theorem 6 (equilibrium dynamics) | [`game::sensitivity::Sensitivity`] (+ `directional` along any [`game::game::Axis`]) on [`game::sensitivity::SensitivityWorkspace`]: the diagonal-plus-rank-two Jacobian from one solved state, solved by Woodbury; the same interior Jacobian is the Newton matrix of every Gauss–Seidel [`game::nash::NashSolver`] solve. Served as a product ([`exp::server::Request::Sensitivity`]), never as a solver start | re-solved-equilibrium finite differences; the FD Jacobian oracle in `tests/sensitivity_oracle.rs`; the pure-sweep oracle in `tests/newton_oracle.rs` |
/// | Corollary 1 (deregulation) | [`game::policy::policy_effect`] (fixed price) | monotone sweeps |
/// | Theorem 7 (marginal revenue, Υ) | [`game::revenue::marginal_revenue_at`] | finite-difference cross-checks |
/// | Theorem 8 (policy effect) | [`game::policy::policy_effect`] (optimal price) | `theorem8_policy_effect_with_optimal_price`: per-CP dθ/dq, dφ/dq and dR/dq against equilibria re-solved at `p*(q ± h)` |
/// | Corollary 2 (welfare) | [`game::welfare::corollary2`] | sign-consistency tests |
/// | Figures 4–11 | [`exp::figures`] | shape checks + `tests/figures_shape.rs` |
/// | beyond the paper: scenario corpus | [`exp::corpus`] (+ [`exp::golden`]) | golden snapshots, `tests/golden_scenarios.rs` |
/// | §6 capacity planning (future work) | [`game::capacity::CapacityPlanner`] | E2 experiment |
/// | §6 ISP competition (conjecture) | [`game::duopoly::Duopoly`] | E4 experiment |
/// | Lemma 2 limit (continuum) | [`model::continuum::ContinuumMarket`] | E5 experiment |
pub mod paper_map {}
