//! # `subcomp-core` — subsidization competition (paper §4–5)
//!
//! The primary contribution of *Subsidization Competition: Vitalizing the
//! Neutral Internet* (Ma, CoNEXT 2014): content providers (CPs) voluntarily
//! subsidize the usage-based fee of their own traffic, `s_i ∈ [0, q]`,
//! under a regulatory cap `q`, competing through the congestion and demand
//! externalities of the shared access network.
//!
//! Layered on `subcomp-model` (the physical system of §3):
//!
//! * [`game`] — the strategic form: effective prices `t_i = p − s_i`,
//!   utilities `U_i = (v_i − s_i) θ_i(s)` and analytic marginal utilities;
//! * [`best_response`], [`nash`] — the Nash equilibrium of Definition 3:
//!   Gauss–Seidel best-response sweeps, corrected by Newton steps on the
//!   guessed Theorem 3 active set with Theorem 6's Jacobian (a pure sweep
//!   is the corrector's oracle; damped Jacobi sweeps, a separate entry
//!   point, the cross-check). Each best
//!   response is a Theorem 3 threshold search (three marginal probes and
//!   a Brent root); the grid scan remains as its structural fallback and
//!   as the independent test oracle;
//! * [`workspace`] — caller-owned [`workspace::SolveWorkspace`] buffers
//!   behind the allocation-free `solve_into` engines (batch/ensemble
//!   solving without per-solve heap traffic);
//! * [`vi`] — the same equilibrium as a box-constrained variational
//!   inequality `VI(−u, [0,q]^N)` with projection and extragradient
//!   solvers (the formulation behind Theorems 4 and 6);
//! * [`equilibrium`] — Theorem 3's threshold characterization
//!   `s_i = min{τ_i(s), q}` and KKT/deviation verification;
//! * [`structure`] — Theorem 4's P-function uniqueness condition and
//!   Corollary 1's off-diagonal monotonicity / M-matrix structure;
//! * [`sensitivity`] — Theorem 6's equilibrium dynamics `∂s/∂p`, `∂s/∂q`
//!   via the inverse Jacobian `Ψ = (∇_s̃ ũ)^{-1}`, generalized to
//!   directional derivatives along any [`game::Axis`] (`∂s/∂µ`,
//!   `∂s/∂v_i`), served as a product (the `exp` server's sensitivity
//!   reads). The Jacobian is diagonal plus rank two, assembled in O(n)
//!   from one solved state and solved by Woodbury — the same factors are
//!   the Nash corrector's Newton matrix;
//! * [`snapshot`] — immutable, concurrent-reader-safe copies of solved
//!   equilibria (the state layer under the `exp` equilibrium server);
//! * [`revenue`] — ISP revenue under equilibrium response and Theorem 7's
//!   marginal revenue with the `Υ` factor;
//! * [`pricing`] — the ISP's revenue-maximizing price `p*(q)`;
//! * [`welfare`] — system welfare `W = Σ v_i θ_i`, Corollary 2;
//! * [`policy`] — Theorem 8's policy effect with endogenous `p(q)` and
//!   regulator tooling;
//! * [`capacity`] — the §6 capacity-planning extension.
//!
//! ## Example: a two-provider subsidy war
//!
//! ```
//! use subcomp_model::aggregation::{build_system, ExpCpSpec};
//! use subcomp_core::game::SubsidyGame;
//! use subcomp_core::nash::NashSolver;
//!
//! // A profitable video CP and a startup, price 0.6, cap 0.8.
//! let sys = build_system(&[
//!     ExpCpSpec::unit(4.0, 2.0, 1.0),   // price-elastic users, v = 1
//!     ExpCpSpec::unit(2.0, 5.0, 0.2),   // congestion-sensitive, poor
//! ], 1.0).unwrap();
//! let game = SubsidyGame::new(sys, 0.6, 0.8).unwrap();
//! let eq = NashSolver::default().solve(&game).unwrap();
//! assert!(eq.converged);
//! // The profitable CP subsidizes; the startup cannot afford to.
//! assert!(eq.subsidies[0] > 0.1);
//! assert!(eq.subsidies[1] < 0.05);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod best_response;
pub mod capacity;
pub mod duopoly;
pub mod equilibrium;
pub mod game;
pub mod nash;
pub mod policy;
pub mod pricing;
pub mod revenue;
pub mod sensitivity;
pub mod snapshot;
pub mod structure;
pub mod vi;
pub mod welfare;
pub mod workspace;

/// One-stop imports for game-layer usage.
pub mod prelude {
    pub use crate::equilibrium::{verify_equilibrium, EquilibriumReport};
    pub use crate::game::{Axis, SubsidyGame};
    pub use crate::nash::{NashSolution, NashSolver, SolveStats, WarmStart};
    pub use crate::pricing::optimal_price;
    pub use crate::sensitivity::{ActiveSet, Sensitivity};
    pub use crate::snapshot::EqSnapshot;
    pub use crate::welfare::{welfare, WelfareBreakdown};
    pub use crate::workspace::SolveWorkspace;
}
