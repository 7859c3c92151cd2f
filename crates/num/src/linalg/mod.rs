//! Small dense linear algebra.
//!
//! The sensitivity analysis of Theorem 6 requires inverting the Jacobian
//! `∇_s̃ ũ` of marginal utilities restricted to interior subsidizers —
//! `Ψ = (∇_s̃ ũ)^{-1}` — and the uniqueness/stability story of Theorem 4 and
//! Corollary 1 rests on *P-matrix* and *M-matrix* structure (Moré–Rheinboldt
//! P-functions; Gale–Nikaido univalence; Hawkins–Simon/Leontief stability).
//! Markets in the paper have a handful of provider types (8–9), so a plain
//! row-major dense [`Matrix`] with partial-pivot LU is the right tool; no
//! sparse or blocked machinery is warranted.
//!
//! Submodules:
//! * [`matrix`] — the dense matrix type and arithmetic;
//! * [`lu`] — LU factorization, linear solve, inverse, determinant;
//! * [`structure`] — P-matrix / M-matrix / Z-matrix tests, used to
//!   *verify* the paper's equilibrium conditions numerically;
//! * [`vector`] — free functions on `&[f64]` (sup distance, clamped copy).

pub mod lu;
pub mod matrix;
pub mod structure;
pub mod vector;

pub use lu::{LuDecomposition, LuError};
pub use matrix::Matrix;
pub use structure::{is_m_matrix, is_p_matrix, is_z_matrix, leading_principal_minors};
pub use vector::sub_inf_norm;
