//! # `subcomp-num` — numerical substrate
//!
//! A self-contained collection of the numerical routines needed to reproduce
//! *Subsidization Competition: Vitalizing the Neutral Internet* (Ma, CoNEXT
//! 2014). The paper's analysis requires, end to end:
//!
//! * scalar **root finding** for the congestion fixed point `g(φ) = 0`
//!   of Definition 1 / Lemma 1 ([`roots`]);
//! * bounded **one-dimensional maximization** for each content provider's
//!   best-response subsidy and the ISP's outer price and capacity searches
//!   ([`optimize`]);
//! * small dense **linear algebra** — LU factorization, matrix inversion and
//!   the P-matrix / M-matrix structure tests behind Theorems 4 and 6 and
//!   Corollary 1 ([`linalg`]);
//! * **numerical differentiation** to cross-check every closed-form
//!   derivative in the paper ([`diff`]);
//! * **interpolation** of simulator-measured curves ([`interp`]),
//!   **quadrature** for the continuum-of-providers extension ([`quad`]) and
//!   **summary statistics** for simulation output ([`stats`]).
//!
//! The crate has no dependencies and is deliberately boring: plain `f64`,
//! explicit tolerances, typed errors, and diagnostics (iteration counts,
//! achieved residuals) on every solver result. Design goals follow the
//! smoltcp school: simplicity and robustness over cleverness.
//!
//! ## Example
//!
//! ```
//! use subcomp_num::roots::{brent, Bracket};
//! use subcomp_num::tol::Tolerance;
//!
//! // Solve x^3 = 2.
//! let f = |x: f64| x * x * x - 2.0;
//! let root = brent(&f, Bracket::new(0.0, 2.0), Tolerance::default()).unwrap();
//! assert!((root.x - 2f64.cbrt()).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod diff;
pub mod error;
pub mod interp;
pub mod linalg;
pub mod optimize;
pub mod quad;
pub mod roots;
pub mod stats;
pub mod tol;

pub use error::{NumError, NumResult};
pub use tol::Tolerance;

/// Machine-level default absolute tolerance used across the workspace.
pub const DEFAULT_ABS_TOL: f64 = 1e-12;
/// Default relative tolerance used across the workspace.
pub const DEFAULT_REL_TOL: f64 = 1e-10;
/// Default iteration budget for iterative solvers.
pub const DEFAULT_MAX_ITER: usize = 200;
