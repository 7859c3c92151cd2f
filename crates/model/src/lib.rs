//! # `subcomp-model` — the macroscopic Internet model (paper §3)
//!
//! Implements the physical layer of *Subsidization Competition: Vitalizing
//! the Neutral Internet* (Ma, CoNEXT 2014): an access ISP of capacity `µ`
//! shared by the users of a set of content providers (CPs).
//!
//! The model is built from three function families, each behind a trait so
//! the paper's exponential forms, alternative families, and even simulator-
//! measured curves are interchangeable:
//!
//! * [`utilization::UtilizationFn`] — `φ = Φ(θ, µ)`, how aggregate
//!   throughput and capacity map to utilization (Assumption 1);
//! * [`throughput::ThroughputFn`] — `λ_i(φ)`, per-user throughput as a
//!   decreasing function of utilization (congestion sensitivity);
//! * [`demand::DemandFn`] — `m_i(t_i)`, user population as a decreasing
//!   function of the effective per-unit price (Assumption 2).
//!
//! A [`system::System`] combines a CP population with a capacity and solves
//! the **congestion fixed point** of Definition 1: the unique utilization
//! `φ` with `Θ(φ, µ) = Σ_k m_k λ_k(φ)` (Lemma 1). On top of that sit the
//! closed-form comparative statics of Theorem 1 (capacity and user effects)
//! and Theorem 2 (price effect) in [`effects`], the elasticity toolkit of
//! Definition 2 in [`elasticity`], and the Lemma 2 aggregation machinery in
//! [`aggregation`]. The one-sided pricing of §3.2 (every CP's users pay the
//! uniform price `p`) is [`system::System::state_at_uniform_price`].
//!
//! ## Quick example: the paper's §3.2 numerical setting
//!
//! ```
//! use subcomp_model::prelude::*;
//!
//! // 9 CP types with (alpha, beta) in {1,3,5}^2, mu = 1 (paper Figure 4/5).
//! let mut cps = Vec::new();
//! for &alpha in &[1.0, 3.0, 5.0] {
//!     for &beta in &[1.0, 3.0, 5.0] {
//!         cps.push(
//!             ContentProvider::builder(format!("a{alpha}b{beta}"))
//!                 .demand(ExpDemand::new(1.0, alpha))
//!                 .throughput(ExpThroughput::new(1.0, beta))
//!                 .profitability(1.0)
//!                 .build(),
//!         );
//!     }
//! }
//! let system = System::new(cps, 1.0, LinearUtilization).unwrap();
//! let state = system.state_at_uniform_price(0.5).unwrap();
//! assert!(state.phi > 0.0);
//! // Theorem 2: aggregate throughput decreases with price.
//! let lower = system.state_at_uniform_price(0.6).unwrap();
//! assert!(lower.theta() < state.theta());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregation;
pub mod continuum;
pub mod cp;
pub mod demand;
pub mod effects;
pub mod elasticity;
pub mod system;
pub mod throughput;
pub mod utilization;

/// One-stop imports for typical model usage.
pub mod prelude {
    pub use crate::cp::{ContentProvider, CpBuilder};
    pub use crate::demand::{DemandFn, ExpDemand, IsoelasticDemand, LinearDemand, LogisticDemand};
    pub use crate::effects::{PriceEffects, SystemEffects};
    pub use crate::system::{System, SystemState};
    pub use crate::throughput::{ExpThroughput, LogisticThroughput, PowerThroughput, ThroughputFn};
    pub use crate::utilization::{
        LinearUtilization, PowerUtilization, QueueUtilization, UtilizationFn,
    };
}
