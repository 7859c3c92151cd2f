//! # `subcomp-sim` — simulation substrate for model validation
//!
//! The paper's model is macroscopic and its evaluation is purely numerical:
//! no market data existed in 2014 (§6), and the stylized forms
//! `λ(φ) = e^{-βφ}`, `m(t) = e^{-αt}` are assumptions. This crate builds
//! the two simulators that stand in for what a measurement campaign or a
//! deployed sponsored-data market would provide:
//!
//! * [`flow`] — a stochastic **fluid/flow-level access-link simulator**:
//!   discrete users arrive and depart (M/M/∞ churn around the demand level
//!   `m_i(t_i)`), active users adapt their rate to the observed congestion,
//!   and the link aggregates them. The *emergent* time-averaged utilization
//!   reproduces the Definition 1 fixed point, and a measured
//!   throughput-vs-utilization curve can be fed back into the analytic
//!   model via [`measured::MeasuredThroughput`].
//! * [`market`] — an **agent-based market simulator** at day granularity:
//!   user populations relax toward demand, CPs adjust subsidies by noisy
//!   hill-climbing on realized profit (no oracle access to utilities), and
//!   the usage-based money flows are metered by [`billing`]. Its long-run
//!   state is compared against the analytic Nash equilibrium of
//!   `subcomp-core` — the sim-vs-theory experiment (E3 of the `extensions`
//!   binary in `subcomp-exp`).
//! * [`adoption`] — a million-user **event-driven adoption engine**
//!   (Weber–Guérin externality dynamics): users sorted by valuation per
//!   type, adoption states in bitsets, randomness drawn only where a flip
//!   can happen (geometric skips and per-user counter hashes, keyed so
//!   ticks are bit-identical across thread counts and chunk sizes), zero
//!   heap allocation per tick. The heavy-traffic demand side of the closed
//!   simulate → re-solve loop (`subcomp-exp`'s `adoption` module).
//!
//! Randomness is deterministic per seed ([`rng`]); traces are recorded by
//! [`trace`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adoption;
pub mod billing;
pub mod flow;
pub mod market;
pub mod measured;
pub mod rng;
pub mod trace;

/// One-stop imports for simulator usage.
pub mod prelude {
    pub use crate::adoption::{AdoptionParams, Population, TickDrive, TypeSpec};
    pub use crate::billing::Ledger;
    pub use crate::flow::{FlowSim, FlowSimConfig, FlowSimReport};
    pub use crate::market::{MarketSim, MarketSimConfig, MarketSimReport};
    pub use crate::measured::MeasuredThroughput;
    pub use crate::rng::SimRng;
}
