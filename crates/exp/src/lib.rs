//! # `subcomp-exp` — experiment harness
//!
//! Regenerates every data figure in the evaluation of Ma, *Subsidization
//! Competition* (CoNEXT 2014), plus the extension experiments E1–E5 of
//! [`extensions`]. Each paper figure has a dedicated binary printing the
//! same series the paper plots and writing a CSV under `results/`:
//!
//! | binary | paper artifact | content |
//! |---|---|---|
//! | `fig4` | Figure 4 | aggregate throughput θ(p) and revenue R(p), §3.2 setting |
//! | `fig5` | Figure 5 | per-CP throughput θ_i(p), 3×3 grid of (α, β) types |
//! | `fig7` | Figure 7 | ISP revenue and welfare vs p for q ∈ {0, …, 2} |
//! | `fig8` | Figure 8 | equilibrium subsidies s_i(p; q), 8 panels |
//! | `fig9` | Figure 9 | equilibrium populations m_i(p; q) |
//! | `fig10` | Figure 10 | equilibrium throughput θ_i(p; q) |
//! | `fig11` | Figure 11 | equilibrium utilities U_i(p; q) |
//! | `extensions` | — | E1 endogenous pricing, E2 capacity planning, E3 sim-vs-theory |
//! | `all_figures` | — | everything above in one run |
//!
//! The [`figures`] module computes the data (shared with the integration
//! tests, which assert the paper's qualitative claims on exactly the data
//! the binaries print); [`scenarios`] pins the paper's parameterizations;
//! [`report`] renders aligned ASCII tables and CSV files; [`sweep`] runs
//! multi-threaded parameter sweeps with warm-started equilibrium solves —
//! including the [`sweep::GridSolver`] 2-D continuation engine the §5
//! panel and the grid benchmarks are built on.
//!
//! Beyond the figures, [`corpus`] maintains the named scenario corpus —
//! the paper's systems plus oligopolies, capacity/elasticity extremes and
//! non-neutral regimes — and [`golden`] pins every corpus run to a
//! committed JSON snapshot under `tests/golden/` (regenerate with the
//! `regen_golden` binary; see `tests/README.md` for the tolerance policy).
//!
//! The [`server`] module turns the batch engines into a resident service:
//! a long-running in-process equilibrium server over warm workspaces with
//! a fingerprint cache and a deterministic load generator (the
//! `serve_market` binary drives it end to end). The [`adoption`] module
//! closes the Weber–Guérin feedback loop on top of it: million-user
//! `sim::adoption` cohorts drive in-place axis/demand writes and warm
//! re-solves through the sharded server (the `adopt_sim` binary).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adoption;
pub mod corpus;
pub mod extensions;
pub mod figures;
pub mod golden;
pub mod report;
pub mod scenarios;
pub mod server;
pub mod sweep;
