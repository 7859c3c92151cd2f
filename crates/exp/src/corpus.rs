//! The scenario corpus: ~30 named, deterministic market scenarios and a
//! unified runner that takes each through the analytic Nash solver, a
//! Jacobi cross-check, the Theorem 3 certificate, and the agent-based
//! market simulator.
//!
//! The corpus extends the paper's two pinned parameterizations (§3.2 and
//! §5) along the axes the related literature explores — oligopolies of
//! growing size, heterogeneous capacities and loads, alternative
//! congestion laws, extreme elasticity corners, near-degenerate demand,
//! seeded random ensembles, and non-neutral/side-payment regimes in the
//! spirit of Lotfi et al. (*Is Non-Neutrality Profitable…*) and Altman,
//! Caron & Kesidis (*Application Neutrality and a Paradox of Side
//! Payments*). Every scenario is pinned by a golden snapshot under
//! `tests/golden/` (see [`crate::golden`]); `tests/golden_scenarios.rs`
//! re-runs the corpus on every CI pass so a solver or model refactor that
//! silently shifts any equilibrium fails with a named diff.

use crate::golden::Json;
use crate::scenarios::{random_specs, section3_specs, section5_specs};
use crate::sweep::parallel_map;
use subcomp_core::game::SubsidyGame;
use subcomp_core::nash::{NashSolver, SolveDiagnostics, WarmStart};
use subcomp_core::workspace::SolveWorkspace;
use subcomp_model::aggregation::{build_system_with, ExpCpSpec};
use subcomp_model::system::System;
use subcomp_model::utilization::{
    LinearUtilization, PowerUtilization, QueueUtilization, UtilizationFn,
};
use subcomp_num::NumResult;
use subcomp_sim::market::{MarketSim, MarketSimConfig};

/// Which Assumption 1 family a scenario runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UtilizationKind {
    /// The paper's `Φ = θ/µ`.
    Linear,
    /// Power-law `Φ = (θ/µ)^γ`.
    Power(f64),
    /// Queueing-delay shaped family (throughput saturates below `µ`).
    Queue,
}

impl UtilizationKind {
    fn build(&self) -> NumResult<Box<dyn UtilizationFn>> {
        Ok(match self {
            UtilizationKind::Linear => Box::new(LinearUtilization),
            UtilizationKind::Power(gamma) => Box::new(PowerUtilization::new(*gamma)?),
            UtilizationKind::Queue => Box::new(QueueUtilization),
        })
    }
}

/// Market-simulator parameters for a scenario (always deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// Days to simulate.
    pub days: usize,
    /// RNG seed.
    pub seed: u64,
}

/// One named, fully pinned scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Unique corpus name (doubles as the golden file stem).
    pub name: &'static str,
    /// One-line description for reports.
    pub summary: &'static str,
    /// CP types.
    pub specs: Vec<ExpCpSpec>,
    /// ISP capacity `µ`.
    pub mu: f64,
    /// ISP price `p`.
    pub price: f64,
    /// Regulatory cap `q`.
    pub cap: f64,
    /// Clamp effective prices at zero (`t_i = max(0, p − s_i)`) — the
    /// side-payment regime where users are never paid to consume.
    pub clamp_price: bool,
    /// Congestion family.
    pub utilization: UtilizationKind,
    /// Market-simulator leg (None skips the sim for this scenario).
    pub sim: Option<SimParams>,
    /// Capacity applied *after* the base system builds, through the
    /// in-place [`SubsidyGame::set_mu`] — the µ-axis reparameterization
    /// path of the continuation engine, exercised inside the corpus
    /// pipeline (bit-identical to building at this µ directly).
    pub mu_patch: Option<f64>,
    /// Per-provider profitability shocks applied through the in-place
    /// [`SubsidyGame::set_profitability`] — the Theorem 5 `v`-axis
    /// counterpart of [`ScenarioSpec::mu_patch`].
    pub v_patches: Vec<(usize, f64)>,
}

impl ScenarioSpec {
    fn new(name: &'static str, summary: &'static str, specs: Vec<ExpCpSpec>) -> Self {
        ScenarioSpec {
            name,
            summary,
            specs,
            mu: 1.0,
            price: 0.6,
            cap: 1.0,
            clamp_price: false,
            utilization: UtilizationKind::Linear,
            sim: Some(SimParams { days: 1500, seed: 0xC0FFEE }),
            mu_patch: None,
            v_patches: Vec::new(),
        }
    }

    fn pq(mut self, price: f64, cap: f64) -> Self {
        self.price = price;
        self.cap = cap;
        self
    }

    fn mu(mut self, mu: f64) -> Self {
        self.mu = mu;
        self
    }

    fn clamped(mut self) -> Self {
        self.clamp_price = true;
        self
    }

    fn utilization(mut self, u: UtilizationKind) -> Self {
        self.utilization = u;
        self
    }

    fn sim_days(mut self, days: usize) -> Self {
        self.sim = Some(SimParams { days, seed: 0xC0FFEE });
        self
    }

    fn no_sim(mut self) -> Self {
        self.sim = None;
        self
    }

    fn expand_mu(mut self, mu: f64) -> Self {
        self.mu_patch = Some(mu);
        self
    }

    fn vshock(mut self, i: usize, v: f64) -> Self {
        self.v_patches.push((i, v));
        self
    }

    /// Builds the physical system (the *base* system — the µ/v patches of
    /// [`ScenarioSpec::mu_patch`]/[`ScenarioSpec::v_patches`] land on the
    /// game in [`ScenarioSpec::build_game`], through the in-place axis
    /// mutators).
    pub fn build_system(&self) -> NumResult<System> {
        build_system_with(&self.specs, self.mu, self.utilization.build()?)
    }

    /// Builds the subsidization game, applying the µ/v reparameterization
    /// patches through the continuation engine's in-place mutators.
    pub fn build_game(&self) -> NumResult<SubsidyGame> {
        let mut game = SubsidyGame::new(self.build_system()?, self.price, self.cap)?
            .with_clamped_price(self.clamp_price);
        if let Some(mu) = self.mu_patch {
            game.set_mu(mu)?;
        }
        for &(i, v) in &self.v_patches {
            game.set_profitability(i, v)?;
        }
        Ok(game)
    }
}

/// `n` CP types with deterministically graded `(α, β, v)`: `α` rises from
/// 2 to 5, `β` falls from 5 to 2, `v` rises from 0.5 to 1 across the list.
pub fn graded_specs(n: usize) -> Vec<ExpCpSpec> {
    (0..n)
        .map(|i| {
            let t = if n > 1 { i as f64 / (n - 1) as f64 } else { 0.0 };
            ExpCpSpec::unit(2.0 + 3.0 * t, 5.0 - 3.0 * t, 0.5 + 0.5 * t)
        })
        .collect()
}

/// The full scenario corpus, in deterministic order.
pub fn corpus() -> Vec<ScenarioSpec> {
    let mut list = Vec::new();

    // --- The paper's own parameterizations -------------------------------
    list.push(
        ScenarioSpec::new(
            "paper-s3",
            "§3.2 grid: 9 types, (α,β) ∈ {1,3,5}², v = 1",
            section3_specs(),
        )
        .pq(0.5, 1.0)
        .no_sim(),
    );
    list.push(
        ScenarioSpec::new(
            "paper-s5",
            "§5 evaluation: 8 types, α,β ∈ {2,5}, v ∈ {0.5,1}",
            section5_specs(),
        )
        .pq(0.6, 1.0)
        .no_sim(),
    );
    list.push(
        ScenarioSpec::new("paper-s5-lowcap", "§5 system under a tight cap q = 0.25", {
            section5_specs()
        })
        .pq(0.6, 0.25)
        .no_sim(),
    );
    list.push(
        ScenarioSpec::new("paper-s5-highprice", "§5 system at a high price p = 1.4", {
            section5_specs()
        })
        .pq(1.4, 1.0)
        .no_sim(),
    );
    list.push(
        ScenarioSpec::new("regulated-baseline", "§5 system with subsidies banned (q = 0)", {
            section5_specs()
        })
        .pq(0.6, 0.0)
        .sim_days(400),
    );

    // --- Oligopolies N = 3..8 -------------------------------------------
    list.push(
        ScenarioSpec::new("oligopoly-n3", "3 graded CP types", graded_specs(3))
            .pq(0.6, 0.8)
            .sim_days(6000),
    );
    list.push(
        ScenarioSpec::new("oligopoly-n4", "4 graded CP types", graded_specs(4))
            .pq(0.6, 0.8)
            .sim_days(2000),
    );
    list.push(
        ScenarioSpec::new("oligopoly-n5", "5 graded CP types", graded_specs(5))
            .pq(0.6, 0.8)
            .sim_days(2000),
    );
    list.push(
        ScenarioSpec::new("oligopoly-n6", "6 graded CP types", graded_specs(6))
            .pq(0.6, 0.8)
            .no_sim(),
    );
    list.push(
        ScenarioSpec::new("oligopoly-n7", "7 graded CP types", graded_specs(7))
            .pq(0.6, 0.8)
            .no_sim(),
    );
    list.push(
        ScenarioSpec::new("oligopoly-n8", "8 graded CP types", graded_specs(8))
            .pq(0.6, 0.8)
            .no_sim(),
    );

    // --- Heterogeneous capacities and loads ------------------------------
    list.push(
        ScenarioSpec::new("capacity-scarce", "§5 system on a scarce link µ = 0.25", {
            section5_specs()
        })
        .pq(0.6, 1.0)
        .mu(0.25)
        .no_sim(),
    );
    list.push(
        ScenarioSpec::new("capacity-rich", "§5 system on an overprovisioned link µ = 4", {
            section5_specs()
        })
        .pq(0.6, 1.0)
        .mu(4.0)
        .no_sim(),
    );
    list.push(
        ScenarioSpec::new(
            "load-asymmetric",
            "5 types with population masses graded 0.2..2.0 on µ = 1.5",
            (0..5)
                .map(|i| {
                    let t = i as f64 / 4.0;
                    ExpCpSpec { m0: 0.2 + 1.8 * t, ..ExpCpSpec::unit(3.0, 3.0, 0.4 + 0.6 * t) }
                })
                .collect(),
        )
        .pq(0.5, 0.9)
        .mu(1.5)
        .sim_days(1500),
    );

    // --- Alternative congestion laws -------------------------------------
    list.push(
        ScenarioSpec::new("util-power-sharp", "§5 system under Φ = (θ/µ)², late congestion", {
            section5_specs()
        })
        .pq(0.6, 1.0)
        .utilization(UtilizationKind::Power(2.0))
        .no_sim(),
    );
    list.push(
        ScenarioSpec::new(
            "util-power-early",
            "§5 system under Φ = (θ/µ)^0.5, early congestion",
            section5_specs(),
        )
        .pq(0.6, 1.0)
        .utilization(UtilizationKind::Power(0.5))
        .no_sim(),
    );
    list.push(
        ScenarioSpec::new("util-queue", "4 graded types behind a queueing-delay law", {
            graded_specs(4)
        })
        .pq(0.4, 0.8)
        .utilization(UtilizationKind::Queue)
        .sim_days(1500),
    );

    // --- Extreme elasticity corners --------------------------------------
    list.push(
        ScenarioSpec::new(
            "corner-inelastic",
            "price- and congestion-insensitive types (α = β = 0.1)",
            vec![
                ExpCpSpec::unit(0.1, 0.1, 1.0),
                ExpCpSpec::unit(0.1, 0.1, 0.5),
                ExpCpSpec::unit(0.1, 0.1, 0.25),
            ],
        )
        .pq(0.6, 0.8)
        .no_sim(),
    );
    list.push(
        ScenarioSpec::new(
            "corner-price-elastic",
            "hyper price-elastic types (α = 8)",
            vec![ExpCpSpec::unit(8.0, 2.0, 1.0), ExpCpSpec::unit(8.0, 5.0, 0.5)],
        )
        .pq(0.6, 1.0)
        .sim_days(1500),
    );
    list.push(
        ScenarioSpec::new(
            "corner-congestion-elastic",
            "hyper congestion-elastic types (β = 8)",
            vec![ExpCpSpec::unit(2.0, 8.0, 1.0), ExpCpSpec::unit(5.0, 8.0, 0.5)],
        )
        .pq(0.6, 1.0)
        .no_sim(),
    );
    list.push(
        ScenarioSpec::new(
            "corner-mixed-extremes",
            "all four (α, β) elasticity corners in one market",
            vec![
                ExpCpSpec::unit(0.1, 8.0, 1.0),
                ExpCpSpec::unit(8.0, 0.1, 1.0),
                ExpCpSpec::unit(8.0, 8.0, 0.5),
                ExpCpSpec::unit(0.1, 0.1, 0.5),
            ],
        )
        .pq(0.6, 0.8)
        .no_sim(),
    );

    // --- Near-degenerate demand ------------------------------------------
    list.push(
        ScenarioSpec::new(
            "degenerate-low-value",
            "profit margins barely above zero (v = 0.02)",
            vec![ExpCpSpec::unit(2.0, 2.0, 0.02), ExpCpSpec::unit(5.0, 5.0, 0.02)],
        )
        .pq(0.6, 1.0)
        .sim_days(400),
    );
    list.push(
        ScenarioSpec::new(
            "degenerate-thin-market",
            "populations three orders of magnitude below capacity (m₀ = 1e-3)",
            vec![
                ExpCpSpec { m0: 1e-3, ..ExpCpSpec::unit(2.0, 2.0, 1.0) },
                ExpCpSpec { m0: 1e-3, ..ExpCpSpec::unit(5.0, 5.0, 0.5) },
            ],
        )
        .pq(0.6, 1.0)
        .no_sim(),
    );
    list.push(
        ScenarioSpec::new(
            "degenerate-tiny-cap",
            "a cap so small subsidies barely move (q = 1e-3)",
            section5_specs(),
        )
        .pq(0.6, 1e-3)
        .no_sim(),
    );

    // --- Seeded random ensembles -----------------------------------------
    list.push(
        ScenarioSpec::new("random-n4-s1", "4 random types, seed 1", random_specs(4, 1))
            .pq(0.55, 0.9)
            .sim_days(2000),
    );
    list.push(
        ScenarioSpec::new("random-n6-s2", "6 random types, seed 2", random_specs(6, 2))
            .pq(0.7, 0.8)
            .no_sim(),
    );
    list.push(
        ScenarioSpec::new("random-n10-s3", "10 random types, seed 3", random_specs(10, 3))
            .pq(0.6, 1.0)
            .no_sim(),
    );
    list.push(
        ScenarioSpec::new("random-n16-s4", "16 random types, seed 4", random_specs(16, 4))
            .pq(0.5, 0.7)
            .mu(2.0)
            .no_sim(),
    );
    // Large-scale ensembles the batched allocation-free engine makes
    // tractable: sizes the corpus never reached before (the old ceiling
    // was n = 16). Capacity scales with n to keep per-provider load in
    // the paper's regime. Solved (and Jacobi cross-checked) like every
    // other scenario; the golden tier skips *running* them in debug
    // builds, where a 256-provider solve is prohibitively slow — release
    // CI and regen_golden always cover them.
    list.push(
        ScenarioSpec::new("random-n64-s5", "64 random types, seed 5, µ = 8", random_specs(64, 5))
            .pq(0.6, 0.9)
            .mu(8.0)
            .no_sim(),
    );
    list.push(
        ScenarioSpec::new(
            "random-n256-s6",
            "256 random types, seed 6, µ = 32",
            random_specs(256, 6),
        )
        .pq(0.55, 0.8)
        .mu(32.0)
        .no_sim(),
    );

    // --- µ/v axis reparameterization (the axis-continuation corpus leg) --
    //
    // A capacity-expansion ladder and a per-provider profitability shock,
    // each built by patching the base §5 system *in place* through the
    // axis mutators (`set_mu`/`set_profitability`) — the same path the
    // continuation engine sweeps, so a kernel-patch regression shifts
    // these goldens even if every from-scratch scenario stays put.
    list.push(
        ScenarioSpec::new(
            "mu-ladder-half",
            "§5 system re-capacitated in place to µ = 0.5 (set_mu patch path)",
            section5_specs(),
        )
        .pq(0.5, 0.8)
        .expand_mu(0.5)
        .no_sim(),
    );
    list.push(
        ScenarioSpec::new(
            "mu-ladder-x2",
            "§5 system expanded in place to µ = 2 (set_mu patch path)",
            section5_specs(),
        )
        .pq(0.5, 0.8)
        .expand_mu(2.0)
        .no_sim(),
    );
    list.push(
        ScenarioSpec::new(
            "mu-ladder-x4",
            "§5 system expanded in place to µ = 4 (set_mu patch path)",
            section5_specs(),
        )
        .pq(0.5, 0.8)
        .expand_mu(4.0)
        .no_sim(),
    );
    list.push(
        ScenarioSpec::new(
            "vshock-deep-pocket",
            "§5 system with CP 7's profitability shocked 1 → 2 in place (Theorem 5 axis)",
            section5_specs(),
        )
        .pq(0.6, 1.0)
        .vshock(7, 2.0)
        .no_sim(),
    );

    // --- Non-neutral / side-payment regimes ------------------------------
    list.push(
        ScenarioSpec::new(
            "sidepay-clamped",
            "subsidies may exceed the price but users are never paid (t clamped at 0)",
            section5_specs(),
        )
        .pq(0.25, 1.0)
        .clamped()
        .no_sim(),
    );
    list.push(
        ScenarioSpec::new(
            "sidepay-paradox",
            "cap far above profitability: v, not q, pins the side payment",
            vec![
                ExpCpSpec::unit(3.0, 3.0, 0.2),
                ExpCpSpec::unit(3.0, 3.0, 0.4),
                ExpCpSpec::unit(3.0, 3.0, 0.8),
            ],
        )
        .pq(0.5, 3.0)
        .sim_days(1500),
    );
    list.push(
        ScenarioSpec::new(
            "nonneutral-tiered-lanes",
            "fast-lane vs slow-lane peak rates (λ₀ = 4 vs 0.5) at equal demand",
            vec![
                ExpCpSpec { lambda0: 4.0, ..ExpCpSpec::unit(3.0, 3.0, 1.0) },
                ExpCpSpec { lambda0: 4.0, ..ExpCpSpec::unit(3.0, 3.0, 0.5) },
                ExpCpSpec { lambda0: 0.5, ..ExpCpSpec::unit(3.0, 3.0, 1.0) },
                ExpCpSpec { lambda0: 0.5, ..ExpCpSpec::unit(3.0, 3.0, 0.5) },
            ],
        )
        .pq(0.6, 0.9)
        .no_sim(),
    );
    list.push(
        ScenarioSpec::new(
            "nonneutral-subsidy-war",
            "deep-pocket CPs (v up to 2) under a loose cap: subsidies exceed the price",
            vec![
                ExpCpSpec::unit(3.0, 2.0, 2.0),
                ExpCpSpec::unit(4.0, 3.0, 1.5),
                ExpCpSpec::unit(2.0, 4.0, 1.0),
            ],
        )
        .pq(1.0, 2.0)
        .no_sim(),
    );
    list.push(
        ScenarioSpec::new(
            "duopoly-asym",
            "the asymmetric duopoly used across the sim-vs-theory suite",
            vec![ExpCpSpec::unit(5.0, 2.0, 1.0), ExpCpSpec::unit(2.0, 4.0, 0.4)],
        )
        .pq(0.7, 1.0)
        .sim_days(6000),
    );

    list
}

/// Market-simulator summary worth pinning (all fields deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    /// Days simulated.
    pub days: usize,
    /// Final subsidies after the last day.
    pub final_subsidies: Vec<f64>,
    /// Sup-norm distance between the sim endpoint and the analytic Nash.
    pub distance_to_nash: f64,
    /// Cumulative ISP revenue over the run.
    pub isp_revenue: f64,
    /// Ledger conservation error (should be ~0 always).
    pub conservation_error: f64,
}

/// Everything one scenario run pins into its golden snapshot.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Number of providers.
    pub n: usize,
    /// Equilibrium subsidies `s*`.
    pub subsidies: Vec<f64>,
    /// Equilibrium populations `m_i`.
    pub m: Vec<f64>,
    /// Equilibrium per-CP throughput `θ_i`.
    pub theta_i: Vec<f64>,
    /// Equilibrium utilities `U_i`.
    pub utilities: Vec<f64>,
    /// Utilization `φ` at equilibrium.
    pub phi: f64,
    /// Aggregate throughput `θ`.
    pub theta_total: f64,
    /// ISP revenue `p θ`.
    pub isp_revenue: f64,
    /// Welfare `Σ v_i θ_i`.
    pub welfare: f64,
    /// Total subsidy outlay `Σ s_i θ_i`.
    pub subsidy_outlay: f64,
    /// Solver health + Theorem 3 certificate.
    pub diagnostics: SolveDiagnostics,
    /// Sup-norm gap to an independent damped-Jacobi solve (−1 when the
    /// Jacobi solve did not converge for this scenario).
    pub jacobi_gap: f64,
    /// Market-simulator leg, when the scenario runs one.
    pub sim: Option<SimSnapshot>,
}

impl ScenarioResult {
    /// Encodes the result as a JSON snapshot (field order is fixed and is
    /// part of the golden format).
    pub fn to_json(&self) -> Json {
        let mut eq = Json::obj();
        eq.set("subsidies", Json::nums(&self.subsidies));
        eq.set("m", Json::nums(&self.m));
        eq.set("theta", Json::nums(&self.theta_i));
        eq.set("utilities", Json::nums(&self.utilities));
        eq.set("phi", Json::Num(self.phi));
        eq.set("theta_total", Json::Num(self.theta_total));
        eq.set("isp_revenue", Json::Num(self.isp_revenue));
        eq.set("welfare", Json::Num(self.welfare));
        eq.set("subsidy_outlay", Json::Num(self.subsidy_outlay));

        let d = &self.diagnostics;
        let mut diag = Json::obj();
        diag.set("iterations", Json::Num(d.iterations as f64));
        diag.set("converged", Json::Bool(d.converged));
        diag.set("residual", Json::Num(d.residual));
        diag.set("max_kkt_residual", Json::Num(d.max_kkt_residual));
        diag.set("max_threshold_residual", Json::Num(d.max_threshold_residual));
        diag.set("pinned_low", Json::Num(d.pinned_low as f64));
        diag.set("pinned_high", Json::Num(d.pinned_high as f64));
        diag.set("interior", Json::Num(d.interior as f64));
        diag.set("jacobi_gap", Json::Num(self.jacobi_gap));

        let mut root = Json::obj();
        root.set("name", Json::Str(self.name.clone()));
        root.set("n", Json::Num(self.n as f64));
        root.set("equilibrium", eq);
        root.set("diagnostics", diag);
        match &self.sim {
            None => {
                root.set("sim", Json::Null);
            }
            Some(s) => {
                let mut sim = Json::obj();
                sim.set("days", Json::Num(s.days as f64));
                sim.set("final_subsidies", Json::nums(&s.final_subsidies));
                sim.set("distance_to_nash", Json::Num(s.distance_to_nash));
                sim.set("isp_revenue", Json::Num(s.isp_revenue));
                sim.set("conservation_error", Json::Num(s.conservation_error));
                root.set("sim", sim);
            }
        }
        root
    }
}

/// Runs one scenario end to end: primary Gauss–Seidel solve, Theorem 3
/// certificate, independent damped-Jacobi cross-check, and (when
/// configured) the agent-based market simulator.
///
/// Thin wrapper over [`run_scenario_with`] with a throwaway workspace;
/// batch callers ([`run_corpus`], `regen_golden`) hold one workspace per
/// worker instead.
pub fn run_scenario(spec: &ScenarioSpec) -> NumResult<ScenarioResult> {
    run_scenario_with(spec, &mut SolveWorkspace::new())
}

/// [`run_scenario`] on a caller-owned [`SolveWorkspace`]: both Nash
/// solves (primary Gauss–Seidel and the Jacobi cross-check) run through
/// the allocation-free engine on `ws`. Results are bit-identical to the
/// fresh-workspace path — both start cold from `s = 0` — which is what
/// keeps the golden snapshots byte-stable across the engine rework.
pub fn run_scenario_with(
    spec: &ScenarioSpec,
    ws: &mut SolveWorkspace,
) -> NumResult<ScenarioResult> {
    let game = spec.build_game()?;
    let solver = NashSolver::default().with_tol(1e-9);
    let stats = solver.solve_into(&game, WarmStart::Zero, ws)?;
    let eq = ws.solution(stats);
    let diagnostics = eq.diagnostics(&game)?;

    let jacobi = NashSolver::default().with_tol(1e-9).jacobi().with_damping(0.6);
    let jacobi_gap = match jacobi.solve_into(&game, WarmStart::Zero, ws) {
        Ok(_) => eq
            .subsidies
            .iter()
            .zip(ws.subsidies())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max),
        Err(_) => -1.0,
    };

    let sim = match spec.sim {
        None => None,
        Some(params) => {
            let cfg =
                MarketSimConfig { days: params.days, seed: params.seed, ..Default::default() };
            // Compare against exactly the equilibrium this snapshot pins.
            let report = MarketSim::new(&game, cfg)?.run_against(&eq.subsidies)?;
            Some(SimSnapshot {
                days: params.days,
                final_subsidies: report.final_subsidies,
                distance_to_nash: report.distance_to_nash,
                isp_revenue: report.ledger.isp_revenue,
                conservation_error: report.ledger.conservation_error(),
            })
        }
    };

    Ok(ScenarioResult {
        name: spec.name.to_string(),
        n: game.n(),
        subsidies: eq.subsidies.clone(),
        m: eq.state.m.clone(),
        theta_i: eq.state.theta_i.clone(),
        utilities: eq.utilities.clone(),
        phi: eq.state.phi,
        theta_total: eq.state.theta(),
        isp_revenue: eq.isp_revenue(&game),
        welfare: eq.welfare(&game),
        subsidy_outlay: game.subsidy_outlay(&eq.subsidies)?,
        diagnostics,
        jacobi_gap,
        sim,
    })
}

/// Runs the whole corpus on up to `threads` OS threads (order preserved),
/// one reusable [`SolveWorkspace`] per worker — scenarios after the first
/// reuse the worker's buffers instead of re-allocating solver state.
pub fn run_corpus(threads: usize) -> Vec<(String, NumResult<ScenarioResult>)> {
    let specs = corpus();
    let mut refs: Vec<&ScenarioSpec> = specs.iter().collect();
    let results = parallel_map(&mut refs, threads, SolveWorkspace::new, |ws, spec| {
        run_scenario_with(spec, ws)
    });
    specs.iter().map(|s| s.name.to_string()).zip(results).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_names_are_unique_and_wellformed() {
        let specs = corpus();
        assert!(specs.len() >= 25, "corpus must stay substantial, got {}", specs.len());
        let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate scenario names");
        for s in &specs {
            assert!(
                s.name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'),
                "scenario name `{}` must be a safe file stem",
                s.name
            );
            assert!(!s.summary.is_empty());
            assert!(!s.specs.is_empty());
        }
    }

    #[test]
    fn every_scenario_builds_a_valid_game() {
        for spec in corpus() {
            let game = spec.build_game().unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(game.n(), spec.specs.len(), "{}", spec.name);
        }
    }

    #[test]
    fn patched_scenarios_match_rebuilt_parameterizations() {
        // The µ/v scenarios parameterize through the in-place axis
        // mutators; the equilibria must be bit-identical to building the
        // same market from scratch (the kernel-patch contract).
        use subcomp_core::nash::NashSolver;
        let specs = corpus();
        let ladder = specs.iter().find(|s| s.name == "mu-ladder-x2").unwrap();
        assert_eq!(ladder.mu_patch, Some(2.0));
        let patched = ladder.build_game().unwrap();
        let mut direct = ladder.clone();
        direct.mu_patch = None;
        direct.mu = 2.0;
        let rebuilt = direct.build_game().unwrap();
        let solver = NashSolver::default().with_tol(1e-9);
        let a = solver.solve(&patched).unwrap();
        let b = solver.solve(&rebuilt).unwrap();
        assert_eq!(a.subsidies, b.subsidies);
        assert_eq!(a.state.phi.to_bits(), b.state.phi.to_bits());

        let shock = specs.iter().find(|s| s.name == "vshock-deep-pocket").unwrap();
        let game = shock.build_game().unwrap();
        assert_eq!(game.profitability(7), 2.0);
        assert_eq!(game.profitability(6), 1.0, "only the shocked provider moves");
    }

    #[test]
    fn run_scenario_is_deterministic() {
        let spec = &corpus()[0];
        let a = run_scenario(spec).unwrap();
        let b = run_scenario(spec).unwrap();
        assert_eq!(a.to_json().render(), b.to_json().render());
    }

    #[test]
    fn scenario_snapshot_has_the_expected_shape() {
        let specs = corpus();
        let duopoly = specs.iter().find(|s| s.name == "duopoly-asym").unwrap();
        // Trim the sim so the unit test stays fast; shape is unaffected.
        let mut quick = duopoly.clone();
        quick.sim = Some(SimParams { days: 200, seed: 7 });
        let result = run_scenario(&quick).unwrap();
        let json = result.to_json();
        assert_eq!(json.get("name").and_then(Json::as_str), Some("duopoly-asym"));
        assert_eq!(json.get("n").and_then(Json::as_num), Some(2.0));
        assert!(json.get("equilibrium").and_then(|e| e.get("phi")).is_some());
        assert!(json.get("diagnostics").and_then(|d| d.get("jacobi_gap")).is_some());
        assert!(json.get("sim").and_then(|s| s.get("distance_to_nash")).is_some());
        // Round-trips through the codec.
        let back = Json::parse(&json.render()).unwrap();
        assert_eq!(json, back);
    }
}
