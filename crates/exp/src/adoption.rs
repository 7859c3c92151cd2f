//! The closed adoption loop: simulate → in-place axis/demand writes →
//! warm re-solve → simulate, wired through the sharded server.
//!
//! `sim::adoption` supplies the demand side — a million-user
//! event-driven bitset population adopting and churning under
//! externality-dependent hazards. This module closes the feedback loop
//! the ROADMAP's Weber–Guérin item asks for, with the
//! [`ShardedServer`] as the equilibrium host (**one resident market per
//! adoption cohort**):
//!
//! 1. **Externality read.** Each tick reads the cohort's current
//!    equilibrium — lock-free out of the market's published slot when
//!    the parameterization is unchanged, through its resident server
//!    otherwise — and turns it into the tick's
//!    [`TickDrive`]: effective price `t_eff_i = max(p − s_i, 0)` and
//!    externality gain `gain_i = 1 + γ·θ_i` (adoption begets adoption:
//!    higher served throughput raises every valuation).
//! 2. **Simulate.** The population steps one tick —
//!    [`step_population`] fans the owned blocks over
//!    [`crate::sweep::parallel_map`], bit-identical for any thread
//!    count — and re-aggregates per-type adopted mass in one pass.
//! 3. **Feed back.** Adoption load depresses effective capacity,
//!    `µ = µ_base / (1 + η·load)`, written through the server as an
//!    in-place `Request::Update { axis: Axis::Mu }`; with
//!    [`LoopConfig::seed_tangent`] a `Request::Sensitivity` first arms
//!    the server's tangent seed so the re-solve rides the
//!    predictor-corrector. Every [`LoopConfig::demand_every`] ticks the
//!    realized masses are written back into the demand curves
//!    (`m⁰_i ← max(mass_i, floor·m⁰_i)`) together with an
//!    adoption-coupled `Axis::Profitability` drift, as a full `submit`.
//! 4. **Re-solve.** A `Request::Equilibrium` re-solves the market —
//!    tangent-seeded or warm from the previous equilibrium, both
//!    allocation-free in the resident server — and publishes the
//!    snapshot the *next* tick's externality read picks up lock-free.
//!
//! Cohorts never interact: each cohort's population seed, capacity base
//! and market id are pure functions of `(loop seed, market id)`, so a
//! cohort's trajectory is bit-identical whatever other cohorts run
//! beside it (and whatever the shard or thread counts are) — the
//! cohort-isolation leg of the determinism tier in
//! `tests/adoption_tier.rs`. The server runs in the ticking thread and
//! serves the cohorts one after another.

use crate::server::sharded::{ShardedConfig, ShardedServer};
use crate::server::{Reply, Request, ServeError, ServeResult, Source};
use crate::sweep::parallel_map;
use subcomp_core::game::{Axis, SubsidyGame};
use subcomp_model::aggregation::{build_system, ExpCpSpec};
use subcomp_num::{NumError, NumResult};
use subcomp_sim::adoption::{AdoptionParams, Population, TickDrive, TypeSpec};
use subcomp_sim::rng::SimRng;

/// Stream index deriving per-cohort population seeds from the loop seed.
const POP_STREAM: u64 = 0xC040_0001;

/// Steps `pop` by one tick with the block fan-out parallelized over
/// `threads` OS threads. Blocks are owned, disjoint runs of whole
/// canonical ranges, and every draw is keyed by type, class, rank or
/// range — never by block or thread — so the result is
/// **bit-identical to the serial [`Population::step`] for any thread
/// count and chunk size** (pinned by the adoption determinism tier).
/// `threads <= 1` runs serially with no spawn.
pub fn step_population(pop: &mut Population, threads: usize, drive: &TickDrive) -> NumResult<()> {
    let ctx = pop.prepare_tick(drive)?;
    parallel_map(pop.blocks_mut(), threads, || (), |_, block| block.step(&ctx));
    pop.refresh_masses();
    Ok(())
}

/// How each equilibrium answer of the closed loop was produced —
/// cumulative tallies over every served request, the observable that
/// separates the warm loop from the cooled one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceCounts {
    /// Router-absorbed lock-free snapshot reads.
    pub lockfree: u64,
    /// Fingerprint-cache hits inside a resident server.
    pub cache: u64,
    /// Tangent-seeded predictor-corrector solves.
    pub tangent: u64,
    /// Warm re-solves from the previous equilibrium.
    pub warm: u64,
    /// Cold solves from scratch.
    pub cold: u64,
    /// Budget-starved partial answers.
    pub partial: u64,
}

impl SourceCounts {
    /// Tallies one served source.
    pub fn note(&mut self, source: Source) {
        match source {
            Source::LockFree => self.lockfree += 1,
            Source::CacheHit => self.cache += 1,
            Source::Tangent => self.tangent += 1,
            Source::Warm => self.warm += 1,
            Source::Cold => self.cold += 1,
            Source::Partial => self.partial += 1,
        }
    }

    /// Total answers tallied.
    pub fn total(&self) -> u64 {
        self.lockfree + self.cache + self.tangent + self.warm + self.cold + self.partial
    }
}

/// Configuration of the closed loop.
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Master seed; cohort populations and capacity bases derive from it.
    pub seed: u64,
    /// Number of adoption cohorts (= resident markets).
    pub cohorts: usize,
    /// Users per cohort.
    pub users: usize,
    /// Users per block, rounded up to whole 4,096-user ranges: the unit
    /// of parallel distribution, which never changes the trajectory.
    pub chunk: usize,
    /// Worker threads for the block fan-out (`<= 1` is serial).
    pub threads: usize,
    /// Adoption/churn hazards; the `seed` field is overridden per cohort.
    pub hazards: AdoptionParams,
    /// Externality strength `γ` in `gain_i = 1 + γ·θ_i`.
    pub gamma: f64,
    /// Capacity load sensitivity `η` in `µ = µ_base / (1 + η·load)`.
    pub eta: f64,
    /// Write realized masses back into the demand curves (full `submit`
    /// plus a profitability drift) every this many ticks; 0 disables.
    pub demand_every: u64,
    /// Floor on the demand write-back, as a fraction of the original
    /// `m⁰` (keeps the rebuilt system well-posed when adoption crashes).
    pub demand_floor: f64,
    /// Arm the server's tangent seed (`Request::Sensitivity`) before
    /// each µ write so re-solves ride the predictor-corrector.
    pub seed_tangent: bool,
    /// Shards of the sharded server (fault domains and report groups;
    /// they never change a reply).
    pub shards: usize,
}

impl Default for LoopConfig {
    fn default() -> Self {
        LoopConfig {
            seed: 0,
            cohorts: 1,
            users: 100_000,
            chunk: 16_384,
            threads: 1,
            hazards: AdoptionParams { adopt: 0.5, churn: 0.5, ..Default::default() },
            gamma: 0.5,
            eta: 0.3,
            demand_every: 0,
            demand_floor: 0.25,
            seed_tangent: true,
            shards: 1,
        }
    }
}

/// Aggregate outcome of one tick across all cohorts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickSummary {
    /// Tick index (1-based).
    pub tick: u64,
    /// Total adopted users across cohorts.
    pub adopted: u64,
    /// Total adopted mass across cohorts.
    pub mass: f64,
}

/// Deterministic outcome of a [`AdoptionLoop::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoopReport {
    /// Ticks run.
    pub ticks: u64,
    /// Cohort count.
    pub cohorts: usize,
    /// Users per cohort.
    pub users: usize,
    /// Adopted users after the last tick.
    pub final_adopted: u64,
    /// Adopted mass after the last tick.
    pub final_mass: f64,
    /// Cumulative equilibrium-answer sources.
    pub sources: SourceCounts,
    /// FNV-1a fold of every tick's `(tick, adopted, mass)` — byte-equal
    /// across reruns, thread counts and chunk sizes.
    pub checksum: u64,
}

/// One cohort: a resident market plus its user population.
struct Cohort {
    market: u64,
    pop: Population,
    drive: TickDrive,
    mu_base: f64,
}

/// The closed simulate → write → warm-resolve loop over a
/// [`ShardedServer`]. See the module docs for the tick anatomy.
pub struct AdoptionLoop {
    cfg: LoopConfig,
    specs: Vec<ExpCpSpec>,
    price: f64,
    cap: f64,
    server: ShardedServer,
    cohorts: Vec<Cohort>,
    scratch_specs: Vec<ExpCpSpec>,
    tick: u64,
    sources: SourceCounts,
}

/// Top 53 bits of an avalanched hash as a uniform in `[0, 1)`.
#[inline]
fn u01(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// FNV-1a over one 64-bit word.
#[inline]
fn fnv_fold(h: u64, word: u64) -> u64 {
    let mut h = h;
    for byte in word.to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl AdoptionLoop {
    /// Builds the loop: one resident market per cohort (CP demand
    /// curves from `specs`, usage price `price`, subsidy cap `cap`,
    /// per-cohort capacity jittered around `mu` as a pure function of
    /// the market id) and one user population per cohort seeded by
    /// `stream_seed(cfg.seed, market)`.
    pub fn new(
        specs: &[ExpCpSpec],
        mu: f64,
        price: f64,
        cap: f64,
        cfg: &LoopConfig,
    ) -> NumResult<AdoptionLoop> {
        if cfg.cohorts == 0 {
            return Err(NumError::Domain {
                what: "adoption loop needs at least one cohort",
                value: 0.0,
            });
        }
        if !(cfg.gamma >= 0.0) || !cfg.gamma.is_finite() {
            return Err(NumError::Domain {
                what: "externality strength gamma must be non-negative and finite",
                value: cfg.gamma,
            });
        }
        if !(cfg.eta >= 0.0) || !cfg.eta.is_finite() {
            return Err(NumError::Domain {
                what: "load sensitivity eta must be non-negative and finite",
                value: cfg.eta,
            });
        }
        if !(cfg.demand_floor > 0.0 && cfg.demand_floor <= 1.0) {
            return Err(NumError::Domain {
                what: "demand floor must be a fraction in (0, 1]",
                value: cfg.demand_floor,
            });
        }
        let types: Vec<TypeSpec> =
            specs.iter().map(|s| TypeSpec { mass: s.m0, alpha: s.alpha }).collect();
        let pop_root = SimRng::stream_seed(cfg.seed, POP_STREAM);
        let mut markets = Vec::with_capacity(cfg.cohorts);
        let mut cohorts = Vec::with_capacity(cfg.cohorts);
        for market in 0..cfg.cohorts as u64 {
            // Cohort capacity: ±10% around the base, pure in the id —
            // cohorts keep their µ whatever the cohort count.
            let mu_base = mu * (0.9 + 0.2 * u01(SimRng::stream_seed(cfg.seed, !market)));
            let game = SubsidyGame::new(build_system(specs, mu_base)?, price, cap)?;
            markets.push((market, game));
            let hazards =
                AdoptionParams { seed: SimRng::stream_seed(pop_root, market), ..cfg.hazards };
            cohorts.push(Cohort {
                market,
                pop: Population::build(&types, cfg.users, cfg.chunk, hazards)?,
                drive: TickDrive::uniform(specs.len(), 0.0),
                mu_base,
            });
        }
        let server = ShardedServer::new(
            markets,
            &ShardedConfig { shards: cfg.shards.max(1), ..Default::default() },
        )?;
        Ok(AdoptionLoop {
            cfg: cfg.clone(),
            specs: specs.to_vec(),
            price,
            cap,
            server,
            cohorts,
            scratch_specs: specs.to_vec(),
            tick: 0,
            sources: SourceCounts::default(),
        })
    }

    /// Advances every cohort by one closed-loop tick. Allocation-free,
    /// market server included, once the fingerprint caches have started
    /// evicting, when the tick stays on the resident paths (serial block
    /// fan-out, no tangent seeding, no demand write-back tick) — the
    /// contract pinned in `tests/alloc_free.rs`.
    pub fn tick(&mut self) -> ServeResult<TickSummary> {
        self.tick += 1;
        let tick = self.tick;
        let mut adopted = 0u64;
        let mut mass = 0.0f64;
        let cfg = &self.cfg;
        let server = &mut self.server;
        let sources = &mut self.sources;
        for cohort in &mut self.cohorts {
            // 1. Externality read: lock-free when published, served
            // through the market's server otherwise.
            let snap = match server.read_cached(cohort.market) {
                Some(snap) => {
                    sources.lockfree += 1;
                    snap
                }
                None => match server.serve(cohort.market, Request::Equilibrium)? {
                    Reply::Equilibrium { snap, source }
                    | Reply::Degenerate { snap, source, .. } => {
                        sources.note(source);
                        snap
                    }
                    _ => return Err(desync()),
                },
            };
            let subsidies = snap.subsidies();
            let theta = &snap.state().theta_i;
            for (i, t) in cohort.drive.t_eff.iter_mut().enumerate() {
                *t = (self.price - subsidies[i]).max(0.0);
            }
            for (i, g) in cohort.drive.gain.iter_mut().enumerate() {
                *g = 1.0 + cfg.gamma * theta[i];
            }
            drop(snap);
            // 2. Simulate one tick over the owned blocks.
            let ctx = cohort.pop.prepare_tick(&cohort.drive).map_err(ServeError::Num)?;
            parallel_map(cohort.pop.blocks_mut(), cfg.threads, || (), |_, block| block.step(&ctx));
            cohort.pop.refresh_masses();
            adopted += cohort.pop.adopted_users();
            let cohort_mass: f64 = cohort.pop.masses().iter().sum();
            mass += cohort_mass;
            // 3. Feed back: load depresses capacity; optionally arm the
            // tangent seed so the µ re-solve rides the predictor.
            let load = cohort.pop.adopted_fraction();
            let mu = cohort.mu_base / (1.0 + cfg.eta * load);
            if cfg.demand_every > 0 && tick % cfg.demand_every == 0 {
                // Demand write-back: realized masses become the new m⁰,
                // floored; CP 0's margin drifts with adoption. A full
                // submit resets warm seeds by design.
                for (spec, (&m, base)) in
                    self.scratch_specs.iter_mut().zip(cohort.pop.masses().iter().zip(&self.specs))
                {
                    spec.m0 = m.max(cfg.demand_floor * base.m0);
                }
                let game =
                    SubsidyGame::new(build_system(&self.scratch_specs, mu)?, self.price, self.cap)?;
                server.submit(cohort.market, game)?;
                let v0 = self.specs[0].v * (1.0 + 0.1 * load);
                server.serve(
                    cohort.market,
                    Request::Update { axis: Axis::Profitability(0), value: v0 },
                )?;
            }
            if cfg.seed_tangent {
                match server.serve(cohort.market, Request::Sensitivity { axis: Axis::Mu })? {
                    Reply::Sensitivity { .. } | Reply::Degenerate { .. } => {}
                    _ => return Err(desync()),
                }
            }
            server.serve(cohort.market, Request::Update { axis: Axis::Mu, value: mu })?;
            // 4. Warm re-solve; the published snapshot feeds the next
            // tick's externality read lock-free.
            match server.serve(cohort.market, Request::Equilibrium)? {
                Reply::Equilibrium { source, .. } | Reply::Degenerate { source, .. } => {
                    sources.note(source)
                }
                _ => return Err(desync()),
            }
        }
        Ok(TickSummary { tick, adopted, mass })
    }

    /// Runs `ticks` closed-loop ticks and folds every tick summary into
    /// a deterministic report.
    pub fn run(&mut self, ticks: u64) -> ServeResult<LoopReport> {
        let mut checksum = 0xCBF2_9CE4_8422_2325u64;
        let mut last = TickSummary { tick: self.tick, adopted: 0, mass: 0.0 };
        for _ in 0..ticks {
            last = self.tick()?;
            checksum = fnv_fold(checksum, last.tick);
            checksum = fnv_fold(checksum, last.adopted);
            checksum = fnv_fold(checksum, last.mass.to_bits());
        }
        Ok(LoopReport {
            ticks,
            cohorts: self.cfg.cohorts,
            users: self.cfg.users,
            final_adopted: last.adopted,
            final_mass: last.mass,
            sources: self.sources,
            checksum,
        })
    }

    /// Drops every cohort's warm-start state (workspace seeds, tangent
    /// seed, fingerprint cache, published snapshot) so the next tick's
    /// re-solves are cold — the benchmark control for warm-vs-cold.
    pub fn cool(&mut self) -> ServeResult<()> {
        for market in 0..self.cfg.cohorts as u64 {
            self.server.cool_market(market)?;
        }
        Ok(())
    }

    /// Per-type adopted masses of cohort `c` after the last tick.
    pub fn cohort_masses(&self, c: usize) -> &[f64] {
        self.cohorts[c].pop.masses()
    }

    /// Cumulative equilibrium-answer source tallies.
    pub fn sources(&self) -> SourceCounts {
        self.sources
    }

    /// Ticks run so far.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// The underlying sharded server (benchmark and test hook).
    pub fn server_mut(&mut self) -> &mut ShardedServer {
        &mut self.server
    }
}

/// Protocol-desync error shared by the reply matches.
fn desync() -> ServeError {
    ServeError::Num(NumError::Domain {
        what: "adoption loop: unexpected reply variant from the sharded server",
        value: f64::NAN,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::section5_specs;

    fn small_cfg() -> LoopConfig {
        LoopConfig {
            seed: 7,
            cohorts: 2,
            users: 2_000,
            chunk: 512,
            threads: 1,
            ..Default::default()
        }
    }

    #[test]
    fn loop_runs_and_reports_deterministically() {
        let specs = section5_specs();
        let run = |cfg: &LoopConfig| {
            let mut lp = AdoptionLoop::new(&specs, 3.0, 0.6, 0.8, cfg).unwrap();
            lp.run(6).unwrap()
        };
        let cfg = small_cfg();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a, b, "identical configs must replay byte-identically");
        assert!(a.final_adopted > 0, "somebody should adopt");
        assert!(a.sources.total() > 0);
        // Thread and chunk variation cannot move the checksum.
        let threads4 = LoopConfig { threads: 4, ..cfg.clone() };
        let chunk97 = LoopConfig { chunk: 97, ..cfg.clone() };
        assert_eq!(run(&threads4).checksum, a.checksum, "threads");
        assert_eq!(run(&chunk97).checksum, a.checksum, "chunk");
        // More shards: same replies, same checksum.
        let shards2 = LoopConfig { shards: 2, ..cfg };
        assert_eq!(run(&shards2).checksum, a.checksum, "shards");
    }

    #[test]
    fn warm_loop_rides_warm_paths_and_cool_forces_cold() {
        let specs = section5_specs();
        let cfg = LoopConfig { cohorts: 1, ..small_cfg() };
        let mut lp = AdoptionLoop::new(&specs, 3.0, 0.6, 0.8, &cfg).unwrap();
        lp.run(5).unwrap();
        let warm = lp.sources();
        // After the first tick every re-solve is tangent/warm, never cold.
        assert_eq!(warm.cold, 1, "only the first solve is cold");
        assert!(warm.tangent + warm.warm >= 4, "re-solves must stay warm: {warm:?}");
        assert!(warm.lockfree >= 4, "externality reads must go lock-free: {warm:?}");
        // Cooling before each tick forces cold re-solves.
        for _ in 0..3 {
            lp.cool().unwrap();
            lp.tick().unwrap();
        }
        let cooled = lp.sources();
        assert_eq!(cooled.cold, warm.cold + 3, "each cooled tick pays a cold solve");
    }

    #[test]
    fn cohorts_are_isolated() {
        // Cohort 0's masses must not depend on how many cohorts run.
        let specs = section5_specs();
        let solo = LoopConfig { cohorts: 1, ..small_cfg() };
        let duo = LoopConfig { cohorts: 3, ..small_cfg() };
        let mut a = AdoptionLoop::new(&specs, 3.0, 0.6, 0.8, &solo).unwrap();
        let mut b = AdoptionLoop::new(&specs, 3.0, 0.6, 0.8, &duo).unwrap();
        a.run(4).unwrap();
        b.run(4).unwrap();
        assert_eq!(a.cohort_masses(0), b.cohort_masses(0));
    }

    #[test]
    fn demand_writeback_keeps_the_loop_alive() {
        let specs = section5_specs();
        let cfg = LoopConfig { cohorts: 1, demand_every: 3, ..small_cfg() };
        let mut lp = AdoptionLoop::new(&specs, 3.0, 0.6, 0.8, &cfg).unwrap();
        let report = lp.run(7).unwrap();
        assert!(report.final_adopted > 0);
        // Submits reset warm chains, so some post-submit solves are
        // warm-from-previous or cold rather than tangent — but the loop
        // must keep answering.
        assert_eq!(report.sources.partial, 0);
    }

    #[test]
    fn new_validates_config() {
        let specs = section5_specs();
        let bad = |cfg: LoopConfig| AdoptionLoop::new(&specs, 3.0, 0.6, 0.8, &cfg).is_err();
        assert!(bad(LoopConfig { cohorts: 0, ..small_cfg() }));
        assert!(bad(LoopConfig { gamma: -1.0, ..small_cfg() }));
        assert!(bad(LoopConfig { eta: f64::NAN, ..small_cfg() }));
        assert!(bad(LoopConfig { demand_floor: 0.0, ..small_cfg() }));
    }
}
