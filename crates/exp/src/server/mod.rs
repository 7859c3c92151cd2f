//! The equilibrium server: equilibrium-as-a-service over warm workspaces.
//!
//! Batch entry points (`BatchSolver`, the continuation grids) answer "solve
//! these N games"; the production framing of the paper's market — an ISP
//! tracking millions of users while prices, caps, capacity and provider
//! profitabilities drift — is a *query stream*: small parameter writes
//! interleaved with equilibrium and sensitivity reads. [`EquilibriumServer`]
//! is that layer, in process:
//!
//! * it **owns the market**: a resident [`SubsidyGame`] (precompiled
//!   congestion kernel included) mutated in place by [`Axis`] writes — no
//!   rebuild per request — plus full-game submissions via
//!   [`EquilibriumServer::submit`];
//! * it **owns a pool of warm [`SolveWorkspace`]s**, so every solve starts
//!   from the previous iterate of its slot (or a Theorem 6 tangent
//!   extrapolation when a stored sensitivity admits one — see
//!   [`TangentPolicy`]) instead of from zero;
//! * it **caches by canonical fingerprint** ([`fingerprint`]): a repeated
//!   query returns an [`Arc`] clone of the stored [`EqSnapshot`] —
//!   O(lookup), allocation-free, bit-identical to the solve that produced
//!   it.
//!
//! Replies carry their [`Source`] (cache hit / tangent / warm / cold), so
//! callers, benches and tests can audit exactly which path served them.
//! The whole service is deterministic: same construction, same request
//! stream, same replies — the property the [`loadgen`] replay tests pin.
//!
//! [`fingerprint`]: fingerprint::fingerprint

pub mod cache;
pub mod faults;
pub mod fingerprint;
pub mod loadgen;
pub mod sharded;

use std::sync::Arc;
use subcomp_core::game::{Axis, SubsidyGame};
use subcomp_core::nash::{NashSolver, WarmStart};
use subcomp_core::sensitivity::{ActiveSet, SensitivityWorkspace};
use subcomp_core::snapshot::{EqSnapshot, TangentPolicy};
use subcomp_core::workspace::{SolveBudget, SolveWorkspace};
use subcomp_num::error::{NumError, NumResult};

pub use cache::{CacheStats, EqCache};
pub use faults::{
    error_kind, fold_error, fold_reply, poison_game, run_chaos, ChaosConfig, ChaosReport,
    FaultEvent, FaultKind, FaultPlan,
};
pub use fingerprint::fingerprint;
pub use loadgen::{generate, generate_multi, LoadGenConfig};
pub use sharded::{Sabotage, ShardReport, ShardedConfig, ShardedServer};

/// Convenience alias for the serving layer's fallible entry points.
pub type ServeResult<T> = Result<T, ServeError>;

/// A typed serving failure. Every variant is *recoverable* from the
/// client's perspective: the server stays resident and keeps answering
/// subsequent requests.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request's market lost its resident server while the request
    /// was in flight — a panic while serving it, or a kill of its shard.
    /// The router has rebuilt the market from its mirror (every market,
    /// after a kill), but this request was lost. Retrying is safe.
    ShardRestarted {
        /// The shard of the lost market.
        shard: usize,
    },
    /// The market is quarantined after repeated budget blowouts; reads
    /// are refused until a [`EquilibriumServer::submit`] heals it.
    Quarantined {
        /// Consecutive budget blowouts recorded when quarantine tripped.
        strikes: u32,
    },
    /// The underlying numerical/validation error.
    Num(NumError),
}

impl From<NumError> for ServeError {
    fn from(err: NumError) -> ServeError {
        ServeError::Num(err)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShardRestarted { shard } => {
                write!(f, "shard {shard} restarted while the request was in flight")
            }
            ServeError::Quarantined { strikes } => {
                write!(f, "market quarantined after {strikes} budget blowouts (submit to heal)")
            }
            ServeError::Num(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One request in a client stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// Write `value` onto a parameter axis of the resident market.
    Update {
        /// The parameter to write.
        axis: Axis,
        /// The new value.
        value: f64,
    },
    /// Read the equilibrium of the market as currently parameterized.
    Equilibrium,
    /// Read the equilibrium plus its directional sensitivity `∂s*/∂axis`.
    Sensitivity {
        /// The direction to differentiate along.
        axis: Axis,
    },
}

/// Which path produced an equilibrium answer, from cheapest to dearest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Served by the sharded router out of the market's published slot —
    /// the market's resident server was never consulted.
    LockFree,
    /// Fingerprint cache hit — no solve at all.
    CacheHit,
    /// Solved, seeded by a Theorem 6 tangent extrapolation.
    Tangent,
    /// Solved, seeded by the slot workspace's previous iterate.
    Warm,
    /// Solved from the zero profile.
    Cold,
    /// A [`SolveBudget`] fired before convergence: the answer is the best
    /// iterate with its residual (see the snapshot's
    /// [`stats`](EqSnapshot::stats)), never cached, never published.
    Partial,
}

/// A server reply, paired with the [`Request`] variant that caused it.
#[derive(Debug, Clone)]
pub enum Reply {
    /// The axis write was validated and applied.
    Updated {
        /// The axis written.
        axis: Axis,
        /// The value now in force.
        value: f64,
    },
    /// An equilibrium answer.
    Equilibrium {
        /// The (shared, immutable) solved state.
        snap: Arc<EqSnapshot>,
        /// Which path produced it.
        source: Source,
    },
    /// An equilibrium answer plus a directional derivative.
    Sensitivity {
        /// `∂s*/∂axis` at the answered equilibrium.
        ds: Vec<f64>,
        /// The equilibrium the derivative was taken at.
        snap: Arc<EqSnapshot>,
        /// Which path produced the equilibrium.
        source: Source,
    },
    /// A sensitivity read landed on a *degenerate* equilibrium (a pinned
    /// provider with `u_i ≈ 0`): no one-sided derivative is served, but
    /// the request succeeds with the equilibrium and its active-set
    /// partition — the typed, recoverable form of what used to be a
    /// failed request.
    Degenerate {
        /// The `N⁻ / Ñ / N⁺` partition at the answered equilibrium.
        active_set: ActiveSet,
        /// The (degenerate) equilibrium itself.
        snap: Arc<EqSnapshot>,
        /// Which path produced the equilibrium.
        source: Source,
    },
}

/// Per-source answer counts and request totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Axis writes applied.
    pub updates: u64,
    /// Equilibrium answers (including those inside sensitivity replies).
    pub equilibria: u64,
    /// Sensitivity answers.
    pub sensitivities: u64,
    /// Answers served from the cache.
    pub cache_hits: u64,
    /// Solves seeded by tangent extrapolation.
    pub tangent_solves: u64,
    /// Solves seeded from a warm slot iterate.
    pub warm_solves: u64,
    /// Solves from the zero profile.
    pub cold_solves: u64,
    /// Budget-limited solves answered as [`Source::Partial`].
    pub partial_solves: u64,
}

/// A stored sensitivity that may seed the next solve along its axis.
struct TangentSeed {
    axis: Axis,
    at: f64,
    ds: Vec<f64>,
    base_key: u64,
}

/// What has been written since the last answered equilibrium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dirty {
    Clean,
    One(Axis),
    Many,
}

/// The resident market service. See the module docs for the design.
pub struct EquilibriumServer {
    game: SubsidyGame,
    solver: NashSolver,
    pool: Vec<SolveWorkspace>,
    /// Fingerprint of the equilibrium whose iterate each slot holds.
    slot_state: Vec<Option<u64>>,
    cache: EqCache,
    seed: Option<TangentSeed>,
    /// The resident Theorem 6 engine behind every sensitivity read.
    sens: SensitivityWorkspace,
    /// Fingerprint at the last answered equilibrium.
    base: Option<u64>,
    dirty: Dirty,
    stats: ServerStats,
    /// Deterministic per-solve iteration budget (unlimited by default).
    budget: SolveBudget,
    /// Consecutive budget blowouts since the last full answer.
    strikes: u32,
    /// Strikes at which the market quarantines itself.
    quarantine_after: u32,
    quarantined: bool,
}

/// Consecutive budget blowouts before a market quarantines itself.
pub const QUARANTINE_AFTER: u32 = 3;

impl std::fmt::Debug for EquilibriumServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EquilibriumServer")
            .field("n", &self.game.n())
            .field("pool", &self.pool.len())
            .field("cache", &self.cache)
            .field("stats", &self.stats)
            .finish()
    }
}

impl EquilibriumServer {
    /// A server over `game` with `pool_size` warm workspaces and a
    /// `cache_capacity`-entry fingerprint cache.
    pub fn new(game: SubsidyGame, pool_size: usize, cache_capacity: usize) -> EquilibriumServer {
        let pool_size = pool_size.max(1);
        let pool = (0..pool_size).map(|_| SolveWorkspace::for_game(&game)).collect();
        EquilibriumServer {
            game,
            solver: NashSolver::default().with_tol(1e-10),
            pool,
            slot_state: vec![None; pool_size],
            cache: EqCache::new(cache_capacity),
            seed: None,
            sens: SensitivityWorkspace::new(),
            base: None,
            dirty: Dirty::Many,
            stats: ServerStats::default(),
            budget: SolveBudget::unlimited(),
            strikes: 0,
            quarantine_after: QUARANTINE_AFTER,
            quarantined: false,
        }
    }

    /// Replaces the solver configuration (builder style).
    pub fn with_solver(mut self, solver: NashSolver) -> EquilibriumServer {
        self.solver = solver;
        self
    }

    /// Replaces the per-solve budget (builder style): a ceiling on
    /// iterations, each a GS sweep or a Newton step.
    pub fn with_budget(mut self, budget: SolveBudget) -> EquilibriumServer {
        self.budget = budget;
        self
    }

    /// Replaces the per-solve iteration budget in place. Healing a starved
    /// budget does **not** lift an existing quarantine — only
    /// [`EquilibriumServer::submit`] does.
    pub fn set_budget(&mut self, budget: SolveBudget) {
        self.budget = budget;
    }

    /// Whether the market is quarantined (reads refused until a submit).
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// Consecutive budget blowouts since the last full answer.
    pub fn strikes(&self) -> u32 {
        self.strikes
    }

    /// The resident market as currently parameterized.
    pub fn game(&self) -> &SubsidyGame {
        &self.game
    }

    /// Request/answer counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Cache counters and occupancy.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Dispatches one request. A quarantined market refuses every request
    /// with [`ServeError::Quarantined`] until a submit heals it.
    pub fn serve(&mut self, req: Request) -> ServeResult<Reply> {
        if self.quarantined {
            return Err(ServeError::Quarantined { strikes: self.strikes });
        }
        match req {
            Request::Update { axis, value } => {
                self.update(axis, value)?;
                Ok(Reply::Updated { axis, value })
            }
            Request::Equilibrium => {
                let (snap, source) = self.equilibrium()?;
                Ok(Reply::Equilibrium { snap, source })
            }
            Request::Sensitivity { axis } => Ok(self.serve_sensitivity(axis)?),
        }
    }

    /// The sensitivity read with the full degradation ladder: a partial
    /// equilibrium degrades to the plain equilibrium reply (no derivative
    /// of a non-converged iterate), a degenerate equilibrium answers its
    /// active-set partition, and only a regular equilibrium is
    /// differentiated. One state solve (the resident workspace's
    /// `factor`) serves both the degeneracy verdict and the derivative,
    /// and the tangent seed is refilled in place, so a warm read
    /// allocates only the reply's `ds`.
    fn serve_sensitivity(&mut self, axis: Axis) -> NumResult<Reply> {
        let (snap, source) = self.equilibrium()?;
        if source == Source::Partial {
            return Ok(Reply::Equilibrium { snap, source });
        }
        if !self.sens.factor(&self.game, snap.subsidies())? {
            self.stats.sensitivities += 1;
            let active_set = self.sens.active().clone();
            return Ok(Reply::Degenerate { active_set, snap, source });
        }
        let mut ds = Vec::with_capacity(self.game.n());
        self.sens.solve_into(axis, &mut ds)?;
        self.stats.sensitivities += 1;
        let at = axis.value(&self.game);
        let base_key = self.base.expect("equilibrium just answered");
        match &mut self.seed {
            Some(seed) => {
                (seed.axis, seed.at, seed.base_key) = (axis, at, base_key);
                seed.ds.clear();
                seed.ds.extend_from_slice(&ds);
            }
            None => self.seed = Some(TangentSeed { axis, at, ds: ds.clone(), base_key }),
        }
        Ok(Reply::Sensitivity { ds, snap, source })
    }

    /// Applies a validated axis write to the resident market. No solve
    /// happens until the next read.
    pub fn update(&mut self, axis: Axis, value: f64) -> NumResult<()> {
        axis.apply(&mut self.game, value)?;
        self.stats.updates += 1;
        self.dirty = match self.dirty {
            Dirty::Clean => Dirty::One(axis),
            Dirty::One(a) if a == axis => Dirty::One(axis),
            _ => Dirty::Many,
        };
        Ok(())
    }

    /// Replaces the resident market wholesale (a full-game submission).
    /// Workspace shapes adapt on the next solve; the cache is kept — a
    /// submission that fingerprints to a cached market stays O(lookup).
    ///
    /// A submit also **heals**: it clears the strike counter and lifts any
    /// quarantine before solving, so a fresh (fixed) game always gets a
    /// chance to answer.
    pub fn submit(&mut self, game: SubsidyGame) -> NumResult<(Arc<EqSnapshot>, Source)> {
        self.game = game;
        self.seed = None;
        self.base = None;
        self.dirty = Dirty::Many;
        self.strikes = 0;
        self.quarantined = false;
        self.equilibrium()
    }

    /// Answers the equilibrium of the market as currently parameterized.
    pub fn equilibrium(&mut self) -> NumResult<(Arc<EqSnapshot>, Source)> {
        let key = fingerprint(&self.game)?;
        self.stats.equilibria += 1;
        if let Some(snap) = self.cache.get(key) {
            self.stats.cache_hits += 1;
            self.strikes = 0;
            self.base = Some(key);
            self.dirty = Dirty::Clean;
            return Ok((snap, Source::CacheHit));
        }
        let slot = self.game.n() % self.pool.len();
        // Pick the best admissible warm start, cheapest-to-verify last:
        // a stored tangent along the single dirty axis, else the slot's
        // previous iterate (only if its shape matches), else cold.
        let tangent_dtheta = self.seed.as_ref().and_then(|seed| {
            let applicable = self.base == Some(seed.base_key)
                && self.dirty == Dirty::One(seed.axis)
                && self.slot_state[slot] == Some(seed.base_key);
            if !applicable {
                return None;
            }
            let dtheta = seed.axis.value(&self.game) - seed.at;
            TangentPolicy::default().admits(&seed.ds, dtheta).then_some(dtheta)
        });
        let ws = &mut self.pool[slot];
        let (start, source) = match tangent_dtheta {
            Some(dtheta) => {
                let seed = self.seed.as_ref().expect("checked above");
                (WarmStart::Tangent { ds_dtheta: &seed.ds, dtheta }, Source::Tangent)
            }
            None if self.slot_state[slot].is_some() && ws.subsidies().len() == self.game.n() => {
                (WarmStart::Previous, Source::Warm)
            }
            None => (WarmStart::Zero, Source::Cold),
        };
        let stats = self.solver.solve_into_budgeted(&self.game, start, ws, self.budget)?;
        if !stats.converged {
            // Only a finite budget can land here (the unlimited budget
            // defers to the MaxIterations error inside the solver):
            // degrade to a partial answer at the best iterate. Partial
            // answers are never cached and never trusted as warm state —
            // the next read re-solves from scratch, so repeated
            // starvation produces *identical* partial replies and a
            // deterministic strike count.
            self.stats.partial_solves += 1;
            self.strikes += 1;
            if self.strikes >= self.quarantine_after {
                self.quarantined = true;
            }
            self.slot_state[slot] = None;
            self.base = None;
            let mut arc = self.cache.blank();
            Arc::get_mut(&mut arc)
                .expect("blank snapshots are unique")
                .capture_into(&self.game, ws, stats);
            return Ok((arc, Source::Partial));
        }
        match source {
            Source::Tangent => self.stats.tangent_solves += 1,
            Source::Warm => self.stats.warm_solves += 1,
            _ => self.stats.cold_solves += 1,
        }
        self.strikes = 0;
        let mut arc = self.cache.blank();
        Arc::get_mut(&mut arc)
            .expect("blank snapshots are unique")
            .capture_into(&self.game, ws, stats);
        let reply = Arc::clone(&arc);
        self.cache.insert(key, arc);
        self.slot_state[slot] = Some(key);
        self.base = Some(key);
        self.dirty = Dirty::Clean;
        Ok((reply, source))
    }

    /// Forgets all warm state (slot iterates, tangent seed, dirty
    /// tracking) without touching the cache — benches use this to force
    /// cold solves.
    pub fn cool(&mut self) {
        self.slot_state.iter_mut().for_each(|s| *s = None);
        self.seed = None;
        self.base = None;
        self.dirty = Dirty::Many;
    }

    /// Drops every cached equilibrium (retiring snapshots for recycling).
    pub fn invalidate_cache(&mut self) {
        self.cache.clear();
    }

    /// The cached snapshot for the market **as currently parameterized**,
    /// if resident — counterless, recency-free introspection (the sharded
    /// tier's identity tests compare it against lock-free reads). `None`
    /// when the current parameterization is uncached or unfingerprintable.
    pub fn peek_current(&self) -> Option<Arc<EqSnapshot>> {
        let key = fingerprint(&self.game).ok()?;
        self.cache.peek(key)
    }

    /// The fingerprint of the last answered (full) equilibrium, if the
    /// parameterization has not been written since — the key the sharded
    /// tier publishes snapshots under, so a rebuilt server can preload
    /// the same (key, snapshot) pair via [`EquilibriumServer::preload`].
    pub fn current_key(&self) -> Option<u64> {
        self.base
    }

    /// Seeds the fingerprint cache with an externally held answer (the
    /// supervision layer's rebuild path: the last *published* snapshot of
    /// a market whose shard was killed). The snapshot is inserted as-is; a
    /// subsequent read whose parameterization fingerprints to `key` is a
    /// bit-identical cache hit instead of a fresh solve.
    pub fn preload(&mut self, key: u64, snap: Arc<EqSnapshot>) {
        self.cache.insert(key, snap);
    }
}

/// p50/p99/mean over one latency window, in the unit of the samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median latency.
    pub p50: f64,
    /// 99th-percentile latency.
    pub p99: f64,
    /// Mean latency (its inverse is throughput).
    pub mean: f64,
    /// Number of samples summarized.
    pub count: usize,
}

/// Summarizes a latency window. A zero-request window (e.g. a warmup
/// phase that saw no traffic) is an explicit [`NumError::Empty`], not a
/// panic — callers print "n/a" and move on.
pub fn summarize_latencies(samples: &[f64]) -> NumResult<LatencySummary> {
    Ok(LatencySummary {
        p50: subcomp_num::stats::quantile(samples, 0.50)?,
        p99: subcomp_num::stats::quantile(samples, 0.99)?,
        mean: subcomp_num::stats::mean(samples)?,
        count: samples.len(),
    })
}
