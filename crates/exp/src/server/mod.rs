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
//!   from the previous iterate of its slot — the neighbour's equilibrium
//!   — when that iterate's shape matches the game, and from zero
//!   otherwise;
//! * it **caches by canonical fingerprint** ([`fingerprint`]): a repeated
//!   query returns an [`Arc`] clone of the stored [`EqSnapshot`] —
//!   O(lookup), allocation-free, bit-identical to the solve that produced
//!   it. The key is derived from what the server already holds: the
//!   market's curve digest ([`curve_digest`], the trait-object probes) is
//!   computed at construction and on each submit, the only places the
//!   curves can change, and a read folds only the 3 + n axis scalars onto
//!   it ([`key`]);
//! * it **answers sensitivity reads from the answering snapshot**: Theorem
//!   6 is factored from the snapshot's own solved state (no state solve),
//!   and a read whose equilibrium is the one last factored reuses those
//!   factors and solves only its axis's right-hand side.
//!
//! Replies carry their [`Source`] (cache hit / warm / cold / partial), so
//! callers, benches and tests can audit exactly which path served them.
//! The whole service is deterministic: same construction, same request
//! stream, same replies — the property the [`loadgen`] replay tests pin.
//!
//! [`fingerprint`]: fingerprint::fingerprint
//! [`curve_digest`]: fingerprint::curve_digest
//! [`key`]: fingerprint::key

pub mod cache;
pub mod faults;
pub mod fingerprint;
pub mod loadgen;
pub mod sharded;

use std::sync::Arc;
use subcomp_core::game::{Axis, SubsidyGame};
use subcomp_core::nash::{NashSolver, WarmStart};
use subcomp_core::sensitivity::{ActiveSet, SensitivityWorkspace};
use subcomp_core::snapshot::EqSnapshot;
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
    /// Never produced: the server seeds no solve from a Theorem 6
    /// tangent. Kept because the benchmark still matches on it; the
    /// benchmark change of ROADMAP item 1(f) removes it.
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
    /// Always 0: the server seeds no solve from a Theorem 6 tangent.
    /// Kept because the benchmark still reads it; the benchmark change
    /// of ROADMAP item 1(f) removes it.
    pub tangent_solves: u64,
    /// Solves seeded from a warm slot iterate.
    pub warm_solves: u64,
    /// Solves from the zero profile.
    pub cold_solves: u64,
    /// Budget-limited solves answered as [`Source::Partial`].
    pub partial_solves: u64,
}

/// The resident market service. See the module docs for the design.
pub struct EquilibriumServer {
    game: SubsidyGame,
    solver: NashSolver,
    pool: Vec<SolveWorkspace>,
    /// Fingerprint of the equilibrium whose iterate each slot holds.
    slot_state: Vec<Option<u64>>,
    /// The resident game's curve digest, or the typed error that its
    /// curves are unfingerprintable; only `new` and `submit` write it.
    digest: NumResult<u64>,
    cache: EqCache,
    /// The resident Theorem 6 engine behind every sensitivity read.
    sens: SensitivityWorkspace,
    /// Fingerprint of the cached equilibrium whose factors `sens` holds,
    /// and whether that equilibrium is regular. Cleared by everything
    /// that can put another snapshot under the same fingerprint.
    factored: Option<(u64, bool)>,
    /// Fingerprint at the last answered equilibrium.
    base: Option<u64>,
    stats: ServerStats,
    /// Deterministic per-solve iteration budget (unlimited by default).
    budget: SolveBudget,
    /// Consecutive budget blowouts since the last full answer.
    strikes: u32,
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
        let digest = fingerprint::curve_digest(&game);
        EquilibriumServer::with_digest(game, digest, pool_size, cache_capacity)
    }

    /// [`EquilibriumServer::new`] given `game`'s curve digest, which the
    /// sharded router keeps beside its mirror so a rebuild does not
    /// recompute it.
    pub(crate) fn with_digest(
        game: SubsidyGame,
        digest: NumResult<u64>,
        pool_size: usize,
        cache_capacity: usize,
    ) -> EquilibriumServer {
        let pool_size = pool_size.max(1);
        let pool = (0..pool_size).map(|_| SolveWorkspace::for_game(&game)).collect();
        EquilibriumServer {
            digest,
            game,
            solver: NashSolver::default().with_tol(1e-10),
            pool,
            slot_state: vec![None; pool_size],
            cache: EqCache::new(cache_capacity),
            sens: SensitivityWorkspace::new(),
            factored: None,
            base: None,
            stats: ServerStats::default(),
            budget: SolveBudget::unlimited(),
            strikes: 0,
            quarantined: false,
        }
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

    /// The sensitivity read with the full degradation ladder: an axis
    /// naming a provider the market does not have is refused before any
    /// work, a partial equilibrium degrades to the plain equilibrium reply
    /// (no derivative of a non-converged iterate), a degenerate
    /// equilibrium answers its active-set partition, and only a regular
    /// equilibrium is differentiated.
    ///
    /// No state solve: the resident workspace factors Theorem 6 from the
    /// answering snapshot's own state (`factor_at`), which is the cold
    /// state at its subsidies, so verdict and derivative are bit-identical
    /// to a fresh [`Sensitivity::directional`] at the snapshot. A cache hit
    /// on the equilibrium last factored skips even that and reuses the
    /// stored factors, verdict and active set: only the axis's right-hand
    /// side is solved. The mark is cleared by every accepted write,
    /// submit, cache invalidation and preload, and by a failed factor, so
    /// a reused factor always belongs to the snapshot the cache hands
    /// out; a fresh solve always factors, since it captured a new
    /// snapshot even when its fingerprint is the marked one. A warm read
    /// allocates only the reply's `ds`.
    ///
    /// [`Sensitivity::directional`]: subcomp_core::sensitivity::Sensitivity::directional
    fn serve_sensitivity(&mut self, axis: Axis) -> NumResult<Reply> {
        axis.validate(&self.game)?;
        let (snap, source) = self.equilibrium()?;
        if source == Source::Partial {
            return Ok(Reply::Equilibrium { snap, source });
        }
        let regular = match self.factored {
            Some((key, regular)) if source == Source::CacheHit && self.base == Some(key) => regular,
            _ => {
                self.factored = None;
                let regular = self.sens.factor_at(&self.game, snap.subsidies(), snap.state())?;
                self.factored = self.base.map(|key| (key, regular));
                regular
            }
        };
        if !regular {
            self.stats.sensitivities += 1;
            let active_set = self.sens.active().clone();
            return Ok(Reply::Degenerate { active_set, snap, source });
        }
        let mut ds = Vec::with_capacity(self.game.n());
        self.sens.solve_into(axis, &mut ds)?;
        self.stats.sensitivities += 1;
        Ok(Reply::Sensitivity { ds, snap, source })
    }

    /// Applies a validated axis write to the resident market. No solve
    /// happens until the next read, so the market has no current answer
    /// until then; a refused write changes nothing.
    pub fn update(&mut self, axis: Axis, value: f64) -> NumResult<()> {
        axis.apply(&mut self.game, value)?;
        self.base = None;
        self.factored = None;
        self.stats.updates += 1;
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
        let digest = fingerprint::curve_digest(&game);
        self.submit_digested(game, digest)
    }

    /// [`EquilibriumServer::submit`] given `game`'s curve digest.
    pub(crate) fn submit_digested(
        &mut self,
        game: SubsidyGame,
        digest: NumResult<u64>,
    ) -> NumResult<(Arc<EqSnapshot>, Source)> {
        self.digest = digest;
        self.game = game;
        self.base = None;
        self.factored = None;
        self.strikes = 0;
        self.quarantined = false;
        self.equilibrium()
    }

    /// Answers the equilibrium of the market as currently parameterized.
    /// A market whose curves are unfingerprintable fails every read with
    /// its digest's typed error until a clean submit replaces them.
    pub fn equilibrium(&mut self) -> NumResult<(Arc<EqSnapshot>, Source)> {
        let key = self.key()?;
        self.stats.equilibria += 1;
        if let Some(snap) = self.cache.get(key) {
            self.stats.cache_hits += 1;
            self.strikes = 0;
            self.base = Some(key);
            return Ok((snap, Source::CacheHit));
        }
        // Start from the slot's previous iterate when its shape matches,
        // else cold.
        let slot = self.game.n() % self.pool.len();
        let ws = &mut self.pool[slot];
        let (start, source) =
            if self.slot_state[slot].is_some() && ws.subsidies().len() == self.game.n() {
                (WarmStart::Previous, Source::Warm)
            } else {
                (WarmStart::Zero, Source::Cold)
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
            if self.strikes >= QUARANTINE_AFTER {
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
        Ok((reply, source))
    }

    /// Forgets all warm state (the slots' previous iterates and the last
    /// answered fingerprint) without touching the cache — benches use this
    /// to force cold solves.
    pub fn cool(&mut self) {
        self.slot_state.iter_mut().for_each(|s| *s = None);
        self.base = None;
    }

    /// Drops every cached equilibrium (retiring snapshots for recycling).
    pub fn invalidate_cache(&mut self) {
        self.cache.clear();
        self.factored = None;
    }

    /// The cached snapshot for the market **as currently parameterized**,
    /// if resident — counterless, recency-free introspection (the sharded
    /// tier's identity tests compare it against lock-free reads). `None`
    /// when the current parameterization is uncached or unfingerprintable.
    pub fn peek_current(&self) -> Option<Arc<EqSnapshot>> {
        self.cache.peek(self.key().ok()?)
    }

    /// The fingerprint of the market as currently parameterized: its axis
    /// scalars folded onto the stored curve digest.
    fn key(&self) -> NumResult<u64> {
        fingerprint::key(self.digest.clone()?, &self.game)
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
        self.factored = None;
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
