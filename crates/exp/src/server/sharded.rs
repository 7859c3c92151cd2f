//! Sharded multi-market serving: session multiplexing over resident
//! markets with a published-snapshot read path and supervised fault
//! recovery.
//!
//! [`ShardedServer`] owns a full [`EquilibriumServer`] per resident
//! market — resident [`SubsidyGame`], warm workspace pool, fingerprint
//! cache, warm-start ladder, all of it — and serves every request in the
//! caller's thread. Each market is pinned to one of `S` shards by stable
//! hash (FNV-1a over the id, mod `S`). A shard is a fault domain and a
//! report group, not a thread: a [`Sabotage::Kill`] takes down every
//! resident server on one shard, and [`ShardedServer::shard_reports`]
//! sums counters per shard. The router in front does three things:
//!
//! * **Serves each market's requests in order**, one call at a time, so
//!   a market's replies are bit-identical to a standalone
//!   `EquilibriumServer` fed the same subsequence, **whatever the shard
//!   count** (markets never share solver state, caches or workspaces).
//! * **Serves pure reads of already-answered equilibria from a published
//!   slot**: after a market answers an equilibrium or sensitivity read in
//!   full, its slot holds the answering snapshot keyed by its
//!   fingerprint, and any accepted write, partial answer or cool empties
//!   it, as does an error that leaves the server without a current
//!   answer; a refused request leaves it as it was. A later
//!   `Request::Equilibrium` for that market is answered as an `Arc`
//!   clone of the slot — [`Source::LockFree`], one hash lookup, never
//!   touching the market's solver state.
//! * **Supervises its markets.** Each request is served under
//!   `catch_unwind`: a panic confined to one request drops that market's
//!   resident server, empties its slot, and rebuilds the market from the
//!   router's mirror — the in-flight request fails with the typed
//!   [`ServeError::ShardRestarted`]. A kill drops every resident server
//!   on its shard and empties their slots, then rebuilds **every** market
//!   from its mirror plus the pair it had published before the kill
//!   (cold-solve fallback when nothing was published).
//!
//! **Recovery canonicalization.** A kill rebuilds *all* markets, not just
//! the dead shard's. This is deliberate: which markets share a shard
//! depends on the shard count, so a recovery that rebuilt only the dead
//! shard's markets would leave different warm state at different `S` —
//! and the post-recovery reply stream would stop being bit-identical
//! across shard counts. Rebuilding everything resets every market to the
//! same canonical state — a pure function of its mirror game and its last
//! published (fingerprint, snapshot) pair, both of which are
//! shard-count-invariant — so the determinism contract survives the
//! fault. A per-request panic needs no such sweep: it rebuilds exactly
//! one market, which is invariant by itself.
//!
//! The published-slot path is **deterministic**: only a market's own
//! requests change its slot, so whether a given request takes the path
//! is a pure function of the request stream, independent of shard count.
//! It is also **answer-preserving**: the slot is filled only while the
//! market server's last answer for the current parameterization is still
//! current (any intervening write emptied it), and a skipped cache-hit
//! request would not have changed that server's solver state — so the
//! served bits match the standalone serve exactly. What *does* diverge is
//! bookkeeping: requests absorbed by the router never reach the market's
//! server, so its `ServerStats`/cache counters count only the traffic it
//! actually saw, and the router tallies [`ShardedServer::lockfree_hits`]
//! separately.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use subcomp_core::game::SubsidyGame;
use subcomp_core::snapshot::EqSnapshot;
use subcomp_core::workspace::SolveBudget;
use subcomp_num::error::{NumError, NumResult};

use super::fingerprint::{self, fnv_fold, FNV_OFFSET};
use super::{
    CacheStats, EquilibriumServer, Reply, Request, ServeError, ServeResult, ServerStats, Source,
};

/// The stable market → shard pinning: FNV-1a over the market id's bytes,
/// reduced mod the shard count. Pure, so tests can predict placements.
pub fn shard_of_market(market: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (fnv_fold(FNV_OFFSET, market) % shards as u64) as usize
}

/// Construction parameters of a [`ShardedServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedConfig {
    /// Shards: the fault domains a kill takes down whole, and the groups
    /// [`ShardedServer::shard_reports`] sums over. At least 1.
    pub shards: usize,
    /// Warm workspaces per resident market.
    pub pool: usize,
    /// Fingerprint-cache capacity per resident market (0 = always-miss).
    pub cache: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig { shards: 1, pool: 2, cache: 64 }
    }
}

/// Injected misbehaviour riding on a single serve call — the fault
/// harness's hook into the serve path. [`Sabotage::Panic`] panics
/// *inside* the per-request `catch_unwind` guard (market-scoped
/// recovery); [`Sabotage::Kill`] takes down the request's whole shard
/// before it is served (fleet-wide recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sabotage {
    /// No fault: serve normally.
    #[default]
    None,
    /// Panic while serving this request, inside the per-request guard.
    Panic,
    /// Kill the request's shard before serving this request.
    Kill,
}

/// One shard's aggregate view for the deterministic report: how many
/// markets it hosts and the sums of their server/cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index (0-based).
    pub shard: usize,
    /// Resident market servers on this shard.
    pub markets: usize,
    /// Markets currently quarantined on this shard.
    pub quarantined: usize,
    /// Request/answer counters summed over the shard's markets.
    pub stats: ServerStats,
    /// Cache counters summed over the shard's markets (`len`/`capacity`
    /// are summed occupancy, not a single cache's).
    pub cache: CacheStats,
}

/// A published (fingerprint, snapshot) pair. The fingerprint names the
/// parameterization the snapshot answers, so recovery can preload a
/// rebuilt server's cache under the right key.
type Published = Option<(u64, Arc<EqSnapshot>)>;

/// One resident market. `game` and `budget` are the router's mirror —
/// the game as currently parameterized (updated on every acknowledged
/// write and submit) and the budget in force — which every rebuild
/// starts from, whatever happened to `server`.
struct Market {
    shard: usize,
    game: SubsidyGame,
    /// The mirror game's curve digest, computed on insert and on submit
    /// (a kill changes no curve), so a rebuild does not recompute it.
    digest: NumResult<u64>,
    budget: SolveBudget,
    /// `None` only after a rebuild itself panicked; a submit
    /// re-provisions it.
    server: Option<EquilibriumServer>,
    /// The last full answer at the current parameterization — what
    /// [`ShardedServer::serve`] answers equilibrium reads from.
    published: Published,
}

/// The sharded multi-market service. See the module docs for the design.
pub struct ShardedServer {
    markets: HashMap<u64, Market>,
    shards: usize,
    pool: usize,
    cache: usize,
    lockfree_hits: u64,
    shard_restarts: u64,
    market_rebuilds: u64,
}

impl std::fmt::Debug for ShardedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedServer")
            .field("shards", &self.shards)
            .field("markets", &self.markets.len())
            .field("lockfree_hits", &self.lockfree_hits)
            .field("shard_restarts", &self.shard_restarts)
            .field("market_rebuilds", &self.market_rebuilds)
            .finish()
    }
}

impl ShardedServer {
    /// Builds the service over `markets` (id, game) pairs on `cfg.shards`
    /// shards. Ids must be unique; each market becomes a full resident
    /// [`EquilibriumServer`] pinned to its shard.
    pub fn new(markets: Vec<(u64, SubsidyGame)>, cfg: &ShardedConfig) -> NumResult<ShardedServer> {
        if cfg.shards == 0 {
            return Err(NumError::Domain { what: "sharded server: shards", value: 0.0 });
        }
        if markets.is_empty() {
            return Err(NumError::Empty { what: "sharded server: markets" });
        }
        let mut resident = HashMap::with_capacity(markets.len());
        for (id, game) in markets {
            let digest = fingerprint::curve_digest(&game);
            let server =
                EquilibriumServer::with_digest(game.clone(), digest.clone(), cfg.pool, cfg.cache);
            let market = Market {
                shard: shard_of_market(id, cfg.shards),
                server: Some(server),
                game,
                digest,
                budget: SolveBudget::unlimited(),
                published: None,
            };
            if resident.insert(id, market).is_some() {
                return Err(NumError::Domain {
                    what: "sharded server: duplicate market id",
                    value: id as f64,
                });
            }
        }
        Ok(ShardedServer {
            markets: resident,
            shards: cfg.shards,
            pool: cfg.pool,
            cache: cfg.cache,
            lockfree_hits: 0,
            shard_restarts: 0,
            market_rebuilds: 0,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of resident markets across all shards.
    pub fn markets(&self) -> usize {
        self.markets.len()
    }

    /// The shard `market` is pinned to, if it is resident.
    pub fn shard_of(&self, market: u64) -> Option<usize> {
        self.markets.get(&market).map(|m| m.shard)
    }

    /// Equilibrium reads the router answered from a published slot,
    /// bypassing the market's server.
    pub fn lockfree_hits(&self) -> u64 {
        self.lockfree_hits
    }

    /// Shard kills recovered from.
    pub fn shard_restarts(&self) -> u64 {
        self.shard_restarts
    }

    /// Resident market servers rebuilt from their mirrors — one per
    /// per-request panic, plus every market on a kill (recovery
    /// canonicalization; see the module docs).
    pub fn market_rebuilds(&self) -> u64 {
        self.market_rebuilds
    }

    /// Serves one request for `market`, answering pure equilibrium reads
    /// from the published slot when it holds one and serving everything
    /// else through the market's resident server.
    pub fn serve(&mut self, market: u64, req: Request) -> ServeResult<Reply> {
        if matches!(req, Request::Equilibrium) {
            if let Some(snap) = self.read_cached(market) {
                self.lockfree_hits += 1;
                return Ok(Reply::Equilibrium { snap, source: Source::LockFree });
            }
        }
        self.serve_with(market, req, Sabotage::None)
    }

    /// Serves one request for `market` through its resident server,
    /// bypassing the published slot (benches compare the two).
    pub fn serve_direct(&mut self, market: u64, req: Request) -> ServeResult<Reply> {
        self.serve_with(market, req, Sabotage::None)
    }

    /// Serves one request with injected sabotage — the fault harness's
    /// entry point. Always goes to the resident server (sabotage must
    /// reach the serve path, so the published slot is bypassed).
    pub fn serve_sabotaged(
        &mut self,
        market: u64,
        req: Request,
        sabotage: Sabotage,
    ) -> ServeResult<Reply> {
        self.serve_with(market, req, sabotage)
    }

    fn serve_with(&mut self, market: u64, req: Request, sabotage: Sabotage) -> ServeResult<Reply> {
        let shard = self.market_mut(market)?.shard;
        if sabotage == Sabotage::Kill {
            self.kill_shard(shard);
            return Err(ServeError::ShardRestarted { shard });
        }
        let result = self.guarded(market, |server| {
            if sabotage == Sabotage::Panic {
                panic!("fault injection: request panic");
            }
            server.serve(req)
        });
        if let Ok(Reply::Updated { axis, value }) = &result {
            // Keep the mirror authoritative: replay the write the server
            // just validated and applied.
            let mirror = &mut self.markets.get_mut(&market).expect("resident market").game;
            axis.apply(mirror, *value).expect("the mirror accepts what its server accepted");
        }
        result
    }

    /// Replaces `market`'s resident game wholesale (and heals a
    /// quarantine). The mirror adopts the game first, so any rebuild —
    /// including re-provisioning a market that lost its server — starts
    /// from the submitted game.
    pub fn submit(&mut self, market: u64, game: SubsidyGame) -> ServeResult<Reply> {
        let resident = self.market_mut(market)?;
        let digest = fingerprint::curve_digest(&game);
        resident.game = game.clone();
        resident.digest = digest.clone();
        if resident.server.is_none() {
            return self.rebuild(market, None);
        }
        self.guarded(market, |server| {
            let (snap, source) = server.submit_digested(game, digest)?;
            Ok(Reply::Equilibrium { snap, source })
        })
    }

    /// Sets `market`'s per-solve sweep budget (mirrored for recovery).
    pub fn set_budget(&mut self, market: u64, budget: SolveBudget) -> ServeResult<()> {
        let resident = self.market_mut(market)?;
        resident.budget = budget;
        if let Some(server) = &mut resident.server {
            server.set_budget(budget);
        }
        Ok(())
    }

    /// Drops every warm-start artifact of `market` — the resident
    /// server's slot iterates and fingerprint cache, and its published
    /// slot — so its next equilibrium request solves cold.
    /// The benchmark control for warm-vs-cold comparisons (the adoption
    /// loop's `loop_cold` id); the resident game itself is untouched.
    pub fn cool_market(&mut self, market: u64) -> ServeResult<()> {
        let resident = self.market_mut(market)?;
        if let Some(server) = &mut resident.server {
            server.cool();
            server.invalidate_cache();
        }
        resident.published = None;
        Ok(())
    }

    /// The published snapshot for `market`, if any — one hash lookup and
    /// an `Arc` clone, without touching the market's server.
    pub fn read_cached(&mut self, market: u64) -> Option<Arc<EqSnapshot>> {
        let (_, snap) = self.markets.get(&market)?.published.as_ref()?;
        Some(Arc::clone(snap))
    }

    /// The resident server's cache entry for `market` as currently
    /// parameterized (counterless introspection via
    /// [`EquilibriumServer::peek_current`]) — identity tests compare it
    /// with [`ShardedServer::read_cached`] by `Arc::ptr_eq`.
    pub fn peek_shard_cache(&mut self, market: u64) -> ServeResult<Option<Arc<EqSnapshot>>> {
        Ok(self.market_mut(market)?.server.as_ref().and_then(|s| s.peek_current()))
    }

    /// Per-shard aggregate counters, in shard order — the deterministic
    /// per-shard section of the `serve_market` report.
    pub fn shard_reports(&mut self) -> ServeResult<Vec<ShardReport>> {
        let mut reports: Vec<ShardReport> = (0..self.shards)
            .map(|shard| ShardReport {
                shard,
                markets: 0,
                quarantined: 0,
                stats: ServerStats::default(),
                cache: CacheStats::default(),
            })
            .collect();
        // Addition commutes, so the map's iteration order cannot reach
        // the sums.
        for market in self.markets.values() {
            let Some(server) = &market.server else { continue };
            let r = &mut reports[market.shard];
            r.markets += 1;
            r.quarantined += usize::from(server.is_quarantined());
            let s = server.stats();
            r.stats.updates += s.updates;
            r.stats.equilibria += s.equilibria;
            r.stats.sensitivities += s.sensitivities;
            r.stats.cache_hits += s.cache_hits;
            r.stats.warm_solves += s.warm_solves;
            r.stats.cold_solves += s.cold_solves;
            r.stats.partial_solves += s.partial_solves;
            let c = server.cache_stats();
            r.cache.hits += c.hits;
            r.cache.misses += c.misses;
            r.cache.insertions += c.insertions;
            r.cache.evictions += c.evictions;
            r.cache.len += c.len;
            r.cache.capacity += c.capacity;
        }
        Ok(reports)
    }

    /// Runs `op` on market `id`'s resident server under `catch_unwind`
    /// and applies the publish/retract rule to its slot. A caught panic
    /// drops the server (its invariants may be torn mid-panic), rebuilds
    /// the market from its mirror with the cold-solve fallback (the panic
    /// may have torn the published answer's provenance, so nothing is
    /// trusted) and fails the request as [`ServeError::ShardRestarted`].
    fn guarded(
        &mut self,
        id: u64,
        op: impl FnOnce(&mut EquilibriumServer) -> ServeResult<Reply>,
    ) -> ServeResult<Reply> {
        let market = self.markets.get_mut(&id).expect("resident market");
        let Some(server) = market.server.as_mut() else {
            market.published = None;
            return Err(lost(id));
        };
        // AssertUnwindSafe is sound: a caught panic drops the server
        // below, so no state torn mid-panic ever serves again.
        match catch_unwind(AssertUnwindSafe(|| op(server))) {
            Ok(result) => {
                let published = market.published.take();
                market.published = published_after(&result, server.current_key(), published);
                result
            }
            Err(_) => {
                let shard = market.shard;
                self.market_rebuilds += 1;
                let _ = self.rebuild(id, None);
                Err(ServeError::ShardRestarted { shard })
            }
        }
    }

    /// Kill recovery: drop every resident server on shard `dead` and
    /// empty its slots, then rebuild **every** market (sorted by id, so
    /// recovery work is deterministic) from its mirror plus the pair it
    /// had published before the kill.
    fn kill_shard(&mut self, dead: usize) {
        self.shard_restarts += 1;
        let mut ids: Vec<u64> = self.markets.keys().copied().collect();
        ids.sort_unstable();
        let captured: Vec<(u64, Published)> = ids
            .into_iter()
            .map(|id| {
                let market = self.markets.get_mut(&id).expect("resident market");
                let published = market.published.clone();
                if market.shard == dead {
                    market.server = None;
                    market.published = None;
                }
                (id, published)
            })
            .collect();
        for (id, published) in captured {
            self.market_rebuilds += 1;
            let _ = self.rebuild(id, published);
        }
    }

    /// Rebuilds market `id`'s resident server from its mirror, game and
    /// budget — the one rebuild path of panic recovery, kill recovery and
    /// submit re-provisioning — and returns the rebuilt market's answer
    /// at its current parameterization. A `published` pair answers the
    /// mirror's current parameterization (any write since would have
    /// emptied the slot), so it is preloaded into the new cache and
    /// republished as the same allocation. Without one the server
    /// cold-solves and its answer goes through the publish/retract rule;
    /// a panic in that solve leaves the market without a server until a
    /// submit re-provisions it.
    fn rebuild(&mut self, id: u64, published: Published) -> ServeResult<Reply> {
        let market = self.markets.get_mut(&id).expect("resident market");
        market.server = None;
        market.published = None;
        let mut server = EquilibriumServer::with_digest(
            market.game.clone(),
            market.digest.clone(),
            self.pool,
            self.cache,
        )
        .with_budget(market.budget);
        let result = match published {
            Some((fp, snap)) => {
                server.preload(fp, Arc::clone(&snap));
                market.published = Some((fp, Arc::clone(&snap)));
                Ok(Reply::Equilibrium { snap, source: Source::CacheHit })
            }
            None => {
                let solved = catch_unwind(AssertUnwindSafe(|| server.equilibrium()));
                let Ok(solved) = solved else { return Err(lost(id)) };
                let result = solved
                    .map(|(snap, source)| Reply::Equilibrium { snap, source })
                    .map_err(ServeError::from);
                market.published = published_after(&result, server.current_key(), None);
                result
            }
        };
        market.server = Some(server);
        result
    }

    fn market_mut(&mut self, id: u64) -> ServeResult<&mut Market> {
        self.markets.get_mut(&id).ok_or(ServeError::Num(NumError::Domain {
            what: "sharded server: unknown market id",
            value: id as f64,
        }))
    }
}

/// The one publish/retract rule: what a market's slot holds after its
/// server answered `result`, `key` being the server's current
/// fingerprint and `before` the slot's previous pair. Full reads publish
/// under that fingerprint; accepted writes and partial answers retract.
/// An error keeps the previous pair while the server still names it as
/// its current answer: a refused request changed nothing.
fn published_after(result: &ServeResult<Reply>, key: Option<u64>, before: Published) -> Published {
    match result {
        Ok(Reply::Equilibrium { source: Source::Partial, .. }) | Ok(Reply::Updated { .. }) => None,
        Err(_) => before.filter(|(fp, _)| key == Some(*fp)),
        Ok(Reply::Equilibrium { snap, .. })
        | Ok(Reply::Sensitivity { snap, .. })
        | Ok(Reply::Degenerate { snap, .. }) => key.map(|fp| (fp, Arc::clone(snap))),
    }
}

/// The typed failure of a market whose rebuild panicked: it has no
/// resident server until a submit re-provisions it.
fn lost(id: u64) -> ServeError {
    ServeError::Num(NumError::Domain {
        what: "sharded server: market has no resident server (submit to heal)",
        value: id as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::section5_system;
    use subcomp_core::game::Axis;

    fn market() -> SubsidyGame {
        SubsidyGame::new(section5_system(), 0.6, 0.8).expect("§5 market is valid")
    }

    fn markets(n: usize) -> Vec<(u64, SubsidyGame)> {
        (0..n as u64).map(|id| (id, market())).collect()
    }

    #[test]
    fn pinning_is_stable_and_total() {
        for shards in [1usize, 2, 4, 7] {
            for id in 0..64u64 {
                let s = shard_of_market(id, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of_market(id, shards), "pinning must be pure");
            }
        }
        // With one shard everything lands on it.
        assert_eq!(shard_of_market(123456, 1), 0);
    }

    #[test]
    fn construction_rejects_degenerate_configs() {
        let cfg = ShardedConfig::default();
        assert!(matches!(ShardedServer::new(Vec::new(), &cfg), Err(NumError::Empty { .. })));
        assert!(matches!(
            ShardedServer::new(markets(1), &ShardedConfig { shards: 0, ..cfg }),
            Err(NumError::Domain { .. })
        ));
        let dup = vec![(3u64, market()), (3u64, market())];
        assert!(matches!(ShardedServer::new(dup, &cfg), Err(NumError::Domain { .. })));
    }

    #[test]
    fn unknown_market_is_a_typed_error() {
        let mut server = ShardedServer::new(markets(2), &ShardedConfig::default()).unwrap();
        assert!(matches!(
            server.serve(99, Request::Equilibrium),
            Err(ServeError::Num(NumError::Domain { .. }))
        ));
        assert!(server.shard_of(99).is_none());
    }

    #[test]
    fn first_read_solves_then_reads_go_lockfree() {
        let mut server =
            ShardedServer::new(markets(2), &ShardedConfig { shards: 2, ..Default::default() })
                .unwrap();
        // First read pays a solve on the shard.
        let first = server.serve(0, Request::Equilibrium).unwrap();
        let Reply::Equilibrium { snap: solved, source } = &first else {
            panic!("equilibrium request answered {first:?}")
        };
        assert_eq!(*source, Source::Cold);
        // Second read rides the published snapshot, same allocation.
        let second = server.serve(0, Request::Equilibrium).unwrap();
        let Reply::Equilibrium { snap, source } = &second else {
            panic!("equilibrium request answered {second:?}")
        };
        assert_eq!(*source, Source::LockFree);
        assert!(Arc::ptr_eq(snap, solved));
        assert_eq!(server.lockfree_hits(), 1);
        // The other market is untouched: its first read still solves.
        let other = server.serve(1, Request::Equilibrium).unwrap();
        let Reply::Equilibrium { source, .. } = &other else { unreachable!() };
        assert_eq!(*source, Source::Cold);
    }

    #[test]
    fn writes_retract_the_published_snapshot() {
        let mut server = ShardedServer::new(markets(1), &ShardedConfig::default()).unwrap();
        server.serve(0, Request::Equilibrium).unwrap();
        assert!(server.read_cached(0).is_some(), "read published its answer");
        server.serve(0, Request::Update { axis: Axis::Price, value: 0.7 }).unwrap();
        assert!(server.read_cached(0).is_none(), "a write must retract the published snapshot");
        // The next read re-solves (the shard sees it) and re-publishes.
        let reply = server.serve(0, Request::Equilibrium).unwrap();
        let Reply::Equilibrium { source, .. } = &reply else { unreachable!() };
        assert_ne!(*source, Source::LockFree);
        assert!(server.read_cached(0).is_some());
    }

    #[test]
    fn cool_market_forces_the_next_solve_cold() {
        let mut server = ShardedServer::new(markets(2), &ShardedConfig::default()).unwrap();
        server.serve(0, Request::Equilibrium).unwrap();
        server.serve(1, Request::Equilibrium).unwrap();
        assert!(server.read_cached(0).is_some());
        // Cooling drops the published entry, the fingerprint cache and
        // every warm seed: the next read pays a full cold solve.
        server.cool_market(0).unwrap();
        assert!(server.read_cached(0).is_none(), "cool must retract the published snapshot");
        let reply = server.serve(0, Request::Equilibrium).unwrap();
        let Reply::Equilibrium { source, .. } = &reply else { unreachable!() };
        assert_eq!(*source, Source::Cold);
        // The other market's published answer is untouched.
        assert!(server.read_cached(1).is_some());
        // Unknown markets stay a typed error.
        assert!(matches!(server.cool_market(99), Err(ServeError::Num(NumError::Domain { .. }))));
    }

    #[test]
    fn sensitivity_reads_always_go_to_the_shard() {
        let mut server = ShardedServer::new(markets(1), &ShardedConfig::default()).unwrap();
        server.serve(0, Request::Equilibrium).unwrap();
        let reply = server.serve(0, Request::Sensitivity { axis: Axis::Mu }).unwrap();
        let Reply::Sensitivity { source, .. } = &reply else {
            panic!("sensitivity request answered {reply:?}")
        };
        assert_ne!(*source, Source::LockFree, "derivatives need the shard's solver state");
    }

    #[test]
    fn shard_reports_cover_every_market() {
        let cfg = ShardedConfig { shards: 4, ..Default::default() };
        let mut server = ShardedServer::new(markets(8), &cfg).unwrap();
        for id in 0..8u64 {
            server.serve(id, Request::Equilibrium).unwrap();
        }
        let reports = server.shard_reports().unwrap();
        assert_eq!(reports.len(), 4);
        assert_eq!(reports.iter().map(|r| r.markets).sum::<usize>(), 8);
        assert_eq!(reports.iter().map(|r| r.quarantined).sum::<usize>(), 0);
        let solves: u64 = reports.iter().map(|r| r.stats.cold_solves).sum();
        assert_eq!(solves, 8, "every market paid exactly one cold solve");
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.shard, i, "reports arrive in shard order");
        }
    }

    #[test]
    fn request_panic_rebuilds_only_that_market() {
        let mut server =
            ShardedServer::new(markets(2), &ShardedConfig { shards: 1, ..Default::default() })
                .unwrap();
        server.serve(0, Request::Equilibrium).unwrap();
        server.serve(1, Request::Equilibrium).unwrap();
        let err = server.serve_sabotaged(0, Request::Equilibrium, Sabotage::Panic);
        assert!(matches!(err, Err(ServeError::ShardRestarted { shard: 0 })));
        assert_eq!(server.shard_restarts(), 0, "the shard thread survived");
        assert_eq!(server.market_rebuilds(), 1);
        // Both markets keep serving; the rebuilt one republished during
        // rehydration, so its next read is lock-free again.
        assert!(server.serve(0, Request::Equilibrium).is_ok());
        assert!(server.serve(1, Request::Equilibrium).is_ok());
    }

    #[test]
    fn shard_kill_restarts_and_rehydrates() {
        let mut server =
            ShardedServer::new(markets(2), &ShardedConfig { shards: 1, ..Default::default() })
                .unwrap();
        server.serve(0, Request::Equilibrium).unwrap();
        let err = server.serve_sabotaged(1, Request::Equilibrium, Sabotage::Kill);
        assert!(matches!(err, Err(ServeError::ShardRestarted { shard: 0 })));
        assert_eq!(server.shard_restarts(), 1);
        assert_eq!(server.market_rebuilds(), 2, "fleet-wide canonical reset");
        // Everything keeps serving after the restart.
        assert!(server.serve(0, Request::Equilibrium).is_ok());
        assert!(server.serve(1, Request::Equilibrium).is_ok());
        let reports = server.shard_reports().unwrap();
        assert_eq!(reports.iter().map(|r| r.markets).sum::<usize>(), 2);
    }
}
