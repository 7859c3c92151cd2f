//! Deterministic fault injection for the sharded equilibrium service.
//!
//! A [`FaultPlan`] is a pure function of `(seed, stream length, market
//! count)` — generated from dedicated sub-streams of the sim crate's
//! [`SimRng`] stream-split discipline, entirely independent of the load
//! generator's streams, so turning chaos on cannot perturb *which*
//! requests the workload issues. Four fault families cover the recovery
//! surface:
//!
//! * [`FaultKind::Panic`] — the request at the event's stream index
//!   panics inside the per-request guard (market-scoped recovery: that
//!   one resident server is rebuilt).
//! * [`FaultKind::Kill`] — the request's whole shard goes down, every
//!   resident server on it lost (fleet-wide recovery: every market is
//!   rebuilt).
//! * [`FaultKind::NanCurve`] — a market's demand curve is swapped for a
//!   wrapper that answers `NaN` above an effective price the solver
//!   never reaches but the fingerprint probes do, so the poison is
//!   caught at the door as a typed [`NumError::NonFinite`], never
//!   inside a solve.
//! * [`FaultKind::Starve`] — a market's [`SolveBudget`] is cut to one
//!   iteration, degrading its solves to [`Source::Partial`] answers until
//!   repeated blowouts quarantine it.
//!
//! Curve and budget faults schedule a paired [`FaultKind::Heal`] (clean
//! resubmit plus unlimited budget) a bounded distance later, and
//! [`run_chaos`] ends with an unconditional heal sweep over every
//! market — the acceptance bar is *zero unrecovered markets*, whatever
//! the plan did.
//!
//! **Replay contract.** The harness folds every reply and every typed
//! error into one bit-level checksum ([`fold_reply`]/[`fold_error`]).
//! Errors fold a stable *kind token* — never a shard index, which is the
//! one recovery coordinate that legitimately depends on `--shards` — so
//! the checksum is bit-identical run-to-run **and across shard counts**:
//! per-request faults are market-scoped, and whole-shard kills trigger
//! the router's canonical fleet-wide reset (see the `sharded` module
//! docs). `tests/fault_tier.rs` pins both identities.
//!
//! [`SimRng`]: subcomp_sim::rng::SimRng
//! [`Source::Partial`]: super::Source::Partial

use std::collections::BTreeMap;

use subcomp_core::game::SubsidyGame;
use subcomp_core::workspace::SolveBudget;
use subcomp_model::cp::ContentProvider;
use subcomp_model::demand::DemandFn;
use subcomp_num::error::{NumError, NumResult};
use subcomp_sim::rng::SimRng;

use super::loadgen::{generate_multi, LoadGenConfig};
use super::sharded::{Sabotage, ShardedConfig, ShardedServer};
use super::{Reply, Request, ServeError, ServeResult};

/// Sub-stream indices of the chaos seed. Deliberately far above the load
/// generator's range (which grows with the market count) so the two
/// schedules can never alias even under one shared master seed.
const STREAM_KIND: u64 = 9001;
const STREAM_AT: u64 = 9002;
const STREAM_MARKET: u64 = 9003;
const STREAM_HEAL: u64 = 9004;

/// Effective-price threshold of the NaN wrapper. The solver's sweeps and
/// Newton steps only evaluate demand at `t = p − s ≤ p ≤ 0.9`, while the
/// server's fingerprint probes population at `t = 1.5` — so a curve
/// poisoned above 1.0 is caught by admission fingerprinting, never
/// mid-solve.
const NAN_THRESHOLD: f64 = 1.0;

/// The starvation budget: one iteration (a GS sweep or a Newton step),
/// far below what any cold or moved-market solve needs, so every cache
/// miss degrades to a partial answer.
pub const STARVE_SWEEPS: usize = 1;

/// One injected fault kind. `Panic`/`Kill` ride on the request at the
/// event's stream index (whatever market it targets); curve/budget
/// faults name their market explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic while serving the request at this index (per-request guard).
    Panic,
    /// Kill the shard of the request at this index.
    Kill,
    /// Swap `market`'s demand curve for the NaN-above-threshold wrapper.
    NanCurve {
        /// The poisoned market.
        market: u64,
    },
    /// Cut `market`'s solve budget to [`STARVE_SWEEPS`].
    Starve {
        /// The starved market.
        market: u64,
    },
    /// Heal `market`: restore an unlimited budget and resubmit the clean
    /// game (the quarantine-lifting path).
    Heal {
        /// The healed market.
        market: u64,
    },
}

/// One scheduled fault: fire when the request stream reaches index `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Stream index the event fires at (before serving that request).
    pub at: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic fault schedule over a request stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Generates the schedule for a stream of `requests` total requests
    /// over `markets` markets. Pure: equal arguments give equal plans,
    /// and the argument list contains nothing shard-shaped — the same
    /// plan drives every shard count.
    ///
    /// Roughly one primary fault per 250 requests (at least four), each
    /// drawn uniformly over the four families; curve and budget faults
    /// add a paired heal 25–124 requests later.
    pub fn generate(seed: u64, requests: usize, markets: usize) -> FaultPlan {
        let mut kind_rng = SimRng::stream(seed, STREAM_KIND);
        let mut at_rng = SimRng::stream(seed, STREAM_AT);
        let mut market_rng = SimRng::stream(seed, STREAM_MARKET);
        let mut heal_rng = SimRng::stream(seed, STREAM_HEAL);
        let primaries = (requests / 250).max(4);
        let mut events = Vec::with_capacity(primaries * 2);
        for _ in 0..primaries {
            let at = at_rng.below(requests.max(1) as u64) as usize;
            match kind_rng.below(4) {
                0 => events.push(FaultEvent { at, kind: FaultKind::Panic }),
                1 => events.push(FaultEvent { at, kind: FaultKind::Kill }),
                kind => {
                    let market = market_rng.below(markets.max(1) as u64);
                    let fault = if kind == 2 {
                        FaultKind::NanCurve { market }
                    } else {
                        FaultKind::Starve { market }
                    };
                    events.push(FaultEvent { at, kind: fault });
                    let heal_at = at + 25 + heal_rng.below(100) as usize;
                    events.push(FaultEvent { at: heal_at, kind: FaultKind::Heal { market } });
                }
            }
        }
        // Stable sort: simultaneous events keep generation order, so the
        // application order is part of the plan's determinism contract.
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// The scheduled events, in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// A demand curve that answers `NaN` above a price threshold and defers
/// to the wrapped curve below it — the curve-corruption fault.
struct NanAbove {
    inner: Box<dyn DemandFn>,
    threshold: f64,
}

impl DemandFn for NanAbove {
    fn m(&self, t: f64) -> f64 {
        if t > self.threshold {
            f64::NAN
        } else {
            self.inner.m(t)
        }
    }
    fn dm_dt(&self, t: f64) -> f64 {
        if t > self.threshold {
            f64::NAN
        } else {
            self.inner.dm_dt(t)
        }
    }
    fn d2m_dt2(&self, t: f64) -> f64 {
        if t > self.threshold {
            f64::NAN
        } else {
            self.inner.d2m_dt2(t)
        }
    }
    fn name(&self) -> &'static str {
        "nan-above"
    }
    fn boxed_clone(&self) -> Box<dyn DemandFn> {
        Box::new(NanAbove { inner: self.inner.boxed_clone(), threshold: self.threshold })
    }
    fn scaled(&self, kappa: f64) -> Box<dyn DemandFn> {
        Box::new(NanAbove { inner: self.inner.scaled(kappa), threshold: self.threshold })
    }
}

/// Returns a copy of `game` with provider 0's demand curve wrapped in
/// `NanAbove` — enough to poison the whole market's fingerprint (the
/// probes cover every provider) while leaving the solver's working range
/// untouched.
pub fn poison_game(game: &SubsidyGame) -> NumResult<SubsidyGame> {
    let mut system = game.system().clone();
    let cp = system.cp(0);
    let poisoned = ContentProvider::builder(cp.name().to_string())
        .demand_boxed(Box::new(NanAbove {
            inner: cp.demand().boxed_clone(),
            threshold: NAN_THRESHOLD,
        }))
        .throughput_boxed(cp.throughput().boxed_clone())
        .profitability(cp.profitability())
        .build();
    system.patch_cps([(0, poisoned)])?;
    SubsidyGame::new(system, game.price(), game.cap())
}

const SALT: u64 = 0x9E37_79B9_7F4A_7C15;
const ERR_SALT: u64 = 0xA24B_AED4_963E_E407;

/// Folds one served reply into the running bit-level checksum: XOR of
/// the bits of every float the client would see, salted with the market
/// the reply belongs to. Order-sensitive enough to catch any drift in
/// the served sequence, cheap enough to be free.
pub fn fold_reply(acc: u64, market: u64, reply: &Reply) -> u64 {
    let mut acc = acc.rotate_left(1) ^ market.wrapping_mul(SALT);
    match reply {
        Reply::Updated { value, .. } => acc ^= value.to_bits(),
        Reply::Equilibrium { snap, .. } => {
            for s in snap.subsidies() {
                acc ^= s.to_bits();
            }
            acc ^= snap.state().phi.to_bits();
        }
        Reply::Sensitivity { ds, snap, .. } => {
            for d in ds {
                acc ^= d.to_bits();
            }
            acc ^= snap.state().phi.to_bits();
        }
        Reply::Degenerate { active_set, snap, .. } => {
            // The active-set partition is the answer here: fold which
            // providers sit on which bound (1-based so index 0 is
            // visible to the XOR).
            for &i in &active_set.lower {
                acc ^= (i as u64 + 1).wrapping_mul(0x517c_c1b7_2722_0a95);
            }
            for &i in &active_set.upper {
                acc ^= (i as u64 + 1).wrapping_mul(0x2545_f491_4f6c_dd1d);
            }
            for s in snap.subsidies() {
                acc ^= s.to_bits();
            }
            acc ^= snap.state().phi.to_bits();
        }
    }
    acc
}

/// The stable failure-kind label of a typed serve error — the token
/// [`fold_error`] folds and the key the failure summaries group by.
/// Deliberately coarse: no shard indices, no float payloads, nothing
/// that could vary across shard counts while the fault sequence doesn't.
pub fn error_kind(err: &ServeError) -> &'static str {
    match err {
        ServeError::ShardRestarted { .. } => "shard-restarted",
        ServeError::Quarantined { .. } => "quarantined",
        ServeError::Num(NumError::NonFinite { .. }) => "non-finite",
        ServeError::Num(NumError::Domain { .. }) => "domain",
        ServeError::Num(NumError::MaxIterations { .. }) => "max-iterations",
        ServeError::Num(_) => "numeric",
    }
}

fn kind_token(kind: &'static str) -> u64 {
    match kind {
        "shard-restarted" => 0xF1,
        "quarantined" => 0xF2,
        "non-finite" => 0xF3,
        "domain" => 0xF4,
        "max-iterations" => 0xF5,
        _ => 0xFF,
    }
}

/// Folds one typed failure into the running checksum by market and
/// stable kind token — so the reply stream *including its failures* is
/// pinned bit-for-bit, without ever folding a shard coordinate.
pub fn fold_error(acc: u64, market: u64, err: &ServeError) -> u64 {
    acc.rotate_left(1)
        ^ market.wrapping_mul(SALT)
        ^ kind_token(error_kind(err)).wrapping_mul(ERR_SALT)
}

/// What one chaos run did and how the service fared — every field except
/// nothing is deterministic: equal configs give equal reports, including
/// across shard counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Workload requests served (excludes fault-control traffic).
    pub requests: usize,
    /// Workload requests answered with a reply.
    pub ok: usize,
    /// Workload requests answered with a typed error.
    pub failed: usize,
    /// Scheduled fault events (including paired heals).
    pub injected: usize,
    /// Shard kills the router recovered from.
    pub shard_restarts: u64,
    /// Resident market servers rebuilt from mirrors.
    pub market_rebuilds: u64,
    /// Bit-level checksum over every reply and every typed error, in
    /// stream order, including fault-control and final-heal traffic.
    pub checksum: u64,
    /// Typed failures grouped by stable kind label, sorted by label.
    pub failures_by_kind: Vec<(&'static str, usize)>,
    /// Typed failures grouped by market, sorted by market id.
    pub failures_by_market: Vec<(u64, usize)>,
    /// Markets still failing a full read after the final heal sweep.
    /// The recovery contract is that this is empty for every plan.
    pub unrecovered: Vec<u64>,
}

/// Configuration of one chaos run: the sharded-server shape, the
/// workload, and the fault seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Shards: fault domains and report groups (the report is invariant
    /// to their count).
    pub shards: usize,
    /// Warm workspaces per resident market.
    pub pool: usize,
    /// Fingerprint-cache capacity per resident market.
    pub cache: usize,
    /// The workload (requests are per market).
    pub load: LoadGenConfig,
    /// Master seed of the fault schedule.
    pub chaos_seed: u64,
}

/// The running tallies one chaos episode accumulates: the checksum plus
/// the failure breakdowns the report is assembled from.
#[derive(Default)]
struct Tally {
    checksum: u64,
    by_kind: BTreeMap<&'static str, usize>,
    by_market: BTreeMap<u64, usize>,
}

impl Tally {
    /// Folds one serve outcome — reply bits or error kind token — and
    /// tallies typed failures by kind and market.
    fn fold(&mut self, market: u64, result: &ServeResult<Reply>) {
        match result {
            Ok(reply) => self.checksum = fold_reply(self.checksum, market, reply),
            Err(err) => {
                self.checksum = fold_error(self.checksum, market, err);
                *self.by_kind.entry(error_kind(err)).or_insert(0) += 1;
                *self.by_market.entry(market).or_insert(0) += 1;
            }
        }
    }
}

/// Applies one control-plane fault (curve poison, starvation, heal) to
/// the live server, folding whatever the control traffic answered.
fn apply_control(
    server: &mut ShardedServer,
    tally: &mut Tally,
    clean: &BTreeMap<u64, SubsidyGame>,
    kind: FaultKind,
) -> NumResult<()> {
    match kind {
        FaultKind::Panic | FaultKind::Kill => unreachable!("sabotage rides on requests"),
        FaultKind::NanCurve { market } => {
            let poisoned = poison_game(&clean[&market])?;
            let result = server.submit(market, poisoned);
            tally.fold(market, &result);
        }
        FaultKind::Starve { market } => {
            if let Err(err) = server.set_budget(market, SolveBudget::sweeps(STARVE_SWEEPS)) {
                tally.checksum = fold_error(tally.checksum, market, &err);
            }
        }
        FaultKind::Heal { market } => {
            if let Err(err) = server.set_budget(market, SolveBudget::unlimited()) {
                tally.checksum = fold_error(tally.checksum, market, &err);
            }
            let result = server.submit(market, clean[&market].clone());
            tally.fold(market, &result);
        }
    }
    Ok(())
}

/// Runs one deterministic chaos episode: stand up a [`ShardedServer`]
/// over `markets`, drive it with the stream-split workload while firing
/// the fault plan, then heal every market and verify it serves a full
/// answer. Equal `(markets, cfg)` give bit-identical reports — for any
/// `cfg.shards`.
pub fn run_chaos(markets: &[(u64, SubsidyGame)], cfg: &ChaosConfig) -> NumResult<ChaosReport> {
    let stream = generate_multi(&cfg.load, markets.len())?;
    let plan = FaultPlan::generate(cfg.chaos_seed, stream.len(), markets.len());
    let mut server = ShardedServer::new(
        markets.to_vec(),
        &ShardedConfig { shards: cfg.shards, pool: cfg.pool, cache: cfg.cache },
    )?;
    let clean: BTreeMap<u64, SubsidyGame> =
        markets.iter().map(|(id, g)| (*id, g.clone())).collect();

    let mut tally = Tally::default();
    let mut ok = 0usize;
    let mut failed = 0usize;

    let events = plan.events();
    let mut next_event = 0usize;
    for (i, (market, req)) in stream.iter().enumerate() {
        let mut sabotage = Sabotage::None;
        while next_event < events.len() && events[next_event].at <= i {
            match events[next_event].kind {
                FaultKind::Panic => sabotage = Sabotage::Panic,
                FaultKind::Kill => sabotage = Sabotage::Kill,
                kind => apply_control(&mut server, &mut tally, &clean, kind)?,
            }
            next_event += 1;
        }
        let result = server.serve_sabotaged(*market, *req, sabotage);
        match &result {
            Ok(_) => ok += 1,
            Err(_) => failed += 1,
        }
        tally.fold(*market, &result);
    }
    // Control events scheduled past the stream's end still fire (their
    // paired faults did); sabotage leftovers have no request to ride and
    // are dropped.
    while next_event < events.len() {
        match events[next_event].kind {
            FaultKind::Panic | FaultKind::Kill => {}
            kind => apply_control(&mut server, &mut tally, &clean, kind)?,
        }
        next_event += 1;
    }

    // The unconditional heal sweep: whatever the plan left behind, every
    // market must come back to serving full answers.
    let mut unrecovered = Vec::new();
    for (&id, game) in &clean {
        if let Err(err) = server.set_budget(id, SolveBudget::unlimited()) {
            tally.checksum = fold_error(tally.checksum, id, &err);
        }
        let submitted = server.submit(id, game.clone());
        tally.fold(id, &submitted);
        let read = server.serve(id, Request::Equilibrium);
        let recovered = matches!(&read, Ok(Reply::Equilibrium { .. }));
        tally.fold(id, &read);
        if !recovered {
            unrecovered.push(id);
        }
    }

    Ok(ChaosReport {
        requests: stream.len(),
        ok,
        failed,
        injected: events.len(),
        shard_restarts: server.shard_restarts(),
        market_rebuilds: server.market_rebuilds(),
        checksum: tally.checksum,
        failures_by_kind: tally.by_kind.into_iter().collect(),
        failures_by_market: tally.by_market.into_iter().collect(),
        unrecovered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::section5_system;

    fn market() -> SubsidyGame {
        SubsidyGame::new(section5_system(), 0.6, 0.8).expect("§5 market is valid")
    }

    #[test]
    fn plans_replay_bit_identically() {
        let a = FaultPlan::generate(42, 2000, 8);
        let b = FaultPlan::generate(42, 2000, 8);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::generate(43, 2000, 8), "seed must matter");
        // Sorted by firing index, all four primary families present at
        // this size, every curve/budget fault paired with a heal.
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));
        let heals = a.events().iter().filter(|e| matches!(e.kind, FaultKind::Heal { .. })).count();
        let paired = a
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::NanCurve { .. } | FaultKind::Starve { .. }))
            .count();
        assert_eq!(heals, paired, "every curve/budget fault schedules its heal");
    }

    #[test]
    fn poisoned_game_fails_fingerprinting_not_solving() {
        let clean = market();
        let poisoned = poison_game(&clean).unwrap();
        // The solver's working range is untouched...
        let t = 0.5;
        assert_eq!(poisoned.system().cp(0).population(t), clean.system().cp(0).population(t));
        // ...but the fingerprint probe range is NaN.
        assert!(poisoned.system().cp(0).population(1.5).is_nan());
    }

    #[test]
    fn error_kinds_are_stable_and_shard_free() {
        let restarted = ServeError::ShardRestarted { shard: 3 };
        assert_eq!(error_kind(&restarted), "shard-restarted");
        // Folding must not depend on which shard restarted.
        let a = fold_error(7, 1, &ServeError::ShardRestarted { shard: 0 });
        let b = fold_error(7, 1, &ServeError::ShardRestarted { shard: 3 });
        assert_eq!(a, b, "shard coordinates must never reach the checksum");
        assert_eq!(error_kind(&ServeError::Quarantined { strikes: 3 }), "quarantined");
        assert_eq!(
            error_kind(&ServeError::Num(NumError::NonFinite { what: "x", at: 0.0 })),
            "non-finite"
        );
    }
}
