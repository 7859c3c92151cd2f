//! Oracle tier: the sharded serving stack against a naive reference model.
//!
//! The server and fault tiers prove that replies replay identically and
//! that the fleet recovers; a stale cache entry, a stale published slot,
//! a bad warm start or stale Theorem 6 factors would replay identically
//! too. This tier checks the replies themselves. Load-generator streams,
//! with hand-written requests mixed in, run through a [`ShardedServer`]
//! at 1 and 2 shards and, in lockstep, through [`Reference`]: a mirror of
//! each market's game, admitted by [`fingerprint`] and solved cold on a
//! fresh workspace for every read, with no cache, no warm slot and no
//! published slot. At every step:
//!
//! * every equilibrium is within 1e-8 sup-norm of the reference's;
//! * every typed error has the reference's [`error_kind`];
//! * every `Reply::Sensitivity` carries, bit for bit, the `ds` that
//!   [`Sensitivity::directional`] computes on a fresh workspace at the
//!   served snapshot's subsidies;
//! * every `Reply::Degenerate` answers exactly where `directional`
//!   refuses, with the same active set.
//!
//! The hand-written requests are `Profitability(j)` writes, a refused NaN
//! write, a sensitivity read along a provider the market lacks, a
//! poisoned submit (typed `NonFinite` on every read until a clean submit
//! heals it), a submit of a degenerate market, and an eviction round trip: leave an operating point after a
//! sensitivity read, evict it, re-solve it with a plain read and read its
//! sensitivity again — the one order in which a factor mark that
//! survived a write would hand out another snapshot's factors.

use std::collections::HashMap;
use subcomp::exp::scenarios::section5_system;
use subcomp::exp::server::{
    error_kind, fingerprint, generate_multi, poison_game, LoadGenConfig, Reply, Request,
    ServeError, ServeResult, ShardedConfig, ShardedServer, Source,
};
use subcomp::game::game::{Axis, SubsidyGame};
use subcomp::game::nash::{NashSolver, WarmStart};
use subcomp::game::sensitivity::{ActiveSet, Sensitivity};
use subcomp::game::workspace::SolveWorkspace;
use subcomp::num::error::NumError;

/// The §5 market at the `serve_market` default operating point.
fn section5_game() -> SubsidyGame {
    SubsidyGame::new(section5_system(), 0.6, 0.8).expect("§5 market is valid")
}

/// The §5 market capped exactly at its largest free equilibrium
/// subsidy: that provider sits on the cap with zero marginal utility, so
/// strict complementarity fails and the equilibrium is degenerate.
fn degenerate_game() -> SubsidyGame {
    let free = SubsidyGame::new(section5_system(), 0.6, 2.0).expect("valid market");
    let s = NashSolver::default().with_tol(1e-10).solve(&free).expect("solves").subsidies;
    let top = s.iter().copied().fold(0.0, f64::max);
    SubsidyGame::new(section5_system(), 0.6, top).expect("valid market")
}

/// One step of a replayed stream.
#[derive(Clone)]
enum Step {
    Serve(u64, Request),
    Submit(u64, SubsidyGame),
}

/// The reference model: a mirror of every market's game and a cold solve
/// per read. Nothing is cached or carried between reads.
struct Reference {
    games: HashMap<u64, SubsidyGame>,
}

impl Reference {
    fn new(markets: usize) -> Reference {
        Reference { games: (0..markets as u64).map(|id| (id, section5_game())).collect() }
    }

    fn game(&self, market: u64) -> &SubsidyGame {
        &self.games[&market]
    }

    fn write(&mut self, market: u64, axis: Axis, value: f64) -> ServeResult<()> {
        let game = self.games.get_mut(&market).expect("known market");
        axis.apply(game, value).map_err(ServeError::from)
    }

    fn submit(&mut self, market: u64, game: SubsidyGame) {
        self.games.insert(market, game);
    }

    /// Admission by fingerprint, then a cold solve on a fresh workspace.
    fn equilibrium(&self, market: u64) -> ServeResult<Vec<f64>> {
        let game = self.game(market);
        fingerprint(game)?;
        let mut ws = SolveWorkspace::for_game(game);
        NashSolver::default().with_tol(1e-10).solve_into(game, WarmStart::Zero, &mut ws)?;
        Ok(ws.subsidies().to_vec())
    }

    /// What a step must answer, checked against the fleet's `served`.
    fn check(&mut self, at: usize, step: &Step, served: ServeResult<Reply>, seen: &mut Seen) {
        let (market, expected) = match step {
            Step::Serve(market, Request::Update { axis, value }) => {
                let expected = self.write(*market, *axis, *value);
                match (&expected, &served) {
                    (Ok(()), Ok(Reply::Updated { .. })) => return,
                    (Err(_), Err(_)) => (*market, expected.map(|()| Vec::new())),
                    _ => panic!("step {at}: write {expected:?} was served as {served:?}"),
                }
            }
            Step::Serve(market, Request::Equilibrium) => (*market, self.equilibrium(*market)),
            Step::Serve(market, Request::Sensitivity { axis }) => {
                let refused = axis.validate(self.game(*market)).map_err(ServeError::from);
                (*market, refused.and_then(|()| self.equilibrium(*market)))
            }
            Step::Submit(market, game) => {
                self.submit(*market, game.clone());
                (*market, self.equilibrium(*market))
            }
        };
        let (s_ref, reply) = match (expected, served) {
            (Err(want), Err(got)) => {
                assert_eq!(error_kind(&got), error_kind(&want), "step {at}: {got} vs {want}");
                seen.errors += 1;
                return;
            }
            (Ok(s_ref), Ok(reply)) => (s_ref, reply),
            (want, got) => panic!("step {at}: reference {want:?}, fleet {got:?}"),
        };
        let snap = match &reply {
            Reply::Equilibrium { snap, .. }
            | Reply::Sensitivity { snap, .. }
            | Reply::Degenerate { snap, .. } => snap,
            Reply::Updated { .. } => panic!("step {at}: a read answered as a write"),
        };
        assert_eq!(snap.n(), s_ref.len(), "step {at}: the answer has the wrong arity");
        let gap =
            snap.subsidies().iter().zip(&s_ref).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(gap <= 1e-8, "step {at}: equilibrium {gap:.3e} from the reference");
        let Step::Serve(_, Request::Sensitivity { axis }) = step else { return };
        let game = self.game(market);
        match (Sensitivity::directional(game, snap.subsidies(), *axis), &reply) {
            (Ok(ds_ref), Reply::Sensitivity { ds, source, .. }) => {
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(ds), bits(&ds_ref), "step {at}: ds along {axis:?}");
                seen.derivatives += 1;
                seen.repeats += (*source == Source::CacheHit) as usize;
            }
            (Err(NumError::Domain { .. }), Reply::Degenerate { active_set, .. }) => {
                assert_eq!(active_set, &ActiveSet::classify(snap.subsidies(), game.cap()));
                seen.degenerate += 1;
            }
            (want, got) => panic!("step {at}: directional {want:?}, fleet {got:?}"),
        }
    }
}

/// What a replay covered, so a stream that silently stopped exercising a
/// path fails the tier.
#[derive(Debug, Default, PartialEq)]
struct Seen {
    errors: usize,
    derivatives: usize,
    degenerate: usize,
    /// Derivatives answered on a cache hit: the factor-reuse candidates.
    repeats: usize,
}

/// The hand-written requests mixed in after every `every`-th generated
/// one, rotating through six kinds, each on the market of the request it
/// follows.
fn mixed(stream: Vec<(u64, Request)>, every: usize, cache: usize) -> Vec<Step> {
    let clean = section5_game();
    let poisoned = poison_game(&clean).expect("poisoning keeps the game valid");
    let degenerate = degenerate_game();
    let mut steps = Vec::new();
    for (i, (market, req)) in stream.into_iter().enumerate() {
        steps.push(Step::Serve(market, req));
        if i % every != every - 1 {
            continue;
        }
        let k = i / every;
        let serve = |req| Step::Serve(market, req);
        let sens = |axis| serve(Request::Sensitivity { axis });
        match k % 6 {
            0 => {
                let axis = Axis::Profitability(k % 8);
                steps.push(serve(Request::Update { axis, value: 0.2 + 0.15 * (k % 7) as f64 }));
                steps.extend([sens(axis), sens(Axis::Price)]);
            }
            1 => steps.extend([
                serve(Request::Update { axis: Axis::Mu, value: f64::NAN }),
                serve(Request::Equilibrium),
                sens(Axis::Profitability(99)),
                sens(Axis::Cap),
            ]),
            2 => {
                steps.push(Step::Submit(market, poisoned.clone()));
                steps.extend([serve(Request::Equilibrium), sens(Axis::Mu)]);
                steps.push(serve(Request::Update { axis: Axis::Price, value: 0.5 }));
                steps.push(serve(Request::Equilibrium));
                steps.push(Step::Submit(market, clean.clone()));
                steps.push(sens(Axis::Price));
            }
            3 => steps.extend([sens(Axis::Mu), sens(Axis::Mu), sens(Axis::Price)]),
            4 => {
                steps.push(Step::Submit(market, degenerate.clone()));
                steps.extend([sens(Axis::Mu), sens(Axis::Price)]);
                steps.push(Step::Submit(market, clean.clone()));
            }
            _ => {
                // Differentiate a point, visit enough fresh capacities to
                // evict it, come back, re-solve it with a plain read, and
                // differentiate it again.
                let home = Request::Update { axis: Axis::Mu, value: 1.5 };
                steps.extend([serve(home), sens(Axis::Price)]);
                for j in 0..cache + 2 {
                    let value = 3.0 + 0.01 * j as f64;
                    steps.push(serve(Request::Update { axis: Axis::Mu, value }));
                    steps.push(serve(Request::Equilibrium));
                }
                steps.extend([serve(home), serve(Request::Equilibrium)]);
                steps.extend([sens(Axis::Price), sens(Axis::Cap)]);
            }
        }
    }
    steps
}

/// Replays `steps` through a fleet of `markets` §5 markets at each shard
/// count, checking every reply against the reference; returns what the
/// replay covered (equal at every shard count).
fn replay(steps: &[Step], markets: usize, cache: usize) -> Seen {
    let mut coverage = Vec::new();
    for shards in [1, 2] {
        let fleet_markets = (0..markets as u64).map(|id| (id, section5_game())).collect();
        let cfg = ShardedConfig { shards, pool: 2, cache };
        let mut fleet = ShardedServer::new(fleet_markets, &cfg).expect("valid fleet");
        let mut reference = Reference::new(markets);
        let mut seen = Seen::default();
        for (at, step) in steps.iter().enumerate() {
            let served = match step {
                Step::Serve(market, req) => fleet.serve(*market, *req),
                Step::Submit(market, game) => fleet.submit(*market, game.clone()),
            };
            reference.check(at, step, served, &mut seen);
        }
        coverage.push(seen);
    }
    assert_eq!(coverage[0], coverage[1], "coverage moved with the shard count");
    coverage.swap_remove(0)
}

fn requests(debug: usize, release: usize) -> usize {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

#[test]
fn default_stream_matches_the_reference() {
    let cfg = LoadGenConfig { requests: requests(150, 1500), ..LoadGenConfig::default() };
    let stream = generate_multi(&cfg, 3).expect("valid load");
    let seen = replay(&mixed(stream, 40, 64), 3, 64);
    assert!(
        seen.derivatives.min(seen.degenerate).min(seen.repeats).min(seen.errors) > 0,
        "{seen:?}"
    );
}

#[test]
fn eviction_pressure_stream_matches_the_reference() {
    let cfg = LoadGenConfig {
        requests: requests(250, 2500),
        hot_keys: 96,
        read_fraction: 0.6,
        sensitivity_fraction: 0.2,
        seed: 11,
        ..LoadGenConfig::default()
    };
    let stream = generate_multi(&cfg, 2).expect("valid load");
    let seen = replay(&mixed(stream, 30, 16), 2, 16);
    assert!(
        seen.derivatives.min(seen.degenerate).min(seen.repeats).min(seen.errors) > 0,
        "{seen:?}"
    );
}

#[test]
fn always_miss_stream_matches_the_reference() {
    // Cache capacity 0: every read re-solves, even right after a read of
    // the same point, so no factors may be reused.
    let cfg = LoadGenConfig {
        requests: requests(150, 1500),
        sensitivity_fraction: 0.3,
        read_fraction: 0.5,
        ..LoadGenConfig::default()
    };
    let stream = generate_multi(&cfg, 2).expect("valid load");
    let seen = replay(&mixed(stream, 40, 0), 2, 0);
    assert_eq!(seen.repeats, 0, "an always-miss cache answered a hit");
    assert!(seen.derivatives.min(seen.degenerate).min(seen.errors) > 0, "{seen:?}");
}
