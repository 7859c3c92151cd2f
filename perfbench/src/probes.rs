//! Unit costs of single layers, timed from outside through each layer's
//! public entry point. The traced run calls these on the workload's own
//! games and multiplies them by the workload's exact work counts; a layer
//! the workload never reaches is not timed and reports 0.

use std::hint::black_box;
use std::time::Instant;

use subcomp_core::best_response::{best_response, BrConfig};
use subcomp_core::game::{Axis, SubsidyGame};
use subcomp_core::nash::{NashSolver, SolveStats, WarmStart};
use subcomp_core::sensitivity::Sensitivity;
use subcomp_core::snapshot::EqSnapshot;
use subcomp_core::workspace::SolveWorkspace;
use subcomp_exp::adoption::step_population;
use subcomp_exp::scenarios::section5_specs;
use subcomp_exp::server::{fingerprint, EquilibriumServer, Reply, Request, ShardedServer, Source};
use subcomp_model::aggregation::build_system;
use subcomp_model::system::SystemState;
use subcomp_sim::adoption::{AdoptionParams, Population, TickDrive, TypeSpec};

use crate::stats::median;

/// The §5 market at capacity `mu`, price `price` and cap `cap` — the
/// market every serve and adopt market starts from.
pub fn market_at(mu: f64, price: f64, cap: f64) -> Result<SubsidyGame, String> {
    build_system(&section5_specs(), mu)
        .and_then(|sys| SubsidyGame::new(sys, price, cap))
        .map_err(|e| e.to_string())
}

/// A game together with a solved equilibrium of it.
pub struct Solved {
    pub game: SubsidyGame,
    pub s: Vec<f64>,
    ws: SolveWorkspace,
    stats: SolveStats,
}

/// Solves `game` with the serving solver configuration.
pub fn solved(game: SubsidyGame) -> Result<Solved, String> {
    let mut ws = SolveWorkspace::for_game(&game);
    let stats = NashSolver::default()
        .with_tol(1e-10)
        .solve_into(&game, WarmStart::Zero, &mut ws)
        .map_err(|e| format!("probe solve failed: {e}"))?;
    Ok(Solved { s: ws.subsidies().to_vec(), game, ws, stats })
}

/// Median seconds per call of `f`, timed in batches of `batch` calls so
/// that calls far below the clock's resolution still time correctly.
fn per_call_s(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&mut times)
}

/// Median over games of a per-game unit cost.
fn over_games(games: &mut [Solved], mut cost: impl FnMut(&mut Solved) -> f64) -> f64 {
    let mut costs: Vec<f64> = games.iter_mut().map(&mut cost).collect();
    median(&mut costs)
}

/// `model::system` — µs per φ/state fixed point at the equilibrium's
/// effective prices (`System::state_at_prices_into`).
pub fn state_us(games: &mut [Solved]) -> f64 {
    over_games(games, |g| {
        let t = g.game.effective_prices(&g.s);
        let system = g.game.system();
        let mut scratch = system.make_scratch();
        let mut out = SystemState::empty();
        per_call_s(15, 20, || {
            system.state_at_prices_into(black_box(&t), &mut scratch, &mut out).expect("state");
        }) * 1e6
    })
}

/// `core::snapshot` — µs per `EqSnapshot::capture_into`.
pub fn capture_us(games: &mut [Solved]) -> f64 {
    over_games(games, |g| {
        let mut snap = EqSnapshot::empty();
        per_call_s(15, 50, || snap.capture_into(black_box(&g.game), &g.ws, g.stats)) * 1e6
    })
}

/// `exp::server::fingerprint` — µs per `fingerprint()`.
pub fn fingerprint_us(games: &mut [Solved]) -> f64 {
    over_games(games, |g| {
        per_call_s(15, 50, || {
            black_box(fingerprint(black_box(&g.game)).expect("finite game"));
        }) * 1e6
    })
}

/// `core::sensitivity` — µs per `Sensitivity::directional` along µ at
/// the equilibrium. Degenerate equilibria (refused by the entry point)
/// are skipped; 0 when every game is degenerate.
pub fn directional_us(games: &mut [Solved]) -> f64 {
    let mut costs = Vec::new();
    for g in games.iter_mut() {
        if Sensitivity::directional(&mut g.game, &g.s, Axis::Mu).is_err() {
            continue;
        }
        costs.push(
            per_call_s(9, 3, || {
                black_box(Sensitivity::directional(&mut g.game, &g.s, Axis::Mu).expect("regular"));
            }) * 1e6,
        );
    }
    if costs.is_empty() {
        0.0
    } else {
        median(&mut costs)
    }
}

/// `core::best_response` — µs per best response of one provider to the
/// equilibrium profile, through the public grid-scan entry point the
/// default solver iterates.
pub fn best_response_us(games: &mut [Solved]) -> f64 {
    over_games(games, |g| {
        let n = g.game.n();
        per_call_s(5, 1, || {
            for i in 0..n {
                black_box(best_response(&g.game, i, &g.s, &BrConfig::default()).expect("br"));
            }
        }) * 1e6
            / n as f64
    })
}

/// `core::nash` — p50 and p99 µs of the warm re-solves along a chain of
/// games, each started from the previous game's equilibrium (the first
/// solve only seeds the chain and is not timed).
pub fn solve_quantiles_us(chain: &[SubsidyGame]) -> (f64, f64) {
    let solver = NashSolver::default().with_tol(1e-10);
    let mut ws = SolveWorkspace::new();
    let mut times = Vec::with_capacity(chain.len());
    for (k, game) in chain.iter().enumerate() {
        let start = if k == 0 { WarmStart::Zero } else { WarmStart::Previous };
        let t = Instant::now();
        black_box(solver.solve_into(game, start, &mut ws).expect("solve"));
        if k > 0 {
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    crate::stats::p50_p99(times)
}

/// `core::snapshot` — ns per `read_cached` of a published market.
pub fn index_read_ns(server: &mut ShardedServer, market: u64) -> Result<f64, String> {
    if server.read_cached(market).is_none() {
        server.serve(market, Request::Equilibrium).map_err(|e| e.to_string())?;
    }
    if server.read_cached(market).is_none() {
        return Err(format!("market {market} published nothing"));
    }
    Ok(per_call_s(15, 2000, || {
        black_box(server.read_cached(black_box(market)));
    }) * 1e9)
}

/// `exp::server::sharded` — µs of one shard round trip: a cached read
/// through the owning shard (`serve_direct`, a cache hit) minus the same
/// cache hit on an in-process `EquilibriumServer` over the same game.
pub fn roundtrip_us(
    server: &mut ShardedServer,
    market: u64,
    game: &SubsidyGame,
) -> Result<f64, String> {
    let direct = |server: &mut ShardedServer| -> Result<Source, String> {
        match server.serve_direct(market, Request::Equilibrium).map_err(|e| e.to_string())? {
            Reply::Equilibrium { source, .. } => Ok(source),
            other => Err(format!("unexpected reply {other:?}")),
        }
    };
    direct(server)?;
    if direct(server)? != Source::CacheHit {
        return Err("the shard did not answer its cached read from the cache".into());
    }
    let mut local = EquilibriumServer::new(game.clone(), 2, 64);
    local.equilibrium().map_err(|e| e.to_string())?;
    let mut shard_err = None;
    let through_shard = per_call_s(15, 40, || {
        if let Err(e) = direct(server) {
            shard_err = Some(e);
        }
    });
    if let Some(e) = shard_err {
        return Err(e);
    }
    let in_process = per_call_s(15, 40, || {
        black_box(local.equilibrium().expect("cached"));
    });
    Ok((through_shard - in_process) * 1e6)
}

/// `sim::adoption` — ns per user of one `step_population` tick on a
/// population of `users` users over the §5 types, driven at `drive`.
pub fn ns_per_user(users: usize, hazards: AdoptionParams, drive: &TickDrive) -> f64 {
    let types: Vec<TypeSpec> =
        section5_specs().iter().map(|s| TypeSpec { mass: s.m0, alpha: s.alpha }).collect();
    let mut pop = Population::build(&types, users, 16_384, hazards).expect("valid population");
    per_call_s(9, 1, || step_population(&mut pop, 1, drive).expect("valid drive")) * 1e9
        / users as f64
}

/// A drive taken from a served equilibrium, as the adoption loop forms it.
pub fn drive_from(snap: &EqSnapshot, price: f64, gamma: f64) -> TickDrive {
    TickDrive {
        t_eff: snap.subsidies().iter().map(|s| (price - s).max(0.0)).collect(),
        gain: snap.state().theta_i.iter().map(|t| 1.0 + gamma * t).collect(),
    }
}
