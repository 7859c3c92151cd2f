//! Adoption tier: the contracts of the million-user event-driven
//! adoption engine and the closed simulate → warm-resolve loop (see
//! `tests/README.md` for the tier's tolerance policy).
//!
//! Five legs:
//!
//! 1. **Determinism** — trajectories are *bit-identical* across thread
//!    counts, chunk sizes and shard counts, and cohorts are isolated
//!    (a cohort's trajectory does not depend on which other cohorts run
//!    beside it). These are exact `assert_eq` checks: the engine keys its
//!    counter-mode draws by `(tick, type, class, rank)` and its skip
//!    streams by `(tick, type, class, range)`, never by block or thread,
//!    and aggregates in integer adopter counts, so there is no tolerance
//!    to negotiate.
//! 2. **Oracle** — [`Reference`] is the per-user law the engine replaced:
//!    every user keyed by uid, one hash per user per tick. In the
//!    deterministic regime (adopt = churn = 1, explore = decay = 0) its
//!    masses equal the engine's bit for bit on every tick, across
//!    changing drives; in a mixing regime both agree in time-averaged
//!    adopted counts with each other and with the exact stationary mean.
//! 3. **Sampler law** — per-class flips against `Binomial(candidates, p)`
//!    in regimes that run every sampler path (`p = 0`, skips, hashes,
//!    `p = 1`) with every split inside a word and a range.
//! 4. **Continuum cross-validation** — in the stationary regime
//!    (adopt = churn = 1, no exploration/decay) one tick realizes
//!    `P(adopt) = e^{−α·t_eff/gain}` per type, which is exactly the
//!    paper's exponential demand curve. A large population discretized
//!    from a [`ContinuumMarket`] must land on the quadrature value of
//!    `D(0, p)` within sampling + panel error (relative 2%), and on the
//!    per-type closed form within relative 2% + an absolute floor for
//!    near-extinct types.
//! 5. **Closed loop** — the loop over the sharded server stays on the
//!    warm paths (one cold solve per cohort, warm re-solves, lock-free
//!    externality reads) and replays byte-identically.

use subcomp::exp::adoption::{step_population, AdoptionLoop, LoopConfig};
use subcomp::exp::scenarios::section5_specs;
use subcomp::model::continuum::ContinuumMarket;
use subcomp::sim::adoption::{AdoptionParams, Population, TickCounts, TickDrive, TypeSpec};
use subcomp::sim::rng::SimRng;

fn types() -> Vec<TypeSpec> {
    vec![
        TypeSpec { mass: 1.0, alpha: 2.0 },
        TypeSpec { mass: 0.8, alpha: 5.0 },
        TypeSpec { mass: 1.2, alpha: 1.0 },
    ]
}

#[test]
fn stepping_is_bit_identical_across_threads_and_chunks() {
    // 50k users over three types: each type spans several canonical
    // ranges, so every chunk size below cuts the types differently. The
    // second hazard set runs the skip sampler (explore, decay) beside the
    // hashed one (adopt, churn).
    let hazards = [
        AdoptionParams { seed: 42, adopt: 0.6, churn: 0.3, ..Default::default() },
        AdoptionParams { seed: 43, adopt: 0.6, churn: 0.3, explore: 0.02, decay: 0.05 },
    ];
    let drive = TickDrive::uniform(3, 0.4);
    for params in hazards {
        let run = |chunk: usize, threads: usize| {
            let mut pop = Population::build(&types(), 50_000, chunk, params).unwrap();
            let mut counts = Vec::new();
            for _ in 0..8 {
                step_population(&mut pop, threads, &drive).unwrap();
                counts.push(pop.tick_counts());
            }
            (pop.adopted_users(), pop.masses().to_vec(), counts)
        };
        let reference = run(16_384, 1);
        for (chunk, threads) in
            [(16_384, 4), (16_384, 13), (512, 1), (512, 8), (4_999, 3), (4_097, 2), (12_289, 3)]
        {
            assert_eq!(
                run(chunk, threads),
                reference,
                "chunk {chunk} x threads {threads} changed the trajectory of {params:?}"
            );
        }
    }
}

/// Build-hash stream indices of `sim::adoption` (the user set is part of
/// the engine's contract: the same uids draw the same types and
/// valuations).
const BUILD_STREAM: u64 = 0xAD0B_0001;
const TICK_STREAM: u64 = 0xAD0B_0002;
const VALUATION_STREAM: u64 = 0xAD0B_0003;

/// The per-user adoption law, keyed by uid: each tick every user draws
/// `stream_seed(tick key, uid)` against the threshold of its class. This
/// is the engine the event-driven step replaced, kept as its oracle.
struct Reference {
    cp: Vec<usize>,
    valuation: Vec<f64>,
    adopted: Vec<bool>,
    thresholds: [u64; 4],
    tick_root: u64,
    tick: u64,
    n_types: usize,
    unit: f64,
}

impl Reference {
    fn build(types: &[TypeSpec], n_users: usize, params: AdoptionParams) -> Reference {
        let total: f64 = types.iter().map(|t| t.mass).sum();
        let mut acc = 0.0;
        let cum: Vec<f64> = types
            .iter()
            .map(|t| {
                acc += t.mass / total;
                acc
            })
            .collect();
        let u01 = |h: u64| (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let build_key = SimRng::stream_seed(params.seed, BUILD_STREAM);
        let (mut cp, mut valuation) = (Vec::new(), Vec::new());
        for uid in 0..n_users as u64 {
            let h = SimRng::stream_seed(build_key, uid);
            let t = cum.iter().position(|&c| u01(h) < c).unwrap_or(types.len() - 1);
            cp.push(t);
            let uv = u01(SimRng::stream_seed(h, VALUATION_STREAM));
            valuation.push(-(1.0 - uv).ln() / types[t].alpha);
        }
        let threshold = |p: f64| (p * (u64::MAX as f64 + 1.0)) as u64;
        Reference {
            cp,
            valuation,
            adopted: vec![false; n_users],
            thresholds: [params.explore, params.adopt, params.churn, params.decay].map(threshold),
            tick_root: SimRng::stream_seed(params.seed, TICK_STREAM),
            tick: 0,
            n_types: types.len(),
            unit: total / n_users as f64,
        }
    }

    /// Steps every user once; returns the per-type adopter counts.
    fn step(&mut self, drive: &TickDrive) -> Vec<u64> {
        self.tick += 1;
        let key = SimRng::stream_seed(self.tick_root, self.tick);
        let mut counts = vec![0u64; self.n_types];
        for uid in 0..self.cp.len() {
            let t = self.cp[uid];
            let positive = self.valuation[uid] * drive.gain[t] - drive.t_eff[t] > 0.0;
            let class = (usize::from(self.adopted[uid]) << 1) | usize::from(positive);
            if SimRng::stream_seed(key, uid as u64) < self.thresholds[class] {
                self.adopted[uid] = !self.adopted[uid];
            }
            counts[t] += u64::from(self.adopted[uid]);
        }
        counts
    }

    fn masses(&self, counts: &[u64]) -> Vec<f64> {
        counts.iter().map(|&c| c as f64 * self.unit).collect()
    }

    /// Users of each type with positive surplus under `drive`.
    fn positive(&self, drive: &TickDrive) -> Vec<usize> {
        let mut n = vec![0; self.n_types];
        for (&t, &v) in self.cp.iter().zip(&self.valuation) {
            n[t] += usize::from(v * drive.gain[t] - drive.t_eff[t] > 0.0);
        }
        n
    }

    fn type_sizes(&self) -> Vec<usize> {
        let mut n = vec![0; self.n_types];
        for &t in &self.cp {
            n[t] += 1;
        }
        n
    }
}

#[test]
fn deterministic_regime_matches_the_per_user_oracle_bit_for_bit() {
    let types = types();
    let params = AdoptionParams { seed: 17, ..Default::default() };
    let n_users = 50_000;
    let mut pop = Population::build(&types, n_users, 4_096, params).unwrap();
    let mut oracle = Reference::build(&types, n_users, params);
    let drives = [
        TickDrive::uniform(3, 0.4),
        TickDrive { t_eff: vec![0.1, 0.9, 0.3], gain: vec![1.0, 1.7, 0.6] },
        TickDrive { t_eff: vec![-0.2, 0.05, 1.5], gain: vec![0.0, 1.0, 2.5] },
        TickDrive::uniform(3, 0.4),
        TickDrive { t_eff: vec![0.25, 0.25, 0.0], gain: vec![1.3, 0.9, 1.0] },
    ];
    for drive in drives.iter().cycle().take(10) {
        pop.step(drive).unwrap();
        let counts = oracle.step(drive);
        assert_eq!(pop.masses(), &oracle.masses(&counts)[..], "masses left the oracle");
        assert_eq!(pop.adopted_users(), counts.iter().sum::<u64>());
    }
}

#[test]
fn mixing_regime_matches_the_oracle_and_the_stationary_mean() {
    // perfbench's hazards: every class mixes, explore/decay by skips and
    // adopt/churn by hashes. A two-state chain per user with flip
    // probabilities (in, out) has stationary mean in/(in + out) and lag-1
    // autocorrelation λ = 1 − in − out, so over T stationary ticks a
    // side's summed time average has variance n·π(1 − π)(1 + λ)/((1 − λ)T).
    let (a, c, e, d) = (0.5, 0.5, 0.02, 0.02);
    let params = AdoptionParams { seed: 23, adopt: a, churn: c, explore: e, decay: d };
    let types = types();
    let n_users = 60_000;
    let drive = TickDrive::uniform(3, 0.4);
    let mut pop = Population::build(&types, n_users, 16_384, params).unwrap();
    let mut oracle = Reference::build(&types, n_users, params);
    let (burn_in, ticks) = (40, 300);
    let mut engine_sum = [0u64; 3];
    let mut oracle_sum = [0u64; 3];
    for tick in 0..burn_in + ticks {
        pop.step(&drive).unwrap();
        let counts = oracle.step(&drive);
        if tick >= burn_in {
            for t in 0..3 {
                engine_sum[t] += (pop.masses()[t] / pop.unit_mass()).round() as u64;
                oracle_sum[t] += counts[t];
            }
        }
    }
    let positive = oracle.positive(&drive);
    let sizes = oracle.type_sizes();
    let side_var = |n: usize, inn: f64, out: f64| {
        let (pi, lambda) = (inn / (inn + out), 1.0 - inn - out);
        n as f64 * pi * (1.0 - pi) * (1.0 + lambda) / ((1.0 - lambda) * ticks as f64)
    };
    const Z: f64 = 4.0;
    for t in 0..3 {
        let (np, nn) = (positive[t], sizes[t] - positive[t]);
        let mean = np as f64 * a / (a + d) + nn as f64 * e / (e + c);
        let sd = (side_var(np, a, d) + side_var(nn, e, c)).sqrt();
        let engine = engine_sum[t] as f64 / ticks as f64;
        let reference = oracle_sum[t] as f64 / ticks as f64;
        for (what, z) in [
            ("engine vs stationary mean", (engine - mean) / sd),
            ("oracle vs stationary mean", (reference - mean) / sd),
            ("engine vs oracle", (engine - reference) / (sd * 2f64.sqrt())),
        ] {
            assert!(
                z.abs() < Z,
                "type {t}: {what}: z = {z:.2} (engine {engine:.1}, oracle {reference:.1}, mean {mean:.1})"
            );
        }
    }
}

#[test]
fn per_class_flips_follow_their_binomial_law() {
    // Two regimes between them give every class each sampler path:
    // p = 0 (never), 0.05 (geometric skips), 0.3 (one hash per member)
    // and p = 1 (a fill). The drive alternates, so users cross sides and
    // every class keeps candidates. Flips of a p in (0, 1) class must sit
    // within |z| < 4 of Binomial(candidates, p) summed over ticks; p = 0
    // and p = 1 are exact.
    let types = types();
    let n_users = 40_000;
    let drives = [
        TickDrive { t_eff: vec![0.30, 0.10, 0.55], gain: vec![1.0, 1.0, 1.0] },
        TickDrive { t_eff: vec![0.45, 0.17, 0.80], gain: vec![1.1, 0.9, 1.0] },
    ];
    let oracle =
        Reference::build(&types, n_users, AdoptionParams { seed: 31, ..Default::default() });
    for drive in &drives {
        // Every split falls inside a word, hence inside a range, and
        // every type spans more than two ranges.
        for (t, (&np, &n)) in oracle.positive(drive).iter().zip(&oracle.type_sizes()).enumerate() {
            assert!((n - np) % 64 != 0, "type {t}: split {} on a word boundary", n - np);
            assert!(n > 2 * 4_096, "type {t}: {n} users fit in two ranges");
        }
    }
    let regimes = [[0.05, 1.0, 0.3, 0.0], [0.0, 0.3, 1.0, 0.05]];
    for rates in regimes {
        let [explore, adopt, churn, decay] = rates;
        let params = AdoptionParams { seed: 31, adopt, churn, explore, decay };
        let mut pop = Population::build(&types, n_users, 8_192, params).unwrap();
        let mut total = TickCounts::default();
        let mut before = 0u64;
        for drive in drives.iter().cycle().take(120) {
            pop.step(drive).unwrap();
            let k = pop.tick_counts();
            // Counter identities: every user is a candidate of exactly
            // one class, and the flips account for the adopter change.
            assert_eq!(k.candidates.iter().sum::<u64>(), n_users as u64);
            assert_eq!(k.candidates[2] + k.candidates[3], before);
            let gained = k.flips[0] + k.flips[1];
            assert_eq!(pop.adopted_users() + k.flips[2] + k.flips[3], before + gained);
            before = pop.adopted_users();
            for class in 0..4 {
                total.candidates[class] += k.candidates[class];
                total.flips[class] += k.flips[class];
            }
            total.hashes += k.hashes;
            total.skip_draws += k.skip_draws;
        }
        let mut hashed = 0;
        for (class, &p) in rates.iter().enumerate() {
            let (n, f) = (total.candidates[class] as f64, total.flips[class] as f64);
            assert!(n > 1_000.0, "{rates:?} class {class}: only {n} candidates");
            if p == 0.0 || p == 1.0 {
                assert_eq!(f, p * n, "{rates:?} class {class}: p = {p} must be exact");
                continue;
            }
            if p >= 0.125 {
                hashed += total.candidates[class];
            }
            let z = (f - p * n) / (p * (1.0 - p) * n).sqrt();
            assert!(
                z.abs() < 4.0,
                "{rates:?} class {class}: {f} flips of {n} at p = {p}, z = {z:.2}"
            );
        }
        assert_eq!(total.hashes, hashed, "one hash per member of the hashed class");
        assert!(total.skip_draws > 0, "the skip sampler must run");
    }
}

#[test]
fn stationary_population_matches_the_continuum_demand() {
    // A smooth continuum of types, discretized into the engine's panel.
    let market = ContinuumMarket::new(
        1.0,
        (0.0, 1.0),
        |w| 1.0 + 0.5 * w,
        |w| 1.0 + 3.0 * w,
        |_| 0.0, // no congestion: the engine is driven at phi = 0
        |_| 1.0,
    )
    .unwrap();
    let p = 0.45;
    let demand = market.aggregate_demand(0.0, p).unwrap();
    let specs = market.discretize(16).unwrap();
    let types: Vec<TypeSpec> =
        specs.iter().map(|s| TypeSpec { mass: s.m0, alpha: s.alpha }).collect();

    // Stationary hazards: adopt/churn both certain, so a single tick
    // realizes the indicator demand curve exactly.
    let params = AdoptionParams { seed: 9, ..Default::default() };
    let n_users = 400_000;
    let mut pop = Population::build(&types, n_users, 16_384, params).unwrap();
    let drive = TickDrive::uniform(types.len(), p);
    pop.step(&drive).unwrap();

    let total: f64 = pop.masses().iter().sum();
    let rel = (total - demand).abs() / demand;
    assert!(
        rel < 0.02,
        "sampled stationary demand {total} vs continuum quadrature {demand} (rel {rel:.4})"
    );

    // Per-type agreement with the closed form, and a fixed point: the
    // stationary regime re-derives every user's state from scratch each
    // tick, so a second tick with the same drive moves nothing.
    let expected = pop.stationary_masses(&drive);
    for ((m, e), t) in pop.masses().iter().zip(&expected).zip(&types) {
        let tol = 0.02 * t.mass + 0.005 * pop.unit_mass() * (n_users as f64).sqrt();
        assert!((m - e).abs() < tol, "type mass {m} vs closed form {e} (tol {tol})");
    }
    let first: Vec<f64> = pop.masses().to_vec();
    pop.step(&drive).unwrap();
    assert_eq!(pop.masses(), &first[..], "the stationary regime must be a fixed point");
}

#[test]
fn closed_loop_replays_bit_identically_whatever_the_parallelism() {
    let specs = section5_specs();
    let base = LoopConfig {
        seed: 3,
        cohorts: 2,
        users: 4_000,
        chunk: 1_024,
        threads: 1,
        demand_every: 4,
        ..Default::default()
    };
    let run = |cfg: &LoopConfig| {
        let mut lp = AdoptionLoop::new(&specs, 3.0, 0.6, 0.8, cfg).unwrap();
        lp.run(9).unwrap()
    };
    let reference = run(&base);
    assert_eq!(run(&base), reference, "same config must replay byte-identically");
    for cfg in [
        LoopConfig { threads: 4, ..base.clone() },
        LoopConfig { threads: 32, ..base.clone() },
        LoopConfig { chunk: 333, ..base.clone() },
        LoopConfig { chunk: 7, ..base.clone() },
        LoopConfig { shards: 2, ..base.clone() },
        LoopConfig { threads: 4, chunk: 333, shards: 3, ..base.clone() },
    ] {
        assert_eq!(run(&cfg).checksum, reference.checksum, "parallelism leaked into {cfg:?}");
    }
}

#[test]
fn cohorts_do_not_observe_each_other() {
    let specs = section5_specs();
    let base = LoopConfig { seed: 11, cohorts: 1, users: 3_000, chunk: 512, ..Default::default() };
    let wide = LoopConfig { cohorts: 4, ..base.clone() };
    let mut solo = AdoptionLoop::new(&specs, 3.0, 0.6, 0.8, &base).unwrap();
    let mut crowd = AdoptionLoop::new(&specs, 3.0, 0.6, 0.8, &wide).unwrap();
    solo.run(6).unwrap();
    crowd.run(6).unwrap();
    assert_eq!(
        solo.cohort_masses(0),
        crowd.cohort_masses(0),
        "cohort 0's trajectory depends on its neighbours"
    );
}

#[test]
fn the_loop_rides_the_warm_paths() {
    let specs = section5_specs();
    let cfg = LoopConfig { seed: 5, cohorts: 2, users: 2_000, chunk: 512, ..Default::default() };
    let mut lp = AdoptionLoop::new(&specs, 3.0, 0.6, 0.8, &cfg).unwrap();
    let report = lp.run(6).unwrap();
    let s = report.sources;
    // One cold solve per cohort primes the resident state; every re-solve
    // after starts from the previous equilibrium, and every tick's
    // externality read after the first is absorbed lock-free by the router.
    assert_eq!(s.cold, 2, "exactly one cold solve per cohort: {s:?}");
    assert!(s.warm >= 10, "re-solves must stay warm: {s:?}");
    assert_eq!(s.tangent, 0, "no answer is tangent-seeded: {s:?}");
    assert!(s.lockfree >= 10, "externality reads must go lock-free: {s:?}");
    assert_eq!(s.partial, 0, "no budget starvation in this tier: {s:?}");
    assert!(report.final_adopted > 0, "somebody should adopt");
}
