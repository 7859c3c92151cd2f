//! Million-user adoption dynamics under network externalities
//! (Weber–Guérin cost-subsidization dynamics, PAPERS.md).
//!
//! The paper's demand side is static: a mass `m_i(t_i) = m⁰_i e^{-α_i t_i}`
//! of users adopts CP `i` at the discounted price `t_i = p − s_i`. This
//! module makes that mass *emergent*: a population of `N` heterogeneous
//! users (millions), each with a CP type and a private valuation
//! `v ~ Exp(α_i)`, adopts and churns tick by tick under
//! externality-dependent hazards. A user's per-tick surplus is
//!
//! ```text
//! surplus = v · gain_i − t_eff_i
//! ```
//!
//! where `gain_i` is the network-externality multiplier for type `i`
//! (typically `1 + γ·θ_i` from a served equilibrium snapshot) and
//! `t_eff_i` the effective price. Idle users adopt with probability
//! [`AdoptionParams::adopt`] when surplus is positive (and
//! [`AdoptionParams::explore`] otherwise); adopters drop with probability
//! [`AdoptionParams::churn`] when surplus is non-positive (and
//! [`AdoptionParams::decay`] otherwise). In the default
//! explore = decay = 0 regime the stationary state of a user is exactly
//! `indicator(v·gain > t_eff)`, so the expected adopted mass of type `i`
//! is `m⁰_i e^{-α_i t_eff_i / gain_i}` — the paper's demand curve — which
//! is what the large-N cross-validation against `model/continuum.rs`
//! pins (`tests/adoption_tier.rs`).
//!
//! # Engine layout and the determinism contract
//!
//! The population is a structure of arrays split into fixed-size
//! [`Block`]s (per-field `uid`/`valuation`/`state` arrays). Within each
//! block users are **counting-sorted by CP type** at build time and the
//! per-type runs recorded as segments, so the inner tick loop hoists the
//! per-type drive out of the loop and runs branch-light over each
//! segment (the state flip is a XOR, the hazard pick a table index —
//! autovectorizable, no data-dependent branches).
//!
//! Per-tick randomness uses a **two-level counter scheme** over
//! [`SimRng::stream_seed`] instead of sequential generator state: each
//! tick derives `key = stream_seed(tick_root, tick)` and each user's
//! draw is the avalanche `h = stream_seed(key, uid)`, compared against a
//! precomputed `u64` threshold (`p·2⁶⁴`). A user's trajectory is
//! therefore a pure function of `(seed, uid, drive history)` —
//! independent of block layout and of which thread steps which block —
//! so results are **bit-identical across thread counts and chunk
//! sizes**. Per-type adopter tallies are integer counts scaled by the
//! constant per-user mass quantum, which makes the aggregated masses
//! exact and summation-order-free.
//!
//! After [`Population::build`], a tick performs **zero heap
//! allocations** (pinned in `tests/alloc_free.rs`). Blocks are owned,
//! disjoint chunks, so the parallel driver in `subcomp-exp`
//! (`exp::adoption::step_population`) fans them out over
//! `sweep::parallel_map` without sharing or locking.

use crate::rng::SimRng;
use subcomp_num::{NumError, NumResult};

/// Stream index deriving the build-time (type + valuation) randomness.
const BUILD_STREAM: u64 = 0xAD0B_0001;
/// Stream index deriving the per-tick hazard randomness.
const TICK_STREAM: u64 = 0xAD0B_0002;
/// Stream index separating the valuation draw from the type draw.
const VALUATION_STREAM: u64 = 0xAD0B_0003;

/// Top 53 bits of an avalanched hash as a uniform in `[0, 1)`.
#[inline]
fn u01(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A per-tick probability as a `u64` firing threshold: the event fires
/// iff the user's 64-bit hash is strictly below it. `p = 0` never fires;
/// `p = 1` maps to `u64::MAX` (misses only the single all-ones hash, a
/// 2⁻⁶⁴ corner the tolerance tiers absorb).
#[inline]
fn threshold(p: f64) -> u64 {
    if p <= 0.0 {
        0
    } else if p >= 1.0 {
        u64::MAX
    } else {
        (p * (u64::MAX as f64 + 1.0)) as u64
    }
}

/// One user type: the discretized counterpart of a CP's demand curve
/// (`m⁰` total mass, valuations `v ~ Exp(α)` — so the stationary adopted
/// mass at effective price `t` is `m⁰ e^{-αt}`, Assumption 2's form).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypeSpec {
    /// Total user mass of the type (the paper's `m⁰_i`); must be positive.
    pub mass: f64,
    /// Valuation rate (the paper's demand elasticity `α_i`); must be positive.
    pub alpha: f64,
}

impl TypeSpec {
    /// Expected stationary adopted mass at effective price `t_eff` under
    /// externality gain `gain`, in the explore = decay = 0 regime:
    /// `m⁰ · P(v·gain > t_eff) = m⁰ e^{-α·t_eff/gain}` (all of `m⁰` when
    /// the surplus is positive for free). This is the analytic target of
    /// the large-N cross-validation.
    pub fn stationary_mass(&self, t_eff: f64, gain: f64) -> f64 {
        if !(gain > 0.0) {
            return 0.0;
        }
        let cut = t_eff / gain;
        if cut <= 0.0 {
            self.mass
        } else {
            self.mass * (-self.alpha * cut).exp()
        }
    }
}

/// Hazard configuration for the adoption process. All four rates are
/// per-tick probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdoptionParams {
    /// Master seed; the only source of randomness.
    pub seed: u64,
    /// P(idle → adopted) per tick when surplus is positive.
    pub adopt: f64,
    /// P(idle → adopted) per tick when surplus is non-positive
    /// (exploration noise; 0 makes the positive-surplus set absorbing).
    pub explore: f64,
    /// P(adopted → idle) per tick when surplus is non-positive.
    pub churn: f64,
    /// P(adopted → idle) per tick when surplus is positive
    /// (spontaneous decay; 0 makes adoption sticky under surplus).
    pub decay: f64,
}

impl Default for AdoptionParams {
    /// The deterministic-relaxation regime: adopt/churn at rate 1, no
    /// exploration or decay — one tick reaches the stationary indicator
    /// state, which is what the continuum cross-check uses.
    fn default() -> Self {
        AdoptionParams { seed: 0, adopt: 1.0, explore: 0.0, churn: 1.0, decay: 0.0 }
    }
}

impl AdoptionParams {
    fn validate(&self) -> NumResult<()> {
        for (what, p) in [
            ("adopt rate must be a probability in [0, 1]", self.adopt),
            ("explore rate must be a probability in [0, 1]", self.explore),
            ("churn rate must be a probability in [0, 1]", self.churn),
            ("decay rate must be a probability in [0, 1]", self.decay),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(NumError::Domain { what, value: p });
            }
        }
        Ok(())
    }

    /// Firing thresholds indexed by `(state << 1) | (surplus > 0)`:
    /// `[explore, adopt, churn, decay]`.
    fn thresholds(&self) -> [u64; 4] {
        [
            threshold(self.explore),
            threshold(self.adopt),
            threshold(self.churn),
            threshold(self.decay),
        ]
    }
}

/// Per-type drive for one tick: the externality term read from the
/// served equilibrium snapshot. Lengths must match the population's
/// type count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickDrive {
    /// Effective price `t_eff_i` per type (typically `max(p − s_i, 0)`).
    pub t_eff: Vec<f64>,
    /// Externality gain `gain_i` per type (typically `1 + γ·θ_i`);
    /// must be non-negative.
    pub gain: Vec<f64>,
}

impl TickDrive {
    /// A uniform drive: every type at effective price `t`, unit gain.
    pub fn uniform(n_types: usize, t: f64) -> TickDrive {
        TickDrive { t_eff: vec![t; n_types], gain: vec![1.0; n_types] }
    }
}

/// One contiguous type-sorted run inside a [`Block`].
#[derive(Debug, Clone, Copy)]
struct Seg {
    /// CP type of every user in the run.
    cp: u32,
    /// First index of the run within the block's arrays.
    start: u32,
    /// Run length.
    len: u32,
}

/// Precomputed per-tick constants handed to every block step: the tick's
/// counter key and the four hazard thresholds. `Copy`, so the parallel
/// driver shares it by value.
#[derive(Debug, Clone, Copy)]
pub struct TickCtx {
    key: u64,
    thresholds: [u64; 4],
}

/// One owned, fixed-size chunk of the user population (structure of
/// arrays, counting-sorted by CP type). Blocks partition the uid space
/// into contiguous ranges; stepping a block touches no memory outside
/// it, which is what lets the parallel driver hand each block to a
/// worker with no sharing.
#[derive(Debug, Clone)]
pub struct Block {
    /// Global user ids (scrambled within the block by the type sort).
    uid: Vec<u64>,
    /// Private valuations `v`, aligned with `uid`.
    valuation: Vec<f64>,
    /// Adoption state (0 idle, 1 adopted), aligned with `uid`.
    state: Vec<u8>,
    /// Type-sorted runs covering the block.
    segs: Vec<Seg>,
    /// Per-type adopter tallies after the last step.
    counts: Vec<u64>,
}

impl Block {
    /// Advances every user in the block by one tick and refreshes the
    /// block's per-type adopter tallies. Allocation-free; pure in
    /// `(ctx, drive)` and the block's own arrays.
    pub fn step(&mut self, ctx: &TickCtx, drive: &TickDrive) {
        for c in self.counts.iter_mut() {
            *c = 0;
        }
        for seg in &self.segs {
            let t = seg.cp as usize;
            let t_eff = drive.t_eff[t];
            let gain = drive.gain[t];
            let lo = seg.start as usize;
            let hi = lo + seg.len as usize;
            let mut adopted = 0u64;
            for j in lo..hi {
                let surplus = self.valuation[j] * gain - t_eff;
                let st = self.state[j];
                let idx = ((st as usize) << 1) | usize::from(surplus > 0.0);
                let h = SimRng::stream_seed(ctx.key, self.uid[j]);
                let fire = u8::from(h < ctx.thresholds[idx]);
                let ns = st ^ fire;
                self.state[j] = ns;
                adopted += u64::from(ns);
            }
            self.counts[t] += adopted;
        }
    }

    /// Number of users in the block.
    pub fn len(&self) -> usize {
        self.uid.len()
    }

    /// Whether the block is empty (never true for built populations).
    pub fn is_empty(&self) -> bool {
        self.uid.is_empty()
    }
}

/// A structure-of-arrays user population stepping under adoption/churn
/// hazards. See the module docs for the layout and the determinism
/// contract.
#[derive(Debug, Clone)]
pub struct Population {
    types: Vec<TypeSpec>,
    params: AdoptionParams,
    thresholds: [u64; 4],
    tick_root: u64,
    n_users: usize,
    unit: f64,
    tick: u64,
    blocks: Vec<Block>,
    masses: Vec<f64>,
    adopted: u64,
}

impl Population {
    /// Builds a population of `n_users` users over the given types,
    /// split into blocks of `chunk` users (the last block may be
    /// shorter). Each user's type is drawn proportionally to the type
    /// mass shares and its valuation from `Exp(α_type)`, both as pure
    /// functions of `(params.seed, uid)` — so two builds with different
    /// chunk sizes hold bit-identical user sets, just partitioned
    /// differently.
    pub fn build(
        types: &[TypeSpec],
        n_users: usize,
        chunk: usize,
        params: AdoptionParams,
    ) -> NumResult<Population> {
        if types.is_empty() || types.len() > u32::MAX as usize {
            return Err(NumError::Domain {
                what: "adoption population needs between 1 and u32::MAX types",
                value: types.len() as f64,
            });
        }
        if n_users == 0 {
            return Err(NumError::Domain {
                what: "adoption population must have at least one user",
                value: 0.0,
            });
        }
        if chunk == 0 || chunk > u32::MAX as usize {
            return Err(NumError::Domain {
                what: "adoption chunk size must be in [1, u32::MAX]",
                value: chunk as f64,
            });
        }
        params.validate()?;
        let mut total = 0.0;
        for ty in types {
            if !(ty.mass > 0.0) || !ty.mass.is_finite() {
                return Err(NumError::Domain {
                    what: "type mass must be positive and finite",
                    value: ty.mass,
                });
            }
            if !(ty.alpha > 0.0) || !ty.alpha.is_finite() {
                return Err(NumError::Domain {
                    what: "type alpha must be positive and finite",
                    value: ty.alpha,
                });
            }
            total += ty.mass;
        }
        // Cumulative mass shares for the proportional type draw.
        let mut cum = Vec::with_capacity(types.len());
        let mut acc = 0.0;
        for ty in types {
            acc += ty.mass / total;
            cum.push(acc);
        }
        let n_types = types.len();
        let build_key = SimRng::stream_seed(params.seed, BUILD_STREAM);
        // Type of user `uid` as a pure function of the seed: shared by
        // the counting pass and the scatter pass below.
        let type_of = |uid: u64| -> usize {
            let u = u01(SimRng::stream_seed(build_key, uid));
            cum.iter().position(|&c| u < c).unwrap_or(n_types - 1)
        };
        let mut blocks = Vec::with_capacity(n_users.div_ceil(chunk));
        let mut offsets = vec![0usize; n_types + 1];
        for block_start in (0..n_users).step_by(chunk) {
            let block_len = chunk.min(n_users - block_start);
            // Counting sort by type: count, prefix, scatter.
            offsets.iter_mut().for_each(|o| *o = 0);
            for uid in block_start..block_start + block_len {
                offsets[type_of(uid as u64) + 1] += 1;
            }
            for t in 0..n_types {
                offsets[t + 1] += offsets[t];
            }
            let mut segs = Vec::new();
            for t in 0..n_types {
                let len = offsets[t + 1] - offsets[t];
                if len > 0 {
                    segs.push(Seg { cp: t as u32, start: offsets[t] as u32, len: len as u32 });
                }
            }
            let mut uid_arr = vec![0u64; block_len];
            let mut val_arr = vec![0.0f64; block_len];
            let mut cursor = offsets.clone();
            for uid in block_start..block_start + block_len {
                let uid = uid as u64;
                let h = SimRng::stream_seed(build_key, uid);
                let t = type_of(uid);
                let slot = cursor[t];
                cursor[t] += 1;
                let uv = u01(SimRng::stream_seed(h, VALUATION_STREAM));
                uid_arr[slot] = uid;
                val_arr[slot] = -(1.0 - uv).ln() / types[t].alpha;
            }
            blocks.push(Block {
                uid: uid_arr,
                valuation: val_arr,
                state: vec![0u8; block_len],
                segs,
                counts: vec![0u64; n_types],
            });
        }
        Ok(Population {
            types: types.to_vec(),
            thresholds: params.thresholds(),
            tick_root: SimRng::stream_seed(params.seed, TICK_STREAM),
            params,
            n_users,
            unit: total / n_users as f64,
            tick: 0,
            blocks,
            masses: vec![0.0; n_types],
            adopted: 0,
        })
    }

    /// Validates the drive against this population and opens the next
    /// tick: bumps the tick counter and returns the per-tick context for
    /// [`Block::step`]. Split from [`Population::step`] so a parallel
    /// driver can fan [`Population::blocks_mut`] out itself; call
    /// [`Population::refresh_masses`] once every block has stepped.
    pub fn prepare_tick(&mut self, drive: &TickDrive) -> NumResult<TickCtx> {
        let n = self.types.len();
        if drive.t_eff.len() != n {
            return Err(NumError::DimensionMismatch { expected: n, actual: drive.t_eff.len() });
        }
        if drive.gain.len() != n {
            return Err(NumError::DimensionMismatch { expected: n, actual: drive.gain.len() });
        }
        for &t in &drive.t_eff {
            if !t.is_finite() {
                return Err(NumError::Domain { what: "tick drive t_eff must be finite", value: t });
            }
        }
        for &g in &drive.gain {
            if !(g >= 0.0) || !g.is_finite() {
                return Err(NumError::Domain {
                    what: "tick drive gain must be non-negative and finite",
                    value: g,
                });
            }
        }
        self.tick += 1;
        Ok(TickCtx {
            key: SimRng::stream_seed(self.tick_root, self.tick),
            thresholds: self.thresholds,
        })
    }

    /// The owned, disjoint blocks — the unit of parallel distribution.
    pub fn blocks_mut(&mut self) -> &mut [Block] {
        &mut self.blocks
    }

    /// Re-aggregates per-type adopted masses from the block tallies:
    /// integer adopter counts times the constant per-user mass quantum,
    /// so the result is exact and independent of block layout and
    /// summation order. Allocation-free.
    pub fn refresh_masses(&mut self) {
        self.masses.iter_mut().for_each(|m| *m = 0.0);
        let mut adopted = 0u64;
        for block in &self.blocks {
            for (t, &c) in block.counts.iter().enumerate() {
                self.masses[t] += c as f64;
                adopted += c;
            }
        }
        // Integer tallies scale once at the end; counts stay exact in u64.
        for m in self.masses.iter_mut() {
            *m *= self.unit;
        }
        self.adopted = adopted;
    }

    /// Advances the whole population by one tick, serially, and
    /// refreshes the aggregated masses. Zero heap allocations.
    pub fn step(&mut self, drive: &TickDrive) -> NumResult<()> {
        let ctx = self.prepare_tick(drive)?;
        for block in &mut self.blocks {
            block.step(&ctx, drive);
        }
        self.refresh_masses();
        Ok(())
    }

    /// Per-type adopted mass after the last stepped tick.
    pub fn masses(&self) -> &[f64] {
        &self.masses
    }

    /// Total adopted user count after the last stepped tick.
    pub fn adopted_users(&self) -> u64 {
        self.adopted
    }

    /// Fraction of users currently adopted.
    pub fn adopted_fraction(&self) -> f64 {
        self.adopted as f64 / self.n_users as f64
    }

    /// The type specs the population was built over.
    pub fn types(&self) -> &[TypeSpec] {
        &self.types
    }

    /// Hazard configuration.
    pub fn params(&self) -> &AdoptionParams {
        &self.params
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of types.
    pub fn n_types(&self) -> usize {
        self.types.len()
    }

    /// Mass carried by each user (`Σ m⁰ / N`).
    pub fn unit_mass(&self) -> f64 {
        self.unit
    }

    /// Ticks stepped so far.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Expected stationary per-type masses under `drive` in the
    /// explore = decay = 0 regime (see [`TypeSpec::stationary_mass`]).
    pub fn stationary_masses(&self, drive: &TickDrive) -> Vec<f64> {
        self.types
            .iter()
            .enumerate()
            .map(|(t, ty)| ty.stationary_mass(drive.t_eff[t], drive.gain[t]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_types() -> Vec<TypeSpec> {
        vec![TypeSpec { mass: 2.0, alpha: 2.0 }, TypeSpec { mass: 1.0, alpha: 5.0 }]
    }

    #[test]
    fn build_validates_inputs() {
        let p = AdoptionParams::default();
        assert!(Population::build(&[], 10, 4, p).is_err());
        assert!(Population::build(&two_types(), 0, 4, p).is_err());
        assert!(Population::build(&two_types(), 10, 0, p).is_err());
        let bad_mass = vec![TypeSpec { mass: 0.0, alpha: 1.0 }];
        assert!(Population::build(&bad_mass, 10, 4, p).is_err());
        let bad_alpha = vec![TypeSpec { mass: 1.0, alpha: -1.0 }];
        assert!(Population::build(&bad_alpha, 10, 4, p).is_err());
        let bad_rate = AdoptionParams { adopt: 1.5, ..p };
        assert!(Population::build(&two_types(), 10, 4, bad_rate).is_err());
    }

    #[test]
    fn step_validates_drive() {
        let mut pop = Population::build(&two_types(), 100, 32, AdoptionParams::default()).unwrap();
        assert!(pop.step(&TickDrive::uniform(1, 0.1)).is_err());
        let mut bad = TickDrive::uniform(2, 0.1);
        bad.gain[1] = -1.0;
        assert!(pop.step(&bad).is_err());
        let mut nan = TickDrive::uniform(2, 0.1);
        nan.t_eff[0] = f64::NAN;
        assert!(pop.step(&nan).is_err());
    }

    #[test]
    fn masses_are_exact_multiples_of_the_unit() {
        let mut pop =
            Population::build(&two_types(), 10_000, 1024, AdoptionParams::default()).unwrap();
        pop.step(&TickDrive::uniform(2, 0.2)).unwrap();
        let unit = pop.unit_mass();
        let total = pop.adopted_users();
        assert!(total > 0);
        for &m in pop.masses() {
            let users = m / unit;
            assert!((users - users.round()).abs() < 1e-6, "mass {m} not an integer multiple");
        }
    }

    #[test]
    fn chunk_size_does_not_change_the_trajectory() {
        let params = AdoptionParams { seed: 42, adopt: 0.7, churn: 0.6, ..Default::default() };
        let drive = TickDrive::uniform(2, 0.15);
        let run = |chunk: usize| {
            let mut pop = Population::build(&two_types(), 5_000, chunk, params).unwrap();
            for _ in 0..5 {
                pop.step(&drive).unwrap();
            }
            (pop.masses().to_vec(), pop.adopted_users())
        };
        let (m1, a1) = run(5_000);
        for chunk in [1, 7, 128, 1024, 4_999] {
            let (m, a) = run(chunk);
            assert_eq!(m, m1, "chunk {chunk} diverged");
            assert_eq!(a, a1, "chunk {chunk} diverged");
        }
    }

    #[test]
    fn stationary_state_matches_the_demand_curve() {
        // adopt = churn = 1, explore = decay = 0: one tick reaches the
        // indicator state, whose expected mass is m⁰ e^{-α t}.
        let types = two_types();
        let n = 200_000;
        let mut pop =
            Population::build(&types, n, 8_192, AdoptionParams { seed: 9, ..Default::default() })
                .unwrap();
        let drive = TickDrive::uniform(2, 0.3);
        pop.step(&drive).unwrap();
        let expect = pop.stationary_masses(&drive);
        for (t, (&m, &e)) in pop.masses().iter().zip(&expect).enumerate() {
            let rel = (m - e).abs() / e;
            assert!(rel < 0.02, "type {t}: mass {m} vs expected {e} (rel {rel})");
        }
        // A second tick with the same drive is a fixed point: the state
        // is absorbing, so masses must not move at all.
        let before = pop.masses().to_vec();
        pop.step(&drive).unwrap();
        assert_eq!(pop.masses(), &before[..]);
    }

    #[test]
    fn free_service_adopts_everyone_and_churn_drops_them() {
        let types = two_types();
        let mut pop = Population::build(&types, 1_000, 100, AdoptionParams::default()).unwrap();
        pop.step(&TickDrive::uniform(2, -0.5)).unwrap();
        // Negative effective price: everyone has positive surplus.
        assert_eq!(pop.adopted_users(), 1_000);
        let total: f64 = pop.masses().iter().sum();
        let expected: f64 = types.iter().map(|t| t.mass).sum();
        assert!((total - expected).abs() < 1e-9);
        // An unaffordable price churns everyone (v·gain − t_eff < 0 for
        // all finite valuations at gain 0).
        let mut off = TickDrive::uniform(2, 1.0);
        off.gain.iter_mut().for_each(|g| *g = 0.0);
        pop.step(&off).unwrap();
        assert_eq!(pop.adopted_users(), 0);
    }

    #[test]
    fn thresholds_cover_the_edge_probabilities() {
        assert_eq!(threshold(0.0), 0);
        assert_eq!(threshold(-1.0), 0);
        assert_eq!(threshold(1.0), u64::MAX);
        assert_eq!(threshold(2.0), u64::MAX);
        let half = threshold(0.5);
        assert!(half > u64::MAX / 2 - 2 && half < u64::MAX / 2 + 2);
    }

    #[test]
    fn type_shares_follow_the_mass_split() {
        let pop =
            Population::build(&two_types(), 30_000, 30_000, AdoptionParams::default()).unwrap();
        // Type 0 carries 2/3 of the mass; its user share must match.
        let block = &pop.blocks[0];
        let seg0 = block.segs.iter().find(|s| s.cp == 0).unwrap();
        let share = seg0.len as f64 / 30_000.0;
        assert!((share - 2.0 / 3.0).abs() < 0.01, "share {share}");
        // Valuations of type 0 average 1/α = 0.5.
        let lo = seg0.start as usize;
        let hi = lo + seg0.len as usize;
        let mean: f64 = block.valuation[lo..hi].iter().sum::<f64>() / seg0.len as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean valuation {mean}");
    }
}
