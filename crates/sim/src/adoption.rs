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
//! A tick is driven by events, not by users: its cost scales with the
//! flips that can happen.
//!
//! * **Users.** [`Population::build`] draws each uid's type and valuation
//!   from counter hashes of `(seed, uid)`, then sorts each type's 53-bit
//!   valuation keys. Only the keys are kept, so users with equal keys are
//!   interchangeable and any sort yields the same array. From then on a
//!   user is `(type, rank)` and no uid is stored. Per type the engine
//!   keeps the sorted `f64` valuations, which only the split reads, and the
//!   adoption states as a `u64` bitset cut into owned [`Block`]s: 8 bytes
//!   and 1 bit per user.
//! * **Split.** Valuations grow with rank, and correctly rounded multiply
//!   and subtract are monotone, so each type's positive-surplus users are
//!   a suffix of its rank order. [`Population::prepare_tick`] finds it by
//!   `partition_point` on `v·gain − t_eff > 0`, the expression a per-user
//!   loop evaluates, and stores it into each block of the type.
//! * **Samplers.** The four classes — explore (idle, surplus ≤ 0), adopt
//!   (idle, > 0), churn (adopted, ≤ 0) and decay (adopted, > 0) — each
//!   flip with their own probability `p`, by a rule that depends on `p`
//!   alone: nothing at `p = 0`; a word-parallel fill of the class's bits
//!   at `p = 1`; below a cutoff of 1/8, geometric skips over the
//!   positions on the class's surplus side, where a selected position
//!   flips only if its state before the tick is in the class; otherwise
//!   one counter hash per class member, found by bit scan. Flips collect
//!   in a per-range mask and apply after all four classes, so every class
//!   reads the state from before the tick.
//! * **Keys.** Per-user hashes are keyed by `(tick, type, class, rank)`
//!   and skip streams by `(tick, type, class, range)`, where a range is a
//!   canonical run of 4,096 users (64 state words) of a type's rank
//!   order. A block is a whole number of ranges — `chunk` is rounded up to
//!   whole ranges and only sets the parallel grain — so no draw depends on
//!   block, chunk or thread, and trajectories are **bit-identical across
//!   thread counts and chunk sizes** by construction. Per-type adopter
//!   tallies are integer counts scaled by the constant per-user mass
//!   quantum, which makes the aggregated masses exact and
//!   summation-order-free.
//!
//! Every tick also records deterministic work counters
//! ([`Population::tick_counts`]): per-class candidates and flips,
//! per-user hashes and skip draws, summed over blocks.
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
/// Users per canonical range: the unit that keys skip streams and that
/// blocks are made of.
const RANGE: usize = 4096;
/// State words per canonical range.
const RANGE_WORDS: usize = RANGE / 64;
/// Classes with a flip probability below this are skip-sampled; at or
/// above it (and below 1) they draw one hash per member, so no tick
/// costs more than one hash per user.
const SKIP_CUTOFF: f64 = 0.125;

/// Top 53 bits of an avalanched hash as a uniform in `[0, 1)`.
#[inline]
fn u01(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A per-tick probability as a `u64` firing threshold: the event fires
/// iff the user's 64-bit hash is strictly below it. The cast saturates,
/// so `p ≤ 0` maps to 0 and `p ≥ 1` to `u64::MAX`.
#[inline]
fn threshold(p: f64) -> u64 {
    (p * (u64::MAX as f64 + 1.0)) as u64
}

/// How one class draws its flips; chosen from its probability alone.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sampler {
    /// `p = 0`: the class never flips.
    Never,
    /// `0 < p < SKIP_CUTOFF`: geometric skips; holds `1 / ln(1 − p)`.
    Skip(f64),
    /// `SKIP_CUTOFF ≤ p < 1`: one hash per member against this threshold.
    Hash(u64),
    /// `p = 1`: every member flips.
    Always,
}

impl Sampler {
    fn for_rate(p: f64) -> Sampler {
        if p <= 0.0 {
            Sampler::Never
        } else if p >= 1.0 {
            Sampler::Always
        } else if p < SKIP_CUTOFF {
            Sampler::Skip((-p).ln_1p().recip())
        } else {
            Sampler::Hash(threshold(p))
        }
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

    /// The rates in class order: explore, adopt, churn, decay, i.e.
    /// indexed `(adopted << 1) | (surplus > 0)`.
    fn rates(&self) -> [f64; 4] {
        [self.explore, self.adopt, self.churn, self.decay]
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

/// Deterministic work counters of one tick. Per-class arrays are indexed
/// `(adopted << 1) | (surplus > 0)`: explore, adopt, churn, decay.
/// Integers, so they are invariant across thread counts and chunk sizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickCounts {
    /// Users in each class before the tick.
    pub candidates: [u64; 4],
    /// Users of each class that flipped.
    pub flips: [u64; 4],
    /// Per-user counter hashes drawn (hash-sampled classes).
    pub hashes: u64,
    /// Geometric skip draws (skip-sampled classes).
    pub skip_draws: u64,
}

impl TickCounts {
    /// Adds `other`'s counters into these.
    pub fn add(&mut self, other: &TickCounts) {
        for c in 0..4 {
            self.candidates[c] += other.candidates[c];
            self.flips[c] += other.flips[c];
        }
        self.hashes += other.hashes;
        self.skip_draws += other.skip_draws;
    }
}

/// Precomputed per-tick constants handed to every block step: the tick's
/// counter key and the four class samplers. `Copy`, so the parallel
/// driver shares it by value.
#[derive(Debug, Clone, Copy)]
pub struct TickCtx {
    key: u64,
    samplers: [Sampler; 4],
}

/// One owned run of whole canonical ranges of one type's rank order:
/// the adoption states as a bitset plus the tick's surplus split.
/// Stepping a block touches no memory outside it, which is what lets the
/// parallel driver hand each block to a worker with no sharing.
#[derive(Debug, Clone)]
pub struct Block {
    /// CP type of every user in the block.
    cp: usize,
    /// Rank of the block's first user in its type's order (a multiple of
    /// the range size).
    start: usize,
    /// Users in the block.
    len: usize,
    /// Block-local index of the first positive-surplus user, stored by
    /// [`Population::prepare_tick`].
    split: usize,
    /// Adoption states, bit `i` of word `i / 64` for local user `i`.
    state: Vec<u64>,
    /// Adopters after the last step.
    adopted: u64,
    /// Work counters of the last step.
    counts: TickCounts,
}

/// The bits of state word `w` whose range-local positions lie in `[a, b)`.
#[inline]
fn span_mask(w: usize, a: usize, b: usize) -> u64 {
    let lo = a.max(w * 64);
    let hi = b.min(w * 64 + 64);
    if lo >= hi {
        return 0;
    }
    let ones = if hi - lo == 64 { u64::MAX } else { (1u64 << (hi - lo)) - 1 };
    ones << (lo - w * 64)
}

impl Block {
    /// Advances every user in the block by one tick and refreshes the
    /// block's adopter tally and work counters. Allocation-free; pure in
    /// `ctx`, the block's states and the split the tick's
    /// [`Population::prepare_tick`] stored.
    pub fn step(&mut self, ctx: &TickCtx) {
        let type_key = SimRng::stream_seed(ctx.key, self.cp as u64);
        let mut counts = TickCounts::default();
        let mut adopted = 0u64;
        let mut flips = [0u64; RANGE_WORDS];
        for (r, words) in self.state.chunks_mut(RANGE_WORDS).enumerate() {
            let lo = r * RANGE;
            let len = RANGE.min(self.len - lo);
            let split = self.split.clamp(lo, lo + len) - lo;
            let flips = &mut flips[..words.len()];
            flips.fill(0);
            // Class sizes before the tick, from the adopters on each side.
            let held: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
            let below: u64 = (0..split.div_ceil(64))
                .map(|w| u64::from((words[w] & span_mask(w, 0, split)).count_ones()))
                .sum();
            let (n_neg, n_pos) = (split as u64, (len - split) as u64);
            let sizes = [n_neg - below, n_pos - (held - below), below, held - below];
            for (class, &sampler) in ctx.samplers.iter().enumerate() {
                let candidates = sizes[class];
                counts.candidates[class] += candidates;
                if candidates == 0 {
                    continue;
                }
                let adopters = class >> 1 == 1;
                let (a, b) = if class & 1 == 1 { (split, len) } else { (0, split) };
                let member = |w: usize| {
                    let bits = if adopters { words[w] } else { !words[w] };
                    bits & span_mask(w, a, b)
                };
                let span = a / 64..b.div_ceil(64);
                let flipped = match sampler {
                    Sampler::Never => 0,
                    Sampler::Always => {
                        for w in span {
                            flips[w] |= member(w);
                        }
                        candidates
                    }
                    Sampler::Hash(threshold) => {
                        let key = SimRng::stream_seed(type_key, class as u64);
                        let first = (self.start + lo) as u64;
                        counts.hashes += candidates;
                        let mut flipped = 0;
                        for w in span {
                            let mut bits = member(w);
                            let mut fired = 0u64;
                            while bits != 0 {
                                let bit = bits.trailing_zeros();
                                let rank = first + (w * 64) as u64 + u64::from(bit);
                                // Branch-free: at p near 1/2 a branch here
                                // mispredicts every other member.
                                let fire = SimRng::stream_seed(key, rank) < threshold;
                                fired |= u64::from(fire) << bit;
                                bits &= bits - 1;
                            }
                            flips[w] |= fired;
                            flipped += u64::from(fired.count_ones());
                        }
                        flipped
                    }
                    Sampler::Skip(inv_ln_keep) => {
                        let range = ((self.start + lo) / RANGE) as u64;
                        let key = SimRng::stream_seed(
                            SimRng::stream_seed(type_key, 4 + class as u64),
                            range,
                        );
                        let (mut pos, mut draws, mut flipped) = (a, 0u64, 0);
                        loop {
                            // Failures before the next selected position:
                            // Geometric(p) by inversion of `u ∈ (0, 1]`.
                            let h = SimRng::stream_seed(key, draws);
                            draws += 1;
                            let u = ((h >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
                            // The cast saturates, so a huge gap ends the span.
                            let gap = (u.ln() * inv_ln_keep) as usize;
                            if gap >= b - pos {
                                break;
                            }
                            pos += gap;
                            let (w, bit) = (pos / 64, pos % 64);
                            let hit = (words[w] >> bit) & 1 == u64::from(adopters);
                            flips[w] |= u64::from(hit) << bit;
                            flipped += u64::from(hit);
                            pos += 1;
                        }
                        counts.skip_draws += draws;
                        flipped
                    }
                };
                counts.flips[class] += flipped;
            }
            for (word, &flip) in words.iter_mut().zip(flips.iter()) {
                *word ^= flip;
                adopted += u64::from(word.count_ones());
            }
        }
        self.adopted = adopted;
        self.counts = counts;
    }

    /// Number of users in the block.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block is empty (never true for built populations).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A bitset user population stepping under adoption/churn hazards. See
/// the module docs for the layout and the determinism contract.
#[derive(Debug, Clone)]
pub struct Population {
    types: Vec<TypeSpec>,
    params: AdoptionParams,
    samplers: [Sampler; 4],
    tick_root: u64,
    n_users: usize,
    unit: f64,
    tick: u64,
    /// Every user's valuation, type-major, each type's run ascending.
    valuations: Vec<f64>,
    /// Type `t`'s users are `valuations[offsets[t]..offsets[t + 1]]`.
    offsets: Vec<usize>,
    blocks: Vec<Block>,
    masses: Vec<f64>,
    adopted: u64,
    counts: TickCounts,
}

impl Population {
    /// Builds a population of `n_users` users over the given types. Each
    /// user's type is drawn proportionally to the type mass shares and
    /// its valuation from `Exp(α_type)`, both as pure functions of
    /// `(params.seed, uid)`; each type's users are then ordered by
    /// valuation. The states are cut into blocks of `chunk` users rounded
    /// up to whole ranges (a type's last block may be shorter), so the
    /// chunk size sets the parallel grain and nothing else.
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
        // Type of the user whose build hash is `h`: the first type whose
        // cumulative share exceeds `u`. `cum` never decreases, so that is
        // the count of shares at or below `u`, taken without a branch.
        let type_of = |h: u64| -> usize {
            let u = u01(h);
            cum.iter().filter(|&&c| c <= u).count().min(n_types - 1)
        };
        let mut offsets = vec![0usize; n_types + 1];
        for uid in 0..n_users as u64 {
            offsets[type_of(SimRng::stream_seed(build_key, uid)) + 1] += 1;
        }
        for t in 0..n_types {
            offsets[t + 1] += offsets[t];
        }
        // Each user's 53-bit valuation key, scattered into its type's run,
        // then sorted. No uid rides along, so equal keys are
        // interchangeable and an unstable sort is exact.
        let mut keys = vec![0u64; n_users];
        let mut cursor = offsets[..n_types].to_vec();
        for uid in 0..n_users as u64 {
            let h = SimRng::stream_seed(build_key, uid);
            let t = type_of(h);
            keys[cursor[t]] = SimRng::stream_seed(h, VALUATION_STREAM) >> 11;
            cursor[t] += 1;
        }
        for t in 0..n_types {
            keys[offsets[t]..offsets[t + 1]].sort_unstable();
        }
        // Keys become valuations in place: `Exp(α)` by inversion, the
        // build's one draw per user. The arguments of `ln` are multiples
        // of 2⁻⁵³ whose logs lie more than 1.3 ulps apart, wider than twice
        // the error of a faithfully rounded `ln`, so valuations never
        // decrease along a type's run and the tick's split is exact.
        let mut t = 0;
        let mut i = 0;
        let valuations: Vec<f64> = keys
            .into_iter()
            .map(|k| {
                while i == offsets[t + 1] {
                    t += 1;
                }
                i += 1;
                let u = k as f64 * (1.0 / (1u64 << 53) as f64);
                -(1.0 - u).ln() / types[t].alpha
            })
            .collect();
        debug_assert!(
            (0..n_types)
                .all(|t| valuations[offsets[t]..offsets[t + 1]].windows(2).all(|w| w[0] <= w[1])),
            "valuations must be sorted within each type"
        );
        let grain = chunk.div_ceil(RANGE) * RANGE;
        let mut blocks = Vec::new();
        for t in 0..n_types {
            let users = offsets[t + 1] - offsets[t];
            for start in (0..users).step_by(grain) {
                let len = grain.min(users - start);
                blocks.push(Block {
                    cp: t,
                    start,
                    len,
                    split: 0,
                    state: vec![0u64; len.div_ceil(64)],
                    adopted: 0,
                    counts: TickCounts::default(),
                });
            }
        }
        Ok(Population {
            types: types.to_vec(),
            samplers: params.rates().map(Sampler::for_rate),
            tick_root: SimRng::stream_seed(params.seed, TICK_STREAM),
            params,
            n_users,
            unit: total / n_users as f64,
            tick: 0,
            valuations,
            offsets,
            blocks,
            masses: vec![0.0; n_types],
            adopted: 0,
            counts: TickCounts::default(),
        })
    }

    /// Validates the drive against this population and opens the next
    /// tick: bumps the tick counter, stores each type's surplus split
    /// into its blocks and returns the per-tick context for
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
        for block in &mut self.blocks {
            let (t_eff, gain) = (drive.t_eff[block.cp], drive.gain[block.cp]);
            let first = self.offsets[block.cp] + block.start;
            block.split = self.valuations[first..first + block.len]
                .partition_point(|&v| !(v * gain - t_eff > 0.0));
        }
        self.tick += 1;
        Ok(TickCtx { key: SimRng::stream_seed(self.tick_root, self.tick), samplers: self.samplers })
    }

    /// The owned, disjoint blocks — the unit of parallel distribution.
    pub fn blocks_mut(&mut self) -> &mut [Block] {
        &mut self.blocks
    }

    /// Re-aggregates per-type adopted masses and the tick's work counters
    /// from the blocks: integer adopter counts times the constant
    /// per-user mass quantum, so the result is exact and independent of
    /// block layout and summation order. Allocation-free.
    pub fn refresh_masses(&mut self) {
        self.masses.iter_mut().for_each(|m| *m = 0.0);
        let mut adopted = 0u64;
        let mut counts = TickCounts::default();
        for block in &self.blocks {
            self.masses[block.cp] += block.adopted as f64;
            adopted += block.adopted;
            counts.add(&block.counts);
        }
        // Integer tallies scale once at the end; counts stay exact in u64.
        for m in self.masses.iter_mut() {
            *m *= self.unit;
        }
        self.adopted = adopted;
        self.counts = counts;
    }

    /// Advances the whole population by one tick, serially, and
    /// refreshes the aggregated masses. Zero heap allocations.
    pub fn step(&mut self, drive: &TickDrive) -> NumResult<()> {
        let ctx = self.prepare_tick(drive)?;
        for block in &mut self.blocks {
            block.step(&ctx);
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

    /// Work counters of the last stepped tick, summed over blocks.
    pub fn tick_counts(&self) -> TickCounts {
        self.counts
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
        // 60k users over two types: each type spans several canonical
        // ranges, so the chunk sizes below cut it into different blocks.
        // Every sampler path runs: skips (explore, decay), hashes (adopt,
        // churn).
        let params =
            AdoptionParams { seed: 42, adopt: 0.7, churn: 0.6, explore: 0.05, decay: 0.03 };
        let drive = TickDrive::uniform(2, 0.15);
        let run = |chunk: usize| {
            let mut pop = Population::build(&two_types(), 60_000, chunk, params).unwrap();
            let mut counts = Vec::new();
            for _ in 0..5 {
                pop.step(&drive).unwrap();
                counts.push(pop.tick_counts());
            }
            (pop.masses().to_vec(), pop.adopted_users(), counts)
        };
        let reference = run(60_000);
        for chunk in [1, 4_096, 4_097, 12_289] {
            let pop = Population::build(&two_types(), 60_000, chunk, params).unwrap();
            assert!(pop.blocks.len() > 2, "chunk {chunk} must cut the types into blocks");
            assert_eq!(run(chunk), reference, "chunk {chunk} diverged");
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
        // The deterministic regime is two fills and no draws.
        let counts = pop.tick_counts();
        assert_eq!((counts.hashes, counts.skip_draws), (0, 0));
        assert_eq!(counts.flips, [0; 4]);
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
    fn samplers_depend_only_on_the_rate() {
        assert_eq!(Sampler::for_rate(0.0), Sampler::Never);
        assert_eq!(Sampler::for_rate(1.0), Sampler::Always);
        assert!(matches!(Sampler::for_rate(0.02), Sampler::Skip(l) if l < 0.0));
        assert!(matches!(Sampler::for_rate(SKIP_CUTOFF), Sampler::Hash(_)));
        assert!(matches!(Sampler::for_rate(0.5), Sampler::Hash(t) if t == threshold(0.5)));
    }

    #[test]
    fn type_shares_follow_the_mass_split() {
        let pop =
            Population::build(&two_types(), 30_000, 30_000, AdoptionParams::default()).unwrap();
        // Type 0 carries 2/3 of the mass; its user share must match.
        let (lo, hi) = (pop.offsets[0], pop.offsets[1]);
        let share = (hi - lo) as f64 / 30_000.0;
        assert!((share - 2.0 / 3.0).abs() < 0.01, "share {share}");
        // Valuations of type 0 average 1/α = 0.5 and are sorted.
        let vals = &pop.valuations[lo..hi];
        let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean valuation {mean}");
        assert!(vals.windows(2).all(|w| w[0] <= w[1]));
    }
}
