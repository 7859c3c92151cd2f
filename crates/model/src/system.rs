//! The system `(m, µ)` and its congestion fixed point (Definition 1).
//!
//! Given user populations `m` and capacity `µ`, the system settles at the
//! unique utilization `φ` where supply meets demand:
//!
//! ```text
//! φ = Φ( Σ_k m_k λ_k(φ), µ )      ⇔      g(φ) := Θ(φ, µ) − Σ_k m_k λ_k(φ) = 0
//! ```
//!
//! Lemma 1 shows `g` is strictly increasing with a sign change, so the root
//! is unique. It lies in `[0, Φ(peak, µ)]`: `g(0)` is minus the peak demand,
//! and every `λ_k` is non-increasing, so `g ≥ 0` at the top. The solver
//! runs Newton's iteration on `g`, which shares one `e^{−βφ}` table per
//! iterate with its slope `dg/dφ` (Equation (2)), and bisects that bracket
//! whenever a step would leave it. [`System::solve_phi_with`] starts from a
//! caller's seed, in the solvers the previous probe's root or a
//! first-order prediction of the new one; [`System::solve_state`] starts
//! cold and returns a [`SystemState`] with every quantity downstream
//! analysis needs (per-CP populations, throughputs, the gap slope).
//!
//! The kernel behind these solves keeps each exponential provider's
//! `(m⁰, α)` and `(λ₀, β)`. In that family every derivative the solvers
//! need is a multiple of what a state already holds: `m' = −α·m`,
//! `m'' = α·α·m`, `λ' = −β·λ` and `λ'' = β·β·λ`. So
//! [`System::population_of`], [`System::dm_dt_of`],
//! [`System::d2m_dt2_of`], [`System::dlambda_dphi_of`] and
//! [`System::d2lambda_dphi2_of`] evaluate them with no virtual call and,
//! given the state's `m` and `λ`, with no `exp`, bit-identical to the
//! trait calls (`crates/model/tests/kernel_slopes.rs`). Theorem 6's
//! Jacobian, the marginal utilities and every population fill of the
//! solvers go through them. Other families fall through to their trait
//! objects.

use crate::cp::ContentProvider;
use crate::utilization::UtilizationFn;
use subcomp_num::roots::{newton, Bracket};
use subcomp_num::{NumError, NumResult, Tolerance};

/// Tolerance of the Newton φ solve: every system solves its fixed point to
/// this accuracy.
const PHI_TOL: Tolerance = Tolerance { abs: 1e-13, rel: 1e-13, max_iter: 300 };

/// Precompiled hot-loop view of the provider list, built once per
/// [`System`] so the congestion gap `g(φ)` can be evaluated without
/// virtual dispatch and with one `e^{-βφ}` per *distinct* `β` instead of
/// one per provider. Exponential-family deduplication is bit-exact: `exp`
/// is a pure function, so providers sharing the same `β` bits receive the
/// identical value they would have computed through
/// [`crate::throughput::ThroughputFn::lambda`].
///
/// It also keeps each exponential demand's `(m⁰, α)`, so populations are
/// evaluated without dispatch and the derivatives `m'`, `m''`, `λ'` and
/// `λ''` are read off a population or throughput the caller already
/// holds (module docs).
#[derive(Debug, Clone, Default)]
struct SystemKernel {
    /// Peak throughput `λ_k(0)` per provider.
    peaks: Vec<f64>,
    /// `λ₀` per provider (unused entries for non-exponential providers).
    lambda0: Vec<f64>,
    /// Index into [`SystemKernel::betas`]; `usize::MAX` marks a provider
    /// outside the exponential family (evaluated through the trait object).
    beta_idx: Vec<usize>,
    /// Distinct `β` values (bitwise comparison, first-appearance order).
    betas: Vec<f64>,
    /// `(m⁰, α)` per provider with exponential demand; `None` marks a
    /// demand evaluated through the trait object.
    demand: Vec<Option<(f64, f64)>>,
    /// Whether the utilization family is the paper's linear `Θ = φµ`.
    linear: bool,
}

const GENERIC_CP: usize = usize::MAX;

impl SystemKernel {
    /// Fills `exp[j] = e^{-β_j φ}` for every distinct `β` — the one
    /// expression the kernel's bit-exactness argument hinges on, kept in
    /// exactly one place so the demand, slope and assembly paths cannot
    /// drift apart.
    #[inline]
    fn fill_exp(&self, phi: f64, exp: &mut [f64]) {
        debug_assert_eq!(exp.len(), self.betas.len(), "scratch not prepared for this system");
        for (e, &b) in exp.iter_mut().zip(&self.betas) {
            *e = (-b * phi).exp();
        }
    }

    fn build(cps: &[ContentProvider], utilization: &dyn UtilizationFn) -> SystemKernel {
        let n = cps.len();
        let mut peaks = Vec::with_capacity(n);
        let mut lambda0 = Vec::with_capacity(n);
        let mut beta_idx = Vec::with_capacity(n);
        let mut betas: Vec<f64> = Vec::new();
        let demand = cps.iter().map(|cp| cp.demand().exp_coeffs()).collect();
        for cp in cps {
            peaks.push(cp.throughput().peak());
            match cp.throughput().exp_coeffs() {
                Some((l0, beta)) => {
                    let idx = betas
                        .iter()
                        .position(|b| b.to_bits() == beta.to_bits())
                        .unwrap_or_else(|| {
                            betas.push(beta);
                            betas.len() - 1
                        });
                    lambda0.push(l0);
                    beta_idx.push(idx);
                }
                None => {
                    lambda0.push(0.0);
                    beta_idx.push(GENERIC_CP);
                }
            }
        }
        SystemKernel { peaks, lambda0, beta_idx, betas, demand, linear: utilization.is_linear() }
    }

    /// Re-derives the kernel slot of provider `idx` after `cps[idx]` was
    /// replaced: cached peak, `λ₀`, `(m⁰, α)` and the distinct-`β`
    /// assignment. A new `β` is appended to the table (results do not
    /// depend on table order: every provider's `λ_j = λ₀_j e^{-β_j φ}` is
    /// computed from its own slot and accumulated in provider order, so
    /// any table holding the right bits is bit-identical to a fresh
    /// [`SystemKernel::build`]). Returns `true` when the provider's *old*
    /// `β` slot became unreferenced — the caller should then rebuild the
    /// kernel so the distinct-`β` table does not accumulate dead entries
    /// across long patch sequences.
    fn patch_slot(&mut self, idx: usize, cp: &ContentProvider) -> bool {
        let old_slot = self.beta_idx[idx];
        self.peaks[idx] = cp.throughput().peak();
        self.demand[idx] = cp.demand().exp_coeffs();
        match cp.throughput().exp_coeffs() {
            Some((l0, beta)) => {
                let slot =
                    self.betas.iter().position(|b| b.to_bits() == beta.to_bits()).unwrap_or_else(
                        || {
                            self.betas.push(beta);
                            self.betas.len() - 1
                        },
                    );
                self.lambda0[idx] = l0;
                self.beta_idx[idx] = slot;
            }
            None => {
                self.lambda0[idx] = 0.0;
                self.beta_idx[idx] = GENERIC_CP;
            }
        }
        old_slot != GENERIC_CP
            && old_slot != self.beta_idx[idx]
            && !self.beta_idx.contains(&old_slot)
    }
}

/// Reusable scratch space for the allocation-free state solvers
/// ([`System::solve_state_into`] and friends). Create one per worker with
/// [`System::make_scratch`] (or default-construct and let the solvers size
/// it); after the first solve of a given system no further heap
/// allocation occurs, and a scratch can be reused across systems of any
/// size (buffers only ever grow).
#[derive(Debug, Clone, Default)]
pub struct StateScratch {
    /// `e^{-βφ}` per distinct `β` of the current system.
    exp: Vec<f64>,
    /// Population buffer for [`System::state_at_prices_into`].
    m: Vec<f64>,
}

/// An access network shared by a set of content providers.
///
/// Holds the CP population (with their demand/throughput primitives), the
/// ISP capacity `µ`, and the utilization family `Φ`. The *state* of the
/// system for specific populations or effective prices is computed by
/// [`System::solve_state`] / [`System::state_at_prices`].
#[derive(Clone)]
pub struct System {
    cps: Vec<ContentProvider>,
    mu: f64,
    utilization: Box<dyn UtilizationFn>,
    kernel: SystemKernel,
}

impl System {
    /// Creates a system; requires `µ > 0`.
    pub fn new(
        cps: Vec<ContentProvider>,
        mu: f64,
        utilization: impl UtilizationFn + 'static,
    ) -> NumResult<Self> {
        if !(mu > 0.0) || !mu.is_finite() {
            return Err(NumError::Domain {
                what: "capacity must be positive and finite",
                value: mu,
            });
        }
        let utilization: Box<dyn UtilizationFn> = Box::new(utilization);
        let kernel = SystemKernel::build(&cps, utilization.as_ref());
        Ok(System { cps, mu, utilization, kernel })
    }

    /// Number of providers.
    pub fn n(&self) -> usize {
        self.cps.len()
    }

    /// The providers.
    pub fn cps(&self) -> &[ContentProvider] {
        &self.cps
    }

    /// Provider `i`.
    pub fn cp(&self, i: usize) -> &ContentProvider {
        &self.cps[i]
    }

    /// Capacity `µ`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The utilization family.
    pub fn utilization_fn(&self) -> &dyn UtilizationFn {
        self.utilization.as_ref()
    }

    /// Sets the capacity `µ` in place — a single scalar write. The
    /// precompiled `SystemKernel` caches only provider-side quantities
    /// (peaks, `λ₀`, the distinct-`β` table) plus the utilization-family
    /// flag, none of which depend on `µ`, so reparameterizing a `µ`-sweep
    /// point costs nothing beyond validation and results are bit-identical
    /// to rebuilding the system at the new capacity (pinned by
    /// `tests/axis_continuation.rs`).
    pub fn set_mu(&mut self, mu: f64) -> NumResult<()> {
        if !(mu > 0.0) || !mu.is_finite() {
            return Err(NumError::Domain {
                what: "capacity must be positive and finite",
                value: mu,
            });
        }
        self.mu = mu;
        Ok(())
    }

    /// Sets provider `i`'s profitability `v_i` in place — a single scalar
    /// write. Profitability never enters the congestion kernel (it only
    /// scales utilities downstream), so the kernel is untouched and the
    /// write is allocation-free; the `v`-axis continuation sweeps rely on
    /// this.
    pub fn set_profitability(&mut self, i: usize, v: f64) -> NumResult<()> {
        if i >= self.n() {
            return Err(NumError::DimensionMismatch { expected: self.n(), actual: i });
        }
        if !(v >= 0.0) || !v.is_finite() {
            return Err(NumError::Domain {
                what: "profitability must be non-negative and finite",
                value: v,
            });
        }
        self.cps[i].set_profitability(v);
        Ok(())
    }

    /// Replaces whole providers in place, surgically patching the
    /// precompiled kernel instead of rebuilding it: only the affected
    /// slots' cached peaks, `λ₀`s and distinct-`β` assignments are
    /// re-derived (a genuinely new `β` appends one table entry; the one
    /// slow path — a patch orphaning the *last* reference to an old `β` —
    /// falls back to a full kernel rebuild so the table stays minimal).
    /// Results are bit-identical to `System::new` on the patched provider
    /// list for any patch sequence, pinned by `tests/axis_continuation.rs`.
    ///
    /// Indices are validated up front; an out-of-range index leaves the
    /// system untouched.
    pub fn patch_cps(
        &mut self,
        patches: impl IntoIterator<Item = (usize, ContentProvider)>,
    ) -> NumResult<()> {
        let patches: Vec<(usize, ContentProvider)> = patches.into_iter().collect();
        for &(i, _) in &patches {
            if i >= self.n() {
                return Err(NumError::DimensionMismatch { expected: self.n(), actual: i });
            }
        }
        let mut needs_rebuild = false;
        for (i, cp) in patches {
            self.cps[i] = cp;
            needs_rebuild |= self.kernel.patch_slot(i, &self.cps[i]);
        }
        if needs_rebuild {
            self.kernel = SystemKernel::build(&self.cps, self.utilization.as_ref());
        }
        Ok(())
    }

    /// Returns a copy with capacity `µ'` — Theorem 1 capacity sweeps and
    /// the ISP's investment extension both use this. A thin shim over the
    /// in-place [`System::set_mu`].
    pub fn with_capacity(&self, mu: f64) -> NumResult<System> {
        let mut sys = self.clone();
        sys.set_mu(mu)?;
        Ok(sys)
    }

    /// Populations induced by per-CP effective prices `t`.
    pub fn populations(&self, t: &[f64]) -> NumResult<Vec<f64>> {
        if t.len() != self.n() {
            return Err(NumError::DimensionMismatch { expected: self.n(), actual: t.len() });
        }
        Ok(t.iter().enumerate().map(|(j, &tj)| self.population_of(j, tj)).collect())
    }

    /// The gap function `g(φ) = Θ(φ, µ) − Σ_k m_k λ_k(φ)` of Lemma 1.
    pub fn gap(&self, phi: f64, m: &[f64]) -> f64 {
        let demand: f64 = self.cps.iter().zip(m).map(|(cp, &mi)| mi * cp.lambda(phi)).sum();
        self.utilization.theta(phi, self.mu) - demand
    }

    /// The gap slope `dg/dφ = ∂Θ/∂φ − Σ_k m_k dλ_k/dφ` (Equation (2));
    /// strictly positive.
    pub fn dgap_dphi(&self, phi: f64, m: &[f64]) -> f64 {
        let demand_slope: f64 =
            self.cps.iter().zip(m).map(|(cp, &mi)| mi * cp.throughput().dlambda_dphi(phi)).sum();
        self.utilization.dtheta_dphi(phi, self.mu) - demand_slope
    }

    /// Solves the congestion fixed point of Definition 1 for populations
    /// `m`, returning the full [`SystemState`].
    pub fn solve_state(&self, m: &[f64]) -> NumResult<SystemState> {
        let mut scratch = self.make_scratch();
        let mut state = SystemState::empty();
        self.solve_state_into(m, &mut scratch, &mut state)?;
        Ok(state)
    }

    /// Solves the fixed point for the populations induced by effective
    /// prices `t` (i.e. `m_i = m_i(t_i)` first, then Definition 1).
    pub fn state_at_prices(&self, t: &[f64]) -> NumResult<SystemState> {
        let m = self.populations(t)?;
        self.solve_state(&m)
    }

    // --- Allocation-free state engine -----------------------------------
    //
    // The `_into` family below is the workhorse behind every solver hot
    // path: all outputs land in caller-owned buffers, all transient work
    // uses a caller-owned [`StateScratch`], and after warm-up a solve
    // performs zero heap allocation. Results are bit-identical to the
    // allocating wrappers above (which now delegate here), as pinned by
    // the golden-snapshot tier and the workspace-equivalence proptests.

    /// Creates a [`StateScratch`] pre-sized for this system.
    pub fn make_scratch(&self) -> StateScratch {
        let mut scratch = StateScratch::default();
        self.prepare_scratch(&mut scratch);
        scratch
    }

    /// Resizes `scratch` for this system (no-op once warm; never shrinks
    /// capacity, so a scratch can hop between systems without churn).
    pub fn prepare_scratch(&self, scratch: &mut StateScratch) {
        scratch.exp.resize(self.kernel.betas.len(), 0.0);
    }

    /// Solves Definition 1 for the utilization `φ` alone — the innermost
    /// loop of every best-response probe — starting Newton's iteration at
    /// `seed`. Callers that solve a chain of nearby systems (the probes of
    /// one Nash solve, the steps of its Newton corrector) pass the previous
    /// root or a first-order prediction of the new one; a NaN (or any
    /// non-finite) seed starts cold at `φ = 0`, and a seed outside the bracket
    /// `[0, Φ(peak, µ)]` is clamped into it. The root agrees with the cold
    /// [`System::solve_state`] to the solver tolerance (1e-13), not bit for
    /// bit, and the same `seed` always returns the same bits.
    /// Allocation-free given a warm scratch.
    pub fn solve_phi_with(
        &self,
        m: &[f64],
        seed: f64,
        scratch: &mut StateScratch,
    ) -> NumResult<f64> {
        if m.len() != self.n() {
            return Err(NumError::DimensionMismatch { expected: self.n(), actual: m.len() });
        }
        self.prepare_scratch(scratch);
        let k = &self.kernel;
        // One pass merges the population domain checks with the peak-demand
        // accumulation (zero demand means phi = 0 exactly, the limit case
        // of Assumption 1): the first offending population errors before
        // any solving starts.
        let mut peak_demand = 0.0;
        for (&mi, pk) in m.iter().zip(&k.peaks) {
            if !(mi >= 0.0) || !mi.is_finite() {
                return Err(NumError::Domain {
                    what: "populations must be non-negative and finite",
                    value: mi,
                });
            }
            peak_demand += mi * pk;
        }
        if peak_demand == 0.0 {
            return Ok(0.0);
        }
        // Every λ_k is non-increasing, so demand at Φ(peak, µ) is at most
        // the peak demand Θ carries there: g ≥ 0 at the bracket's top. A
        // queue family loaded past capacity has Φ = ∞ and no finite top;
        // a Φ that is not a number there leaves the top open the same way.
        let top = self.utilization.phi(peak_demand, self.mu);
        let top = if top >= 0.0 { top } else { f64::INFINITY };
        let x0 = if seed.is_finite() { seed } else { 0.0 };
        let (lambda0, beta_idx, betas) = (&k.lambda0[..], &k.beta_idx[..], &k.betas[..]);
        let exp = &mut scratch.exp[..];
        // g and g' = Θ' − Σ m_k λ_k' (Equation 2) from one exp table.
        let mut g = |phi: f64| {
            k.fill_exp(phi, exp);
            let (mut demand, mut slope) = (0.0, 0.0);
            for j in 0..m.len() {
                let (lam, dlam) = if beta_idx[j] != GENERIC_CP {
                    let lam = lambda0[j] * exp[beta_idx[j]];
                    (lam, -betas[beta_idx[j]] * lam)
                } else {
                    let t = self.cps[j].throughput();
                    (t.lambda(phi), t.dlambda_dphi(phi))
                };
                demand += m[j] * lam;
                slope += m[j] * dlam;
            }
            let (theta, dtheta) = if k.linear {
                (phi * self.mu, self.mu)
            } else {
                (self.utilization.theta(phi, self.mu), self.utilization.dtheta_dphi(phi, self.mu))
            };
            (theta - demand, dtheta - slope)
        };
        Ok(newton(&mut g, x0, Some(Bracket::new(0.0, top)), PHI_TOL)?.x)
    }

    /// Provider `j`'s per-user throughput `λ_j(φ)` through the kernel —
    /// bit-identical to `cp(j).lambda(phi)` (same expression), without the
    /// virtual call for exponential-family providers.
    #[inline]
    pub fn lambda_of(&self, j: usize, phi: f64) -> f64 {
        let k = &self.kernel;
        if k.beta_idx[j] != GENERIC_CP {
            k.lambda0[j] * (-k.betas[k.beta_idx[j]] * phi).exp()
        } else {
            self.cps[j].lambda(phi)
        }
    }

    /// Provider `j`'s population `m_j(t)` through the kernel —
    /// bit-identical to `cp(j).population(t)` (the expression
    /// [`crate::demand::ExpDemand`] evaluates), without the virtual call
    /// for exponential demand.
    #[inline]
    pub fn population_of(&self, j: usize, t: f64) -> f64 {
        match self.kernel.demand[j] {
            Some((m0, alpha)) => m0 * (-alpha * t).exp(),
            None => self.cps[j].population(t),
        }
    }

    /// `m_j'(t)` read off the provider's population there, `m = m_j(t)`:
    /// `−α·m` for exponential demand, bit-identical to
    /// `cp(j).demand().dm_dt(t)` and with no `exp`; other families call
    /// the trait object (and ignore `m`).
    #[inline]
    pub fn dm_dt_of(&self, j: usize, t: f64, m: f64) -> f64 {
        match self.kernel.demand[j] {
            Some((_, alpha)) => -alpha * m,
            None => self.cps[j].demand().dm_dt(t),
        }
    }

    /// `m_j''(t)` read off `m = m_j(t)`: `α·α·m`, associated as
    /// [`crate::demand::ExpDemand`] does, so bit-identical to
    /// `cp(j).demand().d2m_dt2(t)`.
    #[inline]
    pub fn d2m_dt2_of(&self, j: usize, t: f64, m: f64) -> f64 {
        match self.kernel.demand[j] {
            Some((_, alpha)) => alpha * alpha * m,
            None => self.cps[j].demand().d2m_dt2(t),
        }
    }

    /// `λ_j'(φ)` read off the provider's throughput there,
    /// `lambda = λ_j(φ)`: `−β·λ` for exponential throughput, bit-identical
    /// to `cp(j).throughput().dlambda_dphi(phi)`.
    #[inline]
    pub fn dlambda_dphi_of(&self, j: usize, phi: f64, lambda: f64) -> f64 {
        let k = &self.kernel;
        if k.beta_idx[j] != GENERIC_CP {
            -k.betas[k.beta_idx[j]] * lambda
        } else {
            self.cps[j].throughput().dlambda_dphi(phi)
        }
    }

    /// `λ_j''(φ)` read off `lambda = λ_j(φ)`: `β·β·λ`, bit-identical to
    /// `cp(j).throughput().d2lambda_dphi2(phi)`.
    #[inline]
    pub fn d2lambda_dphi2_of(&self, j: usize, phi: f64, lambda: f64) -> f64 {
        let k = &self.kernel;
        if k.beta_idx[j] != GENERIC_CP {
            let beta = k.betas[k.beta_idx[j]];
            beta * beta * lambda
        } else {
            self.cps[j].throughput().d2lambda_dphi2(phi)
        }
    }

    /// Provider `i`'s throughput `λ_i(φ)` and the gap slope
    /// [`System::dgap_dphi`] at `φ`, from one `e^{-βφ}` table: what a
    /// marginal-utility probe reads after its φ solve. Bit-identical to
    /// [`System::lambda_of`] and `dgap_dphi`.
    pub fn lambda_and_gap_slope(
        &self,
        i: usize,
        phi: f64,
        m: &[f64],
        scratch: &mut StateScratch,
    ) -> (f64, f64) {
        self.prepare_scratch(scratch);
        let k = &self.kernel;
        k.fill_exp(phi, &mut scratch.exp);
        let lambda = if k.beta_idx[i] != GENERIC_CP {
            k.lambda0[i] * scratch.exp[k.beta_idx[i]]
        } else {
            self.cps[i].lambda(phi)
        };
        (lambda, self.dgap_from_exp(phi, m, &scratch.exp))
    }

    /// The gap slope given an exp table already filled at this `phi`.
    fn dgap_from_exp(&self, phi: f64, m: &[f64], exp: &[f64]) -> f64 {
        let k = &self.kernel;
        let mut demand_slope = 0.0;
        for j in 0..m.len() {
            let dl = if k.beta_idx[j] != GENERIC_CP {
                -k.betas[k.beta_idx[j]] * (k.lambda0[j] * exp[k.beta_idx[j]])
            } else {
                self.cps[j].throughput().dlambda_dphi(phi)
            };
            demand_slope += m[j] * dl;
        }
        self.utilization.dtheta_dphi(phi, self.mu) - demand_slope
    }

    /// Populations induced by effective prices `t`, written into `out`
    /// (resized as needed; allocation-free once warm).
    pub fn populations_into(&self, t: &[f64], out: &mut Vec<f64>) -> NumResult<()> {
        if t.len() != self.n() {
            return Err(NumError::DimensionMismatch { expected: self.n(), actual: t.len() });
        }
        out.resize(self.n(), 0.0);
        for (j, (o, &tj)) in out.iter_mut().zip(t).enumerate() {
            *o = self.population_of(j, tj);
        }
        Ok(())
    }

    /// Assembles the state at a *given* utilization (no solving) into a
    /// caller-owned [`SystemState`].
    pub fn state_at_phi_into(
        &self,
        phi: f64,
        m: &[f64],
        scratch: &mut StateScratch,
        out: &mut SystemState,
    ) -> NumResult<()> {
        if m.len() != self.n() {
            return Err(NumError::DimensionMismatch { expected: self.n(), actual: m.len() });
        }
        self.prepare_scratch(scratch);
        let n = self.n();
        out.phi = phi;
        out.m.resize(n, 0.0);
        out.m.copy_from_slice(m);
        out.lambda.resize(n, 0.0);
        let k = &self.kernel;
        k.fill_exp(phi, &mut scratch.exp);
        for j in 0..n {
            out.lambda[j] = if k.beta_idx[j] != GENERIC_CP {
                k.lambda0[j] * scratch.exp[k.beta_idx[j]]
            } else {
                self.cps[j].lambda(phi)
            };
        }
        out.theta_i.resize(n, 0.0);
        for j in 0..n {
            out.theta_i[j] = m[j] * out.lambda[j];
        }
        // The exp table already holds e^{-βφ} at exactly this φ; the
        // kernelized slope is bit-identical to `dgap_dphi` (same
        // association as ExpThroughput::dlambda_dphi).
        out.dg_dphi = self.dgap_from_exp(phi, m, &scratch.exp);
        Ok(())
    }

    /// [`System::solve_state`] into a caller-owned [`SystemState`].
    pub fn solve_state_into(
        &self,
        m: &[f64],
        scratch: &mut StateScratch,
        out: &mut SystemState,
    ) -> NumResult<()> {
        let phi = self.solve_phi_with(m, f64::NAN, scratch)?;
        self.state_at_phi_into(phi, m, scratch, out)
    }

    /// [`System::state_at_prices`] into a caller-owned [`SystemState`].
    pub fn state_at_prices_into(
        &self,
        t: &[f64],
        scratch: &mut StateScratch,
        out: &mut SystemState,
    ) -> NumResult<()> {
        // Detach the population buffer so the scratch stays usable for the
        // solve; `mem::take` swaps in an empty Vec (no allocation).
        let mut m = std::mem::take(&mut scratch.m);
        let result =
            self.populations_into(t, &mut m).and_then(|()| self.solve_state_into(&m, scratch, out));
        scratch.m = m;
        result
    }

    /// Solves the fixed point under a *uniform* effective price, the
    /// one-sided-pricing case `t_i = p` of §3.2.
    pub fn state_at_uniform_price(&self, p: f64) -> NumResult<SystemState> {
        let t = vec![p; self.n()];
        self.state_at_prices(&t)
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("n_cps", &self.n())
            .field("mu", &self.mu)
            .field("utilization", &self.utilization.name())
            .finish()
    }
}

/// A solved (or probed) system state: everything Definition 1 determines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemState {
    /// System utilization `φ`.
    pub phi: f64,
    /// Per-CP user populations `m_i`.
    pub m: Vec<f64>,
    /// Per-CP per-user throughput `λ_i(φ)`.
    pub lambda: Vec<f64>,
    /// Per-CP aggregate throughput `θ_i = m_i λ_i(φ)`.
    pub theta_i: Vec<f64>,
    /// Gap slope `dg/dφ` at `φ` (Equation (2)); positive by Lemma 1.
    pub dg_dphi: f64,
}

impl SystemState {
    /// An empty state to use as a reusable output buffer for the `_into`
    /// solvers ([`System::solve_state_into`] and friends); its vectors are
    /// resized in place on each solve, so one buffer serves systems of any
    /// size without churn.
    pub fn empty() -> SystemState {
        SystemState::default()
    }

    /// Aggregate throughput `θ = Σ_i θ_i`.
    pub fn theta(&self) -> f64 {
        self.theta_i.iter().sum()
    }

    /// Number of providers.
    pub fn n(&self) -> usize {
        self.theta_i.len()
    }

    /// Residual of the Definition 1 fixed point under a given system —
    /// `|g(φ)|`; small for solved states.
    pub fn residual(&self, system: &System) -> f64 {
        system.gap(self.phi, &self.m).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::ExpDemand;
    use crate::throughput::ExpThroughput;
    use crate::utilization::{LinearUtilization, QueueUtilization};

    /// The paper's §3.2 example: 9 CPs, (alpha, beta) in {1,3,5}^2, mu = 1.
    pub(crate) fn paper_section3_system() -> System {
        let mut cps = Vec::new();
        for &alpha in &[1.0, 3.0, 5.0] {
            for &beta in &[1.0, 3.0, 5.0] {
                cps.push(
                    ContentProvider::builder(format!("a{alpha}-b{beta}"))
                        .demand(ExpDemand::new(1.0, alpha))
                        .throughput(ExpThroughput::new(1.0, beta))
                        .profitability(1.0)
                        .build(),
                );
            }
        }
        System::new(cps, 1.0, LinearUtilization).unwrap()
    }

    #[test]
    fn fixed_point_satisfies_definition1() {
        let sys = paper_section3_system();
        let state = sys.state_at_uniform_price(0.5).unwrap();
        // phi = Phi(theta, mu) must hold at the solution.
        let lhs = state.phi;
        let rhs = sys.utilization_fn().phi(state.theta(), sys.mu());
        assert!((lhs - rhs).abs() < 1e-10, "{lhs} vs {rhs}");
        assert!(state.residual(&sys) < 1e-10);
    }

    #[test]
    fn gap_is_strictly_increasing() {
        // Lemma 1.
        let sys = paper_section3_system();
        let m = sys.populations(&[0.4; 9]).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..50 {
            let phi = i as f64 * 0.1;
            let g = sys.gap(phi, &m);
            assert!(g > prev, "gap not increasing at phi = {phi}");
            prev = g;
        }
    }

    #[test]
    fn dgap_matches_finite_difference() {
        let sys = paper_section3_system();
        let m = sys.populations(&[0.3; 9]).unwrap();
        for phi in [0.2, 0.8, 1.5] {
            let fd = subcomp_num::diff::derivative(&|x| sys.gap(x, &m), phi).unwrap();
            let an = sys.dgap_dphi(phi, &m);
            assert!((fd - an).abs() < 1e-6, "phi {phi}: {fd} vs {an}");
        }
    }

    #[test]
    fn zero_population_zero_utilization() {
        let sys = paper_section3_system();
        let state = sys.solve_state(&[0.0; 9]).unwrap();
        assert_eq!(state.phi, 0.0);
        assert_eq!(state.theta(), 0.0);
    }

    #[test]
    fn empty_system() {
        let sys = System::new(vec![], 1.0, LinearUtilization).unwrap();
        let state = sys.solve_state(&[]).unwrap();
        assert_eq!(state.phi, 0.0);
        assert_eq!(state.n(), 0);
    }

    #[test]
    fn capacity_must_be_positive() {
        assert!(System::new(vec![], 0.0, LinearUtilization).is_err());
        assert!(System::new(vec![], -1.0, LinearUtilization).is_err());
        let sys = paper_section3_system();
        assert!(sys.with_capacity(0.0).is_err());
        let mut sys = paper_section3_system();
        assert!(sys.set_mu(0.0).is_err());
        assert!(sys.set_mu(f64::NAN).is_err());
        assert_eq!(sys.mu(), 1.0, "failed set_mu must leave the capacity unchanged");
    }

    #[test]
    fn set_mu_matches_rebuild_bit_exactly() {
        let base = paper_section3_system();
        let m = base.populations(&[0.4; 9]).unwrap();
        let mut patched = base.clone();
        for mu in [0.25, 0.8, 2.0, 7.5] {
            patched.set_mu(mu).unwrap();
            let fresh = {
                let mut cps = Vec::new();
                for &alpha in &[1.0, 3.0, 5.0] {
                    for &beta in &[1.0, 3.0, 5.0] {
                        cps.push(
                            ContentProvider::builder(format!("a{alpha}-b{beta}"))
                                .demand(ExpDemand::new(1.0, alpha))
                                .throughput(ExpThroughput::new(1.0, beta))
                                .profitability(1.0)
                                .build(),
                        );
                    }
                }
                System::new(cps, mu, LinearUtilization).unwrap()
            };
            let a = patched.solve_state(&m).unwrap();
            let b = fresh.solve_state(&m).unwrap();
            assert_eq!(a.phi.to_bits(), b.phi.to_bits(), "mu = {mu}");
            for j in 0..9 {
                assert_eq!(a.theta_i[j].to_bits(), b.theta_i[j].to_bits(), "mu = {mu}, cp {j}");
            }
        }
    }

    #[test]
    fn set_profitability_validates_and_writes_in_place() {
        let mut sys = paper_section3_system();
        sys.set_profitability(3, 2.5).unwrap();
        assert_eq!(sys.cp(3).profitability(), 2.5);
        assert_eq!(sys.cp(2).profitability(), 1.0, "other providers untouched");
        assert!(sys.set_profitability(99, 1.0).is_err());
        assert!(sys.set_profitability(0, -0.1).is_err());
        assert!(sys.set_profitability(0, f64::INFINITY).is_err());
        // The congestion fixed point is independent of profitability.
        let m = sys.populations(&[0.4; 9]).unwrap();
        let before = paper_section3_system().solve_state(&m).unwrap();
        let after = sys.solve_state(&m).unwrap();
        assert_eq!(before.phi.to_bits(), after.phi.to_bits());
    }

    #[test]
    fn patch_cps_matches_rebuild_bit_exactly() {
        // Three patch flavours: β reused from the table, a genuinely new β
        // (appends a distinct-β slot), and one orphaning the last use of an
        // old β (forces the compaction rebuild) — each must be
        // bit-identical to System::new on the patched provider list.
        let mk = |beta: f64| {
            ContentProvider::builder(format!("b{beta}"))
                .demand(ExpDemand::new(1.0, 2.0))
                .throughput(ExpThroughput::new(1.2, beta))
                .profitability(0.8)
                .build()
        };
        let base = vec![mk(2.0), mk(5.0), mk(2.0)];
        let m = [0.5, 0.3, 0.4];
        for (idx, new_beta) in [(2usize, 5.0), (0, 7.0), (1, 2.0)] {
            let mut patched_sys = System::new(base.clone(), 1.0, LinearUtilization).unwrap();
            patched_sys.patch_cps([(idx, mk(new_beta))]).unwrap();
            let mut cps = base.clone();
            cps[idx] = mk(new_beta);
            let fresh = System::new(cps, 1.0, LinearUtilization).unwrap();
            let a = patched_sys.solve_state(&m).unwrap();
            let b = fresh.solve_state(&m).unwrap();
            assert_eq!(a.phi.to_bits(), b.phi.to_bits(), "patch cp {idx} -> beta {new_beta}");
            for j in 0..3 {
                assert_eq!(a.theta_i[j].to_bits(), b.theta_i[j].to_bits());
                assert_eq!(a.lambda[j].to_bits(), b.lambda[j].to_bits());
            }
            assert_eq!(a.dg_dphi.to_bits(), b.dg_dphi.to_bits());
        }
    }

    #[test]
    fn patch_cps_rejects_out_of_range_and_leaves_system_intact() {
        let mut sys = paper_section3_system();
        let cp = sys.cp(0).clone();
        assert!(sys.patch_cps([(0, cp.clone()), (99, cp)]).is_err());
        // Nothing was applied: state solves are unchanged.
        let m = sys.populations(&[0.4; 9]).unwrap();
        let a = sys.solve_state(&m).unwrap();
        let b = paper_section3_system().solve_state(&m).unwrap();
        assert_eq!(a.phi.to_bits(), b.phi.to_bits());
    }

    #[test]
    fn populations_reject_wrong_arity() {
        let sys = paper_section3_system();
        assert!(sys.populations(&[0.5]).is_err());
        assert!(sys.solve_state(&[0.5]).is_err());
    }

    #[test]
    fn negative_population_rejected() {
        let sys = paper_section3_system();
        let mut m = vec![0.1; 9];
        m[3] = -0.1;
        assert!(sys.solve_state(&m).is_err());
    }

    #[test]
    fn more_capacity_less_utilization() {
        // Theorem 1 (capacity direction), verified end to end.
        let sys = paper_section3_system();
        let m = sys.populations(&[0.4; 9]).unwrap();
        let s1 = sys.solve_state(&m).unwrap();
        let s2 = sys.with_capacity(2.0).unwrap().solve_state(&m).unwrap();
        assert!(s2.phi < s1.phi);
        assert!(s2.theta() > s1.theta());
    }

    #[test]
    fn more_users_more_utilization() {
        // Theorem 1 (user direction).
        let sys = paper_section3_system();
        let m1 = vec![0.4; 9];
        let mut m2 = m1.clone();
        m2[0] += 0.2;
        let s1 = sys.solve_state(&m1).unwrap();
        let s2 = sys.solve_state(&m2).unwrap();
        assert!(s2.phi > s1.phi);
        // CP 0 gains throughput; all others lose.
        assert!(s2.theta_i[0] > s1.theta_i[0]);
        for j in 1..9 {
            assert!(s2.theta_i[j] < s1.theta_i[j], "CP {j} should lose throughput");
        }
    }

    #[test]
    fn queue_family_stays_below_capacity() {
        let cps = vec![ContentProvider::builder("heavy")
            .demand(ExpDemand::new(5.0, 1.0))
            .throughput(ExpThroughput::new(2.0, 1.0))
            .profitability(1.0)
            .build()];
        let sys = System::new(cps, 1.0, QueueUtilization).unwrap();
        let state = sys.state_at_uniform_price(0.1).unwrap();
        assert!(state.theta() < 1.0, "theta {} must stay below mu", state.theta());
        assert!(state.phi.is_finite());
        assert!(state.residual(&sys) < 1e-9);
    }

    #[test]
    fn uniform_price_equals_explicit_vector() {
        let sys = paper_section3_system();
        let a = sys.state_at_uniform_price(0.7).unwrap();
        let b = sys.state_at_prices(&[0.7; 9]).unwrap();
        assert!((a.phi - b.phi).abs() < 1e-14);
    }

    #[test]
    fn heavier_demand_raises_utilization_price_lowers_it() {
        let sys = paper_section3_system();
        let hi = sys.state_at_uniform_price(0.1).unwrap();
        let lo = sys.state_at_uniform_price(1.5).unwrap();
        assert!(hi.phi > lo.phi);
    }

    #[test]
    fn debug_format() {
        let sys = paper_section3_system();
        let s = format!("{sys:?}");
        assert!(s.contains("n_cps: 9"));
    }
}
