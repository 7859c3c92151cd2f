//! Equilibrium sensitivity analysis (Theorem 6).
//!
//! Near a regular equilibrium, `s(p, q)` is differentiable with
//!
//! ```text
//! ∂s_i/∂q = 0                                  i ∈ N⁻ (pinned at 0)
//! ∂s_i/∂q = 1                                  i ∈ N⁺ (pinned at q)
//! ∂s_i/∂q = −Σ_k ψ_{ik} Σ_{j∈N⁺} ∂u_k/∂s_j     i ∈ Ñ  (interior)
//!
//! ∂s_i/∂p = 0                                  i ∉ Ñ
//! ∂s_i/∂p = −Σ_k ψ_{ik} ∂u_k/∂p                i ∈ Ñ
//! ```
//!
//! with `Ψ = (∇_s̃ ũ)^{-1}`, the inverse Jacobian of interior marginal
//! utilities. Degenerate equilibria (a pinned provider with `u_i = 0`,
//! violating strict complementarity) are flagged rather than silently
//! differentiated.
//!
//! ## The structured Jacobian
//!
//! Providers couple only through the utilization `φ` and the gap slope
//! `g' = dg/dφ`. Write `a_j = −m_j'(t_j)` (the population response to a
//! subsidy), `φ_j = λ_j a_j / g'` (`= ∂φ/∂s_j`) and `c_j = λ_j'(φ) a_j`
//! (how `s_j` moves `g'` directly). Then every off-diagonal entry factors,
//! `∂u_i/∂s_j = A_i φ_j + B_i c_j`, and
//!
//! ```text
//! ∇u = diag(d) + A·φᵀ + B·cᵀ
//! ```
//!
//! with `A`, `B` and `d` closed forms in the model's first and second
//! derivatives (`m''`, `λ''`, `Θ_φφ`). [`SensitivityWorkspace`] assembles
//! the five factor vectors in O(n) from **one** solved state and solves
//! the interior system by the Woodbury identity with a 2×2 capacitance
//! matrix, so a derivative costs one state solve plus O(n) arithmetic —
//! O(n) alone when the caller already holds the solved state
//! ([`SensitivityWorkspace::factor_at`]). The assembly reads `m'`, `m''`,
//! `λ'` and `λ''` off the state's own `m_j` and `λ_j` through the system's
//! kernel (`subcomp_model::system`): for the paper's exponential family
//! that is a multiply each, bit-identical to the curves' trait calls, and
//! no `exp`.
//! The right-hand sides `∂u/∂θ` are analytic too:
//!
//! * price: `∂u_i/∂p = −Σ_j ∂u_i/∂s_j − ∂θ_i/∂s_i`, since every
//!   `t_k = p − s_k`;
//! * cap: the pinned-at-`q` column sum `Σ_{j∈N⁺} ∂u_i/∂s_j`;
//! * capacity: `∂u_i/∂µ = A_i ∂φ/∂µ − B_i Θ_φµ` with
//!   `∂φ/∂µ = −Θ_µ/g'`;
//! * profitability `v_j`: `∂u_i/∂v_j = δ_ij ∂θ_i/∂s_i`.
//!
//! The Nash solver's Newton corrector ([`crate::nash`]) solves one more
//! right-hand side on the same factors: `−u_Ñ`, at each iterate of its
//! interior conditions `u_Ñ(s) = 0`. The factors' `∂φ/∂s` column also
//! seeds the next iterate's state solve.
//!
//! **Structural fallback.** Woodbury needs a usable diagonal and a
//! regular capacitance. When some interior `d_k` is zero or not finite,
//! the 2×2 determinant is zero or not finite, or the Woodbury answer
//! fails its residual check (relative 1e-10), the
//! same analytic interior block is assembled densely and factored by
//! [`LuDecomposition`]. [`SensitivityWorkspace::dense_fallbacks`] and
//! [`crate::workspace::SolveWorkspace::newton_dense_fallbacks`] count
//! those solves.
//!
//! **Oracle.** The central-difference Jacobian
//! ([`crate::structure::marginal_utility_jacobian`]) and the FD
//! right-hand sides ([`Sensitivity::axis_shift`]) no longer run on any
//! production path; they stay as the test oracle the structured engine
//! is checked against (`tests/sensitivity_oracle.rs`).

use crate::equilibrium::PIN_TOL;
use crate::game::{Axis, SubsidyGame};
use subcomp_model::system::{StateScratch, SystemState};
use subcomp_num::linalg::lu::LuDecomposition;
use subcomp_num::linalg::Matrix;
use subcomp_num::{NumError, NumResult};

/// Strict-complementarity tolerance: a pinned provider whose marginal
/// utility is within this bound of zero makes the equilibrium *degenerate*
/// — the active set is about to change and one-sided derivatives are the
/// best Theorem 6 can offer. [`Sensitivity::compute`] flags such
/// equilibria (`regular = false`); [`Sensitivity::directional`] refuses to
/// differentiate them.
pub const DEGENERATE_U_TOL: f64 = 1e-6;

/// Largest residual `‖∇ũ·x − r‖∞`, relative to the magnitudes that enter
/// it, that a Woodbury solve may leave before the structured engine
/// re-solves the block densely. Woodbury is not backward stable when the
/// diagonal is tiny next to the rank-two part; this check is what turns
/// that silent cancellation into a counted fallback.
const WOODBURY_RESIDUAL_TOL: f64 = 1e-10;

/// The boundary classification `N⁻ / Ñ / N⁺` of an equilibrium profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActiveSet {
    /// Providers pinned at `s_i = 0`.
    pub lower: Vec<usize>,
    /// Interior providers (`0 < s_i < q`).
    pub interior: Vec<usize>,
    /// Providers pinned at `s_i = q`.
    pub upper: Vec<usize>,
}

impl ActiveSet {
    /// Classifies a profile against the box `[0, q]` with tolerance
    /// [`PIN_TOL`].
    ///
    /// The classification is *total* (every index lands in exactly one
    /// set) and *order-independent* (membership depends only on `(s_i, q)`,
    /// never on which corner is tested first). The subtle case is the
    /// degenerate box `q ≤ 2·PIN_TOL`, where the two pin conditions
    /// overlap and a provider can satisfy both: there each provider is
    /// assigned to the *nearer* corner (ties to the lower one), instead of
    /// letting the first-tested condition win.
    pub fn classify(s: &[f64], q: f64) -> ActiveSet {
        let mut active = ActiveSet::default();
        active.classify_into(s, q);
        active
    }

    /// [`ActiveSet::classify`] into this set's buffers (cleared first;
    /// allocation-free once they have grown to the profile's size).
    fn classify_into(&mut self, s: &[f64], q: f64) {
        self.lower.clear();
        self.interior.clear();
        self.upper.clear();
        for (i, &si) in s.iter().enumerate() {
            match Pin::of(si, q) {
                Pin::Lower => self.lower.push(i),
                Pin::Interior => self.interior.push(i),
                Pin::Upper => self.upper.push(i),
            }
        }
    }
}

/// Where one provider sits in its strategy box `[0, cap]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pin {
    /// At the lower corner, `s_i = 0`.
    Lower,
    /// Strictly inside the box.
    Interior,
    /// At the upper corner, `s_i = cap`.
    Upper,
}

impl Pin {
    /// Classifies `si` against the box `[0, cap]` with tolerance
    /// [`PIN_TOL`]: the one classifier behind [`ActiveSet::classify`]
    /// (the box `[0, q]`) and the Nash solver's active-set guess (the box
    /// `[0, min(q, v_i)]` it searches). In a degenerate box,
    /// `cap ≤ 2·PIN_TOL`, both corners are within `PIN_TOL` of each
    /// other: the provider goes to the nearer one, ties to the lower, and
    /// the interior is empty.
    pub(crate) fn of(si: f64, cap: f64) -> Pin {
        if cap <= 2.0 * PIN_TOL {
            if si <= cap - si {
                Pin::Lower
            } else {
                Pin::Upper
            }
        } else if si <= PIN_TOL {
            Pin::Lower
        } else if si >= cap - PIN_TOL {
            Pin::Upper
        } else {
            Pin::Interior
        }
    }
}

/// The Jacobian `∇u = diag(d) + A·φᵀ + B·cᵀ` in factored form, one
/// entry per provider (module docs), with the quantities its assembly
/// leaves behind for the right-hand sides. Shared by
/// [`SensitivityWorkspace`] and the Nash solver's Newton corrector, which
/// solves one more right-hand side, `−u_Ñ`, on the same block.
#[derive(Debug, Clone, Default)]
pub(crate) struct Factors {
    d: Vec<f64>,
    a: Vec<f64>,
    b: Vec<f64>,
    phi: Vec<f64>,
    c: Vec<f64>,
    /// `∂θ_i/∂s_i`.
    dtheta: Vec<f64>,
    /// `∂φ/∂µ` and `Θ_φµ` at the assembled state.
    dphi_dmu: f64,
    theta_phimu: f64,
    /// Per-provider `λ'`, `λ''` and `a = −m'` between the two assembly
    /// passes.
    l1: Vec<f64>,
    l2: Vec<f64>,
    pop_slope: Vec<f64>,
    /// Block solves that took the dense fallback, failed ones included.
    fallbacks: u64,
}

impl Factors {
    pub(crate) fn resize(&mut self, n: usize) {
        for v in [
            &mut self.d,
            &mut self.a,
            &mut self.b,
            &mut self.phi,
            &mut self.c,
            &mut self.dtheta,
            &mut self.l1,
            &mut self.l2,
            &mut self.pop_slope,
        ] {
            v.resize(n, 0.0);
        }
    }

    /// Assembles the factors of the module docs at the profile `s` from
    /// its solved state: one pass per provider for `a`, `a'`, `λ'`, `λ''`,
    /// `φ_j`, `c_j`, `∂θ_i/∂s_i` and `d_i`, then — once the curvature
    /// `g'' = Θ_φφ − Σ m_k λ_k''` is known — one for `A_i` and `B_i`.
    /// The four derivatives come from the system's kernel, read off the
    /// state's `m_k` and `λ_k` (so `st` must be the state at `s`).
    pub(crate) fn assemble(&mut self, game: &SubsidyGame, s: &[f64], st: &SystemState) {
        let sys = game.system();
        let n = game.n();
        let (phi, g1) = (st.phi, st.dg_dphi);
        self.resize(n);
        let mut m_curv = 0.0;
        for k in 0..n {
            let (m, lam) = (st.m[k], st.lambda[k]);
            let t = game.price() - s[k];
            // The clamped region (t < 0 under clamping) freezes m_k, as in
            // the marginal utility itself. Every slope is read off the
            // state's own m_k and λ_k.
            let (a, a1) = if game.clamps_effective_price() && t < 0.0 {
                (0.0, 0.0)
            } else {
                (-sys.dm_dt_of(k, t, m), sys.d2m_dt2_of(k, t, m))
            };
            let (l1, l2) = (sys.dlambda_dphi_of(k, phi, lam), sys.d2lambda_dphi2_of(k, phi, lam));
            let w = game.profitability(k) - s[k];
            self.phi[k] = lam * a / g1;
            self.c[k] = l1 * a;
            self.dtheta[k] = a * lam + m * l1 * self.phi[k];
            self.d[k] =
                -a * lam - self.dtheta[k] + w * (a1 * lam + (a * a + m * a1) * lam * l1 / g1);
            m_curv += m * l2;
            (self.l1[k], self.l2[k], self.pop_slope[k]) = (l1, l2, a);
        }
        let util = sys.utilization_fn();
        let g2 = util.d2theta_dphi2(phi, sys.mu()) - m_curv;
        for i in 0..n {
            let (m, lam, l1, l2, a) =
                (st.m[i], st.lambda[i], self.l1[i], self.l2[i], self.pop_slope[i]);
            let w = game.profitability(i) - s[i];
            self.b[i] = w * m * a * lam * l1 / (g1 * g1);
            self.a[i] = -m * l1
                + w * a * (l1 + m * (l1 * l1 + lam * l2) / g1 - m * lam * l1 * g2 / (g1 * g1));
        }
        self.dphi_dmu = -util.dtheta_dmu(phi, sys.mu()) / g1;
        self.theta_phimu = util.d2theta_dphi_dmu(phi, sys.mu());
    }

    /// Solves the block on `idx` (rows and columns) against `rhs` into
    /// `x`: Woodbury first, the dense LU when Woodbury refuses (counted
    /// in [`Factors::dense_fallbacks`]).
    ///
    /// # Errors
    /// A singular block.
    pub(crate) fn solve(&mut self, idx: &[usize], rhs: &[f64], x: &mut [f64]) -> NumResult<()> {
        if !self.woodbury(idx, rhs, x) {
            self.fallbacks += 1;
            self.dense(idx, rhs, x)?;
        }
        Ok(())
    }

    /// How many block solves took the dense fallback.
    pub(crate) fn dense_fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// `∂φ/∂s_j` at the assembled state.
    pub(crate) fn dphi_ds(&self, j: usize) -> f64 {
        self.phi[j]
    }

    /// `∂u_i/∂s_j`.
    pub(crate) fn entry(&self, i: usize, j: usize) -> f64 {
        let diag = if i == j { self.d[i] } else { 0.0 };
        diag + self.a[i] * self.phi[j] + self.b[i] * self.c[j]
    }

    /// The structural fallback: assembles the block on `idx` (rows and
    /// columns) densely and solves it by LU.
    fn dense(&self, idx: &[usize], rhs: &[f64], x: &mut [f64]) -> NumResult<()> {
        let k = idx.len();
        let block = Matrix::from_fn(k, k, |r, s| self.entry(idx[r], idx[s]));
        x.copy_from_slice(&LuDecomposition::new(&block)?.solve(rhs)?);
        Ok(())
    }

    /// `x = D⁻¹r − D⁻¹U·C⁻¹·Vᵀ·D⁻¹r` with `U = [A B]`, `V = [φ c]` and the
    /// capacitance `C = I₂ + Vᵀ·D⁻¹·U`, restricted to `idx`. Returns
    /// `false`, leaving `x` unspecified, when a diagonal pivot or the
    /// capacitance is unusable or the answer fails the residual check.
    fn woodbury(&self, idx: &[usize], rhs: &[f64], x: &mut [f64]) -> bool {
        let (mut c00, mut c01, mut c10, mut c11) = (1.0, 0.0, 0.0, 1.0);
        let (mut z0, mut z1) = (0.0, 0.0);
        for (slot, &i) in idx.iter().enumerate() {
            let d = self.d[i];
            if d == 0.0 || !d.is_finite() {
                return false;
            }
            let (p, q, y) = (self.a[i] / d, self.b[i] / d, rhs[slot] / d);
            c00 += self.phi[i] * p;
            c01 += self.phi[i] * q;
            c10 += self.c[i] * p;
            c11 += self.c[i] * q;
            z0 += self.phi[i] * y;
            z1 += self.c[i] * y;
            x[slot] = y;
        }
        let det = c00 * c11 - c01 * c10;
        if det == 0.0 || !det.is_finite() {
            return false;
        }
        let w0 = (c11 * z0 - c01 * z1) / det;
        let w1 = (c00 * z1 - c10 * z0) / det;
        for (slot, &i) in idx.iter().enumerate() {
            x[slot] -= (self.a[i] * w0 + self.b[i] * w1) / self.d[i];
        }
        self.residual_ok(idx, rhs, x)
    }

    /// Whether `x` solves the block to [`WOODBURY_RESIDUAL_TOL`] of the
    /// largest magnitude entering the residual (false on any non-finite
    /// term).
    fn residual_ok(&self, idx: &[usize], rhs: &[f64], x: &[f64]) -> bool {
        let (mut phi_x, mut c_x, mut phi_abs, mut c_abs) = (0.0, 0.0, 0.0, 0.0);
        for (slot, &i) in idx.iter().enumerate() {
            phi_x += self.phi[i] * x[slot];
            c_x += self.c[i] * x[slot];
            phi_abs += (self.phi[i] * x[slot]).abs();
            c_abs += (self.c[i] * x[slot]).abs();
        }
        let (mut worst, mut scale, mut finite) = (0.0f64, 0.0f64, true);
        for (slot, &i) in idx.iter().enumerate() {
            let dx = self.d[i] * x[slot];
            let res = dx + self.a[i] * phi_x + self.b[i] * c_x - rhs[slot];
            finite &= res.is_finite();
            worst = worst.max(res.abs());
            scale = scale.max(
                dx.abs() + self.a[i].abs() * phi_abs + self.b[i].abs() * c_abs + rhs[slot].abs(),
            );
        }
        finite && worst <= WOODBURY_RESIDUAL_TOL * scale
    }
}

/// Reusable state of the structured Theorem 6 engine (module docs): the
/// state-solve buffers, the active set, the degeneracy verdict, the
/// Jacobian factors and the right-hand-side and solution buffers.
///
/// [`SensitivityWorkspace::factor`] does the one state solve per
/// equilibrium, and [`SensitivityWorkspace::factor_at`] factors from a
/// state the caller already holds; [`SensitivityWorkspace::solve_into`]
/// then answers any number of axes from the same factors. After warm-up
/// (one call per game size) none of them allocates — pinned in
/// `tests/alloc_free.rs`.
#[derive(Debug, Clone, Default)]
pub struct SensitivityWorkspace {
    m: Vec<f64>,
    scratch: StateScratch,
    state: SystemState,
    active: ActiveSet,
    /// `u_i` of the first pinned provider violating strict
    /// complementarity, if any.
    degenerate: Option<f64>,
    jac: Factors,
    rhs: Vec<f64>,
    sol: Vec<f64>,
}

impl SensitivityWorkspace {
    /// Creates an empty workspace; buffers size themselves on first use
    /// and only ever grow, so one workspace serves games of any size.
    pub fn new() -> SensitivityWorkspace {
        SensitivityWorkspace::default()
    }

    /// Factors Theorem 6 at the equilibrium `s` of `game`: solves the
    /// congestion state at `s` cold (the state a solve leaves behind at
    /// its answer, see [`SensitivityWorkspace::factor_at`]) and factors
    /// there. Returns whether the equilibrium is regular.
    pub fn factor(&mut self, game: &SubsidyGame, s: &[f64]) -> NumResult<bool> {
        // Detach the state buffer so `factor_at` can read it while the
        // rest of the workspace is written; `mem::take` swaps in an empty
        // state (no allocation).
        let mut state = std::mem::take(&mut self.state);
        let result = game
            .state_into(s, f64::NAN, &mut self.m, &mut self.scratch, &mut state)
            .and_then(|()| self.factor_at(game, s, &state));
        self.state = state;
        result
    }

    /// Factors Theorem 6 at the equilibrium `s` of `game` from its solved
    /// congestion `state`: validates the profile, classifies its active
    /// set, takes the degeneracy verdict from the pinned providers'
    /// marginal utilities on that state (exactly as
    /// [`SubsidyGame::marginal_utilities`] computes them) and assembles
    /// the Jacobian factors. Returns whether the equilibrium is regular.
    ///
    /// No state solve: a caller that already holds the state at `s`
    /// passes it in. Every solve ends by solving the state at its answer
    /// cold, so the state an [`EqSnapshot`](crate::snapshot::EqSnapshot)
    /// captured is bit-identical to the one [`SensitivityWorkspace::factor`]
    /// would solve, and so are the verdict and the factors.
    ///
    /// # Errors
    /// An invalid profile, or a state for a different number of providers.
    pub fn factor_at(
        &mut self,
        game: &SubsidyGame,
        s: &[f64],
        state: &SystemState,
    ) -> NumResult<bool> {
        game.validate(s)?;
        if state.n() != game.n() {
            return Err(NumError::DimensionMismatch { expected: game.n(), actual: state.n() });
        }
        self.active.classify_into(s, game.cap());
        self.degenerate = self
            .active
            .lower
            .iter()
            .chain(&self.active.upper)
            .map(|&i| game.marginal_utility_at_state(i, s, state))
            .find(|u| u.abs() <= DEGENERATE_U_TOL);
        self.jac.assemble(game, s, state);
        Ok(self.degenerate.is_none())
    }

    /// The active set of the last factored equilibrium.
    pub fn active(&self) -> &ActiveSet {
        &self.active
    }

    /// How many interior solves took the dense fallback (module docs)
    /// over this workspace's lifetime, failed ones included.
    pub fn dense_fallbacks(&self) -> u64 {
        self.jac.dense_fallbacks()
    }

    /// The full `n × n` Jacobian `∇u` of the last factored equilibrium,
    /// assembled densely from the factors — O(n²), for oracles and
    /// diagnostics; the solves never form it.
    pub fn jacobian(&self) -> Matrix {
        let n = self.jac.d.len();
        Matrix::from_fn(n, n, |i, j| self.jac.entry(i, j))
    }

    /// `∂s/∂θ` at the last factored equilibrium, written into `out`
    /// (resized to `n`): pinned-at-0 providers do not move, pinned-at-`q`
    /// providers move one-for-one with the cap and not at all along any
    /// other axis, and the interior solves `∂s̃/∂θ = −Ψ ∂ũ/∂θ`. A
    /// degenerate equilibrium is differentiated as if regular (the
    /// one-sided reading [`Sensitivity::compute`] reports with
    /// `regular = false`); [`SensitivityWorkspace::directional_into`] is
    /// the refusing entry point.
    ///
    /// # Errors
    /// An out-of-range [`Axis::Profitability`] index, a singular interior
    /// block, or a non-finite derivative.
    pub fn solve_into(&mut self, axis: Axis, out: &mut Vec<f64>) -> NumResult<()> {
        let n = self.jac.d.len();
        if let Axis::Profitability(j) = axis {
            if j >= n {
                return Err(NumError::DimensionMismatch { expected: n, actual: j });
            }
        }
        out.clear();
        out.resize(n, 0.0);
        let active = &self.active;
        if axis == Axis::Cap {
            for &i in &active.upper {
                out[i] = 1.0;
            }
        }
        // Interior providers are the only ones that move through Ψ — and
        // along the cap axis the right-hand side is identically zero when
        // nobody pins at q.
        if active.interior.is_empty() || (axis == Axis::Cap && active.upper.is_empty()) {
            return Ok(());
        }
        let f = &self.jac;
        self.rhs.clear();
        match axis {
            Axis::Price => {
                let (sum_phi, sum_c) = (f.phi.iter().sum::<f64>(), f.c.iter().sum::<f64>());
                self.rhs.extend(
                    active
                        .interior
                        .iter()
                        .map(|&i| -(f.d[i] + f.a[i] * sum_phi + f.b[i] * sum_c) - f.dtheta[i]),
                );
            }
            Axis::Cap => {
                let sum_phi: f64 = active.upper.iter().map(|&j| f.phi[j]).sum();
                let sum_c: f64 = active.upper.iter().map(|&j| f.c[j]).sum();
                self.rhs.extend(active.interior.iter().map(|&i| f.a[i] * sum_phi + f.b[i] * sum_c));
            }
            Axis::Mu => {
                let (dphi, cross) = (f.dphi_dmu, f.theta_phimu);
                self.rhs.extend(active.interior.iter().map(|&i| f.a[i] * dphi - f.b[i] * cross));
            }
            Axis::Profitability(j) => {
                self.rhs.extend(active.interior.iter().map(
                    |&i| {
                        if i == j {
                            f.dtheta[i]
                        } else {
                            0.0
                        }
                    },
                ))
            }
        }
        self.sol.clear();
        self.sol.resize(self.rhs.len(), 0.0);
        self.jac.solve(&active.interior, &self.rhs, &mut self.sol)?;
        for (&x, &i) in self.sol.iter().zip(&active.interior) {
            if !x.is_finite() {
                return Err(NumError::NonFinite { what: "Theorem 6 derivative", at: x });
            }
            out[i] = -x;
        }
        Ok(())
    }

    /// [`Sensitivity::directional`] into caller-owned buffers: factors
    /// the equilibrium, refuses a degenerate one with the same domain
    /// error, and solves along `axis` into `out`. Allocation-free once
    /// warm.
    pub fn directional_into(
        &mut self,
        game: &SubsidyGame,
        s: &[f64],
        axis: Axis,
        out: &mut Vec<f64>,
    ) -> NumResult<()> {
        axis.validate(game)?;
        if !self.factor(game, s)? {
            return Err(NumError::Domain {
                what: "degenerate equilibrium: pinned provider with u_i = 0 \
                       (strict complementarity fails; derivatives are one-sided)",
                value: self.degenerate.unwrap_or(f64::NAN),
            });
        }
        self.solve_into(axis, out)
    }
}

/// Theorem 6 sensitivities at an equilibrium.
#[derive(Debug, Clone, PartialEq)]
pub struct Sensitivity {
    /// Active-set partition used.
    pub active: ActiveSet,
    /// `∂s_i/∂q` per provider.
    pub ds_dq: Vec<f64>,
    /// `∂s_i/∂p` per provider.
    pub ds_dp: Vec<f64>,
    /// Whether strict complementarity held (no pinned provider with
    /// `u_i ≈ 0`); when false the derivatives are one-sided at best.
    pub regular: bool,
}

impl Sensitivity {
    /// Computes Theorem 6's formulas at the (solved) equilibrium `s` on
    /// the structured engine ([`SensitivityWorkspace`]): one state solve,
    /// both columns from the same factors.
    pub fn compute(game: &SubsidyGame, s: &[f64]) -> NumResult<Sensitivity> {
        let mut ws = SensitivityWorkspace::new();
        let regular = ws.factor(game, s)?;
        let (mut ds_dq, mut ds_dp) = (Vec::new(), Vec::new());
        ws.solve_into(Axis::Cap, &mut ds_dq)?;
        ws.solve_into(Axis::Price, &mut ds_dp)?;
        Ok(Sensitivity { active: ws.active, ds_dq, ds_dp, regular })
    }

    /// The Theorem 6 directional derivative `∂s/∂θ` of the equilibrium
    /// along an arbitrary parameter axis `θ` — the generalization of
    /// [`Sensitivity::compute`]'s `ds_dq`/`ds_dp` columns to the capacity
    /// `µ` (Theorem 1 direction) and per-provider profitabilities `v_j`
    /// (Theorem 5 direction): the equilibrium's comparative statics along
    /// that parameter, served as a product (the `exp` server's
    /// sensitivity reads), never as a solver start.
    ///
    /// Structure per Theorem 6: providers pinned at `s_i = 0` do not move
    /// (`∂s_i/∂θ = 0`); providers pinned at `s_i = q` move one-for-one
    /// with the cap (`∂s_i/∂q = 1`) and not at all with any other axis;
    /// interior providers solve `∂s̃/∂θ = −Ψ ∂ũ/∂θ` with
    /// `Ψ = (∇_s̃ ũ)^{-1}`. For [`Axis::Cap`] and [`Axis::Price`] the
    /// result is bit-identical to `compute`'s `ds_dq`/`ds_dp` (same
    /// engine, same factors). Resident callers should hold a
    /// [`SensitivityWorkspace`] and call
    /// [`SensitivityWorkspace::directional_into`] instead, which is this
    /// without the per-call buffers.
    ///
    /// # Errors
    /// A degenerate equilibrium — a pinned provider with `u_i ≈ 0`,
    /// violating strict complementarity — is refused with a domain error
    /// rather than silently differentiated: its one-sided derivative is
    /// wrong on one side.
    pub fn directional(game: &SubsidyGame, s: &[f64], axis: Axis) -> NumResult<Vec<f64>> {
        let mut ds = Vec::new();
        SensitivityWorkspace::new().directional_into(game, s, axis, &mut ds)?;
        Ok(ds)
    }

    /// The finite-difference marginal-utility shift `∂u/∂θ` along `axis`
    /// at the profile `s` — the FD oracle for the structured engine's
    /// analytic right-hand sides: a central difference of
    /// [`SubsidyGame::marginal_utilities`] on a clone of `game` moved to
    /// `θ₀ ± h`, the lower probe clipped to the axis' domain.
    ///
    /// # Errors
    /// [`Axis::Cap`] is refused — the cap moves the feasible box, not
    /// the marginal utilities, so it has no FD leg (its Theorem 6
    /// right-hand side is a Jacobian column sum instead).
    pub fn axis_shift(game: &SubsidyGame, s: &[f64], axis: Axis) -> NumResult<Vec<f64>> {
        if axis == Axis::Cap {
            return Err(NumError::Domain {
                what: "the cap axis has no finite-difference leg \
                       (it moves the box, not the marginal utilities)",
                value: f64::NAN,
            });
        }
        axis.validate(game)?;
        let theta0 = axis.value(game);
        // Respect each axis' domain: price/profitability live on
        // [0, ∞), capacity on (0, ∞).
        let h = match axis {
            Axis::Mu => (1e-6 * (1.0 + theta0)).min(0.5 * theta0),
            _ => 1e-6 * (1.0 + theta0),
        };
        let hi = theta0 + h;
        let lo = (theta0 - h).max(if axis == Axis::Mu { 0.5 * theta0 } else { 0.0 });
        let mut probe = game.clone();
        axis.apply(&mut probe, hi)?;
        let up = probe.marginal_utilities(s)?;
        axis.apply(&mut probe, lo)?;
        let um = probe.marginal_utilities(s)?;
        let denom = hi - lo;
        Ok(up.iter().zip(&um).map(|(u, m)| (u - m) / denom).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nash::NashSolver;
    use subcomp_model::aggregation::{build_system, ExpCpSpec};

    fn paper_game(p: f64, q: f64) -> SubsidyGame {
        let mut specs = Vec::new();
        for &v in &[0.5, 1.0] {
            for &alpha in &[2.0, 5.0] {
                for &beta in &[2.0, 5.0] {
                    specs.push(ExpCpSpec::unit(alpha, beta, v));
                }
            }
        }
        SubsidyGame::new(build_system(&specs, 1.0).unwrap(), p, q).unwrap()
    }

    fn solve(game: &SubsidyGame) -> Vec<f64> {
        NashSolver::default().with_tol(1e-10).solve(game).unwrap().subsidies
    }

    #[test]
    fn active_set_classification() {
        let a = ActiveSet::classify(&[0.0, 0.5, 1.0, 1e-9, 1.0 - 1e-9], 1.0);
        assert_eq!(a.lower, vec![0, 3]);
        assert_eq!(a.interior, vec![1]);
        assert_eq!(a.upper, vec![2, 4]);
    }

    #[test]
    fn degenerate_box_classification_is_total_and_order_independent() {
        // q ≤ 2·PIN_TOL: both pin conditions overlap, so a provider can
        // satisfy both. The classification must still assign each index to
        // exactly one set, by corner proximity (ties to lower) rather than
        // by whichever condition happens to be tested first.
        let q = 1e-8;
        let s = [0.0, 1e-8, 4e-9, 6e-9, 5e-9];
        let a = ActiveSet::classify(&s, q);
        assert_eq!(a.lower, vec![0, 2, 4], "nearer (or tied with) the 0 corner");
        assert_eq!(a.upper, vec![1, 3], "strictly nearer the q corner");
        assert!(a.interior.is_empty(), "a degenerate box has no interior");
        let total = a.lower.len() + a.interior.len() + a.upper.len();
        assert_eq!(total, s.len(), "classification must be total");
        let mut all: Vec<usize> =
            a.lower.iter().chain(&a.interior).chain(&a.upper).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), s.len(), "no index may appear in two sets");
        // q = 0 exactly: everyone sits on both corners at once; ties go low.
        let z = ActiveSet::classify(&[0.0, 0.0], 0.0);
        assert_eq!(z.lower, vec![0, 1]);
        assert!(z.upper.is_empty() && z.interior.is_empty());
    }

    #[test]
    fn sensitivity_computes_on_a_degenerate_box_equilibrium() {
        // Regression at q ≈ 0: before the proximity rule, classification
        // near the overlapping corners depended on test order; Theorem 6's
        // formulas must still come out total and finite here.
        let game = paper_game(0.6, 1e-8);
        let s = solve(&game);
        let sens = Sensitivity::compute(&game, &s).unwrap();
        assert!(sens.active.interior.is_empty());
        assert_eq!(
            sens.active.lower.len() + sens.active.upper.len(),
            8,
            "every provider classified exactly once"
        );
        for &i in &sens.active.upper {
            assert_eq!(sens.ds_dq[i], 1.0);
        }
        for &i in &sens.active.lower {
            assert_eq!(sens.ds_dq[i], 0.0);
        }
    }

    #[test]
    fn ds_dq_matches_finite_difference_of_equilibria() {
        // A setting with all three sets populated: moderate price, cap
        // binding for the most aggressive CPs.
        let q = 0.35;
        let game = paper_game(0.6, q);
        let s = solve(&game);
        let sens = Sensitivity::compute(&game, &s).unwrap();
        let h = 1e-4;
        let s_hi = solve(&game.with_cap(q + h).unwrap());
        let s_lo = solve(&game.with_cap(q - h).unwrap());
        for i in 0..8 {
            let fd = (s_hi[i] - s_lo[i]) / (2.0 * h);
            assert!(
                (sens.ds_dq[i] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "CP {i}: theorem {} vs fd {fd} (active: {:?})",
                sens.ds_dq[i],
                sens.active
            );
        }
    }

    #[test]
    fn ds_dp_matches_finite_difference_of_equilibria() {
        let p = 0.9;
        let game = paper_game(p, 1.0);
        let s = solve(&game);
        let sens = Sensitivity::compute(&game, &s).unwrap();
        let h = 1e-4;
        let s_hi = solve(&game.with_price(p + h).unwrap());
        let s_lo = solve(&game.with_price(p - h).unwrap());
        for i in 0..8 {
            let fd = (s_hi[i] - s_lo[i]) / (2.0 * h);
            assert!(
                (sens.ds_dp[i] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "CP {i}: theorem {} vs fd {fd}",
                sens.ds_dp[i]
            );
        }
    }

    #[test]
    fn pinned_at_cap_moves_one_for_one_with_q() {
        // Small p, small q: everyone profitable is pinned; Theorem 6 says
        // ds/dq = 1 for them.
        let game = paper_game(0.2, 0.1);
        let s = solve(&game);
        let sens = Sensitivity::compute(&game, &s).unwrap();
        assert!(!sens.active.upper.is_empty());
        for &i in &sens.active.upper {
            assert_eq!(sens.ds_dq[i], 1.0);
        }
        for &i in &sens.active.lower {
            assert_eq!(sens.ds_dq[i], 0.0);
            assert_eq!(sens.ds_dp[i], 0.0);
        }
    }

    #[test]
    fn corollary1_nonnegative_ds_dq() {
        // Under off-diagonal monotonicity (checked in structure tests for
        // this game), Corollary 1 gives ds/dq >= 0 for every provider.
        for (p, q) in [(0.4, 0.3), (0.6, 0.35), (0.8, 0.5)] {
            let game = paper_game(p, q);
            let s = solve(&game);
            let sens = Sensitivity::compute(&game, &s).unwrap();
            for i in 0..8 {
                assert!(sens.ds_dq[i] >= -1e-8, "(p={p}, q={q}) CP {i}: ds/dq = {}", sens.ds_dq[i]);
            }
        }
    }

    #[test]
    fn regularity_flag_on_clean_equilibrium() {
        let game = paper_game(0.6, 0.35);
        let s = solve(&game);
        let sens = Sensitivity::compute(&game, &s).unwrap();
        assert!(sens.regular, "paper equilibrium should satisfy strict complementarity");
    }

    #[test]
    fn directional_matches_compute_on_price_and_cap() {
        let game = paper_game(0.6, 0.35);
        let s = solve(&game);
        let sens = Sensitivity::compute(&game, &s).unwrap();
        assert!(sens.regular);
        let dq = Sensitivity::directional(&game, &s, Axis::Cap).unwrap();
        let dp = Sensitivity::directional(&game, &s, Axis::Price).unwrap();
        // Same Jacobian, same LU, same right-hand sides — bit-identical.
        assert_eq!(dq, sens.ds_dq);
        assert_eq!(dp, sens.ds_dp);
    }

    #[test]
    fn ds_dmu_matches_finite_difference_of_equilibria() {
        // Theorem 1's comparative statics through the Theorem 6 system:
        // the directional derivative along µ must match re-solved
        // equilibria at perturbed capacities.
        let game = paper_game(0.6, 0.35);
        let s = solve(&game);
        let ds = Sensitivity::directional(&game, &s, Axis::Mu).unwrap();
        let h = 1e-4;
        let s_hi = solve(&game.with_mu(1.0 + h).unwrap());
        let s_lo = solve(&game.with_mu(1.0 - h).unwrap());
        for i in 0..8 {
            let fd = (s_hi[i] - s_lo[i]) / (2.0 * h);
            assert!(
                (ds[i] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "CP {i}: theorem {} vs fd {fd}",
                ds[i]
            );
        }
    }

    #[test]
    fn ds_dv_matches_finite_difference_of_equilibria() {
        // Theorem 5's direction: bump one provider's profitability and
        // compare the whole equilibrium response against the directional
        // derivative ∂s/∂v_j.
        let game = paper_game(0.6, 0.35);
        let s = solve(&game);
        let sens = Sensitivity::compute(&game, &s).unwrap();
        let h = 1e-4;
        // One interior provider (its own subsidy responds) and one pinned
        // provider (its neighbours still respond through the Jacobian).
        let mut probes = Vec::new();
        if let Some(&j) = sens.active.interior.first() {
            probes.push(j);
        }
        if let Some(&j) = sens.active.upper.first() {
            probes.push(j);
        }
        assert!(!probes.is_empty(), "test setting must populate at least one probe set");
        for j in probes {
            let ds = Sensitivity::directional(&game, &s, Axis::Profitability(j)).unwrap();
            let v = game.profitability(j);
            let s_hi = solve(&game.with_profitability(j, v + h).unwrap());
            let s_lo = solve(&game.with_profitability(j, v - h).unwrap());
            for i in 0..8 {
                let fd = (s_hi[i] - s_lo[i]) / (2.0 * h);
                assert!(
                    (ds[i] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                    "v[{j}], CP {i}: theorem {} vs fd {fd}",
                    ds[i]
                );
            }
        }
    }

    #[test]
    fn directional_rejects_degenerate_equilibrium() {
        // Build a genuinely degenerate equilibrium: solve an interior best
        // response, then set the cap exactly there — the provider is
        // pinned at q with u_i ≈ 0, violating strict complementarity.
        use subcomp_model::aggregation::ExpCpSpec;
        let sys = build_system(&[ExpCpSpec::unit(8.0, 2.0, 1.0)], 1.0).unwrap();
        let free = SubsidyGame::new(sys.clone(), 1.0, 2.0).unwrap();
        let s_star = NashSolver::default().with_tol(1e-10).solve(&free).unwrap().subsidies[0];
        assert!(s_star > 0.1 && s_star < 2.0 - 0.1, "interior by construction");
        let pinned = SubsidyGame::new(sys, 1.0, s_star).unwrap();
        let s = solve(&pinned);
        assert!((s[0] - s_star).abs() < 1e-6, "the cap now binds exactly at the old optimum");
        // compute() flags it; directional() refuses to differentiate it.
        let sens = Sensitivity::compute(&pinned, &s).unwrap();
        assert!(!sens.regular, "pinned provider with u = 0 must be flagged degenerate");
        for axis in [Axis::Cap, Axis::Price, Axis::Mu, Axis::Profitability(0)] {
            let err = Sensitivity::directional(&pinned, &s, axis);
            assert!(err.is_err(), "degenerate equilibrium must error along {}", axis.describe());
        }
        // The workspace's factor() gives the same verdict and the
        // partition instead of an error — the path the serving layer's
        // typed degenerate reply takes.
        let mut ws = SensitivityWorkspace::new();
        assert!(!ws.factor(&pinned, &s).unwrap(), "degenerate equilibrium must be detected");
        assert_eq!(ws.active(), &ActiveSet::classify(&s, pinned.cap()));
        assert!(ws.active().upper.contains(&0), "the pinned provider sits in N+");
        // A regular equilibrium factors as regular.
        assert!(ws.factor(&free, &solve(&free)).unwrap());
    }

    #[test]
    fn directional_validates_inputs() {
        let game = paper_game(0.6, 0.35);
        let s = solve(&game);
        assert!(Sensitivity::directional(&game, &s, Axis::Profitability(99)).is_err());
        assert!(Sensitivity::directional(&game, &[0.0; 3], Axis::Mu).is_err());
    }

    #[test]
    fn all_interior_case_has_zero_dq_except_psi_terms() {
        // Large cap: nobody pinned at q; N+ empty makes ds/dq = 0 for
        // interior providers (Theorem 6 with empty sum).
        let game = paper_game(0.9, 2.0);
        let s = solve(&game);
        let sens = Sensitivity::compute(&game, &s).unwrap();
        assert!(sens.active.upper.is_empty());
        for &i in &sens.active.interior {
            assert!(sens.ds_dq[i].abs() < 1e-9);
        }
    }

    // --- The structured engine on synthetic factors -------------------

    fn factors(d: &[f64], a: &[f64], b: &[f64], phi: &[f64], c: &[f64]) -> Factors {
        let mut f = Factors::default();
        refill(&mut f, d, a, b, phi, c);
        f
    }

    /// Overwrites the five factor vectors, keeping the fallback count.
    fn refill(f: &mut Factors, d: &[f64], a: &[f64], b: &[f64], phi: &[f64], c: &[f64]) {
        (f.d, f.a, f.b, f.phi, f.c) =
            (d.to_vec(), a.to_vec(), b.to_vec(), phi.to_vec(), c.to_vec());
    }

    fn dense_solution(f: &Factors, idx: &[usize], rhs: &[f64]) -> NumResult<Vec<f64>> {
        let mut x = vec![0.0; rhs.len()];
        f.dense(idx, rhs, &mut x)?;
        Ok(x)
    }

    #[test]
    fn woodbury_matches_the_dense_block_on_synthetic_factors() {
        use crate::structure::SplitMix64;
        let mut rng = SplitMix64::new(5);
        let mut draw = |lo: f64, hi: f64| lo + (hi - lo) * rng.next_f64();
        for n in [1usize, 2, 5, 17] {
            for _ in 0..20 {
                let d: Vec<f64> = (0..n).map(|_| draw(-3.0, -0.5)).collect();
                let mut rank_one = || (0..n).map(|_| draw(-0.3, 0.3)).collect::<Vec<f64>>();
                let f = factors(&d, &rank_one(), &rank_one(), &rank_one(), &rank_one());
                // Every other provider, as an interior set would pick them.
                let idx: Vec<usize> = (0..n).filter(|i| n < 3 || i % 2 == 0).collect();
                let rhs: Vec<f64> = idx.iter().map(|_| draw(-1.0, 1.0)).collect();
                let mut x = vec![0.0; idx.len()];
                assert!(f.woodbury(&idx, &rhs, &mut x), "well-conditioned block refused");
                let dense = dense_solution(&f, &idx, &rhs).unwrap();
                for (w, l) in x.iter().zip(&dense) {
                    assert!((w - l).abs() <= 1e-12 * (1.0 + l.abs()), "n {n}: {w} vs {l}");
                }
            }
        }
    }

    #[test]
    fn unusable_woodbury_pivots_fall_back_to_the_dense_block() {
        let idx = [0usize, 1];
        let rhs = [2.0, 3.0];
        let mut x = [0.0; 2];
        // A zero diagonal entry whose rank-two part makes the block I.
        let zero = factors(&[0.0, 1.0], &[1.0, 0.0], &[0.0, 0.0], &[1.0, 0.0], &[0.0, 0.0]);
        assert!(!zero.woodbury(&idx, &rhs, &mut x));
        assert_eq!(dense_solution(&zero, &idx, &rhs).unwrap(), vec![2.0, 3.0]);
        // A non-finite diagonal entry.
        let nan = factors(&[f64::NAN, 1.0], &[1.0, 0.0], &[0.0, 0.0], &[1.0, 0.0], &[0.0, 0.0]);
        assert!(!nan.woodbury(&idx, &rhs, &mut x));
        // A diagonal tiny next to the rank-two part: the block is ~I, but
        // Woodbury cancels to the wrong answer; the residual check refuses
        // it and the dense block solves it.
        let tiny = factors(&[1e-30, 1e-30], &[1.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]);
        assert!(!tiny.woodbury(&idx, &rhs, &mut x));
        let dense = dense_solution(&tiny, &idx, &rhs).unwrap();
        assert!((dense[0] - 2.0).abs() < 1e-12 && (dense[1] - 3.0).abs() < 1e-12);
        // A singular capacitance with an invertible diagonal means a
        // singular block: the fallback reports it instead of guessing.
        let singular = factors(&[1.0, 1.0], &[1.0, 0.0], &[0.0, 0.0], &[-1.0, 0.0], &[0.0, 0.0]);
        assert!(!singular.woodbury(&idx, &rhs, &mut x));
        assert!(matches!(
            dense_solution(&singular, &idx, &rhs),
            Err(NumError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn the_workspace_counts_dense_fallbacks() {
        let mut ws = SensitivityWorkspace::new();
        ws.active = ActiveSet { lower: vec![], interior: vec![0, 1], upper: vec![] };
        ws.jac = factors(&[0.0, 1.0], &[1.0, 0.0], &[0.0, 0.0], &[1.0, 0.0], &[0.0, 0.0]);
        ws.jac.dtheta = vec![2.0, 3.0];
        let mut out = Vec::new();
        // ∂u/∂v_1 = (0, 3) against ∇ũ = I.
        ws.solve_into(Axis::Profitability(1), &mut out).unwrap();
        assert_eq!(out, vec![0.0, -3.0]);
        assert_eq!(ws.dense_fallbacks(), 1);
        // A usable diagonal does not count.
        refill(&mut ws.jac, &[-1.0, -2.0], &[0.0, 0.0], &[0.0, 0.0], &[0.0, 0.0], &[0.0, 0.0]);
        ws.solve_into(Axis::Profitability(1), &mut out).unwrap();
        assert_eq!(out, vec![0.0, 1.5]);
        assert_eq!(ws.dense_fallbacks(), 1);
        // A singular block is a typed error, and still counted.
        refill(&mut ws.jac, &[1.0, 1.0], &[1.0, 0.0], &[0.0, 0.0], &[-1.0, 0.0], &[0.0, 0.0]);
        assert!(ws.solve_into(Axis::Profitability(0), &mut out).is_err());
        assert_eq!(ws.dense_fallbacks(), 2);
    }

    #[test]
    fn structured_jacobian_matches_the_fd_oracle() {
        // All three active sets populated. The structured factors agree
        // with central differences of the analytic u on the interior
        // columns; a pinned column is a one-sided difference, whose O(h)
        // error (h ≈ 1e-6) sets its looser bound. The Woodbury path
        // serves every axis.
        use crate::structure::marginal_utility_jacobian;
        let game = paper_game(0.6, 0.35);
        let s = solve(&game);
        let mut ws = SensitivityWorkspace::new();
        assert!(ws.factor(&game, &s).unwrap());
        let (structured, fd) = (ws.jacobian(), marginal_utility_jacobian(&game, &s).unwrap());
        let interior = ws.active().interior.clone();
        assert!(interior.len() >= 2 && interior.len() < 8, "{:?}", ws.active());
        for i in 0..8 {
            for j in 0..8 {
                let (a, b) = (structured[(i, j)], fd[(i, j)]);
                let rtol = if interior.contains(&j) { 1e-6 } else { 1e-4 };
                assert!((a - b).abs() <= rtol * b.abs() + 1e-9, "({i}, {j}): {a} vs fd {b}");
            }
        }
        let mut out = Vec::new();
        for axis in [Axis::Cap, Axis::Price, Axis::Mu, Axis::Profitability(3)] {
            ws.solve_into(axis, &mut out).unwrap();
            assert_eq!(out, Sensitivity::directional(&game, &s, axis).unwrap());
        }
        assert_eq!(ws.dense_fallbacks(), 0);
    }
}
