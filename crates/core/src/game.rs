//! The subsidization game in strategic form (Definition 3).
//!
//! Given the ISP's uniform price `p` and the regulator's cap `q`, each CP
//! `i` chooses a per-unit subsidy `s_i ∈ [0, q]`. Users of CP `i` face the
//! effective price `t_i = p − s_i`, populations respond (`m_i(t_i)`,
//! Assumption 2), the network re-equilibrates (Definition 1), and CP `i`
//! earns `U_i(s) = (v_i − s_i) θ_i(s)`.
//!
//! The marginal utility
//!
//! ```text
//! u_i(s) = ∂U_i/∂s_i = −θ_i + (v_i − s_i) ∂θ_i/∂s_i,
//! ∂θ_i/∂s_i = (∂m_i/∂s_i) λ_i + m_i λ_i'(φ) ∂φ/∂s_i,
//! ∂φ/∂s_i = (dg/dφ)^{-1} λ_i (∂m_i/∂s_i),      ∂m_i/∂s_i = −m_i'(t_i) ≥ 0
//! ```
//!
//! is computed in closed form from the model primitives (and cross-checked
//! against finite differences in tests); everything in [`equilibrium`],
//! [`sensitivity`] and [`vi`] builds on it.
//!
//! [`equilibrium`]: crate::equilibrium
//! [`sensitivity`]: crate::sensitivity
//! [`vi`]: crate::vi

use subcomp_model::cp::ContentProvider;
use subcomp_model::system::{StateScratch, System, SystemState};
use subcomp_num::{NumError, NumResult};

/// A sweepable game parameter — the axes the continuation engines
/// generalize over (Theorems 1, 5 and 6 give the comparative statics that
/// make warm starts along each of them work).
///
/// Every axis maps to an in-place scalar write on [`SubsidyGame`]
/// ([`SubsidyGame::set_price`], [`SubsidyGame::set_cap`],
/// [`SubsidyGame::set_mu`], [`SubsidyGame::set_profitability`]): the
/// precompiled congestion kernel is never rebuilt, which is what keeps a
/// warm sweep along any axis allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// The ISP's uniform price `p`.
    Price,
    /// The regulatory subsidy cap `q`.
    Cap,
    /// The ISP capacity `µ` (Theorem 1 direction).
    Mu,
    /// Provider `i`'s per-unit profitability `v_i` (Theorem 5 direction).
    Profitability(usize),
}

impl Axis {
    /// Writes `value` onto the axis' parameter — a validated scalar write,
    /// no rebuild, no allocation.
    pub fn apply(self, game: &mut SubsidyGame, value: f64) -> NumResult<()> {
        match self {
            Axis::Price => game.set_price(value),
            Axis::Cap => game.set_cap(value),
            Axis::Mu => game.set_mu(value),
            Axis::Profitability(i) => game.set_profitability(i, value),
        }
    }

    /// Checks that the axis names a parameter of `game`: an
    /// [`Axis::Profitability`] index must name one of its providers.
    pub fn validate(self, game: &SubsidyGame) -> NumResult<()> {
        match self {
            Axis::Profitability(j) if j >= game.n() => {
                Err(NumError::DimensionMismatch { expected: game.n(), actual: j })
            }
            _ => Ok(()),
        }
    }

    /// Reads the axis' current parameter value off the game.
    ///
    /// # Panics
    /// For [`Axis::Profitability`] with an out-of-range provider index.
    pub fn value(self, game: &SubsidyGame) -> f64 {
        match self {
            Axis::Price => game.price(),
            Axis::Cap => game.cap(),
            Axis::Mu => game.system().mu(),
            Axis::Profitability(i) => game.profitability(i),
        }
    }

    /// Human-readable axis name for reports and error messages.
    pub fn describe(self) -> String {
        match self {
            Axis::Price => "price p".to_string(),
            Axis::Cap => "cap q".to_string(),
            Axis::Mu => "capacity mu".to_string(),
            Axis::Profitability(i) => format!("profitability v[{i}]"),
        }
    }
}

/// The subsidization game: a system plus `(p, q)` and pricing conventions.
#[derive(Debug, Clone)]
pub struct SubsidyGame {
    system: System,
    price: f64,
    cap: f64,
    clamp_effective_price: bool,
}

impl SubsidyGame {
    /// Creates a game with ISP price `p ≥ 0` and policy cap `q ≥ 0`.
    pub fn new(system: System, price: f64, cap: f64) -> NumResult<Self> {
        if !(price >= 0.0) || !price.is_finite() {
            return Err(NumError::Domain {
                what: "price must be non-negative and finite",
                value: price,
            });
        }
        if !(cap >= 0.0) || !cap.is_finite() {
            return Err(NumError::Domain {
                what: "policy cap must be non-negative and finite",
                value: cap,
            });
        }
        Ok(SubsidyGame { system, price, cap, clamp_effective_price: false })
    }

    /// When enabled, the effective price is clamped at zero
    /// (`t_i = max(0, p − s_i)`): users are never *paid* to consume.
    /// The paper does not clamp; the default follows the paper.
    pub fn with_clamped_price(mut self, clamp: bool) -> Self {
        self.clamp_effective_price = clamp;
        self
    }

    /// Sets the ISP price in place — a scalar write, so reparameterizing a
    /// grid point costs nothing beyond validation. The underlying
    /// [`System`] (and its precompiled kernel) is untouched: price and cap
    /// live on the game, never in the congestion model, which is what
    /// makes continuation over a `(q, p)` grid allocation-free.
    pub fn set_price(&mut self, price: f64) -> NumResult<()> {
        if !(price >= 0.0) || !price.is_finite() {
            return Err(NumError::Domain {
                what: "price must be non-negative and finite",
                value: price,
            });
        }
        self.price = price;
        Ok(())
    }

    /// Sets the policy cap in place — the cap-axis counterpart of
    /// [`SubsidyGame::set_price`], with the same no-rebuild guarantee.
    pub fn set_cap(&mut self, cap: f64) -> NumResult<()> {
        if !(cap >= 0.0) || !cap.is_finite() {
            return Err(NumError::Domain {
                what: "policy cap must be non-negative and finite",
                value: cap,
            });
        }
        self.cap = cap;
        Ok(())
    }

    /// Returns a copy at a different ISP price (same cap and system).
    pub fn with_price(&self, price: f64) -> NumResult<SubsidyGame> {
        let mut game = self.clone();
        game.set_price(price)?;
        Ok(game)
    }

    /// Returns a copy under a different policy cap.
    pub fn with_cap(&self, cap: f64) -> NumResult<SubsidyGame> {
        let mut game = self.clone();
        game.set_cap(cap)?;
        Ok(game)
    }

    /// Sets the ISP capacity `µ` in place — the `µ`-axis counterpart of
    /// [`SubsidyGame::set_price`]/[`SubsidyGame::set_cap`], with the same
    /// no-rebuild, zero-allocation guarantee: the write lands on the
    /// [`System`]'s scalar capacity and its precompiled kernel is untouched
    /// (see [`System::set_mu`]).
    pub fn set_mu(&mut self, mu: f64) -> NumResult<()> {
        self.system.set_mu(mu)
    }

    /// Sets provider `i`'s profitability `v_i` in place — the Theorem 5
    /// axis as a scalar write (see [`System::set_profitability`]); the
    /// congestion kernel is untouched because `v_i` never enters the fixed
    /// point, only the utilities.
    pub fn set_profitability(&mut self, i: usize, v: f64) -> NumResult<()> {
        self.system.set_profitability(i, v)
    }

    /// Replaces whole providers in place, surgically patching the
    /// precompiled congestion kernel (see [`System::patch_cps`]): only the
    /// affected slots re-derive their cached peak and distinct-`β`
    /// assignment; results are bit-identical to rebuilding the game on the
    /// patched provider list.
    pub fn patch_cps(
        &mut self,
        patches: impl IntoIterator<Item = (usize, ContentProvider)>,
    ) -> NumResult<()> {
        self.system.patch_cps(patches)
    }

    /// Returns a copy at a different ISP capacity (same price, cap and
    /// providers) — a shim over the in-place [`SubsidyGame::set_mu`].
    pub fn with_mu(&self, mu: f64) -> NumResult<SubsidyGame> {
        let mut game = self.clone();
        game.set_mu(mu)?;
        Ok(game)
    }

    /// Returns a copy with provider `i`'s profitability replaced — the
    /// Theorem 5 experiment knob. A shim over the in-place
    /// [`SubsidyGame::set_profitability`]: the system (and its precompiled
    /// kernel) is cloned once, never rebuilt.
    pub fn with_profitability(&self, i: usize, v: f64) -> NumResult<SubsidyGame> {
        let mut game = self.clone();
        game.set_profitability(i, v)?;
        Ok(game)
    }

    /// The underlying physical system.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Number of providers.
    pub fn n(&self) -> usize {
        self.system.n()
    }

    /// The ISP's uniform price `p`.
    pub fn price(&self) -> f64 {
        self.price
    }

    /// The regulatory cap `q`.
    pub fn cap(&self) -> f64 {
        self.cap
    }

    /// Whether the non-paper clamped-price convention is enabled
    /// (see [`SubsidyGame::with_clamped_price`]). The server's game
    /// fingerprint hashes it, so the two conventions never share a cache
    /// line.
    pub fn clamps_effective_price(&self) -> bool {
        self.clamp_effective_price
    }

    /// Provider `i`'s profitability `v_i`.
    pub fn profitability(&self, i: usize) -> f64 {
        self.system.cp(i).profitability()
    }

    /// The per-provider strategy upper bound actually binding in practice:
    /// `min(q, v_i)`. A subsidy above `v_i` yields strictly negative
    /// utility whenever the provider carries traffic, so best responses
    /// never exceed it (Theorem 3's `v_i ≤ (∂θ_i/∂s_i)^{-1} θ_i` corner
    /// logic); solvers restrict their search accordingly.
    pub fn effective_cap(&self, i: usize) -> f64 {
        self.cap.min(self.profitability(i))
    }

    /// Validates a strategy profile against the box `[0, q]^N`.
    pub fn validate(&self, s: &[f64]) -> NumResult<()> {
        if s.len() != self.n() {
            return Err(NumError::DimensionMismatch { expected: self.n(), actual: s.len() });
        }
        for &si in s {
            if !si.is_finite() || si < -1e-12 || si > self.cap + 1e-12 {
                return Err(NumError::Domain { what: "subsidy outside [0, q]", value: si });
            }
        }
        Ok(())
    }

    /// Effective prices `t_i = p − s_i` (clamped at zero if configured).
    pub fn effective_prices(&self, s: &[f64]) -> Vec<f64> {
        s.iter().map(|&si| self.effective_price_of(si)).collect()
    }

    /// One provider's effective price `t = p − s` under this game's
    /// clamping convention.
    #[inline]
    pub fn effective_price_of(&self, si: f64) -> f64 {
        let t = self.price - si;
        if self.clamp_effective_price {
            t.max(0.0)
        } else {
            t
        }
    }

    /// Populations induced by the profile `s`, written into `out` — the
    /// allocation-free composition of [`SubsidyGame::effective_prices`]
    /// and [`System::populations`].
    pub(crate) fn populations_for(&self, s: &[f64], out: &mut Vec<f64>) {
        out.resize(self.n(), 0.0);
        for (j, o) in out.iter_mut().enumerate() {
            *o = self.system.cp(j).population(self.effective_price_of(s[j]));
        }
    }

    /// Solves the congestion fixed point induced by the profile `s`.
    pub fn state(&self, s: &[f64]) -> NumResult<SystemState> {
        self.validate(s)?;
        self.system.state_at_prices(&self.effective_prices(s))
    }

    /// Utility `U_i(s) = (v_i − s_i) θ_i(s)` for one provider, given the
    /// already-solved state (avoids re-solving inside tight loops).
    pub fn utility_at_state(&self, i: usize, s: &[f64], state: &SystemState) -> f64 {
        (self.profitability(i) - s[i]) * state.theta_i[i]
    }

    /// All utilities at a profile.
    pub fn utilities(&self, s: &[f64]) -> NumResult<Vec<f64>> {
        let state = self.state(s)?;
        Ok((0..self.n()).map(|i| self.utility_at_state(i, s, &state)).collect())
    }

    /// Utility of provider `i` at profile `s` (solves the fixed point).
    pub fn utility(&self, i: usize, s: &[f64]) -> NumResult<f64> {
        let state = self.state(s)?;
        Ok(self.utility_at_state(i, s, &state))
    }

    /// Analytic marginal utility `u_i(s) = ∂U_i/∂s_i` (module docs).
    pub fn marginal_utility(&self, i: usize, s: &[f64]) -> NumResult<f64> {
        let state = self.state(s)?;
        Ok(self.marginal_utility_at_state(i, s, &state))
    }

    /// Analytic marginal utility given the already-solved state.
    pub fn marginal_utility_at_state(&self, i: usize, s: &[f64], state: &SystemState) -> f64 {
        self.marginal_from_parts(
            i,
            s[i],
            state.m[i],
            state.lambda[i],
            state.theta_i[i],
            state.phi,
            state.dg_dphi,
        )
    }

    /// The marginal-utility formula of the module docs on pre-extracted
    /// state components — shared by [`SubsidyGame::marginal_utility_at_state`]
    /// and the allocation-free best-response probes so the two paths cannot
    /// drift apart numerically.
    // One scalar per state component the formula reads; bundling them into
    // a struct would just re-create SystemState by another name.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn marginal_from_parts(
        &self,
        i: usize,
        si: f64,
        m_i: f64,
        lambda_i: f64,
        theta_ii: f64,
        phi: f64,
        dg_dphi: f64,
    ) -> f64 {
        let cp = self.system.cp(i);
        let t_i = self.price - si;
        if self.clamp_effective_price && t_i < 0.0 {
            // Clamped region: m_i no longer responds to s_i; only the
            // direct margin loss remains.
            return -theta_ii;
        }
        let dm_dsi = -cp.demand().dm_dt(t_i); // >= 0
        let dphi_dsi = lambda_i * dm_dsi / dg_dphi;
        let dlambda = cp.throughput().dlambda_dphi(phi);
        let dtheta_dsi = dm_dsi * lambda_i + m_i * dlambda * dphi_dsi;
        -theta_ii + (cp.profitability() - si) * dtheta_dsi
    }

    /// Best-response utility probe: `U_i` at the profile whose `i`-th
    /// component is `si`, with every *other* population pre-computed in
    /// `m` (they do not depend on `s_i`). Overwrites `m[i]`, solves the
    /// congestion fixed point through `scratch` seeded at `*phi_seed` and
    /// leaves the root there for the next probe, and touches no other
    /// memory — the allocation-free core of the solver hot loop. Its φ
    /// agrees with the cold solve behind `utility(i, profile)` on the
    /// matching profile within the solve tolerance (1e-13 absolute plus
    /// 1e-13 relative), not bit for bit: the last Newton step depends on
    /// where the iteration started.
    pub(crate) fn utility_probe(
        &self,
        i: usize,
        si: f64,
        m: &mut [f64],
        phi_seed: &mut f64,
        scratch: &mut StateScratch,
    ) -> NumResult<f64> {
        let cp = self.system.cp(i);
        m[i] = cp.population(self.effective_price_of(si));
        let phi = self.system.solve_phi_with(m, *phi_seed, scratch)?;
        *phi_seed = phi;
        // λ_i and θ_i exactly as the full state assembly computes them.
        let lambda_i = self.system.lambda_of(i, phi);
        Ok((cp.profitability() - si) * (m[i] * lambda_i))
    }

    /// Best-response marginal-utility probe, the `u_i` counterpart of
    /// [`SubsidyGame::utility_probe`], seeded the same way: its φ agrees
    /// with the cold solve behind `marginal_utility(i, profile)` within
    /// the same tolerance.
    pub(crate) fn marginal_probe(
        &self,
        i: usize,
        si: f64,
        m: &mut [f64],
        phi_seed: &mut f64,
        scratch: &mut StateScratch,
    ) -> NumResult<f64> {
        let cp = self.system.cp(i);
        m[i] = cp.population(self.effective_price_of(si));
        let phi = self.system.solve_phi_with(m, *phi_seed, scratch)?;
        *phi_seed = phi;
        let lambda_i = self.system.lambda_of(i, phi);
        let theta_ii = m[i] * lambda_i;
        let dg_dphi = self.system.dgap_dphi_with(phi, m, scratch);
        Ok(self.marginal_from_parts(i, si, m[i], lambda_i, theta_ii, phi, dg_dphi))
    }

    /// [`SubsidyGame::state`] into caller-owned buffers: validates `s`,
    /// fills `prices`, and solves the fixed point into `out`.
    pub(crate) fn state_into(
        &self,
        s: &[f64],
        prices: &mut Vec<f64>,
        scratch: &mut StateScratch,
        out: &mut SystemState,
    ) -> NumResult<()> {
        self.validate(s)?;
        prices.resize(self.n(), 0.0);
        for (o, &si) in prices.iter_mut().zip(s) {
            *o = self.effective_price_of(si);
        }
        self.system.state_at_prices_into(prices, scratch, out)
    }

    /// The VI map `F(s) = −u(s)` into a caller-owned buffer (the
    /// allocation-free core of [`crate::vi`]): solves the state at `s`
    /// into `state` and writes the negated marginal utilities into `out`.
    pub(crate) fn vi_map_into(
        &self,
        s: &[f64],
        prices: &mut Vec<f64>,
        scratch: &mut StateScratch,
        state: &mut SystemState,
        out: &mut Vec<f64>,
    ) -> NumResult<()> {
        self.state_into(s, prices, scratch, state)?;
        out.resize(self.n(), 0.0);
        for i in 0..self.n() {
            out[i] = -self.marginal_utility_at_state(i, s, state);
        }
        Ok(())
    }

    /// [`SubsidyGame::marginal_utilities`] into caller-owned buffers —
    /// the positive-sign sibling of [`SubsidyGame::vi_map_into`], the
    /// allocation-free core of the sensitivity engine's
    /// finite-difference leg. Bit-identical to the allocating wrapper
    /// (both ride the `_into` state solvers).
    pub(crate) fn marginal_utilities_into(
        &self,
        s: &[f64],
        prices: &mut Vec<f64>,
        scratch: &mut StateScratch,
        state: &mut SystemState,
        out: &mut Vec<f64>,
    ) -> NumResult<()> {
        self.state_into(s, prices, scratch, state)?;
        out.resize(self.n(), 0.0);
        for i in 0..self.n() {
            out[i] = self.marginal_utility_at_state(i, s, state);
        }
        Ok(())
    }

    /// All marginal utilities `u(s)` at a profile (one fixed-point solve).
    pub fn marginal_utilities(&self, s: &[f64]) -> NumResult<Vec<f64>> {
        let state = self.state(s)?;
        Ok((0..self.n()).map(|i| self.marginal_utility_at_state(i, s, &state)).collect())
    }

    /// `∂θ_i/∂s_i` at a solved state (used by Theorem 3's corner test).
    pub fn dtheta_dsi_at_state(&self, i: usize, s: &[f64], state: &SystemState) -> f64 {
        let cp = self.system.cp(i);
        let t_i = self.price - s[i];
        let dm_dsi =
            if self.clamp_effective_price && t_i < 0.0 { 0.0 } else { -cp.demand().dm_dt(t_i) };
        let dphi_dsi = state.lambda[i] * dm_dsi / state.dg_dphi;
        let dlambda = cp.throughput().dlambda_dphi(state.phi);
        dm_dsi * state.lambda[i] + state.m[i] * dlambda * dphi_dsi
    }

    /// ISP revenue at a profile: `R = p · θ(s)` (the ISP keeps charging
    /// the full price `p`; subsidies flow from CPs to users).
    pub fn isp_revenue(&self, s: &[f64]) -> NumResult<f64> {
        Ok(self.price * self.state(s)?.theta())
    }

    /// Total subsidy outlay `Σ_i s_i θ_i(s)` — the transfer from CPs to
    /// users (and onward to the ISP through usage fees).
    pub fn subsidy_outlay(&self, s: &[f64]) -> NumResult<f64> {
        let state = self.state(s)?;
        Ok(s.iter().zip(&state.theta_i).map(|(si, th)| si * th).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcomp_model::aggregation::{build_system, ExpCpSpec};
    use subcomp_num::diff::derivative;

    /// The paper's §5 setting: 8 types, alpha/beta in {2,5}, v in {0.5, 1}.
    pub(crate) fn paper_section5_game(p: f64, q: f64) -> SubsidyGame {
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

    #[test]
    fn constructor_validates() {
        let sys = build_system(&[ExpCpSpec::unit(2.0, 2.0, 1.0)], 1.0).unwrap();
        assert!(SubsidyGame::new(sys.clone(), -0.1, 1.0).is_err());
        assert!(SubsidyGame::new(sys.clone(), 1.0, -0.5).is_err());
        assert!(SubsidyGame::new(sys, 1.0, 0.0).is_ok());
    }

    #[test]
    fn validate_profile() {
        let g = paper_section5_game(0.5, 1.0);
        assert!(g.validate(&[0.0; 8]).is_ok());
        assert!(g.validate(&[0.5; 8]).is_ok());
        assert!(g.validate(&[1.5; 8]).is_err());
        assert!(g.validate(&[-0.2; 8]).is_err());
        assert!(g.validate(&[0.0; 3]).is_err());
    }

    #[test]
    fn effective_prices_unclamped_and_clamped() {
        let g = paper_section5_game(0.3, 1.0);
        let s = vec![0.5; 8];
        assert!((g.effective_prices(&s)[0] + 0.2).abs() < 1e-15);
        let gc = g.clone().with_clamped_price(true);
        assert_eq!(gc.effective_prices(&s)[0], 0.0);
    }

    #[test]
    fn subsidy_raises_own_population_and_utilization() {
        // Lemma 3 direction, end to end.
        let g = paper_section5_game(0.8, 1.0);
        let s0 = vec![0.0; 8];
        let mut s1 = s0.clone();
        s1[7] = 0.5;
        let st0 = g.state(&s0).unwrap();
        let st1 = g.state(&s1).unwrap();
        assert!(st1.phi > st0.phi);
        assert!(st1.theta_i[7] > st0.theta_i[7]);
        for j in 0..7 {
            assert!(st1.theta_i[j] < st0.theta_i[j], "CP {j} must lose throughput");
        }
    }

    #[test]
    fn marginal_utility_matches_finite_difference() {
        let g = paper_section5_game(0.6, 1.0);
        // Interior profile: the finite-difference stencil must stay in the box.
        let s = vec![0.1, 0.07, 0.3, 0.2, 0.4, 0.15, 0.25, 0.05];
        for i in 0..8 {
            let fd = derivative(
                &|si| {
                    let mut ss = s.clone();
                    ss[i] = si;
                    g.utility(i, &ss).unwrap()
                },
                s[i],
            )
            .unwrap();
            let an = g.marginal_utility(i, &s).unwrap();
            assert!((an - fd).abs() < 1e-6, "CP {i}: analytic {an} vs fd {fd}");
        }
    }

    #[test]
    fn marginal_utility_under_clamping() {
        let g = paper_section5_game(0.2, 1.0).with_clamped_price(true);
        let mut s = vec![0.0; 8];
        s[3] = 0.6; // t_3 = -0.4 -> clamped to 0
        let state = g.state(&s).unwrap();
        let u = g.marginal_utility_at_state(3, &s, &state);
        assert!((u + state.theta_i[3]).abs() < 1e-12);
    }

    #[test]
    fn dtheta_dsi_positive() {
        // Lemma 3: own throughput increases in own subsidy.
        let g = paper_section5_game(0.7, 1.0);
        let s = vec![0.2; 8];
        let state = g.state(&s).unwrap();
        for i in 0..8 {
            assert!(g.dtheta_dsi_at_state(i, &s, &state) > 0.0);
        }
    }

    #[test]
    fn utilities_structure() {
        let g = paper_section5_game(0.5, 1.0);
        let s = vec![0.25; 8];
        let us = g.utilities(&s).unwrap();
        let state = g.state(&s).unwrap();
        for i in 0..8 {
            let expect = (g.profitability(i) - 0.25) * state.theta_i[i];
            assert!((us[i] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn effective_cap_min_of_q_and_v() {
        let g = paper_section5_game(0.5, 0.7);
        assert_eq!(g.effective_cap(0), 0.5); // v = 0.5 < q
        assert_eq!(g.effective_cap(7), 0.7); // v = 1.0 > q
    }

    #[test]
    fn with_price_and_cap_roundtrip() {
        let g = paper_section5_game(0.5, 1.0);
        let g2 = g.with_price(0.9).unwrap();
        assert_eq!(g2.price(), 0.9);
        assert_eq!(g2.cap(), 1.0);
        let g3 = g.with_cap(0.3).unwrap();
        assert_eq!(g3.cap(), 0.3);
        assert_eq!(g3.price(), 0.5);
    }

    #[test]
    fn set_price_and_cap_mutate_in_place() {
        let mut g = paper_section5_game(0.5, 1.0).with_clamped_price(true);
        g.set_price(0.9).unwrap();
        g.set_cap(0.3).unwrap();
        assert_eq!(g.price(), 0.9);
        assert_eq!(g.cap(), 0.3);
        // Clamping convention and system are untouched; results agree with
        // the cloning constructors on the same (p, q).
        let rebuilt = paper_section5_game(0.9, 0.3).with_clamped_price(true);
        let s = vec![0.1; 8];
        assert_eq!(g.state(&s).unwrap(), rebuilt.state(&s).unwrap());
        assert!(g.set_price(-0.1).is_err());
        assert!(g.set_cap(f64::NAN).is_err());
        // Failed sets leave the game unchanged.
        assert_eq!(g.price(), 0.9);
        assert_eq!(g.cap(), 0.3);
    }

    #[test]
    fn with_profitability_changes_only_v() {
        let g = paper_section5_game(0.5, 1.0);
        let g2 = g.with_profitability(0, 2.0).unwrap();
        assert_eq!(g2.profitability(0), 2.0);
        assert_eq!(g2.profitability(1), g.profitability(1));
        assert!(g.with_profitability(99, 1.0).is_err());
        assert!(g.with_profitability(0, -0.5).is_err());
    }

    #[test]
    fn set_mu_and_profitability_mutate_in_place() {
        let mut g = paper_section5_game(0.5, 1.0);
        g.set_mu(2.0).unwrap();
        g.set_profitability(3, 1.7).unwrap();
        assert_eq!(g.system().mu(), 2.0);
        assert_eq!(g.profitability(3), 1.7);
        assert!(g.set_mu(0.0).is_err());
        assert!(g.set_profitability(99, 1.0).is_err());
        assert!(g.set_profitability(0, f64::NAN).is_err());
        // Failed sets leave the game unchanged.
        assert_eq!(g.system().mu(), 2.0);
        assert_eq!(g.profitability(0), 0.5);
        // The mutated game agrees with cloning constructors on the same
        // parameterization, state for state.
        let rebuilt =
            paper_section5_game(0.5, 1.0).with_mu(2.0).unwrap().with_profitability(3, 1.7).unwrap();
        let s = vec![0.2; 8];
        assert_eq!(g.state(&s).unwrap(), rebuilt.state(&s).unwrap());
        assert_eq!(g.utilities(&s).unwrap(), rebuilt.utilities(&s).unwrap());
    }

    #[test]
    fn axis_apply_and_value_roundtrip() {
        let mut g = paper_section5_game(0.5, 1.0);
        for (axis, v) in
            [(Axis::Price, 0.9), (Axis::Cap, 0.4), (Axis::Mu, 2.5), (Axis::Profitability(6), 1.3)]
        {
            axis.apply(&mut g, v).unwrap();
            assert_eq!(axis.value(&g), v, "{}", axis.describe());
        }
        assert_eq!(g.price(), 0.9);
        assert_eq!(g.cap(), 0.4);
        assert_eq!(g.system().mu(), 2.5);
        assert_eq!(g.profitability(6), 1.3);
        // Validation flows through the per-axis setters.
        assert!(Axis::Price.apply(&mut g, -1.0).is_err());
        assert!(Axis::Mu.apply(&mut g, 0.0).is_err());
        assert!(Axis::Profitability(99).apply(&mut g, 1.0).is_err());
        assert!(Axis::Profitability(0).apply(&mut g, -1.0).is_err());
        assert!(Axis::Cap.describe().contains("q"));
        assert!(Axis::Profitability(2).describe().contains("v[2]"));
    }

    #[test]
    fn revenue_and_outlay() {
        let g = paper_section5_game(0.5, 1.0);
        let s = vec![0.2; 8];
        let state = g.state(&s).unwrap();
        let r = g.isp_revenue(&s).unwrap();
        assert!((r - 0.5 * state.theta()).abs() < 1e-12);
        let outlay = g.subsidy_outlay(&s).unwrap();
        assert!((outlay - 0.2 * state.theta()).abs() < 1e-12);
    }

    #[test]
    fn zero_cap_forces_baseline() {
        // q = 0 is the paper's regulated baseline: only s = 0 is feasible.
        let g = paper_section5_game(0.5, 0.0);
        assert!(g.validate(&[0.0; 8]).is_ok());
        assert!(g.validate(&[0.1; 8]).is_err());
    }
}
