//! Single-provider best responses.
//!
//! Provider `i`'s best response solves `max_{s_i ∈ [0, q]} U_i(s_i; s_{-i})`
//! — the inner problem of Definition 3. Because `U_i < 0 = U_i(v_i)` for
//! `s_i > v_i` (a subsidy above the per-unit profit burns money on every
//! byte), the search interval shrinks to `[0, min(q, v_i)]` without loss.
//!
//! Theorem 3 says the maximizer is a threshold, `s_i* = min{τ_i, min(q,
//! v_i)}`: the marginal utility `u_i(s_i)` changes sign once, from `+` to
//! `−`, at `τ_i`. [`best_response`] exploits that directly — three
//! marginal probes classify the corners, and an interior threshold is a
//! Brent root of the *analytic* `u_i`, seeded at the current iterate
//! `s[i]`. Each probe solves the congestion fixed point by Newton's
//! iteration seeded at the previous probe's root (`phi_seed`), which
//! moves little between probes.
//!
//! The Nash solver runs the threshold search inside its Gauss–Seidel
//! sweeps, the globalization of its Newton corrector ([`crate::nash`]):
//! a sweep locates the active set, and Newton steps on Theorem 6's
//! Jacobian finish, so a solve makes about one sweep's worth of these
//! searches instead of one per sweep until convergence. A sweep reads
//! only the response subsidy, so the engine it calls makes no utility
//! probe. The sweep also sets the root tolerance: the corrector's sweeps
//! solve an interior threshold only to the forcing tolerance the next
//! Newton attempt needs, and learn whether the answer is such an inexact
//! root. Corner classifications and the grid scan are exact at any
//! tolerance. [`best_response`] solves roots to 1e-13 and adds the
//! utility probe on top.
//!
//! When the probe signs break single crossing (non-finite probes, a
//! family violating Assumptions 1–2 numerically) the search declines and
//! the provider falls back to [`grid_best_response`]: a coarse grid scan
//! that localizes the maximum without assuming its shape, Brent polish of
//! the cell, then a marginal-root refinement. The grid scan is also the
//! independent oracle behind [`deviation_gap`] and the test suites.

use crate::game::SubsidyGame;
use std::cell::{Cell, RefCell};
use subcomp_model::system::StateScratch;
use subcomp_num::optimize::maximize_scalar;
use subcomp_num::roots::{brent_seeded, Bracket};
use subcomp_num::{NumError, NumResult, Tolerance};

/// Absolute and relative tolerance of an exact interior root: the public
/// best responses, the grid scan's refinement, the sweep oracle and
/// Jacobi sweeps solve to it, and the corrector's forcing tolerance
/// bottoms out at it.
pub(crate) const EXACT_ROOT_TOL: f64 = 1e-13;

/// Outcome of a best-response computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestResponse {
    /// The maximizing subsidy.
    pub s: f64,
    /// The utility achieved.
    pub utility: f64,
    /// Fixed-point probes made, utility and marginal alike: each solves
    /// the congestion fixed point once. Exact on every path.
    pub evaluations: usize,
}

/// Grid points of the grid scan's localization pass.
const GRID_POINTS: usize = 24;

/// Tolerance of the grid scan's Brent polish of its best cell.
const POLISH_TOL: Tolerance = Tolerance { abs: 1e-11, rel: 1e-11, max_iter: 120 };

/// The argument [`best_response`] still takes. It holds nothing: the grid
/// scan runs at fixed settings. Kept because the benchmark still passes
/// one; the benchmark change of ROADMAP item 1(e) removes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrConfig;

/// What a sweep reads of one best response: the subsidy, how it was
/// found, and the fixed-point probes spent — no utility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Response {
    /// The response subsidy.
    pub s: f64,
    /// How `s` was found.
    pub origin: Origin,
    /// Fixed-point probes made.
    pub evaluations: usize,
}

/// How a [`Response`] was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Origin {
    /// Exactly: a corner classification, a hint where `u_i = 0`, or a
    /// Brent root solved to [`EXACT_ROOT_TOL`].
    Exact,
    /// A Brent root solved to a looser tolerance, wherever it landed (a
    /// root within that tolerance of a corner is clamped onto it).
    Inexact,
    /// The grid-scan fallback, exact to its own tolerances.
    Grid,
}

/// Computes provider `i`'s best response to the profile `s`: the Theorem 3
/// threshold search seeded at `s[i]`, roots solved to 1e-13, falling
/// back to the grid scan when the search declines (module docs). The
/// threshold search's answer costs one more probe, its utility, which
/// the engine the Nash sweeps call never makes.
pub fn best_response(
    game: &SubsidyGame,
    i: usize,
    s: &[f64],
    _cfg: &BrConfig,
) -> NumResult<BestResponse> {
    let (mut m, mut phi_seed) = (Vec::new(), f64::NAN);
    let mut scratch = game.system().make_scratch();
    profile_populations(game, s, &mut m)?;
    match threshold_search(game, i, s[i], EXACT_ROOT_TOL, &mut m, &mut phi_seed, &mut scratch)? {
        Some(found) => {
            let utility = game.utility_probe(i, found.s, &mut m, &mut phi_seed, &mut scratch)?;
            Ok(BestResponse { s: found.s, utility, evaluations: found.evaluations + 1 })
        }
        None => grid_scan(game, i, &mut m, &mut phi_seed, &mut scratch),
    }
}

/// The allocation-free best-response engine the Nash sweeps call: the
/// dispatch of [`best_response`], interior roots solved to `root_tol`,
/// without the utility probe. Every transient lives in the caller's
/// buffers: `m` caches the populations of the frozen components `s_{-i}`
/// (they do not depend on `s_i`), so each probe recomputes only `m[i]`
/// and the congestion fixed point, seeded at `*phi_seed` (NaN starts
/// cold) and left at the last probe's root for the caller's next best
/// response.
pub(crate) fn best_response_into(
    game: &SubsidyGame,
    i: usize,
    s: &[f64],
    root_tol: f64,
    m: &mut Vec<f64>,
    phi_seed: &mut f64,
    scratch: &mut StateScratch,
) -> NumResult<Response> {
    profile_populations(game, s, m)?;
    if let Some(found) = threshold_search(game, i, s[i], root_tol, m, phi_seed, scratch)? {
        return Ok(found);
    }
    let br = grid_scan(game, i, m, phi_seed, scratch)?;
    Ok(Response { s: br.s, origin: Origin::Grid, evaluations: br.evaluations })
}

/// Validates the profile and fills `m` with its populations. The
/// components other than `i` never change during a search, so the
/// profile is validated once rather than per probe.
fn profile_populations(game: &SubsidyGame, s: &[f64], m: &mut Vec<f64>) -> NumResult<()> {
    if game.validate(s).is_err() {
        return Err(NumError::NonFinite { what: "best_response profile", at: 0.0 });
    }
    game.populations_for(s, m);
    Ok(())
}

/// Theorem 3 threshold search over the populations `m` of the profile.
/// Three marginal probes classify the corners (Theorem 3's KKT cases); an
/// interior threshold is a Brent root of `u_i` bracketed around `hint`,
/// solved to `root_tol` (absolute and relative). Under continuation the
/// root moved little from the previous iterate, so a tight bracket
/// usually survives and Brent finishes in a few probes.
///
/// Returns `Ok(None)` when the observed signs do not match the single-
/// crossing structure, so the caller's grid-scan fallback runs instead:
/// the search can decline, never wrongly answer.
fn threshold_search(
    game: &SubsidyGame,
    i: usize,
    hint: f64,
    root_tol: f64,
    m: &mut [f64],
    phi_seed: &mut f64,
    scratch: &mut StateScratch,
) -> NumResult<Option<Response>> {
    let exact =
        |s: f64, evaluations: usize| Some(Response { s, origin: Origin::Exact, evaluations });
    let hi = game.effective_cap(i);
    if hi <= 0.0 {
        return Ok(exact(0.0, 0));
    }
    let mut evals = 0usize;
    let mut u_of = |si: f64| {
        evals += 1;
        game.marginal_probe(i, si, m, phi_seed, scratch).unwrap_or(f64::NAN)
    };
    let u0 = u_of(0.0);
    if !u0.is_finite() {
        return Ok(None);
    }
    if u0 <= 0.0 {
        // τ_i ≤ 0: the margin loss dominates from the start.
        return Ok(exact(0.0, evals));
    }
    let u_hi = u_of(hi);
    if !u_hi.is_finite() {
        return Ok(None);
    }
    if u_hi >= 0.0 {
        // τ_i ≥ min(q, v_i): pinned at the effective cap.
        return Ok(exact(hi, evals));
    }
    // Interior threshold: u(0) > 0 > u(hi). Shrink the bracket around the
    // hint first; fall back to the full interval when it does not hold.
    let hint = hint.clamp(0.0, hi);
    let u_hint = u_of(hint);
    if !u_hint.is_finite() {
        return Ok(None);
    }
    if u_hint == 0.0 {
        return Ok(exact(hint, evals));
    }
    let delta = 1e-2 * (1.0 + hi);
    let (br, ua, ub) = if u_hint > 0.0 {
        let b = (hint + delta).min(hi);
        let ub = if b < hi { u_of(b) } else { u_hi };
        if ub.is_finite() && ub <= 0.0 {
            (Bracket::new(hint, b), u_hint, ub)
        } else {
            (Bracket::new(hint, hi), u_hint, u_hi)
        }
    } else {
        let a = (hint - delta).max(0.0);
        let ua = if a > 0.0 { u_of(a) } else { u0 };
        if ua.is_finite() && ua >= 0.0 {
            (Bracket::new(a, hint), ua, u_hint)
        } else {
            (Bracket::new(0.0, hint), u0, u_hint)
        }
    };
    let tol = Tolerance::new(root_tol, root_tol).with_max_iter(120);
    let Ok(root) = brent_seeded(&mut u_of, br, ua, ub, tol) else {
        return Ok(None);
    };
    let origin = if root_tol > EXACT_ROOT_TOL { Origin::Inexact } else { Origin::Exact };
    Ok(Some(Response { s: root.x.clamp(0.0, hi), origin, evaluations: evals }))
}

/// Computes provider `i`'s best response to `s` (the value of `s[i]`
/// itself is ignored) by the grid scan alone: grid localization, Brent
/// polish of the cell, then — for interior maximizers, which value
/// comparison locates only to ~sqrt(eps) — a root-finding refinement of
/// the analytic marginal utility `u_i(s_i) = 0`, the ~1e-12 accuracy the
/// sensitivity analysis (Theorem 6) needs. It assumes nothing about the
/// shape of `U_i`, which makes it the oracle the threshold search is
/// checked against.
pub fn grid_best_response(game: &SubsidyGame, i: usize, s: &[f64]) -> NumResult<BestResponse> {
    // A failure maps to the same error the scan surfaces when every
    // objective evaluation comes back non-finite.
    if game.validate(s).is_err() {
        return Err(NumError::NonFinite { what: "grid_scan objective", at: 0.0 });
    }
    let (mut m, mut phi_seed) = (Vec::new(), f64::NAN);
    let mut scratch = game.system().make_scratch();
    game.populations_for(s, &mut m);
    grid_scan(game, i, &mut m, &mut phi_seed, &mut scratch)
}

/// The grid scan over the populations `m` of the profile. `evaluations`
/// counts every fixed-point probe, counted where the probes are made:
/// the scan and its polish, the marginal bracket and Brent refinement,
/// and the refined point's utility.
fn grid_scan(
    game: &SubsidyGame,
    i: usize,
    m: &mut [f64],
    phi_seed: &mut f64,
    scratch: &mut StateScratch,
) -> NumResult<BestResponse> {
    let hi = game.effective_cap(i);
    let buffers = RefCell::new((m, phi_seed, scratch));
    let probes = Cell::new(0usize);
    let f = |si: f64| {
        probes.set(probes.get() + 1);
        let (m, phi_seed, scratch) = &mut *buffers.borrow_mut();
        game.utility_probe(i, si, m, phi_seed, scratch).unwrap_or(f64::NEG_INFINITY)
    };
    let u_of = |si: f64| {
        probes.set(probes.get() + 1);
        let (m, phi_seed, scratch) = &mut *buffers.borrow_mut();
        game.marginal_probe(i, si, m, phi_seed, scratch).unwrap_or(f64::NAN)
    };
    let m = maximize_scalar(&f, 0.0, hi, GRID_POINTS, POLISH_TOL)?;
    let (mut s, mut utility) = (m.x, m.value);
    let interior_margin = 1e-5 * (1.0 + hi);
    if m.x > interior_margin && m.x < hi - interior_margin {
        let mut delta = 16.0 * interior_margin;
        let mut bracket = None;
        for _ in 0..8 {
            let a = (m.x - delta).max(0.0);
            let b = (m.x + delta).min(hi);
            let (ua, ub) = (u_of(a), u_of(b));
            if ua.is_finite() && ub.is_finite() && ua >= 0.0 && ub <= 0.0 {
                bracket = Some((Bracket::new(a, b), ua, ub));
                break;
            }
            delta *= 2.0;
        }
        if let Some((br, ua, ub)) = bracket {
            let tol = Tolerance::new(EXACT_ROOT_TOL, EXACT_ROOT_TOL).with_max_iter(120);
            if let Ok(root) = brent_seeded(&mut |si| u_of(si), br, ua, ub, tol) {
                let refined = root.x.clamp(0.0, hi);
                let val = f(refined);
                if val.is_finite() && val >= utility - 1e-12 {
                    (s, utility) = (refined, val);
                }
            }
        }
    }
    Ok(BestResponse { s, utility, evaluations: probes.get() })
}

/// The maximum utility any provider can gain by unilaterally deviating
/// from `s` — the *deviation gap*, zero exactly at a Nash equilibrium.
/// Returns `(gap, argmax_provider)`. Deviations come from
/// [`grid_best_response`], so the gap stays independent of the threshold
/// engine the solvers run.
pub fn deviation_gap(game: &SubsidyGame, s: &[f64]) -> NumResult<(f64, usize)> {
    game.validate(s)?;
    let us = game.utilities(s)?;
    let mut worst = (0.0f64, 0usize);
    for i in 0..game.n() {
        let br = grid_best_response(game, i, s)?;
        let gain = br.utility - us[i];
        if gain > worst.0 {
            worst = (gain, i);
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subcomp_model::aggregation::{build_system, ExpCpSpec};

    fn single_cp_game(alpha: f64, v: f64, p: f64, q: f64) -> SubsidyGame {
        let sys = build_system(&[ExpCpSpec::unit(alpha, 2.0, v)], 1.0).unwrap();
        SubsidyGame::new(sys, p, q).unwrap()
    }

    #[test]
    fn monopolist_interior_best_response() {
        // With one CP and weak congestion feedback, the optimum is near the
        // no-feedback solution s* = v - 1/alpha (from d/ds[(v-s)e^{alpha s}]).
        let g = single_cp_game(8.0, 1.0, 1.0, 2.0);
        let br = best_response(&g, 0, &[0.0], &BrConfig).unwrap();
        let no_feedback = 1.0 - 1.0 / 8.0;
        assert!(br.s > 0.5 && br.s <= no_feedback + 1e-6, "br = {}", br.s);
        // Must be a stationary point: u_i ~ 0 there.
        let u = g.marginal_utility(0, &[br.s]).unwrap();
        assert!(u.abs() < 1e-4, "marginal utility at BR = {u}");
    }

    #[test]
    fn unprofitable_cp_does_not_subsidize() {
        // alpha small, v small: margin loss dominates, corner at 0.
        let g = single_cp_game(0.5, 0.3, 0.5, 1.0);
        let br = best_response(&g, 0, &[0.0], &BrConfig).unwrap();
        assert_eq!(br.s, 0.0);
        // Theorem 3's corner condition: u_i <= 0 at s_i = 0.
        assert!(g.marginal_utility(0, &[0.0]).unwrap() <= 1e-10);
    }

    #[test]
    fn tight_cap_binds() {
        // Strong demand response, low cap: corner at q.
        let g = single_cp_game(8.0, 1.0, 1.0, 0.2);
        let br = best_response(&g, 0, &[0.0], &BrConfig).unwrap();
        assert!((br.s - 0.2).abs() < 1e-9, "br = {}", br.s);
        assert!(g.marginal_utility(0, &[0.2]).unwrap() >= -1e-10);
    }

    #[test]
    fn best_response_never_exceeds_profitability() {
        let g = single_cp_game(10.0, 0.4, 1.0, 2.0);
        let br = best_response(&g, 0, &[0.0], &BrConfig).unwrap();
        assert!(br.s <= 0.4 + 1e-12);
    }

    #[test]
    fn best_response_beats_grid() {
        let g = single_cp_game(5.0, 1.0, 0.8, 1.0);
        let br = best_response(&g, 0, &[0.0], &BrConfig).unwrap();
        for k in 0..=50 {
            let s = k as f64 * 0.02;
            let u = g.utility(0, &[s]).unwrap();
            assert!(br.utility >= u - 1e-9, "grid point {s} beats BR");
        }
    }

    #[test]
    fn deviation_gap_zero_at_br_fixed_point() {
        let g = single_cp_game(5.0, 1.0, 0.8, 1.0);
        let br = best_response(&g, 0, &[0.0], &BrConfig).unwrap();
        let (gap, _) = deviation_gap(&g, &[br.s]).unwrap();
        assert!(gap < 1e-8, "gap = {gap}");
    }

    #[test]
    fn deviation_gap_positive_off_equilibrium() {
        let g = single_cp_game(8.0, 1.0, 1.0, 2.0);
        let (gap, who) = deviation_gap(&g, &[0.0]).unwrap();
        assert!(gap > 1e-3, "gap = {gap}");
        assert_eq!(who, 0);
    }

    #[test]
    fn threshold_search_agrees_with_grid_scan() {
        // Theorem 3's threshold characterization must land on the same
        // answer as the grid-scan oracle — exactly at corners, to root
        // tolerance at interior optima — across corner, interior and
        // cap-pinned regimes, with and without a useful hint in `s[0]`.
        let cases = [
            (0.5, 0.3, 0.5, 1.0),  // corner at 0
            (8.0, 1.0, 1.0, 2.0),  // interior
            (8.0, 1.0, 1.0, 0.2),  // pinned at cap
            (5.0, 1.0, 0.8, 1.0),  // interior, moderate elasticity
            (10.0, 0.4, 1.0, 2.0), // pinned at v < q
        ];
        for (alpha, v, p, q) in cases {
            let g = single_cp_game(alpha, v, p, q);
            let grid = grid_best_response(&g, 0, &[0.0]).unwrap();
            for hint in [0.0, 0.5 * grid.s, grid.s, g.effective_cap(0)] {
                let br = best_response(&g, 0, &[hint], &BrConfig).unwrap();
                // The search itself answers; the grid fallback never runs.
                let (mut m, mut phi_seed) = (Vec::new(), f64::NAN);
                let mut scratch = g.system().make_scratch();
                g.populations_for(&[hint], &mut m);
                let thr = threshold_search(
                    &g,
                    0,
                    hint,
                    EXACT_ROOT_TOL,
                    &mut m,
                    &mut phi_seed,
                    &mut scratch,
                )
                .unwrap()
                .expect("exponential family satisfies the Theorem 3 structure");
                assert_eq!(thr.origin, Origin::Exact);
                assert_eq!(br.s.to_bits(), thr.s.to_bits());
                // The shim's one extra probe is the utility.
                assert_eq!(br.evaluations, thr.evaluations + 1);
                assert!(
                    (br.s - grid.s).abs() < 1e-9,
                    "(α={alpha}, v={v}, p={p}, q={q}, hint={hint}): threshold {} vs grid {}",
                    br.s,
                    grid.s
                );
                assert!((br.utility - grid.utility).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn a_forced_root_is_marked_inexact_and_cheaper() {
        // The sweep engine at a loose root tolerance answers within that
        // tolerance of the exact threshold, in fewer probes, and says so;
        // corners stay exact whatever the tolerance.
        let sweep = |g: &SubsidyGame, hint: f64, root_tol: f64| {
            let (mut m, mut phi_seed) = (Vec::new(), f64::NAN);
            let mut scratch = g.system().make_scratch();
            best_response_into(g, 0, &[hint], root_tol, &mut m, &mut phi_seed, &mut scratch)
                .unwrap()
        };
        for (alpha, v, p, q) in [(8.0, 1.0, 1.0, 2.0), (5.0, 1.0, 0.8, 1.0)] {
            let g = single_cp_game(alpha, v, p, q);
            let exact = sweep(&g, 0.0, EXACT_ROOT_TOL);
            let forced = sweep(&g, 0.0, 1e-4);
            assert_eq!(exact.origin, Origin::Exact);
            assert_eq!(forced.origin, Origin::Inexact);
            assert!((forced.s - exact.s).abs() <= 2e-4, "{} vs {}", forced.s, exact.s);
            assert!(forced.evaluations < exact.evaluations);
            let br = best_response(&g, 0, &[0.0], &BrConfig).unwrap();
            assert_eq!(exact.s.to_bits(), br.s.to_bits());
            assert_eq!(exact.evaluations + 1, br.evaluations);
        }
        for (alpha, v, p, q) in [(0.5, 0.3, 0.5, 1.0), (8.0, 1.0, 1.0, 0.2), (5.0, 1.0, 0.8, 0.0)] {
            let g = single_cp_game(alpha, v, p, q);
            let forced = sweep(&g, 0.0, 1e-4);
            assert_eq!(forced.origin, Origin::Exact, "corner (α={alpha}, v={v}, p={p}, q={q})");
            assert_eq!(
                forced.s.to_bits(),
                best_response(&g, 0, &[0.0], &BrConfig).unwrap().s.to_bits()
            );
        }
    }

    thread_local! {
        /// Population evaluations of [`Counted`] demand curves on this
        /// thread: one per fixed-point probe of its provider.
        static POPULATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// An exponential demand curve counting its population evaluations.
    struct Counted(subcomp_model::demand::ExpDemand);

    impl subcomp_model::demand::DemandFn for Counted {
        fn m(&self, t: f64) -> f64 {
            POPULATIONS.with(|c| c.set(c.get() + 1));
            self.0.m(t)
        }
        fn dm_dt(&self, t: f64) -> f64 {
            self.0.dm_dt(t)
        }
        fn d2m_dt2(&self, t: f64) -> f64 {
            self.0.d2m_dt2(t)
        }
        fn name(&self) -> &'static str {
            "counted"
        }
        fn boxed_clone(&self) -> Box<dyn subcomp_model::demand::DemandFn> {
            Box::new(Counted(self.0))
        }
        fn scaled(&self, kappa: f64) -> Box<dyn subcomp_model::demand::DemandFn> {
            self.0.scaled(kappa)
        }
    }

    #[test]
    fn evaluations_count_every_probe_on_both_paths() {
        // Every probe evaluates the provider's population once, and so
        // does the profile's population fill before the search: counted
        // at the demand curve, the probes are the population evaluations
        // less one.
        use subcomp_model::cp::ContentProvider;
        use subcomp_model::demand::ExpDemand;
        use subcomp_model::system::System;
        use subcomp_model::throughput::ExpThroughput;
        use subcomp_model::utilization::LinearUtilization;
        let counted_game = |alpha: f64, v: f64, p: f64, q: f64| {
            let cp = ContentProvider::builder("counted")
                .demand(Counted(ExpDemand::new(1.0, alpha)))
                .throughput(ExpThroughput::new(1.0, 2.0))
                .profitability(v)
                .build();
            SubsidyGame::new(System::new(vec![cp], 1.0, LinearUtilization).unwrap(), p, q).unwrap()
        };
        let probes_of = |run: &dyn Fn() -> BestResponse| {
            POPULATIONS.with(|c| c.set(0));
            let br = run();
            (br.evaluations, POPULATIONS.with(|c| c.get()) - 1)
        };
        // Interior, corner at 0, pinned at the cap, and a zero-width box.
        for (alpha, v, p, q) in
            [(8.0, 1.0, 1.0, 2.0), (0.5, 0.3, 0.5, 1.0), (8.0, 1.0, 1.0, 0.2), (5.0, 1.0, 0.8, 0.0)]
        {
            let g = counted_game(alpha, v, p, q);
            let (counted, made) = probes_of(&|| grid_best_response(&g, 0, &[0.0]).unwrap());
            assert_eq!(counted, made, "grid scan (α={alpha}, v={v}, p={p}, q={q})");
            let (counted, made) = probes_of(&|| best_response(&g, 0, &[0.0], &BrConfig).unwrap());
            assert_eq!(counted, made, "threshold search (α={alpha}, v={v}, p={p}, q={q})");
        }
    }

    #[test]
    fn zero_width_box_pins_both_engines_at_zero() {
        let g = single_cp_game(5.0, 1.0, 0.8, 0.0);
        let br = best_response(&g, 0, &[0.0], &BrConfig).unwrap();
        let grid = grid_best_response(&g, 0, &[0.0]).unwrap();
        assert_eq!(br.s, 0.0);
        assert_eq!(grid.s, 0.0);
        assert_eq!(br.utility.to_bits(), grid.utility.to_bits());
    }

    #[test]
    fn two_player_responses_interact() {
        // CP 1's best response shrinks when CP 0 floods the system
        // (congestion externality, Lemma 3).
        let sys =
            build_system(&[ExpCpSpec::unit(6.0, 1.0, 1.0), ExpCpSpec::unit(6.0, 8.0, 1.0)], 1.0)
                .unwrap();
        let g = SubsidyGame::new(sys, 0.8, 1.0).unwrap();
        let br_alone = best_response(&g, 1, &[0.0, 0.0], &BrConfig).unwrap();
        let br_crowded = best_response(&g, 1, &[0.9, 0.0], &BrConfig).unwrap();
        assert!(br_crowded.utility < br_alone.utility);
    }
}
