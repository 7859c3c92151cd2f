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
//! searches instead of one per sweep until convergence.
//!
//! When the probe signs break single crossing (non-finite probes, a
//! family violating Assumptions 1–2 numerically) the search declines and
//! the provider falls back to [`grid_best_response`]: a coarse grid scan
//! that localizes the maximum without assuming its shape, Brent polish of
//! the cell, then a marginal-root refinement. The grid scan is also the
//! independent oracle behind [`deviation_gap`] and the test suites.

use crate::game::SubsidyGame;
use std::cell::RefCell;
use subcomp_model::system::StateScratch;
use subcomp_num::optimize::maximize_scalar;
use subcomp_num::roots::{brent_seeded, Bracket};
use subcomp_num::{NumError, NumResult, Tolerance};

/// Outcome of a best-response computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestResponse {
    /// The maximizing subsidy.
    pub s: f64,
    /// The utility achieved.
    pub utility: f64,
    /// Objective evaluations spent (each solves a fixed point).
    pub evaluations: usize,
}

/// Configuration of the grid-scan search ([`grid_best_response`], and the
/// fallback of [`best_response`]).
#[derive(Debug, Clone, Copy)]
pub struct BrConfig {
    /// Grid points for the localization scan.
    pub grid: usize,
    /// Polish tolerance.
    pub tol: Tolerance,
}

impl Default for BrConfig {
    fn default() -> Self {
        BrConfig { grid: 24, tol: Tolerance::new(1e-11, 1e-11).with_max_iter(120) }
    }
}

/// Computes provider `i`'s best response to the profile `s`: the Theorem 3
/// threshold search seeded at `s[i]`, falling back to the grid scan under
/// `cfg` when the search declines (module docs). A thin shim allocating
/// throwaway buffers for `best_response_into`, the engine the Nash
/// solvers iterate.
pub fn best_response(
    game: &SubsidyGame,
    i: usize,
    s: &[f64],
    cfg: &BrConfig,
) -> NumResult<BestResponse> {
    let (mut m, mut phi_seed) = (Vec::new(), f64::NAN);
    let mut scratch = game.system().make_scratch();
    best_response_into(game, i, s, cfg, &mut m, &mut phi_seed, &mut scratch)
}

/// The allocation-free best-response engine behind [`best_response`].
/// Every transient lives in the caller's buffers: `m` caches the
/// populations of the frozen components `s_{-i}` (they do not depend on
/// `s_i`), so each probe recomputes only `m[i]` and the congestion fixed
/// point, seeded at `*phi_seed` (NaN starts cold) and left at the last
/// probe's root for the caller's next best response.
pub(crate) fn best_response_into(
    game: &SubsidyGame,
    i: usize,
    s: &[f64],
    cfg: &BrConfig,
    m: &mut Vec<f64>,
    phi_seed: &mut f64,
    scratch: &mut StateScratch,
) -> NumResult<BestResponse> {
    // The components other than `i` never change during the search, so
    // the profile is validated once rather than per probe.
    if game.validate(s).is_err() {
        return Err(NumError::NonFinite { what: "best_response profile", at: 0.0 });
    }
    game.populations_for(s, m);
    match threshold_search(game, i, s[i], m, phi_seed, scratch)? {
        Some(br) => Ok(br),
        None => grid_scan(game, i, cfg, m, phi_seed, scratch),
    }
}

/// Theorem 3 threshold search over the populations `m` of the profile.
/// Three marginal probes classify the corners (Theorem 3's KKT cases); an
/// interior threshold is a Brent root of `u_i` bracketed around `hint`.
/// Under continuation the root moved little from the previous iterate, so
/// a tight bracket usually survives and Brent finishes in a few probes.
///
/// Returns `Ok(None)` when the observed signs do not match the single-
/// crossing structure, so the caller's grid-scan fallback runs instead:
/// the search can decline, never wrongly answer.
fn threshold_search(
    game: &SubsidyGame,
    i: usize,
    hint: f64,
    m: &mut [f64],
    phi_seed: &mut f64,
    scratch: &mut StateScratch,
) -> NumResult<Option<BestResponse>> {
    let hi = game.effective_cap(i);
    if hi <= 0.0 {
        let utility = game.utility_probe(i, 0.0, m, phi_seed, scratch)?;
        return Ok(Some(BestResponse { s: 0.0, utility, evaluations: 1 }));
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
        let utility = game.utility_probe(i, 0.0, m, phi_seed, scratch)?;
        return Ok(Some(BestResponse { s: 0.0, utility, evaluations: evals + 1 }));
    }
    let u_hi = u_of(hi);
    if !u_hi.is_finite() {
        return Ok(None);
    }
    if u_hi >= 0.0 {
        // τ_i ≥ min(q, v_i): pinned at the effective cap.
        let utility = game.utility_probe(i, hi, m, phi_seed, scratch)?;
        return Ok(Some(BestResponse { s: hi, utility, evaluations: evals + 1 }));
    }
    // Interior threshold: u(0) > 0 > u(hi). Shrink the bracket around the
    // hint first; fall back to the full interval when it does not hold.
    let hint = hint.clamp(0.0, hi);
    let u_hint = u_of(hint);
    if !u_hint.is_finite() {
        return Ok(None);
    }
    if u_hint == 0.0 {
        let utility = game.utility_probe(i, hint, m, phi_seed, scratch)?;
        return Ok(Some(BestResponse { s: hint, utility, evaluations: evals + 1 }));
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
    let Ok(root) =
        brent_seeded(&mut u_of, br, ua, ub, Tolerance::new(1e-13, 1e-13).with_max_iter(120))
    else {
        return Ok(None);
    };
    let s_star = root.x.clamp(0.0, hi);
    let utility = game.utility_probe(i, s_star, m, phi_seed, scratch)?;
    Ok(Some(BestResponse { s: s_star, utility, evaluations: evals + 1 }))
}

/// Computes provider `i`'s best response to `s` (the value of `s[i]`
/// itself is ignored) by the grid scan alone: grid localization, Brent
/// polish of the cell, then — for interior maximizers, which value
/// comparison locates only to ~sqrt(eps) — a root-finding refinement of
/// the analytic marginal utility `u_i(s_i) = 0`, the ~1e-12 accuracy the
/// sensitivity analysis (Theorem 6) needs. It assumes nothing about the
/// shape of `U_i`, which makes it the oracle the threshold search is
/// checked against.
pub fn grid_best_response(
    game: &SubsidyGame,
    i: usize,
    s: &[f64],
    cfg: &BrConfig,
) -> NumResult<BestResponse> {
    // A failure maps to the same error the scan surfaces when every
    // objective evaluation comes back non-finite.
    if game.validate(s).is_err() {
        return Err(NumError::NonFinite { what: "grid_scan objective", at: 0.0 });
    }
    let (mut m, mut phi_seed) = (Vec::new(), f64::NAN);
    let mut scratch = game.system().make_scratch();
    game.populations_for(s, &mut m);
    grid_scan(game, i, cfg, &mut m, &mut phi_seed, &mut scratch)
}

/// The grid scan over the populations `m` of the profile. `evaluations`
/// counts actual fixed-point solves.
fn grid_scan(
    game: &SubsidyGame,
    i: usize,
    cfg: &BrConfig,
    m: &mut [f64],
    phi_seed: &mut f64,
    scratch: &mut StateScratch,
) -> NumResult<BestResponse> {
    let hi = game.effective_cap(i);
    let buffers = RefCell::new((m, phi_seed, scratch));
    let f = |si: f64| {
        let (m, phi_seed, scratch) = &mut *buffers.borrow_mut();
        game.utility_probe(i, si, m, phi_seed, scratch).unwrap_or(f64::NEG_INFINITY)
    };
    let u_of = |si: f64| {
        let (m, phi_seed, scratch) = &mut *buffers.borrow_mut();
        game.marginal_probe(i, si, m, phi_seed, scratch).unwrap_or(f64::NAN)
    };
    let m = maximize_scalar(&f, 0.0, hi, cfg.grid, cfg.tol)?;
    let mut best = BestResponse { s: m.x, utility: m.value, evaluations: m.evaluations };
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
            if let Ok(root) = brent_seeded(
                &mut |si| u_of(si),
                br,
                ua,
                ub,
                Tolerance::new(1e-13, 1e-13).with_max_iter(120),
            ) {
                let refined = root.x.clamp(0.0, hi);
                let val = f(refined);
                if val.is_finite() && val >= best.utility - 1e-12 {
                    best = BestResponse {
                        s: refined,
                        utility: val,
                        evaluations: best.evaluations + root.evaluations,
                    };
                }
            }
        }
    }
    Ok(best)
}

/// The maximum utility any provider can gain by unilaterally deviating
/// from `s` — the *deviation gap*, zero exactly at a Nash equilibrium.
/// Returns `(gap, argmax_provider)`. Deviations come from
/// [`grid_best_response`], so the gap stays independent of the threshold
/// engine the solvers run.
pub fn deviation_gap(game: &SubsidyGame, s: &[f64], cfg: &BrConfig) -> NumResult<(f64, usize)> {
    game.validate(s)?;
    let us = game.utilities(s)?;
    let mut worst = (0.0f64, 0usize);
    for i in 0..game.n() {
        let br = grid_best_response(game, i, s, cfg)?;
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
        let br = best_response(&g, 0, &[0.0], &BrConfig::default()).unwrap();
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
        let br = best_response(&g, 0, &[0.0], &BrConfig::default()).unwrap();
        assert_eq!(br.s, 0.0);
        // Theorem 3's corner condition: u_i <= 0 at s_i = 0.
        assert!(g.marginal_utility(0, &[0.0]).unwrap() <= 1e-10);
    }

    #[test]
    fn tight_cap_binds() {
        // Strong demand response, low cap: corner at q.
        let g = single_cp_game(8.0, 1.0, 1.0, 0.2);
        let br = best_response(&g, 0, &[0.0], &BrConfig::default()).unwrap();
        assert!((br.s - 0.2).abs() < 1e-9, "br = {}", br.s);
        assert!(g.marginal_utility(0, &[0.2]).unwrap() >= -1e-10);
    }

    #[test]
    fn best_response_never_exceeds_profitability() {
        let g = single_cp_game(10.0, 0.4, 1.0, 2.0);
        let br = best_response(&g, 0, &[0.0], &BrConfig::default()).unwrap();
        assert!(br.s <= 0.4 + 1e-12);
    }

    #[test]
    fn best_response_beats_grid() {
        let g = single_cp_game(5.0, 1.0, 0.8, 1.0);
        let br = best_response(&g, 0, &[0.0], &BrConfig::default()).unwrap();
        for k in 0..=50 {
            let s = k as f64 * 0.02;
            let u = g.utility(0, &[s]).unwrap();
            assert!(br.utility >= u - 1e-9, "grid point {s} beats BR");
        }
    }

    #[test]
    fn deviation_gap_zero_at_br_fixed_point() {
        let g = single_cp_game(5.0, 1.0, 0.8, 1.0);
        let br = best_response(&g, 0, &[0.0], &BrConfig::default()).unwrap();
        let (gap, _) = deviation_gap(&g, &[br.s], &BrConfig::default()).unwrap();
        assert!(gap < 1e-8, "gap = {gap}");
    }

    #[test]
    fn deviation_gap_positive_off_equilibrium() {
        let g = single_cp_game(8.0, 1.0, 1.0, 2.0);
        let (gap, who) = deviation_gap(&g, &[0.0], &BrConfig::default()).unwrap();
        assert!(gap > 1e-3, "gap = {gap}");
        assert_eq!(who, 0);
    }

    #[test]
    fn threshold_search_agrees_with_grid_scan() {
        // Theorem 3's threshold characterization must land on the same
        // answer as the grid-scan oracle — exactly at corners, to root
        // tolerance at interior optima — across corner, interior and
        // cap-pinned regimes, with and without a useful hint in `s[0]`.
        let cfg = BrConfig::default();
        let cases = [
            (0.5, 0.3, 0.5, 1.0),  // corner at 0
            (8.0, 1.0, 1.0, 2.0),  // interior
            (8.0, 1.0, 1.0, 0.2),  // pinned at cap
            (5.0, 1.0, 0.8, 1.0),  // interior, moderate elasticity
            (10.0, 0.4, 1.0, 2.0), // pinned at v < q
        ];
        for (alpha, v, p, q) in cases {
            let g = single_cp_game(alpha, v, p, q);
            let grid = grid_best_response(&g, 0, &[0.0], &cfg).unwrap();
            for hint in [0.0, 0.5 * grid.s, grid.s, g.effective_cap(0)] {
                let br = best_response(&g, 0, &[hint], &cfg).unwrap();
                // The search itself answers; the grid fallback never runs.
                let (mut m, mut phi_seed) = (Vec::new(), f64::NAN);
                let mut scratch = g.system().make_scratch();
                g.populations_for(&[hint], &mut m);
                let thr = threshold_search(&g, 0, hint, &mut m, &mut phi_seed, &mut scratch)
                    .unwrap()
                    .expect("exponential family satisfies the Theorem 3 structure");
                assert_eq!(br, thr);
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
    fn zero_width_box_pins_both_engines_at_zero() {
        let g = single_cp_game(5.0, 1.0, 0.8, 0.0);
        let cfg = BrConfig::default();
        let br = best_response(&g, 0, &[0.0], &cfg).unwrap();
        let grid = grid_best_response(&g, 0, &[0.0], &cfg).unwrap();
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
        let br_alone = best_response(&g, 1, &[0.0, 0.0], &BrConfig::default()).unwrap();
        let br_crowded = best_response(&g, 1, &[0.9, 0.0], &BrConfig::default()).unwrap();
        assert!(br_crowded.utility < br_alone.utility);
    }
}
