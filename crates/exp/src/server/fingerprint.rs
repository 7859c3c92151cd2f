//! Canonical game fingerprints — the cache key of the equilibrium server.
//!
//! Two games that are the same market must hash to the same 64-bit key,
//! and any parameter the equilibrium depends on must perturb it. The
//! fingerprint therefore covers:
//!
//! * the scalar parameters every [`Axis`] can write — price `p`, cap `q`,
//!   capacity `µ`, and each provider's profitability `v_i`;
//! * the clamp-at-zero flag (two games differing only there have
//!   different equilibria);
//! * a *behavioral probe* of each provider's demand and throughput
//!   curves: `n_i(t)` and `λ_i(φ)` sampled at fixed probe points. The
//!   curves live behind trait objects, so structural hashing is
//!   impossible — but two CPs that agree on profitability and on all
//!   probe responses are (for cache purposes) the same provider, and a
//!   full-game submission with different curves lands on a different key.
//!
//! Float bits are canonicalized so `-0.0` and `0.0` — equal as market
//! parameters — produce the same key (the golden-codec round-trip keeps
//! the two distinguishable as *bytes*; the fingerprint must not). A
//! **non-finite** probe response is a typed [`NumError::NonFinite`]
//! instead of a key: NaN never compares equal to itself, so a NaN-bearing
//! fingerprint would never match its own cache entry and every lookup of
//! that market would silently miss. Scalar parameters are validated at
//! write time, but the probed curves are caller-supplied trait objects
//! and can return anything — the fingerprint is where that surface is
//! screened, and the server turns the error into a failed request.
//!
//! Hashing is FNV-1a over the canonical bit stream: deterministic across
//! runs and platforms, and allocation-free.
//!
//! [`Axis`]: subcomp_core::game::Axis

use subcomp_core::game::SubsidyGame;
use subcomp_num::error::{NumError, NumResult};

/// The FNV-1a offset basis: the initial state of every [`fnv_fold`]
/// chain.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fingerprint format version — bump when the probe set or field order
/// changes, so stale cache keys can never alias new ones.
const VERSION: u64 = 1;

/// Effective prices at which each provider's demand curve is probed.
const PROBE_PRICES: [f64; 3] = [0.25, 0.75, 1.5];

/// Utilizations at which each provider's throughput curve is probed.
const PROBE_PHIS: [f64; 3] = [0.2, 0.5, 0.9];

/// `-0.0` and `0.0` are the same market parameter; give them one bit
/// pattern. A non-finite value has no canonical pattern at all — it
/// would poison the key (see the module docs), so it is rejected here
/// with the name of the quantity that produced it.
fn canonical_bits(what: &'static str, x: f64) -> NumResult<u64> {
    if !x.is_finite() {
        return Err(NumError::NonFinite { what, at: x });
    }
    Ok(if x == 0.0 { 0 } else { x.to_bits() })
}

/// FNV-1a over one 64-bit word, byte by byte (little-endian) — the one
/// fold behind game fingerprints, market → shard placement and the
/// adoption loop's trajectory checksum.
pub fn fnv_fold(mut h: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The canonical 64-bit fingerprint of a game, or a typed error if any
/// covered parameter or probe response is non-finite. Allocation-free.
pub fn fingerprint(game: &SubsidyGame) -> NumResult<u64> {
    let mut h = fnv_fold(FNV_OFFSET, VERSION);
    h = fnv_fold(h, game.n() as u64);
    h = fnv_fold(h, game.clamps_effective_price() as u64);
    h = fnv_fold(h, canonical_bits("fingerprint: capacity µ", game.system().mu())?);
    h = fnv_fold(h, canonical_bits("fingerprint: price p", game.price())?);
    h = fnv_fold(h, canonical_bits("fingerprint: cap q", game.cap())?);
    for cp in game.system().cps() {
        h = fnv_fold(h, canonical_bits("fingerprint: profitability v_i", cp.profitability())?);
        for t in PROBE_PRICES {
            h = fnv_fold(h, canonical_bits("fingerprint: demand probe n_i(t)", cp.population(t))?);
        }
        for phi in PROBE_PHIS {
            h = fnv_fold(
                h,
                canonical_bits("fingerprint: throughput probe λ_i(φ)", cp.lambda(phi))?,
            );
        }
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{random_system, section3_system};
    use subcomp_core::game::Axis;

    fn game() -> SubsidyGame {
        SubsidyGame::new(section3_system(), 0.6, 0.8).unwrap()
    }

    fn key(game: &SubsidyGame) -> u64 {
        fingerprint(game).expect("finite market fingerprints cleanly")
    }

    #[test]
    fn deterministic_and_axis_sensitive() {
        let base = key(&game());
        assert_eq!(base, key(&game()), "same game, same key");
        for axis in [Axis::Price, Axis::Cap, Axis::Mu, Axis::Profitability(0)] {
            let mut g = game();
            let v = axis.value(&g);
            axis.apply(&mut g, v + 0.05).unwrap();
            assert_ne!(base, key(&g), "{} must perturb the key", axis.describe());
            // Writing the original value back restores the key exactly.
            axis.apply(&mut g, v).unwrap();
            assert_eq!(base, key(&g));
        }
    }

    #[test]
    fn clamp_flag_and_market_shape_are_covered() {
        let base = key(&game());
        let clamped = game().with_clamped_price(true);
        assert_ne!(base, key(&clamped));
        let other = SubsidyGame::new(random_system(4, 99, 1.0), 0.6, 0.8).unwrap();
        assert_ne!(base, key(&other));
    }

    #[test]
    fn negative_zero_price_aliases_positive_zero() {
        // A cap of -0.0 and 0.0 describe the same regulation; the cache
        // must not solve the market twice.
        let a = SubsidyGame::new(section3_system(), 0.6, 0.0).unwrap();
        let b = SubsidyGame::new(section3_system(), 0.6, -0.0).unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn non_finite_canonical_bits_are_typed_errors() {
        // The scalar screening primitive itself: NaN and both infinities
        // are rejected with the quantity's name; finite values pass.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            match canonical_bits("fingerprint: demand probe n_i(t)", bad) {
                Err(NumError::NonFinite { what, .. }) => {
                    assert!(what.contains("fingerprint"), "error lost its context: {what}");
                }
                other => panic!("non-finite value produced {other:?}"),
            }
        }
        assert_eq!(canonical_bits("x", -0.0).unwrap(), 0);
        assert_eq!(canonical_bits("x", 1.5).unwrap(), 1.5f64.to_bits());
    }
}
