//! Property-based tests for the numerical substrate.

use proptest::prelude::*;
use subcomp_num::linalg::lu::{inverse, solve, LuDecomposition};
use subcomp_num::linalg::Matrix;
use subcomp_num::optimize::{golden_max, maximize_scalar};
use subcomp_num::roots::{brent, expand_upward, newton, solve_increasing, Bracket};
use subcomp_num::stats::{quantile, Running};
use subcomp_num::Tolerance;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn brent_finds_root_of_shifted_cubic(shift in -50.0f64..50.0) {
        // x^3 + x - shift has a unique real root for all shifts.
        let f = move |x: f64| x * x * x + x - shift;
        let r = brent(&f, Bracket::new(-40.0, 40.0), Tolerance::tight()).unwrap();
        prop_assert!(f(r.x).abs() < 1e-8, "residual {}", f(r.x));
    }

    #[test]
    fn expand_upward_always_brackets_monotone(
        slope in 0.01f64..100.0,
        root in 0.0f64..1e6,
    ) {
        let f = move |x: f64| slope * (x - root) - 1e-9;
        let br = expand_upward(&f, 0.0, 1.0, 128).unwrap();
        prop_assert!(f(br.a) <= 0.0);
        prop_assert!(f(br.b) >= 0.0);
    }

    #[test]
    fn solve_increasing_gap_functions(
        m1 in 0.01f64..5.0,
        m2 in 0.01f64..5.0,
        b1 in 0.2f64..6.0,
        b2 in 0.2f64..6.0,
        mu in 0.2f64..4.0,
    ) {
        // Lemma 1-style gap functions always solve.
        let g = move |phi: f64| phi * mu - m1 * (-b1 * phi).exp() - m2 * (-b2 * phi).exp();
        let r = solve_increasing(&g, 0.0, 1.0, Tolerance::tight()).unwrap();
        prop_assert!(r.x > 0.0);
        prop_assert!(g(r.x).abs() < 1e-9);
    }

    #[test]
    fn solve_increasing_random_increasing_functions(
        root in -5.0f64..500.0,
        lin in 0.05f64..20.0,
        cub in 0.0f64..5.0,
        atn in 0.0f64..10.0,
        lo_off in 0.01f64..50.0,
        step in 0.05f64..8.0,
    ) {
        // Lemma 1 path: any strictly increasing function that starts
        // negative must converge to its unique bracketed root, for random
        // starting points and random initial bracket-expansion steps.
        let f = move |x: f64| {
            let d = x - root;
            lin * d + cub * d * d * d + atn * d.atan()
        };
        let lo = root - lo_off;
        let r = solve_increasing(&f, lo, step, Tolerance::tight()).unwrap();
        prop_assert!(
            (r.x - root).abs() < 1e-6 * (1.0 + root.abs()),
            "root {} found {} (err {:.2e})", root, r.x, (r.x - root).abs()
        );
        prop_assert!(f(r.x).abs() < 1e-5, "residual {:.2e}", f(r.x));
    }

    #[test]
    fn newton_random_increasing_functions(
        root in -5.0f64..500.0,
        lin in 0.05f64..20.0,
        cub in 0.0f64..5.0,
        atn in 0.0f64..10.0,
        lo_off in 0.01f64..50.0,
        hi_off in 0.01f64..50.0,
        start in 0.0f64..1.0,
        open_top in 0u32..2,
    ) {
        // The family above with its slope: safeguarded Newton converges to
        // the bracketed root from any start inside the bracket, and with
        // no finite upper end.
        let mut f = move |x: f64| {
            let d = x - root;
            (lin * d + cub * d * d * d + atn * d.atan(), lin + 3.0 * cub * d * d + atn / (1.0 + d * d))
        };
        let (lo, hi) = (root - lo_off, root + hi_off);
        let x0 = lo + start * (hi - lo);
        let top = if open_top == 1 { f64::INFINITY } else { hi };
        let r = newton(&mut f, x0, Some(Bracket::new(lo, top)), Tolerance::tight()).unwrap();
        prop_assert!(
            (r.x - root).abs() < 1e-9 * (1.0 + root.abs()),
            "root {} found {} (err {:.2e})", root, r.x, (r.x - root).abs()
        );
        prop_assert!(r.iterations <= 60, "{} iterations", r.iterations);
    }

    #[test]
    fn golden_max_parabola(center in -10.0f64..10.0, height in -5.0f64..5.0) {
        let f = move |x: f64| height - (x - center).powi(2);
        let m = golden_max(&f, -12.0, 12.0, Tolerance::new(1e-10, 1e-10).with_max_iter(300)).unwrap();
        prop_assert!((m.x - center).abs() < 1e-4);
        prop_assert!((m.value - height).abs() < 1e-8);
    }

    #[test]
    fn maximize_scalar_never_below_endpoints(
        a in -5.0f64..0.0,
        b in 0.1f64..5.0,
        w1 in -3.0f64..3.0,
        w2 in -3.0f64..3.0,
    ) {
        let f = move |x: f64| w1 * x + w2 * (x * 1.7).sin();
        let m = maximize_scalar(&f, a, b, 24, Tolerance::default()).unwrap();
        prop_assert!(m.value >= f(a) - 1e-9);
        prop_assert!(m.value >= f(b) - 1e-9);
        prop_assert!(m.x >= a && m.x <= b);
    }

    #[test]
    fn lu_solve_residual_small(
        entries in proptest::collection::vec(-3.0f64..3.0, 9),
        rhs in proptest::collection::vec(-3.0f64..3.0, 3),
    ) {
        // Diagonally boost to avoid (near-)singular draws.
        let mut a = Matrix::from_vec(3, 3, entries).unwrap();
        for i in 0..3 {
            let boost = 10.0 + a[(i, i)].abs();
            a[(i, i)] += if a[(i, i)] >= 0.0 { boost } else { -boost };
        }
        let x = solve(&a, &rhs).unwrap();
        let back = a.matvec(&x).unwrap();
        for i in 0..3 {
            prop_assert!((back[i] - rhs[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn lu_inverse_roundtrip(entries in proptest::collection::vec(-2.0f64..2.0, 16)) {
        let mut a = Matrix::from_vec(4, 4, entries).unwrap();
        for i in 0..4 {
            a[(i, i)] += 9.0;
        }
        let inv = inverse(&a).unwrap();
        let prod = a.matmul(&inv).unwrap();
        prop_assert!((&prod - &Matrix::identity(4)).norm_max() < 1e-9);
    }

    #[test]
    fn determinant_multiplicative(
        e1 in proptest::collection::vec(-2.0f64..2.0, 4),
        e2 in proptest::collection::vec(-2.0f64..2.0, 4),
    ) {
        let mut a = Matrix::from_vec(2, 2, e1).unwrap();
        let mut b = Matrix::from_vec(2, 2, e2).unwrap();
        a[(0, 0)] += 5.0;
        a[(1, 1)] += 5.0;
        b[(0, 0)] += 5.0;
        b[(1, 1)] += 5.0;
        let det_ab = LuDecomposition::new(&a.matmul(&b).unwrap()).unwrap().determinant();
        let det_a = LuDecomposition::new(&a).unwrap().determinant();
        let det_b = LuDecomposition::new(&b).unwrap().determinant();
        prop_assert!((det_ab - det_a * det_b).abs() < 1e-8 * det_ab.abs().max(1.0));
    }

    #[test]
    fn running_stats_match_direct(xs in proptest::collection::vec(-100.0f64..100.0, 2..60)) {
        let mut r = Running::new();
        for &x in &xs {
            r.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((r.mean() - mean).abs() < 1e-9 * (1.0 + mean.abs()));
        prop_assert!((r.variance() - var).abs() < 1e-7 * (1.0 + var.abs()));
    }

    #[test]
    fn quantiles_are_order_statistics(xs in proptest::collection::vec(-50.0f64..50.0, 1..40)) {
        let lo = quantile(&xs, 0.0).unwrap();
        let hi = quantile(&xs, 1.0).unwrap();
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(lo, min);
        prop_assert_eq!(hi, max);
        let med = quantile(&xs, 0.5).unwrap();
        prop_assert!(med >= min && med <= max);
    }
}
