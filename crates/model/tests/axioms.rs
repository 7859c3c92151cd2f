//! Property tests of the model axioms (Assumptions 1 and 2) across every
//! function family the crate ships, plus cross-family system solves, and
//! every closed-form second derivative against a central difference of
//! the first (`num::diff`).

use proptest::prelude::*;
use subcomp_model::cp::ContentProvider;
use subcomp_model::demand::{DemandFn, ExpDemand, IsoelasticDemand, LinearDemand, LogisticDemand};
use subcomp_model::system::System;
use subcomp_model::throughput::{ExpThroughput, LogisticThroughput, PowerThroughput, ThroughputFn};
use subcomp_model::utilization::{
    LinearUtilization, PowerUtilization, QueueUtilization, UtilizationFn,
};
use subcomp_num::diff::derivative;

fn throughput_family(idx: usize, lambda0: f64, beta: f64) -> Box<dyn ThroughputFn> {
    match idx % 3 {
        0 => Box::new(ExpThroughput::new(lambda0, beta)),
        1 => Box::new(PowerThroughput::new(lambda0, beta)),
        _ => Box::new(LogisticThroughput::new(lambda0, beta + 1.0, 0.5).unwrap()),
    }
}

fn demand_family(idx: usize, m0: f64, alpha: f64) -> Box<dyn DemandFn> {
    match idx % 4 {
        0 => Box::new(ExpDemand::new(m0, alpha)),
        1 => Box::new(LinearDemand::new(m0, 1.0 + alpha).unwrap()),
        2 => Box::new(IsoelasticDemand::new(m0, alpha).unwrap()),
        _ => Box::new(LogisticDemand::new(m0, alpha, 0.8).unwrap()),
    }
}

fn utilization_family(idx: usize) -> Box<dyn UtilizationFn> {
    match idx % 3 {
        0 => Box::new(LinearUtilization),
        1 => Box::new(PowerUtilization::new(1.4).unwrap()),
        _ => Box::new(QueueUtilization),
    }
}

/// Whether a closed form agrees with a central difference of the next
/// lower derivative: relative 1e-5 plus an absolute floor of 1e-7.
fn agrees(closed: f64, fd: f64) -> bool {
    (closed - fd).abs() <= 1e-5 * fd.abs() + 1e-7
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn throughput_axioms_all_families(
        fam in 0usize..3,
        lambda0 in 0.3f64..3.0,
        beta in 0.5f64..5.0,
        phi in 0.01f64..4.0,
    ) {
        let t = throughput_family(fam, lambda0, beta);
        // Positive, decreasing, derivative negative, elasticity <= 0.
        prop_assert!(t.lambda(phi) > 0.0);
        prop_assert!(t.lambda(phi + 0.1) < t.lambda(phi));
        prop_assert!(t.dlambda_dphi(phi) < 0.0);
        prop_assert!(t.elasticity(phi) <= 0.0);
        // Vanishing tail — the power-law family decays like phi^{-beta},
        // so probe far enough out for the slowest admissible beta.
        prop_assert!(t.lambda(1e6) < 1e-2 * t.peak());
    }

    #[test]
    fn demand_axioms_all_families(
        fam in 0usize..4,
        m0 in 0.3f64..3.0,
        alpha in 0.5f64..5.0,
        t1 in 0.0f64..2.0,
    ) {
        let d = demand_family(fam, m0, alpha);
        prop_assert!(d.m(t1) >= 0.0);
        prop_assert!(d.m(t1 + 0.1) <= d.m(t1) + 1e-12);
        prop_assert!(d.dm_dt(t1) <= 0.0);
        // Scaled copy multiplies the population, preserves elasticity.
        let s = d.scaled(2.0);
        prop_assert!((s.m(t1) - 2.0 * d.m(t1)).abs() < 1e-9);
    }

    #[test]
    fn utilization_inverse_roundtrip(
        fam in 0usize..3,
        theta in 0.01f64..0.9,
        mu in 0.5f64..3.0,
    ) {
        let u = utilization_family(fam);
        let phi = u.phi(theta, mu);
        prop_assume!(phi.is_finite());
        let back = u.theta(phi, mu);
        prop_assert!((back - theta).abs() < 1e-8 * (1.0 + theta));
        // Partials positive.
        prop_assert!(u.dtheta_dphi(phi.max(1e-6), mu) > 0.0);
        prop_assert!(u.dtheta_dmu(phi, mu) >= 0.0);
    }

    #[test]
    fn mixed_family_systems_solve(
        tf in 0usize..3,
        df in 0usize..4,
        uf in 0usize..3,
        mu in 0.4f64..2.5,
        p in 0.0f64..1.5,
    ) {
        // Any combination of families yields a solvable, consistent system.
        let cps = vec![
            ContentProvider::builder("mixed-a")
                .demand_boxed(demand_family(df, 1.0, 2.0))
                .throughput_boxed(throughput_family(tf, 1.0, 2.0))
                .profitability(1.0)
                .build(),
            ContentProvider::builder("mixed-b")
                .demand_boxed(demand_family((df + 1) % 4, 0.7, 4.0))
                .throughput_boxed(throughput_family((tf + 1) % 3, 1.2, 3.0))
                .profitability(0.5)
                .build(),
        ];
        let sys = match uf % 3 {
            0 => System::new(cps, mu, LinearUtilization).unwrap(),
            1 => System::new(cps, mu, PowerUtilization::new(1.4).unwrap()).unwrap(),
            _ => System::new(cps, mu, QueueUtilization).unwrap(),
        };
        let state = sys.state_at_uniform_price(p).unwrap();
        prop_assert!(state.phi >= 0.0 && state.phi.is_finite());
        prop_assert!(state.residual(&sys) < 1e-7, "residual {}", state.residual(&sys));
        prop_assert!(state.dg_dphi > 0.0);
        // Theorem 1 monotonicity survives family mixing.
        let bigger = sys.with_capacity(mu * 1.3).unwrap();
        let state2 = bigger.state_at_uniform_price(p).unwrap();
        prop_assert!(state2.phi <= state.phi + 1e-12);
    }

    #[test]
    fn price_monotonicity_all_families(
        tf in 0usize..3,
        df in 0usize..4,
        p in 0.05f64..1.2,
    ) {
        let cps = vec![ContentProvider::builder("x")
            .demand_boxed(demand_family(df, 1.0, 3.0))
            .throughput_boxed(throughput_family(tf, 1.0, 2.5))
            .profitability(1.0)
            .build()];
        let sys = System::new(cps, 1.0, LinearUtilization).unwrap();
        let lo = sys.state_at_uniform_price(p).unwrap();
        let hi = sys.state_at_uniform_price(p + 0.2).unwrap();
        // Theorem 2: utilization and aggregate throughput fall with price.
        prop_assert!(hi.phi <= lo.phi + 1e-12);
        prop_assert!(hi.theta() <= lo.theta() + 1e-12);
    }

    #[test]
    fn demand_second_derivative_all_families(
        fam in 0usize..4,
        m0 in 0.3f64..3.0,
        alpha in 0.5f64..5.0,
        t in -0.4f64..2.0,
    ) {
        let d = demand_family(fam, m0, alpha);
        // Keep the stencil off the kinks: linear demand bends at 0 and
        // t_max = 1 + α.
        prop_assume!(fam % 4 != 1 || (t.abs() > 1e-3 && (t - 1.0 - alpha).abs() > 1e-3));
        let fd = derivative(&|x| d.dm_dt(x), t).unwrap();
        let closed = d.d2m_dt2(t);
        prop_assert!(agrees(closed, fd), "{}: m''({t}) = {closed} vs fd {fd}", d.name());
    }

    #[test]
    fn throughput_second_derivative_all_families(
        fam in 0usize..3,
        lambda0 in 0.3f64..3.0,
        beta in 0.5f64..5.0,
        phi in 0.01f64..4.0,
    ) {
        let t = throughput_family(fam, lambda0, beta);
        let fd = derivative(&|x| t.dlambda_dphi(x), phi).unwrap();
        let closed = t.d2lambda_dphi2(phi);
        prop_assert!(agrees(closed, fd), "{}: λ''({phi}) = {closed} vs fd {fd}", t.name());
    }

    #[test]
    fn utilization_second_partials_all_families(
        fam in 0usize..4,
        phi in 0.05f64..4.0,
        mu in 0.5f64..3.0,
    ) {
        // The boxed forwarding impl is what `System` holds, so probe
        // through it; family 3 adds the early-onset power law γ = 0.5.
        let u: Box<dyn UtilizationFn> = if fam == 3 {
            Box::new(PowerUtilization::new(0.5).unwrap())
        } else {
            utilization_family(fam)
        };
        let fd_phi = derivative(&|x| u.dtheta_dphi(x, mu), phi).unwrap();
        let fd_mu = derivative(&|m| u.dtheta_dphi(phi, m), mu).unwrap();
        let (cpp, cpm) = (u.d2theta_dphi2(phi, mu), u.d2theta_dphi_dmu(phi, mu));
        prop_assert!(agrees(cpp, fd_phi), "{}: Θ_φφ = {cpp} vs fd {fd_phi}", u.name());
        prop_assert!(agrees(cpm, fd_mu), "{}: Θ_φµ = {cpm} vs fd {fd_mu}", u.name());
    }
}
