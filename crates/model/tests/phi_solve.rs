//! The seeded Newton φ solve ([`System::solve_phi_with`]) against the
//! Brent oracle (`num::roots::solve_increasing` on [`System::gap`]) on
//! random exponential systems under every utilization family, with power
//! and logistic throughput providers mixed in, from cold, bracket-end and
//! off-root seeds.

use proptest::prelude::*;
use subcomp_model::cp::ContentProvider;
use subcomp_model::demand::ExpDemand;
use subcomp_model::system::System;
use subcomp_model::throughput::{ExpThroughput, LogisticThroughput, PowerThroughput};
use subcomp_model::utilization::{
    LinearUtilization, PowerUtilization, QueueUtilization, UtilizationFn,
};
use subcomp_num::roots::solve_increasing;
use subcomp_num::Tolerance;

/// Utilization families: linear, power γ = 0.5, power γ = 2 (Θ′(0) = ∞),
/// queue below capacity, queue past capacity (Φ(peak) = ∞).
fn utilization(family: usize) -> Box<dyn UtilizationFn> {
    match family {
        0 => Box::new(LinearUtilization),
        1 => Box::new(PowerUtilization::new(0.5).unwrap()),
        2 => Box::new(PowerUtilization::new(2.0).unwrap()),
        _ => Box::new(QueueUtilization),
    }
}

/// Provider `j` with peak `l0` and congestion sensitivity `beta`; `mix`
/// swaps provider 0 for a power-law (1) or logistic (2) throughput.
fn provider(j: usize, mix: usize, l0: f64, beta: f64) -> ContentProvider {
    let cp = ContentProvider::builder(format!("cp{j}")).demand(ExpDemand::new(1.0, 2.0));
    let cp = match (j, mix) {
        (0, 1) => cp.throughput(PowerThroughput::new(l0, beta)),
        (0, 2) => cp.throughput(LogisticThroughput::new(l0, beta + 1.0, 0.5).unwrap()),
        _ => cp.throughput(ExpThroughput::new(l0, beta)),
    };
    cp.profitability(1.0).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn seeded_newton_matches_the_brent_oracle(
        family in 0usize..5,
        mix in 0usize..3,
        cps in proptest::collection::vec((0.3f64..2.0, 0.5f64..6.0, 0.0f64..3.0), 1..7),
        load in 0.3f64..3.0,
        below in 0.0f64..1.0,
        above in 0.0f64..1.0,
    ) {
        let peak: f64 = cps.iter().map(|&(l0, _, m)| l0 * m).sum();
        prop_assume!(peak > 0.0);
        // µ in units of the peak demand. The queue runs below capacity in
        // family 3 and past it in family 4, where Φ(peak) = ∞ and the
        // bracket has no finite top.
        let mu = match family {
            3 => peak * (1.05 + load),
            4 => peak * (0.3 + 0.6 * below),
            _ => peak * load,
        };
        let providers = cps.iter().enumerate().map(|(j, &(l0, b, _))| provider(j, mix, l0, b));
        let sys = System::new(providers.collect(), mu, utilization(family)).unwrap();
        let m: Vec<f64> = cps.iter().map(|&(_, _, m)| m).collect();

        let top = sys.utilization_fn().phi(peak, mu);
        prop_assert_eq!(top.is_infinite(), family == 4);
        let step = if top.is_finite() { top } else { 1.0 };
        let tol = Tolerance::new(1e-13, 1e-13).with_max_iter(300);
        let oracle = solve_increasing(&|phi| sys.gap(phi, &m), 0.0, step, tol).unwrap().x;
        prop_assert!(oracle > 0.0);

        let far = if top.is_finite() { top } else { 2.0 * oracle + 1.0 };
        let seeds = [
            f64::NAN,
            0.0,
            oracle * (1.0 - below),
            oracle + above * (far - oracle),
            top,
        ];
        let mut scratch = sys.make_scratch();
        for seed in seeds {
            let phi = sys.solve_phi_with(&m, seed, &mut scratch).unwrap();
            prop_assert!(
                (phi - oracle).abs() <= 1e-12 * oracle,
                "family {} mix {} seed {}: newton {} vs brent {}", family, mix, seed, phi, oracle
            );
            let again = sys.solve_phi_with(&m, seed, &mut scratch).unwrap();
            prop_assert!(phi.to_bits() == again.to_bits(), "seed {} not repeatable", seed);
        }
    }
}
