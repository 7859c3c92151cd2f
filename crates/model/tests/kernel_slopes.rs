//! The system kernel's populations and slopes ([`System::population_of`],
//! [`System::dm_dt_of`], [`System::d2m_dt2_of`],
//! [`System::dlambda_dphi_of`], [`System::d2lambda_dphi2_of`] and
//! [`System::lambda_and_gap_slope`]) against the trait calls they replace
//! on the solver paths, bit for bit.
//!
//! For the paper's exponential family the kernel reads each derivative off
//! the population or throughput the state already holds (`−α·m`, `α·α·m`,
//! `−β·λ`, `β·β·λ`), so it must agree with `DemandFn`/`ThroughputFn` to the
//! last bit at the state's own `m` and `λ`: with effective prices on both
//! sides of zero and utilizations across `[0, Φ(peak, µ)]`. Every other
//! family must fall through to its trait object, which the test checks by
//! handing those providers a held value of NaN: the kernel must ignore it.

use proptest::prelude::*;
use subcomp_model::cp::ContentProvider;
use subcomp_model::demand::{ExpDemand, IsoelasticDemand, LinearDemand, LogisticDemand};
use subcomp_model::system::{System, SystemState};
use subcomp_model::throughput::{ExpThroughput, LogisticThroughput, PowerThroughput};
use subcomp_model::utilization::{LinearUtilization, PowerUtilization, UtilizationFn};

/// Demand family `d`: 0 exponential, 1 linear, 2 isoelastic, 3 logistic.
/// Throughput family `h`: 0 exponential, 1 power, 2 logistic.
fn provider(j: usize, d: usize, h: usize, scale: f64, rate: f64) -> ContentProvider {
    let cp = ContentProvider::builder(format!("cp{j}"));
    let cp = match d {
        0 => cp.demand(ExpDemand::new(scale, rate)),
        1 => cp.demand(LinearDemand::new(scale, 1.0 + rate).unwrap()),
        2 => cp.demand(IsoelasticDemand::new(scale, rate).unwrap()),
        _ => cp.demand(LogisticDemand::new(scale, rate, 0.5).unwrap()),
    };
    let cp = match h {
        0 => cp.throughput(ExpThroughput::new(scale, rate)),
        1 => cp.throughput(PowerThroughput::new(scale, rate)),
        _ => cp.throughput(LogisticThroughput::new(scale, rate + 1.0, 0.5).unwrap()),
    };
    cp.profitability(1.0).build()
}

/// Fails the case unless the kernel's value is the trait call's, bit for
/// bit.
fn same(kernel: f64, trait_call: f64, what: &str) -> TestCaseResult {
    prop_assert!(
        kernel.to_bits() == trait_call.to_bits(),
        "{what}: kernel {kernel:e} vs trait {trait_call:e}"
    );
    Ok(())
}

fn utilization(power: bool) -> Box<dyn UtilizationFn> {
    if power {
        Box::new(PowerUtilization::new(2.0).unwrap())
    } else {
        Box::new(LinearUtilization)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 32 } else { 256 }))]

    #[test]
    fn exponential_slopes_are_the_trait_calls_bit_for_bit(
        cps in proptest::collection::vec(
            (0.2f64..3.0, 0.3f64..8.0, 0.3f64..2.0, 0.3f64..8.0, -1.5f64..2.5),
            1..9,
        ),
        load in 0.3f64..3.0,
        at in 0.0f64..1.0,
        power in 0usize..2,
    ) {
        let providers = cps.iter().enumerate().map(|(j, &(m0, alpha, l0, beta, _))| {
            ContentProvider::builder(format!("cp{j}"))
                .demand(ExpDemand::new(m0, alpha))
                .throughput(ExpThroughput::new(l0, beta))
                .profitability(1.0)
                .build()
        });
        let mut sys = System::new(providers.collect(), 1.0, utilization(power == 1)).unwrap();
        let t: Vec<f64> = cps.iter().map(|c| c.4).collect();
        let held = sys.populations(&t).unwrap();
        let peak: f64 = cps.iter().zip(&held).map(|(c, mj)| c.2 * mj).sum();
        sys.set_mu(peak * load).unwrap();
        let phi = at * sys.utilization_fn().phi(peak, sys.mu());
        prop_assert!(phi.is_finite());

        let mut scratch = sys.make_scratch();
        let mut state = SystemState::empty();
        sys.state_at_phi_into(phi, &held, &mut scratch, &mut state).unwrap();
        for (j, cp) in sys.cps().iter().enumerate() {
            let (demand, throughput) = (cp.demand(), cp.throughput());
            let (tj, mj, lj) = (t[j], state.m[j], state.lambda[j]);
            same(sys.population_of(j, tj), cp.population(tj), "m")?;
            same(mj, cp.population(tj), "the state's m")?;
            same(lj, cp.lambda(phi), "the state's λ")?;
            same(sys.dm_dt_of(j, tj, mj), demand.dm_dt(tj), "m'")?;
            same(sys.d2m_dt2_of(j, tj, mj), demand.d2m_dt2(tj), "m''")?;
            same(sys.dlambda_dphi_of(j, phi, lj), throughput.dlambda_dphi(phi), "λ'")?;
            same(sys.d2lambda_dphi2_of(j, phi, lj), throughput.d2lambda_dphi2(phi), "λ''")?;
            let (lambda, slope) = sys.lambda_and_gap_slope(j, phi, &held, &mut scratch);
            same(lambda, lj, "the probe's λ")?;
            same(slope, sys.dgap_dphi(phi, &held), "the probe's g'")?;
            same(slope, state.dg_dphi, "the state's g'")?;
        }
    }

    #[test]
    fn other_families_fall_through_to_their_trait_objects(
        cps in proptest::collection::vec((0usize..4, 0usize..3, 0.3f64..2.0, 0.3f64..6.0), 1..7),
        t in -1.5f64..2.5,
        phi in 0.0f64..3.0,
    ) {
        let providers = cps.iter().enumerate().map(|(j, &(d, h, scale, rate))| {
            provider(j, d, h, scale, rate)
        });
        let sys = System::new(providers.collect(), 1.0, LinearUtilization).unwrap();
        let mut scratch = sys.make_scratch();
        let m = sys.populations(&vec![t; sys.n()]).unwrap();
        for (j, (cp, &(d, h, ..))) in sys.cps().iter().zip(&cps).enumerate() {
            let (demand, throughput) = (cp.demand(), cp.throughput());
            same(sys.population_of(j, t), cp.population(t), "m")?;
            prop_assert_eq!(demand.exp_coeffs().is_some(), d == 0);
            prop_assert_eq!(throughput.exp_coeffs().is_some(), h == 0);
            // A held value of NaN shows whether the kernel read it: the
            // exponential family must, every other family must not.
            let (dm, d2m) = (sys.dm_dt_of(j, t, f64::NAN), sys.d2m_dt2_of(j, t, f64::NAN));
            if d == 0 {
                prop_assert!(dm.is_nan() && d2m.is_nan());
            } else {
                same(dm, demand.dm_dt(t), demand.name())?;
                same(d2m, demand.d2m_dt2(t), demand.name())?;
            }
            let (dl, d2l) =
                (sys.dlambda_dphi_of(j, phi, f64::NAN), sys.d2lambda_dphi2_of(j, phi, f64::NAN));
            if h == 0 {
                prop_assert!(dl.is_nan() && d2l.is_nan());
            } else {
                same(dl, throughput.dlambda_dphi(phi), throughput.name())?;
                same(d2l, throughput.d2lambda_dphi2(phi), throughput.name())?;
            }
            let (lambda, slope) = sys.lambda_and_gap_slope(j, phi, &m, &mut scratch);
            same(lambda, cp.lambda(phi), "the probe's λ")?;
            same(slope, sys.dgap_dphi(phi, &m), "the probe's g'")?;
        }
    }
}
