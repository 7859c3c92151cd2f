//! The simulators against the analytic model (experiment E3 of
//! `subcomp_exp::extensions`):
//! the Definition 1 fixed point emerges from a stochastic flow-level
//! link, and myopic market agents find the analytic Nash equilibrium.

use subcomp::game::game::SubsidyGame;
use subcomp::model::aggregation::{build_system, ExpCpSpec};
use subcomp::model::cp::ContentProvider;
use subcomp::model::demand::ExpDemand;
use subcomp::model::system::System;
use subcomp::model::utilization::LinearUtilization;
use subcomp::sim::flow::{FlowSim, FlowSimConfig, SharingMode};
use subcomp::sim::market::{MarketSim, MarketSimConfig};
use subcomp::sim::measured::MeasuredThroughput;
// The same graded oligopoly markets the golden corpus pins, so these
// tests and the `oligopoly-n*` snapshots stay in lockstep by construction.
use subcomp_exp::corpus::graded_specs;

fn three_cp_system() -> System {
    build_system(
        &[
            ExpCpSpec::unit(2.0, 2.0, 1.0),
            ExpCpSpec::unit(5.0, 5.0, 0.5),
            ExpCpSpec::unit(3.0, 1.0, 1.0),
        ],
        1.0,
    )
    .unwrap()
}

#[test]
fn flow_sim_recovers_definition1_fixed_point() {
    let sys = three_cp_system();
    for p in [0.25, 0.75] {
        let rep = FlowSim::new(&sys, vec![p; 3], FlowSimConfig::default()).unwrap().run().unwrap();
        assert!(
            rep.phi_rel_error < 0.04,
            "p = {p}: sim {} vs analytic {}",
            rep.phi_mean,
            rep.analytic_phi
        );
    }
}

#[test]
fn flow_sim_reflects_subsidies() {
    // Subsidizing CP 1 in the simulator shifts populations and
    // utilization exactly as the analytic game predicts.
    let sys = three_cp_system();
    let game = SubsidyGame::new(sys.clone(), 0.6, 0.5).unwrap();
    let s = vec![0.0, 0.4, 0.0];
    let analytic = game.state(&s).unwrap();
    let rep = FlowSim::new(&sys, game.effective_prices(&s), FlowSimConfig::default())
        .unwrap()
        .run()
        .unwrap();
    assert!((rep.phi_mean - analytic.phi).abs() / analytic.phi < 0.04);
    for i in 0..3 {
        let err = (rep.m_mean[i] - analytic.m[i]).abs() / analytic.m[i].max(1e-6);
        assert!(err < 0.08, "CP {i}: sim m {} vs analytic {}", rep.m_mean[i], analytic.m[i]);
    }
}

#[test]
fn measured_curve_closes_the_loop() {
    // Measure an emergent lambda(phi) curve from the processor-sharing
    // simulator, build a model CP on it, and solve the fixed point — the
    // full measurement-to-model pipeline.
    let sys = three_cp_system();
    let cfg = FlowSimConfig {
        ticks: 2000,
        warmup: 500,
        mode: SharingMode::ProcessorSharing,
        ..Default::default()
    };
    let sim = FlowSim::new(&sys, vec![0.2; 3], cfg).unwrap();
    // Scales straddle saturation so the measured curve has a genuinely
    // decreasing contention branch.
    let curve = sim.measure_curve(0, &[0.4, 0.8, 1.2, 1.6, 2.0, 2.4]).unwrap();
    let measured = MeasuredThroughput::from_samples(&curve).unwrap();
    let cp = ContentProvider::builder("measured")
        .demand(ExpDemand::new(1.0, 2.0))
        .throughput(measured)
        .profitability(1.0)
        .build();
    let model = System::new(vec![cp], 1.0, LinearUtilization).unwrap();
    let state = model.state_at_uniform_price(0.4).unwrap();
    assert!(state.phi.is_finite() && state.phi > 0.0);
    assert!(state.residual(&model) < 1e-8);
}

#[test]
fn market_sim_finds_nash() {
    let sys = build_system(&[ExpCpSpec::unit(5.0, 2.0, 1.0), ExpCpSpec::unit(2.0, 4.0, 0.4)], 1.0)
        .unwrap();
    let game = SubsidyGame::new(sys, 0.7, 1.0).unwrap();
    let report = MarketSim::new(&game, MarketSimConfig::default()).unwrap().run().unwrap();
    assert!(
        report.distance_to_nash < 0.1,
        "market {:?} vs nash {:?}",
        report.final_subsidies,
        report.nash_subsidies
    );
    // Money conservation across the whole run.
    assert!(report.ledger.conservation_error() < 1e-6 * report.ledger.isp_revenue);
}

#[test]
fn market_sim_finds_nash_in_triopoly() {
    // The suite historically exercised only the duopoly path; myopic
    // A/B-experimenting agents must find the analytic equilibrium in
    // larger markets too (rotation slows down with N, so give the
    // triopoly the default horizon).
    let sys = build_system(&graded_specs(3), 1.0).unwrap();
    let game = SubsidyGame::new(sys, 0.6, 0.8).unwrap();
    let report = MarketSim::new(&game, MarketSimConfig::default()).unwrap().run().unwrap();
    assert!(
        report.distance_to_nash < 0.13,
        "triopoly market {:?} vs nash {:?} (dist {})",
        report.final_subsidies,
        report.nash_subsidies,
        report.distance_to_nash
    );
    assert!(report.ledger.conservation_error() < 1e-6 * report.ledger.isp_revenue);
}

#[test]
fn market_sim_finds_nash_in_five_cp_oligopoly() {
    // Five CPs: each provider only experiments every 5th review period,
    // so the horizon grows accordingly.
    let sys = build_system(&graded_specs(5), 1.0).unwrap();
    let game = SubsidyGame::new(sys, 0.6, 0.8).unwrap();
    let cfg = MarketSimConfig { days: 9000, ..Default::default() };
    let report = MarketSim::new(&game, cfg).unwrap().run().unwrap();
    assert!(
        report.distance_to_nash < 0.15,
        "5-CP market {:?} vs nash {:?} (dist {})",
        report.final_subsidies,
        report.nash_subsidies,
        report.distance_to_nash
    );
    // The ranking of subsidies must match the analytic one: more
    // profitable, more price-elastic types subsidize more (Figure 8's
    // pattern carried over to the oligopoly).
    for i in 1..5 {
        assert!(
            report.final_subsidies[i] >= report.final_subsidies[i - 1] - 0.05,
            "sim subsidy ordering broken at {i}: {:?}",
            report.final_subsidies
        );
    }
}

#[test]
fn deregulation_story_survives_in_simulation() {
    // Corollary 1 observed through the market simulator: ISP cumulative
    // revenue is larger when subsidies are allowed.
    let sys = build_system(&[ExpCpSpec::unit(5.0, 2.0, 1.0), ExpCpSpec::unit(2.0, 4.0, 0.4)], 1.0)
        .unwrap();
    let cfg = MarketSimConfig { days: 2500, ..Default::default() };
    let banned = {
        let game = SubsidyGame::new(sys.clone(), 0.7, 0.0).unwrap();
        MarketSim::new(&game, cfg).unwrap().run().unwrap().ledger.isp_revenue
    };
    let open = {
        let game = SubsidyGame::new(sys, 0.7, 1.0).unwrap();
        MarketSim::new(&game, cfg).unwrap().run().unwrap().ledger.isp_revenue
    };
    assert!(open > banned, "revenue open {open} must beat banned {banned}");
}
