//! Inputs shared by the oracle tiers (`sensitivity_oracle.rs`,
//! `newton_oracle.rs`).

use subcomp::game::game::SubsidyGame;
use subcomp::model::cp::ContentProvider;
use subcomp::model::demand::{DemandFn, ExpDemand, IsoelasticDemand, LinearDemand, LogisticDemand};
use subcomp::model::system::System;
use subcomp::model::throughput::{ExpThroughput, LogisticThroughput, PowerThroughput};
use subcomp::model::utilization::{
    LinearUtilization, PowerUtilization, QueueUtilization, UtilizationFn,
};

/// A mixed-family market: `families` picks the utilization (linear,
/// power γ = 0.5, power γ = 2, queue), the throughput of provider 0
/// (exponential, power, logistic) and the demand of provider 1
/// (exponential, linear, isoelastic, logistic); everyone else is
/// exponential. Prices stay above the cap, so every effective price sits
/// inside the linear family's smooth range.
pub fn mixed_game(
    (util, tput, dem): (usize, usize, usize),
    cps: &[(f64, f64, f64, f64)],
    mu: f64,
    p: f64,
    q_frac: f64,
) -> SubsidyGame {
    let providers = cps.iter().enumerate().map(|(j, &(alpha, l0, beta, v))| {
        let demand: Box<dyn DemandFn> = match (j, dem) {
            (1, 1) => Box::new(LinearDemand::new(1.0, p + 1.0 + alpha).unwrap()),
            (1, 2) => Box::new(IsoelasticDemand::new(1.0, alpha).unwrap()),
            (1, 3) => Box::new(LogisticDemand::new(1.0, alpha, 0.8).unwrap()),
            _ => Box::new(ExpDemand::new(1.0, alpha)),
        };
        let cp = ContentProvider::builder(format!("cp{j}")).demand_boxed(demand);
        let cp = match (j, tput) {
            (0, 1) => cp.throughput(PowerThroughput::new(l0, beta)),
            (0, 2) => cp.throughput(LogisticThroughput::new(l0, beta + 1.0, 0.5).unwrap()),
            _ => cp.throughput(ExpThroughput::new(l0, beta)),
        };
        cp.profitability(v).build()
    });
    let utilization: Box<dyn UtilizationFn> = match util {
        0 => Box::new(LinearUtilization),
        1 => Box::new(PowerUtilization::new(0.5).unwrap()),
        2 => Box::new(PowerUtilization::new(2.0).unwrap()),
        _ => Box::new(QueueUtilization),
    };
    // The queue family needs capacity above the peak load.
    let peak: f64 = cps.iter().map(|&(_, l0, _, _)| 2.0 * l0).sum();
    let mu = if util == 3 { peak * (1.0 + mu) } else { mu };
    let system = System::new(providers.collect(), mu, utilization).unwrap();
    SubsidyGame::new(system, p, q_frac * p).unwrap()
}
