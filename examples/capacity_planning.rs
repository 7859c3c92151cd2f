//! Capacity planning: the paper's investment-incentive argument, made
//! quantitative (the §6 future-work extension).
//!
//! The ISP chooses capacity µ against a linear cost c·µ, re-optimizing
//! its price at each capacity, with CPs at their subsidy equilibrium.
//! Deregulated subsidization raises margins — and with them the
//! profit-maximizing capacity, which in turn relieves the congestion
//! that short-run deregulation inflicts on congestion-sensitive CPs.
//!
//! Run with: `cargo run --example capacity_planning`

use subcomp::exp::extensions::CAPACITY_MU_RANGE;
use subcomp::game::capacity::CapacityPlanner;
use subcomp::game::game::SubsidyGame;
use subcomp::game::nash::NashSolver;
use subcomp::model::aggregation::{build_system, ExpCpSpec};

fn main() {
    let specs = [
        ExpCpSpec::unit(2.0, 2.0, 0.5),
        ExpCpSpec::unit(5.0, 2.0, 1.0),
        ExpCpSpec::unit(2.0, 5.0, 1.0), // congestion-sensitive, profitable
        ExpCpSpec::unit(5.0, 5.0, 0.5),
    ];
    let system = build_system(&specs, 1.0).expect("valid market");
    let solver = NashSolver::default().with_tol(1e-6).with_max_sweeps(100);
    let planner = CapacityPlanner::new(0.08, (0.0, 2.0), CAPACITY_MU_RANGE).expect("planner");

    println!("long-run capacity choice (cost 0.08 per unit of capacity):\n");
    println!("{:>5} | {:>7} | {:>7} | {:>8} | {:>7}", "q", "mu*", "p*", "profit", "phi");
    let mut choices = Vec::new();
    for q in [0.0, 0.5, 1.0] {
        let c = planner.optimal_capacity(&system, q, &solver).expect("capacity choice");
        println!(
            "{q:>5} | {:>7.3} | {:>7.3} | {:>8.4} | {:>7.4}",
            c.mu_star, c.p_star, c.profit, c.equilibrium_phi
        );
        choices.push((q, c));
    }

    // Does expansion rescue the congestion-sensitive CP (index 2)?
    println!("\nthroughput of the congestion-sensitive profitable CP (a2-b5-v1):");
    for (q, c) in &choices {
        let sys_short = system.clone(); // short run: capacity stuck at 1
        let sys_long = system.with_capacity(c.mu_star).expect("capacity");
        let th = |sys: &subcomp::model::system::System| {
            let game = SubsidyGame::new(sys.clone(), c.p_star, *q).expect("game");
            let eq = solver.solve(&game).expect("equilibrium");
            eq.state.theta_i[2]
        };
        println!(
            "  q = {q}: short-run (mu = 1) {:.4}  ->  long-run (mu = {:.2}) {:.4}",
            th(&sys_short),
            c.mu_star,
            th(&sys_long)
        );
    }
    println!("\ncapacity expansion funded by subsidization relieves the very CPs");
    println!("that short-run deregulation hurts — the paper's investment story.");
}
