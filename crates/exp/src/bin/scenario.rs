//! Solve a custom market from the command line.
//!
//! Usage:
//!   `cargo run -p subcomp-exp --bin scenario -- <p> <q> <alpha,beta,v>...`
//!
//! Example (two CP types at price 0.6, cap 0.5):
//!   `cargo run -p subcomp-exp --bin scenario -- 0.6 0.5 4,2,1 2,5,0.2`
//!
//! Prints the subsidization equilibrium, its Theorem 3 certificate, the
//! welfare breakdown, and the Theorem 6 sensitivities.

use subcomp_core::equilibrium::verify_equilibrium;
use subcomp_core::game::SubsidyGame;
use subcomp_core::nash::NashSolver;
use subcomp_core::sensitivity::Sensitivity;
use subcomp_core::welfare::WelfareBreakdown;
use subcomp_exp::report::Table;
use subcomp_model::aggregation::{build_system, ExpCpSpec};

fn usage() -> ! {
    eprintln!("usage: scenario <p> <q> <alpha,beta,v> [<alpha,beta,v> ...]");
    eprintln!("example: scenario 0.6 0.5 4,2,1 2,5,0.2");
    std::process::exit(2);
}

fn parse_spec(s: &str) -> Option<ExpCpSpec> {
    let parts: Vec<f64> = s.split(',').map(|x| x.trim().parse().ok()).collect::<Option<_>>()?;
    match parts.as_slice() {
        [alpha, beta, v] => Some(ExpCpSpec::unit(*alpha, *beta, *v)),
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 3 {
        usage();
    }
    let p: f64 = args[0].parse().unwrap_or_else(|_| usage());
    let q: f64 = args[1].parse().unwrap_or_else(|_| usage());
    let specs: Vec<ExpCpSpec> =
        args[2..].iter().map(|s| parse_spec(s).unwrap_or_else(|| usage())).collect();

    let system = build_system(&specs, 1.0).expect("valid market");
    let game = SubsidyGame::new(system, p, q).expect("valid game");
    let eq = NashSolver::default().solve(&game).expect("equilibrium");

    println!("equilibrium at p = {p}, q = {q} ({} iterations):\n", eq.iterations);
    let mut t = Table::new(&["cp", "alpha", "beta", "v", "subsidy", "users", "theta", "utility"]);
    for i in 0..game.n() {
        t.row(&[
            i as f64,
            specs[i].alpha,
            specs[i].beta,
            specs[i].v,
            eq.subsidies[i],
            eq.state.m[i],
            eq.state.theta_i[i],
            eq.utilities[i],
        ]);
    }
    println!("{}", t.render());
    println!(
        "utilization {:.4}  | ISP revenue {:.4}  | welfare {:.4}",
        eq.state.phi,
        eq.isp_revenue(&game),
        eq.welfare(&game)
    );

    let cert = verify_equilibrium(&game, &eq.subsidies).expect("certificate");
    println!(
        "certificate: KKT {:.2e}, threshold {:.2e} ({})",
        cert.max_kkt_residual,
        cert.max_threshold_residual,
        if cert.is_equilibrium(1e-5) { "equilibrium" } else { "NOT an equilibrium" }
    );

    let b = WelfareBreakdown::compute(&game, &eq.subsidies).expect("breakdown");
    println!(
        "money: users pay {:.4} + CPs subsidize {:.4} = ISP {:.4}",
        b.user_payments, b.subsidy_outlay, b.isp_revenue
    );

    match Sensitivity::compute(&game, &eq.subsidies) {
        Ok(sens) => {
            println!("\nsensitivities (Theorem 6):");
            let mut st = Table::new(&["cp", "ds/dq", "ds/dp"]);
            for i in 0..game.n() {
                st.row(&[i as f64, sens.ds_dq[i], sens.ds_dp[i]]);
            }
            println!("{}", st.render());
            if !sens.regular {
                println!("(equilibrium is degenerate: derivatives are one-sided)");
            }
        }
        Err(e) => println!("sensitivity analysis unavailable: {e}"),
    }
}
