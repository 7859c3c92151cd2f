//! Capacity sweep of the §5 subsidization equilibrium — Theorem 1's
//! comparative statics, solved through the axis-generic continuation
//! engine (run: `cargo run --release -p subcomp-exp --bin mu_sweep`).
//!
//! Sweeps the ISP capacity `µ` at the paper's §5 parameterization
//! (`p = 0.6`, `q = 1`) as one warm chain: one game reparameterized in
//! place per point ([`subcomp_core::game::SubsidyGame::set_mu`]), the
//! first point solved cold and every later one from its neighbour's
//! equilibrium. Prints the equilibrium series, a shape check (aggregate
//! throughput must rise with capacity), the chain's cold solves and
//! iterations, and writes `results/mu_sweep.csv`.

use subcomp_core::game::SubsidyGame;
use subcomp_exp::report::{results_dir, sparkline, write_csv, Table};
use subcomp_exp::scenarios::section5_system;
use subcomp_exp::sweep::{Axis, ContinuationSolver};

fn main() {
    let (p, q) = (0.6, 1.0);
    let mus: Vec<f64> = (0..21).map(|k| 0.25 + 3.75 * k as f64 / 20.0).collect();
    let base = SubsidyGame::new(section5_system(), p, q).expect("paper parameterization is valid");
    let grid = ContinuationSolver::over(Axis::Cap, Axis::Mu)
        .solve_game(&base, &[q], &mus)
        .expect("mu sweep solves");

    let col = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { (0..mus.len()).map(f).collect() };
    let phi = col(&|c| grid.point(0, c).phi);
    let theta = col(&|c| grid.point(0, c).theta.iter().sum());
    let revenue = col(&|c| grid.point(0, c).revenue);
    let welfare = col(&|c| grid.point(0, c).welfare);
    let outlay = col(&|c| {
        let pt = grid.point(0, c);
        pt.subsidies.iter().zip(pt.theta).map(|(s, th)| s * th).sum()
    });

    println!("mu sweep — §5 equilibrium vs ISP capacity (p = {p}, q = {q})");
    println!("  phi(mu):     {}", sparkline(&phi));
    println!("  theta(mu):   {}", sparkline(&theta));
    println!("  revenue(mu): {}", sparkline(&revenue));
    println!("  welfare(mu): {}", sparkline(&welfare));
    println!();
    let mut t = Table::new(&["mu", "phi", "theta", "revenue", "welfare", "outlay", "iters"]);
    for (c, &mu) in mus.iter().enumerate() {
        let pt = grid.point(0, c);
        t.row(&[mu, pt.phi, theta[c], pt.revenue, pt.welfare, outlay[c], pt.iterations as f64]);
    }
    println!("{}", t.render());

    // Theorem 1's direction, end to end through the equilibrium response:
    // expanding the link must raise aggregate equilibrium throughput.
    let monotone = theta.windows(2).all(|w| w[1] > w[0] - 1e-9);
    println!(
        "shape check: {}",
        if monotone {
            "OK (equilibrium theta strictly increasing in mu — Theorem 1)"
        } else {
            "FAILED — equilibrium theta not increasing in mu"
        }
    );

    println!(
        "continuation over the {}-point ladder: cold solves: {}   total iterations: {}",
        mus.len(),
        grid.cold_solves(),
        grid.total_sweeps()
    );

    let path = results_dir().join("mu_sweep.csv");
    write_csv(
        &path,
        &[
            ("mu", &mus),
            ("phi", &phi),
            ("theta", &theta),
            ("revenue", &revenue),
            ("welfare", &welfare),
            ("outlay", &outlay),
        ],
    )
    .expect("write csv");
    println!("csv written to {}", path.display());

    if !monotone {
        std::process::exit(1);
    }
}
