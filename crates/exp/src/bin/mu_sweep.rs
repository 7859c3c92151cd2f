//! Capacity sweep of the §5 subsidization equilibrium — Theorem 1's
//! comparative statics, solved through the axis-generic continuation
//! engine (run: `cargo run --release -p subcomp-exp --bin mu_sweep`).
//!
//! Sweeps the ISP capacity `µ` at the paper's §5 parameterization
//! (`p = 0.6`, `q = 1`), reparameterizing one game in place per point
//! ([`subcomp_core::game::SubsidyGame::set_mu`]) with warm-started Nash
//! solves, then re-runs the same ladder with the Theorem 6 tangent
//! predictor ([`subcomp_core::nash::WarmStart::Tangent`]) and reports the
//! corrector-sweep comparison. Prints the equilibrium series, a shape
//! check (aggregate throughput must rise with capacity), and writes
//! `results/mu_sweep.csv`.
//!
//! A degenerate equilibrium mid-ladder (a pinned provider with `u ≈ 0`,
//! where `Sensitivity::directional` refuses to differentiate) does NOT
//! abort the sweep: the continuation engine degrades that step to
//! previous-iterate seeding, the affected row is marked in the `fallback`
//! column, and the table and CSV stay complete.

use subcomp_core::game::SubsidyGame;
use subcomp_exp::report::{results_dir, sparkline, write_csv, Table};
use subcomp_exp::scenarios::section5_system;
use subcomp_exp::sweep::{Axis, ContinuationSolver, EqGrid};

fn main() {
    let (p, q) = (0.6, 1.0);
    let mus: Vec<f64> = (0..21).map(|k| 0.25 + 3.75 * k as f64 / 20.0).collect();
    let base = SubsidyGame::new(section5_system(), p, q).expect("paper parameterization is valid");
    let solver = ContinuationSolver::over(Axis::Cap, Axis::Mu);

    let grid = solver.solve_game(&base, &[q], &mus).expect("mu sweep solves");
    let tangent = solver
        .clone()
        .with_tangent(true)
        .solve_game(&base, &[q], &mus)
        .expect("tangent mu sweep solves");

    let col = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { (0..mus.len()).map(f).collect() };
    let phi = col(&|c| grid.point(0, c).phi);
    let theta = col(&|c| grid.point(0, c).theta.iter().sum());
    let revenue = col(&|c| grid.point(0, c).revenue);
    let welfare = col(&|c| grid.point(0, c).welfare);
    let outlay = col(&|c| {
        let pt = grid.point(0, c);
        pt.subsidies.iter().zip(pt.theta).map(|(s, th)| s * th).sum()
    });
    // Where the tangent ladder degraded to previous-iterate seeding
    // (derivative unavailable at the preceding equilibrium): 1 = fell
    // back. All-zero on the paper's ladder; the column exists so a
    // degenerate point can never silently skew the predictor comparison.
    let fallback = col(&|c| tangent.point(0, c).tangent_fallback as u8 as f64);

    println!("mu sweep — §5 equilibrium vs ISP capacity (p = {p}, q = {q})");
    println!("  phi(mu):     {}", sparkline(&phi));
    println!("  theta(mu):   {}", sparkline(&theta));
    println!("  revenue(mu): {}", sparkline(&revenue));
    println!("  welfare(mu): {}", sparkline(&welfare));
    println!();
    let mut t =
        Table::new(&["mu", "phi", "theta", "revenue", "welfare", "outlay", "iters", "fallback"]);
    for (c, &mu) in mus.iter().enumerate() {
        let pt = grid.point(0, c);
        t.row(&[
            mu,
            pt.phi,
            theta[c],
            pt.revenue,
            pt.welfare,
            outlay[c],
            pt.iterations as f64,
            fallback[c],
        ]);
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

    let report = |label: &str, g: &EqGrid| {
        println!(
            "  {label:<22} cold solves: {:>2}   total iterations: {:>4}   \
             tangent fallbacks: {:>2}",
            g.cold_solves(),
            g.total_sweeps(),
            g.tangent_fallbacks()
        );
    };
    println!("continuation engines over the same {}-point ladder:", mus.len());
    report("previous-iterate seed:", &grid);
    report("tangent predictor:", &tangent);

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
            ("fallback", &fallback),
        ],
    )
    .expect("write csv");
    println!("csv written to {}", path.display());

    if !monotone {
        std::process::exit(1);
    }
}
