//! Counting-allocator tier: proves the workspace solve engine performs
//! **zero heap allocation after warm-up** — the property `solve_farm`
//! relies on to batch tens of thousands of games without allocator
//! traffic.
//!
//! A thread-local counting wrapper around the system allocator tallies
//! every `alloc`/`realloc`/`alloc_zeroed` issued by the *measuring thread*
//! while a tracking flag is set (other test threads are invisible to the
//! counter, so this suite coexists with the parallel test runner). Each
//! assertion warms a [`SolveWorkspace`] up on the games under test, then
//! re-runs the solves with counting enabled and demands a zero count.
//!
//! The `unsafe` below is the bare minimum a `GlobalAlloc` wrapper
//! requires; it delegates straight to `std::alloc::System` and touches
//! nothing else. (The workspace-wide `unsafe_code = "deny"` lint is
//! relaxed for this one test crate only.)

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use subcomp::game::game::{Axis, SubsidyGame};
use subcomp::game::nash::{NashSolver, WarmStart};
use subcomp::game::workspace::SolveWorkspace;
use subcomp::model::aggregation::{build_system, ExpCpSpec};

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn record() {
        // `try_with` so allocations during TLS teardown cannot abort.
        let _ = TRACKING.try_with(|t| {
            if t.get() {
                let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
            }
        });
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CountingAllocator::record();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CountingAllocator::record();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CountingAllocator::record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting enabled on this thread and returns
/// how many allocations it performed.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.with(|a| a.set(0));
    TRACKING.with(|t| t.set(true));
    let result = f();
    TRACKING.with(|t| t.set(false));
    (ALLOCATIONS.with(|a| a.get()), result)
}

/// Small, fast-converging games of assorted sizes (kept tiny so the suite
/// stays quick in debug builds; allocation behaviour does not depend on
/// problem size).
fn games() -> Vec<SubsidyGame> {
    let mk = |n: usize, p: f64, q: f64| {
        let specs: Vec<ExpCpSpec> = (0..n)
            .map(|i| {
                ExpCpSpec::unit(
                    2.0 + (i % 2) as f64 * 3.0,
                    2.0 + (i % 3) as f64,
                    0.5 + 0.1 * i as f64,
                )
            })
            .collect();
        SubsidyGame::new(build_system(&specs, 1.0).unwrap(), p, q).unwrap()
    };
    vec![mk(3, 0.6, 0.8), mk(5, 0.5, 0.6), mk(2, 0.8, 1.0)]
}

#[test]
fn nash_solve_into_is_allocation_free_after_warmup() {
    let games = games();
    let solver = NashSolver::default().with_tol(1e-7);
    let mut ws = SolveWorkspace::new();
    // Warm-up: one solve per game sizes every buffer (including across
    // different n — buffers only grow).
    for game in &games {
        solver.solve_into(game, WarmStart::Zero, &mut ws).unwrap();
    }
    // The measured loop mimics solve_farm's solver loop: many games, one
    // workspace, cold and warm starts interleaved.
    let (allocs, stats) = allocations_during(|| {
        let mut last = None;
        for _ in 0..5 {
            for game in &games {
                let cold = solver.solve_into(game, WarmStart::Zero, &mut ws).unwrap();
                let warm = solver.solve_into(game, WarmStart::Previous, &mut ws).unwrap();
                assert!(cold.converged && warm.converged);
                last = Some(warm);
            }
        }
        last.unwrap()
    });
    assert!(stats.converged);
    assert_eq!(allocs, 0, "warm Nash solves must not touch the heap, saw {allocs} allocations");
}

#[test]
fn jacobi_solve_into_is_allocation_free_after_warmup() {
    let games = games();
    let solver = NashSolver::default().with_tol(1e-6);
    let mut ws = SolveWorkspace::new();
    for game in &games {
        solver.solve_jacobi_into(game, WarmStart::Zero, &mut ws, 0.7).unwrap();
    }
    let (allocs, _) = allocations_during(|| {
        for game in &games {
            solver.solve_jacobi_into(game, WarmStart::Zero, &mut ws, 0.7).unwrap();
        }
    });
    assert_eq!(allocs, 0, "warm Jacobi solves must not touch the heap, saw {allocs} allocations");
}

#[test]
fn grid_solver_is_allocation_free_after_warmup() {
    // The continuation grid engine (`GridSolver::solve_seq_into`): after
    // one warm-up pass of the same shape, a full multi-row sweep — game
    // reparameterization via set_price/set_cap, seeded solves, cold
    // fallbacks, result writes — performs zero heap allocation for the
    // whole 3×8 grid (a fortiori zero per grid point).
    use subcomp::exp::scenarios::section5_system;
    use subcomp::exp::sweep::{EqGrid, GridContext, GridSolver};

    let system = section5_system();
    let qs = [0.0, 0.7, 1.4];
    let prices: [f64; 8] = std::array::from_fn(|k| 0.15 + 0.25 * k as f64);
    let solver = GridSolver::default();
    let mut ctx = GridContext::new(&system);
    let mut grid = EqGrid::empty();
    // Warm-up: sizes the context, the workspace and every output buffer.
    solver.solve_seq_into(&mut ctx, &qs, &prices, &mut grid).unwrap();
    let reference = grid.clone();
    let (allocs, ()) = allocations_during(|| {
        solver.solve_seq_into(&mut ctx, &qs, &prices, &mut grid).unwrap();
    });
    assert_eq!(
        allocs, 0,
        "a warm 3x8 grid sweep must not touch the heap, saw {allocs} allocations"
    );
    assert_eq!(grid, reference, "the warm re-solve must reproduce the grid exactly");
    assert_eq!(grid.n_rows(), 3);
    assert_eq!(grid.n_cols(), 8);
    assert!(grid.cold_solves() >= 1);
}

#[test]
fn mu_axis_sweep_is_allocation_free_after_warmup() {
    // The axis-generic continuation engine on a non-(q, p) axis: a warm
    // µ-sweep — capacity reparameterized in place via set_mu per point,
    // warm-started solves, result writes — performs zero heap allocation,
    // extending the PR-4 zero-allocation contract to the µ/v writes.
    use subcomp::exp::scenarios::section5_system;
    use subcomp::exp::sweep::{Axis, ContinuationSolver, EqGrid, GridContext};

    let base = SubsidyGame::new(section5_system(), 0.6, 0.9).unwrap();
    let mus: [f64; 8] = std::array::from_fn(|k| 0.5 + 0.35 * k as f64);
    let solver = ContinuationSolver::over(Axis::Cap, Axis::Mu);
    let mut ctx = GridContext::for_game(&base);
    let mut grid = EqGrid::empty();
    // Warm-up: sizes the context, the workspace and every output buffer.
    solver.solve_seq_into(&mut ctx, &[0.9], &mus, &mut grid).unwrap();
    let reference = grid.clone();
    let (allocs, ()) = allocations_during(|| {
        solver.solve_seq_into(&mut ctx, &[0.9], &mus, &mut grid).unwrap();
    });
    assert_eq!(
        allocs, 0,
        "a warm 8-point mu sweep must not touch the heap, saw {allocs} allocations"
    );
    assert_eq!(grid, reference, "the warm re-solve must reproduce the sweep exactly");
    assert_eq!(grid.n_cols(), 8);
    assert!(grid.cold_solves() >= 1);
}

#[test]
fn warm_equilibrium_server_is_allocation_free_after_warmup() {
    // The resident service: after warm-up, both fast paths stay off the
    // heap — a cache hit (fingerprint pass + shared-snapshot clone) and
    // a warm re-solve (eviction retires a unique snapshot to the
    // freelist, `blank()` recycles it, `capture_into` refills the same
    // buffers). Sensitivity reads are pinned separately
    // (`warm_sensitivity_read_allocates_only_its_reply`): their reply
    // carries a fresh `ds` Vec by contract, and that is their one
    // allocation.
    use subcomp::exp::server::{EquilibriumServer, Request, Source};
    use subcomp::game::game::Axis;

    let game = games().into_iter().next().unwrap();
    let p0 = Axis::Price.value(&game);

    let cycle = |server: &mut EquilibriumServer, expect: Option<Source>| {
        for p in [p0, p0 * 1.05] {
            server.serve(Request::Update { axis: Axis::Price, value: p }).unwrap();
            let (_, src) = server.equilibrium().unwrap();
            if let Some(expect) = expect {
                assert_eq!(src, expect);
            }
        }
    };

    // Cache-hit path: both operating points resident, reads alternate.
    let mut hits = EquilibriumServer::new(game.clone(), 1, 4);
    cycle(&mut hits, None); // warm-up solves size every buffer
    let (allocs, ()) = allocations_during(|| {
        for _ in 0..5 {
            cycle(&mut hits, Some(Source::CacheHit));
        }
    });
    assert_eq!(allocs, 0, "cache hits must not touch the heap, saw {allocs} allocations");

    // Warm re-solve path: a 1-entry cache, so alternating points always
    // miss, evict the resident snapshot to the freelist and re-solve
    // from the slot's previous iterate.
    let mut warm = EquilibriumServer::new(game, 1, 1);
    cycle(&mut warm, None);
    cycle(&mut warm, Some(Source::Warm));
    let (allocs, ()) = allocations_during(|| {
        for _ in 0..5 {
            cycle(&mut warm, Some(Source::Warm));
        }
    });
    assert_eq!(allocs, 0, "warm re-solves must not touch the heap, saw {allocs} allocations");
}

#[test]
fn budgeted_warm_serve_is_allocation_free_after_warmup() {
    // The deadline machinery must be free on the happy path: a budget
    // generous enough for convergence adds only integer compares inside
    // the sweep loop (no deadline bookkeeping on the heap), so the warm
    // re-solve cycle stays at zero allocations exactly like the
    // unbudgeted one above.
    use subcomp::exp::server::{EquilibriumServer, Request, Source};
    use subcomp::game::game::Axis;
    use subcomp::game::workspace::SolveBudget;

    let game = games().into_iter().next().unwrap();
    let p0 = Axis::Price.value(&game);
    let mut server = EquilibriumServer::new(game, 1, 1).with_budget(SolveBudget::sweeps(10_000));

    let cycle = |server: &mut EquilibriumServer, expect: Option<Source>| {
        for p in [p0, p0 * 1.05] {
            server.serve(Request::Update { axis: Axis::Price, value: p }).unwrap();
            let (_, src) = server.equilibrium().unwrap();
            assert_ne!(src, Source::Partial, "a generous budget must not degrade the answer");
            if let Some(expect) = expect {
                assert_eq!(src, expect);
            }
        }
    };
    cycle(&mut server, None); // warm-up solves size every buffer
    cycle(&mut server, Some(Source::Warm));
    let (allocs, ()) = allocations_during(|| {
        for _ in 0..5 {
            cycle(&mut server, Some(Source::Warm));
        }
    });
    assert_eq!(
        allocs, 0,
        "budget-checked warm solves must not touch the heap, saw {allocs} allocations"
    );
}

#[test]
fn sharded_router_warm_serve_is_allocation_free_after_warmup() {
    // The whole sharded serve path. The fleet serves every market in the
    // caller's thread, so the thread-local counter sees all of it: the
    // router's dispatch, the write and its retraction, the market
    // server's fingerprint pass and cached answer, its publication, and
    // the lock-free re-read off the published slot. Warm re-solves are
    // pinned by the single-server cases above.
    use subcomp::exp::server::{Request, ShardedConfig, ShardedServer, Source};
    use subcomp::game::game::Axis;

    let game = games().into_iter().next().unwrap();
    let p0 = Axis::Price.value(&game);
    let mut server =
        ShardedServer::new(vec![(0, game)], &ShardedConfig { shards: 1, pool: 1, cache: 4 })
            .unwrap();

    let cycle = |server: &mut ShardedServer| {
        for p in [p0, p0 * 1.05] {
            server.serve(0, Request::Update { axis: Axis::Price, value: p }).unwrap();
            // First read after a write goes to the market's server (the
            // write retracted the published snapshot)…
            let reply = server.serve(0, Request::Equilibrium).unwrap();
            let subcomp::exp::server::Reply::Equilibrium { source, .. } = reply else {
                panic!("equilibrium read answered a non-equilibrium reply");
            };
            assert_ne!(source, Source::LockFree);
            // …and the re-read is served lock-free off the published slot.
            let reply = server.serve(0, Request::Equilibrium).unwrap();
            let subcomp::exp::server::Reply::Equilibrium { source, .. } = reply else {
                panic!("equilibrium read answered a non-equilibrium reply");
            };
            assert_eq!(source, Source::LockFree);
        }
    };
    for _ in 0..3 {
        cycle(&mut server); // warm-up: workspace buffers + snapshot freelist
    }
    let (allocs, ()) = allocations_during(|| {
        for _ in 0..5 {
            cycle(&mut server);
        }
    });
    assert_eq!(
        allocs, 0,
        "the warm sharded serve path must not allocate, saw {allocs} allocations"
    );
}

/// The §5 market at `p = 0.6, q = 0.35`: a regular equilibrium with all
/// three active sets populated, so every sensitivity axis does real work
/// (the cap axis needs providers pinned at `q`).
fn section5_sensitivity_game() -> SubsidyGame {
    use subcomp::exp::scenarios::section5_system;
    SubsidyGame::new(section5_system(), 0.6, 0.35).unwrap()
}

const SENSITIVITY_AXES: [Axis; 5] =
    [Axis::Price, Axis::Cap, Axis::Mu, Axis::Profitability(0), Axis::Profitability(5)];

#[test]
fn sensitivity_workspace_is_allocation_free_after_warmup() {
    // The structured Theorem 6 engine: one state solve, the O(n) factor
    // assembly, the Woodbury solve and the analytic right-hand sides all
    // live in the `SensitivityWorkspace` and the caller's output buffer,
    // so after one warm-up call a derivative along price, cap, capacity
    // or a profitability touches no heap — and repeats bit-identically.
    use subcomp::game::sensitivity::SensitivityWorkspace;

    let game = section5_sensitivity_game();
    let s = NashSolver::default().with_tol(1e-10).solve(&game).unwrap().subsidies;
    let mut sens = SensitivityWorkspace::new();
    let mut out = Vec::new();
    let mut reference = Vec::new();
    for &axis in &SENSITIVITY_AXES {
        sens.directional_into(&game, &s, axis, &mut out).unwrap();
        reference.push(out.clone());
    }
    let active = sens.active();
    assert!(!active.interior.is_empty() && !active.upper.is_empty(), "{active:?}");
    let (allocs, ()) = allocations_during(|| {
        for _ in 0..5 {
            for (&axis, reference) in SENSITIVITY_AXES.iter().zip(&reference) {
                sens.directional_into(&game, &s, axis, &mut out).unwrap();
                assert_eq!(&out, reference, "a warm derivative must repeat bit for bit");
            }
        }
    });
    assert_eq!(allocs, 0, "warm sensitivity solves must not touch the heap, saw {allocs}");
    assert_eq!(sens.dense_fallbacks(), 0, "the section 5 market never needs the dense block");
}

#[test]
fn warm_sensitivity_read_allocates_only_its_reply() {
    // `Request::Sensitivity` through `EquilibriumServer::serve` on both
    // of its paths. Writes alternate the market between two cached
    // operating points, so the first read after each write is a cache hit
    // whose snapshot was not the last one factored: the resident
    // workspace factors Theorem 6 from that snapshot's state. The reads
    // that follow at the same point reuse those factors and solve only
    // their axis. Either way the cache hit and the factors are
    // allocation-free, and the reply's own `ds` is the one allocation.
    use subcomp::exp::server::{EquilibriumServer, Reply, Request, Source};

    let mut server = EquilibriumServer::new(section5_sensitivity_game(), 1, 4);
    let p0 = Axis::Price.value(server.game());
    let read = |server: &mut EquilibriumServer, axis: Axis| {
        let reply = server.serve(Request::Sensitivity { axis }).unwrap();
        let Reply::Sensitivity { ds, source, .. } = reply else {
            panic!("a regular equilibrium must answer a derivative");
        };
        assert_eq!(ds.len(), 8);
        source
    };
    let visit = |server: &mut EquilibriumServer, p: f64| {
        server.serve(Request::Update { axis: Axis::Price, value: p }).unwrap();
        // Fresh factors from the snapshot, then reuse along every axis.
        let first = read(server, Axis::Price);
        for &axis in &SENSITIVITY_AXES {
            assert_eq!(read(server, axis), Source::CacheHit, "a re-read must hit the cache");
        }
        first
    };
    for p in [p0, p0 * 1.05] {
        visit(&mut server, p); // warm-up: solves both points, sizes the workspace
    }
    let (allocs, ()) = allocations_during(|| {
        for _ in 0..5 {
            for p in [p0, p0 * 1.05] {
                assert_eq!(visit(&mut server, p), Source::CacheHit, "both points stay cached");
            }
        }
    });
    let reads = 5 * 2 * (1 + SENSITIVITY_AXES.len() as u64);
    assert_eq!(allocs, reads, "a warm sensitivity read must allocate only its reply's ds");
}

#[test]
fn warm_adoption_loop_tick_is_allocation_free_after_warmup() {
    // The closed adoption loop's resident tick, market server included:
    // the fleet serves in the driving thread, so the counter sees the
    // lock-free externality read, the SoA simulation over the owned
    // blocks, the in-place µ write and the warm re-solve with its
    // snapshot capture. On the documented resident configuration —
    // serial block fan-out, no demand write-back — explore/decay hazards
    // keep the load, and so µ, moving. While the
    // 64-entry fingerprint cache fills, every fresh answer is a fresh
    // snapshot (`cache.rs`); once it evicts, answers recycle retired
    // snapshots, and that steady state is what the window counts.
    use subcomp::exp::adoption::{AdoptionLoop, LoopConfig};
    use subcomp::exp::scenarios::section5_specs;
    use subcomp::sim::adoption::AdoptionParams;

    let cfg = LoopConfig {
        seed: 7,
        cohorts: 1,
        users: 2_000,
        chunk: 512,
        threads: 1,
        hazards: AdoptionParams {
            adopt: 0.5,
            churn: 0.5,
            explore: 0.1,
            decay: 0.1,
            ..Default::default()
        },
        demand_every: 0,
        shards: 1,
        ..Default::default()
    };
    let mut lp = AdoptionLoop::new(&section5_specs(), 3.0, 0.6, 0.8, &cfg).unwrap();
    let evictions = |lp: &mut AdoptionLoop| -> u64 {
        lp.server_mut().shard_reports().unwrap().iter().map(|r| r.cache.evictions).sum()
    };
    let mut warmup = 0;
    while evictions(&mut lp) == 0 {
        lp.tick().unwrap();
        warmup += 1;
        assert!(warmup < 5_000, "the fingerprint cache never filled");
    }
    let (warm_before, evicted_before) = (lp.sources().warm, evictions(&mut lp));
    let (allocs, adopted) = allocations_during(|| {
        let mut adopted = 0;
        for _ in 0..40 {
            adopted = lp.tick().unwrap().adopted;
        }
        adopted
    });
    let (warm, evicted) = (lp.sources().warm - warm_before, evictions(&mut lp) - evicted_before);
    assert!(adopted > 0, "the warm loop must keep simulating");
    assert!(warm >= 1, "the window must contain a warm re-solve");
    assert!(evicted >= 1, "the window must contain a cache eviction");
    assert_eq!(allocs, 0, "a warm adoption tick must not allocate, saw {allocs} allocations");
}

#[test]
fn counter_actually_counts() {
    // Sanity check on the harness itself: an allocating closure must be
    // visible, otherwise the zero assertions above are vacuous.
    let (allocs, v) = allocations_during(|| vec![1u8; 4096]);
    assert!(allocs >= 1, "the counting allocator missed a Vec allocation");
    assert_eq!(v.len(), 4096);
}
