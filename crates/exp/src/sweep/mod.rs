//! Parameter-sweep and batch-solve engine.
//!
//! Two workhorses. [`parallel_map`] fans work items across OS threads
//! (`std::thread::scope`, no dependency), each worker threading one
//! persistent context through its contiguous chunk; the allocation-free
//! [`BatchSolver`] hangs one [`SolveWorkspace`] per worker on it. Warm
//! parameter sweeps — a 1-D sweep is a one-row grid — run on the
//! [`ContinuationSolver`] in [`continuation`], and the no-subsidy §3.2
//! price sweep behind Figures 4–5 is [`one_sided_sweep`].
//!
//! [`BatchSolver`] is the scale layer the `solve_farm` binary builds on:
//! it amortizes one workspace per worker across the whole batch and
//! warm-starts consecutive items inside fixed-size blocks, so results are
//! bit-identical for *any* thread count while the solver loop itself
//! performs zero heap allocation after warm-up.

pub mod continuation;

pub use continuation::{
    one_sided_sweep, Axis, ContinuationSolver, EqGrid, EqPointView, GridContext, GridSolver,
    StatePoint,
};

use subcomp_core::game::SubsidyGame;
use subcomp_core::nash::{NashSolution, NashSolver, SolveStats, WarmStart};
use subcomp_core::workspace::SolveWorkspace;
use subcomp_num::NumResult;

/// Maps `f` over `items` on up to `threads` OS threads, preserving order.
///
/// The items are split into at most `threads` contiguous chunks, one per
/// worker. Each worker calls `init` exactly once and threads the resulting
/// context mutably through every item of its chunk, in list order — how
/// batch solvers amortize per-worker state (scratch buffers, workspaces)
/// without sharing or locking. Items are disjoint `&mut` borrows, so
/// engines that own per-item state (the adoption engine's blocks, the
/// continuation grid's output slabs) are mutated in place; callers whose
/// items are shared pass a local slice of references instead.
///
/// Falls back to a single context and a sequential map when `threads <= 1`
/// (including 0) or there is at most one item. Because each item is
/// handled by exactly one worker, results — and in-place mutations — are
/// **independent of the thread count** whenever `f` is a pure function of
/// the item and its worker's context.
///
/// # Panics
///
/// If `init` or `f` panics, the panic propagates to the caller after all
/// in-flight workers finish their chunks (`std::thread::scope` joins every
/// spawned thread before unwinding) — no result is silently dropped, and
/// no thread is leaked.
pub fn parallel_map<T, U, C, I, F>(items: &mut [T], threads: usize, init: I, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, &mut T) -> U + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        let mut ctx = init();
        return items.iter_mut().map(|item| f(&mut ctx, item)).collect();
    }
    let workers = threads.min(n);
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        for (slab, slot) in items.chunks_mut(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(|| {
                let mut ctx = init();
                for (item, cell) in slab.iter_mut().zip(slot.iter_mut()) {
                    *cell = Some(f(&mut ctx, item));
                }
            });
        }
    });
    out.into_iter().map(|c| c.expect("worker filled every slot")).collect()
}

/// Batched Nash solving on a fleet of reusable workspaces.
///
/// Splits the item list into fixed-size [`BatchSolver::block`]s; each block
/// is one warm-start chain (first item solves cold from `s = 0`, later
/// items start from the previous equilibrium re-clamped into their game's
/// box). Blocks — not items — are what [`parallel_map`] distributes, and
/// every worker reuses a single [`SolveWorkspace`] across all blocks it
/// processes, so after warm-up the solver loop allocates nothing.
///
/// Because the chain structure depends only on the block size, results are
/// **bit-identical for any thread count** — the property the batch
/// determinism suite pins.
#[derive(Debug, Clone)]
pub struct BatchSolver {
    /// The underlying Nash solver configuration.
    pub solver: NashSolver,
    /// Worker threads for block fan-out (`<= 1` runs sequentially).
    pub threads: usize,
    /// Items per warm-start chain. Also the unit of parallel distribution;
    /// shorter blocks expose more parallelism, longer blocks warm-start
    /// more aggressively. Minimum 1.
    pub block: usize,
    /// Warm-start consecutive items within a block (`false` solves every
    /// item cold — the reference the equivalence tests compare against).
    pub warm_start: bool,
}

impl Default for BatchSolver {
    fn default() -> Self {
        BatchSolver { solver: NashSolver::default(), threads: 1, block: 32, warm_start: true }
    }
}

impl BatchSolver {
    /// Returns a copy fanning blocks across `threads` workers.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns a copy with a different warm-start block size (minimum 1).
    pub fn with_block(mut self, block: usize) -> Self {
        self.block = block.max(1);
        self
    }

    /// Returns a copy with warm starting disabled (every solve cold).
    pub fn cold(mut self) -> Self {
        self.warm_start = false;
        self
    }

    /// Solves one game per item: `build` yields the game — owned (the
    /// only per-item allocation site) or borrowed straight from the item —
    /// and `summarize` reduces the solved workspace to whatever the caller
    /// wants to keep; it must copy out anything it needs, since the
    /// workspace is reused for the next item. Order is preserved; per-item
    /// errors are reported in place and do not poison the rest of the
    /// batch (a failed solve simply breaks the warm chain — the next item
    /// starts cold).
    pub fn run<'a, T, R, B, G, S>(
        &self,
        items: &'a [T],
        build: G,
        summarize: S,
    ) -> Vec<NumResult<R>>
    where
        T: Sync,
        R: Send,
        B: std::borrow::Borrow<SubsidyGame> + Sync,
        G: Fn(&'a T) -> NumResult<B> + Sync,
        S: Fn(&SubsidyGame, &SolveWorkspace, SolveStats) -> R + Sync,
    {
        let block = self.block.max(1);
        let mut blocks: Vec<&'a [T]> = items.chunks(block).collect();
        let nested = parallel_map(
            &mut blocks,
            self.threads,
            SolveWorkspace::new,
            |ws: &mut SolveWorkspace, chunk: &mut &'a [T]| {
                let mut results = Vec::with_capacity(chunk.len());
                let mut have_warm = false;
                for item in chunk.iter() {
                    let result = build(item).and_then(|game| {
                        let game = game.borrow();
                        let start = if self.warm_start && have_warm {
                            WarmStart::Previous
                        } else {
                            WarmStart::Zero
                        };
                        let stats = self.solver.solve_into(game, start, ws)?;
                        Ok(summarize(game, ws, stats))
                    });
                    have_warm = result.is_ok();
                    results.push(result);
                }
                results
            },
        );
        nested.into_iter().flatten().collect()
    }

    /// Convenience wrapper solving pre-built games into full
    /// [`NashSolution`]s (games are borrowed, never cloned).
    pub fn solve_games(&self, games: &[SubsidyGame]) -> Vec<NumResult<NashSolution>> {
        self.run(games, Ok, |_, ws, stats| ws.solution(stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let run = |threads: usize| {
            let mut items: Vec<i64> = (0..100).collect();
            parallel_map(&mut items, threads, || (), |_, x| *x * *x)
        };
        let seq = run(1);
        assert_eq!(seq, run(8));
        assert_eq!(seq[7], 49);
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let mut empty: Vec<i32> = vec![];
        assert!(parallel_map(&mut empty, 4, || (), |_, x| *x).is_empty());
        let mut one = [5];
        assert_eq!(parallel_map(&mut one, 4, || (), |_, x| *x + 1), vec![6]);
        assert_eq!(one, [5]);
    }

    #[test]
    fn parallel_map_more_threads_than_items() {
        let mut items = [1, 2, 3];
        assert_eq!(parallel_map(&mut items, 64, || (), |_, x| *x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn parallel_map_zero_threads_is_sequential() {
        let mut items: Vec<i32> = (0..10).collect();
        assert_eq!(parallel_map(&mut items, 0, || (), |_, x| *x + 1), (1..11).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_updates_items_in_place_and_preserves_order() {
        let run = |threads: usize| {
            let mut items: Vec<i64> = (0..101).collect();
            let out = parallel_map(
                &mut items,
                threads,
                || 10i64,
                |ctx, x| {
                    *x += *ctx;
                    *x * 2
                },
            );
            (items, out)
        };
        let (seq_items, seq_out) = run(1);
        assert_eq!(seq_items, (10..111).collect::<Vec<_>>());
        assert_eq!(seq_out[3], 26);
        for threads in [0, 2, 3, 8, 64] {
            let (items, out) = run(threads);
            assert_eq!(items, seq_items, "threads {threads}");
            assert_eq!(out, seq_out, "threads {threads}");
        }
    }

    #[test]
    fn parallel_map_over_shared_items_through_references() {
        // Callers whose items are shared map over a local slice of
        // references.
        let items: Vec<String> = (0..9).map(|k| format!("item{k}")).collect();
        let mut refs: Vec<&String> = items.iter().collect();
        let out = parallel_map(&mut refs, 3, || (), |_, s| s.len());
        assert_eq!(out, vec![5; 9]);
    }

    #[test]
    fn parallel_map_init_runs_once_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Each worker's context counts the items it has seen: the counter
        // restarts at every chunk boundary and init runs once per worker,
        // not once per item.
        let inits = AtomicUsize::new(0);
        let mut items: Vec<u64> = (0..20).collect();
        let out = parallel_map(
            &mut items,
            4,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0u64
            },
            |seen, x| {
                *seen += 1;
                *x + *seen
            },
        );
        let chunk = 20usize.div_ceil(4);
        let expect: Vec<u64> = (0..20u64).map(|i| i + (i as usize % chunk) as u64 + 1).collect();
        assert_eq!(out, expect);
        assert_eq!(inits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn parallel_map_sequential_fallback_single_context() {
        let mut items: Vec<i32> = (0..5).collect();
        // A single context threads through all items in order.
        let out = parallel_map(
            &mut items,
            1,
            || 0i32,
            |acc, x| {
                *acc += *x;
                *acc
            },
        );
        assert_eq!(out, vec![0, 1, 3, 6, 10]);
    }

    #[test]
    fn parallel_map_uneven_chunks_preserve_order() {
        // 7 items over 3 workers: chunk sizes 3/3/1 — the tail chunk must
        // land in the right slots.
        let mut items: Vec<usize> = (0..7).collect();
        assert_eq!(parallel_map(&mut items, 3, || (), |_, x| *x * 2), vec![0, 2, 4, 6, 8, 10, 12]);
        // And a larger stress mix with a prime count.
        let mut big: Vec<i64> = (0..101).collect();
        assert_eq!(
            parallel_map(&mut big, 16, || (), |_, x| -*x),
            (0..101).map(|x| -x).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_map_panic_in_worker_propagates() {
        let result = std::panic::catch_unwind(|| {
            let mut items: Vec<i32> = (0..16).collect();
            parallel_map(
                &mut items,
                4,
                || (),
                |_, x| {
                    if *x == 9 {
                        panic!("worker exploded on {x}");
                    }
                    *x
                },
            )
        });
        assert!(result.is_err(), "panic inside a worker must reach the caller");
    }

    #[test]
    fn parallel_map_panic_in_sequential_path_propagates() {
        let result = std::panic::catch_unwind(|| {
            let mut items = [1, 2];
            parallel_map(
                &mut items,
                1,
                || (),
                |_, x| {
                    if *x == 2 {
                        panic!("sequential path panic");
                    }
                    *x
                },
            )
        });
        assert!(result.is_err());
    }

    fn farm_games(count: usize) -> Vec<SubsidyGame> {
        use crate::scenarios::random_specs;
        use subcomp_model::aggregation::build_system;
        (0..count)
            .map(|k| {
                let n = 2 + k % 4;
                let sys = build_system(&random_specs(n, 100 + k as u64), 1.0).unwrap();
                SubsidyGame::new(sys, 0.4 + 0.05 * (k % 5) as f64, 0.8).unwrap()
            })
            .collect()
    }

    #[test]
    fn batch_warm_start_matches_independent_cold_solves() {
        let games = farm_games(12);
        let batch = BatchSolver::default().with_block(4).with_threads(2);
        let results = batch.solve_games(&games);
        assert_eq!(results.len(), games.len());
        for (game, result) in games.iter().zip(&results) {
            let warm = result.as_ref().expect("batch solve converged");
            assert!(warm.converged);
            let cold = batch.solver.solve(game).unwrap();
            for i in 0..game.n() {
                assert!(
                    (warm.subsidies[i] - cold.subsidies[i]).abs() < 1e-7,
                    "warm-started batch result diverged from cold solve at CP {i}"
                );
            }
        }
    }

    #[test]
    fn batch_results_bit_identical_across_thread_counts() {
        let games = farm_games(17); // deliberately not a multiple of the block
        let batch = BatchSolver::default().with_block(5);
        let one = batch.clone().with_threads(1).solve_games(&games);
        let eight = batch.with_threads(8).solve_games(&games);
        for (a, b) in one.iter().zip(&eight) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            // Bit-exact, not merely close: the warm chains depend only on
            // the block structure, never on worker assignment.
            assert_eq!(a.subsidies, b.subsidies);
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.residual.to_bits(), b.residual.to_bits());
        }
    }

    #[test]
    fn batch_cold_mode_is_plain_solve() {
        let games = farm_games(6);
        let batch = BatchSolver::default().cold().with_block(3).with_threads(2);
        for (game, result) in games.iter().zip(batch.solve_games(&games)) {
            let batched = result.unwrap();
            let direct = batch.solver.solve(game).unwrap();
            assert_eq!(batched.subsidies, direct.subsidies);
            assert_eq!(batched.iterations, direct.iterations);
        }
    }

    #[test]
    fn batch_error_breaks_chain_without_poisoning_batch() {
        let games = farm_games(6);
        let batch = BatchSolver::default().with_block(6).with_threads(1);
        // Item 2 fails to build; its neighbours must still solve, and the
        // item after the failure starts a fresh (cold) chain.
        let results = batch.run(
            &[0usize, 1, 2, 3, 4, 5],
            |&k| {
                if k == 2 {
                    Err(subcomp_num::NumError::Empty { what: "synthetic build failure" })
                } else {
                    Ok(games[k].clone())
                }
            },
            |_, ws, stats| (ws.subsidies().to_vec(), stats.converged),
        );
        assert!(results[2].is_err());
        for (k, r) in results.iter().enumerate() {
            if k != 2 {
                assert!(r.as_ref().unwrap().1, "item {k} should converge");
            }
        }
    }

    #[test]
    fn batch_panic_in_worker_propagates() {
        let games = farm_games(8);
        let batch = BatchSolver::default().with_block(2).with_threads(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            batch.run(
                &[0usize, 1, 2, 3, 4, 5, 6, 7],
                |&k| Ok(games[k].clone()),
                |_, _, _| panic!("summarize exploded mid-batch"),
            )
        }));
        assert!(result.is_err(), "worker panic must reach the caller");
    }
}
