//! Zero-dependency parallel execution engine for the simulator.
//!
//! The paper's §V evaluation sweeps hundreds of independent
//! (layer, LHB-config) simulations; each is a pure function of its inputs,
//! so the experiment drivers and [`crate::GpuSim::run`] fan their grids out
//! over a bounded pool of scoped threads ([`par_map_opt`]).
//!
//! # Determinism
//!
//! Results are collected *order-stably*: the output vector is ordered by
//! input index, never by completion order, and every downstream reduction
//! (stat accumulation, float sums, table rows) folds that vector
//! sequentially. Identical inputs therefore produce byte-identical tables
//! at any thread count — 1 and 64 workers render the same output.
//!
//! # Thread-count selection
//!
//! Every fan-out takes its worker cap by value
//! ([`crate::RunOptions::threads`]); [`resolve_threads`] turns "no cap"
//! into [`std::thread::available_parallelism`]. Nothing here reads the
//! environment: the CLI and test binaries snapshot `DUPLO_THREADS` once,
//! in [`crate::RunOptions::from_env`], so runs at different widths can
//! share a process.
//!
//! # Nesting
//!
//! `par_map` inside a `par_map` worker spawns its own scoped pool, so
//! nested grids multiply thread counts. The two built-in layers avoid
//! this in the common case: the default [`crate::GpuConfig`] simulates one
//! representative SM, which takes the serial fallback (a single-item map
//! never spawns), while the experiment grids above it fan out.

use std::sync::OnceLock;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::metrics;

/// Registry metrics for the pool. Task counts are a pure function of the
/// work (stable at any thread count); pool/worker/imbalance figures
/// describe the host-side fan-out and are volatile.
struct RunnerMetrics {
    tasks: metrics::Counter,
    pools: metrics::Counter,
    workers: metrics::Counter,
    imbalance: metrics::Gauge,
}

fn rm() -> &'static RunnerMetrics {
    static RM: OnceLock<RunnerMetrics> = OnceLock::new();
    RM.get_or_init(|| RunnerMetrics {
        tasks: metrics::counter(
            "duplo_runner_tasks_total",
            "Items executed by the parallel runner (serial fallback included)",
        ),
        pools: metrics::volatile_counter(
            "duplo_runner_pools_total",
            "Scoped worker pools actually spawned",
        ),
        workers: metrics::volatile_counter(
            "duplo_runner_workers_total",
            "Worker threads spawned across all pools",
        ),
        imbalance: metrics::volatile_gauge(
            "duplo_runner_imbalance_last",
            "Items-per-worker spread (max - min) of the most recent pool",
        ),
    })
}

/// Worker threads a fan-out capped at `explicit` may use: the cap itself
/// when it is positive, otherwise [`std::thread::available_parallelism`]
/// (falling back to 1 if unknown).
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    explicit.filter(|&n| n >= 1).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// [`par_map_opt`] with no thread cap (every available core).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_opt(None, items, f)
}

/// Applies `f` to every item of `items` on a bounded pool of at most
/// [`resolve_threads`]`(threads)` scoped threads and returns the results
/// **in input order**. The cap travels by value
/// ([`crate::RunOptions::threads`]), so two concurrent runs can fan out at
/// different widths.
///
/// Work is distributed dynamically (an atomic cursor), so uneven item
/// costs — large layers next to small ones — balance across workers. With
/// one thread (or one item) the map runs serially on the calling thread,
/// spawning nothing.
///
/// # Panics
///
/// A panic in `f` is propagated to the caller after the remaining workers
/// drain.
pub fn par_map_opt<T, R, F>(threads: Option<usize>, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = resolve_threads(threads).min(items.len());
    rm().tasks.add(items.len() as u64);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    rm().pools.inc();
    rm().workers.add(workers as u64);
    crate::log::trace(
        "runner",
        format_args!("pool: {} workers for {} items", workers, items.len()),
    );
    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        let mut all = Vec::with_capacity(items.len());
        let mut panicked = None;
        let (mut most, mut least) = (0usize, usize::MAX);
        for h in handles {
            match h.join() {
                Ok(chunk) => {
                    most = most.max(chunk.len());
                    least = least.min(chunk.len());
                    all.extend(chunk);
                }
                Err(payload) => panicked = Some(payload),
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        rm().imbalance.set(most.saturating_sub(least) as i64);
        all
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), items.len());
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_input_ordered() {
        let items: Vec<u64> = (0..100).collect();
        // Uneven work per item: later items finish first.
        let out = par_map_opt(Some(4), &items, |&x| {
            if x % 7 == 0 {
                std::thread::yield_now();
            }
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_fallback_matches_parallel() {
        let items: Vec<u32> = (0..37).collect();
        let serial = par_map_opt(Some(1), &items, |&x| x.wrapping_mul(2654435761));
        let parallel = par_map_opt(Some(8), &items, |&x| x.wrapping_mul(2654435761));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_item_maps() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map_opt(Some(4), &empty, |&x| x).is_empty());
        assert_eq!(par_map_opt(Some(4), &[42u8], |&x| x + 1), vec![43]);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_opt(Some(4), &items, |&x| {
                assert!(x != 11, "boom at {x}");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn explicit_threads_win_over_available_parallelism() {
        assert_eq!(resolve_threads(Some(7)), 7);
        assert_eq!(resolve_threads(Some(1)), 1);
        // No cap, or a zero cap, means every available core.
        let all = resolve_threads(None);
        assert!(all >= 1);
        assert_eq!(resolve_threads(Some(0)), all);
    }
}
