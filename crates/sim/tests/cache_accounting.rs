//! No cache lookup escapes its run's progress handle: for a registry
//! experiment and a `wl_*` workload, each run cold into a fresh disk tier
//! and again warm from it, the lookups the run's `ProgressHandle` tallied
//! equal the process-wide `cache::stats()` delta across the run.
//!
//! A binary with one test, so no other traffic moves the process totals.

use duplo_sim::cache::{self, CacheStats};
use duplo_sim::experiments::find_experiment;
use duplo_sim::progress::ProgressHandle;
use duplo_sim::{RunOptions, metrics};

/// Runs `name` under `opts` with a fresh handle; returns the handle's
/// tally and the process-wide delta across the run.
fn tallied_run(name: &str, opts: &RunOptions) -> (CacheStats, CacheStats) {
    let spec = find_experiment(name).expect("registry experiment");
    let progress = ProgressHandle::new();
    let before = cache::stats();
    (spec.run)(&RunOptions {
        progress: Some(progress.clone()),
        ..opts.clone()
    });
    let after = cache::stats();
    let delta = CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        bytes: after.bytes - before.bytes,
    };
    (progress.snapshot().cache, delta)
}

#[test]
fn every_lookup_lands_on_the_run_handle() {
    // The process totals are registry metrics: keep them counting even
    // under DUPLO_METRICS=off.
    let _metrics_on = metrics::override_enabled(true);
    for name in ["smem_policy", "wl_membound"] {
        let dir = std::env::temp_dir().join(format!(
            "duplo-cache-accounting-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunOptions {
            sample_ctas: Some(1),
            cache_dir: Some(dir.clone()),
            ..RunOptions::default()
        };
        cache::clear_memory();
        let (cold, cold_delta) = tallied_run(name, &opts);
        assert_eq!(
            cold, cold_delta,
            "{name} cold: the handle must see every lookup"
        );
        assert!(cold.misses > 0, "{name} cold run must simulate: {cold:?}");
        assert!(
            cold.bytes > 0,
            "{name} cold run must write entries: {cold:?}"
        );
        cache::clear_memory();
        let (warm, warm_delta) = tallied_run(name, &opts);
        assert_eq!(
            warm, warm_delta,
            "{name} warm: the handle must see every lookup"
        );
        assert_eq!(
            warm.misses, 0,
            "{name} warm run must not simulate: {warm:?}"
        );
        assert!(
            warm.bytes > 0,
            "{name} warm run must read entries: {warm:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
