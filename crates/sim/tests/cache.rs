//! Correctness suite for the content-addressed run cache
//! (`duplo_sim::cache`): digest stability, hit equivalence through the
//! JSON serializer, single-flight semantics under a parallel runner, and
//! corrupted-disk-entry fallback.
//!
//! Each test names its own disk tier (`RunOptions::cache_dir`) or none
//! (memory only). The hit/miss counters behind `cache::stats()` are
//! process-wide telemetry, so the tests that move them serialize on
//! `STATS` to keep each delta assertion to their own traffic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use duplo_core::LhbConfig;
use duplo_kernels::{GemmTcKernel, SmemPolicy};
use duplo_sim::json::{Json, parse};
use duplo_sim::{GpuConfig, GpuSim, RunOptions, cache, digest, runner};
use duplo_testkit::prop;

/// A configuration with a process-unique cache key: `clock_mhz` is part
/// of the key (it is configuration) but never read by the simulator
/// (which counts cycles, not seconds), so bumping it gives each test its
/// own key space without changing any simulated result.
fn unique_cfg() -> GpuConfig {
    static NONCE: AtomicUsize = AtomicUsize::new(0);
    let mut cfg = GpuConfig::titan_v().with_sample(1);
    cfg.clock_mhz = 1_000_000 + NONCE.fetch_add(1, Ordering::Relaxed) as u64;
    cfg
}

static STATS: Mutex<()> = Mutex::new(());

fn stats_lock() -> MutexGuard<'static, ()> {
    STATS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Cache controls with the disk tier at `dir` (`None`: memory only).
fn ctl(dir: Option<std::path::PathBuf>) -> cache::CacheCtl {
    RunOptions {
        cache_dir: dir,
        ..RunOptions::default()
    }
    .cache_ctl()
}

/// Runs that bypass the cache (the simulator really runs).
fn uncached() -> RunOptions {
    RunOptions {
        no_cache: true,
        ..RunOptions::default()
    }
}

/// One cached lookup whose `compute` path counts simulator invocations.
/// The nested `GpuSim::run` is uncached, so it cannot re-enter the cache
/// under the same key (which would self-deadlock the single-flight slot).
fn counted_run(
    ctl: &cache::CacheCtl,
    cfg: &GpuConfig,
    kernel: &GemmTcKernel,
    sims: &AtomicUsize,
) -> String {
    let r = cache::run_cached_ctl(ctl, cfg, kernel, || {
        sims.fetch_add(1, Ordering::SeqCst);
        GpuSim::with_options(cfg.clone(), uncached()).run(kernel)
    });
    cache::result_to_json(&r).to_pretty()
}

#[test]
fn digest_is_stable_across_field_reordering() {
    let a = Json::obj()
        .field(
            "sm",
            Json::obj()
                .field("schedulers", 4u64)
                .field("max_warps", 64u64)
                .build(),
        )
        .field("total_sms", 80u64)
        .build();
    let b = Json::obj()
        .field("total_sms", 80u64)
        .field(
            "sm",
            Json::obj()
                .field("max_warps", 64u64)
                .field("schedulers", 4u64)
                .build(),
        )
        .build();
    assert_eq!(digest::digest_json(&a), digest::digest_json(&b));
    // Content changes do move the digest.
    let c = Json::obj()
        .field("total_sms", 81u64)
        .field(
            "sm",
            Json::obj()
                .field("max_warps", 64u64)
                .field("schedulers", 4u64)
                .build(),
        )
        .build();
    assert_ne!(digest::digest_json(&a), digest::digest_json(&c));
}

#[test]
fn run_key_distinguishes_configs_and_kernels() {
    let cfg = GpuConfig::titan_v();
    let k = GemmTcKernel::new(32, 32, 32, SmemPolicy::COnly);
    // Independently constructed but identical inputs share a key.
    let k_again = GemmTcKernel::new(32, 32, 32, SmemPolicy::COnly);
    assert_eq!(cache::run_key(&cfg, &k), cache::run_key(&cfg, &k_again));
    // Enabling Duplo, changing sampling, or changing the kernel's
    // shared-memory policy each moves the key.
    let duplo = cfg.clone().with_duplo(LhbConfig::paper_default());
    assert_ne!(cache::run_key(&cfg, &k), cache::run_key(&duplo, &k));
    let sampled = cfg.clone().with_sample(2);
    assert_ne!(cache::run_key(&cfg, &k), cache::run_key(&sampled, &k));
    let other_policy = GemmTcKernel::new(32, 32, 32, SmemPolicy::AllAbc);
    assert_ne!(
        cache::run_key(&cfg, &k),
        cache::run_key(&cfg, &other_policy)
    );
}

#[test]
fn memory_hit_is_byte_identical_and_skips_simulation() {
    let _stats = stats_lock();
    let ctl = ctl(None); // memory tier only
    let cfg = unique_cfg();
    let kernel = GemmTcKernel::new(48, 32, 16, SmemPolicy::COnly);
    let sims = AtomicUsize::new(0);
    let fresh = counted_run(&ctl, &cfg, &kernel, &sims);
    let before = cache::stats();
    let cached = counted_run(&ctl, &cfg, &kernel, &sims);
    let delta = cache::stats().since(&before);
    assert_eq!(
        sims.load(Ordering::SeqCst),
        1,
        "repeat must not re-simulate"
    );
    assert_eq!(delta.hits, 1);
    assert_eq!(delta.misses, 0);
    assert_eq!(
        cached, fresh,
        "cached result must serialize byte-identically"
    );
}

#[test]
fn disk_tier_round_trips_byte_identically() {
    let dir = std::env::temp_dir().join(format!("duplo-cache-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _stats = stats_lock();
    let ctl = ctl(Some(dir.clone()));
    let cfg = unique_cfg();
    let kernel = GemmTcKernel::new(32, 48, 16, SmemPolicy::COnly);
    let sims = AtomicUsize::new(0);
    let fresh = counted_run(&ctl, &cfg, &kernel, &sims);
    assert_eq!(sims.load(Ordering::SeqCst), 1);
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir must exist")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1, "one entry per key: {entries:?}");
    // Evict the memory tier: the reload must come from disk, not the
    // simulator, and serialize to the same bytes.
    cache::clear_memory();
    let before = cache::stats();
    let reloaded = counted_run(&ctl, &cfg, &kernel, &sims);
    let delta = cache::stats().since(&before);
    assert_eq!(
        sims.load(Ordering::SeqCst),
        1,
        "disk tier must serve the reload"
    );
    assert_eq!(delta.hits, 1);
    assert!(delta.bytes > 0, "disk reads are accounted");
    assert_eq!(reloaded, fresh);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_disk_entry_falls_back_to_simulation_and_repairs() {
    let dir = std::env::temp_dir().join(format!("duplo-cache-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _stats = stats_lock();
    let ctl = ctl(Some(dir.clone()));
    let cfg = unique_cfg();
    let kernel = GemmTcKernel::new(16, 48, 32, SmemPolicy::COnly);
    let sims = AtomicUsize::new(0);
    let fresh = counted_run(&ctl, &cfg, &kernel, &sims);
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("entry written");
    for garbage in ["{ not json at all", "{}", "{\"cache_schema\": 999}"] {
        std::fs::write(&entry, garbage).unwrap();
        cache::clear_memory();
        let n_before = sims.load(Ordering::SeqCst);
        let recomputed = counted_run(&ctl, &cfg, &kernel, &sims);
        assert_eq!(
            sims.load(Ordering::SeqCst),
            n_before + 1,
            "corrupted entry {garbage:?} must fall back to simulation"
        );
        assert_eq!(recomputed, fresh, "fallback result must match the original");
        // The bad entry was rewritten with a decodable one.
        let text = std::fs::read_to_string(&entry).unwrap();
        let doc = parse(&text).expect("repaired entry must parse");
        assert!(
            cache::result_from_json(&doc).is_some(),
            "repaired entry must decode"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_flight_under_four_threads() {
    let _stats = stats_lock();
    let ctl = ctl(None);
    prop::check(
        "cache_single_flight",
        8,
        |rng| {
            let dims = [16usize, 32, 48];
            Some((
                dims[rng.gen_index(dims.len())],
                dims[rng.gen_index(dims.len())],
                dims[rng.gen_index(dims.len())],
            ))
        },
        |&(m, n, k)| {
            let cfg = unique_cfg(); // private key even when dims repeat
            let kernel = GemmTcKernel::new(m, n, k, SmemPolicy::COnly);
            // Simulate once up front, outside the cache.
            let expected = GpuSim::with_options(cfg.clone(), uncached()).run(&kernel);
            let sims = AtomicUsize::new(0);
            let lanes: Vec<usize> = (0..8).collect();
            let runs = runner::par_map_opt(Some(4), &lanes, |_| {
                let r = cache::run_cached_ctl(&ctl, &cfg, &kernel, || {
                    sims.fetch_add(1, Ordering::SeqCst);
                    expected.clone()
                });
                cache::result_to_json(&r).to_pretty()
            });
            let n = sims.load(Ordering::SeqCst);
            if n != 1 {
                return Err(format!(
                    "expected exactly one simulation for 8 concurrent lookups, got {n}"
                ));
            }
            let want = cache::result_to_json(&expected).to_pretty();
            if runs.iter().any(|r| *r != want) {
                return Err("followers must observe the leader's exact result".to_string());
            }
            Ok(())
        },
    );
}
