//! Correctness suite for the content-addressed run cache
//! (`duplo_sim::cache`): digest stability, pinned keys, hit equivalence
//! through the JSON serializer, single-flight semantics under a parallel
//! runner, and corrupted-disk-entry fallback.
//!
//! Each test names its own disk tier (`RunOptions::cache_dir`) or none
//! (memory only), and asserts on the `CacheStats` each lookup returns, so
//! the tests share no counters and run in parallel. The one thing they
//! share is the process-wide memory tier, which `cache::clear_memory`
//! empties: see [`MEMORY_TIER`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{PoisonError, RwLock};

use duplo_conv::ConvParams;
use duplo_core::LhbConfig;
use duplo_isa::Kernel;
use duplo_kernels::{GemmTcKernel, SmemPolicy};
use duplo_sim::cache::CacheStats;
use duplo_sim::json::{Json, parse};
use duplo_sim::wtrace::{KernelRecord, simulated_ctas};
use duplo_sim::{GpuConfig, GpuSim, RunOptions, cache, digest, runner};
use duplo_tensor::Nhwc;
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

/// Tests that empty the memory tier hold this for writing; tests whose
/// assertions need a memory entry to survive from one lookup to the next
/// hold it for reading. Without it a concurrent `cache::clear_memory`
/// turns an expected memory hit into a second simulation.
static MEMORY_TIER: RwLock<()> = RwLock::new(());

/// Cached runs with the disk tier at `dir` (`None`: memory only).
fn ctl(dir: Option<std::path::PathBuf>) -> RunOptions {
    RunOptions {
        cache_dir: dir,
        ..RunOptions::default()
    }
}

/// Runs that bypass the cache (the simulator really runs).
fn uncached() -> RunOptions {
    RunOptions {
        no_cache: true,
        ..RunOptions::default()
    }
}

/// One cached lookup whose `compute` path counts simulator invocations;
/// returns the serialized result and the lookup's outcome. The nested
/// `GpuSim::run` is uncached, so it cannot re-enter the cache under the
/// same key (which would self-deadlock the single-flight slot).
fn counted_run(
    ctl: &RunOptions,
    cfg: &GpuConfig,
    kernel: &GemmTcKernel,
    sims: &AtomicUsize,
) -> (String, CacheStats) {
    let (r, lookup) = cache::run_cached(ctl, cfg, kernel, || {
        sims.fetch_add(1, Ordering::SeqCst);
        GpuSim::with_options(cfg.clone(), uncached()).run(kernel)
    });
    (cache::result_to_json(&r).to_pretty(), lookup)
}

const HIT: CacheStats = CacheStats {
    hits: 1,
    misses: 0,
    bytes: 0,
};

const MISS: CacheStats = CacheStats {
    hits: 0,
    misses: 1,
    bytes: 0,
};

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

/// The disk-cache key and the wtrace match key are persistent identities:
/// every cache directory and every recorded wtrace file is addressed by
/// them, so no refactor of their encoders may move either. Pinned for one
/// conv layer (a kernel with a workspace descriptor) at a flat point and
/// at a 4-slice point over 3 representative SMs.
#[test]
fn run_and_match_keys_are_pinned() {
    let params = ConvParams::new(Nhwc::new(8, 56, 56, 16), 16, 3, 3, 1, 1).unwrap();
    let kernel = GemmTcKernel::from_conv(&params, SmemPolicy::COnly);
    assert!(
        kernel.workspace().is_some(),
        "the workspace encoder is pinned too"
    );
    let points = [
        (
            None,
            1,
            "e523e0a399dcea5f9fa2f3745bc931ce",
            "6af3aa633b6410aa02454b6b32f883a3",
        ),
        (
            Some(4),
            3,
            "17e424e27dfde6282c9d8c6020d757aa",
            "b92ec3e7d9c25c331aec567aa0068e17",
        ),
    ];
    for (l2_slices, sms, run_key, match_key) in points {
        let opts = RunOptions {
            sample_ctas: Some(2),
            l2_slices,
            ..RunOptions::default()
        };
        let mut cfg = opts.apply(GpuConfig::titan_v().with_duplo(LhbConfig::paper_default()));
        cfg.sms_simulated = sms;
        let record = KernelRecord::capture(&kernel, &simulated_ctas(&cfg, kernel.num_ctas()));
        assert_eq!(
            digest::hex(cache::run_key(&cfg, &kernel)),
            run_key,
            "run key moved at l2_slices={l2_slices:?}: every disk cache is invalidated"
        );
        assert_eq!(
            digest::hex(record.match_key()),
            match_key,
            "match key moved at l2_slices={l2_slices:?}: recorded wtrace files no longer replay"
        );
    }
}

#[test]
fn memory_hit_is_byte_identical_and_skips_simulation() {
    let _tier = MEMORY_TIER.read().unwrap_or_else(PoisonError::into_inner);
    let ctl = ctl(None); // memory tier only
    let cfg = unique_cfg();
    let kernel = GemmTcKernel::new(48, 32, 16, SmemPolicy::COnly);
    let sims = AtomicUsize::new(0);
    let (fresh, first) = counted_run(&ctl, &cfg, &kernel, &sims);
    let (cached, again) = counted_run(&ctl, &cfg, &kernel, &sims);
    assert_eq!(
        sims.load(Ordering::SeqCst),
        1,
        "repeat must not re-simulate"
    );
    assert_eq!((first, again), (MISS, HIT), "memory tier: no disk bytes");
    assert_eq!(
        cached, fresh,
        "cached result must serialize byte-identically"
    );
}

#[test]
fn disabled_cache_reports_no_lookup() {
    let ctl = uncached();
    let cfg = unique_cfg();
    let kernel = GemmTcKernel::new(16, 16, 16, SmemPolicy::COnly);
    let sims = AtomicUsize::new(0);
    for _ in 0..2 {
        let (_, lookup) = counted_run(&ctl, &cfg, &kernel, &sims);
        assert_eq!(lookup, CacheStats::default());
    }
    assert_eq!(sims.load(Ordering::SeqCst), 2, "every run simulates");
}

#[test]
fn disk_tier_round_trips_byte_identically() {
    let _tier = MEMORY_TIER.write().unwrap_or_else(PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("duplo-cache-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ctl = ctl(Some(dir.clone()));
    let cfg = unique_cfg();
    let kernel = GemmTcKernel::new(32, 48, 16, SmemPolicy::COnly);
    let sims = AtomicUsize::new(0);
    let (fresh, stored) = counted_run(&ctl, &cfg, &kernel, &sims);
    assert_eq!(sims.load(Ordering::SeqCst), 1);
    assert_eq!((stored.hits, stored.misses), (0, 1));
    assert!(stored.bytes > 0, "disk writes are accounted");
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir must exist")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1, "one entry per key: {entries:?}");
    // Evict the memory tier: the reload must come from disk, not the
    // simulator, and serialize to the same bytes.
    cache::clear_memory();
    let (reloaded, loaded) = counted_run(&ctl, &cfg, &kernel, &sims);
    assert_eq!(
        sims.load(Ordering::SeqCst),
        1,
        "disk tier must serve the reload"
    );
    assert_eq!(
        loaded,
        CacheStats {
            bytes: stored.bytes,
            ..HIT
        },
        "a disk hit reads back exactly the bytes written"
    );
    assert_eq!(reloaded, fresh);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_disk_entry_falls_back_to_simulation_and_repairs() {
    let _tier = MEMORY_TIER.write().unwrap_or_else(PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("duplo-cache-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ctl = ctl(Some(dir.clone()));
    let cfg = unique_cfg();
    let kernel = GemmTcKernel::new(16, 48, 32, SmemPolicy::COnly);
    let sims = AtomicUsize::new(0);
    let (fresh, _) = counted_run(&ctl, &cfg, &kernel, &sims);
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("entry written");
    for garbage in ["{ not json at all", "{}", "{\"cache_schema\": 999}"] {
        std::fs::write(&entry, garbage).unwrap();
        cache::clear_memory();
        let n_before = sims.load(Ordering::SeqCst);
        let (recomputed, lookup) = counted_run(&ctl, &cfg, &kernel, &sims);
        assert_eq!(
            sims.load(Ordering::SeqCst),
            n_before + 1,
            "corrupted entry {garbage:?} must fall back to simulation"
        );
        assert_eq!(
            (lookup.hits, lookup.misses),
            (0, 1),
            "corrupted entry {garbage:?} counts as a miss"
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
    let _tier = MEMORY_TIER.read().unwrap_or_else(PoisonError::into_inner);
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
                let (r, lookup) = cache::run_cached(&ctl, &cfg, &kernel, || {
                    sims.fetch_add(1, Ordering::SeqCst);
                    expected.clone()
                });
                (cache::result_to_json(&r).to_pretty(), lookup)
            });
            let n = sims.load(Ordering::SeqCst);
            if n != 1 {
                return Err(format!(
                    "expected exactly one simulation for 8 concurrent lookups, got {n}"
                ));
            }
            let mut total = CacheStats::default();
            for (_, lookup) in &runs {
                total += *lookup;
            }
            let want = CacheStats {
                hits: 7,
                misses: 1,
                bytes: 0,
            };
            if total != want {
                return Err(format!("8 lookups must sum to {want:?}, got {total:?}"));
            }
            let want = cache::result_to_json(&expected).to_pretty();
            if runs.iter().any(|(r, _)| *r != want) {
                return Err("followers must observe the leader's exact result".to_string());
            }
            Ok(())
        },
    );
}
