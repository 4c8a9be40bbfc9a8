//! Per-layer unit costs, measured from outside each layer.
//!
//! Every traced run measures the same unit costs on the same fixed input,
//! whatever its workload: the first CTA of SM 0's share of every Table I
//! layer's lowered GEMM (the `layer_sweep` kernels). Where a layer runs
//! inside another layer's call (the LHB and the memory hierarchy inside
//! the SM loop), its real input stream, the kernels' tensor-core row
//! segments, is replayed through its public API. Each cost is the median
//! of three rounds.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use duplo_core::{DetectionUnit, HwIdGen, LhbConfig, LoadDecision, LoadToken, PhysReg};
use duplo_isa::{Kernel, Op, Space, WorkspaceDesc};
use duplo_kernels::{GemmTcKernel, SmemPolicy};
use duplo_mem::{HashKind, HierarchyConfig, MemoryHierarchy};
use duplo_sim::experiments::{find_experiment, size_configs, table1_layers};
use duplo_sim::json::parse;
use duplo_sim::{GpuConfig, GpuRunResult, GpuSim, RunOptions, cache, runner};

use crate::grid::{fold_one_sm, share_of};
use crate::output::{Metric, metric};
use crate::serve::ServeStats;
use crate::stats::median;
use crate::timed_kernel::TimedKernel;

/// Unit costs of every layer.
#[derive(Clone, Debug, Default)]
pub struct UnitCosts {
    /// µs per `Kernel::cta()`.
    pub cta_us: f64,
    /// Host ns per simulated SM cycle, CTA generation excluded.
    pub sm_ns_per_cycle: f64,
    /// ns per LHB probe (with its fill and retirement).
    pub probe_ns: f64,
    /// ns per ID-generator key.
    pub idgen_ns: f64,
    /// ns per flat `MemoryHierarchy::load`.
    pub load_ns_flat: f64,
    /// Share of flat loads that found the MSHR file full and waited.
    pub retry_frac: f64,
    /// ns per 4-slice `load()`, modulo hash.
    pub load_ns_mod: f64,
    /// ns per 4-slice `load()`, XOR hash.
    pub load_ns_xor: f64,
    /// µs per two-task runner pool.
    pub pool_us: f64,
    /// µs per `cache::run_key`.
    pub run_key_us: f64,
    /// µs per cache-entry file read.
    pub read_us: f64,
    /// µs per cache-entry decode (`json::parse` + `result_from_json`).
    pub decode_us: f64,
    /// µs per cache-entry encode (`result_to_json` + `to_pretty`).
    pub encode_us: f64,
    /// µs per `GpuSim::run` served by the disk tier.
    pub disk_hit_us: f64,
    /// µs per `GpuSim::run` served by the memory tier.
    pub memory_hit_us: f64,
    /// µs per `ExperimentResult::to_pretty`.
    pub json_encode_us: f64,
    /// ms per warm experiment re-run (drivers and table rendering).
    pub render_ms: f64,
}

impl UnitCosts {
    /// The unit-cost metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("kernels.cta_us", self.cta_us, "us"),
            metric("sm.ns_per_cycle", self.sm_ns_per_cycle, "ns"),
            metric("core.probe_ns", self.probe_ns, "ns"),
            metric("core.idgen_ns", self.idgen_ns, "ns"),
            metric("mem.load_ns", self.load_ns_flat, "ns"),
            metric("mem.retry_frac", self.retry_frac, "frac"),
            metric("noc.load_ns_mod", self.load_ns_mod, "ns"),
            metric("noc.load_ns_xor", self.load_ns_xor, "ns"),
            metric("runner.pool_us", self.pool_us, "us"),
            metric("cache.run_key_us", self.run_key_us, "us"),
            metric("cache.read_us", self.read_us, "us"),
            metric("cache.decode_us", self.decode_us, "us"),
            metric("cache.encode_us", self.encode_us, "us"),
            metric("cache.disk_hit_us", self.disk_hit_us, "us"),
            metric("cache.memory_hit_us", self.memory_hit_us, "us"),
            metric("report.json_encode_us", self.json_encode_us, "us"),
            metric("report.render_ms", self.render_ms, "ms"),
        ]
    }
}

/// The tensor-core row segments of one kernel's first CTA, in the order a
/// round-robin over its warps issues them, at most [`MAX_SEGMENTS`].
struct Stream {
    ws: WorkspaceDesc,
    segs: Vec<(u64, u32)>,
}

/// Segments replayed per kernel: enough to fill and cycle the LHB and the
/// L1 many times over, few enough to keep the replays near a second.
const MAX_SEGMENTS: usize = 8192;

fn row_segments(kernel: &dyn Kernel) -> Vec<(u64, u32)> {
    let cta = kernel.cta(0);
    let longest = cta.warps.iter().map(|w| w.ops.len()).max().unwrap_or(0);
    let mut segs = Vec::new();
    for i in 0..longest {
        for w in &cta.warps {
            if let Some(&Op::WmmaLoad {
                addr,
                rows,
                seg_bytes,
                row_stride,
                space: Space::Global,
                ..
            }) = w.ops.get(i)
            {
                for r in 0..u64::from(rows) {
                    segs.push((addr + r * row_stride, u32::from(seg_bytes)));
                }
            }
        }
    }
    segs.truncate(MAX_SEGMENTS);
    segs
}

/// Median over three rounds of `f`, which returns (seconds, items).
fn per_item(unit: f64, mut f: impl FnMut() -> (f64, u64)) -> f64 {
    let rounds: Vec<f64> = (0..3)
        .map(|_| {
            let (s, n) = f();
            s * unit / n.max(1) as f64
        })
        .collect();
    median(&rounds)
}

fn timed(f: impl FnOnce() -> u64) -> (f64, u64) {
    let t = Instant::now();
    let n = f();
    (t.elapsed().as_secs_f64(), n)
}

fn replay_lhb(streams: &[Stream]) -> (f64, u64) {
    timed(|| {
        let mut n = 0u64;
        for s in streams {
            let mut du = DetectionUnit::new(&s.ws, LhbConfig::paper_default(), 0);
            // Loads retire in issue order after a window of in-flight ones.
            let mut in_flight = VecDeque::new();
            for &(addr, bytes) in &s.segs {
                n += 1;
                let token = LoadToken(n);
                if du.probe_load(addr, u64::from(bytes), token) == LoadDecision::Miss {
                    black_box(du.record_fill(addr, u64::from(bytes), PhysReg(n as u32), token));
                }
                in_flight.push_back(token);
                if in_flight.len() > 64 {
                    black_box(du.retire(in_flight.pop_front().expect("non-empty")));
                }
            }
        }
        n
    })
}

fn replay_idgen(streams: &[Stream]) -> (f64, u64) {
    timed(|| {
        let mut n = 0u64;
        for s in streams {
            let idgen = HwIdGen::new(&s.ws);
            for &(addr, bytes) in &s.segs {
                black_box(idgen.key(addr, u64::from(bytes)));
                n += 1;
            }
        }
        n
    })
}

/// Replays the segments through the hierarchy the way the SM's load pipes
/// drive it: four issue slots per cycle, and a load that finds the MSHR
/// file full (`can_accept` false) waits for the next fill. Returns
/// (seconds, loads, loads that waited).
fn replay_loads(streams: &[Stream], config: HierarchyConfig) -> (f64, u64, u64) {
    let mut waited = 0u64;
    let (s, n) = timed(|| {
        let mut n = 0u64;
        for s in streams {
            let mut h = MemoryHierarchy::new(config);
            let mut cycle = 0u64;
            for (i, &(addr, bytes)) in s.segs.iter().enumerate() {
                if !h.can_accept(cycle) {
                    waited += 1;
                    while !h.can_accept(cycle) {
                        cycle = h.next_mshr_fill(cycle).unwrap_or(cycle + 1).max(cycle + 1);
                    }
                }
                black_box(h.load(cycle, addr, bytes).expect("can_accept checked"));
                n += 1;
                if i % 4 == 3 {
                    cycle += 1;
                }
            }
        }
        n
    });
    (s, n, waited)
}

/// Measures every unit cost; `scratch` is an empty directory the cache
/// probes may use.
pub fn measure(scratch: &Path, threads: usize) -> UnitCosts {
    let mut u = UnitCosts::default();
    let kernels: Vec<GemmTcKernel> = table1_layers()
        .iter()
        .map(|l| GemmTcKernel::from_conv(&l.lowered(), SmemPolicy::COnly))
        .collect();

    u.cta_us = per_item(1e6, || {
        timed(|| {
            for k in &kernels {
                black_box(k.cta(0));
            }
            kernels.len() as u64
        })
    });
    let streams: Vec<Stream> = kernels
        .iter()
        .map(|k| Stream {
            ws: k.workspace().expect("lowered GEMMs carry a workspace"),
            segs: row_segments(k),
        })
        .collect();
    u.probe_ns = per_item(1e9, || replay_lhb(&streams));
    u.idgen_ns = per_item(1e9, || replay_idgen(&streams));
    let flat = GpuConfig::titan_v().sm.hierarchy;
    let mut waited = (0, 1);
    u.load_ns_flat = per_item(1e9, || {
        let (s, n, w) = replay_loads(&streams, flat);
        waited = (w, n);
        (s, n)
    });
    u.retry_frac = waited.0 as f64 / waited.1 as f64;
    for (hash, out) in [
        (HashKind::Mod, &mut u.load_ns_mod),
        (HashKind::XorFold, &mut u.load_ns_xor),
    ] {
        *out = per_item(1e9, || {
            let (s, n, _) = replay_loads(&streams, flat.sliced(4, hash));
            (s, n)
        });
    }

    // The sweep layer with the shortest CTAs (the smallest GEMM K, which a
    // sampled run's cost follows) at baseline and every LHB size, as the
    // layer_sweep workload runs it.
    let opts = RunOptions {
        sample_ctas: Some(2),
        l2_slices: Some(0),
        ..RunOptions::default()
    };
    let smallest = kernels
        .iter()
        .zip(&streams)
        .min_by_key(|(_, s)| s.ws.row_stride_elems)
        .map(|(k, _)| k)
        .expect("Table I is not empty");
    let configs: Vec<GpuConfig> = std::iter::once(None)
        .chain(size_configs().into_iter().map(Some))
        .map(|lhb| {
            let mut cfg = opts.apply(GpuConfig::titan_v());
            cfg.sm.lhb = lhb;
            cfg
        })
        .collect();
    let mut results: Vec<GpuRunResult> = Vec::new();
    u.sm_ns_per_cycle = per_item(1e9, || {
        results.clear();
        let mut loop_s = 0.0;
        let mut cycles = 0;
        for cfg in &configs {
            let timed = TimedKernel::new(smallest);
            let (share_len, take) = share_of(cfg, timed.num_ctas());
            let ids: Vec<usize> = (0..take).map(|i| i * cfg.total_sms).collect();
            let t = Instant::now();
            let stats = duplo_sm::run_kernel_mode(&timed, &ids, cfg.sm.clone(), false);
            let cta_s: f64 = timed
                .take_calls()
                .iter()
                .map(|(a, b)| (*b - *a).as_secs_f64())
                .sum();
            loop_s += t.elapsed().as_secs_f64() - cta_s;
            cycles += stats.cycles;
            results.push(fold_one_sm(stats, share_len, take));
        }
        (loop_s, cycles)
    });

    u.pool_us = per_item(1e6, || {
        let items = vec![0u64; 2 * threads];
        timed(|| {
            for _ in 0..200 {
                black_box(runner::par_map_opt(Some(threads), &items, |&x| {
                    black_box(x)
                }));
            }
            200
        })
    });
    u.run_key_us = per_item(1e6, || {
        timed(|| {
            let mut n = 0;
            for k in &kernels {
                for cfg in &configs {
                    black_box(cache::run_key(cfg, k));
                    n += 1;
                }
            }
            n
        })
    });
    let texts: Vec<String> = results
        .iter()
        .map(|r| cache::result_to_json(r).to_pretty())
        .collect();
    u.encode_us = per_item(1e6, || {
        timed(|| {
            for _ in 0..50 {
                for r in &results {
                    black_box(cache::result_to_json(r).to_pretty());
                }
            }
            50 * results.len() as u64
        })
    });
    u.decode_us = per_item(1e6, || {
        timed(|| {
            for _ in 0..50 {
                for t in &texts {
                    let doc = parse(t).expect("encoded entries parse");
                    black_box(cache::result_from_json(&doc).expect("and decode"));
                }
            }
            50 * texts.len() as u64
        })
    });
    let files: Vec<_> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let path = scratch.join(format!("entry{i}.json"));
            std::fs::write(&path, t).expect("scratch directory is writable");
            path
        })
        .collect();
    u.read_us = per_item(1e6, || {
        timed(|| {
            for _ in 0..50 {
                for f in &files {
                    black_box(std::fs::read_to_string(f).expect("just written"));
                }
            }
            50 * files.len() as u64
        })
    });

    let disk = RunOptions {
        cache_dir: Some(scratch.join("cache")),
        ..opts.clone()
    };
    let run_all = || {
        for cfg in &configs {
            black_box(GpuSim::with_options(cfg.clone(), disk.clone()).run(smallest));
        }
        configs.len() as u64
    };
    cache::clear_memory();
    run_all();
    u.disk_hit_us = per_item(1e6, || {
        let mut s = 0.0;
        let mut n = 0;
        for _ in 0..20 {
            cache::clear_memory();
            let (ds, dn) = timed(run_all);
            s += ds;
            n += dn;
        }
        (s, n)
    });
    u.memory_hit_us = per_item(1e6, || timed(|| (0..20).map(|_| run_all()).sum()));

    let analytic: Vec<_> = [
        "table03_config",
        "fig02_speedup",
        "fig03_memusage",
        "table02_workflow",
    ]
    .iter()
    .map(|n| (find_experiment(n).expect("registered").run)(&opts).result)
    .collect();
    u.json_encode_us = per_item(1e6, || {
        timed(|| {
            for _ in 0..50 {
                for r in &analytic {
                    black_box(r.to_pretty());
                }
            }
            50 * analytic.len() as u64
        })
    });
    let smem = find_experiment("smem_policy").expect("registered");
    let warm = RunOptions {
        threads: Some(threads),
        ..opts
    };
    black_box((smem.run)(&warm));
    u.render_ms = per_item(1e3, || {
        timed(|| {
            for _ in 0..10 {
                black_box((smem.run)(&warm));
            }
            10
        })
    });
    u
}

/// The serve metrics, from `serve_mix`'s traced pass or from the serve
/// probe of every other workload.
pub fn serve_metrics(s: &ServeStats) -> Vec<Metric> {
    vec![
        metric("serve.read_p50_ms", s.read_p50_ms, "ms"),
        metric("serve.fetch_p50_ms", s.fetch_p50_ms, "ms"),
        metric("serve.write_p50_ms", s.write_p50_ms, "ms"),
        metric("serve.server_us", s.server_us, "us"),
        metric("serve.transport_us", s.transport_us, "us"),
        metric("serve.body_kb", s.body_kb, "kB"),
    ]
}
