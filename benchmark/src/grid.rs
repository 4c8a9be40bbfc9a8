//! Simulation grids: the machinery shared by `layer_sweep` and
//! `stream_sliced`.
//!
//! A grid is a list of (kernel, GPU configuration) points. One timed pass
//! fans every point out over the simulator's runner, each through
//! `GpuSim::run` with the run cache bypassed, so every pass simulates.
//! The traced pass re-executes the same points serially through
//! `duplo_sm::run_kernel_mode`, which is what `GpuSim::run` reduces to
//! with one representative SM.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use duplo_conv::ConvParams;
use duplo_isa::Kernel;
use duplo_kernels::{GemmTcKernel, SmemPolicy, StreamKernel};
use duplo_mem::HashKind;
use duplo_sim::experiments::{size_configs, table1_layers};
use duplo_sim::json::{Json, parse};
use duplo_sim::{GpuConfig, GpuRunResult, GpuSim, RunOptions, cache, digest, runner};
use duplo_sm::SmStats;

use crate::output::Timings;
use crate::spans::Recorder;
use crate::timed_kernel::TimedKernel;
use crate::{Args, Counts, Outcome, SETUPS, TracedPass};

/// How a point's kernel is generated.
#[derive(Clone, Debug)]
pub enum KernelSpec {
    /// The lowered GEMM of a convolution layer (explicit workspace, the
    /// paper's baseline shared-memory policy).
    Conv(ConvParams),
    /// A streaming kernel (`stride` in cache lines; 1 = unit stride).
    Stream {
        /// CTAs in the grid.
        ctas: usize,
        /// Warps per CTA.
        warps: usize,
        /// Loads per warp.
        iters: usize,
        /// Line stride between consecutive accesses.
        stride: u64,
    },
}

impl KernelSpec {
    /// Generates the kernel.
    pub fn build(&self) -> Box<dyn Kernel> {
        match self {
            KernelSpec::Conv(p) => Box::new(GemmTcKernel::from_conv(p, SmemPolicy::COnly)),
            KernelSpec::Stream {
                ctas,
                warps,
                iters,
                stride,
            } => Box::new(StreamKernel::strided(*ctas, *warps, *iters, *stride)),
        }
    }
}

/// The memory side a point runs on, for per-side accounting.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Side {
    /// Flat L2.
    Flat,
    /// Four L2 slices, modulo hash.
    Mod,
    /// Four L2 slices, XOR-folded hash.
    Xor,
}

/// One grid point.
#[derive(Clone, Debug)]
pub struct Point {
    /// Stable label, the key of the committed digest table.
    pub label: String,
    /// Whole-GPU configuration (one representative SM).
    pub cfg: GpuConfig,
    /// Kernel generator.
    pub kernel: KernelSpec,
    /// Memory side of `cfg`.
    pub side: Side,
    /// Whether set-up simulates this point (the grid's first column).
    pub in_setup: bool,
}

/// A workload over a grid.
pub struct Grid {
    /// Workload name.
    pub name: &'static str,
    /// Builds the points in their canonical order.
    pub build: fn() -> Vec<Point>,
    /// Options every point runs under (cache bypassed).
    pub opts: RunOptions,
    /// Committed digest table (`{label: digest}`).
    pub expected: &'static str,
    /// Highest percentile `tail_ms` may report.
    pub tail_cap: f64,
}

/// `layer_sweep`: the Fig. 9/10 grid, every Table I layer at baseline and
/// at each LHB size of the paper's sweep, two CTAs per SM share. The LHB
/// probes and the flat memory side do the work; no point is sliced.
pub fn layer_sweep() -> Grid {
    fn build() -> Vec<Point> {
        let opts = layer_sweep_opts();
        let configs = std::iter::once(None).chain(size_configs().into_iter().map(Some));
        let configs: Vec<_> = configs.collect();
        let mut points = Vec::new();
        for layer in table1_layers() {
            for &lhb in &configs {
                let mut cfg = opts.apply(GpuConfig::titan_v());
                cfg.sm.lhb = lhb;
                points.push(Point {
                    label: format!(
                        "{}|{}",
                        layer.qualified_name(),
                        lhb.map_or("baseline".to_string(), |c| c.label())
                    ),
                    cfg,
                    kernel: KernelSpec::Conv(layer.lowered()),
                    side: Side::Flat,
                    in_setup: lhb.is_none(),
                });
            }
        }
        points
    }
    Grid {
        name: "layer_sweep",
        build,
        opts: layer_sweep_opts(),
        expected: include_str!("../expected/layer_sweep.json"),
        // The largest layer's six points take about twice the next
        // layer's, and p95 falls exactly on that step.
        tail_cap: 90.0,
    }
}

fn layer_sweep_opts() -> RunOptions {
    RunOptions {
        sample_ctas: Some(2),
        no_cache: true,
        l2_slices: Some(0),
        ..RunOptions::default()
    }
}

/// `stream_sliced`: unit-stride and 8-line-strided streams over the flat
/// L2 and four slices under the modulo and XOR hashes, full shares, LHB
/// off. The MSHRs, L2 ports, crossbar and slice decode do the work; the
/// LHB is idle.
pub fn stream_sliced() -> Grid {
    fn build() -> Vec<Point> {
        let sides = [
            (Side::Flat, "flat", 0, HashKind::XorFold),
            (Side::Mod, "mod4", 4, HashKind::Mod),
            (Side::Xor, "xor4", 4, HashKind::XorFold),
        ];
        let mut points = Vec::new();
        for stride in [1, 8] {
            let kernel = KernelSpec::Stream {
                ctas: 1280,
                warps: 8,
                iters: 128,
                stride,
            };
            let name = kernel.build().name().to_string();
            for (side, label, slices, hash) in sides {
                let opts = RunOptions {
                    l2_slices: Some(slices),
                    l2_hash: Some(hash),
                    ..stream_opts()
                };
                points.push(Point {
                    label: format!("{name}|{label}"),
                    cfg: opts.apply(GpuConfig::titan_v()),
                    kernel: kernel.clone(),
                    side,
                    in_setup: side == Side::Flat,
                });
            }
        }
        points
    }
    Grid {
        name: "stream_sliced",
        build,
        opts: stream_opts(),
        expected: include_str!("../expected/stream_sliced.json"),
        tail_cap: 75.0,
    }
}

fn stream_opts() -> RunOptions {
    RunOptions {
        no_cache: true,
        ..RunOptions::default()
    }
}

/// SM 0's CTA share length and the number of its CTAs simulated.
pub fn share_of(cfg: &GpuConfig, num_ctas: usize) -> (usize, usize) {
    let share_len = num_ctas.div_ceil(cfg.total_sms);
    let take = cfg.sample_ctas.unwrap_or(share_len).min(share_len);
    (share_len, take)
}

/// The whole-GPU result of one representative SM that simulated `take`
/// of its `share_len` CTAs (the simulator's fold at `sms_simulated = 1`).
pub fn fold_one_sm(stats: SmStats, share_len: usize, take: usize) -> GpuRunResult {
    GpuRunResult {
        cycles: stats.cycles as f64 * (share_len as f64 / take as f64),
        sampled_fraction: (take as f64 / share_len as f64).min(1.0),
        ctas_simulated: take,
        stats,
    }
}

/// Canonical digest of a run result (the run cache's entry encoding).
pub fn result_digest(r: &GpuRunResult) -> String {
    digest::hex(digest::digest_json(&cache::result_to_json(r)))
}

/// `cta()` calls per point kept as spans of their own in the trace file.
const CTA_SPANS_SHOWN: usize = 64;

/// One point's outcome within a pass.
struct Op {
    result: GpuRunResult,
    /// Start and end, seconds since the pass began.
    start: f64,
    end: f64,
    worker: std::thread::ThreadId,
}

struct Pass {
    wall: f64,
    ops: Vec<Op>,
}

impl Pass {
    /// Σ job time / (threads × wall), and the seconds at the end of the
    /// pass during which some worker was already idle.
    fn runner_stats(&self, threads: usize) -> (f64, f64) {
        let busy: f64 = self.ops.iter().map(|o| o.end - o.start).sum();
        let mut last_end: HashMap<std::thread::ThreadId, f64> = HashMap::new();
        for o in &self.ops {
            let e = last_end.entry(o.worker).or_insert(0.0);
            *e = e.max(o.end);
        }
        let mut ends: Vec<f64> = last_end.into_values().collect();
        ends.resize(threads.max(ends.len()), 0.0);
        let max = ends.iter().copied().fold(0.0, f64::max);
        let min = ends.iter().copied().fold(f64::INFINITY, f64::min);
        (busy / (threads as f64 * self.wall), max - min)
    }
}

fn run_pass(points: &[Point], opts: &RunOptions, threads: usize) -> Pass {
    let t0 = Instant::now();
    let ops = runner::par_map_opt(Some(threads), points, |p| {
        let start = t0.elapsed().as_secs_f64();
        let kernel = p.kernel.build();
        let result = GpuSim::with_options(p.cfg.clone(), opts.clone()).run(kernel.as_ref());
        Op {
            result,
            start,
            end: t0.elapsed().as_secs_f64(),
            worker: std::thread::current().id(),
        }
    });
    Pass {
        wall: t0.elapsed().as_secs_f64(),
        ops,
    }
}

/// Parses a committed digest table.
pub fn expected_digests(text: &str) -> BTreeMap<String, String> {
    let doc = parse(text).expect("committed digest table is valid JSON");
    let Json::Obj(fields) = doc else {
        panic!("committed digest table must be an object");
    };
    fields
        .into_iter()
        .map(|(k, v)| (k, v.as_str().expect("digests are strings").to_string()))
        .collect()
}

/// Checks every point of a pass against the committed table and the
/// first pass; returns the number of wrong points.
fn check(
    name: &str,
    points: &[Point],
    results: &[&GpuRunResult],
    expected: &BTreeMap<String, String>,
    first: &mut Vec<String>,
) -> u64 {
    let got: Vec<String> = results.iter().map(|r| result_digest(r)).collect();
    if first.is_empty() {
        first.clone_from(&got);
    }
    let mut wrong = 0;
    for ((p, g), f) in points.iter().zip(&got).zip(first.iter()) {
        if expected.get(&p.label) != Some(g) || g != f {
            eprintln!("[{name}] digest mismatch: {} = {g}", p.label);
            wrong += 1;
        }
    }
    wrong
}

/// The committed-table JSON for one pass of `grid` (the `digests`
/// subcommand).
pub fn digest_table(grid: &Grid, threads: usize) -> String {
    let points = (grid.build)();
    let pass = run_pass(&points, &grid.opts, threads);
    let mut b = Json::obj();
    for (p, o) in points.iter().zip(&pass.ops) {
        b = b.field(&p.label, result_digest(&o.result));
    }
    b.build().to_pretty()
}

/// Simulated counts of one pass, summed over its points.
fn pass_counts(points: &[Point], results: &[&GpuRunResult], counts: &mut Counts) {
    for (p, r) in points.iter().zip(results) {
        let s = &r.stats;
        counts.lhb_hits += s.lhb.hits;
        counts.lhb_probes += s.lhb.hits + s.lhb.misses;
        let accesses = s.mem.l1_hits + s.mem.l1_misses;
        match p.side {
            Side::Flat => counts.mem_accesses_flat += accesses,
            Side::Mod => counts.mem_accesses_mod += accesses,
            Side::Xor => counts.mem_accesses_xor += accesses,
        }
        counts.slice_queue_cycles += s
            .slices
            .iter()
            .map(|sl| sl.port_queue_delay + sl.noc_req_delay + sl.noc_resp_delay)
            .sum::<f64>();
    }
}

/// Runs `grid` under `args`: set-up [`SETUPS`] times, timed passes for
/// `args.seconds`, and with tracing on, the serial traced pass.
///
/// A grid has nothing to draw from the seed: the simulator is
/// deterministic, and a seeded submission order would change the runner's
/// makespan, and with it `iter_s`, from seed to seed.
pub fn run(grid: &Grid, args: &Args) -> Outcome {
    let expected = expected_digests(grid.expected);
    let mut timings = Timings {
        tail_cap: grid.tail_cap,
        ..Timings::default()
    };
    // Set-up builds the grid and simulates its first column once. It also
    // warms the process before the first timed pass.
    let mut points = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        points = (grid.build)();
        let column: Vec<Point> = points.iter().filter(|p| p.in_setup).cloned().collect();
        std::hint::black_box(run_pass(&column, &grid.opts, args.threads));
        timings.setups.push(t.elapsed().as_secs_f64());
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first = Vec::new();
    let mut runner_stats = Vec::new();
    let mut counts = Counts::default();
    let loop_start = Instant::now();
    while timings.passes.is_empty() || loop_start.elapsed().as_secs_f64() < args.seconds {
        let profile = duplo_sm::loop_profile();
        let pass = run_pass(&points, &grid.opts, args.threads);
        let after = duplo_sm::loop_profile();
        timings.passes.push(pass.wall);
        timings
            .op_ms
            .extend(pass.ops.iter().map(|o| (o.end - o.start) * 1e3));
        runner_stats.push(pass.runner_stats(args.threads));
        let results: Vec<&GpuRunResult> = pass.ops.iter().map(|o| &o.result).collect();
        attempted += points.len() as u64;
        failed += check(grid.name, &points, &results, &expected, &mut first);
        if counts.sim_cycles == 0 {
            counts.set_loop(&profile, &after);
            pass_counts(&points, &results, &mut counts);
        }
    }
    timings.loop_s = loop_start.elapsed().as_secs_f64();
    let peak_rss_mb = crate::output::peak_rss_mb();

    let traced = args.trace.then(|| {
        let (wrong, rec, untraced_s) = traced_pass(&points, grid, &first, &mut counts.cta_calls);
        failed += wrong;
        attempted += points.len() as u64;
        let median_of = |f: fn(&(f64, f64)) -> f64| {
            crate::stats::median(&runner_stats.iter().map(f).collect::<Vec<_>>())
        };
        let pass_wall = crate::stats::median(&timings.passes);
        TracedPass {
            wall_s: rec.root_seconds(),
            untraced_s,
            rec,
            counts,
            runner_efficiency: median_of(|s| s.0),
            runner_tail_share: median_of(|s| s.1) / pass_wall,
            report_disk_hits: 0,
            serve: None,
        }
    });
    Outcome {
        timings,
        peak_rss_mb,
        attempted,
        failed,
        traced,
    }
}

/// The serial traced pass: every point through `run_kernel_mode` with
/// its CTA generation timed, checked against the untraced digests. Each
/// point is first run untraced on one thread through `GpuSim::run`, so
/// that the machine's drift cancels out of the overhead; returns the
/// wrong points, the spans and the untraced seconds.
fn traced_pass(
    points: &[Point],
    grid: &Grid,
    untraced: &[String],
    cta_calls: &mut u64,
) -> (u64, Recorder, f64) {
    let mut rec = Recorder::new();
    let mut wrong = 0;
    let mut untraced_s = 0.0;
    let serial = RunOptions {
        threads: Some(1),
        ..grid.opts.clone()
    };
    for (p, want) in points.iter().zip(untraced) {
        let t = Instant::now();
        let kernel = p.kernel.build();
        let result = GpuSim::with_options(p.cfg.clone(), serial.clone()).run(kernel.as_ref());
        std::hint::black_box(result_digest(&result));
        untraced_s += t.elapsed().as_secs_f64();

        rec.scope("bench.point", |rec| {
            rec.tag_open(&p.label);
            assert_eq!(p.cfg.sms_simulated, 1, "grids simulate one SM");
            let kernel = rec.scope("kernels.build", |_| p.kernel.build());
            let timed = TimedKernel::new(kernel.as_ref());
            let (share_len, take) = share_of(&p.cfg, timed.num_ctas());
            let ids: Vec<usize> = (0..take).map(|i| i * p.cfg.total_sms).collect();
            let stats = rec.scope("sm.run_kernel", |rec| {
                let stats = duplo_sm::run_kernel_mode(
                    &timed,
                    &ids,
                    p.cfg.sm.clone(),
                    grid.opts.tick_reference,
                );
                // The SM regenerates a CTA's trace on every launch
                // attempt, so calls can outnumber CTAs by far.
                let calls = timed.take_calls();
                *cta_calls += calls.len() as u64;
                rec.record_calls("kernels.cta", &calls, CTA_SPANS_SHOWN);
                stats
            });
            let result = rec.scope("bench.fold", |_| fold_one_sm(stats, share_len, take));
            let doc = rec.scope("cache.encode", |_| cache::result_to_json(&result));
            let text = rec.scope("report.json", |_| doc.to_canonical());
            let d = rec.scope("cache.digest", |_| digest::digest_bytes(text.as_bytes()));
            if digest::hex(d) != *want {
                eprintln!("[{}] traced result differs: {}", grid.name, p.label);
                wrong += 1;
            }
        });
    }
    (wrong, rec, untraced_s)
}
