//! `duplo-benchmark`: end-to-end and per-layer benchmark of the Duplo
//! simulator, through its public API only.
//!
//! ```text
//! duplo-benchmark <workload> --seed <u64> [--seconds <s>] [--threads <n>] [--trace 0|1|<dir>]
//! duplo-benchmark compare <a> <b> [--bounds <BENCHMARK.json>]
//! duplo-benchmark digests <layer_sweep|stream_sliced>
//! ```
//!
//! A workload run prints its metric tables and, as the last line of
//! stdout, one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics, or with tracing on the per-layer metrics. See
//! `README.md` for the workloads and the layer → metric map.

#![forbid(unsafe_code)]

mod compare;
mod counters;
mod grid;
mod output;
mod probes;
mod registry;
mod serve;
mod spans;
mod stats;
mod timed_kernel;

use std::path::{Path, PathBuf};

use duplo_sim::{cache, log};
use duplo_sm::LoopProfile;

use crate::counters::CacheTiers;
use crate::output::{Metric, Timings, metric, print_table, result_line};
use crate::probes::UnitCosts;
use crate::serve::ServeStats;
use crate::spans::Recorder;

/// Set-ups per run of the workloads whose set-up takes seconds, not most
/// of a minute; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["layer_sweep", "stream_sliced", "registry_warm", "serve_mix"];

/// The per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("kernels.cta_us", "us"),
    ("sm.ns_per_cycle", "ns"),
    ("core.probe_ns", "ns"),
    ("core.idgen_ns", "ns"),
    ("mem.load_ns", "ns"),
    ("mem.retry_frac", "frac"),
    ("noc.load_ns_mod", "ns"),
    ("noc.load_ns_xor", "ns"),
    ("runner.pool_us", "us"),
    ("cache.run_key_us", "us"),
    ("cache.read_us", "us"),
    ("cache.decode_us", "us"),
    ("cache.encode_us", "us"),
    ("cache.disk_hit_us", "us"),
    ("cache.memory_hit_us", "us"),
    ("report.json_encode_us", "us"),
    ("report.render_ms", "ms"),
    ("serve.read_p50_ms", "ms"),
    ("serve.fetch_p50_ms", "ms"),
    ("serve.write_p50_ms", "ms"),
    ("serve.server_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.body_kb", "kB"),
    ("kernels.share", "frac"),
    ("sm.share", "frac"),
    ("core.est_share", "frac"),
    ("mem.est_share", "frac"),
    ("noc.est_share", "frac"),
    ("sm.loop_est_share", "frac"),
    ("cache.share", "frac"),
    ("report.share", "frac"),
    ("serve.share", "frac"),
    ("bench.share", "frac"),
    ("runner.efficiency", "frac"),
    ("runner.tail_share", "frac"),
    ("trace.overhead", "frac"),
    ("kernels.cta_calls", "count"),
    ("sm.cycles", "count"),
    ("sm.event_skips", "count"),
    ("sm.ticks_walked", "count"),
    ("sm.skip_frac", "frac"),
    ("core.probes", "count"),
    ("core.hit_rate", "frac"),
    ("mem.accesses", "count"),
    ("noc.slice_queue_cycles", "cycles"),
    ("cache.hits_memory", "count"),
    ("cache.hits_disk", "count"),
    ("cache.hits_flight", "count"),
    ("cache.misses", "count"),
    ("serve.evictions", "count"),
];

/// Options of one workload run.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Runner threads of the grid and registry passes.
    pub threads: usize,
    /// Whether to run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Where the trace and self-time table go.
    pub trace_dir: PathBuf,
}

/// Counts of one pass, per layer.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// `Kernel::cta()` calls in the traced pass.
    pub cta_calls: u64,
    /// Simulated SM cycles.
    pub sim_cycles: u64,
    /// Event-wheel fast-forwards.
    pub event_skips: u64,
    /// Cycles those fast-forwards covered.
    pub cycles_skipped: u64,
    /// Cycles walked tick by tick.
    pub ticks_walked: u64,
    /// LHB probes (hits + misses).
    pub lhb_probes: u64,
    /// LHB hits.
    pub lhb_hits: u64,
    /// L1 load sectors on the flat memory side.
    pub mem_accesses_flat: u64,
    /// L1 load sectors on four slices, modulo hash.
    pub mem_accesses_mod: u64,
    /// L1 load sectors on four slices, XOR hash.
    pub mem_accesses_xor: u64,
    /// Simulated slice port and crossbar queueing, in cycles.
    pub slice_queue_cycles: f64,
    /// Run-cache lookups by tier.
    pub tiers: CacheTiers,
    /// Result-store evictions.
    pub evictions: u64,
}

impl Counts {
    /// Takes the SM loop counters from two `loop_profile` readings.
    pub fn set_loop(&mut self, a: &LoopProfile, b: &LoopProfile) {
        self.sim_cycles = b.cycles - a.cycles;
        self.event_skips = b.skips_taken - a.skips_taken;
        self.cycles_skipped = b.cycles_skipped - a.cycles_skipped;
        self.ticks_walked = b.ticks_walked - a.ticks_walked;
    }

    /// Takes the cache tier counters from two readings.
    pub fn set_tiers(&mut self, a: &CacheTiers, b: &CacheTiers) {
        self.tiers = CacheTiers {
            memory: b.memory - a.memory,
            disk: b.disk - a.disk,
            flight: b.flight - a.flight,
            misses: b.misses - a.misses,
        };
    }
}

/// What a workload's traced phase hands back.
pub struct TracedPass {
    /// Spans of the traced pass.
    pub rec: Recorder,
    /// Wall time of the traced pass.
    pub wall_s: f64,
    /// Seconds of the same work run serially without spans, interleaved
    /// with the traced pass (`serve_mix`: as many other requests).
    pub untraced_s: f64,
    /// Counts of one pass.
    pub counts: Counts,
    /// Runner busy share over the timed passes (0 where the benchmark
    /// does not fan out itself).
    pub runner_efficiency: f64,
    /// Share of a timed pass with an idle runner worker.
    pub runner_tail_share: f64,
    /// Disk-tier hits inside the traced pass's `report` spans.
    pub report_disk_hits: u64,
    /// Serve statistics of the traced pass (serve_mix only).
    pub serve: Option<ServeStats>,
}

/// Everything one workload run measured.
pub struct Outcome {
    /// Untraced timings.
    pub timings: Timings,
    /// Peak RSS before any traced phase.
    pub peak_rss_mb: f64,
    /// Operations checked.
    pub attempted: u64,
    /// Operations failed or wrong.
    pub failed: u64,
    /// The traced phase, when tracing is on.
    pub traced: Option<TracedPass>,
}

fn usage() -> ! {
    eprintln!(
        "usage: duplo-benchmark <workload> --seed <u64> [--seconds <s>] [--threads <n>] [--trace 0|1|<dir>]\n\
         \x20      duplo-benchmark compare <a> <b> [--bounds <BENCHMARK.json>]\n\
         \x20      duplo-benchmark digests <layer_sweep|stream_sliced>\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

/// Where runs keep scratch files and traces: `out/` beside the manifest.
pub fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15.0;
    let mut threads = 2;
    let mut trace = false;
    let mut trace_dir = work_dir().join("traces");
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or(format!("{flag} requires a value"))
        };
        match flag {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes a u64")?),
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--threads" => {
                threads = value()?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--threads takes a positive integer")?;
            }
            "--trace" => match value()?.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                dir => {
                    trace = true;
                    trace_dir = PathBuf::from(dir);
                }
            },
            w if !w.starts_with('-') && workload.is_none() => workload = Some(w.to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let workload = workload.ok_or("missing workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        threads,
        trace,
        trace_dir,
    })
}

/// The per-layer metrics of a traced run.
fn per_layer(t: &TracedPass, u: &UnitCosts, serve: &ServeStats) -> Vec<Metric> {
    let layers = t.rec.self_seconds_by_layer();
    let self_s = |l: &str| layers.get(l).copied().unwrap_or(0.0);
    let c = &t.counts;
    let wall = t.wall_s;
    let core_s = c.lhb_probes as f64 * u.probe_ns * 1e-9;
    let mem_s = c.mem_accesses_flat as f64 * u.load_ns_flat * 1e-9;
    let noc_s = (c.mem_accesses_mod as f64 * u.load_ns_mod
        + c.mem_accesses_xor as f64 * u.load_ns_xor)
        * 1e-9;
    // Disk-tier reads happen inside the experiment drivers; move their
    // estimated cost from `report` to `cache`.
    let disk_s = (t.report_disk_hits as f64 * (u.run_key_us + u.read_us + u.decode_us) * 1e-6)
        .min(self_s("report"));
    let frac = |x: u64, of: u64| if of == 0 { 0.0 } else { x as f64 / of as f64 };
    let mut m = u.metrics();
    m.extend(probes::serve_metrics(serve));
    m.extend([
        metric("kernels.share", self_s("kernels") / wall, "frac"),
        metric("sm.share", self_s("sm") / wall, "frac"),
        metric("core.est_share", core_s / wall, "frac"),
        metric("mem.est_share", mem_s / wall, "frac"),
        metric("noc.est_share", noc_s / wall, "frac"),
        metric(
            "sm.loop_est_share",
            (self_s("sm") - core_s - mem_s - noc_s) / wall,
            "frac",
        ),
        metric("cache.share", (self_s("cache") + disk_s) / wall, "frac"),
        metric("report.share", (self_s("report") - disk_s) / wall, "frac"),
        metric("serve.share", self_s("serve") / wall, "frac"),
        metric("bench.share", self_s("bench") / wall, "frac"),
        metric("runner.efficiency", t.runner_efficiency, "frac"),
        metric("runner.tail_share", t.runner_tail_share, "frac"),
        metric("trace.overhead", wall / t.untraced_s - 1.0, "frac"),
        metric("kernels.cta_calls", c.cta_calls as f64, "count"),
        metric("sm.cycles", c.sim_cycles as f64, "count"),
        metric("sm.event_skips", c.event_skips as f64, "count"),
        metric("sm.ticks_walked", c.ticks_walked as f64, "count"),
        metric("sm.skip_frac", frac(c.cycles_skipped, c.sim_cycles), "frac"),
        metric("core.probes", c.lhb_probes as f64, "count"),
        metric("core.hit_rate", frac(c.lhb_hits, c.lhb_probes), "frac"),
        metric(
            "mem.accesses",
            (c.mem_accesses_flat + c.mem_accesses_mod + c.mem_accesses_xor) as f64,
            "count",
        ),
        metric("noc.slice_queue_cycles", c.slice_queue_cycles, "cycles"),
        metric("cache.hits_memory", c.tiers.memory as f64, "count"),
        metric("cache.hits_disk", c.tiers.disk as f64, "count"),
        metric("cache.hits_flight", c.tiers.flight as f64, "count"),
        metric("cache.misses", c.tiers.misses as f64, "count"),
        metric("serve.evictions", c.evictions as f64, "count"),
    ]);
    m
}

/// Writes the Chrome trace and the self-time table; returns the table.
fn write_trace(args: &Args, t: &TracedPass) -> std::io::Result<String> {
    let path = t.rec.write_chrome(&args.trace_dir, &args.workload)?;
    let layers = t.rec.self_seconds_by_layer();
    let total: f64 = layers.values().sum();
    let mut table = format!(
        "{} traced pass: {:.6} s wall, {:.6} s untraced, interleaved (overhead {:+.1}%)\n",
        args.workload,
        t.wall_s,
        t.untraced_s,
        (t.wall_s / t.untraced_s - 1.0) * 100.0
    );
    table.push_str(&format!(
        "{:<10} {:>12} {:>8}\n",
        "layer", "self_s", "share"
    ));
    for (layer, s) in &layers {
        table.push_str(&format!(
            "{layer:<10} {s:>12.6} {:>7.2}%\n",
            s / t.wall_s * 100.0
        ));
    }
    table.push_str(&format!(
        "{:<10} {total:>12.6} {:>7.2}%  (self times over the pass's wall time)\n",
        "sum",
        total / t.wall_s * 100.0
    ));
    table.push_str(&format!("spans: {}\n", path.display()));
    std::fs::write(
        args.trace_dir
            .join(format!("{}.self_time.txt", args.workload)),
        &table,
    )?;
    Ok(table)
}

fn run_workload(args: &Args) -> (u64, u64, Vec<Metric>) {
    let work = work_dir();
    std::fs::create_dir_all(&work).expect("the benchmark's out/ directory is writable");
    // No disk tier unless a workload names one: a `DUPLO_CACHE_DIR` in the
    // environment would turn set-ups and writes into disk reads.
    cache::set_dir(None);
    let outcome = match args.workload.as_str() {
        "layer_sweep" => grid::run(&grid::layer_sweep(), args),
        "stream_sliced" => grid::run(&grid::stream_sliced(), args),
        "registry_warm" => registry::run(args, &work),
        "serve_mix" => serve::run(args),
        other => unreachable!("workload {other} was validated"),
    };
    let (e2e, notes) = outcome.timings.end_to_end(outcome.peak_rss_mb);
    print_table(&format!("{} end to end", args.workload), &e2e, &notes);
    let Some(traced) = outcome.traced else {
        return (outcome.attempted, outcome.failed, e2e);
    };
    let scratch = registry::TempDir(work.join(format!("probe-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).expect("the probe directory is writable");
    let t = std::time::Instant::now();
    let units = probes::measure(&scratch.0, args.threads);
    let serve = traced.serve.clone().unwrap_or_else(serve::probe);
    println!("unit-cost probes: {:.3} s", t.elapsed().as_secs_f64());
    let metrics = per_layer(&traced, &units, &serve);
    print_table(&format!("{} per layer", args.workload), &metrics, &[]);
    match write_trace(args, &traced) {
        Ok(table) => print!("{table}"),
        Err(e) => eprintln!("cannot write the trace: {e}"),
    }
    (outcome.attempted, outcome.failed, metrics)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("compare") => compare::compare_main(&argv[1..]),
        Some("digests") => {
            let _quiet = log::override_level(log::Level::Off);
            match argv.get(1).map(String::as_str) {
                Some("layer_sweep") => print!("{}", grid::digest_table(&grid::layer_sweep(), 2)),
                Some("stream_sliced") => {
                    print!("{}", grid::digest_table(&grid::stream_sliced(), 2))
                }
                _ => usage(),
            }
            0
        }
        _ => {
            let args = parse_args(&argv).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                usage()
            });
            // The daemon and the drivers log per request and per run;
            // stderr's speed must not be part of the measurement.
            let _quiet = log::override_level(log::Level::Off);
            let (attempted, failed, metrics) = run_workload(&args);
            println!("{}", result_line(attempted, failed, &metrics));
            0
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use duplo_sim::json::{Json, parse};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_both_command_forms() {
        let a = parse_args(&argv(
            "--workload serve_mix --seed 3 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mix", 3, 10.0, false)
        );
        let b = parse_args(&argv("layer_sweep --seed 9 --threads 2 --trace out/t")).unwrap();
        assert!(b.trace);
        assert_eq!(b.trace_dir, PathBuf::from("out/t"));
        assert!(parse_args(&argv("nope --seed 1")).is_err());
        assert!(parse_args(&argv("serve_mix")).is_err());
        assert!(parse_args(&argv("serve_mix --seed 1 --bogus")).is_err());
    }

    #[test]
    fn metric_names_are_legal_and_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.extend(output::END_TO_END);
        assert!(names.iter().all(|n| output::valid_name(n)));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn per_layer_covers_the_catalog() {
        let t = TracedPass {
            rec: Recorder::new(),
            wall_s: 1.0,
            untraced_s: 1.0,
            counts: Counts::default(),
            runner_efficiency: 0.0,
            runner_tail_share: 0.0,
            report_disk_hits: 0,
            serve: None,
        };
        let m = per_layer(&t, &UnitCosts::default(), &ServeStats::default());
        let got: Vec<(&str, &str)> = m.iter().map(|m| (m.name.as_str(), m.unit)).collect();
        assert_eq!(got, PER_LAYER.to_vec());
    }

    #[test]
    fn benchmark_json_lists_these_metrics() {
        let doc = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let per_layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), per_layer);
        let e2e: Vec<String> = names("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(e2e, output::END_TO_END.to_vec());
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS.to_vec());
    }
}
