//! Integration gates for the tracing subsystem (`duplo_sim::trace`):
//!
//! * exported Chrome trace documents are byte-identical at any thread
//!   count (the CI trace gate re-checks this across *processes* via
//!   `DUPLO_THREADS`),
//! * the aggregated timeline is consistent with the end-of-run
//!   `run_metrics` totals — summing per-window deltas telescopes to
//!   exactly the folded stats, and the last sample's stats are the
//!   run's folded stats,
//! * every capped buffer reports drops instead of silently truncating,
//! * tracing does not perturb simulation results, and cache hits are
//!   recorded as timeline-less records.
//!
//! Each test traces into its own `TraceSink`, carried on its runs'
//! options, so the tests run concurrently: a run without the sink never
//! lands in another test's trace.

use duplo_conv::ConvParams;
use duplo_core::LhbConfig;
use duplo_kernels::{GemmTcKernel, SmemPolicy};
use duplo_sim::json::Json;
use duplo_sim::trace::{DEFAULT_RUN_CAP, SmSample, TraceData, TraceSink, TraceSpec};
use duplo_sim::{GpuConfig, GpuSim, RunOptions};
use duplo_tensor::Nhwc;

/// A 392-CTA layer over 5 simulated SMs: distinct per-SM shares, so both
/// the stat fold and the sample aggregation have real cross-SM work.
fn kernel_and_cfg() -> (GemmTcKernel, GpuConfig) {
    let p = ConvParams::new(Nhwc::new(8, 56, 56, 16), 16, 3, 3, 1, 1).unwrap();
    let mut cfg = GpuConfig::titan_v().with_sample(2);
    cfg.sms_simulated = 5;
    cfg.sm.lhb = Some(LhbConfig::paper_default());
    (GemmTcKernel::from_conv(&p, SmemPolicy::COnly), cfg)
}

/// Uncached runs at `threads`, traced into `sink` when given.
fn opts(threads: usize, sink: Option<&TraceSink>) -> RunOptions {
    RunOptions {
        threads: Some(threads),
        no_cache: true,
        trace_sink: sink.cloned(),
        ..RunOptions::default()
    }
}

/// A sink sampling every `interval` cycles under the default caps.
fn sink_every(interval: u64) -> TraceSink {
    TraceSink::new(
        TraceSpec {
            interval,
            ..TraceSpec::default()
        },
        DEFAULT_RUN_CAP,
    )
}

/// The Chrome document `data` writes.
fn export(data: &TraceData) -> String {
    let mut bytes = Vec::new();
    data.write_chrome(&mut bytes).expect("writing to memory");
    String::from_utf8(bytes).expect("the export is UTF-8")
}

fn traced_export(threads: usize, interval: u64) -> String {
    let sink = sink_every(interval);
    let (kernel, cfg) = kernel_and_cfg();
    GpuSim::with_options(cfg, opts(threads, Some(&sink))).run(&kernel);
    export(&sink.finish())
}

#[test]
fn trace_export_identical_at_one_and_many_threads() {
    let serial = traced_export(1, 256);
    let parallel = traced_export(4, 256);
    assert_eq!(
        serial, parallel,
        "trace documents must be byte-identical regardless of thread count"
    );
}

#[test]
fn interval_deltas_sum_to_run_metrics_totals() {
    let sink = sink_every(128);
    let (kernel, cfg) = kernel_and_cfg();
    let result = GpuSim::with_options(cfg, opts(2, Some(&sink))).run(&kernel);
    let data = sink.finish();
    assert_eq!(data.runs.len(), 1);
    let run = &data.runs[0];
    assert_eq!(run.dropped_samples, 0, "caps must not truncate this run");
    assert!(run.samples.len() > 2, "expected several sample windows");

    // Sum the per-window deltas the way a timeline consumer would; with
    // cumulative samples this telescopes to the final snapshot, which
    // must equal the folded run stats that run_metrics exports.
    let zero = SmSample::default();
    let mut prev = &zero;
    let mut issued = 0u64;
    let mut sched_stalls = 0u64;
    let mut serv_l1 = 0u64;
    let mut serv_dram = 0u64;
    let mut lhb_hits = 0u64;
    let mut l1_misses = 0u64;
    for s in &run.samples {
        let (c, p) = (&s.stats, &prev.stats);
        issued += c.issued_total() - p.issued_total();
        sched_stalls += c.stalls.total() - p.stalls.total();
        serv_l1 += c.services.l1 - p.services.l1;
        serv_dram += c.services.dram - p.services.dram;
        lhb_hits += c.lhb.hits - p.lhb.hits;
        l1_misses += c.mem.l1_misses - p.mem.l1_misses;
        prev = s;
    }
    let m = duplo_sim::results::run_metrics(&result);
    let get_u = |path: [&str; 2]| {
        m.get(path[0])
            .and_then(|o| o.get(path[1]))
            .and_then(Json::as_u64)
            .unwrap()
    };
    assert_eq!(issued, get_u(["issued", "total"]));
    assert_eq!(sched_stalls, get_u(["stalls", "sched_total"]));
    assert_eq!(serv_l1, get_u(["services", "l1"]));
    assert_eq!(serv_dram, get_u(["services", "dram"]));
    assert_eq!(lhb_hits, get_u(["lhb", "hits"]));
    assert_eq!(l1_misses, get_u(["cache", "l1_misses"]));
    assert!(lhb_hits > 0, "duplo run must hit the LHB");
    // The last sample is a snapshot of the whole run, folded across SMs
    // by the run's own fold: it equals the run's stats, high-water marks
    // included, except for the rename log, which samples do not copy.
    let last = run.samples.last().unwrap();
    assert_eq!(
        last.stats.mem.mshr_peak_occupancy,
        get_u(["mshr", "peak_occupancy"])
    );
    let mut folded = result.stats.clone();
    folded.rename_pairs.clear();
    assert_eq!(last.stats, folded);
}

#[test]
fn capped_buffers_report_drops() {
    let sink = TraceSink::new(
        TraceSpec {
            interval: 64,
            sample_cap: 2,
            span_cap: 1,
        },
        1,
    );
    let (kernel, cfg) = kernel_and_cfg();
    let sim = GpuSim::with_options(cfg, opts(1, Some(&sink)));
    sim.run(&kernel);
    sim.run(&kernel); // over run_cap: counted, not kept
    let data = sink.finish();
    assert_eq!(data.runs.len(), 1);
    assert_eq!(data.dropped_runs, 1);
    let run = &data.runs[0];
    assert!(run.dropped_samples > 0, "sample_cap=2 must overflow");
    assert!(
        run.dropped_spans > 0,
        "span_cap=1 with 2 CTAs must overflow"
    );
    // The final (cap-exempt) sample still closes the timeline.
    assert!(run.samples.last().unwrap().cycle > 0);
    let doc = duplo_sim::json::parse(&export(&data)).unwrap();
    let dropped = doc.get("dropped").unwrap();
    let dget = |k: &str| dropped.get(k).and_then(Json::as_u64).unwrap();
    assert_eq!(dget("runs"), 1);
    assert!(dget("samples") > 0);
    assert!(dget("cta_spans") > 0);
}

#[test]
fn tracing_does_not_perturb_results() {
    let (kernel, cfg) = kernel_and_cfg();
    let plain = GpuSim::with_options(cfg.clone(), opts(2, None)).run(&kernel);
    let sink = TraceSink::new(TraceSpec::default(), DEFAULT_RUN_CAP);
    let traced = GpuSim::with_options(cfg, opts(2, Some(&sink))).run(&kernel);
    assert_eq!(sink.finish().runs.len(), 1);
    assert_eq!(
        format!("{plain:?}"),
        format!("{traced:?}"),
        "the traced path must produce the identical result"
    );
}

#[test]
fn cache_hits_are_recorded_without_timeline() {
    // Memory tier only (no disk directory), cache on: the second run must
    // be served from cache and still appear in the trace as a
    // timeline-less record. The other tests here run uncached, so they
    // never publish this key.
    let sink = TraceSink::new(TraceSpec::default(), DEFAULT_RUN_CAP);
    let (kernel, cfg) = kernel_and_cfg();
    let sim = GpuSim::with_options(
        cfg,
        RunOptions {
            no_cache: false,
            ..opts(1, Some(&sink))
        },
    );
    let first = sim.run(&kernel);
    let second = sim.run(&kernel);
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
    let data = sink.finish();
    assert_eq!(data.runs.len(), 2);
    let hits: Vec<_> = data.runs.iter().filter(|r| r.cache_hit).collect();
    let misses: Vec<_> = data.runs.iter().filter(|r| !r.cache_hit).collect();
    assert_eq!(hits.len(), 1);
    assert_eq!(misses.len(), 1);
    assert!(hits[0].samples.is_empty(), "cache hits carry no timeline");
    assert!(!misses[0].samples.is_empty());
    assert_eq!(hits[0].cycles, misses[0].cycles);
}
