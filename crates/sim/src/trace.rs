//! Cycle-resolved tracing with Perfetto-compatible export.
//!
//! This module collects, aggregates, and exports the per-SM timelines
//! recorded by `duplo-sm` ([`duplo_sm::SmTraceData`]) into a single
//! Chrome trace-event JSON document loadable in Perfetto or
//! `chrome://tracing`.
//!
//! # Lifecycle
//!
//! A run opts into tracing by carrying a [`TraceSink`] in
//! [`crate::RunOptions::trace_sink`] (the CLI builds one for
//! `duplo run --trace <path>` / `DUPLO_TRACE`). [`crate::GpuSim::run`] then
//! records each simulated kernel's per-SM timelines, aggregated
//! (deterministically, in `sm_id` order) into one [`RunRecord`], and a
//! timeline-less record for each kernel served from the run cache.
//! [`TraceSink::finish`] returns the collected [`TraceData`] for export.
//! The sink belongs to the run, not the process: runs without one record
//! nothing, even while a traced run is in flight next to them, and the
//! only cost of tracing off is one branch per SM tick.
//!
//! # Determinism
//!
//! Exported documents are byte-identical at any thread count:
//!
//! * per-SM samples are folded index-wise in `sm_id` order (sum for
//!   counters, max for high-water marks), mirroring the order-stable stat
//!   fold in [`crate::gpu`];
//! * finished [`RunRecord`]s are sorted by `(kernel, key)` before export,
//!   so the completion order of parallel experiment drivers cannot leak
//!   into the document.
//!
//! # Bounded buffers
//!
//! Every buffer is hard-capped (runs, per-SM samples, CTA spans).
//! Overflow increments a dropped counter that is exported in the
//! document's `dropped` block — never silently truncated.

use std::fmt;
use std::sync::{Arc, Mutex};

use duplo_isa::Kernel;
pub use duplo_sm::{CtaSpan, SmSample, SmTraceData, TraceSpec};

use crate::gpu::{GpuConfig, GpuRunResult};
use crate::json::Json;

/// Version of the exported trace document layout.
/// v2: per-sample `slices` counter track (slice backlog max/sum + hottest
/// slice index) for Perfetto slice-camping visibility. v3: the host-span
/// lane (`pid 0`) and its `dropped.host_events` count are gone.
pub const TRACE_FORMAT_VERSION: u64 = 3;

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// Session-wide tracing parameters.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TraceOptions {
    /// Cycles between interval samples (default 1024).
    pub interval: u64,
    /// Per-SM CTA-span cap (see [`TraceSpec::span_cap`]).
    pub span_cap: usize,
    /// Per-SM periodic-sample cap (see [`TraceSpec::sample_cap`]).
    pub sample_cap: usize,
    /// Maximum simulated-run records kept in a session.
    pub run_cap: usize,
}

impl Default for TraceOptions {
    fn default() -> TraceOptions {
        let spec = TraceSpec::default();
        TraceOptions {
            interval: spec.interval,
            span_cap: spec.span_cap,
            sample_cap: spec.sample_cap,
            run_cap: 4096,
        }
    }
}

impl TraceOptions {
    /// The per-SM recording spec these options imply.
    pub fn spec(&self) -> TraceSpec {
        TraceSpec {
            interval: self.interval,
            span_cap: self.span_cap,
            sample_cap: self.sample_cap,
        }
    }
}

// ---------------------------------------------------------------------------
// Bounded ring
// ---------------------------------------------------------------------------

/// An append-only bounded buffer that counts overflow instead of silently
/// truncating: once `cap` items are held, further pushes increment
/// [`Ring::dropped`] and are discarded.
#[derive(Clone, Debug)]
pub struct Ring<T> {
    cap: usize,
    items: Vec<T>,
    dropped: u64,
}

impl<T> Ring<T> {
    /// Creates an empty ring holding at most `cap` items.
    pub fn new(cap: usize) -> Ring<T> {
        Ring {
            cap,
            items: Vec::new(),
            dropped: 0,
        }
    }

    /// Appends `item`, or counts it as dropped when full.
    pub fn push(&mut self, item: T) {
        if self.items.len() >= self.cap {
            self.dropped += 1;
        } else {
            self.items.push(item);
        }
    }

    /// Items currently held.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Number of items discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the ring into `(items, dropped)`.
    pub fn into_parts(self) -> (Vec<T>, u64) {
        (self.items, self.dropped)
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One `GpuSim::run` of a run carrying a [`TraceSink`].
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Kernel name.
    pub kernel: String,
    /// Hex run-cache key of the (config, kernel) point — the stable sort
    /// key distinguishing repeats of one kernel under different configs.
    pub key: String,
    /// Whether the run was served from the run cache (no timeline then).
    pub cache_hit: bool,
    /// Scaled cycle estimate ([`crate::GpuRunResult::cycles`]).
    pub cycles: f64,
    /// CTAs simulated.
    pub ctas_simulated: usize,
    /// Sampling interval of `samples`.
    pub interval: u64,
    /// Aggregated (across simulated SMs) cumulative samples; the last
    /// entry equals the end-of-run totals.
    pub samples: Vec<SmSample>,
    /// CTA spans, tagged with the simulated SM id that ran them.
    pub cta_spans: Vec<(u64, CtaSpan)>,
    /// Per-SM periodic samples dropped at the cap, summed.
    pub dropped_samples: u64,
    /// Per-SM CTA spans dropped at the cap, summed.
    pub dropped_spans: u64,
}

/// Everything a finished session collected.
#[derive(Clone, Debug)]
pub struct TraceData {
    /// The options the session ran under.
    pub options: TraceOptions,
    /// Run records, sorted by `(kernel, key)` for deterministic export.
    pub runs: Vec<RunRecord>,
    /// Runs dropped at [`TraceOptions::run_cap`].
    pub dropped_runs: u64,
}

// ---------------------------------------------------------------------------
// Run-scoped sink
// ---------------------------------------------------------------------------

struct SinkInner {
    opts: TraceOptions,
    runs: Mutex<Ring<RunRecord>>,
}

/// A trace collector for the runs that carry it in
/// [`crate::RunOptions::trace_sink`]. Clones share one buffer; equality is
/// identity (which keeps [`crate::RunOptions`]'s `PartialEq` honest), and
/// a sink is never part of a cache key.
#[derive(Clone)]
pub struct TraceSink(Arc<SinkInner>);

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("options", &self.0.opts)
            .finish()
    }
}

impl PartialEq for TraceSink {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl TraceSink {
    /// An empty sink collecting under `opts`.
    pub fn new(opts: TraceOptions) -> TraceSink {
        TraceSink(Arc::new(SinkInner {
            opts,
            runs: Mutex::new(Ring::new(opts.run_cap)),
        }))
    }

    /// The options this sink collects under.
    pub fn options(&self) -> TraceOptions {
        self.0.opts
    }

    fn record_run(&self, rec: RunRecord) {
        self.0
            .runs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(rec);
    }

    /// Records one `GpuSim::run` of `kernel` under `cfg`: its per-SM
    /// `timelines` (in `sm_id` order) when it simulated, or a
    /// timeline-less `cache_hit` record when `timelines` is `None`.
    pub(crate) fn record(
        &self,
        kernel: &dyn Kernel,
        cfg: &GpuConfig,
        result: &GpuRunResult,
        timelines: Option<Vec<(u64, SmTraceData)>>,
    ) {
        let key = crate::digest::hex(crate::cache::run_key(cfg, kernel));
        let interval = self.0.opts.interval;
        let mut rec = RunRecord {
            kernel: kernel.name().to_string(),
            key,
            cache_hit: timelines.is_none(),
            cycles: result.cycles,
            ctas_simulated: result.ctas_simulated,
            interval,
            samples: Vec::new(),
            cta_spans: Vec::new(),
            dropped_samples: 0,
            dropped_spans: 0,
        };
        match timelines {
            None => crate::log::debug(
                "trace",
                format_args!("{}: cache hit, no timeline recorded", rec.kernel),
            ),
            Some(timelines) => {
                let refs: Vec<&SmTraceData> = timelines.iter().map(|(_, t)| t).collect();
                (rec.samples, rec.dropped_samples) = aggregate_samples(&refs, interval);
                for (sm, t) in &timelines {
                    rec.dropped_spans += t.dropped_spans;
                    rec.cta_spans
                        .extend(t.cta_spans.iter().map(|&span| (*sm, span)));
                }
                crate::log::debug(
                    "trace",
                    format_args!(
                        "{}: {} samples, {} cta spans ({} SMs)",
                        rec.kernel,
                        rec.samples.len(),
                        rec.cta_spans.len(),
                        timelines.len()
                    ),
                );
            }
        }
        self.record_run(rec);
    }

    /// Takes everything collected so far (the sink starts over empty),
    /// with the runs sorted for a deterministic export.
    pub fn finish(&self) -> TraceData {
        let ring = std::mem::replace(
            &mut *self.0.runs.lock().unwrap_or_else(|e| e.into_inner()),
            Ring::new(self.0.opts.run_cap),
        );
        let (mut runs, dropped_runs) = ring.into_parts();
        // Deterministic export order: completion order of parallel drivers
        // must not leak into the document. Repeats of one (kernel, key) have
        // identical content, so ties are harmless.
        runs.sort_by(|a, b| (&a.kernel, &a.key).cmp(&(&b.kernel, &b.key)));
        // Mirror every dropped counter into the metrics registry so a capped
        // buffer is visible to a scrape, not only to whoever reads the export.
        let dropped_samples: u64 = runs.iter().map(|r| r.dropped_samples).sum();
        let dropped_spans: u64 = runs.iter().map(|r| r.dropped_spans).sum();
        dropped_gauge("runs").set(dropped_runs as i64);
        dropped_gauge("samples").set(dropped_samples as i64);
        dropped_gauge("cta_spans").set(dropped_spans as i64);
        TraceData {
            options: self.0.opts,
            runs,
            dropped_runs,
        }
    }
}

/// The `duplo_trace_dropped{kind=...}` gauge for one capped buffer kind
/// (value: drops in the most recently finished trace).
fn dropped_gauge(kind: &str) -> crate::metrics::Gauge {
    crate::metrics::volatile_gauge(
        &crate::metrics::labeled("duplo_trace_dropped", &[("kind", kind)]),
        "Trace-buffer entries dropped at a cap in the last session, by kind",
    )
}

// ---------------------------------------------------------------------------
// Per-SM aggregation
// ---------------------------------------------------------------------------

/// Adds `s`'s fields into `agg`: counters and live gauges sum (chip-wide
/// totals), high-water marks take the max (worst SM).
fn add_sample(agg: &mut SmSample, s: &SmSample) {
    agg.issued_mma += s.issued_mma;
    agg.issued_tensor_loads += s.issued_tensor_loads;
    agg.issued_other += s.issued_other;
    agg.stall_empty += s.stall_empty;
    agg.stall_data_dependency += s.stall_data_dependency;
    agg.stall_ldst_full += s.stall_ldst_full;
    agg.stall_tensor_busy += s.stall_tensor_busy;
    agg.stall_barrier += s.stall_barrier;
    agg.ldst_pipe_stalls += s.ldst_pipe_stalls;
    agg.lhb_hits += s.lhb_hits;
    agg.lhb_misses += s.lhb_misses;
    agg.serv_lhb += s.serv_lhb;
    agg.serv_l1 += s.serv_l1;
    agg.serv_l2 += s.serv_l2;
    agg.serv_dram += s.serv_dram;
    agg.serv_shared += s.serv_shared;
    agg.l1_hits += s.l1_hits;
    agg.l1_misses += s.l1_misses;
    agg.l2_accesses += s.l2_accesses;
    agg.dram_accesses += s.dram_accesses;
    agg.mshr_occupancy += s.mshr_occupancy;
    agg.mshr_peak = agg.mshr_peak.max(s.mshr_peak);
    agg.l2_backlog += s.l2_backlog;
    agg.dram_backlog += s.dram_backlog;
    agg.slice_backlog_sum += s.slice_backlog_sum;
    // The chip-wide hot slice is the one behind the worst per-SM backlog.
    if s.slice_backlog_max > agg.slice_backlog_max {
        agg.slice_backlog_max = s.slice_backlog_max;
        agg.hot_slice = s.hot_slice;
    }
}

/// Folds per-SM timelines (in `sm_id` order) into one aggregate timeline.
///
/// Periodic points are aligned index-wise — index `i` is cycle
/// `(i + 1) * interval` on every SM still running; an SM that finished
/// earlier contributes its frozen end-of-run sample. The aggregate closes
/// with a final sample at the slowest SM's end cycle whose counters equal
/// the summed end-of-run totals. Returns the timeline and the summed
/// dropped-sample count.
pub fn aggregate_samples(per_sm: &[&SmTraceData], interval: u64) -> (Vec<SmSample>, u64) {
    let periodic_len = |t: &SmTraceData| t.samples.len().saturating_sub(1);
    let max_periodic = per_sm.iter().map(|t| periodic_len(t)).max().unwrap_or(0);
    let mut out = Vec::with_capacity(max_periodic + 1);
    for i in 0..max_periodic {
        let mut agg = SmSample {
            cycle: (i as u64 + 1) * interval,
            ..SmSample::default()
        };
        for t in per_sm {
            let s = if i < periodic_len(t) {
                &t.samples[i]
            } else {
                match t.samples.last() {
                    Some(last) => last,
                    None => continue,
                }
            };
            add_sample(&mut agg, s);
        }
        out.push(agg);
    }
    let mut fin = SmSample::default();
    for t in per_sm {
        if let Some(last) = t.samples.last() {
            fin.cycle = fin.cycle.max(last.cycle);
            add_sample(&mut fin, last);
        }
    }
    out.push(fin);
    let dropped = per_sm.iter().map(|t| t.dropped_samples).sum();
    (out, dropped)
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

fn event_base(name: &str, ph: &str, pid: u64) -> crate::json::ObjBuilder {
    Json::obj()
        .field("name", name)
        .field("ph", ph)
        .field("pid", pid)
}

fn counter_event(name: &str, pid: u64, ts: u64, args: Json) -> Json {
    event_base(name, "C", pid)
        .field("ts", ts)
        .field("args", args)
        .build()
}

impl TraceData {
    /// Serializes the session as a Chrome trace-event document (object
    /// form, Perfetto-compatible). Timestamps are simulation cycles
    /// interpreted as microseconds. The top level carries
    /// `schema_version` so `json_check` accepts trace files, plus a
    /// `dropped` block accounting for every capped buffer.
    pub fn to_chrome_json(&self) -> Json {
        let mut events: Vec<Json> = Vec::new();
        let mut dropped_samples = 0u64;
        let mut dropped_spans = 0u64;
        for (idx, run) in self.runs.iter().enumerate() {
            let pid = idx as u64 + 1;
            dropped_samples += run.dropped_samples;
            dropped_spans += run.dropped_spans;
            events.push(
                event_base("process_name", "M", pid)
                    .field(
                        "args",
                        Json::obj()
                            .field("name", format!("{} [{}]", run.kernel, &run.key))
                            .build(),
                    )
                    .build(),
            );
            let end_cycle = run.samples.last().map_or(0, |s| s.cycle);
            events.push(
                event_base(run.kernel.as_str(), "X", pid)
                    .field("tid", 0u64)
                    .field("ts", 0u64)
                    .field("dur", end_cycle)
                    .field("cat", "kernel")
                    .field(
                        "args",
                        Json::obj()
                            .field("cycles", run.cycles)
                            .field("ctas_simulated", run.ctas_simulated)
                            .field("cache_hit", run.cache_hit)
                            .field("key", run.key.as_str())
                            .build(),
                    )
                    .build(),
            );
            if run.cache_hit {
                events.push(
                    event_base("cache hit", "i", pid)
                        .field("tid", 0u64)
                        .field("ts", 0u64)
                        .field("s", "p")
                        .build(),
                );
            }
            for &(sm, span) in &run.cta_spans {
                events.push(
                    event_base(&format!("cta {}", span.cta), "X", pid)
                        .field("tid", sm + 1)
                        .field("ts", span.begin)
                        .field("dur", span.end - span.begin)
                        .field("cat", "cta")
                        .build(),
                );
            }
            let mut prev = SmSample::default();
            for s in &run.samples {
                let window = s.cycle.saturating_sub(prev.cycle).max(1);
                let issued = (s.issued_mma - prev.issued_mma)
                    + (s.issued_tensor_loads - prev.issued_tensor_loads)
                    + (s.issued_other - prev.issued_other);
                let d_hits = s.lhb_hits - prev.lhb_hits;
                let d_misses = s.lhb_misses - prev.lhb_misses;
                let probes = d_hits + d_misses;
                let hit_rate = if probes == 0 {
                    0.0
                } else {
                    d_hits as f64 / probes as f64
                };
                events.push(counter_event(
                    "ipc",
                    pid,
                    s.cycle,
                    Json::obj()
                        .field("ipc", issued as f64 / window as f64)
                        .build(),
                ));
                events.push(counter_event(
                    "issue",
                    pid,
                    s.cycle,
                    Json::obj()
                        .field("mma", s.issued_mma - prev.issued_mma)
                        .field(
                            "tensor_loads",
                            s.issued_tensor_loads - prev.issued_tensor_loads,
                        )
                        .field("other", s.issued_other - prev.issued_other)
                        .build(),
                ));
                events.push(counter_event(
                    "stalls",
                    pid,
                    s.cycle,
                    Json::obj()
                        .field("empty", s.stall_empty - prev.stall_empty)
                        .field(
                            "data_dependency",
                            s.stall_data_dependency - prev.stall_data_dependency,
                        )
                        .field("ldst_full", s.stall_ldst_full - prev.stall_ldst_full)
                        .field("tensor_busy", s.stall_tensor_busy - prev.stall_tensor_busy)
                        .field("barrier", s.stall_barrier - prev.stall_barrier)
                        .field("ldst_pipe", s.ldst_pipe_stalls - prev.ldst_pipe_stalls)
                        .build(),
                ));
                events.push(counter_event(
                    "lhb",
                    pid,
                    s.cycle,
                    Json::obj()
                        .field("hits", d_hits)
                        .field("misses", d_misses)
                        .field("hit_rate", hit_rate)
                        .build(),
                ));
                events.push(counter_event(
                    "services",
                    pid,
                    s.cycle,
                    Json::obj()
                        .field("lhb", s.serv_lhb - prev.serv_lhb)
                        .field("l1", s.serv_l1 - prev.serv_l1)
                        .field("l2", s.serv_l2 - prev.serv_l2)
                        .field("dram", s.serv_dram - prev.serv_dram)
                        .field("shared", s.serv_shared - prev.serv_shared)
                        .build(),
                ));
                events.push(counter_event(
                    "mem",
                    pid,
                    s.cycle,
                    Json::obj()
                        .field("l1_hits", s.l1_hits - prev.l1_hits)
                        .field("l1_misses", s.l1_misses - prev.l1_misses)
                        .field("l2_accesses", s.l2_accesses - prev.l2_accesses)
                        .field("dram_accesses", s.dram_accesses - prev.dram_accesses)
                        .build(),
                ));
                events.push(counter_event(
                    "mshr",
                    pid,
                    s.cycle,
                    Json::obj()
                        .field("occupancy", s.mshr_occupancy)
                        .field("peak", s.mshr_peak)
                        .build(),
                ));
                events.push(counter_event(
                    "queues",
                    pid,
                    s.cycle,
                    Json::obj()
                        .field("l2_backlog", s.l2_backlog)
                        .field("dram_backlog", s.dram_backlog)
                        .build(),
                ));
                events.push(counter_event(
                    "slices",
                    pid,
                    s.cycle,
                    Json::obj()
                        .field("backlog_max", s.slice_backlog_max)
                        .field("backlog_sum", s.slice_backlog_sum)
                        .field("hot_slice", s.hot_slice)
                        .build(),
                ));
                prev = *s;
            }
        }
        Json::obj()
            .field("schema_version", crate::results::SCHEMA_VERSION)
            .field("kind", "duplo_trace")
            .field("trace_version", TRACE_FORMAT_VERSION)
            .field("interval", self.options.interval)
            .field(
                "dropped",
                Json::obj()
                    .field("runs", self.dropped_runs)
                    .field("samples", dropped_samples)
                    .field("cta_spans", dropped_spans)
                    .build(),
            )
            .field("traceEvents", Json::Arr(events))
            .build()
    }
}

// ---------------------------------------------------------------------------
// Summarize: phase table from an exported document
// ---------------------------------------------------------------------------

/// One reconstructed sample window of one run.
#[derive(Clone, Copy, Debug, Default)]
struct Window {
    start: u64,
    end: u64,
    issued: u64,
    stall_total: u64,
    lhb_hits: u64,
    lhb_misses: u64,
    serv_l1: u64,
    serv_l2: u64,
    serv_dram: u64,
    mshr_peak: u64,
    dram_backlog: f64,
}

fn merge_windows(ws: &[Window]) -> Window {
    let mut m = Window {
        start: ws.first().map_or(0, |w| w.start),
        end: ws.last().map_or(0, |w| w.end),
        ..Window::default()
    };
    for w in ws {
        m.issued += w.issued;
        m.stall_total += w.stall_total;
        m.lhb_hits += w.lhb_hits;
        m.lhb_misses += w.lhb_misses;
        m.serv_l1 += w.serv_l1;
        m.serv_l2 += w.serv_l2;
        m.serv_dram += w.serv_dram;
        m.mshr_peak = m.mshr_peak.max(w.mshr_peak);
        m.dram_backlog = m.dram_backlog.max(w.dram_backlog);
    }
    m
}

/// Renders a human-readable phase table from a parsed trace document
/// (as produced by [`TraceData::to_chrome_json`]), merging sample windows
/// into at most `max_phases` phases per run. Errors on documents that are
/// not Duplo traces.
pub fn summarize_chrome(doc: &Json, max_phases: usize) -> Result<String, String> {
    if doc.get("kind").and_then(Json::as_str) != Some("duplo_trace") {
        return Err("not a duplo trace document (missing kind=duplo_trace)".to_string());
    }
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let interval = doc.get("interval").and_then(Json::as_u64).unwrap_or(0);
    let max_phases = max_phases.max(1);

    // pid -> (name, kernel-span args, windows keyed by ts).
    let mut pids: Vec<u64> = Vec::new();
    let mut names: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
    let mut kernels: std::collections::HashMap<u64, Json> = std::collections::HashMap::new();
    let mut windows: std::collections::HashMap<u64, Vec<(u64, Window)>> =
        std::collections::HashMap::new();
    for ev in events {
        let Some(pid) = ev.get("pid").and_then(Json::as_u64) else {
            continue;
        };
        if !pids.contains(&pid) {
            pids.push(pid);
        }
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
        match ph {
            "M" if name == "process_name" => {
                if let Some(n) = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                {
                    names.insert(pid, n.to_string());
                }
            }
            "X" if ev.get("cat").and_then(Json::as_str) == Some("kernel") => {
                kernels.insert(pid, ev.clone());
            }
            "C" => {
                let Some(ts) = ev.get("ts").and_then(Json::as_u64) else {
                    continue;
                };
                let rows = windows.entry(pid).or_default();
                let w = match rows.iter_mut().find(|(t, _)| *t == ts) {
                    Some((_, w)) => w,
                    None => {
                        rows.push((ts, Window::default()));
                        &mut rows.last_mut().expect("just pushed").1
                    }
                };
                w.end = ts;
                let args = ev.get("args");
                let au = |k: &str| args.and_then(|a| a.get(k)).and_then(Json::as_u64);
                let af = |k: &str| args.and_then(|a| a.get(k)).and_then(Json::as_f64);
                match name {
                    "issue" => {
                        w.issued += au("mma").unwrap_or(0)
                            + au("tensor_loads").unwrap_or(0)
                            + au("other").unwrap_or(0);
                    }
                    "stalls" => {
                        w.stall_total += au("empty").unwrap_or(0)
                            + au("data_dependency").unwrap_or(0)
                            + au("ldst_full").unwrap_or(0)
                            + au("tensor_busy").unwrap_or(0)
                            + au("barrier").unwrap_or(0);
                    }
                    "lhb" => {
                        w.lhb_hits += au("hits").unwrap_or(0);
                        w.lhb_misses += au("misses").unwrap_or(0);
                    }
                    "services" => {
                        w.serv_l1 += au("l1").unwrap_or(0);
                        w.serv_l2 += au("l2").unwrap_or(0);
                        w.serv_dram += au("dram").unwrap_or(0);
                    }
                    "mshr" => w.mshr_peak = w.mshr_peak.max(au("peak").unwrap_or(0)),
                    "queues" => {
                        w.dram_backlog = w.dram_backlog.max(af("dram_backlog").unwrap_or(0.0));
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    let mut out = String::new();
    let dropped = doc.get("dropped");
    let dget = |k: &str| {
        dropped
            .and_then(|d| d.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    out.push_str(&format!(
        "trace: {} run(s), interval {} cycles\n",
        pids.len(),
        interval
    ));
    let total_dropped = dget("runs") + dget("samples") + dget("cta_spans");
    if total_dropped > 0 {
        out.push_str(&format!(
            "WARNING: {total_dropped} trace event(s) were dropped at a buffer cap — \
             this summary UNDER-REPORTS the run.\n\
             WARNING: dropped: runs={} samples={} cta_spans={} \
             (raise the caps or the sample interval and re-trace)\n",
            dget("runs"),
            dget("samples"),
            dget("cta_spans")
        ));
    }
    for &pid in &pids {
        let unknown = format!("pid {pid}");
        let name = names.get(&pid).cloned().unwrap_or(unknown);
        out.push('\n');
        out.push_str(&format!("run {name}\n"));
        if let Some(k) = kernels.get(&pid) {
            let args = k.get("args");
            let cycles = args
                .and_then(|a| a.get("cycles"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let ctas = args
                .and_then(|a| a.get("ctas_simulated"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            let hit = args.and_then(|a| a.get("cache_hit")) == Some(&Json::Bool(true));
            out.push_str(&format!(
                "  cycles={cycles}  ctas={ctas}  cache_hit={hit}\n"
            ));
        }
        let mut rows = windows.remove(&pid).unwrap_or_default();
        rows.sort_by_key(|&(ts, _)| ts);
        if rows.is_empty() {
            out.push_str("  (no timeline: served from cache)\n");
            continue;
        }
        // Windows carry their end ts; the start is the previous end.
        let mut ws: Vec<Window> = Vec::with_capacity(rows.len());
        let mut prev_end = 0u64;
        for (_, mut w) in rows {
            w.start = prev_end;
            prev_end = w.end;
            ws.push(w);
        }
        let chunk = ws.len().div_ceil(max_phases);
        out.push_str(&format!(
            "  {:<5} {:>16} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>12}\n",
            "phase", "cycles", "ipc", "lhb_hit%", "l1", "l2", "dram", "mshr_pk", "dram_backlog"
        ));
        for (i, group) in ws.chunks(chunk.max(1)).enumerate() {
            let m = merge_windows(group);
            let span = m.end.saturating_sub(m.start).max(1);
            let probes = m.lhb_hits + m.lhb_misses;
            let hit_pct = if probes == 0 {
                0.0
            } else {
                100.0 * m.lhb_hits as f64 / probes as f64
            };
            out.push_str(&format!(
                "  {:<5} {:>16} {:>7.3} {:>8.1} {:>8} {:>8} {:>8} {:>8} {:>12.1}\n",
                i + 1,
                format!("{}..{}", m.start, m.end),
                m.issued as f64 / span as f64,
                hit_pct,
                m.serv_l1,
                m.serv_l2,
                m.serv_dram,
                m.mshr_peak,
                m.dram_backlog,
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_counts_drops_instead_of_truncating_silently() {
        let mut r: Ring<u32> = Ring::new(3);
        for i in 0..10 {
            r.push(i);
        }
        assert_eq!(r.items(), &[0, 1, 2]);
        assert_eq!(r.dropped(), 7);
        let (items, dropped) = r.into_parts();
        assert_eq!(items.len(), 3);
        assert_eq!(dropped, 7);
    }

    #[test]
    fn aggregate_holds_finished_sms_and_closes_on_totals() {
        // SM 0: two periodic samples + final; SM 1: finishes early (final
        // only). The aggregate must hold SM 1's totals through later
        // periodic points and close on the sum of finals.
        let mk = |cycle, other, peak| SmSample {
            cycle,
            issued_other: other,
            mshr_peak: peak,
            ..SmSample::default()
        };
        let sm0 = SmTraceData {
            interval: 10,
            samples: vec![mk(10, 5, 2), mk(20, 9, 3), mk(25, 11, 3)],
            ..SmTraceData::default()
        };
        let sm1 = SmTraceData {
            interval: 10,
            samples: vec![mk(7, 4, 5)],
            ..SmTraceData::default()
        };
        let (agg, dropped) = aggregate_samples(&[&sm0, &sm1], 10);
        assert_eq!(dropped, 0);
        assert_eq!(agg.len(), 3); // two periodic points + final
        assert_eq!(agg[0].cycle, 10);
        assert_eq!(agg[0].issued_other, 5 + 4);
        assert_eq!(agg[1].cycle, 20);
        assert_eq!(agg[1].issued_other, 9 + 4);
        let fin = agg.last().unwrap();
        assert_eq!(fin.cycle, 25);
        assert_eq!(fin.issued_other, 11 + 4);
        assert_eq!(fin.mshr_peak, 5, "high-water marks fold with max");
    }

    #[test]
    fn capture_finish_roundtrip_with_sorting() {
        let sink = TraceSink::new(TraceOptions {
            run_cap: 2,
            ..TraceOptions::default()
        });
        let rec = |kernel: &str, key: &str| RunRecord {
            kernel: kernel.to_string(),
            key: key.to_string(),
            cache_hit: false,
            cycles: 1.0,
            ctas_simulated: 1,
            interval: 1024,
            samples: vec![],
            cta_spans: vec![],
            dropped_samples: 0,
            dropped_spans: 0,
        };
        sink.record_run(rec("zeta", "00"));
        sink.record_run(rec("alpha", "ff"));
        sink.record_run(rec("alpha", "aa")); // over run_cap: dropped
        let data = sink.finish();
        assert_eq!(data.dropped_runs, 1);
        let order: Vec<&str> = data.runs.iter().map(|r| r.kernel.as_str()).collect();
        assert_eq!(order, ["alpha", "zeta"], "export order is (kernel, key)");
        // Finishing empties the sink.
        assert!(sink.finish().runs.is_empty());
    }

    #[test]
    fn chrome_export_is_valid_and_summarizable() {
        let mk = |cycle, other, hits, misses| SmSample {
            cycle,
            issued_other: other,
            lhb_hits: hits,
            lhb_misses: misses,
            ..SmSample::default()
        };
        let data = TraceData {
            options: TraceOptions::default(),
            runs: vec![RunRecord {
                kernel: "k".to_string(),
                key: "deadbeef".to_string(),
                cache_hit: false,
                cycles: 2048.0,
                ctas_simulated: 2,
                interval: 1024,
                samples: vec![mk(1024, 100, 30, 10), mk(2048, 250, 80, 20)],
                cta_spans: vec![(
                    0,
                    duplo_sm::CtaSpan {
                        cta: 0,
                        begin: 1,
                        end: 2000,
                    },
                )],
                dropped_samples: 0,
                dropped_spans: 0,
            }],
            dropped_runs: 0,
        };
        let doc = data.to_chrome_json();
        // Round-trips through the strict in-tree parser.
        let parsed = crate::json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(crate::results::SCHEMA_VERSION)
        );
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(events.len() >= 2 + 2 * 8, "metadata + span + counters");
        let table = summarize_chrome(&doc, 16).unwrap();
        assert!(table.contains("run k [deadbeef]"), "table:\n{table}");
        assert!(table.contains("phase"), "table:\n{table}");
        // Not-a-trace documents are rejected.
        let bogus = Json::obj().field("schema_version", 2u64).build();
        assert!(summarize_chrome(&bogus, 16).is_err());
    }

    #[test]
    fn summarize_warns_loudly_about_dropped_events() {
        let data = TraceData {
            options: TraceOptions::default(),
            runs: vec![],
            dropped_runs: 3,
        };
        let table = summarize_chrome(&data.to_chrome_json(), 16).unwrap();
        assert!(table.contains("WARNING"), "table:\n{table}");
        assert!(table.contains("UNDER-REPORTS"), "table:\n{table}");
        assert!(table.contains("runs=3"), "table:\n{table}");
    }
}
