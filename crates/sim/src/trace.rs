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
//! * per-SM samples are folded index-wise in `sm_id` order by
//!   [`SmSample::accumulate`], whose stats fold is the one that folds a
//!   run's per-SM results ([`duplo_sm::SmStats::accumulate`]);
//! * finished [`RunRecord`]s are sorted by `(kernel, key)` before export,
//!   so the completion order of parallel experiment drivers cannot leak
//!   into the document.
//!
//! # Bounded buffers
//!
//! Every buffer is hard-capped (runs, per-SM samples, CTA spans).
//! Overflow increments a dropped counter that is exported in the
//! document's `dropped` block — never silently truncated.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use duplo_isa::Kernel;
pub use duplo_sm::{CtaSpan, SmGauges, SmSample, SmTraceData, TraceSpec};

use crate::gpu::{GpuConfig, GpuRunResult};
use crate::json::Json;

/// Version of the exported trace document layout.
/// v2: per-sample `slices` counter track (slice backlog max/sum + hottest
/// slice index) for Perfetto slice-camping visibility. v3: the host-span
/// lane (`pid 0`) and its `dropped.host_events` count are gone.
pub const TRACE_FORMAT_VERSION: u64 = 3;

/// Run records a [`TraceSink`] keeps by default before it counts further
/// runs as dropped.
pub const DEFAULT_RUN_CAP: usize = 4096;

// ---------------------------------------------------------------------------
// Bounded ring
// ---------------------------------------------------------------------------

/// An append-only bounded buffer that counts overflow instead of silently
/// truncating: once `cap` items are held, further pushes are discarded
/// and counted as dropped.
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
    /// Aggregated (across simulated SMs) cumulative samples; the last
    /// entry's stats equal the run's folded stats apart from the rename
    /// log.
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
    /// Cycles between samples, for every run.
    pub interval: u64,
    /// Run records, sorted by `(kernel, key)` for deterministic export.
    pub runs: Vec<RunRecord>,
    /// Runs dropped at the sink's run cap.
    pub dropped_runs: u64,
}

// ---------------------------------------------------------------------------
// Run-scoped sink
// ---------------------------------------------------------------------------

struct SinkInner {
    spec: TraceSpec,
    runs: Mutex<Ring<RunRecord>>,
}

/// A trace collector for the runs that carry it in
/// [`crate::RunOptions::trace_sink`]. Clones share one buffer, and a sink
/// is never part of a cache key.
#[derive(Clone)]
pub struct TraceSink(Arc<SinkInner>);

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("spec", &self.0.spec)
            .finish()
    }
}

impl TraceSink {
    /// An empty sink recording every SM per `spec` and keeping at most
    /// `run_cap` run records ([`DEFAULT_RUN_CAP`] outside tests).
    pub fn new(spec: TraceSpec, run_cap: usize) -> TraceSink {
        TraceSink(Arc::new(SinkInner {
            spec,
            runs: Mutex::new(Ring::new(run_cap)),
        }))
    }

    /// The sink a run's `trace_interval` asks for ([`TraceSpec`]'s default
    /// interval when `None`), keeping [`DEFAULT_RUN_CAP`] runs.
    pub fn for_interval(interval: Option<u64>) -> TraceSink {
        let spec = TraceSpec::default();
        let interval = interval.unwrap_or(spec.interval);
        TraceSink::new(TraceSpec { interval, ..spec }, DEFAULT_RUN_CAP)
    }

    /// The per-SM recording spec of this sink.
    pub fn spec(&self) -> TraceSpec {
        self.0.spec
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
        let mut rec = RunRecord {
            kernel: kernel.name().to_string(),
            key,
            cache_hit: timelines.is_none(),
            cycles: result.cycles,
            ctas_simulated: result.ctas_simulated,
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
                (rec.samples, rec.dropped_samples) = aggregate_samples(&refs, self.0.spec.interval);
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
        let (mut runs, dropped_runs) = {
            let mut ring = self.0.runs.lock().unwrap_or_else(|e| e.into_inner());
            let cap = ring.cap;
            std::mem::replace(&mut *ring, Ring::new(cap)).into_parts()
        };
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
            interval: self.0.spec.interval,
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

/// Folds per-SM timelines (in `sm_id` order) into one aggregate timeline.
///
/// Periodic points are aligned index-wise — index `i` is cycle
/// `(i + 1) * interval` on every SM still running; an SM that finished
/// earlier contributes its frozen end-of-run sample. The aggregate closes
/// with a final sample at the slowest SM's end cycle, folded from the
/// per-SM final samples the way the run's result is folded. Returns the timeline and the summed
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
        // Past its periodic samples, an SM holds its final one.
        for s in per_sm
            .iter()
            .filter_map(|t| t.samples.get(i.min(periodic_len(t))))
        {
            agg.accumulate(s);
        }
        out.push(agg);
    }
    let mut fin = SmSample::default();
    for last in per_sm.iter().filter_map(|t| t.samples.last()) {
        fin.cycle = fin.cycle.max(last.cycle);
        fin.accumulate(last);
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

/// A counter event's args: named counts.
fn counts(fields: &[(&str, u64)]) -> Json {
    fields
        .iter()
        .fold(Json::obj(), |o, &(k, v)| o.field(k, v))
        .build()
}

impl TraceData {
    /// Writes the session as a Chrome trace-event document (object form,
    /// Perfetto-compatible) and returns the number of events written.
    /// Timestamps are simulation cycles interpreted as microseconds. The
    /// top level carries `schema_version` so `json_check` accepts trace
    /// files, plus a `dropped` block accounting for every capped buffer.
    /// Events are rendered and written one at a time, so memory stays flat
    /// however long the timeline; the bytes are those of the whole
    /// document through [`Json::to_pretty`].
    pub fn write_chrome(&self, out: &mut impl Write) -> io::Result<usize> {
        let dropped_samples: u64 = self.runs.iter().map(|r| r.dropped_samples).sum();
        let dropped_spans: u64 = self.runs.iter().map(|r| r.dropped_spans).sum();
        let head = [
            ("schema_version", Json::from(crate::results::SCHEMA_VERSION)),
            ("kind", Json::from("duplo_trace")),
            ("trace_version", Json::from(TRACE_FORMAT_VERSION)),
            ("interval", Json::from(self.interval)),
            (
                "dropped",
                Json::obj()
                    .field("runs", self.dropped_runs)
                    .field("samples", dropped_samples)
                    .field("cta_spans", dropped_spans)
                    .build(),
            ),
        ];
        let mut buf = String::from("{");
        for (key, v) in &head {
            buf.push_str(&format!("\n  \"{key}\": "));
            v.write_pretty(&mut buf, 1);
            buf.push(',');
        }
        buf.push_str("\n  \"traceEvents\": [");
        out.write_all(buf.as_bytes())?;
        let mut written = 0;
        let mut emit = |event: Json| {
            buf.clear();
            buf.push_str(if written == 0 { "\n    " } else { ",\n    " });
            event.write_pretty(&mut buf, 2);
            written += 1;
            out.write_all(buf.as_bytes())
        };
        for (idx, run) in self.runs.iter().enumerate() {
            let pid = idx as u64 + 1;
            emit(
                event_base("process_name", "M", pid)
                    .field(
                        "args",
                        Json::obj()
                            .field("name", format!("{} [{}]", run.kernel, &run.key))
                            .build(),
                    )
                    .build(),
            )?;
            let end_cycle = run.samples.last().map_or(0, |s| s.cycle);
            emit(
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
            )?;
            if run.cache_hit {
                emit(
                    event_base("cache hit", "i", pid)
                        .field("tid", 0u64)
                        .field("ts", 0u64)
                        .field("s", "p")
                        .build(),
                )?;
            }
            for &(sm, span) in &run.cta_spans {
                emit(
                    event_base(&format!("cta {}", span.cta), "X", pid)
                        .field("tid", sm + 1)
                        .field("ts", span.begin)
                        .field("dur", span.end - span.begin)
                        .field("cat", "cta")
                        .build(),
                )?;
            }
            let zero = SmSample::default();
            let mut prev = &zero;
            for s in &run.samples {
                let (c, p, g) = (&s.stats, &prev.stats, &s.gauges);
                let window = s.cycle.saturating_sub(prev.cycle).max(1);
                let issued = c.issued_total() - p.issued_total();
                let d_hits = c.lhb.hits - p.lhb.hits;
                let d_misses = c.lhb.misses - p.lhb.misses;
                let probes = d_hits + d_misses;
                let hit_rate = if probes == 0 {
                    0.0
                } else {
                    d_hits as f64 / probes as f64
                };
                let (cs, ps) = (&c.stalls, &p.stalls);
                let (cv, pv) = (&c.services, &p.services);
                let (cm, pm) = (&c.mem, &p.mem);
                let tracks = [
                    (
                        "ipc",
                        Json::obj()
                            .field("ipc", issued as f64 / window as f64)
                            .build(),
                    ),
                    (
                        "issue",
                        counts(&[
                            ("mma", c.issued_mma - p.issued_mma),
                            (
                                "tensor_loads",
                                c.issued_tensor_loads - p.issued_tensor_loads,
                            ),
                            ("other", c.issued_other - p.issued_other),
                        ]),
                    ),
                    (
                        "stalls",
                        counts(&[
                            ("empty", cs.empty - ps.empty),
                            ("data_dependency", cs.data_dependency - ps.data_dependency),
                            ("ldst_full", cs.ldst_full - ps.ldst_full),
                            ("tensor_busy", cs.tensor_busy - ps.tensor_busy),
                            ("barrier", cs.barrier - ps.barrier),
                            ("ldst_pipe", c.ldst_pipe_stalls - p.ldst_pipe_stalls),
                        ]),
                    ),
                    (
                        "lhb",
                        Json::obj()
                            .field("hits", d_hits)
                            .field("misses", d_misses)
                            .field("hit_rate", hit_rate)
                            .build(),
                    ),
                    (
                        "services",
                        counts(&[
                            ("lhb", cv.lhb - pv.lhb),
                            ("l1", cv.l1 - pv.l1),
                            ("l2", cv.l2 - pv.l2),
                            ("dram", cv.dram - pv.dram),
                            ("shared", cv.shared - pv.shared),
                        ]),
                    ),
                    (
                        "mem",
                        counts(&[
                            ("l1_hits", cm.l1_hits - pm.l1_hits),
                            ("l1_misses", cm.l1_misses - pm.l1_misses),
                            ("l2_accesses", cm.l2_accesses - pm.l2_accesses),
                            ("dram_accesses", cm.dram_accesses - pm.dram_accesses),
                        ]),
                    ),
                    (
                        "mshr",
                        counts(&[
                            ("occupancy", g.mshr_occupancy),
                            ("peak", cm.mshr_peak_occupancy),
                        ]),
                    ),
                    (
                        "queues",
                        Json::obj()
                            .field("l2_backlog", g.l2_backlog)
                            .field("dram_backlog", g.dram_backlog)
                            .build(),
                    ),
                    (
                        "slices",
                        Json::obj()
                            .field("backlog_max", g.slice_backlog_max)
                            .field("backlog_sum", g.slice_backlog_sum)
                            .field("hot_slice", g.hot_slice)
                            .build(),
                    ),
                ];
                for (name, args) in tracks {
                    emit(counter_event(name, pid, s.cycle, args))?;
                }
                prev = s;
            }
        }
        if written == 0 {
            out.write_all(b"]\n}\n")?;
        } else {
            out.write_all(b"\n  ]\n}\n")?;
        }
        Ok(written)
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

/// The events of one pid that the phase table reads.
#[derive(Default)]
struct RunEvents<'a> {
    /// The `process_name` metadata.
    name: Option<String>,
    /// The kernel span, whose args carry the run's totals.
    kernel: Option<&'a Json>,
    /// Sample windows keyed by their end timestamp.
    windows: BTreeMap<u64, Window>,
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
/// (as written by [`TraceData::write_chrome`]), merging sample windows
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

    // One entry per pid, in first-appearance order: its name, its kernel
    // span, and its windows keyed by end timestamp.
    let mut runs: Vec<(u64, RunEvents)> = Vec::new();
    let mut run_index: HashMap<u64, usize> = HashMap::new();
    for ev in events {
        let Some(pid) = ev.get("pid").and_then(Json::as_u64) else {
            continue;
        };
        let idx = *run_index.entry(pid).or_insert_with(|| {
            runs.push((pid, RunEvents::default()));
            runs.len() - 1
        });
        let run = &mut runs[idx].1;
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
        match ph {
            "M" if name == "process_name" => {
                if let Some(n) = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                {
                    run.name = Some(n.to_string());
                }
            }
            "X" if ev.get("cat").and_then(Json::as_str) == Some("kernel") => {
                run.kernel = Some(ev);
            }
            "C" => {
                let Some(ts) = ev.get("ts").and_then(Json::as_u64) else {
                    continue;
                };
                let w = run.windows.entry(ts).or_default();
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
        runs.len(),
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
    for (pid, run) in runs {
        let name = run.name.unwrap_or_else(|| format!("pid {pid}"));
        out.push('\n');
        out.push_str(&format!("run {name}\n"));
        if let Some(k) = run.kernel {
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
        if run.windows.is_empty() {
            out.push_str("  (no timeline: served from cache)\n");
            continue;
        }
        // Windows carry their end ts; the start is the previous end.
        let mut ws: Vec<Window> = Vec::with_capacity(run.windows.len());
        let mut prev_end = 0u64;
        for mut w in run.windows.into_values() {
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
    use duplo_core::LhbStats;
    use duplo_mem::MemStats;
    use duplo_sm::SmStats;

    /// The written document, parsed back, and its text.
    fn export(data: &TraceData) -> (Json, String) {
        let mut bytes = Vec::new();
        let events = data.write_chrome(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let doc = crate::json::parse(&text).expect("the export parses");
        let listed = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(
            listed.len(),
            events,
            "the returned count is the events written"
        );
        (doc, text)
    }

    #[test]
    fn ring_counts_drops_instead_of_truncating_silently() {
        let mut r: Ring<u32> = Ring::new(3);
        for i in 0..10 {
            r.push(i);
        }
        let (items, dropped) = r.into_parts();
        assert_eq!(items, [0, 1, 2]);
        assert_eq!(dropped, 7);
    }

    #[test]
    fn aggregate_holds_finished_sms_and_closes_on_totals() {
        // SM 0: two periodic samples + final; SM 1: finishes early (final
        // only). The aggregate must hold SM 1's totals through later
        // periodic points and close on the sum of finals.
        let mk = |cycle, other, peak| SmSample {
            cycle,
            stats: SmStats {
                issued_other: other,
                mem: MemStats {
                    mshr_peak_occupancy: peak,
                    ..MemStats::default()
                },
                ..SmStats::default()
            },
            ..SmSample::default()
        };
        let sm0 = SmTraceData {
            samples: vec![mk(10, 5, 2), mk(20, 9, 3), mk(25, 11, 3)],
            ..SmTraceData::default()
        };
        let sm1 = SmTraceData {
            samples: vec![mk(7, 4, 5)],
            ..SmTraceData::default()
        };
        let (agg, dropped) = aggregate_samples(&[&sm0, &sm1], 10);
        assert_eq!(dropped, 0);
        assert_eq!(agg.len(), 3); // two periodic points + final
        assert_eq!(agg[0].cycle, 10);
        assert_eq!(agg[0].stats.issued_other, 5 + 4);
        assert_eq!(agg[1].cycle, 20);
        assert_eq!(agg[1].stats.issued_other, 9 + 4);
        let fin = agg.last().unwrap();
        assert_eq!(fin.cycle, 25);
        assert_eq!(fin.stats.issued_other, 11 + 4);
        assert_eq!(
            fin.stats.mem.mshr_peak_occupancy, 5,
            "high-water marks fold with max"
        );
    }

    #[test]
    fn capture_finish_roundtrip_with_sorting() {
        let sink = TraceSink::new(TraceSpec::default(), 2);
        let rec = |kernel: &str, key: &str| RunRecord {
            kernel: kernel.to_string(),
            key: key.to_string(),
            cache_hit: false,
            cycles: 1.0,
            ctas_simulated: 1,
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
            stats: SmStats {
                issued_other: other,
                lhb: LhbStats {
                    hits,
                    misses,
                    ..LhbStats::default()
                },
                ..SmStats::default()
            },
            ..SmSample::default()
        };
        let data = TraceData {
            interval: 1024,
            runs: vec![RunRecord {
                kernel: "k".to_string(),
                key: "deadbeef".to_string(),
                cache_hit: false,
                cycles: 2048.0,
                ctas_simulated: 2,
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
        let (doc, text) = export(&data);
        // The streamed bytes are the parsed document's pretty form.
        assert_eq!(doc.to_pretty(), text);
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
            interval: 1024,
            runs: vec![],
            dropped_runs: 3,
        };
        let table = summarize_chrome(&export(&data).0, 16).unwrap();
        assert!(table.contains("WARNING"), "table:\n{table}");
        assert!(table.contains("UNDER-REPORTS"), "table:\n{table}");
        assert!(table.contains("runs=3"), "table:\n{table}");
    }
}
