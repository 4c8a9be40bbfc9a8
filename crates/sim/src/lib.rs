//! Top-level Duplo simulator: whole-GPU runs, the Table I networks, the
//! Fig. 2 roofline cost model, and one experiment driver per table/figure
//! of the paper's evaluation.
//!
//! The central entry points are:
//!
//! * [`GpuConfig`] / [`GpuSim`] — representative-SM whole-GPU simulation
//!   (Table III machine) of a kernel, baseline or Duplo,
//! * [`layer_run`] — simulate one convolutional layer's lowered GEMM,
//! * [`experiments`] — drivers reproducing every figure and table of the
//!   paper's evaluation (see `DESIGN.md` §5 for the index),
//! * [`runner`] — the zero-dependency parallel execution engine behind
//!   both (bounded scoped-thread pool sized by `RunOptions::threads`,
//!   order-stable and therefore byte-identical results at any thread
//!   count),
//! * [`cache`] — the content-addressed run cache memoizing
//!   [`GpuSim::run`] (single-flight in-memory tier plus an optional
//!   disk tier keyed by [`digest`]),
//! * [`options`] — [`RunOptions`], the only input to a run besides its
//!   configuration and kernel (the environment is read once, in
//!   `RunOptions::from_env`),
//! * [`trace`] — run-scoped cycle-resolved tracing with Chrome
//!   trace-event (Perfetto-compatible) export and a phase summarizer,
//! * [`wtrace`] — the versioned warp-instruction trace format with
//!   run-scoped record/replay sessions (trace-driven workload frontend),
//! * [`log`] — the `DUPLO_LOG`-leveled logger every stderr line in the
//!   stack goes through,
//! * [`metrics`] — the process-wide telemetry registry (counters,
//!   gauges, histograms; Prometheus text + deterministic JSON
//!   snapshots; `DUPLO_METRICS=off` kill switch),
//! * [`progress`] — per-job lifecycle handles behind the daemon's
//!   `GET /v1/progress/<digest>` streaming endpoint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod costmodel;
pub mod digest;
pub mod experiments;
pub mod gpu;
pub mod json;
pub mod log;
pub mod metrics;
pub mod networks;
pub mod options;
pub mod progress;
pub mod report;
pub mod results;
pub mod runner;
pub mod serve;
pub mod trace;
pub mod wtrace;

pub use gpu::{GpuConfig, GpuRunResult, GpuSim, layer_run, layer_run_opts};
pub use options::RunOptions;
