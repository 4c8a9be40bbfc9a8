//! Runs every experiment in sequence (the EXPERIMENTS.md generator).
//!
//! Iterates the shared experiment registry
//! (`duplo_sim::experiments::registry`) over its `in_all` subset; tables
//! go to stdout, per-experiment wall-clock and cache-counter lines go to
//! stderr, so stdout stays byte-identical across `DUPLO_THREADS` settings
//! and cache states.
//!
//! With `--json-dir <dir>` (or `DUPLO_JSON_DIR=<dir>`), every experiment's
//! structured result is also written to `<dir>/<experiment>.json`, plus a
//! `BENCH_duplo.json` roll-up of the headline metrics.
use duplo_bench::{cli_from_args, run_all, with_trace};

fn main() {
    let cli = cli_from_args(Some(8));
    with_trace(&cli, |o| run_all(o, false));
}
