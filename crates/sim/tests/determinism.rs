//! Determinism gate for the parallel execution engine: the same experiment
//! must render byte-identical tables at every thread count.
//!
//! `scripts/ci.sh` runs this binary under `DUPLO_THREADS`,
//! `DUPLO_TICK_REFERENCE` and `DUPLO_L2_SLICES` settings: the base options
//! come from `RunOptions::from_env`, and the thread-count comparisons set
//! `threads: Some(1)` vs `Some(4)` inside the process.

use duplo_sim::experiments::{
    RunOptions, fig09_lhb_size, fig10_hit_rate, size_configs, sweep_layers,
};
use duplo_sim::networks::all_layers;

/// The three smallest Table I layers (deterministically picked), keeping
/// debug-mode runtime bounded while still fanning 15 jobs out.
fn probe_layers() -> Vec<duplo_sim::networks::LayerSpec> {
    let mut layers = all_layers();
    layers.sort_by_key(|l| {
        let (m, n, k) = l.lowered().gemm_dims();
        (m * n * k, l.qualified_name())
    });
    layers.truncate(3);
    layers
}

/// Quick sampling over the environment's settings, with the run cache off:
/// a memoized second sweep would make the comparisons vacuous.
fn base() -> RunOptions {
    RunOptions {
        sample_ctas: Some(2),
        no_cache: true,
        ..RunOptions::from_env().expect("valid DUPLO_* environment")
    }
}

fn with_threads(n: usize) -> RunOptions {
    RunOptions {
        threads: Some(n),
        ..base()
    }
}

fn render_once(opts: &RunOptions) -> String {
    let sweeps = sweep_layers(&probe_layers(), &size_configs(), opts);
    format!(
        "{}{}",
        fig09_lhb_size::render(&sweeps),
        fig10_hit_rate::render(&sweeps)
    )
}

#[test]
fn experiment_tables_identical_at_one_and_many_threads() {
    assert_eq!(
        render_once(&with_threads(1)),
        render_once(&with_threads(4)),
        "rendered tables must be byte-identical regardless of thread count"
    );
}

/// The machine-readable path gets the same guarantee as the tables: the
/// structured JSON (including the stall-attribution metrics blocks) must
/// be byte-identical at every thread count.
#[test]
fn json_results_identical_at_one_and_many_threads() {
    let json_once = |opts: &RunOptions| {
        let sweeps = sweep_layers(&probe_layers(), &size_configs(), opts);
        fig09_lhb_size::result(&sweeps, opts).to_pretty()
    };
    assert_eq!(
        json_once(&with_threads(1)),
        json_once(&with_threads(4)),
        "JSON results must be byte-identical regardless of thread count"
    );
}

#[test]
fn ambient_thread_count_matches_forced_serial() {
    // Under ci.sh this runs with DUPLO_THREADS set in the environment;
    // whatever the ambient configuration is, output must match serial.
    assert_eq!(render_once(&base()), render_once(&with_threads(1)));
}
