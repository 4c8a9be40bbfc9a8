//! Stable-metric determinism: the registry's *stable* metrics (counters
//! and gauges that are a pure function of the simulated work) must move
//! by identical deltas whether the runner fans out over 1 or 4 threads.
//!
//! Volatile metrics (pool occupancy, wall-clock histograms, serve
//! traffic) are excluded by taking stable-only snapshots — exactly what
//! `/v1/metrics` serves under `DUPLO_JSON_STABLE`.

use std::collections::BTreeMap;

use duplo_sim::experiments::find_experiment;
use duplo_sim::json::Json;
use duplo_sim::{RunOptions, metrics};

/// Stable metric values by name. Histograms are volatile by definition,
/// so every stable entry is a scalar `value`.
fn snapshot_map() -> BTreeMap<String, i64> {
    let doc = metrics::snapshot_json(true);
    let mut out = BTreeMap::new();
    for m in doc.get("metrics").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = m.get("name").and_then(Json::as_str).expect("metric name");
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("stable metrics are scalars");
        out.insert(name.to_string(), value as i64);
    }
    out
}

fn delta(before: &BTreeMap<String, i64>, after: &BTreeMap<String, i64>) -> BTreeMap<String, i64> {
    after
        .iter()
        .map(|(name, v)| (name.clone(), v - before.get(name).copied().unwrap_or(0)))
        .collect()
}

#[test]
fn stable_metric_deltas_are_thread_count_invariant() {
    let spec = find_experiment("smem_policy").expect("registry experiment");
    let opts = RunOptions {
        no_cache: true,
        sample_ctas: Some(2),
        ..RunOptions::default()
    };
    let run_and_measure = |threads: usize| {
        let before = snapshot_map();
        let _ = (spec.run)(&RunOptions {
            threads: Some(threads),
            ..opts.clone()
        });
        delta(&before, &snapshot_map())
    };
    let d1 = run_and_measure(1);
    let d4 = run_and_measure(4);
    assert_eq!(
        d1, d4,
        "stable metric deltas must not depend on the thread count"
    );
    // The run must actually have registered work, or the equality above
    // is vacuous.
    assert!(
        d1.get("duplo_gpu_runs_total").copied().unwrap_or(0) > 0,
        "expected simulated kernels in the deltas: {d1:?}"
    );
    assert!(
        d1.get("duplo_runner_tasks_total").copied().unwrap_or(0) > 0,
        "expected runner tasks in the deltas: {d1:?}"
    );
}
