//! Golden-snapshot tests: pin the rendered output of the report tables and
//! of the cheap experiment drivers, so formatting or model drift shows up
//! as a reviewable diff instead of silently changing EXPERIMENTS.md.
//!
//! Snapshots live under `tests/golden/`. To regenerate after an intentional
//! change, run:
//!
//! ```text
//! DUPLO_BLESS=1 cargo test -p duplo-sim --test golden
//! ```

use duplo_core::LhbConfig;
use duplo_kernels::{GemmTcKernel, SmemPolicy, StreamKernel};
use duplo_mem::HashKind;
use duplo_sim::experiments::workloads;
use duplo_sim::experiments::{
    RunOptions, fig02_speedup, fig10_hit_rate, size_configs, sweep_layers,
};
use duplo_sim::networks::all_layers;
use duplo_sim::report::{Table, fmt_pct, fmt_x, gmean};
use duplo_sim::trace::{DEFAULT_RUN_CAP, TraceSink, TraceSpec, summarize_chrome};
use duplo_sim::{GpuConfig, GpuSim};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the named snapshot, or rewrites the snapshot
/// when `DUPLO_BLESS` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("DUPLO_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with \
             `DUPLO_BLESS=1 cargo test -p duplo-sim --test golden`",
            path.display()
        )
    });
    if expected != actual {
        let diff_line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map_or_else(
                || expected.lines().count().min(actual.lines().count()),
                |i| i,
            );
        panic!(
            "golden snapshot {} is stale (first difference at line {}):\n\
             --- expected ---\n{expected}\n--- actual ---\n{actual}\n\
             If the change is intentional, regenerate with \
             `DUPLO_BLESS=1 cargo test -p duplo-sim --test golden`.",
            path.display(),
            diff_line + 1,
        );
    }
}

/// Pin the Table renderer itself: alignment, separators, notes, and the
/// formatting helpers it is normally fed.
#[test]
fn table_rendering_golden() {
    let mut t = Table::new(
        "Demo table (renderer golden)",
        &["layer", "speedup", "hit rate"],
    );
    t.push_row(vec![
        "ResNet/C1".to_string(),
        fmt_x(Some(1.234)),
        fmt_pct(0.5),
    ]);
    t.push_row(vec![
        "GAN/TC1 (long name to force column growth)".to_string(),
        fmt_x(None),
        fmt_pct(0.07125),
    ]);
    t.push_row(vec![
        "geomean".to_string(),
        fmt_x(gmean(&[1.2, 1.3, 1.4])),
        String::new(),
    ]);
    t.note("A note line attached to the table.");
    t.note("And a second one.");
    assert_golden("table_render.txt", &t.render());
}

/// Pin the Fig. 2 analytic speedup table (pure cost model, cheap and fully
/// deterministic).
#[test]
fn fig02_speedup_golden() {
    let fig = fig02_speedup::run();
    assert_golden("fig02_speedup.txt", &fig02_speedup::render(&fig));
}

/// Pin the Fig. 10 hit-rate table on a small fixed subset of Table I
/// layers under `RunOptions::quick()`. The subset keeps debug-mode test time
/// bounded (the full 22-layer sweep belongs to the experiment binaries);
/// the three smallest-GEMM layers are picked deterministically from the
/// catalog so the choice tracks any catalog change.
#[test]
fn fig10_hit_rate_golden() {
    let mut layers = all_layers();
    layers.sort_by_key(|l| {
        let (m, n, k) = l.lowered().gemm_dims();
        (m * n * k, l.qualified_name())
    });
    layers.truncate(3);
    let sweeps = sweep_layers(&layers, &size_configs(), &RunOptions::quick());
    assert_golden("fig10_hit_rate_quick.txt", &fig10_hit_rate::render(&sweeps));
}

/// Pin the four workload-library summary tables under `RunOptions::quick()`.
/// These are the trace-frontend workloads (attention chain, batched small
/// GEMMs, grouped/depthwise conv, kn2row): the snapshots make any drift in
/// the workload definitions or the shared `WlRow` renderer reviewable.
#[test]
fn workload_attention_golden() {
    let rows = workloads::attention::run(&RunOptions::quick());
    assert_golden(
        "wl_attention_quick.txt",
        &workloads::attention::render(&rows),
    );
}

#[test]
fn workload_batched_gemm_golden() {
    let rows = workloads::batched::run(&RunOptions::quick());
    assert_golden("wl_batched_quick.txt", &workloads::batched::render(&rows));
}

#[test]
fn workload_grouped_conv_golden() {
    let rows = workloads::grouped::run(&RunOptions::quick());
    assert_golden("wl_grouped_quick.txt", &workloads::grouped::render(&rows));
}

#[test]
fn workload_kn2row_golden() {
    let rows = workloads::kn2row::run(&RunOptions::quick());
    assert_golden("wl_kn2row_quick.txt", &workloads::kn2row::render(&rows));
}

/// The adversarial memory-bound workload: a streaming kernel with no
/// lowered-GEMM workspace gives the LHB nothing to lift, so the honest
/// result is a speedup of exactly 1.0. The snapshot pins the rendered
/// table; the assertions below keep the claim machine-checked even if the
/// table format changes.
#[test]
fn workload_membound_golden_and_unity_speedup() {
    let rows = workloads::membound::run(&RunOptions::quick());
    for row in &rows {
        let speedup = row.speedup();
        assert!(
            (speedup - 1.0).abs() < 1e-9,
            "{}: LHB speedup must be ~1.0 on a memory-bound stream, got {speedup}",
            row.item
        );
    }
    assert_golden("wl_membound_quick.txt", &workloads::membound::render(&rows));
}

/// Pin the exported Chrome trace document byte for byte, plus the phase
/// table `duplo trace summarize` renders from it. Two simulated SMs with
/// one CTA each, so the cross-SM sample fold is in the document: a flat-L2
/// run of a strided stream, and a Duplo run of the smallest unit-stride
/// Table I layer on 4 L2 slices (XOR hash), whose hot slice moves.
/// Uncached, so every record carries its timeline.
#[test]
fn trace_export_golden() {
    let sink = TraceSink::new(
        TraceSpec {
            interval: 4096,
            ..TraceSpec::default()
        },
        DEFAULT_RUN_CAP,
    );
    let opts = RunOptions {
        sample_ctas: Some(1),
        no_cache: true,
        trace_sink: Some(sink.clone()),
        ..RunOptions::default()
    };
    let layer = all_layers()
        .into_iter()
        .filter(|l| l.lowered().stride == 1)
        .min_by_key(|l| {
            let (m, n, k) = l.lowered().gemm_dims();
            (m * n * k, l.qualified_name())
        })
        .expect("catalog is non-empty");
    let mut gpu = opts.apply(GpuConfig::titan_v());
    gpu.sms_simulated = 2;
    GpuSim::with_options(gpu.clone(), opts.clone()).run(&StreamKernel::strided(16, 4, 32, 4));
    let mut sliced = gpu;
    sliced.sm.lhb = Some(LhbConfig::paper_default());
    sliced.sm.hierarchy = sliced.sm.hierarchy.sliced(4, HashKind::XorFold);
    GpuSim::with_options(sliced, opts.clone()).run(&GemmTcKernel::from_conv(
        &layer.lowered(),
        SmemPolicy::COnly,
    ));
    let mut bytes = Vec::new();
    sink.finish()
        .write_chrome(&mut bytes)
        .expect("writing to memory");
    let text = String::from_utf8(bytes).expect("the export is UTF-8");
    assert_golden("trace_export.json", &text);
    let doc = duplo_sim::json::parse(&text).expect("the export parses");
    assert_golden(
        "trace_summary.txt",
        &summarize_chrome(&doc, 16).expect("a duplo trace"),
    );
}
