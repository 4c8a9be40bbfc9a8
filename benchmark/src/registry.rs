//! `registry_warm`: the run cache's read path, as a CI job that re-renders
//! the whole registry from a warm disk cache sees it.
//!
//! Set-up is today's `duplo run all --sample 2`: every registry experiment
//! runs cold, in registry order, into a fresh disk cache with the memory
//! tier on. It takes most of a minute, so it runs once per process and
//! `setup_s` is that one cold pass. Each timed pass then empties the
//! memory tier and re-runs every experiment, rendering its table and its
//! result JSON, so every simulation is served from disk.
//!
//! Passes keep registry order and draw nothing from the seed. Experiments
//! share simulations (Figs. 9 and 10 sweep the same grid), and the first
//! of them in a pass reads the shared results from disk while the later
//! ones find them in the memory tier; a seeded order would move that cost
//! from experiment to experiment, and with it `tail_ms`, from seed to seed.

use std::path::{Path, PathBuf};
use std::time::Instant;

use duplo_sim::experiments::{ExperimentSpec, registry};
use duplo_sim::{RunOptions, cache};

use crate::output::Timings;
use crate::spans::Recorder;
use crate::stats::median;
use crate::{Args, Counts, Outcome, TracedPass, counters};

/// Traced passes, each paired with an untraced one.
const TRACED_PASSES: usize = 50;

/// Removes a directory tree when dropped.
pub struct TempDir(pub PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A cold run's output for one experiment: its table and its JSON.
struct Rendered {
    table: String,
    json: String,
}

fn render(spec: &ExperimentSpec, opts: &RunOptions) -> Rendered {
    let out = (spec.run)(opts);
    Rendered {
        table: out.rendered,
        json: out.result.to_pretty(),
    }
}

/// Runs `registry_warm` under `args`, with its disk cache under `work`.
pub fn run(args: &Args, work: &Path) -> Outcome {
    let dir = TempDir(work.join(format!("registry-cache-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let opts = RunOptions {
        sample_ctas: Some(2),
        threads: Some(args.threads),
        cache_dir: Some(dir.0.clone()),
        ..RunOptions::default()
    };
    let mut timings = Timings {
        tail_cap: 99.0,
        ..Timings::default()
    };
    let t = Instant::now();
    cache::clear_memory();
    let pairs: Vec<(&ExperimentSpec, Rendered)> =
        registry().iter().map(|s| (s, render(s, &opts))).collect();
    timings.setups.push(t.elapsed().as_secs_f64());

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut pass_counts = None;
    let loop_start = Instant::now();
    while timings.passes.is_empty() || loop_start.elapsed().as_secs_f64() < args.seconds {
        let first_pass = pass_counts.is_none();
        let before = first_pass.then(counters::snapshot);
        let misses = cache::stats().misses;
        let t = Instant::now();
        cache::clear_memory();
        for (spec, want) in &pairs {
            let op = Instant::now();
            let got = render(spec, &opts);
            timings.op_ms.push(op.elapsed().as_secs_f64() * 1e3);
            attempted += 1;
            if got.table != want.table || got.json != want.json {
                eprintln!("[registry_warm] {} differs from its cold run", spec.name);
                failed += 1;
            }
        }
        timings.passes.push(t.elapsed().as_secs_f64());
        if cache::stats().misses != misses {
            eprintln!("[registry_warm] a warm pass simulated");
            failed += 1;
        }
        if let Some(before) = before {
            pass_counts = Some((before, counters::snapshot()));
        }
    }
    timings.loop_s = loop_start.elapsed().as_secs_f64();
    let peak_rss_mb = crate::output::peak_rss_mb();

    // The memory-tier floor: one more pass without emptying the memory tier.
    let t = Instant::now();
    for (spec, _) in &pairs {
        std::hint::black_box(render(spec, &opts));
    }
    println!(
        "registry_warm: memory-tier pass {:.3} ms (disk-tier median {:.3} ms)",
        t.elapsed().as_secs_f64() * 1e3,
        median(&timings.passes) * 1e3
    );

    let traced = args.trace.then(|| {
        let mut counts = Counts::default();
        let (before, after) = pass_counts.expect("at least one pass ran");
        counts.set_tiers(&before, &after);
        // Traced passes alternate with untraced ones, so that the machine's
        // drift cancels out of the overhead.
        let mut rec = Recorder::new();
        let mut untraced_s = 0.0;
        for _ in 0..TRACED_PASSES {
            let t = Instant::now();
            cache::clear_memory();
            for (spec, _) in &pairs {
                std::hint::black_box(render(spec, &opts));
            }
            untraced_s += t.elapsed().as_secs_f64();
            rec.scope("bench.pass", |rec| {
                cache::clear_memory();
                for (spec, want) in &pairs {
                    let out = rec.scope("report.experiment", |rec| {
                        rec.tag_open(spec.name);
                        (spec.run)(&opts)
                    });
                    let json = rec.scope("report.to_pretty", |_| out.result.to_pretty());
                    attempted += 1;
                    if out.rendered != want.table || json != want.json {
                        failed += 1;
                    }
                }
            });
        }
        TracedPass {
            wall_s: rec.root_seconds(),
            untraced_s,
            rec,
            report_disk_hits: counts.tiers.disk * TRACED_PASSES as u64,
            counts,
            runner_efficiency: 0.0,
            runner_tail_share: 0.0,
            serve: None,
        }
    });
    drop(dir);
    Outcome {
        timings,
        peak_rss_mb,
        attempted,
        failed,
        traced,
    }
}
