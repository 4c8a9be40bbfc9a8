//! Experiment drivers — one per table/figure of the paper's evaluation.
//!
//! Each submodule exposes a `run(...)` function returning structured rows
//! plus a rendered [`crate::report::Table`]. The [`registry`] names them;
//! `duplo run <name|all>` (in `duplo-bench`) prints them, and
//! `EXPERIMENTS.md` records paper-vs-measured.

pub mod ablations;
pub mod ext_implicit;
pub mod ext_wir;
pub mod fig02_speedup;
pub mod fig03_memusage;
pub mod fig09_lhb_size;
pub mod fig10_hit_rate;
pub mod fig11_mem_breakdown;
pub mod fig12_assoc;
pub mod fig13_batch;
pub mod fig14_network;
pub mod sec2c_smem;
pub mod sec5h_energy;
pub mod table02_workflow;
pub mod table03_config;
pub mod workloads;

pub use crate::options::RunOptions;

use crate::GpuRunResult;
use crate::gpu::layer_run_opts;
use crate::networks::{self, LayerSpec};
use duplo_core::LhbConfig;

/// The LHB configurations of the paper's size sweeps (Fig. 9/10).
pub fn size_configs() -> Vec<LhbConfig> {
    vec![
        LhbConfig::direct_mapped(256),
        LhbConfig::direct_mapped(512),
        LhbConfig::direct_mapped(1024),
        LhbConfig::direct_mapped(2048),
        LhbConfig::oracle(),
    ]
}

/// Result of sweeping one layer over a set of LHB configurations.
#[derive(Clone, Debug)]
pub struct LayerSweep {
    /// Layer name.
    pub layer: String,
    /// Baseline (no Duplo) run.
    pub baseline: GpuRunResult,
    /// One run per configuration, with its label.
    pub runs: Vec<(String, GpuRunResult)>,
}

impl LayerSweep {
    /// Performance improvement of run `i` over baseline
    /// (`baseline/duplo - 1`, the Fig. 9 y-axis).
    pub fn improvement(&self, i: usize) -> f64 {
        self.baseline.cycles / self.runs[i].1.cycles - 1.0
    }

    /// LHB hit rate of run `i` (the Fig. 10 y-axis).
    pub fn hit_rate(&self, i: usize) -> f64 {
        self.runs[i].1.stats.lhb.hit_rate()
    }
}

/// Sweeps every Table I layer over `configs` (plus a baseline run each).
///
/// The whole (layer, config) grid is flattened and fanned out over
/// [`crate::runner::par_map`], so slow layers don't serialize behind each
/// other; results are regrouped in input order, keeping the rendered
/// tables identical at any thread count.
pub fn sweep_layers(
    layers: &[LayerSpec],
    configs: &[LhbConfig],
    opts: &RunOptions,
) -> Vec<LayerSweep> {
    let gpu = opts.apply(crate::GpuConfig::titan_v());
    let params: Vec<_> = layers.iter().map(|l| l.lowered()).collect();
    let jobs: Vec<(usize, Option<LhbConfig>)> = (0..layers.len())
        .flat_map(|li| {
            std::iter::once((li, None)).chain(configs.iter().map(move |c| (li, Some(*c))))
        })
        .collect();
    let results = crate::runner::par_map_opt(opts.threads, &jobs, |&(li, lhb)| {
        layer_run_opts(&params[li], lhb, &gpu, opts)
    });

    let mut it = results.into_iter();
    layers
        .iter()
        .map(|l| {
            let baseline = it.next().expect("one result per job");
            let runs = configs
                .iter()
                .map(|c| (c.label(), it.next().expect("one result per job")))
                .collect();
            LayerSweep {
                layer: l.qualified_name(),
                baseline,
                runs,
            }
        })
        .collect()
}

/// Convenience: all Table I layers.
pub fn table1_layers() -> Vec<LayerSpec> {
    networks::all_layers()
}

// ---------------------------------------------------------------------------
// Experiment registry
// ---------------------------------------------------------------------------

use crate::results::ExperimentResult;

/// Output of one registry-driven experiment run: the rendered table (for
/// stdout and EXPERIMENTS.md) plus the structured result (for JSON).
pub struct ExperimentOutput {
    /// Human-facing table, exactly as `duplo run` prints it.
    pub rendered: String,
    /// Machine-readable result (see [`crate::results`]).
    pub result: ExperimentResult,
}

/// One registered experiment. The registry is the single source of truth
/// the `duplo` CLI, `duplo serve` and `duplo run all` iterate — adding an
/// experiment is one entry here. How many CTAs a run samples is a run
/// option (`RunOptions::sample_ctas`), never a property of the entry.
pub struct ExperimentSpec {
    /// Stable machine name (matches the result's `experiment` field).
    pub name: &'static str,
    /// Human title (matches the structured result's title).
    pub title: &'static str,
    /// Paper anchor this experiment reproduces (`Fig. 9`, `§V-H`, ...) or,
    /// for an extension, the EXPERIMENTS.md section that records it.
    pub paper_ref: &'static str,
    /// Runs the experiment.
    pub run: fn(&RunOptions) -> ExperimentOutput,
}

/// All registered experiments, in `duplo run all` output order: the
/// paper's tables and figures first, then extensions and the workload
/// library.
pub fn registry() -> &'static [ExperimentSpec] {
    &REGISTRY
}

/// Looks up an experiment by registry name.
pub fn find_experiment(name: &str) -> Option<&'static ExperimentSpec> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// Nearest registry name to a misspelled `name` by edit distance, for
/// "did you mean" diagnostics. Only suggests when the distance is small
/// relative to the query (at most half its length), so garbage input gets
/// no suggestion rather than an arbitrary one.
pub fn suggest_experiment(name: &str) -> Option<&'static str> {
    let limit = name.chars().count().div_ceil(2).max(2);
    REGISTRY
        .iter()
        .map(|s| (edit_distance(name, s.name), s.name))
        .min()
        .filter(|&(d, _)| d <= limit)
        .map(|(_, n)| n)
}

/// Levenshtein distance (two-row dynamic program over chars).
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.chars().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

fn run_table03(opts: &RunOptions) -> ExperimentOutput {
    let cfg = opts.apply(crate::GpuConfig::titan_v());
    ExperimentOutput {
        rendered: table03_config::render(&cfg),
        result: table03_config::result(&cfg),
    }
}

fn run_fig02(_opts: &RunOptions) -> ExperimentOutput {
    let fig = fig02_speedup::run();
    ExperimentOutput {
        rendered: fig02_speedup::render(&fig),
        result: fig02_speedup::result(&fig),
    }
}

fn run_fig03(_opts: &RunOptions) -> ExperimentOutput {
    let fig = fig03_memusage::run();
    ExperimentOutput {
        rendered: fig03_memusage::render(&fig),
        result: fig03_memusage::result(&fig),
    }
}

fn run_table02(_opts: &RunOptions) -> ExperimentOutput {
    let steps = table02_workflow::run();
    ExperimentOutput {
        rendered: table02_workflow::render(&steps),
        result: table02_workflow::result(&steps),
    }
}

fn run_fig09(opts: &RunOptions) -> ExperimentOutput {
    let sweeps = fig09_lhb_size::run(opts);
    ExperimentOutput {
        rendered: fig09_lhb_size::render(&sweeps),
        result: fig09_lhb_size::result(&sweeps, opts),
    }
}

fn run_fig10(opts: &RunOptions) -> ExperimentOutput {
    let sweeps = fig10_hit_rate::run(opts);
    ExperimentOutput {
        rendered: fig10_hit_rate::render(&sweeps),
        result: fig10_hit_rate::result(&sweeps, opts),
    }
}

fn run_fig11(opts: &RunOptions) -> ExperimentOutput {
    let rows = fig11_mem_breakdown::run(opts);
    ExperimentOutput {
        rendered: fig11_mem_breakdown::render(&rows),
        result: fig11_mem_breakdown::result(&rows, opts),
    }
}

fn run_fig12(opts: &RunOptions) -> ExperimentOutput {
    let sweeps = fig12_assoc::run(opts);
    ExperimentOutput {
        rendered: fig12_assoc::render(&sweeps),
        result: fig12_assoc::result(&sweeps, opts),
    }
}

fn run_fig13(opts: &RunOptions) -> ExperimentOutput {
    let rows = fig13_batch::run(opts);
    ExperimentOutput {
        rendered: fig13_batch::render(&rows),
        result: fig13_batch::result(&rows, opts),
    }
}

fn run_fig14(opts: &RunOptions) -> ExperimentOutput {
    let rows = fig14_network::run(opts);
    ExperimentOutput {
        rendered: fig14_network::render(&rows),
        result: fig14_network::result(&rows, opts),
    }
}

fn run_sec5h(opts: &RunOptions) -> ExperimentOutput {
    let e = sec5h_energy::run(opts);
    ExperimentOutput {
        rendered: sec5h_energy::render(&e),
        result: sec5h_energy::result(&e, opts),
    }
}

fn run_sec2c(opts: &RunOptions) -> ExperimentOutput {
    let rows = sec2c_smem::run(opts);
    ExperimentOutput {
        rendered: sec2c_smem::render(&rows),
        result: sec2c_smem::result(&rows, opts),
    }
}

fn run_ablations(opts: &RunOptions) -> ExperimentOutput {
    let rows = ablations::run(opts);
    ExperimentOutput {
        rendered: ablations::render(&rows),
        result: ablations::result(&rows, opts),
    }
}

fn run_ext_wir(opts: &RunOptions) -> ExperimentOutput {
    let rows = ext_wir::run(opts);
    ExperimentOutput {
        rendered: ext_wir::render(&rows),
        result: ext_wir::result(&rows, opts),
    }
}

fn run_ext_implicit(opts: &RunOptions) -> ExperimentOutput {
    let rows = ext_implicit::run(opts);
    ExperimentOutput {
        rendered: ext_implicit::render(&rows),
        result: ext_implicit::result(&rows, opts),
    }
}

fn run_wl_attention(opts: &RunOptions) -> ExperimentOutput {
    let rows = workloads::attention::run(opts);
    ExperimentOutput {
        rendered: workloads::attention::render(&rows),
        result: workloads::attention::result(&rows, opts),
    }
}

fn run_wl_batched(opts: &RunOptions) -> ExperimentOutput {
    let rows = workloads::batched::run(opts);
    ExperimentOutput {
        rendered: workloads::batched::render(&rows),
        result: workloads::batched::result(&rows, opts),
    }
}

fn run_wl_grouped(opts: &RunOptions) -> ExperimentOutput {
    let rows = workloads::grouped::run(opts);
    ExperimentOutput {
        rendered: workloads::grouped::render(&rows),
        result: workloads::grouped::result(&rows, opts),
    }
}

fn run_wl_kn2row(opts: &RunOptions) -> ExperimentOutput {
    let rows = workloads::kn2row::run(opts);
    ExperimentOutput {
        rendered: workloads::kn2row::render(&rows),
        result: workloads::kn2row::result(&rows, opts),
    }
}

fn run_wl_membound(opts: &RunOptions) -> ExperimentOutput {
    let rows = workloads::membound::run(opts);
    ExperimentOutput {
        rendered: workloads::membound::render(&rows),
        result: workloads::membound::result(&rows, opts),
    }
}

fn run_wl_slice_camp(opts: &RunOptions) -> ExperimentOutput {
    let rows = workloads::slice_camp::run(opts);
    ExperimentOutput {
        rendered: workloads::slice_camp::render(&rows),
        result: workloads::slice_camp::result(&rows, opts),
    }
}

static REGISTRY: [ExperimentSpec; 21] = [
    ExperimentSpec {
        name: "table03_config",
        title: "Table III — baseline GPU model",
        paper_ref: "Table III",
        run: run_table03,
    },
    ExperimentSpec {
        name: "fig02_speedup",
        title: "Fig. 2 — speedup over direct convolution",
        paper_ref: "Fig. 2",
        run: run_fig02,
    },
    ExperimentSpec {
        name: "fig03_memusage",
        title: "Fig. 3 — memory usage relative to direct convolution",
        paper_ref: "Fig. 3",
        run: run_fig03,
    },
    ExperimentSpec {
        name: "table02_workflow",
        title: "Table II — Duplo workflow using the LHB",
        paper_ref: "Table II",
        run: run_table02,
    },
    ExperimentSpec {
        name: "fig09_lhb_size",
        title: "Fig. 9 — Duplo performance improvement vs LHB size",
        paper_ref: "Fig. 9",
        run: run_fig09,
    },
    ExperimentSpec {
        name: "fig10_hit_rate",
        title: "Fig. 10 — LHB hit rate vs buffer size",
        paper_ref: "Fig. 10",
        run: run_fig10,
    },
    ExperimentSpec {
        name: "fig11_mem_breakdown",
        title: "Fig. 11 — memory service breakdown, baseline vs Duplo",
        paper_ref: "Fig. 11",
        run: run_fig11,
    },
    ExperimentSpec {
        name: "fig12_assoc",
        title: "Fig. 12 — set-associative LHB (1024 entries)",
        paper_ref: "Fig. 12",
        run: run_fig12,
    },
    ExperimentSpec {
        name: "fig13_batch",
        title: "Fig. 13 — Duplo improvement vs batch size (1024-entry LHB)",
        paper_ref: "Fig. 13",
        run: run_fig13,
    },
    ExperimentSpec {
        name: "fig14_network",
        title: "Fig. 14 — network execution time reduction",
        paper_ref: "Fig. 14",
        run: run_fig14,
    },
    ExperimentSpec {
        name: "sec5h_energy",
        title: "Sec. V-H — energy and area, baseline vs Duplo",
        paper_ref: "§V-H",
        run: run_sec5h,
    },
    ExperimentSpec {
        name: "smem_policy",
        title: "Sec. II-C — shared-memory operand placement",
        paper_ref: "§II-C",
        run: run_sec2c,
    },
    ExperimentSpec {
        name: "ablations",
        title: "Ablations — Duplo design-choice sensitivity",
        paper_ref: "§IV–V",
        run: run_ablations,
    },
    ExperimentSpec {
        name: "ext_wir",
        title: "Ext — Duplo vs WIR-style same-address elimination",
        paper_ref: "§III",
        run: run_ext_wir,
    },
    ExperimentSpec {
        name: "ext_implicit",
        title: "Ext — Duplo on implicit GEMM (shared-memory renaming)",
        paper_ref: "§V-D",
        run: run_ext_implicit,
    },
    ExperimentSpec {
        name: workloads::attention::NAME,
        title: workloads::attention::TITLE,
        paper_ref: "Workloads",
        run: run_wl_attention,
    },
    ExperimentSpec {
        name: workloads::batched::NAME,
        title: workloads::batched::TITLE,
        paper_ref: "Workloads",
        run: run_wl_batched,
    },
    ExperimentSpec {
        name: workloads::grouped::NAME,
        title: workloads::grouped::TITLE,
        paper_ref: "Workloads",
        run: run_wl_grouped,
    },
    ExperimentSpec {
        name: workloads::kn2row::NAME,
        title: workloads::kn2row::TITLE,
        paper_ref: "Workloads",
        run: run_wl_kn2row,
    },
    ExperimentSpec {
        name: workloads::membound::NAME,
        title: workloads::membound::TITLE,
        paper_ref: "Workloads",
        run: run_wl_membound,
    },
    ExperimentSpec {
        name: workloads::slice_camp::NAME,
        title: workloads::slice_camp::TITLE,
        paper_ref: "Sliced L2",
        run: run_wl_slice_camp,
    },
];

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let mut seen = std::collections::HashSet::new();
        for spec in registry() {
            assert!(seen.insert(spec.name), "duplicate name {}", spec.name);
            assert!(
                std::ptr::eq(find_experiment(spec.name).unwrap(), spec),
                "find_experiment must return the registered spec"
            );
        }
        assert!(find_experiment("no_such_experiment").is_none());
    }

    #[test]
    fn suggest_recovers_near_misses_but_not_garbage() {
        assert_eq!(suggest_experiment("fig9_lhb_size"), Some("fig09_lhb_size"));
        assert_eq!(suggest_experiment("smem_polcy"), Some("smem_policy"));
        assert_eq!(suggest_experiment("wl_atention"), Some("wl_attention"));
        assert_eq!(suggest_experiment("zzzzzzzzzzzzzzzzzzzzzz"), None);
        // Exact names suggest themselves (distance 0) — callers only ask
        // after find_experiment fails, so this is never user-visible.
        assert_eq!(suggest_experiment("ablations"), Some("ablations"));
    }

    #[test]
    fn registry_covers_all_experiments_plus_extensions() {
        assert_eq!(registry().len(), 21);
        // The paper's tables lead, in `duplo run all` print order.
        assert_eq!(registry()[0].name, "table03_config");
    }

    #[test]
    fn registry_results_carry_the_registered_name_and_title() {
        // Cheap structural check on an analytic (no-simulation) entry.
        let spec = find_experiment("fig02_speedup").unwrap();
        let out = (spec.run)(&RunOptions::quick());
        assert_eq!(out.result.name, spec.name);
        assert_eq!(out.result.title, spec.title);
        assert!(!out.rendered.is_empty());
    }
}
