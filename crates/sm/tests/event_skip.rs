//! Equivalence gate for the event-driven tick loop: the wakeup-wheel
//! fast-forward must produce `SmStats` (and traces, whose samples are
//! full `SmStats` snapshots) byte-identical to the tick-by-tick reference
//! loop — it may only be faster.
//!
//! The loop is chosen per run (the `reference` flag of `run_kernel_mode`),
//! so these tests are safe under the parallel test runner.

use duplo_core::LhbConfig;
use duplo_isa::{ArchReg, CtaTrace, Kernel, Op, Space, WarpTrace, WorkspaceDesc};
use duplo_mem::HashKind;
use duplo_sm::{
    SchedulerPolicy, SmConfig, TraceSpec, run_kernel, run_kernel_mode, run_kernel_traced_mode,
};
use duplo_testkit::prop::check;
use duplo_testkit::{Rng, require, require_eq};

struct FuzzKernel {
    ctas: Vec<CtaTrace>,
    workspace: Option<WorkspaceDesc>,
}

impl Kernel for FuzzKernel {
    fn name(&self) -> &str {
        "fuzz"
    }
    fn num_ctas(&self) -> usize {
        self.ctas.len()
    }
    fn cta(&self, idx: usize) -> CtaTrace {
        self.ctas[idx].clone()
    }
    fn shared_mem_per_cta(&self) -> u32 {
        1024
    }
    fn regs_per_warp(&self) -> u32 {
        16
    }
    fn workspace(&self) -> Option<WorkspaceDesc> {
        self.workspace
    }
}

fn ws_desc() -> WorkspaceDesc {
    WorkspaceDesc {
        base: 0x10_0000,
        bytes: 256 * 144 * 2,
        elem_bytes: 2,
        row_stride_elems: 144,
        input_w: 16,
        channels: 16,
        fw: 3,
        fh: 3,
        out_w: 16,
        out_h: 16,
        stride: 1,
        pad: 1,
        batch: 1,
    }
}

fn arb_warp(ops_seed: &[(u8, u8)], barriers: usize) -> WarpTrace {
    let mut ops = Vec::new();
    let bar_every = if barriers > 0 {
        (ops_seed.len() / (barriers + 1)).max(1)
    } else {
        usize::MAX
    };
    for (i, (kind, arg)) in ops_seed.iter().enumerate() {
        match kind % 4 {
            0 => ops.push(Op::Alu {
                dst: Some(ArchReg(u16::from(arg % 4))),
                latency: 2 + arg % 6,
            }),
            1 => ops.push(Op::WmmaLoad {
                dst: ArchReg(u16::from(arg % 4)),
                addr: 0x10_0000 + u64::from(*arg) * 288,
                rows: 4 + (arg % 12),
                seg_bytes: 32,
                row_stride: 288,
                space: if arg % 5 == 0 {
                    Space::Shared
                } else {
                    Space::Global
                },
            }),
            2 => ops.push(Op::WmmaMma {
                d: ArchReg(8 + u16::from(arg % 4)),
                a: ArchReg(u16::from(arg % 4)),
                b: ArchReg(u16::from((arg / 4) % 4)),
                c: ArchReg(8 + u16::from(arg % 4)),
            }),
            _ => ops.push(Op::St {
                src: ArchReg(8),
                addr: 0x40_0000 + u64::from(*arg) * 64,
                bytes: 64,
                space: Space::Global,
            }),
        }
        if i % bar_every == bar_every - 1 {
            ops.push(Op::Bar);
        }
    }
    ops.push(Op::Exit);
    WarpTrace { ops }
}

#[derive(Debug)]
struct Case {
    ops_seed: Vec<(u8, u8)>,
    warps: usize,
    barriers: usize,
    duplo: bool,
    policy: SchedulerPolicy,
}

fn arb_case(rng: &mut Rng) -> Option<Case> {
    let len = rng.gen_range(1usize..40);
    let ops_seed = (0..len)
        .map(|_| (rng.gen_range(0u8..4), rng.gen_range(0u8..=255)))
        .collect();
    Some(Case {
        ops_seed,
        warps: rng.gen_range(1usize..5),
        barriers: rng.gen_range(0usize..3),
        duplo: rng.gen_bool(0.5),
        policy: [SchedulerPolicy::Gto, SchedulerPolicy::Lrr][rng.gen_index(2)],
    })
}

fn fuzz_kernel(case: &Case) -> FuzzKernel {
    let cta = CtaTrace {
        warps: (0..case.warps)
            .map(|_| arb_warp(&case.ops_seed, case.barriers))
            .collect(),
    };
    FuzzKernel {
        ctas: vec![cta.clone(), cta],
        workspace: Some(ws_desc()),
    }
}

fn cfg(duplo: bool) -> SmConfig {
    let mut cfg = SmConfig::titan_v(80);
    if duplo {
        cfg.lhb = Some(LhbConfig::direct_mapped(64));
    }
    cfg
}

/// Every randomly generated kernel yields bit-identical `SmStats` from the
/// event-driven and the tick-by-tick loop under either scheduler policy,
/// and the stall-attribution identity holds in both.
#[test]
fn event_skip_matches_reference_on_random_kernels() {
    check(
        "event_skip_matches_reference_on_random_kernels",
        24,
        arb_case,
        |case| {
            let config = SmConfig {
                policy: case.policy,
                ..cfg(case.duplo)
            };
            let event = run_kernel(&fuzz_kernel(case), &[0, 1], config.clone());
            let reference = run_kernel_mode(&fuzz_kernel(case), &[0, 1], config, true);
            require!(
                event == reference,
                "event-driven stats diverge from reference:\n{event:#?}\nvs\n{reference:#?}"
            );
            require_eq!(
                event.issued_total() + event.stalls.total(),
                event.cycles * 4,
                "issued+stalls == cycles x schedulers must hold after skips"
            );
            Ok(())
        },
    );
}

/// A latency- and barrier-heavy kernel (DRAM round trips, MMA chains,
/// barriers) — the shape the wakeup wheel accelerates most — still matches
/// the reference exactly, including the cycle-resolved trace: at every
/// sample point the two loops hold equal `SmStats` snapshots and gauges,
/// on the flat memory side and on 4 L2 slices.
#[test]
fn event_skip_matches_reference_on_latency_heavy_kernel_with_trace() {
    let mut ops = Vec::new();
    for i in 0..12u64 {
        ops.push(Op::WmmaLoad {
            dst: ArchReg((i % 4) as u16),
            addr: 0x10_0000 + i * 4096,
            rows: 16,
            seg_bytes: 32,
            row_stride: 288,
            space: Space::Global,
        });
        ops.push(Op::WmmaMma {
            d: ArchReg(8),
            a: ArchReg((i % 4) as u16),
            b: ArchReg(((i + 1) % 4) as u16),
            c: ArchReg(8),
        });
        ops.push(Op::Bar);
    }
    ops.push(Op::Exit);
    let cta = CtaTrace {
        warps: (0..4).map(|_| WarpTrace { ops: ops.clone() }).collect(),
    };
    let kernel = FuzzKernel {
        ctas: vec![cta],
        workspace: Some(ws_desc()),
    };
    let spec = Some(TraceSpec {
        interval: 64,
        ..TraceSpec::default()
    });
    let flat = cfg(true);
    let mut sliced = cfg(true);
    sliced.hierarchy = sliced.hierarchy.sliced(4, HashKind::XorFold);
    for config in [flat, sliced] {
        let (event_stats, event_trace) =
            run_kernel_traced_mode(&kernel, &[0], config.clone(), spec, false);
        let (ref_stats, ref_trace) = run_kernel_traced_mode(&kernel, &[0], config, spec, true);
        let (event_trace, ref_trace) = (event_trace.unwrap(), ref_trace.unwrap());
        assert_eq!(event_stats, ref_stats, "traced stats diverge");
        assert!(event_trace.samples.len() > 2, "expected several samples");
        assert_eq!(event_trace.samples, ref_trace.samples, "snapshots diverge");
        assert_eq!(event_trace.cta_spans, ref_trace.cta_spans);
        assert_eq!(event_trace.dropped_samples, ref_trace.dropped_samples);
        assert_eq!(event_trace.dropped_spans, ref_trace.dropped_spans);
        // The timeline closes on the run's own stats (samples carry no
        // rename log).
        let mut closing = event_stats.clone();
        closing.rename_pairs.clear();
        assert_eq!(event_trace.samples.last().unwrap().stats, closing);
        // The kernel really exercised the interesting machinery.
        assert!(event_stats.stalls.barrier > 0, "expected barrier stalls");
        assert!(
            event_stats.stalls.data_dependency > 0,
            "expected dependency stalls"
        );
        assert_eq!(
            event_stats.issued_total() + event_stats.stalls.total(),
            event_stats.cycles * 4
        );
    }
}

/// The untraced run and the traced run agree on final statistics in event
/// mode (trace-sample boundaries cap skips but must not change results).
#[test]
fn tracing_does_not_perturb_event_skip_results() {
    let case = Case {
        ops_seed: (0..24).map(|i| (i % 4, i * 11)).collect(),
        warps: 3,
        barriers: 2,
        duplo: true,
        policy: SchedulerPolicy::Gto,
    };
    let plain = run_kernel(&fuzz_kernel(&case), &[0, 1], cfg(true));
    let (traced, _) = run_kernel_traced_mode(
        &fuzz_kernel(&case),
        &[0, 1],
        cfg(true),
        Some(TraceSpec {
            interval: 32,
            ..TraceSpec::default()
        }),
        false,
    );
    assert_eq!(plain, traced);
}
