//! Work counts of the SM loop that repeat exactly, so they guard its cost
//! without a timer: how often a CTA's trace is generated, and how many
//! scoreboard slots a warp gets.

use std::sync::Mutex;

use duplo_isa::{ArchReg, CtaTrace, Kernel, Op, Space, WarpTrace};
use duplo_sm::warp::WarpCtx;
use duplo_sm::{SmConfig, run_kernel_mode};

/// A kernel over fixed CTA traces that records every [`Kernel::cta`] call.
struct Counted {
    ctas: Vec<CtaTrace>,
    calls: Mutex<Vec<usize>>,
}

impl Counted {
    fn new(ctas: Vec<CtaTrace>) -> Counted {
        Counted {
            ctas,
            calls: Mutex::new(Vec::new()),
        }
    }

    fn take_calls(&self) -> Vec<usize> {
        std::mem::take(&mut *self.calls.lock().unwrap())
    }
}

impl Kernel for Counted {
    fn name(&self) -> &str {
        "counted"
    }
    fn num_ctas(&self) -> usize {
        self.ctas.len()
    }
    fn cta(&self, idx: usize) -> CtaTrace {
        self.calls.lock().unwrap().push(idx);
        self.ctas[idx].clone()
    }
    fn shared_mem_per_cta(&self) -> u32 {
        0
    }
    fn regs_per_warp(&self) -> u32 {
        16
    }
}

/// A warp that streams `loads` lines from global memory.
fn streaming_warp(base: u64, loads: u64) -> WarpTrace {
    let mut ops: Vec<Op> = (0..loads)
        .map(|i| Op::Ld {
            dst: ArchReg((i % 4) as u16),
            addr: base + i * 128,
            bytes: 128,
            space: Space::Global,
        })
        .collect();
    ops.push(Op::Alu {
        dst: Some(ArchReg(0)),
        latency: 4,
    });
    ops.push(Op::Exit);
    WarpTrace { ops }
}

/// Sixteen-warp CTAs fill the 64 warp slots four at a time, so the fifth
/// CTA waits for a whole CTA to drain while `drive` retries its launch
/// every cycle. Each launched id must still be generated exactly once, in
/// both loop modes.
#[test]
fn each_cta_trace_is_generated_once() {
    let ctas: Vec<CtaTrace> = (0..12u64)
        .map(|c| CtaTrace {
            warps: (0..16u64)
                .map(|w| streaming_warp(0x100_0000 + (c * 16 + w) * 0x1_0000, 24))
                .collect(),
        })
        .collect();
    let kernel = Counted::new(ctas);
    let cfg = SmConfig::titan_v(80);
    assert_eq!(cfg.max_warps, 64, "the grid is sized for 64 warp slots");
    let ids: Vec<usize> = (0..12).collect();
    let mut runs = Vec::new();
    for reference in [false, true] {
        let stats = run_kernel_mode(&kernel, &ids, cfg.clone(), reference);
        assert_eq!(stats.ctas_run, 12);
        let calls = kernel.take_calls();
        assert_eq!(
            calls.len(),
            ids.len(),
            "reference={reference}: cta() calls for {} launched CTAs",
            ids.len()
        );
        assert_eq!(calls, ids, "reference={reference}: in launch order");
        runs.push(stats);
    }
    assert_eq!(runs[0], runs[1], "event and reference loops agree");
}

/// The kernel of one CTA whose two warps name `%r0` and `%rN`.
fn two_register_kernel(n: u16) -> Counted {
    let hi = ArchReg(n);
    let lo = ArchReg(0);
    let warp = |base: u64| WarpTrace {
        ops: vec![
            Op::WmmaLoad {
                dst: hi,
                addr: base,
                rows: 16,
                seg_bytes: 32,
                row_stride: 256,
                space: Space::Global,
            },
            Op::Alu {
                dst: Some(lo),
                latency: 6,
            },
            Op::WmmaMma {
                d: lo,
                a: hi,
                b: hi,
                c: lo,
            },
            Op::WmmaLoad {
                dst: hi,
                addr: base + 32,
                rows: 16,
                seg_bytes: 32,
                row_stride: 256,
                space: Space::Global,
            },
            Op::WmmaMma {
                d: lo,
                a: hi,
                b: lo,
                c: lo,
            },
            Op::St {
                src: lo,
                addr: base + 0x8000,
                bytes: 64,
                space: Space::Global,
            },
            Op::Exit,
        ],
    };
    Counted::new(vec![CtaTrace {
        warps: vec![warp(0x20_0000), warp(0x30_0000)],
    }])
}

/// A warp naming `%r0` and `%r65535` gets a two-slot scoreboard, and it
/// simulates exactly as the same warp naming `%r0` and `%r1` does, in
/// both loop modes.
#[test]
fn sparse_register_numbers_get_a_dense_scoreboard() {
    let sparse = two_register_kernel(u16::MAX);
    let ops = sparse.cta(0).warps[0].ops.clone();
    assert_eq!(WarpCtx::new(ops, 0).registers(), 2);

    let cfg = SmConfig::titan_v(80);
    let dense = run_kernel_mode(&two_register_kernel(1), &[0], cfg.clone(), false);
    for reference in [false, true] {
        let stats = run_kernel_mode(&sparse, &[0], cfg.clone(), reference);
        assert_eq!(stats, dense, "reference={reference}");
    }
    assert_eq!(dense.ctas_run, 1);
    assert!(dense.issued_mma == 4 && dense.issued_tensor_loads == 4);
}
