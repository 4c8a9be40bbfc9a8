//! Register-file drain regression tests (the shared-path RF-row leak).
//!
//! `process_tensor_row_shared` used to discard the row it re-allocated
//! after `force_retire` under register-file pressure and return `Stall`
//! anyway, leaking one physical row (refcount 1, never released) per
//! pressure event. These tests drive kernels to completion under an
//! artificially small `regfile_rows` so the pressure path is guaranteed to
//! run, then assert `rf_final_rows == 0`: after the end-of-run retire
//! drain every row must be free, so any residue is a refcount leak.

use duplo_core::LhbConfig;
use duplo_isa::{ArchReg, CtaTrace, Kernel, Op, Space, WarpTrace, WorkspaceDesc};
use duplo_sm::{SmConfig, run_kernel, run_kernel_mode};
use duplo_testkit::prop::check;
use duplo_testkit::{Rng, require_eq};

struct FixedKernel {
    ctas: Vec<CtaTrace>,
    workspace: Option<WorkspaceDesc>,
}

impl Kernel for FixedKernel {
    fn name(&self) -> &str {
        "rf_drain"
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

/// One warp issuing `loads` 16-row tensor loads at unique, non-overlapping
/// addresses (all detection misses under the oracle LHB, so every row pins
/// a fresh physical register until commit-time retirement), alternating
/// between two destination registers so at most two bindings stay live.
fn pressure_kernel(loads: u64, space: Space) -> FixedKernel {
    let mut ops = Vec::new();
    for i in 0..loads {
        ops.push(Op::WmmaLoad {
            dst: ArchReg((i % 2) as u16),
            addr: 0x10_0000 + i * 512,
            rows: 16,
            seg_bytes: 32,
            row_stride: 32,
            space,
        });
    }
    ops.push(Op::Exit);
    FixedKernel {
        ctas: vec![CtaTrace {
            warps: vec![WarpTrace { ops }],
        }],
        workspace: Some(ws_desc()),
    }
}

/// 64 physical rows: 640 row allocations against a 64-row file with the
/// 4096-cycle commit delay guarantees the file fills and the
/// `force_retire` pressure path runs. Worst-case simultaneous demand (two
/// 16-row bindings + one 16-row load in flight = 48 rows) stays under the
/// cap, so the kernel cannot deadlock.
fn tiny_rf(space_shared: bool) -> SmConfig {
    let mut cfg = SmConfig::titan_v(80);
    cfg.regfile_bytes = 64 * 32;
    cfg.lhb = Some(LhbConfig::oracle());
    cfg.lhb_on_shared = space_shared;
    cfg
}

/// The headline leak: shared-memory Duplo path under RF pressure. With the
/// old code every pressure event leaked one row and `rf_final_rows` ended
/// well above zero; fixed, the re-allocated row is used and everything
/// drains.
#[test]
fn shared_path_pressure_drains_to_zero() {
    let stats = run_kernel(&pressure_kernel(40, Space::Shared), &[0], tiny_rf(true));
    assert_eq!(
        stats.rf_peak_rows, 64,
        "test must exercise the pressure path (RF full at least once)"
    );
    assert_eq!(
        stats.rf_final_rows, 0,
        "physical rows leaked on the shared Duplo path"
    );
}

/// The global path (which always handled pressure correctly) drains too —
/// the fix mirrors this behavior, so the two paths must agree.
#[test]
fn global_path_pressure_drains_to_zero() {
    let stats = run_kernel(&pressure_kernel(40, Space::Global), &[0], tiny_rf(false));
    assert_eq!(stats.rf_peak_rows, 64, "pressure path must run");
    assert_eq!(
        stats.rf_final_rows, 0,
        "physical rows leaked on the global path"
    );
}

/// The reference tick-by-tick loop sees the identical pressure behavior:
/// the fix is in the row processing, not the loop, so both loops agree on
/// `rf_peak_rows`/`rf_final_rows` exactly.
#[test]
fn pressure_path_identical_under_reference_loop() {
    let event = run_kernel(&pressure_kernel(40, Space::Shared), &[0], tiny_rf(true));
    let reference = run_kernel_mode(
        &pressure_kernel(40, Space::Shared),
        &[0],
        tiny_rf(true),
        true,
    );
    assert_eq!(event, reference);
}

/// Without pressure (the full 8192-row Titan V file) the same kernel never
/// fills the RF — the fix is pressure-path-only, so the unpressured run
/// must stay below the cap and still drain to zero.
#[test]
fn no_pressure_run_never_fills_rf_and_drains() {
    let mut cfg = SmConfig::titan_v(80);
    cfg.lhb = Some(LhbConfig::oracle());
    cfg.lhb_on_shared = true;
    let stats = run_kernel(&pressure_kernel(40, Space::Shared), &[0], cfg.clone());
    assert!(
        stats.rf_peak_rows < cfg.regfile_rows(),
        "8192-row file must never fill on this kernel (peak {})",
        stats.rf_peak_rows
    );
    assert_eq!(stats.rf_final_rows, 0);
}

/// Property: random mixed kernels (hits, misses, evictions, barriers,
/// stores) under a small register file always drain to exactly zero rows.
#[test]
fn random_kernels_under_small_rf_drain_to_zero() {
    #[derive(Debug)]
    struct Case {
        seed: Vec<(u8, u8)>,
        warps: usize,
        shared: bool,
    }
    fn arb(rng: &mut Rng) -> Option<Case> {
        let len = rng.gen_range(4usize..48);
        Some(Case {
            seed: (0..len)
                .map(|_| (rng.gen_range(0u8..4), rng.gen_range(0u8..=255)))
                .collect(),
            warps: rng.gen_range(1usize..4),
            shared: rng.gen_bool(0.5),
        })
    }
    fn build(case: &Case) -> FixedKernel {
        let mut warps = Vec::new();
        for w in 0..case.warps {
            let mut ops = Vec::new();
            for (i, (kind, arg)) in case.seed.iter().enumerate() {
                match kind % 4 {
                    0 | 1 => ops.push(Op::WmmaLoad {
                        dst: ArchReg(u16::from(arg % 4)),
                        addr: 0x10_0000 + u64::from(*arg) * 288 + (w as u64) * 64,
                        rows: 4 + (arg % 12),
                        seg_bytes: 32,
                        row_stride: 288,
                        space: if case.shared && arg % 2 == 0 {
                            Space::Shared
                        } else {
                            Space::Global
                        },
                    }),
                    2 => ops.push(Op::WmmaMma {
                        d: ArchReg(8),
                        a: ArchReg(u16::from(arg % 4)),
                        b: ArchReg(u16::from((arg / 4) % 4)),
                        c: ArchReg(8),
                    }),
                    _ => ops.push(Op::St {
                        src: ArchReg(8),
                        addr: 0x10_0000 + u64::from(*arg) * 288,
                        bytes: 64,
                        space: Space::Global,
                    }),
                }
                if i % 9 == 8 {
                    ops.push(Op::Bar);
                }
            }
            ops.push(Op::Exit);
            warps.push(WarpTrace { ops });
        }
        FixedKernel {
            ctas: vec![CtaTrace { warps }],
            workspace: Some(ws_desc()),
        }
    }
    check(
        "random_kernels_under_small_rf_drain_to_zero",
        32,
        arb,
        |case| {
            // 384 rows: small enough that load bursts hit the pressure path,
            // large enough that worst-case binding demand (3 warps x 4 regs x
            // 16 rows = 192) plus in-flight rows cannot deadlock.
            let mut cfg = SmConfig::titan_v(80);
            cfg.regfile_bytes = 384 * 32;
            cfg.lhb = Some(LhbConfig::direct_mapped(64));
            cfg.lhb_on_shared = case.shared;
            let stats = run_kernel(&build(case), &[0], cfg);
            require_eq!(stats.rf_final_rows, 0, "rows leaked: {stats:#?}");
            Ok(())
        },
    );
}
