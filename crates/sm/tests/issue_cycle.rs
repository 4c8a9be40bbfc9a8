//! The cached issue cycle of a warp against its scoreboard: after every
//! launch, issue and load resolution, `issue_at() <= c` must hold exactly
//! when the next op's registers are all ready at `c` (`deps_ready`, and for
//! `Exit` no write pending), at every cycle where that answer can flip.
//!
//! Runs on the hermetic `duplo_testkit::prop` runner; set `DUPLO_TEST_SEED`
//! to reproduce a failure.

use duplo_isa::{ArchReg, Op, Space};
use duplo_sm::warp::WarpCtx;
use duplo_testkit::prop::check;
use duplo_testkit::{Rng, require, require_eq};

/// A register from a small sparse set, so renaming has work to do.
fn arb_reg(rng: &mut Rng) -> ArchReg {
    ArchReg(rng.gen_range(0u16..5) * 7)
}

fn arb_op(rng: &mut Rng) -> Op {
    let space = Space::Global;
    match rng.gen_range(0u32..9) {
        0 => Op::Alu {
            dst: rng.gen_bool(0.8).then(|| arb_reg(rng)),
            latency: rng.gen_range(1u8..8),
        },
        1 => Op::WmmaMma {
            d: arb_reg(rng),
            a: arb_reg(rng),
            b: arb_reg(rng),
            c: arb_reg(rng),
        },
        2 => Op::WmmaLoad {
            dst: arb_reg(rng),
            addr: 0,
            rows: 16,
            seg_bytes: 32,
            row_stride: 64,
            space,
        },
        3 => Op::Ld {
            dst: arb_reg(rng),
            addr: 0,
            bytes: 4,
            space,
        },
        4 => Op::WmmaStore {
            src: arb_reg(rng),
            addr: 0,
            rows: 16,
            seg_bytes: 32,
            row_stride: 64,
            space,
        },
        5 => Op::St {
            src: arb_reg(rng),
            addr: 0,
            bytes: 4,
            space,
        },
        6 => Op::Bar,
        _ => Op::Exit,
    }
}

#[derive(Debug)]
enum Step {
    /// A fresh warp over the case's ops.
    Launch,
    /// Issues the next op at `cycle`: its destination turns pending (until
    /// `cycle + latency` for ALU and MMA ops, in flight for loads), then
    /// the program counter advances.
    Issue { cycle: u64, latency: u64 },
    /// The `k`-th in-flight load lands at `ready`.
    Resolve { k: usize, ready: u64 },
}

#[derive(Debug)]
struct Case {
    ops: Vec<Op>,
    steps: Vec<Step>,
}

fn arb_case(rng: &mut Rng) -> Option<Case> {
    let ops = (0..rng.gen_range(1usize..24))
        .map(|_| arb_op(rng))
        .chain([Op::Exit])
        .collect();
    let steps = (0..rng.gen_range(1usize..60))
        .map(|_| match rng.gen_range(0u32..10) {
            0 => Step::Launch,
            1..=5 => Step::Issue {
                cycle: rng.gen_range(0u64..100),
                latency: rng.gen_range(1u64..20),
            },
            _ => Step::Resolve {
                k: rng.gen_index(4),
                ready: rng.gen_range(0u64..150),
            },
        })
        .collect();
    Some(Case { ops, steps })
}

fn issue(w: &mut WarpCtx, cycle: u64, latency: u64) {
    let Some(&op) = w.ops.get(w.pc) else {
        return;
    };
    match op {
        Op::WmmaLoad { dst, .. } | Op::Ld { dst, .. } => w.mark_pending(dst, u64::MAX),
        Op::Alu { dst: Some(d), .. } | Op::WmmaMma { d, .. } => w.mark_pending(d, cycle + latency),
        _ => {}
    }
    w.advance();
}

fn scoreboard(w: &WarpCtx) -> Vec<u64> {
    (0..w.registers())
        .map(|r| w.ready_at(ArchReg(r as u16)))
        .collect()
}

/// Checks the issue cycle against the scoreboard at cycle 0, around every
/// scoreboard entry, and at the last cycle before "never".
fn issue_cycle_is_exact(w: &WarpCtx) -> Result<(), String> {
    let Some(op) = w.ops.get(w.pc) else {
        require_eq!(w.issue_at(), u64::MAX, "no op left, pc {}", w.pc);
        return Ok(());
    };
    let entries = scoreboard(w);
    let mut cycles = vec![0, u64::MAX - 1];
    for &e in entries.iter().filter(|&&e| e != u64::MAX) {
        cycles.extend([e.saturating_sub(1), e, e + 1]);
    }
    for c in cycles {
        let ready = w.deps_ready(op, c) && !(matches!(op, Op::Exit) && w.writes_pending(c));
        require!(
            (w.issue_at() <= c) == ready,
            "pc {} op {op:?}: issue_at {} but ready at {c} is {ready} (scoreboard {entries:?})",
            w.pc,
            w.issue_at()
        );
    }
    Ok(())
}

#[test]
fn issue_cycle_tracks_the_scoreboard() {
    check("issue_cycle_tracks_the_scoreboard", 256, arb_case, |case| {
        let mut w = WarpCtx::new(case.ops.clone(), 0);
        issue_cycle_is_exact(&w)?;
        for (i, step) in case.steps.iter().enumerate() {
            match *step {
                Step::Launch => w = WarpCtx::new(case.ops.clone(), 0),
                Step::Issue { cycle, latency } => issue(&mut w, cycle, latency),
                Step::Resolve { k, ready } => {
                    let in_flight: Vec<u16> = (0..w.registers() as u16)
                        .filter(|&r| w.ready_at(ArchReg(r)) == u64::MAX)
                        .collect();
                    if !in_flight.is_empty() {
                        w.resolve_pending(ArchReg(in_flight[k % in_flight.len()]), ready);
                    }
                }
            }
            issue_cycle_is_exact(&w).map_err(|e| format!("step {i} ({step:?}): {e}"))?;
        }
        Ok(())
    });
}
