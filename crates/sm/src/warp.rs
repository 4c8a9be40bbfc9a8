//! Per-warp execution state: program counter, scoreboard, register
//! bindings.
//!
//! A warp renames its registers at launch to their rank among the distinct
//! registers its instruction stream names (`%r3, %r9, %r65535` become
//! `%r0, %r1, %r2`), so the scoreboard and the bindings are dense arrays
//! with one slot per distinct register, indexed by the renamed number. The
//! renaming keeps register order, and no statistic names a register, so
//! it changes nothing the simulation reports.
//!
//! A warp also caches its *issue cycle* ([`WarpCtx::issue_at`]): the cycle
//! from which its next op's registers are all ready. It is recomputed only
//! where the scoreboard or the program counter moves (launch,
//! [`WarpCtx::advance`], [`WarpCtx::resolve_pending`]), so the schedulers
//! test readiness with one compare instead of walking the op's operands.

use duplo_core::PhysReg;
use duplo_isa::{ArchReg, Op};

/// Scoreboard entry: the cycle at which a register's pending write
/// completes (`u64::MAX` while the completion time is unknown, e.g. an
/// in-flight load; `0` when nothing was ever pending).
pub type ReadyCycle = u64;

/// One resident warp.
#[derive(Clone, Debug)]
pub struct WarpCtx {
    /// Instruction stream, registers renamed to slot numbers.
    pub ops: Vec<Op>,
    /// Next instruction index.
    pub pc: usize,
    /// Local slot of the CTA this warp belongs to.
    pub cta_slot: usize,
    /// True once `Exit` has been issued.
    pub done: bool,
    /// True while waiting at a barrier.
    pub at_barrier: bool,
    /// Pending register writes: completion cycle per register slot.
    pub(crate) pending: Vec<ReadyCycle>,
    /// Current physical row slots bound to each register slot (empty while
    /// unbound).
    pub(crate) bindings: Vec<Vec<PhysReg>>,
    /// The cycle from which the op at `pc` has every register it waits on
    /// ready (see [`WarpCtx::issue_at`]).
    issue_at: ReadyCycle,
}

/// The register fields of `op`.
fn reg_fields(op: &mut Op) -> [Option<&mut ArchReg>; 4] {
    match op {
        Op::WmmaMma { d, a, b, c } => [Some(d), Some(a), Some(b), Some(c)],
        Op::WmmaLoad { dst, .. } | Op::Ld { dst, .. } => [Some(dst), None, None, None],
        Op::WmmaStore { src, .. } | Op::St { src, .. } => [Some(src), None, None, None],
        Op::Alu { dst, .. } => [dst.as_mut(), None, None, None],
        Op::Bar | Op::Exit => [None, None, None, None],
    }
}

impl WarpCtx {
    /// Creates a warp over `ops`, renaming its registers to slot numbers
    /// (see the module docs).
    pub fn new(mut ops: Vec<Op>, cta_slot: usize) -> WarpCtx {
        let mut regs: Vec<u16> = ops
            .iter_mut()
            .flat_map(reg_fields)
            .flatten()
            .map(|r| r.0)
            .collect();
        regs.sort_unstable();
        regs.dedup();
        for r in ops.iter_mut().flat_map(reg_fields).flatten() {
            let slot = regs.binary_search(&r.0).expect("collected above");
            r.0 = slot as u16;
        }
        let mut warp = WarpCtx {
            ops,
            pc: 0,
            cta_slot,
            done: false,
            at_barrier: false,
            pending: vec![0; regs.len()],
            bindings: vec![Vec::new(); regs.len()],
            issue_at: 0,
        };
        warp.refresh_issue_at();
        warp
    }

    /// The next instruction, if the warp is still running.
    pub fn next_op(&self) -> Option<&Op> {
        if self.done || self.at_barrier {
            None
        } else {
            self.ops.get(self.pc)
        }
    }

    /// The number of distinct registers the warp names: the length of its
    /// scoreboard and of its bindings.
    pub fn registers(&self) -> usize {
        self.pending.len()
    }

    /// The cycle `reg`'s pending write completes.
    pub fn ready_at(&self, reg: ArchReg) -> ReadyCycle {
        self.pending[usize::from(reg.0)]
    }

    /// Whether every source (and the destination, WAW) of `op` is ready at
    /// `cycle`.
    pub fn deps_ready(&self, op: &Op, cycle: u64) -> bool {
        op.srcs()
            .into_iter()
            .chain([op.dst()])
            .flatten()
            .all(|r| self.ready_at(r) <= cycle)
    }

    /// Whether any register's write is still pending after `cycle` (what
    /// `Exit` waits for).
    pub fn writes_pending(&self, cycle: u64) -> bool {
        self.pending.iter().any(|&r| r > cycle)
    }

    /// The cycle from which the op at `pc` can issue as far as registers
    /// go: the latest scoreboard entry among its sources and its
    /// destination (the WAW check), or among all registers for `Exit`,
    /// which drains the scoreboard. `u64::MAX` while one of those entries
    /// is an in-flight load, or when no op is left. So for the next op,
    /// `issue_at() <= cycle` exactly when [`WarpCtx::deps_ready`] holds
    /// (and, for `Exit`, [`WarpCtx::writes_pending`] does not).
    ///
    /// Not refreshed by [`WarpCtx::mark_pending`]: an issue marks its
    /// destination and then calls [`WarpCtx::advance`], which refreshes.
    pub fn issue_at(&self) -> ReadyCycle {
        self.issue_at
    }

    fn refresh_issue_at(&mut self) {
        self.issue_at = match self.ops.get(self.pc) {
            None => u64::MAX,
            Some(Op::Exit) => self.pending.iter().copied().max().unwrap_or(0),
            Some(op) => op
                .srcs()
                .into_iter()
                .chain([op.dst()])
                .flatten()
                .map(|r| self.ready_at(r))
                .max()
                .unwrap_or(0),
        };
    }

    /// Moves past the op just issued and refreshes the issue cycle for
    /// the next one.
    pub fn advance(&mut self) {
        self.pc += 1;
        self.refresh_issue_at();
    }

    /// Marks `reg` pending until `ready`.
    pub fn mark_pending(&mut self, reg: ArchReg, ready: ReadyCycle) {
        self.pending[usize::from(reg.0)] = ready;
    }

    /// Resolves a pending write (e.g. a load completing) to a concrete
    /// cycle, refreshing the issue cycle.
    pub fn resolve_pending(&mut self, reg: ArchReg, ready: ReadyCycle) {
        self.mark_pending(reg, ready);
        self.refresh_issue_at();
    }

    /// Binds `reg` to `pregs`, returning the rows it was bound to before.
    pub fn bind(&mut self, reg: ArchReg, pregs: Vec<PhysReg>) -> Vec<PhysReg> {
        std::mem::replace(&mut self.bindings[usize::from(reg.0)], pregs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duplo_isa::Space;

    #[test]
    fn deps_block_until_ready() {
        let mma = Op::WmmaMma {
            d: ArchReg(4),
            a: ArchReg(0),
            b: ArchReg(1),
            c: ArchReg(4),
        };
        let mut w = WarpCtx::new(vec![mma, Op::Exit], 0);
        let op = *w.next_op().unwrap();
        assert!(w.deps_ready(&op, 10));
        let Op::WmmaMma { a, .. } = op else {
            unreachable!()
        };
        w.mark_pending(a, 50);
        assert!(!w.deps_ready(&op, 10));
        assert!(w.deps_ready(&op, 50));
    }

    #[test]
    fn waw_hazard_blocks() {
        let ld = Op::WmmaLoad {
            dst: ArchReg(2),
            addr: 0,
            rows: 16,
            seg_bytes: 32,
            row_stride: 64,
            space: Space::Global,
        };
        let mut w = WarpCtx::new(vec![ld, Op::Exit], 0);
        let op = *w.next_op().unwrap();
        w.mark_pending(op.dst().unwrap(), u64::MAX);
        assert!(!w.deps_ready(&op, 100), "WAW on in-flight load must block");
    }

    /// A write that completed no longer blocks its readers or `Exit`, while
    /// a later one still does.
    #[test]
    fn gc_drops_completed_entries() {
        let mma = Op::WmmaMma {
            d: ArchReg(2),
            a: ArchReg(0),
            b: ArchReg(1),
            c: ArchReg(2),
        };
        let mut w = WarpCtx::new(vec![mma, Op::Exit], 0);
        let op = *w.next_op().unwrap();
        let Op::WmmaMma { a, b, .. } = op else {
            unreachable!()
        };
        w.mark_pending(a, 10);
        assert!(!w.deps_ready(&op, 5) && w.writes_pending(5));
        assert!(w.deps_ready(&op, 50) && !w.writes_pending(50));
        w.mark_pending(b, 100);
        assert!(!w.deps_ready(&op, 50) && w.writes_pending(50));
        assert!(w.deps_ready(&op, 100) && !w.writes_pending(100));
    }

    /// Registers are renamed to their rank among the distinct registers the
    /// warp names, so a sparse register number costs one slot.
    #[test]
    fn registers_rename_to_dense_slots() {
        let ld = |r| Op::Ld {
            dst: ArchReg(r),
            addr: 0,
            bytes: 4,
            space: Space::Global,
        };
        let w = WarpCtx::new(vec![ld(65535), ld(7), ld(65535), Op::Exit], 0);
        assert_eq!((w.registers(), w.bindings.len()), (2, 2));
        let dsts: Vec<u16> = w
            .ops
            .iter()
            .filter_map(|op| op.dst())
            .map(|r| r.0)
            .collect();
        assert_eq!(dsts, [1, 0, 1], "renaming keeps register order");
    }

    #[test]
    fn next_op_respects_barrier_and_done() {
        let mut w = WarpCtx::new(vec![Op::Bar, Op::Exit], 0);
        assert!(w.next_op().is_some());
        w.at_barrier = true;
        assert!(w.next_op().is_none());
        w.at_barrier = false;
        w.done = true;
        assert!(w.next_op().is_none());
    }
}
