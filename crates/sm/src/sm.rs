//! The SM execution engine: schedulers, tensor cores, LDST pipes, and the
//! Duplo detection unit, advanced cycle by cycle.
//!
//! # The event-driven tick loop
//!
//! [`Sm::tick`] normally advances one cycle at a time, but when a tick
//! makes no progress (nothing issued, no LDST row processed, no retire, no
//! barrier released) the SM consults a wakeup wheel ([`Sm::next_wake`]):
//! if every scheduler and every LDST pipe is *provably* blocked until some
//! future cycle, the loop attributes the intervening cycles to the exact
//! stall buckets the tick-by-tick loop would have charged
//! ([`Sm::attribute_skipped`]) and jumps `cycle` there in one step. The
//! invariants that make the jump sound:
//!
//! * **Completeness of the event set.** The wake cycle is the minimum over
//!   every threshold that could change any unit's state or its stall
//!   classification: each dep-blocked candidate's finite issue cycle
//!   ([`WarpCtx::issue_at`], the one cycle its class can flip; a candidate
//!   waiting on an in-flight load has none, and the load lands on a walked
//!   tick), tensor-core free cycles on schedulers with a dep-ready MMA
//!   candidate, the retire-queue head, the earliest outstanding MSHR fill
//!   (for MSHR-blocked pipes), and the next trace-sample boundary.
//! * **No side-effecting retries are skipped.** An LDST head that could
//!   progress — or whose retry has side effects (register-file pressure
//!   force-retires) — forces the tick-by-tick path; only MSHR-full
//!   rejections, whose retry is idempotent, may be fast-forwarded.
//! * **Exact attribution.** Each scheduler's classification is constant
//!   across the skipped interval (every classification-changing threshold
//!   is itself a wake event), so `issued + stalls == cycles × schedulers`
//!   holds bit-exactly and [`SmStats`] is byte-identical to the reference
//!   loop — the `event_skip` equivalence suite pins this.
//!
//! Pass `reference: true` to [`run_kernel_mode`] (or call
//! [`Sm::set_event_skip`]) to run the tick-by-tick reference loop instead;
//! the choice is made per run, so runs in both modes can share a process.

use crate::config::{SchedulerPolicy, SmConfig};
use crate::ldst::{Inflight, LdstUnit, MemKind};
use crate::regfile::PhysRegFile;
use crate::stats::{SmStats, StallBreakdown};
use crate::trace::{SmGauges, SmSample, SmTraceData, SmTracer, TraceSpec};
use crate::warp::{ReadyCycle, WarpCtx};
use duplo_core::{DetectionUnit, LoadDecision, LoadToken, PhysReg};
use duplo_isa::{CtaTrace, Kernel, Op, Space};
use duplo_mem::MemoryHierarchy;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// Simulated cycles accumulated by every `run_kernel*` call in this
/// process (all SMs, all runs), read through [`loop_profile`].
static SIM_CYCLES: AtomicU64 = AtomicU64::new(0);

/// Event-wheel fast-forwards taken across every `run_kernel*` call
/// (loop-profile counter; never part of [`SmStats`], so the event and
/// reference loops still produce byte-identical statistics).
static SIM_SKIPS: AtomicU64 = AtomicU64::new(0);

/// Cycles covered by those fast-forwards (the reference loop would have
/// walked them tick by tick).
static SIM_SKIPPED_CYCLES: AtomicU64 = AtomicU64::new(0);

/// `run_kernel*` invocations (== `drive` calls) so far.
static SIM_RUNS: AtomicU64 = AtomicU64::new(0);

/// Process-wide SM-loop profile: how the event-driven loop earned its
/// keep. Sampled coarsely — the counters are accumulated once per
/// `run_kernel*` call, never per tick — so reading them costs nothing on
/// the hot path. All totals are deterministic at any thread count (sums
/// over per-SM values in deterministic order).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LoopProfile {
    /// Simulated cycles.
    pub cycles: u64,
    /// Event-wheel fast-forwards taken.
    pub skips_taken: u64,
    /// Cycles covered by those fast-forwards.
    pub cycles_skipped: u64,
    /// Cycles actually walked tick by tick (`cycles - cycles_skipped`).
    pub ticks_walked: u64,
    /// `run_kernel*` invocations.
    pub runs: u64,
}

/// Current process-wide SM-loop profile.
pub fn loop_profile() -> LoopProfile {
    let cycles = SIM_CYCLES.load(Ordering::Relaxed);
    let cycles_skipped = SIM_SKIPPED_CYCLES.load(Ordering::Relaxed);
    LoopProfile {
        cycles,
        skips_taken: SIM_SKIPS.load(Ordering::Relaxed),
        cycles_skipped,
        ticks_walked: cycles.saturating_sub(cycles_skipped),
        runs: SIM_RUNS.load(Ordering::Relaxed),
    }
}

#[derive(Clone, Debug)]
struct CtaState {
    live_warps: usize,
    at_barrier: usize,
    shared_bytes: u32,
}

/// The simulated SM.
pub struct Sm {
    config: SmConfig,
    cycle: u64,
    warps: Vec<Option<WarpCtx>>,
    /// Each warp slot's [`WarpCtx::issue_at`], mirrored densely so the
    /// schedulers and the event wheel test readiness without touching the
    /// warp; stale for empty slots, which no mask selects.
    issue_at: Vec<ReadyCycle>,
    /// Empty slots of `warps`.
    free_warps: usize,
    /// Per-scheduler resident warps in launch order, oldest first (the GTO
    /// order), each as its bit in the scheduler's masks.
    order: Vec<Vec<usize>>,
    ctas: Vec<Option<CtaState>>,
    /// Empty slots of `ctas`.
    free_ctas: usize,
    /// The CTA that last failed to launch for want of warp slots, with its
    /// trace, kept so the retry every tick does not regenerate it.
    waiting: Option<(usize, CtaTrace)>,
    shared_in_use: u32,
    ldst: Vec<LdstUnit>,
    tc_busy: Vec<Vec<u64>>,
    /// Per-scheduler mask bit of the warp that issued last.
    last_issued: Vec<Option<usize>>,
    regfile: PhysRegFile,
    hierarchy: MemoryHierarchy,
    detect: Option<DetectionUnit>,
    retire_queue: BinaryHeap<Reverse<(u64, u64)>>,
    next_token: u64,
    /// preg -> fill address, for the rename validation log.
    fill_addr: HashMap<u32, u64>,
    stats: SmStats,
    /// Cycle-resolved trace recorder; `None` (the default) costs one
    /// branch per tick and nothing else.
    tracer: Option<Box<SmTracer>>,
    /// Event-driven fast-forward enabled (the default); the tick-by-tick
    /// reference loop runs when false.
    event_skip: bool,
    /// Whether the current tick retired, issued, processed a row, or
    /// released a barrier — cleared at tick start, gates the wakeup wheel.
    progress: bool,
    /// Event-wheel fast-forwards this SM took (loop profile; kept out of
    /// [`SmStats`] so event and reference runs stay stat-identical).
    skips_taken: u64,
    /// Cycles those fast-forwards covered.
    cycles_skipped: u64,
    /// Recycled `Inflight::pregs` vectors.
    preg_pool: Vec<Vec<PhysReg>>,
    /// Recycled `Inflight::tokens` vectors.
    token_pool: Vec<Vec<LoadToken>>,
    /// Per-scheduler runnable-warp mask: bit `b` of entry `s` covers warp
    /// slot `b * schedulers + s` — set while the warp is resident and not
    /// parked at a barrier.
    run_mask: Vec<u64>,
    /// Per-scheduler barrier mask: resident warps parked at a barrier.
    barrier_mask: Vec<u64>,
}

/// What happened when the LDST pipe processed one row.
enum RowOutcome {
    Stall,
    Done {
        ready: u64,
        preg: Option<PhysReg>,
        token: Option<LoadToken>,
    },
}

/// Applies the scheduler's stall-classification priority: the cycle is
/// charged to the most actionable cause among the blocked candidates.
/// Shared by the per-tick path (`n == 1`) and the fast-forward attribution
/// so the two can never drift apart.
fn classify_stall(stalls: &mut StallBreakdown, blocked: &StallBreakdown, n: u64) {
    if blocked.ldst_full > 0 {
        stalls.ldst_full += n;
    } else if blocked.tensor_busy > 0 {
        stalls.tensor_busy += n;
    } else if blocked.data_dependency > 0 {
        stalls.data_dependency += n;
    } else {
        stalls.barrier += n;
    }
}

impl Sm {
    /// Creates an SM for a kernel (programs the detection unit when the
    /// kernel carries a workspace descriptor and the config enables Duplo).
    pub fn new(config: SmConfig, kernel: &dyn Kernel) -> Sm {
        assert!(
            config.max_warps <= 64 * config.schedulers,
            "max_warps ({}) must fit the bit-packed per-scheduler warp \
             masks (64 x {} schedulers)",
            config.max_warps,
            config.schedulers
        );
        let detect = match (&config.lhb, kernel.workspace()) {
            (Some(lhb), Some(desc)) => {
                let mut du = DetectionUnit::new(&desc, *lhb, 0);
                du.latency = config.detect_latency;
                Some(du)
            }
            _ => None,
        };
        let hierarchy = MemoryHierarchy::new(config.hierarchy);
        Sm {
            ldst: (0..config.schedulers)
                .map(|_| LdstUnit::new(config.ldst_queue))
                .collect(),
            tc_busy: (0..config.schedulers)
                .map(|_| vec![0u64; config.tensor_cores_per_scheduler()])
                .collect(),
            last_issued: vec![None; config.schedulers],
            warps: (0..config.max_warps).map(|_| None).collect(),
            issue_at: vec![u64::MAX; config.max_warps],
            free_warps: config.max_warps,
            order: vec![Vec::new(); config.schedulers],
            ctas: (0..config.max_ctas).map(|_| None).collect(),
            free_ctas: config.max_ctas,
            waiting: None,
            shared_in_use: 0,
            regfile: PhysRegFile::new(config.regfile_rows()),
            hierarchy,
            detect,
            retire_queue: BinaryHeap::new(),
            next_token: 1,
            fill_addr: HashMap::new(),
            stats: SmStats::default(),
            tracer: None,
            cycle: 0,
            event_skip: true,
            progress: false,
            skips_taken: 0,
            cycles_skipped: 0,
            preg_pool: Vec::new(),
            token_pool: Vec::new(),
            run_mask: vec![0; config.schedulers],
            barrier_mask: vec![0; config.schedulers],
            config,
        }
    }

    /// Selects the event-driven fast-forward loop (`true`, the default) or
    /// the tick-by-tick reference loop (`false`). Statistics are identical
    /// either way; only wall-clock time differs.
    pub fn set_event_skip(&mut self, on: bool) {
        self.event_skip = on;
    }

    /// Attaches a cycle-resolved trace recorder; samples are taken every
    /// `spec.interval` cycles from the next tick on.
    pub fn attach_tracer(&mut self, spec: TraceSpec) {
        self.tracer = Some(Box::new(SmTracer::new(spec)));
    }

    /// Attempts to launch CTA `idx` of `kernel`; returns `false` when SM
    /// resources (CTA slots, warp slots, shared memory) are exhausted.
    /// A CTA refused for want of warp slots keeps its trace until the
    /// same index is tried again, so each trace is generated once.
    pub fn try_launch(&mut self, kernel: &dyn Kernel, idx: usize) -> bool {
        let shared = kernel.shared_mem_per_cta();
        if self.shared_in_use + shared > self.config.shared_mem_bytes || self.free_ctas == 0 {
            return false;
        }
        let trace = match self.waiting.take() {
            Some((i, trace)) if i == idx => trace,
            _ => kernel.cta(idx),
        };
        if self.free_warps < trace.warps.len() {
            self.waiting = Some((idx, trace));
            return false;
        }
        let cta_slot = self
            .ctas
            .iter()
            .position(|c| c.is_none())
            .expect("counted a free CTA slot");
        self.free_ctas -= 1;
        self.ctas[cta_slot] = Some(CtaState {
            live_warps: trace.warps.len(),
            at_barrier: 0,
            shared_bytes: shared,
        });
        self.shared_in_use += shared;
        let launch_cycle = self.cycle;
        if let Some(t) = self.tracer.as_mut() {
            t.cta_begin(cta_slot, idx, launch_cycle);
        }
        let scheds = self.config.schedulers;
        for wt in trace.warps {
            let slot = self
                .warps
                .iter()
                .position(|w| w.is_none())
                .expect("checked free slots");
            let warp = WarpCtx::new(wt.ops, cta_slot);
            self.issue_at[slot] = warp.issue_at();
            self.warps[slot] = Some(warp);
            self.free_warps -= 1;
            let (s, b) = (slot % scheds, slot / scheds);
            self.run_mask[s] |= 1 << b;
            self.order[s].push(b);
        }
        true
    }

    /// Whether all work (warps + LDST pipes) has drained.
    pub fn idle(&self) -> bool {
        self.free_warps == self.warps.len() && self.ldst.iter().all(|u| u.is_empty())
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advances the SM by at least one cycle; when nothing progressed and
    /// every unit is provably blocked, fast-forwards to the next event
    /// (see the module docs for the invariants).
    pub fn tick(&mut self) {
        self.cycle += 1;
        self.progress = false;
        // 1. Retire loads whose commit window has passed.
        while let Some(&Reverse((when, token))) = self.retire_queue.peek() {
            if when > self.cycle {
                break;
            }
            self.retire_queue.pop();
            self.progress = true;
            if let Some(du) = self.detect.as_mut() {
                if let Some(p) = du.retire(LoadToken(token)) {
                    self.regfile.release(p);
                }
            }
        }
        // 2. LDST pipes process one row each.
        for s in 0..self.config.schedulers {
            self.tick_ldst(s);
        }
        // 3. Schedulers issue.
        for s in 0..self.config.schedulers {
            self.tick_scheduler(s);
        }
        // 4. Barrier resolution.
        self.resolve_barriers();
        // 5. Trace sampling (detached while the sample borrows the SM).
        if let Some(mut t) = self.tracer.take() {
            if self.cycle % t.spec.interval == 0 {
                t.push_sample(self.sample_now());
            }
            self.tracer = Some(t);
        }
        // 6. Event-driven fast-forward: on a no-progress tick, jump to the
        // cycle before the next event, charging the interval to the same
        // stall buckets the tick-by-tick loop would have.
        if self.event_skip && !self.progress {
            if let Some(wake) = self.next_wake() {
                let skipped = wake - self.cycle - 1;
                if skipped > 0 {
                    self.attribute_skipped(skipped);
                    self.cycle += skipped;
                    self.skips_taken += 1;
                    self.cycles_skipped += skipped;
                }
            }
        }
    }

    /// The earliest cycle after the current one at which any unit's state
    /// or stall classification can change, or `None` when some unit could
    /// make progress next cycle (or has a retry with side effects, or no
    /// finite event exists) — callers must then tick cycle by cycle.
    fn next_wake(&mut self) -> Option<u64> {
        let c = self.cycle;
        let mut wake = u64::MAX;
        // LDST pipes. Only a global-load head rejected by a full MSHR file
        // is provably stuck — and its retry is idempotent; it wakes when
        // the earliest outstanding fill lands. Every other head (shared
        // rows, stores, register-file-pressure retries whose force-retire
        // pops have side effects) must be retried every cycle.
        for s in 0..self.config.schedulers {
            let Some(head) = self.ldst[s].head() else {
                continue;
            };
            let mshr_gated = head.space == Space::Global
                && matches!(head.kind, MemKind::TensorLoad | MemKind::ScalarLoad);
            if !mshr_gated || self.hierarchy.can_accept(c) {
                return None;
            }
            wake = wake.min(self.hierarchy.next_mshr_fill(c)?);
        }
        // Retire-queue head: retirement releases registers and LHB
        // entries, which can change what the pipes do when they resume.
        if let Some(&Reverse((when, _))) = self.retire_queue.peek() {
            wake = wake.min(when);
        }
        // Scheduler candidates: a dep-blocked candidate's only threshold is
        // its issue cycle (unknown while a load is in flight, which the
        // load's own landing resolves first); a ready candidate that could
        // issue forbids the jump, and a ready MMA makes the tensor cores'
        // free cycles thresholds.
        for s in 0..self.config.schedulers {
            let mut ready_mma = false;
            let mut m = self.run_mask[s];
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                let w = b * self.config.schedulers + s;
                let at = self.issue_at[w];
                if at > c {
                    if at != u64::MAX {
                        wake = wake.min(at);
                    }
                    continue;
                }
                match self.ready_op(w) {
                    Op::WmmaMma { .. } => {
                        ready_mma = true;
                        if self.tc_busy[s].iter().any(|&busy| busy <= c) {
                            return None;
                        }
                    }
                    Op::WmmaLoad { .. } | Op::WmmaStore { .. } | Op::Ld { .. } | Op::St { .. } => {
                        if self.ldst[s].can_accept() {
                            return None;
                        }
                        // Ready but queue-full: the queue drains only via
                        // its head, whose wake (MSHR fill) or tick-by-tick
                        // verdict was computed above.
                    }
                    _ => return None,
                }
            }
            if ready_mma {
                for &busy in &self.tc_busy[s] {
                    if busy > c {
                        wake = wake.min(busy);
                    }
                }
            }
        }
        // Trace samples read live gauges, so a sample boundary is an event.
        if let Some(t) = &self.tracer {
            wake = wake.min((c / t.spec.interval + 1) * t.spec.interval);
        }
        if wake == u64::MAX || wake <= c + 1 {
            None
        } else {
            Some(wake)
        }
    }

    /// Charges `skipped` fully-blocked cycles to the stall buckets each
    /// scheduler (and each stalled LDST pipe) accrues per blocked cycle.
    /// Only valid right after [`Sm::next_wake`] returned a wake cycle: the
    /// classification is then constant across the interval.
    fn attribute_skipped(&mut self, skipped: u64) {
        let c = self.cycle;
        let scheds = self.config.schedulers;
        for s in 0..scheds {
            if self.run_mask[s] == 0 {
                if self.barrier_mask[s] != 0 {
                    self.stats.stalls.barrier += skipped;
                } else {
                    self.stats.stalls.empty += skipped;
                }
                continue;
            }
            let mut blocked = StallBreakdown::default();
            let mut m = self.run_mask[s];
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                let w = b * scheds + s;
                if self.issue_at[w] > c {
                    blocked.data_dependency += 1;
                    continue;
                }
                match self.ready_op(w) {
                    Op::WmmaMma { .. } => blocked.tensor_busy += 1,
                    Op::WmmaLoad { .. } | Op::WmmaStore { .. } | Op::Ld { .. } | Op::St { .. } => {
                        blocked.ldst_full += 1
                    }
                    _ => unreachable!("issuable candidate survived next_wake"),
                }
            }
            classify_stall(&mut self.stats.stalls, &blocked, skipped);
        }
        // Every non-empty pipe is head-stalled across the interval
        // (guaranteed by next_wake), accruing one pipe stall per cycle.
        for s in 0..scheds {
            if !self.ldst[s].is_empty() {
                self.stats.ldst_pipe_stalls += skipped;
            }
        }
    }

    /// Snapshots the run so far: its statistics, completed as
    /// [`Sm::into_stats_and_trace`] completes the final ones (the rename
    /// log is not copied), and the live memory gauges.
    fn sample_now(&mut self) -> SmSample {
        let rename_pairs = std::mem::take(&mut self.stats.rename_pairs);
        let mut stats = self.stats.clone();
        self.stats.rename_pairs = rename_pairs;
        self.complete_stats(&mut stats);
        let (slice_backlog_max, slice_backlog_sum, hot_slice) =
            self.hierarchy.slice_backlogs(self.cycle);
        SmSample {
            cycle: self.cycle,
            stats,
            gauges: SmGauges {
                mshr_occupancy: self.hierarchy.mshr_occupancy(self.cycle) as u64,
                l2_backlog: self.hierarchy.l2_port_backlog(self.cycle),
                dram_backlog: self.hierarchy.dram_backlog(self.cycle),
                slice_backlog_max,
                slice_backlog_sum,
                hot_slice: hot_slice as u64,
            },
        }
    }

    /// Fills in the statistics kept outside `self.stats`: the cycle count,
    /// the register-file peak, and the detection-unit, LHB and memory-side
    /// counters.
    fn complete_stats(&self, stats: &mut SmStats) {
        stats.cycles = self.cycle;
        stats.rf_peak_rows = self.regfile.peak();
        if let Some(du) = &self.detect {
            stats.detect = du.stats();
            stats.lhb = du.lhb_stats();
        }
        stats.mem = self.hierarchy.stats();
        stats.slices = self.hierarchy.slice_stats();
    }

    fn resolve_barriers(&mut self) {
        // A CTA can release only if one of its warps is parked.
        if self.barrier_mask.iter().all(|&m| m == 0) {
            return;
        }
        let scheds = self.config.schedulers;
        for cta_slot in 0..self.ctas.len() {
            let release = match &self.ctas[cta_slot] {
                Some(c) => c.at_barrier > 0 && c.at_barrier == c.live_warps,
                None => false,
            };
            if release {
                for w in 0..self.warps.len() {
                    let Some(wc) = self.warps[w].as_mut() else {
                        continue;
                    };
                    if wc.cta_slot == cta_slot && wc.at_barrier {
                        wc.at_barrier = false;
                        let bit = 1u64 << (w / scheds);
                        self.barrier_mask[w % scheds] &= !bit;
                        self.run_mask[w % scheds] |= bit;
                    }
                }
                self.ctas[cta_slot].as_mut().expect("checked").at_barrier = 0;
                self.progress = true;
            }
        }
    }

    /// Scheduler `s` tries to issue one instruction (GTO or LRR order).
    /// Candidates are walked in policy order; one whose issue cycle lies
    /// ahead costs a compare, and only dep-ready ones decode their op.
    fn tick_scheduler(&mut self, s: usize) {
        let run = self.run_mask[s];
        if run == 0 {
            // Attribute the idle slot: a scheduler whose live warps are all
            // parked at a barrier is stalled on synchronization, not empty.
            if self.barrier_mask[s] != 0 {
                self.stats.stalls.barrier += 1;
            } else {
                self.stats.stalls.empty += 1;
            }
            return;
        }
        let mut blocked = StallBreakdown::default();
        let issued = match self.config.policy {
            SchedulerPolicy::Gto => {
                // Greedy: the last warp to issue goes first while it can
                // run; then the others oldest first (launch order). An
                // issue ends the walk, so `order` is read by index while
                // `try_candidate` may retire a warp from it.
                let last = self.last_issued[s].filter(|&b| run & (1 << b) != 0);
                last.is_some_and(|b| self.try_candidate(s, b, &mut blocked))
                    || (0..self.order[s].len()).any(|i| {
                        let b = self.order[s][i];
                        run & (1 << b) != 0
                            && Some(b) != last
                            && self.try_candidate(s, b, &mut blocked)
                    })
            }
            SchedulerPolicy::Lrr => {
                // Round robin in slot order, starting after the last warp
                // to issue: the runnable bits above its bit, then the rest.
                let (after, rest) = match self.last_issued[s] {
                    Some(lb) => {
                        let through = u64::MAX >> (63 - lb);
                        (run & !through, run & through)
                    }
                    None => (run, 0),
                };
                [after, rest].into_iter().any(|mut m| {
                    while m != 0 {
                        let b = m.trailing_zeros() as usize;
                        m &= m - 1;
                        if self.try_candidate(s, b, &mut blocked) {
                            return true;
                        }
                    }
                    false
                })
            }
        };
        if issued {
            self.progress = true;
        } else {
            // Nothing issued: classify the cycle by the most actionable
            // cause.
            classify_stall(&mut self.stats.stalls, &blocked, 1);
        }
    }

    /// Scheduler `s` tries to issue the warp at mask bit `b`; on failure,
    /// counts why in `blocked`.
    fn try_candidate(&mut self, s: usize, b: usize, blocked: &mut StallBreakdown) -> bool {
        let w = b * self.config.schedulers + s;
        if self.issue_at[w] > self.cycle {
            blocked.data_dependency += 1;
            return false;
        }
        match self.try_issue(w, s) {
            IssueResult::Issued => {
                self.last_issued[s] = Some(b);
                return true;
            }
            IssueResult::LdstFull => blocked.ldst_full += 1,
            IssueResult::TensorBusy => blocked.tensor_busy += 1,
        }
        false
    }

    /// The next op of resident warp `w`, whose issue cycle has come.
    fn ready_op(&self, w: usize) -> Op {
        let wc = self.warps[w].as_ref().expect("masked warp resident");
        *wc.next_op()
            .expect("a warp with a finite issue cycle has an op")
    }

    /// Moves resident warp `w` past the op it just issued.
    fn advance(&mut self, w: usize) {
        let wc = self.warps[w].as_mut().expect("exists");
        wc.advance();
        self.issue_at[w] = wc.issue_at();
    }

    /// Issues the next op of warp `w`, whose issue cycle has come, unless
    /// its functional unit is busy.
    fn try_issue(&mut self, w: usize, s: usize) -> IssueResult {
        let cycle = self.cycle;
        let op = self.ready_op(w);
        debug_assert!({
            let wc = self.warps[w].as_ref().expect("exists");
            wc.deps_ready(&op, cycle) && !(matches!(op, Op::Exit) && wc.writes_pending(cycle))
        });
        match op {
            Op::Alu { dst, latency } => {
                if let Some(d) = dst {
                    let wc = self.warps[w].as_mut().expect("exists");
                    wc.mark_pending(d, cycle + u64::from(latency));
                }
                self.advance(w);
                self.stats.issued_other += 1;
                IssueResult::Issued
            }
            Op::WmmaMma { d, .. } => {
                let ii = u64::from(self.config.mma_ii);
                let Some(tc) = self.tc_busy[s].iter_mut().find(|b| **b <= cycle) else {
                    return IssueResult::TensorBusy;
                };
                *tc = cycle + ii;
                let wc = self.warps[w].as_mut().expect("exists");
                // Accumulator forwarding: chained MMAs sustain the
                // initiation interval; consumers see the result after ii.
                wc.mark_pending(d, cycle + ii);
                self.advance(w);
                self.stats.issued_mma += 1;
                IssueResult::Issued
            }
            Op::Bar => {
                let wc = self.warps[w].as_mut().expect("exists");
                wc.at_barrier = true;
                let cta = wc.cta_slot;
                self.advance(w);
                let bit = 1u64 << (w / self.config.schedulers);
                self.run_mask[s] &= !bit;
                self.barrier_mask[s] |= bit;
                self.ctas[cta].as_mut().expect("live cta").at_barrier += 1;
                self.stats.issued_other += 1;
                IssueResult::Issued
            }
            Op::Exit => {
                // The issue cycle of `Exit` waited for every pending write,
                // so binding release cannot race in-flight loads.
                self.finish_warp(w);
                self.stats.issued_other += 1;
                IssueResult::Issued
            }
            Op::WmmaLoad {
                dst,
                addr,
                rows,
                seg_bytes,
                row_stride,
                space,
            } => self.issue_mem(
                w,
                s,
                MemKind::TensorLoad,
                Some(dst),
                addr,
                rows,
                seg_bytes,
                row_stride,
                space,
            ),
            Op::WmmaStore {
                src: _,
                addr,
                rows,
                seg_bytes,
                row_stride,
                space,
            } => self.issue_mem(
                w,
                s,
                MemKind::TensorStore,
                None,
                addr,
                rows,
                seg_bytes,
                row_stride,
                space,
            ),
            Op::Ld {
                dst,
                addr,
                bytes,
                space,
            } => {
                let rows = bytes.div_ceil(32).max(1) as u8;
                self.issue_mem(
                    w,
                    s,
                    MemKind::ScalarLoad,
                    Some(dst),
                    addr,
                    rows,
                    32,
                    32,
                    space,
                )
            }
            Op::St {
                src: _,
                addr,
                bytes,
                space,
            } => {
                let rows = bytes.div_ceil(32).max(1) as u8;
                self.issue_mem(w, s, MemKind::ScalarStore, None, addr, rows, 32, 32, space)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn issue_mem(
        &mut self,
        w: usize,
        s: usize,
        kind: MemKind,
        dst: Option<duplo_isa::ArchReg>,
        addr: u64,
        rows: u8,
        seg_bytes: u16,
        row_stride: u64,
        space: Space,
    ) -> IssueResult {
        if !self.ldst[s].can_accept() {
            return IssueResult::LdstFull;
        }
        if let Some(d) = dst {
            let wc = self.warps[w].as_mut().expect("exists");
            wc.mark_pending(d, u64::MAX);
        }
        self.advance(w);
        self.ldst[s].push(Inflight {
            warp: w,
            kind,
            dst,
            addr,
            rows,
            seg_bytes,
            row_stride,
            space,
            next_row: 0,
            ready: 0,
            pregs: self.preg_pool.pop().unwrap_or_default(),
            tokens: self.token_pool.pop().unwrap_or_default(),
        });
        match kind {
            MemKind::TensorLoad => self.stats.issued_tensor_loads += 1,
            _ => self.stats.issued_other += 1,
        }
        IssueResult::Issued
    }

    /// LDST pipe `s`: process one row of the head instruction.
    fn tick_ldst(&mut self, s: usize) {
        let (kind, row_addr, seg, space) = {
            let Some(head) = self.ldst[s].head_mut() else {
                return;
            };
            (
                head.kind,
                head.row_addr(head.next_row),
                u32::from(head.seg_bytes),
                head.space,
            )
        };
        match self.process_row(kind, row_addr, seg, space) {
            RowOutcome::Stall => {
                self.stats.ldst_pipe_stalls += 1;
            }
            RowOutcome::Done { ready, preg, token } => {
                self.progress = true;
                let done = {
                    let head = self.ldst[s].head_mut().expect("head exists");
                    head.next_row += 1;
                    head.ready = head.ready.max(ready);
                    if let Some(p) = preg {
                        head.pregs.push(p);
                    }
                    if let Some(t) = token {
                        head.tokens.push(t);
                    }
                    head.complete()
                };
                if done {
                    let infl = self.ldst[s].pop().expect("head exists");
                    self.finish_mem(infl);
                }
            }
        }
    }

    /// Handles one row-sector of a memory instruction.
    fn process_row(&mut self, kind: MemKind, addr: u64, seg: u32, space: Space) -> RowOutcome {
        let cycle = self.cycle;
        match (kind, space) {
            (MemKind::TensorLoad, Space::Shared)
                if self.config.lhb_on_shared && self.detect.is_some() =>
            {
                self.process_tensor_row_shared(addr, seg)
            }
            (_, Space::Shared) => {
                self.stats.services.shared += 1;
                RowOutcome::Done {
                    ready: cycle + u64::from(self.config.shared_latency),
                    preg: None,
                    token: None,
                }
            }
            (MemKind::TensorStore | MemKind::ScalarStore, Space::Global) => {
                self.hierarchy.store(cycle, addr, seg);
                if let Some(du) = self.detect.as_mut() {
                    let released = du.store(addr, u64::from(seg));
                    for p in released {
                        self.regfile.release(p);
                    }
                }
                RowOutcome::Done {
                    ready: cycle,
                    preg: None,
                    token: None,
                }
            }
            (MemKind::ScalarLoad, Space::Global) => {
                if !self.hierarchy.can_accept(cycle) {
                    return RowOutcome::Stall;
                }
                let (ready, lvl) = self
                    .hierarchy
                    .load(cycle, addr, seg)
                    .expect("can_accept checked");
                self.stats.services.count(lvl);
                RowOutcome::Done {
                    ready,
                    preg: None,
                    token: None,
                }
            }
            (MemKind::TensorLoad, Space::Global) => self.process_tensor_row(addr, seg),
        }
    }

    /// A shared-memory tensor-core load row under the implicit-GEMM
    /// extension: a detection hit replaces the shared-memory access with
    /// register renaming (2-cycle detection latency instead of the
    /// shared-memory pipeline latency); misses fall through to shared
    /// memory and allocate an entry.
    fn process_tensor_row_shared(&mut self, addr: u64, seg: u32) -> RowOutcome {
        let cycle = self.cycle;
        // Under register-file pressure, force-retire the oldest pending
        // load commitments to reclaim the rows their LHB entries pin —
        // same relief path as the global route below.
        let preg = match self.regfile.alloc() {
            Some(p) => p,
            None => {
                self.force_retire(64);
                match self.regfile.alloc() {
                    Some(p) => p,
                    None => return RowOutcome::Stall,
                }
            }
        };
        self.stats.row_loads += 1;
        let token = LoadToken(self.next_token);
        self.next_token += 1;
        let du = self.detect.as_mut().expect("checked by caller");
        match du.probe_load(addr, u64::from(seg), token) {
            LoadDecision::Hit { preg: dup } => {
                let latency = u64::from(du.latency);
                self.regfile.release(preg);
                self.regfile.addref(dup);
                self.stats.services.lhb += 1;
                self.stats.eliminated_loads += 1;
                RowOutcome::Done {
                    ready: cycle + latency,
                    preg: Some(dup),
                    token: Some(token),
                }
            }
            LoadDecision::Miss => {
                self.regfile.addref(preg);
                if let Some(displaced) = du.record_fill(addr, u64::from(seg), preg, token) {
                    self.regfile.release(displaced);
                }
                self.stats.services.shared += 1;
                RowOutcome::Done {
                    ready: cycle + u64::from(self.config.shared_latency),
                    preg: Some(preg),
                    token: Some(token),
                }
            }
            LoadDecision::Bypass => {
                self.stats.services.shared += 1;
                RowOutcome::Done {
                    ready: cycle + u64::from(self.config.shared_latency),
                    preg: Some(preg),
                    token: None,
                }
            }
        }
    }

    /// One tensor-core load row: the Duplo-eligible path.
    fn process_tensor_row(&mut self, addr: u64, seg: u32) -> RowOutcome {
        let cycle = self.cycle;
        if !self.hierarchy.can_accept(cycle) {
            return RowOutcome::Stall;
        }
        // Physical destination row (released again on an LHB hit). Under
        // register-file pressure, force-retire the oldest pending loads to
        // reclaim the rows their LHB entries pin.
        let preg = match self.regfile.alloc() {
            Some(p) => p,
            None => {
                self.force_retire(64);
                match self.regfile.alloc() {
                    Some(p) => p,
                    None => return RowOutcome::Stall,
                }
            }
        };
        self.stats.row_loads += 1;
        let token = LoadToken(self.next_token);
        self.next_token += 1;

        if let Some(du) = self.detect.as_mut() {
            match du.probe_load(addr, u64::from(seg), token) {
                LoadDecision::Hit { preg: dup } => {
                    // Cancelled L1 request still consumed an L1 probe
                    // (paper §V-H), but no state change or traffic.
                    self.regfile.release(preg);
                    self.regfile.addref(dup);
                    self.stats.services.lhb += 1;
                    self.stats.eliminated_loads += 1;
                    if self.stats.rename_pairs.len() < self.config.rename_log_cap {
                        if let Some(&src) = self.fill_addr.get(&dup.0) {
                            self.stats.rename_pairs.push((src, addr));
                        }
                    }
                    return RowOutcome::Done {
                        ready: cycle + u64::from(du.latency),
                        preg: Some(dup),
                        token: Some(token),
                    };
                }
                LoadDecision::Miss => {
                    let (ready, lvl) = self
                        .hierarchy
                        .load(cycle, addr, seg)
                        .expect("can_accept checked");
                    self.stats.services.count(lvl);
                    let mut ready = ready;
                    if self.config.octet_dup {
                        if let Some((r2, _)) = self.hierarchy.load(cycle, addr, seg) {
                            self.stats.octet_dup_l1 += 1;
                            ready = ready.max(r2);
                        }
                    }
                    // The LHB entry takes its own reference to the filled
                    // register, keeping the value alive across architectural
                    // rebinding until the entry is released (paper §IV-B).
                    self.regfile.addref(preg);
                    let du = self.detect.as_mut().expect("still present");
                    if let Some(displaced) = du.record_fill(addr, u64::from(seg), preg, token) {
                        self.regfile.release(displaced);
                    }
                    if self.config.rename_log_cap > 0 {
                        self.fill_addr.insert(preg.0, addr);
                    }
                    return RowOutcome::Done {
                        ready,
                        preg: Some(preg),
                        token: Some(token),
                    };
                }
                LoadDecision::Bypass => {}
            }
        }
        // Baseline path (no detection unit, or bypassed).
        let (ready, lvl) = self
            .hierarchy
            .load(cycle, addr, seg)
            .expect("can_accept checked");
        self.stats.services.count(lvl);
        let mut ready = ready;
        if self.config.octet_dup {
            if let Some((r2, _)) = self.hierarchy.load(cycle, addr, seg) {
                self.stats.octet_dup_l1 += 1;
                ready = ready.max(r2);
            }
        }
        RowOutcome::Done {
            ready,
            preg: Some(preg),
            token: None,
        }
    }

    /// Early-retires up to `n` of the oldest scheduled load commitments,
    /// releasing the physical rows their LHB entries pin (register-file
    /// pressure relief).
    fn force_retire(&mut self, n: usize) {
        for _ in 0..n {
            let Some(Reverse((_, token))) = self.retire_queue.pop() else {
                return;
            };
            if let Some(du) = self.detect.as_mut() {
                if let Some(p) = du.retire(LoadToken(token)) {
                    self.regfile.release(p);
                }
            }
        }
    }

    /// A memory macro-instruction finished all its rows.
    fn finish_mem(&mut self, infl: Inflight) {
        let ready = infl.ready;
        let commit = ready.saturating_add(u64::from(self.config.commit_delay));
        // Schedule commit-time retirement: the LHB entries created (or
        // relayed to) this load's tokens are released then, dropping the
        // LHB's references to the physical rows. Architectural rebinding
        // below does NOT release entries — the physical value stays alive
        // for renaming until retirement (paper §IV-B).
        for t in &infl.tokens {
            self.retire_queue.push(Reverse((commit, t.0)));
        }
        let mut tokens = infl.tokens;
        tokens.clear();
        self.token_pool.push(tokens);
        let warp_done = self.warps[infl.warp].as_ref().is_none_or(|wc| wc.done);
        if warp_done {
            // The warp exited (only possible if it had no pending regs, so
            // this cannot be a load of a live register) — drop this load's
            // own references; LHB references drain via the retire queue.
            self.release_into_pool(infl.pregs);
            return;
        }
        if let Some(dst) = infl.dst {
            let wc = self.warps[infl.warp].as_mut().expect("live warp");
            wc.resolve_pending(dst, ready);
            self.issue_at[infl.warp] = wc.issue_at();
            let old = wc.bind(dst, infl.pregs);
            self.release_into_pool(old);
        } else {
            self.release_into_pool(infl.pregs);
        }
    }

    /// Releases every row in `pregs` and recycles the vector.
    fn release_into_pool(&mut self, mut pregs: Vec<PhysReg>) {
        for &p in &pregs {
            self.regfile.release(p);
        }
        if pregs.capacity() > 0 {
            pregs.clear();
            self.preg_pool.push(pregs);
        }
    }

    /// Issues warp exit: release every binding (in register order), update
    /// CTA accounting.
    fn finish_warp(&mut self, w: usize) {
        let wc = self.warps[w].take().expect("warp exists");
        let s = w % self.config.schedulers;
        self.free_warps += 1;
        let b = w / self.config.schedulers;
        self.run_mask[s] &= !(1u64 << b);
        self.order[s].retain(|&x| x != b);
        for pregs in wc.bindings {
            self.release_into_pool(pregs);
        }
        let cta = self.ctas[wc.cta_slot].as_mut().expect("live cta");
        cta.live_warps -= 1;
        if cta.live_warps == 0 {
            self.shared_in_use -= cta.shared_bytes;
            self.ctas[wc.cta_slot] = None;
            self.free_ctas += 1;
            self.stats.ctas_run += 1;
            let cycle = self.cycle;
            if let Some(t) = self.tracer.as_mut() {
                t.cta_end(wc.cta_slot, cycle);
            }
        }
    }

    /// Finalizes and returns statistics, plus the recorded trace when a
    /// tracer was attached. The trace closes on a final sample taken here,
    /// whose stats equal the returned ones apart from the rename log.
    pub fn into_stats_and_trace(mut self) -> (SmStats, Option<SmTraceData>) {
        let trace = self.tracer.take().map(|mut t| {
            t.push_final_sample(self.sample_now());
            t.data
        });
        let mut stats = std::mem::take(&mut self.stats);
        self.complete_stats(&mut stats);
        // Drain the retire queue (counters were snapshotted above, so the
        // late retirements don't perturb reported LHB stats). Afterwards no
        // LHB entry pins a row and every warp has released its bindings, so
        // any nonzero residue is a genuine reference-count leak.
        while let Some(Reverse((_, token))) = self.retire_queue.pop() {
            if let Some(du) = self.detect.as_mut() {
                if let Some(p) = du.retire(LoadToken(token)) {
                    self.regfile.release(p);
                }
            }
        }
        stats.rf_final_rows = self.regfile.in_use();
        (stats, trace)
    }
}

enum IssueResult {
    Issued,
    LdstFull,
    TensorBusy,
}

/// Drives `sm` until all of `cta_ids` have launched and drained.
fn drive(sm: &mut Sm, kernel: &dyn Kernel, cta_ids: &[usize]) {
    let mut backlog: VecDeque<usize> = cta_ids.iter().copied().collect();
    const LIMIT: u64 = 2_000_000_000;
    loop {
        while let Some(&next) = backlog.front() {
            if sm.try_launch(kernel, next) {
                backlog.pop_front();
            } else {
                break;
            }
        }
        if backlog.is_empty() && sm.idle() {
            break;
        }
        sm.tick();
        assert!(
            sm.cycle() < LIMIT,
            "simulation exceeded {LIMIT} cycles — deadlock?"
        );
    }
    SIM_CYCLES.fetch_add(sm.cycle(), Ordering::Relaxed);
    SIM_SKIPS.fetch_add(sm.skips_taken, Ordering::Relaxed);
    SIM_SKIPPED_CYCLES.fetch_add(sm.cycles_skipped, Ordering::Relaxed);
    SIM_RUNS.fetch_add(1, Ordering::Relaxed);
}

/// Runs `cta_ids` of `kernel` to completion on one SM and returns the
/// statistics.
///
/// # Panics
///
/// Panics if the simulation exceeds two billion cycles (deadlock guard).
pub fn run_kernel(kernel: &dyn Kernel, cta_ids: &[usize], config: SmConfig) -> SmStats {
    run_kernel_mode(kernel, cta_ids, config, false)
}

/// [`run_kernel`] with the loop mode selected by value: `reference: true`
/// runs the tick-by-tick reference loop for this run only, so concurrent
/// runs can mix modes. Statistics are byte-identical either way — the
/// equivalence suites assert exactly that — only wall-clock time differs.
pub fn run_kernel_mode(
    kernel: &dyn Kernel,
    cta_ids: &[usize],
    config: SmConfig,
    reference: bool,
) -> SmStats {
    run_kernel_traced_mode(kernel, cta_ids, config, None, reference).0
}

/// [`run_kernel_mode`] that also records a cycle-resolved trace per
/// `spec` when one is given (the trace is `None` exactly when `spec` is).
///
/// # Panics
///
/// Panics if the simulation exceeds two billion cycles (deadlock guard).
pub fn run_kernel_traced_mode(
    kernel: &dyn Kernel,
    cta_ids: &[usize],
    config: SmConfig,
    spec: Option<TraceSpec>,
    reference: bool,
) -> (SmStats, Option<SmTraceData>) {
    let mut sm = Sm::new(config, kernel);
    if reference {
        sm.set_event_skip(false);
    }
    if let Some(spec) = spec {
        sm.attach_tracer(spec);
    }
    drive(&mut sm, kernel, cta_ids);
    sm.into_stats_and_trace()
}
