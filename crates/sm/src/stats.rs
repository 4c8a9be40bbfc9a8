//! Run statistics reported by the SM model.

use duplo_core::{DetectStats, LhbStats};
use duplo_mem::{MemStats, ServiceLevel, SliceStat};

/// Where load row-segments were served from (the Fig. 11 breakdown).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct ServiceCounts {
    /// Served by Duplo register renaming (LHB hit).
    pub lhb: u64,
    /// L1 hits.
    pub l1: u64,
    /// L2 hits (including MSHR merges riding an L2-backed fill; merges on
    /// DRAM-backed fills count under `dram`).
    pub l2: u64,
    /// DRAM fills.
    pub dram: u64,
    /// Shared-memory accesses (outside the L1/L2/DRAM path).
    pub shared: u64,
}

impl ServiceCounts {
    /// Total global-memory load segments (excludes shared).
    pub fn total_global(&self) -> u64 {
        self.lhb + self.l1 + self.l2 + self.dram
    }

    /// Fraction of global load segments served by `level`.
    pub fn fraction(&self, level: ServiceLevel) -> f64 {
        let total = self.total_global();
        if total == 0 {
            return 0.0;
        }
        let n = match level {
            ServiceLevel::Lhb => self.lhb,
            ServiceLevel::L1 => self.l1,
            ServiceLevel::L2 => self.l2,
            ServiceLevel::Dram => self.dram,
        };
        n as f64 / total as f64
    }

    pub(crate) fn count(&mut self, level: ServiceLevel) {
        match level {
            ServiceLevel::Lhb => self.lhb += 1,
            ServiceLevel::L1 => self.l1 += 1,
            ServiceLevel::L2 => self.l2 += 1,
            ServiceLevel::Dram => self.dram += 1,
        }
    }
}

/// Why scheduler slots went unissued.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct StallBreakdown {
    /// No resident warp had work (tail or launch gaps).
    pub empty: u64,
    /// All candidate warps blocked on operand dependencies.
    pub data_dependency: u64,
    /// A memory instruction was ready but the LDST queue was full.
    pub ldst_full: u64,
    /// A tensor-core instruction was ready but no tensor core was free.
    pub tensor_busy: u64,
    /// Warps waiting at barriers.
    pub barrier: u64,
}

impl StallBreakdown {
    /// Cycles in which the scheduler issued nothing for memory reasons
    /// (the paper's "LDST stall cycles" metric).
    pub fn ldst_stalls(&self) -> u64 {
        self.ldst_full
    }

    /// Total unissued scheduler slots across all categories. Each
    /// scheduler slot per cycle either issues exactly one instruction or
    /// lands in exactly one category, so for every run
    /// `issued_total + stalls.total() == cycles * schedulers`.
    pub fn total(&self) -> u64 {
        self.empty + self.data_dependency + self.ldst_full + self.tensor_busy + self.barrier
    }
}

/// Complete statistics of one SM run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SmStats {
    /// Total cycles to drain all assigned CTAs.
    pub cycles: u64,
    /// Instructions issued, by class.
    pub issued_mma: u64,
    /// Tensor-core load instructions issued (fragment granularity).
    pub issued_tensor_loads: u64,
    /// Tensor-core load row-segments processed (the paper's
    /// "tensor-core-load instruction" granularity).
    pub row_loads: u64,
    /// Row-segments eliminated via LHB renaming.
    pub eliminated_loads: u64,
    /// Other instructions issued (ALU, scalar mem, barriers).
    pub issued_other: u64,
    /// Service-level breakdown of load row-segments.
    pub services: ServiceCounts,
    /// Extra L1 accesses caused by octet double-loading (energy-relevant).
    pub octet_dup_l1: u64,
    /// Per-scheduler stall breakdown, summed.
    pub stalls: StallBreakdown,
    /// Cycles the LDST pipes spent blocked (MSHR full / RF pressure).
    pub ldst_pipe_stalls: u64,
    /// Peak physical register rows in use.
    pub rf_peak_rows: u32,
    /// Physical register rows still allocated after the end-of-run retire
    /// drain — exactly 0 unless a reference-count leak occurred.
    pub rf_final_rows: u32,
    /// Detection-unit stats (zeroed for baseline runs).
    pub detect: DetectStats,
    /// LHB stats (zeroed for baseline runs).
    pub lhb: LhbStats,
    /// Memory hierarchy counters.
    pub mem: MemStats,
    /// Per-L2-slice counters (empty when the flat memory side is in use).
    pub slices: Vec<SliceStat>,
    /// Sampled (filled_addr, renamed_addr) pairs for functional
    /// value-equality validation.
    pub rename_pairs: Vec<(u64, u64)>,
    /// CTAs executed.
    pub ctas_run: u64,
}

impl SmStats {
    /// Fraction of tensor-core load row-segments eliminated (the ~76%
    /// oracle number in §V-B).
    pub fn elimination_rate(&self) -> f64 {
        if self.row_loads == 0 {
            0.0
        } else {
            self.eliminated_loads as f64 / self.row_loads as f64
        }
    }

    /// Total instructions issued across all classes. Together with
    /// [`StallBreakdown::total`] this accounts for every scheduler slot:
    /// `issued_total + stalls.total() == cycles * schedulers`.
    pub fn issued_total(&self) -> u64 {
        self.issued_mma + self.issued_tensor_loads + self.issued_other
    }

    /// Folds another SM's statistics into these: counters sum, and
    /// high-water marks (`cycles` and the peaks) take the worst SM. Whole-GPU
    /// results and trace timelines both fold per-SM stats with this, in
    /// `sm_id` order, so floating-point sums are order-stable.
    pub fn accumulate(&mut self, s: &SmStats) {
        self.cycles = self.cycles.max(s.cycles);
        self.issued_mma += s.issued_mma;
        self.issued_tensor_loads += s.issued_tensor_loads;
        self.row_loads += s.row_loads;
        self.eliminated_loads += s.eliminated_loads;
        self.issued_other += s.issued_other;
        self.services.lhb += s.services.lhb;
        self.services.l1 += s.services.l1;
        self.services.l2 += s.services.l2;
        self.services.dram += s.services.dram;
        self.services.shared += s.services.shared;
        self.octet_dup_l1 += s.octet_dup_l1;
        self.stalls.empty += s.stalls.empty;
        self.stalls.data_dependency += s.stalls.data_dependency;
        self.stalls.ldst_full += s.stalls.ldst_full;
        self.stalls.tensor_busy += s.stalls.tensor_busy;
        self.stalls.barrier += s.stalls.barrier;
        self.ldst_pipe_stalls += s.ldst_pipe_stalls;
        self.rf_peak_rows = self.rf_peak_rows.max(s.rf_peak_rows);
        self.rf_final_rows += s.rf_final_rows;
        self.detect.workspace_loads += s.detect.workspace_loads;
        self.detect.non_workspace_loads += s.detect.non_workspace_loads;
        self.detect.boundary_bypasses += s.detect.boundary_bypasses;
        self.detect.eliminated += s.detect.eliminated;
        self.lhb.hits += s.lhb.hits;
        self.lhb.misses += s.lhb.misses;
        self.lhb.conflict_evictions += s.lhb.conflict_evictions;
        self.lhb.retire_releases += s.lhb.retire_releases;
        self.lhb.store_invalidations += s.lhb.store_invalidations;
        let (m, o) = (&mut self.mem, &s.mem);
        m.l1_hits += o.l1_hits;
        m.l1_misses += o.l1_misses;
        m.mshr_merges += o.mshr_merges;
        m.mshr_stalls += o.mshr_stalls;
        m.l2_accesses += o.l2_accesses;
        m.l2_hits += o.l2_hits;
        m.dram_accesses += o.dram_accesses;
        m.dram_bytes += o.dram_bytes;
        m.stores += o.stores;
        m.store_bytes += o.store_bytes;
        m.l2_port_requests += o.l2_port_requests;
        m.l2_queue_delay += o.l2_queue_delay;
        m.dram_requests += o.dram_requests;
        m.dram_queue_delay += o.dram_queue_delay;
        m.mshr_peak_occupancy = m.mshr_peak_occupancy.max(o.mshr_peak_occupancy);
        m.l2_peak_queue_delay = m.l2_peak_queue_delay.max(o.l2_peak_queue_delay);
        m.dram_peak_queue_delay = m.dram_peak_queue_delay.max(o.dram_peak_queue_delay);
        self.rename_pairs.extend_from_slice(&s.rename_pairs);
        // Per-slice counters fold element-wise (sums for totals, max for
        // peaks).
        if self.slices.len() < s.slices.len() {
            self.slices.resize(s.slices.len(), Default::default());
        }
        for (a, b) in self.slices.iter_mut().zip(&s.slices) {
            a.accesses += b.accesses;
            a.l2_hits += b.l2_hits;
            a.dram_accesses += b.dram_accesses;
            a.stores += b.stores;
            a.port_requests += b.port_requests;
            a.port_queue_delay += b.port_queue_delay;
            a.port_peak_queue_delay = a.port_peak_queue_delay.max(b.port_peak_queue_delay);
            a.dram_queue_delay += b.dram_queue_delay;
            a.noc_req_delay += b.noc_req_delay;
            a.noc_resp_delay += b.noc_resp_delay;
            a.mshr_peak = a.mshr_peak.max(b.mshr_peak);
        }
        self.ctas_run += s.ctas_run;
    }
}
