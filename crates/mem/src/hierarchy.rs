//! The per-SM memory hierarchy: L1 + MSHR in front of an L2 and DRAM,
//! matching the paper's Table III baseline.
//!
//! Two interchangeable memory sides sit behind the L1:
//!
//! * **Flat** (`l2_slices == 0`): one L2 array, one port server, one DRAM
//!   server — the original model.
//! * **Sliced** (`l2_slices >= 1`): the L2 is partitioned into slices,
//!   each with its own tag array, bookkeeping MSHR file, port server, and
//!   DRAM channel share, reached over a [`Crossbar`] with per-direction
//!   request/response links. Line addresses are interleaved across slices
//!   by a hashed [`AddrDec`] mapping. A one-slice configuration with the
//!   passthrough crossbar reproduces the flat model byte-identically
//!   (gated in CI), which pins the degenerate arithmetic.

use duplo_noc::{AddrDec, Crossbar, HashKind, NocConfig};

use crate::{BandwidthQueue, BandwidthQueueConfig, Cache, CacheConfig, Mshr, MshrOutcome};

/// Which level served a request — the Fig. 11 breakdown categories.
/// (`Lhb` is attributed by the SM model; the hierarchy itself reports
/// L1/L2/DRAM.)
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ServiceLevel {
    /// Served by Duplo's load history buffer (register renaming).
    Lhb,
    /// L1 data cache hit.
    L1,
    /// L2 cache hit.
    L2,
    /// Off-chip DRAM.
    Dram,
}

impl ServiceLevel {
    /// Display label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            ServiceLevel::Lhb => "LHB",
            ServiceLevel::L1 => "L1$",
            ServiceLevel::L2 => "L2$",
            ServiceLevel::Dram => "DRAM",
        }
    }
}

/// Full hierarchy configuration (per simulated SM).
///
/// The `l2`, `l2_port`, and `dram` figures always describe the SM's
/// *total* share; when `l2_slices >= 1` they are divided evenly across
/// slices at construction time, so flipping the slice count never changes
/// aggregate capacity or bandwidth.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct HierarchyConfig {
    /// L1 geometry/timing.
    pub l1: CacheConfig,
    /// L1 MSHR entries.
    pub l1_mshr: usize,
    /// L2 geometry/timing (additional latency beyond L1), totalled over
    /// all slices.
    pub l2: CacheConfig,
    /// L2 port bandwidth, totalled over all slices.
    pub l2_port: BandwidthQueueConfig,
    /// DRAM bandwidth/latency, totalled over all slices.
    pub dram: BandwidthQueueConfig,
    /// L2 slice count: `0` selects the flat (unsliced) memory side, `>= 1`
    /// the sliced engine (`1` is the degenerate flat-equivalent case).
    pub l2_slices: usize,
    /// Bookkeeping MSHR entries per slice (outstanding-fill tracking for
    /// the event-skip wake horizon; never rejects).
    pub slice_mshr: usize,
    /// Line→slice interleaving hash.
    pub hash: HashKind,
    /// SM↔slice crossbar link configuration.
    pub noc: NocConfig,
}

impl HierarchyConfig {
    /// The Table III Titan V-like baseline, sliced for one representative
    /// SM out of `total_sms` (capacity and bandwidth scaled by
    /// `1/total_sms`; latencies unchanged).
    pub fn titan_v_slice(total_sms: usize) -> HierarchyConfig {
        assert!(total_sms > 0);
        // Whole-chip numbers: 4.5MB L2, 652.8 GB/s @ 1200 MHz = 544 B/cyc.
        // The L2 capacity an SM effectively sees is much more than
        // 1/total_sms of the array because hot operands (the filter matrix,
        // active workspace stripes) are shared by concurrently scheduled
        // CTAs chip-wide; we model an 8-way sharing degree.
        let l2_share = total_sms.div_ceil(8).max(1);
        let l2_bytes = (4_718_592 / l2_share).max(128 * 24);
        // Keep 24 ways; round line count to a multiple of 24.
        let lines = (l2_bytes / 128 / 24).max(1) * 24;
        HierarchyConfig {
            l1: CacheConfig {
                size_bytes: 128 * 1024,
                ways: 4,
                line_bytes: 128,
                latency: 28,
            },
            l1_mshr: 64,
            l2: CacheConfig {
                size_bytes: lines * 128,
                ways: 24,
                line_bytes: 128,
                latency: 120,
            },
            // L2 port per SM: 32 B/cycle is the per-SM share of Volta's
            // ~2.5 TB/s aggregate L2 bandwidth.
            l2_port: BandwidthQueueConfig {
                latency: 0,
                bytes_per_cycle: 32.0,
            },
            dram: BandwidthQueueConfig {
                latency: 100,
                bytes_per_cycle: 544.0 / total_sms as f64,
            },
            l2_slices: 0,
            slice_mshr: 32,
            hash: HashKind::XorFold,
            noc: NocConfig::passthrough(),
        }
    }

    /// Switches the configuration to the sliced memory side with `slices`
    /// partitions under `hash` interleaving. One slice gets the
    /// passthrough crossbar (flat-equivalent); more get the Titan V-like
    /// metered links.
    pub fn sliced(mut self, slices: usize, hash: HashKind) -> HierarchyConfig {
        assert!(slices >= 1, "sliced() needs at least one slice");
        self.l2_slices = slices;
        self.hash = hash;
        self.noc = if slices == 1 {
            NocConfig::passthrough()
        } else {
            NocConfig::titan_v()
        };
        self
    }
}

/// Aggregated hierarchy statistics.
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct MemStats {
    /// Load sectors that hit in L1.
    pub l1_hits: u64,
    /// Load sectors that missed in L1.
    pub l1_misses: u64,
    /// Secondary misses merged in the L1 MSHRs.
    pub mshr_merges: u64,
    /// Accesses rejected because the MSHR file was full.
    pub mshr_stalls: u64,
    /// Accesses that reached the L2.
    pub l2_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Accesses that reached DRAM.
    pub dram_accesses: u64,
    /// Bytes fetched from DRAM.
    pub dram_bytes: u64,
    /// Store sectors written through.
    pub stores: u64,
    /// Store bytes written through to DRAM.
    pub store_bytes: u64,
    /// Requests that went through the L2 port server(s) (loads + stores).
    pub l2_port_requests: u64,
    /// Total queueing delay at the L2 port(s), in cycles.
    pub l2_queue_delay: f64,
    /// Requests that went through the DRAM server(s) (fills + stores).
    pub dram_requests: u64,
    /// Total queueing delay at the DRAM server(s), in cycles.
    pub dram_queue_delay: f64,
    /// Peak simultaneous MSHR occupancy (high-water mark).
    pub mshr_peak_occupancy: u64,
    /// Worst single-request wait at an L2 port, in cycles (max queue depth).
    pub l2_peak_queue_delay: f64,
    /// Worst single-request wait at a DRAM server, in cycles.
    pub dram_peak_queue_delay: f64,
}

/// Per-slice counters of the sliced memory side (empty in flat mode).
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct SliceStat {
    /// Load fills routed to this slice.
    pub accesses: u64,
    /// Fills served from the slice's tag array.
    pub l2_hits: u64,
    /// Fills forwarded to the slice's DRAM channel.
    pub dram_accesses: u64,
    /// Stores written through this slice.
    pub stores: u64,
    /// Requests through the slice port server.
    pub port_requests: u64,
    /// Accumulated slice-port queueing delay, in cycles.
    pub port_queue_delay: f64,
    /// Worst single-request slice-port wait, in cycles.
    pub port_peak_queue_delay: f64,
    /// Accumulated DRAM-channel queueing delay, in cycles.
    pub dram_queue_delay: f64,
    /// Accumulated request-link (SM→slice) queueing delay, in cycles.
    pub noc_req_delay: f64,
    /// Accumulated response-link (slice→SM) queueing delay, in cycles.
    pub noc_resp_delay: f64,
    /// Peak outstanding fills tracked by the slice MSHR file.
    pub mshr_peak: u64,
}

/// One L2 slice: tag array, bookkeeping MSHR file, port server, and DRAM
/// channel share.
#[derive(Clone, Debug)]
struct L2Slice {
    l2: Cache,
    mshr: Mshr,
    port: BandwidthQueue,
    dram: BandwidthQueue,
    accesses: u64,
    l2_hits: u64,
    dram_accesses: u64,
    stores: u64,
}

impl L2Slice {
    fn backlog(&self, cycle: u64) -> f64 {
        self.port.backlog(cycle) + self.dram.backlog(cycle)
    }
}

/// The memory side behind the L1: flat or sliced.
#[derive(Clone, Debug)]
enum Backend {
    Flat {
        l2: Cache,
        l2_port: BandwidthQueue,
        dram: BandwidthQueue,
    },
    Sliced {
        dec: AddrDec,
        xbar: Crossbar,
        slices: Vec<L2Slice>,
    },
}

impl Backend {
    /// Prices a line fill entering the memory side at `start` (post-L1
    /// latency). Returns when the line reaches the register file and
    /// which level served it.
    fn fetch(
        &mut self,
        config: &HierarchyConfig,
        stats: &mut MemStats,
        start: u64,
        addr: u64,
        line: u64,
        line_bytes: u32,
    ) -> (u64, ServiceLevel) {
        match self {
            Backend::Flat { l2, l2_port, dram } => {
                let l2_ready = l2_port.request(start, line_bytes) + u64::from(config.l2.latency);
                if l2.access(addr) {
                    stats.l2_hits += 1;
                    (l2_ready, ServiceLevel::L2)
                } else {
                    stats.dram_accesses += 1;
                    stats.dram_bytes += u64::from(line_bytes);
                    (dram.request(l2_ready, line_bytes), ServiceLevel::Dram)
                }
            }
            Backend::Sliced { dec, xbar, slices } => {
                let (si, local) = dec.map(line);
                let arrive = xbar.req(si).request(start, line_bytes);
                let slice = &mut slices[si];
                slice.accesses += 1;
                let l2_ready =
                    slice.port.request(arrive, line_bytes) + u64::from(config.l2.latency);
                // The slice tags lines by their local index — the hashed
                // mapping is bijective, so no two global lines alias.
                let local_addr = local * config.l1.line_bytes as u64;
                let (slice_fill, level) = if slice.l2.access(local_addr) {
                    stats.l2_hits += 1;
                    slice.l2_hits += 1;
                    (l2_ready, ServiceLevel::L2)
                } else {
                    stats.dram_accesses += 1;
                    stats.dram_bytes += u64::from(line_bytes);
                    slice.dram_accesses += 1;
                    (slice.dram.request(l2_ready, line_bytes), ServiceLevel::Dram)
                };
                let fill = xbar.resp(si).request(slice_fill, line_bytes);
                // Bookkeeping MSHR: track the outstanding fill so the
                // event-skip wake horizon sees per-slice completions. A
                // full file only drops tracking — it never rejects.
                if let MshrOutcome::Allocated = slice.mshr.lookup(arrive, line) {
                    slice.mshr.record_fill(line, slice_fill, level);
                }
                (fill, level)
            }
        }
    }

    /// Prices a write-through store entering the memory side at `cycle`,
    /// invalidating the stale L2 copy (write-no-allocate).
    fn store(&mut self, config: &HierarchyConfig, cycle: u64, addr: u64, bytes: u32) {
        match self {
            Backend::Flat { l2, l2_port, dram } => {
                l2.invalidate(addr);
                let after_l2 = l2_port.request(cycle, bytes);
                let _ = dram.request(after_l2, bytes);
            }
            Backend::Sliced { dec, xbar, slices } => {
                let line = addr / config.l1.line_bytes as u64;
                let (si, local) = dec.map(line);
                let arrive = xbar.req(si).request(cycle, bytes);
                let slice = &mut slices[si];
                slice.stores += 1;
                slice.l2.invalidate(local * config.l1.line_bytes as u64);
                let after_l2 = slice.port.request(arrive, bytes);
                let _ = slice.dram.request(after_l2, bytes);
            }
        }
    }
}

/// One simulated SM's memory system.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1: Cache,
    mshr: Mshr,
    backend: Backend,
    stats: MemStats,
}

impl MemoryHierarchy {
    /// Builds an empty hierarchy.
    pub fn new(config: HierarchyConfig) -> MemoryHierarchy {
        let backend = if config.l2_slices == 0 {
            Backend::Flat {
                l2: Cache::new(config.l2),
                l2_port: BandwidthQueue::new(config.l2_port),
                dram: BandwidthQueue::new(config.dram),
            }
        } else {
            let n = config.l2_slices;
            assert_eq!(
                config.l2.line_bytes, config.l1.line_bytes,
                "sliced L2 requires a uniform line size"
            );
            // Divide the SM's total share evenly across slices. At n = 1
            // every division is exact, which is what makes the degenerate
            // configuration reproduce the flat model byte-identically.
            let total_lines = config.l2.size_bytes / config.l2.line_bytes;
            let slice_lines = ((total_lines / n) / config.l2.ways).max(1) * config.l2.ways;
            let slice_l2 = CacheConfig {
                size_bytes: slice_lines * config.l2.line_bytes,
                ..config.l2
            };
            let slice_port = BandwidthQueueConfig {
                latency: config.l2_port.latency,
                bytes_per_cycle: config.l2_port.bytes_per_cycle / n as f64,
            };
            let slice_dram = BandwidthQueueConfig {
                latency: config.dram.latency,
                bytes_per_cycle: config.dram.bytes_per_cycle / n as f64,
            };
            Backend::Sliced {
                dec: AddrDec::new(n, config.hash),
                xbar: Crossbar::new(n, config.noc),
                slices: (0..n)
                    .map(|_| L2Slice {
                        l2: Cache::new(slice_l2),
                        mshr: Mshr::new(config.slice_mshr.max(1)),
                        port: BandwidthQueue::new(slice_port),
                        dram: BandwidthQueue::new(slice_dram),
                        accesses: 0,
                        l2_hits: 0,
                        dram_accesses: 0,
                        stores: 0,
                    })
                    .collect(),
            }
        };
        MemoryHierarchy {
            config,
            l1: Cache::new(config.l1),
            mshr: Mshr::new(config.l1_mshr),
            backend,
            stats: MemStats::default(),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Whether a new miss could be accepted at `cycle` (an MSHR entry is
    /// free). Conservative: merges would succeed even when full, but
    /// callers use this as a pre-issue check to keep probe statistics
    /// clean across stall/retry cycles.
    pub fn can_accept(&mut self, cycle: u64) -> bool {
        self.mshr.expire(cycle);
        self.mshr.occupancy() < self.config.l1_mshr
    }

    /// Issues a load of one sector (`bytes` contiguous bytes, at most a
    /// line) at `addr` on `cycle`. Returns `(ready_cycle, level)` — when the
    /// data reaches the register file and which level served it — or `None`
    /// if the MSHR file is full (caller must stall and retry).
    pub fn load(&mut self, cycle: u64, addr: u64, bytes: u32) -> Option<(u64, ServiceLevel)> {
        let l1_lat = u64::from(self.config.l1.latency);
        let line = addr / self.config.l1.line_bytes as u64;
        // The L1 allocates tags at miss time, so a same-line access during
        // an outstanding fill would spuriously "hit": route it through the
        // MSHR merge path instead (data is not in the array yet). The
        // merge rides the outstanding fill, so it is attributed to the
        // level actually servicing that fill.
        if let Some((fill, level)) = self.mshr.pending_fill(cycle, line) {
            self.stats.l1_misses += 1;
            self.stats.mshr_merges += 1;
            self.mshr.note_merge();
            return Some((fill.max(cycle + l1_lat), level));
        }
        if self.l1.access(addr) {
            self.stats.l1_hits += 1;
            return Some((cycle + l1_lat, ServiceLevel::L1));
        }
        // `pending_fill` found no fill for this line at this cycle, so the
        // miss can only allocate or find the file full.
        if !self.mshr.reserve(line) {
            // The L1 already allocated the tag; a retried access would
            // spuriously hit the freshly allocated line, so roll the
            // allocation back by invalidating it. The miss itself is NOT
            // counted here: the same logical access retries until accepted
            // and must contribute exactly one miss (counting each rejected
            // attempt inflated miss rates under MSHR pressure).
            self.l1.invalidate(addr);
            return None;
        }
        self.stats.l1_misses += 1;
        self.stats.l2_accesses += 1;
        let line_bytes = self.config.l1.line_bytes as u32;
        let _ = bytes;
        let (fill, level) = self.backend.fetch(
            &self.config,
            &mut self.stats,
            cycle + l1_lat,
            addr,
            line,
            line_bytes,
        );
        self.mshr.record_fill(line, fill, level);
        Some((fill, level))
    }

    /// Issues a write-through store (no allocate, no dependency): consumes
    /// DRAM bandwidth, completes asynchronously. Both the L1 and the L2
    /// copies of the line are invalidated — the write-through leaves them
    /// stale, so a later load must pay the DRAM path again.
    pub fn store(&mut self, cycle: u64, addr: u64, bytes: u32) {
        self.stats.stores += 1;
        self.stats.store_bytes += u64::from(bytes);
        self.l1.invalidate(addr);
        self.backend.store(&self.config, cycle, addr, bytes);
    }

    /// Statistics snapshot (L1/L2/DRAM counters), with the MSHR and
    /// bandwidth-server counters folded in so "where did the cycles go"
    /// is visible from one struct. Sliced-mode servers fold in slice-index
    /// order (sums for totals, max for peaks), so the snapshot is
    /// deterministic and, at one slice, flat-identical.
    pub fn stats(&self) -> MemStats {
        let mut s = self.stats;
        s.mshr_stalls = self.mshr.stalls();
        s.mshr_peak_occupancy = self.mshr.peak_occupancy() as u64;
        match &self.backend {
            Backend::Flat { l2_port, dram, .. } => {
                s.l2_port_requests = l2_port.requests();
                s.l2_queue_delay = l2_port.total_queue_delay();
                s.dram_requests = dram.requests();
                s.dram_queue_delay = dram.total_queue_delay();
                s.l2_peak_queue_delay = l2_port.peak_queue_delay();
                s.dram_peak_queue_delay = dram.peak_queue_delay();
            }
            Backend::Sliced { slices, .. } => {
                for slice in slices {
                    s.l2_port_requests += slice.port.requests();
                    s.l2_queue_delay += slice.port.total_queue_delay();
                    s.dram_requests += slice.dram.requests();
                    s.dram_queue_delay += slice.dram.total_queue_delay();
                    s.l2_peak_queue_delay =
                        s.l2_peak_queue_delay.max(slice.port.peak_queue_delay());
                    s.dram_peak_queue_delay =
                        s.dram_peak_queue_delay.max(slice.dram.peak_queue_delay());
                }
            }
        }
        s
    }

    /// Per-slice statistics snapshot (empty for the flat memory side).
    pub fn slice_stats(&self) -> Vec<SliceStat> {
        match &self.backend {
            Backend::Flat { .. } => Vec::new(),
            Backend::Sliced { xbar, slices, .. } => slices
                .iter()
                .enumerate()
                .map(|(i, slice)| SliceStat {
                    accesses: slice.accesses,
                    l2_hits: slice.l2_hits,
                    dram_accesses: slice.dram_accesses,
                    stores: slice.stores,
                    port_requests: slice.port.requests(),
                    port_queue_delay: slice.port.total_queue_delay(),
                    port_peak_queue_delay: slice.port.peak_queue_delay(),
                    dram_queue_delay: slice.dram.total_queue_delay(),
                    noc_req_delay: xbar.req_ref(i).total_wait(),
                    noc_resp_delay: xbar.resp_ref(i).total_wait(),
                    mshr_peak: slice.mshr.peak_occupancy() as u64,
                })
                .collect(),
        }
    }

    /// Outstanding MSHR fills at `cycle` (live gauge for trace sampling;
    /// expires completed fills first so the reading is cycle-accurate).
    pub fn mshr_occupancy(&mut self, cycle: u64) -> usize {
        self.mshr.expire(cycle);
        self.mshr.occupancy()
    }

    /// The earliest cycle strictly after `cycle` at which an outstanding
    /// fill completes — the wakeup horizon for a pipe stalled on a full
    /// MSHR file. In sliced mode the horizon also consults every slice's
    /// bookkeeping MSHR file, so per-slice completions can wake the SM
    /// (waking early is sound: the skip loop re-evaluates idempotently).
    /// `None` when no fill with a known completion time is outstanding.
    pub fn next_mshr_fill(&mut self, cycle: u64) -> Option<u64> {
        self.mshr.expire(cycle);
        let mut next = self.mshr.next_fill();
        if let Backend::Sliced { slices, .. } = &mut self.backend {
            for slice in slices.iter_mut() {
                slice.mshr.expire(cycle);
                next = match (next, slice.mshr.next_fill()) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
        }
        next.map(|f| f.max(cycle + 1))
    }

    /// Live L2-port backlog at `cycle`, in cycles of queued service
    /// (summed over slices in sliced mode).
    pub fn l2_port_backlog(&self, cycle: u64) -> f64 {
        match &self.backend {
            Backend::Flat { l2_port, .. } => l2_port.backlog(cycle),
            Backend::Sliced { slices, .. } => slices.iter().map(|s| s.port.backlog(cycle)).sum(),
        }
    }

    /// Live DRAM-server backlog at `cycle`, in cycles of queued service
    /// (summed over slices in sliced mode).
    pub fn dram_backlog(&self, cycle: u64) -> f64 {
        match &self.backend {
            Backend::Flat { dram, .. } => dram.backlog(cycle),
            Backend::Sliced { slices, .. } => slices.iter().map(|s| s.dram.backlog(cycle)).sum(),
        }
    }

    /// Live per-slice congestion gauge at `cycle`: the worst single-slice
    /// backlog, the backlog summed over slices, and the index of the
    /// hottest slice (first wins on ties). All zero for the flat side.
    pub fn slice_backlogs(&self, cycle: u64) -> (f64, f64, usize) {
        match &self.backend {
            Backend::Flat { .. } => (0.0, 0.0, 0),
            Backend::Sliced { slices, .. } => {
                let (mut max, mut sum, mut hot) = (0.0f64, 0.0f64, 0usize);
                for (i, slice) in slices.iter().enumerate() {
                    let b = slice.backlog(cycle);
                    sum += b;
                    if b > max {
                        max = b;
                        hot = i;
                    }
                }
                (max, sum, hot)
            }
        }
    }

    /// L2 cache stats (summed over slices in sliced mode).
    pub fn l2_stats(&self) -> crate::cache::CacheStats {
        match &self.backend {
            Backend::Flat { l2, .. } => l2.stats(),
            Backend::Sliced { slices, .. } => {
                let mut agg = crate::cache::CacheStats::default();
                for slice in slices {
                    let s = slice.l2.stats();
                    agg.hits += s.hits;
                    agg.misses += s.misses;
                }
                agg
            }
        }
    }

    /// Total DRAM traffic in bytes (loads + stores).
    pub fn dram_traffic(&self) -> u64 {
        match &self.backend {
            Backend::Flat { dram, .. } => dram.bytes_transferred(),
            Backend::Sliced { slices, .. } => {
                slices.iter().map(|s| s.dram.bytes_transferred()).sum()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig {
                size_bytes: 1024,
                ways: 2,
                line_bytes: 128,
                latency: 28,
            },
            l1_mshr: 4,
            l2: CacheConfig {
                size_bytes: 8192,
                ways: 4,
                line_bytes: 128,
                latency: 120,
            },
            l2_port: BandwidthQueueConfig {
                latency: 0,
                bytes_per_cycle: 32.0,
            },
            dram: BandwidthQueueConfig {
                latency: 100,
                bytes_per_cycle: 8.0,
            },
            l2_slices: 0,
            slice_mshr: 32,
            hash: HashKind::XorFold,
            noc: NocConfig::passthrough(),
        }
    }

    fn small() -> MemoryHierarchy {
        MemoryHierarchy::new(small_config())
    }

    #[test]
    fn first_touch_goes_to_dram_second_hits_l1() {
        let mut m = small();
        let (t1, lvl1) = m.load(0, 0x1000, 32).unwrap();
        assert_eq!(lvl1, ServiceLevel::Dram);
        assert!(t1 > 120, "cold miss must pay L2+DRAM latency, got {t1}");
        let (t2, lvl2) = m.load(t1, 0x1000, 32).unwrap();
        assert_eq!(lvl2, ServiceLevel::L1);
        assert_eq!(t2, t1 + 28);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = small();
        // L1: 8 lines, 2-way, 4 sets. Fill set 0 with 3 lines to evict.
        m.load(0, 0, 32);
        m.load(0, 4 * 128, 32); // same set (line 4 % 4 == 0)
        m.load(0, 8 * 128, 32); // evicts line 0 from L1; L2 keeps all
        let (_, lvl) = m.load(10_000, 0, 32).unwrap();
        assert_eq!(lvl, ServiceLevel::L2, "L2 should retain the evicted line");
    }

    #[test]
    fn mshr_merges_same_line() {
        let mut m = small();
        let (t1, _) = m.load(0, 0x2000, 32).unwrap();
        // Different sector, same 128-byte line, while fill outstanding.
        // The fill is DRAM-backed, so the merged sector is DRAM-serviced.
        let (t2, lvl) = m.load(1, 0x2020, 32).unwrap();
        assert_eq!(lvl, ServiceLevel::Dram);
        assert!(t2 <= t1, "merged access cannot finish after the fill");
        assert_eq!(m.stats().mshr_merges, 1);
        assert_eq!(m.stats().dram_accesses, 1, "merge must not refetch");
    }

    /// Pins the merge-attribution fix: a merged load inherits the service
    /// level of the fill it rides — L2 for an L2-backed fill, DRAM for a
    /// DRAM-backed one. The old code hardwired `ServiceLevel::L2`, which
    /// undercounted DRAM-serviced sectors in the Fig. 11 breakdown.
    #[test]
    fn merged_load_reports_the_fills_true_service_level() {
        let mut m = small();
        // DRAM-backed fill: merge while outstanding must say DRAM.
        let (fill, lvl) = m.load(0, 0x2000, 32).unwrap();
        assert_eq!(lvl, ServiceLevel::Dram);
        let (_, merged) = m.load(1, 0x2040, 32).unwrap();
        assert_eq!(merged, ServiceLevel::Dram, "DRAM fill ⇒ DRAM merge");
        // Evict line 0x2000 from the L1 (2-way set) so a re-load misses L1
        // but hits L2, giving an L2-backed outstanding fill to merge with.
        let set_stride = 4 * 128; // 4 sets of 128-byte lines
        m.load(fill + 1, 0x2000 + set_stride, 32).unwrap();
        m.load(fill + 2, 0x2000 + 2 * set_stride, 32).unwrap();
        let t = fill + 100_000;
        let (_, lvl2) = m.load(t, 0x2000, 32).unwrap();
        assert_eq!(lvl2, ServiceLevel::L2, "L2 retains the evicted line");
        let (_, merged2) = m.load(t + 1, 0x2060, 32).unwrap();
        assert_eq!(merged2, ServiceLevel::L2, "L2 fill ⇒ L2 merge");
    }

    /// Pins the retry-accounting fix: a load bounced by a full MSHR file
    /// contributes exactly one L1 miss no matter how many times it
    /// retries. The old code incremented `l1_misses` on every rejected
    /// attempt, inflating miss counts under MSHR pressure.
    #[test]
    fn full_mshr_retries_count_one_miss() {
        let mut cfg = small_config();
        cfg.l1_mshr = 1;
        let mut m = MemoryHierarchy::new(cfg);
        assert!(m.load(0, 0x1000, 32).is_some());
        // One logical access to a second line, bounced three times while
        // the single MSHR entry is busy.
        for retry in 1..=3 {
            assert!(m.load(retry, 0x2000, 32).is_none());
        }
        let (_, lvl) = m.load(100_000, 0x2000, 32).unwrap();
        assert_eq!(lvl, ServiceLevel::Dram);
        let s = m.stats();
        assert_eq!(s.mshr_stalls, 3, "each rejected attempt is a stall");
        assert_eq!(
            s.l1_misses - 1,
            1,
            "the retried access must count exactly one miss"
        );
    }

    /// Pins the write-through invalidation fix: a store leaves both the L1
    /// and the L2 copies stale, so load → store → load pays the DRAM path
    /// again. The old code only invalidated the L1, handing the second
    /// load a free L2 hit on stale data.
    #[test]
    fn load_store_load_pays_the_dram_path() {
        let mut m = small();
        let (t1, lvl1) = m.load(0, 0x4000, 32).unwrap();
        assert_eq!(lvl1, ServiceLevel::Dram);
        m.store(t1, 0x4000, 32);
        let (_, lvl2) = m.load(t1 + 10_000, 0x4000, 32).unwrap();
        assert_eq!(
            lvl2,
            ServiceLevel::Dram,
            "the stored-over line must be refetched from DRAM"
        );
    }

    #[test]
    fn mshr_full_stalls() {
        let mut m = small();
        for i in 0..4 {
            assert!(m.load(0, 0x10_000 + i * 128, 32).is_some());
        }
        assert!(m.load(0, 0x20_000, 32).is_none(), "5th miss must stall");
        // After fills complete, the access succeeds.
        assert!(m.load(100_000, 0x20_000, 32).is_some());
    }

    #[test]
    fn dram_bandwidth_throttles_misses() {
        let mut m = small();
        let mut last = 0;
        for i in 0..64u64 {
            // Retry with advancing time when the MSHR file is full.
            let mut cycle = i;
            let t = loop {
                match m.load(cycle, 0x100_000 + i * 128, 32) {
                    Some((t, _)) => break t,
                    None => cycle += 100,
                }
            };
            last = last.max(t);
        }
        // 64 lines x 128 B at 8 B/cyc = 1024 cycles of pure service.
        assert!(
            last >= 1024,
            "bandwidth should bound completion, got {last}"
        );
    }

    #[test]
    fn stats_expose_mshr_stalls_and_queue_delays() {
        let mut m = small();
        // Saturate the 4-entry MSHR file: the 5th distinct miss stalls.
        for i in 0..4 {
            assert!(m.load(0, 0x10_000 + i * 128, 32).is_some());
        }
        assert!(m.load(0, 0x20_000, 32).is_none());
        let s = m.stats();
        assert_eq!(s.mshr_stalls, 1, "full-MSHR rejection must be counted");
        // Four concurrent 128-byte fills over the 32 B/cyc port and the
        // 8 B/cyc DRAM slice queue behind each other.
        assert_eq!(s.l2_port_requests, 4);
        assert_eq!(s.dram_requests, 4);
        assert!(s.l2_queue_delay > 0.0, "port contention must accumulate");
        assert!(s.dram_queue_delay > 0.0, "DRAM contention must accumulate");
    }

    /// Pins the high-water-mark exports promised by `MemStats`: peak MSHR
    /// occupancy and the worst single-request waits at both bandwidth
    /// servers must survive into the folded stats snapshot.
    #[test]
    fn stats_expose_peaks_and_live_backlog() {
        let mut m = small();
        // Four distinct-line misses in flight: MSHR occupancy peaks at 4.
        for i in 0..4 {
            assert!(m.load(0, 0x10_000 + i * 128, 32).is_some());
        }
        let s = m.stats();
        assert_eq!(s.mshr_peak_occupancy, 4);
        assert!(s.l2_peak_queue_delay > 0.0, "port pile-up must be recorded");
        assert!(
            s.dram_peak_queue_delay > 0.0,
            "DRAM pile-up must be recorded"
        );
        // The peaks never exceed the accumulated totals.
        assert!(s.l2_peak_queue_delay <= s.l2_queue_delay);
        assert!(s.dram_peak_queue_delay <= s.dram_queue_delay);
        // Live gauges: backlog is positive mid-burst, zero after drain,
        // while the high-water marks persist.
        assert!(m.dram_backlog(0) > 0.0);
        assert_eq!(m.dram_backlog(1_000_000), 0.0);
        assert_eq!(m.mshr_occupancy(1_000_000), 0);
        assert_eq!(m.stats().mshr_peak_occupancy, 4);
    }

    #[test]
    fn stores_count_traffic_without_blocking() {
        let mut m = small();
        m.store(0, 0x3000, 32);
        m.store(0, 0x3020, 32);
        assert_eq!(m.stats().stores, 2);
        assert_eq!(m.stats().store_bytes, 64);
        assert!(m.dram_traffic() >= 64);
    }

    /// The one-slice sliced engine must reproduce the flat model exactly:
    /// same ready cycles, same service levels, same folded statistics,
    /// over a mixed load/store trace with merges, stalls, and evictions.
    #[test]
    fn one_slice_reproduces_flat_model_exactly() {
        for hash in [HashKind::Mod, HashKind::XorFold] {
            let mut flat = small();
            let mut one = MemoryHierarchy::new(small_config().sliced(1, hash));
            let mut cycle = 0u64;
            for i in 0..400u64 {
                cycle += 3;
                // Mix of strided loads (re-touching lines for merges and
                // L1/L2 hits) and periodic stores over the same region.
                let addr = (i % 96) * 96 + (i / 7) * 32;
                if i % 11 == 5 {
                    flat.store(cycle, addr, 32);
                    one.store(cycle, addr, 32);
                } else {
                    let a = flat.load(cycle, addr, 32);
                    let b = one.load(cycle, addr, 32);
                    assert_eq!(a, b, "load #{i} diverged at cycle {cycle}");
                }
                assert_eq!(
                    flat.next_mshr_fill(cycle),
                    one.next_mshr_fill(cycle),
                    "wake horizon diverged at access #{i}"
                );
            }
            assert_eq!(flat.stats(), one.stats());
            assert_eq!(flat.l2_stats(), one.l2_stats());
            assert_eq!(flat.dram_traffic(), one.dram_traffic());
            assert_eq!(flat.l2_port_backlog(cycle), one.l2_port_backlog(cycle));
            assert_eq!(flat.dram_backlog(cycle), one.dram_backlog(cycle));
        }
    }

    /// Directed slice-camping check: a stream whose stride is a multiple
    /// of the slice count camps on slice 0 under the Mod hash — that one
    /// hot slice's queue delay dominates the slice breakdown — while the
    /// XOR fold spreads the same stream and completes it sooner.
    #[test]
    fn camped_slice_queue_delay_dominates() {
        let run = |hash: HashKind| {
            let mut m = MemoryHierarchy::new(small_config().sliced(4, hash));
            let mut last = 0u64;
            for i in 0..32u64 {
                // Stride of 4 lines: slice = line % 4 camps on slice 0.
                let addr = i * 4 * 128;
                let mut cycle = i;
                let t = loop {
                    match m.load(cycle, addr, 32) {
                        Some((t, _)) => break t,
                        None => cycle += 50,
                    }
                };
                last = last.max(t);
            }
            (last, m.slice_stats())
        };
        let (camp_done, camp) = run(HashKind::Mod);
        let (spread_done, spread) = run(HashKind::XorFold);
        assert_eq!(
            camp[0].accesses, 32,
            "Mod hash must route every access to slice 0"
        );
        assert!(
            camp[1..].iter().all(|s| s.accesses == 0),
            "camped run must leave other slices idle"
        );
        let hot = camp[0].port_queue_delay + camp[0].dram_queue_delay;
        let rest: f64 = camp[1..]
            .iter()
            .map(|s| s.port_queue_delay + s.dram_queue_delay)
            .sum();
        assert!(
            hot > rest,
            "hot slice delay ({hot:.0}cyc) must dominate the rest ({rest:.0}cyc)"
        );
        assert!(
            spread.iter().filter(|s| s.accesses > 0).count() > 1,
            "XOR fold must spread the stream"
        );
        assert!(
            camp_done > spread_done,
            "camping ({camp_done}) must finish later than hashed spread ({spread_done})"
        );
        // Per-slice MSHR bookkeeping saw the outstanding fills.
        assert!(camp[0].mshr_peak > 0);
    }
}
