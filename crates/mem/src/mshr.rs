//! Miss-status holding registers: merge outstanding misses to the same line
//! and bound the number of in-flight fills.

use crate::ServiceLevel;

/// Result of consulting the MSHR for a missing line.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum MshrOutcome {
    /// A fill for this line is already outstanding; the access completes
    /// when that fill returns (secondary miss, no new traffic).
    Merged {
        /// Completion cycle of the outstanding fill.
        fill_cycle: u64,
        /// Which level the outstanding fill is being served from — merged
        /// accesses ride that fill, so they are attributed to the same
        /// level (a DRAM-backed merge is a DRAM-serviced sector, not L2).
        level: ServiceLevel,
    },
    /// A new entry was allocated; the caller must fetch the line and then
    /// report its fill time via [`Mshr::record_fill`].
    Allocated,
    /// All entries are busy: the access must stall and retry.
    Full,
}

/// One outstanding fill.
#[derive(Copy, Clone, Debug)]
struct Fill {
    /// Completion cycle (`u64::MAX` = provisional reservation).
    cycle: u64,
    /// Level servicing the fill.
    level: ServiceLevel,
}

/// The MSHR file of one cache.
///
/// The file is a fixed-capacity array: entry `i` tracks line `lines[i]`
/// with fill `fills[i]`, and `earliest` caches the smallest recorded fill
/// cycle. [`Mshr::expire`] returns at once while nothing can have completed,
/// and [`Mshr::next_fill`] reads the cached value; every change to the file
/// keeps it exact. Entry order is never observed.
#[derive(Clone, Debug)]
pub struct Mshr {
    capacity: usize,
    /// Line address of each outstanding fill.
    lines: Vec<u64>,
    /// The fill of the line at the same index.
    fills: Vec<Fill>,
    /// The earliest recorded (non-provisional) fill cycle, `u64::MAX` when
    /// none is recorded.
    earliest: u64,
    /// Peak simultaneous occupancy (diagnostics).
    peak: usize,
    /// Secondary misses merged.
    merges: u64,
    /// Stalls due to a full MSHR file.
    stalls: u64,
}

impl Mshr {
    /// Creates an MSHR file with `capacity` entries.
    pub fn new(capacity: usize) -> Mshr {
        assert!(capacity > 0, "MSHR needs at least one entry");
        Mshr {
            capacity,
            lines: Vec::with_capacity(capacity),
            fills: Vec::with_capacity(capacity),
            earliest: u64::MAX,
            peak: 0,
            merges: 0,
            stalls: 0,
        }
    }

    /// Retires entries whose fills completed at or before `cycle`.
    pub fn expire(&mut self, cycle: u64) {
        if cycle < self.earliest {
            return;
        }
        let mut i = 0;
        while i < self.lines.len() {
            if self.fills[i].cycle <= cycle {
                self.lines.swap_remove(i);
                self.fills.swap_remove(i);
            } else {
                i += 1;
            }
        }
        self.recompute_earliest();
    }

    fn recompute_earliest(&mut self) {
        self.earliest = self
            .fills
            .iter()
            .map(|f| f.cycle)
            .filter(|&c| c != u64::MAX)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// The index of `line_addr`'s entry.
    fn find(&self, line_addr: u64) -> Option<usize> {
        self.lines.iter().rposition(|&l| l == line_addr)
    }

    /// Returns the completion cycle and service level of an outstanding
    /// fill covering `line_addr`, if any (expired entries are retired
    /// first).
    pub fn pending_fill(&mut self, cycle: u64, line_addr: u64) -> Option<(u64, ServiceLevel)> {
        self.expire(cycle);
        self.find(line_addr)
            .map(|i| (self.fills[i].cycle, self.fills[i].level))
    }

    /// Counts a secondary miss merged outside [`Mshr::lookup`].
    pub fn note_merge(&mut self) {
        self.merges += 1;
    }

    /// Consults the MSHR for a miss on `line_addr` at `cycle`.
    pub fn lookup(&mut self, cycle: u64, line_addr: u64) -> MshrOutcome {
        self.expire(cycle);
        if let Some(i) = self.find(line_addr) {
            self.merges += 1;
            return MshrOutcome::Merged {
                fill_cycle: self.fills[i].cycle,
                level: self.fills[i].level,
            };
        }
        if self.reserve(line_addr) {
            MshrOutcome::Allocated
        } else {
            MshrOutcome::Full
        }
    }

    /// Reserves an entry for a miss on `line_addr`, which must have no
    /// outstanding fill: call it right after [`Mshr::pending_fill`]
    /// returned `None` for the same line and cycle, when [`Mshr::lookup`]
    /// could only allocate or report full and its scan would find nothing.
    /// Returns `false` (and counts a stall) when every entry is busy.
    pub fn reserve(&mut self, line_addr: u64) -> bool {
        debug_assert!(
            self.find(line_addr).is_none(),
            "reserve for line {line_addr:#x} with a fill outstanding"
        );
        if self.lines.len() >= self.capacity {
            self.stalls += 1;
            return false;
        }
        // Reserve the slot with a provisional far-future fill; the caller
        // must overwrite it via `record_fill`.
        self.lines.push(line_addr);
        self.fills.push(Fill {
            cycle: u64::MAX,
            level: ServiceLevel::Dram,
        });
        self.peak = self.peak.max(self.lines.len());
        true
    }

    /// Records the actual completion cycle and service level of the fill
    /// for `line_addr`.
    ///
    /// Calling this for a line that holds no reservation is a protocol
    /// violation (the caller lost track of its `lookup` outcome); it used
    /// to be silently ignored, which hid exactly the accounting bugs the
    /// exported counters are meant to surface.
    pub fn record_fill(&mut self, line_addr: u64, fill_cycle: u64, level: ServiceLevel) {
        let Some(i) = self.find(line_addr) else {
            debug_assert!(
                false,
                "record_fill for line {line_addr:#x} without a reservation"
            );
            return;
        };
        let old = std::mem::replace(
            &mut self.fills[i],
            Fill {
                cycle: fill_cycle,
                level,
            },
        );
        if fill_cycle != u64::MAX && fill_cycle <= self.earliest {
            self.earliest = fill_cycle;
        } else if old.cycle == self.earliest {
            self.recompute_earliest();
        }
    }

    /// Cancels the reservation for `line_addr` without a fill.
    ///
    /// [`Mshr::lookup`] reserves an entry with a provisional `u64::MAX`
    /// fill time; if the caller decides not to fetch after all it must
    /// abort, otherwise the reservation never expires and permanently eats
    /// one entry of MSHR capacity.
    pub fn abort(&mut self, line_addr: u64) {
        let Some(i) = self.find(line_addr) else {
            debug_assert!(false, "abort for line {line_addr:#x} without a reservation");
            return;
        };
        self.lines.swap_remove(i);
        let removed = self.fills.swap_remove(i);
        if removed.cycle == self.earliest {
            self.recompute_earliest();
        }
    }

    /// Number of merged (secondary) misses.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Number of full-MSHR stalls.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Current outstanding fills.
    pub fn occupancy(&self) -> usize {
        self.lines.len()
    }

    /// The earliest recorded fill completion among outstanding entries
    /// (provisional `u64::MAX` reservations are excluded — they complete
    /// at an unknown time). `None` when nothing with a known fill time is
    /// outstanding.
    pub fn next_fill(&self) -> Option<u64> {
        (self.earliest != u64::MAX).then_some(self.earliest)
    }

    /// Peak simultaneous occupancy observed so far (high-water mark).
    pub fn peak_occupancy(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_returns_existing_fill_time_and_level() {
        let mut m = Mshr::new(4);
        assert_eq!(m.lookup(0, 0x100), MshrOutcome::Allocated);
        m.record_fill(0x100, 250, ServiceLevel::Dram);
        assert_eq!(
            m.lookup(10, 0x100),
            MshrOutcome::Merged {
                fill_cycle: 250,
                level: ServiceLevel::Dram,
            }
        );
        assert_eq!(m.merges(), 1);
        // An L2-backed fill is reported as such to the merging access.
        assert_eq!(m.lookup(0, 0x200), MshrOutcome::Allocated);
        m.record_fill(0x200, 40, ServiceLevel::L2);
        assert_eq!(
            m.lookup(10, 0x200),
            MshrOutcome::Merged {
                fill_cycle: 40,
                level: ServiceLevel::L2,
            }
        );
    }

    #[test]
    fn capacity_limits_outstanding_fills() {
        let mut m = Mshr::new(2);
        assert_eq!(m.lookup(0, 0x100), MshrOutcome::Allocated);
        m.record_fill(0x100, 500, ServiceLevel::Dram);
        assert_eq!(m.lookup(0, 0x200), MshrOutcome::Allocated);
        m.record_fill(0x200, 500, ServiceLevel::Dram);
        assert_eq!(m.lookup(0, 0x300), MshrOutcome::Full);
        assert_eq!(m.stalls(), 1);
        // After the fills complete, capacity frees up.
        assert_eq!(m.lookup(501, 0x300), MshrOutcome::Allocated);
    }

    /// Regression: a provisional reservation whose fill is never recorded
    /// carries a `u64::MAX` completion cycle, so `expire` can never retire
    /// it — without an explicit `abort` it eats one entry of capacity for
    /// the rest of the simulation.
    #[test]
    fn leaked_reservation_permanently_eats_capacity_until_aborted() {
        let mut m = Mshr::new(2);
        assert_eq!(m.lookup(0, 0xA00), MshrOutcome::Allocated);
        // The caller "forgets" to record a fill for 0xA00.
        assert_eq!(m.lookup(0, 0xB00), MshrOutcome::Allocated);
        m.record_fill(0xB00, 10, ServiceLevel::L2);
        // Far in the future 0xB00 has expired, but the leaked 0xA00
        // reservation still occupies a slot...
        assert_eq!(m.lookup(1_000_000, 0xC00), MshrOutcome::Allocated);
        m.record_fill(0xC00, 1_000_010, ServiceLevel::Dram);
        assert_eq!(m.lookup(1_000_000, 0xD00), MshrOutcome::Full);
        assert_eq!(m.occupancy(), 2);
        // ...until the caller aborts it, restoring full capacity.
        m.abort(0xA00);
        assert_eq!(m.lookup(1_000_000, 0xD00), MshrOutcome::Allocated);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "without a reservation")]
    fn record_fill_for_unknown_line_is_a_protocol_violation() {
        let mut m = Mshr::new(2);
        m.record_fill(0xDEAD, 100, ServiceLevel::Dram);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "without a reservation")]
    fn abort_for_unknown_line_is_a_protocol_violation() {
        let mut m = Mshr::new(2);
        m.abort(0xDEAD);
    }

    #[test]
    fn peak_occupancy_is_a_high_water_mark() {
        let mut m = Mshr::new(4);
        assert_eq!(m.peak_occupancy(), 0);
        for i in 0..3u64 {
            assert_eq!(m.lookup(0, 0x100 * (i + 1)), MshrOutcome::Allocated);
            m.record_fill(0x100 * (i + 1), 10, ServiceLevel::L2);
        }
        assert_eq!(m.peak_occupancy(), 3);
        // Fills expire, occupancy drops — but the peak stays.
        assert_eq!(m.lookup(1000, 0x900), MshrOutcome::Allocated);
        m.record_fill(0x900, 1010, ServiceLevel::L2);
        assert_eq!(m.occupancy(), 1);
        assert_eq!(m.peak_occupancy(), 3);
    }

    #[test]
    fn expiry_is_cycle_accurate() {
        let mut m = Mshr::new(1);
        assert_eq!(m.lookup(0, 0x100), MshrOutcome::Allocated);
        m.record_fill(0x100, 100, ServiceLevel::Dram);
        // At cycle 100 the fill completes; lookups at 99 still merge.
        assert_eq!(
            m.lookup(99, 0x100),
            MshrOutcome::Merged {
                fill_cycle: 100,
                level: ServiceLevel::Dram,
            }
        );
        assert_eq!(m.lookup(100, 0x100), MshrOutcome::Allocated);
    }
}
