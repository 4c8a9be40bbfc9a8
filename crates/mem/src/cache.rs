//! Set-associative cache with LRU replacement.

/// Cache geometry and timing.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines >= self.ways && lines % self.ways == 0,
            "cache of {} lines cannot be {}-way",
            lines,
            self.ways
        );
        lines / self.ways
    }
}

/// One way of a set. `lru == 0` marks an invalid way: the access clock
/// starts at 1, so every valid line carries a nonzero stamp.
#[derive(Copy, Clone, Debug, Default)]
struct Line {
    tag: u64,
    lru: u64,
}

/// Per-cache hit/miss counters.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups that found the line.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate over all lookups.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A set-associative, LRU, allocate-on-miss cache model (tags only — data
/// values live in the functional layer).
///
/// The tag store is one flat `sets × ways` array; set `s` is the slice
/// `lines[s * ways..(s + 1) * ways]`.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    sets: u64,
    lines: Vec<Line>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.sets();
        Cache {
            config,
            sets: sets as u64,
            lines: vec![Line::default(); sets * config.ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The ways of `addr`'s set and its tag (the line number).
    fn locate(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let lb = self.config.line_bytes as u64;
        let line = if lb.is_power_of_two() {
            addr >> lb.trailing_zeros()
        } else {
            addr / lb
        };
        let set = if self.sets.is_power_of_two() {
            line & (self.sets - 1)
        } else {
            line % self.sets
        };
        let base = set as usize * self.config.ways;
        (base..base + self.config.ways, line)
    }

    /// Looks up `addr`; on a miss the line is allocated (LRU victim
    /// displaced). Returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let (ways, tag) = self.locate(addr);
        let set = &mut self.lines[ways];
        if let Some(line) = set.iter_mut().find(|l| l.tag == tag && l.lru != 0) {
            line.lru = self.clock;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // Allocate: the first way with the smallest stamp, which is the
        // first invalid way if there is one (stamp 0), else the LRU way.
        let mut victim = 0;
        for (w, l) in set.iter().enumerate() {
            if l.lru < set[victim].lru {
                victim = w;
            }
        }
        set[victim] = Line {
            tag,
            lru: self.clock,
        };
        false
    }

    /// Tag probe without allocation or stats (diagnostics).
    pub fn contains(&self, addr: u64) -> bool {
        let (ways, tag) = self.locate(addr);
        self.lines[ways].iter().any(|l| l.tag == tag && l.lru != 0)
    }

    /// Invalidates a line if present (used for store-through coherence in
    /// tests; the GEMM kernels never store to cached input data).
    pub fn invalidate(&mut self, addr: u64) {
        let (ways, tag) = self.locate(addr);
        for l in &mut self.lines[ways] {
            if l.tag == tag {
                l.lru = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 lines of 32 B, 2-way => 2 sets.
        Cache::new(CacheConfig {
            size_bytes: 128,
            ways: 2,
            line_bytes: 32,
            latency: 1,
        })
    }

    #[test]
    fn hit_after_allocate() {
        let mut c = tiny();
        assert!(!c.access(0x40));
        assert!(c.access(0x40));
        assert!(c.access(0x5F)); // same 32-byte line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        assert!(!c.access(0 * 32));
        assert!(!c.access(2 * 32));
        assert!(c.access(0 * 32)); // refresh line 0
        assert!(!c.access(4 * 32)); // evicts line 2 (LRU)
        assert!(c.access(0 * 32));
        assert!(!c.access(2 * 32)); // line 2 was evicted
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        assert!(!c.access(0 * 32)); // set 0
        assert!(!c.access(1 * 32)); // set 1
        assert!(!c.access(2 * 32)); // set 0
        assert!(!c.access(3 * 32)); // set 1
        assert!(c.access(0 * 32));
        assert!(c.access(1 * 32));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.access(0x100);
        assert!(c.contains(0x100));
        c.invalidate(0x100);
        assert!(!c.contains(0x100));
    }

    #[test]
    fn table3_l2_geometry() {
        // 4.5MB, 24-way, 128B lines => 1536 sets (Table III says 32 sets of
        // larger slices across partitions; the total line count matches).
        let cfg = CacheConfig {
            size_bytes: 4_718_592,
            ways: 24,
            line_bytes: 128,
            latency: 120,
        };
        assert_eq!(cfg.sets(), 1536);
    }

    #[test]
    #[should_panic(expected = "cannot be")]
    fn bad_geometry_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 96,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        });
    }
}
