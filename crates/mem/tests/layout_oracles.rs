//! Differential oracles for the tag store and the MSHR file: random
//! operation sequences run through [`Cache`] and [`Mshr`] and through
//! reference models of their earlier layouts — a per-set
//! `Vec<Option<Line>>` LRU cache and a `HashMap` MSHR file that scans every
//! entry on expiry. Every return value, counter and `next_fill` must match
//! at every step.
//!
//! Runs on the hermetic `duplo_testkit::prop` runner; set `DUPLO_TEST_SEED`
//! to reproduce a failure.

use std::collections::HashMap;

use duplo_mem::{Cache, CacheConfig, Mshr, MshrOutcome, ServiceLevel};
use duplo_testkit::prop::check;
use duplo_testkit::{Rng, require_eq};

/// The reference cache: one `Vec<Option<(tag, lru)>>` per set, LRU victim
/// chosen as the first invalid way, else the first least recently used.
struct RefCache {
    line_bytes: u64,
    sets: Vec<Vec<Option<(u64, u64)>>>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl RefCache {
    fn new(config: CacheConfig) -> RefCache {
        RefCache {
            line_bytes: config.line_bytes as u64,
            sets: vec![vec![None; config.ways]; config.sets()],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes;
        ((line % self.sets.len() as u64) as usize, line)
    }

    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let (set, tag) = self.locate(addr);
        let clock = self.clock;
        for (t, lru) in self.sets[set].iter_mut().flatten() {
            if *t == tag {
                *lru = clock;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        let mut victim = 0;
        let mut best = u64::MAX;
        for (w, slot) in self.sets[set].iter().enumerate() {
            match slot {
                None => {
                    victim = w;
                    break;
                }
                Some((_, lru)) if *lru < best => {
                    best = *lru;
                    victim = w;
                }
                _ => {}
            }
        }
        self.sets[set][victim] = Some((tag, clock));
        false
    }

    fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.sets[set].iter().flatten().any(|&(t, _)| t == tag)
    }

    fn invalidate(&mut self, addr: u64) {
        let (set, tag) = self.locate(addr);
        for slot in &mut self.sets[set] {
            if slot.is_some_and(|(t, _)| t == tag) {
                *slot = None;
            }
        }
    }
}

#[derive(Debug)]
enum CacheOp {
    Access(u64),
    Invalidate(u64),
}

#[derive(Debug)]
struct CacheCase {
    config: CacheConfig,
    ops: Vec<CacheOp>,
}

fn cache_case(rng: &mut Rng) -> Option<CacheCase> {
    let ways = rng.gen_range(1usize..7);
    let sets = rng.gen_range(1usize..9);
    let line_bytes = [16usize, 32, 128][rng.gen_index(3)];
    let config = CacheConfig {
        size_bytes: sets * ways * line_bytes,
        ways,
        line_bytes,
        latency: 1,
    };
    // Three times the capacity, so sets overflow and lines come back.
    let span = (3 * config.size_bytes) as u64;
    let len = rng.gen_range(1usize..300);
    let ops = (0..len)
        .map(|_| {
            let addr = rng.gen_range(0..span);
            if rng.gen_bool(0.15) {
                CacheOp::Invalidate(addr)
            } else {
                CacheOp::Access(addr)
            }
        })
        .collect();
    Some(CacheCase { config, ops })
}

#[test]
fn flat_cache_matches_the_per_set_reference() {
    check(
        "flat_cache_matches_the_per_set_reference",
        128,
        cache_case,
        |case| {
            let mut cache = Cache::new(case.config);
            let mut reference = RefCache::new(case.config);
            for (i, op) in case.ops.iter().enumerate() {
                let addr = match *op {
                    CacheOp::Access(addr) => {
                        require_eq!(cache.access(addr), reference.access(addr), "op {i}");
                        addr
                    }
                    CacheOp::Invalidate(addr) => {
                        cache.invalidate(addr);
                        reference.invalidate(addr);
                        addr
                    }
                };
                let stats = cache.stats();
                require_eq!(
                    (stats.hits, stats.misses),
                    (reference.hits, reference.misses),
                    "op {i}"
                );
                require_eq!(cache.contains(addr), reference.contains(addr), "op {i}");
            }
            Ok(())
        },
    );
}

/// The reference MSHR file: a `HashMap` from line to `(fill cycle,
/// level)`, retained in full on every expiry and scanned for `next_fill`.
struct RefMshr {
    capacity: usize,
    pending: HashMap<u64, (u64, ServiceLevel)>,
    peak: usize,
    merges: u64,
    stalls: u64,
}

impl RefMshr {
    fn new(capacity: usize) -> RefMshr {
        RefMshr {
            capacity,
            pending: HashMap::new(),
            peak: 0,
            merges: 0,
            stalls: 0,
        }
    }

    fn expire(&mut self, cycle: u64) {
        self.pending.retain(|_, &mut (fill, _)| fill > cycle);
    }

    fn pending_fill(&mut self, cycle: u64, line: u64) -> Option<(u64, ServiceLevel)> {
        self.expire(cycle);
        self.pending.get(&line).copied()
    }

    fn lookup(&mut self, cycle: u64, line: u64) -> MshrOutcome {
        self.expire(cycle);
        if let Some(&(fill_cycle, level)) = self.pending.get(&line) {
            self.merges += 1;
            return MshrOutcome::Merged { fill_cycle, level };
        }
        if self.pending.len() >= self.capacity {
            self.stalls += 1;
            return MshrOutcome::Full;
        }
        self.pending.insert(line, (u64::MAX, ServiceLevel::Dram));
        self.peak = self.peak.max(self.pending.len());
        MshrOutcome::Allocated
    }

    fn next_fill(&self) -> Option<u64> {
        self.pending
            .values()
            .map(|&(f, _)| f)
            .filter(|&f| f != u64::MAX)
            .min()
    }

    /// The `k`-th outstanding line in address order, if any.
    fn nth_line(&self, k: usize) -> Option<u64> {
        let mut lines: Vec<u64> = self.pending.keys().copied().collect();
        lines.sort_unstable();
        (!lines.is_empty()).then(|| lines[k % lines.len()])
    }
}

#[derive(Debug)]
enum MshrOp {
    Lookup {
        cycle: u64,
        line: u64,
    },
    PendingFill {
        cycle: u64,
        line: u64,
    },
    /// The L1 miss path: `pending_fill`, then `reserve` when it found no
    /// fill (the reference answers with a full `lookup`).
    Reserve {
        cycle: u64,
        line: u64,
    },
    Expire(u64),
    /// Records a fill for the `k`-th outstanding line (reservations and
    /// already recorded fills alike).
    RecordFill {
        k: usize,
        fill: u64,
        level: ServiceLevel,
    },
    /// Aborts the `k`-th outstanding line.
    Abort(usize),
    NoteMerge,
}

fn mshr_case(rng: &mut Rng) -> Option<(usize, Vec<MshrOp>)> {
    let capacity = rng.gen_range(1usize..7);
    let len = rng.gen_range(1usize..300);
    let ops = (0..len)
        .map(|_| {
            let cycle = rng.gen_range(0u64..200);
            let line = rng.gen_range(0u64..12);
            match rng.gen_range(0u32..14) {
                0..=3 => MshrOp::Lookup { cycle, line },
                4..=5 => MshrOp::PendingFill { cycle, line },
                6 => MshrOp::Expire(cycle),
                7..=9 => MshrOp::RecordFill {
                    k: rng.gen_index(8),
                    // Now and then a provisional fill again.
                    fill: if rng.gen_bool(0.1) {
                        u64::MAX
                    } else {
                        rng.gen_range(0u64..260)
                    },
                    level: [ServiceLevel::L2, ServiceLevel::Dram][rng.gen_index(2)],
                },
                10 => MshrOp::Abort(rng.gen_index(8)),
                11 => MshrOp::NoteMerge,
                _ => MshrOp::Reserve { cycle, line },
            }
        })
        .collect();
    Some((capacity, ops))
}

#[test]
fn array_mshr_matches_the_hashmap_reference() {
    check(
        "array_mshr_matches_the_hashmap_reference",
        128,
        mshr_case,
        |(capacity, ops)| {
            let mut mshr = Mshr::new(*capacity);
            let mut reference = RefMshr::new(*capacity);
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    MshrOp::Lookup { cycle, line } => {
                        require_eq!(
                            mshr.lookup(cycle, line),
                            reference.lookup(cycle, line),
                            "op {i}"
                        );
                    }
                    MshrOp::PendingFill { cycle, line } => {
                        require_eq!(
                            mshr.pending_fill(cycle, line),
                            reference.pending_fill(cycle, line),
                            "op {i}"
                        );
                    }
                    MshrOp::Reserve { cycle, line } => {
                        let pending = mshr.pending_fill(cycle, line);
                        require_eq!(pending, reference.pending_fill(cycle, line), "op {i}");
                        if pending.is_none() {
                            let allocated = match reference.lookup(cycle, line) {
                                MshrOutcome::Allocated => true,
                                MshrOutcome::Full => false,
                                merged => return Err(format!("op {i}: reference {merged:?}")),
                            };
                            require_eq!(mshr.reserve(line), allocated, "op {i}");
                        }
                    }
                    MshrOp::Expire(cycle) => {
                        mshr.expire(cycle);
                        reference.expire(cycle);
                    }
                    MshrOp::RecordFill { k, fill, level } => {
                        if let Some(line) = reference.nth_line(k) {
                            mshr.record_fill(line, fill, level);
                            reference.pending.insert(line, (fill, level));
                        }
                    }
                    MshrOp::Abort(k) => {
                        if let Some(line) = reference.nth_line(k) {
                            mshr.abort(line);
                            reference.pending.remove(&line);
                        }
                    }
                    MshrOp::NoteMerge => {
                        mshr.note_merge();
                        reference.merges += 1;
                    }
                }
                require_eq!(mshr.next_fill(), reference.next_fill(), "op {i}");
                require_eq!(mshr.occupancy(), reference.pending.len(), "op {i}");
                require_eq!(mshr.peak_occupancy(), reference.peak, "op {i}");
                require_eq!(
                    (mshr.merges(), mshr.stalls()),
                    (reference.merges, reference.stalls),
                    "op {i}"
                );
            }
            Ok(())
        },
    );
}
