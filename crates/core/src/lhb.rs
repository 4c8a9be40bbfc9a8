//! The load history buffer (paper §IV-B, Fig. 8).
//!
//! The LHB records, for recently issued tensor-core loads of workspace
//! data, which physical warp register holds the loaded segment. It is
//! indexed by the low bits of the element ID and tagged with the remaining
//! element-ID bits, the batch ID and the process ID. Entries are released
//! when their owning load retires (unless relayed by a subsequent hit) and
//! on tag-matching stores.

use crate::{LoadToken, PhysReg, SegmentKey};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hasher for the owner map's load tokens, which the SM
/// numbers itself. SipHash's resistance to crafted keys buys nothing
/// there, and nothing iterates the map, so its order is never observed.
/// The oracle map keeps the default hasher: its keys derive from trace
/// addresses, which a submitted trace chooses.
#[derive(Copy, Clone, Default)]
struct TokenHasher(u64);

impl Hasher for TokenHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn finish(&self) -> u64 {
        // The multiply mixes upward; rotate the well-mixed high bits into
        // the low bits the table indexes by.
        self.0.rotate_left(26)
    }
}

/// LHB geometry.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct LhbConfig {
    /// Total entries; must be a power of two for direct/set-associative
    /// buffers. Ignored when `oracle` is set.
    pub entries: usize,
    /// Associativity (1 = direct-mapped, the paper's default; Fig. 12
    /// evaluates 2/4/8). Must divide `entries`.
    pub ways: usize,
    /// Infinite-capacity buffer ("oracle" in Fig. 9/10) — entry *lifetime*
    /// rules still apply, only capacity conflicts disappear.
    pub oracle: bool,
    /// WIR-style comparison mode (Kim & Ro, paper ref. 15; discussed in §IV-B):
    /// entries are keyed by *memory address* instead of element ID, so only
    /// loads to literally the same address can be eliminated — duplicates
    /// at different workspace addresses are missed. Used as an ablation
    /// baseline; normal Duplo operation leaves this off.
    pub addr_match_only: bool,
}

impl LhbConfig {
    /// The paper's default configuration: 1024-entry direct-mapped.
    pub fn paper_default() -> LhbConfig {
        LhbConfig {
            entries: 1024,
            ways: 1,
            oracle: false,
            addr_match_only: false,
        }
    }

    /// A direct-mapped buffer of `entries` entries.
    pub fn direct_mapped(entries: usize) -> LhbConfig {
        LhbConfig {
            entries,
            ways: 1,
            oracle: false,
            addr_match_only: false,
        }
    }

    /// A WIR-style buffer (same-address reuse only) of `entries` entries —
    /// the §IV-B comparison point.
    pub fn wir(entries: usize) -> LhbConfig {
        LhbConfig {
            entries,
            ways: 1,
            oracle: false,
            addr_match_only: true,
        }
    }

    /// A set-associative buffer (total capacity `entries`).
    pub fn set_associative(entries: usize, ways: usize) -> LhbConfig {
        LhbConfig {
            entries,
            ways,
            oracle: false,
            addr_match_only: false,
        }
    }

    /// The infinite-capacity oracle.
    pub fn oracle() -> LhbConfig {
        LhbConfig {
            entries: 0,
            ways: 1,
            oracle: true,
            addr_match_only: false,
        }
    }

    /// Human-readable label used in experiment tables.
    pub fn label(&self) -> String {
        if self.oracle {
            "oracle".to_string()
        } else if self.addr_match_only {
            format!("{}-entry WIR", self.entries)
        } else if self.ways == 1 {
            format!("{}-entry", self.entries)
        } else {
            format!("{}-entry/{}-way", self.entries, self.ways)
        }
    }

    /// Storage bits of the buffer (tag + register ID + valid per entry),
    /// used by the area model. The paper's entry layout: 32-bit tag
    /// (22 element + 10 batch), PID, 10-bit physical register ID.
    pub fn storage_bits(&self) -> u64 {
        if self.oracle {
            return 0;
        }
        const TAG_BITS: u64 = 32;
        const PID_BITS: u64 = 8;
        const REG_BITS: u64 = 10;
        const VALID: u64 = 1;
        self.entries as u64 * (TAG_BITS + PID_BITS + REG_BITS + VALID)
    }
}

#[derive(Copy, Clone, Debug)]
struct Entry {
    key: SegmentKey,
    pid: u16,
    preg: PhysReg,
    owner: LoadToken,
    /// LRU timestamp within the set.
    lru: u64,
}

/// Hit/miss/eviction counters.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct LhbStats {
    /// Probes that found a live matching entry.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Entries displaced by conflicting allocations.
    pub conflict_evictions: u64,
    /// Entries released at load retirement.
    pub retire_releases: u64,
    /// Entries invalidated by tag-matching stores.
    pub store_invalidations: u64,
}

impl LhbStats {
    /// Hit rate over all probes (Fig. 10's y-axis).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The load history buffer.
#[derive(Clone, Debug)]
pub struct Lhb {
    config: LhbConfig,
    /// Bounded storage: `sets x ways`, `None` = invalid.
    sets: Vec<Vec<Option<Entry>>>,
    /// Oracle storage.
    map: HashMap<(u64, u64, u16), Entry>,
    /// Owner-token -> location, for O(1) retirement release.
    owners: HashMap<LoadToken, (u64, u64, u16), BuildHasherDefault<TokenHasher>>,
    stats: LhbStats,
    clock: u64,
}

impl Lhb {
    /// Creates an LHB with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if a bounded configuration has zero entries, non-power-of-two
    /// entry count, or `ways` not dividing `entries`; also panics on
    /// `oracle` combined with `addr_match_only` (an infinite WIR buffer is
    /// not a configuration the paper defines — the oracle models unlimited
    /// *ID-matched* reuse, while WIR deliberately restricts matching to raw
    /// addresses).
    pub fn new(config: LhbConfig) -> Lhb {
        assert!(
            !(config.oracle && config.addr_match_only),
            "oracle LHB cannot use WIR address matching (oracle + addr_match_only)"
        );
        if !config.oracle {
            assert!(config.entries > 0, "LHB needs at least one entry");
            assert!(
                config.entries.is_power_of_two(),
                "LHB entries must be a power of two (got {})",
                config.entries
            );
            assert!(
                config.ways > 0 && config.entries % config.ways == 0,
                "ways {} must divide entries {}",
                config.ways,
                config.entries
            );
        }
        let num_sets = if config.oracle {
            0
        } else {
            config.entries / config.ways
        };
        Lhb {
            config,
            sets: vec![vec![None; config.ways]; num_sets],
            map: HashMap::new(),
            owners: HashMap::default(),
            stats: LhbStats::default(),
            clock: 0,
        }
    }

    /// The buffer's configuration.
    pub fn config(&self) -> LhbConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> LhbStats {
        self.stats
    }

    fn full_key(key: SegmentKey, pid: u16) -> (u64, u64, u16) {
        (key.element, key.batch, pid)
    }

    fn set_index(&self, key: SegmentKey) -> usize {
        // "the least-significant 10 bits of element ID are hashed for
        // indexing". Segment-granular element IDs are multiples of the
        // 16-element load width, so a plain low-bit modulo would use only
        // 1/16th of the sets; XOR-folding the higher bits (a pair of XOR
        // gates per index bit in hardware) spreads them.
        // Tensor-core segments are 16-element aligned, so the low four
        // element-ID bits of the access stream are often zero; XOR-fold
        // with shifts of 4 and 15 so both aligned and unaligned streams
        // spread over all sets (shifts are coprime to the power-of-two set
        // widths, avoiding pairwise bit aliasing).
        let e = key.element ^ (key.batch << 24);
        let folded = e ^ (e >> 4) ^ (e >> 9) ^ (e >> 15) ^ (e >> 23);
        (folded as usize) % self.sets.len()
    }

    /// Probes the buffer for `key`. On a hit, ownership of the entry is
    /// relayed to `token` (extending the entry's lifetime until that load
    /// retires) and the physical register holding the duplicate is
    /// returned.
    pub fn probe(&mut self, key: SegmentKey, pid: u16, token: LoadToken) -> Option<PhysReg> {
        self.clock += 1;
        let fk = Self::full_key(key, pid);
        if self.config.oracle {
            if let Some(entry) = self.map.get_mut(&fk) {
                self.stats.hits += 1;
                self.owners.remove(&entry.owner);
                entry.owner = token;
                entry.lru = self.clock;
                self.owners.insert(token, fk);
                return Some(entry.preg);
            }
            self.stats.misses += 1;
            return None;
        }
        let set = self.set_index(key);
        let clock = self.clock;
        for slot in self.sets[set].iter_mut() {
            if let Some(entry) = slot {
                if entry.key == key && entry.pid == pid {
                    self.stats.hits += 1;
                    let old = entry.owner;
                    entry.owner = token;
                    entry.lru = clock;
                    let preg = entry.preg;
                    self.owners.remove(&old);
                    self.owners.insert(token, fk);
                    return Some(preg);
                }
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Allocates an entry after a miss: records that `token`'s load will
    /// deposit the segment `key` into physical register `preg`. Displaces
    /// the LRU way on a set conflict; the displaced entry's physical
    /// register is returned so the caller can drop the LHB's reference to
    /// it.
    pub fn allocate(
        &mut self,
        key: SegmentKey,
        pid: u16,
        preg: PhysReg,
        token: LoadToken,
    ) -> Option<PhysReg> {
        self.clock += 1;
        let fk = Self::full_key(key, pid);
        let entry = Entry {
            key,
            pid,
            preg,
            owner: token,
            lru: self.clock,
        };
        if self.config.oracle {
            let evicted = self.map.insert(fk, entry).map(|old| {
                self.owners.remove(&old.owner);
                self.stats.conflict_evictions += 1;
                old.preg
            });
            self.owners.insert(token, fk);
            return evicted;
        }
        let set = self.set_index(key);
        // Prefer an invalid way; otherwise evict LRU.
        let mut victim = 0;
        let mut best_lru = u64::MAX;
        for (w, slot) in self.sets[set].iter().enumerate() {
            match slot {
                None => {
                    victim = w;
                    break;
                }
                Some(e) if e.lru < best_lru => {
                    best_lru = e.lru;
                    victim = w;
                }
                _ => {}
            }
        }
        let evicted = self.sets[set][victim].take().map(|old| {
            self.owners.remove(&old.owner);
            self.stats.conflict_evictions += 1;
            old.preg
        });
        self.sets[set][victim] = Some(entry);
        self.owners.insert(token, fk);
        evicted
    }

    /// Releases the entry owned by `token`, called when that load retires
    /// (§IV-B: "The LHB releases an entry when the corresponding
    /// tensor-core-load instruction retires"). A no-op when the entry was
    /// relayed to a later load or already displaced. Returns the physical
    /// register the released entry referenced, so the caller can drop the
    /// LHB's reference.
    pub fn retire(&mut self, token: LoadToken) -> Option<PhysReg> {
        let fk = self.owners.remove(&token)?;
        if self.config.oracle {
            if self.map.get(&fk).is_some_and(|e| e.owner == token) {
                let e = self.map.remove(&fk).expect("just checked");
                self.stats.retire_releases += 1;
                return Some(e.preg);
            }
            return None;
        }
        let key = SegmentKey {
            element: fk.0,
            batch: fk.1,
        };
        let set = self.set_index(key);
        for slot in self.sets[set].iter_mut() {
            if slot.is_some_and(|e| e.owner == token) {
                let e = slot.take().expect("just checked");
                self.stats.retire_releases += 1;
                return Some(e.preg);
            }
        }
        None
    }

    /// Invalidates any entry matching `key` (a store to workspace data,
    /// §IV-B consistency rule — "such a case was never observed in our
    /// experiments", but the hardware must handle it). Returns the
    /// invalidated entry's physical register.
    pub fn store_invalidate(&mut self, key: SegmentKey, pid: u16) -> Option<PhysReg> {
        let fk = Self::full_key(key, pid);
        if self.config.oracle {
            if let Some(e) = self.map.remove(&fk) {
                self.owners.remove(&e.owner);
                self.stats.store_invalidations += 1;
                return Some(e.preg);
            }
            return None;
        }
        let set = self.set_index(key);
        for slot in self.sets[set].iter_mut() {
            if slot.is_some_and(|e| e.key == key && e.pid == pid) {
                let e = slot.take().expect("just checked");
                self.owners.remove(&e.owner);
                self.stats.store_invalidations += 1;
                return Some(e.preg);
            }
        }
        None
    }

    /// Number of currently valid entries (test/diagnostic aid).
    pub fn occupancy(&self) -> usize {
        if self.config.oracle {
            self.map.len()
        } else {
            self.sets
                .iter()
                .map(|s| s.iter().filter(|e| e.is_some()).count())
                .sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(element: u64) -> SegmentKey {
        SegmentKey { element, batch: 0 }
    }

    #[test]
    fn table2_workflow() {
        // Reproduces the paper's Table II on a small direct-mapped LHB.
        let mut lhb = Lhb::new(LhbConfig::direct_mapped(8));
        // Inst 1: element 2 -> miss, allocate, %r4 renamed to %p2.
        let t1 = LoadToken(1);
        assert_eq!(lhb.probe(key(2), 0, t1), None);
        lhb.allocate(key(2), 0, PhysReg(2), t1);
        // Inst 3: element 2 again -> hit, register reuse (%r3 -> %p2).
        let t3 = LoadToken(3);
        assert_eq!(lhb.probe(key(2), 0, t3), Some(PhysReg(2)));
        // Inst 4: element 6 maps to the same entry #2 (8-entry buffer would
        // be entry 6; emulate the paper's 4-entry view with a 4-entry LHB
        // instead):
        let mut small = Lhb::new(LhbConfig::direct_mapped(4));
        let t1 = LoadToken(11);
        assert_eq!(small.probe(key(2), 0, t1), None);
        small.allocate(key(2), 0, PhysReg(2), t1);
        let t4 = LoadToken(14);
        // element 6 % 4 sets == entry 2: conflict miss, entry replaced.
        assert_eq!(small.probe(key(6), 0, t4), None);
        small.allocate(key(6), 0, PhysReg(6), t4);
        assert_eq!(small.stats().conflict_evictions, 1);
        // The old element-2 entry is gone.
        assert_eq!(small.probe(key(2), 0, LoadToken(15)), None);
    }

    #[test]
    fn retirement_releases_unrelayed_entry() {
        let mut lhb = Lhb::new(LhbConfig::direct_mapped(16));
        let t = LoadToken(1);
        lhb.probe(key(5), 0, t);
        lhb.allocate(key(5), 0, PhysReg(7), t);
        assert_eq!(lhb.occupancy(), 1);
        lhb.retire(t);
        assert_eq!(lhb.occupancy(), 0);
        assert_eq!(lhb.stats().retire_releases, 1);
        // A later probe misses: the value's liveness is no longer guaranteed.
        assert_eq!(lhb.probe(key(5), 0, LoadToken(2)), None);
    }

    #[test]
    fn relayed_entry_survives_original_retirement() {
        // "continuous hits at the LHB entry can relay the warp register to
        // the next tensor-core-load instructions until the very last one
        // commits".
        let mut lhb = Lhb::new(LhbConfig::direct_mapped(16));
        let t1 = LoadToken(1);
        lhb.probe(key(5), 0, t1);
        lhb.allocate(key(5), 0, PhysReg(7), t1);
        let t2 = LoadToken(2);
        assert_eq!(lhb.probe(key(5), 0, t2), Some(PhysReg(7)));
        // Original load retires: entry must survive (owned by t2 now).
        lhb.retire(t1);
        assert_eq!(lhb.occupancy(), 1);
        assert_eq!(lhb.probe(key(5), 0, LoadToken(3)), Some(PhysReg(7)));
        // Final owner retires: entry released.
        lhb.retire(LoadToken(3));
        assert_eq!(lhb.occupancy(), 0);
    }

    #[test]
    fn direct_mapped_conflicts_where_set_associative_hits() {
        // Elements 3 and 3+sets collide in a direct-mapped buffer but
        // coexist in a 2-way one of equal capacity.
        let mut dm = Lhb::new(LhbConfig::direct_mapped(8));
        let mut sa = Lhb::new(LhbConfig::set_associative(8, 2));
        for (i, el) in [3u64, 11, 3, 11].iter().enumerate() {
            let t = LoadToken(i as u64);
            if dm.probe(key(*el), 0, t).is_none() {
                dm.allocate(key(*el), 0, PhysReg(*el as u32), t);
            }
            let t = LoadToken(100 + i as u64);
            if sa.probe(key(*el), 0, t).is_none() {
                sa.allocate(key(*el), 0, PhysReg(*el as u32), t);
            }
        }
        assert_eq!(dm.stats().hits, 0, "direct-mapped must thrash");
        assert_eq!(sa.stats().hits, 2, "2-way must keep both");
    }

    #[test]
    fn oracle_never_conflicts() {
        let mut lhb = Lhb::new(LhbConfig::oracle());
        for el in 0..10_000u64 {
            let t = LoadToken(el);
            assert_eq!(lhb.probe(key(el), 0, t), None);
            lhb.allocate(key(el), 0, PhysReg(el as u32), t);
        }
        for el in 0..10_000u64 {
            assert!(lhb.probe(key(el), 0, LoadToken(20_000 + el)).is_some());
        }
        assert_eq!(lhb.stats().conflict_evictions, 0);
        assert!((lhb.stats().hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn store_invalidation() {
        let mut lhb = Lhb::new(LhbConfig::direct_mapped(16));
        let t = LoadToken(1);
        lhb.probe(key(9), 0, t);
        lhb.allocate(key(9), 0, PhysReg(1), t);
        lhb.store_invalidate(key(9), 0);
        assert_eq!(lhb.occupancy(), 0);
        assert_eq!(lhb.stats().store_invalidations, 1);
        // Invalidating a missing key is a no-op.
        lhb.store_invalidate(key(9), 0);
        assert_eq!(lhb.stats().store_invalidations, 1);
    }

    #[test]
    fn pid_isolates_processes() {
        let mut lhb = Lhb::new(LhbConfig::direct_mapped(16));
        let t = LoadToken(1);
        lhb.probe(key(4), 1, t);
        lhb.allocate(key(4), 1, PhysReg(3), t);
        // Same element, different PID: miss.
        assert_eq!(lhb.probe(key(4), 2, LoadToken(2)), None);
        assert_eq!(lhb.probe(key(4), 1, LoadToken(3)), Some(PhysReg(3)));
    }

    #[test]
    fn batch_id_disambiguates_images() {
        let mut lhb = Lhb::new(LhbConfig::direct_mapped(16));
        let a = SegmentKey {
            element: 4,
            batch: 0,
        };
        let b = SegmentKey {
            element: 4,
            batch: 1,
        };
        let t = LoadToken(1);
        lhb.probe(a, 0, t);
        lhb.allocate(a, 0, PhysReg(3), t);
        assert_eq!(lhb.probe(b, 0, LoadToken(2)), None, "no cross-batch reuse");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_entries_rejected() {
        let _ = Lhb::new(LhbConfig::direct_mapped(1000));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        let _ = Lhb::new(LhbConfig::direct_mapped(0));
    }

    #[test]
    #[should_panic(expected = "must divide entries")]
    fn ways_not_dividing_entries_rejected() {
        let _ = Lhb::new(LhbConfig::set_associative(16, 3));
    }

    #[test]
    #[should_panic(expected = "must divide entries")]
    fn zero_ways_rejected() {
        let _ = Lhb::new(LhbConfig::set_associative(16, 0));
    }

    #[test]
    #[should_panic(expected = "oracle + addr_match_only")]
    fn oracle_wir_combination_rejected() {
        let config = LhbConfig {
            addr_match_only: true,
            ..LhbConfig::oracle()
        };
        let _ = Lhb::new(config);
    }

    #[test]
    fn storage_bits_scale_with_entries() {
        assert_eq!(
            LhbConfig::direct_mapped(1024).storage_bits(),
            1024 * (32 + 8 + 10 + 1)
        );
        assert_eq!(LhbConfig::oracle().storage_bits(), 0);
    }
}
