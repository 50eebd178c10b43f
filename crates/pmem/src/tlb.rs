//! Simulated two-level TLB.
//!
//! Fragmentation inflates the memory footprint, which inflates the number of
//! live pages, which thrashes the TLB — this is the mechanism by which
//! defragmentation *improves* application throughput in the paper (Figure 1
//! and §7.2 "the fragmentation causes more TLB entries and reduces cache
//! locality"). The model is a two-level, fully-associative-with-random-
//! replacement TLB; sizes and latencies come from Table 2.

use crate::directory::Directory;
use crate::stats::ThreadStats;
use crate::timing::MachineConfig;

/// One TLB level: a dense page vector (victims are chosen *by position*,
/// so the vector order is load-bearing for determinism) plus a radix
/// [`Directory`] from page number to position, so a membership check is
/// two array indexings instead of a scan of the 1536-entry L2 on every
/// simulated access that misses L1.
#[derive(Debug, Clone, Default)]
struct Level {
    pages: Vec<u64>,
    index: Directory,
}

impl Level {
    fn with_capacity(cap: usize) -> Self {
        Level {
            pages: Vec::with_capacity(cap),
            index: Directory::default(),
        }
    }

    #[inline]
    fn contains(&self, page: u64) -> bool {
        self.index.get(page).is_some()
    }

    #[inline]
    fn position(&self, page: u64) -> Option<usize> {
        self.index.get(page)
    }

    /// Mirrors `Vec::swap_remove`: the displaced tail entry takes the
    /// vacated position, and the index follows it.
    fn swap_remove(&mut self, pos: usize) -> u64 {
        let page = self.pages.swap_remove(pos);
        self.index.remove(page);
        if let Some(&moved) = self.pages.get(pos) {
            self.index.insert(moved, pos);
        }
        page
    }

    fn push(&mut self, page: u64) {
        self.index.insert(page, self.pages.len());
        self.pages.push(page);
    }

    fn clear(&mut self) {
        self.pages.clear();
        self.index.clear();
    }

    fn len(&self) -> usize {
        self.pages.len()
    }
}

/// A per-core (per-[`crate::Ctx`]) two-level TLB.
#[derive(Debug, Clone)]
pub struct Tlb {
    l1: Level,
    l2: Level,
    l1_cap: usize,
    l2_cap: usize,
    l1_latency: u64,
    l2_latency: u64,
    miss_penalty: u64,
    page_size: u64,
    // Cheap xorshift state for victim selection (deterministic).
    rng: u64,
    // Last translation (page, cost-class) — repeated accesses to the same
    // page skip even the directory lookup. Purely a host-side memo: the charged
    // cost and hit/miss counter are replayed from the cached classification,
    // identical to re-running `access`, because an L1 hit never mutates
    // TLB state.
    last_l1_hit: u64,
}

impl Tlb {
    /// Creates a TLB using the sizes/latencies in `cfg`.
    pub fn new(cfg: &MachineConfig) -> Self {
        Tlb {
            l1: Level::with_capacity(cfg.tlb_l1_entries),
            l2: Level::with_capacity(cfg.tlb_l2_entries),
            l1_cap: cfg.tlb_l1_entries,
            l2_cap: cfg.tlb_l2_entries,
            l1_latency: cfg.tlb_l1_latency,
            l2_latency: cfg.tlb_l2_latency,
            miss_penalty: cfg.tlb_miss_penalty,
            page_size: cfg.tlb_page_size,
            rng: cfg.seed | 1,
            last_l1_hit: u64::MAX,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Translates the page containing byte offset `off`; returns the cycle
    /// cost and updates hit/miss counters in `stats`.
    pub fn access(&mut self, off: u64, stats: &mut ThreadStats) -> u64 {
        let page = off / self.page_size;
        if page == self.last_l1_hit || self.l1.contains(page) {
            self.last_l1_hit = page;
            stats.tlb_l1_hits += 1;
            return self.l1_latency;
        }
        if let Some(pos) = self.l2.position(page) {
            stats.tlb_l2_hits += 1;
            // Promote to L1.
            self.l2.swap_remove(pos);
            self.insert_l1(page);
            self.last_l1_hit = page;
            return self.l1_latency + self.l2_latency;
        }
        stats.tlb_misses += 1;
        self.insert_l1(page);
        self.last_l1_hit = page;
        self.l1_latency + self.l2_latency + self.miss_penalty
    }

    fn insert_l1(&mut self, page: u64) {
        if self.l1.len() == self.l1_cap {
            let victim_idx = (self.next_rand() as usize) % self.l1.len();
            let victim = self.l1.swap_remove(victim_idx);
            if victim == self.last_l1_hit {
                self.last_l1_hit = u64::MAX;
            }
            self.insert_l2(victim);
        }
        self.l1.push(page);
    }

    fn insert_l2(&mut self, page: u64) {
        if self.l2.len() == self.l2_cap {
            let victim_idx = (self.next_rand() as usize) % self.l2.len();
            self.l2.swap_remove(victim_idx);
        }
        self.l2.push(page);
    }

    /// Drops all translations (e.g. after a simulated pool re-open).
    pub fn flush(&mut self) {
        self.l1.clear();
        self.l2.clear();
        self.last_l1_hit = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn tiny_cfg() -> MachineConfig {
        MachineConfig {
            tlb_l1_entries: 2,
            tlb_l2_entries: 4,
            ..MachineConfig::default()
        }
    }

    #[test]
    fn first_access_misses_then_hits() {
        let cfg = tiny_cfg();
        let mut tlb = Tlb::new(&cfg);
        let mut st = ThreadStats::default();
        let miss_cost = tlb.access(0, &mut st);
        assert_eq!(st.tlb_misses, 1);
        assert_eq!(
            miss_cost,
            cfg.tlb_l1_latency + cfg.tlb_l2_latency + cfg.tlb_miss_penalty
        );
        let hit_cost = tlb.access(8, &mut st); // same page
        assert_eq!(st.tlb_l1_hits, 1);
        assert_eq!(hit_cost, cfg.tlb_l1_latency);
    }

    #[test]
    fn eviction_to_l2_then_promotion() {
        let cfg = tiny_cfg();
        let mut tlb = Tlb::new(&cfg);
        let mut st = ThreadStats::default();
        // Fill L1 beyond capacity: pages 0,1,2 with L1 cap 2.
        for p in 0..3u64 {
            tlb.access(p * cfg.tlb_page_size, &mut st);
        }
        assert_eq!(st.tlb_misses, 3);
        // One of pages 0..2 now sits in L2; touching all three again must
        // produce at least one L2 hit (promotion) and zero full misses.
        let before_misses = st.tlb_misses;
        for p in 0..3u64 {
            tlb.access(p * cfg.tlb_page_size, &mut st);
        }
        assert_eq!(st.tlb_misses, before_misses);
        assert!(st.tlb_l2_hits >= 1);
    }

    #[test]
    fn more_pages_more_misses() {
        // The fragmentation→TLB effect: touching 64 pages round-robin misses
        // more than touching 2 pages for the same access count.
        let cfg = tiny_cfg();
        let mut st_few = ThreadStats::default();
        let mut tlb = Tlb::new(&cfg);
        for i in 0..1000u64 {
            tlb.access((i % 2) * cfg.tlb_page_size, &mut st_few);
        }
        let mut st_many = ThreadStats::default();
        let mut tlb = Tlb::new(&cfg);
        for i in 0..1000u64 {
            tlb.access((i % 64) * cfg.tlb_page_size, &mut st_many);
        }
        assert!(st_many.tlb_misses > st_few.tlb_misses * 10);
    }

    #[test]
    fn flush_forgets_everything() {
        let cfg = tiny_cfg();
        let mut tlb = Tlb::new(&cfg);
        let mut st = ThreadStats::default();
        tlb.access(0, &mut st);
        tlb.flush();
        tlb.access(0, &mut st);
        assert_eq!(st.tlb_misses, 2);
    }

    /// `Level` as it was: the page → position index is a hash map.
    #[derive(Default)]
    struct HashedLevel {
        pages: Vec<u64>,
        index: HashMap<u64, usize>,
    }

    impl HashedLevel {
        fn swap_remove(&mut self, pos: usize) -> u64 {
            let page = self.pages.swap_remove(pos);
            self.index.remove(&page);
            if let Some(&moved) = self.pages.get(pos) {
                self.index.insert(moved, pos);
            }
            page
        }

        fn push(&mut self, page: u64) {
            self.index.insert(page, self.pages.len());
            self.pages.push(page);
        }
    }

    /// The TLB over hashed levels, kept as the differential oracle for
    /// the radix-directory one.
    struct HashedTlb {
        l1: HashedLevel,
        l2: HashedLevel,
        l1_cap: usize,
        l2_cap: usize,
        rng: u64,
    }

    /// What one access did: L1 hit, L2 hit or miss.
    #[derive(Debug, PartialEq, Clone, Copy)]
    enum Outcome {
        L1,
        L2,
        Miss,
    }

    impl HashedTlb {
        fn next_rand(&mut self) -> u64 {
            let mut x = self.rng;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.rng = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn access(&mut self, page: u64) -> Outcome {
            if self.l1.index.contains_key(&page) {
                return Outcome::L1;
            }
            let outcome = match self.l2.index.get(&page).copied() {
                Some(pos) => {
                    self.l2.swap_remove(pos);
                    Outcome::L2
                }
                None => Outcome::Miss,
            };
            if self.l1.pages.len() == self.l1_cap {
                let victim_idx = (self.next_rand() as usize) % self.l1.pages.len();
                let victim = self.l1.swap_remove(victim_idx);
                if self.l2.pages.len() == self.l2_cap {
                    let victim_idx = (self.next_rand() as usize) % self.l2.pages.len();
                    self.l2.swap_remove(victim_idx);
                }
                self.l2.push(victim);
            }
            self.l1.push(page);
            outcome
        }
    }

    /// A fixed page sequence — a hot set that fits L1, a warm set that
    /// spills into L2, cold pages spread over several directory leaves and
    /// a mid-run clone — classifies every access exactly as the hashed
    /// levels did and leaves the victim rng on the same step each time.
    #[test]
    fn directory_levels_replay_hashed_levels() {
        let cfg = MachineConfig {
            tlb_l1_entries: 4,
            tlb_l2_entries: 24,
            ..MachineConfig::default()
        };
        let mut new = Tlb::new(&cfg);
        let mut old = HashedTlb {
            l1: HashedLevel::default(),
            l2: HashedLevel::default(),
            l1_cap: cfg.tlb_l1_entries,
            l2_cap: cfg.tlb_l2_entries,
            rng: cfg.seed | 1,
        };
        let mut st = ThreadStats::default();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = x >> 33;
            let page = match r % 10 {
                0..=3 => r % 3,      // hot: stays in L1
                4..=7 => r % 20,     // warm: L1 + L2
                8 => 1023 + r % 3,   // a leaf edge
                _ => r % (16 << 10), // cold: any page of a 64 MiB pool
            };
            if i == 9_000 {
                new = new.clone();
            }
            let before = st;
            new.access(page * cfg.tlb_page_size + r % cfg.tlb_page_size, &mut st);
            let got = if st.tlb_l1_hits > before.tlb_l1_hits {
                Outcome::L1
            } else if st.tlb_l2_hits > before.tlb_l2_hits {
                Outcome::L2
            } else {
                Outcome::Miss
            };
            assert_eq!(got, old.access(page), "access {i} to page {page}");
            assert_eq!(new.rng, old.rng, "rng out of step at access {i}");
            assert_eq!(new.l1.pages, old.l1.pages);
            assert_eq!(new.l2.pages, old.l2.pages);
        }
        assert!(st.tlb_l2_hits > 0 && st.tlb_misses > 0 && st.tlb_l1_hits > 0);
    }
}
