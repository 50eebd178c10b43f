//! Statistic counters, per-thread and engine-global.

use serde::{Deserialize, Serialize};

/// Counters accumulated by one execution context ([`crate::Ctx`]).
///
/// All counts are raw event counts; cycle attribution lives in
/// [`crate::Ctx::cycles`]. Merge per-thread stats with [`ThreadStats::merge`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadStats {
    /// Loads that hit the simulated cache.
    pub cache_hits: u64,
    /// Loads/stores that missed and filled from media.
    pub cache_misses: u64,
    /// Stores issued.
    pub stores: u64,
    /// Loads issued.
    pub loads: u64,
    /// `clwb` instructions issued.
    pub clwbs: u64,
    /// `sfence` instructions issued.
    pub sfences: u64,
    /// Lines synchronously drained on this thread's behalf (backpressure).
    pub wpq_drained: u64,
    /// TLB level-1 hits.
    pub tlb_l1_hits: u64,
    /// TLB level-2 hits.
    pub tlb_l2_hits: u64,
    /// Full TLB misses (page-walk penalties paid).
    pub tlb_misses: u64,
    /// `relocate` instructions issued (FFCCD hardware).
    pub relocates: u64,
    /// `checklookup` instructions issued (FFCCD hardware).
    pub checklookups: u64,
    /// Cache-hit line reads served under a *shared* bank acquisition (the
    /// lock-light read fast path); a subset of `cache_hits`. Purely a
    /// host-side contention metric — it never affects cycle accounting.
    pub shared_line_reads: u64,
    // Shim: never incremented; the frozen `benchmark/` reads it, its next PR removes it.
    #[doc(hidden)]
    pub barrier_fastpath_hits: u64,
}

impl ThreadStats {
    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &ThreadStats) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.stores += other.stores;
        self.loads += other.loads;
        self.clwbs += other.clwbs;
        self.sfences += other.sfences;
        self.wpq_drained += other.wpq_drained;
        self.tlb_l1_hits += other.tlb_l1_hits;
        self.tlb_l2_hits += other.tlb_l2_hits;
        self.tlb_misses += other.tlb_misses;
        self.relocates += other.relocates;
        self.checklookups += other.checklookups;
        self.shared_line_reads += other.shared_line_reads;
    }
}

/// Counters owned by the engine (shared across threads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Lines written to media (durability events), from any drain path.
    pub media_line_writes: u64,
    /// Lines evicted from the cache by capacity or background eviction.
    pub evictions: u64,
    /// Lines that entered the WPQ carrying the FFCCD pending bit.
    pub pending_lines_queued: u64,
    /// Pending lines that reached media (reached-bitmap updates).
    pub pending_lines_persisted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_all_fields() {
        let mut a = ThreadStats {
            cache_hits: 1,
            sfences: 2,
            ..ThreadStats::default()
        };
        let b = ThreadStats {
            cache_hits: 10,
            tlb_misses: 3,
            ..ThreadStats::default()
        };
        a.merge(&b);
        assert_eq!(a.cache_hits, 11);
        assert_eq!(a.sfences, 2);
        assert_eq!(a.tlb_misses, 3);
    }

    #[test]
    fn default_is_zero() {
        let s = ThreadStats::default();
        assert_eq!(s, ThreadStats::default());
        assert_eq!(s.loads, 0);
        let e = EngineStats::default();
        assert_eq!(e.media_line_writes, 0);
    }
}
