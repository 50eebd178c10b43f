//! Statistic counters, per-thread and engine-global.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Declares a counter set from its documented field list, once.
macro_rules! counters {
    // Per-thread: a plain struct whose `merge` adds every listed field; the
    // `unmerged` fields are declared but skipped.
    (
        $(#[$meta:meta])*
        pub struct $Plain:ident { $($(#[$fmeta:meta])* pub $f:ident,)+ }
        unmerged { $($(#[$umeta:meta])* pub $u:ident,)* }
    ) => {
        $(#[$meta])*
        pub struct $Plain {
            $($(#[$fmeta])* pub $f: u64,)+
            $($(#[$umeta])* pub $u: u64,)*
        }

        impl $Plain {
            /// Adds every counter of `other` into `self`.
            pub fn merge(&mut self, other: &$Plain) {
                $(self.$f += other.$f;)+
            }
        }
    };
    // Engine-global: a plain struct, its per-bank atomic twin, and the sum
    // over banks that turns the second into the first.
    (
        $(#[$meta:meta])*
        pub struct $Plain:ident { $($(#[$fmeta:meta])* pub $f:ident,)+ }
        $(#[$ameta:meta])*
        pub(crate) struct $Atomic:ident;
    ) => {
        $(#[$meta])*
        pub struct $Plain {
            $($(#[$fmeta])* pub $f: u64,)+
        }

        $(#[$ameta])*
        pub(crate) struct $Atomic {
            $(pub(crate) $f: AtomicU64,)+
        }

        impl $Plain {
            /// Sums the per-bank relaxed atomics — takes no lock.
            pub(crate) fn sum(banks: &[$Atomic]) -> Self {
                let mut s = Self::default();
                for c in banks {
                    $(s.$f += c.$f.load(Ordering::Relaxed);)+
                }
                s
            }
        }
    };
}

counters! {
    /// Counters accumulated by one execution context ([`crate::Ctx`]).
    ///
    /// All counts are raw event counts; cycle attribution lives in
    /// [`crate::Ctx::cycles`]. Merge per-thread stats with [`ThreadStats::merge`].
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct ThreadStats {
        /// Loads that hit the simulated cache.
        pub cache_hits,
        /// Loads/stores that missed and filled from media.
        pub cache_misses,
        /// Stores issued.
        pub stores,
        /// Loads issued.
        pub loads,
        /// `clwb` instructions issued.
        pub clwbs,
        /// `sfence` instructions issued.
        pub sfences,
        /// Lines synchronously drained on this thread's behalf (backpressure).
        pub wpq_drained,
        /// TLB level-1 hits.
        pub tlb_l1_hits,
        /// TLB level-2 hits.
        pub tlb_l2_hits,
        /// Full TLB misses (page-walk penalties paid).
        pub tlb_misses,
        /// `relocate` instructions issued (FFCCD hardware).
        pub relocates,
        /// `checklookup` instructions issued (FFCCD hardware).
        pub checklookups,
        /// Cache-hit line reads served under a *shared* bank acquisition (the
        /// lock-light read fast path); a subset of `cache_hits`. Purely a
        /// host-side contention metric — it never affects cycle accounting.
        pub shared_line_reads,
    }
    unmerged {
        // Shim: never incremented; the frozen `benchmark/` reads it, its next PR removes it.
        #[doc(hidden)]
        pub barrier_fastpath_hits,
    }
}

counters! {
    /// Counters owned by the engine (shared across threads).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct EngineStats {
        /// Lines written to media (durability events), from any drain path.
        pub media_line_writes,
        /// Lines evicted from the cache by capacity or background eviction.
        pub evictions,
        /// Lines that entered the WPQ carrying the FFCCD pending bit.
        pub pending_lines_queued,
        /// Pending lines that reached media (reached-bitmap updates).
        pub pending_lines_persisted,
    }
    /// Per-bank counters, cacheline-aligned so concurrent banks do not
    /// false-share; summed (relaxed) by [`crate::PmEngine::stats`].
    #[repr(align(64))]
    #[derive(Default)]
    pub(crate) struct BankCounters;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_all_fields() {
        // Every field named, no `..default()`: a field the macro's list
        // gains fails to compile here until it is given a value, and one
        // `merge` skips fails the equality.
        let of = |k: u64| ThreadStats {
            cache_hits: k,
            cache_misses: 2 * k,
            stores: 3 * k,
            loads: 4 * k,
            clwbs: 5 * k,
            sfences: 6 * k,
            wpq_drained: 7 * k,
            tlb_l1_hits: 8 * k,
            tlb_l2_hits: 9 * k,
            tlb_misses: 10 * k,
            relocates: 11 * k,
            checklookups: 12 * k,
            shared_line_reads: 13 * k,
            barrier_fastpath_hits: 14 * k,
        };
        let mut sum = of(1);
        sum.merge(&of(2));
        // The `#[doc(hidden)]` shim is the one field never merged.
        let want = ThreadStats {
            barrier_fastpath_hits: 14,
            ..of(3)
        };
        assert_eq!(sum, want);
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
