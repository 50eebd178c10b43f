//! GC phase accounting — the data behind Figures 5, 14 and 15.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Declares the GC counters from their documented field list, once: the
/// shared-atomic [`GcStats`], the plain [`GcStatsSnapshot`] and the
/// field-by-field [`GcStats::snapshot`] between them.
macro_rules! gc_counters {
    ($($(#[$doc:meta])+ pub $f:ident,)+) => {
        /// Cycle counters per defragmentation phase, accumulated atomically from
        /// every thread (application barriers and the compaction driver alike).
        #[derive(Debug, Default)]
        pub struct GcStats {
            $($(#[$doc])+ pub $f: AtomicU64,)+
        }

        /// A plain-old-data snapshot of [`GcStats`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct GcStatsSnapshot {
            $(#[doc = concat!("See [`GcStats::", stringify!($f), "`].")] pub $f: u64,)+
        }

        impl GcStats {
            /// Takes a consistent-enough snapshot for reporting.
            pub fn snapshot(&self) -> GcStatsSnapshot {
                GcStatsSnapshot {
                    $($f: self.$f.load(Ordering::Relaxed),)+
                }
            }
        }
    };
}

gc_counters! {
    /// Stop-the-world marking.
    pub mark_cycles,
    /// Summary: occupancy ranking, destination assignment, PMFT build.
    pub summary_cycles,
    /// Object copies, including their clwb/sfence traffic.
    pub copy_cycles,
    /// Barrier check + forwarding lookup.
    pub check_lookup_cycles,
    /// Moved-state updates, including their clwb/sfence traffic.
    pub state_cycles,
    /// Reference updates (barrier rewrites + termination fixup rescan).
    pub ref_fixup_cycles,
    /// Sweep (freeing unreachable objects).
    pub sweep_cycles,
    /// Post-crash recovery work.
    pub recovery_cycles,
    /// Read barriers executed.
    pub barrier_invocations,
    /// Objects relocated.
    pub objects_relocated,
    /// Completed defragmentation cycles.
    pub cycles_completed,
    /// Relocation frames released back to the free pool.
    pub frames_released,
    /// Unreachable objects reclaimed by sweeps.
    pub objects_swept,
}

impl GcStats {
    /// Adds `n` cycles to a phase counter.
    pub fn add_cycles(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl GcStatsSnapshot {
    /// Total defragmentation cycles across all phases (the numerator of
    /// Figure 14a's "execution time percentage over the application").
    pub fn total_gc_cycles(&self) -> u64 {
        self.mark_cycles
            + self.summary_cycles
            + self.copy_cycles
            + self.check_lookup_cycles
            + self.state_cycles
            + self.ref_fixup_cycles
            + self.sweep_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_adds() {
        let s = GcStats::default();
        s.add_cycles(&s.mark_cycles, 10);
        s.add_cycles(&s.mark_cycles, 5);
        s.add_cycles(&s.copy_cycles, 7);
        let snap = s.snapshot();
        assert_eq!(snap.mark_cycles, 15);
        assert_eq!(snap.copy_cycles, 7);
        assert_eq!(snap.total_gc_cycles(), 22);
    }

    #[test]
    fn recovery_not_in_runtime_total() {
        let s = GcStats::default();
        s.add_cycles(&s.recovery_cycles, 100);
        assert_eq!(s.snapshot().total_gc_cycles(), 0);
    }
}
