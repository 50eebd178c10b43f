//! GC phase accounting — the data behind Figures 5, 14 and 15.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Cycle counters per defragmentation phase, accumulated atomically from
/// every thread (application barriers and the compaction driver alike).
#[derive(Debug, Default)]
pub struct GcStats {
    /// Stop-the-world marking.
    pub mark_cycles: AtomicU64,
    /// Summary: occupancy ranking, destination assignment, PMFT build.
    pub summary_cycles: AtomicU64,
    /// Object copies, including their clwb/sfence traffic.
    pub copy_cycles: AtomicU64,
    /// Barrier check + forwarding lookup.
    pub check_lookup_cycles: AtomicU64,
    /// Moved-state updates, including their clwb/sfence traffic.
    pub state_cycles: AtomicU64,
    /// Reference updates (barrier rewrites + termination fixup rescan).
    pub ref_fixup_cycles: AtomicU64,
    /// Sweep (freeing unreachable objects).
    pub sweep_cycles: AtomicU64,
    /// Post-crash recovery work.
    pub recovery_cycles: AtomicU64,
    /// Read barriers executed.
    pub barrier_invocations: AtomicU64,
    /// Objects relocated.
    pub objects_relocated: AtomicU64,
    /// Completed defragmentation cycles.
    pub cycles_completed: AtomicU64,
    /// Relocation frames released back to the free pool.
    pub frames_released: AtomicU64,
    /// Unreachable objects reclaimed by sweeps.
    pub objects_swept: AtomicU64,
}

/// A plain-old-data snapshot of [`GcStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GcStatsSnapshot {
    /// See [`GcStats::mark_cycles`].
    pub mark_cycles: u64,
    /// See [`GcStats::summary_cycles`].
    pub summary_cycles: u64,
    /// See [`GcStats::copy_cycles`].
    pub copy_cycles: u64,
    /// See [`GcStats::check_lookup_cycles`].
    pub check_lookup_cycles: u64,
    /// See [`GcStats::state_cycles`].
    pub state_cycles: u64,
    /// See [`GcStats::ref_fixup_cycles`].
    pub ref_fixup_cycles: u64,
    /// See [`GcStats::sweep_cycles`].
    pub sweep_cycles: u64,
    /// See [`GcStats::recovery_cycles`].
    pub recovery_cycles: u64,
    /// See [`GcStats::barrier_invocations`].
    pub barrier_invocations: u64,
    /// See [`GcStats::objects_relocated`].
    pub objects_relocated: u64,
    /// See [`GcStats::cycles_completed`].
    pub cycles_completed: u64,
    /// See [`GcStats::frames_released`].
    pub frames_released: u64,
    /// See [`GcStats::objects_swept`].
    pub objects_swept: u64,
}

impl GcStats {
    /// Adds `n` cycles to a phase counter.
    pub fn add_cycles(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> GcStatsSnapshot {
        GcStatsSnapshot {
            mark_cycles: self.mark_cycles.load(Ordering::Relaxed),
            summary_cycles: self.summary_cycles.load(Ordering::Relaxed),
            copy_cycles: self.copy_cycles.load(Ordering::Relaxed),
            check_lookup_cycles: self.check_lookup_cycles.load(Ordering::Relaxed),
            state_cycles: self.state_cycles.load(Ordering::Relaxed),
            ref_fixup_cycles: self.ref_fixup_cycles.load(Ordering::Relaxed),
            sweep_cycles: self.sweep_cycles.load(Ordering::Relaxed),
            recovery_cycles: self.recovery_cycles.load(Ordering::Relaxed),
            barrier_invocations: self.barrier_invocations.load(Ordering::Relaxed),
            objects_relocated: self.objects_relocated.load(Ordering::Relaxed),
            cycles_completed: self.cycles_completed.load(Ordering::Relaxed),
            frames_released: self.frames_released.load(Ordering::Relaxed),
            objects_swept: self.objects_swept.load(Ordering::Relaxed),
        }
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
