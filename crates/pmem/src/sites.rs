//! Crash-site enumeration: deterministic IDs for durability-relevant events.
//!
//! Fault injection at op boundaries only exercises the states a workload
//! happens to leave between operations. The interesting crash states —
//! the ones the schemes of §3.3 actually differ on — are *inside* the
//! persist windows: after a store but before its `clwb`, after a `clwb`
//! but before its writeback reaches the WPQ, between a WPQ accept and the
//! media drain, and across GC phase transitions.
//!
//! The site tracker assigns every such event a sequentially increasing
//! **site ID**. Because the whole machine is a deterministic simulation
//! (seeded cache/eviction RNG, deterministic drain schedule), a run with
//! the same configuration and call sequence produces the same ID sequence
//! every time. That enables the two-pass sweep in the workloads crate:
//!
//! 1. a *reference run* enumerates all sites ([`PmEngine::site_tracking_enumerate`]),
//! 2. *replay runs* re-execute the identical workload with capture armed
//!    for chosen IDs ([`PmEngine::site_tracking_capture`]); right after
//!    each targeted event fires, a [`CrashImage`] is snapshotted while the
//!    bank lock is still held, so the image reflects exactly the machine
//!    state at that event.
//!
//! The tracker itself is part of the engine's single bank: the bank lock
//! an event already holds is the tracker's only guard, and an untracked
//! event costs one mode check.
//!
//! Site tracking requires the engine's **single-bank deterministic mode**
//! (`MachineConfig::banks <= 1`): with multiple banks, per-bank RNG
//! streams interleave by thread schedule and a global event order no
//! longer exists. The engine enforces this — enabling tracking on a
//! banked engine panics — and the sweep/replay harness forces `banks = 1`
//! on every run it makes.
//!
//! A failing site is replayable forever from the `(seed, site_id)` pair.
//!
//! [`PmEngine::site_tracking_enumerate`]: crate::PmEngine::site_tracking_enumerate
//! [`PmEngine::site_tracking_capture`]: crate::PmEngine::site_tracking_capture

use std::collections::BTreeSet;

use crate::crash::{CrashImage, MaybeSet};

/// The kind of durability-relevant event a crash site marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SiteKind {
    /// A store retired into the (volatile) cache.
    Store,
    /// A store issued by `relocate` — plants the FFCCD pending bit.
    PendingStore,
    /// A `clwb` moved a dirty line into the in-flight writeback stage.
    Clwb,
    /// An `sfence` pushed this thread's in-flight writebacks into the WPQ.
    Sfence,
    /// A writeback was accepted by the WPQ (entered the ADR persistence
    /// domain).
    WpqAccept,
    /// A WPQ entry drained to media (final durability; reached-bitmap
    /// update for pending lines).
    WpqDrain,
    /// A dirty line left the cache under capacity pressure.
    CapacityEvict,
    /// A dirty line left the cache via seeded background eviction.
    BackgroundEvict,
    /// A GC phase transition reported by the heap layer (the `detail`
    /// field carries the phase code).
    Phase,
    /// An injected per-thread crash fired: one mutator died at a
    /// durability event while the rest of the machine kept running (the
    /// `detail` field carries the victim thread index). Unlike the other
    /// kinds this event is only noted when a [`crate::ThreadCrashArm`]
    /// actually fires, so arming a kill never shifts the deterministic
    /// site-ID sequence of the events before it.
    ThreadCrash,
}

impl SiteKind {
    /// Every kind, in `detail`-independent declaration order.
    pub const ALL: [SiteKind; 10] = [
        SiteKind::Store,
        SiteKind::PendingStore,
        SiteKind::Clwb,
        SiteKind::Sfence,
        SiteKind::WpqAccept,
        SiteKind::WpqDrain,
        SiteKind::CapacityEvict,
        SiteKind::BackgroundEvict,
        SiteKind::Phase,
        SiteKind::ThreadCrash,
    ];

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            SiteKind::Store => "store",
            SiteKind::PendingStore => "pending-store",
            SiteKind::Clwb => "clwb",
            SiteKind::Sfence => "sfence",
            SiteKind::WpqAccept => "wpq-accept",
            SiteKind::WpqDrain => "wpq-drain",
            SiteKind::CapacityEvict => "capacity-evict",
            SiteKind::BackgroundEvict => "background-evict",
            SiteKind::Phase => "phase",
            SiteKind::ThreadCrash => "thread-crash",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Which execution phase a tracking window (and every site fired inside
/// it) belongs to.
///
/// Mutator-phase sites are the PR 1–4 crash sites: events fired while the
/// workload + defragmenter run. Recovery-phase sites are fired by
/// `recover()` itself running on a restarted crash image — the §7.1d
/// nested-crash campaign arms tracking around recovery, so a crash *inside
/// recovery* is as replayable as one inside the mutator. Site IDs restart
/// at 0 per tracking window, so a replayable probe is
/// `(seed, site_id, phase, subset)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SitePhase {
    /// Workload + defragmentation execution (the default window).
    #[default]
    Mutator,
    /// Inside `recover()` on a restarted crash image.
    Recovery,
}

impl SitePhase {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            SitePhase::Mutator => "mutator",
            SitePhase::Recovery => "recovery",
        }
    }
}

/// Identity of one fired crash site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteTrace {
    /// Sequential, deterministic site ID (0-based within one tracking
    /// window).
    pub id: u64,
    /// What happened.
    pub kind: SiteKind,
    /// Event-specific detail: the affected line's start offset for memory
    /// events, the phase code for [`SiteKind::Phase`].
    pub detail: u64,
    /// Which execution phase the tracking window was armed for.
    pub phase: SitePhase,
}

/// A crash image captured at a targeted site.
#[derive(Clone, Debug)]
pub struct SiteCapture {
    /// Which site fired.
    pub site: SiteTrace,
    /// Machine state (post-ADR-flush media) at that instant. This is the
    /// *base* image: the WPQ has drained, nothing volatile persisted —
    /// i.e. the empty subset of `maybe`.
    pub image: CrashImage,
    /// The ambiguous lines at that instant; any subset of them persisting
    /// is an equally legal ADR outcome
    /// ([`CrashImage::with_persisted_subset`]).
    pub maybe: MaybeSet,
}

/// Totals from one tracking window.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteSummary {
    /// Total sites fired (the next run's IDs are `0..total`).
    pub total: u64,
    /// Per-kind event counts, indexable via [`SiteSummary::count`].
    pub counts: [u64; SiteKind::ALL.len()],
    /// `(site_id, phase_code)` of every [`SiteKind::Phase`] event, in
    /// firing order. Lets sweeps locate GC-cycle windows in the site-ID
    /// space without capturing anything (e.g. the nested-crash explorer
    /// targets outer sites between cycle arm and terminate, where
    /// recovery actually has work to redo).
    pub phase_marks: Vec<(u64, u64)>,
}

impl SiteSummary {
    /// Events of `kind` in this window.
    pub fn count(&self, kind: SiteKind) -> u64 {
        self.counts[kind.index()]
    }

    /// `(kind, count)` pairs for non-zero kinds.
    pub fn nonzero(&self) -> Vec<(SiteKind, u64)> {
        SiteKind::ALL
            .iter()
            .filter(|k| self.count(**k) > 0)
            .map(|k| (*k, self.count(*k)))
            .collect()
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Mode {
    #[default]
    Off,
    Enumerate,
    Capture,
}

/// Engine-internal tracker. It lives in bank 0 of the engine and only
/// runs on single-bank engines, so it is guarded by the one bank lock
/// every durability event already holds: events and captures stay
/// globally ordered and atomic with respect to other threads, with no
/// lock or gate of their own.
#[derive(Debug, Default)]
pub(crate) struct SiteTracker {
    mode: Mode,
    phase: SitePhase,
    pub(crate) next_id: u64,
    counts: [u64; SiteKind::ALL.len()],
    phase_marks: Vec<(u64, u64)>,
    /// Capture targets, ascending; IDs fire in ascending order too, so
    /// `cursor` (the next target not yet fired) is the whole lookup.
    targets: Vec<u64>,
    cursor: usize,
    captures: Vec<SiteCapture>,
}

impl SiteTracker {
    pub(crate) fn start_enumerate(&mut self, phase: SitePhase) {
        *self = SiteTracker {
            mode: Mode::Enumerate,
            phase,
            ..SiteTracker::default()
        };
    }

    pub(crate) fn start_capture(&mut self, targets: BTreeSet<u64>, phase: SitePhase) {
        *self = SiteTracker {
            mode: Mode::Capture,
            phase,
            targets: targets.into_iter().collect(),
            ..SiteTracker::default()
        };
    }

    pub(crate) fn stop(&mut self) -> SiteSummary {
        let summary = SiteSummary {
            total: self.next_id,
            counts: self.counts,
            phase_marks: std::mem::take(&mut self.phase_marks),
        };
        self.mode = Mode::Off;
        self.targets.clear();
        self.cursor = 0;
        summary
    }

    /// Registers an event; returns the trace when a capture is wanted.
    /// A no-op while tracking is off: every durability event of every
    /// bank calls this, so only the mode check is inlined.
    #[inline]
    pub(crate) fn note(&mut self, kind: SiteKind, detail: u64) -> Option<SiteTrace> {
        if self.mode == Mode::Off {
            return None;
        }
        self.note_tracked(kind, detail)
    }

    fn note_tracked(&mut self, kind: SiteKind, detail: u64) -> Option<SiteTrace> {
        let id = self.next_id;
        self.next_id += 1;
        self.counts[kind.index()] += 1;
        if kind == SiteKind::Phase {
            self.phase_marks.push((id, detail));
        }
        if self.targets.get(self.cursor) != Some(&id) {
            return None;
        }
        self.cursor += 1;
        Some(SiteTrace {
            id,
            kind,
            detail,
            phase: self.phase,
        })
    }

    pub(crate) fn push_capture(&mut self, site: SiteTrace, image: CrashImage, maybe: MaybeSet) {
        self.captures.push(SiteCapture { site, image, maybe });
    }

    pub(crate) fn drain(&mut self) -> Vec<SiteCapture> {
        std::mem::take(&mut self.captures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sequential_and_counted() {
        let mut t = SiteTracker::default();
        t.start_enumerate(SitePhase::Mutator);
        assert!(t.note(SiteKind::Store, 0).is_none());
        assert!(t.note(SiteKind::Phase, 1).is_none());
        assert!(t.note(SiteKind::Clwb, 64).is_none());
        assert!(t.note(SiteKind::Store, 128).is_none());
        assert!(t.note(SiteKind::Phase, 3).is_none());
        let s = t.stop();
        assert_eq!(s.total, 5);
        assert_eq!(s.count(SiteKind::Store), 2);
        assert_eq!(s.count(SiteKind::Clwb), 1);
        assert_eq!(s.nonzero().len(), 3);
        // Phase marks pin each transition to its site ID, in firing order.
        assert_eq!(s.phase_marks, vec![(1, 1), (4, 3)]);
    }

    #[test]
    fn capture_fires_only_on_targets() {
        let mut t = SiteTracker::default();
        t.start_capture([1u64].into_iter().collect(), SitePhase::Mutator);
        assert!(t.note(SiteKind::Store, 0).is_none());
        let trace = t.note(SiteKind::Sfence, 0).expect("site 1 targeted");
        assert_eq!(trace.id, 1);
        assert_eq!(trace.kind, SiteKind::Sfence);
        assert_eq!(trace.phase, SitePhase::Mutator);
        assert!(t.note(SiteKind::Store, 0).is_none());
        assert_eq!(t.stop().total, 3);
    }

    #[test]
    fn recovery_phase_window_stamps_its_traces() {
        let mut t = SiteTracker::default();
        t.start_capture([0u64].into_iter().collect(), SitePhase::Recovery);
        let trace = t.note(SiteKind::Clwb, 64).expect("site 0 targeted");
        assert_eq!(trace.phase, SitePhase::Recovery);
        // A fresh window resets the phase back to the mutator default.
        t.start_enumerate(SitePhase::Mutator);
        assert_eq!(t.phase, SitePhase::Mutator);
    }

    #[test]
    fn off_mode_records_nothing() {
        let mut t = SiteTracker::default();
        // Every durability event reaches the tracker; off, it neither
        // numbers nor captures.
        assert!(t.note(SiteKind::Store, 0).is_none());
        assert_eq!(t.next_id, 0);
    }

    /// Targets `{0, last, ≥ total}` capture exactly the in-range sites, in
    /// order, and stopping resets the tracker: later events are not
    /// numbered, and the next window starts from ID 0 with a fresh cursor.
    #[test]
    fn capture_cursor_walks_targets_in_order() {
        const TOTAL: u64 = 6;
        let mut t = SiteTracker::default();
        t.start_capture(
            [0, TOTAL - 1, TOTAL, TOTAL + 40].into_iter().collect(),
            SitePhase::Mutator,
        );
        let fired: Vec<u64> = (0..TOTAL)
            .filter_map(|i| t.note(SiteKind::Store, i * 64))
            .map(|trace| trace.id)
            .collect();
        assert_eq!(fired, vec![0, TOTAL - 1]);
        assert_eq!(t.stop().total, TOTAL);
        assert!(t.note(SiteKind::Store, 0).is_none());
        assert_eq!(t.next_id, TOTAL, "nothing numbered after stop");

        t.start_capture([1u64].into_iter().collect(), SitePhase::Mutator);
        assert!(t.note(SiteKind::Store, 0).is_none());
        assert_eq!(t.note(SiteKind::Clwb, 0).map(|trace| trace.id), Some(1));
        assert_eq!(t.stop().total, 2);
    }
}
