//! Crash images: post-power-failure machine state for fault injection.

use crate::addr::{Line, CACHELINE_BYTES};
use crate::engine::PmEngine;
use crate::media::Media;
use crate::timing::MachineConfig;

/// Where a maybe-persisted line was sitting when its site fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaybeOrigin {
    /// Post-`clwb`, pre-`sfence`: in the in-flight writeback stage, outside
    /// the persistence domain until accepted by the WPQ.
    InFlight,
    /// Dirty in the volatile cache; persists only if evicted before the
    /// crash.
    DirtyCache,
}

/// One element of the *maybe-persisted set*: a line whose durability at
/// crash time is genuinely ambiguous under ADR. WPQ entries are excluded
/// (ADR flushes the queue, so they are certainly durable); clean cache
/// lines are excluded (media already holds their data).
#[derive(Clone, Debug)]
pub struct MaybeLine {
    /// The ambiguous line.
    pub line: Line,
    /// The unpersisted contents it would contribute.
    pub data: [u8; CACHELINE_BYTES as usize],
    /// FFCCD pending bit: the line was written by `relocate`.
    pub pending: bool,
    /// Which volatile stage held the line.
    pub origin: MaybeOrigin,
    /// Reached-bitmap fixup `(media word offset, OR mask)` to apply when
    /// this line is chosen to persist (see
    /// [`crate::PersistObserver::line_reached_fixup`]); `None` for
    /// non-pending lines or schemes without a reached bitmap.
    pub reached_fixup: Option<(u64, u64)>,
}

/// The maybe-persisted set at one crash site: every subset of it is a
/// legal ADR crash outcome, because nothing orders the writebacks of
/// non-fenced lines with respect to each other or the failure.
///
/// Entry order is deterministic — in-flight entries first (FIFO, oldest
/// first; the same line may appear more than once), then dirty cache
/// residents (most recently inserted first) — so a subset bitmask over
/// entry indices replays byte-identically. The explored *window* is the
/// first [`MaybeSet::window`] ≤ 64 entries; lines beyond it stay
/// unpersisted in every materialized image.
#[derive(Clone, Debug, Default)]
pub struct MaybeSet {
    entries: Vec<MaybeLine>,
}

impl MaybeSet {
    /// Wraps an ordered entry list (the engine builds these).
    pub fn new(entries: Vec<MaybeLine>) -> Self {
        MaybeSet { entries }
    }

    /// The ordered entries.
    pub fn entries(&self) -> &[MaybeLine] {
        &self.entries
    }

    /// Total ambiguous lines (may exceed the 64-entry mask window).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the lattice is trivial (only the base image exists).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries addressable by a subset bitmask (≤ 64).
    pub fn window(&self) -> u32 {
        self.entries.len().min(64) as u32
    }

    /// The mask selecting every in-window entry.
    pub fn full_mask(&self) -> u64 {
        match self.window() {
            0 => 0,
            64 => u64::MAX,
            w => (1u64 << w) - 1,
        }
    }
}

/// A subset bitmask addressed entries outside the maybe-set's mask window:
/// silently dropping those bits would make a "validated" subset image a
/// lie, so materialization rejects the mask instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubsetMaskError {
    /// The offending mask.
    pub mask: u64,
    /// Addressable entries (bits `0..window` are valid).
    pub window: u32,
}

impl std::fmt::Display for SubsetMaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "subset mask 0x{:x} selects entries beyond the {}-entry window",
            self.mask, self.window
        )
    }
}

impl std::error::Error for SubsetMaskError {}

/// What the persistent media contains after a simulated power failure.
///
/// Produced (non-destructively) by [`PmEngine::crash_image`]: the WPQ has
/// been ADR-flushed, the observer (Reached Bitmap Buffer) has flushed its
/// buffered bitmap words, and everything that was only in the volatile cache
/// is gone. Restart the machine with [`CrashImage::restart`] and run the
/// scheme's recovery procedure on it.
#[derive(Clone, Debug)]
pub struct CrashImage {
    media: Media,
    cfg: MachineConfig,
}

impl CrashImage {
    /// Wraps post-crash media (used by the engine).
    pub fn new(media: Media, cfg: MachineConfig) -> Self {
        CrashImage { media, cfg }
    }

    /// Read-only view of the surviving bytes.
    pub fn media(&self) -> &Media {
        &self.media
    }

    /// Boots a fresh machine from this image, optionally with a different
    /// seed (recovery runs see different eviction schedules than the
    /// crashed run).
    pub fn restart(&self) -> PmEngine {
        PmEngine::from_media(self.cfg.clone(), self.media.clone())
    }

    /// Boots a fresh machine, overriding the RNG seed.
    pub fn restart_with_seed(&self, seed: u64) -> PmEngine {
        let cfg = MachineConfig {
            seed,
            ..self.cfg.clone()
        };
        PmEngine::from_media(cfg, self.media.clone())
    }

    /// Materializes the crash image in which, additionally to this base
    /// image (WPQ flushed, nothing volatile persisted), exactly the
    /// `maybe` entries selected by `mask` bit `i` ⇒ entry `i` made it to
    /// media before the failure.
    ///
    /// Entries are applied in ascending index order, so when the same line
    /// appears twice (an in-flight writeback plus a newer dirty cache
    /// copy) and both are selected, the newer data wins — matching the
    /// order the hardware would have written them. A selected *pending*
    /// line also applies its reached-bitmap fixup: the reached bit is
    /// recorded atomically with the line's drain, so any image containing
    /// the line must contain the bit.
    ///
    /// Entries beyond the 64-entry window stay unpersisted.
    ///
    /// # Errors
    ///
    /// Returns [`SubsetMaskError`] when `mask` has bits at or beyond
    /// [`MaybeSet::window`] — every validated image must materialize
    /// exactly the subset its mask names.
    pub fn with_persisted_subset(
        &self,
        maybe: &MaybeSet,
        mask: u64,
    ) -> Result<CrashImage, SubsetMaskError> {
        if mask & !maybe.full_mask() != 0 {
            return Err(SubsetMaskError {
                mask,
                window: maybe.window(),
            });
        }
        let mut media = self.media.clone();
        for (i, e) in maybe.entries().iter().take(64).enumerate() {
            if mask & (1u64 << i) == 0 {
                continue;
            }
            media.write_line(e.line, &e.data);
            if let Some((word, or_mask)) = e.reached_fixup {
                let cur = media.read_u64(word);
                media.write_u64(word, cur | or_mask);
            }
        }
        Ok(CrashImage::new(media, self.cfg.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Ctx;

    #[test]
    fn restart_preserves_persisted_data() {
        let e = PmEngine::new(MachineConfig::default(), 1 << 16);
        let mut ctx = Ctx::new(e.config());
        e.write(&mut ctx, 0, b"durable!");
        e.persist(&mut ctx, 0, 8);
        let img = e.crash_image();
        let e2 = img.restart();
        let mut ctx2 = Ctx::new(e2.config());
        assert_eq!(e2.read_vec(&mut ctx2, 0, 8), b"durable!");
    }

    #[test]
    fn restart_with_seed_changes_config() {
        let e = PmEngine::new(MachineConfig::default(), 1 << 16);
        let img = e.crash_image();
        let e2 = img.restart_with_seed(99);
        assert_eq!(e2.config().seed, 99);
    }

    fn maybe_entry(line: u64, byte: u8, fixup: Option<(u64, u64)>) -> MaybeLine {
        MaybeLine {
            line: Line(line),
            data: [byte; CACHELINE_BYTES as usize],
            pending: fixup.is_some(),
            origin: MaybeOrigin::DirtyCache,
            reached_fixup: fixup,
        }
    }

    #[test]
    fn maybe_set_window_and_full_mask() {
        assert_eq!(MaybeSet::default().window(), 0);
        assert_eq!(MaybeSet::default().full_mask(), 0);
        let small = MaybeSet::new((0..3).map(|i| maybe_entry(i, 0, None)).collect());
        assert_eq!(small.window(), 3);
        assert_eq!(small.full_mask(), 0b111);
        let big = MaybeSet::new((0..70).map(|i| maybe_entry(i, 0, None)).collect());
        assert_eq!(big.len(), 70);
        assert_eq!(big.window(), 64);
        assert_eq!(big.full_mask(), u64::MAX);
    }

    #[test]
    fn subset_selects_exactly_the_masked_lines() {
        let img = CrashImage::new(Media::new(64 * 8), MachineConfig::default());
        let maybe = MaybeSet::new(vec![
            maybe_entry(1, 0x11, None),
            maybe_entry(2, 0x22, None),
            maybe_entry(3, 0x33, None),
        ]);
        let sub = img
            .with_persisted_subset(&maybe, 0b101)
            .expect("in-window mask");
        assert_eq!(sub.media().read_vec(64, 1), vec![0x11]);
        assert_eq!(sub.media().read_vec(128, 1), vec![0x00], "bit 1 unset");
        assert_eq!(sub.media().read_vec(192, 1), vec![0x33]);
        // The empty subset is the base image, byte-for-byte.
        let empty = img
            .with_persisted_subset(&maybe, 0)
            .expect("in-window mask");
        assert_eq!(empty.media(), img.media());
    }

    #[test]
    fn images_and_engines_are_isolated_both_ways() {
        let e = PmEngine::new(MachineConfig::default(), 1 << 20);
        let mut ctx = Ctx::new(e.config());
        let pages = [0u64, 3 * 4096, 9 * 4096];
        for &off in &pages {
            e.write(&mut ctx, off, b"before");
            e.persist(&mut ctx, off, 6);
        }
        let img = e.crash_image();
        // Taking the image copied nothing; the engine's next writes to the
        // k pages it had touched copy at most those k.
        assert_eq!(e.with_media(|m| m.private_pages(img.media())), 0);
        for &off in &pages {
            e.write(&mut ctx, off, b"after!");
            e.persist(&mut ctx, off, 6);
        }
        assert!(e.with_media(|m| m.private_pages(img.media())) <= pages.len());
        assert_eq!(e.crash_image().media().read_vec(0, 6), b"after!");
        // Engine stores after the image never show in it.
        for &off in &pages {
            assert_eq!(img.media().read_vec(off, 6), b"before");
        }
        // Subset materialization writes show neither in the base image nor
        // in the live engine.
        let maybe = MaybeSet::new(vec![maybe_entry(3, 0x77, Some((8, 1 << 5)))]);
        let sub = img
            .with_persisted_subset(&maybe, 1)
            .expect("in-window mask");
        assert_eq!(sub.media().read_vec(192, 1), vec![0x77]);
        assert_eq!(sub.media().private_pages(img.media()), 1);
        assert_eq!(img.media().read_vec(192, 1), vec![0]);
        assert_eq!(img.media().read_u64(8), 0);
        assert_eq!(
            e.with_media(|m| (m.read_vec(192, 1), m.read_u64(8))),
            (vec![0], 0)
        );
        // Nor do a restarted machine's writes.
        let e2 = img.restart();
        let mut ctx2 = Ctx::new(e2.config());
        e2.write(&mut ctx2, 0, b"reboot");
        e2.persist(&mut ctx2, 0, 6);
        assert_eq!(e2.crash_image().media().read_vec(0, 6), b"reboot");
        assert_eq!(img.media().read_vec(0, 6), b"before");
        assert_eq!(e.crash_image().media().read_vec(0, 6), b"after!");
    }

    #[test]
    fn later_duplicate_entry_wins_when_both_selected() {
        // In-flight copy (older) at index 0, re-dirtied cache copy (newer)
        // at index 1: selecting both must leave the newer data.
        let img = CrashImage::new(Media::new(64 * 4), MachineConfig::default());
        let maybe = MaybeSet::new(vec![maybe_entry(2, 0xAA, None), maybe_entry(2, 0xBB, None)]);
        let both = img
            .with_persisted_subset(&maybe, 0b11)
            .expect("in-window mask");
        assert_eq!(both.media().read_vec(128, 1), vec![0xBB]);
        let only_old = img
            .with_persisted_subset(&maybe, 0b01)
            .expect("in-window mask");
        assert_eq!(only_old.media().read_vec(128, 1), vec![0xAA]);
    }

    #[test]
    fn pending_selection_applies_reached_fixup() {
        let img = CrashImage::new(Media::new(64 * 4), MachineConfig::default());
        let maybe = MaybeSet::new(vec![maybe_entry(3, 0x77, Some((8, 1 << 5)))]);
        let sub = img
            .with_persisted_subset(&maybe, 1)
            .expect("in-window mask");
        assert_eq!(sub.media().read_vec(192, 1), vec![0x77]);
        assert_eq!(sub.media().read_u64(8), 1 << 5, "reached bit recorded");
        let none = img
            .with_persisted_subset(&maybe, 0)
            .expect("in-window mask");
        assert_eq!(none.media().read_u64(8), 0, "unselected line: no bit");
    }

    #[test]
    fn out_of_window_entries_never_persist() {
        let img = CrashImage::new(Media::new(64 * 128), MachineConfig::default());
        let maybe = MaybeSet::new((0..70).map(|i| maybe_entry(i, 0x5A, None)).collect());
        let sub = img
            .with_persisted_subset(&maybe, u64::MAX)
            .expect("in-window mask");
        assert_eq!(sub.media().read_vec(63 * 64, 1), vec![0x5A]);
        assert_eq!(
            sub.media().read_vec(64 * 64, 1),
            vec![0x00],
            "entry 64 is outside the mask window"
        );
    }

    #[test]
    fn out_of_window_mask_is_rejected_explicitly() {
        let img = CrashImage::new(Media::new(64 * 8), MachineConfig::default());
        let maybe = MaybeSet::new((0..3).map(|i| maybe_entry(i, 0x5A, None)).collect());
        let err = img
            .with_persisted_subset(&maybe, 0b1000)
            .expect_err("bit 3 is beyond the 3-entry window");
        assert_eq!(
            err,
            SubsetMaskError {
                mask: 0b1000,
                window: 3
            }
        );
        assert!(err.to_string().contains("0x8"));
        assert!(err.to_string().contains("beyond the 3-entry window"));
        // In-window masks still materialize.
        assert!(img.with_persisted_subset(&maybe, 0b111).is_ok());
    }
}
