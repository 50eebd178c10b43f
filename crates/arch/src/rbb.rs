//! Reached Bitmap Buffer (paper §4.2, Figure 10).
//!
//! A tiny cache in the memory controller. Each entry covers one destination
//! frame: a 64-bit bitmap with one bit per cacheline. When a cacheline
//! written by `relocate` (pending bit set) drains from the WPQ into PM, the
//! RBB sets its bit. On power failure the buffered words are flushed into
//! the in-memory *reached bitmap*, which recovery then reads to classify
//! each object as not-reached / partially-reached / fully-reached.

use parking_lot::Mutex;

use ffccd_pmem::{Line, Media, PersistObserver, CACHELINE_BYTES};

use crate::meta::GcMetaLayout;

#[derive(Clone, Copy, Debug)]
struct RbbEntry {
    frame: u64,
    bitmap: u64,
    valid: bool,
}

#[derive(Debug)]
struct RbbState {
    entries: Vec<RbbEntry>,
    /// Round-robin victim cursor.
    cursor: usize,
    /// Statistics: hits/misses for the sweep benches.
    hits: u64,
    misses: u64,
}

/// The Reached Bitmap Buffer: installed on the engine as its
/// [`PersistObserver`].
///
/// Lines per frame: 4096 / 64 = 64, so one `u64` word exactly covers a
/// frame. Lines outside the pool's data region are ignored (GC metadata is
/// never written with the pending bit).
#[derive(Debug)]
pub struct Rbb {
    meta: GcMetaLayout,
    state: Mutex<RbbState>,
}

impl Rbb {
    /// Creates an RBB with `entries` slots (Table 2: 8).
    pub fn new(meta: GcMetaLayout, entries: usize) -> Self {
        Rbb {
            meta,
            state: Mutex::new(RbbState {
                entries: vec![
                    RbbEntry {
                        frame: 0,
                        bitmap: 0,
                        valid: false
                    };
                    entries.max(1)
                ],
                cursor: 0,
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// (hits, misses) observed so far.
    pub fn hit_stats(&self) -> (u64, u64) {
        let s = self.state.lock();
        (s.hits, s.misses)
    }

    fn frame_and_bit(&self, line: Line) -> Option<(u64, u32)> {
        let off = line.start();
        if off < self.meta.data_start {
            return None;
        }
        let frame = (off - self.meta.data_start) / 4096;
        if frame >= self.meta.num_frames {
            return None;
        }
        let bit = ((off - self.meta.data_start) % 4096 / CACHELINE_BYTES) as u32;
        Some((frame, bit))
    }

    fn set_bit(&self, media: &mut Media, line: Line) {
        let Some((frame, bit)) = self.frame_and_bit(line) else {
            return;
        };
        let mut s = self.state.lock();
        // Hit?
        if let Some(e) = s.entries.iter_mut().find(|e| e.valid && e.frame == frame) {
            e.bitmap |= 1 << bit;
            s.hits += 1;
            return;
        }
        s.misses += 1;
        // Miss: evict the cursor entry (write back its word), fill from
        // memory (Figure 10 step 4), set the bit.
        let cursor = s.cursor;
        s.cursor = (cursor + 1) % s.entries.len();
        let victim = s.entries[cursor];
        if victim.valid {
            let w = self.meta.reached_word(victim.frame);
            let cur = media.read_u64(w);
            media.write_u64(w, cur | victim.bitmap);
        }
        let w = self.meta.reached_word(frame);
        let fetched = media.read_u64(w);
        s.entries[cursor] = RbbEntry {
            frame,
            bitmap: fetched | (1 << bit),
            valid: true,
        };
    }

    /// Writes all buffered words into `media` *without* invalidating the
    /// buffer (used for non-destructive crash snapshots and cycle teardown).
    pub fn flush_to(&self, media: &mut Media) {
        let s = self.state.lock();
        for e in s.entries.iter().filter(|e| e.valid) {
            let w = self.meta.reached_word(e.frame);
            let cur = media.read_u64(w);
            media.write_u64(w, cur | e.bitmap);
        }
    }

    /// Drops all buffered entries (end of GC cycle).
    pub fn invalidate(&self) {
        let mut s = self.state.lock();
        for e in s.entries.iter_mut() {
            e.valid = false;
            e.bitmap = 0;
        }
    }
}

impl PersistObserver for Rbb {
    fn pending_line_persisted(&self, media: &mut Media, line: Line) {
        self.set_bit(media, line);
    }

    fn crash_flush(&self, media: &mut Media, in_flight: &[Line]) {
        self.flush_to(media);
        for &line in in_flight {
            if let Some((frame, bit)) = self.frame_and_bit(line) {
                let w = self.meta.reached_word(frame);
                let cur = media.read_u64(w);
                media.write_u64(w, cur | (1u64 << bit));
            }
        }
    }

    fn line_reached_fixup(&self, line: Line) -> Option<(u64, u64)> {
        // Pure function of the metadata layout — no buffered state — so a
        // fixup captured at snapshot time stays valid when the adversarial
        // explorer materializes subset images later.
        self.frame_and_bit(line)
            .map(|(frame, bit)| (self.meta.reached_word(frame), 1u64 << bit))
    }
}

/// Reads the persistent reached word for `frame` from a post-crash media.
pub fn reached_word(media: &Media, meta: &GcMetaLayout, frame: u64) -> u64 {
    media.read_u64(meta.reached_word(frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffccd_pmop::PoolLayout;

    fn setup() -> (GcMetaLayout, Media) {
        let pool = PoolLayout::compute(1 << 20, 4096);
        let meta = GcMetaLayout::from_pool(&pool);
        (meta, Media::new(pool.total_bytes))
    }

    fn data_line(meta: &GcMetaLayout, frame: u64, cl: u64) -> Line {
        Line((meta.data_start + frame * 4096 + cl * 64) / 64)
    }

    #[test]
    fn pending_line_sets_bit_after_flush() {
        let (meta, mut media) = setup();
        let rbb = Rbb::new(meta, 8);
        rbb.pending_line_persisted(&mut media, data_line(&meta, 3, 5));
        // Bit is buffered, not yet in media.
        assert_eq!(reached_word(&media, &meta, 3), 0);
        rbb.flush_to(&mut media);
        assert_eq!(reached_word(&media, &meta, 3), 1 << 5);
    }

    #[test]
    fn eviction_writes_back_victim() {
        let (meta, mut media) = setup();
        let rbb = Rbb::new(meta, 2);
        // Touch 3 distinct frames through a 2-entry buffer: the first must
        // be evicted and its word written back.
        rbb.pending_line_persisted(&mut media, data_line(&meta, 0, 0));
        rbb.pending_line_persisted(&mut media, data_line(&meta, 1, 1));
        rbb.pending_line_persisted(&mut media, data_line(&meta, 2, 2));
        assert_eq!(reached_word(&media, &meta, 0), 1);
        let (hits, misses) = rbb.hit_stats();
        assert_eq!(hits, 0);
        assert_eq!(misses, 3);
    }

    #[test]
    fn repeat_lines_hit_the_buffer() {
        let (meta, mut media) = setup();
        let rbb = Rbb::new(meta, 8);
        for cl in 0..64 {
            rbb.pending_line_persisted(&mut media, data_line(&meta, 7, cl));
        }
        let (hits, misses) = rbb.hit_stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 63);
        rbb.flush_to(&mut media);
        assert_eq!(reached_word(&media, &meta, 7), u64::MAX);
    }

    #[test]
    fn crash_flush_includes_in_flight_wpq_lines() {
        let (meta, mut media) = setup();
        let rbb = Rbb::new(meta, 8);
        rbb.crash_flush(&mut media, &[data_line(&meta, 4, 10)]);
        assert_eq!(reached_word(&media, &meta, 4), 1 << 10);
    }

    #[test]
    fn line_reached_fixup_matches_crash_flush_effect() {
        let (meta, mut media) = setup();
        let rbb = Rbb::new(meta, 8);
        let line = data_line(&meta, 4, 10);
        let (word, mask) = rbb.line_reached_fixup(line).expect("data-region line");
        // Applying the fixup by hand must set exactly the bit a
        // crash_flush of the same in-flight line would set.
        let cur = media.read_u64(word);
        media.write_u64(word, cur | mask);
        let mut flushed = Media::new(media.len());
        rbb.crash_flush(&mut flushed, &[line]);
        assert_eq!(reached_word(&media, &meta, 4), 1 << 10);
        assert_eq!(
            reached_word(&flushed, &meta, 4),
            reached_word(&media, &meta, 4)
        );
        // Outside the data region: no fixup (GC metadata is never pending).
        assert!(rbb.line_reached_fixup(Line(0)).is_none());
    }

    #[test]
    fn lines_outside_data_region_ignored() {
        let (meta, mut media) = setup();
        let rbb = Rbb::new(meta, 8);
        rbb.pending_line_persisted(&mut media, Line(0));
        rbb.flush_to(&mut media);
        assert_eq!(media.read_u64(meta.reached_word(0)), 0);
    }

    #[test]
    fn fill_merges_with_memory_word() {
        let (meta, mut media) = setup();
        // Pre-existing bit in memory must survive a buffer fill.
        media.write_u64(meta.reached_word(9), 0b1000);
        let rbb = Rbb::new(meta, 1);
        rbb.pending_line_persisted(&mut media, data_line(&meta, 9, 0));
        rbb.flush_to(&mut media);
        assert_eq!(reached_word(&media, &meta, 9), 0b1001);
    }

    #[test]
    fn invalidate_clears_buffer() {
        let (meta, mut media) = setup();
        let rbb = Rbb::new(meta, 4);
        rbb.pending_line_persisted(&mut media, data_line(&meta, 1, 1));
        rbb.invalidate();
        rbb.flush_to(&mut media);
        assert_eq!(reached_word(&media, &meta, 1), 0);
    }
}
