//! Simulated volatile cache.
//!
//! One simplified cache level stands in for the L1/L2 hierarchy: what
//! matters for FFCCD is *which dirty lines have not reached the persistence
//! domain*, and which of those carry the `pending` bit planted by the
//! `relocate` instruction (paper §4.2, Figure 10: "Tagged Normal Cache").

use crate::addr::{Line, CACHELINE_BYTES};
use crate::directory::Directory;

/// One cached line: 64 data bytes plus dirty/pending state.
#[derive(Clone, Debug)]
pub struct CacheLine {
    /// Current (possibly unpersisted) contents.
    pub data: [u8; CACHELINE_BYTES as usize],
    /// Whether the line differs from media (must be written back).
    pub dirty: bool,
    /// FFCCD pending bit: the line was written by `relocate` and its
    /// persistence must be reported to the reached bitmap.
    pub pending: bool,
}

/// The volatile cache: a map from [`Line`] to [`CacheLine`] with bounded
/// capacity and deterministic pseudo-random victim selection.
///
/// Residents live in a dense `entries` vector; a radix [`Directory`]
/// keyed by the bank-local line number (`line / stride`) maps a line to
/// its position, so the per-access lookup is two array indexings. Victims
/// are chosen by position in the vector, never through the directory —
/// crash-site replay depends on the victim sequence, and the directory
/// only ever answers where the vector already put a line. A positional
/// [`DirtyIndex`] over the same vector answers "first dirty position at or
/// after `p`" without walking the residents.
#[derive(Debug)]
pub struct CacheSim {
    index: Directory,
    /// Line-number stride between this cache's lines: a bank of an
    /// `n`-bank engine only ever sees lines congruent to its index modulo
    /// `n`, so `line / n` is dense and the banks' directories together
    /// cost what one unbanked directory would.
    stride: u64,
    entries: Vec<(Line, CacheLine)>,
    /// Invariant: bit `p` is set iff `entries[p].1.dirty`. Written only by
    /// [`CacheSim::write_at`], [`CacheSim::clean`], `remove_at` and
    /// [`CacheSim::invalidate_all`].
    dirty: DirtyIndex,
    capacity: usize,
    rng: u64,
}

/// Two-level bitset over dense-vector positions: bit `p` of `words` marks
/// position `p`, bit `w` of `summary` marks `words[w] != 0`. A lookup
/// reads one word plus the summary (one `u64` per 4096 positions), so its
/// cost does not grow with the number of residents.
#[derive(Debug, Default)]
struct DirtyIndex {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl DirtyIndex {
    fn set(&mut self, p: usize) {
        let w = p / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
            self.summary.resize(w / 64 + 1, 0);
        }
        self.words[w] |= 1 << (p % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    /// Clears bit `p`, returning whether it was set.
    fn clear(&mut self, p: usize) -> bool {
        let w = p / 64;
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        let bit = 1 << (p % 64);
        let was_set = *word & bit != 0;
        *word &= !bit;
        if *word == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        was_set
    }

    /// Lowest set position `>= p`.
    fn first_from(&self, p: usize) -> Option<usize> {
        let w = p / 64;
        let rest = self.words.get(w)? & (!0 << (p % 64));
        if rest != 0 {
            return Some(w * 64 + rest.trailing_zeros() as usize);
        }
        let mut sw = (w + 1) / 64;
        let mut nonzero = self.summary.get(sw)? & (!0 << ((w + 1) % 64));
        while nonzero == 0 {
            sw += 1;
            nonzero = *self.summary.get(sw)?;
        }
        let w = sw * 64 + nonzero.trailing_zeros() as usize;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }

    /// Set positions in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.first_from(0), |&p| self.first_from(p + 1))
    }
}

/// A line evicted from the cache, headed for the WPQ (if dirty).
#[derive(Clone, Debug)]
pub struct Evicted {
    /// Which line.
    pub line: Line,
    /// Its contents at eviction time.
    pub data: [u8; CACHELINE_BYTES as usize],
    /// Whether it must be written back.
    pub dirty: bool,
    /// FFCCD pending bit.
    pub pending: bool,
}

impl CacheSim {
    /// Creates an empty cache of `capacity` lines.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self::for_bank(capacity, seed, 1)
    }

    /// Creates the cache of one bank of an `nbanks`-bank engine: every
    /// line it will hold has the same residue modulo `nbanks`.
    pub fn for_bank(capacity: usize, seed: u64, nbanks: usize) -> Self {
        CacheSim {
            index: Directory::default(),
            stride: nbanks.max(1) as u64,
            entries: Vec::with_capacity(capacity.min(1 << 16)),
            capacity: capacity.max(1),
            dirty: DirtyIndex::default(),
            rng: seed | 1,
        }
    }

    /// Line capacity this cache was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn key(&self, line: Line) -> u64 {
        line.0 / self.stride
    }

    /// Removes the resident at `pos`, fixing up the directory entry and
    /// the dirty bit of the tail entry that swap-remove moves into `pos`.
    fn remove_at(&mut self, pos: usize) -> (Line, CacheLine) {
        let (line, cl) = self.entries.swap_remove(pos);
        self.index.remove(self.key(line));
        let tail = self.entries.len();
        let tail_dirty = self.dirty.clear(tail);
        if let Some(&(moved, _)) = self.entries.get(pos) {
            self.index.insert(self.key(moved), pos);
            if tail_dirty {
                self.dirty.set(pos);
            } else {
                self.dirty.clear(pos);
            }
        }
        (line, cl)
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Directory leaves this cache has allocated so far.
    #[cfg(test)]
    pub(crate) fn directory_leaves(&self) -> usize {
        self.index.leaves_allocated()
    }

    /// Number of lines currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Position of `line` in the dense entry vector, for the index-based
    /// accessors below. The position is invalidated by any insert, removal
    /// or eviction — use it only for an immediately-following access.
    pub fn pos_of(&self, line: Line) -> Option<usize> {
        let pos = self.index.get(self.key(line))?;
        // `stride` lines share each key. The engine only asks a bank for
        // its own residue, but a by-line query must not alias the others.
        (self.entries[pos].0 == line).then_some(pos)
    }

    /// Reads from the resident line at `pos` (from [`CacheSim::pos_of`] or
    /// [`CacheSim::insert_at`]) — skips the lookup a by-line read pays.
    pub fn read_at(&self, pos: usize, offset_in_line: usize, buf: &mut [u8]) {
        let cl = &self.entries[pos].1;
        buf.copy_from_slice(&cl.data[offset_in_line..offset_in_line + buf.len()]);
    }

    /// Writes into the resident line at `pos`, marking it dirty and OR-ing
    /// in `pending`.
    pub fn write_at(&mut self, pos: usize, offset_in_line: usize, data: &[u8], pending: bool) {
        let cl = &mut self.entries[pos].1;
        cl.data[offset_in_line..offset_in_line + data.len()].copy_from_slice(data);
        if !cl.dirty {
            self.dirty.set(pos);
        }
        cl.dirty = true;
        cl.pending |= pending;
    }

    /// Inserts `line` clean with the given fill `data`, evicting victims
    /// into `evicted_out` as needed, and returns the new line's position.
    /// The caller must have checked non-residency (via
    /// [`CacheSim::pos_of`]) and supplies the fill, so fills from the
    /// in-flight stage or WPQ need no second write pass over the line.
    pub fn insert_at(
        &mut self,
        line: Line,
        data: [u8; CACHELINE_BYTES as usize],
        evicted_out: &mut Vec<Evicted>,
    ) -> usize {
        debug_assert!(
            self.index.get(self.key(line)).is_none(),
            "{line:?} (or a line of another bank sharing its key) is already resident"
        );
        self.make_room(evicted_out);
        let pos = self.entries.len();
        self.index.insert(self.key(line), pos);
        self.entries.push((
            line,
            CacheLine {
                data,
                dirty: false,
                pending: false,
            },
        ));
        pos
    }

    /// Immutable view of a resident line.
    pub fn peek(&self, line: Line) -> Option<&CacheLine> {
        self.pos_of(line).map(|i| &self.entries[i].1)
    }

    /// Removes the line's dirty/pending status, returning the writeback data
    /// if it was dirty. The line stays resident but clean (clwb semantics:
    /// write back, do not invalidate).
    pub fn clean(&mut self, line: Line) -> Option<Evicted> {
        let i = self.pos_of(line)?;
        let cl = &mut self.entries[i].1;
        if !cl.dirty {
            return None;
        }
        let ev = Evicted {
            line,
            data: cl.data,
            dirty: true,
            pending: cl.pending,
        };
        cl.dirty = false;
        cl.pending = false;
        self.dirty.clear(i);
        Some(ev)
    }

    /// Evicts one pseudo-random *dirty* line if any exists (the background
    /// "natural writeback" path). Returns the evicted line.
    ///
    /// The victim is the first dirty position at or after a pseudo-random
    /// start, wrapping once. Picking the start consumes exactly one rng
    /// step whether or not anything is dirty — victim sequences, and so
    /// crash-site replay, depend on the rng staying in step.
    pub fn evict_random_dirty(&mut self) -> Option<Evicted> {
        if self.entries.is_empty() {
            return None;
        }
        let start = (self.next_rand() as usize) % self.entries.len();
        let pos = self
            .dirty
            .first_from(start)
            .or_else(|| self.dirty.first_from(0))?;
        let (line, cl) = self.remove_at(pos);
        Some(Evicted {
            line,
            data: cl.data,
            dirty: true,
            pending: cl.pending,
        })
    }

    fn make_room(&mut self, evicted_out: &mut Vec<Evicted>) {
        while self.entries.len() >= self.capacity {
            let victim = (self.next_rand() as usize) % self.entries.len();
            let (line, cl) = self.remove_at(victim);
            if cl.dirty {
                evicted_out.push(Evicted {
                    line,
                    data: cl.data,
                    dirty: true,
                    pending: cl.pending,
                });
            }
        }
    }

    /// Drops every line (crash: volatile state vanishes).
    pub fn invalidate_all(&mut self) {
        self.index.clear();
        self.entries.clear();
        self.dirty = DirtyIndex::default();
    }

    /// Iterates over all resident dirty lines in dense-vector order (used
    /// by non-destructive crash snapshots to know what *not* to persist).
    pub fn dirty_lines(&self) -> impl Iterator<Item = (Line, &CacheLine)> {
        self.dirty.iter().map(|p| {
            let (line, cl) = &self.entries[p];
            (*line, cl)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    const FILL: [u8; CACHELINE_BYTES as usize] = [0; CACHELINE_BYTES as usize];

    /// Miss-or-hit access as the engine does it: `pos_of`, then `insert_at`.
    fn touch(c: &mut CacheSim, line: Line, ev: &mut Vec<Evicted>) -> (usize, bool) {
        match c.pos_of(line) {
            Some(pos) => (pos, true),
            None => (c.insert_at(line, FILL, ev), false),
        }
    }

    fn store(c: &mut CacheSim, line: Line, off: usize, data: &[u8], pending: bool) -> Vec<Evicted> {
        let mut ev = Vec::new();
        let (pos, _) = touch(c, line, &mut ev);
        c.write_at(pos, off, data, pending);
        ev
    }

    fn dirty_count(c: &CacheSim) -> usize {
        c.dirty_lines().count()
    }

    #[test]
    fn touch_miss_then_hit() {
        let mut c = CacheSim::new(8, 1);
        let mut ev = Vec::new();
        assert!(!touch(&mut c, Line(3), &mut ev).1);
        assert!(touch(&mut c, Line(3), &mut ev).1);
        assert!(ev.is_empty());
    }

    #[test]
    fn write_marks_dirty_and_pending() {
        let mut c = CacheSim::new(8, 1);
        store(&mut c, Line(0), 4, &[1, 2], true);
        let cl = c.peek(Line(0)).expect("resident");
        assert!(cl.dirty);
        assert!(cl.pending);
        assert_eq!(cl.data[4], 1);
        assert_eq!(cl.data[5], 2);
    }

    #[test]
    fn clean_returns_writeback_once() {
        let mut c = CacheSim::new(8, 1);
        store(&mut c, Line(0), 0, &[9], false);
        let wb = c.clean(Line(0)).expect("dirty line yields writeback");
        assert!(wb.dirty);
        assert_eq!(wb.data[0], 9);
        // Second clean: nothing to write back.
        assert!(c.clean(Line(0)).is_none());
        // Line remains resident and readable.
        let mut b = [0u8; 1];
        c.read_at(c.pos_of(Line(0)).expect("resident"), 0, &mut b);
        assert_eq!(b[0], 9);
    }

    #[test]
    fn capacity_eviction_surfaces_dirty_victims() {
        let mut c = CacheSim::new(2, 42);
        store(&mut c, Line(0), 0, &[7], false);
        store(&mut c, Line(1), 0, &[8], false);
        // Third line forces an eviction; both residents are dirty, so the
        // victim must appear in `ev`.
        let mut ev = Vec::new();
        touch(&mut c, Line(2), &mut ev);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].dirty);
        assert!(c.len() <= 2);
    }

    #[test]
    fn evict_random_dirty_prefers_dirty() {
        let mut c = CacheSim::new(8, 5);
        touch(&mut c, Line(0), &mut Vec::new()); // clean
        store(&mut c, Line(1), 0, &[1], true);
        let got = c.evict_random_dirty().expect("one dirty line exists");
        assert_eq!(got.line, Line(1));
        assert!(got.pending);
        assert!(c.evict_random_dirty().is_none());
    }

    #[test]
    fn victim_selection_is_deterministic_across_instances() {
        // Two caches built from the same seed must evict the same victims
        // for the same access sequence — crash-site replay depends on it.
        // (A regression: victims were once picked by std HashMap iteration
        // order, which is randomized per instance.)
        let run = || {
            let mut c = CacheSim::new(4, 99);
            let mut order = Vec::new();
            for i in 0..64u64 {
                let ev = store(&mut c, Line(i % 16), 0, &[i as u8], false);
                order.extend(ev.into_iter().map(|e| e.line));
                if i % 5 == 0 {
                    if let Some(e) = c.evict_random_dirty() {
                        order.push(e.line);
                    }
                }
            }
            order
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dirty_index_tracks_all_transitions() {
        let mut c = CacheSim::new(4, 3);
        let mut ev = Vec::new();
        touch(&mut c, Line(0), &mut ev);
        touch(&mut c, Line(1), &mut ev);
        assert!(c.evict_random_dirty().is_none());
        store(&mut c, Line(0), 0, &[1], false);
        store(&mut c, Line(0), 1, &[2], false); // re-dirty: no double count
        store(&mut c, Line(1), 0, &[3], false);
        assert_eq!(dirty_count(&c), 2);
        c.clean(Line(0));
        assert_eq!(dirty_count(&c), 1);
        assert!(c.evict_random_dirty().is_some());
        assert_eq!(dirty_count(&c), 0);
        assert!(c.evict_random_dirty().is_none());
        store(&mut c, Line(0), 0, &[4], false);
        c.invalidate_all();
        assert_eq!(dirty_count(&c), 0);
    }

    #[test]
    fn invalidate_all_clears() {
        let mut c = CacheSim::new(8, 5);
        touch(&mut c, Line(0), &mut Vec::new());
        c.invalidate_all();
        assert!(c.is_empty());
        assert!(c.pos_of(Line(0)).is_none());
    }

    #[test]
    fn dirty_index_first_from_crosses_word_and_summary_boundaries() {
        let mut d = DirtyIndex::default();
        assert_eq!(d.first_from(0), None);
        for p in [63, 64, 4095, 4096, 9000] {
            d.set(p);
        }
        assert_eq!(d.iter().collect::<Vec<_>>(), [63, 64, 4095, 4096, 9000]);
        assert_eq!(d.first_from(65), Some(4095));
        assert_eq!(d.first_from(4097), Some(9000));
        assert_eq!(d.first_from(9001), None);
        assert!(d.clear(4096));
        assert!(!d.clear(4096));
        assert!(!d.clear(1 << 20), "beyond the allocated words");
        assert_eq!(d.first_from(4096), Some(9000));
    }

    /// The pre-index cache, kept as the differential oracle: residency and
    /// dirty flags only, with the original linear victim probe and its
    /// `dirty_count == 0` shortcut.
    struct ScanCache {
        index: HashMap<Line, usize>,
        entries: Vec<(Line, bool)>,
        capacity: usize,
        rng: u64,
    }

    impl ScanCache {
        fn new(capacity: usize, seed: u64) -> Self {
            ScanCache {
                index: HashMap::new(),
                entries: Vec::new(),
                capacity: capacity.max(1),
                rng: seed | 1,
            }
        }

        fn next_rand(&mut self) -> u64 {
            let mut x = self.rng;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.rng = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn remove(&mut self, line: Line) -> bool {
            let i = self.index.remove(&line).expect("resident");
            let (_, dirty) = self.entries.swap_remove(i);
            if let Some((moved, _)) = self.entries.get(i) {
                self.index.insert(*moved, i);
            }
            dirty
        }

        /// Returns the dirty capacity victims, in eviction order.
        fn insert(&mut self, line: Line) -> Vec<Line> {
            let mut out = Vec::new();
            while self.entries.len() >= self.capacity {
                let victim = (self.next_rand() as usize) % self.entries.len();
                let key = self.entries[victim].0;
                if self.remove(key) {
                    out.push(key);
                }
            }
            self.index.insert(line, self.entries.len());
            self.entries.push((line, false));
            out
        }

        fn set_dirty(&mut self, line: Line, dirty: bool) -> bool {
            let slot = &mut self.entries[self.index[&line]].1;
            std::mem::replace(slot, dirty)
        }

        fn evict_random_dirty(&mut self) -> Option<Line> {
            if self.entries.is_empty() {
                return None;
            }
            if !self.entries.iter().any(|e| e.1) {
                self.next_rand();
                return None;
            }
            let n = self.entries.len();
            let start = (self.next_rand() as usize) % n;
            let key = (0..n)
                .map(|k| self.entries[(start + k) % n])
                .find(|e| e.1)
                .map(|e| e.0)?;
            self.remove(key);
            Some(key)
        }

        fn dirty_lines(&self) -> Vec<Line> {
            let dirty = self.entries.iter().filter(|e| e.1);
            dirty.map(|e| e.0).collect()
        }
    }

    /// Both caches side by side; every step asserts they agree.
    struct Pair {
        new: CacheSim,
        old: ScanCache,
        steps: usize,
    }

    impl Pair {
        fn touch(&mut self, line: Line, write: bool) {
            let mut ev = Vec::new();
            let (pos, hit) = touch(&mut self.new, line, &mut ev);
            let old_ev = if hit {
                Vec::new()
            } else {
                self.old.insert(line)
            };
            assert_eq!(ev.iter().map(|e| e.line).collect::<Vec<_>>(), old_ev);
            if write {
                self.new.write_at(pos, 0, &[1], false);
                self.old.set_dirty(line, true);
            }
            self.check();
        }

        fn clean(&mut self, line: Line) {
            let was_dirty = self.old.index.contains_key(&line) && self.old.set_dirty(line, false);
            assert_eq!(self.new.clean(line).is_some(), was_dirty);
            self.check();
        }

        fn evict_random_dirty(&mut self) {
            let got = self.new.evict_random_dirty().map(|e| e.line);
            assert_eq!(got, self.old.evict_random_dirty());
            self.check();
        }

        fn invalidate_all(&mut self) {
            self.new.invalidate_all();
            self.old.index.clear();
            self.old.entries.clear();
            self.check();
        }

        fn check(&mut self) {
            self.steps += 1;
            assert_eq!(self.new.rng, self.old.rng, "rng out of step");
            assert_eq!(self.new.len(), self.old.entries.len());
            // The full walk is O(dirty): thin it out on the big cache.
            if self.old.capacity <= 65 || self.steps.is_multiple_of(61) {
                let new: Vec<Line> = self.new.dirty_lines().map(|(l, _)| l).collect();
                assert_eq!(new, self.old.dirty_lines(), "dirty_lines order");
                for (p, (_, cl)) in self.new.entries.iter().enumerate() {
                    assert_eq!(self.new.dirty.first_from(p) == Some(p), cl.dirty);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The indexed cache and the linear-probe oracle, driven by the
        /// same operations, pick the same victims, stay on the same rng
        /// step and list the same dirty lines in the same order — at
        /// capacities that put the tail on a word (63/64/65) and a summary
        /// (4097) boundary, so swap-removes of the last entry and of a
        /// dirty tail cross them.
        #[test]
        fn dirty_index_matches_linear_probe(
            cap in prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(4097)],
            seed in any::<u64>(),
            ops in proptest::collection::vec((0u8..16, any::<u64>(), any::<bool>()), 1..400),
        ) {
            let mut pair = Pair {
                new: CacheSim::new(cap, seed),
                old: ScanCache::new(cap, seed),
                steps: 0,
            };
            // Start from a nearly full cache so the random phase works at
            // the boundary positions and triggers capacity evictions.
            for i in 0..cap.saturating_sub(2) as u64 {
                pair.touch(Line(i), i % 3 == 0);
            }
            let universe = (cap + cap / 4 + 2) as u64;
            for (kind, sel, write) in ops {
                let line = Line(sel % universe);
                match kind {
                    0..=7 => pair.touch(line, write),
                    8..=10 => pair.clean(line),
                    11..=14 => pair.evict_random_dirty(),
                    _ => {
                        // Nothing dirty (or, rarely, nothing resident):
                        // the probe finds no victim but a non-empty cache
                        // must still consume its rng step.
                        if sel % 8 == 0 {
                            pair.invalidate_all();
                        }
                        for l in pair.old.dirty_lines() {
                            pair.clean(l);
                        }
                        pair.evict_random_dirty();
                    }
                }
            }
        }
    }
}
