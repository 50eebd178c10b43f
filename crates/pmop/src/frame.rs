//! Volatile per-frame allocator state: slot masks and run search.

/// Slots per 4 KiB frame (4096 / 16).
pub const SLOTS_PER_FRAME: usize = 256;

/// What a frame is currently used for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Never used or fully freed: available for allocation.
    Free,
    /// Holds ordinary allocations.
    Active,
    /// Selected by the GC summary phase; its live objects are moving out.
    Relocation,
    /// Receives relocated objects; slots were reserved by the summary phase.
    Destination,
    /// Part of a multi-frame (huge) allocation; never compacted.
    Huge,
}

/// Volatile mirror of one frame's allocation state.
///
/// The persistent truth is the 64-byte bitmap record in the pool media;
/// this mirror exists so the allocator does not pay simulated PM reads on
/// every slot search. It is rebuilt from the persistent record on open.
#[derive(Clone, Debug)]
pub struct FrameState {
    /// Current role.
    pub kind: FrameKind,
    /// Allocated-slot mask, 256 bits.
    pub alloc: [u64; 4],
    /// Object-start mask, 256 bits.
    pub start: [u64; 4],
    /// Number of free slots.
    pub free_slots: u16,
    /// Live payload+header bytes in this frame.
    pub live_bytes: u32,
    /// Relocation frame whose objects have all moved out: its OS page no
    /// longer counts toward the footprint, but the frame is not reusable
    /// until the cycle terminates (stale references may still be forwarded
    /// through the PMFT entry covering it).
    pub evacuated: bool,
    /// Allocation size class served by this frame (`None`: empty frames and
    /// GC destination frames, which mix sizes and are not refilled). PMDK
    /// segregates allocations into classes — a hole freed in one class
    /// cannot serve another class's allocation, the main fragmentation
    /// driver under variable-size values.
    pub class: Option<u8>,
}

impl Default for FrameState {
    fn default() -> Self {
        FrameState {
            kind: FrameKind::Free,
            alloc: [0; 4],
            start: [0; 4],
            free_slots: SLOTS_PER_FRAME as u16,
            live_bytes: 0,
            evacuated: false,
            class: None,
        }
    }
}

#[inline]
fn get_bit(mask: &[u64; 4], i: usize) -> bool {
    mask[i / 64] >> (i % 64) & 1 == 1
}

#[inline]
fn set_bit(mask: &mut [u64; 4], i: usize) {
    mask[i / 64] |= 1 << (i % 64);
}

#[inline]
fn clear_bit(mask: &mut [u64; 4], i: usize) {
    mask[i / 64] &= !(1 << (i % 64));
}

/// The first set bit of `mask` at or above `from`, or [`SLOTS_PER_FRAME`].
fn next_set_bit(mask: &[u64; 4], from: usize) -> usize {
    let mut w = from / 64;
    if w >= mask.len() {
        return SLOTS_PER_FRAME;
    }
    let mut bits = mask[w] & (!0u64 << (from % 64));
    loop {
        if bits != 0 {
            return w * 64 + bits.trailing_zeros() as usize;
        }
        w += 1;
        if w == mask.len() {
            return SLOTS_PER_FRAME;
        }
        bits = mask[w];
    }
}

impl FrameState {
    /// Whether slot `i` is allocated.
    pub fn is_allocated(&self, i: usize) -> bool {
        get_bit(&self.alloc, i)
    }

    /// Whether slot `i` starts an object.
    pub fn is_start(&self, i: usize) -> bool {
        get_bit(&self.start, i)
    }

    /// Whether every slot of `[slot, slot+n)` is still free — the
    /// allocator's verify step between picking a candidate run and
    /// reserving it (a concurrent allocator may have claimed it since).
    pub fn is_run_free(&self, slot: usize, n: usize) -> bool {
        debug_assert!(slot + n <= SLOTS_PER_FRAME);
        (slot..slot + n).all(|i| !self.is_allocated(i))
    }

    /// Finds the first run of `n` contiguous free slots, or `None`.
    pub fn find_free_run(&self, n: usize) -> Option<usize> {
        debug_assert!((1..=SLOTS_PER_FRAME).contains(&n));
        let mut run = 0usize;
        for i in 0..SLOTS_PER_FRAME {
            if self.is_allocated(i) {
                run = 0;
            } else {
                run += 1;
                if run == n {
                    return Some(i + 1 - n);
                }
            }
        }
        None
    }

    /// Marks slots `[slot, slot+n)` allocated with an object start at `slot`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if any slot is already allocated.
    pub fn mark_allocated(&mut self, slot: usize, n: usize, bytes: u32) {
        for i in slot..slot + n {
            debug_assert!(!self.is_allocated(i), "double allocation of slot {i}");
            set_bit(&mut self.alloc, i);
        }
        set_bit(&mut self.start, slot);
        self.free_slots -= n as u16;
        self.live_bytes += bytes;
        if self.kind == FrameKind::Free {
            self.kind = FrameKind::Active;
        }
    }

    /// Clears slots `[slot, slot+n)` and the start bit at `slot`.
    ///
    /// Only `Active` frames transition to `Free` when they empty: a
    /// `Destination` frame must stay reserved until its cycle terminates
    /// (the forwarding table still maps into it), and `Relocation`/`Huge`
    /// frames have their own teardown paths.
    pub fn mark_freed(&mut self, slot: usize, n: usize, bytes: u32) {
        for i in slot..slot + n {
            debug_assert!(self.is_allocated(i), "freeing unallocated slot {i}");
            clear_bit(&mut self.alloc, i);
        }
        clear_bit(&mut self.start, slot);
        self.free_slots += n as u16;
        self.live_bytes -= bytes;
        if self.free_slots as usize == SLOTS_PER_FRAME && self.kind == FrameKind::Active {
            self.kind = FrameKind::Free;
        }
    }

    /// Clears one slot (and any start bit on it) without byte accounting —
    /// recovery's tolerant teardown of partially-persisted reservations.
    pub fn mark_freed_single(&mut self, slot: usize) {
        if get_bit(&self.alloc, slot) {
            clear_bit(&mut self.alloc, slot);
            self.free_slots += 1;
        }
        clear_bit(&mut self.start, slot);
        if self.free_slots as usize == SLOTS_PER_FRAME {
            self.kind = FrameKind::Free;
        }
    }

    /// Iterates the slot indices where objects start, in ascending order.
    /// Walks the set bits of a copy of the start mask, so the iterator
    /// borrows nothing.
    pub fn start_slots(&self) -> impl Iterator<Item = usize> {
        let start = self.start;
        (0..start.len()).flat_map(move |w| {
            let mut bits = start[w];
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + bit
                })
            })
        })
    }

    /// Iterates `(first slot, slots)` of every object starting in this
    /// frame, in ascending order, from the masks alone: an object runs
    /// from its start bit through the allocated slots before the next
    /// start bit or free slot. For an object that fits its frame this is
    /// the extent its header size gives (`alloc` marks exactly those
    /// slots), so GC scans that need no type or size read no header.
    pub fn object_extents(&self) -> impl Iterator<Item = (usize, usize)> {
        // A slot ends the preceding object when it is free or starts one.
        let boundary: [u64; 4] = std::array::from_fn(|w| !self.alloc[w] | self.start[w]);
        self.start_slots()
            .map(move |slot| (slot, next_set_bit(&boundary, slot + 1) - slot))
    }

    /// Serializes the two masks into the 64-byte persistent record format.
    pub fn to_record(&self) -> [u8; 64] {
        let mut rec = [0u8; 64];
        for (i, w) in self.alloc.iter().enumerate() {
            rec[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        for (i, w) in self.start.iter().enumerate() {
            rec[32 + i * 8..32 + i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        rec
    }

    /// Rebuilds masks (not kind/live bytes) from a persistent record.
    pub fn from_record(rec: &[u8; 64]) -> Self {
        let mut st = FrameState::default();
        for i in 0..4 {
            st.alloc[i] = u64::from_le_bytes(rec[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            st.start[i] =
                u64::from_le_bytes(rec[32 + i * 8..32 + i * 8 + 8].try_into().expect("8 bytes"));
        }
        let used = st.alloc.iter().map(|w| w.count_ones()).sum::<u32>();
        st.free_slots = (SLOTS_PER_FRAME as u32 - used) as u16;
        if used > 0 {
            st.kind = FrameKind::Active;
        }
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_frame_is_all_free() {
        let f = FrameState::default();
        assert_eq!(f.kind, FrameKind::Free);
        assert_eq!(f.free_slots as usize, SLOTS_PER_FRAME);
        assert_eq!(f.find_free_run(256), Some(0));
    }

    #[test]
    fn object_extents_stop_at_starts_and_free_slots() {
        let mut f = FrameState::default();
        f.mark_allocated(0, 3, 48);
        f.mark_allocated(3, 1, 16);
        f.mark_allocated(10, 9, 144);
        f.mark_allocated(250, 6, 96);
        let got: Vec<_> = f.object_extents().collect();
        assert_eq!(got, vec![(0, 3), (3, 1), (10, 9), (250, 6)]);
    }

    #[test]
    fn allocate_then_free_roundtrip() {
        let mut f = FrameState::default();
        f.mark_allocated(10, 9, 144);
        assert_eq!(f.kind, FrameKind::Active);
        assert!(f.is_allocated(10) && f.is_allocated(18));
        assert!(!f.is_allocated(19));
        assert!(f.is_start(10) && !f.is_start(11));
        assert_eq!(f.free_slots as usize, SLOTS_PER_FRAME - 9);
        assert_eq!(f.live_bytes, 144);
        f.mark_freed(10, 9, 144);
        assert_eq!(f.kind, FrameKind::Free);
        assert_eq!(f.live_bytes, 0);
    }

    #[test]
    fn find_free_run_skips_holes() {
        let mut f = FrameState::default();
        f.mark_allocated(0, 4, 64);
        f.mark_allocated(6, 4, 64);
        // Slots 4,5 free: a run of 2 fits there, 3 must go after slot 9.
        assert_eq!(f.find_free_run(2), Some(4));
        assert_eq!(f.find_free_run(3), Some(10));
    }

    #[test]
    fn find_free_run_none_when_full() {
        let mut f = FrameState::default();
        f.mark_allocated(0, 256, 4096);
        assert_eq!(f.find_free_run(1), None);
    }

    #[test]
    fn run_across_word_boundary() {
        let mut f = FrameState::default();
        // Fill everything except slots 62..66 (straddles the u64 boundary).
        f.mark_allocated(0, 62, 992);
        f.mark_allocated(66, 190, 3040);
        assert_eq!(f.find_free_run(4), Some(62));
        assert_eq!(f.find_free_run(5), None);
    }

    #[test]
    fn record_roundtrip() {
        let mut f = FrameState::default();
        f.mark_allocated(3, 5, 80);
        f.mark_allocated(100, 20, 320);
        let rec = f.to_record();
        let g = FrameState::from_record(&rec);
        assert_eq!(g.alloc, f.alloc);
        assert_eq!(g.start, f.start);
        assert_eq!(g.free_slots, f.free_slots);
        assert_eq!(g.kind, FrameKind::Active);
    }

    #[test]
    fn start_slots_enumerates_objects() {
        let mut f = FrameState::default();
        f.mark_allocated(0, 2, 32);
        f.mark_allocated(2, 2, 32);
        f.mark_allocated(200, 10, 160);
        let starts: Vec<_> = f.start_slots().collect();
        assert_eq!(starts, vec![0, 2, 200]);
    }

    /// A start-mask word: empty, full, a word-edge bit, or random bits.
    fn start_word() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0),
            Just(u64::MAX),
            Just(1),
            Just(1 << 63),
            Just(1 | 1 << 63),
            any::<u64>(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The set-bit walk yields exactly the slots a test of every slot
        /// finds, in the same order.
        #[test]
        fn start_slots_equals_the_per_slot_scan(
            words in (start_word(), start_word(), start_word(), start_word()),
        ) {
            let f = FrameState {
                start: [words.0, words.1, words.2, words.3],
                ..FrameState::default()
            };
            let scan: Vec<usize> = (0..SLOTS_PER_FRAME).filter(|&i| f.is_start(i)).collect();
            prop_assert_eq!(f.start_slots().collect::<Vec<_>>(), scan);
        }
    }
}
