//! PM-aware forwarding table (paper §4.3.1).
//!
//! The PMFT records, for every relocation frame, where each of its live
//! objects will move. Two properties matter:
//!
//! * **Crash consistency** — entries store pool *offsets* (major distance =
//!   destination frame, minor distance = 16-byte slot), never virtual
//!   addresses, so a post-crash remapping cannot invalidate them.
//! * **Deterministic relocation** — all destinations are computed *before*
//!   compaction starts and persisted; replaying a relocation before or after
//!   a crash always lands on the same destination.
//!
//! Entry layout (320 bytes, direct-mapped by relocation frame index):
//!
//! ```text
//! +0    u64  tag: relocation frame + 1 (0 = invalid)
//! +8    u64  major distance: destination frame index
//! +16   [u8; 256] minor map: source start slot → destination start slot
//!                 (0xFF = no object starts at this slot)
//! ```

use ffccd_pmem::{Ctx, PmEngine};

use crate::meta::GcMetaLayout;

/// Bytes of one PMFT entry (rounded up from 272 for alignment).
pub const PMFT_ENTRY_BYTES: u64 = 320;

/// Minor-map value meaning "no object starts at this slot".
pub const MINOR_NONE: u8 = 0xFF;

/// A decoded PMFT entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PmftEntry {
    /// The relocation frame this entry describes.
    pub reloc_frame: u64,
    /// The destination frame (major distance).
    pub dest_frame: u64,
    /// Source start slot → destination start slot.
    pub minor: [u8; 256],
}

impl PmftEntry {
    /// Creates an empty entry mapping `reloc_frame` to `dest_frame`.
    pub fn new(reloc_frame: u64, dest_frame: u64) -> Self {
        PmftEntry {
            reloc_frame,
            dest_frame,
            minor: [MINOR_NONE; 256],
        }
    }

    /// Records that the object starting at source slot `src` moves to
    /// destination slot `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is the reserved [`MINOR_NONE`] value or `src` already
    /// has a mapping.
    pub fn map(&mut self, src: usize, dst: u8) {
        assert!(dst != MINOR_NONE, "destination slot 0xFF is reserved");
        assert!(self.minor[src] == MINOR_NONE, "slot {src} already mapped");
        self.minor[src] = dst;
    }

    /// Destination slot for source slot `src`, if the slot starts an object.
    pub fn lookup(&self, src: usize) -> Option<u8> {
        match self.minor[src] {
            MINOR_NONE => None,
            d => Some(d),
        }
    }

    /// Iterates `(src_slot, dst_slot)` pairs.
    pub fn mappings(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.minor
            .iter()
            .enumerate()
            .filter(|(_, &d)| d != MINOR_NONE)
            .map(|(s, &d)| (s, d))
    }
}

/// The persistent PMFT: serialization to / from the pool's metadata arena.
#[derive(Clone, Copy, Debug)]
pub struct Pmft {
    meta: GcMetaLayout,
}

impl Pmft {
    /// Creates a PMFT view over the pool's metadata arena.
    pub fn new(meta: GcMetaLayout) -> Self {
        Pmft { meta }
    }

    /// The metadata layout this table lives in.
    pub fn meta(&self) -> &GcMetaLayout {
        &self.meta
    }

    /// Writes and persists `entry` (summary phase; simulated + charged).
    pub fn store(&self, ctx: &mut Ctx, engine: &PmEngine, entry: &PmftEntry) {
        let off = self.meta.pmft_entry(entry.reloc_frame);
        let mut buf = [0u8; 272];
        buf[0..8].copy_from_slice(&(entry.reloc_frame + 1).to_le_bytes());
        buf[8..16].copy_from_slice(&entry.dest_frame.to_le_bytes());
        buf[16..272].copy_from_slice(&entry.minor);
        engine.write(ctx, off, &buf);
        engine.persist(ctx, off, 272);
    }

    /// Invalidates the entry for `reloc_frame` (cycle teardown).
    pub fn clear(&self, ctx: &mut Ctx, engine: &PmEngine, reloc_frame: u64) {
        let off = self.meta.pmft_entry(reloc_frame);
        engine.write_u64(ctx, off, 0);
        engine.persist(ctx, off, 8);
    }

    /// Loads the entry for `reloc_frame` from the *logical* PM state
    /// without charging cycles (hardware fill / recovery path; callers
    /// charge the latency that fits their context). The tag word is read
    /// first and an invalid entry stops there, so [`Pmft::load_all`]'s
    /// scan over every frame copies only the entries that exist.
    pub fn load(&self, engine: &PmEngine, reloc_frame: u64) -> Option<PmftEntry> {
        let off = self.meta.pmft_entry(reloc_frame);
        let tag = engine.peek_u64(off);
        if tag == 0 {
            return None;
        }
        let dest_frame = engine.peek_u64(off + 8);
        let mut minor = [MINOR_NONE; 256];
        minor.copy_from_slice(&engine.peek_vec(off + 16, 256));
        Some(PmftEntry {
            reloc_frame: tag - 1,
            dest_frame,
            minor,
        })
    }

    /// All valid entries (recovery enumerates the in-flight cycle).
    pub fn load_all(&self, engine: &PmEngine) -> Vec<PmftEntry> {
        (0..self.meta.num_frames)
            .filter_map(|f| self.load(engine, f))
            .collect()
    }

    /// Software forwarding lookup as the *non*-checklookup schemes perform
    /// it (paper §3.3.3 overhead (ii)): "its new address needs to be
    /// attained by checking a large table in memory, with poor locality".
    /// The 272-byte entry spans five cachelines and the walk is two
    /// dependent loads (entry tag/major, then the minor-distance byte), so
    /// two full PM accesses are charged.
    pub fn soft_lookup(
        &self,
        ctx: &mut Ctx,
        engine: &PmEngine,
        reloc_frame: u64,
        src_slot: usize,
    ) -> Option<(u64, u8)> {
        ctx.charge(2 * engine.config().pm_read_latency);
        let e = self.load(engine, reloc_frame)?;
        e.lookup(src_slot).map(|d| (e.dest_frame, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffccd_pmem::MachineConfig;
    use ffccd_pmop::PoolLayout;

    fn setup() -> (PmEngine, Pmft, Ctx) {
        let pool = PoolLayout::compute(1 << 20, 4096);
        let engine = PmEngine::new(MachineConfig::default(), pool.total_bytes);
        let ctx = Ctx::new(engine.config());
        (engine, Pmft::new(GcMetaLayout::from_pool(&pool)), ctx)
    }

    #[test]
    fn entry_map_and_lookup() {
        let mut e = PmftEntry::new(3, 9);
        e.map(0, 10);
        e.map(16, 11);
        assert_eq!(e.lookup(0), Some(10));
        assert_eq!(e.lookup(16), Some(11));
        assert_eq!(e.lookup(8), None);
        assert_eq!(e.mappings().count(), 2);
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_map_panics() {
        let mut e = PmftEntry::new(0, 0);
        e.map(5, 1);
        e.map(5, 2);
    }

    #[test]
    fn store_load_roundtrip() {
        let (engine, pmft, mut ctx) = setup();
        let mut e = PmftEntry::new(7, 42);
        e.map(4, 0);
        e.map(200, 99);
        pmft.store(&mut ctx, &engine, &e);
        let got = pmft.load(&engine, 7).expect("entry stored");
        assert_eq!(got, e);
        assert!(pmft.load(&engine, 8).is_none());
    }

    #[test]
    fn stored_entries_survive_crash() {
        let (engine, pmft, mut ctx) = setup();
        let mut e = PmftEntry::new(1, 2);
        e.map(0, 0);
        pmft.store(&mut ctx, &engine, &e);
        let img = engine.crash_image();
        let engine2 = img.restart();
        let got = pmft.load(&engine2, 1).expect("persisted across crash");
        assert_eq!(got, e);
    }

    #[test]
    fn clear_invalidates() {
        let (engine, pmft, mut ctx) = setup();
        pmft.store(&mut ctx, &engine, &PmftEntry::new(5, 6));
        pmft.clear(&mut ctx, &engine, 5);
        assert!(pmft.load(&engine, 5).is_none());
        assert_eq!(pmft.load_all(&engine).len(), 0);
    }

    #[test]
    fn load_all_finds_every_valid_entry() {
        let (engine, pmft, mut ctx) = setup();
        for f in [0u64, 3, 17] {
            pmft.store(&mut ctx, &engine, &PmftEntry::new(f, f + 100));
        }
        let all = pmft.load_all(&engine);
        assert_eq!(all.len(), 3);
        assert!(all
            .iter()
            .any(|e| e.reloc_frame == 17 && e.dest_frame == 117));
    }

    #[test]
    fn soft_lookup_charges_pm_latency() {
        let (engine, pmft, mut ctx) = setup();
        let mut e = PmftEntry::new(2, 8);
        e.map(10, 20);
        pmft.store(&mut ctx, &engine, &e);
        let c0 = ctx.cycles();
        let hit = pmft.soft_lookup(&mut ctx, &engine, 2, 10);
        assert_eq!(hit, Some((8, 20)));
        assert!(ctx.cycles() - c0 >= engine.config().pm_read_latency);
    }
}
