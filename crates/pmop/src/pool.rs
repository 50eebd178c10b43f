//! The persistent memory object pool: allocation, roots, typed objects,
//! fragmentation accounting.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use ffccd_pmem::{Ctx, MachineConfig, PmEngine};

use crate::error::PoolError;
use crate::frame::{FrameKind, FrameState, SLOTS_PER_FRAME};
use crate::layout::{
    PoolLayout, FRAME_BYTES, HDR_MAGIC, HDR_NUM_FRAMES, HDR_OS_PAGE, HDR_ROOT, HDR_SHARDS,
    OBJ_HEADER_BYTES, POOL_MAGIC, SLOT_BYTES,
};
use crate::ptr::PmPtr;
use crate::types::{TypeId, TypeRegistry};

/// Configuration for creating a pool.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Bytes of object heap (rounded up to whole OS pages).
    pub data_bytes: u64,
    /// OS page size for footprint accounting: 4 KiB or 2 MiB (any multiple
    /// of 4 KiB is accepted).
    pub os_page_size: u64,
    /// Machine timing parameters.
    pub machine: MachineConfig,
}

impl PoolConfig {
    /// A 1 MiB pool with 4 KiB pages — handy in unit tests.
    pub fn small_for_tests() -> Self {
        PoolConfig {
            data_bytes: 1 << 20,
            os_page_size: 4096,
            machine: MachineConfig::default(),
        }
    }
}

/// Aggregate pool statistics (the paper's fragmentation metrics).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PoolStats {
    /// Bytes in live objects (headers included).
    pub live_bytes: u64,
    /// Bytes of committed OS pages — the "memory footprint" of Figure 1.
    pub footprint_bytes: u64,
    /// Committed OS pages.
    pub committed_pages: u64,
    /// footprint / live — the paper's `fragR` (∞ avoided: 1.0 when empty).
    pub frag_ratio: f64,
}

/// One object found in a frame (GC enumeration).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameObject {
    /// Pointer to the payload.
    pub ptr: PmPtr,
    /// Declared type.
    pub type_id: TypeId,
    /// Payload size in bytes.
    pub size: u32,
    /// First slot (16-byte units from frame start).
    pub slot: usize,
    /// Slots occupied (header + payload, rounded up).
    pub slots: usize,
}

#[derive(Debug)]
struct OsPage {
    committed: bool,
    used_frames: u32,
}

/// Size classes in 16-byte slots (≈1.2× geometric steps, as PMDK's
/// allocation classes). An allocation is served only by frames of its own
/// class; a hole freed in one class cannot serve another class — the main
/// source of long-lived fragmentation under variable-size values.
const CLASS_SLOTS: [u16; 26] = [
    1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 17, 20, 24, 29, 35, 42, 50, 60, 72, 86, 103, 124, 149, 179,
    215,
];

fn class_of(slots: usize) -> u8 {
    CLASS_SLOTS
        .iter()
        .position(|&c| slots <= c as usize)
        .unwrap_or(CLASS_SLOTS.len()) as u8
}

#[derive(Debug)]
struct AllocInner {
    frames: Vec<FrameState>,
    os_pages: Vec<OsPage>,
    /// Per-class frames with free slots, excluding any arena's active frame.
    partial: std::collections::HashMap<u8, Vec<u32>>,
    /// Fully free frames available for (re)use.
    free_frames: Vec<u32>,
    /// Current bump-allocation frame per (arena, class). Concurrent
    /// mutator threads allocate from distinct arenas ([`Ctx::arena`]), so
    /// their bump pointers do not fight over one frame; arena 0 alone
    /// reproduces the single-arena allocator exactly.
    active: std::collections::HashMap<(u32, u8), u32>,
    committed_pages: u64,
    live_bytes: u64,
}

impl AllocInner {
    /// Removes every allocator reference to `frame` (lists + active slots).
    /// `was` is the frame's kind before the transition that calls for the
    /// purge: the free list holds only `Free` frames, so for any other
    /// kind the scan of it (≈ 16 k entries at 64 MiB, once per relocation
    /// frame per cycle) is skipped. Order is kept — `pop` order decides
    /// placement.
    fn purge(&mut self, frame: u32, was: FrameKind) {
        for v in self.partial.values_mut() {
            v.retain(|&x| x != frame);
        }
        self.active.retain(|_, &mut f| f != frame);
        if was == FrameKind::Free {
            self.free_frames.retain(|&x| x != frame);
        } else {
            debug_assert!(
                !self.free_frames.contains(&frame),
                "{was:?} frame {frame} found on the free list"
            );
        }
    }
}

/// A persistent memory object pool (PMOP).
///
/// See the crate docs for the programming model. All mutating operations are
/// thread-safe; simulated memory traffic is charged to the caller's [`Ctx`].
pub struct PmPool {
    engine: PmEngine,
    layout: PoolLayout,
    registry: TypeRegistry,
    /// The volatile allocator state: frame table, class lists, active map
    /// and page accounting.
    inner: Mutex<AllocInner>,
    /// Striped per-frame commit locks (`frame % RECORD_STRIPES`). A
    /// thread persisting a frame's bitmap record holds the frame's stripe
    /// from *before* it reserves slots until *after* the record write, so
    /// (a) two allocators can never claim the same run (the reservation
    /// is verified and applied under the stripe), and (b) same-frame
    /// records always persist in reservation order — a slot shows up in a
    /// durable record only after its object header is durable. Lock order
    /// is stripe → `inner`, never the reverse.
    record_stripes: Box<[Mutex<()>]>,
    base: AtomicU64,
    pool_id: u16,
}

impl std::fmt::Debug for PmPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmPool")
            .field("layout", &self.layout)
            .field("stats", &self.stats())
            .finish()
    }
}

/// How many candidate partial frames the allocator inspects before giving up
/// and taking a fresh frame. Real allocators bound this search the same way;
/// the bound is one source of long-lived fragmentation.
const PARTIAL_SCAN_LIMIT: usize = 32;

/// Number of per-frame commit-lock stripes (see [`PmPool::record_stripes`]).
const RECORD_STRIPES: usize = 64;

/// Maximum payload of a non-huge object: it must fit one frame with header.
pub(crate) const MAX_SMALL_PAYLOAD: u64 = FRAME_BYTES - OBJ_HEADER_BYTES;

/// Unwind guard for `commit_alloc` (thread-crash fault model): a thread
/// killed between marking its slots allocated and completing the object
/// header write would otherwise leave volatile-allocated slots behind a
/// stale garbage header, which the next sweep would then free *by that
/// header* — with an out-of-bounds huge-free in the worst case. Dropping
/// while armed rolls the volatile reservation back, mirroring how
/// machine-crash recovery drops slots whose record never became durable.
struct UndoAlloc<'a> {
    pool: &'a PmPool,
    frame: u32,
    slot: usize,
    n: usize,
    total: u64,
    armed: bool,
}

impl Drop for UndoAlloc<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.pool
                .undo_alloc_volatile(self.frame, self.slot, self.n, self.total);
        }
    }
}

/// Unwind guard for `pmalloc_huge`: same hazard and discipline as
/// [`UndoAlloc`], but the rollback returns the whole reserved frame run to
/// the free lists (the run was carved from free frames, so nothing else
/// can have touched it while the guard is armed).
struct UndoHugeAlloc<'a> {
    pool: &'a PmPool,
    first: u32,
    frames: u32,
    total: u64,
    armed: bool,
}

impl Drop for UndoHugeAlloc<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut inner = self.pool.inner.lock();
        for f in self.first..self.first + self.frames {
            let st = &mut inner.frames[f as usize];
            st.kind = FrameKind::Free;
            st.alloc = [0; 4];
            st.start = [0; 4];
            st.free_slots = SLOTS_PER_FRAME as u16;
            st.live_bytes = 0;
            st.class = None;
            inner.free_frames.push(f);
            let page = self.pool.layout.os_page_of_frame(f as u64) as usize;
            inner.os_pages[page].used_frames -= 1;
        }
        inner.live_bytes -= self.total;
    }
}

impl PmPool {
    // ---- lifecycle ----------------------------------------------------------

    /// Creates and formats a fresh pool.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::BadPool`] if the configuration is degenerate.
    pub fn create(cfg: PoolConfig, registry: TypeRegistry) -> Result<Self, PoolError> {
        if cfg.data_bytes == 0 {
            return Err(PoolError::BadPool {
                reason: "data_bytes must be positive",
            });
        }
        let layout = PoolLayout::compute(cfg.data_bytes, cfg.os_page_size);
        let machine = MachineConfig {
            tlb_page_size: cfg.os_page_size,
            ..cfg.machine
        };
        let engine = PmEngine::new(machine, layout.total_bytes);
        engine.with_media_mut(|m| {
            m.write_u64(HDR_MAGIC, POOL_MAGIC);
            m.write_u64(HDR_OS_PAGE, layout.os_page_size);
            m.write_u64(HDR_NUM_FRAMES, layout.num_frames);
            m.write_u64(HDR_ROOT, PmPtr::NULL.raw());
        });
        Ok(Self::with_engine(engine, layout, registry))
    }

    /// Reads the header of existing media and returns the layout it
    /// describes. Shared by [`PmPool::open`] and the defragmenter's
    /// recovery, which runs before the pool is opened.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::BadPool`] on a bad magic value, or on media
    /// written by a sharded heap ([`HDR_SHARDS`] above 1): its per-shard
    /// frame ownership and cycle headers would be misread as one heap.
    pub fn layout_of_media(engine: &PmEngine) -> Result<PoolLayout, PoolError> {
        let (magic, os_page, num_frames, shards) = engine.with_media(|m| {
            (
                m.read_u64(HDR_MAGIC),
                m.read_u64(HDR_OS_PAGE),
                m.read_u64(HDR_NUM_FRAMES),
                m.read_u64(HDR_SHARDS),
            )
        });
        if magic != POOL_MAGIC {
            return Err(PoolError::BadPool {
                reason: "bad magic",
            });
        }
        if shards > 1 {
            return Err(PoolError::BadPool {
                reason: "media was written by a sharded heap",
            });
        }
        Ok(PoolLayout::compute(num_frames * FRAME_BYTES, os_page))
    }

    /// Opens a pool over existing media (after a crash and recovery).
    ///
    /// Rebuilds the volatile allocator state from the persistent per-frame
    /// bitmap records. Run the defragmenter's recovery *before* opening if
    /// the pool may contain an interrupted GC cycle.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::BadPool`] when [`PmPool::layout_of_media`]
    /// refuses the header or its geometry disagrees with the media size.
    pub fn open(engine: PmEngine, registry: TypeRegistry) -> Result<Self, PoolError> {
        let layout = Self::layout_of_media(&engine)?;
        if layout.total_bytes != engine.len() {
            return Err(PoolError::BadPool {
                reason: "geometry mismatch with media size",
            });
        }
        let pool = Self::with_engine(engine, layout, registry);
        pool.rebuild_from_media();
        Ok(pool)
    }

    fn with_engine(engine: PmEngine, layout: PoolLayout, registry: TypeRegistry) -> Self {
        let num_frames = layout.num_frames as usize;
        let inner = Mutex::new(AllocInner {
            frames: (0..num_frames).map(|_| FrameState::default()).collect(),
            os_pages: (0..layout.num_os_pages())
                .map(|_| OsPage {
                    committed: false,
                    used_frames: 0,
                })
                .collect(),
            partial: std::collections::HashMap::new(),
            // Popped in ascending order.
            free_frames: (0..num_frames as u32).rev().collect(),
            active: std::collections::HashMap::new(),
            committed_pages: 0,
            live_bytes: 0,
        });
        // Relocatable base: different per open, derived from the seed.
        let base = 0x5000_0000_0000u64 ^ (engine.config().seed.rotate_left(17) & 0xFFFF_F000);
        PmPool {
            engine,
            layout,
            registry,
            inner,
            record_stripes: (0..RECORD_STRIPES).map(|_| Mutex::new(())).collect(),
            base: AtomicU64::new(base),
            pool_id: 1,
        }
    }

    fn stripe(&self, frame: u32) -> &Mutex<()> {
        &self.record_stripes[frame as usize % RECORD_STRIPES]
    }

    /// Rebuilds volatile allocator state from persistent bitmap records.
    fn rebuild_from_media(&self) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.partial.clear();
        inner.free_frames.clear();
        inner.active.clear();
        inner.live_bytes = 0;
        inner.committed_pages = 0;
        for p in inner.os_pages.iter_mut() {
            p.committed = false;
            p.used_frames = 0;
        }
        // Pass 1, under one media read: each frame's masks from its bitmap
        // record; live bytes from its headers; huge runs; the frame's size
        // class (mixed-class frames — former GC destinations — stay
        // unclassified and are not refilled).
        let rebuilt: Vec<FrameState> = self.engine.with_media(|m| {
            let mut huge_tail = 0usize; // frames remaining in the current huge run
            (0..self.layout.num_frames)
                .map(|f| {
                    let mut rec = [0u8; 64];
                    m.read(self.layout.bitmap_record(f), &mut rec);
                    let mut st = FrameState::from_record(&rec);
                    if huge_tail > 0 {
                        st.kind = FrameKind::Huge;
                        huge_tail -= 1;
                        return st;
                    }
                    let mut live = 0u32;
                    let mut class: Option<u8> = None;
                    let mut mixed = false;
                    for slot in st.start_slots() {
                        let hdr_off = self.layout.frame_start(f) + slot as u64 * SLOT_BYTES;
                        let size = (m.read_u64(hdr_off) & 0xFFFF_FFFF) as u32;
                        live += size + OBJ_HEADER_BYTES as u32;
                        let total = size as u64 + OBJ_HEADER_BYTES;
                        let c = class_of(Self::slots_for(size as u64));
                        match class {
                            None => class = Some(c),
                            Some(prev) if prev != c => mixed = true,
                            _ => {}
                        }
                        if total > FRAME_BYTES {
                            st.kind = FrameKind::Huge;
                            huge_tail = total.div_ceil(FRAME_BYTES) as usize - 1;
                        }
                    }
                    st.live_bytes = live;
                    st.class = if mixed { None } else { class };
                    st
                })
                .collect()
        });
        // Pass 2: rebuild lists and page accounting.
        for (idx, st) in rebuilt.into_iter().enumerate() {
            let kind = st.kind;
            let live = st.live_bytes as u64;
            let free = st.free_slots;
            let class = st.class;
            inner.frames[idx] = st;
            match kind {
                FrameKind::Free => inner.free_frames.push(idx as u32),
                FrameKind::Active | FrameKind::Huge => {
                    inner.live_bytes += live;
                    let page = self.layout.os_page_of_frame(idx as u64) as usize;
                    if !inner.os_pages[page].committed {
                        inner.os_pages[page].committed = true;
                        inner.committed_pages += 1;
                    }
                    inner.os_pages[page].used_frames += 1;
                    if kind == FrameKind::Active && free > 0 {
                        if let Some(c) = class {
                            inner.partial.entry(c).or_default().push(idx as u32);
                        }
                    }
                }
                FrameKind::Relocation | FrameKind::Destination => {
                    unreachable!("rebuild never produces GC-transient kinds")
                }
            }
        }
        inner.free_frames.reverse();
    }

    // ---- accessors ----------------------------------------------------------

    /// The machine configuration (for constructing [`Ctx`]s).
    pub fn machine(&self) -> &MachineConfig {
        self.engine.config()
    }

    /// The underlying engine.
    pub fn engine(&self) -> &PmEngine {
        &self.engine
    }

    /// The media layout.
    pub fn layout(&self) -> &PoolLayout {
        &self.layout
    }

    /// The type registry supplied at creation.
    pub fn registry(&self) -> &TypeRegistry {
        &self.registry
    }

    /// This pool's id (used in persistent pointers).
    pub fn pool_id(&self) -> u16 {
        self.pool_id
    }

    /// Current virtual base address of the mapping.
    pub fn base(&self) -> u64 {
        self.base.load(Ordering::Relaxed)
    }

    /// Remaps the pool to a different virtual base (relocatability).
    pub fn set_base(&self, base: u64) {
        self.base.store(base, Ordering::Relaxed);
    }

    /// Virtual address of `ptr` under the current mapping (PMDK's
    /// `persistent_ptr2normal_ptr`).
    ///
    /// # Panics
    ///
    /// Panics on the null pointer.
    pub fn va_of(&self, ptr: PmPtr) -> u64 {
        assert!(!ptr.is_null(), "null pointer has no address");
        self.base() + ptr.offset()
    }

    /// Inverse of [`PmPool::va_of`].
    pub fn ptr_of_va(&self, va: u64) -> PmPtr {
        PmPtr::new(self.pool_id, va - self.base())
    }

    /// Pool-offset of the first byte of data frame `frame`.
    pub fn frame_start(&self, frame: u64) -> u64 {
        self.layout.frame_start(frame)
    }

    // ---- root ---------------------------------------------------------------

    /// Reads the root pointer (simulated).
    pub fn root(&self, ctx: &mut Ctx) -> PmPtr {
        PmPtr::from_raw(self.engine.read_u64(ctx, HDR_ROOT))
    }

    /// Stores and persists the root pointer.
    pub fn set_root(&self, ctx: &mut Ctx, ptr: PmPtr) {
        self.engine.write_u64(ctx, HDR_ROOT, ptr.raw());
        self.engine.persist(ctx, HDR_ROOT, 8);
    }

    // ---- allocation ----------------------------------------------------------

    fn slots_for(payload: u64) -> usize {
        (payload + OBJ_HEADER_BYTES).div_ceil(SLOT_BYTES) as usize
    }

    /// Allocates a typed object with `payload` bytes, returning a pointer to
    /// the (zeroed at first use, not cleared) payload.
    ///
    /// # Errors
    ///
    /// [`PoolError::OutOfMemory`] when no frame can satisfy the request;
    /// [`PoolError::AllocationTooLarge`] when a huge allocation exceeds the
    /// whole heap.
    pub fn pmalloc(
        &self,
        ctx: &mut Ctx,
        type_id: TypeId,
        payload: u64,
    ) -> Result<PmPtr, PoolError> {
        if payload > MAX_SMALL_PAYLOAD {
            return self.pmalloc_huge(ctx, type_id, payload);
        }
        let n = Self::slots_for(payload);
        loop {
            let (frame, slot) = self.pick_slot(ctx.arena(), n, payload)?;
            // The candidate run was found under a lock acquisition separate
            // from the commit below, so a concurrent allocator may have
            // claimed it meanwhile; commit verifies under the frame's
            // stripe and asks for a fresh candidate when it lost the race.
            if self.commit_alloc(ctx, frame, slot, n, type_id, payload) {
                return Ok(self.ptr_at(frame, slot));
            }
        }
    }

    fn ptr_at(&self, frame: u32, slot: usize) -> PmPtr {
        PmPtr::new(
            self.pool_id,
            self.layout.frame_start(frame as u64) + slot as u64 * SLOT_BYTES + OBJ_HEADER_BYTES,
        )
    }

    fn pick_slot(&self, arena: u32, n: usize, payload: u64) -> Result<(u32, usize), PoolError> {
        let cls = class_of(n);
        {
            let mut inner = self.inner.lock();
            // 1. bump in this arena's active frame for the class
            if let Some(&a) = inner.active.get(&(arena, cls)) {
                if let Some(slot) = inner.frames[a as usize].find_free_run(n) {
                    return Ok((a, slot));
                }
                // Active frame exhausted for this size; demote it.
                if inner.frames[a as usize].free_slots > 0 {
                    inner.partial.entry(cls).or_default().push(a);
                }
                inner.active.remove(&(arena, cls));
            }
            // 2. bounded first-fit over this class's partial frames
            let mut found: Option<(usize, usize)> = None;
            if let Some(list) = inner.partial.get(&cls) {
                for (i, &f) in list.iter().enumerate().rev().take(PARTIAL_SCAN_LIMIT) {
                    if inner.frames[f as usize].free_slots as usize >= n {
                        if let Some(slot) = inner.frames[f as usize].find_free_run(n) {
                            found = Some((i, slot));
                            break;
                        }
                    }
                }
            }
            if let Some((i, slot)) = found {
                let f = inner
                    .partial
                    .get_mut(&cls)
                    .expect("list exists")
                    .swap_remove(i);
                inner.active.insert((arena, cls), f);
                return Ok((f, slot));
            }
            // 3. fresh frame, claimed for this class
            if let Some(f) = Self::pop_free_frame(&mut inner, &self.layout) {
                inner.frames[f as usize].class = Some(cls);
                inner.active.insert((arena, cls), f);
                return Ok((f, 0));
            }
        }
        Err(PoolError::OutOfMemory {
            requested: payload + OBJ_HEADER_BYTES,
        })
    }

    /// Retires allocation arena `arena` after its owner thread died: every
    /// active bump frame the arena still claims is demoted to an ordinary
    /// partial (or free) frame, so the orphan's reserved capacity returns
    /// to general service instead of sitting invisible to the partial scan
    /// until out-of-memory.
    ///
    /// Only volatile list membership moves, never persistent state, so the
    /// inner lock alone covers it (no stripe). Racing allocators are safe:
    /// one that finds the frame via the partial list re-verifies its run
    /// under the commit stripe like any other allocation.
    pub fn retire_arena(&self, arena: u32) {
        let mut inner = self.inner.lock();
        let claimed: Vec<(u8, u32)> = inner
            .active
            .iter()
            .filter(|((a, _), _)| *a == arena)
            .map(|((_, cls), &f)| (*cls, f))
            .collect();
        for (cls, f) in claimed {
            inner.active.remove(&(arena, cls));
            let st = &inner.frames[f as usize];
            if st.kind == FrameKind::Free {
                // Claimed but never used: return it to the free list,
                // mirroring pfree's fully-freed transition.
                inner.frames[f as usize].class = None;
                inner.free_frames.push(f);
                let page = self.layout.os_page_of_frame(f as u64) as usize;
                inner.os_pages[page].used_frames -= 1;
            } else if st.free_slots > 0 {
                inner.partial.entry(cls).or_default().push(f);
            }
            // Full frames stay unlisted; pfree re-lists them as soon as a
            // slot frees, exactly as for a demoted active frame.
        }
    }

    /// Pops a free frame and commits its OS page. Shared with GC destination
    /// reservation.
    fn pop_free_frame(inner: &mut AllocInner, layout: &PoolLayout) -> Option<u32> {
        let f = inner.free_frames.pop()?;
        let page = layout.os_page_of_frame(f as u64) as usize;
        if !inner.os_pages[page].committed {
            inner.os_pages[page].committed = true;
            inner.committed_pages += 1;
        }
        inner.os_pages[page].used_frames += 1;
        Some(f)
    }

    /// Verifies the candidate run is still free, reserves it, and persists
    /// header + bitmap record — all under the frame's commit stripe.
    /// Returns `false` when a concurrent allocator claimed (part of) the
    /// run first, or the frame left allocator service entirely; the caller
    /// re-picks.
    fn commit_alloc(
        &self,
        ctx: &mut Ctx,
        frame: u32,
        slot: usize,
        n: usize,
        type_id: TypeId,
        payload: u64,
    ) -> bool {
        let _stripe = self.stripe(frame).lock();
        {
            let mut inner = self.inner.lock();
            // The pick left `frame` as this arena's active frame. A frame
            // that emptied (or was released) since was purged from the
            // active map and pushed onto the free list, where it must stay
            // `Free`.
            let still_ours = inner.active.get(&(ctx.arena(), class_of(n))) == Some(&frame);
            let st = &mut inner.frames[frame as usize];
            let usable = matches!(st.kind, FrameKind::Free | FrameKind::Active);
            if !still_ours || !usable || !st.is_run_free(slot, n) {
                return false;
            }
            st.mark_allocated(slot, n, (payload + OBJ_HEADER_BYTES) as u32);
            inner.live_bytes += payload + OBJ_HEADER_BYTES;
        }
        // Thread-crash analog of the persistent commit point below: the
        // slots are marked allocated in volatile state but the header is
        // not written yet, so a thread dying inside the header write would
        // leave an allocated slot whose header is stale garbage — the
        // sweeper would later free it *by that garbage header*. Roll the
        // volatile reservation back on unwind, exactly as machine-crash
        // recovery drops the slots when the record never became durable.
        // Declared after `_stripe` so the rollback runs with the stripe
        // still held.
        let mut undo = UndoAlloc {
            pool: self,
            frame,
            slot,
            n,
            total: payload + OBJ_HEADER_BYTES,
            armed: true,
        };
        // Persist order gives the allocator a commit point: header first,
        // then the bitmap record. A crash in between leaves the slots free.
        // The stripe held across both writes keeps any other thread from
        // persisting a record of this frame that already shows our slots
        // while our header is not yet durable.
        let hdr_off = self.layout.frame_start(frame as u64) + slot as u64 * SLOT_BYTES;
        let word0 = ((type_id.0 as u64) << 32) | payload;
        self.engine.write_u64(ctx, hdr_off, word0);
        self.engine.write_u64(ctx, hdr_off + 8, 0);
        self.engine.persist(ctx, hdr_off, OBJ_HEADER_BYTES);
        // Header complete: a death past this point leaves an ordinary
        // unreachable object the next sweep collects.
        undo.armed = false;
        let rec = self.inner.lock().frames[frame as usize].to_record();
        self.write_bitmap_record(ctx, frame, &rec);
        true
    }

    /// Rolls a small-object allocation's volatile reservation back when the
    /// allocating thread dies (unwinds) between `mark_allocated` and the
    /// completion of the object-header write. Disarmed once the header is
    /// complete. See `commit_alloc`.
    fn undo_alloc_volatile(&self, frame: u32, slot: usize, n: usize, total: u64) {
        let _ = self.free_slots_volatile(frame, slot, n, total);
    }

    fn write_bitmap_record(&self, ctx: &mut Ctx, frame: u32, rec: &[u8; 64]) {
        let off = self.layout.bitmap_record(frame as u64);
        self.engine.write(ctx, off, rec);
        self.engine.persist(ctx, off, 64);
    }

    fn pmalloc_huge(
        &self,
        ctx: &mut Ctx,
        type_id: TypeId,
        payload: u64,
    ) -> Result<PmPtr, PoolError> {
        let total = payload + OBJ_HEADER_BYTES;
        let frames_needed = total.div_ceil(FRAME_BYTES) as usize;
        if frames_needed as u64 > self.layout.num_frames {
            return Err(PoolError::AllocationTooLarge {
                requested: payload,
                max: self.layout.num_frames * FRAME_BYTES - OBJ_HEADER_BYTES,
            });
        }
        let first = {
            let mut inner = self.inner.lock();
            // Find `frames_needed` *consecutive* free frames.
            let mut run_start: Option<u32> = None;
            let mut run_len = 0usize;
            for f in 0..self.layout.num_frames as u32 {
                if inner.frames[f as usize].kind == FrameKind::Free {
                    if run_len == 0 {
                        run_start = Some(f);
                    }
                    run_len += 1;
                    if run_len == frames_needed {
                        break;
                    }
                } else {
                    run_len = 0;
                    run_start = None;
                }
            }
            let start = match (run_start, run_len) {
                (Some(s), l) if l == frames_needed => s,
                _ => {
                    return Err(PoolError::OutOfMemory { requested: total });
                }
            };
            for f in start..start + frames_needed as u32 {
                inner.free_frames.retain(|&x| x != f);
                let page = self.layout.os_page_of_frame(f as u64) as usize;
                if !inner.os_pages[page].committed {
                    inner.os_pages[page].committed = true;
                    inner.committed_pages += 1;
                }
                inner.os_pages[page].used_frames += 1;
                let st = &mut inner.frames[f as usize];
                st.kind = FrameKind::Huge;
                st.alloc = [u64::MAX; 4];
                st.free_slots = 0;
            }
            let st = &mut inner.frames[start as usize];
            st.start[0] |= 1;
            st.live_bytes = total.min(u32::MAX as u64) as u32;
            inner.live_bytes += total;
            start
        };
        // Thread-crash rollback (see `UndoHugeAlloc`): until the header is
        // complete, a dying thread must return the reserved run to the free
        // lists rather than leave Huge frames behind a garbage header.
        let mut undo = UndoHugeAlloc {
            pool: self,
            first,
            frames: frames_needed as u32,
            total,
            armed: true,
        };
        // Header + bitmap records.
        let hdr_off = self.layout.frame_start(first as u64);
        let word0 = ((type_id.0 as u64) << 32) | payload;
        self.engine.write_u64(ctx, hdr_off, word0);
        self.engine.write_u64(ctx, hdr_off + 8, 0);
        self.engine.persist(ctx, hdr_off, OBJ_HEADER_BYTES);
        undo.armed = false;
        for f in first..first + frames_needed as u32 {
            let _stripe = self.stripe(f).lock();
            let rec = self.inner.lock().frames[f as usize].to_record();
            self.write_bitmap_record(ctx, f, &rec);
        }
        Ok(PmPtr::new(self.pool_id, hdr_off + OBJ_HEADER_BYTES))
    }

    /// Frees the object at `ptr`.
    ///
    /// # Errors
    ///
    /// [`PoolError::InvalidPointer`] if `ptr` does not reference a live
    /// object's payload start.
    pub fn pfree(&self, ctx: &mut Ctx, ptr: PmPtr) -> Result<(), PoolError> {
        let (frame, slot) = self.locate(ptr)?;
        let (type_id, size) = self.object_header(ctx, ptr);
        let _ = type_id;
        let total = size as u64 + OBJ_HEADER_BYTES;
        if total > FRAME_BYTES {
            return self.pfree_huge(ctx, ptr, frame, total);
        }
        let n = Self::slots_for(size as u64);
        // Stripe before inner (the pool-wide lock order): the record write
        // below must not interleave with a concurrent same-frame commit.
        let _stripe = self.stripe(frame).lock();
        if !self.inner.lock().frames[frame as usize].is_start(slot) {
            return Err(PoolError::InvalidPointer {
                raw: ptr.raw(),
                reason: "not an object start",
            });
        }
        let rec = self.free_slots_volatile(frame, slot, n, total);
        self.write_bitmap_record(ctx, frame, &rec);
        Ok(())
    }

    /// The volatile half of a small-object free: bitmap and class-list
    /// bookkeeping plus accounting, under the inner lock. Shared by
    /// [`Self::pfree`] (which then persists the returned record) and the
    /// [`UndoAlloc`] thread-crash rollback (which does not — the dying
    /// thread's record write never happened, so the persistent state
    /// already agrees). Caller holds the frame's stripe.
    fn free_slots_volatile(&self, frame: u32, slot: usize, n: usize, total: u64) -> [u8; 64] {
        let mut inner = self.inner.lock();
        let st = &mut inner.frames[frame as usize];
        let was = st.kind;
        st.mark_freed(slot, n, total as u32);
        let cls = st.class;
        let became_partial = st.kind == FrameKind::Active
            && st.free_slots as usize == n
            && cls.is_some()
            && !inner.active.values().any(|&f| f == frame);
        if became_partial {
            inner
                .partial
                .entry(cls.expect("checked above"))
                .or_default()
                .push(frame);
        }
        if inner.frames[frame as usize].kind == FrameKind::Free {
            // Page stays committed (PMDK never decommits); the frame is
            // reusable though.
            inner.frames[frame as usize].class = None;
            inner.purge(frame, was);
            inner.free_frames.push(frame);
            let page = self.layout.os_page_of_frame(frame as u64) as usize;
            inner.os_pages[page].used_frames -= 1;
        }
        inner.live_bytes -= total;
        inner.frames[frame as usize].to_record()
    }

    fn pfree_huge(
        &self,
        ctx: &mut Ctx,
        ptr: PmPtr,
        first: u32,
        total: u64,
    ) -> Result<(), PoolError> {
        let frames = total.div_ceil(FRAME_BYTES) as u32;
        // Defense in depth against torn headers (thread-crash fault model):
        // `total` comes from the object header, so before zeroing `frames`
        // consecutive records the span must actually be a Huge run inside
        // the pool. A header whose size claims a huge span from a non-Huge
        // frame — or past the end of the frame table — is corrupt, not a
        // freeable object. Host-side checks only; both always hold for a
        // legitimately allocated huge object.
        if first as u64 + frames as u64 > self.layout.num_frames
            || self.frame_state(first as u64).kind != FrameKind::Huge
        {
            return Err(PoolError::InvalidPointer {
                raw: ptr.raw(),
                reason: "huge-object header span exceeds its allocation",
            });
        }
        {
            let mut inner = self.inner.lock();
            if !inner.frames[first as usize].is_start(0) {
                return Err(PoolError::InvalidPointer {
                    raw: ptr.raw(),
                    reason: "not a huge object start",
                });
            }
            // Claim the free by clearing the start bit under the same lock
            // as the check: a racing double-free now fails validation
            // instead of tearing the accounting down twice.
            inner.frames[first as usize].start[0] &= !1;
        }
        // Zero the records while every frame is still `Huge` — nothing can
        // allocate from a Huge frame, so no concurrent record write of the
        // same frames can land between ours. Releasing the frames *first*
        // would let an allocator claim one, persist its record, and have
        // our zeroing wipe that allocation out.
        for f in first..first + frames {
            let _stripe = self.stripe(f).lock();
            self.write_bitmap_record(ctx, f, &[0u8; 64]);
        }
        // The frames are all still `Huge`, so no other path can have
        // touched them meanwhile.
        let mut inner = self.inner.lock();
        for f in first..first + frames {
            let st = &mut inner.frames[f as usize];
            st.kind = FrameKind::Free;
            st.alloc = [0; 4];
            st.start = [0; 4];
            st.free_slots = SLOTS_PER_FRAME as u16;
            st.live_bytes = 0;
            st.class = None;
            // A huge allocation can take a frame another arena had just
            // picked as its fresh active frame (still `Free` until that
            // arena commits); drop that claim before the frame is listed.
            inner.purge(f, FrameKind::Huge);
            inner.free_frames.push(f);
            let page = self.layout.os_page_of_frame(f as u64) as usize;
            inner.os_pages[page].used_frames -= 1;
        }
        inner.live_bytes -= total;
        Ok(())
    }

    /// Resolves `ptr` to (frame, start slot).
    fn locate(&self, ptr: PmPtr) -> Result<(u32, usize), PoolError> {
        if ptr.is_null() {
            return Err(PoolError::InvalidPointer {
                raw: 0,
                reason: "null",
            });
        }
        let hdr = ptr
            .offset()
            .checked_sub(OBJ_HEADER_BYTES)
            .ok_or(PoolError::InvalidPointer {
                raw: ptr.raw(),
                reason: "offset before heap",
            })?;
        let frame = self.layout.frame_of(hdr).ok_or(PoolError::InvalidPointer {
            raw: ptr.raw(),
            reason: "outside data region",
        })?;
        let slot = ((hdr - self.layout.frame_start(frame)) / SLOT_BYTES) as usize;
        Ok((frame as u32, slot))
    }

    // ---- object access --------------------------------------------------------

    /// Reads the object header (simulated): (type, payload size).
    pub fn object_header(&self, ctx: &mut Ctx, ptr: PmPtr) -> (TypeId, u32) {
        let word = self.engine.read_u64(ctx, ptr.offset() - OBJ_HEADER_BYTES);
        (TypeId((word >> 32) as u32), (word & 0xFFFF_FFFF) as u32)
    }

    /// Reads the object header without simulation (validators, recovery
    /// bootstrap).
    pub fn peek_header(&self, ptr: PmPtr) -> (TypeId, u32) {
        let word = self.engine.peek_u64(ptr.offset() - OBJ_HEADER_BYTES);
        (TypeId((word >> 32) as u32), (word & 0xFFFF_FFFF) as u32)
    }

    /// Simulated read of payload bytes.
    pub fn read_bytes(&self, ctx: &mut Ctx, ptr: PmPtr, field_off: u64, buf: &mut [u8]) {
        self.engine.read(ctx, ptr.offset() + field_off, buf);
    }

    /// Simulated write of payload bytes.
    pub fn write_bytes(&self, ctx: &mut Ctx, ptr: PmPtr, field_off: u64, data: &[u8]) {
        self.engine.write(ctx, ptr.offset() + field_off, data);
    }

    /// Simulated `u64` field read.
    pub fn read_u64(&self, ctx: &mut Ctx, ptr: PmPtr, field_off: u64) -> u64 {
        self.engine.read_u64(ctx, ptr.offset() + field_off)
    }

    /// Simulated `u64` field write.
    pub fn write_u64(&self, ctx: &mut Ctx, ptr: PmPtr, field_off: u64, v: u64) {
        self.engine.write_u64(ctx, ptr.offset() + field_off, v)
    }

    /// Persists (clwb×n + sfence) a payload field range.
    pub fn persist(&self, ctx: &mut Ctx, ptr: PmPtr, field_off: u64, len: u64) {
        self.engine.persist(ctx, ptr.offset() + field_off, len);
    }

    // ---- GC support -------------------------------------------------------------

    /// Volatile snapshot of a frame's allocator state.
    pub fn frame_state(&self, frame: u64) -> FrameState {
        self.inner.lock().frames[frame as usize].clone()
    }

    /// Volatile snapshot of every frame's allocator state, indexed by
    /// frame, under one lock acquisition — for scans over the whole frame
    /// table.
    pub fn frame_states(&self) -> Vec<FrameState> {
        self.inner.lock().frames.clone()
    }

    /// Payload pointer of the object whose header starts at `slot` of
    /// `frame`.
    pub fn object_ptr(&self, frame: u64, slot: usize) -> PmPtr {
        self.ptr_at(frame as u32, slot)
    }

    /// Charges the one simulated read of `frame`'s 64-byte bitmap record
    /// that models the GC touching the frame's allocation state: what
    /// [`PmPool::frame_objects`] costs, for scans that enumerate from a
    /// [`PmPool::frame_states`] snapshot instead.
    pub fn touch_frame_record(&self, ctx: &mut Ctx, frame: u64) {
        let mut rec = [0u8; 64];
        self.engine
            .read(ctx, self.layout.bitmap_record(frame), &mut rec);
    }

    /// Changes a frame's role (GC: Active↔Relocation/Destination).
    pub fn set_frame_kind(&self, frame: u64, kind: FrameKind) {
        let mut inner = self.inner.lock();
        let was = std::mem::replace(&mut inner.frames[frame as usize].kind, kind);
        if matches!(kind, FrameKind::Relocation | FrameKind::Destination) {
            // Stop the allocator from placing new objects there.
            inner.purge(frame as u32, was);
        }
    }

    /// Enumerates live objects in `frame`, charging one bitmap-record read.
    pub fn frame_objects(&self, ctx: &mut Ctx, frame: u64) -> Vec<FrameObject> {
        // The simulated record read models the GC touching the bitmap;
        // enumeration itself uses the volatile mirror.
        self.touch_frame_record(ctx, frame);
        self.collect_frame_objects(frame)
    }

    /// Enumerates live objects in `frame` without simulation.
    pub fn peek_frame_objects(&self, frame: u64) -> Vec<FrameObject> {
        self.collect_frame_objects(frame)
    }

    fn collect_frame_objects(&self, frame: u64) -> Vec<FrameObject> {
        let starts = self.inner.lock().frames[frame as usize].start_slots();
        starts
            .map(|slot| {
                let ptr = self.ptr_at(frame as u32, slot);
                let (type_id, size) = self.peek_header(ptr);
                FrameObject {
                    ptr,
                    type_id,
                    size,
                    slot,
                    slots: Self::slots_for(size as u64),
                }
            })
            .collect()
    }

    /// Takes a free frame for GC destination use, committing its page, but
    /// never a frame on one of the `avoid` OS pages (the pages selected for
    /// evacuation — placing a destination there would make them
    /// unreleasable).
    ///
    /// # Errors
    ///
    /// [`PoolError::OutOfMemory`] when no eligible free frame exists.
    pub fn take_destination_frame(
        &self,
        avoid: &std::collections::HashSet<u64>,
    ) -> Result<u64, PoolError> {
        let mut inner = self.inner.lock();
        let mut skipped = Vec::new();
        let picked = loop {
            match Self::pop_free_frame(&mut inner, &self.layout) {
                Some(f) => {
                    if avoid.contains(&self.layout.os_page_of_frame(f as u64)) {
                        // Undo the page accounting pop_free_frame applied.
                        let page = self.layout.os_page_of_frame(f as u64) as usize;
                        inner.os_pages[page].used_frames -= 1;
                        skipped.push(f);
                    } else {
                        break Some(f);
                    }
                }
                None => break None,
            }
        };
        inner.free_frames.extend(skipped);
        let f = picked.ok_or(PoolError::OutOfMemory {
            requested: FRAME_BYTES,
        })?;
        inner.frames[f as usize].kind = FrameKind::Destination;
        Ok(f as u64)
    }

    /// Decommits committed OS pages with no used frames, returning how many
    /// were released. The baseline allocator never calls this; the
    /// defragmenter does at each summary (empty pages are free wins).
    pub fn decommit_empty_pages(&self) -> u64 {
        let mut inner = self.inner.lock();
        let mut released = 0;
        for p in inner.os_pages.iter_mut() {
            if p.committed && p.used_frames == 0 {
                p.committed = false;
                released += 1;
            }
        }
        inner.committed_pages -= released;
        released
    }

    /// Whether OS page `page` is currently committed.
    pub fn page_committed(&self, page: u64) -> bool {
        self.inner.lock().os_pages[page as usize].committed
    }

    /// Reserves `n` slots at `slot` in destination frame `frame` for an
    /// incoming object of `bytes` total bytes, persisting the bitmap record.
    /// Called by the GC summary phase (deterministic relocation).
    pub fn reserve_destination_slots(
        &self,
        ctx: &mut Ctx,
        frame: u64,
        slot: usize,
        n: usize,
        bytes: u32,
    ) {
        let _stripe = self.stripe(frame as u32).lock();
        let rec = {
            let mut inner = self.inner.lock();
            let st = &mut inner.frames[frame as usize];
            debug_assert_eq!(st.kind, FrameKind::Destination);
            st.mark_allocated(slot, n, bytes);
            // mark_allocated flips Free→Active; keep Destination.
            st.kind = FrameKind::Destination;
            st.to_record()
        };
        self.write_bitmap_record(ctx, frame as u32, &rec);
    }

    /// Converts a destination frame into a normal active frame once the GC
    /// cycle completes. Destination frames mix size classes, so they are
    /// not refilled by the allocator — their leftover slots return only
    /// when the frame empties (consolidation waste, as in real allocators).
    pub fn finish_destination_frame(&self, frame: u64) {
        let mut inner = self.inner.lock();
        let st = &mut inner.frames[frame as usize];
        debug_assert_eq!(st.kind, FrameKind::Destination);
        st.kind = FrameKind::Active;
        st.class = None;
    }

    /// Marks a relocation frame fully evacuated (§5: `pmalloc`/`pfree`
    /// periodically release pages whose objects have all relocated): the
    /// frame stops counting toward the footprint immediately — its OS page
    /// decommits once every frame on it is evacuated or free — but it is
    /// *not* reusable until [`PmPool::release_frame`] at cycle termination,
    /// because stale references into it are still being forwarded.
    pub fn evacuate_frame(&self, frame: u64) {
        let mut inner = self.inner.lock();
        if inner.frames[frame as usize].evacuated {
            return;
        }
        inner.frames[frame as usize].evacuated = true;
        let page = self.layout.os_page_of_frame(frame) as usize;
        inner.os_pages[page].used_frames -= 1;
        if inner.os_pages[page].used_frames == 0 && inner.os_pages[page].committed {
            inner.os_pages[page].committed = false;
            inner.committed_pages -= 1;
        }
    }

    /// Releases a fully-evacuated relocation frame: clears its bitmap,
    /// returns it to the free list, and — unlike the baseline allocator —
    /// *decommits* its OS page when the page holds no used frames, shrinking
    /// the footprint. Returns the per-frame live bytes that were dropped.
    pub fn release_frame(&self, ctx: &mut Ctx, frame: u64) {
        let _stripe = self.stripe(frame as u32).lock();
        {
            let mut inner = self.inner.lock();
            let st = &mut inner.frames[frame as usize];
            // Note: global live bytes are untouched — the frame's objects
            // were *moved*, not freed; they are still live at their
            // destinations.
            let already_evacuated = st.evacuated;
            let was = std::mem::replace(&mut st.kind, FrameKind::Free);
            st.alloc = [0; 4];
            st.start = [0; 4];
            st.free_slots = SLOTS_PER_FRAME as u16;
            st.live_bytes = 0;
            st.evacuated = false;
            st.class = None;
            // Purge stale allocator references (the frame may have been an
            // ordinary Active frame, as under Mesh/STW compaction).
            inner.purge(frame as u32, was);
            inner.free_frames.push(frame as u32);
            if !already_evacuated {
                let page = self.layout.os_page_of_frame(frame) as usize;
                inner.os_pages[page].used_frames -= 1;
                if inner.os_pages[page].used_frames == 0 && inner.os_pages[page].committed {
                    inner.os_pages[page].committed = false;
                    inner.committed_pages -= 1;
                }
            }
        }
        let rec = [0u8; 64];
        self.write_bitmap_record(ctx, frame as u32, &rec);
    }

    // ---- fragmentation metrics ---------------------------------------------------

    /// Current statistics (the paper's fragR metric).
    pub fn stats(&self) -> PoolStats {
        let (live, pages) = {
            let inner = self.inner.lock();
            (inner.live_bytes, inner.committed_pages)
        };
        let footprint = pages * self.layout.os_page_size;
        PoolStats {
            live_bytes: live,
            footprint_bytes: footprint,
            committed_pages: pages,
            frag_ratio: if live == 0 {
                1.0
            } else {
                footprint as f64 / live as f64
            },
        }
    }

    /// Test oracle for the free list: it must hold each of its frames once,
    /// and only `Free` ones — what lets [`AllocInner::purge`] skip it for
    /// every other kind.
    ///
    /// # Errors
    ///
    /// Names the first duplicate or non-`Free` frame on the free list.
    pub fn check_free_list(&self) -> Result<(), String> {
        let inner = self.inner.lock();
        let mut listed = std::collections::HashSet::new();
        for &f in &inner.free_frames {
            let kind = inner.frames[f as usize].kind;
            if kind != FrameKind::Free {
                return Err(format!("{kind:?} frame {f} is on the free list"));
            }
            if !listed.insert(f) {
                return Err(format!("frame {f} is on the free list twice"));
            }
        }
        Ok(())
    }
}

/// Validation helper: dumps every live object in the pool (direct reads).
pub fn peek_all_objects(pool: &PmPool) -> Vec<FrameObject> {
    let mut out = Vec::new();
    for f in 0..pool.layout().num_frames {
        let st = pool.frame_state(f);
        if st.kind == FrameKind::Active || st.kind == FrameKind::Huge {
            out.extend(pool.peek_frame_objects(f));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TypeDesc;
    use std::collections::HashSet;

    fn test_pool() -> (PmPool, Ctx, TypeId) {
        let mut reg = TypeRegistry::new();
        let t = reg.register(TypeDesc::new("node", 128, &[0]));
        let pool = PmPool::create(PoolConfig::small_for_tests(), reg).expect("create");
        let ctx = Ctx::new(pool.machine());
        (pool, ctx, t)
    }

    #[test]
    fn alloc_write_read_free() {
        let (pool, mut ctx, t) = test_pool();
        let p = pool.pmalloc(&mut ctx, t, 128).expect("alloc");
        pool.write_u64(&mut ctx, p, 0, 7);
        pool.write_u64(&mut ctx, p, 120, 9);
        assert_eq!(pool.read_u64(&mut ctx, p, 0), 7);
        assert_eq!(pool.read_u64(&mut ctx, p, 120), 9);
        let (ty, size) = pool.object_header(&mut ctx, p);
        assert_eq!(ty, t);
        assert_eq!(size, 128);
        pool.pfree(&mut ctx, p).expect("free");
    }

    /// The free-running interleaving, forced step by step: thread A picks a
    /// bump slot in its active frame, thread B frees the frame's last
    /// object (the frame empties onto the free list), then A commits. The
    /// commit must lose, or an in-use frame sits on the free list for the
    /// next allocator or GC destination to take.
    #[test]
    fn a_pick_whose_frame_emptied_meanwhile_does_not_commit() {
        let (pool, mut a, t) = test_pool();
        let x = pool.pmalloc(&mut a, t, 128).expect("alloc");
        let (frame, _) = pool.locate(x).expect("locate");
        let n = PmPool::slots_for(128);
        let (picked, slot) = pool.pick_slot(a.arena(), n, 128).expect("pick");
        assert_eq!(picked, frame, "bump slot in the active frame");

        let mut b = Ctx::new(pool.machine());
        b.set_arena(1);
        pool.pfree(&mut b, x).expect("free the frame's last object");
        assert_eq!(pool.frame_state(frame as u64).kind, FrameKind::Free);

        assert!(
            !pool.commit_alloc(&mut a, frame, slot, n, t, 128),
            "the frame left the arena's hands"
        );
        pool.check_free_list().unwrap();
        let y = pool.pmalloc(&mut a, t, 128).expect("re-pick");
        pool.check_free_list().unwrap();
        assert_eq!(pool.object_header(&mut a, y), (t, 128));
    }

    /// The other way a picked frame reaches the free list: a huge
    /// allocation takes the fresh frame an arena just picked (it is still
    /// `Free`), and the huge object is freed before that arena allocates
    /// again. The arena's claim must not outlive the huge object.
    #[test]
    fn a_fresh_pick_taken_by_a_huge_allocation_is_dropped_on_its_free() {
        let (pool, mut a, t) = test_pool();
        let n = PmPool::slots_for(128);
        let (frame, slot) = pool.pick_slot(a.arena(), n, 128).expect("pick");
        let mut b = Ctx::new(pool.machine());
        b.set_arena(1);
        let huge = pool.pmalloc(&mut b, t, FRAME_BYTES).expect("huge alloc");
        assert_eq!(pool.locate(huge).expect("locate").0, frame, "took the pick");
        assert!(!pool.commit_alloc(&mut a, frame, slot, n, t, 128));
        pool.pfree(&mut b, huge).expect("huge free");
        pool.check_free_list().unwrap();
        pool.pmalloc(&mut a, t, 128).expect("re-pick");
        pool.check_free_list().unwrap();
    }

    #[test]
    fn retire_arena_returns_orphan_frames_to_service() {
        let (pool, mut ctx, t) = test_pool();
        // Arena 7 (a "dead thread's" arena) claims an active bump frame.
        ctx.set_arena(7);
        let p = pool.pmalloc(&mut ctx, t, 128).expect("orphan alloc");
        let (frame, _) = pool.locate(p).expect("locate");
        {
            let inner = pool.inner.lock();
            assert!(
                inner.active.values().any(|&f| f == frame),
                "frame is the orphan arena's active frame"
            );
        }
        pool.retire_arena(7);
        {
            let inner = pool.inner.lock();
            assert!(
                !inner.active.values().any(|&f| f == frame),
                "retired arena holds no active frames"
            );
            assert!(
                inner.partial.values().any(|v| v.contains(&frame)),
                "orphan's partially-used frame is back on the partial list"
            );
        }
        // Another arena can now bump-allocate straight out of it.
        ctx.set_arena(0);
        let q = pool.pmalloc(&mut ctx, t, 128).expect("survivor alloc");
        let (frame2, _) = pool.locate(q).expect("locate");
        assert_eq!(frame2, frame, "survivor reuses the orphan's frame");
        // Retiring an arena with nothing claimed (or twice) is a no-op.
        pool.retire_arena(7);
        pool.retire_arena(99);
    }

    #[test]
    fn retire_arena_after_full_free_is_a_noop() {
        let (pool, mut ctx, t) = test_pool();
        let free_before = pool.inner.lock().free_frames.len();
        // Freeing the arena's only object already purges the frame from
        // the active map (pfree's fully-freed transition); retiring the
        // arena afterwards must change nothing.
        ctx.set_arena(5);
        let p = pool.pmalloc(&mut ctx, t, 128).expect("alloc");
        pool.pfree(&mut ctx, p).expect("free");
        pool.retire_arena(5);
        let inner = pool.inner.lock();
        assert!(!inner.active.keys().any(|(a, _)| *a == 5));
        assert_eq!(inner.free_frames.len(), free_before);
    }

    #[test]
    fn double_free_rejected() {
        let (pool, mut ctx, t) = test_pool();
        let p = pool.pmalloc(&mut ctx, t, 128).expect("alloc");
        pool.pfree(&mut ctx, p).expect("first free");
        assert!(matches!(
            pool.pfree(&mut ctx, p),
            Err(PoolError::InvalidPointer { .. })
        ));
    }

    #[test]
    fn null_and_garbage_pointers_rejected() {
        let (pool, mut ctx, _) = test_pool();
        assert!(pool.pfree(&mut ctx, PmPtr::NULL).is_err());
        assert!(pool.pfree(&mut ctx, PmPtr::new(1, 4)).is_err());
    }

    #[test]
    fn distinct_objects_do_not_alias() {
        let (pool, mut ctx, t) = test_pool();
        let a = pool.pmalloc(&mut ctx, t, 128).expect("a");
        let b = pool.pmalloc(&mut ctx, t, 128).expect("b");
        assert_ne!(a, b);
        pool.write_u64(&mut ctx, a, 0, 1);
        pool.write_u64(&mut ctx, b, 0, 2);
        assert_eq!(pool.read_u64(&mut ctx, a, 0), 1);
        assert_eq!(pool.read_u64(&mut ctx, b, 0), 2);
    }

    #[test]
    fn objects_never_span_frames() {
        let (pool, mut ctx, t) = test_pool();
        for _ in 0..200 {
            let p = pool.pmalloc(&mut ctx, t, 120).expect("alloc");
            let start = p.offset() - OBJ_HEADER_BYTES;
            let end = p.offset() + 120;
            assert_eq!(
                pool.layout().frame_of(start),
                pool.layout().frame_of(end - 1),
                "object must stay inside one 4 KiB frame"
            );
        }
    }

    #[test]
    fn footprint_grows_and_baseline_never_decommits() {
        let (pool, mut ctx, t) = test_pool();
        let mut ptrs = Vec::new();
        for _ in 0..300 {
            ptrs.push(pool.pmalloc(&mut ctx, t, 128).expect("alloc"));
        }
        let grown = pool.stats();
        assert!(grown.committed_pages >= 10);
        for p in ptrs {
            pool.pfree(&mut ctx, p).expect("free");
        }
        let after = pool.stats();
        assert_eq!(after.live_bytes, 0);
        assert_eq!(
            after.committed_pages, grown.committed_pages,
            "baseline allocator keeps pages committed after frees"
        );
    }

    #[test]
    fn frag_ratio_reflects_holes() {
        let (pool, mut ctx, t) = test_pool();
        let mut ptrs = Vec::new();
        for _ in 0..280 {
            ptrs.push(pool.pmalloc(&mut ctx, t, 128).expect("alloc"));
        }
        let before = pool.stats().frag_ratio;
        // Free 3 of every 4 objects: live drops, footprint stays.
        for (i, p) in ptrs.iter().enumerate() {
            if i % 4 != 0 {
                pool.pfree(&mut ctx, *p).expect("free");
            }
        }
        let after = pool.stats().frag_ratio;
        assert!(
            after > before * 2.0,
            "fragmentation must jump after scattered frees: {before} -> {after}"
        );
    }

    #[test]
    fn freed_space_is_reused() {
        let (pool, mut ctx, t) = test_pool();
        let mut ptrs = Vec::new();
        for _ in 0..280 {
            ptrs.push(pool.pmalloc(&mut ctx, t, 128).expect("alloc"));
        }
        let pages_before = pool.stats().committed_pages;
        for p in ptrs.drain(..) {
            pool.pfree(&mut ctx, p).expect("free");
        }
        for _ in 0..280 {
            ptrs.push(pool.pmalloc(&mut ctx, t, 128).expect("alloc"));
        }
        let pages_after = pool.stats().committed_pages;
        assert_eq!(
            pages_before, pages_after,
            "allocator must reuse freed frames instead of growing"
        );
    }

    #[test]
    fn huge_allocation_roundtrip() {
        let (pool, mut ctx, t) = test_pool();
        let p = pool.pmalloc(&mut ctx, t, 10_000).expect("huge alloc");
        pool.write_u64(&mut ctx, p, 9_992, 0x55);
        assert_eq!(pool.read_u64(&mut ctx, p, 9_992), 0x55);
        let live = pool.stats().live_bytes;
        assert!(live >= 10_000);
        pool.pfree(&mut ctx, p).expect("huge free");
        assert_eq!(pool.stats().live_bytes, 0);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut reg = TypeRegistry::new();
        let t = reg.register(TypeDesc::new("blob", 0, &[]));
        let pool = PmPool::create(
            PoolConfig {
                data_bytes: 16 << 10,
                ..PoolConfig::small_for_tests()
            },
            reg,
        )
        .expect("create");
        let mut ctx = Ctx::new(pool.machine());
        let mut got_oom = false;
        for _ in 0..100 {
            match pool.pmalloc(&mut ctx, t, 1024) {
                Ok(_) => {}
                Err(PoolError::OutOfMemory { .. }) => {
                    got_oom = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(got_oom);
    }

    #[test]
    fn root_roundtrip_persists() {
        let (pool, mut ctx, t) = test_pool();
        let p = pool.pmalloc(&mut ctx, t, 128).expect("alloc");
        pool.set_root(&mut ctx, p);
        assert_eq!(pool.root(&mut ctx), p);
        let img = pool.engine().crash_image();
        assert_eq!(img.media().read_u64(HDR_ROOT), p.raw());
    }

    #[test]
    fn reopen_rebuilds_allocator_state() {
        let mut reg = TypeRegistry::new();
        let t = reg.register(TypeDesc::new("node", 128, &[0]));
        let pool = PmPool::create(PoolConfig::small_for_tests(), reg.clone()).expect("create");
        let mut ctx = Ctx::new(pool.machine());
        let mut ptrs = Vec::new();
        for i in 0..50u64 {
            let p = pool.pmalloc(&mut ctx, t, 128).expect("alloc");
            pool.write_u64(&mut ctx, p, 0, i);
            pool.persist(&mut ctx, p, 0, 8);
            ptrs.push(p);
        }
        pool.pfree(&mut ctx, ptrs[10]).expect("free");
        pool.set_root(&mut ctx, ptrs[0]);
        let stats_before = pool.stats();

        let img = pool.engine().crash_image();
        let pool2 = PmPool::open(img.restart(), reg).expect("open");
        let mut ctx2 = Ctx::new(pool2.machine());
        let stats_after = pool2.stats();
        assert_eq!(stats_after.live_bytes, stats_before.live_bytes);
        assert_eq!(pool2.root(&mut ctx2), ptrs[0]);
        // Data persisted before the crash is readable.
        assert_eq!(pool2.read_u64(&mut ctx2, ptrs[5], 0), 5);
        // Freed slot is reusable: allocate and verify no overlap with live.
        let fresh = pool2.pmalloc(&mut ctx2, t, 128).expect("realloc");
        assert!(ptrs.iter().all(|&p| p == ptrs[10] || p != fresh));
    }

    #[test]
    fn reopen_rebuilds_huge_objects() {
        let mut reg = TypeRegistry::new();
        let t = reg.register(TypeDesc::new("blob", 0, &[]));
        let pool = PmPool::create(PoolConfig::small_for_tests(), reg.clone()).expect("create");
        let mut ctx = Ctx::new(pool.machine());
        let p = pool.pmalloc(&mut ctx, t, 9000).expect("huge");
        pool.write_u64(&mut ctx, p, 0, 0xAB);
        pool.persist(&mut ctx, p, 0, 8);
        let live = pool.stats().live_bytes;
        let img = pool.engine().crash_image();
        let pool2 = PmPool::open(img.restart(), reg).expect("open");
        assert_eq!(pool2.stats().live_bytes, live);
        let mut ctx2 = Ctx::new(pool2.machine());
        assert_eq!(pool2.read_u64(&mut ctx2, p, 0), 0xAB);
        pool2.pfree(&mut ctx2, p).expect("free after reopen");
        assert_eq!(pool2.stats().live_bytes, 0);
    }

    #[test]
    fn destination_and_release_cycle() {
        let (pool, mut ctx, t) = test_pool();
        // Fill some frames.
        let mut ptrs = Vec::new();
        for _ in 0..100 {
            ptrs.push(pool.pmalloc(&mut ctx, t, 128).expect("alloc"));
        }
        let pages_full = pool.stats().committed_pages;
        let dest = pool.take_destination_frame(&HashSet::new()).expect("dest");
        pool.reserve_destination_slots(&mut ctx, dest, 0, 9, 144);
        assert_eq!(pool.frame_state(dest).kind, FrameKind::Destination);
        pool.finish_destination_frame(dest);
        assert_eq!(pool.frame_state(dest).kind, FrameKind::Active);
        // Release one of the full frames and verify footprint can drop.
        let frame = pool.layout().frame_of(ptrs[0].offset()).expect("frame");
        pool.set_frame_kind(frame, FrameKind::Relocation);
        pool.release_frame(&mut ctx, frame);
        assert_eq!(pool.frame_state(frame).kind, FrameKind::Free);
        let after = pool.stats().committed_pages;
        assert!(after <= pages_full + 1);
    }

    /// Every transition that purges — `pfree` emptying a frame, Active →
    /// Relocation, Relocation → Free and an aborted Destination → Free by
    /// `release_frame`, and a frame still *on* the list changing kind —
    /// leaves the free list holding only `Free` frames, once each (the
    /// audit), in the order it had: `purge` may skip the list only for
    /// frames that cannot be on it.
    #[test]
    fn purge_keeps_the_free_list_to_free_frames_in_order() {
        let (pool, mut ctx, t) = test_pool();
        let free_list = |pool: &PmPool| pool.inner.lock().free_frames.clone();
        let frame_of = |p: PmPtr| pool.layout().frame_of(p.offset()).expect("frame");
        let ptrs: Vec<PmPtr> = (0..100)
            .map(|_| pool.pmalloc(&mut ctx, t, 128).expect("alloc"))
            .collect();
        pool.check_free_list().unwrap();

        // pfree empties the first frame: Active → Free, listed last.
        let first = frame_of(ptrs[0]);
        let mut want = free_list(&pool);
        for &p in ptrs.iter().filter(|&&p| frame_of(p) == first) {
            pool.pfree(&mut ctx, p).expect("free");
        }
        want.push(first as u32);
        assert_eq!(free_list(&pool), want);
        pool.check_free_list().unwrap();

        // A populated frame goes Active → Relocation → Free.
        let reloc = frame_of(ptrs[99]);
        pool.set_frame_kind(reloc, FrameKind::Relocation);
        assert_eq!(free_list(&pool), want);
        pool.check_free_list().unwrap();
        pool.release_frame(&mut ctx, reloc);
        want.push(reloc as u32);
        assert_eq!(free_list(&pool), want);
        pool.check_free_list().unwrap();

        // A destination frame is popped, then released unfilled (an
        // aborted cycle): Destination → Free puts it back.
        let dest = pool.take_destination_frame(&HashSet::new()).expect("dest");
        assert_eq!(want.pop(), Some(dest as u32), "LIFO reuse");
        pool.reserve_destination_slots(&mut ctx, dest, 0, 9, 144);
        pool.check_free_list().unwrap();
        pool.release_frame(&mut ctx, dest);
        want.push(dest as u32);
        assert_eq!(free_list(&pool), want);
        pool.check_free_list().unwrap();

        // A frame that *is* listed leaves the list when its kind changes,
        // and its neighbours keep their order.
        let listed = want.remove(want.len() / 2);
        pool.set_frame_kind(listed as u64, FrameKind::Relocation);
        assert_eq!(free_list(&pool), want);
        pool.check_free_list().unwrap();
    }

    #[test]
    #[should_panic(expected = "is on the free list")]
    fn ownership_audit_rejects_a_listed_non_free_frame() {
        let (pool, mut ctx, t) = test_pool();
        let p = pool.pmalloc(&mut ctx, t, 128).expect("alloc");
        let frame = pool.layout().frame_of(p.offset()).expect("frame") as u32;
        pool.inner.lock().free_frames.push(frame);
        pool.check_free_list().unwrap();
    }

    #[test]
    fn va_mapping_roundtrip_and_relocatability() {
        let (pool, mut ctx, t) = test_pool();
        let p = pool.pmalloc(&mut ctx, t, 128).expect("alloc");
        let va = pool.va_of(p);
        assert_eq!(pool.ptr_of_va(va), p);
        pool.set_base(0x7000_0000_0000);
        let va2 = pool.va_of(p);
        assert_ne!(va, va2);
        assert_eq!(pool.ptr_of_va(va2), p);
    }

    #[test]
    fn frame_objects_enumeration() {
        let (pool, mut ctx, t) = test_pool();
        let a = pool.pmalloc(&mut ctx, t, 128).expect("a");
        let b = pool.pmalloc(&mut ctx, t, 128).expect("b");
        let frame = pool.layout().frame_of(a.offset()).expect("frame");
        let objs = pool.frame_objects(&mut ctx, frame);
        assert!(objs.iter().any(|o| o.ptr == a && o.size == 128));
        assert!(objs.iter().any(|o| o.ptr == b && o.size == 128));
        for o in &objs {
            assert_eq!(o.type_id, t);
        }
    }

    #[test]
    fn size_classes_segregate_frames() {
        // PMDK-style class segregation: a 128-byte object and a 64-byte
        // object land in different frames, and a hole freed in one class
        // is not refilled by the other class's allocations.
        let (pool, mut ctx, t) = test_pool();
        let big = pool.pmalloc(&mut ctx, t, 128).expect("big");
        let small = pool.pmalloc(&mut ctx, t, 64).expect("small");
        assert_ne!(
            pool.layout().frame_of(big.offset()),
            pool.layout().frame_of(small.offset()),
            "different classes must use different frames"
        );
        let big_frame = pool.layout().frame_of(big.offset()).expect("frame");
        pool.pfree(&mut ctx, big).expect("free");
        // A small allocation must not land in the vacated big-class frame.
        let small2 = pool.pmalloc(&mut ctx, t, 64).expect("small2");
        assert_ne!(pool.layout().frame_of(small2.offset()), Some(big_frame));
    }

    /// Two contexts in different arenas bump-allocate from different
    /// frames, so concurrent mutator threads do not fight over one active
    /// frame per size class.
    #[test]
    fn arenas_bump_in_distinct_frames() {
        let (pool, _ctx, t) = test_pool();
        let mut a = Ctx::new(pool.machine());
        let mut b = Ctx::new(pool.machine());
        b.set_arena(1);
        let pa = pool.pmalloc(&mut a, t, 128).expect("arena 0");
        let pb = pool.pmalloc(&mut b, t, 128).expect("arena 1");
        assert_ne!(
            pool.layout().frame_of(pa.offset()),
            pool.layout().frame_of(pb.offset()),
            "different arenas must use different active frames"
        );
        // Same arena keeps bumping in its own frame.
        let pa2 = pool.pmalloc(&mut a, t, 128).expect("arena 0 again");
        assert_eq!(
            pool.layout().frame_of(pa.offset()),
            pool.layout().frame_of(pa2.offset())
        );
    }

    /// Free-running allocator hammer: no turn-taking, every thread in its
    /// own arena, mixed alloc/free. The verify-and-reserve commit must
    /// never hand two threads overlapping slot runs (the old pick/commit
    /// split could: candidate selection and reservation were separate
    /// lock acquisitions), and the aggregate accounting must balance.
    #[test]
    fn concurrent_alloc_free_never_collides() {
        use std::collections::BTreeSet;
        use std::sync::Arc;

        let mut reg = TypeRegistry::new();
        let t = reg.register(TypeDesc::new("node", 128, &[0]));
        let pool = Arc::new(
            PmPool::create(
                PoolConfig {
                    data_bytes: 8 << 20,
                    ..PoolConfig::small_for_tests()
                },
                reg,
            )
            .expect("create"),
        );
        let threads = 4u32;
        let per = 400u64;
        let kept: Vec<Vec<(PmPtr, u64)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|tid| {
                    let pool = Arc::clone(&pool);
                    s.spawn(move || {
                        let mut ctx = Ctx::new(pool.machine());
                        ctx.set_arena(tid);
                        let mut mine: Vec<(PmPtr, u64)> = Vec::new();
                        for i in 0..per {
                            let tag = (tid as u64) << 32 | i;
                            let p = pool.pmalloc(&mut ctx, t, 128).expect("alloc");
                            pool.write_u64(&mut ctx, p, 0, tag);
                            mine.push((p, tag));
                            // Free an older object every third op to keep
                            // partial frames churning across threads.
                            if i % 3 == 2 {
                                let (q, _) = mine.swap_remove(mine.len() / 2);
                                pool.pfree(&mut ctx, q).expect("free");
                            }
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect()
        });
        // No two live objects alias, and every tag survived intact.
        let mut ctx = Ctx::new(pool.machine());
        let all: Vec<&(PmPtr, u64)> = kept.iter().flatten().collect();
        let distinct: BTreeSet<u64> = all.iter().map(|(p, _)| p.raw()).collect();
        assert_eq!(distinct.len(), all.len(), "allocations must not alias");
        for (p, tag) in &all {
            assert_eq!(pool.read_u64(&mut ctx, *p, 0), *tag, "payload intact");
        }
        let expected_live = all.len() as u64 * (128 + OBJ_HEADER_BYTES);
        assert_eq!(
            pool.stats().live_bytes,
            expected_live,
            "accounting balances"
        );
    }

    #[test]
    fn open_rejects_garbage_media() {
        let engine = PmEngine::new(MachineConfig::default(), 1 << 16);
        assert!(matches!(
            PmPool::open(engine, TypeRegistry::new()),
            Err(PoolError::BadPool { .. })
        ));
    }
}
