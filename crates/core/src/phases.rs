//! Defragmentation phases: marking, sweep, summary, compaction, termination
//! (paper §3.3.1 and §5).

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ffccd_arch::PmftEntry;
use ffccd_pmem::Ctx;
use ffccd_pmop::{FrameKind, PmPtr, FRAME_BYTES, OBJ_HEADER_BYTES, SLOT_BYTES};

use crate::heap::{CycleMirror, CycleState, DefragHeap};
use crate::walk::{walk_refs, MarkSet};

/// Compacting no more than this fraction of a page's capacity is worthwhile;
/// fuller pages cost more copies than the footprint they release.
const MAX_EVACUATION_OCCUPANCY: f64 = 0.9;

/// Most OS pages one cycle may evacuate. Destination frames commit at
/// summary but sources release only as they evacuate, so unbounded cycles
/// transiently double the footprint; smaller, re-triggered cycles keep the
/// transient small.
const MAX_PAGES_PER_CYCLE: usize = 256;

/// Phase-transition codes reported to the engine's crash-site tracker
/// (`PmEngine::note_phase_site`): each marks a durability-relevant GC state
/// change that a crash-site sweep wants to probe right after.
pub mod phase_sites {
    /// The stop-the-world mark/sweep/summary pass began.
    pub const STW_BEGIN: u64 = 0;
    /// A compaction cycle was armed (cycle header persisted, RBB/CLU on).
    pub const CYCLE_ARMED: u64 = 1;
    /// Termination (`finish_cycle`, §5) began.
    pub const TERMINATE_BEGIN: u64 = 2;
    /// Termination completed; the heap is idle again.
    pub const TERMINATE_END: u64 = 3;
}

impl DefragHeap {
    /// The monitor hook (§5): called from allocation sites; begins a
    /// defragmentation cycle when fragR exceeds the trigger ratio. Returns
    /// whether a cycle started.
    pub fn maybe_defrag(&self, ctx: &mut Ctx) -> bool {
        if self.in_cycle() || self.scheme() == crate::Scheme::Baseline {
            return false;
        }
        // Trigger hysteresis: let the application run between cycles, or a
        // falling live set re-relocates the same survivors continuously.
        let now = self.inner.op_counter.load(Ordering::Relaxed);
        let last = self.inner.last_cycle_start.load(Ordering::Relaxed);
        if last != 0 && now.saturating_sub(last) < self.inner.cfg.cooldown_ops {
            return false;
        }
        let st = self.pool().stats();
        if st.live_bytes < self.inner.cfg.min_live_bytes
            || st.frag_ratio < self.inner.cfg.trigger_ratio
        {
            return false;
        }
        self.defrag_now(ctx)
    }

    /// Unconditionally runs the stop-the-world phases (marking, sweep,
    /// summary) and arms a compaction cycle if anything is worth
    /// compacting. Returns `false` if no cycle started.
    pub fn defrag_now(&self, ctx: &mut Ctx) -> bool {
        if self.in_cycle() || self.scheme() == crate::Scheme::Baseline {
            return false;
        }
        let _w = self.stop_world();
        self.engine().note_phase_site(phase_sites::STW_BEGIN);
        let stats = &self.inner.stats;

        // -- marking: STW reachability from the roots (idempotent) --
        let t0 = ctx.cycles();
        let marked = walk_refs(
            ctx,
            self.engine(),
            self.inner.pool.registry(),
            self.inner.pool.layout(),
            |_, _, _| None,
        );
        stats.add_cycles(&stats.mark_cycles, ctx.cycles() - t0);

        // -- sweep: unreachable objects go back to the free lists --
        let t0 = ctx.cycles();
        self.sweep(ctx, &marked);
        stats.add_cycles(&stats.sweep_cycles, ctx.cycles() - t0);

        // -- summary: rank pages, pick the relocation set, build the PMFT --
        let t0 = ctx.cycles();
        // Empty committed pages are free wins.
        self.inner.pool.decommit_empty_pages();
        let started = self.summary(ctx);
        stats.add_cycles(&stats.summary_cycles, ctx.cycles() - t0);
        started
    }

    fn sweep(&self, ctx: &mut Ctx, marked: &MarkSet) {
        let pool = &self.inner.pool;
        let mut dead: Vec<PmPtr> = Vec::new();
        // Only payload pointers are needed: the start mask gives them, and
        // the simulated record read is charged per head frame as
        // `frame_objects` charges it.
        for (frame, st) in (0u64..).zip(pool.frame_states()) {
            let is_head =
                st.kind == FrameKind::Active || (st.kind == FrameKind::Huge && st.is_start(0));
            if !is_head {
                continue;
            }
            pool.touch_frame_record(ctx, frame);
            for slot in st.start_slots() {
                let ptr = pool.object_ptr(frame, slot);
                if !marked.contains(ptr.offset()) {
                    dead.push(ptr);
                }
            }
        }
        for ptr in dead {
            if pool.pfree(ctx, ptr).is_ok() {
                self.inner
                    .stats
                    .add_cycles(&self.inner.stats.objects_swept, 1);
            }
        }
    }

    /// The summary phase (§5): per-page fragmentation ranking, top-k
    /// selection toward the target ratio, deterministic destination
    /// assignment, PMFT persistence, hardware arming. Caller holds the
    /// world write lock.
    fn summary(&self, ctx: &mut Ctx) -> bool {
        let inner = &*self.inner;
        let pool = &inner.pool;
        let layout = *pool.layout();
        let fpp = layout.frames_per_os_page();

        // Candidate pages: committed, fully evacuable (only Free/Active
        // frames), sorted most-fragmented (least live) first.
        struct Cand {
            page: u64,
            live: u64,
            frames: Vec<u64>,
        }
        let mut cands: Vec<Cand> = Vec::new();
        let states = pool.frame_states();
        for page in 0..layout.num_os_pages() {
            if !pool.page_committed(page) {
                continue;
            }
            let mut frames = Vec::new();
            let mut live = 0u64;
            let mut evacuable = true;
            for f in page * fpp..(page + 1) * fpp {
                let st = &states[f as usize];
                match st.kind {
                    FrameKind::Free => {}
                    FrameKind::Active => {
                        // Line-aligned destinations inflate slot needs by up
                        // to a third; a frame whose objects cannot fit one
                        // destination frame cannot honor the single-major-
                        // distance PMFT entry, so its page stays put.
                        // Extents come from the masks (no header reads);
                        // the record read is charged as `frame_objects`
                        // charges it.
                        pool.touch_frame_record(ctx, f);
                        let needed: usize = st
                            .object_extents()
                            .map(|(_, slots)| slots.div_ceil(4) * 4)
                            .sum();
                        if needed > Self::SLOTS_PER_FRAME {
                            evacuable = false;
                            break;
                        }
                        live += st.live_bytes as u64;
                        frames.push(f);
                    }
                    _ => {
                        evacuable = false;
                        break;
                    }
                }
            }
            if evacuable && !frames.is_empty() {
                cands.push(Cand { page, live, frames });
            }
        }
        cands.sort_by_key(|c| c.live);

        let pool_stats = pool.stats();
        let footprint = pool_stats.footprint_bytes;
        let live_total = pool_stats.live_bytes.max(1);
        let mut selected: Vec<Cand> = Vec::new();
        let mut sel_slots: u64 = 0; // estimated destination slots needed
        for c in cands {
            if selected.len() >= MAX_PAGES_PER_CYCLE {
                break;
            }
            // Projection includes the pages new destination frames commit:
            // releasing k pages only helps net of where their objects land.
            let dest_frames = sel_slots.div_ceil(256);
            let dest_pages = dest_frames.div_ceil(fpp);
            let projected = (footprint + dest_pages * layout.os_page_size
                - selected.len() as u64 * layout.os_page_size) as f64
                / live_total as f64;
            if projected <= inner.cfg.target_ratio {
                break;
            }
            if c.live as f64 / layout.os_page_size as f64 > MAX_EVACUATION_OCCUPANCY {
                break; // remaining pages are even fuller (sorted)
            }
            // ~1.5× covers per-object slot rounding plus line alignment.
            sel_slots += c.live.div_ceil(SLOT_BYTES) * 3 / 2;
            selected.push(c);
        }
        if selected.is_empty() {
            return false;
        }
        let avoid: HashSet<u64> = selected.iter().map(|c| c.page).collect();

        // Deterministic destination assignment + PMFT build.
        let engine = self.engine();
        let mut reloc_frames = Vec::new();
        let mut dest_frames: Vec<u64> = Vec::new();
        // (frame, entry, object count) triples feeding the cycle mirror.
        let mut mirror_items: Vec<(u64, PmftEntry, usize)> = Vec::new();
        let mut pending: VecDeque<(u64, usize)> = VecDeque::new();
        let mut cur_dest: Option<(u64, usize)> = None;
        'pages: for c in &selected {
            for &frame in &c.frames {
                let objs = pool.frame_objects(ctx, frame);
                if objs.is_empty() {
                    continue;
                }
                // Destinations are cacheline-aligned so no two objects share
                // a destination line: the reached bitmap is per-line, and a
                // shared line evicted by one object's copy would wrongly
                // mark its neighbour "reached" (see DESIGN.md).
                let needed: usize = objs.iter().map(|o| o.slots.div_ceil(4) * 4).sum();
                // One relocation frame maps to exactly one destination frame
                // (single major distance per PMFT entry, §4.3.1).
                let dest_ok = cur_dest
                    .map(|(_, next)| Self::SLOTS_PER_FRAME - next >= needed)
                    .unwrap_or(false);
                if !dest_ok {
                    match pool.take_destination_frame(&avoid) {
                        Ok(d) => {
                            // Fresh reached word for the new destination.
                            engine.write_u64(ctx, inner.meta.reached_word(d), 0);
                            engine.persist(ctx, inner.meta.reached_word(d), 8);
                            dest_frames.push(d);
                            cur_dest = Some((d, 0));
                        }
                        Err(_) => break 'pages, // pool exhausted: compact what we have
                    }
                }
                let (dframe, mut next_slot) = cur_dest.expect("destination frame just ensured");
                let mut entry = PmftEntry::new(frame, dframe);
                // PMFT entry first, then reservations, then (much later) the
                // cycle header — so a pre-header crash can roll all of it back.
                for obj in &objs {
                    debug_assert!(next_slot % 4 == 0, "destinations stay line-aligned");
                    entry.map(obj.slot, next_slot as u8);
                    pending.push_back((frame, obj.slot));
                    next_slot += obj.slots.div_ceil(4) * 4;
                }
                inner.pmft.store(ctx, engine, &entry);
                for obj in &objs {
                    let dslot = entry.lookup(obj.slot).expect("just mapped") as usize;
                    assert!(
                        dslot + obj.slots <= Self::SLOTS_PER_FRAME,
                        "BUG: obj slot={} slots={} size={} dslot={dslot} needed={needed} frame={frame}",
                        obj.slot, obj.slots, obj.size
                    );
                    pool.reserve_destination_slots(
                        ctx,
                        dframe,
                        dslot,
                        obj.slots,
                        obj.size + OBJ_HEADER_BYTES as u32,
                    );
                }
                cur_dest = Some((dframe, next_slot));
                // Zero the moved bitmap; set the frag-page bit.
                engine.write(ctx, inner.meta.moved_bitmap(frame), &[0u8; 32]);
                engine.persist(ctx, inner.meta.moved_bitmap(frame), 32);
                let fb = inner.meta.fragmap_byte(frame);
                let byte = engine.read_u8(ctx, fb) | 1 << (frame % 8);
                engine.write(ctx, fb, &[byte]);
                engine.persist(ctx, fb, 1);
                pool.set_frame_kind(frame, FrameKind::Relocation);
                mirror_items.push((frame, entry, objs.len()));
                reloc_frames.push(frame);
            }
        }
        if reloc_frames.is_empty() {
            // Roll destinations back (nothing got mapped into them).
            for d in dest_frames {
                self.inner.pool.release_frame(ctx, d);
            }
            return false;
        }

        // Commit point: the persisted cycle header makes the cycle real.
        // The scheme code goes first: the two words share a line, so any
        // image holding state 1 also holds the code recovery checks.
        let hdr = inner.meta.cycle_header;
        engine.write_u64(ctx, hdr + 8, scheme_code(inner.cfg.scheme));
        engine.write_u64(ctx, hdr, 1);
        engine.persist(ctx, hdr, 16);

        // Arm the hardware: the RBB starts empty.
        if let Some(rbb) = &inner.rbb {
            rbb.invalidate();
            engine.set_observer(rbb.clone());
        }
        if let Some(clu) = &inner.clu {
            let entries: Vec<PmftEntry> = mirror_items.iter().map(|(_, e, _)| e.clone()).collect();
            clu.begin_cycle(engine, pool.base(), &entries, false);
        }
        // Mirror first, then cycle state, then the flag barrier paths key
        // on — so any thread seeing the cycle sees the mirror.
        *inner.mirror.write() = Some(Arc::new(CycleMirror::new(
            layout.num_frames as usize,
            mirror_items,
        )));
        *inner.cycle.lock() = Some(CycleState {
            reloc_frames,
            dest_frames,
            pending,
        });
        inner.in_cycle.store(true, Ordering::Release);
        inner.last_cycle_start.store(
            inner.op_counter.load(Ordering::Relaxed).max(1),
            Ordering::Relaxed,
        );
        engine.note_phase_site(phase_sites::CYCLE_ARMED);
        true
    }

    /// Relocates up to `budget` pending objects (the concurrent compaction
    /// driver's unit of work). Returns `true` while the cycle stays active;
    /// a drained queue terminates it.
    pub fn step_compaction(&self, ctx: &mut Ctx, budget: usize) -> bool {
        if !self.in_cycle() {
            return false;
        }
        let inner = &*self.inner;
        {
            let _g = self.enter_world();
            // Entry lookups come from the lock-free mirror snapshot; the
            // cycle mutex is held only to pop the work item.
            let Some(mirror) = self.mirror() else {
                return self.in_cycle();
            };
            for _ in 0..budget {
                let item = {
                    let mut guard = inner.cycle.lock();
                    let Some(cs) = guard.as_mut() else {
                        return self.in_cycle();
                    };
                    match cs.pending.pop_front() {
                        Some(it) => it,
                        None => break,
                    }
                };
                // Track the popped item until its relocation lands: a
                // pumper dying mid-copy (thread-crash fault model) must not
                // silently drop it — termination drains the leftovers.
                inner.inflight.lock().push(item);
                let (frame, slot) = item;
                let e = mirror.entry(frame).expect("entry for pending frame");
                let dslot = e.lookup(slot).expect("mapped slot");
                self.ensure_relocated(ctx, frame, slot, e.dest_frame, dslot, true);
                inner.inflight.lock().retain(|it| *it != item);
            }
        }
        let remaining = inner
            .cycle
            .lock()
            .as_ref()
            .map(|c| c.pending.len())
            .unwrap_or(0);
        if remaining == 0 {
            self.finish_cycle(ctx);
        }
        self.in_cycle()
    }

    /// `terminate()` (§5): finishes all pending relocation and reference
    /// updates, persists everything, releases the relocation frames and
    /// tears the cycle down. Stop-the-world, but runs once per cycle.
    pub fn finish_cycle(&self, ctx: &mut Ctx) {
        let inner = &*self.inner;
        if !self.in_cycle() {
            return;
        }
        let _w = self.stop_world();
        // Work from a *snapshot*: the shared cycle state and mirror stay
        // published until step 7. A terminator dying mid-teardown
        // (thread-crash fault model) then leaves a state the surviving
        // mutators' barriers keep working against and the next finisher
        // re-enters — every step below is idempotent, with host-side
        // frame-kind guards on the ones that are not (frame release,
        // destination conversion). Taking the state up front instead used
        // to orphan the cycle forever: `in_cycle` stayed set with the
        // state gone, so every later finish early-returned and the
        // persistent header/PMFT/frag residue outlived `exit()`.
        let Some(cs) = inner.cycle.lock().clone() else {
            return;
        };
        let mirror = self
            .mirror()
            .expect("mirror exists while a cycle is active");
        // Items popped from `pending` by pumpers that died mid-relocation.
        let leftover: Vec<(u64, usize)> = inner.inflight.lock().clone();
        let engine = self.engine();
        engine.note_phase_site(phase_sites::TERMINATE_BEGIN);
        let layout = *inner.pool.layout();
        let hdr = inner.meta.cycle_header;

        // 1. finish pending relocations (progressive release off — see
        //    `ensure_relocated`), plus any item a dead
        //    pumper popped but never finished. The frame-kind guard skips
        //    frames a previous, interrupted finisher already released.
        for &(frame, slot) in cs.pending.iter().chain(leftover.iter()) {
            if inner.pool.frame_state(frame).kind != FrameKind::Relocation {
                continue;
            }
            let e = mirror.entry(frame).expect("entry for pending frame");
            let d = e.lookup(slot).expect("mapped slot");
            self.ensure_relocated(ctx, frame, slot, e.dest_frame, d, false);
        }

        // 2. durability: destination data and moved bits must be in PM
        //    before any relocation frame is reused (termination is rare, so
        //    fencing here is cheap in aggregate).
        for &d in &cs.dest_frames {
            engine.persist(ctx, layout.frame_start(d), FRAME_BYTES);
        }
        for &f in &cs.reloc_frames {
            engine.persist(ctx, inner.meta.moved_bitmap(f), 32);
        }

        // 3. reference fixup rescan: no reference may keep pointing into
        //    the relocation frames, and every barrier-updated reference
        //    must be durable before the PMFT entries disappear.
        let t0 = ctx.cycles();
        // Only frames still in Relocation kind get their references
        // rewritten: on re-entry after an interrupted teardown, a released
        // frame may already hold fresh allocations whose references must
        // not be redirected through the stale mapping. Roles are indexed
        // by frame, so each visited reference costs one array read.
        let mut roles = vec![FixupRole::None; layout.num_frames as usize];
        for &d in &cs.dest_frames {
            roles[d as usize] = FixupRole::Destination;
        }
        for &f in &cs.reloc_frames {
            if inner.pool.frame_state(f).kind == FrameKind::Relocation {
                roles[f as usize] = FixupRole::Relocation;
            }
        }
        {
            let engine2 = engine.clone();
            let entries = &mirror;
            let me = self.clone();
            walk_refs(
                ctx,
                engine,
                inner.pool.registry(),
                &layout,
                move |ctx, slot_off, target| {
                    if target.is_null() {
                        return None;
                    }
                    let hdr_off = target.offset() - OBJ_HEADER_BYTES;
                    let frame = layout.frame_of(hdr_off)?;
                    let slot = ((hdr_off - layout.frame_start(frame)) / SLOT_BYTES) as usize;
                    match roles[frame as usize] {
                        FixupRole::Relocation => {
                            let e = entries.entry(frame)?;
                            let d = e.lookup(slot)?;
                            let new = me.dest_ptr(e, d);
                            engine2.write_u64(ctx, slot_off, new.raw());
                            engine2.clwb(ctx, slot_off);
                            Some(new)
                        }
                        FixupRole::Destination => {
                            engine2.clwb(ctx, slot_off);
                            None
                        }
                        FixupRole::None => None,
                    }
                },
            );
        }
        engine.sfence(ctx);
        inner
            .stats
            .add_cycles(&inner.stats.ref_fixup_cycles, ctx.cycles() - t0);

        // 3b. commit point: all destination data and reference rewrites are
        //     durable, so advance the cycle header to state 2 ("fixup
        //     durable, teardown in progress"). Past this point recovery must
        //     only *complete* the teardown — frames released below lose
        //     their PMFT entries, and a state-1-style re-copy would
        //     resurrect pre-fixup references into freed frames.
        engine.write_u64(ctx, hdr, 2);
        engine.persist(ctx, hdr, 8);

        // 4. per-frame teardown: frag bit, the frame itself, then the PMFT
        //    entry — the entry goes last so state-2 recovery can finish any
        //    frame whose teardown was interrupted. The kind guard makes the
        //    release single-shot across re-entries (releasing a frame twice
        //    would double-insert it into the free list).
        for &f in &cs.reloc_frames {
            let fb = inner.meta.fragmap_byte(f);
            let byte = engine.read_u8(ctx, fb) & !(1 << (f % 8));
            engine.write(ctx, fb, &[byte]);
            engine.persist(ctx, fb, 1);
            if inner.pool.frame_state(f).kind == FrameKind::Relocation {
                inner.pool.release_frame(ctx, f);
                inner.stats.add_cycles(&inner.stats.frames_released, 1);
            }
            inner.pmft.clear(ctx, engine, f);
        }

        // 5. destinations become ordinary frames (single-shot, kind-
        //    guarded); reached words reset.
        for &d in &cs.dest_frames {
            if inner.pool.frame_state(d).kind == FrameKind::Destination {
                inner.pool.finish_destination_frame(d);
            }
            engine.write_u64(ctx, inner.meta.reached_word(d), 0);
            engine.persist(ctx, inner.meta.reached_word(d), 8);
        }

        // 6. cycle header back to idle.
        engine.write_u64(ctx, hdr, 0);
        engine.persist(ctx, hdr, 8);

        // 7. disarm hardware.
        if let Some(rbb) = &inner.rbb {
            engine.clear_observer();
            rbb.invalidate();
        }
        if let Some(clu) = &inner.clu {
            clu.end_cycle();
        }
        // Teardown is fully durable: only now does the shared volatile
        // state come down (mirror and cycle first, then the flag the
        // barrier paths key on).
        *inner.cycle.lock() = None;
        *inner.mirror.write() = None;
        inner.inflight.lock().clear();
        inner.in_cycle.store(false, Ordering::Release);
        inner.stats.add_cycles(&inner.stats.cycles_completed, 1);
        engine.note_phase_site(phase_sites::TERMINATE_END);
    }

    /// Live-heap mirror of recovery's summary rollback: rolls back
    /// *persistent* cycle residue (PMFT entries, frag bits, cycle header)
    /// or pool frame roles (Relocation/Destination) that survived with no
    /// volatile cycle behind them. That state is orphaned when a thread
    /// dies inside the summary phase (thread-crash fault model) before the
    /// volatile arm at the end of `summary`: machine-crash recovery would
    /// roll it back at reopen ("a pre-header crash can roll all of it
    /// back"), but the *live* heap would otherwise leak the frames and
    /// fail validation. Detection uses uncharged host peeks only, so a
    /// clean exit leaves the simulated op stream untouched.
    fn heal_orphaned_summaries(&self, ctx: &mut Ctx) {
        let inner = &*self.inner;
        let engine = self.engine();
        if self.in_cycle() {
            return;
        }
        let entries = inner.pmft.load_all(engine);
        let hdr = inner.meta.cycle_header;
        let hdr_state = engine.with_media(|m| m.read_u64(hdr));
        // Frames still parked in a GC role with no cycle to back them (a
        // partially-assembled summary may take a destination frame before
        // storing any entry against it).
        let stray: Vec<u64> = (0u64..)
            .zip(inner.pool.frame_states())
            .filter(|(_, st)| matches!(st.kind, FrameKind::Relocation | FrameKind::Destination))
            .map(|(f, _)| f)
            .collect();
        if hdr_state == 0 && entries.is_empty() && stray.is_empty() {
            return;
        }
        let _w = self.stop_world();
        for e in &entries {
            // Frag bit first, PMFT entry last — `rollback_summary`'s
            // order, keeping the rollback itself re-runnable.
            let fb = inner.meta.fragmap_byte(e.reloc_frame);
            let byte = engine.read_u8(ctx, fb) & !(1 << (e.reloc_frame % 8));
            engine.write(ctx, fb, &[byte]);
            engine.persist(ctx, fb, 1);
            inner.pmft.clear(ctx, engine, e.reloc_frame);
        }
        for &f in &stray {
            match inner.pool.frame_state(f).kind {
                // Never armed: the objects still live at the source.
                FrameKind::Relocation => inner.pool.set_frame_kind(f, FrameKind::Active),
                // Any persisted reservations vacate with the frame.
                FrameKind::Destination => inner.pool.release_frame(ctx, f),
                _ => {}
            }
        }
        if hdr_state != 0 {
            engine.write_u64(ctx, hdr, 0);
            engine.persist(ctx, hdr, 16);
        }
    }

    /// `exit()` (§5): finishes any ongoing defragmentation, rolls back any
    /// summary-phase residue orphaned by a dead thread, and releases all
    /// related metadata.
    pub fn exit(&self, ctx: &mut Ctx) {
        self.finish_cycle(ctx);
        self.heal_orphaned_summaries(ctx);
    }
}

/// What termination's reference-fixup walk does with a reference into a
/// frame.
#[derive(Clone, Copy)]
enum FixupRole {
    None,
    /// A relocation frame still in that role: rewrite through the PMFT.
    Relocation,
    /// A destination frame: flush the (barrier-updated) reference.
    Destination,
}

/// Persistent code identifying the scheme in the cycle header; recovery
/// refuses a cycle whose code is not its own scheme's.
pub(crate) fn scheme_code(s: crate::Scheme) -> u64 {
    match s {
        crate::Scheme::Baseline => 0,
        crate::Scheme::Espresso => 1,
        crate::Scheme::Sfccd => 2,
        crate::Scheme::FfccdFenceFree => 3,
        crate::Scheme::FfccdCheckLookup => 4,
    }
}
