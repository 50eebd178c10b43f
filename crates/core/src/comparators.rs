//! Comparator defragmenters for the Redis case study (paper §7.4):
//!
//! * [`DefragHeap::mesh_compact`] — Mesh (Powers et al., PLDI'19): merge
//!   pairs of pages whose live objects occupy *non-overlapping offsets*.
//!   Mesh never needs a forwarding table, but it can only reclaim what
//!   offset-disjoint pairs exist — the paper measures 47.6 % reduction on
//!   Redis vs FFCCD's 73.4 %.
//! * [`DefragHeap::stw_compact`] — a stop-the-world compactor in the spirit
//!   of jemalloc-style defragmentation: everything moves in one pause.
//!   Cheap and thorough, but the pause is the product (§7.4's
//!   order-of-magnitude tail-latency gap).
//!
//! Both run stop-the-world and return the pause length in simulated cycles;
//! neither interacts with the FFCCD cycle machinery (call them only on a
//! [`crate::Scheme::Baseline`] heap with no cycle in flight).

use std::collections::{BTreeMap, HashMap};

use ffccd_pmem::Ctx;
use ffccd_pmop::{FrameKind, PmPtr, OBJ_HEADER_BYTES, SLOT_BYTES};

use crate::heap::DefragHeap;
use crate::walk::walk_refs;

impl DefragHeap {
    /// Mesh-style compaction: pair offset-disjoint frames and merge them.
    /// Returns (pause cycles, frames released).
    ///
    /// # Panics
    ///
    /// Panics if a defragmentation cycle is in flight.
    pub fn mesh_compact(&self, ctx: &mut Ctx) -> (u64, u64) {
        assert!(!self.in_cycle(), "mesh runs only on a quiescent heap");
        let t0 = ctx.cycles();
        let _w = self.stop_world();
        let pool = &self.inner.pool;
        let layout = *pool.layout();
        let engine = self.engine();

        // Collect per-frame occupancy masks of active frames.
        let mut frames: Vec<(u64, [u64; 4], u16)> = Vec::new();
        for f in 0..layout.num_frames {
            let st = pool.frame_state(f);
            if st.kind == FrameKind::Active {
                frames.push((f, st.alloc, st.free_slots));
            }
        }
        // Emptier frames first: they are the cheapest to move.
        frames.sort_by_key(|f| std::cmp::Reverse(f.2));
        let mut used: Vec<bool> = vec![false; frames.len()];
        // src frame → dst frame; ordered so the copy and release loops
        // below run in frame order — iteration order feeds simulated
        // cache state and the free list, so it must be deterministic.
        let mut moves: BTreeMap<u64, u64> = BTreeMap::new();
        for i in 0..frames.len() {
            if used[i] {
                continue;
            }
            for j in (i + 1)..frames.len() {
                if used[j] {
                    continue;
                }
                let disjoint = frames[i]
                    .1
                    .iter()
                    .zip(frames[j].1.iter())
                    .all(|(a, b)| a & b == 0);
                if disjoint {
                    // Move the emptier frame (i) into the fuller one (j).
                    moves.insert(frames[i].0, frames[j].0);
                    used[i] = true;
                    used[j] = true;
                    break;
                }
            }
        }
        if moves.is_empty() {
            return (ctx.cycles() - t0, 0);
        }

        // Copy objects to identical offsets in the destination frame
        // (Mesh's trick: offsets don't change, only the physical page).
        for (&src, &dst) in &moves {
            pool.set_frame_kind(dst, FrameKind::Destination);
            for obj in pool.peek_frame_objects(src) {
                let total = obj.size as u64 + OBJ_HEADER_BYTES;
                let src_off = layout.frame_start(src) + obj.slot as u64 * SLOT_BYTES;
                let dst_off = layout.frame_start(dst) + obj.slot as u64 * SLOT_BYTES;
                let data = engine.read_pooled(ctx, src_off, total);
                engine.write(ctx, dst_off, &data);
                ctx.put_buf(data);
                engine.persist(ctx, dst_off, total);
                // Destination bookkeeping: reserve the same slots.
                pool.reserve_destination_slots(
                    ctx,
                    dst,
                    obj.slot,
                    obj.slots,
                    obj.size + OBJ_HEADER_BYTES as u32,
                );
            }
            pool.finish_destination_frame(dst);
        }
        // One ref-fixup walk (in the real Mesh this is a page-table remap).
        let engine2 = engine.clone();
        let moves2 = moves.clone();
        walk_refs(
            ctx,
            engine,
            pool.registry(),
            &layout,
            move |ctx, slot_off, target| {
                if target.is_null() {
                    return None;
                }
                let hdr = target.offset() - OBJ_HEADER_BYTES;
                let frame = layout.frame_of(hdr)?;
                let dst = *moves2.get(&frame)?;
                let new_off = layout.frame_start(dst) + (hdr - layout.frame_start(frame));
                let new = PmPtr::new(target.pool_id(), new_off + OBJ_HEADER_BYTES);
                engine2.write_u64(ctx, slot_off, new.raw());
                engine2.persist(ctx, slot_off, 8);
                Some(new)
            },
        );
        let released = moves.len() as u64;
        for &src in moves.keys() {
            self.inner.pool.release_frame(ctx, src);
        }
        self.inner.pool.decommit_empty_pages();
        (ctx.cycles() - t0, released)
    }

    /// Stop-the-world full compaction: marks, copies every live object into
    /// fresh packed frames, rewrites all references, releases everything
    /// else. Returns (pause cycles, frames released).
    ///
    /// # Panics
    ///
    /// Panics if a defragmentation cycle is in flight.
    pub fn stw_compact(&self, ctx: &mut Ctx) -> (u64, u64) {
        assert!(!self.in_cycle(), "stw compaction runs only when quiescent");
        let t0 = ctx.cycles();
        let _w = self.stop_world();
        let pool = &self.inner.pool;
        let layout = *pool.layout();
        let engine = self.engine();

        // Sources: every active frame.
        let sources: Vec<u64> = (0..layout.num_frames)
            .filter(|&f| pool.frame_state(f).kind == FrameKind::Active)
            .collect();
        if sources.is_empty() {
            return (ctx.cycles() - t0, 0);
        }
        // Copy everything into fresh frames, packed; build a forward map.
        let mut forward: HashMap<u64, u64> = HashMap::new(); // old hdr off → new hdr off
        let mut cur: Option<(u64, usize)> = None;
        let empty = std::collections::HashSet::new();
        for &src in &sources {
            for obj in pool.peek_frame_objects(src) {
                let total = obj.size as u64 + OBJ_HEADER_BYTES;
                let need = obj.slots;
                let ok = cur.map(|(_, next)| 256 - next >= need).unwrap_or(false);
                if !ok {
                    let Ok(d) = pool.take_destination_frame(&empty) else {
                        break;
                    };
                    cur = Some((d, 0));
                }
                let (dframe, next) = cur.expect("destination ensured");
                let src_off = layout.frame_start(src) + obj.slot as u64 * SLOT_BYTES;
                let dst_off = layout.frame_start(dframe) + next as u64 * SLOT_BYTES;
                let data = engine.read_pooled(ctx, src_off, total);
                engine.write(ctx, dst_off, &data);
                ctx.put_buf(data);
                engine.persist(ctx, dst_off, total);
                pool.reserve_destination_slots(
                    ctx,
                    dframe,
                    next,
                    need,
                    obj.size + OBJ_HEADER_BYTES as u32,
                );
                forward.insert(src_off, dst_off);
                cur = Some((dframe, next + need));
            }
        }
        // Fix every reference.
        let engine2 = engine.clone();
        let forward2 = forward.clone();
        walk_refs(
            ctx,
            engine,
            pool.registry(),
            &layout,
            move |ctx, slot_off, target| {
                if target.is_null() {
                    return None;
                }
                let hdr = target.offset() - OBJ_HEADER_BYTES;
                let new_hdr = *forward2.get(&hdr)?;
                let new = PmPtr::new(target.pool_id(), new_hdr + OBJ_HEADER_BYTES);
                engine2.write_u64(ctx, slot_off, new.raw());
                engine2.persist(ctx, slot_off, 8);
                Some(new)
            },
        );
        // Release the old frames in frame order (the release order shapes
        // the free list, so it must be deterministic); destinations become
        // ordinary frames.
        let mut released = 0u64;
        for &f in &sources {
            pool.release_frame(ctx, f);
            released += 1;
        }
        for f in 0..layout.num_frames {
            if pool.frame_state(f).kind == FrameKind::Destination {
                pool.finish_destination_frame(f);
            }
        }
        pool.decommit_empty_pages();
        (ctx.cycles() - t0, released)
    }
}
