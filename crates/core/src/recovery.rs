//! Post-crash recovery (paper §3.3.3 Observations 1–4, Figures 7b and 9b).
//!
//! `recover` runs on a freshly restarted machine *before* the pool is
//! opened. It reads the persisted cycle header; when a compaction cycle was
//! in flight it applies the scheme's recovery discipline to every PMFT
//! mapping and then completes the cycle (the paper's `terminate()`), leaving
//! a quiescent, consistent heap:
//!
//! * **Espresso** — `moved == 1` guarantees the copy persisted (two fences);
//!   unmoved objects are re-copied (idempotent, Observation 1).
//! * **SFCCD** — `moved == 1` no longer implies the copy persisted (the
//!   copy's fence was removed); recovery compares destination with source
//!   and re-copies on mismatch (Observation 2, Figure 7b).
//! * **FFCCD** — no fences at all; the *reached bitmap* classifies each
//!   object: not reached → undo reference updates (Observation 3); partially
//!   reached → finish the copy for the lines that did not persist, leaving
//!   reached lines (which may hold newer application data) alone
//!   (Observation 4, Figure 9b).
//!
//! The persistent cycle header is a state machine with three commit
//! points: `1` is written when the summary phase commits (reservations +
//! PMFT are durable), `2` when the *mutator's* terminate fixup fence
//! completes (all destination copies and reference rewrites are durable),
//! and `3` when *recovery's own* fixup completes and it begins tearing the
//! cycle down. Under state `2` the per-scheme disciplines above must *not*
//! run — relocation frames released by the interrupted teardown have no
//! PMFT entries left, so a re-copy would overwrite fixed-up destination
//! copies with stale source references into freed frames. State `2`
//! recovery only completes the teardown of the surviving entries. State
//! `3` means the classification evidence (reached words) may be partially
//! wiped, but the moved bitmap — normalized and persisted by the
//! classification pass — encodes each mapping's fate, so a re-entered
//! recovery finishes the teardown from the moved bits without
//! re-classifying. Recovery itself may crash at any point (§7.1d probes
//! exactly this); every branch is re-runnable.
//!
//! The recovery procedure itself is conservative: every write it makes is
//! immediately persisted (§4.1: "with persist barriers and logging").

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use ffccd_arch::{GcMetaLayout, Pmft, PmftEntry};
use ffccd_pmem::{lines_spanning, Ctx, PmEngine, CACHELINE_BYTES};
use ffccd_pmop::{
    FrameState, PmPool, PmPtr, PoolError, PoolLayout, TypeRegistry, FRAME_BYTES, OBJ_HEADER_BYTES,
    SLOT_BYTES,
};

use crate::config::Scheme;
use crate::phases::scheme_code;
use crate::walk::walk_refs;

/// What recovery found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Whether an in-flight cycle (or summary residue) was found.
    pub had_cycle: bool,
    /// Objects whose copy was already durable (nothing to do).
    pub already_durable: u64,
    /// Objects re-copied or finished by recovery.
    pub finished: u64,
    /// Objects whose relocation was undone (FFCCD not-reached).
    pub undone: u64,
    /// References rewritten (fixup + undo).
    pub refs_fixed: u64,
    /// Simulated cycles the recovery consumed.
    pub cycles: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Fate {
    Durable,
    Finished,
    Undone,
}

/// Runs crash recovery on a restarted engine. Safe (and cheap) to call when
/// no cycle was in flight.
///
/// # Errors
///
/// Returns [`PoolError::BadPool`] if the media does not hold a pool this
/// build can open ([`PmPool::layout_of_media`]), or if its cycle header
/// holds a state above 3 or an in-flight cycle of another scheme.
pub fn recover(
    engine: &PmEngine,
    registry: &TypeRegistry,
    scheme: Scheme,
) -> Result<RecoveryReport, PoolError> {
    let layout = PmPool::layout_of_media(engine)?;
    let meta = GcMetaLayout::from_pool(&layout);
    let pmft = Pmft::new(meta);
    let mut ctx = Ctx::new(engine.config());
    let mut report = RecoveryReport::default();

    let entries = pmft.load_all(engine);
    let hdr = meta.cycle_header;
    let state = engine.read_u64(&mut ctx, hdr);
    // The summary commit writes the scheme's code, then state 1, into one
    // line, so an image holding state 1 holds the code too. A state
    // no cycle writes, or another scheme's cycle, is not this recovery's
    // to tear down: completing it would zero relocation frames' records.
    if state > 3 || (state != 0 && engine.peek_u64(hdr + 8) != scheme_code(scheme)) {
        return Err(PoolError::BadPool {
            reason: "cycle header was not written by this scheme",
        });
    }
    if entries.is_empty() && state == 0 {
        report.cycles = ctx.cycles();
        return Ok(report);
    }
    report.had_cycle = true;

    if state == 0 {
        // Crash during the summary phase, before the cycle-header commit
        // point: roll every persisted reservation back.
        rollback_summary(&mut ctx, engine, &pmft, &meta, &layout, &entries);
    } else if state == 3 {
        // A previous *recovery* crashed during its own teardown. Its
        // fixup fence already made every copy and reference rewrite
        // durable, and the moved bitmap (persisted before the state-3
        // commit) encodes each mapping's fate — finish vacating the
        // surviving entries from the moved bits alone; re-deriving
        // fates from the (partially wiped) reached words would
        // misclassify.
        for e in &entries {
            report.already_durable += e.mappings().count() as u64;
        }
        teardown_by_moved(&mut ctx, engine, &pmft, &meta, &layout, &entries);
        engine.write_u64(&mut ctx, hdr, 0);
        engine.persist(&mut ctx, hdr, 16);
    } else if state >= 2 {
        complete_teardown(
            &mut ctx,
            engine,
            &pmft,
            &meta,
            &layout,
            &entries,
            hdr,
            &mut report,
        );
    }
    if state != 1 {
        report.cycles = ctx.cycles();
        return Ok(report);
    }

    // ---- state == 1: an in-flight compaction cycle ---------------------------

    // Classify and fix every mapping.
    let mut fates: HashMap<(u64, usize), Fate> = HashMap::new();
    for e in &entries {
        for (src_slot, dst_slot) in e.mappings() {
            let src = layout.frame_start(e.reloc_frame) + src_slot as u64 * SLOT_BYTES;
            let dst = layout.frame_start(e.dest_frame) + dst_slot as u64 * SLOT_BYTES;
            let word = engine.read_u64(&mut ctx, src);
            let total = clamped_total(word, src_slot, dst_slot as usize);
            let moved = read_moved(&mut ctx, engine, &meta, e.reloc_frame, src_slot);
            let fate = match scheme {
                Scheme::Baseline => unreachable!("baseline never has a cycle"),
                Scheme::Espresso => {
                    // Observation 1: redo the copy unless moved (in which
                    // case Espresso's fences guarantee it persisted).
                    if moved {
                        Fate::Durable
                    } else {
                        copy_persist(&mut ctx, engine, src, dst, total);
                        set_moved(&mut ctx, engine, &meta, e.reloc_frame, src_slot);
                        Fate::Finished
                    }
                }
                Scheme::Sfccd => {
                    // Observation 2 / Figure 7b: moved==1 may precede the
                    // copy's durability; compare and re-copy on mismatch.
                    if moved {
                        let a = engine.read_pooled(&mut ctx, src, total);
                        let b = engine.read_pooled(&mut ctx, dst, total);
                        let differ = a != b;
                        ctx.put_buf(a);
                        ctx.put_buf(b);
                        if differ {
                            copy_persist(&mut ctx, engine, src, dst, total);
                            Fate::Finished
                        } else {
                            Fate::Durable
                        }
                    } else {
                        copy_persist(&mut ctx, engine, src, dst, total);
                        set_moved(&mut ctx, engine, &meta, e.reloc_frame, src_slot);
                        Fate::Finished
                    }
                }
                Scheme::FfccdFenceFree | Scheme::FfccdCheckLookup => {
                    // Observation 4 / Figure 9b: consult the reached bitmap.
                    let reached = engine.read_u64(&mut ctx, meta.reached_word(e.dest_frame));
                    let frame_base = layout.frame_start(e.dest_frame);
                    let obj_lines: Vec<u64> = lines_spanning(dst, total)
                        .map(|l| (l.start() - frame_base) / CACHELINE_BYTES)
                        .collect();
                    let reached_count =
                        obj_lines.iter().filter(|&&b| reached >> b & 1 == 1).count();
                    if reached_count == 0 {
                        // Not reached: the copy never hit PM. Undo below;
                        // clear a possibly-persisted moved bit (its line may
                        // have evicted ahead of the data).
                        if moved {
                            clear_moved(&mut ctx, engine, &meta, e.reloc_frame, src_slot);
                        }
                        Fate::Undone
                    } else if reached_count == obj_lines.len() && moved {
                        Fate::Durable
                    } else {
                        // Partially reached: finish the lines that did not
                        // persist; reached lines may hold the application's
                        // newer writes and must not be overwritten.
                        for (i, line) in lines_spanning(dst, total).enumerate() {
                            let bit = obj_lines[i];
                            if reached >> bit & 1 == 1 {
                                continue;
                            }
                            let seg_lo = dst.max(line.start());
                            let seg_hi = (dst + total).min(line.end());
                            let src_seg = src + (seg_lo - dst);
                            let data = engine.read_pooled(&mut ctx, src_seg, seg_hi - seg_lo);
                            engine.write(&mut ctx, seg_lo, &data);
                            ctx.put_buf(data);
                            engine.persist(&mut ctx, seg_lo, seg_hi - seg_lo);
                        }
                        set_moved(&mut ctx, engine, &meta, e.reloc_frame, src_slot);
                        Fate::Finished
                    }
                }
            };
            match fate {
                Fate::Durable => report.already_durable += 1,
                Fate::Finished => report.finished += 1,
                Fate::Undone => report.undone += 1,
            }
            fates.insert((e.reloc_frame, src_slot), fate);
        }
    }

    // Reference fixup: redirect every surviving reference to the object's
    // final location, persisting each rewrite (recovery is conservative).
    let by_frame: HashMap<u64, &PmftEntry> = entries.iter().map(|e| (e.reloc_frame, e)).collect();
    let dest_owner: HashMap<(u64, u8), (u64, usize)> = entries
        .iter()
        .flat_map(|e| {
            e.mappings()
                .map(move |(s, d)| ((e.dest_frame, d), (e.reloc_frame, s)))
        })
        .collect();
    let mut refs_fixed = 0u64;
    {
        let engine2 = engine.clone();
        walk_refs(
            &mut ctx,
            engine,
            registry,
            &layout,
            |ctx, slot_off, target| {
                if target.is_null() {
                    return None;
                }
                let hdr = target.offset() - OBJ_HEADER_BYTES;
                let frame = layout.frame_of(hdr)?;
                let slot = ((hdr - layout.frame_start(frame)) / SLOT_BYTES) as usize;
                // Reference still points into a relocation frame?
                if let Some(e) = by_frame.get(&frame) {
                    let d = e.lookup(slot)?;
                    match fates.get(&(frame, slot)) {
                        Some(Fate::Undone) => None, // stays at source, correct
                        _ => {
                            let new_hdr = layout.frame_start(e.dest_frame) + d as u64 * SLOT_BYTES;
                            let new = PmPtr::new(target.pool_id(), new_hdr + OBJ_HEADER_BYTES);
                            engine2.write_u64(ctx, slot_off, new.raw());
                            engine2.persist(ctx, slot_off, 8);
                            refs_fixed += 1;
                            Some(new)
                        }
                    }
                } else if slot < 256 && dest_owner.contains_key(&(frame, slot as u8)) {
                    let (sframe, sslot) = dest_owner[&(frame, slot as u8)];
                    // Reference points at a destination: undo it if the object
                    // was not reached (Observation 3).
                    if fates.get(&(sframe, sslot)) == Some(&Fate::Undone) {
                        let old_hdr = layout.frame_start(sframe) + sslot as u64 * SLOT_BYTES;
                        let old = PmPtr::new(target.pool_id(), old_hdr + OBJ_HEADER_BYTES);
                        engine2.write_u64(ctx, slot_off, old.raw());
                        engine2.persist(ctx, slot_off, 8);
                        refs_fixed += 1;
                        Some(old)
                    } else {
                        None
                    }
                } else {
                    None
                }
            },
        );
    }
    report.refs_fixed = refs_fixed;

    // Terminate the cycle. Clearing per-object residue consumes the very
    // evidence (reached words, moved bits) a re-run of the classification
    // above would need: a nested crash mid-teardown used to make the next
    // recovery re-classify a Durable object as Undone from a half-wiped
    // reached word and roll its durable reference fixups back into source
    // slots the first run had already vacated. So recovery commits to its
    // fates first: after the fixup fence above the moved bitmap encodes
    // exactly `fate != Undone` for every mapping (the classification pass
    // normalizes it and persists each bit), and header state 3 says "the
    // fates are in the moved bits — finish the teardown, do not
    // re-classify". A crash anywhere past this point re-enters through
    // the state-3 branch.
    engine.write_u64(&mut ctx, hdr, 3);
    engine.persist(&mut ctx, hdr, 8);
    teardown_by_moved(&mut ctx, engine, &pmft, &meta, &layout, &entries);
    engine.write_u64(&mut ctx, hdr, 0);
    engine.persist(&mut ctx, hdr, 16);

    report.cycles = ctx.cycles();
    Ok(report)
}

/// Object footprint from a header word, clamped so that recovery never
/// reads, writes, or frees slots past the end of a frame even when the
/// header word it read was torn by the crash.
fn clamped_total(word: u64, src_slot: usize, dst_slot: usize) -> u64 {
    let raw = (word & 0xFFFF_FFFF) + OBJ_HEADER_BYTES;
    let cap = FRAME_BYTES - src_slot.max(dst_slot) as u64 * SLOT_BYTES;
    raw.min(cap)
}

fn record_at(engine: &PmEngine, ctx: &mut Ctx, off: u64) -> FrameState {
    let rec: [u8; 64] = engine
        .read_vec(ctx, off, 64)
        .try_into()
        .expect("64-byte record");
    FrameState::from_record(&rec)
}

fn write_record(engine: &PmEngine, ctx: &mut Ctx, off: u64, st: &FrameState) {
    engine.write(ctx, off, &st.to_record());
    engine.persist(ctx, off, 64);
}

fn read_moved(
    ctx: &mut Ctx,
    engine: &PmEngine,
    meta: &GcMetaLayout,
    frame: u64,
    slot: usize,
) -> bool {
    let off = meta.moved_bitmap(frame) + slot as u64 / 8;
    engine.read_u8(ctx, off) >> (slot % 8) & 1 == 1
}

fn set_moved(ctx: &mut Ctx, engine: &PmEngine, meta: &GcMetaLayout, frame: u64, slot: usize) {
    let off = meta.moved_bitmap(frame) + slot as u64 / 8;
    let byte = engine.read_u8(ctx, off) | 1 << (slot % 8);
    engine.write(ctx, off, &[byte]);
    engine.persist(ctx, off, 1);
}

fn clear_moved(ctx: &mut Ctx, engine: &PmEngine, meta: &GcMetaLayout, frame: u64, slot: usize) {
    let off = meta.moved_bitmap(frame) + slot as u64 / 8;
    let byte = engine.read_u8(ctx, off) & !(1 << (slot % 8));
    engine.write(ctx, off, &[byte]);
    engine.persist(ctx, off, 1);
}

fn copy_persist(ctx: &mut Ctx, engine: &PmEngine, src: u64, dst: u64, total: u64) {
    let data = engine.read_pooled(ctx, src, total);
    engine.write(ctx, dst, &data);
    ctx.put_buf(data);
    engine.persist(ctx, dst, total);
}

fn pmft_clear(ctx: &mut Ctx, engine: &PmEngine, pmft: &Pmft, frame: u64) {
    pmft.clear(ctx, engine, frame);
}

/// Tears the cycle down under header state 3, driven by the moved bitmap
/// (moved ⇔ the object lives at its destination): moved objects vacate
/// their source slots, unmoved (undone) objects vacate their destination
/// reservations.
///
/// The pass must be re-runnable from any interruption point, so per entry
/// the order is: record surgery (tolerant single-slot clears), frag bit,
/// reached word, then the PMFT entry as the per-frame commit — and the
/// moved bitmap is wiped only *after* the entry is gone, because a re-run
/// consults the moved bits of every surviving entry. A stale moved bitmap
/// behind a cleared entry is inert: recovery ignores entry-less frames and
/// the summary phase re-zeroes the bitmap when it arms the frame again.
fn teardown_by_moved(
    ctx: &mut Ctx,
    engine: &PmEngine,
    pmft: &Pmft,
    meta: &GcMetaLayout,
    layout: &PoolLayout,
    entries: &[PmftEntry],
) {
    for e in entries {
        let src_rec_off = layout.bitmap_record(e.reloc_frame);
        let dst_rec_off = layout.bitmap_record(e.dest_frame);
        let mut src_rec = record_at(engine, ctx, src_rec_off);
        let mut dst_rec = record_at(engine, ctx, dst_rec_off);
        for (src_slot, dst_slot) in e.mappings() {
            let src = layout.frame_start(e.reloc_frame) + src_slot as u64 * SLOT_BYTES;
            let word = engine.read_u64(ctx, src);
            let total = clamped_total(word, src_slot, dst_slot as usize);
            let slots = total.div_ceil(SLOT_BYTES) as usize;
            // Tolerant clearing: the application may have pfree'd a moved
            // object at its destination mid-cycle, and a re-run repeats
            // clears a prior run already made.
            if read_moved(ctx, engine, meta, e.reloc_frame, src_slot) {
                for i in 0..slots {
                    src_rec.mark_freed_single(src_slot + i);
                }
            } else {
                for i in 0..slots {
                    dst_rec.mark_freed_single(dst_slot as usize + i);
                }
            }
        }
        write_record(engine, ctx, src_rec_off, &src_rec);
        write_record(engine, ctx, dst_rec_off, &dst_rec);
        let fb = meta.fragmap_byte(e.reloc_frame);
        let byte = engine.read_u8(ctx, fb) & !(1 << (e.reloc_frame % 8));
        engine.write(ctx, fb, &[byte]);
        engine.persist(ctx, fb, 1);
        engine.write_u64(ctx, meta.reached_word(e.dest_frame), 0);
        engine.persist(ctx, meta.reached_word(e.dest_frame), 8);
        pmft_clear(ctx, engine, pmft, e.reloc_frame);
        engine.write(ctx, meta.moved_bitmap(e.reloc_frame), &[0u8; 32]);
        engine.persist(ctx, meta.moved_bitmap(e.reloc_frame), 32);
    }
}

/// Completes an interrupted teardown (state ≥ 2).
///
/// Every destination copy and reference rewrite is already durable, and
/// some relocation frames may already be released (their PMFT entries are
/// gone, so their old references cannot be redirected any more).
/// Re-copying or rewriting references here would roll the durable fixup
/// back and resurrect pointers into freed frames — this pass only
/// *completes* the teardown of the surviving entries. Per entry the order
/// is frag bit → frame release → moved/reached wipe → PMFT entry last
/// (mirroring `finish_cycle`), so recovery itself crashing mid-entry
/// leaves that entry's PMFT record in place and a re-run repeats the
/// idempotent wipes.
#[allow(clippy::too_many_arguments)]
fn complete_teardown(
    ctx: &mut Ctx,
    engine: &PmEngine,
    pmft: &Pmft,
    meta: &GcMetaLayout,
    layout: &PoolLayout,
    entries: &[PmftEntry],
    hdr: u64,
    report: &mut RecoveryReport,
) {
    for e in entries {
        for _ in e.mappings() {
            report.already_durable += 1;
        }
        let fb = meta.fragmap_byte(e.reloc_frame);
        let byte = engine.read_u8(ctx, fb) & !(1 << (e.reloc_frame % 8));
        engine.write(ctx, fb, &[byte]);
        engine.persist(ctx, fb, 1);
        // The whole relocation frame is vacated: every object lives at
        // its destination now.
        engine.write(ctx, layout.bitmap_record(e.reloc_frame), &[0u8; 64]);
        engine.persist(ctx, layout.bitmap_record(e.reloc_frame), 64);
        engine.write(ctx, meta.moved_bitmap(e.reloc_frame), &[0u8; 32]);
        engine.persist(ctx, meta.moved_bitmap(e.reloc_frame), 32);
        engine.write_u64(ctx, meta.reached_word(e.dest_frame), 0);
        engine.persist(ctx, meta.reached_word(e.dest_frame), 8);
        pmft.clear(ctx, engine, e.reloc_frame);
    }
    engine.write_u64(ctx, hdr, 0);
    engine.persist(ctx, hdr, 16);
}

/// Rolls back reservations persisted by a summary phase that never reached
/// its commit point.
fn rollback_summary(
    ctx: &mut Ctx,
    engine: &PmEngine,
    pmft: &Pmft,
    meta: &GcMetaLayout,
    layout: &PoolLayout,
    entries: &[PmftEntry],
) {
    for e in entries {
        let dst_rec_off = layout.bitmap_record(e.dest_frame);
        let mut dst_rec = record_at(engine, ctx, dst_rec_off);
        for (src_slot, dst_slot) in e.mappings() {
            let src = layout.frame_start(e.reloc_frame) + src_slot as u64 * SLOT_BYTES;
            let word = engine.read_u64(ctx, src);
            let total = clamped_total(word, src_slot, dst_slot as usize);
            let slots = total.div_ceil(SLOT_BYTES) as usize;
            // The reservation may or may not have persisted; clear whatever
            // is there, one slot at a time.
            for i in 0..slots {
                dst_rec.mark_freed_single(dst_slot as usize + i);
            }
        }
        write_record(engine, ctx, dst_rec_off, &dst_rec);
        // Frag bit before the PMFT entry: the entry is what makes this
        // frame's rollback re-runnable, so it must outlive every other
        // clear (a crash after an early entry-clear would leave the frag
        // bit stale forever — a state-0 re-run with no entries returns
        // immediately).
        let fb = meta.fragmap_byte(e.reloc_frame);
        let byte = engine.read_u8(ctx, fb) & !(1 << (e.reloc_frame % 8));
        engine.write(ctx, fb, &[byte]);
        engine.persist(ctx, fb, 1);
        pmft.clear(ctx, engine, e.reloc_frame);
    }
}
