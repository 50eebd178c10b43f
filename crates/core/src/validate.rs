//! Post-crash / post-cycle consistency validation (paper §7.1).
//!
//! The paper validates two things after every injected fault: (1) program
//! data consistency — "readability of all objects, absence of dangling
//! pointers, and data structure topology" — and (2) GC consistency — the
//! relocation state of every object matches the GC metadata. [`validate_heap`]
//! implements both for a quiescent heap (run it after recovery); workload
//! crates layer their structure-specific topology checks on top.

use std::collections::HashSet;

use ffccd_pmop::{FrameKind, PmPtr, PoolLayout, OBJ_HEADER_BYTES, SLOT_BYTES};

use crate::heap::DefragHeap;
use crate::walk::MarkSet;

/// Summary of a successful validation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValidationSummary {
    /// Objects reachable from the root.
    pub reachable_objects: u64,
    /// Total reachable payload bytes.
    pub reachable_bytes: u64,
}

/// Validates heap consistency, returning every violation found.
///
/// Checks, for each object reachable from the root:
/// * the pointer lands in the data region on a live allocation (the frame's
///   object-start bit is set — no dangling pointers);
/// * the header's type is registered and the size fits its frame;
/// * every reference field parses as null or a valid pointer (recursed).
///
/// Plus the GC-idle invariants: no persistent cycle header, no PMFT entries,
/// no frag-page bits — metadata must match the (quiescent) memory state.
///
/// # Errors
///
/// Returns the list of violations (empty list never returned as `Err`).
pub fn validate_heap(heap: &DefragHeap) -> Result<ValidationSummary, Vec<String>> {
    let mut problems = Vec::new();
    let pool = heap.pool();
    let layout = *pool.layout();
    let engine = heap.engine();

    // GC metadata must be quiescent.
    if heap.in_cycle() {
        problems.push("validate_heap called with a cycle in flight".to_owned());
    }
    let header = engine.peek_u64(heap.meta().cycle_header);
    if header != 0 {
        problems.push(format!("persistent cycle header is {header}, expected 0"));
    }
    // The frag map is one bit per frame, contiguous from frame 0's byte.
    let fragmap = engine.peek_vec(heap.meta().fragmap_byte(0), layout.num_frames.div_ceil(8));
    for f in 0..layout.num_frames {
        if engine.peek_u64(heap.meta().pmft_entry(f)) != 0 {
            problems.push(format!("stale PMFT entry for frame {f}"));
        }
        if fragmap[(f / 8) as usize] >> (f % 8) & 1 == 1 {
            problems.push(format!("stale frag-page bit for frame {f}"));
        }
    }

    // Graph walk on logical (peek) state, against one snapshot of the
    // (quiescent) frame table.
    let frames = pool.frame_states();
    let mut summary = ValidationSummary::default();
    let mut visited = Visited::new(&layout);
    let mut stack: Vec<(u64, PmPtr)> = Vec::new();
    let root = PmPtr::from_raw(engine.peek_u64(ffccd_pmop::HDR_ROOT));
    stack.push((ffccd_pmop::HDR_ROOT, root));
    while let Some((slot_off, ptr)) = stack.pop() {
        if ptr.is_null() || !visited.insert(ptr.offset()) {
            continue;
        }
        if problems.len() > 50 {
            problems.push("... (truncated)".to_owned());
            break;
        }
        let hdr_off = match ptr.offset().checked_sub(OBJ_HEADER_BYTES) {
            Some(h) => h,
            None => {
                problems.push(format!("pointer at slot {slot_off:#x} underflows: {ptr}"));
                continue;
            }
        };
        let Some(frame) = layout.frame_of(hdr_off) else {
            problems.push(format!(
                "pointer at slot {slot_off:#x} outside data region: {ptr}"
            ));
            continue;
        };
        let slot = ((hdr_off - layout.frame_start(frame)) / SLOT_BYTES) as usize;
        let st = &frames[frame as usize];
        if matches!(st.kind, FrameKind::Free) {
            problems.push(format!(
                "pointer {ptr} at slot {slot_off:#x} into a free frame {frame}"
            ));
            continue;
        }
        let head_frame = st.kind == FrameKind::Huge && !st.is_start(0);
        if head_frame {
            problems.push(format!("pointer {ptr} into a huge-tail frame {frame}"));
            continue;
        }
        if !st.is_start(slot) {
            problems.push(format!(
                "dangling pointer {ptr}: no object starts at frame {frame} slot {slot}"
            ));
            continue;
        }
        let word = engine.peek_u64(hdr_off);
        let type_id = ffccd_pmop::TypeId((word >> 32) as u32);
        let size = (word & 0xFFFF_FFFF) as u32;
        let Some(desc) = pool.registry().try_get(type_id) else {
            problems.push(format!("object {ptr} has unregistered type {type_id:?}"));
            continue;
        };
        if desc.is_fixed_size() && desc.payload_size != size {
            problems.push(format!(
                "object {ptr} of type {} has size {size}, registry says {}",
                desc.name, desc.payload_size
            ));
        }
        summary.reachable_objects += 1;
        summary.reachable_bytes += size as u64;
        for &off in &desc.ref_offsets {
            let slot_off = ptr.offset() + off as u64;
            let target = PmPtr::from_raw(engine.peek_u64(slot_off));
            stack.push((slot_off, target));
        }
    }

    if problems.is_empty() {
        Ok(summary)
    } else {
        Err(problems)
    }
}

/// The graph walk's visited set over payload offsets: the collector's
/// [`MarkSet`] for offsets on the pool's slot grid (every valid object
/// pointer), an exact set for the rest, which can only be corrupt.
struct Visited {
    grid: MarkSet,
    pool_bytes: u64,
    off_grid: HashSet<u64>,
}

impl Visited {
    fn new(layout: &PoolLayout) -> Self {
        Visited {
            grid: MarkSet::new(layout),
            pool_bytes: layout.total_bytes,
            off_grid: HashSet::new(),
        }
    }

    /// Adds `offset`, returning whether it was new.
    fn insert(&mut self, offset: u64) -> bool {
        if offset.is_multiple_of(SLOT_BYTES) && offset < self.pool_bytes {
            self.grid.insert(offset)
        } else {
            self.off_grid.insert(offset)
        }
    }
}
