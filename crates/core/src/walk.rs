//! Reference-graph walker shared by marking, termination fixup and recovery.

use ffccd_pmem::{Ctx, PmEngine};
use ffccd_pmop::{PmPtr, PoolLayout, TypeRegistry, OBJ_HEADER_BYTES, SLOT_BYTES};

/// Pool offset of the root reference slot (the pool header's root word).
pub(crate) const ROOT_SLOT: u64 = ffccd_pmop::HDR_ROOT;

/// A set of payload offsets: one bit per slot of the pool. Objects start
/// on slot boundaries and so do their payloads (the header is one slot),
/// so a slot index names a payload exactly; 64 MiB of pool is 512 KiB of
/// bits, against a hash set regrown from empty by every whole-heap walk.
pub(crate) struct MarkSet {
    bits: Vec<u64>,
}

impl MarkSet {
    pub(crate) fn new(layout: &PoolLayout) -> Self {
        MarkSet {
            bits: vec![0; (layout.total_bytes / SLOT_BYTES).div_ceil(64) as usize],
        }
    }

    fn bit(off: u64) -> (usize, u64) {
        debug_assert!(
            off.is_multiple_of(SLOT_BYTES),
            "payload offset {off:#x} is off the slot grid"
        );
        let slot = off / SLOT_BYTES;
        ((slot / 64) as usize, 1 << (slot % 64))
    }

    /// Adds `off`, returning whether it was new.
    pub(crate) fn insert(&mut self, off: u64) -> bool {
        let (word, mask) = Self::bit(off);
        let new = self.bits[word] & mask == 0;
        self.bits[word] |= mask;
        new
    }

    /// Whether payload offset `off` was visited.
    pub(crate) fn contains(&self, off: u64) -> bool {
        let (word, mask) = Self::bit(off);
        self.bits[word] & mask != 0
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Walks every reference slot reachable from the root, depth-first.
///
/// For each slot, `visit(ctx, slot_offset, current_target)` may return a
/// replacement pointer; *storing* the replacement is the closure's
/// responsibility (so it controls clwb ordering) — the walker only follows
/// it. Cycles are handled with a visited set keyed by final payload offset.
///
/// Returns the set of visited (live) payload offsets — the mark set.
///
/// # Panics
///
/// Panics when a reachable pointer lies outside the pool.
pub(crate) fn walk_refs(
    ctx: &mut Ctx,
    engine: &PmEngine,
    registry: &TypeRegistry,
    layout: &PoolLayout,
    mut visit: impl FnMut(&mut Ctx, u64, PmPtr) -> Option<PmPtr>,
) -> MarkSet {
    let mut visited = MarkSet::new(layout);
    let mut stack: Vec<u64> = vec![ROOT_SLOT];
    while let Some(slot_off) = stack.pop() {
        let raw = engine.read_u64(ctx, slot_off);
        let mut target = PmPtr::from_raw(raw);
        if let Some(new) = visit(ctx, slot_off, target) {
            target = new;
        }
        if target.is_null() || !visited.insert(target.offset()) {
            continue;
        }
        debug_assert!(
            layout
                .frame_of(target.offset() - OBJ_HEADER_BYTES)
                .is_some(),
            "reachable pointer {target:?} must land in the data region"
        );
        let word = engine.read_u64(ctx, target.offset() - OBJ_HEADER_BYTES);
        let type_id = ffccd_pmop::TypeId((word >> 32) as u32);
        let desc = registry.get(type_id);
        for &off in &desc.ref_offsets {
            stack.push(target.offset() + off as u64);
        }
    }
    visited
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffccd_pmop::{PmPool, PoolConfig, TypeDesc};

    /// Builds a 3-node list: root → a → b, plus an unreachable node.
    fn build() -> (PmPool, Ctx, [PmPtr; 3]) {
        let mut reg = TypeRegistry::new();
        let t = reg.register(TypeDesc::new("node", 16, &[8])); // value, next
        let pool = PmPool::create(PoolConfig::small_for_tests(), reg).expect("create");
        let mut ctx = Ctx::new(pool.machine());
        let a = pool.pmalloc(&mut ctx, t, 16).expect("a");
        let b = pool.pmalloc(&mut ctx, t, 16).expect("b");
        let dead = pool.pmalloc(&mut ctx, t, 16).expect("dead");
        pool.write_u64(&mut ctx, a, 8, b.raw());
        pool.write_u64(&mut ctx, b, 8, 0);
        pool.write_u64(&mut ctx, dead, 8, 0);
        pool.set_root(&mut ctx, a);
        (pool, ctx, [a, b, dead])
    }

    #[test]
    fn mark_set_is_one_bit_per_slot() {
        let (pool, _, _) = build();
        let layout = pool.layout();
        let mut m = MarkSet::new(layout);
        let last = layout.total_bytes - SLOT_BYTES;
        // Neighbouring slots, both sides of a word edge, the pool's last.
        for off in [16, 32, 63 * 16, 64 * 16, last] {
            assert!(!m.contains(off));
            assert!(m.insert(off), "first insert of {off:#x}");
            assert!(!m.insert(off), "second insert of {off:#x}");
            assert!(m.contains(off));
        }
        assert!(!m.contains(48) && !m.contains(65 * 16) && !m.contains(last - 16));
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn marks_reachable_not_dead() {
        let (pool, mut ctx, [a, b, dead]) = build();
        let marked = walk_refs(
            &mut ctx,
            pool.engine(),
            pool.registry(),
            pool.layout(),
            |_, _, _| None,
        );
        assert!(marked.contains(a.offset()));
        assert!(marked.contains(b.offset()));
        assert!(!marked.contains(dead.offset()));
    }

    #[test]
    fn handles_cycles() {
        let (pool, mut ctx, [a, b, _]) = build();
        // b → a makes a cycle.
        pool.write_u64(&mut ctx, b, 8, a.raw());
        let marked = walk_refs(
            &mut ctx,
            pool.engine(),
            pool.registry(),
            pool.layout(),
            |_, _, _| None,
        );
        assert_eq!(marked.len(), 2);
    }

    #[test]
    fn rewrites_are_followed_when_closure_stores_them() {
        let (pool, mut ctx, [a, b, dead]) = build();
        // Redirect every reference to `b` over to `dead`, storing in place.
        let engine = pool.engine().clone();
        let marked = walk_refs(
            &mut ctx,
            pool.engine(),
            pool.registry(),
            pool.layout(),
            |ctx, slot, t| {
                if t == b {
                    engine.write_u64(ctx, slot, dead.raw());
                    Some(dead)
                } else {
                    None
                }
            },
        );
        assert!(marked.contains(dead.offset()));
        assert!(!marked.contains(b.offset()));
        // The stored next pointer of `a` changed.
        assert_eq!(pool.read_u64(&mut ctx, a, 8), dead.raw());
    }

    #[test]
    fn empty_root_marks_nothing() {
        let (pool, mut ctx, _) = build();
        pool.set_root(&mut ctx, PmPtr::NULL);
        let marked = walk_refs(
            &mut ctx,
            pool.engine(),
            pool.registry(),
            pool.layout(),
            |_, _, _| None,
        );
        assert_eq!(marked.len(), 0);
    }
}
