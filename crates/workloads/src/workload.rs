//! The workload abstraction the driver and fault injector run against.

use std::collections::{BTreeSet, HashSet};

use ffccd::DefragHeap;
use ffccd_pmem::Ctx;
use ffccd_pmop::{PmPtr, TypeId, TypeRegistry, OBJ_HEADER_BYTES};

use crate::driver::OpRecord;

/// A keyed persistent data structure under test.
///
/// Implementations must derive every persistent pointer from
/// [`DefragHeap::root`] / [`DefragHeap::load_ref`] (so the read barrier
/// sees it) and persist their own writes, like a real PMDK program. A
/// workload may keep *volatile* indexes (FPTree's DRAM layer does), but
/// must route any cached persistent pointer through [`DefragHeap::resolve`]
/// before use and be able to rebuild the index after a crash
/// ([`Workload::reopen`]).
pub trait Workload: Send {
    /// Display name (matches the paper's tables).
    fn name(&self) -> &'static str;

    /// Object types this workload allocates.
    fn registry(&self) -> TypeRegistry;

    /// Creates the persistent root structure in a fresh heap.
    fn setup(&mut self, heap: &DefragHeap, ctx: &mut Ctx);

    /// Rebuilds volatile state against a reopened (post-crash) heap.
    /// Structures with no volatile state need not override this.
    fn reopen(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        let _ = (heap, ctx);
    }

    /// Inserts `key` with a payload of `value_size` bytes.
    fn insert(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64, value_size: usize);

    /// Deletes `key`, returning whether it was present.
    fn delete(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool;

    /// Whether `key` is present.
    fn contains(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool;

    /// Validates structure topology and that the stored key set equals
    /// `expected` (§7.1 program-data consistency checker).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    fn validate(
        &self,
        heap: &DefragHeap,
        ctx: &mut Ctx,
        expected: &BTreeSet<u64>,
    ) -> Result<(), String>;

    /// For a *detectable* structure: decide whether the operation
    /// `(insert, key)` that a crashed thread died inside logically
    /// completed. `Some(true)` — the op took effect and must be in the
    /// stored set; `Some(false)` — it did not. The default `None` keeps
    /// the classic ambiguity: the thread-crash checker then accepts
    /// either the pre-op or the post-op key set.
    ///
    /// Called after [`Workload::reopen`] on a freshly constructed
    /// instance, against either the live heap (survivors drained) or a
    /// recovered heap — a detectable answer must be derivable purely
    /// from persistent state.
    fn decide_inflight(
        &mut self,
        heap: &DefragHeap,
        ctx: &mut Ctx,
        key: u64,
        insert: bool,
    ) -> Option<bool> {
        let _ = (heap, ctx, key, insert);
        None
    }
}

/// The commit discipline every tree shares: no node reachable from the
/// persistent root is mutated in place. An operation builds what changes
/// in nodes it allocated ([`PathCopy::alloc`]) or copied
/// ([`PathCopy::shadow`]) — unreachable until the commit, hence safe to
/// mutate — persists them, and commits with one persisted 8-byte store to
/// the root or to a single field of a reachable node
/// ([`PathCopy::commit`]). A crash before the commit leaves the old
/// structure intact; after it, the new one. Replaced originals are freed
/// only after the commit (a crash in between leaks unreachable nodes,
/// which is harmless).
pub(crate) struct PathCopy<'a> {
    pub heap: &'a DefragHeap,
    /// Nodes allocated by this operation.
    fresh: HashSet<u64>,
    /// Nodes the commit unlinks, freed after it.
    retired: Vec<PmPtr>,
}

impl<'a> PathCopy<'a> {
    pub fn new(heap: &'a DefragHeap) -> Self {
        PathCopy {
            heap,
            fresh: HashSet::new(),
            retired: Vec::new(),
        }
    }

    /// Allocates a node of this operation.
    pub fn alloc(&mut self, ctx: &mut Ctx, ty: TypeId, payload: u64) -> PmPtr {
        let n = self.heap.alloc(ctx, ty, payload).expect("path-copy node");
        self.fresh.insert(n.offset());
        n
    }

    /// Returns a node safe to mutate: `n` itself when this operation
    /// allocated it, otherwise a copy that `copy(heap, ctx, n, copy,
    /// payload)` fills and that is persisted whole before it is returned
    /// (the original is retired).
    pub fn shadow(
        &mut self,
        ctx: &mut Ctx,
        n: PmPtr,
        copy: fn(&DefragHeap, &mut Ctx, PmPtr, PmPtr, u64),
    ) -> PmPtr {
        if self.fresh.contains(&n.offset()) {
            return n;
        }
        let (ty, size) = self.heap.object_header(ctx, n);
        let c = self.alloc(ctx, ty, u64::from(size));
        copy(self.heap, ctx, n, c, u64::from(size));
        self.heap.persist(ctx, c, 0, u64::from(size));
        self.retired.push(n);
        c
    }

    /// Queues `n` — a node or value the commit unlinks — for freeing after
    /// the commit.
    pub fn retire(&mut self, n: PmPtr) {
        self.retired.push(n);
    }

    /// The commit point: one persisted store of `new` to the root, or to
    /// field `at.1` of the reachable node `at.0`; then frees every retired
    /// node in the order retired.
    pub fn commit(mut self, ctx: &mut Ctx, at: Option<(PmPtr, u64)>, new: PmPtr) {
        match at {
            None => self.heap.set_root(ctx, new),
            Some((node, field)) => self.heap.store_ref(ctx, node, field, new),
        }
        for p in self.retired.drain(..) {
            self.heap.free(ctx, p).expect("free a replaced node");
        }
    }
}

/// Whether `ptr`'s header and first `len` payload bytes lie in the pool's
/// data region: a crash image can hold any bits in a reference slot, so a
/// validator checks a pointer with this before reading through it.
pub(crate) fn in_data(heap: &DefragHeap, ptr: PmPtr, len: u64) -> bool {
    let layout = heap.pool().layout();
    ptr.offset() >= layout.data_start + OBJ_HEADER_BYTES && ptr.offset() + len <= layout.total_bytes
}

/// `ptr`'s header — type and payload size — if the object lies in the data
/// region and its payload holds at least `min` bytes.
pub(crate) fn checked_header(
    heap: &DefragHeap,
    ctx: &mut Ctx,
    ptr: PmPtr,
    min: u64,
) -> Option<(TypeId, u64)> {
    let (ty, size) = in_data(heap, ptr, min).then(|| heap.object_header(ctx, ptr))?;
    let size = u64::from(size);
    (size >= min && in_data(heap, ptr, size)).then_some((ty, size))
}

/// Shared helper: compare a collected key set against the expected one.
pub(crate) fn check_key_set(
    name: &str,
    got: &BTreeSet<u64>,
    expected: &BTreeSet<u64>,
) -> Result<(), String> {
    if got == expected {
        return Ok(());
    }
    let missing: Vec<_> = expected.difference(got).take(5).collect();
    let extra: Vec<_> = got.difference(expected).take(5).collect();
    Err(format!(
        "{name}: key set mismatch: {} stored vs {} expected; missing {missing:?} extra {extra:?}",
        got.len(),
        expected.len()
    ))
}

/// The §7.1 key-set oracle for one slot: `w`, reopened through `ctx`, must
/// hold `expected`. With an op `inflight` (only its `insert` and `key` are
/// read) the set with the op's key toggled also passes, unless the
/// structure is detectable ([`Workload::decide_inflight`]) and picks the
/// side itself.
pub(crate) fn check_slot(
    w: &mut dyn Workload,
    heap: &DefragHeap,
    ctx: &mut Ctx,
    expected: &BTreeSet<u64>,
    inflight: Option<OpRecord>,
) -> Result<(), String> {
    let Some(OpRecord { insert, key, .. }) = inflight else {
        return w.validate(heap, ctx, expected);
    };
    let op = if insert { "insert" } else { "delete" };
    let toggled = || expected ^ &BTreeSet::from([key]);
    let Some(done) = w.decide_inflight(heap, ctx, key, insert) else {
        return w.validate(heap, ctx, expected).or_else(|e| {
            w.validate(heap, ctx, &toggled()).map_err(|_| {
                format!("matches neither side of the in-flight {op} of key {key:#x}: {e}")
            })
        });
    };
    // The side where the op took effect holds `key` iff it inserts.
    let verdict = if expected.contains(&key) == (done == insert) {
        w.validate(heap, ctx, expected)
    } else {
        w.validate(heap, ctx, &toggled())
    };
    let did = if done { "happened" } else { "did not happen" };
    verdict.map_err(|e| format!("the structure decided the in-flight {op} of key {key:#x} {did}, but that side does not validate: {e}"))
}

#[cfg(test)]
pub(crate) mod test_util {
    use ffccd::{DefragConfig, DefragHeap, Scheme};
    use ffccd_pmem::MachineConfig;
    use ffccd_pmop::{PoolConfig, TypeRegistry};

    /// A small heap for structure unit tests (baseline: no GC interference).
    pub fn heap(reg: TypeRegistry) -> DefragHeap {
        DefragHeap::create(
            PoolConfig {
                data_bytes: 4 << 20,
                os_page_size: 4096,
                machine: MachineConfig::default(),
            },
            reg,
            DefragConfig::baseline(),
        )
        .expect("test heap")
    }

    /// A heap with an aggressive FFCCD configuration, for tests that want
    /// relocation traffic mixed into structure operations.
    pub fn defrag_heap(reg: TypeRegistry) -> DefragHeap {
        DefragHeap::create(
            PoolConfig {
                data_bytes: 4 << 20,
                os_page_size: 4096,
                machine: MachineConfig::default(),
            },
            reg,
            DefragConfig {
                min_live_bytes: 1 << 10,
                cooldown_ops: 64,
                ..DefragConfig::normal(Scheme::FfccdCheckLookup)
            },
        )
        .expect("test heap")
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::heap;
    use super::*;
    use crate::{DetectableQueue, LinkedList};

    fn set(keys: impl IntoIterator<Item = u64>) -> BTreeSet<u64> {
        keys.into_iter().collect()
    }

    fn op(insert: bool, key: u64) -> Option<OpRecord> {
        Some(OpRecord {
            insert,
            key,
            found: true,
        })
    }

    /// A linked list holding `keys`, and a context on its heap.
    fn list(keys: &BTreeSet<u64>) -> (LinkedList, DefragHeap, Ctx) {
        let mut w = LinkedList::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        for &k in keys {
            w.insert(&h, &mut ctx, k, 32);
        }
        (w, h, ctx)
    }

    #[test]
    fn with_no_op_in_flight_only_the_exact_set_passes() {
        let held = set([3, 5, 8]);
        let (mut w, h, mut ctx) = list(&held);
        check_slot(&mut w, &h, &mut ctx, &held, None).expect("the exact set");
        for wrong in [set([3, 5]), set([3, 5, 8, 13])] {
            assert!(check_slot(&mut w, &h, &mut ctx, &wrong, None).is_err());
        }
    }

    #[test]
    fn with_an_op_in_flight_either_side_passes() {
        let held = set([3, 5, 8]);
        let (mut w, h, mut ctx) = list(&held);
        // The insert of 0x77 did not happen, or the delete of 8 did not.
        check_slot(&mut w, &h, &mut ctx, &set([3, 5, 8, 0x77]), op(true, 0x77))
            .expect("the pre-insert side");
        check_slot(&mut w, &h, &mut ctx, &held, op(true, 0x77)).expect("the post-insert side");
        check_slot(&mut w, &h, &mut ctx, &set([3, 5]), op(false, 8)).expect("the pre-delete side");
        let err = check_slot(&mut w, &h, &mut ctx, &set([3, 0x77]), op(true, 0x77))
            .expect_err("neither {3} nor {3, 0x77} is held");
        assert!(err.contains("insert of key 0x77"), "{err}");
    }

    /// A `DetectableQueue` that answers the opposite of what its
    /// persistent state says.
    struct Contrary(DetectableQueue);

    impl Workload for Contrary {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn registry(&self) -> TypeRegistry {
            self.0.registry()
        }

        fn setup(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
            self.0.setup(heap, ctx)
        }

        fn insert(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64, value_size: usize) {
            self.0.insert(heap, ctx, key, value_size)
        }

        fn delete(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
            self.0.delete(heap, ctx, key)
        }

        fn contains(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
            self.0.contains(heap, ctx, key)
        }

        fn validate(
            &self,
            heap: &DefragHeap,
            ctx: &mut Ctx,
            expected: &BTreeSet<u64>,
        ) -> Result<(), String> {
            self.0.validate(heap, ctx, expected)
        }

        fn decide_inflight(
            &mut self,
            heap: &DefragHeap,
            ctx: &mut Ctx,
            key: u64,
            insert: bool,
        ) -> Option<bool> {
            self.0
                .decide_inflight(heap, ctx, key, insert)
                .map(|done| !done)
        }
    }

    #[test]
    fn a_detectable_queue_passes_only_the_side_it_decides() {
        let mut w = DetectableQueue::new();
        let h = heap(w.registry());
        let mut ctx = h.ctx();
        w.setup(&h, &mut ctx);
        for k in 1..=5 {
            w.insert(&h, &mut ctx, k, 32);
        }
        // The enqueue of 5 is reachable, so it completed: the side holding
        // 5 is judged, whichever side `expected` is.
        let (pre, post) = (set(1..=4), set(1..=5));
        check_slot(&mut w, &h, &mut ctx, &pre, op(true, 5)).expect("decided: it happened");
        check_slot(&mut w, &h, &mut ctx, &post, op(true, 5)).expect("decided: it happened");
        // Deciding the other way fails although `post` is what is held.
        let mut contrary = Contrary(w);
        let err = check_slot(&mut contrary, &h, &mut ctx, &post, op(true, 5))
            .expect_err("only the decided side may pass");
        assert!(err.contains("insert of key 0x5 did not happen"), "{err}");
    }
}
