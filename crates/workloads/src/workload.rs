//! The workload abstraction the driver and fault injector run against.

use std::collections::BTreeSet;

use ffccd::DefragHeap;
use ffccd_pmem::Ctx;
use ffccd_pmop::{PmPtr, TypeRegistry, OBJ_HEADER_BYTES};

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

/// Whether `ptr`'s header and first `len` payload bytes lie in the pool's
/// data region: a crash image can hold any bits in a reference slot, so a
/// validator checks a pointer with this before reading through it.
pub(crate) fn in_data(heap: &DefragHeap, ptr: PmPtr, len: u64) -> bool {
    let layout = heap.pool().layout();
    ptr.offset() >= layout.data_start + OBJ_HEADER_BYTES && ptr.offset() + len <= layout.total_bytes
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
