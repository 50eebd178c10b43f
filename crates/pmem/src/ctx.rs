//! Per-thread execution context: cycle counter, stats, private TLB.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::cache::Evicted;
use crate::stats::ThreadStats;
use crate::timing::MachineConfig;
use crate::tlb::Tlb;

/// Upper bound on pooled scratch buffers kept per context; past this,
/// returned buffers are simply dropped.
const BUF_POOL_CAP: usize = 8;

/// Sentinel `kill_at` value: the arm counts durability events but never
/// fires. Campaign reference runs use this to measure each thread's event
/// total before sampling kill sites from it.
pub const THREAD_CRASH_OBSERVE: u64 = u64::MAX;

/// Panic payload raised when an armed thread crash fires. The mt driver
/// catches this at the op boundary, treats the thread as dead, and lets the
/// surviving mutators keep running — any other panic is resumed unchanged.
#[derive(Clone, Copy, Debug)]
pub struct ThreadCrashUnwind {
    /// Victim thread index (the arm's identity, echoed for reports).
    pub victim: usize,
    /// Durability-event ordinal (1-based) the kill fired at.
    pub events: u64,
}

/// Arms one simulated thread for an injected crash.
///
/// Shared (via `Arc`) between the thread's application and GC contexts so
/// the combined stream of durability events — stores, `clwb`s, fences —
/// is counted on one ordinal axis. When the ordinal reaches `kill_at` the
/// engine raises a [`ThreadCrashUnwind`] panic from the event's entry
/// point (before any engine lock is taken, so simulated state stays
/// consistent); the arm fires at most once.
///
/// Selection discipline matches `sites.rs`: under the seeded mt schedule
/// the event ordinals are a pure function of the run seed, so a failing
/// kill is replayable forever from its `(seed, kill_site, victim)` triple.
#[derive(Debug)]
pub struct ThreadCrashArm {
    victim: usize,
    kill_at: u64,
    events: AtomicU64,
    fired: AtomicBool,
}

impl ThreadCrashArm {
    /// Creates an arm killing `victim` at durability event `kill_at`
    /// (1-based; [`THREAD_CRASH_OBSERVE`] never fires, only counts).
    pub fn new(victim: usize, kill_at: u64) -> Arc<Self> {
        Arc::new(ThreadCrashArm {
            victim,
            kill_at: kill_at.max(1),
            events: AtomicU64::new(0),
            fired: AtomicBool::new(false),
        })
    }

    /// The victim thread index this arm identifies.
    pub fn victim(&self) -> usize {
        self.victim
    }

    /// Durability events observed so far across all contexts sharing the
    /// arm.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Whether the kill has fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }

    /// Counts one durability event; `true` exactly once, when the ordinal
    /// hits `kill_at`.
    #[inline]
    pub(crate) fn tick(&self) -> bool {
        let n = self.events.fetch_add(1, Ordering::Relaxed) + 1;
        n >= self.kill_at && !self.fired.swap(true, Ordering::AcqRel)
    }
}

/// Execution context for one simulated hardware thread (core).
///
/// Every engine operation takes `&mut Ctx` and charges cycles into
/// [`Ctx::cycles`]; higher layers attribute phases (marking vs barrier vs
/// copy) by sampling the counter around calls.
///
/// # Example
///
/// ```
/// use ffccd_pmem::{Ctx, MachineConfig};
/// let mut ctx = Ctx::new(&MachineConfig::default());
/// ctx.charge(100);
/// let t0 = ctx.cycles();
/// ctx.charge(50);
/// assert_eq!(ctx.cycles() - t0, 50);
/// ```
pub struct Ctx {
    cycles: u64,
    /// Event counters for this thread.
    pub stats: ThreadStats,
    /// This core's TLB.
    pub tlb: Tlb,
    /// `clwb`s issued since this thread's last `sfence`: the fence must
    /// wait for each of them to reach the persistence domain, so its cost
    /// scales with this count (reset by the engine at every fence).
    pub unfenced_clwbs: u64,
    /// Globally unique tag identifying this core's writebacks in the
    /// engine's in-flight stage (an `sfence` only drains its own core's
    /// writebacks, like the real instruction). The tag *value* never
    /// influences simulated behaviour — only equality does — so the
    /// process-global counter does not break run-to-run determinism.
    pub(crate) tag: u64,
    /// Bitmask of engine banks this core pushed in-flight writebacks into
    /// since its last `sfence`; the fence only visits these banks instead
    /// of sweeping all of them.
    pub(crate) dirty_banks: u64,
    /// Reusable eviction scratch so the per-access fill path does not
    /// allocate a fresh `Vec` on every cache miss.
    pub(crate) evict_scratch: Vec<Evicted>,
    /// Pooled byte buffers for [`take_buf`](Ctx::take_buf)/[`put_buf`](Ctx::put_buf).
    buf_pool: Vec<Vec<u8>>,
    /// Allocation arena this core allocates from (see the pool's
    /// per-arena active frames). Arena 0 is the default and reproduces
    /// single-arena behaviour exactly.
    arena: u32,
    /// Slot index in the heap's root directory this core's workload root
    /// lives in (`None`: the plain global root). Only the multi-threaded
    /// driver sets this; the value is volatile per-thread config, not
    /// simulated state.
    root_shard: Option<u64>,
    /// Injected-crash arm for the thread this context belongs to (`None`:
    /// normal execution, zero overhead on the event path beyond one
    /// branch). Shared with the thread's other contexts.
    crash_arm: Option<Arc<ThreadCrashArm>>,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("cycles", &self.cycles)
            .field("stats", &self.stats)
            .field("unfenced_clwbs", &self.unfenced_clwbs)
            .finish_non_exhaustive()
    }
}

static NEXT_TAG: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl Ctx {
    /// Creates a context with a fresh TLB sized from `cfg`.
    pub fn new(cfg: &MachineConfig) -> Self {
        Ctx {
            cycles: 0,
            stats: ThreadStats::default(),
            tlb: Tlb::new(cfg),
            unfenced_clwbs: 0,
            tag: NEXT_TAG.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            dirty_banks: 0,
            evict_scratch: Vec::new(),
            buf_pool: Vec::new(),
            arena: 0,
            root_shard: None,
            crash_arm: None,
        }
    }

    /// Arms this context for an injected thread crash (see
    /// [`ThreadCrashArm`]). Install the same arm on every context the
    /// thread drives so the event ordinal covers its whole durability
    /// stream.
    pub fn arm_thread_crash(&mut self, arm: &Arc<ThreadCrashArm>) {
        self.crash_arm = Some(arm.clone());
    }

    /// The installed crash arm, if any.
    pub fn thread_crash_arm(&self) -> Option<&Arc<ThreadCrashArm>> {
        self.crash_arm.as_ref()
    }

    /// Counts one durability event against the crash arm; `true` when the
    /// kill must fire now (the engine raises the unwind so it can stamp
    /// the site first). No-op without an arm.
    #[inline]
    pub(crate) fn durability_tick(&self) -> bool {
        match &self.crash_arm {
            None => false,
            Some(arm) => arm.tick(),
        }
    }

    /// The allocation arena this context allocates from (default 0).
    pub fn arena(&self) -> u32 {
        self.arena
    }

    /// Routes this context's allocations through arena `a` (the mt driver
    /// gives each thread its own arena so bump allocation does not contend
    /// on one active frame per class).
    pub fn set_arena(&mut self, a: u32) {
        self.arena = a;
    }

    /// This context's root-directory shard, if any.
    pub fn root_shard(&self) -> Option<u64> {
        self.root_shard
    }

    /// Binds this context to slot `shard` of the heap's root directory.
    pub fn set_root_shard(&mut self, shard: Option<u64>) {
        self.root_shard = shard;
    }

    /// Borrows a zeroed scratch buffer of `len` bytes from this context's
    /// pool (allocating only when the pool is empty). Return it with
    /// [`Ctx::put_buf`] once done so hot copy loops stop churning the
    /// allocator.
    pub fn take_buf(&mut self, len: usize) -> Vec<u8> {
        let mut v = self.buf_pool.pop().unwrap_or_default();
        v.clear();
        v.resize(len, 0);
        v
    }

    /// Returns a scratch buffer to the pool (bounded; excess is dropped).
    pub fn put_buf(&mut self, mut v: Vec<u8>) {
        if self.buf_pool.len() < BUF_POOL_CAP {
            v.clear();
            self.buf_pool.push(v);
        }
    }

    /// Total cycles consumed by this thread so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Charges `n` extra cycles (compute work outside the memory system).
    pub fn charge(&mut self, n: u64) {
        self.cycles += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let mut ctx = Ctx::new(&MachineConfig::default());
        assert_eq!(ctx.cycles(), 0);
        ctx.charge(7);
        ctx.charge(3);
        assert_eq!(ctx.cycles(), 10);
    }

    #[test]
    fn buf_pool_recycles() {
        let mut ctx = Ctx::new(&MachineConfig::default());
        let mut b = ctx.take_buf(128);
        assert_eq!(b.len(), 128);
        b[0] = 0xff;
        let cap = b.capacity();
        ctx.put_buf(b);
        // The recycled buffer comes back zeroed with its capacity intact.
        let b2 = ctx.take_buf(64);
        assert_eq!(b2.len(), 64);
        assert_eq!(b2[0], 0);
        assert!(b2.capacity() >= cap.min(64));
    }

    #[test]
    fn arm_fires_once_at_its_ordinal() {
        let arm = ThreadCrashArm::new(3, 2);
        let mut ctx = Ctx::new(&MachineConfig::default());
        ctx.arm_thread_crash(&arm);
        assert!(!ctx.durability_tick(), "event 1 of 2");
        assert!(ctx.durability_tick(), "event 2 fires");
        assert!(!ctx.durability_tick(), "an arm fires at most once");
        assert!(arm.fired());
    }

    #[test]
    fn observe_arm_counts_without_firing() {
        let arm = ThreadCrashArm::new(0, THREAD_CRASH_OBSERVE);
        let ctx = {
            let mut ctx = Ctx::new(&MachineConfig::default());
            ctx.arm_thread_crash(&arm);
            ctx
        };
        for _ in 0..100 {
            assert!(!ctx.durability_tick());
        }
        assert_eq!(arm.events(), 100);
        assert!(!arm.fired());
    }
}
