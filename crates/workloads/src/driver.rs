//! The evaluation driver: runs the paper's §6 op mix — an insertion init
//! phase, then alternating delete / insert / delete phases — while pumping
//! concurrent defragmentation and sampling the fragmentation metrics.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use ffccd::{validate_heap, DefragConfig, DefragHeap, GcStatsSnapshot, Scheme};
use ffccd_pmem::{Ctx, MachineConfig, ThreadCrashArm, ThreadCrashUnwind, THREAD_CRASH_OBSERVE};
use ffccd_pmop::{PmPtr, PoolConfig, TypeDesc, TypeId, TypeRegistry};

use crate::util::{KeyGen, LiveKeys};
use crate::workload::{check_slot, Workload};

/// The §6 op mix: `init` insertions, then `phases` alternating phases
/// (delete, insert, delete, …) of `phase_ops` operations each.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseMix {
    /// Initial insertions (paper: 5 M, scaled down).
    pub init: usize,
    /// Operations per phase (paper: 4 M, scaled down).
    pub phase_ops: usize,
    /// Number of alternating phases (paper: 3 — delete, insert, delete).
    pub phases: usize,
}

impl PhaseMix {
    /// The paper's mix scaled by `1/scale` (e.g. `scale = 500` → 10 000
    /// init inserts, 8 000 ops per phase).
    pub fn paper_scaled(scale: usize) -> Self {
        PhaseMix {
            init: 5_000_000 / scale,
            phase_ops: 4_000_000 / scale,
            phases: 3,
        }
    }

    /// A tiny mix for unit tests.
    pub fn tiny() -> Self {
        PhaseMix {
            init: 400,
            phase_ops: 300,
            phases: 3,
        }
    }

    /// Ops each of `threads` mutators runs: an equal slice of the mix, so
    /// a run executes `threads` times this many ops in all (the remainder
    /// of an uneven split is dropped).
    pub fn per_thread_ops(&self, threads: usize) -> usize {
        (self.init + self.phase_ops * self.phases) / threads
    }
}

/// A fragmentation sample is recorded every this many ops.
pub const SAMPLE_EVERY: u64 = 64;

/// Objects the GC relocates per pump (models the concurrent GC thread's
/// progress between application ops).
pub const GC_BATCH: usize = 32;

/// Full driver configuration.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Defragmentation scheme + thresholds.
    pub defrag: DefragConfig,
    /// Pool geometry.
    pub pool: PoolConfig,
    /// Inclusive value-size range (paper: 128-byte values; Redis 240–492).
    pub value_size: (usize, usize),
    /// Operation mix.
    pub mix: PhaseMix,
    /// Seed for keys and machine.
    pub seed: u64,
    /// How the mutator threads take turns (a single thread needs none).
    pub schedule: MtSchedule,
}

/// Scheduling discipline for the multi-threaded driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MtSchedule {
    /// Free-running mutators: no global turn lock anywhere on the op path.
    /// Threads race over the banked engine, the striped pool allocator and
    /// the relocation stripes; op windows genuinely overlap. Timing-
    /// dependent, so not byte-deterministic — correctness comes from the
    /// post-run per-slot checker instead.
    Free,
    /// Seeded turn scheduler: a PRNG seeded with this value picks which
    /// thread executes each operation, totally ordering all engine traffic.
    /// Byte-deterministic replay even over a banked engine — the
    /// determinism and interleaving tests run in this mode, and an
    /// [`OpHook`] sees every op boundary.
    Seeded(u64),
}

impl DriverConfig {
    /// A sane default around `scheme`: 32 MiB pool, 4 KiB pages, 128-byte
    /// values, paper mix at 1/500 scale.
    pub fn new(scheme: Scheme) -> Self {
        DriverConfig {
            defrag: match scheme {
                Scheme::Baseline => DefragConfig::baseline(),
                s => DefragConfig::normal(s),
            },
            pool: PoolConfig {
                data_bytes: 32 << 20,
                os_page_size: 4096,
                machine: MachineConfig::default(),
            },
            value_size: (128, 128),
            mix: PhaseMix::paper_scaled(500),
            seed: 0xFFCCD,
            schedule: MtSchedule::Free,
        }
    }
}

/// One fragmentation sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sample {
    /// Operation index at sampling time.
    pub op: u64,
    /// Committed footprint bytes.
    pub footprint: u64,
    /// Live bytes.
    pub live: u64,
}

/// Everything a run produced (the raw material of Tables 3/4 and Figures
/// 14/15).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Scheme that ran.
    pub scheme: Scheme,
    /// Operations executed (init + phases).
    pub ops: u64,
    /// Mean committed footprint over all samples (bytes).
    pub avg_footprint: f64,
    /// Mean live bytes over all samples.
    pub avg_live: f64,
    /// Mean fragmentation ratio over all samples.
    pub avg_frag: f64,
    /// Application-thread simulated cycles (read barriers included).
    pub app_cycles: u64,
    /// GC-driver simulated cycles (the concurrent collector thread).
    pub gc_driver_cycles: u64,
    /// GC phase breakdown.
    pub gc: GcStatsSnapshot,
    /// Fragmentation time series.
    pub samples: Vec<Sample>,
    /// Per-op application latency maxima (cycles): (p50, p90, p99, max).
    pub latency: (u64, u64, u64, u64),
}

impl RunResult {
    /// Closes a run over `heap` from its threads' outcomes: averages the
    /// fragmentation samples (or reads the pool once when there are none),
    /// snapshots the GC counters and takes the per-op latencies' (p50, p90,
    /// p99, max).
    fn collect(workload: String, heap: &DefragHeap, threads: &[Mutator<'_>]) -> Self {
        let mut samples: Vec<Sample> = threads.iter().flat_map(|t| t.samples.clone()).collect();
        samples.sort_unstable_by_key(|s| s.op);
        let mut latencies: Vec<u64> = threads.iter().flat_map(|t| t.latencies.clone()).collect();
        latencies.sort_unstable();
        let pct = |p: f64| -> u64 {
            let at = (latencies.len().saturating_sub(1) as f64 * p) as usize;
            latencies.get(at).copied().unwrap_or(0)
        };
        let (avg_footprint, avg_live) = if samples.is_empty() {
            let st = heap.pool().stats();
            (st.footprint_bytes as f64, st.live_bytes as f64)
        } else {
            (
                samples.iter().map(|s| s.footprint as f64).sum::<f64>() / samples.len() as f64,
                samples.iter().map(|s| s.live as f64).sum::<f64>() / samples.len() as f64,
            )
        };
        RunResult {
            workload,
            scheme: heap.scheme(),
            ops: threads.iter().map(|t| t.oplog.len() as u64).sum(),
            avg_footprint,
            avg_live,
            avg_frag: if avg_live > 0.0 {
                avg_footprint / avg_live
            } else {
                1.0
            },
            app_cycles: threads.iter().map(|t| t.ctx.cycles()).sum(),
            gc_driver_cycles: threads.iter().map(|t| t.gc_ctx.cycles()).sum(),
            gc: heap.gc_stats(),
            samples,
            latency: (pct(0.5), pct(0.9), pct(0.99), pct(1.0)),
        }
    }

    /// Footprint reduction versus a baseline run, as the paper's Equation 1
    /// fragmentation-reduction percentage.
    pub fn fragmentation_reduction_vs(&self, baseline: &RunResult) -> f64 {
        let reduction = baseline.avg_footprint - self.avg_footprint;
        let over = baseline.avg_footprint - baseline.avg_live;
        if over <= 0.0 {
            0.0
        } else {
            (reduction / over * 100.0).clamp(-100.0, 100.0)
        }
    }

    /// Mean cycles per operation (inverse throughput).
    pub fn cycles_per_op(&self) -> f64 {
        self.app_cycles as f64 / self.ops.max(1) as f64
    }
}

/// Per-operation hook of a deterministic run — one thread, or
/// [`MtSchedule::Seeded`] at any thread count. It runs after every op and
/// its GC pump, on the thread whose turn it is, with the 1-based global op
/// index, the heap, that thread's index and live key set, and the op it
/// just ran (so the live set before the op is the one passed with `op.key`
/// toggled). Returning `false` stops every thread at its next turn; the
/// run still winds down (`exit()`) and runs its checkers over the logs as
/// they stand.
pub type OpHook<'h> = Option<&'h mut HookFn<'h>>;

/// The function behind an [`OpHook`].
pub type HookFn<'h> = dyn FnMut(u64, &DefragHeap, usize, &LiveKeys, OpRecord) -> bool + Send + 'h;

/// Extends a workload's type registry with the multi-threaded driver's
/// root-directory type: one 8-byte reference slot per thread, registered
/// *after* the workload's own types so their hard-coded [`TypeId`]s stay
/// valid. Returns the extended registry and the directory's id. A
/// one-thread run has no directory: `reg` comes back unchanged, with the
/// id a directory would take.
///
/// Crash images captured from a multi-threaded run must be recovered with
/// this same extended registry — the heap walker fails loudly on type ids
/// it does not know.
pub fn mt_registry(mut reg: TypeRegistry, threads: usize) -> (TypeRegistry, TypeId) {
    let id = TypeId(reg.len() as u32);
    if threads > 1 {
        let offsets: Vec<u32> = (0..threads as u32).map(|i| i * 8).collect();
        reg.register(TypeDesc::new("mt_root_dir", threads as u32 * 8, &offsets));
    }
    (reg, id)
}

/// One completed structure op: an entry of a mutator thread's operation
/// log, replayed by the post-run checker to reconstruct the expected key
/// set of the thread's root-directory slot, and what an [`OpHook`] is
/// told the op was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpRecord {
    /// Insert (of a fresh key) or delete (of a live one).
    pub insert: bool,
    /// The key inserted or deleted.
    pub key: u64,
    /// For deletes: what the structure reported. Every driver delete
    /// targets a key the thread itself inserted under its own slot, so a
    /// miss means another thread's traffic corrupted the structure.
    pub found: bool,
}

/// One injected per-thread kill: `victim` dies at its `kill_site`-th
/// durability event (1-based ordinal over the thread's combined
/// application + GC engine traffic — the same `(seed, site_id)` selection
/// discipline as the whole-machine crash sweeps in `sites.rs`). Under
/// [`MtSchedule::Seeded`] the ordinal stream is a pure function of the run
/// seed, so a failing kill replays forever from its
/// `(seed, kill_site, victim)` triple.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadKill {
    /// Thread index to kill (`0..threads`).
    pub victim: usize,
    /// Durability-event ordinal the kill fires at (1-based).
    pub kill_site: u64,
}

/// A set of injected thread crashes for one [`run_mt_faulted`] run: kill K
/// of the N mutator threads at sampled sites while the survivors keep
/// running against the live heap. An empty plan is the campaign's
/// *reference run* — nothing dies, but every thread's durability-event
/// total is measured so kill sites can be sampled from the real range.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadFaultPlan {
    /// The kills to inject (at most one per victim; the first wins).
    pub kills: Vec<ThreadKill>,
}

impl ThreadFaultPlan {
    /// A plan killing exactly one thread.
    pub fn single(victim: usize, kill_site: u64) -> Self {
        ThreadFaultPlan {
            kills: vec![ThreadKill { victim, kill_site }],
        }
    }
}

/// What one injected kill actually did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VictimReport {
    /// The planned victim thread.
    pub victim: usize,
    /// The planned kill site (durability-event ordinal).
    pub kill_site: u64,
    /// Whether the kill fired (the thread may complete its ops first).
    pub fired: bool,
    /// The operation the victim died inside, if it died mid-op:
    /// `(insert, key)`. `None` with `fired` means it died in the GC pump
    /// or between ops — no structure op was in flight.
    pub inflight: Option<(bool, u64)>,
    /// Completed (logged) operations before death.
    pub ops_completed: u64,
}

/// Everything a thread-crash run produced: the usual metrics, per-kill
/// reports, and each thread's observed durability-event total (the
/// sampling range for kill sites).
#[derive(Clone, Debug)]
pub struct ThreadCrashOutcome {
    /// Run metrics over survivors plus the victims' pre-death work.
    pub result: RunResult,
    /// One report per planned kill.
    pub victims: Vec<VictimReport>,
    /// Durability events observed per thread (index = thread id).
    pub events_per_thread: Vec<u64>,
}

/// State of the [`MtSchedule::Seeded`] turn scheduler: the PRNG hands the
/// turn to a thread weighted by its remaining ops, so the interleaving
/// stays balanced and every schedule is a pure function of the seed.
struct SeededTurns {
    rng: SmallRng,
    remaining: Vec<usize>,
    current: usize,
}

impl SeededTurns {
    fn new(seed: u64, threads: usize, per_thread: usize) -> Self {
        let mut turns = SeededTurns {
            rng: SmallRng::seed_from_u64(seed),
            remaining: vec![per_thread; threads],
            current: 0,
        };
        turns.pass();
        turns
    }

    /// Hands the turn to a thread drawn by its remaining ops; keeps it
    /// when no ops remain.
    fn pass(&mut self) {
        let total: usize = self.remaining.iter().sum();
        if total == 0 {
            return;
        }
        let mut r = self.rng.gen_range(0..total);
        for (tid, &n) in self.remaining.iter().enumerate() {
            if r < n {
                self.current = tid;
                return;
            }
            r -= n;
        }
    }

    /// Retires one op of the current holder and picks the next turn.
    fn advance(&mut self) {
        self.remaining[self.current] -= 1;
        self.pass();
    }

    /// Removes a dead thread from the schedule: its remaining turns are
    /// cancelled and, if it held the current turn, the turn moves on.
    /// Without this every survivor would eventually park forever waiting
    /// for the victim's next turn.
    fn retire_thread(&mut self, tid: usize) {
        self.remaining[tid] = 0;
        if self.current == tid {
            self.pass();
        }
    }
}

/// Silences the default panic-hook report for [`ThreadCrashUnwind`]
/// payloads (an injected kill is an expected, caught event — thousands
/// fire per campaign); every other panic keeps the previous hook.
fn install_quiet_thread_crash_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<ThreadCrashUnwind>() {
                return;
            }
            prev(info);
        }));
    });
}

/// A fresh heap for `cfg`: its pool geometry with the machine seeded from
/// the run seed.
fn create_heap(cfg: &DriverConfig, registry: TypeRegistry) -> DefragHeap {
    let pool_cfg = PoolConfig {
        machine: MachineConfig {
            seed: cfg.seed,
            ..cfg.pool.machine.clone()
        },
        ..cfg.pool.clone()
    };
    DefragHeap::create(pool_cfg, registry, cfg.defrag).expect("driver pool creation")
}

/// Runs `workload` under `cfg`, returning the collected metrics.
pub fn run(workload: &mut dyn Workload, cfg: &DriverConfig) -> RunResult {
    let heap = create_heap(cfg, workload.registry());
    run_on(workload, cfg, &heap, &mut None)
}

/// Like [`run`] but against a caller-provided heap, invoking `hook`
/// between operations (crash campaigns drain site captures and note op
/// boundaries there; replays return `false` from the hook to truncate the
/// run at the shortest reproducing op prefix). This is the driver loop's
/// one-thread case on `workload` itself: no root directory, so no
/// per-slot checker.
pub fn run_on(
    workload: &mut dyn Workload,
    cfg: &DriverConfig,
    heap: &DefragHeap,
    hook: &mut OpHook<'_>,
) -> RunResult {
    let name = workload.name().to_owned();
    RunResult::collect(name, heap, &drive(vec![workload], cfg, heap, None, hook))
}

/// Runs one private `workload` instance (from `make`) per application
/// thread, all over one shared heap, plus the concurrent defragmentation
/// work pumped from every thread. There is **no global turn lock on the op
/// path**: under the default [`MtSchedule::Free`] schedule, threads race
/// over the banked engine and the striped pool allocator, serializing only
/// where the simulated hardware or the relocation protocol demands it
/// (engine banks, pool record stripes, relocation stripes).
///
/// Each thread gets a disjoint key stream, its own allocation arena, and
/// its own slot of a root directory object ([`ffccd_pmem::Ctx::root_shard`]
/// — the only thing "shard" means in this crate; the heap itself is one
/// allocator and one GC domain), so every structure op is a genuine
/// concurrent heap exercise without cross-thread key interference. After
/// the run, a per-slot checker replays each thread's op log against
/// [`Workload::validate`] and panics on any divergence — the §7.1 key-set
/// oracle, applied slot by slot.
pub fn run_mt(
    make: &dyn Fn() -> Box<dyn Workload>,
    threads: usize,
    cfg: &DriverConfig,
) -> RunResult {
    let heap = create_heap(cfg, mt_registry(make().registry(), threads).0);
    run_mt_on(make, threads, cfg, &heap, None)
}

/// Like [`run_mt`] but against a caller-provided heap (crash campaigns arm
/// site tracking on it first). The heap **must** have been created with
/// the [`mt_registry`]-extended registry for the same `threads`.
///
/// `_op_progress` is ignored; it stays only because the frozen
/// `benchmark/` passes `None`.
pub fn run_mt_on(
    make: &dyn Fn() -> Box<dyn Workload>,
    threads: usize,
    cfg: &DriverConfig,
    heap: &DefragHeap,
    _op_progress: Option<Arc<AtomicU64>>,
) -> RunResult {
    let workloads = (0..threads.max(1)).map(|_| make()).collect();
    run_mt_hooked(make, workloads, cfg, heap, &mut None)
}

/// [`run_mt_on`] over caller-made instances, one thread per entry of
/// `workloads`, with `hook` at every op boundary (see [`OpHook`]); `make`
/// builds the fresh instances the per-slot checker validates through.
///
/// # Panics
///
/// With a hook under [`MtSchedule::Free`] and more than one thread: a
/// free-running run has no op boundaries.
pub fn run_mt_hooked(
    make: &dyn Fn() -> Box<dyn Workload>,
    workloads: Vec<Box<dyn Workload>>,
    cfg: &DriverConfig,
    heap: &DefragHeap,
    hook: &mut OpHook<'_>,
) -> RunResult {
    run_mt_impl(make, workloads, cfg, heap, None, hook).result
}

/// [`run_mt`] with an injected [`ThreadFaultPlan`]: the planned victims die
/// at their kill sites while the surviving mutators keep running against
/// the live heap and drain normally. The full checker suite then runs —
/// per-slot op-log oracle (with in-flight-op ambiguity, or exact
/// detectability where the workload supports it), [`Workload::validate`],
/// heap validation, the pool free-list audit — and finally the
/// machine restarts from a crash image to verify whole-machine recovery
/// still holds over the orphaned state. Panics on any divergence.
pub fn run_mt_faulted(
    make: &dyn Fn() -> Box<dyn Workload>,
    threads: usize,
    cfg: &DriverConfig,
    plan: &ThreadFaultPlan,
) -> ThreadCrashOutcome {
    let heap = create_heap(cfg, mt_registry(make().registry(), threads).0);
    run_mt_faulted_on(make, threads, cfg, &heap, plan)
}

/// [`run_mt_faulted`] against a caller-provided heap (created with the
/// [`mt_registry`]-extended registry), so tests can capture crash images
/// or inspect pool state after the faulted run and its checkers finish.
pub fn run_mt_faulted_on(
    make: &dyn Fn() -> Box<dyn Workload>,
    threads: usize,
    cfg: &DriverConfig,
    heap: &DefragHeap,
    plan: &ThreadFaultPlan,
) -> ThreadCrashOutcome {
    let workloads = (0..threads.max(1)).map(|_| make()).collect();
    run_mt_impl(make, workloads, cfg, heap, Some(plan), &mut None)
}

/// One mutator thread: its slot of the run, and what its ops leave behind.
struct Mutator<'w> {
    tid: usize,
    workload: &'w mut dyn Workload,
    ctx: Ctx,
    /// The context the thread pumps the collector on.
    gc_ctx: Ctx,
    keys: KeyGen,
    arm: Option<Arc<ThreadCrashArm>>,
    live: LiveKeys,
    oplog: Vec<OpRecord>,
    samples: Vec<Sample>,
    /// App-context cycles each completed op took.
    latencies: Vec<u64>,
    /// `Some` when the thread died to an injected kill.
    died: Option<VictimReport>,
}

/// Sets up thread `tid` of a `threads`-thread run: its contexts, key
/// stream and kill arm, with `workload` set up against its slot.
///
/// One thread is the single-thread driver, bit for bit: it has no root
/// directory (a `None` root shard) and draws keys from the unsalted
/// `KeyGen::new(cfg.seed)`. With N ≥ 2, thread `tid` owns directory slot
/// `tid` and a key stream salted by `(tid + 1)·0x9E37_79B9`.
fn setup_slot<'w>(
    heap: &DefragHeap,
    cfg: &DriverConfig,
    threads: usize,
    tid: usize,
    workload: &'w mut dyn Workload,
    plan: Option<&ThreadFaultPlan>,
) -> Mutator<'w> {
    let (root_shard, key_seed) = if threads == 1 {
        (None, cfg.seed)
    } else {
        let salt = (tid as u64 + 1).wrapping_mul(0x9E37_79B9);
        (Some(tid as u64), cfg.seed ^ salt)
    };
    // A private arena keeps the allocation fast path contention-free.
    let mut ctx = heap.ctx();
    ctx.set_arena(tid as u32);
    ctx.set_root_shard(root_shard);
    workload.setup(heap, &mut ctx);
    let mut gc_ctx = heap.ctx();
    // Arm *after* setup so the kill ordinal counts only main-loop
    // durability events: the reference run and every kill run then see
    // the same event stream, keeping `(seed, kill_site, victim)` triples
    // replayable. Threads without a planned kill get an observe-only arm
    // so the reference run can report each thread's event total (the
    // sampling range for future kill sites). The kill ordinal counts the
    // thread's *combined* app + GC durability events, so the GC context
    // shares the arm.
    let arm = plan.map(|p| {
        install_quiet_thread_crash_hook();
        let kill = p.kills.iter().find(|k| k.victim == tid);
        let a = ThreadCrashArm::new(tid, kill.map_or(THREAD_CRASH_OBSERVE, |k| k.kill_site));
        ctx.arm_thread_crash(&a);
        gc_ctx.arm_thread_crash(&a);
        a
    });
    Mutator {
        tid,
        workload,
        ctx,
        gc_ctx,
        keys: KeyGen::new(key_seed),
        arm,
        live: LiveKeys::new(),
        oplog: Vec::new(),
        samples: Vec::new(),
        latencies: Vec::new(),
        died: None,
    }
}

/// What the mutator threads of one run share, by reference.
struct Shared<'a, 'h> {
    heap: &'a DefragHeap,
    cfg: &'a DriverConfig,
    per_thread_ops: usize,
    /// `SAMPLE_EVERY × threads`: ops between fragmentation samples.
    stride: u64,
    /// The [`MtSchedule::Seeded`] turn order of N ≥ 2 threads.
    turns: Option<(Mutex<SeededTurns>, Condvar)>,
    /// Completed ops over all threads (the sampling cadence, the hook's op).
    global_op: AtomicU64,
    /// GC-trigger duty holder: thread 0 owns triggering, but a dead thread
    /// 0 must hand the duty on or the heap would never defragment again.
    /// Normal runs only ever read the initial 0.
    trigger_owner: AtomicUsize,
    /// Only deterministic runs have one, and only the turn holder calls
    /// it, so the lock is never contended.
    hook: Option<Mutex<&'a mut HookFn<'h>>>,
    /// Set when the hook returns `false` or a thread panics.
    stopped: AtomicBool,
}

/// Stops the run when its thread unwinds with a real panic (an injected
/// kill is caught inside the op): no seeded thread parks for good on a
/// turn the panicked one holds, and `scope` re-raises the panic.
struct StopOnPanic<'s, 'a, 'h>(&'s Shared<'a, 'h>);

impl Drop for StopOnPanic<'_, '_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stopped.store(true, Ordering::Relaxed);
            if let Some((lock, cv)) = &self.0.turns {
                // Under the lock, so no waiter misses the store.
                let _g = lock.lock().unwrap_or_else(PoisonError::into_inner);
                cv.notify_all();
            }
        }
    }
}

/// The driver loop: one mutator thread per entry of `workloads` — thread 0
/// on the calling thread, the rest scoped — all over `heap`, then the
/// wind-down. Each thread runs a 1/threads slice of the §6 mix with the
/// same *shape*: the init fraction inserts, then alternating
/// delete/insert/delete phases; a delete with no live key inserts instead.
fn drive<'w>(
    mut workloads: Vec<&'w mut dyn Workload>,
    cfg: &DriverConfig,
    heap: &DefragHeap,
    plan: Option<&ThreadFaultPlan>,
    hook: &mut OpHook<'_>,
) -> Vec<Mutator<'w>> {
    let threads = workloads.len();
    let per_thread_ops = cfg.mix.per_thread_ops(threads);
    // Seeded mode wraps each whole op in a PRNG-ordered turn; Free mode
    // has no gate at all. One thread needs no turns: its program order is
    // the op order.
    let turns = match cfg.schedule {
        MtSchedule::Seeded(seed) if threads > 1 => {
            let turns = SeededTurns::new(seed, threads, per_thread_ops);
            Some((Mutex::new(turns), Condvar::new()))
        }
        _ => None,
    };
    assert!(
        hook.is_none() || threads == 1 || turns.is_some(),
        "an op hook needs a deterministic run: one thread or MtSchedule::Seeded"
    );
    if threads > 1 {
        let dir_type = mt_registry(workloads[0].registry(), threads).1;
        let mut ctx = heap.ctx();
        let dir = heap
            .alloc(&mut ctx, dir_type, threads as u64 * 8)
            .expect("mt root directory");
        for i in 0..threads as u64 {
            heap.store_ref(&mut ctx, dir, i * 8, PmPtr::NULL);
        }
        heap.set_root(&mut ctx, dir);
    }
    // Setup runs on the calling thread, so a workload's volatile-index
    // construction needs no extra synchronization.
    let mut mutators: Vec<Mutator<'w>> = workloads
        .drain(..)
        .enumerate()
        .map(|(tid, w)| setup_slot(heap, cfg, threads, tid, w, plan))
        .collect();
    let shared = Shared {
        heap,
        cfg,
        per_thread_ops,
        stride: SAMPLE_EVERY * threads as u64,
        turns,
        global_op: AtomicU64::new(0),
        trigger_owner: AtomicUsize::new(0),
        hook: hook.as_deref_mut().map(Mutex::new),
        stopped: AtomicBool::new(false),
    };
    std::thread::scope(|s| {
        let shared = &shared;
        let (first, others) = mutators.split_first_mut().expect("at least one thread");
        let others: Vec<_> = others
            .iter_mut()
            .map(|m| s.spawn(move || m.mutate(shared)))
            .collect();
        first.mutate(shared);
        for h in others {
            h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        }
    });
    // Wind down: let any in-flight cycle terminate (exit(), §5). One
    // thread charges it to its GC context, as the single-thread driver
    // always has; N threads to an uncounted context of its own.
    match &mut mutators[..] {
        [one] => heap.exit(&mut one.gc_ctx),
        _ => heap.exit(&mut heap.ctx()),
    }
    mutators
}

impl Mutator<'_> {
    /// The thread's op loop.
    fn mutate(&mut self, shared: &Shared<'_, '_>) {
        let (tid, heap, mix) = (self.tid, shared.heap, shared.cfg.mix);
        let (lo, hi) = shared.cfg.value_size;
        let total = mix.init + mix.phase_ops * mix.phases;
        let _stop = StopOnPanic(shared);
        for op in 0..shared.per_thread_ops {
            // In seeded mode, park until the scheduler hands this thread
            // the turn; the guard is held across the whole op so every
            // engine access is totally ordered by the PRNG. Only a real
            // panic poisons it, and that ends the run (`StopOnPanic`).
            let mut turn = shared.turns.as_ref().map(|(lock, cv)| {
                let mut st = lock.lock().unwrap_or_else(PoisonError::into_inner);
                while st.current != tid && !shared.stopped.load(Ordering::Relaxed) {
                    st = cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                (st, cv)
            });
            if shared.stopped.load(Ordering::Relaxed) {
                break;
            }
            let scaled = op * total / shared.per_thread_ops;
            let insert = scaled < mix.init
                || (scaled - mix.init) / mix.phase_ops.max(1) % 2 == 1
                || self.live.is_empty();
            // Decide the op before entering the (possibly dying) body, so
            // the victim path can name the exact in-flight op for the
            // checker.
            let (key, value_size) = if insert {
                (self.keys.fresh(), self.keys.value_size(lo, hi))
            } else {
                (self.keys.pick_live(&self.live).expect("a live key"), 0)
            };
            let logged_before = self.oplog.len();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let t0 = self.ctx.cycles();
                heap.critical(|| {
                    let found = if insert {
                        self.workload.insert(heap, &mut self.ctx, key, value_size);
                        self.live.insert(key);
                        true
                    } else {
                        let found = self.workload.delete(heap, &mut self.ctx, key);
                        debug_assert!(found, "driver only deletes live keys");
                        self.live.remove(key);
                        found
                    };
                    self.oplog.push(OpRecord { insert, key, found });
                });
                self.latencies.push(self.ctx.cycles() - t0);
                // Every thread lends time to the collector on a dedicated
                // context — the interleaved-concurrency model; a starvable
                // free-running GC thread would under-collect on small
                // hosts. Only the trigger owner (thread 0 until it dies)
                // triggers.
                if heap.in_cycle() {
                    heap.step_compaction(&mut self.gc_ctx, GC_BATCH);
                } else if tid == shared.trigger_owner.load(Ordering::Relaxed)
                    && (op + 1).is_multiple_of(32)
                {
                    heap.maybe_defrag(&mut self.gc_ctx);
                }
            }));
            if let Err(payload) = caught {
                // Only an injected kill is caught; everything else
                // (assertion failures inside the op) keeps unwinding.
                let unwind: Box<ThreadCrashUnwind> = payload
                    .downcast()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p));
                // Hand GC-trigger duty to the next thread and return the
                // dead thread's allocation arena to service so its active
                // bump frames don't hold capacity hostage. Both land
                // *before* the turn is surrendered: a woken survivor must
                // observe the handoff and the recycled arena at a fixed
                // point in the turn order, or two seeded replays of the
                // same kill diverge on who pumps the GC next.
                let _ = shared.trigger_owner.compare_exchange(
                    tid,
                    tid + 1,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
                heap.retire_arena(tid as u32);
                if let Some((st, cv)) = turn.as_mut() {
                    st.retire_thread(tid);
                    cv.notify_all();
                }
                self.died = Some(VictimReport {
                    victim: tid,
                    kill_site: unwind.events,
                    fired: true,
                    // The op body appends to the log only after the
                    // structure op returns, so a short log means the kill
                    // landed *inside* the op — the one op whose outcome the
                    // checker must treat as ambiguous (or decide exactly,
                    // for detectable structures).
                    inflight: (self.oplog.len() == logged_before).then_some((insert, key)),
                    ops_completed: self.oplog.len() as u64,
                });
                break;
            }
            let g = shared.global_op.fetch_add(1, Ordering::AcqRel) + 1;
            if g.is_multiple_of(shared.stride) {
                let st = heap.pool().stats();
                self.samples.push(Sample {
                    op: g,
                    footprint: st.footprint_bytes,
                    live: st.live_bytes,
                });
            }
            if let Some(hook) = &shared.hook {
                let done = *self.oplog.last().expect("the op just logged");
                if !(*hook.lock().expect("op hook"))(g, heap, tid, &self.live, done) {
                    shared.stopped.store(true, Ordering::Relaxed);
                }
            }
            if let Some((st, cv)) = turn.as_mut() {
                st.advance();
                cv.notify_all();
            }
        }
    }
}

/// The driver loop over `workloads`, then the checkers: the per-slot
/// key-set oracle and the pool free-list audit, and for a faulted run heap
/// validation and a whole-machine restart.
fn run_mt_impl(
    make: &dyn Fn() -> Box<dyn Workload>,
    mut workloads: Vec<Box<dyn Workload>>,
    cfg: &DriverConfig,
    heap: &DefragHeap,
    plan: Option<&ThreadFaultPlan>,
    hook: &mut OpHook<'_>,
) -> ThreadCrashOutcome {
    let name = workloads[0].name().to_owned();
    let refs = workloads
        .iter_mut()
        .map(|w| -> &mut dyn Workload { w.as_mut() });
    let mutators = drive(refs.collect(), cfg, heap, plan, hook);
    let mut victims: Vec<VictimReport> = mutators.iter().filter_map(|o| o.died).collect();
    if let Some(p) = plan {
        // A kill planned past the thread's last durability event never
        // fires; report it unfired so campaigns can resample instead of
        // mistaking it for a survived bug.
        for k in &p.kills {
            if !victims.iter().any(|v| v.victim == k.victim) {
                victims.push(VictimReport {
                    victim: k.victim,
                    kill_site: k.kill_site,
                    fired: false,
                    inflight: None,
                    ops_completed: mutators[k.victim].oplog.len() as u64,
                });
            }
        }
    }
    // Every checker failure names the run it judged: a free-running run
    // has no replay, so its message is all a flaky failure leaves.
    let kills: Vec<String> = (plan.iter().flat_map(|p| &p.kills))
        .map(|k| format!("{}@{}", k.victim, k.kill_site))
        .collect();
    let fail =
        |what: String| -> ! { panic!("{}, kills [{}]: {what}", heap.scheme(), kills.join(", ")) };
    check_slots(make, heap, &mutators, &victims).unwrap_or_else(|e| fail(e));
    // `AllocInner::purge` skips the free-list scan on the strength of a
    // `debug_assert!`; every mt run audits what that rests on.
    heap.pool()
        .check_free_list()
        .unwrap_or_else(|e| fail(format!("free-list audit failed: {e}")));
    if plan.is_some() {
        // Full structural validation of the live heap over the orphaned
        // state, then a whole-machine restart: a thread crash must not
        // cost the *machine* its crash consistency, so recovery from a
        // crash image taken after the survivors drained has to succeed
        // and agree with the same per-slot oracle.
        if let Err(errs) = validate_heap(heap) {
            fail(format!(
                "thread-crash live heap validation failed: {errs:?}"
            ));
        }
        let image = heap.engine().crash_image();
        let (reg, _) = mt_registry(make().registry(), mutators.len());
        let (heap2, _report) = DefragHeap::open_recovered(&image, reg, cfg.defrag)
            .unwrap_or_else(|e| fail(format!("whole-machine restart after thread crashes: {e}")));
        if let Err(errs) = validate_heap(&heap2) {
            fail(format!("post-restart heap validation failed: {errs:?}"));
        }
        check_slots(make, &heap2, &mutators, &victims)
            .unwrap_or_else(|e| fail(format!("after restart: {e}")));
    }
    ThreadCrashOutcome {
        result: RunResult::collect(name, heap, &mutators),
        victims,
        events_per_thread: mutators
            .iter()
            .map(|o| o.arm.as_ref().map_or(0, |a| a.events()))
            .collect(),
    }
}

/// Post-run checker for multi-threaded runs (the §7.1 key-set oracle,
/// applied per root-directory slot; a one-thread run has none): replays
/// each thread's op log into that slot's expected key set, cross-checks
/// it against the thread's own live set, and judges the persistent
/// structure with [`check_slot`] through a fresh instance and a context
/// bound to the slot. Returns the first divergence — a free-running mt
/// run has no deterministic replay to fall back on, so the checker *is*
/// its correctness story.
///
/// Survivors (every thread, when `victims` is empty) are checked
/// strictly, while a victim killed *inside* a structure op gets the one
/// admissible ambiguity — the in-flight op either fully happened or fully
/// didn't, unless the structure is detectable and decides which.
fn check_slots(
    make: &dyn Fn() -> Box<dyn Workload>,
    heap: &DefragHeap,
    threads: &[Mutator<'_>],
    victims: &[VictimReport],
) -> Result<(), String> {
    for (tid, t) in threads.iter().enumerate() {
        let Some(shard) = t.ctx.root_shard() else {
            continue;
        };
        let mut expected: BTreeSet<u64> = BTreeSet::new();
        for r in &t.oplog {
            // A found delete of a logged key is the only admissible delete:
            // a miss means another thread's traffic corrupted the slot.
            let follows = if r.insert {
                expected.insert(r.key)
            } else {
                r.found && expected.remove(&r.key)
            };
            if !follows {
                return Err(format!(
                    "thread {tid}: {r:?} contradicts the thread's own op log \
                     (duplicate insert, or a delete missing or never inserted)"
                ));
            }
        }
        let live = t.live.to_btree_set();
        if expected != live {
            let logged_only: Vec<_> = expected.difference(&live).take(8).collect();
            let live_only: Vec<_> = live.difference(&expected).take(8).collect();
            return Err(format!(
                "thread {tid}: op log disagrees with the thread's live set \
                 (logged only: {logged_only:?}, live only: {live_only:?})"
            ));
        }
        let mut ctx = heap.ctx();
        ctx.set_root_shard(Some(shard));
        let mut w = make();
        w.reopen(heap, &mut ctx);
        // The logged set is exact, but for the op a victim died inside (not
        // one that died between ops or in the GC pump).
        let inflight = victims
            .iter()
            .find(|v| v.victim == tid && v.fired)
            .and_then(|v| v.inflight)
            .map(|(insert, key)| OpRecord {
                insert,
                key,
                found: false,
            });
        check_slot(&mut *w, heap, &mut ctx, &expected, inflight)
            .map_err(|e| format!("mt post-run checker, thread {tid}: {e}"))?;
    }
    Ok(())
}
