//! The evaluation driver: runs the paper's §6 op mix — an insertion init
//! phase, then alternating delete / insert / delete phases — while pumping
//! concurrent defragmentation and sampling the fragmentation metrics.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use ffccd::{validate_heap, DefragConfig, DefragHeap, GcStatsSnapshot, Scheme};
use ffccd_pmem::{MachineConfig, ThreadCrashArm, ThreadCrashUnwind, THREAD_CRASH_OBSERVE};
use ffccd_pmop::{PmPtr, PoolConfig, TypeDesc, TypeId, TypeRegistry};

use crate::util::{KeyGen, LiveKeys};
use crate::workload::Workload;

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
    /// How `run_mt*` schedules its mutator threads (ignored by the
    /// single-thread runner).
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
    /// determinism and interleaving tests run in this mode.
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
    /// Closes a run over `heap`: averages the fragmentation samples (or
    /// reads the pool once when there are none), snapshots the GC counters
    /// and summarises the per-op latencies.
    fn collect<T: Copy + Ord + Into<u64>>(
        workload: String,
        heap: &DefragHeap,
        ops: u64,
        (app_cycles, gc_driver_cycles): (u64, u64),
        samples: Vec<Sample>,
        latencies: &mut [T],
    ) -> Self {
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
            ops,
            avg_footprint,
            avg_live,
            avg_frag: if avg_live > 0.0 {
                avg_footprint / avg_live
            } else {
                1.0
            },
            app_cycles,
            gc_driver_cycles,
            gc: heap.gc_stats(),
            samples,
            latency: latency_summary(latencies),
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

/// Per-operation hook invoked by [`run_on`] after every operation with the
/// op index (1-based), the heap and the live key set. Returning `false`
/// stops the run early (the heap still winds down through `exit()`).
pub type OpHook<'h> = Option<&'h mut dyn FnMut(u64, &DefragHeap, &LiveKeys) -> bool>;

/// Extends a workload's type registry with the multi-threaded driver's
/// root-directory type: one 8-byte reference slot per thread, registered
/// *after* the workload's own types so their hard-coded [`TypeId`]s stay
/// valid. Returns the extended registry and the directory's id.
///
/// Crash images captured from a multi-threaded run must be recovered with
/// this same extended registry — the heap walker fails loudly on type ids
/// it does not know.
pub fn mt_registry(mut reg: TypeRegistry, threads: usize) -> (TypeRegistry, TypeId) {
    let threads = threads.max(1);
    let offsets: Vec<u32> = (0..threads as u32).map(|i| i * 8).collect();
    let id = reg.register(TypeDesc::new("mt_root_dir", threads as u32 * 8, &offsets));
    (reg, id)
}

/// One entry of a mutator thread's operation log, replayed by the post-run
/// checker to reconstruct the expected key set of the thread's
/// root-directory slot.
#[derive(Clone, Copy, Debug)]
struct OpRecord {
    insert: bool,
    key: u64,
    /// For deletes: what the structure reported. Every driver delete
    /// targets a key the thread itself inserted under its own slot, so a
    /// miss means another thread's traffic corrupted the structure.
    found: bool,
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

    fn kill_site_for(&self, tid: usize) -> Option<u64> {
        self.kills
            .iter()
            .find(|k| k.victim == tid)
            .map(|k| k.kill_site)
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
        let mut rng = SmallRng::seed_from_u64(seed);
        let remaining = vec![per_thread; threads];
        let current = Self::pick(&mut rng, &remaining).unwrap_or(0);
        SeededTurns {
            rng,
            remaining,
            current,
        }
    }

    fn pick(rng: &mut SmallRng, remaining: &[usize]) -> Option<usize> {
        let total: usize = remaining.iter().sum();
        if total == 0 {
            return None;
        }
        let mut r = rng.gen_range(0..total);
        for (tid, &n) in remaining.iter().enumerate() {
            if r < n {
                return Some(tid);
            }
            r -= n;
        }
        None
    }

    /// Retires one op of the current holder and picks the next turn.
    fn advance(&mut self) {
        self.remaining[self.current] -= 1;
        if let Some(next) = Self::pick(&mut self.rng, &self.remaining) {
            self.current = next;
        }
    }

    /// Removes a dead thread from the schedule: its remaining turns are
    /// cancelled and, if it held the current turn, the turn moves on.
    /// Without this every survivor would eventually park forever waiting
    /// for the victim's next turn.
    fn retire_thread(&mut self, tid: usize) {
        self.remaining[tid] = 0;
        if self.current == tid {
            if let Some(next) = Self::pick(&mut self.rng, &self.remaining) {
                self.current = next;
            }
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
    run_mt_impl(make, threads, cfg, heap, None).result
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
    run_mt_impl(make, threads, cfg, heap, Some(plan))
}

/// Per-thread result of one mutator thread (shared between the normal and
/// faulted paths).
struct ThreadOutcome {
    app_cycles: u64,
    gc_cycles: u64,
    live: LiveKeys,
    oplog: Vec<OpRecord>,
    samples: Vec<Sample>,
    /// App-context cycles each completed op took.
    latencies: Vec<u32>,
    /// `Some` when the thread died to an injected kill.
    died: Option<VictimReport>,
    /// Durability events observed (0 when unarmed).
    events: u64,
}

fn run_mt_impl(
    make: &dyn Fn() -> Box<dyn Workload>,
    threads: usize,
    cfg: &DriverConfig,
    heap: &DefragHeap,
    plan: Option<&ThreadFaultPlan>,
) -> ThreadCrashOutcome {
    if plan.is_some() {
        install_quiet_thread_crash_hook();
    }
    let heap = heap.clone();
    let threads = threads.max(1);
    let per_thread_ops = (cfg.mix.init + cfg.mix.phase_ops * cfg.mix.phases) / threads;

    // One private workload instance per thread: structure ops need no
    // workload mutex, because each instance only ever touches its own
    // slice of the key space and its own root-directory slot.
    let mut insts: Vec<Box<dyn Workload>> = (0..threads).map(|_| make()).collect();
    let name = insts[0].name().to_owned();
    // The directory type is registered directly after the workload's own
    // types (see `mt_registry`), so its id is the workload registry's len.
    let dir_type = TypeId(insts[0].registry().len() as u32);
    {
        let mut ctx = heap.ctx();
        let dir = heap
            .alloc(&mut ctx, dir_type, threads as u64 * 8)
            .expect("mt root directory");
        for i in 0..threads as u64 {
            heap.store_ref(&mut ctx, dir, i * 8, PmPtr::NULL);
        }
        heap.set_root(&mut ctx, dir);
    }
    // Per-thread contexts: private arena (allocation fast path contends on
    // nothing) and private root-directory slot. Setup runs on the main
    // thread so a workload's volatile-index construction needs no extra
    // synchronization.
    let mut ctxs: Vec<ffccd_pmem::Ctx> = Vec::with_capacity(threads);
    let mut arms: Vec<Option<Arc<ThreadCrashArm>>> = Vec::with_capacity(threads);
    for (tid, w) in insts.iter_mut().enumerate() {
        let mut ctx = heap.ctx();
        ctx.set_arena(tid as u32);
        ctx.set_root_shard(Some(tid as u64));
        w.setup(&heap, &mut ctx);
        // Arm *after* setup so the kill ordinal counts only main-loop
        // durability events: the reference run and every kill run then
        // see the same event stream, keeping `(seed, kill_site, victim)`
        // triples replayable. Threads without a planned kill get an
        // observe-only arm so the reference run can report each thread's
        // event total (the sampling range for future kill sites).
        let arm = plan.map(|p| {
            let a = ThreadCrashArm::new(tid, p.kill_site_for(tid).unwrap_or(THREAD_CRASH_OBSERVE));
            ctx.arm_thread_crash(&a);
            a
        });
        arms.push(arm);
        ctxs.push(ctx);
    }

    // Seeded mode wraps each whole op in a PRNG-ordered turn; Free mode
    // has no gate at all — the shared atomic below only numbers ops for
    // the sampling cadence, it serializes nothing.
    let turns: Option<Arc<(Mutex<SeededTurns>, Condvar)>> = match cfg.schedule {
        MtSchedule::Free => None,
        MtSchedule::Seeded(seed) => Some(Arc::new((
            Mutex::new(SeededTurns::new(seed, threads, per_thread_ops)),
            Condvar::new(),
        ))),
    };
    let global_op = Arc::new(AtomicU64::new(0));
    // GC-trigger duty holder: thread 0 owns triggering, but a dead thread 0
    // must hand the duty on or the heap would never defragment again.
    // Normal runs only ever read the initial 0, so their behaviour (and the
    // pinned deterministic totals) is unchanged.
    let trigger_owner = Arc::new(AtomicUsize::new(0));

    let mut handles = Vec::new();
    for (tid, (mut w, mut ctx)) in insts.into_iter().zip(ctxs).enumerate() {
        let heap = heap.clone();
        let mix = cfg.mix;
        let value_size = cfg.value_size;
        let seed = cfg.seed ^ (tid as u64 + 1).wrapping_mul(0x9E37_79B9);
        let stride = SAMPLE_EVERY * threads as u64;
        let turns = turns.clone();
        let global_op = global_op.clone();
        let trigger_owner = trigger_owner.clone();
        let arm = arms[tid].clone();
        handles.push(std::thread::spawn(move || {
            let mut gc_ctx = heap.ctx();
            if let Some(a) = &arm {
                // The kill ordinal counts the thread's *combined* app + GC
                // durability events, so the GC context shares the arm.
                gc_ctx.arm_thread_crash(a);
            }
            let armed = arm.is_some();
            let mut keys = KeyGen::new(seed);
            let mut live = LiveKeys::new();
            let mut oplog: Vec<OpRecord> = Vec::with_capacity(per_thread_ops);
            let mut samples: Vec<Sample> = Vec::new();
            let mut latencies: Vec<u32> = Vec::with_capacity(per_thread_ops);
            let mut died: Option<VictimReport> = None;
            let total = (mix.init + mix.phase_ops * mix.phases).max(1);
            for op in 0..per_thread_ops {
                // In seeded mode, park until the scheduler hands this
                // thread the turn; the guard is held across the whole op so
                // every engine access is totally ordered by the PRNG.
                let mut turn_guard = turns.as_ref().map(|t| {
                    let (lock, cv) = &**t;
                    // An injected kill never unwinds through this guard
                    // (it is caught inside the op body), so the turn lock
                    // can never be poisoned by a planned crash.
                    let mut st = lock.lock().expect("turn lock");
                    while st.current != tid {
                        st = cv.wait(st).expect("turn lock");
                    }
                    st
                });
                // Claim a unique global op number. Whoever lands on the
                // sampling cadence records the footprint at that point —
                // exact in seeded mode, a racy-but-monotonic time series in
                // free mode (samples are merged and sorted by op below).
                let g = global_op.fetch_add(1, Ordering::AcqRel);
                if g.is_multiple_of(stride) {
                    let st = heap.pool().stats();
                    samples.push(Sample {
                        op: g,
                        footprint: st.footprint_bytes,
                        live: st.live_bytes,
                    });
                }
                // Each thread runs a 1/threads slice of the §6 mix with the
                // same *shape*: the init fraction inserts, then alternating
                // delete/insert/delete phases.
                let scaled = op * total / per_thread_ops.max(1);
                let insert = if scaled < mix.init {
                    true
                } else {
                    let phase = (scaled - mix.init) / mix.phase_ops.max(1);
                    phase % 2 == 1
                } || live.is_empty();
                // Decide the op before entering the (possibly dying) body:
                // the key stream is thread-local, so hoisting changes no
                // thread's sequence, and it lets the victim path name the
                // exact in-flight op `(insert, key)` for the checker.
                let planned: Option<(bool, u64, usize)> = if insert {
                    let k = keys.fresh();
                    let vs = keys.value_size(value_size.0, value_size.1);
                    Some((true, k, vs))
                } else {
                    keys.pick_live(&live).map(|k| (false, k, 0))
                };
                let logged_before = oplog.len();
                let caught = {
                    let mut body = || {
                        let t0 = ctx.cycles();
                        heap.critical(|| match planned {
                            Some((true, k, vs)) => {
                                w.insert(&heap, &mut ctx, k, vs);
                                live.insert(k);
                                oplog.push(OpRecord {
                                    insert: true,
                                    key: k,
                                    found: true,
                                });
                            }
                            Some((false, k, _)) => {
                                let found = w.delete(&heap, &mut ctx, k);
                                live.remove(k);
                                oplog.push(OpRecord {
                                    insert: false,
                                    key: k,
                                    found,
                                });
                            }
                            None => {}
                        });
                        latencies.push(u32::try_from(ctx.cycles() - t0).unwrap_or(u32::MAX));
                        // Every thread lends time to the collector on a
                        // dedicated context — the same interleaved-
                        // concurrency model (and aggregate collection rate)
                        // as the single-threaded driver; a starvable free-
                        // running GC thread would under-collect on small
                        // hosts. Only the trigger owner (thread 0 until it
                        // dies) triggers — that keeps the pinned
                        // deterministic totals.
                        if heap.in_cycle() {
                            heap.step_compaction(&mut gc_ctx, GC_BATCH);
                        } else if tid == trigger_owner.load(Ordering::Relaxed)
                            && (op + 1).is_multiple_of(32)
                        {
                            heap.maybe_defrag(&mut gc_ctx);
                        }
                    };
                    if armed {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut body)).err()
                    } else {
                        body();
                        None
                    }
                };
                if let Some(payload) = caught {
                    // Only an injected kill is caught; everything else
                    // (assertion failures inside the op) keeps unwinding.
                    let unwind: Box<ThreadCrashUnwind> = payload
                        .downcast()
                        .unwrap_or_else(|p| std::panic::resume_unwind(p));
                    // The op body appends to the log only after the
                    // structure op returns, so a short log means the kill
                    // landed *inside* the planned op — the one op whose
                    // outcome the checker must treat as ambiguous (or
                    // decide exactly, for detectable structures).
                    let inflight = if oplog.len() == logged_before {
                        planned.map(|(ins, k, _)| (ins, k))
                    } else {
                        None
                    };
                    // Hand GC-trigger duty to the next thread and return
                    // the dead thread's allocation arena to service so its
                    // active bump frames don't hold capacity hostage.
                    // Both land *before* the turn is surrendered: a woken
                    // survivor must observe the handoff and the recycled
                    // arena at a fixed point in the turn order, or two
                    // seeded replays of the same kill diverge on who pumps
                    // the GC next.
                    let _ = trigger_owner.compare_exchange(
                        tid,
                        tid + 1,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    );
                    heap.retire_arena(tid as u32);
                    if let Some(st) = turn_guard.as_mut() {
                        st.retire_thread(tid);
                        let (_, cv) = &**turns.as_ref().expect("seeded mode");
                        cv.notify_all();
                    }
                    drop(turn_guard);
                    died = Some(VictimReport {
                        victim: tid,
                        kill_site: unwind.events,
                        fired: true,
                        inflight,
                        ops_completed: oplog.len() as u64,
                    });
                    break;
                }
                if let Some(st) = turn_guard.as_mut() {
                    st.advance();
                    let (_, cv) = &**turns.as_ref().expect("seeded mode");
                    cv.notify_all();
                }
            }
            let events = arm.as_ref().map(|a| a.events()).unwrap_or(0);
            // A kill is caught inside the op loop above, so a victim's
            // contexts are as alive here as a survivor's: both report the
            // cycles each context accumulated.
            ThreadOutcome {
                app_cycles: ctx.cycles(),
                gc_cycles: gc_ctx.cycles(),
                live,
                oplog,
                samples,
                latencies,
                died,
                events,
            }
        }));
    }
    let mut app_cycles = 0u64;
    let mut gc_cycles = 0u64;
    let mut total_ops = 0u64;
    let mut samples: Vec<Sample> = Vec::new();
    let mut latencies: Vec<u32> = Vec::with_capacity(per_thread_ops * threads);
    // Per root-directory slot (= per thread): final live set and op log.
    let mut slots: Vec<(BTreeSet<u64>, Vec<OpRecord>)> = Vec::with_capacity(threads);
    let mut victims: Vec<VictimReport> = Vec::new();
    let mut events_per_thread = vec![0u64; threads];
    for (tid, h) in handles.into_iter().enumerate() {
        let out = h.join().expect("app thread");
        app_cycles += out.app_cycles;
        gc_cycles += out.gc_cycles;
        total_ops += if plan.is_some() {
            out.oplog.len() as u64
        } else {
            per_thread_ops as u64
        };
        samples.extend(out.samples);
        latencies.extend(out.latencies);
        events_per_thread[tid] = out.events;
        if let Some(v) = out.died {
            victims.push(v);
        }
        slots.push((out.live.to_btree_set(), out.oplog));
    }
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
                    ops_completed: per_thread_ops as u64,
                });
            }
        }
    }
    samples.sort_unstable_by_key(|s| s.op);
    {
        let mut wind_down = heap.ctx();
        heap.exit(&mut wind_down);
    }
    check_slots(make, &heap, &slots, &victims);
    // `AllocInner::purge` skips the free-list scan on the strength of a
    // `debug_assert!`; every mt run audits what that rests on.
    heap.pool().assert_free_list_sound();
    if plan.is_some() {
        // Full structural validation of the live heap over the orphaned
        // state, then a whole-machine restart: a thread crash must not
        // cost the *machine* its crash consistency, so recovery from a
        // crash image taken after the survivors drained has to succeed
        // and agree with the same per-slot oracle.
        if let Err(errs) = validate_heap(&heap) {
            panic!("thread-crash live heap validation failed: {errs:?}");
        }
        let image = heap.engine().crash_image();
        let (reg, _) = mt_registry(make().registry(), threads);
        let (heap2, _report) = DefragHeap::open_recovered(&image, reg, cfg.defrag)
            .expect("whole-machine restart after thread crashes");
        if let Err(errs) = validate_heap(&heap2) {
            panic!("post-restart heap validation failed: {errs:?}");
        }
        check_slots(make, &heap2, &slots, &victims);
    }
    ThreadCrashOutcome {
        result: RunResult::collect(
            name,
            &heap,
            total_ops,
            (app_cycles, gc_cycles),
            samples,
            &mut latencies,
        ),
        victims,
        events_per_thread,
    }
}

/// Post-run checker for multi-threaded runs (the §7.1 key-set oracle,
/// applied per root-directory slot): replays each thread's op log into
/// that slot's expected key set, cross-checks it against the thread's own
/// live set, and validates the persistent structure through a context
/// bound to the slot. Panics on the first divergence — a free-running mt
/// run has no deterministic replay to fall back on, so the checker *is*
/// its correctness story.
///
/// Survivors (every thread, when `victims` is empty) are checked
/// strictly, while a victim killed *inside* a structure op gets the one
/// admissible ambiguity — the in-flight op either fully happened or fully
/// didn't. Workloads implementing [`Workload::decide_inflight`]
/// (detectable structures) forfeit the ambiguity: the checker asks the
/// structure which way the op went and validates that exact key set.
fn check_slots(
    make: &dyn Fn() -> Box<dyn Workload>,
    heap: &DefragHeap,
    slots: &[(BTreeSet<u64>, Vec<OpRecord>)],
    victims: &[VictimReport],
) {
    for (tid, (live, oplog)) in slots.iter().enumerate() {
        let mut expected: BTreeSet<u64> = BTreeSet::new();
        for r in oplog {
            if r.insert {
                assert!(
                    expected.insert(r.key),
                    "thread {tid}: duplicate insert of key {:#x}",
                    r.key
                );
            } else {
                assert!(
                    r.found,
                    "thread {tid}: delete missed live key {:#x} (cross-thread corruption)",
                    r.key
                );
                assert!(
                    expected.remove(&r.key),
                    "thread {tid}: delete of never-inserted key {:#x}",
                    r.key
                );
            }
        }
        assert_eq!(
            &expected, live,
            "thread {tid}: op log disagrees with the thread's live set"
        );
        let mut ctx = heap.ctx();
        ctx.set_root_shard(Some(tid as u64));
        let mut w = make();
        w.reopen(heap, &mut ctx);
        let inflight = victims
            .iter()
            .find(|v| v.victim == tid && v.fired)
            .and_then(|v| v.inflight);
        match inflight {
            None => {
                // Survivor, or victim that died between ops / in the GC
                // pump: the logged set is exact.
                w.validate(heap, &mut ctx, &expected)
                    .unwrap_or_else(|e| panic!("mt post-run checker, thread {tid}: {e}"));
            }
            Some((insert, key)) => {
                let mut alt = expected.clone();
                if insert {
                    alt.insert(key);
                } else {
                    alt.remove(&key);
                }
                match w.decide_inflight(heap, &mut ctx, key, insert) {
                    Some(true) => {
                        w.validate(heap, &mut ctx, &alt).unwrap_or_else(|e| {
                            panic!(
                                "thread-crash checker, thread {tid}: structure decided the \
                                 in-flight op on key {key:#x} completed, but the completed \
                                 set does not validate: {e}"
                            )
                        });
                    }
                    Some(false) => {
                        w.validate(heap, &mut ctx, &expected).unwrap_or_else(|e| {
                            panic!(
                                "thread-crash checker, thread {tid}: structure decided the \
                                 in-flight op on key {key:#x} did not complete, but the \
                                 pre-op set does not validate: {e}"
                            )
                        });
                    }
                    None => {
                        let pre = w.validate(heap, &mut ctx, &expected);
                        let post = w.validate(heap, &mut ctx, &alt);
                        if pre.is_err() && post.is_err() {
                            panic!(
                                "thread-crash checker, thread {tid}: slot matches neither \
                                 the pre-op nor the post-op key set for in-flight key \
                                 {key:#x}: pre={pre:?} post={post:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Runs `workload` under `cfg`, returning the collected metrics.
pub fn run(workload: &mut dyn Workload, cfg: &DriverConfig) -> RunResult {
    let heap = create_heap(cfg, workload.registry());
    run_on(workload, cfg, &heap, &mut None)
}

/// Like [`run`] but against a caller-provided heap, invoking `hook`
/// between operations (crash campaigns drain site captures and note op
/// boundaries there; replays return `false` from the hook to truncate the
/// run at the shortest reproducing op prefix).
pub fn run_on(
    workload: &mut dyn Workload,
    cfg: &DriverConfig,
    heap: &DefragHeap,
    hook: &mut OpHook<'_>,
) -> RunResult {
    let mut app_ctx = heap.ctx();
    let mut gc_ctx = heap.ctx();
    let mut keys = KeyGen::new(cfg.seed);
    let mut live = LiveKeys::new();
    let mut samples = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut op_index = 0u64;

    workload.setup(heap, &mut app_ctx);

    let do_op = |insert: bool,
                 workload: &mut dyn Workload,
                 app_ctx: &mut ffccd_pmem::Ctx,
                 gc_ctx: &mut ffccd_pmem::Ctx,
                 keys: &mut KeyGen,
                 live: &mut LiveKeys,
                 samples: &mut Vec<Sample>,
                 latencies: &mut Vec<u64>,
                 op_index: &mut u64,
                 hook: &mut OpHook<'_>|
     -> bool {
        let t0 = app_ctx.cycles();
        if insert {
            let k = keys.fresh();
            let vs = keys.value_size(cfg.value_size.0, cfg.value_size.1);
            workload.insert(heap, app_ctx, k, vs);
            live.insert(k);
        } else if let Some(k) = keys.pick_live(live) {
            let was = workload.delete(heap, app_ctx, k);
            debug_assert!(was, "driver only deletes live keys");
            live.remove(k);
        }
        latencies.push(app_ctx.cycles() - t0);
        *op_index += 1;

        // Concurrent GC pump: the collector makes progress between ops.
        if heap.in_cycle() {
            heap.step_compaction(gc_ctx, GC_BATCH);
        } else if (*op_index).is_multiple_of(32) {
            heap.maybe_defrag(gc_ctx);
        }
        if (*op_index).is_multiple_of(SAMPLE_EVERY) {
            let st = heap.pool().stats();
            samples.push(Sample {
                op: *op_index,
                footprint: st.footprint_bytes,
                live: st.live_bytes,
            });
        }
        match hook {
            Some(h) => h(*op_index, heap, live),
            None => true,
        }
    };

    let mut stopped = false;
    for _ in 0..cfg.mix.init {
        if !do_op(
            true,
            workload,
            &mut app_ctx,
            &mut gc_ctx,
            &mut keys,
            &mut live,
            &mut samples,
            &mut latencies,
            &mut op_index,
            hook,
        ) {
            stopped = true;
            break;
        }
    }
    if !stopped {
        'phases: for phase in 0..cfg.mix.phases {
            let insert = phase % 2 == 1; // delete, insert, delete
            for _ in 0..cfg.mix.phase_ops {
                if !insert && live.is_empty() {
                    break;
                }
                if !do_op(
                    insert,
                    workload,
                    &mut app_ctx,
                    &mut gc_ctx,
                    &mut keys,
                    &mut live,
                    &mut samples,
                    &mut latencies,
                    &mut op_index,
                    hook,
                ) {
                    break 'phases;
                }
            }
        }
    }

    // Wind down: let any in-flight cycle terminate (exit(), §5).
    heap.exit(&mut gc_ctx);

    RunResult::collect(
        workload.name().to_owned(),
        heap,
        op_index,
        (app_ctx.cycles(), gc_ctx.cycles()),
        samples,
        &mut latencies,
    )
}

/// `(p50, p90, p99, max)` of per-op latencies; zeros when there are none.
fn latency_summary<T: Copy + Ord + Into<u64>>(latencies: &mut [T]) -> (u64, u64, u64, u64) {
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        let at = (latencies.len().saturating_sub(1) as f64 * p) as usize;
        latencies.get(at).map_or(0, |&v| v.into())
    };
    (pct(0.5), pct(0.9), pct(0.99), pct(1.0))
}
