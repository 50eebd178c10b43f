//! Multi-threaded driver tests: free-running concurrency, seeded-schedule
//! determinism, op hooks at N threads, and fixed-seed cycle-total pins.
//!
//! The mt driver no longer serializes mutators through a turn lock: under
//! `MtSchedule::Free`, threads race over the banked engine and the striped
//! pool, and correctness comes from the driver's post-run per-slot
//! checker. `MtSchedule::Seeded` totally orders every op through a
//! PRNG-driven turn scheduler, giving byte-deterministic replay even over
//! a banked engine — that mode carries the determinism and stats-
//! conservation gates. The pinned single-thread totals guard the lock-path
//! refactors (striped relocation locks, shared-read engine path, batched
//! counters, per-arena allocation): all host-side only, so the simulated
//! numbers must never move.

use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use ffccd::{DefragHeap, Scheme};
use ffccd_pmem::Ctx;
use ffccd_workloads::driver::{
    mt_registry, run, run_mt, run_mt_faulted, run_mt_hooked, DriverConfig, MtSchedule, OpRecord,
    PhaseMix, RunResult, ThreadFaultPlan, SAMPLE_EVERY,
};
use ffccd_workloads::util::LiveKeys;
use ffccd_workloads::{LinkedList, Workload};

fn tiny_cfg(scheme: Scheme) -> DriverConfig {
    let mut cfg = DriverConfig::new(scheme);
    cfg.mix = PhaseMix::tiny();
    cfg.pool.data_bytes = 8 << 20;
    cfg.seed = 0x5EED;
    cfg.pool.machine.seed = 0x5EED;
    cfg.defrag.min_live_bytes = 1 << 12;
    cfg
}

fn assert_runs_match(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.ops, b.ops, "{what}: ops");
    assert_eq!(a.app_cycles, b.app_cycles, "{what}: app cycles");
    assert_eq!(a.gc_driver_cycles, b.gc_driver_cycles, "{what}: gc cycles");
    assert_eq!(a.gc, b.gc, "{what}: gc stats");
    assert_eq!(a.samples, b.samples, "{what}: samples");
    assert_eq!(a.latency, b.latency, "{what}: op latency percentiles");
    assert_eq!(
        a.avg_footprint.to_bits(),
        b.avg_footprint.to_bits(),
        "{what}: footprint"
    );
}

/// Free-running runs are not byte-deterministic, but the driver's built-in
/// per-slot checker must pass and the run must produce sane aggregates —
/// this is the everyday "true concurrency" path.
#[test]
fn free_running_mt_passes_the_shard_checker() {
    for scheme in [Scheme::Sfccd, Scheme::FfccdCheckLookup] {
        for threads in [2usize, 4] {
            let cfg = tiny_cfg(scheme);
            let r = run_mt(&|| Box::new(LinkedList::new()), threads, &cfg);
            assert_eq!(r.ops, 1300 / threads as u64 * threads as u64);
            assert!(r.gc.barrier_invocations > 0, "{scheme}: barriers fired");
            assert!(!r.samples.is_empty(), "{scheme}: sampler produced samples");
            let (p50, p90, p99, max) = r.latency;
            assert!(
                0 < p50 && p50 <= p90 && p90 <= p99 && p99 <= max,
                "{scheme}: per-op latency percentiles {:?}",
                r.latency
            );
        }
    }
}

/// Under the seeded turn scheduler every engine operation is totally
/// ordered by the PRNG, so two runs with the same seed must agree on every
/// sample and every cycle total — even over a banked engine (`banks = 8`),
/// whose per-bank state would otherwise depend on racy interleaving.
#[test]
fn seeded_mt_is_deterministic_across_reruns() {
    for scheme in [Scheme::Sfccd, Scheme::FfccdCheckLookup] {
        for threads in [2usize, 4] {
            for banks in [0usize, 8] {
                let mut cfg = tiny_cfg(scheme);
                cfg.pool.machine.banks = banks;
                cfg.schedule = MtSchedule::Seeded(0xC0FFEE ^ threads as u64);
                let a = run_mt(&|| Box::new(LinkedList::new()), threads, &cfg);
                let b = run_mt(&|| Box::new(LinkedList::new()), threads, &cfg);
                assert_runs_match(&a, &b, &format!("{scheme} x{threads} banks={banks}"));
                assert!(a.gc.barrier_invocations > 0, "{scheme}: barriers fired");
            }
        }
    }
}

#[test]
fn run_mt_samples_on_the_global_op_cadence() {
    let cfg = tiny_cfg(Scheme::Sfccd);
    let threads = 4;
    let r = run_mt(&|| Box::new(LinkedList::new()), threads, &cfg);
    let stride = SAMPLE_EVERY * threads as u64;
    for (i, s) in r.samples.iter().enumerate() {
        assert_eq!(
            s.op,
            (i as u64 + 1) * stride,
            "sample {i} must land on the global cadence"
        );
    }
}

/// A workload wrapper whose Nth insert blocks until *both* threads are
/// inside an insert at the same time. Under the free-running schedule the
/// rendezvous completes almost instantly; any hidden global turn lock on
/// the op path would leave the first arriver holding the turn forever, so
/// the wait times out and the test fails.
struct Rendezvous {
    inner: LinkedList,
    gate: Arc<(Mutex<usize>, Condvar)>,
    overlapped: Arc<AtomicBool>,
    inserts: usize,
}

const RENDEZVOUS_AT: usize = 5;

impl Workload for Rendezvous {
    fn name(&self) -> &'static str {
        "LL+rendezvous"
    }

    fn registry(&self) -> ffccd_pmop::TypeRegistry {
        self.inner.registry()
    }

    fn setup(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        self.inner.setup(heap, ctx);
    }

    fn insert(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64, value_size: usize) {
        self.inserts += 1;
        if self.inserts == RENDEZVOUS_AT {
            let (lock, cv) = &*self.gate;
            let mut arrived = lock.lock().expect("gate");
            *arrived += 1;
            if *arrived >= 2 {
                // Both threads are inside insert() right now: op windows
                // overlap.
                self.overlapped.store(true, Ordering::SeqCst);
                cv.notify_all();
            } else {
                // Park (bounded) until the other thread's op window opens.
                let mut waited = Duration::ZERO;
                while *arrived < 2 && waited < Duration::from_secs(30) {
                    let (g, t) = cv
                        .wait_timeout(arrived, Duration::from_secs(1))
                        .expect("gate");
                    arrived = g;
                    if t.timed_out() {
                        waited += Duration::from_secs(1);
                    }
                }
            }
        }
        self.inner.insert(heap, ctx, key, value_size);
    }

    fn delete(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        self.inner.delete(heap, ctx, key)
    }

    fn contains(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        self.inner.contains(heap, ctx, key)
    }

    fn validate(
        &self,
        heap: &DefragHeap,
        ctx: &mut Ctx,
        expected: &BTreeSet<u64>,
    ) -> Result<(), String> {
        self.inner.validate(heap, ctx, expected)
    }
}

/// The tentpole's proof obligation: two mutator threads must be observed
/// *simultaneously inside* structure operations — i.e. there is no global
/// turn lock anywhere on the op path.
#[test]
fn free_running_threads_overlap_op_windows() {
    let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
    let overlapped = Arc::new(AtomicBool::new(false));
    let mut cfg = tiny_cfg(Scheme::Baseline);
    // All-insert mix, and the rendezvous sits well before the first
    // maybe_defrag trigger (local op 32), so neither thread can be stuck
    // behind a stop-the-world phase while the other waits at the gate.
    cfg.mix = PhaseMix {
        init: 240,
        phase_ops: 0,
        phases: 0,
    };
    let make = {
        let gate = gate.clone();
        let overlapped = overlapped.clone();
        move || -> Box<dyn Workload> {
            Box::new(Rendezvous {
                inner: LinkedList::new(),
                gate: gate.clone(),
                overlapped: overlapped.clone(),
                inserts: 0,
            })
        }
    };
    let r = run_mt(&make, 2, &cfg);
    assert_eq!(r.ops, 240);
    assert!(
        overlapped.load(Ordering::SeqCst),
        "two threads were never inside an op at the same time: \
         the op path is still serialized by a global turn lock"
    );
}

/// Free-running thread-crash round: one of four racing mutators dies at an
/// early durability-event ordinal while the survivors keep racing — no
/// turn scheduler, so every interleaving of the death against the other
/// mutators and the GC pump is fair game. The full checker suite, heap
/// validation and the crash-image restart all run inside
/// `run_mt_faulted`; the kill site sits low (an eighth of a reference
/// run's cheapest thread) so it fires despite free-running event-count
/// variance.
#[test]
fn free_running_kill_one_of_four_survivors_drain() {
    for scheme in [Scheme::Sfccd, Scheme::FfccdFenceFree] {
        let mut cfg = tiny_cfg(scheme);
        cfg.schedule = MtSchedule::Free;
        let make = || Box::new(LinkedList::new()) as Box<dyn Workload>;
        let reference = run_mt_faulted(&make, 4, &cfg, &ThreadFaultPlan::default());
        let site = (reference.events_per_thread.iter().min().copied().unwrap() / 8).max(1);
        let plan = ThreadFaultPlan::single(1, site);
        let out = run_mt_faulted(&make, 4, &cfg, &plan);
        let v = out
            .victims
            .iter()
            .find(|v| v.victim == 1)
            .expect("victim report");
        assert!(v.fired, "{scheme}: early kill site must fire");
        assert!(
            out.result.ops < reference.result.ops,
            "{scheme}: the dead thread's slice stays unfinished"
        );
    }
}

/// Fixed-seed single-thread cycle totals, pinned before the lock-light
/// refactor. If one of these moves, a host-side locking change has leaked
/// into simulated accounting — that is a bug, not a number to re-pin.
#[test]
fn pinned_cycle_totals_are_unchanged() {
    let pins = [
        (Scheme::Sfccd, 769_180u64, 277_029u64, 277_767u64),
        (Scheme::FfccdFenceFree, 770_656, 333_915, 245_156),
        (Scheme::FfccdCheckLookup, 766_438, 333_915, 240_938),
    ];
    for (scheme, app, gc_driver, total_gc) in pins {
        let cfg = tiny_cfg(scheme);
        let r = run(&mut LinkedList::new(), &cfg);
        assert_eq!(r.app_cycles, app, "{scheme}: app cycles");
        assert_eq!(r.gc_driver_cycles, gc_driver, "{scheme}: gc driver cycles");
        assert_eq!(
            r.gc.total_gc_cycles(),
            total_gc,
            "{scheme}: total gc cycles"
        );
        assert_eq!(
            r.gc.barrier_invocations, 26,
            "{scheme}: barrier invocations"
        );
        assert_eq!(r.gc.objects_relocated, 257, "{scheme}: objects relocated");
    }
}

/// Seeded multi-thread totals, recorded before the single-thread driver
/// became the one-thread case of the mt driver loop. Run-vs-rerun equality
/// cannot catch a driver change that shifts both runs the same way; these
/// pins can. Like the single-thread pins above, a moved value is a bug.
#[test]
fn pinned_seeded_mt_totals() {
    // (scheme, threads, banks, ops, app, gc driver, total gc, relocated)
    let pins = [
        (
            Scheme::Sfccd,
            2,
            0,
            1300,
            805_673u64,
            336_787u64,
            334_910u64,
            302u64,
        ),
        (Scheme::Sfccd, 2, 8, 1300, 802_958, 377_824, 377_231, 302),
        (Scheme::Sfccd, 4, 0, 1300, 861_915, 283_064, 290_146, 197),
        (Scheme::Sfccd, 4, 8, 1300, 866_581, 305_284, 316_921, 197),
        (
            Scheme::FfccdCheckLookup,
            2,
            0,
            1300,
            797_069,
            411_436,
            293_727,
            302,
        ),
        (
            Scheme::FfccdCheckLookup,
            2,
            8,
            1300,
            793_205,
            417_352,
            298_899,
            302,
        ),
        (
            Scheme::FfccdCheckLookup,
            4,
            0,
            1300,
            846_232,
            337_158,
            246_765,
            197,
        ),
        (
            Scheme::FfccdCheckLookup,
            4,
            8,
            1300,
            850_064,
            341_347,
            251_191,
            197,
        ),
    ];
    for (scheme, threads, banks, ops, app, gc_driver, total_gc, relocated) in pins {
        let mut cfg = tiny_cfg(scheme);
        cfg.pool.machine.banks = banks;
        cfg.schedule = MtSchedule::Seeded(0xC0FFEE ^ threads as u64);
        let r = run_mt(&|| Box::new(LinkedList::new()), threads, &cfg);
        let what = format!("{scheme} x{threads} banks={banks}");
        assert_eq!(r.ops, ops, "{what}: ops");
        assert_eq!(r.app_cycles, app, "{what}: app cycles");
        assert_eq!(r.gc_driver_cycles, gc_driver, "{what}: gc driver cycles");
        assert_eq!(r.gc.total_gc_cycles(), total_gc, "{what}: total gc cycles");
        assert_eq!(
            r.gc.objects_relocated, relocated,
            "{what}: objects relocated"
        );
    }
}

/// Runs `threads` LinkedList mutators under `cfg` with `hook`.
fn run_hooked(
    threads: usize,
    cfg: &DriverConfig,
    hook: &mut (dyn FnMut(u64, &DefragHeap, usize, &LiveKeys, OpRecord) -> bool + Send),
) -> RunResult {
    let make = || Box::new(LinkedList::new()) as Box<dyn Workload>;
    let (reg, _) = mt_registry(make().registry(), threads);
    let heap = DefragHeap::create(cfg.pool.clone(), reg, cfg.defrag).expect("pool");
    let workloads = (0..threads).map(|_| make()).collect();
    run_mt_hooked(&make, workloads, cfg, &heap, &mut Some(hook))
}

/// Under the seeded schedule the turn holder calls the hook once per op,
/// in global op order: `1..=ops`.
#[test]
fn seeded_hook_sees_every_op_boundary_in_order() {
    for threads in [2usize, 4] {
        let mut cfg = tiny_cfg(Scheme::FfccdCheckLookup);
        cfg.schedule = MtSchedule::Seeded(0xC0FFEE ^ threads as u64);
        let mut seen = Vec::new();
        let r = run_hooked(threads, &cfg, &mut |op, _, _, _, _| {
            seen.push(op);
            true
        });
        assert_eq!(seen, (1..=r.ops).collect::<Vec<_>>(), "x{threads}");
    }
}

/// A hook returning `false` at op k stops every thread at its next turn:
/// the run reports k ops, and the per-slot checker (which panics on any
/// divergence) passes over the truncated logs.
#[test]
fn seeded_hook_stops_the_run() {
    for threads in [2usize, 4] {
        let mut cfg = tiny_cfg(Scheme::Sfccd);
        cfg.schedule = MtSchedule::Seeded(0xC0FFEE ^ threads as u64);
        let k = 777;
        let r = run_hooked(threads, &cfg, &mut |op, _, _, _, _| op < k);
        assert_eq!(r.ops, k, "x{threads}");
    }
}

/// Free-running threads have no op boundaries to hook.
#[test]
#[should_panic(expected = "an op hook needs a deterministic run")]
fn free_running_hook_panics() {
    let mut cfg = tiny_cfg(Scheme::Sfccd);
    cfg.schedule = MtSchedule::Free;
    run_hooked(2, &cfg, &mut |_, _, _, _, _| true);
}

/// A LinkedList whose `panic_at`-th insert panics, as an assertion inside
/// an op would.
struct PanicsAt {
    inner: LinkedList,
    panic_at: usize,
    inserts: usize,
}

impl Workload for PanicsAt {
    fn name(&self) -> &'static str {
        "LL+panic"
    }

    fn registry(&self) -> ffccd_pmop::TypeRegistry {
        self.inner.registry()
    }

    fn setup(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        self.inner.setup(heap, ctx);
    }

    fn insert(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64, value_size: usize) {
        self.inserts += 1;
        assert!(self.inserts != self.panic_at, "op panic");
        self.inner.insert(heap, ctx, key, value_size);
    }

    fn delete(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        self.inner.delete(heap, ctx, key)
    }

    fn contains(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        self.inner.contains(heap, ctx, key)
    }

    fn validate(
        &self,
        heap: &DefragHeap,
        ctx: &mut Ctx,
        expected: &BTreeSet<u64>,
    ) -> Result<(), String> {
        self.inner.validate(heap, ctx, expected)
    }
}

/// Runs `f` on its own thread and returns its panic message (`None` if it
/// returned); fails instead of hanging if `f` does not finish in 60 s.
fn panic_message(f: impl FnOnce() + Send + 'static) -> Option<String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let r = std::panic::catch_unwind(AssertUnwindSafe(f));
        let msg = r.err().map(|p| match p.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast_ref::<&str>().map_or("?", |s| s).to_owned(),
        });
        tx.send(msg).expect("test thread");
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("the run hung instead of failing")
}

/// A real panic in one seeded thread (not an injected kill) fails the
/// run: the other threads stop at their next turn instead of parking
/// forever for a turn the panicked thread holds, and the panic comes out
/// of the driver. Thread 0 runs on the caller, the others are scoped.
#[test]
fn seeded_panic_in_an_op_fails_the_run() {
    for (threads, victim) in [(2usize, 0usize), (2, 1), (4, 0), (4, 3)] {
        let msg = panic_message(move || {
            let mut cfg = tiny_cfg(Scheme::Sfccd);
            cfg.schedule = MtSchedule::Seeded(0xC0FFEE ^ threads as u64);
            let make = || Box::new(LinkedList::new()) as Box<dyn Workload>;
            let (reg, _) = mt_registry(make().registry(), threads);
            let heap = DefragHeap::create(cfg.pool.clone(), reg, cfg.defrag).expect("pool");
            let workloads = (0..threads)
                .map(|tid| -> Box<dyn Workload> {
                    Box::new(PanicsAt {
                        inner: LinkedList::new(),
                        panic_at: if tid == victim { 40 } else { 0 },
                        inserts: 0,
                    })
                })
                .collect();
            run_mt_hooked(&make, workloads, &cfg, &heap, &mut None);
        });
        assert_eq!(
            msg.as_deref(),
            Some("op panic"),
            "x{threads}, thread {victim}"
        );
    }
}

/// The same for a hook that panics on the turn holder's thread.
#[test]
fn seeded_hook_panic_fails_the_run() {
    for threads in [1usize, 2, 4] {
        let msg = panic_message(move || {
            let mut cfg = tiny_cfg(Scheme::Sfccd);
            cfg.schedule = MtSchedule::Seeded(0xC0FFEE ^ threads as u64);
            run_hooked(threads, &cfg, &mut |op, _, _, _, _| {
                assert!(op < 50, "hook panic");
                true
            });
        });
        assert_eq!(msg.as_deref(), Some("hook panic"), "x{threads}");
    }
}
