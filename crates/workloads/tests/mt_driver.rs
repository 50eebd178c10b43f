//! Multi-threaded driver tests: free-running concurrency, seeded-schedule
//! determinism, and fixed-seed cycle-total pins.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ffccd::{DefragHeap, Scheme};
use ffccd_pmem::Ctx;
use ffccd_workloads::driver::{
    run, run_mt, run_mt_faulted, DriverConfig, MtSchedule, PhaseMix, RunResult, ThreadFaultPlan,
    SAMPLE_EVERY,
};
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
            i as u64 * stride,
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
