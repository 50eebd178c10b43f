//! A `Workload` wrapper that times every call made through the trait, on
//! both clocks, from outside the crates under test.
//!
//! All four benchmark workloads hand the system a `Box<dyn Workload>`; by
//! handing it a [`Recorded`] one, the benchmark sees each structure op's
//! host time and simulated-cycle cost even when an opaque driver
//! (`driver::run_mt`, `faults::run_crash_site_sweep`) issues the ops, and
//! checks each op's output where it happens.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ffccd::DefragHeap;
use ffccd_pmem::{Ctx, ThreadStats};
use ffccd_pmop::TypeRegistry;
use ffccd_workloads::Workload;

/// Which trait method a sample timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Insert,
    Delete,
    Get,
    Setup,
    Reopen,
    Validate,
}

impl Kind {
    /// The three structure ops a workload's window is made of.
    pub fn is_op(self) -> bool {
        matches!(self, Kind::Insert | Kind::Delete | Kind::Get)
    }

    pub fn span_name(self) -> &'static str {
        match self {
            Kind::Insert => "workloads.insert",
            Kind::Delete => "workloads.delete",
            Kind::Get => "workloads.get",
            Kind::Setup => "workloads.setup",
            Kind::Reopen => "workloads.reopen",
            Kind::Validate => "workloads.validate",
        }
    }
}

/// One timed call. Durations saturate at `u32::MAX` (4.3 s of host time,
/// 4.3 G cycles), far beyond any single structure op.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub kind: Kind,
    /// Host ns since the sink's epoch at call entry.
    pub start_ns: u64,
    pub host_ns: u32,
    /// `ctx.cycles()` delta across the call.
    pub sim_cycles: u32,
}

/// Fragmentation samples are taken every this many structure ops, the
/// cadence `DriverConfig::sample_every` defaults to.
pub const FRAG_SAMPLE_EVERY: u64 = 64;

/// Everything one wrapped instance saw between its creation and its drop.
#[derive(Clone, Debug, Default)]
pub struct InstanceLog {
    /// Host ns since the sink's epoch when the instance was made.
    pub created_ns: u64,
    pub samples: Vec<Sample>,
    /// Deletes that reported a miss plus gets that missed: every driver
    /// and trace in this benchmark only deletes and reads live keys.
    pub failed_ops: u64,
    /// Validation errors (`Workload::validate` returned `Err`). The crash
    /// sweep legitimately retries a mid-op image against the pre-op key
    /// set, so this is reported, not counted as failure, there.
    pub validate_errors: u64,
    /// Sums over the `PmPool::stats()` samples.
    pub footprint_sum: u64,
    pub live_sum: u64,
    pub frag_samples: u64,
    pub footprint_peak: u64,
    /// The calling context's counters before the first structure op and
    /// as of the last: their difference is what the ops themselves cost.
    pub ctx_stats_base: ThreadStats,
    pub ctx_stats: ThreadStats,
    ops_seen: u64,
}

/// Where dropped instances leave their logs; shared by every instance one
/// benchmark round makes.
#[derive(Debug)]
pub struct Sink {
    epoch: Instant,
    logs: Mutex<Vec<InstanceLog>>,
}

impl Sink {
    pub fn new() -> Arc<Self> {
        Arc::new(Sink {
            epoch: Instant::now(),
            logs: Mutex::new(Vec::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Both clocks at call entry.
    fn start(&self, ctx: &Ctx) -> (u64, u64) {
        (self.now_ns(), ctx.cycles())
    }

    /// The sample for a call that began at `started`.
    fn sample(&self, kind: Kind, (start_ns, c0): (u64, u64), ctx: &Ctx) -> Sample {
        let sim = ctx.cycles() - c0;
        Sample {
            kind,
            start_ns,
            host_ns: u32::try_from(self.now_ns() - start_ns).unwrap_or(u32::MAX),
            sim_cycles: u32::try_from(sim).unwrap_or(u32::MAX),
        }
    }

    /// The logs deposited so far, in drop order.
    pub fn take(&self) -> Vec<InstanceLog> {
        std::mem::take(
            &mut *self
                .logs
                .lock()
                .expect("no recorder panics while depositing"),
        )
    }
}

/// The wrapper. Delegates every trait method to `inner`.
pub struct Recorded {
    inner: Box<dyn Workload>,
    sink: Arc<Sink>,
    // `validate` takes `&self`; the hot `&mut self` paths use `get_mut`.
    log: RefCell<InstanceLog>,
}

impl Recorded {
    pub fn new(inner: Box<dyn Workload>, sink: &Arc<Sink>) -> Self {
        Recorded {
            inner,
            sink: sink.clone(),
            log: RefCell::new(InstanceLog {
                created_ns: sink.now_ns(),
                ..InstanceLog::default()
            }),
        }
    }

    /// A factory in the shape the drivers take.
    pub fn factory(
        make: fn() -> Box<dyn Workload>,
        sink: &Arc<Sink>,
    ) -> impl Fn() -> Box<dyn Workload> + Sync + '_ {
        move || Box::new(Recorded::new(make(), sink)) as Box<dyn Workload>
    }

    /// Forgets everything recorded so far: called between a benchmark
    /// loop's populate step and its timed window.
    pub fn begin_window(&mut self) {
        let created_ns = self.log.get_mut().created_ns;
        *self.log.get_mut() = InstanceLog {
            created_ns,
            ..InstanceLog::default()
        };
    }

    fn op<R>(
        &mut self,
        kind: Kind,
        heap: &DefragHeap,
        ctx: &mut Ctx,
        f: impl FnOnce(&mut dyn Workload, &mut Ctx) -> R,
        ok: impl FnOnce(&R) -> bool,
    ) -> R {
        if self.log.get_mut().ops_seen == 0 {
            self.log.get_mut().ctx_stats_base = ctx.stats;
        }
        let started = self.sink.start(ctx);
        let r = f(&mut *self.inner, ctx);
        let sample = self.sink.sample(kind, started, ctx);
        let log = self.log.get_mut();
        log.samples.push(sample);
        if !ok(&r) {
            log.failed_ops += 1;
        }
        log.ctx_stats = ctx.stats;
        log.ops_seen += 1;
        if log.ops_seen.is_multiple_of(FRAG_SAMPLE_EVERY) {
            let st = heap.pool().stats();
            log.footprint_sum += st.footprint_bytes;
            log.live_sum += st.live_bytes;
            log.frag_samples += 1;
            log.footprint_peak = log.footprint_peak.max(st.footprint_bytes);
        }
        r
    }
}

impl Drop for Recorded {
    fn drop(&mut self) {
        // A poisoned sink means a recorder already panicked; the round is
        // lost either way, and `Drop` must not panic on top of it.
        if let Ok(mut logs) = self.sink.logs.lock() {
            logs.push(std::mem::take(self.log.get_mut()));
        }
    }
}

impl Workload for Recorded {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn registry(&self) -> TypeRegistry {
        self.inner.registry()
    }

    fn setup(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        let started = self.sink.start(ctx);
        self.inner.setup(heap, ctx);
        let sample = self.sink.sample(Kind::Setup, started, ctx);
        self.log.get_mut().samples.push(sample);
    }

    fn reopen(&mut self, heap: &DefragHeap, ctx: &mut Ctx) {
        let started = self.sink.start(ctx);
        self.inner.reopen(heap, ctx);
        let sample = self.sink.sample(Kind::Reopen, started, ctx);
        self.log.get_mut().samples.push(sample);
    }

    fn insert(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64, value_size: usize) {
        self.op(
            Kind::Insert,
            heap,
            ctx,
            |w, ctx| w.insert(heap, ctx, key, value_size),
            |()| true,
        )
    }

    fn delete(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        self.op(
            Kind::Delete,
            heap,
            ctx,
            |w, ctx| w.delete(heap, ctx, key),
            |&hit| hit,
        )
    }

    fn contains(&mut self, heap: &DefragHeap, ctx: &mut Ctx, key: u64) -> bool {
        self.op(
            Kind::Get,
            heap,
            ctx,
            |w, ctx| w.contains(heap, ctx, key),
            |&hit| hit,
        )
    }

    fn validate(
        &self,
        heap: &DefragHeap,
        ctx: &mut Ctx,
        expected: &BTreeSet<u64>,
    ) -> Result<(), String> {
        let started = self.sink.start(ctx);
        let r = self.inner.validate(heap, ctx, expected);
        let sample = self.sink.sample(Kind::Validate, started, ctx);
        let mut log = self.log.borrow_mut();
        log.samples.push(sample);
        log.validate_errors += u64::from(r.is_err());
        r
    }

    fn decide_inflight(
        &mut self,
        heap: &DefragHeap,
        ctx: &mut Ctx,
        key: u64,
        insert: bool,
    ) -> Option<bool> {
        self.inner.decide_inflight(heap, ctx, key, insert)
    }
}
