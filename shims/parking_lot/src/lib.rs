//! Offline stand-in for `parking_lot`.
//!
//! The build environment has no crates.io access, so the workspace patches
//! `parking_lot` to this crate. Only the API surface the workspace actually
//! uses is provided, with parking_lot's semantics for it:
//!
//! * [`Mutex`] is `std::sync::Mutex` with poison swallowed (a panic while
//!   holding the lock leaves it usable, as in parking_lot).
//! * [`RwLock`] is this crate's own word-sized lock: one CAS when
//!   uncontended, a bounded spin-then-yield when contended, and a
//!   `Condvar` park only after that (parking_lot's adaptive acquisition).
//!   `read` queues behind waiting writers (no writer starvation),
//!   `read_recursive` never does (no deadlock under an existing read
//!   guard), and guards release on unwind without poisoning. What it does
//!   *not* reproduce is parking_lot's eventual-fairness hand-off and its
//!   per-address parking lot — waiters here park on a per-lock `Condvar`.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync;

pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

pub struct MutexGuard<'a, T: ?Sized>(sync::MutexGuard<'a, T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(g)),
            Err(sync::TryLockError::Poisoned(e)) => Some(MutexGuard(e.into_inner())),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Reader-writer lock supporting `read_recursive`, which parking_lot
/// guarantees never deadlocks when the calling thread already holds a read
/// guard (std's `RwLock` may, if a writer is queued). `read` yields to
/// queued writers (fairness), while `read_recursive` only waits for an
/// *active* writer.
///
/// The uncontended paths are a single CAS on one state word. An earlier
/// version guarded a readers/writers struct with `Mutex`+`Condvar`; its
/// guard *drop* then locked the mutex again and issued an unconditional
/// `notify_all` (a futex syscall) — ~175 ns per acquisition on the
/// simulator's per-bank engine locks, which sit on every simulated memory
/// access and dominated host time. Releasers now touch the condvar only
/// when `parked > 0`.
///
/// A failed fast path does not park straight away either: the engine
/// holds these locks for tens of nanoseconds while a futex sleep costs
/// 50–300 µs, so a waiter first backs off — spins, then yields (`Backoff`)
/// — and only then enters the `park_lock`/`Condvar` protocol. Spinning
/// changes where a thread waits, not the rules: a spinning writer has
/// already registered in the waiting-writer count, so plain `read`s queue
/// behind it exactly as they do behind a parked one.
///
/// State word layout: bit 0 = writer active; bits 1..21 = waiting-writer
/// count (new plain `read`s queue behind these); bits 21..64 = reader
/// count.
pub struct RwLock<T: ?Sized> {
    state: sync::atomic::AtomicU64,
    /// Threads parked or about to park (readers or writers). Releasers
    /// check this before touching the condvar, so uncontended drops stay
    /// syscall-free. Registration happens while holding `park_lock`, and
    /// both sides use `SeqCst`, so a releaser either sees the waiter's
    /// registration or the waiter's state re-check sees the release.
    parked: sync::atomic::AtomicU32,
    park_lock: sync::Mutex<()>,
    park_cond: sync::Condvar,
    data: std::cell::UnsafeCell<T>,
}

const WRITER: u64 = 1;
const WWAIT_ONE: u64 = 1 << 1;
const WWAIT_MASK: u64 = ((1 << 20) - 1) << 1;
const READER_ONE: u64 = 1 << 21;
const READERS_MASK: u64 = !(WRITER | WWAIT_MASK);

use sync::atomic::Ordering::{Relaxed, SeqCst};

/// Doubling rounds of `spin_loop` a waiter runs before it starts yielding.
const SPIN_ROUNDS: u32 = 10;
/// Cap on the pauses in one round (rounds run 1, 2, 4, … up to this).
const SPIN_CAP: u32 = 64;
/// `yield_now` calls a waiter makes after spinning, before it parks.
const YIELD_ROUNDS: u32 = 30;

/// The wait a contended acquisition does before parking: `SPIN_ROUNDS`
/// exponentially growing pause bursts (≈ 320 pauses, a few µs — far longer
/// than the simulator holds any `RwLock`), then `YIELD_ROUNDS` yields so an
/// oversubscribed host runs the holder instead of the spinner. Constants,
/// not knobs: policies from {10 rounds, cap 3, 3 yields} to {100, 100, 4}
/// measure the same on the end-to-end benchmark (DESIGN.md §7.1).
struct Backoff(u32);

impl Backoff {
    /// Waits one step; `false` once the budget is spent and the caller
    /// should park.
    fn snooze(&mut self) -> bool {
        if self.0 < SPIN_ROUNDS {
            for _ in 0..(1u32 << self.0).min(SPIN_CAP) {
                std::hint::spin_loop();
            }
        } else if self.0 < SPIN_ROUNDS + YIELD_ROUNDS {
            std::thread::yield_now();
        } else {
            return false;
        }
        self.0 += 1;
        true
    }
}

static PARKS: sync::atomic::AtomicU64 = sync::atomic::AtomicU64::new(0);

/// Times any thread has gone to sleep on an [`RwLock`]'s condvar, process
/// wide. The regression guard for the spin phase: short critical sections
/// must not move this.
#[doc(hidden)]
pub fn park_count() -> u64 {
    PARKS.load(Relaxed)
}

// Same bounds as std::sync::RwLock.
unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

pub struct RwLockReadGuard<'a, T: ?Sized>(&'a RwLock<T>);

pub struct RwLockWriteGuard<'a, T: ?Sized>(&'a RwLock<T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock {
            state: sync::atomic::AtomicU64::new(0),
            parked: sync::atomic::AtomicU32::new(0),
            park_lock: sync::Mutex::new(()),
            park_cond: sync::Condvar::new(),
            data: std::cell::UnsafeCell::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let mut s = self.state.load(Relaxed);
        loop {
            if s & (WRITER | WWAIT_MASK) != 0 {
                self.read_slow(false);
                return RwLockReadGuard(self);
            }
            match self
                .state
                .compare_exchange_weak(s, s + READER_ONE, SeqCst, Relaxed)
            {
                Ok(_) => return RwLockReadGuard(self),
                Err(e) => s = e,
            }
        }
    }

    /// Like [`read`](Self::read) but does not queue behind waiting
    /// writers, so it may nest under an existing read guard on the same
    /// thread without deadlocking.
    pub fn read_recursive(&self) -> RwLockReadGuard<'_, T> {
        let mut s = self.state.load(Relaxed);
        loop {
            if s & WRITER != 0 {
                self.read_slow(true);
                return RwLockReadGuard(self);
            }
            match self
                .state
                .compare_exchange_weak(s, s + READER_ONE, SeqCst, Relaxed)
            {
                Ok(_) => return RwLockReadGuard(self),
                Err(e) => s = e,
            }
        }
    }

    /// Takes a reader slot the slow way. With `barge` only an active writer
    /// blocks us (the `read_recursive` contract); otherwise waiting writers
    /// do too.
    #[cold]
    fn read_slow(&self, barge: bool) {
        let blockers = if barge { WRITER } else { WRITER | WWAIT_MASK };
        self.acquire_slow(|s| (s & blockers == 0).then_some(s + READER_ONE));
    }

    /// The one contended path: moves the state word from `s` to
    /// `step(s)` once `step` allows it, backing off first and parking
    /// after that.
    fn acquire_slow(&self, step: impl Fn(u64) -> Option<u64>) {
        let mut backoff = Backoff(0);
        loop {
            let s = self.state.load(Relaxed);
            match step(s) {
                Some(next) => {
                    if self
                        .state
                        .compare_exchange_weak(s, next, SeqCst, Relaxed)
                        .is_ok()
                    {
                        return;
                    }
                }
                None if backoff.snooze() => {}
                None => break,
            }
        }
        let mut guard = self.park_lock.lock().unwrap_or_else(|e| e.into_inner());
        self.parked.fetch_add(1, SeqCst);
        loop {
            let s = self.state.load(SeqCst);
            match step(s) {
                Some(next) => {
                    if self.state.compare_exchange(s, next, SeqCst, SeqCst).is_ok() {
                        break;
                    }
                }
                None => {
                    PARKS.fetch_add(1, Relaxed);
                    guard = self
                        .park_cond
                        .wait(guard)
                        .unwrap_or_else(|e| e.into_inner());
                }
            }
        }
        self.parked.fetch_sub(1, SeqCst);
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let mut s = self.state.load(Relaxed);
        loop {
            if s & WRITER != 0 {
                return None;
            }
            match self
                .state
                .compare_exchange_weak(s, s + READER_ONE, SeqCst, Relaxed)
            {
                Ok(_) => return Some(RwLockReadGuard(self)),
                Err(e) => s = e,
            }
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let s = self.state.load(Relaxed);
        if s & (WRITER | READERS_MASK) == 0
            && self
                .state
                .compare_exchange(s, s | WRITER, SeqCst, Relaxed)
                .is_ok()
        {
            return RwLockWriteGuard(self);
        }
        self.write_slow();
        RwLockWriteGuard(self)
    }

    #[cold]
    fn write_slow(&self) {
        // Register as a waiting writer first so new plain `read`s queue
        // behind us while we wait, spinning or parked.
        self.state.fetch_add(WWAIT_ONE, SeqCst);
        self.acquire_slow(|s| (s & (WRITER | READERS_MASK) == 0).then(|| (s - WWAIT_ONE) | WRITER));
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let mut s = self.state.load(Relaxed);
        loop {
            if s & (WRITER | READERS_MASK) != 0 {
                return None;
            }
            match self
                .state
                .compare_exchange_weak(s, s | WRITER, SeqCst, Relaxed)
            {
                Ok(_) => return Some(RwLockWriteGuard(self)),
                Err(e) => s = e,
            }
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Wakes parked threads after a release. The `parked` check keeps the
    /// condvar (and its syscalls) entirely off the uncontended path.
    fn wake_parked(&self) {
        if self.parked.load(SeqCst) > 0 {
            let _g = self.park_lock.lock().unwrap_or_else(|e| e.into_inner());
            self.park_cond.notify_all();
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            None => f.write_str("RwLock(<locked>)"),
        }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        let prev = self.0.state.fetch_sub(READER_ONE, SeqCst);
        // Only the last reader leaving can unblock anyone (a writer).
        if prev & READERS_MASK == READER_ONE {
            self.0.wake_parked();
        }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.0.state.fetch_and(!WRITER, SeqCst);
        self.0.wake_parked();
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Sound: readers > 0 excludes any writer until this guard drops.
        unsafe { &*self.0.data.get() }
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.0.data.get() }
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Sound: writer_active excludes all readers and other writers.
        unsafe { &mut *self.0.data.get() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Arc;

    /// The threaded tests below read the process-wide [`park_count`] and
    /// assume the host's cores are theirs, so they run one at a time.
    static SERIAL: sync::Mutex<()> = sync::Mutex::new(());

    fn serial() -> sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A critical section of a few tens of nanoseconds, the length the
    /// simulator's engine holds its bank locks for.
    fn short_section() {
        for _ in 0..4 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
        assert_eq!(l.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn rwlock_concurrent_stress() {
        let _serial = serial();
        // Writers increment both halves of a pair under the write lock;
        // readers must never observe a torn pair. Twice as many threads as
        // cores, each mixing every acquisition the lock offers, so the
        // spin, yield and park phases and the wake protocol from both
        // guard drops all run.
        const ITERS: u64 = 4000;
        let threads = 2 * std::thread::available_parallelism().map_or(2, |n| n.get()) as u64;
        let l = Arc::new(RwLock::new((0u64, 0u64)));
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    let mut written = 0u64;
                    for k in 0..ITERS {
                        let bump = |pair: &mut (u64, u64)| {
                            pair.0 += 1;
                            short_section();
                            pair.1 += 1;
                        };
                        let check = |pair: &(u64, u64)| assert_eq!(pair.0, pair.1, "torn read");
                        match (t + k) % 6 {
                            0 => {
                                bump(&mut l.write());
                                written += 1;
                            }
                            1 => {
                                if let Some(mut g) = l.try_write() {
                                    bump(&mut g);
                                    written += 1;
                                }
                            }
                            2 => {
                                if let Some(g) = l.try_read() {
                                    check(&g);
                                }
                            }
                            3 => {
                                // The nested pair `read_recursive` exists for.
                                let outer = l.read();
                                check(&l.read_recursive());
                                check(&outer);
                            }
                            _ => check(&l.read()),
                        }
                    }
                    written
                })
            })
            .collect();
        let written: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert!(written >= threads * ITERS / 6);
        assert_eq!(*l.read(), (written, written));
    }

    #[test]
    fn rwlock_try_paths() {
        let l = RwLock::new(5u32);
        let r = l.read();
        assert!(l.try_read().is_some(), "shared with reader");
        assert!(l.try_write().is_none(), "writer blocked by reader");
        drop(r);
        let w = l.try_write().expect("free for writer");
        assert!(l.try_read().is_none(), "reader blocked by writer");
        assert!(l.try_write().is_none(), "second writer blocked");
        drop(w);
        assert_eq!(*l.read(), 5);
    }

    #[test]
    fn rwlock_recursive_read_with_queued_writer() {
        use std::sync::Arc;
        let l = Arc::new(RwLock::new(0u32));
        let outer = l.read();
        // A writer queues up in another thread...
        let l2 = Arc::clone(&l);
        let w = std::thread::spawn(move || {
            *l2.write() += 1;
        });
        // ...give it time to start waiting, then re-read recursively;
        // this must not deadlock.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let inner = l.read_recursive();
        assert_eq!(*inner, 0);
        drop(inner);
        drop(outer);
        w.join().unwrap();
        assert_eq!(*l.read(), 1);
    }

    #[test]
    fn rwlock_recursive_read_with_spinning_writer() {
        let _serial = serial();
        // As above, but the recursive read lands the moment the writer has
        // registered, i.e. while it is still backing off rather than
        // parked. Many rounds, so the read meets every part of the spin.
        let l = Arc::new(RwLock::new(0u32));
        for round in 0..500 {
            let outer = l.read();
            let l2 = Arc::clone(&l);
            let w = std::thread::spawn(move || {
                *l2.write() += 1;
            });
            while l.state.load(SeqCst) & WWAIT_MASK == 0 {
                std::hint::spin_loop();
            }
            assert!(l.try_write().is_none());
            let inner = l.read_recursive();
            assert_eq!(*inner, round);
            drop(inner);
            drop(outer);
            w.join().unwrap();
        }
        assert_eq!(*l.read(), 500);
    }

    #[test]
    fn short_write_sections_spin_instead_of_parking() {
        let _serial = serial();
        const ITERS: u64 = 200_000;
        let l = Arc::new(RwLock::new(0u64));
        let before = park_count();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for _ in 0..ITERS {
                        let mut g = l.write();
                        *g += 1;
                        short_section();
                        drop(g);
                        // As much again outside the lock, as between two
                        // engine accesses: back-to-back re-acquisition by
                        // one thread is hogging, not contention.
                        short_section();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(*l.read(), 2 * ITERS);
        let parks = park_count() - before;
        assert!(
            parks < 2 * ITERS / 100,
            "{parks} parks in {} acquisitions of a lock held for tens of ns",
            2 * ITERS
        );
    }

    #[test]
    fn writer_is_not_starved_by_spinning_readers() {
        let _serial = serial();
        // Two readers keep the lock almost permanently read-held (each
        // holds it far longer than it stays away). A lock that let plain
        // `read`s past a waiting writer would make the writer wait for the
        // rare instant both are away; this one admits no reader turn once
        // the writer has registered, so between the writer's call and its
        // acquisition only turns that raced the registration can start.
        const READERS: u64 = 2;
        const WRITES: usize = 300;
        let l = Arc::new(RwLock::new(0u64));
        let turns = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let before = park_count();
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let (l, turns, stop) = (l.clone(), turns.clone(), stop.clone());
                std::thread::spawn(move || {
                    while !stop.load(SeqCst) {
                        let g = l.read();
                        turns.fetch_add(1, SeqCst);
                        for _ in 0..16 {
                            short_section();
                        }
                        drop(g);
                    }
                })
            })
            .collect();
        let mut overtaken: Vec<u64> = (0..WRITES)
            .map(|_| {
                let t0 = turns.load(SeqCst);
                let mut g = l.write();
                *g += 1;
                let started_meanwhile = turns.load(SeqCst) - t0;
                drop(g);
                // Let the readers back in before asking again.
                let resume = turns.load(SeqCst) + 2 * READERS;
                while turns.load(SeqCst) < resume {
                    std::thread::yield_now();
                }
                started_meanwhile
            })
            .collect();
        stop.store(true, SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*l.read(), WRITES as u64);
        // The median, because a writer descheduled between reading `turns`
        // and registering sees every turn of that time slice.
        overtaken.sort_unstable();
        let median = overtaken[WRITES / 2];
        assert!(
            median <= READERS,
            "median {median} reader turns began while the writer waited: {overtaken:?}"
        );
        let parks = park_count() - before;
        let total = turns.load(SeqCst);
        assert!(
            parks <= total / 100 + WRITES as u64,
            "{parks} parks over {total} reader turns: readers behind a short write must spin"
        );
    }

    #[test]
    fn oversubscribed_waiters_yield_then_park_and_finish() {
        let _serial = serial();
        // Eight threads on however few cores, the holder giving its core
        // away mid-section: waiters run out of spins, yield, and park, and
        // every one of them must still get its turns.
        const THREADS: u64 = 8;
        const ITERS: u64 = 2000;
        let l = Arc::new(RwLock::new((0u64, 0u64)));
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for k in 0..ITERS {
                        if (t + k) % 4 == 0 {
                            let g = l.read();
                            let pair: &(u64, u64) = &g;
                            assert_eq!(pair.0, pair.1, "torn read");
                        } else {
                            let mut g = l.write();
                            let pair: &mut (u64, u64) = &mut g;
                            pair.0 += 1;
                            if k % 64 == 0 {
                                std::thread::yield_now();
                            }
                            pair.1 += 1;
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let writes = (0..THREADS)
            .map(|t| (0..ITERS).filter(|k| (t + k) % 4 != 0).count() as u64)
            .sum::<u64>();
        assert_eq!(*l.read(), (writes, writes));
    }
}
