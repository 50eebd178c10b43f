//! Hand-rolled fan-out parallelism for campaign and table binaries.
//!
//! The container ships no rayon, and the unit of work here (one campaign
//! setting, one table row) is seconds-coarse, so a full work-stealing pool
//! would be overkill. [`parallel_map`] spawns worker threads that claim
//! item indices *one at a time* from a shared atomic counter — the
//! minimal work-stealing queue — and write results into index-addressed
//! slots, so the output order always matches the input order regardless
//! of which thread finished which item first. Per-item claiming matters
//! for coarse, variance-heavy items: with chunked claiming one worker can
//! sit on a run of slow items while its peers idle.
//!
//! The worker count is clamped to the host's `available_parallelism`:
//! extra threads only preempt each other, and on a one-core host every
//! call degrades to the inline sequential loop.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Host parallelism, defaulting to 1 when the OS will not say.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker count [`parallel_map`] actually uses for `jobs` requested
/// over `len` items: at least 1, at most `len`, and never more than the
/// host has cores — oversubscribed workers only preempt each other.
pub fn effective_jobs(jobs: usize, len: usize) -> usize {
    jobs.max(1).min(len).min(host_cores())
}

/// Applies `f` to every item of `items` on up to `jobs` threads (clamped
/// to [`effective_jobs`]) and returns the results in input order.
///
/// `f` receives `(index, &item)`. With an effective worker count of 1 (or
/// fewer than two items) everything runs inline on the caller's thread —
/// byte-for-byte the sequential loop, so `jobs=1` is a strict equivalence
/// baseline for determinism tests. A panic in `f` propagates to the caller
/// when the thread scope joins.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = effective_jobs(jobs, items.len());
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                // One item per claim: a worker stuck on a slow item never
                // holds hostage a queue of unstarted ones — any idle peer
                // takes the next index. One atomic RMW per item is noise
                // against replay-scale work.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::thread::ThreadId;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let out = parallel_map(&items, 8, |i, &x| {
            // Stagger finish times so late slots finish first.
            std::thread::sleep(std::time::Duration::from_micros((97 - x) * 10));
            (i as u64, x * 3)
        });
        assert_eq!(out.len(), 97);
        for (i, (idx, tripled)) in out.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*tripled, items[i] * 3);
        }
    }

    #[test]
    fn jobs_beyond_len_and_empty_input() {
        let out = parallel_map(&[1u32, 2, 3], 64, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        let empty: Vec<u32> = parallel_map(&[], 4, |_, x: &u32| *x);
        assert!(empty.is_empty());
    }

    #[test]
    fn sequential_matches_parallel() {
        let items: Vec<u32> = (0..50).collect();
        let seq = parallel_map(&items, 1, |i, &x| x as usize * 7 + i);
        let par = parallel_map(&items, 6, |i, &x| x as usize * 7 + i);
        assert_eq!(seq, par);
    }

    /// `jobs > cores` must not oversubscribe: the distinct threads that
    /// ever run `f` are bounded by the host's core count (with the caller
    /// thread standing in when the whole map runs inline).
    #[test]
    fn oversubscribed_jobs_clamp_to_host_cores() {
        let cores = host_cores();
        assert_eq!(effective_jobs(4 * cores + 3, 1 << 20), cores);
        assert_eq!(effective_jobs(0, 10), 1);
        assert_eq!(effective_jobs(8, 0), 0, "empty input needs no workers");
        let items: Vec<u32> = (0..256).collect();
        let seen = Mutex::new(BTreeSet::<String>::new());
        let _ = parallel_map(&items, 4 * cores + 3, |_, &x| {
            let id: ThreadId = std::thread::current().id();
            seen.lock().insert(format!("{id:?}"));
            x
        });
        let distinct = seen.lock().len();
        assert!(
            distinct <= cores,
            "spawned {distinct} workers on a {cores}-core host"
        );
    }

    #[test]
    fn claims_cover_every_index_exactly_once() {
        // Count how many times each index is produced; per-item claiming
        // must hand every index to exactly one worker.
        let items: Vec<usize> = (0..1023).collect();
        let counts: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
        let out = parallel_map(&items, 8, |i, &x| {
            counts[i].fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out, items);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }
}
