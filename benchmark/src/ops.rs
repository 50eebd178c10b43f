//! Op-trace generation. Every workload's inputs are made here from the
//! seed, before the timed window: the crates under test only ever see the
//! generated ops.

use std::collections::BTreeSet;

use ffccd_workloads::util::KeyGen;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One generated operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Insert { key: u64, value_size: usize },
    Delete { key: u64 },
    Get { key: u64 },
}

/// A generated trace and the key set it leaves live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    pub ops: Vec<Op>,
    pub live: BTreeSet<u64>,
}

/// Shape of a §6 churn trace: `init` inserts, then `phases` alternating
/// delete/insert/delete phases of `phase_ops` ops, `get_pct` percent of
/// the phase ops replaced by gets of live keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnShape {
    pub init: usize,
    pub phase_ops: usize,
    pub phases: usize,
    pub get_pct: u32,
    pub value_size: usize,
}

/// The live key set as ranks into the sorted list of every key the trace
/// can insert, under a Fenwick tree, so "the idx-th smallest live key" —
/// what `KeyGen::pick` answers by walking a `BTreeSet` — costs O(log n).
struct LiveRanks {
    sorted: Vec<u64>,
    tree: Vec<u32>,
    len: usize,
}

impl LiveRanks {
    fn new(mut universe: Vec<u64>) -> Self {
        universe.sort_unstable();
        let n = universe.len();
        LiveRanks {
            sorted: universe,
            tree: vec![0; n + 1],
            len: 0,
        }
    }

    fn add(&mut self, key: u64, delta: i32) {
        let mut i = self
            .sorted
            .binary_search(&key)
            .expect("key from the universe")
            + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
        self.len = self.len.wrapping_add_signed(delta as isize);
    }

    /// The `idx`-th smallest live key (0-based).
    fn nth(&self, idx: usize) -> u64 {
        debug_assert!(idx < self.len);
        let mut pos = 0usize;
        let mut rem = idx as u32;
        let mut step = (self.tree.len() - 1).next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] <= rem {
                pos = next;
                rem -= self.tree[next];
            }
            step >>= 1;
        }
        self.sorted[pos]
    }
}

/// Generates a churn trace. With `get_pct == 0` the insert/delete
/// sequence is exactly the one `driver::run` draws from `KeyGen::new(seed)`
/// (fresh keys from `KeyGen`, delete victims by the same
/// `gen_range(0..live.len())` index into the sorted live set) — the
/// driver-equivalence test holds the two together.
pub fn churn_trace(seed: u64, shape: ChurnShape) -> Trace {
    let max_inserts = shape.init + shape.phase_ops * shape.phases.div_ceil(2);
    let mut keys = KeyGen::new(seed);
    let universe: Vec<u64> = (0..max_inserts).map(|_| keys.fresh()).collect();
    let mut fresh = universe.iter().copied();
    let mut live = LiveRanks::new(universe.clone());
    // `KeyGen` seeds its private rng the same way; fresh keys and constant
    // value sizes draw nothing from it, so this stream stays in step with
    // the one `KeyGen::pick` would consume.
    let mut pick_rng = SmallRng::seed_from_u64(seed);
    let mut get_rng = SmallRng::seed_from_u64(seed ^ 0x6765_7473);
    let mut ops = Vec::with_capacity(shape.init + shape.phase_ops * shape.phases);

    let mut insert = |live: &mut LiveRanks, ops: &mut Vec<Op>| {
        let key = fresh.next().expect("universe covers every insert");
        live.add(key, 1);
        ops.push(Op::Insert {
            key,
            value_size: shape.value_size,
        });
    };
    for _ in 0..shape.init {
        insert(&mut live, &mut ops);
    }
    for phase in 0..shape.phases {
        let inserting = phase % 2 == 1;
        for _ in 0..shape.phase_ops {
            if !inserting && live.len == 0 {
                break;
            }
            if shape.get_pct > 0 && live.len > 0 && get_rng.gen_range(0..100u32) < shape.get_pct {
                let key = live.nth(get_rng.gen_range(0..live.len));
                ops.push(Op::Get { key });
            } else if inserting {
                insert(&mut live, &mut ops);
            } else {
                let key = live.nth(pick_rng.gen_range(0..live.len));
                live.add(key, -1);
                ops.push(Op::Delete { key });
            }
        }
    }
    let live = replay_live(&ops);
    Trace { ops, live }
}

/// A read-only trace: `keys` inserts (the populate step), then `gets`
/// lookups of which `hot_pct` percent go to the first `hot_keys_pct`
/// percent of the inserted keys and the rest uniformly to all of them.
pub fn read_trace(
    seed: u64,
    keys: usize,
    gets: usize,
    hot_pct: u32,
    hot_keys_pct: usize,
    value_size: usize,
) -> (Trace, Vec<u64>) {
    let mut gen = KeyGen::new(seed);
    let inserted: Vec<u64> = (0..keys).map(|_| gen.fresh()).collect();
    let hot = (keys * hot_keys_pct / 100).max(1);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7265_6164);
    let lookups = (0..gets)
        .map(|_| {
            if rng.gen_range(0..100u32) < hot_pct {
                inserted[rng.gen_range(0..hot)]
            } else {
                inserted[rng.gen_range(0..keys)]
            }
        })
        .collect();
    let ops: Vec<Op> = inserted
        .iter()
        .map(|&key| Op::Insert { key, value_size })
        .collect();
    let live = inserted.into_iter().collect();
    (Trace { ops, live }, lookups)
}

/// The key set a trace leaves live (the oracle `Workload::validate` is
/// checked against).
pub fn replay_live(ops: &[Op]) -> BTreeSet<u64> {
    let mut live = BTreeSet::new();
    for op in ops {
        match *op {
            Op::Insert { key, .. } => {
                live.insert(key);
            }
            Op::Delete { key } => {
                live.remove(&key);
            }
            Op::Get { .. } => {}
        }
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_selection_matches_key_gen_pick() {
        // The same draws against the same live set must name the same
        // victims as `KeyGen::pick` (BTreeSet order, gen_range index).
        let seed = 0xABCD;
        let mut keys = KeyGen::new(seed);
        let universe: Vec<u64> = (0..500).map(|_| keys.fresh()).collect();
        let mut set: BTreeSet<u64> = universe.iter().copied().collect();
        let mut ranks = LiveRanks::new(universe.clone());
        for &k in &universe {
            ranks.add(k, 1);
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..400 {
            let expect = keys.pick(&set).expect("non-empty");
            let got = ranks.nth(rng.gen_range(0..ranks.len));
            assert_eq!(got, expect);
            set.remove(&got);
            ranks.add(got, -1);
        }
        assert_eq!(ranks.len, 100);
    }

    #[test]
    fn gets_only_name_live_keys_and_deletes_hit() {
        let shape = ChurnShape {
            init: 300,
            phase_ops: 200,
            phases: 3,
            get_pct: 30,
            value_size: 128,
        };
        let t = churn_trace(3, shape);
        let mut live = BTreeSet::new();
        let mut gets = 0;
        for op in &t.ops {
            match *op {
                Op::Insert { key, .. } => assert!(live.insert(key)),
                Op::Delete { key } => assert!(live.remove(&key)),
                Op::Get { key } => {
                    gets += 1;
                    assert!(live.contains(&key));
                }
            }
        }
        assert_eq!(live, t.live);
        assert!(
            gets > 100 && gets < 260,
            "about 30% of 600 phase ops: {gets}"
        );
    }
}
