//! Property tests of the adversarial subset shrinker: on synthetic
//! monotone oracles the greedy delta-debug loop always lands on a
//! 1-minimal failing subset, finds a sole culprit exactly, and is a pure
//! function of its inputs (deterministic per seed) — plus the real-oracle
//! counterpart: `recover()` is 1-Lipschitz on the persisted lattice of a
//! pinned crash capture (persisting one more line never flips pass→fail).

use std::sync::OnceLock;

use proptest::prelude::*;

use ffccd::{validate_heap, DefragHeap, ProbeId, Scheme};
use ffccd_pmem::{CrashImage, MaybeSet};
use ffccd_workloads::campaign::{replay, sec71_config, shrink_subset};
use ffccd_workloads::{LinkedList, Workload};

fn make_ll() -> Box<dyn Workload> {
    Box::new(LinkedList::new())
}

/// The pinned 81-line capture (LL / fence-free, seed 0x517e02, site
/// 120000): captured once, then every proptest case materializes subsets
/// over it without re-running the workload.
fn pinned_capture() -> &'static (CrashImage, MaybeSet) {
    static CAPTURE: OnceLock<(CrashImage, MaybeSet)> = OnceLock::new();
    CAPTURE.get_or_init(|| {
        let cfg = sec71_config(Scheme::FfccdFenceFree, 0x517e02);
        let probe = ProbeId::new(0x517e02, 120000, 0);
        let r =
            replay(&make_ll, Scheme::FfccdFenceFree, probe, &cfg).expect("pinned site must fire");
        assert!(r.maybe.entries().len() >= 64, "lattice shrank");
        (r.image, r.maybe)
    })
}

/// The recovery oracle the campaigns gate on: recover, fingerprint, recover
/// again (must be a byte-identical no-op), validate the heap.
fn recovery_passes(image: &CrashImage) -> bool {
    let cfg = sec71_config(Scheme::FfccdFenceFree, 0x517e02);
    match DefragHeap::open_recovered_idempotent(image, None, make_ll().registry(), cfg.defrag) {
        Ok((heap, rerun)) => rerun.is_noop() && validate_heap(&heap).is_ok(),
        Err(_) => false,
    }
}

/// A monotone failure oracle seeded from small culprit sets: a mask fails
/// iff it contains at least one culprit as a subset. This is the shape
/// real persistence bugs take — some set of lines persisting together
/// breaks recovery, and any superset still breaks it.
fn fails_with(culprits: &[u64]) -> impl Fn(u64) -> bool + '_ {
    move |m: u64| culprits.iter().any(|&c| c != 0 && m & c == c)
}

fn culprit_strategy() -> impl Strategy<Value = Vec<u64>> {
    // Small culprits (≤ 6 bits) so starting masks usually contain one.
    proptest::collection::vec((1u64..=u64::MAX).prop_map(|m| m & 0x3F3F_0F0F), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// With a single culprit, the shrinker must land on it *exactly*: the
    /// greedy pass removes every non-culprit bit (the oracle still fails
    /// without it) and can never remove a culprit bit.
    #[test]
    fn single_culprit_is_found_exactly(
        culprit in (1u64..=u64::MAX).prop_map(|m| m & 0x0FF0_F00F),
        extra in any::<u64>(),
    ) {
        prop_assume!(culprit != 0);
        let start = culprit | extra;
        let fails = |m: u64| m & culprit == culprit;
        let (shrunk, minimal) = shrink_subset(start, fails, usize::MAX);
        prop_assert_eq!(shrunk, culprit);
        prop_assert!(minimal);
    }

    /// On any monotone multi-culprit oracle the result is 1-minimal: it
    /// still fails, and removing any single remaining line passes.
    #[test]
    fn shrunk_mask_is_one_minimal(
        culprits in culprit_strategy(),
        extra in any::<u64>(),
    ) {
        let fails = fails_with(&culprits);
        let start = culprits[0] | extra;
        prop_assume!(fails(start));
        let (shrunk, minimal) = shrink_subset(start, &fails, usize::MAX);
        prop_assert!(minimal, "unbounded probes must reach a clean pass");
        prop_assert!(fails(shrunk), "shrunk mask must still fail");
        for bit in 0..64 {
            let b = 1u64 << bit;
            if shrunk & b != 0 {
                prop_assert!(
                    !fails(shrunk & !b),
                    "bit {} is removable — mask 0x{:x} is not 1-minimal",
                    bit,
                    shrunk
                );
            }
        }
        // 1-minimality of a union oracle means exactly one culprit remains.
        prop_assert!(
            culprits.contains(&shrunk),
            "0x{:x} is not one of the seeded culprits {:x?}",
            shrunk,
            culprits
        );
    }

    /// The shrinker is a pure function: same starting mask and oracle give
    /// the same result on every run, and a probe budget only ever changes
    /// the answer by stopping early (the bounded result is a superset of
    /// the unbounded one and still fails).
    #[test]
    fn shrink_is_deterministic_and_budget_monotone(
        culprits in culprit_strategy(),
        extra in any::<u64>(),
        budget in 1usize..256,
    ) {
        let fails = fails_with(&culprits);
        let start = culprits[0] | extra;
        prop_assume!(fails(start));
        let a = shrink_subset(start, &fails, usize::MAX);
        let b = shrink_subset(start, &fails, usize::MAX);
        prop_assert_eq!(a, b, "identical inputs must shrink identically");
        let (bounded, _) = shrink_subset(start, &fails, budget);
        prop_assert!(fails(bounded), "bounded shrink still returns a failing mask");
        prop_assert_eq!(
            bounded & a.0,
            a.0,
            "bounded result 0x{:x} must be a superset of the fixpoint 0x{:x}",
            bounded,
            a.0
        );
    }
}

proptest! {
    // Each case runs real recovery twice on an 8 MiB image — keep the
    // case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `recover()` is 1-Lipschitz (monotone) on the persisted lattice: if
    /// recovery passes on a subset image, persisting ONE more ambiguous
    /// line must still pass. The shrinker's 1-minimality guarantee and the
    /// adversarial campaign's pruning both lean on this — a non-monotone
    /// oracle would make "minimal counterexample" meaningless. Both masks
    /// address the pinned 64-line window of the capture above.
    #[test]
    fn recovery_is_one_lipschitz_on_persisted_lattice(
        mask in any::<u64>(),
        bit in 0u32..64,
    ) {
        let (image, maybe) = pinned_capture();
        let stepped = mask | (1u64 << bit);
        prop_assume!(stepped != mask);
        let base = image
            .with_persisted_subset(maybe, mask)
            .expect("mask is inside the 64-entry window");
        prop_assume!(recovery_passes(&base));
        let next = image
            .with_persisted_subset(maybe, stepped)
            .expect("stepped mask is inside the window");
        prop_assert!(
            recovery_passes(&next),
            "persisting one more line (bit {}) flipped pass→fail: \
             mask 0x{:x} → 0x{:x}",
            bit,
            mask,
            stepped
        );
    }
}

/// The recovery-phase counterpart, exhaustive: a pinned nested image's
/// maybe-set lattice is tiny (one line), so walk ALL of it — the oracle
/// must be monotone from the empty subset to the full one.
#[test]
fn nested_recovery_is_monotone_on_its_full_lattice() {
    let (scheme, seed, outer, rec_site) = (Scheme::Sfccd, 0x517e01u64, 271422u64, 20u64);
    let cfg = sec71_config(scheme, seed);
    let mut outcomes = Vec::new();
    for mask in [0u64, 0x1] {
        let probe = ProbeId::nested(seed, outer, rec_site, mask);
        let r =
            replay(&make_ll, scheme, probe, &cfg).expect("pinned recovery-phase site must fire");
        assert_eq!(r.maybe.len(), 1, "pinned nested lattice size moved");
        outcomes.push(r.outcome.is_ok());
    }
    // Monotonicity: pass(empty) ⇒ pass(full).
    assert!(
        outcomes[1] || !outcomes[0],
        "persisting the single ambiguous line flipped nested recovery pass→fail"
    );
    assert!(
        outcomes.iter().all(|ok| *ok),
        "pinned nested probes regressed: {outcomes:?}"
    );
}
