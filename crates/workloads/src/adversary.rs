//! Adversarial persistence explorer — bounded model checking over the
//! maybe-persisted lattice (paper §3.3/§5; Jaaru-style persistency
//! exploration; the §7.1c campaign).
//!
//! The §7.1b crash-site sweep validates exactly one crash image per
//! `(seed, site_id)`: the base image, in which nothing volatile persisted.
//! But under ADR *every subset* of the maybe-persisted set — dirty cache
//! lines plus post-`clwb`/pre-`sfence` in-flight lines; WPQ contents are
//! ADR-guaranteed and excluded — is an equally legal durability outcome,
//! because nothing orders non-fenced writebacks with respect to the
//! failure. FFCCD's central claim is that recovery tolerates *any* of
//! them. [`crate::faults::run_crash_site_sweep`] checks it when its plan's
//! [`crate::faults::CrashPlan::images_per_site`] is above 1; this module
//! owns the two lattice policies the pipeline's explorer calls — which
//! masks to try ([`choose_masks`]) and how a failing one shrinks to a
//! 1-minimal counterexample ([`shrink_subset`]), replayable forever from
//! its `(seed, site_id, subset_bitmask)` triple ([`ffccd::ProbeId`],
//! [`crate::campaign::replay`]).

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Greedy 1-minimal shrink of a failing subset bitmask.
///
/// Repeatedly tries to drop each set bit (ascending); a drop is kept when
/// the oracle still fails without that line. Loops to a fixpoint: the
/// returned mask is *1-minimal* — `fails(mask)` holds and removing any
/// single remaining line makes the oracle pass — whenever the second
/// return value is `true`. `false` means the probe budget ran out first
/// and the mask is merely a smaller failing subset.
///
/// Deterministic: probe order is a pure function of the starting mask, so
/// the same `(mask, oracle)` always shrinks to the same result.
pub fn shrink_subset(
    mask: u64,
    mut fails: impl FnMut(u64) -> bool,
    max_probes: usize,
) -> (u64, bool) {
    let mut cur = mask;
    let mut probes = 0usize;
    loop {
        let mut changed = false;
        for bit in 0..64 {
            let b = 1u64 << bit;
            if cur & b == 0 {
                continue;
            }
            if probes >= max_probes {
                return (cur, false);
            }
            probes += 1;
            if fails(cur & !b) {
                cur &= !b;
                changed = true;
            }
        }
        if !changed {
            // A full clean pass: every single-bit removal passed, so `cur`
            // is 1-minimal by construction.
            return (cur, true);
        }
    }
}

/// Chooses the subset bitmasks to explore at one site. Returns the masks
/// in exploration order plus whether the lattice is covered exhaustively.
///
/// Exhaustive (`0..2^window`) when that fits the budget; otherwise corners
/// first — empty set, full set, singletons, all-but-one — then distinct
/// seeded-random masks up to the budget. The corner bias follows
/// delta-debugging practice: boundary subsets are where monotone recovery
/// logic breaks first.
pub fn choose_masks(window: u32, budget: u64, seed: u64, site_id: u64) -> (Vec<u64>, bool) {
    if window == 0 {
        return (vec![0], true);
    }
    let full: u64 = if window >= 64 {
        u64::MAX
    } else {
        (1u64 << window) - 1
    };
    if window < 63 && (1u64 << window) <= budget {
        return ((0..=full).collect(), true);
    }
    let mut out: Vec<u64> = Vec::new();
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let push = |m: u64, out: &mut Vec<u64>, seen: &mut BTreeSet<u64>| {
        if seen.insert(m) {
            out.push(m);
        }
    };
    push(0, &mut out, &mut seen);
    push(full, &mut out, &mut seen);
    for i in 0..window {
        push(1u64 << i, &mut out, &mut seen);
    }
    for i in 0..window {
        push(full ^ (1u64 << i), &mut out, &mut seen);
    }
    let mut rng =
        SmallRng::seed_from_u64(seed ^ site_id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xadfe_50b5);
    while (out.len() as u64) < budget {
        push(rng.gen::<u64>() & full, &mut out, &mut seen);
    }
    out.truncate(budget as usize);
    (out, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrink_finds_exact_monotone_culprit() {
        // Oracle: fails iff the mask contains the whole culprit (monotone
        // superset failure). The greedy shrink must land exactly on it.
        let culprit = 0b1010_0100u64;
        let fails = |m: u64| m & culprit == culprit;
        let (shrunk, minimal) = shrink_subset(0xFF, fails, usize::MAX);
        assert_eq!(shrunk, culprit);
        assert!(minimal);
    }

    #[test]
    fn shrink_respects_probe_budget() {
        let fails = |m: u64| m.count_ones() >= 2;
        let (shrunk, minimal) = shrink_subset(u64::MAX, fails, 3);
        assert!(!minimal, "budget exhausted before a clean pass");
        assert!(fails(shrunk), "still a failing subset");
    }

    #[test]
    fn choose_masks_exhaustive_small_window() {
        let (masks, exhaustive) = choose_masks(3, 64, 7, 9);
        assert!(exhaustive);
        assert_eq!(masks.len(), 8);
        let distinct: BTreeSet<u64> = masks.iter().copied().collect();
        assert_eq!(distinct, (0..8u64).collect());
        // Window 0: only the base image.
        assert_eq!(choose_masks(0, 64, 7, 9), (vec![0], true));
    }

    #[test]
    fn choose_masks_sampled_has_corners_first_and_is_deterministic() {
        let (masks, exhaustive) = choose_masks(20, 64, 0xabc, 17);
        assert!(!exhaustive);
        assert_eq!(masks.len(), 64);
        let full = (1u64 << 20) - 1;
        assert_eq!(masks[0], 0, "empty set first");
        assert_eq!(masks[1], full, "full set second");
        assert!(
            (0..20).all(|i| masks.contains(&(1u64 << i))),
            "all singletons present"
        );
        assert!(
            (0..20).all(|i| masks.contains(&(full ^ (1u64 << i)))),
            "all all-but-one masks present"
        );
        assert!(masks.iter().all(|&m| m <= full), "masks stay in-window");
        let distinct: BTreeSet<u64> = masks.iter().copied().collect();
        assert_eq!(distinct.len(), masks.len(), "no duplicates");
        assert_eq!(masks, choose_masks(20, 64, 0xabc, 17).0, "deterministic");
        assert_ne!(
            masks,
            choose_masks(20, 64, 0xabc, 18).0,
            "per-site mask streams differ"
        );
    }

    #[test]
    fn choose_masks_full_64_window() {
        let (masks, exhaustive) = choose_masks(64, 16, 1, 2);
        assert!(!exhaustive);
        assert_eq!(masks.len(), 16);
        assert_eq!(masks[1], u64::MAX);
    }
}
