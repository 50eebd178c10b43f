//! `ProbeId`'s `FromStr` inverts its `Display` for every phase, so a probe
//! a campaign printed pastes back into `replay_site` as the same probe.

use ffccd::ProbeId;
use proptest::prelude::*;

fn window() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), 0usize..4096]
}

fn probes() -> impl Strategy<Value = ProbeId> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>(), window())
            .prop_map(|(seed, site, mask, w)| ProbeId::new(seed, site, mask).at_window(w)),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            window()
        )
            .prop_map(|(seed, outer, inner, mask, w)| {
                ProbeId::nested(seed, outer.into(), inner.into(), mask).at_window(w)
            }),
        (any::<u64>(), any::<u64>(), 0usize..64)
            .prop_map(|(seed, site, victim)| ProbeId::thread_kill(seed, site, victim)),
    ]
}

proptest! {
    #[test]
    fn display_then_parse_is_identity(probe in probes()) {
        let text = probe.to_string();
        prop_assert_eq!(text.parse::<ProbeId>(), Ok(probe), "{}", text);
        // Base 0 prints exactly the text pinned in docs and logs.
        prop_assert_eq!(probe.window == 0, !text.contains("window="));
    }
}

#[test]
fn parse_rejects_what_display_never_prints() {
    for bad in [
        "seed=0x1, site=2, subset=0x0",
        "(seed=0x1, site=2)",
        "(seed=0x1, site=2/3, subset=0x0)",
        "(seed=0x1, site=2, phase=recovery, subset=0x0)",
        "(seed=0x1, site=4294967296/3, phase=recovery, subset=0x0)",
        "(seed=0x1, kill_site=9)",
        "(seed=0x1, site=2, subset=0x0, op=7)",
        "(seed=zz, site=2, subset=0x0)",
    ] {
        assert!(bad.parse::<ProbeId>().is_err(), "{bad} parsed");
    }
}
