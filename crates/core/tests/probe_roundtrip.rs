//! `ProbeId`'s `FromStr` inverts its `Display` for every phase, so a probe
//! a campaign printed pastes back into `replay_site` as the same probe.

use ffccd::ProbeId;
use proptest::prelude::*;

fn threads() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), 1usize..64]
}

fn probes() -> impl Strategy<Value = ProbeId> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>(), threads())
            .prop_map(|(seed, site, mask, t)| ProbeId::new(seed, site, mask).with_threads(t)),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            threads()
        )
            .prop_map(|(seed, outer, inner, mask, t)| {
                ProbeId::nested(seed, outer.into(), inner.into(), mask).with_threads(t)
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
        // One thread prints exactly the text pinned in docs and logs.
        prop_assert_eq!(probe.threads == 1, !text.contains("threads="));
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
        "(seed=0x1, site=2, subset=0x0, threads=1)",
        "(seed=0x1, kill_site=9, victim=0, threads=4)",
        "(seed=zz, site=2, subset=0x0)",
    ] {
        assert!(bad.parse::<ProbeId>().is_err(), "{bad} parsed");
    }
}
