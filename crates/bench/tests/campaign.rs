//! The campaign geometry and names `sec7_1` and `replay_site` share.

use ffccd_bench::campaign::{parse_scheme, scheme_key, sec71_config};
use ffccd_bench::{driver_config, FIG_SCHEMES};

/// `sec71_config` is built from `DriverConfig::new`; `sec7_1` used to build
/// the same geometry from [`driver_config`]. The two agree only because two
/// sets of defaults coincide — assert it, field by field.
#[test]
fn sec71_config_is_what_sec7_1_built_from_driver_config() {
    for scheme in FIG_SCHEMES {
        let seed = 0x517e01;
        let mut old = driver_config(scheme, false, seed);
        let new = sec71_config(scheme, seed);
        // The three fields `sec7_1` overrode; every other field is a
        // default of one constructor or the other.
        old.mix = new.mix;
        old.pool.data_bytes = 8 << 20;
        old.defrag.min_live_bytes = 1 << 12;
        assert_eq!(format!("{:?}", new.defrag), format!("{:?}", old.defrag));
        assert_eq!(format!("{:?}", new.pool), format!("{:?}", old.pool));
        assert_eq!(new.value_size, old.value_size);
        assert_eq!(new.seed, old.seed);
        assert_eq!(new.schedule, old.schedule);
    }
}

#[test]
fn scheme_keys_round_trip() {
    for scheme in FIG_SCHEMES {
        assert_eq!(parse_scheme(scheme_key(scheme)), Some(scheme));
    }
    assert_eq!(parse_scheme("baseline"), None);
}
