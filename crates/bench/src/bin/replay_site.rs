//! Replays one campaign failure from the line that reported it.
//!
//! Every `sec7_1` failure line ends in a ready-to-paste command:
//!
//! ```text
//! replay_site <workload> <scheme> '<probe>'
//! replay_site LL sfccd '(seed=0x517e01, site=271422, subset=0x0)'
//! replay_site LL sfccd '(seed=0x517e01, site=271422/20, phase=recovery, subset=0x1)'
//! replay_site LL sfccd '(seed=0x7c4a01, kill_site=2681, victim=0)'
//! replay_site BzTree checklookup '(seed=0x517f01, site=144445, subset=0x0, threads=4)'
//! ```
//!
//! The probe is exactly what the campaign printed
//! ([`ffccd::ProbeId`]'s `Display`): a §7.1b/c crash site with the
//! maybe-persisted subset to materialize (`subset=0x0` is the base,
//! nothing-persisted image; bit `i` persists entry `i` of the site's
//! maybe-set, so a mask addresses its first 64 entries; `threads=N`
//! appears when the run was the seeded multi-threaded driver), a §7.1d
//! crash *inside recovery* at `site=OUTER/INNER`, or a §7.1e thread kill.
//! The run configuration is the campaigns' ([`sec71_config`]), so the site
//! ID resolves to the same durability event and the mask to the same
//! lattice entries. No environment variable is read.
//!
//! Exit codes: 0 = PASS, 1 = the oracle FAILed, 2 = the site never fired
//! (wrong seed/workload/scheme), 101 = bad arguments. Workloads:
//! LL|DQ|AVL|pmemkv|… (any `sec7_1` row's workload, without a thread
//! count); schemes: espresso|sfccd|ffccd|checklookup.

use ffccd::{ProbeId, ProbePhase};
use ffccd_bench::campaign::{campaign_workload, parse_scheme, sec71_config};
use ffccd_workloads::campaign::replay;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [workload, scheme, probe] = args.as_slice() else {
        panic!("usage: replay_site <workload> <scheme> '<probe>'");
    };
    let make = campaign_workload(workload)
        .unwrap_or_else(|| panic!("unknown workload {workload} (LL|DQ|AVL|pmemkv|…)"));
    let scheme = parse_scheme(scheme)
        .unwrap_or_else(|| panic!("unknown scheme {scheme} (espresso|sfccd|ffccd|checklookup)"));
    let probe: ProbeId = probe.parse().unwrap_or_else(|e| panic!("{e}"));

    println!("replaying {workload} / {} {probe}", scheme.label());
    let cfg = sec71_config(scheme, probe.seed);
    let Some(r) = replay(&*make, scheme, probe, &cfg) else {
        println!("{probe} never fired — wrong seed, workload or scheme?");
        std::process::exit(2);
    };
    let fired = match (probe.phase, r.kill) {
        (ProbePhase::ThreadKill { .. }, Some(kill)) => format!(
            "kill fired after {} ops, {}",
            kill.ops_completed,
            match kill.inflight {
                Some((true, key)) => format!("inside insert({key})"),
                Some((false, key)) => format!("inside delete({key})"),
                None => "no op in flight".to_owned(),
            }
        ),
        // The checker suite panicked before the run could report the kill.
        (ProbePhase::ThreadKill { .. }, None) => "kill run".to_owned(),
        (ProbePhase::Recovery, _) => format!(
            "recovery site fired (outer op {}, nested maybe set {})",
            r.op,
            r.maybe.len()
        ),
        (ProbePhase::Mutator, _) => {
            format!(
                "site fired during op {} (maybe set {})",
                r.op,
                r.maybe.len()
            )
        }
    };
    let oracle = match probe.phase {
        ProbePhase::ThreadKill { .. } => "survivors drained + checker suite + restart",
        ProbePhase::Recovery => "idempotent recovery + validation",
        ProbePhase::Mutator => "recovery + validation",
    };
    match r.outcome {
        Ok(()) => println!("{fired}: {oracle} PASS"),
        Err(msg) => {
            println!("{fired}: FAIL\n  {msg}");
            std::process::exit(1);
        }
    }
}
