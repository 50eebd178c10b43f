//! The benchmark loop measures the same simulated program the `fig*` and
//! `table*` bins run through `driver::run`, and its inputs are a function
//! of the seed alone.

use std::time::Instant;

use ffccd::Scheme;
use ffccd_benchmark::ops::{churn_trace, ChurnShape};
use ffccd_benchmark::workloads::{kv_defrag, kv_round, pool, Round};
use ffccd_workloads::driver::{self, DriverConfig, PhaseMix};
use ffccd_workloads::Pmemkv;

const SHAPE: ChurnShape = ChurnShape {
    init: 2_000,
    phase_ops: 1_600,
    phases: 3,
    get_pct: 0,
    value_size: 128,
};

fn config(seed: u64) -> DriverConfig {
    DriverConfig {
        defrag: kv_defrag(),
        // `driver::run` seeds the machine from `cfg.seed`; the loop is handed
        // the pool config as is.
        pool: pool(seed, 4 << 20, 1),
        mix: PhaseMix {
            init: SHAPE.init,
            phase_ops: SHAPE.phase_ops,
            phases: SHAPE.phases,
        },
        seed,
        ..DriverConfig::new(Scheme::FfccdCheckLookup)
    }
}

fn replay(cfg: &DriverConfig, traced: bool) -> Round {
    let trace = churn_trace(cfg.seed, SHAPE);
    kv_round(
        Instant::now(),
        cfg.pool.clone(),
        cfg.defrag,
        &[],
        trace.ops.iter().copied(),
        &trace.live,
        traced,
    )
}

#[test]
fn loop_replaying_a_keygen_trace_is_the_drivers_program() {
    for seed in [0xFFCCD, 7] {
        let cfg = config(seed);
        let driven = driver::run(&mut Pmemkv::new(), &cfg);
        assert!(
            driven.gc.objects_relocated > 0 && driven.gc.cycles_completed > 1,
            "the mix must exercise the collector: {:?}",
            driven.gc
        );
        for traced in [false, true] {
            let round = replay(&cfg, traced);
            assert_eq!(round.failed, 0);
            assert_eq!(round.attempted, driven.ops);
            assert_eq!(
                round.app_ctx_cycles,
                Some(driven.app_cycles),
                "app cycles, seed {seed}"
            );
            let gc = round.gc.expect("the loop owns its heap");
            assert_eq!(
                gc.total_gc_cycles(),
                driven.gc.total_gc_cycles(),
                "GC cycles, seed {seed}"
            );
            assert_eq!(gc.objects_relocated, driven.gc.objects_relocated);
            assert_eq!(traced, !round.spans.is_empty());
        }
    }
}

#[test]
fn traces_are_a_function_of_the_seed() {
    let shape = ChurnShape {
        get_pct: 30,
        ..SHAPE
    };
    assert_eq!(churn_trace(11, shape), churn_trace(11, shape));
    assert_ne!(churn_trace(11, shape).ops, churn_trace(12, shape).ops);
}
