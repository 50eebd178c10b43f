//! Figure 16 + §7.4 — the Redis case study: memory footprint over time and
//! tail latencies under PMDK (no defrag), STW compaction, Mesh, and FFCCD.
//!
//! The four variants are independent runs (each builds its own pool), so
//! they fan out over `--jobs N` host threads; the tables print in fixed
//! variant order once the fan-out joins, so the output is job-count
//! invariant.

use ffccd::{DefragConfig, DefragHeap, Scheme};
use ffccd_bench::{header, jobs, mib, rule, scale};
use ffccd_pmem::MachineConfig;
use ffccd_pmop::PoolConfig;
use ffccd_workloads::par::parallel_map;
use ffccd_workloads::redis::RedisLru;
use ffccd_workloads::util::KeyGen;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Variant {
    Pmdk,
    Stw,
    Mesh,
    Ffccd,
}

struct Outcome {
    series: Vec<(u64, u64)>, // (op, footprint)
    avg_footprint: f64,
    avg_live: f64,
    p50: u64,
    p90: u64,
    p99: u64,
    max: u64,
}

fn run_variant(v: Variant) -> Outcome {
    let cap = (200 << 20) / scale() as u64; // 200 MB live cap, scaled
    let initial = 1_000_000 / scale();
    let extra = 500_000 / scale();
    let queries = 500_000 / scale();

    let mut redis = RedisLru::new(cap);
    let scheme = if v == Variant::Ffccd {
        Scheme::FfccdCheckLookup
    } else {
        Scheme::Baseline
    };
    let defrag = match v {
        Variant::Ffccd => DefragConfig {
            min_live_bytes: 1 << 14,
            cooldown_ops: 256,
            ..DefragConfig::normal(scheme)
        },
        _ => DefragConfig::baseline(),
    };
    let pool_cfg = PoolConfig {
        data_bytes: 64 << 20,
        os_page_size: 4096, // the paper uses 4 KB pages for this study
        machine: MachineConfig::default(),
    };
    let heap = DefragHeap::create(pool_cfg, RedisLru::registry(), defrag).expect("pool");
    let mut ctx = heap.ctx();
    let mut gc_ctx = heap.ctx();
    redis.setup(&heap, &mut ctx);
    let mut keys = KeyGen::new(0xF166);
    let mut series = Vec::new();
    let mut lat = Vec::new();
    let mut fp_sum = 0f64;
    let mut live_sum = 0f64;
    let mut samples = 0u64;
    let mut op_idx = 0u64;

    let mut tick = |heap: &DefragHeap,
                    ctx: &mut ffccd_pmem::Ctx,
                    gc_ctx: &mut ffccd_pmem::Ctx,
                    op_cycles: u64,
                    op_idx: &mut u64,
                    series: &mut Vec<(u64, u64)>,
                    lat: &mut Vec<u64>| {
        let mut cycles = op_cycles;
        match v {
            Variant::Pmdk => {}
            Variant::Ffccd => {
                if heap.in_cycle() {
                    heap.step_compaction(gc_ctx, 16);
                } else if (*op_idx).is_multiple_of(8) {
                    heap.maybe_defrag(gc_ctx);
                }
            }
            Variant::Stw => {
                // Periodic stop-the-world compaction when fragmented: the
                // whole pause lands on this operation's latency.
                if (*op_idx).is_multiple_of(64) && heap.pool().stats().frag_ratio > 1.5 {
                    let (pause, _) = heap.stw_compact(ctx);
                    cycles += pause;
                }
            }
            Variant::Mesh => {
                if (*op_idx).is_multiple_of(64) && heap.pool().stats().frag_ratio > 1.5 {
                    let (pause, _) = heap.mesh_compact(ctx);
                    cycles += pause;
                }
            }
        }
        lat.push(cycles);
        *op_idx += 1;
        if (*op_idx).is_multiple_of(16) {
            let st = heap.pool().stats();
            series.push((*op_idx, st.footprint_bytes));
            fp_sum += st.footprint_bytes as f64;
            live_sum += st.live_bytes as f64;
            samples += 1;
        }
    };

    // Phase 1: fill 1M keys (LRU keeps live at the cap). Value sizes sit
    // in the lower half of the 240–492 range; phase 3 drifts upward —
    // size-distribution drift is what defeats size-class hole reuse (it is
    // the motivating scenario for Redis activedefrag).
    for _ in 0..initial {
        let t0 = ctx.cycles();
        let k = keys.fresh();
        let vs = keys.value_size(240, 360);
        redis.set(&heap, &mut ctx, k, vs);
        let c = ctx.cycles() - t0;
        tick(
            &heap,
            &mut ctx,
            &mut gc_ctx,
            c,
            &mut op_idx,
            &mut series,
            &mut lat,
        );
    }
    // Phase 2: queries.
    for _ in 0..queries {
        let t0 = ctx.cycles();
        if let Some(k) = keys.pick(redis.keys()) {
            redis.get(&heap, &mut ctx, k);
        }
        let c = ctx.cycles() - t0;
        tick(
            &heap,
            &mut ctx,
            &mut gc_ctx,
            c,
            &mut op_idx,
            &mut series,
            &mut lat,
        );
    }
    // Phase 3: 500K more inserts — half fresh keys, half overwrites of
    // existing keys with re-sampled sizes (Redis SET of an existing key
    // reallocates the value; the size mismatch is what leaves holes).
    for i in 0..extra {
        let t0 = ctx.cycles();
        let k = if i % 2 == 0 {
            keys.fresh()
        } else {
            keys.pick(redis.keys()).unwrap_or_else(|| keys.fresh())
        };
        let vs = keys.value_size(360, 492);
        redis.set(&heap, &mut ctx, k, vs);
        let c = ctx.cycles() - t0;
        tick(
            &heap,
            &mut ctx,
            &mut gc_ctx,
            c,
            &mut op_idx,
            &mut series,
            &mut lat,
        );
    }
    // Phase 4: queries until the end.
    for _ in 0..queries {
        let t0 = ctx.cycles();
        if let Some(k) = keys.pick(redis.keys()) {
            redis.get(&heap, &mut ctx, k);
        }
        let c = ctx.cycles() - t0;
        tick(
            &heap,
            &mut ctx,
            &mut gc_ctx,
            c,
            &mut op_idx,
            &mut series,
            &mut lat,
        );
    }
    heap.exit(&mut gc_ctx);
    redis.validate(&heap, &mut ctx).expect("redis consistent");

    lat.sort_unstable();
    let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
    Outcome {
        series,
        avg_footprint: fp_sum / samples.max(1) as f64,
        avg_live: live_sum / samples.max(1) as f64,
        p50: pct(0.50),
        p90: pct(0.90),
        p99: pct(0.99),
        max: pct(1.0),
    }
}

fn main() {
    header("Figure 16 / §7.4: Redis memory footprint and tail latency by scheme");
    let variants = [Variant::Pmdk, Variant::Stw, Variant::Mesh, Variant::Ffccd];
    let outcomes: Vec<Outcome> = parallel_map(&variants, jobs(), |_, &v| {
        eprintln!("[fig16] running {v:?}...");
        run_variant(v)
    });

    println!("footprint over time (MB):");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10}",
        "op", "PMDK", "STW", "Mesh", "FFCCD"
    );
    let len = outcomes.iter().map(|o| o.series.len()).min().unwrap_or(0);
    for i in (0..len).step_by((len / 16).max(1)) {
        println!(
            "{:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            outcomes[0].series[i].0,
            mib(outcomes[0].series[i].1 as f64),
            mib(outcomes[1].series[i].1 as f64),
            mib(outcomes[2].series[i].1 as f64),
            mib(outcomes[3].series[i].1 as f64),
        );
    }
    rule(72);
    let over = outcomes[0].avg_footprint - outcomes[0].avg_live;
    println!(
        "{:<8} {:>12} {:>12} {:>14} {:>10} {:>10} {:>10} {:>12}",
        "scheme", "avg fp(MB)", "live(MB)", "frag red. %", "p50", "p90", "p99", "max"
    );
    for (v, o) in variants.iter().zip(&outcomes) {
        let red = if over > 0.0 {
            (outcomes[0].avg_footprint - o.avg_footprint) / over * 100.0
        } else {
            0.0
        };
        println!(
            "{:<8} {:>12.2} {:>12.2} {:>14.1} {:>10} {:>10} {:>10} {:>12}",
            format!("{v:?}"),
            mib(o.avg_footprint),
            mib(o.avg_live),
            red,
            o.p50,
            o.p90,
            o.p99,
            o.max
        );
    }
    println!();
    println!("(paper: FFCCD reduces Redis fragmentation 73.4% at 4.6% overhead; STW");
    println!(" jemalloc-style defrag reaches only 47.6% with tail latencies an order");
    println!(" of magnitude worse — 331/442/563 ms vs FFCCD's 11.2/22.1/34.8 ms)");
}
