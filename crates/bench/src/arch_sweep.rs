//! The sizing sweeps behind Tables 1–2 and §4.3.1: PMFTLB capacity, bloom
//! filter size, RBB capacity, PMFT vs hashed forwarding table, and the
//! persist-barrier vs `relocate` cost of one object move.
//!
//! Every number is simulated cycles or an event count over a fixed
//! iteration count — no clock is read, so the table is byte-identical on
//! every run and CI diffs it against `results/arch_sweep.txt`. Host-time
//! costs of the same primitives are `benchmark/`'s `arch.*_host_ns` and
//! `pmem.*_host_ns` rows.

use std::fmt;

use ffccd_arch::{
    in_memory_cost_table, relocate, BloomFilter, CheckLookupUnit, GcMetaLayout, HashedFt,
    HashedFtEntry, Pmft, PmftEntry, Rbb, PMFT_ENTRY_BYTES,
};
use ffccd_pmem::{Ctx, Line, MachineConfig, Media, PersistObserver, PmEngine};
use ffccd_pmop::PoolLayout;

const BASE: u64 = 0x5000_0000_0000;
const CLU_HOT_FRAMES: u64 = 64;
const BLOOM_PAGES: u64 = 512;
const BLOOM_PROBES: u64 = 10_000;
const RBB_HOT_FRAMES: u64 = 16;
const RBB_ACCESSES: u64 = 1024;
const FT_FRAMES: u64 = 128;
const HASHED_BUCKETS: u64 = 512;
const MOVE_BYTES: u64 = 160;

/// Every number of the sizing table; `Display` renders the golden text.
#[derive(Debug)]
pub struct ArchSweep {
    /// (PMFTLB entries, warm-pass cycles per `checklookup` over 64 hot frames).
    pub pmftlb: [(usize, f64); 3],
    /// (bloom filter bytes, false-positive % with 512 pages inserted).
    pub bloom: [(usize, f64); 3],
    /// (RBB entries, warm hit-rate % round-robin over 16 hot frames).
    pub rbb: [(usize, f64); 3],
    /// Cycles per software lookup: (PMFT, hashed table).
    pub lookup_cycles: (f64, f64),
    /// Cycles to move 160 B: (copy + persist barrier, fence-free `relocate`).
    pub move_cycles: (u64, u64),
}

fn layout() -> (PoolLayout, GcMetaLayout) {
    let pool = PoolLayout::compute(16 << 20, 4096);
    let meta = GcMetaLayout::from_pool(&pool);
    (pool, meta)
}

fn pmftlb_sweep() -> [(usize, f64); 3] {
    let (pool, meta) = layout();
    [4usize, 16, 64].map(|pmftlb_entries| {
        let cfg = MachineConfig {
            pmftlb_entries,
            ..MachineConfig::default()
        };
        let engine = PmEngine::new(cfg, pool.total_bytes);
        let mut ctx = Ctx::new(engine.config());
        let pmft = Pmft::new(meta);
        let entries: Vec<PmftEntry> = (0..CLU_HOT_FRAMES)
            .map(|i| {
                let f = i * 7 % meta.num_frames;
                let mut e = PmftEntry::new(f, (f + 100) % meta.num_frames);
                e.map(0, 0);
                e.map(32, 12);
                pmft.store(&mut ctx, &engine, &e);
                e
            })
            .collect();
        let unit = CheckLookupUnit::new(pmft);
        unit.begin_cycle(&engine, BASE, &entries, false);
        // Pass 1 fills the PMFTLB; pass 2 is the steady state being sized.
        let mut ctx = Ctx::new(engine.config());
        let mut pass = || {
            for e in &entries {
                let va = BASE + meta.data_start + e.reloc_frame * 4096;
                unit.checklookup(&mut ctx, &engine, va);
            }
            ctx.cycles()
        };
        let warm = pass();
        let cycles = pass() - warm;
        (pmftlb_entries, cycles as f64 / CLU_HOT_FRAMES as f64)
    })
}

fn bloom_sweep() -> [(usize, f64); 3] {
    [256usize, 1024, 4096].map(|bytes| {
        let mut f = BloomFilter::new(bytes);
        (0..BLOOM_PAGES).for_each(|k| f.insert(k * 31));
        let absent = 100_000..100_000 + BLOOM_PROBES;
        let fps = absent.filter(|&k| f.maybe_contains(k)).count();
        (bytes, fps as f64 * 100.0 / BLOOM_PROBES as f64)
    })
}

fn rbb_sweep() -> [(usize, f64); 3] {
    let (pool, meta) = layout();
    [2usize, 8, 32].map(|entries| {
        let rbb = Rbb::new(meta, entries);
        let mut media = Media::new(pool.total_bytes);
        let mut touch = |i: u64| {
            let off = meta.data_start + (i % RBB_HOT_FRAMES) * 4096 + (i % 64) * 64;
            rbb.pending_line_persisted(&mut media, Line(off / 64));
        };
        // One touch per frame first: compulsory misses are not the sizing.
        (0..RBB_HOT_FRAMES).for_each(&mut touch);
        let (warm_hits, _) = rbb.hit_stats();
        (RBB_HOT_FRAMES..RBB_HOT_FRAMES + RBB_ACCESSES).for_each(&mut touch);
        let hits = rbb.hit_stats().0 - warm_hits;
        (entries, hits as f64 * 100.0 / RBB_ACCESSES as f64)
    })
}

/// §4.3.1: the PM-aware forwarding table (regular layout, two dependent
/// reads) vs the compact hashed table (irregular probing).
fn forwarding_tables() -> (f64, f64) {
    let (pool, meta) = layout();
    let engine = PmEngine::new(MachineConfig::default(), pool.total_bytes);
    let mut ctx = Ctx::new(engine.config());
    let pmft = Pmft::new(meta);
    for f in 0..FT_FRAMES {
        let mut e = PmftEntry::new(f, f + 1000);
        e.map(0, 0);
        pmft.store(&mut ctx, &engine, &e);
    }
    // The hashed table reuses the PMFT arena: they are alternatives.
    let hashed = HashedFt::new(meta.pmft_base, HASHED_BUCKETS);
    hashed.clear(&mut ctx, &engine);
    for f in 0..FT_FRAMES {
        let e = HashedFtEntry {
            src_frame: f,
            src_slot: 0,
            dest_frame: f + 1000,
            dest_slot: 0,
        };
        hashed.store(&mut ctx, &engine, &e);
    }
    let mut ctx = Ctx::new(engine.config());
    for f in 0..FT_FRAMES {
        let _ = pmft.soft_lookup(&mut ctx, &engine, f, 0);
    }
    let pmft_cycles = ctx.cycles();
    for f in 0..FT_FRAMES {
        let _ = hashed.lookup(&mut ctx, &engine, f, 0);
    }
    let hashed_cycles = ctx.cycles() - pmft_cycles;
    let per_lookup = |cycles: u64| cycles as f64 / FT_FRAMES as f64;
    (per_lookup(pmft_cycles), per_lookup(hashed_cycles))
}

/// The same 160-byte object moved the Espresso way (read + write + clwb per
/// line + sfence) and by `relocate`. Both sources are warmed first so only
/// the movement discipline differs.
fn object_move() -> (u64, u64) {
    let engine = PmEngine::new(MachineConfig::default(), 16 << 20);
    let mut ctx = Ctx::new(engine.config());
    let data = [0xA5u8; MOVE_BYTES as usize];
    engine.write(&mut ctx, 0, &data);
    engine.write(&mut ctx, 4096, &data);
    let c0 = ctx.cycles();
    let copy = engine.read_vec(&mut ctx, 0, MOVE_BYTES);
    engine.write(&mut ctx, 1 << 20, &copy);
    engine.persist(&mut ctx, 1 << 20, MOVE_BYTES);
    let c1 = ctx.cycles();
    relocate(&mut ctx, &engine, 4096, (1 << 20) + 4096, MOVE_BYTES);
    (c1 - c0, ctx.cycles() - c1)
}

/// Runs every sweep: fixed seeds, fixed iteration counts, single-bank
/// engines, simulated cycles only.
pub fn arch_sweep() -> ArchSweep {
    ArchSweep {
        pmftlb: pmftlb_sweep(),
        bloom: bloom_sweep(),
        rbb: rbb_sweep(),
        lookup_cycles: forwarding_tables(),
        move_cycles: object_move(),
    }
}

impl fmt::Display for ArchSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shipped = MachineConfig::default();
        let sweep = |rows: &[(usize, f64); 3], shipped: usize, decimals: usize, unit: &str| {
            let mut out = String::new();
            for &(n, v) in rows {
                let mark = if n == shipped { "  <- shipped" } else { "" };
                out += &format!("{n:>8} {v:>10.decimals$}{unit}{mark}\n");
            }
            out
        };
        let rule = "-".repeat(72);
        let pmftlb = sweep(&self.pmftlb, shipped.pmftlb_entries, 1, "");
        let bloom = sweep(&self.bloom, shipped.bloom_filter_bytes, 2, "%");
        let rbb = sweep(&self.rbb, shipped.rbb_entries, 1, "%");
        let (pmft, hashed) = self.lookup_cycles;
        let pmft_entry = in_memory_cost_table()[0].1;
        let hashed_region = HashedFt::new(0, HASHED_BUCKETS).region_bytes();
        let (copy, reloc) = self.move_cycles;
        write!(
            f,
            "{rule}\n\
             Architecture sizing sweeps (simulated cycles, fixed iteration counts)\n\
             {rule}\n\
             PMFTLB entries -> cycles per checklookup, warm pass over {CLU_HOT_FRAMES} hot frames\n\
             {pmftlb}{rule}\n\
             Bloom filter bytes -> false positives, {BLOOM_PAGES} pages inserted, {BLOOM_PROBES} absent keys probed\n\
             {bloom}{rule}\n\
             RBB entries -> hit rate, {RBB_ACCESSES} warm accesses round-robin over {RBB_HOT_FRAMES} hot frames\n\
             {rbb}{rule}\n\
             Forwarding table (paper 4.3.1) -> cycles per software lookup over {FT_FRAMES} frames\n\
             PMFT     {pmft:>10.1}  ({pmft_entry} B entry in a {PMFT_ENTRY_BYTES} B slot per relocation frame)\n\
             hashed   {hashed:>10.1}  ({hashed_region} B region; irregular probes no PMFTLB can cache)\n\
             {rule}\n\
             Moving one {MOVE_BYTES} B object -> cycles\n\
             copy     {copy:>10}  (read + write + clwb per line + sfence)\n\
             relocate {reloc:>10}  (fence-free)\n\
             {rule}\n"
        )
    }
}
