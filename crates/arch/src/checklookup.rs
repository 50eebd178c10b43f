//! The `checklookup` instruction (paper §4.3.2, Figure 12).
//!
//! `checklookup (x → y)` answers, in a handful of cycles, the two questions
//! every read barrier asks: *is this address in a relocation page?* and *if
//! so, where is its destination?* — replacing the software page check and
//! in-memory forwarding-table walk that dominate Espresso's barrier cost.
//!
//! The unit's state has two parts:
//!
//! * [`Armed`]: the per-cycle programming (base address, bloom filter).
//!   Immutable once built and published as an `Arc` snapshot, so a lookup
//!   finishes on the programming it started with while the unit disarms.
//! * Hot state (BFC residency flag, PMFTLB, unit stats): mutated on every
//!   charged lookup, kept behind a mutex — the charge sequence on this
//!   path is pinned by cycle-total regressions.

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use ffccd_pmem::{Ctx, PmEngine};

use crate::bloom::BloomFilter;
use crate::pmft::{Pmft, PmftEntry};

/// Outcome of a `checklookup`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupResult {
    /// The address is not in a relocation page (or was a bloom false
    /// positive; the access proceeds as a normal PM access).
    NotRelocation,
    /// The object starting at the checked slot relocates to
    /// (`dest_frame`, `dest_slot`).
    Forwarded {
        /// Destination frame (major distance).
        dest_frame: u64,
        /// Destination start slot within the frame (minor distance).
        dest_slot: u8,
    },
}

#[derive(Debug, Default)]
struct UnitStats {
    bloom_rejects: u64,
    bfc_misses: u64,
    pmftlb_hits: u64,
    pmftlb_misses: u64,
}

/// Per-cycle programming, shared via `Arc` snapshot (see module docs).
#[derive(Debug)]
struct Armed {
    base: u64,
    /// The relocation-page filter. The paper builds up to 8 in-memory
    /// filters sharded by VA range; at our pool sizes one 1 KiB filter
    /// (exactly the BFC's capacity, Table 1) covers every relocation page,
    /// so the BFC holds it resident for the whole cycle and the common-case
    /// check costs 2 cycles. The fill penalty is paid on first use.
    filter: BloomFilter,
}

#[derive(Debug)]
struct HotState {
    /// Whether the BFC has fetched the filter yet.
    loaded: bool,
    /// PMFTLB: most-recently-used last.
    tlb: Vec<PmftEntry>,
    tlb_cap: usize,
    stats: UnitStats,
}

/// Hardware check-and-lookup unit: Bloom Filter Cache + PMFT look-aside
/// buffer, backed by the persistent [`Pmft`].
#[derive(Debug)]
pub struct CheckLookupUnit {
    pmft: Pmft,
    armed: RwLock<Option<Arc<Armed>>>,
    hot: Mutex<HotState>,
}

impl CheckLookupUnit {
    /// Creates an idle unit over `pmft`. Sizes come from the engine config
    /// at [`CheckLookupUnit::begin_cycle`].
    pub fn new(pmft: Pmft) -> Self {
        CheckLookupUnit {
            pmft,
            armed: RwLock::new(None),
            hot: Mutex::new(HotState {
                loaded: false,
                tlb: Vec::new(),
                tlb_cap: 16,
                stats: UnitStats::default(),
            }),
        }
    }

    /// Programs the unit for a compaction cycle: builds the in-memory bloom
    /// filter over the entries' relocation frames and arms the BFC/PMFTLB.
    // Shim: the frozen `benchmark/` passes the ignored `bool`; its next PR removes it.
    #[doc(hidden)]
    pub fn begin_cycle(&self, engine: &PmEngine, base: u64, entries: &[PmftEntry], _: bool) {
        let cfg = engine.config();
        let mut filter = BloomFilter::new(cfg.bloom_filter_bytes);
        for e in entries {
            filter.insert(self.vpn_of_frame(base, e.reloc_frame));
        }
        {
            let mut s = self.hot.lock();
            s.loaded = false;
            s.stats = UnitStats::default();
            s.tlb.clear();
            s.tlb_cap = cfg.pmftlb_entries.max(1);
        }
        *self.armed.write() = Some(Arc::new(Armed { base, filter }));
    }

    /// Disarms the unit at cycle end: every lookup returns
    /// [`LookupResult::NotRelocation`] at zero charged cost.
    pub fn end_cycle(&self) {
        *self.armed.write() = None;
        let mut s = self.hot.lock();
        s.tlb.clear();
        s.loaded = false;
    }

    /// Whether a cycle is armed.
    pub fn is_active(&self) -> bool {
        self.armed.read().is_some()
    }

    fn vpn_of_frame(&self, base: u64, frame: u64) -> u64 {
        (base + self.pmft.meta().data_start + frame * 4096) / 4096
    }

    /// Executes `checklookup` on virtual address `va` (the address of the
    /// *object start slot*, header included).
    pub fn checklookup(&self, ctx: &mut Ctx, engine: &PmEngine, va: u64) -> LookupResult {
        let cfg = engine.config();
        ctx.stats.checklookups += 1;
        let Some(armed) = self.armed.read().clone() else {
            return LookupResult::NotRelocation;
        };
        // Locate the object's frame.
        let off = va.wrapping_sub(armed.base);
        let meta = *self.pmft.meta();
        if off < meta.data_start || off >= meta.data_start + meta.num_frames * 4096 {
            ctx.charge(cfg.bloom_check_latency);
            return LookupResult::NotRelocation;
        }
        let frame = (off - meta.data_start) / 4096;
        let slot = ((off - meta.data_start) % 4096 / 16) as usize;
        let mut s = self.hot.lock();
        // 1. BFC: fetch the filter on first use, then it stays resident.
        if !s.loaded {
            s.stats.bfc_misses += 1;
            ctx.charge(cfg.bloom_miss_latency);
            s.loaded = true;
        }
        ctx.charge(cfg.bloom_check_latency);
        let vpn = va / 4096;
        if !armed.filter.maybe_contains(vpn) {
            s.stats.bloom_rejects += 1;
            return LookupResult::NotRelocation;
        }
        // 2. PMFTLB.
        if let Some(pos) = s.tlb.iter().position(|e| e.reloc_frame == frame) {
            s.stats.pmftlb_hits += 1;
            ctx.charge(cfg.pmftlb_latency);
            let e = s.tlb.remove(pos);
            let res = match e.lookup(slot) {
                Some(d) => LookupResult::Forwarded {
                    dest_frame: e.dest_frame,
                    dest_slot: d,
                },
                None => LookupResult::NotRelocation,
            };
            s.tlb.push(e);
            return res;
        }
        // 3. PMFT walk (memory fill).
        s.stats.pmftlb_misses += 1;
        ctx.charge(cfg.pm_read_latency);
        match self.pmft.load(engine, frame) {
            Some(e) => {
                let res = match e.lookup(slot) {
                    Some(d) => LookupResult::Forwarded {
                        dest_frame: e.dest_frame,
                        dest_slot: d,
                    },
                    None => LookupResult::NotRelocation,
                };
                if s.tlb.len() >= s.tlb_cap {
                    s.tlb.remove(0);
                }
                s.tlb.push(e);
                res
            }
            // Bloom false positive: no PMFT entry — normal access (§4.3.2).
            None => LookupResult::NotRelocation,
        }
    }

    /// (bloom rejects, BFC misses, PMFTLB hits, PMFTLB misses).
    pub fn unit_stats(&self) -> (u64, u64, u64, u64) {
        let s = self.hot.lock();
        (
            s.stats.bloom_rejects,
            s.stats.bfc_misses,
            s.stats.pmftlb_hits,
            s.stats.pmftlb_misses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::GcMetaLayout;
    use crate::pmft::PmftEntry;
    use ffccd_pmem::MachineConfig;
    use ffccd_pmop::PoolLayout;

    const BASE: u64 = 0x5000_0000_0000;

    fn setup(reloc: &[u64]) -> (PmEngine, CheckLookupUnit, Ctx, GcMetaLayout) {
        let pool = PoolLayout::compute(1 << 20, 4096);
        let meta = GcMetaLayout::from_pool(&pool);
        let engine = PmEngine::new(MachineConfig::default(), pool.total_bytes);
        let mut ctx = Ctx::new(engine.config());
        let pmft = Pmft::new(meta);
        let mut entries = Vec::new();
        for &f in reloc {
            let mut e = PmftEntry::new(f, f + 50);
            e.map(0, 4);
            e.map(32, 8);
            pmft.store(&mut ctx, &engine, &e);
            entries.push(e);
        }
        let unit = CheckLookupUnit::new(pmft);
        unit.begin_cycle(&engine, BASE, &entries, false);
        (engine, unit, ctx, meta)
    }

    fn va(meta: &GcMetaLayout, frame: u64, slot: u64) -> u64 {
        BASE + meta.data_start + frame * 4096 + slot * 16
    }

    #[test]
    fn forwards_mapped_slots() {
        let (engine, unit, mut ctx, meta) = setup(&[3]);
        let r = unit.checklookup(&mut ctx, &engine, va(&meta, 3, 0));
        assert_eq!(
            r,
            LookupResult::Forwarded {
                dest_frame: 53,
                dest_slot: 4
            }
        );
        let r = unit.checklookup(&mut ctx, &engine, va(&meta, 3, 32));
        assert_eq!(
            r,
            LookupResult::Forwarded {
                dest_frame: 53,
                dest_slot: 8
            }
        );
    }

    #[test]
    fn rejects_non_relocation_frames_cheaply() {
        let (engine, unit, mut ctx, meta) = setup(&[3]);
        // Warm the BFC with one access.
        let _ = unit.checklookup(&mut ctx, &engine, va(&meta, 5, 0));
        let c0 = ctx.cycles();
        let r = unit.checklookup(&mut ctx, &engine, va(&meta, 5, 0));
        assert_eq!(r, LookupResult::NotRelocation);
        assert!(
            ctx.cycles() - c0 <= engine.config().bloom_check_latency + 2,
            "warm reject must cost ~2 cycles, cost {}",
            ctx.cycles() - c0
        );
    }

    #[test]
    fn pmftlb_caches_entries() {
        let (engine, unit, mut ctx, meta) = setup(&[7]);
        let _ = unit.checklookup(&mut ctx, &engine, va(&meta, 7, 0)); // fill
        let c0 = ctx.cycles();
        let _ = unit.checklookup(&mut ctx, &engine, va(&meta, 7, 32)); // hit
        let hit_cost = ctx.cycles() - c0;
        assert!(
            hit_cost <= engine.config().pmftlb_latency + engine.config().bloom_check_latency,
            "PMFTLB hit should be cheap, cost {hit_cost}"
        );
        let (_, _, hits, misses) = unit.unit_stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
    }

    #[test]
    fn inactive_unit_always_rejects() {
        let (engine, unit, mut ctx, meta) = setup(&[3]);
        unit.end_cycle();
        assert!(!unit.is_active());
        let r = unit.checklookup(&mut ctx, &engine, va(&meta, 3, 0));
        assert_eq!(r, LookupResult::NotRelocation);
    }

    #[test]
    fn unmapped_slot_in_relocation_frame_is_not_found() {
        let (engine, unit, mut ctx, meta) = setup(&[3]);
        let r = unit.checklookup(&mut ctx, &engine, va(&meta, 3, 100));
        assert_eq!(r, LookupResult::NotRelocation);
    }

    #[test]
    fn out_of_pool_va_is_rejected() {
        let (engine, unit, mut ctx, _) = setup(&[3]);
        let r = unit.checklookup(&mut ctx, &engine, 0x1234);
        assert_eq!(r, LookupResult::NotRelocation);
    }
}
