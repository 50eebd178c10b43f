//! Property tests of the pool allocator's invariants.

use proptest::prelude::*;

use ffccd_pmem::Ctx;
use ffccd_pmop::{PmPool, PmPtr, PoolConfig, TypeDesc, TypeRegistry, OBJ_HEADER_BYTES, SLOT_BYTES};

fn registry() -> TypeRegistry {
    let mut reg = TypeRegistry::new();
    reg.register(TypeDesc::new("blob", 0, &[]));
    reg
}

#[derive(Clone, Debug)]
enum Op {
    Alloc(u16),
    FreeNth(u8),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (8u16..1500).prop_map(Op::Alloc),
            any::<u8>().prop_map(Op::FreeNth),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the alloc/free sequence: live objects never overlap, every
    /// live object is readable at its recorded size, accounting holds, and
    /// reopening from a crash image reconstructs the same live set.
    #[test]
    fn allocator_invariants(ops in ops(), seed in any::<u64>()) {
        let cfg = PoolConfig {
            data_bytes: 2 << 20,
            os_page_size: 4096,
            machine: ffccd_pmem::MachineConfig { seed, ..Default::default() },
        };
        let pool = PmPool::create(cfg, registry()).expect("create");
        let mut ctx = Ctx::new(pool.machine());
        let t = ffccd_pmop::TypeId(0);
        let mut live: Vec<(PmPtr, u16)> = Vec::new();
        let mut expected_bytes = 0u64;
        for op in ops {
            match op {
                Op::Alloc(size) => {
                    if let Ok(p) = pool.pmalloc(&mut ctx, t, size as u64) {
                        // Stamp a recognizable first byte and persist it.
                        pool.write_bytes(&mut ctx, p, 0, &[0xAB]);
                        pool.persist(&mut ctx, p, 0, 1);
                        live.push((p, size));
                        expected_bytes += size as u64 + OBJ_HEADER_BYTES;
                    }
                }
                Op::FreeNth(n) => {
                    if !live.is_empty() {
                        let (p, size) = live.swap_remove(n as usize % live.len());
                        pool.pfree(&mut ctx, p).expect("free live object");
                        expected_bytes -= size as u64 + OBJ_HEADER_BYTES;
                    }
                }
            }
        }
        // 1. accounting
        let st = pool.stats();
        prop_assert_eq!(st.live_bytes, expected_bytes);
        prop_assert!(st.footprint_bytes >= st.live_bytes || st.live_bytes == 0);
        // 2. no overlap: collect [start,end) of every live object
        let mut ranges: Vec<(u64, u64)> = live
            .iter()
            .map(|&(p, s)| (p.offset() - OBJ_HEADER_BYTES, p.offset() + s as u64))
            .collect();
        ranges.sort();
        for w in ranges.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "objects overlap: {:?}", w);
        }
        // 3. headers agree
        for &(p, s) in &live {
            let (ty, size) = pool.peek_header(p);
            prop_assert_eq!(ty, t);
            prop_assert_eq!(size, s as u32);
        }
        // 4. reopen reconstructs the live set
        let img = pool.engine().crash_image();
        let pool2 = PmPool::open(img.restart(), registry()).expect("reopen");
        prop_assert_eq!(pool2.stats().live_bytes, expected_bytes);
        let mut ctx2 = Ctx::new(pool2.machine());
        for &(p, _) in &live {
            let mut b = [0u8; 1];
            pool2.read_bytes(&mut ctx2, p, 0, &mut b);
            prop_assert_eq!(b[0], 0xAB, "stamped byte lost across reopen");
        }
        // 5. every freed slot is reusable: fill until OOM must not panic
        for _ in 0..16 {
            let _ = pool2.pmalloc(&mut ctx2, t, 64);
        }
    }

    /// Whatever the alloc/free sequence, the object extents the GC derives
    /// from a frame's allocation masks alone equal the ones each object's
    /// header size gives, frame by frame and object by object.
    #[test]
    fn mask_extents_match_header_sizes(ops in ops(), seed in any::<u64>()) {
        let cfg = PoolConfig {
            data_bytes: 2 << 20,
            os_page_size: 4096,
            machine: ffccd_pmem::MachineConfig { seed, ..Default::default() },
        };
        let pool = PmPool::create(cfg, registry()).expect("create");
        let mut ctx = Ctx::new(pool.machine());
        let t = ffccd_pmop::TypeId(0);
        let mut live: Vec<PmPtr> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(size) => live.extend(pool.pmalloc(&mut ctx, t, size as u64).ok()),
                Op::FreeNth(n) => {
                    if !live.is_empty() {
                        let p = live.swap_remove(n as usize % live.len());
                        pool.pfree(&mut ctx, p).expect("free live object");
                    }
                }
            }
        }
        let mut objects = 0;
        for (frame, st) in (0u64..).zip(pool.frame_states()) {
            prop_assert_eq!(st.kind, pool.frame_state(frame).kind);
            let from_masks: Vec<(usize, usize)> = st.object_extents().collect();
            let from_headers: Vec<(usize, usize)> = pool
                .peek_frame_objects(frame)
                .iter()
                .map(|o| (o.slot, (o.size as u64 + OBJ_HEADER_BYTES).div_ceil(SLOT_BYTES) as usize))
                .collect();
            prop_assert_eq!(&from_masks, &from_headers, "frame {}", frame);
            objects += from_masks.len();
        }
        prop_assert_eq!(objects, live.len());
    }

    /// Double frees and garbage pointers are always rejected, never UB.
    #[test]
    fn invalid_frees_rejected(offset in 0u64..(1 << 20), seed in any::<u64>()) {
        let cfg = PoolConfig {
            data_bytes: 1 << 20,
            os_page_size: 4096,
            machine: ffccd_pmem::MachineConfig { seed, ..Default::default() },
        };
        let pool = PmPool::create(cfg, registry()).expect("create");
        let mut ctx = Ctx::new(pool.machine());
        let t = ffccd_pmop::TypeId(0);
        let p = pool.pmalloc(&mut ctx, t, 64).expect("alloc");
        pool.pfree(&mut ctx, p).expect("first free");
        prop_assert!(pool.pfree(&mut ctx, p).is_err(), "double free must fail");
        let garbage = PmPtr::new(1, offset | 1); // misaligned-ish
        if garbage != p {
            // Any outcome but success-on-a-live-object is fine; must not panic.
            let _ = pool.pfree(&mut ctx, garbage);
        }
    }
}
