//! The sizing claims behind Tables 1–2 and §4.3.1, asserted on the same
//! table `arch_sweep` prints and CI diffs against `results/arch_sweep.txt`.

use ffccd_bench::arch_sweep::arch_sweep;
use ffccd_pmem::MachineConfig;

#[test]
fn table_is_deterministic() {
    assert_eq!(arch_sweep().to_string(), arch_sweep().to_string());
}

#[test]
fn sizing_claims_hold() {
    let t = arch_sweep();

    // 64 hot relocation frames: a PMFTLB that holds them all hits at its own
    // latency; the shipped 16 entries thrash to the two-read PMFT walk.
    assert_eq!(t.pmftlb.map(|(entries, _)| entries), [4, 16, 64]);
    assert!(t.pmftlb[2].1 <= 10.0, "{:?}", t.pmftlb);
    assert!(t.pmftlb[1].1 >= 300.0, "{:?}", t.pmftlb);

    // Table 1's 1 KiB Bloom Filter Cache with 512 relocation pages.
    assert_eq!(t.bloom.map(|(bytes, _)| bytes), [256, 1024, 4096]);
    assert!(t.bloom[1].1 < 1.0, "{:?}", t.bloom);
    assert!(t.bloom[0].1 > 5.0, "{:?}", t.bloom);

    // 16 hot frames round-robin: only an RBB that holds them all hits.
    assert_eq!(t.rbb.map(|(entries, _)| entries), [2, 8, 32]);
    assert_eq!(t.rbb[2].1, 100.0);
    assert!(t.rbb[1].1 < 50.0, "{:?}", t.rbb);

    // §4.3.1: a PMFT soft lookup is two dependent PM reads.
    let pm_read = MachineConfig::default().pm_read_latency as f64;
    assert_eq!(t.lookup_cycles.0, 2.0 * pm_read);

    // The fence-free `relocate` beats copy + persist barrier for 160 B.
    let (copy_persist, relocate) = t.move_cycles;
    assert!(relocate < copy_persist, "{relocate} vs {copy_persist}");
}
