//! Tables 1–2 sizing sweeps and the §4.3.1 forwarding-table ablation, as
//! one deterministic table (golden: `results/arch_sweep.txt`).

fn main() {
    print!("{}", ffccd_bench::arch_sweep::arch_sweep());
}
