//! The repo's end-to-end benchmark: four workloads measured on both clocks
//! (simulated cycles, host nanoseconds) with each layer's share attributed
//! from outside, through the crates' public functions and counters. See
//! `README.md` for the metric tables and `../BENCHMARK.json` for the
//! contract the numbers are compared under.

pub mod json;
pub mod ops;
pub mod probes;
pub mod record;
pub mod report;
pub mod run;
pub mod sets;
pub mod spec;
pub mod trace;
pub mod workloads;
