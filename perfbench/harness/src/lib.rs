//! Benchmark harness for omislice: cases, the locate op, the served
//! client loop and the per-layer probes.

pub mod cases;
pub mod pipeline;
pub mod probes;
pub mod serve;
pub mod stats;
pub mod workloads;
