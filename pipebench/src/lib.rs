//! Full-pipeline CrossBroker benchmark: seeded workloads driven through
//! the broker's public APIs, end-to-end metrics from an untraced run and
//! per-layer metrics from a separate traced run of the same seed.

pub mod bench;
pub mod calib;
pub mod heap;
pub mod metrics;
pub mod probe;
pub mod run;
pub mod stats;
pub mod workload;
