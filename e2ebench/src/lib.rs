//! End-to-end benchmark of the noisy simulator with a traced per-layer
//! breakdown. Every number comes from timing calls into the library's
//! public functions from outside; see README.md for the workloads and
//! metrics.

pub mod bench;
pub mod check;
pub mod measure;
pub mod report;
pub mod trace;
pub mod workload;
