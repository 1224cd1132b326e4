//! The end-to-end half of the spex benchmark (see `benchmark/README.md`).
//!
//! Nothing here depends on a workspace crate: the system under test is the
//! built `spex` binary, driven through argv/stdin/stdout and, for the served
//! workloads, through the frozen wire protocol. The `trace` package next
//! door reuses these generators and workloads for its per-layer pass.

pub mod gen;
pub mod oneshot;
pub mod report;
pub mod serve;
pub mod stats;
pub mod sys;
pub mod wire;
pub mod workload;
