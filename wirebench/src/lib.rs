//! The `so-serve` wire benchmark: closed-loop sessions drive an in-process
//! server over loopback with four request shapes, check every response,
//! and report end-to-end metrics, or (traced) a per-layer split. See
//! `README.md` in this directory for the workloads and how to read the
//! output.

pub mod registry;
pub mod report;
pub mod run;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod wire;
pub mod workload;
