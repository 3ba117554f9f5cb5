//! The repo's end-to-end benchmark: four closed-loop workloads, their
//! end-to-end metrics, and per-layer metrics from a traced run. The
//! `lcc-e2e` binary is the program; this library holds its parts so that
//! the tests under `tests/` can reach them. See README.md.

pub mod alloc;
pub mod calibrate;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod probe;
pub mod rng;
pub mod stats;
pub mod surface;
pub mod trace;
pub mod verify;
pub mod workloads;
