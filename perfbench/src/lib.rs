//! Helpers of the fecim benchmark: the percentile rule, the in-memory
//! span recorder and its self-time arithmetic, result fingerprints, and
//! the open-loop arrival schedule of the serving workload.
//!
//! The workloads themselves live in the `perfbench` binary; everything
//! here is pure and unit-tested (see `tests/helpers.rs`).

pub mod fingerprint;
pub mod schedule;
pub mod stats;
pub mod trace;
