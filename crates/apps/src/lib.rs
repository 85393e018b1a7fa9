//! # anthill-apps — applications on the anthill runtime
//!
//! * [`nbia`] — the Neuroblastoma Image Analysis System (paper Section 2):
//!   the full multi-resolution classification pipeline, deployable on the
//!   native threaded runtime (real kernels) and on the simulated cluster
//!   (paper-scale experiments).
//! * [`vi`] — the vector-incrementer microbenchmark of Section 6.2.
//! * [`vm`] — the Virtual Microscope (the paper's reference \[8\]): a
//!   three-filter viewport-serving dataflow, exercising multi-stage
//!   pipelines and replicated stateful filters
//!   (`examples/virtual_microscope.rs`).
//! * [`bench_suite`] — the six estimator benchmark applications of
//!   Table 1, with parameter spaces, device-time models and real CPU
//!   kernels.

#![warn(missing_docs)]

pub mod bench_suite;
pub mod nbia;
pub mod vi;
pub mod vm;
