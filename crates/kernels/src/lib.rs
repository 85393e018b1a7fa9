//! # anthill-kernels — computational kernels and synthetic workloads
//!
//! Real CPU implementations of the computations the paper's applications
//! perform. They serve two roles in the reproduction:
//!
//! 1. the NBIA image-analysis pipeline ([`color`], [`texture`], [`tiles`])
//!    actually computes on synthetic tiles when run on the native threaded
//!    runtime, and
//! 2. the six estimator benchmark applications of Table 1 ([`black_scholes`],
//!    [`nbody`], [`heart`], [`knn`], [`eclat`], plus the NBIA component)
//!    provide realistic parameter spaces and workloads.
//!
//! GPU *code generation* is out of the paper's scope ("we assume the
//! necessary code to run the application on both the CPU and the GPU are
//! provided"); GPU execution cost in this repository comes from the
//! calibrated device model in `anthill-hetsim`.

#![warn(missing_docs)]

pub mod black_scholes;
pub mod color;
pub mod eclat;
pub mod heart;
pub mod knn;
pub mod nbody;
pub mod pyramid;
pub mod texture;
pub mod tiles;
