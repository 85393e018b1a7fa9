//! # anthill-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation
//! (Section 6). Each experiment is a library function returning structured
//! rows — the `repro` binary formats them, and the integration tests
//! assert the paper's qualitative shapes on reduced workloads.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table 1 (estimator errors)        | [`experiments::estimator::table1`] |
//! | Fig. 6 (sync vs async by size)    | [`experiments::transfer::fig6`] |
//! | Fig. 7 (streams vs chunk size)    | [`experiments::transfer::fig7`] |
//! | Table 2 (static vs dynamic)       | [`experiments::transfer::table2`] |
//! | Table 3 (CPU-only times)          | [`experiments::cluster::table3`] |
//! | Fig. 8 (intra-filter policies)    | [`experiments::cluster::fig8`] |
//! | Table 4 (CPU tile profile)        | [`experiments::cluster::table4`] |
//! | Fig. 9 (homogeneous base case)    | [`experiments::cluster::fig9`] |
//! | Fig. 10 (heterogeneous base case) | [`experiments::cluster::fig10`] |
//! | Table 6 (GPU tile profile)        | [`experiments::cluster::table6`] |
//! | Fig. 11 (best request windows)    | [`experiments::cluster::fig11`] |
//! | Fig. 12 (ODDS dynamics)           | [`experiments::cluster::fig12`] |
//! | Fig. 13 (homogeneous scaling)     | [`experiments::cluster::fig13`] |
//! | Fig. 14 (heterogeneous scaling)   | [`experiments::cluster::fig14`] |
//!
//! (The paper's Table 5 is a policy taxonomy, documented in
//! `anthill::policy`.)
//!
//! Ablations and extensions beyond the paper's figures:
//!
//! | Extension | Function |
//! |---|---|
//! | estimator k sweep (paper: k=2 near-best) | [`experiments::estimator::table1_sweep_k`] |
//! | model zoo (paper future work)            | [`experiments::estimator::sweep_models`] |
//! | mixed GPU generations (§6.2 remark)      | [`experiments::transfer::mixed_gpus`] |
//! | concurrent kernels (paper future work)   | [`experiments::transfer::concurrent_kernels`] |
//! | filter fusion (the paper's setup choice) | [`experiments::transfer::ablate_fusion`] |
//! | perturbed CPU-only node                  | [`experiments::cluster::perturb_slow_node`] |
//! | learned policies vs DDWRR                | [`policies::head_to_head`] |
//!
//! [`load`] holds the open-loop arrival schedules `tests/load.rs` drives
//! the backends with.

#![warn(missing_docs)]

pub mod experiments;
pub mod load;
pub mod policies;
pub mod viz;
