//! # anthill — replicated-dataflow runtime with heterogeneous scheduling
//!
//! The core crate of the reproduction: the paper's primary contribution,
//! a filter-stream runtime whose demand-driven schedulers coordinate CPUs
//! and GPUs using run-time relative-performance estimates.
//!
//! ## Map from paper to modules
//!
//! | Paper | Module |
//! |---|---|
//! | §3 filters, streams, event queues | [`buffer`], [`queue`], [`local`], [`sim`] |
//! | §3 DDFCFS / §5.2 DDWRR / §5.3 ODDS (Table 5) | [`policy`] |
//! | §4 relative-performance weights | [`weights`] (backed by `anthill-estimator`) |
//! | §5.1 Algorithm 1 (adaptive async transfers) | [`transfer`] |
//! | §5.3.1 DQAA (dynamic request windows) | [`dqaa`] |
//! | §5.3.2 DBSA (sender-side selection) | [`dbsa`] |
//! | §5.2–5.3 as one backend-agnostic scheduling core | [`engine`] |
//! | §2 filter DAGs with labeled streams | [`graph`] |
//! | beyond the paper: elastic worker membership | [`membership`] |
//!
//! ## One engine, many drivers
//!
//! All scheduling decisions live in [`engine`]: a backend-agnostic core
//! that owns the demand-driven protocol end to end — ready-queue ordering
//! (DDFCFS/DDWRR over [`queue::SharedQueue`] + [`weights`]), sender-side
//! selection (DBSA), request-window adaptation (DQAA), dispatch, and obs
//! event emission — parameterized over small `Clock`, `Transport` and
//! `Executor` traits. The executors are thin drivers of that engine:
//!
//! * [`sim`] — the engine over the virtual-time hardware models of
//!   `anthill-hetsim`: deterministic, fast, and the vehicle for every
//!   cluster experiment in the paper's Section 6.
//! * [`local`] — real OS threads on the current machine: worker threads
//!   per device slot pull from stage queues ordered by the engine's
//!   [`engine::ReadyLane`] (the threaded run builds no [`engine::Engine`];
//!   its deterministic executor is the sequential driver), handlers run
//!   actual computation, accelerator speed differences can be emulated by
//!   calibrated busy-waits. Demonstrates the programming model end to end.
//! * [`engine::sequential`] — a single-threaded reference driver; the
//!   policy-parity tests pin the other backends against it, and it is the
//!   template for adding new backends.
//! * [`net`] — a TCP multi-process backend: the engine runs in a
//!   coordinator process, workers are separate processes speaking a
//!   length-prefixed frame protocol. Its lockstep mode is the sequential
//!   driver's loop with a socket round trip for every hop (same counts,
//!   pinned by the parity suite); its concurrent mode executes in wall
//!   time with the full recovery path (process kill, connection sever,
//!   heartbeat silence all map onto `worker_died`).
//!
//! ## Quick taste
//!
//! ```
//! use anthill::policy::Policy;
//! use anthill::sim::{run_nbia, SimConfig, WorkloadSpec};
//! use anthill_hetsim::ClusterSpec;
//!
//! // One CPU+GPU node plus one CPU-only node, 8% of tiles recalculated.
//! let workload = WorkloadSpec { tiles: 2_000, ..WorkloadSpec::paper_base(0.08) };
//! let cfg = SimConfig::new(ClusterSpec::heterogeneous(1, 1), Policy::odds());
//! let report = run_nbia(&cfg, &workload);
//! assert_eq!(report.total_tasks, workload.total_buffers());
//! assert!(report.speedup() > 10.0);
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod dbsa;
pub mod dqaa;
pub mod engine;
pub mod faults;
pub mod graph;
pub mod local;
pub mod membership;
pub mod net;
pub mod obs;
pub mod policy;
pub mod queue;
pub mod sim;
pub mod transfer;
pub mod weights;

pub use buffer::{BufferId, DataBuffer};
pub use policy::{Policy, PolicyKind};
