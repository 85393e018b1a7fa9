//! The backend-agnostic scheduling engine: one implementation of the
//! paper's demand-driven protocol, shared by every executor.
//!
//! ```text
//!                    ┌─────────────────────────────────┐
//!                    │        anthill::engine          │
//!                    │  ready ordering   (DDFCFS/DDWRR)│
//!                    │  sender selection (DBSA)        │
//!                    │  request windows  (DQAA/static) │
//!                    │  dispatch, obs events           │
//!                    └──────┬─────────┬────────┬───────┘
//!              Clock + Transport + Executor traits
//!          ┌──────┴───┐ ┌───┴────┐ ┌─┴────────────┐ ┌──────────┐
//!          │ DES      │ │ native │ │ sequential   │ │ net      │
//!          │ driver   │ │ driver │ │ reference    │ │ driver   │
//!          │ (sim)    │ │ (local)│ │ driver       │ │ (TCP)    │
//!          └──────────┘ └────────┘ └──────────────┘ └──────────┘
//! ```
//!
//! The split: the engine owns every *decision* — which buffer a reader
//! hands a requester (DBSA), in what order a device consumes its ready
//! queue (DDFCFS/DDWRR), how many requests each worker keeps in flight
//! (DQAA / static `streamRequestSize`), which idle worker gets dispatched
//! next — while drivers own every *cost*: what a request hop takes on the
//! wire, how long a kernel occupies a device, whether time is virtual or
//! real. Drivers implement [`Transport`] + [`Executor`], supply a
//! [`Clock`], and forward five callbacks (see [`Engine`]); the policies
//! then run unmodified on any backend.
//!
//! The submodules: [`core`] (the engine itself), [`clock`] (time
//! sources), [`select`] (the sorted-vs-FIFO ordering primitive and the
//! [`ReadyLane`] used by backends with their own queues), [`window`]
//! (request-window state), [`sequential`] (the reference driver),
//! [`admission`] (the bounded intake of an open-loop run) and
//! [`open_loop`] (an arrival schedule meeting that intake, the state
//! machine every open-loop driver wraps).

pub mod admission;
pub mod clock;
pub mod core;
pub mod open_loop;
pub mod select;
pub mod sequential;
pub mod window;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionCounters, AdmissionDecision, Offer,
    OverloadPolicy, Poll, TaskEnvelope,
};
pub use clock::Clock;
pub(crate) use clock::VirtualClock;
pub use core::{Engine, EngineConfig, Executor, Transport, WorkerRef};
pub use open_loop::{Arrival, OpenLoop, QueueDepthSample};
pub use select::ReadyLane;
