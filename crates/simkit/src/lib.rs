//! # anthill-simkit — deterministic discrete-event simulation
//!
//! The simulation substrate for the `anthill-rs` reproduction of
//! *"Run-time optimizations for replicated dataflows on heterogeneous
//! environments"* (HPDC 2010).
//!
//! The paper's evaluation ran on a 14-node CPU+GPU cluster; this repository
//! reproduces it on a calibrated discrete-event model. `anthill-simkit`
//! provides the engine that model runs on:
//!
//! * [`SimTime`]/[`SimDuration`] — integer nanosecond virtual time,
//! * [`Engine`]/[`World`]/[`Scheduler`] — a minimal, deterministic
//!   event loop with FIFO tie-breaking: a heap of 16-byte keys over
//!   a slab of events,
//! * [`SimRng`] — a self-contained xoshiro256** PRNG with stable,
//!   label-addressed stream forking,
//! * [`FifoServer`]/[`MultiServer`]/[`Pipe`] — timed-resource building
//!   blocks for hardware models,
//! * [`Welford`], [`TimeWeightedMean`], [`UtilizationTracker`],
//!   [`TraceSeries`] — measurement utilities.
//!
//! ## Example
//!
//! ```
//! use anthill_simkit::{Engine, Scheduler, SimDuration, SimTime, World};
//!
//! struct Counter { fired: u32 }
//! enum Ev { Ping }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, _now: SimTime, _ev: Ev, sched: &mut Scheduler<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 10 {
//!             sched.after(SimDuration::from_millis(1), Ev::Ping);
//!         }
//!     }
//! }
//!
//! let mut eng = Engine::new(Counter { fired: 0 });
//! eng.schedule(SimTime::ZERO, Ev::Ping);
//! eng.run();
//! assert_eq!(eng.world().fired, 10);
//! assert_eq!(eng.now(), SimTime::ZERO + SimDuration::from_millis(9));
//! ```

#![warn(missing_docs)]

mod engine;
mod resource;
mod rng;
mod stats;
mod time;

pub use engine::{Engine, RunOutcome, Scheduler, World};
pub use resource::{FifoServer, MultiServer, Pipe};
pub use rng::SimRng;
pub use stats::{DurationHistogram, TimeWeightedMean, TraceSeries, UtilizationTracker, Welford};
pub use time::{SimDuration, SimTime};
