//! `anthill::obs` — the unified observability layer of both executors.
//!
//! One [`Recorder`] handle serves the virtual-time simulator
//! ([`crate::sim`]) and the native threaded runtime ([`crate::local`]):
//!
//! * **Structured event trace** ([`TraceEvent`]): task lifecycle
//!   (enqueue / dispatch / start / finish), GPU copy-engine occupancy,
//!   and policy decisions (DQAA window updates, DBSA selections,
//!   Algorithm 1 stream-count changes). Timestamps are virtual time in the
//!   simulator and monotonic wall time since run start locally.
//! * **Exporters**: [`jsonl`] (line-oriented structured dump that
//!   round-trips) and [`chrome`] (Chrome `trace_event` JSON, loadable in
//!   Perfetto / `chrome://tracing`).
//!
//! The trace is the only signal: a count (tasks finished, retries,
//! deaths) is the number of events of that kind, and a latency is the
//! distance between two of them.
//!
//! ## One schema
//!
//! The 22 event kinds are declared once, as the rows of the `event_kinds!`
//! table in `obs/event.rs`: variant, JSONL name, Chrome shape and label,
//! payload fields in wire order with their types. [`EventKind`], its
//! names, both exporters' field walks, the JSONL parser (range-checked)
//! and the samples the round-trip tests iterate are generated from those
//! rows. Adding an event is adding one row.
//!
//! ## Zero cost when disabled
//!
//! A disabled recorder is a `None` — every instrumentation call is an
//! inlined early return with no allocation, locking or clock read. The
//! runtimes are instrumented unconditionally and pay nothing unless a
//! caller installs a sink with [`Recorder::enabled`].
//!
//! ## Batched emission
//!
//! The sink ([`Recorder::enabled`]) is *batched*: each producer thread
//! appends into one of `EVENT_SHARDS` striped buffers (threads are
//! assigned shards round-robin, so a push is an uncontended mutex acquire
//! plus a `Vec` push); the events are collected and ordered only when a
//! reader drains the sink ([`Recorder::events`] /
//! [`Recorder::take_events`]).
//!
//! ## Ordering contract
//!
//! Any drained or snapshotted view of the trace is in **non-decreasing
//! `ts_ns` order**, and events with equal timestamps keep their arrival
//! order (a single producer's program order is preserved — a producer
//! always appends to the same shard buffer and the drain-time sort is
//! stable). `Recorder::record_now` reads the clock *before* touching
//! any shared structure, so a producer can never be stamped late by
//! waiting on a lock; cross-thread ordering is established by the stable
//! drain-time sort keyed on `ts_ns`, not by serializing every producer
//! through one critical section.
//!
//! ## Determinism
//!
//! Recording never influences scheduling: the simulator's event order and
//! timestamps are independent of whether a sink is installed, and events
//! carry only integers. The simulator emits from a single thread with
//! non-decreasing virtual timestamps, so the stable drain-time sort is the
//! identity there and two simulation runs with the same seed serialize to
//! *byte-identical* JSONL dumps (asserted by `tests/observability.rs`).

mod event;

pub mod chrome;
pub mod json;
pub mod jsonl;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

pub use event::{DeviceRef, EventKind, TraceEvent};

/// Stripe count of the batched sink's producer-side buffers. Worker
/// threads are assigned stripes round-robin, so with up to this many
/// concurrent producers every push lands on a buffer no other thread is
/// touching.
const EVENT_SHARDS: usize = 16;

/// The shard a producer thread appends to: assigned once per thread,
/// round-robin across [`EVENT_SHARDS`]. Stable per thread, so a single
/// producer's events stay in program order within its shard buffer.
fn event_shard() -> usize {
    static NEXT_PRODUCER: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT_PRODUCER.fetch_add(1, Ordering::Relaxed) % EVENT_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// The batched sink: per-producer stripes plus the events
/// already drained out of them, kept sorted by timestamp.
struct BatchStore {
    shards: Box<[Mutex<Vec<TraceEvent>>; EVENT_SHARDS]>,
    drained: Mutex<Vec<TraceEvent>>,
}

impl BatchStore {
    fn new() -> BatchStore {
        BatchStore {
            shards: Box::new(std::array::from_fn(|_| Mutex::new(Vec::new()))),
            drained: Mutex::new(Vec::new()),
        }
    }

    /// Pull everything queued in the stripes and restore the ordering
    /// contract (stable sort by `ts_ns`; ties keep each producer's
    /// program order). Returns the drained store, locked.
    fn drain(&self) -> MutexGuard<'_, Vec<TraceEvent>> {
        let mut drained = self.drained.lock().unwrap();
        let before = drained.len();
        for shard in self.shards.iter() {
            drained.append(&mut shard.lock().unwrap());
        }
        if drained.len() != before {
            drained.sort_by_key(|e| e.ts_ns);
        }
        drained
    }
}

/// A cloneable handle to an event sink — or to nothing.
///
/// Cloning an enabled recorder shares the sink (both handles append to
/// the same trace); cloning a disabled one stays disabled. The default is
/// disabled.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<BatchStore>>,
}

impl Recorder {
    /// A recorder that drops everything at zero cost.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A recorder with a fresh in-memory sink using batched emission:
    /// producers append to per-thread stripes and readers order the
    /// events at drain time (see the module docs' ordering contract).
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(Arc::new(BatchStore::new())),
        }
    }

    /// Is a sink installed?
    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Append one event with an explicit timestamp (virtual time).
    #[inline]
    pub fn record(&self, ts_ns: u64, origin: DeviceRef, kind: EventKind) {
        let Some(sink) = &self.inner else { return };
        sink.shards[event_shard()].lock().unwrap().push(TraceEvent {
            ts_ns,
            origin,
            kind,
        });
    }

    /// Append one event stamped with monotonic wall time since `epoch`.
    ///
    /// The clock is read *before* any shared structure is touched — a
    /// producer is never stamped late because it waited on a lock.
    /// Trace order agrees with timestamp order because the drain sorts
    /// stably by `ts_ns` (see the module docs).
    #[inline]
    pub(crate) fn record_now(&self, epoch: Instant, origin: DeviceRef, kind: EventKind) {
        if self.inner.is_none() {
            return;
        }
        let ts_ns = epoch.elapsed().as_nanos() as u64;
        self.record(ts_ns, origin, kind);
    }

    /// Number of recorded events (0 when disabled).
    pub fn event_count(&self) -> usize {
        match &self.inner {
            Some(sink) => sink.drain().len(),
            None => 0,
        }
    }

    /// Snapshot of the recorded events, in timestamp order (empty when
    /// disabled).
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(sink) => sink.drain().clone(),
            None => Vec::new(),
        }
    }

    /// Drain the recorded events in timestamp order, leaving the sink
    /// empty.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(sink) => std::mem::take(&mut *sink.drain()),
            None => Vec::new(),
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(_) => write!(f, "Recorder(enabled, {} events)", self.event_count()),
            None => write!(f, "Recorder(disabled)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anthill_hetsim::DeviceKind;

    #[test]
    fn disabled_recorder_drops_everything() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.record(
            1,
            DeviceRef::node_scope(0),
            EventKind::Enqueue {
                buffer: 1,
                level: 0,
            },
        );
        assert_eq!(r.event_count(), 0);
        assert!(r.events().is_empty());
    }

    #[test]
    fn clones_share_the_sink() {
        let r = Recorder::enabled();
        let clone = r.clone();
        clone.record(
            7,
            DeviceRef::worker(0, DeviceKind::Cpu, 0),
            EventKind::Start {
                buffer: 4,
                level: 0,
            },
        );
        assert_eq!(r.event_count(), 1);
        assert_eq!(r.events()[0].ts_ns, 7);
    }

    #[test]
    fn take_events_drains() {
        let r = Recorder::enabled();
        r.record(1, DeviceRef::node_scope(0), EventKind::Streams { count: 2 });
        assert_eq!(r.take_events().len(), 1);
        assert_eq!(r.event_count(), 0);
    }

    #[test]
    fn record_now_timestamps_are_monotone_in_trace_order() {
        let r = Recorder::enabled();
        let epoch = Instant::now();
        let origin = DeviceRef::worker(0, DeviceKind::Cpu, 0);
        for i in 0..200 {
            r.record_now(epoch, origin, EventKind::DqaaWindow { target: i });
        }
        let events = r.events();
        assert_eq!(events.len(), 200);
        for w in events.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns);
        }
    }

    #[test]
    fn equal_timestamps_keep_arrival_order() {
        // Single producer, all at the same virtual instant: the stable
        // drain-time sort must not reorder them.
        let r = Recorder::enabled();
        for i in 0..50u32 {
            r.record(9, DeviceRef::node_scope(0), EventKind::Streams { count: i });
        }
        let events = r.events();
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.kind, EventKind::Streams { count: i as u32 });
        }
    }

    #[test]
    fn concurrent_batched_producers_drain_sorted_and_complete() {
        let r = Recorder::enabled();
        let epoch = Instant::now();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let r = r.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        r.record_now(
                            epoch,
                            DeviceRef::worker(0, DeviceKind::Cpu, t),
                            EventKind::DqaaWindow { target: t as u32 },
                        );
                    }
                });
            }
        });
        let events = r.take_events();
        assert_eq!(events.len(), 2_000, "no event may be lost");
        for w in events.windows(2) {
            assert!(
                w[0].ts_ns <= w[1].ts_ns,
                "drained trace must be timestamp-sorted"
            );
        }
        assert_eq!(r.event_count(), 0);
    }
}
