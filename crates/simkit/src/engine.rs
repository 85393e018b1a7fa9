//! The discrete-event engine: an event heap over virtual time plus a
//! user-supplied world that handles events and schedules new ones.
//!
//! The engine is deliberately minimal: events are a user enum, the world is
//! a plain mutable struct, and handlers receive a [`Scheduler`] to enqueue
//! follow-up events. Determinism is guaranteed by (a) integer virtual time
//! and (b) FIFO tie-breaking of simultaneous events via a sequence number.
//!
//! The heap orders 16-byte keys only, one `u128` per event; the events
//! themselves sit in a slab and are moved twice (in at schedule, out at
//! pop) however large they are and however deep the heap is.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Bits of a heap key below the fire time: schedule order above the slot,
/// so at most 2^40 events are scheduled and 2^24 pending.
const SEQ_BITS: u32 = 40;
const SLOT_BITS: u32 = 24;

/// What the heap sifts: fire time in the high 64 bits, schedule order in
/// the next 40, and the slab slot the event waits in in the low 24. `seq`
/// is unique, so the slot never decides a comparison: keys pop in exactly
/// `(at, seq)` order.
fn pack(at: SimTime, seq: u64, slot: u32) -> u128 {
    (u128::from(at.as_nanos()) << 64) | (u128::from(seq) << SLOT_BITS) | u128::from(slot)
}

/// `(at, seq, slot)` of a key made by [`pack`].
fn unpack(key: u128) -> (SimTime, u64, u32) {
    let low = key as u64;
    (
        SimTime((key >> 64) as u64),
        low >> SLOT_BITS,
        (low & ((1 << SLOT_BITS) - 1)) as u32,
    )
}

/// The pending-event queue handed to world handlers for scheduling.
pub struct Scheduler<E> {
    heap: BinaryHeap<Reverse<u128>>,
    /// Pending events by slot; `None` slots are listed in `free`.
    events: Vec<Option<E>>,
    free: Vec<u32>,
    seq: u64,
    now: SimTime,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            events: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `ev` at absolute time `at`. Times in the past are clamped
    /// to `now` (the event still runs, immediately after current ones).
    pub fn at(&mut self, at: SimTime, ev: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        assert!(seq >> SEQ_BITS == 0, "under 2^40 events scheduled");
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.events[slot as usize] = Some(ev);
                slot
            }
            None => {
                let slot = self.events.len();
                assert!(slot >> SLOT_BITS == 0, "under 2^24 pending events");
                self.events.push(Some(ev));
                slot as u32
            }
        };
        self.heap.push(Reverse(pack(at, seq, slot)));
    }

    /// Schedule `ev` after a delay from the current time.
    #[inline]
    pub fn after(&mut self, delay: SimDuration, ev: E) {
        self.at(self.now + delay, ev)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, _, slot) = unpack(self.heap.pop()?.0);
        let ev = self.events[slot as usize]
            .take()
            .expect("a heap key names an occupied slot");
        self.free.push(slot);
        self.now = at;
        Some((at, ev))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|k| unpack(k.0).0)
    }
}

/// A simulation world: owns all model state and reacts to events.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Handle one event at virtual time `now`, scheduling any follow-ups.
    fn handle(&mut self, now: SimTime, ev: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Outcome of an engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The time or step limit was reached with events still pending.
    LimitReached,
}

/// The discrete-event engine driving a [`World`].
pub struct Engine<W: World> {
    world: W,
    sched: Scheduler<W::Event>,
    steps: u64,
}

impl<W: World> Engine<W> {
    /// Create an engine around a world.
    pub fn new(world: W) -> Self {
        Engine {
            world,
            sched: Scheduler::new(),
            steps: 0,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Number of events processed so far.
    #[inline]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Immutable access to the world.
    #[inline]
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Consume the engine, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedule an event before or between runs.
    pub fn schedule(&mut self, at: SimTime, ev: W::Event) {
        self.sched.at(at, ev)
    }

    /// Run until the queue drains.
    pub fn run(&mut self) -> RunOutcome {
        self.run_bounded(SimTime::MAX, u64::MAX)
    }

    /// Run until the queue drains, `until` passes, or `max_steps` events
    /// have been processed (a safety net against runaway models).
    pub fn run_bounded(&mut self, until: SimTime, max_steps: u64) -> RunOutcome {
        let mut remaining = max_steps;
        loop {
            if remaining == 0 {
                return RunOutcome::LimitReached;
            }
            match self.sched.peek_time() {
                None => return RunOutcome::Drained,
                Some(t) if t > until => return RunOutcome::LimitReached,
                Some(_) => {}
            }
            let (now, ev) = self.sched.pop().expect("peek said non-empty");
            self.world.handle(now, ev, &mut self.sched);
            self.steps += 1;
            remaining -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    impl<W: World> Engine<W> {
        /// Run until the queue drains or virtual time would pass `until`.
        /// Events at exactly `until` are processed.
        fn run_until(&mut self, until: SimTime) -> RunOutcome {
            self.run_bounded(until, u64::MAX)
        }
    }

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
        Chain(u32),
    }

    #[derive(Default)]
    struct Log {
        seen: Vec<(u64, u32)>,
    }

    impl World for Log {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
            match ev {
                Ev::Tick(id) => self.seen.push((now.as_nanos(), id)),
                Ev::Chain(n) => {
                    self.seen.push((now.as_nanos(), n));
                    if n > 0 {
                        sched.after(SimDuration::from_nanos(10), Ev::Chain(n - 1));
                    }
                }
            }
        }
    }

    #[test]
    fn keys_round_trip_at_the_field_limits() {
        let top = (SimTime(u64::MAX), (1 << SEQ_BITS) - 1, (1 << SLOT_BITS) - 1);
        for (at, seq, slot) in [top, (SimTime::ZERO, 0, 0)] {
            assert_eq!(unpack(pack(at, seq, slot)), (at, seq, slot));
        }
        assert_eq!(pack(top.0, top.1, top.2), u128::MAX);
    }

    #[test]
    fn equal_times_order_by_seq_whatever_the_slots() {
        let at = SimTime(7);
        for (a, b) in [(0, 1), (1, 0), ((1 << SLOT_BITS) - 1, 0)] {
            assert!(pack(at, 3, a) < pack(at, 4, b), "slots {a} {b}");
        }
        assert!(pack(SimTime(6), (1 << SEQ_BITS) - 1, 9) < pack(at, 0, 0));
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut eng = Engine::new(Log::default());
        eng.schedule(SimTime(30), Ev::Tick(3));
        eng.schedule(SimTime(10), Ev::Tick(1));
        eng.schedule(SimTime(20), Ev::Tick(2));
        assert_eq!(eng.run(), RunOutcome::Drained);
        assert_eq!(eng.world().seen, vec![(10, 1), (20, 2), (30, 3)]);
        assert_eq!(eng.now(), SimTime(30));
        assert_eq!(eng.steps(), 3);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut eng = Engine::new(Log::default());
        for id in 0..100 {
            eng.schedule(SimTime(5), Ev::Tick(id));
        }
        eng.run();
        let ids: Vec<u32> = eng.world().seen.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut eng = Engine::new(Log::default());
        eng.schedule(SimTime(0), Ev::Chain(5));
        eng.run();
        assert_eq!(eng.world().seen.len(), 6);
        assert_eq!(eng.now(), SimTime(50));
    }

    #[test]
    fn run_until_stops_at_horizon_inclusive() {
        let mut eng = Engine::new(Log::default());
        eng.schedule(SimTime(10), Ev::Tick(1));
        eng.schedule(SimTime(20), Ev::Tick(2));
        eng.schedule(SimTime(21), Ev::Tick(3));
        assert_eq!(eng.run_until(SimTime(20)), RunOutcome::LimitReached);
        assert_eq!(eng.world().seen, vec![(10, 1), (20, 2)]);
        assert_eq!(eng.run(), RunOutcome::Drained);
        assert_eq!(eng.world().seen.len(), 3);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        struct Clamper {
            fired_at: Vec<u64>,
        }
        impl World for Clamper {
            type Event = bool;
            fn handle(&mut self, now: SimTime, ev: bool, sched: &mut Scheduler<bool>) {
                self.fired_at.push(now.as_nanos());
                if ev {
                    // "In the past" — must be clamped to now, not dropped.
                    sched.at(SimTime(1), false);
                }
            }
        }
        let mut eng = Engine::new(Clamper { fired_at: vec![] });
        eng.schedule(SimTime(100), true);
        eng.run();
        assert_eq!(eng.world().fired_at, vec![100, 100]);
    }

    #[test]
    fn step_limit_halts() {
        let mut eng = Engine::new(Log::default());
        eng.schedule(SimTime(0), Ev::Chain(1_000_000));
        assert_eq!(eng.run_bounded(SimTime::MAX, 10), RunOutcome::LimitReached);
        assert_eq!(eng.steps(), 10);
    }
    /// Every event carries the `(at, seq)` the scheduler must have given
    /// it; handlers schedule children until `budget` events exist.
    struct Spawner {
        rng: SimRng,
        budget: u64,
        scheduled: u64,
        fired: Vec<(SimTime, u64)>,
        peak_pending: usize,
    }

    impl Spawner {
        /// A time near `now`: equal to it, before it (clamped) or after.
        fn schedule(&mut self, now: SimTime, mut put: impl FnMut(SimTime, (SimTime, u64))) {
            let at = match self.rng.below(4) {
                0 => now,
                1 => SimTime(now.as_nanos().saturating_sub(self.rng.below(50))),
                _ => now + SimDuration::from_nanos(self.rng.below(40)),
            };
            put(at, (at.max(now), self.scheduled));
            self.scheduled += 1;
            let pending = (self.scheduled as usize) - self.fired.len();
            self.peak_pending = self.peak_pending.max(pending);
        }
    }

    impl World for Spawner {
        type Event = (SimTime, u64);
        fn handle(&mut self, now: SimTime, ev: Self::Event, sched: &mut Scheduler<Self::Event>) {
            assert_eq!(now, ev.0, "fired at the clamped time it was scheduled for");
            self.fired.push(ev);
            for _ in 0..self.rng.below(3) {
                if self.scheduled < self.budget {
                    self.schedule(now, |at, ev| sched.at(at, ev));
                }
            }
        }
    }

    #[test]
    fn seeded_schedules_fire_in_at_seq_order_and_reuse_slab_slots() {
        for seed in 0..4 {
            let mut eng = Engine::new(Spawner {
                rng: SimRng::new(seed),
                budget: 10_000,
                scheduled: 0,
                fired: Vec::new(),
                peak_pending: 0,
            });
            // From outside in rounds with the clock run in between, so all
            // but the first land on a running engine, some in its past.
            while eng.world().scheduled < eng.world().budget {
                for _ in 0..200 {
                    let Engine { world, sched, .. } = &mut eng;
                    if world.scheduled < world.budget {
                        world.schedule(sched.now(), |at, ev| sched.at(at, ev));
                    }
                }
                eng.run_until(eng.now() + SimDuration::from_nanos(30));
            }
            assert_eq!(eng.run(), RunOutcome::Drained);
            let w = eng.world();
            assert_eq!(w.fired.len() as u64, w.budget, "seed {seed}");
            let mut expected = w.fired.clone();
            expected.sort();
            assert_eq!(w.fired, expected, "seed {seed}: pop order is (at, seq)");
            assert_eq!(
                eng.sched.events.len(),
                w.peak_pending,
                "seed {seed}: the slab holds the peak pending count, no more"
            );
            assert!(w.peak_pending < 2_000, "seed {seed}: slots were reused");
            assert_eq!(eng.sched.free.len(), eng.sched.events.len());
        }
    }
}
