//! Coordinator-side admission control for open-loop runs.
//!
//! Closed-loop benchmarks seed a fixed task set and drain it; an open-loop
//! generator keeps producing work at its own rate, so the coordinator needs
//! a bounded intake in front of the engine or a saturating arrival rate
//! grows queues without limit. [`AdmissionController`] is that boundary: a
//! small, deterministic state machine that classifies every generated task
//! as *admitted*, *shed*, or *deadline-dropped*, enforcing
//!
//! - an **inflight cap**: at most `inflight_cap` admitted-but-unfinished
//!   tasks (a run-wide bound, independent of the per-worker DQAA windows),
//! - a bounded **intake queue** of at most `queue_cap` waiting tasks,
//! - a pluggable [`OverloadPolicy`] deciding what happens when both are
//!   full.
//!
//! The controller never touches clocks or threads: callers pass `now_ns`
//! into every method, so the same state machine runs identically under the
//! native runtime (wall time), the net coordinator (wall time), and a
//! virtual-time model (the determinism tests replay it under simulated
//! arrivals and completions). Every terminal classification emits exactly
//! one trace event — [`EventKind::TaskAdmitted`], [`EventKind::TaskShed`],
//! or [`EventKind::TaskDeadlineDropped`] — and appends to a decision log,
//! which is what the conservation and replay suites check.
//!
//! Conservation invariant: at quiescence (empty intake, no blocked
//! arrival), `admitted + shed + deadline_dropped == generated`.

use std::collections::VecDeque;

use anthill_simkit::SimDuration;

use crate::obs::{DeviceRef, EventKind, Recorder};

/// What the controller does with arrivals once the inflight cap is hit
/// and the intake queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Refuse the arrival without consuming it: [`Offer::Blocked`] hands
    /// the payload back and the generator must stall and re-offer after a
    /// completion. Converts open-loop overload into generator back-pressure
    /// — no task is ever lost.
    Block,
    /// Evict the *oldest* waiting task to make room for the newest
    /// arrival, emitting one [`EventKind::TaskShed`] per victim. With
    /// `queue_cap == 0` the arrival itself is shed.
    ShedOldest,
    /// Let the intake queue grow, but drop any task that has waited longer
    /// than `deadline` before being admitted, emitting
    /// [`EventKind::TaskDeadlineDropped`]. `queue_cap` is ignored; memory
    /// is bounded by `arrival_rate × deadline` instead.
    DeadlineDrop {
        /// Maximum time a task may wait at intake before it is dropped.
        deadline: SimDuration,
    },
}

impl OverloadPolicy {
    /// Short machine-readable name (used in benchmark JSON).
    pub fn name(&self) -> &'static str {
        match self {
            OverloadPolicy::Block => "block",
            OverloadPolicy::ShedOldest => "shed_oldest",
            OverloadPolicy::DeadlineDrop { .. } => "deadline_drop",
        }
    }
}

/// Sizing and policy for one [`AdmissionController`].
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Maximum admitted-but-unfinished tasks (must be at least 1).
    pub inflight_cap: usize,
    /// Maximum tasks waiting at intake (ignored by
    /// [`OverloadPolicy::DeadlineDrop`]).
    pub queue_cap: usize,
    /// Overload behavior once both bounds are hit.
    pub policy: OverloadPolicy,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            inflight_cap: 256,
            queue_cap: 1024,
            policy: OverloadPolicy::Block,
        }
    }
}

/// A task identity plus its parked payload, handed back to the caller when
/// the controller admits, sheds, or expires a queued entry.
#[derive(Debug)]
pub struct TaskEnvelope<T> {
    /// Buffer id of the task.
    pub buffer: u64,
    /// Resolution level of the task.
    pub level: u8,
    /// The caller's parked payload.
    pub payload: T,
}

/// Terminal classification of one generated task, in generation order —
/// the unit of the determinism-replay tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The task entered the run.
    Admitted,
    /// The task was evicted under [`OverloadPolicy::ShedOldest`].
    Shed,
    /// The task expired under [`OverloadPolicy::DeadlineDrop`].
    DeadlineDropped,
}

/// Immediate verdict for one offered arrival.
#[derive(Debug)]
pub enum Offer<T> {
    /// Admitted on the spot; the payload is handed back for the caller to
    /// inject now.
    Admitted(T),
    /// Parked at intake. Under [`OverloadPolicy::ShedOldest`] making room
    /// may have evicted the oldest waiting task, returned in `shed`.
    Queued {
        /// The evicted victim, if queueing this arrival shed one.
        shed: Option<TaskEnvelope<T>>,
    },
    /// The offered task itself was shed ([`OverloadPolicy::ShedOldest`]
    /// with `queue_cap == 0`). Already counted and traced.
    ShedSelf(T),
    /// [`OverloadPolicy::Block`] with a full queue: the arrival was *not*
    /// consumed (not counted as generated). The payload is handed back and
    /// must be re-offered after a completion frees space.
    Blocked(T),
}

/// Queued tasks released by a [`AdmissionController::poll`] call.
#[derive(Debug)]
pub struct Poll<T> {
    /// Tasks admitted from the intake queue, oldest first; inject each.
    pub admitted: Vec<TaskEnvelope<T>>,
    /// Tasks that exceeded the deadline-drop deadline; already counted
    /// and traced, returned so the caller can reclaim the payloads.
    pub expired: Vec<TaskEnvelope<T>>,
}

/// Monotonic totals of every terminal classification so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionCounters {
    /// Arrivals consumed by the controller (excludes blocked offers).
    pub generated: u64,
    /// Tasks admitted into the run.
    pub admitted: u64,
    /// Tasks evicted under shed-oldest.
    pub shed: u64,
    /// Tasks expired under deadline-drop.
    pub deadline_dropped: u64,
}

impl AdmissionCounters {
    /// Classifications reached so far: `admitted + shed + deadline_dropped`.
    pub fn resolved(&self) -> u64 {
        self.admitted + self.shed + self.deadline_dropped
    }

    /// The conservation invariant; holds exactly when the intake queue is
    /// empty (every generated task has a terminal classification).
    pub fn conserved(&self) -> bool {
        self.resolved() == self.generated
    }
}

struct IntakeEntry<T> {
    buffer: u64,
    level: u8,
    arrived_ns: u64,
    payload: T,
}

impl<T> IntakeEntry<T> {
    fn envelope(self) -> TaskEnvelope<T> {
        TaskEnvelope {
            buffer: self.buffer,
            level: self.level,
            payload: self.payload,
        }
    }
}

/// The bounded-intake state machine. Generic over the parked payload `T`
/// (the native runtime parks whole `LocalTask`s, the net coordinator parks
/// `DataBuffer`s, the virtual-time model parks nothing). Not internally
/// synchronized — wrap in a `Mutex` when shared across threads.
pub struct AdmissionController<T> {
    cfg: AdmissionConfig,
    rec: Recorder,
    origin: DeviceRef,
    inflight: usize,
    intake: VecDeque<IntakeEntry<T>>,
    counters: AdmissionCounters,
    decisions: Vec<(u64, AdmissionDecision)>,
}

impl<T> AdmissionController<T> {
    /// Build a controller that emits its trace events against `origin`
    /// through `rec`. Panics if `inflight_cap` is zero (nothing could ever
    /// be admitted).
    pub fn new(cfg: AdmissionConfig, rec: Recorder, origin: DeviceRef) -> AdmissionController<T> {
        assert!(cfg.inflight_cap >= 1, "inflight_cap must be at least 1");
        AdmissionController {
            cfg,
            rec,
            origin,
            inflight: 0,
            intake: VecDeque::new(),
            counters: AdmissionCounters::default(),
            decisions: Vec::new(),
        }
    }

    /// Offer one arrival. Consumes it (counting it as generated) unless
    /// the verdict is [`Offer::Blocked`].
    pub fn offer(&mut self, now_ns: u64, buffer: u64, level: u8, payload: T) -> Offer<T> {
        // Purge expired entries first so their slots are reusable.
        let _ = self.expire(now_ns);
        if self.inflight < self.cfg.inflight_cap && self.intake.is_empty() {
            self.counters.generated += 1;
            self.admit(now_ns, buffer, level);
            return Offer::Admitted(payload);
        }
        match self.cfg.policy {
            OverloadPolicy::Block => {
                if self.intake.len() < self.cfg.queue_cap {
                    self.counters.generated += 1;
                    self.intake.push_back(IntakeEntry {
                        buffer,
                        level,
                        arrived_ns: now_ns,
                        payload,
                    });
                    Offer::Queued { shed: None }
                } else {
                    Offer::Blocked(payload)
                }
            }
            OverloadPolicy::ShedOldest => {
                self.counters.generated += 1;
                if self.cfg.queue_cap == 0 {
                    let env = self.shed_entry(
                        now_ns,
                        IntakeEntry {
                            buffer,
                            level,
                            arrived_ns: now_ns,
                            payload,
                        },
                    );
                    Offer::ShedSelf(env.payload)
                } else {
                    let shed = if self.intake.len() >= self.cfg.queue_cap {
                        let victim = self.intake.pop_front().expect("non-empty at cap");
                        Some(self.shed_entry(now_ns, victim))
                    } else {
                        None
                    };
                    self.intake.push_back(IntakeEntry {
                        buffer,
                        level,
                        arrived_ns: now_ns,
                        payload,
                    });
                    Offer::Queued { shed }
                }
            }
            OverloadPolicy::DeadlineDrop { .. } => {
                self.counters.generated += 1;
                self.intake.push_back(IntakeEntry {
                    buffer,
                    level,
                    arrived_ns: now_ns,
                    payload,
                });
                Offer::Queued { shed: None }
            }
        }
    }

    /// Expire overdue entries and admit queued tasks while the inflight
    /// cap allows. Call after every completion (and periodically under
    /// deadline-drop).
    pub fn poll(&mut self, now_ns: u64) -> Poll<T> {
        let expired = self.expire(now_ns);
        let mut admitted = Vec::new();
        while self.inflight < self.cfg.inflight_cap {
            match self.intake.pop_front() {
                Some(e) => {
                    self.admit(now_ns, e.buffer, e.level);
                    admitted.push(e.envelope());
                }
                None => break,
            }
        }
        Poll { admitted, expired }
    }

    /// One admitted task finished; frees an inflight slot. Follow with
    /// [`AdmissionController::poll`] to pull the next queued task in.
    pub fn release(&mut self) {
        debug_assert!(self.inflight > 0, "release without matching admit");
        self.inflight = self.inflight.saturating_sub(1);
    }

    /// Running totals.
    pub fn counters(&self) -> AdmissionCounters {
        self.counters
    }

    /// Admitted-but-unfinished tasks right now.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Tasks waiting at intake right now.
    pub fn queued(&self) -> usize {
        self.intake.len()
    }

    /// Terminal classifications in generation order — byte-comparable
    /// across runs for the determinism tests.
    pub fn decisions(&self) -> &[(u64, AdmissionDecision)] {
        &self.decisions
    }

    fn admit(&mut self, now_ns: u64, buffer: u64, level: u8) {
        self.inflight += 1;
        self.counters.admitted += 1;
        self.decisions.push((buffer, AdmissionDecision::Admitted));
        self.rec.record(
            now_ns,
            self.origin,
            EventKind::TaskAdmitted { buffer, level },
        );
    }

    fn shed_entry(&mut self, now_ns: u64, e: IntakeEntry<T>) -> TaskEnvelope<T> {
        self.counters.shed += 1;
        self.decisions.push((e.buffer, AdmissionDecision::Shed));
        self.rec.record(
            now_ns,
            self.origin,
            EventKind::TaskShed {
                buffer: e.buffer,
                level: e.level,
            },
        );
        e.envelope()
    }

    fn expire(&mut self, now_ns: u64) -> Vec<TaskEnvelope<T>> {
        let OverloadPolicy::DeadlineDrop { deadline } = self.cfg.policy else {
            return Vec::new();
        };
        let dl = deadline.as_nanos();
        let mut out = Vec::new();
        // FIFO intake: the front is always the oldest, so stop at the
        // first entry still within its deadline.
        while let Some(front) = self.intake.front() {
            let waited = now_ns.saturating_sub(front.arrived_ns);
            if waited < dl {
                break;
            }
            let e = self.intake.pop_front().expect("front exists");
            self.counters.deadline_dropped += 1;
            self.decisions
                .push((e.buffer, AdmissionDecision::DeadlineDropped));
            self.rec.record(
                now_ns,
                self.origin,
                EventKind::TaskDeadlineDropped {
                    buffer: e.buffer,
                    level: e.level,
                    waited_ns: waited,
                },
            );
            out.push(e.envelope());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(cap: usize, queue: usize, policy: OverloadPolicy) -> AdmissionController<u64> {
        AdmissionController::new(
            AdmissionConfig {
                inflight_cap: cap,
                queue_cap: queue,
                policy,
            },
            Recorder::enabled(),
            DeviceRef::node_scope(0),
        )
    }

    fn event_count(c: &AdmissionController<u64>, name: &str) -> usize {
        c.rec
            .events()
            .iter()
            .filter(|e| e.kind.name() == name)
            .count()
    }

    #[test]
    fn admits_up_to_the_inflight_cap_then_queues() {
        let mut c = ctl(2, 8, OverloadPolicy::Block);
        assert!(matches!(c.offer(0, 1, 0, 1), Offer::Admitted(_)));
        assert!(matches!(c.offer(1, 2, 0, 2), Offer::Admitted(_)));
        assert!(matches!(c.offer(2, 3, 0, 3), Offer::Queued { shed: None }));
        assert_eq!(c.inflight(), 2);
        assert_eq!(c.queued(), 1);
        c.release();
        let p = c.poll(3);
        assert_eq!(p.admitted.len(), 1);
        assert_eq!(p.admitted[0].buffer, 3);
        assert!(c.counters().conserved());
        assert_eq!(event_count(&c, "task_admitted"), 3);
    }

    #[test]
    fn block_policy_hands_back_the_payload_without_counting_it() {
        let mut c = ctl(1, 1, OverloadPolicy::Block);
        assert!(matches!(c.offer(0, 1, 0, 10), Offer::Admitted(_)));
        assert!(matches!(c.offer(1, 2, 0, 20), Offer::Queued { .. }));
        match c.offer(2, 3, 0, 30) {
            Offer::Blocked(p) => assert_eq!(p, 30),
            other => panic!("expected Blocked, got {other:?}"),
        }
        assert_eq!(c.counters().generated, 2);
        c.release();
        assert_eq!(c.poll(3).admitted.len(), 1);
        // The blocked arrival re-offers once space exists.
        assert!(matches!(c.offer(4, 3, 0, 30), Offer::Queued { .. }));
        assert_eq!(c.counters().generated, 3);
    }

    #[test]
    fn shed_oldest_evicts_the_front_of_the_queue_exactly_once() {
        let mut c = ctl(1, 2, OverloadPolicy::ShedOldest);
        assert!(matches!(c.offer(0, 1, 0, 1), Offer::Admitted(_)));
        assert!(matches!(c.offer(1, 2, 0, 2), Offer::Queued { shed: None }));
        assert!(matches!(c.offer(2, 3, 0, 3), Offer::Queued { shed: None }));
        match c.offer(3, 4, 0, 4) {
            Offer::Queued { shed: Some(v) } => assert_eq!(v.buffer, 2),
            other => panic!("expected a shed victim, got {other:?}"),
        }
        assert_eq!(c.counters().shed, 1);
        assert_eq!(c.queued(), 2);
        assert_eq!(event_count(&c, "task_shed"), 1);
        c.release();
        let p = c.poll(4);
        assert_eq!(p.admitted.len(), 1);
        assert_eq!(p.admitted[0].buffer, 3, "oldest survivor admitted first");
    }

    #[test]
    fn shed_self_when_there_is_no_queue() {
        let mut c = ctl(1, 0, OverloadPolicy::ShedOldest);
        assert!(matches!(c.offer(0, 1, 0, 1), Offer::Admitted(_)));
        match c.offer(1, 2, 0, 2) {
            Offer::ShedSelf(p) => assert_eq!(p, 2),
            other => panic!("expected ShedSelf, got {other:?}"),
        }
        assert_eq!(c.counters().shed, 1);
        assert!(c.counters().conserved());
    }

    #[test]
    fn deadline_drop_expires_overdue_entries_with_wait_times() {
        let mut c = ctl(
            1,
            0,
            OverloadPolicy::DeadlineDrop {
                deadline: SimDuration::from_nanos(100),
            },
        );
        assert!(matches!(c.offer(0, 1, 0, 1), Offer::Admitted(_)));
        assert!(matches!(c.offer(10, 2, 0, 2), Offer::Queued { .. }));
        assert!(matches!(c.offer(50, 3, 0, 3), Offer::Queued { .. }));
        // At t=120 the first queued entry (arrived 10) is 110ns old.
        let p = c.poll(120);
        assert_eq!(p.expired.len(), 1);
        assert_eq!(p.expired[0].buffer, 2);
        assert!(p.admitted.is_empty(), "inflight still at cap");
        c.release();
        let p = c.poll(130);
        assert_eq!(p.admitted.len(), 1);
        assert_eq!(p.admitted[0].buffer, 3);
        assert_eq!(c.counters().deadline_dropped, 1);
        assert!(c.counters().conserved());
        assert_eq!(event_count(&c, "task_deadline_dropped"), 1);
    }

    #[test]
    fn decision_log_is_deterministic_for_identical_inputs() {
        let run = || {
            let mut c = ctl(2, 1, OverloadPolicy::ShedOldest);
            for i in 0..20u64 {
                let _ = c.offer(i, i, 0, i);
                if i % 3 == 0 && c.inflight() > 0 {
                    c.release();
                    let _ = c.poll(i);
                }
            }
            c.decisions().to_vec()
        };
        assert_eq!(run(), run());
    }
}
