//! An open-loop arrival schedule meeting the admission controller, as one
//! sans-IO state machine.
//!
//! [`OpenLoop`] is the part of an open-loop run every driver shares: time
//! in, admitted tasks out. It owns the [`AdmissionController`], the cursor
//! into the arrival schedule and the one arrival a
//! [`OverloadPolicy::Block`](super::OverloadPolicy::Block) stall holds
//! back, the scheduled arrival of each task waiting at intake, the
//! queue-depth sampler's cadence and series, and the count of completed
//! admitted tasks. It reads no clock and starts no thread. The native
//! runtime's injector and workers (wall time, under one lock), the TCP
//! coordinator (wall time, one thread) and the virtual-time replay of the
//! load harness each pass `now_ns` in and carry out what comes back.
//!
//! A driver calls [`OpenLoop::intake`] at every input it handles, and
//! [`OpenLoop::completed`] before it when an admitted task finished. It
//! records a [`QueueDepthSample`] when [`OpenLoop::sample_due`] says so, and
//! if nothing else happens it comes back at [`OpenLoop::next_deadline`]:
//! the next arrival (unless a stall holds the schedule back), the next
//! sample, or the moment the oldest queued task overstays a
//! [`OverloadPolicy::DeadlineDrop`](super::OverloadPolicy::DeadlineDrop)
//! deadline. The run's intake is over once [`OpenLoop::drained`].

use std::collections::HashMap;
use std::time::Duration;

use crate::buffer::DataBuffer;
use crate::obs::{DeviceRef, Recorder};

use super::admission::{
    AdmissionConfig, AdmissionController, AdmissionCounters, AdmissionDecision, Offer,
};

/// A task's identity as the admission controller records it.
pub trait Arrival {
    /// Buffer id, unique across the schedule.
    fn id(&self) -> u64;
    /// Resolution level.
    fn level(&self) -> u8;
}

impl Arrival for DataBuffer {
    fn id(&self) -> u64 {
        self.id.0
    }
    fn level(&self) -> u8 {
        self.level
    }
}

/// A bare id at level 0, for a model that carries no payload.
impl Arrival for u64 {
    fn id(&self) -> u64 {
        *self
    }
    fn level(&self) -> u8 {
        0
    }
}

/// One point of an open-loop run's queue-depth time series.
#[derive(Debug, Clone)]
pub struct QueueDepthSample {
    /// Time since run start, nanoseconds.
    pub t_ns: u64,
    /// Buffers across every stage's ready queue (the aggregate of
    /// `per_stage`).
    pub ready: u64,
    /// Tasks waiting at the admission intake.
    pub intake: u64,
    /// Admitted-but-unfinished tasks.
    pub inflight: u64,
    /// Ready-queue depth of each stage (filter), indexed by stage id: the
    /// aggregate alone cannot show which filter of a DAG is backing up. The
    /// TCP coordinator has one, its reader.
    pub per_stage: Vec<u64>,
}

/// The open-loop schedule of one run (see the module docs). Generic over
/// the task type `T`, which the controller parks while it waits at intake.
pub struct OpenLoop<'a, T> {
    ctl: AdmissionController<T>,
    arrivals: &'a [u64],
    /// Index of the next arrival to offer.
    next: usize,
    /// The arrival a `Block` stall handed back, with its scheduled time;
    /// offered again before any later one.
    blocked: Option<(u64, T)>,
    /// Scheduled arrival of each task waiting at intake.
    queued_arrival: HashMap<u64, u64>,
    sample_every_ns: u64,
    next_sample_ns: u64,
    samples: Vec<QueueDepthSample>,
    completed: u64,
}

impl<'a, T: Arrival> OpenLoop<'a, T> {
    /// `arrivals` (ascending offsets from the run start, nanoseconds) pass
    /// an intake sized by `admission`, traced through `recorder` against
    /// stage 0; the queue depth is sampled every `sample_every`, at least
    /// 200 µs, from time 0.
    pub fn new(
        admission: AdmissionConfig,
        recorder: &Recorder,
        arrivals: &'a [u64],
        sample_every: Duration,
    ) -> OpenLoop<'a, T> {
        let sample_every = sample_every.max(Duration::from_micros(200));
        OpenLoop {
            ctl: AdmissionController::new(admission, recorder.clone(), DeviceRef::node_scope(0)),
            arrivals,
            next: 0,
            blocked: None,
            queued_arrival: HashMap::new(),
            sample_every_ns: u64::try_from(sample_every.as_nanos()).unwrap_or(u64::MAX),
            next_sample_ns: 0,
            samples: Vec::new(),
            completed: 0,
        }
    }

    /// Everything due at `now_ns`: admit the queued tasks the inflight cap
    /// allows, offer the blocked arrival again, then offer every arrival
    /// scheduled by `now_ns` until one blocks. `make(index, arrival_ns)`
    /// builds each arrival's task; `admit(task, arrival_ns)` hears each
    /// task admitted, with its scheduled arrival.
    pub fn intake(
        &mut self,
        now_ns: u64,
        mut make: impl FnMut(u64, u64) -> T,
        mut admit: impl FnMut(T, u64),
    ) {
        let polled = self.ctl.poll(now_ns);
        for env in polled.expired {
            self.queued_arrival.remove(&env.buffer);
        }
        for env in polled.admitted {
            let arrival_ns = self.queued_arrival.remove(&env.buffer).unwrap_or(now_ns);
            admit(env.payload, arrival_ns);
        }
        loop {
            let (arrival_ns, task) = match self.blocked.take() {
                Some(blocked) => blocked,
                None => match self.arrivals.get(self.next) {
                    Some(&due) if due <= now_ns => {
                        self.next += 1;
                        (due, make(self.next as u64 - 1, due))
                    }
                    _ => break,
                },
            };
            let id = task.id();
            match self.ctl.offer(now_ns, id, task.level(), task) {
                Offer::Admitted(task) => admit(task, arrival_ns),
                Offer::Queued { shed } => {
                    self.queued_arrival.insert(id, arrival_ns);
                    if let Some(victim) = shed {
                        self.queued_arrival.remove(&victim.buffer);
                    }
                }
                Offer::ShedSelf(_) => {}
                // Back-pressure: the schedule stalls until a completion
                // frees room.
                Offer::Blocked(task) => {
                    self.blocked = Some((arrival_ns, task));
                    break;
                }
            }
        }
    }

    /// One admitted task finished: its admission slot is free. Follow with
    /// [`OpenLoop::intake`] to fill it.
    pub fn completed(&mut self) {
        self.ctl.release();
        self.completed += 1;
    }

    /// The next scheduled arrival; `None` once the schedule is offered to
    /// the end or while a stall holds it back.
    pub fn next_arrival(&self) -> Option<u64> {
        match self.blocked {
            Some(_) => None,
            None => self.arrivals.get(self.next).copied(),
        }
    }

    /// When [`OpenLoop::intake`] or a sample is due even if no task
    /// completes: the next arrival, the next sample, or the expiry of the
    /// oldest queued task, whichever comes first.
    pub fn next_deadline(&self) -> u64 {
        [self.next_arrival(), self.ctl.next_expiry()]
            .into_iter()
            .flatten()
            .fold(self.next_sample_ns, u64::min)
    }

    /// The whole schedule offered and nothing waiting at intake.
    pub fn drained(&self) -> bool {
        self.next >= self.arrivals.len() && self.blocked.is_none() && self.ctl.queued() == 0
    }

    /// Whether a queue-depth sample is due at `now_ns`.
    pub fn sample_due(&self, now_ns: u64) -> bool {
        now_ns >= self.next_sample_ns
    }

    /// Record a sample at `now_ns` from each stage's ready-queue depth; the
    /// next is due one cadence later.
    pub fn sample(&mut self, now_ns: u64, per_stage: Vec<u64>) -> &QueueDepthSample {
        self.next_sample_ns = now_ns.saturating_add(self.sample_every_ns);
        self.samples.push(QueueDepthSample {
            t_ns: now_ns,
            ready: per_stage.iter().sum(),
            intake: self.ctl.queued() as u64,
            inflight: self.ctl.inflight() as u64,
            per_stage,
        });
        self.samples.last().expect("a sample was just pushed")
    }

    /// Terminal classifications in generation order, as
    /// `(buffer id, decision)`.
    pub fn decisions(&self) -> &[(u64, AdmissionDecision)] {
        self.ctl.decisions()
    }

    /// The admission counters, the completed admitted tasks and the
    /// queue-depth series.
    pub fn finish(self) -> (AdmissionCounters, u64, Vec<QueueDepthSample>) {
        (self.ctl.counters(), self.completed, self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::OverloadPolicy;
    use crate::obs::EventKind;
    use anthill_simkit::SimDuration;

    /// A task queued under `DeadlineDrop` is due at its deadline, not at
    /// the next arrival or sample: with a 1 ms deadline and a 1 s cadence
    /// the schedule's next deadline is 1 ms, where the task is dropped
    /// after waiting exactly 1 ms.
    #[test]
    fn a_queued_task_is_due_at_its_deadline() {
        let rec = Recorder::enabled();
        let cfg = AdmissionConfig {
            inflight_cap: 1,
            queue_cap: 1,
            policy: OverloadPolicy::DeadlineDrop {
                deadline: SimDuration::from_millis(1),
            },
        };
        let arrivals = [0, 0];
        let mut open: OpenLoop<'_, u64> =
            OpenLoop::new(cfg, &rec, &arrivals, Duration::from_secs(1));
        let mut admitted = Vec::new();
        open.intake(0, |i, _| i, |id, _| admitted.push(id));
        open.sample(0, vec![0]);
        assert_eq!(admitted, [0]);
        assert_eq!(open.next_deadline(), 1_000_000);
        open.intake(1_000_000, |i, _| i, |id, _| admitted.push(id));
        assert!(open.drained());
        let waited: Vec<u64> = rec
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::TaskDeadlineDropped { waited_ns, .. } => Some(waited_ns),
                _ => None,
            })
            .collect();
        assert_eq!(waited, [1_000_000]);
        assert_eq!(open.next_deadline(), 1_000_000_000, "the next sample");
    }

    /// A `Block` stall holds the schedule back and offers the held arrival
    /// first once a completion frees room; every arrival is admitted with
    /// its scheduled time.
    #[test]
    fn a_blocked_arrival_is_offered_first_after_a_completion() {
        let cfg = AdmissionConfig {
            inflight_cap: 1,
            queue_cap: 1,
            policy: OverloadPolicy::Block,
        };
        let arrivals = [0, 10, 20, 30];
        let mut open: OpenLoop<'_, u64> = OpenLoop::new(
            cfg,
            &Recorder::disabled(),
            &arrivals,
            Duration::from_secs(1),
        );
        let mut admitted = Vec::new();
        open.intake(25, |i, _| i, |id, at| admitted.push((id, at)));
        assert_eq!(admitted, [(0, 0)]);
        assert_eq!(open.next_arrival(), None, "arrival 2 is held back");
        open.completed();
        open.intake(40, |i, _| i, |id, at| admitted.push((id, at)));
        assert_eq!(admitted, [(0, 0), (1, 10)]);
        for now in [50, 60, 70] {
            open.completed();
            open.intake(now, |i, _| i, |id, at| admitted.push((id, at)));
        }
        assert_eq!(admitted, [(0, 0), (1, 10), (2, 20), (3, 30)]);
        assert!(open.drained());
        let (counters, completed, _) = open.finish();
        assert!(counters.conserved());
        assert_eq!((counters.admitted, completed), (4, 4));
    }
}
