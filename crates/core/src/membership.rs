//! Elastic membership: how worker slots join and leave a live run.
//!
//! The paper's run-time optimizations (DQAA, DBSA, DDWRR) assume a fixed
//! worker set; this module supplies the missing half of an elastic
//! service. It is deliberately backend-agnostic — the same pieces drive
//! the sequential reference driver, the DES, the native threaded runtime
//! and the TCP backend, because all of them route through the engine's
//! Clock/Transport/Executor seam. A slot's lifecycle itself is the
//! engine's and nobody else's: `Engine::join_worker` makes it Active,
//! `Engine::drain_worker` Draining, and the drain's last settled item (or
//! [`crate::engine::Engine::worker_died`]) Gone; every transition is a
//! no-op where it is not legal.
//!
//! * [`MembershipSchedule`] — a deterministic script of join/drain
//!   actions keyed on the run's completion count. Virtual-time backends
//!   replay it identically (the policy-parity suite pins sequential =
//!   DES = native per-device counts under a scripted schedule).
//! * [`Autoscaler`] + [`WorkerPool`] — a watermark policy that grows and
//!   shrinks the pool from DQAA's own congestion signals (reader queue
//!   depth, request latency) against a pluggable supplier of fresh
//!   workers.
//!
//! Warm-up: a joiner enters with a fresh request window (target 1 under
//! DQAA) and ramps up as real round-trip latencies arrive, so a cold
//! worker can neither starve (it pumps immediately on join) nor stampede
//! the readers (its demand grows one observed latency at a time). Weight
//! bootstrap comes for free from the run's shared
//! [`crate::weights::WeightProvider`]: the kNN estimator profiles are
//! per device *class*, so a joiner of an already-profiled class inherits
//! them at full fidelity.

use anthill_hetsim::DeviceKind;

/// One scripted membership action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberAction {
    /// Join a fresh worker of `kind` on `node`.
    Join {
        /// Hosting node (or filter) index.
        node: usize,
        /// Device class of the joiner.
        kind: DeviceKind,
    },
    /// Begin a graceful drain of an existing slot.
    Drain {
        /// Hosting node (or filter) index.
        node: usize,
        /// Worker slot index within the node.
        worker: usize,
    },
}

/// A [`MemberAction`] that fires once the run's completion count reaches
/// `after_completions`. Completion counts — not wall or virtual time —
/// key the script, so every deterministic backend replays it at exactly
/// the same point in the schedule's causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledAction {
    /// Fire when `Engine::total_done()` first reaches this value.
    pub after_completions: u64,
    /// What to do.
    pub action: MemberAction,
}

/// A deterministic script of membership changes, consumed in completion
/// order. Drivers call `MembershipSchedule::pop_due` after every task
/// completion and apply the returned actions through `Engine::join_worker`
/// / `Engine::drain_worker`.
#[derive(Debug, Clone, Default)]
pub struct MembershipSchedule {
    actions: Vec<ScheduledAction>,
    next: usize,
}

impl MembershipSchedule {
    /// A schedule from unordered actions (stable-sorted by threshold, so
    /// equal thresholds keep their listed order).
    pub fn new(mut actions: Vec<ScheduledAction>) -> MembershipSchedule {
        actions.sort_by_key(|a| a.after_completions);
        MembershipSchedule { actions, next: 0 }
    }

    /// The empty schedule (static membership).
    pub fn none() -> MembershipSchedule {
        MembershipSchedule::default()
    }

    /// Pop the next action whose threshold `completions` has reached, if
    /// any. Call in a loop — several actions may share a threshold.
    pub(crate) fn pop_due(&mut self, completions: u64) -> Option<MemberAction> {
        let a = self.actions.get(self.next)?;
        if a.after_completions <= completions {
            self.next += 1;
            Some(a.action)
        } else {
            None
        }
    }
}

/// A supplier of fresh workers for [`Autoscaler`]-driven growth. The
/// handle type is backend-specific: a connected socket on the TCP
/// backend, a device slot elsewhere.
pub trait WorkerPool {
    /// The backend-specific handle for a freshly provisioned worker.
    type Worker;

    /// Provision one new worker, or `None` when the pool is exhausted.
    fn grow(&mut self) -> Option<Self::Worker>;
}

/// Watermarks and bounds for the [`Autoscaler`].
#[derive(Debug, Clone, Copy)]
pub struct AutoscalerConfig {
    /// Grow when the sampled reader-queue depth reaches this.
    pub queue_high: usize,
    /// Shrink only when the sampled depth is at or below this.
    pub queue_low: usize,
    /// Grow when the observed request latency reaches this (0 disables
    /// the latency trigger).
    pub latency_high_ns: u64,
    /// Never shrink below this many active workers.
    pub min_workers: usize,
    /// Never grow past this many active workers.
    pub max_workers: usize,
    /// Minimum spacing between scale actions, in nanoseconds of the
    /// driving clock — one decision per congestion episode, not one per
    /// sample.
    pub cooldown_ns: u64,
}

impl AutoscalerConfig {
    /// Conservative defaults for the open-loop load harness: grow on a
    /// backlog of 8+, shrink below 2, 50 ms decision spacing.
    pub fn standard(min_workers: usize, max_workers: usize) -> AutoscalerConfig {
        AutoscalerConfig {
            queue_high: 8,
            queue_low: 1,
            latency_high_ns: 0,
            min_workers,
            max_workers,
            cooldown_ns: 50_000_000,
        }
    }
}

/// What the autoscaler decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Provision one worker from the pool.
    Grow,
    /// Drain one worker.
    Shrink,
}

/// A hysteresis watermark policy over DQAA's own congestion signals: the
/// reader-queue depth the open-loop harness already samples and the
/// request latency the engine already histograms. Stateless apart from
/// the cooldown, so decisions are a pure function of the sampled signals
/// — deterministic under virtual time.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    cfg: AutoscalerConfig,
    last_action_ns: Option<u64>,
}

impl Autoscaler {
    /// A fresh policy instance.
    pub fn new(cfg: AutoscalerConfig) -> Autoscaler {
        Autoscaler {
            cfg,
            last_action_ns: None,
        }
    }

    /// One sampling step: decide from the current queue depth, the most
    /// recent request latency (if any), and the assignable worker count.
    /// Returns `None` inside the cooldown window or when the signals sit
    /// between the watermarks.
    pub fn decide(
        &mut self,
        now_ns: u64,
        queue_depth: usize,
        latency_ns: Option<u64>,
        active: usize,
    ) -> Option<ScaleAction> {
        if let Some(last) = self.last_action_ns {
            if now_ns.saturating_sub(last) < self.cfg.cooldown_ns {
                return None;
            }
        }
        let latency_hot = self.cfg.latency_high_ns > 0
            && latency_ns.is_some_and(|l| l >= self.cfg.latency_high_ns);
        let action = if (queue_depth >= self.cfg.queue_high || latency_hot)
            && active < self.cfg.max_workers
        {
            ScaleAction::Grow
        } else if queue_depth <= self.cfg.queue_low && !latency_hot && active > self.cfg.min_workers
        {
            ScaleAction::Shrink
        } else {
            return None;
        };
        self.last_action_ns = Some(now_ns);
        Some(action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_pops_in_threshold_order() {
        let mut s = MembershipSchedule::new(vec![
            ScheduledAction {
                after_completions: 20,
                action: MemberAction::Drain { node: 0, worker: 1 },
            },
            ScheduledAction {
                after_completions: 5,
                action: MemberAction::Join {
                    node: 0,
                    kind: DeviceKind::Cpu,
                },
            },
            ScheduledAction {
                after_completions: 5,
                action: MemberAction::Join {
                    node: 0,
                    kind: DeviceKind::Gpu,
                },
            },
        ]);
        assert!(s.pop_due(4).is_none());
        assert_eq!(
            s.pop_due(5),
            Some(MemberAction::Join {
                node: 0,
                kind: DeviceKind::Cpu
            }),
            "stable sort keeps listed order at equal thresholds"
        );
        assert_eq!(
            s.pop_due(5),
            Some(MemberAction::Join {
                node: 0,
                kind: DeviceKind::Gpu
            })
        );
        assert!(s.pop_due(19).is_none());
        assert_eq!(
            s.pop_due(100),
            Some(MemberAction::Drain { node: 0, worker: 1 })
        );
        assert!(s.pop_due(u64::MAX).is_none());
    }

    #[test]
    fn autoscaler_grows_on_backlog_and_respects_bounds() {
        let mut a = Autoscaler::new(AutoscalerConfig {
            queue_high: 4,
            queue_low: 0,
            latency_high_ns: 0,
            min_workers: 1,
            max_workers: 2,
            cooldown_ns: 10,
        });
        assert_eq!(a.decide(0, 10, None, 1), Some(ScaleAction::Grow));
        assert_eq!(a.decide(5, 10, None, 1), None, "cooldown");
        assert_eq!(a.decide(20, 10, None, 2), None, "at max_workers");
        assert_eq!(a.decide(40, 2, None, 2), None, "between watermarks");
        assert_eq!(a.decide(60, 0, None, 2), Some(ScaleAction::Shrink));
        assert_eq!(a.decide(80, 0, None, 1), None, "at min_workers");
    }

    #[test]
    fn autoscaler_latency_trigger_grows_and_blocks_shrink() {
        let mut a = Autoscaler::new(AutoscalerConfig {
            queue_high: 100,
            queue_low: 1,
            latency_high_ns: 1_000,
            min_workers: 1,
            max_workers: 4,
            cooldown_ns: 0,
        });
        assert_eq!(a.decide(0, 0, Some(5_000), 2), Some(ScaleAction::Grow));
        assert_eq!(
            a.decide(1, 0, Some(5_000), 4),
            None,
            "hot latency blocks the shrink branch too"
        );
        assert_eq!(a.decide(2, 0, Some(10), 4), Some(ScaleAction::Shrink));
    }
}
