//! `anthill::faults` — deterministic, seedable fault injection for any
//! driver of the scheduling engine.
//!
//! The paper's testbed is a real 14-node cluster: links drop control
//! messages, workers stall, GPUs fall over mid-run. This module models
//! those failures as a *pure decision layer* the drivers consult at each
//! hop:
//!
//! * **Message faults** — every request or reply traversing the transport
//!   asks `FaultInjector::message_fate` whether it is delivered, delayed
//!   by a fixed span, or dropped on the wire.
//! * **Transient task failures** — a completed execution asks
//!   `FaultInjector::task_fails` whether the result is discarded (the
//!   device time was still spent — the buffer must be re-run).
//! * **Permanent worker death** — [`FaultConfig::deaths`] lists `(node,
//!   worker, at)` triples; the driver kills the slot at the given virtual
//!   time and hands its in-flight buffers back to the engine.
//!
//! Decisions come from per-category forks of a [`SimRng`] seeded by
//! [`FaultConfig::seed`], so a fault schedule is a pure function of the
//! configuration: two runs with the same seed inject the *identical*
//! faults, which is what lets the chaos tests compare policies under the
//! same failure trace and lets CI replay a failing schedule. At zero
//! probability every query short-circuits before touching the RNG, so a
//! driver consulting an all-zero schedule is byte-identical to one that
//! consults none (asserted by the chaos parity tests).
//!
//! Recovery knobs live in [`RecoveryConfig`] and are consumed by
//! `engine::core`: per-request timeouts, bounded exponential-backoff
//! retry, dead-worker re-enqueue, and health-based demand throttling
//! (DESIGN.md "Failure model").

use anthill_simkit::{SimDuration, SimRng, SimTime};

/// A per-worker-overridable probability in `[0, 1]`.
#[derive(Debug, Clone, Default)]
pub struct FaultProb {
    /// Probability applied to every worker without an override.
    pub base: f64,
    /// `(node, worker, probability)` overrides.
    pub per_worker: Vec<(usize, usize, f64)>,
}

impl FaultProb {
    /// A probability applied uniformly to all workers.
    pub fn uniform(p: f64) -> FaultProb {
        FaultProb {
            base: p,
            per_worker: Vec::new(),
        }
    }

    /// The probability in effect for `(node, worker)`.
    pub(crate) fn for_worker(&self, node: usize, worker: usize) -> f64 {
        self.per_worker
            .iter()
            .find(|&&(n, w, _)| n == node && w == worker)
            .map(|&(_, _, p)| p)
            .unwrap_or(self.base)
    }

    /// True when no worker can ever draw a fault from this schedule.
    pub fn is_zero(&self) -> bool {
        self.base <= 0.0 && self.per_worker.iter().all(|&(_, _, p)| p <= 0.0)
    }
}

/// One scheduled permanent worker death.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerDeathSpec {
    /// Hosting node index.
    pub node: usize,
    /// Worker slot index within the node.
    pub worker: usize,
    /// Virtual time of the failure.
    pub at: SimTime,
}

/// One scheduled connection sever for the networked backend: after the
/// coordinator has written `after_frames` frames to the worker's socket,
/// the connection is shut down both ways. The worker sees EOF and exits;
/// the coordinator sees EOF and maps the sever onto the existing permanent
/// death model ([`WorkerDeathSpec`] semantics: in-flight buffers re-homed,
/// the slot retired). Frame counts are deterministic in the lockstep
/// driver, making severs replayable the way virtual-time deaths are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionDropSpec {
    /// Hosting node index.
    pub node: usize,
    /// Worker slot index within the node.
    pub worker: usize,
    /// Coordinator→worker frames delivered before the sever (the `Hello`
    /// handshake frame counts).
    pub after_frames: u64,
}

/// Engine-side recovery knobs (consumed by `engine::core`).
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Arm per-request timeouts and the retry/re-enqueue machinery. When
    /// false the engine behaves exactly as before this layer existed.
    pub enabled: bool,
    /// Base per-request timeout (attempt 0). Must comfortably exceed the
    /// worst fault-free round trip or healthy requests will retry.
    pub request_timeout: SimDuration,
    /// Retries per request before the demand slot is released (the task
    /// itself is never lost — a released slot just re-pumps fresh demand).
    pub max_retries: u32,
}

impl RecoveryConfig {
    /// Recovery switched off: the engine schedules no timeouts and decays
    /// no weights (the pre-fault-layer behaviour, byte-identical traces).
    pub fn disabled() -> RecoveryConfig {
        RecoveryConfig {
            enabled: false,
            request_timeout: SimDuration::ZERO,
            max_retries: 0,
        }
    }

    /// Sensible defaults for the simulated cluster: 500 ms virtual-time
    /// base timeout (fault-free round trips are well under 100 ms) and 6
    /// retries. The backoff cap and the health rules are the engine's
    /// constants (DESIGN.md §7).
    pub fn standard() -> RecoveryConfig {
        RecoveryConfig {
            enabled: true,
            request_timeout: SimDuration::from_millis(500),
            max_retries: 6,
        }
    }
}

/// A complete fault schedule for one run.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Root seed of the injection RNG (independent of the workload seed).
    pub seed: u64,
    /// Per-message drop probability (requests and replies).
    pub drop: FaultProb,
    /// Per-message delay probability.
    pub delay: FaultProb,
    /// Span added to a delayed message.
    pub delay_by: SimDuration,
    /// Per-completion transient-failure probability.
    pub task_fail: FaultProb,
    /// Scheduled permanent worker deaths.
    pub deaths: Vec<WorkerDeathSpec>,
    /// Engine recovery knobs.
    pub recovery: RecoveryConfig,
}

impl FaultConfig {
    /// No faults, no recovery: drivers behave exactly as without the layer.
    pub fn none() -> FaultConfig {
        FaultConfig {
            seed: 0,
            drop: FaultProb::default(),
            delay: FaultProb::default(),
            delay_by: SimDuration::ZERO,
            task_fail: FaultProb::default(),
            deaths: Vec::new(),
            recovery: RecoveryConfig::disabled(),
        }
    }
}

/// What the injector decided for one message hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MessageFate {
    /// Delivered normally.
    Deliver,
    /// Delivered after the extra span.
    Delay(SimDuration),
    /// Lost on the wire.
    Drop,
}

/// The deterministic decision core: per-category RNG streams forked from
/// one seed, queried by drivers at each hop.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    drop: FaultProb,
    delay: FaultProb,
    delay_by: SimDuration,
    task_fail: FaultProb,
    rng_msg: SimRng,
    rng_task: SimRng,
}

impl FaultInjector {
    /// An injector for the given schedule.
    pub(crate) fn new(cfg: &FaultConfig) -> FaultInjector {
        let root = SimRng::new(cfg.seed);
        FaultInjector {
            drop: cfg.drop.clone(),
            delay: cfg.delay.clone(),
            delay_by: cfg.delay_by,
            task_fail: cfg.task_fail.clone(),
            rng_msg: root.fork("faults-message"),
            rng_task: root.fork("faults-task"),
        }
    }

    /// Decide the fate of one message to/from `(node, worker)`.
    ///
    /// The zero-probability fast path never touches the RNG, so an
    /// all-zero schedule draws an identical (empty) random stream to no
    /// schedule at all.
    pub(crate) fn message_fate(&mut self, node: usize, worker: usize) -> MessageFate {
        let p_drop = self.drop.for_worker(node, worker);
        if p_drop > 0.0 && self.rng_msg.chance(p_drop) {
            return MessageFate::Drop;
        }
        let p_delay = self.delay.for_worker(node, worker);
        if p_delay > 0.0 && self.rng_msg.chance(p_delay) {
            return MessageFate::Delay(self.delay_by);
        }
        MessageFate::Deliver
    }

    /// Decide whether a completion on `(node, worker)` transiently fails.
    pub(crate) fn task_fails(&mut self, node: usize, worker: usize) -> bool {
        let p = self.task_fail.for_worker(node, worker);
        p > 0.0 && self.rng_task.chance(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultConfig {
        /// A uniform message-drop schedule with standard recovery.
        fn message_drop(seed: u64, p: f64) -> FaultConfig {
            FaultConfig {
                seed,
                drop: FaultProb::uniform(p),
                recovery: RecoveryConfig::standard(),
                ..FaultConfig::none()
            }
        }

        /// Does this schedule inject anything at all?
        fn is_active(&self) -> bool {
            !self.drop.is_zero()
                || !self.delay.is_zero()
                || !self.task_fail.is_zero()
                || !self.deaths.is_empty()
        }
    }

    #[test]
    fn per_worker_override_wins_over_base() {
        let p = FaultProb {
            base: 0.1,
            per_worker: vec![(1, 0, 0.9)],
        };
        assert_eq!(p.for_worker(0, 0), 0.1);
        assert_eq!(p.for_worker(1, 0), 0.9);
        assert!(!p.is_zero());
        assert!(FaultProb::default().is_zero());
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let cfg = FaultConfig::message_drop(7, 0.3);
        let draw = |mut inj: FaultInjector| -> Vec<MessageFate> {
            (0..64).map(|_| inj.message_fate(0, 0)).collect()
        };
        let a = draw(FaultInjector::new(&cfg));
        let b = draw(FaultInjector::new(&cfg));
        assert_eq!(a, b, "same seed, same fault schedule");
        let c = draw(FaultInjector::new(&FaultConfig::message_drop(8, 0.3)));
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn drop_rate_tracks_the_probability() {
        let mut inj = FaultInjector::new(&FaultConfig::message_drop(42, 0.2));
        let drops = (0..10_000)
            .filter(|_| inj.message_fate(0, 0) == MessageFate::Drop)
            .count();
        assert!((1_600..2_400).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn zero_probability_never_draws() {
        let mut inj = FaultInjector::new(&FaultConfig::none());
        for _ in 0..100 {
            assert_eq!(inj.message_fate(3, 1), MessageFate::Deliver);
            assert!(!inj.task_fails(3, 1));
        }
        assert!(!FaultConfig::none().is_active());
        assert!(FaultConfig::message_drop(0, 0.1).is_active());
    }

    #[test]
    fn message_and_task_streams_are_independent() {
        // Consuming task draws must not shift the message stream.
        let cfg = FaultConfig {
            task_fail: FaultProb::uniform(0.5),
            ..FaultConfig::message_drop(11, 0.5)
        };
        let mut a = FaultInjector::new(&cfg);
        let mut b = FaultInjector::new(&cfg);
        for _ in 0..32 {
            b.task_fails(0, 0);
        }
        let fa: Vec<_> = (0..32).map(|_| a.message_fate(0, 0)).collect();
        let fb: Vec<_> = (0..32).map(|_| b.message_fate(0, 0)).collect();
        assert_eq!(fa, fb);
    }
}
