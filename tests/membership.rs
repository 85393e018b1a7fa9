//! Elastic-membership suite (DESIGN.md §14): the Joining → Active →
//! Draining → Gone lifecycle proven under randomized schedules.
//!
//! Four layers of checks:
//!
//! 1. **Registry model check** — the [`Membership`] state machine under
//!    random operation sequences never accepts an illegal transition and
//!    never mutates on rejection (proptest against an explicit model).
//! 2. **Interleaving conservation** — random join/drain/death/timeout
//!    interleavings on the DES: every buffer still finishes *exactly
//!    once* (no loss, no double assignment), every fired join/drain is
//!    visible in the trace as `worker_joined`/`worker_draining`/
//!    `worker_left`, and a drained slot receives **zero** dispatches
//!    after its `worker_draining` event.
//! 3. **Warm-up** — a joiner enters with the DQAA cold-start window
//!    (target 1) rather than stampeding the readers, and still ends up
//!    with a measurable share of the remaining work.
//! 4. **Autoscaler over real sockets** — a saturating open-loop schedule
//!    against one busy TCP worker makes the DQAA congestion-signal
//!    autoscaler grow the run from a standby pool, within its bounds and
//!    with the admission counters conserved.

mod common;

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use proptest::prelude::*;

use common::{load_buffer, loopback_workers, oracle, pick_policy};

use anthill_repro::bench::load::ArrivalProfile;
use anthill_repro::core::engine::{AdmissionConfig, OverloadPolicy};
use anthill_repro::core::faults::{FaultConfig, FaultProb, RecoveryConfig, WorkerDeathSpec};
use anthill_repro::core::membership::{
    Autoscaler, AutoscalerConfig, MemberAction, MemberPhase, Membership, MembershipSchedule,
    ScheduledAction, WorkerPool,
};
use anthill_repro::core::net::{
    run_concurrent_load_autoscaled, Behavior, ElasticLoad, NetConfig, NetWorkerConn,
};
use anthill_repro::core::obs::{jsonl, DeviceRef, EventKind, Recorder};
use anthill_repro::core::policy::Policy;
use anthill_repro::core::sim::{run_nbia, SimConfig, WorkloadSpec};
use anthill_repro::estimator::fnv1a64;
use anthill_repro::hetsim::{ClusterSpec, DeviceKind};
use anthill_repro::simkit::SimTime;

// ---------------------------------------------------------------------
// 1. Registry model check
// ---------------------------------------------------------------------

/// The reference model of one slot's legal lifecycle.
fn legal(from: MemberPhase, to: MemberPhase) -> bool {
    matches!(
        (from, to),
        (MemberPhase::Joining, MemberPhase::Active)
            | (MemberPhase::Active, MemberPhase::Draining)
            | (MemberPhase::Draining, MemberPhase::Gone)
    )
}

proptest! {
    /// Drive the registry with random operations while mirroring a naive
    /// phase vector: every accepted transition must be model-legal, every
    /// rejected one must leave the slot's phase untouched, and `fail` is
    /// always accepted (death is a fact, not a request).
    #[test]
    fn registry_matches_the_lifecycle_model(
        ops in prop::collection::vec((0usize..5, 0usize..8), 1..64),
    ) {
        let mut reg = Membership::new();
        let mut model: Vec<MemberPhase> = Vec::new();
        for (op, raw_id) in ops {
            if op == 0 {
                let id = reg.begin_join(0, model.len(), DeviceKind::Cpu);
                prop_assert_eq!(id, model.len(), "ids are dense registration order");
                model.push(MemberPhase::Joining);
                continue;
            }
            if model.is_empty() {
                continue;
            }
            let id = raw_id % model.len();
            let before = model[id];
            match op {
                1..=3 => {
                    let to = match op {
                        1 => MemberPhase::Active,
                        2 => MemberPhase::Draining,
                        _ => MemberPhase::Gone,
                    };
                    let res = match op {
                        1 => reg.activate(id),
                        2 => reg.begin_drain(id),
                        _ => reg.finish(id),
                    };
                    if legal(before, to) {
                        prop_assert!(res.is_ok(), "legal {before:?} -> {to:?} rejected");
                        model[id] = to;
                    } else {
                        let err = res.expect_err("illegal transition accepted");
                        prop_assert_eq!(err.from, before);
                        prop_assert_eq!(reg.phase(id), before, "rejection must not mutate");
                    }
                }
                _ => {
                    reg.fail(id);
                    model[id] = MemberPhase::Gone;
                }
            }
        }
        for (id, &phase) in model.iter().enumerate() {
            prop_assert_eq!(reg.phase(id), phase);
        }
        prop_assert_eq!(
            reg.active_count(),
            model.iter().filter(|&&p| p == MemberPhase::Active).count()
        );
    }
}

// ---------------------------------------------------------------------
// 2. Interleaving conservation on the DES
// ---------------------------------------------------------------------

/// One randomly generated join, with an optional drain of the joined
/// slot later in the run: `(node, gpu?, join_at, drain?, drain_at)`.
type JoinSpec = (usize, bool, u64, bool, u64);

/// Expand the generated joins into a completion-keyed schedule, computing
/// each joiner's engine slot index the way the DES assigns them: base
/// slots 0 (CPU) and 1 (GPU) per homogeneous node, joiners appended in
/// threshold order.
fn build_schedule(joins: &[JoinSpec]) -> MembershipSchedule {
    let mut actions = Vec::new();
    let mut order: Vec<usize> = (0..joins.len()).collect();
    order.sort_by_key(|&i| joins[i].2); // stable: listed order at ties
    let mut joined_per_node: HashMap<usize, usize> = HashMap::new();
    for i in order {
        let (node, gpu, join_at, drain, drain_at) = joins[i];
        let kind = if gpu {
            DeviceKind::Gpu
        } else {
            DeviceKind::Cpu
        };
        actions.push(ScheduledAction {
            after_completions: join_at,
            action: MemberAction::Join { node, kind },
        });
        let slot = 2 + joined_per_node.entry(node).or_insert(0).to_owned();
        *joined_per_node.get_mut(&node).unwrap() += 1;
        if drain {
            actions.push(ScheduledAction {
                after_completions: drain_at,
                action: MemberAction::Drain { node, worker: slot },
            });
        }
    }
    MembershipSchedule::new(actions)
}

proptest! {
    /// Random join/drain/death/timeout interleavings: the run drains with
    /// every buffer finished exactly once, the trace carries exactly one
    /// `worker_joined` per fired join and one `worker_draining` +
    /// `worker_left` pair per fired drain, and no drained slot is ever
    /// dispatched to after its `worker_draining` event.
    #[test]
    fn random_interleavings_never_lose_or_double_assign(
        seed in 0u64..1 << 48,
        drop in 0.0f64..0.20,
        // Joins fire in the first 20 completions, drains in 21..40 —
        // thresholds every generated run reaches (tiles >= 40). Deaths
        // hit only base slots, drains only joined slots, so at least one
        // base worker per node survives the whole interleaving.
        joins in prop::collection::vec(
            (0usize..2, prop::bool::ANY, 1u64..20, prop::bool::ANY, 21u64..40),
            0..4,
        ),
        kill in prop::bool::ANY,
        dead_node in 0usize..2,
        dead_worker in 0usize..2,
        at_us in 1u64..500_000,
        policy_i in 0usize..3,
        tiles in 40u64..72,
    ) {
        let wl = WorkloadSpec { tiles, ..WorkloadSpec::paper_base(0.2) };
        let deaths = if kill {
            vec![WorkerDeathSpec {
                node: dead_node,
                worker: dead_worker,
                at: SimTime(at_us * 1_000),
            }]
        } else {
            Vec::new()
        };
        let recorder = Recorder::enabled();
        let mut cfg = SimConfig::new(ClusterSpec::homogeneous(2), pick_policy(policy_i));
        cfg.faults = FaultConfig {
            drop: FaultProb::uniform(drop),
            deaths,
            recovery: RecoveryConfig::standard(),
            seed,
            ..FaultConfig::none()
        };
        cfg.membership = build_schedule(&joins);
        cfg.recorder = recorder.clone();

        let report = run_nbia(&cfg, &wl);
        prop_assert_eq!(report.total_tasks, wl.total_buffers(), "conservation");

        let events = recorder.events();
        // Exactly-once completion per buffer id, chaos notwithstanding.
        let mut finishes: HashMap<u64, u32> = HashMap::new();
        for e in &events {
            if let EventKind::Finish { buffer, .. } = e.kind {
                *finishes.entry(buffer).or_insert(0) += 1;
            }
        }
        prop_assert_eq!(finishes.len() as u64, wl.total_buffers());
        prop_assert!(
            finishes.values().all(|&n| n == 1),
            "a buffer finished more than once: {:?}",
            finishes.iter().filter(|(_, &n)| n > 1).collect::<Vec<_>>()
        );

        // Every fired action surfaces in the trace exactly once. All
        // generated thresholds are < 40 <= total completions, so every
        // scheduled action fires.
        let count = |pred: fn(&EventKind) -> bool| {
            events.iter().filter(|e| pred(&e.kind)).count()
        };
        let n_drains = joins.iter().filter(|j| j.3).count();
        prop_assert_eq!(
            count(|k| matches!(k, EventKind::WorkerJoined { .. })),
            joins.len(),
            "one worker_joined per fired join"
        );
        prop_assert_eq!(
            count(|k| matches!(k, EventKind::WorkerDraining { .. })),
            n_drains,
            "one worker_draining per fired drain"
        );
        prop_assert_eq!(
            count(|k| matches!(k, EventKind::WorkerLeft)),
            n_drains,
            "every drained slot must be gracefully released"
        );

        // A drained slot receives zero assignments after worker_draining.
        for (i, e) in events.iter().enumerate() {
            if !matches!(e.kind, EventKind::WorkerDraining { .. }) {
                continue;
            }
            let later_dispatches = events[i + 1..]
                .iter()
                .filter(|l| {
                    l.origin == e.origin && matches!(l.kind, EventKind::Dispatch { .. })
                })
                .count();
            prop_assert_eq!(
                later_dispatches, 0,
                "slot {} was dispatched to after draining", e.origin
            );
        }
    }
}

// ---------------------------------------------------------------------
// 3. Warm-up
// ---------------------------------------------------------------------

/// A CPU joiner arriving a third of the way into a DQAA run enters with
/// the cold-start window (target 1), ramps up instead of stampeding, and
/// still earns a measurable share of the remaining completions.
#[test]
fn joiner_warms_up_and_earns_a_share() {
    let wl = WorkloadSpec {
        tiles: 300,
        ..WorkloadSpec::paper_base(0.1)
    };
    let recorder = Recorder::enabled();
    // ODDS runs DQAA, so the joiner's window must start from the cold
    // target of 1 (static-window policies enter at their fixed size).
    let mut cfg = SimConfig::new(ClusterSpec::homogeneous(1), Policy::odds());
    cfg.membership = MembershipSchedule::new(vec![ScheduledAction {
        after_completions: 100,
        action: MemberAction::Join {
            node: 0,
            kind: DeviceKind::Cpu,
        },
    }]);
    cfg.recorder = recorder.clone();
    let report = run_nbia(&cfg, &wl);
    assert_eq!(report.total_tasks, wl.total_buffers());

    let events = recorder.events();
    let joiner = DeviceRef {
        node: 0,
        kind: Some(DeviceKind::Cpu),
        index: 1, // base CPU is index 0
    };
    let join_pos = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::WorkerJoined { .. }))
        .expect("the join must be traced");
    match events[join_pos].kind {
        EventKind::WorkerJoined { window } => {
            assert_eq!(events[join_pos].origin, joiner);
            assert_eq!(window, 1, "DQAA joiners start from the cold window");
        }
        _ => unreachable!(),
    }
    let joiner_done = events[join_pos..]
        .iter()
        .filter(|e| e.origin == joiner && matches!(e.kind, EventKind::Finish { .. }))
        .count() as u64;
    assert!(
        joiner_done >= (wl.total_buffers() - 100) / 10,
        "the joiner must absorb a measurable share of the remaining work, got {joiner_done}"
    );
    assert!(
        events[..join_pos].iter().all(|e| e.origin != joiner),
        "the joiner must be silent before its join event"
    );
}

/// One scripted elastic DES run as literals: a GPU joins node 0 (the
/// asynchronous-copy join path with its stream reserve), a CPU joins
/// node 1, and node 0's original CPU drains — virtual makespan and the
/// FNV-1a-64 of the JSONL trace.
#[test]
fn des_join_and_drain_run_is_pinned() {
    let wl = WorkloadSpec {
        tiles: 300,
        ..WorkloadSpec::paper_base(0.1)
    };
    let mut cfg = SimConfig::new(ClusterSpec::homogeneous(2), Policy::odds());
    let step = |after_completions, action| ScheduledAction {
        after_completions,
        action,
    };
    cfg.membership = MembershipSchedule::new(vec![
        step(
            60,
            MemberAction::Join {
                node: 0,
                kind: DeviceKind::Gpu,
            },
        ),
        step(
            100,
            MemberAction::Join {
                node: 1,
                kind: DeviceKind::Cpu,
            },
        ),
        step(150, MemberAction::Drain { node: 0, worker: 0 }),
    ]);
    cfg.recorder = Recorder::enabled();
    let report = run_nbia(&cfg, &wl);
    assert_eq!(report.total_tasks, wl.total_buffers());
    let trace = jsonl::to_jsonl(&cfg.recorder.events());
    assert_eq!(
        (report.makespan.as_nanos(), fnv1a64(trace.as_bytes())),
        (366_926_854, 0xcb8c_0ca9_1b11_bf7c)
    );
}

// ---------------------------------------------------------------------
// 4. Autoscaler over real sockets
// ---------------------------------------------------------------------

/// Pre-connected standby workers: `grow` hands out the next idle
/// connection until the standby set is exhausted.
struct StandbyPool(VecDeque<NetWorkerConn>);

impl WorkerPool for StandbyPool {
    type Worker = NetWorkerConn;

    fn grow(&mut self) -> Option<NetWorkerConn> {
        self.0.pop_front()
    }
}

/// One ~200 µs worker (~5k/s of capacity) against 10k/s of Poisson
/// arrivals: the backlog crosses the grow watermark within milliseconds,
/// so the autoscaler must scale up from the three standby workers — never
/// past `max_workers` — while admission conserves, every admitted task
/// completes and nobody dies.
#[test]
fn autoscaler_grows_a_saturated_tcp_run_within_its_bounds() {
    const N: usize = 1_500;
    const MAX_WORKERS: usize = 4;
    let mut standby: VecDeque<NetWorkerConn> = loopback_workers(
        &[DeviceKind::Cpu; MAX_WORKERS],
        Behavior::Busy { micros: 200 },
    )
    .into();
    let initial = vec![standby.pop_front().expect("four workers")];
    let mut pool = StandbyPool(standby);
    let arrivals = ArrivalProfile::Poisson { rate_hz: 10_000.0 }.schedule(45, N);
    let mut cfg = NetConfig::new(Policy::ddfcfs(4));
    cfg.deadline = Duration::from_secs(60);
    let report = run_concurrent_load_autoscaled(
        cfg,
        AdmissionConfig {
            inflight_cap: 32,
            queue_cap: 64,
            policy: OverloadPolicy::ShedOldest,
        },
        initial,
        &arrivals,
        &mut |i, _| load_buffer(i, 50),
        Duration::from_millis(2),
        oracle(),
        &mut |_| {},
        ElasticLoad {
            autoscaler: Autoscaler::new(AutoscalerConfig::standard(1, MAX_WORKERS)),
            pool: &mut pool,
        },
    )
    .expect("autoscaled net load run");

    assert!(report.admission.conserved(), "{:?}", report.admission);
    assert_eq!(report.admission.generated, N as u64);
    assert_eq!(report.completed, report.admission.admitted);
    assert!(
        report.scale_ups >= 1,
        "the saturating schedule triggered no scale-up"
    );
    let live_at_end = 1 + report.scale_ups - report.scale_downs;
    assert!(
        live_at_end <= MAX_WORKERS as u64,
        "{} ups, {} downs: the run grew past max_workers",
        report.scale_ups,
        report.scale_downs
    );
    assert_eq!(report.outcome.deaths, 0);
}
