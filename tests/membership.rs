//! Elastic-membership suite (DESIGN.md §12): the engine's Active →
//! Draining → Gone slot lifecycle proven under randomized schedules.
//!
//! Four layers of checks:
//!
//! 1. **Interleaving conservation** — random join/drain/death/timeout
//!    interleavings on the DES: every buffer still finishes *exactly
//!    once* (no loss, no double assignment), every fired join/drain is
//!    visible in the trace as `worker_joined`/`worker_draining`/
//!    `worker_left`, and a drained slot receives **zero** dispatches
//!    after its `worker_draining` event.
//! 2. **Warm-up** — a joiner enters with the DQAA cold-start window
//!    (target 1) rather than stampeding the readers, and still ends up
//!    with a measurable share of the remaining work.
//! 3. **Autoscaler over real sockets** — a saturating open-loop schedule
//!    against one busy TCP worker makes the DQAA congestion-signal
//!    autoscaler grow the run from a standby pool, within its bounds and
//!    with the admission counters conserved.
//! 4. **First contact on the join listener** — a joiner for a node that
//!    does not exist and a peer that opens with `Hello` are each refused
//!    with a typed `JoinRejected`, and a peer that connects and says
//!    nothing does not hold up the run. (A `Join` on an established slot
//!    is the coordinator's own unit test.)

mod common;

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use proptest::prelude::*;

use common::{load_buffer, loopback_workers, oracle, pick_policy, ArrivalProfile};

use anthill_repro::core::engine::{AdmissionConfig, OverloadPolicy};
use anthill_repro::core::faults::{FaultConfig, FaultProb, RecoveryConfig, WorkerDeathSpec};
use anthill_repro::core::membership::{
    Autoscaler, AutoscalerConfig, MemberAction, MembershipSchedule, ScheduledAction, WorkerPool,
};
use anthill_repro::core::net::{
    encode_frame, join_and_run, run_concurrent_elastic, run_concurrent_load_autoscaled, Behavior,
    ElasticLoad, ElasticOutcome, Frame, FrameDecoder, NetConfig, NetWorkerConn,
};
use anthill_repro::core::obs::{jsonl, DeviceRef, EventKind, Recorder};
use anthill_repro::core::policy::Policy;
use anthill_repro::core::sim::{run_nbia, SimConfig, WorkloadSpec};
use anthill_repro::estimator::fnv1a64;
use anthill_repro::hetsim::{ClusterSpec, DeviceKind};
use anthill_repro::simkit::SimTime;

// ---------------------------------------------------------------------
// 1. Interleaving conservation on the DES
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
// 2. Warm-up
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
// 3. Autoscaler over real sockets
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

// ---------------------------------------------------------------------
// 4. First contact on the join listener
// ---------------------------------------------------------------------

/// 100 tasks of 1 ms on one busy worker (about 0.1 s) with a join listener
/// open, while `peer` dials the listener from its own thread; returns the
/// run's outcome and what the peer saw.
fn run_with_peer<T: Send + 'static>(
    peer: impl FnOnce(String) -> T + Send + 'static,
) -> (ElasticOutcome, T) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener addr").to_string();
    let workers = loopback_workers(&[DeviceKind::Cpu], Behavior::Busy { micros: 1_000 });
    let peer = std::thread::spawn(move || peer(addr));
    let sources = (0..100).map(|i| load_buffer(i, 1_000)).collect();
    let cfg = NetConfig::new(Policy::ddfcfs(4));
    let out = run_concurrent_elastic(cfg, listener, Vec::new(), workers, sources, oracle())
        .expect("elastic run");
    assert_eq!(out.outcome.total, 100);
    assert_eq!((out.joins, out.outcome.deaths), (0, 0), "(joins, deaths)");
    (out, peer.join().expect("peer thread"))
}

#[test]
fn a_joiner_for_an_unknown_node_is_refused_by_name() {
    let (_, joined) =
        run_with_peer(|addr| join_and_run(&addr, 7, DeviceKind::Cpu, Behavior::Identity));
    let err = joined.expect_err("node 7 does not exist");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    assert!(err.to_string().contains("unknown node 7"), "{err}");
}

#[test]
fn a_peer_that_opens_with_hello_reads_a_rejection_then_eof() {
    use std::io::{Read, Write};
    let (_, frames) = run_with_peer(|addr| {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        let hello = encode_frame(&Frame::Hello { node: 0, slot: 0 });
        stream.write_all(&hello).expect("send Hello");
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("read to EOF");
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        std::iter::from_fn(|| dec.next_frame().expect("valid frames")).collect::<Vec<_>>()
    });
    assert!(
        matches!(&frames[..], [Frame::JoinRejected { .. }]),
        "{frames:?}"
    );
}

/// A peer that connects to the join listener and then says nothing must
/// not hold up the event loop: 200 tasks of 1 ms on one worker take about
/// 0.2 s, and a loop that blocks for the peer's first frame waits out the
/// 2 s handshake bound before it gets back to them.
#[test]
fn a_silent_connection_on_the_join_listener_does_not_stall_the_run() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let silent =
        std::net::TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let workers = loopback_workers(&[DeviceKind::Cpu], Behavior::Busy { micros: 1_000 });
    let sources = (0..200).map(|i| load_buffer(i, 1_000)).collect();
    let cfg = NetConfig::new(Policy::ddfcfs(4));
    let started = std::time::Instant::now();
    let out = run_concurrent_elastic(cfg, listener, Vec::new(), workers, sources, oracle())
        .expect("elastic run");
    let elapsed = started.elapsed();
    drop(silent);
    assert_eq!(out.outcome.total, 200);
    assert_eq!((out.joins, out.outcome.deaths), (0, 0), "(joins, deaths)");
    assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
}
