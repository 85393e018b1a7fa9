//! Chaos suite: the fault-injection layer ([`anthill::faults`]) exercised
//! end-to-end against the engine's recovery machinery (DESIGN.md §7).
//!
//! Three families of checks:
//!
//! 1. **Conservation** — under arbitrary drop / transient-failure / death
//!    schedules, every task still finishes exactly once, on both the
//!    virtual-time simulator and the threaded native runtime, for all
//!    three scheduling policies. (`run_nbia` additionally self-checks its
//!    completion accounting with internal assertions.)
//! 2. **Parity** — a fault layer that is *configured but inert* (recovery
//!    armed, all probabilities zero, no deaths) must leave the trace
//!    byte-identical to a run with no fault layer at all.
//! 3. **Recovery pays off** — the headline scenario from the issue: 20%
//!    message drop plus a mid-run GPU worker death completes the whole
//!    workload, emits `WorkerDied`/`TaskReassigned`, and DDWRR's
//!    health-aware weighting beats DDFCFS on the identical fault schedule.
//! 4. **Real process death** — the TCP backend's coordinator loses a
//!    spawned worker *process* to a mid-run kill; the OS-closed socket
//!    maps onto the same engine recovery path, the survivor absorbs the
//!    orphaned in-flight work, and the trace records the death.
//! 5. **Death under open-loop load** — the same process kill lands in the
//!    middle of a shed-policy load run; admission must keep conserving
//!    with no double-counted completions and a bounded intake.
//! 6. **Heartbeat silence** — a peer that handshakes and then goes mute
//!    (socket open, no EOF) is retired by `NetConfig::heartbeat_timeout`
//!    alone, on the batch and on the open-loop entry point of the one
//!    wall-clock event loop.
//! 7. **Rolling restart** — the elastic-membership acceptance scenario
//!    (DESIGN.md §12): every initial worker of a live TCP run is retired
//!    exactly once through a graceful drain while a replacement joins
//!    mid-run via the `Join`/`JoinAck` handshake. Zero task loss, zero
//!    deaths, the `worker_joined`/`worker_draining`/`worker_left` trio in
//!    the trace, and the DDWRR assignment share measurably shifting
//!    toward the joiners within one request window of the join. A
//!    deterministic companion replays a join/drain script on the
//!    three-filter pipeline and checks the per-edge tallies conserve.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use common::{
    assert_jsonl_round_trip, at_millis, cpu_workers, graph_loopback_workers, loopback_workers,
    neutral_buffer, oracle, pick_policy, pipeline3, policies, task,
};

use anthill_repro::core::buffer::DataBuffer;
use anthill_repro::core::faults::{
    ConnectionDropSpec, FaultConfig, FaultProb, RecoveryConfig, WorkerDeathSpec,
};
use anthill_repro::core::local::{
    Emitter, ExecMode, LocalDeathSpec, LocalFaults, LocalFilter, LocalTask, Pipeline, WorkerSpec,
};
use anthill_repro::core::membership::{MemberAction, MembershipSchedule, ScheduledAction};
use anthill_repro::core::net::{
    run_concurrent, run_concurrent_elastic, run_graph_deterministic, spawn_joining_worker_thread,
    Behavior, DrainAt, NetConfig, NetWorkerConn,
};
use anthill_repro::core::obs::{jsonl, EventKind, Recorder, TraceEvent};
use anthill_repro::core::policy::Policy;
use anthill_repro::core::sim::{run_nbia, SimConfig, SimReport, WorkloadSpec};
use anthill_repro::estimator::fnv1a64;
use anthill_repro::hetsim::{ClusterSpec, DeviceId, DeviceKind};
use anthill_repro::simkit::{SimDuration, SimTime};

/// A small DES workload; `tiles` stays low because every proptest case is
/// a full simulation run.
fn workload(tiles: u64) -> WorkloadSpec {
    WorkloadSpec {
        tiles,
        ..WorkloadSpec::paper_base(0.2)
    }
}

fn faulty_sim(policy: Policy, faults: FaultConfig) -> SimConfig {
    let mut cfg = SimConfig::new(ClusterSpec::homogeneous(2), policy);
    cfg.faults = faults;
    cfg
}

proptest! {
    /// Random message-layer chaos (drops, delays) plus transient task
    /// failures: the run drains, and completion accounting matches the
    /// workload exactly — at-least-once dispatch, exactly-once completion.
    /// A delay reaches up to 2 s, past the 500 ms request timeout, so late
    /// replies race the retries they provoked.
    #[test]
    fn des_conserves_tasks_under_random_message_faults(
        seed in 0u64..1 << 48,
        drop in 0.0f64..0.30,
        fail in 0.0f64..0.20,
        delay in 0.0f64..0.30,
        delay_ms in 0u64..2_000,
        policy_i in 0usize..3,
        tiles in 24u64..64,
    ) {
        let faults = FaultConfig {
            drop: FaultProb::uniform(drop),
            delay: FaultProb::uniform(delay),
            delay_by: SimDuration::from_millis(delay_ms),
            task_fail: FaultProb::uniform(fail),
            recovery: RecoveryConfig::standard(),
            seed,
            ..FaultConfig::none()
        };
        let wl = workload(tiles);
        let report = run_nbia(&faulty_sim(pick_policy(policy_i), faults), &wl);
        prop_assert_eq!(report.total_tasks, wl.total_buffers());
    }

    /// Random worker deaths (any single worker, any time in the first
    /// simulated second) on top of a lossy network: the survivors absorb
    /// the dead worker's in-flight tasks and the run still completes.
    #[test]
    fn des_survives_random_worker_deaths(
        seed in 0u64..1 << 48,
        drop in 0.0f64..0.25,
        dead_node in 0usize..2,
        dead_worker in 0usize..2,
        at_us in 1u64..1_000_000,
        policy_i in 0usize..3,
        tiles in 24u64..64,
    ) {
        let faults = FaultConfig {
            drop: FaultProb::uniform(drop),
            deaths: vec![WorkerDeathSpec {
                node: dead_node,
                worker: dead_worker,
                at: SimTime(at_us * 1_000),
            }],
            recovery: RecoveryConfig::standard(),
            seed,
            ..FaultConfig::none()
        };
        let wl = workload(tiles);
        let report = run_nbia(&faulty_sim(pick_policy(policy_i), faults), &wl);
        prop_assert_eq!(report.total_tasks, wl.total_buffers());
    }

    /// The threaded native backend under random transient failures and a
    /// scheduled worker death: every payload comes out exactly once.
    #[test]
    fn native_conserves_tasks_under_random_faults(
        seed in 0u64..1 << 48,
        fail in 0.0f64..0.40,
        kill in prop::bool::ANY,
        after in 0u64..20,
        policy_i in 0usize..3,
        tasks in 40u64..120,
    ) {
        let deaths = if kill {
            vec![LocalDeathSpec {
                stage: 0,
                kind: DeviceKind::Cpu,
                index: 0,
                after,
            }]
        } else {
            Vec::new()
        };
        let faults = LocalFaults {
            seed,
            task_fail: fail,
            deaths,
        };
        let kind = pick_policy(policy_i).kind;
        let mut p = Pipeline::new(kind).with_faults(faults);
        p.add_stage(
            Arc::new(Tag),
            vec![
                WorkerSpec {
                    kind: DeviceKind::Cpu,
                    mode: ExecMode::Native,
                },
                WorkerSpec {
                    kind: DeviceKind::Cpu,
                    mode: ExecMode::Native,
                },
                WorkerSpec {
                    kind: DeviceKind::Gpu,
                    mode: ExecMode::Emulated { scale: 1e-5 },
                },
            ],
        );
        let sources = (0..tasks).map(task).collect();
        let (out, report) = p.run(sources, &oracle());
        prop_assert_eq!(out.len(), tasks as usize);
        prop_assert_eq!(report.total(), tasks);
        let mut values: Vec<u64> = out
            .into_iter()
            .map(|t| *t.payload.downcast::<u64>().unwrap())
            .collect();
        values.sort_unstable();
        prop_assert_eq!(
            values,
            (0..tasks).map(|i| i + 1_000).collect::<Vec<_>>(),
            "each task ran to completion exactly once"
        );
    }
}

/// Adds 1000 to the payload and forwards it — enough to prove the filter
/// body ran exactly once per task.
struct Tag;
impl LocalFilter for Tag {
    fn handle(&self, _d: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
        let v = *task.payload.downcast::<u64>().expect("u64 payload");
        out.forward(LocalTask::new(task.buffer, v + 1_000));
    }
}

/// An armed-but-inert fault layer is invisible: recovery enabled with
/// all-zero probabilities and no deaths produces a byte-identical JSONL
/// trace to a run with no fault layer at all, for every policy.
#[test]
fn inert_fault_layer_leaves_traces_byte_identical() {
    for policy in policies() {
        let wl = workload(48);
        let trace = |faults: FaultConfig| {
            let recorder = Recorder::enabled();
            let mut cfg = faulty_sim(policy, faults);
            cfg.recorder = recorder.clone();
            let report = run_nbia(&cfg, &wl);
            (jsonl::to_jsonl(&recorder.events()), report.makespan)
        };
        let (plain, plain_makespan) = trace(FaultConfig::none());
        let armed = FaultConfig {
            recovery: RecoveryConfig::standard(),
            ..FaultConfig::none()
        };
        let (inert, inert_makespan) = trace(armed);
        assert_eq!(plain_makespan, inert_makespan, "{policy:?}");
        assert_eq!(plain, inert, "{policy:?}: traces must be byte-identical");
    }
}

/// 20% uniform message drop and the GPU worker of node 0 dying 100 ms in,
/// seed 42, recovery armed.
fn drop_plus_gpu_death() -> FaultConfig {
    FaultConfig {
        drop: FaultProb::uniform(0.2),
        deaths: vec![WorkerDeathSpec {
            node: 0,
            worker: 1, // homogeneous nodes are (cpu, gpu): worker 1 is the GPU
            at: at_millis(100),
        }],
        recovery: RecoveryConfig::standard(),
        seed: 42,
        ..FaultConfig::none()
    }
}

/// The issue's acceptance scenario, pinned: 20% uniform message drop and
/// the GPU worker of node 0 dying 100 ms in. Both policies must complete
/// the full workload; the DDWRR run must surface the death and the
/// reassignments in its trace; and DDWRR's health-aware weighting must
/// beat DDFCFS on the *identical* fault schedule.
#[test]
fn ddwrr_beats_ddfcfs_under_drop_plus_gpu_death() {
    let wl = WorkloadSpec {
        tiles: 400,
        ..WorkloadSpec::paper_base(0.2)
    };
    let run = |policy: Policy| -> (SimReport, Vec<(String, u64)>) {
        let recorder = Recorder::enabled();
        let mut cfg = faulty_sim(policy, drop_plus_gpu_death());
        cfg.recorder = recorder.clone();
        let report = run_nbia(&cfg, &wl);
        let events = recorder.events();
        let mut counts = vec![
            ("worker_died".to_string(), 0),
            ("task_reassigned".to_string(), 0),
        ];
        for e in &events {
            match e.kind {
                EventKind::WorkerDied { .. } => counts[0].1 += 1,
                EventKind::TaskReassigned { .. } => counts[1].1 += 1,
                _ => {}
            }
        }
        // Whatever the policy: nothing lost, the death on record, and a
        // trace that survives its schema.
        assert_eq!(report.total_tasks, wl.total_buffers(), "{policy:?}");
        assert_eq!(counts[0].1, 1, "{policy:?}: one worker_died per death");
        assert_jsonl_round_trip(&events);
        (report, counts)
    };

    let (ddfcfs, _) = run(Policy::ddfcfs(8));
    let (ddwrr, counts) = run(Policy::ddwrr(30));
    run(Policy::odds());

    assert_eq!(ddfcfs.total_tasks, wl.total_buffers());
    assert_eq!(ddwrr.total_tasks, wl.total_buffers());
    assert_eq!(counts[0], ("worker_died".to_string(), 1));
    assert!(
        counts[1].1 > 0,
        "the dead GPU's in-flight batch must be reassigned, got {counts:?}"
    );
    assert!(
        ddwrr.makespan < ddfcfs.makespan,
        "DDWRR must beat DDFCFS under the identical fault schedule \
         (ddwrr {:?} vs ddfcfs {:?})",
        ddwrr.makespan,
        ddfcfs.makespan
    );
}

/// The same scenario as literals: the virtual makespan and the FNV-1a-64 of
/// the JSONL trace under each policy. Every drop, retry timer, reassignment
/// and health-decayed weight of the flat DES's fault path is in these
/// numbers; a change here is a change of fault handling or of scheduling.
#[test]
fn des_drop_plus_gpu_death_runs_are_pinned() {
    let wl = WorkloadSpec {
        tiles: 400,
        ..WorkloadSpec::paper_base(0.2)
    };
    let pin = |policy: Policy| {
        let mut cfg = faulty_sim(policy, drop_plus_gpu_death());
        cfg.recorder = Recorder::enabled();
        let report = run_nbia(&cfg, &wl);
        let trace = jsonl::to_jsonl(&cfg.recorder.events());
        (report.makespan.as_nanos(), fnv1a64(trace.as_bytes()))
    };
    assert_eq!(
        pin(Policy::ddfcfs(8)),
        (10_324_187_522, 0x6d33_6340_70ef_7c5a)
    );
    assert_eq!(
        pin(Policy::ddwrr(30)),
        (5_287_011_696, 0x3229_d3f5_2185_3791)
    );
    assert_eq!(pin(Policy::odds()), (40_952_925_846, 0xb284_3598_faf9_80b1));
}

/// Transient task failures on top of a lossy network, pinned as literals
/// under the three paper policies and the two learned ones. The run above
/// has no task failure, so no worker's health ever decays there, and the
/// learned policies are otherwise held only to cross-backend parity; this
/// one pins the recovery constants (backoff cap, health decay and
/// recovery) and the learner's (EWMA α, spans before the online cell
/// overrides, affinity bonus, bandit ε and boost). Mutating any of those
/// moves a pair below. Three things it does not see: the bandit's UCB
/// width 0.5 → 0.6 leaves every decision in place, a bigger or smaller
/// raw-span history changes nothing any run reads, and a request-window
/// cap of 64 instead of 256 is never reached here (a cap of 16 does move
/// `des_drop_plus_gpu_death_runs_are_pinned`).
#[test]
fn des_failure_and_learned_runs_are_pinned() {
    let wl = WorkloadSpec {
        tiles: 400,
        ..WorkloadSpec::paper_base(0.2)
    };
    let pin = |policy: Policy| {
        let faults = FaultConfig {
            drop: FaultProb::uniform(0.3),
            task_fail: FaultProb::uniform(0.1),
            recovery: RecoveryConfig::standard(),
            seed: 42,
            ..FaultConfig::none()
        };
        let mut cfg = faulty_sim(policy, faults);
        cfg.recorder = Recorder::enabled();
        let report = run_nbia(&cfg, &wl);
        let trace = jsonl::to_jsonl(&cfg.recorder.events());
        (report.makespan.as_nanos(), fnv1a64(trace.as_bytes()))
    };
    assert_eq!(
        pin(Policy::ddfcfs(8)),
        (27_595_371_109, 0x76f6_ee54_7bdd_96a6)
    );
    assert_eq!(
        pin(Policy::ddwrr(30)),
        (4_288_312_544, 0x7977_e625_7321_ddf4)
    );
    assert_eq!(pin(Policy::odds()), (93_121_956_188, 0x7c66_43cf_9662_6899));
    assert_eq!(
        pin(Policy::affinity(30)),
        (4_291_692_920, 0xfed9_494c_cb63_5c8c)
    );
    assert_eq!(
        pin(Policy::bandit(30)),
        (3_816_555_664, 0x9d00_7264_e655_5c36)
    );
}

/// The learned-policy chaos scenario (DESIGN.md §13): the same 20% drop
/// plus mid-run GPU death, under the contextual bandit. The learner must
/// not wedge the run: conservation holds, the online estimator stops
/// crediting the dead worker the moment it dies (its `profile_updated`
/// stream at that device ends at the death), the survivors keep feeding
/// the profile, and the policy keeps rendering decisions on the
/// health-decayed weights all the way to completion.
#[test]
fn bandit_estimator_stops_crediting_a_dead_gpu() {
    let wl = WorkloadSpec {
        tiles: 400,
        ..WorkloadSpec::paper_base(0.2)
    };
    let recorder = Recorder::enabled();
    let faults = FaultConfig {
        drop: FaultProb::uniform(0.2),
        deaths: vec![WorkerDeathSpec {
            node: 0,
            worker: 1, // homogeneous nodes are (cpu, gpu): worker 1 is the GPU
            at: at_millis(100),
        }],
        recovery: RecoveryConfig::standard(),
        seed: 42,
        ..FaultConfig::none()
    };
    let mut cfg = faulty_sim(Policy::bandit(30), faults);
    cfg.recorder = recorder.clone();
    let report = run_nbia(&cfg, &wl);
    assert_eq!(report.total_tasks, wl.total_buffers(), "conservation");

    let events = recorder.events();
    let death = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::WorkerDied { .. }))
        .expect("the scheduled GPU death must surface in the trace");
    let dead_dev = death.origin;
    assert_eq!(dead_dev.kind, Some(DeviceKind::Gpu), "worker 1 is the GPU");

    let updates_after = |dev_matches: &dyn Fn(&TraceEvent) -> bool| {
        events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ProfileUpdated { .. }))
            .filter(|e| e.ts_ns > death.ts_ns)
            .filter(|e| dev_matches(e))
            .count()
    };
    assert_eq!(
        updates_after(&|e| e.origin == dead_dev),
        0,
        "a dead worker must stop feeding the online profile"
    );
    assert!(
        updates_after(&|e| e.origin != dead_dev) > 0,
        "survivors must keep feeding the online profile after the death"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::PolicyDecision { .. }) && e.ts_ns > death.ts_ns),
        "the bandit must keep deciding on health-decayed weights after the death"
    );
}

/// A worker of the *middle* filter of a three-filter graph dies mid-run:
/// the survivor of that filter absorbs the re-enqueued task, every
/// payload still crosses all three filters exactly once, the per-edge
/// delivery counts conserve (a reassignment is a re-queue, not a second
/// edge delivery), and the trace pins both the death and the
/// reassignment to filter 1 — not to whichever filter the buffer came
/// from or was heading to.
#[test]
fn killed_mid_stage_worker_conserves_every_edge() {
    use anthill_repro::core::policy::PolicyKind;

    const TASKS: u64 = 120;
    let faults = LocalFaults {
        seed: 11,
        task_fail: 0.0,
        deaths: vec![LocalDeathSpec {
            stage: 1,
            kind: DeviceKind::Cpu,
            index: 0,
            after: 5,
        }],
    };
    let mut p = Pipeline::new(PolicyKind::DdWrr)
        .with_graph(pipeline3())
        .with_faults(faults);
    p.add_stage(Arc::new(Tag), cpu_workers(1));
    // The victim's filter: slot 0, the victim, runs natively (instant)
    // while its sibling busy-waits 1 ms per task (the 5 µs modeled cost at
    // scale 200). For the victim to miss its death trigger the sibling
    // would have to take 115 of the 120 tasks — 115 ms of spinning during
    // which a runnable, instant victim never pops six — so the victim
    // out-runs it by construction, on one core as on many.
    p.add_stage(
        Arc::new(Tag),
        vec![
            WorkerSpec {
                kind: DeviceKind::Cpu,
                mode: ExecMode::Native,
            },
            WorkerSpec {
                kind: DeviceKind::Cpu,
                mode: ExecMode::Emulated { scale: 200.0 },
            },
        ],
    );
    p.add_stage(Arc::new(Tag), cpu_workers(1));

    let recorder = Recorder::enabled();
    let sources = (0..TASKS).map(task).collect();
    let (out, report) = p.run_traced(sources, &oracle(), &recorder);

    assert_eq!(out.len() as u64, TASKS);
    assert_eq!(
        report.total(),
        3 * TASKS,
        "one completion per task per filter"
    );
    let mut values: Vec<u64> = out
        .into_iter()
        .map(|t| *t.payload.downcast::<u64>().unwrap())
        .collect();
    values.sort_unstable();
    assert_eq!(
        values,
        (0..TASKS).map(|i| i + 3_000).collect::<Vec<_>>(),
        "each task crossed all three filters exactly once"
    );
    // Per-edge conservation: the reassignment re-queues the popped buffer
    // inside filter 1, so neither edge sees an extra delivery.
    assert_eq!(report.edge_delivered[&0], TASKS, "stage0 -> stage1 edge");
    assert_eq!(report.edge_delivered[&1], TASKS, "stage1 -> stage2 edge");

    let events = recorder.events();
    let deaths: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WorkerDied { .. }))
        .collect();
    assert_eq!(deaths.len(), 1, "exactly one worker died");
    assert_eq!(deaths[0].origin.node, 1, "the death happened on filter 1");
    let reassigned: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TaskReassigned { .. }))
        .collect();
    assert_eq!(reassigned.len(), 1, "the dying slot held exactly one task");
    assert_eq!(
        reassigned[0].origin.node, 1,
        "the reassignment must be scoped to the victim's filter"
    );
    assert_eq!(
        reassigned[0].origin.kind, None,
        "reassignment is filter-scoped, not device-scoped"
    );
}

/// The same scenario on the TCP lockstep coordinator, where frame counts
/// are deterministic: the first of filter 1's two connections is severed
/// after its twelfth frame, the survivor absorbs what it held, every seed
/// still crosses all three filters once, neither edge sees an extra
/// delivery, and the death and every reassignment are scoped to filter 1.
#[test]
fn lockstep_sever_mid_stage_conserves_every_edge() {
    const SEEDS: u64 = 30;
    let cpu = [DeviceKind::Cpu];
    let workers = graph_loopback_workers(
        &[&cpu, &[DeviceKind::Cpu, DeviceKind::Cpu], &cpu],
        Behavior::Identity,
    );
    let recorder = Recorder::enabled();
    let mut cfg = NetConfig::new(Policy::ddwrr(4));
    cfg.recorder = recorder.clone();
    cfg.drops = vec![ConnectionDropSpec {
        node: 1,
        worker: 0,
        after_frames: 12,
    }];
    let seeds = (0..SEEDS).map(|i| (0, neutral_buffer(i))).collect();
    let out = run_graph_deterministic(
        cfg,
        &pipeline3(),
        workers,
        seeds,
        oracle(),
        &mut |_, _, _| None,
    )
    .expect("lockstep run");

    assert_eq!(out.total, 3 * SEEDS, "one completion per seed per filter");
    assert_eq!(out.outputs.len() as u64, SEEDS);
    assert_eq!(out.deaths, 1);
    assert_eq!(
        out.edge_delivered,
        [(0, SEEDS), (1, SEEDS)].into_iter().collect()
    );
    let events = recorder.events();
    let died: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WorkerDied { .. }))
        .collect();
    assert_eq!(died.len(), 1, "exactly one worker died");
    assert_eq!(died[0].origin.node, 1, "the death happened on filter 1");
    assert_eq!(died[0].kind, EventKind::WorkerDied { inflight: 1 });
    assert_eq!(
        died[0].ts_ns, 27,
        "the tick the twelfth frame was refused at"
    );
    let reassigned: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TaskReassigned { .. }))
        .collect();
    assert_eq!(
        reassigned.len(),
        1,
        "the severed slot held exactly one task"
    );
    assert!(reassigned
        .iter()
        .all(|e| e.origin.node == 1 && e.origin.kind.is_none()));
}

/// A lockstep run that cannot finish says so: filter 1's *only* connection
/// is severed, the engine re-homes its work to a reader nobody can ask
/// any more, and the coordinator reports the stranded buffers instead of
/// returning a short outcome (it used to: `Ok` with 31 of 60 done).
#[test]
fn lockstep_run_that_strands_buffers_is_an_error() {
    let cpu = [DeviceKind::Cpu];
    let graph = anthill_repro::core::graph::DataflowGraph::pipeline(&["head", "tail"]);
    let run = |cfg: NetConfig| {
        let workers = graph_loopback_workers(&[&cpu, &cpu], Behavior::Identity);
        let seeds = (0..30).map(|i| (0, neutral_buffer(i))).collect();
        run_graph_deterministic(cfg, &graph, workers, seeds, oracle(), &mut |_, _, _| None)
    };
    let mut cfg = NetConfig::new(Policy::ddwrr(4));
    cfg.drops = vec![ConnectionDropSpec {
        node: 1,
        worker: 0,
        after_frames: 12,
    }];
    let err = run(cfg).expect_err("29 buffers never reached filter 1");
    assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    assert_eq!(
        err.to_string(),
        "filter 1 lost its last worker with 29 buffers unread, 31 done"
    );

    // A deadline that has already passed fails every read, which loses
    // every worker: the same ending, reported as the timeout it is.
    let mut cfg = NetConfig::new(Policy::ddwrr(4));
    cfg.deadline = std::time::Duration::ZERO;
    let err = run(cfg).expect_err("nothing can run past the deadline");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    assert!(err
        .to_string()
        .starts_with("filter 0 lost its last worker with 30 buffers unread"));
}

/// The TCP backend against *real* process death: two `net_worker` child
/// processes serve a concurrent run over loopback, and one is killed
/// outright mid-run. The OS closing the victim's socket is the only
/// death signal; the coordinator must fold it into the engine's recovery
/// path — survivor absorbs the orphaned in-flight work, every task still
/// completes exactly once, and the trace records `worker_died` plus at
/// least one `task_reassigned`.
#[test]
fn killed_worker_process_is_absorbed_by_the_survivor() {
    const TASKS: u64 = 200;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener addr").to_string();
    let mut children = Vec::new();
    let mut workers = Vec::new();
    // Slot 0 executes instantly; slot 1 — the victim — spins 10 s per
    // task, far past the kill, so it is deterministically mid-task with
    // a delivered buffer in flight when the signal lands. (A timed kill
    // against equal workers races the delivery gap and flakes.)
    for (index, behavior) in [(0, "identity"), (1, "busy:10000000")] {
        let child = std::process::Command::new(env!("CARGO_BIN_EXE_net_worker"))
            .args([addr.as_str(), behavior])
            .stdin(std::process::Stdio::null())
            .spawn()
            .expect("spawn net_worker");
        children.push(child);
        let (stream, _) = listener.accept().expect("worker connect");
        workers.push(NetWorkerConn {
            device: DeviceId {
                node: 0,
                kind: DeviceKind::Cpu,
                index,
            },
            stream,
        });
    }
    let mut victim = children.remove(1);
    let mut survivor = children.remove(0);

    let recorder = Recorder::enabled();
    let mut cfg = NetConfig::new(Policy::ddwrr(8));
    cfg.recovery = RecoveryConfig::standard();
    cfg.recorder = recorder.clone();
    let sources: Vec<DataBuffer> = (0..TASKS).map(|id| task(id).buffer).collect();

    let killer = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(30));
        let _ = victim.kill();
        let _ = victim.wait();
    });
    let out = run_concurrent(cfg, workers, sources, oracle()).expect("net run");
    killer.join().expect("killer thread");
    assert!(
        survivor.wait().expect("reap survivor").success(),
        "the surviving worker must exit cleanly on Shutdown"
    );

    assert_eq!(out.total, TASKS, "every task completes despite the kill");
    assert_eq!(out.deaths, 1, "exactly one worker died");
    let events = recorder.events();
    let died = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WorkerDied { .. }))
        .count();
    let reassigned = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TaskReassigned { .. }))
        .count();
    assert_eq!(died, 1, "the trace must record the process death");
    assert!(
        reassigned >= 1,
        "the victim's in-flight work must be reassigned, got {reassigned}"
    );
    // The merged trace (including the survivors' re-stamped worker spans)
    // still round-trips the JSONL schema after a chaotic run.
    assert_jsonl_round_trip(&events);
}

/// A worker process dies in the middle of an *open-loop* load run under
/// the shed-oldest policy: the intake must stay bounded through the
/// recovery, and admission must conserve with every completion counted
/// exactly once (reassigned tasks included).
#[test]
fn killed_worker_mid_load_run_conserves_with_a_bounded_intake() {
    use anthill_repro::core::engine::{AdmissionConfig, OverloadPolicy};
    use anthill_repro::core::net::run_concurrent_load;
    use common::ArrivalProfile;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener addr").to_string();
    let mut children = Vec::new();
    let mut workers = Vec::new();
    // Slot 0 busy-waits 300 µs per task (slow enough that 10k arrivals/s
    // saturate it and the shed policy engages); slot 1 — the victim —
    // spins 10 s per task so it is deterministically mid-task when the
    // kill lands.
    for (index, behavior) in [(0, "busy:300"), (1, "busy:10000000")] {
        let child = std::process::Command::new(env!("CARGO_BIN_EXE_net_worker"))
            .args([addr.as_str(), behavior])
            .stdin(std::process::Stdio::null())
            .spawn()
            .expect("spawn net_worker");
        children.push(child);
        let (stream, _) = listener.accept().expect("worker connect");
        workers.push(NetWorkerConn {
            device: DeviceId {
                node: 0,
                kind: DeviceKind::Cpu,
                index,
            },
            stream,
        });
    }
    let mut victim = children.remove(1);
    let mut survivor = children.remove(0);

    let recorder = Recorder::enabled();
    let mut cfg = NetConfig::new(Policy::ddfcfs(4));
    cfg.recovery = RecoveryConfig::standard();
    cfg.recorder = recorder.clone();
    let arrivals = ArrivalProfile::Poisson { rate_hz: 10_000.0 }.schedule(21, 1_200);
    let admission = AdmissionConfig {
        inflight_cap: 4,
        queue_cap: 8,
        policy: OverloadPolicy::ShedOldest,
    };

    let killer = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(30));
        let _ = victim.kill();
        let _ = victim.wait();
    });
    let mut ids: Vec<u64> = Vec::new();
    let report = run_concurrent_load(
        cfg,
        admission,
        workers,
        &arrivals,
        &mut |i, _| task(i).buffer,
        std::time::Duration::from_millis(1),
        oracle(),
        &mut |t| ids.push(t.buffer),
    )
    .expect("net load run survives the kill");
    killer.join().expect("killer thread");
    assert!(
        survivor.wait().expect("reap survivor").success(),
        "the surviving worker must exit cleanly on Shutdown"
    );

    assert_eq!(report.outcome.deaths, 1, "exactly one worker died");
    assert!(
        report.admission.conserved(),
        "admission must conserve through the death: {:?}",
        report.admission
    );
    assert_eq!(report.admission.generated, 1_200);
    assert!(
        report.admission.shed > 0,
        "the saturating schedule must shed: {:?}",
        report.admission
    );
    assert_eq!(
        report.completed, report.admission.admitted,
        "every admitted task (reassigned ones included) completes"
    );
    assert_eq!(ids.len() as u64, report.completed);
    let before = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), before, "no completion may be double-counted");
    assert!(
        report.queue_depth.iter().all(|s| s.intake <= 8),
        "intake must stay bounded through the recovery"
    );

    // The merged trace still round-trips, and the death is recorded.
    let events = recorder.events();
    let died = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WorkerDied { .. }))
        .count();
    assert_eq!(died, 1, "the trace must record the process death");
    assert_jsonl_round_trip(&events);
}

/// A peer that completes the `Hello` handshake and then goes mute: it keeps
/// the socket open and keeps reading, but never echoes a request, never
/// heartbeats, never completes anything — so no EOF and no failed write
/// ever reaches the coordinator, and only heartbeat silence can retire its
/// slot. The thread returns once the coordinator severs the connection.
fn spawn_silent_peer(mut stream: std::net::TcpStream) -> std::thread::JoinHandle<()> {
    use anthill_repro::core::net::{encode_frame, Frame, FrameDecoder};
    use std::io::{Read, Write};
    std::thread::spawn(move || {
        let mut dec = FrameDecoder::new();
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => dec.feed(&chunk[..n]),
            }
            while let Ok(Some(frame)) = dec.next_frame() {
                if matches!(frame, Frame::Hello { .. }) {
                    stream.write_all(&encode_frame(&frame)).expect("echo Hello");
                }
            }
        }
    })
}

/// Slot 0 a real loopback worker running `survivor`, slot 1 a
/// [`spawn_silent_peer`]; the config arms recovery as the death tests
/// above do and a 500 ms heartbeat timeout — above the worker loop's
/// 200 ms idle-heartbeat period, so the healthy slot is never suspected.
fn silent_peer_rig(
    survivor: Behavior,
    recorder: &Recorder,
) -> (NetConfig, Vec<NetWorkerConn>, std::thread::JoinHandle<()>) {
    use anthill_repro::core::net::tcp_pair;
    let mut workers = loopback_workers(&[DeviceKind::Cpu], survivor);
    let (coordinator, peer_side) = tcp_pair().expect("loopback socket pair");
    let peer = spawn_silent_peer(peer_side);
    workers.push(NetWorkerConn {
        device: DeviceId {
            node: 0,
            kind: DeviceKind::Cpu,
            index: 1,
        },
        stream: coordinator,
    });
    let mut cfg = NetConfig::new(Policy::ddfcfs(4));
    cfg.recovery = RecoveryConfig::standard();
    cfg.recorder = recorder.clone();
    cfg.heartbeat_timeout = Some(std::time::Duration::from_millis(500));
    cfg.deadline = std::time::Duration::from_secs(30);
    (cfg, workers, peer)
}

/// The trace of a silent-peer run: exactly one `worker_died`, on the
/// silent slot, and every worker span re-stamped onto the survivor.
fn assert_only_the_silent_slot_died(events: &[TraceEvent], tasks: u64) {
    let died: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WorkerDied { .. }))
        .collect();
    assert_eq!(died.len(), 1, "exactly one worker_died event");
    assert_eq!(
        died[0].origin.index, 1,
        "the silent slot is the one that died"
    );
    let finishes: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RemoteFinish { .. }))
        .collect();
    assert_eq!(finishes.len() as u64, tasks);
    assert!(
        finishes.iter().all(|e| e.origin.index == 0),
        "every task must complete on the survivor"
    );
}

/// Heartbeat silence is a death signal of its own: a peer that handshakes
/// and then says nothing — socket open, no EOF, no write error — must be
/// declared dead once `heartbeat_timeout` passes, through the same
/// `worker_died` recovery path as a sever, while the healthy slot carries
/// the whole batch. The survivor spins 5 ms per task so the 150-task run
/// outlasts the 500 ms timeout: silence is only observable while the loop
/// is still turning.
#[test]
fn silent_worker_is_declared_dead_by_heartbeat_timeout() {
    const TASKS: u64 = 150;
    let recorder = Recorder::enabled();
    let (cfg, workers, peer) = silent_peer_rig(Behavior::Busy { micros: 5_000 }, &recorder);
    let sources: Vec<DataBuffer> = (0..TASKS).map(|id| task(id).buffer).collect();

    let started = std::time::Instant::now();
    let out = run_concurrent(cfg, workers, sources, oracle()).expect("net run");
    let elapsed = started.elapsed();
    peer.join().expect("silent peer thread");

    assert_eq!(out.deaths, 1, "silence must retire exactly the mute slot");
    assert_eq!(out.total, TASKS);
    let mut ids: Vec<u64> = out.dispatch_order.iter().map(|&(_, id)| id).collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..TASKS).collect::<Vec<_>>(),
        "each task exactly once"
    );
    assert_only_the_silent_slot_died(&recorder.events(), TASKS);
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "the run must finish well inside its 30 s deadline, took {elapsed:?}"
    );
}

/// The same silent peer under open-loop load: 200 arrivals 5 ms apart keep
/// the loop turning for a second, so the silence is noticed mid-schedule
/// by the one event loop `run_concurrent_load` shares with
/// `run_concurrent`; admission conserves and every arrival completes
/// exactly once on the survivor.
#[test]
fn silent_worker_is_declared_dead_mid_load_run() {
    use anthill_repro::core::engine::AdmissionConfig;
    use anthill_repro::core::net::run_concurrent_load;

    const TASKS: u64 = 200;
    let recorder = Recorder::enabled();
    let (cfg, workers, peer) = silent_peer_rig(Behavior::Identity, &recorder);
    let arrivals: Vec<u64> = (0..TASKS).map(|i| i * 5_000_000).collect();

    let mut ids: Vec<u64> = Vec::new();
    let started = std::time::Instant::now();
    let report = run_concurrent_load(
        cfg,
        AdmissionConfig::default(),
        workers,
        &arrivals,
        &mut |i, _| task(i).buffer,
        std::time::Duration::from_millis(1),
        oracle(),
        &mut |t| ids.push(t.buffer),
    )
    .expect("net load run");
    let elapsed = started.elapsed();
    peer.join().expect("silent peer thread");

    assert_eq!(
        report.outcome.deaths, 1,
        "silence must retire the mute slot"
    );
    assert!(report.admission.conserved(), "{:?}", report.admission);
    assert_eq!(report.admission.admitted, TASKS);
    assert_eq!(report.completed, TASKS);
    assert_eq!(report.outcome.total, TASKS);
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..TASKS).collect::<Vec<_>>(),
        "each task exactly once"
    );
    assert_only_the_silent_slot_died(&recorder.events(), TASKS);
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "the run must finish well inside its 30 s deadline, took {elapsed:?}"
    );
}

/// The rolling-restart acceptance scenario: a live concurrent TCP run
/// starts with two CPU workers; two replacement workers join mid-run via
/// the dynamic `Join`/`JoinAck` handshake, and the drain schedule then
/// retires each *initial* worker exactly once. No task may be lost, a
/// graceful leave is not a death, the trace must carry one
/// `worker_joined` per joiner and a `worker_draining`/`worker_left` pair
/// per retiree, no drained slot may be dispatched to after its drain
/// begins, and DDWRR must shift assignment share toward a joiner within
/// one request window of its join.
#[test]
fn rolling_restart_drains_and_rejoins_every_worker_with_zero_loss() {
    use anthill_repro::core::obs::DeviceRef;

    const TASKS: u64 = 400;
    /// DDWRR's static per-worker request window for this run.
    const WINDOW: usize = 8;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener addr").to_string();
    // The initial pool: two in-process CPU workers on ordinary
    // pre-connected sockets (slots 0 and 1).
    let workers = loopback_workers(&[DeviceKind::Cpu, DeviceKind::Cpu], Behavior::Identity);
    // The replacements connect immediately; the coordinator's acceptor
    // admits them from the listener backlog once the run is live, so both
    // joins land within the first few scheduler iterations.
    let joiners: Vec<_> = (0..2)
        .map(|_| spawn_joining_worker_thread(addr.clone(), 0, DeviceKind::Cpu, Behavior::Identity))
        .collect();
    // Retire each initial worker exactly once, staggered so the pool
    // rolls: [0,1] -> [0,1,2,3] -> [1,2,3] -> [2,3].
    let drains = vec![
        DrainAt {
            after_completions: 120,
            slot: 0,
        },
        DrainAt {
            after_completions: 240,
            slot: 1,
        },
    ];

    let recorder = Recorder::enabled();
    let mut cfg = NetConfig::new(Policy::ddwrr(WINDOW));
    cfg.recovery = RecoveryConfig::standard();
    cfg.recorder = recorder.clone();
    let sources: Vec<DataBuffer> = (0..TASKS).map(|id| task(id).buffer).collect();

    let out = run_concurrent_elastic(cfg, listener, drains, workers, sources, oracle())
        .expect("elastic net run");
    for j in joiners {
        let served = j
            .join()
            .expect("joiner thread")
            .expect("joiner exits cleanly on Shutdown");
        assert!(
            served > 0,
            "every joiner must have served at least one task"
        );
    }

    assert_eq!(
        out.outcome.total, TASKS,
        "zero task loss across the restart"
    );
    assert_eq!(out.outcome.deaths, 0, "graceful leaves are not deaths");
    assert_eq!(out.joins, 2, "both replacements were admitted");
    assert_eq!(out.drains, 2, "both initial workers were released");

    let events = recorder.events();
    let joined: Vec<DeviceRef> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WorkerJoined { .. }))
        .map(|e| e.origin)
        .collect();
    assert_eq!(joined.len(), 2, "one worker_joined per admitted joiner");
    // Dynamic slots continue the io-slot numbering after the initial pool.
    assert_eq!(joined[0].node, 0);
    assert!(joined.iter().all(|o| o.index >= 2));
    let draining: Vec<DeviceRef> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WorkerDraining { .. }))
        .map(|e| e.origin)
        .collect();
    let left = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WorkerLeft))
        .count();
    assert_eq!(
        draining,
        vec![
            DeviceRef {
                node: 0,
                kind: Some(DeviceKind::Cpu),
                index: 0
            },
            DeviceRef {
                node: 0,
                kind: Some(DeviceKind::Cpu),
                index: 1
            },
        ],
        "each initial worker drains exactly once, in schedule order"
    );
    assert_eq!(left, 2, "each drained worker must be gracefully released");

    // A drained slot receives zero dispatches after its drain begins.
    for (i, e) in events.iter().enumerate() {
        if !matches!(e.kind, EventKind::WorkerDraining { .. }) {
            continue;
        }
        let later = events[i + 1..]
            .iter()
            .filter(|l| l.origin == e.origin && matches!(l.kind, EventKind::Dispatch { .. }))
            .count();
        assert_eq!(later, 0, "slot {} dispatched to after draining", e.origin);
    }

    // The join must shift DDWRR's assignment share toward the new worker
    // within one request window: among the first WINDOW * pool dispatches
    // after the first worker_joined event, the joiner appears.
    let join_pos = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::WorkerJoined { .. }))
        .expect("worker_joined in trace");
    let joiner = events[join_pos].origin;
    let horizon = WINDOW * 4; // one full window turn of the grown pool
    let dispatches: Vec<DeviceRef> = events[join_pos..]
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Dispatch { .. }))
        .map(|e| e.origin)
        .take(horizon)
        .collect();
    assert!(
        dispatches.contains(&joiner),
        "the joiner must win dispatches within one request window of \
         joining; first {horizon} post-join dispatches: {dispatches:?}"
    );
    // And the shift is a real share, not a one-off: the joiners together
    // absorb a measurable fraction of all post-join completions.
    let joiner_done = events[join_pos..]
        .iter()
        .filter(|e| e.origin.index >= 2 && matches!(e.kind, EventKind::Finish { .. }))
        .count() as u64;
    assert!(
        joiner_done >= TASKS / 10,
        "joiners must absorb a measurable share of the remaining work, got {joiner_done}"
    );
}

/// A sever, a drain and a join in one live TCP run: 2 000 tasks on three
/// CPU workers, slot 1's connection severed after its 40th frame, slot 0
/// drained at 500 completions, and one replacement admitted mid-run from
/// the listener. Every buffer completes exactly once; the run counts one
/// death, one drain and one join, and its trace carries exactly one of
/// each membership event; the drained slot is never dispatched to after
/// its `worker_draining`.
#[test]
fn elastic_sever_drain_join_conserves() {
    const TASKS: u64 = 2_000;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener addr").to_string();
    let behavior = Behavior::Busy { micros: 20 };
    let workers = loopback_workers(&[DeviceKind::Cpu; 3], behavior);
    let joiner = spawn_joining_worker_thread(addr, 0, DeviceKind::Cpu, behavior);
    let recorder = Recorder::enabled();
    let mut cfg = NetConfig::new(Policy::ddwrr(8));
    cfg.recovery = RecoveryConfig::standard();
    cfg.recorder = recorder.clone();
    cfg.drops = vec![ConnectionDropSpec {
        node: 0,
        worker: 1,
        after_frames: 40,
    }];
    let drains = vec![DrainAt {
        after_completions: 500,
        slot: 0,
    }];
    let sources: Vec<DataBuffer> = (0..TASKS).map(|id| task(id).buffer).collect();

    let out = run_concurrent_elastic(cfg, listener, drains, workers, sources, oracle())
        .expect("elastic net run");
    joiner
        .join()
        .expect("joiner thread")
        .expect("joiner exits cleanly on Shutdown");

    assert_eq!(out.outcome.total, TASKS);
    let mut ids: Vec<u64> = out
        .outcome
        .dispatch_order
        .iter()
        .map(|&(_, id)| id)
        .collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..TASKS).collect::<Vec<_>>(),
        "each task exactly once"
    );
    assert_eq!(
        (out.outcome.deaths, out.drains, out.joins),
        (1, 1, 1),
        "(deaths, drains, joins)"
    );

    let events = recorder.events();
    let count = |pred: fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();
    assert_eq!(count(|k| matches!(k, EventKind::WorkerDied { .. })), 1);
    assert_eq!(count(|k| matches!(k, EventKind::WorkerDraining { .. })), 1);
    assert_eq!(count(|k| matches!(k, EventKind::WorkerLeft)), 1);
    assert_eq!(count(|k| matches!(k, EventKind::WorkerJoined { .. })), 1);
    let drain_pos = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::WorkerDraining { .. }))
        .expect("worker_draining in trace");
    let drained = events[drain_pos].origin;
    assert_eq!(drained.index, 0, "slot 0 is the one drained");
    assert!(
        !events[drain_pos + 1..]
            .iter()
            .any(|e| e.origin == drained && matches!(e.kind, EventKind::Dispatch { .. })),
        "slot 0 dispatched to after draining"
    );
}

/// Deterministic companion to the rolling restart: the same join/drain
/// choreography replayed as a completion-keyed script on the
/// three-filter pipeline (native deterministic executor). Stage 1 gains
/// a joiner and then drains one original slot; every payload still
/// crosses all three filters exactly once and the per-edge tallies
/// conserve — membership churn may not leak or duplicate a single edge
/// delivery.
#[test]
fn elastic_pipeline3_restart_conserves_every_edge_tally() {
    use anthill_repro::core::policy::PolicyKind;

    const TASKS: u64 = 120;
    let schedule = MembershipSchedule::new(vec![
        ScheduledAction {
            after_completions: 40,
            action: MemberAction::Join {
                node: 1,
                kind: DeviceKind::Cpu,
            },
        },
        ScheduledAction {
            after_completions: 50,
            action: MemberAction::Join {
                node: 2,
                kind: DeviceKind::Cpu,
            },
        },
        ScheduledAction {
            after_completions: 90,
            action: MemberAction::Drain { node: 1, worker: 0 },
        },
        ScheduledAction {
            after_completions: 120,
            action: MemberAction::Drain { node: 2, worker: 0 },
        },
    ]);
    let mut p = Pipeline::new(PolicyKind::DdWrr).with_graph(pipeline3());
    p.add_stage(Arc::new(Tag), cpu_workers(1));
    p.add_stage(Arc::new(Tag), cpu_workers(2));
    p.add_stage(Arc::new(Tag), cpu_workers(2));

    let sources = (0..TASKS).map(task).collect();
    let (out, report) = p.run_deterministic(sources, &oracle(), schedule);

    assert_eq!(out.len() as u64, TASKS);
    assert_eq!(
        report.total(),
        3 * TASKS,
        "one completion per task per filter"
    );
    let mut values: Vec<u64> = out
        .into_iter()
        .map(|t| *t.payload.downcast::<u64>().unwrap())
        .collect();
    values.sort_unstable();
    assert_eq!(
        values,
        (0..TASKS).map(|i| i + 3_000).collect::<Vec<_>>(),
        "each task crossed all three filters exactly once"
    );
    assert_eq!(report.edge_delivered[&0], TASKS, "stage0 -> stage1 edge");
    assert_eq!(report.edge_delivered[&1], TASKS, "stage1 -> stage2 edge");
}
