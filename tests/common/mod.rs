//! Scaffolding shared by the integration-test suites
//! (`tests/{chaos,policy_parity,dispatch_exactness,…}.rs`): device-neutral
//! task shapes, conventional policy windows, worker-spec builders, and
//! loopback plumbing for the TCP backend. Each test binary compiles its
//! own copy and uses a subset, hence the blanket `dead_code` allow.
#![allow(dead_code)]

use anthill_repro::core::buffer::{BufferId, DataBuffer};
use anthill_repro::core::graph::DataflowGraph;
use anthill_repro::core::local::{Emitter, ExecMode, LocalFilter, LocalTask, WorkerSpec};
use anthill_repro::core::net::{spawn_worker_thread, tcp_pair, Behavior, NetWorkerConn};
use anthill_repro::core::obs::{jsonl, EventKind, TraceEvent};
use anthill_repro::core::policy::Policy;
use anthill_repro::core::weights::OracleWeights;
use anthill_repro::estimator::TaskParams;
use anthill_repro::hetsim::{DeviceId, DeviceKind, GpuParams, TaskShape};
use anthill_repro::simkit::{SimDuration, SimTime};

/// A shape costing exactly the same on both device classes, with nothing
/// on the wire — removes all cost asymmetry so assignment counts are
/// purely the engine's doing.
pub fn neutral_shape() -> TaskShape {
    TaskShape {
        cpu: SimDuration::from_micros(400),
        gpu_kernel: SimDuration::from_micros(400),
        bytes_in: 0,
        bytes_out: 0,
    }
}

/// GPU parameters with all fixed per-task overheads zeroed, so a sync GPU
/// task takes exactly `gpu_kernel`.
pub fn neutral_gpu() -> GpuParams {
    GpuParams {
        kernel_launch: SimDuration::ZERO,
        sync_copy_call: SimDuration::ZERO,
        ..GpuParams::geforce_8800gt()
    }
}

/// The paper GPU with synchronous transfers — the weights most tests use.
pub fn oracle() -> OracleWeights {
    OracleWeights::new(GpuParams::geforce_8800gt(), false)
}

/// Weights matching [`neutral_gpu`], for runs built on [`neutral_shape`].
pub fn neutral_oracle() -> OracleWeights {
    OracleWeights::new(neutral_gpu(), false)
}

/// The three policies at the repo's conventional window sizes
/// (`crates/bench/src/experiments/cluster.rs`).
pub fn policies() -> [Policy; 3] {
    [Policy::ddfcfs(8), Policy::ddwrr(30), Policy::odds()]
}

pub fn pick_policy(i: usize) -> Policy {
    policies()[i % 3]
}

/// A tiny task whose payload is its own id — the chaos suite's unit of
/// conservation accounting.
pub fn task(id: u64) -> LocalTask {
    let buffer = DataBuffer {
        id: BufferId(id),
        params: TaskParams::nums(&[id as f64]),
        shape: TaskShape {
            cpu: SimDuration::from_micros(5),
            gpu_kernel: SimDuration::from_micros(5),
            bytes_in: 64,
            bytes_out: 8,
        },
        level: 0,
        task: id,
    };
    LocalTask::new(buffer, id)
}

/// Mixed tile sizes so DDWRR/ODDS weights have real spread.
pub fn mk_task(id: u64) -> LocalTask {
    let side = [16u64, 64, 256, 1024][(id % 4) as usize];
    LocalTask::new(
        DataBuffer {
            id: BufferId(id),
            params: TaskParams::nums(&[id as f64]),
            shape: TaskShape {
                cpu: SimDuration::from_micros(side),
                gpu_kernel: SimDuration::from_micros(side / 8 + 1),
                bytes_in: side * side,
                bytes_out: side,
            },
            level: 0,
            task: id,
        },
        id,
    )
}

/// The degenerate one-filter graph — the shape every pre-graph test ran,
/// named like the implicit graph the native runtime builds.
pub fn single_filter_graph() -> DataflowGraph {
    DataflowGraph::single("stage0")
}

/// A three-filter linear pipeline with round-robin streams, the smallest
/// topology where mid-graph edges exist.
pub fn pipeline3() -> DataflowGraph {
    DataflowGraph::pipeline(&["stage0", "stage1", "stage2"])
}

/// The fan-out/fan-in diamond: split round-robins over two identical
/// branches that merge again.
pub fn diamond() -> DataflowGraph {
    DataflowGraph::diamond("split", "left", "right", "merge")
}

/// A device-neutral buffer ([`neutral_shape`]) whose payload is its own
/// id — the graph parity suites' unit of accounting.
pub fn neutral_buffer(id: u64) -> DataBuffer {
    DataBuffer {
        id: BufferId(id),
        params: TaskParams::nums(&[id as f64]),
        shape: neutral_shape(),
        level: 0,
        task: id,
    }
}

/// One CPU plus one GPU native worker slot — the per-filter replica set
/// of the cross-backend graph parity runs.
pub fn cpu_gpu_workers() -> Vec<WorkerSpec> {
    vec![
        WorkerSpec {
            kind: DeviceKind::Cpu,
            mode: ExecMode::Native,
        },
        WorkerSpec {
            kind: DeviceKind::Gpu,
            mode: ExecMode::Native,
        },
    ]
}

pub fn cpu_workers(n: usize) -> Vec<WorkerSpec> {
    vec![
        WorkerSpec {
            kind: DeviceKind::Cpu,
            mode: ExecMode::Native,
        };
        n
    ]
}

pub fn mixed_workers() -> Vec<WorkerSpec> {
    let mut w = cpu_workers(3);
    w.push(WorkerSpec {
        kind: DeviceKind::Gpu,
        mode: ExecMode::Native,
    });
    w
}

/// One in-process loopback worker thread per requested device kind, all
/// on node 0, returning the coordinator-side connections for
/// `anthill::net`'s drivers.
pub fn loopback_workers(kinds: &[DeviceKind], behavior: Behavior) -> Vec<NetWorkerConn> {
    kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let (coordinator, worker_side) = tcp_pair().expect("loopback socket pair");
            spawn_worker_thread(worker_side, behavior);
            NetWorkerConn {
                device: DeviceId {
                    node: 0,
                    kind,
                    index: i,
                },
                stream: coordinator,
            }
        })
        .collect()
}

/// [`loopback_workers`] generalized to a whole graph: one in-process
/// loopback worker thread per `(filter, device kind)` pair, with
/// `DeviceId::node` carrying the filter id — the worker pool shape
/// `anthill::net::run_graph_deterministic` expects.
pub fn graph_loopback_workers(
    filters: &[&[DeviceKind]],
    behavior: Behavior,
) -> Vec<Vec<NetWorkerConn>> {
    filters
        .iter()
        .enumerate()
        .map(|(f, kinds)| {
            kinds
                .iter()
                .enumerate()
                .map(|(i, &kind)| {
                    let (coordinator, worker_side) = tcp_pair().expect("loopback socket pair");
                    spawn_worker_thread(worker_side, behavior);
                    NetWorkerConn {
                        device: DeviceId {
                            node: f,
                            kind,
                            index: i,
                        },
                        stream: coordinator,
                    }
                })
                .collect()
        })
        .collect()
}

/// Keep `SimTime` in the shared surface so suites that schedule deaths
/// don't each re-import it under a different alias.
pub fn at_millis(ms: u64) -> SimTime {
    SimTime(ms * 1_000_000)
}

/// Forwards every task untouched — the stage body for open-loop load
/// runs, where measured latency should be queueing plus runtime overhead
/// (plus the emulated busy-wait when the workers are
/// [`emulated_cpu_workers`]).
pub struct Forward;
impl LocalFilter for Forward {
    fn handle(&self, _d: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
        out.forward(task);
    }
}

/// `n` CPU slots that busy-wait each task's modeled cost at scale 1 — a
/// calibrated, shape-controlled service time for saturation tests.
pub fn emulated_cpu_workers(n: usize) -> Vec<WorkerSpec> {
    vec![
        WorkerSpec {
            kind: DeviceKind::Cpu,
            mode: ExecMode::Emulated { scale: 1.0 },
        };
        n
    ]
}

/// A constant-cost buffer for load schedules: `micros` of modeled work on
/// either device class, the arrival index recoverable through `task`.
pub fn load_buffer(id: u64, micros: u64) -> DataBuffer {
    DataBuffer {
        id: BufferId(id),
        params: TaskParams::nums(&[1.0]),
        shape: TaskShape {
            cpu: SimDuration::from_micros(micros),
            gpu_kernel: SimDuration::from_micros(micros),
            bytes_in: 0,
            bytes_out: 0,
        },
        level: 0,
        task: id,
    }
}

/// Count trace events matching `pred`.
pub fn count_events(events: &[TraceEvent], pred: fn(&EventKind) -> bool) -> u64 {
    events.iter().filter(|e| pred(&e.kind)).count() as u64
}

/// The trace survives the JSONL schema: `parse_jsonl(to_jsonl(ev)) == ev`.
pub fn assert_jsonl_round_trip(events: &[TraceEvent]) {
    let parsed = jsonl::parse_jsonl(&jsonl::to_jsonl(events)).expect("schema-valid trace");
    assert_eq!(parsed, events, "trace round-trip mismatch");
}
