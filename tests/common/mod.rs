//! Scaffolding shared by the integration-test suites
//! (`tests/{chaos,policy_parity,dispatch_exactness,…}.rs`): device-neutral
//! task shapes, conventional policy windows, worker-spec builders,
//! loopback plumbing for the TCP backend, and open-loop arrival schedules
//! with their virtual-time admission replay. Each test binary compiles its
//! own copy and uses a subset, hence the blanket `dead_code` allow.
#![allow(dead_code)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

use anthill_repro::core::buffer::{BufferId, DataBuffer};
use anthill_repro::core::engine::{
    AdmissionConfig, AdmissionCounters, AdmissionDecision, OpenLoop,
};
use anthill_repro::core::graph::DataflowGraph;
use anthill_repro::core::local::{Emitter, ExecMode, LocalFilter, LocalTask, WorkerSpec};
use anthill_repro::core::net::{spawn_worker_thread, tcp_pair, Behavior, NetWorkerConn};
use anthill_repro::core::obs::{jsonl, EventKind, Recorder, TraceEvent};
use anthill_repro::core::policy::Policy;
use anthill_repro::core::weights::OracleWeights;
use anthill_repro::estimator::TaskParams;
use anthill_repro::hetsim::{DeviceId, DeviceKind, GpuParams, TaskShape};
use anthill_repro::simkit::{SimDuration, SimRng, SimTime};

/// A shape costing exactly the same on both device classes, with nothing
/// on the wire — removes all cost asymmetry so assignment counts are
/// purely the engine's doing.
pub(crate) fn neutral_shape() -> TaskShape {
    TaskShape {
        cpu: SimDuration::from_micros(400),
        gpu_kernel: SimDuration::from_micros(400),
        bytes_in: 0,
        bytes_out: 0,
    }
}

/// GPU parameters with all fixed per-task overheads zeroed, so a sync GPU
/// task takes exactly `gpu_kernel`.
pub(crate) fn neutral_gpu() -> GpuParams {
    GpuParams {
        kernel_launch: SimDuration::ZERO,
        sync_copy_call: SimDuration::ZERO,
        ..GpuParams::geforce_8800gt()
    }
}

/// The paper GPU with synchronous transfers — the weights most tests use.
pub(crate) fn oracle() -> OracleWeights {
    OracleWeights::new(GpuParams::geforce_8800gt(), false)
}

/// Weights matching [`neutral_gpu`], for runs built on [`neutral_shape`].
pub(crate) fn neutral_oracle() -> OracleWeights {
    OracleWeights::new(neutral_gpu(), false)
}

/// The three policies at the repo's conventional window sizes
/// (`crates/bench/src/experiments/cluster.rs`).
pub(crate) fn policies() -> [Policy; 3] {
    [Policy::ddfcfs(8), Policy::ddwrr(30), Policy::odds()]
}

pub(crate) fn pick_policy(i: usize) -> Policy {
    policies()[i % 3]
}

/// A tiny task whose payload is its own id — the chaos suite's unit of
/// conservation accounting.
pub(crate) fn task(id: u64) -> LocalTask {
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
pub(crate) fn mk_task(id: u64) -> LocalTask {
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
pub(crate) fn single_filter_graph() -> DataflowGraph {
    DataflowGraph::single("stage0")
}

/// A three-filter linear pipeline with round-robin streams, the smallest
/// topology where mid-graph edges exist.
pub(crate) fn pipeline3() -> DataflowGraph {
    DataflowGraph::pipeline(&["stage0", "stage1", "stage2"])
}

/// The fan-out/fan-in diamond: split round-robins over two identical
/// branches that merge again.
pub(crate) fn diamond() -> DataflowGraph {
    DataflowGraph::diamond("split", "left", "right", "merge")
}

/// A device-neutral buffer ([`neutral_shape`]) whose payload is its own
/// id — the graph parity suites' unit of accounting.
pub(crate) fn neutral_buffer(id: u64) -> DataBuffer {
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
pub(crate) fn cpu_gpu_workers() -> Vec<WorkerSpec> {
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

pub(crate) fn cpu_workers(n: usize) -> Vec<WorkerSpec> {
    vec![
        WorkerSpec {
            kind: DeviceKind::Cpu,
            mode: ExecMode::Native,
        };
        n
    ]
}

pub(crate) fn mixed_workers() -> Vec<WorkerSpec> {
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
pub(crate) fn loopback_workers(kinds: &[DeviceKind], behavior: Behavior) -> Vec<NetWorkerConn> {
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
pub(crate) fn graph_loopback_workers(
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
pub(crate) fn at_millis(ms: u64) -> SimTime {
    SimTime(ms * 1_000_000)
}

/// Forwards every task untouched — the stage body for open-loop load
/// runs, where measured latency should be queueing plus runtime overhead
/// (plus the emulated busy-wait when the workers are
/// [`emulated_cpu_workers`]).
pub(crate) struct Forward;
impl LocalFilter for Forward {
    fn handle(&self, _d: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
        out.forward(task);
    }
}

/// `n` CPU slots that busy-wait each task's modeled cost at scale 1 — a
/// calibrated, shape-controlled service time for saturation tests.
pub(crate) fn emulated_cpu_workers(n: usize) -> Vec<WorkerSpec> {
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
pub(crate) fn load_buffer(id: u64, micros: u64) -> DataBuffer {
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
pub(crate) fn count_events(events: &[TraceEvent], pred: fn(&EventKind) -> bool) -> u64 {
    events.iter().filter(|e| pred(&e.kind)).count() as u64
}

/// The trace survives the JSONL schema: `parse_jsonl(to_jsonl(ev)) == ev`.
pub(crate) fn assert_jsonl_round_trip(events: &[TraceEvent]) {
    let parsed = jsonl::parse_jsonl(&jsonl::to_jsonl(events)).expect("schema-valid trace");
    assert_eq!(parsed, events, "trace round-trip mismatch");
}

// ------------------------------------------------ open-loop arrivals

/// A seed-deterministic open-loop arrival process. `schedule` renders it
/// to absolute nanosecond offsets from the run start; identical
/// `(profile, seed, n)` triples produce byte-identical schedules on every
/// backend and platform (integer accumulation, no wall clock).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ArrivalProfile {
    /// Memoryless arrivals at a constant mean rate (exponential gaps).
    Poisson {
        /// Mean arrival rate in tasks per second.
        rate_hz: f64,
    },
    /// On/off arrivals: Poisson at `rate_hz` during each burst window,
    /// silence during each idle window.
    Bursty {
        /// Arrival rate inside a burst, tasks per second.
        rate_hz: f64,
        /// Burst window length in milliseconds.
        burst_ms: u64,
        /// Idle window length in milliseconds.
        idle_ms: u64,
    },
    /// A diurnal-shaped ramp: the instantaneous rate sweeps sinusoidally
    /// between `trough_hz` and `peak_hz` over each period, sampled by
    /// thinning a peak-rate Poisson stream.
    Diurnal {
        /// Rate at the top of the ramp, tasks per second.
        peak_hz: f64,
        /// Rate at the bottom of the ramp, tasks per second.
        trough_hz: f64,
        /// Full ramp period in milliseconds.
        period_ms: u64,
    },
}

impl ArrivalProfile {
    /// Stable profile name (the schedule's RNG fork label).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            ArrivalProfile::Poisson { .. } => "poisson",
            ArrivalProfile::Bursty { .. } => "bursty",
            ArrivalProfile::Diurnal { .. } => "diurnal",
        }
    }

    /// Render the first `n` arrivals as ascending nanosecond offsets.
    /// Deterministic: the stream is drawn from `SimRng::new(seed)` forked
    /// on the profile name, and every offset is accumulated in integer
    /// nanoseconds.
    pub(crate) fn schedule(&self, seed: u64, n: usize) -> Vec<u64> {
        let mut rng = SimRng::new(seed).fork(self.name());
        let mut out = Vec::with_capacity(n);
        match *self {
            ArrivalProfile::Poisson { rate_hz } => {
                let mean_gap = 1e9 / rate_hz.max(1e-9);
                let mut t = 0u64;
                for _ in 0..n {
                    t += rng.exponential(mean_gap).max(0.0) as u64;
                    out.push(t);
                }
            }
            ArrivalProfile::Bursty {
                rate_hz,
                burst_ms,
                idle_ms,
            } => {
                let mean_gap = 1e9 / rate_hz.max(1e-9);
                let burst_ns = burst_ms.max(1) * 1_000_000;
                let period_ns = burst_ns + idle_ms * 1_000_000;
                let mut t = 0u64;
                for _ in 0..n {
                    t += rng.exponential(mean_gap).max(0.0) as u64;
                    // A gap landing in the idle window slides to the next
                    // burst start; the burst-local offset is preserved so
                    // gaps stay exponential inside each burst.
                    let phase = t % period_ns;
                    if phase >= burst_ns {
                        t += period_ns - phase;
                    }
                    out.push(t);
                }
            }
            ArrivalProfile::Diurnal {
                peak_hz,
                trough_hz,
                period_ms,
            } => {
                let peak = peak_hz.max(1e-9);
                let trough = trough_hz.clamp(0.0, peak);
                let period_ns = (period_ms.max(1) * 1_000_000) as f64;
                let mean_gap = 1e9 / peak;
                let mut t = 0u64;
                while out.len() < n {
                    t += rng.exponential(mean_gap).max(0.0) as u64;
                    // Thinning: accept in proportion to the instantaneous
                    // rate, which ramps trough -> peak -> trough each
                    // period (phase-shifted sine starting at the trough).
                    let phase = (t as f64 % period_ns) / period_ns;
                    let frac = (1.0 - (std::f64::consts::TAU * phase).cos()) / 2.0;
                    let rate = trough + (peak - trough) * frac;
                    if rng.chance(rate / peak) {
                        out.push(t);
                    }
                }
            }
        }
        out
    }
}

/// Outcome of [`run_des_load`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DesLoadOutcome {
    /// Admission counters at quiescence.
    pub(crate) counters: AdmissionCounters,
    /// The controller's `(buffer id, decision)` log, in decision order.
    pub(crate) decisions: Vec<(u64, AdmissionDecision)>,
    /// Tasks that ran to completion.
    pub(crate) completed: u64,
}

/// Replay an arrival schedule through the open-loop intake under
/// *virtual* time: admitted tasks occupy one of the `inflight_cap` slots
/// for exactly `service_ns`, and each completion releases its slot before
/// the intake runs, exactly as the live drivers do; a `Block` stall holds
/// back the rest of the schedule (open-loop generator back-pressure). No
/// threads, no clocks — two calls with the same inputs produce identical
/// decision logs.
pub(crate) fn run_des_load(
    arrivals: &[u64],
    service_ns: u64,
    cfg: AdmissionConfig,
) -> DesLoadOutcome {
    let service_ns = service_ns.max(1);
    // The model samples nothing, so the cadence is moot.
    let mut open = OpenLoop::new(cfg, &Recorder::disabled(), arrivals, Duration::MAX);
    let mut running: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    loop {
        let next_completion = running.peek().map(|&Reverse(t)| t);
        let Some(now) = [open.next_arrival(), next_completion]
            .into_iter()
            .flatten()
            .min()
        else {
            break;
        };
        // Completions first at a tie: the live loops see the completion
        // frame before they inject the arrival due at the same instant.
        while running.peek().is_some_and(|&Reverse(t)| t <= now) {
            running.pop();
            open.completed();
        }
        open.intake(
            now,
            |i, _| i,
            |_, _| running.push(Reverse(now + service_ns)),
        );
    }
    let decisions = open.decisions().to_vec();
    let (counters, completed, _) = open.finish();
    DesLoadOutcome {
        counters,
        decisions,
        completed,
    }
}
