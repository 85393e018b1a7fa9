//! The simulated cluster executor: a thin DES driver of the shared
//! scheduling engine ([`crate::engine`]), run in virtual time over the
//! hardware models of `anthill-hetsim`.
//!
//! Topology (matching the paper's NBIA deployment, Section 6): every node
//! hosts one *reader* instance (the tiles are declustered round-robin over
//! the nodes' local disks) and one *worker* instance (the fused NBIA
//! filter) with one worker thread per CPU core and one manager thread per
//! GPU. The reader→worker stream is the n×m demand-driven channel the
//! three policies configure — but the policies themselves (queue ordering,
//! DBSA selection, DQAA windows, dispatch) live entirely in the engine;
//! this module only prices its decisions: requests and replies traverse
//! the modeled network, tasks occupy modeled devices, and completions are
//! fed back as engine callbacks.
//!
//! Recalculated tiles loop back to the owning reader through a small
//! control message, reproducing the Classifier→Start→Reader cycle of
//! Figure 1.

use std::collections::HashMap;

use anthill_estimator::{KnnEstimator, ProfileStore};
use anthill_hetsim::{
    ClusterSpec, DeviceId, DeviceKind, GpuEngines, GpuParams, NetParams, Network,
};
use anthill_simkit::{Scheduler, SimDuration, SimRng, SimTime, World};

use crate::buffer::DataBuffer;
use crate::engine::core::{Executor, Transport, WorkerRef};
use crate::engine::{Engine as SchedEngine, EngineConfig, VirtualClock};
use crate::faults::{FaultConfig, FaultInjector, MessageFate};
use crate::membership::{MemberAction, MembershipSchedule};
use crate::obs::{DeviceRef, EventKind, Recorder};
use crate::policy::learned::{LearnedConfig, LearnedWeights};
use crate::policy::Policy;
use crate::sim::report::SimReport;
use crate::sim::workload::WorkloadSpec;
use crate::transfer::{pipeline, AdaptiveStreams};
use crate::weights::{EstimatorWeights, OracleWeights, WeightProvider};

/// Bytes of a data-request control message.
const REQUEST_BYTES: u64 = 64;
/// Bytes of a recalculation notification message.
const RECALC_BYTES: u64 = 128;

/// Configuration of one simulated run.
#[derive(Clone)]
pub struct SimConfig {
    /// The cluster topology.
    pub cluster: ClusterSpec,
    /// The stream scheduling policy.
    pub policy: Policy,
    /// Use the asynchronous transfer pipeline (Algorithm 1) on GPUs.
    pub async_transfers: bool,
    /// Disable CPU worker threads (GPU-only configurations).
    pub gpu_only: bool,
    /// Weight buffers with the kNN estimator (vs the oracle cost model).
    pub use_estimator: bool,
    /// Lognormal sigma of the phase-one estimator benchmark noise. The
    /// default 0.08 matches the paper's measurement jitter; larger values
    /// model a stale or badly calibrated profile that online learning
    /// (AFFINITY/BANDIT) can correct at run time.
    pub estimator_noise: f64,
    /// Root RNG seed (estimator profile noise, learned-policy hashing).
    pub seed: u64,
    /// GPU timing parameters.
    pub gpu: GpuParams,
    /// Network timing parameters.
    pub net: NetParams,
    /// Upper bound on any worker's request window.
    pub max_request_window: usize,
    /// Buckets for utilization traces (0 disables trace collection).
    pub trace_buckets: usize,
    /// Per-node CPU speed factors (1.0 = the calibrated core; 0.5 = half
    /// speed). Nodes beyond the vector's length use 1.0. Models aged or
    /// contended machines — heterogeneity beyond GPU presence.
    pub cpu_speed: Vec<f64>,
    /// Observability sink ([`crate::obs`]); disabled by default. Recording
    /// never affects scheduling, so traces are a pure function of the
    /// configuration and seed.
    pub recorder: Recorder,
    /// Fault schedule + recovery knobs ([`crate::faults`]); none by
    /// default. An active message-drop or death schedule needs
    /// [`crate::faults::RecoveryConfig::enabled`], or lost demand is never
    /// re-pumped and the run cannot drain.
    pub faults: FaultConfig,
    /// Scheduled membership actions ([`crate::membership`]); empty by
    /// default. Joins and drains fire as the run's completion count
    /// crosses each action's threshold (so a threshold of 0 fires right
    /// after the first completion here — the DES applies membership only
    /// at completion events). The schedule must keep at least one
    /// assignable worker at all times or the run stalls.
    pub membership: MembershipSchedule,
}

impl SimConfig {
    /// Defaults matching the paper's testbed.
    pub fn new(cluster: ClusterSpec, policy: Policy) -> SimConfig {
        SimConfig {
            cluster,
            policy,
            async_transfers: true,
            gpu_only: false,
            use_estimator: true,
            estimator_noise: 0.08,
            seed: 0x5EED,
            gpu: GpuParams::geforce_8800gt(),
            net: NetParams::gigabit_ethernet(),
            max_request_window: 256,
            trace_buckets: 0,
            cpu_speed: Vec::new(),
            recorder: Recorder::disabled(),
            faults: FaultConfig::none(),
            membership: MembershipSchedule::none(),
        }
    }
}

enum Ev {
    /// A data request arriving at a reader.
    Request {
        reader: usize,
        wnode: usize,
        thread: usize,
        proctype: DeviceKind,
        req_id: u64,
    },
    /// A data (or empty) reply arriving at a worker.
    Data {
        wnode: usize,
        thread: usize,
        req_id: u64,
        buffer: Option<DataBuffer>,
    },
    /// A recalculation buffer materializing at its owning reader.
    Recalc { reader: usize, buffer: DataBuffer },
    /// A task finished on a device. `idle_after` marks one-at-a-time
    /// execution (CPU / sync GPU) where completion frees the thread.
    TaskDone {
        node: usize,
        thread: usize,
        buffer: DataBuffer,
        proc_time: SimDuration,
        idle_after: bool,
    },
    /// An asynchronous GPU batch completed (frees the GPU manager thread).
    RoundDone {
        node: usize,
        thread: usize,
        started: SimTime,
        k: usize,
    },
    /// A per-request retry timer fired (no-op if the reply already
    /// settled; timers are never cancelled).
    Timeout {
        node: usize,
        thread: usize,
        req_id: u64,
    },
    /// A scheduled permanent worker death ([`FaultConfig::deaths`]).
    WorkerDeath { node: usize, thread: usize },
}

/// Per-worker execution state owned by the driver: the engine schedules,
/// this executes.
struct WorkerExec {
    /// GPU engines + Algorithm 1 stream controller for GPU slots.
    gpu: Option<(GpuEngines, AdaptiveStreams)>,
    /// Slot killed by a [`FaultConfig::deaths`] entry: completion events
    /// still in the DES queue are dropped on arrival.
    dead: bool,
    /// Buffers currently executing on the slot — the in-flight set handed
    /// to [`SchedEngine::worker_died`] for reassignment at death time.
    running: Vec<DataBuffer>,
}

impl WorkerExec {
    fn new(gpu: Option<(GpuEngines, AdaptiveStreams)>) -> WorkerExec {
        WorkerExec {
            gpu,
            dead: false,
            running: Vec::new(),
        }
    }
}

/// The cost side of the simulation: everything the engine's decisions are
/// priced with.
struct DriverState {
    async_transfers: bool,
    /// Per-node CPU slowdown-adjusted service multiplier (1.0 default).
    cpu_inv_speed: Vec<f64>,
    net: Network,
    /// `[node][worker]` execution state, parallel to the engine topology.
    exec: Vec<Vec<WorkerExec>>,
    rec: Recorder,
    /// Deterministic fault decisions, consulted at every message hop and
    /// task completion.
    injector: FaultInjector,
}

/// One-event adapter binding the driver state and the DES scheduler into
/// the engine's [`Transport`] + [`Executor`] view.
struct SimDriver<'a> {
    now: SimTime,
    drv: &'a mut DriverState,
    sched: &'a mut Scheduler<Ev>,
}

impl Transport for SimDriver<'_> {
    fn send_request(&mut self, from: WorkerRef, reader: usize, req_id: u64) {
        let extra = match self.drv.injector.message_fate(from.node, from.worker) {
            MessageFate::Drop => {
                // Lost on the wire before reaching the network model. The
                // request's retry timer recovers the demand slot.
                return;
            }
            MessageFate::Delay(dly) => dly,
            MessageFate::Deliver => SimDuration::ZERO,
        };
        let arrival = self
            .drv
            .net
            .send(self.now, from.node, reader, REQUEST_BYTES)
            + extra;
        self.sched.at(
            arrival,
            Ev::Request {
                reader,
                wnode: from.node,
                thread: from.worker,
                proctype: from.device.kind,
                req_id,
            },
        );
    }

    fn schedule_timeout(&mut self, worker: WorkerRef, req_id: u64, fire_at: SimTime) {
        self.sched.at(
            fire_at,
            Ev::Timeout {
                node: worker.node,
                thread: worker.worker,
                req_id,
            },
        );
    }
}

impl Executor for SimDriver<'_> {
    fn batch_limit(&mut self, worker: WorkerRef) -> usize {
        match worker.device.kind {
            DeviceKind::Cpu => 1,
            DeviceKind::Gpu => {
                if self.drv.async_transfers {
                    let (_, ctl) = self.drv.exec[worker.node][worker.worker]
                        .gpu
                        .as_ref()
                        .expect("GPU slot has a controller");
                    ctl.concurrent_events().max(1)
                } else {
                    1
                }
            }
        }
    }

    fn launch(&mut self, worker: WorkerRef, batch: Vec<DataBuffer>) {
        let now = self.now;
        // Remember what is executing: a death mid-run hands these copies
        // back to the engine for reassignment.
        self.drv.exec[worker.node][worker.worker]
            .running
            .extend(batch.iter().cloned());
        match worker.device.kind {
            DeviceKind::Cpu => {
                let inv = self
                    .drv
                    .cpu_inv_speed
                    .get(worker.node)
                    .copied()
                    .unwrap_or(1.0);
                for buffer in batch {
                    let dt = buffer.shape.cpu.mul_f64(inv);
                    self.sched.at(
                        now + dt,
                        Ev::TaskDone {
                            node: worker.node,
                            thread: worker.worker,
                            buffer,
                            proc_time: dt,
                            idle_after: true,
                        },
                    );
                }
            }
            DeviceKind::Gpu => {
                let (gpu, _) = self.drv.exec[worker.node][worker.worker]
                    .gpu
                    .as_mut()
                    .expect("GPU slot has engines");
                if !self.drv.async_transfers {
                    for buffer in batch {
                        let (_, fin) = gpu.run_sync(
                            now,
                            buffer.shape.bytes_in,
                            buffer.shape.gpu_kernel,
                            buffer.shape.bytes_out,
                        );
                        let dt = fin.since(now);
                        self.sched.at(
                            fin,
                            Ev::TaskDone {
                                node: worker.node,
                                thread: worker.worker,
                                buffer,
                                proc_time: dt,
                                idle_after: true,
                            },
                        );
                    }
                    return;
                }
                // Algorithm 1's loop body: one overlapped batch.
                let shapes: Vec<_> = batch.iter().map(|b| b.shape).collect();
                let dev = DeviceRef::device(worker.device);
                let (completions, end) =
                    pipeline::execute_batch_traced(gpu, now, &shapes, &self.drv.rec, dev);
                let k = batch.len();
                let round = end.since(now);
                let per_task = round / k as u64;
                for (buffer, &fin) in batch.into_iter().zip(&completions) {
                    self.sched.at(
                        fin,
                        Ev::TaskDone {
                            node: worker.node,
                            thread: worker.worker,
                            buffer,
                            proc_time: per_task,
                            idle_after: false,
                        },
                    );
                }
                self.sched.at(
                    end,
                    Ev::RoundDone {
                        node: worker.node,
                        thread: worker.worker,
                        started: now,
                        k,
                    },
                );
            }
        }
    }
}

struct NbiaWorld {
    engine: SchedEngine<VirtualClock, Box<dyn WeightProvider>>,
    clock: VirtualClock,
    drv: DriverState,
    workload: WorkloadSpec,
    /// Completion-keyed join/drain schedule, drained as the run advances.
    membership: MembershipSchedule,
    /// GPU timing parameters, kept for slots created by mid-run joins.
    gpu: GpuParams,
    finals_done: u64,
    finish: SimTime,
}

impl NbiaWorld {
    /// Apply every membership action due at the current completion count.
    /// A join grows the execution table *before* telling the engine (the
    /// join pump may dispatch to the new slot immediately); a drain goes
    /// through the engine, which stops assignment and releases the slot
    /// once its in-flight work settles.
    fn apply_membership(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        while let Some(action) = self.membership.pop_due(self.engine.total_done()) {
            match action {
                MemberAction::Join { node, kind } => {
                    let index = self
                        .engine
                        .worker_refs()
                        .into_iter()
                        .filter(|w| w.node == node && w.device.kind == kind)
                        .count();
                    let device = DeviceId { node, kind, index };
                    match kind {
                        DeviceKind::Cpu => {
                            self.drv.exec[node].push(WorkerExec::new(None));
                            let mut d = SimDriver {
                                now,
                                drv: &mut self.drv,
                                sched,
                            };
                            self.engine.join_worker(node, device, &mut d);
                        }
                        DeviceKind::Gpu => {
                            let ctl = AdaptiveStreams::new(
                                self.gpu
                                    .max_concurrent_events(self.workload.high_shape().footprint()),
                            );
                            let streams = ctl.concurrent_events();
                            self.drv.exec[node].push(WorkerExec::new(Some((
                                GpuEngines::new(self.gpu.clone()),
                                ctl,
                            ))));
                            let mut d = SimDriver {
                                now,
                                drv: &mut self.drv,
                                sched,
                            };
                            let wi = self.engine.join_worker(node, device, &mut d);
                            // The join pump ran with a zero reserve; DQAA
                            // folds the stream reserve in from the next
                            // window recomputation on.
                            self.engine.set_batch_reserve(node, wi, streams);
                        }
                    }
                }
                MemberAction::Drain { node, worker } => self.engine.drain_worker(node, worker),
            }
        }
    }
}

impl World for NbiaWorld {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        self.clock.set(now);
        match ev {
            Ev::Request {
                reader,
                wnode,
                thread,
                proctype,
                req_id,
            } => {
                let buffer = self.engine.answer_request(reader, proctype);
                let extra = match self.drv.injector.message_fate(wnode, thread) {
                    MessageFate::Drop => {
                        // A lost reply must not lose its payload: the
                        // popped buffer re-enters the reader's queue (at
                        // recirculation precedence — it was in flight).
                        // The requester's slot is recovered by its timer.
                        if let Some(buffer) = buffer {
                            let mut d = SimDriver {
                                now,
                                drv: &mut self.drv,
                                sched,
                            };
                            self.engine.recirculate(reader, buffer, &mut d);
                        }
                        return;
                    }
                    MessageFate::Delay(dly) => dly,
                    MessageFate::Deliver => SimDuration::ZERO,
                };
                let bytes = buffer
                    .as_ref()
                    .map(DataBuffer::wire_bytes)
                    .unwrap_or(REQUEST_BYTES);
                let arrival = self.drv.net.send(now, reader, wnode, bytes) + extra;
                sched.at(
                    arrival,
                    Ev::Data {
                        wnode,
                        thread,
                        req_id,
                        buffer,
                    },
                );
            }
            Ev::Data {
                wnode,
                thread,
                req_id,
                buffer,
            } => {
                let mut d = SimDriver {
                    now,
                    drv: &mut self.drv,
                    sched,
                };
                self.engine
                    .data_arrived(wnode, thread, req_id, buffer, &mut d);
            }
            Ev::Recalc { reader, buffer } => {
                let mut d = SimDriver {
                    now,
                    drv: &mut self.drv,
                    sched,
                };
                self.engine.recirculate(reader, buffer, &mut d);
            }
            Ev::TaskDone {
                node,
                thread,
                buffer,
                proc_time,
                idle_after,
            } => {
                let slot = &mut self.drv.exec[node][thread];
                if slot.dead {
                    // The slot died while this ran; `worker_died` already
                    // reclaimed the buffer from the in-flight set.
                    return;
                }
                slot.running.retain(|b| b.id != buffer.id);
                if self.drv.injector.task_fails(node, thread) {
                    // The device time was spent but the result is garbage:
                    // re-enqueue the buffer, decay the slot's health.
                    let mut d = SimDriver {
                        now,
                        drv: &mut self.drv,
                        sched,
                    };
                    self.engine.task_failed(node, thread, buffer, &mut d);
                    if idle_after {
                        self.engine.worker_idle(node, thread, &[proc_time], &mut d);
                    }
                    return;
                }
                self.engine.task_finished(node, thread, &buffer, proc_time);
                self.apply_membership(now, sched);
                if buffer.level == 0 && self.workload.is_recalc(buffer.task) {
                    // Classifier rejected the low-resolution result: loop
                    // the tile back to its owning reader at the next
                    // resolution.
                    let owner = (buffer.task % self.engine.node_count() as u64) as usize;
                    let arrival = self.drv.net.send(now, node, owner, RECALC_BYTES);
                    let high = self.workload.high_buffer(buffer.task);
                    sched.at(
                        arrival,
                        Ev::Recalc {
                            reader: owner,
                            buffer: high,
                        },
                    );
                } else {
                    self.finals_done += 1;
                    if now > self.finish {
                        self.finish = now;
                    }
                }
                if idle_after {
                    let mut d = SimDriver {
                        now,
                        drv: &mut self.drv,
                        sched,
                    };
                    self.engine.worker_idle(node, thread, &[proc_time], &mut d);
                }
            }
            Ev::RoundDone {
                node,
                thread,
                started,
                k,
            } => {
                if self.drv.exec[node][thread].dead {
                    return;
                }
                let round = now.since(started);
                let streams = {
                    let (_, ctl) = self.drv.exec[node][thread]
                        .gpu
                        .as_mut()
                        .expect("GPU slot has a controller");
                    let secs = round.as_secs_f64();
                    if secs > 0.0 {
                        ctl.observe_throughput(k as f64 / secs);
                    }
                    ctl.concurrent_events()
                };
                self.drv.rec.record(
                    now.as_nanos(),
                    DeviceRef::device(self.engine.worker_device(node, thread)),
                    EventKind::Streams {
                        count: streams as u32,
                    },
                );
                self.engine.set_batch_reserve(node, thread, streams);
                let per_task = round / k.max(1) as u64;
                let processed = vec![per_task; k];
                let mut d = SimDriver {
                    now,
                    drv: &mut self.drv,
                    sched,
                };
                self.engine.worker_idle(node, thread, &processed, &mut d);
            }
            Ev::Timeout {
                node,
                thread,
                req_id,
            } => {
                let mut d = SimDriver {
                    now,
                    drv: &mut self.drv,
                    sched,
                };
                self.engine.request_timed_out(node, thread, req_id, &mut d);
            }
            Ev::WorkerDeath { node, thread } => {
                let slot = &mut self.drv.exec[node][thread];
                if slot.dead {
                    return;
                }
                slot.dead = true;
                let inflight = std::mem::take(&mut slot.running);
                let mut d = SimDriver {
                    now,
                    drv: &mut self.drv,
                    sched,
                };
                self.engine.worker_died(node, thread, inflight, &mut d);
            }
        }
    }
}

/// Fit the estimator behind [`SimConfig::use_estimator`]: phase-one
/// benchmark of 30 jobs across the workload's tile-size range with
/// measurement noise, then a kNN fit with the paper's `k = 2`.
pub fn nbia_estimator(cfg: &SimConfig, workload: &WorkloadSpec) -> KnnEstimator {
    let oracle = OracleWeights::new(cfg.gpu.clone(), cfg.async_transfers);
    let mut rng = SimRng::new(cfg.seed).fork("estimator-profile");
    let mut profile = ProfileStore::new("nbia");
    let sides: Vec<u32> = {
        // Geometric sweep low..high plus the two exact workload sizes.
        let mut s = vec![workload.low_side, workload.high_side];
        let mut side = workload.low_side;
        while side < workload.high_side {
            s.push(side);
            side *= 2;
        }
        s
    };
    let mut count = 0;
    while count < 30 {
        for &side in &sides {
            if count >= 30 {
                break;
            }
            let buf = if side >= workload.high_side {
                workload.high_buffer(0)
            } else {
                // Shape for the probed side.
                DataBuffer {
                    shape: workload.cost.tile(side),
                    params: anthill_estimator::TaskParams::nums(&[f64::from(side)]),
                    ..workload.low_buffer(0)
                }
            };
            let cpu = oracle.predict_time(&buf, DeviceKind::Cpu)
                * rng.lognormal_noise(cfg.estimator_noise);
            let gpu = oracle.predict_time(&buf, DeviceKind::Gpu)
                * rng.lognormal_noise(cfg.estimator_noise);
            profile.add_cpu_gpu(buf.params.clone(), cpu, gpu);
            count += 1;
        }
    }
    KnnEstimator::fit_default(profile)
}

/// Run the NBIA workload on the configured cluster; returns measurements.
pub fn run_nbia(cfg: &SimConfig, workload: &WorkloadSpec) -> SimReport {
    let base: Box<dyn WeightProvider> = if cfg.use_estimator {
        Box::new(EstimatorWeights::new(nbia_estimator(cfg, workload)))
    } else {
        Box::new(OracleWeights::new(cfg.gpu.clone(), cfg.async_transfers))
    };
    run_nbia_with(cfg, workload, base)
}

/// [`run_nbia`] weighing buffers with `base` in place of the provider
/// [`SimConfig::use_estimator`] selects (a learned policy still wraps it).
pub fn run_nbia_with(
    cfg: &SimConfig,
    workload: &WorkloadSpec,
    base: Box<dyn WeightProvider>,
) -> SimReport {
    let weights: Box<dyn WeightProvider> = if cfg.policy.kind.learned() {
        Box::new(LearnedWeights::new(
            cfg.policy.kind,
            base,
            LearnedConfig::standard(cfg.seed),
        ))
    } else {
        base
    };

    let clock = VirtualClock::new();
    let mut engine = SchedEngine::new(
        EngineConfig {
            policy: cfg.policy,
            max_window: cfg.max_request_window,
            recovery: cfg.faults.recovery,
        },
        clock.clone(),
        weights,
        cfg.recorder.clone(),
    );

    let n_nodes = cfg.cluster.len();
    let mut exec: Vec<Vec<WorkerExec>> = Vec::with_capacity(n_nodes);
    for (ni, spec) in cfg.cluster.nodes.iter().enumerate() {
        let node = engine.add_node();
        debug_assert_eq!(node, ni);
        let mut slots = Vec::new();
        if !cfg.gpu_only {
            for c in 0..spec.cpu_cores {
                engine.add_worker(
                    node,
                    DeviceId {
                        node: ni,
                        kind: DeviceKind::Cpu,
                        index: c,
                    },
                );
                slots.push(WorkerExec::new(None));
            }
        }
        for g in 0..spec.gpus {
            let wi = engine.add_worker(
                node,
                DeviceId {
                    node: ni,
                    kind: DeviceKind::Gpu,
                    index: g,
                },
            );
            let ctl = AdaptiveStreams::new(
                cfg.gpu
                    .max_concurrent_events(workload.high_shape().footprint()),
            );
            engine.set_batch_reserve(node, wi, ctl.concurrent_events());
            slots.push(WorkerExec::new(Some((
                GpuEngines::new(cfg.gpu.clone()),
                ctl,
            ))));
        }
        exec.push(slots);
    }
    assert!(engine.worker_count() > 0, "no worker devices configured");

    // Decluster the tiles round-robin over the readers. Initial tiles sit
    // in the low-priority FIFO band; recirculated buffers preempt them.
    for tile in 0..workload.tiles {
        let owner = (tile % n_nodes as u64) as usize;
        engine.seed_reader(owner, workload.low_buffer(tile));
    }

    let workers = engine.worker_refs();
    let slot_counts: Vec<usize> = exec.iter().map(Vec::len).collect();
    let cpu_inv_speed: Vec<f64> = cfg
        .cpu_speed
        .iter()
        .map(|&f| if f > 0.0 { 1.0 / f } else { 1.0 })
        .collect();
    let world = NbiaWorld {
        engine,
        clock,
        drv: DriverState {
            async_transfers: cfg.async_transfers,
            cpu_inv_speed,
            net: Network::new(n_nodes, cfg.net.clone()),
            exec,
            rec: cfg.recorder.clone(),
            injector: FaultInjector::new(&cfg.faults),
        },
        workload: workload.clone(),
        membership: cfg.membership.clone(),
        gpu: cfg.gpu.clone(),
        finals_done: 0,
        finish: SimTime::ZERO,
    };

    let mut des = anthill_simkit::Engine::new(world);
    // Kick every worker thread's requester at t = 0 via empty data events
    // with an unknown request id (the engine treats them as pure kicks).
    for w in &workers {
        des.schedule(
            SimTime::ZERO,
            Ev::Data {
                wnode: w.node,
                thread: w.worker,
                req_id: u64::MAX,
                buffer: None,
            },
        );
    }
    for death in &cfg.faults.deaths {
        assert!(
            death.node < n_nodes && death.worker < slot_counts[death.node],
            "death spec ({}, {}) outside the cluster topology",
            death.node,
            death.worker
        );
        des.schedule(
            death.at,
            Ev::WorkerDeath {
                node: death.node,
                thread: death.worker,
            },
        );
    }
    let outcome = des.run_bounded(SimTime::MAX, 2_000_000_000);
    assert_eq!(
        outcome,
        anthill_simkit::RunOutcome::Drained,
        "simulation exceeded the event budget"
    );

    let world = des.into_world();
    assert_eq!(
        world.finals_done, workload.tiles,
        "every tile must be finally classified"
    );
    assert_eq!(world.engine.total_done(), workload.total_buffers());

    let makespan = world.finish.since(SimTime::ZERO);
    let horizon = world.finish;
    let mut request_traces = Vec::new();
    let mut util_traces = Vec::new();
    let mut utilization = Vec::new();
    let mut stream_traces = Vec::new();
    let mut latency_hists = Vec::new();
    let mut service_hists = Vec::new();
    let exec_slots = world.drv.exec.iter().flat_map(|n| n.iter());
    for (stats, slot) in world.engine.worker_stats().zip(exec_slots) {
        utilization.push((stats.device, stats.util.utilization(horizon)));
        request_traces.push((stats.device, stats.req_trace.to_vec()));
        latency_hists.push((stats.device, stats.latency_hist.clone()));
        service_hists.push((stats.device, stats.service_hist.clone()));
        if cfg.trace_buckets > 0 && horizon > SimTime::ZERO {
            let bucket =
                SimDuration::from_nanos((horizon.as_nanos() / cfg.trace_buckets as u64).max(1));
            util_traces.push((stats.device, stats.util.trace(horizon, bucket)));
        }
        if let Some((_, ctl)) = &slot.gpu {
            stream_traces.push((stats.device, ctl.history().to_vec()));
        }
    }
    let tasks_by: HashMap<(DeviceKind, u8), u64> = world.engine.tasks_by().clone();

    SimReport {
        makespan,
        cpu_baseline: workload.cpu_baseline(),
        tasks_by,
        total_tasks: world.engine.total_done(),
        request_traces,
        util_traces,
        utilization,
        stream_traces,
        latency_hists,
        service_hists,
    }
}
