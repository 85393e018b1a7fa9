//! The one DES world behind every simulated run: a thin virtual-time
//! driver of the shared scheduling engine ([`crate::engine`]) over the
//! hardware models of `anthill-hetsim`.
//!
//! The policies themselves (queue ordering, DBSA selection, DQAA windows,
//! dispatch) live entirely in the engine; this module only prices its
//! decisions: requests and replies traverse the modeled network, tasks
//! occupy modeled devices, faults and membership actions fire on their
//! schedules, and completions are fed back as engine callbacks. What a run
//! does with a completed buffer — NBIA's recalculation loop
//! ([`crate::sim::runtime`]) or a dataflow graph's routing
//! ([`crate::sim::graph`]) — is the [`Completion`] hook, the only thing the
//! two set-ups do differently once the run is going.

use anthill_hetsim::{DeviceId, DeviceKind, GpuEngines, GpuParams, Network};
use anthill_simkit::{Scheduler, SimDuration, SimTime, World};

use crate::buffer::DataBuffer;
use crate::engine::core::{Executor, Transport, WorkerRef};
use crate::engine::{Engine as SchedEngine, EngineConfig, VirtualClock};
use crate::faults::{FaultInjector, MessageFate, WorkerDeathSpec};
use crate::membership::{MemberAction, MembershipSchedule};
use crate::obs::{DeviceRef, EventKind, Recorder};
use crate::sim::runtime::SimConfig;
use crate::transfer::{pipeline, AdaptiveStreams};
use crate::weights::WeightProvider;

/// Bytes of a data-request control message.
const REQUEST_BYTES: u64 = 64;
/// Bytes of a recalculation / feedback notification message.
pub(super) const RECALC_BYTES: u64 = 128;

enum Ev {
    /// A data request arriving at a reader.
    Request {
        reader: usize,
        from: WorkerRef,
        req_id: u64,
    },
    /// A data (or empty) reply arriving at a worker.
    Data {
        wnode: usize,
        thread: usize,
        req_id: u64,
        buffer: Option<DataBuffer>,
    },
    /// A buffer a completion emitted arriving at `reader`: over a graph
    /// edge, or — with none — recirculating into the reader's queue ahead
    /// of its unread inputs.
    Arrive {
        reader: usize,
        edge: Option<usize>,
        buffer: DataBuffer,
    },
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
    /// A scheduled permanent worker death (`FaultConfig::deaths`).
    WorkerDeath { node: usize, thread: usize },
}

/// Per-worker execution state owned by the driver: the engine schedules,
/// this executes.
pub(super) struct WorkerExec {
    /// GPU engines + Algorithm 1 stream controller for GPU slots.
    gpu: Option<(GpuEngines, AdaptiveStreams)>,
    /// Slot killed by a `FaultConfig::deaths` entry: completion events
    /// still in the DES queue are dropped on arrival.
    dead: bool,
    /// Buffers currently executing on the slot — the in-flight set handed
    /// to [`SchedEngine::worker_died`] for reassignment at death time.
    running: Vec<DataBuffer>,
}

impl WorkerExec {
    fn new(kind: DeviceKind, gpu: &GpuParams, max_streams: usize) -> WorkerExec {
        WorkerExec {
            gpu: (kind == DeviceKind::Gpu).then(|| {
                (
                    GpuEngines::new(gpu.clone()),
                    AdaptiveStreams::new(max_streams),
                )
            }),
            dead: false,
            running: Vec::new(),
        }
    }

    /// The slot's stream controller (GPU slots only).
    pub(super) fn streams(&self) -> Option<&AdaptiveStreams> {
        self.gpu.as_ref().map(|(_, ctl)| ctl)
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
                from,
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
        if worker.device.kind == DeviceKind::Gpu && self.drv.async_transfers {
            self.drv.exec[worker.node][worker.worker]
                .streams()
                .expect("GPU slot has a controller")
                .concurrent_events()
                .max(1)
        } else {
            1
        }
    }

    fn launch(&mut self, worker: WorkerRef, batch: Vec<DataBuffer>) {
        let now = self.now;
        let (node, thread) = (worker.node, worker.worker);
        let slot = &mut self.drv.exec[node][thread];
        // Remember what is executing: a death mid-run hands these copies
        // back to the engine for reassignment.
        slot.running.extend(batch.iter().cloned());
        let gpu = match &mut slot.gpu {
            Some((gpu, _)) if self.drv.async_transfers => gpu,
            one_at_a_time => {
                // A CPU core, or a GPU with synchronous copies.
                let inv = self.drv.cpu_inv_speed.get(node).copied().unwrap_or(1.0);
                for buffer in batch {
                    let shape = buffer.shape;
                    let proc_time = match one_at_a_time {
                        None => shape.cpu.mul_f64(inv),
                        Some((gpu, _)) => gpu
                            .run_sync(now, shape.bytes_in, shape.gpu_kernel, shape.bytes_out)
                            .1
                            .since(now),
                    };
                    self.sched.at(
                        now + proc_time,
                        Ev::TaskDone {
                            node,
                            thread,
                            buffer,
                            proc_time,
                            idle_after: true,
                        },
                    );
                }
                return;
            }
        };
        // Algorithm 1's loop body: one overlapped batch.
        let shapes: Vec<_> = batch.iter().map(|b| b.shape).collect();
        let dev = DeviceRef::device(worker.device);
        let (completions, end) =
            pipeline::execute_batch_traced(gpu, now, &shapes, &self.drv.rec, dev);
        let k = batch.len();
        let per_task = end.since(now) / k as u64;
        for (buffer, &fin) in batch.into_iter().zip(&completions) {
            self.sched.at(
                fin,
                Ev::TaskDone {
                    node,
                    thread,
                    buffer,
                    proc_time: per_task,
                    idle_after: false,
                },
            );
        }
        self.sched.at(
            end,
            Ev::RoundDone {
                node,
                thread,
                started: now,
                k,
            },
        );
    }
}

/// A simulated deployment: the engine, its virtual clock, the cost models
/// and the run's completion hook, built by a set-up and driven to
/// quiescence by [`Sim::run`].
pub(super) struct Sim<H> {
    pub engine: SchedEngine<VirtualClock, Box<dyn WeightProvider>>,
    /// What the run does with every completed buffer.
    pub hook: H,
    clock: VirtualClock,
    drv: DriverState,
    deaths: Vec<WorkerDeathSpec>,
    /// Completion-keyed join/drain schedule, drained as the run advances.
    membership: MembershipSchedule,
    /// GPU timing parameters and stream bound, for every slot ever created.
    gpu: GpuParams,
    max_streams: usize,
    /// Virtual time of the last buffer leaving the run.
    pub finish: SimTime,
}

impl<H: Completion> Sim<H> {
    /// An engine with `n_nodes` empty nodes over the modeled network. Of
    /// `cfg` the world reads the policy and window bound, the recorder, the
    /// device and network models, `async_transfers`, `cpu_speed`, `faults`
    /// and `membership`; the rest configures the NBIA set-up.
    pub(super) fn new(
        cfg: &SimConfig,
        n_nodes: usize,
        max_streams: usize,
        weights: Box<dyn WeightProvider>,
        hook: H,
    ) -> Sim<H> {
        let clock = VirtualClock::new();
        let mut engine = SchedEngine::new(
            EngineConfig {
                policy: cfg.policy,
                recovery: cfg.faults.recovery,
            },
            clock.clone(),
            weights,
            cfg.recorder.clone(),
        );
        for _ in 0..n_nodes {
            engine.add_node();
        }
        let inverse = |&f: &f64| if f > 0.0 { 1.0 / f } else { 1.0 };
        Sim {
            engine,
            hook,
            clock,
            drv: DriverState {
                async_transfers: cfg.async_transfers,
                cpu_inv_speed: cfg.cpu_speed.iter().map(inverse).collect(),
                net: Network::new(n_nodes, cfg.net.clone()),
                exec: (0..n_nodes).map(|_| Vec::new()).collect(),
                rec: cfg.recorder.clone(),
                injector: FaultInjector::new(&cfg.faults),
            },
            deaths: cfg.faults.deaths.clone(),
            membership: cfg.membership.clone(),
            gpu: cfg.gpu.clone(),
            max_streams,
            finish: SimTime::ZERO,
        }
    }

    /// Add the next `kind` worker slot of `node`; returns its slot index.
    pub(super) fn add_worker(&mut self, node: usize, kind: DeviceKind) -> usize {
        let device = self.new_slot(node, kind);
        self.engine.add_worker(node, device)
    }

    /// Grow the execution table by one `kind` slot on `node`; its device
    /// index continues the node's same-kind numbering.
    fn new_slot(&mut self, node: usize, kind: DeviceKind) -> DeviceId {
        let slots = &mut self.drv.exec[node];
        let is_gpu = kind == DeviceKind::Gpu;
        let index = slots.iter().filter(|s| s.gpu.is_some() == is_gpu).count();
        slots.push(WorkerExec::new(kind, &self.gpu, self.max_streams));
        DeviceId { node, kind, index }
    }

    /// Reserve a GPU slot's current stream count in its request window, on
    /// top of what DQAA or the static policy asks for.
    pub(super) fn reserve_streams(&mut self, node: usize, worker: usize) {
        if let Some(ctl) = self.drv.exec[node][worker].streams() {
            self.engine
                .set_batch_reserve(node, worker, ctl.concurrent_events());
        }
    }

    /// `[node][worker]` execution state, parallel to the engine topology.
    pub(super) fn slots(&self) -> impl Iterator<Item = &WorkerExec> {
        self.drv.exec.iter().flatten()
    }

    /// Run to quiescence; returns the finished deployment.
    pub(super) fn run(mut self) -> Sim<H> {
        let workers = self.engine.worker_refs();
        let deaths = std::mem::take(&mut self.deaths);
        let mut des = anthill_simkit::Engine::new(Running(self));
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
        for death in deaths {
            assert!(
                workers
                    .iter()
                    .any(|w| w.node == death.node && w.worker == death.worker),
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
        des.into_world().0
    }

    /// Apply every membership action due at the current completion count.
    /// A join grows the execution table *before* telling the engine (the
    /// join pump may dispatch to the new slot immediately); a drain goes
    /// through the engine, which stops assignment and releases the slot
    /// once its in-flight work settles.
    fn apply_membership(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        while let Some(action) = self.membership.pop_due(self.engine.total_done()) {
            match action {
                MemberAction::Join { node, kind } => {
                    let device = self.new_slot(node, kind);
                    let mut d = SimDriver {
                        now,
                        drv: &mut self.drv,
                        sched,
                    };
                    let wi = self.engine.join_worker(node, device, &mut d);
                    // The join pump ran with a zero reserve; DQAA folds the
                    // stream reserve in from the next window recomputation on.
                    self.reserve_streams(node, wi);
                }
                MemberAction::Drain { node, worker } => self.engine.drain_worker(node, worker),
            }
        }
    }
}

/// What a run does with a completed buffer, once the engine has counted
/// it: emit follow-up buffers through [`Hop::send`], or let it leave.
pub(super) trait Completion {
    /// `buffer` just finished on a `kind` device of `hop.node`.
    fn completed(&mut self, hop: &mut Hop<'_>, kind: DeviceKind, buffer: &DataBuffer);
}

/// The completion hook's view of the world at one completion.
pub(super) struct Hop<'a> {
    /// Virtual time of the completion.
    now: SimTime,
    /// Engine node (cluster node or graph filter) the buffer finished on.
    pub node: usize,
    net: &'a mut Network,
    sched: &'a mut Scheduler<Ev>,
    finish: &'a mut SimTime,
}

impl Hop<'_> {
    /// Send `buffer` to `reader` as a `bytes`-long message over the modeled
    /// network; on arrival it is delivered over graph edge `edge`, or with
    /// no edge recirculates into the reader's queue.
    pub(super) fn send(
        &mut self,
        reader: usize,
        bytes: u64,
        edge: Option<usize>,
        buffer: DataBuffer,
    ) {
        let arrival = self.net.send(self.now, self.node, reader, bytes);
        self.sched.at(
            arrival,
            Ev::Arrive {
                reader,
                edge,
                buffer,
            },
        );
    }

    /// A buffer left the run now: the makespan extends to this instant.
    pub(super) fn leave(&mut self) {
        if self.now > *self.finish {
            *self.finish = self.now;
        }
    }
}

/// A [`Sim`] being run: keeps the event type private to this module.
struct Running<H>(Sim<H>);

impl<H: Completion> World for Running<H> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        let sim = &mut self.0;
        sim.clock.set(now);
        let Sim { engine, drv, .. } = sim;
        match ev {
            Ev::Request {
                reader,
                from,
                req_id,
            } => {
                let (wnode, thread) = (from.node, from.worker);
                let buffer = engine.answer_request(reader, from.device.kind);
                let extra = match drv.injector.message_fate(wnode, thread) {
                    MessageFate::Drop => {
                        // A lost reply must not lose its payload: the
                        // popped buffer re-enters the reader's queue (at
                        // recirculation precedence — it was in flight).
                        // The requester's slot is recovered by its timer.
                        if let Some(buffer) = buffer {
                            engine.recirculate(reader, buffer, &mut SimDriver { now, drv, sched });
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
                let arrival = drv.net.send(now, reader, wnode, bytes) + extra;
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
                engine.data_arrived(
                    wnode,
                    thread,
                    req_id,
                    buffer,
                    &mut SimDriver { now, drv, sched },
                );
            }
            Ev::Arrive {
                reader,
                edge,
                buffer,
            } => {
                let mut d = SimDriver { now, drv, sched };
                match edge {
                    Some(edge) => engine.deliver_edge(edge as u32, reader, buffer, &mut d),
                    None => engine.recirculate(reader, buffer, &mut d),
                }
            }
            Ev::TaskDone {
                node,
                thread,
                buffer,
                proc_time,
                idle_after,
            } => {
                let slot = &mut drv.exec[node][thread];
                if slot.dead {
                    // The slot died while this ran; `worker_died` already
                    // reclaimed the buffer from the in-flight set.
                    return;
                }
                slot.running.retain(|b| b.id != buffer.id);
                if drv.injector.task_fails(node, thread) {
                    // The device time was spent but the result is garbage:
                    // re-enqueue the buffer, decay the slot's health.
                    let mut d = SimDriver { now, drv, sched };
                    engine.task_failed(node, thread, buffer, &mut d);
                    if idle_after {
                        engine.worker_idle(node, thread, &[proc_time], &mut d);
                    }
                    return;
                }
                engine.task_finished(node, thread, &buffer, proc_time);
                sim.apply_membership(now, sched);
                let Sim {
                    engine,
                    drv,
                    hook,
                    finish,
                    ..
                } = sim;
                let kind = engine.worker_device(node, thread).kind;
                let mut hop = Hop {
                    now,
                    node,
                    net: &mut drv.net,
                    sched,
                    finish,
                };
                hook.completed(&mut hop, kind, &buffer);
                if idle_after {
                    engine.worker_idle(
                        node,
                        thread,
                        &[proc_time],
                        &mut SimDriver { now, drv, sched },
                    );
                }
            }
            Ev::RoundDone {
                node,
                thread,
                started,
                k,
            } => {
                let slot = &mut drv.exec[node][thread];
                if slot.dead {
                    return;
                }
                let round = now.since(started);
                let (_, ctl) = slot.gpu.as_mut().expect("GPU slot has a controller");
                let secs = round.as_secs_f64();
                if secs > 0.0 {
                    ctl.observe_throughput(k as f64 / secs);
                }
                let streams = ctl.concurrent_events();
                drv.rec.record(
                    now.as_nanos(),
                    DeviceRef::device(engine.worker_device(node, thread)),
                    EventKind::Streams {
                        count: streams as u32,
                    },
                );
                engine.set_batch_reserve(node, thread, streams);
                let processed = vec![round / k.max(1) as u64; k];
                engine.worker_idle(node, thread, &processed, &mut SimDriver { now, drv, sched });
            }
            Ev::Timeout {
                node,
                thread,
                req_id,
            } => {
                engine.request_timed_out(node, thread, req_id, &mut SimDriver { now, drv, sched });
            }
            Ev::WorkerDeath { node, thread } => {
                let slot = &mut drv.exec[node][thread];
                if slot.dead {
                    return;
                }
                slot.dead = true;
                let inflight = std::mem::take(&mut slot.running);
                engine.worker_died(node, thread, inflight, &mut SimDriver { now, drv, sched });
            }
        }
    }
}
