//! The virtual-time graph executor: the DES counterpart of
//! [`crate::engine::sequential::run_graph`], driving a whole
//! [`DataflowGraph`] of replicated filters through the shared scheduling
//! engine in modeled time.
//!
//! Each filter of the graph is one engine node whose reader is scoped to
//! its own input queue, so *every edge* runs its own demand-driven stream:
//! an ODDS/DQAA/DBSA instance per (filter, edge), exactly as in the
//! paper's labeled-stream model. Messages between filters traverse the
//! modeled network (one logical placement per filter), tasks occupy
//! modeled devices, and completions feed the caller's handler, whose
//! emissions are routed over the graph's out-edges (round-robin, labeled,
//! or broadcast) or over a declared feedback edge.
//!
//! Faults and the asynchronous GPU transfer pipeline are the single-filter
//! runtime's department ([`crate::sim::runtime`]); this runner prices GPU
//! batches synchronously, which keeps cross-backend parity exact on
//! neutral workloads.

use std::collections::HashMap;

use anthill_hetsim::{DeviceId, DeviceKind, GpuEngines, GpuParams, NetParams, Network};
use anthill_simkit::{Scheduler, SimDuration, SimTime, World};

use crate::buffer::DataBuffer;
use crate::engine::core::{Executor, Transport, WorkerRef};
use crate::engine::sequential::GraphEmission;
use crate::engine::{Engine as SchedEngine, EngineConfig, VirtualClock};
use crate::faults::RecoveryConfig;
use crate::graph::{DataflowGraph, RoutingCursors};
use crate::obs::Recorder;
use crate::policy::Policy;
use crate::weights::WeightProvider;

/// Bytes of a data-request control message (as in the single-filter sim).
const REQUEST_BYTES: u64 = 64;
/// Bytes of a feedback/recirculation notification message.
const RECALC_BYTES: u64 = 128;

/// Configuration of one simulated graph run.
#[derive(Clone)]
pub struct GraphSimConfig {
    /// The stream scheduling policy (shared by every edge).
    pub policy: Policy,
    /// GPU timing parameters for GPU worker slots.
    pub gpu: GpuParams,
    /// Network timing parameters for the inter-filter links.
    pub net: NetParams,
    /// Upper bound on any worker's request window.
    pub max_request_window: usize,
    /// Observability sink; disabled by default.
    pub recorder: Recorder,
}

impl GraphSimConfig {
    /// Defaults matching the single-filter simulator.
    pub fn new(policy: Policy) -> GraphSimConfig {
        GraphSimConfig {
            policy,
            gpu: GpuParams::geforce_8800gt(),
            net: NetParams::gigabit_ethernet(),
            max_request_window: 256,
            recorder: Recorder::disabled(),
        }
    }
}

/// Measurements of one simulated graph run.
#[derive(Debug, Clone)]
pub struct GraphSimReport {
    /// Virtual time of the last buffer leaving the graph.
    pub makespan: SimDuration,
    /// Buffers that left the graph (no matching out-edge), in completion
    /// order.
    pub outputs: Vec<DataBuffer>,
    /// `(filter, device kind, level) -> completions`.
    pub assigned: HashMap<(usize, DeviceKind, u8), u64>,
    /// Buffers delivered over each graph edge.
    pub edge_delivered: HashMap<u32, u64>,
    /// Total completions across all filters.
    pub total: u64,
}

enum Ev {
    /// A data request arriving at a filter's reader.
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
    /// A task finished on a device.
    TaskDone {
        node: usize,
        thread: usize,
        buffer: DataBuffer,
        proc_time: SimDuration,
    },
    /// A routed emission arriving at the destination filter of an edge.
    Deliver { edge: usize, buffer: DataBuffer },
    /// A self-recirculated buffer re-entering its own filter's queue.
    Feedback { filter: usize, buffer: DataBuffer },
    /// A per-request retry timer fired (no-op if the reply settled).
    Timeout {
        node: usize,
        thread: usize,
        req_id: u64,
    },
}

struct DriverState {
    net: Network,
    /// `[filter][worker]` GPU engines for GPU slots, `None` for CPUs.
    gpus: Vec<Vec<Option<GpuEngines>>>,
}

struct SimDriver<'a> {
    now: SimTime,
    drv: &'a mut DriverState,
    sched: &'a mut Scheduler<Ev>,
}

impl Transport for SimDriver<'_> {
    fn send_request(&mut self, from: WorkerRef, reader: usize, req_id: u64) {
        let arrival = self
            .drv
            .net
            .send(self.now, from.node, reader, REQUEST_BYTES);
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
    fn batch_limit(&mut self, _worker: WorkerRef) -> usize {
        1
    }

    fn launch(&mut self, worker: WorkerRef, batch: Vec<DataBuffer>) {
        let now = self.now;
        for buffer in batch {
            let (fin, dt) = match worker.device.kind {
                DeviceKind::Cpu => {
                    let dt = buffer.shape.cpu;
                    (now + dt, dt)
                }
                DeviceKind::Gpu => {
                    let gpu = self.drv.gpus[worker.node][worker.worker]
                        .as_mut()
                        .expect("GPU slot has engines");
                    let (_, fin) = gpu.run_sync(
                        now,
                        buffer.shape.bytes_in,
                        buffer.shape.gpu_kernel,
                        buffer.shape.bytes_out,
                    );
                    (fin, fin.since(now))
                }
            };
            self.sched.at(
                fin,
                Ev::TaskDone {
                    node: worker.node,
                    thread: worker.worker,
                    buffer,
                    proc_time: dt,
                },
            );
        }
    }
}

struct GraphWorld<F> {
    engine: SchedEngine<VirtualClock, Box<dyn WeightProvider>>,
    clock: VirtualClock,
    drv: DriverState,
    graph: DataflowGraph,
    cursors: RoutingCursors,
    handle: F,
    outputs: Vec<DataBuffer>,
    finish: SimTime,
}

impl<F> World for GraphWorld<F>
where
    F: FnMut(usize, DeviceKind, &DataBuffer) -> GraphEmission,
{
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
                let bytes = buffer
                    .as_ref()
                    .map(DataBuffer::wire_bytes)
                    .unwrap_or(REQUEST_BYTES);
                let arrival = self.drv.net.send(now, reader, wnode, bytes);
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
            Ev::TaskDone {
                node,
                thread,
                buffer,
                proc_time,
            } => {
                self.engine.task_finished(node, thread, &buffer, proc_time);
                let kind = self.engine.worker_device(node, thread).kind;
                let em = (self.handle)(node, kind, &buffer);
                for b in em.feedback {
                    // Feedback goes over the filter's declared feedback
                    // edge when one exists; self-recirculation otherwise.
                    // Either way the hop is priced as a control message.
                    match self.graph.feedback_edge(node) {
                        Some(ei) => {
                            let to = self.graph.edge(ei).to;
                            let arrival = self.drv.net.send(now, node, to, RECALC_BYTES);
                            sched.at(
                                arrival,
                                Ev::Deliver {
                                    edge: ei,
                                    buffer: b,
                                },
                            );
                        }
                        None => {
                            let arrival = self.drv.net.send(now, node, node, RECALC_BYTES);
                            sched.at(
                                arrival,
                                Ev::Feedback {
                                    filter: node,
                                    buffer: b,
                                },
                            );
                        }
                    }
                }
                for b in em.forward {
                    let targets = self.graph.route_forward(node, b.level, &mut self.cursors);
                    match targets.split_last() {
                        None => {
                            // No matching out-edge: the buffer leaves the
                            // graph.
                            self.outputs.push(b);
                            if now > self.finish {
                                self.finish = now;
                            }
                        }
                        Some((&last, rest)) => {
                            for &ei in rest {
                                let to = self.graph.edge(ei).to;
                                let arrival = self.drv.net.send(now, node, to, b.wire_bytes());
                                sched.at(
                                    arrival,
                                    Ev::Deliver {
                                        edge: ei,
                                        buffer: b.clone(),
                                    },
                                );
                            }
                            let to = self.graph.edge(last).to;
                            let arrival = self.drv.net.send(now, node, to, b.wire_bytes());
                            sched.at(
                                arrival,
                                Ev::Deliver {
                                    edge: last,
                                    buffer: b,
                                },
                            );
                        }
                    }
                }
                let mut d = SimDriver {
                    now,
                    drv: &mut self.drv,
                    sched,
                };
                self.engine.worker_idle(node, thread, &[proc_time], &mut d);
            }
            Ev::Deliver { edge, buffer } => {
                let to = self.graph.edge(edge).to;
                let mut d = SimDriver {
                    now,
                    drv: &mut self.drv,
                    sched,
                };
                self.engine.deliver_edge(edge as u32, to, buffer, &mut d);
            }
            Ev::Feedback { filter, buffer } => {
                let mut d = SimDriver {
                    now,
                    drv: &mut self.drv,
                    sched,
                };
                self.engine.recirculate(filter, buffer, &mut d);
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
        }
    }
}

/// Run a dataflow graph in virtual time. `devices[f]` lists the worker
/// slots of filter `f` by device class; `seeds` are `(filter, buffer)`
/// pairs entering the named filters' input queues at t = 0; `handle` is
/// the filter logic, invoked once per completion with the hosting filter,
/// the executing device class, and the buffer, returning the emissions to
/// route.
pub fn run_graph_sim<F>(
    cfg: &GraphSimConfig,
    graph: &DataflowGraph,
    devices: &[Vec<DeviceKind>],
    seeds: Vec<(usize, DataBuffer)>,
    weights: Box<dyn WeightProvider>,
    handle: F,
) -> GraphSimReport
where
    F: FnMut(usize, DeviceKind, &DataBuffer) -> GraphEmission,
{
    assert_eq!(
        devices.len(),
        graph.n_filters(),
        "one device list per graph filter"
    );
    let clock = VirtualClock::new();
    let mut engine = SchedEngine::new(
        EngineConfig {
            policy: cfg.policy,
            max_window: cfg.max_request_window,
            recovery: RecoveryConfig::disabled(),
        },
        clock.clone(),
        weights,
        cfg.recorder.clone(),
    );

    let mut gpus: Vec<Vec<Option<GpuEngines>>> = Vec::with_capacity(devices.len());
    for (f, kinds) in devices.iter().enumerate() {
        let node = engine.add_node();
        debug_assert_eq!(node, f);
        assert!(!kinds.is_empty(), "filter {f} has no worker slots");
        let mut slots = Vec::with_capacity(kinds.len());
        let mut index: HashMap<DeviceKind, usize> = HashMap::new();
        for &kind in kinds {
            let slot = index.entry(kind).or_insert(0);
            engine.add_worker(
                node,
                DeviceId {
                    node: f,
                    kind,
                    index: *slot,
                },
            );
            *slot += 1;
            slots.push(match kind {
                DeviceKind::Cpu => None,
                DeviceKind::Gpu => Some(GpuEngines::new(cfg.gpu.clone())),
            });
        }
        gpus.push(slots);
    }
    for f in 0..graph.n_filters() {
        // Per-filter reader scope: workers of filter f request only from
        // their own filter's input queue, giving every edge its own
        // demand-driven stream instance.
        engine.set_reader_scope(f, vec![f]);
    }
    for (f, b) in seeds {
        engine.seed_reader(f, b);
    }
    let workers = engine.worker_refs();

    let world = GraphWorld {
        engine,
        clock,
        drv: DriverState {
            net: Network::new(graph.n_filters(), cfg.net.clone()),
            gpus,
        },
        graph: graph.clone(),
        cursors: RoutingCursors::new(graph),
        handle,
        outputs: Vec::new(),
        finish: SimTime::ZERO,
    };

    let mut des = anthill_simkit::Engine::new(world);
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
    let outcome = des.run_bounded(SimTime::MAX, 2_000_000_000);
    assert_eq!(
        outcome,
        anthill_simkit::RunOutcome::Drained,
        "graph simulation exceeded the event budget"
    );

    let world = des.into_world();
    let assigned = world.engine.tasks_by_node().clone();
    let edge_delivered = world.engine.edge_delivered().clone();
    let total = world.engine.total_done();
    GraphSimReport {
        makespan: world.finish.since(SimTime::ZERO),
        outputs: world.outputs,
        assigned,
        edge_delivered,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferId;
    use crate::graph::{EdgeSpec, FilterSpec};
    use crate::weights::OracleWeights;
    use anthill_estimator::TaskParams;
    use anthill_hetsim::TaskShape;

    fn tile(id: u64, micros: u64) -> DataBuffer {
        DataBuffer {
            id: BufferId(id),
            params: TaskParams::nums(&[id as f64]),
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

    fn weights() -> Box<dyn WeightProvider> {
        Box::new(OracleWeights::new(GpuParams::geforce_8800gt(), false))
    }

    fn forward_all(_f: usize, _k: DeviceKind, b: &DataBuffer) -> GraphEmission {
        GraphEmission {
            forward: vec![b.clone()],
            feedback: Vec::new(),
        }
    }

    #[test]
    fn pipeline_processes_every_buffer_at_every_stage() {
        let graph = DataflowGraph::pipeline(&["reader", "feature", "classifier"]);
        let devices = vec![
            vec![DeviceKind::Cpu],
            vec![DeviceKind::Cpu, DeviceKind::Gpu],
            vec![DeviceKind::Cpu],
        ];
        let seeds = (0..30).map(|i| (0, tile(i, 400))).collect();
        let r = run_graph_sim(
            &GraphSimConfig::new(Policy::ddfcfs(4)),
            &graph,
            &devices,
            seeds,
            weights(),
            forward_all,
        );
        assert_eq!(r.total, 90, "30 buffers x 3 filters");
        assert_eq!(r.outputs.len(), 30);
        assert_eq!(r.edge_delivered.get(&0), Some(&30));
        assert_eq!(r.edge_delivered.get(&1), Some(&30));
        assert!(r.makespan > SimDuration::ZERO);
    }

    #[test]
    fn diamond_splits_round_robin_and_conserves() {
        let graph = DataflowGraph::diamond("src", "left", "right", "sink");
        let devices = vec![vec![DeviceKind::Cpu]; 4];
        let seeds = (0..40).map(|i| (0, tile(i, 200))).collect();
        let r = run_graph_sim(
            &GraphSimConfig::new(Policy::odds()),
            &graph,
            &devices,
            seeds,
            weights(),
            forward_all,
        );
        assert_eq!(r.total, 120, "src + one branch + sink per buffer");
        assert_eq!(r.outputs.len(), 40);
        for edge in 0..4u32 {
            assert_eq!(r.edge_delivered.get(&edge), Some(&20), "edge {edge}");
        }
    }

    #[test]
    fn broadcast_duplicates_buffers_across_edges() {
        let graph = DataflowGraph::new(
            vec![
                FilterSpec::new("src"),
                FilterSpec::new("a"),
                FilterSpec::new("b"),
            ],
            vec![EdgeSpec::broadcast(0, 1), EdgeSpec::broadcast(0, 2)],
        )
        .expect("valid broadcast graph");
        let devices = vec![vec![DeviceKind::Cpu]; 3];
        let seeds = (0..10).map(|i| (0, tile(i, 100))).collect();
        let r = run_graph_sim(
            &GraphSimConfig::new(Policy::ddfcfs(2)),
            &graph,
            &devices,
            seeds,
            weights(),
            forward_all,
        );
        assert_eq!(r.total, 30, "each buffer runs on src and both sinks");
        assert_eq!(r.outputs.len(), 20);
        assert_eq!(r.edge_delivered.get(&0), Some(&10));
        assert_eq!(r.edge_delivered.get(&1), Some(&10));
    }

    #[test]
    fn feedback_edge_recirculates_upstream() {
        // a -> b forward; b -> a declared feedback. Level-0 buffers bounce
        // once: b sends them back at level 1 with a fresh id, a forwards
        // them again, b emits them.
        let graph = DataflowGraph::new(
            vec![FilterSpec::new("a"), FilterSpec::new("b")],
            vec![EdgeSpec::round_robin(0, 1), EdgeSpec::feedback(1, 0)],
        )
        .expect("valid feedback graph");
        let devices = vec![vec![DeviceKind::Cpu]; 2];
        let seeds = (0..16).map(|i| (0, tile(i, 100))).collect();
        let r = run_graph_sim(
            &GraphSimConfig::new(Policy::ddfcfs(2)),
            &graph,
            &devices,
            seeds,
            weights(),
            |f, _k, b| {
                let mut em = GraphEmission::default();
                if f == 1 && b.level == 0 {
                    let mut high = b.clone();
                    high.level = 1;
                    high.id = BufferId(b.id.0 + 1_000_000);
                    em.feedback.push(high);
                } else {
                    em.forward.push(b.clone());
                }
                em
            },
        );
        assert_eq!(r.total, 64, "two full round trips per buffer");
        assert_eq!(r.outputs.len(), 16);
        assert!(r.outputs.iter().all(|b| b.level == 1));
        assert_eq!(r.edge_delivered.get(&0), Some(&32));
        assert_eq!(r.edge_delivered.get(&1), Some(&16));
    }

    #[test]
    fn graph_runs_are_deterministic() {
        let graph = DataflowGraph::diamond("src", "left", "right", "sink");
        let devices = vec![vec![DeviceKind::Cpu, DeviceKind::Gpu]; 4];
        let mk = || {
            let seeds = (0..24).map(|i| (0, tile(i, 300))).collect();
            run_graph_sim(
                &GraphSimConfig::new(Policy::ddwrr(8)),
                &graph,
                &devices,
                seeds,
                weights(),
                forward_all,
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.assigned, b.assigned);
        assert_eq!(a.edge_delivered, b.edge_delivered);
        let ids_a: Vec<u64> = a.outputs.iter().map(|o| o.id.0).collect();
        let ids_b: Vec<u64> = b.outputs.iter().map(|o| o.id.0).collect();
        assert_eq!(ids_a, ids_b);
    }
}
