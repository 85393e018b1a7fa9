//! A deterministic single-threaded reference driver for the engine.
//!
//! The smallest possible backend: transport is a FIFO message queue with
//! zero cost, the executor runs handlers inline one buffer at a time, and
//! the clock ticks once per message. Because every scheduling decision is
//! made by the shared [`Engine`], the assignment a workload
//! receives here is the engine's *reference* behaviour — the cross-backend
//! policy-parity tests pin the DES against it. It is also the template for
//! adding a new backend: implement [`Transport`] + [`Executor`], feed the
//! five engine callbacks, done.
//!
//! There is one loop, `run_lockstep`, and it runs a [`DataflowGraph`] — the
//! paper's programming model has no "flat" program. What a hop costs is
//! the caller's `Hops`, and there are two: free hops with the handler run
//! inline ([`run_graph_elastic`], through which
//! [`crate::local::Pipeline::run_deterministic`] executes real filters
//! reproducibly), and a socket round trip to a worker per hop
//! ([`crate::net::run_graph_deterministic`]). [`run_graph`] is the first
//! without a membership schedule; [`run`] is the one-filter graph behind
//! the signature older callers bind.

use std::collections::{HashMap, VecDeque};

use anthill_hetsim::{DeviceId, DeviceKind};
use anthill_simkit::SimTime;

use crate::buffer::DataBuffer;
use crate::faults::RecoveryConfig;
use crate::graph::{DataflowGraph, RoutingCursors};
use crate::membership::{MemberAction, MembershipSchedule};
use crate::obs::Recorder;
use crate::policy::Policy;
use crate::weights::WeightProvider;

use super::clock::{Clock, VirtualClock};
use super::core::{Engine, EngineConfig, Executor, Transport, WorkerRef};

/// Configuration of a sequential run.
#[derive(Debug, Clone)]
pub struct SequentialConfig {
    /// The scheduling policy.
    pub policy: Policy,
    /// Observability sink for the engine's events.
    pub recorder: Recorder,
}

impl SequentialConfig {
    /// Defaults: the given policy, no recording.
    pub fn new(policy: Policy) -> SequentialConfig {
        SequentialConfig {
            policy,
            recorder: Recorder::disabled(),
        }
    }
}

/// What handling one buffer feeds back into the engine.
#[derive(Debug, Default)]
pub struct Emission {
    /// Buffers recirculated into the reader; they take FIFO precedence
    /// over unread sources, like the sim's recalculation loop.
    pub recirculate: Vec<DataBuffer>,
}

/// Result of a sequential run.
#[derive(Debug, Clone)]
pub struct SequentialOutcome {
    /// `(device kind, level) -> buffers handled`.
    pub assigned: HashMap<(DeviceKind, u8), u64>,
    /// Dispatch order, as `(device kind, buffer id)`.
    pub dispatch_order: Vec<(DeviceKind, u64)>,
    /// Total buffers handled.
    pub total: u64,
}

/// What the hops of a lockstep run cost, and what can go wrong on them.
/// Only [`Hops::executed`] has to exist; every default is the reference
/// driver's, where messages cost nothing and no worker is ever lost.
pub(crate) trait Hops {
    /// The engine sent `from`'s request `req_id` towards `reader`.
    fn request_sent(&mut self, _from: WorkerRef, _reader: usize, _req_id: u64) {}

    /// The request's turn came: did it reach the reader?
    fn request_arrived(&mut self, _from: WorkerRef, _req_id: u64) -> bool {
        true
    }

    /// The engine handed `buffer` to `worker`.
    fn launched(&mut self, _worker: WorkerRef, _buffer: &DataBuffer) {}

    /// The buffer's turn came at tick `now`: run it and say what it emits.
    /// `None` means the worker was lost with the buffer in flight.
    fn executed(
        &mut self,
        worker: WorkerRef,
        buffer: &DataBuffer,
        now: SimTime,
    ) -> Option<GraphEmission>;

    /// `(node, worker)` of every slot lost since the last call.
    fn lost(&mut self) -> Vec<(usize, usize)> {
        Vec::new()
    }
}

/// The closure-taking entry points: every hop is free, the handler runs
/// inline. (A blanket `impl Hops for F` would break argument inference at
/// every `|f, k, b| …` call site.)
struct Inline<F>(F);

impl<F: FnMut(usize, DeviceKind, &DataBuffer) -> GraphEmission> Hops for Inline<F> {
    fn executed(&mut self, w: WorkerRef, buffer: &DataBuffer, _: SimTime) -> Option<GraphEmission> {
        Some((self.0)(w.node, w.device.kind, buffer))
    }
}

enum Msg {
    Request {
        from: WorkerRef,
        reader: usize,
        req_id: u64,
    },
    Exec {
        worker: WorkerRef,
        buffer: DataBuffer,
    },
}

/// Lockstep transport/executor: messages drain in FIFO order, one tick
/// each; workers run one buffer at a time.
struct LockstepDriver<'h, H> {
    inbox: VecDeque<Msg>,
    hops: &'h mut H,
}

impl<H: Hops> Transport for LockstepDriver<'_, H> {
    fn send_request(&mut self, from: WorkerRef, reader: usize, req_id: u64) {
        self.hops.request_sent(from, reader, req_id);
        self.inbox.push_back(Msg::Request {
            from,
            reader,
            req_id,
        });
    }
}

impl<H: Hops> Executor for LockstepDriver<'_, H> {
    fn batch_limit(&mut self, _worker: WorkerRef) -> usize {
        1
    }

    fn launch(&mut self, worker: WorkerRef, batch: Vec<DataBuffer>) {
        for buffer in batch {
            self.hops.launched(worker, &buffer);
            self.inbox.push_back(Msg::Exec { worker, buffer });
        }
    }
}

/// Retire every slot the hops lost since the last engine call. What was
/// in the inbox for it went down with it: its requests vanish, the
/// buffers it was to execute are the in-flight set the engine re-homes.
fn retire_lost<C: Clock, W: WeightProvider, H: Hops>(
    engine: &mut Engine<C, W>,
    drv: &mut LockstepDriver<'_, H>,
) {
    for (node, slot) in drv.hops.lost() {
        let mut inflight = Vec::new();
        for msg in std::mem::take(&mut drv.inbox) {
            match msg {
                Msg::Exec { worker, buffer } if (worker.node, worker.worker) == (node, slot) => {
                    inflight.push(buffer)
                }
                Msg::Request { from, .. } if (from.node, from.worker) == (node, slot) => {}
                other => drv.inbox.push_back(other),
            }
        }
        engine.worker_died(node, slot, inflight, drv);
    }
}

/// Apply every scheduled membership action whose completion threshold has
/// been reached. Joins derive the new device index from the node's current
/// same-kind worker count (mirroring how drivers enumerate static
/// topologies); drains go straight to [`Engine::drain_worker`], which
/// releases an already-idle worker immediately.
fn apply_membership<C: Clock, W: WeightProvider, H: Hops>(
    engine: &mut Engine<C, W>,
    schedule: &mut MembershipSchedule,
    drv: &mut LockstepDriver<'_, H>,
) {
    while let Some(action) = schedule.pop_due(engine.total_done()) {
        match action {
            MemberAction::Join { node, kind } => {
                let index = engine
                    .worker_refs()
                    .into_iter()
                    .filter(|w| w.node == node && w.device.kind == kind)
                    .count();
                let device = DeviceId { node, kind, index };
                engine.join_worker(node, device, drv);
            }
            MemberAction::Drain { node, worker } => engine.drain_worker(node, worker),
        }
    }
}

/// Run `sources` through one engine node of `devices` to completion.
///
/// `handle` is invoked once per dispatched buffer (with the device class
/// that won it) and may recirculate follow-up buffers; DQAA is fed the
/// buffer's modeled on-device time (`shape.cpu` / `shape.gpu_kernel`).
///
/// This is [`run_graph`] on a one-filter graph: recirculated buffers are
/// feedback with no feedback edge, so they re-enter the filter's own queue
/// through [`Engine::recirculate`]. The adapter exists only because
/// `benchmark/` and the parity suite bind this five-argument signature; it
/// goes when `benchmark/` is next re-cut against the graph entry points.
pub fn run<W, F>(
    cfg: SequentialConfig,
    devices: &[DeviceId],
    sources: Vec<DataBuffer>,
    weights: W,
    mut handle: F,
) -> SequentialOutcome
where
    W: WeightProvider,
    F: FnMut(DeviceKind, &DataBuffer) -> Emission,
{
    let out = run_graph(
        cfg,
        &DataflowGraph::single("filter"),
        &[devices.to_vec()],
        sources.into_iter().map(|b| (0, b)).collect(),
        weights,
        |_, kind, b| GraphEmission {
            forward: Vec::new(),
            feedback: handle(kind, b).recirculate,
        },
    );
    SequentialOutcome {
        assigned: out
            .assigned
            .into_iter()
            .map(|((_, kind, level), n)| ((kind, level), n))
            .collect(),
        dispatch_order: out
            .dispatch_order
            .into_iter()
            .map(|(_, kind, id)| (kind, id))
            .collect(),
        total: out.total,
    }
}

/// What handling one buffer at a graph filter feeds back into the run.
#[derive(Debug, Default)]
pub struct GraphEmission {
    /// Buffers emitted downstream: routed over the filter's forward
    /// out-edges (`DataflowGraph::route_forward`); with no matching
    /// out-edge they leave the graph as run outputs.
    pub forward: Vec<DataBuffer>,
    /// Buffers explicitly recirculated: delivered over the filter's
    /// declared feedback edge, or — with none declared — re-entered into
    /// the filter's own input queue at recirculation precedence (exactly
    /// the single-filter [`Emission::recirculate`] behaviour).
    pub feedback: Vec<DataBuffer>,
}

/// Result of a sequential graph run.
#[derive(Debug, Clone)]
pub struct GraphOutcome {
    /// `(filter, device kind, level) -> buffers handled`.
    pub assigned: HashMap<(usize, DeviceKind, u8), u64>,
    /// Dispatch order, as `(filter, device kind, buffer id)`.
    pub dispatch_order: Vec<(usize, DeviceKind, u64)>,
    /// Buffers that left the graph at a sink filter, in completion order.
    pub outputs: Vec<DataBuffer>,
    /// `edge id -> buffers delivered` over each forward/feedback edge.
    pub edge_delivered: HashMap<u32, u64>,
    /// Total buffers handled across all filters.
    pub total: u64,
}

/// Run `seeds` through a dataflow graph of replicated filters to
/// completion, one engine node per filter.
///
/// `devices[f]` are filter `f`'s worker devices; `seeds` are `(filter,
/// buffer)` pairs entering that filter's input queue. `handle` is invoked
/// once per dispatched buffer with the filter id and the device class that
/// won it; its [`GraphEmission`] is routed per the graph's edges. Each
/// filter's workers request only from that filter's own input queue, so
/// every edge runs its own ODDS/DQAA/DBSA instance; a single-filter graph
/// is bit-identical to [`run`] (assignment and dispatch order).
pub fn run_graph<W, F>(
    cfg: SequentialConfig,
    graph: &DataflowGraph,
    devices: &[Vec<DeviceId>],
    seeds: Vec<(usize, DataBuffer)>,
    weights: W,
    handle: F,
) -> GraphOutcome
where
    W: WeightProvider,
    F: FnMut(usize, DeviceKind, &DataBuffer) -> GraphEmission,
{
    let none = MembershipSchedule::none();
    run_graph_elastic(cfg, graph, devices, seeds, weights, none, handle)
}

/// [`run_graph`] with a membership schedule: scheduled joins and drains
/// fire as the run's completion count crosses each action's threshold,
/// exercising the engine's elastic-membership path on the reference
/// backend. A scheduled `Join`'s node is the filter id the worker joins.
/// The schedule must leave every filter at least one assignable worker at
/// all times or the run stalls with buffers unread.
pub fn run_graph_elastic<W, F>(
    cfg: SequentialConfig,
    graph: &DataflowGraph,
    devices: &[Vec<DeviceId>],
    seeds: Vec<(usize, DataBuffer)>,
    weights: W,
    schedule: MembershipSchedule,
    handle: F,
) -> GraphOutcome
where
    W: WeightProvider,
    F: FnMut(usize, DeviceKind, &DataBuffer) -> GraphEmission,
{
    let mut hops = Inline(handle);
    run_lockstep(cfg, graph, devices, seeds, weights, schedule, &mut hops).0
}

/// A lockstep run: [`lockstep_engine`] on the run's own tick clock, then
/// [`lockstep_loop`]. Also returns the first filter whose reader still
/// held buffers when the inbox ran dry, with their count — every worker
/// that could have asked for them is gone.
pub(crate) fn run_lockstep<W: WeightProvider, H: Hops>(
    cfg: SequentialConfig,
    graph: &DataflowGraph,
    devices: &[Vec<DeviceId>],
    seeds: Vec<(usize, DataBuffer)>,
    weights: W,
    schedule: MembershipSchedule,
    hops: &mut H,
) -> (GraphOutcome, Option<(usize, usize)>) {
    let ticks = VirtualClock::new();
    let mut engine = lockstep_engine(&cfg, ticks.clone(), graph, devices, seeds, weights);
    let (dispatch_order, outputs) = lockstep_loop(&mut engine, &ticks, graph, schedule, hops);
    let stranded = (0..graph.n_filters())
        .map(|f| (f, engine.reader_len(f)))
        .find(|&(_, unread)| unread > 0);
    let outcome = GraphOutcome {
        assigned: engine.tasks_by_node(),
        dispatch_order,
        outputs,
        edge_delivered: engine.edge_delivered(),
        total: engine.total_done(),
    };
    (outcome, stranded)
}

/// The engine of a lockstep run: one node per filter, scoped to its own
/// input queue, with that filter's workers and seeds.
fn lockstep_engine<C: Clock, W: WeightProvider>(
    cfg: &SequentialConfig,
    clock: C,
    graph: &DataflowGraph,
    devices: &[Vec<DeviceId>],
    seeds: Vec<(usize, DataBuffer)>,
    weights: W,
) -> Engine<C, W> {
    assert_eq!(
        devices.len(),
        graph.n_filters(),
        "one device list per filter"
    );
    let mut engine = Engine::new(
        EngineConfig {
            policy: cfg.policy,
            recovery: RecoveryConfig::disabled(),
        },
        clock,
        weights,
        cfg.recorder.clone(),
    );
    for devs in devices {
        let f = engine.add_node();
        engine.set_reader_scope(f, vec![f]);
        for d in devs {
            engine.add_worker(f, *d);
        }
        assert!(
            !devs.is_empty(),
            "filter {f} ({}) has no worker devices",
            graph.filters()[f].name
        );
    }
    for (f, b) in seeds {
        engine.seed_reader(f, b);
    }
    engine
}

/// The lockstep loop: one FIFO inbox, one tick of `ticks` (the time
/// `engine`'s clock tells) and one engine callback per message, hops
/// priced by `hops`. Returns the dispatch order and the buffers that left
/// the graph.
fn lockstep_loop<C: Clock, W: WeightProvider, H: Hops>(
    engine: &mut Engine<C, W>,
    ticks: &VirtualClock,
    graph: &DataflowGraph,
    mut schedule: MembershipSchedule,
    hops: &mut H,
) -> (Vec<(usize, DeviceKind, u64)>, Vec<DataBuffer>) {
    let mut drv = LockstepDriver {
        inbox: VecDeque::new(),
        hops,
    };
    retire_lost(engine, &mut drv);
    // Kick every live worker's requester with an unknown-id empty reply,
    // as the DES driver does at t = 0.
    for w in engine.worker_refs() {
        if engine.worker_alive(w.node, w.worker) {
            engine.data_arrived(w.node, w.worker, u64::MAX, None, &mut drv);
        }
    }
    // Zero-threshold actions fire before the first completion.
    apply_membership(engine, &mut schedule, &mut drv);

    let mut cursors = RoutingCursors::new(graph);
    let mut dispatch_order = Vec::new();
    let mut outputs = Vec::new();
    let mut tick = 0u64;
    loop {
        retire_lost(engine, &mut drv);
        let Some(msg) = drv.inbox.pop_front() else {
            break;
        };
        tick += 1;
        ticks.set(SimTime(tick));
        match msg {
            Msg::Request {
                from,
                reader,
                req_id,
            } => {
                if drv.hops.request_arrived(from, req_id) {
                    let buffer = engine.answer_request(reader, from.device.kind);
                    engine.data_arrived(from.node, from.worker, req_id, buffer, &mut drv);
                }
            }
            Msg::Exec { worker, buffer } => {
                let Some(emission) = drv.hops.executed(worker, &buffer, SimTime(tick)) else {
                    // Back in flight: `lost` names the slot next.
                    drv.inbox.push_front(Msg::Exec { worker, buffer });
                    continue;
                };
                dispatch_order.push((worker.node, worker.device.kind, buffer.id.0));
                let proc = match worker.device.kind {
                    DeviceKind::Cpu => buffer.shape.cpu,
                    DeviceKind::Gpu => buffer.shape.gpu_kernel,
                };
                engine.task_finished(worker.node, worker.worker, &buffer, proc);
                apply_membership(engine, &mut schedule, &mut drv);
                graph.deliver_emission(
                    worker.node,
                    emission,
                    &mut cursors,
                    engine,
                    &mut outputs,
                    &mut drv,
                );
                engine.worker_idle(worker.node, worker.worker, &[proc], &mut drv);
            }
        }
    }
    (dispatch_order, outputs)
}

/// FNV-1a-64 over a dispatch order, one `[kind, id as 8 LE bytes]` record
/// per entry — the fingerprint the golden-order tests pin.
#[cfg(test)]
pub(crate) fn dispatch_fnv(order: &[(DeviceKind, u64)]) -> u64 {
    let bytes: Vec<u8> = order
        .iter()
        .flat_map(|&(kind, id)| {
            std::iter::once(u8::from(kind == DeviceKind::Gpu)).chain(id.to_le_bytes())
        })
        .collect();
    anthill_estimator::fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferId;
    use crate::weights::OracleWeights;
    use anthill_estimator::TaskParams;
    use anthill_hetsim::{GpuParams, NbiaCostModel};

    fn tile(id: u64, side: u32) -> DataBuffer {
        DataBuffer {
            id: BufferId(id),
            params: TaskParams::nums(&[f64::from(side)]),
            shape: NbiaCostModel::paper_calibrated().tile(side),
            level: u8::from(side > 32),
            task: id,
        }
    }

    fn devices() -> Vec<DeviceId> {
        vec![
            DeviceId {
                node: 0,
                kind: DeviceKind::Cpu,
                index: 0,
            },
            DeviceId {
                node: 0,
                kind: DeviceKind::Gpu,
                index: 0,
            },
        ]
    }

    #[test]
    fn processes_every_source_exactly_once() {
        let sources: Vec<DataBuffer> = (0..100).map(|i| tile(i, 32)).collect();
        let out = run(
            SequentialConfig::new(Policy::ddfcfs(4)),
            &devices(),
            sources,
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
            |_, _| Emission::default(),
        );
        assert_eq!(out.total, 100);
        assert_eq!(out.dispatch_order.len(), 100);
        let mut ids: Vec<u64> = out.dispatch_order.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn recirculation_reenters_the_loop() {
        let sources: Vec<DataBuffer> = (0..40).map(|i| tile(i, 32)).collect();
        let out = run(
            SequentialConfig::new(Policy::odds()),
            &devices(),
            sources,
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
            |_, b| {
                let mut em = Emission::default();
                if b.level == 0 {
                    let mut high = tile(b.id.0 + 1_000, 512);
                    high.task = b.task;
                    em.recirculate.push(high);
                }
                em
            },
        );
        assert_eq!(out.total, 80, "40 low + 40 recirculated high");
        let high_done: u64 = out
            .assigned
            .iter()
            .filter(|((_, level), _)| *level == 1)
            .map(|(_, c)| c)
            .sum();
        assert_eq!(high_done, 40);
    }

    #[test]
    fn runs_are_deterministic() {
        let mk = || {
            let sources: Vec<DataBuffer> = (0..64)
                .map(|i| tile(i, if i % 3 == 0 { 512 } else { 32 }))
                .collect();
            run(
                SequentialConfig::new(Policy::ddwrr(4)),
                &devices(),
                sources,
                OracleWeights::new(GpuParams::geforce_8800gt(), false),
                |_, _| Emission::default(),
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.dispatch_order, b.dispatch_order);
        assert_eq!(a.assigned, b.assigned);
    }

    type Tally = &'static [((DeviceKind, u8), u64)];

    /// The reference run's goldens — what `run` produced at 78014d1, when
    /// it was still a separate flat loop: per policy the FNV-1a-64 of the
    /// `(kind, id)` dispatch order (74 dispatches each) and the `(kind,
    /// level)` tallies.
    fn golden() -> [(Policy, u64, Tally); 3] {
        use DeviceKind::{Cpu, Gpu};
        [
            (
                Policy::ddfcfs(4),
                0x68ab_bf5c_86a4_e448,
                &[
                    ((Cpu, 0), 21),
                    ((Cpu, 1), 16),
                    ((Gpu, 0), 21),
                    ((Gpu, 1), 16),
                ],
            ),
            (
                Policy::ddwrr(4),
                0xed30_9169_98f1_8af8,
                &[((Cpu, 0), 37), ((Gpu, 0), 5), ((Gpu, 1), 32)],
            ),
            (
                Policy::odds(),
                0x7679_cdbc_a6d0_a5b4,
                &[((Cpu, 0), 5), ((Cpu, 1), 32), ((Gpu, 0), 37)],
            ),
        ]
    }

    /// The reference run's 64 sources: every third tile high-resolution.
    fn reference_sources() -> Vec<DataBuffer> {
        (0..64)
            .map(|i| tile(i, if i % 3 == 0 { 512 } else { 32 }))
            .collect()
    }

    /// The reference run's feedback: every fourth low-resolution tile
    /// comes back at high resolution.
    fn reference_recirc(b: &DataBuffer) -> Option<DataBuffer> {
        if b.level == 0 && b.task.is_multiple_of(4) {
            let mut high = tile(b.id.0 + 1_000, 512);
            high.task = b.task;
            Some(high)
        } else {
            None
        }
    }

    #[test]
    fn degenerate_graph_is_bit_identical_to_the_single_filter_run() {
        // Acceptance criterion: a 1-node graph must reproduce today's
        // engine exactly — same per-device assignment AND same dispatch
        // order — for all three policies, including with recirculation.
        for (policy, order_fnv, tally) in golden() {
            let sources = reference_sources();
            let flat = run(
                SequentialConfig::new(policy),
                &devices(),
                sources.clone(),
                OracleWeights::new(GpuParams::geforce_8800gt(), false),
                |_, b| {
                    let mut em = Emission::default();
                    em.recirculate.extend(reference_recirc(b));
                    em
                },
            );
            let graph = DataflowGraph::single("only");
            let g = run_graph(
                SequentialConfig::new(policy),
                &graph,
                &[devices()],
                sources.into_iter().map(|b| (0, b)).collect(),
                OracleWeights::new(GpuParams::geforce_8800gt(), false),
                |_, _, b| {
                    let mut em = GraphEmission::default();
                    em.feedback.extend(reference_recirc(b));
                    em.forward.push(b.clone());
                    em
                },
            );
            assert_eq!(flat.total, g.total, "{policy:?}");
            let g_order: Vec<(DeviceKind, u64)> =
                g.dispatch_order.iter().map(|&(_, k, id)| (k, id)).collect();
            assert_eq!(flat.dispatch_order, g_order, "{policy:?}");
            let g_assigned: HashMap<(DeviceKind, u8), u64> =
                g.assigned
                    .iter()
                    .fold(HashMap::new(), |mut acc, (&(_, k, level), &c)| {
                        *acc.entry((k, level)).or_insert(0) += c;
                        acc
                    });
            assert_eq!(flat.assigned, g_assigned, "{policy:?}");
            assert_eq!(g_order.len(), 74, "{policy:?}");
            assert_eq!(dispatch_fnv(&g_order), order_fnv, "{policy:?}");
            assert_eq!(
                g_assigned,
                tally.iter().copied().collect::<HashMap<_, _>>(),
                "{policy:?}"
            );
            // Every handled buffer left the degenerate graph as an output.
            assert_eq!(g.outputs.len() as u64, g.total, "{policy:?}");
        }
    }

    /// A tick clock that counts how often the engine asks it.
    struct Counting {
        ticks: VirtualClock,
        reads: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl Clock for Counting {
        fn now(&self) -> SimTime {
            self.reads.set(self.reads.get() + 1);
            self.ticks.now()
        }
    }

    /// The reference run on a counting clock: its dispatch order and how
    /// often the engine read the time.
    fn counted_reference_run(policy: Policy, recorder: Recorder) -> (Vec<(DeviceKind, u64)>, u64) {
        let cfg = SequentialConfig {
            recorder,
            ..SequentialConfig::new(policy)
        };
        let graph = DataflowGraph::single("filter");
        let ticks = VirtualClock::new();
        let clock = Counting {
            ticks: ticks.clone(),
            reads: Default::default(),
        };
        let reads = clock.reads.clone();
        let mut engine = lockstep_engine(
            &cfg,
            clock,
            &graph,
            &[devices()],
            reference_sources().into_iter().map(|b| (0, b)).collect(),
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
        );
        let mut hops = Inline(|_, _, b: &DataBuffer| GraphEmission {
            forward: Vec::new(),
            feedback: reference_recirc(b).into_iter().collect(),
        });
        let none = MembershipSchedule::none();
        let (order, _) = lockstep_loop(&mut engine, &ticks, &graph, none, &mut hops);
        let order = order.into_iter().map(|(_, k, id)| (k, id)).collect();
        (order, reads.get())
    }

    #[test]
    fn a_recorder_that_is_off_costs_no_clock_reads() {
        // With the recorder off the clock is read for a latency sample, a
        // utilisation tracker or a window trace and for nothing else: about
        // four times per dispatch, pinned. Recording adds one read per
        // stamped event and moves no decision.
        for ((policy, order_fnv, _), reads_off) in golden().into_iter().zip([300, 310, 300]) {
            let (off_order, off) = counted_reference_run(policy, Recorder::disabled());
            let rec = Recorder::enabled();
            let (on_order, on) = counted_reference_run(policy, rec.clone());
            assert_eq!(off_order.len(), 74, "{policy:?}");
            assert_eq!(dispatch_fnv(&off_order), order_fnv, "{policy:?}");
            assert_eq!(dispatch_fnv(&on_order), order_fnv, "{policy:?}");
            assert_eq!(off, reads_off, "{policy:?}");
            assert!(off < on, "{policy:?}: {off} reads off, {on} recorded");
            assert!(rec.event_count() > 0);
        }
    }

    #[test]
    fn tallies_by_kind_are_the_per_filter_tallies_summed() {
        // The pricing diamond's shape: split, two branches, merge.
        let graph = DataflowGraph::diamond("split", "price_a", "price_b", "merge");
        let ticks = VirtualClock::new();
        let mut engine = lockstep_engine(
            &SequentialConfig::new(Policy::ddwrr(4)),
            ticks.clone(),
            &graph,
            &[devices(), devices(), devices(), devices()],
            (0..40)
                .map(|i| (0, tile(i, if i % 5 == 0 { 512 } else { 32 })))
                .collect(),
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
        );
        let mut hops = Inline(|_, _, b: &DataBuffer| GraphEmission {
            forward: vec![b.clone()],
            feedback: Vec::new(),
        });
        let none = MembershipSchedule::none();
        lockstep_loop(&mut engine, &ticks, &graph, none, &mut hops);
        assert_eq!(engine.total_done(), 120, "split + one branch + merge each");
        let by_node = engine.tasks_by_node();
        assert!(by_node.values().all(|&n| n > 0), "an entry is a completion");
        for filter in 0..4 {
            let at: u64 = by_node
                .iter()
                .filter(|((f, _, _), _)| *f == filter)
                .map(|(_, n)| n)
                .sum();
            assert_eq!(at, if filter == 1 || filter == 2 { 20 } else { 40 });
        }
        let mut summed = HashMap::new();
        for (&(_, kind, level), n) in &by_node {
            *summed.entry((kind, level)).or_insert(0) += n;
        }
        assert_eq!(engine.tasks_by(), summed);
        assert_eq!(summed.values().sum::<u64>(), 120);
        assert_eq!(
            engine.edge_delivered(),
            HashMap::from([(0, 20), (1, 20), (2, 20), (3, 20)])
        );
    }

    #[test]
    fn pipeline_routes_every_buffer_through_every_stage() {
        let graph = DataflowGraph::pipeline(&["a", "b", "c"]);
        let sources: Vec<(usize, DataBuffer)> = (0..30).map(|i| (0, tile(i, 32))).collect();
        let out = run_graph(
            SequentialConfig::new(Policy::ddfcfs(4)),
            &graph,
            &[devices(), devices(), devices()],
            sources,
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
            |_, _, b| GraphEmission {
                forward: vec![b.clone()],
                feedback: Vec::new(),
            },
        );
        assert_eq!(out.total, 90, "every buffer crosses all 3 stages");
        assert_eq!(out.outputs.len(), 30);
        assert_eq!(out.edge_delivered.get(&0), Some(&30));
        assert_eq!(out.edge_delivered.get(&1), Some(&30));
        for f in 0..3 {
            let per_filter: u64 = out
                .assigned
                .iter()
                .filter(|((fi, _, _), _)| *fi == f)
                .map(|(_, c)| c)
                .sum();
            assert_eq!(per_filter, 30, "filter {f}");
        }
    }

    #[test]
    fn diamond_splits_round_robin_and_conserves() {
        let graph = DataflowGraph::diamond("src", "l", "r", "snk");
        let sources: Vec<(usize, DataBuffer)> = (0..40).map(|i| (0, tile(i, 32))).collect();
        let out = run_graph(
            SequentialConfig::new(Policy::ddwrr(4)),
            &graph,
            &[devices(), devices(), devices(), devices()],
            sources,
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
            |_, _, b| GraphEmission {
                forward: vec![b.clone()],
                feedback: Vec::new(),
            },
        );
        assert_eq!(out.total, 120, "src + one branch + sink per buffer");
        assert_eq!(out.outputs.len(), 40);
        // The split alternates branches exactly.
        assert_eq!(out.edge_delivered.get(&0), Some(&20));
        assert_eq!(out.edge_delivered.get(&1), Some(&20));
        // Merge edges conserve: everything a branch handled reached the sink.
        assert_eq!(out.edge_delivered.get(&2), Some(&20));
        assert_eq!(out.edge_delivered.get(&3), Some(&20));
    }

    #[test]
    fn broadcast_duplicates_across_edges() {
        use crate::graph::{EdgeSpec, FilterSpec};
        let graph = DataflowGraph::new(
            vec![
                FilterSpec::new("src"),
                FilterSpec::new("a"),
                FilterSpec::new("b"),
            ],
            vec![EdgeSpec::broadcast(0, 1), EdgeSpec::broadcast(0, 2)],
        )
        .unwrap();
        let sources: Vec<(usize, DataBuffer)> = (0..10).map(|i| (0, tile(i, 32))).collect();
        let out = run_graph(
            SequentialConfig::new(Policy::ddfcfs(4)),
            &graph,
            &[devices(), devices(), devices()],
            sources,
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
            |_, _, b| GraphEmission {
                forward: vec![b.clone()],
                feedback: Vec::new(),
            },
        );
        assert_eq!(out.total, 30, "each buffer runs at src and both copies");
        assert_eq!(out.outputs.len(), 20, "both branch copies leave the graph");
        assert_eq!(out.edge_delivered.get(&0), Some(&10));
        assert_eq!(out.edge_delivered.get(&1), Some(&10));
    }

    #[test]
    fn odds_sender_answers_gpu_requests_best_first() {
        // A lone GPU worker under ODDS: every request reaches the DBSA
        // sender with proctype Gpu, so the reader must hand out the
        // high-res (GPU-favoured) tiles before any low-res one.
        let n_high = 15u64;
        let sources: Vec<DataBuffer> = (0..60)
            .map(|i| tile(i, if i < n_high { 512 } else { 32 }))
            .collect();
        let out = run(
            SequentialConfig::new(Policy::odds()),
            &[DeviceId {
                node: 0,
                kind: DeviceKind::Gpu,
                index: 0,
            }],
            sources,
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
            |_, _| Emission::default(),
        );
        assert_eq!(out.total, 60);
        let first: Vec<u64> = out
            .dispatch_order
            .iter()
            .take(n_high as usize)
            .map(|&(_, id)| id)
            .collect();
        assert!(
            first.iter().all(|&id| id < n_high),
            "high-res tiles must be selected first, got {first:?}"
        );
    }
}
