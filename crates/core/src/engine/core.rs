//! The backend-agnostic demand-driven scheduling core.
//!
//! [`Engine`] owns the paper's whole scheduling protocol — request-window
//! pumping, reader-side buffer selection (DBSA), receiver-side ready-queue
//! ordering (DDFCFS/DDWRR), GPU-first dispatch, DQAA adaptation, and obs
//! event emission — while delegating everything backend-specific to two
//! small traits: [`Transport`] (what delivering a request costs) and
//! [`Executor`] (how a batch actually runs). A driver is a loop that feeds
//! engine callbacks:
//!
//! * a reader received a request → `Engine::answer_request`;
//! * a (possibly empty) reply reached a worker → `Engine::data_arrived`;
//! * a recalculated buffer materialized → [`Engine::recirculate`];
//! * a task completed on a device → `Engine::task_finished`;
//! * a worker became free → `Engine::worker_idle`.
//!
//! The three drivers are thin shells around these five callbacks: the DES
//! world ([`crate::sim`]), the lockstep loop ([`super::sequential`], which
//! also runs `Pipeline::run_deterministic` and the TCP lockstep entry
//! point) and the wall-clock TCP coordinator (`net/coord.rs`). The threaded
//! runtime's `Pipeline::run` builds no engine; its threads use
//! [`super::select::ReadyLane`] and [`super::OpenLoop`] directly.

use std::collections::HashMap;

use anthill_hetsim::{DeviceId, DeviceKind};
use anthill_simkit::{DurationHistogram, SimDuration, SimTime, UtilizationTracker};

use crate::buffer::DataBuffer;
use crate::faults::RecoveryConfig;
use crate::obs::{DeviceRef, EventKind, Recorder};
use crate::policy::Policy;
use crate::queue::SharedQueue;
use crate::weights::{DecisionCtx, WeightProvider};

use super::clock::Clock;
use super::select;
use super::window::{backoff_timeout, RequestWindow, MAX_WINDOW};

/// Cap on a retried request's exponentially backed-off timeout.
const BACKOFF_CAP: SimDuration = SimDuration::from_secs(8);
/// Multiplicative health decay per transient task failure (recovery on).
const HEALTH_DECAY: f64 = 0.5;
/// Additive health recovery per successful completion (recovery on).
const HEALTH_RECOVERY: f64 = 0.05;

/// Identity of one worker slot in the engine's topology, echoed through
/// the driver traits so replies and completions find their way back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerRef {
    /// Hosting node index.
    pub node: usize,
    /// Worker slot index within the node.
    pub worker: usize,
    /// The device the slot schedules for.
    pub device: DeviceId,
}

/// The driver side of request delivery.
///
/// The engine decides *that* a worker requests a buffer from a reader; the
/// driver decides what that costs (a modeled network hop, a channel send,
/// nothing at all) and must eventually route the reader's answer back
/// through `Engine::answer_request` followed by `Engine::data_arrived`
/// with the same `req_id`.
pub trait Transport {
    /// Deliver a data request from worker `from` to node `reader`'s reader
    /// instance. The requesting processor type is `from.device.kind`.
    fn send_request(&mut self, from: WorkerRef, reader: usize, req_id: u64);

    /// Arm a timer that calls `Engine::request_timed_out` for `worker`
    /// and `req_id` at `fire_at`, unless the request settles first (the
    /// engine treats a late timeout for a settled request as a no-op, so
    /// drivers need not cancel timers). The default is a no-op: drivers
    /// without a timer simply never time out, which is the pre-recovery
    /// behaviour. Only called when recovery is enabled.
    fn schedule_timeout(&mut self, worker: WorkerRef, req_id: u64, fire_at: SimTime) {
        let _ = (worker, req_id, fire_at);
    }
}

/// The driver side of task execution.
///
/// The engine decides *which* buffers a worker runs and in what batch; the
/// driver runs them (virtual-time hardware models, OS threads, real
/// kernels) and reports back via `Engine::task_finished` per buffer and
/// `Engine::worker_idle` when the slot frees up.
pub trait Executor {
    /// Upper bound on the batch handed to `worker` in one dispatch: 1 for
    /// one-at-a-time devices, the current stream count for an async GPU
    /// manager (Algorithm 1).
    fn batch_limit(&mut self, worker: WorkerRef) -> usize;

    /// Execute `batch` (never empty) on `worker`. The slot counts as busy
    /// until the driver calls `Engine::worker_idle`.
    fn launch(&mut self, worker: WorkerRef, batch: Vec<DataBuffer>);
}

/// Engine configuration shared by every backend.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The scheduling policy.
    pub policy: Policy,
    /// Fault-recovery knobs (timeouts, retry, health-scaled demand). With
    /// [`RecoveryConfig::disabled`] the engine behaves exactly as before
    /// the fault layer existed — no timers, no weight decay.
    pub recovery: RecoveryConfig,
}

struct WorkerState {
    device: DeviceId,
    window: RequestWindow,
    busy: bool,
    /// Round-robin cursor over readers (starts at the hosting node).
    rr_cursor: usize,
    /// Cleared by [`Engine::worker_died`]; a dead slot never pumps,
    /// dispatches, or wakes again.
    alive: bool,
    /// Set by [`Engine::drain_worker`]: the slot stops pumping demand and
    /// is never dispatched again, but keeps processing its in-flight work
    /// until [`Engine::worker_left`] retires it (Draining → Gone).
    draining: bool,
    /// Degradation estimate in `(0, 1]`: decayed multiplicatively per
    /// transient failure, recovered additively per success. Scales the
    /// slot's effective demand and its kind's ready-queue weights.
    health: f64,
    util: UtilizationTracker,
    /// Target-window trace `(time, target)` per idle transition.
    req_trace: Vec<(SimTime, usize)>,
    latency_hist: DurationHistogram,
}

impl WorkerState {
    /// The health-throttled request-window target: a degraded worker asks
    /// for proportionally less work, shifting demand toward healthy
    /// devices (the honest DDWRR lever — with per-kind uniform weights,
    /// scaling sorted-queue keys alone cannot reorder one device's view,
    /// but shrinking a sick worker's demand reroutes buffers at the
    /// source).
    fn effective_target(&self, recovery: &RecoveryConfig) -> usize {
        let target = self.window.target();
        if !recovery.enabled || self.health >= 1.0 {
            return target;
        }
        ((target as f64 * self.health).ceil() as usize).max(1)
    }
}

struct NodeState {
    /// Reader-side outgoing queue (consumed sorted iff the policy selects
    /// at the sender — DBSA).
    reader: SharedQueue,
    /// Worker-side shared ready queue (consumed sorted iff the policy
    /// sorts at the receiver — DDWRR/ODDS).
    ready: SharedQueue,
    workers: Vec<WorkerState>,
    /// Buffers completed on this node by `[level][device kind]`
    /// (`DeviceKind::ALL` order), grown to the highest level seen.
    done: Vec<[u64; 2]>,
    /// Cached GPU-first dispatch visit order ([`select::dispatch_order`]
    /// over the slot kinds), rebuilt whenever the worker count changes.
    dispatch_order: Vec<usize>,
    /// Which readers this node's workers may request from. `None` (the
    /// default) means *all* nodes — the single-filter n×m stream, whose
    /// round-robin arithmetic is kept bit-identical to the pre-graph
    /// engine. Graph runners scope each filter's workers to that filter's
    /// own input queue, giving every edge its own ODDS/DQAA/DBSA instance.
    scope: Option<Vec<usize>>,
}

/// The dense counter `counters[i]`, grown with zeros to hold it.
fn counter<T: Clone + Default>(counters: &mut Vec<T>, i: usize) -> &mut T {
    if i >= counters.len() {
        counters.resize(i + 1, T::default());
    }
    &mut counters[i]
}

/// Per-worker measurement series the engine accumulates, borrowed for
/// report building.
pub(crate) struct WorkerStats<'a> {
    /// The worker's device identity.
    pub device: DeviceId,
    /// Busy/idle utilization tracker.
    pub util: &'a UtilizationTracker,
    /// Target-window trace `(time, target)` per idle transition.
    pub req_trace: &'a [(SimTime, usize)],
    /// Request round-trip latencies observed by this worker.
    pub latency_hist: &'a DurationHistogram,
}

/// The backend-agnostic scheduling engine (see the module docs).
///
/// Generic over the driver-supplied [`Clock`] and the [`WeightProvider`]
/// whose relative-performance estimates order the sorted queue views.
pub struct Engine<C: Clock, W: WeightProvider> {
    cfg: EngineConfig,
    clock: C,
    weights: W,
    rec: Recorder,
    nodes: Vec<NodeState>,
    next_req_id: u64,
    /// Buffers delivered by [`Engine::deliver_edge`], by edge id.
    edge_delivered: Vec<u64>,
    total_done: u64,
    /// Workers that are starved, alive and not draining: the ones
    /// [`Engine::wake_starved`] would pump.
    starved: usize,
    /// Transient-failure count per buffer id (the `attempt` of the next
    /// `TaskRetried` event).
    task_retries: HashMap<u64, u32>,
}

impl<C: Clock, W: WeightProvider> Engine<C, W> {
    /// An engine with no nodes yet.
    pub fn new(cfg: EngineConfig, clock: C, weights: W, rec: Recorder) -> Engine<C, W> {
        Engine {
            cfg,
            clock,
            weights,
            rec,
            nodes: Vec::new(),
            next_req_id: 0,
            edge_delivered: Vec::new(),
            total_done: 0,
            starved: 0,
            task_retries: HashMap::new(),
        }
    }

    /// Add a node (one reader instance + one ready queue); returns its
    /// index.
    pub(crate) fn add_node(&mut self) -> usize {
        self.nodes.push(NodeState {
            reader: SharedQueue::new(),
            ready: SharedQueue::new(),
            workers: Vec::new(),
            done: Vec::new(),
            dispatch_order: Vec::new(),
            scope: None,
        });
        self.nodes.len() - 1
    }

    /// Restrict `node`'s workers to requesting from `readers` only (in the
    /// given round-robin order). Graph runners scope each filter to its
    /// own input queue; without a scope the node keeps the original
    /// all-readers n×m behaviour.
    pub(crate) fn set_reader_scope(&mut self, node: usize, readers: Vec<usize>) {
        assert!(!readers.is_empty(), "reader scope cannot be empty");
        assert!(
            readers.iter().all(|&r| r < self.nodes.len()),
            "reader scope references an unknown node"
        );
        self.nodes[node].scope = Some(readers);
    }

    /// Add a worker slot for `device` on `node`; returns its slot index.
    pub(crate) fn add_worker(&mut self, node: usize, device: DeviceId) -> usize {
        let w = WorkerState {
            device,
            window: RequestWindow::new(&self.cfg.policy),
            busy: false,
            rr_cursor: node,
            alive: true,
            draining: false,
            health: 1.0,
            util: UtilizationTracker::new(),
            req_trace: Vec::new(),
            latency_hist: DurationHistogram::new(),
        };
        self.nodes[node].workers.push(w);
        self.nodes[node].workers.len() - 1
    }

    /// Number of worker slots across all nodes.
    pub(crate) fn worker_count(&self) -> usize {
        self.nodes.iter().map(|n| n.workers.len()).sum()
    }

    /// All worker references, node-major in slot order.
    pub(crate) fn worker_refs(&self) -> Vec<WorkerRef> {
        self.nodes
            .iter()
            .enumerate()
            .flat_map(|(n, ns)| {
                ns.workers.iter().enumerate().map(move |(i, w)| WorkerRef {
                    node: n,
                    worker: i,
                    device: w.device,
                })
            })
            .collect()
    }

    /// The device a worker slot schedules for.
    pub(crate) fn worker_device(&self, node: usize, worker: usize) -> DeviceId {
        self.nodes[node].workers[worker].device
    }

    /// Set a worker's batch reserve (see
    /// `RequestWindow::set_batch_reserve`); drivers call this at worker
    /// creation and whenever the stream controller changes its count.
    pub(crate) fn set_batch_reserve(&mut self, node: usize, worker: usize, slots: usize) {
        self.nodes[node].workers[worker]
            .window
            .set_batch_reserve(slots);
    }

    /// The observability sink decisions are recorded to.
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// `(device kind, level) -> completed buffers`, accumulated by
    /// `Engine::task_finished`.
    pub fn tasks_by(&self) -> HashMap<(DeviceKind, u8), u64> {
        let mut by = HashMap::new();
        for (_, kind, level, n) in self.completions() {
            *by.entry((kind, level)).or_insert(0) += n;
        }
        by
    }

    /// `(node, device kind, level) -> completed buffers` — node = filter
    /// id in graph runs, so this is the per-filter completion view.
    pub(crate) fn tasks_by_node(&self) -> HashMap<(usize, DeviceKind, u8), u64> {
        self.completions()
            .map(|(node, kind, level, n)| ((node, kind, level), n))
            .collect()
    }

    /// Every non-zero completion counter as `(node, kind, level, count)`.
    fn completions(&self) -> impl Iterator<Item = (usize, DeviceKind, u8, u64)> + '_ {
        self.nodes.iter().enumerate().flat_map(|(node, ns)| {
            ns.done
                .iter()
                .enumerate()
                .flat_map(move |(level, by_kind)| {
                    DeviceKind::ALL
                        .into_iter()
                        .zip(*by_kind)
                        .filter(|&(_, n)| n > 0)
                        .map(move |(kind, n)| (node, kind, level as u8, n))
                })
        })
    }

    /// `edge id -> buffers delivered` over dataflow edges via
    /// `Engine::deliver_edge`. Together with per-filter completions this
    /// is the per-edge side of the conservation invariant (delivered =
    /// consumed + still queued). An edge appears once it has delivered.
    pub fn edge_delivered(&self) -> HashMap<u32, u64> {
        self.edge_delivered
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(edge, &n)| (edge as u32, n))
            .collect()
    }

    /// Total completed buffers.
    pub(crate) fn total_done(&self) -> u64 {
        self.total_done
    }

    /// Borrow every worker's measurement series, node-major in slot order.
    pub(crate) fn worker_stats(&self) -> impl Iterator<Item = WorkerStats<'_>> {
        self.nodes.iter().flat_map(|ns| {
            ns.workers.iter().map(|w| WorkerStats {
                device: w.device,
                util: &w.util,
                req_trace: &w.req_trace,
                latency_hist: &w.latency_hist,
            })
        })
    }

    fn worker_ref(&self, node: usize, worker: usize) -> WorkerRef {
        WorkerRef {
            node,
            worker,
            device: self.nodes[node].workers[worker].device,
        }
    }

    /// The timestamp of a trace event nothing else needs the time for:
    /// the clock is read only when a sink will keep the event.
    fn stamp(&self) -> u64 {
        if self.rec.is_enabled() {
            self.clock.now().as_nanos()
        } else {
            0
        }
    }

    /// Seed a reader with a not-yet-requested buffer. Seeds join the
    /// low-priority FIFO band so recirculated work keeps precedence.
    pub(crate) fn seed_reader(&mut self, reader: usize, buffer: DataBuffer) {
        let w = select::weights_for(&self.weights, &buffer);
        self.nodes[reader].reader.insert_banded(buffer, w, None, 1);
    }

    /// A recirculated buffer materialized at `reader`: it takes FIFO
    /// precedence over unread seeds (the demand-driven Start→Reader loop
    /// keeps in-flight work ahead of not-yet-started work) and wakes every
    /// starved worker.
    pub fn recirculate<D: Transport>(&mut self, reader: usize, buffer: DataBuffer, d: &mut D) {
        let w = select::weights_for(&self.weights, &buffer);
        self.nodes[reader].reader.insert_banded(buffer, w, None, 0);
        self.wake_starved(d);
    }

    /// Seed a reader *mid-run* (open-loop admission): the buffer joins the
    /// low-priority seed band exactly like [`Engine::seed_reader`], then
    /// every starved worker is woken — a seed arriving after workers have
    /// drained the reader would otherwise never be requested.
    pub(crate) fn seed_live<D: Transport>(&mut self, reader: usize, buffer: DataBuffer, d: &mut D) {
        let w = select::weights_for(&self.weights, &buffer);
        self.nodes[reader].reader.insert_banded(buffer, w, None, 1);
        self.wake_starved(d);
    }

    /// Deliver a buffer routed over dataflow `edge` into `reader`'s input
    /// queue (reader = destination filter in graph runs). The buffer is
    /// already in flight through the graph, so it takes recirculation
    /// precedence over unread seeds; starved workers are woken. Emits the
    /// `edge_enqueued` trace event at the destination filter and counts
    /// the delivery toward the per-edge conservation invariant.
    pub(crate) fn deliver_edge<D: Transport>(
        &mut self,
        edge: u32,
        reader: usize,
        buffer: DataBuffer,
        d: &mut D,
    ) {
        self.rec.record(
            self.stamp(),
            DeviceRef::node_scope(reader),
            EventKind::EdgeEnqueued {
                edge,
                buffer: buffer.id.0,
                level: buffer.level,
            },
        );
        *counter(&mut self.edge_delivered, edge as usize) += 1;
        let w = select::weights_for(&self.weights, &buffer);
        self.nodes[reader].reader.insert_banded(buffer, w, None, 0);
        self.wake_starved(d);
    }

    /// Buffers currently queued at a reader.
    pub(crate) fn reader_len(&self, reader: usize) -> usize {
        self.nodes[reader].reader.len()
    }

    /// Answer a data request arriving at `reader` from a device of
    /// `proctype`: DBSA sorted selection when the policy selects at the
    /// sender, FIFO otherwise. `None` means the reader has drained.
    pub(crate) fn answer_request(
        &mut self,
        reader: usize,
        proctype: DeviceKind,
    ) -> Option<DataBuffer> {
        let sender_sorted = self.cfg.policy.kind.sender_selects();
        let buffer = select::pop_for(&mut self.nodes[reader].reader, sender_sorted, proctype)
            .map(|(b, _)| b);
        if sender_sorted {
            if let Some(b) = &buffer {
                self.rec.record(
                    self.stamp(),
                    DeviceRef::node_scope(reader),
                    EventKind::DbsaSelect {
                        buffer: b.id.0,
                        proctype,
                    },
                );
            }
        }
        buffer
    }

    /// A (possibly empty) reply to request `req_id` reached `worker`.
    /// Settles the round-trip latency, queues the buffer on the node's
    /// ready queue (or releases the window slot on an empty reply), and
    /// re-pumps/dispatches. Unknown `req_id`s (e.g. `u64::MAX`) settle
    /// nothing — drivers use them as pure kicks to start the requesters.
    pub(crate) fn data_arrived<D: Transport + Executor>(
        &mut self,
        node: usize,
        worker: usize,
        req_id: u64,
        buffer: Option<DataBuffer>,
        d: &mut D,
    ) {
        let now = self.clock.now();
        let lat = self.nodes[node].workers[worker]
            .window
            .settle_latency(req_id, now);
        if let Some(lat) = lat {
            self.nodes[node].workers[worker].latency_hist.record(lat);
        }
        match buffer {
            Some(buffer) => {
                if !self.nodes[node]
                    .workers
                    .iter()
                    .any(|w| w.alive && !w.draining)
                {
                    // The reply outlived every assignable worker on the
                    // node (all dead or draining): no slot will ever
                    // consume the ready queue, so settle the requester's
                    // window slot and hand the buffer back to the node's
                    // reader where surviving demand can reach it.
                    self.nodes[node].workers[worker].window.release_slot();
                    self.reassign_to_reader(node, buffer, d);
                    self.maybe_release_drained(node, worker);
                    return;
                }
                self.rec.record(
                    now.as_nanos(),
                    DeviceRef::node_scope(node),
                    EventKind::Enqueue {
                        buffer: buffer.id.0,
                        level: buffer.level,
                    },
                );
                let w = self.decided_weights(node, &buffer);
                self.nodes[node]
                    .ready
                    .insert(buffer, w, Some(worker as u64));
                self.dispatch(node, d);
            }
            None => {
                // Empty reply: the reader drained since the request was
                // issued. Release the window slot and retry elsewhere.
                self.nodes[node].workers[worker].window.release_slot();
                self.pump_requests(node, worker, d);
                self.maybe_release_drained(node, worker);
            }
        }
    }

    /// Ready-queue weights for `buffer` on `node`: the provider's relative
    /// performance scaled per device kind by the best health among the
    /// node's workers of that kind. Kinds with no worker on the node keep
    /// the raw weight; healthy workers multiply by exactly 1.0, so with
    /// recovery off or no degradation the weights are bit-identical to the
    /// unscaled ones (the chaos parity tests rely on this).
    fn effective_weights(&self, node: usize, buffer: &DataBuffer) -> [f64; 2] {
        let w = select::weights_for(&self.weights, buffer);
        self.health_scaled(node, w)
    }

    /// Apply the recovery health scaling of [`Engine::effective_weights`]
    /// to an already-computed weight pair.
    fn health_scaled(&self, node: usize, mut w: [f64; 2]) -> [f64; 2] {
        if !self.cfg.recovery.enabled {
            return w;
        }
        for (slot, kind) in [(0usize, DeviceKind::Cpu), (1, DeviceKind::Gpu)] {
            let mut best: Option<f64> = None;
            for ws in &self.nodes[node].workers {
                if ws.device.kind == kind {
                    let h = if ws.alive { ws.health } else { 0.0 };
                    best = Some(best.map_or(h, |b: f64| b.max(h)));
                }
            }
            if let Some(h) = best {
                w[slot] *= h;
            }
        }
        w
    }

    /// Ready-queue weights routed through the learner when a learned
    /// policy is active: builds a [`DecisionCtx`] from the node's current
    /// queue depth and busy-worker count, asks the provider to decide,
    /// records the `policy_decision` event, and health-scales the decided
    /// weights exactly as [`Engine::effective_weights`] would. Classic
    /// policies (and providers that return `None`) fall through to the
    /// static path untouched, so their traces and weights stay
    /// bit-identical to a build without learned policies.
    fn decided_weights(&self, node: usize, buffer: &DataBuffer) -> [f64; 2] {
        if !self.cfg.policy.kind.learned() {
            return self.effective_weights(node, buffer);
        }
        let ctx = DecisionCtx {
            node,
            queue_depth: self.nodes[node].ready.len() as u64,
            inflight: self.nodes[node]
                .workers
                .iter()
                .filter(|w| w.alive && w.busy)
                .count() as u64,
        };
        match self.weights.decide(buffer, &ctx) {
            Some(dec) => {
                self.rec.record(
                    self.stamp(),
                    DeviceRef::node_scope(node),
                    EventKind::PolicyDecision {
                        buffer: buffer.id.0,
                        arm: dec.arm,
                        explore: dec.explore as u8,
                        cpu_ppm: (dec.weights[0] * 1e6) as u64,
                        gpu_ppm: (dec.weights[1] * 1e6) as u64,
                    },
                );
                self.health_scaled(node, dec.weights)
            }
            None => self.effective_weights(node, buffer),
        }
    }

    /// Re-home a buffer whose owning slot (or whole node) died: back into
    /// `node`'s reader at recirculation priority, where any surviving
    /// worker's demand can fetch it.
    fn reassign_to_reader<D: Transport>(&mut self, node: usize, buffer: DataBuffer, d: &mut D) {
        self.rec.record(
            self.stamp(),
            DeviceRef::node_scope(node),
            EventKind::TaskReassigned {
                buffer: buffer.id.0,
                level: buffer.level,
            },
        );
        let w = select::weights_for(&self.weights, &buffer);
        self.nodes[node].reader.insert_banded(buffer, w, None, 0);
        self.wake_starved(d);
    }

    /// A buffer completed on `worker` after `proc_time` of device
    /// occupancy: records the finish and the completion counters. The
    /// driver decides what the completion *means* (final result,
    /// recalculation loop-back) and separately frees the slot via
    /// `Engine::worker_idle`.
    pub(crate) fn task_finished(
        &mut self,
        node: usize,
        worker: usize,
        buffer: &DataBuffer,
        proc_time: SimDuration,
    ) {
        let w = &self.nodes[node].workers[worker];
        let kind = w.device.kind;
        let device = w.device;
        self.rec.record(
            self.stamp(),
            DeviceRef::device(device),
            EventKind::Finish {
                buffer: buffer.id.0,
                level: buffer.level,
                proc_ns: proc_time.as_nanos(),
            },
        );
        if let Some(up) = self
            .weights
            .observe(buffer, node, worker, kind, proc_time.as_secs_f64())
        {
            self.rec.record(
                self.stamp(),
                DeviceRef::device(device),
                EventKind::ProfileUpdated {
                    buffer: buffer.id.0,
                    key: up.key,
                    count: up.count,
                    mean_ns: up.mean_ns,
                },
            );
        }
        counter(&mut self.nodes[node].done, usize::from(buffer.level))[kind as usize] += 1;
        self.total_done += 1;
        if self.cfg.recovery.enabled {
            let w = &mut self.nodes[node].workers[worker];
            if w.alive && w.health < 1.0 {
                w.health = (w.health + HEALTH_RECOVERY).min(1.0);
            }
        }
    }

    /// A transient execution failure on `worker`: the device time was
    /// spent but the result is unusable. Decays the worker's health (with
    /// recovery on, the only mode that reads it) and re-enqueues the buffer
    /// on the node's ready queue — a task is never abandoned, so completion
    /// accounting stays exactly-once. The driver still frees the slot via
    /// [`Engine::worker_idle`] as usual.
    pub(crate) fn task_failed<D: Transport + Executor>(
        &mut self,
        node: usize,
        worker: usize,
        buffer: DataBuffer,
        d: &mut D,
    ) {
        let attempt = {
            let a = self.task_retries.entry(buffer.id.0).or_insert(0);
            *a += 1;
            *a
        };
        self.rec.record(
            self.stamp(),
            DeviceRef::device(self.nodes[node].workers[worker].device),
            EventKind::TaskRetried {
                buffer: buffer.id.0,
                level: buffer.level,
                attempt,
            },
        );
        if self.cfg.recovery.enabled {
            let w = &mut self.nodes[node].workers[worker];
            w.health = (w.health * HEALTH_DECAY).max(f64::MIN_POSITIVE);
        }
        if self.nodes[node]
            .workers
            .iter()
            .any(|w| w.alive && !w.draining)
        {
            let w = self.decided_weights(node, &buffer);
            self.nodes[node].ready.insert(buffer, w, None);
            self.dispatch(node, d);
        } else {
            self.reassign_to_reader(node, buffer, d);
        }
    }

    /// Permanent death of `worker`. Marks the slot dead (it never pumps or
    /// dispatches again) and re-homes `inflight` — the buffers the driver
    /// had in execution on the slot — plus, when the node has no surviving
    /// worker, everything stranded on the node's ready queue, back to
    /// where live demand can reach them.
    pub fn worker_died<D: Transport + Executor>(
        &mut self,
        node: usize,
        worker: usize,
        inflight: Vec<DataBuffer>,
        d: &mut D,
    ) {
        let now = self.clock.now();
        let dev = {
            let w = &mut self.nodes[node].workers[worker];
            if !w.alive {
                return;
            }
            if w.window.is_starved() && !w.draining {
                self.starved -= 1;
            }
            w.alive = false;
            w.health = 0.0;
            w.busy = true; // never dispatchable again
            w.util.set_idle(now);
            w.device
        };
        self.rec.record(
            now.as_nanos(),
            DeviceRef::device(dev),
            EventKind::WorkerDied {
                inflight: inflight.len() as u32,
            },
        );
        let node_alive = self.nodes[node]
            .workers
            .iter()
            .any(|w| w.alive && !w.draining);
        let mut stranded = inflight;
        if !node_alive {
            // No survivor on the node: its ready queue is unreachable too.
            while let Some((b, _)) = self.nodes[node].ready.pop_fifo() {
                stranded.push(b);
            }
        }
        for buffer in stranded {
            if node_alive {
                self.rec.record(
                    now.as_nanos(),
                    DeviceRef::node_scope(node),
                    EventKind::TaskReassigned {
                        buffer: buffer.id.0,
                        level: buffer.level,
                    },
                );
                let w = self.effective_weights(node, &buffer);
                self.nodes[node].ready.insert(buffer, w, None);
            } else {
                self.reassign_to_reader(node, buffer, d);
            }
        }
        if node_alive {
            self.dispatch(node, d);
        }
    }

    /// One-line liveness diagnostic for a node — queue depths plus every
    /// slot's alive/draining/busy/outstanding/starved state. Drivers embed
    /// it in deadline errors so a stalled run reports *where* the missing
    /// work sits instead of just that it never finished.
    pub(crate) fn debug_node_state(&self, node: usize) -> String {
        let n = &self.nodes[node];
        let workers: Vec<String> = n
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                format!(
                    "w{i}[alive={} drain={} busy={} out={} starved={} target={}]",
                    w.alive,
                    w.draining,
                    w.busy,
                    w.window.outstanding(),
                    w.window.is_starved(),
                    w.window.target()
                )
            })
            .collect();
        format!(
            "reader={} ready={} {}",
            n.reader.len(),
            n.ready.len(),
            workers.join(" ")
        )
    }

    /// Is the worker slot still alive?
    pub(crate) fn worker_alive(&self, node: usize, worker: usize) -> bool {
        self.nodes[node].workers[worker].alive
    }

    /// Is the worker slot draining (alive but no longer assignable)?
    pub fn worker_draining(&self, node: usize, worker: usize) -> bool {
        self.nodes[node].workers[worker].draining
    }

    /// Worker slots that can still be assigned work: alive and not
    /// draining. The autoscaler sizes the pool against this count.
    pub(crate) fn active_worker_count(&self) -> usize {
        self.nodes
            .iter()
            .flat_map(|n| n.workers.iter())
            .filter(|w| w.alive && !w.draining)
            .count()
    }

    /// A worker slot joined a live run (elastic membership): added exactly
    /// like a static [`Engine::add_worker`], stamped with the
    /// `worker_joined` trace event, then pumped for demand immediately.
    ///
    /// Warm-up: the joiner starts with a freshly initialized request
    /// window — target 1 under DQAA — so a cold worker ramps its demand up
    /// from one request as real latencies arrive instead of stampeding the
    /// readers; DDWRR/DBSA weights come from the run's shared
    /// [`WeightProvider`], so a joiner of an already-profiled device class
    /// inherits the estimator's bootstrap profiles at full fidelity.
    pub(crate) fn join_worker<D: Transport + Executor>(
        &mut self,
        node: usize,
        device: DeviceId,
        d: &mut D,
    ) -> usize {
        let worker = self.add_worker(node, device);
        let target = self.nodes[node].workers[worker].window.target();
        self.rec.record(
            self.stamp(),
            DeviceRef::device(device),
            EventKind::WorkerJoined {
                window: target as u32,
            },
        );
        self.pump_requests(node, worker, d);
        self.dispatch(node, d);
        worker
    }

    /// Begin a graceful drain of `worker` (Active → Draining): the slot
    /// stops pumping demand and is never dispatched again, but its
    /// in-flight requests and running batch finish normally (bounded by
    /// the recovery timeout path when enabled). Once the last outstanding
    /// item settles the slot is released with a `worker_left` event; an
    /// already-idle slot with no outstanding requests releases
    /// immediately. Draining a dead or already-draining slot is a no-op.
    pub(crate) fn drain_worker(&mut self, node: usize, worker: usize) {
        let (dev, outstanding) = {
            let w = &mut self.nodes[node].workers[worker];
            if !w.alive || w.draining {
                return;
            }
            if w.window.is_starved() {
                self.starved -= 1;
            }
            w.draining = true;
            (w.device, w.window.outstanding())
        };
        self.rec.record(
            self.stamp(),
            DeviceRef::device(dev),
            EventKind::WorkerDraining {
                outstanding: outstanding as u32,
            },
        );
        self.maybe_release_drained(node, worker);
    }

    /// The Draining → Gone transition: retire a draining slot once it is
    /// idle with no outstanding requests. Called after every event that
    /// can settle the slot's last in-flight item.
    fn maybe_release_drained(&mut self, node: usize, worker: usize) {
        let w = &self.nodes[node].workers[worker];
        if !w.draining || !w.alive || w.busy || w.window.outstanding() > 0 {
            return;
        }
        let now = self.clock.now();
        let dev = {
            let w = &mut self.nodes[node].workers[worker];
            w.alive = false;
            w.busy = true; // never dispatchable again
            w.health = 0.0;
            w.util.set_idle(now);
            w.device
        };
        self.rec.record(
            now.as_nanos(),
            DeviceRef::device(dev),
            EventKind::WorkerLeft,
        );
    }

    /// The driver's timer fired for `req_id` on `worker`. If the reply
    /// already settled this is a no-op (drivers never cancel timers). An
    /// unsettled request is retried under a fresh id with exponential
    /// backoff, up to the configured retry cap; past the cap the window
    /// slot is released so the worker pumps fresh demand instead — the
    /// requested *data* is never lost, because a reader hands a buffer out
    /// only when the reply is actually delivered or conserved by the
    /// driver's drop path.
    pub(crate) fn request_timed_out<D: Transport>(
        &mut self,
        node: usize,
        worker: usize,
        req_id: u64,
        d: &mut D,
    ) {
        if !self.cfg.recovery.enabled || !self.nodes[node].workers[worker].alive {
            return;
        }
        let Some(sent) = self.nodes[node].workers[worker].window.take_sent(req_id) else {
            return; // reply won the race
        };
        if self.nodes[node].workers[worker].draining {
            // A draining slot never re-pumps: give the window slot back so
            // the drain can complete. The requested data is not lost — a
            // reader only hands a buffer out when the reply is delivered.
            self.nodes[node].workers[worker].window.release_slot();
            self.maybe_release_drained(node, worker);
            return;
        }
        let recovery = self.cfg.recovery;
        if sent.attempt >= recovery.max_retries {
            // Retry chain exhausted: give the slot back and re-pump fresh
            // demand (possibly toward a different reader).
            self.nodes[node].workers[worker].window.release_slot();
            self.pump_requests(node, worker, d);
            return;
        }
        let attempt = sent.attempt + 1;
        let Some(reader) = self.choose_reader(node, worker) else {
            // Nothing readable anywhere right now: stop retrying, release
            // the slot and wait starved for a recirculation to wake us.
            self.nodes[node].workers[worker].window.release_slot();
            self.set_starved(node, worker);
            return;
        };
        let new_id = self.next_req_id;
        self.next_req_id += 1;
        let now = self.clock.now();
        let wref = self.worker_ref(node, worker);
        {
            let cursor = self.cursor_after(node, reader);
            let w = &mut self.nodes[node].workers[worker];
            w.rr_cursor = cursor;
            w.window.note_resent(new_id, now, attempt);
        }
        let span = backoff_timeout(recovery.request_timeout, attempt, BACKOFF_CAP);
        d.schedule_timeout(wref, new_id, now + span);
        d.send_request(wref, reader, new_id);
    }

    /// `worker` became free after processing the given per-buffer
    /// durations: DQAA adaptation, window trace, re-request, re-dispatch.
    pub(crate) fn worker_idle<D: Transport + Executor>(
        &mut self,
        node: usize,
        worker: usize,
        processed: &[SimDuration],
        d: &mut D,
    ) {
        if !self.nodes[node].workers[worker].alive {
            return; // a completion racing a death: the slot stays retired
        }
        let now = self.clock.now();
        let (dev, target) = {
            let w = &mut self.nodes[node].workers[worker];
            w.busy = false;
            w.util.set_idle(now);
            for &dt in processed {
                w.window.observe_processing(dt);
            }
            let target = w.window.target();
            w.req_trace.push((now, target));
            (DeviceRef::device(w.device), target)
        };
        self.rec.record(
            now.as_nanos(),
            dev,
            EventKind::DqaaWindow {
                target: target as u32,
            },
        );
        self.pump_requests(node, worker, d);
        self.dispatch(node, d);
        self.maybe_release_drained(node, worker);
    }

    /// Hand ready buffers to every idle worker of `node`, GPUs first, each
    /// batched up to the executor's limit. Emits `Dispatch` + `Start` per
    /// buffer and marks the slot busy before launching. Draining slots are
    /// never assigned.
    ///
    /// The GPU-first visit order is a pure function of the slot kinds, so
    /// it is cached on the node and rebuilt only when a worker joins —
    /// dispatch runs on every completion, and recomputing the order was an
    /// O(workers) sort + two allocations per event at high fan-in.
    pub fn dispatch<D: Transport + Executor>(&mut self, node: usize, d: &mut D) {
        if self.nodes[node].ready.is_empty() {
            return;
        }
        if self.nodes[node].dispatch_order.len() != self.nodes[node].workers.len() {
            let kinds: Vec<DeviceKind> = self.nodes[node]
                .workers
                .iter()
                .map(|w| w.device.kind)
                .collect();
            self.nodes[node].dispatch_order = select::dispatch_order(&kinds);
        }
        let order = std::mem::take(&mut self.nodes[node].dispatch_order);
        for &wi in &order {
            if self.nodes[node].workers[wi].busy || self.nodes[node].workers[wi].draining {
                continue;
            }
            if self.nodes[node].ready.is_empty() {
                break;
            }
            let wref = self.worker_ref(node, wi);
            let limit = d.batch_limit(wref).max(1);
            let mut batch = Vec::with_capacity(limit);
            while batch.len() < limit {
                match self.take_ready(node, wref.device.kind, d) {
                    Some(b) => batch.push(b),
                    None => break,
                }
            }
            if batch.is_empty() {
                continue;
            }
            let now = self.clock.now();
            let dev = DeviceRef::device(wref.device);
            for b in &batch {
                self.rec.record(
                    now.as_nanos(),
                    dev,
                    EventKind::Dispatch {
                        buffer: b.id.0,
                        level: b.level,
                    },
                );
                self.rec.record(
                    now.as_nanos(),
                    dev,
                    EventKind::Start {
                        buffer: b.id.0,
                        level: b.level,
                    },
                );
            }
            let w = &mut self.nodes[node].workers[wi];
            w.busy = true;
            w.util.set_busy(now);
            d.launch(wref, batch);
        }
        // A reentrant dispatch (an executor completing inline) rebuilds
        // its own copy from the kinds; last writer wins with identical
        // content either way.
        self.nodes[node].dispatch_order = order;
    }

    /// Pop one ready buffer for a device of `kind` per the receiver-side
    /// policy; settles the window slot of the worker whose request fetched
    /// it and immediately re-pumps that worker.
    fn take_ready<D: Transport>(
        &mut self,
        node: usize,
        kind: DeviceKind,
        d: &mut D,
    ) -> Option<DataBuffer> {
        let sorted = self.cfg.policy.kind.receiver_sorted();
        let (buffer, tag) = select::pop_for(&mut self.nodes[node].ready, sorted, kind)?;
        if let Some(owner) = tag {
            let owner = owner as usize;
            if owner < self.nodes[node].workers.len() {
                self.nodes[node].workers[owner].window.release_slot();
                self.pump_requests(node, owner, d);
                self.maybe_release_drained(node, owner);
            }
        }
        Some(buffer)
    }

    /// The first reader with data, round-robin from `worker`'s cursor.
    /// A scoped node rotates over its scope list; an unscoped node keeps
    /// the original all-nodes arithmetic bit for bit.
    fn choose_reader(&self, node: usize, worker: usize) -> Option<usize> {
        let start = self.nodes[node].workers[worker].rr_cursor;
        match &self.nodes[node].scope {
            Some(scope) => (0..scope.len())
                .map(|off| scope[(start + off) % scope.len()])
                .find(|&r| !self.nodes[r].reader.is_empty()),
            None => {
                let n_nodes = self.nodes.len();
                (0..n_nodes)
                    .map(|off| (start + off) % n_nodes)
                    .find(|&r| !self.nodes[r].reader.is_empty())
            }
        }
    }

    /// The cursor value that continues the round-robin *after* a request
    /// went to `reader`: the next scope position for scoped nodes, the
    /// next node id otherwise (pre-graph arithmetic).
    fn cursor_after(&self, node: usize, reader: usize) -> usize {
        match &self.nodes[node].scope {
            Some(scope) => {
                let pos = scope
                    .iter()
                    .position(|&r| r == reader)
                    .expect("chosen reader is in scope");
                (pos + 1) % scope.len()
            }
            None => (reader + 1) % self.nodes.len(),
        }
    }

    /// ThreadRequester: keep `worker`'s outstanding requests at its target
    /// window by sending requests to readers that currently have data,
    /// round-robin from the worker's cursor. Dead slots never pump; a
    /// degraded slot pumps toward its health-throttled target.
    fn pump_requests<D: Transport>(&mut self, node: usize, worker: usize, d: &mut D) {
        let recovery = self.cfg.recovery;
        loop {
            let w = &self.nodes[node].workers[worker];
            if !w.alive || w.draining {
                return;
            }
            if w.window.outstanding() >= w.effective_target(&recovery).min(MAX_WINDOW) {
                return;
            }
            let Some(reader) = self.choose_reader(node, worker) else {
                // Nothing anywhere: wait for a recirculation to materialize.
                self.set_starved(node, worker);
                return;
            };
            let req_id = self.next_req_id;
            self.next_req_id += 1;
            let now = self.clock.now();
            let wref = self.worker_ref(node, worker);
            {
                let cursor = self.cursor_after(node, reader);
                let w = &mut self.nodes[node].workers[worker];
                w.rr_cursor = cursor;
                if w.window.is_starved() {
                    self.starved -= 1;
                }
                w.window.note_sent(req_id, now);
            }
            if recovery.enabled {
                d.schedule_timeout(wref, req_id, now + recovery.request_timeout);
            }
            d.send_request(wref, reader, req_id);
        }
    }

    /// Mark a live, assignable `worker` as waiting for a reader to fill.
    fn set_starved(&mut self, node: usize, worker: usize) {
        let window = &mut self.nodes[node].workers[worker].window;
        if !window.is_starved() {
            window.set_starved();
            self.starved += 1;
        }
    }

    /// Re-pump every starved live worker (a reader just became non-empty),
    /// node-major in slot order. Pumping one worker changes no other
    /// worker's state, so each is tested as the walk reaches it.
    fn wake_starved<D: Transport>(&mut self, d: &mut D) {
        if self.starved == 0 {
            return;
        }
        let mut left = self.starved;
        for n in 0..self.nodes.len() {
            for i in 0..self.nodes[n].workers.len() {
                let w = &self.nodes[n].workers[i];
                if w.window.is_starved() && w.alive && !w.draining {
                    self.pump_requests(n, i, d);
                    left -= 1;
                }
            }
        }
        debug_assert_eq!(left, 0, "the starved count names workers the walk found");
    }
}

#[cfg(test)]
mod tests {
    use anthill_estimator::TaskParams;
    use anthill_hetsim::{GpuParams, NbiaCostModel};

    use super::*;
    use crate::buffer::BufferId;
    use crate::engine::clock::VirtualClock;
    use crate::weights::OracleWeights;

    #[test]
    fn a_high_level_grows_only_its_own_counter() {
        let cfg = EngineConfig {
            policy: Policy::ddfcfs(4),
            recovery: RecoveryConfig::disabled(),
        };
        let weights = OracleWeights::new(GpuParams::geforce_8800gt(), false);
        let mut engine = Engine::new(cfg, VirtualClock::new(), weights, Recorder::disabled());
        for node in 0..3 {
            engine.add_node();
            for kind in DeviceKind::ALL {
                let index = 0;
                engine.add_worker(node, DeviceId { node, kind, index });
            }
        }
        let deep = DataBuffer {
            id: BufferId(7),
            params: TaskParams::nums(&[32.0]),
            shape: NbiaCostModel::paper_calibrated().tile(32),
            level: u8::MAX,
            task: 7,
        };
        engine.task_finished(0, 0, &deep, SimDuration::from_micros(5));
        assert_eq!(
            engine.tasks_by_node(),
            HashMap::from([((0, DeviceKind::Cpu, u8::MAX), 1)])
        );
        assert_eq!(
            engine.tasks_by(),
            HashMap::from([((DeviceKind::Cpu, u8::MAX), 1)])
        );
        assert!(engine.edge_delivered().is_empty(), "nothing delivered yet");
        let allocated: Vec<usize> = engine.nodes.iter().map(|n| n.done.capacity()).collect();
        assert_eq!(allocated, [256, 0, 0], "node 0's counters, to level 255");
    }
}
