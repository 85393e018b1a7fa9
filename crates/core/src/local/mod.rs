//! The native intra-node runtime: real worker threads, shared event
//! queues, and the demand-driven scheduling policies, executing actual
//! computation.
//!
//! This is the threaded counterpart of the virtual-time executor in
//! [`crate::sim`]: another driver of the shared scheduling engine. All
//! policy decisions — queue ordering, per-device weights — come from
//! [`crate::engine::select`]; this module only owns the native execution
//! machinery (OS threads, condvars, backpressure). It demonstrates the
//! filter-stream programming model end to end — filters with per-device
//! handlers, transparent replication as worker threads, recirculation for
//! multi-resolution loops — on hardware that exists everywhere (CPU
//! cores), with accelerator speed differences optionally *emulated* by
//! calibrated busy-waits (see [`ExecMode`]).
//!
//! A task pays only for hand-off work something consumes. Each stage's
//! ready lane sits under one mutex together with how many threads sleep
//! on each of its two condvars: workers on an empty lane, producers on a
//! full one. A push or pop notifies only when that count, read under the
//! lock, is nonzero — `Condvar::notify_one` makes a futex syscall even
//! when nobody waits. Each worker keeps its terminal outputs, its emit
//! buffers and its completion tallies to itself, and the clock is read
//! per task only for a trace or an open-loop latency.
//!
//! For bit-reproducible runs (the cross-backend parity tests), use
//! [`Pipeline::run_deterministic`]: the same filters executed by the
//! engine's sequential reference driver instead of free-running threads.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::buffer::DataBuffer;
use crate::engine::admission::{AdmissionConfig, AdmissionCounters};
use crate::engine::open_loop::{Arrival, OpenLoop, QueueDepthSample};
use crate::engine::select::{self, ReadyLane};
use crate::engine::sequential::{self, GraphEmission, SequentialConfig};
use crate::graph::{DataflowGraph, RoutingCursors};
use crate::membership::MembershipSchedule;
use crate::obs::{DeviceRef, EventKind, Recorder};
use crate::policy::{Policy, PolicyKind};
use crate::queue::MulMap;
use crate::weights::WeightProvider;
use anthill_hetsim::{DeviceId, DeviceKind};
use anthill_simkit::SimRng;

/// A work item in the local runtime: scheduling metadata plus an opaque
/// application payload.
pub struct LocalTask {
    /// Scheduling metadata (parameters, cost shape, level).
    pub buffer: DataBuffer,
    /// Application payload, downcast by the filter.
    pub payload: Box<dyn Any + Send>,
}

impl LocalTask {
    /// Build a task from metadata and any sendable payload.
    pub fn new(buffer: DataBuffer, payload: impl Any + Send) -> LocalTask {
        LocalTask {
            buffer,
            payload: Box::new(payload),
        }
    }
}

impl Arrival for LocalTask {
    fn id(&self) -> u64 {
        self.buffer.id.0
    }
    fn level(&self) -> u8 {
        self.buffer.level
    }
}

/// Where a handler sends a produced task.
pub struct Emitter<'a> {
    forward: &'a mut Vec<LocalTask>,
    back: &'a mut Vec<LocalTask>,
}

impl Emitter<'_> {
    /// Send a task downstream (to the next filter, or the run output if
    /// this is the last filter).
    pub fn forward(&mut self, task: LocalTask) {
        self.forward.push(task);
    }

    /// Recirculate a task into this filter's own input queue (the
    /// multi-resolution reprocessing loop of NBIA's Figure 1).
    pub fn recirculate(&mut self, task: LocalTask) {
        self.back.push(task);
    }
}

/// A filter: per-device event handlers invoked by the runtime. Handlers
/// run concurrently on multiple worker threads, so filters hold only
/// shared state.
pub trait LocalFilter: Send + Sync + 'static {
    /// Handle one event on a device of the given kind.
    fn handle(&self, device: DeviceKind, task: LocalTask, out: &mut Emitter<'_>);
}

/// How a worker executes tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecMode {
    /// Run the handler; its real duration is the task's cost.
    Native,
    /// Busy-wait the task's modeled device time scaled by the factor, then
    /// run the handler. Lets a CPU thread stand in for a faster or slower
    /// device while still computing real results.
    Emulated {
        /// Multiplier applied to the modeled time (use ≤1e-3 in tests).
        scale: f64,
    },
}

/// One worker slot of a stage: a device identity plus its execution mode.
#[derive(Debug, Clone, Copy)]
pub struct WorkerSpec {
    /// The device class this thread represents.
    pub kind: DeviceKind,
    /// Execution mode.
    pub mode: ExecMode,
}

/// One scheduled worker-thread death in the threaded runtime. Virtual
/// time does not exist here, so the trigger is a task count: the worker
/// retires after handling `after` tasks, re-enqueueing whatever it had
/// just popped (the local analogue of [`crate::faults::WorkerDeathSpec`]).
#[derive(Debug, Clone, Copy)]
pub struct LocalDeathSpec {
    /// Pipeline stage index.
    pub stage: usize,
    /// Device class of the targeted worker slot.
    pub kind: DeviceKind,
    /// Index among same-kind workers of the stage.
    pub index: usize,
    /// Tasks the worker handles before dying.
    pub after: u64,
}

/// Fault schedule for the threaded runtime (see [`crate::faults`] for the
/// DES counterpart). Thread interleaving is nondeterministic, so unlike
/// the simulator only the *rates* are reproducible, not the exact fault
/// placement; the chaos tests assert conservation, not timing.
#[derive(Debug, Clone)]
pub struct LocalFaults {
    /// Seed of the per-worker failure RNG streams.
    pub seed: u64,
    /// Probability that a popped task's attempt is discarded and the task
    /// re-enqueued. Must be `< 1.0` or the run cannot terminate.
    pub task_fail: f64,
    /// Scheduled worker-thread deaths. Every stage must keep at least one
    /// surviving worker (validated at run start).
    pub deaths: Vec<LocalDeathSpec>,
}

impl LocalFaults {
    /// A transient-failure-only schedule.
    pub fn task_fail(seed: u64, p: f64) -> LocalFaults {
        LocalFaults {
            seed,
            task_fail: p,
            deaths: Vec::new(),
        }
    }
}

/// One lock's worth of task-side state: parked payloads plus per-buffer
/// failure counts (both keyed by buffer id, so they share a shard).
#[derive(Default)]
struct DispatchShard {
    payloads: MulMap<u64, Box<dyn Any + Send>>,
    attempts: MulMap<u64, u32>,
}

/// The payload/attempt side table, split over independently locked shards
/// so concurrent workers touching different buffers never contend (see
/// `DESIGN.md` §8 for the lock map).
struct DispatchState {
    shards: Vec<Mutex<DispatchShard>>,
}

impl DispatchState {
    /// Shard count: comfortably above any worker count the runtime
    /// spawns, and a power of two so the (sequential) buffer ids spread
    /// evenly.
    const SHARDS: usize = 32;

    fn new() -> DispatchState {
        DispatchState {
            shards: (0..Self::SHARDS)
                .map(|_| Mutex::new(DispatchShard::default()))
                .collect(),
        }
    }

    #[inline]
    fn shard(&self, id: u64) -> &Mutex<DispatchShard> {
        &self.shards[id as usize % self.shards.len()]
    }

    /// Park a payload while its buffer sits in a stage queue.
    fn park(&self, id: u64, payload: Box<dyn Any + Send>) {
        self.shard(id).lock().unwrap().payloads.insert(id, payload);
    }

    /// Claim the payload of a dispatched buffer.
    fn claim(&self, id: u64) -> Box<dyn Any + Send> {
        self.shard(id)
            .lock()
            .unwrap()
            .payloads
            .remove(&id)
            .expect("payload parked for queued buffer")
    }

    /// Bump and return the buffer's transient-failure count.
    fn bump_attempt(&self, id: u64) -> u32 {
        let mut s = self.shard(id).lock().unwrap();
        let e = s.attempts.entry(id).or_insert(0);
        *e += 1;
        *e
    }
}

/// What a stage's lock guards: the ready lane and the sleepers on each of
/// the stage's condvars. The counts change only under the lock, so the
/// thread that pushes or pops reads them exactly and skips the notify when
/// nobody sleeps.
struct Lane {
    /// Policy-ordered lane from the engine: the pop-order decision lives
    /// in [`crate::engine::select`], not here.
    ready: ReadyLane,
    /// Workers asleep on `cv` because the lane was empty.
    idle: u32,
    /// Producers asleep on `space` because the lane was at capacity.
    full: u32,
}

struct StageQueue {
    /// The critical section around the lane is push/pop only — trace
    /// emission, weight computation and payload parking all happen outside
    /// this lock.
    queue: Mutex<Lane>,
    /// Signalled when a push finds an idle worker.
    cv: Condvar,
    /// Signalled when a pop finds a producer blocked on capacity
    /// (backpressure).
    space: Condvar,
    /// Cached [`ReadyLane::needs_weights`]: FIFO lanes let producers skip
    /// the per-push weight computation entirely.
    needs_weights: bool,
}

impl StageQueue {
    fn new(ready: ReadyLane) -> StageQueue {
        StageQueue {
            needs_weights: ready.needs_weights(),
            queue: Mutex::new(Lane {
                ready,
                idle: 0,
                full: 0,
            }),
            cv: Condvar::new(),
            space: Condvar::new(),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Notifies outside `shutdown` in the last threaded run this thread
    /// started: the unit tests' view of the wake rule.
    static RUN_WAKES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Per-stage, per-device execution counters.
#[derive(Debug, Clone, Default)]
pub struct LocalReport {
    /// `(stage, device kind, level) -> tasks handled`.
    pub handled: HashMap<(usize, DeviceKind, u8), u64>,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Task attempts discarded by the fault schedule (each re-enqueued).
    pub retries: u64,
    /// Worker threads retired by the fault schedule.
    pub deaths: u64,
    /// Buffers delivered over each dataflow-graph edge (`edge id ->
    /// count`, every edge present). An implicit linear chain is the graph
    /// [`DataflowGraph::pipeline`] builds: edge `i` is the hop from stage
    /// `i` to stage `i + 1`.
    pub edge_delivered: HashMap<u32, u64>,
}

impl LocalReport {
    /// Tasks of `level` handled by `kind` workers on `stage`.
    pub fn count(&self, stage: usize, kind: DeviceKind, level: u8) -> u64 {
        self.handled
            .get(&(stage, kind, level))
            .copied()
            .unwrap_or(0)
    }

    /// Total tasks handled across all stages and devices.
    pub fn total(&self) -> u64 {
        self.handled.values().sum()
    }
}

/// Configuration of an open-loop [`Pipeline::run_load`] run.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Bounded intake in front of stage 0 (inflight cap, queue cap,
    /// overload policy).
    pub admission: AdmissionConfig,
    /// Queue-depth sampling cadence (clamped to at least 200 µs).
    pub sample_every: Duration,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            admission: AdmissionConfig::default(),
            sample_every: Duration::from_millis(5),
        }
    }
}

/// Outcome of an open-loop [`Pipeline::run_load`] run.
#[derive(Debug)]
pub struct LoadRunReport {
    /// Terminal admission classifications (conservation:
    /// `admitted + shed + deadline_dropped == generated`).
    pub admission: AdmissionCounters,
    /// Terminal outputs observed (`on_complete` invocations).
    pub completed: u64,
    /// The per-stage execution report, as in closed-loop runs.
    pub local: LocalReport,
    /// Queue-depth time series, in sample order.
    pub queue_depth: Vec<QueueDepthSample>,
}

/// What the open-loop lock guards: the schedule's state machine, and when
/// the injector plans to wake while it sleeps. A completion wakes it only
/// if that made something due earlier (the lane's wake rule).
struct Intake<'a> {
    open: OpenLoop<'a, LocalTask>,
    injector_wakes_at: Option<u64>,
}

/// Shared state of one open-loop run, threaded through the worker loop.
struct LoadSpec<'a> {
    /// Builds the i-th task; receives `(index, arrival_ns)`.
    make_task: &'a (dyn Fn(u64, u64) -> LocalTask + Sync),
    intake: Mutex<Intake<'a>>,
    /// Signalled when a completion moves the injector's wake-up earlier.
    wake: Condvar,
    /// Invoked per terminal output with `(task, started_ns, finished_ns)`.
    on_complete: &'a (dyn Fn(LocalTask, u64, u64) + Sync),
}

/// Shuts the run down if its thread unwinds: a panic anywhere in a worker
/// or the injector (a handler, `make_task`, `on_complete`) wakes every
/// sleeper, and reaches the caller through the scope's join instead of
/// leaving the other threads asleep.
struct ShutdownOnPanic<F: Fn()>(F);

impl<F: Fn()> Drop for ShutdownOnPanic<F> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            (self.0)();
        }
    }
}

struct Stage {
    filter: Arc<dyn LocalFilter>,
    workers: Vec<WorkerSpec>,
}

/// A dataflow of filters with optional recirculation, executed by real
/// threads under a chosen scheduling policy. Stages chain linearly by
/// default; [`with_graph`](Pipeline::with_graph) routes emissions through
/// an explicit [`DataflowGraph`] instead (fan-out, fan-in, labeled
/// streams, feedback edges).
pub struct Pipeline {
    stages: Vec<Stage>,
    graph: Option<DataflowGraph>,
    policy: PolicyKind,
    capacity: Option<usize>,
    request_window: usize,
    faults: Option<LocalFaults>,
}

impl Pipeline {
    /// An empty pipeline under the given receiver-side policy (DDFCFS pops
    /// FIFO; DDWRR/ODDS pop best-per-device).
    pub fn new(policy: PolicyKind) -> Pipeline {
        Pipeline {
            stages: Vec::new(),
            graph: None,
            policy,
            capacity: None,
            request_window: 4,
            faults: None,
        }
    }

    /// Route emissions through an explicit dataflow graph instead of the
    /// default linear chain — which is itself the graph
    /// [`DataflowGraph::pipeline`] builds over the stages, so reports and
    /// traces have the same shape either way. Stage `i` hosts filter `i` of
    /// the graph, a handler's `forward` output travels over the filter's
    /// matching out-edge (round-robin or labeled), and `recirculate` uses
    /// the filter's declared feedback edge when one exists
    /// (self-recirculation otherwise). Forward emissions with no matching
    /// out-edge leave the run as outputs. Sources are still seeded into
    /// stage 0.
    ///
    /// Broadcast edges are rejected here: the native runtime moves opaque
    /// `Box<dyn Any>` payloads, which cannot be duplicated — broadcast
    /// topologies run on the buffer-level backends (sequential reference,
    /// DES, net), which clone [`DataBuffer`]s.
    pub fn with_graph(mut self, graph: DataflowGraph) -> Pipeline {
        assert!(
            !graph.has_broadcast(),
            "broadcast edges need clonable payloads; the native runtime \
             moves Box<dyn Any> and cannot duplicate them"
        );
        self.graph = Some(graph);
        self
    }

    /// Inject faults into [`run`](Pipeline::run) /
    /// [`run_traced`](Pipeline::run_traced): transient attempt failures
    /// (task re-enqueued, completion counted only on success) and
    /// count-triggered worker deaths (thread retires, its popped task is
    /// re-enqueued for the survivors). Ignored by
    /// [`run_deterministic`](Pipeline::run_deterministic), which models no
    /// execution machinery to fail.
    pub fn with_faults(mut self, faults: LocalFaults) -> Pipeline {
        self.faults = Some(faults);
        self
    }

    /// Per-worker request window (`streamRequestSize`) used by
    /// [`run_deterministic`](Pipeline::run_deterministic); ODDS adapts from
    /// it via DQAA. Defaults to 4.
    pub fn with_request_window(mut self, window: usize) -> Pipeline {
        self.request_window = window.max(1);
        self
    }

    /// Bound every stage queue to `capacity` buffers: a producer thread
    /// blocks in `forward` until the downstream queue has space — the
    /// demand-driven behaviour of the paper's streams, where consumers
    /// pull only as much as their request window admits. Source injection
    /// and recirculation bypass the bound (a worker must never block on
    /// its own stage's queue).
    pub fn with_capacity(mut self, capacity: usize) -> Pipeline {
        self.capacity = Some(capacity.max(1));
        self
    }

    /// Append a filter stage with its worker slots. Returns the stage id.
    pub fn add_stage(&mut self, filter: Arc<dyn LocalFilter>, workers: Vec<WorkerSpec>) -> usize {
        assert!(!workers.is_empty(), "a stage needs at least one worker");
        self.stages.push(Stage { filter, workers });
        self.stages.len() - 1
    }

    /// Run the pipeline to completion on the given source tasks; returns
    /// the tasks emitted by the final stage and the execution report.
    ///
    /// Termination: the runtime counts in-flight tasks (queued plus being
    /// handled); when the count reaches zero every queue is closed and the
    /// workers join.
    pub fn run<W: WeightProvider + Sync>(
        &self,
        sources: Vec<LocalTask>,
        weights: &W,
    ) -> (Vec<LocalTask>, LocalReport) {
        self.run_traced(sources, weights, &Recorder::disabled())
    }

    /// [`run`](Pipeline::run) with observability: stage-queue insertions
    /// record [`EventKind::Enqueue`] and each worker thread records
    /// dispatch / start / finish, stamped with monotonic wall time since
    /// run start. `DeviceRef::node` carries the stage index (the local
    /// runtime is intra-node).
    pub fn run_traced<W: WeightProvider + Sync>(
        &self,
        sources: Vec<LocalTask>,
        weights: &W,
        recorder: &Recorder,
    ) -> (Vec<LocalTask>, LocalReport) {
        self.run_inner(sources, None, weights, recorder)
    }

    /// Drive the pipeline *open-loop*: an injector thread offers one task
    /// per entry of `arrivals` (nanosecond offsets from run start,
    /// non-decreasing) to a bounded admission intake in front of stage 0,
    /// instead of seeding a fixed batch. Admitted tasks flow through the
    /// pipeline as usual; overload behavior follows
    /// [`LoadConfig::admission`] — block the generator, shed the oldest
    /// waiting task, or drop tasks that overstay a deadline — with every
    /// classification traced (`task_admitted` / `task_shed` /
    /// `task_deadline_dropped`) and counted.
    ///
    /// The schedule and the intake are one [`OpenLoop`] under one lock.
    /// The injector thread offers what is due, samples the queue depth
    /// every [`LoadConfig::sample_every`] (a stalled `Block` intake
    /// included), and sleeps until the next arrival, sample or deadline
    /// expiry. A worker whose task leaves the run releases its admission
    /// slot and takes in whatever is then due itself, waking the injector
    /// only if that moved its next wake-up earlier.
    ///
    /// `make_task` builds the i-th task from `(index, arrival_ns)`; embed
    /// the arrival in the payload to measure end-to-end latency. It runs
    /// under the intake lock, on the injector or on a completing worker,
    /// so keep it cheap. `on_complete` runs on the worker thread for every
    /// terminal output with `(task, started_ns, finished_ns)` — record
    /// latencies there instead of collecting outputs (nothing is
    /// buffered).
    ///
    /// Requires filters that eventually forward exactly one terminal
    /// output per admitted task (each terminal output releases one
    /// admission slot).
    pub fn run_load<W: WeightProvider + Sync>(
        &self,
        arrivals: &[u64],
        make_task: &(dyn Fn(u64, u64) -> LocalTask + Sync),
        cfg: LoadConfig,
        weights: &W,
        recorder: &Recorder,
        on_complete: &(dyn Fn(LocalTask, u64, u64) + Sync),
    ) -> LoadRunReport {
        let spec = LoadSpec {
            make_task,
            intake: Mutex::new(Intake {
                open: OpenLoop::new(cfg.admission, recorder, arrivals, cfg.sample_every),
                injector_wakes_at: None,
            }),
            wake: Condvar::new(),
            on_complete,
        };
        let (_outputs, local) = self.run_inner(Vec::new(), Some(&spec), weights, recorder);
        let (admission, completed, queue_depth) = spec.intake.into_inner().unwrap().open.finish();
        LoadRunReport {
            admission,
            completed,
            local,
            queue_depth,
        }
    }

    /// The dataflow this pipeline runs: the graph given to
    /// [`with_graph`](Pipeline::with_graph), or else the linear chain over
    /// the stages — one round-robin edge between consecutive stages.
    fn dataflow(&self) -> DataflowGraph {
        assert!(!self.stages.is_empty(), "pipeline has no stages");
        let graph = self.graph.clone().unwrap_or_else(|| {
            let names: Vec<String> = (0..self.stages.len())
                .map(|i| format!("stage{i}"))
                .collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            DataflowGraph::pipeline(&refs)
        });
        assert_eq!(
            graph.n_filters(),
            self.stages.len(),
            "graph filters must match pipeline stages one to one"
        );
        graph
    }

    fn run_inner<W: WeightProvider + Sync>(
        &self,
        sources: Vec<LocalTask>,
        load: Option<&LoadSpec<'_>>,
        weights: &W,
        recorder: &Recorder,
    ) -> (Vec<LocalTask>, LocalReport) {
        let graph = &self.dataflow();
        if let Some(f) = &self.faults {
            assert!(
                (0.0..1.0).contains(&f.task_fail),
                "task_fail probability must be in [0, 1) or the run cannot terminate"
            );
            for d in &f.deaths {
                let stage = self.stages.get(d.stage).expect("death spec names a stage");
                let slots = stage.workers.iter().filter(|w| w.kind == d.kind).count();
                assert!(
                    d.index < slots,
                    "death spec ({}, {:?}, {}) names no worker slot",
                    d.stage,
                    d.kind,
                    d.index
                );
            }
            for (si, stage) in self.stages.iter().enumerate() {
                let dying = f.deaths.iter().filter(|d| d.stage == si).count();
                assert!(
                    dying < stage.workers.len(),
                    "stage {si} would lose every worker; keep an alive floor of one"
                );
            }
        }
        let started = Instant::now();
        // Everything the threads below share is bound as a reference here, so
        // their `move` closures copy the reference. Each stage picks the
        // cheapest lane layout that preserves the policy's pop order.
        let queues: &Vec<StageQueue> = &self
            .stages
            .iter()
            .map(|stage| {
                let kinds: Vec<DeviceKind> = stage.workers.iter().map(|w| w.kind).collect();
                StageQueue::new(ReadyLane::tuned(self.policy, &kinds))
            })
            .collect();
        let in_flight = &AtomicUsize::new(0);
        let done = &AtomicBool::new(false);
        type Counters = HashMap<(usize, DeviceKind, u8), u64>;
        let counters: &Mutex<Counters> = &Mutex::new(HashMap::new());
        let retries = &AtomicUsize::new(0);
        let deaths = &AtomicUsize::new(0);

        // Payload storage: SharedQueue holds only metadata, so payloads are
        // parked in a sharded side table keyed by buffer id, together with
        // per-buffer failure counts (the `attempt` field of `TaskRetried`).
        let dispatch = &DispatchState::new();

        // Graph routing state: each filter's round-robin out-edge cursor
        // (one short lock per task forwarded over an edge) and one delivery
        // counter per edge for the conservation report.
        let cursors = &Mutex::new(RoutingCursors::new(graph));
        let edge_counts: Vec<AtomicU64> = graph.edges().iter().map(|_| AtomicU64::new(0)).collect();

        #[cfg(test)]
        let wakes = &AtomicU64::new(0);
        // Every notify outside `shutdown`, issued only after a sleeper count
        // read under the condvar's lock came out nonzero.
        let wake = &|cv: &Condvar| {
            #[cfg(test)]
            wakes.fetch_add(1, Ordering::Relaxed);
            cv.notify_one();
        };

        let capacity = self.capacity;
        // Insert a buffer into a stage's lane. Everything except the push
        // itself stays outside the queue lock; the per-push weight vector is
        // skipped entirely for FIFO lanes.
        let push = &|stage: usize, buffer: DataBuffer, bounded: bool| {
            let sq = &queues[stage];
            let w = if sq.needs_weights {
                select::weights_for(weights, &buffer)
            } else {
                [0.0; 2]
            };
            let mut q = sq.queue.lock().unwrap();
            if bounded {
                if let Some(cap) = capacity {
                    while q.ready.len() >= cap && !done.load(Ordering::SeqCst) {
                        q.full += 1;
                        q = sq.space.wait(q).unwrap();
                        q.full -= 1;
                    }
                }
            }
            q.ready.push(buffer, w, None);
            let worker_asleep = q.idle > 0;
            drop(q);
            if worker_asleep {
                wake(&sq.cv);
            }
        };
        let enqueue = &|stage: usize, task: LocalTask, bounded: bool| {
            let (id, level) = (task.buffer.id.0, task.buffer.level);
            dispatch.park(id, task.payload);
            recorder.record_now(
                started,
                DeviceRef::node_scope(stage),
                EventKind::Enqueue { buffer: id, level },
            );
            push(stage, task.buffer, bounded);
        };
        // Send a task over a graph edge: tally it, trace it, enqueue it at
        // the edge's destination.
        let deliver = &|edge: usize, task: LocalTask, bounded: bool| {
            let to = graph.edge(edge).to;
            edge_counts[edge].fetch_add(1, Ordering::SeqCst);
            recorder.record_now(
                started,
                DeviceRef::node_scope(to),
                EventKind::EdgeEnqueued {
                    edge: edge as u32,
                    buffer: task.buffer.id.0,
                    level: task.buffer.level,
                },
            );
            enqueue(to, task, bounded);
        };
        // End the run: wake everyone to exit. Taking each queue lock before
        // notifying closes the missed-wakeup window against workers between
        // their done-check and wait; the injector is woken the same way.
        // This is the one place a poisoned lock is recovered: a thread that
        // panicked under a lane lock, or under the intake lock in the task
        // factory, must still wake every sleeper; anywhere else the run has
        // already panicked.
        let shutdown = &|| {
            done.store(true, Ordering::SeqCst);
            for q in queues {
                let _guard = q.queue.lock().unwrap_or_else(PoisonError::into_inner);
                q.cv.notify_all();
                q.space.notify_all();
            }
            if let Some(load) = load {
                let _guard = load.intake.lock().unwrap_or_else(PoisonError::into_inner);
                load.wake.notify_all();
            }
        };
        // Admitted open-loop tasks enter stage 0 unbounded, as sources do,
        // each holding its in-flight token before it is queued.
        let inject = &|admitted: &mut Vec<LocalTask>| {
            if !admitted.is_empty() {
                in_flight.fetch_add(admitted.len(), Ordering::SeqCst);
                for t in admitted.drain(..) {
                    enqueue(0, t, false);
                }
            }
        };
        // An open-loop run starts with one in-flight token held by the
        // injector thread, so the count cannot hit zero between arrivals.
        in_flight.store(
            sources.len() + usize::from(load.is_some()),
            Ordering::SeqCst,
        );
        for t in sources {
            enqueue(0, t, false);
        }
        if in_flight.load(Ordering::SeqCst) == 0 {
            // Nothing to run: the workers exit as soon as they start.
            shutdown();
        }

        // Only a trace or an open-loop latency reads a task's work span.
        let timed = recorder.is_enabled() || load.is_some();
        let outputs: Vec<LocalTask> = std::thread::scope(|scope| {
            if let Some(load) = load {
                scope.spawn(move || {
                    let _shutdown = ShutdownOnPanic(shutdown);
                    let now_ns = || started.elapsed().as_nanos() as u64;
                    let mut admitted = Vec::new();
                    // Keep holding the injector token until the schedule is
                    // offered and nothing waits at intake, so the run cannot
                    // end with work still parked there.
                    loop {
                        if done.load(Ordering::SeqCst) {
                            return;
                        }
                        let now = now_ns();
                        let (sample, drained) = {
                            let mut g = load.intake.lock().unwrap();
                            g.open.intake(now, load.make_task, |t, _| admitted.push(t));
                            (g.open.sample_due(now), g.open.drained())
                        };
                        inject(&mut admitted);
                        if drained {
                            break;
                        }
                        // Lane depths first, each lock on its own: the
                        // intake lock is never held with a lane lock.
                        let per_stage: Option<Vec<u64>> = sample.then(|| {
                            let depth = |sq: &StageQueue| sq.queue.lock().unwrap().ready.len();
                            queues.iter().map(|sq| depth(sq) as u64).collect()
                        });
                        let mut g = load.intake.lock().unwrap();
                        if let Some(per_stage) = per_stage {
                            g.open.sample(now, per_stage);
                        }
                        // Read under the lock: a completion may have moved
                        // the deadline since the intake above.
                        let deadline = if g.open.drained() {
                            now
                        } else {
                            g.open.next_deadline()
                        };
                        let now = now_ns();
                        if deadline > now + 300_000 && !done.load(Ordering::SeqCst) {
                            g.injector_wakes_at = Some(deadline);
                            let sleep = Duration::from_nanos(deadline - now - 150_000);
                            g = load.wake.wait_timeout(g, sleep).unwrap().0;
                            g.injector_wakes_at = None;
                        } else {
                            // The last stretch is finished by yielding, so
                            // arrivals land close to their schedule.
                            drop(g);
                            while now_ns() < deadline && !done.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                        }
                    }
                    if in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
                        shutdown();
                    }
                });
            }
            let mut workers = Vec::new();
            for (si, stage) in self.stages.iter().enumerate() {
                let mut kind_counts: HashMap<DeviceKind, usize> = HashMap::new();
                for spec in &stage.workers {
                    let spec = *spec;
                    let slot = kind_counts.entry(spec.kind).or_insert(0);
                    let origin = DeviceRef::worker(si, spec.kind, *slot);
                    *slot += 1;
                    let filter = Arc::clone(&stage.filter);
                    let feedback_edge = graph.feedback_edge(si);
                    let is_sink = graph.out_edges(si).is_empty();
                    let death_after = self.faults.as_ref().and_then(|f| {
                        f.deaths
                            .iter()
                            .find(|d| {
                                d.stage == si
                                    && d.kind == spec.kind
                                    && d.index == origin.index as usize
                            })
                            .map(|d| d.after)
                    });
                    let fault_p = self.faults.as_ref().map_or(0.0, |f| f.task_fail);
                    // Per-worker failure stream: reproducible draws per
                    // slot, independent of thread interleaving.
                    let mut frng = SimRng::new(self.faults.as_ref().map_or(0, |f| f.seed)).fork(
                        &format!("local-faults-{si}-{:?}-{}", spec.kind, origin.index),
                    );
                    let mut handled_n: u64 = 0;
                    workers.push(scope.spawn(move || {
                        let _shutdown = ShutdownOnPanic(shutdown);
                        // Per-worker state, reused task after task: the
                        // terminal outputs, the emit buffers, and the
                        // completions by level, merged into the shared
                        // report exactly once when the worker retires.
                        let mut outputs = Vec::new();
                        let mut fwd = Vec::new();
                        let mut back = Vec::new();
                        let mut admitted = Vec::new();
                        let mut tallies = [0u64; 256];
                        'work: loop {
                            // Pull the next buffer; the lane applies the
                            // policy's ordering rule (engine::select). The
                            // critical section is the pop alone.
                            let popped = {
                                let sq = &queues[si];
                                let mut q = sq.queue.lock().unwrap();
                                loop {
                                    if done.load(Ordering::SeqCst) {
                                        break None;
                                    }
                                    if let Some((buffer, _)) = q.ready.pop(spec.kind) {
                                        let producer_asleep = q.full > 0;
                                        drop(q);
                                        if producer_asleep {
                                            wake(&sq.space);
                                        }
                                        break Some(buffer);
                                    }
                                    q.idle += 1;
                                    q = sq.cv.wait(q).unwrap();
                                    q.idle -= 1;
                                }
                            };
                            let Some(popped) = popped else { break 'work };
                            if death_after.is_some_and(|after| handled_n >= after) {
                                // The slot dies holding one popped task:
                                // hand it back to the stage queue for the
                                // survivors and retire the thread. The
                                // in-flight count is untouched — the task
                                // is still owed its completion.
                                recorder.record_now(
                                    started,
                                    origin,
                                    EventKind::WorkerDied { inflight: 1 },
                                );
                                recorder.record_now(
                                    started,
                                    DeviceRef::node_scope(si),
                                    EventKind::TaskReassigned {
                                        buffer: popped.id.0,
                                        level: popped.level,
                                    },
                                );
                                deaths.fetch_add(1, Ordering::SeqCst);
                                push(si, popped, false);
                                break 'work;
                            }
                            if fault_p > 0.0 && frng.chance(fault_p) {
                                // Transient failure, decided before the
                                // handler runs: the attempt is discarded,
                                // the payload stays parked, the buffer
                                // re-enters the queue for another try.
                                let attempt = dispatch.bump_attempt(popped.id.0);
                                recorder.record_now(
                                    started,
                                    origin,
                                    EventKind::TaskRetried {
                                        buffer: popped.id.0,
                                        level: popped.level,
                                        attempt,
                                    },
                                );
                                retries.fetch_add(1, Ordering::SeqCst);
                                push(si, popped, false);
                                continue;
                            }
                            recorder.record_now(
                                started,
                                origin,
                                EventKind::Dispatch {
                                    buffer: popped.id.0,
                                    level: popped.level,
                                },
                            );
                            let payload = dispatch.claim(popped.id.0);
                            let task = LocalTask {
                                buffer: popped,
                                payload,
                            };
                            recorder.record_now(
                                started,
                                origin,
                                EventKind::Start {
                                    buffer: task.buffer.id.0,
                                    level: task.buffer.level,
                                },
                            );
                            let task_id = task.buffer.id.0;
                            let work_started = timed.then(Instant::now);
                            if let ExecMode::Emulated { scale } = spec.mode {
                                let modeled = match spec.kind {
                                    DeviceKind::Cpu => task.buffer.shape.cpu,
                                    DeviceKind::Gpu => task.buffer.shape.gpu_kernel,
                                };
                                spin_for(Duration::from_secs_f64(modeled.as_secs_f64() * scale));
                            }
                            let level = task.buffer.level;
                            filter.handle(
                                spec.kind,
                                task,
                                &mut Emitter {
                                    forward: &mut fwd,
                                    back: &mut back,
                                },
                            );
                            let proc_ns = work_started.map_or(0, |t| t.elapsed().as_nanos() as u64);
                            recorder.record_now(
                                started,
                                origin,
                                EventKind::Finish {
                                    buffer: task_id,
                                    level,
                                    proc_ns,
                                },
                            );
                            tallies[usize::from(level)] += 1;
                            handled_n += 1;
                            // Account emissions before retiring this task so
                            // the in-flight count can never dip to zero early.
                            let emitted = fwd.len() + back.len();
                            if emitted > 0 {
                                in_flight.fetch_add(emitted, Ordering::SeqCst);
                            }
                            for t in back.drain(..) {
                                // Recirculation bypasses the bound: a worker
                                // must not block on its own stage's queue. A
                                // declared feedback edge overrides the
                                // self-recirculation default.
                                match feedback_edge {
                                    Some(ei) => deliver(ei, t, false),
                                    None => enqueue(si, t, false),
                                }
                            }
                            for t in fwd.drain(..) {
                                // The matching out-edge; none means the task
                                // leaves the run. A sink decides that without
                                // touching the shared cursors.
                                let edge = if is_sink {
                                    None
                                } else {
                                    let targets = graph.route_forward(
                                        si,
                                        t.buffer.level,
                                        &mut cursors.lock().unwrap(),
                                    );
                                    assert!(
                                        targets.len() <= 1,
                                        "native runtime cannot duplicate a payload across \
                                         {} matching out-edges",
                                        targets.len()
                                    );
                                    targets.first().copied()
                                };
                                if let Some(ei) = edge {
                                    deliver(ei, t, true);
                                } else if let Some(load) = load {
                                    // Open-loop terminal emission: hand the
                                    // task to the latency callback, release
                                    // its admission slot, and inject what
                                    // that or the time made due before
                                    // retiring this one.
                                    let started_ns = work_started
                                        .expect("open-loop runs time every task")
                                        .duration_since(started)
                                        .as_nanos()
                                        as u64;
                                    let finished_ns = started.elapsed().as_nanos() as u64;
                                    (load.on_complete)(t, started_ns, finished_ns);
                                    let wake_injector = {
                                        let mut g = load.intake.lock().unwrap();
                                        let now = started.elapsed().as_nanos() as u64;
                                        g.open.completed();
                                        let make = load.make_task;
                                        g.open.intake(now, make, |t, _| admitted.push(t));
                                        g.injector_wakes_at.is_some_and(|at| {
                                            g.open.drained() || g.open.next_deadline() < at
                                        })
                                    };
                                    if wake_injector {
                                        wake(&load.wake);
                                    }
                                    inject(&mut admitted);
                                    in_flight.fetch_sub(1, Ordering::SeqCst);
                                } else {
                                    // Terminal emission: leaves the pipeline.
                                    outputs.push(t);
                                    in_flight.fetch_sub(1, Ordering::SeqCst);
                                }
                            }
                            if in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
                                // Last task retired.
                                shutdown();
                            }
                        }
                        // Worker retired (shutdown or scheduled death):
                        // fold the per-worker tallies into the shared
                        // report in one step.
                        if handled_n > 0 {
                            let mut c = counters.lock().unwrap();
                            for (level, &n) in tallies.iter().enumerate().filter(|(_, &n)| n > 0) {
                                *c.entry((si, spec.kind, level as u8)).or_insert(0) += n;
                            }
                        }
                        outputs
                    }));
                }
            }
            // `run` promises no output order: concatenate per worker. A
            // worker's panic resumes here with its payload.
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        #[cfg(test)]
        RUN_WAKES.with(|w| w.set(wakes.load(Ordering::Relaxed)));

        // Every worker has joined: move the counter map out instead of
        // cloning a snapshot under its lock.
        let handled = std::mem::take(&mut *counters.lock().unwrap());
        (
            outputs,
            LocalReport {
                handled,
                elapsed: started.elapsed(),
                retries: retries.load(Ordering::SeqCst) as u64,
                deaths: deaths.load(Ordering::SeqCst) as u64,
                edge_delivered: edge_counts
                    .iter()
                    .enumerate()
                    .map(|(ei, c)| (ei as u32, c.load(Ordering::SeqCst)))
                    .collect(),
            },
        )
    }

    /// Run the pipeline to completion *deterministically*: the same
    /// filters, executed through the engine's graph-aware sequential
    /// reference driver ([`crate::engine::sequential::run_graph`]) instead
    /// of free-running threads, with [`hosted`](Pipeline::hosted) as its
    /// completion hook. Each stage is one engine node with its reader
    /// scoped to its own input queue, so every edge of the graph (or of
    /// the implicit linear chain) runs its own ODDS/DQAA/DBSA instance.
    /// Assignments are a pure function of sources, weights, policy and
    /// `schedule` — identical on every run and directly comparable against
    /// the DES backend (the cross-backend parity tests rely on this).
    /// [`ExecMode`] busy-waits are skipped; handlers still run for real.
    ///
    /// The demand-driven protocol runs in full per stage: every worker
    /// slot keeps a request window (see
    /// [`with_request_window`](Pipeline::with_request_window)) against the
    /// stage's reader, DBSA answers under ODDS, and recirculated tasks
    /// preempt unread inputs, as in the simulator's recalculation loop.
    ///
    /// `schedule`'s joins and drains fire as the run's completion count
    /// crosses each action's threshold (a `Join`'s node is the stage
    /// index; its device index continues the stage's same-kind
    /// numbering); [`MembershipSchedule::none`] keeps the worker set
    /// static, as the threaded [`run`](Pipeline::run) always does. The
    /// schedule must keep at least one assignable worker per stage or the
    /// run stalls.
    pub fn run_deterministic<W: WeightProvider>(
        &self,
        sources: Vec<LocalTask>,
        weights: &W,
        schedule: MembershipSchedule,
    ) -> (Vec<LocalTask>, LocalReport) {
        let started = Instant::now();
        let devices: Vec<Vec<DeviceId>> = self
            .stages
            .iter()
            .enumerate()
            .map(|(si, stage)| {
                let mut kind_counts: HashMap<DeviceKind, usize> = HashMap::new();
                stage
                    .workers
                    .iter()
                    .map(|spec| {
                        let slot = kind_counts.entry(spec.kind).or_insert(0);
                        let d = DeviceId {
                            node: si,
                            kind: spec.kind,
                            index: *slot,
                        };
                        *slot += 1;
                        d
                    })
                    .collect()
            })
            .collect();
        let (mut host, seeds) = self.hosted(sources);
        let outcome = sequential::run_graph(
            SequentialConfig::new(Policy {
                kind: self.policy,
                request_size: self.request_window,
            }),
            &self.dataflow(),
            &devices,
            seeds,
            weights,
            schedule,
            |filter, kind, buffer| host.handle(filter, kind, buffer),
        );
        (
            host.outputs(&outcome.outputs),
            LocalReport {
                handled: outcome.assigned,
                elapsed: started.elapsed(),
                retries: 0,
                deaths: 0,
                edge_delivered: outcome.edge_delivered,
            },
        )
    }

    /// The pipeline's filters as the completion hook of a buffer-level
    /// run (the sequential reference, the DES, the TCP lockstep loop):
    /// the returned [`Hosted`] parks each task's payload by buffer id
    /// while the backend moves only the buffer, and the seeds are the
    /// sources' buffers entering filter 0.
    pub fn hosted(&self, sources: Vec<LocalTask>) -> (Hosted<'_>, Vec<(usize, DataBuffer)>) {
        let mut payloads = HashMap::with_capacity(sources.len());
        let seeds = sources
            .into_iter()
            .map(|t| {
                payloads.insert(t.buffer.id.0, t.payload);
                (0, t.buffer)
            })
            .collect();
        let host = Hosted {
            stages: &self.stages,
            payloads,
        };
        (host, seeds)
    }
}

/// A [`Pipeline`]'s filters run one completion at a time for a backend
/// that moves buffers, not payloads: see [`Pipeline::hosted`].
pub struct Hosted<'p> {
    stages: &'p [Stage],
    payloads: HashMap<u64, Box<dyn Any + Send>>,
}

impl Hosted<'_> {
    /// Run `filter`'s handler on `buffer` with the payload parked for it,
    /// park the payloads of what it emits, and return the emitted buffers
    /// for the backend to route: recirculated ones as feedback, forwarded
    /// ones downstream.
    pub fn handle(
        &mut self,
        filter: usize,
        kind: DeviceKind,
        buffer: &DataBuffer,
    ) -> GraphEmission {
        let payload = self
            .payloads
            .remove(&buffer.id.0)
            .expect("payload parked for dispatched buffer");
        let mut fwd = Vec::new();
        let mut back = Vec::new();
        self.stages[filter].filter.handle(
            kind,
            LocalTask {
                buffer: buffer.clone(),
                payload,
            },
            &mut Emitter {
                forward: &mut fwd,
                back: &mut back,
            },
        );
        let mut em = GraphEmission::default();
        for t in back {
            self.payloads.insert(t.buffer.id.0, t.payload);
            em.feedback.push(t.buffer);
        }
        for t in fwd {
            self.payloads.insert(t.buffer.id.0, t.payload);
            em.forward.push(t.buffer);
        }
        em
    }

    /// The run's output tasks: each buffer that left the graph with the
    /// payload parked for it.
    pub fn outputs(mut self, buffers: &[DataBuffer]) -> Vec<LocalTask> {
        buffers
            .iter()
            .map(|b| LocalTask {
                payload: self
                    .payloads
                    .remove(&b.id.0)
                    .expect("payload parked for output buffer"),
                buffer: b.clone(),
            })
            .collect()
    }
}

/// Busy-wait for a duration (models device occupancy without yielding the
/// core, as a real device-managing thread would).
fn spin_for(d: Duration) {
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferId;
    use crate::weights::OracleWeights;
    use anthill_estimator::TaskParams;
    use anthill_hetsim::{GpuParams, NbiaCostModel, TaskShape};
    use anthill_simkit::SimDuration;

    fn tiny_shape() -> TaskShape {
        TaskShape {
            cpu: SimDuration::from_micros(50),
            gpu_kernel: SimDuration::from_micros(50),
            bytes_in: 64,
            bytes_out: 64,
        }
    }

    fn task(id: u64, value: impl std::any::Any + Send) -> LocalTask {
        LocalTask::new(
            DataBuffer {
                id: BufferId(id),
                params: TaskParams::nums(&[id as f64]),
                shape: tiny_shape(),
                level: 0,
                task: id,
            },
            value,
        )
    }

    fn oracle() -> OracleWeights {
        OracleWeights::new(GpuParams::geforce_8800gt(), true)
    }

    /// Doubles the payload integer and forwards it.
    struct Doubler;
    impl LocalFilter for Doubler {
        fn handle(&self, _d: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
            let v = *task.payload.downcast::<u64>().expect("u64 payload");
            out.forward(LocalTask::new(task.buffer, v * 2));
        }
    }

    #[test]
    fn single_stage_processes_everything() {
        let mut p = Pipeline::new(PolicyKind::DdFcfs);
        p.add_stage(
            Arc::new(Doubler),
            vec![
                WorkerSpec {
                    kind: DeviceKind::Cpu,
                    mode: ExecMode::Native,
                };
                3
            ],
        );
        let (out, report) = p.run((0..100).map(|i| task(i, i)).collect(), &oracle());
        assert_eq!(out.len(), 100);
        assert_eq!(report.total(), 100);
        // Per-worker tallies merge into one report entry at join.
        assert_eq!(report.count(0, DeviceKind::Cpu, 0), 100);
        let mut values: Vec<u64> = out
            .into_iter()
            .map(|t| *t.payload.downcast::<u64>().unwrap())
            .collect();
        values.sort_unstable();
        assert_eq!(values, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn two_stages_chain() {
        let mut p = Pipeline::new(PolicyKind::DdFcfs);
        let workers = vec![
            WorkerSpec {
                kind: DeviceKind::Cpu,
                mode: ExecMode::Native,
            };
            2
        ];
        p.add_stage(Arc::new(Doubler), workers.clone());
        p.add_stage(Arc::new(Doubler), workers);
        let (out, report) = p.run((0..50).map(|i| task(i, 1u64)).collect(), &oracle());
        assert_eq!(out.len(), 50);
        assert!(out
            .iter()
            .all(|t| *t.payload.downcast_ref::<u64>().unwrap() == 4));
        assert_eq!(report.total(), 100);
    }

    /// Recirculates level-0 tasks once at level 1, then forwards.
    struct Recirculator;
    impl LocalFilter for Recirculator {
        fn handle(&self, _d: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
            if task.buffer.level == 0 {
                let mut buffer = task.buffer.clone();
                buffer.level = 1;
                buffer.id = BufferId(buffer.id.0 + 1_000_000);
                out.recirculate(LocalTask::new(buffer, ()));
            } else {
                out.forward(LocalTask::new(task.buffer, ()));
            }
        }
    }

    #[test]
    fn recirculation_reprocesses_at_next_level() {
        let mut p = Pipeline::new(PolicyKind::DdFcfs);
        p.add_stage(
            Arc::new(Recirculator),
            vec![
                WorkerSpec {
                    kind: DeviceKind::Cpu,
                    mode: ExecMode::Native,
                };
                3
            ],
        );
        let (out, report) = p.run((0..40).map(|i| task(i, ())).collect(), &oracle());
        assert_eq!(out.len(), 40);
        assert!(out.iter().all(|t| t.buffer.level == 1));
        assert_eq!(report.count(0, DeviceKind::Cpu, 0), 40);
        assert_eq!(report.count(0, DeviceKind::Cpu, 1), 40);
    }

    /// Forwards tasks unchanged (identity filter).
    struct Identity;
    impl LocalFilter for Identity {
        fn handle(&self, _d: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
            out.forward(task);
        }
    }

    fn run_wakes() -> u64 {
        RUN_WAKES.with(std::cell::Cell::get)
    }

    #[test]
    fn a_worker_that_never_sleeps_is_never_woken() {
        // Every task is queued before the worker starts, and the worker
        // retires the last one itself: no thread ever waits, so no notify
        // outside shutdown may be paid.
        let mut p = Pipeline::new(PolicyKind::DdWrr);
        p.add_stage(
            Arc::new(Identity),
            vec![WorkerSpec {
                kind: DeviceKind::Cpu,
                mode: ExecMode::Native,
            }],
        );
        let (out, report) = p.run((0..1_000).map(|i| task(i, ())).collect(), &oracle());
        assert_eq!(out.len(), 1_000);
        assert_eq!(report.total(), 1_000);
        assert_eq!(run_wakes(), 0, "a notify found no sleeper");
    }

    #[test]
    fn a_capacity_one_chain_wakes_its_sleepers() {
        // The stress chain of `tests/dispatch_exactness.rs`: downstream
        // workers start on empty lanes and producers fill capacity-1
        // lanes, so threads sleep and the hand-off must wake them.
        let mut p = Pipeline::new(PolicyKind::DdWrr).with_capacity(1);
        for _ in 0..3 {
            p.add_stage(
                Arc::new(Identity),
                vec![
                    WorkerSpec {
                        kind: DeviceKind::Cpu,
                        mode: ExecMode::Native,
                    },
                    WorkerSpec {
                        kind: DeviceKind::Gpu,
                        mode: ExecMode::Native,
                    },
                ],
            );
        }
        let (out, report) = p.run((0..300).map(|i| task(i, ())).collect(), &oracle());
        assert_eq!(out.len(), 300);
        assert_eq!(report.total(), 900);
        assert!(run_wakes() > 0, "sleepers were never woken");
    }

    #[test]
    fn ddwrr_steers_big_tasks_to_the_emulated_gpu() {
        // Mixed workload: many small tiles, some large. With sorted pops
        // the GPU worker should end up with the large ones.
        let model = NbiaCostModel::paper_calibrated();
        let mk = |id: u64, side: u32| {
            LocalTask::new(
                DataBuffer {
                    id: BufferId(id),
                    params: TaskParams::nums(&[f64::from(side)]),
                    shape: model.tile(side),
                    level: if side > 32 { 1 } else { 0 },
                    task: id,
                },
                (),
            )
        };
        let mut sources = Vec::new();
        for i in 0..60 {
            sources.push(mk(i, 32));
        }
        for i in 60..72 {
            sources.push(mk(i, 512));
        }
        // Scale keeps per-task times well above thread-spawn jitter so the
        // policy, not the OS scheduler, decides the assignment.
        let mut p = Pipeline::new(PolicyKind::DdWrr);
        p.add_stage(
            Arc::new(Identity),
            vec![
                WorkerSpec {
                    kind: DeviceKind::Cpu,
                    mode: ExecMode::Emulated { scale: 0.05 },
                },
                WorkerSpec {
                    kind: DeviceKind::Gpu,
                    mode: ExecMode::Emulated { scale: 0.05 },
                },
            ],
        );
        let (out, report) = p.run(sources, &oracle());
        assert_eq!(out.len(), 72);
        let gpu_high = report.count(0, DeviceKind::Gpu, 1);
        let cpu_high = report.count(0, DeviceKind::Cpu, 1);
        assert!(
            gpu_high >= 10 && cpu_high <= 2,
            "high-res: gpu {gpu_high}, cpu {cpu_high}"
        );
    }

    /// Panics on a poison value.
    struct Poison;
    impl LocalFilter for Poison {
        fn handle(&self, _d: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
            let v = *task.payload.downcast_ref::<u64>().expect("u64");
            assert!(v != 13, "poison task");
            out.forward(task);
        }
    }

    #[test]
    fn panicking_filter_propagates_instead_of_hanging() {
        let mut p = Pipeline::new(PolicyKind::DdFcfs);
        p.add_stage(
            Arc::new(Poison),
            vec![
                WorkerSpec {
                    kind: DeviceKind::Cpu,
                    mode: ExecMode::Native,
                };
                2
            ],
        );
        let sources: Vec<LocalTask> = (0..40).map(|i| task(i, i)).collect();
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.run(sources, &oracle())));
        assert!(result.is_err(), "the poison panic must propagate");
    }

    #[test]
    fn bounded_queues_still_process_everything() {
        let mut p = Pipeline::new(PolicyKind::DdFcfs).with_capacity(2);
        let workers = vec![
            WorkerSpec {
                kind: DeviceKind::Cpu,
                mode: ExecMode::Native,
            };
            2
        ];
        p.add_stage(Arc::new(Doubler), workers.clone());
        p.add_stage(Arc::new(Doubler), workers.clone());
        p.add_stage(Arc::new(Doubler), workers);
        let (out, report) = p.run((0..200u64).map(|i| task(i, i)).collect(), &oracle());
        assert_eq!(out.len(), 200);
        assert_eq!(report.total(), 600);
        let mut values: Vec<u64> = out
            .into_iter()
            .map(|t| *t.payload.downcast::<u64>().unwrap())
            .collect();
        values.sort_unstable();
        assert_eq!(values, (0..200).map(|i| i * 8).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_run_matches_threaded_results() {
        let mut p = Pipeline::new(PolicyKind::DdFcfs);
        let workers = vec![
            WorkerSpec {
                kind: DeviceKind::Cpu,
                mode: ExecMode::Native,
            };
            2
        ];
        p.add_stage(Arc::new(Doubler), workers.clone());
        p.add_stage(Arc::new(Doubler), workers);
        let (out, report) = p.run_deterministic(
            (0..50).map(|i| task(i, 1u64)).collect(),
            &oracle(),
            MembershipSchedule::none(),
        );
        assert_eq!(out.len(), 50);
        assert!(out
            .iter()
            .all(|t| *t.payload.downcast_ref::<u64>().unwrap() == 4));
        assert_eq!(report.total(), 100);
    }

    #[test]
    fn deterministic_run_recirculates_and_repeats_exactly() {
        let mk = || {
            let mut p = Pipeline::new(PolicyKind::DdWrr);
            p.add_stage(
                Arc::new(Recirculator),
                vec![
                    WorkerSpec {
                        kind: DeviceKind::Cpu,
                        mode: ExecMode::Native,
                    },
                    WorkerSpec {
                        kind: DeviceKind::Gpu,
                        mode: ExecMode::Native,
                    },
                ],
            );
            p.run_deterministic(
                (0..40).map(|i| task(i, ())).collect(),
                &oracle(),
                MembershipSchedule::none(),
            )
        };
        let (out_a, rep_a) = mk();
        let (out_b, rep_b) = mk();
        assert_eq!(out_a.len(), 40);
        assert!(out_a.iter().all(|t| t.buffer.level == 1));
        assert_eq!(rep_a.total(), 80, "40 originals + 40 recirculated");
        assert_eq!(rep_a.handled, rep_b.handled, "assignments are reproducible");
        let ids_a: Vec<u64> = out_a.iter().map(|t| t.buffer.id.0).collect();
        let ids_b: Vec<u64> = out_b.iter().map(|t| t.buffer.id.0).collect();
        assert_eq!(ids_a, ids_b, "output order is reproducible");
    }

    #[test]
    fn transient_failures_retry_until_every_task_completes() {
        let mut p = Pipeline::new(PolicyKind::DdFcfs).with_faults(LocalFaults::task_fail(3, 0.3));
        p.add_stage(
            Arc::new(Doubler),
            vec![
                WorkerSpec {
                    kind: DeviceKind::Cpu,
                    mode: ExecMode::Native,
                };
                2
            ],
        );
        let (out, report) = p.run((0..100).map(|i| task(i, i)).collect(), &oracle());
        assert_eq!(out.len(), 100);
        assert_eq!(report.total(), 100, "completions counted once per task");
        assert!(report.retries > 0, "a 30% failure rate must surface");
        let mut values: Vec<u64> = out
            .into_iter()
            .map(|t| *t.payload.downcast::<u64>().unwrap())
            .collect();
        values.sort_unstable();
        assert_eq!(
            values,
            (0..100).map(|i| i * 2).collect::<Vec<_>>(),
            "each task ran to completion exactly once"
        );
    }

    #[test]
    fn a_dying_worker_reassigns_its_task_and_the_survivors_finish() {
        let faults = LocalFaults {
            seed: 0,
            task_fail: 0.0,
            deaths: vec![LocalDeathSpec {
                stage: 0,
                kind: DeviceKind::Cpu,
                index: 0,
                after: 5,
            }],
        };
        let mut p = Pipeline::new(PolicyKind::DdFcfs).with_faults(faults);
        // The victim (slot 0) is instant and its sibling busy-waits 1 ms a
        // task, so the victim reaches its sixth pop long before the
        // sibling could drain the stage (same construction as
        // `tests/chaos.rs::killed_mid_stage_worker_conserves_every_edge`).
        p.add_stage(
            Arc::new(Doubler),
            vec![
                WorkerSpec {
                    kind: DeviceKind::Cpu,
                    mode: ExecMode::Native,
                },
                WorkerSpec {
                    kind: DeviceKind::Cpu,
                    mode: ExecMode::Emulated { scale: 20.0 },
                },
            ],
        );
        let (out, report) = p.run((0..80).map(|i| task(i, i)).collect(), &oracle());
        assert_eq!(out.len(), 80, "the dead slot's task was not lost");
        assert_eq!(report.total(), 80);
        assert_eq!(report.deaths, 1);
    }

    #[test]
    #[should_panic(expected = "alive floor")]
    fn killing_every_worker_of_a_stage_is_rejected() {
        let faults = LocalFaults {
            seed: 0,
            task_fail: 0.0,
            deaths: vec![LocalDeathSpec {
                stage: 0,
                kind: DeviceKind::Cpu,
                index: 0,
                after: 1,
            }],
        };
        let mut p = Pipeline::new(PolicyKind::DdFcfs).with_faults(faults);
        p.add_stage(
            Arc::new(Doubler),
            vec![WorkerSpec {
                kind: DeviceKind::Cpu,
                mode: ExecMode::Native,
            }],
        );
        let _ = p.run(vec![task(0, 0u64)], &oracle());
    }

    #[test]
    fn empty_source_returns_immediately() {
        let mut p = Pipeline::new(PolicyKind::DdFcfs);
        p.add_stage(
            Arc::new(Identity),
            vec![WorkerSpec {
                kind: DeviceKind::Cpu,
                mode: ExecMode::Native,
            }],
        );
        let (out, report) = p.run(Vec::new(), &oracle());
        assert!(out.is_empty());
        assert_eq!(report.total(), 0);
    }

    #[test]
    fn open_loop_run_completes_every_admitted_task() {
        use crate::engine::admission::OverloadPolicy;
        let mut p = Pipeline::new(PolicyKind::DdFcfs);
        p.add_stage(
            Arc::new(Doubler),
            vec![
                WorkerSpec {
                    kind: DeviceKind::Cpu,
                    mode: ExecMode::Native,
                };
                2
            ],
        );
        // 500 arrivals 20 µs apart; an uncontended run admits everything.
        let arrivals: Vec<u64> = (0..500u64).map(|i| i * 20_000).collect();
        let completions = Mutex::new(Vec::new());
        let report = p.run_load(
            &arrivals,
            &|i, arrival_ns| task(i, arrival_ns),
            LoadConfig {
                admission: AdmissionConfig {
                    inflight_cap: 64,
                    queue_cap: 256,
                    policy: OverloadPolicy::Block,
                },
                sample_every: Duration::from_millis(1),
            },
            &oracle(),
            &Recorder::disabled(),
            &|t, started_ns, finished_ns| {
                assert!(finished_ns >= started_ns);
                completions.lock().unwrap().push(t.buffer.id.0);
            },
        );
        assert_eq!(report.admission.generated, 500);
        assert_eq!(report.admission.admitted, 500);
        assert!(report.admission.conserved());
        assert_eq!(report.completed, 500);
        assert_eq!(report.local.total(), 500);
        let mut ids = completions.into_inner().unwrap();
        ids.sort_unstable();
        assert_eq!(ids, (0..500).collect::<Vec<_>>());
        assert!(!report.queue_depth.is_empty(), "sampled queue depths");
        assert!(
            report
                .queue_depth
                .iter()
                .all(|s| s.per_stage.iter().sum::<u64>() == s.ready),
            "per-stage depths must sum to the aggregate"
        );
    }

    #[test]
    fn open_loop_shed_policy_bounds_the_run_and_conserves() {
        use crate::engine::admission::OverloadPolicy;
        let mut p = Pipeline::new(PolicyKind::DdFcfs);
        p.add_stage(
            Arc::new(Doubler),
            vec![WorkerSpec {
                kind: DeviceKind::Cpu,
                // 50 µs modeled cost per task at scale 1.0: one worker
                // saturates well below the offered rate.
                mode: ExecMode::Emulated { scale: 1.0 },
            }],
        );
        // Offered every 5 µs against ~50 µs service: 10x overload.
        let arrivals: Vec<u64> = (0..2_000u64).map(|i| i * 5_000).collect();
        let report = p.run_load(
            &arrivals,
            &|i, arrival_ns| task(i, arrival_ns),
            LoadConfig {
                admission: AdmissionConfig {
                    inflight_cap: 8,
                    queue_cap: 16,
                    policy: OverloadPolicy::ShedOldest,
                },
                sample_every: Duration::from_millis(1),
            },
            &oracle(),
            &Recorder::disabled(),
            &|_t, _s, _f| {},
        );
        assert_eq!(report.admission.generated, 2_000);
        assert!(report.admission.conserved());
        assert!(report.admission.shed > 0, "overload must shed");
        assert_eq!(report.completed, report.admission.admitted);
        // Bounded: intake never exceeded the configured queue cap.
        assert!(report.queue_depth.iter().all(|s| s.intake <= 16));
    }

    #[test]
    fn graph_pipeline_matches_the_implicit_chain() {
        // A 3-stage chain expressed as an explicit graph is the linear
        // default, per-edge deliveries included.
        let mk = |graph: bool| {
            let mut p = Pipeline::new(PolicyKind::DdFcfs);
            if graph {
                p = p.with_graph(DataflowGraph::pipeline(&["a", "b", "c"]));
            }
            let workers = vec![
                WorkerSpec {
                    kind: DeviceKind::Cpu,
                    mode: ExecMode::Native,
                };
                2
            ];
            p.add_stage(Arc::new(Doubler), workers.clone());
            p.add_stage(Arc::new(Doubler), workers.clone());
            p.add_stage(Arc::new(Doubler), workers);
            p.run((0..60).map(|i| task(i, 1u64)).collect(), &oracle())
        };
        let (out_g, rep_g) = mk(true);
        let (out_l, rep_l) = mk(false);
        assert_eq!(out_g.len(), 60);
        assert_eq!(out_l.len(), 60);
        assert_eq!(rep_g.total(), rep_l.total());
        assert_eq!(rep_g.edge_delivered.get(&0), Some(&60));
        assert_eq!(rep_g.edge_delivered.get(&1), Some(&60));
        assert_eq!(rep_l.edge_delivered, rep_g.edge_delivered);
        assert!(out_g
            .iter()
            .all(|t| *t.payload.downcast_ref::<u64>().unwrap() == 8));
    }

    #[test]
    fn graph_diamond_splits_round_robin_and_conserves_per_edge() {
        let mut p = Pipeline::new(PolicyKind::DdFcfs)
            .with_graph(DataflowGraph::diamond("src", "left", "right", "sink"));
        let workers = vec![
            WorkerSpec {
                kind: DeviceKind::Cpu,
                mode: ExecMode::Native,
            };
            2
        ];
        p.add_stage(Arc::new(Identity), workers.clone());
        p.add_stage(Arc::new(Doubler), workers.clone());
        p.add_stage(Arc::new(Doubler), workers.clone());
        p.add_stage(Arc::new(Identity), workers);
        let (out, report) = p.run((0..40).map(|i| task(i, 1u64)).collect(), &oracle());
        assert_eq!(out.len(), 40);
        assert_eq!(report.total(), 120, "src + one branch + sink per task");
        // The split cursor alternates deterministically regardless of
        // thread interleaving: exactly half the tasks take each branch.
        assert_eq!(report.edge_delivered.get(&0), Some(&20));
        assert_eq!(report.edge_delivered.get(&1), Some(&20));
        assert_eq!(report.edge_delivered.get(&2), Some(&20));
        assert_eq!(report.edge_delivered.get(&3), Some(&20));
        assert!(out
            .iter()
            .all(|t| *t.payload.downcast_ref::<u64>().unwrap() == 2));
    }

    #[test]
    fn feedback_edge_routes_recirculation_upstream() {
        use crate::graph::{EdgeSpec, FilterSpec};
        // B's recirculation travels B -> A over a declared feedback edge
        // instead of re-entering B's own queue: every task makes two full
        // round trips through the chain.
        let g = DataflowGraph::new(
            vec![FilterSpec::new("a"), FilterSpec::new("b")],
            vec![EdgeSpec::round_robin(0, 1), EdgeSpec::feedback(1, 0)],
        )
        .expect("valid feedback graph");
        let mut p = Pipeline::new(PolicyKind::DdFcfs).with_graph(g);
        let workers = vec![
            WorkerSpec {
                kind: DeviceKind::Cpu,
                mode: ExecMode::Native,
            };
            2
        ];
        p.add_stage(Arc::new(Identity), workers.clone());
        p.add_stage(Arc::new(Recirculator), workers);
        let (out, report) = p.run((0..40).map(|i| task(i, ())).collect(), &oracle());
        assert_eq!(out.len(), 40);
        assert!(out.iter().all(|t| t.buffer.level == 1));
        assert_eq!(report.count(0, DeviceKind::Cpu, 0), 40);
        assert_eq!(report.count(0, DeviceKind::Cpu, 1), 40);
        assert_eq!(report.count(1, DeviceKind::Cpu, 0), 40);
        assert_eq!(report.count(1, DeviceKind::Cpu, 1), 40);
        assert_eq!(report.edge_delivered.get(&0), Some(&80));
        assert_eq!(report.edge_delivered.get(&1), Some(&40));
    }

    #[test]
    fn deterministic_graph_diamond_is_reproducible() {
        let mk = || {
            let mut p = Pipeline::new(PolicyKind::DdWrr)
                .with_graph(DataflowGraph::diamond("src", "left", "right", "sink"));
            let workers = vec![
                WorkerSpec {
                    kind: DeviceKind::Cpu,
                    mode: ExecMode::Native,
                },
                WorkerSpec {
                    kind: DeviceKind::Gpu,
                    mode: ExecMode::Native,
                },
            ];
            for _ in 0..4 {
                p.add_stage(Arc::new(Doubler), workers.clone());
            }
            p.run_deterministic(
                (0..32).map(|i| task(i, 1u64)).collect(),
                &oracle(),
                MembershipSchedule::none(),
            )
        };
        let (out_a, rep_a) = mk();
        let (out_b, rep_b) = mk();
        assert_eq!(out_a.len(), 32);
        assert!(out_a
            .iter()
            .all(|t| *t.payload.downcast_ref::<u64>().unwrap() == 8));
        assert_eq!(rep_a.total(), 96, "src + one branch + sink per task");
        assert_eq!(rep_a.handled, rep_b.handled, "assignments are reproducible");
        assert_eq!(rep_a.edge_delivered, rep_b.edge_delivered);
        assert_eq!(rep_a.edge_delivered.get(&0), Some(&16));
        assert_eq!(rep_a.edge_delivered.get(&1), Some(&16));
        assert_eq!(rep_a.edge_delivered.get(&2), Some(&16));
        assert_eq!(rep_a.edge_delivered.get(&3), Some(&16));
        let ids_a: Vec<u64> = out_a.iter().map(|t| t.buffer.id.0).collect();
        let ids_b: Vec<u64> = out_b.iter().map(|t| t.buffer.id.0).collect();
        assert_eq!(ids_a, ids_b, "output order is reproducible");
    }

    #[test]
    #[should_panic(expected = "broadcast")]
    fn broadcast_graphs_are_rejected_by_the_native_runtime() {
        use crate::graph::{EdgeSpec, FilterSpec};
        let g = DataflowGraph::new(
            vec![
                FilterSpec::new("src"),
                FilterSpec::new("a"),
                FilterSpec::new("b"),
            ],
            vec![EdgeSpec::broadcast(0, 1), EdgeSpec::broadcast(0, 2)],
        )
        .expect("valid broadcast graph");
        let _ = Pipeline::new(PolicyKind::DdFcfs).with_graph(g);
    }
}
