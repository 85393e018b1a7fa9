//! The coordinator-side net driver: [`Transport`] + [`Executor`] over TCP.
//!
//! Two run modes share the engine, the protocol, and the worker binary:
//!
//! * [`run_deterministic`] — a lockstep loop structured exactly like the
//!   sequential reference driver: one FIFO message inbox, a
//!   [`VirtualClock`] ticked once per message, batch limit 1. The only
//!   difference is that every request hop and every execution makes a
//!   *real* socket round trip — the frame is written, the worker answers,
//!   and the coordinator blocks for that answer at the moment the
//!   sequential driver would have handled the message. Because the engine
//!   sees callbacks in the identical order, per-device assignment counts
//!   are bit-identical to the sequential/native/DES backends (the
//!   policy-parity suite pins this).
//! * [`run_concurrent`] — a wall-clock event loop: every connection is a
//!   non-blocking socket multiplexed by one [`Reactor`] on the coordinator
//!   thread, workers genuinely execute in parallel, request timeouts fire
//!   from a timer heap, and worker death (process kill, connection sever,
//!   heartbeat silence) maps onto the engine's recovery path
//!   ([`Engine::worker_died`] re-homes in-flight buffers).
//!
//! Backpressure is the engine's own demand-driven window: a worker slot
//! holds at most `max_window` outstanding requests and
//! [`NetConfig::batch_limit`] in-flight `Deliver` frames, so neither side
//! ever buffers an unbounded frame backlog.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use anthill_hetsim::{DeviceId, DeviceKind};
use anthill_simkit::{SimDuration, SimTime};

use crate::buffer::DataBuffer;
use crate::engine::sequential::GraphEmission;
use crate::engine::{
    AdmissionConfig, AdmissionController, AdmissionCounters, Clock, Engine, EngineConfig, Executor,
    Offer, Transport, VirtualClock, WallClock, WorkerRef,
};
use crate::faults::{ConnectionDropSpec, RecoveryConfig};
use crate::membership::{Autoscaler, ScaleAction, WorkerPool};
use crate::obs::{DeviceRef, EventKind, Recorder};
use crate::policy::Policy;
use crate::weights::WeightProvider;

use super::conn::WireStats;
use super::eventloop::{Pump, Reactor};
use super::frame::{
    encode_deliver_at_into, encode_deliver_into, encode_frame, encode_frame_into, Frame,
    FrameDecoder, FrameError,
};
use super::worker::modeled_proc_ns;

/// One established coordinator↔worker connection and the device identity
/// its slot schedules for. The caller owns connection establishment
/// (loopback listener, spawned child process, remote host — the driver
/// does not care).
#[derive(Debug)]
pub struct NetWorkerConn {
    /// The device the worker slot schedules for.
    pub device: DeviceId,
    /// The connected stream, handshake not yet performed.
    pub stream: TcpStream,
}

/// Configuration of a networked run.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The scheduling policy.
    pub policy: Policy,
    /// Upper bound on any worker's request window.
    pub max_window: usize,
    /// Engine recovery knobs (timeouts/retries; concurrent mode only —
    /// the lockstep driver never arms timers, like the sequential one).
    pub recovery: RecoveryConfig,
    /// Observability sink for engine events and the re-stamped
    /// `remote_start`/`remote_finish` worker spans.
    pub recorder: Recorder,
    /// Scheduled connection severs (net-backend fault injection).
    pub drops: Vec<ConnectionDropSpec>,
    /// Hard wall-clock bound on the whole run; exceeding it aborts with
    /// an error so a wedged run can never hang CI.
    pub deadline: Duration,
    /// Declare a worker dead after this much silence (no frame of any
    /// kind, heartbeats included). `None` disables the check; EOF on the
    /// connection is always fatal regardless.
    pub heartbeat_timeout: Option<Duration>,
    /// Upper bound on buffers per `Deliver` frame (the in-flight frame
    /// bound; 1 matches the sequential reference driver and is required
    /// for cross-backend parity).
    pub batch_limit: usize,
}

impl NetConfig {
    /// Defaults: the given policy, a 256-wide window cap, recovery off,
    /// no recording, no severs, a 60 s deadline, batch limit 1.
    pub fn new(policy: Policy) -> NetConfig {
        NetConfig {
            policy,
            max_window: 256,
            recovery: RecoveryConfig::disabled(),
            recorder: Recorder::disabled(),
            drops: Vec::new(),
            deadline: Duration::from_secs(60),
            heartbeat_timeout: None,
            batch_limit: 1,
        }
    }
}

/// Result of a networked run.
#[derive(Debug, Clone)]
pub struct NetOutcome {
    /// `(device kind, level) -> buffers completed`.
    pub assigned: std::collections::HashMap<(DeviceKind, u8), u64>,
    /// Completion order, as `(device kind, buffer id)`.
    pub dispatch_order: Vec<(DeviceKind, u64)>,
    /// Total buffers completed.
    pub total: u64,
    /// Worker slots that died during the run (sever, EOF, silence).
    pub deaths: u32,
    /// Wire-level counters of the concurrent coordinator. Zeroed on the
    /// lockstep modes, which do not track per-connection counters.
    pub wire: WireStats,
}

fn proto_err(e: FrameError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Coordinator-side state of one worker connection.
struct SlotIo {
    stream: TcpStream,
    dec: FrameDecoder,
    /// Reused encode buffer: frames are serialized here and written out,
    /// so the blocking path allocates once per slot, not once per frame.
    scratch: Vec<u8>,
    /// Frames successfully written to this slot.
    frames_sent: u64,
    /// Sever the connection once `frames_sent` reaches this.
    sever_after: Option<u64>,
    /// Writable? Cleared on sever or write failure; the outer loop reaps
    /// the slot into `Engine::worker_died`.
    open: bool,
}

impl SlotIo {
    fn new(stream: TcpStream, sever_after: Option<u64>) -> SlotIo {
        SlotIo {
            stream,
            dec: FrameDecoder::new(),
            scratch: Vec::new(),
            frames_sent: 0,
            sever_after,
            open: true,
        }
    }

    /// Apply the sever schedule; returns false if the slot just severed
    /// (or was already closed) and the write must not happen.
    fn pre_write(&mut self) -> bool {
        if !self.open {
            return false;
        }
        if let Some(limit) = self.sever_after {
            if self.frames_sent >= limit {
                let _ = self.stream.shutdown(Shutdown::Both);
                self.open = false;
                return false;
            }
        }
        true
    }

    /// Write the frame serialized in `scratch`. Failures close the slot
    /// instead of propagating: the engine learns about the death via the
    /// reap path, exactly as it would for a real crashed peer.
    fn write_scratch(&mut self) {
        use std::io::Write as _;
        if self.stream.write_all(&self.scratch).is_err() {
            let _ = self.stream.shutdown(Shutdown::Both);
            self.open = false;
        } else {
            self.frames_sent += 1;
        }
    }

    /// Write one frame, applying the sever schedule.
    fn write(&mut self, frame: &Frame) {
        if !self.pre_write() {
            return;
        }
        self.scratch.clear();
        encode_frame_into(&mut self.scratch, frame);
        self.write_scratch();
    }

    /// Write a `Deliver` frame encoded straight from the shared
    /// `Arc<DataBuffer>`s the inflight table keeps — no payload clone.
    fn write_deliver(&mut self, kind: DeviceKind, buffers: &[Arc<DataBuffer>]) {
        if !self.pre_write() {
            return;
        }
        self.scratch.clear();
        encode_deliver_into(&mut self.scratch, kind, buffers);
        self.write_scratch();
    }

    /// Graph-mode counterpart of [`SlotIo::write_deliver`].
    fn write_deliver_at(&mut self, filter: u32, kind: DeviceKind, buffers: &[Arc<DataBuffer>]) {
        if !self.pre_write() {
            return;
        }
        self.scratch.clear();
        encode_deliver_at_into(&mut self.scratch, filter, kind, buffers);
        self.write_scratch();
    }

    /// Blocking-read the next non-heartbeat frame, bounded by `deadline`.
    fn read_frame(&mut self, deadline: Instant) -> io::Result<Frame> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.dec.next_frame().map_err(proto_err)? {
                Some(Frame::Heartbeat { .. }) => continue,
                Some(f) => return Ok(f),
                None => {}
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "deadline while awaiting frame",
                ));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "worker connection closed",
                    ))
                }
                Ok(n) => self.dec.feed(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Re-home an inflight table for `Engine::worker_died`: the driver holds
/// the only strong reference once the wire copy is gone, so this is a
/// move, not a payload clone, on the common path.
fn unwrap_inflight(bufs: Vec<Arc<DataBuffer>>) -> Vec<DataBuffer> {
    bufs.into_iter()
        .map(|a| Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()))
        .collect()
}

fn sever_for(drops: &[ConnectionDropSpec], node: usize, worker: usize) -> Option<u64> {
    drops
        .iter()
        .find(|d| d.node == node && d.worker == worker)
        .map(|d| d.after_frames)
}

/// `Hello` handshake on every connection: send the slot identity, expect
/// it echoed verbatim. A slot that fails stays in the topology but is
/// reaped as dead before the first kick.
fn handshake(slots: &mut [SlotIo], deadline: Instant) {
    for (i, slot) in slots.iter_mut().enumerate() {
        let hello = Frame::Hello {
            node: 0,
            slot: i as u32,
        };
        slot.write(&hello);
        if !slot.open {
            continue;
        }
        match slot.read_frame(deadline) {
            Ok(echo) if echo == hello => {}
            _ => {
                let _ = slot.stream.shutdown(Shutdown::Both);
                slot.open = false;
            }
        }
    }
}

// ------------------------------------------------------------- lockstep

enum Msg {
    Request {
        from: WorkerRef,
        reader: usize,
        req_id: u64,
    },
    Exec {
        worker: WorkerRef,
        buffer: Arc<DataBuffer>,
    },
}

/// Lockstep driver: the sequential reference driver's FIFO inbox, plus a
/// socket write at each send so every hop crosses the wire.
struct LockstepDriver {
    inbox: VecDeque<Msg>,
    slots: Vec<SlotIo>,
    inflight: Vec<Vec<Arc<DataBuffer>>>,
    dead: Vec<bool>,
}

impl Transport for LockstepDriver {
    fn send_request(&mut self, from: WorkerRef, reader: usize, req_id: u64) {
        self.slots[from.worker].write(&Frame::Request {
            reader: reader as u32,
            req_id,
        });
        self.inbox.push_back(Msg::Request {
            from,
            reader,
            req_id,
        });
    }
}

impl Executor for LockstepDriver {
    fn batch_limit(&mut self, _worker: WorkerRef) -> usize {
        1
    }

    fn launch(&mut self, worker: WorkerRef, batch: Vec<DataBuffer>) {
        for buffer in batch {
            // One shared allocation serves the wire encode, the inflight
            // table, and the inbox — the old path cloned the payload
            // twice per delivery.
            let buffer = Arc::new(buffer);
            self.slots[worker.worker]
                .write_deliver(worker.device.kind, std::slice::from_ref(&buffer));
            self.inflight[worker.worker].push(Arc::clone(&buffer));
            self.inbox.push_back(Msg::Exec { worker, buffer });
        }
    }
}

/// Retire every slot whose connection failed since the last engine call.
fn reap<C: Clock, W: WeightProvider>(
    engine: &mut Engine<C, W>,
    drv: &mut LockstepDriver,
    deaths: &mut u32,
) {
    for slot in 0..drv.slots.len() {
        if !drv.slots[slot].open && !drv.dead[slot] {
            drv.dead[slot] = true;
            *deaths += 1;
            let inflight = unwrap_inflight(std::mem::take(&mut drv.inflight[slot]));
            engine.worker_died(0, slot, inflight, drv);
        }
    }
}

/// Run `sources` through one engine node whose workers live behind the
/// given connections, in lockstep deterministic mode (see the module
/// docs). Worker behaviour — identity forwarding, recirculation — is
/// whatever the remote side was started with.
pub fn run_deterministic<W: WeightProvider>(
    cfg: NetConfig,
    workers: Vec<NetWorkerConn>,
    sources: Vec<DataBuffer>,
    weights: W,
) -> io::Result<NetOutcome> {
    let hard_deadline = Instant::now() + cfg.deadline;
    let clock = VirtualClock::new();
    let mut engine = Engine::new(
        EngineConfig {
            policy: cfg.policy,
            max_window: cfg.max_window,
            recovery: RecoveryConfig::disabled(),
        },
        clock.clone(),
        weights,
        cfg.recorder.clone(),
    );
    let node = engine.add_node();
    let mut drv = LockstepDriver {
        inbox: VecDeque::new(),
        slots: Vec::with_capacity(workers.len()),
        inflight: vec![Vec::new(); workers.len()],
        dead: vec![false; workers.len()],
    };
    for (i, conn) in workers.into_iter().enumerate() {
        engine.add_worker(node, conn.device);
        conn.stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .ok();
        conn.stream.set_nodelay(true).ok();
        drv.slots
            .push(SlotIo::new(conn.stream, sever_for(&cfg.drops, node, i)));
    }
    assert!(!drv.slots.is_empty(), "no worker connections configured");
    handshake(&mut drv.slots, hard_deadline);
    for b in sources {
        engine.seed_reader(node, b);
    }

    let rec = cfg.recorder.clone();
    let mut deaths = 0u32;
    reap(&mut engine, &mut drv, &mut deaths);
    // Kick every live worker's requester, as the sequential driver does.
    for w in engine.worker_refs() {
        if !drv.dead[w.worker] {
            engine.data_arrived(w.node, w.worker, u64::MAX, None, &mut drv);
        }
    }

    let mut dispatch_order = Vec::new();
    let mut tick = 0u64;
    loop {
        reap(&mut engine, &mut drv, &mut deaths);
        let Some(msg) = drv.inbox.pop_front() else {
            break;
        };
        tick += 1;
        clock.set(SimTime(tick));
        match msg {
            Msg::Request {
                from,
                reader,
                req_id,
            } => {
                if drv.dead[from.worker] || !drv.slots[from.worker].open {
                    continue; // the request died with its connection
                }
                match drv.slots[from.worker].read_frame(hard_deadline) {
                    Ok(Frame::Request {
                        req_id: echoed_id, ..
                    }) if echoed_id == req_id => {
                        let buffer = engine.answer_request(reader, from.device.kind);
                        engine.data_arrived(from.node, from.worker, req_id, buffer, &mut drv);
                    }
                    Ok(_) | Err(_) => {
                        let _ = drv.slots[from.worker].stream.shutdown(Shutdown::Both);
                        drv.slots[from.worker].open = false;
                    }
                }
            }
            Msg::Exec { worker, buffer } => {
                if drv.dead[worker.worker] || !drv.slots[worker.worker].open {
                    continue; // already re-homed by reap
                }
                let completion =
                    drv.slots[worker.worker]
                        .read_frame(hard_deadline)
                        .and_then(|first| {
                            let second = drv.slots[worker.worker].read_frame(hard_deadline)?;
                            Ok((first, second))
                        });
                match completion {
                    Ok((
                        Frame::Complete {
                            buffer: done,
                            proc_ns: _,
                            span,
                            recirculated,
                        },
                        Frame::BatchDone,
                    )) if done.id == buffer.id => {
                        drv.inflight[worker.worker].retain(|b| b.id != done.id);
                        dispatch_order.push((worker.device.kind, done.id.0));
                        // Charge the modeled time (computed locally from the
                        // shape, identical to what the worker reports) so the
                        // engine's DQAA/accounting inputs match the other
                        // backends bit-for-bit.
                        let proc =
                            SimDuration(modeled_proc_ns(buffer.as_ref(), worker.device.kind));
                        let ts = clock.now().as_nanos();
                        let dev = DeviceRef::device(worker.device);
                        rec.record(
                            ts,
                            dev,
                            EventKind::RemoteStart {
                                buffer: done.id.0,
                                level: done.level,
                            },
                        );
                        rec.record(
                            ts,
                            dev,
                            EventKind::RemoteFinish {
                                buffer: done.id.0,
                                level: done.level,
                                proc_ns: span.end_ns.saturating_sub(span.start_ns),
                            },
                        );
                        engine.task_finished(worker.node, worker.worker, &done, proc);
                        for r in recirculated {
                            engine.recirculate(node, r, &mut drv);
                        }
                        engine.worker_idle(worker.node, worker.worker, &[proc], &mut drv);
                    }
                    Ok(_) | Err(_) => {
                        let _ = drv.slots[worker.worker].stream.shutdown(Shutdown::Both);
                        drv.slots[worker.worker].open = false;
                    }
                }
            }
        }
    }

    shutdown_slots(&mut drv.slots);
    Ok(NetOutcome {
        assigned: engine.tasks_by().clone(),
        dispatch_order,
        total: engine.total_done(),
        deaths,
        wire: WireStats::default(),
    })
}

fn shutdown_slots(slots: &mut [SlotIo]) {
    for slot in slots.iter_mut() {
        if slot.open {
            slot.write(&Frame::Shutdown);
            let _ = slot.stream.shutdown(Shutdown::Write);
        }
    }
}

// ------------------------------------------------------ lockstep (graph)

/// Result of a graph-mode networked run ([`run_graph_deterministic`]).
#[derive(Debug, Clone)]
pub struct NetGraphOutcome {
    /// `(filter, device kind, level) -> buffers completed`.
    pub assigned: std::collections::HashMap<(usize, DeviceKind, u8), u64>,
    /// Completion order, as `(filter, device kind, buffer id)`.
    pub dispatch_order: Vec<(usize, DeviceKind, u64)>,
    /// Buffers that left the graph (completed at a filter with no
    /// matching out-edge), in completion order.
    pub outputs: Vec<DataBuffer>,
    /// `edge id -> buffers delivered` over every dataflow edge.
    pub edge_delivered: std::collections::HashMap<u32, u64>,
    /// Total buffers completed, summed over every filter.
    pub total: u64,
    /// Worker slots that died during the run (sever, EOF, silence).
    pub deaths: u32,
}

/// Lockstep driver for DAG runs: one engine node per filter, slots keyed
/// by `(filter, slot)`, and `DeliverAt`/`CompleteAt` frames carrying the
/// filter id so the stateless worker echoes where the completion routes.
struct GraphLockstepDriver {
    inbox: VecDeque<Msg>,
    slots: Vec<Vec<SlotIo>>,
    inflight: Vec<Vec<Vec<Arc<DataBuffer>>>>,
    dead: Vec<Vec<bool>>,
}

impl Transport for GraphLockstepDriver {
    fn send_request(&mut self, from: WorkerRef, reader: usize, req_id: u64) {
        self.slots[from.node][from.worker].write(&Frame::Request {
            reader: reader as u32,
            req_id,
        });
        self.inbox.push_back(Msg::Request {
            from,
            reader,
            req_id,
        });
    }
}

impl Executor for GraphLockstepDriver {
    fn batch_limit(&mut self, _worker: WorkerRef) -> usize {
        1
    }

    fn launch(&mut self, worker: WorkerRef, batch: Vec<DataBuffer>) {
        for buffer in batch {
            let buffer = Arc::new(buffer);
            self.slots[worker.node][worker.worker].write_deliver_at(
                worker.node as u32,
                worker.device.kind,
                std::slice::from_ref(&buffer),
            );
            self.inflight[worker.node][worker.worker].push(Arc::clone(&buffer));
            self.inbox.push_back(Msg::Exec { worker, buffer });
        }
    }
}

/// Retire every slot whose connection failed since the last engine call
/// (graph variant of [`reap`]).
fn reap_graph<C: Clock, W: WeightProvider>(
    engine: &mut Engine<C, W>,
    drv: &mut GraphLockstepDriver,
    deaths: &mut u32,
) {
    for node in 0..drv.slots.len() {
        for slot in 0..drv.slots[node].len() {
            if !drv.slots[node][slot].open && !drv.dead[node][slot] {
                drv.dead[node][slot] = true;
                *deaths += 1;
                let inflight = unwrap_inflight(std::mem::take(&mut drv.inflight[node][slot]));
                engine.worker_died(node, slot, inflight, drv);
            }
        }
    }
}

/// Run a replicated-filter DAG over TCP workers in lockstep deterministic
/// mode. `workers[f]` holds the connections serving filter `f`; seeds are
/// `(filter, buffer)` pairs entering that filter's input queue. Each
/// filter's workers request only from their own per-edge input stream
/// (ODDS/DQAA/DBSA act per edge), completions at filter *i* are routed to
/// filter *i+1* by the graph's routing rule, and buffers with no matching
/// out-edge leave the run as outputs. Single-filter runs should use
/// [`run_deterministic`], whose wire traffic stays byte-identical to the
/// pre-graph protocol.
pub fn run_graph_deterministic<W: WeightProvider>(
    cfg: NetConfig,
    graph: &crate::graph::DataflowGraph,
    workers: Vec<Vec<NetWorkerConn>>,
    seeds: Vec<(usize, DataBuffer)>,
    weights: W,
) -> io::Result<NetGraphOutcome> {
    run_graph_deterministic_with(cfg, graph, workers, seeds, weights, &mut |_, _, _| None)
}

/// [`run_graph_deterministic`] with a coordinator-side emission hook.
///
/// `emit(filter, kind, completed)` runs once per completion. `None` keeps
/// the default routing: worker-echoed recirculated buffers go over the
/// filter's feedback edge and the completed buffer forwards down the
/// graph. `Some(emission)` overrides both — the hook's feedback/forward
/// buffers are routed instead and the worker's recirculated copies are
/// ignored. This is how application semantics that live at the
/// coordinator (e.g. NBIA's hypothesis test deciding recirculation) drive
/// a DAG whose workers model only the compute cost.
pub fn run_graph_deterministic_with<W: WeightProvider>(
    cfg: NetConfig,
    graph: &crate::graph::DataflowGraph,
    workers: Vec<Vec<NetWorkerConn>>,
    seeds: Vec<(usize, DataBuffer)>,
    weights: W,
    emit: &mut dyn FnMut(usize, DeviceKind, &DataBuffer) -> Option<GraphEmission>,
) -> io::Result<NetGraphOutcome> {
    assert_eq!(
        workers.len(),
        graph.n_filters(),
        "one worker connection set per graph filter"
    );
    let hard_deadline = Instant::now() + cfg.deadline;
    let clock = VirtualClock::new();
    let mut engine = Engine::new(
        EngineConfig {
            policy: cfg.policy,
            max_window: cfg.max_window,
            recovery: RecoveryConfig::disabled(),
        },
        clock.clone(),
        weights,
        cfg.recorder.clone(),
    );
    let mut drv = GraphLockstepDriver {
        inbox: VecDeque::new(),
        slots: Vec::with_capacity(workers.len()),
        inflight: Vec::new(),
        dead: Vec::new(),
    };
    for (f, conns) in workers.into_iter().enumerate() {
        let node = engine.add_node();
        debug_assert_eq!(node, f, "engine nodes must mirror filter ids");
        engine.set_reader_scope(f, vec![f]);
        let mut ios = Vec::with_capacity(conns.len());
        for (i, conn) in conns.into_iter().enumerate() {
            engine.add_worker(f, conn.device);
            conn.stream
                .set_read_timeout(Some(Duration::from_millis(50)))
                .ok();
            conn.stream.set_nodelay(true).ok();
            ios.push(SlotIo::new(conn.stream, sever_for(&cfg.drops, f, i)));
        }
        assert!(!ios.is_empty(), "filter {f} has no worker connections");
        drv.inflight.push(vec![Vec::new(); ios.len()]);
        drv.dead.push(vec![false; ios.len()]);
        drv.slots.push(ios);
    }
    for (f, ios) in drv.slots.iter_mut().enumerate() {
        for (i, slot) in ios.iter_mut().enumerate() {
            let hello = Frame::Hello {
                node: f as u32,
                slot: i as u32,
            };
            slot.write(&hello);
            if !slot.open {
                continue;
            }
            match slot.read_frame(hard_deadline) {
                Ok(echo) if echo == hello => {}
                _ => {
                    let _ = slot.stream.shutdown(Shutdown::Both);
                    slot.open = false;
                }
            }
        }
    }
    for (f, b) in seeds {
        engine.seed_reader(f, b);
    }

    let rec = cfg.recorder.clone();
    let mut cursors = crate::graph::RoutingCursors::new(graph);
    let mut outputs = Vec::new();
    let mut deaths = 0u32;
    reap_graph(&mut engine, &mut drv, &mut deaths);
    for w in engine.worker_refs() {
        if !drv.dead[w.node][w.worker] {
            engine.data_arrived(w.node, w.worker, u64::MAX, None, &mut drv);
        }
    }

    let mut dispatch_order = Vec::new();
    let mut tick = 0u64;
    loop {
        reap_graph(&mut engine, &mut drv, &mut deaths);
        let Some(msg) = drv.inbox.pop_front() else {
            break;
        };
        tick += 1;
        clock.set(SimTime(tick));
        match msg {
            Msg::Request {
                from,
                reader,
                req_id,
            } => {
                if drv.dead[from.node][from.worker] || !drv.slots[from.node][from.worker].open {
                    continue; // the request died with its connection
                }
                match drv.slots[from.node][from.worker].read_frame(hard_deadline) {
                    Ok(Frame::Request {
                        req_id: echoed_id, ..
                    }) if echoed_id == req_id => {
                        let buffer = engine.answer_request(reader, from.device.kind);
                        engine.data_arrived(from.node, from.worker, req_id, buffer, &mut drv);
                    }
                    Ok(_) | Err(_) => {
                        let _ = drv.slots[from.node][from.worker]
                            .stream
                            .shutdown(Shutdown::Both);
                        drv.slots[from.node][from.worker].open = false;
                    }
                }
            }
            Msg::Exec { worker, buffer } => {
                if drv.dead[worker.node][worker.worker]
                    || !drv.slots[worker.node][worker.worker].open
                {
                    continue; // already re-homed by reap
                }
                let io = &mut drv.slots[worker.node][worker.worker];
                let completion = io.read_frame(hard_deadline).and_then(|first| {
                    let second = io.read_frame(hard_deadline)?;
                    Ok((first, second))
                });
                match completion {
                    Ok((
                        Frame::CompleteAt {
                            filter,
                            buffer: done,
                            proc_ns: _,
                            span,
                            recirculated,
                        },
                        Frame::BatchDone,
                    )) if done.id == buffer.id && filter as usize == worker.node => {
                        drv.inflight[worker.node][worker.worker].retain(|b| b.id != done.id);
                        dispatch_order.push((worker.node, worker.device.kind, done.id.0));
                        // Charge the modeled time, as in the single-filter
                        // lockstep driver, so DQAA inputs match the other
                        // backends bit-for-bit.
                        let proc =
                            SimDuration(modeled_proc_ns(buffer.as_ref(), worker.device.kind));
                        let ts = clock.now().as_nanos();
                        let dev = DeviceRef::device(worker.device);
                        rec.record(
                            ts,
                            dev,
                            EventKind::RemoteStart {
                                buffer: done.id.0,
                                level: done.level,
                            },
                        );
                        rec.record(
                            ts,
                            dev,
                            EventKind::RemoteFinish {
                                buffer: done.id.0,
                                level: done.level,
                                proc_ns: span.end_ns.saturating_sub(span.start_ns),
                            },
                        );
                        engine.task_finished(worker.node, worker.worker, &done, proc);
                        let (feedback, forward) = match emit(worker.node, worker.device.kind, &done)
                        {
                            Some(e) => (e.feedback, e.forward),
                            // Default routing: worker recirculated copies
                            // are feedback; a completion that produced
                            // any is a feedback-only emission (the other
                            // backends' recirculating filters forward
                            // nothing), a clean completion forwards.
                            None if recirculated.is_empty() => (Vec::new(), vec![done]),
                            None => (recirculated, Vec::new()),
                        };
                        for r in feedback {
                            match graph.feedback_edge(worker.node) {
                                Some(ei) => {
                                    let to = graph.edge(ei).to;
                                    engine.deliver_edge(ei as u32, to, r, &mut drv);
                                }
                                None => engine.recirculate(worker.node, r, &mut drv),
                            }
                        }
                        for b in forward {
                            let targets = graph.route_forward(worker.node, b.level, &mut cursors);
                            match targets.split_last() {
                                None => outputs.push(b),
                                Some((&last, rest)) => {
                                    for &ei in rest {
                                        let to = graph.edge(ei).to;
                                        engine.deliver_edge(ei as u32, to, b.clone(), &mut drv);
                                    }
                                    let to = graph.edge(last).to;
                                    engine.deliver_edge(last as u32, to, b, &mut drv);
                                }
                            }
                        }
                        engine.worker_idle(worker.node, worker.worker, &[proc], &mut drv);
                    }
                    Ok(_) | Err(_) => {
                        let io = &mut drv.slots[worker.node][worker.worker];
                        let _ = io.stream.shutdown(Shutdown::Both);
                        io.open = false;
                    }
                }
            }
        }
    }

    for ios in drv.slots.iter_mut() {
        shutdown_slots(ios);
    }
    Ok(NetGraphOutcome {
        assigned: engine.tasks_by_node().clone(),
        dispatch_order,
        outputs,
        edge_delivered: engine.edge_delivered().clone(),
        total: engine.total_done(),
        deaths,
    })
}

// ----------------------------------------------------------- concurrent

/// Concurrent driver: frames go out immediately; timeouts live in a heap
/// keyed by wall-clock fire time.
struct ConcurrentDriver {
    net: Reactor,
    inflight: Vec<Vec<Arc<DataBuffer>>>,
    /// `(fire_ns, slot, req_id)` min-heap on the shared wall clock.
    timers: BinaryHeap<Reverse<(u64, usize, u64)>>,
    batch_limit: usize,
}

impl Transport for ConcurrentDriver {
    fn send_request(&mut self, from: WorkerRef, reader: usize, req_id: u64) {
        self.net.send(
            from.worker,
            &Frame::Request {
                reader: reader as u32,
                req_id,
            },
        );
    }

    fn schedule_timeout(&mut self, worker: WorkerRef, req_id: u64, fire_at: SimTime) {
        self.timers
            .push(Reverse((fire_at.as_nanos(), worker.worker, req_id)));
    }
}

impl Executor for ConcurrentDriver {
    fn batch_limit(&mut self, _worker: WorkerRef) -> usize {
        self.batch_limit
    }

    fn launch(&mut self, worker: WorkerRef, batch: Vec<DataBuffer>) {
        // The wire frame and the inflight table share one allocation per
        // buffer (the old path cloned the payload for each).
        let batch: Vec<Arc<DataBuffer>> = batch.into_iter().map(Arc::new).collect();
        self.net
            .send_deliver(worker.worker, worker.device.kind, &batch);
        self.inflight[worker.worker].extend(batch);
    }
}

fn kill_slot<C: Clock, W: WeightProvider>(
    engine: &mut Engine<C, W>,
    drv: &mut ConcurrentDriver,
    dead: &mut [bool],
    deaths: &mut u32,
    slot: usize,
) {
    if dead[slot] {
        return;
    }
    dead[slot] = true;
    *deaths += 1;
    drv.net.sever(slot);
    let inflight = unwrap_inflight(std::mem::take(&mut drv.inflight[slot]));
    engine.worker_died(0, slot, inflight, drv);
}

/// Shared live state of a concurrent (wall-clock) run: the engine, the
/// socket driver with its [`Reactor`], and per-slot health bookkeeping.
/// Built by [`concurrent_setup`]; the event loops ([`run_concurrent`],
/// [`run_concurrent_elastic`], [`run_concurrent_load`]) differ only in
/// where work and workers come from (seeded up front vs. an arrival
/// schedule gated by admission control; a fixed set vs. mid-run joins).
struct ConcurrentRig<W: WeightProvider> {
    wall: WallClock,
    engine: Engine<WallClock, W>,
    node: usize,
    drv: ConcurrentDriver,
    dead: Vec<bool>,
    deaths: u32,
    last_seen: Vec<Instant>,
    pending_procs: Vec<Vec<SimDuration>>,
    /// Events handled since the last failed-write sweep; the sweep is
    /// O(slots) so it runs every [`REAP_EVERY`] events instead of every
    /// event (and on every pump timeout, so a quiet run still reaps
    /// within one wait budget).
    events_since_reap: u32,
}

/// Failed-write sweep cadence, in pumped events. Bounds detection latency
/// to a sub-millisecond burst under load while keeping the per-event cost
/// of the sweep amortized O(1).
const REAP_EVERY: u32 = 64;

/// Answer an unknown or unwanted peer with a typed [`Frame::JoinRejected`]
/// before closing, so the remote side sees the reason instead of a silent
/// hangup.
fn reject_peer(stream: &mut TcpStream, reason: &str) {
    use std::io::Write as _;
    let _ = stream.write_all(&encode_frame(&Frame::JoinRejected {
        reason: reason.to_string(),
    }));
    let _ = stream.shutdown(Shutdown::Both);
}

/// Establish every connection, perform the handshake, and register each
/// socket with the reactor, which surfaces a slot's buffered completions
/// before its `Closed` marker. Slots that fail the handshake are reaped
/// as dead before the rig is returned.
fn concurrent_setup<W: WeightProvider>(
    cfg: &NetConfig,
    workers: Vec<NetWorkerConn>,
    weights: W,
    hard_deadline: Instant,
) -> io::Result<ConcurrentRig<W>> {
    let wall = WallClock::start();
    let mut engine = Engine::new(
        EngineConfig {
            policy: cfg.policy,
            max_window: cfg.max_window,
            recovery: cfg.recovery,
        },
        wall.clone(),
        weights,
        cfg.recorder.clone(),
    );
    let node = engine.add_node();
    // The Hello handshake runs on blocking sockets; the slots are then
    // handed to the reactor, each continuing from its handshake decoder
    // state so frames (or frame fragments) buffered behind the Hello echo
    // are not lost.
    let mut slots: Vec<SlotIo> = Vec::with_capacity(workers.len());
    for (i, conn) in workers.into_iter().enumerate() {
        engine.add_worker(node, conn.device);
        conn.stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .ok();
        conn.stream.set_nodelay(true).ok();
        slots.push(SlotIo::new(conn.stream, sever_for(&cfg.drops, node, i)));
    }
    assert!(!slots.is_empty(), "no worker connections configured");
    handshake(&mut slots, hard_deadline);

    let n_slots = slots.len();
    let mut reactor = Reactor::new()?;
    for io_slot in slots {
        let open = io_slot.open;
        let slot = reactor.register(
            io_slot.stream,
            io_slot.dec,
            io_slot.sever_after,
            io_slot.frames_sent,
        )?;
        if !open {
            reactor.sever(slot);
        }
    }
    let drv = ConcurrentDriver {
        net: reactor,
        inflight: vec![Vec::new(); n_slots],
        timers: BinaryHeap::new(),
        batch_limit: cfg.batch_limit.max(1),
    };

    let mut rig = ConcurrentRig {
        wall,
        engine,
        node,
        drv,
        dead: vec![false; n_slots],
        deaths: 0,
        last_seen: vec![Instant::now(); n_slots],
        pending_procs: vec![Vec::new(); n_slots],
        events_since_reap: 0,
    };
    for slot in 0..n_slots {
        if !rig.drv.net.open(slot) {
            rig.kill(slot);
        }
    }
    Ok(rig)
}

impl<W: WeightProvider> ConcurrentRig<W> {
    fn kill(&mut self, slot: usize) {
        kill_slot(
            &mut self.engine,
            &mut self.drv,
            &mut self.dead,
            &mut self.deaths,
            slot,
        );
    }

    /// Kick every live worker's requester, as the sequential driver does.
    fn kick_live_workers(&mut self) {
        for w in self.engine.worker_refs() {
            if !self.dead[w.worker] {
                self.engine
                    .data_arrived(w.node, w.worker, u64::MAX, None, &mut self.drv);
            }
        }
    }

    /// Fire every request timeout whose wall-clock deadline has passed.
    fn fire_due_timers(&mut self) {
        let now_ns = self.wall.now().as_nanos();
        while let Some(&Reverse((fire, slot, req_id))) = self.drv.timers.peek() {
            if fire > now_ns {
                break;
            }
            self.drv.timers.pop();
            self.engine
                .request_timed_out(0, slot, req_id, &mut self.drv);
        }
    }

    /// Declare silent workers dead.
    fn check_heartbeats(&mut self, timeout: Option<Duration>) {
        if let Some(hb) = timeout {
            for slot in 0..self.dead.len() {
                if !self.dead[slot] && self.last_seen[slot].elapsed() > hb {
                    self.kill(slot);
                }
            }
        }
    }

    fn all_dead(&self) -> bool {
        self.dead.iter().all(|&d| d)
    }

    /// Sleep bound for the reactor wait: the next request timeout, capped
    /// at `cap` and floored at 1 ms so a just-missed timer cannot spin.
    fn wait_budget(&self, cap: Duration) -> Duration {
        let mut wait = cap;
        if let Some(&Reverse((fire, _, _))) = self.drv.timers.peek() {
            let until = Duration::from_nanos(fire.saturating_sub(self.wall.now().as_nanos()));
            wait = wait.min(until.max(Duration::from_millis(1)));
        }
        wait
    }

    /// Retire slots whose writes failed inside the engine callbacks.
    fn reap_failed_writes(&mut self) {
        self.events_since_reap = 0;
        for slot in 0..self.dead.len() {
            if !self.drv.net.open(slot) && !self.dead[slot] {
                self.kill(slot);
            }
        }
    }

    /// Per-event reap hook: the full sweep only every [`REAP_EVERY`]
    /// events — scanning every slot after every frame was O(slots) per
    /// event, a real cost at 1000-worker fan-in.
    fn maybe_reap_failed_writes(&mut self) {
        self.events_since_reap += 1;
        if self.events_since_reap >= REAP_EVERY {
            self.reap_failed_writes();
        }
    }

    /// Install an established connection as a brand-new worker slot: grow
    /// every per-slot table, register the socket with the reactor, and
    /// register the slot with the engine (`worker_joined` event, DQAA
    /// warm-up window, immediate request pump).
    fn install_slot(&mut self, io_slot: SlotIo, device: DeviceId) -> io::Result<usize> {
        let slot = self.drv.net.len();
        // The join/Hello handshake may have buffered bytes past its reply;
        // the reactor continues from that decoder state.
        let registered = self.drv.net.register(
            io_slot.stream,
            io_slot.dec,
            io_slot.sever_after,
            io_slot.frames_sent,
        )?;
        debug_assert_eq!(registered, slot, "reactor slot must mirror the rig slot");
        self.drv.inflight.push(Vec::new());
        self.dead.push(false);
        self.last_seen.push(Instant::now());
        self.pending_procs.push(Vec::new());
        let joined = self.engine.join_worker(self.node, device, &mut self.drv);
        debug_assert_eq!(joined, slot, "engine slot must mirror the io slot");
        Ok(slot)
    }

    /// First-contact protocol on an accepted connection: a valid `Join`
    /// admits the peer as a new worker slot (the `JoinAck` carries its
    /// slot id); anything else — wrong node, wrong first frame, garbage —
    /// is answered with a typed [`Frame::JoinRejected`] before the socket
    /// closes, never a silent drop.
    fn handle_incoming(
        &mut self,
        stream: TcpStream,
        drops: &[ConnectionDropSpec],
    ) -> io::Result<usize> {
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .ok();
        stream.set_nodelay(true).ok();
        let mut first = SlotIo::new(stream, None);
        let deadline = Instant::now() + Duration::from_secs(2);
        match first.read_frame(deadline) {
            Ok(Frame::Join { node: 0, kind }) => {
                let slot = self.drv.net.len();
                first.write(&Frame::JoinAck {
                    node: self.node as u32,
                    slot: slot as u32,
                });
                if !first.open {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "joiner hung up before JoinAck",
                    ));
                }
                first.sever_after = sever_for(drops, self.node, slot);
                let device = DeviceId {
                    node: self.node,
                    kind,
                    index: slot,
                };
                self.install_slot(first, device)
            }
            Ok(Frame::Join { node, .. }) => {
                reject_peer(&mut first.stream, &format!("unknown node {node}"));
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("join for unknown node {node}"),
                ))
            }
            Ok(_) => {
                reject_peer(
                    &mut first.stream,
                    "expected Join as the first frame of a dynamic connection",
                );
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unexpected first frame on a dynamic connection",
                ))
            }
            Err(e) => Err(e),
        }
    }

    /// Admit a pool-supplied, pre-connected worker (autoscaler grow path):
    /// run the `Hello` handshake inline, then install the slot.
    fn admit_conn(
        &mut self,
        conn: NetWorkerConn,
        drops: &[ConnectionDropSpec],
    ) -> io::Result<usize> {
        let slot = self.drv.net.len();
        conn.stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .ok();
        conn.stream.set_nodelay(true).ok();
        let mut io_slot = SlotIo::new(conn.stream, sever_for(drops, self.node, slot));
        let hello = Frame::Hello {
            node: self.node as u32,
            slot: slot as u32,
        };
        io_slot.write(&hello);
        let deadline = Instant::now() + Duration::from_secs(2);
        match io_slot.read_frame(deadline) {
            Ok(echo) if echo == hello => {}
            _ => {
                let _ = io_slot.stream.shutdown(Shutdown::Both);
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "grown worker failed the Hello handshake",
                ));
            }
        }
        self.install_slot(io_slot, conn.device)
    }

    /// Gracefully retire slots whose drain has completed: the engine has
    /// already recorded `worker_left`, so the socket gets a `Shutdown`
    /// and the slot is closed without touching the death/recovery path.
    /// Returns how many drains finished on this call.
    fn reap_drained(&mut self) -> u32 {
        let mut released = 0;
        for slot in 0..self.dead.len() {
            if !self.dead[slot]
                && self.engine.worker_draining(self.node, slot)
                && !self.engine.worker_alive(self.node, slot)
            {
                self.dead[slot] = true;
                released += 1;
                self.drv.net.graceful_close(slot);
            }
        }
        released
    }

    /// Handle one `Complete` frame: retire the in-flight entry, re-stamp
    /// the worker span onto the coordinator clock, credit the engine, and
    /// recirculate. Returns how many buffers were recirculated (new
    /// expected completions).
    #[allow(clippy::too_many_arguments)]
    fn handle_complete(
        &mut self,
        rec: &Recorder,
        slot: usize,
        buffer: DataBuffer,
        proc_ns: u64,
        span_ns: u64,
        recirculated: Vec<DataBuffer>,
        dispatch_order: &mut Vec<(DeviceKind, u64)>,
    ) -> u64 {
        self.drv.inflight[slot].retain(|b| b.id != buffer.id);
        let device = self.engine.worker_device(0, slot);
        dispatch_order.push((device.kind, buffer.id.0));
        let ts = self.wall.now().as_nanos();
        let dev = DeviceRef::device(device);
        rec.record(
            ts,
            dev,
            EventKind::RemoteStart {
                buffer: buffer.id.0,
                level: buffer.level,
            },
        );
        rec.record(
            ts,
            dev,
            EventKind::RemoteFinish {
                buffer: buffer.id.0,
                level: buffer.level,
                proc_ns: span_ns,
            },
        );
        let proc = SimDuration(proc_ns);
        self.engine.task_finished(0, slot, &buffer, proc);
        self.pending_procs[slot].push(proc);
        let n = recirculated.len() as u64;
        for r in recirculated {
            self.engine.recirculate(self.node, r, &mut self.drv);
        }
        n
    }

    /// Shut down live slots and produce the outcome.
    fn finish(mut self, dispatch_order: Vec<(DeviceKind, u64)>) -> NetOutcome {
        self.drv.net.shutdown_all();
        NetOutcome {
            assigned: self.engine.tasks_by().clone(),
            dispatch_order,
            total: self.engine.total_done(),
            deaths: self.deaths,
            wire: self.drv.net.stats(),
        }
    }
}

/// Run `sources` through one engine node whose workers execute
/// concurrently behind the given connections, in wall-clock time with the
/// full recovery path armed (see the module docs). The run ends when every
/// seeded and recirculated buffer has completed exactly once, or errs at
/// the deadline.
pub fn run_concurrent<W: WeightProvider>(
    cfg: NetConfig,
    workers: Vec<NetWorkerConn>,
    sources: Vec<DataBuffer>,
    weights: W,
) -> io::Result<NetOutcome> {
    let hard_deadline = Instant::now() + cfg.deadline;
    let mut rig = concurrent_setup(&cfg, workers, weights, hard_deadline)?;
    let mut expected = sources.len() as u64;
    for b in sources {
        rig.engine.seed_reader(rig.node, b);
    }
    rig.kick_live_workers();
    let rec = cfg.recorder.clone();
    let mut dispatch_order = Vec::new();

    while rig.engine.total_done() < expected {
        if Instant::now() >= hard_deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "net run deadline exceeded: {}/{} buffers done, {} worker(s) dead; {}",
                    rig.engine.total_done(),
                    expected,
                    rig.deaths,
                    rig.engine.debug_node_state(rig.node),
                ),
            ));
        }
        rig.fire_due_timers();
        rig.check_heartbeats(cfg.heartbeat_timeout);
        if rig.all_dead() {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                format!(
                    "every worker died with {}/{} buffers done",
                    rig.engine.total_done(),
                    expected
                ),
            ));
        }
        let wait = rig.wait_budget(Duration::from_millis(25));
        let Some(event) = rig.drv.net.pump(wait) else {
            rig.reap_failed_writes();
            continue;
        };
        match event {
            Pump::Closed(slot) => rig.kill(slot),
            Pump::Frame(slot, frame) => {
                rig.last_seen[slot] = Instant::now();
                if rig.dead[slot] {
                    continue; // a late frame from a retired slot
                }
                match frame {
                    Frame::Request { reader, req_id } => {
                        let kind = rig.engine.worker_device(0, slot).kind;
                        let buffer = rig.engine.answer_request(reader as usize, kind);
                        rig.engine
                            .data_arrived(0, slot, req_id, buffer, &mut rig.drv);
                    }
                    Frame::Complete {
                        buffer,
                        proc_ns,
                        span,
                        recirculated,
                    } => {
                        let span_ns = span.end_ns.saturating_sub(span.start_ns);
                        expected += rig.handle_complete(
                            &rec,
                            slot,
                            buffer,
                            proc_ns,
                            span_ns,
                            recirculated,
                            &mut dispatch_order,
                        );
                    }
                    Frame::BatchDone => {
                        let procs = std::mem::take(&mut rig.pending_procs[slot]);
                        rig.engine.worker_idle(0, slot, &procs, &mut rig.drv);
                    }
                    // A `Join` on an already-established slot is a typed
                    // rejection, not silence: the peer learns it must open
                    // a fresh connection against an elastic run instead.
                    Frame::Join { .. } => {
                        rig.drv.net.send(
                            slot,
                            &Frame::JoinRejected {
                                reason:
                                    "slot already joined; dynamic joins need a fresh connection"
                                        .to_string(),
                            },
                        );
                    }
                    // Heartbeats already refreshed `last_seen`; the rest
                    // are protocol noise a healthy worker never sends.
                    Frame::Heartbeat { .. }
                    | Frame::Hello { .. }
                    | Frame::Bye
                    | Frame::Deliver { .. }
                    | Frame::DeliverAt { .. }
                    | Frame::CompleteAt { .. }
                    | Frame::JoinAck { .. }
                    | Frame::JoinRejected { .. }
                    | Frame::Shutdown => {}
                }
            }
            // No listener is attached in this mode; an incoming connection
            // can only mean a stray peer — reject it with the typed frame.
            Pump::Incoming(mut stream) => {
                reject_peer(&mut stream, "this run does not accept dynamic joins");
            }
        }
        rig.maybe_reap_failed_writes();
    }

    Ok(rig.finish(dispatch_order))
}

// -------------------------------------------------------------- elastic

/// A scheduled graceful drain for [`run_concurrent_elastic`]: once
/// `after_completions` buffers have finished, worker `slot` stops
/// receiving assignments, finishes its in-flight requests (bounded by
/// the recovery timeout path), and leaves with a `worker_left` event.
#[derive(Debug, Clone, Copy)]
pub struct DrainAt {
    /// Completion count that triggers the drain.
    pub after_completions: u64,
    /// Worker slot to drain.
    pub slot: usize,
}

/// Result of [`run_concurrent_elastic`].
#[derive(Debug, Clone)]
pub struct ElasticOutcome {
    /// The usual run outcome (assignment counts, completion order,
    /// deaths — graceful leaves are *not* deaths).
    pub outcome: NetOutcome,
    /// Workers admitted mid-run via the `Join`/`JoinAck` handshake.
    pub joins: u32,
    /// Workers that completed a graceful drain.
    pub drains: u32,
}

/// [`run_concurrent`] with elastic membership: `listener` accepts mid-run
/// `Join` handshakes (each admitted joiner becomes a fresh engine slot
/// with a cold DQAA window that warms up from 1, so it cannot stampede
/// the queue), and `drains` scripts graceful departures keyed on the
/// completion count. Invalid first frames on accepted connections are
/// answered with a typed [`Frame::JoinRejected`]. The schedule must keep
/// at least one worker assignable or the run aborts as fully dead.
pub fn run_concurrent_elastic<W: WeightProvider>(
    cfg: NetConfig,
    listener: TcpListener,
    drains: Vec<DrainAt>,
    workers: Vec<NetWorkerConn>,
    sources: Vec<DataBuffer>,
    weights: W,
) -> io::Result<ElasticOutcome> {
    let hard_deadline = Instant::now() + cfg.deadline;
    let mut rig = concurrent_setup(&cfg, workers, weights, hard_deadline)?;
    rig.drv.net.attach_listener(listener)?;
    let mut drains = drains;
    drains.sort_by_key(|d| d.after_completions);
    let mut next_drain = 0usize;
    let mut joins = 0u32;
    let mut drained = 0u32;

    let mut expected = sources.len() as u64;
    for b in sources {
        rig.engine.seed_reader(rig.node, b);
    }
    rig.kick_live_workers();
    let rec = cfg.recorder.clone();
    let mut dispatch_order = Vec::new();

    while rig.engine.total_done() < expected {
        if Instant::now() >= hard_deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "elastic net run deadline exceeded: {}/{} buffers done, {} join(s), {} worker(s) dead; {}; inflight={:?} dead={:?}",
                    rig.engine.total_done(),
                    expected,
                    joins,
                    rig.deaths,
                    rig.engine.debug_node_state(rig.node),
                    rig.drv.inflight.iter().map(|v| v.len()).collect::<Vec<_>>(),
                    rig.dead,
                ),
            ));
        }
        rig.fire_due_timers();
        rig.check_heartbeats(cfg.heartbeat_timeout);
        // Apply every drain whose completion threshold has been reached.
        while next_drain < drains.len()
            && rig.engine.total_done() >= drains[next_drain].after_completions
        {
            let slot = drains[next_drain].slot;
            next_drain += 1;
            if slot < rig.dead.len() && !rig.dead[slot] {
                rig.engine.drain_worker(rig.node, slot);
            }
        }
        drained += rig.reap_drained();
        if rig.all_dead() {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                format!(
                    "every worker died or drained with {}/{} buffers done",
                    rig.engine.total_done(),
                    expected
                ),
            ));
        }
        let wait = rig.wait_budget(Duration::from_millis(25));
        let Some(event) = rig.drv.net.pump(wait) else {
            rig.reap_failed_writes();
            continue;
        };
        match event {
            Pump::Closed(slot) => rig.kill(slot),
            Pump::Incoming(stream) => {
                if rig.handle_incoming(stream, &cfg.drops).is_ok() {
                    joins += 1;
                }
            }
            Pump::Frame(slot, frame) => {
                rig.last_seen[slot] = Instant::now();
                if rig.dead[slot] {
                    continue; // a late frame from a retired slot
                }
                match frame {
                    Frame::Request { reader, req_id } => {
                        let kind = rig.engine.worker_device(0, slot).kind;
                        let buffer = rig.engine.answer_request(reader as usize, kind);
                        rig.engine
                            .data_arrived(0, slot, req_id, buffer, &mut rig.drv);
                    }
                    Frame::Complete {
                        buffer,
                        proc_ns,
                        span,
                        recirculated,
                    } => {
                        let span_ns = span.end_ns.saturating_sub(span.start_ns);
                        expected += rig.handle_complete(
                            &rec,
                            slot,
                            buffer,
                            proc_ns,
                            span_ns,
                            recirculated,
                            &mut dispatch_order,
                        );
                    }
                    Frame::BatchDone => {
                        let procs = std::mem::take(&mut rig.pending_procs[slot]);
                        rig.engine.worker_idle(0, slot, &procs, &mut rig.drv);
                    }
                    Frame::Join { .. } => {
                        rig.drv.net.send(
                            slot,
                            &Frame::JoinRejected {
                                reason:
                                    "slot already joined; dynamic joins need a fresh connection"
                                        .to_string(),
                            },
                        );
                    }
                    Frame::Heartbeat { .. }
                    | Frame::Hello { .. }
                    | Frame::Bye
                    | Frame::Deliver { .. }
                    | Frame::DeliverAt { .. }
                    | Frame::CompleteAt { .. }
                    | Frame::JoinAck { .. }
                    | Frame::JoinRejected { .. }
                    | Frame::Shutdown => {}
                }
            }
        }
        rig.maybe_reap_failed_writes();
    }

    drained += rig.reap_drained();
    Ok(ElasticOutcome {
        outcome: rig.finish(dispatch_order),
        joins,
        drains: drained,
    })
}

// ------------------------------------------------------------ open loop

/// Per-task latency decomposition reported by [`run_concurrent_load`],
/// all in nanoseconds on the coordinator's clock. `e2e_ns` runs from the
/// task's *scheduled* arrival offset (so injector jitter shows up as
/// measured load, not as noise) to the completion frame; `service_ns` is
/// the worker-reported execution span; `queue_ns` is the remainder —
/// admission wait, ready-queue wait, and wire time.
#[derive(Debug, Clone, Copy)]
pub struct NetTaskTiming {
    /// Buffer id.
    pub buffer: u64,
    /// Time between scheduled arrival and execution start (e2e − service).
    pub queue_ns: u64,
    /// Worker-side execution span.
    pub service_ns: u64,
    /// Scheduled arrival to completion.
    pub e2e_ns: u64,
}

/// One queue-depth sample from an open-loop net run.
#[derive(Debug, Clone, Copy)]
pub struct NetQueueSample {
    /// Coordinator wall-clock nanoseconds since the run started.
    pub t_ns: u64,
    /// Buffers sitting in the engine's ready (reader) queue.
    pub ready: u64,
    /// Tasks waiting in the admission intake queue.
    pub intake: u64,
    /// Tasks admitted and not yet completed.
    pub inflight: u64,
}

/// Result of [`run_concurrent_load`].
#[derive(Debug, Clone)]
pub struct NetLoadReport {
    /// The usual run outcome (assignment counts, completion order, deaths).
    pub outcome: NetOutcome,
    /// Admission counters at quiescence; `admitted + shed +
    /// deadline_dropped == generated` holds whenever the run returns `Ok`.
    pub admission: AdmissionCounters,
    /// Tasks that completed and produced a timing callback.
    pub completed: u64,
    /// Queue-depth time series on the `sample_every` cadence.
    pub queue_depth: Vec<NetQueueSample>,
    /// Workers admitted by the autoscaler (0 without autoscaling).
    pub scale_ups: u64,
    /// Graceful drains initiated by the autoscaler (0 without
    /// autoscaling).
    pub scale_downs: u64,
}

/// Autoscaling hookup for [`run_concurrent_load_autoscaled`]: the policy
/// decides from DQAA's own congestion signals (the sampled reader-queue
/// depth plus intake backlog, and the most recent end-to-end completion
/// latency); the pool supplies pre-connected workers on `Grow`, and
/// `Shrink` gracefully drains the highest assignable slot.
pub struct ElasticLoad<'a> {
    /// The watermark policy, consulted once per queue-depth sample.
    pub autoscaler: Autoscaler,
    /// Supplier of new worker connections; `None` means the pool is
    /// exhausted and the grow decision is dropped.
    pub pool: &'a mut dyn WorkerPool<Worker = NetWorkerConn>,
}

/// Open-loop variant of [`run_concurrent`]: instead of seeding every
/// source up front, tasks *arrive* on the wall-clock schedule `arrivals`
/// (nanosecond offsets from the run start, ascending) and pass through an
/// [`AdmissionController`] before reaching the engine.
///
/// `make_task(index, arrival_ns)` materialises the task for each arrival;
/// buffer ids must be unique across the schedule. Admitted tasks are
/// seeded live into the ready queue; under [`OverloadPolicy::Block`]
/// (see [`crate::engine::OverloadPolicy`]) a full intake stalls the
/// injector — the arrival index does not advance, modelling generator
/// back-pressure — while the shedding policies keep the schedule on time
/// and drop work instead, emitting `task_shed` /
/// `task_deadline_dropped` events through the configured recorder.
///
/// `on_complete` fires once per completed *admitted* task (recirculated
/// copies complete without a second callback, and without double-freeing
/// the admission slot). The run ends when the schedule is drained, the
/// intake is empty, and every seeded and recirculated buffer has
/// completed, or errs at the deadline.
#[allow(clippy::too_many_arguments)]
pub fn run_concurrent_load<W: WeightProvider>(
    cfg: NetConfig,
    admission: AdmissionConfig,
    workers: Vec<NetWorkerConn>,
    arrivals: &[u64],
    make_task: &mut dyn FnMut(u64, u64) -> DataBuffer,
    sample_every: Duration,
    weights: W,
    on_complete: &mut dyn FnMut(NetTaskTiming),
) -> io::Result<NetLoadReport> {
    run_concurrent_load_inner(
        cfg,
        admission,
        workers,
        arrivals,
        make_task,
        sample_every,
        weights,
        on_complete,
        None,
    )
}

/// [`run_concurrent_load`] with the pool autoscaled at run time: once per
/// queue-depth sample the [`Autoscaler`] inspects the congestion signals
/// and either admits a pool-supplied worker (Hello handshake + engine
/// join with a warm-up window) or gracefully drains one, never below the
/// policy's `min_workers`. Scale activity is reported in the
/// [`NetLoadReport`]'s `scale_ups`/`scale_downs`.
#[allow(clippy::too_many_arguments)]
pub fn run_concurrent_load_autoscaled<W: WeightProvider>(
    cfg: NetConfig,
    admission: AdmissionConfig,
    workers: Vec<NetWorkerConn>,
    arrivals: &[u64],
    make_task: &mut dyn FnMut(u64, u64) -> DataBuffer,
    sample_every: Duration,
    weights: W,
    on_complete: &mut dyn FnMut(NetTaskTiming),
    elastic: ElasticLoad<'_>,
) -> io::Result<NetLoadReport> {
    run_concurrent_load_inner(
        cfg,
        admission,
        workers,
        arrivals,
        make_task,
        sample_every,
        weights,
        on_complete,
        Some(elastic),
    )
}

#[allow(clippy::too_many_arguments)]
fn run_concurrent_load_inner<W: WeightProvider>(
    cfg: NetConfig,
    admission: AdmissionConfig,
    workers: Vec<NetWorkerConn>,
    arrivals: &[u64],
    make_task: &mut dyn FnMut(u64, u64) -> DataBuffer,
    sample_every: Duration,
    weights: W,
    on_complete: &mut dyn FnMut(NetTaskTiming),
    mut elastic: Option<ElasticLoad<'_>>,
) -> io::Result<NetLoadReport> {
    let hard_deadline = Instant::now() + cfg.deadline;
    let mut rig = concurrent_setup(&cfg, workers, weights, hard_deadline)?;
    let mut ctl: AdmissionController<DataBuffer> = AdmissionController::new(
        admission,
        cfg.recorder.clone(),
        DeviceRef::node_scope(rig.node),
    );
    rig.kick_live_workers();
    let rec = cfg.recorder.clone();
    let sample_every = sample_every.max(Duration::from_micros(200));

    let mut dispatch_order = Vec::new();
    let mut samples: Vec<NetQueueSample> = Vec::new();
    let mut next_sample_ns = 0u64;
    // Scheduled arrival of tasks sitting in the admission intake.
    let mut queued_arrival: HashMap<u64, u64> = HashMap::new();
    // `(scheduled arrival, seed time)` of admitted, not-yet-completed tasks.
    let mut inflight_meta: HashMap<u64, (u64, u64)> = HashMap::new();
    // A task bounced with `Offer::Blocked`, waiting for intake space.
    let mut pending: Option<(u64, DataBuffer)> = None;
    let mut next = 0usize;
    let mut expected = 0u64;
    let mut completed = 0u64;
    // Autoscaler state: the most recent completion's e2e latency is the
    // policy's latency signal; scale counts feed the report.
    let mut last_e2e: Option<u64> = None;
    let mut scale_ups = 0u64;
    let mut scale_downs = 0u64;

    loop {
        if next >= arrivals.len()
            && pending.is_none()
            && ctl.queued() == 0
            && rig.engine.total_done() >= expected
        {
            break;
        }
        if Instant::now() >= hard_deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "net load run deadline exceeded: {}/{} arrivals injected, {}/{} done, {} worker(s) dead; {}",
                    next,
                    arrivals.len(),
                    rig.engine.total_done(),
                    expected,
                    rig.deaths,
                    rig.engine.debug_node_state(rig.node),
                ),
            ));
        }
        rig.fire_due_timers();
        rig.check_heartbeats(cfg.heartbeat_timeout);
        if rig.all_dead() {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                format!(
                    "every worker died with {}/{} buffers done",
                    rig.engine.total_done(),
                    expected
                ),
            ));
        }

        // Admit intake entries freed by completions; expire overdue ones.
        let now_ns = rig.wall.now().as_nanos();
        let polled = ctl.poll(now_ns);
        for env in polled.expired {
            queued_arrival.remove(&env.buffer);
        }
        for env in polled.admitted {
            let arrival = queued_arrival.remove(&env.buffer).unwrap_or(now_ns);
            inflight_meta.insert(env.buffer, (arrival, now_ns));
            expected += 1;
            rig.engine.seed_live(rig.node, env.payload, &mut rig.drv);
        }

        // Inject every arrival that is due, a blocked task first.
        loop {
            let (arrival_ns, buf) = match pending.take() {
                Some(p) => p,
                None => {
                    if next >= arrivals.len() {
                        break;
                    }
                    let due = arrivals[next];
                    if due > rig.wall.now().as_nanos() {
                        break;
                    }
                    let buf = make_task(next as u64, due);
                    next += 1;
                    (due, buf)
                }
            };
            let offer_ns = rig.wall.now().as_nanos();
            let id = buf.id.0;
            let level = buf.level;
            match ctl.offer(offer_ns, id, level, buf) {
                Offer::Admitted(b) => {
                    inflight_meta.insert(id, (arrival_ns, offer_ns));
                    expected += 1;
                    rig.engine.seed_live(rig.node, b, &mut rig.drv);
                }
                Offer::Queued { shed } => {
                    queued_arrival.insert(id, arrival_ns);
                    if let Some(victim) = shed {
                        queued_arrival.remove(&victim.buffer);
                    }
                }
                Offer::ShedSelf(_) => {}
                Offer::Blocked(b) => {
                    // Back-pressure: the injector stalls until a
                    // completion frees an admission slot.
                    pending = Some((arrival_ns, b));
                    break;
                }
            }
        }

        // Queue-depth sample on its cadence; the autoscaler rides the
        // same cadence so its decisions are a pure function of the
        // sampled congestion signals.
        let now_ns = rig.wall.now().as_nanos();
        if now_ns >= next_sample_ns {
            let ready = rig.engine.reader_len(rig.node) as u64;
            let intake = ctl.queued() as u64;
            samples.push(NetQueueSample {
                t_ns: now_ns,
                ready,
                intake,
                inflight: ctl.inflight() as u64,
            });
            next_sample_ns = now_ns + sample_every.as_nanos() as u64;
            if let Some(el) = elastic.as_mut() {
                let depth = (ready + intake) as usize;
                let active = rig.engine.active_worker_count();
                match el.autoscaler.decide(now_ns, depth, last_e2e, active) {
                    Some(ScaleAction::Grow) => {
                        if let Some(conn) = el.pool.grow() {
                            if rig.admit_conn(conn, &cfg.drops).is_ok() {
                                scale_ups += 1;
                            }
                        }
                    }
                    Some(ScaleAction::Shrink) => {
                        let victim = (0..rig.dead.len()).rev().find(|&s| {
                            !rig.dead[s]
                                && rig.engine.worker_alive(rig.node, s)
                                && !rig.engine.worker_draining(rig.node, s)
                        });
                        if let Some(slot) = victim {
                            rig.engine.drain_worker(rig.node, slot);
                            scale_downs += 1;
                        }
                    }
                    None => {}
                }
            }
        }
        rig.reap_drained();

        // Wait for the next frame, bounded by the next timer, the next
        // scheduled arrival, and the sample cadence.
        let mut wait = rig.wait_budget(Duration::from_millis(25).min(sample_every));
        if pending.is_none() {
            if let Some(&due) = arrivals.get(next) {
                let until = Duration::from_nanos(due.saturating_sub(rig.wall.now().as_nanos()));
                wait = wait.min(until);
            }
        }
        let Some(event) = rig.drv.net.pump(wait) else {
            rig.reap_failed_writes();
            continue;
        };
        match event {
            Pump::Closed(slot) => rig.kill(slot),
            Pump::Frame(slot, frame) => {
                rig.last_seen[slot] = Instant::now();
                if rig.dead[slot] {
                    continue; // a late frame from a retired slot
                }
                match frame {
                    Frame::Request { reader, req_id } => {
                        let kind = rig.engine.worker_device(0, slot).kind;
                        let buffer = rig.engine.answer_request(reader as usize, kind);
                        rig.engine
                            .data_arrived(0, slot, req_id, buffer, &mut rig.drv);
                    }
                    Frame::Complete {
                        buffer,
                        proc_ns,
                        span,
                        recirculated,
                    } => {
                        let id = buffer.id.0;
                        let span_ns = span.end_ns.saturating_sub(span.start_ns);
                        expected += rig.handle_complete(
                            &rec,
                            slot,
                            buffer,
                            proc_ns,
                            span_ns,
                            recirculated,
                            &mut dispatch_order,
                        );
                        // First completion of an admitted task frees its
                        // admission slot and reports its latency split;
                        // recirculated copies find no entry and skip both.
                        if let Some((arrival, _seeded)) = inflight_meta.remove(&id) {
                            let finished_ns = rig.wall.now().as_nanos();
                            let e2e_ns = finished_ns.saturating_sub(arrival);
                            let service_ns = span_ns.min(e2e_ns);
                            completed += 1;
                            last_e2e = Some(e2e_ns);
                            on_complete(NetTaskTiming {
                                buffer: id,
                                queue_ns: e2e_ns - service_ns,
                                service_ns,
                                e2e_ns,
                            });
                            ctl.release();
                        }
                    }
                    Frame::BatchDone => {
                        let procs = std::mem::take(&mut rig.pending_procs[slot]);
                        rig.engine.worker_idle(0, slot, &procs, &mut rig.drv);
                    }
                    Frame::Join { .. } => {
                        rig.drv.net.send(
                            slot,
                            &Frame::JoinRejected {
                                reason:
                                    "slot already joined; dynamic joins need a fresh connection"
                                        .to_string(),
                            },
                        );
                    }
                    Frame::Heartbeat { .. }
                    | Frame::Hello { .. }
                    | Frame::Bye
                    | Frame::Deliver { .. }
                    | Frame::DeliverAt { .. }
                    | Frame::CompleteAt { .. }
                    | Frame::JoinAck { .. }
                    | Frame::JoinRejected { .. }
                    | Frame::Shutdown => {}
                }
            }
            // The load harness scales through its worker pool, not the
            // wire; a stray incoming connection gets the typed rejection.
            Pump::Incoming(mut stream) => {
                reject_peer(&mut stream, "this run does not accept dynamic joins");
            }
        }
        rig.maybe_reap_failed_writes();
    }

    let admission = ctl.counters();
    let outcome = rig.finish(dispatch_order);
    Ok(NetLoadReport {
        outcome,
        admission,
        completed,
        queue_depth: samples,
        scale_ups,
        scale_downs,
    })
}
