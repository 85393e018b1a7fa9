//! The coordinator side of the TCP backend.
//!
//! Two run modes share the engine, the protocol (one `Request` echo, one
//! `Deliver` answered by `Complete`s and a `BatchDone`), and the worker
//! binary:
//!
//! * [`run_graph_deterministic`] — the sequential reference driver's loop
//!   ([`crate::engine::sequential`]) with sockets for hops: handshake, then
//!   that loop over `SocketHops`, then `Shutdown`. Every request hop and
//!   every execution makes a *real* socket round trip — the frame is
//!   written when the engine sends, the worker answers, and the
//!   coordinator blocks for that answer at the moment the reference would
//!   have handled the message. It is the same loop, so the engine sees
//!   the same callbacks in the same order, and per-device assignment
//!   counts are bit-identical to the sequential/native/DES backends (the
//!   policy-parity suite pins this). A connection serves one `(filter,
//!   slot)`, so no frame names a filter; a single filter is the
//!   one-filter graph ([`DataflowGraph::single`]), not a driver of its own.
//! * [`run_concurrent`] and its siblings — one wall-clock event loop
//!   (`ConcurrentRig::turn`): every connection is a non-blocking socket
//!   multiplexed by one [`Reactor`] on the coordinator thread, workers
//!   genuinely execute in parallel, request timeouts fire from a timer
//!   heap, and worker death (process kill, connection sever, heartbeat
//!   silence) maps onto the engine's recovery path
//!   ([`Engine::worker_died`] re-homes in-flight buffers). The entry
//!   points differ only in the optional parts they hand the loop: a join
//!   listener and scripted [`DrainAt`]s ([`run_concurrent_elastic`]), or
//!   an arrival schedule behind an [`AdmissionController`] with a
//!   queue-depth sampler, an optional autoscaler and a per-task timing
//!   callback ([`run_concurrent_load`],
//!   [`run_concurrent_load_autoscaled`]).
//!
//! Backpressure is the engine's own demand-driven window: a worker slot
//! holds at most `max_window` outstanding requests and
//! [`NetConfig::batch_limit`] in-flight `Deliver` frames, so neither side
//! ever buffers an unbounded frame backlog.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use anthill_hetsim::{DeviceId, DeviceKind};
use anthill_simkit::{SimDuration, SimTime};

use crate::buffer::DataBuffer;
use crate::engine::sequential::{run_lockstep, GraphEmission, Hops, SequentialConfig};
use crate::engine::{
    AdmissionConfig, AdmissionController, AdmissionCounters, Clock, Engine, EngineConfig, Executor,
    Offer, Transport, WallClock, WorkerRef,
};
use crate::faults::{ConnectionDropSpec, RecoveryConfig};
use crate::graph::DataflowGraph;
use crate::membership::{Autoscaler, MembershipSchedule, ScaleAction, WorkerPool};
use crate::obs::{DeviceRef, EventKind, Recorder};
use crate::policy::Policy;
use crate::weights::WeightProvider;

use super::conn::WireStats;
use super::eventloop::{Pump, Reactor};
use super::frame::{
    encode_deliver_into, encode_frame, encode_frame_into, Frame, FrameDecoder, FrameError,
};

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
    /// the lockstep loop never arms timers).
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
    /// kind, heartbeats included; concurrent mode only — a lockstep read
    /// waits for its answer until [`NetConfig::deadline`]). `None`
    /// disables the check; EOF on the
    /// connection is always fatal regardless. Must exceed the worker
    /// loop's 200 ms idle-heartbeat period (`net/worker.rs`), or a healthy
    /// idle worker is declared dead. Silence is noticed by the event
    /// loop's slot sweep, which runs every 64 pumped events or 25 ms,
    /// whichever comes first, checked between reactor waits of at most
    /// 25 ms: detection lags the timeout by at most 50 ms.
    pub heartbeat_timeout: Option<Duration>,
    /// Upper bound on buffers per `Deliver` frame (the in-flight frame
    /// bound; concurrent mode only — the lockstep loop is the sequential
    /// reference driver's and always delivers one).
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

/// Result of a wall-clock networked run.
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
    /// Wire-level counters of the coordinator's connections.
    pub wire: WireStats,
}

fn proto_err(e: FrameError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Coordinator-side state of one worker connection while it is driven by
/// blocking reads: the whole lockstep run, and the handshake of a
/// wall-clock slot before the reactor takes it over.
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
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .ok();
        stream.set_nodelay(true).ok();
        SlotIo {
            stream,
            dec: FrameDecoder::new(),
            scratch: Vec::new(),
            frames_sent: 0,
            sever_after,
            open: true,
        }
    }

    fn close(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        self.open = false;
    }

    /// Serialize one frame into the scratch buffer with `encode` and write
    /// it, unless the sever schedule says the connection goes first. A
    /// failed write closes the slot instead of propagating: the engine
    /// learns about the death via the reap path, exactly as it would for a
    /// real crashed peer.
    fn write_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        use std::io::Write as _;
        if !self.open {
            return;
        }
        if self
            .sever_after
            .is_some_and(|limit| self.frames_sent >= limit)
        {
            return self.close();
        }
        self.scratch.clear();
        encode(&mut self.scratch);
        if self.stream.write_all(&self.scratch).is_err() {
            self.close();
        } else {
            self.frames_sent += 1;
        }
    }

    fn write(&mut self, frame: &Frame) {
        self.write_with(|out| encode_frame_into(out, frame));
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

    /// `Hello` handshake: send the slot identity, expect it echoed
    /// verbatim. A slot that fails is closed (and says so by returning
    /// false); it stays in the topology and is reaped as dead before the
    /// first kick.
    fn hello(&mut self, node: usize, slot: usize, deadline: Instant) -> bool {
        let hello = Frame::Hello {
            node: node as u32,
            slot: slot as u32,
        };
        self.write(&hello);
        if self.open && !matches!(self.read_frame(deadline), Ok(echo) if echo == hello) {
            self.close();
        }
        self.open
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

/// Re-stamp a worker's execution span onto the coordinator clock as the
/// `remote_start`/`remote_finish` event pair.
fn record_remote_span(
    rec: &Recorder,
    ts: u64,
    device: DeviceId,
    buffer: &DataBuffer,
    span_ns: u64,
) {
    let dev = DeviceRef::device(device);
    let (id, level) = (buffer.id.0, buffer.level);
    rec.record(ts, dev, EventKind::RemoteStart { buffer: id, level });
    let finish = EventKind::RemoteFinish {
        buffer: id,
        level,
        proc_ns: span_ns,
    };
    rec.record(ts, dev, finish);
}

fn sever_for(drops: &[ConnectionDropSpec], node: usize, worker: usize) -> Option<u64> {
    drops
        .iter()
        .find(|d| d.node == node && d.worker == worker)
        .map(|d| d.after_frames)
}

// ------------------------------------------------------------- lockstep

/// Result of a lockstep networked run ([`run_graph_deterministic`]).
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

/// The reference loop's hops as socket round trips: a frame is written
/// when the engine sends, and the coordinator blocks for the worker's
/// answer where the reference would have handled the message. A slot is
/// `(filter, slot)`; `None` once its connection failed and the loop was
/// told. The loop drops a lost slot's messages with it, so everything it
/// asks about is open.
struct SocketHops<'a> {
    slots: Vec<Vec<Option<SlotIo>>>,
    deadline: Instant,
    recorder: Recorder,
    emit: &'a mut dyn FnMut(usize, DeviceKind, &DataBuffer) -> Option<GraphEmission>,
}

impl SocketHops<'_> {
    fn io(&mut self, w: WorkerRef) -> &mut SlotIo {
        self.slots[w.node][w.worker]
            .as_mut()
            .expect("a retired slot has no messages")
    }
}

impl Hops for SocketHops<'_> {
    fn request_sent(&mut self, from: WorkerRef, reader: usize, req_id: u64) {
        self.io(from).write(&Frame::Request {
            reader: reader as u32,
            req_id,
        });
    }

    fn request_arrived(&mut self, from: WorkerRef, req_id: u64) -> bool {
        let deadline = self.deadline;
        let io = self.io(from);
        let echo = io.read_frame(deadline);
        let echoed = matches!(echo, Ok(Frame::Request { req_id: id, .. }) if id == req_id);
        if !echoed {
            io.close();
        }
        echoed
    }

    fn launched(&mut self, worker: WorkerRef, buffer: &DataBuffer) {
        self.io(worker).write_with(|out| {
            encode_deliver_into(out, worker.device.kind, std::slice::from_ref(buffer))
        });
    }

    fn executed(
        &mut self,
        worker: WorkerRef,
        buffer: &DataBuffer,
        now: SimTime,
    ) -> Option<GraphEmission> {
        let deadline = self.deadline;
        let io = self.io(worker);
        let answer = io
            .read_frame(deadline)
            .and_then(|done| Ok((done, io.read_frame(deadline)?)));
        let (done, span, recirculated) = match answer {
            Ok((
                Frame::Complete {
                    buffer: done,
                    span,
                    recirculated,
                    ..
                },
                Frame::BatchDone,
            )) if done.id == buffer.id => (done, span, recirculated),
            _ => {
                io.close();
                return None;
            }
        };
        let span_ns = span.end_ns.saturating_sub(span.start_ns);
        record_remote_span(
            &self.recorder,
            now.as_nanos(),
            worker.device,
            &done,
            span_ns,
        );
        Some(match (self.emit)(worker.node, worker.device.kind, &done) {
            Some(e) => e,
            // Default routing: worker recirculated copies are feedback; a
            // completion that produced any is a feedback-only emission (the
            // other backends' recirculating filters forward nothing), a
            // clean completion forwards.
            None if recirculated.is_empty() => GraphEmission {
                forward: vec![done],
                feedback: Vec::new(),
            },
            None => GraphEmission {
                forward: Vec::new(),
                feedback: recirculated,
            },
        })
    }

    fn lost(&mut self) -> Vec<(usize, usize)> {
        let mut lost = Vec::new();
        for (node, slots) in self.slots.iter_mut().enumerate() {
            for (worker, slot) in slots.iter_mut().enumerate() {
                if slot.as_ref().is_some_and(|io| !io.open) {
                    *slot = None;
                    lost.push((node, worker));
                }
            }
        }
        lost
    }
}

/// Run a replicated-filter DAG over TCP workers in lockstep deterministic
/// mode. `workers[f]` holds the connections serving filter `f`; seeds are
/// `(filter, buffer)` pairs entering that filter's input queue. Each
/// filter's workers request only from their own per-edge input stream
/// (ODDS/DQAA/DBSA act per edge), completions at filter *i* are routed to
/// filter *i+1* by the graph's routing rule, and buffers with no matching
/// out-edge leave the run as outputs. Worker behaviour — identity
/// forwarding, recirculation — is whatever the remote side was started
/// with. A single-filter run passes [`DataflowGraph::single`]: the
/// recirculated copies its workers echo re-enter the filter's own queue.
///
/// A run that cannot finish is an error, not a short outcome: when a
/// filter loses its last worker with buffers still unread the result is
/// `BrokenPipe`, or `TimedOut` once [`NetConfig::deadline`] has passed
/// (every read past it fails, which loses every worker).
pub fn run_graph_deterministic<W: WeightProvider>(
    cfg: NetConfig,
    graph: &DataflowGraph,
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
    graph: &DataflowGraph,
    workers: Vec<Vec<NetWorkerConn>>,
    seeds: Vec<(usize, DataBuffer)>,
    weights: W,
    emit: &mut dyn FnMut(usize, DeviceKind, &DataBuffer) -> Option<GraphEmission>,
) -> io::Result<NetGraphOutcome> {
    let deadline = Instant::now() + cfg.deadline;
    let mut devices = Vec::with_capacity(workers.len());
    let mut slots = Vec::with_capacity(workers.len());
    for (f, conns) in workers.into_iter().enumerate() {
        devices.push(conns.iter().map(|c| c.device).collect());
        let ios = conns.into_iter().enumerate().map(|(i, conn)| {
            // A slot that fails the handshake is closed: the loop retires
            // it before the first kick.
            let mut io = SlotIo::new(conn.stream, sever_for(&cfg.drops, f, i));
            io.hello(f, i, deadline);
            Some(io)
        });
        slots.push(ios.collect());
    }
    let mut hops = SocketHops {
        slots,
        deadline,
        recorder: cfg.recorder.clone(),
        emit,
    };
    let seq = SequentialConfig {
        policy: cfg.policy,
        max_window: cfg.max_window,
        recorder: cfg.recorder,
    };
    let none = MembershipSchedule::none();
    let (out, stranded) = run_lockstep(seq, graph, &devices, seeds, weights, none, &mut hops);

    let mut deaths = 0;
    for slot in hops.slots.iter_mut().flatten() {
        match slot {
            Some(io) => {
                io.write(&Frame::Shutdown);
                let _ = io.stream.shutdown(Shutdown::Write);
            }
            None => deaths += 1,
        }
    }
    if let Some((filter, unread)) = stranded {
        let kind = if Instant::now() >= deadline {
            io::ErrorKind::TimedOut
        } else {
            io::ErrorKind::BrokenPipe
        };
        let total = out.total;
        return Err(io::Error::new(
            kind,
            format!(
                "filter {filter} lost its last worker with {unread} buffers unread, {total} done"
            ),
        ));
    }
    Ok(NetGraphOutcome {
        assigned: out.assigned,
        dispatch_order: out.dispatch_order,
        outputs: out.outputs,
        edge_delivered: out.edge_delivered,
        total: out.total,
        deaths,
    })
}

// ----------------------------------------------------------- wall clock

/// Wall-clock driver: frames queue on the [`Reactor`] and leave at its
/// next wait boundary; timeouts live in a heap keyed by wall-clock fire
/// time.
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
        // buffer.
        let batch: Vec<Arc<DataBuffer>> = batch.into_iter().map(Arc::new).collect();
        self.net
            .send_deliver(worker.worker, worker.device.kind, &batch);
        self.inflight[worker.worker].extend(batch);
    }
}

/// Live state of a wall-clock run and its one event loop: the engine, the
/// socket driver with its [`Reactor`], per-slot health bookkeeping, and
/// the run's tallies. Built by [`concurrent_setup`]; [`ConcurrentRig::turn`]
/// handles one reactor event, [`ConcurrentRig::drive`] loops it to
/// quiescence around whichever optional parts the entry point supplies.
struct ConcurrentRig<W: WeightProvider> {
    cfg: NetConfig,
    hard_deadline: Instant,
    wall: WallClock,
    engine: Engine<WallClock, W>,
    node: usize,
    drv: ConcurrentDriver,
    dead: Vec<bool>,
    /// Slots not yet dead or drained (`dead[slot] == false`), maintained
    /// by `register_slot`, `kill` and the sweep so the all-dead check is
    /// O(1).
    live: usize,
    deaths: u32,
    /// Mid-run `Join` handshakes admitted.
    joins: u32,
    /// Graceful drains completed.
    drained: u32,
    /// When each slot last sent a frame; kept current only for a run with
    /// a heartbeat timeout, the one reader.
    last_seen: Vec<Instant>,
    pending_procs: Vec<Vec<SimDuration>>,
    /// Events handled since the last [`ConcurrentRig::sweep`].
    events_since_sweep: u32,
    /// When the next sweep is due whatever the event count.
    sweep_due: Instant,
    /// Completions the run must reach: seeds plus every recirculated copy.
    expected: u64,
    dispatch_order: Vec<(DeviceKind, u64)>,
}

/// Slot-sweep cadence, in pumped events. The sweep is O(slots) — scanning
/// every slot after every frame was a real cost at 1000-worker fan-in —
/// so it runs every `REAP_EVERY` events: detection latency is a
/// sub-millisecond burst under load, the per-event cost amortized O(1).
const REAP_EVERY: u32 = 64;

/// Slot-sweep cadence, in time, for a run too quiet to pump `REAP_EVERY`
/// events. It is a period and not "on every pump timeout": the reactor
/// wakes at the exact next deadline, so on an open-loop run a pump times
/// out once per arrival.
const SWEEP_PERIOD: Duration = Duration::from_millis(25);

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
    cfg: NetConfig,
    workers: Vec<NetWorkerConn>,
    weights: W,
) -> io::Result<ConcurrentRig<W>> {
    assert!(!workers.is_empty(), "no worker connections configured");
    let hard_deadline = Instant::now() + cfg.deadline;
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
    let mut rig = ConcurrentRig {
        hard_deadline,
        wall,
        engine,
        node,
        drv: ConcurrentDriver {
            net: Reactor::new()?,
            inflight: Vec::new(),
            timers: BinaryHeap::new(),
            batch_limit: cfg.batch_limit.max(1),
        },
        cfg,
        dead: Vec::new(),
        live: 0,
        deaths: 0,
        joins: 0,
        drained: 0,
        last_seen: Vec::new(),
        pending_procs: Vec::new(),
        events_since_sweep: 0,
        sweep_due: Instant::now() + SWEEP_PERIOD,
        expected: 0,
        dispatch_order: Vec::new(),
    };
    // The Hello handshake runs on blocking sockets; each slot is then
    // handed to the reactor, continuing from its handshake decoder state
    // so frames (or frame fragments) buffered behind the Hello echo are
    // not lost.
    let mut failed = Vec::new();
    for (slot, conn) in workers.into_iter().enumerate() {
        let mut io_slot = SlotIo::new(conn.stream, sever_for(&rig.cfg.drops, node, slot));
        if !io_slot.hello(node, slot, hard_deadline) {
            failed.push(slot);
        }
        rig.engine.add_worker(node, conn.device);
        rig.register_slot(io_slot)?;
    }
    for slot in failed {
        rig.kill(slot);
    }
    Ok(rig)
}

impl<W: WeightProvider> ConcurrentRig<W> {
    /// Hand a handshaken connection to the reactor as the next slot and
    /// grow every per-slot table; the caller registers it with the engine.
    fn register_slot(&mut self, io_slot: SlotIo) -> io::Result<usize> {
        let slot = self.drv.net.register(
            io_slot.stream,
            io_slot.dec,
            io_slot.sever_after,
            io_slot.frames_sent,
            io_slot.scratch,
        )?;
        debug_assert_eq!(
            slot,
            self.dead.len(),
            "reactor slot must mirror the rig slot"
        );
        self.drv.inflight.push(Vec::new());
        self.dead.push(false);
        self.live += 1;
        self.last_seen.push(Instant::now());
        self.pending_procs.push(Vec::new());
        Ok(slot)
    }

    /// Retire `slot` through the engine's death/recovery path.
    fn kill(&mut self, slot: usize) {
        if self.dead[slot] {
            return;
        }
        self.dead[slot] = true;
        self.live -= 1;
        self.deaths += 1;
        self.drv.net.sever(slot);
        let inflight = unwrap_inflight(std::mem::take(&mut self.drv.inflight[slot]));
        self.engine
            .worker_died(self.node, slot, inflight, &mut self.drv);
    }

    /// Seed the reader up front (the closed-loop runs).
    fn seed(&mut self, sources: Vec<DataBuffer>) {
        self.expected += sources.len() as u64;
        for b in sources {
            self.engine.seed_reader(self.node, b);
        }
    }

    /// Fire every request timeout whose wall-clock deadline has passed.
    fn fire_due_timers(&mut self) {
        if self.drv.timers.is_empty() {
            return;
        }
        let now_ns = self.wall.now().as_nanos();
        while let Some(&Reverse((fire, slot, req_id))) = self.drv.timers.peek() {
            if fire > now_ns {
                break;
            }
            self.drv.timers.pop();
            self.engine
                .request_timed_out(self.node, slot, req_id, &mut self.drv);
        }
    }

    /// The one O(slots) pass, on the [`REAP_EVERY`] / [`SWEEP_PERIOD`]
    /// cadence: a slot whose writes failed at a flush, or that has been silent
    /// past the heartbeat timeout, dies; a slot whose drain has completed
    /// is retired gracefully — the engine has already recorded
    /// `worker_left`, so the socket gets a `Shutdown` and closes without
    /// touching the death/recovery path.
    fn sweep(&mut self) {
        self.events_since_sweep = 0;
        let now = Instant::now();
        self.sweep_due = now + SWEEP_PERIOD;
        for slot in 0..self.dead.len() {
            if self.dead[slot] {
                continue;
            }
            let silent = self
                .cfg
                .heartbeat_timeout
                .is_some_and(|hb| now.duration_since(self.last_seen[slot]) > hb);
            if silent || !self.drv.net.open(slot) {
                self.kill(slot);
            } else if self.engine.worker_draining(self.node, slot)
                && !self.engine.worker_alive(self.node, slot)
            {
                self.dead[slot] = true;
                self.live -= 1;
                self.drained += 1;
                self.drv.net.graceful_close(slot);
            }
        }
    }

    /// Sleep bound for the reactor wait: the time left until the next
    /// request timeout, capped at `cap`. No floor is needed to keep a
    /// just-missed timer from spinning: a zero wait means the timer is
    /// already due, so the next turn's [`ConcurrentRig::fire_due_timers`]
    /// pops it, and a non-zero wait sleeps at least that long (the poller
    /// never returns a timed-out wait early, and where it cannot be exact it
    /// rounds a sub-millisecond wait up), after which the timer is due.
    fn wait_budget(&self, cap: Duration) -> Duration {
        match self.drv.timers.peek() {
            Some(&Reverse((fire, _, _))) => {
                let until = fire.saturating_sub(self.wall.now().as_nanos());
                cap.min(Duration::from_nanos(until))
            }
            None => cap,
        }
    }

    /// Install a handshaken connection as a brand-new worker slot:
    /// register the socket, then register the slot with the engine
    /// (`worker_joined` event, DQAA warm-up window, immediate request
    /// pump).
    fn install_slot(&mut self, io_slot: SlotIo, device: DeviceId) -> io::Result<usize> {
        // The join/Hello handshake may have buffered bytes past its reply;
        // the reactor continues from that decoder state.
        let slot = self.register_slot(io_slot)?;
        let joined = self.engine.join_worker(self.node, device, &mut self.drv);
        debug_assert_eq!(joined, slot, "engine slot must mirror the io slot");
        Ok(slot)
    }

    /// First-contact protocol on an accepted connection: a valid `Join`
    /// admits the peer as a new worker slot (the `JoinAck` carries its
    /// slot id); anything else — wrong node, wrong first frame, garbage —
    /// is answered with a typed [`Frame::JoinRejected`] before the socket
    /// closes, never a silent drop.
    fn handle_incoming(&mut self, stream: TcpStream) -> io::Result<usize> {
        let mut first = SlotIo::new(stream, None);
        let deadline = Instant::now() + Duration::from_secs(2);
        match first.read_frame(deadline) {
            Ok(Frame::Join { node, kind }) if node as usize == self.node => {
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
                first.sever_after = sever_for(&self.cfg.drops, self.node, slot);
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
    fn admit_conn(&mut self, conn: NetWorkerConn) -> io::Result<usize> {
        let slot = self.drv.net.len();
        let mut io_slot = SlotIo::new(conn.stream, sever_for(&self.cfg.drops, self.node, slot));
        if !io_slot.hello(self.node, slot, Instant::now() + Duration::from_secs(2)) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "grown worker failed the Hello handshake",
            ));
        }
        self.install_slot(io_slot, conn.device)
    }

    /// Handle one `Complete` frame: retire the in-flight entry, re-stamp
    /// the worker span onto the coordinator clock, credit the engine, and
    /// recirculate (each copy is one more expected completion).
    fn handle_complete(
        &mut self,
        slot: usize,
        buffer: DataBuffer,
        proc_ns: u64,
        span_ns: u64,
        recirculated: Vec<DataBuffer>,
    ) {
        self.drv.inflight[slot].retain(|b| b.id != buffer.id);
        let device = self.engine.worker_device(self.node, slot);
        self.dispatch_order.push((device.kind, buffer.id.0));
        if self.cfg.recorder.is_enabled() {
            let ts = self.wall.now().as_nanos();
            record_remote_span(&self.cfg.recorder, ts, device, &buffer, span_ns);
        }
        let proc = SimDuration(proc_ns);
        self.engine.task_finished(self.node, slot, &buffer, proc);
        self.pending_procs[slot].push(proc);
        self.expected += recirculated.len() as u64;
        for r in recirculated {
            self.engine.recirculate(self.node, r, &mut self.drv);
        }
    }

    /// One turn of the event loop: deadline, due timers, the slot sweep on
    /// its cadence, the all-dead check, then one reactor event (waiting at
    /// most `cap`, less when a request timeout is nearer). Every frame the
    /// turn's engine callbacks send stays queued in the reactor until the
    /// turn that finds no event ready flushes it and waits. Returns the
    /// `(buffer id, worker span)` of the completion this turn handled, if
    /// it handled one, for the open-loop part to time.
    fn turn(&mut self, cap: Duration) -> io::Result<Option<(u64, u64)>> {
        let now = Instant::now();
        if now >= self.hard_deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "net run deadline exceeded: {}/{} buffers done, {} join(s), {} worker(s) dead; {}; inflight={:?} dead={:?}",
                    self.engine.total_done(),
                    self.expected,
                    self.joins,
                    self.deaths,
                    self.engine.debug_node_state(self.node),
                    self.drv.inflight.iter().map(|v| v.len()).collect::<Vec<_>>(),
                    self.dead,
                ),
            ));
        }
        self.fire_due_timers();
        if self.events_since_sweep >= REAP_EVERY || now >= self.sweep_due {
            self.sweep();
        }
        if self.live == 0 {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                format!(
                    "every worker died or drained with {}/{} buffers done",
                    self.engine.total_done(),
                    self.expected
                ),
            ));
        }
        let wait = self.wait_budget(cap);
        let Some(event) = self.drv.net.pump(wait) else {
            return Ok(None);
        };
        self.events_since_sweep += 1;
        let (slot, frame) = match event {
            Pump::Frame(slot, frame) => (slot, frame),
            Pump::Closed(slot) => {
                self.kill(slot);
                return Ok(None);
            }
            // Only a run that attached a join listener sees these.
            Pump::Incoming(stream) => {
                if self.handle_incoming(stream).is_ok() {
                    self.joins += 1;
                }
                return Ok(None);
            }
        };
        if self.cfg.heartbeat_timeout.is_some() {
            self.last_seen[slot] = Instant::now();
        }
        if self.dead[slot] {
            return Ok(None); // a late frame from a retired slot
        }
        match frame {
            Frame::Request { reader, req_id } => {
                let kind = self.engine.worker_device(self.node, slot).kind;
                let buffer = self.engine.answer_request(reader as usize, kind);
                self.engine
                    .data_arrived(self.node, slot, req_id, buffer, &mut self.drv);
            }
            Frame::Complete {
                buffer,
                proc_ns,
                span,
                recirculated,
            } => {
                let id = buffer.id.0;
                let span_ns = span.end_ns.saturating_sub(span.start_ns);
                self.handle_complete(slot, buffer, proc_ns, span_ns, recirculated);
                return Ok(Some((id, span_ns)));
            }
            Frame::BatchDone => {
                let procs = std::mem::take(&mut self.pending_procs[slot]);
                self.engine
                    .worker_idle(self.node, slot, &procs, &mut self.drv);
            }
            // A `Join` on an already-established slot is a typed
            // rejection, not silence: the peer learns it must open a
            // fresh connection against an elastic run instead.
            Frame::Join { .. } => {
                self.drv.net.send(
                    slot,
                    &Frame::JoinRejected {
                        reason: "slot already joined; dynamic joins need a fresh connection"
                            .to_string(),
                    },
                );
            }
            // Heartbeats already refreshed `last_seen`; the rest are
            // protocol noise a healthy worker never sends.
            Frame::Heartbeat { .. }
            | Frame::Hello { .. }
            | Frame::Bye
            | Frame::Deliver { .. }
            | Frame::JoinAck { .. }
            | Frame::JoinRejected { .. }
            | Frame::Shutdown => {}
        }
        Ok(None)
    }

    /// Run the event loop to quiescence: every seeded, admitted and
    /// recirculated buffer completed exactly once and, on an open-loop
    /// run, the arrival schedule and the admission intake drained. Errs at
    /// the deadline or when no worker is left.
    ///
    /// `drains` fire as the completion count crosses each threshold;
    /// `load`, when present, feeds arrivals through admission before each
    /// turn and times each admitted task's completion.
    fn drive(
        &mut self,
        mut drains: Vec<DrainAt>,
        mut load: Option<&mut OpenLoop<'_, '_>>,
    ) -> io::Result<()> {
        drains.sort_by_key(|d| d.after_completions);
        let mut drains = drains.into_iter().peekable();
        // Kick every live worker's requester, as the sequential driver does.
        for w in self.engine.worker_refs() {
            if !self.dead[w.worker] {
                self.engine
                    .data_arrived(w.node, w.worker, u64::MAX, None, &mut self.drv);
            }
        }
        loop {
            let done = self.engine.total_done();
            if done >= self.expected && load.as_ref().is_none_or(|l| l.drained()) {
                return Ok(());
            }
            while let Some(d) = drains.next_if(|d| done >= d.after_completions) {
                if d.slot < self.dead.len() && !self.dead[d.slot] {
                    self.engine.drain_worker(self.node, d.slot);
                }
            }
            let cap = match load.as_mut() {
                Some(l) => l.feed(self),
                None => Duration::from_millis(25),
            };
            if let (Some((id, span_ns)), Some(l)) = (self.turn(cap)?, load.as_mut()) {
                l.task_completed(self.wall.now().as_nanos(), id, span_ns);
            }
        }
    }

    /// Shut down live slots and produce the outcome.
    fn finish(mut self) -> NetOutcome {
        self.drv.net.shutdown_all();
        NetOutcome {
            assigned: self.engine.tasks_by(),
            dispatch_order: self.dispatch_order,
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
    let mut rig = concurrent_setup(cfg, workers, weights)?;
    rig.seed(sources);
    rig.drive(Vec::new(), None)?;
    Ok(rig.finish())
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
    let mut rig = concurrent_setup(cfg, workers, weights)?;
    rig.drv.net.attach_listener(listener)?;
    rig.seed(sources);
    rig.drive(drains, None)?;
    rig.sweep(); // drains that finished with the last completions
    Ok(ElasticOutcome {
        joins: rig.joins,
        drains: rig.drained,
        outcome: rig.finish(),
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

/// What an open-loop run adds to the event loop: the arrival schedule and
/// its injector, the admission controller in front of the engine, the
/// queue-depth sampler (with the autoscaler riding its cadence), and the
/// per-task timing callback.
struct OpenLoop<'a, 'p> {
    ctl: AdmissionController<DataBuffer>,
    arrivals: &'a [u64],
    make_task: &'a mut dyn FnMut(u64, u64) -> DataBuffer,
    on_complete: &'a mut dyn FnMut(NetTaskTiming),
    sample_every: Duration,
    elastic: Option<ElasticLoad<'p>>,
    /// Next arrival index to inject.
    next: usize,
    /// A task bounced with `Offer::Blocked`, waiting for intake space.
    pending: Option<(u64, DataBuffer)>,
    /// Scheduled arrival of tasks sitting in the admission intake.
    queued_arrival: HashMap<u64, u64>,
    /// Scheduled arrival of admitted, not-yet-completed tasks.
    admitted_arrival: HashMap<u64, u64>,
    samples: Vec<NetQueueSample>,
    next_sample_ns: u64,
    completed: u64,
    /// The most recent completion's e2e latency: the autoscaler's latency
    /// signal.
    last_e2e: Option<u64>,
    scale_ups: u64,
    scale_downs: u64,
}

impl OpenLoop<'_, '_> {
    /// Schedule injected to the end and nothing left in the intake.
    fn drained(&self) -> bool {
        self.next >= self.arrivals.len() && self.pending.is_none() && self.ctl.queued() == 0
    }

    fn admit<W: WeightProvider>(
        &mut self,
        rig: &mut ConcurrentRig<W>,
        arrival_ns: u64,
        buffer: DataBuffer,
    ) {
        self.admitted_arrival.insert(buffer.id.0, arrival_ns);
        rig.expected += 1;
        rig.engine.seed_live(rig.node, buffer, &mut rig.drv);
    }

    /// The open-loop work of one turn: admit intake entries freed by
    /// completions, inject every due arrival, take the queue-depth sample
    /// when due. Returns the reactor wait cap — the sample cadence and the
    /// next scheduled arrival, whichever is nearer.
    fn feed<W: WeightProvider>(&mut self, rig: &mut ConcurrentRig<W>) -> Duration {
        let now_ns = rig.wall.now().as_nanos();
        let polled = self.ctl.poll(now_ns);
        for env in polled.expired {
            self.queued_arrival.remove(&env.buffer);
        }
        for env in polled.admitted {
            let arrival = self.queued_arrival.remove(&env.buffer).unwrap_or(now_ns);
            self.admit(rig, arrival, env.payload);
        }

        // Inject every arrival that is due, a blocked task first.
        loop {
            let (arrival_ns, buf) = match self.pending.take() {
                Some(p) => p,
                None => {
                    let Some(&due) = self.arrivals.get(self.next) else {
                        break;
                    };
                    if due > rig.wall.now().as_nanos() {
                        break;
                    }
                    let buf = (self.make_task)(self.next as u64, due);
                    self.next += 1;
                    (due, buf)
                }
            };
            let id = buf.id.0;
            match self
                .ctl
                .offer(rig.wall.now().as_nanos(), id, buf.level, buf)
            {
                Offer::Admitted(b) => self.admit(rig, arrival_ns, b),
                Offer::Queued { shed } => {
                    self.queued_arrival.insert(id, arrival_ns);
                    if let Some(victim) = shed {
                        self.queued_arrival.remove(&victim.buffer);
                    }
                }
                Offer::ShedSelf(_) => {}
                Offer::Blocked(b) => {
                    // Back-pressure: the injector stalls until a
                    // completion frees an admission slot.
                    self.pending = Some((arrival_ns, b));
                    break;
                }
            }
        }

        // Queue-depth sample on its cadence; the autoscaler rides the
        // same cadence so its decisions are a pure function of the
        // sampled congestion signals.
        let now_ns = rig.wall.now().as_nanos();
        if now_ns >= self.next_sample_ns {
            let ready = rig.engine.reader_len(rig.node) as u64;
            let intake = self.ctl.queued() as u64;
            self.samples.push(NetQueueSample {
                t_ns: now_ns,
                ready,
                intake,
                inflight: self.ctl.inflight() as u64,
            });
            self.next_sample_ns = now_ns + self.sample_every.as_nanos() as u64;
            self.autoscale(rig, now_ns, (ready + intake) as usize);
        }

        let mut cap = Duration::from_millis(25).min(self.sample_every);
        if self.pending.is_none() {
            if let Some(&due) = self.arrivals.get(self.next) {
                let until = due.saturating_sub(rig.wall.now().as_nanos());
                cap = cap.min(Duration::from_nanos(until));
            }
        }
        cap
    }

    fn autoscale<W: WeightProvider>(
        &mut self,
        rig: &mut ConcurrentRig<W>,
        now_ns: u64,
        depth: usize,
    ) {
        let Some(el) = self.elastic.as_mut() else {
            return;
        };
        let active = rig.engine.active_worker_count();
        match el.autoscaler.decide(now_ns, depth, self.last_e2e, active) {
            Some(ScaleAction::Grow) => {
                if let Some(conn) = el.pool.grow() {
                    if rig.admit_conn(conn).is_ok() {
                        self.scale_ups += 1;
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
                    self.scale_downs += 1;
                }
            }
            None => {}
        }
    }

    /// First completion of an admitted task frees its admission slot and
    /// reports its latency split; recirculated copies find no entry and
    /// skip both.
    fn task_completed(&mut self, finished_ns: u64, id: u64, span_ns: u64) {
        let Some(arrival) = self.admitted_arrival.remove(&id) else {
            return;
        };
        let e2e_ns = finished_ns.saturating_sub(arrival);
        let service_ns = span_ns.min(e2e_ns);
        self.completed += 1;
        self.last_e2e = Some(e2e_ns);
        (self.on_complete)(NetTaskTiming {
            buffer: id,
            queue_ns: e2e_ns - service_ns,
            service_ns,
            e2e_ns,
        });
        self.ctl.release();
    }
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
    run_open_loop(
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
    run_open_loop(
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
fn run_open_loop<W: WeightProvider>(
    cfg: NetConfig,
    admission: AdmissionConfig,
    workers: Vec<NetWorkerConn>,
    arrivals: &[u64],
    make_task: &mut dyn FnMut(u64, u64) -> DataBuffer,
    sample_every: Duration,
    weights: W,
    on_complete: &mut dyn FnMut(NetTaskTiming),
    elastic: Option<ElasticLoad<'_>>,
) -> io::Result<NetLoadReport> {
    let mut rig = concurrent_setup(cfg, workers, weights)?;
    let mut load = OpenLoop {
        ctl: AdmissionController::new(
            admission,
            rig.cfg.recorder.clone(),
            DeviceRef::node_scope(rig.node),
        ),
        arrivals,
        make_task,
        on_complete,
        sample_every: sample_every.max(Duration::from_micros(200)),
        elastic,
        next: 0,
        pending: None,
        queued_arrival: HashMap::new(),
        admitted_arrival: HashMap::new(),
        samples: Vec::new(),
        next_sample_ns: 0,
        completed: 0,
        last_e2e: None,
        scale_ups: 0,
        scale_downs: 0,
    };
    rig.drive(Vec::new(), Some(&mut load))?;
    Ok(NetLoadReport {
        outcome: rig.finish(),
        admission: load.ctl.counters(),
        completed: load.completed,
        queue_depth: load.samples,
        scale_ups: load.scale_ups,
        scale_downs: load.scale_downs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferId;
    use crate::net::tcp_pair;
    use crate::weights::OracleWeights;
    use anthill_estimator::TaskParams;
    use anthill_hetsim::{GpuParams, TaskShape};
    use std::io::Write as _;

    /// `wait_budget` hands the poller the exact time left to the next
    /// request timeout, with no floor under it. A timer that is pending, just
    /// due, or just missed must cost the loop a handful of turns — each one
    /// a real sleep or a timer pop — never a spin on zero-length waits.
    #[test]
    fn a_pending_request_timeout_is_slept_on_not_spun_on() {
        const TIMEOUT_MS: u64 = 40;
        let (coordinator, mut peer) = tcp_pair().expect("loopback pair");
        // Echoes `Hello`, then says nothing: the request can only time out.
        let silent = std::thread::spawn(move || {
            let mut dec = FrameDecoder::new();
            let mut chunk = [0u8; 4096];
            loop {
                match peer.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => dec.feed(&chunk[..n]),
                }
                while let Ok(Some(frame)) = dec.next_frame() {
                    if matches!(frame, Frame::Hello { .. }) {
                        peer.write_all(&encode_frame(&frame)).expect("echo Hello");
                    }
                }
            }
        });
        let mut cfg = NetConfig::new(Policy::ddfcfs(1));
        cfg.recovery = RecoveryConfig {
            request_timeout: SimDuration::from_millis(TIMEOUT_MS),
            ..RecoveryConfig::standard()
        };
        let device = DeviceId {
            node: 0,
            kind: DeviceKind::Cpu,
            index: 0,
        };
        let mut rig = concurrent_setup(
            cfg,
            vec![NetWorkerConn {
                device,
                stream: coordinator,
            }],
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
        )
        .expect("setup");
        rig.seed(vec![DataBuffer {
            id: BufferId(0),
            params: TaskParams::nums(&[1.0]),
            shape: TaskShape {
                cpu: SimDuration::from_micros(10),
                gpu_kernel: SimDuration::from_micros(10),
                bytes_in: 0,
                bytes_out: 0,
            },
            level: 0,
            task: 0,
        }]);
        rig.engine
            .data_arrived(rig.node, 0, u64::MAX, None, &mut rig.drv);
        let next_fire = |rig: &ConcurrentRig<OracleWeights>| {
            let &Reverse((fire, _, _)) = rig.drv.timers.peek().expect("a request timeout is armed");
            fire
        };

        // Three timeouts in a row (the retries back off, so each is longer).
        for round in 0..3 {
            let fire = next_fire(&rig);
            // One turn per capped wait, then the exact remainder, a zero
            // wait if the clock moved between the two reads, and the pop.
            let allowed = fire.saturating_sub(rig.wall.now().as_nanos()) / 25_000_000 + 4;
            let mut turns = 0;
            while next_fire(&rig) == fire {
                assert!(rig.turn(Duration::from_millis(25)).expect("turn").is_none());
                turns += 1;
                assert!(
                    turns <= allowed,
                    "round {round}: {turns} turns, {allowed} allowed"
                );
            }
            assert!(
                rig.wall.now().as_nanos() >= fire,
                "round {round}: the timeout fired early"
            );
        }
        rig.kill(0);
        silent.join().expect("silent peer thread");
    }
}
