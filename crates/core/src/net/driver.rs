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
//! * [`run_concurrent`] and its siblings — wall clock: every connection
//!   is a non-blocking socket multiplexed by one [`Reactor`] on the
//!   coordinator thread, and workers genuinely execute in parallel. Every
//!   decision — DQAA windows, DBSA picks, request timeouts, heartbeat
//!   silence, worker death and drain, open-loop admission, the
//!   autoscaler — is made by the [`Coordinator`], a function of time and
//!   input that touches no socket. This module is its shell: it reads the
//!   clock, performs the `Hello`, `Join` and pool-grow handshakes, hands
//!   the coordinator one [`Input`] per socket event, finished handshake or
//!   elapsed wait, and carries out the outbox each input leaves. The entry
//!   points differ only in what they hand the coordinator: a join
//!   listener and scripted [`DrainAt`]s ([`run_concurrent_elastic`]), or
//!   an arrival schedule behind an admission controller with a
//!   queue-depth sampler, an optional autoscaler and a per-task timing
//!   callback ([`run_concurrent_load`],
//!   [`run_concurrent_load_autoscaled`]).
//!
//! Backpressure is the engine's own demand-driven window: a worker slot
//! holds at most `max_window` outstanding requests and
//! [`NetConfig::batch_limit`] in-flight `Deliver` frames, so neither side
//! ever buffers an unbounded frame backlog.

use std::io::{self, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use anthill_hetsim::{DeviceId, DeviceKind};
use anthill_simkit::SimTime;

use crate::buffer::DataBuffer;
use crate::engine::sequential::{run_lockstep, GraphEmission, Hops, SequentialConfig};
use crate::engine::{AdmissionConfig, AdmissionCounters, WorkerRef};
use crate::faults::{ConnectionDropSpec, RecoveryConfig};
use crate::graph::DataflowGraph;
use crate::membership::{Autoscaler, MembershipSchedule, WorkerPool};
use crate::obs::Recorder;
use crate::policy::Policy;
use crate::weights::WeightProvider;

use super::conn::WireStats;
use super::coord::{record_remote_span, Coordinator, Input, OpenLoop, Out, Status, NODE};
use super::eventloop::{Pump, Reactor};
use super::frame::{encode_deliver_into, encode_frame_into, Frame, FrameDecoder, FrameError};

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
    /// idle worker is declared dead. The coordinator counts the earliest
    /// moment a slot can have been silent too long among its deadlines, so
    /// the event loop wakes for it: a silent slot dies at the first input
    /// after its timeout has passed.
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
    /// Writable? Cleared on sever or write failure; the lockstep loop
    /// learns of it from `SocketHops::lost`, a failed handshake from
    /// `hello`'s answer.
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
    /// learns about the death as it would for a real crashed peer.
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
    /// false); it stays in the topology and dies before the first kick.
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

/// Longest reactor wait: the shell checks the hard deadline and collects
/// finished join handshakes at least this often.
const MAX_WAIT: Duration = Duration::from_millis(25);

/// How long a `Hello` echo or a joiner's first frame may take.
const HANDSHAKE_WAIT: Duration = Duration::from_secs(2);

/// A joiner's connection with its first frame, read off the event loop.
type FirstFrame = (SlotIo, Frame);

/// The wall-clock shell: every part of a run that touches the OS. It owns
/// the sockets (one [`Reactor`]), the clock and the handshakes, hands the
/// [`Coordinator`] one [`Input`] per socket event, finished handshake or
/// elapsed wait, and carries out the outbox each input leaves.
struct Shell<'p> {
    net: Reactor,
    drops: Vec<ConnectionDropSpec>,
    /// Time zero of the coordinator's clock.
    epoch: Instant,
    /// When the latest input happened: the wake-up that read it, or the
    /// end of the handshake that admitted a worker.
    now: Instant,
    hard_deadline: Instant,
    /// Accepted connections in accept order, each with the helper thread
    /// reading its first frame and a handle on its socket to cut a read
    /// still waiting short when the shell goes.
    readers: Vec<(TcpStream, JoinHandle<Option<FirstFrame>>)>,
    pool: Option<&'p mut dyn WorkerPool<Worker = NetWorkerConn>>,
}

impl<'p> Shell<'p> {
    /// Run the `Hello` handshake on every initial connection and register
    /// each with the reactor. Returns each slot's device and whether its
    /// handshake succeeded; the coordinator's clock starts here.
    fn connect(
        cfg: &NetConfig,
        workers: Vec<NetWorkerConn>,
    ) -> io::Result<(Shell<'p>, Vec<(DeviceId, bool)>)> {
        assert!(!workers.is_empty(), "no worker connections configured");
        let start = Instant::now();
        let mut shell = Shell {
            net: Reactor::new()?,
            drops: cfg.drops.clone(),
            epoch: start,
            now: start,
            hard_deadline: start + cfg.deadline,
            readers: Vec::new(),
            pool: None,
        };
        let mut slots = Vec::with_capacity(workers.len());
        for (slot, conn) in workers.into_iter().enumerate() {
            let mut io = SlotIo::new(conn.stream, sever_for(&shell.drops, NODE, slot));
            slots.push((conn.device, io.hello(NODE, slot, shell.hard_deadline)));
            shell.register(io)?;
        }
        shell.epoch = Instant::now();
        shell.now = shell.epoch;
        Ok((shell, slots))
    }

    /// Hand a handshaken connection to the reactor as the next slot,
    /// continuing from its handshake decoder state so frames buffered
    /// behind the handshake reply are not lost.
    fn register(&mut self, io: SlotIo) -> io::Result<usize> {
        let (sever_after, sent) = (io.sever_after, io.frames_sent);
        self.net
            .register(io.stream, io.dec, sever_after, sent, io.scratch)
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Turn the event loop until the coordinator is done (`Ok`), has no
    /// slot left, or the hard deadline passes (both `Err`). Its waits end
    /// at the coordinator's deadlines, not up to a timer slack later.
    fn run<W: WeightProvider>(&mut self, coord: &mut Coordinator<'_, W>) -> io::Result<()> {
        let _exact = anthill_poller::exact_timers();
        #[cfg(test)]
        super::tests::RunLog::append(None, coord.outbox());
        self.carry_out(coord);
        loop {
            match coord.status() {
                Status::Running => self.turn(coord)?,
                Status::Done => return Ok(()),
                Status::Gone => {
                    let what = format!("every worker died or drained: {}", coord.progress());
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, what));
                }
            }
        }
    }

    /// One input: the first joiner in accept order whose first frame has
    /// been read, else the next reactor event. Only a turn that finds no
    /// event ready waits, at most until the coordinator's next deadline,
    /// and reads the clock when it wakes; the events that wake-up
    /// surfaced carry its time. The frames an input's effects queue leave
    /// at that wait.
    fn turn<W: WeightProvider>(&mut self, coord: &mut Coordinator<'_, W>) -> io::Result<()> {
        if self.now >= self.hard_deadline {
            let what = format!("net run deadline exceeded: {}", coord.progress());
            return Err(io::Error::new(io::ErrorKind::TimedOut, what));
        }
        let read = self.readers.iter().position(|(_, r)| r.is_finished());
        let input = match read.map(|i| self.readers.remove(i).1.join()) {
            // A peer with no frame in time is dropped; a wrong one rejected.
            Some(first) => {
                let first = first.ok().flatten();
                let Some(device) = first.and_then(|(io, f)| self.admit_joiner(io, f)) else {
                    return Ok(());
                };
                self.now = Instant::now();
                Input::Joined(device)
            }
            None => {
                // An event already surfaced is returned without a wait.
                let fresh = !self.net.has_ready();
                let due = fresh.then(|| coord.next_deadline()).flatten();
                let wait = due.map_or(MAX_WAIT, |due| {
                    let left = due.saturating_sub(self.nanos(Instant::now()));
                    MAX_WAIT.min(Duration::from_nanos(left))
                });
                let event = self.net.pump(wait);
                if fresh {
                    self.now = Instant::now();
                }
                match event {
                    None => Input::Tick,
                    Some(Pump::Frame(slot, frame)) => Input::Frame(slot, frame),
                    Some(Pump::Closed(slot)) => Input::Closed(slot),
                    Some(Pump::Incoming(stream)) => {
                        self.read_first_frame(stream);
                        return Ok(());
                    }
                }
            }
        };
        self.input(coord, input);
        Ok(())
    }

    /// The coordinator's one call site: stamp the input with `self.now`
    /// and carry out what it decides — a pool worker it asks for joins as
    /// the next input, stamped when its handshake ends.
    fn input<W: WeightProvider>(&mut self, coord: &mut Coordinator<'_, W>, input: Input) {
        let now_ns = self.nanos(self.now);
        #[cfg(test)]
        let logged = (now_ns, input.clone());
        coord.on(now_ns, input);
        #[cfg(test)]
        super::tests::RunLog::append(Some(logged), coord.outbox());
        if let Some(device) = self.carry_out(coord).then(|| self.grow()).flatten() {
            self.now = Instant::now();
            self.input(coord, Input::Joined(device));
        }
    }

    /// Carry the outbox out; says whether it asked for a pool worker.
    fn carry_out<W: WeightProvider>(&mut self, coord: &mut Coordinator<'_, W>) -> bool {
        let mut grow = false;
        for out in coord.drain_outbox() {
            match out {
                Out::Send(slot, frame) => self.net.send(slot, &frame),
                Out::Deliver(slot, kind, buffers) => self.net.send_deliver(slot, kind, &buffers),
                Out::Sever(slot) => self.net.sever(slot),
                Out::Close(slot) => self.net.graceful_close(slot),
                Out::Grow => grow = true,
            }
        }
        grow
    }

    /// Take a pre-connected worker from the pool and run its `Hello`
    /// handshake inline.
    fn grow(&mut self) -> Option<DeviceId> {
        let NetWorkerConn { device, stream } = self.pool.as_mut()?.grow()?;
        let slot = self.net.len();
        let mut io = SlotIo::new(stream, sever_for(&self.drops, NODE, slot));
        let ok = io.hello(NODE, slot, Instant::now() + HANDSHAKE_WAIT);
        (ok && self.register(io).is_ok()).then_some(device)
    }

    /// Read an accepted connection's first frame on a short-lived helper
    /// thread, so a slow or silent peer never holds up the event loop;
    /// the thread hands the connection back with its frame when joined.
    fn read_first_frame(&mut self, stream: TcpStream) {
        let Ok(handle) = stream.try_clone() else {
            return;
        };
        let read = move || {
            let mut io = SlotIo::new(stream, None);
            let first = io.read_frame(Instant::now() + HANDSHAKE_WAIT).ok()?;
            Some((io, first))
        };
        let name = "anthill-net-join".to_string();
        if let Ok(reader) = std::thread::Builder::new().name(name).spawn(read) {
            self.readers.push((handle, reader));
        }
    }

    /// First contact on an accepted connection: a valid `Join` makes the
    /// peer the next slot, whose id its `JoinAck` carries; anything else is
    /// answered with a typed [`Frame::JoinRejected`] before the socket
    /// closes, never a silent drop.
    fn admit_joiner(&mut self, mut io: SlotIo, first: Frame) -> Option<DeviceId> {
        let reason = match first {
            Frame::Join { node, kind } if node as usize == NODE => {
                let slot = self.net.len();
                let (node, index) = (NODE as u32, slot as u32);
                io.write(&Frame::JoinAck { node, slot: index });
                io.sever_after = sever_for(&self.drops, NODE, slot);
                // Unless the joiner hung up before its JoinAck.
                let ok = io.open && self.register(io).is_ok();
                return ok.then_some(DeviceId {
                    node: NODE,
                    kind,
                    index: slot,
                });
            }
            Frame::Join { node, .. } => format!("unknown node {node}"),
            _ => "expected Join as the first frame of a dynamic connection".to_string(),
        };
        io.write(&Frame::JoinRejected { reason });
        io.close();
        None
    }

    /// Shut every remaining slot down gracefully and report the run.
    fn finish<W: WeightProvider>(mut self, coord: Coordinator<'_, W>) -> NetLoadReport {
        self.net.shutdown_all();
        coord.report(self.net.stats())
    }
}

impl Drop for Shell<'_> {
    /// Join every first-frame reader, waking one still waiting with an end
    /// of stream.
    fn drop(&mut self) {
        for (stream, reader) in self.readers.drain(..) {
            let _ = stream.shutdown(Shutdown::Read);
            let _ = reader.join();
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
    let (mut shell, slots) = Shell::connect(&cfg, workers)?;
    let mut coord = Coordinator::new(&cfg, &slots, weights, sources, Vec::new(), None);
    shell.run(&mut coord)?;
    Ok(shell.finish(coord).outcome)
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
    let (mut shell, slots) = Shell::connect(&cfg, workers)?;
    shell.net.attach_listener(listener)?;
    let mut coord = Coordinator::new(&cfg, &slots, weights, sources, drains, None);
    shell.run(&mut coord)?;
    let (joins, drains) = (coord.joins(), coord.drains());
    Ok(ElasticOutcome {
        joins,
        drains,
        outcome: shell.finish(coord).outcome,
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
    let (mut shell, slots) = Shell::connect(&cfg, workers)?;
    let (autoscaler, pool) = match elastic {
        Some(e) => (Some(e.autoscaler), Some(e.pool)),
        None => (None, None),
    };
    shell.pool = pool;
    let load = OpenLoop::new(
        admission,
        &cfg.recorder,
        arrivals,
        make_task,
        sample_every,
        on_complete,
        autoscaler,
    );
    let mut coord = Coordinator::new(&cfg, &slots, weights, Vec::new(), Vec::new(), Some(load));
    shell.run(&mut coord)?;
    Ok(shell.finish(coord))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferId;
    use crate::net::frame::encode_frame;
    use crate::net::tcp_pair;
    use crate::weights::OracleWeights;
    use anthill_estimator::TaskParams;
    use anthill_hetsim::{GpuParams, TaskShape};
    use anthill_simkit::SimDuration;
    use std::io::Write as _;

    /// The shell hands the poller the exact time left to the coordinator's
    /// next deadline, with no floor under it. A request timeout that is
    /// pending, just due, or just missed must cost the loop a handful of
    /// turns — each one a real sleep or a timer pop — never a spin on
    /// zero-length waits.
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
        let conn = NetWorkerConn {
            device,
            stream: coordinator,
        };
        let (mut shell, slots) = Shell::connect(&cfg, vec![conn]).expect("handshake");
        let source = DataBuffer {
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
        };
        let weights = OracleWeights::new(GpuParams::geforce_8800gt(), false);
        let mut coord = Coordinator::new(&cfg, &slots, weights, vec![source], Vec::new(), None);
        shell.carry_out(&mut coord);
        let next_fire = |coord: &Coordinator<'_, OracleWeights>| {
            coord.next_deadline().expect("a request timeout is armed")
        };

        // Three timeouts in a row (the retries back off, so each is longer).
        for round in 0..3 {
            let fire = next_fire(&coord);
            // One turn per capped wait, then the exact remainder, a zero
            // wait if the clock moved between the two reads, and the pop.
            let allowed = fire.saturating_sub(shell.nanos(Instant::now())) / 25_000_000 + 4;
            let mut turns = 0;
            while next_fire(&coord) == fire {
                shell.turn(&mut coord).expect("turn");
                turns += 1;
                assert!(
                    turns <= allowed,
                    "round {round}: {turns} turns, {allowed} allowed"
                );
            }
            assert!(
                shell.nanos(Instant::now()) >= fire,
                "round {round}: the timeout fired early"
            );
        }
        shell.input(&mut coord, Input::Closed(0));
        silent.join().expect("silent peer thread");
    }
}
