//! The wall-clock coordinator as a function of time and input.
//!
//! [`Coordinator`] makes every run-time decision of a wall-clock TCP run
//! and performs no I/O: the engine (DQAA windows, DBSA picks, dispatch,
//! the death and drain paths) on a [`VirtualClock`], request timeouts,
//! heartbeat silence, scripted drains, and the open-loop arrivals,
//! admission, sampler and autoscaler verdict. The shell in
//! [`super::driver`] owns the sockets and the time: it turns each socket
//! event, finished handshake or elapsed wait into one [`Input`], calls
//! [`Coordinator::on`] with the time it read, and carries out the [`Out`]s
//! left in the outbox. So a recorded `(now_ns, Input)` sequence replays
//! without sockets, as the tests below do.
//!
//! A slot has one lifecycle, the engine's: Active, Draining (alive, no
//! longer assignable) and Gone. The coordinator only counts how slots came
//! and went, remembers when each last spoke (`last_seen_ns`) and which
//! drains it started and has not yet seen finish.
//!
//! A `Request` echo that finds its reader empty waits there, as the
//! paper's DBSA sender parks it (Algorithms 4–5), instead of coming back
//! empty: the input that next puts a buffer in the reader answers it, so
//! the delivery leaves in that input's flush. A drain answers the slot's
//! waiting requests empty, a death drops them, and a request whose timer
//! fires stops waiting before the engine re-sends it under a fresh id.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::Duration;

use anthill_hetsim::{DeviceId, DeviceKind};
use anthill_simkit::{SimDuration, SimTime};

use crate::buffer::DataBuffer;
use crate::engine::{
    self, AdmissionConfig, Engine, EngineConfig, Executor, Transport, VirtualClock, WorkerRef,
};
use crate::membership::{Autoscaler, ScaleAction};
use crate::obs::{DeviceRef, EventKind, Recorder};
use crate::weights::WeightProvider;

use super::conn::WireStats;
use super::driver::{DrainAt, NetConfig, NetLoadReport, NetOutcome, NetTaskTiming};
use super::frame::Frame;

/// The coordinator's one engine node: a wall-clock run is one filter.
pub(crate) const NODE: usize = 0;

/// One thing that happened to a run, as the shell reports it.
#[derive(Debug, Clone)]
pub(crate) enum Input {
    /// A decoded frame from a slot.
    Frame(usize, Frame),
    /// A slot's connection ended: EOF, a failed flush or a scheduled sever.
    Closed(usize),
    /// A worker finished its handshake and is the next slot.
    Joined(DeviceId),
    /// Time passed and nothing else happened.
    Tick,
}

/// One effect for the shell to carry out, in the order it was decided.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Out {
    /// Queue a frame on a slot.
    Send(usize, Frame),
    /// Queue a `Deliver` of these buffers; the inflight table holds
    /// clones, each a reference-count bump on its parameters.
    Deliver(usize, DeviceKind, Vec<DataBuffer>),
    /// Tear a dead slot's connection down.
    Sever(usize),
    /// Shut a drained slot's connection down gracefully.
    Close(usize),
    /// Admit one more worker from the pool.
    Grow,
}

/// Where a run stands after its latest input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Running,
    /// Every seeded, admitted and recirculated buffer completed once, and
    /// an open-loop run's schedule and intake are drained.
    Done,
    /// Every slot died or drained with work left.
    Gone,
}

/// The engine's driver: what its callbacks send, launch and arm.
struct Effects {
    out: Vec<Out>,
    /// Buffers launched on each slot and not yet completed.
    inflight: Vec<Vec<DataBuffer>>,
    /// `(fire_ns, slot, req_id)` min-heap of request timeouts.
    timers: BinaryHeap<Reverse<(u64, usize, u64)>>,
    batch_limit: usize,
}

impl Transport for Effects {
    fn send_request(&mut self, from: WorkerRef, reader: usize, req_id: u64) {
        let reader = reader as u32;
        self.out
            .push(Out::Send(from.worker, Frame::Request { reader, req_id }));
    }

    fn schedule_timeout(&mut self, worker: WorkerRef, req_id: u64, fire_at: SimTime) {
        self.timers
            .push(Reverse((fire_at.as_nanos(), worker.worker, req_id)));
    }
}

impl Executor for Effects {
    fn batch_limit(&mut self, _worker: WorkerRef) -> usize {
        self.batch_limit
    }

    fn launch(&mut self, worker: WorkerRef, batch: Vec<DataBuffer>) {
        self.inflight[worker.worker].extend(batch.iter().cloned());
        self.out
            .push(Out::Deliver(worker.worker, worker.device.kind, batch));
    }
}

/// Re-stamp a worker's execution span onto the coordinator clock as the
/// `remote_start`/`remote_finish` event pair.
pub(crate) fn record_remote_span(
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

/// The decisions of one wall-clock run (see the module docs).
pub(crate) struct Coordinator<'a, W: WeightProvider> {
    clock: VirtualClock,
    engine: Engine<VirtualClock, W>,
    fx: Effects,
    heartbeat_ns: Option<u64>,
    /// When each slot last sent a frame, or joined.
    last_seen_ns: Vec<u64>,
    /// No slot can have been silent too long before this time.
    heartbeat_due_ns: u64,
    /// Worker-reported processing times of each slot's running batch.
    pending_procs: Vec<Vec<SimDuration>>,
    drain_at: std::iter::Peekable<std::vec::IntoIter<DrainAt>>,
    /// Slots whose drain started and whose retirement is not yet seen.
    draining: Vec<usize>,
    /// `(slot, reader, req_id)` of request echoes waiting at an empty
    /// reader, oldest first; each slot is alive and not draining.
    parked: VecDeque<(usize, usize, u64)>,
    load: Option<OpenLoop<'a>>,
    /// Completions the run must reach: seeds, admitted tasks and every
    /// recirculated copy.
    expected: u64,
    dispatch_order: Vec<(DeviceKind, u64)>,
    deaths: u32,
    drains: u32,
    joins: u32,
    scale_downs: u64,
    /// Set when the last slot retires.
    gone: bool,
}

impl<'a, W: WeightProvider> Coordinator<'a, W> {
    /// A run over `slots` — each initial worker's device and whether its
    /// handshake succeeded — seeded with `sources`, with the scripted
    /// `drains` and, for an open-loop run, `load`. Failed slots die before
    /// the live ones are kicked; the outbox holds the kick's requests.
    pub(crate) fn new(
        cfg: &NetConfig,
        slots: &[(DeviceId, bool)],
        weights: W,
        sources: Vec<DataBuffer>,
        mut drains: Vec<DrainAt>,
        load: Option<OpenLoop<'a>>,
    ) -> Coordinator<'a, W> {
        let engine_cfg = EngineConfig {
            policy: cfg.policy,
            recovery: cfg.recovery,
        };
        let clock = VirtualClock::new();
        let mut engine = Engine::new(engine_cfg, clock.clone(), weights, cfg.recorder.clone());
        engine.add_node();
        drains.sort_by_key(|d| d.after_completions);
        let heartbeat_ns = cfg.heartbeat_timeout.map(|t| t.as_nanos() as u64);
        let mut c = Coordinator {
            clock,
            engine,
            fx: Effects {
                out: Vec::new(),
                inflight: Vec::new(),
                timers: BinaryHeap::new(),
                batch_limit: cfg.batch_limit.max(1),
            },
            heartbeat_ns,
            last_seen_ns: Vec::new(),
            heartbeat_due_ns: heartbeat_ns.map_or(u64::MAX, |t| t.saturating_add(1)),
            pending_procs: Vec::new(),
            drain_at: drains.into_iter().peekable(),
            draining: Vec::new(),
            parked: VecDeque::new(),
            load,
            expected: sources.len() as u64,
            dispatch_order: Vec::new(),
            deaths: 0,
            drains: 0,
            joins: 0,
            scale_downs: 0,
            gone: false,
        };
        for &(device, _) in slots {
            c.engine.add_worker(NODE, device);
            c.add_slot(0);
        }
        for slot in (0..slots.len()).filter(|&s| !slots[s].1) {
            c.kill(slot);
        }
        for b in sources {
            c.engine.seed_reader(NODE, b);
        }
        // Kick every live requester, as the sequential driver does.
        for slot in 0..slots.len() {
            if c.alive(slot) {
                c.engine.data_arrived(NODE, slot, u64::MAX, None, &mut c.fx);
            }
        }
        c.advance(0);
        c
    }

    /// The one entry point: `input` happened at `now_ns`, nanoseconds since
    /// the run started. Handles it and everything the time makes due.
    pub(crate) fn on(&mut self, now_ns: u64, input: Input) {
        self.clock.set(SimTime(now_ns));
        match input {
            Input::Frame(slot, frame) => self.frame(now_ns, slot, frame),
            Input::Closed(slot) => self.kill(slot),
            Input::Joined(device) => self.join(now_ns, device),
            Input::Tick => {}
        }
        self.advance(now_ns);
    }

    /// When an input is due even if no socket speaks: the earliest request
    /// timeout, arrival, queue-depth sample, intake deadline expiry or
    /// heartbeat check.
    pub(crate) fn next_deadline(&self) -> Option<u64> {
        let timer = self.fx.timers.peek().map(|&Reverse((fire, _, _))| fire);
        let heartbeat = self.heartbeat_ns.map(|_| self.heartbeat_due_ns);
        let load = self.load.as_ref().map(|l| l.open.next_deadline());
        [timer, heartbeat, load].into_iter().flatten().min()
    }

    pub(crate) fn status(&self) -> Status {
        if self.finished() {
            Status::Done
        } else if self.gone {
            Status::Gone
        } else {
            Status::Running
        }
    }

    /// Take the effects decided so far, in order.
    pub(crate) fn drain_outbox(&mut self) -> std::vec::Drain<'_, Out> {
        self.fx.out.drain(..)
    }

    #[cfg(test)]
    pub(crate) fn outbox(&self) -> &[Out] {
        &self.fx.out
    }

    /// Workers admitted mid-run, from the listener or the pool.
    pub(crate) fn joins(&self) -> u32 {
        self.joins
    }

    /// Graceful drains completed.
    pub(crate) fn drains(&self) -> u32 {
        self.drains
    }

    /// How far the run got and where its work sits, for the errors that
    /// end a run early.
    pub(crate) fn progress(&self) -> String {
        let (done, expected) = (self.engine.total_done(), self.expected);
        let (joins, deaths) = (self.joins, self.deaths);
        let state = self.engine.debug_node_state(NODE);
        let inflight: Vec<usize> = self.fx.inflight.iter().map(Vec::len).collect();
        format!("{done}/{expected} buffers done, {joins} join(s), {deaths} worker(s) dead; {state}; inflight={inflight:?}")
    }

    /// The run's result, with the shell's socket counters.
    pub(crate) fn report(self, wire: WireStats) -> NetLoadReport {
        let (admission, completed, queue_depth) = match self.load {
            Some(l) => l.open.finish(),
            None => Default::default(),
        };
        let outcome = NetOutcome {
            assigned: self.engine.tasks_by(),
            dispatch_order: self.dispatch_order,
            total: self.engine.total_done(),
            deaths: self.deaths,
            wire,
        };
        let (scale_ups, scale_downs) = (u64::from(self.joins), self.scale_downs);
        NetLoadReport {
            outcome,
            admission,
            completed,
            queue_depth,
            scale_ups,
            scale_downs,
        }
    }

    fn add_slot(&mut self, now_ns: u64) {
        self.fx.inflight.push(Vec::new());
        self.pending_procs.push(Vec::new());
        self.last_seen_ns.push(now_ns);
    }

    fn alive(&self, slot: usize) -> bool {
        self.engine.worker_alive(NODE, slot)
    }

    fn frame(&mut self, now_ns: u64, slot: usize, frame: Frame) {
        self.last_seen_ns[slot] = now_ns;
        if !self.alive(slot) {
            return; // a late frame from a retired slot
        }
        match frame {
            // An empty reader keeps the request until a buffer arrives; a
            // draining slot's is answered now, so the drain can finish.
            Frame::Request { reader, req_id } => {
                let reader = reader as usize;
                if self.engine.reader_len(reader) == 0 && !self.engine.worker_draining(NODE, slot) {
                    self.parked.push_back((slot, reader, req_id));
                } else {
                    self.answer(slot, reader, req_id);
                }
            }
            // Retire the inflight entry, re-stamp the worker span, credit
            // the engine, recirculate (each copy one more completion due).
            Frame::Complete {
                buffer,
                proc_ns,
                span,
                recirculated,
            } => {
                let (id, span_ns) = (buffer.id.0, span.end_ns.saturating_sub(span.start_ns));
                self.fx.inflight[slot].retain(|b| b.id.0 != id);
                let device = self.engine.worker_device(NODE, slot);
                self.dispatch_order.push((device.kind, id));
                let rec = self.engine.recorder();
                if rec.is_enabled() {
                    record_remote_span(rec, now_ns, device, &buffer, span_ns);
                }
                let proc = SimDuration(proc_ns);
                self.engine.task_finished(NODE, slot, &buffer, proc);
                self.pending_procs[slot].push(proc);
                self.expected += recirculated.len() as u64;
                for r in recirculated {
                    self.engine.recirculate(NODE, r, &mut self.fx);
                }
                if let Some(load) = self.load.as_mut() {
                    load.task_completed(now_ns, id, span_ns);
                }
            }
            Frame::BatchDone => {
                let procs = std::mem::take(&mut self.pending_procs[slot]);
                self.engine.worker_idle(NODE, slot, &procs, &mut self.fx);
            }
            // A typed rejection, not silence: a dynamic join needs a
            // fresh connection.
            Frame::Join { .. } => {
                let reason =
                    "slot already joined; dynamic joins need a fresh connection".to_string();
                self.fx
                    .out
                    .push(Out::Send(slot, Frame::JoinRejected { reason }));
            }
            // Heartbeats already refreshed `last_seen_ns`; the rest are
            // protocol noise a healthy worker never sends.
            Frame::Heartbeat { .. }
            | Frame::Hello { .. }
            | Frame::Bye
            | Frame::Deliver { .. }
            | Frame::JoinAck { .. }
            | Frame::JoinRejected { .. }
            | Frame::Shutdown => {}
        }
    }

    /// Answer `slot`'s request `req_id` from `reader`: a buffer, or empty
    /// if the reader has none. Its round trip, as the engine settles it,
    /// includes any wait at the reader.
    fn answer(&mut self, slot: usize, reader: usize, req_id: u64) {
        let kind = self.engine.worker_device(NODE, slot).kind;
        let buffer = self.engine.answer_request(reader, kind);
        self.engine
            .data_arrived(NODE, slot, req_id, buffer, &mut self.fx);
    }

    /// Take `slot`'s parked requests out of the queue; returns their ids.
    fn unpark(&mut self, slot: usize) -> Vec<u64> {
        let ids = self.parked.iter().filter(|p| p.0 == slot).map(|p| p.2);
        let ids = ids.collect();
        self.parked.retain(|p| p.0 != slot);
        ids
    }

    /// Answer parked requests, oldest first, while their reader holds
    /// buffers.
    fn serve_parked(&mut self) {
        while let Some(&(slot, reader, req_id)) = self.parked.front() {
            if self.engine.reader_len(reader) == 0 {
                break;
            }
            debug_assert!(self.alive(slot) && !self.engine.worker_draining(NODE, slot));
            self.parked.pop_front();
            self.answer(slot, reader, req_id);
        }
    }

    /// Retire a live slot through the engine's death and recovery path,
    /// which re-homes its inflight buffers. Its parked requests die with
    /// it.
    fn kill(&mut self, slot: usize) {
        if !self.alive(slot) {
            return;
        }
        self.deaths += 1;
        self.draining.retain(|&s| s != slot);
        self.unpark(slot);
        self.fx.out.push(Out::Sever(slot));
        let inflight = std::mem::take(&mut self.fx.inflight[slot]);
        self.engine.worker_died(NODE, slot, inflight, &mut self.fx);
        self.slot_retired();
    }

    /// A handshaken worker becomes the next slot: `worker_joined`, a DQAA
    /// warm-up window and an immediate request pump.
    fn join(&mut self, now_ns: u64, device: DeviceId) {
        self.joins += 1;
        self.add_slot(now_ns);
        if let Some(timeout) = self.heartbeat_ns {
            let due = now_ns.saturating_add(timeout).saturating_add(1);
            self.heartbeat_due_ns = self.heartbeat_due_ns.min(due);
        }
        self.engine.join_worker(NODE, device, &mut self.fx);
    }

    /// Start draining `slot` if it exists, is alive and is not draining;
    /// its parked requests are answered empty, so it can retire.
    fn drain(&mut self, slot: usize) {
        if slot < self.last_seen_ns.len()
            && self.alive(slot)
            && !self.engine.worker_draining(NODE, slot)
        {
            self.draining.push(slot);
            self.engine.drain_worker(NODE, slot);
            for req_id in self.unpark(slot) {
                self.engine
                    .data_arrived(NODE, slot, req_id, None, &mut self.fx);
            }
        }
    }

    /// Everything the time makes due, the parked requests a buffer can
    /// now fill, then the drains that retired.
    fn advance(&mut self, now_ns: u64) {
        while let Some(&Reverse((fire, slot, req_id))) = self.fx.timers.peek() {
            if fire > now_ns {
                break;
            }
            self.fx.timers.pop();
            // A timed-out request stops waiting: its retry has a new id.
            let parked = self
                .parked
                .iter()
                .position(|&(s, _, id)| (s, id) == (slot, req_id));
            if let Some(i) = parked {
                self.parked.remove(i);
            }
            self.engine
                .request_timed_out(NODE, slot, req_id, &mut self.fx);
        }
        self.check_heartbeats(now_ns);
        if !self.finished() {
            let done = self.engine.total_done();
            while let Some(d) = self.drain_at.next_if(|d| done >= d.after_completions) {
                self.drain(d.slot);
            }
            self.feed(now_ns);
        }
        self.serve_parked();
        // A drained slot's connection closes at the input that retired it.
        let mut i = 0;
        while let Some(&slot) = self.draining.get(i) {
            if self.alive(slot) {
                i += 1;
                continue;
            }
            self.draining.swap_remove(i);
            self.drains += 1;
            self.fx.out.push(Out::Close(slot));
            self.slot_retired();
        }
    }

    /// Kill every slot silent past the heartbeat timeout. The scan runs
    /// once the oldest `last_seen_ns` it saw last time could have expired.
    fn check_heartbeats(&mut self, now_ns: u64) {
        let Some(timeout) = self
            .heartbeat_ns
            .filter(|_| now_ns >= self.heartbeat_due_ns)
        else {
            return;
        };
        let mut oldest = u64::MAX;
        for slot in 0..self.last_seen_ns.len() {
            let seen = self.last_seen_ns[slot];
            if !self.alive(slot) {
                continue;
            } else if now_ns.saturating_sub(seen) > timeout {
                self.kill(slot);
            } else {
                oldest = oldest.min(seen);
            }
        }
        self.heartbeat_due_ns = oldest.saturating_add(timeout).saturating_add(1);
    }

    /// The open-loop work of an input: admit what completions freed and
    /// every due arrival, then sample and act on the autoscaler's verdict.
    fn feed(&mut self, now_ns: u64) {
        let Coordinator {
            load: Some(load),
            engine,
            fx,
            expected,
            ..
        } = self
        else {
            return;
        };
        let OpenLoop {
            open,
            make_task,
            admitted_arrival,
            ..
        } = load;
        open.intake(now_ns, &mut **make_task, |buffer, arrival_ns| {
            admitted_arrival.insert(buffer.id.0, arrival_ns);
            *expected += 1;
            engine.seed_live(NODE, buffer, fx);
        });
        match load.sample(now_ns, engine) {
            Some(ScaleAction::Grow) => self.fx.out.push(Out::Grow),
            Some(ScaleAction::Shrink) => {
                let victim = (0..self.last_seen_ns.len())
                    .rev()
                    .find(|&s| self.alive(s) && !self.engine.worker_draining(NODE, s));
                if let Some(slot) = victim {
                    self.drain(slot);
                    self.scale_downs += 1;
                }
            }
            None => {}
        }
    }

    /// A slot left: the run is gone once none is alive.
    fn slot_retired(&mut self) {
        self.gone = !(0..self.last_seen_ns.len()).any(|s| self.alive(s));
    }

    fn finished(&self) -> bool {
        self.engine.total_done() >= self.expected
            && self.load.as_ref().is_none_or(|l| l.open.drained())
    }
}

/// What an open-loop run adds to the coordinator: the schedule's state
/// machine, and what only the coordinator has — the task factory, the
/// per-task timing callback with each admitted task's scheduled arrival,
/// and the autoscaler on the sample cadence.
pub(crate) struct OpenLoop<'a> {
    open: engine::OpenLoop<'a, DataBuffer>,
    make_task: &'a mut dyn FnMut(u64, u64) -> DataBuffer,
    on_complete: &'a mut dyn FnMut(NetTaskTiming),
    autoscaler: Option<Autoscaler>,
    /// Scheduled arrival of admitted, not-yet-completed tasks.
    admitted_arrival: HashMap<u64, u64>,
    /// The latest completion's e2e latency, the autoscaler's signal.
    last_e2e: Option<u64>,
}

impl<'a> OpenLoop<'a> {
    /// `arrivals` (ascending offsets from the run start) pass `admission`;
    /// `make_task(index, arrival_ns)` builds each task and `on_complete`
    /// hears each admitted task's timing. The queue depth is sampled every
    /// `sample_every` (at least 200 µs), where `autoscaler` decides.
    pub(crate) fn new(
        admission: AdmissionConfig,
        recorder: &Recorder,
        arrivals: &'a [u64],
        make_task: &'a mut dyn FnMut(u64, u64) -> DataBuffer,
        sample_every: Duration,
        on_complete: &'a mut dyn FnMut(NetTaskTiming),
        autoscaler: Option<Autoscaler>,
    ) -> OpenLoop<'a> {
        OpenLoop {
            open: engine::OpenLoop::new(admission, recorder, arrivals, sample_every),
            make_task,
            on_complete,
            autoscaler,
            admitted_arrival: HashMap::new(),
            last_e2e: None,
        }
    }

    /// The queue-depth sample, when due; the autoscaler rides the same
    /// cadence, so its decisions are a function of the sampled signals.
    fn sample<W: WeightProvider>(
        &mut self,
        now_ns: u64,
        engine: &Engine<VirtualClock, W>,
    ) -> Option<ScaleAction> {
        if !self.open.sample_due(now_ns) {
            return None;
        }
        let s = self
            .open
            .sample(now_ns, vec![engine.reader_len(NODE) as u64]);
        let depth = (s.ready + s.intake) as usize;
        let (last_e2e, active) = (self.last_e2e, engine.active_worker_count());
        let decide = |a: &mut Autoscaler| a.decide(now_ns, depth, last_e2e, active);
        self.autoscaler.as_mut().and_then(decide)
    }

    /// First completion of an admitted task frees its admission slot and
    /// reports its latency split; recirculated copies find no entry.
    fn task_completed(&mut self, finished_ns: u64, id: u64, span_ns: u64) {
        let Some(arrival) = self.admitted_arrival.remove(&id) else {
            return;
        };
        let e2e_ns = finished_ns.saturating_sub(arrival);
        let service_ns = span_ns.min(e2e_ns);
        self.last_e2e = Some(e2e_ns);
        let queue_ns = e2e_ns - service_ns;
        (self.on_complete)(NetTaskTiming {
            buffer: id,
            queue_ns,
            service_ns,
            e2e_ns,
        });
        self.open.completed();
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use anthill_estimator::TaskParams;
    use anthill_hetsim::{GpuParams, TaskShape};
    use anthill_simkit::SimRng;

    use super::*;
    use crate::buffer::BufferId;
    use crate::engine::OverloadPolicy;
    use crate::faults::{ConnectionDropSpec, RecoveryConfig};
    use crate::net::frame::WireSpan;
    use crate::net::tests::{loopback_listener, RunLog};
    use crate::net::{
        run_concurrent_elastic, run_concurrent_load, spawn_joining_worker_thread,
        spawn_worker_thread, tcp_pair, Behavior, NetWorkerConn,
    };
    use crate::obs::jsonl;
    use crate::policy::Policy;
    use crate::weights::OracleWeights;

    fn cpu(index: usize) -> DeviceId {
        DeviceId {
            node: NODE,
            kind: DeviceKind::Cpu,
            index,
        }
    }

    /// `n` CPU slots whose handshakes all succeeded.
    fn initial(n: usize) -> Vec<(DeviceId, bool)> {
        (0..n).map(|i| (cpu(i), true)).collect()
    }

    fn buffer(id: u64) -> DataBuffer {
        DataBuffer {
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
        }
    }

    fn oracle() -> OracleWeights {
        OracleWeights::new(GpuParams::geforce_8800gt(), false)
    }

    fn coordinator(
        cfg: &NetConfig,
        slots: usize,
        sources: u64,
        drains: Vec<DrainAt>,
    ) -> Coordinator<'static, OracleWeights> {
        let sources = (0..sources).map(buffer).collect();
        Coordinator::new(cfg, &initial(slots), oracle(), sources, drains, None)
    }

    /// Answer an outbox the way `run_worker` would: echo each request;
    /// complete each delivered buffer, then say `BatchDone`.
    fn answer(outbox: &[Out], frames: &mut VecDeque<Input>) {
        for out in outbox {
            match out {
                Out::Send(slot, request @ Frame::Request { .. }) => {
                    frames.push_back(Input::Frame(*slot, request.clone()));
                }
                Out::Deliver(slot, _, buffers) => {
                    for b in buffers {
                        let complete = Frame::Complete {
                            buffer: b.clone(),
                            proc_ns: 5_000,
                            span: WireSpan {
                                start_ns: 0,
                                end_ns: 5_000,
                            },
                            recirculated: Vec::new(),
                        };
                        frames.push_back(Input::Frame(*slot, complete));
                    }
                    frames.push_back(Input::Frame(*slot, Frame::BatchDone));
                }
                _ => {}
            }
        }
    }

    /// Play the workers in memory from the `pending` outbox on: one input
    /// per frame, 1 µs apart after `*t`, until the run stops running or
    /// no worker has anything left to say. Returns each input's time and
    /// outbox.
    fn play(
        coord: &mut Coordinator<'_, OracleWeights>,
        t: &mut u64,
        pending: &[Out],
    ) -> Vec<(u64, Vec<Out>)> {
        let mut frames = VecDeque::new();
        answer(pending, &mut frames);
        let mut steps = Vec::new();
        while coord.status() == Status::Running {
            let Some(input) = frames.pop_front() else {
                break;
            };
            *t += 1_000;
            coord.on(*t, input);
            let out: Vec<Out> = coord.drain_outbox().collect();
            answer(&out, &mut frames);
            steps.push((*t, out));
        }
        steps
    }

    #[test]
    fn heartbeat_silence_kills_at_the_first_input_past_the_timeout() {
        const TIMEOUT: u64 = 500_000_000;
        const SPOKE: u64 = 400_000_000;
        let mut cfg = NetConfig::new(Policy::ddfcfs(4));
        cfg.heartbeat_timeout = Some(Duration::from_nanos(TIMEOUT));
        let mut c = coordinator(&cfg, 2, 4, Vec::new());
        c.drain_outbox().for_each(drop);
        c.on(SPOKE, Input::Frame(0, Frame::Heartbeat { seq: 1 }));
        assert_eq!(c.drain_outbox().count(), 0);

        // Slot 1 has said nothing since time zero.
        assert_eq!(c.next_deadline(), Some(TIMEOUT + 1));
        c.on(TIMEOUT, Input::Tick);
        assert_eq!(
            c.drain_outbox().count(),
            0,
            "silent for exactly the timeout"
        );
        c.on(TIMEOUT + 1, Input::Tick);
        assert_eq!(c.drain_outbox().collect::<Vec<_>>(), [Out::Sever(1)]);
        // Its EOF arrives after the sever: nothing left to do.
        c.on(TIMEOUT + 2, Input::Closed(1));
        assert_eq!(c.drain_outbox().count(), 0);

        // Slot 0 spoke at `SPOKE`.
        assert_eq!(c.next_deadline(), Some(SPOKE + TIMEOUT + 1));
        c.on(SPOKE + TIMEOUT, Input::Tick);
        assert_eq!(c.drain_outbox().count(), 0);
        c.on(SPOKE + TIMEOUT + 1, Input::Tick);
        assert_eq!(c.drain_outbox().collect::<Vec<_>>(), [Out::Sever(0)]);
        assert_eq!(c.status(), Status::Gone);
        assert_eq!(c.report(WireStats::default()).outcome.deaths, 2);
    }

    #[test]
    fn a_request_timeout_fires_at_its_deadline_and_not_a_nanosecond_before() {
        let mut cfg = NetConfig::new(Policy::ddfcfs(1));
        cfg.recovery = RecoveryConfig::standard();
        let mut c = coordinator(&cfg, 1, 1, Vec::new());
        let request = |req_id| Out::Send(0, Frame::Request { reader: 0, req_id });
        assert_eq!(c.drain_outbox().collect::<Vec<_>>(), [request(0)]);

        let fire = c.next_deadline().expect("the request's timer");
        assert_eq!(fire, cfg.recovery.request_timeout.as_nanos());
        c.on(fire - 1, Input::Tick);
        assert_eq!(c.drain_outbox().count(), 0);
        c.on(fire, Input::Tick);
        assert_eq!(
            c.drain_outbox().collect::<Vec<_>>(),
            [request(1)],
            "retried under a fresh id"
        );
        assert!(c.next_deadline() > Some(fire), "the retry backs off");
    }

    #[test]
    fn a_drained_slot_is_closed_at_the_input_that_retires_it() {
        let trace = Recorder::enabled();
        let mut cfg = NetConfig::new(Policy::ddfcfs(2));
        cfg.recorder = trace.clone();
        let drains = vec![DrainAt {
            after_completions: 4,
            slot: 0,
        }];
        let mut c = coordinator(&cfg, 3, 24, drains);
        let kick: Vec<Out> = c.drain_outbox().collect();
        let mut t = 0;
        let steps = play(&mut c, &mut t, &kick);
        assert_eq!(c.status(), Status::Done);

        let closed: Vec<u64> = steps
            .iter()
            .filter(|(_, out)| out.contains(&Out::Close(0)))
            .map(|&(at, _)| at)
            .collect();
        let left: Vec<u64> = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::WorkerLeft))
            .map(|e| e.ts_ns)
            .collect();
        assert_eq!(closed.len(), 1, "one Close");
        assert_eq!(
            closed, left,
            "the Close rides on the input that retired the slot"
        );
        assert!(steps.iter().all(|(_, out)| !out.contains(&Out::Sever(0))));

        // The drained slot's EOF is no death.
        c.on(t + 1_000, Input::Closed(0));
        assert_eq!(c.drain_outbox().count(), 0);
        assert_eq!(c.drains(), 1);
        let report = c.report(WireStats::default());
        assert_eq!((report.outcome.deaths, report.outcome.total), (0, 24));
    }

    #[test]
    fn a_join_on_an_established_slot_is_rejected_in_place() {
        let mut c = coordinator(&NetConfig::new(Policy::ddfcfs(4)), 2, 8, Vec::new());
        let kick: Vec<Out> = c.drain_outbox().collect();
        let join = Frame::Join {
            node: NODE as u32,
            kind: DeviceKind::Cpu,
        };
        c.on(1_000, Input::Frame(1, join));
        let out: Vec<Out> = c.drain_outbox().collect();
        assert!(
            matches!(&out[..], [Out::Send(1, Frame::JoinRejected { .. })]),
            "{out:?}"
        );
        let mut t = 1_000;
        play(&mut c, &mut t, &kick);
        assert_eq!(c.status(), Status::Done);
        assert_eq!(c.joins(), 0);
        assert_eq!(c.report(WireStats::default()).outcome.deaths, 0);
    }

    /// An open-loop run over `slots` CPU slots whose arrival `i` is
    /// `buffer(i)`, behind a blocking 16-task intake.
    fn open_loop<'a>(
        cfg: &NetConfig,
        slots: usize,
        drains: Vec<DrainAt>,
        arrivals: &'a [u64],
        make_task: &'a mut dyn FnMut(u64, u64) -> DataBuffer,
        on_complete: &'a mut dyn FnMut(NetTaskTiming),
    ) -> Coordinator<'a, OracleWeights> {
        let admission = AdmissionConfig {
            inflight_cap: 16,
            queue_cap: 16,
            policy: OverloadPolicy::Block,
        };
        let load = OpenLoop::new(
            admission,
            &cfg.recorder,
            arrivals,
            make_task,
            Duration::from_secs(1),
            on_complete,
            None,
        );
        Coordinator::new(
            cfg,
            &initial(slots),
            oracle(),
            Vec::new(),
            drains,
            Some(load),
        )
    }

    /// The ids each `Deliver` in `out` carries, with its slot.
    fn deliveries(out: &[Out]) -> Vec<(usize, u64)> {
        let each = |o: &Out| match o {
            Out::Deliver(slot, _, buffers) => buffers.iter().map(|b| (*slot, b.id.0)).collect(),
            _ => Vec::new(),
        };
        out.iter().flat_map(each).collect()
    }

    /// The `(slot, req_id)` of each `Request` in `out`.
    fn requests(out: &[Out]) -> Vec<(usize, u64)> {
        let each = |o: &Out| match *o {
            Out::Send(slot, Frame::Request { req_id, .. }) => Some((slot, req_id)),
            _ => None,
        };
        out.iter().filter_map(each).collect()
    }

    /// Once the first arrival has filled the window and every echo but the
    /// one that took its buffer waits at the empty reader, each later
    /// arrival is delivered by the very input that admits it: no echo
    /// comes between. That input's one `Request` refills the window slot
    /// the delivery frees (the engine wakes the starved worker as the
    /// buffer enters the reader); no later echo is answered with a buffer.
    #[test]
    fn an_arrival_is_delivered_by_the_input_that_admits_it() {
        let cfg = NetConfig::new(Policy::ddfcfs(4));
        let arrivals: Vec<u64> = (1..=5).map(|k| k * 1_000_000).collect();
        let mut make = |i: u64, _: u64| buffer(i);
        let mut heard = |_: NetTaskTiming| {};
        let mut c = open_loop(&cfg, 1, Vec::new(), &arrivals, &mut make, &mut heard);
        assert_eq!(c.drain_outbox().count(), 0, "nothing to ask for yet");
        for (k, &due) in arrivals.iter().enumerate() {
            c.on(due, Input::Tick);
            let out: Vec<Out> = c.drain_outbox().collect();
            let echoes_delivered = if k == 0 {
                assert_eq!(requests(&out).len(), 4, "the window fills: {out:?}");
                assert!(deliveries(&out).is_empty());
                1
            } else {
                assert_eq!(requests(&out).len(), 1, "{out:?}");
                assert_eq!(deliveries(&out), [(0, k as u64)], "{out:?}");
                0
            };
            let mut t = due;
            let steps = play(&mut c, &mut t, &out);
            let later = steps.iter().filter(|(_, o)| !deliveries(o).is_empty());
            assert_eq!(later.count(), echoes_delivered, "arrival {k}: {steps:?}");
        }
        assert_eq!(c.status(), Status::Done);
        assert_eq!(c.report(WireStats::default()).completed, 5);
    }

    /// Slot 1 starts draining at the first completion with both of its
    /// requests waiting at the empty reader: they are answered empty, and
    /// it retires with `Close` at that very input, before any buffer
    /// arrives.
    #[test]
    fn a_draining_slot_answers_its_parked_requests_empty_and_retires() {
        let trace = Recorder::enabled();
        let mut cfg = NetConfig::new(Policy::ddfcfs(2));
        cfg.recorder = trace.clone();
        let arrivals = [100_000, 10_000_000];
        let drains = vec![DrainAt {
            after_completions: 1,
            slot: 1,
        }];
        let mut make = |i: u64, _: u64| buffer(i);
        let mut heard = |_: NetTaskTiming| {};
        let mut c = open_loop(&cfg, 2, drains, &arrivals, &mut make, &mut heard);
        let mut t = arrivals[0];
        c.on(t, Input::Tick);
        let fill: Vec<Out> = c.drain_outbox().collect();
        assert_eq!(requests(&fill).len(), 4, "both windows fill: {fill:?}");
        let steps = play(&mut c, &mut t, &fill);

        let closed: Vec<u64> = steps
            .iter()
            .filter(|(_, out)| out.contains(&Out::Close(1)))
            .map(|&(at, _)| at)
            .collect();
        let at = |want: fn(&EventKind) -> bool| -> Vec<u64> {
            let events = trace.events();
            events
                .iter()
                .filter(|e| want(&e.kind))
                .map(|e| e.ts_ns)
                .collect()
        };
        let drained = at(|k| matches!(k, EventKind::WorkerDraining { .. }));
        let left = at(|k| matches!(k, EventKind::WorkerLeft));
        assert_eq!(closed.len(), 1, "one Close");
        assert_eq!(
            (&drained, &left),
            (&closed, &closed),
            "drained and closed at once"
        );
        assert!(closed[0] < arrivals[1], "before the next buffer arrives");
        let delivered: Vec<_> = steps.iter().flat_map(|(_, out)| deliveries(out)).collect();
        assert_eq!(delivered, [(0, 0)], "slot 1 is never delivered to");

        c.on(arrivals[1], Input::Tick);
        let out: Vec<Out> = c.drain_outbox().collect();
        assert_eq!(deliveries(&out), [(0, 1)], "{out:?}");
        t = arrivals[1];
        play(&mut c, &mut t, &out);
        assert_eq!(c.status(), Status::Done);
        assert_eq!(c.drains(), 1);
        assert_eq!(c.report(WireStats::default()).outcome.deaths, 0);
    }

    /// Slot 1 dies with both of its requests waiting at the empty reader:
    /// they die with it, and every later arrival goes to slot 0.
    #[test]
    fn parked_requests_die_with_their_slot() {
        let cfg = NetConfig::new(Policy::ddfcfs(2));
        let arrivals = [100_000, 1_000_000, 2_000_000, 3_000_000];
        let mut make = |i: u64, _: u64| buffer(i);
        let mut heard = |_: NetTaskTiming| {};
        let mut c = open_loop(&cfg, 2, Vec::new(), &arrivals, &mut make, &mut heard);
        let mut t = arrivals[0];
        c.on(t, Input::Tick);
        let fill: Vec<Out> = c.drain_outbox().collect();
        assert_eq!(requests(&fill).len(), 4, "both windows fill: {fill:?}");
        play(&mut c, &mut t, &fill);

        c.on(t + 1_000, Input::Closed(1));
        assert_eq!(c.drain_outbox().collect::<Vec<_>>(), [Out::Sever(1)]);
        for (k, &due) in arrivals.iter().enumerate().skip(1) {
            c.on(due, Input::Tick);
            let out: Vec<Out> = c.drain_outbox().collect();
            assert_eq!(deliveries(&out), [(0, k as u64)], "{out:?}");
            t = due;
            let steps = play(&mut c, &mut t, &out);
            assert!(steps.iter().all(|(_, out)| deliveries(out).is_empty()));
        }
        assert_eq!(c.status(), Status::Done);
        let report = c.report(WireStats::default());
        assert_eq!((report.completed, report.outcome.deaths), (4, 1));
    }

    /// Slot 1's only request waits at the empty reader until its timer
    /// fires at the input that also puts a recirculated buffer there: it
    /// is re-sent once, under a fresh id, and is not answered as well. The
    /// buffer is delivered and completes once.
    #[test]
    fn a_parked_request_that_times_out_is_resent_once_under_a_fresh_id() {
        let mut cfg = NetConfig::new(Policy::ddfcfs(1));
        cfg.recovery = RecoveryConfig {
            request_timeout: SimDuration::from_millis(1),
            max_retries: 2,
            ..RecoveryConfig::standard()
        };
        let mut c = coordinator(&cfg, 2, 1, Vec::new());
        let kick: Vec<Out> = c.drain_outbox().collect();
        let [(0, first), (1, parked)] = requests(&kick)[..] else {
            panic!("one request per slot: {kick:?}");
        };
        let echo = |slot, req_id| Input::Frame(slot, Frame::Request { reader: 0, req_id });
        c.on(1_000, echo(0, first));
        assert_eq!(deliveries(&c.drain_outbox().collect::<Vec<_>>()), [(0, 0)]);
        c.on(2_000, echo(1, parked));
        assert_eq!(c.drain_outbox().count(), 0, "the reader is empty: it waits");

        let fire = cfg.recovery.request_timeout.as_nanos();
        assert_eq!(c.next_deadline(), Some(fire));
        let complete = Frame::Complete {
            buffer: buffer(0),
            proc_ns: 5_000,
            span: WireSpan {
                start_ns: 0,
                end_ns: 5_000,
            },
            recirculated: vec![DataBuffer {
                level: 1,
                ..buffer(1)
            }],
        };
        c.on(fire, Input::Frame(0, complete));
        let out: Vec<Out> = c.drain_outbox().collect();
        let sent = requests(&out);
        assert!(deliveries(&out).is_empty(), "nothing answers it: {out:?}");
        let retries: Vec<u64> = sent.iter().filter(|r| r.0 == 1).map(|r| r.1).collect();
        assert_eq!(retries.len(), 1, "{out:?}");
        assert_ne!(retries[0], parked, "a fresh id");

        let mut t = fire;
        let steps = play(&mut c, &mut t, &out);
        assert_eq!(c.status(), Status::Done);
        let delivered: Vec<u64> = steps
            .iter()
            .flat_map(|(_, o)| deliveries(o))
            .map(|d| d.1)
            .collect();
        assert_eq!(delivered, [1], "the recirculated buffer, once");
        assert_eq!(c.report(WireStats::default()).outcome.total, 2);
    }

    /// `n` in-process loopback workers on CPU slots `0..n`.
    fn loopback_workers(n: usize, behavior: Behavior) -> Vec<NetWorkerConn> {
        (0..n)
            .map(|i| {
                let (stream, worker_side) = tcp_pair().expect("loopback pair");
                spawn_worker_thread(worker_side, behavior);
                NetWorkerConn {
                    device: cpu(i),
                    stream,
                }
            })
            .collect()
    }

    /// Recovery armed, slot 1's connection severed after its 40th frame.
    fn severing(policy: Policy, recorder: &Recorder) -> NetConfig {
        let mut cfg = NetConfig::new(policy);
        cfg.recovery = RecoveryConfig::standard();
        cfg.recorder = recorder.clone();
        cfg.drops = vec![ConnectionDropSpec {
            node: NODE,
            worker: 1,
            after_frames: 40,
        }];
        cfg
    }

    /// Feed a fresh coordinator a recorded run's inputs: its outboxes must
    /// be the recorded ones, one for one, and it must end done.
    fn replay(coord: &mut Coordinator<'_, OracleWeights>, log: RunLog) {
        let mut outboxes = vec![coord.drain_outbox().collect::<Vec<_>>()];
        for (now_ns, input) in log.inputs {
            coord.on(now_ns, input);
            outboxes.push(coord.drain_outbox().collect());
        }
        assert_eq!(outboxes.len(), log.outboxes.len());
        if let Some(i) = (0..outboxes.len()).find(|&i| outboxes[i] != log.outboxes[i]) {
            panic!(
                "outbox {i} differs\nreplayed: {:?}\nrecorded: {:?}",
                outboxes[i], log.outboxes[i]
            );
        }
        assert_eq!(coord.status(), Status::Done);
    }

    /// How many distinct times the recorded inputs take; they never
    /// decrease.
    fn distinct_input_times(log: &RunLog) -> usize {
        let times: Vec<u64> = log.inputs.iter().map(|&(t, _)| t).collect();
        assert!(times.is_sorted(), "an input's time went backwards");
        1 + times.windows(2).filter(|w| w[0] != w[1]).count()
    }

    fn assert_same_outcome(replayed: &NetOutcome, live: &NetOutcome) {
        assert_eq!(replayed.dispatch_order, live.dispatch_order);
        assert_eq!(replayed.assigned, live.assigned);
        assert_eq!((replayed.total, replayed.deaths), (live.total, live.deaths));
    }

    /// A live elastic run — 2 000 tasks, slot 1 severed, slot 0 drained at
    /// 500 completions, one joiner from the listener — replayed from its
    /// input log with no socket.
    #[test]
    fn an_elastic_run_replays_without_sockets() {
        const TASKS: u64 = 2_000;
        let behavior = Behavior::Busy { micros: 20 };
        let sources: Vec<DataBuffer> = (0..TASKS).map(buffer).collect();
        let drains = vec![DrainAt {
            after_completions: 500,
            slot: 0,
        }];
        let live_trace = Recorder::enabled();
        let (listener, addr) = loopback_listener();
        let workers = loopback_workers(3, behavior);
        let joiner = spawn_joining_worker_thread(addr, NODE, DeviceKind::Cpu, behavior);
        let (live, log) = RunLog::capture(|| {
            let cfg = severing(Policy::ddwrr(8), &live_trace);
            let sources = sources.clone();
            run_concurrent_elastic(cfg, listener, drains.clone(), workers, sources, oracle())
        });
        let live = live.expect("elastic run");
        joiner
            .join()
            .expect("joiner thread")
            .expect("joiner exits cleanly");
        let counts = (live.outcome.deaths, live.drains, live.joins);
        assert_eq!(counts, (1, 1, 1), "a sever, a drain and a join");
        let times = distinct_input_times(&log);
        assert!(
            times < log.inputs.len(),
            "one wake-up's frames share its time"
        );

        let trace = Recorder::enabled();
        let cfg = severing(Policy::ddwrr(8), &trace);
        let mut coord = Coordinator::new(&cfg, &initial(3), oracle(), sources, drains, None);
        replay(&mut coord, log);
        assert_eq!((coord.joins(), coord.drains()), (live.joins, live.drains));
        let report = coord.report(WireStats::default());
        assert_same_outcome(&report.outcome, &live.outcome);
        assert!(
            jsonl::to_jsonl(&trace.events()) == jsonl::to_jsonl(&live_trace.events()),
            "the replayed trace differs"
        );
    }

    /// Poisson arrival offsets at `rate_hz`, in nanoseconds.
    fn poisson(n: usize, rate_hz: f64, seed: u64) -> Vec<u64> {
        let mut rng = SimRng::new(seed);
        let mut t = 0.0;
        (0..n)
            .map(|_| {
                t += -(1.0 - rng.uniform()).ln() / rate_hz;
                (t * 1e9) as u64
            })
            .collect()
    }

    /// A live open-loop run — 2 000 Poisson arrivals through a bounded,
    /// shedding intake, slot 1 severed — replayed from its input log with
    /// no socket: the same outboxes, report, per-task timings and trace.
    #[test]
    fn an_open_loop_run_replays_without_sockets() {
        let admission = AdmissionConfig {
            inflight_cap: 16,
            queue_cap: 32,
            policy: OverloadPolicy::ShedOldest,
        };
        let arrivals = poisson(2_000, 40_000.0, 27);
        let sample_every = Duration::from_millis(1);
        let live_trace = Recorder::enabled();
        let workers = loopback_workers(3, Behavior::Busy { micros: 20 });
        let mut live_timings = Vec::new();
        let (live, log) = RunLog::capture(|| {
            run_concurrent_load(
                severing(Policy::ddfcfs(4), &live_trace),
                admission,
                workers,
                &arrivals,
                &mut |i, _| buffer(i),
                sample_every,
                oracle(),
                &mut |t| live_timings.push(t),
            )
        });
        let live = live.expect("open-loop run");
        assert_eq!(live.outcome.deaths, 1, "the sever");
        assert!(live.admission.conserved(), "{:?}", live.admission);
        distinct_input_times(&log);

        let trace = Recorder::enabled();
        let mut timings = Vec::new();
        let mut make_task = |i: u64, _: u64| buffer(i);
        let mut on_complete = |t: NetTaskTiming| timings.push(t);
        let load = OpenLoop::new(
            admission,
            &trace,
            &arrivals,
            &mut make_task,
            sample_every,
            &mut on_complete,
            None,
        );
        let cfg = severing(Policy::ddfcfs(4), &trace);
        let mut coord = Coordinator::new(
            &cfg,
            &initial(3),
            oracle(),
            Vec::new(),
            Vec::new(),
            Some(load),
        );
        replay(&mut coord, log);
        let report = coord.report(WireStats::default());
        assert_same_outcome(&report.outcome, &live.outcome);
        assert_eq!(report.admission, live.admission);
        assert_eq!(report.completed, live.completed);
        let (samples, live_samples) = (&report.queue_depth, &live.queue_depth);
        assert_eq!(format!("{samples:?}"), format!("{live_samples:?}"));
        assert_eq!(format!("{timings:?}"), format!("{live_timings:?}"));
        assert!(
            jsonl::to_jsonl(&trace.events()) == jsonl::to_jsonl(&live_trace.events()),
            "the replayed trace differs"
        );
    }
}
