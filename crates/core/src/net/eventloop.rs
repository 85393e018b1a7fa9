//! `net::eventloop` — the readiness-based reactor behind the concurrent
//! coordinator.
//!
//! Every worker connection is a non-blocking [`Conn`] registered with
//! the [`anthill_poller::Poller`] shim, the elastic listener registers
//! alongside them, and one `wait` call multiplexes all of it on the
//! coordinator thread. The reactor surfaces [`Pump`] events to the one
//! wall-clock run loop (`ConcurrentRig::turn` in [`super::driver`], behind
//! `run_concurrent`, `run_concurrent_load` and `run_concurrent_elastic`),
//! which owns everything above the sockets — timers, heartbeat-silence
//! checks, membership joins, and reaps.
//!
//! Ordering contract: a slot's decoded frames are always surfaced before
//! its [`Pump::Closed`] marker, and `Closed` fires at most once per
//! slot.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::Duration;

use anthill_poller::{Event, Interest, Poller};

use crate::buffer::DataBuffer;
use anthill_hetsim::DeviceKind;

use super::conn::{Conn, ReadStatus, WireStats};
use super::frame::{encode_deliver_into, encode_frame_into, BufPool, Frame, FrameDecoder};

/// One unit of work for the wall-clock run loop, produced by the
/// [`Reactor`].
pub(crate) enum Pump {
    /// A decoded frame from a worker connection.
    Frame(usize, Frame),
    /// The worker's connection reached EOF or failed.
    Closed(usize),
    /// A freshly accepted connection from the elastic listener, first
    /// frame not yet read (a valid peer sends `Join` immediately).
    Incoming(TcpStream),
}

/// Poller token reserved for the elastic listener.
const LISTENER_TOKEN: usize = usize::MAX;

/// The event-loop coordinator core: poller, per-slot connections, the
/// shared encode-buffer pool, and the queue of surfaced [`Pump`] events.
pub(crate) struct Reactor {
    poller: Poller,
    conns: Vec<Option<Conn<TcpStream>>>,
    /// `Closed` already surfaced for this slot (fire-once contract).
    closed_emitted: Vec<bool>,
    listener: Option<TcpListener>,
    pool: BufPool,
    ready: VecDeque<Pump>,
    /// Reused scratch for `Poller::wait`.
    events: Vec<Event>,
    /// Reused scratch for `Conn::drain_read`.
    sink: Vec<Frame>,
    /// Slots with enqueued-but-unflushed frames. Sends only queue;
    /// [`Reactor::pump`] flushes the dirty set right before blocking in
    /// the poller, so every frame generated while the ready queue drains
    /// coalesces into one `writev` per connection.
    dirty: Vec<usize>,
    is_dirty: Vec<bool>,
    /// Interest currently armed with the poller, per slot (`None` once
    /// deregistered). Skips redundant `reregister` syscalls.
    armed: Vec<Option<Interest>>,
    /// Counters folded in from retired connections.
    retired: WireStats,
}

impl Reactor {
    pub fn new() -> io::Result<Reactor> {
        Ok(Reactor {
            poller: Poller::new()?,
            conns: Vec::new(),
            closed_emitted: Vec::new(),
            listener: None,
            pool: BufPool::new(),
            ready: VecDeque::new(),
            events: Vec::new(),
            sink: Vec::new(),
            dirty: Vec::new(),
            is_dirty: Vec::new(),
            armed: Vec::new(),
            retired: WireStats::default(),
        })
    }

    /// Number of slots ever registered (dead slots keep their index).
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// Register an established, handshaken connection as slot
    /// `self.len()`. `dec` carries the handshake's decoder state and
    /// `frames_sent` its write count (see [`Conn::new`]); any frames the
    /// handshake buffered whole are surfaced immediately.
    pub fn register(
        &mut self,
        stream: TcpStream,
        dec: FrameDecoder,
        sever_after: Option<u64>,
        frames_sent: u64,
    ) -> io::Result<usize> {
        let slot = self.conns.len();
        stream.set_nonblocking(true)?;
        self.poller
            .register(stream.as_raw_fd(), slot, Interest::READ)?;
        self.conns
            .push(Some(Conn::new(stream, dec, sever_after, frames_sent)));
        self.closed_emitted.push(false);
        self.is_dirty.push(false);
        self.armed.push(Some(Interest::READ));
        // Handshake-buffered frames must not wait for socket readability.
        self.service(slot, true, false);
        Ok(slot)
    }

    /// Register the elastic listener; accepted connections surface as
    /// [`Pump::Incoming`] with the stream switched back to blocking mode
    /// for the brief join handshake (the admit path re-registers it
    /// non-blocking via [`Reactor::register`]).
    pub fn attach_listener(&mut self, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        self.poller
            .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        self.listener = Some(listener);
        Ok(())
    }

    /// Is the slot's write side still usable? (Mirrors `SlotIo::open`.)
    pub fn open(&self, slot: usize) -> bool {
        self.conns
            .get(slot)
            .and_then(|c| c.as_ref())
            .map(|c| c.write_open())
            .unwrap_or(false)
    }

    /// Queue one frame on `slot`; the bytes leave at the next
    /// [`Reactor::pump`] wait boundary (or sooner on writable readiness).
    pub fn send(&mut self, slot: usize, frame: &Frame) {
        self.send_with(slot, |out| encode_frame_into(out, frame));
    }

    /// Queue a `Deliver` frame encoded straight from the shared
    /// `Arc<DataBuffer>`s the inflight table retains — no payload clone.
    pub fn send_deliver(&mut self, slot: usize, kind: DeviceKind, buffers: &[Arc<DataBuffer>]) {
        self.send_with(slot, |out| encode_deliver_into(out, kind, buffers));
    }

    fn send_with(&mut self, slot: usize, encode: impl FnOnce(&mut Vec<u8>)) {
        let Some(Some(conn)) = self.conns.get_mut(slot) else {
            return;
        };
        conn.enqueue_with(&mut self.pool, encode);
        if !conn.wants_write() {
            return;
        }
        if self.is_dirty[slot] {
            // Already waiting out backpressure; the new frame coalesced
            // into the queue and leaves with the next flush.
            return;
        }
        // Latency path: push the frame at the socket now so the worker
        // wakes immediately. A short write or EAGAIN parks the slot on
        // the dirty list; from then on frames coalesce until the flush
        // boundary (or writable readiness) drains it.
        conn.try_flush(&mut self.pool);
        if conn.wants_write() {
            self.is_dirty[slot] = true;
            self.dirty.push(slot);
            self.update_interest(slot);
        }
    }

    /// Flush every dirty connection. Called at the wait boundary so each
    /// burst of sends becomes at most one vectored write per peer; a
    /// socket that pushes back stays armed for writable readiness.
    fn flush_dirty(&mut self) {
        while let Some(slot) = self.dirty.pop() {
            self.is_dirty[slot] = false;
            let Some(Some(conn)) = self.conns.get_mut(slot) else {
                continue;
            };
            conn.try_flush(&mut self.pool);
            self.update_interest(slot);
        }
    }

    /// Tear down a slot in both directions (kill/sever path). Late
    /// events for the slot are dropped; its counters are retained.
    pub fn sever(&mut self, slot: usize) {
        if let Some(Some(conn)) = self.conns.get_mut(slot) {
            conn.sever(&mut self.pool);
        }
        self.retire(slot);
    }

    /// Graceful close for a drained slot: flush the queue in blocking
    /// mode, send `Shutdown`, and half-close the write side. The slot is
    /// retired — the drained worker's `Bye`/EOF needs no further events.
    pub fn graceful_close(&mut self, slot: usize) {
        if let Some(Some(conn)) = self.conns.get_mut(slot) {
            if conn.write_open() {
                conn.io_mut().set_nonblocking(false).ok();
                conn.enqueue(&Frame::Shutdown, &mut self.pool);
                conn.try_flush(&mut self.pool);
                let _ = conn.io_mut().shutdown(std::net::Shutdown::Write);
            }
        }
        self.retire(slot);
    }

    /// Deregister and drop a slot's connection, folding its counters into
    /// the run aggregate.
    fn retire(&mut self, slot: usize) {
        if let Some(entry) = self.conns.get_mut(slot) {
            if let Some(conn) = entry.take() {
                if self.armed[slot].take().is_some() {
                    self.poller.deregister(slot);
                }
                self.retired.absorb(&conn.stats);
            }
        }
    }

    /// Wire counters for the whole run so far: retired connections plus
    /// everything still live, plus the shared pool's hit/miss counts.
    pub fn stats(&self) -> WireStats {
        let mut total = self.retired;
        for conn in self.conns.iter().flatten() {
            total.absorb(&conn.stats);
        }
        total.pool_hits = self.pool.hits;
        total.pool_misses = self.pool.misses;
        total
    }

    /// Surface the next [`Pump`] event, polling the OS for at most
    /// `wait`. `None` means the timeout elapsed with nothing to do.
    pub fn pump(&mut self, wait: Duration) -> Option<Pump> {
        if let Some(ev) = self.ready.pop_front() {
            return Some(ev);
        }
        self.flush_dirty();
        let mut events = std::mem::take(&mut self.events);
        if self.poller.wait(&mut events, Some(wait)).is_err() {
            self.events = events;
            return None;
        }
        for ev in &events {
            if ev.token == LISTENER_TOKEN {
                Self::accept_ready(&self.listener, &mut self.ready);
            } else {
                self.service(ev.token, ev.readable || ev.hangup, ev.writable);
            }
        }
        self.events = events;
        self.ready.pop_front()
    }

    fn accept_ready(listener: &Option<TcpListener>, ready: &mut VecDeque<Pump>) {
        let Some(listener) = listener else { return };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    // The join handshake runs blocking on the main loop.
                    stream.set_nonblocking(false).ok();
                    ready.push_back(Pump::Incoming(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Run one slot's state machine for the given readiness, queueing
    /// surfaced frames / closure onto `ready`.
    fn service(&mut self, slot: usize, readable: bool, writable: bool) {
        let Some(Some(conn)) = self.conns.get_mut(slot) else {
            return;
        };
        if writable {
            conn.try_flush(&mut self.pool);
        }
        let mut closed = false;
        if readable {
            self.sink.clear();
            let status = conn.drain_read(&mut self.sink);
            for f in self.sink.drain(..) {
                self.ready.push_back(Pump::Frame(slot, f));
            }
            closed = status == ReadStatus::Closed;
        }
        if closed && !self.closed_emitted[slot] {
            self.closed_emitted[slot] = true;
            self.ready.push_back(Pump::Closed(slot));
            self.retire(slot);
            return;
        }
        self.update_interest(slot);
    }

    /// Re-arm the poller for what the slot currently needs; deregisters
    /// a connection that can make no further progress. No syscall when
    /// the armed interest already matches.
    fn update_interest(&mut self, slot: usize) {
        let Some(Some(conn)) = self.conns.get(slot) else {
            return;
        };
        let interest = Interest {
            readable: conn.read_open(),
            writable: conn.wants_write(),
        };
        if !interest.readable && !interest.writable {
            // Write side failed or severed and reads are done: the reap
            // path (`!open`) owns the slot from here.
            if self.armed[slot].take().is_some() {
                self.poller.deregister(slot);
            }
            return;
        }
        if self.armed[slot] != Some(interest) && self.poller.reregister(slot, interest).is_ok() {
            self.armed[slot] = Some(interest);
        }
    }

    /// Gracefully close every remaining slot (run teardown).
    pub fn shutdown_all(&mut self) {
        for slot in 0..self.conns.len() {
            self.graceful_close(slot);
        }
    }
}
