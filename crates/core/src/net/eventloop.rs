//! `net::eventloop` — the readiness-based reactor behind the concurrent
//! coordinator.
//!
//! Every worker connection is a non-blocking [`Conn`] registered with
//! the [`anthill_poller::Poller`] shim, the elastic listener registers
//! alongside them, and one `wait` call multiplexes all of it on the
//! coordinator thread. The reactor surfaces [`Pump`] events to the
//! wall-clock shell in [`super::driver`] (behind `run_concurrent`,
//! `run_concurrent_load` and `run_concurrent_elastic`), which turns each
//! into one input of the coordinator (`super::coord`) — the owner of
//! everything above the sockets: timers, heartbeat silence, joins,
//! drains and deaths.
//!
//! The wait boundary — `Reactor::pump` finding no surfaced event left —
//! is the only place the coordinator talks to the kernel, in both
//! directions. A send encodes into the connection's queue and marks the
//! slot dirty, nothing more; at the boundary each dirty slot is flushed
//! with one vectored write (writable interest is armed only for what the
//! socket refused) and then the poller sleeps for exactly the time the run
//! loop asked for — its next deadline, to the nanosecond where the kernel
//! allows. So the loop wakes when a task is due, and every frame that
//! wake-up produces leaves in one `writev` per peer.
//!
//! Ordering contract: a slot's decoded frames are always surfaced before
//! its [`Pump::Closed`] marker, and `Closed` fires at most once per
//! slot — for EOF or a read error, and equally for a write side that a
//! failed flush or a scheduled sever closed.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
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
    /// The worker's connection reached EOF, failed, or was severed on
    /// schedule.
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
    /// Slots with frames queued since the last wait boundary. Sends only
    /// queue; [`Reactor::pump`] flushes the dirty set right before
    /// blocking in the poller, so every frame generated while the ready
    /// queue drains coalesces into one `writev` per connection. A slot
    /// whose socket refused part of a flush leaves this list and is
    /// `armed` for writable readiness instead.
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
    /// handshake buffered whole are surfaced immediately. `scratch`, the
    /// handshake's encode buffer, joins the pool ([`BufPool::add_conn`]).
    pub fn register(
        &mut self,
        stream: TcpStream,
        dec: FrameDecoder,
        sever_after: Option<u64>,
        frames_sent: u64,
        scratch: Vec<u8>,
    ) -> io::Result<usize> {
        let slot = self.conns.len();
        stream.set_nonblocking(true)?;
        self.poller
            .register(stream.as_raw_fd(), slot, Interest::READ)?;
        self.conns
            .push(Some(Conn::new(stream, dec, sever_after, frames_sent)));
        self.pool.add_conn(scratch);
        self.closed_emitted.push(false);
        self.is_dirty.push(false);
        self.armed.push(Some(Interest::READ));
        // Handshake-buffered frames must not wait for socket readability.
        self.service(slot, true, false);
        Ok(slot)
    }

    /// Register the elastic listener; accepted connections surface as
    /// [`Pump::Incoming`] with the stream switched back to blocking mode
    /// for the join handshake (the admit path re-registers it
    /// non-blocking via [`Reactor::register`]).
    pub fn attach_listener(&mut self, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        self.poller
            .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        self.listener = Some(listener);
        Ok(())
    }

    /// Queue one frame on `slot`; the bytes leave at the next
    /// [`Reactor::pump`] wait boundary, or at teardown
    /// ([`Reactor::graceful_close`]); [`Reactor::sever`] drops them.
    pub fn send(&mut self, slot: usize, frame: &Frame) {
        self.send_with(slot, |out| encode_frame_into(out, frame));
    }

    /// Queue a `Deliver` frame encoded straight from the dispatched batch,
    /// with no [`Frame`] built around it.
    pub fn send_deliver(&mut self, slot: usize, kind: DeviceKind, buffers: &[DataBuffer]) {
        self.send_with(slot, |out| encode_deliver_into(out, kind, buffers));
    }

    /// The one send path: encode into the slot's queue and mark it dirty.
    /// Nothing touches the socket here — [`Reactor::pump`] flushes the
    /// dirty set at its wait boundary.
    fn send_with(&mut self, slot: usize, encode: impl FnOnce(&mut Vec<u8>)) {
        let Some(Some(conn)) = self.conns.get_mut(slot) else {
            return;
        };
        conn.enqueue_with(&mut self.pool, encode);
        if !conn.write_open() {
            return self.close(slot); // a sever due on an empty queue
        }
        if conn.wants_write() && !self.is_dirty[slot] {
            self.is_dirty[slot] = true;
            self.dirty.push(slot);
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

    /// Surface `Closed` for the slot, once, and retire it.
    fn close(&mut self, slot: usize) {
        if !std::mem::replace(&mut self.closed_emitted[slot], true) {
            self.ready.push_back(Pump::Closed(slot));
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

    /// Whether [`Reactor::pump`] holds an event already, which it returns
    /// without a wait.
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Surface the next [`Pump`] event. When none is left this is the
    /// wait boundary: flush the dirty set, then poll the OS for at most
    /// `wait` (plus the thread's timer slack, see `anthill_poller`). `None`
    /// means the timeout elapsed with nothing to do.
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
                    // The shell reads the first frame on a helper thread.
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
        if closed {
            return self.close(slot);
        }
        self.update_interest(slot);
    }

    /// Re-arm the poller for what the slot currently needs; a slot whose
    /// write side a failed flush or a scheduled sever closed is reported
    /// `Closed`. No syscall when the armed interest already matches.
    fn update_interest(&mut self, slot: usize) {
        let Some(Some(conn)) = self.conns.get(slot) else {
            return;
        };
        if !conn.write_open() {
            return self.close(slot);
        }
        let interest = Interest {
            readable: conn.read_open(),
            writable: conn.wants_write(),
        };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::tcp_pair;
    use std::io::Read;

    /// A reactor with `n` registered loopback slots and their peer ends.
    fn reactor(n: usize) -> (Reactor, Vec<TcpStream>) {
        let mut r = Reactor::new().expect("reactor");
        let peers = (0..n)
            .map(|slot| {
                let (ours, peer) = tcp_pair().expect("loopback pair");
                let got = r
                    .register(ours, FrameDecoder::new(), None, 0, Vec::new())
                    .expect("register");
                assert_eq!(got, slot);
                peer
            })
            .collect();
        (r, peers)
    }

    fn hb(seq: u64) -> Frame {
        Frame::Heartbeat { seq }
    }

    /// Blocking-read `peer` until `n` frames have decoded.
    fn read_frames(peer: &mut TcpStream, n: usize) -> Vec<Frame> {
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        while out.len() < n {
            let got = peer.read(&mut chunk).expect("peer read");
            assert!(got > 0, "EOF after {} of {n} frames", out.len());
            dec.feed(&chunk[..got]);
            while let Some(f) = dec.next_frame().expect("valid wire bytes") {
                out.push(f);
            }
        }
        out
    }

    /// Everything `peer` receives up to EOF (a reset counts as EOF).
    fn read_to_end(peer: &mut TcpStream) -> Vec<Frame> {
        let mut bytes = Vec::new();
        let _ = peer.read_to_end(&mut bytes);
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        let mut out = Vec::new();
        while let Some(f) = dec.next_frame().expect("valid wire bytes") {
            out.push(f);
        }
        out
    }

    #[test]
    fn sends_between_two_pumps_leave_in_one_write_per_slot() {
        const K: u64 = 7;
        let (mut r, mut peers) = reactor(3);
        for seq in 0..K {
            r.send(0, &hb(seq));
        }
        // A send never touches the socket.
        assert_eq!(r.stats().flushes, 0);
        assert_eq!(r.stats().tx_bytes, 0);
        peers[0].set_nonblocking(true).expect("nonblocking");
        let mut probe = [0u8; 1];
        let early = peers[0]
            .read(&mut probe)
            .expect_err("bytes before the pump");
        assert_eq!(early.kind(), io::ErrorKind::WouldBlock);
        peers[0].set_nonblocking(false).expect("blocking");

        assert!(r.pump(Duration::ZERO).is_none());
        assert_eq!(r.stats().flushes, 1, "k frames, one slot, one writev");
        assert_eq!(
            read_frames(&mut peers[0], K as usize),
            (0..K).map(hb).collect::<Vec<_>>()
        );

        // One write per slot that has something queued, none for the rest.
        for seq in 0..K {
            r.send((seq % 2) as usize + 1, &hb(seq));
        }
        assert!(r.pump(Duration::ZERO).is_none());
        assert_eq!(r.stats().flushes, 3);
        assert_eq!(r.stats().tx_frames, 2 * K);
        assert_eq!(read_frames(&mut peers[1], 4), [0, 2, 4, 6].map(hb));
        assert_eq!(read_frames(&mut peers[2], 3), [1, 3, 5].map(hb));
        // Nothing queued: the next boundary writes nothing.
        assert!(r.pump(Duration::ZERO).is_none());
        assert_eq!(r.stats().flushes, 3);
    }

    #[test]
    fn frames_queued_without_a_pump_leave_at_close_or_die_with_a_sever() {
        let (mut r, mut peers) = reactor(4);
        for slot in 0..4 {
            for seq in 0..3 {
                r.send(slot, &hb(seq));
            }
        }
        let mut closed = (0..3).map(hb).collect::<Vec<_>>();
        closed.push(Frame::Shutdown);

        r.graceful_close(0);
        assert_eq!(read_to_end(&mut peers[0]), closed);

        // Dropped whole: the peer sees the connection end, never a frame
        // or part of one.
        r.sever(1);
        let mut bytes = Vec::new();
        let _ = peers[1].read_to_end(&mut bytes);
        assert_eq!(bytes, [], "a severed slot wrote {} bytes", bytes.len());

        r.shutdown_all();
        assert_eq!(read_to_end(&mut peers[2]), closed);
        assert_eq!(read_to_end(&mut peers[3]), closed);
        assert_eq!(r.stats().tx_frames, 4 * 3 + 3, "three Shutdowns, one sever");
    }

    #[test]
    fn short_write_keeps_the_slot_armed_until_drained_in_order() {
        // 256 frames of 64 KiB against a peer that is not reading yet:
        // the kernel takes what its buffers hold and refuses the rest.
        const BIG: u64 = 256;
        let big = |i: u64| Frame::JoinRejected {
            reason: format!("{i:08}").repeat(8 * 1024),
        };
        let (mut r, mut peers) = reactor(1);
        let mut sent = Vec::new();
        for i in 0..BIG {
            sent.push(big(i));
            r.send(0, sent.last().expect("just pushed"));
        }
        assert!(r.pump(Duration::ZERO).is_none());
        let queued = |r: &Reactor| r.conns[0].as_ref().expect("slot 0").wants_write();
        let held = |r: &Reactor| r.is_dirty[0] || r.armed[0] == Some(Interest::READ_WRITE);
        assert!(queued(&r), "16 MiB fitted the socket buffers");
        assert!(r.stats().tx_bytes > 0, "nothing was written at all");
        assert!(held(&r), "refused bytes with no writable interest armed");

        // More sends while backpressured, small and large, then the peer
        // starts reading: every pump either drains or stays armed.
        for i in 0..64 {
            sent.push(if i % 4 == 0 { big(BIG + i) } else { hb(i) });
            r.send(0, sent.last().expect("just pushed"));
            assert!(held(&r));
        }
        let mut peer = peers.pop().expect("one peer");
        let want = sent.len();
        let reader = std::thread::spawn(move || read_frames(&mut peer, want));
        let give_up = std::time::Instant::now() + Duration::from_secs(30);
        while queued(&r) {
            assert!(r.pump(Duration::from_millis(10)).is_none());
            assert!(!queued(&r) || held(&r), "stranded bytes");
            assert!(std::time::Instant::now() < give_up, "never drained");
        }
        assert_eq!(r.armed[0], Some(Interest::READ), "drained but still armed");
        let got = reader.join().expect("reader thread");
        assert!(got == sent, "peer decoded a different sequence");
        assert_eq!(r.stats().tx_frames, want as u64);
    }
}
