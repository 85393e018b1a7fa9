//! `net::conn` — the per-connection non-blocking state machine used by
//! the event-loop coordinator ([`super::eventloop`]).
//!
//! A [`Conn`] owns one peer's read and write halves:
//!
//! * **Reads** are drained into the connection's [`FrameDecoder`] until
//!   the socket would block; every whole frame is handed to the caller's
//!   sink *before* EOF or a decode error is reported, so a slot's
//!   buffered completions are observed before its `Closed` marker.
//! * **Writes** are queued as encoded byte buffers and flushed with
//!   vectored writes. Consecutive frames coalesce into the tail buffer
//!   (fewer, larger `writev` calls under load), buffers come from a
//!   shared [`BufPool`] and return to it once drained, and a short write
//!   or `EWOULDBLOCK` mid-frame simply leaves the queue's front offset
//!   where the kernel stopped.
//!
//! The state machine is generic over [`RawIo`] so the proptest suite can
//! drive it with a scripted transport (partial reads, short writes,
//! `EAGAIN` at arbitrary points) without sockets or a poller.

use std::collections::VecDeque;
use std::io::{self, IoSlice};
use std::net::{Shutdown, TcpStream};

use super::frame::{BufPool, Frame, FrameDecoder};

/// Minimal transport surface the connection state machine needs. Implied
/// contract: both methods are non-blocking (`WouldBlock` instead of
/// stalling) when the underlying transport is in non-blocking mode.
pub trait RawIo {
    /// Read into `buf`, returning `Ok(0)` at EOF.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Vectored write; short writes are expected and resumed by the
    /// caller.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize>;
    /// Tear the transport down in both directions (best effort).
    fn shutdown_both(&mut self);
}

impl RawIo for TcpStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(self, buf)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        io::Write::write_vectored(self, bufs)
    }

    fn shutdown_both(&mut self) {
        let _ = TcpStream::shutdown(self, Shutdown::Both);
    }
}

/// Read-side verdict of one [`Conn::drain_read`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStatus {
    /// More bytes may arrive; re-arm read interest.
    Open,
    /// EOF, a fatal read error, or a protocol error. Every frame decoded
    /// before the close has already been pushed to the sink.
    Closed,
}

/// Wire-level counters for one connection (or, aggregated, one run).
/// `pool_hits`/`pool_misses` are filled in by the owner of the shared
/// [`BufPool`]; the per-connection counters track frames and bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireStats {
    /// Frames accepted into write queues.
    pub tx_frames: u64,
    /// Whole frames decoded off the read side.
    pub rx_frames: u64,
    /// Bytes the kernel accepted across all flushes.
    pub tx_bytes: u64,
    /// Bytes read off the socket.
    pub rx_bytes: u64,
    /// `writev` calls that moved at least one byte.
    pub flushes: u64,
    /// Encode buffers served from the pool's free list.
    pub pool_hits: u64,
    /// Encode buffers that required a fresh allocation.
    pub pool_misses: u64,
}

impl WireStats {
    /// Fold another connection's counters into this aggregate.
    pub fn absorb(&mut self, other: &WireStats) {
        self.tx_frames += other.tx_frames;
        self.rx_frames += other.rx_frames;
        self.tx_bytes += other.tx_bytes;
        self.rx_bytes += other.rx_bytes;
        self.flushes += other.flushes;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
    }
}

/// Frames appended to one queue buffer before a new one is started;
/// bounds per-buffer growth so pooled buffers stay reusable.
const COALESCE_LIMIT: usize = 32 * 1024;
/// Upper bound on iovecs per `writev`.
const MAX_SLICES: usize = 32;
/// Read chunk size for one `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// One connection's read/write state machine. See the module docs.
pub struct Conn<IO> {
    io: IO,
    dec: FrameDecoder,
    /// Encoded-but-unflushed frames, oldest first. Only the front buffer
    /// can be partially written; `front_offset` marks how much of it the
    /// kernel already took.
    queue: VecDeque<Vec<u8>>,
    front_offset: usize,
    /// Frames accepted for transmission, including any the handshake
    /// wrote while the slot was still blocking.
    frames_sent: u64,
    /// Fault injection: refuse the frame that would exceed this count and
    /// sever once the queue drains, so the peer sees exactly the
    /// scheduled number of frames (same contract as the blocking path).
    sever_after: Option<u64>,
    sever_when_drained: bool,
    write_open: bool,
    read_open: bool,
    /// Wire counters (pool hits/misses live with the shared pool).
    pub stats: WireStats,
}

impl<IO: RawIo> Conn<IO> {
    /// Wrap an established transport. `dec` is the handshake's decoder —
    /// it may hold whole or partial frames read past the handshake reply,
    /// which [`Conn::drain_read`] surfaces before touching the socket.
    /// `frames_sent` carries the handshake's count so `sever_after`
    /// schedules stay frame-accurate across the blocking→non-blocking
    /// transition.
    pub fn new(io: IO, dec: FrameDecoder, sever_after: Option<u64>, frames_sent: u64) -> Conn<IO> {
        Conn {
            io,
            dec,
            queue: VecDeque::new(),
            front_offset: 0,
            frames_sent,
            sever_after,
            sever_when_drained: false,
            write_open: true,
            read_open: true,
            stats: WireStats::default(),
        }
    }

    /// The underlying transport (used by the reactor for socket-mode
    /// toggles at graceful shutdown).
    pub fn io_mut(&mut self) -> &mut IO {
        &mut self.io
    }

    /// Is the write side still usable? Mirrors the blocking path's
    /// `SlotIo::open`: cleared by a write failure or a sever, after which
    /// the reactor reports the slot closed.
    pub fn write_open(&self) -> bool {
        self.write_open
    }

    /// Is the read side still open?
    pub fn read_open(&self) -> bool {
        self.read_open
    }

    /// Does the connection have queued bytes waiting for the socket to
    /// become writable?
    pub fn wants_write(&self) -> bool {
        self.write_open && !self.queue.is_empty()
    }

    /// Queue one frame for transmission without flushing. The frame is
    /// encoded straight into the tail queue buffer (coalescing) or a
    /// pooled buffer — no intermediate allocation. Respects the sever
    /// schedule; failures are reported via [`Conn::write_open`], never as
    /// errors (the reactor reports the slot closed).
    pub fn enqueue_with(&mut self, pool: &mut BufPool, encode: impl FnOnce(&mut Vec<u8>)) {
        if !self.write_open || self.sever_when_drained {
            return;
        }
        if let Some(limit) = self.sever_after {
            if self.frames_sent >= limit {
                self.sever_when_drained = true;
                if self.queue.is_empty() {
                    self.sever(pool);
                }
                return;
            }
        }
        match self.queue.back_mut() {
            Some(tail) if tail.len() < COALESCE_LIMIT => encode(tail),
            _ => {
                let mut buf = pool.get();
                encode(&mut buf);
                self.queue.push_back(buf);
            }
        }
        self.frames_sent += 1;
        self.stats.tx_frames += 1;
    }

    /// [`Conn::enqueue_with`] for a pre-built frame.
    pub fn enqueue(&mut self, frame: &Frame, pool: &mut BufPool) {
        self.enqueue_with(pool, |out| super::frame::encode_frame_into(out, frame));
    }

    /// Push queued bytes at the socket until it would block, the queue is
    /// empty, or the write fails (which closes the connection). Drained
    /// buffers return to the pool.
    pub fn try_flush(&mut self, pool: &mut BufPool) {
        if !self.write_open {
            self.release_queue(pool);
            return;
        }
        while !self.queue.is_empty() {
            let mut slices = [IoSlice::new(&[]); MAX_SLICES];
            let mut n = 0;
            for (i, buf) in self.queue.iter().take(MAX_SLICES).enumerate() {
                let from = if i == 0 { self.front_offset } else { 0 };
                slices[n] = IoSlice::new(&buf[from..]);
                n += 1;
            }
            match self.io.write_vectored(&slices[..n]) {
                Ok(0) => {
                    self.fail_write(pool);
                    return;
                }
                Ok(written) => {
                    self.stats.tx_bytes += written as u64;
                    self.stats.flushes += 1;
                    self.advance(written, pool);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.fail_write(pool);
                    return;
                }
            }
        }
        if self.sever_when_drained {
            self.sever(pool);
        }
    }

    /// Account `written` bytes against the queue front.
    fn advance(&mut self, mut written: usize, pool: &mut BufPool) {
        while written > 0 {
            let front_len = self.queue.front().expect("advance past queue end").len();
            let remaining = front_len - self.front_offset;
            if written >= remaining {
                written -= remaining;
                self.front_offset = 0;
                pool.put(self.queue.pop_front().expect("front exists"));
            } else {
                self.front_offset += written;
                written = 0;
            }
        }
    }

    fn fail_write(&mut self, pool: &mut BufPool) {
        self.io.shutdown_both();
        self.write_open = false;
        self.release_queue(pool);
    }

    /// Tear the connection down in both directions (kill/sever path).
    pub fn sever(&mut self, pool: &mut BufPool) {
        self.io.shutdown_both();
        self.write_open = false;
        self.read_open = false;
        self.release_queue(pool);
    }

    fn release_queue(&mut self, pool: &mut BufPool) {
        self.front_offset = 0;
        for buf in self.queue.drain(..) {
            pool.put(buf);
        }
    }

    /// Decode every complete frame already buffered in the decoder into
    /// `sink`. `Closed` means the stream desynchronized (decode error).
    fn decode_all(&mut self, sink: &mut Vec<Frame>) -> ReadStatus {
        loop {
            match self.dec.next_frame() {
                Ok(Some(f)) => {
                    self.stats.rx_frames += 1;
                    sink.push(f);
                }
                Ok(None) => return ReadStatus::Open,
                Err(_) => {
                    self.read_open = false;
                    return ReadStatus::Closed;
                }
            }
        }
    }

    /// Drain the read side: surface buffered frames, then read until the
    /// socket is drained (short read), would block, hits EOF, or errors.
    /// Frames are pushed to `sink` in wire order; on `Closed`, every
    /// frame that preceded the close has already been pushed. Under
    /// level-triggered readiness a short read ends the call early — the
    /// poller re-reports the socket if more bytes arrive.
    pub fn drain_read(&mut self, sink: &mut Vec<Frame>) -> ReadStatus {
        if !self.read_open {
            return ReadStatus::Closed;
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if self.decode_all(sink) == ReadStatus::Closed {
                return ReadStatus::Closed;
            }
            match self.io.read(&mut chunk) {
                Ok(0) => {
                    self.read_open = false;
                    return ReadStatus::Closed;
                }
                Ok(n) => {
                    self.stats.rx_bytes += n as u64;
                    self.dec.feed(&chunk[..n]);
                    // A short read means the socket buffer is drained: skip
                    // the follow-up read that would only return WouldBlock.
                    // Safe under level-triggered readiness — bytes landing
                    // after this read re-report on the next poll — and it
                    // halves read syscalls in ping-pong traffic. (Decode of
                    // the fed bytes still runs: the inner loop comes first.)
                    if n < READ_CHUNK {
                        let status = self.decode_all(sink);
                        return status;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadStatus::Open,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.read_open = false;
                    return ReadStatus::Closed;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::frame::{encode_frame, Frame};

    /// Scripted transport: reads follow a step list, writes are captured
    /// with a per-call byte cap so short writes and `EAGAIN` land at
    /// chosen points.
    #[derive(Default)]
    struct ScriptedIo {
        reads: VecDeque<ReadStep>,
        write_steps: VecDeque<WriteStep>,
        wrote: Vec<u8>,
        writev_calls: u32,
        shutdowns: u32,
    }

    enum ReadStep {
        Data(Vec<u8>),
        Block,
        Eof,
    }

    enum WriteStep {
        Accept(usize),
        Block,
    }

    impl RawIo for ScriptedIo {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.reads.pop_front() {
                Some(ReadStep::Data(d)) => {
                    let n = d.len().min(buf.len());
                    buf[..n].copy_from_slice(&d[..n]);
                    if n < d.len() {
                        self.reads.push_front(ReadStep::Data(d[n..].to_vec()));
                    }
                    Ok(n)
                }
                Some(ReadStep::Block) | None => Err(io::Error::from(io::ErrorKind::WouldBlock)),
                Some(ReadStep::Eof) => Ok(0),
            }
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writev_calls += 1;
            let cap = match self.write_steps.pop_front() {
                Some(WriteStep::Accept(n)) => n,
                Some(WriteStep::Block) => return Err(io::Error::from(io::ErrorKind::WouldBlock)),
                None => usize::MAX,
            };
            let mut taken = 0;
            for b in bufs {
                if taken == cap {
                    break;
                }
                let n = b.len().min(cap - taken);
                self.wrote.extend_from_slice(&b[..n]);
                taken += n;
                if n < b.len() {
                    break;
                }
            }
            Ok(taken)
        }

        fn shutdown_both(&mut self) {
            self.shutdowns += 1;
        }
    }

    fn hb(seq: u64) -> Frame {
        Frame::Heartbeat { seq }
    }

    fn decode_all(bytes: &[u8]) -> Vec<Frame> {
        let mut dec = FrameDecoder::new();
        dec.feed(bytes);
        let mut out = Vec::new();
        while let Some(f) = dec.next_frame().expect("valid wire bytes") {
            out.push(f);
        }
        out
    }

    #[test]
    fn short_writes_and_eagain_reassemble_in_order() {
        let mut io = ScriptedIo::default();
        // First flush takes 3 bytes (mid-header), then EAGAIN, then all.
        io.write_steps.push_back(WriteStep::Accept(3));
        io.write_steps.push_back(WriteStep::Block);
        let mut conn = Conn::new(io, FrameDecoder::new(), None, 0);
        let mut pool = BufPool::new();
        for seq in 0..5 {
            conn.enqueue(&hb(seq), &mut pool);
        }
        conn.try_flush(&mut pool);
        assert!(conn.wants_write(), "EAGAIN must leave bytes queued");
        conn.try_flush(&mut pool);
        assert!(!conn.wants_write());
        let frames = decode_all(&conn.io.wrote);
        assert_eq!(frames, (0..5).map(hb).collect::<Vec<_>>());
    }

    #[test]
    fn coalescing_batches_frames_into_one_buffer() {
        let mut conn = Conn::new(ScriptedIo::default(), FrameDecoder::new(), None, 0);
        let mut pool = BufPool::new();
        for seq in 0..10 {
            conn.enqueue(&hb(seq), &mut pool);
        }
        assert_eq!(conn.queue.len(), 1, "small frames coalesce into the tail");
        conn.try_flush(&mut pool);
        assert_eq!(conn.io.writev_calls, 1);
        assert_eq!(decode_all(&conn.io.wrote).len(), 10);
        // The drained buffer went back to the pool and is reused.
        conn.enqueue(&hb(99), &mut pool);
        assert_eq!(pool.hits, 1);
    }

    #[test]
    fn sever_after_delivers_exactly_the_scheduled_frames() {
        let mut conn = Conn::new(ScriptedIo::default(), FrameDecoder::new(), None, 0);
        conn.sever_after = Some(3);
        let mut pool = BufPool::new();
        for seq in 0..6 {
            conn.enqueue(&hb(seq), &mut pool);
            conn.try_flush(&mut pool);
        }
        assert!(!conn.write_open());
        assert_eq!(conn.io.shutdowns, 1);
        assert_eq!(decode_all(&conn.io.wrote).len(), 3);
    }

    #[test]
    fn one_byte_reads_surface_frames_in_order_then_eof_last() {
        let mut io = ScriptedIo::default();
        let mut wire = Vec::new();
        for seq in 0..4 {
            wire.extend_from_slice(&encode_frame(&hb(seq)));
        }
        for (i, b) in wire.into_iter().enumerate() {
            io.reads.push_back(ReadStep::Data(vec![b]));
            if i == 20 {
                // EAGAIN mid-frame: the decoder must resume where it was.
                io.reads.push_back(ReadStep::Block);
            }
        }
        io.reads.push_back(ReadStep::Eof);
        let mut conn = Conn::new(io, FrameDecoder::new(), None, 0);
        // Every short read returns `Open` (level-triggered readiness
        // re-reports the remaining bytes); re-polling must resume the
        // decoder mid-frame and surface EOF last.
        let mut sink = Vec::new();
        let mut polls = 0;
        while conn.drain_read(&mut sink) == ReadStatus::Open {
            polls += 1;
            assert!(polls < 1000, "drain_read never reached EOF");
        }
        assert_eq!(sink, (0..4).map(hb).collect::<Vec<_>>());
    }

    #[test]
    fn handshake_buffered_frames_surface_before_any_read() {
        // The decoder already holds a frame the handshake read past its
        // own reply; it must come out even though the socket only blocks.
        let mut dec = FrameDecoder::new();
        dec.feed(&encode_frame(&hb(7)));
        let mut conn = Conn::new(ScriptedIo::default(), dec, None, 0);
        let mut sink = Vec::new();
        assert_eq!(conn.drain_read(&mut sink), ReadStatus::Open);
        assert_eq!(sink, vec![hb(7)]);
    }

    #[test]
    fn write_failure_closes_and_releases_queue_to_pool() {
        struct FailIo;
        impl RawIo for FailIo {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::from(io::ErrorKind::WouldBlock))
            }
            fn write_vectored(&mut self, _: &[IoSlice<'_>]) -> io::Result<usize> {
                Err(io::Error::from(io::ErrorKind::BrokenPipe))
            }
            fn shutdown_both(&mut self) {}
        }
        let mut conn = Conn::new(FailIo, FrameDecoder::new(), None, 0);
        let mut pool = BufPool::new();
        conn.enqueue(&hb(0), &mut pool);
        conn.try_flush(&mut pool);
        assert!(!conn.write_open());
        assert!(!conn.wants_write());
        conn.enqueue(&hb(1), &mut pool);
        assert_eq!(conn.stats.tx_frames, 1, "closed conn accepts no frames");
        let _ = pool.get();
        assert_eq!(pool.hits, 1, "queued buffer was recycled into the pool");
    }
}
