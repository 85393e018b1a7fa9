//! Property suite for the event-loop connection state machine
//! (`anthill::net::conn`), driven through a scripted transport instead
//! of sockets: the script injects partial reads, short writes, and
//! `EAGAIN` (would-block) at seeded-random points, standing in for the
//! readiness orderings a real poller would produce.
//!
//! The invariant under test is the one the coordinator depends on: **no
//! frame is ever dropped or reordered**, on either direction, no matter
//! where the kernel pauses the byte stream. A fourth property checks the
//! fault-injection contract — a `sever_after` schedule lets exactly the
//! scheduled number of frames reach the wire, counting frames the
//! blocking handshake already sent.
//!
//! Two socket-level tests ride along: a 32-worker and a 1000-worker
//! loopback fan-in through `run_concurrent`, checked for conservation,
//! zero deaths and at most one write-path allocation per hundred frames;
//! and the wait-boundary flush rule seen
//! from outside, a two-worker batch that must need far fewer `writev`s
//! than it has tasks. (The reactor itself is crate-private; its own
//! one-write-per-slot, no-stranded-frame and short-write tests are unit
//! tests in `crates/core/src/net/eventloop.rs`.)
//!
//! Set `NET_CODEC_HEAVY=1` to multiply the frames per case (the CI net
//! job does).

mod common;

use std::collections::VecDeque;
use std::io::{self, IoSlice};

use proptest::prelude::*;

use anthill_repro::core::buffer::{BufferId, DataBuffer};
use anthill_repro::core::net::{
    encode_frame, run_concurrent, Behavior, BufPool, Conn, Frame, FrameDecoder, NetConfig, RawIo,
    ReadStatus,
};
use anthill_repro::core::policy::Policy;
use anthill_repro::estimator::{ParamValue, TaskParams};
use anthill_repro::hetsim::{DeviceKind, TaskShape};
use anthill_repro::simkit::SimDuration;

/// Frames per proptest case; heavy mode is what CI runs.
fn frames_per_case() -> u64 {
    if std::env::var_os("NET_CODEC_HEAVY").is_some() {
        48
    } else {
        8
    }
}

fn arb_buffer(rng: &mut TestRng) -> DataBuffer {
    let n = rng.below(4) as usize;
    let values = (0..n)
        .map(|_| {
            if rng.below(2) == 0 {
                ParamValue::Num(rng.next_f64() * 1e6)
            } else {
                ParamValue::Cat("x".repeat(rng.below(20) as usize))
            }
        })
        .collect();
    DataBuffer {
        id: BufferId(rng.next_u64()),
        params: TaskParams::new(values),
        shape: TaskShape {
            cpu: SimDuration(rng.below(1 << 40)),
            gpu_kernel: SimDuration(rng.below(1 << 40)),
            bytes_in: rng.below(1 << 32),
            bytes_out: rng.below(1 << 32),
        },
        level: rng.below(256) as u8,
        task: rng.next_u64(),
    }
}

/// A size-diverse frame mix: tiny control frames next to multi-KiB
/// deliveries, so short writes land mid-header and mid-payload alike.
fn arb_frame(rng: &mut TestRng) -> Frame {
    match rng.below(5) {
        0 => Frame::Heartbeat {
            seq: rng.next_u64(),
        },
        1 => Frame::Request {
            reader: rng.below(1 << 16) as u32,
            req_id: rng.next_u64(),
        },
        2 => Frame::Deliver {
            kind: if rng.below(2) == 0 {
                DeviceKind::Cpu
            } else {
                DeviceKind::Gpu
            },
            buffers: (0..rng.below(4)).map(|_| arb_buffer(rng)).collect(),
        },
        3 => Frame::JoinRejected {
            reason: "r".repeat(rng.below(64) as usize),
        },
        _ => Frame::BatchDone,
    }
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

/// Scripted transport: reads follow a step list; each `writev` call pops
/// a byte cap (or blocks), capturing exactly where the kernel "stopped".
#[derive(Default)]
struct ScriptedIo {
    reads: VecDeque<ReadStep>,
    write_steps: VecDeque<WriteStep>,
    wrote: Vec<u8>,
    shutdowns: u32,
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

/// Chop `wire` into a randomized read script: variable chunk sizes with
/// would-block pauses sprinkled between (and therefore inside frames).
fn scripted_reads(rng: &mut TestRng, wire: &[u8]) -> VecDeque<ReadStep> {
    let mut steps = VecDeque::new();
    let mut rest = wire;
    while !rest.is_empty() {
        if rng.below(4) == 0 {
            steps.push_back(ReadStep::Block);
        }
        let n = (rng.below(53) as usize + 1).min(rest.len());
        let (head, tail) = rest.split_at(n);
        steps.push_back(ReadStep::Data(head.to_vec()));
        rest = tail;
    }
    if rng.below(4) == 0 {
        steps.push_back(ReadStep::Block);
    }
    steps.push_back(ReadStep::Eof);
    steps
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

proptest! {
    /// Write path: random interleavings of enqueue and flush against a
    /// transport that takes 1..64 bytes per call or blocks outright. The
    /// bytes that reach the wire decode to exactly the enqueued sequence.
    ///
    /// The interleaving is the reactor's: a send only enqueues
    /// (`Reactor::send_with` is `enqueue_with` plus a dirty mark), and
    /// flushes happen at wait boundaries and on writable readiness, several
    /// sends apart. What the reactor relies on is checked at every step: a
    /// connection holding bytes says so (`wants_write`, which is what keeps
    /// the slot dirty or armed), and what has reached the wire is always a
    /// prefix of what was sent.
    #[test]
    fn short_writes_never_drop_or_reorder(seed in 0u64..1 << 48) {
        let mut rng = TestRng::new(seed);
        let frames: Vec<Frame> = (0..frames_per_case()).map(|_| arb_frame(&mut rng)).collect();
        let wire: Vec<u8> = frames.iter().flat_map(encode_frame).collect();

        let mut conn = Conn::new(ScriptedIo::default(), FrameDecoder::new(), None, 0);
        let mut pool = BufPool::new();
        let mut sent_bytes = 0;
        for f in &frames {
            conn.enqueue(f, &mut pool);
            sent_bytes += encode_frame(f).len();
            prop_assert!(conn.wants_write(), "a send left nothing to flush");
            let on_wire = conn.io_mut().wrote.len();
            prop_assert_eq!(conn.stats.tx_bytes, on_wire as u64);
            // Sometimes flush immediately, sometimes batch several frames,
            // and each flush may hit a short write or EAGAIN mid-frame.
            if rng.below(3) > 0 {
                if rng.below(3) == 0 {
                    conn.io_mut().write_steps.push_back(WriteStep::Block);
                } else {
                    conn.io_mut()
                        .write_steps
                        .push_back(WriteStep::Accept(rng.below(64) as usize + 1));
                }
                conn.try_flush(&mut pool);
                let on_wire = conn.io_mut().wrote.len();
                prop_assert_eq!(&conn.io_mut().wrote[..], &wire[..on_wire], "not a prefix");
                prop_assert_eq!(
                    conn.wants_write(),
                    on_wire < sent_bytes,
                    "{} of {} bytes written", on_wire, sent_bytes
                );
            }
        }
        // Final flushes with no caps left drain everything.
        while conn.wants_write() {
            conn.try_flush(&mut pool);
        }
        prop_assert!(conn.write_open());
        prop_assert_eq!(&decode_all(&conn.io_mut().wrote), &frames);
        prop_assert_eq!(conn.stats.tx_frames, frames.len() as u64);
    }

    /// Read path: the same wire stream arrives in random chunks with
    /// would-block pauses at arbitrary points (including mid-frame). The
    /// sink sees the exact frame sequence, all of it before `Closed`.
    #[test]
    fn partial_reads_never_drop_or_reorder(seed in 0u64..1 << 48) {
        let mut rng = TestRng::new(seed);
        let frames: Vec<Frame> = (0..frames_per_case()).map(|_| arb_frame(&mut rng)).collect();
        let wire: Vec<u8> = frames.iter().flat_map(encode_frame).collect();

        let io = ScriptedIo {
            reads: scripted_reads(&mut rng, &wire),
            ..ScriptedIo::default()
        };
        let mut conn = Conn::new(io, FrameDecoder::new(), None, 0);
        let mut sink = Vec::new();
        // Each drain_read models one readable event; blocks end the event.
        let mut events = 0;
        loop {
            events += 1;
            match conn.drain_read(&mut sink) {
                ReadStatus::Open => prop_assert!(events < 10_000, "reader livelock"),
                ReadStatus::Closed => break,
            }
        }
        prop_assert_eq!(&sink, &frames, "sink diverged from the wire order");
        prop_assert_eq!(conn.stats.rx_frames, frames.len() as u64);
        prop_assert_eq!(conn.stats.rx_bytes, wire.len() as u64);
        // Closed is terminal and idempotent.
        prop_assert_eq!(conn.drain_read(&mut sink), ReadStatus::Closed);
        prop_assert_eq!(sink.len(), frames.len());
    }

    /// Full duplex under random readiness orderings: one connection both
    /// sends and receives, with the scheduler (this loop) interleaving
    /// enqueue/flush/drain in seeded-random order. Neither direction may
    /// drop or reorder, and handshake-buffered frames surface first.
    #[test]
    fn duplex_random_readiness_preserves_both_streams(seed in 0u64..1 << 48) {
        let mut rng = TestRng::new(seed);
        let outbound: Vec<Frame> = (0..frames_per_case()).map(|_| arb_frame(&mut rng)).collect();
        let inbound: Vec<Frame> = (0..frames_per_case()).map(|_| arb_frame(&mut rng)).collect();
        let wire: Vec<u8> = inbound.iter().flat_map(encode_frame).collect();

        // The handshake read past its reply: the decoder starts with a
        // prefix of the inbound stream already buffered.
        let split = rng.below(wire.len() as u64 + 1) as usize;
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..split]);
        let io = ScriptedIo {
            reads: scripted_reads(&mut rng, &wire[split..]),
            ..ScriptedIo::default()
        };

        let mut conn = Conn::new(io, dec, None, 0);
        let mut pool = BufPool::new();
        let mut sink = Vec::new();
        let mut next_out = 0;
        let mut read_closed = false;
        while next_out < outbound.len() || conn.wants_write() || !read_closed {
            match rng.below(3) {
                0 if next_out < outbound.len() => {
                    conn.enqueue(&outbound[next_out], &mut pool);
                    next_out += 1;
                }
                1 => {
                    if rng.below(4) == 0 {
                        conn.io_mut().write_steps.push_back(WriteStep::Block);
                    } else if rng.below(2) == 0 {
                        conn.io_mut()
                            .write_steps
                            .push_back(WriteStep::Accept(rng.below(48) as usize + 1));
                    }
                    conn.try_flush(&mut pool);
                }
                _ => {
                    if conn.drain_read(&mut sink) == ReadStatus::Closed {
                        read_closed = true;
                    }
                }
            }
        }
        prop_assert_eq!(&decode_all(&conn.io_mut().wrote), &outbound, "outbound diverged");
        prop_assert_eq!(&sink, &inbound, "inbound diverged");
    }

    /// Fault injection stays frame-accurate on the non-blocking path: a
    /// `sever_after` schedule lets exactly `limit - handshake_frames`
    /// frames reach the wire (never more, even with enqueue/flush racing),
    /// then tears the transport down once the queue drains.
    #[test]
    fn sever_schedule_is_frame_accurate(seed in 0u64..1 << 48) {
        let mut rng = TestRng::new(seed);
        let total = frames_per_case() + rng.below(8);
        let handshake_frames = rng.below(4);
        let limit = handshake_frames + rng.below(total + 2);
        let frames: Vec<Frame> = (0..total).map(|_| arb_frame(&mut rng)).collect();

        let mut conn = Conn::new(
            ScriptedIo::default(),
            FrameDecoder::new(),
            Some(limit),
            handshake_frames,
        );
        let mut pool = BufPool::new();
        for f in &frames {
            conn.enqueue(f, &mut pool);
            if rng.below(2) == 0 {
                if rng.below(4) == 0 {
                    conn.io_mut().write_steps.push_back(WriteStep::Block);
                }
                conn.try_flush(&mut pool);
            }
        }
        while conn.wants_write() {
            conn.try_flush(&mut pool);
        }
        if conn.write_open() {
            conn.try_flush(&mut pool);
        }

        let expect = total.min(limit - handshake_frames) as usize;
        let wrote = decode_all(&conn.io_mut().wrote);
        prop_assert_eq!(&wrote[..], &frames[..expect], "sever let the wrong frames through");
        if expect < total as usize {
            prop_assert!(!conn.write_open(), "over-limit enqueue must sever");
            prop_assert_eq!(conn.io_mut().shutdowns, 1);
        } else {
            prop_assert!(conn.write_open(), "under-limit schedule must not sever");
        }
    }
}

/// Coordinator fan-in at two scales (DESIGN.md §10): one event-loop
/// coordinator over 32 and over 1000 loopback workers completes every task
/// exactly once, kills nobody, and allocates at most one encode buffer
/// per hundred frames.
#[test]
fn loopback_fan_in_conserves_with_pooled_writes() {
    for (workers, tasks) in [(32usize, 640u64), (1000, 2000)] {
        let kinds: Vec<DeviceKind> = (0..workers)
            .map(|i| [DeviceKind::Cpu, DeviceKind::Gpu][i % 2])
            .collect();
        let cfg = NetConfig {
            batch_limit: 8,
            ..NetConfig::new(Policy::ddfcfs(4))
        };
        let out = run_concurrent(
            cfg,
            common::loopback_workers(&kinds, Behavior::Identity),
            (0..tasks).map(|id| common::load_buffer(id, 1)).collect(),
            common::oracle(),
        )
        .expect("fan-in run completes");

        let mut done: Vec<u64> = out.dispatch_order.iter().map(|&(_, id)| id).collect();
        done.sort_unstable();
        assert_eq!(done, (0..tasks).collect::<Vec<_>>(), "every task once");
        assert_eq!(out.total, tasks);
        assert_eq!(out.deaths, 0, "{workers} workers");
        assert!(out.wire.tx_frames > 0, "wire counters must be populated");
        assert!(
            out.wire.pool_misses * 100 <= out.wire.tx_frames,
            "{workers} workers: {} allocations for {} frames",
            out.wire.pool_misses,
            out.wire.tx_frames
        );
    }
}

/// The reactor talks to the kernel only at its wait boundary: every frame
/// a drained burst of completions produces (the next `Deliver` batch, the
/// `Request`s behind it) leaves in one vectored write per peer. With a
/// write per frame this batch costs 1.137 `writev`s per task.
#[test]
fn batch_run_flushes_once_per_wait_boundary_not_per_frame() {
    const TASKS: u64 = 1_500;
    let cfg = NetConfig {
        batch_limit: 8,
        ..NetConfig::new(Policy::ddwrr(30))
    };
    let out = run_concurrent(
        cfg,
        common::loopback_workers(&[DeviceKind::Cpu, DeviceKind::Gpu], Behavior::Identity),
        (0..TASKS).map(|id| common::mk_task(id).buffer).collect(),
        common::oracle(),
    )
    .expect("batch run completes");

    let mut done: Vec<u64> = out.dispatch_order.iter().map(|&(_, id)| id).collect();
    done.sort_unstable();
    assert_eq!(done, (0..TASKS).collect::<Vec<_>>(), "every task once");
    assert_eq!(out.deaths, 0);
    assert!(out.wire.tx_frames >= TASKS / 8, "{:?}", out.wire);
    assert!(
        out.wire.flushes * 10 <= TASKS * 3,
        "{} flushes for {TASKS} tasks ({} frames)",
        out.wire.flushes,
        out.wire.tx_frames
    );
}
