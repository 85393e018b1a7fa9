//! Worker-process side of the networked backend.
//!
//! A worker is deliberately dumb: it owns no scheduling state. It connects
//! to the coordinator, learns its `(node, slot)` identity from the `Hello`
//! handshake, and then serves a simple request/response loop:
//!
//! * `Request` frames are echoed back — the demand path is
//!   coordinator→worker→coordinator so that every window refill crosses a
//!   real socket, exactly where Anthill's labeled stream messages would
//!   travel. The coordinator answers an echo when its reader holds a
//!   buffer and otherwise keeps it until one arrives, so a refill is
//!   already waiting at the reader when a task does.
//! * `Deliver` frames are executed buffer-by-buffer: the worker derives
//!   the modeled device occupancy from the buffer's
//!   [`TaskShape`](anthill_hetsim::TaskShape) and the delivered device
//!   kind, applies its [`Behavior`] (identity forwarding, recirculation, or
//!   busy-spinning), and answers with one `Complete` per buffer followed by
//!   `BatchDone`. Each `Complete` carries a wall-clock span; the clock is
//!   read once per buffer boundary, so a buffer's span starts where the
//!   previous buffer's ended (the first at the batch start) and includes
//!   encoding the previous buffer's `Complete`.
//! * `Shutdown` is answered with `Bye` and a clean exit.
//!
//! When the socket is idle past the read timeout the worker emits a
//! `Heartbeat` so the coordinator can distinguish "slow" from "dead".

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use anthill_hetsim::DeviceKind;

use crate::buffer::DataBuffer;

use super::frame::{encode_frame, encode_frame_into, Frame, FrameDecoder, WireSpan};

/// What a worker does with each delivered buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behavior {
    /// Execute and forward: no recirculation (one task per buffer).
    Identity,
    /// Recirculate each buffer with `level + 1` until it has lived
    /// `rounds` levels, mirroring the multi-round test filters.
    Recirc {
        /// Total number of levels a buffer passes through.
        rounds: u8,
    },
    /// Spin for roughly this many microseconds of wall time per buffer
    /// before completing — gives chaos runs a window to kill the process
    /// while work is genuinely in flight.
    Busy {
        /// Busy-spin duration per buffer, microseconds.
        micros: u64,
    },
}

impl Behavior {
    /// Parse the spelling the `net_worker` binary takes as its argument:
    /// `identity`, `recirc:N`, or `busy:N`.
    pub fn parse(s: &str) -> Option<Behavior> {
        if s == "identity" {
            return Some(Behavior::Identity);
        }
        if let Some(n) = s.strip_prefix("recirc:") {
            return n.parse().ok().map(|rounds| Behavior::Recirc { rounds });
        }
        if let Some(n) = s.strip_prefix("busy:") {
            return n.parse().ok().map(|micros| Behavior::Busy { micros });
        }
        None
    }

    fn apply(&self, buffer: &DataBuffer) -> Vec<DataBuffer> {
        match *self {
            Behavior::Identity => Vec::new(),
            Behavior::Recirc { rounds } => {
                if buffer.level + 1 < rounds {
                    let mut next = buffer.clone();
                    next.level += 1;
                    vec![next]
                } else {
                    Vec::new()
                }
            }
            Behavior::Busy { micros } => {
                let until = Instant::now() + Duration::from_micros(micros);
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
                Vec::new()
            }
        }
    }
}

/// Modeled device occupancy for `buffer` on a device of `kind` — the same
/// number every other backend charges, so completion accounting matches.
pub(crate) fn modeled_proc_ns(buffer: &DataBuffer, kind: DeviceKind) -> u64 {
    match kind {
        DeviceKind::Cpu => buffer.shape.cpu.as_nanos(),
        DeviceKind::Gpu => buffer.shape.gpu_kernel.as_nanos(),
    }
}

/// Encode `frame` into the caller's scratch buffer and write it out; the
/// scratch is reused across the serve loop so steady-state sends do not
/// allocate.
fn send_with(stream: &mut TcpStream, frame: &Frame, scratch: &mut Vec<u8>) -> std::io::Result<()> {
    scratch.clear();
    encode_frame_into(scratch, frame);
    stream.write_all(scratch)
}

/// One-shot send for paths without a long-lived scratch (handshakes).
fn send(stream: &mut TcpStream, frame: &Frame) -> std::io::Result<()> {
    stream.write_all(&encode_frame(frame))
}

/// Serve the worker loop on an established connection until `Shutdown`
/// arrives or the coordinator hangs up. Returns the number of buffers
/// executed.
pub fn run_worker(stream: TcpStream, behavior: Behavior) -> std::io::Result<u64> {
    run_worker_primed(stream, behavior, FrameDecoder::new())
}

/// [`run_worker`] with a pre-primed decoder. A handshake that read past
/// its own reply (TCP delivers whatever the coordinator has written —
/// `JoinAck`, the join pump's `Request`s, even an immediate `Deliver`
/// can arrive coalesced in one segment) hands its decoder here so no
/// buffered frame is lost between the handshake and the serve loop.
fn run_worker_primed(
    mut stream: TcpStream,
    behavior: Behavior,
    mut dec: FrameDecoder,
) -> std::io::Result<u64> {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .ok();
    let epoch = Instant::now();
    let mut chunk = [0u8; 64 * 1024];
    let mut scratch = Vec::new();
    let mut executed = 0u64;
    let mut heartbeat_seq = 0u64;
    loop {
        // Drain every complete frame already buffered before reading more.
        // Replies accumulate in `scratch` and flush as ONE write per
        // wakeup: a read that delivered a Request and a Deliver coalesced
        // answers with the echo, the batch's Completes, and BatchDone in a
        // single TCP segment — one coordinator wakeup instead of one per
        // reply frame.
        scratch.clear();
        while let Some(frame) = dec
            .next_frame()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
        {
            match frame {
                Frame::Hello { .. } => encode_frame_into(&mut scratch, &frame),
                Frame::Request { .. } => encode_frame_into(&mut scratch, &frame),
                Frame::Deliver { kind, buffers } => {
                    let mut start_ns = epoch.elapsed().as_nanos() as u64;
                    for buffer in buffers {
                        let recirculated = behavior.apply(&buffer);
                        let end_ns = epoch.elapsed().as_nanos() as u64;
                        executed += 1;
                        encode_frame_into(
                            &mut scratch,
                            &Frame::Complete {
                                proc_ns: modeled_proc_ns(&buffer, kind),
                                buffer,
                                span: WireSpan { start_ns, end_ns },
                                recirculated,
                            },
                        );
                        start_ns = end_ns;
                    }
                    encode_frame_into(&mut scratch, &Frame::BatchDone);
                }
                Frame::Shutdown => {
                    encode_frame_into(&mut scratch, &Frame::Bye);
                    stream.write_all(&scratch).ok();
                    return Ok(executed);
                }
                // A late JoinAck (the join path answers it before handing
                // the stream to this loop) is harmless; tolerate it.
                Frame::JoinAck { .. } => {}
                // Coordinator never sends these; tolerate them.
                Frame::Complete { .. }
                | Frame::BatchDone
                | Frame::Heartbeat { .. }
                | Frame::Join { .. }
                | Frame::JoinRejected { .. }
                | Frame::Bye => {}
            }
        }
        if !scratch.is_empty() {
            stream.write_all(&scratch)?;
            scratch.clear();
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(executed), // coordinator hung up
            Ok(n) => dec.feed(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                heartbeat_seq += 1;
                send_with(
                    &mut stream,
                    &Frame::Heartbeat { seq: heartbeat_seq },
                    &mut scratch,
                )?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Connect to `addr` and serve [`run_worker`] — the body of the
/// `net_worker` binary.
pub fn connect_and_run(addr: &str, behavior: Behavior) -> std::io::Result<u64> {
    let stream = TcpStream::connect(addr)?;
    run_worker(stream, behavior)
}

/// Mid-run join handshake, worker side: send `Join { node, kind }` as the
/// connection's very first frame and await the coordinator's verdict.
/// Returns the assigned `(node, slot)` on `JoinAck`; a typed
/// `JoinRejected` maps to [`std::io::ErrorKind::ConnectionRefused`] with
/// the coordinator's reason as the message, so callers can tell "refused"
/// from "crashed".
///
/// `dec` is the connection's frame decoder and MUST be carried into the
/// serve loop afterwards ([`run_worker_primed`]): the coordinator
/// pumps demand the instant it installs the slot, so the read that
/// returns `JoinAck` routinely also returns the first `Request`s — and,
/// when the ready queue is non-empty at join time, a `Deliver`. A
/// handshake with a private decoder would silently eat those frames,
/// stranding the delivered buffer forever (the coordinator retries
/// requests, but never re-sends a dispatched batch to a live slot).
fn join_handshake(
    stream: &mut TcpStream,
    node: usize,
    kind: DeviceKind,
    dec: &mut FrameDecoder,
) -> std::io::Result<(u32, u32)> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
    send(
        stream,
        &Frame::Join {
            node: node as u32,
            kind,
        },
    )?;
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(frame) = dec
            .next_frame()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
        {
            match frame {
                Frame::JoinAck { node, slot } => {
                    stream.set_read_timeout(None).ok();
                    return Ok((node, slot));
                }
                Frame::JoinRejected { reason } => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionRefused,
                        reason,
                    ));
                }
                other => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("unexpected reply to Join: {other:?}"),
                    ));
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "coordinator hung up during join",
                ));
            }
            Ok(n) => dec.feed(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Connect to `addr`, complete the `join_handshake`, then serve
/// [`run_worker`] — how a worker enters a run that is already live.
pub fn join_and_run(
    addr: &str,
    node: usize,
    kind: DeviceKind,
    behavior: Behavior,
) -> std::io::Result<u64> {
    let mut stream = TcpStream::connect(addr)?;
    let mut dec = FrameDecoder::new();
    join_handshake(&mut stream, node, kind, &mut dec)?;
    run_worker_primed(stream, behavior, dec)
}

/// Spawn an in-process thread that joins the live run at `addr` and then
/// serves `behavior` — the loopback counterpart of [`join_and_run`].
pub fn spawn_joining_worker_thread(
    addr: String,
    node: usize,
    kind: DeviceKind,
    behavior: Behavior,
) -> std::thread::JoinHandle<std::io::Result<u64>> {
    std::thread::Builder::new()
        .name("anthill-net-joiner".into())
        .spawn(move || join_and_run(&addr, node, kind, behavior))
        .expect("spawn joining worker thread")
}

/// Spawn an in-process worker thread serving `behavior` over `stream`.
/// Loopback tests use this where a full child process would only add
/// startup latency; the protocol exercised is byte-identical.
pub fn spawn_worker_thread(
    stream: TcpStream,
    behavior: Behavior,
) -> std::thread::JoinHandle<std::io::Result<u64>> {
    std::thread::Builder::new()
        .name("anthill-net-worker".into())
        .spawn(move || run_worker(stream, behavior))
        .expect("spawn worker thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behavior_parses_cli_spellings() {
        assert_eq!(Behavior::parse("identity"), Some(Behavior::Identity));
        assert_eq!(
            Behavior::parse("recirc:3"),
            Some(Behavior::Recirc { rounds: 3 })
        );
        assert_eq!(
            Behavior::parse("busy:250"),
            Some(Behavior::Busy { micros: 250 })
        );
        assert_eq!(Behavior::parse("bogus"), None);
        assert_eq!(Behavior::parse("recirc:x"), None);
    }

    #[test]
    fn recirc_stops_at_round_limit() {
        use anthill_estimator::TaskParams;
        use anthill_hetsim::TaskShape;
        use anthill_simkit::SimDuration;
        let b = DataBuffer {
            id: crate::buffer::BufferId(1),
            params: TaskParams::default(),
            shape: TaskShape {
                cpu: SimDuration::ZERO,
                gpu_kernel: SimDuration::ZERO,
                bytes_in: 0,
                bytes_out: 0,
            },
            level: 0,
            task: 1,
        };
        let behavior = Behavior::Recirc { rounds: 2 };
        let next = behavior.apply(&b);
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].level, 1);
        assert!(behavior.apply(&next[0]).is_empty());
    }

    /// Regression: the join handshake's read can pull coalesced frames —
    /// the join pump's `Request`s, even a `Deliver` — in the same segment
    /// as the `JoinAck`. The serve loop must consume the handshake's
    /// decoder, not start fresh, or those frames vanish and the delivered
    /// buffer strands in flight forever (observed as a rolling-restart
    /// stall at n-1/n completions).
    #[test]
    fn primed_decoder_frames_are_served_before_any_socket_read() {
        use anthill_estimator::TaskParams;
        use anthill_hetsim::TaskShape;
        use anthill_simkit::SimDuration;
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");

        let buffer = DataBuffer {
            id: crate::buffer::BufferId(7),
            params: TaskParams::default(),
            shape: TaskShape {
                cpu: SimDuration::from_micros(5),
                gpu_kernel: SimDuration::ZERO,
                bytes_in: 0,
                bytes_out: 0,
            },
            level: 0,
            task: 7,
        };
        // Everything the worker will ever see arrives pre-buffered in the
        // handshake decoder; the socket itself carries nothing.
        let mut dec = FrameDecoder::new();
        dec.feed(&encode_frame(&Frame::Request {
            reader: 0,
            req_id: 3,
        }));
        dec.feed(&encode_frame(&Frame::Deliver {
            kind: DeviceKind::Cpu,
            buffers: vec![buffer],
        }));
        dec.feed(&encode_frame(&Frame::Shutdown));

        let worker = std::thread::spawn(move || run_worker_primed(server, Behavior::Identity, dec));

        let mut reply = FrameDecoder::new();
        let mut chunk = [0u8; 4096];
        let mut got = Vec::new();
        let mut stream = client;
        while got.len() < 4 {
            if let Some(f) = reply.next_frame().expect("valid reply stream") {
                got.push(f);
                continue;
            }
            let n = std::io::Read::read(&mut stream, &mut chunk).expect("read");
            assert!(n > 0, "worker hung up before draining primed frames");
            reply.feed(&chunk[..n]);
        }
        assert!(matches!(got[0], Frame::Request { req_id: 3, .. }));
        assert!(
            matches!(&got[1], Frame::Complete { buffer, .. } if buffer.id.0 == 7),
            "the primed Deliver must be executed, got {:?}",
            got[1]
        );
        assert!(matches!(got[2], Frame::BatchDone));
        assert!(matches!(got[3], Frame::Bye));
        assert_eq!(worker.join().expect("join").expect("serve ok"), 1);
    }
}
