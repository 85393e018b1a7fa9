//! The wire protocol of the networked backend: a length-prefixed binary
//! frame codec.
//!
//! Every message on a coordinator↔worker connection is one *frame*:
//!
//! ```text
//! ┌───────┬─────┬──────────────┬───────────────┐
//! │ MAGIC │ tag │ len (u32 LE) │ payload bytes │
//! └───────┴─────┴──────────────┴───────────────┘
//! ```
//!
//! The 6-byte header is validated before any payload is buffered: a wrong
//! magic byte, an unknown tag, or a length above [`MAX_FRAME`] rejects the
//! stream immediately (a desynchronized or corrupt peer must not make the
//! decoder allocate unbounded memory). Payloads are hand-rolled
//! little-endian integers and length-prefixed UTF-8 — no float formatting,
//! no self-describing envelope — so encoding is byte-deterministic and the
//! codec round-trips [`DataBuffer`]s (including mixed numeric/categorical
//! [`TaskParams`]) exactly.
//!
//! [`FrameDecoder`] is incremental: feed it whatever slice the socket
//! produced — one byte at a time, half a header, three coalesced frames —
//! and pop complete frames as they materialize. The codec proptests
//! (`tests/net_codec.rs`) drive exactly those splits.

use std::fmt;

use anthill_estimator::{ParamValue, TaskParams};
use anthill_hetsim::{DeviceKind, TaskShape};
use anthill_simkit::SimDuration;

use crate::buffer::{BufferId, DataBuffer};

/// First byte of every frame; anything else means the stream is corrupt
/// or desynchronized.
pub const MAGIC: u8 = 0xA7;

/// Upper bound on a frame payload (16 MiB). A header announcing more is
/// rejected before any payload is buffered.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Why a byte stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first header byte was not [`MAGIC`].
    BadMagic(u8),
    /// The tag byte named no known frame type.
    BadTag(u8),
    /// The announced payload length exceeded [`MAX_FRAME`].
    Oversize(u32),
    /// The payload ended before its fields did, or a field was malformed.
    BadPayload(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(b) => write!(f, "bad frame magic {b:#04x}"),
            FrameError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            FrameError::Oversize(n) => write!(f, "frame length {n} exceeds {MAX_FRAME}"),
            FrameError::BadPayload(what) => write!(f, "malformed frame payload: {what}"),
        }
    }
}

/// A worker-side execution span, in nanoseconds of the worker's own
/// monotonic clock (the coordinator re-stamps it onto the merged trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSpan {
    /// Handler start, worker-epoch nanoseconds.
    pub start_ns: u64,
    /// Handler end, worker-epoch nanoseconds.
    pub end_ns: u64,
}

/// One protocol message (see the module docs for the frame layout).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Slot assignment, coordinator → worker at connection time; the
    /// worker echoes it back verbatim to prove framing works both ways.
    Hello {
        /// Engine node index the slot lives on.
        node: u32,
        /// Worker slot index within the node.
        slot: u32,
    },
    /// A demand request bounced through the worker's requester: the
    /// coordinator sends it when the engine pumps the worker's window, the
    /// worker forwards it back to the reader (which lives coordinator-side).
    Request {
        /// Target reader (node) index.
        reader: u32,
        /// Engine request id; the echo must carry it unchanged.
        req_id: u64,
    },
    /// A batch of buffers for the worker to execute — the one delivery
    /// frame: a connection serves one `(filter, slot)`, so it names no filter.
    Deliver {
        /// Device class the executing slot schedules for.
        kind: DeviceKind,
        /// The buffers, in dispatch order.
        buffers: Vec<DataBuffer>,
    },
    /// One executed buffer coming back.
    Complete {
        /// The buffer that ran, round-tripped whole so the completion is
        /// credited from the frame; the wall-clock coordinator still keeps
        /// its in-flight table, which it retires by this buffer's id and
        /// re-homes when the slot dies.
        buffer: DataBuffer,
        /// Modeled device occupancy (`shape.cpu` / `shape.gpu_kernel` by
        /// the delivered kind), nanoseconds.
        proc_ns: u64,
        /// Measured worker-side handler span.
        span: WireSpan,
        /// Follow-up buffers the handler recirculated.
        recirculated: Vec<DataBuffer>,
    },
    /// The worker drained its current batch and is idle again.
    BatchDone,
    /// Worker liveness ping.
    Heartbeat {
        /// Monotonic per-worker sequence number.
        seq: u64,
    },
    /// Coordinator → worker: finish up and exit.
    Shutdown,
    /// Worker → coordinator: last frame before the worker closes.
    Bye,
    /// Worker → coordinator, first frame of a *mid-run* connection: ask to
    /// join the live pool on `node` as a device of `kind` (elastic
    /// membership; connection-time slots use [`Frame::Hello`] instead).
    Join {
        /// Engine node index the joiner wants to host on.
        node: u32,
        /// Device class the joiner schedules for.
        kind: DeviceKind,
    },
    /// Coordinator → worker: the join was accepted and this is the
    /// assigned slot. The worker then speaks the normal protocol.
    JoinAck {
        /// Engine node index the slot lives on.
        node: u32,
        /// Worker slot index within the node.
        slot: u32,
    },
    /// Coordinator → peer: the connection attempt was refused (bad first
    /// frame, pool full, draining coordinator). A typed rejection instead
    /// of a silent drop, so the peer can tell "refused" from "crashed".
    JoinRejected {
        /// Human-readable refusal reason.
        reason: String,
    },
}

impl Frame {
    fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::Request { .. } => 2,
            Frame::Deliver { .. } => 3,
            Frame::Complete { .. } => 4,
            Frame::BatchDone => 5,
            Frame::Heartbeat { .. } => 6,
            Frame::Shutdown => 7,
            Frame::Bye => 8,
            Frame::Join { .. } => 9,
            Frame::JoinAck { .. } => 10,
            Frame::JoinRejected { .. } => 11,
        }
    }
}

const MAX_TAG: u8 = 11;

// ---------------------------------------------------------------- encode

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_params(out: &mut Vec<u8>, params: &TaskParams) {
    put_u32(out, params.len() as u32);
    for p in params.iter() {
        match p {
            ParamValue::Num(x) => {
                out.push(0);
                put_u64(out, x.to_bits());
            }
            ParamValue::Cat(s) => {
                out.push(1);
                put_u32(out, s.len() as u32);
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
}

fn put_buffer(out: &mut Vec<u8>, b: &DataBuffer) {
    put_u64(out, b.id.0);
    put_u64(out, b.task);
    out.push(b.level);
    put_u64(out, b.shape.cpu.as_nanos());
    put_u64(out, b.shape.gpu_kernel.as_nanos());
    put_u64(out, b.shape.bytes_in);
    put_u64(out, b.shape.bytes_out);
    put_params(out, &b.params);
}

fn put_buffers(out: &mut Vec<u8>, bs: &[DataBuffer]) {
    put_u32(out, bs.len() as u32);
    for b in bs {
        put_buffer(out, b);
    }
}

fn kind_byte(k: DeviceKind) -> u8 {
    match k {
        DeviceKind::Cpu => 0,
        DeviceKind::Gpu => 1,
    }
}

/// Open a frame in `out`: write the header with a zero length placeholder
/// and return the offset where the payload begins, so [`close_header`]
/// can backpatch the real length. Encoding straight into the destination
/// buffer avoids the per-frame payload `Vec` the original codec paid.
fn open_header(out: &mut Vec<u8>, tag: u8) -> usize {
    out.push(MAGIC);
    out.push(tag);
    put_u32(out, 0);
    out.len()
}

/// Backpatch the payload length of the frame opened at `payload_start`.
fn close_header(out: &mut [u8], payload_start: usize) {
    let len = out.len() - payload_start;
    assert!(len as u64 <= MAX_FRAME as u64, "frame too large");
    out[payload_start - 4..payload_start].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Serialize one frame, header included, appending to `out`.
///
/// This is the allocation-free core of the codec: nothing is allocated
/// beyond growth of `out` itself, so a caller that reuses one scratch (or
/// pooled) buffer amortizes the allocation across every frame it sends.
/// [`encode_frame`] is the convenience wrapper that pays a fresh `Vec`.
pub fn encode_frame_into(out: &mut Vec<u8>, frame: &Frame) {
    let start = open_header(out, frame.tag());
    match frame {
        Frame::Hello { node, slot } | Frame::JoinAck { node, slot } => {
            put_u32(out, *node);
            put_u32(out, *slot);
        }
        Frame::Request { reader, req_id } => {
            put_u32(out, *reader);
            put_u64(out, *req_id);
        }
        Frame::Deliver { kind, buffers } => {
            out.push(kind_byte(*kind));
            put_buffers(out, buffers);
        }
        Frame::Complete {
            buffer,
            proc_ns,
            span,
            recirculated,
        } => {
            put_buffer(out, buffer);
            put_u64(out, *proc_ns);
            put_u64(out, span.start_ns);
            put_u64(out, span.end_ns);
            put_buffers(out, recirculated);
        }
        Frame::BatchDone | Frame::Shutdown | Frame::Bye => {}
        Frame::Heartbeat { seq } => put_u64(out, *seq),
        Frame::Join { node, kind } => {
            put_u32(out, *node);
            out.push(kind_byte(*kind));
        }
        Frame::JoinRejected { reason } => {
            put_u32(out, reason.len() as u32);
            out.extend_from_slice(reason.as_bytes());
        }
    }
    close_header(out, start);
}

/// Serialize one frame, header included.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(&mut out, frame);
    out
}

/// Encode a `Deliver` frame directly from borrowed buffers — the hot
/// dispatch path, which encodes the batch it dispatched without building
/// a [`Frame`] around it.
pub fn encode_deliver_into(out: &mut Vec<u8>, kind: DeviceKind, buffers: &[DataBuffer]) {
    let start = open_header(out, 3);
    out.push(kind_byte(kind));
    put_buffers(out, buffers);
    close_header(out, start);
}

/// A bounded free list of encode buffers.
///
/// The event loop encodes every outbound frame into a pooled `Vec<u8>`
/// and returns the vector once the socket has drained it, so a steady
/// run allocates a handful of buffers total instead of one per frame.
/// `hits`/`misses` surface as `WireStats::pool_hits`/`pool_misses`.
#[derive(Debug, Default)]
pub struct BufPool {
    free: Vec<Vec<u8>>,
    /// Connections sharing this pool (see [`BufPool::add_conn`]).
    conns: usize,
    /// Buffers served from the free list.
    pub hits: u64,
    /// Buffers that had to be freshly allocated.
    pub misses: u64,
}

impl BufPool {
    /// Retain at least this many idle buffers however few connections
    /// share the pool.
    const MIN_FREE: usize = 64;
    /// Shrink buffers that ballooned past this before retaining them.
    const MAX_RETAINED_CAPACITY: usize = 256 * 1024;

    /// An empty pool.
    pub fn new() -> BufPool {
        BufPool::default()
    }

    /// One more connection draws on the pool, and brings `spare` (the
    /// buffer its handshake encoded into) with it. Every connection with
    /// queued frames holds a buffer until the reactor's wait boundary and
    /// they all come back in that one flush, so the free list must be
    /// allowed one buffer per connection or a wide fan-in allocates afresh
    /// every round; stocking it with the handshake's buffers means the
    /// first round allocates nothing either.
    pub(crate) fn add_conn(&mut self, spare: Vec<u8>) {
        self.conns += 1;
        self.put(spare);
    }

    /// Take a cleared buffer, reusing a previously returned allocation
    /// when one is idle.
    pub fn get(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(mut b) => {
                b.clear();
                self.hits += 1;
                b
            }
            None => {
                self.misses += 1;
                Vec::new()
            }
        }
    }

    /// Return a drained buffer to the free list.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if self.free.len() >= Self::MIN_FREE.max(self.conns) {
            return;
        }
        if buf.capacity() > Self::MAX_RETAINED_CAPACITY {
            buf.shrink_to(Self::MAX_RETAINED_CAPACITY);
        }
        self.free.push(buf);
    }
}

// ---------------------------------------------------------------- decode

/// Fewest payload bytes one buffer can take: id, task, level, the four
/// shape fields and an empty parameter list.
const MIN_BUFFER_BYTES: usize = 8 + 8 + 1 + 4 * 8 + 4;

/// One parameter as it sits in a payload, validated and not yet copied.
enum RawParam<'a> {
    Num(f64),
    Cat(&'a str),
}

/// The latest parameter list a decoder built, and its encoded bytes: a
/// run's consecutive buffers mostly carry the same list.
#[derive(Debug, Default)]
struct ParamsMemo {
    encoded: Vec<u8>,
    params: Option<TaskParams>,
}

/// Cursor over one frame's payload bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.bytes.len() - self.pos < n {
            return Err(FrameError::BadPayload("payload truncated"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn kind(&mut self) -> Result<DeviceKind, FrameError> {
        match self.u8()? {
            0 => Ok(DeviceKind::Cpu),
            1 => Ok(DeviceKind::Gpu),
            _ => Err(FrameError::BadPayload("unknown device kind")),
        }
    }

    fn param(&mut self) -> Result<RawParam<'a>, FrameError> {
        match self.u8()? {
            0 => Ok(RawParam::Num(f64::from_bits(self.u64()?))),
            1 => {
                let len = self.u32()? as usize;
                let raw = self.take(len)?;
                let s = std::str::from_utf8(raw)
                    .map_err(|_| FrameError::BadPayload("categorical param not UTF-8"))?;
                Ok(RawParam::Cat(s))
            }
            _ => Err(FrameError::BadPayload("unknown param kind")),
        }
    }

    /// The memo's list if the payload repeats its bytes, else the list
    /// validated whole and then built in one allocation.
    fn params(&mut self, memo: &mut ParamsMemo) -> Result<TaskParams, FrameError> {
        // The encoding delimits itself: a payload that goes on with the
        // memo's bytes goes on with the memo's list, already validated.
        if let Some(params) = &memo.params {
            if self.bytes[self.pos..].starts_with(&memo.encoded) {
                self.pos += memo.encoded.len();
                return Ok(params.clone());
            }
        }
        let start = self.pos;
        let n = self.u32()? as usize;
        for _ in 0..n {
            self.param()?;
        }
        let encoded = &self.bytes[start..self.pos];
        let mut list = Reader {
            bytes: encoded,
            pos: 4,
        };
        let params: TaskParams = (0..n)
            .map(|_| match list.param().expect("validated above") {
                RawParam::Num(x) => ParamValue::Num(x),
                RawParam::Cat(s) => ParamValue::Cat(s.to_owned()),
            })
            .collect();
        memo.encoded.clear();
        memo.encoded.extend_from_slice(encoded);
        memo.params = Some(params.clone());
        Ok(params)
    }

    fn buffer(&mut self, memo: &mut ParamsMemo) -> Result<DataBuffer, FrameError> {
        let id = BufferId(self.u64()?);
        let task = self.u64()?;
        let level = self.u8()?;
        let shape = TaskShape {
            cpu: SimDuration(self.u64()?),
            gpu_kernel: SimDuration(self.u64()?),
            bytes_in: self.u64()?,
            bytes_out: self.u64()?,
        };
        let params = self.params(memo)?;
        Ok(DataBuffer {
            id,
            params,
            shape,
            level,
            task,
        })
    }

    fn buffers(&mut self, memo: &mut ParamsMemo) -> Result<Vec<DataBuffer>, FrameError> {
        let n = self.u32()? as usize;
        // A count the rest of the payload cannot hold sizes no `Vec`.
        if n > (self.bytes.len() - self.pos) / MIN_BUFFER_BYTES {
            return Err(FrameError::BadPayload("buffer count exceeds payload"));
        }
        let mut buffers = Vec::with_capacity(n);
        for _ in 0..n {
            buffers.push(self.buffer(memo)?);
        }
        Ok(buffers)
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(FrameError::BadPayload("trailing bytes after payload"))
        }
    }
}

fn decode_payload(tag: u8, bytes: &[u8], memo: &mut ParamsMemo) -> Result<Frame, FrameError> {
    let mut r = Reader { bytes, pos: 0 };
    let frame = match tag {
        1 => Frame::Hello {
            node: r.u32()?,
            slot: r.u32()?,
        },
        2 => Frame::Request {
            reader: r.u32()?,
            req_id: r.u64()?,
        },
        3 => Frame::Deliver {
            kind: r.kind()?,
            buffers: r.buffers(memo)?,
        },
        4 => Frame::Complete {
            buffer: r.buffer(memo)?,
            proc_ns: r.u64()?,
            span: WireSpan {
                start_ns: r.u64()?,
                end_ns: r.u64()?,
            },
            recirculated: r.buffers(memo)?,
        },
        5 => Frame::BatchDone,
        6 => Frame::Heartbeat { seq: r.u64()? },
        7 => Frame::Shutdown,
        8 => Frame::Bye,
        9 => Frame::Join {
            node: r.u32()?,
            kind: r.kind()?,
        },
        10 => Frame::JoinAck {
            node: r.u32()?,
            slot: r.u32()?,
        },
        11 => {
            let len = r.u32()? as usize;
            let raw = r.take(len)?;
            let reason = std::str::from_utf8(raw)
                .map_err(|_| FrameError::BadPayload("rejection reason not UTF-8"))?
                .to_owned();
            Frame::JoinRejected { reason }
        }
        t => return Err(FrameError::BadTag(t)),
    };
    r.finish()?;
    Ok(frame)
}

/// Incremental frame decoder: buffer bytes as the socket yields them, pop
/// complete frames as they materialize. A parameter list whose bytes equal
/// the previous list's shares its storage
/// ([`TaskParams::shares_storage`]).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    start: usize,
    memo: ParamsMemo,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append raw socket bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pop the next complete frame, if the buffer holds one.
    ///
    /// `Ok(None)` means "need more bytes". The header is validated as soon
    /// as its six bytes are present, so corrupt streams fail before their
    /// announced payload is ever awaited. After an `Err` the decoder is
    /// poisoned-by-construction: the caller must drop the connection (the
    /// stream offers no way to resynchronize).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 6 {
            return Ok(None);
        }
        if avail[0] != MAGIC {
            return Err(FrameError::BadMagic(avail[0]));
        }
        let tag = avail[1];
        if tag == 0 || tag > MAX_TAG {
            return Err(FrameError::BadTag(tag));
        }
        let len = u32::from_le_bytes(avail[2..6].try_into().unwrap());
        if len > MAX_FRAME {
            return Err(FrameError::Oversize(len));
        }
        let total = 6 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let frame = decode_payload(tag, &avail[6..total], &mut self.memo)?;
        self.start += total;
        // Compact once the consumed prefix dominates, keeping the buffer
        // bounded by one partial frame plus whatever was coalesced.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anthill_estimator::params;

    fn buffer(id: u64) -> DataBuffer {
        DataBuffer {
            id: BufferId(id),
            params: params![64.0, "variant-a", 3.0],
            shape: TaskShape {
                cpu: SimDuration::from_micros(400),
                gpu_kernel: SimDuration::from_micros(50),
                bytes_in: 3136,
                bytes_out: 256,
            },
            level: 1,
            task: id,
        }
    }

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Hello { node: 0, slot: 3 },
            Frame::Request {
                reader: 2,
                req_id: 77,
            },
            Frame::Deliver {
                kind: DeviceKind::Gpu,
                buffers: vec![buffer(1), buffer(2)],
            },
            Frame::Complete {
                buffer: buffer(1),
                proc_ns: 50_000,
                span: WireSpan {
                    start_ns: 10,
                    end_ns: 60_010,
                },
                recirculated: vec![buffer(9)],
            },
            Frame::BatchDone,
            Frame::Heartbeat { seq: 4 },
            Frame::Shutdown,
            Frame::Bye,
            Frame::Join {
                node: 1,
                kind: DeviceKind::Gpu,
            },
            Frame::JoinAck { node: 1, slot: 4 },
            Frame::JoinRejected {
                reason: "pool is full".to_owned(),
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in samples() {
            let bytes = encode_frame(&frame);
            let mut dec = FrameDecoder::new();
            dec.feed(&bytes);
            assert_eq!(dec.next_frame().unwrap(), Some(frame));
            assert_eq!(dec.next_frame().unwrap(), None);
            assert_eq!(dec.pending(), 0);
        }
    }

    #[test]
    fn coalesced_frames_pop_in_order() {
        let frames = samples();
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&encode_frame(f));
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        for f in &frames {
            assert_eq!(dec.next_frame().unwrap().as_ref(), Some(f));
        }
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn one_byte_feeds_reassemble() {
        let frame = Frame::Deliver {
            kind: DeviceKind::Cpu,
            buffers: vec![buffer(5)],
        };
        let bytes = encode_frame(&frame);
        let mut dec = FrameDecoder::new();
        for (i, b) in bytes.iter().enumerate() {
            dec.feed(std::slice::from_ref(b));
            let got = dec.next_frame().unwrap();
            if i + 1 < bytes.len() {
                assert_eq!(got, None, "frame completed early at byte {i}");
            } else {
                assert_eq!(got, Some(frame.clone()));
            }
        }
    }

    #[test]
    fn corrupt_headers_are_rejected_before_payload() {
        // Wrong magic.
        let mut dec = FrameDecoder::new();
        dec.feed(&[0x00, 1, 0, 0, 0, 0]);
        assert_eq!(dec.next_frame(), Err(FrameError::BadMagic(0x00)));
        // Unknown tag.
        let mut dec = FrameDecoder::new();
        dec.feed(&[MAGIC, 200, 0, 0, 0, 0]);
        assert_eq!(dec.next_frame(), Err(FrameError::BadTag(200)));
        // Oversized announced length, rejected with no payload bytes fed.
        let mut dec = FrameDecoder::new();
        let huge = (MAX_FRAME + 1).to_le_bytes();
        dec.feed(&[MAGIC, 1, huge[0], huge[1], huge[2], huge[3]]);
        assert_eq!(dec.next_frame(), Err(FrameError::Oversize(MAX_FRAME + 1)));
    }

    #[test]
    fn truncated_and_padded_payloads_are_rejected() {
        let mut bytes = encode_frame(&Frame::Request {
            reader: 1,
            req_id: 2,
        });
        // Chop one payload byte and shrink the announced length to match:
        // the Request payload is now too short for its fields.
        bytes.pop();
        let new_len = (bytes.len() - 6) as u32;
        bytes[2..6].copy_from_slice(&new_len.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadPayload(_))));

        // Extra trailing byte inside the announced payload.
        let mut bytes = encode_frame(&Frame::Heartbeat { seq: 1 });
        bytes.push(0xFF);
        let new_len = (bytes.len() - 6) as u32;
        bytes[2..6].copy_from_slice(&new_len.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::BadPayload("trailing bytes after payload"))
        );
    }

    #[test]
    fn a_buffer_count_the_payload_cannot_hold_is_rejected() {
        let mut bytes = encode_frame(&Frame::Deliver {
            kind: DeviceKind::Cpu,
            buffers: vec![buffer(1)],
        });
        // Header, kind byte, then the count.
        bytes[7..11].copy_from_slice(&2u32.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::BadPayload("buffer count exceeds payload"))
        );
    }

    #[test]
    fn membership_tags_validate_their_payloads() {
        // The first tag past MAX_TAG rejects at the header.
        let mut dec = FrameDecoder::new();
        dec.feed(&[MAGIC, 12, 0, 0, 0, 0]);
        assert_eq!(dec.next_frame(), Err(FrameError::BadTag(12)));
        // A rejection reason must be UTF-8.
        let mut bytes = encode_frame(&Frame::JoinRejected {
            reason: "no".to_owned(),
        });
        let n = bytes.len();
        bytes[n - 2] = 0xFE;
        bytes[n - 1] = 0xFF;
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::BadPayload("rejection reason not UTF-8"))
        );
        // A Join with an unknown device kind is rejected.
        let mut bytes = encode_frame(&Frame::Join {
            node: 0,
            kind: DeviceKind::Cpu,
        });
        let n = bytes.len();
        bytes[n - 1] = 9;
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::BadPayload("unknown device kind"))
        );
    }

    #[test]
    fn empty_params_and_buffers_encode() {
        let frame = Frame::Deliver {
            kind: DeviceKind::Cpu,
            buffers: vec![DataBuffer {
                id: BufferId(0),
                params: TaskParams::default(),
                shape: TaskShape {
                    cpu: SimDuration::ZERO,
                    gpu_kernel: SimDuration::ZERO,
                    bytes_in: 0,
                    bytes_out: 0,
                },
                level: 0,
                task: 0,
            }],
        };
        let bytes = encode_frame(&frame);
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert_eq!(dec.next_frame().unwrap(), Some(frame));
    }
}
