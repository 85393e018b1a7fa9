//! Property suite for the TCP backend's wire codec (`anthill::net::frame`).
//!
//! Three invariants, each driven by seeded random frame streams:
//!
//! 1. **Round trip** — any sequence of well-formed frames encodes to
//!    bytes that decode back to the identical sequence.
//! 2. **Reassembly** — the decoder is agnostic to how the byte stream is
//!    chopped up: whole-buffer, 1-byte drip, and random-sized chunks all
//!    pop the same frames in the same order.
//! 3. **Corruption** — a corrupt header (bad magic, unknown tag,
//!    oversized length) is rejected as soon as its six bytes arrive,
//!    before any payload is buffered.
//!
//! Set `NET_CODEC_HEAVY=1` to multiply the frames generated per case
//! (the CI net job does); the default keeps the suite fast locally.

use proptest::prelude::*;

use anthill_repro::core::buffer::{BufferId, DataBuffer};
use anthill_repro::core::net::{
    encode_deliver_into, encode_frame, encode_frame_into, Frame, FrameDecoder, FrameError, WireSpan,
};
use anthill_repro::estimator::{ParamValue, TaskParams};
use anthill_repro::hetsim::{DeviceKind, TaskShape};
use anthill_repro::simkit::SimDuration;

/// Frames generated per proptest case; the heavy setting is what CI runs.
fn frames_per_case() -> u64 {
    if std::env::var_os("NET_CODEC_HEAVY").is_some() {
        48
    } else {
        6
    }
}

fn arb_string(rng: &mut TestRng) -> String {
    let len = rng.below(12) as usize;
    let mut s = String::new();
    for _ in 0..len {
        // Mostly ASCII, sometimes multibyte, so UTF-8 length handling is
        // exercised on both sides of the boundary.
        if rng.below(8) == 0 {
            s.push(['µ', 'é', '漢', '∞'][rng.below(4) as usize]);
        } else {
            s.push(char::from(b'a' + rng.below(26) as u8));
        }
    }
    s
}

fn arb_params(rng: &mut TestRng) -> TaskParams {
    let n = rng.below(5) as usize;
    let values = (0..n)
        .map(|_| {
            if rng.below(2) == 0 {
                // Finite by construction: NaN would round-trip bitwise but
                // break the `PartialEq` the assertions rely on.
                ParamValue::Num(rng.next_f64() * 2e6 - 1e6)
            } else {
                ParamValue::Cat(arb_string(rng))
            }
        })
        .collect();
    TaskParams::new(values)
}

fn arb_buffer(rng: &mut TestRng) -> DataBuffer {
    DataBuffer {
        id: BufferId(rng.next_u64()),
        params: arb_params(rng),
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

fn arb_kind(rng: &mut TestRng) -> DeviceKind {
    if rng.below(2) == 0 {
        DeviceKind::Cpu
    } else {
        DeviceKind::Gpu
    }
}

fn arb_buffers(rng: &mut TestRng, max: u64) -> Vec<DataBuffer> {
    (0..rng.below(max + 1)).map(|_| arb_buffer(rng)).collect()
}

/// One frame of any kind: the arms are the whole vocabulary, tags 1 to 11,
/// so every property below decodes every tag.
fn arb_frame(rng: &mut TestRng) -> Frame {
    match rng.below(11) {
        0 => Frame::Hello {
            node: rng.below(1 << 16) as u32,
            slot: rng.below(1 << 16) as u32,
        },
        1 => Frame::Request {
            reader: rng.below(1 << 16) as u32,
            req_id: rng.next_u64(),
        },
        2 => Frame::Deliver {
            kind: arb_kind(rng),
            buffers: arb_buffers(rng, 3),
        },
        3 => Frame::Complete {
            buffer: arb_buffer(rng),
            proc_ns: rng.next_u64(),
            span: WireSpan {
                start_ns: rng.next_u64(),
                end_ns: rng.next_u64(),
            },
            recirculated: arb_buffers(rng, 2),
        },
        4 => Frame::BatchDone,
        5 => Frame::Heartbeat {
            seq: rng.next_u64(),
        },
        6 => Frame::Shutdown,
        7 => Frame::Bye,
        8 => Frame::Join {
            node: rng.below(1 << 16) as u32,
            kind: arb_kind(rng),
        },
        9 => Frame::JoinAck {
            node: rng.below(1 << 16) as u32,
            slot: rng.below(1 << 16) as u32,
        },
        _ => Frame::JoinRejected {
            reason: arb_string(rng),
        },
    }
}

/// Drain every complete frame the decoder currently holds.
fn drain(dec: &mut FrameDecoder) -> Vec<Frame> {
    let mut out = Vec::new();
    while let Some(frame) = dec.next_frame().expect("well-formed stream") {
        out.push(frame);
    }
    out
}

/// Every parameter list in `frames`, in the order the decoder met them.
fn wire_order_params(frames: &[Frame]) -> Vec<&TaskParams> {
    let mut lists = Vec::new();
    for frame in frames {
        match frame {
            Frame::Deliver { buffers, .. } => lists.extend(buffers.iter().map(|b| &b.params)),
            Frame::Complete {
                buffer,
                recirculated,
                ..
            } => {
                lists.push(&buffer.params);
                lists.extend(recirculated.iter().map(|b| &b.params));
            }
            _ => {}
        }
    }
    lists
}

/// A buffer carrying `params`, with every other field fixed.
fn with_params(id: u64, params: TaskParams) -> DataBuffer {
    DataBuffer {
        id: BufferId(id),
        params,
        shape: TaskShape {
            cpu: SimDuration::from_micros(400),
            gpu_kernel: SimDuration::from_micros(50),
            bytes_in: 3136,
            bytes_out: 256,
        },
        level: 0,
        task: id,
    }
}

/// Consecutive parameter lists that repeat, and lists that differ from
/// their predecessor by one numeric bit, one categorical byte, their
/// length, or everything: decoded one byte at a time and all at once,
/// every frame comes back equal to what was encoded, a list equal to the
/// one decoded before it shares its storage, and a differing one never
/// does. A categorical that is not UTF-8 is rejected even right after a
/// valid one of the same length.
#[test]
fn repeated_and_near_repeated_params_round_trip() {
    let num = |x: f64| ParamValue::Num(x);
    let cat = |s: &str| ParamValue::Cat(s.to_owned());
    let base = || TaskParams::new(vec![num(64.0), cat("variant-a"), num(3.0)]);
    let one_bit = f64::from_bits(64f64.to_bits() ^ 1);
    let lists = [
        base(),
        base(),
        TaskParams::new(vec![num(one_bit), cat("variant-a"), num(3.0)]),
        TaskParams::new(vec![num(one_bit), cat("variant-a"), num(3.0)]),
        base(),
        TaskParams::new(vec![num(64.0), cat("variant-b"), num(3.0)]),
        TaskParams::default(),
        TaskParams::default(),
        TaskParams::new(vec![num(64.0), cat("variant-a")]),
        base(),
        base(),
    ];
    let buffers: Vec<DataBuffer> = (0..)
        .zip(&lists)
        .map(|(id, p)| with_params(id, p.clone()))
        .collect();
    let mut frames = vec![Frame::Deliver {
        kind: DeviceKind::Gpu,
        buffers: buffers.clone(),
    }];
    for pair in buffers.windows(2) {
        frames.push(Frame::Complete {
            buffer: pair[0].clone(),
            proc_ns: 50_000,
            span: WireSpan {
                start_ns: 10,
                end_ns: 60_010,
            },
            recirculated: vec![pair[1].clone()],
        });
    }
    let bytes: Vec<u8> = frames.iter().flat_map(encode_frame).collect();

    let mut whole = FrameDecoder::new();
    whole.feed(&bytes);
    let coalesced = drain(&mut whole);
    let mut drip = FrameDecoder::new();
    let mut dripped = Vec::new();
    for &b in &bytes {
        drip.feed(&[b]);
        dripped.extend(drain(&mut drip));
    }
    assert_eq!(coalesced, frames, "coalesced feed");
    assert_eq!(dripped, frames, "one-byte feed");
    for decoded in [&coalesced, &dripped] {
        let lists = wire_order_params(decoded);
        let mut shared = 0;
        for pair in lists.windows(2) {
            let (prev, next) = (pair[0], pair[1]);
            assert_eq!(
                prev == next,
                prev.shares_storage(next),
                "{prev:?} -> {next:?}"
            );
            shared += usize::from(prev == next);
        }
        assert_eq!((shared, lists.len()), (18, 31), "repeats among all lists");
    }

    // "xy" then the same two bytes made invalid UTF-8, in one frame and
    // across two frames of one stream.
    let valid = with_params(1, TaskParams::new(vec![cat("xy")]));
    let corrupt = |frame: &Frame| {
        let mut b = encode_frame(frame);
        let at = b.windows(2).rposition(|w| w == b"xy").expect("the string");
        b[at..at + 2].copy_from_slice(&[0xC3, 0x28]);
        b
    };
    let pair = Frame::Deliver {
        kind: DeviceKind::Cpu,
        buffers: vec![valid.clone(), valid.clone()],
    };
    let mut dec = FrameDecoder::new();
    dec.feed(&corrupt(&pair));
    assert_eq!(
        dec.next_frame(),
        Err(FrameError::BadPayload("categorical param not UTF-8"))
    );
    let single = Frame::Deliver {
        kind: DeviceKind::Cpu,
        buffers: vec![valid],
    };
    let mut dec = FrameDecoder::new();
    dec.feed(&encode_frame(&single));
    dec.feed(&corrupt(&single));
    assert_eq!(dec.next_frame(), Ok(Some(single)));
    assert_eq!(
        dec.next_frame(),
        Err(FrameError::BadPayload("categorical param not UTF-8"))
    );
}

proptest! {
    /// Any frame sequence round-trips through one contiguous byte feed.
    #[test]
    fn arbitrary_frames_round_trip(seed in 0u64..1 << 48) {
        let mut rng = TestRng::new(seed);
        let frames: Vec<Frame> = (0..frames_per_case()).map(|_| arb_frame(&mut rng)).collect();
        let bytes: Vec<u8> = frames.iter().flat_map(encode_frame).collect();

        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        let decoded = drain(&mut dec);
        prop_assert_eq!(&decoded, &frames);
        prop_assert_eq!(dec.pending(), 0, "no bytes left over");
    }

    /// The same stream fed one byte at a time, and again in random-sized
    /// chunks, pops the identical frame sequence — mid-feed pops included,
    /// exactly as a socket read loop would interleave them.
    #[test]
    fn split_and_coalesced_feeds_reassemble(seed in 0u64..1 << 48) {
        let mut rng = TestRng::new(seed);
        let frames: Vec<Frame> = (0..frames_per_case()).map(|_| arb_frame(&mut rng)).collect();
        let bytes: Vec<u8> = frames.iter().flat_map(encode_frame).collect();

        let mut drip = FrameDecoder::new();
        let mut dripped = Vec::new();
        for &b in &bytes {
            drip.feed(&[b]);
            dripped.extend(drain(&mut drip));
        }
        prop_assert_eq!(&dripped, &frames, "1-byte drip diverged");

        let mut chunked = FrameDecoder::new();
        let mut chunks = Vec::new();
        let mut rest = bytes.as_slice();
        while !rest.is_empty() {
            let n = (rng.below(97) as usize + 1).min(rest.len());
            let (head, tail) = rest.split_at(n);
            chunked.feed(head);
            chunks.extend(drain(&mut chunked));
            rest = tail;
        }
        prop_assert_eq!(&chunks, &frames, "random chunking diverged");
        prop_assert_eq!(drip.pending() + chunked.pending(), 0);
    }

    /// A corrupt header is rejected from its six bytes alone — wrong
    /// magic, unknown tag, or an oversized length claim — even when the
    /// corruption hides after a run of valid frames.
    #[test]
    fn corrupt_headers_are_rejected(seed in 0u64..1 << 48) {
        let mut rng = TestRng::new(seed);
        let prefix: Vec<u8> = (0..rng.below(4))
            .map(|_| arb_frame(&mut rng))
            .flat_map(|f| encode_frame(&f))
            .collect();

        let bad_magic = {
            let mut b = rng.next_u64() as u8;
            if b == anthill_repro::core::net::frame::MAGIC {
                b = !b;
            }
            b
        };
        // Tag 0 and anything above MAX_TAG (11, the membership
        // JoinRejected frame) are outside the protocol.
        let bad_tag = [0u8, 12, 0xFF][rng.below(3) as usize];
        let oversize = anthill_repro::core::net::frame::MAX_FRAME + 1 + rng.below(1 << 20) as u32;

        let corrupt_header = |header: [u8; 6], want: FrameError| {
            let mut dec = FrameDecoder::new();
            dec.feed(&prefix);
            dec.feed(&header);
            let mut err = None;
            loop {
                match dec.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => {
                        err = Some(e);
                        break;
                    }
                }
            }
            prop_assert_eq!(err, Some(want), "header {:?}", header);
        };

        let magic = anthill_repro::core::net::frame::MAGIC;
        corrupt_header([bad_magic, 1, 0, 0, 0, 0], FrameError::BadMagic(bad_magic));
        corrupt_header([magic, bad_tag, 0, 0, 0, 0], FrameError::BadTag(bad_tag));
        let len = oversize.to_le_bytes();
        corrupt_header(
            [magic, 3, len[0], len[1], len[2], len[3]],
            FrameError::Oversize(oversize),
        );
    }

    /// `encode_frame_into` appended to one scratch buffer is byte-identical
    /// to concatenated `encode_frame` calls, and the borrowed-buffer
    /// `Deliver` encoder produces the same bytes as the owned frame — the
    /// event loop's dispatch path cannot diverge from the wire format.
    #[test]
    fn encode_into_is_byte_identical(seed in 0u64..1 << 48) {
        let mut rng = TestRng::new(seed);
        let frames: Vec<Frame> = (0..frames_per_case()).map(|_| arb_frame(&mut rng)).collect();
        let reference: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        let mut scratch = Vec::new();
        for f in &frames {
            encode_frame_into(&mut scratch, f);
        }
        prop_assert_eq!(&scratch, &reference);

        let kind = arb_kind(&mut rng);
        let buffers = arb_buffers(&mut rng, 4);
        let mut borrowed = Vec::new();
        encode_deliver_into(&mut borrowed, kind, &buffers);
        prop_assert_eq!(
            &borrowed,
            &encode_frame(&Frame::Deliver { kind, buffers })
        );
    }

    /// Vectored-write reassembly: frames coalesced into a few queue
    /// buffers (as the event loop's write queue does), then emitted in
    /// iovec order chopped at arbitrary short-write boundaries, decode
    /// back to the identical sequence.
    #[test]
    fn vectored_write_chunks_reassemble(seed in 0u64..1 << 48) {
        let mut rng = TestRng::new(seed);
        let frames: Vec<Frame> = (0..frames_per_case()).map(|_| arb_frame(&mut rng)).collect();

        // Coalesce into iovec buffers: each frame appends to the current
        // buffer, sometimes starting a fresh one (random batch edges).
        let mut iovecs: Vec<Vec<u8>> = vec![Vec::new()];
        for f in &frames {
            if rng.below(3) == 0 && !iovecs.last().unwrap().is_empty() {
                iovecs.push(Vec::new());
            }
            encode_frame_into(iovecs.last_mut().unwrap(), f);
        }

        // A short write can stop anywhere, including mid-header and
        // mid-iovec; the receiver just sees the byte stream.
        let mut dec = FrameDecoder::new();
        let mut decoded = Vec::new();
        for buf in &iovecs {
            let mut rest = buf.as_slice();
            while !rest.is_empty() {
                let n = (rng.below(61) as usize + 1).min(rest.len());
                let (head, tail) = rest.split_at(n);
                dec.feed(head);
                decoded.extend(drain(&mut dec));
                rest = tail;
            }
        }
        prop_assert_eq!(&decoded, &frames);
        prop_assert_eq!(dec.pending(), 0);
    }
}
