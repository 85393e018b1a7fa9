//! Layer drills: each calls one layer's public functions on inputs made
//! from the run's seed, in batches of at least a thousand calls (or a
//! thousand pixels) per span, between two probes like any other block.
//! A drill's number is what one call costs on the reference core; times
//! its calls per task, it is that layer's share of a workload's task.

use std::hint::black_box;
use std::io::{self, IoSlice};

use anthill::buffer::DataBuffer;
use anthill::dbsa::SendQueue;
use anthill::dqaa::Dqaa;
use anthill::engine::admission::{AdmissionConfig, AdmissionController};
use anthill::engine::select::{weights_for, ReadyLane};
use anthill::engine::sequential::{self, Emission, SequentialConfig};
use anthill::graph::DataflowGraph;
use anthill::net::{
    encode_deliver_into, encode_frame_into, BufPool, Conn, Frame, FrameDecoder, RawIo, WireSpan,
};
use anthill::obs::{DeviceRef, EventKind, Recorder};
use anthill::policy::{Policy, PolicyKind};
use anthill::queue::SharedQueue;
use anthill::sim::{run_graph_sim, GraphSimConfig};
use anthill::transfer::pipeline::run_async_adaptive;
use anthill::weights::{EstimatorWeights, WeightProvider};
use anthill_estimator::{DeviceClass, KnnEstimator, OnlineProfile, ProfileStore, TaskParams};
use anthill_hetsim::{DeviceId, DeviceKind, GpuParams, TaskShape};
use anthill_kernels::color::{convert_tile, quantize_l, Rgb8};
use anthill_kernels::pyramid::TilePyramid;
use anthill_kernels::texture::{lbp_histogram, Glcm};
use anthill_kernels::tiles::{
    tile_features, TileClass, TileClassifier, TileGenerator, QUANT_LEVELS,
};
use anthill_simkit::{Engine, Scheduler, SimDuration, SimTime, World};

use crate::inputs::{mixed_buffers, Rng};
use crate::measure::bracket;
use crate::report::Metrics;
use crate::spans::Scope;
use crate::stats::median;
use crate::workloads::{fine_body, oracle, NativeFine, NetBatch};

/// Batches per drill; the drill reports the median batch.
const BATCHES: usize = 7;
/// Buffers per batch for the queue and engine drills.
const N: usize = 1_500;

/// Time `batch` (fed by an untimed `prep`) [`BATCHES`] times and return the
/// median normalised nanoseconds per unit, `units` being what one batch does.
fn drill<I>(
    scope: Scope<'_>,
    name: &'static str,
    units: f64,
    mut prep: impl FnMut() -> I,
    mut batch: impl FnMut(I),
) -> f64 {
    let per_unit: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let input = prep();
            let ((), b) = bracket(|| (scope.span(name, |_| batch(input)), 0));
            b.wall_ns * b.factor() / units
        })
        .collect();
    median(&per_unit)
}

/// A transport that accepts every byte: prices the connection state machine
/// (queueing, coalescing, iovec assembly, pool traffic) without the kernel.
struct Sink;

impl RawIo for Sink {
    fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
        Err(io::ErrorKind::WouldBlock.into())
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        Ok(bufs.iter().map(|b| b.len()).sum())
    }

    fn shutdown_both(&mut self) {}
}

/// A chain of self-rescheduling events, for the bare event-heap cost.
struct Chain(u64);

impl World for Chain {
    type Event = ();
    fn handle(&mut self, _now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
        if self.0 > 0 {
            self.0 -= 1;
            sched.after(SimDuration::from_nanos(10), ());
        }
    }
}

fn cpu_gpu() -> [DeviceId; 2] {
    [DeviceKind::Cpu, DeviceKind::Gpu].map(|kind| DeviceId {
        node: 0,
        kind,
        index: 0,
    })
}

/// Run every drill and report its metric.
pub fn run_all(scope: Scope<'_>, seed: u64, m: &mut Metrics) {
    let fine = NativeFine::new(seed);
    kernels(scope, seed, m);
    scheduling(scope, seed, &fine, m);
    wire(scope, seed, m);
    simulation(scope, seed, m);
    observability(scope, &fine, m);
}

fn kernels(scope: Scope<'_>, seed: u64, m: &mut Metrics) {
    const SIDE: u32 = 128;
    const TILES: usize = 6;
    let px = (TILES as u32 * SIDE * SIDE) as f64;
    let tile_seed = Rng::fork(seed, 0x4B45).next_u64();
    let tiles: Vec<Vec<Rgb8>> = {
        let mut gen = TileGenerator::new(tile_seed);
        (0..TILES)
            .map(|i| gen.generate(TileClass::ALL[i % 3], SIDE))
            .collect()
    };
    m.put(
        "kernels.tile_gen_ns_px",
        drill(
            scope,
            "kernels.tile_gen",
            px,
            || TileGenerator::new(tile_seed),
            |mut gen| {
                for i in 0..TILES {
                    black_box(gen.generate(TileClass::ALL[i % 3], SIDE));
                }
            },
        ),
    );
    m.put(
        "kernels.pyramid_ns_px",
        drill(
            scope,
            "kernels.pyramid",
            px,
            || tiles.clone(),
            |tiles| {
                for full in tiles {
                    black_box(TilePyramid::build(full, SIDE, 32));
                }
            },
        ),
    );
    m.put(
        "kernels.color_ns_px",
        drill(
            scope,
            "kernels.color",
            px,
            || (),
            |()| {
                for t in &tiles {
                    black_box(convert_tile(t));
                }
            },
        ),
    );
    let quantised: Vec<Vec<u8>> = tiles
        .iter()
        .map(|t| quantize_l(&convert_tile(t), QUANT_LEVELS))
        .collect();
    let side = SIDE as usize;
    m.put(
        "kernels.glcm_ns_px",
        drill(
            scope,
            "kernels.glcm",
            px,
            || (),
            |()| {
                // The four offsets of the NBIA feature block.
                for q in &quantised {
                    for (dx, dy) in [(1, 0), (0, 1), (1, 1), (1, -1)] {
                        black_box(Glcm::compute(q, side, side, QUANT_LEVELS, dx, dy));
                    }
                }
            },
        ),
    );
    m.put(
        "kernels.lbp_ns_px",
        drill(
            scope,
            "kernels.lbp",
            px,
            || (),
            |()| {
                for q in &quantised {
                    black_box(lbp_histogram(q, side, side));
                }
            },
        ),
    );
    let classifier = TileClassifier::train(tile_seed ^ 0x7EAC, 6, 32);
    let features = tile_features(&tiles[0], SIDE);
    m.put(
        "kernels.classify_ns",
        drill(
            scope,
            "kernels.classify",
            2_000.0,
            || (),
            |()| {
                for _ in 0..2_000 {
                    black_box(classifier.classify(black_box(&features)));
                }
            },
        ),
    );
    m.put(
        "kernels.train_us",
        drill(
            scope,
            "kernels.train",
            2.0,
            || (),
            |()| {
                for i in 0..2 {
                    black_box(TileClassifier::train(tile_seed ^ i, 6, 32));
                }
            },
        ) / 1e3,
    );
}

fn scheduling(scope: Scope<'_>, seed: u64, fine: &NativeFine, m: &mut Metrics) {
    let weights = oracle();
    let buffers = mixed_buffers(&mut Rng::fork(seed, 0x5C4D), 0, N);
    let weighted: Vec<(DataBuffer, [f64; 2])> = buffers
        .iter()
        .map(|b| (b.clone(), weights.weights_pair(b)))
        .collect();
    let n = N as f64;
    let kinds = [DeviceKind::Cpu, DeviceKind::Gpu];

    m.put(
        "engine.seq_ns_per_task",
        drill(
            scope,
            "engine.sequential.run",
            n,
            || buffers.clone(),
            |sources| {
                let out = sequential::run(
                    SequentialConfig::new(Policy::ddwrr(30)),
                    &cpu_gpu(),
                    sources,
                    oracle(),
                    |_, _| Emission::default(),
                );
                assert_eq!(out.total, N as u64);
            },
        ),
    );

    // Push and pop are timed apart: each pop batch drains what an untimed
    // prep pushed.
    m.put(
        "select.push_ns",
        drill(
            scope,
            "select.push",
            n,
            || {
                (
                    ReadyLane::tuned(PolicyKind::DdWrr, &kinds),
                    weighted.clone(),
                )
            },
            |(mut lane, items)| {
                for (b, w) in items {
                    lane.push(b, w, None);
                }
                black_box(lane.len());
            },
        ),
    );
    m.put(
        "select.pop_ns",
        drill(
            scope,
            "select.pop",
            n,
            || {
                let mut lane = ReadyLane::tuned(PolicyKind::DdWrr, &kinds);
                for (b, w) in weighted.iter().cloned() {
                    lane.push(b, w, None);
                }
                lane
            },
            |mut lane| {
                let mut turn = 0;
                while let Some(x) = lane.pop(kinds[turn % 2]) {
                    black_box(&x);
                    turn += 1;
                }
                assert_eq!(turn, N);
            },
        ),
    );
    m.put(
        "queue.insert_ns",
        drill(
            scope,
            "queue.insert",
            n,
            || (SharedQueue::new(), weighted.clone()),
            |(mut q, items)| {
                for (b, w) in items {
                    q.insert(b, w, None);
                }
                black_box(q.len());
            },
        ),
    );
    m.put(
        "queue.pop_best_ns",
        drill(
            scope,
            "queue.pop_best",
            n,
            || {
                let mut q = SharedQueue::new();
                for (b, w) in weighted.iter().cloned() {
                    q.insert(b, w, None);
                }
                q
            },
            |mut q| {
                let mut turn = 0;
                while let Some(x) = q.pop_best(kinds[turn % 2]) {
                    black_box(&x);
                    turn += 1;
                }
                assert_eq!(turn, N);
            },
        ),
    );
    m.put(
        "weights.pair_ns",
        drill(
            scope,
            "weights.pair",
            n,
            || (),
            |()| {
                for b in &buffers {
                    black_box(weights.weights_pair(black_box(b)));
                }
            },
        ),
    );
    m.put(
        "dqaa.observe_ns",
        drill(
            scope,
            "dqaa.observe",
            n,
            || Dqaa::new(256),
            |mut dqaa| {
                for b in &buffers {
                    dqaa.observe_latency(SimDuration::from_micros(120));
                    black_box(dqaa.observe_processing(b.shape.cpu));
                }
            },
        ),
    );
    m.put(
        "dbsa.push_request_ns",
        drill(
            scope,
            "dbsa.push_request",
            n,
            || (SendQueue::<u32>::new(true), buffers.clone()),
            |(mut q, items)| {
                // Keep a standing backlog of 32 so selection has a choice.
                for (i, b) in items.into_iter().enumerate() {
                    black_box(q.push(b, &weights));
                    if i >= 32 {
                        black_box(q.request(kinds[i % 2], 0));
                    }
                }
            },
        ),
    );

    let estimator = {
        let mut profile = ProfileStore::new("nbia");
        let mut rng = Rng::fork(seed, 0xE571);
        for i in 1..=30u32 {
            let side = 16.0 * f64::from(i);
            let jitter = 0.95 + 0.1 * rng.next_f64();
            let px = side * side;
            profile.add_cpu_gpu(
                TaskParams::nums(&[side]),
                px * 1.0955e-6 * jitter,
                9e-4 + px * 2.135e-8,
            );
        }
        KnnEstimator::fit_default(profile)
    };
    // What the engine pays per buffer it weights through the memoised kNN
    // provider (the DES default): both weights, the way the engine asks.
    let memoised = EstimatorWeights::new(estimator.clone());
    m.put(
        "weights.estimator_ns",
        drill(
            scope,
            "weights.estimator",
            n,
            || (),
            |()| {
                for b in &buffers {
                    black_box(weights_for(&memoised, black_box(b)));
                }
            },
        ),
    );
    m.put(
        "estimator.knn_predict_ns",
        drill(
            scope,
            "estimator.knn_predict",
            n,
            || (),
            |()| {
                for b in &buffers {
                    black_box(estimator.predict_speedup(
                        DeviceClass::GPU,
                        DeviceClass::CPU,
                        &b.params,
                    ));
                }
            },
        ),
    );
    m.put(
        "estimator.online_observe_ns",
        drill(
            scope,
            "estimator.online_observe",
            n,
            OnlineProfile::default,
            |mut profile| {
                for b in &buffers {
                    let dev = if b.level == 0 {
                        DeviceClass::CPU
                    } else {
                        DeviceClass::GPU
                    };
                    black_box(profile.observe(dev, u64::from(b.level), b.shape.cpu.as_secs_f64()));
                }
            },
        ),
    );
    let shapes: Vec<TaskShape> = buffers.iter().map(|b| b.shape).collect();
    let gpu = GpuParams::geforce_8800gt();
    m.put(
        "transfer.adaptive_ns_per_task",
        drill(
            scope,
            "transfer.run_async_adaptive",
            n,
            || (),
            |()| {
                black_box(run_async_adaptive(&gpu, &shapes));
            },
        ),
    );
    m.put(
        "admission.offer_release_ns",
        drill(
            scope,
            "admission.offer_release",
            n,
            || {
                AdmissionController::<()>::new(
                    AdmissionConfig::default(),
                    Recorder::disabled(),
                    DeviceRef::node_scope(0),
                )
            },
            |mut ctl| {
                for (i, b) in buffers.iter().enumerate() {
                    let now = i as u64 * 200_000;
                    black_box(ctl.offer(now, b.id.0, b.level, ()));
                    ctl.release();
                    black_box(ctl.poll(now));
                }
            },
        ),
    );

    // The native runtime: the task body alone, and a one-task job (thread
    // spawn, hand-off and join with nothing to amortise them over).
    m.put(
        "local.body_ns",
        drill(
            scope,
            "local.body",
            2_000.0,
            || (),
            |()| {
                for i in 0..2_000u64 {
                    black_box(fine_body(black_box(i)));
                }
            },
        ),
    );
    m.put(
        "local.spawn_join_us",
        drill(
            scope,
            "local.spawn_join",
            20.0,
            || (0..20).map(|_| fine.sources(1)).collect::<Vec<_>>(),
            |jobs| {
                for sources in jobs {
                    black_box(fine.run(sources));
                }
            },
        ) / 1e3,
    );
}

fn wire(scope: Scope<'_>, seed: u64, m: &mut Metrics) {
    // What one task puts on the wire: its eighth of a Deliver frame
    // (`batch_limit = 8`) going out and its own Complete frame coming back.
    // Each is encoded once and decoded once, at opposite ends.
    const PER_FRAME: usize = 8;
    let buffers = mixed_buffers(&mut Rng::fork(seed, 0x317E), 0, N);
    let completes: Vec<Frame> = buffers
        .iter()
        .map(|b| Frame::Complete {
            buffer: b.clone(),
            proc_ns: b.shape.cpu.as_nanos(),
            span: WireSpan {
                start_ns: 1_000,
                end_ns: 2_000,
            },
            recirculated: Vec::new(),
        })
        .collect();
    let encode_all = |out: &mut Vec<u8>| {
        for chunk in buffers.chunks_exact(PER_FRAME) {
            encode_deliver_into(out, DeviceKind::Gpu, chunk);
        }
        let delivers = out.len();
        for frame in &completes {
            encode_frame_into(out, frame);
        }
        delivers
    };
    let n = N as f64;
    m.put(
        "frame.encode_ns",
        drill(
            scope,
            "frame.encode",
            n,
            || Vec::with_capacity(512 * 1024),
            |mut out| {
                black_box(encode_all(&mut out));
            },
        ),
    );
    let mut encoded = Vec::new();
    let deliver_bytes = encode_all(&mut encoded);
    m.put(
        "frame.deliver_bytes",
        deliver_bytes as f64 / (N / PER_FRAME) as f64,
    );
    m.put(
        "frame.decode_ns",
        drill(scope, "frame.decode", n, FrameDecoder::new, |mut dec| {
            // Fed in socket-sized chunks, as `Conn::drain_read` does.
            let mut decoded = 0;
            for chunk in encoded.chunks(16 * 1024) {
                dec.feed(chunk);
                while let Some(f) = dec.next_frame().expect("own encoding decodes") {
                    black_box(&f);
                    decoded += 1;
                }
            }
            assert_eq!(decoded, N / PER_FRAME + N);
        }),
    );
    let frames = (N / PER_FRAME) as f64;
    m.put(
        "conn.enqueue_flush_ns",
        drill(
            scope,
            "conn.enqueue_flush",
            frames,
            || {
                (
                    Conn::new(Sink, FrameDecoder::new(), None, 0),
                    BufPool::new(),
                )
            },
            |(mut conn, mut pool)| {
                for chunk in buffers.chunks_exact(PER_FRAME) {
                    conn.enqueue_with(&mut pool, |out| {
                        encode_deliver_into(out, DeviceKind::Gpu, chunk)
                    });
                    conn.try_flush(&mut pool);
                }
                assert_eq!(conn.stats.tx_frames, (N / PER_FRAME) as u64);
            },
        ),
    );
    let batch = NetBatch::new(seed);
    m.put(
        "net.handshake_us",
        drill(
            scope,
            "net.handshake",
            5.0,
            || (),
            |()| {
                for _ in 0..5 {
                    batch.handshake_only();
                }
            },
        ) / 1e3,
    );
}

fn simulation(scope: Scope<'_>, seed: u64, m: &mut Metrics) {
    const EVENTS: u64 = 20_000;
    m.put(
        "simkit.event_ns",
        drill(
            scope,
            "simkit.engine.run",
            EVENTS as f64,
            || {
                let mut eng = Engine::new(Chain(EVENTS - 1));
                eng.schedule(SimTime::ZERO, ());
                eng
            },
            |mut eng| {
                eng.run();
                assert_eq!(eng.steps(), EVENTS);
            },
        ),
    );
    // The NBIA topology with every completion forwarded: reader -> feature
    // -> classifier -> out, three tasks per seeded buffer.
    const SEEDS: usize = 500;
    let graph: DataflowGraph = anthill_apps::nbia::graph::topology();
    let devices = vec![
        vec![DeviceKind::Cpu],
        vec![DeviceKind::Cpu, DeviceKind::Gpu],
        vec![DeviceKind::Cpu],
    ];
    let seeds: Vec<(usize, DataBuffer)> = mixed_buffers(&mut Rng::fork(seed, 0x6247), 0, SEEDS)
        .into_iter()
        .map(|b| (0, b))
        .collect();
    let cfg = GraphSimConfig::new(Policy::odds());
    m.put(
        "sim.graph_wall_ns_per_task",
        drill(
            scope,
            "sim.run_graph_sim",
            3.0 * SEEDS as f64,
            || seeds.clone(),
            |seeds| {
                let report = run_graph_sim(
                    &cfg,
                    &graph,
                    &devices,
                    seeds,
                    Box::new(oracle()),
                    |_, _, b| {
                        let mut em = sequential::GraphEmission::default();
                        em.forward.push(b.clone());
                        em
                    },
                );
                assert_eq!(report.total, 3 * SEEDS as u64);
            },
        ),
    );
}

fn observability(scope: Scope<'_>, fine: &NativeFine, m: &mut Metrics) {
    const EVENTS: u64 = 10_000;
    m.put(
        "obs.record_ns",
        drill(
            scope,
            "obs.record",
            EVENTS as f64,
            Recorder::enabled,
            |rec| {
                for i in 0..EVENTS {
                    rec.record(
                        i,
                        DeviceRef::worker(0, DeviceKind::Cpu, 0),
                        EventKind::Enqueue {
                            buffer: i,
                            level: 0,
                        },
                    );
                }
                black_box(&rec);
            },
        ),
    );
    let rec = Recorder::enabled();
    let tasks = fine.run_recorded(&rec);
    m.put(
        "obs.events_per_task",
        rec.event_count() as f64 / tasks as f64,
    );
}
