//! Property-based tests over the core data structures and protocol state
//! machines (DESIGN.md §6 lists the invariants).

use anthill_repro::core::buffer::{BufferId, DataBuffer};
use anthill_repro::core::dqaa::Dqaa;
use anthill_repro::core::obs::{jsonl, EventKind, Recorder};
use anthill_repro::core::policy::Policy;
use anthill_repro::core::queue::SharedQueue;
use anthill_repro::core::sim::{run_nbia, SimConfig, WorkloadSpec};
use anthill_repro::core::transfer::AdaptiveStreams;
use anthill_repro::estimator::{KnnEstimator, Normalizer, ProfileStore, TaskParams};
use anthill_repro::hetsim::{ClusterSpec, DeviceKind, TaskShape};
use anthill_repro::simkit::{DurationHistogram, Engine, Scheduler, SimDuration, SimTime, World};
use proptest::prelude::*;

fn buffer(id: u64) -> DataBuffer {
    DataBuffer {
        id: BufferId(id),
        params: TaskParams::nums(&[id as f64]),
        shape: TaskShape {
            cpu: SimDuration::from_micros(10),
            gpu_kernel: SimDuration::from_micros(10),
            bytes_in: 100,
            bytes_out: 10,
        },
        level: 0,
        task: id,
    }
}

/// One queued buffer of the naive model in
/// `shared_queue_matches_a_scan_for_max_model`.
struct Queued {
    /// Also the arrival order: ids are handed out in insertion order.
    id: u64,
    tag: Option<u64>,
    band: u8,
    w: [f64; 2],
}

/// The model's `pop_best`: scan for the maximum of (weight with NaN as −∞
/// and −0.0 equal to 0.0, older first).
fn model_best(model: &[Queued], k: usize) -> Option<usize> {
    let weight = |e: &Queued| {
        if e.w[k].is_nan() {
            f64::NEG_INFINITY
        } else {
            e.w[k]
        }
    };
    (0..model.len()).max_by(|&a, &b| {
        let (a, b) = (&model[a], &model[b]);
        weight(a)
            .partial_cmp(&weight(b))
            .expect("sanitized weights compare")
            .then(b.id.cmp(&a.id))
    })
}

proptest! {
    /// The engine delivers events in nondecreasing time order, FIFO within
    /// a timestamp, and drains completely.
    #[test]
    fn engine_orders_arbitrary_schedules(times in prop::collection::vec(0u64..1_000, 1..200)) {
        struct Collect {
            seen: Vec<u64>,
        }
        impl World for Collect {
            type Event = u64;
            fn handle(&mut self, now: SimTime, ev: u64, _s: &mut Scheduler<u64>) {
                assert_eq!(now.as_nanos(), ev, "event delivered at its scheduled time");
                self.seen.push(ev);
            }
        }
        let mut eng = Engine::new(Collect { seen: vec![] });
        for &t in &times {
            eng.schedule(SimTime(t), t);
        }
        eng.run();
        let seen = &eng.world().seen;
        prop_assert_eq!(seen.len(), times.len());
        prop_assert!(seen.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Popping best-per-device from the shared queue yields weights in
    /// nonincreasing order and consumes each buffer exactly once across
    /// any interleaving of consumers.
    #[test]
    fn shared_queue_conserves_and_orders(
        weights in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..100),
        picks in prop::collection::vec(prop::bool::ANY, 0..120),
    ) {
        let mut q = SharedQueue::new();
        for (i, &(wc, wg)) in weights.iter().enumerate() {
            q.insert(buffer(i as u64), [wc, wg], None);
        }
        let mut seen = std::collections::HashSet::new();
        let mut count = 0usize;
        for &gpu in &picks {
            let kind = if gpu { DeviceKind::Gpu } else { DeviceKind::Cpu };
            if let Some((b, _)) = q.pop_best(kind) {
                prop_assert!(seen.insert(b.id), "duplicate {:?}", b.id);
                count += 1;
            }
        }
        while let Some((b, _)) = q.pop_fifo() {
            prop_assert!(seen.insert(b.id));
            count += 1;
        }
        prop_assert_eq!(count, weights.len());
    }

    /// Step-by-step differential test of the queue against a scan-for-max
    /// `Vec` model: same popped id and tag, same `best_weight` bits, same
    /// `len`, same full FIFO order, over random interleavings of banded
    /// inserts, both pops and `remove`. Weights are drawn from 1 to 1 000
    /// values (few recurring classes up to every buffer its own) that
    /// include NaN, −∞, −0.0 and 0.0.
    #[test]
    fn shared_queue_matches_a_scan_for_max_model(seed in 0u64..u64::MAX, palette in 0usize..5) {
        let mut rng = TestRng::new(seed);
        let specials = [f64::NAN, f64::NEG_INFINITY, -0.0, 0.0];
        let pool: Vec<f64> = (0..[1, 2, 5, 40, 1_000][palette])
            .map(|i| match rng.below(3) {
                0 => specials[(i + seed as usize) % 4],
                _ => (i as f64 - 20.0) / 8.0,
            })
            .collect();
        let mut q = SharedQueue::new();
        let mut model: Vec<Queued> = Vec::new();
        for step in 0..400u64 {
            // Filling and draining phases alternate, so classes drain, sit
            // idle and come back.
            let inserts = if (step / 50) % 2 == 0 { 7 } else { 2 };
            let op = rng.below(10);
            if op < inserts {
                let e = Queued {
                    id: step,
                    tag: (rng.below(2) == 0).then(|| rng.below(5)),
                    band: rng.below(3) as u8,
                    w: [(); 2].map(|()| pool[rng.below(pool.len() as u64) as usize]),
                };
                q.insert_banded(buffer(e.id), e.w, e.tag, e.band);
                model.push(e);
            } else {
                let (got, at) = if op < 8 {
                    let k = (op % 2) as usize;
                    (q.pop_best(DeviceKind::ALL[k]), model_best(&model, k))
                } else if op == 8 {
                    let oldest = (0..model.len()).min_by_key(|&i| (model[i].band, model[i].id));
                    (q.pop_fifo(), oldest)
                } else {
                    // Mostly a queued id, sometimes one that never was.
                    let at = (!model.is_empty() && rng.below(4) > 0)
                        .then(|| rng.below(model.len() as u64) as usize);
                    (q.remove(BufferId(at.map_or(u64::MAX, |i| model[i].id))), at)
                };
                let want = at.map(|i| model.remove(i));
                prop_assert_eq!(
                    got.map(|(b, tag)| (b.id.0, tag)),
                    want.map(|e| (e.id, e.tag)),
                    "step {}", step
                );
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
            for (k, &kind) in DeviceKind::ALL.iter().enumerate() {
                prop_assert_eq!(
                    q.best_weight(kind).map(f64::to_bits),
                    model_best(&model, k).map(|i| model[i].w[k].to_bits()),
                    "step {}", step
                );
            }
            let mut fifo: Vec<&Queued> = model.iter().collect();
            fifo.sort_by_key(|e| (e.band, e.id));
            prop_assert!(
                q.iter_fifo().map(|b| b.id.0).eq(fifo.iter().map(|e| e.id)),
                "step {}", step
            );
        }
    }

    /// A dedicated GPU consumer drains buffers in nonincreasing GPU-weight
    /// order.
    #[test]
    fn pop_best_is_monotone(weights in prop::collection::vec(0.0f64..100.0, 1..100)) {
        let mut q = SharedQueue::new();
        for (i, &w) in weights.iter().enumerate() {
            q.insert(buffer(i as u64), [1.0, w], None);
        }
        let mut last = f64::INFINITY;
        while let Some((b, _)) = q.pop_best(DeviceKind::Gpu) {
            let w = weights[b.id.0 as usize];
            prop_assert!(w <= last + 1e-12, "{w} after {last}");
            last = w;
        }
    }

    /// DQAA's target window stays within [1, max] for arbitrary
    /// measurement sequences, and converges to the latency/processing
    /// ratio under stationary inputs.
    #[test]
    fn dqaa_bounded_and_convergent(
        obs in prop::collection::vec((0u64..10_000, 1u64..10_000), 1..200),
        max_target in 1usize..64,
        ratio in 1u64..20,
    ) {
        let mut d = Dqaa::new(max_target);
        for &(lat, proc_) in &obs {
            d.observe_latency(SimDuration::from_micros(lat));
            d.observe_processing(SimDuration::from_micros(proc_));
            prop_assert!(d.target() >= 1 && d.target() <= max_target);
        }
        // Stationary phase: latency = ratio × processing.
        for _ in 0..200 {
            d.observe_latency(SimDuration::from_micros(ratio * 100));
            d.observe_processing(SimDuration::from_micros(100));
        }
        let expect = (ratio as usize).min(max_target).max(1);
        prop_assert_eq!(d.target(), expect);
    }

    /// Algorithm 1's stream count stays within [1, max_events] under any
    /// throughput feedback.
    #[test]
    fn adaptive_streams_bounded(
        feedback in prop::collection::vec(0.0f64..1e6, 1..200),
        max_events in 1usize..512,
    ) {
        let mut ctl = AdaptiveStreams::new(max_events);
        for &t in &feedback {
            ctl.observe_throughput(t);
            prop_assert!(ctl.concurrent_events() >= 1);
            prop_assert!(ctl.concurrent_events() <= max_events);
        }
    }

    /// The estimator distance is a pseudometric on sampled parameter
    /// vectors: nonnegative, symmetric, zero on self, triangle inequality.
    #[test]
    fn estimator_distance_is_pseudometric(
        rows in prop::collection::vec(prop::collection::vec(-1e3f64..1e3, 3), 3..20),
    ) {
        let mut store = ProfileStore::new("p");
        for r in &rows {
            store.add_cpu_gpu(TaskParams::nums(r), 1.0, 1.0);
        }
        let norm = Normalizer::fit(&store);
        let p: Vec<TaskParams> = rows.iter().map(|r| TaskParams::nums(r)).collect();
        for a in &p {
            prop_assert!(norm.distance(a, a).abs() < 1e-9);
            for b in &p {
                let dab = norm.distance(a, b);
                prop_assert!(dab >= 0.0);
                prop_assert!((dab - norm.distance(b, a)).abs() < 1e-9);
                for c in &p {
                    let dac = norm.distance(a, c);
                    let dcb = norm.distance(c, b);
                    prop_assert!(dab <= dac + dcb + 1e-9);
                }
            }
        }
    }

    /// kNN with k=1 queried exactly on a training point returns that
    /// point's measured time (when parameters are unique).
    #[test]
    fn knn_k1_is_exact_on_training_points(
        raw in prop::collection::vec(-1e4f64..1e4, 2..30),
    ) {
        // Deduplicate: identical parameters would make k=1 ambiguous.
        let mut xs = raw;
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-6);
        let mut store = ProfileStore::new("p");
        for (i, &x) in xs.iter().enumerate() {
            store.add_cpu_gpu(TaskParams::nums(&[x]), (i + 1) as f64, 1.0);
        }
        let est = KnnEstimator::fit(store, 1);
        for (i, &x) in xs.iter().enumerate() {
            // Skip points that collide after normalization.
            let t = est
                .predict_time(anthill_repro::estimator::DeviceClass::CPU, &TaskParams::nums(&[x]))
                .unwrap();
            if xs.iter().filter(|&&y| (y - x).abs() < 1e-9).count() == 1 {
                prop_assert!((t - (i + 1) as f64).abs() < 1e-9, "x={x} t={t}");
            }
        }
    }

    /// FIFO servers never start a job before its submission, never overlap
    /// jobs, and accumulate exactly the submitted service time.
    #[test]
    fn fifo_server_is_a_proper_single_server(
        jobs in prop::collection::vec((0u64..10_000, 1u64..1_000), 1..100),
    ) {
        use anthill_repro::simkit::FifoServer;
        let mut server = FifoServer::new();
        let mut last_finish = SimTime::ZERO;
        let mut total = 0u64;
        for &(at, service) in &jobs {
            let (start, finish) = server.submit(SimTime(at), SimDuration(service));
            prop_assert!(start >= SimTime(at), "started before submission");
            prop_assert!(start >= last_finish, "overlapping service");
            prop_assert_eq!(finish, start + SimDuration(service));
            last_finish = finish;
            total += service;
        }
        prop_assert_eq!(server.busy_time(), SimDuration(total));
        prop_assert_eq!(server.jobs(), jobs.len() as u64);
    }

    /// Network deliveries to one destination preserve per-sender order,
    /// and bulk messages are never delivered before their serialization
    /// could possibly complete.
    #[test]
    fn network_respects_order_and_bandwidth(
        sizes in prop::collection::vec(2_000u64..1_000_000, 1..50),
    ) {
        use anthill_repro::hetsim::{NetParams, Network};
        let params = NetParams::gigabit_ethernet();
        let bw = params.bandwidth_bps;
        let mut net = Network::new(2, params);
        let mut last = SimTime::ZERO;
        let mut clock = SimTime::ZERO;
        for &bytes in &sizes {
            let arrival = net.send(clock, 0, 1, bytes);
            prop_assert!(arrival >= last, "reordered delivery");
            let min_wire = SimDuration::from_secs_f64(bytes as f64 / bw);
            prop_assert!(arrival >= clock + min_wire, "faster than the wire");
            last = arrival;
            clock += SimDuration::from_micros(1);
        }
    }

    /// Pyramid downsampling preserves total brightness within rounding.
    #[test]
    fn downsample_conserves_brightness(seed in 0u64..1_000, class_idx in 0usize..3) {
        use anthill_repro::kernels::pyramid::downsample;
        use anthill_repro::kernels::tiles::{TileClass, TileGenerator};
        let class = TileClass::ALL[class_idx];
        let side = 32u32;
        let px = TileGenerator::new(seed).generate(class, side);
        let sum = |p: &[anthill_repro::kernels::color::Rgb8]| {
            p.iter().map(|q| u64::from(q.r) + u64::from(q.g) + u64::from(q.b)).sum::<u64>() as f64
                / p.len() as f64
        };
        let before = sum(&px);
        let after = sum(&downsample(&px, side));
        // Integer floor division loses at most 0.75 per channel per pixel.
        prop_assert!((before - after).abs() <= 2.5, "{before} vs {after}");
    }

    /// Workload recalculation marking is exact and evenly spread for any
    /// rate and tile count.
    #[test]
    fn workload_recalc_exact(tiles in 1u64..5_000, rate in 0.0f64..1.0) {
        let w = WorkloadSpec {
            tiles,
            recalc_rate: rate,
            ..WorkloadSpec::paper_base(rate)
        };
        let marked = (0..tiles).filter(|&t| w.is_recalc(t)).count() as u64;
        prop_assert_eq!(marked, w.recalc_count());
        prop_assert_eq!(w.total_buffers(), tiles + marked);
    }
}

/// A histogram over the given nanosecond samples.
fn hist_of(samples: &[u64]) -> DurationHistogram {
    let mut h = DurationHistogram::new();
    for &ns in samples {
        h.record(SimDuration(ns));
    }
    h
}

/// A small traced simulator run (observability invariants).
fn traced_run(tiles: u64, seed: u64) -> Recorder {
    let workload = WorkloadSpec {
        tiles,
        ..WorkloadSpec::paper_base(0.15)
    };
    let mut cfg = SimConfig::new(ClusterSpec::heterogeneous(1, 1), Policy::odds());
    cfg.seed = seed;
    cfg.use_estimator = false;
    let rec = Recorder::enabled();
    cfg.recorder = rec.clone();
    run_nbia(&cfg, &workload);
    rec
}

proptest! {
    /// Histogram merge is associative and conserves counts, bucket mass,
    /// and the maximum — the invariant that lets per-device histograms be
    /// merged in any order when aggregating metrics.
    #[test]
    fn histogram_merge_is_associative_and_count_preserving(
        a in prop::collection::vec(1u64..1_000_000_000, 0..60),
        b in prop::collection::vec(1u64..1_000_000_000, 0..60),
        c in prop::collection::vec(1u64..1_000_000_000, 0..60),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        // left = (a ⊕ b) ⊕ c, right = a ⊕ (b ⊕ c)
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left.bucket_counts(), right.bucket_counts());
        prop_assert_eq!(left.count(), right.count());
        prop_assert_eq!(left.max(), right.max());
        // Count- and mass-preserving.
        prop_assert_eq!(left.count(), (a.len() + b.len() + c.len()) as u64);
        let mass: u64 = left.bucket_counts().iter().sum();
        prop_assert_eq!(mass, left.count());
        // The sum (and hence the mean) is preserved up to f64 rounding.
        if left.count() > 0 {
            let exact: u64 = a.iter().chain(&b).chain(&c).sum();
            let mean = exact as f64 / left.count() as f64;
            let got = left.mean().0 as f64;
            prop_assert!((got - mean).abs() <= mean * 1e-9 + 1.0, "{got} vs {mean}");
        }
    }

    /// Virtual time never runs backwards in a DES trace: every event is
    /// recorded at the simulation clock, so trace order is timestamp
    /// order — except transfer events, which are stamped with the copy
    /// engine's (possibly future) occupancy start and instead guarantee
    /// `end_ns >= ts_ns`.
    #[test]
    fn sim_trace_time_is_monotone(tiles in 16u64..48, seed in 0u64..1_000) {
        let events = traced_run(tiles, seed).events();
        prop_assert!(!events.is_empty());
        let mut clock = 0u64;
        for e in &events {
            match e.kind {
                EventKind::Transfer { end_ns, .. } => {
                    prop_assert!(end_ns >= e.ts_ns, "transfer ends before it starts");
                }
                _ => {
                    prop_assert!(e.ts_ns >= clock, "time ran backwards: {e:?}");
                    clock = e.ts_ns;
                }
            }
        }
    }

    /// The DES trace is a pure function of (config, seed): two runs with
    /// the same seed serialize to byte-identical JSONL for any seed.
    #[test]
    fn sim_trace_is_deterministic_for_any_seed(tiles in 16u64..40, seed in 0u64..10_000) {
        let a = jsonl::to_jsonl(&traced_run(tiles, seed).events());
        let b = jsonl::to_jsonl(&traced_run(tiles, seed).events());
        prop_assert!(!a.is_empty());
        prop_assert_eq!(a, b);
    }
}

/// Regression pinned from a pre-shim proptest run of
/// `adaptive_streams_bounded`: the lone saved case of the (now deleted)
/// `properties.proptest-regressions` file, promoted to a named test
/// because the deterministic proptest shim never replays regression
/// files. A controller capped at one concurrent event, fed this
/// mixed-magnitude throughput series, must stay clamped to exactly one.
#[test]
fn adaptive_streams_stays_clamped_at_one_event_regression() {
    const FEEDBACK: [f64; 83] = [
        907512.3460583116,
        0.0,
        17072.854527066116,
        27430.489131093338,
        210542.64878182267,
        217615.7583953367,
        281794.7791893057,
        582886.6587053242,
        0.0,
        38476.81364175506,
        246806.62986905623,
        509371.4745141161,
        518045.2698112977,
        0.0,
        33900.564230637676,
        380654.22852458316,
        787843.9884773375,
        0.0,
        376838.0456125827,
        793767.9720265969,
        0.0,
        211991.11679705896,
        592652.772836175,
        0.0,
        114636.7277485009,
        192908.76196598023,
        489428.50665549113,
        0.0,
        236630.52809769055,
        975029.2436498895,
        0.0,
        849188.5491472551,
        0.0,
        92310.95980327492,
        220252.59921680056,
        319153.81989810424,
        582466.7864797111,
        622399.6772572882,
        0.0,
        13296.411339045722,
        455307.1524676907,
        539284.0843752112,
        566183.9077792215,
        0.0,
        353512.5667571986,
        523067.40359648253,
        560793.8581846821,
        0.0,
        318547.28967836854,
        686679.3636392159,
        0.0,
        153735.8739320905,
        452035.0820178216,
        509188.04754325096,
        826210.3777857916,
        0.0,
        52221.696883190285,
        119821.4669208114,
        557616.858603701,
        0.0,
        245084.77054304938,
        417770.75113198376,
        0.0,
        102305.41652601858,
        126427.06792418615,
        128295.3044797881,
        169716.01762514617,
        248552.4897488358,
        924258.3994222303,
        0.0,
        296511.03612671205,
        539580.4391470896,
        0.0,
        447422.1509355782,
        490986.196758328,
        0.0,
        166171.87081887847,
        236257.25673592498,
        665312.71558602,
        0.0,
        465375.3943238023,
        513261.8365782425,
        835993.5214826562,
    ];
    let mut ctl = AdaptiveStreams::new(1);
    for &t in FEEDBACK.iter() {
        ctl.observe_throughput(t);
        assert_eq!(ctl.concurrent_events(), 1);
    }
}
