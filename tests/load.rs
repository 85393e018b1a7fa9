//! Load-harness suite (DESIGN.md §11): arrival-schedule determinism,
//! histogram error bounds under adversarial distributions, and admission
//! conservation with exactly-once shed accounting on both threaded
//! backends.
//!
//! Four families of checks:
//!
//! 1. **Determinism** — identical `(profile, seed, n)` triples render
//!    byte-identical arrival schedules, and the virtual-time admission
//!    replay ([`run_des_load`]) reproduces the same decision log twice
//!    for every overload policy, and that log is pinned per policy.
//! 2. **Histogram error bounds** — the bucketed p50/p99/p999 sit within
//!    one bucket width of the exact order statistics computed from the
//!    raw sample vector, for adversarial seeded distributions (bimodal
//!    mixtures and Pareto heavy tails), not just well-behaved ones.
//! 3. **Native conservation** — for each overload policy, the open-loop
//!    `Pipeline::run_load` keeps `admitted + shed + deadline_dropped ==
//!    generated`, completes exactly the admitted tasks once each, and
//!    emits exactly one `task_shed` / `task_deadline_dropped` trace event
//!    per lost task (unique buffer ids).
//! 4. **Net conservation** — the same per-policy accounting through the
//!    TCP coordinator (`run_concurrent_load`) with a deliberately slow
//!    loopback worker, including the bounded-intake guarantee, and again
//!    with short request timeouts and a severed slot; and the frame count
//!    of `net_stream`'s shape, which pays for no request a buffer cannot
//!    fill. Both backends also keep sampling the queue depth while a
//!    `Block` intake holds the schedule back.

mod common;

use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use common::{count_events, emulated_cpu_workers, load_buffer, loopback_workers, oracle, Forward};

use anthill_repro::bench::load::{run_des_load, ArrivalProfile, LatencyHistogram};
use anthill_repro::core::engine::{AdmissionConfig, AdmissionDecision, OverloadPolicy};
use anthill_repro::core::faults::{ConnectionDropSpec, RecoveryConfig};
use anthill_repro::core::local::{LoadConfig, LocalTask, Pipeline};
use anthill_repro::core::net::{run_concurrent_load, Behavior, NetConfig};
use anthill_repro::core::obs::{EventKind, Recorder};
use anthill_repro::core::policy::{Policy, PolicyKind};
use anthill_repro::estimator::fnv1a64;
use anthill_repro::hetsim::DeviceKind;
use anthill_repro::simkit::{SimDuration, SimRng};

fn profiles() -> [ArrivalProfile; 3] {
    [
        ArrivalProfile::Poisson { rate_hz: 40_000.0 },
        ArrivalProfile::Bursty {
            rate_hz: 80_000.0,
            burst_ms: 3,
            idle_ms: 4,
        },
        ArrivalProfile::Diurnal {
            peak_hz: 60_000.0,
            trough_hz: 6_000.0,
            period_ms: 25,
        },
    ]
}

fn overload_policies() -> [OverloadPolicy; 3] {
    [
        OverloadPolicy::Block,
        OverloadPolicy::ShedOldest,
        OverloadPolicy::DeadlineDrop {
            deadline: SimDuration::from_millis(1),
        },
    ]
}

// ---------------------------------------------------------- determinism

/// Identical seed + profile yields *byte*-identical schedules; a
/// different seed diverges; distinct profiles diverge under one seed.
#[test]
fn identical_seed_and_profile_yield_byte_identical_schedules() {
    let bytes = |s: &[u64]| -> Vec<u8> { s.iter().flat_map(|v| v.to_le_bytes()).collect() };
    let mut firsts = Vec::new();
    for profile in profiles() {
        let a = profile.schedule(42, 20_000);
        let b = profile.schedule(42, 20_000);
        assert_eq!(
            bytes(&a),
            bytes(&b),
            "{}: same seed must be byte-identical",
            profile.name()
        );
        assert_ne!(
            a,
            profile.schedule(43, 20_000),
            "{}: a different seed must diverge",
            profile.name()
        );
        firsts.push(a);
    }
    assert_ne!(firsts[0], firsts[1], "profiles must not alias one another");
    assert_ne!(firsts[1], firsts[2], "profiles must not alias one another");
}

/// The virtual-time replay is a pure function: two runs over the same
/// schedule produce identical decision logs and counters for every
/// overload policy, and the counters always conserve.
#[test]
fn des_replay_reproduces_admission_decisions_twice() {
    let arrivals = ArrivalProfile::Poisson { rate_hz: 200_000.0 }.schedule(7, 8_000);
    for policy in overload_policies() {
        let cfg = AdmissionConfig {
            inflight_cap: 8,
            queue_cap: 16,
            policy,
        };
        let a = run_des_load(&arrivals, 50_000, cfg);
        let b = run_des_load(&arrivals, 50_000, cfg);
        assert_eq!(a, b, "{}: replay must be deterministic", policy.name());
        assert!(
            a.counters.conserved(),
            "{}: {:?}",
            policy.name(),
            a.counters
        );
        assert_eq!(a.counters.generated, 8_000, "{}", policy.name());
        assert_eq!(a.completed, a.counters.admitted, "{}", policy.name());
    }
}

/// The replay's decisions, pinned per policy on the suite's schedule: the
/// counters and an FNV-1a-64 hash over each decision's buffer id (u64 LE)
/// followed by one byte, 0 admitted, 1 shed, 2 dropped. A change to how an
/// arrival schedule meets the admission controller moves one of them.
#[test]
fn des_replay_decisions_are_pinned() {
    let arrivals = ArrivalProfile::Poisson { rate_hz: 200_000.0 }.schedule(7, 8_000);
    let pins = [
        (OverloadPolicy::Block, 8_000, 0, 0, 0x8b3e_b902_99eb_26a5),
        (
            OverloadPolicy::ShedOldest,
            6_519,
            1_481,
            0,
            0x6ca6_f342_5077_d13c,
        ),
        (
            OverloadPolicy::DeadlineDrop {
                deadline: SimDuration::from_millis(1),
            },
            6_663,
            0,
            1_337,
            0x8ae4_4b72_9068_666f,
        ),
    ];
    for (policy, admitted, shed, dropped, hash) in pins {
        let cfg = AdmissionConfig {
            inflight_cap: 8,
            queue_cap: 16,
            policy,
        };
        let out = run_des_load(&arrivals, 50_000, cfg);
        let c = out.counters;
        let label = policy.name();
        assert_eq!(
            (c.generated, c.admitted, c.shed, c.deadline_dropped),
            (8_000, admitted, shed, dropped),
            "{label}"
        );
        assert_eq!(out.completed, admitted, "{label}");
        let mut bytes = Vec::with_capacity(out.decisions.len() * 9);
        for &(id, decision) in &out.decisions {
            bytes.extend_from_slice(&id.to_le_bytes());
            bytes.push(match decision {
                AdmissionDecision::Admitted => 0,
                AdmissionDecision::Shed => 1,
                AdmissionDecision::DeadlineDropped => 2,
            });
        }
        assert_eq!(fnv1a64(&bytes), hash, "{label}: decision log hash");
    }
}

// ------------------------------------------------ histogram error bounds

/// Shared check: every reported quantile must sit at or above the exact
/// order statistic, by no more than one bucket width.
fn check_quantiles(h: &LatencyHistogram, exact: &mut [u64]) {
    exact.sort_unstable();
    for q in [0.5, 0.99, 0.999] {
        let rank = ((exact.len() - 1) as f64 * q).ceil() as usize;
        let truth = exact[rank];
        let approx = h.quantile(q);
        assert!(approx >= truth, "q{q}: approx {approx} < exact {truth}");
        assert!(
            approx - truth <= LatencyHistogram::bucket_width(truth),
            "q{q}: approx {approx} exceeds exact {truth} by more than one bucket"
        );
    }
}

proptest! {
    /// Bimodal mixtures with the modes up to four decades apart: the mass
    /// concentration at two distant magnitudes is the adversarial case
    /// for log-bucketed sketches, and the bound must still hold.
    #[test]
    fn histogram_bounds_error_on_bimodal_mixtures(
        seed in 0u64..1 << 32,
        low_mean in 1_000f64..50_000.0,
        separation in 100f64..10_000.0,
        low_frac in 0.05f64..0.95,
    ) {
        let mut rng = SimRng::new(seed);
        let high_mean = low_mean * separation;
        let mut h = LatencyHistogram::new();
        let mut exact = Vec::with_capacity(4_000);
        for _ in 0..4_000 {
            let mean = if rng.chance(low_frac) { low_mean } else { high_mean };
            let v = rng.exponential(mean) as u64;
            h.record(v);
            exact.push(v);
        }
        check_quantiles(&h, &mut exact);
    }

    /// Pareto heavy tails (shape under 2.5 keeps the tail genuinely
    /// heavy; under 1 even the mean diverges): extreme outliers land in
    /// the widest octave buckets, where the one-bucket bound is loosest.
    #[test]
    fn histogram_bounds_error_on_pareto_tails(
        seed in 0u64..1 << 32,
        alpha in 0.8f64..2.5,
        scale in 100f64..100_000.0,
    ) {
        let mut rng = SimRng::new(seed);
        let mut h = LatencyHistogram::new();
        let mut exact = Vec::with_capacity(4_000);
        for _ in 0..4_000 {
            let u = rng.uniform().max(1e-12);
            let v = (scale * u.powf(-1.0 / alpha)).min(1e18) as u64;
            h.record(v);
            exact.push(v);
        }
        check_quantiles(&h, &mut exact);
    }
}

// ----------------------------------------------------- conservation: native

/// Shared checks on a run's recorded admission events: counts must match
/// the counters exactly, and each shed/dropped buffer id must appear
/// exactly once (no double-lost tasks).
fn check_admission_events(
    label: &str,
    recorder: &Recorder,
    counters: anthill_repro::core::engine::AdmissionCounters,
) {
    let events = recorder.events();
    let admitted = count_events(&events, |k| matches!(k, EventKind::TaskAdmitted { .. }));
    assert_eq!(admitted, counters.admitted, "{label}: task_admitted events");
    let mut shed_ids: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TaskShed { buffer, .. } => Some(buffer),
            _ => None,
        })
        .collect();
    assert_eq!(
        shed_ids.len() as u64,
        counters.shed,
        "{label}: exactly one task_shed event per shed task"
    );
    shed_ids.sort_unstable();
    shed_ids.dedup();
    assert_eq!(
        shed_ids.len() as u64,
        counters.shed,
        "{label}: shed buffer ids must be unique"
    );
    let mut dropped_ids: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TaskDeadlineDropped { buffer, .. } => Some(buffer),
            _ => None,
        })
        .collect();
    assert_eq!(
        dropped_ids.len() as u64,
        counters.deadline_dropped,
        "{label}: exactly one task_deadline_dropped event per drop"
    );
    dropped_ids.sort_unstable();
    dropped_ids.dedup();
    assert_eq!(
        dropped_ids.len() as u64,
        counters.deadline_dropped,
        "{label}: dropped buffer ids must be unique"
    );
}

/// Native backend, every overload policy: a 2x-saturating schedule (two
/// emulated 200 µs workers against 20k arrivals/s) must conserve
/// `admitted + shed + deadline_dropped == generated`, complete exactly
/// the admitted tasks once each, and trace every loss exactly once.
#[test]
fn native_load_conserves_and_traces_every_policy() {
    let arrivals = ArrivalProfile::Poisson { rate_hz: 20_000.0 }.schedule(11, 1_200);
    for policy in overload_policies() {
        let label = policy.name();
        let recorder = Recorder::enabled();
        let mut p = Pipeline::new(PolicyKind::DdFcfs);
        p.add_stage(Arc::new(Forward), emulated_cpu_workers(2));
        let completed_ids: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let report = p.run_load(
            &arrivals,
            &|i, _| LocalTask::new(load_buffer(i, 200), ()),
            LoadConfig {
                admission: AdmissionConfig {
                    inflight_cap: 8,
                    queue_cap: 16,
                    policy,
                },
                sample_every: Duration::from_millis(1),
            },
            &oracle(),
            &recorder,
            &|t, _, _| completed_ids.lock().unwrap().push(t.buffer.task),
        );
        assert!(
            report.admission.conserved(),
            "{label}: {:?}",
            report.admission
        );
        assert_eq!(report.admission.generated, 1_200, "{label}");
        match policy {
            OverloadPolicy::Block => {
                assert_eq!(report.admission.admitted, 1_200, "{label}");
                assert_eq!(report.admission.shed, 0, "{label}");
                assert_eq!(report.admission.deadline_dropped, 0, "{label}");
            }
            OverloadPolicy::ShedOldest => {
                assert!(report.admission.shed > 0, "{label}: {:?}", report.admission);
                assert!(
                    report.queue_depth.iter().all(|s| s.intake <= 16),
                    "{label}: intake must stay under queue_cap"
                );
            }
            OverloadPolicy::DeadlineDrop { .. } => {
                assert!(
                    report.admission.deadline_dropped > 0,
                    "{label}: {:?}",
                    report.admission
                );
            }
        }
        assert_eq!(report.completed, report.admission.admitted, "{label}");
        let mut ids = completed_ids.into_inner().unwrap();
        assert_eq!(ids.len() as u64, report.completed, "{label}");
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len() as u64,
            report.completed,
            "{label}: each admitted task completes exactly once"
        );
        check_admission_events(label, &recorder, report.admission);
    }
}

/// A panic outside a filter's `handle` ends the native run with that
/// panic: one in `on_complete` (on a worker) and one in `make_task` (on
/// the injector). Each case runs on a helper thread under a watchdog, so
/// a run that leaves its other threads asleep fails here instead of
/// hanging the suite.
#[test]
fn a_panicking_callback_or_task_factory_ends_the_native_run() {
    let arrivals = ArrivalProfile::Poisson { rate_hz: 20_000.0 }.schedule(11, 200);
    for (label, in_factory) in [("on_complete", false), ("make_task", true)] {
        let arrivals = arrivals.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut p = Pipeline::new(PolicyKind::DdFcfs);
            p.add_stage(Arc::new(Forward), emulated_cpu_workers(2));
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p.run_load(
                    &arrivals,
                    &|i, _| {
                        if in_factory && i == 50 {
                            panic!("make_task panics on arrival 50");
                        }
                        LocalTask::new(load_buffer(i, 20), ())
                    },
                    LoadConfig {
                        admission: AdmissionConfig {
                            inflight_cap: 8,
                            queue_cap: 16,
                            policy: OverloadPolicy::Block,
                        },
                        sample_every: Duration::from_millis(1),
                    },
                    &oracle(),
                    &Recorder::disabled(),
                    &|t, _, _| {
                        if !in_factory && t.buffer.task == 50 {
                            panic!("on_complete panics on task 50");
                        }
                    },
                )
            }));
            let _ = tx.send(run.is_err());
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(panicked) => assert!(panicked, "{label}: the panic must reach the caller"),
            Err(_) => panic!("{label}: the run hung after the panic"),
        }
    }
}

// ------------------------------------------------------------ sampling

/// Both backends keep sampling the queue depth on the cadence while a
/// `Block` intake holds the schedule back: three arrivals at t = 0 against
/// one slot and a one-deep queue leave the third blocked for the whole
/// first task, 50 ms natively and 20 ms per task over TCP, so a 1 ms
/// cadence owes dozens of samples. A count, not a gap: the shared host
/// stalls a thread for a few milliseconds now and then.
#[test]
fn both_backends_sample_queue_depth_through_a_blocked_injector() {
    let arrivals = [0, 0, 0];
    let admission = AdmissionConfig {
        inflight_cap: 1,
        queue_cap: 1,
        policy: OverloadPolicy::Block,
    };
    let cadence = Duration::from_millis(1);

    let mut p = Pipeline::new(PolicyKind::DdFcfs);
    p.add_stage(Arc::new(Forward), emulated_cpu_workers(1));
    let native = p.run_load(
        &arrivals,
        &|i, _| LocalTask::new(load_buffer(i, if i == 0 { 50_000 } else { 10 }), ()),
        LoadConfig {
            admission,
            sample_every: cadence,
        },
        &oracle(),
        &Recorder::disabled(),
        &|_, _, _| {},
    );
    assert_eq!(native.completed, 3);
    let samples = native.queue_depth.len();
    assert!(
        samples >= 10,
        "native: {samples} samples over a 50 ms stall"
    );

    let workers = loopback_workers(&[DeviceKind::Cpu], Behavior::Busy { micros: 20_000 });
    let net = run_concurrent_load(
        NetConfig::new(Policy::ddfcfs(4)),
        admission,
        workers,
        &arrivals,
        &mut |i, _| load_buffer(i, 10),
        cadence,
        oracle(),
        &mut |_| {},
    )
    .expect("net load run");
    assert_eq!(net.completed, 3);
    let samples = net.queue_depth.len();
    assert!(samples >= 10, "TCP: {samples} samples over a 60 ms run");
    assert!(net.queue_depth.iter().all(|s| s.per_stage == [s.ready]));
}

// -------------------------------------------------------- conservation: net

/// Net backend, every overload policy: one deliberately slow loopback
/// worker (300 µs busy-wait per task) against 10k arrivals/s. The same
/// conservation, exactly-once, and bounded-intake guarantees must hold
/// through the TCP coordinator path.
#[test]
fn net_load_conserves_and_traces_every_policy() {
    for policy in overload_policies() {
        let label = policy.name();
        let workers = loopback_workers(&[DeviceKind::Cpu], Behavior::Busy { micros: 300 });
        let recorder = Recorder::enabled();
        let mut cfg = NetConfig::new(Policy::ddfcfs(4));
        cfg.recorder = recorder.clone();
        let arrivals = ArrivalProfile::Poisson { rate_hz: 10_000.0 }.schedule(13, 600);
        let mut ids: Vec<u64> = Vec::new();
        let report = run_concurrent_load(
            cfg,
            AdmissionConfig {
                inflight_cap: 4,
                queue_cap: 8,
                policy,
            },
            workers,
            &arrivals,
            &mut |i, _| load_buffer(i, 50),
            Duration::from_millis(1),
            oracle(),
            &mut |t| ids.push(t.buffer),
        )
        .expect("net load run");
        assert!(
            report.admission.conserved(),
            "{label}: {:?}",
            report.admission
        );
        assert_eq!(report.admission.generated, 600, "{label}");
        match policy {
            OverloadPolicy::Block => {
                assert_eq!(report.admission.admitted, 600, "{label}");
                assert_eq!(report.completed, 600, "{label}");
            }
            OverloadPolicy::ShedOldest => {
                assert!(report.admission.shed > 0, "{label}: {:?}", report.admission);
                assert!(
                    report.queue_depth.iter().all(|s| s.intake <= 8),
                    "{label}: intake must stay under queue_cap"
                );
            }
            OverloadPolicy::DeadlineDrop { .. } => {
                assert!(
                    report.admission.deadline_dropped > 0,
                    "{label}: {:?}",
                    report.admission
                );
            }
        }
        assert_eq!(report.completed, report.admission.admitted, "{label}");
        assert_eq!(ids.len() as u64, report.completed, "{label}");
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len() as u64,
            report.completed,
            "{label}: each admitted task completes exactly once"
        );
        check_admission_events(label, &recorder, report.admission);
    }
}

/// Net backend, request recovery armed with a 2 ms timeout: arrivals 1 ms
/// apart on average leave the workers' requests waiting at an empty reader
/// long enough to time out and retry, and slot 1 is severed after its
/// 60th frame with requests still out. Admission conserves and every
/// arrival completes exactly once on the surviving slot.
#[test]
fn open_loop_tcp_with_short_request_timeouts_conserves() {
    const TASKS: u64 = 400;
    let workers = loopback_workers(&[DeviceKind::Cpu, DeviceKind::Gpu], Behavior::Identity);
    let mut cfg = NetConfig {
        batch_limit: 8,
        ..NetConfig::new(Policy::ddwrr(30))
    };
    cfg.recovery = RecoveryConfig {
        request_timeout: SimDuration::from_millis(2),
        max_retries: 2,
        ..RecoveryConfig::standard()
    };
    cfg.drops = vec![ConnectionDropSpec {
        node: 0,
        worker: 1,
        after_frames: 60,
    }];
    let arrivals = ArrivalProfile::Poisson { rate_hz: 1_000.0 }.schedule(29, TASKS as usize);
    let mut ids: Vec<u64> = Vec::new();
    let report = run_concurrent_load(
        cfg,
        AdmissionConfig {
            inflight_cap: 16,
            queue_cap: 64,
            policy: OverloadPolicy::Block,
        },
        workers,
        &arrivals,
        &mut |i, _| load_buffer(i, 5),
        Duration::from_millis(1),
        oracle(),
        &mut |t| ids.push(t.buffer),
    )
    .expect("net load run survives the sever");
    assert!(report.admission.conserved(), "{:?}", report.admission);
    assert_eq!(report.completed, TASKS);
    ids.sort_unstable();
    assert_eq!(ids, (0..TASKS).collect::<Vec<_>>(), "each arrival once");
    assert_eq!(report.outcome.deaths, 1, "the sever");
}

/// Net backend, `net_stream`'s shape: 500 Poisson arrivals at 5 kHz
/// against two idle loopback workers with 30-request windows. A request
/// echo that finds the reader empty waits there for the next arrival
/// instead of coming back empty, so a task costs about one `Request`, its
/// `Deliver`, and their answers. Answering each echo at once cost some 40
/// frames out and 41 in per task. A count, not a timing.
#[test]
fn open_loop_tcp_sends_no_request_the_reader_cannot_fill() {
    const TASKS: u64 = 500;
    let workers = loopback_workers(&[DeviceKind::Cpu, DeviceKind::Gpu], Behavior::Identity);
    let cfg = NetConfig {
        batch_limit: 8,
        ..NetConfig::new(Policy::ddwrr(30))
    };
    let arrivals = ArrivalProfile::Poisson { rate_hz: 5_000.0 }.schedule(1, TASKS as usize);
    let report = run_concurrent_load(
        cfg,
        AdmissionConfig {
            inflight_cap: 64,
            queue_cap: 1024,
            policy: OverloadPolicy::Block,
        },
        workers,
        &arrivals,
        &mut |i, _| load_buffer(i, 5),
        Duration::from_millis(10),
        oracle(),
        &mut |_| {},
    )
    .expect("net load run");
    assert_eq!(report.completed, TASKS);
    let wire = &report.outcome.wire;
    let per_task = |frames: u64| frames as f64 / report.completed as f64;
    let (tx, rx) = (per_task(wire.tx_frames), per_task(wire.rx_frames));
    assert!(tx <= 2.5, "{tx:.2} frames sent per task");
    assert!(rx <= 3.5, "{rx:.2} frames received per task");
}
