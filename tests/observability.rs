//! Acceptance tests for the unified observability layer (`anthill::obs`):
//! trace/report agreement on both backends, conservation (every enqueued
//! tile finishes exactly once), byte-identical DES traces across same-seed
//! runs, and Fig. 12 window-trace reconstruction from events alone.

mod common;

use std::collections::HashMap;

use anthill_repro::apps::nbia::{run_local_deterministic, run_local_traced, NbiaLocalConfig};
use anthill_repro::bench::experiments::cluster::fig12_traced;
use anthill_repro::core::local::{ExecMode, WorkerSpec};
use anthill_repro::core::obs::{chrome, jsonl, DeviceRef, EventKind, Recorder, TraceEvent};
use anthill_repro::core::policy::{Policy, PolicyKind};
use anthill_repro::core::sim::{run_nbia, SimConfig, WorkloadSpec};
use anthill_repro::core::weights::OracleWeights;
use anthill_repro::estimator::fnv1a64;
use anthill_repro::hetsim::{ClusterSpec, CopyDir, DeviceKind, GpuParams};

fn oracle() -> OracleWeights {
    OracleWeights::new(GpuParams::geforce_8800gt(), true)
}

fn sim_setup(tiles: u64, rate: f64) -> (SimConfig, WorkloadSpec) {
    let workload = WorkloadSpec {
        tiles,
        ..WorkloadSpec::paper_base(rate)
    };
    let cfg = SimConfig::new(ClusterSpec::heterogeneous(1, 1), Policy::odds());
    (cfg, workload)
}

fn local_config(policy: PolicyKind) -> NbiaLocalConfig {
    NbiaLocalConfig {
        tiles: 36,
        low_side: 32,
        high_side: 64,
        confidence_threshold: 0.88,
        seed: 7,
        policy,
        workers: vec![
            WorkerSpec {
                kind: DeviceKind::Cpu,
                mode: ExecMode::Native,
            },
            WorkerSpec {
                kind: DeviceKind::Gpu,
                mode: ExecMode::Emulated { scale: 1e-4 },
            },
        ],
    }
}

/// Per-buffer lifecycle tallies extracted from a trace.
#[derive(Default, Debug, Clone, Copy)]
struct Lifecycle {
    enqueue: u64,
    dispatch: u64,
    start: u64,
    finish: u64,
}

fn lifecycles(events: &[TraceEvent]) -> HashMap<u64, Lifecycle> {
    let mut map: HashMap<u64, Lifecycle> = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::Enqueue { buffer, .. } => map.entry(buffer).or_default().enqueue += 1,
            EventKind::Dispatch { buffer, .. } => map.entry(buffer).or_default().dispatch += 1,
            EventKind::Start { buffer, .. } => map.entry(buffer).or_default().start += 1,
            EventKind::Finish { buffer, .. } => map.entry(buffer).or_default().finish += 1,
            _ => {}
        }
    }
    map
}

#[test]
fn sim_trace_conserves_every_tile_and_matches_report() {
    let (mut cfg, workload) = sim_setup(600, 0.12);
    let rec = Recorder::enabled();
    cfg.recorder = rec.clone();
    let report = run_nbia(&cfg, &workload);
    let events = rec.events();
    assert!(!events.is_empty());
    common::assert_jsonl_round_trip(&events);

    // Conservation: every buffer of the workload — low tiles 0..tiles and
    // high recalcs tiles+i — goes through each lifecycle phase exactly once.
    let cycles = lifecycles(&events);
    assert_eq!(cycles.len() as u64, workload.total_buffers());
    for tile in 0..workload.tiles {
        let c = cycles
            .get(&tile)
            .unwrap_or_else(|| panic!("low buffer {tile} missing from trace"));
        assert_eq!(
            (c.enqueue, c.dispatch, c.start, c.finish),
            (1, 1, 1, 1),
            "low buffer {tile}: {c:?}"
        );
        let high = cycles.get(&(workload.tiles + tile));
        if workload.is_recalc(tile) {
            let c = high.unwrap_or_else(|| panic!("high buffer of {tile} missing"));
            assert_eq!(
                (c.enqueue, c.dispatch, c.start, c.finish),
                (1, 1, 1, 1),
                "high buffer of {tile}: {c:?}"
            );
        } else {
            assert!(high.is_none(), "tile {tile} recalculated but not marked");
        }
    }

    // Trace finishes agree with the report's per-(device, level) accounting.
    let mut by_dev: HashMap<(DeviceKind, u8), u64> = HashMap::new();
    for e in &events {
        if let EventKind::Finish { level, .. } = e.kind {
            let kind = e.origin.kind.expect("finish events carry a device");
            *by_dev.entry((kind, level)).or_default() += 1;
        }
    }
    assert_eq!(by_dev, report.tasks_by);
    assert_eq!(by_dev.values().sum::<u64>(), workload.total_buffers());
}

#[test]
fn sim_trace_is_byte_identical_across_same_seed_runs() {
    let (cfg_a, workload) = sim_setup(500, 0.10);
    let mut cfg_a = cfg_a;
    let rec_a = Recorder::enabled();
    cfg_a.recorder = rec_a.clone();
    let mut cfg_b = cfg_a.clone();
    let rec_b = Recorder::enabled();
    cfg_b.recorder = rec_b.clone();

    run_nbia(&cfg_a, &workload);
    run_nbia(&cfg_b, &workload);

    let a = jsonl::to_jsonl(&rec_a.events());
    let b = jsonl::to_jsonl(&rec_b.events());
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must produce a byte-identical trace");
}

#[test]
fn dqaa_window_events_reconstruct_request_traces() {
    // Fig. 12's per-device request-window series must be recoverable from
    // the event trace alone, exactly equal to SimReport::request_traces.
    let (mut cfg, workload) = sim_setup(800, 0.12);
    cfg.trace_buckets = 20;
    let rec = Recorder::enabled();
    cfg.recorder = rec.clone();
    let report = run_nbia(&cfg, &workload);
    let events = rec.events();

    assert!(!report.request_traces.is_empty());
    for (dev, trace) in &report.request_traces {
        let origin = DeviceRef::device(*dev);
        let reconstructed: Vec<(u64, u32)> = events
            .iter()
            .filter(|e| e.origin == origin)
            .filter_map(|e| match e.kind {
                EventKind::DqaaWindow { target } => Some((e.ts_ns, target)),
                _ => None,
            })
            .collect();
        let expected: Vec<(u64, u32)> = trace
            .iter()
            .map(|&(t, target)| (t.as_nanos(), target as u32))
            .collect();
        assert_eq!(reconstructed, expected, "window trace of {dev:?} diverged");
    }
}

#[test]
fn local_trace_conserves_and_orders_task_lifecycles() {
    let cfg = local_config(PolicyKind::DdWrr);
    let rec = Recorder::enabled();
    let (results, report) = run_local_traced(&cfg, &oracle(), &rec);
    let events = rec.events();
    assert_eq!(results.len() as u64, cfg.tiles);

    // The drain sorts stably by timestamp, so trace order and timestamp
    // order agree globally.
    assert!(
        events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
        "local trace timestamps must be nondecreasing in trace order"
    );

    // Conservation: each buffer (source tile or recirculation) passes
    // through enqueue → dispatch → start → finish exactly once.
    let cycles = lifecycles(&events);
    assert_eq!(cycles.len() as u64, report.total());
    for (buffer, c) in &cycles {
        assert_eq!(
            (c.enqueue, c.dispatch, c.start, c.finish),
            (1, 1, 1, 1),
            "buffer {buffer}: {c:?}"
        );
    }
    // Every source tile appears; recirculated buffers use fresh ids.
    for tile in 0..cfg.tiles {
        assert!(cycles.contains_key(&tile), "source tile {tile} not traced");
    }

    // Per-phase ordering per buffer.
    let mut ts: HashMap<u64, [u64; 4]> = HashMap::new();
    for e in &events {
        let (slot, buffer) = match e.kind {
            EventKind::Enqueue { buffer, .. } => (0, buffer),
            EventKind::Dispatch { buffer, .. } => (1, buffer),
            EventKind::Start { buffer, .. } => (2, buffer),
            EventKind::Finish { buffer, .. } => (3, buffer),
            _ => continue,
        };
        ts.entry(buffer).or_default()[slot] = e.ts_ns;
    }
    for (buffer, t) in &ts {
        assert!(
            t[0] <= t[1] && t[1] <= t[2] && t[2] <= t[3],
            "buffer {buffer} lifecycle out of order: {t:?}"
        );
    }

    // Trace finish counts match the runtime report per device kind.
    let mut by_kind: HashMap<DeviceKind, u64> = HashMap::new();
    for e in &events {
        if let EventKind::Finish { .. } = e.kind {
            *by_kind
                .entry(e.origin.kind.expect("finish carries a device"))
                .or_default() += 1;
        }
    }
    for kind in [DeviceKind::Cpu, DeviceKind::Gpu] {
        let reported: u64 = report
            .handled
            .iter()
            .filter(|((_, k, _), _)| *k == kind)
            .map(|(_, n)| n)
            .sum();
        assert_eq!(
            by_kind.get(&kind).copied().unwrap_or(0),
            reported,
            "{kind:?}"
        );
    }
    assert_eq!(by_kind.values().sum::<u64>(), report.total());
}

#[test]
fn backends_agree_on_task_counts_and_device_shares() {
    // Run the same NBIA workload on both backends. The local run decides
    // how many tiles recirculate (classifier-driven); the simulator's
    // recalc rate is set to produce exactly that many high-res tasks, so
    // the per-level task counts must agree exactly. Device shares of the
    // high-res work agree within a generous tolerance (the backends model
    // different overheads — lockstep ticks vs DES transfers).
    let lcfg = local_config(PolicyKind::DdWrr);
    let rec_l = Recorder::enabled();
    let (_, lreport) = run_local_traced(&lcfg, &oracle(), &rec_l);
    let levents = rec_l.events();
    let count_level = |events: &[TraceEvent], level: u8| -> u64 {
        events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Finish { level: l, .. } if l == level))
            .count() as u64
    };
    let local_low = count_level(&levents, 0);
    let local_high = count_level(&levents, 1);
    assert_eq!(local_low, lcfg.tiles);
    assert_eq!(local_low + local_high, lreport.total());
    assert!(local_high > 0, "workload must recirculate some tiles");

    let workload = WorkloadSpec {
        tiles: lcfg.tiles,
        low_side: lcfg.low_side,
        high_side: lcfg.high_side,
        recalc_rate: (local_high as f64 + 0.5) / lcfg.tiles as f64,
        ..WorkloadSpec::paper_base(0.0)
    };
    assert_eq!(workload.recalc_count(), local_high);
    let mut scfg = SimConfig::new(ClusterSpec::homogeneous(1), Policy::ddwrr(16));
    scfg.use_estimator = false; // oracle weights, like the local run
    let rec_s = Recorder::enabled();
    scfg.recorder = rec_s.clone();
    run_nbia(&scfg, &workload);
    let sevents = rec_s.events();

    // Identical task counts per level, from the traces alone.
    assert_eq!(count_level(&sevents, 0), local_low);
    assert_eq!(count_level(&sevents, 1), local_high);

    // Per-device shares of the high-res (level 1) work within tolerance.
    // The local share comes from the lockstep run of the same pipeline: on
    // the wall-clock run it is a race the native CPU worker can win
    // outright (all 36 tiles done before the emulated-GPU thread is first
    // scheduled), so that run is held to the counts above only.
    let (_, dreport) = run_local_deterministic(&lcfg, &oracle());
    let high_on = |kind: DeviceKind| -> u64 {
        dreport
            .handled
            .iter()
            .filter(|((_, k, level), _)| *k == kind && *level == 1)
            .map(|(_, n)| n)
            .sum()
    };
    let (cpu_high, gpu_high) = (high_on(DeviceKind::Cpu), high_on(DeviceKind::Gpu));
    assert_eq!(cpu_high + gpu_high, local_high);
    let ls = gpu_high as f64 / local_high as f64;
    let sim_gpu_high = sevents
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Finish { level: 1, .. }))
        .filter(|e| e.origin.kind == Some(DeviceKind::Gpu))
        .count();
    let ss = sim_gpu_high as f64 / local_high as f64;
    assert!(
        (ls - ss).abs() <= 0.5,
        "GPU share of high-res work diverged: local {ls:.2} vs sim {ss:.2}"
    );
    // Directionally identical routing: DDWRR sends the bulk of high-res
    // work to the GPU in both backends (paper Table 6).
    assert!(
        ls > 0.45 && ss > 0.45,
        "GPU should take the bulk of high-res work: local {ls:.2}, sim {ss:.2}"
    );
}

/// One event of each of the 22 kinds, covering both copy directions, both
/// device tokens (as origin and as payload), a node-scoped origin, a
/// `Start`/`Finish` pair and an orphan `Finish`.
fn one_of_each_kind() -> Vec<TraceEvent> {
    let cpu = DeviceRef::worker(0, DeviceKind::Cpu, 1);
    let gpu = DeviceRef::worker(1, DeviceKind::Gpu, 0);
    let node = DeviceRef::node_scope(2);
    let ev = |ts_ns, origin, kind| TraceEvent {
        ts_ns,
        origin,
        kind,
    };
    let (buffer, level) = (7, 1);
    vec![
        ev(0, node, EventKind::Enqueue { buffer, level }),
        ev(1_000, cpu, EventKind::Dispatch { buffer, level }),
        ev(1_500, cpu, EventKind::Start { buffer, level }),
        ev(
            6_250,
            cpu,
            EventKind::Finish {
                buffer,
                level,
                proc_ns: 4_750,
            },
        ),
        ev(
            7_000,
            gpu,
            EventKind::Finish {
                buffer: 8,
                level: 0,
                proc_ns: 1_234,
            },
        ),
        ev(
            7_100,
            gpu,
            EventKind::Transfer {
                dir: CopyDir::H2D,
                bytes: 3_136,
                end_ns: 7_945,
            },
        ),
        ev(
            8_000,
            gpu,
            EventKind::Transfer {
                dir: CopyDir::D2H,
                bytes: 256,
                end_ns: 9_250,
            },
        ),
        ev(9_300, gpu, EventKind::Streams { count: 4 }),
        ev(9_400, cpu, EventKind::DqaaWindow { target: 3 }),
        ev(
            9_500,
            node,
            EventKind::DbsaSelect {
                buffer: 9,
                proctype: DeviceKind::Gpu,
            },
        ),
        ev(
            9_600,
            gpu,
            EventKind::TaskRetried {
                buffer,
                level,
                attempt: 2,
            },
        ),
        ev(9_700, gpu, EventKind::WorkerDied { inflight: 2 }),
        ev(9_800, node, EventKind::TaskReassigned { buffer, level }),
        ev(9_900, cpu, EventKind::WorkerJoined { window: 1 }),
        ev(10_000, cpu, EventKind::WorkerDraining { outstanding: 2 }),
        ev(10_100, cpu, EventKind::WorkerLeft),
        ev(
            10_200,
            gpu,
            EventKind::RemoteStart {
                buffer: 10,
                level: 0,
            },
        ),
        ev(
            10_300,
            gpu,
            EventKind::RemoteFinish {
                buffer: 10,
                level: 0,
                proc_ns: 99,
            },
        ),
        ev(
            10_400,
            node,
            EventKind::EdgeEnqueued {
                edge: 1,
                buffer: 14,
                level: 0,
            },
        ),
        ev(
            10_500,
            node,
            EventKind::TaskAdmitted {
                buffer: 11,
                level: 0,
            },
        ),
        ev(
            10_600,
            node,
            EventKind::TaskShed {
                buffer: 12,
                level: 0,
            },
        ),
        ev(
            10_700,
            node,
            EventKind::TaskDeadlineDropped {
                buffer: 13,
                level: 0,
                waited_ns: 5_000_000,
            },
        ),
        ev(
            10_800,
            gpu,
            EventKind::ProfileUpdated {
                buffer: 15,
                key: 0xfeed_beef,
                count: 4,
                mean_ns: 812_000,
            },
        ),
        ev(
            10_900,
            node,
            EventKind::PolicyDecision {
                buffer: 16,
                arm: DeviceKind::Cpu,
                explore: 1,
                cpu_ppm: 250_000,
                gpu_ppm: 16_000_000,
            },
        ),
    ]
}

/// The JSONL wire format, byte for byte: fixed key order, lowercase device
/// and direction tokens, `null` for a node-scoped origin.
#[test]
fn jsonl_encoding_of_every_kind_is_pinned() {
    let lines = [
        r#"{"ts":0,"node":2,"dev":null,"kind":"enqueue","buffer":7,"level":1}"#,
        r#"{"ts":1000,"node":0,"dev":"cpu1","kind":"dispatch","buffer":7,"level":1}"#,
        r#"{"ts":1500,"node":0,"dev":"cpu1","kind":"start","buffer":7,"level":1}"#,
        r#"{"ts":6250,"node":0,"dev":"cpu1","kind":"finish","buffer":7,"level":1,"proc_ns":4750}"#,
        r#"{"ts":7000,"node":1,"dev":"gpu0","kind":"finish","buffer":8,"level":0,"proc_ns":1234}"#,
        r#"{"ts":7100,"node":1,"dev":"gpu0","kind":"transfer","dir":"h2d","bytes":3136,"end_ns":7945}"#,
        r#"{"ts":8000,"node":1,"dev":"gpu0","kind":"transfer","dir":"d2h","bytes":256,"end_ns":9250}"#,
        r#"{"ts":9300,"node":1,"dev":"gpu0","kind":"streams","count":4}"#,
        r#"{"ts":9400,"node":0,"dev":"cpu1","kind":"dqaa_window","target":3}"#,
        r#"{"ts":9500,"node":2,"dev":null,"kind":"dbsa_select","buffer":9,"proctype":"gpu"}"#,
        r#"{"ts":9600,"node":1,"dev":"gpu0","kind":"task_retried","buffer":7,"level":1,"attempt":2}"#,
        r#"{"ts":9700,"node":1,"dev":"gpu0","kind":"worker_died","inflight":2}"#,
        r#"{"ts":9800,"node":2,"dev":null,"kind":"task_reassigned","buffer":7,"level":1}"#,
        r#"{"ts":9900,"node":0,"dev":"cpu1","kind":"worker_joined","window":1}"#,
        r#"{"ts":10000,"node":0,"dev":"cpu1","kind":"worker_draining","outstanding":2}"#,
        r#"{"ts":10100,"node":0,"dev":"cpu1","kind":"worker_left"}"#,
        r#"{"ts":10200,"node":1,"dev":"gpu0","kind":"remote_start","buffer":10,"level":0}"#,
        r#"{"ts":10300,"node":1,"dev":"gpu0","kind":"remote_finish","buffer":10,"level":0,"proc_ns":99}"#,
        r#"{"ts":10400,"node":2,"dev":null,"kind":"edge_enqueued","edge":1,"buffer":14,"level":0}"#,
        r#"{"ts":10500,"node":2,"dev":null,"kind":"task_admitted","buffer":11,"level":0}"#,
        r#"{"ts":10600,"node":2,"dev":null,"kind":"task_shed","buffer":12,"level":0}"#,
        r#"{"ts":10700,"node":2,"dev":null,"kind":"task_deadline_dropped","buffer":13,"level":0,"waited_ns":5000000}"#,
        r#"{"ts":10800,"node":1,"dev":"gpu0","kind":"profile_updated","buffer":15,"key":4276993775,"count":4,"mean_ns":812000}"#,
        r#"{"ts":10900,"node":2,"dev":null,"kind":"policy_decision","buffer":16,"arm":"cpu","explore":1,"cpu_ppm":250000,"gpu_ppm":16000000}"#,
    ];
    let golden: String = lines.iter().map(|l| format!("{l}\n")).collect();
    assert_eq!(jsonl::to_jsonl(&one_of_each_kind()), golden);
}

/// The Chrome `trace_event` document, byte for byte: metadata records
/// first, then one record per event in trace order (a `Start` only opens
/// a slice; an orphan `Finish` falls back to its `proc_ns`).
#[test]
fn chrome_encoding_of_every_kind_is_pinned() {
    let records = [
        r#"{"name":"process_name","ph":"M","ts":0.000,"pid":0,"tid":0,"args":{"name":"node0"}}"#,
        r#"{"name":"process_name","ph":"M","ts":0.000,"pid":1,"tid":0,"args":{"name":"node1"}}"#,
        r#"{"name":"process_name","ph":"M","ts":0.000,"pid":2,"tid":0,"args":{"name":"node2"}}"#,
        r#"{"name":"thread_name","ph":"M","ts":0.000,"pid":0,"tid":2,"args":{"name":"CPU1"}}"#,
        r#"{"name":"thread_name","ph":"M","ts":0.000,"pid":1,"tid":101,"args":{"name":"GPU0"}}"#,
        r#"{"name":"thread_name","ph":"M","ts":0.000,"pid":2,"tid":0,"args":{"name":"queue"}}"#,
        r#"{"name":"enqueue","ph":"i","ts":0.000,"pid":2,"tid":0,"s":"t","args":{"buffer":7}}"#,
        r#"{"name":"dispatch","ph":"i","ts":1.000,"pid":0,"tid":2,"s":"t","args":{"buffer":7}}"#,
        r#"{"name":"task L1","ph":"X","ts":1.500,"pid":0,"tid":2,"dur":4.750,"cat":"task","args":{"buffer":7,"proc_ns":4750}}"#,
        r#"{"name":"task L0","ph":"X","ts":5.766,"pid":1,"tid":101,"dur":1.234,"cat":"task","args":{"buffer":8,"proc_ns":1234}}"#,
        r#"{"name":"H2D","ph":"X","ts":7.100,"pid":1,"tid":101,"dur":0.845,"cat":"transfer","args":{"bytes":3136}}"#,
        r#"{"name":"D2H","ph":"X","ts":8.000,"pid":1,"tid":101,"dur":1.250,"cat":"transfer","args":{"bytes":256}}"#,
        r#"{"name":"streams n1/GPU0","ph":"C","ts":9.300,"pid":1,"tid":101,"args":{"count":4}}"#,
        r#"{"name":"window n0/CPU1","ph":"C","ts":9.400,"pid":0,"tid":2,"args":{"target":3}}"#,
        r#"{"name":"dbsa","ph":"i","ts":9.500,"pid":2,"tid":0,"s":"t","args":{"buffer":9,"proctype":"GPU"}}"#,
        r#"{"name":"retry","ph":"i","ts":9.600,"pid":1,"tid":101,"s":"t","args":{"buffer":7,"attempt":2}}"#,
        r#"{"name":"worker died","ph":"i","ts":9.700,"pid":1,"tid":101,"s":"p","args":{"inflight":2}}"#,
        r#"{"name":"reassign","ph":"i","ts":9.800,"pid":2,"tid":0,"s":"t","args":{"buffer":7}}"#,
        r#"{"name":"worker joined","ph":"i","ts":9.900,"pid":0,"tid":2,"s":"p","args":{"window":1}}"#,
        r#"{"name":"worker draining","ph":"i","ts":10.000,"pid":0,"tid":2,"s":"p","args":{"outstanding":2}}"#,
        r#"{"name":"worker left","ph":"i","ts":10.100,"pid":0,"tid":2,"s":"p","args":{}}"#,
        r#"{"name":"remote start","ph":"i","ts":10.200,"pid":1,"tid":101,"s":"t","args":{"buffer":10}}"#,
        r#"{"name":"remote finish","ph":"i","ts":10.300,"pid":1,"tid":101,"s":"t","args":{"buffer":10,"proc_ns":99}}"#,
        r#"{"name":"edge enqueue","ph":"i","ts":10.400,"pid":2,"tid":0,"s":"t","args":{"edge":1,"buffer":14}}"#,
        r#"{"name":"admit","ph":"i","ts":10.500,"pid":2,"tid":0,"s":"t","args":{"buffer":11}}"#,
        r#"{"name":"shed","ph":"i","ts":10.600,"pid":2,"tid":0,"s":"t","args":{"buffer":12}}"#,
        r#"{"name":"deadline drop","ph":"i","ts":10.700,"pid":2,"tid":0,"s":"t","args":{"buffer":13,"waited_ns":5000000}}"#,
        r#"{"name":"profile update","ph":"i","ts":10.800,"pid":1,"tid":101,"s":"t","args":{"buffer":15,"key":4276993775,"count":4,"mean_ns":812000}}"#,
        r#"{"name":"policy decision","ph":"i","ts":10.900,"pid":2,"tid":0,"s":"t","args":{"buffer":16,"arm":"CPU","explore":1,"cpu_ppm":250000,"gpu_ppm":16000000}}"#,
    ];
    let golden = format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}\n",
        records.join(",")
    );
    assert_eq!(chrome::to_chrome_trace(&one_of_each_kind()), golden);
}

/// The events of `repro fig12 --trace` at a pinned size.
fn fig12_events() -> Vec<TraceEvent> {
    let rec = Recorder::enabled();
    fig12_traced(4_000, 20, rec.clone());
    let events = rec.events();
    assert_eq!(events.len(), 27_091);
    events
}

/// The JSONL dump of a traced Fig. 12 run, as an FNV-1a-64 literal taken
/// on the hand-written encoder the event table replaced.
#[test]
fn fig12_jsonl_dump_is_pinned() {
    let text = jsonl::to_jsonl(&fig12_events());
    assert_eq!(fnv1a64(text.as_bytes()), 0x39ac_e182_1529_f985);
}

/// The Chrome export of the same run, pinned the same way.
#[test]
fn fig12_chrome_dump_is_pinned() {
    let text = chrome::to_chrome_trace(&fig12_events());
    assert_eq!(fnv1a64(text.as_bytes()), 0x03a5_6d13_54f8_a219);
}
