//! Acceptance tests for the unified observability layer (`anthill::obs`):
//! trace/report agreement on both backends, conservation (every enqueued
//! tile finishes exactly once), byte-identical DES traces across same-seed
//! runs, and Fig. 12 window-trace reconstruction from events alone.

mod common;

use std::collections::HashMap;

use anthill_repro::apps::nbia::{run_local_traced, NbiaLocalConfig};
use anthill_repro::core::local::{ExecMode, WorkerSpec};
use anthill_repro::core::obs::{jsonl, DeviceRef, EventKind, Recorder, TraceEvent};
use anthill_repro::core::policy::{Policy, PolicyKind};
use anthill_repro::core::sim::{run_nbia, SimConfig, WorkloadSpec};
use anthill_repro::core::weights::OracleWeights;
use anthill_repro::hetsim::{ClusterSpec, DeviceKind, GpuParams};

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

    // Metrics registry agrees too.
    let metrics = rec.metrics();
    assert_eq!(
        metrics.counter_total("tasks_finished"),
        workload.total_buffers()
    );
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

    // Wall-clock timestamps are taken under the trace lock, so trace order
    // and timestamp order agree globally.
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
    assert_eq!(
        rec.metrics().counter_total("tasks_finished"),
        report.total()
    );
}

#[test]
fn backends_agree_on_task_counts_and_device_shares() {
    // Run the same NBIA workload on both backends. The local run decides
    // how many tiles recirculate (classifier-driven); the simulator's
    // recalc rate is set to produce exactly that many high-res tasks, so
    // the per-level task counts must agree exactly. Device shares of the
    // high-res work agree within a generous tolerance (the backends model
    // different overheads — threads + emulated spins vs DES transfers).
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
    let gpu_share = |events: &[TraceEvent]| -> f64 {
        let total = count_level(events, 1) as f64;
        let gpu = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Finish { level: 1, .. }))
            .filter(|e| e.origin.kind == Some(DeviceKind::Gpu))
            .count() as f64;
        gpu / total
    };
    let (ls, ss) = (gpu_share(&levents), gpu_share(&sevents));
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
