//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! Usage:
//! ```text
//! repro <experiment> [--quick] [--trace <path>]
//! repro all [--quick]
//! ```
//! where `<experiment>` is one of the paper artifacts — `table1`, `fig6`,
//! `fig7`, `table2`, `table3`, `fig8`, `table4`, `fig9`, `fig10`,
//! `table6`, `fig11`, `fig12`, `fig13`, `fig14` — or one of the
//! extensions/ablations: `sweep-k`, `sweep-models`, `mixed-gpus`,
//! `concurrent-kernels`, `fusion`, `slow-node`.
//!
//! `--quick` shrinks workloads (~10×) for fast sanity runs; without it the
//! paper's exact workload sizes are used. Run with `--release`.
//!
//! `--trace <path>` (honored by `fig12`; the CI gates below take a
//! directory instead) dumps the run's structured event
//! trace: a `.jsonl` path gets the line-oriented dump, anything else the
//! Chrome `trace_event` JSON loadable in Perfetto / `chrome://tracing`,
//! e.g. `repro fig12 --quick --trace trace.json`.
//!
//! `repro smoke [--trace <dir>]` is the CI gate: one small experiment per
//! scheduling policy with tracing enabled, failing (exit 1) if any trace
//! does not round-trip through the JSONL schema or loses task events, and
//! writing a `BENCH_engine.json` timing summary to the working directory.
//! With `--trace <dir>`, per-policy traces land in `<dir>` too.
//!
//! `repro chaos [--faults <spec>] [--trace <dir>]` is the fault-tolerance
//! CI gate: the same per-policy sweep but through a fault schedule —
//! message drops plus a scheduled mid-run death of node 0's GPU worker —
//! failing (exit 1) unless every policy still completes the whole
//! workload, the trace round-trips, and the death shows up as a
//! `worker_died` event. `<spec>` is a comma list of `key=value` knobs:
//! `seed=42,drop=0.2,fail=0.0,death-ms=100` (those are the defaults;
//! `death-ms=0` disables the death). Writes `BENCH_chaos.json`.
//!
//! `repro net [--trace <dir>]` is the networked-backend CI gate: per
//! policy, an NBIA-shaped workload runs through the TCP coordinator with
//! two *spawned worker processes* (this same binary re-entered via the
//! hidden `worker` subcommand) on loopback, and the per-device assignment
//! must be bit-identical to the sequential reference driver. The merged
//! coordinator+worker trace must round-trip the JSONL schema (including
//! the `remote_start`/`remote_finish` span events). Writes
//! `BENCH_net_parity.json`; with `--trace <dir>`, per-policy traces land
//! there too.
//!
//! `repro netbench [--quick] [--trace <dir>]` is the coordinator
//! fan-in scale gate (DESIGN.md §15): one event-loop coordinator runs a
//! 1000-worker in-process loopback fan-in. Fails (exit 1) unless every
//! task completes exactly once, no worker dies, and the write path
//! allocates at most one buffer per hundred frames. Writes and schema-validates
//! `BENCH_net.json`; with `--trace <dir>`, the run's trace lands there
//! too.
//!
//! `repro load [--quick] [--profile <p>] [--trace <dir>]` is the
//! open-loop load gate: each arrival profile (`poisson`, `bursty`,
//! `diurnal`; `--profile` selects one, default all) drives both the
//! native pipeline and the TCP coordinator with a seed-deterministic
//! schedule (100k tasks for the full Poisson run; `--quick` shrinks it),
//! recording per-task queue/service/end-to-end latency into bucketed
//! histograms and a queue-depth time series. The Poisson selection also
//! runs saturating schedules under the `shed_oldest` and `deadline_drop`
//! overload policies and asserts the intake stays bounded while the
//! admission counters conserve. Writes and schema-validates
//! `BENCH_load.json` (`BENCH_load_<profile>.json` when filtered); with
//! `--trace <dir>`, per-run traces land there and their
//! `task_admitted`/`task_shed`/`task_deadline_dropped` events must match
//! the counters.
//!
//! `repro elastic [--quick] [--trace <dir>]` is the elastic-membership
//! CI gate (DESIGN.md §14): a rolling restart retires every initial
//! worker of a live TCP run through a graceful drain while replacements
//! join mid-run over the `Join`/`JoinAck` handshake (zero loss, zero
//! deaths, the `worker_joined`/`worker_draining`/`worker_left` trio in
//! the trace), and a saturating open-loop schedule drives the DQAA
//! congestion-signal autoscaler against a worker pool. Writes and
//! schema-validates `BENCH_elastic.json`; with `--trace <dir>`, the
//! rolling-restart trace lands there too.
//!
//! `repro graph [--quick] [--trace <dir>]` is the multi-filter dataflow
//! CI gate: the NBIA three-filter pipeline (reader → feature extraction →
//! classification with a feedback stream) runs on the native threaded
//! runtime and on the TCP lockstep coordinator, and both must classify
//! byte-identically to the fused single-filter deployment; the
//! Black-Scholes fan-out/fan-in diamond runs natively against the direct
//! batch and over spawned worker *processes* against the sequential
//! reference driver's assignment, dispatch order and per-edge delivery
//! counts, for every policy. Every merged trace must round-trip the
//! JSONL schema. Writes and schema-validates `BENCH_graph.json`; with
//! `--trace <dir>`, per-run traces land there too.
//!
//! `repro policies [--quick] [--trace <dir>]` is the learned-policy CI
//! gate: DDWRR, AFFINITY and BANDIT run head-to-head on the paper's two
//! base cases plus a stale-profile scenario whose phase-one estimator
//! benchmark is noisy enough to invert the tile-resolution device
//! ordering. Fails (exit 1) unless every learned run stays within 5% of
//! DDWRR on the well-calibrated scenarios, at least one learned policy
//! beats DDWRR outright on a heterogeneous scenario (the stale profile
//! among them), the learned traces actually contain
//! `policy_decision`/`profile_updated` events while the classic runs
//! stay inert, and every trace round-trips the JSONL schema. Writes and
//! schema-validates `BENCH_policies.json`; with `--trace <dir>`, per-run
//! traces land there too.
//!
//! `repro worker <addr> [identity|recirc:N|busy:N]` (hidden) turns the
//! process into a net-backend worker connected to `<addr>` — the form the
//! net gate and the chaos tests spawn.

use anthill::buffer::{BufferId, DataBuffer};
use anthill::engine::sequential::{
    run_graph as sequential_run_graph, GraphEmission, SequentialConfig,
};
use anthill::engine::{AdmissionConfig, AdmissionCounters, OverloadPolicy};
use anthill::faults::{FaultConfig, FaultProb, RecoveryConfig, WorkerDeathSpec};
use anthill::graph::DataflowGraph;
use anthill::local::{Emitter, ExecMode, LoadConfig, LocalFilter, LocalTask, Pipeline, WorkerSpec};
use anthill::membership::{Autoscaler, AutoscalerConfig, WorkerPool};
use anthill::net::{
    run_concurrent, run_concurrent_elastic, run_concurrent_load, run_concurrent_load_autoscaled,
    run_graph_deterministic, spawn_joining_worker_thread, spawn_worker_thread, tcp_pair, Behavior,
    DrainAt, ElasticLoad, NetConfig, NetWorkerConn,
};
use anthill::obs::{chrome, jsonl, EventKind, Recorder};
use anthill::policy::{Policy, PolicyKind};
use anthill::sim::{run_nbia, SimConfig, WorkloadSpec};
use anthill::weights::OracleWeights;
use anthill_apps::flows::pricing;
use anthill_apps::nbia::{self, NbiaLocalConfig};
use anthill_bench::elastic::{
    render_elastic_report, validate_elastic_report, AutoscaleRow, RollingRow,
};
use anthill_bench::experiments::{cluster, estimator, transfer};
use anthill_bench::graph::{render_graph_report, validate_graph_report, GraphRunRow};
use anthill_bench::load::{
    render_load_report, validate_load_report, ArrivalProfile, DepthPoint, LatencyHistogram,
    LatencyStats, LoadRunRow,
};
use anthill_bench::netbench::{
    render_netbench_report, validate_netbench_report, ScaleRow, SCALE_WORKERS_FULL,
};
use anthill_bench::viz::{render, ChartSpec, Series};
use anthill_estimator::TaskParams;
use anthill_hetsim::{ClusterSpec, DeviceId, DeviceKind, GpuParams, NbiaCostModel, TaskShape};
use anthill_kernels::black_scholes::{price_batch, Option_};
use anthill_simkit::{SimDuration, SimTime};
use std::sync::Arc;
use std::time::Duration;

struct Scale {
    base_tiles: u64,
    scaling_tiles: u64,
    vi_len: u64,
    fig6_tiles: usize,
}

impl Scale {
    fn paper() -> Scale {
        Scale {
            base_tiles: 26_742,
            scaling_tiles: 267_420,
            vi_len: 360_000_000,
            fig6_tiles: 2_000,
        }
    }
    fn quick() -> Scale {
        Scale {
            base_tiles: 4_000,
            scaling_tiles: 40_000,
            vi_len: 36_000_000,
            fig6_tiles: 300,
        }
    }
}

const RATES: [f64; 6] = [0.0, 0.04, 0.08, 0.12, 0.16, 0.20];
const SEED: u64 = 42;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden subcommand: become a net-backend worker process. Intercepted
    // before normal parsing so its operands never collide with experiment
    // names or flags.
    if args.first().map(String::as_str) == Some("worker") {
        let behavior = match args.get(2) {
            None => anthill::net::Behavior::Identity,
            Some(spec) => match anthill::net::Behavior::parse(spec) {
                Some(b) => b,
                None => {
                    eprintln!("repro worker: unknown behavior '{spec}'");
                    std::process::exit(2);
                }
            },
        };
        let Some(addr) = args.get(1) else {
            eprintln!("usage: repro worker <coordinator-addr> [identity|recirc:N|busy:N]");
            std::process::exit(2);
        };
        match anthill::net::connect_and_run(addr, behavior) {
            Ok(_) => return,
            Err(e) => {
                eprintln!("repro worker: {e}");
                std::process::exit(1);
            }
        }
    }
    let known = [
        "table1",
        "sweep-k",
        "sweep-models",
        "fig6",
        "fig7",
        "table2",
        "table3",
        "fig8",
        "table4",
        "fig9",
        "fig10",
        "table6",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "mixed-gpus",
        "concurrent-kernels",
        "fusion",
        "slow-node",
        "smoke",
        "chaos",
        "net",
        "netbench",
        "load",
        "elastic",
        "graph",
        "policies",
        "all",
    ];
    let mut quick = false;
    let mut trace_path: Option<String> = None;
    let mut faults_spec: Option<String> = None;
    let mut profile_sel = "all".to_string();
    let mut selected: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--profile" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some(p @ ("all" | "poisson" | "bursty" | "diurnal")) => {
                        profile_sel = p.to_string();
                    }
                    _ => {
                        eprintln!("--profile requires one of: all, poisson, bursty, diurnal");
                        std::process::exit(2);
                    }
                }
            }
            "--trace" => {
                i += 1;
                match args.get(i) {
                    Some(p) => trace_path = Some(p.clone()),
                    None => {
                        eprintln!("--trace requires a file path");
                        std::process::exit(2);
                    }
                }
            }
            "--faults" => {
                i += 1;
                match args.get(i) {
                    Some(s) => faults_spec = Some(s.clone()),
                    None => {
                        eprintln!("--faults requires a spec, e.g. seed=42,drop=0.2");
                        std::process::exit(2);
                    }
                }
            }
            a if a.starts_with("--") => {
                eprintln!("unknown flag '{a}'");
                std::process::exit(2);
            }
            a => {
                if let Some(first) = &selected {
                    eprintln!(
                        "one experiment per run: got '{first}' and '{a}'; known: {}",
                        known.join(", ")
                    );
                    std::process::exit(2);
                }
                selected = Some(a.to_string());
            }
        }
        i += 1;
    }
    let scale = if quick {
        Scale::quick()
    } else {
        Scale::paper()
    };
    let what = selected.as_deref().unwrap_or("all");
    if !known.contains(&what) {
        eprintln!("unknown experiment '{what}'; known: {}", known.join(", "));
        std::process::exit(2);
    }

    // The smoke gate is an explicit selection only — it is a CI artifact
    // producer, not a paper experiment, so `all` does not include it.
    if what == "smoke" {
        smoke(trace_path.as_deref());
        return;
    }
    if what == "chaos" {
        let spec = match ChaosSpec::parse(faults_spec.as_deref()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bad --faults spec: {e}");
                std::process::exit(2);
            }
        };
        chaos(&spec, trace_path.as_deref());
        return;
    }
    if what == "net" {
        net_gate(trace_path.as_deref());
        return;
    }
    if what == "netbench" {
        netbench_gate(quick, trace_path.as_deref());
        return;
    }
    if what == "load" {
        load_gate(quick, &profile_sel, trace_path.as_deref());
        return;
    }
    if what == "elastic" {
        elastic_gate(quick, trace_path.as_deref());
        return;
    }
    if what == "graph" {
        graph_gate(quick, trace_path.as_deref());
        return;
    }
    if what == "policies" {
        policies_gate(quick, trace_path.as_deref());
        return;
    }
    if faults_spec.is_some() {
        eprintln!("note: --faults is honored by the chaos experiment only; ignoring it");
    }
    if profile_sel != "all" {
        eprintln!("note: --profile is honored by the load gate only; ignoring it");
    }

    let run = |name: &str| what == "all" || what == name;

    if run("table1") {
        table1();
    }
    if run("sweep-k") {
        sweep_k();
    }
    if run("sweep-models") {
        sweep_models();
    }
    if run("fig6") {
        fig6(&scale);
    }
    if run("fig7") {
        fig7(&scale);
    }
    if run("table2") {
        table2(&scale);
    }
    if run("table3") {
        table3(&scale);
    }
    if run("fig8") {
        fig8(&scale);
    }
    if run("table4") {
        table4(&scale);
    }
    if run("fig9") {
        fig9(&scale);
    }
    if run("fig10") {
        fig10(&scale);
    }
    if run("table6") {
        table6(&scale);
    }
    if run("fig11") {
        fig11(&scale);
    }
    if trace_path.is_some() && !run("fig12") {
        eprintln!("note: --trace is honored by fig12 and the CI gates only; ignoring it");
    }
    if run("fig12") {
        fig12(&scale, trace_path.as_deref());
    }
    if run("fig13") {
        fig13(&scale);
    }
    if run("fig14") {
        fig14(&scale);
    }
    if run("mixed-gpus") {
        mixed_gpus(&scale);
    }
    if run("concurrent-kernels") {
        concurrent_kernels(&scale);
    }
    if run("fusion") {
        fusion(&scale);
    }
    if run("slow-node") {
        slow_node(&scale);
    }
}

/// CI smoke gate: one small heterogeneous run per policy, traced through
/// the engine, with the trace validated against the JSONL schema. Writes a
/// `BENCH_engine.json` timing summary; exits nonzero on any failure.
fn smoke(trace_dir: Option<&str>) {
    header(
        "Smoke: one small experiment per policy through the scheduling engine",
        "CI gate — validates trace schema + task conservation, emits BENCH_engine.json",
    );
    let policies = [
        ("ddfcfs", Policy::ddfcfs(4)),
        ("ddwrr", Policy::ddwrr(16)),
        ("odds", Policy::odds()),
    ];
    let mut rows = Vec::new();
    println!(
        "{:<10} {:>8} {:>12} {:>10} {:>10} {:>10}",
        "policy", "tasks", "makespan(s)", "speedup", "events", "wall(ms)"
    );
    for (name, policy) in policies {
        let recorder = Recorder::enabled();
        let workload = WorkloadSpec {
            tiles: 1_000,
            ..WorkloadSpec::paper_base(0.08)
        };
        let mut cfg = SimConfig::new(ClusterSpec::heterogeneous(1, 1), policy);
        cfg.recorder = recorder.clone();
        let wall = std::time::Instant::now();
        let report = run_nbia(&cfg, &workload);
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

        // Schema gate: the trace must round-trip through the JSONL format
        // losslessly, and account for every finished task.
        let events = recorder.events();
        let text = jsonl::to_jsonl(&events);
        let parsed = match jsonl::parse_jsonl(&text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("smoke {name}: trace failed JSONL schema validation: {e}");
                std::process::exit(1);
            }
        };
        if parsed != events {
            eprintln!(
                "smoke {name}: trace round-trip mismatch ({} events in, {} out)",
                events.len(),
                parsed.len()
            );
            std::process::exit(1);
        }
        let finishes = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Finish { .. }))
            .count() as u64;
        if finishes != report.total_tasks {
            eprintln!(
                "smoke {name}: trace lost tasks ({} finish events, {} tasks reported)",
                finishes, report.total_tasks
            );
            std::process::exit(1);
        }
        if let Some(dir) = trace_dir {
            let path = format!("{}/smoke-{name}.trace.jsonl", dir.trim_end_matches('/'));
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("smoke {name}: failed to write trace to {path}: {e}");
                std::process::exit(1);
            }
            println!("  wrote {} events to {path}", events.len());
        }
        println!(
            "{:<10} {:>8} {:>12.3} {:>10.2} {:>10} {:>10.1}",
            name,
            report.total_tasks,
            report.makespan.as_secs_f64(),
            report.speedup(),
            events.len(),
            wall_ms
        );
        rows.push(format!(
            concat!(
                "  {{\"policy\": \"{}\", \"tasks\": {}, \"makespan_s\": {:.6}, ",
                "\"speedup\": {:.4}, \"trace_events\": {}, \"wall_ms\": {:.2}}}"
            ),
            name,
            report.total_tasks,
            report.makespan.as_secs_f64(),
            report.speedup(),
            events.len(),
            wall_ms
        ));
    }
    let json = format!("[\n{}\n]\n", rows.join(",\n"));
    match std::fs::write("BENCH_engine.json", &json) {
        Ok(()) => println!("wrote BENCH_engine.json"),
        Err(e) => {
            eprintln!("smoke: failed to write BENCH_engine.json: {e}");
            std::process::exit(1);
        }
    }
}

/// Knobs of the chaos gate's fault schedule, parsed from `--faults`.
struct ChaosSpec {
    seed: u64,
    drop: f64,
    fail: f64,
    death_ms: u64,
}

impl ChaosSpec {
    /// Parse a `key=value` comma list; `None` means all defaults. Keys:
    /// `seed` (u64), `drop` / `fail` (probabilities in `[0, 1)`), and
    /// `death-ms` (virtual ms at which node 0's GPU worker dies; 0
    /// disables the death).
    fn parse(spec: Option<&str>) -> Result<ChaosSpec, String> {
        let mut out = ChaosSpec {
            seed: 42,
            drop: 0.2,
            fail: 0.0,
            death_ms: 100,
        };
        let Some(spec) = spec else { return Ok(out) };
        for pair in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("'{pair}' is not key=value"))?;
            match key {
                "seed" => {
                    out.seed = value.parse().map_err(|e| format!("seed: {e}"))?;
                }
                "drop" | "fail" => {
                    let p: f64 = value.parse().map_err(|e| format!("{key}: {e}"))?;
                    if !(0.0..1.0).contains(&p) {
                        return Err(format!("{key}={p} must be in [0, 1)"));
                    }
                    if key == "drop" {
                        out.drop = p;
                    } else {
                        out.fail = p;
                    }
                }
                "death-ms" => {
                    out.death_ms = value.parse().map_err(|e| format!("death-ms: {e}"))?;
                }
                other => return Err(format!("unknown key '{other}'")),
            }
        }
        Ok(out)
    }

    fn faults(&self) -> FaultConfig {
        let deaths = if self.death_ms == 0 {
            Vec::new()
        } else {
            // Homogeneous nodes are (cpu, gpu): worker 1 of node 0 is a GPU.
            vec![WorkerDeathSpec {
                node: 0,
                worker: 1,
                at: SimTime(self.death_ms * 1_000_000),
            }]
        };
        FaultConfig {
            drop: FaultProb::uniform(self.drop),
            task_fail: FaultProb::uniform(self.fail),
            deaths,
            recovery: RecoveryConfig::standard(),
            seed: self.seed,
            ..FaultConfig::none()
        }
    }
}

/// Fault-tolerance CI gate: each policy runs the same 400-tile workload
/// through an identical fault schedule (message drops + one scheduled GPU
/// worker death). Fails unless every run completes the whole workload
/// with a schema-valid trace that records the death. Writes a
/// `BENCH_chaos.json` summary; exits nonzero on any failure.
fn chaos(spec: &ChaosSpec, trace_dir: Option<&str>) {
    header(
        "Chaos: per-policy recovery run under an identical fault schedule",
        "CI gate — drops + worker death must not lose tasks (Section 5 runtime, fault extension)",
    );
    println!(
        "   schedule: seed={} drop={} fail={} death-ms={}",
        spec.seed, spec.drop, spec.fail, spec.death_ms
    );
    let policies = [
        ("ddfcfs", Policy::ddfcfs(8)),
        ("ddwrr", Policy::ddwrr(30)),
        ("odds", Policy::odds()),
    ];
    let workload = WorkloadSpec {
        tiles: 400,
        ..WorkloadSpec::paper_base(0.2)
    };
    let mut rows = Vec::new();
    println!(
        "{:<10} {:>8} {:>12} {:>8} {:>8} {:>8} {:>10}",
        "policy", "tasks", "makespan(s)", "retries", "died", "reassign", "events"
    );
    for (name, policy) in policies {
        let recorder = Recorder::enabled();
        let mut cfg = SimConfig::new(ClusterSpec::homogeneous(2), policy);
        cfg.recorder = recorder.clone();
        cfg.faults = spec.faults();
        let report = run_nbia(&cfg, &workload);

        let events = recorder.events();
        let text = jsonl::to_jsonl(&events);
        match jsonl::parse_jsonl(&text) {
            Ok(parsed) if parsed == events => {}
            Ok(_) => {
                eprintln!("chaos {name}: trace round-trip mismatch");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("chaos {name}: trace failed JSONL schema validation: {e}");
                std::process::exit(1);
            }
        }
        if report.total_tasks != workload.total_buffers() {
            eprintln!(
                "chaos {name}: lost tasks ({} completed, {} expected)",
                report.total_tasks,
                workload.total_buffers()
            );
            std::process::exit(1);
        }
        let count = |pred: fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();
        let retries = count(|k| matches!(k, EventKind::TaskRetried { .. }));
        let died = count(|k| matches!(k, EventKind::WorkerDied { .. }));
        let reassigned = count(|k| matches!(k, EventKind::TaskReassigned { .. }));
        let expect_deaths = cfg.faults.deaths.len();
        if died != expect_deaths {
            eprintln!(
                "chaos {name}: {expect_deaths} deaths scheduled but {died} worker_died events"
            );
            std::process::exit(1);
        }
        if let Some(dir) = trace_dir {
            let path = format!("{}/chaos-{name}.trace.jsonl", dir.trim_end_matches('/'));
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("chaos {name}: failed to write trace to {path}: {e}");
                std::process::exit(1);
            }
            println!("  wrote {} events to {path}", events.len());
        }
        println!(
            "{:<10} {:>8} {:>12.3} {:>8} {:>8} {:>8} {:>10}",
            name,
            report.total_tasks,
            report.makespan.as_secs_f64(),
            retries,
            died,
            reassigned,
            events.len()
        );
        rows.push(format!(
            concat!(
                "  {{\"policy\": \"{}\", \"tasks\": {}, \"makespan_s\": {:.6}, ",
                "\"retries\": {}, \"worker_deaths\": {}, \"reassigned\": {}, \"trace_events\": {}}}"
            ),
            name,
            report.total_tasks,
            report.makespan.as_secs_f64(),
            retries,
            died,
            reassigned,
            events.len()
        ));
    }
    let json = format!("[\n{}\n]\n", rows.join(",\n"));
    match std::fs::write("BENCH_chaos.json", &json) {
        Ok(()) => println!("wrote BENCH_chaos.json"),
        Err(e) => {
            eprintln!("chaos: failed to write BENCH_chaos.json: {e}");
            std::process::exit(1);
        }
    }
}

/// One NBIA-shaped tile for the net gate, sides cycling through the
/// paper's range so the policies actually have heterogeneity to exploit.
fn net_tile(id: u64) -> DataBuffer {
    let side = [32u32, 128, 256, 512][(id % 4) as usize];
    DataBuffer {
        id: BufferId(id),
        params: TaskParams::nums(&[f64::from(side)]),
        shape: NbiaCostModel::paper_calibrated().tile(side),
        level: 0,
        task: id,
    }
}

/// Networked-backend CI gate: per policy, the same NBIA-shaped workload
/// runs through the TCP coordinator with two spawned worker *processes*
/// on loopback, and both the per-device assignment and the dispatch
/// order must be bit-identical to the sequential reference driver. The
/// merged trace (coordinator events + re-stamped worker spans) must
/// round-trip the JSONL schema. Writes `BENCH_net_parity.json` (the
/// throughput numbers live in `BENCH_net.json`, owned by
/// [`netbench_gate`]); exits nonzero on any failure.
fn net_gate(trace_dir: Option<&str>) {
    header(
        "Net: loopback TCP backend vs the sequential reference driver",
        "CI gate — spawned worker processes, bit-identical assignment, merged trace schema",
    );
    let exe = std::env::current_exe().expect("own executable path");
    let single = DataflowGraph::single("filter");
    let seeds: Vec<(usize, DataBuffer)> = (0..240).map(|i| (0, net_tile(i))).collect();
    let devices = [
        DeviceId {
            node: 0,
            kind: DeviceKind::Cpu,
            index: 0,
        },
        DeviceId {
            node: 0,
            kind: DeviceKind::Gpu,
            index: 0,
        },
    ];
    let policies = [
        ("ddfcfs", Policy::ddfcfs(4)),
        ("ddwrr", Policy::ddwrr(16)),
        ("odds", Policy::odds()),
    ];
    let mut rows = Vec::new();
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "policy", "tasks", "cpu", "gpu", "events", "wall(ms)"
    );
    for (name, policy) in policies {
        let reference = sequential_run_graph(
            SequentialConfig::new(policy),
            &single,
            &[devices.to_vec()],
            seeds.clone(),
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
            |_, _, _| GraphEmission::default(),
        );

        let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
            Ok(l) => l,
            Err(e) => {
                eprintln!("net {name}: failed to bind loopback listener: {e}");
                std::process::exit(1);
            }
        };
        let addr = listener.local_addr().expect("listener addr").to_string();
        let mut children = Vec::new();
        let mut workers = Vec::new();
        for device in devices {
            let child = match std::process::Command::new(&exe)
                .args(["worker", &addr, "identity"])
                .stdin(std::process::Stdio::null())
                .spawn()
            {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("net {name}: failed to spawn worker process: {e}");
                    std::process::exit(1);
                }
            };
            children.push(child);
            match listener.accept() {
                Ok((stream, _)) => workers.push(NetWorkerConn { device, stream }),
                Err(e) => {
                    eprintln!("net {name}: worker failed to connect: {e}");
                    std::process::exit(1);
                }
            }
        }

        let recorder = Recorder::enabled();
        let mut cfg = NetConfig::new(policy);
        cfg.recorder = recorder.clone();
        let wall = std::time::Instant::now();
        let out = match run_graph_deterministic(
            cfg,
            &single,
            vec![workers],
            seeds.clone(),
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
        ) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("net {name}: coordinator failed: {e}");
                std::process::exit(1);
            }
        };
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        for child in &mut children {
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("net {name}: worker process exited with {status}");
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("net {name}: failed to reap worker process: {e}");
                    std::process::exit(1);
                }
            }
        }

        if out.assigned != reference.assigned || out.dispatch_order != reference.dispatch_order {
            eprintln!(
                "net {name}: TCP backend diverged from the sequential reference \
                 (net {:?} vs reference {:?})",
                out.assigned, reference.assigned
            );
            std::process::exit(1);
        }

        // The merged trace must carry one re-stamped worker span per task
        // and survive a JSONL round trip.
        let events = recorder.events();
        let remote_finishes = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RemoteFinish { .. }))
            .count() as u64;
        if remote_finishes != out.total {
            eprintln!(
                "net {name}: trace lost worker spans ({remote_finishes} remote_finish \
                 events, {} tasks)",
                out.total
            );
            std::process::exit(1);
        }
        let text = jsonl::to_jsonl(&events);
        match jsonl::parse_jsonl(&text) {
            Ok(parsed) if parsed == events => {}
            Ok(parsed) => {
                eprintln!(
                    "net {name}: trace round-trip mismatch ({} events in, {} out)",
                    events.len(),
                    parsed.len()
                );
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("net {name}: trace failed JSONL schema validation: {e}");
                std::process::exit(1);
            }
        }
        if let Some(dir) = trace_dir {
            let path = format!("{}/net-{name}.trace.jsonl", dir.trim_end_matches('/'));
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("net {name}: failed to write trace to {path}: {e}");
                std::process::exit(1);
            }
            println!("  wrote {} events to {path}", events.len());
        }

        let cpu = out
            .assigned
            .get(&(0, DeviceKind::Cpu, 0))
            .copied()
            .unwrap_or(0);
        let gpu = out
            .assigned
            .get(&(0, DeviceKind::Gpu, 0))
            .copied()
            .unwrap_or(0);
        println!(
            "{:<10} {:>8} {:>8} {:>8} {:>10} {:>10.1}",
            name,
            out.total,
            cpu,
            gpu,
            events.len(),
            wall_ms
        );
        rows.push(format!(
            concat!(
                "  {{\"policy\": \"{}\", \"tasks\": {}, \"cpu\": {}, \"gpu\": {}, ",
                "\"parity\": true, \"trace_events\": {}, \"wall_ms\": {:.2}}}"
            ),
            name,
            out.total,
            cpu,
            gpu,
            events.len(),
            wall_ms
        ));
    }
    let json = format!("[\n{}\n]\n", rows.join(",\n"));
    match std::fs::write("BENCH_net_parity.json", &json) {
        Ok(()) => println!("wrote BENCH_net_parity.json"),
        Err(e) => {
            eprintln!("net: failed to write BENCH_net_parity.json: {e}");
            std::process::exit(1);
        }
    }
}

/// One light tile for the netbench workload: real `TaskParams` on the
/// wire but a near-zero modeled shape, so the measurement is protocol
/// overhead — framing, syscalls, wakeups — not simulated compute.
fn netbench_tile(id: u64) -> DataBuffer {
    DataBuffer {
        id: BufferId(id),
        params: TaskParams::nums(&[id as f64]),
        shape: TaskShape {
            cpu: SimDuration::from_micros(1),
            gpu_kernel: SimDuration::from_micros(1),
            bytes_in: 64,
            bytes_out: 64,
        },
        level: 0,
        task: id,
    }
}

/// Connect `n` in-process loopback workers (alternating CPU/GPU slots),
/// returning the coordinator-side connections and the worker threads.
fn netbench_workers(
    n: usize,
) -> (
    Vec<NetWorkerConn>,
    Vec<std::thread::JoinHandle<std::io::Result<u64>>>,
) {
    let mut conns = Vec::with_capacity(n);
    let mut threads = Vec::with_capacity(n);
    for i in 0..n {
        let (coord, worker_side) = match tcp_pair() {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("netbench: loopback pair {i}: {e}");
                std::process::exit(1);
            }
        };
        threads.push(spawn_worker_thread(worker_side, Behavior::Identity));
        let kind = if i % 2 == 0 {
            DeviceKind::Cpu
        } else {
            DeviceKind::Gpu
        };
        conns.push(NetWorkerConn {
            device: DeviceId {
                node: 0,
                kind,
                index: i,
            },
            stream: coord,
        });
    }
    (conns, threads)
}

/// One measured netbench run: `n` loopback workers, `tasks` tiles.
/// Returns the outcome and the wall-clock seconds; conservation is
/// asserted on every run.
fn netbench_run(
    n: usize,
    tasks: u64,
    recorder: Option<&Recorder>,
) -> (anthill::net::NetOutcome, f64) {
    let (conns, threads) = netbench_workers(n);
    let mut cfg = NetConfig::new(Policy::ddfcfs(4));
    cfg.deadline = Duration::from_secs(300);
    if let Some(rec) = recorder {
        cfg.recorder = rec.clone();
    }
    let tiles: Vec<DataBuffer> = (0..tasks).map(netbench_tile).collect();
    let weights = OracleWeights::new(GpuParams::geforce_8800gt(), false);
    let wall = std::time::Instant::now();
    let out = match run_concurrent(cfg, conns, tiles, weights) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("netbench: coordinator failed: {e}");
            std::process::exit(1);
        }
    };
    let secs = wall.elapsed().as_secs_f64();
    for t in threads {
        if let Err(e) = t.join().expect("worker thread panicked") {
            eprintln!("netbench: worker exited with error: {e}");
            std::process::exit(1);
        }
    }
    if out.total != tasks {
        eprintln!(
            "netbench: conservation broken ({} of {tasks} done)",
            out.total
        );
        std::process::exit(1);
    }
    (out, secs)
}

/// Coordinator fan-in scale gate (DESIGN.md §15): one event-loop
/// coordinator over 1000 in-process loopback workers. Writes and
/// schema-validates `BENCH_net.json`; exits nonzero if a task is lost, a
/// worker dies, or the write path allocates more than one buffer per
/// hundred frames (all enforced by the report's own schema gate).
fn netbench_gate(quick: bool, trace_dir: Option<&str>) {
    header(
        "Netbench: 1000-worker loopback fan-in on one event-loop coordinator",
        "run-time optimization premise (§5–6): coordination overhead bounds replicated-filter scaling",
    );
    let workers = SCALE_WORKERS_FULL as usize;
    let tasks: u64 = if quick { 2_000 } else { 6_000 };

    println!("  scale: {workers} loopback workers, {tasks} tiles");
    let recorder = trace_dir.map(|_| Recorder::enabled());
    let (out, secs) = netbench_run(workers, tasks, recorder.as_ref());
    let wire = out.wire;
    let frames = wire.tx_frames + wire.rx_frames;
    let alloc_per_frame = if wire.tx_frames == 0 {
        f64::NAN
    } else {
        wire.pool_misses as f64 / wire.tx_frames as f64
    };
    println!(
        "    {} tasks in {:.1} ms, {} deaths, {:.0} frames/s, {} flushes \
         ({:.1} frames/writev), alloc/frame {alloc_per_frame:.4}",
        out.total,
        secs * 1e3,
        out.deaths,
        frames as f64 / secs,
        wire.flushes,
        wire.tx_frames as f64 / wire.flushes.max(1) as f64,
    );
    if let (Some(dir), Some(rec)) = (trace_dir, &recorder) {
        let text = jsonl::to_jsonl(&rec.events());
        let path = format!("{}/netbench-scale.trace.jsonl", dir.trim_end_matches('/'));
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("netbench: failed to write trace to {path}: {e}");
            std::process::exit(1);
        }
        println!("    wrote scale trace to {path}");
    }

    let scale = ScaleRow {
        workers: workers as u64,
        tasks,
        completed: out.total,
        deaths: u64::from(out.deaths),
        wall_ms: secs * 1e3,
        frames_per_sec: frames as f64 / secs,
        alloc_per_frame,
    };
    let body = render_netbench_report(&scale, quick, SEED);
    if let Err(e) = validate_netbench_report(&body) {
        eprintln!("netbench: report failed its own schema gate: {e}");
        // Still land the evidence for the failure artifact upload.
        let _ = std::fs::write("BENCH_net.json", &body);
        std::process::exit(1);
    }
    match std::fs::write("BENCH_net.json", &body) {
        Ok(()) => println!("wrote BENCH_net.json"),
        Err(e) => {
            eprintln!("netbench: failed to write BENCH_net.json: {e}");
            std::process::exit(1);
        }
    }
}

/// Abort the graph gate with a labeled diagnosis.
fn graph_fail(label: &str, why: &str) -> ! {
    eprintln!("graph {label}: {why}");
    std::process::exit(1);
}

/// Trace hygiene shared by every graph-gate run: the merged trace must
/// round-trip the JSONL schema, and with `--trace` it lands on disk.
fn graph_trace_events(label: &str, recorder: &Recorder, trace_dir: Option<&str>) -> u64 {
    let events = recorder.events();
    let text = jsonl::to_jsonl(&events);
    match jsonl::parse_jsonl(&text) {
        Ok(parsed) if parsed == events => {}
        Ok(parsed) => graph_fail(
            label,
            &format!(
                "trace round-trip mismatch ({} events in, {} out)",
                events.len(),
                parsed.len()
            ),
        ),
        Err(e) => graph_fail(label, &format!("trace failed JSONL schema validation: {e}")),
    }
    if let Some(dir) = trace_dir {
        let path = format!("{}/graph-{label}.trace.jsonl", dir.trim_end_matches('/'));
        if let Err(e) = std::fs::write(&path, &text) {
            graph_fail(label, &format!("failed to write trace to {path}: {e}"));
        }
        println!("  wrote {} events to {path}", events.len());
    }
    events.len() as u64
}

/// Per-edge delivery counts as a dense vector indexed by edge id.
fn edge_tallies(n_edges: usize, delivered: &std::collections::HashMap<u32, u64>) -> Vec<u64> {
    (0..n_edges as u32)
        .map(|e| delivered.get(&e).copied().unwrap_or(0))
        .collect()
}

/// Multi-filter dataflow CI gate. The NBIA three-filter pipeline (reader
/// -> feature -> classifier with a refinement feedback edge) runs on the
/// native threaded runtime and on the TCP lockstep coordinator, and both
/// must classify byte-identically to the fused single-filter deployment;
/// the Black-Scholes fan-out/fan-in diamond runs natively against the
/// direct batch, and over spawned worker *processes* against the
/// sequential reference driver's assignment, dispatch order, and
/// per-edge deliveries, for every policy. Every merged trace must
/// round-trip the JSONL schema. Writes and schema-validates
/// `BENCH_graph.json`; exits nonzero on any failure.
fn graph_gate(quick: bool, trace_dir: Option<&str>) {
    header(
        "Graph: DAGs of replicated filters vs fused/reference deployments",
        "CI gate — NBIA pipeline + pricing diamond, per-edge conservation, trace schema",
    );
    let mut rows: Vec<GraphRunRow> = Vec::new();
    println!(
        "{:<18} {:<7} {:<7} {:>7} {:>8} {:>15} {:>8} {:>9}",
        "app/topology", "backend", "policy", "tasks", "outputs", "edges", "events", "wall(ms)"
    );
    let print_row = |r: &GraphRunRow| {
        let edges: Vec<String> = r.edges.iter().map(u64::to_string).collect();
        println!(
            "{:<18} {:<7} {:<7} {:>7} {:>8} {:>15} {:>8} {:>9.1}",
            format!("{}/{}", r.app, r.topology),
            r.backend,
            r.policy,
            r.tasks,
            r.outputs,
            edges.join("/"),
            r.trace_events,
            r.wall_ms
        );
    };

    // --- NBIA: the fused single-filter deployment (the paper's actual
    // setup) is the byte-identity baseline for both graph backends.
    let tiles = if quick { 18 } else { 36 };
    let config = NbiaLocalConfig {
        tiles,
        ..NbiaLocalConfig::default()
    };
    let weights = OracleWeights::new(GpuParams::geforce_8800gt(), true);
    let (fused, _) = nbia::run_local_deterministic(&config, &weights);
    if fused.len() as u64 != tiles {
        graph_fail("nbia-fused", "baseline run lost tiles");
    }
    let nbia_graph = nbia::graph::topology();

    {
        let recorder = Recorder::enabled();
        let wall = std::time::Instant::now();
        let (results, report) = nbia::graph::run_native_traced(&config, &weights, &recorder);
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        if results != fused {
            graph_fail(
                "nbia-native",
                "three-filter native run diverged from the fused deployment",
            );
        }
        let edges = edge_tallies(nbia_graph.edges().len(), &report.edge_delivered);
        if edges[0] != tiles || edges[1] < tiles {
            graph_fail("nbia-native", "pipeline edges lost tiles");
        }
        let trace_events = graph_trace_events("nbia-native", &recorder, trace_dir);
        let row = GraphRunRow {
            app: "nbia".into(),
            topology: "pipeline3".into(),
            backend: "native".into(),
            policy: config.policy.name().to_ascii_lowercase(),
            filters: nbia_graph.n_filters() as u64,
            tasks: report.total(),
            outputs: results.len() as u64,
            edges,
            parity: true,
            trace_events,
            wall_ms,
        };
        print_row(&row);
        rows.push(row);
    }

    {
        let recorder = Recorder::enabled();
        let wall = std::time::Instant::now();
        let (results, outcome) = match nbia::graph::run_net_traced(&config, &recorder) {
            Ok(out) => out,
            Err(e) => graph_fail("nbia-net", &format!("coordinator failed: {e}")),
        };
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        if results != fused {
            graph_fail(
                "nbia-net",
                "TCP graph run diverged from the fused deployment",
            );
        }
        if outcome.deaths != 0 {
            graph_fail("nbia-net", "healthy run recorded worker deaths");
        }
        if outcome.outputs.len() as u64 != tiles {
            graph_fail("nbia-net", "classifier sink lost tiles");
        }
        let remote_finishes = recorder
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RemoteFinish { .. }))
            .count() as u64;
        if remote_finishes != outcome.total {
            graph_fail(
                "nbia-net",
                &format!(
                    "trace lost worker spans ({remote_finishes} remote_finish events, {} buffers)",
                    outcome.total
                ),
            );
        }
        let edges = edge_tallies(nbia_graph.edges().len(), &outcome.edge_delivered);
        let trace_events = graph_trace_events("nbia-net", &recorder, trace_dir);
        let row = GraphRunRow {
            app: "nbia".into(),
            topology: "pipeline3".into(),
            backend: "net".into(),
            policy: config.policy.name().to_ascii_lowercase(),
            filters: nbia_graph.n_filters() as u64,
            tasks: outcome.total,
            outputs: outcome.outputs.len() as u64,
            edges,
            parity: true,
            trace_events,
            wall_ms,
        };
        print_row(&row);
        rows.push(row);
    }

    // --- Pricing: the diamond's merged output must match the direct
    // Black-Scholes batch, option by option.
    let n_opts: usize = if quick { 24 } else { 40 };
    let options: Vec<Option_> = (0..n_opts)
        .map(|i| Option_ {
            spot: 80.0 + 1.5 * i as f64,
            strike: 100.0,
            expiry: 0.5 + 0.25 * (i % 4) as f64,
            rate: 0.03,
            volatility: 0.2 + 0.01 * (i % 7) as f64,
        })
        .collect();
    let direct = price_batch(&options);
    {
        let recorder = Recorder::enabled();
        let wall = std::time::Instant::now();
        let (mut priced, report) =
            pricing::run_diamond_traced(&options, PolicyKind::DdFcfs, &weights, &recorder);
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        priced.sort_by_key(|&(id, _)| id);
        let parity = priced.len() == n_opts
            && priced
                .iter()
                .all(|&(id, p)| direct.get(id as usize) == Some(&p));
        if !parity {
            graph_fail(
                "pricing-native",
                "diamond run disagreed with the direct batch",
            );
        }
        let edges = edge_tallies(4, &report.edge_delivered);
        if edges[0] + edges[1] != n_opts as u64 || edges[2] + edges[3] != n_opts as u64 {
            graph_fail("pricing-native", "diamond edges lost options");
        }
        let trace_events = graph_trace_events("pricing-native", &recorder, trace_dir);
        let row = GraphRunRow {
            app: "pricing".into(),
            topology: "diamond".into(),
            backend: "native".into(),
            policy: PolicyKind::DdFcfs.name().to_ascii_lowercase(),
            filters: 4,
            tasks: report.total(),
            outputs: priced.len() as u64,
            edges,
            parity: true,
            trace_events,
            wall_ms,
        };
        print_row(&row);
        rows.push(row);
    }

    // --- Diamond over the wire: spawned worker processes, every policy,
    // against the sequential reference driver.
    let diamond = DataflowGraph::diamond("split", "price_a", "price_b", "merge");
    let exe = std::env::current_exe().expect("own executable path");
    let net_tasks: u64 = if quick { 48 } else { 96 };
    let net_seeds: Vec<DataBuffer> = (0..net_tasks).map(net_tile).collect();
    let devices: Vec<Vec<DeviceId>> = (0..diamond.n_filters())
        .map(|f| {
            [DeviceKind::Cpu, DeviceKind::Gpu]
                .iter()
                .enumerate()
                .map(|(i, &kind)| DeviceId {
                    node: f,
                    kind,
                    index: i,
                })
                .collect()
        })
        .collect();
    for (name, policy) in [
        ("ddfcfs", Policy::ddfcfs(4)),
        ("ddwrr", Policy::ddwrr(16)),
        ("odds", Policy::odds()),
    ] {
        let label = format!("diamond-net-{name}");
        let seeds: Vec<(usize, DataBuffer)> = net_seeds.iter().map(|b| (0, b.clone())).collect();
        let reference = sequential_run_graph(
            SequentialConfig::new(policy),
            &diamond,
            &devices,
            seeds.clone(),
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
            |_, _, b| GraphEmission {
                forward: vec![b.clone()],
                feedback: Vec::new(),
            },
        );

        let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
            Ok(l) => l,
            Err(e) => graph_fail(&label, &format!("failed to bind loopback listener: {e}")),
        };
        let addr = listener.local_addr().expect("listener addr").to_string();
        let mut children = Vec::new();
        let mut workers: Vec<Vec<NetWorkerConn>> = Vec::new();
        for filter_devices in &devices {
            let mut conns = Vec::new();
            for &device in filter_devices {
                let child = match std::process::Command::new(&exe)
                    .args(["worker", &addr, "identity"])
                    .stdin(std::process::Stdio::null())
                    .spawn()
                {
                    Ok(c) => c,
                    Err(e) => graph_fail(&label, &format!("failed to spawn worker process: {e}")),
                };
                children.push(child);
                match listener.accept() {
                    Ok((stream, _)) => conns.push(NetWorkerConn { device, stream }),
                    Err(e) => graph_fail(&label, &format!("worker failed to connect: {e}")),
                }
            }
            workers.push(conns);
        }

        let recorder = Recorder::enabled();
        let mut cfg = NetConfig::new(policy);
        cfg.recorder = recorder.clone();
        let wall = std::time::Instant::now();
        let out = match run_graph_deterministic(
            cfg,
            &diamond,
            workers,
            seeds,
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
        ) {
            Ok(out) => out,
            Err(e) => graph_fail(&label, &format!("coordinator failed: {e}")),
        };
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        for child in &mut children {
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => graph_fail(&label, &format!("worker process exited with {status}")),
                Err(e) => graph_fail(&label, &format!("failed to reap worker process: {e}")),
            }
        }

        if out.assigned != reference.assigned
            || out.dispatch_order != reference.dispatch_order
            || out.edge_delivered != reference.edge_delivered
        {
            graph_fail(
                &label,
                "TCP graph backend diverged from the sequential reference",
            );
        }
        if out.deaths != 0 {
            graph_fail(&label, "healthy run recorded worker deaths");
        }
        let remote_finishes = recorder
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RemoteFinish { .. }))
            .count() as u64;
        if remote_finishes != out.total {
            graph_fail(
                &label,
                &format!(
                    "trace lost worker spans ({remote_finishes} remote_finish events, {} buffers)",
                    out.total
                ),
            );
        }
        let edges = edge_tallies(4, &out.edge_delivered);
        if edges[0] + edges[1] != net_tasks || edges[2] + edges[3] != net_tasks {
            graph_fail(&label, "diamond edges lost buffers");
        }
        let trace_events = graph_trace_events(&label, &recorder, trace_dir);
        let row = GraphRunRow {
            app: "pricing".into(),
            topology: "diamond".into(),
            backend: "net".into(),
            policy: name.into(),
            filters: diamond.n_filters() as u64,
            tasks: out.total,
            outputs: out.outputs.len() as u64,
            edges,
            parity: true,
            trace_events,
            wall_ms,
        };
        print_row(&row);
        rows.push(row);
    }

    let text = render_graph_report(&rows, quick);
    if let Err(e) = validate_graph_report(&text) {
        eprintln!("graph: BENCH_graph.json failed schema validation: {e}");
        std::process::exit(1);
    }
    match std::fs::write("BENCH_graph.json", &text) {
        Ok(()) => println!("wrote BENCH_graph.json ({} runs)", rows.len()),
        Err(e) => {
            eprintln!("graph: failed to write BENCH_graph.json: {e}");
            std::process::exit(1);
        }
    }
}

/// Learned-policy CI gate: DDWRR vs AFFINITY vs BANDIT on the paper's
/// base cases plus the stale-profile recovery scenario, with the verdicts
/// (paper tolerance, heterogeneous win, stale-profile win, learner
/// engagement) enforced by the `BENCH_policies.json` schema validator.
/// Every run's trace must round-trip the JSONL schema; with `--trace`,
/// per-run traces land in the directory. Exits nonzero on any failure.
fn policies_gate(quick: bool, trace_dir: Option<&str>) {
    header(
        "Policies: learned scheduling (online estimator, affinity, bandit) vs DDWRR",
        "CI gate — Table 5 extension; online profile recovery of a stale phase-one benchmark",
    );
    println!(
        "{:<14} {:<9} {:>12} {:>8} {:>8} {:>8} {:>9} {:>9} {:>10}",
        "scenario",
        "policy",
        "makespan(ms)",
        "cpu",
        "gpu",
        "decide",
        "profile",
        "events",
        "vs ddwrr"
    );
    let fail = |label: &str, why: &str| -> ! {
        eprintln!("policies {label}: {why}");
        std::process::exit(1);
    };
    let rows = anthill_bench::policies::head_to_head_traced(quick, |row, events| {
        let label = format!("{}/{}", row.scenario, row.policy);
        let text = jsonl::to_jsonl(events);
        match jsonl::parse_jsonl(&text) {
            Ok(parsed) if parsed == events => {}
            Ok(parsed) => fail(
                &label,
                &format!(
                    "trace round-trip mismatch ({} events in, {} out)",
                    events.len(),
                    parsed.len()
                ),
            ),
            Err(e) => fail(&label, &format!("trace does not round-trip: {e}")),
        }
        if let Some(dir) = trace_dir {
            let path = format!(
                "{}/policies-{}-{}.trace.jsonl",
                dir.trim_end_matches('/'),
                row.scenario,
                row.policy.to_ascii_lowercase()
            );
            if let Err(e) = std::fs::write(&path, &text) {
                fail(&label, &format!("failed to write {path}: {e}"));
            }
        }
        println!(
            "{:<14} {:<9} {:>12.1} {:>8} {:>8} {:>8} {:>9} {:>9} {:>+9.2}%",
            row.scenario,
            row.policy,
            row.makespan_ms,
            row.tasks_cpu,
            row.tasks_gpu,
            row.decisions,
            row.profile_updates,
            events.len(),
            row.vs_ddwrr_pct
        );
    });
    let text = anthill_bench::policies::render_policies_report(&rows, quick);
    if let Err(e) = anthill_bench::policies::validate_policies_report(&text) {
        eprintln!("policies: BENCH_policies.json failed its gate verdicts: {e}");
        std::process::exit(1);
    }
    match std::fs::write("BENCH_policies.json", &text) {
        Ok(()) => println!("wrote BENCH_policies.json ({} runs)", rows.len()),
        Err(e) => {
            eprintln!("policies: failed to write BENCH_policies.json: {e}");
            std::process::exit(1);
        }
    }
}

/// Stage filter of the load gate's native runs: forward immediately, so
/// measured latency is queueing + runtime overhead (plus the emulated
/// busy-wait in the saturation runs).
struct LoadForward;
impl LocalFilter for LoadForward {
    fn handle(&self, _d: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
        out.forward(task);
    }
}

/// A constant-shape task for the load gate; `micros` is the modeled (and,
/// under `ExecMode::Emulated`, busy-waited) per-device cost.
fn load_tile(id: u64, micros: u64) -> DataBuffer {
    DataBuffer {
        id: BufferId(id),
        params: TaskParams::nums(&[1.0]),
        shape: TaskShape {
            cpu: SimDuration::from_micros(micros),
            gpu_kernel: SimDuration::from_micros(micros),
            bytes_in: 0,
            bytes_out: 0,
        },
        level: 0,
        task: id,
    }
}

/// The three per-task latency dimensions of one load run, each in its own
/// streaming histogram.
struct LatTriple {
    queue: LatencyHistogram,
    service: LatencyHistogram,
    e2e: LatencyHistogram,
}

impl LatTriple {
    fn new() -> LatTriple {
        LatTriple {
            queue: LatencyHistogram::new(),
            service: LatencyHistogram::new(),
            e2e: LatencyHistogram::new(),
        }
    }

    fn record(&mut self, queue_ns: u64, service_ns: u64, e2e_ns: u64) {
        self.queue.record(queue_ns);
        self.service.record(service_ns);
        self.e2e.record(e2e_ns);
    }

    fn stats(&self) -> [LatencyStats; 3] {
        [
            LatencyStats::from_histogram(&self.queue),
            LatencyStats::from_histogram(&self.service),
            LatencyStats::from_histogram(&self.e2e),
        ]
    }
}

fn expect_load(label: &str, cond: bool, msg: &str) {
    if !cond {
        eprintln!("load {label}: {msg}");
        std::process::exit(1);
    }
}

/// Gate one traced load run: the admission events in the trace must match
/// the controller's counters exactly, the trace must round-trip the JSONL
/// schema, and the result lands in `<dir>/load-<label>.trace.jsonl`.
fn check_load_trace(label: &str, recorder: &Recorder, counters: AdmissionCounters, dir: &str) {
    let events = recorder.events();
    let count =
        |pred: fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count() as u64;
    let admitted = count(|k| matches!(k, EventKind::TaskAdmitted { .. }));
    let shed = count(|k| matches!(k, EventKind::TaskShed { .. }));
    let dropped = count(|k| matches!(k, EventKind::TaskDeadlineDropped { .. }));
    if admitted != counters.admitted
        || shed != counters.shed
        || dropped != counters.deadline_dropped
    {
        eprintln!(
            "load {label}: admission events diverge from counters \
             (events {admitted}/{shed}/{dropped}, counters {}/{}/{})",
            counters.admitted, counters.shed, counters.deadline_dropped
        );
        std::process::exit(1);
    }
    let text = jsonl::to_jsonl(&events);
    match jsonl::parse_jsonl(&text) {
        Ok(parsed) if parsed == events => {}
        Ok(_) => {
            eprintln!("load {label}: trace round-trip mismatch");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("load {label}: trace failed JSONL schema validation: {e}");
            std::process::exit(1);
        }
    }
    let path = format!("{}/load-{label}.trace.jsonl", dir.trim_end_matches('/'));
    if let Err(e) = std::fs::write(&path, &text) {
        eprintln!("load {label}: failed to write trace to {path}: {e}");
        std::process::exit(1);
    }
    println!("  wrote {} events to {path}", events.len());
}

/// One open-loop run through the native pipeline: `workers` CPU slots on a
/// single forwarding stage, per-task latencies streamed into histograms on
/// the worker threads.
fn native_load_run(
    arrivals: &[u64],
    admission: AdmissionConfig,
    mode: ExecMode,
    shape_us: u64,
    workers: usize,
    recorder: &Recorder,
) -> (anthill::local::LoadRunReport, [LatencyStats; 3], f64) {
    let mut p = Pipeline::new(PolicyKind::DdFcfs);
    p.add_stage(
        Arc::new(LoadForward),
        vec![
            WorkerSpec {
                kind: DeviceKind::Cpu,
                mode
            };
            workers
        ],
    );
    let weights = OracleWeights::new(GpuParams::geforce_8800gt(), true);
    let hists = std::sync::Mutex::new(LatTriple::new());
    let wall = std::time::Instant::now();
    let report = p.run_load(
        arrivals,
        &|i, _arrival| LocalTask::new(load_tile(i, shape_us), ()),
        LoadConfig {
            admission,
            sample_every: Duration::from_millis(2),
        },
        &weights,
        recorder,
        &|t, started_ns, finished_ns| {
            // The i-th task's scheduled arrival is recovered through the
            // buffer's task index; `started` is when a worker picked it up.
            let arrival = arrivals[t.buffer.task as usize];
            let e2e = finished_ns.saturating_sub(arrival);
            let service = finished_ns.saturating_sub(started_ns).min(e2e);
            hists.lock().unwrap().record(e2e - service, service, e2e);
        },
    );
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let stats = hists.into_inner().unwrap().stats();
    (report, stats, wall_ms)
}

/// Spawn `count` worker processes (this binary's hidden `worker`
/// subcommand) against a fresh loopback listener.
fn spawn_load_workers(
    label: &str,
    exe: &std::path::Path,
    behavior: &str,
    count: usize,
) -> (Vec<std::process::Child>, Vec<NetWorkerConn>) {
    let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("load {label}: failed to bind loopback listener: {e}");
            std::process::exit(1);
        }
    };
    let addr = listener.local_addr().expect("listener addr").to_string();
    let mut children = Vec::new();
    let mut workers = Vec::new();
    for index in 0..count {
        let child = match std::process::Command::new(exe)
            .args(["worker", &addr, behavior])
            .stdin(std::process::Stdio::null())
            .spawn()
        {
            Ok(c) => c,
            Err(e) => {
                eprintln!("load {label}: failed to spawn worker process: {e}");
                std::process::exit(1);
            }
        };
        children.push(child);
        match listener.accept() {
            Ok((stream, _)) => workers.push(NetWorkerConn {
                device: DeviceId {
                    node: 0,
                    kind: DeviceKind::Cpu,
                    index,
                },
                stream,
            }),
            Err(e) => {
                eprintln!("load {label}: worker failed to connect: {e}");
                std::process::exit(1);
            }
        }
    }
    (children, workers)
}

/// One open-loop run through the TCP coordinator with spawned worker
/// processes on loopback.
#[allow(clippy::too_many_arguments)]
fn net_load_run(
    label: &str,
    exe: &std::path::Path,
    arrivals: &[u64],
    admission: AdmissionConfig,
    behavior: &str,
    worker_count: usize,
    deadline: Duration,
    recorder: &Recorder,
) -> (anthill::net::NetLoadReport, [LatencyStats; 3], f64) {
    let (mut children, workers) = spawn_load_workers(label, exe, behavior, worker_count);
    let mut cfg = NetConfig::new(Policy::ddfcfs(4));
    cfg.recorder = recorder.clone();
    cfg.deadline = deadline;
    let mut hists = LatTriple::new();
    let wall = std::time::Instant::now();
    let report = match run_concurrent_load(
        cfg,
        admission,
        workers,
        arrivals,
        &mut |i, _arrival| load_tile(i, 50),
        Duration::from_millis(2),
        OracleWeights::new(GpuParams::geforce_8800gt(), false),
        &mut |t| hists.record(t.queue_ns, t.service_ns, t.e2e_ns),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("load {label}: coordinator failed: {e}");
            std::process::exit(1);
        }
    };
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    for child in &mut children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("load {label}: worker process exited with {status}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("load {label}: failed to reap worker process: {e}");
                std::process::exit(1);
            }
        }
    }
    (report, hists.stats(), wall_ms)
}

#[allow(clippy::too_many_arguments)]
fn push_load_row(
    rows: &mut Vec<LoadRunRow>,
    profile: &str,
    backend: &str,
    policy: OverloadPolicy,
    tasks: u64,
    admission: AdmissionCounters,
    completed: u64,
    stats: [LatencyStats; 3],
    queue_depth: Vec<DepthPoint>,
    wall_ms: f64,
) {
    println!(
        "{:<10} {:<8} {:<14} {:>8} {:>8} {:>7} {:>12.1} {:>12.1} {:>9.1}",
        profile,
        backend,
        policy.name(),
        tasks,
        completed,
        admission.shed + admission.deadline_dropped,
        stats[2].p50 as f64 / 1e3,
        stats[2].p99 as f64 / 1e3,
        wall_ms
    );
    rows.push(LoadRunRow {
        profile: profile.to_string(),
        backend: backend.to_string(),
        policy: policy.name().to_string(),
        tasks,
        admission,
        completed,
        queue: stats[0],
        service: stats[1],
        e2e: stats[2],
        queue_depth,
        wall_ms,
    });
}

/// Open-loop load CI gate: seed-deterministic arrival schedules drive the
/// native pipeline and the TCP coordinator under the `block` policy (every
/// arrival must complete), then saturating schedules exercise `shed_oldest`
/// and `deadline_drop` (intake must stay bounded, counters must conserve).
/// Writes and schema-validates `BENCH_load.json`; exits nonzero on any
/// failure.
fn load_gate(quick: bool, profile_sel: &str, trace_dir: Option<&str>) {
    header(
        "Load: open-loop arrival harness, native pipeline + TCP coordinator",
        "CI gate — admission conservation + bounded overload under arrival pressure (run-time optimization premise)",
    );
    let exe = std::env::current_exe().expect("own executable path");
    let n_poisson = if quick { 5_000usize } else { 100_000 };
    let n_other = if quick { 3_000usize } else { 30_000 };
    let net_deadline = Duration::from_secs(if quick { 60 } else { 300 });
    let profiles = [
        (ArrivalProfile::Poisson { rate_hz: 30_000.0 }, n_poisson),
        (
            ArrivalProfile::Bursty {
                rate_hz: 60_000.0,
                burst_ms: 5,
                idle_ms: 5,
            },
            n_other,
        ),
        (
            ArrivalProfile::Diurnal {
                peak_hz: 50_000.0,
                trough_hz: 5_000.0,
                period_ms: 40,
            },
            n_other,
        ),
    ];
    let mut rows: Vec<LoadRunRow> = Vec::new();
    println!(
        "{:<10} {:<8} {:<14} {:>8} {:>8} {:>7} {:>12} {:>12} {:>9}",
        "profile",
        "backend",
        "policy",
        "tasks",
        "done",
        "lost",
        "e2e p50(us)",
        "e2e p99(us)",
        "wall(ms)"
    );
    let recorder_for = || {
        if trace_dir.is_some() {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    };

    for (profile, n) in profiles {
        if profile_sel != "all" && profile_sel != profile.name() {
            continue;
        }
        let arrivals = profile.schedule(SEED, n);
        let tasks = n as u64;

        // Native backend, block policy: open-loop overload turns into
        // generator back-pressure, so every arrival must complete.
        {
            let label = format!("{}-native-block", profile.name());
            let recorder = recorder_for();
            let (report, stats, wall_ms) = native_load_run(
                &arrivals,
                AdmissionConfig::default(),
                ExecMode::Native,
                1,
                4,
                &recorder,
            );
            expect_load(
                &label,
                report.admission.conserved(),
                &format!("counters not conserved: {:?}", report.admission),
            );
            expect_load(
                &label,
                report.admission.generated == tasks && report.admission.admitted == tasks,
                &format!("block must admit every arrival: {:?}", report.admission),
            );
            expect_load(
                &label,
                report.completed == tasks,
                &format!("{} of {tasks} completed", report.completed),
            );
            expect_load(
                &label,
                !report.queue_depth.is_empty(),
                "queue-depth series is empty",
            );
            if let Some(dir) = trace_dir {
                check_load_trace(&label, &recorder, report.admission, dir);
            }
            push_load_row(
                &mut rows,
                profile.name(),
                "native",
                OverloadPolicy::Block,
                tasks,
                report.admission,
                report.completed,
                stats,
                report.queue_depth.iter().map(DepthPoint::from).collect(),
                wall_ms,
            );
        }

        // Net backend, block policy: the same schedule through the TCP
        // coordinator with two spawned identity worker processes.
        {
            let label = format!("{}-net-block", profile.name());
            let recorder = recorder_for();
            let (report, stats, wall_ms) = net_load_run(
                &label,
                &exe,
                &arrivals,
                AdmissionConfig::default(),
                "identity",
                2,
                net_deadline,
                &recorder,
            );
            expect_load(
                &label,
                report.admission.conserved(),
                &format!("counters not conserved: {:?}", report.admission),
            );
            expect_load(
                &label,
                report.admission.generated == tasks && report.admission.admitted == tasks,
                &format!("block must admit every arrival: {:?}", report.admission),
            );
            expect_load(
                &label,
                report.completed == tasks && report.outcome.total == tasks,
                &format!(
                    "{} completed, {} worker completions, {tasks} expected",
                    report.completed, report.outcome.total
                ),
            );
            expect_load(
                &label,
                !report.queue_depth.is_empty(),
                "queue-depth series is empty",
            );
            if let Some(dir) = trace_dir {
                check_load_trace(&label, &recorder, report.admission, dir);
            }
            push_load_row(
                &mut rows,
                profile.name(),
                "net",
                OverloadPolicy::Block,
                tasks,
                report.admission,
                report.completed,
                stats,
                report.queue_depth.iter().map(DepthPoint::from).collect(),
                wall_ms,
            );
        }
    }

    // Saturation runs ride with the Poisson selection: arrivals outpace
    // service capacity ~2x, so the overload policies must engage.
    if profile_sel == "all" || profile_sel == "poisson" {
        let n_sat = if quick { 2_000usize } else { 4_000 };
        let arrivals = ArrivalProfile::Poisson { rate_hz: 20_000.0 }.schedule(SEED + 1, n_sat);
        let tasks = n_sat as u64;

        // Native shed_oldest: two emulated 200 µs workers give ~10k/s of
        // capacity against 20k/s of arrivals; the queue must stay capped.
        {
            let label = "saturate-native-shed";
            let cfg = AdmissionConfig {
                inflight_cap: 8,
                queue_cap: 16,
                policy: OverloadPolicy::ShedOldest,
            };
            let recorder = recorder_for();
            let (report, stats, wall_ms) = native_load_run(
                &arrivals,
                cfg,
                ExecMode::Emulated { scale: 1.0 },
                200,
                2,
                &recorder,
            );
            expect_load(
                label,
                report.admission.conserved() && report.admission.generated == tasks,
                &format!("counters not conserved: {:?}", report.admission),
            );
            expect_load(
                label,
                report.admission.shed > 0,
                "a 2x-saturating schedule shed nothing",
            );
            expect_load(
                label,
                report.completed == report.admission.admitted,
                &format!(
                    "{} completed of {} admitted",
                    report.completed, report.admission.admitted
                ),
            );
            expect_load(
                label,
                report.queue_depth.iter().all(|s| s.intake <= 16),
                "intake exceeded queue_cap under shed_oldest",
            );
            if let Some(dir) = trace_dir {
                check_load_trace(label, &recorder, report.admission, dir);
            }
            push_load_row(
                &mut rows,
                "poisson",
                "native",
                cfg.policy,
                tasks,
                report.admission,
                report.completed,
                stats,
                report.queue_depth.iter().map(DepthPoint::from).collect(),
                wall_ms,
            );
        }

        // Native deadline_drop: same overload, but the bound is on waiting
        // time — anything older than 1 ms at intake must be dropped.
        {
            let label = "saturate-native-deadline";
            let cfg = AdmissionConfig {
                inflight_cap: 8,
                queue_cap: 16,
                policy: OverloadPolicy::DeadlineDrop {
                    deadline: SimDuration::from_millis(1),
                },
            };
            let recorder = recorder_for();
            let (report, stats, wall_ms) = native_load_run(
                &arrivals,
                cfg,
                ExecMode::Emulated { scale: 1.0 },
                200,
                2,
                &recorder,
            );
            expect_load(
                label,
                report.admission.conserved() && report.admission.generated == tasks,
                &format!("counters not conserved: {:?}", report.admission),
            );
            expect_load(
                label,
                report.admission.deadline_dropped > 0,
                "a 2x-saturating schedule dropped nothing past the deadline",
            );
            expect_load(
                label,
                report.completed == report.admission.admitted,
                &format!(
                    "{} completed of {} admitted",
                    report.completed, report.admission.admitted
                ),
            );
            if let Some(dir) = trace_dir {
                check_load_trace(label, &recorder, report.admission, dir);
            }
            push_load_row(
                &mut rows,
                "poisson",
                "native",
                cfg.policy,
                tasks,
                report.admission,
                report.completed,
                stats,
                report.queue_depth.iter().map(DepthPoint::from).collect(),
                wall_ms,
            );
        }

        // Net shed_oldest: one busy worker process (~300 µs/task) against
        // 10k/s of arrivals; the coordinator's intake must stay capped.
        {
            let label = "saturate-net-shed";
            let n_net = if quick { 1_500usize } else { 3_000 };
            let arrivals = ArrivalProfile::Poisson { rate_hz: 10_000.0 }.schedule(SEED + 2, n_net);
            let cfg = AdmissionConfig {
                inflight_cap: 4,
                queue_cap: 8,
                policy: OverloadPolicy::ShedOldest,
            };
            let recorder = recorder_for();
            let (report, stats, wall_ms) = net_load_run(
                label,
                &exe,
                &arrivals,
                cfg,
                "busy:300",
                1,
                net_deadline,
                &recorder,
            );
            expect_load(
                label,
                report.admission.conserved() && report.admission.generated == n_net as u64,
                &format!("counters not conserved: {:?}", report.admission),
            );
            expect_load(
                label,
                report.admission.shed > 0,
                "a saturating schedule shed nothing",
            );
            expect_load(
                label,
                report.completed == report.admission.admitted,
                &format!(
                    "{} completed of {} admitted",
                    report.completed, report.admission.admitted
                ),
            );
            expect_load(
                label,
                report.queue_depth.iter().all(|s| s.intake <= 8),
                "intake exceeded queue_cap under shed_oldest",
            );
            if let Some(dir) = trace_dir {
                check_load_trace(label, &recorder, report.admission, dir);
            }
            push_load_row(
                &mut rows,
                "poisson",
                "net",
                cfg.policy,
                n_net as u64,
                report.admission,
                report.completed,
                stats,
                report.queue_depth.iter().map(DepthPoint::from).collect(),
                wall_ms,
            );
        }
    }

    let text = render_load_report(&rows, quick, SEED);
    if let Err(e) = validate_load_report(&text) {
        eprintln!("load: BENCH_load.json failed schema validation: {e}");
        std::process::exit(1);
    }
    let out = if profile_sel == "all" {
        "BENCH_load.json".to_string()
    } else {
        format!("BENCH_load_{profile_sel}.json")
    };
    match std::fs::write(&out, &text) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("load: failed to write {out}: {e}");
            std::process::exit(1);
        }
    }
}

/// Abort the elastic gate with a labeled diagnosis.
fn elastic_fail(label: &str, why: &str) -> ! {
    eprintln!("elastic {label}: {why}");
    std::process::exit(1);
}

/// An in-process worker thread behind a real loopback TCP connection:
/// the coordinator side of the pair is returned, the worker side serves
/// `behavior` on its own thread. The protocol is byte-identical to a
/// spawned worker process; only the startup latency differs.
fn elastic_loopback_worker(label: &str, device: DeviceId, behavior: Behavior) -> NetWorkerConn {
    let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => elastic_fail(label, &format!("failed to bind loopback listener: {e}")),
    };
    let addr = listener.local_addr().expect("listener addr");
    let worker_side = match std::net::TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => elastic_fail(label, &format!("loopback connect failed: {e}")),
    };
    let coordinator = match listener.accept() {
        Ok((s, _)) => s,
        Err(e) => elastic_fail(label, &format!("loopback accept failed: {e}")),
    };
    spawn_worker_thread(worker_side, behavior);
    NetWorkerConn {
        device,
        stream: coordinator,
    }
}

/// Pre-connected standby workers for the autoscaler: `grow` hands out
/// the next idle connection until the standby set is exhausted.
struct StandbyPool {
    ready: std::collections::VecDeque<NetWorkerConn>,
}

impl WorkerPool for StandbyPool {
    type Worker = NetWorkerConn;

    fn grow(&mut self) -> Option<NetWorkerConn> {
        self.ready.pop_front()
    }
}

/// Elastic-membership CI gate (DESIGN.md §14). Two scenarios:
///
/// 1. **Rolling restart** — a live TCP run starts on two CPU workers,
///    two replacements join mid-run through the `Join`/`JoinAck`
///    handshake, and a drain schedule then retires each initial worker
///    exactly once. Zero task loss, zero deaths, the
///    `worker_joined`/`worker_draining`/`worker_left` trio in the trace,
///    no dispatch to a drained slot, and the joiners absorbing a real
///    share of the post-join work.
/// 2. **Autoscale** — a saturating open-loop Poisson schedule against
///    one busy worker, with the DQAA congestion-signal autoscaler
///    growing from a standby pool. Admission counters must conserve and
///    at least one scale-up must engage.
///
/// Writes and schema-validates `BENCH_elastic.json`; exits nonzero on
/// any failure.
fn elastic_gate(quick: bool, trace_dir: Option<&str>) {
    header(
        "Elastic: runtime membership — rolling restart + congestion autoscaler",
        "CI gate — dynamic join/drain with zero loss; DQAA congestion signals drive the pool (run-time adaptation premise)",
    );

    // ---------------------------------------------------- rolling restart
    let tasks: u64 = if quick { 240 } else { 960 };
    let label = "rolling";
    let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => elastic_fail(label, &format!("failed to bind join listener: {e}")),
    };
    let join_addr = listener.local_addr().expect("listener addr").to_string();
    let workers: Vec<NetWorkerConn> = (0..2)
        .map(|index| {
            elastic_loopback_worker(
                label,
                DeviceId {
                    node: 0,
                    kind: DeviceKind::Cpu,
                    index,
                },
                Behavior::Identity,
            )
        })
        .collect();
    // The replacements connect up front; the acceptor admits them from
    // the listener backlog once the run is live.
    let joiners: Vec<_> = (0..2)
        .map(|_| {
            spawn_joining_worker_thread(join_addr.clone(), 0, DeviceKind::Cpu, Behavior::Identity)
        })
        .collect();
    let drains = vec![
        DrainAt {
            after_completions: tasks / 4,
            slot: 0,
        },
        DrainAt {
            after_completions: tasks / 2,
            slot: 1,
        },
    ];
    let recorder = Recorder::enabled();
    let mut cfg = NetConfig::new(Policy::ddwrr(8));
    cfg.recovery = RecoveryConfig::standard();
    cfg.recorder = recorder.clone();
    let sources: Vec<DataBuffer> = (0..tasks).map(net_tile).collect();
    let wall = std::time::Instant::now();
    let out = match run_concurrent_elastic(
        cfg,
        listener,
        drains,
        workers,
        sources,
        OracleWeights::new(GpuParams::geforce_8800gt(), false),
    ) {
        Ok(out) => out,
        Err(e) => elastic_fail(label, &format!("coordinator failed: {e}")),
    };
    let rolling_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    for j in joiners {
        match j.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => elastic_fail(label, &format!("joiner thread failed: {e}")),
            Err(_) => elastic_fail(label, "joiner thread panicked"),
        }
    }
    if out.outcome.total != tasks {
        elastic_fail(
            label,
            &format!("lost work: {} of {tasks} completed", out.outcome.total),
        );
    }
    if out.outcome.deaths != 0 {
        elastic_fail(
            label,
            &format!("{} death(s) — drains must be graceful", out.outcome.deaths),
        );
    }
    if out.joins != 2 || out.drains != 2 {
        elastic_fail(
            label,
            &format!(
                "{} join(s), {} drain(s); expected 2 + 2",
                out.joins, out.drains
            ),
        );
    }

    let events = recorder.events();
    let count =
        |pred: fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count() as u64;
    let joined_events = count(|k| matches!(k, EventKind::WorkerJoined { .. }));
    let draining_events = count(|k| matches!(k, EventKind::WorkerDraining { .. }));
    let left_events = count(|k| matches!(k, EventKind::WorkerLeft));
    if joined_events != 2 || draining_events != 2 || left_events != 2 {
        elastic_fail(
            label,
            &format!(
                "trace trio mismatch: {joined_events} worker_joined, \
                 {draining_events} worker_draining, {left_events} worker_left"
            ),
        );
    }
    for (i, e) in events.iter().enumerate() {
        if !matches!(e.kind, EventKind::WorkerDraining { .. }) {
            continue;
        }
        let later = events[i + 1..]
            .iter()
            .filter(|l| l.origin == e.origin && matches!(l.kind, EventKind::Dispatch { .. }))
            .count();
        if later > 0 {
            elastic_fail(
                label,
                &format!(
                    "slot {} received {later} dispatch(es) after draining",
                    e.origin
                ),
            );
        }
    }
    // Joiner slots continue the io-slot numbering after the two initial
    // workers, so index >= 2 identifies them in the trace.
    let join_pos = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::WorkerJoined { .. }))
        .expect("worker_joined in trace");
    let post_join: Vec<_> = events[join_pos..]
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Finish { .. }))
        .collect();
    let joiner_done = post_join.iter().filter(|e| e.origin.index >= 2).count();
    let joiner_share = if post_join.is_empty() {
        0.0
    } else {
        joiner_done as f64 / post_join.len() as f64
    };
    if joiner_done == 0 {
        elastic_fail(label, "the joiners absorbed no post-join work");
    }
    if let Some(dir) = trace_dir {
        let text = jsonl::to_jsonl(&events);
        let path = format!("{}/elastic-rolling.trace.jsonl", dir.trim_end_matches('/'));
        if let Err(e) = std::fs::write(&path, &text) {
            elastic_fail(label, &format!("failed to write trace to {path}: {e}"));
        }
        println!("  wrote {} events to {path}", events.len());
    }
    let rolling = RollingRow {
        tasks,
        completed: out.outcome.total,
        deaths: u64::from(out.outcome.deaths),
        joins: u64::from(out.joins),
        drains: u64::from(out.drains),
        joined_events,
        draining_events,
        left_events,
        joiner_share,
        wall_ms: rolling_wall_ms,
    };
    println!(
        "rolling    {:>8} tasks  {:>2} joins  {:>2} drains  joiner share {:>5.1}%  {:>9.1} ms",
        tasks,
        out.joins,
        out.drains,
        joiner_share * 100.0,
        rolling_wall_ms
    );

    // --------------------------------------------------------- autoscale
    let label = "autoscale";
    let n = if quick { 1_500usize } else { 3_000 };
    let arrivals = ArrivalProfile::Poisson { rate_hz: 10_000.0 }.schedule(SEED + 3, n);
    // One ~200 µs worker (~5k/s of capacity) against 10k/s of arrivals:
    // the backlog crosses the grow watermark within milliseconds.
    let initial = vec![elastic_loopback_worker(
        label,
        DeviceId {
            node: 0,
            kind: DeviceKind::Cpu,
            index: 0,
        },
        Behavior::parse("busy:200").expect("busy behavior"),
    )];
    let max_workers = 4usize;
    let standby: std::collections::VecDeque<NetWorkerConn> = (1..max_workers)
        .map(|index| {
            elastic_loopback_worker(
                label,
                DeviceId {
                    node: 0,
                    kind: DeviceKind::Cpu,
                    index,
                },
                Behavior::parse("busy:200").expect("busy behavior"),
            )
        })
        .collect();
    let mut pool = StandbyPool { ready: standby };
    let admission = AdmissionConfig {
        inflight_cap: 32,
        queue_cap: 64,
        policy: OverloadPolicy::ShedOldest,
    };
    let mut cfg = NetConfig::new(Policy::ddfcfs(4));
    cfg.deadline = Duration::from_secs(if quick { 60 } else { 120 });
    let wall = std::time::Instant::now();
    let mut completions = 0u64;
    let report = match run_concurrent_load_autoscaled(
        cfg,
        admission,
        initial,
        &arrivals,
        &mut |i, _arrival| load_tile(i, 50),
        Duration::from_millis(2),
        OracleWeights::new(GpuParams::geforce_8800gt(), false),
        &mut |_t| completions += 1,
        ElasticLoad {
            autoscaler: Autoscaler::new(AutoscalerConfig::standard(1, max_workers)),
            pool: &mut pool,
        },
    ) {
        Ok(r) => r,
        Err(e) => elastic_fail(label, &format!("coordinator failed: {e}")),
    };
    let auto_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    if !report.admission.conserved() || report.admission.generated != n as u64 {
        elastic_fail(
            label,
            &format!("counters not conserved: {:?}", report.admission),
        );
    }
    if report.completed != report.admission.admitted {
        elastic_fail(
            label,
            &format!(
                "{} completed of {} admitted",
                report.completed, report.admission.admitted
            ),
        );
    }
    if report.scale_ups == 0 {
        elastic_fail(label, "the saturating schedule triggered no scale-up");
    }
    if report.outcome.deaths != 0 {
        elastic_fail(
            label,
            &format!("{} death(s) during autoscaled run", report.outcome.deaths),
        );
    }
    let autoscale = AutoscaleRow {
        tasks: n as u64,
        generated: report.admission.generated,
        admitted: report.admission.admitted,
        shed: report.admission.shed,
        deadline_dropped: report.admission.deadline_dropped,
        completed: report.completed,
        scale_ups: report.scale_ups,
        scale_downs: report.scale_downs,
        initial_workers: 1,
        max_workers: max_workers as u64,
        wall_ms: auto_wall_ms,
    };
    println!(
        "autoscale  {:>8} tasks  {:>2} ups    {:>2} downs   admitted {:>5}     {:>9.1} ms",
        n, report.scale_ups, report.scale_downs, report.admission.admitted, auto_wall_ms
    );

    let text = render_elastic_report(&rolling, &autoscale, quick, SEED);
    if let Err(e) = validate_elastic_report(&text) {
        eprintln!("elastic: BENCH_elastic.json failed schema validation: {e}");
        std::process::exit(1);
    }
    match std::fs::write("BENCH_elastic.json", &text) {
        Ok(()) => println!("wrote BENCH_elastic.json"),
        Err(e) => {
            eprintln!("elastic: failed to write BENCH_elastic.json: {e}");
            std::process::exit(1);
        }
    }
}

fn header(title: &str, paper: &str) {
    println!();
    println!("== {title} ==");
    println!("   paper reference: {paper}");
}

fn table1() {
    header(
        "Table 1: performance estimator errors (10-fold CV, k=2, 30 jobs)",
        "speedup err: BS 2.5 / N-body 7.3 / Heart 13.8 / kNN 8.8 / Eclat 11.3 / NBIA 7.4 (mean 8.52); CPU-time err 70.5 / 11.6 / 42.0 / 21.2 / 102.6 / 30.4",
    );
    let rows = estimator::table1(SEED);
    println!(
        "{:<18} {:>14} {:>16}",
        "Benchmark", "Speedup err %", "CPU time err %"
    );
    for r in &rows {
        println!(
            "{:<18} {:>14.2} {:>16.2}",
            r.app, r.speedup_err, r.cpu_time_err
        );
    }
    println!(
        "{:<18} {:>14.2}",
        "mean",
        estimator::table1_mean_speedup_error(&rows)
    );
}

fn sweep_k() {
    header(
        "Ablation: estimator k sweep (paper: k=2 near-best)",
        "k = 2 'achieved near-best estimations for all configurations'",
    );
    println!("{:<6} {:>20}", "k", "mean speedup err %");
    for (k, e) in estimator::table1_sweep_k(SEED, &[1, 2, 3, 4, 6, 8]) {
        println!("{k:<6} {e:>20.2}");
    }
}

fn sweep_models() {
    header(
        "Ablation: model-learning algorithms (paper future work)",
        "the paper uses plain kNN; fixed-speedup assumptions (Mars) are its critique target",
    );
    println!(
        "{:<20} {:>18} {:>18}",
        "model", "speedup err %", "CPU time err %"
    );
    for r in estimator::sweep_models(SEED) {
        println!(
            "{:<20} {:>18.2} {:>18.2}",
            r.model, r.speedup_err, r.cpu_time_err
        );
    }
}

fn fig6(s: &Scale) {
    header(
        "Fig. 6: NBIA GPU speedup vs tile size, sync vs async copy",
        "sync: ~1x @32², ~33x @512²; async removes ≤83% of transfer overhead (~20% app gain @512²)",
    );
    println!(
        "{:<8} {:>12} {:>12} {:>22}",
        "tile", "sync x", "async x", "xfer overhead cut %"
    );
    for r in transfer::fig6(&[32, 64, 128, 256, 512], s.fig6_tiles) {
        println!(
            "{:<8} {:>12.2} {:>12.2} {:>22.1}",
            format!("{0}x{0}", r.side),
            r.sync_speedup,
            r.async_speedup,
            r.transfer_reduction_pct
        );
    }
}

fn fig7(s: &Scale) {
    header(
        "Fig. 7: VI exec time vs #streams per chunk size",
        "time falls with stream count to a chunk-size-dependent optimum, then degrades",
    );
    let streams = transfer::STREAM_SWEEP;
    let rows = transfer::fig7(&[100_000, 500_000, 1_000_000], &streams, s.vi_len);
    print!("{:<10}", "streams");
    for c in [100_000u64, 500_000, 1_000_000] {
        print!(" {:>11}", format!("{}K", c / 1000));
    }
    println!();
    for &st in &streams {
        print!("{st:<10}");
        for c in [100_000u64, 500_000, 1_000_000] {
            let t = rows
                .iter()
                .find(|r| r.chunk == c && r.streams == st)
                .map(|r| r.exec_secs)
                .unwrap_or(f64::NAN);
            print!(" {t:>10.2}s");
        }
        println!();
    }
    let series: Vec<Series> = [100_000u64, 500_000, 1_000_000]
        .iter()
        .map(|&c| {
            Series::new(
                format!("{}K", c / 1000),
                rows.iter()
                    .filter(|r| r.chunk == c)
                    .map(|r| ((r.streams as f64).log2(), r.exec_secs))
                    .collect(),
            )
        })
        .collect();
    println!("(x axis: log2 streams)");
    print!(
        "{}",
        render(
            &series,
            ChartSpec {
                zero_y: false,
                ..ChartSpec::default()
            }
        )
    );
}

fn table2(s: &Scale) {
    header(
        "Table 2: VI best static stream count vs dynamic algorithm",
        "best static 16.50/16.16/16.15 s; dynamic 16.53/16.23/16.16 s (within ~1%)",
    );
    println!(
        "{:<10} {:>16} {:>14} {:>14} {:>8}",
        "chunk", "best static (s)", "@streams", "dynamic (s)", "ratio"
    );
    for r in transfer::table2(
        &[100_000, 500_000, 1_000_000],
        &transfer::STREAM_SWEEP,
        s.vi_len,
    ) {
        println!(
            "{:<10} {:>16.2} {:>14} {:>14.2} {:>8.3}",
            format!("{}K", r.chunk / 1000),
            r.best_static_secs,
            r.best_static_streams,
            r.dynamic_secs,
            r.dynamic_secs / r.best_static_secs
        );
    }
}

fn table3(s: &Scale) {
    header(
        "Table 3: CPU-only NBIA time vs recalculation rate",
        "0% 30s / 4% 350s / 8% 665s / 12% 974s / 16% 1287s / 20% 1532s",
    );
    println!("{:<8} {:>12}", "rate %", "time (s)");
    for (rate, t) in cluster::table3(&RATES, s.base_tiles) {
        println!("{:<8.0} {:>12.1}", rate * 100.0, t);
    }
}

fn fig8(s: &Scale) {
    header(
        "Fig. 8: intra-filter policies, 1 CPU+GPU node (sync copies)",
        "at 16%: GPU-only 16.06x, DDFCFS 16.78x, DDWRR 29.79x (DDWRR ~2x GPU-only)",
    );
    println!(
        "{:<8} {:>10} {:>10} {:>10}",
        "rate %", "GPU-only", "DDFCFS", "DDWRR"
    );
    for r in cluster::fig8(&RATES, s.base_tiles) {
        println!(
            "{:<8.0} {:>10.2} {:>10.2} {:>10.2}",
            r.rate * 100.0,
            r.gpu_only,
            r.ddfcfs,
            r.ddwrr
        );
    }
}

fn table4(s: &Scale) {
    header(
        "Table 4: % of tiles processed by the CPU at 16% recalc",
        "DDFCFS: 1.52% low / 14.70% high; DDWRR: 84.63% low / 0.16% high",
    );
    println!("{:<10} {:>12} {:>12}", "policy", "32x32 %", "512x512 %");
    for (name, low, high) in cluster::table4(s.base_tiles) {
        println!("{name:<10} {low:>12.2} {high:>12.2}");
    }
}

fn fig9(s: &Scale) {
    header(
        "Fig. 9: homogeneous base case (1 CPU+GPU node), async copies",
        "ODDS ≥ DDWRR even on one node (~23% at 20% recalc incl. async gains)",
    );
    stream_rows(cluster::fig9(&RATES, s.base_tiles));
}

fn fig10(s: &Scale) {
    header(
        "Fig. 10: heterogeneous base case (+1 dual-core CPU node)",
        "at 8%: DDWRR ~25x vs ODDS ~44x (ODDS exploits the CPU-only node)",
    );
    stream_rows(cluster::fig10(&RATES, s.base_tiles));
}

fn stream_rows(rows: Vec<cluster::StreamPolicyRow>) {
    println!(
        "{:<8} {:>10} {:>10} {:>10}",
        "rate %", "DDFCFS", "DDWRR", "ODDS"
    );
    for r in &rows {
        println!(
            "{:<8.0} {:>10.2} {:>10.2} {:>10.2}",
            r.rate * 100.0,
            r.ddfcfs,
            r.ddwrr,
            r.odds
        );
    }
    let series = vec![
        Series::new(
            "DDFCFS",
            rows.iter().map(|r| (r.rate * 100.0, r.ddfcfs)).collect(),
        ),
        Series::new(
            "DDWRR",
            rows.iter().map(|r| (r.rate * 100.0, r.ddwrr)).collect(),
        ),
        Series::new(
            "ODDS",
            rows.iter().map(|r| (r.rate * 100.0, r.odds)).collect(),
        ),
    ];
    print!("{}", render(&series, ChartSpec::default()));
}

fn table6(s: &Scale) {
    header(
        "Table 6: % of tiles processed by the GPU per resolution (8% recalc)",
        "homog: low 98.2/17.1/7.0, high 92.4/96.3/97.9; heter: low 84.9/16.7/0, high 85.7/92.9/97.6 (DDFCFS/DDWRR/ODDS)",
    );
    println!(
        "{:<15} {:<10} {:>12} {:>12}",
        "config", "policy", "low res %", "high res %"
    );
    for (c, p, low, high) in cluster::table6(s.base_tiles) {
        println!("{c:<15} {p:<10} {low:>12.2} {high:>12.2}");
    }
}

fn fig11(s: &Scale) {
    header(
        "Fig. 11: best static streamRequestSize (exhaustive) vs ODDS dynamic",
        "DDWRR prefers large windows, DDFCFS small ones; ODDS adapts at run time",
    );
    let windows = [1, 2, 4, 8, 16, 30, 50, 80];
    println!(
        "{:<8} {:>14} {:>14} {:>18}",
        "rate %", "best DDFCFS", "best DDWRR", "ODDS mean window"
    );
    for (rate, f, w, o) in cluster::fig11(&RATES[1..], &windows, s.base_tiles) {
        println!("{:<8.0} {f:>14} {w:>14} {o:>18.1}", rate * 100.0);
    }
}

fn fig12(s: &Scale, trace: Option<&str>) {
    header(
        "Fig. 12: ODDS dynamics on the heterogeneous base case (10% recalc)",
        "(a) near-full CPU utilization; (b) windows shrink at the high-res tail",
    );
    let recorder = if trace.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let r = cluster::fig12_traced(s.base_tiles, 20, recorder.clone());
    if let Some(path) = trace {
        let events = recorder.events();
        let text = if path.ends_with(".jsonl") {
            jsonl::to_jsonl(&events)
        } else {
            chrome::to_chrome_trace(&events)
        };
        match std::fs::write(path, text) {
            Ok(()) => println!("wrote {} trace events to {path}", events.len()),
            Err(e) => {
                eprintln!("failed to write trace to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("(a) utilization trace (fraction busy per 5% bucket):");
    for (dev, trace) in &r.util_traces {
        let cells: Vec<String> = trace
            .iter()
            .map(|&(_, u)| format!("{:3.0}", u * 100.0))
            .collect();
        println!("  {:<10} {}", dev.to_string(), cells.join(" "));
    }
    println!("(b) request-window trace (sampled):");
    for (dev, trace) in &r.request_traces {
        if trace.is_empty() {
            continue;
        }
        let n = trace.len();
        let step = (n / 20).max(1);
        let cells: Vec<String> = trace
            .iter()
            .step_by(step)
            .take(20)
            .map(|&(_, v)| format!("{v:3}"))
            .collect();
        println!("  {:<10} {}", dev.to_string(), cells.join(" "));
    }
    println!("request latency (p50/p95 across threads):");
    for kind in [
        anthill_hetsim::DeviceKind::Cpu,
        anthill_hetsim::DeviceKind::Gpu,
    ] {
        println!(
            "  {kind}: {} / {}",
            r.latency_quantile(kind, 0.5),
            r.latency_quantile(kind, 0.95)
        );
    }
    println!("speedup {:.2}", r.speedup());
}

fn fig13(s: &Scale) {
    header(
        "Fig. 13: scaling the homogeneous cluster (8% recalc, 267,420 tiles)",
        "DDWRR ~2x GPU-only; ODDS +15% over DDWRR; near-linear scaling",
    );
    scaling_rows(cluster::fig13(&[1, 2, 4, 7, 10, 14], s.scaling_tiles));
}

fn fig14(s: &Scale) {
    header(
        "Fig. 14: scaling the heterogeneous cluster (50% GPU-less nodes)",
        "ODDS ~2x DDWRR; 14 heterogeneous nodes far exceed 7 GPU-only machines",
    );
    scaling_rows(cluster::fig14(&[2, 4, 8, 10, 14], s.scaling_tiles));
}

fn mixed_gpus(s: &Scale) {
    header(
        "Extension: mixed GPU types (Section 6.2's remark)",
        "'on an environment with mixed GPU types, an optimal single value might not exist'",
    );
    println!(
        "{:<10} {:>14} {:>14} {:>12}",
        "streams", "8800GT (s)", "GTX280 (s)", "makespan"
    );
    for r in transfer::mixed_gpus(200_000, s.vi_len / 2, &[1, 4, 8, 16, 32, 64, 128]) {
        let label = if r.streams == 0 {
            "adaptive".to_string()
        } else {
            r.streams.to_string()
        };
        println!(
            "{label:<10} {:>14.2} {:>14.2} {:>12.2}",
            r.old_gpu_secs, r.new_gpu_secs, r.makespan_secs
        );
    }
}

fn concurrent_kernels(s: &Scale) {
    header(
        "Extension: concurrent kernels on one GPU (paper future work)",
        "'we intend to consider the concurrent execution of multiple tasks on the same GPU'",
    );
    println!("{:<8} {:>12}", "slots", "exec (s)");
    for r in transfer::concurrent_kernels(s.base_tiles as usize, &[1, 2, 4, 8, 16, 32]) {
        println!("{:<8} {:>12.2}", r.slots, r.exec_secs);
    }
}

fn fusion(s: &Scale) {
    header(
        "Ablation: fused vs unfused NBIA GPU filters",
        "'we also fused the GPU NBIA filters to avoid extra overhead due to unnecessary GPU/CPU data transfers'",
    );
    println!(
        "{:<8} {:>12} {:>12} {:>10}",
        "tile", "fused (s)", "unfused (s)", "overhead"
    );
    for r in transfer::ablate_fusion(&[32, 128, 512], s.fig6_tiles) {
        println!(
            "{:<8} {:>12.2} {:>12.2} {:>9.1}%",
            format!("{0}x{0}", r.side),
            r.fused_secs,
            r.unfused_secs,
            100.0 * (r.unfused_secs / r.fused_secs - 1.0)
        );
    }
}

fn slow_node(s: &Scale) {
    header(
        "Extension: perturbed (slowed) CPU-only node, heterogeneous base case",
        "adaptivity claim beyond the paper: DQAA rebalances around a degraded machine",
    );
    println!("{:<10} {:>10} {:>10}", "speed", "DDWRR", "ODDS");
    for r in cluster::perturb_slow_node(&[1.0, 0.75, 0.5, 0.25], s.base_tiles) {
        println!("{:<10.2} {:>10.2} {:>10.2}", r.speed, r.ddwrr, r.odds);
    }
}

fn scaling_rows(rows: Vec<cluster::ScalingRow>) {
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10}",
        "nodes", "GPU-only", "DDFCFS", "DDWRR", "ODDS"
    );
    for r in &rows {
        println!(
            "{:<8} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            r.nodes, r.gpu_only, r.ddfcfs, r.ddwrr, r.odds
        );
    }
    let xs = |f: &dyn Fn(&cluster::ScalingRow) -> f64| {
        rows.iter()
            .map(|r| (r.nodes as f64, f(r)))
            .collect::<Vec<_>>()
    };
    let series = vec![
        Series::new("GPU-only", xs(&|r| r.gpu_only)),
        Series::new("DDFCFS", xs(&|r| r.ddfcfs)),
        Series::new("DDWRR", xs(&|r| r.ddwrr)),
        Series::new("ODDS", xs(&|r| r.odds)),
    ];
    print!("{}", render(&series, ChartSpec::default()));
}
