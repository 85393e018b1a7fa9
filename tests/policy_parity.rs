//! Cross-backend policy parity: the scheduling engine is the single owner
//! of every policy decision, so pushing the *same* deterministic workload
//! through three different drivers — the virtual-time DES, the native
//! runtime's deterministic executor, and the TCP backend's lockstep
//! coordinator with real worker sockets — must yield *identical*
//! per-device assignment counts for every policy.
//!
//! Construction: a device-neutral workload (every task costs exactly the
//! same on a CPU as on a sync GPU, zero bytes on the wire) removes all
//! cost asymmetry, so the counts are purely the engine's doing; any
//! divergence means a backend grew its own scheduling logic.
//!
//! The second half extends the same contract to *dataflow graphs*: a
//! three-filter pipeline and a fan-out/fan-in diamond, each filter
//! replicated over one CPU and one GPU, must produce identical per-filter
//! per-device assignment counts and identical per-edge delivery counts on
//! all four graph backends — the sequential reference executor, the
//! virtual-time DES, the native threaded runtime's deterministic executor,
//! and the TCP lockstep coordinator over real sockets.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use common::{
    assert_jsonl_round_trip, count_events, cpu_gpu_workers, diamond, graph_loopback_workers,
    loopback_workers, mk_task, neutral_buffer, neutral_gpu, neutral_oracle, neutral_shape, oracle,
    pipeline3, single_filter_graph,
};

use anthill_repro::core::buffer::DataBuffer;
use anthill_repro::core::engine::sequential::{
    run_graph, GraphEmission, GraphOutcome, SequentialConfig,
};
use anthill_repro::core::graph::DataflowGraph;
use anthill_repro::core::local::{Emitter, LocalFilter, LocalTask, Pipeline};
use anthill_repro::core::membership::{MemberAction, MembershipSchedule, ScheduledAction};
use anthill_repro::core::net::{run_graph_deterministic, Behavior, NetConfig, NetGraphOutcome};
use anthill_repro::core::obs::{EventKind, Recorder};
use anthill_repro::core::policy::learned::LearnedWeights;
use anthill_repro::core::policy::Policy;
use anthill_repro::core::sim::{
    run_graph_sim, run_nbia, GraphSimConfig, GraphSimReport, SimConfig, WorkloadSpec,
};
use anthill_repro::core::weights::{OracleWeights, WeightProvider};
use anthill_repro::estimator::fnv1a64;
use anthill_repro::hetsim::{ClusterSpec, DeviceId, DeviceKind, NodeSpec};

const TILES: u64 = 120;

/// The learner seed every backend must share for stateful-policy parity.
/// [`des_counts`] goes through [`run_nbia`], which wraps the base provider
/// itself using `SimConfig::new`'s default seed — so the explicit
/// providers below must be built with the same one.
const PARITY_SEED: u64 = 0x5EED;

/// The provider a non-DES backend drives the engine with: the neutral
/// oracle, wrapped in a learner for the learned policy kinds — mirroring
/// exactly what [`run_nbia`] builds internally for [`des_counts`].
fn parity_provider(policy: Policy) -> Box<dyn WeightProvider> {
    if policy.kind.learned() {
        Box::new(LearnedWeights::new(
            policy.kind,
            neutral_oracle(),
            PARITY_SEED,
        ))
    } else {
        Box::new(neutral_oracle())
    }
}

fn neutral_workload() -> WorkloadSpec {
    WorkloadSpec {
        tiles: TILES,
        recalc_rate: 0.0,
        shapes: Some((neutral_shape(), neutral_shape())),
        ..WorkloadSpec::paper_base(0.0)
    }
}

/// Per-device assignment counts from the DES backend.
fn des_counts(policy: Policy) -> HashMap<DeviceKind, u64> {
    let w = neutral_workload();
    let mut cfg = SimConfig::new(
        ClusterSpec::new(vec![NodeSpec {
            cpu_cores: 1,
            gpus: 1,
        }]),
        policy,
    );
    cfg.gpu = neutral_gpu();
    cfg.async_transfers = false;
    cfg.use_estimator = false;
    let report = run_nbia(&cfg, &w);
    assert_eq!(report.total_tasks, TILES);
    let mut counts = HashMap::new();
    for (&(kind, _level), &n) in &report.tasks_by {
        *counts.entry(kind).or_insert(0) += n;
    }
    counts
}

/// Forwards tasks unchanged.
struct Identity;
impl LocalFilter for Identity {
    fn handle(&self, _d: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
        out.forward(task);
    }
}

/// Per-device assignment counts from the native runtime's deterministic
/// executor, fed the same buffers the DES seeds its readers with.
fn native_counts(policy: Policy) -> HashMap<DeviceKind, u64> {
    let w = neutral_workload();
    let sources: Vec<LocalTask> = (0..TILES)
        .map(|t| LocalTask::new(w.low_buffer(t), ()))
        .collect();
    let mut p = Pipeline::new(policy.kind).with_request_window(policy.request_size);
    p.add_stage(Arc::new(Identity), cpu_gpu_workers());
    let weights = parity_provider(policy);
    let (out, report) = p.run_deterministic(sources, &weights, MembershipSchedule::none());
    assert_eq!(out.len() as u64, TILES);
    let mut counts = HashMap::new();
    for (&(_stage, kind, _level), &n) in &report.handled {
        *counts.entry(kind).or_insert(0) += n;
    }
    counts
}

/// Per-device assignment counts from the TCP backend's lockstep
/// coordinator, driving one CPU and one GPU worker thread over real
/// loopback sockets — fed the same buffers the DES seeds its readers
/// with. The merged trace carries one re-stamped worker span per task and
/// survives the JSONL schema.
fn net_counts(policy: Policy) -> HashMap<DeviceKind, u64> {
    let w = neutral_workload();
    let sources = (0..TILES).map(|t| (0, w.low_buffer(t))).collect();
    let workers = loopback_workers(&[DeviceKind::Cpu, DeviceKind::Gpu], Behavior::Identity);
    let mut cfg = NetConfig::new(policy);
    cfg.recorder = Recorder::enabled();
    let recorder = cfg.recorder.clone();
    let out = run_graph_deterministic(
        cfg,
        &single_filter_graph(),
        vec![workers],
        sources,
        parity_provider(policy),
        &mut |_, _, _| None,
    )
    .expect("loopback net run");
    assert_eq!(out.total, TILES);
    let events = recorder.events();
    assert_eq!(
        count_events(&events, |k| matches!(k, EventKind::RemoteFinish { .. })),
        out.total,
        "one remote_finish per task"
    );
    assert_jsonl_round_trip(&events);
    let mut counts = HashMap::new();
    for (&(_filter, kind, _level), &n) in &out.assigned {
        *counts.entry(kind).or_insert(0) += n;
    }
    counts
}

/// Per-device assignment counts from the sequential reference executor.
fn seq_counts(policy: Policy) -> HashMap<DeviceKind, u64> {
    use anthill_repro::core::engine::sequential::{run, Emission};
    let w = neutral_workload();
    let sources = (0..TILES).map(|t| w.low_buffer(t)).collect();
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
    let out = run(
        SequentialConfig::new(policy),
        &devices,
        sources,
        parity_provider(policy),
        |_, _| Emission::default(),
    );
    assert_eq!(out.total, TILES);
    let mut counts = HashMap::new();
    for (&(kind, _level), &n) in &out.assigned {
        *counts.entry(kind).or_insert(0) += n;
    }
    counts
}

fn assert_parity(policy: Policy, name: &str) {
    let seq = seq_counts(policy);
    let des = des_counts(policy);
    let native = native_counts(policy);
    let net = net_counts(policy);
    assert_eq!(
        seq, des,
        "{name}: sequential and DES drivers assigned devices differently"
    );
    assert_eq!(
        des, native,
        "{name}: DES and native drivers assigned devices differently"
    );
    assert_eq!(
        des, net,
        "{name}: DES and TCP drivers assigned devices differently"
    );
    let total: u64 = des.values().sum();
    assert_eq!(total, TILES, "{name}: tasks lost or duplicated");
}

#[test]
fn ddfcfs_assignments_match_across_backends() {
    assert_parity(Policy::ddfcfs(4), "DDFCFS");
}

#[test]
fn ddwrr_assignments_match_across_backends() {
    assert_parity(Policy::ddwrr(4), "DDWRR");
}

#[test]
fn odds_assignments_match_across_backends() {
    assert_parity(Policy::odds(), "ODDS");
}

/// The learned policies carry mutable state (online profile, residency
/// map, bandit arms), so their parity is a stronger claim than the
/// classics': every backend must drive the engine's `decide`/`observe`
/// callbacks in the same order, or the learners diverge and the counts
/// split.
#[test]
fn affinity_assignments_match_across_backends() {
    assert_parity(Policy::affinity(4), "AFFINITY");
}

#[test]
fn bandit_assignments_match_across_backends() {
    assert_parity(Policy::bandit(4), "BANDIT");
}

#[test]
fn parity_counts_are_reproducible() {
    for policy in [
        Policy::ddfcfs(4),
        Policy::ddwrr(4),
        Policy::odds(),
        Policy::affinity(4),
        Policy::bandit(4),
    ] {
        assert_eq!(des_counts(policy), des_counts(policy));
        assert_eq!(native_counts(policy), native_counts(policy));
        assert_eq!(net_counts(policy), net_counts(policy));
    }
}

// ---------------------------------------------------------------------
// Graph parity: per-(filter, device) assignment counts and per-edge
// delivery counts across all four graph backends.
// ---------------------------------------------------------------------

/// Tasks per graph parity run — enough for every round-robin cursor and
/// weight window to turn over several times.
const GRAPH_TILES: u64 = 48;

/// What every graph backend must agree on.
#[derive(Debug, PartialEq, Eq)]
struct GraphCounts {
    /// `(filter, device kind) -> completions`, levels collapsed.
    assigned: HashMap<(usize, DeviceKind), u64>,
    /// `edge id -> buffers delivered`.
    edges: HashMap<u32, u64>,
    /// Completions across all filters.
    total: u64,
}

fn collapse(assigned: &HashMap<(usize, DeviceKind, u8), u64>) -> HashMap<(usize, DeviceKind), u64> {
    let mut out = HashMap::new();
    for (&(filter, kind, _level), &n) in assigned {
        *out.entry((filter, kind)).or_insert(0) += n;
    }
    out
}

fn graph_seeds(filter: usize) -> Vec<(usize, DataBuffer)> {
    (0..GRAPH_TILES)
        .map(|t| (filter, neutral_buffer(t)))
        .collect()
}

/// Pass-through filter logic for the buffer-level backends: forward every
/// completion unchanged and let the graph's routing rule place it.
fn forward_all(_filter: usize, _kind: DeviceKind, b: &DataBuffer) -> GraphEmission {
    GraphEmission {
        forward: vec![b.clone()],
        feedback: Vec::new(),
    }
}

/// The sequential reference executor.
fn seq_graph_run(policy: Policy, graph: &DataflowGraph) -> GraphOutcome {
    let devices: Vec<Vec<DeviceId>> = (0..graph.n_filters())
        .map(|f| {
            [DeviceKind::Cpu, DeviceKind::Gpu]
                .iter()
                .map(|&kind| DeviceId {
                    node: f,
                    kind,
                    index: 0,
                })
                .collect()
        })
        .collect();
    run_graph(
        SequentialConfig::new(policy),
        graph,
        &devices,
        graph_seeds(0),
        parity_provider(policy),
        MembershipSchedule::none(),
        forward_all,
    )
}

fn seq_graph_counts(policy: Policy, graph: &DataflowGraph) -> GraphCounts {
    let out = seq_graph_run(policy, graph);
    GraphCounts {
        assigned: collapse(&out.assigned),
        edges: out.edge_delivered,
        total: out.total,
    }
}

/// The virtual-time DES graph runner.
fn des_graph_counts(policy: Policy, graph: &DataflowGraph) -> GraphCounts {
    let mut cfg = GraphSimConfig::new(policy);
    cfg.gpu = neutral_gpu();
    let devices: Vec<Vec<DeviceKind>> = (0..graph.n_filters())
        .map(|_| vec![DeviceKind::Cpu, DeviceKind::Gpu])
        .collect();
    let report = run_graph_sim(
        &cfg,
        graph,
        &devices,
        graph_seeds(0),
        parity_provider(policy),
        forward_all,
    );
    GraphCounts {
        assigned: collapse(&report.assigned),
        edges: report.edge_delivered,
        total: report.total,
    }
}

/// The native threaded runtime's deterministic executor.
fn native_graph_counts(policy: Policy, graph: &DataflowGraph) -> GraphCounts {
    let mut p = Pipeline::new(policy.kind)
        .with_graph(graph.clone())
        .with_request_window(policy.request_size);
    for _ in 0..graph.n_filters() {
        p.add_stage(Arc::new(Identity), cpu_gpu_workers());
    }
    let sources: Vec<LocalTask> = (0..GRAPH_TILES)
        .map(|t| LocalTask::new(neutral_buffer(t), ()))
        .collect();
    let weights = parity_provider(policy);
    let (out, report) = p.run_deterministic(sources, &weights, MembershipSchedule::none());
    assert_eq!(
        out.len() as u64,
        GRAPH_TILES,
        "every task must leave the graph"
    );
    let total = report.total();
    GraphCounts {
        assigned: collapse(&report.handled),
        edges: report.edge_delivered,
        total,
    }
}

/// The TCP backend's graph lockstep coordinator over loopback sockets.
fn net_graph_run(policy: Policy, graph: &DataflowGraph) -> NetGraphOutcome {
    net_graph_run_with(NetConfig::new(policy), graph)
}

fn net_graph_run_with(cfg: NetConfig, graph: &DataflowGraph) -> NetGraphOutcome {
    let kinds = [DeviceKind::Cpu, DeviceKind::Gpu];
    let filters: Vec<&[DeviceKind]> = (0..graph.n_filters()).map(|_| &kinds[..]).collect();
    let workers = graph_loopback_workers(&filters, Behavior::Identity);
    let weights = parity_provider(cfg.policy);
    run_graph_deterministic(
        cfg,
        graph,
        workers,
        graph_seeds(0),
        weights,
        &mut |_, _, _| None,
    )
    .expect("loopback graph net run")
}

fn net_graph_counts(policy: Policy, graph: &DataflowGraph) -> GraphCounts {
    let out = net_graph_run(policy, graph);
    GraphCounts {
        assigned: collapse(&out.assigned),
        edges: out.edge_delivered,
        total: out.total,
    }
}

fn assert_graph_parity(policy: Policy, graph: &DataflowGraph, name: &str, crossings: u64) {
    let seq = seq_graph_counts(policy, graph);
    let des = des_graph_counts(policy, graph);
    let native = native_graph_counts(policy, graph);
    let net = net_graph_counts(policy, graph);
    assert_eq!(
        seq, des,
        "{name}: sequential and DES graph runs assigned devices differently"
    );
    assert_eq!(
        seq, native,
        "{name}: sequential and native graph runs assigned devices differently"
    );
    assert_eq!(
        seq, net,
        "{name}: sequential and TCP graph runs assigned devices differently"
    );
    // The lockstep coordinator replays the reference's callback order, so
    // the two also agree on which filter ran which buffer when.
    assert_eq!(
        seq_graph_run(policy, graph).dispatch_order,
        net_graph_run(policy, graph).dispatch_order,
        "{name}: sequential and TCP graph runs dispatched in different orders"
    );
    assert_eq!(
        seq.total,
        GRAPH_TILES * crossings,
        "{name}: each task must cross exactly {crossings} filters"
    );
    let delivered: u64 = seq.edges.values().sum();
    assert_eq!(
        delivered,
        GRAPH_TILES * (crossings - 1),
        "{name}: each task must traverse exactly {} edges",
        crossings - 1
    );
}

#[test]
fn pipeline_graph_parity_ddfcfs() {
    assert_graph_parity(Policy::ddfcfs(4), &pipeline3(), "pipeline3/DDFCFS", 3);
}

#[test]
fn pipeline_graph_parity_ddwrr() {
    assert_graph_parity(Policy::ddwrr(4), &pipeline3(), "pipeline3/DDWRR", 3);
}

#[test]
fn pipeline_graph_parity_odds() {
    assert_graph_parity(Policy::odds(), &pipeline3(), "pipeline3/ODDS", 3);
}

#[test]
fn diamond_graph_parity_ddfcfs() {
    assert_graph_parity(Policy::ddfcfs(4), &diamond(), "diamond/DDFCFS", 3);
}

#[test]
fn diamond_graph_parity_ddwrr() {
    assert_graph_parity(Policy::ddwrr(4), &diamond(), "diamond/DDWRR", 3);
}

#[test]
fn diamond_graph_parity_odds() {
    assert_graph_parity(Policy::odds(), &diamond(), "diamond/ODDS", 3);
}

#[test]
fn pipeline_graph_parity_affinity() {
    assert_graph_parity(Policy::affinity(4), &pipeline3(), "pipeline3/AFFINITY", 3);
}

#[test]
fn pipeline_graph_parity_bandit() {
    assert_graph_parity(Policy::bandit(4), &pipeline3(), "pipeline3/BANDIT", 3);
}

#[test]
fn diamond_graph_parity_affinity() {
    assert_graph_parity(Policy::affinity(4), &diamond(), "diamond/AFFINITY", 3);
}

#[test]
fn diamond_graph_parity_bandit() {
    assert_graph_parity(Policy::bandit(4), &diamond(), "diamond/BANDIT", 3);
}

/// The degenerate one-filter graph is invisible: running the native
/// deterministic executor with an explicit [`single_filter_graph`] yields
/// the same outputs (in order) and the same per-device counts as the flat,
/// graph-free pipeline, for every policy.
#[test]
fn single_filter_graph_is_invisible_on_the_native_backend() {
    let weights = OracleWeights::new(neutral_gpu(), false);
    let sources = || -> Vec<LocalTask> {
        (0..GRAPH_TILES)
            .map(|t| LocalTask::new(neutral_buffer(t), ()))
            .collect()
    };
    for policy in [Policy::ddfcfs(4), Policy::ddwrr(4), Policy::odds()] {
        let mut flat = Pipeline::new(policy.kind).with_request_window(policy.request_size);
        flat.add_stage(Arc::new(Identity), cpu_gpu_workers());
        let (flat_out, flat_report) =
            flat.run_deterministic(sources(), &weights, MembershipSchedule::none());

        let mut graph = Pipeline::new(policy.kind)
            .with_graph(single_filter_graph())
            .with_request_window(policy.request_size);
        graph.add_stage(Arc::new(Identity), cpu_gpu_workers());
        let (graph_out, graph_report) =
            graph.run_deterministic(sources(), &weights, MembershipSchedule::none());

        assert_eq!(flat_report.handled, graph_report.handled, "{policy:?}");
        let ids = |out: &[LocalTask]| out.iter().map(|t| t.buffer.id.0).collect::<Vec<_>>();
        assert_eq!(ids(&flat_out), ids(&graph_out), "{policy:?}: output order");
    }
}

// ---------------------------------------------------------------------
// Elastic membership parity: a scripted join/drain schedule replayed on
// the sequential reference driver, the DES, and the native deterministic
// executor must land identical per-device assignment counts.
// ---------------------------------------------------------------------

/// The scripted membership scenario: a CPU joins a third of the way in,
/// a GPU joins at the halfway mark, and the *original* CPU drains once
/// the joiners are warm. Thresholds are completion counts, so every
/// deterministic backend replays the script at the same causal point.
fn elastic_script() -> MembershipSchedule {
    MembershipSchedule::new(vec![
        ScheduledAction {
            after_completions: 40,
            action: MemberAction::Join {
                node: 0,
                kind: DeviceKind::Cpu,
            },
        },
        ScheduledAction {
            after_completions: 60,
            action: MemberAction::Join {
                node: 0,
                kind: DeviceKind::Gpu,
            },
        },
        ScheduledAction {
            after_completions: 80,
            action: MemberAction::Drain { node: 0, worker: 0 },
        },
    ])
}

/// Sequential reference driver under the elastic script.
fn seq_elastic_counts(policy: Policy) -> HashMap<DeviceKind, u64> {
    let w = neutral_workload();
    let sources = (0..TILES).map(|t| (0, w.low_buffer(t))).collect();
    let devices = vec![
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
    let out = run_graph(
        SequentialConfig::new(policy),
        &single_filter_graph(),
        &[devices],
        sources,
        neutral_oracle(),
        elastic_script(),
        |_, _, _| GraphEmission::default(),
    );
    assert_eq!(out.total, TILES);
    let mut counts = HashMap::new();
    for (&(_filter, kind, _level), &n) in &out.assigned {
        *counts.entry(kind).or_insert(0) += n;
    }
    counts
}

/// DES backend under the elastic script ([`des_counts`] plus membership).
fn des_elastic_counts(policy: Policy) -> HashMap<DeviceKind, u64> {
    let w = neutral_workload();
    let mut cfg = SimConfig::new(
        ClusterSpec::new(vec![NodeSpec {
            cpu_cores: 1,
            gpus: 1,
        }]),
        policy,
    );
    cfg.gpu = neutral_gpu();
    cfg.async_transfers = false;
    cfg.use_estimator = false;
    cfg.membership = elastic_script();
    let report = run_nbia(&cfg, &w);
    assert_eq!(report.total_tasks, TILES);
    let mut counts = HashMap::new();
    for (&(kind, _level), &n) in &report.tasks_by {
        *counts.entry(kind).or_insert(0) += n;
    }
    counts
}

/// Native deterministic executor under the elastic script.
fn native_elastic_counts(policy: Policy) -> HashMap<DeviceKind, u64> {
    let w = neutral_workload();
    let sources: Vec<LocalTask> = (0..TILES)
        .map(|t| LocalTask::new(w.low_buffer(t), ()))
        .collect();
    let mut p = Pipeline::new(policy.kind).with_request_window(policy.request_size);
    p.add_stage(Arc::new(Identity), cpu_gpu_workers());
    let weights = OracleWeights::new(neutral_gpu(), false);
    let (out, report) = p.run_deterministic(sources, &weights, elastic_script());
    assert_eq!(out.len() as u64, TILES);
    let mut counts = HashMap::new();
    for (&(_stage, kind, _level), &n) in &report.handled {
        *counts.entry(kind).or_insert(0) += n;
    }
    counts
}

/// The membership tentpole's parity acceptance: the scripted join/drain
/// schedule must produce identical per-device assignment counts on the
/// sequential, DES, and native backends, for every policy — elasticity
/// is an engine feature, not a backend feature.
#[test]
fn elastic_script_assignments_match_across_backends() {
    for policy in [Policy::ddfcfs(4), Policy::ddwrr(4), Policy::odds()] {
        let seq = seq_elastic_counts(policy);
        let des = des_elastic_counts(policy);
        let native = native_elastic_counts(policy);
        assert_eq!(
            seq, des,
            "{policy:?}: sequential and DES elastic runs assigned devices differently"
        );
        assert_eq!(
            seq, native,
            "{policy:?}: sequential and native elastic runs assigned devices differently"
        );
        let total: u64 = seq.values().sum();
        assert_eq!(total, TILES, "{policy:?}: tasks lost or duplicated");
    }
}

/// The diamond's round-robin split is an exact function of the cursor, so
/// the per-edge counts are pinned, not merely equal across backends.
#[test]
fn diamond_split_is_exactly_half_on_every_backend() {
    let g = diamond();
    for counts in [
        seq_graph_counts(Policy::ddfcfs(4), &g),
        des_graph_counts(Policy::ddfcfs(4), &g),
        native_graph_counts(Policy::ddfcfs(4), &g),
        net_graph_counts(Policy::ddfcfs(4), &g),
    ] {
        for edge in 0..4u32 {
            assert_eq!(counts.edges[&edge], GRAPH_TILES / 2, "edge {edge}");
        }
    }
}

// ---------------------------------------------------------------------
// Graph DES pins: the virtual times, output order and edge tallies of the
// graph simulator as literals, so a rewrite of the DES world behind
// `run_graph_sim` shows up as a moved number rather than as a count that
// still happens to agree with the other backends.
// ---------------------------------------------------------------------

/// What a graph DES run is pinned by: makespan in nanoseconds, FNV-1a-64 of
/// the output buffer ids in completion order (little-endian `u64`s), and
/// the per-edge delivery tallies in edge order.
type GraphSimPin = (u64, u64, Vec<(u32, u64)>);

fn graph_sim_pin(report: &GraphSimReport) -> GraphSimPin {
    let ids: Vec<u8> = report
        .outputs
        .iter()
        .flat_map(|b| b.id.0.to_le_bytes())
        .collect();
    let mut edges: Vec<(u32, u64)> = report
        .edge_delivered
        .iter()
        .map(|(&e, &n)| (e, n))
        .collect();
    edges.sort_unstable();
    (report.makespan.as_nanos(), fnv1a64(&ids), edges)
}

/// `[Cpu, Gpu]` per filter, 48 seeds into filter 0, pass-through logic.
fn des_graph_pin(
    cfg: &GraphSimConfig,
    graph: &DataflowGraph,
    seeds: Vec<(usize, DataBuffer)>,
    weights: Box<dyn WeightProvider>,
) -> GraphSimPin {
    let devices = vec![vec![DeviceKind::Cpu, DeviceKind::Gpu]; graph.n_filters()];
    graph_sim_pin(&run_graph_sim(
        cfg,
        graph,
        &devices,
        seeds,
        weights,
        forward_all,
    ))
}

/// The parity runs above: device-neutral 400 us tasks with nothing on the
/// wire. Every policy pops them in seed order and both topologies have the
/// same depth, so all six runs share one makespan and one output order.
#[test]
fn graph_des_neutral_runs_are_pinned() {
    let tallies = [
        (pipeline3(), vec![(0, 48), (1, 48)]),
        (diamond(), vec![(0, 24), (1, 24), (2, 24), (3, 24)]),
    ];
    for (graph, edges) in tallies {
        for policy in [Policy::ddfcfs(4), Policy::ddwrr(8), Policy::odds()] {
            let mut cfg = GraphSimConfig::new(policy);
            cfg.gpu = neutral_gpu();
            assert_eq!(
                des_graph_pin(&cfg, &graph, graph_seeds(0), parity_provider(policy)),
                (10_568_000, 0xb3b7_7ea8_2cd3_a625, edges.clone()),
                "{policy:?}"
            );
        }
    }
}

/// The same two topologies priced for real: [`mk_task`]'s four tile sizes
/// on the paper's GPU and network, where the policies order, route and
/// finish differently.
#[test]
fn graph_des_mixed_size_runs_are_pinned() {
    let pin = |policy: Policy, graph: &DataflowGraph| {
        let seeds = (0..GRAPH_TILES).map(|t| (0, mk_task(t).buffer)).collect();
        des_graph_pin(
            &GraphSimConfig::new(policy),
            graph,
            seeds,
            Box::new(oracle()),
        )
    };
    let (p3, p3_edges) = (pipeline3(), vec![(0, 48), (1, 48)]);
    assert_eq!(
        pin(Policy::ddfcfs(4), &p3),
        (147_909_043, 0x27ab_0481_cc97_6e45, p3_edges.clone())
    );
    assert_eq!(
        pin(Policy::ddwrr(8), &p3),
        (147_755_551, 0x089b_7016_2758_dd05, p3_edges.clone())
    );
    assert_eq!(
        pin(Policy::odds(), &p3),
        (147_745_247, 0xdb0b_982f_52a9_2465, p3_edges)
    );
    let (d, d_edges) = (diamond(), vec![(0, 24), (1, 24), (2, 24), (3, 24)]);
    assert_eq!(
        pin(Policy::ddfcfs(4), &d),
        (147_909_043, 0x0fdc_14e5_ac0a_36c5, d_edges.clone())
    );
    assert_eq!(
        pin(Policy::ddwrr(8), &d),
        (147_755_551, 0xca6d_2b1c_8818_c6e5, d_edges.clone())
    );
    assert_eq!(
        pin(Policy::odds(), &d),
        (147_745_247, 0x9ef5_aa48_7396_a2c5, d_edges)
    );
}

/// The NBIA reader -> feature -> classifier graph with its feedback edge:
/// the one graph DES run with a mixed-device filter between two CPU-only
/// ones, recirculation, and the application's own emissions.
#[test]
fn graph_des_nbia_run_is_pinned() {
    use anthill_repro::apps::nbia::{graph::run_sim, NbiaLocalConfig};
    let (results, report) = run_sim(&NbiaLocalConfig::default());
    assert_eq!(results.len(), 48);
    assert_eq!(report.total, 176);
    assert_eq!(
        graph_sim_pin(&report),
        (
            128_235_472,
            0x36ff_9dd3_fffb_e265,
            vec![(0, 48), (1, 64), (2, 16)]
        )
    );
}

// ---------------------------------------------------------------------
// The TCP lockstep coordinator's dispatch order and trace as literals, so
// a rewrite of that loop shows up as a moved number.
// ---------------------------------------------------------------------

/// FNV-1a-64 of a traced lockstep run's dispatch order (`[filter, kind,
/// id as 8 LE bytes]` per entry) and of its JSONL with every
/// `remote_finish.proc_ns` zeroed: ticks are deterministic, the worker's
/// wall-clock span is not. The JSONL hash holds the event order, so
/// `remote_start`/`remote_finish` stay immediately before `finish`.
fn lockstep_pin(policy: Policy, graph: &DataflowGraph) -> (u64, u64) {
    let mut cfg = NetConfig::new(policy);
    cfg.recorder = Recorder::enabled();
    let out = net_graph_run_with(cfg.clone(), graph);
    let order: Vec<u8> = out
        .dispatch_order
        .iter()
        .flat_map(|&(filter, kind, id)| {
            [filter as u8, u8::from(kind == DeviceKind::Gpu)]
                .into_iter()
                .chain(id.to_le_bytes())
        })
        .collect();
    let mut events = cfg.recorder.events();
    for e in &mut events {
        if let EventKind::RemoteFinish { proc_ns, .. } = &mut e.kind {
            *proc_ns = 0;
        }
    }
    for (i, e) in events.iter().enumerate() {
        if let EventKind::Finish { buffer, .. } = e.kind {
            assert!(
                matches!(events[i - 2].kind, EventKind::RemoteStart { buffer: b, .. } if b == buffer)
                    && matches!(events[i - 1].kind, EventKind::RemoteFinish { buffer: b, .. } if b == buffer),
                "the remote span of buffer {buffer} must sit right before its finish"
            );
        }
    }
    let trace = anthill_repro::core::obs::jsonl::to_jsonl(&events);
    (fnv1a64(&order), fnv1a64(trace.as_bytes()))
}

/// The device-neutral workload dispatches in one order under all three
/// policies; their traces differ (request windows, `dbsa_select`).
#[test]
fn graph_lockstep_traced_runs_are_pinned() {
    let golden = [
        (
            Policy::ddfcfs(4),
            0x5aa7_40a0_43ac_50d1,
            0xa443_09bd_efe5_dfda,
        ),
        (
            Policy::ddwrr(8),
            0xc366_b3c8_1018_f5aa,
            0x4b82_8108_b2ad_01f5,
        ),
        (Policy::odds(), 0x90d4_fe6a_5100_3c65, 0x21e8_7488_7f76_a1b7),
    ];
    for (policy, p3_trace, d_trace) in golden {
        assert_eq!(
            lockstep_pin(policy, &pipeline3()),
            (0x45a3_6e5f_7eb5_98dd, p3_trace),
            "{policy:?}"
        );
        assert_eq!(
            lockstep_pin(policy, &diamond()),
            (0x20b8_c244_b3ac_3d15, d_trace),
            "{policy:?}"
        );
    }
}
