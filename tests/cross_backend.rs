//! Cross-backend consistency: the native threaded runtime and the
//! virtual-time simulator implement the same model, so task accounting
//! must agree, and each backend must be internally reproducible.

use std::collections::{HashMap, HashSet};

use anthill_repro::apps::nbia::{run_local, NbiaLocalConfig};
use anthill_repro::core::engine::sequential::GraphEmission;
use anthill_repro::core::graph::DataflowGraph;
use anthill_repro::core::local::{ExecMode, WorkerSpec};
use anthill_repro::core::policy::{Policy, PolicyKind};
use anthill_repro::core::sim::{run_graph_sim, run_nbia, GraphSimConfig, SimConfig, WorkloadSpec};
use anthill_repro::core::weights::OracleWeights;
use anthill_repro::hetsim::{ClusterSpec, DeviceKind, GpuParams};

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

#[test]
fn local_runtime_classifies_every_tile_once_under_each_policy() {
    for policy in [PolicyKind::DdFcfs, PolicyKind::DdWrr] {
        let (results, _) = run_local(
            &local_config(policy),
            &OracleWeights::new(GpuParams::geforce_8800gt(), true),
        );
        assert_eq!(results.len(), 36, "{policy:?}");
        let tiles: HashSet<u64> = results.iter().map(|r| r.tile).collect();
        assert_eq!(tiles.len(), 36, "{policy:?}: duplicate classifications");
    }
}

#[test]
fn local_results_are_schedule_independent() {
    // The *classification outcome* per tile must not depend on the
    // scheduling policy — only performance may change.
    let w = OracleWeights::new(GpuParams::geforce_8800gt(), true);
    let (a, _) = run_local(&local_config(PolicyKind::DdFcfs), &w);
    let (b, _) = run_local(&local_config(PolicyKind::DdWrr), &w);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.tile, y.tile);
        assert_eq!(x.predicted, y.predicted, "tile {}", x.tile);
        assert_eq!(x.level, y.level, "tile {}", x.tile);
    }
}

#[test]
fn simulator_is_bit_deterministic() {
    let w = WorkloadSpec {
        tiles: 1_500,
        ..WorkloadSpec::paper_base(0.12)
    };
    let cfg = SimConfig::new(ClusterSpec::heterogeneous(1, 1), Policy::odds());
    let a = run_nbia(&cfg, &w);
    let b = run_nbia(&cfg, &w);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.tasks_by, b.tasks_by);
    assert_eq!(a.total_tasks, b.total_tasks);
}

#[test]
fn simulator_task_accounting_is_conserved_across_policies_and_clusters() {
    let w = WorkloadSpec {
        tiles: 1_200,
        ..WorkloadSpec::paper_base(0.10)
    };
    for cluster in [
        ClusterSpec::homogeneous(2),
        ClusterSpec::heterogeneous(2, 1),
    ] {
        for policy in [Policy::ddfcfs(4), Policy::ddwrr(16), Policy::odds()] {
            let r = run_nbia(&SimConfig::new(cluster.clone(), policy), &w);
            assert_eq!(r.total_tasks, w.total_buffers());
            let low: u64 = DeviceKind::ALL.iter().map(|&k| r.tasks(k, 0)).sum();
            let high: u64 = DeviceKind::ALL.iter().map(|&k| r.tasks(k, 1)).sum();
            assert_eq!(low, w.tiles);
            assert_eq!(high, w.recalc_count());
        }
    }
}

#[test]
fn estimator_and_oracle_weights_agree_on_routing() {
    // The kNN estimator has ~8% error; the paper argues that is enough
    // because only the task *ordering* matters. Verify: estimator-weighted
    // runs route tiles like oracle-weighted runs.
    let w = WorkloadSpec {
        tiles: 2_000,
        ..WorkloadSpec::paper_base(0.10)
    };
    let mut est = SimConfig::new(ClusterSpec::homogeneous(1), Policy::ddwrr(30));
    est.use_estimator = true;
    let mut oracle = est.clone();
    oracle.use_estimator = false;
    let re = run_nbia(&est, &w);
    let ro = run_nbia(&oracle, &w);
    let diff = (re.share_pct(DeviceKind::Gpu, 1) - ro.share_pct(DeviceKind::Gpu, 1)).abs();
    assert!(diff < 10.0, "routing diverged by {diff} points");
    let perf = re.speedup() / ro.speedup();
    assert!((0.9..1.1).contains(&perf), "perf ratio {perf}");
}

/// The flat NBIA simulation and the graph simulation of a one-filter graph
/// are one model: on a single CPU + GPU node with synchronous copies and
/// oracle weights they agree on the virtual makespan to the nanosecond and
/// on every per-(kind, level) count, with NBIA's recalculation loop
/// expressed as a feedback emission.
#[test]
fn one_filter_graph_sim_equals_the_flat_sim_on_one_node() {
    type Counts = HashMap<(DeviceKind, u8), u64>;
    let both = |policy: Policy, recalc: f64| -> ((u64, Counts), (u64, Counts)) {
        let w = WorkloadSpec {
            tiles: 400,
            ..WorkloadSpec::paper_base(recalc)
        };
        let mut cfg = SimConfig::new(ClusterSpec::homogeneous(1), policy);
        cfg.async_transfers = false;
        cfg.use_estimator = false;
        let flat = run_nbia(&cfg, &w);
        let graph = run_graph_sim(
            &GraphSimConfig::new(policy),
            &DataflowGraph::single("nbia"),
            &[vec![DeviceKind::Cpu, DeviceKind::Gpu]],
            (0..w.tiles).map(|t| (0, w.low_buffer(t))).collect(),
            Box::new(OracleWeights::new(GpuParams::geforce_8800gt(), false)),
            |_, _, b| {
                let mut em = GraphEmission::default();
                if b.level == 0 && w.is_recalc(b.task) {
                    em.feedback.push(w.high_buffer(b.task));
                } else {
                    em.forward.push(b.clone());
                }
                em
            },
        );
        let mut graph_counts = Counts::new();
        for (&(_filter, kind, level), &n) in &graph.assigned {
            *graph_counts.entry((kind, level)).or_insert(0) += n;
        }
        (
            (flat.makespan.as_nanos(), flat.tasks_by),
            (graph.makespan.as_nanos(), graph_counts),
        )
    };

    for policy in [Policy::ddfcfs(4), Policy::ddwrr(8), Policy::odds()] {
        let (flat, graph) = both(policy, 0.0);
        assert_eq!(flat, graph, "{policy:?}, no recalculation");
        assert_eq!(flat.0, 232_216_944, "{policy:?}");
        assert_eq!(flat.1[&(DeviceKind::Cpu, 0)], 207, "{policy:?}");
        assert_eq!(flat.1[&(DeviceKind::Gpu, 0)], 193, "{policy:?}");
    }
    for (policy, makespan) in [
        (Policy::ddfcfs(4), 912_022_896),
        (Policy::ddwrr(8), 719_083_672),
    ] {
        let (flat, graph) = both(policy, 0.12);
        assert_eq!(flat, graph, "{policy:?}, 12% recalculation");
        assert_eq!(flat.0, makespan, "{policy:?}");
    }
    // ODDS with recalculation is the one pair that differs, for one reason:
    // the flat set-up calls `engine.set_batch_reserve(node, gpu, streams)`
    // for every GPU slot even when copies are synchronous, so DQAA's window
    // for the GPU carries a stream reserve the graph set-up never sets. The
    // two agree once that call is conditional on asynchronous copies;
    // whoever changes the reserve moves the first literal onto the second.
    let (flat, graph) = both(Policy::odds(), 0.12);
    assert_eq!(flat.0, 717_961_880);
    assert_eq!(graph.0, 719_083_672);
}
