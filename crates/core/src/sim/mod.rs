//! The virtual-time cluster executor: runs the replicated-dataflow runtime
//! (readers, workers, demand-driven streams, all three policies) over the
//! calibrated hardware models, reproducing the paper's cluster experiments
//! deterministically.

mod graph;
mod report;
mod runtime;
mod workload;
mod world;

pub use graph::{run_graph_sim, GraphSimConfig, GraphSimReport};
pub use report::SimReport;
pub use runtime::{nbia_estimator, run_nbia, run_nbia_with, SimConfig};
pub use workload::WorkloadSpec;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use anthill_hetsim::{ClusterSpec, DeviceKind, NodeSpec};

    fn small_workload(recalc: f64) -> WorkloadSpec {
        WorkloadSpec {
            tiles: 800,
            ..WorkloadSpec::paper_base(recalc)
        }
    }

    fn cfg(cluster: ClusterSpec, policy: Policy) -> SimConfig {
        SimConfig::new(cluster, policy)
    }

    #[test]
    fn cpu_only_run_matches_analytic_baseline() {
        let cluster = ClusterSpec::new(vec![NodeSpec {
            cpu_cores: 1,
            gpus: 0,
        }]);
        let w = small_workload(0.08);
        let r = run_nbia(&cfg(cluster, Policy::ddfcfs(4)), &w);
        let ratio = r.makespan.as_secs_f64() / w.cpu_baseline().as_secs_f64();
        assert!(
            (0.98..1.10).contains(&ratio),
            "CPU-only makespan should track the baseline: ratio {ratio}"
        );
        assert_eq!(r.total_tasks, w.total_buffers());
    }

    #[test]
    fn every_tile_processed_exactly_once_under_every_policy() {
        let w = small_workload(0.10);
        for policy in [Policy::ddfcfs(8), Policy::ddwrr(8), Policy::odds()] {
            let r = run_nbia(&cfg(ClusterSpec::homogeneous(2), policy), &w);
            assert_eq!(r.total_tasks, w.total_buffers(), "{policy:?}");
            let low: u64 = DeviceKind::ALL.iter().map(|&k| r.tasks(k, 0)).sum();
            let high: u64 = DeviceKind::ALL.iter().map(|&k| r.tasks(k, 1)).sum();
            assert_eq!(low, w.tiles);
            assert_eq!(high, w.recalc_count());
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let w = small_workload(0.12);
        let c = cfg(ClusterSpec::heterogeneous(1, 1), Policy::odds());
        let a = run_nbia(&c, &w);
        let b = run_nbia(&c, &w);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.tasks_by, b.tasks_by);
    }

    #[test]
    fn ddwrr_routes_high_res_to_gpu() {
        // Table 4's mechanism: under DDWRR the GPU gets the high-res tiles.
        let w = small_workload(0.16);
        let r = run_nbia(&cfg(ClusterSpec::homogeneous(1), Policy::ddwrr(32)), &w);
        assert!(
            r.share_pct(DeviceKind::Gpu, 1) > 80.0,
            "GPU high-res share {:.1}%",
            r.share_pct(DeviceKind::Gpu, 1)
        );
        assert!(
            r.share_pct(DeviceKind::Cpu, 0) > 30.0,
            "CPU low-res share {:.1}%",
            r.share_pct(DeviceKind::Cpu, 0)
        );
    }

    #[test]
    fn ddwrr_beats_gpu_only_with_recalc() {
        // Fig. 8's headline: adding the CPU under DDWRR roughly doubles the
        // GPU-only speedup at moderate recalculation rates... at small scale
        // we only assert a solid improvement.
        let w = small_workload(0.16);
        let mut gpu_only = cfg(ClusterSpec::homogeneous(1), Policy::ddfcfs(8));
        gpu_only.gpu_only = true;
        let a = run_nbia(&gpu_only, &w);
        let b = run_nbia(&cfg(ClusterSpec::homogeneous(1), Policy::ddwrr(32)), &w);
        assert!(
            b.speedup() > 1.3 * a.speedup(),
            "DDWRR {:.1} !>> GPU-only {:.1}",
            b.speedup(),
            a.speedup()
        );
    }

    #[test]
    fn odds_adapts_request_windows() {
        let w = small_workload(0.10);
        let r = run_nbia(&cfg(ClusterSpec::heterogeneous(1, 1), Policy::odds()), &w);
        // At least one worker thread must have moved its window off 1.
        let adapted = r
            .request_traces
            .iter()
            .any(|(_, trace)| trace.iter().any(|&(_, t)| t > 1));
        assert!(adapted, "DQAA never adapted any window");
    }

    #[test]
    fn heterogeneous_node_contributes_under_odds() {
        let w = small_workload(0.08);
        let r = run_nbia(&cfg(ClusterSpec::heterogeneous(1, 1), Policy::odds()), &w);
        // The CPU-only node's two cores must process a meaningful share of
        // the low-resolution tiles.
        assert!(
            r.share_pct(DeviceKind::Cpu, 0) > 25.0,
            "CPU low-res share {:.1}%",
            r.share_pct(DeviceKind::Cpu, 0)
        );
    }

    #[test]
    fn multi_gpu_nodes_scale_within_the_node() {
        // NodeSpec generalizes beyond the paper's testbed: two GPUs on one
        // node nearly halve the makespan of a GPU-bound workload (50%
        // recalculation keeps the high-res stream the bottleneck).
        let w = small_workload(0.50);
        let one = run_nbia(
            &cfg(
                ClusterSpec::new(vec![NodeSpec {
                    cpu_cores: 1,
                    gpus: 1,
                }]),
                Policy::odds(),
            ),
            &w,
        );
        let two = run_nbia(
            &cfg(
                ClusterSpec::new(vec![NodeSpec {
                    cpu_cores: 1,
                    gpus: 2,
                }]),
                Policy::odds(),
            ),
            &w,
        );
        assert!(
            two.speedup() > 1.4 * one.speedup(),
            "2 GPUs {:.1} vs 1 GPU {:.1}",
            two.speedup(),
            one.speedup()
        );
        assert_eq!(two.total_tasks, w.total_buffers());
    }

    #[test]
    fn utilization_is_sane() {
        let w = small_workload(0.08);
        let mut c = cfg(ClusterSpec::homogeneous(1), Policy::ddwrr(16));
        c.trace_buckets = 20;
        let r = run_nbia(&c, &w);
        for &(_, u) in &r.utilization {
            assert!((0.0..=1.0).contains(&u), "utilization {u}");
        }
        assert!(!r.util_traces.is_empty());
        assert!(r.mean_utilization(DeviceKind::Gpu) > 0.3);
    }
}
