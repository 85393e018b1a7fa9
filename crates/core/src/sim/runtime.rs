//! The simulated cluster executor: the NBIA deployment as a set-up over
//! the one DES world ([`crate::sim::world`]).
//!
//! Topology (matching the paper's NBIA deployment, Section 6): every node
//! hosts one *reader* instance (the tiles are declustered round-robin over
//! the nodes' local disks) and one *worker* instance (the fused NBIA
//! filter) with one worker thread per CPU core and one manager thread per
//! GPU. The reader→worker stream is the n×m demand-driven channel the
//! three policies configure.
//!
//! Recalculated tiles loop back to the owning reader through a small
//! control message, reproducing the Classifier→Start→Reader cycle of
//! Figure 1.

use anthill_estimator::{KnnEstimator, ProfileStore};
use anthill_hetsim::{ClusterSpec, DeviceKind, GpuParams, NetParams};
use anthill_simkit::{SimDuration, SimRng, SimTime};

use crate::buffer::{BufferId, DataBuffer};
use crate::faults::FaultConfig;
use crate::membership::MembershipSchedule;
use crate::obs::Recorder;
use crate::policy::learned::{LearnedConfig, LearnedWeights};
use crate::policy::Policy;
use crate::sim::report::SimReport;
use crate::sim::workload::WorkloadSpec;
use crate::sim::world::{Completion, Hop, Sim, RECALC_BYTES};
use crate::weights::{EstimatorWeights, OracleWeights, WeightProvider};

/// Configuration of one simulated run.
#[derive(Clone)]
pub struct SimConfig {
    /// The cluster topology.
    pub cluster: ClusterSpec,
    /// The stream scheduling policy.
    pub policy: Policy,
    /// Use the asynchronous transfer pipeline (Algorithm 1) on GPUs.
    pub async_transfers: bool,
    /// Disable CPU worker threads (GPU-only configurations).
    pub gpu_only: bool,
    /// Weight buffers with the kNN estimator (vs the oracle cost model).
    pub use_estimator: bool,
    /// Lognormal sigma of the phase-one estimator benchmark noise. The
    /// default 0.08 matches the paper's measurement jitter; larger values
    /// model a stale or badly calibrated profile that online learning
    /// (AFFINITY/BANDIT) can correct at run time.
    pub estimator_noise: f64,
    /// Root RNG seed (estimator profile noise, learned-policy hashing).
    pub seed: u64,
    /// GPU timing parameters.
    pub gpu: GpuParams,
    /// Network timing parameters.
    pub net: NetParams,
    /// Upper bound on any worker's request window.
    pub max_request_window: usize,
    /// Buckets for utilization traces (0 disables trace collection).
    pub trace_buckets: usize,
    /// Per-node CPU speed factors (1.0 = the calibrated core; 0.5 = half
    /// speed). Nodes beyond the vector's length use 1.0. Models aged or
    /// contended machines — heterogeneity beyond GPU presence.
    pub cpu_speed: Vec<f64>,
    /// Observability sink ([`crate::obs`]); disabled by default. Recording
    /// never affects scheduling, so traces are a pure function of the
    /// configuration and seed.
    pub recorder: Recorder,
    /// Fault schedule + recovery knobs ([`crate::faults`]); none by
    /// default. An active message-drop or death schedule needs
    /// [`crate::faults::RecoveryConfig::enabled`], or lost demand is never
    /// re-pumped and the run cannot drain.
    pub faults: FaultConfig,
    /// Scheduled membership actions ([`crate::membership`]); empty by
    /// default. Joins and drains fire as the run's completion count
    /// crosses each action's threshold (so a threshold of 0 fires right
    /// after the first completion here — the DES applies membership only
    /// at completion events). The schedule must keep at least one
    /// assignable worker at all times or the run stalls.
    pub membership: MembershipSchedule,
}

impl SimConfig {
    /// Defaults matching the paper's testbed.
    pub fn new(cluster: ClusterSpec, policy: Policy) -> SimConfig {
        SimConfig {
            cluster,
            policy,
            async_transfers: true,
            gpu_only: false,
            use_estimator: true,
            estimator_noise: 0.08,
            seed: 0x5EED,
            gpu: GpuParams::geforce_8800gt(),
            net: NetParams::gigabit_ethernet(),
            max_request_window: 256,
            trace_buckets: 0,
            cpu_speed: Vec::new(),
            recorder: Recorder::disabled(),
            faults: FaultConfig::none(),
            membership: MembershipSchedule::none(),
        }
    }
}

/// NBIA's completion rule: a low-resolution tile the classifier rejects
/// loops back to its owning reader at the next resolution; every other
/// completion is a tile's final classification.
struct NbiaLoop<'a> {
    workload: &'a WorkloadSpec,
    /// `high_buffer(0)`: every recalculated buffer is this one with its
    /// tile's id and task, sharing its parameters.
    high: DataBuffer,
    n_nodes: u64,
    finals_done: u64,
}

impl Completion for NbiaLoop<'_> {
    fn completed(&mut self, hop: &mut Hop<'_>, _kind: DeviceKind, buffer: &DataBuffer) {
        if buffer.level == 0 && self.workload.is_recalc(buffer.task) {
            let owner = (buffer.task % self.n_nodes) as usize;
            let high = DataBuffer {
                id: BufferId(self.workload.tiles + buffer.task),
                task: buffer.task,
                ..self.high.clone()
            };
            hop.send(owner, RECALC_BYTES, None, high);
        } else {
            self.finals_done += 1;
            hop.leave();
        }
    }
}

/// Fit the estimator behind [`SimConfig::use_estimator`]: phase-one
/// benchmark of 30 jobs across the workload's tile-size range with
/// measurement noise, then a kNN fit with the paper's `k = 2`.
pub fn nbia_estimator(cfg: &SimConfig, workload: &WorkloadSpec) -> KnnEstimator {
    let oracle = OracleWeights::new(cfg.gpu.clone(), cfg.async_transfers);
    let mut rng = SimRng::new(cfg.seed).fork("estimator-profile");
    let mut profile = ProfileStore::new("nbia");
    let sides: Vec<u32> = {
        // Geometric sweep low..high plus the two exact workload sizes.
        let mut s = vec![workload.low_side, workload.high_side];
        let mut side = workload.low_side;
        while side < workload.high_side {
            s.push(side);
            side *= 2;
        }
        s
    };
    let mut count = 0;
    while count < 30 {
        for &side in &sides {
            if count >= 30 {
                break;
            }
            let buf = if side >= workload.high_side {
                workload.high_buffer(0)
            } else {
                // Shape for the probed side.
                DataBuffer {
                    shape: workload.cost.tile(side),
                    params: anthill_estimator::TaskParams::nums(&[f64::from(side)]),
                    ..workload.low_buffer(0)
                }
            };
            let cpu = oracle.predict_time(&buf, DeviceKind::Cpu)
                * rng.lognormal_noise(cfg.estimator_noise);
            let gpu = oracle.predict_time(&buf, DeviceKind::Gpu)
                * rng.lognormal_noise(cfg.estimator_noise);
            profile.add_cpu_gpu(buf.params.clone(), cpu, gpu);
            count += 1;
        }
    }
    KnnEstimator::fit_default(profile)
}

/// Run the NBIA workload on the configured cluster; returns measurements.
pub fn run_nbia(cfg: &SimConfig, workload: &WorkloadSpec) -> SimReport {
    let base: Box<dyn WeightProvider> = if cfg.use_estimator {
        Box::new(EstimatorWeights::new(nbia_estimator(cfg, workload)))
    } else {
        Box::new(OracleWeights::new(cfg.gpu.clone(), cfg.async_transfers))
    };
    run_nbia_with(cfg, workload, base)
}

/// [`run_nbia`] weighing buffers with `base` in place of the provider
/// [`SimConfig::use_estimator`] selects (a learned policy still wraps it).
pub fn run_nbia_with(
    cfg: &SimConfig,
    workload: &WorkloadSpec,
    base: Box<dyn WeightProvider>,
) -> SimReport {
    let weights: Box<dyn WeightProvider> = if cfg.policy.kind.learned() {
        Box::new(LearnedWeights::new(
            cfg.policy.kind,
            base,
            LearnedConfig::standard(cfg.seed),
        ))
    } else {
        base
    };

    let n_nodes = cfg.cluster.len();
    let nbia = NbiaLoop {
        workload,
        high: workload.high_buffer(0),
        n_nodes: n_nodes as u64,
        finals_done: 0,
    };
    let max_streams = cfg
        .gpu
        .max_concurrent_events(workload.high_shape().footprint());
    let mut sim = Sim::new(cfg, n_nodes, max_streams, weights, nbia);
    for (node, spec) in cfg.cluster.nodes.iter().enumerate() {
        if !cfg.gpu_only {
            for _ in 0..spec.cpu_cores {
                sim.add_worker(node, DeviceKind::Cpu);
            }
        }
        for _ in 0..spec.gpus {
            let wi = sim.add_worker(node, DeviceKind::Gpu);
            // Reserved whether or not copies are asynchronous: the one
            // decision input the flat and the graph set-up differ in.
            // Whether synchronous runs should carry it is ROADMAP item 7's
            // question.
            sim.reserve_streams(node, wi);
        }
    }
    assert!(
        sim.engine.worker_count() > 0,
        "no worker devices configured"
    );

    // Decluster the tiles round-robin over the readers. Initial tiles sit
    // in the low-priority FIFO band; recirculated buffers preempt them.
    // Every tile is `low_buffer(0)` with its own id and task, sharing its
    // parameters.
    let low = workload.low_buffer(0);
    for tile in 0..workload.tiles {
        let owner = (tile % n_nodes as u64) as usize;
        let buffer = DataBuffer {
            id: BufferId(tile),
            task: tile,
            ..low.clone()
        };
        sim.engine.seed_reader(owner, buffer);
    }

    let sim = sim.run();
    assert_eq!(
        sim.hook.finals_done, workload.tiles,
        "every tile must be finally classified"
    );
    assert_eq!(sim.engine.total_done(), workload.total_buffers());

    let horizon = sim.finish;
    let mut request_traces = Vec::new();
    let mut util_traces = Vec::new();
    let mut utilization = Vec::new();
    let mut stream_traces = Vec::new();
    let mut latency_hists = Vec::new();
    for (stats, slot) in sim.engine.worker_stats().zip(sim.slots()) {
        utilization.push((stats.device, stats.util.utilization(horizon)));
        request_traces.push((stats.device, stats.req_trace.to_vec()));
        latency_hists.push((stats.device, stats.latency_hist.clone()));
        if cfg.trace_buckets > 0 && horizon > SimTime::ZERO {
            let bucket =
                SimDuration::from_nanos((horizon.as_nanos() / cfg.trace_buckets as u64).max(1));
            util_traces.push((stats.device, stats.util.trace(horizon, bucket)));
        }
        if let Some(ctl) = slot.streams() {
            stream_traces.push((stats.device, ctl.history().to_vec()));
        }
    }

    SimReport {
        makespan: horizon.since(SimTime::ZERO),
        cpu_baseline: workload.cpu_baseline(),
        tasks_by: sim.engine.tasks_by(),
        total_tasks: sim.engine.total_done(),
        request_traces,
        util_traces,
        utilization,
        stream_traces,
        latency_hists,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::rc::Rc;

    /// Oracle weights that keep a copy of every buffer they weigh.
    struct Witness {
        oracle: OracleWeights,
        seen: Rc<RefCell<Vec<DataBuffer>>>,
    }

    impl WeightProvider for Witness {
        fn predict_time(&self, buf: &DataBuffer, kind: DeviceKind) -> f64 {
            self.oracle.predict_time(buf, kind)
        }

        fn weights_pair(&self, buf: &DataBuffer) -> [f64; 2] {
            self.seen.borrow_mut().push(buf.clone());
            self.oracle.weights_pair(buf)
        }
    }

    #[test]
    fn templated_buffers_equal_the_workload_buffers_field_for_field() {
        let cfg = SimConfig::new(ClusterSpec::heterogeneous(7, 7), Policy::odds());
        let w = WorkloadSpec {
            tiles: 3_000,
            ..WorkloadSpec::paper_base(0.12)
        };
        let seen = Rc::default();
        let witness = Witness {
            oracle: OracleWeights::new(cfg.gpu.clone(), cfg.async_transfers),
            seen: Rc::clone(&seen),
        };
        run_nbia_with(&cfg, &w, Box::new(witness));
        let seen = seen.borrow();
        let firsts = [0, 1].map(|level| seen.iter().find(|b| b.level == level).unwrap());
        for b in seen.iter() {
            let own = match b.level {
                0 => w.low_buffer(b.task),
                _ => w.high_buffer(b.task),
            };
            assert_eq!(*b, own);
            let first = firsts[usize::from(b.level)];
            assert!(
                b.params.shares_storage(&first.params),
                "one allocation per level"
            );
        }
        let ids: BTreeSet<u64> = seen.iter().map(|b| b.id.0).collect();
        assert_eq!(ids.len() as u64, w.total_buffers(), "every buffer weighed");
    }
}
