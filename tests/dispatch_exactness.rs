//! What the dispatch path must get exactly right, exercised end-to-end
//! (DESIGN.md §10):
//!
//! 1. **Exact accounting** — sharded dispatch state, tuned stage lanes and
//!    join-time tallies lose and duplicate nothing: every task leaves the
//!    run once, and — where thread scheduling cannot perturb them — the
//!    per-(stage, device, level) handled counts are exact, under all three
//!    policies. Mixed-kind stages (the full `SharedQueue` lane) conserve.
//! 2. **Batched trace emission** — the striped sink hands back a
//!    timestamp-ordered trace that conserves the task lifecycle
//!    (enqueues = dispatches = starts = finishes = handles).
//! 3. **One weighing per hop** — `select::weights_for`, the engine's one
//!    call per enqueue, is bit-identical to the two per-kind `weight`
//!    calls it replaced, for every provider; shape keys are structural.
//! 4. **Memo transparency** — the DES schedules exactly as it would with
//!    an estimator provider that has no memo at all.

mod common;

use std::sync::Arc;

use common::{cpu_workers, mixed_workers, mk_task};

use anthill_repro::core::buffer::{BufferId, DataBuffer};
use anthill_repro::core::engine::select;
use anthill_repro::core::local::{Emitter, LocalFilter, LocalTask, Pipeline, WorkerSpec};
use anthill_repro::core::obs::{EventKind, Recorder};
use anthill_repro::core::policy::learned::{LearnedConfig, LearnedWeights};
use anthill_repro::core::policy::{Policy, PolicyKind};
use anthill_repro::core::sim::{nbia_estimator, run_nbia, run_nbia_with, SimConfig, WorkloadSpec};
use anthill_repro::core::weights::{EstimatorWeights, OracleWeights, WeightProvider};
use anthill_repro::estimator::{
    params, DeviceClass, KnnEstimator, OnlineProfile, ProfileStore, TaskParams,
};
use anthill_repro::hetsim::{ClusterSpec, DeviceKind, GpuParams, NbiaCostModel};

const ROUNDS: u8 = 3;
const TASKS: u64 = 300;
/// Each task is handled once per level per stage.
const HANDLES_PER_STAGE: u64 = TASKS * (ROUNDS as u64 + 1);

/// Recirculates every task [`ROUNDS`] times, then forwards it downstream
/// at level 0: the handler does no work, so the run is all enqueue / park
/// / claim / tally traffic on the concurrent worker threads.
struct Recirc;
impl LocalFilter for Recirc {
    fn handle(&self, _d: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
        if task.buffer.level < ROUNDS {
            let mut task = task;
            task.buffer.level += 1;
            out.recirculate(task);
        } else {
            let mut task = task;
            task.buffer.level = 0;
            out.forward(task);
        }
    }
}

fn run(
    policy: PolicyKind,
    stages: &[Vec<WorkerSpec>],
    recorder: &Recorder,
) -> (Vec<u64>, anthill_repro::core::local::LocalReport) {
    let weights = OracleWeights::new(GpuParams::geforce_8800gt(), true);
    let mut p = Pipeline::new(policy);
    for specs in stages {
        p.add_stage(Arc::new(Recirc), specs.clone());
    }
    let sources: Vec<LocalTask> = (0..TASKS).map(mk_task).collect();
    let (out, report) = p.run_traced(sources, &weights, recorder);
    let mut ids: Vec<u64> = out.iter().map(|t| t.buffer.id.0).collect();
    ids.sort_unstable();
    (ids, report)
}

/// Homogeneous stages: thread scheduling can move tasks between *slots*
/// but never between device kinds or levels, so the full handled map is
/// exact: every stage handles every task once per level.
#[test]
fn homogeneous_stages_count_every_handle_exactly() {
    for policy in [PolicyKind::DdFcfs, PolicyKind::DdWrr, PolicyKind::Odds] {
        let stages = vec![cpu_workers(4), cpu_workers(2)];
        let (out, report) = run(policy, &stages, &Recorder::disabled());
        assert_eq!(
            out,
            (0..TASKS).collect::<Vec<_>>(),
            "{policy:?}: outputs are not every id once"
        );
        assert_eq!(report.total(), 2 * HANDLES_PER_STAGE);
        for stage in 0..stages.len() {
            for level in 0..=ROUNDS {
                assert_eq!(
                    report.handled.get(&(stage, DeviceKind::Cpu, level)),
                    Some(&TASKS),
                    "{policy:?}: stage {stage} level {level} miscounted"
                );
            }
        }
    }
}

/// Heterogeneous stages: per-kind counts are timing-dependent, but every
/// task is conserved and delivered.
#[test]
fn mixed_kind_stages_conserve_every_task() {
    for policy in [PolicyKind::DdFcfs, PolicyKind::DdWrr, PolicyKind::Odds] {
        let (out, report) = run(policy, &[mixed_workers()], &Recorder::disabled());
        assert_eq!(out.len() as u64, TASKS, "{policy:?} lost tasks");
        assert_eq!(
            report.total(),
            HANDLES_PER_STAGE,
            "{policy:?} miscounted handles"
        );
    }
}

/// The batched (striped) sink must drain a timestamp-ordered trace whose
/// lifecycle counts conserve.
#[test]
fn batched_trace_is_ordered_and_conserves_lifecycle() {
    let recorder = Recorder::enabled();
    let (_, report) = run(PolicyKind::DdWrr, &[cpu_workers(4)], &recorder);
    assert_eq!(report.total(), HANDLES_PER_STAGE);
    let events = recorder.take_events();
    assert!(
        events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
        "drained trace must be in non-decreasing timestamp order"
    );
    let count = |pred: fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();
    let lifecycle = [
        count(|k| matches!(k, EventKind::Enqueue { .. })) as u64,
        count(|k| matches!(k, EventKind::Dispatch { .. })) as u64,
        count(|k| matches!(k, EventKind::Start { .. })) as u64,
        count(|k| matches!(k, EventKind::Finish { .. })) as u64,
    ];
    assert_eq!(
        lifecycle, [HANDLES_PER_STAGE; 4],
        "lifecycle conservation broken"
    );
    assert!(
        recorder.take_events().is_empty(),
        "drain must empty the sink"
    );
}

/// The paper's tile sides from tiny to huge, plus one buffer whose only
/// parameter is categorical.
fn weighed_buffers() -> Vec<DataBuffer> {
    let cost = NbiaCostModel::paper_calibrated();
    let tile = |id: u64, side: u32, params: TaskParams| DataBuffer {
        id: BufferId(id),
        params,
        shape: cost.tile(side),
        level: 0,
        task: id,
    };
    let mut bufs: Vec<DataBuffer> = [4u32, 32, 128, 512, 2048]
        .iter()
        .zip(0..)
        .map(|(&side, id)| tile(id, side, TaskParams::nums(&[f64::from(side)])))
        .collect();
    bufs.push(tile(5, 128, params!["glcm-variant"]));
    bufs
}

fn paper_oracle(async_transfers: bool) -> OracleWeights {
    OracleWeights::new(GpuParams::geforce_8800gt(), async_transfers)
}

/// A kNN estimator fitted to the oracle's times over the numeric tiles.
fn fitted_estimator() -> KnnEstimator {
    let oracle = paper_oracle(false);
    let mut profile = ProfileStore::new("nbia");
    for b in weighed_buffers().iter().take(5) {
        profile.add_cpu_gpu(
            b.params.clone(),
            oracle.predict_time(b, DeviceKind::Cpu),
            oracle.predict_time(b, DeviceKind::Gpu),
        );
    }
    KnnEstimator::fit(profile, 2)
}

fn assert_pair_is_the_two_weights<W: WeightProvider>(what: &str, p: &W) {
    for b in &weighed_buffers() {
        let pair = select::weights_for(p, b).map(f64::to_bits);
        let each = [p.weight(b, DeviceKind::Cpu), p.weight(b, DeviceKind::Gpu)].map(f64::to_bits);
        assert_eq!(pair, each, "{what}: {:?}", b.params);
    }
}

/// Feeds `p` spans ten times the oracle's CPU time, one per buffer per
/// round, checking the pair before the first and after every round — so
/// the check runs on both sides of the provider's `min_obs` threshold.
fn assert_pair_across_online_updates<W: WeightProvider>(what: &str, p: &W, rounds: u64) {
    let oracle = paper_oracle(false);
    let bufs = weighed_buffers();
    assert_pair_is_the_two_weights(what, p);
    let before = select::weights_for(p, &bufs[2]);
    for round in 1..=rounds {
        for b in &bufs {
            let secs = oracle.predict_time(b, DeviceKind::Cpu) * 10.0;
            let up = p.observe(b, 0, 0, DeviceKind::Cpu, secs);
            assert_eq!(up.expect("online provider").key, b.params.shape_key());
        }
        assert_pair_is_the_two_weights(&format!("{what} after {round} spans"), p);
    }
    assert_ne!(
        select::weights_for(p, &bufs[2]),
        before,
        "{what}: the spans never took effect"
    );
}

#[test]
fn weights_for_is_bit_identical_to_the_per_kind_weights() {
    assert_pair_is_the_two_weights("oracle sync", &paper_oracle(false));
    assert_pair_is_the_two_weights("oracle async", &paper_oracle(true));
    assert_pair_is_the_two_weights("estimator", &EstimatorWeights::new(fitted_estimator()));
    let online = EstimatorWeights::with_online(fitted_estimator(), OnlineProfile::default(), 3);
    assert_pair_across_online_updates("online estimator", &online, 4);
    for kind in [PolicyKind::Affinity, PolicyKind::Bandit] {
        let learned = LearnedWeights::new(kind, paper_oracle(false), LearnedConfig::standard(7));
        assert_pair_across_online_updates(&format!("{kind:?}"), &learned, 3);
    }
}

#[test]
fn shape_keys_are_structural() {
    let a = params![512.0, "glcm"];
    let b = params![512.0, "glcm"];
    assert!(!a.shares_storage(&b));
    assert_eq!(a.shape_key(), b.shape_key());
    for (x, y) in [
        (params![1.0], params!["1.0"]),
        (params![1.0, 2.0], params![2.0, 1.0]),
        (params!["ab", "c"], params!["a", "bc"]),
    ] {
        assert_ne!(x.shape_key(), y.shape_key(), "{x:?} vs {y:?}");
    }
    // Both providers report the same key for a buffer.
    let buf = &weighed_buffers()[5];
    assert_eq!(EstimatorWeights::shape_key(buf), buf.params.shape_key());
    assert_eq!(
        LearnedWeights::<OracleWeights>::shape_key(buf),
        buf.params.shape_key()
    );
}

/// The estimator provider minus its memo: every prediction goes to the kNN.
struct Unmemoized(KnnEstimator);

impl WeightProvider for Unmemoized {
    fn predict_time(&self, buf: &DataBuffer, kind: DeviceKind) -> f64 {
        let class = match kind {
            DeviceKind::Cpu => DeviceClass::CPU,
            DeviceKind::Gpu => DeviceClass::GPU,
        };
        self.0
            .predict_time(class, &buf.params)
            .unwrap_or(f64::INFINITY)
    }
}

#[test]
fn des_schedule_does_not_depend_on_the_memo() {
    let cfg = SimConfig::new(ClusterSpec::heterogeneous(7, 7), Policy::odds());
    let workload = WorkloadSpec {
        tiles: 3_000,
        ..WorkloadSpec::paper_base(0.12)
    };
    let memoized = run_nbia(&cfg, &workload);
    let plain = run_nbia_with(
        &cfg,
        &workload,
        Box::new(Unmemoized(nbia_estimator(&cfg, &workload))),
    );
    assert_eq!(memoized.makespan, plain.makespan);
    assert_eq!(memoized.tasks_by, plain.tasks_by);
    assert_eq!(memoized.total_tasks, workload.total_buffers());
}
