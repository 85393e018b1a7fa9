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
//! 5. **No lost wake-up** — a hand-off that skips a notify it owed leaves
//!    a task behind a sleeping worker, and the run hangs. Hundreds of
//!    zero-work runs through capacity-1 lanes, each under a watchdog,
//!    turn that hang into a failure.

mod common;

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use common::{cpu_workers, mixed_workers, mk_task};

use anthill_repro::core::buffer::{BufferId, DataBuffer};
use anthill_repro::core::engine::{select, AdmissionConfig, OverloadPolicy};
use anthill_repro::core::local::{
    Emitter, ExecMode, LoadConfig, LocalFilter, LocalReport, LocalTask, Pipeline, WorkerSpec,
};
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

/// Recirculates every task the given number of rounds, then forwards it
/// downstream at level 0: the handler does no work, so the run is all
/// enqueue / park / claim / tally traffic on the concurrent worker threads.
struct Recirc(u8);
impl LocalFilter for Recirc {
    fn handle(&self, _d: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
        let mut task = task;
        if task.buffer.level < self.0 {
            task.buffer.level += 1;
            out.recirculate(task);
        } else {
            task.buffer.level = 0;
            out.forward(task);
        }
    }
}

fn run(
    policy: PolicyKind,
    stages: &[Vec<WorkerSpec>],
    recorder: &Recorder,
) -> (Vec<u64>, LocalReport) {
    let weights = OracleWeights::new(GpuParams::geforce_8800gt(), true);
    let mut p = Pipeline::new(policy);
    for specs in stages {
        p.add_stage(Arc::new(Recirc(ROUNDS)), specs.clone());
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

const STRESS_RUNS: usize = 200;
const STRESS_TASKS: u64 = 300;
const STRESS_STAGES: usize = 3;
/// Orders of magnitude above a healthy run (a few milliseconds).
const WATCHDOG: Duration = Duration::from_secs(10);

/// Runs `job` on its own thread and fails the test if it has not finished
/// within [`WATCHDOG`]: a lost wake-up parks a worker forever, and the
/// watchdog turns that hang into a failure naming the run.
fn within_watchdog<T: Send + 'static>(what: String, job: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let out = job();
        let _ = tx.send(());
        out
    });
    match rx.recv_timeout(WATCHDOG) {
        Err(RecvTimeoutError::Timeout) => {
            panic!("{what}: no result within {WATCHDOG:?}, a wake-up was lost")
        }
        // Finished, or panicked and dropped the sender: join to get either.
        _ => handle
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
    }
}

/// `n` native slots of alternating kind, the first a GPU when `odd`.
fn alternating_workers(n: usize, odd: bool) -> Vec<WorkerSpec> {
    (0..n)
        .map(|j| WorkerSpec {
            kind: if (j % 2 == 1) ^ odd {
                DeviceKind::Gpu
            } else {
                DeviceKind::Cpu
            },
            mode: ExecMode::Native,
        })
        .collect()
}

/// The stress chain of run `i`: [`STRESS_STAGES`] stages of 1, 2 or 4
/// mixed-kind workers behind capacity-1 lanes, each stage recirculating
/// every task `rounds` times.
fn stress_chain(i: usize, rounds: u8) -> Pipeline {
    let policy = [PolicyKind::DdFcfs, PolicyKind::DdWrr, PolicyKind::Odds][(i / 3) % 3];
    let mut p = Pipeline::new(policy).with_capacity(1);
    for stage in 0..STRESS_STAGES {
        p.add_stage(
            Arc::new(Recirc(rounds)),
            alternating_workers([1, 2, 4][i % 3], (i + stage) % 2 == 1),
        );
    }
    p
}

/// Every stage handled every task once per level, whichever kind of
/// worker took it.
fn assert_levels_exact(what: &str, report: &LocalReport, rounds: u8) {
    for stage in 0..STRESS_STAGES {
        for level in 0..=rounds {
            let handled = report.count(stage, DeviceKind::Cpu, level)
                + report.count(stage, DeviceKind::Gpu, level);
            assert_eq!(
                handled, STRESS_TASKS,
                "{what}: stage {stage} level {level} miscounted"
            );
        }
    }
    assert_eq!(
        report.total(),
        STRESS_STAGES as u64 * STRESS_TASKS * (u64::from(rounds) + 1),
        "{what}: handles outside the expected levels"
    );
}

/// Zero-work tasks through capacity-1 lanes put a worker to sleep on
/// nearly every hand-off, on both condvars of a lane: consumers on an
/// empty lane, producers on a full one. Run 0 also recirculates every
/// task once.
#[test]
fn capacity_one_chains_never_lose_a_wakeup() {
    for i in 0..STRESS_RUNS {
        let rounds = u8::from(i == 0);
        let what = format!("run {i}");
        let (ids, report) = within_watchdog(what.clone(), move || {
            let weights = OracleWeights::new(GpuParams::geforce_8800gt(), true);
            let sources = (0..STRESS_TASKS).map(mk_task).collect();
            let (out, report) = stress_chain(i, rounds).run(sources, &weights);
            let mut ids: Vec<u64> = out.iter().map(|t| t.buffer.id.0).collect();
            ids.sort_unstable();
            (ids, report)
        });
        assert_eq!(
            ids,
            (0..STRESS_TASKS).collect::<Vec<_>>(),
            "{what}: outputs are not every id once"
        );
        assert_levels_exact(&what, &report, rounds);
    }
}

/// The open-loop injector blocks on a one-slot intake far more often
/// than not: every completion must reach it, or it waits out its timeout
/// on each of the run's tasks.
#[test]
fn blocked_injector_is_woken_by_every_completion() {
    let (ids, report) = within_watchdog("open-loop Block run".into(), || {
        let weights = OracleWeights::new(GpuParams::geforce_8800gt(), true);
        let arrivals = vec![0; STRESS_TASKS as usize];
        let completed = Mutex::new(Vec::new());
        let report = stress_chain(1, 0).run_load(
            &arrivals,
            &|i, _arrival_ns| mk_task(i),
            LoadConfig {
                admission: AdmissionConfig {
                    inflight_cap: 1,
                    queue_cap: 1,
                    policy: OverloadPolicy::Block,
                },
                sample_every: Duration::from_millis(1),
            },
            &weights,
            &Recorder::disabled(),
            &|t, _started_ns, _finished_ns| completed.lock().unwrap().push(t.buffer.id.0),
        );
        let mut ids = completed.into_inner().unwrap();
        ids.sort_unstable();
        (ids, report)
    });
    assert_eq!(ids, (0..STRESS_TASKS).collect::<Vec<_>>());
    assert_eq!(report.admission.generated, STRESS_TASKS);
    assert_eq!(report.admission.admitted, STRESS_TASKS);
    assert!(report.admission.conserved());
    assert_eq!(report.completed, STRESS_TASKS);
    assert_levels_exact("open-loop Block run", &report.local, 0);
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
