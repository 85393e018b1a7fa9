//! Microbenchmarks of the native runtime's hot paths: coarse vs sharded
//! dispatch state, serialized vs batched trace emission, sequential vs
//! parallel NBIA kernels, and weighing a buffer through the memoised
//! estimator. These isolate the layers that `repro perf` measures
//! end-to-end.

use anthill::buffer::{BufferId, DataBuffer};
use anthill::local::{ExecMode, HotPath, LocalFilter, LocalTask, Pipeline, WorkerSpec};
use anthill::obs::{DeviceRef, EventKind, Recorder};
use anthill::policy::PolicyKind;
use anthill::weights::{EstimatorWeights, OracleWeights, WeightProvider};
use anthill_estimator::{KnnEstimator, OnlineProfile, ProfileStore, TaskParams};
use anthill_hetsim::{DeviceKind, GpuParams, NbiaCostModel, TaskShape};
use anthill_kernels::texture::{feature_vector, feature_vector_par};
use anthill_kernels::tiles::QUANT_LEVELS;
use anthill_simkit::SimDuration;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

/// Forwards its input unchanged: all measured time is runtime overhead.
struct Identity;
impl LocalFilter for Identity {
    fn handle(&self, _d: DeviceKind, task: LocalTask, out: &mut anthill::local::Emitter<'_>) {
        out.forward(task);
    }
}

fn tiny_task(id: u64) -> LocalTask {
    LocalTask::new(
        DataBuffer {
            id: BufferId(id),
            params: TaskParams::nums(&[id as f64]),
            shape: TaskShape {
                cpu: SimDuration::from_micros(1),
                gpu_kernel: SimDuration::from_micros(1),
                bytes_in: 8,
                bytes_out: 8,
            },
            level: 0,
            task: id,
        },
        (),
    )
}

fn dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("dispatch");
    let weights = OracleWeights::new(GpuParams::geforce_8800gt(), true);
    const TASKS: u64 = 2_000;
    g.throughput(Throughput::Elements(TASKS));
    for (label, hot_path) in [("coarse", HotPath::Coarse), ("sharded", HotPath::Sharded)] {
        g.bench_with_input(
            BenchmarkId::new("identity_8w", label),
            &hot_path,
            |b, &hp| {
                b.iter(|| {
                    let mut p = Pipeline::new(PolicyKind::DdFcfs).with_hot_path(hp);
                    p.add_stage(
                        Arc::new(Identity),
                        vec![
                            WorkerSpec {
                                kind: DeviceKind::Cpu,
                                mode: ExecMode::Native,
                            };
                            8
                        ],
                    );
                    let (out, _) = p.run((0..TASKS).map(tiny_task).collect(), &weights);
                    black_box(out.len())
                })
            },
        );
    }
    g.finish();
}

fn trace_emission(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace");
    const EVENTS: u64 = 10_000;
    g.throughput(Throughput::Elements(EVENTS));
    for (label, make) in [
        (
            "serialized",
            Recorder::enabled_serialized as fn() -> Recorder,
        ),
        ("batched", Recorder::enabled as fn() -> Recorder),
    ] {
        g.bench_with_input(BenchmarkId::new("record_drain", label), &make, |b, mk| {
            b.iter(|| {
                let r = mk();
                for i in 0..EVENTS {
                    r.record(
                        i,
                        DeviceRef::worker(0, DeviceKind::Cpu, 0),
                        EventKind::Enqueue {
                            buffer: i,
                            level: 0,
                        },
                    );
                }
                black_box(r.take_events().len())
            })
        });
    }
    g.finish();
}

fn kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    let side = 64usize;
    let img: Vec<u8> = (0..side * side)
        .map(|i| ((i * 31) % usize::from(QUANT_LEVELS)) as u8)
        .collect();
    g.throughput(Throughput::Elements((side * side) as u64));
    g.bench_function("features_seq", |b| {
        b.iter(|| black_box(feature_vector(&img, side, side, QUANT_LEVELS)))
    });
    g.bench_function("features_par4", |b| {
        b.iter(|| black_box(feature_vector_par(&img, side, side, QUANT_LEVELS, 4)))
    });
    g.finish();
}

/// What the engine pays to weigh one buffer through [`EstimatorWeights`]:
/// a memo hit (`warm`), the kNN query behind a miss (`cold`: an online
/// span invalidates the shape before every weighing), and the key alone.
fn weighing(c: &mut Criterion) {
    let mut g = c.benchmark_group("weighing");
    let cost = NbiaCostModel::paper_calibrated();
    let mut profile = ProfileStore::new("nbia");
    let buffers: Vec<DataBuffer> = (1..=30u32)
        .map(|i| {
            let shape = cost.tile(16 * i);
            let params = TaskParams::nums(&[f64::from(16 * i)]);
            profile.add_cpu_gpu(params.clone(), shape.cpu.as_secs_f64(), 1e-3);
            DataBuffer {
                id: BufferId(u64::from(i)),
                params,
                shape,
                level: 0,
                task: u64::from(i),
            }
        })
        .collect();
    let est = KnnEstimator::fit_default(profile);
    g.throughput(Throughput::Elements(buffers.len() as u64));

    let warm = EstimatorWeights::new(est.clone());
    g.bench_function("estimator_weights_pair_warm", |b| {
        b.iter(|| {
            for buf in &buffers {
                black_box(warm.weights_pair(black_box(buf)));
            }
        })
    });

    // `min_obs` is out of reach, so the spans only invalidate.
    let cold = EstimatorWeights::with_online(est, OnlineProfile::default(), u64::MAX);
    g.bench_function("estimator_weights_pair_cold", |b| {
        b.iter(|| {
            for buf in &buffers {
                cold.observe(buf, 0, 0, DeviceKind::Cpu, 1e-3);
                black_box(cold.weights_pair(black_box(buf)));
            }
        })
    });

    g.bench_function("shape_key", |b| {
        b.iter(|| {
            for buf in &buffers {
                black_box(black_box(&buf.params).shape_key());
            }
        })
    });
    g.finish();
}

criterion_group!(hotpath, dispatch, trace_emission, kernels, weighing);
criterion_main!(hotpath);
