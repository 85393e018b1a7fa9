//! Weighing a buffer whose shape was seen before, and queueing it in a
//! warm ready queue, touch the heap not at all (DESIGN.md §8), and a TCP
//! task allocates less than once per task at either end: a counting global
//! allocator brackets the calls.
//! Own test binary, since the allocator is process-wide; the count is
//! per thread, so the harness's own threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use anthill_repro::core::buffer::{BufferId, DataBuffer};
use anthill_repro::core::engine::select::ReadyLane;
use anthill_repro::core::net::NetWorkerConn;
use anthill_repro::core::net::{run_concurrent, run_worker, tcp_pair, Behavior, NetConfig};
use anthill_repro::core::policy::{Policy, PolicyKind};
use anthill_repro::core::queue::SharedQueue;
use anthill_repro::core::weights::{EstimatorWeights, OracleWeights, WeightProvider};
use anthill_repro::estimator::{params, KnnEstimator, ProfileStore, TaskParams};
use anthill_repro::hetsim::{DeviceId, DeviceKind, GpuParams, NbiaCostModel};

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

/// Count one allocator call of `bytes` on this thread.
fn count(bytes: usize) {
    ALLOCATED.with(|n| n.set(n.get() + bytes));
    CALLS.with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the counters
// are const-initialised thread-local `Cell`s, which themselves never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread requested from the allocator while `f` ran.
fn allocated_by(f: impl FnOnce()) -> usize {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

/// `f`'s result and the allocator calls this thread made while it ran.
fn calls_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

#[test]
fn the_counter_sees_allocations() {
    assert!(allocated_by(|| drop(black_box(vec![0u8; 64]))) >= 64);
}

#[test]
fn warm_weights_pair_allocates_nothing() {
    let cost = NbiaCostModel::paper_calibrated();
    let mut profile = ProfileStore::new("nbia");
    let buffers: Vec<DataBuffer> = [32u32, 64, 128, 256, 512]
        .iter()
        .zip(0..)
        .map(|(&side, id)| {
            let shape = cost.tile(side);
            let params = TaskParams::nums(&[f64::from(side)]);
            profile.add_cpu_gpu(params.clone(), shape.cpu.as_secs_f64(), 1e-3);
            DataBuffer {
                id: BufferId(id),
                params,
                shape,
                level: 0,
                task: id,
            }
        })
        .collect();
    let weights = EstimatorWeights::new(KnnEstimator::fit(profile, 2));
    for b in &buffers {
        weights.weights_pair(b);
    }
    let bytes = allocated_by(|| {
        for i in 0..1_000 {
            black_box(weights.weights_pair(black_box(&buffers[i % buffers.len()])));
        }
    });
    assert_eq!(bytes, 0, "a memo hit allocated");
}

#[test]
fn shape_key_allocates_nothing() {
    let shapes = [
        params![512.0],
        params![64.0, "glcm-variant", 3usize],
        params![],
    ];
    let bytes = allocated_by(|| {
        for i in 0..1_000 {
            black_box(black_box(&shapes[i % shapes.len()]).shape_key());
        }
    });
    assert_eq!(bytes, 0);
}

/// 1 000 insert + pop-best round trips at depth ~1 000, two recurring
/// weight classes, after one warm-up fill and drain: bytes allocated.
fn warm_round_trips(
    mut push: impl FnMut(DataBuffer, [f64; 2]),
    mut pop: impl FnMut(DeviceKind) -> Option<DataBuffer>,
) -> usize {
    const DEPTH: u64 = 1_000;
    let shape = NbiaCostModel::paper_calibrated().tile(64);
    let params = TaskParams::nums(&[64.0]);
    let buffer = |id: u64| DataBuffer {
        id: BufferId(id),
        params: params.clone(),
        shape,
        level: 0,
        task: id,
    };
    let weights = |id: u64| [[0.03, 33.0], [1.0, 1.0], [1.0, 1.0]][(id % 3) as usize];
    let kind = |turn: u64| DeviceKind::ALL[(turn % 2) as usize];
    // Warm-up: one slot deeper than the measured loop ever gets.
    for id in 0..=DEPTH {
        push(buffer(id), weights(id));
    }
    for turn in 0..=DEPTH {
        pop(kind(turn)).expect("the warm-up fill drains");
    }
    for id in 0..DEPTH {
        push(buffer(id), weights(id));
    }
    let fresh: Vec<DataBuffer> = (DEPTH..2 * DEPTH).map(buffer).collect();
    allocated_by(|| {
        for (turn, b) in (0..).zip(fresh) {
            let w = weights(b.id.0);
            push(b, w);
            black_box(pop(kind(turn)).expect("the queue is a thousand deep"));
        }
    })
}

#[test]
fn warm_queue_round_trips_allocate_nothing() {
    let q = std::cell::RefCell::new(SharedQueue::new());
    let bytes = warm_round_trips(
        |b, w| q.borrow_mut().insert(b, w, None),
        |kind| q.borrow_mut().pop_best(kind).map(|(b, _)| b),
    );
    assert_eq!(bytes, 0, "a warm SharedQueue allocated");
    assert_eq!(q.borrow().len(), 1_000);
}

#[test]
fn warm_lane_round_trips_allocate_nothing() {
    let lane = std::cell::RefCell::new(ReadyLane::tuned(
        PolicyKind::DdWrr,
        &[DeviceKind::Cpu, DeviceKind::Gpu],
    ));
    let bytes = warm_round_trips(
        |b, w| lane.borrow_mut().push(b, w, None),
        |kind| lane.borrow_mut().pop(kind).map(|(b, _)| b),
    );
    assert_eq!(bytes, 0, "a warm ReadyLane allocated");
}

/// `net_batch`'s shape: 1 500 buffers of 32² and 512² tiles, 3:1, each with
/// its own parameter list, through `ddwrr(30)` with 8-buffer deliveries to
/// a CPU and a GPU loopback worker. Each side counts the allocator calls
/// of its own thread, set-up and teardown included: the coordinator's per
/// completed task, the workers' per executed task.
#[test]
fn a_tcp_task_allocates_less_than_once_at_either_end() {
    const TASKS: u64 = 1_500;
    let cost = NbiaCostModel::paper_calibrated();
    let mut rng = anthill_repro::simkit::SimRng::new(1);
    let mut large: Vec<bool> = (0..TASKS).map(|i| i % 4 == 3).collect();
    rng.shuffle(&mut large);
    let sources: Vec<DataBuffer> = (0..)
        .zip(large)
        .map(|(id, large)| {
            let side = if large { 512 } else { 32 };
            DataBuffer {
                id: BufferId(id),
                params: TaskParams::nums(&[f64::from(side)]),
                shape: cost.tile(side),
                level: u8::from(large),
                task: id,
            }
        })
        .collect();
    let mut workers = Vec::new();
    let conns: Vec<NetWorkerConn> = (0..)
        .zip([DeviceKind::Cpu, DeviceKind::Gpu])
        .map(|(index, kind)| {
            let (stream, worker_side) = tcp_pair().expect("loopback pair");
            workers.push(std::thread::spawn(move || {
                calls_by(|| run_worker(worker_side, Behavior::Identity).expect("worker"))
            }));
            let device = DeviceId {
                node: 0,
                kind,
                index,
            };
            NetWorkerConn { device, stream }
        })
        .collect();
    let cfg = NetConfig {
        batch_limit: 8,
        ..NetConfig::new(Policy::ddwrr(30))
    };
    let weights = OracleWeights::new(GpuParams::geforce_8800gt(), false);
    let (outcome, coordinator) = calls_by(|| run_concurrent(cfg, conns, sources, weights));
    assert_eq!(outcome.expect("net run").total, TASKS);
    let (mut executed, mut calls) = (0, 0);
    for worker in workers {
        let (ran, made) = worker.join().expect("worker thread");
        executed += ran;
        calls += made;
    }
    assert_eq!(executed, TASKS);
    let per_task = |calls: usize| calls as f64 / TASKS as f64;
    let (coordinator, worker) = (per_task(coordinator), per_task(calls));
    println!("allocations per task: coordinator {coordinator:.3}, workers {worker:.3}");
    assert!(
        coordinator <= 1.25,
        "coordinator: {coordinator:.3} per task"
    );
    assert!(worker <= 0.75, "workers: {worker:.3} per task");
}
