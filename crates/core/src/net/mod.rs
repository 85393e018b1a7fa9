//! `anthill::net` — the TCP multi-process backend.
//!
//! The paper's Anthill deployment spreads filter instances across a
//! gigabit-Ethernet cluster; this module is the reproduction's third
//! backend, putting the scheduling engine in a *coordinator* process and
//! the filter handlers in *worker* processes connected over TCP. The
//! split mirrors the other backends exactly — all decisions stay in
//! [`crate::engine`], and this module only prices the hops:
//!
//! * [`frame`] — the wire protocol: `[magic][tag][len]`-framed binary
//!   messages carrying requests, [`DataBuffer`](crate::buffer::DataBuffer)
//!   payloads (including `TaskParams`), completions with worker-side
//!   trace spans, and heartbeats, plus an incremental decoder that
//!   tolerates arbitrarily split or coalesced reads and rejects corrupt
//!   headers before buffering a payload.
//! * [`worker`] — the stateless worker loop (echo requests, execute
//!   deliveries, heartbeat when idle), runnable as a child process (the
//!   `net_worker` binary) or as an in-process thread for fast loopback
//!   tests.
//! * `driver` — the coordinator: a lockstep deterministic mode over a
//!   dataflow graph that *is* the sequential reference driver's loop, a
//!   socket round trip at every hop (bit-identical per-device counts,
//!   pinned by the parity suite), and one wall-clock event loop, shared by the
//!   batch, elastic and open-loop entry points, where worker death —
//!   killed process, severed connection
//!   ([`ConnectionDropSpec`](crate::faults::ConnectionDropSpec)),
//!   heartbeat silence — flows into the engine's recovery path. The
//!   wall-clock decisions live in `coord`, a crate-private coordinator
//!   that is a function of time and input; the driver is its socket
//!   shell.
//!
//! Connection lifecycle: connect → `Hello` handshake (slot identity
//! echoed both ways) → request/deliver/complete traffic bounded by the
//! engine's demand windows → `Shutdown`/`Bye`. Worker trace spans ride
//! back on `Complete` frames and are re-stamped onto the coordinator's
//! clock as `remote_start`/`remote_finish` events, so `obs` exporters see
//! one merged, deterministically ordered stream.

pub mod conn;
pub(crate) mod coord;
pub(crate) mod driver;
pub(crate) mod eventloop;
pub mod frame;
pub mod worker;

pub use conn::{Conn, RawIo, ReadStatus, WireStats};
pub use driver::{
    run_concurrent, run_concurrent_elastic, run_concurrent_load, run_concurrent_load_autoscaled,
    run_graph_deterministic, run_graph_deterministic_with, DrainAt, ElasticLoad, ElasticOutcome,
    NetConfig, NetGraphOutcome, NetLoadReport, NetOutcome, NetQueueSample, NetTaskTiming,
    NetWorkerConn,
};
pub use frame::{
    encode_deliver_into, encode_frame, encode_frame_into, BufPool, Frame, FrameDecoder, FrameError,
    WireSpan,
};
pub use worker::{
    connect_and_run, join_and_run, run_worker, spawn_joining_worker_thread, spawn_worker_thread,
    Behavior,
};

use std::io;
use std::net::{TcpListener, TcpStream};

/// A connected loopback socket pair: `(coordinator side, worker side)`.
///
/// The listener lives only long enough to accept the one connection —
/// the standard std-only substitute for `socketpair`.
pub fn tcp_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let coordinator = TcpStream::connect(addr)?;
    let (worker, _) = listener.accept()?;
    Ok((coordinator, worker))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufferId, DataBuffer};
    use crate::engine::sequential::SequentialOutcome;
    use crate::policy::Policy;
    use crate::weights::OracleWeights;
    use anthill_estimator::TaskParams;
    use anthill_hetsim::{DeviceId, DeviceKind, GpuParams, TaskShape};
    use anthill_simkit::SimDuration;

    /// A loopback listener and the address joiners dial.
    pub(crate) fn loopback_listener() -> (TcpListener, String) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("listener address").to_string();
        (listener, addr)
    }

    /// What test builds record of the wall-clock runs on the running thread
    /// while [`RunLog::capture`] collects: every input the shell handed the
    /// coordinator, stamped with its time, and every outbox it got back (the
    /// first is the constructor's).
    #[derive(Default)]
    pub(crate) struct RunLog {
        pub(crate) inputs: Vec<(u64, coord::Input)>,
        pub(crate) outboxes: Vec<Vec<coord::Out>>,
    }

    thread_local! {
        static RUN_LOG: std::cell::RefCell<Option<RunLog>> = const { std::cell::RefCell::new(None) };
    }

    impl RunLog {
        /// Run `f`, returning its result and the log of its wall-clock run.
        pub(crate) fn capture<T>(f: impl FnOnce() -> T) -> (T, RunLog) {
            RUN_LOG.with(|log| *log.borrow_mut() = Some(RunLog::default()));
            let result = f();
            let log = RUN_LOG.with(|log| log.borrow_mut().take());
            (result, log.expect("the log was installed"))
        }

        pub(crate) fn append(input: Option<(u64, coord::Input)>, outbox: &[coord::Out]) {
            RUN_LOG.with(|log| {
                if let Some(log) = log.borrow_mut().as_mut() {
                    log.inputs.extend(input);
                    log.outboxes.push(outbox.to_vec());
                }
            });
        }
    }

    fn tile(id: u64) -> DataBuffer {
        DataBuffer {
            id: BufferId(id),
            params: TaskParams::nums(&[32.0]),
            shape: TaskShape {
                cpu: SimDuration::from_micros(400),
                gpu_kernel: SimDuration::from_micros(400),
                bytes_in: 0,
                bytes_out: 0,
            },
            level: 0,
            task: id,
        }
    }

    fn loopback_workers(kinds: &[DeviceKind], behavior: Behavior) -> Vec<NetWorkerConn> {
        kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let (coord, worker_side) = tcp_pair().expect("loopback pair");
                spawn_worker_thread(worker_side, behavior);
                NetWorkerConn {
                    device: DeviceId {
                        node: 0,
                        kind,
                        index: i,
                    },
                    stream: coord,
                }
            })
            .collect()
    }

    /// `n` tiles through the one-filter graph on one CPU and one GPU
    /// loopback worker, in lockstep.
    fn single_filter_lockstep(policy: Policy, behavior: Behavior, n: u64) -> NetGraphOutcome {
        run_graph_deterministic(
            NetConfig::new(policy),
            &crate::graph::DataflowGraph::single("only"),
            vec![loopback_workers(
                &[DeviceKind::Cpu, DeviceKind::Gpu],
                behavior,
            )],
            (0..n).map(|i| (0usize, tile(i))).collect(),
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
        )
        .expect("net run")
    }

    /// A one-filter graph outcome in the shape the sequential `run` reports.
    fn flat(out: &NetGraphOutcome) -> SequentialOutcome {
        SequentialOutcome {
            assigned: out
                .assigned
                .iter()
                .map(|(&(_, kind, level), &n)| ((kind, level), n))
                .collect(),
            dispatch_order: out
                .dispatch_order
                .iter()
                .map(|&(_, kind, id)| (kind, id))
                .collect(),
            total: out.total,
        }
    }

    #[test]
    fn lockstep_loopback_processes_every_source_once() {
        let out = single_filter_lockstep(Policy::ddfcfs(4), Behavior::Identity, 50);
        assert_eq!(out.total, 50);
        assert_eq!(out.deaths, 0);
        let mut ids: Vec<u64> = out.dispatch_order.iter().map(|&(_, _, id)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..50).collect::<Vec<u64>>());
    }

    #[test]
    fn lockstep_matches_the_sequential_reference_driver() {
        use crate::engine::sequential::{run as seq_run, Emission, SequentialConfig};
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
        for policy in [Policy::ddfcfs(4), Policy::ddwrr(8), Policy::odds()] {
            let seq = seq_run(
                SequentialConfig::new(policy),
                &devices,
                (0..60).map(tile).collect(),
                OracleWeights::new(GpuParams::geforce_8800gt(), false),
                |_, _| Emission::default(),
            );
            let net = flat(&single_filter_lockstep(policy, Behavior::Identity, 60));
            assert_eq!(net.assigned, seq.assigned, "policy {policy:?}");
            assert_eq!(net.dispatch_order, seq.dispatch_order, "policy {policy:?}");
        }
    }

    /// What the flat `LockstepDriver` dispatched at 78014d1 (60 tiles, one
    /// CPU and one GPU loopback worker): dispatch count, FNV-1a-64 of the
    /// `(kind, id)` order, `(kind, level)` tallies. With equal CPU/GPU
    /// shapes the three policies coincide on `Identity` and part ways only
    /// once recirculated copies re-enter the reader.
    #[test]
    fn single_filter_graph_schedules_as_the_flat_lockstep_driver_did() {
        use crate::engine::sequential::dispatch_fnv;
        use DeviceKind::{Cpu, Gpu};
        type Tally = [((DeviceKind, u8), u64); 4];
        let check = |policy, behavior, len, order_fnv, tally: &[((DeviceKind, u8), u64)]| {
            let out = flat(&single_filter_lockstep(policy, behavior, 60));
            assert_eq!(out.dispatch_order.len(), len, "{policy:?} {behavior:?}");
            assert_eq!(
                dispatch_fnv(&out.dispatch_order),
                order_fnv,
                "{policy:?} {behavior:?}"
            );
            assert_eq!(
                out.assigned,
                tally.iter().copied().collect(),
                "{policy:?} {behavior:?}"
            );
        };
        let tally = |c0, c1, g0, g1| {
            [
                ((Cpu, 0), c0),
                ((Cpu, 1), c1),
                ((Gpu, 0), g0),
                ((Gpu, 1), g1),
            ]
        };
        let recirc: [(Policy, u64, Tally); 3] = [
            (
                Policy::ddfcfs(4),
                0x4ada_fd77_a6d9_af2f,
                tally(27, 33, 33, 27),
            ),
            (
                Policy::ddwrr(8),
                0x12ee_320b_7f05_8409,
                tally(28, 32, 32, 28),
            ),
            (Policy::odds(), 0x624e_53eb_3927_688d, tally(30, 30, 30, 30)),
        ];
        for (policy, order_fnv, tally) in recirc {
            check(
                policy,
                Behavior::Identity,
                60,
                0x5ae1_38c9_f457_26b9,
                &[((Cpu, 0), 30), ((Gpu, 0), 30)],
            );
            check(
                policy,
                Behavior::Recirc { rounds: 2 },
                120,
                order_fnv,
                &tally,
            );
        }
    }

    #[test]
    fn concurrent_loopback_completes_with_recirculation() {
        let workers = loopback_workers(
            &[DeviceKind::Cpu, DeviceKind::Cpu],
            Behavior::Recirc { rounds: 2 },
        );
        let out = run_concurrent(
            NetConfig::new(Policy::ddwrr(8)),
            workers,
            (0..30).map(tile).collect(),
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
        )
        .expect("net run");
        assert_eq!(out.total, 60, "30 seeds + 30 recirculated");
        assert_eq!(out.deaths, 0);
    }

    #[test]
    fn concurrent_load_loopback_completes_every_admitted_arrival() {
        use crate::engine::AdmissionConfig;
        use std::time::Duration;
        let workers = loopback_workers(&[DeviceKind::Cpu, DeviceKind::Cpu], Behavior::Identity);
        let arrivals: Vec<u64> = (0..200).map(|i| i * 50_000).collect(); // 50 µs apart
        let mut timings = Vec::new();
        let report = run_concurrent_load(
            NetConfig::new(Policy::ddfcfs(4)),
            AdmissionConfig::default(),
            workers,
            &arrivals,
            &mut |i, _| tile(i),
            Duration::from_millis(1),
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
            &mut |t| timings.push(t),
        )
        .expect("net load run");
        assert!(report.admission.conserved(), "{:?}", report.admission);
        assert_eq!(report.admission.generated, 200);
        assert_eq!(report.admission.admitted, 200);
        assert_eq!(report.completed, 200);
        assert_eq!(report.outcome.total, 200);
        assert_eq!(timings.len(), 200);
        let mut ids: Vec<u64> = timings.iter().map(|t| t.buffer).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..200).collect::<Vec<u64>>());
        assert!(timings.iter().all(|t| t.e2e_ns >= t.service_ns));
        assert!(!report.queue_depth.is_empty());
    }

    #[test]
    fn concurrent_load_shed_policy_bounds_a_saturating_schedule() {
        use crate::engine::{AdmissionConfig, OverloadPolicy};
        use std::time::Duration;
        // One deliberately slow worker against back-to-back arrivals: the
        // shed policy must keep intake bounded and the run on schedule.
        let workers = loopback_workers(&[DeviceKind::Cpu], Behavior::Busy { micros: 300 });
        let arrivals: Vec<u64> = (0..400).map(|i| i * 10_000).collect(); // 10 µs apart
        let cfg = AdmissionConfig {
            inflight_cap: 4,
            queue_cap: 8,
            policy: OverloadPolicy::ShedOldest,
        };
        let report = run_concurrent_load(
            NetConfig::new(Policy::ddfcfs(4)),
            cfg,
            workers,
            &arrivals,
            &mut |i, _| tile(i),
            Duration::from_millis(1),
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
            &mut |_| {},
        )
        .expect("net load run");
        assert!(report.admission.conserved(), "{:?}", report.admission);
        assert_eq!(report.admission.generated, 400);
        assert!(report.admission.shed > 0, "{:?}", report.admission);
        assert_eq!(report.completed, report.admission.admitted);
        assert!(report.queue_depth.iter().all(|s| s.intake <= 8));
    }

    /// One connection set per filter: `filters[f]` lists the device kinds
    /// serving filter `f` and the behavior its workers run.
    fn graph_loopback_workers(filters: &[(&[DeviceKind], Behavior)]) -> Vec<Vec<NetWorkerConn>> {
        filters
            .iter()
            .enumerate()
            .map(|(f, &(kinds, behavior))| {
                kinds
                    .iter()
                    .enumerate()
                    .map(|(i, &kind)| {
                        let (coord, worker_side) = tcp_pair().expect("loopback pair");
                        spawn_worker_thread(worker_side, behavior);
                        NetWorkerConn {
                            device: DeviceId {
                                node: f,
                                kind,
                                index: i,
                            },
                            stream: coord,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn graph_lockstep_pipeline_conserves_per_edge() {
        use crate::graph::DataflowGraph;
        let graph = DataflowGraph::pipeline(&["reader", "feature", "classifier"]);
        let cpu: &[DeviceKind] = &[DeviceKind::Cpu];
        let workers = graph_loopback_workers(&[
            (cpu, Behavior::Identity),
            (cpu, Behavior::Identity),
            (cpu, Behavior::Identity),
        ]);
        let out = run_graph_deterministic(
            NetConfig::new(Policy::ddfcfs(4)),
            &graph,
            workers,
            (0..30).map(|i| (0usize, tile(i))).collect(),
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
        )
        .expect("graph net run");
        assert_eq!(out.total, 90, "every buffer crosses all three filters");
        assert_eq!(out.outputs.len(), 30);
        assert_eq!(out.edge_delivered.get(&0), Some(&30));
        assert_eq!(out.edge_delivered.get(&1), Some(&30));
        assert_eq!(out.deaths, 0);
        for f in 0..3 {
            let done: u64 = out
                .assigned
                .iter()
                .filter(|((node, _, _), _)| *node == f)
                .map(|(_, &n)| n)
                .sum();
            assert_eq!(done, 30, "filter {f}");
        }
    }

    #[test]
    fn graph_lockstep_diamond_splits_round_robin() {
        use crate::graph::DataflowGraph;
        let graph = DataflowGraph::diamond("src", "left", "right", "sink");
        let cpu: &[DeviceKind] = &[DeviceKind::Cpu];
        let workers = graph_loopback_workers(&[
            (cpu, Behavior::Identity),
            (cpu, Behavior::Identity),
            (cpu, Behavior::Identity),
            (cpu, Behavior::Identity),
        ]);
        let out = run_graph_deterministic(
            NetConfig::new(Policy::ddfcfs(4)),
            &graph,
            workers,
            (0..40).map(|i| (0usize, tile(i))).collect(),
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
        )
        .expect("graph net run");
        assert_eq!(out.total, 120, "src + one branch + sink per buffer");
        assert_eq!(out.outputs.len(), 40);
        for e in 0..4u32 {
            assert_eq!(out.edge_delivered.get(&e), Some(&20), "edge {e}");
        }
    }

    #[test]
    fn graph_lockstep_feedback_edge_routes_recirculation_upstream() {
        use crate::graph::{DataflowGraph, EdgeSpec, FilterSpec};
        let graph = DataflowGraph::new(
            vec![FilterSpec::new("head"), FilterSpec::new("tail")],
            vec![EdgeSpec::round_robin(0, 1), EdgeSpec::feedback(1, 0)],
        )
        .expect("valid graph");
        let cpu: &[DeviceKind] = &[DeviceKind::Cpu];
        let workers = graph_loopback_workers(&[
            (cpu, Behavior::Identity),
            (cpu, Behavior::Recirc { rounds: 2 }),
        ]);
        let out = run_graph_deterministic(
            NetConfig::new(Policy::ddfcfs(4)),
            &graph,
            workers,
            (0..16).map(|i| (0usize, tile(i))).collect(),
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
        )
        .expect("graph net run");
        // Each buffer: head(0) → tail(0, recirc) → feedback → head(1) →
        // tail(1) → out. Four completions per buffer, two trips per edge
        // on the forward edge, one on the feedback edge.
        assert_eq!(out.total, 64);
        assert_eq!(out.outputs.len(), 16);
        assert!(out.outputs.iter().all(|b| b.level == 1));
        assert_eq!(out.edge_delivered.get(&0), Some(&32), "forward edge");
        assert_eq!(out.edge_delivered.get(&1), Some(&16), "feedback edge");
    }

    #[test]
    fn graph_lockstep_runs_are_deterministic() {
        use crate::graph::DataflowGraph;
        let run = || {
            let graph = DataflowGraph::diamond("src", "left", "right", "sink");
            let devs: &[DeviceKind] = &[DeviceKind::Cpu, DeviceKind::Gpu];
            let workers = graph_loopback_workers(&[
                (devs, Behavior::Identity),
                (devs, Behavior::Identity),
                (devs, Behavior::Identity),
                (devs, Behavior::Identity),
            ]);
            run_graph_deterministic(
                NetConfig::new(Policy::ddwrr(8)),
                &graph,
                workers,
                (0..32).map(|i| (0usize, tile(i))).collect(),
                OracleWeights::new(GpuParams::geforce_8800gt(), false),
            )
            .expect("graph net run")
        };
        let a = run();
        let b = run();
        assert_eq!(a.assigned, b.assigned);
        assert_eq!(a.dispatch_order, b.dispatch_order);
        assert_eq!(a.edge_delivered, b.edge_delivered);
        let ids = |o: &NetGraphOutcome| o.outputs.iter().map(|x| x.id.0).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b));
    }

    #[test]
    fn severed_connection_maps_onto_worker_death() {
        use crate::faults::ConnectionDropSpec;
        let workers = loopback_workers(&[DeviceKind::Cpu, DeviceKind::Cpu], Behavior::Identity);
        let mut cfg = NetConfig::new(Policy::ddfcfs(4));
        cfg.recovery = crate::faults::RecoveryConfig::standard();
        cfg.drops = vec![ConnectionDropSpec {
            node: 0,
            worker: 1,
            after_frames: 20,
        }];
        let out = run_concurrent(
            cfg,
            workers,
            (0..40).map(tile).collect(),
            OracleWeights::new(GpuParams::geforce_8800gt(), false),
        )
        .expect("net run");
        assert_eq!(out.total, 40, "every buffer completes despite the sever");
        assert_eq!(out.deaths, 1);
    }
}
