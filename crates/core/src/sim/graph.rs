//! The virtual-time graph executor: the DES counterpart of
//! [`crate::engine::sequential::run_graph`], driving a whole
//! [`DataflowGraph`] of replicated filters through the shared scheduling
//! engine in modeled time — a set-up over the one DES world
//! ([`crate::sim::world`]) that cluster runs share.
//!
//! Each filter of the graph is one engine node whose reader is scoped to
//! its own input queue, so *every edge* runs its own demand-driven stream:
//! an ODDS/DQAA/DBSA instance per (filter, edge), exactly as in the
//! paper's labeled-stream model. Messages between filters traverse the
//! modeled network (one logical placement per filter), tasks occupy
//! modeled devices, and completions feed the caller's handler, whose
//! emissions are routed over the graph's out-edges (round-robin, labeled,
//! or broadcast) or over a declared feedback edge.
//!
//! GPU batches are priced synchronously and nothing fails or joins, which
//! keeps cross-backend parity exact on neutral workloads.

use std::collections::HashMap;

use anthill_hetsim::{ClusterSpec, DeviceKind, GpuParams, NetParams};
use anthill_simkit::{SimDuration, SimTime};

use crate::buffer::DataBuffer;
use crate::engine::sequential::GraphEmission;
use crate::graph::{DataflowGraph, RoutingCursors};
use crate::obs::Recorder;
use crate::policy::Policy;
use crate::sim::runtime::SimConfig;
use crate::sim::world::{Completion, Hop, Sim, RECALC_BYTES};
use crate::weights::WeightProvider;

/// Configuration of one simulated graph run.
#[derive(Clone)]
pub struct GraphSimConfig {
    /// The stream scheduling policy (shared by every edge).
    pub policy: Policy,
    /// GPU timing parameters for GPU worker slots.
    pub gpu: GpuParams,
    /// Network timing parameters for the inter-filter links.
    pub net: NetParams,
    /// Observability sink; disabled by default.
    pub recorder: Recorder,
}

impl GraphSimConfig {
    /// Defaults matching the single-filter simulator.
    pub fn new(policy: Policy) -> GraphSimConfig {
        GraphSimConfig {
            policy,
            gpu: GpuParams::geforce_8800gt(),
            net: NetParams::gigabit_ethernet(),
            recorder: Recorder::disabled(),
        }
    }
}

/// Measurements of one simulated graph run.
#[derive(Debug, Clone)]
pub struct GraphSimReport {
    /// Virtual time of the last buffer leaving the graph.
    pub makespan: SimDuration,
    /// Buffers that left the graph (no matching out-edge), in completion
    /// order.
    pub outputs: Vec<DataBuffer>,
    /// `(filter, device kind, level) -> completions`.
    pub assigned: HashMap<(usize, DeviceKind, u8), u64>,
    /// Buffers delivered over each graph edge.
    pub edge_delivered: HashMap<u32, u64>,
    /// Total completions across all filters.
    pub total: u64,
}

/// A graph's completion rule: call the filter logic, then price every
/// emission over the edge the graph routes it to.
struct GraphRouting<'a, F> {
    graph: &'a DataflowGraph,
    cursors: RoutingCursors,
    handle: F,
    outputs: Vec<DataBuffer>,
}

impl<F> Completion for GraphRouting<'_, F>
where
    F: FnMut(usize, DeviceKind, &DataBuffer) -> GraphEmission,
{
    fn completed(&mut self, hop: &mut Hop<'_>, kind: DeviceKind, buffer: &DataBuffer) {
        let filter = hop.node;
        let em = (self.handle)(filter, kind, buffer);
        for b in em.feedback {
            // Feedback goes over the filter's declared feedback edge when
            // one exists; self-recirculation otherwise. Either way the hop
            // is priced as a control message.
            let edge = self.graph.feedback_edge(filter);
            let to = edge.map_or(filter, |ei| self.graph.edge(ei).to);
            hop.send(to, RECALC_BYTES, edge, b);
        }
        for b in em.forward {
            let targets = self.graph.route_forward(filter, b.level, &mut self.cursors);
            let Some((&last, rest)) = targets.split_last() else {
                // No matching out-edge: the buffer leaves the graph.
                self.outputs.push(b);
                hop.leave();
                continue;
            };
            for &ei in rest {
                hop.send(self.graph.edge(ei).to, b.wire_bytes(), Some(ei), b.clone());
            }
            hop.send(self.graph.edge(last).to, b.wire_bytes(), Some(last), b);
        }
    }
}

/// Run a dataflow graph in virtual time. `devices[f]` lists the worker
/// slots of filter `f` by device class; `seeds` are `(filter, buffer)`
/// pairs entering the named filters' input queues at t = 0; `handle` is
/// the filter logic, invoked once per completion with the hosting filter,
/// the executing device class, and the buffer, returning the emissions to
/// route.
pub fn run_graph_sim<F>(
    cfg: &GraphSimConfig,
    graph: &DataflowGraph,
    devices: &[Vec<DeviceKind>],
    seeds: Vec<(usize, DataBuffer)>,
    weights: Box<dyn WeightProvider>,
    handle: F,
) -> GraphSimReport
where
    F: FnMut(usize, DeviceKind, &DataBuffer) -> GraphEmission,
{
    assert_eq!(
        devices.len(),
        graph.n_filters(),
        "one device list per graph filter"
    );
    // A graph run is a cluster run with nothing switched on — no faults, no
    // membership schedule, calibrated CPUs, synchronous copies — and with
    // the graph's filters where the cluster's nodes would be.
    let flat = SimConfig {
        async_transfers: false,
        gpu: cfg.gpu.clone(),
        net: cfg.net.clone(),
        recorder: cfg.recorder.clone(),
        ..SimConfig::new(ClusterSpec { nodes: Vec::new() }, cfg.policy)
    };
    let routing = GraphRouting {
        graph,
        cursors: RoutingCursors::new(graph),
        handle,
        outputs: Vec::new(),
    };
    let mut sim = Sim::new(&flat, graph.n_filters(), 1, weights, routing);
    for (f, kinds) in devices.iter().enumerate() {
        assert!(!kinds.is_empty(), "filter {f} has no worker slots");
        for &kind in kinds {
            sim.add_worker(f, kind);
        }
        // Per-filter reader scope: workers of filter f request only from
        // their own filter's input queue, giving every edge its own
        // demand-driven stream instance.
        sim.engine.set_reader_scope(f, vec![f]);
    }
    for (f, b) in seeds {
        sim.engine.seed_reader(f, b);
    }

    let sim = sim.run();
    GraphSimReport {
        makespan: sim.finish.since(SimTime::ZERO),
        assigned: sim.engine.tasks_by_node(),
        edge_delivered: sim.engine.edge_delivered(),
        total: sim.engine.total_done(),
        outputs: sim.hook.outputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferId;
    use crate::graph::{EdgeSpec, FilterSpec};
    use crate::weights::OracleWeights;
    use anthill_estimator::TaskParams;
    use anthill_hetsim::TaskShape;

    fn tile(id: u64, micros: u64) -> DataBuffer {
        DataBuffer {
            id: BufferId(id),
            params: TaskParams::nums(&[id as f64]),
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

    fn weights() -> Box<dyn WeightProvider> {
        Box::new(OracleWeights::new(GpuParams::geforce_8800gt(), false))
    }

    fn forward_all(_f: usize, _k: DeviceKind, b: &DataBuffer) -> GraphEmission {
        GraphEmission {
            forward: vec![b.clone()],
            feedback: Vec::new(),
        }
    }

    #[test]
    fn pipeline_processes_every_buffer_at_every_stage() {
        let graph = DataflowGraph::pipeline(&["reader", "feature", "classifier"]);
        let devices = vec![
            vec![DeviceKind::Cpu],
            vec![DeviceKind::Cpu, DeviceKind::Gpu],
            vec![DeviceKind::Cpu],
        ];
        let seeds = (0..30).map(|i| (0, tile(i, 400))).collect();
        let r = run_graph_sim(
            &GraphSimConfig::new(Policy::ddfcfs(4)),
            &graph,
            &devices,
            seeds,
            weights(),
            forward_all,
        );
        assert_eq!(r.total, 90, "30 buffers x 3 filters");
        assert_eq!(r.outputs.len(), 30);
        assert_eq!(r.edge_delivered.get(&0), Some(&30));
        assert_eq!(r.edge_delivered.get(&1), Some(&30));
        assert!(r.makespan > SimDuration::ZERO);
    }

    #[test]
    fn diamond_splits_round_robin_and_conserves() {
        let graph = DataflowGraph::diamond("src", "left", "right", "sink");
        let devices = vec![vec![DeviceKind::Cpu]; 4];
        let seeds = (0..40).map(|i| (0, tile(i, 200))).collect();
        let r = run_graph_sim(
            &GraphSimConfig::new(Policy::odds()),
            &graph,
            &devices,
            seeds,
            weights(),
            forward_all,
        );
        assert_eq!(r.total, 120, "src + one branch + sink per buffer");
        assert_eq!(r.outputs.len(), 40);
        for edge in 0..4u32 {
            assert_eq!(r.edge_delivered.get(&edge), Some(&20), "edge {edge}");
        }
    }

    #[test]
    fn broadcast_duplicates_buffers_across_edges() {
        let graph = DataflowGraph::new(
            vec![
                FilterSpec::new("src"),
                FilterSpec::new("a"),
                FilterSpec::new("b"),
            ],
            vec![EdgeSpec::broadcast(0, 1), EdgeSpec::broadcast(0, 2)],
        )
        .expect("valid broadcast graph");
        let devices = vec![vec![DeviceKind::Cpu]; 3];
        let seeds = (0..10).map(|i| (0, tile(i, 100))).collect();
        let r = run_graph_sim(
            &GraphSimConfig::new(Policy::ddfcfs(2)),
            &graph,
            &devices,
            seeds,
            weights(),
            forward_all,
        );
        assert_eq!(r.total, 30, "each buffer runs on src and both sinks");
        assert_eq!(r.outputs.len(), 20);
        assert_eq!(r.edge_delivered.get(&0), Some(&10));
        assert_eq!(r.edge_delivered.get(&1), Some(&10));
    }

    #[test]
    fn feedback_edge_recirculates_upstream() {
        // a -> b forward; b -> a declared feedback. Level-0 buffers bounce
        // once: b sends them back at level 1 with a fresh id, a forwards
        // them again, b emits them.
        let graph = DataflowGraph::new(
            vec![FilterSpec::new("a"), FilterSpec::new("b")],
            vec![EdgeSpec::round_robin(0, 1), EdgeSpec::feedback(1, 0)],
        )
        .expect("valid feedback graph");
        let devices = vec![vec![DeviceKind::Cpu]; 2];
        let seeds = (0..16).map(|i| (0, tile(i, 100))).collect();
        let r = run_graph_sim(
            &GraphSimConfig::new(Policy::ddfcfs(2)),
            &graph,
            &devices,
            seeds,
            weights(),
            |f, _k, b| {
                let mut em = GraphEmission::default();
                if f == 1 && b.level == 0 {
                    let mut high = b.clone();
                    high.level = 1;
                    high.id = BufferId(b.id.0 + 1_000_000);
                    em.feedback.push(high);
                } else {
                    em.forward.push(b.clone());
                }
                em
            },
        );
        assert_eq!(r.total, 64, "two full round trips per buffer");
        assert_eq!(r.outputs.len(), 16);
        assert!(r.outputs.iter().all(|b| b.level == 1));
        assert_eq!(r.edge_delivered.get(&0), Some(&32));
        assert_eq!(r.edge_delivered.get(&1), Some(&16));
    }

    #[test]
    fn graph_runs_are_deterministic() {
        let graph = DataflowGraph::diamond("src", "left", "right", "sink");
        let devices = vec![vec![DeviceKind::Cpu, DeviceKind::Gpu]; 4];
        let mk = || {
            let seeds = (0..24).map(|i| (0, tile(i, 300))).collect();
            run_graph_sim(
                &GraphSimConfig::new(Policy::ddwrr(8)),
                &graph,
                &devices,
                seeds,
                weights(),
                forward_all,
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.assigned, b.assigned);
        assert_eq!(a.edge_delivered, b.edge_delivered);
        let ids_a: Vec<u64> = a.outputs.iter().map(|o| o.id.0).collect();
        let ids_b: Vec<u64> = b.outputs.iter().map(|o| o.id.0).collect();
        assert_eq!(ids_a, ids_b);
    }
}
