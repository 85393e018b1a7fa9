//! Dataflow graphs of replicated filters connected by labeled streams.
//!
//! Anthill applications are not single filters: they are DAGs of
//! replicated filters wired by *streams* (paper Section 2, Figure 1). This
//! module is the structural layer the runtime schedules over — it owns no
//! policy and no execution, only the topology and the per-edge routing
//! rule that decides where a buffer emitted by filter *i* is delivered
//! (`DataflowGraph::deliver_emission` applies that rule to an engine for
//! the driver whose deliveries are instant).
//!
//! Routing modes mirror Anthill's stream kinds:
//!
//! * [`Routing::RoundRobin`] — the classic load-balancing stream: each
//!   emitted buffer goes to exactly one downstream edge, rotating over the
//!   filter's round-robin out-edges in declaration order.
//! * [`Routing::Labeled`] — a labeled stream: the edge declares a label
//!   and receives exactly the buffers whose `level` matches it (the
//!   labeled-stream hash of the paper, keyed on our integer label space).
//! * [`Routing::Broadcast`] — every emitted buffer is copied onto the
//!   edge, in addition to any labeled/round-robin delivery.
//!
//! Edges marked [`EdgeSpec::feedback`] are excluded from the acyclicity
//! check; they model the Classifier→Start→Reader recirculation cycle of
//! Figure 1 and are used only for explicitly recirculated buffers, so the
//! forward dataflow remains a DAG.

use std::fmt;

use crate::buffer::DataBuffer;
use crate::engine::sequential::GraphEmission;
use crate::engine::{Clock, Engine, Transport};
use crate::weights::WeightProvider;

/// How an edge receives buffers emitted by its source filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// One delivery per emission, rotating over the source's round-robin
    /// edges in declaration order.
    RoundRobin,
    /// Receives buffers whose `level` equals the edge's label.
    Labeled,
    /// Receives a copy of every emission.
    Broadcast,
}

/// One filter (a replicated processing stage) of a dataflow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterSpec {
    /// Human-readable filter name (trace/report labels).
    pub name: String,
}

impl FilterSpec {
    /// A named filter.
    pub fn new(name: &str) -> FilterSpec {
        FilterSpec {
            name: name.to_string(),
        }
    }
}

/// One directed stream between two filters of the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeSpec {
    /// Source filter id.
    pub from: usize,
    /// Destination filter id.
    pub to: usize,
    /// Delivery rule for buffers emitted by `from`.
    pub routing: Routing,
    /// Label matched against `DataBuffer::level` (labeled edges only).
    pub label: Option<u8>,
    /// Feedback edges carry explicitly recirculated buffers and are
    /// excluded from the acyclicity check.
    pub feedback: bool,
}

impl EdgeSpec {
    /// A forward round-robin stream.
    pub fn round_robin(from: usize, to: usize) -> EdgeSpec {
        EdgeSpec {
            from,
            to,
            routing: Routing::RoundRobin,
            label: None,
            feedback: false,
        }
    }

    /// A forward broadcast stream.
    #[cfg(test)]
    pub(crate) fn broadcast(from: usize, to: usize) -> EdgeSpec {
        EdgeSpec {
            from,
            to,
            routing: Routing::Broadcast,
            label: None,
            feedback: false,
        }
    }

    /// A feedback (recirculation) stream; excluded from the DAG check.
    pub fn feedback(from: usize, to: usize) -> EdgeSpec {
        EdgeSpec {
            from,
            to,
            routing: Routing::RoundRobin,
            label: None,
            feedback: true,
        }
    }
}

/// Why a graph failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph has no filters.
    Empty,
    /// An edge references a filter id outside the filter list.
    BadEndpoint {
        /// Offending edge index.
        edge: usize,
    },
    /// A labeled edge carries no label, or a non-labeled edge carries one.
    BadLabel {
        /// Offending edge index.
        edge: usize,
    },
    /// The forward (non-feedback) edges contain a cycle.
    Cycle,
    /// A filter declares more than one feedback out-edge.
    MultipleFeedback {
        /// Offending filter id.
        filter: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "graph has no filters"),
            GraphError::BadEndpoint { edge } => {
                write!(f, "edge {edge} references a filter outside the graph")
            }
            GraphError::BadLabel { edge } => {
                write!(f, "edge {edge} has a label inconsistent with its routing")
            }
            GraphError::Cycle => write!(f, "forward edges contain a cycle"),
            GraphError::MultipleFeedback { filter } => {
                write!(f, "filter {filter} declares more than one feedback edge")
            }
        }
    }
}

/// A validated DAG of replicated filters.
///
/// Construction checks endpoints, label consistency, single-feedback per
/// filter, and acyclicity of the forward edges (Kahn's algorithm); the
/// accessors below are what the runners consume.
#[derive(Debug, Clone)]
pub struct DataflowGraph {
    filters: Vec<FilterSpec>,
    edges: Vec<EdgeSpec>,
    /// Per filter: out-edge ids in declaration order (forward edges only).
    out_edges: Vec<Vec<usize>>,
    /// Per filter: in-edge ids in declaration order (forward edges only).
    in_edges: Vec<Vec<usize>>,
    /// Per filter: its feedback out-edge, if declared.
    feedback: Vec<Option<usize>>,
}

impl DataflowGraph {
    /// Validate and build a graph from filters and edges.
    pub fn new(
        filters: Vec<FilterSpec>,
        edges: Vec<EdgeSpec>,
    ) -> Result<DataflowGraph, GraphError> {
        if filters.is_empty() {
            return Err(GraphError::Empty);
        }
        let n = filters.len();
        let mut out_edges = vec![Vec::new(); n];
        let mut in_edges = vec![Vec::new(); n];
        let mut feedback = vec![None; n];
        for (ei, e) in edges.iter().enumerate() {
            if e.from >= n || e.to >= n {
                return Err(GraphError::BadEndpoint { edge: ei });
            }
            let label_ok = match e.routing {
                Routing::Labeled => e.label.is_some(),
                Routing::RoundRobin | Routing::Broadcast => e.label.is_none(),
            };
            if !label_ok {
                return Err(GraphError::BadLabel { edge: ei });
            }
            if e.feedback {
                if feedback[e.from].is_some() {
                    return Err(GraphError::MultipleFeedback { filter: e.from });
                }
                feedback[e.from] = Some(ei);
            } else {
                out_edges[e.from].push(ei);
                in_edges[e.to].push(ei);
            }
        }
        // Kahn's algorithm over the forward edges: it visits every filter
        // exactly when they are acyclic.
        let mut indegree: Vec<usize> = in_edges.iter().map(Vec::len).collect();
        let mut frontier: Vec<usize> = (0..n).filter(|&f| indegree[f] == 0).collect();
        let mut visited = 0;
        while let Some(f) = frontier.pop() {
            visited += 1;
            for &ei in &out_edges[f] {
                let t = edges[ei].to;
                indegree[t] -= 1;
                if indegree[t] == 0 {
                    frontier.push(t);
                }
            }
        }
        if visited != n {
            return Err(GraphError::Cycle);
        }
        Ok(DataflowGraph {
            filters,
            edges,
            out_edges,
            in_edges,
            feedback,
        })
    }

    /// The degenerate single-filter graph (today's engine shape).
    pub fn single(name: &str) -> DataflowGraph {
        DataflowGraph::new(vec![FilterSpec::new(name)], Vec::new()).expect("single filter is valid")
    }

    /// A linear pipeline with one round-robin stream between each pair of
    /// consecutive filters.
    pub fn pipeline(names: &[&str]) -> DataflowGraph {
        let filters = names.iter().map(|n| FilterSpec::new(n)).collect();
        let edges = (1..names.len())
            .map(|i| EdgeSpec::round_robin(i - 1, i))
            .collect();
        DataflowGraph::new(filters, edges).expect("pipeline is valid")
    }

    /// A fan-out/fan-in diamond: `source` splits round-robin over two
    /// branch filters which both feed `sink`.
    pub fn diamond(source: &str, left: &str, right: &str, sink: &str) -> DataflowGraph {
        DataflowGraph::new(
            vec![
                FilterSpec::new(source),
                FilterSpec::new(left),
                FilterSpec::new(right),
                FilterSpec::new(sink),
            ],
            vec![
                EdgeSpec::round_robin(0, 1),
                EdgeSpec::round_robin(0, 2),
                EdgeSpec::round_robin(1, 3),
                EdgeSpec::round_robin(2, 3),
            ],
        )
        .expect("diamond is valid")
    }

    /// Number of filters.
    pub fn n_filters(&self) -> usize {
        self.filters.len()
    }

    /// The filter specs, indexed by filter id.
    pub fn filters(&self) -> &[FilterSpec] {
        &self.filters
    }

    /// All edges (forward and feedback), indexed by edge id.
    pub fn edges(&self) -> &[EdgeSpec] {
        &self.edges
    }

    /// One edge by id.
    pub fn edge(&self, id: usize) -> &EdgeSpec {
        &self.edges[id]
    }

    /// Forward out-edge ids of `filter`, in declaration order.
    pub(crate) fn out_edges(&self, filter: usize) -> &[usize] {
        &self.out_edges[filter]
    }

    /// The filter's feedback out-edge, if declared.
    pub(crate) fn feedback_edge(&self, filter: usize) -> Option<usize> {
        self.feedback[filter]
    }

    /// Filters with no forward in-edges (the graph's sources).
    pub fn sources(&self) -> Vec<usize> {
        (0..self.n_filters())
            .filter(|&f| self.in_edges[f].is_empty())
            .collect()
    }

    /// True if any edge uses broadcast routing (backends whose task
    /// payloads cannot be cloned reject such graphs).
    pub(crate) fn has_broadcast(&self) -> bool {
        self.edges.iter().any(|e| e.routing == Routing::Broadcast)
    }

    /// Resolve delivery for one buffer of `level` emitted forward by
    /// `from`: every broadcast out-edge receives a copy, every labeled
    /// out-edge whose label matches receives one, and — if neither rule
    /// delivered — one round-robin out-edge (rotated via `cursors`)
    /// receives it. An empty result means the emission leaves the graph
    /// (`from` is a sink for this buffer).
    pub(crate) fn route_forward(
        &self,
        from: usize,
        level: u8,
        cursors: &mut RoutingCursors,
    ) -> Vec<usize> {
        let mut targets = Vec::new();
        let mut matched = false;
        for &ei in &self.out_edges[from] {
            match self.edges[ei].routing {
                Routing::Broadcast => targets.push(ei),
                Routing::Labeled => {
                    if self.edges[ei].label == Some(level) {
                        targets.push(ei);
                        matched = true;
                    }
                }
                Routing::RoundRobin => {}
            }
        }
        if !matched {
            let rr: Vec<usize> = self.out_edges[from]
                .iter()
                .copied()
                .filter(|&ei| self.edges[ei].routing == Routing::RoundRobin)
                .collect();
            if !rr.is_empty() {
                let cur = &mut cursors.next_out[from];
                targets.push(rr[*cur % rr.len()]);
                *cur = (*cur + 1) % rr.len();
            }
        }
        targets
    }

    /// Deliver what one completion at `filter` emitted, for the driver
    /// whose deliveries are instant (the lockstep loop of
    /// [`crate::engine::sequential`]): feedback goes over the filter's feedback edge, or — with
    /// none declared — re-enters its own queue at recirculation
    /// precedence; each forward buffer goes to every
    /// [`route_forward`](DataflowGraph::route_forward) target (cloned for
    /// all but the last) and joins `outputs` when no edge matches.
    pub(crate) fn deliver_emission<C: Clock, W: WeightProvider, D: Transport>(
        &self,
        filter: usize,
        emission: GraphEmission,
        cursors: &mut RoutingCursors,
        engine: &mut Engine<C, W>,
        outputs: &mut Vec<DataBuffer>,
        d: &mut D,
    ) {
        for b in emission.feedback {
            match self.feedback_edge(filter) {
                Some(ei) => engine.deliver_edge(ei as u32, self.edges[ei].to, b, d),
                None => engine.recirculate(filter, b, d),
            }
        }
        for b in emission.forward {
            let targets = self.route_forward(filter, b.level, cursors);
            match targets.split_last() {
                None => outputs.push(b),
                Some((&last, rest)) => {
                    for &ei in rest {
                        engine.deliver_edge(ei as u32, self.edges[ei].to, b.clone(), d);
                    }
                    engine.deliver_edge(last as u32, self.edges[last].to, b, d);
                }
            }
        }
    }
}

/// Per-filter round-robin rotation state for [`DataflowGraph::route_forward`].
///
/// Owned by the runner (not the graph) so a shared graph value can drive
/// many concurrent runs; all cursors start at the first declared
/// round-robin edge, which every backend must preserve for cross-backend
/// parity.
#[derive(Debug, Clone)]
pub(crate) struct RoutingCursors {
    next_out: Vec<usize>,
}

impl RoutingCursors {
    /// Fresh cursors (first round-robin edge next) for `graph`.
    pub(crate) fn new(graph: &DataflowGraph) -> RoutingCursors {
        RoutingCursors {
            next_out: vec![0; graph.n_filters()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DataflowGraph {
        /// Forward in-edge ids of `filter`, in declaration order.
        fn in_edges(&self, filter: usize) -> &[usize] {
            &self.in_edges[filter]
        }

        /// Filters with no forward out-edges (the graph's sinks).
        fn sinks(&self) -> Vec<usize> {
            (0..self.n_filters())
                .filter(|&f| self.out_edges[f].is_empty())
                .collect()
        }
    }

    impl EdgeSpec {
        /// A forward labeled stream receiving buffers of level `label`.
        fn labeled(from: usize, to: usize, label: u8) -> EdgeSpec {
            EdgeSpec {
                from,
                to,
                routing: Routing::Labeled,
                label: Some(label),
                feedback: false,
            }
        }
    }

    #[test]
    fn single_filter_graph_is_degenerate() {
        let g = DataflowGraph::single("only");
        assert_eq!(g.n_filters(), 1);
        assert!(g.out_edges(0).is_empty());
        assert_eq!(g.sources(), vec![0]);
        assert_eq!(g.sinks(), vec![0]);
        let mut cur = RoutingCursors::new(&g);
        assert!(g.route_forward(0, 0, &mut cur).is_empty());
    }

    #[test]
    fn pipeline_chains_round_robin_edges() {
        let g = DataflowGraph::pipeline(&["a", "b", "c"]);
        assert_eq!(g.n_filters(), 3);
        assert_eq!(g.out_edges(0), &[0]);
        assert_eq!(g.in_edges(2), &[1]);
        assert_eq!(g.sources(), vec![0]);
        assert_eq!(g.sinks(), vec![2]);
        let mut cur = RoutingCursors::new(&g);
        assert_eq!(g.route_forward(0, 0, &mut cur), vec![0]);
        assert_eq!(g.route_forward(1, 0, &mut cur), vec![1]);
    }

    #[test]
    fn diamond_splits_round_robin_and_merges() {
        let g = DataflowGraph::diamond("src", "l", "r", "snk");
        let mut cur = RoutingCursors::new(&g);
        assert_eq!(g.route_forward(0, 0, &mut cur), vec![0]);
        assert_eq!(g.route_forward(0, 0, &mut cur), vec![1]);
        assert_eq!(g.route_forward(0, 0, &mut cur), vec![0]);
        assert_eq!(g.in_edges(3), &[2, 3]);
        assert_eq!(g.sinks(), vec![3]);
    }

    #[test]
    fn labeled_edges_match_buffer_level() {
        let g = DataflowGraph::new(
            vec![
                FilterSpec::new("split"),
                FilterSpec::new("low"),
                FilterSpec::new("high"),
            ],
            vec![EdgeSpec::labeled(0, 1, 0), EdgeSpec::labeled(0, 2, 1)],
        )
        .unwrap();
        let mut cur = RoutingCursors::new(&g);
        assert_eq!(g.route_forward(0, 0, &mut cur), vec![0]);
        assert_eq!(g.route_forward(0, 1, &mut cur), vec![1]);
        assert!(g.route_forward(0, 7, &mut cur).is_empty());
    }

    #[test]
    fn broadcast_copies_to_every_broadcast_edge() {
        let g = DataflowGraph::new(
            vec![
                FilterSpec::new("src"),
                FilterSpec::new("a"),
                FilterSpec::new("b"),
            ],
            vec![EdgeSpec::broadcast(0, 1), EdgeSpec::broadcast(0, 2)],
        )
        .unwrap();
        assert!(g.has_broadcast());
        let mut cur = RoutingCursors::new(&g);
        assert_eq!(g.route_forward(0, 3, &mut cur), vec![0, 1]);
    }

    #[test]
    fn labeled_falls_back_to_round_robin_when_unmatched() {
        let g = DataflowGraph::new(
            vec![
                FilterSpec::new("src"),
                FilterSpec::new("special"),
                FilterSpec::new("default"),
            ],
            vec![EdgeSpec::labeled(0, 1, 9), EdgeSpec::round_robin(0, 2)],
        )
        .unwrap();
        let mut cur = RoutingCursors::new(&g);
        assert_eq!(g.route_forward(0, 9, &mut cur), vec![0]);
        assert_eq!(g.route_forward(0, 1, &mut cur), vec![1]);
    }

    #[test]
    fn feedback_edges_do_not_count_as_cycles() {
        let g = DataflowGraph::new(
            vec![FilterSpec::new("reader"), FilterSpec::new("classifier")],
            vec![EdgeSpec::round_robin(0, 1), EdgeSpec::feedback(1, 0)],
        )
        .unwrap();
        assert_eq!(g.feedback_edge(1), Some(1));
        assert_eq!(g.feedback_edge(0), None);
        // The feedback edge never routes forward.
        let mut cur = RoutingCursors::new(&g);
        assert!(g.route_forward(1, 0, &mut cur).is_empty());
    }

    #[test]
    fn forward_cycles_are_rejected() {
        let err = DataflowGraph::new(
            vec![FilterSpec::new("a"), FilterSpec::new("b")],
            vec![EdgeSpec::round_robin(0, 1), EdgeSpec::round_robin(1, 0)],
        )
        .unwrap_err();
        assert_eq!(err, GraphError::Cycle);
    }

    #[test]
    fn bad_endpoints_and_labels_are_rejected() {
        assert_eq!(
            DataflowGraph::new(
                vec![FilterSpec::new("a")],
                vec![EdgeSpec::round_robin(0, 5)]
            )
            .unwrap_err(),
            GraphError::BadEndpoint { edge: 0 }
        );
        assert_eq!(
            DataflowGraph::new(
                vec![FilterSpec::new("a"), FilterSpec::new("b")],
                vec![EdgeSpec {
                    from: 0,
                    to: 1,
                    routing: Routing::Labeled,
                    label: None,
                    feedback: false,
                }],
            )
            .unwrap_err(),
            GraphError::BadLabel { edge: 0 }
        );
        assert_eq!(
            DataflowGraph::new(Vec::new(), Vec::new()).unwrap_err(),
            GraphError::Empty
        );
    }

    #[test]
    fn multiple_feedback_edges_per_filter_are_rejected() {
        let err = DataflowGraph::new(
            vec![FilterSpec::new("a"), FilterSpec::new("b")],
            vec![
                EdgeSpec::round_robin(0, 1),
                EdgeSpec::feedback(1, 0),
                EdgeSpec::feedback(1, 0),
            ],
        )
        .unwrap_err();
        assert_eq!(err, GraphError::MultipleFeedback { filter: 1 });
    }
}
