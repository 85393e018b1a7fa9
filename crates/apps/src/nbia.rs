//! NBIA — the Neuroblastoma Image Analysis System (paper Section 2) on the
//! anthill runtime. Every deployment generates synthetic tissue tiles,
//! builds their multi-resolution pyramids, converts RGB → La\*b\*,
//! extracts GLCM/LBP features, classifies stromal development with a
//! hypothesis test, and recirculates low-confidence tiles at the next
//! pyramid level — the full control flow of the paper's Figure 1,
//! computing real values.
//!
//! * [`run_local`] (traced: [`run_local_traced`]; on the sequential
//!   reference driver: [`run_local_deterministic`]) — the fused pipeline
//!   on the native threaded runtime. Color conversion, statistical
//!   features and the classifier are one stage, as the paper's optimized
//!   GPU configuration fuses them to avoid unnecessary transfers
//!   (`repro fusion` quantifies that choice).
//! * [`graph`] — Figure 1's reader, feature and classifier filters with
//!   the classifier's feedback edge, run on the threaded runtime, the
//!   sequential reference driver and the DES.
//!
//! The paper-scale cluster runs of the evaluation harness are
//! [`anthill::sim::run_nbia`]: a cost model of this pipeline, no pixels.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use anthill::buffer::{BufferId, DataBuffer};
use anthill::local::{Emitter, ExecMode, LocalFilter, LocalTask, Pipeline, WorkerSpec};
use anthill::policy::PolicyKind;
use anthill::weights::WeightProvider;
use anthill_estimator::TaskParams;
use anthill_hetsim::{DeviceKind, NbiaCostModel};
use anthill_kernels::color::Rgb8;
use anthill_kernels::pyramid::TilePyramid;
use anthill_kernels::tiles::{tile_features, TileClass, TileClassifier, TileGenerator};

/// Configuration of a native-runtime NBIA run.
#[derive(Debug, Clone)]
pub struct NbiaLocalConfig {
    /// Number of tiles to analyze.
    pub tiles: u64,
    /// Low-resolution (starting) tile side in pixels.
    pub low_side: u32,
    /// Full-resolution tile side in pixels (a power-of-two multiple of
    /// `low_side`; the pyramid holds every level in between).
    pub high_side: u32,
    /// Classification confidence threshold of the hypothesis test; tiles
    /// below it climb to the next pyramid level.
    pub confidence_threshold: f64,
    /// RNG seed for tile synthesis.
    pub seed: u64,
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Worker slots of the analysis stage.
    pub workers: Vec<WorkerSpec>,
}

impl Default for NbiaLocalConfig {
    fn default() -> Self {
        NbiaLocalConfig {
            tiles: 48,
            low_side: 32,
            high_side: 128,
            confidence_threshold: 0.25,
            seed: 0xB10,
            policy: PolicyKind::DdWrr,
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
}

/// One classified tile in the run output.
#[derive(Debug, Clone, PartialEq)]
pub struct TileResult {
    /// Tile index.
    pub tile: u64,
    /// The true (generated) class.
    pub truth: TileClass,
    /// The predicted class.
    pub predicted: TileClass,
    /// Pyramid level the decision was accepted at (0 = lowest resolution).
    pub level: u8,
    /// Decision confidence.
    pub confidence: f64,
}

/// NBIA's per-tile rules (paper §2, Fig. 1), one copy for every
/// deployment: tile synthesis, and the hypothesis test that accepts a
/// tile's classification or sends it one pyramid level up.
struct Nbia {
    classifier: TileClassifier,
    cost: NbiaCostModel,
    threshold: f64,
    /// Id of the next recirculated buffer, counting past every tile index.
    next_id: AtomicU64,
}

impl Nbia {
    fn new(config: &NbiaLocalConfig) -> Nbia {
        Nbia {
            classifier: TileClassifier::train(config.seed ^ 0x7EAC, 6, config.low_side),
            cost: NbiaCostModel::paper_calibrated(),
            threshold: config.confidence_threshold,
            next_id: AtomicU64::new(1_000_000),
        }
    }

    /// A buffer carrying `tile` at pyramid `level`, whose side is `side`.
    fn buffer(&self, id: u64, tile: u64, level: u8, side: u32) -> DataBuffer {
        DataBuffer {
            id: BufferId(id),
            params: TaskParams::nums(&[f64::from(side)]),
            shape: self.cost.tile(side),
            level,
            task: tile,
        }
    }

    /// Each tile in index order: its level-0 buffer, its true class and its
    /// full-resolution pixels. Classes rotate through [`TileClass::ALL`].
    fn tiles<'a>(
        &'a self,
        config: &'a NbiaLocalConfig,
    ) -> impl Iterator<Item = (DataBuffer, TileClass, Vec<Rgb8>)> + 'a {
        let mut gen = TileGenerator::new(config.seed);
        (0..config.tiles).map(move |tile| {
            let truth = TileClass::ALL[(tile % 3) as usize];
            let full = gen.generate(truth, config.high_side);
            (self.buffer(tile, tile, 0, config.low_side), truth, full)
        })
    }

    /// The hypothesis test on `buffer`'s tile at its pyramid level: the
    /// tile's result if the classification is confident enough or the
    /// pyramid has no higher level, else the buffer that carries the tile
    /// one level up (Figure 1's feedback edge).
    fn classify(
        &self,
        buffer: &DataBuffer,
        truth: TileClass,
        pyramid: &TilePyramid,
        features: &[f64],
    ) -> Result<TileResult, DataBuffer> {
        let (decision, accepted) = self.classifier.accept(features, self.threshold);
        let next = buffer.level + 1;
        if accepted || usize::from(next) >= pyramid.depth() {
            return Ok(TileResult {
                tile: buffer.task,
                truth,
                predicted: decision.class,
                level: buffer.level,
                confidence: decision.confidence,
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Err(self.buffer(id, buffer.task, next, pyramid.side(usize::from(next))))
    }
}

/// Payload carried through the pipeline: the tile's whole pyramid (shared,
/// as the decomposition step stores every resolution) and its true class.
/// The buffer's `task` is the tile index.
struct TilePayload {
    truth: TileClass,
    pyramid: Arc<TilePyramid>,
}

/// The fused analysis filter: color conversion + features + the
/// hypothesis test, recirculating a rejected tile one level up.
struct AnalysisFilter(Nbia);

impl LocalFilter for AnalysisFilter {
    fn handle(&self, _device: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
        let p = task
            .payload
            .downcast::<TilePayload>()
            .expect("NBIA tile payload");
        let (side, pixels) = p.pyramid.level(task.buffer.level as usize);
        let features = tile_features(pixels, side);
        match self
            .0
            .classify(&task.buffer, p.truth, &p.pyramid, &features)
        {
            Ok(result) => out.forward(LocalTask::new(task.buffer, result)),
            Err(next) => out.recirculate(LocalTask::new(next, *p)),
        }
    }
}

/// Run NBIA end-to-end on the native threaded runtime.
///
/// Returns the classified tiles (sorted by tile index) and the runtime's
/// execution report.
pub fn run_local<W: WeightProvider + Sync>(
    config: &NbiaLocalConfig,
    weights: &W,
) -> (Vec<TileResult>, anthill::local::LocalReport) {
    run_local_traced(config, weights, &anthill::obs::Recorder::disabled())
}

/// [`run_local`] with observability: the pipeline records task lifecycle
/// events (enqueue / dispatch / start / finish) into `recorder`, stamped
/// with monotonic wall time since the run start.
pub fn run_local_traced<W: WeightProvider + Sync>(
    config: &NbiaLocalConfig,
    weights: &W,
    recorder: &anthill::obs::Recorder,
) -> (Vec<TileResult>, anthill::local::LocalReport) {
    let (pipeline, sources) = build_pipeline(config);
    let (outputs, report) = pipeline.run_traced(sources, weights, recorder);
    (collect_results(outputs), report)
}

/// [`run_local`] executed by the engine's sequential reference driver
/// ([`anthill::engine::sequential`]) instead of free-running threads: the
/// same filters and policy, but assignments and output order are a pure
/// function of the configuration — identical on every run.
pub fn run_local_deterministic<W: WeightProvider + Sync>(
    config: &NbiaLocalConfig,
    weights: &W,
) -> (Vec<TileResult>, anthill::local::LocalReport) {
    let (pipeline, sources) = build_pipeline(config);
    let none = anthill::membership::MembershipSchedule::none();
    let (outputs, report) = pipeline.run_deterministic(sources, weights, none);
    (collect_results(outputs), report)
}

/// The shared setup of the native runs: decompose each full-resolution
/// tile into its pyramid (analysis starts at the coarsest level) and
/// assemble the single-stage pipeline.
fn build_pipeline(config: &NbiaLocalConfig) -> (Pipeline, Vec<LocalTask>) {
    let nbia = Nbia::new(config);
    let sources = nbia
        .tiles(config)
        .map(|(buffer, truth, full)| {
            let pyramid = Arc::new(TilePyramid::build(full, config.high_side, config.low_side));
            LocalTask::new(buffer, TilePayload { truth, pyramid })
        })
        .collect();
    let mut pipeline = Pipeline::new(config.policy);
    pipeline.add_stage(Arc::new(AnalysisFilter(nbia)), config.workers.clone());
    (pipeline, sources)
}

fn collect_results(outputs: Vec<LocalTask>) -> Vec<TileResult> {
    let mut results: Vec<TileResult> = outputs
        .into_iter()
        .map(|t| {
            *t.payload
                .downcast::<TileResult>()
                .expect("NBIA result payload")
        })
        .collect();
    results.sort_by_key(|r| r.tile);
    results
}

/// The explicit three-filter deployment of Figure 1: **reader**
/// (pyramid decomposition) → **feature** (color conversion + GLCM/LBP
/// feature extraction) → **classifier** (the hypothesis test), with the
/// classifier's rejection feedback edge returning tiles to the feature
/// filter one pyramid level up.
///
/// One set of filters runs on four backends: the native threaded runtime
/// ([`graph::run_native`]), and — through [`Pipeline::hosted`], which
/// runs the filters at completion time while the backend moves only
/// buffers and its workers model the compute cost — the sequential
/// reference driver ([`graph::run_reference`]), the DES
/// ([`graph::run_sim`]) and the TCP lockstep loop (driven from this
/// file's tests). Because every classification is a pure function of the
/// tile's pixels at a pyramid level, the classifier seed, and the
/// threshold, all deployments produce byte-identical [`TileResult`]s —
/// including against the fused single-filter pipeline ([`run_local`]).
pub mod graph {
    use super::*;

    use anthill::engine::sequential::{self as seq, SequentialConfig};
    use anthill::graph::{DataflowGraph, EdgeSpec, FilterSpec};
    use anthill::membership::MembershipSchedule;
    use anthill::policy::Policy;
    use anthill::sim::{run_graph_sim, GraphSimConfig, GraphSimReport};
    use anthill::weights::OracleWeights;
    use anthill_hetsim::{DeviceId, GpuParams};

    /// Filter id of the reader (pyramid decomposition) stage.
    pub(crate) const READER: usize = 0;
    /// Filter id of the feature-extraction stage.
    pub(crate) const FEATURE: usize = 1;
    /// Filter id of the classifier stage.
    pub(crate) const CLASSIFIER: usize = 2;

    /// The NBIA dataflow: a three-filter chain with the classifier's
    /// rejection feedback edge into the feature filter.
    pub fn topology() -> DataflowGraph {
        DataflowGraph::new(
            vec![
                FilterSpec::new("reader"),
                FilterSpec::new("feature"),
                FilterSpec::new("classifier"),
            ],
            vec![
                EdgeSpec::round_robin(READER, FEATURE),
                EdgeSpec::round_robin(FEATURE, CLASSIFIER),
                EdgeSpec::feedback(CLASSIFIER, FEATURE),
            ],
        )
        .expect("the NBIA topology is a valid graph")
    }

    /// Source payload entering the reader: the tile's full-resolution
    /// pixels, not yet decomposed.
    struct TileSource {
        truth: TileClass,
        full: Vec<Rgb8>,
    }

    /// Payload leaving the feature filter: the tile plus its extracted
    /// feature vector at the buffer's pyramid level.
    struct FeaturePayload {
        tile: TilePayload,
        features: Vec<f64>,
    }

    /// Reader: decompose the full-resolution tile into its pyramid.
    struct ReaderFilter {
        high_side: u32,
        low_side: u32,
    }

    impl LocalFilter for ReaderFilter {
        fn handle(&self, _device: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
            let src = task
                .payload
                .downcast::<TileSource>()
                .expect("NBIA tile source payload");
            let pyramid = Arc::new(TilePyramid::build(src.full, self.high_side, self.low_side));
            let truth = src.truth;
            out.forward(LocalTask::new(task.buffer, TilePayload { truth, pyramid }));
        }
    }

    /// Feature extraction at the buffer's pyramid level (recirculated
    /// tiles re-enter here over the feedback edge and are re-extracted at
    /// the higher resolution).
    struct FeatureFilter;

    impl LocalFilter for FeatureFilter {
        fn handle(&self, _device: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
            let tile = *task
                .payload
                .downcast::<TilePayload>()
                .expect("NBIA tile payload");
            let (side, pixels) = tile.pyramid.level(task.buffer.level as usize);
            let features = tile_features(pixels, side);
            out.forward(LocalTask::new(
                task.buffer,
                FeaturePayload { tile, features },
            ));
        }
    }

    /// The hypothesis test: accept the classification or push the tile
    /// back to the feature filter one pyramid level up, over the declared
    /// feedback edge.
    struct ClassifierFilter(Nbia);

    impl LocalFilter for ClassifierFilter {
        fn handle(&self, _device: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
            let p = task
                .payload
                .downcast::<FeaturePayload>()
                .expect("NBIA feature payload");
            let (truth, pyramid) = (p.tile.truth, &p.tile.pyramid);
            match self.0.classify(&task.buffer, truth, pyramid, &p.features) {
                Ok(result) => out.forward(LocalTask::new(task.buffer, result)),
                Err(next) => out.recirculate(LocalTask::new(next, p.tile)),
            }
        }
    }

    fn cpu_native() -> Vec<WorkerSpec> {
        vec![WorkerSpec {
            kind: DeviceKind::Cpu,
            mode: ExecMode::Native,
        }]
    }

    /// The native three-stage pipeline plus its sources: tiles enter as
    /// full-resolution pixels and the reader performs the decomposition.
    pub(super) fn build_graph_pipeline(config: &NbiaLocalConfig) -> (Pipeline, Vec<LocalTask>) {
        let nbia = Nbia::new(config);
        let sources = nbia
            .tiles(config)
            .map(|(buffer, truth, full)| LocalTask::new(buffer, TileSource { truth, full }))
            .collect();
        let mut pipeline = Pipeline::new(config.policy).with_graph(topology());
        pipeline.add_stage(
            Arc::new(ReaderFilter {
                high_side: config.high_side,
                low_side: config.low_side,
            }),
            cpu_native(),
        );
        pipeline.add_stage(Arc::new(FeatureFilter), config.workers.clone());
        pipeline.add_stage(Arc::new(ClassifierFilter(nbia)), cpu_native());
        (pipeline, sources)
    }

    /// Run the three-filter NBIA pipeline on the native threaded runtime.
    pub fn run_native<W: WeightProvider + Sync>(
        config: &NbiaLocalConfig,
        weights: &W,
    ) -> (Vec<TileResult>, anthill::local::LocalReport) {
        let (pipeline, sources) = build_graph_pipeline(config);
        let (outputs, report) = pipeline.run(sources, weights);
        (collect_results(outputs), report)
    }

    pub(super) fn engine_policy(kind: PolicyKind) -> Policy {
        match kind {
            PolicyKind::DdFcfs => Policy::ddfcfs(8),
            PolicyKind::DdWrr => Policy::ddwrr(8),
            PolicyKind::Odds => Policy::odds(),
            PolicyKind::Affinity => Policy::affinity(8),
            PolicyKind::Bandit => Policy::bandit(8),
        }
    }

    fn oracle() -> OracleWeights {
        OracleWeights::new(GpuParams::geforce_8800gt(), true)
    }

    /// Per-filter device kinds of the buffer-level runs: one CPU for the
    /// reader and classifier, CPU + GPU replicas for the feature filter.
    fn device_kinds() -> Vec<Vec<DeviceKind>> {
        vec![
            vec![DeviceKind::Cpu],
            vec![DeviceKind::Cpu, DeviceKind::Gpu],
            vec![DeviceKind::Cpu],
        ]
    }

    /// [`device_kinds`] as device ids, node `f` for filter `f`.
    pub(super) fn device_ids() -> Vec<Vec<DeviceId>> {
        device_kinds()
            .into_iter()
            .enumerate()
            .map(|(node, kinds)| {
                kinds
                    .into_iter()
                    .enumerate()
                    .map(|(index, kind)| DeviceId { node, kind, index })
                    .collect()
            })
            .collect()
    }

    /// Run the three-filter pipeline on the engine's sequential reference
    /// driver, the filters hosted at completion time.
    pub fn run_reference(config: &NbiaLocalConfig) -> (Vec<TileResult>, seq::GraphOutcome) {
        let (pipeline, sources) = build_graph_pipeline(config);
        let (mut host, seeds) = pipeline.hosted(sources);
        let outcome = seq::run_graph(
            SequentialConfig::new(engine_policy(config.policy)),
            &topology(),
            &device_ids(),
            seeds,
            oracle(),
            MembershipSchedule::none(),
            |f, k, b| host.handle(f, k, b),
        );
        (collect_results(host.outputs(&outcome.outputs)), outcome)
    }

    /// Run the three-filter pipeline on the virtual-time DES cluster, the
    /// filters hosted at completion time.
    pub fn run_sim(config: &NbiaLocalConfig) -> (Vec<TileResult>, GraphSimReport) {
        let (pipeline, sources) = build_graph_pipeline(config);
        let (mut host, seeds) = pipeline.hosted(sources);
        let report = run_graph_sim(
            &GraphSimConfig::new(engine_policy(config.policy)),
            &topology(),
            &device_kinds(),
            seeds,
            Box::new(oracle()),
            |f, k, b| host.handle(f, k, b),
        );
        (collect_results(host.outputs(&report.outputs)), report)
    }
}

#[cfg(test)]
mod tests {
    use super::graph::{build_graph_pipeline, device_ids, engine_policy, topology};
    use super::*;
    use anthill::membership::MembershipSchedule;
    use anthill::net::{
        run_graph_deterministic, spawn_worker_thread, tcp_pair, Behavior, NetConfig,
        NetGraphOutcome, NetWorkerConn,
    };
    use anthill::weights::OracleWeights;
    use anthill_hetsim::GpuParams;

    fn oracle() -> OracleWeights {
        OracleWeights::new(GpuParams::geforce_8800gt(), true)
    }

    /// [`graph::run_native`] under the sequential reference driver:
    /// assignments and output order are a pure function of the
    /// configuration.
    fn run_native_deterministic(config: &NbiaLocalConfig) -> Vec<TileResult> {
        let (pipeline, sources) = build_graph_pipeline(config);
        let none = MembershipSchedule::none();
        let (outputs, _) = pipeline.run_deterministic(sources, &oracle(), none);
        collect_results(outputs)
    }

    /// Run the three-filter pipeline over TCP loopback workers in
    /// lockstep deterministic mode, the filters hosted at the coordinator
    /// through the emission hook.
    fn run_net(config: &NbiaLocalConfig) -> std::io::Result<(Vec<TileResult>, NetGraphOutcome)> {
        let (pipeline, sources) = build_graph_pipeline(config);
        let (mut host, seeds) = pipeline.hosted(sources);
        let workers: std::io::Result<Vec<Vec<NetWorkerConn>>> = device_ids()
            .into_iter()
            .map(|devices| {
                devices
                    .into_iter()
                    .map(|device| {
                        let (stream, worker_side) = tcp_pair()?;
                        spawn_worker_thread(worker_side, Behavior::Identity);
                        Ok(NetWorkerConn { device, stream })
                    })
                    .collect()
            })
            .collect();
        let outcome = run_graph_deterministic(
            NetConfig::new(engine_policy(config.policy)),
            &topology(),
            workers?,
            seeds,
            oracle(),
            &mut |f, k, b| Some(host.handle(f, k, b)),
        )?;
        Ok((collect_results(host.outputs(&outcome.outputs)), outcome))
    }

    #[test]
    fn classifies_every_tile_exactly_once() {
        let config = NbiaLocalConfig {
            tiles: 30,
            ..NbiaLocalConfig::default()
        };
        let (results, report) = run_local(&config, &oracle());
        assert_eq!(results.len(), 30);
        let tiles: Vec<u64> = results.iter().map(|r| r.tile).collect();
        assert_eq!(tiles, (0..30).collect::<Vec<_>>());
        assert!(report.total() >= 30);
    }

    #[test]
    fn classification_is_mostly_correct() {
        let config = NbiaLocalConfig {
            tiles: 30,
            ..NbiaLocalConfig::default()
        };
        let (results, _) = run_local(&config, &oracle());
        let correct = results.iter().filter(|r| r.predicted == r.truth).count();
        assert!(correct * 10 >= results.len() * 8, "correct {correct}/30");
    }

    #[test]
    fn low_threshold_accepts_everything_at_level_zero() {
        let config = NbiaLocalConfig {
            tiles: 12,
            confidence_threshold: 0.0,
            ..NbiaLocalConfig::default()
        };
        let (results, report) = run_local(&config, &oracle());
        assert!(results.iter().all(|r| r.level == 0));
        assert_eq!(report.total(), 12);
    }

    #[test]
    fn impossible_threshold_climbs_the_whole_pyramid() {
        let config = NbiaLocalConfig {
            tiles: 10,
            low_side: 32,
            high_side: 128, // pyramid depth 3: 32, 64, 128
            confidence_threshold: 1.5,
            ..NbiaLocalConfig::default()
        };
        let (results, report) = run_local(&config, &oracle());
        assert_eq!(results.len(), 10);
        assert!(results.iter().all(|r| r.level == 2), "{results:?}");
        // Every tile handled once per pyramid level.
        assert_eq!(report.total(), 30);
    }

    #[test]
    fn deterministic_run_agrees_with_threaded_run() {
        let config = NbiaLocalConfig {
            tiles: 24,
            ..NbiaLocalConfig::default()
        };
        let (threaded, _) = run_local(&config, &oracle());
        let (det_a, rep_a) = run_local_deterministic(&config, &oracle());
        let (det_b, rep_b) = run_local_deterministic(&config, &oracle());
        // Classification outcomes are schedule-independent, so all three
        // runs agree tile by tile; the deterministic runs agree on the
        // device assignments too.
        assert_eq!(det_a.len(), 24);
        for (x, y) in threaded.iter().zip(&det_a) {
            assert_eq!(x.tile, y.tile);
            assert_eq!(x.predicted, y.predicted, "tile {}", x.tile);
            assert_eq!(x.level, y.level, "tile {}", x.tile);
        }
        for (x, y) in det_a.iter().zip(&det_b) {
            assert_eq!(
                (x.tile, x.predicted, x.level),
                (y.tile, y.predicted, y.level)
            );
        }
        assert_eq!(rep_a.handled, rep_b.handled);
    }

    #[test]
    fn three_filter_native_pipeline_matches_the_fused_filter() {
        let config = NbiaLocalConfig {
            tiles: 24,
            ..NbiaLocalConfig::default()
        };
        let (fused, _) = run_local(&config, &oracle());
        let (split, report) = graph::run_native(&config, &oracle());
        assert_eq!(
            split, fused,
            "splitting the fused filter must not change any classification"
        );
        // Per-edge conservation: every tile crosses reader→feature once,
        // feature→classifier once per visited level, and the feedback
        // edge once per rejection.
        assert_eq!(report.edge_delivered[&0], 24);
        let visits = report.edge_delivered[&1];
        assert_eq!(report.edge_delivered[&2], visits - 24);
    }

    #[test]
    fn every_backend_classifies_bytewise_identically() {
        let config = NbiaLocalConfig {
            tiles: 18,
            ..NbiaLocalConfig::default()
        };
        let (fused, _) = run_local(&config, &oracle());
        let native_det = run_native_deterministic(&config);
        let (reference, ref_out) = graph::run_reference(&config);
        let (sim, sim_report) = graph::run_sim(&config);
        let (net, net_out) = run_net(&config).expect("net graph run");
        assert_eq!(native_det, fused, "native deterministic");
        assert_eq!(reference, fused, "sequential reference");
        assert_eq!(sim, fused, "DES");
        assert_eq!(net, fused, "TCP");
        // The buffer-level backends route identical emissions, so their
        // per-edge delivery counts agree exactly.
        assert_eq!(ref_out.edge_delivered, sim_report.edge_delivered);
        assert_eq!(ref_out.edge_delivered, net_out.edge_delivered);
        assert_eq!(ref_out.total, sim_report.total);
        assert_eq!(ref_out.total, net_out.total);
    }

    #[test]
    fn forced_recirculation_crosses_the_feedback_edge_on_every_backend() {
        let config = NbiaLocalConfig {
            tiles: 8,
            low_side: 32,
            high_side: 128, // pyramid depth 3
            confidence_threshold: 1.5,
            ..NbiaLocalConfig::default()
        };
        let (reference, out) = graph::run_reference(&config);
        assert!(reference.iter().all(|r| r.level == 2));
        // 8 tiles enter, every tile visits 3 levels: reader edge 8,
        // feature→classifier edge 24, feedback edge 16.
        assert_eq!(out.edge_delivered[&0], 8);
        assert_eq!(out.edge_delivered[&1], 24);
        assert_eq!(out.edge_delivered[&2], 16);
        assert_eq!(
            out.total,
            8 + 24 + 24,
            "reader once, feature and classifier thrice"
        );
        let (sim, sim_report) = graph::run_sim(&config);
        assert_eq!(sim, reference);
        assert_eq!(sim_report.edge_delivered, out.edge_delivered);
    }

    #[test]
    fn higher_levels_reuse_the_same_tissue() {
        // The pyramid means reprocessing sees a higher-resolution view of
        // the *same* tile — classification at the top should still match
        // the generated truth most of the time.
        let config = NbiaLocalConfig {
            tiles: 15,
            confidence_threshold: 1.5, // force everything to the top
            ..NbiaLocalConfig::default()
        };
        let (results, _) = run_local(&config, &oracle());
        let correct = results.iter().filter(|r| r.predicted == r.truth).count();
        assert!(correct * 10 >= results.len() * 7, "correct {correct}/15");
    }
}
