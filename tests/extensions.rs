//! Integration tests for the extensions beyond the paper's figures
//! (DESIGN.md §16): perturbation adaptivity, concurrent kernels, mixed GPU
//! generations, the model zoo, profile persistence, and the Virtual
//! Microscope application.

use anthill_repro::apps::vm::{run_queries, Query, Slide};
use anthill_repro::bench::experiments::{cluster, estimator, transfer};
use anthill_repro::core::local::{ExecMode, WorkerSpec};
use anthill_repro::core::policy::PolicyKind;
use anthill_repro::core::weights::OracleWeights;
use anthill_repro::estimator::persist;
use anthill_repro::hetsim::concurrent::ConcurrentGpu;
use anthill_repro::hetsim::{DeviceKind, GpuParams, NbiaCostModel};

#[test]
fn slow_node_hurts_odds_less_than_ddwrr() {
    let rows = cluster::perturb_slow_node(&[1.0, 0.25], 4_000);
    let odds_loss = rows[0].odds / rows[1].odds;
    let ddwrr_loss = rows[0].ddwrr / rows[1].ddwrr;
    assert!(
        odds_loss < ddwrr_loss,
        "odds loss {odds_loss:.2} !< ddwrr loss {ddwrr_loss:.2}"
    );
    assert!(rows[1].odds > rows[1].ddwrr);
}

#[test]
fn concurrent_kernels_approach_the_copy_bound() {
    // With enough slots the small-tile stream becomes copy/launch bound:
    // gains flatten rather than scale forever.
    let rows = transfer::concurrent_kernels(2_000, &[1, 8, 64]);
    let g8 = rows[0].exec_secs / rows[1].exec_secs;
    let g64 = rows[1].exec_secs / rows[2].exec_secs;
    assert!(g8 > 4.0, "8 slots gain {g8:.1}");
    assert!(g64 < g8, "gains must flatten: {g64:.1} vs {g8:.1}");
}

#[test]
fn concurrent_gpu_is_deterministic() {
    let tasks = vec![NbiaCostModel::paper_calibrated().tile(32); 500];
    let a = ConcurrentGpu::new(GpuParams::geforce_8800gt(), 4).run_stream(&tasks, 16);
    let b = ConcurrentGpu::new(GpuParams::geforce_8800gt(), 4).run_stream(&tasks, 16);
    assert_eq!(a, b);
}

#[test]
fn newer_gpu_generation_is_strictly_faster_on_transfers() {
    let old = GpuParams::geforce_8800gt();
    let new = GpuParams::gtx_280_class();
    let shape = NbiaCostModel::paper_calibrated().tile(512);
    let t_old = old.sync_task_time(shape.bytes_in, shape.gpu_kernel, shape.bytes_out);
    let t_new = new.sync_task_time(shape.bytes_in, shape.gpu_kernel, shape.bytes_out);
    assert!(t_new < t_old);
}

#[test]
fn model_zoo_orders_as_expected() {
    let rows = estimator::sweep_models(42);
    let by = |name: &str| {
        rows.iter()
            .find(|r| r.model.contains(name))
            .unwrap_or_else(|| panic!("missing model {name}"))
    };
    // The robust ordering: kNN variants are the accurate speedup
    // predictors and the data-independent constant assumption is far
    // worse (regression's exact rank varies with the sampled profiles).
    assert!(by("paper").speedup_err < by("regression").speedup_err);
    assert!(by("paper").speedup_err * 3.0 < by("constant").speedup_err);
    assert!(by("weighted").speedup_err <= by("paper").speedup_err * 1.2);
}

#[test]
fn bench_profiles_survive_persistence() {
    use anthill_repro::apps::bench_suite::BenchApp;
    for app in BenchApp::ALL {
        let store = app.generate_profile(3, 12);
        let text = persist::to_text(&store);
        let back = persist::from_text(&text).expect("round trip");
        assert_eq!(back.len(), store.len(), "{}", app.name());
        assert_eq!(back.app, store.app);
    }
}

#[test]
fn virtual_microscope_serves_overlapping_queries() {
    let slide = Slide {
        cols: 10,
        rows: 10,
        tile_side: 32,
        seed: 5,
    };
    // Two overlapping viewports: overlapping tiles are independent tasks
    // (the model replicates work rather than sharing reads).
    let queries = vec![
        Query {
            id: 0,
            col0: 0,
            row0: 0,
            width: 5,
            height: 5,
            zoom: 1,
        },
        Query {
            id: 1,
            col0: 3,
            row0: 3,
            width: 5,
            height: 5,
            zoom: 1,
        },
    ];
    let cpu = WorkerSpec {
        kind: DeviceKind::Cpu,
        mode: ExecMode::Native,
    };
    let (rendered, report) = run_queries(
        &slide,
        &queries,
        PolicyKind::DdWrr,
        vec![vec![cpu; 2], vec![cpu; 2], vec![cpu]],
        &OracleWeights::new(GpuParams::geforce_8800gt(), true),
    );
    assert_eq!(rendered.len(), 2);
    assert_eq!(report.total(), 50 * 3);
    assert!(rendered.iter().all(|r| r.tile_side == 16));
    assert!(rendered
        .iter()
        .all(|r| r.mean_luma > 0.0 && r.mean_luma < 255.0));
}
