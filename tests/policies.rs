//! The learned-policy test suite (DESIGN.md §16): properties of the
//! online service-time estimator, determinism of the contextual bandit,
//! and task conservation under the learned policies on the DES and
//! native backends.
//!
//! 1. **Estimator convergence** — for arbitrary warm-up spans, a
//!    stationary tail pulls the per-cell EWMA mean onto the stationary
//!    value, and the learned prediction never leaves the convex hull of
//!    what was observed.
//! 2. **Bandit determinism** — the exploration floor is a pure hash of
//!    `(seed, buffer)`, so two DES runs under the same seed must emit
//!    bit-identical `policy_decision` sequences and identical assignment
//!    counts.
//! 3. **Conservation** — random workloads (tiles, recalculation rate,
//!    seed) under Affinity and Bandit lose or duplicate no tasks on the
//!    DES, and the native deterministic executor returns every source.
//! 4. **Head-to-head verdicts** — the `repro policies` experiment at
//!    both scales: within 5 % of DDWRR on the paper's cases, a win on the
//!    stale profile, learners engaged and the classic reference inert.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use common::{assert_jsonl_round_trip, cpu_gpu_workers, neutral_gpu};

use anthill_repro::bench::policies::{head_to_head, verdict};
use anthill_repro::core::buffer::DataBuffer;
use anthill_repro::core::local::{Emitter, LocalFilter, LocalTask, Pipeline};
use anthill_repro::core::obs::{EventKind, Recorder};
use anthill_repro::core::policy::learned::{LearnedConfig, LearnedWeights};
use anthill_repro::core::policy::{Policy, PolicyKind};
use anthill_repro::core::sim::{run_nbia, SimConfig, WorkloadSpec};
use anthill_repro::core::weights::{OracleWeights, WeightProvider};
use anthill_repro::estimator::{DeviceClass, OnlineProfile, TaskParams};
use anthill_repro::hetsim::{ClusterSpec, DeviceKind, GpuParams, NbiaCostModel};
use proptest::prelude::*;

fn tile(id: u64, side: u32) -> DataBuffer {
    let m = NbiaCostModel::paper_calibrated();
    DataBuffer {
        id: anthill_repro::core::buffer::BufferId(id),
        params: TaskParams::nums(&[f64::from(side)]),
        shape: m.tile(side),
        level: 0,
        task: id,
    }
}

fn learner(kind: PolicyKind) -> LearnedWeights<OracleWeights> {
    LearnedWeights::new(
        kind,
        OracleWeights::new(GpuParams::geforce_8800gt(), false),
        LearnedConfig::standard(7),
    )
}

// ---------------------------------------------------------------------
// 1. Online-estimator convergence properties
// ---------------------------------------------------------------------

proptest! {
    /// Any warm-up history is forgotten geometrically: a stationary tail
    /// of spans pulls the EWMA mean within a hair of the stationary
    /// value (`0.75^64` of the largest possible initial gap), and the
    /// cell tallies every span it saw.
    #[test]
    fn online_profile_converges_to_stationary_spans(
        warmup in prop::collection::vec(1e-6f64..1.0, 0..40),
        target in 1e-3f64..1.0,
    ) {
        let mut p = OnlineProfile::new(0.25, 64);
        let key = 42u64;
        for &s in &warmup {
            p.observe(DeviceClass::CPU, key, s);
        }
        for _ in 0..64 {
            p.observe(DeviceClass::CPU, key, target);
        }
        let mean = p.mean(DeviceClass::CPU, key).expect("cell exists");
        prop_assert!(
            (mean - target).abs() < 1e-6,
            "mean {mean} did not converge to {target}"
        );
        prop_assert_eq!(
            p.count(DeviceClass::CPU, key),
            warmup.len() as u64 + 64
        );
        // The other device class never saw a span: still cold.
        prop_assert_eq!(p.count(DeviceClass::GPU, key), 0);
    }

    /// Once a cell has `min_obs` spans the learned prediction is the
    /// online mean — an EWMA seeded from the first span — so it can
    /// never leave the convex hull of the observed spans, no matter how
    /// wrong the base oracle is.
    #[test]
    fn learned_prediction_stays_within_the_observed_hull(
        spans in prop::collection::vec(1e-6f64..10.0, 2..80),
    ) {
        let lw = learner(PolicyKind::Affinity);
        let b = tile(1, 128);
        for &s in &spans {
            lw.observe(&b, 0, 0, DeviceKind::Cpu, s).expect("update");
        }
        let lo = spans.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = spans.iter().cloned().fold(0.0f64, f64::max);
        let pred = lw.predict_time(&b, DeviceKind::Cpu);
        prop_assert!(
            pred >= lo - 1e-12 && pred <= hi + 1e-12,
            "prediction {pred} outside observed hull [{lo}, {hi}]"
        );
    }
}

// ---------------------------------------------------------------------
// 2. Bandit determinism on the DES
// ---------------------------------------------------------------------

/// One traced DES run: the `(buffer, arm, explore)` sequence of every
/// `policy_decision`, plus the per-device assignment counts.
#[allow(clippy::type_complexity)]
fn traced_bandit_run(seed: u64) -> (Vec<(u64, DeviceKind, u8)>, HashMap<DeviceKind, u64>) {
    let workload = WorkloadSpec {
        tiles: 250,
        ..WorkloadSpec::paper_base(0.08)
    };
    let mut cfg = SimConfig::new(ClusterSpec::heterogeneous(1, 1), Policy::bandit(8));
    cfg.seed = seed;
    cfg.recorder = Recorder::enabled();
    let report = run_nbia(&cfg, &workload);
    let events = cfg.recorder.take_events();
    assert_jsonl_round_trip(&events);
    let decisions: Vec<(u64, DeviceKind, u8)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::PolicyDecision {
                buffer,
                arm,
                explore,
                ..
            } => Some((buffer, arm, explore)),
            _ => None,
        })
        .collect();
    let mut counts = HashMap::new();
    for (&(kind, _level), &n) in &report.tasks_by {
        *counts.entry(kind).or_insert(0) += n;
    }
    (decisions, counts)
}

/// Same seed ⇒ bit-identical decision sequence and assignment counts.
/// This is the determinism contract of `policy::learned`: exploration is
/// a pure hash, state mutates only on engine-ordered callbacks, and the
/// DES replays the same callback order for the same seed.
#[test]
fn bandit_runs_identically_under_the_same_seed() {
    let (dec_a, counts_a) = traced_bandit_run(7);
    let (dec_b, counts_b) = traced_bandit_run(7);
    assert!(!dec_a.is_empty(), "the bandit rendered no decisions");
    assert_eq!(dec_a, dec_b, "decision sequences diverged under one seed");
    assert_eq!(counts_a, counts_b, "assignments diverged under one seed");
    // The epsilon floor fires somewhere in 250+ decisions (5% ppm floor,
    // and the hash verdict is part of the replayed sequence).
    assert!(dec_a.len() >= 250, "every task gets at least one decision");
}

// ---------------------------------------------------------------------
// 3. Conservation under the learned policies
// ---------------------------------------------------------------------

proptest! {
    /// Random workloads on the heterogeneous DES cluster: whatever the
    /// learners decide, every generated buffer (tiles and recalculated
    /// high-resolution revisits alike) completes exactly once.
    #[test]
    fn learned_policies_conserve_tasks_on_the_des(
        tiles in 20u64..100,
        rate in 0.0f64..0.3,
        seed in 0u64..1_000_000_000,
        bandit in prop::bool::ANY,
    ) {
        let policy = if bandit {
            Policy::bandit(8)
        } else {
            Policy::affinity(8)
        };
        let workload = WorkloadSpec {
            tiles,
            ..WorkloadSpec::paper_base(rate)
        };
        let mut cfg = SimConfig::new(ClusterSpec::heterogeneous(1, 1), policy);
        cfg.seed = seed;
        let report = run_nbia(&cfg, &workload);
        prop_assert_eq!(
            report.total_tasks,
            workload.total_buffers(),
            "task lost or duplicated under {:?}", policy.kind
        );
    }
}

/// Forwards tasks unchanged.
struct Identity;
impl LocalFilter for Identity {
    fn handle(&self, _d: DeviceKind, task: LocalTask, out: &mut Emitter<'_>) {
        out.forward(task);
    }
}

/// The native deterministic executor under each learned policy: every
/// source task comes out the other end exactly once, and the per-device
/// tallies account for all of them.
#[test]
fn learned_policies_conserve_tasks_on_the_native_backend() {
    const TILES: u64 = 160;
    let workload = WorkloadSpec {
        tiles: TILES,
        ..WorkloadSpec::paper_base(0.0)
    };
    for policy in [Policy::affinity(8), Policy::bandit(8)] {
        let weights = LearnedWeights::new(
            policy.kind,
            OracleWeights::new(neutral_gpu(), false),
            LearnedConfig::standard(7),
        );
        let sources: Vec<LocalTask> = (0..TILES)
            .map(|t| LocalTask::new(workload.low_buffer(t), ()))
            .collect();
        let mut p = Pipeline::new(policy.kind).with_request_window(policy.request_size);
        p.add_stage(Arc::new(Identity), cpu_gpu_workers());
        let (out, report) = p.run_deterministic(sources, &weights);
        assert_eq!(out.len() as u64, TILES, "{:?}: outputs lost", policy.kind);
        let handled: u64 = report.handled.values().sum();
        assert_eq!(handled, TILES, "{:?}: tallies disagree", policy.kind);
        // The learner really was in the loop: one observation per task.
        assert_eq!(weights.updates(), TILES, "{:?}", policy.kind);
        assert!(weights.decisions() > 0, "{:?}: no decisions", policy.kind);
    }
}

// ---------------------------------------------------------------------
// 4. Head-to-head verdicts
// ---------------------------------------------------------------------

/// What `repro policies [--quick]` prints must keep saying what
/// EXPERIMENTS.md says it does (seed-deterministic DES runs).
#[test]
fn learned_policies_hold_their_verdicts_against_ddwrr() {
    for quick in [false, true] {
        verdict(&head_to_head(quick)).unwrap_or_else(|e| panic!("quick={quick}: {e}"));
    }
}
