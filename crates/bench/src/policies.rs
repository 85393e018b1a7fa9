//! Head-to-head experiment of the learned scheduling policies (AFFINITY,
//! BANDIT) against the paper's tuned DDWRR (`repro policies`), and the
//! verdicts `tests/policies.rs` holds it to.
//!
//! Three DES scenarios, all on the virtual-time cluster executor:
//!
//! * `paper_hom` — the paper's homogeneous base case (one CPU+GPU node,
//!   16% recalculation) with a well-calibrated estimator. Nothing to
//!   learn; the learned policies only have to stay within
//!   [`PAPER_TOLERANCE_PCT`] of DDWRR.
//! * `paper_het` — the paper's heterogeneous base case (a CPU+GPU node
//!   plus a CPU-only node, 8% recalculation), also well-calibrated, at
//!   the full workload scale where the learned corrections settle. Same
//!   tolerance; empirically both learned policies edge out DDWRR here.
//! * `stale_profile` — the CPU+GPU node scheduled from a badly noisy
//!   phase-one profile ([`STALE_NOISE`] lognormal sigma at
//!   [`STALE_SEED`], which inverts the low/high-resolution device
//!   ordering). DDWRR trusts the broken predictions for the whole run;
//!   the learned policies fold observed `task_finished` spans back into
//!   their online profile and recover the true ordering within a few
//!   tasks per shape.
//!
//! [`verdict`] states what must hold: learned policies lose by at most
//! the tolerance on the non-stale scenarios, at least one learned policy
//! beats DDWRR outright on a heterogeneous scenario, and every stale
//! scenario is won by a learned policy. Every row also records the run's
//! `policy_decision` / `profile_updated` event counts, as evidence the
//! learned paths engaged (and that the classic reference stayed inert).

use anthill::obs::{EventKind, Recorder};
use anthill::policy::Policy;
use anthill::sim::{run_nbia, SimConfig, WorkloadSpec};
use anthill_hetsim::{ClusterSpec, DeviceKind};
use std::collections::BTreeMap;

use crate::experiments::cluster::DDWRR_WINDOW;

/// Learned policies may lose to DDWRR by at most this much (percent of
/// DDWRR's makespan) on the non-stale scenarios.
pub const PAPER_TOLERANCE_PCT: f64 = 5.0;
/// Lognormal sigma of the `stale_profile` scenario's phase-one benchmark
/// noise — large enough that the kNN fit can invert the two tile
/// resolutions' device ordering.
pub const STALE_NOISE: f64 = 2.0;
/// Seed of the `stale_profile` scenario: one where [`STALE_NOISE`]
/// actually inverts the ordering (DDWRR degrades ~65% against its
/// well-calibrated self, which the learned policies claw back).
pub const STALE_SEED: u64 = 5;
/// Root seed of the well-calibrated scenarios.
pub const GATE_SEED: u64 = 0x5EED;

/// One `(scenario, policy)` run of the head-to-head.
#[derive(Debug, Clone)]
pub struct PolicyRunRow {
    /// Scenario name (`paper_hom`, `paper_het`, `stale_profile`).
    pub scenario: String,
    /// Policy name (`DDWRR`, `AFFINITY`, `BANDIT`).
    pub policy: String,
    /// Whether the policy is a learned one.
    pub learned: bool,
    /// Whether the scenario runs on a heterogeneous device mix a learned
    /// policy is expected to exploit.
    pub hetero: bool,
    /// Whether the scenario is the stale-profile recovery case where a
    /// learned policy must win.
    pub stale: bool,
    /// Virtual makespan in milliseconds.
    pub makespan_ms: f64,
    /// Buffers processed on CPU devices.
    pub tasks_cpu: u64,
    /// Buffers processed on GPU devices.
    pub tasks_gpu: u64,
    /// `policy_decision` events in the run's trace.
    pub decisions: u64,
    /// `profile_updated` events in the run's trace.
    pub profile_updates: u64,
    /// Makespan delta vs the same scenario's DDWRR row, in percent
    /// (negative = faster than DDWRR).
    pub vs_ddwrr_pct: f64,
}

/// One scenario: a cluster shape plus estimator calibration.
struct Scenario {
    name: &'static str,
    hetero: bool,
    stale: bool,
    rate: f64,
    noise: f64,
    async_transfers: bool,
    seed: u64,
    /// Tiles in full and `--quick` runs. The heterogeneous base case
    /// needs the full workload even when quick: below it, reduced-scale
    /// end-game imbalance (the same artifact the paper notes for DDWRR
    /// in Figure 10) dominates the learned policies' deltas.
    tiles: [u64; 2],
    cluster: fn() -> ClusterSpec,
}

const SCENARIOS: [Scenario; 3] = [
    Scenario {
        name: "paper_hom",
        hetero: false,
        stale: false,
        rate: 0.16,
        noise: 0.08,
        async_transfers: true,
        seed: GATE_SEED,
        tiles: [4000, 1200],
        cluster: || ClusterSpec::homogeneous(1),
    },
    Scenario {
        name: "paper_het",
        hetero: true,
        stale: false,
        rate: 0.08,
        noise: 0.08,
        async_transfers: true,
        seed: GATE_SEED,
        tiles: [4000, 4000],
        cluster: || ClusterSpec::heterogeneous(1, 1),
    },
    Scenario {
        name: "stale_profile",
        hetero: true,
        stale: true,
        rate: 0.16,
        noise: STALE_NOISE,
        async_transfers: false,
        seed: STALE_SEED,
        tiles: [4000, 1200],
        cluster: || ClusterSpec::homogeneous(1),
    },
];

/// The policies every scenario runs, DDWRR (the reference) first.
fn policies() -> [(&'static str, Policy); 3] {
    [
        ("DDWRR", Policy::ddwrr(DDWRR_WINDOW)),
        ("AFFINITY", Policy::affinity(DDWRR_WINDOW)),
        ("BANDIT", Policy::bandit(DDWRR_WINDOW)),
    ]
}

fn run_scenario(sc: &Scenario, tiles: u64) -> Vec<PolicyRunRow> {
    let workload = WorkloadSpec {
        tiles,
        ..WorkloadSpec::paper_base(sc.rate)
    };
    let mut rows = Vec::new();
    let mut ddwrr_ms = 0.0;
    for (pname, policy) in policies() {
        let mut cfg = SimConfig::new((sc.cluster)(), policy);
        cfg.estimator_noise = sc.noise;
        cfg.async_transfers = sc.async_transfers;
        cfg.seed = sc.seed;
        cfg.recorder = Recorder::enabled();
        let report = run_nbia(&cfg, &workload);
        let events = cfg.recorder.take_events();
        let decisions = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PolicyDecision { .. }))
            .count() as u64;
        let profile_updates = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ProfileUpdated { .. }))
            .count() as u64;
        let makespan_ms = report.makespan.as_secs_f64() * 1e3;
        if pname == "DDWRR" {
            ddwrr_ms = makespan_ms;
        }
        let tasks = |kind| (0..=1u8).map(|l| report.tasks(kind, l)).sum();
        rows.push(PolicyRunRow {
            scenario: sc.name.to_string(),
            policy: pname.to_string(),
            learned: policy.kind.learned(),
            hetero: sc.hetero,
            stale: sc.stale,
            makespan_ms,
            tasks_cpu: tasks(DeviceKind::Cpu),
            tasks_gpu: tasks(DeviceKind::Gpu),
            decisions,
            profile_updates,
            vs_ddwrr_pct: if ddwrr_ms > 0.0 {
                100.0 * (makespan_ms - ddwrr_ms) / ddwrr_ms
            } else {
                0.0
            },
        });
    }
    rows
}

/// Run the full head-to-head: every policy on every scenario, DDWRR first
/// within each scenario so the deltas can be computed.
pub fn head_to_head(quick: bool) -> Vec<PolicyRunRow> {
    SCENARIOS
        .iter()
        .flat_map(|sc| run_scenario(sc, sc.tiles[usize::from(quick)]))
        .collect()
}

/// The head-to-head verdicts over a set of rows:
///
/// * every run processed tasks (`tasks_cpu + tasks_gpu > 0`) in positive
///   virtual time;
/// * learned runs engaged the learned paths (`decisions > 0` and
///   `profile_updates > 0`); classic runs stayed inert (both zero);
/// * on non-stale scenarios every learned run is within
///   [`PAPER_TOLERANCE_PCT`] of DDWRR;
/// * at least one learned run on a heterogeneous scenario beat DDWRR
///   outright (`vs_ddwrr_pct < 0`);
/// * there is a stale scenario, and on every one at least one learned run
///   beat DDWRR.
pub fn verdict(rows: &[PolicyRunRow]) -> Result<(), String> {
    // Stale scenario -> whether a learned policy won it.
    let mut stale_won: BTreeMap<&str, bool> = BTreeMap::new();
    let mut hetero_win = false;
    for r in rows {
        let ctx = |e: String| format!("{}/{}: {e}", r.scenario, r.policy);
        if r.makespan_ms <= 0.0 {
            return Err(ctx(format!("non-positive makespan {}", r.makespan_ms)));
        }
        if r.tasks_cpu + r.tasks_gpu == 0 {
            return Err(ctx("run processed no tasks".to_string()));
        }
        let (decisions, updates) = (r.decisions, r.profile_updates);
        if r.learned && (decisions == 0 || updates == 0) {
            return Err(ctx(format!(
                "learned run never engaged the learner \
                 ({decisions} decisions, {updates} profile updates)"
            )));
        }
        if !r.learned && (decisions != 0 || updates != 0) {
            return Err(ctx(format!(
                "classic run emitted learner events \
                 ({decisions} decisions, {updates} profile updates)"
            )));
        }
        if r.learned && !r.stale && r.vs_ddwrr_pct > PAPER_TOLERANCE_PCT {
            return Err(ctx(format!(
                "learned policy loses to DDWRR by {:.2}% \
                 (tolerance {PAPER_TOLERANCE_PCT}%) on a well-calibrated scenario",
                r.vs_ddwrr_pct
            )));
        }
        let win = r.learned && r.vs_ddwrr_pct < 0.0;
        hetero_win |= win && r.hetero;
        if r.stale {
            *stale_won.entry(&r.scenario).or_default() |= win;
        }
    }
    if stale_won.is_empty() {
        return Err("no stale-profile scenario among the rows".to_string());
    }
    if let Some((sc, _)) = stale_won.iter().find(|(_, &won)| !won) {
        return Err(format!(
            "no learned policy beat DDWRR on stale scenario '{sc}'"
        ));
    }
    if !hetero_win {
        return Err("no learned policy beat DDWRR on any heterogeneous scenario".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<PolicyRunRow> {
        let mk =
            |scenario: &str, policy: &str, hetero: bool, stale: bool, delta: f64| PolicyRunRow {
                scenario: scenario.into(),
                policy: policy.into(),
                learned: policy != "DDWRR",
                hetero,
                stale,
                makespan_ms: 100.0 + delta,
                tasks_cpu: 70,
                tasks_gpu: 30,
                decisions: if policy == "DDWRR" { 0 } else { 50 },
                profile_updates: if policy == "DDWRR" { 0 } else { 100 },
                vs_ddwrr_pct: delta,
            };
        vec![
            mk("paper_hom", "DDWRR", false, false, 0.0),
            mk("paper_hom", "AFFINITY", false, false, 1.2),
            mk("paper_hom", "BANDIT", false, false, 3.0),
            mk("stale_profile", "DDWRR", true, true, 0.0),
            mk("stale_profile", "AFFINITY", true, true, -8.0),
            mk("stale_profile", "BANDIT", true, true, 2.0),
        ]
    }

    #[test]
    fn verdicts_are_enforced() {
        verdict(&rows()).expect("the reference rows pass");

        // A learned loss beyond tolerance on a paper scenario fails.
        let mut r = rows();
        r[2].vs_ddwrr_pct = 9.0;
        assert!(verdict(&r).is_err(), "paper tolerance");

        // No learned win on the stale scenario fails.
        let mut r = rows();
        r[4].vs_ddwrr_pct = 1.0;
        assert!(verdict(&r).is_err(), "stale win");

        // No learned win on any heterogeneous scenario fails.
        let mut r = rows();
        for row in &mut r {
            row.hetero = false;
        }
        assert!(verdict(&r).is_err(), "hetero win");

        // A learned run that never engaged the learner fails.
        let mut r = rows();
        r[4].decisions = 0;
        assert!(verdict(&r).is_err(), "engagement");

        // A classic run that emitted learner events fails.
        let mut r = rows();
        r[0].profile_updates = 3;
        assert!(verdict(&r).is_err(), "inertness");

        // Rows without any stale scenario fail.
        assert!(verdict(&rows()[..3]).is_err(), "stale presence");
    }

    #[test]
    fn head_to_head_learned_paths_engage() {
        // A reduced stale-profile run: enough to prove the learned event
        // paths engage and the classic reference stays inert (the
        // verdicts run at full scale in `tests/policies.rs`).
        let rows = run_scenario(&SCENARIOS[2], 250);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.makespan_ms > 0.0, "{r:?}");
            assert!(r.tasks_cpu + r.tasks_gpu > 0, "{r:?}");
            if r.learned {
                assert!(r.decisions > 0, "learner idle: {r:?}");
                assert!(r.profile_updates > 0, "profile idle: {r:?}");
            } else {
                assert_eq!(r.decisions, 0, "classic run decided: {r:?}");
                assert_eq!(r.profile_updates, 0, "classic run observed: {r:?}");
            }
        }
    }
}
