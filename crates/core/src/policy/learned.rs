//! Learned scheduling policies: run-time-corrected weights behind the
//! classic demand-driven machinery.
//!
//! The paper's DDWRR/ODDS heuristics rank ready buffers by weights from a
//! *static* profile (oracle or benchmark-time kNN). This module closes
//! the loop with [`LearnedWeights`], a [`WeightProvider`] that
//!
//! 1. maintains an **online service-time profile**
//!    ([`anthill_estimator::OnlineProfile`]) fed by the engine with every
//!    finished task's span (the same spans the TCP backend re-stamps from
//!    `remote_start`/`remote_finish`), replacing the base prediction per
//!    `(device, shape)` once enough spans accrue;
//! 2. adds an **affinity** term ([`PolicyKind::Affinity`]): a per-node
//!    buffer-residency map — which device class on a node recently
//!    completed which task shape, fed by the transfer layer's completion
//!    path — discounts the predicted time of a resident class
//!    (XKaapi-style `score = predicted − affinity bonus`);
//! 3. runs a **contextual bandit** ([`PolicyKind::Bandit`]): a diagonal
//!    LinUCB-lite per device arm over the features
//!    `[bias, queue depth, window occupancy, profile mean ratio, profile
//!    variance]`, with a deterministic epsilon floor.
//!
//! ## Determinism contract
//!
//! Every backend drives the same engine with the same callback order, so
//! cross-backend parity for a *stateful* policy holds iff the learner is
//! deterministic given that order. [`LearnedWeights`] guarantees this by
//! construction:
//!
//! * state mutates **only** in [`WeightProvider::observe`] (driven by the
//!   engine's `task_finished`) and in the bandit's pending-feature
//!   bookkeeping inside [`WeightProvider::decide`] — both engine-ordered;
//! * the epsilon floor draws **no sequential RNG**: exploration is a pure
//!   hash `fnv1a64(seed ‖ buffer id ‖ task ‖ shape)`, so the verdict for
//!   a buffer does not depend on how many draws happened before it;
//! * all maps are `BTreeMap`s — iteration order never leaks timing.
//!
//! Same seed ⇒ bit-identical decision sequence, on every backend.

use crate::buffer::DataBuffer;
use crate::policy::PolicyKind;
use crate::weights::{pair_weight, Decision, DecisionCtx, ProfileUpdate, WeightProvider};
use anthill_estimator::{fnv1a64, DeviceClass, OnlineProfile};
use anthill_hetsim::DeviceKind;
use std::collections::BTreeMap;

/// Feature-vector arity of the bandit (see module docs).
pub const FEATURES: usize = 5;

/// Bound on remembered decision features awaiting their span (guards
/// workloads whose tasks are shed before finishing).
const PENDING_CAP: usize = 1 << 16;

/// Tunables of a [`LearnedWeights`] provider.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnedConfig {
    /// Seed of the deterministic exploration hash.
    pub seed: u64,
    /// EWMA factor of the online profile.
    pub alpha: f64,
    /// Bounded-history window of the online profile's quantile sketch.
    pub history: usize,
    /// Spans per `(device, shape)` cell before the online mean overrides
    /// the base prediction.
    pub min_obs: u64,
    /// Fraction of predicted time credited when the class is resident
    /// (the affinity bonus).
    pub affinity_bonus: f64,
    /// LinUCB exploration width.
    pub ucb_alpha: f64,
    /// Epsilon floor, parts-per-million of decisions forced to explore.
    pub epsilon_ppm: u64,
    /// Weight multiplier applied to the bandit's chosen arm.
    pub bandit_boost: f64,
}

impl LearnedConfig {
    /// The calibrated defaults every driver uses.
    pub fn standard(seed: u64) -> LearnedConfig {
        LearnedConfig {
            seed,
            alpha: 0.25,
            history: 64,
            min_obs: 2,
            affinity_bonus: 0.25,
            ucb_alpha: 0.5,
            epsilon_ppm: 50_000,
            bandit_boost: 4.0,
        }
    }
}

/// One diagonal-LinUCB arm: per-feature ridge accumulators.
#[derive(Debug, Clone)]
struct Arm {
    a: [f64; FEATURES],
    b: [f64; FEATURES],
    pulls: u64,
}

impl Arm {
    fn new() -> Arm {
        Arm {
            a: [1.0; FEATURES],
            b: [0.0; FEATURES],
            pulls: 0,
        }
    }

    /// `theta · x + ucb_alpha * sqrt(sum x_i^2 / A_i)`.
    fn score(&self, x: &[f64; FEATURES], ucb_alpha: f64) -> f64 {
        let mut mean = 0.0;
        let mut width = 0.0;
        for (i, &xi) in x.iter().enumerate() {
            mean += (self.b[i] / self.a[i]) * xi;
            width += xi * xi / self.a[i];
        }
        mean + ucb_alpha * width.sqrt()
    }

    fn update(&mut self, x: &[f64; FEATURES], reward: f64) {
        for (i, &xi) in x.iter().enumerate() {
            self.a[i] += xi * xi;
            self.b[i] += reward * xi;
        }
        self.pulls += 1;
    }
}

#[derive(Debug)]
struct State {
    profile: OnlineProfile,
    /// `(node, device class, shape) -> completions`: the residency map.
    residency: BTreeMap<(usize, u16, u64), u64>,
    /// Per-`(node, worker)` observed-span tally (chaos tests assert a
    /// dead worker's tally freezes).
    worker_obs: BTreeMap<(usize, usize), u64>,
    arms: [Arm; 2],
    /// Bandit features remembered per buffer id until its span arrives.
    pending: BTreeMap<u64, [f64; FEATURES]>,
    decisions: u64,
    updates: u64,
}

/// A learned [`WeightProvider`]: online-corrected predictions from a
/// wrapped base provider, plus the affinity or bandit decision rule
/// (picked by the [`PolicyKind`] it is built for). See the module docs
/// for the determinism contract.
pub struct LearnedWeights<W> {
    base: W,
    kind: PolicyKind,
    cfg: LearnedConfig,
    state: parking_lot::Mutex<State>,
}

impl<W: WeightProvider> LearnedWeights<W> {
    /// Learned provider for `kind` (must be [`PolicyKind::learned`])
    /// over a base provider supplying cold-start predictions.
    pub fn new(kind: PolicyKind, base: W, cfg: LearnedConfig) -> LearnedWeights<W> {
        assert!(
            kind.learned(),
            "LearnedWeights requires a learned policy kind"
        );
        LearnedWeights {
            base,
            kind,
            cfg,
            state: parking_lot::Mutex::new(State {
                profile: OnlineProfile::new(cfg.alpha, cfg.history),
                residency: BTreeMap::new(),
                worker_obs: BTreeMap::new(),
                arms: [Arm::new(), Arm::new()],
                pending: BTreeMap::new(),
                decisions: 0,
                updates: 0,
            }),
        }
    }

    /// Like [`new`](Self::new), warm-started from a persisted profile.
    pub fn with_profile(
        kind: PolicyKind,
        base: W,
        cfg: LearnedConfig,
        profile: OnlineProfile,
    ) -> LearnedWeights<W> {
        let lw = LearnedWeights::new(kind, base, cfg);
        lw.state.lock().profile = profile;
        lw
    }

    /// Stable shape key of a buffer (hash of its parameters) — matches
    /// the key reported in `profile_updated` events.
    pub fn shape_key(buf: &DataBuffer) -> u64 {
        buf.params.shape_key()
    }

    fn class_index(kind: DeviceKind) -> usize {
        match kind {
            DeviceKind::Cpu => 0,
            DeviceKind::Gpu => 1,
        }
    }

    fn class_of(kind: DeviceKind) -> DeviceClass {
        match kind {
            DeviceKind::Cpu => DeviceClass::CPU,
            DeviceKind::Gpu => DeviceClass::GPU,
        }
    }

    /// Base prediction overridden by the online EWMA once the cell has
    /// `min_obs` spans.
    fn blended_time(&self, state: &State, buf: &DataBuffer, kind: DeviceKind, shape: u64) -> f64 {
        let class = Self::class_of(kind);
        if state.profile.count(class, shape) >= self.cfg.min_obs {
            if let Some(mean) = state.profile.mean(class, shape) {
                return mean.max(1e-12);
            }
        }
        self.base.predict_time(buf, kind)
    }

    /// Deterministic exploration hash of one buffer under this seed.
    fn explore_hash(&self, buf: &DataBuffer, shape: u64) -> u64 {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&self.cfg.seed.to_le_bytes());
        bytes[8..16].copy_from_slice(&buf.id.0.to_le_bytes());
        bytes[16..24].copy_from_slice(&buf.task.to_le_bytes());
        bytes[24..32].copy_from_slice(&shape.to_le_bytes());
        fnv1a64(&bytes)
    }

    fn features(
        &self,
        state: &State,
        ctx: &DecisionCtx,
        tc: f64,
        tg: f64,
        shape: u64,
    ) -> [f64; FEATURES] {
        let var = state
            .profile
            .cell(DeviceClass::CPU, shape)
            .map_or(0.0, |c| c.variance())
            + state
                .profile
                .cell(DeviceClass::GPU, shape)
                .map_or(0.0, |c| c.variance());
        [
            1.0,
            (1.0 + ctx.queue_depth as f64).ln(),
            (1.0 + ctx.inflight as f64).ln(),
            (tc.max(1e-12) / tg.max(1e-12)).ln().clamp(-10.0, 10.0),
            (1.0 + var.sqrt()).ln(),
        ]
    }

    /// Spans observed from `(node, worker)` so far.
    pub fn observations_for(&self, node: usize, worker: usize) -> u64 {
        *self
            .state
            .lock()
            .worker_obs
            .get(&(node, worker))
            .unwrap_or(&0)
    }

    /// Total decisions rendered.
    pub fn decisions(&self) -> u64 {
        self.state.lock().decisions
    }

    /// Total profile updates ingested.
    pub fn updates(&self) -> u64 {
        self.state.lock().updates
    }

    /// Serialize the online profile (see [`OnlineProfile::to_text`]).
    pub fn profile_text(&self) -> String {
        self.state.lock().profile.to_text()
    }
}

impl<W: WeightProvider> WeightProvider for LearnedWeights<W> {
    fn predict_time(&self, buf: &DataBuffer, kind: DeviceKind) -> f64 {
        let shape = Self::shape_key(buf);
        let state = self.state.lock();
        self.blended_time(&state, buf, kind, shape)
    }

    fn observe(
        &self,
        buf: &DataBuffer,
        node: usize,
        worker: usize,
        kind: DeviceKind,
        secs: f64,
    ) -> Option<ProfileUpdate> {
        let shape = Self::shape_key(buf);
        let class = Self::class_of(kind);
        let mut state = self.state.lock();
        let count = state.profile.observe(class, shape, secs);
        let mean = state.profile.mean(class, shape).unwrap_or(secs);
        *state.residency.entry((node, class.0, shape)).or_insert(0) += 1;
        *state.worker_obs.entry((node, worker)).or_insert(0) += 1;
        if self.kind == PolicyKind::Bandit {
            if let Some(x) = state.pending.remove(&buf.id.0) {
                let reward = -secs.max(1e-9).ln();
                state.arms[Self::class_index(kind)].update(&x, reward);
            }
        }
        state.updates += 1;
        Some(ProfileUpdate {
            key: shape,
            count,
            mean_ns: (mean * 1e9).round() as u64,
        })
    }

    fn decide(&self, buf: &DataBuffer, ctx: &DecisionCtx) -> Option<Decision> {
        let shape = Self::shape_key(buf);
        let mut state = self.state.lock();
        let tc = self.blended_time(&state, buf, DeviceKind::Cpu, shape);
        let tg = self.blended_time(&state, buf, DeviceKind::Gpu, shape);
        let decision = match self.kind {
            PolicyKind::Affinity => {
                let discount = |t: f64, class: DeviceClass| {
                    if state
                        .residency
                        .get(&(ctx.node, class.0, shape))
                        .is_some_and(|&n| n > 0)
                    {
                        t * (1.0 - self.cfg.affinity_bonus)
                    } else {
                        t
                    }
                };
                let ac = discount(tc, DeviceClass::CPU);
                let ag = discount(tg, DeviceClass::GPU);
                Decision {
                    weights: [pair_weight(ac, ag), pair_weight(ag, ac)],
                    arm: if ag < ac {
                        DeviceKind::Gpu
                    } else {
                        DeviceKind::Cpu
                    },
                    explore: false,
                }
            }
            PolicyKind::Bandit => {
                let x = self.features(&state, ctx, tc, tg, shape);
                let score_c = state.arms[0].score(&x, self.cfg.ucb_alpha);
                let score_g = state.arms[1].score(&x, self.cfg.ucb_alpha);
                let h = self.explore_hash(buf, shape);
                let explore = h % 1_000_000 < self.cfg.epsilon_ppm;
                let arm = if explore {
                    if (h >> 33) & 1 == 1 {
                        DeviceKind::Gpu
                    } else {
                        DeviceKind::Cpu
                    }
                } else if score_g > score_c {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                };
                let mut weights = [pair_weight(tc, tg), pair_weight(tg, tc)];
                weights[Self::class_index(arm)] *= self.cfg.bandit_boost;
                if state.pending.len() >= PENDING_CAP {
                    let oldest = *state.pending.keys().next().expect("cap > 0");
                    state.pending.remove(&oldest);
                }
                state.pending.insert(buf.id.0, x);
                Decision {
                    weights,
                    arm,
                    explore,
                }
            }
            _ => unreachable!("constructor rejects non-learned kinds"),
        };
        state.decisions += 1;
        Some(decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferId;
    use crate::weights::OracleWeights;
    use anthill_estimator::TaskParams;
    use anthill_hetsim::{GpuParams, NbiaCostModel};

    fn tile(id: u64, side: u32) -> DataBuffer {
        let m = NbiaCostModel::paper_calibrated();
        DataBuffer {
            id: BufferId(id),
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

    #[test]
    #[should_panic(expected = "learned policy kind")]
    fn rejects_classic_kinds() {
        let _ = learner(PolicyKind::DdWrr);
    }

    #[test]
    fn online_spans_override_the_base_prediction() {
        let lw = learner(PolicyKind::Affinity);
        let b = tile(1, 128);
        let base = lw.predict_time(&b, DeviceKind::Cpu);
        for _ in 0..2 {
            lw.observe(&b, 0, 0, DeviceKind::Cpu, base * 5.0).unwrap();
        }
        assert!((lw.predict_time(&b, DeviceKind::Cpu) - base * 5.0).abs() < 1e-9);
        // GPU cell unseen: still the base prediction.
        let gpu_base = OracleWeights::new(GpuParams::geforce_8800gt(), false)
            .predict_time(&b, DeviceKind::Gpu);
        assert_eq!(lw.predict_time(&b, DeviceKind::Gpu), gpu_base);
    }

    #[test]
    fn affinity_discounts_the_resident_class() {
        let lw = learner(PolicyKind::Affinity);
        let b = tile(1, 128);
        let ctx = DecisionCtx::default();
        let before = lw.decide(&b, &ctx).unwrap();
        // Make the GPU class resident for this shape on node 0.
        let t = lw.predict_time(&b, DeviceKind::Gpu);
        lw.observe(&b, 0, 1, DeviceKind::Gpu, t).unwrap();
        lw.observe(&b, 0, 1, DeviceKind::Gpu, t).unwrap();
        let after = lw.decide(&b, &ctx).unwrap();
        // Residency discounts GPU time, so the GPU weight grows.
        assert!(after.weights[1] > before.weights[1]);
        assert_eq!(after.arm, DeviceKind::Gpu);
        // A different node has no residency: no discount there.
        let other = lw
            .decide(
                &b,
                &DecisionCtx {
                    node: 1,
                    ..DecisionCtx::default()
                },
            )
            .unwrap();
        assert!(other.weights[1] < after.weights[1]);
    }

    #[test]
    fn bandit_decisions_are_a_pure_function_of_seed_and_buffer() {
        let a = learner(PolicyKind::Bandit);
        let b = learner(PolicyKind::Bandit);
        let ctx = DecisionCtx {
            node: 0,
            queue_depth: 3,
            inflight: 1,
        };
        for id in 0..200u64 {
            let buf = tile(id, 32 + (id % 4) as u32 * 64);
            let da = a.decide(&buf, &ctx).unwrap();
            let db = b.decide(&buf, &ctx).unwrap();
            assert_eq!(da, db, "buffer {id} diverged");
        }
        assert_eq!(a.decisions(), 200);
    }

    #[test]
    fn bandit_explores_at_the_epsilon_floor() {
        let lw = learner(PolicyKind::Bandit);
        let ctx = DecisionCtx::default();
        let explored = (0..2000u64)
            .filter(|&id| lw.decide(&tile(id, 128), &ctx).unwrap().explore)
            .count();
        // 5% floor: expect ~100 of 2000, generously bracketed.
        assert!(
            (40..=250).contains(&explored),
            "explored {explored} of 2000"
        );
    }

    #[test]
    fn bandit_learns_to_prefer_the_rewarding_arm() {
        let lw = learner(PolicyKind::Bandit);
        let ctx = DecisionCtx::default();
        // GPU spans are consistently 20x faster for this shape. The arms
        // start level and ties go to the CPU, so the GPU is first pulled by
        // an exploration step (one decision in 40): train long enough for
        // the seed's exploration hash to take several.
        for id in 0..300u64 {
            let buf = tile(id, 256);
            let d = lw.decide(&buf, &ctx).unwrap();
            let secs = match d.arm {
                DeviceKind::Gpu => 0.001,
                DeviceKind::Cpu => 0.02,
            };
            lw.observe(&buf, 0, 0, d.arm, secs).unwrap();
        }
        // Greedy (non-explore) decisions now pick the GPU arm.
        let verdicts: Vec<Decision> = (1000..1020u64)
            .map(|id| lw.decide(&tile(id, 256), &ctx).unwrap())
            .collect();
        assert!(verdicts
            .iter()
            .filter(|d| !d.explore)
            .all(|d| d.arm == DeviceKind::Gpu));
    }

    #[test]
    fn worker_observation_tallies_accrue_per_worker() {
        let lw = learner(PolicyKind::Bandit);
        let b = tile(1, 128);
        lw.observe(&b, 0, 0, DeviceKind::Cpu, 0.01).unwrap();
        lw.observe(&b, 0, 1, DeviceKind::Gpu, 0.001).unwrap();
        lw.observe(&b, 0, 1, DeviceKind::Gpu, 0.001).unwrap();
        assert_eq!(lw.observations_for(0, 0), 1);
        assert_eq!(lw.observations_for(0, 1), 2);
        assert_eq!(lw.observations_for(1, 0), 0);
        assert_eq!(lw.updates(), 3);
        // And the profile round-trips through its text form.
        let text = lw.profile_text();
        assert!(OnlineProfile::from_text(&text).is_ok());
    }
}
