//! Per-device buffer weights: the glue between the performance estimator
//! and the schedulers.
//!
//! DDWRR and ODDS order ready buffers by a per-device weight that reflects
//! how *suited* the buffer is to that device. We use the buffer's predicted
//! advantage on the device over its best alternative device (for the
//! paper's two device classes this is exactly the pairwise relative
//! speedup: the GPU queue is sorted by GPU-over-CPU speedup and the CPU
//! queue by its reciprocal). Only the resulting *ordering* matters, so
//! estimator error tolerance is high (paper Sections 4–5.2).
//!
//! ## What one weighing costs
//!
//! A buffer is weighed once per hop, through
//! [`WeightProvider::weights_pair`]: one predicted time per device class
//! yields both weights. For [`EstimatorWeights`] the pair is one memo
//! lookup. The memo is keyed by [`TaskParams::shape_key`] — an
//! allocation-free FNV-1a hash of the parameters, so the map spreads it
//! with the queue's one-multiply `MulHasher` rather than SipHash — and
//! each entry keeps the parameters it was computed for: a lookup whose
//! parameters differ from the stored ones is a miss, so two shapes sharing
//! a key recompute instead of reading each other's times.

use crate::buffer::DataBuffer;
use crate::queue::MulMap;
use anthill_estimator::{DeviceClass, KnnEstimator, OnlineProfile, ShapeKey, TaskParams};
use anthill_hetsim::{CopyMode, DeviceKind, GpuParams};

/// Engine state visible to a learned provider at decision time — the
/// contextual features of [`WeightProvider::decide`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecisionCtx {
    /// Node whose ready queue the buffer is entering.
    pub node: usize,
    /// Ready-queue depth at that node before this insertion.
    pub queue_depth: u64,
    /// Busy (in-flight) workers at that node.
    pub inflight: u64,
}

/// A learned provider's verdict for one buffer: the weights to insert it
/// with, plus what the learner chose (for the `policy_decision` trace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Per-device weights in `DeviceKind::ALL` order.
    pub weights: [f64; 2],
    /// The device class the learner would assign this buffer to.
    pub arm: DeviceKind,
    /// True when the epsilon floor forced an exploration step.
    pub explore: bool,
}

/// Result of folding one observed service-time span into an online
/// profile (the `profile_updated` trace payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileUpdate {
    /// Stable shape key of the updated `(device, shape)` cell.
    pub key: u64,
    /// Observation count of that cell after the update.
    pub count: u64,
    /// Updated EWMA mean, nanoseconds.
    pub mean_ns: u64,
}

/// Provides per-device weights for data buffers.
pub trait WeightProvider {
    /// Predicted execution time of `buf` on a device of `kind`, seconds.
    fn predict_time(&self, buf: &DataBuffer, kind: DeviceKind) -> f64;

    /// Feed one observed service-time span back to the provider: `buf`
    /// finished on `(node, worker)` (a device of `kind`) after `secs`.
    /// Online providers fold the span into their profile and return the
    /// update; static providers (the default) ignore it.
    fn observe(
        &self,
        _buf: &DataBuffer,
        _node: usize,
        _worker: usize,
        _kind: DeviceKind,
        _secs: f64,
    ) -> Option<ProfileUpdate> {
        None
    }

    /// Learned decision for `buf` given engine context: weights plus the
    /// chosen device arm. Providers that only rank statically (the
    /// default) return `None` and the engine falls back to
    /// [`weights_pair`](WeightProvider::weights_pair).
    fn decide(&self, _buf: &DataBuffer, _ctx: &DecisionCtx) -> Option<Decision> {
        None
    }

    /// Scheduling weight of `buf` for `kind`: predicted advantage over the
    /// best alternative device class (higher = more suited).
    fn weight(&self, buf: &DataBuffer, kind: DeviceKind) -> f64 {
        let own = self.predict_time(buf, kind).max(1e-12);
        let best_other = DeviceKind::ALL
            .iter()
            .filter(|k| **k != kind)
            .map(|&k| self.predict_time(buf, k))
            .fold(f64::INFINITY, f64::min);
        if best_other.is_finite() {
            best_other / own
        } else {
            1.0
        }
    }

    /// Both per-device weights of `buf`, in `DeviceKind::ALL` order.
    /// Produces exactly [`weight`](WeightProvider::weight) for each kind
    /// but calls `predict_time` once per device class instead of once per
    /// (weight, class) pair — the form the runtimes' enqueue hot path
    /// wants.
    fn weights_pair(&self, buf: &DataBuffer) -> [f64; 2] {
        let tc = self.predict_time(buf, DeviceKind::Cpu);
        let tg = self.predict_time(buf, DeviceKind::Gpu);
        [pair_weight(tc, tg), pair_weight(tg, tc)]
    }
}

/// One side of [`WeightProvider::weights_pair`]: the weight of a buffer
/// whose own predicted time is `own` against its (only) alternative
/// `other` — the two-device-class specialization of the general
/// `best_other / own` rule in [`WeightProvider::weight`].
pub(crate) fn pair_weight(own: f64, other: f64) -> f64 {
    if other.is_finite() {
        other / own.max(1e-12)
    } else {
        1.0
    }
}

impl<W: WeightProvider + ?Sized> WeightProvider for &W {
    fn predict_time(&self, buf: &DataBuffer, kind: DeviceKind) -> f64 {
        (**self).predict_time(buf, kind)
    }

    fn weight(&self, buf: &DataBuffer, kind: DeviceKind) -> f64 {
        (**self).weight(buf, kind)
    }

    fn weights_pair(&self, buf: &DataBuffer) -> [f64; 2] {
        (**self).weights_pair(buf)
    }

    fn observe(
        &self,
        buf: &DataBuffer,
        node: usize,
        worker: usize,
        kind: DeviceKind,
        secs: f64,
    ) -> Option<ProfileUpdate> {
        (**self).observe(buf, node, worker, kind, secs)
    }

    fn decide(&self, buf: &DataBuffer, ctx: &DecisionCtx) -> Option<Decision> {
        (**self).decide(buf, ctx)
    }
}

impl<W: WeightProvider + ?Sized> WeightProvider for Box<W> {
    fn predict_time(&self, buf: &DataBuffer, kind: DeviceKind) -> f64 {
        (**self).predict_time(buf, kind)
    }

    fn weight(&self, buf: &DataBuffer, kind: DeviceKind) -> f64 {
        (**self).weight(buf, kind)
    }

    fn weights_pair(&self, buf: &DataBuffer) -> [f64; 2] {
        (**self).weights_pair(buf)
    }

    fn observe(
        &self,
        buf: &DataBuffer,
        node: usize,
        worker: usize,
        kind: DeviceKind,
        secs: f64,
    ) -> Option<ProfileUpdate> {
        (**self).observe(buf, node, worker, kind, secs)
    }

    fn decide(&self, buf: &DataBuffer, ctx: &DecisionCtx) -> Option<Decision> {
        (**self).decide(buf, ctx)
    }
}

/// Oracle weights computed directly from the buffer's cost shape and the
/// GPU timing parameters — the upper bound a perfect estimator would reach.
#[derive(Debug, Clone)]
pub struct OracleWeights {
    gpu: GpuParams,
    /// Whether GPU predictions assume the asynchronous (overlapped) path.
    pub async_transfers: bool,
}

impl OracleWeights {
    /// Oracle over the given GPU parameters.
    pub fn new(gpu: GpuParams, async_transfers: bool) -> OracleWeights {
        OracleWeights {
            gpu,
            async_transfers,
        }
    }
}

impl WeightProvider for OracleWeights {
    fn predict_time(&self, buf: &DataBuffer, kind: DeviceKind) -> f64 {
        match kind {
            DeviceKind::Cpu => buf.shape.cpu.as_secs_f64(),
            DeviceKind::Gpu => {
                if self.async_transfers {
                    // Steady-state pipelined cost: compute-engine occupancy
                    // (copies overlap), bounded below by the slower copy.
                    let compute = (self.gpu.kernel_launch + buf.shape.gpu_kernel).as_secs_f64();
                    let copy_in = self
                        .gpu
                        .copy_time(buf.shape.bytes_in, CopyMode::Async)
                        .as_secs_f64();
                    let copy_out = self
                        .gpu
                        .copy_time(buf.shape.bytes_out, CopyMode::Async)
                        .as_secs_f64();
                    compute.max(copy_in).max(copy_out)
                } else {
                    self.gpu
                        .sync_task_time(
                            buf.shape.bytes_in,
                            buf.shape.gpu_kernel,
                            buf.shape.bytes_out,
                        )
                        .as_secs_f64()
                }
            }
        }
    }
}

/// Estimator-backed weights: a fitted kNN model per the paper's Section 4,
/// queried on the buffer's input parameters, with a bounded O(1) memo
/// since replicated dataflows see many tasks with identical parameters.
///
/// With [`EstimatorWeights::with_online`] the provider additionally keeps
/// an [`OnlineProfile`] fed by [`observe`](WeightProvider::observe)d
/// service-time spans; once a `(device, shape)` cell has at least
/// `min_obs` observations its EWMA mean replaces the static kNN
/// prediction. Every online update *invalidates the memo entry* for that
/// shape — a stale cached pair must never outlive a `profile_updated`.
pub struct EstimatorWeights {
    est: KnnEstimator,
    memo: parking_lot::Mutex<Memo>,
    online: Option<parking_lot::Mutex<OnlineProfile>>,
    min_obs: u64,
}

/// Cap on memoized parameter keys (a replicated dataflow reuses a handful
/// of distinct shapes; the cap only guards pathological workloads).
const CACHE_CAP: usize = 4096;

/// Predicted `[cpu, gpu]` times per shape key. Each entry holds the
/// parameters it was computed for, because distinct shapes may share a key.
#[derive(Default)]
struct Memo(MulMap<ShapeKey, (TaskParams, [f64; 2])>);

impl Memo {
    /// The times stored under `key`, if they were computed for `params`.
    fn get(&self, key: ShapeKey, params: &TaskParams) -> Option<[f64; 2]> {
        let (stored, times) = self.0.get(&key)?;
        (stored == params).then_some(*times)
    }

    /// Store `times` for `params` (replacing a colliding shape's entry)
    /// unless [`CACHE_CAP`] keys are already held.
    fn insert(&mut self, key: ShapeKey, params: &TaskParams, times: [f64; 2]) {
        if self.0.len() < CACHE_CAP {
            self.0.insert(key, (params.clone(), times));
        }
    }

    fn remove(&mut self, key: ShapeKey) {
        self.0.remove(&key);
    }
}

/// Online observations of a cell before its EWMA mean overrides the
/// static kNN prediction.
pub const ONLINE_MIN_OBS: u64 = 3;

impl EstimatorWeights {
    /// Wrap a fitted estimator (static: observed spans are ignored).
    pub fn new(est: KnnEstimator) -> EstimatorWeights {
        EstimatorWeights {
            est,
            memo: parking_lot::Mutex::default(),
            online: None,
            min_obs: ONLINE_MIN_OBS,
        }
    }

    /// Wrap a fitted estimator with an online correction profile: spans
    /// fed through [`observe`](WeightProvider::observe) override the
    /// static prediction per `(device, shape)` once `min_obs` spans of
    /// that cell have been seen.
    pub fn with_online(
        est: KnnEstimator,
        profile: OnlineProfile,
        min_obs: u64,
    ) -> EstimatorWeights {
        EstimatorWeights {
            est,
            memo: parking_lot::Mutex::default(),
            online: Some(parking_lot::Mutex::new(profile)),
            min_obs: min_obs.max(1),
        }
    }

    fn class_of(kind: DeviceKind) -> DeviceClass {
        match kind {
            DeviceKind::Cpu => DeviceClass::CPU,
            DeviceKind::Gpu => DeviceClass::GPU,
        }
    }

    /// Stable shape key of a buffer — the cell key the online profile and
    /// the `profile_updated` trace use.
    pub fn shape_key(buf: &DataBuffer) -> ShapeKey {
        buf.params.shape_key()
    }

    /// Predicted `[cpu, gpu]` times of `buf`: one memo lookup when its
    /// shape was seen before, the estimator (and online profile) otherwise.
    fn times(&self, buf: &DataBuffer) -> [f64; 2] {
        let key = Self::shape_key(buf);
        if let Some(times) = self.memo.lock().get(key, &buf.params) {
            return times;
        }
        let times = self.predicted_times(buf, key);
        self.memo.lock().insert(key, &buf.params, times);
        times
    }

    fn predicted_times(&self, buf: &DataBuffer, shape: ShapeKey) -> [f64; 2] {
        let mut cpu = self
            .est
            .predict_time(DeviceClass::CPU, &buf.params)
            .unwrap_or(f64::INFINITY);
        let mut gpu = self
            .est
            .predict_time(DeviceClass::GPU, &buf.params)
            .unwrap_or(f64::INFINITY);
        if let Some(online) = &self.online {
            let online = online.lock();
            for (class, t) in [(DeviceClass::CPU, &mut cpu), (DeviceClass::GPU, &mut gpu)] {
                if online.count(class, shape) >= self.min_obs {
                    if let Some(mean) = online.mean(class, shape) {
                        *t = mean;
                    }
                }
            }
        }
        [cpu, gpu]
    }
}

impl WeightProvider for EstimatorWeights {
    fn predict_time(&self, buf: &DataBuffer, kind: DeviceKind) -> f64 {
        let [cpu, gpu] = self.times(buf);
        match kind {
            DeviceKind::Cpu => cpu,
            DeviceKind::Gpu => gpu,
        }
    }

    fn weights_pair(&self, buf: &DataBuffer) -> [f64; 2] {
        let [cpu, gpu] = self.times(buf);
        [pair_weight(cpu, gpu), pair_weight(gpu, cpu)]
    }

    fn observe(
        &self,
        buf: &DataBuffer,
        _node: usize,
        _worker: usize,
        kind: DeviceKind,
        secs: f64,
    ) -> Option<ProfileUpdate> {
        let online = self.online.as_ref()?;
        let shape = Self::shape_key(buf);
        let class = Self::class_of(kind);
        let (count, mean) = {
            let mut online = online.lock();
            let count = online.observe(class, shape, secs);
            (count, online.mean(class, shape).unwrap_or(secs))
        };
        // The memoized pair for this shape is now stale (and so is a
        // colliding shape's, which merely recomputes).
        self.memo.lock().remove(shape);
        Some(ProfileUpdate {
            key: shape,
            count,
            mean_ns: (mean * 1e9).round() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferId;
    use anthill_estimator::ProfileStore;
    use anthill_hetsim::NbiaCostModel;

    fn tile_buffer(side: u32) -> DataBuffer {
        let m = NbiaCostModel::paper_calibrated();
        DataBuffer {
            id: BufferId(0),
            params: TaskParams::nums(&[f64::from(side)]),
            shape: m.tile(side),
            level: if side > 32 { 1 } else { 0 },
            task: 0,
        }
    }

    #[test]
    fn oracle_gpu_prefers_large_tiles() {
        let w = OracleWeights::new(GpuParams::geforce_8800gt(), false);
        let small = tile_buffer(32);
        let large = tile_buffer(512);
        assert!(w.weight(&large, DeviceKind::Gpu) > 10.0 * w.weight(&small, DeviceKind::Gpu));
    }

    #[test]
    fn oracle_cpu_prefers_small_tiles() {
        let w = OracleWeights::new(GpuParams::geforce_8800gt(), false);
        let small = tile_buffer(32);
        let large = tile_buffer(512);
        assert!(w.weight(&small, DeviceKind::Cpu) > w.weight(&large, DeviceKind::Cpu));
    }

    #[test]
    fn weights_are_reciprocal_for_two_devices() {
        let w = OracleWeights::new(GpuParams::geforce_8800gt(), false);
        let b = tile_buffer(128);
        let wg = w.weight(&b, DeviceKind::Gpu);
        let wc = w.weight(&b, DeviceKind::Cpu);
        assert!((wg * wc - 1.0).abs() < 1e-9, "wg={wg} wc={wc}");
    }

    #[test]
    fn weights_pair_is_bit_identical_to_per_kind_weights() {
        for asyn in [false, true] {
            let w = OracleWeights::new(GpuParams::geforce_8800gt(), asyn);
            for side in [4u32, 32, 128, 512, 2048] {
                let b = tile_buffer(side);
                let pair = w.weights_pair(&b);
                assert_eq!(pair[0].to_bits(), w.weight(&b, DeviceKind::Cpu).to_bits());
                assert_eq!(pair[1].to_bits(), w.weight(&b, DeviceKind::Gpu).to_bits());
            }
        }
    }

    #[test]
    fn pair_weight_handles_nonfinite_predictions() {
        // An infinite alternative falls back to the neutral weight 1.0; a
        // NaN own time is clamped — exactly the general rule's behaviour.
        assert_eq!(pair_weight(2.0, f64::INFINITY), 1.0);
        assert_eq!(pair_weight(f64::NAN, 3.0), 3.0 / 1e-12);
        assert_eq!(pair_weight(0.0, 4.0), 4.0 / 1e-12);
    }

    #[test]
    fn async_oracle_hides_transfer_costs() {
        let sync = OracleWeights::new(GpuParams::geforce_8800gt(), false);
        let asyn = OracleWeights::new(GpuParams::geforce_8800gt(), true);
        let b = tile_buffer(512);
        assert!(asyn.predict_time(&b, DeviceKind::Gpu) < sync.predict_time(&b, DeviceKind::Gpu));
    }

    #[test]
    fn estimator_weights_track_the_profile() {
        // Train on oracle-derived times for a few tile sizes.
        let oracle = OracleWeights::new(GpuParams::geforce_8800gt(), false);
        let mut profile = ProfileStore::new("nbia");
        for side in [32u32, 64, 128, 256, 512] {
            let b = tile_buffer(side);
            profile.add_cpu_gpu(
                b.params.clone(),
                oracle.predict_time(&b, DeviceKind::Cpu),
                oracle.predict_time(&b, DeviceKind::Gpu),
            );
        }
        let est = EstimatorWeights::new(KnnEstimator::fit(profile, 1));
        let small = tile_buffer(32);
        let large = tile_buffer(512);
        assert!(est.weight(&large, DeviceKind::Gpu) > 20.0);
        assert!(est.weight(&small, DeviceKind::Gpu) < 2.0);
        // Cache path returns identical values.
        let w1 = est.weight(&large, DeviceKind::Gpu);
        let w2 = est.weight(&large, DeviceKind::Gpu);
        assert_eq!(w1, w2);
    }

    fn trained_estimator() -> KnnEstimator {
        let oracle = OracleWeights::new(GpuParams::geforce_8800gt(), false);
        let mut profile = ProfileStore::new("nbia");
        for side in [32u32, 64, 128, 256, 512] {
            let b = tile_buffer(side);
            profile.add_cpu_gpu(
                b.params.clone(),
                oracle.predict_time(&b, DeviceKind::Cpu),
                oracle.predict_time(&b, DeviceKind::Gpu),
            );
        }
        KnnEstimator::fit(profile, 1)
    }

    /// Regression: an online profile update must bust the memo cache —
    /// a stale cached weight is never served after `profile_updated`, on
    /// any of the three read paths (the engine's is `select::weights_for`).
    #[test]
    fn online_update_busts_the_memo_cache() {
        use crate::engine::select;
        let est = EstimatorWeights::with_online(trained_estimator(), OnlineProfile::default(), 3);
        let reference = EstimatorWeights::new(trained_estimator());
        let b = tile_buffer(128);
        // Prime the memo cache with the static kNN prediction.
        let stale_cpu = est.predict_time(&b, DeviceKind::Cpu);
        let gpu = reference.predict_time(&b, DeviceKind::Gpu);
        let stale_pair = reference.weights_pair(&b);
        assert_eq!(est.predict_time(&b, DeviceKind::Cpu), stale_cpu);
        assert_eq!(est.weights_pair(&b), stale_pair);
        assert_eq!(select::weights_for(&est, &b), stale_pair);
        // Observe spans wildly different from the static profile.
        let observed = stale_cpu * 10.0;
        for i in 0..3 {
            // Below `min_obs` every path still follows the static profile.
            assert_eq!(est.weights_pair(&b), stale_pair);
            assert_eq!(select::weights_for(&est, &b), stale_pair);
            let up = est
                .observe(&b, 0, 0, DeviceKind::Cpu, observed)
                .expect("online estimator folds spans");
            assert_eq!(up.count, i + 1);
            assert_eq!(up.key, EstimatorWeights::shape_key(&b));
            assert_eq!(up.key, b.params.shape_key());
        }
        // The cached pair must not be served: the prediction now follows
        // the online EWMA (seeded at `observed`, so exactly `observed`).
        let fresh = est.predict_time(&b, DeviceKind::Cpu);
        assert!(
            (fresh - observed).abs() < 1e-12,
            "stale cache served: fresh={fresh} stale={stale_cpu} observed={observed}"
        );
        let fresh_pair = [pair_weight(fresh, gpu), pair_weight(gpu, fresh)];
        assert_ne!(fresh_pair, stale_pair);
        assert_eq!(est.weights_pair(&b), fresh_pair);
        assert_eq!(select::weights_for(&est, &b), fresh_pair);
        // The untouched GPU side still follows the static profile.
        assert_eq!(est.predict_time(&b, DeviceKind::Gpu), gpu);
    }

    /// A memo hit is confirmed against the stored parameters: shapes
    /// sharing a key never read each other's times.
    #[test]
    fn memo_confirms_a_hit_by_comparing_parameters() {
        let key = 42;
        let (a, b) = (TaskParams::nums(&[1.0, 2.0]), TaskParams::nums(&[2.0, 1.0]));
        let mut memo = Memo::default();
        assert_eq!(memo.get(key, &a), None);
        memo.insert(key, &a, [1.0, 10.0]);
        assert_eq!(memo.get(key, &a), Some([1.0, 10.0]));
        assert_eq!(
            memo.get(key, &TaskParams::nums(&[1.0, 2.0])),
            Some([1.0, 10.0])
        );
        assert_eq!(memo.get(key, &b), None, "a collision is a miss");
        // The colliding shape takes the slot over; the first one misses.
        memo.insert(key, &b, [2.0, 20.0]);
        assert_eq!(memo.get(key, &b), Some([2.0, 20.0]));
        assert_eq!(memo.get(key, &a), None);
        memo.remove(key);
        assert_eq!(memo.get(key, &b), None);

        // 0.0 and -0.0 have different keys but compare equal; were they to
        // share a key the hit would be right, the estimator's distances
        // being the same for both.
        let (pos, neg) = (TaskParams::nums(&[0.0]), TaskParams::nums(&[-0.0]));
        assert_ne!(pos.shape_key(), neg.shape_key());
        memo.insert(key, &pos, [3.0, 30.0]);
        assert_eq!(memo.get(key, &neg), Some([3.0, 30.0]));

        // NaN never equals itself: such a shape misses every time and
        // never reads what is stored under its key.
        let nan = TaskParams::nums(&[f64::NAN]);
        assert_eq!(memo.get(key, &nan), None);
        memo.insert(key, &nan, [4.0, 40.0]);
        assert_eq!(memo.get(key, &nan), None);
        assert_eq!(memo.0.len(), 1);
    }

    #[test]
    fn memo_holds_at_most_cache_cap_keys() {
        let mut memo = Memo::default();
        for i in 0..=CACHE_CAP as u64 {
            memo.insert(i, &TaskParams::nums(&[i as f64]), [1.0, 1.0]);
        }
        assert_eq!(memo.0.len(), CACHE_CAP);
        let over = CACHE_CAP as u64;
        assert_eq!(memo.get(over, &TaskParams::nums(&[over as f64])), None);
    }

    /// A NaN parameter is weighed without a memo and without a panic.
    #[test]
    fn nan_parameter_is_weighed_every_time() {
        let est = EstimatorWeights::new(trained_estimator());
        let mut b = tile_buffer(128);
        b.params = TaskParams::nums(&[f64::NAN]);
        let first = est.weights_pair(&b).map(f64::to_bits);
        assert_eq!(est.weights_pair(&b).map(f64::to_bits), first);
        assert_eq!(est.memo.lock().get(b.params.shape_key(), &b.params), None);
    }

    /// A static (PR-2 shaped) estimator ignores observed spans entirely.
    #[test]
    fn static_estimator_ignores_observed_spans() {
        let est = EstimatorWeights::new(trained_estimator());
        let b = tile_buffer(128);
        let before = est.predict_time(&b, DeviceKind::Cpu);
        assert!(est
            .observe(&b, 0, 0, DeviceKind::Cpu, before * 10.0)
            .is_none());
        assert_eq!(est.predict_time(&b, DeviceKind::Cpu), before);
    }
}
