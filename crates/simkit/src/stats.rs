//! Statistics collected during simulation runs: online moments,
//! time-weighted means, utilization tracking and time-series traces.

use crate::time::{SimDuration, SimTime};

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Welford {
        Welford::default()
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Relative standard deviation (coefficient of variation); 0 when the
    /// mean is 0.
    pub fn rel_std_dev(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m.abs()
        }
    }
}

/// Time-weighted mean of a piecewise-constant signal (e.g. queue length).
#[derive(Debug, Clone)]
pub struct TimeWeightedMean {
    last_t: SimTime,
    last_v: f64,
    integral: f64,
    start: SimTime,
}

impl TimeWeightedMean {
    /// Start tracking at `t0` with initial value `v0`.
    pub fn new(t0: SimTime, v0: f64) -> TimeWeightedMean {
        TimeWeightedMean {
            last_t: t0,
            last_v: v0,
            integral: 0.0,
            start: t0,
        }
    }

    /// Record that the signal changed to `v` at time `t`.
    pub fn update(&mut self, t: SimTime, v: f64) {
        let dt = t.since(self.last_t).as_secs_f64();
        self.integral += self.last_v * dt;
        self.last_t = t;
        self.last_v = v;
    }

    /// Time-weighted mean over `[start, t]`.
    pub fn mean_at(&self, t: SimTime) -> f64 {
        let total = t.since(self.start).as_secs_f64();
        if total <= 0.0 {
            return self.last_v;
        }
        let tail = t.since(self.last_t).as_secs_f64();
        (self.integral + self.last_v * tail) / total
    }

    /// Current value of the signal.
    pub fn current(&self) -> f64 {
        self.last_v
    }
}

/// Tracks the busy/idle state of a device and produces utilization numbers
/// and a utilization trace (fraction busy per sampling bucket).
#[derive(Debug, Clone)]
pub struct UtilizationTracker {
    busy_since: Option<SimTime>,
    total_busy: SimDuration,
    /// Completed busy intervals, for bucketed traces.
    intervals: Vec<(SimTime, SimTime)>,
}

impl UtilizationTracker {
    /// New tracker; the device starts idle.
    pub fn new() -> UtilizationTracker {
        UtilizationTracker {
            busy_since: None,
            total_busy: SimDuration::ZERO,
            intervals: Vec::new(),
        }
    }

    /// Mark the device busy from `t`. No-op if already busy.
    pub fn set_busy(&mut self, t: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(t);
        }
    }

    /// Mark the device idle from `t`. No-op if already idle.
    pub fn set_idle(&mut self, t: SimTime) {
        if let Some(since) = self.busy_since.take() {
            let end = t.max(since);
            self.total_busy += end.since(since);
            self.intervals.push((since, end));
        }
    }

    /// Is the device currently busy?
    pub fn is_busy(&self) -> bool {
        self.busy_since.is_some()
    }

    /// Total busy time up to `t` (including an open interval).
    pub fn busy_time(&self, t: SimTime) -> SimDuration {
        match self.busy_since {
            Some(since) => self.total_busy + t.since(since),
            None => self.total_busy,
        }
    }

    /// Utilization in `[0, 1]` over `[0, t]`.
    pub fn utilization(&self, t: SimTime) -> f64 {
        if t == SimTime::ZERO {
            return 0.0;
        }
        (self.busy_time(t).as_nanos() as f64 / t.as_nanos() as f64).min(1.0)
    }

    /// Fraction-busy per bucket of width `bucket` over `[0, horizon]`.
    pub fn trace(&self, horizon: SimTime, bucket: SimDuration) -> Vec<(SimTime, f64)> {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        let nb = horizon.as_nanos().div_ceil(bucket.as_nanos()).max(1) as usize;
        let mut busy = vec![0u64; nb];
        let mut all = self.intervals.clone();
        if let Some(since) = self.busy_since {
            all.push((since, horizon.max(since)));
        }
        for (s, e) in all {
            let e = e.min(horizon);
            if e <= s {
                continue;
            }
            let first = (s.as_nanos() / bucket.as_nanos()) as usize;
            let last = ((e.as_nanos() - 1) / bucket.as_nanos()) as usize;
            for (b, slot) in busy
                .iter_mut()
                .enumerate()
                .take(last.min(nb - 1) + 1)
                .skip(first)
            {
                let b_start = b as u64 * bucket.as_nanos();
                let b_end = b_start + bucket.as_nanos();
                let overlap = e
                    .as_nanos()
                    .min(b_end)
                    .saturating_sub(s.as_nanos().max(b_start));
                *slot += overlap;
            }
        }
        busy.iter()
            .enumerate()
            .map(|(b, &ns)| {
                (
                    SimTime(b as u64 * bucket.as_nanos()),
                    ns as f64 / bucket.as_nanos() as f64,
                )
            })
            .collect()
    }
}

impl Default for UtilizationTracker {
    fn default() -> Self {
        Self::new()
    }
}

/// A log-spaced duration histogram with approximate quantiles: buckets
/// grow geometrically from 1 µs, so the p50/p95/p99 of task latencies and
/// queueing delays cost O(1) memory per device.
#[derive(Debug, Clone)]
pub struct DurationHistogram {
    /// Bucket i counts durations in `[base·g^i, base·g^(i+1))`.
    counts: Vec<u64>,
    base_ns: f64,
    growth: f64,
    total: u64,
    sum_ns: f64,
    max_ns: u64,
}

impl DurationHistogram {
    /// Default: 96 buckets from 1 µs growing by 1.25× (covers ~5 ms ... >1 h).
    pub fn new() -> DurationHistogram {
        DurationHistogram {
            counts: vec![0; 96],
            base_ns: 1_000.0,
            growth: 1.25,
            total: 0,
            sum_ns: 0.0,
            max_ns: 0,
        }
    }

    /// Record one duration.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        let idx = if (ns as f64) < self.base_ns {
            0
        } else {
            // `ns ≥ base`, so the log ratio is ≥ 0 and truncating it is
            // its floor.
            (((ns as f64) / self.base_ns).ln() / self.growth.ln()) as usize
        };
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum_ns += ns as f64;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean duration (zero when empty).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_ns / self.total as f64) as u64)
    }

    /// Largest recorded duration.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Raw per-bucket counts (bucket `i` covers `[base·g^i, base·g^(i+1))`).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Merge another histogram into this one (identical bucket layouts).
    pub fn merge(&mut self, other: &DurationHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Approximate quantile `q ∈ [0, 1]` (upper edge of the bucket holding
    /// the q-th sample). Zero when empty.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = self.base_ns * self.growth.powi(i as i32 + 1);
                return SimDuration::from_nanos(upper.min(self.max_ns as f64) as u64);
            }
        }
        self.max()
    }
}

impl Default for DurationHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A recorded time series of `(time, value)` points.
#[derive(Debug, Clone, Default)]
pub struct TraceSeries {
    points: Vec<(SimTime, f64)>,
}

impl TraceSeries {
    /// Empty series.
    pub fn new() -> TraceSeries {
        TraceSeries::default()
    }

    /// Append a point. Times should be non-decreasing (not enforced).
    pub fn push(&mut self, t: SimTime, v: f64) {
        self.points.push((t, v));
    }

    /// All recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last value, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }

    /// Downsample to at most `n` evenly spaced points (keeps first & last).
    pub fn downsample(&self, n: usize) -> Vec<(SimTime, f64)> {
        if n == 0 || self.points.is_empty() {
            return Vec::new();
        }
        if self.points.len() <= n {
            return self.points.clone();
        }
        let step = (self.points.len() - 1) as f64 / (n - 1).max(1) as f64;
        (0..n)
            .map(|i| self.points[(i as f64 * step).round() as usize])
            .collect()
    }

    /// Mean of the recorded values (unweighted).
    pub fn value_mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.std_dev() - 2.0).abs() < 1e-12);
        assert!((w.rel_std_dev() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn time_weighted_mean_integrates_steps() {
        let mut m = TimeWeightedMean::new(SimTime(0), 0.0);
        m.update(SimTime(1_000_000_000), 10.0); // 0 for 1s
        m.update(SimTime(3_000_000_000), 0.0); // 10 for 2s
                                               // mean over [0, 4s]: (0*1 + 10*2 + 0*1) / 4 = 5
        assert!((m.mean_at(SimTime(4_000_000_000)) - 5.0).abs() < 1e-9);
        assert_eq!(m.current(), 0.0);
    }

    #[test]
    fn utilization_tracks_intervals() {
        let mut u = UtilizationTracker::new();
        u.set_busy(SimTime(0));
        u.set_idle(SimTime(50));
        u.set_busy(SimTime(75));
        assert!(u.is_busy());
        assert_eq!(u.busy_time(SimTime(100)), SimDuration(75));
        assert!((u.utilization(SimTime(100)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn utilization_double_set_is_noop() {
        let mut u = UtilizationTracker::new();
        u.set_busy(SimTime(0));
        u.set_busy(SimTime(10)); // ignored
        u.set_idle(SimTime(20));
        u.set_idle(SimTime(30)); // ignored
        assert_eq!(u.busy_time(SimTime(30)), SimDuration(20));
    }

    #[test]
    fn utilization_trace_buckets() {
        let mut u = UtilizationTracker::new();
        u.set_busy(SimTime(0));
        u.set_idle(SimTime(150));
        let tr = u.trace(SimTime(300), SimDuration(100));
        assert_eq!(tr.len(), 3);
        assert!((tr[0].1 - 1.0).abs() < 1e-12);
        assert!((tr[1].1 - 0.5).abs() < 1e-12);
        assert!((tr[2].1 - 0.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut h = DurationHistogram::new();
        for ms in 1..=100u64 {
            h.record(SimDuration::from_millis(ms));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5).as_secs_f64();
        let p95 = h.quantile(0.95).as_secs_f64();
        assert!((0.045..0.075).contains(&p50), "p50 {p50}");
        assert!((0.09..0.14).contains(&p95), "p95 {p95}");
        assert!((h.mean().as_secs_f64() - 0.0505).abs() < 0.005);
        assert_eq!(h.max(), SimDuration::from_millis(100));
    }

    #[test]
    fn histogram_merge_combines_populations() {
        let mut a = DurationHistogram::new();
        let mut b = DurationHistogram::new();
        for ms in 1..=50u64 {
            a.record(SimDuration::from_millis(ms));
        }
        for ms in 51..=100u64 {
            b.record(SimDuration::from_millis(ms));
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        let p50 = a.quantile(0.5).as_secs_f64();
        assert!((0.045..0.075).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn histogram_index_equals_the_floor_formula_at_every_bucket_edge() {
        let fresh = DurationHistogram::new();
        let (base, growth, buckets) = (fresh.base_ns, fresh.growth, fresh.counts.len());
        let by_floor = |ns: u64| {
            let idx = if (ns as f64) < base {
                0
            } else {
                (((ns as f64) / base).ln() / growth.ln()).floor() as usize
            };
            idx.min(buckets - 1)
        };
        for i in 0..=buckets as i32 + 1 {
            let edge = base * growth.powi(i);
            let (lo, hi) = (edge.floor() as u64, edge.ceil() as u64);
            for ns in [lo.saturating_sub(1), lo, hi, hi + 1] {
                let mut h = fresh.clone();
                h.record(SimDuration::from_nanos(ns));
                let idx = h.counts.iter().position(|&c| c == 1);
                assert_eq!(idx, Some(by_floor(ns)), "{ns} ns at edge {i}");
            }
        }
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = DurationHistogram::new();
        assert_eq!(h.quantile(0.5), SimDuration::ZERO);
        h.record(SimDuration::ZERO);
        h.record(SimDuration::from_secs(100_000));
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0) >= SimDuration::from_secs(1));
    }

    #[test]
    fn trace_series_downsamples_preserving_endpoints() {
        let mut s = TraceSeries::new();
        for i in 0..100 {
            s.push(SimTime(i), i as f64);
        }
        let d = s.downsample(5);
        assert_eq!(d.len(), 5);
        assert_eq!(d[0].0, SimTime(0));
        assert_eq!(d[4].0, SimTime(99));
        assert!(s.downsample(0).is_empty());
        assert_eq!(s.downsample(1000).len(), 100);
    }
}
