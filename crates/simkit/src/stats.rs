//! Statistics collected during simulation runs: utilization tracking and
//! duration histograms.

use crate::time::{SimDuration, SimTime};

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

#[cfg(test)]
mod tests {
    use super::*;

    impl UtilizationTracker {
        fn is_busy(&self) -> bool {
            self.busy_since.is_some()
        }
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
}
