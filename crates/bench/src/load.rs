//! Open-loop load harness: arrival schedules, a streaming latency sketch
//! and a virtual-time admission model — the inputs of `tests/load.rs`.
//!
//! * [`ArrivalProfile`] — seed-deterministic open-loop schedules
//!   (Poisson, bursty on/off, diurnal ramp), produced as nanosecond
//!   offsets so the same schedule drives the native runtime
//!   (`Pipeline::run_load`), the net coordinator
//!   (`run_concurrent_load`), and the virtual-time model below.
//! * [`LatencyHistogram`] — an HDR-style bucketed histogram (32 linear
//!   sub-buckets per power-of-two octave) giving p50/p99/p999 without
//!   storing samples; the reported quantile is the upper edge of the
//!   bucket holding the exact-rank sample, so its error is bounded by
//!   one bucket width (< 1/32 relative).
//! * [`run_des_load`] — the open-loop schedule replayed under virtual
//!   time: the same `engine::OpenLoop` the live backends wrap, fed by a
//!   heap of completions with service time modeled as a constant, so
//!   admission decisions are reproducible bit-for-bit (the determinism
//!   suite runs it twice and compares decision logs, and pins one log per
//!   overload policy).

use anthill::engine::{AdmissionConfig, AdmissionCounters, AdmissionDecision, OpenLoop};
use anthill::obs::Recorder;
use anthill_simkit::SimRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

// ------------------------------------------------------------- profiles

/// A seed-deterministic open-loop arrival process. `schedule` renders it
/// to absolute nanosecond offsets from the run start; identical
/// `(profile, seed, n)` triples produce byte-identical schedules on every
/// backend and platform (integer accumulation, no wall clock).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProfile {
    /// Memoryless arrivals at a constant mean rate (exponential gaps).
    Poisson {
        /// Mean arrival rate in tasks per second.
        rate_hz: f64,
    },
    /// On/off arrivals: Poisson at `rate_hz` during each burst window,
    /// silence during each idle window.
    Bursty {
        /// Arrival rate inside a burst, tasks per second.
        rate_hz: f64,
        /// Burst window length in milliseconds.
        burst_ms: u64,
        /// Idle window length in milliseconds.
        idle_ms: u64,
    },
    /// A diurnal-shaped ramp: the instantaneous rate sweeps sinusoidally
    /// between `trough_hz` and `peak_hz` over each period, sampled by
    /// thinning a peak-rate Poisson stream.
    Diurnal {
        /// Rate at the top of the ramp, tasks per second.
        peak_hz: f64,
        /// Rate at the bottom of the ramp, tasks per second.
        trough_hz: f64,
        /// Full ramp period in milliseconds.
        period_ms: u64,
    },
}

impl ArrivalProfile {
    /// Stable profile name (the schedule's RNG fork label).
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProfile::Poisson { .. } => "poisson",
            ArrivalProfile::Bursty { .. } => "bursty",
            ArrivalProfile::Diurnal { .. } => "diurnal",
        }
    }

    /// Render the first `n` arrivals as ascending nanosecond offsets.
    /// Deterministic: the stream is drawn from `SimRng::new(seed)` forked
    /// on the profile name, and every offset is accumulated in integer
    /// nanoseconds.
    pub fn schedule(&self, seed: u64, n: usize) -> Vec<u64> {
        let mut rng = SimRng::new(seed).fork(self.name());
        let mut out = Vec::with_capacity(n);
        match *self {
            ArrivalProfile::Poisson { rate_hz } => {
                let mean_gap = 1e9 / rate_hz.max(1e-9);
                let mut t = 0u64;
                for _ in 0..n {
                    t += rng.exponential(mean_gap).max(0.0) as u64;
                    out.push(t);
                }
            }
            ArrivalProfile::Bursty {
                rate_hz,
                burst_ms,
                idle_ms,
            } => {
                let mean_gap = 1e9 / rate_hz.max(1e-9);
                let burst_ns = burst_ms.max(1) * 1_000_000;
                let period_ns = burst_ns + idle_ms * 1_000_000;
                let mut t = 0u64;
                for _ in 0..n {
                    t += rng.exponential(mean_gap).max(0.0) as u64;
                    // A gap landing in the idle window slides to the next
                    // burst start; the burst-local offset is preserved so
                    // gaps stay exponential inside each burst.
                    let phase = t % period_ns;
                    if phase >= burst_ns {
                        t += period_ns - phase;
                    }
                    out.push(t);
                }
            }
            ArrivalProfile::Diurnal {
                peak_hz,
                trough_hz,
                period_ms,
            } => {
                let peak = peak_hz.max(1e-9);
                let trough = trough_hz.clamp(0.0, peak);
                let period_ns = (period_ms.max(1) * 1_000_000) as f64;
                let mean_gap = 1e9 / peak;
                let mut t = 0u64;
                while out.len() < n {
                    t += rng.exponential(mean_gap).max(0.0) as u64;
                    // Thinning: accept in proportion to the instantaneous
                    // rate, which ramps trough -> peak -> trough each
                    // period (phase-shifted sine starting at the trough).
                    let phase = (t as f64 % period_ns) / period_ns;
                    let frac = (1.0 - (std::f64::consts::TAU * phase).cos()) / 2.0;
                    let rate = trough + (peak - trough) * frac;
                    if rng.chance(rate / peak) {
                        out.push(t);
                    }
                }
            }
        }
        out
    }
}

// ------------------------------------------------------------ histogram

/// Linear sub-buckets per power-of-two octave: values below 32 ns are
/// exact; above, the bucket width is `2^octave`, bounding relative
/// quantile error by 1/32.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// An HDR-style bucketed latency histogram over `u64` nanoseconds.
///
/// Memory is O(octaves × 32) regardless of sample count, so a 100k+ task
/// run streams through it without storing per-task samples. Quantiles
/// are reported as the *upper edge* of the bucket containing the
/// exact-rank sample: the estimate never under-reports, and it exceeds
/// the exact order statistic by less than one bucket width (the property
/// suite pins this against adversarial distributions).
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    fn bucket_of(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let octave = msb - SUB_BITS;
        let sub = (v >> octave) & (SUB - 1);
        ((u64::from(octave) + 1) * SUB + sub) as usize
    }

    /// `[lo, hi)` bounds of bucket `idx`.
    fn bucket_bounds(idx: usize) -> (u64, u64) {
        let idx = idx as u64;
        if idx < SUB {
            return (idx, idx + 1);
        }
        let octave = (idx / SUB - 1) as u32;
        let sub = idx % SUB;
        let lo = (SUB + sub) << octave;
        (lo, lo + (1u64 << octave))
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let idx = Self::bucket_of(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.max = self.max.max(v);
        self.count += 1;
    }

    /// Width of the bucket that `v` falls into — the bound on how far
    /// [`quantile`](Self::quantile) can sit above the exact order
    /// statistic at that magnitude.
    pub fn bucket_width(v: u64) -> u64 {
        let (lo, hi) = Self::bucket_bounds(Self::bucket_of(v));
        hi - lo
    }

    /// The q-quantile (q in `[0, 1]`) as the upper edge of the bucket
    /// holding the sample of rank `ceil(q × (count−1))`, clamped to the
    /// observed maximum. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Self::bucket_bounds(idx).1.min(self.max);
            }
        }
        self.max
    }
}

// ------------------------------------------------------- virtual replay

/// Outcome of [`run_des_load`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesLoadOutcome {
    /// Admission counters at quiescence.
    pub counters: AdmissionCounters,
    /// The controller's `(buffer id, decision)` log, in decision order.
    pub decisions: Vec<(u64, AdmissionDecision)>,
    /// Tasks that ran to completion.
    pub completed: u64,
}

/// Replay an arrival schedule through the open-loop intake under
/// *virtual* time: admitted tasks occupy one of the `inflight_cap` slots
/// for exactly `service_ns`, and each completion releases its slot before
/// the intake runs, exactly as the live drivers do; a `Block` stall holds
/// back the rest of the schedule (open-loop generator back-pressure). No
/// threads, no clocks — two calls with the same inputs produce identical
/// decision logs.
pub fn run_des_load(arrivals: &[u64], service_ns: u64, cfg: AdmissionConfig) -> DesLoadOutcome {
    let service_ns = service_ns.max(1);
    // The model samples nothing, so the cadence is moot.
    let mut open = OpenLoop::new(cfg, &Recorder::disabled(), arrivals, Duration::MAX);
    let mut running: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    loop {
        let next_completion = running.peek().map(|&Reverse(t)| t);
        let Some(now) = [open.next_arrival(), next_completion]
            .into_iter()
            .flatten()
            .min()
        else {
            break;
        };
        // Completions first at a tie: the live loops see the completion
        // frame before they inject the arrival due at the same instant.
        while running.peek().is_some_and(|&Reverse(t)| t <= now) {
            running.pop();
            open.completed();
        }
        open.intake(
            now,
            |i, _| i,
            |_, _| running.push(Reverse(now + service_ns)),
        );
    }
    let decisions = open.decisions().to_vec();
    let (counters, completed, _) = open.finish();
    DesLoadOutcome {
        counters,
        decisions,
        completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anthill::engine::OverloadPolicy;

    #[test]
    fn schedules_are_ascending_and_seed_deterministic() {
        for profile in [
            ArrivalProfile::Poisson { rate_hz: 50_000.0 },
            ArrivalProfile::Bursty {
                rate_hz: 80_000.0,
                burst_ms: 2,
                idle_ms: 3,
            },
            ArrivalProfile::Diurnal {
                peak_hz: 60_000.0,
                trough_hz: 5_000.0,
                period_ms: 10,
            },
        ] {
            let a = profile.schedule(7, 2_000);
            let b = profile.schedule(7, 2_000);
            assert_eq!(a, b, "{}", profile.name());
            assert_eq!(a.len(), 2_000);
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "{}", profile.name());
            let c = profile.schedule(8, 2_000);
            assert_ne!(a, c, "{} must vary with the seed", profile.name());
        }
    }

    #[test]
    fn bursty_schedule_never_lands_in_the_idle_window() {
        let profile = ArrivalProfile::Bursty {
            rate_hz: 100_000.0,
            burst_ms: 2,
            idle_ms: 5,
        };
        let period = 7_000_000u64;
        for t in profile.schedule(3, 3_000) {
            assert!(t % period < 2_000_000, "arrival at {t} is inside idle");
        }
    }

    #[test]
    fn histogram_quantile_sits_within_one_bucket_of_exact() {
        let mut h = LatencyHistogram::new();
        let mut rng = SimRng::new(11);
        let mut exact: Vec<u64> = Vec::new();
        for _ in 0..10_000 {
            let v = rng.exponential(1_500_000.0) as u64;
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.5, 0.99, 0.999] {
            let rank = ((exact.len() - 1) as f64 * q).ceil() as usize;
            let truth = exact[rank];
            let approx = h.quantile(q);
            assert!(approx >= truth, "q{q}: {approx} < {truth}");
            assert!(
                approx - truth <= LatencyHistogram::bucket_width(truth),
                "q{q}: {approx} off {truth} by more than one bucket"
            );
        }
    }

    #[test]
    fn des_load_is_deterministic_and_conserves() {
        let arrivals = ArrivalProfile::Poisson { rate_hz: 200_000.0 }.schedule(42, 5_000);
        let cfg = AdmissionConfig {
            inflight_cap: 8,
            queue_cap: 16,
            policy: OverloadPolicy::ShedOldest,
        };
        let a = run_des_load(&arrivals, 50_000, cfg);
        let b = run_des_load(&arrivals, 50_000, cfg);
        assert_eq!(a, b);
        assert!(a.counters.conserved(), "{:?}", a.counters);
        assert!(a.counters.shed > 0, "schedule saturates the cap");
        assert_eq!(a.completed, a.counters.admitted);
    }
}
