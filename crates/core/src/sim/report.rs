//! Measurements produced by a simulated cluster run.

use std::collections::HashMap;

use anthill_hetsim::{DeviceId, DeviceKind};
use anthill_simkit::{DurationHistogram, SimDuration, SimTime};

/// The outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Virtual time at which the last buffer finished.
    pub makespan: SimDuration,
    /// Single-CPU-core baseline for the same workload.
    pub cpu_baseline: SimDuration,
    /// Buffers processed, keyed by `(device kind, resolution level)`.
    pub tasks_by: HashMap<(DeviceKind, u8), u64>,
    /// Total buffers processed.
    pub total_tasks: u64,
    /// DQAA / static target-window traces per worker thread.
    pub request_traces: Vec<(DeviceId, Vec<(SimTime, usize)>)>,
    /// Device utilization traces (fraction busy per bucket).
    pub util_traces: Vec<(DeviceId, Vec<(SimTime, f64)>)>,
    /// Overall utilization per device over the whole run.
    pub utilization: Vec<(DeviceId, f64)>,
    /// GPU concurrent-event (stream) counts chosen by Algorithm 1, per GPU.
    pub stream_traces: Vec<(DeviceId, Vec<usize>)>,
    /// Request round-trip latency distribution per worker thread.
    pub latency_hists: Vec<(DeviceId, DurationHistogram)>,
}

impl SimReport {
    /// Speedup relative to the single-CPU-core baseline.
    pub fn speedup(&self) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        self.cpu_baseline.as_secs_f64() / self.makespan.as_secs_f64()
    }

    /// Buffers of resolution `level` processed by devices of `kind`.
    pub fn tasks(&self, kind: DeviceKind, level: u8) -> u64 {
        self.tasks_by.get(&(kind, level)).copied().unwrap_or(0)
    }

    /// Fraction (percent) of `level` buffers processed by `kind` devices.
    pub fn share_pct(&self, kind: DeviceKind, level: u8) -> f64 {
        let total: u64 = DeviceKind::ALL.iter().map(|&k| self.tasks(k, level)).sum();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.tasks(kind, level) as f64 / total as f64
    }

    /// Aggregate request-latency quantile across all threads of a kind.
    pub fn latency_quantile(&self, kind: DeviceKind, q: f64) -> SimDuration {
        let mut merged = DurationHistogram::new();
        for (dev, h) in &self.latency_hists {
            if dev.kind == kind {
                merged.merge(h);
            }
        }
        merged.quantile(q)
    }

    /// Mean utilization across devices of a kind.
    pub fn mean_utilization(&self, kind: DeviceKind) -> f64 {
        let xs: Vec<f64> = self
            .utilization
            .iter()
            .filter(|(d, _)| d.kind == kind)
            .map(|&(_, u)| u)
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        let mut tasks_by = HashMap::new();
        tasks_by.insert((DeviceKind::Cpu, 0), 80);
        tasks_by.insert((DeviceKind::Gpu, 0), 20);
        tasks_by.insert((DeviceKind::Gpu, 1), 10);
        SimReport {
            makespan: SimDuration::from_secs(10),
            cpu_baseline: SimDuration::from_secs(100),
            tasks_by,
            total_tasks: 110,
            request_traces: vec![],
            util_traces: vec![],
            utilization: vec![
                (
                    DeviceId {
                        node: 0,
                        kind: DeviceKind::Cpu,
                        index: 0,
                    },
                    0.5,
                ),
                (
                    DeviceId {
                        node: 0,
                        kind: DeviceKind::Gpu,
                        index: 0,
                    },
                    0.9,
                ),
            ],
            stream_traces: vec![],
            latency_hists: vec![],
        }
    }

    #[test]
    fn speedup_and_shares() {
        let r = report();
        assert!((r.speedup() - 10.0).abs() < 1e-12);
        assert!((r.share_pct(DeviceKind::Cpu, 0) - 80.0).abs() < 1e-12);
        assert!((r.share_pct(DeviceKind::Gpu, 1) - 100.0).abs() < 1e-12);
        assert_eq!(r.share_pct(DeviceKind::Cpu, 7), 0.0);
    }

    #[test]
    fn mean_utilization_by_kind() {
        let r = report();
        assert!((r.mean_utilization(DeviceKind::Cpu) - 0.5).abs() < 1e-12);
        assert!((r.mean_utilization(DeviceKind::Gpu) - 0.9).abs() < 1e-12);
    }
}
