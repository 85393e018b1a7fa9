//! Probe-normalised blocks.
//!
//! A run is a sequence of blocks of 6-12 reference-ms (one job; the stream
//! workload uses 100 ms segments). Each block is bracketed by two probes;
//! its wall and CPU time are scaled by `PROBE_REF_NS / mean(probes)`, which
//! removes most of the host's seconds-long speed regimes. A block whose two
//! probes disagree by more than 15 % straddled a regime flip (or took a
//! steal inside a probe) and is dropped.
//!
//! Most reported numbers are read where the probe tracks the workload best:
//! from the kept blocks that ran while the host was at the quietest level
//! this run saw. Median operation latency is their median. Capacity —
//! throughput and CPU per task — is their lower quartile, because
//! interference only ever adds time. Over simulated 12 s runs cut from 120 s
//! block traces of the loaded design host, the capacity estimate ranged
//! 2-6 % where the median over all kept blocks ranged 2-10 %; in an A/A
//! study under heavy neighbours the all-blocks median spread 8-15 % where
//! capacity spread 1-5 %.
//!
//! Two numbers need more blocks than the quiet level leaves. The p90 of the
//! operation is read over every kept block: over the ~200 quiet ones it sat
//! on the steal boundary and spread 6-12 % between runs of the same code,
//! over all ~1000 of the same runs 3-4 %. The stream workload's CPU per task
//! is the median over every block, flipped ones included: two 1 ms probes
//! around a 100 ms segment cannot tell whether the regime flipped inside it
//! (half the segments "flip" on a busy host), and the quiet level kept ~20 of
//! 190 segments, whose lower quartile spread 5-9 % where this median spread
//! 3-5 %.

use std::time::Instant;

use crate::host::{probe_ns, process_cpu_ns, PROBE_REF_NS};
use crate::stats::{iqr_pct, median, quantile};

/// Probes that differ by more than this share mark a flipped block.
const FLIP_TOLERANCE: f64 = 0.15;
/// The run's quiet level is this quantile of its blocks' mean probes ...
const QUIET_LEVEL_QUANTILE: f64 = 0.10;
/// ... and a block is quiet if its mean probe is within this share of it.
const QUIET_TOLERANCE: f64 = 0.05;
/// Capacity is read at this quantile of the quiet blocks.
const CAPACITY_QUANTILE: f64 = 0.25;

/// One measured block.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    pub wall_ns: f64,
    /// Process CPU time of the block, all threads.
    pub cpu_ns: f64,
    pub probe_before_ns: f64,
    pub probe_after_ns: f64,
    /// Tasks the block completed.
    pub tasks: u64,
}

impl Block {
    fn mean_probe_ns(&self) -> f64 {
        0.5 * (self.probe_before_ns + self.probe_after_ns)
    }

    /// Reference-core time per host time during this block.
    pub fn factor(&self) -> f64 {
        PROBE_REF_NS / self.mean_probe_ns()
    }

    /// Did the host change speed regime somewhere inside the block?
    pub fn flipped(&self) -> bool {
        let (a, b) = (self.probe_before_ns, self.probe_after_ns);
        (a - b).abs() > FLIP_TOLERANCE * a.min(b)
    }
}

/// Run `body` between two probes, timing wall and process CPU time.
/// `body` returns its own result plus the number of tasks it completed.
pub fn bracket<T>(body: impl FnOnce() -> (T, u64)) -> (T, Block) {
    let probe_before_ns = probe_ns();
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let (out, tasks) = body();
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let cpu_ns = (process_cpu_ns() - cpu0) as f64;
    let probe_after_ns = probe_ns();
    (
        out,
        Block {
            wall_ns,
            cpu_ns,
            probe_before_ns,
            probe_after_ns,
            tasks,
        },
    )
}

/// Like [`bracket`] for a set-up step: returns the step's result and its
/// normalised duration in nanoseconds. Set-up steps run once, so a flipped
/// bracket is kept (its mean factor is still the best estimate available).
pub fn normalised_step<T>(body: impl FnOnce() -> T) -> (T, f64) {
    let (out, block) = bracket(|| (body(), 0));
    (out, block.wall_ns * block.factor())
}

/// What a series of blocks says, normalised and raw.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Median normalised block wall time over the quiet blocks, ns.
    pub wall_p50_ns: f64,
    /// p90 of the normalised block wall time over every kept block, ns.
    pub wall_p90_ns: f64,
    /// Capacity: normalised block wall time and process CPU time per task
    /// at the lower quartile of the quiet blocks, ns.
    pub capacity_wall_ns: f64,
    pub cpu_per_task_ns: f64,
    /// Median normalised process CPU time per task over every block, flipped
    /// ones included: for the stream workload's 100 ms segments.
    pub segment_cpu_per_task_ns: f64,
    /// Medians over all kept blocks without normalisation (diagnostics).
    pub raw_wall_p50_ns: f64,
    pub raw_cpu_per_task_ns: f64,
    /// Median tasks per kept block.
    pub tasks_p50: f64,
    pub factor_p50: f64,
    pub factor_iqr_pct: f64,
    pub blocks: usize,
    pub dropped: usize,
    /// Kept blocks that ran at the run's quiet level.
    pub quiet: usize,
}

impl Summary {
    pub fn dropped_pct(&self) -> f64 {
        100.0 * self.dropped as f64 / self.blocks.max(1) as f64
    }

    pub fn quiet_pct(&self) -> f64 {
        100.0 * self.quiet as f64 / self.blocks.max(1) as f64
    }
}

/// Summarise a block series: drop flipped blocks, scale the rest, take
/// quantiles over blocks. If every block flipped the series is summarised
/// whole rather than left empty — `dropped` then says how little it means.
pub fn summarise(blocks: &[Block]) -> Summary {
    let every: Vec<&Block> = blocks.iter().collect();
    let kept: Vec<&Block> = blocks.iter().filter(|b| !b.flipped()).collect();
    let dropped = blocks.len() - kept.len();
    let used: Vec<&Block> = if kept.is_empty() { every.clone() } else { kept };
    let column = |of: &[&Block], f: &dyn Fn(&Block) -> f64| -> Vec<f64> {
        of.iter().map(|b| f(b)).collect()
    };
    let per_task = |ns: f64, b: &Block| ns / b.tasks.max(1) as f64;
    let quiet_level = quantile(&column(&used, &|b| b.mean_probe_ns()), QUIET_LEVEL_QUANTILE);
    let quiet: Vec<&Block> = used
        .iter()
        .copied()
        .filter(|b| b.mean_probe_ns() <= quiet_level * (1.0 + QUIET_TOLERANCE))
        .collect();
    let wall = column(&quiet, &|b| b.wall_ns * b.factor());
    let factors = column(&used, &|b| b.factor());
    Summary {
        wall_p50_ns: median(&wall),
        wall_p90_ns: quantile(&column(&used, &|b| b.wall_ns * b.factor()), 0.9),
        capacity_wall_ns: quantile(&wall, CAPACITY_QUANTILE),
        cpu_per_task_ns: quantile(
            &column(&quiet, &|b| per_task(b.cpu_ns * b.factor(), b)),
            CAPACITY_QUANTILE,
        ),
        segment_cpu_per_task_ns: median(&column(&every, &|b| per_task(b.cpu_ns * b.factor(), b))),
        raw_wall_p50_ns: median(&column(&used, &|b| b.wall_ns)),
        raw_cpu_per_task_ns: median(&column(&used, &|b| per_task(b.cpu_ns, b))),
        tasks_p50: median(&column(&used, &|b| b.tasks as f64)),
        factor_p50: median(&factors),
        factor_iqr_pct: iqr_pct(&factors),
        blocks: blocks.len(),
        dropped,
        quiet: quiet.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic host: `quiet_probe` in the quiet regime, 1.3x slower in
    /// the noisy one; the workload slows down exactly as the probe does.
    fn block(job_quiet_ns: f64, quiet_probe: f64, before_slow: bool, after_slow: bool) -> Block {
        let p = |slow: bool| if slow { 1.3 * quiet_probe } else { quiet_probe };
        let slow_share = (u8::from(before_slow) + u8::from(after_slow)) as f64 / 2.0;
        let wall = job_quiet_ns * (1.0 + 0.3 * slow_share);
        Block {
            wall_ns: wall,
            cpu_ns: wall,
            probe_before_ns: p(before_slow),
            probe_after_ns: p(after_slow),
            tasks: 100,
        }
    }

    #[test]
    fn two_regime_series_normalises_to_the_quiet_value() {
        let quiet_probe = 1_200_000.0;
        let job = 9_000_000.0;
        let mut series = Vec::new();
        for i in 0..400 {
            // Regimes of 50 blocks each; every 50th block straddles a flip.
            let slow = (i / 50) % 2 == 1;
            let next_slow = ((i + 1) / 50) % 2 == 1;
            series.push(block(job, quiet_probe, slow, next_slow));
        }
        let s = summarise(&series);
        let expect = job * PROBE_REF_NS / quiet_probe;
        assert!(
            (s.wall_p50_ns - expect).abs() < 0.01 * expect,
            "normalised {} vs quiet {expect}",
            s.wall_p50_ns
        );
        assert!((s.wall_p90_ns - expect).abs() < 0.01 * expect);
        assert!((s.capacity_wall_ns - expect).abs() < 0.01 * expect);
        assert!((s.cpu_per_task_ns - expect / 100.0).abs() < 0.01 * expect / 100.0);
        assert!((s.segment_cpu_per_task_ns - expect / 100.0).abs() < 0.01 * expect / 100.0);
        assert_eq!(
            s.quiet, 196,
            "the quiet regimes, less their straddling blocks"
        );
        // The raw median sits between the regimes' values, far from quiet.
        assert!(s.raw_wall_p50_ns > 1.1 * job);
        assert_eq!(s.blocks, 400);
        assert_eq!(s.dropped, 8, "one straddling block per regime boundary");
    }

    #[test]
    fn numbers_are_read_from_the_quiet_blocks_when_the_probe_undertracks() {
        // A second regime the probe only half sees: it reads 1.1x while the
        // workload runs 1.3x slow, so those blocks normalise 18 % high.
        let quiet_probe = 1_100_000.0;
        let job = 9_000_000.0;
        let undertracked = Block {
            wall_ns: 1.3 * job,
            cpu_ns: 1.3 * job,
            probe_before_ns: 1.1 * quiet_probe,
            probe_after_ns: 1.1 * quiet_probe,
            tasks: 100,
        };
        let mut series = vec![block(job, quiet_probe, false, false); 60];
        series.extend(vec![undertracked; 140]);
        let s = summarise(&series);
        let expect = job * PROBE_REF_NS / quiet_probe;
        assert!(
            s.raw_wall_p50_ns > 1.25 * job,
            "the raw median follows the majority"
        );
        for read in [s.wall_p50_ns, s.capacity_wall_ns] {
            assert!((read - expect).abs() < 0.01 * expect);
        }
        // The p90 is read over every kept block, so it sees the 18 %.
        assert!((s.wall_p90_ns - 1.3 / 1.1 * expect).abs() < 0.01 * expect);
        assert!((s.cpu_per_task_ns - expect / 100.0).abs() < 0.01 * expect / 100.0);
        assert_eq!(s.quiet, 60);
    }

    #[test]
    fn flipped_blocks_are_dropped_and_steady_ones_kept() {
        assert!(block(1.0, 1e6, false, true).flipped());
        assert!(block(1.0, 1e6, true, false).flipped());
        assert!(!block(1.0, 1e6, true, true).flipped());
        let mut b = block(1.0, 1e6, false, false);
        b.probe_after_ns *= 1.10;
        assert!(!b.flipped(), "10 % apart is within tolerance");
    }

    #[test]
    fn an_all_flipped_series_still_reports() {
        let series = vec![block(5e6, 1e6, false, true); 3];
        let s = summarise(&series);
        assert_eq!(s.dropped, 3);
        assert!(s.wall_p50_ns > 0.0);
        assert!((s.dropped_pct() - 100.0).abs() < 1e-9);
    }
}
