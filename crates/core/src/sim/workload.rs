//! The NBIA-shaped workload driving the cluster experiments: a set of
//! image tiles processed at a low resolution first, a deterministic subset
//! of which fails the classification hypothesis test and is recalculated
//! at the high resolution (paper Sections 2 and 6).

use anthill_estimator::TaskParams;
use anthill_hetsim::{NbiaCostModel, TaskShape};
use anthill_simkit::SimDuration;

use crate::buffer::{BufferId, DataBuffer};

/// Workload parameters for one experiment run.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of image tiles.
    pub tiles: u64,
    /// Side of the lowest-resolution tiles (pixels).
    pub low_side: u32,
    /// Side of the recalculation-resolution tiles (pixels).
    pub high_side: u32,
    /// Fraction of tiles recalculated at the high resolution.
    pub recalc_rate: f64,
    /// The calibrated cost model.
    pub cost: NbiaCostModel,
    /// Explicit `(low, high)` task shapes overriding the cost model —
    /// `None` (the default) derives shapes from `cost` and the tile sides.
    /// Lets tests construct synthetic workloads (e.g. device-neutral
    /// shapes for cross-backend parity checks).
    pub shapes: Option<(TaskShape, TaskShape)>,
}

impl WorkloadSpec {
    /// The paper's base workload: 26,742 tiles with (32², 512²) levels
    /// (Sections 6.3–6.4 base cases).
    pub fn paper_base(recalc_rate: f64) -> WorkloadSpec {
        WorkloadSpec {
            tiles: 26_742,
            low_side: 32,
            high_side: 512,
            recalc_rate,
            cost: NbiaCostModel::paper_calibrated(),
            shapes: None,
        }
    }

    /// The shape of a low-resolution tile (override or cost model).
    pub(crate) fn low_shape(&self) -> TaskShape {
        self.shapes
            .map(|(low, _)| low)
            .unwrap_or_else(|| self.cost.tile(self.low_side))
    }

    /// The shape of a high-resolution tile (override or cost model).
    pub(crate) fn high_shape(&self) -> TaskShape {
        self.shapes
            .map(|(_, high)| high)
            .unwrap_or_else(|| self.cost.tile(self.high_side))
    }

    /// Is tile `i` recalculated at the high resolution? Deterministic
    /// fractional-accumulation spread: exactly `floor(tiles × rate)` tiles,
    /// evenly interleaved.
    pub fn is_recalc(&self, tile: u64) -> bool {
        let r = self.recalc_rate.clamp(0.0, 1.0);
        // Both products are ≥ 0 (or NaN, which casts to 0): truncation is
        // their floor.
        ((tile + 1) as f64 * r) as u64 > (tile as f64 * r) as u64
    }

    /// Number of recalculated tiles.
    pub fn recalc_count(&self) -> u64 {
        (self.tiles as f64 * self.recalc_rate.clamp(0.0, 1.0)).floor() as u64
    }

    /// The low-resolution buffer of tile `i`. Buffer ids: low-res tiles use
    /// `i`, high-res recalculations use `tiles + i`.
    pub fn low_buffer(&self, tile: u64) -> DataBuffer {
        DataBuffer {
            id: BufferId(tile),
            params: TaskParams::nums(&[f64::from(self.low_side)]),
            shape: self.low_shape(),
            level: 0,
            task: tile,
        }
    }

    /// The high-resolution (recalculation) buffer of tile `i`.
    pub fn high_buffer(&self, tile: u64) -> DataBuffer {
        DataBuffer {
            id: BufferId(self.tiles + tile),
            params: TaskParams::nums(&[f64::from(self.high_side)]),
            shape: self.high_shape(),
            level: 1,
            task: tile,
        }
    }

    /// Total single-CPU-core execution time of the whole workload (the
    /// speedup baseline; reproduces Table 3 analytically).
    pub fn cpu_baseline(&self) -> SimDuration {
        self.low_shape().cpu * self.tiles + self.high_shape().cpu * self.recalc_count()
    }

    /// Total number of processed buffers (low + recalculated).
    pub fn total_buffers(&self) -> u64 {
        self.tiles + self.recalc_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recalc_count_is_exact_and_spread() {
        let w = WorkloadSpec::paper_base(0.16);
        let marked = (0..w.tiles).filter(|&t| w.is_recalc(t)).count() as u64;
        assert_eq!(marked, w.recalc_count());
        assert_eq!(marked, (26_742f64 * 0.16).floor() as u64);
        // Evenly interleaved: any window of 100 tiles holds 15..17 marks.
        for start in (0..26_000).step_by(1000) {
            let in_window = (start..start + 100).filter(|&t| w.is_recalc(t)).count();
            assert!(
                (15..=17).contains(&in_window),
                "window {start}: {in_window}"
            );
        }
    }

    #[test]
    fn is_recalc_equals_the_floor_definition_on_every_paper_tile() {
        for r in [0.0, 0.08, 0.12, 0.16, 0.2, 1.0] {
            let w = WorkloadSpec::paper_base(r);
            for t in 0..w.tiles {
                let by_floor = ((t + 1) as f64 * r).floor() - (t as f64 * r).floor() >= 1.0;
                assert_eq!(w.is_recalc(t), by_floor, "rate {r}, tile {t}");
            }
        }
    }

    #[test]
    fn zero_and_full_rates() {
        let none = WorkloadSpec::paper_base(0.0);
        assert_eq!(none.recalc_count(), 0);
        assert!(!(0..100).any(|t| none.is_recalc(t)));
        let all = WorkloadSpec::paper_base(1.0);
        assert_eq!(all.recalc_count(), all.tiles);
        assert!((0..100).all(|t| all.is_recalc(t)));
    }

    #[test]
    fn cpu_baseline_matches_table3() {
        // Table 3: 0% -> 30 s, 16% -> 1287 s, 20% -> 1532 s (±10%).
        let t = |r: f64| WorkloadSpec::paper_base(r).cpu_baseline().as_secs_f64();
        assert!((28.0..32.0).contains(&t(0.0)), "0%: {}", t(0.0));
        let t16 = t(0.16);
        assert!((1150.0..1420.0).contains(&t16), "16%: {t16}");
        let t20 = t(0.20);
        assert!((1380.0..1690.0).contains(&t20), "20%: {t20}");
    }

    #[test]
    fn buffer_ids_are_disjoint_across_levels() {
        let w = WorkloadSpec::paper_base(0.5);
        let low = w.low_buffer(5);
        let high = w.high_buffer(5);
        assert_ne!(low.id, high.id);
        assert_eq!(low.task, high.task);
        assert_eq!(low.level, 0);
        assert_eq!(high.level, 1);
    }

    #[test]
    fn total_buffers_counts_both_levels() {
        let w = WorkloadSpec::paper_base(0.08);
        assert_eq!(w.total_buffers(), w.tiles + w.recalc_count());
    }
}
