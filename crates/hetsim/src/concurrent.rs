//! Concurrent kernel execution — the paper's future work ("we intend to
//! consider the concurrent execution of multiple tasks on the same GPU to
//! exploit filters' intrinsic data parallelism").
//!
//! Small tasks cannot fill a GPU: a 32×32 NBIA tile occupies a tiny
//! fraction of the device's multiprocessors, so running such kernels one
//! at a time leaves the GPU mostly idle. Later hardware generations allow
//! several kernels to be resident at once; this model captures the
//! first-order effect: a kernel with *occupancy* `o ∈ (0, 1]` (the device
//! fraction it can use) runs at its natural speed while co-resident with
//! others as long as the total occupancy stays ≤ 1; the model enforces
//! this by giving the compute side `slots ≤ ⌊1/o⌋` parallel servers.
//! Copy engines are still shared, exactly as on real hardware.

use anthill_simkit::{MultiServer, SimDuration, SimTime};

use crate::gpu::{CopyMode, GpuParams};
use crate::TaskShape;

/// A GPU with concurrent-kernel support: `slots` kernels may be resident
/// at once, sharing single per-direction copy engines.
#[derive(Debug, Clone)]
pub struct ConcurrentGpu {
    /// Timing parameters (same calibration as [`crate::GpuEngines`]).
    pub params: GpuParams,
    compute: MultiServer,
    h2d: anthill_simkit::FifoServer,
    d2h: anthill_simkit::FifoServer,
}

impl ConcurrentGpu {
    /// A GPU allowing up to `slots >= 1` co-resident kernels.
    pub fn new(params: GpuParams, slots: usize) -> ConcurrentGpu {
        ConcurrentGpu {
            params,
            compute: MultiServer::new(slots.max(1)),
            h2d: anthill_simkit::FifoServer::new(),
            d2h: anthill_simkit::FifoServer::new(),
        }
    }

    /// Number of kernel slots.
    pub fn slots(&self) -> usize {
        self.compute.len()
    }

    /// Submit one task (async copies + kernel on any free slot); returns
    /// its completion time.
    pub fn submit(&mut self, now: SimTime, task: &TaskShape, active: usize) -> SimTime {
        let (_, h2d_done) = self
            .h2d
            .submit(now, self.params.copy_time(task.bytes_in, CopyMode::Async));
        let mgmt = self.params.stream_mgmt_per_stream * active as u64;
        let (_, _, kernel_done) = self
            .compute
            .submit(h2d_done, self.params.kernel_launch + task.gpu_kernel + mgmt);
        let (_, d2h_done) = self.d2h.submit(
            kernel_done,
            self.params.copy_time(task.bytes_out, CopyMode::Async),
        );
        d2h_done
    }

    /// Process a whole stream of tasks in Algorithm-1-style batches of
    /// `batch` in-flight events; returns the makespan.
    pub fn run_stream(&mut self, tasks: &[TaskShape], batch: usize) -> SimDuration {
        let batch = batch.max(1);
        let mut now = SimTime::ZERO;
        for chunk in tasks.chunks(batch) {
            let mut end = now;
            for t in chunk {
                end = end.max(self.submit(now, t, chunk.len()));
            }
            now = end + self.params.batch_dispatch;
        }
        now.since(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NbiaCostModel;

    impl ConcurrentGpu {
        /// The largest slot count that keeps `occupancy`-sized kernels from
        /// contending for execution resources.
        fn max_useful_slots(occupancy: f64) -> usize {
            if occupancy <= 0.0 {
                return usize::MAX;
            }
            ((1.0 / occupancy).floor() as usize).max(1)
        }
    }

    /// Convenience: makespan of a task stream on a GPU with the given kernel
    /// occupancy, choosing the slot count automatically (`⌊1/occupancy⌋`,
    /// capped at `max_slots`).
    fn concurrent_makespan(
        params: &GpuParams,
        tasks: &[TaskShape],
        occupancy: f64,
        max_slots: usize,
        batch: usize,
    ) -> SimDuration {
        let slots = ConcurrentGpu::max_useful_slots(occupancy).min(max_slots.max(1));
        let mut gpu = ConcurrentGpu::new(params.clone(), slots);
        gpu.run_stream(tasks, batch.max(slots))
    }

    fn small_tiles(n: usize) -> Vec<TaskShape> {
        vec![NbiaCostModel::paper_calibrated().tile(32); n]
    }

    #[test]
    fn one_slot_matches_serial_ordering() {
        let params = GpuParams::geforce_8800gt();
        let tasks = small_tiles(100);
        let serial = ConcurrentGpu::new(params.clone(), 1).run_stream(&tasks, 8);
        let also_serial = ConcurrentGpu::new(params, 1).run_stream(&tasks, 8);
        assert_eq!(serial, also_serial);
    }

    #[test]
    fn more_slots_speed_up_small_kernels() {
        let params = GpuParams::geforce_8800gt();
        let tasks = small_tiles(400);
        let t1 = ConcurrentGpu::new(params.clone(), 1).run_stream(&tasks, 16);
        let t4 = ConcurrentGpu::new(params.clone(), 4).run_stream(&tasks, 16);
        let t8 = ConcurrentGpu::new(params, 8).run_stream(&tasks, 16);
        assert!(
            t4.as_secs_f64() < 0.5 * t1.as_secs_f64(),
            "4 slots {t4} vs 1 slot {t1}"
        );
        assert!(t8 < t4);
    }

    #[test]
    fn copies_still_serialize_across_slots() {
        // With huge transfers, slots cannot help: the copy engine binds.
        let params = GpuParams::geforce_8800gt();
        let mut big = small_tiles(50);
        for t in &mut big {
            t.bytes_in = 50 << 20;
        }
        let t1 = ConcurrentGpu::new(params.clone(), 1).run_stream(&big, 8);
        let t8 = ConcurrentGpu::new(params, 8).run_stream(&big, 8);
        let gain = t1.as_secs_f64() / t8.as_secs_f64();
        assert!(gain < 1.15, "copy-bound gain should be small: {gain}");
    }

    #[test]
    fn max_useful_slots_respects_occupancy() {
        assert_eq!(ConcurrentGpu::max_useful_slots(1.0), 1);
        assert_eq!(ConcurrentGpu::max_useful_slots(0.25), 4);
        assert_eq!(ConcurrentGpu::max_useful_slots(0.3), 3);
        assert_eq!(ConcurrentGpu::max_useful_slots(0.0), usize::MAX);
    }

    #[test]
    fn helper_picks_bounded_slots() {
        let params = GpuParams::geforce_8800gt();
        let tasks = small_tiles(100);
        let auto = concurrent_makespan(&params, &tasks, 1024.0 / 262_144.0, 16, 16);
        let serial = ConcurrentGpu::new(params, 1).run_stream(&tasks, 16);
        assert!(auto < serial);
    }
}
