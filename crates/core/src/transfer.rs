//! CPU/GPU transfer management (paper Section 5.1, Algorithm 1).
//!
//! Two pieces:
//!
//! * [`AdaptiveStreams`] — the throughput-feedback controller that tunes
//!   the number of concurrent in-flight events/CUDA streams: it grows the
//!   count exponentially until throughput drops, backs off, then hill
//!   climbs one step at a time.
//! * [`pipeline`] — a batched execution simulator for one GPU, structured
//!   exactly like Algorithm 1's loop: dispatch all H2D copies of a batch,
//!   run all kernels, collect all D2H copies, send, repeat. It reproduces
//!   Figures 6 and 7 and Table 2.
//!
//! These are *cost*-side components: drivers of the scheduling engine
//! ([`crate::engine`]) use them inside their `Executor` implementations
//! (batch sizing comes from the controller via the engine's batch
//! reserve), while the engine itself stays transport- and
//! hardware-agnostic.

use anthill_hetsim::{CopyDir, GpuEngines, GpuParams, TaskShape};
use anthill_simkit::{SimDuration, SimTime};

/// The adaptive concurrent-events controller of Algorithm 1.
///
/// ```
/// use anthill::transfer::AdaptiveStreams;
///
/// let mut ctl = AdaptiveStreams::new(256);
/// assert_eq!(ctl.concurrent_events(), 2);
/// ctl.observe_throughput(100.0); // better -> grow exponentially
/// ctl.observe_throughput(150.0);
/// assert_eq!(ctl.concurrent_events(), 8);
/// ctl.observe_throughput(120.0); // regression -> restore saved best
/// assert_eq!(ctl.concurrent_events(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveStreams {
    concurrent: usize,
    /// The last configuration whose throughput was an improvement — "the
    /// previous configuration is then saved, and ... the algorithm
    /// continues searching ... by starting from the saved configuration".
    saved: usize,
    step: usize,
    exponential: bool,
    last_throughput: f64,
    max_events: usize,
    /// Ring of the most recent [`HISTORY_CAP`] chosen counts (oldest
    /// first); unbounded growth on long runs was a leak.
    history: Vec<usize>,
}

/// Maximum retained `AdaptiveStreams` history entries. Long-running
/// pipelines observe throughput once per batch indefinitely; the
/// controller only ever needs the recent trajectory (diagnostics and the
/// trace exporters), so older entries are dropped FIFO.
pub(crate) const HISTORY_CAP: usize = 1024;

impl AdaptiveStreams {
    /// Start as Algorithm 1 does: two concurrent events, step 2,
    /// exponential growth enabled. `max_events` bounds the count (device
    /// memory; the minimum is always 1).
    pub fn new(max_events: usize) -> AdaptiveStreams {
        let max_events = max_events.max(1);
        AdaptiveStreams {
            concurrent: 2.min(max_events),
            saved: 2.min(max_events),
            step: 2,
            exponential: true,
            last_throughput: 0.0,
            max_events,
            history: Vec::new(),
        }
    }

    /// The current number of concurrent events to use for the next batch.
    pub fn concurrent_events(&self) -> usize {
        self.concurrent
    }

    /// Feed back the throughput (tasks per second) of the batch that just
    /// finished; adapts the count for the next batch. Growth is exponential
    /// until the first throughput drop, then the search resumes from the
    /// saved configuration with single-step (halved) changes.
    pub fn observe_throughput(&mut self, throughput: f64) {
        if throughput > self.last_throughput {
            self.saved = self.concurrent;
            self.concurrent = (self.concurrent + self.step).min(self.max_events);
            if self.exponential && self.step < self.max_events {
                // Doubling past the memory bound is pointless and would
                // eventually overflow; cap the step at the bound.
                self.step = (self.step * 2).min(self.max_events.max(2));
            }
        } else if throughput < self.last_throughput && self.concurrent > 2 {
            self.concurrent = self.saved.max(1);
            self.step = (self.step / 2).max(1);
            self.exponential = false;
        }
        self.last_throughput = throughput;
        if self.history.len() == HISTORY_CAP {
            // Per-batch path (not per-task), so the O(cap) shift is noise;
            // keeping a plain Vec preserves the `&[usize]` accessor.
            self.history.remove(0);
        }
        self.history.push(self.concurrent);
    }

    /// The sequence of counts chosen after each batch — the most recent
    /// `HISTORY_CAP` entries, oldest first.
    pub fn history(&self) -> &[usize] {
        &self.history
    }
}

/// Outcome of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// Wall-clock (virtual) time to process every task.
    pub makespan: SimDuration,
    /// Completion time of each task, in submission order.
    pub completions: Vec<SimTime>,
    /// Total compute-engine busy time.
    pub compute_busy: SimDuration,
    /// Total copy-engine busy time (both directions).
    pub copy_busy: SimDuration,
}

/// Batched GPU pipeline execution (Algorithm 1's structure).
pub mod pipeline {
    use super::*;
    use crate::obs::{DeviceRef, EventKind, Recorder};

    /// Run every task through the synchronous (blocking, pageable) path.
    pub fn run_sync(params: &GpuParams, tasks: &[TaskShape]) -> PipelineOutcome {
        let mut gpu = GpuEngines::new(params.clone());
        let mut completions = Vec::with_capacity(tasks.len());
        let mut now = SimTime::ZERO;
        for t in tasks {
            let (_, fin) = gpu.run_sync(now, t.bytes_in, t.gpu_kernel, t.bytes_out);
            completions.push(fin);
            now = fin;
        }
        PipelineOutcome {
            makespan: now.since(SimTime::ZERO),
            completions,
            compute_busy: gpu.compute_busy(),
            copy_busy: gpu.copy_busy(),
        }
    }

    /// Execute one batch of tasks asynchronously starting at `now`:
    /// H2D copies for all, kernels as inputs land, D2H as kernels finish,
    /// then the batch barrier. Returns per-task completion times and the
    /// batch end time. (Also used by the cluster simulator's GPU workers.)
    pub(crate) fn execute_batch(
        gpu: &mut GpuEngines,
        now: SimTime,
        batch: &[TaskShape],
    ) -> (Vec<SimTime>, SimTime) {
        execute_batch_traced(
            gpu,
            now,
            batch,
            &Recorder::disabled(),
            DeviceRef::node_scope(0),
        )
    }

    /// [`execute_batch`] plus copy-engine observability: each H2D/D2H copy
    /// records a [`EventKind::Transfer`] event (timestamped at engine
    /// occupancy start) against `origin` when the recorder is enabled.
    pub(crate) fn execute_batch_traced(
        gpu: &mut GpuEngines,
        now: SimTime,
        batch: &[TaskShape],
        recorder: &Recorder,
        origin: DeviceRef,
    ) -> (Vec<SimTime>, SimTime) {
        let k = batch.len();
        let mut kernel_done = Vec::with_capacity(k);
        // Phase 1+2: copies in, kernels chained per stream.
        for t in batch {
            let (h2d_start, h2d_fin) = gpu.submit_async_copy(now, CopyDir::H2D, t.bytes_in, k);
            recorder.record(
                h2d_start.as_nanos(),
                origin,
                EventKind::Transfer {
                    dir: CopyDir::H2D,
                    bytes: t.bytes_in,
                    end_ns: h2d_fin.as_nanos(),
                },
            );
            let (_, k_fin) = gpu.submit_kernel(h2d_fin, t.gpu_kernel, k);
            kernel_done.push(k_fin);
        }
        // Phase 3: grouped copies back (same-direction grouping keeps the
        // fast concurrent path, per Section 5.1).
        let mut completions = Vec::with_capacity(k);
        let mut batch_end = now;
        for (t, &kd) in batch.iter().zip(&kernel_done) {
            let (d2h_start, d2h_fin) = gpu.submit_async_copy(kd, CopyDir::D2H, t.bytes_out, k);
            recorder.record(
                d2h_start.as_nanos(),
                origin,
                EventKind::Transfer {
                    dir: CopyDir::D2H,
                    bytes: t.bytes_out,
                    end_ns: d2h_fin.as_nanos(),
                },
            );
            completions.push(d2h_fin);
            batch_end = batch_end.max(d2h_fin);
        }
        (completions, batch_end + gpu.params.batch_dispatch)
    }

    /// Run all tasks with a fixed number of concurrent events per batch.
    pub fn run_async_static(
        params: &GpuParams,
        tasks: &[TaskShape],
        streams: usize,
    ) -> PipelineOutcome {
        assert!(streams >= 1);
        let mut gpu = GpuEngines::new(params.clone());
        let mut completions = Vec::with_capacity(tasks.len());
        let mut now = SimTime::ZERO;
        for batch in tasks.chunks(streams) {
            let (mut done, end) = execute_batch(&mut gpu, now, batch);
            completions.append(&mut done);
            now = end;
        }
        PipelineOutcome {
            makespan: now.since(SimTime::ZERO),
            completions,
            compute_busy: gpu.compute_busy(),
            copy_busy: gpu.copy_busy(),
        }
    }

    /// Run all tasks with the batch size controlled by [`AdaptiveStreams`]
    /// (the proposed dynamic algorithm). Also returns the controller's
    /// chosen-count trace.
    pub fn run_async_adaptive(
        params: &GpuParams,
        tasks: &[TaskShape],
    ) -> (PipelineOutcome, Vec<usize>) {
        let footprint = tasks.iter().map(TaskShape::footprint).max().unwrap_or(1);
        let mut ctl = AdaptiveStreams::new(params.max_concurrent_events(footprint));
        let mut gpu = GpuEngines::new(params.clone());
        let mut completions = Vec::with_capacity(tasks.len());
        let mut now = SimTime::ZERO;
        let mut idx = 0;
        while idx < tasks.len() {
            let k = ctl.concurrent_events().min(tasks.len() - idx);
            let batch = &tasks[idx..idx + k];
            let (mut done, end) = execute_batch(&mut gpu, now, batch);
            completions.append(&mut done);
            let batch_time = end.since(now).as_secs_f64();
            if batch_time > 0.0 {
                ctl.observe_throughput(k as f64 / batch_time);
            }
            now = end;
            idx += k;
        }
        (
            PipelineOutcome {
                makespan: now.since(SimTime::ZERO),
                completions,
                compute_busy: gpu.compute_busy(),
                copy_busy: gpu.copy_busy(),
            },
            ctl.history().to_vec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anthill_hetsim::{NbiaCostModel, ViCostModel};

    impl PipelineOutcome {
        /// Mean throughput in tasks per second.
        fn throughput(&self) -> f64 {
            if self.makespan.is_zero() {
                return 0.0;
            }
            self.completions.len() as f64 / self.makespan.as_secs_f64()
        }
    }

    #[test]
    fn adaptive_grows_exponentially_then_backs_off() {
        let mut c = AdaptiveStreams::new(1024);
        assert_eq!(c.concurrent_events(), 2);
        c.observe_throughput(10.0); // up: 2+2=4, step 4
        assert_eq!(c.concurrent_events(), 4);
        c.observe_throughput(20.0); // up: 4+4=8, step 8
        assert_eq!(c.concurrent_events(), 8);
        c.observe_throughput(30.0); // up: 8+8=16, step 16
        assert_eq!(c.concurrent_events(), 16);
        c.observe_throughput(25.0); // down: restore saved 8, step 8, linear
        assert_eq!(c.concurrent_events(), 8);
        c.observe_throughput(40.0); // up by step 8, no more doubling
        assert_eq!(c.concurrent_events(), 16);
        c.observe_throughput(39.0); // down again: restore 8, step 4
        assert_eq!(c.concurrent_events(), 8);
        c.observe_throughput(41.0); // up by 4
        assert_eq!(c.concurrent_events(), 12);
        assert_eq!(c.history().len(), 7);
    }

    #[test]
    fn adaptive_respects_memory_bound() {
        let mut c = AdaptiveStreams::new(4);
        for _ in 0..10 {
            c.observe_throughput(c.history().len() as f64 + 1.0);
        }
        assert!(c.concurrent_events() <= 4);
    }

    #[test]
    fn adaptive_history_is_bounded() {
        let mut c = AdaptiveStreams::new(4);
        for i in 0..(HISTORY_CAP + 50) {
            c.observe_throughput((i % 7) as f64);
        }
        assert_eq!(c.history().len(), HISTORY_CAP);
        // The retained window is the most recent entries: the last value
        // in the ring matches the controller's current setting.
        assert_eq!(*c.history().last().unwrap(), c.concurrent_events());
    }

    #[test]
    fn adaptive_never_below_one() {
        let mut c = AdaptiveStreams::new(64);
        c.observe_throughput(10.0);
        for t in (1..10).rev() {
            c.observe_throughput(t as f64);
        }
        assert!(c.concurrent_events() >= 1);
    }

    #[test]
    fn async_beats_sync_for_large_tiles() {
        // Fig. 6's async-copy improvement at 512².
        let params = GpuParams::geforce_8800gt();
        let tasks = vec![NbiaCostModel::paper_calibrated().tile(512); 200];
        let sync = pipeline::run_sync(&params, &tasks);
        let asy = pipeline::run_async_static(&params, &tasks, 8);
        let gain = 1.0 - asy.makespan.as_secs_f64() / sync.makespan.as_secs_f64();
        assert!(
            (0.10..0.35).contains(&gain),
            "async gain {gain} (paper: ~20%)"
        );
    }

    #[test]
    fn more_streams_help_until_saturation_then_hurt() {
        // Fig. 7's shape for the VI workload.
        let params = GpuParams::geforce_8800gt();
        let tasks = vec![ViCostModel::paper_calibrated().chunk(500_000); 400];
        let t = |s: usize| {
            pipeline::run_async_static(&params, &tasks, s)
                .makespan
                .as_secs_f64()
        };
        let (t1, t8, t32, t256) = (t(1), t(8), t(32), t(256));
        assert!(t8 < t1, "8 streams beat 1: {t8} vs {t1}");
        assert!(t32 < t8, "32 streams beat 8: {t32} vs {t8}");
        assert!(t256 > t32, "256 streams degrade: {t256} vs {t32}");
    }

    #[test]
    fn adaptive_is_close_to_best_static() {
        // Table 2: dynamic within ~1 std-dev of the best static count.
        let params = GpuParams::geforce_8800gt();
        let tasks = vec![ViCostModel::paper_calibrated().chunk(1_000_000); 360];
        let best_static = (0..9)
            .map(|p| {
                pipeline::run_async_static(&params, &tasks, 1 << p)
                    .makespan
                    .as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        let (adaptive, trace) = pipeline::run_async_adaptive(&params, &tasks);
        let ratio = adaptive.makespan.as_secs_f64() / best_static;
        assert!(ratio < 1.05, "adaptive/best = {ratio}");
        assert!(!trace.is_empty());
    }

    #[test]
    fn completions_are_monotonic_and_counted() {
        let params = GpuParams::geforce_8800gt();
        let tasks = vec![NbiaCostModel::paper_calibrated().tile(128); 50];
        let out = pipeline::run_async_static(&params, &tasks, 4);
        assert_eq!(out.completions.len(), 50);
        assert!(out.throughput() > 0.0);
        assert!(out.compute_busy > SimDuration::ZERO);
        assert!(out.copy_busy > SimDuration::ZERO);
    }
}
