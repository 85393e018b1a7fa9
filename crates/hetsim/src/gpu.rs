//! The GPU timing model.
//!
//! Modeled after the CUDA devices of the paper's era (GeForce 8800GT): one
//! compute engine plus one copy engine per direction. Concurrent copies are
//! only possible in one direction at a time, asynchronous (pinned) copies
//! overlap with kernel execution, and synchronous (pageable) copies block
//! the device. Each asynchronous operation pays a small driver dispatch
//! cost that grows with the number of active streams — the source of the
//! "too many streams" degradation visible in Figure 7.
//!
//! The model exposes *engines* ([`anthill_simkit::FifoServer`]s): the
//! runtime decides what to submit and when (that is exactly the paper's
//! Algorithm 1); the engines answer "when would it finish".

use anthill_simkit::{FifoServer, SimDuration, SimTime};

/// Direction of a CPU↔GPU copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CopyDir {
    /// Host to device (input data).
    H2D,
    /// Device to host (results).
    D2H,
}

/// Copy mode: the synchronous pageable path or the asynchronous pinned path
/// (CUDA stream API). The paper's driver only uses the fast concurrent
/// mechanism when same-direction transfers are grouped; ungrouped transfers
/// fall back to the synchronous version (Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyMode {
    /// Blocking pageable copy; occupies the whole device.
    Sync,
    /// Asynchronous pinned copy on a CUDA stream; overlaps with compute.
    Async,
}

/// Calibrated GPU timing parameters.
///
/// The defaults ([`GpuParams::geforce_8800gt`]) are fit to the paper's
/// measurements; see `DESIGN.md` §4 for the derivation.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuParams {
    /// Fixed cost per kernel launch, paid on the compute engine.
    pub kernel_launch: SimDuration,
    /// Effective bandwidth of synchronous (pageable) copies, bytes/s.
    pub sync_bandwidth_bps: f64,
    /// Effective bandwidth of asynchronous (pinned) copies, bytes/s.
    pub async_bandwidth_bps: f64,
    /// Fixed driver cost per synchronous copy call.
    pub sync_copy_call: SimDuration,
    /// Fixed driver cost per asynchronous copy call.
    pub async_copy_call: SimDuration,
    /// Extra driver dispatch latency per asynchronous operation, per active
    /// stream (bookkeeping grows with in-flight streams).
    pub stream_mgmt_per_stream: SimDuration,
    /// CPU-side cost of dispatching-and-synchronizing one batch of
    /// concurrent events (Algorithm 1's outer loop body).
    pub batch_dispatch: SimDuration,
    /// Device memory capacity, bounding in-flight events.
    pub memory_bytes: u64,
}

impl GpuParams {
    /// Parameters calibrated to the paper's GeForce 8800GT results.
    pub fn geforce_8800gt() -> GpuParams {
        GpuParams {
            kernel_launch: SimDuration::from_micros(108),
            sync_bandwidth_bps: 385.0e6,
            async_bandwidth_bps: 420.0e6,
            sync_copy_call: SimDuration::from_micros(80),
            async_copy_call: SimDuration::from_micros(15),
            stream_mgmt_per_stream: SimDuration::from_micros(3),
            batch_dispatch: SimDuration::from_micros(300),
            memory_bytes: 512 << 20,
        }
    }

    /// A newer-generation device (GTX 280-class): roughly doubled copy
    /// bandwidth, faster launches, more memory. Used by the mixed-GPU
    /// experiments that Section 6.2 motivates ("on an environment with
    /// mixed GPU types, an optimal single value might not exist").
    pub fn gtx_280_class() -> GpuParams {
        GpuParams {
            kernel_launch: SimDuration::from_micros(60),
            sync_bandwidth_bps: 900.0e6,
            async_bandwidth_bps: 1_100.0e6,
            sync_copy_call: SimDuration::from_micros(50),
            async_copy_call: SimDuration::from_micros(10),
            stream_mgmt_per_stream: SimDuration::from_micros(2),
            batch_dispatch: SimDuration::from_micros(200),
            memory_bytes: 1 << 30,
        }
    }

    /// Pure copy service time (engine occupancy) for `bytes` in `mode`.
    pub fn copy_time(&self, bytes: u64, mode: CopyMode) -> SimDuration {
        let (call, bw) = match mode {
            CopyMode::Sync => (self.sync_copy_call, self.sync_bandwidth_bps),
            CopyMode::Async => (self.async_copy_call, self.async_bandwidth_bps),
        };
        call + SimDuration::from_secs_f64(bytes as f64 / bw)
    }

    /// Total device-blocking time of a task on the synchronous path:
    /// copy-in + launch + kernel + copy-out, fully serialized.
    pub fn sync_task_time(
        &self,
        bytes_in: u64,
        kernel: SimDuration,
        bytes_out: u64,
    ) -> SimDuration {
        self.copy_time(bytes_in, CopyMode::Sync)
            + self.kernel_launch
            + kernel
            + self.copy_time(bytes_out, CopyMode::Sync)
    }

    /// Maximum number of in-flight events whose buffers fit device memory.
    /// Never less than 1 (a task larger than memory still runs, serially).
    pub fn max_concurrent_events(&self, bytes_per_event: u64) -> usize {
        if bytes_per_event == 0 {
            return usize::MAX;
        }
        ((self.memory_bytes / bytes_per_event) as usize).max(1)
    }
}

/// The occupancy state of one GPU: three engines plus parameters.
#[derive(Debug, Clone)]
pub struct GpuEngines {
    /// Timing parameters.
    pub params: GpuParams,
    h2d: FifoServer,
    d2h: FifoServer,
    compute: FifoServer,
}

impl GpuEngines {
    /// A fresh, idle GPU.
    pub fn new(params: GpuParams) -> GpuEngines {
        GpuEngines {
            params,
            h2d: FifoServer::new(),
            d2h: FifoServer::new(),
            compute: FifoServer::new(),
        }
    }

    /// Submit an asynchronous copy at `now` with `active_streams` streams in
    /// flight; returns `(start, finish)` of the engine occupancy. Dispatch
    /// latency (driver bookkeeping, grows with active streams) delays the
    /// earliest start but does not occupy the engine.
    pub fn submit_async_copy(
        &mut self,
        now: SimTime,
        dir: CopyDir,
        bytes: u64,
        active_streams: usize,
    ) -> (SimTime, SimTime) {
        let dispatch = self.params.stream_mgmt_per_stream * active_streams as u64;
        let service = self.params.copy_time(bytes, CopyMode::Async);
        let engine = match dir {
            CopyDir::H2D => &mut self.h2d,
            CopyDir::D2H => &mut self.d2h,
        };
        engine.submit(now + dispatch, service)
    }

    /// Submit a kernel of the given pure compute time at `now`; the launch
    /// overhead and per-active-stream driver bookkeeping are added to the
    /// engine service time (so over-subscribing streams degrades smoothly,
    /// as in the paper's Figure 7).
    pub fn submit_kernel(
        &mut self,
        now: SimTime,
        kernel: SimDuration,
        active_streams: usize,
    ) -> (SimTime, SimTime) {
        let mgmt = self.params.stream_mgmt_per_stream * active_streams as u64;
        self.compute
            .submit(now, self.params.kernel_launch + kernel + mgmt)
    }

    /// Run a whole task on the synchronous path: the device is blocked for
    /// copy-in + kernel + copy-out. Returns `(start, finish)`.
    pub fn run_sync(
        &mut self,
        now: SimTime,
        bytes_in: u64,
        kernel: SimDuration,
        bytes_out: u64,
    ) -> (SimTime, SimTime) {
        let total = self.params.sync_task_time(bytes_in, kernel, bytes_out);
        self.compute.submit(now, total)
    }

    /// Total busy time of the compute engine.
    pub fn compute_busy(&self) -> SimDuration {
        self.compute.busy_time()
    }

    /// Total busy time of both copy engines.
    pub fn copy_busy(&self) -> SimDuration {
        self.h2d.busy_time() + self.d2h.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> GpuParams {
        GpuParams::geforce_8800gt()
    }

    #[test]
    fn sync_task_time_composition() {
        let p = params();
        let t = p.sync_task_time(1000, SimDuration::from_millis(1), 500);
        let expected = p.copy_time(1000, CopyMode::Sync)
            + p.kernel_launch
            + SimDuration::from_millis(1)
            + p.copy_time(500, CopyMode::Sync);
        assert_eq!(t, expected);
    }

    #[test]
    fn async_copies_overlap_with_compute() {
        let mut g = GpuEngines::new(params());
        let kernel = SimDuration::from_millis(5);
        // Copy for task B runs while kernel of task A runs.
        let (_, a_copy_done) = g.submit_async_copy(SimTime::ZERO, CopyDir::H2D, 786_432, 2);
        let (_, a_kernel_done) = g.submit_kernel(a_copy_done, kernel, 2);
        let (_, b_copy_done) = g.submit_async_copy(a_copy_done, CopyDir::H2D, 786_432, 2);
        // B's copy finished before A's kernel: fully hidden.
        assert!(b_copy_done < a_kernel_done);
    }

    #[test]
    fn sync_path_blocks_the_device() {
        let mut g = GpuEngines::new(params());
        let (s0, f0) = g.run_sync(SimTime::ZERO, 786_432, SimDuration::from_millis(5), 256);
        let (s1, _) = g.run_sync(SimTime::ZERO, 786_432, SimDuration::from_millis(5), 256);
        assert_eq!(s0, SimTime::ZERO);
        assert_eq!(s1, f0); // second task waits for in+kernel+out of first
    }

    #[test]
    fn copy_direction_engines_are_independent() {
        let mut g = GpuEngines::new(params());
        let (s_in, _) = g.submit_async_copy(SimTime::ZERO, CopyDir::H2D, 1 << 20, 1);
        let (s_out, _) = g.submit_async_copy(SimTime::ZERO, CopyDir::D2H, 1 << 20, 1);
        // Both start after only the dispatch latency; neither queues on the other.
        assert_eq!(s_in, s_out);
    }

    #[test]
    fn same_direction_copies_serialize() {
        let mut g = GpuEngines::new(params());
        let (_, f0) = g.submit_async_copy(SimTime::ZERO, CopyDir::H2D, 1 << 20, 1);
        let (s1, _) = g.submit_async_copy(SimTime::ZERO, CopyDir::H2D, 1 << 20, 1);
        assert_eq!(s1, f0);
    }

    #[test]
    fn stream_mgmt_grows_with_active_streams() {
        let mut a = GpuEngines::new(params());
        let mut b = GpuEngines::new(params());
        let (s1, _) = a.submit_async_copy(SimTime::ZERO, CopyDir::H2D, 100, 1);
        let (s64, _) = b.submit_async_copy(SimTime::ZERO, CopyDir::H2D, 100, 64);
        assert!(s64 > s1);
    }

    #[test]
    fn memory_caps_concurrency() {
        let p = params();
        assert_eq!(p.max_concurrent_events(p.memory_bytes), 1);
        assert_eq!(p.max_concurrent_events(p.memory_bytes * 2), 1);
        assert_eq!(p.max_concurrent_events(p.memory_bytes / 8), 8);
        assert_eq!(p.max_concurrent_events(0), usize::MAX);
    }

    #[test]
    fn calibration_nbia_512_sync_speedup_near_33() {
        // Cross-check of the DESIGN.md calibration: a 512x512 NBIA tile.
        let p = params();
        let px = 512.0 * 512.0;
        let cpu = px * 1.0955e-6;
        let kernel = SimDuration::from_secs_f64(0.9e-3 + px * 2.135e-8);
        let gpu = p.sync_task_time((px as u64) * 3 + 64, kernel, 256);
        let speedup = cpu / gpu.as_secs_f64();
        assert!((30.0..36.0).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn calibration_nbia_32_sync_speedup_near_1() {
        let p = params();
        let px = 32.0 * 32.0;
        let cpu = px * 1.0955e-6;
        let kernel = SimDuration::from_secs_f64(0.9e-3 + px * 2.135e-8);
        let gpu = p.sync_task_time((px as u64) * 3 + 64, kernel, 256);
        let speedup = cpu / gpu.as_secs_f64();
        assert!((0.8..1.3).contains(&speedup), "speedup {speedup}");
    }
}
