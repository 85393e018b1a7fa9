//! DQAA — the Dynamic Queue Adaptation Algorithm (paper Section 5.3.1,
//! Algorithms 2 and 3).
//!
//! Derived from TCP Vegas congestion control: each worker thread
//! continuously measures the upstream request round-trip latency and its
//! own per-buffer processing time. Their ratio is the number of buffers
//! that must be in flight/queued to hide the request latency; the target
//! request window (`streamRequestSize`) is nudged one step toward it after
//! every processed buffer. The result is the smallest window that keeps
//! the processor busy — large enough to avoid idling, small enough to
//! avoid end-of-run load imbalance (the two contradictory premises of
//! Section 5.3).
//!
//! This module holds the adaptation state machine alone; the engine's
//! per-worker request windows (`engine::window::RequestWindow`) own when
//! it is fed and how its target bounds in-flight requests, identically on
//! every backend.

use anthill_simkit::SimDuration;

/// Per-worker-thread DQAA state.
///
/// ```
/// use anthill::dqaa::Dqaa;
/// use anthill_simkit::SimDuration;
///
/// let mut window = Dqaa::new(64);
/// // Requests take 6 ms round trip; buffers take 2 ms to process:
/// // three buffers must be in flight to hide the latency.
/// for _ in 0..10 {
///     window.observe_latency(SimDuration::from_millis(6));
///     window.observe_processing(SimDuration::from_millis(2));
/// }
/// assert_eq!(window.target(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Dqaa {
    target: usize,
    /// Most recent request round-trip latency.
    last_latency: SimDuration,
    /// Upper bound on the window (guards against measurement spikes).
    max_target: usize,
    /// Trace of `(processed_count, target)` after each adaptation.
    history: Vec<usize>,
    processed: u64,
}

impl Dqaa {
    /// Fresh state: target window of 1, per Algorithm 2's initialization.
    pub fn new(max_target: usize) -> Dqaa {
        Dqaa {
            target: 1,
            last_latency: SimDuration::ZERO,
            max_target: max_target.max(1),
            history: Vec::new(),
            processed: 0,
        }
    }

    /// Current target request window.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Buffers processed so far (adaptation steps).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Record a completed request round trip (ThreadRequester's
    /// `requestlatency` measurement).
    pub fn observe_latency(&mut self, latency: SimDuration) {
        self.last_latency = latency;
    }

    /// Record a processed buffer (ThreadWorker's `timetoprocess`) and adapt
    /// the target window one step toward `latency / time_to_process`.
    /// Returns the new target.
    pub fn observe_processing(&mut self, time_to_process: SimDuration) -> usize {
        self.processed += 1;
        let desired = self.last_latency.ratio(time_to_process);
        // Algorithm 2: single-step increments/decrements toward the ratio.
        if desired > self.target as f64 && self.target < self.max_target {
            self.target += 1;
        } else if desired < self.target as f64 && self.target > 1 {
            self.target -= 1;
        }
        self.history.push(self.target);
        self.target
    }

    /// The adaptation trace (target after each processed buffer).
    pub fn history(&self) -> &[usize] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn starts_at_one() {
        let d = Dqaa::new(64);
        assert_eq!(d.target(), 1);
    }

    #[test]
    fn converges_to_latency_processing_ratio() {
        let mut d = Dqaa::new(64);
        // Latency 10 ms, processing 2 ms => ratio 5.
        for _ in 0..20 {
            d.observe_latency(ms(10));
            d.observe_processing(ms(2));
        }
        assert_eq!(d.target(), 5);
        // Stays there.
        for _ in 0..10 {
            d.observe_latency(ms(10));
            d.observe_processing(ms(2));
        }
        assert_eq!(d.target(), 5);
    }

    #[test]
    fn shrinks_when_processing_slows() {
        let mut d = Dqaa::new(64);
        for _ in 0..20 {
            d.observe_latency(ms(10));
            d.observe_processing(ms(1));
        }
        assert_eq!(d.target(), 10);
        // Buffers get heavier (e.g. the end-of-run build-up of
        // high-resolution tiles on a CPU-only node, Fig. 12b).
        for _ in 0..20 {
            d.observe_latency(ms(10));
            d.observe_processing(ms(50));
        }
        assert_eq!(d.target(), 1);
    }

    #[test]
    fn never_leaves_bounds() {
        let mut d = Dqaa::new(8);
        for _ in 0..100 {
            d.observe_latency(ms(1_000));
            d.observe_processing(SimDuration::from_micros(1));
        }
        assert_eq!(d.target(), 8);
        for _ in 0..100 {
            d.observe_latency(SimDuration::ZERO);
            d.observe_processing(ms(1));
        }
        assert_eq!(d.target(), 1);
    }

    #[test]
    fn zero_processing_time_is_safe() {
        let mut d = Dqaa::new(16);
        d.observe_latency(ms(5));
        // ratio = inf => grow by one step only.
        assert_eq!(d.observe_processing(SimDuration::ZERO), 2);
    }

    #[test]
    fn history_records_every_step() {
        let mut d = Dqaa::new(64);
        for _ in 0..7 {
            d.observe_latency(ms(10));
            d.observe_processing(ms(2));
        }
        assert_eq!(d.history().len(), 7);
        assert_eq!(d.processed(), 7);
        assert_eq!(*d.history().last().unwrap(), d.target());
    }
}
