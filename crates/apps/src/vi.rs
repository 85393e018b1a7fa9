//! VI — the vector-incrementer microbenchmark of paper Section 6.2: a
//! large integer vector is split into chunks; each chunk is copied to the
//! GPU, incremented iterating six times over each value, and copied back
//! (compute-to-communication ratio ≈ 7:3).
//!
//! Used by the Figure 7 / Table 2 experiments through the transfer
//! pipeline simulator, and runnable natively (real increments) on the
//! threaded runtime.

use anthill_hetsim::{TaskShape, ViCostModel};

/// Number of passes over each value (per the paper: "iterating over each
/// value six times").
pub(crate) const ITERATIONS: u32 = 6;

/// VI workload parameters.
#[derive(Debug, Clone)]
pub struct ViWorkload {
    /// Total vector length in elements.
    pub vector_len: u64,
    /// Chunk size in elements.
    pub chunk: u64,
    /// Cost model for the simulated experiments.
    pub cost: ViCostModel,
}

impl ViWorkload {
    /// The paper's configuration: a 360M-integer vector with the given
    /// chunk size (100K, 500K or 1M in Figure 7).
    pub fn paper(chunk: u64) -> ViWorkload {
        assert!(chunk > 0);
        ViWorkload {
            vector_len: 360_000_000,
            chunk,
            cost: ViCostModel::paper_calibrated(),
        }
    }

    /// Number of chunks (ceiling division).
    pub fn chunks(&self) -> u64 {
        self.vector_len.div_ceil(self.chunk)
    }

    /// The task shapes of every chunk, for the transfer pipeline.
    pub fn shapes(&self) -> Vec<TaskShape> {
        let full = self.cost.chunk(self.chunk);
        let mut out = vec![full; self.chunks() as usize];
        let rem = self.vector_len % self.chunk;
        if rem != 0 {
            *out.last_mut().expect("at least one chunk") = self.cost.chunk(rem);
        }
        out
    }
}

/// The actual VI kernel: increment every element, iterating [`ITERATIONS`]
/// times (what the paper's GPU kernel computes).
pub(crate) fn increment_chunk(chunk: &mut [u32]) {
    for _ in 0..ITERATIONS {
        for v in chunk.iter_mut() {
            *v = v.wrapping_add(1);
        }
    }
}

/// Run VI natively over a vector, chunk by chunk; returns the processed
/// vector. (Single-threaded reference implementation; the examples drive
/// the threaded runtime version.)
pub fn run_reference(vector: &mut [u32], chunk: usize) {
    assert!(chunk > 0);
    for c in vector.chunks_mut(chunk) {
        increment_chunk(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workload_chunk_counts() {
        assert_eq!(ViWorkload::paper(100_000).chunks(), 3_600);
        assert_eq!(ViWorkload::paper(500_000).chunks(), 720);
        assert_eq!(ViWorkload::paper(1_000_000).chunks(), 360);
    }

    #[test]
    fn shapes_cover_the_whole_vector() {
        let w = ViWorkload {
            vector_len: 1_000,
            chunk: 300,
            cost: ViCostModel::paper_calibrated(),
        };
        let shapes = w.shapes();
        assert_eq!(shapes.len(), 4);
        let total: u64 = shapes.iter().map(|s| s.bytes_in / 4).sum();
        assert_eq!(total, 1_000);
        // Last chunk is the 100-element remainder.
        assert_eq!(shapes[3].bytes_in, 400);
    }

    #[test]
    fn increment_adds_iterations() {
        let mut v = vec![0u32, 10, u32::MAX];
        increment_chunk(&mut v);
        assert_eq!(v, vec![6, 16, 5]); // wrapping
    }

    #[test]
    fn reference_processes_every_element() {
        let mut v: Vec<u32> = (0..1000).collect();
        run_reference(&mut v, 64);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32 + 6));
    }
}
