//! Data buffers: the unit of work flowing through filter streams.
//!
//! In the filter-stream model, filters exchange *data buffers*; each buffer
//! received on an input stream becomes an event, and events are the
//! asynchronous, independent tasks the schedulers assign to devices. A
//! buffer carries its application parameters (what the performance
//! estimator predicts from) and its timing shape (what the hardware models
//! consume).

use anthill_estimator::TaskParams;
use anthill_hetsim::TaskShape;

/// Unique identifier of a data buffer within one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub u64);

/// A data buffer / schedulable event.
#[derive(Debug, Clone, PartialEq)]
pub struct DataBuffer {
    /// Unique id.
    pub id: BufferId,
    /// Application-level input parameters (estimator features).
    pub params: TaskParams,
    /// Timing shape (CPU time, GPU kernel time, transfer sizes).
    pub shape: TaskShape,
    /// Application tag — for NBIA, the resolution level (0 = lowest).
    pub level: u8,
    /// Application task index (for NBIA, the tile index).
    pub task: u64,
}

impl DataBuffer {
    /// Bytes this buffer occupies on the wire (payload plus framing).
    pub(crate) fn wire_bytes(&self) -> u64 {
        self.shape.bytes_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anthill_simkit::SimDuration;

    #[test]
    fn wire_bytes_is_input_payload() {
        let b = DataBuffer {
            id: BufferId(1),
            params: TaskParams::nums(&[32.0]),
            shape: TaskShape {
                cpu: SimDuration::from_millis(1),
                gpu_kernel: SimDuration::from_millis(1),
                bytes_in: 3136,
                bytes_out: 256,
            },
            level: 0,
            task: 7,
        };
        assert_eq!(b.wire_bytes(), 3136);
    }
}
