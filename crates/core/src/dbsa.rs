//! DBSA — the Data Buffer Selection Algorithm (paper Section 5.3.2,
//! Algorithms 4 and 5).
//!
//! The sender side of an ODDS stream keeps its outgoing buffers in a
//! [`SharedQueue`] sorted by per-processor-type speedup
//! (ThreadBufferQueuer). Each incoming data request carries the processor
//! type that triggered it; the sender answers with the queued buffer whose
//! speedup for that type is highest and removes it from every other sorted
//! view (ThreadBufferSender). Requests arriving at an empty queue are
//! parked and served in arrival order as buffers appear.

use std::collections::VecDeque;

use crate::buffer::DataBuffer;
use crate::engine::select;
use crate::queue::SharedQueue;
use crate::weights::WeightProvider;
use anthill_hetsim::DeviceKind;

/// A parked data request (the requester will be answered on next insert).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParkedRequest<R> {
    /// The processor type that caused the request.
    pub proctype: DeviceKind,
    /// Opaque requester identity (e.g. node + thread), echoed on reply.
    pub requester: R,
}

/// The sender-side state of one ODDS stream endpoint.
pub struct SendQueue<R> {
    queue: SharedQueue,
    parked: VecDeque<ParkedRequest<R>>,
    sorted: bool,
}

impl<R: Copy> SendQueue<R> {
    /// A sender queue. `sorted = false` degrades DBSA to FIFO selection
    /// (the DDFCFS/DDWRR sender behaviour, for ablation).
    pub fn new(sorted: bool) -> SendQueue<R> {
        SendQueue {
            queue: SharedQueue::new(),
            parked: VecDeque::new(),
            sorted,
        }
    }

    /// Buffers currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no buffers are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Enqueue an outgoing buffer (ThreadBufferQueuer). If requests are
    /// parked, the oldest is answered immediately: returns
    /// `Some((request, buffer))` that the caller must deliver.
    pub fn push<W: WeightProvider + ?Sized>(
        &mut self,
        buffer: DataBuffer,
        weights: &W,
    ) -> Option<(ParkedRequest<R>, DataBuffer)> {
        let w = select::weights_for(weights, &buffer);
        self.queue.insert(buffer, w, None);
        let req = self.parked.pop_front()?;
        let buf = self.select(req.proctype).expect("buffer was just inserted");
        Some((req, buf))
    }

    /// Handle a data request (ThreadBufferSender): select the best buffer
    /// for the requesting processor type, or park the request if empty.
    pub fn request(&mut self, proctype: DeviceKind, requester: R) -> Option<DataBuffer> {
        let buf = self.select(proctype);
        if buf.is_none() {
            self.parked.push_back(ParkedRequest {
                proctype,
                requester,
            });
        }
        buf
    }

    fn select(&mut self, proctype: DeviceKind) -> Option<DataBuffer> {
        // The sorted-vs-FIFO rule is the engine's, not re-decided here.
        select::pop_for(&mut self.queue, self.sorted, proctype).map(|(b, _)| b)
    }

    /// Iterate queued buffers (FIFO order), for diagnostics.
    pub fn iter(&self) -> impl Iterator<Item = &DataBuffer> + '_ {
        self.queue.iter_fifo()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferId;
    use crate::weights::OracleWeights;
    use anthill_estimator::TaskParams;
    use anthill_hetsim::{GpuParams, NbiaCostModel};

    impl<R> SendQueue<R> {
        /// Number of parked (unanswered) requests.
        fn parked(&self) -> usize {
            self.parked.len()
        }
    }

    fn tile(id: u64, side: u32) -> DataBuffer {
        DataBuffer {
            id: BufferId(id),
            params: TaskParams::nums(&[f64::from(side)]),
            shape: NbiaCostModel::paper_calibrated().tile(side),
            level: if side > 32 { 1 } else { 0 },
            task: id,
        }
    }

    fn oracle() -> OracleWeights {
        OracleWeights::new(GpuParams::geforce_8800gt(), false)
    }

    #[test]
    fn gpu_request_gets_high_res_cpu_request_gets_low_res() {
        let w = oracle();
        let mut sq: SendQueue<u32> = SendQueue::new(true);
        sq.push(tile(1, 32), &w);
        sq.push(tile(2, 512), &w);
        sq.push(tile(3, 32), &w);
        let gpu_buf = sq.request(DeviceKind::Gpu, 0).unwrap();
        assert_eq!(gpu_buf.id.0, 2, "GPU should get the 512² tile");
        let cpu_buf = sq.request(DeviceKind::Cpu, 0).unwrap();
        assert_eq!(cpu_buf.level, 0, "CPU should get a 32² tile");
    }

    #[test]
    fn sent_buffer_disappears_from_all_views() {
        let w = oracle();
        let mut sq: SendQueue<u32> = SendQueue::new(true);
        sq.push(tile(1, 512), &w);
        let _ = sq.request(DeviceKind::Gpu, 0).unwrap();
        assert!(sq.request(DeviceKind::Cpu, 0).is_none());
        assert_eq!(sq.parked(), 1);
    }

    #[test]
    fn parked_requests_are_served_on_push_in_order() {
        let w = oracle();
        let mut sq: SendQueue<u32> = SendQueue::new(true);
        assert!(sq.request(DeviceKind::Gpu, 7).is_none());
        assert!(sq.request(DeviceKind::Cpu, 8).is_none());
        let (req, buf) = sq.push(tile(1, 512), &w).expect("oldest request served");
        assert_eq!(req.requester, 7);
        assert_eq!(req.proctype, DeviceKind::Gpu);
        assert_eq!(buf.id.0, 1);
        assert_eq!(sq.parked(), 1);
        let (req2, _) = sq.push(tile(2, 32), &w).expect("second request served");
        assert_eq!(req2.requester, 8);
        assert_eq!(sq.parked(), 0);
    }

    #[test]
    fn unsorted_mode_is_fifo_regardless_of_proctype() {
        let w = oracle();
        let mut sq: SendQueue<u32> = SendQueue::new(false);
        sq.push(tile(1, 32), &w);
        sq.push(tile(2, 512), &w);
        assert_eq!(sq.request(DeviceKind::Gpu, 0).unwrap().id.0, 1);
        assert_eq!(sq.request(DeviceKind::Gpu, 0).unwrap().id.0, 2);
    }

    #[test]
    fn len_and_iter_reflect_queue_content() {
        let w = oracle();
        let mut sq: SendQueue<u32> = SendQueue::new(true);
        assert!(sq.is_empty());
        sq.push(tile(1, 32), &w);
        sq.push(tile(2, 64), &w);
        assert_eq!(sq.len(), 2);
        assert_eq!(sq.iter().count(), 2);
    }
}
