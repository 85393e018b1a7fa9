//! The single point where a policy's ordering decisions are applied.
//!
//! Table 5 of the paper distinguishes the three policies by *where* queues
//! are consumed sorted-by-speedup versus FIFO. Every such decision in the
//! codebase funnels through `pop_for`: the engine's receiver-side ready
//! queues, the reader/DBSA sender side ([`crate::dbsa::SendQueue`]), and
//! the threaded runtime's stage queues (via [`ReadyLane`]). Backends never
//! re-implement the ordering rule.

use std::collections::VecDeque;

use anthill_hetsim::DeviceKind;

use crate::buffer::DataBuffer;
use crate::policy::PolicyKind;
use crate::queue::SharedQueue;
use crate::weights::WeightProvider;

/// Pop the next buffer from `queue` for a device of `kind`: the
/// highest-weighted buffer for that device when `sorted`, the oldest
/// buffer otherwise. Returns the buffer and its requesting-worker tag.
pub(crate) fn pop_for(
    queue: &mut SharedQueue,
    sorted: bool,
    kind: DeviceKind,
) -> Option<(DataBuffer, Option<u64>)> {
    if sorted {
        queue.pop_best(kind)
    } else {
        queue.pop_fifo()
    }
}

/// Per-device weights of a buffer, in `DeviceKind::ALL` order — the shape
/// [`SharedQueue`] insertion expects. One
/// [`weights_pair`](WeightProvider::weights_pair) call: each device
/// class's time is predicted once per weighing.
pub fn weights_for<W: WeightProvider + ?Sized>(weights: &W, buf: &DataBuffer) -> [f64; 2] {
    weights.weights_pair(buf)
}

/// Dispatch visit order over worker slots of the given device kinds: GPUs
/// first (they drain the queue fastest), preserving slot order within a
/// class. Stable, so equal-kind workers keep their configuration order.
pub fn dispatch_order(kinds: &[DeviceKind]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..kinds.len()).collect();
    idx.sort_by_key(|&i| match kinds[i] {
        DeviceKind::Gpu => 0,
        DeviceKind::Cpu => 1,
    });
    idx
}

/// Storage of a [`ReadyLane`]: layouts are a cost choice, never a
/// semantics choice — both pop in exactly the order a [`SharedQueue`]
/// driven through [`pop_for`] would.
#[derive(Debug)]
// One lane per stage, never stored in bulk: boxing the queue would only add
// a pointer chase to every push and pop.
#[allow(clippy::large_enum_variant)]
enum LaneStore {
    /// The shared pool with its FIFO bands and one sorted view per device
    /// kind: every sorted policy, whichever kinds consume the lane.
    Shared(SharedQueue),
    /// FIFO-only lane: arrival order is the pop order, and producers need
    /// not weigh buffers at all ([`ReadyLane::needs_weights`]).
    Fifo(VecDeque<(DataBuffer, Option<u64>)>),
}

/// A policy-ordered ready queue: the receiver-side ordering rule of a
/// [`PolicyKind`] over the cheaper of two storage layouts. Backends that
/// own their queueing machinery (the threaded runtime's per-stage queues)
/// use this instead of re-deciding the pop order locally; the engine's own
/// node pools use [`SharedQueue`] directly.
#[derive(Debug)]
pub struct ReadyLane {
    store: LaneStore,
}

impl ReadyLane {
    /// An empty lane consumed per `policy`: a plain `VecDeque` when the
    /// policy pops FIFO (DDFCFS never reads the sorted views), the full
    /// [`SharedQueue`] when it pops best-per-device (DDWRR/ODDS). The
    /// consumers' device kinds do not select a layout: one queue serves
    /// any mix at the cost a specialised single-kind heap could not beat.
    pub fn tuned(policy: PolicyKind, _kinds: &[DeviceKind]) -> ReadyLane {
        let store = if policy.receiver_sorted() {
            LaneStore::Shared(SharedQueue::new())
        } else {
            LaneStore::Fifo(VecDeque::new())
        };
        ReadyLane { store }
    }

    /// True if `push` consults the weight vector: FIFO-only lanes ignore
    /// it, so callers can skip computing weights entirely.
    pub(crate) fn needs_weights(&self) -> bool {
        !matches!(self.store, LaneStore::Fifo(_))
    }

    /// Queue a buffer with precomputed per-device weights.
    pub fn push(&mut self, buffer: DataBuffer, weights: [f64; 2], tag: Option<u64>) {
        match &mut self.store {
            LaneStore::Shared(q) => q.insert(buffer, weights, tag),
            LaneStore::Fifo(q) => q.push_back((buffer, tag)),
        }
    }

    /// Pop the next buffer for a device of `kind` per the lane's policy.
    pub fn pop(&mut self, kind: DeviceKind) -> Option<(DataBuffer, Option<u64>)> {
        match &mut self.store {
            LaneStore::Shared(q) => pop_for(q, true, kind),
            LaneStore::Fifo(q) => q.pop_front(),
        }
    }

    /// Number of queued buffers.
    pub fn len(&self) -> usize {
        match &self.store {
            LaneStore::Shared(q) => q.len(),
            LaneStore::Fifo(q) => q.len(),
        }
    }

    /// True if no buffers are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferId;
    use anthill_estimator::TaskParams;
    use anthill_hetsim::TaskShape;
    use anthill_simkit::SimDuration;

    fn buf(id: u64) -> DataBuffer {
        DataBuffer {
            id: BufferId(id),
            params: TaskParams::nums(&[id as f64]),
            shape: TaskShape {
                cpu: SimDuration::from_millis(1),
                gpu_kernel: SimDuration::from_millis(1),
                bytes_in: 64,
                bytes_out: 64,
            },
            level: 0,
            task: id,
        }
    }

    #[test]
    fn pop_for_honours_the_sorted_flag() {
        let mut q = SharedQueue::new();
        q.insert(buf(1), [1.0, 1.0], None);
        q.insert(buf(2), [9.0, 9.0], None);
        assert_eq!(
            pop_for(&mut q, false, DeviceKind::Gpu).unwrap().0.id.0,
            1,
            "FIFO ignores weights"
        );
        assert_eq!(
            pop_for(&mut q, true, DeviceKind::Gpu).unwrap().0.id.0,
            2,
            "sorted takes the best"
        );
    }

    #[test]
    fn dispatch_order_is_gpu_first_and_stable() {
        use DeviceKind::{Cpu, Gpu};
        assert_eq!(dispatch_order(&[Cpu, Gpu, Cpu, Gpu]), vec![1, 3, 0, 2]);
        assert_eq!(dispatch_order(&[Cpu, Cpu]), vec![0, 1]);
        assert_eq!(dispatch_order(&[]), Vec::<usize>::new());
    }

    /// Every tuned layout must pop in exactly the order a bare
    /// [`SharedQueue`] driven through [`pop_for`] would — layouts are a
    /// cost choice, never a semantics choice.
    #[test]
    fn tuned_lanes_match_full_lane_pop_order() {
        let weights = |id: u64| [id as f64 % 3.0, (10 - id) as f64 % 4.0];
        for (policy, kinds) in [
            (PolicyKind::DdFcfs, vec![DeviceKind::Cpu; 4]),
            (PolicyKind::DdWrr, vec![DeviceKind::Cpu; 4]),
            (PolicyKind::DdWrr, vec![DeviceKind::Gpu; 2]),
            (PolicyKind::DdWrr, vec![DeviceKind::Cpu, DeviceKind::Gpu]),
            (PolicyKind::Odds, vec![DeviceKind::Gpu; 3]),
        ] {
            let mut full = SharedQueue::new();
            let mut tuned = ReadyLane::tuned(policy, &kinds);
            for id in 0..9 {
                full.insert(buf(id), weights(id), Some(id));
                tuned.push(buf(id), weights(id), Some(id));
            }
            assert_eq!(full.len(), tuned.len());
            let kind = kinds[0];
            for step in 0..9 {
                let a = pop_for(&mut full, policy.receiver_sorted(), kind)
                    .expect("reference queue has buffers");
                let b = tuned.pop(kind).expect("tuned lane has buffers");
                assert_eq!(
                    (a.0.id, a.1),
                    (b.0.id, b.1),
                    "pop {step} diverged under {policy:?}"
                );
            }
            assert!(full.is_empty() && tuned.is_empty());
        }
    }

    #[test]
    fn fifo_lane_skips_weight_bookkeeping() {
        let fifo = ReadyLane::tuned(PolicyKind::DdFcfs, &[DeviceKind::Cpu]);
        let sorted = ReadyLane::tuned(PolicyKind::DdWrr, &[DeviceKind::Cpu]);
        assert!(!fifo.needs_weights());
        assert!(sorted.needs_weights());
    }

    #[test]
    fn ready_lane_applies_the_policy() {
        let mixed = [DeviceKind::Cpu, DeviceKind::Gpu];
        let mut fifo = ReadyLane::tuned(PolicyKind::DdFcfs, &mixed);
        let mut sorted = ReadyLane::tuned(PolicyKind::DdWrr, &mixed);
        for lane in [&mut fifo, &mut sorted] {
            lane.push(buf(1), [1.0, 1.0], None);
            lane.push(buf(2), [5.0, 5.0], None);
        }
        assert_eq!(fifo.pop(DeviceKind::Cpu).unwrap().0.id.0, 1);
        assert_eq!(sorted.pop(DeviceKind::Cpu).unwrap().0.id.0, 2);
        assert_eq!(fifo.len(), 1);
        assert!(!sorted.is_empty());
    }
}
