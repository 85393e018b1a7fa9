//! The single point where a policy's ordering decisions are applied.
//!
//! Table 5 of the paper distinguishes the three policies by *where* queues
//! are consumed sorted-by-speedup versus FIFO. Every such decision in the
//! codebase funnels through [`pop_for`]: the engine's receiver-side ready
//! queues, the reader/DBSA sender side ([`crate::dbsa::SendQueue`]), and
//! the threaded runtime's stage queues (via [`ReadyLane`]). Backends never
//! re-implement the ordering rule.

use std::collections::{BinaryHeap, VecDeque};

use anthill_hetsim::DeviceKind;

use crate::buffer::DataBuffer;
use crate::policy::PolicyKind;
use crate::queue::{OrdWeight, SharedQueue};
use crate::weights::WeightProvider;

/// Pop the next buffer from `queue` for a device of `kind`: the
/// highest-weighted buffer for that device when `sorted`, the oldest
/// buffer otherwise. Returns the buffer and its requesting-worker tag.
pub fn pop_for(
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

/// A policy-ordered ready queue: the receiver-side ordering rule of a
/// [`PolicyKind`] over one of three storage layouts. Backends that own
/// their queueing machinery (the threaded runtime's per-stage queues) use
/// this instead of re-deciding the pop order locally.
///
/// [`ReadyLane::tuned`] picks the cheapest layout that yields the *same
/// pop order* as a full [`SharedQueue`] (FIFO index plus one sorted view
/// per device kind) for the consumers the lane will actually serve: a
/// plain `VecDeque` when the policy pops FIFO (DDFCFS never reads the
/// sorted views it would otherwise pay ~4 map updates per push/pop to
/// maintain), or a single max-heap when every consumer is the same device
/// kind (the other kind's view could never be popped). The full
/// [`SharedQueue`] stays where the per-device sorted views are genuinely
/// needed: DDWRR/ODDS stages served by both CPU and GPU workers here, and
/// the engine's own node pools, which use it directly.
#[derive(Debug)]
enum LaneStore {
    /// Full shared pool with every view: sorted policy, mixed-kind stage.
    Shared(SharedQueue),
    /// FIFO-only lane: arrival order is the pop order.
    Fifo(VecDeque<(DataBuffer, Option<u64>)>),
    /// One max-heap for a homogeneous stage; the heap key mirrors
    /// [`SharedQueue`]'s sorted-view key `(weight, u64::MAX - seq)` and
    /// keys are unique (seq is), so the pop-max order — including
    /// oldest-wins tie-breaks — is identical.
    SingleKind {
        kind_index: usize,
        heap: BinaryHeap<SingleKindItem>,
        next_seq: u64,
    },
}

/// Heap entry of a single-kind lane: ordered by `(weight, u64::MAX - seq)`
/// only — the buffer payload never participates in comparisons.
#[derive(Debug)]
struct SingleKindItem {
    weight: OrdWeight,
    rev_seq: u64,
    buffer: DataBuffer,
    tag: Option<u64>,
}

impl PartialEq for SingleKindItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for SingleKindItem {}
impl PartialOrd for SingleKindItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SingleKindItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.weight, self.rev_seq).cmp(&(other.weight, other.rev_seq))
    }
}

/// See [`LaneStore`] for the layout choices.
#[derive(Debug)]
pub struct ReadyLane {
    store: LaneStore,
    sorted: bool,
}

impl ReadyLane {
    /// An empty lane consumed per `policy` (DDFCFS pops FIFO, DDWRR/ODDS
    /// pop best-per-device) by workers of the given device kinds, backed
    /// by the cheapest layout that preserves the policy's pop order for
    /// those consumers.
    pub fn tuned(policy: PolicyKind, kinds: &[DeviceKind]) -> ReadyLane {
        let sorted = policy.receiver_sorted();
        let store = if !sorted {
            LaneStore::Fifo(VecDeque::new())
        } else if let Some((&first, rest)) = kinds.split_first() {
            if rest.iter().all(|&k| k == first) {
                LaneStore::SingleKind {
                    kind_index: SharedQueue::kind_index(first),
                    heap: BinaryHeap::new(),
                    next_seq: 0,
                }
            } else {
                LaneStore::Shared(SharedQueue::new())
            }
        } else {
            LaneStore::Shared(SharedQueue::new())
        };
        ReadyLane { store, sorted }
    }

    /// True if `push` consults the weight vector: FIFO-only lanes ignore
    /// it, so callers can skip computing weights entirely.
    pub fn needs_weights(&self) -> bool {
        !matches!(self.store, LaneStore::Fifo(_))
    }

    /// Queue a buffer with precomputed per-device weights.
    pub fn push(&mut self, buffer: DataBuffer, weights: [f64; 2], tag: Option<u64>) {
        match &mut self.store {
            LaneStore::Shared(q) => q.insert(buffer, weights, tag),
            LaneStore::Fifo(q) => q.push_back((buffer, tag)),
            LaneStore::SingleKind {
                kind_index,
                heap,
                next_seq,
            } => {
                let seq = *next_seq;
                *next_seq += 1;
                heap.push(SingleKindItem {
                    weight: OrdWeight(weights[*kind_index]),
                    rev_seq: u64::MAX - seq,
                    buffer,
                    tag,
                });
            }
        }
    }

    /// Pop the next buffer for a device of `kind` per the lane's policy.
    pub fn pop(&mut self, kind: DeviceKind) -> Option<(DataBuffer, Option<u64>)> {
        match &mut self.store {
            LaneStore::Shared(q) => pop_for(q, self.sorted, kind),
            LaneStore::Fifo(q) => q.pop_front(),
            LaneStore::SingleKind {
                kind_index, heap, ..
            } => {
                debug_assert_eq!(
                    *kind_index,
                    SharedQueue::kind_index(kind),
                    "single-kind lane popped by a different device kind"
                );
                heap.pop().map(|it| (it.buffer, it.tag))
            }
        }
    }

    /// Number of queued buffers.
    pub fn len(&self) -> usize {
        match &self.store {
            LaneStore::Shared(q) => q.len(),
            LaneStore::Fifo(q) => q.len(),
            LaneStore::SingleKind { heap, .. } => heap.len(),
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
