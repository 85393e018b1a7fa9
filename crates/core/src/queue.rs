//! The shared ready-buffer queue with per-device sorted views.
//!
//! Both ends of an ODDS stream, and the receiver side of DDWRR, keep a
//! single pool of queued data buffers plus one *view* per processor type,
//! sorted by the buffer's weight for that type (paper Sections 5.2–5.3).
//! Popping the best buffer for one device removes it from every view —
//! that removal is the heart of DBSA ("it removes the same buffer from all
//! other sorted queues").
//!
//! Layout: weights come from a memoised estimator, so queued buffers share
//! a few distinct weight pairs, and the queue orders *weight classes*, not
//! buffers (the per-resource ready lists of affinity schedulers). Entries
//! live in a slab and are threaded onto two intrusive lists, their FIFO
//! band and their class — the exact `[f64; 2]` bit pattern they were
//! inserted with — both in arrival order. Each kind's view is an indexed
//! binary max-heap of the non-empty classes keyed by (that kind's weight,
//! older head first); the best buffer for a kind is the head of the root
//! class, and taking it is two unlinks.
//!
//! Tie-break: classes that compare equal in a view (same weight for that
//! kind, NaN beside −∞, −0.0 beside 0.0) resolve to the older head, which
//! with FIFO order inside a class is exactly "maximum of (weight, oldest
//! first) over all queued buffers".
//!
//! Complexity, two regimes on one structure. A few recurring classes: an
//! insert is two appends and two hash probes, a pop two unlinks, a hash
//! removal and a sift over a handful of classes; a drained class stays
//! parked (at most `MAX_IDLE` do) so refilling it touches neither the
//! class map nor the slabs, and a warm queue never allocates. Every buffer
//! its own class: one heap push or removal per view, O(log n), never a
//! scan over classes. `pop_fifo` scans the band table, not the buffers.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Index, IndexMut};

use crate::buffer::{BufferId, DataBuffer};
use anthill_hetsim::DeviceKind;

/// Totally ordered weight: NaN is stored as −∞ (the lowest weight), so the
/// derived `PartialEq` (where −0.0 == 0.0) and `Ord` agree.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdWeight(f64);

impl OrdWeight {
    fn new(weight: f64) -> OrdWeight {
        OrdWeight(if weight.is_nan() {
            f64::NEG_INFINITY
        } else {
            weight
        })
    }
}

impl Eq for OrdWeight {}
impl PartialOrd for OrdWeight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdWeight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("no NaN is stored")
    }
}

/// One multiply per word, high half folded into the low half so that keys
/// differing only in their high bits (`f64` patterns of round numbers)
/// still spread over the buckets. For keys made inside the program only:
/// buffer ids, weight bit patterns and the estimator memo's shape keys
/// (already an FNV-1a fold of the parameters).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

pub(crate) type MulMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// Null link.
const NIL: u32 = u32::MAX;

/// Which of an entry's two lists a link belongs to.
const FIFO: usize = 0;
const CLASS: usize = 1;

/// Drained classes kept parked for reuse; the longest-parked one is retired
/// beyond this, so never-repeating weights leave at most this many behind.
const MAX_IDLE: usize = 8;

/// `Vec` plus a free list: indices stay valid until released, and a warm
/// slab hands released indices out again without allocating.
#[derive(Debug)]
struct Slab<T> {
    nodes: Vec<T>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Slab<T> {
        Slab {
            nodes: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    fn put(&mut self, node: T) -> u32 {
        if let Some(i) = self.free.pop() {
            self[i] = node;
            return i;
        }
        let i = u32::try_from(self.nodes.len()).ok().filter(|&i| i != NIL);
        let i = i.expect("slab indices fit u32 links");
        self.nodes.push(node);
        i
    }
}

impl<T> Index<u32> for Slab<T> {
    type Output = T;
    fn index(&self, i: u32) -> &T {
        &self.nodes[i as usize]
    }
}

impl<T> IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, i: u32) -> &mut T {
        &mut self.nodes[i as usize]
    }
}

/// Head and tail of an intrusive list of slots.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

#[derive(Debug)]
struct Slot {
    /// `None` once popped, until the slot is reused.
    buffer: Option<DataBuffer>,
    /// Requesting thread tag, if any (ODDS request accounting).
    tag: Option<u64>,
    /// Arrival sequence (FIFO order; also the deterministic tie-breaker).
    seq: u64,
    /// `(prev, next)` in the FIFO band and in the weight class.
    links: [(u32, u32); 2],
    class: u32,
    /// FIFO priority band (lower pops first; bands only affect FIFO order).
    band: u8,
}

impl Slab<Slot> {
    /// Append slot `i` to `list`, threading through link `which`.
    fn push_back(&mut self, list: &mut List, which: usize, i: u32) {
        self[i].links[which] = (list.tail, NIL);
        match list.tail {
            NIL => list.head = i,
            tail => self[tail].links[which].1 = i,
        }
        list.tail = i;
    }

    /// Detach slot `i` from `list`.
    fn unlink(&mut self, list: &mut List, which: usize, i: u32) {
        let (prev, next) = self[i].links[which];
        match prev {
            NIL => list.head = next,
            prev => self[prev].links[which].1 = next,
        }
        match next {
            NIL => list.tail = prev,
            next => self[next].links[which].0 = prev,
        }
    }
}

/// All queued entries inserted with one `[f64; 2]` bit pattern.
#[derive(Debug)]
struct Class {
    /// Weight per device kind, in `DeviceKind::ALL` order.
    weights: [f64; 2],
    /// Entries in arrival order; empty while the class is parked.
    items: List,
    /// `seq` of `items.head`, cached for heap comparisons.
    head_seq: u64,
    /// Position in each kind's heap while non-empty.
    pos: [u32; 2],
}

impl Class {
    /// Heap order in kind `k`'s view: weight, then the older head.
    fn key(&self, k: usize) -> (OrdWeight, u64) {
        (OrdWeight::new(self.weights[k]), u64::MAX - self.head_seq)
    }

    /// What [`SharedQueue::by_bits`] knows the class by.
    fn bits(weights: [f64; 2]) -> (u64, u64) {
        (weights[0].to_bits(), weights[1].to_bits())
    }
}

/// A pool of ready buffers with FIFO and per-device sorted views.
///
/// ```
/// use anthill::buffer::{BufferId, DataBuffer};
/// use anthill::queue::SharedQueue;
/// use anthill_estimator::TaskParams;
/// use anthill_hetsim::{DeviceKind, NbiaCostModel};
///
/// let model = NbiaCostModel::paper_calibrated();
/// let tile = |id: u64, side: u32| DataBuffer {
///     id: BufferId(id),
///     params: TaskParams::nums(&[f64::from(side)]),
///     shape: model.tile(side),
///     level: u8::from(side > 32),
///     task: id,
/// };
/// let mut q = SharedQueue::new();
/// q.insert(tile(1, 32), [1.0, 1.0], None);   // [cpu weight, gpu weight]
/// q.insert(tile(2, 512), [0.03, 33.0], None);
/// // The GPU takes the 512² tile; the CPU view no longer offers it.
/// assert_eq!(q.pop_best(DeviceKind::Gpu).unwrap().0.id.0, 2);
/// assert_eq!(q.pop_best(DeviceKind::Cpu).unwrap().0.id.0, 1);
/// ```
#[derive(Debug, Default)]
pub struct SharedQueue {
    slots: Slab<Slot>,
    /// Queued buffer → its slot.
    ids: MulMap<BufferId, u32>,
    /// FIFO lists, indexed by band.
    bands: Vec<List>,
    classes: Slab<Class>,
    /// Weight bit pattern → its live (non-empty or parked) class.
    by_bits: MulMap<(u64, u64), u32>,
    /// Per device kind: max-heap of the non-empty classes by [`Class::key`].
    views: [Vec<u32>; 2],
    /// Parked classes, longest-parked first; at most [`MAX_IDLE`].
    idle: Vec<u32>,
    next_seq: u64,
}

impl SharedQueue {
    /// An empty queue.
    pub fn new() -> SharedQueue {
        SharedQueue::default()
    }

    fn kind_index(kind: DeviceKind) -> usize {
        match kind {
            DeviceKind::Cpu => 0,
            DeviceKind::Gpu => 1,
        }
    }

    /// Number of queued buffers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if no buffers are queued.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Insert a buffer with its per-device weights. `tag` optionally
    /// records which worker thread's request fetched it.
    pub fn insert(&mut self, buffer: DataBuffer, weights: [f64; 2], tag: Option<u64>) {
        self.insert_banded(buffer, weights, tag, 0);
    }

    /// Insert with an explicit FIFO priority band: buffers in a lower band
    /// pop first in FIFO order regardless of arrival time. Used by readers
    /// to keep recirculated (recalculation) work ahead of not-yet-started
    /// tiles, modeling the demand-driven Start→Reader loop. Bands do not
    /// affect the weight-sorted views.
    pub fn insert_banded(
        &mut self,
        buffer: DataBuffer,
        weights: [f64; 2],
        tag: Option<u64>,
        band: u8,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = buffer.id;
        let class = self.class_for(weights);
        let slot = self.slots.put(Slot {
            buffer: Some(buffer),
            tag,
            seq,
            links: [(NIL, NIL); 2],
            class,
            band,
        });
        let prev = self.ids.insert(id, slot);
        assert!(prev.is_none(), "duplicate buffer id {id:?}");

        let band = usize::from(band);
        if band >= self.bands.len() {
            self.bands.resize(band + 1, EMPTY);
        }
        self.slots.push_back(&mut self.bands[band], FIFO, slot);
        let c = &mut self.classes[class];
        self.slots.push_back(&mut c.items, CLASS, slot);
        if c.items.head == slot {
            // First entry: the class enters both views.
            c.head_seq = seq;
            for k in 0..2 {
                self.views[k].push(class);
                self.sift_up(k, self.views[k].len() - 1);
            }
        }
    }

    /// The class of this exact weight bit pattern: the live one (unparked
    /// if it had drained) or a new, empty one.
    fn class_for(&mut self, weights: [f64; 2]) -> u32 {
        if let Some(&class) = self.by_bits.get(&Class::bits(weights)) {
            if self.classes[class].items.head == NIL {
                self.idle.retain(|&parked| parked != class);
            }
            return class;
        }
        let class = self.classes.put(Class {
            weights,
            items: EMPTY,
            head_seq: 0,
            pos: [NIL; 2],
        });
        self.by_bits.insert(Class::bits(weights), class);
        class
    }

    /// Write `class` at `pos` of view `k`, keeping its back-pointer.
    fn place(&mut self, k: usize, pos: usize, class: u32) {
        self.views[k][pos] = class;
        self.classes[class].pos[k] = pos as u32;
    }

    /// Move the class at `pos` of view `k` towards the root until its
    /// parent outranks it; returns where it settled.
    fn sift_up(&mut self, k: usize, mut pos: usize) -> usize {
        let class = self.views[k][pos];
        let key = self.classes[class].key(k);
        while pos > 0 {
            let parent = self.views[k][(pos - 1) / 2];
            if self.classes[parent].key(k) > key {
                break;
            }
            self.place(k, pos, parent);
            pos = (pos - 1) / 2;
        }
        self.place(k, pos, class);
        pos
    }

    /// Move the class at `pos` of view `k` towards the leaves until it
    /// outranks both children.
    fn sift_down(&mut self, k: usize, mut pos: usize) {
        let class = self.views[k][pos];
        let key = self.classes[class].key(k);
        loop {
            let view = &self.views[k];
            let Some(&left) = view.get(2 * pos + 1) else {
                break;
            };
            let (mut best, mut child, mut child_key) =
                (2 * pos + 1, left, self.classes[left].key(k));
            if let Some(&right) = view.get(2 * pos + 2) {
                let right_key = self.classes[right].key(k);
                if right_key > child_key {
                    (best, child, child_key) = (2 * pos + 2, right, right_key);
                }
            }
            if key > child_key {
                break;
            }
            self.place(k, pos, child);
            pos = best;
        }
        self.place(k, pos, class);
    }

    /// Take a drained class out of both views and park it, retiring the
    /// longest-parked class beyond [`MAX_IDLE`].
    fn park(&mut self, class: u32) {
        for k in 0..2 {
            let pos = self.classes[class].pos[k] as usize;
            let last = self.views[k]
                .pop()
                .expect("a drained class is in every view");
            if last != class {
                self.place(k, pos, last);
                let pos = self.sift_up(k, pos);
                self.sift_down(k, pos);
            }
        }
        self.idle.push(class);
        if self.idle.len() > MAX_IDLE {
            let retired = self.idle.remove(0);
            self.by_bits
                .remove(&Class::bits(self.classes[retired].weights));
            self.classes.free.push(retired);
        }
    }

    /// Remove the entry in `slot` from its band, its class and the id map.
    fn take(&mut self, slot: u32) -> (DataBuffer, Option<u64>) {
        let entry = &mut self.slots[slot];
        let buffer = entry.buffer.take().expect("a linked slot holds a buffer");
        let (tag, band, class) = (entry.tag, entry.band, entry.class);
        self.ids.remove(&buffer.id);
        self.slots
            .unlink(&mut self.bands[usize::from(band)], FIFO, slot);
        let c = &mut self.classes[class];
        let was_head = c.items.head == slot;
        self.slots.unlink(&mut c.items, CLASS, slot);
        if c.items.head == NIL {
            self.park(class);
        } else if was_head {
            // The class's head got younger: its key fell in both views.
            c.head_seq = self.slots[c.items.head].seq;
            for k in 0..2 {
                self.sift_down(k, self.classes[class].pos[k] as usize);
            }
        }
        self.slots.free.push(slot);
        (buffer, tag)
    }

    /// Pop the oldest buffer (DDFCFS order). Returns the buffer and its
    /// requesting-thread tag.
    pub fn pop_fifo(&mut self) -> Option<(DataBuffer, Option<u64>)> {
        let band = self.bands.iter().find(|band| band.head != NIL)?;
        Some(self.take(band.head))
    }

    /// Pop the highest-weighted buffer for `kind` (DDWRR/ODDS order),
    /// removing it from every view.
    pub fn pop_best(&mut self, kind: DeviceKind) -> Option<(DataBuffer, Option<u64>)> {
        let &best = self.views[Self::kind_index(kind)].first()?;
        Some(self.take(self.classes[best].items.head))
    }

    /// Remove a specific buffer (e.g. chosen externally).
    pub fn remove(&mut self, id: BufferId) -> Option<(DataBuffer, Option<u64>)> {
        let &slot = self.ids.get(&id)?;
        Some(self.take(slot))
    }

    /// Peek the weight of the best buffer for `kind`.
    pub fn best_weight(&self, kind: DeviceKind) -> Option<f64> {
        let k = Self::kind_index(kind);
        let &best = self.views[k].first()?;
        Some(self.classes[best].weights[k])
    }

    /// Iterate over queued buffers in FIFO order.
    pub fn iter_fifo(&self) -> impl Iterator<Item = &DataBuffer> + '_ {
        let linked = |slot: u32| (slot != NIL).then_some(slot);
        self.bands
            .iter()
            .flat_map(move |band| {
                std::iter::successors(linked(band.head), move |&slot| {
                    linked(self.slots[slot].links[FIFO].1)
                })
            })
            .map(|slot| {
                let buffer = self.slots[slot].buffer.as_ref();
                buffer.expect("a linked slot holds a buffer")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                bytes_in: 100,
                bytes_out: 10,
            },
            level: 0,
            task: id,
        }
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut q = SharedQueue::new();
        for id in 0..5 {
            q.insert(buf(id), [1.0, 1.0], None);
        }
        let ids: Vec<u64> = (0..5).map(|_| q.pop_fifo().unwrap().0.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(q.pop_fifo().is_none());
    }

    #[test]
    fn pop_best_returns_highest_weight_per_device() {
        let mut q = SharedQueue::new();
        q.insert(buf(1), [1.0, 33.0], None);
        q.insert(buf(2), [1.0, 1.0], None);
        q.insert(buf(3), [2.0, 0.5], None);
        assert_eq!(q.pop_best(DeviceKind::Gpu).unwrap().0.id.0, 1);
        assert_eq!(q.pop_best(DeviceKind::Cpu).unwrap().0.id.0, 3);
        assert_eq!(q.pop_best(DeviceKind::Gpu).unwrap().0.id.0, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn popping_for_one_device_removes_from_all_views() {
        let mut q = SharedQueue::new();
        q.insert(buf(1), [9.0, 9.0], None);
        q.insert(buf(2), [1.0, 1.0], None);
        let (b, _) = q.pop_best(DeviceKind::Gpu).unwrap();
        assert_eq!(b.id.0, 1);
        // The CPU view must not still offer buffer 1.
        assert_eq!(q.pop_best(DeviceKind::Cpu).unwrap().0.id.0, 2);
        assert!(q.pop_best(DeviceKind::Cpu).is_none());
    }

    #[test]
    fn weight_ties_break_fifo() {
        let mut q = SharedQueue::new();
        for id in 0..4 {
            q.insert(buf(id), [5.0, 5.0], None);
        }
        let ids: Vec<u64> = (0..4)
            .map(|_| q.pop_best(DeviceKind::Gpu).unwrap().0.id.0)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn lower_band_pops_first_in_fifo_only() {
        let mut q = SharedQueue::new();
        q.insert_banded(buf(1), [1.0, 1.0], None, 1);
        q.insert_banded(buf(2), [9.0, 9.0], None, 1);
        q.insert_banded(buf(3), [1.0, 1.0], None, 0); // arrives last, band 0
        assert_eq!(q.pop_fifo().unwrap().0.id.0, 3);
        assert_eq!(q.pop_fifo().unwrap().0.id.0, 1);
        // Sorted views ignore bands entirely.
        assert_eq!(q.pop_best(DeviceKind::Gpu).unwrap().0.id.0, 2);
    }

    #[test]
    fn tags_round_trip() {
        let mut q = SharedQueue::new();
        q.insert(buf(1), [1.0, 1.0], Some(42));
        let (_, tag) = q.pop_fifo().unwrap();
        assert_eq!(tag, Some(42));
    }

    #[test]
    fn nan_weight_sorts_last_not_panics() {
        let mut q = SharedQueue::new();
        q.insert(buf(1), [f64::NAN, f64::NAN], None);
        q.insert(buf(2), [1.0, 1.0], None);
        assert_eq!(q.pop_best(DeviceKind::Gpu).unwrap().0.id.0, 2);
        assert_eq!(q.pop_best(DeviceKind::Gpu).unwrap().0.id.0, 1);
    }

    #[test]
    fn remove_specific_buffer() {
        let mut q = SharedQueue::new();
        q.insert(buf(1), [1.0, 1.0], None);
        q.insert(buf(2), [2.0, 2.0], None);
        assert!(q.remove(BufferId(1)).is_some());
        assert!(q.remove(BufferId(1)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.iter_fifo().count(), 1);
    }

    #[test]
    fn ord_weight_eq_agrees_with_ord() {
        let samples = [
            f64::NAN,
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            1.0,
            f64::INFINITY,
        ];
        for a in samples.map(OrdWeight::new) {
            for b in samples.map(OrdWeight::new) {
                assert_eq!(a == b, a.cmp(&b).is_eq(), "{a:?} {b:?}");
            }
        }
        let nan = OrdWeight::new(f64::NAN);
        assert_eq!(nan, nan);
        assert_eq!(nan, OrdWeight::new(f64::NEG_INFINITY));
        assert!(nan < OrdWeight::new(f64::MIN));
        assert_eq!(OrdWeight::new(-0.0), OrdWeight::new(0.0));
    }

    #[test]
    fn drained_classes_are_reused_then_retired() {
        let mut q = SharedQueue::new();
        for round in 0..3 {
            q.insert(buf(round), [1.0, 2.0], None);
            q.pop_fifo().unwrap();
        }
        assert_eq!((q.classes.nodes.len(), q.idle.len()), (1, 1), "reused");
        for id in 0..100 {
            q.insert(buf(id), [id as f64, 0.0], None);
        }
        while q.pop_best(DeviceKind::Cpu).is_some() {}
        assert_eq!((q.idle.len(), q.by_bits.len()), (MAX_IDLE, MAX_IDLE));
        assert!(q.views.iter().all(Vec::is_empty));
    }

    /// Regime (b), every buffer its own weight class: 30 000 distinct
    /// weights per view drain in exactly the order of a sort, alternating
    /// kinds.
    #[test]
    fn all_distinct_weights_drain_in_sorted_order() {
        const N: u64 = 30_000;
        // Two different permutations of 0..N (both multipliers are coprime
        // to N).
        let weights = |id: u64| [(id * 7_919 % N) as f64, ((id * 104_729 + 17) % N) as f64];
        let mut q = SharedQueue::new();
        for id in 0..N {
            q.insert(buf(id), weights(id), None);
        }
        let order = [0, 1].map(|k| {
            let mut ids: Vec<u64> = (0..N).collect();
            ids.sort_by(|&a, &b| weights(b)[k].total_cmp(&weights(a)[k]));
            ids
        });
        let mut cursor = [0usize; 2];
        let mut gone = vec![false; N as usize];
        for turn in 0..N as usize {
            let k = turn % 2;
            while gone[order[k][cursor[k]] as usize] {
                cursor[k] += 1;
            }
            let want = order[k][cursor[k]];
            assert_eq!(q.best_weight(DeviceKind::ALL[k]), Some(weights(want)[k]));
            assert_eq!(q.pop_best(DeviceKind::ALL[k]).unwrap().0.id.0, want);
            gone[want as usize] = true;
        }
        assert!(q.is_empty() && q.by_bits.len() <= MAX_IDLE);
    }

    #[test]
    #[should_panic(expected = "duplicate buffer id")]
    fn duplicate_ids_rejected() {
        let mut q = SharedQueue::new();
        q.insert(buf(1), [1.0, 1.0], None);
        q.insert(buf(1), [1.0, 1.0], None);
    }
}
