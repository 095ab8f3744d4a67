//! Addressable d-ary min-heap with `decrease-key`, the priority queue
//! behind every Dijkstra variant in the workspace.
//!
//! The heap is *reusable*: [`IndexedHeap::clear`] is O(heap size) and
//! allocation-free. A node's position is stored plus one, so 0 means
//! "not queued": the node→position table starts as `vec![0; n]` (a
//! lazily mapped zero page that a search touches only where it goes),
//! and clearing resets just the entries still queued. Query structures
//! keep one heap alive across millions of queries without reallocating,
//! which is what makes the paper's microsecond-scale latency
//! measurements meaningful.
//!
//! The sift code lives once, in [`SlotHeap`], over wherever the
//! positions live ([`Slots`]): an [`IndexedHeap`] keeps them in its own
//! table, and a search that already keeps a record per vertex (the CH
//! query's) keeps them there, beside the distance they order. Sifting
//! moves a hole rather than swapping, so each level writes one entry
//! and one position. Ties keep the order of a swap-based sift (the
//! first of several equal smallest children moves up, and an equal key
//! never passes its parent), on which contraction orders depend.
//!
//! The arity is a const generic. Query kernels default to `D = 4`: a
//! 4-ary heap trades slightly more comparisons per `sift_down` for half
//! the tree depth, and its four children share one cache line of
//! `(Dist, NodeId)` entries — on the shallow, hot heaps of CH upward
//! searches that wins measurably over the binary layout. `D = 2`
//! recovers the classic binary heap where the comparison count matters
//! more than depth.

use crate::types::{Dist, NodeId};

/// Where a [`SlotHeap`] keeps each node's position: `slot(v)` is the
/// position of `v` plus one, or 0 if `v` is not queued. A table of
/// zeros is an empty heap's.
pub trait Slots {
    /// The slot of `v`: its position plus one, 0 if not queued.
    fn slot(&self, v: NodeId) -> u32;
    /// Records the slot of `v`.
    fn set_slot(&mut self, v: NodeId, slot: u32);
}

impl Slots for [u32] {
    #[inline]
    fn slot(&self, v: NodeId) -> u32 {
        self[v as usize]
    }

    #[inline]
    fn set_slot(&mut self, v: NodeId, slot: u32) {
        self[v as usize] = slot;
    }
}

/// A d-ary min-heap of `(Dist, NodeId)` whose node positions live in a
/// caller's [`Slots`]. Every call that moves entries takes the slots;
/// passing the same slots to every call is the caller's contract.
#[derive(Debug, Clone, Default)]
pub struct SlotHeap<const D: usize = 4> {
    /// Implicit d-ary heap of (key, node).
    heap: Vec<(Dist, NodeId)>,
}

impl<const D: usize> SlotHeap<D> {
    /// An empty heap with room for `capacity` entries before it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(D >= 2, "heap arity must be at least 2");
        SlotHeap {
            heap: Vec::with_capacity(capacity),
        }
    }

    /// Number of queued entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Smallest key currently queued.
    #[inline]
    pub fn peek_key(&self) -> Option<Dist> {
        self.heap.first().map(|&(k, _)| k)
    }

    /// The nodes currently queued, in heap order.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.heap.iter().map(|&(_, v)| v)
    }

    /// Removes all entries without resetting their slots: the caller
    /// zeroes the slots of the nodes still queued ([`SlotHeap::nodes`]),
    /// before or together with whatever else it resets.
    #[inline]
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Current key of `v`, if queued.
    #[inline]
    pub fn key<S: Slots + ?Sized>(&self, slots: &S, v: NodeId) -> Option<Dist> {
        match slots.slot(v) {
            0 => None,
            slot => Some(self.heap[slot as usize - 1].0),
        }
    }

    /// Inserts `v` with `key`, or lowers its key if already queued with a
    /// larger one. Returns `true` if the heap changed.
    #[inline]
    pub fn push_or_decrease<S: Slots + ?Sized>(
        &mut self,
        slots: &mut S,
        v: NodeId,
        key: Dist,
    ) -> bool {
        match slots.slot(v) {
            0 => {
                self.heap.push((key, v));
                self.sift_up(slots, self.heap.len() - 1, (key, v));
                true
            }
            slot if key < self.heap[slot as usize - 1].0 => {
                self.sift_up(slots, slot as usize - 1, (key, v));
                true
            }
            _ => false,
        }
    }

    /// Inserts `v` with `key`, or changes its key in either direction if
    /// already queued ("lazy-decrease" replacement for duplicate-entry
    /// binary heaps: the queue holds each node at most once, and a
    /// recomputed priority — higher or lower — overwrites in place).
    pub fn push_or_update<S: Slots + ?Sized>(&mut self, slots: &mut S, v: NodeId, key: Dist) {
        match slots.slot(v) {
            0 => {
                self.heap.push((key, v));
                self.sift_up(slots, self.heap.len() - 1, (key, v));
            }
            slot => {
                let i = slot as usize - 1;
                let old = self.heap[i].0;
                if key < old {
                    self.sift_up(slots, i, (key, v));
                } else if key > old {
                    self.sift_down(slots, i, (key, v));
                }
            }
        }
    }

    /// Removes and returns the minimum entry.
    #[inline]
    pub fn pop_min<S: Slots + ?Sized>(&mut self, slots: &mut S) -> Option<(Dist, NodeId)> {
        let top = *self.heap.first()?;
        slots.set_slot(top.1, 0);
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.sift_down(slots, 0, last);
        }
        Some(top)
    }

    /// Moves `entry` from the hole at `i` toward the root while it is
    /// strictly smaller than the parent, then stores it.
    #[inline]
    fn sift_up<S: Slots + ?Sized>(&mut self, slots: &mut S, mut i: usize, entry: (Dist, NodeId)) {
        while i > 0 {
            let parent = (i - 1) / D;
            let above = self.heap[parent];
            if entry.0 >= above.0 {
                break;
            }
            self.heap[i] = above;
            slots.set_slot(above.1, i as u32 + 1);
            i = parent;
        }
        self.heap[i] = entry;
        slots.set_slot(entry.1, i as u32 + 1);
    }

    /// Moves `entry` from the hole at `i` toward the leaves while its
    /// smallest child (the first of equals) is strictly smaller, then
    /// stores it.
    #[inline]
    fn sift_down<S: Slots + ?Sized>(&mut self, slots: &mut S, mut i: usize, entry: (Dist, NodeId)) {
        let len = self.heap.len();
        loop {
            let first = D * i + 1;
            if first >= len {
                break;
            }
            // One sequential scan over the (at most D, contiguous)
            // children for the first smallest; a full group is scanned
            // with selects rather than branches, which the compiler can
            // turn into conditional moves.
            let mut smallest = first;
            let mut key = self.heap[first].0;
            if first + D <= len {
                for c in first + 1..first + D {
                    let k = self.heap[c].0;
                    let less = k < key;
                    smallest = if less { c } else { smallest };
                    key = if less { k } else { key };
                }
            } else {
                for c in first + 1..len {
                    if self.heap[c].0 < key {
                        smallest = c;
                        key = self.heap[c].0;
                    }
                }
            }
            let below = self.heap[smallest];
            if below.0 >= entry.0 {
                break;
            }
            self.heap[i] = below;
            slots.set_slot(below.1, i as u32 + 1);
            i = smallest;
        }
        self.heap[i] = entry;
        slots.set_slot(entry.1, i as u32 + 1);
    }
}

/// Min-heap over `(Dist, NodeId)` supporting `decrease-key` (and full
/// `update-key`) by node id: a [`SlotHeap`] with its own position
/// table. `D` is the tree arity; the default of 4 is the cache-friendly
/// choice for query kernels.
#[derive(Debug, Clone)]
pub struct IndexedHeap<const D: usize = 4> {
    core: SlotHeap<D>,
    /// Slot (position plus one, 0: not queued) of every node.
    pos: Vec<u32>,
}

impl<const D: usize> IndexedHeap<D> {
    /// Creates a heap for node ids `0..n`.
    pub fn new(n: usize) -> Self {
        IndexedHeap {
            core: SlotHeap::with_capacity(1024.min(n.max(1))),
            pos: vec![0; n],
        }
    }

    /// Number of queued entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// Whether the heap is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.core.is_empty()
    }

    /// Removes all entries; O(current size) and allocation-free.
    pub fn clear(&mut self) {
        for v in self.core.nodes() {
            self.pos[v as usize] = 0;
        }
        self.core.clear();
    }

    /// Current key of `v`, if queued.
    pub fn key(&self, v: NodeId) -> Option<Dist> {
        self.core.key(&self.pos[..], v)
    }

    /// Whether `v` is currently queued.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.pos[v as usize] != 0
    }

    /// Inserts `v` with `key`, or lowers its key if already queued with a
    /// larger one. Returns `true` if the heap changed.
    #[inline]
    pub fn push_or_decrease(&mut self, v: NodeId, key: Dist) -> bool {
        self.core.push_or_decrease(&mut self.pos[..], v, key)
    }

    /// Inserts `v` with `key`, or changes its key in either direction if
    /// already queued (see [`SlotHeap::push_or_update`]).
    pub fn push_or_update(&mut self, v: NodeId, key: Dist) {
        self.core.push_or_update(&mut self.pos[..], v, key);
    }

    /// Smallest key currently queued.
    #[inline]
    pub fn peek_key(&self) -> Option<Dist> {
        self.core.peek_key()
    }

    /// Removes and returns the minimum entry.
    #[inline]
    pub fn pop_min(&mut self) -> Option<(Dist, NodeId)> {
        self.core.pop_min(&mut self.pos[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_order() {
        let mut h: IndexedHeap = IndexedHeap::new(10);
        for (v, k) in [(3u32, 30u64), (1, 10), (4, 40), (2, 20), (0, 0)] {
            assert!(h.push_or_decrease(v, k));
        }
        let mut out = Vec::new();
        while let Some((k, v)) = h.pop_min() {
            out.push((k, v));
        }
        assert_eq!(out, vec![(0, 0), (10, 1), (20, 2), (30, 3), (40, 4)]);
    }

    #[test]
    fn decrease_key_reorders() {
        let mut h: IndexedHeap = IndexedHeap::new(4);
        h.push_or_decrease(0, 100);
        h.push_or_decrease(1, 50);
        assert!(h.push_or_decrease(0, 10));
        assert!(!h.push_or_decrease(0, 60)); // increase is ignored
        assert_eq!(h.key(0), Some(10));
        assert_eq!(h.pop_min(), Some((10, 0)));
        assert_eq!(h.pop_min(), Some((50, 1)));
        assert_eq!(h.pop_min(), None);
    }

    #[test]
    fn update_key_moves_both_directions() {
        let mut h: IndexedHeap = IndexedHeap::new(8);
        for v in 0..8u32 {
            h.push_or_update(v, 100 + v as u64);
        }
        h.push_or_update(7, 1); // decrease to the top
        assert_eq!(h.peek_key(), Some(1));
        h.push_or_update(7, 500); // increase to the bottom
        assert_eq!(h.pop_min(), Some((100, 0)));
        let mut last = 0;
        let mut seen = 1;
        while let Some((k, _)) = h.pop_min() {
            assert!(k >= last);
            last = k;
            seen += 1;
        }
        assert_eq!(seen, 8);
        assert_eq!(last, 500);
    }

    #[test]
    fn clear_and_reuse() {
        let mut h: IndexedHeap = IndexedHeap::new(4);
        h.push_or_decrease(2, 5);
        h.clear();
        assert!(h.is_empty());
        assert!(!h.contains(2));
        h.push_or_decrease(2, 7);
        assert_eq!(h.pop_min(), Some((7, 2)));
    }

    #[test]
    fn popped_node_can_be_reinserted() {
        let mut h: IndexedHeap = IndexedHeap::new(2);
        h.push_or_decrease(0, 1);
        assert_eq!(h.pop_min(), Some((1, 0)));
        assert!(!h.contains(0));
        h.push_or_decrease(0, 9);
        assert_eq!(h.key(0), Some(9));
    }

    #[test]
    fn equal_keys_all_surface() {
        let mut h: IndexedHeap = IndexedHeap::new(8);
        for v in 0..8 {
            h.push_or_decrease(v, 42);
        }
        let mut seen = [false; 8];
        while let Some((k, v)) = h.pop_min() {
            assert_eq!(k, 42);
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    /// The swap-based sift the hole-based one replaced, kept as the
    /// reference for tie order: contraction orders (and so every
    /// hierarchy byte) depend on which of several equal keys pops first.
    struct SwapHeap<const D: usize> {
        heap: Vec<(Dist, NodeId)>,
        pos: Vec<Option<usize>>,
    }

    impl<const D: usize> SwapHeap<D> {
        fn swap(&mut self, a: usize, b: usize) {
            self.heap.swap(a, b);
            self.pos[self.heap[a].1 as usize] = Some(a);
            self.pos[self.heap[b].1 as usize] = Some(b);
        }

        fn sift_up(&mut self, mut i: usize) {
            while i > 0 && self.heap[i].0 < self.heap[(i - 1) / D].0 {
                self.swap(i, (i - 1) / D);
                i = (i - 1) / D;
            }
        }

        fn sift_down(&mut self, mut i: usize) {
            loop {
                let first = D * i + 1;
                let mut smallest = i;
                for c in first..(first + D).min(self.heap.len()) {
                    if self.heap[c].0 < self.heap[smallest].0 {
                        smallest = c;
                    }
                }
                if smallest == i {
                    return;
                }
                self.swap(i, smallest);
                i = smallest;
            }
        }

        fn set(&mut self, v: NodeId, key: Dist, decrease_only: bool) {
            match self.pos[v as usize] {
                None => {
                    self.heap.push((key, v));
                    self.pos[v as usize] = Some(self.heap.len() - 1);
                    self.sift_up(self.heap.len() - 1);
                }
                Some(i) if key < self.heap[i].0 => {
                    self.heap[i].0 = key;
                    self.sift_up(i);
                }
                Some(i) if key > self.heap[i].0 && !decrease_only => {
                    self.heap[i].0 = key;
                    self.sift_down(i);
                }
                Some(_) => {}
            }
        }

        fn pop_min(&mut self) -> Option<(Dist, NodeId)> {
            let top = *self.heap.first()?;
            self.pos[top.1 as usize] = None;
            let last = self.heap.pop().expect("non-empty");
            if !self.heap.is_empty() {
                self.heap[0] = last;
                self.pos[last.1 as usize] = Some(0);
                self.sift_down(0);
            }
            Some(top)
        }
    }

    /// Random pushes, decreases, updates, pops and clears against two
    /// references: a `BTreeMap` for the keys, and [`SwapHeap`] for the
    /// exact `(key, node)` every pop returns — keys are drawn from a
    /// small range, so most pops choose among ties. Clears land with
    /// entries still queued, and popped nodes are pushed again.
    fn randomized_against_reference<const D: usize>() {
        // Deterministic LCG so the test needs no external crate.
        let mut state = 0x1234_5678_u64 ^ D as u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let n = 64;
        let mut h: IndexedHeap<D> = IndexedHeap::new(n);
        let mut swap = SwapHeap::<D> {
            heap: Vec::new(),
            pos: vec![None; n],
        };
        let mut reference: std::collections::BTreeMap<u32, u64> = Default::default();
        let (mut pops, mut reinserts, mut cleared) = (0, 0, 0);
        let mut popped = vec![false; n];
        for _ in 0..20_000 {
            let v = (rand() % n as u64) as u32;
            let k = rand() % 24;
            match rand() % 16 {
                0..=5 => {
                    let cur = reference.get(&v).copied();
                    assert_eq!(h.push_or_decrease(v, k), cur.is_none_or(|old| k < old));
                    swap.set(v, k, true);
                    reference.insert(v, cur.map_or(k, |old| old.min(k)));
                }
                6..=8 => {
                    h.push_or_update(v, k);
                    swap.set(v, k, false);
                    reference.insert(v, k);
                }
                15 if rand() % 8 == 0 => {
                    cleared += h.len();
                    h.clear();
                    while swap.pop_min().is_some() {}
                    reference.clear();
                }
                _ => {
                    let expected = reference.iter().map(|(&v, &k)| (k, v)).min();
                    let got = h.pop_min();
                    assert_eq!(got, swap.pop_min(), "tie order differs from the swap sift");
                    match (expected, got) {
                        (None, None) => {}
                        (Some((ek, _)), Some((gk, gv))) => {
                            assert_eq!(ek, gk);
                            assert_eq!(reference.remove(&gv), Some(gk));
                            assert!(!h.contains(gv));
                            pops += 1;
                            popped[gv as usize] = true;
                        }
                        other => panic!("mismatch: {other:?}"),
                    }
                }
            }
            if reference.contains_key(&v) && std::mem::take(&mut popped[v as usize]) {
                reinserts += 1;
            }
            assert_eq!(h.len(), reference.len());
            for (&v, &k) in &reference {
                assert_eq!(h.key(v), Some(k));
            }
        }
        assert!(pops > 1_000 && reinserts > 100 && cleared > 50);
        // Every slot is back to "not queued" after a final clear.
        h.clear();
        assert!((0..n as u32).all(|v| !h.contains(v) && h.key(v).is_none()));
    }

    #[test]
    fn randomized_matches_reference_at_every_arity() {
        randomized_against_reference::<2>();
        randomized_against_reference::<3>();
        randomized_against_reference::<4>();
        randomized_against_reference::<8>();
    }
}
