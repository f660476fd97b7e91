//! Epoch-stamped scratch arrays.
//!
//! Every KPJ query runs many constrained graph searches (candidate-path
//! computations, `TestLB` probes, subspace A\*). Each search needs per-node
//! state (distance, visited flag, predecessor) but touches only a tiny
//! fraction of the nodes. Clearing an `O(n)` array per search — or hashing —
//! would dominate the runtime, so these structures attach an *epoch* to
//! every slot: bumping the epoch (an `O(1)` [`clear`](TimestampedSet::clear)
//! or [`reset`](SearchLabels::reset)) invalidates all stale entries at once.
//!
//! Epochs are `u32`; when an epoch would wrap, the backing stamps are
//! cleared once, so correctness never depends on epochs not wrapping.

use crate::{Length, NodeId, INFINITE_LENGTH};

/// A set of `NodeId`-like `usize` keys with `O(1)` clear.
#[derive(Debug, Clone)]
pub struct TimestampedSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl TimestampedSet {
    /// A set over the key universe `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        TimestampedSet {
            stamp: vec![0; capacity],
            epoch: 1,
        }
    }

    /// Key universe size.
    pub fn capacity(&self) -> usize {
        self.stamp.len()
    }

    /// Empty the set in `O(1)`.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Insert `k`; returns true if it was not already present.
    #[inline]
    pub fn insert(&mut self, k: usize) -> bool {
        let fresh = self.stamp[k] != self.epoch;
        self.stamp[k] = self.epoch;
        fresh
    }

    /// Remove `k` (sets its stamp stale); returns true if it was present.
    #[inline]
    pub fn remove(&mut self, k: usize) -> bool {
        let present = self.stamp[k] == self.epoch;
        if present {
            self.stamp[k] = self.epoch.wrapping_sub(1);
        }
        present
    }

    /// True if `k` is in the set.
    #[inline]
    pub fn contains(&self, k: usize) -> bool {
        self.stamp[k] == self.epoch
    }
}

/// Parent sentinel of a [`SearchLabels`] record: the node is a search
/// root or unlabeled.
pub const NO_PARENT: NodeId = NodeId::MAX;

/// One node's search label: 16 bytes, four to a 64-byte cache line.
#[derive(Debug, Clone, Copy)]
struct Label {
    dist: Length,
    parent: NodeId,
    /// `< labeled`: unlabeled; `== labeled`: labeled; `== labeled + 1`:
    /// settled (see [`SearchLabels`]).
    stamp: u32,
}

/// Per-node labels of a best-first search — tentative distance, parent
/// pointer and settled flag — in one record per node, with `O(1)` reset.
///
/// A settle or relax reads and writes one 16-byte record instead of a
/// distance array, a parent array and a settled set, each with its own
/// stamps. The stamp encodes all three states against the current
/// search's even base `labeled`: a stamp below it is unlabeled (distance
/// [`INFINITE_LENGTH`], parent [`NO_PARENT`]), `labeled` is labeled and
/// `labeled + 1` settled. [`reset`](SearchLabels::reset) advances the base
/// by two; when it would wrap, the stamps are cleared once.
#[derive(Debug, Clone)]
pub struct SearchLabels {
    labels: Vec<Label>,
    labeled: u32,
}

impl SearchLabels {
    /// Labels for nodes `0..capacity`, all unlabeled.
    pub fn new(capacity: usize) -> Self {
        SearchLabels {
            labels: vec![
                Label {
                    dist: INFINITE_LENGTH,
                    parent: NO_PARENT,
                    stamp: 0,
                };
                capacity
            ],
            labeled: 2,
        }
    }

    /// Node universe size.
    pub fn capacity(&self) -> usize {
        self.labels.len()
    }

    /// Unlabel every node in `O(1)`.
    pub fn reset(&mut self) {
        self.labeled = match self.labeled.checked_add(2) {
            Some(next) => next,
            None => {
                self.labels.iter_mut().for_each(|l| l.stamp = 0);
                2
            }
        };
    }

    /// Distance label of `v` ([`INFINITE_LENGTH`] if unlabeled); final once
    /// `v` is settled.
    #[inline]
    pub fn dist(&self, v: usize) -> Length {
        if self.is_labeled(v) {
            self.labels[v].dist
        } else {
            INFINITE_LENGTH
        }
    }

    /// Parent pointer of `v` ([`NO_PARENT`] for roots and unlabeled nodes).
    #[inline]
    pub fn parent(&self, v: usize) -> NodeId {
        if self.is_labeled(v) {
            self.labels[v].parent
        } else {
            NO_PARENT
        }
    }

    /// True if `v` carries a label (settled or not) in this search.
    #[inline]
    pub fn is_labeled(&self, v: usize) -> bool {
        self.labels[v].stamp >= self.labeled
    }

    /// True if `v` was settled in this search.
    #[inline]
    pub fn is_settled(&self, v: usize) -> bool {
        self.labels[v].stamp == self.labeled + 1
    }

    /// Label a search root `v` with distance `d`. Its parent stays
    /// [`NO_PARENT`], or what an earlier write this search gave it.
    #[inline]
    pub fn set_root(&mut self, v: usize, d: Length) {
        let labeled = self.labeled;
        let l = &mut self.labels[v];
        if l.stamp < labeled {
            l.parent = NO_PARENT;
            l.stamp = labeled;
        }
        l.dist = d;
    }

    /// Label `v` with distance `d` reached from `parent`. `v` must not be
    /// settled.
    #[inline]
    pub fn set(&mut self, v: usize, d: Length, parent: NodeId) {
        debug_assert!(!self.is_settled(v), "relabeling settled node {v}");
        self.labels[v] = Label {
            dist: d,
            parent,
            stamp: self.labeled,
        };
    }

    /// Mark the labeled node `v` settled and return its (final) distance.
    #[inline]
    pub fn settle(&mut self, v: usize) -> Length {
        let labeled = self.labeled;
        let l = &mut self.labels[v];
        debug_assert_eq!(l.stamp, labeled, "settling node {v} that is not labeled");
        l.stamp = labeled + 1;
        l.dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_insert_contains_clear() {
        let mut s = TimestampedSet::new(10);
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert!(!s.contains(4));
        s.clear();
        assert!(!s.contains(3));
        assert!(s.insert(3));
    }

    #[test]
    fn set_remove() {
        let mut s = TimestampedSet::new(4);
        s.insert(1);
        assert!(s.remove(1));
        assert!(!s.contains(1));
        assert!(!s.remove(1));
        assert!(s.insert(1));
    }

    #[test]
    fn labels_default_to_unlabeled() {
        let l = SearchLabels::new(3);
        for v in 0..3 {
            assert_eq!(l.dist(v), INFINITE_LENGTH);
            assert_eq!(l.parent(v), NO_PARENT);
            assert!(!l.is_labeled(v));
            assert!(!l.is_settled(v));
        }
    }

    #[test]
    fn labels_label_settle_reset() {
        let mut l = SearchLabels::new(4);
        l.set_root(0, 5);
        assert_eq!((l.dist(0), l.parent(0)), (5, NO_PARENT));
        l.set(2, 9, 0);
        l.set(2, 7, 1);
        assert_eq!((l.dist(2), l.parent(2)), (7, 1));
        assert!(l.is_labeled(2) && !l.is_settled(2));
        // A later root write keeps the parent an earlier write gave.
        l.set_root(2, 6);
        assert_eq!((l.dist(2), l.parent(2)), (6, 1));
        assert_eq!(l.settle(2), 6);
        assert!(l.is_labeled(2) && l.is_settled(2));
        assert_eq!(l.dist(2), 6);
        assert!(!l.is_settled(0));
        l.reset();
        for v in 0..4 {
            assert_eq!(l.dist(v), INFINITE_LENGTH);
            assert_eq!(l.parent(v), NO_PARENT);
            assert!(!l.is_labeled(v) && !l.is_settled(v));
        }
        // A stale parent does not leak into a new root label.
        l.set_root(2, 1);
        assert_eq!(l.parent(2), NO_PARENT);
    }

    #[test]
    fn epoch_wraparound_is_safe() {
        let mut s = TimestampedSet::new(2);
        s.insert(0);
        // Force the epoch to the brink and clear across the wrap.
        s.epoch = u32::MAX;
        s.insert(1);
        s.clear();
        assert!(!s.contains(0));
        assert!(!s.contains(1));
        s.insert(0);
        assert!(s.contains(0));

        let mut l = SearchLabels::new(3);
        l.set(0, 5, 1);
        l.settle(0);
        // The last base whose settled stamp still fits in a u32.
        l.labeled = u32::MAX - 1;
        l.set(1, 6, 0);
        l.set_root(2, 7);
        l.settle(2);
        assert!(l.is_settled(2));
        assert!(!l.is_labeled(0), "an old stamp reads unlabeled");
        l.reset();
        for v in 0..3 {
            assert_eq!(l.dist(v), INFINITE_LENGTH);
            assert_eq!(l.parent(v), NO_PARENT);
            assert!(!l.is_labeled(v) && !l.is_settled(v));
        }
        l.set(1, 3, 2);
        assert_eq!((l.dist(1), l.parent(1)), (3, 2));
    }
}
