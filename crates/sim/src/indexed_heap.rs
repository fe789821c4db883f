//! The position-indexed binary heap behind the workspace's priority
//! schedulers.
//!
//! The source runtimes' priority heap needs "at most one entry per
//! small-integer item, revised **in place**" (max by priority, FIFO on
//! ties). This module is that sift machinery, generic over the key type
//! so any scheduler keyed the same way can reuse it.
//!
//! The ordering is supplied by the key type through [`HeapKey::beats`]:
//! `a.beats(b)` means an entry keyed `a` belongs nearer the root than one
//! keyed `b`. Keys are expected to be *totally ordered and duplicate-free*
//! (callers stamp a unique sequence number into the key), which makes
//! every sift decision — and therefore every pop order — deterministic.
//! The golden-report and scheduler-equivalence tests at the workspace
//! root pin exactly that determinism across refactors.

/// Position sentinel: item not currently in the heap.
const ABSENT: u32 = u32::MAX;

/// Heap ordering for a key type: `beats` = belongs nearer the root.
///
/// Implementations must be a strict total order over the keys actually
/// inserted (irreflexive, transitive, and total once tie-broken); the
/// sift machinery assumes `!a.beats(b) && !b.beats(a)` only for `a == b`,
/// which callers rule out with unique sequence stamps.
pub trait HeapKey: Copy {
    /// Whether an entry with this key should sit above `other`.
    fn beats(&self, other: &Self) -> bool;
}

#[derive(Debug, Clone, Copy)]
struct Node<K> {
    key: K,
    item: u32,
}

/// A binary heap over items `0..n` with a position index: at most one
/// entry per item, O(log n) insert-or-revise **in place** (a sift instead
/// of a stale push), O(log n) removal by item, O(1) membership test.
///
/// Compared to a lazy-invalidation heap, `push` pays its sift immediately
/// rather than deferring cost to pop-time stale discards — but no stale
/// entry ever exists, memory is exactly one node per live item, and
/// compaction is structurally unnecessary. For the hot schedulers — where
/// every event revises a key and most keys move only a few levels — the
/// in-place revision is measurably faster end-to-end (see the README's
/// performance notes).
#[derive(Debug, Clone)]
pub struct IndexedHeap<K: HeapKey> {
    heap: Vec<Node<K>>,
    /// `pos[item]` = index in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
}

impl<K: HeapKey> IndexedHeap<K> {
    /// Creates an empty heap for items `0..n`.
    pub fn new(n: usize) -> Self {
        IndexedHeap {
            heap: Vec::with_capacity(n),
            pos: vec![ABSENT; n],
        }
    }

    /// Number of items the heap covers.
    pub fn items(&self) -> usize {
        self.pos.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are live.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `item` currently has an entry.
    #[inline]
    pub fn contains(&self, item: u32) -> bool {
        self.pos[item as usize] != ABSENT
    }

    /// Inserts `item` with `key`, or revises its key in place if present.
    /// The entry moves whichever way the new key sends it.
    pub fn push(&mut self, item: u32, key: K) {
        let node = Node { key, item };
        let i = self.pos[item as usize];
        if i == ABSENT {
            self.heap.push(node);
            self.sift_up(self.heap.len() - 1, node);
        } else {
            let i = i as usize;
            if node.key.beats(&self.heap[i].key) {
                self.sift_up(i, node);
            } else {
                self.sift_down(i, node);
            }
        }
    }

    /// Removes `item`'s entry, if any. Returns whether one was present.
    pub fn remove(&mut self, item: u32) -> bool {
        let i = self.pos[item as usize];
        if i == ABSENT {
            return false;
        }
        self.pos[item as usize] = ABSENT;
        self.remove_at(i as usize);
        true
    }

    /// The root `(key, item)` without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(K, u32)> {
        self.heap.first().map(|n| (n.key, n.item))
    }

    /// Removes and returns the root `(key, item)`.
    pub fn pop(&mut self) -> Option<(K, u32)> {
        let &Node { key, item } = self.heap.first()?;
        self.pos[item as usize] = ABSENT;
        self.remove_at(0);
        Some((key, item))
    }

    /// Re-keys the root entry in place with a single sift — equivalent to
    /// `pop()` followed by `push(item, key)` for the same item.
    ///
    /// # Panics
    ///
    /// Panics if the heap is empty.
    pub fn replace_top(&mut self, key: K) {
        let top = self.heap.first().expect("replace_top on empty heap");
        // The root has no parent, so wherever the new key belongs is at
        // or below position 0: one sift_down restores order.
        self.sift_down(
            0,
            Node {
                key,
                item: top.item,
            },
        );
    }

    /// Drops every entry (positions reset; capacity kept).
    pub fn clear(&mut self) {
        for n in &self.heap {
            self.pos[n.item as usize] = ABSENT;
        }
        self.heap.clear();
    }

    /// Removes the entry at heap index `i` (caller clears `pos` for its
    /// item first if needed).
    fn remove_at(&mut self, i: usize) {
        let last = self.heap.pop().expect("heap non-empty");
        if i < self.heap.len() {
            // Re-insert the displaced tail entry at the hole. It came from
            // the bottom, so it usually sinks; but when removing mid-heap
            // it may instead need to rise toward the root.
            if i > 0 && last.key.beats(&self.heap[(i - 1) / 2].key) {
                self.sift_up(i, last);
            } else {
                self.sift_down(i, last);
            }
        }
    }

    /// Places `node` at hole `i`, moving it up while it beats its parent.
    fn sift_up(&mut self, mut i: usize, node: Node<K>) {
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !node.key.beats(&p.key) {
                break;
            }
            self.heap[i] = p;
            self.pos[p.item as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = node;
        self.pos[node.item as usize] = i as u32;
    }

    /// Places `node` at hole `i`, moving it down while a child beats it.
    fn sift_down(&mut self, mut i: usize, node: Node<K>) {
        let n = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            let right = child + 1;
            if right < n && self.heap[right].key.beats(&self.heap[child].key) {
                child = right;
            }
            let c = self.heap[child];
            if !c.key.beats(&node.key) {
                break;
            }
            self.heap[i] = c;
            self.pos[c.item as usize] = i as u32;
            i = child;
        }
        self.heap[i] = node;
        self.pos[node.item as usize] = i as u32;
    }

    /// Checks the structural invariants: every position entry points at
    /// the node that names it, and every parent beats its children. Test
    /// and debug support; O(n).
    #[doc(hidden)]
    pub fn validate(&self) {
        for (i, n) in self.heap.iter().enumerate() {
            assert_eq!(
                self.pos[n.item as usize], i as u32,
                "pos[{}] out of sync",
                n.item
            );
            if i > 0 {
                let p = &self.heap[(i - 1) / 2];
                assert!(
                    !n.key.beats(&p.key),
                    "heap order violated at index {i} (item {})",
                    n.item
                );
            }
        }
        let live = self.pos.iter().filter(|&&p| p != ABSENT).count();
        assert_eq!(live, self.heap.len(), "pos table counts a ghost entry");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Min-order key with FIFO tie-break, like the event schedulers use.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct MinKey(u64, u64);

    impl HeapKey for MinKey {
        fn beats(&self, other: &Self) -> bool {
            (self.0, self.1) < (other.0, other.1)
        }
    }

    #[test]
    fn pops_in_key_order() {
        let mut h: IndexedHeap<MinKey> = IndexedHeap::new(4);
        h.push(0, MinKey(3, 0));
        h.push(1, MinKey(1, 1));
        h.push(2, MinKey(2, 2));
        assert_eq!(h.pop(), Some((MinKey(1, 1), 1)));
        assert_eq!(h.pop(), Some((MinKey(2, 2), 2)));
        assert_eq!(h.pop(), Some((MinKey(3, 0), 0)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn revise_moves_entry_both_ways() {
        let mut h: IndexedHeap<MinKey> = IndexedHeap::new(3);
        h.push(0, MinKey(5, 0));
        h.push(1, MinKey(3, 1));
        h.push(2, MinKey(4, 2));
        h.push(0, MinKey(1, 3)); // revise upward (smaller key wins)
        assert_eq!(h.peek(), Some((MinKey(1, 3), 0)));
        h.push(0, MinKey(9, 4)); // revise downward
        assert_eq!(h.peek(), Some((MinKey(3, 1), 1)));
        assert_eq!(h.len(), 3);
        h.validate();
    }

    #[test]
    fn remove_and_contains() {
        let mut h: IndexedHeap<MinKey> = IndexedHeap::new(4);
        for i in 0..4 {
            h.push(i, MinKey(i as u64, i as u64));
        }
        assert!(h.contains(2));
        assert!(h.remove(2));
        assert!(!h.contains(2));
        assert!(!h.remove(2));
        assert_eq!(h.len(), 3);
        h.validate();
    }

    #[test]
    fn replace_top_matches_pop_push() {
        let mut a: IndexedHeap<MinKey> = IndexedHeap::new(8);
        let mut b: IndexedHeap<MinKey> = IndexedHeap::new(8);
        for i in 0..8u32 {
            let k = MinKey((i as u64 * 7) % 5, i as u64);
            a.push(i, k);
            b.push(i, k);
        }
        for step in 0..500u64 {
            let (k, item) = a.peek().unwrap();
            // Fresh seqs continue after the 8 initial pushes.
            let next = MinKey(k.0 + 1 + step % 3, 8 + step);
            a.replace_top(next);
            let (bk, bitem) = b.pop().unwrap();
            assert_eq!((k, item), (bk, bitem));
            b.push(bitem, next);
            assert_eq!(a.peek(), b.peek());
            a.validate();
        }
    }

    #[test]
    fn clear_resets_positions() {
        let mut h: IndexedHeap<MinKey> = IndexedHeap::new(4);
        for i in 0..4 {
            h.push(i, MinKey(i as u64, i as u64));
        }
        h.clear();
        assert!(h.is_empty());
        assert!((0..4).all(|i| !h.contains(i)));
        h.push(3, MinKey(0, 9));
        assert_eq!(h.pop(), Some((MinKey(0, 9), 3)));
    }

    #[test]
    fn churn_keeps_invariants() {
        let mut h: IndexedHeap<MinKey> = IndexedHeap::new(32);
        let mut state = 0x243F6A8885A308D3u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seq = 0u64;
        for _ in 0..5000 {
            let item = (rnd() % 32) as u32;
            match rnd() % 4 {
                0..=1 => {
                    h.push(item, MinKey(rnd() % 64, seq));
                    seq += 1;
                }
                2 => {
                    h.remove(item);
                }
                _ => {
                    h.pop();
                }
            }
            h.validate();
        }
    }
}
