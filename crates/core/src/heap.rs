//! Priority heaps over per-source object quotes.
//!
//! Sources keep their modified objects "in priority order" (paper Figure
//! 2) so the highest-priority object is found quickly whenever bandwidth
//! frees up (§8). Priorities change only when an object is updated (§8.2),
//! so at most one quote per object is ever current — which is exactly the
//! shape of the workspace-wide [`besync_sim::IndexedHeap`];
//! [`IndexedMaxHeap`] is its priority-ordered wrapper and **the
//! production scheduler** used by every source runtime and by
//! [`crate::IdealSystem`].
//!
//! [`LazyMaxHeap`] is the classic lazy-invalidation alternative: every
//! recomputation pushes a fresh entry stamped with a per-object version,
//! stale entries are discarded when they surface at the top, and the heap
//! self-compacts when stale entries dominate (order-preserving GC — see
//! [`LazyMaxHeap::compact`]). Since the PR 2 scheduler unification it is
//! **not** on any production path; it survives as the independent oracle
//! the property tests drive the indexed heap against (two structurally
//! different implementations of the same ordering contract make silent
//! sift bugs loud).
//!
//! [`push`]: LazyMaxHeap::push

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use besync_sim::{HeapKey, IndexedHeap};

/// One heap entry: a priority quote for a local object index.
#[derive(Debug, Clone, Copy)]
struct Entry {
    priority: f64,
    version: u64,
    item: u32,
    /// Global quote sequence number: ties are served FIFO (the quote that
    /// has waited longest wins). This matters for discrete priorities —
    /// under the staleness metric whole cohorts tie at `1·W`, and an
    /// id-based tie-break would permanently starve high ids.
    seq: u64,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by priority; ties FIFO by quote age (smaller seq =
        // greater entry), fully deterministic.
        self.priority
            .total_cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A max-heap over `n` items with O(1) priority revision via lazy
/// invalidation.
#[derive(Debug, Clone)]
pub struct LazyMaxHeap {
    heap: BinaryHeap<Entry>,
    /// Monotone quote counter for FIFO tie-breaking.
    next_seq: u64,
    /// Current version per item; heap entries with older versions are
    /// stale. `u64::MAX` bit tricks are avoided: version 0 = never pushed.
    versions: Vec<u64>,
    /// Number of live (current-version) entries in the heap.
    live: usize,
}

impl LazyMaxHeap {
    /// Creates a heap for items `0..n`.
    pub fn new(n: usize) -> Self {
        LazyMaxHeap {
            heap: BinaryHeap::with_capacity(n.min(1024)),
            next_seq: 0,
            versions: vec![0; n],
            live: 0,
        }
    }

    /// Number of items the heap covers.
    pub fn items(&self) -> usize {
        self.versions.len()
    }

    /// Number of live entries (items with a current quote in the heap).
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total entries including stale ones (for compaction heuristics).
    pub fn raw_len(&self) -> usize {
        self.heap.len()
    }

    /// Quotes a new priority for `item`, superseding any previous quote.
    pub fn push(&mut self, item: u32, priority: f64) {
        let idx = item as usize;
        if self.versions[idx] != 0 && self.entry_is_live(idx) {
            // The previous quote becomes stale.
            self.live -= 1;
        }
        self.versions[idx] = self.versions[idx].wrapping_add(1);
        self.mark_live(idx);
        self.live += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            priority,
            version: self.versions[idx],
            item,
            seq,
        });
        if self.needs_compaction() {
            self.compact();
        }
    }

    /// Removes `item`'s current quote, if any (e.g. after sending it).
    pub fn invalidate(&mut self, item: u32) {
        let idx = item as usize;
        if self.entry_is_live(idx) {
            self.live -= 1;
            self.mark_dead(idx);
            self.versions[idx] = self.versions[idx].wrapping_add(1);
        }
    }

    /// The current top (priority, item) without removing it, discarding
    /// stale entries that surface.
    pub fn peek_valid(&mut self) -> Option<(f64, u32)> {
        while let Some(top) = self.heap.peek() {
            if self.is_current(top) {
                return Some((top.priority, top.item));
            }
            self.heap.pop();
        }
        None
    }

    /// Removes and returns the top valid (priority, item).
    pub fn pop_valid(&mut self) -> Option<(f64, u32)> {
        let (p, item) = self.peek_valid()?;
        self.heap.pop();
        self.live -= 1;
        self.mark_dead(item as usize);
        self.versions[item as usize] = self.versions[item as usize].wrapping_add(1);
        Some((p, item))
    }

    /// Whether stale entries dominate enough to be worth garbage
    /// collecting. [`LazyMaxHeap::push`] checks this automatically; with
    /// that trigger, `raw_len() <= max(65, 4 * live() + 1)` always holds.
    pub fn needs_compaction(&self) -> bool {
        self.heap.len() > 64 && self.heap.len() > 4 * self.live.max(1)
    }

    /// Garbage-collects stale entries in place.
    ///
    /// Every live entry keeps its original quote — priority, version, and
    /// FIFO sequence number — so compaction never changes what
    /// [`LazyMaxHeap::peek_valid`] / [`LazyMaxHeap::pop_valid`] return.
    /// O(`raw_len`), no priority recomputation.
    pub fn compact(&mut self) {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.retain(|e| {
            self.versions[e.item as usize] == e.version && self.entry_is_live(e.item as usize)
        });
        self.heap = BinaryHeap::from(entries);
    }

    /// Rebuilds the heap from an iterator of live (item, priority) quotes.
    /// All previous quotes are dropped.
    pub fn rebuild(&mut self, live: impl IntoIterator<Item = (u32, f64)>) {
        self.heap.clear();
        for v in &mut self.versions {
            *v = (*v & !LIVE_BIT).wrapping_add(1);
        }
        self.live = 0;
        for (item, priority) in live {
            let idx = item as usize;
            self.mark_live(idx);
            self.live += 1;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry {
                priority,
                version: self.versions[idx],
                item,
                seq,
            });
        }
    }

    fn is_current(&self, e: &Entry) -> bool {
        self.versions[e.item as usize] == e.version && self.entry_is_live(e.item as usize)
    }

    fn entry_is_live(&self, idx: usize) -> bool {
        self.versions[idx] & LIVE_BIT != 0
    }

    fn mark_live(&mut self, idx: usize) {
        self.versions[idx] |= LIVE_BIT;
    }

    fn mark_dead(&mut self, idx: usize) {
        self.versions[idx] &= !LIVE_BIT;
    }
}

/// High bit of the version word doubles as the "has a live quote" flag.
const LIVE_BIT: u64 = 1 << 63;

/// Max-priority quote key: higher priority wins; priority ties are served
/// FIFO (the older quote — smaller seq — wins), exactly like
/// [`LazyMaxHeap`]'s ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PriorityKey {
    priority: f64,
    seq: u64,
}

impl HeapKey for PriorityKey {
    #[inline]
    fn beats(&self, other: &Self) -> bool {
        match self.priority.total_cmp(&other.priority) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => self.seq < other.seq,
        }
    }
}

/// An indexed max-heap over `n` items: at most one entry per item, revised
/// **in place** (a sift instead of a stale push), removed in place on
/// [`IndexedMaxHeap::invalidate`]. The priority-flavoured wrapper over the
/// workspace-wide [`besync_sim::IndexedHeap`].
///
/// Same ordering contract as [`LazyMaxHeap`] — max priority first, FIFO by
/// quote seq within a priority tie — and a drop-in method surface, so the
/// two are interchangeable wherever pop order is all that matters. The
/// trade-off: `push` here pays a sift immediately (lazy `push` is an O(log
/// n) heap append and defers the cost), but no stale entry ever exists, so
/// the steady state never pays the lazy structure's amortized
/// root-discard sift, its memory is exactly one entry per live item, and
/// compaction is structurally unnecessary. For the hot source runtime —
/// where every update revises a quote and most quotes move only a few
/// levels — in-place revision is measurably faster end-to-end.
#[derive(Debug, Clone)]
pub struct IndexedMaxHeap {
    heap: IndexedHeap<PriorityKey>,
    /// Monotone quote counter for FIFO tie-breaking.
    next_seq: u64,
}

impl IndexedMaxHeap {
    /// Creates a heap for items `0..n`.
    pub fn new(n: usize) -> Self {
        IndexedMaxHeap {
            heap: IndexedHeap::new(n),
            next_seq: 0,
        }
    }

    /// Number of items the heap covers.
    pub fn items(&self) -> usize {
        self.heap.items()
    }

    /// Number of live entries (items with a current quote).
    pub fn live(&self) -> usize {
        self.heap.len()
    }

    /// Total entries — identical to [`IndexedMaxHeap::live`]; the indexed
    /// representation stores no stale entries, so `raw_len == live` is an
    /// invariant rather than a compaction goal.
    pub fn raw_len(&self) -> usize {
        self.heap.len()
    }

    /// Quotes a new priority for `item`, superseding any previous quote.
    /// In-place revision: the entry moves whichever way the new priority
    /// sends it (a fresh seq loses ties, hence downward on equal
    /// priority).
    pub fn push(&mut self, item: u32, priority: f64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(item, PriorityKey { priority, seq });
    }

    /// Removes `item`'s current quote, if any (e.g. after sending it).
    pub fn invalidate(&mut self, item: u32) {
        self.heap.remove(item);
    }

    /// The current top (priority, item) without removing it.
    pub fn peek_valid(&self) -> Option<(f64, u32)> {
        self.heap.peek().map(|(k, item)| (k.priority, item))
    }

    /// Removes and returns the top (priority, item).
    pub fn pop_valid(&mut self) -> Option<(f64, u32)> {
        self.heap.pop().map(|(k, item)| (k.priority, item))
    }

    /// Rebuilds from an iterator of live (item, priority) quotes, dropping
    /// all previous quotes. Fresh seqs are assigned in iteration order,
    /// matching [`LazyMaxHeap::rebuild`].
    pub fn rebuild(&mut self, live: impl IntoIterator<Item = (u32, f64)>) {
        self.heap.clear();
        for (item, priority) in live {
            self.push(item, priority);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_priority_order() {
        let mut h = LazyMaxHeap::new(4);
        h.push(0, 1.0);
        h.push(1, 5.0);
        h.push(2, 3.0);
        assert_eq!(h.pop_valid(), Some((5.0, 1)));
        assert_eq!(h.pop_valid(), Some((3.0, 2)));
        assert_eq!(h.pop_valid(), Some((1.0, 0)));
        assert_eq!(h.pop_valid(), None);
    }

    #[test]
    fn newer_quote_supersedes() {
        let mut h = LazyMaxHeap::new(2);
        h.push(0, 10.0);
        h.push(0, 2.0); // revised downward
        h.push(1, 5.0);
        assert_eq!(h.pop_valid(), Some((5.0, 1)));
        assert_eq!(h.pop_valid(), Some((2.0, 0)));
        assert_eq!(h.pop_valid(), None);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut h = LazyMaxHeap::new(1);
        h.push(0, 7.0);
        assert_eq!(h.peek_valid(), Some((7.0, 0)));
        assert_eq!(h.peek_valid(), Some((7.0, 0)));
        assert_eq!(h.pop_valid(), Some((7.0, 0)));
    }

    #[test]
    fn invalidate_removes_quote() {
        let mut h = LazyMaxHeap::new(2);
        h.push(0, 9.0);
        h.push(1, 1.0);
        h.invalidate(0);
        assert_eq!(h.pop_valid(), Some((1.0, 1)));
        assert_eq!(h.pop_valid(), None);
        // Re-quoting after invalidation works.
        h.push(0, 4.0);
        assert_eq!(h.pop_valid(), Some((4.0, 0)));
    }

    #[test]
    fn live_count_tracks_quotes() {
        let mut h = LazyMaxHeap::new(3);
        assert_eq!(h.live(), 0);
        h.push(0, 1.0);
        h.push(1, 2.0);
        assert_eq!(h.live(), 2);
        h.push(0, 3.0); // revision, not a new live item
        assert_eq!(h.live(), 2);
        h.invalidate(1);
        assert_eq!(h.live(), 1);
        h.pop_valid();
        assert_eq!(h.live(), 0);
    }

    #[test]
    fn compaction_rebuild() {
        let mut h = LazyMaxHeap::new(8);
        // Churn revisions; automatic GC must keep raw_len bounded.
        for round in 0..200 {
            for i in 0..8 {
                h.push(i, round as f64 + i as f64);
            }
            assert!(
                h.raw_len() <= 65.max(4 * h.live() + 1),
                "raw {}",
                h.raw_len()
            );
        }
        let live: Vec<(u32, f64)> = (0..8).map(|i| (i, i as f64)).collect();
        h.rebuild(live);
        assert_eq!(h.raw_len(), 8);
        assert_eq!(h.live(), 8);
        assert_eq!(h.pop_valid(), Some((7.0, 7)));
        assert_eq!(h.peek_valid(), Some((6.0, 6)));
    }

    #[test]
    fn auto_compaction_bounds_raw_len() {
        let mut h = LazyMaxHeap::new(4);
        for round in 0..10_000 {
            let item = (round % 4) as u32;
            h.push(item, (round as f64 * 0.7) % 13.0);
            if round % 3 == 0 {
                h.invalidate(item);
            }
            assert!(
                h.raw_len() <= 65.max(4 * h.live() + 1),
                "round {round}: raw {} live {}",
                h.raw_len(),
                h.live()
            );
        }
    }

    #[test]
    fn manual_compact_preserves_pop_order() {
        let mut a = LazyMaxHeap::new(16);
        for round in 0..50 {
            for i in 0..16 {
                // Deliberate ties (mod 5) exercise the FIFO tie-break.
                a.push(i, ((round + i as i32 * 3) % 5) as f64);
            }
        }
        for i in (0..16).step_by(3) {
            a.invalidate(i);
        }
        let mut b = a.clone();
        b.compact();
        assert!(b.raw_len() <= a.raw_len());
        loop {
            let (x, y) = (a.pop_valid(), b.pop_valid());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn deterministic_tie_breaking() {
        let mut a = LazyMaxHeap::new(4);
        let mut b = LazyMaxHeap::new(4);
        for h in [&mut a, &mut b] {
            h.push(2, 1.0);
            h.push(0, 1.0);
            h.push(3, 1.0);
            h.push(1, 1.0);
        }
        for _ in 0..4 {
            assert_eq!(a.pop_valid(), b.pop_valid());
        }
    }

    #[test]
    fn negative_priorities_are_fine() {
        let mut h = LazyMaxHeap::new(2);
        h.push(0, -5.0);
        h.push(1, -1.0);
        assert_eq!(h.pop_valid(), Some((-1.0, 1)));
        assert_eq!(h.pop_valid(), Some((-5.0, 0)));
    }

    #[test]
    fn indexed_basic_order_and_revision() {
        let mut h = IndexedMaxHeap::new(4);
        h.push(0, 1.0);
        h.push(1, 5.0);
        h.push(2, 3.0);
        h.push(1, 0.5); // revised downward, in place
        assert_eq!(h.live(), 3);
        assert_eq!(h.pop_valid(), Some((3.0, 2)));
        assert_eq!(h.pop_valid(), Some((1.0, 0)));
        assert_eq!(h.pop_valid(), Some((0.5, 1)));
        assert_eq!(h.pop_valid(), None);
    }

    #[test]
    fn indexed_invalidate_and_rebuild() {
        let mut h = IndexedMaxHeap::new(4);
        for i in 0..4 {
            h.push(i, i as f64);
        }
        h.invalidate(3);
        assert_eq!(h.peek_valid(), Some((2.0, 2)));
        h.rebuild([(1, 9.0), (0, 9.0)]);
        assert_eq!(h.live(), 2);
        // Equal priorities: FIFO by rebuild order.
        assert_eq!(h.pop_valid(), Some((9.0, 1)));
        assert_eq!(h.pop_valid(), Some((9.0, 0)));
    }

    /// The indexed heap and the lazy heap implement the same ordering
    /// contract: drive both with an identical operation stream (including
    /// deliberate priority ties) and demand identical observations.
    #[test]
    fn indexed_matches_lazy_heap() {
        let mut lazy = LazyMaxHeap::new(16);
        let mut indexed = IndexedMaxHeap::new(16);
        let mut state = 0xD1B54A32D192ED03u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20_000 {
            match rnd() % 8 {
                0..=4 => {
                    let item = (rnd() % 16) as u32;
                    let p = (rnd() % 7) as f64 - 3.0; // few levels → many ties
                    lazy.push(item, p);
                    indexed.push(item, p);
                }
                5 => {
                    let item = (rnd() % 16) as u32;
                    lazy.invalidate(item);
                    indexed.invalidate(item);
                }
                6 => {
                    assert_eq!(lazy.pop_valid(), indexed.pop_valid());
                }
                _ => {
                    assert_eq!(lazy.peek_valid(), indexed.peek_valid());
                }
            }
            assert_eq!(lazy.live(), indexed.live());
            assert_eq!(indexed.raw_len(), indexed.live());
        }
    }
}
