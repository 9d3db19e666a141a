//! The timed event queue.
//!
//! Entries are keyed by `(time, sequence)`. The sequence number is a
//! monotonically increasing counter assigned at insertion, which makes the
//! dispatch order a *total* order: two events at the same timestamp are
//! always dispatched in the order they were scheduled. This is the property
//! every determinism test in the workspace leans on.
//!
//! Storage is a binary heap with a sorted-run fast path. A push whose key is
//! not below the newest entry of the run appends to the run, a FIFO that is
//! sorted by construction; only an out-of-order push goes to the heap. Pop
//! takes the smaller of the two fronts. Timers re-armed in lockstep with
//! the same period (the 16 producers of `fifo_heavy`) arrive in key order,
//! so their entries never see a sift.
//!
//! The queue stays shallow: clock edges live in per-clock slots outside it
//! (see `kernel.rs`), so the DSE sweeps peak at 2 pending entries.
//! DESIGN.md §9 has the measured queue depths and the A/B behind this design.

use std::collections::{BinaryHeap, VecDeque};

use crate::event::Delivery;
use crate::time::SimTime;

pub(crate) struct TimedEntry {
    pub time: SimTime,
    pub seq: u64,
    pub delivery: Delivery,
}

impl TimedEntry {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for TimedEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for TimedEntry {}

impl PartialOrd for TimedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimedEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other.key().cmp(&self.key())
    }
}

/// Deterministic future-event queue.
#[derive(Default)]
pub(crate) struct EventQueue {
    /// Entries pushed in nondecreasing `(time, seq)` order.
    run: VecDeque<TimedEntry>,
    /// Entries pushed below the run's newest entry.
    heap: BinaryHeap<TimedEntry>,
    /// Count of non-background entries, maintained incrementally so the
    /// kernel can answer "is any foreground work pending?" in O(1).
    foreground: usize,
}

impl EventQueue {
    /// Grow internal storage so roughly `n` pending entries fit without
    /// reallocation (the between-runs high-water pre-reserve).
    pub fn reserve(&mut self, n: usize) {
        self.run.reserve(n.saturating_sub(self.run.len()));
        self.heap.reserve(n.saturating_sub(self.heap.len()));
    }

    pub fn push(&mut self, entry: TimedEntry) {
        if !entry.delivery.background {
            self.foreground += 1;
        }
        match self.run.back() {
            Some(newest) if entry.key() < newest.key() => self.heap.push(entry),
            _ => self.run.push_back(entry),
        }
    }

    /// Whether the earliest entry is the heap's rather than the run's.
    fn front_in_heap(&self) -> bool {
        match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(h)) => h.key() < r.key(),
            (r, _) => r.is_none(),
        }
    }

    fn front(&self) -> Option<&TimedEntry> {
        if self.front_in_heap() {
            self.heap.peek()
        } else {
            self.run.front()
        }
    }

    /// Iterate every pending entry, in no particular order (snapshot
    /// support; callers sort by `(time, seq)`).
    pub(crate) fn iter_entries(&self) -> impl Iterator<Item = &TimedEntry> {
        self.run.iter().chain(self.heap.iter())
    }

    pub fn pop(&mut self) -> Option<TimedEntry> {
        let e = if self.front_in_heap() {
            self.heap.pop()
        } else {
            self.run.pop_front()
        }?;
        if !e.delivery.background {
            self.foreground -= 1;
        }
        Some(e)
    }

    /// Time of the earliest pending entry.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front().map(|e| e.time)
    }

    /// `(time, seq)` of the earliest pending entry. The dispatch loop uses
    /// the sequence number to merge queue entries with the per-clock
    /// next-edge slots while preserving the global `(time, seq)` order.
    pub fn peek(&self) -> Option<(SimTime, u64)> {
        self.front().map(TimedEntry::key)
    }

    pub fn has_foreground(&self) -> bool {
        self.foreground > 0
    }

    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Drop every pending entry and reset the foreground counter. Capacity
    /// is retained for reuse.
    pub fn clear(&mut self) {
        self.debug_assert_foreground_consistent();
        self.run.clear();
        self.heap.clear();
        self.foreground = 0;
    }

    /// Recount foreground entries the slow way (audit for the incremental
    /// counter).
    pub fn foreground_recount(&self) -> usize {
        self.iter_entries()
            .filter(|e| !e.delivery.background)
            .count()
    }

    /// Debug-build audit: the incrementally maintained `foreground` counter
    /// must always equal a from-scratch recount. O(n), so it is only called
    /// at run-termination decisions and in tests, never per event.
    pub fn debug_assert_foreground_consistent(&self) {
        debug_assert_eq!(
            self.foreground,
            self.foreground_recount(),
            "incremental foreground counter diverged from recount"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Msg, MsgKind};
    use proptest::prelude::*;

    fn entry(time_fs: u64, seq: u64, background: bool) -> TimedEntry {
        TimedEntry {
            time: SimTime(time_fs),
            seq,
            delivery: Delivery {
                target: 0,
                msg: Msg {
                    source: None,
                    kind: MsgKind::Timer(seq),
                },
                background,
            },
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.push(entry(30, 0, false));
        q.push(entry(10, 1, false));
        q.push(entry(20, 2, false));
        let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.0).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::default();
        for seq in 0..50 {
            q.push(entry(100, seq, false));
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(seqs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_order_push_pops_between_run_entries() {
        let mut q = EventQueue::default();
        q.push(entry(10, 0, false));
        q.push(entry(30, 1, false));
        q.push(entry(20, 2, true)); // below the run's newest: goes to the heap
        q.push(entry(30, 3, false));
        q.push(entry(10, 4, false)); // ties the run's oldest time, later seq
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek(), Some((SimTime(10), 0)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![0, 4, 2, 1, 3]);
        assert!(!q.has_foreground());
    }

    #[test]
    fn foreground_count_tracks_pushes_and_pops() {
        let mut q = EventQueue::default();
        assert!(!q.has_foreground());
        q.push(entry(10, 0, true));
        assert!(!q.has_foreground());
        q.push(entry(20, 1, false));
        assert!(q.has_foreground());
        q.pop(); // background at t=10
        assert!(q.has_foreground());
        q.pop(); // foreground at t=20
        assert!(!q.has_foreground());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn peek_time_sees_background_too() {
        let mut q = EventQueue::default();
        q.push(entry(5, 0, true));
        assert_eq!(q.peek_time(), Some(SimTime(5)));
        assert!(!q.has_foreground());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek(), Some((SimTime(5), 0)));
    }

    #[test]
    fn clear_resets_len_and_foreground() {
        let mut q = EventQueue::default();
        for seq in 0..10 {
            q.push(entry(seq * 3, seq, seq % 2 == 0));
        }
        assert_eq!(q.len(), 10);
        assert_eq!(q.foreground_recount(), 5);
        q.debug_assert_foreground_consistent();
        q.clear();
        assert_eq!(q.len(), 0);
        assert!(!q.has_foreground());
        q.debug_assert_foreground_consistent();
        // Usable after clear.
        q.push(entry(1, 100, false));
        assert!(q.has_foreground());
        assert_eq!(q.pop().unwrap().seq, 100);
    }

    #[test]
    fn foreground_counter_matches_recount_under_churn() {
        let mut q = EventQueue::default();
        let mut seq = 0u64;
        for round in 0..20u64 {
            for k in 0..(round % 5 + 1) {
                q.push(entry(round * 10 + k, seq, (seq * 7).is_multiple_of(3)));
                seq += 1;
            }
            if round % 3 == 0 {
                q.pop();
            }
            q.debug_assert_foreground_consistent();
        }
        while q.pop().is_some() {
            q.debug_assert_foreground_consistent();
        }
    }

    proptest! {
        /// Random push/pop interleavings match a plain `Vec` kept sorted by
        /// `(time, seq)`: pop order, `peek`, `len` and `has_foreground`
        /// agree after every step. Each op is `(kind, a, b)`: kind 0 pushes
        /// a burst of `1 + a % 8` entries at one time, kind 1 pushes at the
        /// current front's time (a push mid-drain), kind 2 pushes at an
        /// arbitrary time, kind 3 pops. `b` picks the time offset and
        /// whether the entry is background. The mix sends entries both to
        /// the sorted run and, whenever a push lands below the run's newest
        /// entry, to the heap.
        #[test]
        fn matches_sorted_vec_reference(
            ops in proptest::collection::vec((0u8..4, 0u64..64, 0u64..1_000), 1..200),
        ) {
            let mut q = EventQueue::default();
            let mut reference: Vec<(u64, u64, bool)> = Vec::new();
            let mut seq = 0u64;
            let mut push = |q: &mut EventQueue,
                            reference: &mut Vec<(u64, u64, bool)>,
                            time: u64,
                            background: bool| {
                q.push(entry(time, seq, background));
                let at = reference.partition_point(|&(t, s, _)| (t, s) < (time, seq));
                reference.insert(at, (time, seq, background));
                seq += 1;
            };
            for &(kind, a, b) in &ops {
                let front = reference.first().map_or(0, |&(t, _, _)| t);
                let background = b % 3 == 0;
                match kind {
                    0 => {
                        for _ in 0..=a % 8 {
                            push(&mut q, &mut reference, front + b % 4, background);
                        }
                    }
                    1 => push(&mut q, &mut reference, front, background),
                    2 => push(&mut q, &mut reference, a * 1_000 + b, background),
                    _ => {
                        let got = q.pop().map(|e| (e.time.0, e.seq, e.delivery.background));
                        let want = (!reference.is_empty()).then(|| reference.remove(0));
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(
                    q.peek(),
                    reference.first().map(|&(t, s, _)| (SimTime(t), s))
                );
                prop_assert_eq!(q.len(), reference.len());
                prop_assert_eq!(
                    q.has_foreground(),
                    reference.iter().any(|&(_, _, bg)| !bg)
                );
            }
            while let Some(e) = q.pop() {
                prop_assert_eq!(
                    Some((e.time.0, e.seq, e.delivery.background)),
                    (!reference.is_empty()).then(|| reference.remove(0))
                );
            }
            prop_assert!(reference.is_empty());
        }
    }

    #[test]
    fn reserve_is_harmless() {
        let mut q = EventQueue::default();
        q.reserve(10_000);
        q.push(entry(1, 0, false));
        assert_eq!(q.pop().unwrap().seq, 0);
    }
}
