//! Deterministic event queue.
//!
//! Events are ordered by their scheduled [`SimTime`]; ties are broken by
//! insertion order so that two runs of the same experiment with the same seed
//! always produce identical traces.
//!
//! # Ordering contract
//!
//! Every [`EventQueue::schedule`] call stamps the event with a monotonically
//! increasing sequence number, and [`EventQueue::pop`] returns events in
//! strict (time, seq) order: earliest time first, and — for events scheduled
//! at the *same* time — FIFO in push order. Nothing else influences the
//! order; in particular the event payload is never compared. The
//! [`shard`](crate::shard) module extends this same contract across
//! per-shard queues to (time, shard, seq): at equal times the lowest shard
//! pops first, and cross-shard mailbox arrivals merge by
//! (time, source shard, send seq).
//!
//! # Representation
//!
//! The (time, seq) pair is packed into one `u128` sort key — time in the
//! high 64 bits, sequence number in the low 64 — so every ordering decision
//! is a single branchless integer comparison. Discrete-event workloads are
//! tie-heavy (bursts of same-instant events), and a two-level comparator
//! turns each tie into a data-dependent branch the predictor keeps missing;
//! the packed key compares ties and non-ties through the same instruction.
//!
//! Small queues — the steady state of a sharded engine, where each rack
//! calendar holds a handful of in-flight chains — skip the heap entirely:
//! entries live in an unsorted vector and pop does a branch-free linear
//! argmin over the packed keys, which for a few elements is cheaper than
//! any sift. Once a queue outgrows the small representation it spills
//! into two tiers and stays there (no flapping on the boundary):
//!
//! - a *near* binary heap, every key below a `bound`;
//! - an unordered *far* vector, every key at or above `bound`.
//!
//! A schedule at or above `bound` is an O(1) push onto `far`. One below
//! it goes onto the heap, and a heap that fills to 128 entries keeps its
//! 64 smallest (a `select_nth_unstable`), makes the next key the new
//! `bound` and moves the rest to `far`. A pop that empties the heap
//! while `far` holds entries refills it with the `max(32, far.len() / 4)`
//! smallest of them and sets `bound` to the smallest key left behind
//! (`u128::MAX` once `far` is empty). The heap is therefore never empty
//! while `far` is not, so its top is the calendar's minimum and peeks
//! stay O(1). Taking a quarter of `far` keeps the refill's select at
//! O(1) per pop; once `far` holds over 512 entries that quarter is 128
//! or more, and the next split then waits until the heap holds 64 more,
//! or every refill would be split straight back into `far`.
//!
//! A rack calendar holds a few hundred entries, most of them departures
//! far in the future, but a rack handles only a few events per epoch.
//! With one heap over all of them every pop sifts through levels that
//! went cold since the rack last ran; with two tiers it sifts through a
//! few KiB of near entries, and the far ones are touched in bulk only
//! when the near tier runs dry.
//!
//! # Presorted runs
//!
//! A workload often knows a long stretch of its future up front — every
//! arrival of a trace, generated in time order before the replay starts.
//! Pushing those through the calendar would park tens of thousands of
//! entries in the heap and make every pop sift through them.
//! [`EventQueue::schedule_sorted`] keeps such a batch in a FIFO *run* next
//! to the calendar instead: its entries are stamped exactly as one-by-one
//! [`EventQueue::schedule`] calls would stamp them, so the run is already
//! in key order, and [`EventQueue::pop`] takes the smaller of the run's
//! front key and the calendar's minimum. An element that would break the
//! run's order goes to the calendar. The pop order is the same as with
//! plain `schedule` calls; the calendar just holds the in-flight events.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::mem;

use crate::time::SimTime;

/// Queues at most this deep stay in the linear-scan representation.
const SMALL_MAX: usize = 8;

/// A spilled queue's near heap splits once a schedule fills it to this
/// many entries (or `NEAR_KEEP` past a refill that reached it).
const NEAR_MAX: usize = 128;

/// Entries a split leaves in the near heap: the smallest keys.
const NEAR_KEEP: usize = 64;

/// The fewest far entries a refill moves into the emptied near heap.
const REFILL_MIN: usize = 32;

/// A time-ordered queue of events of type `E`.
///
/// ```
/// use dredbox_sim::prelude::EventQueue;
/// use dredbox_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(5), "b");
/// q.schedule(SimTime::from_nanos(5), "c");
/// q.schedule(SimTime::from_nanos(1), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, vec!["a", "b", "c"]);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Unsorted entries while the queue is small; empty once spilled.
    small: Vec<Entry<E>>,
    /// Index of the minimum key in `small`; valid while `small` is
    /// non-empty, so peeks are O(1) and only pops rescan.
    small_min: usize,
    /// Near tier after the queue outgrows [`SMALL_MAX`]: every key below
    /// `bound`, and never empty while `far` holds entries.
    heap: BinaryHeap<Entry<E>>,
    /// Far tier, unordered: every key at or above `bound`.
    far: Vec<Entry<E>>,
    /// The key splitting the two tiers; `u128::MAX` while `far` is empty.
    bound: u128,
    /// The near heap size at which a schedule splits it: [`NEAR_MAX`], or
    /// `NEAR_KEEP` above a refill that filled the heap to it or past it.
    split_at: usize,
    /// Whether the queue has spilled into the two tiers.
    spilled: bool,
    /// Presorted entries from [`EventQueue::schedule_sorted`], in strictly
    /// increasing key order.
    run: VecDeque<Entry<E>>,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    /// `(time << 64) | seq`: orders by time, then FIFO within a time, in
    /// one integer comparison.
    key: u128,
    event: E,
}

/// Packs a (time, seq) pair into the single-comparison sort key.
fn key(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq)
}

/// Recovers the timestamp from a packed key.
fn key_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time (and, for
        // equal times, the lowest sequence number) comes out first.
        other.key.cmp(&self.key)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            small: Vec::new(),
            small_min: 0,
            heap: BinaryHeap::new(),
            far: Vec::new(),
            bound: u128::MAX,
            split_at: NEAR_MAX,
            spilled: false,
            run: VecDeque::new(),
            next_seq: 0,
        }
    }

    /// Schedules a batch of events whose times are non-decreasing, keeping
    /// them in the presorted run instead of the calendar (see the module
    /// docs). Sequence numbers are stamped exactly as the same
    /// [`EventQueue::schedule`] calls would stamp them, so the pop order is
    /// unchanged; an element earlier than the run's last entry falls back
    /// to `schedule`.
    ///
    /// ```
    /// use dredbox_sim::prelude::EventQueue;
    /// use dredbox_sim::time::SimTime;
    ///
    /// let mut q = EventQueue::new();
    /// q.schedule(SimTime::from_nanos(4), "in flight");
    /// q.schedule_sorted([1, 4, 9].map(|t| (SimTime::from_nanos(t), "arrival")));
    /// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(t, e)| (t.as_nanos(), e)).collect();
    /// assert_eq!(
    ///     order,
    ///     vec![(1, "arrival"), (4, "in flight"), (4, "arrival"), (9, "arrival")]
    /// );
    /// ```
    pub fn schedule_sorted<I: IntoIterator<Item = (SimTime, E)>>(&mut self, batch: I) {
        let batch = batch.into_iter();
        self.run.reserve(batch.size_hint().0);
        for (at, event) in batch {
            let key = key(at, self.next_seq);
            // Sequence numbers only grow, so a key above the run's last one
            // means a time no earlier than the last run entry's.
            if self.run.back().map_or(true, |last| last.key < key) {
                self.next_seq += 1;
                self.run.push_back(Entry { key, event });
            } else {
                self.schedule(at, event);
            }
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            key: key(at, seq),
            event,
        };
        if self.spilled {
            if entry.key >= self.bound {
                self.far.push(entry);
            } else {
                self.heap.push(entry);
                if self.heap.len() >= self.split_at {
                    self.split_near();
                }
            }
        } else {
            if self.small.is_empty() || entry.key < self.small[self.small_min].key {
                self.small_min = self.small.len();
            }
            self.small.push(entry);
            if self.small.len() > SMALL_MAX {
                self.heap = BinaryHeap::from(mem::take(&mut self.small));
                self.spilled = true;
            }
        }
    }

    /// Keeps the [`NEAR_KEEP`] smallest entries in the near heap, makes the
    /// next key the bound, and moves the rest (all at or above it) to
    /// `far`, whose keys are already at or above the old, higher bound.
    fn split_near(&mut self) {
        let mut near = mem::take(&mut self.heap).into_vec();
        near.select_nth_unstable_by_key(NEAR_KEEP, |e| e.key);
        self.bound = near[NEAR_KEEP].key;
        self.far.extend(near.drain(NEAR_KEEP..));
        self.heap = BinaryHeap::from(near);
        self.split_at = NEAR_MAX;
    }

    /// Moves the `max(REFILL_MIN, far.len() / 4)` smallest far entries into
    /// the emptied near heap and sets the bound to the smallest key left.
    /// Taking a quarter keeps a refill's select at O(1) per pop however
    /// deep `far` is.
    fn refill_near(&mut self) {
        let take = REFILL_MIN.max(self.far.len() / 4);
        let stay = self.far.len().saturating_sub(take);
        if stay == 0 {
            self.bound = u128::MAX;
        } else {
            // Descending order puts the smallest key that stays at
            // `stay - 1` and the `take` smaller ones after it, so they
            // leave from the back without shifting the rest.
            self.far
                .select_nth_unstable_by(stay - 1, |a, b| b.key.cmp(&a.key));
            self.bound = self.far[stay - 1].key;
        }
        self.heap.extend(self.far.drain(stay..));
        // A refill that fills the heap to the split size would be split
        // straight back into `far` by the next near schedule.
        self.split_at = if self.heap.len() >= NEAR_MAX {
            self.heap.len() + NEAR_KEEP
        } else {
            NEAR_MAX
        };
    }

    /// Rescans the small representation for its minimum key.
    fn rescan_small_min(&mut self) {
        let mut best = 0;
        let mut best_key = u128::MAX;
        for (i, e) in self.small.iter().enumerate() {
            if e.key < best_key {
                best_key = e.key;
                best = i;
            }
        }
        self.small_min = best;
    }

    /// The smallest key on the calendar (small vector or near heap), if any.
    fn calendar_min_key(&self) -> Option<u128> {
        if self.spilled {
            return self.heap.peek().map(|e| e.key);
        }
        self.small.get(self.small_min).map(|e| e.key)
    }

    /// Removes the calendar's earliest entry, if any.
    fn pop_calendar(&mut self) -> Option<Entry<E>> {
        if self.spilled {
            let e = self.heap.pop();
            if self.heap.is_empty() && !self.far.is_empty() {
                self.refill_near();
            }
            return e;
        }
        if self.small.is_empty() {
            return None;
        }
        let e = self.small.swap_remove(self.small_min);
        self.rescan_small_min();
        Some(e)
    }

    /// Removes and returns the earliest event, if any.
    // Inlined, so an engine loop over queues without a run pays for one
    // emptiness check on top of the calendar pop.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = if self.run.is_empty() {
            self.pop_calendar()
        } else {
            self.pop_with_run()
        }?;
        Some((key_time(e.key), e.event))
    }

    /// [`EventQueue::pop`] while the run is non-empty: the run front,
    /// unless the calendar holds a smaller key.
    fn pop_with_run(&mut self) -> Option<Entry<E>> {
        let front = self.run.front().map(|e| e.key);
        match (front, self.calendar_min_key()) {
            (Some(run), Some(calendar)) if calendar < run => self.pop_calendar(),
            _ => self.run.pop_front(),
        }
    }

    /// The time of the earliest pending event without removing it.
    #[inline]
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        let calendar = self.calendar_min_key();
        match self.run.front() {
            None => calendar.map(key_time),
            Some(front) => Some(key_time(
                calendar.map_or(front.key, |min| min.min(front.key)),
            )),
        }
    }

    /// Number of pending events, in the calendar and the presorted run.
    pub(crate) fn len(&self) -> usize {
        let calendar = if self.spilled {
            self.heap.len() + self.far.len()
        } else {
            self.small.len()
        };
        calendar + self.run.len()
    }

    /// Whether the queue has no pending events.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all pending events.
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.small.clear();
        self.heap.clear();
        self.far.clear();
        self.bound = u128::MAX;
        self.split_at = NEAR_MAX;
        self.spilled = false;
        self.run.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(3), 2);
        q.schedule(SimTime::from_nanos(10), 3);
        q.schedule(SimTime::from_nanos(3), 4);
        q.schedule(SimTime::from_nanos(7), 5);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (SimTime::from_nanos(3), 2),
                (SimTime::from_nanos(3), 4),
                (SimTime::from_nanos(7), 5),
                (SimTime::from_nanos(10), 1),
                (SimTime::from_nanos(10), 3),
            ]
        );
    }

    #[test]
    fn interleaved_scheduling_keeps_fifo_within_a_timestamp() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.schedule(t, "a");
        q.schedule(t, "b");
        assert_eq!(q.pop(), Some((t, "a")));
        q.schedule(t, "c");
        assert_eq!(q.pop(), Some((t, "b")));
        assert_eq!(q.pop(), Some((t, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn spilling_past_the_small_representation_keeps_the_order() {
        // Drive the queue well past SMALL_MAX with colliding timestamps
        // and check the (time, FIFO) contract straddles the spill.
        let mut q = EventQueue::new();
        let n = 4 * SMALL_MAX as u64;
        for i in 0..n {
            q.schedule(SimTime::from_nanos((i % 5) * 10), i);
        }
        let mut popped: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
        let mut expect: Vec<(SimTime, u64)> = (0..n)
            .map(|i| (SimTime::from_nanos((i % 5) * 10), i))
            .collect();
        expect.sort_by_key(|&(at, i)| (at, i));
        assert_eq!(popped, expect);
        // Interleave pops and pushes across the boundary too.
        for i in 0..n {
            q.schedule(SimTime::from_nanos(i), i);
            if i % 3 == 0 {
                q.pop();
            }
        }
        popped = std::iter::from_fn(|| q.pop()).collect();
        assert!(popped.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn len_peek_and_clear_track_the_heap() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_nanos(9), ());
        q.schedule(SimTime::from_nanos(2), ());
        q.schedule(SimTime::from_nanos(9), ());
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(2)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.schedule(SimTime::from_nanos(1), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), ())));
    }

    /// A pop trace: (time in ns, event id) pairs.
    type Trace = Vec<(u64, usize)>;

    /// Replays `ops` against a `schedule`-only queue and a queue that
    /// takes the batches through `schedule_sorted`, and returns both pop
    /// traces. `Some(batch)` schedules a batch, `None` pops one event.
    fn both_traces(ops: &[Option<Vec<u64>>]) -> (Trace, Trace) {
        let mut plain = EventQueue::new();
        let mut sorted = EventQueue::new();
        let (mut plain_out, mut sorted_out) = (Vec::new(), Vec::new());
        let mut id = 0;
        for op in ops {
            match op {
                Some(batch) if batch.len() == 1 => {
                    plain.schedule(SimTime::from_nanos(batch[0]), id);
                    sorted.schedule(SimTime::from_nanos(batch[0]), id);
                    id += 1;
                }
                Some(batch) => {
                    let events: Vec<_> = batch
                        .iter()
                        .enumerate()
                        .map(|(i, &t)| (SimTime::from_nanos(t), id + i))
                        .collect();
                    for &(at, e) in &events {
                        plain.schedule(at, e);
                    }
                    sorted.schedule_sorted(events);
                    id += batch.len();
                }
                None => {
                    plain_out.extend(plain.pop().map(|(t, e)| (t.as_nanos(), e)));
                    sorted_out.extend(sorted.pop().map(|(t, e)| (t.as_nanos(), e)));
                }
            }
            assert_eq!(plain.len(), sorted.len());
            assert_eq!(plain.peek_time(), sorted.peek_time());
        }
        plain_out.extend(std::iter::from_fn(|| plain.pop()).map(|(t, e)| (t.as_nanos(), e)));
        sorted_out.extend(std::iter::from_fn(|| sorted.pop()).map(|(t, e)| (t.as_nanos(), e)));
        (plain_out, sorted_out)
    }

    #[test]
    fn sorted_batches_pop_exactly_like_plain_schedules() {
        // Equal times straddle the run and the calendar in both directions
        // (calendar entry older than a run entry at time 20, run entries
        // older than calendar entries at 30), a second batch appends to a
        // non-empty run, and 15 and 5 arrive out of order and fall back to
        // the calendar. Enough single schedules spill the calendar too.
        let mut ops = vec![
            Some(vec![20]),
            Some(vec![10, 20, 20, 30, 30, 15, 40, 5, 40]),
            Some(vec![30]),
            None,
            Some(vec![30, 50, 50]),
            Some(vec![10]),
            None,
            None,
        ];
        for t in 0..2 * SMALL_MAX as u64 {
            ops.push(Some(vec![(t * 7) % 60]));
        }
        ops.extend([None, Some(vec![0, 60]), None, None]);
        let (plain, sorted) = both_traces(&ops);
        assert_eq!(plain.len(), 33);
        assert_eq!(sorted, plain);
    }

    #[test]
    fn len_peek_and_clear_cover_the_sorted_run() {
        let mut q = EventQueue::new();
        q.schedule_sorted([3, 8].map(|t| (SimTime::from_nanos(t), "run")));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        // Only the run holds events: peeks read its front.
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        q.schedule(SimTime::from_nanos(5), "calendar");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(3), "run")));
        // The calendar now holds the earliest event.
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), "calendar")));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(8)));
        q.schedule(SimTime::from_nanos(1), "calendar");
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        // A batch after a clear starts a fresh run, even at an earlier time.
        q.schedule_sorted([(SimTime::from_nanos(2), "run")]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2), "run")));
    }

    /// Checks the two-tier invariants of a spilled queue: near keys below
    /// the bound, far keys at or above it, and a near heap never empty
    /// while the far tier holds entries.
    fn assert_tiers<E>(q: &EventQueue<E>) {
        if !q.spilled {
            assert!(q.heap.is_empty() && q.far.is_empty());
            return;
        }
        assert!(q.far.is_empty() || !q.heap.is_empty(), "near heap ran dry");
        assert!(q.heap.iter().all(|e| e.key < q.bound));
        assert!(q.far.iter().all(|e| e.key >= q.bound));
        if q.far.is_empty() {
            assert_eq!(q.bound, u128::MAX);
        }
    }

    #[test]
    fn splits_and_refills_keep_the_order_and_the_tiers() {
        // 600 entries over 7 instants: the near heap splits with ties on
        // both sides of the bound, and the drain refills it from the far
        // tier until both are empty.
        let mut q = EventQueue::new();
        let n = 600u64;
        for i in 0..n {
            q.schedule(SimTime::from_nanos(i % 7), i);
            assert_tiers(&q);
        }
        // Splits keep the near heap below its cap; only a refill from a
        // far tier of over 4 × NEAR_MAX entries may exceed it.
        assert!(q.heap.len() < NEAR_MAX && q.far.len() > n as usize - NEAR_MAX);
        let mut expect: Vec<(SimTime, u64)> =
            (0..n).map(|i| (SimTime::from_nanos(i % 7), i)).collect();
        expect.sort_by_key(|&(at, i)| (at, i));
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            assert_tiers(&q);
            popped.push(e);
        }
        assert_eq!(popped, expect);
        assert_eq!(q.bound, u128::MAX);
    }

    #[test]
    fn a_refill_from_a_deep_far_tier_is_not_split_straight_back() {
        // 2,000 entries at distinct times leave ~1,900 in the far tier,
        // so the first refill moves a quarter of them: far more than the
        // NEAR_KEEP a split keeps.
        let mut q = EventQueue::new();
        for i in 0..2_000u64 {
            q.schedule(SimTime::from_nanos(10 * (i * 7_919 % 2_000)), i);
        }
        let mut last = 0;
        while q.far.len() > 1_500 {
            last = q.pop().expect("pending").0.as_nanos();
            assert_tiers(&q);
        }
        let refilled = q.heap.len();
        assert!(refilled > NEAR_MAX, "refill of {refilled}");
        // Schedules below the bound land in the heap without a split.
        for k in 0..NEAR_KEEP as u64 - 1 {
            q.schedule(SimTime::from_nanos(last + k % 3), k);
            assert_tiers(&q);
        }
        assert_eq!(q.heap.len(), refilled + NEAR_KEEP - 1);
        // One more splits the heap back to the smallest NEAR_KEEP.
        q.schedule(SimTime::from_nanos(last), 0);
        assert_eq!(q.heap.len(), NEAR_KEEP);
        let mut prev = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t.as_nanos() >= prev);
            prev = t.as_nanos();
            assert_tiers(&q);
        }
    }

    proptest::proptest! {
        /// Random `schedule`, `schedule_sorted` and `pop` traces of up to
        /// ~1,000 ops against a `BTreeMap` keyed by (time, seq). Times sit
        /// a few nanoseconds past the last pop (many ties) or up to ~500
        /// ns out (the far tier), and the trace alternates growing and
        /// draining stretches, so the queue splits and refills its near
        /// heap many times, with equal times on both sides of the bound.
        #[test]
        fn pops_match_a_reference_order_on_any_trace(
            ops in proptest::collection::vec(
                (0u8..10, proptest::bool::ANY, proptest::collection::vec(0u64..64, 1..6)),
                600..1_000,
            ),
        ) {
            let mut q = EventQueue::new();
            let mut model: BTreeMap<(u64, u64), usize> = BTreeMap::new();
            let (mut seq, mut id, mut now) = (0u64, 0usize, 0u64);
            for (i, (kind, far, offsets)) in ops.into_iter().enumerate() {
                let pops_below = if (i / 150) % 2 == 0 { 3 } else { 7 };
                let time = |d: u64| now + if far { 8 * d } else { d / 8 };
                if kind < pops_below {
                    let got = q.pop().map(|(t, e)| (t.as_nanos(), e));
                    let want = model.pop_first().map(|((t, _), e)| (t, e));
                    proptest::prop_assert_eq!(got, want);
                    if let Some((t, _)) = got {
                        now = t;
                    }
                } else if kind < 8 {
                    q.schedule(SimTime::from_nanos(time(offsets[0])), id);
                    model.insert((time(offsets[0]), seq), id);
                    seq += 1;
                    id += 1;
                } else {
                    let mut batch: Vec<u64> = offsets.iter().map(|&d| time(d)).collect();
                    if kind == 8 {
                        batch.sort_unstable();
                    }
                    for &t in &batch {
                        model.insert((t, seq), id);
                        seq += 1;
                        id += 1;
                    }
                    let first = id - batch.len();
                    q.schedule_sorted(
                        batch
                            .iter()
                            .enumerate()
                            .map(|(k, &t)| (SimTime::from_nanos(t), first + k)),
                    );
                }
                assert_tiers(&q);
                proptest::prop_assert_eq!(q.len(), model.len());
                proptest::prop_assert_eq!(
                    q.peek_time().map(SimTime::as_nanos),
                    model.keys().next().map(|&(t, _)| t)
                );
            }
            while let Some((t, e)) = q.pop() {
                let want = model.pop_first().map(|((t, _), e)| (t, e));
                proptest::prop_assert_eq!(Some((t.as_nanos(), e)), want);
                assert_tiers(&q);
            }
            proptest::prop_assert!(model.is_empty());
        }

        #[test]
        fn sorted_batches_match_plain_schedules_on_any_trace(
            ops in proptest::collection::vec(
                (0u8..10, proptest::collection::vec(0u64..40, 1..12)),
                1..60,
            ),
        ) {
            // Three in ten ops pop. Random batches are mostly out of
            // order, which exercises the fallback; sorting half of them
            // exercises long runs.
            let ops: Vec<_> = ops
                .into_iter()
                .map(|(kind, mut batch)| match kind {
                    0..=2 => None,
                    3..=6 => {
                        batch.sort_unstable();
                        Some(batch)
                    }
                    _ => Some(batch),
                })
                .collect();
            let (plain, sorted) = both_traces(&ops);
            proptest::prop_assert_eq!(sorted, plain);
        }
    }
}
