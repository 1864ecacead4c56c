//! Calendar (bucket) event queue: O(1) scheduling and popping for the
//! trace week's integer-minute timestamps.
//!
//! A `BinaryHeap` costs O(log n) per operation and compares
//! `(time, seq)` pairs on every sift. Trace generation schedules
//! hundreds of thousands of events whose times all land on whole minutes
//! inside one simulated week, so a calendar queue — one FIFO bucket per
//! minute of `[SimTime::ZERO, SimTime::WEEK_END]` — replaces the heap's
//! comparisons with array indexing.
//!
//! ## Tie-breaking
//!
//! Events at equal times pop in insertion order. Within a bucket that
//! is literally append order: the bucket granularity is a single minute
//! and times are whole minutes, so every entry of a bucket shares one
//! timestamp and FIFO needs no comparisons at all. (A coarser bucket — say the 5-minute
//! telemetry grid — would break this: a mid-drain insertion at an
//! earlier minute of the current bucket would have to pop before
//! already-buffered later-minute entries, forcing a sorted structure per
//! bucket. That is why the calendar deviates from the sampling grid and
//! buckets by minute.)
//!
//! ## Overflow
//!
//! Times outside the trace week — or behind an already-drained bucket,
//! which [`crate::Scheduler`]'s past-clamping makes unreachable in
//! simulation use but the public API permits — go to a small fallback
//! `BinaryHeap` with the same `(time, seq)` ordering. `pop` merges the
//! two structures by `(time, seq)`, so the queue behaves exactly like
//! a single `(time, seq)` heap for arbitrary schedules: the calendar is
//! a fast path, never a semantic change. (Ties across the two structures are
//! impossible by construction — an event is only diverted to overflow
//! when its minute can never host a calendar entry again — but the
//! merge compares the full `(time, seq)` key anyway.) The unit tests
//! drive this queue and a test-only binary heap through identical
//! random schedules and assert identical pop streams.

use cloudscope_model::time::{SimTime, MINUTES_PER_WEEK};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Bucket count: one per whole minute in `[0, MINUTES_PER_WEEK]`, both
/// ends inclusive so `SimTime::WEEK_END` itself stays on the fast path.
const BUCKETS: usize = MINUTES_PER_WEEK as usize + 1;

/// An event queue ordered by `(time, insertion order)`, served from
/// per-minute calendar buckets with a heap fallback for out-of-window
/// times.
#[derive(Debug)]
pub struct CalendarQueue<E> {
    /// `buckets[m]` holds the events scheduled at minute `m`, in
    /// insertion order. All entries of one bucket share one timestamp,
    /// so `pop_front` is exactly the heap's `(time, seq)` order.
    buckets: Vec<VecDeque<(u64, E)>>,
    /// First bucket that may still hold pending entries; only ever
    /// advances.
    cursor: usize,
    /// Events outside the calendar window, ordered by `(time, seq)`.
    overflow: BinaryHeap<OverflowEntry<E>>,
    /// Next insertion sequence number (shared by both structures).
    seq: u64,
    /// Pending events across both structures.
    pending: usize,
    /// Lifetime insertion count, flushed to `sim.queue.scheduled`.
    scheduled_total: u64,
    /// Lifetime overflow insertions, flushed to
    /// `sim.queue.overflow_events`.
    overflow_total: u64,
}

#[derive(Debug)]
struct OverflowEntry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for OverflowEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for OverflowEntry<E> {}
impl<E> PartialOrd for OverflowEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for OverflowEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue. The bucket array is allocated up front
    /// (one empty deque per minute of the week; deques allocate nothing
    /// until first use).
    #[must_use]
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(BUCKETS);
        buckets.resize_with(BUCKETS, VecDeque::new);
        Self {
            buckets,
            cursor: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            pending: 0,
            scheduled_total: 0,
            overflow_total: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.pending += 1;
        self.scheduled_total += 1;
        let minutes = time.minutes();
        // A minute at or ahead of the cursor can still be drained in
        // order; anything else (out of window, or behind an exhausted
        // bucket) must merge through the overflow heap.
        if minutes >= self.cursor as i64 && minutes < BUCKETS as i64 {
            self.buckets[minutes as usize].push_back((seq, event));
        } else {
            self.overflow_total += 1;
            self.overflow.push(OverflowEntry { time, seq, event });
        }
    }

    /// Advances the cursor to the first non-empty bucket (if any),
    /// releasing the storage of every drained bucket it passes: nothing
    /// is scheduled behind the cursor again, so keeping a bucket at its
    /// high-water capacity would make queue memory O(events ever
    /// scheduled) instead of O(pending).
    fn settle_cursor(&mut self) {
        while self.cursor < BUCKETS && self.buckets[self.cursor].is_empty() {
            self.buckets[self.cursor] = VecDeque::new();
            self.cursor += 1;
        }
    }

    /// `(time, seq)` of the earliest calendar entry, if any.
    fn calendar_front(&mut self) -> Option<(SimTime, u64)> {
        self.settle_cursor();
        let &(seq, _) = self.buckets.get(self.cursor)?.front()?;
        Some((SimTime::from_minutes(self.cursor as i64), seq))
    }

    /// Removes and returns the earliest event; ties at one timestamp pop
    /// in insertion order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let take_overflow = match (
            self.calendar_front(),
            self.overflow.peek().map(|e| (e.time, e.seq)),
        ) {
            (None, None) => return None,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (Some(cal), Some(ovf)) => ovf < cal,
        };
        self.pending -= 1;
        if take_overflow {
            let e = self.overflow.pop().expect("peeked");
            Some((e.time, e.event))
        } else {
            let time = SimTime::from_minutes(self.cursor as i64);
            let (_, event) = self.buckets[self.cursor].pop_front().expect("settled");
            Some((time, event))
        }
    }

    /// Time of the earliest event without removing it. Takes `&mut self`
    /// because peeking settles the bucket cursor.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let cal = self.calendar_front();
        let ovf = self.overflow.peek().map(|e| (e.time, e.seq));
        match (cal, ovf) {
            (None, None) => None,
            (Some((t, _)), None) | (None, Some((t, _))) => Some(t),
            (Some(c), Some(o)) => Some(c.min(o).0),
        }
    }

    /// Number of pending events.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.pending
    }

    /// `true` if no events are pending.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Lifetime count of scheduled events, for the `sim.queue.scheduled`
    /// metric (flushed once per [`crate::Simulation::run`]).
    #[must_use]
    pub const fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Lifetime count of events that missed the calendar window and went
    /// through the fallback heap (`sim.queue.overflow_events`). In
    /// simulation use this stays 0; a nonzero value flags schedules
    /// outside the trace week.
    #[must_use]
    pub const fn overflow_total(&self) -> u64 {
        self.overflow_total
    }

    /// Entries' worth of storage still held by buckets behind the
    /// cursor.
    #[cfg(test)]
    fn drained_capacity(&self) -> usize {
        self.buckets[..self.cursor]
            .iter()
            .map(VecDeque::capacity)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::heap::EventQueue;
    use crate::rng::splitmix64;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_hours(3), "c");
        q.schedule(SimTime::from_hours(1), "a");
        q.schedule(SimTime::from_hours(2), "b");
        assert_eq!(q.peek_time(), Some(SimTime::from_hours(1)));
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    /// The documented tie-break: equal timestamps pop in insertion
    /// order, including insertions made *while* the bucket is draining.
    #[test]
    fn equal_times_pop_fifo() {
        let mut q = CalendarQueue::new();
        let t = SimTime::from_hours(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..50 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        // Mid-drain insertions at the same timestamp queue behind the
        // remaining 50, in their own insertion order.
        q.schedule(t, 100);
        q.schedule(t, 101);
        for i in (50..100).chain(100..102) {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn out_of_window_times_overflow_but_stay_ordered() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_minutes(-30), "before-week");
        q.schedule(
            SimTime::WEEK_END + cloudscope_model::time::SimDuration::HOUR,
            "after-week",
        );
        q.schedule(SimTime::from_hours(1), "in-week");
        assert_eq!(q.overflow_total(), 2);
        assert_eq!(q.scheduled_total(), 3);
        assert_eq!(q.pop().unwrap().1, "before-week");
        assert_eq!(q.pop().unwrap().1, "in-week");
        assert_eq!(q.pop().unwrap().1, "after-week");
    }

    #[test]
    fn insertion_behind_cursor_falls_back_to_overflow() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_hours(2), "first");
        assert_eq!(q.pop().unwrap().1, "first");
        // Minute 0 is behind the drained cursor now.
        q.schedule(SimTime::ZERO, "late");
        q.schedule(SimTime::from_hours(3), "next");
        assert_eq!(q.overflow_total(), 1);
        // The late event still pops first: overflow merges by time.
        assert_eq!(q.pop().unwrap(), (SimTime::ZERO, "late"));
        assert_eq!(q.pop().unwrap().1, "next");
    }

    /// Queue memory follows what is pending, not what was ever
    /// scheduled: a bucket the cursor has passed holds no storage.
    #[test]
    fn drained_buckets_release_their_storage() {
        let mut q = CalendarQueue::new();
        for i in 0..4_000u32 {
            q.schedule(SimTime::from_minutes(i64::from(i % 500) * 7), i);
        }
        // Half-way: every bucket behind the cursor is already released
        // while the rest of the schedule is still pending.
        for _ in 0..2_000 {
            assert!(q.pop().is_some());
        }
        assert!(q.cursor > 0 && !q.is_empty());
        assert_eq!(q.drained_capacity(), 0);
        while q.pop().is_some() {}
        assert_eq!(q.cursor, BUCKETS);
        assert_eq!(q.drained_capacity(), 0);
    }

    /// Oracle test: random interleaved schedules and pops must produce
    /// the identical stream from the calendar and from the binary heap.
    #[test]
    fn matches_heap_oracle_on_random_schedules() {
        let mut state = 0x00c0_ffee_u64;
        let mut rng = move || splitmix64(&mut state);
        for round in 0..20 {
            let mut cal = CalendarQueue::new();
            let mut heap = EventQueue::new();
            for i in 0..500u32 {
                if rng() % 4 == 0 {
                    assert_eq!(cal.pop(), heap.pop(), "round {round}");
                } else {
                    // Mostly in-week minutes, some duplicates, a few
                    // out-of-window stragglers.
                    let m = match rng() % 10 {
                        0 => -(i64::try_from(rng() % 100).unwrap()),
                        1 => MINUTES_PER_WEEK + (rng() % 100) as i64,
                        _ => (rng() % (MINUTES_PER_WEEK as u64 / 16)) as i64,
                    };
                    let t = SimTime::from_minutes(m);
                    cal.schedule(t, i);
                    heap.schedule(t, i);
                }
                assert_eq!(cal.len(), heap.len());
                assert_eq!(cal.peek_time(), heap.peek_time());
            }
            while let Some(got) = cal.pop() {
                assert_eq!(Some(got), heap.pop(), "round {round} drain");
            }
            assert!(heap.pop().is_none());
        }
    }
}
