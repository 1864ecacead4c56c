//! A minimal discrete-event simulation engine: a time-ordered event queue
//! with deterministic FIFO tie-breaking and a run loop that lets handlers
//! schedule further events.

use cloudscope_model::time::SimTime;

/// The binary-heap queue the calendar replaced, kept test-only: it is the
/// semantics oracle `calendar::tests` drives the calendar queue against.
#[cfg(test)]
pub(crate) mod heap {
    use cloudscope_model::time::SimTime;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// An event queue ordered by time; events at equal times pop in
    /// insertion order (deterministic replay).
    #[derive(Debug)]
    pub struct EventQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        seq: u64,
    }

    #[derive(Debug)]
    struct Entry<E> {
        time: SimTime,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
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
            // BinaryHeap is a max-heap; invert for earliest-first.
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    impl<E> EventQueue<E> {
        /// Creates an empty queue.
        pub fn new() -> Self {
            Self {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }

        /// Schedules `event` at `time`.
        pub fn schedule(&mut self, time: SimTime, event: E) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry { time, seq, event });
        }

        /// Removes and returns the earliest event.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|e| (e.time, e.event))
        }

        /// Time of the earliest event without removing it.
        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }

        /// Number of pending events.
        pub fn len(&self) -> usize {
            self.heap.len()
        }
    }
}

/// A discrete-event simulation: an event queue plus a clock. The handler
/// receives each event and a [`Scheduler`] handle to enqueue follow-ups.
///
/// Events are queued on a [`crate::CalendarQueue`] (O(1) per operation
/// over the trace week's minute grid) and pop in `(time, insertion
/// order)`.
///
/// # Examples
/// ```
/// # use cloudscope_sim::engine::Simulation;
/// # use cloudscope_model::time::{SimTime, SimDuration};
/// let mut sim = Simulation::new();
/// sim.schedule(SimTime::ZERO, 1u32);
/// let mut seen = Vec::new();
/// sim.run(SimTime::from_hours(10), |scheduler, time, event| {
///     seen.push((time, event));
///     if event < 3 {
///         scheduler.schedule(time + SimDuration::HOUR, event + 1);
///     }
/// });
/// assert_eq!(seen.len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct Simulation<E> {
    queue: crate::CalendarQueue<E>,
    now: SimTime,
    /// Watermarks of queue totals already flushed to the metrics
    /// registry, so repeated `run` calls emit deltas, not re-counts.
    flushed_scheduled: u64,
    flushed_overflow: u64,
}

/// Handle given to event handlers for scheduling follow-up events.
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    queue: &'a mut crate::CalendarQueue<E>,
    now: SimTime,
}

impl<E> Scheduler<'_, E> {
    /// Schedules an event; times before "now" are clamped to now (events
    /// cannot be scheduled in the past).
    pub fn schedule(&mut self, time: SimTime, event: E) {
        self.queue.schedule(time.max(self.now), event);
    }

    /// The current simulation time.
    #[must_use]
    pub const fn now(&self) -> SimTime {
        self.now
    }
}

impl<E> Simulation<E> {
    /// Creates an empty simulation at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            queue: crate::CalendarQueue::new(),
            now: SimTime::ZERO,
            flushed_scheduled: 0,
            flushed_overflow: 0,
        }
    }

    /// Schedules an initial event.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        self.queue.schedule(time, event);
    }

    /// Current simulation time (the time of the last handled event).
    #[must_use]
    pub const fn now(&self) -> SimTime {
        self.now
    }

    /// Runs until the queue drains or the next event is at/after `until`
    /// (events strictly before `until` are processed). Returns the number
    /// of events handled.
    pub fn run<F>(&mut self, until: SimTime, mut handler: F) -> u64
    where
        F: FnMut(&mut Scheduler<'_, E>, SimTime, E),
    {
        let mut handled = 0;
        // Track the peak locally and flush once after the loop: the run
        // loop is the engine's hot path and must not take a registry
        // lookup per event.
        let mut peak_depth = self.queue.len();
        while let Some(next) = self.queue.peek_time() {
            if next >= until {
                break;
            }
            peak_depth = peak_depth.max(self.queue.len());
            let (time, event) = self.queue.pop().expect("peeked");
            self.now = time;
            let mut scheduler = Scheduler {
                queue: &mut self.queue,
                now: time,
            };
            handler(&mut scheduler, time, event);
            handled += 1;
        }
        cloudscope_obs::counter("sim.engine.events_processed").add(handled);
        cloudscope_obs::gauge("sim.engine.peak_queue_depth").set_max(peak_depth as f64);
        let scheduled = self.queue.scheduled_total();
        cloudscope_obs::counter("sim.queue.scheduled").add(scheduled - self.flushed_scheduled);
        self.flushed_scheduled = scheduled;
        let overflow = self.queue.overflow_total();
        cloudscope_obs::counter("sim.queue.overflow_events").add(overflow - self.flushed_overflow);
        self.flushed_overflow = overflow;
        handled
    }
}

#[cfg(test)]
mod tests {
    use super::heap::EventQueue;
    use super::*;
    use cloudscope_model::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_hours(3), "c");
        q.schedule(SimTime::from_hours(1), "a");
        q.schedule(SimTime::from_hours(2), "b");
        assert_eq!(q.peek_time(), Some(SimTime::from_hours(1)));
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_hours(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn run_processes_cascading_events() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::ZERO, 0u32);
        let mut order = Vec::new();
        sim.run(SimTime::from_days(1), |s, t, e| {
            order.push(e);
            if e < 5 {
                s.schedule(t + SimDuration::HOUR, e + 1);
            }
        });
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(sim.now(), SimTime::from_hours(5));
        assert_eq!(sim.queue.len(), 0);
    }

    #[test]
    fn run_stops_at_horizon() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_hours(1), ());
        sim.schedule(SimTime::from_hours(5), ());
        let handled = sim.run(SimTime::from_hours(5), |_, _, ()| {});
        assert_eq!(handled, 1, "event at the horizon is not processed");
        assert_eq!(sim.queue.len(), 1);
    }

    #[test]
    fn scheduling_in_the_past_is_clamped() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_hours(2), true);
        let mut times = Vec::new();
        sim.run(SimTime::from_days(1), |s, t, first| {
            times.push(t);
            if first {
                // Try to schedule before now; must be clamped to now.
                s.schedule(SimTime::ZERO, false);
                assert_eq!(s.now(), SimTime::from_hours(2));
            }
        });
        assert_eq!(times, vec![SimTime::from_hours(2), SimTime::from_hours(2)]);
    }

    #[test]
    fn empty_run_handles_nothing() {
        let mut sim: Simulation<()> = Simulation::new();
        assert_eq!(sim.run(SimTime::WEEK_END, |_, _, ()| {}), 0);
    }
}
