//! Stable discrete-event queue.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry: fire time, insertion sequence (for stable FIFO
/// ordering among same-time events), and the payload.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // Reversed for min-heap behaviour on BinaryHeap (a max-heap):
        // earliest time first; FIFO (lowest seq) among equal times.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
///
/// Events scheduled for the same instant pop in insertion order, which makes
/// whole-simulation runs bit-reproducible — a prerequisite for the paper's
/// scheme-vs-scheme comparisons (identical arrival streams must produce
/// identical environments for every scheduler).
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0, now: SimTime::ZERO }
    }

    /// Creates an empty queue with pre-reserved capacity for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        EventQueue { heap: BinaryHeap::with_capacity(n), next_seq: 0, now: SimTime::ZERO }
    }

    /// Current simulation time: the fire time of the most recently popped
    /// event (zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (before the last popped event), which
    /// would indicate a causality bug in the caller.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past: {at} < now {}", self.now);
        self.heap.push(Entry { at, seq: self.next_seq, event });
        self.next_seq += 1;
    }

    /// Pops the earliest event, advancing the clock to its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Fire time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// The next event and its fire time, without popping it.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|e| (e.at, &e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        q.pop();
        q.schedule(SimTime::from_millis(5), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 1);
        q.pop();
        q.schedule(q.now(), 2); // zero-delay follow-up event
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3) + SimDuration::from_micros(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(3001)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_shows_the_event_that_pops_next() {
        let mut q = EventQueue::new();
        assert!(q.peek().is_none());
        let t = SimTime::from_millis(4);
        q.schedule(SimTime::from_millis(9), "later");
        q.schedule(t, "first");
        q.schedule(t, "second");
        assert_eq!(q.peek(), Some((t, &"first")));
        assert_eq!(q.pop(), Some((t, "first")));
        assert_eq!(q.peek(), Some((t, &"second")));
        assert_eq!(q.len(), 2);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popped times are a sorted permutation of scheduled times, and
        /// equal-time events preserve insertion order (total determinism).
        #[test]
        fn total_order_and_stability(times in prop::collection::vec(0u64..1000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(t), i);
            }
            let mut popped: Vec<(SimTime, usize)> = Vec::new();
            while let Some(x) = q.pop() { popped.push(x); }
            prop_assert_eq!(popped.len(), times.len());
            for w in popped.windows(2) {
                prop_assert!(w[0].0 <= w[1].0);
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].1 < w[1].1, "FIFO violated for same-time events");
                }
            }
            // Multiset of times preserved.
            let mut scheduled: Vec<u64> = times.clone();
            scheduled.sort_unstable();
            let got: Vec<u64> = popped.iter().map(|(t, _)| t.as_micros()).collect();
            prop_assert_eq!(scheduled, got);
        }
    }
}
