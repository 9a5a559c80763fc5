//! Total-order, insertion-stable event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Cycle;

/// An event tagged with its firing time and a monotonically increasing
/// sequence number.
///
/// The sequence number guarantees a *stable* order: two events scheduled
/// for the same cycle fire in the order they were scheduled. This makes
/// every simulation in this workspace fully deterministic, which the
/// reproduction leans on heavily (cycle counts must be exactly repeatable
/// for the MAPE validation to be meaningful).
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    time: Cycle,
    seq: u64,
    event: E,
}

impl<E> ScheduledEvent<E> {
    /// The cycle at which the event fires.
    pub fn time(&self) -> Cycle {
        self.time
    }

    /// The scheduling sequence number (FIFO tiebreak within a cycle).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// A reference to the payload.
    pub fn event(&self) -> &E {
        &self.event
    }

    /// Consumes the entry, returning `(time, payload)`.
    pub fn into_parts(self) -> (Cycle, E) {
        (self.time, self.event)
    }
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    /// Reversed so that the `BinaryHeap` (a max-heap) pops the *earliest*
    /// event first, breaking ties by sequence number.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of timed events with deterministic FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use mpsoc_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle::new(10), "late");
/// q.push(Cycle::new(5), "early");
/// q.push(Cycle::new(5), "early-second");
///
/// assert_eq!(q.pop().map(|e| e.into_parts()), Some((Cycle::new(5), "early")));
/// assert_eq!(q.pop().map(|e| e.into_parts()), Some((Cycle::new(5), "early-second")));
/// assert_eq!(q.pop().map(|e| e.into_parts()), Some((Cycle::new(10), "late")));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { time, seq, event });
    }

    /// Removes and returns the earliest event, `None` if empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop()
    }

    /// Returns the firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Drops all pending events (the sequence counter keeps advancing so
    /// determinism of subsequently scheduled events is unaffected).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// Handle through which event handlers schedule future events: an
/// [`EventQueue`] borrowed at simulation time `now`.
///
/// Models own their persistent queue and pump it themselves (pausing,
/// resuming, interleaving external submissions): pop an event, attach a
/// scheduler for its delivery, let the handler push follow-ups. The
/// queue keeps its `(time, seq)` order across attachments, so
/// determinism is unaffected. Scheduling into the past is a logic
/// error; see [`Scheduler::schedule_at`].
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    queue: &'a mut EventQueue<E>,
    now: Cycle,
}

impl<'a, E> Scheduler<'a, E> {
    /// Wraps an externally owned queue at simulation time `now`.
    pub fn attach(queue: &'a mut EventQueue<E>, now: Cycle) -> Self {
        Scheduler { queue, now }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time: the clock only
    /// moves forward, and an event in the past would silently corrupt
    /// causality.
    pub fn schedule_at(&mut self, at: Cycle, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            at
        );
        self.queue.push(at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(30), 3);
        q.push(Cycle::new(10), 1);
        q.push(Cycle::new(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| *e.event())).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle::new(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| *e.event())).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_times_and_fifo() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(5), "a");
        q.push(Cycle::new(1), "b");
        q.push(Cycle::new(5), "c");
        q.push(Cycle::new(1), "d");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| *e.event())).collect();
        assert_eq!(order, vec!["b", "d", "a", "c"]);
    }

    #[test]
    fn peek_len_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Cycle::new(3), ());
        q.push(Cycle::new(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycle::new(1)));
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_preserves_sequence_counter() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(1), 0);
        q.push(Cycle::new(1), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
        q.push(Cycle::new(1), 2);
        assert_eq!(q.scheduled_total(), 3);
    }

    #[test]
    fn scheduled_event_accessors() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(4), 'x');
        let ev = q.pop().expect("one event");
        assert_eq!(ev.time(), Cycle::new(4));
        assert_eq!(ev.seq(), 0);
        assert_eq!(*ev.event(), 'x');
    }

    #[test]
    fn scheduler_pushes_into_the_attached_queue() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(7), "queued");
        let mut sched = Scheduler::attach(&mut q, Cycle::new(5));
        sched.schedule_at(Cycle::new(5), "now");
        sched.schedule_at(Cycle::new(7), "later");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| *e.event())).collect();
        assert_eq!(order, ["now", "queued", "later"]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduler_refuses_the_past() {
        let mut q = EventQueue::new();
        Scheduler::attach(&mut q, Cycle::new(10)).schedule_at(Cycle::new(5), ());
    }
}
