//! Deterministic event queue and simulation clock.
//!
//! The queue orders events by `(time, class, sequence)`: ties at the same
//! instant are broken first by the *ordering class* (see below), then by
//! insertion order, so a simulation that schedules events in a deterministic
//! order replays bit-identically regardless of how many events collide on
//! one timestamp. The payload type `E` needs no `Ord` impl.
//!
//! # Ordering classes
//!
//! A driver that materializes its whole workload up front schedules every
//! arrival before the run starts, so arrivals hold the globally lowest
//! sequence numbers and win every same-instant tie against events scheduled
//! during the run. A *streaming* driver schedules arrivals lazily (one
//! pending at a time) and would lose those ties. The ordering class restores
//! the materialized semantics: arrivals are scheduled with
//! [`CLASS_ARRIVAL`] (0), everything else with [`CLASS_DEFAULT`] (1), and
//! class is compared before sequence. For a driver that pre-schedules all
//! arrivals the class is a no-op (arrivals already held the lowest
//! sequences), so both admission paths yield one identical total order.
//!
//! # Lanes and the horizon
//!
//! [`EventQueue`] keeps two binary heaps, its *lanes*, under one order and
//! one sequence counter. [`Lane::Shared`] holds every event that may touch
//! any component; [`Lane::Own`] holds events whose handlers only progress
//! the component that scheduled them. A pop takes the smaller of the two
//! heads, so the pop order is exactly that of a single heap — the lane
//! changes nothing but [`EventQueue::horizon`], the shared head's time: the
//! earliest pending event that could interact with a component running
//! ahead on its own. [`EventQueue::push`] uses the shared lane, so a
//! forgotten lane choice only shortens the horizon.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Ordering class for arrival-like events: wins every same-instant tie
/// against [`CLASS_DEFAULT`] events regardless of scheduling order.
pub const CLASS_ARRIVAL: u8 = 0;

/// Ordering class for everything scheduled during the run.
pub const CLASS_DEFAULT: u8 = 1;

/// Which heap of an [`EventQueue`] an event waits in (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Events that may touch any component; they bound the horizon.
    Shared,
    /// Events private to their producer; they never bound the horizon.
    Own,
}

/// A scheduled event: payload `E` due at `time`.
struct Scheduled<E> {
    time: SimTime,
    class: u8,
    seq: u64,
    payload: E,
}

impl<E> Scheduled<E> {
    /// The total-order key.
    fn key(&self) -> (SimTime, u8, u64) {
        (self.time, self.class, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest event
        // (then the lowest class, then the lowest sequence number) on top.
        other.key().cmp(&self.key())
    }
}

/// A min-queue of timestamped events with deterministic tie-breaking and
/// two lanes (see the module docs).
pub struct EventQueue<E> {
    shared: BinaryHeap<Scheduled<E>>,
    own: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            shared: BinaryHeap::new(),
            own: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time` (shared lane, default class).
    pub fn push(&mut self, time: SimTime, payload: E) {
        self.push_in(Lane::Shared, time, CLASS_DEFAULT, payload);
    }

    /// Schedules `payload` at `time` in `lane` with an explicit ordering
    /// class. The lane never changes the pop order.
    pub fn push_in(&mut self, lane: Lane, time: SimTime, class: u8, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Scheduled {
            time,
            class,
            seq,
            payload,
        };
        match lane {
            Lane::Shared => self.shared.push(ev),
            Lane::Own => self.own.push(ev),
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // `Scheduled`'s order is reversed, so the greater head is earlier.
        let own_first = match (self.shared.peek(), self.own.peek()) {
            (Some(s), Some(o)) => o > s,
            (shared, own) => shared.is_none() && own.is_some(),
        };
        let heap = if own_first {
            &mut self.own
        } else {
            &mut self.shared
        };
        heap.pop().map(|e| (e.time, e.payload))
    }

    /// The due time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heads = self.shared.peek().into_iter().chain(self.own.peek());
        heads.map(|e| e.time).min()
    }

    /// The due time of the earliest shared-lane event, if any.
    pub fn horizon(&self) -> Option<SimTime> {
        self.shared.peek().map(|e| e.time)
    }

    /// Whether any pending event, in either lane, is due exactly at `t`.
    /// A scan over every pending event: O(pending).
    pub fn has_event_at(&self, t: SimTime) -> bool {
        self.shared
            .iter()
            .chain(self.own.iter())
            .any(|e| e.time == t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.shared.len() + self.own.len()
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.shared.is_empty() && self.own.is_empty()
    }
}

/// A simulation clock married to an event queue.
///
/// `Clock` enforces the single invariant every discrete-event simulation
/// depends on: **time never moves backwards**. Components schedule future
/// events through [`Clock::schedule`] / [`Clock::schedule_after`]; the driver
/// loop repeatedly calls [`Clock::next`], which advances `now` to the event's
/// due time and hands the payload back.
pub struct Clock<E> {
    now: SimTime,
    queue: EventQueue<E>,
}

impl<E> Default for Clock<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Clock<E> {
    /// Creates a clock at t = 0 with an empty queue.
    pub fn new() -> Self {
        Clock {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at absolute time `at` (shared lane, default
    /// class).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past: scheduling behind the clock would make
    /// the event fire "now" in an order that depends on queue internals,
    /// which silently breaks determinism. Callers that mean "as soon as
    /// possible" should pass `self.now()`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        self.schedule_in(Lane::Shared, at, CLASS_DEFAULT, payload);
    }

    /// Schedules `payload` at `at` in `lane` with an explicit ordering
    /// class. Same past-scheduling panic as [`Clock::schedule`].
    pub fn schedule_in(&mut self, lane: Lane, at: SimTime, class: u8, payload: E) {
        assert!(
            at >= self.now,
            "Clock::schedule: time {at} is before now ({})",
            self.now
        );
        self.queue.push_in(lane, at, class, payload);
    }

    /// Schedules `payload` after a relative delay.
    pub fn schedule_after(&mut self, delay: crate::time::SimDuration, payload: E) {
        let at = self.now + delay;
        self.queue.push(at, payload);
    }

    /// Pops the next event, advancing `now` to its due time.
    ///
    /// Deliberately named like `Iterator::next`; `Clock` is not an
    /// iterator because popping mutates the clock, but the call-site
    /// reading ("give me the next event") is the same.
    #[expect(
        clippy::should_implement_trait,
        reason = "popping mutates the clock, so Clock is not an Iterator"
    )]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop()?;
        debug_assert!(t >= self.now, "event queue yielded an event in the past");
        self.now = t;
        Some((t, e))
    }

    /// Due time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Due time of the earliest shared-lane event ([`EventQueue::horizon`]).
    pub fn horizon(&self) -> Option<SimTime> {
        self.queue.horizon()
    }

    /// Whether any pending event is due exactly at `t`
    /// ([`EventQueue::has_event_at`], O(pending)).
    pub fn has_event_at(&self, t: SimTime) -> bool {
        self.queue.has_event_at(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn class_breaks_ties_before_sequence() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.push(t, "default-early");
        q.push_in(Lane::Shared, t, CLASS_ARRIVAL, "arrival-late");
        q.push(t, "default-later");
        // The arrival wins the tie despite its later sequence number.
        assert_eq!(q.pop(), Some((t, "arrival-late")));
        assert_eq!(q.pop(), Some((t, "default-early")));
        assert_eq!(q.pop(), Some((t, "default-later")));
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c: Clock<u32> = Clock::new();
        c.schedule(SimTime::from_secs(1), 1);
        c.schedule_after(SimDuration::from_millis(10), 2);
        let (t1, e1) = c.next().unwrap();
        assert_eq!((t1, e1), (SimTime::from_millis(10), 2));
        assert_eq!(c.now(), SimTime::from_millis(10));
        let (t2, e2) = c.next().unwrap();
        assert_eq!((t2, e2), (SimTime::from_secs(1), 1));
        assert!(c.next().is_none());
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut c: Clock<u32> = Clock::new();
        c.schedule(SimTime::from_secs(1), 1);
        c.next();
        c.schedule(SimTime::from_millis(1), 2);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
