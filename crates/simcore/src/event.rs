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
//! # Sharding
//!
//! At thousands of simulated components a single global binary heap becomes
//! the push/pop bottleneck. [`EventQueue`] therefore maintains per-shard
//! sub-heaps with a cached-min merge front (a `BTreeSet` holding each
//! non-empty shard's head key). The global sequence counter spans all
//! shards, so the pop order is *identical* to an unsharded queue — sharding
//! changes only the cost per operation (`O(log shard_len)` heap work plus
//! `O(log shards)` front maintenance), never the order. Callers that do not
//! care push to shard 0 via [`EventQueue::push`].

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

/// Ordering class for arrival-like events: wins every same-instant tie
/// against [`CLASS_DEFAULT`] events regardless of scheduling order.
pub const CLASS_ARRIVAL: u8 = 0;

/// Ordering class for everything scheduled during the run.
pub const CLASS_DEFAULT: u8 = 1;

/// A scheduled event: payload `E` due at `time`.
struct Scheduled<E> {
    time: SimTime,
    class: u8,
    seq: u64,
    payload: E,
}

impl<E> Scheduled<E> {
    /// The total-order key (also the merge-front key, with the shard id
    /// appended by the queue).
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

/// Merge-front key: a shard head's total-order key plus the shard index.
/// Sequence numbers are globally unique, so keys never collide and the
/// shard index never influences the order — it is payload, carried so a
/// popped front entry knows which sub-heap to visit.
type FrontKey = (SimTime, u8, u64, u32);

/// A min-queue of timestamped events with deterministic tie-breaking and
/// optional sharding (see the module docs).
pub struct EventQueue<E> {
    /// Per-shard sub-heaps. Shard 0 always exists; higher shards are
    /// created on first use.
    shards: Vec<BinaryHeap<Scheduled<E>>>,
    /// Head key of every non-empty shard, eagerly maintained.
    front: BTreeSet<FrontKey>,
    next_seq: u64,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue (one shard until [`EventQueue::push_sharded`]
    /// grows it).
    pub fn new() -> Self {
        EventQueue {
            shards: vec![BinaryHeap::new()],
            front: BTreeSet::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedules `payload` to fire at `time` (shard 0, default class).
    pub fn push(&mut self, time: SimTime, payload: E) {
        self.push_sharded(0, time, CLASS_DEFAULT, payload);
    }

    /// Schedules `payload` at `time` with an explicit ordering class
    /// (shard 0).
    pub fn push_class(&mut self, time: SimTime, class: u8, payload: E) {
        self.push_sharded(0, time, class, payload);
    }

    /// Schedules `payload` at `time` on `shard` with an explicit ordering
    /// class. Shards are created on demand; the pop order is independent of
    /// the shard layout (see the module docs).
    pub fn push_sharded(&mut self, shard: usize, time: SimTime, class: u8, payload: E) {
        if shard >= self.shards.len() {
            self.shards.resize_with(shard + 1, BinaryHeap::new);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let heap = &mut self.shards[shard];
        let old_head = heap.peek().map(Scheduled::key);
        heap.push(Scheduled {
            time,
            class,
            seq,
            payload,
        });
        // Eager front maintenance: replace this shard's front entry iff the
        // push became the new shard head.
        let new_head = heap.peek().map(Scheduled::key);
        if new_head != old_head {
            if let Some((t, c, s)) = old_head {
                self.front.remove(&(t, c, s, shard as u32));
            }
            if let Some((t, c, s)) = new_head {
                self.front.insert((t, c, s, shard as u32));
            }
        }
        self.len += 1;
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let &(t, c, s, shard) = self.front.first()?;
        self.front.remove(&(t, c, s, shard));
        let heap = &mut self.shards[shard as usize];
        let ev = heap.pop();
        debug_assert!(
            ev.as_ref().map(Scheduled::key) == Some((t, c, s)),
            "merge front out of sync with shard head"
        );
        if let Some(next) = heap.peek() {
            let (nt, nc, ns) = next.key();
            self.front.insert((nt, nc, ns, shard));
        }
        ev.map(|e| {
            self.len -= 1;
            (e.time, e.payload)
        })
    }

    /// The due time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front.first().map(|&(t, _, _, _)| t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events (the shard layout is kept).
    pub fn clear(&mut self) {
        for h in &mut self.shards {
            h.clear();
        }
        self.front.clear();
        self.len = 0;
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

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past: scheduling behind the clock would make
    /// the event fire "now" in an order that depends on queue internals,
    /// which silently breaks determinism. Callers that mean "as soon as
    /// possible" should pass `self.now()`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "Clock::schedule: time {at} is before now ({})",
            self.now
        );
        self.queue.push(at, payload);
    }

    /// Schedules `payload` at `at` on an event-queue shard with an explicit
    /// ordering class. Same past-scheduling panic as [`Clock::schedule`];
    /// the pop order is independent of the shard layout.
    pub fn schedule_sharded(&mut self, at: SimTime, shard: usize, class: u8, payload: E) {
        assert!(
            at >= self.now,
            "Clock::schedule_sharded: time {at} is before now ({})",
            self.now
        );
        self.queue.push_sharded(shard, at, class, payload);
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
    #[allow(clippy::should_implement_trait)]
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

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Whether any events are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

/// A multiset of event times with an O(1) minimum.
///
/// Drivers that hand engines a *lookahead horizon* (the earliest pending
/// event that could interact with them) consult the minimum on every wake,
/// which makes a tree-walk per query the hot path. The multiset caches the
/// minimum and only re-derives it (one `BTreeMap` range scan) when the
/// removal that emptied the smallest key invalidates it; inserts refresh it
/// with a plain comparison.
///
/// Removals leave *tombstones* (zero-count entries) rather than paying a
/// tree rebalance per remove; the table is compacted in one `retain` pass
/// whenever dead entries outnumber live ones, so million-event runs keep
/// the structure at O(live) size with amortized O(1) cleanup.
#[derive(Debug, Default)]
pub struct TimeMultiset {
    counts: std::collections::BTreeMap<SimTime, u32>,
    cached_min: Option<SimTime>,
    /// Keys with a positive count.
    live: usize,
    /// Tombstoned keys (count == 0) awaiting compaction.
    dead: usize,
}

impl TimeMultiset {
    /// Creates an empty multiset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one occurrence of `t`.
    pub fn insert(&mut self, t: SimTime) {
        match self.counts.entry(t) {
            std::collections::btree_map::Entry::Occupied(mut o) => {
                if *o.get() == 0 {
                    // Resurrected tombstone.
                    self.dead -= 1;
                    self.live += 1;
                }
                *o.get_mut() += 1;
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(1);
                self.live += 1;
            }
        }
        if self.cached_min.is_none_or(|m| t < m) {
            self.cached_min = Some(t);
        }
    }

    /// Removes one occurrence of `t`. Removing a time that is not present
    /// is a no-op (loud in debug builds): the caller's insert/remove
    /// pairing is the invariant, not this container's job to repair.
    pub fn remove(&mut self, t: SimTime) {
        match self.counts.get_mut(&t) {
            None | Some(0) => {
                debug_assert!(false, "TimeMultiset::remove of absent time {t}");
            }
            Some(n) => {
                *n -= 1;
                if *n == 0 {
                    self.live -= 1;
                    self.dead += 1;
                    if self.cached_min == Some(t) {
                        // Next live key at or after the dead minimum; the
                        // skipped tombstones fall to the compaction below.
                        self.cached_min = self
                            .counts
                            .range(t..)
                            .find(|(_, &c)| c > 0)
                            .map(|(&k, _)| k);
                    }
                    if self.dead > self.live {
                        self.compact();
                    }
                }
            }
        }
    }

    /// Drops every tombstone in one pass.
    fn compact(&mut self) {
        self.counts.retain(|_, c| *c > 0);
        self.dead = 0;
    }

    /// The smallest time present, if any. O(1).
    pub fn min(&self) -> Option<SimTime> {
        self.cached_min
    }

    /// Whether the multiset holds no times.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether at least one occurrence of `t` is present. Live-ingress
    /// drivers use this to place injected arrivals on collision-free
    /// instants so FIFO tie-breaking cannot diverge between a live run
    /// and its replay.
    pub fn contains(&self, t: SimTime) -> bool {
        self.counts.get(&t).is_some_and(|&c| c > 0)
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
        q.push_class(t, CLASS_ARRIVAL, "arrival-late");
        q.push(t, "default-later");
        // The arrival wins the tie despite its later sequence number.
        assert_eq!(q.pop(), Some((t, "arrival-late")));
        assert_eq!(q.pop(), Some((t, "default-early")));
        assert_eq!(q.pop(), Some((t, "default-later")));
    }

    #[test]
    fn sharded_pop_order_matches_unsharded() {
        // Deterministic pseudo-random schedule pushed twice: once all on
        // shard 0, once spread over 7 shards. Pop orders must be identical.
        let mut single = EventQueue::new();
        let mut sharded = EventQueue::new();
        let mut x: u64 = 0x2545f4914f6cdd1d;
        for i in 0..500u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = SimTime::from_nanos(x % 40);
            let class = if x.is_multiple_of(5) {
                CLASS_ARRIVAL
            } else {
                CLASS_DEFAULT
            };
            single.push_class(t, class, i);
            sharded.push_sharded((x % 7) as usize, t, class, i);
        }
        assert_eq!(single.len(), sharded.len());
        while let Some(a) = single.pop() {
            assert_eq!(Some(a), sharded.pop());
        }
        assert!(sharded.is_empty());
    }

    #[test]
    fn sharded_peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push_sharded(3, SimTime::from_millis(9), CLASS_DEFAULT, "late");
        q.push_sharded(1, SimTime::from_millis(2), CLASS_DEFAULT, "early");
        q.push_sharded(2, SimTime::from_millis(4), CLASS_DEFAULT, "mid");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), "early")));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(4)));
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty() && q.pop().is_none());
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

    #[test]
    fn clock_schedule_sharded_preserves_order() {
        let mut c: Clock<&str> = Clock::new();
        c.schedule_sharded(SimTime::from_millis(4), 2, CLASS_DEFAULT, "wake");
        c.schedule_sharded(SimTime::from_millis(4), 0, CLASS_ARRIVAL, "arrival");
        assert_eq!(c.next(), Some((SimTime::from_millis(4), "arrival")));
        assert_eq!(c.next(), Some((SimTime::from_millis(4), "wake")));
    }

    #[test]
    fn time_multiset_tracks_min_through_inserts_and_removes() {
        let mut m = TimeMultiset::new();
        assert_eq!(m.min(), None);
        assert!(m.is_empty());
        let (t1, t2, t3) = (
            SimTime::from_millis(1),
            SimTime::from_millis(2),
            SimTime::from_millis(3),
        );
        m.insert(t2);
        m.insert(t3);
        assert_eq!(m.min(), Some(t2));
        m.insert(t1);
        m.insert(t1);
        assert_eq!(m.min(), Some(t1));
        // Duplicate removal: min holds until the last occurrence goes.
        m.remove(t1);
        assert_eq!(m.min(), Some(t1));
        m.remove(t1);
        assert_eq!(m.min(), Some(t2));
        // Removing a non-min key never disturbs the cache.
        m.remove(t3);
        assert_eq!(m.min(), Some(t2));
        m.remove(t2);
        assert_eq!(m.min(), None);
        assert!(m.is_empty());
        // Tombstones do not make removed keys look present.
        assert!(!m.contains(t1) && !m.contains(t2) && !m.contains(t3));
    }

    #[test]
    fn time_multiset_matches_naive_scan() {
        // Deterministic pseudo-random interleaving of inserts/removes,
        // cross-checked against a recomputed min each step.
        let mut m = TimeMultiset::new();
        let mut shadow: Vec<SimTime> = Vec::new();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = SimTime::from_nanos(x % 16);
            if x.is_multiple_of(3) && !shadow.is_empty() {
                let idx = (x as usize / 3) % shadow.len();
                let victim = shadow.swap_remove(idx);
                m.remove(victim);
            } else {
                shadow.push(t);
                m.insert(t);
            }
            assert_eq!(m.min(), shadow.iter().min().copied());
        }
    }

    #[test]
    fn time_multiset_compacts_tombstones() {
        // A sliding window of insert/remove pairs over ever-increasing
        // times: without compaction the table would grow to ~N keys; with
        // the dead > live trigger it stays at O(live).
        let mut m = TimeMultiset::new();
        for i in 0..100_000u64 {
            m.insert(SimTime::from_nanos(i));
            if i >= 8 {
                m.remove(SimTime::from_nanos(i - 8));
                assert_eq!(m.min(), Some(SimTime::from_nanos(i - 7)));
            }
        }
        // 9 live keys; compaction keeps the table within live + dead <= 2x.
        assert!(
            m.counts.len() <= 19,
            "tombstones not compacted: {} entries",
            m.counts.len()
        );
        for i in 100_000 - 8..100_000 {
            m.remove(SimTime::from_nanos(i));
        }
        assert!(m.is_empty());
        assert_eq!(m.min(), None);
    }
}
