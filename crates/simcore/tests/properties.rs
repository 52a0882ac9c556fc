//! Property-based tests for the simulation kernel's core invariants.

use proptest::prelude::*;
use simcore::{
    Clock, EventQueue, Lane, Samples, SharedLink, SimDuration, SimRng, SimTime, Summary,
    CLASS_ARRIVAL, CLASS_DEFAULT,
};

proptest! {
    /// Events pop in (time, class, push index) order whatever lane each
    /// waits in. After every push and pop, checked against a shadow list:
    /// `peek_time` is the earliest time, `horizon` the earliest shared-lane
    /// time, and `has_event_at` agrees with a scan.
    #[test]
    fn event_queue_pops_sorted(
        ops in prop::collection::vec((0u8..10, 0u64..40, any::<bool>(), any::<bool>()), 1..200)
    ) {
        let mut q = EventQueue::new();
        // (time, class, push index, lane) of every pending event.
        let mut shadow: Vec<(SimTime, u8, usize, Lane)> = Vec::new();
        let mut pushed = 0usize;
        // Three in ten ops pop; every remaining event is popped at the end.
        let pushes = ops
            .into_iter()
            .map(|(kind, t, own, arrival)| (kind >= 3).then_some((t, own, arrival)));
        let drain = std::iter::repeat_n(None, pushes.len());
        for op in pushes.chain(drain) {
            let probe = match op {
                Some((t, own, arrival)) => {
                    let time = SimTime::from_nanos(t);
                    let lane = if own { Lane::Own } else { Lane::Shared };
                    let class = if arrival { CLASS_ARRIVAL } else { CLASS_DEFAULT };
                    q.push_in(lane, time, class, pushed);
                    shadow.push((time, class, pushed, lane));
                    pushed += 1;
                    time
                }
                None => {
                    let next = shadow
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(t, c, i, _))| (t, c, i))
                        .map(|(pos, _)| pos);
                    let expected = next.map(|pos| {
                        let (t, _, i, _) = shadow.remove(pos);
                        (t, i)
                    });
                    prop_assert_eq!(q.pop(), expected);
                    expected.map_or(SimTime::ZERO, |(t, _)| t)
                }
            };
            prop_assert_eq!(q.len(), shadow.len());
            prop_assert_eq!(q.peek_time(), shadow.iter().map(|e| e.0).min());
            prop_assert_eq!(
                q.horizon(),
                shadow.iter().filter(|e| e.3 == Lane::Shared).map(|e| e.0).min()
            );
            for t in [probe, probe + SimDuration::from_nanos(1)] {
                prop_assert_eq!(q.has_event_at(t), shadow.iter().any(|e| e.0 == t));
            }
        }
        prop_assert!(q.is_empty());
    }

    /// The clock never moves backwards no matter the schedule order.
    #[test]
    fn clock_is_monotone(delays in prop::collection::vec(0u64..1_000_000, 1..100)) {
        let mut c: Clock<usize> = Clock::new();
        for (i, &d) in delays.iter().enumerate() {
            c.schedule_after(SimDuration::from_nanos(d), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = c.next() {
            prop_assert!(t >= last);
            prop_assert_eq!(c.now(), t);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, delays.len());
    }

    /// Percentiles are order statistics: p0 = min, p100 = max, monotone in q.
    #[test]
    fn percentiles_are_monotone(values in prop::collection::vec(-1e6f64..1e6, 1..500)) {
        let mut s = Samples::new();
        for &v in &values {
            s.record(v);
        }
        let p0 = s.percentile(0.0).unwrap();
        let p50 = s.percentile(0.5).unwrap();
        let p100 = s.percentile(1.0).unwrap();
        prop_assert!(p0 <= p50 && p50 <= p100);
        prop_assert_eq!(p0, s.min().unwrap());
        prop_assert_eq!(p100, s.max().unwrap());
    }

    /// A summary gives the same bits however often it is taken: its mean is
    /// the recording-order sum over the count, bit for bit, although the
    /// first summary's percentiles sorted the values in place.
    #[test]
    fn summary_is_repeatable(values in prop::collection::vec(-1e6f64..1e6, 1..500)) {
        let mut s = Samples::new();
        for &v in &values {
            s.record(v);
        }
        let bits = |m: Summary| {
            [m.mean, m.p50, m.p90, m.p95, m.p99, m.min, m.max].map(f64::to_bits)
        };
        let (first, second) = (s.summary(), s.summary());
        prop_assert_eq!(first.count, second.count);
        prop_assert_eq!(bits(first), bits(second));
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert_eq!(first.mean.to_bits(), mean.to_bits());
    }

    /// Work conservation on a shared link: total busy time equals total
    /// bytes / capacity when the link is never idle between flows.
    #[test]
    fn shared_link_conserves_work(
        sizes in prop::collection::vec(1u64..5_000_000_000, 1..20),
        cap_gbps in 1u64..100,
    ) {
        let capacity = cap_gbps as f64 * 1e9;
        let mut link = SharedLink::new(capacity, SimDuration::ZERO);
        let t0 = SimTime::ZERO;
        for &s in &sizes {
            link.start_flow(t0, s);
        }
        let mut now = t0;
        let mut completions = 0usize;
        while link.active_flows() > 0 {
            let next = link.next_completion(now).unwrap();
            prop_assert!(next >= now);
            let done = link.advance_to(next);
            completions += done.len();
            now = next;
        }
        prop_assert_eq!(completions, sizes.len());
        let total: u64 = sizes.iter().sum();
        let expect = total as f64 / capacity;
        let got = now.as_secs_f64();
        // Allow a tiny epsilon per flow for the completion threshold.
        prop_assert!((got - expect).abs() < 1e-5 * sizes.len() as f64 + 1e-6,
            "busy {got}, expected {expect}");
    }

    /// Identical seeds give identical draws across all distributions.
    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>()) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for _ in 0..20 {
            prop_assert_eq!(a.f64(), b.f64());
            prop_assert_eq!(a.exp(1.5), b.exp(1.5));
            prop_assert_eq!(a.gaussian(), b.gaussian());
            prop_assert_eq!(a.zipf(10, 1.2), b.zipf(10, 1.2));
        }
    }

    /// lognormal_mean_cv always returns positive, finite values.
    #[test]
    fn lognormal_is_positive(seed in any::<u64>(), mean in 1.0f64..1e6, cv in 0.0f64..3.0) {
        let mut r = SimRng::seed_from_u64(seed);
        for _ in 0..50 {
            let v = r.lognormal_mean_cv(mean, cv);
            prop_assert!(v > 0.0 && v.is_finite());
        }
    }
}
