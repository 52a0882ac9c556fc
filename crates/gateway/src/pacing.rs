//! Wall-clock ↔ sim-time bridge — the **only** module in the workspace
//! outside `crates/bench` that may read the host clock.
//!
//! The deterministic core never sees wall time: the gateway maps a wall
//! instant to a sim instant here, hands the core plain [`SimTime`]s
//! (`submit_live` / `step_until`), and sleeps here until the next pending
//! event is due. Determinism is preserved by construction — wall time only
//! chooses *when* ingress happens; once an arrival stamp is chosen it goes
//! into the session log, and replaying the log needs no clock at all.
//!
//! The waiver below is scoped to this file: clippy's `Instant` and
//! `Instant::now` bans still cover the rest of the crate (and the
//! workspace), so new call sites cannot creep in unreviewed.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the serving façade's sole sim↔wall bridge; see module doc"
)]

use simcore::{SimDuration, SimTime};
use std::time::{Duration, Instant};

/// Maps wall-clock progress since an anchor instant onto sim time, scaled
/// by `timescale` (sim seconds per wall second). A timescale above 1
/// compresses wall time — useful for smoke tests where multi-sim-second
/// completions should finish in wall milliseconds.
#[derive(Debug, Clone)]
pub struct Pacer {
    start: Instant,
    timescale: f64,
}

impl Pacer {
    /// Anchors sim time zero at the current wall instant.
    ///
    /// Non-finite or non-positive timescales fall back to 1.0 (debug
    /// builds assert): a gateway must keep serving, not divide by zero.
    pub fn new(timescale: f64) -> Self {
        let ok = timescale.is_finite() && timescale > 0.0;
        debug_assert!(ok, "timescale must be finite and positive");
        Pacer {
            start: Instant::now(),
            timescale: if ok { timescale } else { 1.0 },
        }
    }

    /// The current wall instant expressed in sim time.
    pub fn now_sim(&self) -> SimTime {
        let elapsed = self.start.elapsed();
        let ns = elapsed.as_secs_f64() * self.timescale * 1e9;
        // Saturate rather than wrap on absurd uptimes/timescales.
        let ns = if ns.is_finite() && ns >= 0.0 {
            ns.min(u64::MAX as f64) as u64
        } else {
            0
        };
        SimTime::ZERO + SimDuration::from_nanos(ns)
    }

    /// Sleeps until sim instant `t` is due on the wall clock, but no
    /// longer than `cap_ms` — the serve loop must keep polling its
    /// listener for new connections, so long waits are chopped into caps.
    pub fn sleep_until_sim(&self, t: SimTime, cap_ms: u64) {
        let now = self.now_sim();
        if t <= now {
            return;
        }
        let sim_ns = t.since(now).as_nanos();
        let wall_ns = (sim_ns as f64 / self.timescale).min(cap_ms as f64 * 1e6);
        if wall_ns >= 1.0 {
            std::thread::sleep(Duration::from_nanos(wall_ns as u64));
        }
    }

    /// A short fixed sleep: the serve loop's poll while a request is half
    /// read or the loop drains with no sim event pending (an idle loop
    /// blocks in `accept` instead), and a blocked write's backoff.
    pub fn sleep_brief() {
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_time_advances_with_wall_time() {
        let p = Pacer::new(1000.0);
        let a = p.now_sim();
        Pacer::sleep_brief();
        let b = p.now_sim();
        assert!(b > a, "sim time must move forward with wall time");
    }

    #[test]
    fn sleep_until_past_instant_returns_immediately() {
        let p = Pacer::new(1.0);
        p.sleep_until_sim(SimTime::ZERO, 1000);
    }

    #[test]
    fn degenerate_timescale_falls_back() {
        // Release-mode behavior: the pacer still works.
        if cfg!(debug_assertions) {
            return;
        }
        let p = Pacer::new(0.0);
        let _ = p.now_sim();
    }
}
