//! # workloads — synthetic trace generators
//!
//! The paper evaluates on proprietary production traces; per the
//! substitution rule (DESIGN.md) this crate regenerates workloads matched
//! to every summary statistic the paper publishes:
//!
//! * the **internal chat trace** of Figure 4 — "roughly 2K input with 200
//!   output", Poisson arrivals at a configurable RPS;
//! * the **code-generation service trace** of Figure 6 — longer, heavily
//!   shared prompt contexts with short completions;
//! * the **fixed-shape grids** of Figure 5 — identical requests per
//!   heatmap cell at fixed RPS;
//! * **shared-prefix chat** for locality studies, with Zipf-popular
//!   conversation groups;
//! * **burst loads** for autoscaling studies;
//! * **fleet traces** — one arrival stream fanned out over hundreds of
//!   models with Zipf-skewed popularity, for serverless cold-start
//!   studies.
//!
//! Generators emit [`ReqSpec`]s — content is named by `(seed, len)` so the
//! platform can materialize identical token streams deterministically
//! without this crate depending on any tokenizer.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented, clippy::iter_over_hash_type)]

pub mod fleet;
pub mod traces;

pub use fleet::{FleetReqSpec, FleetTrace};
pub use traces::{
    BurstLoad, BurstStream, ChatStream, ChatTrace, CodeGenStream, CodeGenTrace, FixedShape,
    FixedShapeStream, ReqSpec, ScaleStream, ScaleTrace, SharedPrefixChat, SharedPrefixStream,
};

use simcore::{SimRng, SimTime};

/// Poisson arrival process: `count` arrivals at `rps` starting at `start`.
pub fn poisson_arrivals(rng: &mut SimRng, start: SimTime, rps: f64, count: usize) -> Vec<SimTime> {
    assert!(rps > 0.0, "rps must be positive");
    let mut out = Vec::with_capacity(count);
    let mut t = start;
    for _ in 0..count {
        let gap = rng.exp(rps);
        t += simcore::SimDuration::from_secs_f64(gap);
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_is_close() {
        let mut rng = SimRng::seed_from_u64(1);
        let arr = poisson_arrivals(&mut rng, SimTime::ZERO, 10.0, 20_000);
        let span = arr.last().unwrap().as_secs_f64();
        let rate = arr.len() as f64 / span;
        assert!((rate - 10.0).abs() < 0.3, "rate {rate}");
    }

    #[test]
    fn poisson_is_sorted_and_deterministic() {
        let gen = |seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            poisson_arrivals(&mut rng, SimTime::from_secs(5), 2.0, 100)
        };
        let a = gen(7);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a[0] >= SimTime::from_secs(5));
        assert_eq!(a, gen(7));
    }
}
