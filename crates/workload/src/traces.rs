//! Trace generators matched to the paper's published workload statistics.
//!
//! Every generator exists in two forms with byte-identical output:
//! `generate` materializes a `Vec<ReqSpec>`, and `stream` returns a seeded
//! lazy iterator that draws one request at a time (arrival gap first, then
//! the body). `generate` is implemented as `stream(..).collect()`, so a
//! million-request trace can be fed to the simulator in O(1) memory via
//! `stream` without changing a single byte of the workload.

use serde::Serialize;
use simcore::{SimDuration, SimRng, SimTime};

/// One request specification. Prompt content is `(shared prefix tokens) ++
/// (unique tokens)`, both named by `(seed, len)` pairs the platform
/// materializes deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ReqSpec {
    /// Arrival time at the frontend.
    pub arrival: SimTime,
    /// Seed of the unique portion of the prompt.
    pub prompt_seed: u64,
    /// Total prompt length in tokens (prefix + unique).
    pub prompt_len: usize,
    /// Optional shared prefix: `(seed, tokens)`; `tokens <= prompt_len`.
    pub shared_prefix: Option<(u64, usize)>,
    /// Decode length (ground truth; schedulers only see predictions).
    pub output_len: u32,
}

impl ReqSpec {
    /// Length of the unique (non-shared) prompt portion.
    pub fn unique_len(&self) -> usize {
        self.prompt_len - self.shared_prefix.map_or(0, |(_, l)| l)
    }
}

fn clamp_len(x: f64, lo: usize, hi: usize) -> usize {
    (x.round() as i64).clamp(lo as i64, hi as i64) as usize
}

/// The internal chat trace (Figure 4): "roughly 2K input with 200 output",
/// Poisson arrivals.
#[derive(Debug, Clone, Copy)]
pub struct ChatTrace {
    /// Requests per second.
    pub rps: f64,
    /// Mean prompt length (tokens).
    pub mean_input: f64,
    /// Coefficient of variation of prompt length.
    pub input_cv: f64,
    /// Mean output length (tokens).
    pub mean_output: f64,
    /// Coefficient of variation of output length.
    pub output_cv: f64,
}

impl ChatTrace {
    /// The Figure 4 configuration at a given RPS.
    pub fn paper(rps: f64) -> Self {
        ChatTrace {
            rps,
            mean_input: 2048.0,
            input_cv: 0.25,
            mean_output: 200.0,
            output_cv: 0.35,
        }
    }

    /// Seeded lazy iterator over `count` requests; one `next()` draws one
    /// arrival gap and one request body.
    pub fn stream(&self, rng: SimRng, count: usize) -> ChatStream {
        ChatStream {
            cfg: *self,
            rng,
            t: SimTime::ZERO,
            remaining: count,
        }
    }

    /// Generates `count` requests (materialized [`ChatTrace::stream`]).
    pub fn generate(&self, rng: &mut SimRng, count: usize) -> Vec<ReqSpec> {
        self.stream(rng.fork(), count).collect()
    }
}

/// Lazy iterator form of [`ChatTrace`].
pub struct ChatStream {
    cfg: ChatTrace,
    rng: SimRng,
    t: SimTime,
    remaining: usize,
}

impl Iterator for ChatStream {
    type Item = ReqSpec;

    fn next(&mut self) -> Option<ReqSpec> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.t += SimDuration::from_secs_f64(self.rng.exp(self.cfg.rps));
        Some(ReqSpec {
            arrival: self.t,
            prompt_seed: self.rng.next_u64(),
            prompt_len: clamp_len(
                self.rng
                    .lognormal_mean_cv(self.cfg.mean_input, self.cfg.input_cv),
                16,
                16_000,
            ),
            shared_prefix: None,
            output_len: clamp_len(
                self.rng
                    .lognormal_mean_cv(self.cfg.mean_output, self.cfg.output_cv),
                1,
                4_000,
            ) as u32,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// The code-generation service trace (Figure 6): long prompts dominated by
/// shared repository/file contexts, short completions. Shared contexts are
/// Zipf-popular, so locality-aware scheduling has real structure to exploit.
#[derive(Debug, Clone, Copy)]
pub struct CodeGenTrace {
    /// Requests per second.
    pub rps: f64,
    /// Number of distinct shared contexts (repos/sessions).
    pub contexts: usize,
    /// Zipf exponent of context popularity.
    pub zipf_s: f64,
    /// Shared context length (tokens).
    pub context_len: usize,
    /// Mean unique suffix length.
    pub mean_suffix: f64,
    /// Mean completion length.
    pub mean_output: f64,
    /// Fraction of requests that reuse a shared context at all.
    pub shared_fraction: f64,
}

impl CodeGenTrace {
    /// The Figure 6 configuration at a given RPS.
    pub fn paper(rps: f64) -> Self {
        CodeGenTrace {
            rps,
            contexts: 32,
            zipf_s: 1.0,
            context_len: 3072,
            mean_suffix: 512.0,
            mean_output: 256.0,
            shared_fraction: 0.7,
        }
    }

    /// Seeded lazy iterator over `count` requests.
    pub fn stream(&self, rng: SimRng, count: usize) -> CodeGenStream {
        CodeGenStream {
            cfg: *self,
            rng,
            t: SimTime::ZERO,
            remaining: count,
        }
    }

    /// Generates `count` requests (materialized [`CodeGenTrace::stream`]).
    pub fn generate(&self, rng: &mut SimRng, count: usize) -> Vec<ReqSpec> {
        self.stream(rng.fork(), count).collect()
    }
}

/// Lazy iterator form of [`CodeGenTrace`].
pub struct CodeGenStream {
    cfg: CodeGenTrace,
    rng: SimRng,
    t: SimTime,
    remaining: usize,
}

impl Iterator for CodeGenStream {
    type Item = ReqSpec;

    fn next(&mut self) -> Option<ReqSpec> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.t += SimDuration::from_secs_f64(self.rng.exp(self.cfg.rps));
        let shared = self.rng.chance(self.cfg.shared_fraction);
        let prefix = if shared {
            let ctx = self.rng.zipf(self.cfg.contexts, self.cfg.zipf_s);
            // Context seeds are stable across the trace.
            Some((0xC0DE_0000 + ctx as u64, self.cfg.context_len))
        } else {
            None
        };
        let suffix = clamp_len(
            self.rng.lognormal_mean_cv(self.cfg.mean_suffix, 0.6),
            16,
            8_000,
        );
        let prompt_len = prefix.map_or(0, |(_, l)| l) + suffix;
        Some(ReqSpec {
            arrival: self.t,
            prompt_seed: self.rng.next_u64(),
            prompt_len,
            shared_prefix: prefix,
            output_len: clamp_len(
                self.rng.lognormal_mean_cv(self.cfg.mean_output, 0.5),
                1,
                2_000,
            ) as u32,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Fixed-shape batches for the Figure 5 heatmap: identical requests at a
/// fixed RPS, one batch per heatmap cell.
#[derive(Debug, Clone, Copy)]
pub struct FixedShape {
    /// Prompt length.
    pub prefill: usize,
    /// Decode length.
    pub decode: u32,
    /// Requests per second.
    pub rps: f64,
    /// Batch size (requests in the cell's run).
    pub count: usize,
}

impl FixedShape {
    /// Seeded lazy iterator over the batch.
    pub fn stream(&self, rng: SimRng) -> FixedShapeStream {
        FixedShapeStream {
            cfg: *self,
            rng,
            t: SimTime::ZERO,
            remaining: self.count,
        }
    }

    /// Generates the batch (materialized [`FixedShape::stream`]); prompts
    /// are mutually distinct (no accidental prefix-cache interference
    /// inside a cell).
    pub fn generate(&self, rng: &mut SimRng) -> Vec<ReqSpec> {
        self.stream(rng.fork()).collect()
    }
}

/// Lazy iterator form of [`FixedShape`].
pub struct FixedShapeStream {
    cfg: FixedShape,
    rng: SimRng,
    t: SimTime,
    remaining: usize,
}

impl Iterator for FixedShapeStream {
    type Item = ReqSpec;

    fn next(&mut self) -> Option<ReqSpec> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.t += SimDuration::from_secs_f64(self.rng.exp(self.cfg.rps));
        Some(ReqSpec {
            arrival: self.t,
            prompt_seed: self.rng.next_u64(),
            prompt_len: self.cfg.prefill,
            shared_prefix: None,
            output_len: self.cfg.decode,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// A scale-study workload: fixed request shape at a given RPS across a
/// population of `users`, each with a stable prompt seed — so repeat
/// requests from one user are prefix-cacheable, as in production, while
/// distinct users never collide. Designed for million-request sweeps: use
/// [`ScaleTrace::stream`] and the cluster's streaming injection so the
/// trace never materializes.
#[derive(Debug, Clone, Copy)]
pub struct ScaleTrace {
    /// Prompt length.
    pub prefill: usize,
    /// Decode length.
    pub decode: u32,
    /// Requests per second.
    pub rps: f64,
    /// Total requests.
    pub count: usize,
    /// Distinct users (each drawn uniformly per request).
    pub users: usize,
}

impl ScaleTrace {
    /// Seeded lazy iterator over the trace.
    pub fn stream(&self, rng: SimRng) -> ScaleStream {
        assert!(self.users > 0, "users must be positive");
        ScaleStream {
            cfg: *self,
            rng,
            t: SimTime::ZERO,
            remaining: self.count,
        }
    }

    /// Generates the trace (materialized [`ScaleTrace::stream`]) — for
    /// A/B-testing streaming injection; prefer `stream` at scale.
    pub fn generate(&self, rng: &mut SimRng) -> Vec<ReqSpec> {
        self.stream(rng.fork()).collect()
    }
}

/// Lazy iterator form of [`ScaleTrace`].
pub struct ScaleStream {
    cfg: ScaleTrace,
    rng: SimRng,
    t: SimTime,
    remaining: usize,
}

impl Iterator for ScaleStream {
    type Item = ReqSpec;

    fn next(&mut self) -> Option<ReqSpec> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.t += SimDuration::from_secs_f64(self.rng.exp(self.cfg.rps));
        let user = self.rng.index(self.cfg.users) as u64;
        Some(ReqSpec {
            arrival: self.t,
            prompt_seed: 0x5CA1_E000_0000 ^ user,
            prompt_len: self.cfg.prefill,
            shared_prefix: None,
            output_len: self.cfg.decode,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Multi-turn chat with shared conversation prefixes (locality studies):
/// each conversation's next turn extends its previous prompt.
#[derive(Debug, Clone, Copy)]
pub struct SharedPrefixChat {
    /// Requests per second (across all conversations).
    pub rps: f64,
    /// Concurrent conversations.
    pub conversations: usize,
    /// Zipf exponent of conversation activity.
    pub zipf_s: f64,
    /// First-turn prompt length.
    pub first_turn_len: usize,
    /// Tokens added per turn (user message + previous reply).
    pub turn_growth: usize,
    /// Mean reply length.
    pub mean_output: f64,
}

impl SharedPrefixChat {
    /// A typical interactive configuration.
    pub fn standard(rps: f64) -> Self {
        SharedPrefixChat {
            rps,
            conversations: 24,
            zipf_s: 0.8,
            first_turn_len: 512,
            turn_growth: 256,
            mean_output: 180.0,
        }
    }

    /// Seeded lazy iterator over `count` turns.
    pub fn stream(&self, rng: SimRng, count: usize) -> SharedPrefixStream {
        SharedPrefixStream {
            cfg: *self,
            rng,
            t: SimTime::ZERO,
            remaining: count,
            turn_of: vec![0; self.conversations],
        }
    }

    /// Generates `count` turns (materialized [`SharedPrefixChat::stream`]).
    /// Turn `k` of conversation `c` shares its entire prompt-prefix with
    /// turn `k+1`.
    pub fn generate(&self, rng: &mut SimRng, count: usize) -> Vec<ReqSpec> {
        self.stream(rng.fork(), count).collect()
    }
}

/// Lazy iterator form of [`SharedPrefixChat`]. Holds one counter per
/// conversation — O(conversations), independent of trace length.
pub struct SharedPrefixStream {
    cfg: SharedPrefixChat,
    rng: SimRng,
    t: SimTime,
    remaining: usize,
    turn_of: Vec<usize>,
}

impl Iterator for SharedPrefixStream {
    type Item = ReqSpec;

    fn next(&mut self) -> Option<ReqSpec> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.t += SimDuration::from_secs_f64(self.rng.exp(self.cfg.rps));
        let c = self.rng.zipf(self.cfg.conversations, self.cfg.zipf_s);
        let turn = self.turn_of[c];
        self.turn_of[c] += 1;
        let prefix_len = self.cfg.first_turn_len + turn * self.cfg.turn_growth;
        Some(ReqSpec {
            arrival: self.t,
            // The "unique" part is the latest user message; its seed is
            // derived so that the *next* turn reproduces it as part of
            // its prefix.
            prompt_seed: conversation_seed(c as u64, turn as u64),
            prompt_len: prefix_len + self.cfg.turn_growth,
            shared_prefix: Some((conversation_prefix_seed(c as u64), prefix_len)),
            output_len: clamp_len(
                self.rng.lognormal_mean_cv(self.cfg.mean_output, 0.4),
                1,
                1_000,
            ) as u32,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Seed of a conversation's growing shared prefix. All turns of one
/// conversation share it, so turn k's prompt is a strict prefix of turn
/// k+1's.
pub fn conversation_prefix_seed(conversation: u64) -> u64 {
    0xCAFE_0000_0000 ^ conversation
}

fn conversation_seed(conversation: u64, turn: u64) -> u64 {
    0xBEEF_0000 ^ (conversation << 20) ^ turn
}

/// A step-burst load for autoscaling studies: `base_rps` until
/// `burst_at`, then `burst_rps` for `burst_secs`, then back.
#[derive(Debug, Clone, Copy)]
pub struct BurstLoad {
    /// Baseline request rate.
    pub base_rps: f64,
    /// Burst request rate.
    pub burst_rps: f64,
    /// Burst start.
    pub burst_at: SimTime,
    /// Burst duration in seconds.
    pub burst_secs: f64,
    /// Chat-shaped request bodies.
    pub shape: ChatTrace,
}

impl BurstLoad {
    /// Seeded lazy iterator over requests covering `total_secs` of wall
    /// time.
    pub fn stream(&self, rng: SimRng, total_secs: f64) -> BurstStream {
        BurstStream {
            cfg: *self,
            rng,
            t: SimTime::ZERO,
            end: SimTime::ZERO + SimDuration::from_secs_f64(total_secs),
        }
    }

    /// Generates requests covering `total_secs` of wall time (materialized
    /// [`BurstLoad::stream`]).
    pub fn generate(&self, rng: &mut SimRng, total_secs: f64) -> Vec<ReqSpec> {
        self.stream(rng.fork(), total_secs).collect()
    }
}

/// Lazy iterator form of [`BurstLoad`].
pub struct BurstStream {
    cfg: BurstLoad,
    rng: SimRng,
    t: SimTime,
    end: SimTime,
}

impl Iterator for BurstStream {
    type Item = ReqSpec;

    fn next(&mut self) -> Option<ReqSpec> {
        if self.t >= self.end {
            return None;
        }
        let burst_end = self.cfg.burst_at + SimDuration::from_secs_f64(self.cfg.burst_secs);
        let rate = if self.t >= self.cfg.burst_at && self.t < burst_end {
            self.cfg.burst_rps
        } else {
            self.cfg.base_rps
        };
        self.t += SimDuration::from_secs_f64(self.rng.exp(rate));
        if self.t >= self.end {
            return None;
        }
        Some(ReqSpec {
            arrival: self.t,
            prompt_seed: self.rng.next_u64(),
            prompt_len: clamp_len(
                self.rng
                    .lognormal_mean_cv(self.cfg.shape.mean_input, self.cfg.shape.input_cv),
                16,
                16_000,
            ),
            shared_prefix: None,
            output_len: clamp_len(
                self.rng
                    .lognormal_mean_cv(self.cfg.shape.mean_output, self.cfg.shape.output_cv),
                1,
                4_000,
            ) as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(11)
    }

    #[test]
    fn chat_trace_matches_published_stats() {
        let reqs = ChatTrace::paper(1.0).generate(&mut rng(), 5_000);
        let mean_in: f64 =
            reqs.iter().map(|r| r.prompt_len as f64).sum::<f64>() / reqs.len() as f64;
        let mean_out: f64 =
            reqs.iter().map(|r| r.output_len as f64).sum::<f64>() / reqs.len() as f64;
        assert!((mean_in - 2048.0).abs() < 60.0, "mean input {mean_in}");
        assert!((mean_out - 200.0).abs() < 8.0, "mean output {mean_out}");
    }

    #[test]
    fn codegen_trace_reuses_popular_contexts() {
        let reqs = CodeGenTrace::paper(10.0).generate(&mut rng(), 5_000);
        let shared = reqs.iter().filter(|r| r.shared_prefix.is_some()).count();
        let frac = shared as f64 / reqs.len() as f64;
        assert!((frac - 0.7).abs() < 0.03, "shared fraction {frac}");
        // Context popularity must be skewed: the most common context
        // should appear far more often than 1/contexts.
        let mut counts = std::collections::BTreeMap::new();
        for r in &reqs {
            if let Some((seed, _)) = r.shared_prefix {
                *counts.entry(seed).or_insert(0usize) += 1;
            }
        }
        let max = *counts.values().max().unwrap();
        assert!(max as f64 / shared as f64 > 2.0 / 32.0 * 3.0);
    }

    #[test]
    fn fixed_shape_is_uniform() {
        let w = FixedShape {
            prefill: 2048,
            decode: 128,
            rps: 0.5,
            count: 64,
        };
        let reqs = w.generate(&mut rng());
        assert_eq!(reqs.len(), 64);
        assert!(reqs
            .iter()
            .all(|r| r.prompt_len == 2048 && r.output_len == 128));
        // Distinct seeds: no accidental prefix sharing.
        let mut seeds: Vec<u64> = reqs.iter().map(|r| r.prompt_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64);
    }

    #[test]
    fn multi_turn_prompts_grow_within_conversation() {
        let w = SharedPrefixChat::standard(5.0);
        let reqs = w.generate(&mut rng(), 2_000);
        // Group by conversation prefix seed; lengths must increase with
        // turn order.
        let mut by_conv: std::collections::BTreeMap<u64, Vec<usize>> =
            std::collections::BTreeMap::new();
        for r in &reqs {
            let (seed, len) = r.shared_prefix.unwrap();
            by_conv.entry(seed).or_default().push(len);
        }
        assert!(by_conv.len() > 4, "several conversations active");
        for lens in by_conv.values() {
            for w in lens.windows(2) {
                assert!(w[1] >= w[0], "prefix grows monotonically per turn");
            }
        }
    }

    #[test]
    fn burst_load_changes_rate() {
        let w = BurstLoad {
            base_rps: 1.0,
            burst_rps: 30.0,
            burst_at: SimTime::from_secs(100),
            burst_secs: 50.0,
            shape: ChatTrace::paper(1.0),
        };
        let reqs = w.generate(&mut rng(), 300.0);
        let in_burst = reqs
            .iter()
            .filter(|r| r.arrival >= SimTime::from_secs(100) && r.arrival < SimTime::from_secs(150))
            .count();
        let before = reqs
            .iter()
            .filter(|r| r.arrival < SimTime::from_secs(100))
            .count();
        // 50 s of 30 rps vs 100 s of 1 rps.
        assert!(in_burst > 1_000, "burst count {in_burst}");
        assert!(before < 150, "calm count {before}");
    }

    #[test]
    fn specs_are_deterministic_per_seed() {
        let a = ChatTrace::paper(2.0).generate(&mut SimRng::seed_from_u64(5), 100);
        let b = ChatTrace::paper(2.0).generate(&mut SimRng::seed_from_u64(5), 100);
        assert_eq!(a, b);
    }

    #[test]
    fn streams_match_generate_byte_for_byte() {
        // Every generator's lazy stream must reproduce its materialized
        // form exactly — `generate` is defined as `stream(..).collect()`,
        // and this pins that the fork seeding stays aligned.
        let chat = ChatTrace::paper(3.0);
        assert_eq!(
            chat.generate(&mut SimRng::seed_from_u64(9), 500),
            chat.stream(SimRng::seed_from_u64(9).fork(), 500)
                .collect::<Vec<_>>()
        );
        let code = CodeGenTrace::paper(8.0);
        assert_eq!(
            code.generate(&mut SimRng::seed_from_u64(9), 500),
            code.stream(SimRng::seed_from_u64(9).fork(), 500)
                .collect::<Vec<_>>()
        );
        let fixed = FixedShape {
            prefill: 1024,
            decode: 64,
            rps: 2.0,
            count: 200,
        };
        assert_eq!(
            fixed.generate(&mut SimRng::seed_from_u64(9)),
            fixed
                .stream(SimRng::seed_from_u64(9).fork())
                .collect::<Vec<_>>()
        );
        let multi = SharedPrefixChat::standard(4.0);
        assert_eq!(
            multi.generate(&mut SimRng::seed_from_u64(9), 500),
            multi
                .stream(SimRng::seed_from_u64(9).fork(), 500)
                .collect::<Vec<_>>()
        );
        let burst = BurstLoad {
            base_rps: 1.0,
            burst_rps: 20.0,
            burst_at: SimTime::from_secs(30),
            burst_secs: 10.0,
            shape: ChatTrace::paper(1.0),
        };
        assert_eq!(
            burst.generate(&mut SimRng::seed_from_u64(9), 90.0),
            burst
                .stream(SimRng::seed_from_u64(9).fork(), 90.0)
                .collect::<Vec<_>>()
        );
        let scale = ScaleTrace {
            prefill: 512,
            decode: 32,
            rps: 50.0,
            count: 1_000,
            users: 64,
        };
        assert_eq!(
            scale.generate(&mut SimRng::seed_from_u64(9)),
            scale
                .stream(SimRng::seed_from_u64(9).fork())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn scale_trace_users_bound_seed_population() {
        let scale = ScaleTrace {
            prefill: 256,
            decode: 16,
            rps: 100.0,
            count: 5_000,
            users: 32,
        };
        let reqs = scale.generate(&mut rng());
        let mut seeds: Vec<u64> = reqs.iter().map(|r| r.prompt_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert!(seeds.len() <= 32, "at most one seed per user");
        assert!(seeds.len() > 16, "most users active at this volume");
    }

    #[test]
    fn unique_len_subtracts_prefix() {
        let r = ReqSpec {
            arrival: SimTime::ZERO,
            prompt_seed: 1,
            prompt_len: 1000,
            shared_prefix: Some((9, 600)),
            output_len: 10,
        };
        assert_eq!(r.unique_len(), 400);
    }
}
