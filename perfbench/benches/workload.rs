//! The three offline workloads: cluster shape, trace generator and size,
//! plus the input properties a later claim can cite.

use deepserve::{materialize_trace, stream_trace, ApiRequest, ClusterConfig, Policy, TeRole};
use npu::specs::ClusterSpec;
use simcore::SimRng;
use std::collections::BTreeMap;
use workloads::{ChatTrace, CodeGenTrace, ReqSpec, ScaleTrace};

/// Token-id space prompts are drawn from (the repo's benches all use it).
pub const VOCAB: u32 = 64_000;

/// Requests per workload at full size. Chosen so one repetition takes
/// about a second on a 2-core host; see README.md for the noise facts
/// behind the sizes (chat2k must also stay below its HBM-fill cliff).
const FANOUT_REQUESTS: usize = 16_384;
const CHAT_REQUESTS: usize = 1_200;
const CODEGEN_REQUESTS: usize = 4_096;

/// Requests per workload in `--smoke` mode.
const SMOKE_REQUESTS: usize = 96;

/// Which generator a workload draws from.
#[derive(Clone, Copy)]
pub enum Trace {
    Scale(ScaleTrace),
    Chat(ChatTrace),
    CodeGen(CodeGenTrace),
}

/// One offline workload.
pub struct Offline {
    pub name: &'static str,
    pub servers: usize,
    pub roles: Vec<TeRole>,
    pub trace: Trace,
    pub requests: usize,
    /// Offered load, requests per simulated second.
    pub rps: f64,
}

/// How a workload's requests reach the cluster.
pub enum Feed {
    /// A materialized trace, injected whole.
    Requests(Vec<ApiRequest>),
    /// A lazy trace the cluster pulls one arrival ahead.
    Stream(Box<dyn Iterator<Item = ApiRequest> + Send>),
}

impl Offline {
    /// The workload called `name`, or `None` for an unknown name.
    pub fn named(name: &str, smoke: bool) -> Option<Offline> {
        let size = |full: usize| if smoke { SMOKE_REQUESTS } else { full };
        Some(match name {
            // The scale_sweep 256-TE config: short per-user prompts from
            // 1,024 returning users, streamed.
            "fanout256" => {
                let requests = size(FANOUT_REQUESTS);
                let rps = 24.0 * 256.0;
                Offline {
                    name: "fanout256",
                    servers: 128,
                    roles: vec![TeRole::Colocated; 256],
                    trace: Trace::Scale(ScaleTrace {
                        prefill: 128,
                        decode: 64,
                        rps,
                        count: requests,
                        users: 1024,
                    }),
                    requests,
                    rps,
                }
            }
            // The Figure 4 chat trace on 8 colocated TEs.
            "chat2k" => Offline {
                name: "chat2k",
                servers: 4,
                roles: vec![TeRole::Colocated; 8],
                trace: Trace::Chat(ChatTrace::paper(8.0)),
                requests: size(CHAT_REQUESTS),
                rps: 8.0,
            },
            // The Figure 6 code-generation trace on 16 prefill/decode
            // pairs, near the TTFT SLO knee.
            "codegen-pd" => Offline {
                name: "codegen-pd",
                servers: 16,
                roles: (0..32)
                    .map(|i| {
                        if i % 2 == 0 {
                            TeRole::Prefill
                        } else {
                            TeRole::Decode
                        }
                    })
                    .collect(),
                trace: Trace::CodeGen(CodeGenTrace::paper(32.0)),
                requests: size(CODEGEN_REQUESTS),
                rps: 32.0,
            },
            _ => return None,
        })
    }

    /// The cluster configuration: the paper's 34B TP=4 testbed with the
    /// combined policy, sized to the workload's TE count.
    pub fn config(&self) -> ClusterConfig {
        ClusterConfig {
            cluster: ClusterSpec::gen2_cluster(self.servers),
            policy: Policy::Combined,
            ..ClusterConfig::standard_34b()
        }
    }

    /// Whether the trace is streamed into the cluster rather than
    /// materialized up front.
    pub fn streamed(&self) -> bool {
        matches!(self.trace, Trace::Scale(_))
    }

    /// The request specs drawn from `seed`, in arrival order.
    pub fn specs(&self, seed: u64) -> Vec<ReqSpec> {
        let mut rng = SimRng::seed_from_u64(seed);
        match self.trace {
            Trace::Scale(t) => t.generate(&mut rng),
            Trace::Chat(t) => t.generate(&mut rng, self.requests),
            Trace::CodeGen(t) => t.generate(&mut rng, self.requests),
        }
    }

    /// The requests drawn from `seed`, as the cluster receives them.
    /// `generate(rng)` is `stream(rng.fork())` collected, so both forms
    /// carry the same requests.
    pub fn feed(&self, seed: u64) -> Feed {
        match self.trace {
            Trace::Scale(t) => Feed::Stream(Box::new(stream_trace(
                t.stream(SimRng::seed_from_u64(seed).fork()),
                VOCAB,
            ))),
            _ => Feed::Requests(materialize_trace(&self.specs(seed), VOCAB)),
        }
    }

    /// Role layout as `"<n> colocated"` or `"<n> prefill + <n> decode"`.
    pub fn roles_text(&self) -> String {
        let count = |r: TeRole| self.roles.iter().filter(|&&x| x == r).count();
        let (c, p, d) = (
            count(TeRole::Colocated),
            count(TeRole::Prefill),
            count(TeRole::Decode),
        );
        match (c, p, d) {
            (c, 0, 0) => format!("{c} colocated"),
            (0, p, d) => format!("{p} prefill + {d} decode"),
            (c, p, d) => format!("{c} colocated + {p} prefill + {d} decode"),
        }
    }
}

/// Measured properties of one generated trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inputs {
    pub requests: u64,
    /// Simulated seconds from zero to the last arrival.
    pub span_s: f64,
    pub prompt_tokens: u64,
    pub output_tokens: u64,
    /// Prompt tokens inside a prefix that at least one other request of
    /// the trace carries too: a shared context, or a whole prompt a
    /// returning user sends again.
    pub shared_tokens: u64,
}

impl Inputs {
    /// Measures `specs`.
    pub fn of(specs: &[ReqSpec]) -> Inputs {
        let mut prefix_uses: BTreeMap<u64, u64> = BTreeMap::new();
        let mut prompt_uses: BTreeMap<u64, u64> = BTreeMap::new();
        for s in specs {
            if let Some((seed, _)) = s.shared_prefix {
                *prefix_uses.entry(seed).or_default() += 1;
            }
            *prompt_uses.entry(s.prompt_seed).or_default() += 1;
        }
        let mut out = Inputs::default();
        for s in specs {
            out.requests += 1;
            out.span_s = out.span_s.max(s.arrival.as_secs_f64());
            out.prompt_tokens += s.prompt_len as u64;
            out.output_tokens += u64::from(s.output_len);
            if let Some((seed, len)) = s.shared_prefix {
                if prefix_uses[&seed] > 1 {
                    out.shared_tokens += len as u64;
                }
            }
            if prompt_uses[&s.prompt_seed] > 1 {
                out.shared_tokens += s.unique_len() as u64;
            }
        }
        out
    }

    /// Measures requests as the cluster receives them (the gateway's
    /// replay, whose prefix sharing `run.py` measures from the session log).
    pub fn of_requests(reqs: &[ApiRequest]) -> Inputs {
        let mut out = Inputs::default();
        for r in reqs {
            out.requests += 1;
            out.span_s = out.span_s.max(r.arrival.as_secs_f64());
            out.prompt_tokens += r.prefill_len() as u64;
            out.output_tokens += u64::from(r.target_output);
        }
        out
    }

    pub fn shared_token_share(&self) -> f64 {
        ratio(self.shared_tokens as f64, self.prompt_tokens as f64)
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
