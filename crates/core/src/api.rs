//! User-facing API surface: the request a frontend hands the platform, its
//! replayable ingress record, and workload materialization.
//!
//! "Users interact with DeepServe by sending HTTP requests, which trigger
//! one or more internal jobs. Each job may generate multiple tasks." (§3)
//! A chat completion is one serving job. Its split into tasks happens at
//! dispatch: the JE's [`crate::je::Decision`] picks one PD-colocated TE
//! (one task) or a prefill/decode pair (two tasks, joined by the KV
//! migration in [`crate::cluster`]).

use flowserve::{CacheId, NewRequest, Prompt, RequestId, TokenId};
use serde::{Serialize, Value};
use simcore::{SimDuration, SimTime};

/// One user request as the platform sees it (already tokenized by the
/// frontend tokenizer pool).
#[derive(Debug, Clone)]
pub struct ApiRequest {
    /// Globally unique id.
    pub id: RequestId,
    /// Tokenized prompt (shared by reference; an O(1) clone).
    pub prompt: Prompt,
    /// Ground-truth output length (simulation oracle; schedulers see only
    /// a prediction).
    pub target_output: u32,
    /// Arrival at the frontend.
    pub arrival: SimTime,
    /// Explicit context-cache id to reuse/create.
    pub cache_id: Option<CacheId>,
    /// Target model in the fleet registry; `None` = the cluster's single
    /// pre-warmed model (the pre-fleet behaviour, unchanged).
    pub model: Option<u32>,
}

impl ApiRequest {
    /// A chat completion request.
    pub fn chat(id: u64, prompt: impl Into<Prompt>, target_output: u32, arrival: SimTime) -> Self {
        ApiRequest {
            id: RequestId(id),
            prompt: prompt.into(),
            target_output,
            arrival,
            cache_id: None,
            model: None,
        }
    }

    /// The same request aimed at a fleet model.
    pub fn with_model(mut self, model: u32) -> Self {
        self.model = Some(model);
        self
    }

    /// The engine-side submission for this request.
    pub(crate) fn to_new(&self) -> NewRequest {
        NewRequest {
            id: self.id,
            prompt: self.prompt.clone(),
            target_output: self.target_output,
            arrival: self.arrival,
            cache_id: self.cache_id,
        }
    }

    /// Prompt length in tokens.
    pub fn prefill_len(&self) -> usize {
        self.prompt.len()
    }
}

/// One live-ingress event: everything needed to replay a gateway
/// submission deterministically. The arrival stamp is the *final* one the
/// sim chose (strictly increasing, collision-free), so `inject`ing the
/// materialized requests into a fresh sim reproduces the live run
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngressRecord {
    /// Request id (gateway-assigned, unique per run).
    pub id: u64,
    /// Final arrival stamp in integer sim nanoseconds.
    pub arrival_ns: u64,
    /// Tokenized prompt.
    pub prompt: Vec<TokenId>,
    /// Requested output length.
    pub target_output: u32,
    /// Session context-cache id, if the session layer assigned one.
    pub cache_id: Option<u64>,
    /// Fleet model the request targeted, if any.
    pub model: Option<u32>,
}

impl IngressRecord {
    /// Captures a request at the moment it is accepted into the sim.
    pub fn from_request(req: &ApiRequest) -> Self {
        IngressRecord {
            id: req.id.0,
            arrival_ns: req.arrival.as_nanos(),
            prompt: req.prompt.as_slice().to_vec(),
            target_output: req.target_output,
            cache_id: req.cache_id.map(|c| c.0),
            model: req.model,
        }
    }

    /// Materializes the recorded submission for replay.
    pub fn to_request(&self) -> ApiRequest {
        let mut req = ApiRequest::chat(
            self.id,
            self.prompt.clone(),
            self.target_output,
            SimTime::ZERO + SimDuration::from_nanos(self.arrival_ns),
        );
        req.cache_id = self.cache_id.map(CacheId);
        req.model = self.model;
        req
    }

    /// Parses one record from its JSON form. Errors name the missing or
    /// ill-typed field so a hand-edited session log fails loudly.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field {k:?}"));
        let num = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("field {k:?} must be an unsigned integer"))
        };
        let prompt = field("prompt")?
            .as_array()
            .ok_or_else(|| "field \"prompt\" must be an array".to_string())?
            .iter()
            .map(|t| {
                t.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .map(TokenId)
                    .ok_or_else(|| "prompt tokens must be u32".to_string())
            })
            .collect::<Result<Vec<TokenId>, String>>()?;
        let cache_id = match v.get("cache_id") {
            None | Some(Value::Null) => None,
            Some(c) => Some(
                c.as_u64()
                    .ok_or_else(|| "field \"cache_id\" must be an unsigned integer".to_string())?,
            ),
        };
        // Absent in pre-fleet session logs; those replay as `None`.
        let model = match v.get("model") {
            None | Some(Value::Null) => None,
            Some(m) => Some(
                m.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| "field \"model\" must be a u32".to_string())?,
            ),
        };
        Ok(IngressRecord {
            id: num("id")?,
            arrival_ns: num("arrival_ns")?,
            prompt,
            target_output: u32::try_from(num("target_output")?)
                .map_err(|_| "field \"target_output\" must fit in u32".to_string())?,
            cache_id,
            model,
        })
    }
}

impl Serialize for IngressRecord {
    fn to_value(&self) -> Value {
        use serde::value::Number;
        Value::Object(vec![
            ("id".to_string(), Value::Number(Number::U64(self.id))),
            (
                "arrival_ns".to_string(),
                Value::Number(Number::U64(self.arrival_ns)),
            ),
            (
                "prompt".to_string(),
                Value::Array(
                    self.prompt
                        .iter()
                        .map(|&t| Value::Number(Number::U64(u64::from(t.0))))
                        .collect(),
                ),
            ),
            (
                "target_output".to_string(),
                Value::Number(Number::U64(u64::from(self.target_output))),
            ),
            (
                "cache_id".to_string(),
                self.cache_id
                    .map_or(Value::Null, |c| Value::Number(Number::U64(c))),
            ),
            (
                "model".to_string(),
                self.model
                    .map_or(Value::Null, |m| Value::Number(Number::U64(u64::from(m)))),
            ),
        ])
    }
}

/// Materializes a workload [`workloads::ReqSpec`] into a platform request:
/// shared-prefix tokens followed by unique tokens, both derived
/// deterministically from the spec's seeds. Request ids are the caller's
/// (usually the spec's index in the trace).
pub fn materialize(spec: &workloads::ReqSpec, id: u64, vocab: u32) -> ApiRequest {
    let mut prompt = Vec::with_capacity(spec.prompt_len);
    if let Some((seed, len)) = spec.shared_prefix {
        prompt.extend(flowserve::synthetic_tokens(seed, len, vocab));
    }
    prompt.extend(flowserve::synthetic_tokens(
        spec.prompt_seed,
        spec.unique_len(),
        vocab,
    ));
    ApiRequest::chat(id, prompt, spec.output_len, spec.arrival)
}

/// Lazily materializes a stream of specs, assigning sequential ids. The
/// streaming counterpart of [`materialize_trace`]: pulling one item builds
/// one request, so a million-request trace never exists in memory at once.
/// Same specs + same vocab produce byte-identical requests either way.
pub fn stream_trace(
    specs: impl Iterator<Item = workloads::ReqSpec>,
    vocab: u32,
) -> impl Iterator<Item = ApiRequest> {
    specs
        .enumerate()
        .map(move |(i, s)| materialize(&s, i as u64, vocab))
}

/// Materializes a whole trace, assigning sequential ids.
pub fn materialize_trace(specs: &[workloads::ReqSpec], vocab: u32) -> Vec<ApiRequest> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| materialize(s, i as u64, vocab))
        .collect()
}

/// Materializes a fleet trace: sequential ids, each request tagged with
/// its target model.
pub fn materialize_fleet_trace(specs: &[workloads::FleetReqSpec], vocab: u32) -> Vec<ApiRequest> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| materialize(&s.spec, i as u64, vocab).with_model(s.model))
        .collect()
}
