//! The gateway load generator: one closed-loop client that streams
//! multi-turn sessions from a running `serve` over loopback and times every
//! request from the outside.

use crate::spans::{Layer, Recorder};
use serde::{Number, Value};
use simcore::SimRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Completion length every request asks for.
pub const MAX_TOKENS: u32 = 16;
/// Turns per session before the client opens a new one; short enough that
/// the gateway's prefix reuse stays below the code-gen workload's.
pub const TURNS: usize = 4;
/// Mean words per user turn (each turn draws 12 to 36).
pub const TURN_WORDS: usize = 24;

/// Words user turns are drawn from.
const WORDS: [&str; 24] = [
    "route", "cache", "prefix", "token", "batch", "decode", "prefill", "engine", "tensor",
    "stream", "shard", "kernel", "queue", "window", "replica", "session", "gateway", "latency",
    "budget", "memory", "layer", "model", "prompt", "scale",
];

/// What one streamed request saw, in nanoseconds since the run's epoch.
#[derive(Clone, Debug, Default)]
pub struct Exchange {
    pub start: u64,
    pub connected: u64,
    pub head: u64,
    /// Arrival of every frame that carried completion words.
    pub frames: Vec<u64>,
    pub done: u64,
    pub status: u16,
    pub words: u64,
    pub finish_stop: bool,
    pub saw_done: bool,
    /// Frames that were not `data: <json>` with a text choice.
    pub bad_frames: u64,
    pub completion: String,
}

impl Exchange {
    /// Whether the stream met the output contract: 200, well-formed
    /// frames, exactly `MAX_TOKENS` words, `finish_reason: "stop"`, `[DONE]`.
    pub fn ok(&self) -> bool {
        self.status == 200
            && self.bad_frames == 0
            && self.words == u64::from(MAX_TOKENS)
            && self.finish_stop
            && self.saw_done
    }

    /// Connect start to the first token frame.
    pub fn ttft_ms(&self) -> Option<f64> {
        self.frames.first().map(|f| ms(*f - self.start))
    }

    /// First to last token frame over the tokens after the first.
    pub fn tpot_ms(&self) -> Option<f64> {
        let (first, last) = (self.frames.first()?, self.frames.last()?);
        (self.words > 1).then(|| ms(last - first) / (self.words - 1) as f64)
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Sends `requests` streamed completions to `addr`, each after the
/// previous one finished. Returns every exchange and the wall seconds from
/// the first request sent to the last `[DONE]`.
pub fn drive(addr: SocketAddr, seed: u64, requests: usize, epoch: Instant) -> (Vec<Exchange>, f64) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut out: Vec<Exchange> = Vec::with_capacity(requests);
    let mut transcript = String::new();
    for i in 0..requests {
        if i % TURNS == 0 {
            transcript.clear();
        }
        // Turn lengths vary around the mean, so prompt lengths (and with
        // them the simulated latencies) depend on the seed.
        for _ in 0..TURN_WORDS / 2 + rng.index(TURN_WORDS + 1) {
            transcript.push(' ');
            transcript.push_str(WORDS[rng.index(WORDS.len())]);
        }
        let session = format!("s{}", i / TURNS);
        let x = exchange(addr, &session, &transcript, epoch);
        transcript.push_str(&x.completion);
        out.push(x);
    }
    let first = out.first().map_or(0, |x| x.start);
    let last = out.last().map_or(0, |x| x.done);
    (out, (last - first) as f64 / 1e9)
}

fn body(prompt: &str, session: &str) -> String {
    Value::Object(vec![
        ("prompt".into(), Value::String(prompt.to_string())),
        (
            "max_tokens".into(),
            Value::Number(Number::U64(u64::from(MAX_TOKENS))),
        ),
        ("stream".into(), Value::Bool(true)),
        ("session".into(), Value::String(session.to_string())),
    ])
    .to_json()
}

/// One streamed completion over a fresh connection (the gateway serves
/// one request per connection). Transport errors leave `status` 0.
fn exchange(addr: SocketAddr, session: &str, prompt: &str, epoch: Instant) -> Exchange {
    let at = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let body = body(prompt, session);
    let request = format!(
        "POST /v1/completions HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut x = Exchange {
        start: at(Instant::now()),
        ..Exchange::default()
    };
    let Ok(mut stream) = TcpStream::connect(addr) else {
        x.done = at(Instant::now());
        return x;
    };
    let _ = stream.set_nodelay(true);
    x.connected = at(Instant::now());
    if stream.write_all(request.as_bytes()).is_err() {
        x.done = at(Instant::now());
        return x;
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    let mut body_from = None;
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let now = at(Instant::now());
        buf.extend_from_slice(&chunk[..n]);
        if body_from.is_none() {
            let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
                continue;
            };
            x.head = now;
            x.status = parse_status(&buf[..end]);
            body_from = Some(end + 4);
        }
        let Some(from) = body_from.as_mut() else {
            continue;
        };
        // Consume every complete `data: ...\n\n` frame.
        while let Some(len) = buf[*from..].windows(2).position(|w| w == b"\n\n") {
            let frame = String::from_utf8_lossy(&buf[*from..*from + len]).into_owned();
            *from += len + 2;
            take_frame(&mut x, &frame, now);
        }
        if x.saw_done {
            break;
        }
    }
    x.done = at(Instant::now());
    x
}

fn parse_status(head: &[u8]) -> u16 {
    let head = String::from_utf8_lossy(head);
    head.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn take_frame(x: &mut Exchange, frame: &str, now: u64) {
    let Some(payload) = frame.strip_prefix("data: ") else {
        x.bad_frames += 1;
        return;
    };
    if payload == "[DONE]" {
        x.saw_done = true;
        return;
    }
    let choice = Value::parse(payload)
        .ok()
        .and_then(|v| v.get("choices").and_then(|c| c.at(0)).cloned());
    let Some(text) = choice
        .as_ref()
        .and_then(|c| c.get("text"))
        .and_then(Value::as_str)
    else {
        x.bad_frames += 1;
        return;
    };
    let words = text.split_whitespace().count() as u64;
    if words > 0 {
        x.words += words;
        x.frames.push(now);
        x.completion.push_str(text);
    }
    if choice
        .as_ref()
        .and_then(|c| c.get("finish_reason"))
        .and_then(Value::as_str)
        == Some("stop")
    {
        x.finish_stop = true;
    }
}

/// Spans of every exchange: connect / head / first token / stream (split
/// into one child span per token frame and a last one up to `[DONE]`), and
/// the client's own time between requests. The spans tile the client's
/// timeline.
pub fn record(xs: &[Exchange], epoch: Instant) -> Recorder {
    let mut rec = Recorder::new(epoch);
    let mut prev_done = None;
    for x in xs {
        let mut push =
            |layer, name, start, end, parent| rec.push_ns(layer, name, (start, end), parent);
        if let Some(done) = prev_done {
            push(Layer::Client, "between", done, x.start, None);
        }
        let head = x.head.max(x.connected);
        let first = x.frames.first().copied().unwrap_or(x.done);
        push(Layer::Connect, "connect", x.start, x.connected, None);
        push(Layer::Head, "head", x.connected, head, None);
        push(Layer::FirstToken, "first-token", head, first, None);
        let stream = push(Layer::Stream, "stream", first, x.done, None);
        for w in x.frames.windows(2) {
            push(Layer::Stream, "frame", w[0], w[1], Some(stream));
        }
        let last = x.frames.last().copied().unwrap_or(x.done);
        push(Layer::Stream, "[DONE]", last, x.done, Some(stream));
        prev_done = Some(x.done);
    }
    rec
}
