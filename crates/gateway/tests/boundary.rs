//! Boundary tests for the gateway over real loopback TCP: malformed
//! requests, truncated reads, oversized bodies, unknown routes,
//! mid-stream disconnects, a client stalled mid-head, concurrent
//! sessions, a mid-run `/metrics` read, and an idle server's wall
//! deadline. The server must answer each with the right status code and
//! keep serving — never panic.
#![expect(
    clippy::disallowed_methods,
    reason = "the server runs on its own thread so the test can be its concurrent clients"
)]

use deepserve_gateway::{build_fleet_sim, build_sim, log, ServeOutcome, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Starts a gateway on an ephemeral loopback port with an aggressive
/// timescale (so completions finish in a few wall ms) and a wall-clock
/// safety valve.
fn start(max_requests: Option<u64>) -> (SocketAddr, JoinHandle<ServeOutcome>) {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        timescale: 500.0,
        tes: 2,
        max_requests,
        max_wall_ms: Some(30_000),
        ..ServerConfig::default()
    };
    let server = Server::bind(cfg).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    stream
}

/// Sends raw bytes, then reads until the server closes the connection.
fn roundtrip(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = connect(addr);
    stream.write_all(raw).expect("write request");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read response");
    String::from_utf8_lossy(&out).into_owned()
}

fn post(addr: SocketAddr, path: &str, session: Option<&str>, body: &str) -> String {
    let session_header =
        session.map_or(String::new(), |s| format!("Authorization: Bearer {s}\r\n"));
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\n{session_header}Content-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    roundtrip(addr, raw.as_bytes())
}

fn shutdown_server(addr: SocketAddr) {
    let _ = roundtrip(
        addr,
        b"POST /admin/shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    );
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"))
}

#[test]
fn malformed_and_unroutable_requests_get_proper_codes() {
    let (addr, handle) = start(None);

    // Malformed request line.
    assert_eq!(status_of(&roundtrip(addr, b"NONSENSE\r\n\r\n")), 400);
    // Unsupported HTTP version.
    assert_eq!(status_of(&roundtrip(addr, b"GET / HTTP/2.0\r\n\r\n")), 505);
    // Unknown route.
    assert_eq!(
        status_of(&roundtrip(addr, b"GET /nope HTTP/1.1\r\n\r\n")),
        404
    );
    // Known route, wrong method.
    assert_eq!(
        status_of(&roundtrip(addr, b"GET /v1/completions HTTP/1.1\r\n\r\n")),
        405
    );
    assert_eq!(
        status_of(&roundtrip(
            addr,
            b"POST /v1/models HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
        )),
        405
    );
    // Oversized declared body.
    let huge = format!(
        "POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        64 << 20
    );
    assert_eq!(status_of(&roundtrip(addr, huge.as_bytes())), 413);
    // Bad Content-Length.
    assert_eq!(
        status_of(&roundtrip(
            addr,
            b"POST /v1/completions HTTP/1.1\r\nContent-Length: ten\r\n\r\n"
        )),
        400
    );
    // Invalid JSON body.
    assert_eq!(
        status_of(&post(addr, "/v1/completions", None, "{nope")),
        400
    );
    // Valid JSON, empty prompt.
    assert_eq!(
        status_of(&post(addr, "/v1/completions", None, r#"{"prompt":""}"#)),
        400
    );
    // `max_tokens` outside 1..=2048; the error names the cap.
    for bad in [0, 2049] {
        let body = format!(r#"{{"prompt":"hi","max_tokens":{bad}}}"#);
        let response = post(addr, "/v1/completions", None, &body);
        assert_eq!(status_of(&response), 400, "{response}");
        assert!(response.contains("2048"), "{response}");
    }

    // The server survived all of it and still serves the models route.
    let models = roundtrip(addr, b"GET /v1/models HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&models), 200);
    assert!(models.contains("deepserve-34b"), "{models}");

    // A request without `max_tokens` gets the default 16 tokens.
    let response = post(addr, "/v1/completions", None, r#"{"prompt":"hi"}"#);
    assert_eq!(status_of(&response), 200, "{response}");
    let body = response.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    let v = serde::Value::parse(body).unwrap_or_else(|e| panic!("{e}: {body:?}"));
    let completion_tokens = v
        .get("usage")
        .and_then(|u| u.get("completion_tokens"))
        .and_then(serde::Value::as_u64);
    assert_eq!(completion_tokens, Some(16), "{v:?}");

    shutdown_server(addr);
    let outcome = handle.join().expect("server thread");
    assert_eq!(
        outcome.served, 1,
        "only the default-length request is served"
    );
}

#[test]
fn truncated_and_chunked_writes_still_parse() {
    let (addr, handle) = start(None);

    // A request trickled in across several writes must still be served.
    let body = r#"{"prompt":"hello slow world","max_tokens":3}"#;
    let raw = format!(
        "POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut stream = connect(addr);
    for chunk in raw.as_bytes().chunks(7) {
        stream.write_all(chunk).expect("write chunk");
        stream.flush().expect("flush");
        thread::sleep(Duration::from_millis(2));
    }
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read response");
    let response = String::from_utf8_lossy(&out);
    assert_eq!(status_of(&response), 200, "{response}");
    assert!(response.contains("\"text\""), "{response}");

    // A connection abandoned mid-head (client hangs up before CRLF CRLF)
    // must not wedge or kill the server.
    let mut partial = connect(addr);
    partial
        .write_all(b"POST /v1/completions HTTP/1.1\r\nContent-Le")
        .expect("write partial");
    partial.shutdown(Shutdown::Both).expect("shutdown");
    drop(partial);

    let models = roundtrip(addr, b"GET /v1/models HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&models), 200);

    shutdown_server(addr);
    let outcome = handle.join().expect("server thread");
    assert_eq!(outcome.served, 1);
}

#[test]
fn streaming_completion_emits_sse_frames_and_done() {
    let (addr, handle) = start(None);

    let response = post(
        addr,
        "/v1/completions",
        Some("sse-suite"),
        r#"{"prompt":"stream me a story","max_tokens":4,"stream":true}"#,
    );
    assert_eq!(status_of(&response), 200, "{response}");
    assert!(
        response.contains("Content-Type: text/event-stream"),
        "{response}"
    );
    let frames: Vec<&str> = response
        .split("\r\n\r\n")
        .nth(1)
        .expect("sse body")
        .split("\n\n")
        .filter(|f| !f.is_empty())
        .collect();
    assert!(
        frames.len() >= 2,
        "expected data frames plus [DONE], got {frames:?}"
    );
    assert!(frames.iter().all(|f| f.starts_with("data: ")), "{frames:?}");
    assert_eq!(*frames.last().expect("last frame"), "data: [DONE]");
    // Concatenating the chunk deltas must equal the blocking text for the
    // same request id sequence; at minimum every payload frame is JSON
    // with a text delta or a finish marker.
    for frame in &frames[..frames.len() - 1] {
        let payload = frame.trim_start_matches("data: ");
        let v = serde::Value::parse(payload).expect("frame is JSON");
        assert!(v.get("choices").is_some(), "{payload}");
    }

    shutdown_server(addr);
    let outcome = handle.join().expect("server thread");
    assert_eq!(outcome.served, 1);
}

#[test]
fn midstream_disconnect_does_not_kill_the_server() {
    let (addr, handle) = start(None);

    // Start a long streaming completion, read only the head, vanish.
    let body = r#"{"prompt":"long running stream","max_tokens":64,"stream":true}"#;
    let raw = format!(
        "POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut stream = connect(addr);
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut head = [0u8; 64];
    let n = stream.read(&mut head).expect("read some");
    assert!(n > 0, "expected at least the response head");
    stream.shutdown(Shutdown::Both).expect("shutdown");
    drop(stream);

    // The server must keep serving other clients to completion.
    let response = post(
        addr,
        "/v1/completions",
        None,
        r#"{"prompt":"after the disconnect","max_tokens":2}"#,
    );
    assert_eq!(status_of(&response), 200, "{response}");

    shutdown_server(addr);
    let outcome = handle.join().expect("server thread");
    // Both requests entered the sim; both are in the ingress log even
    // though one client vanished.
    assert_eq!(outcome.ingress.len(), 2);
}

#[test]
fn concurrent_sessions_are_served_and_replay_is_byte_identical() {
    let (addr, handle) = start(None);

    // Two sessions, two turns each, with the second turn resending the
    // first turn's transcript (prefix reuse), plus overlap in flight.
    let turn = |session: &str, text: &str| {
        let body = format!(r#"{{"prompt":"{text}","max_tokens":3}}"#);
        let session = session.to_string();
        move || {
            let response = post(addr, "/v1/completions", Some(&session), &body);
            assert_eq!(status_of(&response), 200, "{response}");
            let json_body = response.split("\r\n\r\n").nth(1).expect("body").to_string();
            serde::Value::parse(&json_body).expect("completion is JSON")
        }
    };
    let a1 = thread::spawn(turn("alice", "alice opening line"));
    let b1 = thread::spawn(turn("bob", "bob opening line"));
    let va = a1.join().expect("alice turn 1");
    let vb = b1.join().expect("bob turn 1");
    for v in [&va, &vb] {
        let completion_tokens = v
            .get("usage")
            .and_then(|u| u.get("completion_tokens"))
            .and_then(serde::Value::as_u64);
        assert!(completion_tokens.is_some(), "usage missing: {v:?}");
    }
    let a2 = thread::spawn(turn("alice", "alice opening line and a follow-up"));
    let vb2 = turn("bob", "bob opening line with more context")();
    let va2 = a2.join().expect("alice turn 2");
    assert!(va2.get("id").is_some() && vb2.get("id").is_some());

    shutdown_server(addr);
    let outcome = handle.join().expect("server thread");
    assert_eq!(outcome.served, 4);
    assert_eq!(outcome.ingress.len(), 4);

    // Same-session turns share a cache id; distinct sessions do not.
    let cache_ids: Vec<Option<u64>> = outcome.ingress.iter().map(|r| r.cache_id).collect();
    let distinct: std::collections::BTreeSet<_> = cache_ids.iter().flatten().collect();
    assert_eq!(
        distinct.len(),
        2,
        "two sessions -> two cache ids: {cache_ids:?}"
    );

    // The acceptance contract: replaying the recorded session log through
    // a fresh deterministic cluster reproduces the live report
    // byte-for-byte.
    let replayed = log::replay(&outcome.ingress, || build_sim(2))
        .to_json()
        .to_json();
    assert_eq!(
        replayed, outcome.report_json,
        "replay must match the live report"
    );

    // And the serialized session log round-trips.
    let serialized = log::to_json(&outcome.ingress);
    let parsed = log::from_json(&serialized).expect("session log parses");
    assert_eq!(parsed, outcome.ingress);
}

#[test]
fn fleet_gateway_cold_starts_and_reports_load_states() {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        timescale: 500.0,
        tes: 2,
        fleet_models: 3,
        max_wall_ms: Some(30_000),
        ..ServerConfig::default()
    };
    let server = Server::bind(cfg).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = thread::spawn(move || server.run());

    // Before any request, every endpoint is advertised unloaded.
    let models = roundtrip(addr, b"GET /v1/models HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&models), 200);
    assert!(models.contains("fleet-000-generic-7b"), "{models}");
    assert!(models.contains("fleet-001-llama3-8b"), "{models}");
    assert!(!models.contains("\"loaded\""), "{models}");
    assert_eq!(models.matches("\"unloaded\"").count(), 3, "{models}");

    // An endpoint the registry does not know is rejected up front.
    let nope = post(
        addr,
        "/v1/completions",
        None,
        r#"{"prompt":"hi","max_tokens":2,"model":"no-such-model"}"#,
    );
    assert_eq!(status_of(&nope), 404, "{nope}");

    // A completion against an unloaded endpoint pays the cold start
    // in-band and still answers 200.
    let response = post(
        addr,
        "/v1/completions",
        None,
        r#"{"prompt":"wake up the fleet","max_tokens":2,"model":"fleet-000-generic-7b"}"#,
    );
    assert_eq!(status_of(&response), 200, "{response}");
    assert!(response.contains("\"text\""), "{response}");
    assert!(
        response.contains("\"model\":\"fleet-000-generic-7b\""),
        "response must echo the fleet endpoint, not the default model: {response}"
    );

    // The served endpoint now advertises as loaded.
    let models = roundtrip(addr, b"GET /v1/models HTTP/1.1\r\n\r\n");
    assert!(models.contains("\"loaded\""), "{models}");

    shutdown_server(addr);
    let outcome = handle.join().expect("server thread");
    assert_eq!(outcome.served, 1);
    assert_eq!(outcome.ingress.len(), 1);
    assert_eq!(outcome.ingress[0].model, Some(0), "model tag recorded");

    // The fleet session log replays byte-for-byte through the same
    // topology, cold start included.
    let mut replayed = log::replay(&outcome.ingress, || build_fleet_sim(2, 3));
    assert!(
        replayed.counters.get("fleet.cold_starts") >= 1,
        "replay must re-pay the cold start: {:?}",
        replayed.counters
    );
    assert_eq!(replayed.to_json().to_json(), outcome.report_json);
}

/// `GET /metrics` renders the live run's `metrics` section: no latency
/// entry before a completion, one sample after it, and reading it leaves
/// the run's report as replay makes it.
#[test]
fn metrics_endpoint_snapshots_the_live_run() {
    let (addr, handle) = start(None);
    let metrics = || {
        let response = roundtrip(addr, b"GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status_of(&response), 200, "{response}");
        let body = response.split_once("\r\n\r\n").map_or("", |(_, b)| b);
        serde::Value::parse(body).unwrap_or_else(|e| panic!("{e}: {body:?}"))
    };
    let field = |v: &serde::Value, path: &[&str]| {
        path.iter()
            .try_fold(v, |v, k| v.get(k))
            .and_then(serde::Value::as_u64)
    };

    let before = metrics();
    assert!(before.get("cluster.ttft_ms").is_none(), "{before:?}");

    let response = post(
        addr,
        "/v1/completions",
        None,
        r#"{"prompt":"count me once","max_tokens":3}"#,
    );
    assert_eq!(status_of(&response), 200, "{response}");
    let after = metrics();
    assert_eq!(
        field(&after, &["cluster.ttft_ms", "summary", "count"]),
        Some(1)
    );
    assert_eq!(field(&after, &["sim.completed", "value"]), Some(1));

    shutdown_server(addr);
    let outcome = handle.join().expect("server thread");
    let replayed = log::replay(&outcome.ingress, || build_sim(2))
        .to_json()
        .to_json();
    assert_eq!(
        replayed, outcome.report_json,
        "a /metrics read perturbed the live report"
    );
}

#[test]
fn max_requests_drains_and_exits_without_shutdown_call() {
    let (addr, handle) = start(Some(1));
    let response = post(
        addr,
        "/v1/completions",
        None,
        r#"{"prompt":"one and done","max_tokens":2}"#,
    );
    assert_eq!(status_of(&response), 200, "{response}");
    let outcome = handle.join().expect("server exits after max requests");
    assert_eq!(outcome.served, 1);
}

#[test]
fn idle_gateway_exits_at_its_wall_deadline() {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        timescale: 500.0,
        tes: 2,
        max_wall_ms: Some(300),
        ..ServerConfig::default()
    };
    let server = Server::bind(cfg).expect("bind loopback");
    let handle = thread::spawn(move || server.run());

    // No client ever connects, so the loop spends the whole run in its
    // idle wait; that wait must still wake to see the deadline. Poll for
    // up to 10 s and fail rather than hang if it never does.
    for _ in 0..1000 {
        if handle.is_finished() {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    assert!(
        handle.is_finished(),
        "an idle gateway with a 300 ms wall deadline still ran after 10 s"
    );
    let outcome = handle.join().expect("server thread");
    assert_eq!(outcome.served, 0);
    assert!(outcome.ingress.is_empty());
}

#[test]
fn half_sent_request_does_not_hold_up_other_clients() {
    let (addr, handle) = start(None);

    // Client A sends its request line and half a header, then stalls.
    let body = r#"{"prompt":"a client that pauses mid-header","max_tokens":3}"#;
    let raw = format!(
        "POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (head, rest) = raw.split_at(raw.find("Length").expect("header"));
    let mut stalled = connect(addr);
    stalled
        .write_all(head.as_bytes())
        .expect("write half a head");
    stalled.flush().expect("flush");

    // Client B's streamed completion runs to [DONE] meanwhile. A connected
    // first, so the server accepts it no later than B, and A's half head
    // sits in its socket for all of B's stream.
    let response = post(
        addr,
        "/v1/completions",
        Some("second-client"),
        r#"{"prompt":"stream past the stalled client","max_tokens":4,"stream":true}"#,
    );
    assert_eq!(status_of(&response), 200, "{response}");
    assert!(response.ends_with("data: [DONE]\n\n"), "{response}");

    // A finishes its request and is served.
    stalled.write_all(rest.as_bytes()).expect("write the rest");
    let mut out = Vec::new();
    stalled.read_to_end(&mut out).expect("read response");
    let response = String::from_utf8_lossy(&out);
    assert_eq!(status_of(&response), 200, "{response}");
    assert!(response.contains("\"text\""), "{response}");

    shutdown_server(addr);
    let outcome = handle.join().expect("server thread");
    assert_eq!(outcome.served, 2);
    let replayed = log::replay(&outcome.ingress, || build_sim(2))
        .to_json()
        .to_json();
    assert_eq!(
        replayed, outcome.report_json,
        "replay must match the live report"
    );
}
