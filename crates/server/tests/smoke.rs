//! Live-socket smoke tests for `repaird`: the graceful-degradation and
//! lifecycle contract, driven through real TCP connections against an
//! in-process server.
//!
//! Covered here (the CI "server smoke" job runs exactly this suite plus
//! the CLI binary test):
//! * an over-budget query returns a `truncated` JSON body on a healthy
//!   connection — never a dropped connection;
//! * a saturated admission gate answers 429 + `Retry-After` while
//!   `/health` stays reachable;
//! * a client that disconnects mid-request has its work cancelled and the
//!   in-flight count drains back to zero;
//! * shutdown is clean: accept loop exits, sessions are not leaked;
//! * a fresh connection is served at once, not at an acceptor poll tick.

use cqa_server::{start, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Minimal test client: one request over a fresh connection.
fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    send(&mut stream, method, path, body);
    read_reply(&mut BufReader::new(stream))
}

fn send(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
}

/// Parse one HTTP response (status, body) off a buffered stream.
fn read_reply(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse().ok())
        {
            content_length = v;
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf8 body"))
}

/// A small inconsistent instance: one key, two conflicting groups.
const DB: &str = "@relation Employee(Name, Salary)\n'page', 5000\n'page', 8000\n'smith', 3000\n";
const SIGMA: &str = "key Employee(Name)\n";

fn create_session(addr: std::net::SocketAddr) -> u64 {
    let body = format!(
        r#"{{"db": {}, "constraints": {}}}"#,
        json_str(DB),
        json_str(SIGMA)
    );
    let (status, reply) = request(addr, "POST", "/sessions", &body);
    assert_eq!(status, 200, "create failed: {reply}");
    field_u64(&reply, "session").expect("session id")
}

fn json_str(s: &str) -> String {
    cqa_server::Json::str(s).to_string()
}

/// Pull `"name":<int>` out of a flat JSON reply (enough for smoke checks).
fn field_u64(reply: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let rest = &reply[reply.find(&key)? + key.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[test]
fn over_budget_query_truncates_on_a_live_connection() {
    let handle = start(ServerConfig::default()).expect("start");
    let addr = handle.addr();
    let id = create_session(addr);

    // Keep-alive connection: over-budget query, then a healthy one — both
    // on the SAME socket, proving truncation did not kill the connection.
    // `timeout_ms: 0` is a budget born exhausted; the cardinality class
    // goes through repair enumeration, the budget-metered regime (the
    // planner's polynomial paths are deliberately budget-exempt — they
    // answer exactly in less time than a truncation check would justify).
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    send(
        &mut stream,
        "POST",
        &format!("/sessions/{id}/query"),
        r#"{"query": "Q(x) :- Employee(x, y)", "class": "cardinality", "timeout_ms": 0}"#,
    );
    let (status, reply) = read_reply(&mut reader);
    assert_eq!(status, 200, "truncation must be a 200: {reply}");
    assert!(
        reply.contains(r#""truncated":{"reason":"deadline""#),
        "expected a deadline truncation, got {reply}"
    );
    // Truncated answers are a sound *subset* of the exact certain answers
    // {page, smith}: whatever survived the exhausted enumeration must not
    // include anything outside that set.
    assert!(
        reply.contains(r#""answers":["#),
        "missing answers field: {reply}"
    );
    assert!(
        !reply.contains("8000") && !reply.contains("5000") && !reply.contains("3000"),
        "truncated answers leaked non-certain values: {reply}"
    );

    send(
        &mut stream,
        "POST",
        &format!("/sessions/{id}/query"),
        r#"{"query": "Q(x) :- Employee(x, y)"}"#,
    );
    let (status, reply) = read_reply(&mut reader);
    assert_eq!(status, 200);
    assert!(
        reply.contains("(smith)") && !reply.contains("truncated"),
        "unbudgeted rerun on same socket must be exact: {reply}"
    );

    let (status, _) = request(addr, "DELETE", &format!("/sessions/{id}"), "");
    assert_eq!(status, 200);
    let (_, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(handle.join(), 0, "sessions leaked across shutdown");
}

#[test]
fn saturated_gate_answers_429_and_health_stays_up() {
    let config = ServerConfig {
        max_inflight: 0, // everything is "excess load"
        ..ServerConfig::default()
    };
    let handle = start(config).expect("start");
    let addr = handle.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    send(
        &mut stream,
        "POST",
        "/sessions",
        r#"{"db": "", "constraints": ""}"#,
    );
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status");
    assert!(
        status_line.contains("429"),
        "expected 429 from a saturated gate, got {status_line:?}"
    );
    let mut retry_after = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        if line.trim_end().is_empty() {
            break;
        }
        if line.to_ascii_lowercase().starts_with("retry-after:") {
            retry_after = true;
        }
    }
    assert!(retry_after, "429 must carry Retry-After");

    // Health is exempt from admission (it does no CQA work).
    let (status, reply) = request(addr, "GET", "/health", "");
    assert_eq!(status, 200);
    assert!(reply.contains(r#""status":"ok""#), "{reply}");
    // The fleet-wide subplan-cache counters ride along.
    assert!(reply.contains(r#""plan_cache""#), "{reply}");
    assert!(reply.contains(r#""hits""#), "{reply}");
    assert!(reply.contains(r#""misses""#), "{reply}");

    handle.shutdown();
    assert_eq!(handle.join(), 0);
}

#[test]
fn mid_request_disconnect_cancels_work_and_drains() {
    let handle = start(ServerConfig::default()).expect("start");
    let addr = handle.addr();

    // A session whose repair space is huge: 18 independent conflicts give
    // 2^18 S-repairs — ample time to hang up mid-enumeration.
    let mut db = String::from("@relation T(K, V)\n");
    for k in 0..18 {
        db.push_str(&format!("{k}, 1\n{k}, 2\n"));
    }
    let body = format!(
        r#"{{"db": {}, "constraints": {}}}"#,
        json_str(&db),
        json_str("key T(K)\n")
    );
    let (status, reply) = request(addr, "POST", "/sessions", &body);
    assert_eq!(status, 200, "{reply}");
    let id = field_u64(&reply, "session").expect("id");

    // Fire the expensive request and immediately hang up.
    let mut stream = TcpStream::connect(addr).expect("connect");
    send(
        &mut stream,
        "POST",
        &format!("/sessions/{id}/repairs"),
        r#"{"class": "subset"}"#,
    );
    drop(stream);

    // The disconnect watcher must cancel the budget: in-flight drains back
    // to zero well before the enumeration could have finished naturally.
    let mut drained = false;
    for _ in 0..400 {
        let (status, reply) = request(addr, "GET", "/health", "");
        assert_eq!(status, 200);
        if field_u64(&reply, "inflight") == Some(0) {
            drained = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        drained,
        "in-flight request was not cancelled after disconnect"
    );

    // The server is still fully functional afterwards.
    let (status, reply) = request(
        addr,
        "POST",
        &format!("/sessions/{id}/query"),
        r#"{"query": "Q(x) :- T(x, y)", "budget_steps": 500000}"#,
    );
    assert_eq!(status, 200, "{reply}");

    let (status, _) = request(addr, "DELETE", &format!("/sessions/{id}"), "");
    assert_eq!(status, 200);
    let (_, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(handle.join(), 0);
}

#[test]
fn protocol_errors_are_4xx_not_drops() {
    let handle = start(ServerConfig {
        max_body_bytes: 1024,
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = handle.addr();

    // Malformed JSON → 400 with an error body.
    let id_body = format!(
        r#"{{"db": {}, "constraints": {}}}"#,
        json_str(DB),
        json_str(SIGMA)
    );
    let (status, reply) = request(addr, "POST", "/sessions", &id_body);
    assert_eq!(status, 200, "{reply}");
    let id = field_u64(&reply, "session").expect("id");
    let (status, reply) = request(addr, "POST", &format!("/sessions/{id}/query"), "{nope");
    assert_eq!(status, 400);
    assert!(reply.contains("error"), "{reply}");

    // Unknown session → 404; bad route → 404; wrong method → 405.
    let (status, _) = request(
        addr,
        "POST",
        "/sessions/9999/query",
        r#"{"query":"Q(x) :- Employee(x, y)"}"#,
    );
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/nothing/here", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "PUT", "/sessions", "{}");
    assert_eq!(status, 405);

    // Oversized body → 413.
    let big = format!(
        r#"{{"db": {}, "constraints": ""}}"#,
        json_str(&"x".repeat(4096))
    );
    let (status, _) = request(addr, "POST", "/sessions", &big);
    assert_eq!(status, 413);

    handle.shutdown();
    assert_eq!(handle.join(), 1, "the one live session is dropped at join");
}

#[test]
fn fresh_connections_are_served_without_an_accept_poll() {
    // The acceptor blocks in `accept`, so each new connection's request is
    // answered at once. An acceptor that polled its listener every 25 ms
    // made these 20 one-shot requests take about half a second.
    let handle = start(ServerConfig::default()).expect("start");
    let addr = handle.addr();
    let started = Instant::now();
    for _ in 0..20 {
        let (status, reply) = request(addr, "GET", "/health", "");
        assert_eq!(status, 200, "{reply}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "20 one-shot requests took {elapsed:?}"
    );
    // `POST /shutdown` wakes the blocked acceptor, so `join` returns.
    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(handle.join(), 0);
}
