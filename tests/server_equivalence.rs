//! Property tests for `repaird` (PR 9): the server path is byte-identical
//! to the library path.
//!
//! The contract: for ANY sequence of mutations and queries, the transcript
//! produced by real TCP round-trips through a running server — keep-alive
//! framing, per-connection threads, admission gate and all — is **byte
//! identical** to calling the request handler directly in-process, at 1
//! worker thread and at 4, *including* deterministic step-budget
//! truncation. Sessions are independent tenants, so concurrent client
//! threads must not perturb any individual session's transcript.

use cqa_exec::{with_threads, AdmissionGate, CancelToken, ServiceGroup};
use cqa_server::{api, start, Request, ServerConfig, ServerState, SessionStore};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::RwLock;

const DB: &str = "@relation T(K, V)\n0, 1\n0, 2\n1, 1\n2, 5\n";
const SIGMA: &str = "key T(K)\n";

/// One random request against a session. Tids are raw numbers: the
/// allocator is deterministic, so hitting a live tid (200 mutate) or a
/// dead one (400 with an `applied` count) is the same on every path —
/// error replies are part of the byte-identity contract too.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Delete(u64),
    Certain {
        steps: u64,
    },
    Possible,
    /// A listing, cut at `limit` repairs when given.
    Repairs {
        cardinality: bool,
        steps: u64,
        limit: Option<u64>,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0i64..4), (0i64..9)).prop_map(|(k, v)| Op::Insert(k, v)),
        (0u64..10).prop_map(Op::Delete),
        (1u64..300).prop_map(|steps| Op::Certain { steps }),
        Just(Op::Possible),
        ((0u8..2), (1u64..300), (0u64..4)).prop_map(|(c, steps, limit)| Op::Repairs {
            cardinality: c == 1,
            steps,
            limit: (limit > 0).then_some(limit),
        }),
    ]
}

/// Wire form of an op: (path suffix, JSON body).
fn render(op: &Op, id: u64) -> (String, String) {
    match op {
        Op::Insert(k, v) => (
            format!("/sessions/{id}/mutate"),
            format!(r#"{{"ops": [{{"op": "insert", "relation": "T", "row": [{k}, {v}]}}]}}"#),
        ),
        Op::Delete(tid) => (
            format!("/sessions/{id}/mutate"),
            format!(r#"{{"ops": [{{"op": "delete", "tid": {tid}}}]}}"#),
        ),
        Op::Certain { steps } => (
            format!("/sessions/{id}/query"),
            format!(r#"{{"query": "Q(x) :- T(x, y)", "budget_steps": {steps}}}"#),
        ),
        Op::Possible => (
            format!("/sessions/{id}/query"),
            r#"{"query": "Q(x) :- T(x, y)", "kind": "possible"}"#.to_string(),
        ),
        Op::Repairs {
            cardinality,
            steps,
            limit,
        } => (
            format!("/sessions/{id}/repairs"),
            format!(
                r#"{{"class": "{}", "budget_steps": {steps}{}}}"#,
                if *cardinality {
                    "cardinality"
                } else {
                    "subset"
                },
                limit.map_or_else(String::new, |n| format!(r#", "limit": {n}"#)),
            ),
        ),
    }
}

fn create_body() -> String {
    format!(
        "{{\"db\": {}, \"constraints\": {}}}",
        cqa_server::Json::str(DB),
        cqa_server::Json::str(SIGMA)
    )
}

/// The library path: `api::handle` called directly, no sockets.
fn run_direct(sessions: &[Vec<Op>]) -> Vec<Vec<String>> {
    let state = ServerState {
        config: ServerConfig::default(),
        sessions: SessionStore::new(64),
        gate: AdmissionGate::new(64),
        stop: CancelToken::new(),
    };
    let slot = RwLock::new(None);
    let call = |method: &str, path: &str, body: &str| -> String {
        let req = Request {
            method: method.to_string(),
            path: path.to_string(),
            body: body.as_bytes().to_vec(),
            close: false,
        };
        let reply = api::handle(&state, &req, &slot);
        format!("{} {}", reply.status, reply.body)
    };
    let mut transcripts = Vec::new();
    for (i, ops) in sessions.iter().enumerate() {
        let mut t = vec![call("POST", "/sessions", &create_body())];
        let id = i as u64 + 1;
        for op in ops {
            let (path, body) = render(op, id);
            t.push(call("POST", &path, &body));
        }
        transcripts.push(t);
    }
    transcripts
}

fn send(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
}

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
        if line.trim_end().is_empty() {
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
    (status, String::from_utf8(body).expect("utf8"))
}

/// The server path: a real listener, sessions created sequentially (so
/// ids are deterministic), then one concurrent keep-alive client thread
/// per session.
fn run_server(sessions: &[Vec<Op>]) -> Vec<Vec<String>> {
    let handle = start(ServerConfig::default()).expect("start");
    let addr = handle.addr();
    let mut transcripts: Vec<Vec<String>> = Vec::new();
    for _ in sessions {
        let mut stream = TcpStream::connect(addr).expect("connect");
        send(&mut stream, "POST", "/sessions", &create_body());
        let (status, body) = read_reply(&mut BufReader::new(stream));
        transcripts.push(vec![format!("{status} {body}")]);
    }
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Vec<String>)>();
    let mut clients = ServiceGroup::new();
    for (i, ops) in sessions.iter().enumerate() {
        let ops = ops.clone();
        let tx = tx.clone();
        let spawned = clients.spawn("equivalence-client", move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut t = Vec::new();
            for op in &ops {
                let (path, body) = render(op, i as u64 + 1);
                send(&mut stream, "POST", &path, &body);
                let (status, body) = read_reply(&mut reader);
                t.push(format!("{status} {body}"));
            }
            tx.send((i, t)).expect("collector alive");
        });
        assert!(spawned, "could not spawn a client thread");
    }
    drop(tx);
    assert!(clients.join_all().is_empty(), "a client thread panicked");
    for (i, t) in rx {
        transcripts[i].extend(t);
    }
    handle.shutdown();
    handle.join();
    transcripts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Direct dispatch at 1 thread ≡ TCP server at 1 thread ≡ TCP server
    /// with concurrent clients at 4 threads, transcript-for-transcript,
    /// limited listings included.
    #[test]
    fn server_transcripts_match_library_path(
        sessions in vec(vec(arb_op(), 1..8), 1..4),
    ) {
        let direct = with_threads(1, || run_direct(&sessions));
        let serial = with_threads(1, || run_server(&sessions));
        prop_assert_eq!(&direct, &serial, "TCP framing changed a reply");
        let concurrent = with_threads(4, || run_server(&sessions));
        prop_assert_eq!(&direct, &concurrent, "thread count changed a reply");
    }
}

/// Deterministic truncation pin: a step budget that latches mid-repair
/// enumeration truncates at the same point over the wire as in-process.
/// The key group `T(0, _)` is a single-edge component whose two repairs
/// cost one step each (after one step for the size proof under
/// cardinality), so both budgets cut after the first repair.
#[test]
fn step_truncation_is_byte_identical_over_the_wire() {
    let ops = vec![vec![
        Op::Repairs {
            cardinality: false,
            steps: 1,
            limit: None,
        },
        Op::Certain { steps: 1 },
        Op::Repairs {
            cardinality: true,
            steps: 2,
            limit: None,
        },
    ]];
    let direct = with_threads(1, || run_direct(&ops));
    let over_wire = with_threads(4, || run_server(&ops));
    assert_eq!(direct, over_wire);
    let flat = direct.concat().join("\n");
    assert!(flat.contains("truncated"), "expected a truncation: {flat}");
}
