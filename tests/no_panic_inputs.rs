//! The panic-free input surface, fuzzed: arbitrary byte strings and
//! near-valid mutations (truncations, insertions, byte flips) are fed to
//! every parser that accepts user-controlled text — the relation codec, the
//! constraint parser, the query parser, `repaird`'s JSON parser and its
//! HTTP request reader — and to the `repairctl` argument dispatcher. The
//! only assertion is that nothing panics: malformed input must come back as
//! a typed error (`RelationError::Codec` with line and column, a
//! `ParseError`, a JSON error message, an `HttpError`, or a CLI
//! diagnostic), never as an abort.
//!
//! A proptest failure here is a crash bug by definition; the shrunk input
//! is the reproducer.

use proptest::prelude::*;

/// A well-formed codec file covering every value shape (quoted strings with
/// `''` escapes, ints, floats, bools, labelled nulls) — the seed that the
/// near-valid mutations perturb. One-byte damage to this file used to panic
/// the tokenizer (trailing escape at end of input). The multibyte string,
/// the U+00A0 separators and indentation and the indented row put one-byte
/// damage inside multibyte sequences and around the byte-level scanner's
/// whitespace handling.
const VALID_DB: &str = "\
@relation R(A, B, C)\n\
'a', 1, 2.5\n\
'b''c', -7, NULL\n\
'', true, NULL_3\n\
'é😀', 4, 0.5\n\
'd',\u{a0}5,\u{a0}false\n\
\u{a0} 'e', 6, 7.0\n\
\n\
@relation S(X)\n\
'o''brien'\n";

const VALID_SIGMA: &str = "\
key R(A)\n\
fd R: A -> B\n\
dc R(x, y, z), S(x)\n";

const VALID_QUERY: &str = "Q(x, y) :- R(x, y, z), S(x), y != z";

/// A small `POST /sessions` body. Its strings hold `\n` and `\"` escapes,
/// an escaped surrogate pair, raw multibyte text, and runs longer than the
/// eight bytes the JSON string scan reads at a time, so one-byte damage
/// lands inside escapes, multibyte sequences and scanned words alike.
const VALID_CREATE: &str = r#"{"db": "@relation T(K, V)\n'k\"é', 'grüße 😀 straße'\n0, 1\n0, 2\n", "constraints": "key T(K)\n", "note": "snowman \u2603, face \ud83d\ude00, tab\t", "n": [1, -2.5e3, true, null]}"#;

/// A well-formed keep-alive query request (head plus its JSON body).
fn valid_request() -> Vec<u8> {
    let body = r#"{"query": "Q(x) :- T(x, y)", "class": "certain"}"#;
    format!(
        "POST /sessions/1/query?trace=1 HTTP/1.1\r\nHost: localhost\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Read requests off `bytes` the way a connection does, until the stream
/// ends or a request fails. Only panics are errors.
fn read_all_requests(bytes: &[u8]) {
    let mut reader = std::io::BufReader::new(bytes);
    for _ in 0..4 {
        match cqa_server::read_request(&mut reader, 1 << 16) {
            Ok(Some(_)) => {}
            Ok(None) | Err(_) => return,
        }
    }
}

/// Request bytes: byte-level mutations of [`valid_request`] (truncations,
/// insertions, overwrites, so also non-UTF-8 heads), the request with a bad
/// `Content-Length`, and raw garbage.
fn request_bytes() -> impl Strategy<Value = Vec<u8>> {
    let valid = valid_request();
    let len = valid.len();
    let mutated = (0usize..len, any::<u8>(), 0u8..3).prop_map(move |(i, b, op)| {
        let mut v = valid_request();
        match op {
            0 => v.truncate(i),
            1 => v.insert(i, b),
            _ => v[i] = b,
        }
        v
    });
    let bad_length = prop_oneof![
        Just("-1"),
        Just("abc"),
        Just(""),
        Just("0"),
        Just("5"),
        Just("4096"),
        Just("1e3"),
        Just("18446744073709551616"),
        Just("99999999999999"),
    ]
    .prop_map(|n| {
        format!("POST /sessions HTTP/1.1\r\nContent-Length: {n}\r\n\r\n{{\"db\": \"\"}}")
            .into_bytes()
    });
    let garbage = proptest::collection::vec(any::<u8>(), 0..64);
    prop_oneof![mutated, bad_length, garbage]
}

/// Mutate a seed string: truncate at a byte index, insert a byte, or
/// overwrite a byte. Lossy UTF-8 recovery keeps the result a `&str` (the
/// parsers' actual input type) whatever the damage.
fn mutations(seed: &'static str) -> impl Strategy<Value = String> {
    (0usize..seed.len(), any::<u8>(), 0u8..3).prop_map(move |(i, b, op)| {
        let mut v = seed.as_bytes().to_vec();
        match op {
            0 => v.truncate(i),
            1 => v.insert(i, b),
            _ => v[i] = b,
        }
        String::from_utf8_lossy(&v).into_owned()
    })
}

/// Short fully-arbitrary byte strings (the "garbage" end of the spectrum).
fn garbage() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..64)
        .prop_map(|v| String::from_utf8_lossy(&v).into_owned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn codec_load_never_panics(s in prop_oneof![mutations(VALID_DB), garbage()]) {
        let _ = cqa_relation::load(&s);
    }

    #[test]
    fn constraint_parser_never_panics(
        s in prop_oneof![mutations(VALID_SIGMA), garbage()],
    ) {
        let _ = cqa_constraints::parse_constraints(&s);
    }

    #[test]
    fn query_parser_never_panics(s in prop_oneof![mutations(VALID_QUERY), garbage()]) {
        let _ = cqa_query::parse_query(&s);
    }

    #[test]
    fn json_parser_never_panics(s in prop_oneof![mutations(VALID_CREATE), garbage()]) {
        let _ = cqa_server::json::parse(&s);
    }

    #[test]
    fn request_reader_never_panics(bytes in request_bytes()) {
        read_all_requests(&bytes);
    }

    #[test]
    fn cli_dispatch_never_panics(
        // Argument vectors drawn from the commands, flags, and a pool of
        // adversarial values (wrong types, parser-breaking strings,
        // nonexistent relative paths). `--threads` and `--out` are omitted:
        // the former mutates the global pool, the latter writes files.
        args in proptest::collection::vec(
            prop_oneof![
                Just("check"), Just("repairs"), Just("cqa"), Just("causes"),
                Just("measure"), Just("clean"), Just("asp"), Just("sql"),
                Just("analyze"), Just("help"), Just("frobnicate"),
                Just("--db"), Just("--constraints"), Just("--query"),
                Just("--class"), Just("--limit"), Just("--possible"),
                Just("--timeout-ms"), Just("--budget-steps"),
                Just("--max-repairs"), Just("--c-repairs"), Just("--catalog"),
                Just("no-such-file.idb"), Just("x"), Just("-1"), Just("0"),
                Just("18446744073709551616"), Just("Q(x) :- R(x"),
                Just("'"), Just("@relation"), Just("key R("),
            ],
            0..6,
        ),
    ) {
        let args: Vec<String> = args.into_iter().map(str::to_string).collect();
        let mut out = String::new();
        let _ = cqa_cli::run(&args, &mut out);
    }
}

/// The regression that motivated the suite, pinned exactly: a database file
/// cut off one byte early (inside an `''` escape) must load as a typed
/// codec error with the right position — not a panic. Cuts inside a
/// multibyte character end the text in U+FFFD.
#[test]
fn one_byte_truncations_of_a_valid_file_never_panic() {
    assert!(!VALID_DB.is_ascii());
    assert!(cqa_relation::load(VALID_DB).is_ok());
    for cut in 0..VALID_DB.len() {
        let s = &*String::from_utf8_lossy(&VALID_DB.as_bytes()[..cut]);
        // Tokenizer-level failures must carry a real 1-based position;
        // other failures (arity mismatches against the declared schema) are
        // typed errors too — the only forbidden outcome is a panic.
        if let Err(cqa_relation::RelationError::Codec { line, column, .. }) = cqa_relation::load(s)
        {
            assert!(
                line >= 1 && column >= 1,
                "unpositioned codec error at cut {cut}"
            );
        }
    }
}

/// The server's input surface, pinned: the create body parses, every
/// one-byte-short cut of it is a JSON error, and every truncation of a
/// request is a disconnect, the case of a body shorter than its
/// `Content-Length` included.
#[test]
fn server_truncations_are_errors_not_panics() {
    let parsed = cqa_server::json::parse(VALID_CREATE).unwrap();
    assert_eq!(
        parsed.get("note").and_then(cqa_server::Json::as_str),
        Some("snowman \u{2603}, face \u{1f600}, tab\t")
    );
    for cut in 0..VALID_CREATE.len() {
        let s = String::from_utf8_lossy(&VALID_CREATE.as_bytes()[..cut]);
        assert!(cqa_server::json::parse(&s).is_err(), "cut {cut} parsed");
    }

    let request = valid_request();
    let mut reader = std::io::BufReader::new(&request[..]);
    assert!(matches!(
        cqa_server::read_request(&mut reader, 1 << 16),
        Ok(Some(_))
    ));
    for cut in 1..request.len() {
        let mut reader = std::io::BufReader::new(&request[..cut]);
        assert_eq!(
            cqa_server::read_request(&mut reader, 1 << 16),
            Err(cqa_server::HttpError::Disconnected),
            "cut {cut}"
        );
    }
    let short = b"POST /sessions HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}";
    let mut reader = std::io::BufReader::new(&short[..]);
    assert_eq!(
        cqa_server::read_request(&mut reader, 1 << 16),
        Err(cqa_server::HttpError::Disconnected)
    );
}
