//! The panic-free input surface, fuzzed: arbitrary byte strings and
//! near-valid mutations (truncations, insertions, byte flips) are fed to
//! every parser that accepts user-controlled text — the relation codec, the
//! constraint parser, the query parser — and to the `repairctl` argument
//! dispatcher. The only assertion is that nothing panics: malformed input
//! must come back as a typed error (`RelationError::Codec` with line and
//! column, a `ParseError`, or a CLI diagnostic), never as an abort.
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
