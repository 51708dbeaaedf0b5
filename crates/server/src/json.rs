//! A minimal, panic-free JSON codec for the wire protocol.
//!
//! The build is offline (no serde), and the server's needs are small:
//! parse request bodies, render response bodies. The representation keeps
//! integers exact (`i64`, so tids and epochs round-trip bit-for-bit — a
//! float representation would corrupt tids above 2⁵³) and objects as
//! insertion-ordered pairs, so responses serialize deterministically in
//! the order the handlers built them.
//!
//! The parser is recursive-descent with an explicit depth cap, rejects
//! trailing garbage, and never panics on malformed input: every failure is
//! an `Err(String)` rendered into a 400 by the HTTP layer.

use std::fmt;

/// Maximum nesting depth accepted by [`parse`]; beyond this the input is
/// rejected rather than risking stack exhaustion on adversarial bodies.
const MAX_DEPTH: usize = 64;

/// A JSON value. Objects preserve insertion order (no hashing anywhere —
/// serialization is deterministic by construction).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer that fits `i64` exactly (tids, epochs, counts).
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object as ordered key/value pairs.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build an object from ordered pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a key in an object (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as `bool`, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(x) => {
                if x.is_finite() {
                    write!(f, "{x}")
                } else {
                    // JSON has no NaN/Inf; degrade to null rather than
                    // emitting an unparsable token.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Write `s` as a JSON string literal. Each run of characters that needs no
/// escape goes out in one `write_str`. Every escaped character is ASCII, so
/// the byte index of one is a character boundary and the runs are `str`
/// slices.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        f.write_str(s.get(run..i).unwrap_or_default())?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(s.get(run..).unwrap_or_default())?;
    f.write_str("\"")
}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// Does any byte of `word` end a plain string run: `"`, `\` or a control
/// byte below 0x20? Each test is the has-zero-byte trick,
/// `(x - 0x01…) & !x & 0x80…`, which is exact for the word as a whole: on
/// `word` xor each delimiter, and in its has-less-than form for the
/// controls. The three share one mask and one branch.
fn ends_run(word: u64) -> bool {
    let quote = word ^ (ONES * b'"' as u64);
    let slash = word ^ (ONES * b'\\' as u64);
    let zeros = quote.wrapping_sub(ONES) & !quote | slash.wrapping_sub(ONES) & !slash;
    let controls = word.wrapping_sub(ONES * 0x20) & !word;
    (zeros | controls) & HIGHS != 0
}

/// Length of the plain run at the start of `bytes`: the bytes a string
/// copies verbatim, up to its closing quote, an escape or a control byte.
/// Whole words are skipped eight bytes at a time; the word that holds the
/// run's end, and the tail, go through the byte loop.
fn plain_run(bytes: &[u8]) -> usize {
    let mut n = 0;
    for chunk in bytes.chunks_exact(8) {
        let Ok(word) = <[u8; 8]>::try_from(chunk) else {
            break;
        };
        if ends_run(u64::from_le_bytes(word)) {
            break;
        }
        n += 8;
    }
    let tail = bytes.get(n..).unwrap_or(&[]);
    n + tail
        .iter()
        .take_while(|&&b| b != b'"' && b != b'\\' && b >= 0x20)
        .count()
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char,
                self.pos - 1,
                got as char
            )),
            None => Err(format!("expected '{}' at end of input", b as char)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        let rest = self.bytes.get(self.pos..).unwrap_or(&[]);
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected byte '{}' at {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Json::Array(items)),
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Json::Object(pairs)),
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        // The bytes up to the first quote bound the output unless the
        // string holds an escaped quote: reserve that once.
        let rest = self.text.get(self.pos..).unwrap_or("");
        let mut out = String::with_capacity(rest.find('"').unwrap_or(rest.len()));
        loop {
            let start = self.pos;
            self.pos += plain_run(self.bytes.get(start..).unwrap_or(&[]));
            // A run starts after an ASCII byte and ends before one (or at
            // the end of the input), so it is a whole `&str` slice.
            let run = self
                .text
                .get(start..self.pos)
                .ok_or_else(|| format!("invalid UTF-8 at byte {start}"))?;
            out.push_str(run);
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => self.escape(&mut out)?,
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos - 1))
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    /// Decode the escape that follows a backslash onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        match self.bump() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let code = self.hex4()?;
                // Surrogate pairs: a high surrogate must be followed by an
                // escaped low surrogate.
                let c = if (0xD800..0xDC00).contains(&code) {
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err("unpaired surrogate".to_string());
                    }
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err("invalid low surrogate".to_string());
                    }
                    let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(combined)
                } else {
                    char::from_u32(code)
                };
                out.push(c.ok_or_else(|| "invalid \\u escape".to_string())?);
            }
            _ => return Err(format!("bad escape at byte {}", self.pos)),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| "truncated \\u".to_string())?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| format!("bad hex digit at byte {}", self.pos - 1))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|s| std::str::from_utf8(s).ok())
            .ok_or_else(|| "bad number".to_string())?;
        if !float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Parser<'_> {
        /// The byte-at-a-time string loop the word scan replaced, kept as
        /// the reference for `word_scan_matches_byte_loop`.
        fn string_reference(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                let start = self.pos;
                // Fast path: a run of plain bytes (valid UTF-8 by construction —
                // the input is a &str).
                while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                    self.pos += 1;
                }
                if self.pos > start {
                    let run = self.bytes.get(start..self.pos).unwrap_or(&[]);
                    out.push_str(std::str::from_utf8(run).map_err(|e| e.to_string())?);
                }
                match self.bump() {
                    Some(b'"') => return Ok(out),
                    Some(b'\\') => match self.bump() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be followed
                            // by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                    return Err("unpaired surrogate".to_string());
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| "invalid \\u escape".to_string())?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    },
                    Some(b) if b < 0x20 => {
                        return Err(format!("raw control byte in string at {}", self.pos - 1))
                    }
                    _ => return Err("unterminated string".to_string()),
                }
            }
        }
    }

    /// Parse one string token of `input` with the word scan and with the
    /// reference loop: the results and the end positions.
    fn both_scans(input: &str) -> [(Result<String, String>, usize); 2] {
        let parser = || Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        let (mut fast, mut slow) = (parser(), parser());
        [
            (fast.string(), fast.pos),
            (slow.string_reference(), slow.pos),
        ]
    }

    /// String pieces that end, straddle or break plain runs: escapes
    /// (valid, malformed and truncated), multibyte characters, raw control
    /// bytes and DEL.
    const PIECES: &[&str] = &[
        "a",
        "xyz",
        "é",
        "€",
        "😀",
        "\\\"",
        "\\\\",
        "\\/",
        "\\n",
        "\\r",
        "\\t",
        "\\b",
        "\\f",
        "\\u00e9",
        "\\ud83d\\ude00",
        "\\q",
        "\\u12",
        "\\ud800x",
        "\\udc00",
        "\\ud800\\u0041",
        "\u{1}",
        "\t",
        "\u{1f}",
        "\u{7f}",
        "\\",
    ];

    #[test]
    fn word_scan_matches_byte_loop_at_every_offset() {
        // Each piece after 0..24 plain bytes, so it lands at every offset
        // mod 8 of the word scan, with and without a closing quote.
        for piece in PIECES {
            for pad in 0..24 {
                for close in ["\"", "tail\"", ""] {
                    let input = format!("\"{}{piece}{close}", "p".repeat(pad));
                    let [fast, slow] = both_scans(&input);
                    assert_eq!(fast, slow, "{input:?}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn word_scan_matches_byte_loop(
            picks in proptest::collection::vec(0..PIECES.len(), 0..24),
            close in any::<bool>(),
        ) {
            let mut input = String::from("\"");
            for &i in &picks {
                input.push_str(PIECES.get(i).copied().unwrap_or(""));
            }
            if close {
                input.push('"');
            }
            let [fast, slow] = both_scans(&input);
            prop_assert_eq!(fast, slow, "{:?}", input);
        }
    }

    /// The per-character writer `write_escaped` replaced, kept as the
    /// reference for `escaped_runs_match_the_char_writer`.
    struct CharEscaped<'a>(&'a str);

    impl fmt::Display for CharEscaped<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("\"")?;
            for c in self.0.chars() {
                match c {
                    '"' => f.write_str("\\\"")?,
                    '\\' => f.write_str("\\\\")?,
                    '\n' => f.write_str("\\n")?,
                    '\r' => f.write_str("\\r")?,
                    '\t' => f.write_str("\\t")?,
                    c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                    c => write!(f, "{c}")?,
                }
            }
            f.write_str("\"")
        }
    }

    /// A character drawn from one of four classes: a control character, a
    /// JSON special (quote, backslash, slash, DEL), printable ASCII, or any
    /// scalar value (mostly multi-byte).
    fn pick_char(x: u32) -> char {
        let y = x >> 2;
        match x % 4 {
            0 => char::from_u32(y % 0x20),
            1 => ['"', '\\', '/', '\u{7f}'].get(y as usize % 4).copied(),
            2 => char::from_u32(0x20 + y % 0x5f),
            _ => char::from_u32(y % 0x11_0000),
        }
        .unwrap_or('\u{fffd}')
    }

    #[test]
    fn every_control_character_is_escaped_like_the_char_writer() {
        let all: String = (0..0x20u32).filter_map(char::from_u32).collect();
        for s in [all.as_str(), "a\"b\\c", "é€😀", ""] {
            let json = Json::str(s);
            assert_eq!(json.to_string(), CharEscaped(s).to_string());
            assert_eq!(parse(&json.to_string()).unwrap(), json);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn escaped_runs_match_the_char_writer(
            picks in proptest::collection::vec(any::<u32>(), 0..48),
        ) {
            let s: String = picks.iter().map(|&x| pick_char(x)).collect();
            let json = Json::str(s.as_str());
            let text = json.to_string();
            prop_assert_eq!(&text, &CharEscaped(&s).to_string());
            prop_assert_eq!(parse(&text), Ok(json));
        }
    }

    #[test]
    fn round_trips_structures() {
        let text = r#"{"a":[1,-2,3.5,null,true],"b":"x\"y\n","c":{"d":9223372036854775807}}"#;
        let v = parse(text).unwrap();
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")).and_then(Json::as_i64),
            Some(i64::MAX)
        );
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn integers_stay_exact() {
        let v = parse("9007199254740993").unwrap(); // 2^53 + 1
        assert_eq!(v, Json::Int(9007199254740993));
        assert_eq!(v.to_string(), "9007199254740993");
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj([("z", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = parse(r#""tab\there \u00e9 \ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\there é 😀"));
        let back = Json::str("quote\" slash\\ nl\n ctl\u{1}");
        assert_eq!(parse(&back.to_string()).unwrap(), back);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"1}",
            "tru",
            "1 2",
            "\"\\q\"",
            "\"\u{1}\"",
            "nul",
            "--1",
            "{\"a\":}",
            "\"\\ud800x\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err(), "accepted 200-deep nesting");
    }
}
