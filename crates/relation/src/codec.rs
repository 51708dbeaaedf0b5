//! A small, human-readable text codec for databases.
//!
//! Format (one relation per block):
//!
//! ```text
//! # comment
//! @relation Supply(Company, Receiver, Item)
//! 'C1', 'R1', 'I1'
//! 'C2', 'R2', 'I2'
//!
//! @relation Articles(Item)
//! 'I1'
//! ```
//!
//! Blank lines and lines starting with `#` are skipped; leading and
//! trailing whitespace of a line is ignored. A line is a header when it
//! starts with the keyword `@relation` followed by whitespace or the end
//! of the line, and must then match
//!
//! ```text
//! header := "@relation" ws+ name ws* "(" ws* [ name ws* ( "," ws* name ws* )* ] ")"
//! name   := one or more characters other than whitespace, "(", ")" and ","
//! ```
//!
//! with the `)` ending the line and the attribute names distinct.
//! Whitespace is anything [`char::is_whitespace`] accepts (U+00A0 and
//! U+2003 included). Every other line is a data row of the block's
//! relation: comma-separated values, one per attribute.
//!
//! Values: single-quoted strings (with `''` escaping a quote), integers,
//! floats (containing `.`), `true`/`false`, `NULL` and labelled `NULL_k`.
//! Round-trips exactly ([`save`] ∘ [`load`] = identity on content); tids are
//! reassigned in file order on load.

use crate::dict::{ValueDict, Vid};
use crate::error::RelationError;
use crate::instance::Database;
use crate::schema::RelationSchema;
use crate::value::Value;
use crate::Result;
use std::fmt::Write as _;

/// Serialize a database to the text format.
pub fn save(db: &Database) -> String {
    let mut out = String::new();
    for rel in db.relations() {
        let _ = write!(out, "@relation {}(", rel.name());
        for (i, a) in rel.schema().attributes().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&a.name);
        }
        out.push_str(")\n");
        for t in rel.tuples() {
            let mut first = true;
            for v in t.iter() {
                if !std::mem::take(&mut first) {
                    out.push_str(", ");
                }
                write_value(&mut out, v);
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Str(s) => {
            out.push('\'');
            for c in s.chars() {
                if c == '\'' {
                    out.push('\'');
                }
                out.push(c);
            }
            out.push('\'');
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            if f.fract() == 0.0 && f.is_finite() {
                let _ = write!(out, "{f:.1}");
            } else {
                let _ = write!(out, "{f}");
            }
        }
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Null(0) => out.push_str("NULL"),
        Value::Null(l) => {
            let _ = write!(out, "NULL_{l}");
        }
    }
}

/// Parse a database from the text format.
///
/// Malformed input is reported as [`RelationError::Codec`] with the 1-based
/// line and the 1-based column, in characters, of the offending character —
/// never a panic, whatever the bytes (see the `no_panic_inputs` fuzz
/// suite). A row that does not fit its relation's schema is reported as
/// that schema's error ([`RelationError::ArityMismatch`] or
/// [`RelationError::TypeMismatch`]).
///
/// The load is one pass over each line's bytes: quoted strings are interned
/// straight from the input (allocating only to unescape `''`), bare values
/// are parsed from their slice, and each block's rows go through one
/// block-level append, which keeps the tids, epochs and change-log records
/// of row-by-row inserts but invalidates the relation's caches once per
/// block. Byte offsets become character columns only on the error path.
pub fn load(input: &str) -> Result<Database> {
    let mut db = Database::new();
    let mut lines = input
        .lines()
        .enumerate()
        .filter_map(|(index, raw)| Line::new(index + 1, raw));
    let mut header = match lines.next() {
        Some(line) if line.is_header() => Some(line),
        Some(line) => {
            return Err(line.error(0, "data row before any @relation header".into()));
        }
        None => None,
    };
    let mut row = Vec::new();
    while let Some(decl) = header.take() {
        let schema = parse_header(decl.text).map_err(|(at, detail)| decl.error(at, detail))?;
        let rel = db.relations().len();
        db.create_relation(schema)?;
        let mut block = db.append_block(rel)?;
        for line in lines.by_ref() {
            if line.is_header() {
                header = Some(line);
                break;
            }
            scan_row(line.text, block.dict(), &mut row)
                .map_err(|(at, detail)| line.error(at, detail))?;
            block.push(&row)?;
        }
    }
    Ok(db)
}

/// The header keyword.
const HEADER: &str = "@relation";

/// One input line that is neither blank nor a comment.
struct Line<'a> {
    /// 1-based line number.
    number: usize,
    raw: &'a str,
    /// `raw` without its leading and trailing whitespace.
    text: &'a str,
}

impl<'a> Line<'a> {
    fn new(number: usize, raw: &'a str) -> Option<Line<'a>> {
        let text = raw.trim();
        (!text.is_empty() && !text.starts_with('#')).then_some(Line { number, raw, text })
    }

    fn is_header(&self) -> bool {
        self.text
            .strip_prefix(HEADER)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with(char::is_whitespace))
    }

    /// A codec error at byte offset `at` of `text`, placed at its 1-based
    /// character column in the raw line.
    fn error(&self, at: usize, detail: String) -> RelationError {
        let indent = self.raw.len() - self.raw.trim_start().len();
        let column = self.raw.get(..indent + at).map_or(0, |s| s.chars().count()) + 1;
        RelationError::Codec {
            line: self.number,
            column,
            detail,
        }
    }
}

/// Parse a header line (see the module docs for the grammar). Errors carry
/// the byte offset in `line` where the problem starts.
fn parse_header(line: &str) -> std::result::Result<RelationSchema, (usize, String)> {
    let mut at = skip_ws(line, HEADER.len());
    let name = name_at(line, at);
    if name.is_empty() {
        return Err((
            at,
            format!("expected a relation name, found {}", found(line, at)),
        ));
    }
    at = skip_ws(line, at + name.len());
    if line.as_bytes().get(at) != Some(&b'(') {
        return Err((
            at,
            format!(
                "expected `(` after the relation name, found {}",
                found(line, at)
            ),
        ));
    }
    at = skip_ws(line, at + 1);
    let mut attrs: Vec<&str> = Vec::new();
    if line.as_bytes().get(at) != Some(&b')') {
        loop {
            let attr = name_at(line, at);
            if attr.is_empty() {
                return Err((
                    at,
                    format!("expected an attribute name, found {}", found(line, at)),
                ));
            }
            if attrs.contains(&attr) {
                return Err((at, format!("duplicate attribute `{attr}`")));
            }
            attrs.push(attr);
            at = skip_ws(line, at + attr.len());
            match line.as_bytes().get(at) {
                Some(b',') => at = skip_ws(line, at + 1),
                Some(b')') => break,
                _ => {
                    return Err((
                        at,
                        format!("expected `,` or `)`, found {}", found(line, at)),
                    ))
                }
            }
        }
    }
    // `at` is on the closing `)`, which must end the (trimmed) line.
    let after = skip_ws(line, at + 1);
    if after < line.len() {
        return Err((
            after,
            format!("unexpected {} after `)`", found(line, after)),
        ));
    }
    Ok(RelationSchema::new(name, attrs))
}

/// The header name starting at byte `at` (empty if none starts there).
fn name_at(line: &str, at: usize) -> &str {
    let rest = line.get(at..).unwrap_or("");
    let len = rest
        .find(|c: char| c.is_whitespace() || matches!(c, '(' | ')' | ','))
        .unwrap_or(rest.len());
    rest.get(..len).unwrap_or("")
}

/// The character at byte `at`, quoted for an error message.
fn found(line: &str, at: usize) -> String {
    match line.get(at..).and_then(|rest| rest.chars().next()) {
        Some(c) => format!("`{c}`"),
        None => "end of line".into(),
    }
}

/// The byte offset of the first non-whitespace character at or after `at`
/// (whitespace as [`char::is_whitespace`]: ASCII bytes are tested
/// directly, other characters are decoded first).
fn skip_ws(line: &str, mut at: usize) -> usize {
    let bytes = line.as_bytes();
    while let Some(&b) = bytes.get(at) {
        if b.is_ascii() {
            if !char::from(b).is_whitespace() {
                break;
            }
            at += 1;
        } else {
            match line.get(at..).and_then(|rest| rest.chars().next()) {
                Some(c) if c.is_whitespace() => at += c.len_utf8(),
                _ => break,
            }
        }
    }
    at
}

/// Tokenize one data row (`line` is trimmed) into `row`, interning each
/// value straight into `dict`: quoted strings through
/// [`ValueDict::intern_str`] from their input slice (no allocation unless
/// they contain a `''` escape), and small values inline in their [`Vid`].
/// Errors carry the byte offset in `line` where the problem starts.
fn scan_row(
    line: &str,
    dict: &ValueDict,
    row: &mut Vec<Vid>,
) -> std::result::Result<(), (usize, String)> {
    let bytes = line.as_bytes();
    row.clear();
    let mut at = 0;
    loop {
        at = skip_ws(line, at);
        match bytes.get(at) {
            None => break,
            Some(b'\'') => {
                let (vid, end) = scan_quoted(line, at, dict)?;
                row.push(vid);
                at = skip_ws(line, end);
            }
            Some(_) => {
                // A bare value runs to the next comma.
                let end = line
                    .get(at..)
                    .and_then(|rest| rest.find(','))
                    .map_or(line.len(), |len| at + len);
                let token = line.get(at..end).unwrap_or("").trim_end();
                let value = parse_bare(token).map_err(|msg| (at, msg))?;
                row.push(dict.intern(&value));
                at = end;
            }
        }
        match bytes.get(at) {
            None => break,
            Some(b',') => at += 1,
            Some(_) => return Err((at, format!("expected `,`, found {}", found(line, at)))),
        }
    }
    Ok(())
}

/// Scan the quoted string opening at byte `open` and intern its content;
/// returns the vid and the offset just past the closing quote.
fn scan_quoted(
    line: &str,
    open: usize,
    dict: &ValueDict,
) -> std::result::Result<(Vid, usize), (usize, String)> {
    let bytes = line.as_bytes();
    // Content up to the last `''` escape, unescaped (only when one occurs).
    let mut unescaped: Option<String> = None;
    let mut start = open + 1;
    loop {
        let Some(quote) = line
            .get(start..)
            .and_then(|rest| rest.find('\''))
            .map(|len| start + len)
        else {
            // Also covers a trailing `''` with no closing quote after it.
            return Err((open, "unterminated string".into()));
        };
        let piece = line.get(start..quote).unwrap_or("");
        if bytes.get(quote + 1) == Some(&b'\'') {
            let s = unescaped.get_or_insert_with(String::new);
            s.push_str(piece);
            s.push('\'');
            start = quote + 2;
            continue;
        }
        let vid = match unescaped {
            Some(mut s) => {
                s.push_str(piece);
                dict.intern_str(&s)
            }
            None => dict.intern_str(piece),
        };
        return Ok((vid, quote + 1));
    }
}

fn parse_bare(token: &str) -> std::result::Result<Value, String> {
    match token {
        "NULL" => return Ok(Value::NULL),
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        "" => return Err("empty value".into()),
        _ => {}
    }
    if let Some(rest) = token.strip_prefix("NULL_") {
        return rest
            .parse::<u32>()
            .map(Value::Null)
            .map_err(|_| format!("bad null label `{token}`"));
    }
    if token.contains('.') {
        return token
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("bad float `{token}`"));
    }
    token
        .parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("bad value `{token}` (strings must be quoted)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn sample() -> Database {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new(
            "Supply",
            ["Company", "Receiver", "Item"],
        ))
        .unwrap();
        db.create_relation(RelationSchema::new("Mixed", ["A", "B", "C", "D"]))
            .unwrap();
        db.insert("Supply", tuple!["C1", "R1", "I1"]).unwrap();
        db.insert("Supply", tuple!["C2", "R2", "I2"]).unwrap();
        db.insert(
            "Mixed",
            Tuple::new(vec![
                Value::Int(-5),
                Value::Float(2.5),
                Value::Bool(true),
                Value::Null(3),
            ]),
        )
        .unwrap();
        db
    }

    #[test]
    fn roundtrip_preserves_content() {
        let db = sample();
        let text = save(&db);
        let back = load(&text).unwrap();
        assert!(db.same_content(&back));
        // Schema names survive too.
        assert_eq!(
            back.relation("Supply").unwrap().schema().attribute_name(1),
            "Receiver"
        );
    }

    #[test]
    fn quotes_escape() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["A"])).unwrap();
        db.insert("R", tuple!["o'brien"]).unwrap();
        let text = save(&db);
        assert!(text.contains("'o''brien'"));
        let back = load(&text).unwrap();
        assert!(db.same_content(&back));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a file\n\n@relation R(A)\n# inline\n1\n\n2\n";
        let db = load(text).unwrap();
        assert_eq!(db.relation("R").unwrap().len(), 2);
    }

    #[test]
    fn errors_are_reported_with_lines() {
        assert!(load("1, 2\n").unwrap_err().to_string().contains("line 1"));
        assert!(load("@relation R(A)\nunquoted\n")
            .unwrap_err()
            .to_string()
            .contains("line 2"));
        assert!(load("@relation R A\n").is_err());
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = load("@relation R(A, B)\n1, bad!\n").unwrap_err();
        assert_eq!(
            err,
            RelationError::Codec {
                line: 2,
                column: 4,
                detail: "bad value `bad!` (strings must be quoted)".into(),
            }
        );
        // Leading whitespace counts toward the column.
        let err = load("@relation R(A)\n  'x\n").unwrap_err();
        assert_eq!(
            err,
            RelationError::Codec {
                line: 2,
                column: 3,
                detail: "unterminated string".into(),
            }
        );
        // Columns count characters, not bytes, after a non-ASCII prefix:
        // `é` is two bytes, U+00A0 (indentation and separator) two more.
        let err = load("@relation R(A, B)\n 'é' x, 2\n").unwrap_err();
        assert_eq!(
            err,
            RelationError::Codec {
                line: 2,
                column: 6,
                detail: "expected `,`, found `x`".into(),
            }
        );
        let err = load("@relation R(A, B)\n\u{a0}'é',\u{a0}3 4\n").unwrap_err();
        assert_eq!(
            err,
            RelationError::Codec {
                line: 2,
                column: 7,
                detail: "bad value `3 4` (strings must be quoted)".into(),
            }
        );
        let err = load("@relation R(A, B)\n'😀', 1\n'😀' 😀\n").unwrap_err();
        assert_eq!(
            err,
            RelationError::Codec {
                line: 3,
                column: 5,
                detail: "expected `,`, found `😀`".into(),
            }
        );
    }

    #[test]
    fn malformed_headers_are_rejected_with_positions() {
        for (header, column, detail) in [
            ("@relation R(A) x", 16, "unexpected `x` after `)`"),
            ("@relation R(A)(B)", 15, "unexpected `(` after `)`"),
            (
                "@relation R(A, B",
                17,
                "expected `,` or `)`, found end of line",
            ),
            ("@relation (A)", 11, "expected a relation name, found `(`"),
            ("@relation R(A, A)", 16, "duplicate attribute `A`"),
            (
                "@relation",
                10,
                "expected a relation name, found end of line",
            ),
            (
                "@relation R A",
                13,
                "expected `(` after the relation name, found `A`",
            ),
            (
                "@relation R(A,)",
                15,
                "expected an attribute name, found `)`",
            ),
            ("@relation R(A B)", 15, "expected `,` or `)`, found `B`"),
        ] {
            let input = format!("# header\n{header}\n");
            assert_eq!(
                load(&input).unwrap_err(),
                RelationError::Codec {
                    line: 2,
                    column,
                    detail: detail.into(),
                },
                "header {header:?}"
            );
        }
    }

    #[test]
    fn header_accepts_any_whitespace() {
        let db =
            load("@relation\tR(A)\n1\n\u{a0}@relation\u{2003}S ( X ,\tY )\u{a0}\n1, 2\n").unwrap();
        assert_eq!(db.relation("R").unwrap().len(), 1);
        let s = db.relation("S").unwrap().schema();
        assert_eq!(
            s.attributes()
                .iter()
                .map(|a| a.name.as_str())
                .collect::<Vec<_>>(),
            ["X", "Y"]
        );
        // A zero-ary header, as `save` writes one.
        assert_eq!(
            load("@relation Z()\n")
                .unwrap()
                .relation("Z")
                .unwrap()
                .schema()
                .arity(),
            0
        );
        // `@relation` must be followed by whitespace to be the keyword.
        assert!(load("@relationR(A)\n")
            .unwrap_err()
            .to_string()
            .contains("before any @relation header"));
    }

    #[test]
    fn trailing_escape_is_an_error_not_a_panic() {
        // A string ending in an escaped quote with no closing quote: the
        // tokenizer must report it, not panic or mis-parse.
        for input in [
            "@relation R(A)\n'a''\n",
            "@relation R(A)\n'''\n",
            "@relation R(A)\n'\n",
            "@relation R(A)\n'a'',\n",
        ] {
            let err = load(input).unwrap_err();
            assert!(
                err.to_string().contains("unterminated string"),
                "input {input:?} gave {err}"
            );
        }
        // But a properly closed escaped quote still parses.
        let db = load("@relation R(A)\n''''\n").unwrap();
        assert_eq!(db.relation("R").unwrap().len(), 1);
    }

    #[test]
    fn float_formatting_roundtrips() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("F", ["X"])).unwrap();
        db.insert("F", Tuple::new(vec![Value::Float(2.0)])).unwrap();
        db.insert("F", Tuple::new(vec![Value::Float(0.125)]))
            .unwrap();
        let back = load(&save(&db)).unwrap();
        assert!(db.same_content(&back));
    }

    use crate::Tuple;

    /// Differential test of [`load`] against the seed loader's tokenizer.
    mod reference {
        use super::*;
        use crate::{Change, Tid};
        use proptest::prelude::*;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        /// The seed loader, kept as the reference: one `Vec<char>` per
        /// data line, each row built as [`Value`]s and inserted by relation
        /// name through [`Database::insert`]. Headers go through the same
        /// [`parse_header`] as [`load`], so what is compared is the row
        /// path: tokenizer, interning order, append and error positions.
        fn reference_load(input: &str) -> Result<Database> {
            let mut db = Database::new();
            let mut current: Option<String> = None;
            for (lineno, raw) in input.lines().enumerate() {
                let line = raw.trim();
                let indent = raw.chars().take_while(|c| c.is_whitespace()).count();
                let err = |column: usize, detail: String| RelationError::Codec {
                    line: lineno + 1,
                    column,
                    detail,
                };
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                if line
                    .strip_prefix(HEADER)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with(char::is_whitespace))
                {
                    let schema = parse_header(line).map_err(|(at, detail)| {
                        err(indent + line[..at].chars().count() + 1, detail)
                    })?;
                    current = Some(schema.name().to_string());
                    db.create_relation(schema)?;
                    continue;
                }
                let rel = current.clone().ok_or_else(|| {
                    err(indent + 1, "data row before any @relation header".into())
                })?;
                let values = parse_row(line).map_err(|(col, msg)| err(indent + col, msg))?;
                db.insert(&rel, Tuple::new(values))?;
            }
            Ok(db)
        }

        /// The seed tokenizer. Errors carry the 1-based column in
        /// characters, relative to the trimmed line.
        fn parse_row(line: &str) -> std::result::Result<Vec<Value>, (usize, String)> {
            let chars: Vec<char> = line.chars().collect();
            let mut values = Vec::new();
            let mut i = 0;
            loop {
                while chars.get(i).is_some_and(|c| c.is_whitespace()) {
                    i += 1;
                }
                match chars.get(i) {
                    None => break,
                    Some('\'') => {
                        let start = i;
                        i += 1;
                        let mut s = String::new();
                        let mut closed = false;
                        while let Some(&c) = chars.get(i) {
                            i += 1;
                            if c != '\'' {
                                s.push(c);
                            } else if chars.get(i) == Some(&'\'') {
                                i += 1;
                                s.push('\'');
                            } else {
                                closed = true;
                                break;
                            }
                        }
                        if !closed {
                            return Err((start + 1, "unterminated string".into()));
                        }
                        values.push(Value::str(&s));
                    }
                    Some(_) => {
                        let start = i;
                        let mut token = String::new();
                        while let Some(&c) = chars.get(i) {
                            if c == ',' {
                                break;
                            }
                            token.push(c);
                            i += 1;
                        }
                        values.push(parse_bare(token.trim()).map_err(|msg| (start + 1, msg))?);
                    }
                }
                while chars.get(i).is_some_and(|c| c.is_whitespace()) {
                    i += 1;
                }
                match chars.get(i) {
                    None => break,
                    Some(',') => i += 1,
                    Some(c) => return Err((i + 1, format!("expected `,`, found `{c}`"))),
                }
            }
            Ok(values)
        }

        /// Everything a load determines, with vids compared raw: per
        /// relation its schema, tids and columns; the dictionary table in
        /// slot order; the epoch; and the change-log window from every
        /// epoch.
        #[derive(Debug, PartialEq)]
        struct Loaded {
            relations: Vec<(RelationSchema, Vec<Tid>, Vec<Vec<u32>>)>,
            dict: Vec<Option<Value>>,
            epoch: u64,
            changes: Vec<Option<Vec<Change>>>,
        }

        fn loaded(db: &Database) -> Loaded {
            Loaded {
                relations: db
                    .relations()
                    .iter()
                    .map(|rel| {
                        let store = rel.store();
                        let columns = (0..store.arity())
                            .map(|col| store.column(col).iter().map(|v| v.raw()).collect())
                            .collect();
                        ((**rel.schema()).clone(), store.tids().to_vec(), columns)
                    })
                    .collect(),
                dict: (0..db.dict().len() as u32)
                    .map(|slot| db.dict().resolve(Vid::table(slot)))
                    .collect(),
                epoch: db.epoch(),
                changes: (0..=db.epoch())
                    .map(|e| db.changes_since(e).map(<[Change]>::to_vec))
                    .collect(),
            }
        }

        fn pick<'a>(rng: &mut SmallRng, options: &[&'a str]) -> &'a str {
            options[rng.gen_range(0..options.len())]
        }

        /// Whitespace as indentation, around separators and at line ends:
        /// ASCII (vertical tab and form feed included), U+0085, U+00A0,
        /// U+2003 and U+3000.
        const SPACE: &[&str] = &[
            "", "", "", " ", "  ", "\t", "\u{b}", "\u{c}", "\u{85}", "\u{a0}", "\u{2003}",
            "\u{3000}", " \u{a0}",
        ];

        /// One value: every shape `parse_bare` accepts, quoted strings with
        /// escapes and multibyte text, and rarely a malformed one.
        fn value(rng: &mut SmallRng) -> String {
            if rng.gen_bool(0.005) {
                let malformed = [
                    "bad!",
                    "",
                    "'open",
                    "'a''",
                    "NULL_x",
                    "1.2.3",
                    "'a' b",
                    "9223372036854775808",
                    "'é' 😀",
                    "True",
                ];
                return pick(rng, &malformed).into();
            }
            match rng.gen_range(0..19) {
                0..=5 => {
                    let parts = ["a", "b", "é", "😀", "'", " ", "\u{a0}", ",", "#", "x y"];
                    let s: String = (0..rng.gen_range(0..5))
                        .map(|_| pick(rng, &parts))
                        .collect();
                    format!("'{}'", s.replace('\'', "''"))
                }
                6..=8 => rng.gen_range(-1000i64..1000).to_string(),
                9 => pick(
                    rng,
                    &[
                        "536870911",
                        "536870912",
                        "-536870912",
                        "-536870913",
                        "9223372036854775807",
                        "-9223372036854775808",
                    ],
                )
                .into(),
                10 | 11 => pick(
                    rng,
                    &["2.5", "-0.0", "2.0", "0.125", "1.5e3", "-7.25", ".5", "5."],
                )
                .into(),
                12 | 13 => pick(
                    rng,
                    &[
                        "NULL",
                        "NULL_0",
                        "NULL_3",
                        "NULL_1073741823",
                        "NULL_1073741824",
                        "NULL_4294967295",
                    ],
                )
                .into(),
                14 | 15 => pick(rng, &["true", "false"]).into(),
                _ => pick(rng, &["'shared'", "'o''brien'", "'é😀'", "7", "NULL_2"]).into(),
            }
        }

        /// A random codec file: well-formed headers, data rows of every
        /// value shape separated and indented by Unicode whitespace,
        /// duplicate rows, blank and comment lines, and rarely a row of the
        /// wrong arity or a repeated relation name.
        fn random_file(seed: u64) -> String {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut out = String::new();
            for block in 0..rng.gen_range(1usize..4) {
                let arity = rng.gen_range(0usize..4);
                let name = if rng.gen_bool(0.05) { 0 } else { block };
                let attrs: Vec<String> = (0..arity).map(|i| format!("A{i}")).collect();
                out.push_str(&format!(
                    "{}@relation{} R{name}({}){}\n",
                    pick(&mut rng, SPACE),
                    pick(&mut rng, &[" ", "\t", "\u{a0}", " \u{2003}"]),
                    attrs.join(", "),
                    pick(&mut rng, SPACE),
                ));
                let mut rows: Vec<String> = Vec::new();
                for _ in 0..rng.gen_range(0..16) {
                    let row = match rng.gen_range(0..12) {
                        0 => String::new(),
                        1 => "# a comment, 'not' a row".into(),
                        2 | 3 if !rows.is_empty() => rows[rng.gen_range(0..rows.len())].clone(),
                        _ => {
                            let n = match rng.gen_range(0..200) {
                                0 => arity + 1,
                                1 => arity.saturating_sub(1),
                                _ => arity,
                            };
                            let mut row = String::new();
                            for i in 0..n {
                                if i > 0 {
                                    row.push_str(pick(&mut rng, SPACE));
                                    row.push(',');
                                    row.push_str(pick(&mut rng, SPACE));
                                }
                                row.push_str(&value(&mut rng));
                            }
                            rows.push(row.clone());
                            row
                        }
                    };
                    out.push_str(pick(&mut rng, SPACE));
                    out.push_str(&row);
                    out.push_str(pick(&mut rng, SPACE));
                    out.push_str(pick(&mut rng, &["\n", "\n", "\n", "\r\n"]));
                }
            }
            out
        }

        /// Overwrite, insert or truncate at one byte (lossy UTF-8 recovery
        /// keeps the result a `&str`), as `tests/no_panic_inputs.rs` does.
        fn mutate(text: &str, at: usize, byte: u8, op: u8) -> String {
            let mut v = text.as_bytes().to_vec();
            let at = at % (v.len() + 1);
            match op {
                0 => v.truncate(at),
                1 => v.insert(at, byte),
                _ if at < v.len() => v[at] = byte,
                _ => v.push(byte),
            }
            String::from_utf8_lossy(&v).into_owned()
        }

        /// The fuzz suite's near-valid seed file.
        const VALID_DB: &str = "@relation R(A, B, C)\n'a', 1, 2.5\n'b''c', -7, NULL\n'', true, NULL_3\n\u{a0}'é😀',\u{a0}2, false\n  'x', 3, 4.0\n\n@relation S(X)\n'o''brien'\n";

        fn inputs() -> impl Strategy<Value = String> {
            prop_oneof![
                any::<u64>().prop_map(random_file),
                (any::<u64>(), any::<usize>(), any::<u8>(), 0u8..3)
                    .prop_map(|(seed, at, byte, op)| mutate(&random_file(seed), at, byte, op)),
                (any::<usize>(), any::<u8>(), 0u8..3)
                    .prop_map(|(at, byte, op)| mutate(VALID_DB, at, byte, op)),
                proptest::collection::vec(any::<u8>(), 0..64)
                    .prop_map(|v| String::from_utf8_lossy(&v).into_owned()),
            ]
        }

        fn same_outcome(input: &str) -> std::result::Result<(), TestCaseError> {
            match (load(input), reference_load(input)) {
                (Ok(fast), Ok(slow)) => {
                    prop_assert_eq!(loaded(&fast), loaded(&slow), "input {:?}", input)
                }
                (Err(fast), Err(slow)) => prop_assert_eq!(fast, slow, "input {:?}", input),
                (fast, slow) => prop_assert!(
                    false,
                    "input {:?}: load {:?}, reference {:?}",
                    input,
                    fast.map(|db| loaded(&db)),
                    slow.map(|db| loaded(&db))
                ),
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            #[test]
            fn load_matches_the_reference_tokenizer(input in inputs()) {
                same_outcome(&input)?;
            }
        }

        #[test]
        fn generated_files_load_and_fail_in_both_ways() {
            // The generator must exercise both outcomes, or the property
            // above compares only one of them.
            let (mut ok, mut err) = (0, 0);
            for seed in 0..256 {
                match load(&random_file(seed)) {
                    Ok(db) if db.total_tuples() > 0 => ok += 1,
                    Ok(_) => {}
                    Err(_) => err += 1,
                }
            }
            assert!(ok >= 64 && err >= 32, "{ok} loaded, {err} failed");
        }
    }
}
