//! A deliberately small HTTP/1.1 layer over blocking streams.
//!
//! `repaird` speaks just enough HTTP for scripted clients and `curl`:
//! request line + headers + `Content-Length` body in, status line +
//! `Content-Type: application/json` body out, keep-alive by default.
//! There is no chunked transfer, no TLS, no compression — the server is a
//! trusted-network tool, and every unsupported construct is rejected with
//! an explicit 4xx rather than misparsed.
//!
//! Hard limits (header size, body size) are enforced *before* buffering,
//! so an adversarial peer cannot balloon memory; breaching them is a
//! protocol error the connection handler turns into 431/413 and a close.

use std::io::{BufRead, Write};

/// Upper bound on the request line + headers block, bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// How many consecutive read-timeout ticks a *partially received* request
/// may stall before the connection is declared dead. The server arms a
/// 100 ms socket read timeout, so this bounds a mid-request stall at
/// roughly a minute; a stall *between* requests is handled by the caller's
/// idle loop and never reaches here.
const MAX_STALL_TICKS: u32 = 600;

fn is_stall(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// One parsed request.
#[derive(Debug, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Path with any `?query` suffix stripped.
    pub path: String,
    /// `Content-Length` body, possibly empty.
    pub body: Vec<u8>,
    /// True when the client asked for `Connection: close`.
    pub close: bool,
}

/// Why a request could not be read.
#[derive(Debug, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed (or the socket died) before a complete request; the
    /// connection is simply over.
    Disconnected,
    /// The head exceeded [`MAX_HEAD_BYTES`] → 431.
    HeadTooLarge,
    /// The declared body exceeds the configured cap → 413.
    BodyTooLarge,
    /// Anything else malformed → 400 with this message.
    Malformed(String),
}

/// Read one request from a buffered stream. `Ok(None)` is a clean EOF
/// between requests (keep-alive connection ended); [`HttpError`] values
/// distinguish "hang up" from "answer 4xx".
pub fn read_request(
    stream: &mut impl BufRead,
    max_body: usize,
) -> Result<Option<Request>, HttpError> {
    let mut head = Vec::new();
    // Read up to the blank line terminating the head, bounded.
    loop {
        let mut line = Vec::new();
        let n = read_line_limited(stream, &mut line, MAX_HEAD_BYTES)?;
        if n == 0 {
            // EOF: clean only if nothing was read at all.
            return if head.is_empty() {
                Ok(None)
            } else {
                Err(HttpError::Disconnected)
            };
        }
        if line == b"\r\n" || line == b"\n" {
            if head.is_empty() {
                // Tolerate a stray blank line before the request line.
                continue;
            }
            break;
        }
        head.extend_from_slice(&line);
        if head.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
    }
    let head = String::from_utf8(head)
        .map_err(|_| HttpError::Malformed("non-UTF-8 request head".to_string()))?;
    let mut lines = head.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".to_string()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing method".to_string()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".to_string()))?;
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version}"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("malformed header {line:?}")));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| HttpError::Malformed("bad Content-Length".to_string()))?;
            }
            "transfer-encoding" => {
                return Err(HttpError::Malformed(
                    "chunked transfer encoding is not supported".to_string(),
                ));
            }
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge);
    }
    let mut body = Vec::with_capacity(content_length.min(64 * 1024));
    let mut chunk = [0u8; 8 * 1024];
    let mut stalls = 0u32;
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        let Some(buf) = chunk.get_mut(..want) else {
            return Err(HttpError::Malformed("body read window".to_string()));
        };
        let n = match stream.read(buf) {
            Ok(0) => return Err(HttpError::Disconnected),
            Ok(n) => n,
            Err(e) if is_stall(&e) => {
                stalls += 1;
                if stalls > MAX_STALL_TICKS {
                    return Err(HttpError::Disconnected);
                }
                continue;
            }
            Err(_) => return Err(HttpError::Disconnected),
        };
        stalls = 0;
        body.extend_from_slice(buf.get(..n).unwrap_or(&[]));
    }
    Ok(Some(Request {
        method,
        path,
        body,
        close,
    }))
}

/// `read_until(b'\n')` with a byte cap (a peer streaming an endless header
/// line must hit [`HttpError::HeadTooLarge`], not OOM).
fn read_line_limited(
    stream: &mut impl BufRead,
    out: &mut Vec<u8>,
    cap: usize,
) -> Result<usize, HttpError> {
    let mut stalls = 0u32;
    loop {
        let available = match stream.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_stall(&e) => {
                stalls += 1;
                if stalls > MAX_STALL_TICKS {
                    return Err(HttpError::Disconnected);
                }
                continue;
            }
            Err(_) => return Err(HttpError::Disconnected),
        };
        stalls = 0;
        if available.is_empty() {
            return Ok(out.len());
        }
        let (chunk, done) = match available.iter().position(|&b| b == b'\n') {
            Some(i) => (available.get(..=i).unwrap_or(available), true),
            None => (available, false),
        };
        if out.len() + chunk.len() > cap {
            return Err(HttpError::HeadTooLarge);
        }
        out.extend_from_slice(chunk);
        let used = chunk.len();
        stream.consume(used);
        if done {
            return Ok(out.len());
        }
    }
}

/// Extra response headers (e.g. `Retry-After`).
pub type Headers<'a> = &'a [(&'a str, String)];

/// Write one JSON response. `close` adds `Connection: close`. The head and
/// the body go out in one write, so a reply leaves as one segment and a
/// keep-alive client wakes once for it.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    extra: Headers<'_>,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Response",
    };
    let mut reply = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra {
        reply.push_str(name);
        reply.push_str(": ");
        reply.push_str(value);
        reply.push_str("\r\n");
    }
    if close {
        reply.push_str("Connection: close\r\n");
    }
    reply.push_str("\r\n");
    reply.push_str(body);
    stream.write_all(reply.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(bytes), 1024)
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            b"POST /sessions/7/query?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sessions/7/query");
        assert_eq!(req.body, b"body");
        assert!(!req.close);
    }

    #[test]
    fn clean_eof_is_none_and_truncated_head_is_disconnect() {
        assert!(parse(b"").unwrap().is_none());
        assert_eq!(parse(b"GET / HT"), Err(HttpError::Disconnected));
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(HttpError::Disconnected)
        );
    }

    #[test]
    fn enforces_limits() {
        let long_header = format!(
            "GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert_eq!(parse(long_header.as_bytes()), Err(HttpError::HeadTooLarge));
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(HttpError::BodyTooLarge)
        );
    }

    #[test]
    fn rejects_unsupported_constructs() {
        assert!(matches!(
            parse(b"GET / HTTP/2\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn connection_close_is_honoured_and_responses_are_well_formed() {
        let req = parse(b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.close);
        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            &[("Retry-After", "1".to_string())],
            "{}",
            true,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    /// A sink that records each `write` call.
    #[derive(Default)]
    struct Writes {
        calls: Vec<Vec<u8>>,
    }

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_reply_is_written_in_one_call() {
        let mut sink = Writes::default();
        let body = r#"{"answers":[[1,"a"]]}"#;
        write_response(&mut sink, 200, &[], body, false).unwrap();
        let expected = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        assert_eq!(sink.calls, vec![expected.into_bytes()]);
    }
}
