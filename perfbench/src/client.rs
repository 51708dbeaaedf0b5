//! The loopback load generator: one keep-alive HTTP/1.1 connection per
//! client, a closed loop (the next request goes out only after the reply
//! to the previous one is read), latency timed at the client from writing
//! the request to reading the full reply.

use crate::gen::{Op, OpKind};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A keep-alive connection to `repaird`.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(120)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// One request; returns the status and the reply body.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        if body.len() < 64 * 1024 {
            head.push_str(body);
            self.writer.write_all(head.as_bytes())?;
        } else {
            self.writer.write_all(head.as_bytes())?;
            self.writer.write_all(body.as_bytes())?;
        }
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("reply head cut short"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let mut reply = vec![0u8; length.ok_or_else(|| bad("Content-Length"))?];
        self.reader.read_exact(&mut reply)?;
        let reply = String::from_utf8(reply).map_err(|_| bad("reply is not UTF-8"))?;
        Ok((status, reply))
    }
}

/// Pull the `"session":N` id out of a create reply.
pub fn session_id(reply: &str) -> Option<u64> {
    reply
        .split("\"session\":")
        .nth(1)?
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// What one op came back with.
#[derive(Debug, Clone)]
pub struct Sample {
    pub kind: OpKind,
    /// Client-side latency, milliseconds.
    pub ms: f64,
    /// Status of the op's main request (`0` on a transport error).
    pub status: u16,
    /// Body of the op's main request (the create reply on `create`).
    pub reply: String,
    /// False when a secondary request failed (the delete after a create)
    /// or the transport broke.
    pub complete: bool,
}

impl Sample {
    fn broken(kind: OpKind, ms: f64, why: String) -> Sample {
        Sample {
            kind,
            ms,
            status: 0,
            reply: why,
            complete: false,
        }
    }
}

/// Run one op on `client`; `sessions[t]` is tenant `t`'s session id.
pub fn run_op(client: &mut Client, op: &Op, sessions: &[u64]) -> Sample {
    let start = Instant::now();
    let ms = |start: Instant| start.elapsed().as_secs_f64() * 1e3;
    let result = if op.kind == OpKind::Create {
        client
            .request("POST", "/sessions", &op.body)
            .and_then(|(status, reply)| {
                let deleted = match session_id(&reply) {
                    Some(id) => {
                        let (code, _) = client.request("DELETE", &format!("/sessions/{id}"), "")?;
                        code == 200
                    }
                    None => false,
                };
                Ok((status, reply, deleted))
            })
    } else {
        let path = format!("/sessions/{}/{}", sessions[op.tenant], op.kind.verb());
        client
            .request("POST", &path, &op.body)
            .map(|(status, reply)| (status, reply, true))
    };
    match result {
        Ok((status, reply, complete)) => Sample {
            kind: op.kind,
            ms: ms(start),
            status,
            reply,
            complete,
        },
        Err(e) => Sample::broken(op.kind, ms(start), format!("transport error: {e}")),
    }
}

/// The `r`-th of `rounds` near-equal slices of `0..n`.
fn chunk(n: usize, r: usize, rounds: usize) -> Range<usize> {
    n * r / rounds..n * (r + 1) / rounds
}

/// Replies and latencies of one timed loop.
pub struct LoopResult {
    /// Per client, one sample per op of its stream, in order.
    pub samples: Vec<Vec<Sample>>,
    /// Wall time of each round, seconds.
    pub round_s: Vec<f64>,
}

impl LoopResult {
    /// The samples of round `r`.
    pub fn round(&self, r: usize) -> impl Iterator<Item = &Sample> {
        let rounds = self.round_s.len();
        self.samples
            .iter()
            .flat_map(move |s| &s[chunk(s.len(), r, rounds)])
    }
}

/// Drive every client's stream concurrently over its own connection, in
/// `rounds` rounds: each client runs the next slice of its stream, and a
/// round ends when the last client finishes its slice. Per-round figures
/// let one slow stretch of a shared machine spoil one round, not the run.
pub fn closed_loop(
    addr: SocketAddr,
    streams: &[Vec<Op>],
    sessions: &[u64],
    rounds: usize,
) -> LoopResult {
    let barrier = Barrier::new(streams.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    let mut out = Vec::with_capacity(stream.len());
                    for r in 0..rounds {
                        barrier.wait();
                        for op in &stream[chunk(stream.len(), r, rounds)] {
                            let sample = match client.as_mut() {
                                Ok(c) => run_op(c, op, sessions),
                                Err(e) => Sample::broken(op.kind, 0.0, format!("connect: {e}")),
                            };
                            if !sample.complete {
                                // A broken transport poisons the
                                // connection: reconnect for the next op.
                                client = Client::connect(addr);
                            }
                            out.push(sample);
                        }
                        barrier.wait();
                    }
                    out
                })
            })
            .collect();
        let mut round_s = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            barrier.wait();
            let start = Instant::now();
            barrier.wait();
            round_s.push(start.elapsed().as_secs_f64());
        }
        let samples = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        LoopResult { samples, round_s }
    })
}
