//! `repaird`: the TCP accept loop, connection handling, and lifecycle.
//!
//! Threading model (all through `cqa-exec`'s [`ServiceGroup`] — the rest of
//! the workspace never spawns raw threads):
//!
//! * one **accept** thread, blocked in `accept` so a new connection is
//!   served as soon as it arrives; stopping the server wakes it with one
//!   throwaway loopback connection ([`ServerState::begin_shutdown`]);
//! * one **connection** thread per accepted socket, running the
//!   keep-alive request loop;
//! * one **disconnect watcher** thread per connection, `peek`ing the
//!   socket: when the peer vanishes mid-request it cancels the request's
//!   budget, so abandoned work stops burning CPU instead of running to its
//!   deadline.
//!
//! Admission control is per *request*, not per connection: a permit from
//! the [`AdmissionGate`] is held for the duration of one handler call, and
//! a full gate answers `429` + `Retry-After` immediately — the connection
//! stays usable. Graceful degradation is end-to-end: budget exhaustion
//! surfaces as a `truncated` JSON field inside a 200, never as a dropped
//! connection.

use crate::api;
use crate::http::{read_request, write_response, HttpError, Request};
use crate::json::Json;
use crate::sessions::{write_lock, SessionStore};
use crate::wire::BudgetPolicy;
use cqa_exec::{AdmissionGate, CancelToken, ServiceGroup};
use std::io::{BufRead, BufReader};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind host. Defaults to loopback only.
    pub host: String,
    /// Bind port; 0 asks the OS for a free one (the bound address is
    /// reported by [`ServerHandle::addr`]).
    pub port: u16,
    /// Maximum concurrently *executing* requests; beyond it, 429.
    pub max_inflight: usize,
    /// Maximum live sessions; beyond it, session creation answers 503.
    pub max_sessions: usize,
    /// Applied when a request has no `timeout_ms` field. `None` = no
    /// deadline.
    pub default_timeout_ms: Option<u64>,
    /// Hard cap on any requested `timeout_ms`.
    pub max_timeout_ms: u64,
    /// Hard cap on request bodies, bytes; beyond it, 413.
    pub max_body_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            max_inflight: 64,
            max_sessions: 256,
            default_timeout_ms: None,
            max_timeout_ms: 3_600_000,
            max_body_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Shared server internals, visible to the handlers in [`crate::api`].
#[derive(Debug)]
pub struct ServerState {
    /// The configuration the server was started with; [`start`] resolves
    /// a requested port 0 to the port it bound.
    pub config: ServerConfig,
    /// The session table.
    pub sessions: SessionStore,
    /// Per-request admission gate.
    pub gate: AdmissionGate,
    /// Cancelled by [`ServerState::begin_shutdown`] (through
    /// [`ServerHandle::shutdown`]) or by `POST /shutdown`, whose
    /// connection wakes the acceptor once the reply is written; every
    /// loop checks it.
    pub stop: CancelToken,
}

impl ServerState {
    /// Stop the server: set the stop token, then wake the accept loop,
    /// which blocks in `accept`, with one loopback connection it drops
    /// unserved. A state with no bound port (one built for in-process
    /// dispatch, without [`start`]) only sets the token.
    pub fn begin_shutdown(&self) {
        self.stop.cancel();
        if self.config.port == 0 {
            return;
        }
        let wake = (self.config.host.as_str(), self.config.port)
            .to_socket_addrs()
            .into_iter()
            .flatten()
            .map(|mut addr| {
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                addr
            });
        for addr in wake {
            if TcpStream::connect_timeout(&addr, WAKE_TIMEOUT).is_ok() {
                return;
            }
        }
    }

    /// The budget policy handlers derive per-request [`cqa_exec::Budget`]s
    /// from.
    pub fn budget_policy(&self) -> BudgetPolicy {
        BudgetPolicy {
            default_timeout_ms: self.config.default_timeout_ms,
            max_timeout_ms: self.config.max_timeout_ms,
        }
    }
}

/// A running server: its bound address plus the shutdown/join handles.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    group: ServiceGroup,
}

impl ServerHandle {
    /// The actually bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests inspect gate/session counters through this).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Ask the server to stop accepting and drain.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Block until the accept loop has exited (implies [`shutdown`] was
    /// requested by someone), then drop all sessions. Returns the number of
    /// sessions dropped — a clean client-driven shutdown leaves 0 behind.
    ///
    /// [`shutdown`]: ServerHandle::shutdown
    pub fn join(mut self) -> usize {
        let _ = self.group.join_all();
        self.state.sessions.clear()
    }
}

/// How long the accept loop backs off after a failed `accept` (for
/// example, out of file descriptors) before it tries again.
const ACCEPT_RETRY: Duration = Duration::from_millis(25);

/// Connect timeout of the wake-up connection [`ServerState::begin_shutdown`]
/// makes to the server's own listener.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Bind and start serving in the background.
pub fn start(mut config: ServerConfig) -> Result<ServerHandle, String> {
    let listener = TcpListener::bind((config.host.as_str(), config.port))
        .map_err(|e| format!("bind {}:{}: {e}", config.host, config.port))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    config.port = addr.port();
    let state = Arc::new(ServerState {
        sessions: SessionStore::new(config.max_sessions),
        gate: AdmissionGate::new(config.max_inflight),
        stop: CancelToken::new(),
        config,
    });
    let mut group = ServiceGroup::new();
    let accept_state = Arc::clone(&state);
    let spawned = group.spawn("repaird-accept", move || {
        accept_loop(&listener, &accept_state);
    });
    if !spawned {
        return Err("could not spawn the accept thread".to_string());
    }
    Ok(ServerHandle { addr, state, group })
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    while !state.stop.is_cancelled() {
        match listener.accept() {
            // The connection that woke a stopping server is dropped
            // unserved, like any that races with the stop.
            Ok(_) if state.stop.is_cancelled() => break,
            Ok((stream, _peer)) => {
                let state = Arc::clone(state);
                if !ServiceGroup::spawn_detached("repaird-conn", move || {
                    serve_connection(stream, &state);
                }) {
                    // Thread exhaustion: nothing to do but drop the socket;
                    // the client sees a reset and retries.
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_RETRY),
        }
    }
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// The keep-alive request loop for one connection.
fn serve_connection(stream: TcpStream, state: &Arc<ServerState>) {
    // Short read timeout so the loop can poll the stop token while idle.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    // The disconnect watcher peeks a clone of the socket and cancels the
    // budget of whatever request is in flight when the peer vanishes. The
    // clone shares the socket's open file description, so the 100 ms read
    // timeout above paces the watcher's `peek` too — it must NOT switch the
    // socket to non-blocking, or every read on the main path busy-spins
    // through its stall allowance in microseconds.
    let cancel_slot: Arc<RwLock<Option<CancelToken>>> = Arc::default();
    let conn_done = CancelToken::new();
    if let Ok(peer) = stream.try_clone() {
        let slot = Arc::clone(&cancel_slot);
        let done = conn_done.clone();
        ServiceGroup::spawn_detached("repaird-watch", move || {
            watch_disconnect(&peer, &slot, &done);
        });
    }
    let Ok(read_half) = stream.try_clone() else {
        conn_done.cancel();
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        // Idle wait: poll for the first byte of a request (or EOF, or
        // shutdown) without committing to a blocking parse.
        let ready = loop {
            if state.stop.is_cancelled() {
                break false;
            }
            match reader.fill_buf() {
                Ok([]) => break false, // clean EOF between requests
                Ok(_) => break true,
                Err(e) if would_block(&e) => continue,
                Err(_) => break false,
            }
        };
        if !ready {
            break;
        }
        let request = match read_request(&mut reader, state.config.max_body_bytes) {
            Ok(Some(request)) => request,
            Ok(None) => break,
            Err(HttpError::Disconnected) => break,
            Err(HttpError::HeadTooLarge) => {
                let _ = respond_error(&mut writer, 431, "request head too large");
                break;
            }
            Err(HttpError::BodyTooLarge) => {
                let _ = respond_error(&mut writer, 413, "request body too large");
                break;
            }
            Err(HttpError::Malformed(e)) => {
                let _ = respond_error(&mut writer, 400, &e);
                break;
            }
        };
        let close = request.close;
        if !dispatch(state, &request, &cancel_slot, &mut writer) {
            break;
        }
        if close {
            break;
        }
    }
    *write_lock(&cancel_slot) = None;
    conn_done.cancel();
}

/// Admission-check and run one request; returns false when the response
/// could not be written (peer gone).
fn dispatch(
    state: &Arc<ServerState>,
    request: &Request,
    cancel_slot: &Arc<RwLock<Option<CancelToken>>>,
    writer: &mut TcpStream,
) -> bool {
    // Health and shutdown never take a permit: they do no CQA work, must
    // stay reachable on a saturated server, and keeping them out of the
    // gate makes `in_flight` an honest count of executing CQA requests.
    let exempt = request.path == "/health" || request.path == "/shutdown";
    let reply = if exempt {
        api::handle(state, request, cancel_slot)
    } else {
        match state.gate.try_enter() {
            Some(_permit) => api::handle(state, request, cancel_slot),
            None => api::Reply {
                status: 429,
                retry_after: Some(1),
                body: Json::obj([
                    ("error", Json::str("server is at its in-flight request cap")),
                    ("retry_after", Json::Int(1)),
                ]),
            },
        }
    };
    let mut extra: Vec<(&str, String)> = Vec::new();
    if let Some(seconds) = reply.retry_after {
        extra.push(("Retry-After", seconds.to_string()));
    }
    let written =
        write_response(writer, reply.status, &extra, &reply.body.to_string(), false).is_ok();
    if request.path == "/shutdown" && state.stop.is_cancelled() {
        state.begin_shutdown();
    }
    written
}

fn respond_error(writer: &mut TcpStream, status: u16, message: &str) -> std::io::Result<()> {
    let body = Json::obj([("error", Json::str(message))]).to_string();
    write_response(writer, status, &[], &body, true)
}

/// Poll `peek` until the peer hangs up or the connection finishes its own
/// lifecycle. `Ok(0)` from `peek` is EOF — the peer is gone; pending
/// request bytes show up as `Ok(n > 0)` and are left untouched.
fn watch_disconnect(peer: &TcpStream, slot: &RwLock<Option<CancelToken>>, done: &CancelToken) {
    let mut probe = [0u8; 1];
    while !done.is_cancelled() {
        let gone = match peer.peek(&mut probe) {
            Ok(0) => true,
            Ok(_) => false,
            Err(e) if would_block(&e) => false,
            Err(_) => true,
        };
        if gone {
            // The peer may vanish *before* the handler registers its
            // budget token (it parses the request first), so keep draining
            // the slot until the connection loop winds down — whatever
            // token appears belongs to work nobody is waiting for.
            while !done.is_cancelled() {
                if let Some(token) = write_lock(slot).take() {
                    token.cancel();
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
