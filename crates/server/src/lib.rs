//! `repaird` — a multi-tenant consistent-query-answering server.
//!
//! This crate turns the workspace's library pipeline into a long-running
//! service: tenants load a database + Σ once into a **session**, then issue
//! mutations and queries against it over a small HTTP/1.1 + JSON protocol
//! (`repairctl serve`). The value of the server over the one-shot CLI is
//! *warmth*: a session keeps the loaded instance, its shared base-index
//! cache, and the delta-maintained conflict state (violations,
//! hyper-graph, primed component factorization) alive between
//! requests, so a mutate-then-query round trip costs an incremental
//! maintenance step instead of a full reload-and-rebuild — while staying
//! byte-identical to the library path (the F20 harness and the
//! `server_equivalence` suite pin this).
//!
//! Operational contract:
//!
//! * **std-only.** The HTTP framing ([`http`]) and JSON codec ([`json`])
//!   are hand-rolled over `std::net`; the build stays offline.
//! * **Admission control.** At most `max_inflight` requests execute at
//!   once; excess load is refused *immediately* with `429` +
//!   `Retry-After`, never queued unboundedly ([`cqa_exec::AdmissionGate`]).
//! * **Budgets end-to-end.** Every request derives a
//!   [`cqa_exec::Budget`] from its `timeout_ms`/`budget_steps`/
//!   `max_repairs` fields; exhaustion degrades to a sound
//!   `truncated`-annotated response, never a dropped connection.
//!   `timeout_ms: 0` means "truncate immediately", and a client that
//!   disconnects mid-request has its budget cancelled so abandoned work
//!   stops promptly.
//! * **Deterministic wire format.** Objects serialize in construction
//!   order, answers render through the same `Display` impls as the CLI,
//!   and the session table iterates in id order — responses are
//!   reproducible byte-for-byte at any thread count.

#![forbid(unsafe_code)]

pub mod api;
pub mod http;
pub mod json;
pub mod server;
pub mod sessions;
pub mod wire;

pub use api::Reply;
pub use http::{read_request, write_response, HttpError, Request};
pub use json::Json;
pub use server::{start, ServerConfig, ServerHandle, ServerState};
pub use sessions::SessionStore;
pub use wire::BudgetPolicy;
