//! Request routing and handlers, independent of the transport.
//!
//! [`handle`] maps one parsed [`Request`] to a status + JSON body; the TCP
//! layer in [`crate::server`] only frames it. Keeping the handlers
//! socket-free means the equivalence and smoke suites can drive the full
//! protocol in-process, and the graceful-degradation contract is easy to
//! state: **every request gets a JSON response** — malformed input is a
//! 4xx with an `error` field, an exhausted budget is a 200 whose body
//! carries a `truncated` object, and only transport death ends a
//! connection without a reply.

use crate::http::Request;
use crate::json::{parse, Json};
use crate::server::ServerState;
use crate::sessions::write_lock;
use crate::wire::{
    budget_from_body, int_json, strategy_tag, strings_json, truncation_json, tuple_from_json,
    value_from_json,
};
use cqa_core::cqa::RepairClass;
use cqa_core::CqaSession;
use cqa_exec::{Budget, CancelToken};
use cqa_query::UnionQuery;
use std::sync::RwLock;

/// One handler verdict: the HTTP status, an optional `Retry-After` value
/// (seconds), and the JSON body.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// `Retry-After` seconds for 429/503 replies.
    pub retry_after: Option<u64>,
    /// Response body.
    pub body: Json,
}

impl Reply {
    fn ok(body: Json) -> Reply {
        Reply {
            status: 200,
            retry_after: None,
            body,
        }
    }

    fn error(status: u16, message: impl Into<String>) -> Reply {
        Reply {
            status,
            retry_after: None,
            body: Json::obj([("error", Json::Str(message.into()))]),
        }
    }

    fn busy(status: u16, message: &str, retry_after: u64) -> Reply {
        Reply {
            status,
            retry_after: Some(retry_after),
            body: Json::obj([
                ("error", Json::str(message)),
                ("retry_after", int_json(retry_after)),
            ]),
        }
    }
}

/// Dispatch one request. `cancel_slot` receives the request's budget
/// cancel token for the duration of the call, so the transport's
/// disconnect watcher can abort work for a vanished client; it is cleared
/// before returning.
pub fn handle(
    state: &ServerState,
    req: &Request,
    cancel_slot: &RwLock<Option<CancelToken>>,
) -> Reply {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let reply = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["health"]) => health(state),
        ("POST", ["shutdown"]) => shutdown(state),
        ("POST", ["sessions"]) => with_body(req, |body| create_session(state, body)),
        ("GET", ["sessions"]) => list_sessions(state),
        ("DELETE", ["sessions", id]) => delete_session(state, id),
        ("POST", ["sessions", id, verb @ ("mutate" | "query" | "repairs" | "causes")]) => {
            let verb = *verb;
            with_body(req, |body| {
                with_session(state, id, |session| {
                    let budget = budget_from_body(body, &state.budget_policy());
                    *write_lock(cancel_slot) = Some(budget.cancel_token());
                    match verb {
                        "mutate" => mutate(session, body, &budget),
                        "query" => query(session, body, &budget),
                        "repairs" => repairs(session, body, &budget),
                        _ => causes(session, body, &budget),
                    }
                })
            })
        }
        (
            "GET" | "POST" | "DELETE" | "PUT" | "PATCH" | "HEAD",
            ["health" | "shutdown" | "sessions", ..],
        ) => Reply::error(405, format!("{} not supported on {}", req.method, req.path)),
        _ => Reply::error(404, format!("no route for {} {}", req.method, req.path)),
    };
    *write_lock(cancel_slot) = None;
    reply
}

fn with_body(req: &Request, f: impl FnOnce(&Json) -> Reply) -> Reply {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Reply::error(400, "request body is not UTF-8"),
    };
    let body = if text.trim().is_empty() {
        Json::Object(Vec::new())
    } else {
        match parse(text) {
            Ok(v) => v,
            Err(e) => return Reply::error(400, format!("malformed JSON body: {e}")),
        }
    };
    f(&body)
}

fn with_session(state: &ServerState, id: &str, f: impl FnOnce(&mut CqaSession) -> Reply) -> Reply {
    let Ok(id) = id.parse::<u64>() else {
        return Reply::error(400, format!("session id must be an integer, got `{id}`"));
    };
    let Some(slot) = state.sessions.get(id) else {
        return Reply::error(404, format!("no session {id}"));
    };
    // Uniform write lock: even "read" requests refresh the warm state.
    let mut session = write_lock(&slot);
    f(&mut session)
}

fn health(state: &ServerState) -> Reply {
    // One subplan cache serves every session: warm sessions over the same
    // instance share entries, so the hit counter is a fleet-wide signal.
    let cache = cqa_query::plan_cache_stats();
    Reply::ok(Json::obj([
        (
            "status",
            Json::str(if state.stop.is_cancelled() {
                "stopping"
            } else {
                "ok"
            }),
        ),
        ("sessions", int_json(state.sessions.len() as u64)),
        ("inflight", int_json(state.gate.in_flight() as u64)),
        ("refused", int_json(state.gate.refused() as u64)),
        (
            "plan_cache",
            Json::obj([
                ("enabled", Json::Bool(cqa_exec::plan_cache_enabled())),
                ("hits", int_json(cache.hits)),
                ("misses", int_json(cache.misses)),
                ("entries", int_json(cache.entries as u64)),
            ]),
        ),
    ]))
}

fn shutdown(state: &ServerState) -> Reply {
    // Only the stop token: the connection wakes the acceptor once this
    // reply is written (`server::dispatch`), or `repairctl serve` could
    // exit before sending it.
    state.stop.cancel();
    Reply::ok(Json::obj([("stopping", Json::Bool(true))]))
}

fn create_session(state: &ServerState, body: &Json) -> Reply {
    let Some(db_text) = body.get("db").and_then(Json::as_str) else {
        return Reply::error(400, "missing `db` (database codec text)");
    };
    let Some(sigma_text) = body.get("constraints").and_then(Json::as_str) else {
        return Reply::error(400, "missing `constraints` (Σ text)");
    };
    let session = match CqaSession::from_text(db_text, sigma_text) {
        Ok(s) => s,
        Err(e) => return Reply::error(400, e),
    };
    let epoch = session.epoch();
    let consistent = match session.is_consistent() {
        Ok(b) => b,
        Err(e) => return Reply::error(400, e.to_string()),
    };
    let violations = session.violation_count();
    match state.sessions.create(session) {
        Some(id) => Reply::ok(Json::obj([
            ("session", int_json(id)),
            ("epoch", int_json(epoch)),
            ("consistent", Json::Bool(consistent)),
            (
                "violations",
                violations.map_or(Json::Null, |n| int_json(n as u64)),
            ),
        ])),
        None => Reply::busy(503, "session table full", 1),
    }
}

fn list_sessions(state: &ServerState) -> Reply {
    let mut rows = Vec::new();
    for id in state.sessions.ids() {
        if let Some(slot) = state.sessions.get(id) {
            let session = crate::sessions::read_lock(&slot);
            rows.push(Json::obj([
                ("session", int_json(id)),
                ("epoch", int_json(session.epoch())),
            ]));
        }
    }
    Reply::ok(Json::obj([("sessions", Json::Array(rows))]))
}

fn delete_session(state: &ServerState, id: &str) -> Reply {
    let Ok(id) = id.parse::<u64>() else {
        return Reply::error(400, format!("session id must be an integer, got `{id}`"));
    };
    if state.sessions.remove(id) {
        Reply::ok(Json::obj([("deleted", int_json(id))]))
    } else {
        Reply::error(404, format!("no session {id}"))
    }
}

/// Apply a batch of mutations, maintaining the warm state after each
/// through the delta pipeline. Application is sequential and **prefix
/// atomic**: on the first bad op the reply is a 400 naming the op index,
/// and `applied` tells the client how many earlier ops took effect.
fn mutate(session: &mut CqaSession, body: &Json, budget: &Budget) -> Reply {
    let Some(ops) = body.get("ops").and_then(Json::as_array) else {
        return Reply::error(400, "missing `ops` array");
    };
    let mut results = Vec::new();
    let mut last_decision = None;
    for (index, op) in ops.iter().enumerate() {
        let applied = results.len() as u64;
        let fail = move |e: String| Reply {
            status: 400,
            retry_after: None,
            body: Json::obj([
                ("error", Json::Str(e)),
                ("op", int_json(index as u64)),
                ("applied", int_json(applied)),
            ]),
        };
        match op.get("op").and_then(Json::as_str) {
            Some("insert") => {
                let Some(relation) = op.get("relation").and_then(Json::as_str) else {
                    return fail("insert needs `relation`".to_string());
                };
                let row = match op.get("row").ok_or("insert needs `row`".to_string()) {
                    Ok(r) => match tuple_from_json(r) {
                        Ok(t) => t,
                        Err(e) => return fail(e),
                    },
                    Err(e) => return fail(e),
                };
                match session.insert(relation, row, budget) {
                    Ok((tid, decision)) => {
                        results.push(Json::obj([("tid", int_json(tid.0))]));
                        last_decision = Some(decision);
                    }
                    Err(e) => return fail(e.to_string()),
                }
            }
            Some("delete") => {
                let Some(tid) = op.get("tid").and_then(Json::as_u64) else {
                    return fail("delete needs `tid`".to_string());
                };
                match session.delete(cqa_relation::Tid(tid), budget) {
                    Ok((relation, row, decision)) => {
                        results.push(Json::obj([
                            ("relation", Json::str(relation)),
                            ("row", Json::str(row.to_string())),
                        ]));
                        last_decision = Some(decision);
                    }
                    Err(e) => return fail(e.to_string()),
                }
            }
            Some("update") => {
                let (Some(tid), Some(position), Some(value)) = (
                    op.get("tid").and_then(Json::as_u64),
                    op.get("position").and_then(Json::as_u64),
                    op.get("value"),
                ) else {
                    return fail("update needs `tid`, `position`, `value`".to_string());
                };
                let value = match value_from_json(value) {
                    Ok(v) => v,
                    Err(e) => return fail(e),
                };
                match session.update(cqa_relation::Tid(tid), position as usize, value, budget) {
                    Ok(decision) => {
                        results.push(Json::obj([("tid", int_json(tid))]));
                        last_decision = Some(decision);
                    }
                    Err(e) => return fail(e.to_string()),
                }
            }
            other => {
                return fail(format!(
                    "unknown op `{}` (use insert|delete|update)",
                    other.unwrap_or("<missing>")
                ))
            }
        }
    }
    let consistent = match session.is_consistent() {
        Ok(b) => b,
        Err(e) => return Reply::error(400, e.to_string()),
    };
    Reply::ok(Json::obj([
        ("epoch", int_json(session.epoch())),
        ("consistent", Json::Bool(consistent)),
        (
            "maintenance",
            last_decision.map_or(Json::Null, |d| Json::Str(d.describe())),
        ),
        ("results", Json::Array(results)),
    ]))
}

fn parse_union_query(body: &Json) -> Result<UnionQuery, Reply> {
    let Some(text) = body.get("query").and_then(Json::as_str) else {
        return Err(Reply::error(400, "missing `query`"));
    };
    cqa_query::parse_query(text)
        .map(UnionQuery::single)
        .map_err(|e| Reply::error(400, e.to_string()))
}

fn parse_class(body: &Json) -> Result<RepairClass, Reply> {
    match body.get("class").and_then(Json::as_str).unwrap_or("subset") {
        "subset" | "s" => Ok(RepairClass::Subset),
        "cardinality" | "c" => Ok(RepairClass::Cardinality),
        "attribute" | "attr" => Ok(RepairClass::AttributeNull),
        "deletions" => Ok(RepairClass::SubsetDeletionsOnly),
        other => Err(Reply::error(
            400,
            format!("unknown repair class `{other}` (use subset|cardinality|attribute|deletions)"),
        )),
    }
}

fn query(session: &mut CqaSession, body: &Json, budget: &Budget) -> Reply {
    let query = match parse_union_query(body) {
        Ok(q) => q,
        Err(reply) => return reply,
    };
    let class = match parse_class(body) {
        Ok(c) => c,
        Err(reply) => return reply,
    };
    let kind = body.get("kind").and_then(Json::as_str).unwrap_or("certain");
    let mut pairs = Vec::new();
    let truncated = match kind {
        "certain" if matches!(class, RepairClass::Subset) => {
            // The planned path: warm incremental state + strategy report.
            let planned = match session.certain(&query, budget) {
                Ok(p) => p,
                Err(e) => return Reply::error(400, e.to_string()),
            };
            let t = truncation_json(&planned);
            let planned = planned.into_value();
            pairs.push(("answers".to_string(), strings_json(&planned.answers)));
            pairs.push((
                "strategy".to_string(),
                Json::str(strategy_tag(&planned.strategy)),
            ));
            t
        }
        "certain" => {
            let answers = match session.certain_with_class(&query, &class, budget) {
                Ok(a) => a,
                Err(e) => return Reply::error(400, e.to_string()),
            };
            let t = truncation_json(&answers);
            let answers = answers.into_value();
            pairs.push(("answers".to_string(), strings_json(&answers)));
            t
        }
        "possible" => {
            let answers = match session.possible(&query, &class, budget) {
                Ok(a) => a,
                Err(e) => return Reply::error(400, e.to_string()),
            };
            let t = truncation_json(&answers);
            let answers = answers.into_value();
            pairs.push(("answers".to_string(), strings_json(&answers)));
            t
        }
        other => {
            return Reply::error(
                400,
                format!("unknown kind `{other}` (use certain|possible)"),
            )
        }
    };
    if let Some(t) = truncated {
        pairs.push(("truncated".to_string(), t));
    }
    Reply::ok(Json::Object(pairs))
}

fn repairs(session: &mut CqaSession, body: &Json, budget: &Budget) -> Reply {
    let class = match parse_class(body) {
        Ok(c) => c,
        Err(reply) => return reply,
    };
    let limit = body.get("limit").and_then(Json::as_u64).map(|n| n as usize);
    if matches!(class, RepairClass::AttributeNull) {
        let repairs = match session.attribute_repairs() {
            Ok(r) => r,
            Err(e) => return Reply::error(400, e.to_string()),
        };
        let shown: Vec<_> = repairs.iter().take(limit.unwrap_or(usize::MAX)).collect();
        return Reply::ok(Json::obj([
            ("count", int_json(repairs.len() as u64)),
            ("repairs", strings_json(shown)),
        ]));
    }
    let outcome = match session.repairs(&class, limit, budget) {
        Ok(o) => o,
        Err(e) => return Reply::error(400, e.to_string()),
    };
    let truncated = truncation_json(&outcome);
    let repairs = outcome.into_value();
    let mut pairs = vec![
        ("count".to_string(), int_json(repairs.len() as u64)),
        (
            "repairs".to_string(),
            strings_json(repairs.iter().take(limit.unwrap_or(usize::MAX))),
        ),
    ];
    if let Some(t) = truncated {
        pairs.push(("truncated".to_string(), t));
    }
    Reply::ok(Json::Object(pairs))
}

fn causes(session: &mut CqaSession, body: &Json, budget: &Budget) -> Reply {
    let query = match parse_union_query(body) {
        Ok(q) => q,
        Err(reply) => return reply,
    };
    let outcome = cqa_causality::actual_causes_budgeted(session.db(), &query, budget);
    let truncated = truncation_json(&outcome);
    let causes = outcome.into_value();
    let mut pairs = vec![("causes".to_string(), strings_json(causes.iter()))];
    if let Some(t) = truncated {
        pairs.push(("truncated".to_string(), t));
    }
    Reply::ok(Json::Object(pairs))
}
