//! Reply bodies rendered the way `repaird`'s handlers render them, through
//! `cqa_server::wire`. The correctness gate renders one-shot library
//! results with these and the traced replay renders its warm results with
//! them; both are compared byte for byte with the loopback replies.

use cqa_core::planner::PlannedAnswer;
use cqa_core::Repair;
use cqa_exec::Outcome;
use cqa_relation::Tuple;
use cqa_server::wire::{int_json, strategy_tag, strings_json, truncation_json};
use cqa_server::Json;
use std::collections::BTreeSet;

fn with_truncation<T>(mut pairs: Vec<(String, Json)>, outcome: &Outcome<T>) -> String {
    if let Some(t) = truncation_json(outcome) {
        pairs.push(("truncated".to_string(), t));
    }
    Json::Object(pairs).to_string()
}

/// `POST /sessions`.
pub fn created(session: u64, epoch: u64, consistent: bool, violations: usize) -> String {
    Json::obj([
        ("session", int_json(session)),
        ("epoch", int_json(epoch)),
        ("consistent", Json::Bool(consistent)),
        ("violations", int_json(violations as u64)),
    ])
    .to_string()
}

/// `DELETE /sessions/<id>`.
pub fn deleted(session: u64) -> String {
    Json::obj([("deleted", int_json(session))]).to_string()
}

/// `POST /mutate`: `results` is the array of per-op result objects.
pub fn mutated(epoch: u64, consistent: bool, maintenance: String, results: Json) -> String {
    Json::obj([
        ("epoch", int_json(epoch)),
        ("consistent", Json::Bool(consistent)),
        ("maintenance", Json::Str(maintenance)),
        ("results", results),
    ])
    .to_string()
}

/// `kind: certain` on the planner route.
pub fn planned(outcome: &Outcome<PlannedAnswer>) -> String {
    let answer = outcome.value();
    let pairs = vec![
        ("answers".to_string(), strings_json(&answer.answers)),
        (
            "strategy".to_string(),
            Json::str(strategy_tag(&answer.strategy)),
        ),
    ];
    with_truncation(pairs, outcome)
}

/// Certain answers over an explicit class, or possible answers.
pub fn answers(outcome: &Outcome<BTreeSet<Tuple>>) -> String {
    with_truncation(
        vec![("answers".to_string(), strings_json(outcome.value()))],
        outcome,
    )
}

/// `POST /repairs` with `limit`.
pub fn repairs(outcome: &Outcome<Vec<Repair>>, limit: Option<usize>) -> String {
    let all = outcome.value();
    let pairs = vec![
        ("count".to_string(), int_json(all.len() as u64)),
        (
            "repairs".to_string(),
            strings_json(all.iter().take(limit.unwrap_or(usize::MAX))),
        ),
    ];
    with_truncation(pairs, outcome)
}
