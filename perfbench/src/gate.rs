//! The correctness gate. Replies are recorded during the timed loop and
//! checked after it: each against the one-shot library call on a fresh
//! `cqa_relation::load` of the tenant at the same epoch, run on one thread
//! with the subplan cache off so that it shares no warm state with the
//! server. Any mismatch fails the op.

use crate::client::Sample;
use crate::gen::{Op, OpKind, Plan};
use crate::render;
use cqa_constraints::{parse_constraints, ConstraintSet};
use cqa_core::{
    answer_consistently_budgeted, consistent_answers_budgeted, possible_answers_budgeted,
    s_repairs_budgeted, RepairClass, RepairOptions,
};
use cqa_exec::Budget;
use cqa_query::{parse_query, UnionQuery};
use cqa_relation::{Database, Tid};
use cqa_server::json::parse;
use cqa_server::wire::{int_json, tuple_from_json, value_from_json};
use cqa_server::Json;
use std::collections::HashMap;
use std::sync::Arc;

fn query_of(body: &Json) -> UnionQuery {
    let text = body
        .get("query")
        .and_then(Json::as_str)
        .expect("generated bodies carry a query");
    UnionQuery::single(parse_query(text).expect("generated queries parse"))
}

fn load(text: &str) -> Database {
    cqa_relation::load(text).expect("generated codec text loads")
}

/// The expected reply of a read op on `db`, rendered like the server's.
fn expected_read(db: &Arc<Database>, sigma: &ConstraintSet, op: &Op) -> String {
    let body = parse(&op.body).expect("generated bodies are JSON");
    let budget = Budget::unlimited();
    let fail = "one-shot library call";
    match op.kind {
        OpKind::Certain => render::planned(
            &answer_consistently_budgeted(db, sigma, &query_of(&body), &budget).expect(fail),
        ),
        OpKind::CertainCard => render::answers(
            &consistent_answers_budgeted(
                db,
                sigma,
                &query_of(&body),
                &RepairClass::Cardinality,
                &budget,
            )
            .expect(fail),
        ),
        OpKind::Possible => render::answers(
            &possible_answers_budgeted(db, sigma, &query_of(&body), &RepairClass::Subset, &budget)
                .expect(fail),
        ),
        OpKind::Repairs => {
            let limit = body.get("limit").and_then(Json::as_u64).map(|n| n as usize);
            let options = RepairOptions {
                limit,
                ..RepairOptions::default()
            };
            render::repairs(
                &s_repairs_budgeted(db, sigma, &options, &budget).expect(fail),
                limit,
            )
        }
        OpKind::Create | OpKind::Mutate => unreachable!("not a read op"),
    }
}

/// Apply one generated mutation body to `db`; returns the reply's
/// `results` array.
pub fn apply_mutation(db: &mut Database, body: &Json) -> Json {
    let mut results = Vec::new();
    for m in body
        .get("ops")
        .and_then(Json::as_array)
        .expect("generated ops")
    {
        let tid = || Tid(m.get("tid").and_then(Json::as_u64).expect("generated tid"));
        let result = match m.get("op").and_then(Json::as_str) {
            Some("insert") => {
                let relation = m.get("relation").and_then(Json::as_str).expect("relation");
                let row = tuple_from_json(m.get("row").expect("row")).expect("generated row");
                let tid = db.insert(relation, row).expect("generated insert applies");
                Json::obj([("tid", int_json(tid.0))])
            }
            Some("update") => {
                let position = m.get("position").and_then(Json::as_u64).expect("position") as usize;
                let value = value_from_json(m.get("value").expect("value")).expect("scalar");
                db.update_value(tid(), position, value)
                    .expect("generated update applies");
                Json::obj([("tid", int_json(tid().0))])
            }
            _ => {
                let (relation, row) = db.delete(tid()).expect("generated delete applies");
                Json::obj([
                    ("relation", Json::str(relation)),
                    ("row", Json::str(row.to_string())),
                ])
            }
        };
        results.push(result);
    }
    Json::Array(results)
}

/// Check one client's replies, in stream order: the failed count and the
/// first few reasons.
fn check_client(plan: &Plan, stream: &[Op], samples: &[Sample]) -> (usize, Vec<String>) {
    let mut failed = 0;
    let mut reasons = Vec::new();
    let sigmas: Vec<ConstraintSet> = plan
        .tenants
        .iter()
        .map(|t| parse_constraints(t.sigma_text).expect("generated Σ parses"))
        .collect();
    // Resident tenants: the mirror follows the mutations in stream order;
    // `fresh` is a new load of the mirror at its current epoch.
    let mut mirror: Option<Database> = plan
        .resident()
        .then(|| load(&plan.tenants[stream[0].tenant].db_text));
    let mut fresh: Option<Arc<Database>> = None;
    let mut memo: HashMap<Arc<str>, String> = HashMap::new();
    let mut created: Vec<Option<String>> = vec![None; plan.tenants.len()];
    for (i, (op, sample)) in stream.iter().zip(samples).enumerate() {
        let reply = if sample.status == 200 && sample.complete {
            parse(&sample.reply).ok()
        } else {
            None
        };
        let why = match reply {
            None => Some(format!("status {} / {}", sample.status, sample.reply)),
            Some(r) if r.get("truncated").is_some() => Some("reply is truncated".to_string()),
            Some(r) => {
                let (expected, actual) = match op.kind {
                    OpKind::Create => {
                        let expected = created[op.tenant].get_or_insert_with(|| {
                            let db = load(&plan.tenants[op.tenant].db_text);
                            let n = sigmas[op.tenant]
                                .denial_violations(&db)
                                .expect("violations")
                                .len();
                            format!("{} {} {n}", db.epoch(), n == 0)
                        });
                        let actual = format!(
                            "{} {} {}",
                            r.get("epoch").map_or_else(String::new, Json::to_string),
                            r.get("consistent")
                                .map_or_else(String::new, Json::to_string),
                            r.get("violations")
                                .map_or_else(String::new, Json::to_string)
                        );
                        (expected.clone(), actual)
                    }
                    OpKind::Mutate => {
                        let db = mirror.as_mut().expect("mutations target resident tenants");
                        let results = apply_mutation(db, &parse(&op.body).expect("generated body"));
                        fresh = None;
                        memo.clear();
                        let consistent = sigmas[op.tenant].is_satisfied(&*db).expect("Σ check");
                        let expected = format!("{} {consistent} {results}", db.epoch());
                        let actual = format!(
                            "{} {} {}",
                            r.get("epoch").map_or_else(String::new, Json::to_string),
                            r.get("consistent")
                                .map_or_else(String::new, Json::to_string),
                            r.get("results").map_or_else(String::new, Json::to_string)
                        );
                        (expected, actual)
                    }
                    _ => {
                        let db = fresh.get_or_insert_with(|| {
                            let live = mirror.as_ref().expect("reads target resident tenants");
                            Arc::new(load(&cqa_relation::save(live)))
                        });
                        let expected = memo
                            .entry(Arc::clone(&op.body))
                            .or_insert_with(|| expected_read(db, &sigmas[op.tenant], op));
                        (expected.clone(), sample.reply.clone())
                    }
                };
                (expected != actual).then(|| format!("expected {expected:.200} got {actual:.200}"))
            }
        };
        if let Some(why) = why {
            failed += 1;
            if reasons.len() < 4 {
                reasons.push(format!("{} op {i}: {why}", op.kind.name()));
            }
        }
    }
    (failed, reasons)
}

/// Check every recorded reply, one thread per client. Returns the number
/// of failed ops and the first few failure reasons.
pub fn check(plan: &Plan, samples: &[Vec<Sample>]) -> (usize, Vec<String>) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .streams
            .iter()
            .zip(samples)
            .map(|(stream, samples)| {
                scope.spawn(move || {
                    cqa_exec::with_threads(1, || {
                        cqa_exec::with_plan_cache(false, || check_client(plan, stream, samples))
                    })
                })
            })
            .collect();
        let mut failed = 0;
        let mut reasons = Vec::new();
        for handle in handles {
            let (f, r) = handle.join().expect("gate thread panicked");
            failed += f;
            reasons.extend(r);
        }
        (failed, reasons)
    })
}
