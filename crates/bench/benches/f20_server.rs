//! F20: session reuse in repaird — warm queries against a live session vs
//! cold create-query-delete one-shots, driven straight through the request
//! handler (no sockets), so the measured gap is session state — the loaded
//! database, its indexes and the warm incremental conflict state — not TCP
//! framing. The F20 harness section measures the same contrast end-to-end
//! over loopback.
//!
//! `warm_session_reads` times the three class reads of a `fold_read`
//! tenant (`key_conflict_instance(500, 10, 2, 11)` under `key T(K)`: ten
//! key-conflict components, 2^10 S-repairs) on a warm `CqaSession` — C-repair
//! certain answers, S-repair possible answers and an S-repair listing cut
//! at 4 — against the one-shot library calls that rebuild violations,
//! graph, components and families on every call. It checks first that
//! each warm read returns the one-shot call's output.
//!
//! It also times a `mutate_mix` tenant (`f18_columnar(f18_data(2 000, 11))`
//! under its FD-shaped and range denials) on a warm session: the two
//! planner reads, against the one-shot planner, and the four-write cycle —
//! a conflicting insert, an amount raised above 9 900, the delete of the
//! inserted order and the amount put back — each write maintaining the
//! conflict state. Before timing, and again after write cycles, each warm
//! read must return the one-shot planner's answers and strategy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cqa_bench::{f18_columnar, f18_data, key_conflict_instance};
use cqa_core::{
    answer_consistently_budgeted, consistent_answers_budgeted, possible_answers_budgeted,
    s_repairs_budgeted, CqaSession, RepairClass, RepairOptions,
};
use cqa_exec::{AdmissionGate, Budget, CancelToken};
use cqa_query::{parse_query, UnionQuery};
use cqa_relation::{Tid, Tuple, Value};
use cqa_server::{api, Json, Request, ServerConfig, ServerState, SessionStore};
use std::collections::BTreeSet;
use std::sync::{Arc, RwLock};

fn call(
    state: &ServerState,
    slot: &RwLock<Option<CancelToken>>,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String) {
    let req = Request {
        method: method.to_string(),
        path: path.to_string(),
        body: body.as_bytes().to_vec(),
        close: false,
    };
    let reply = api::handle(state, &req, slot);
    (reply.status, reply.body.to_string())
}

fn session_id(reply: &str) -> u64 {
    reply
        .split("\"session\":")
        .nth(1)
        .expect("session id in reply")
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric session id")
}

fn bench_f20(c: &mut Criterion) {
    for n in [1_000usize, 8_000] {
        let (db, _sigma) = key_conflict_instance(n, 12, 2, 7);
        let create_body = format!(
            "{{\"db\": {}, \"constraints\": {}}}",
            Json::str(cqa_relation::save(&db).as_str()),
            Json::str("key T(K)\n")
        );
        let query_body = r#"{"query": "Q(y) :- T(5, y)"}"#;
        let state = ServerState {
            config: ServerConfig::default(),
            sessions: SessionStore::new(1024),
            gate: AdmissionGate::new(64),
            stop: CancelToken::new(),
        };
        let slot = RwLock::new(None);
        let (status, reply) = call(&state, &slot, "POST", "/sessions", &create_body);
        assert_eq!(status, 200, "{reply}");
        let warm_id = session_id(&reply);

        let mut group = c.benchmark_group("f20_session_reuse");
        group.sample_size(20);
        group.bench_with_input(BenchmarkId::new("warm_query", n), &n, |b, _| {
            b.iter(|| {
                let (status, reply) = call(
                    &state,
                    &slot,
                    "POST",
                    &format!("/sessions/{warm_id}/query"),
                    query_body,
                );
                assert_eq!(status, 200, "{reply}");
                reply.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("cold_one_shot", n), &n, |b, _| {
            b.iter(|| {
                let (status, reply) = call(&state, &slot, "POST", "/sessions", &create_body);
                assert_eq!(status, 200, "{reply}");
                let id = session_id(&reply);
                let (status, reply) = call(
                    &state,
                    &slot,
                    "POST",
                    &format!("/sessions/{id}/query"),
                    query_body,
                );
                assert_eq!(status, 200, "{reply}");
                let len = reply.len();
                let (status, _) = call(&state, &slot, "DELETE", &format!("/sessions/{id}"), "");
                assert_eq!(status, 200);
                len
            })
        });
        group.finish();
    }
}

fn bench_warm_reads(c: &mut Criterion) {
    let (db, sigma) = key_conflict_instance(500, 10, 2, 11);
    let base = Arc::new(db.clone());
    let mut session = CqaSession::new(db, sigma.clone()).expect("key Σ is denial-class");
    let q = UnionQuery::single(parse_query("Q(x, y) :- T(x, y), x >= 475").expect("query"));
    let (card, subset) = (RepairClass::Cardinality, RepairClass::Subset);
    let limited = RepairOptions {
        limit: Some(4),
        ..RepairOptions::default()
    };
    let unlimited = Budget::unlimited;
    let deleted = |repairs: Vec<cqa_core::Repair>| -> Vec<BTreeSet<Tid>> {
        repairs.into_iter().map(|r| r.deleted).collect()
    };
    // Equality gates: each warm read returns the one-shot call's output.
    assert_eq!(
        session.certain_with_class(&q, &card, &unlimited()).unwrap(),
        consistent_answers_budgeted(&base, &sigma, &q, &card, &unlimited()).unwrap()
    );
    assert_eq!(
        session.possible(&q, &subset, &unlimited()).unwrap(),
        possible_answers_budgeted(&base, &sigma, &q, &subset, &unlimited()).unwrap()
    );
    assert_eq!(
        deleted(
            session
                .repairs(&subset, Some(4), &unlimited())
                .unwrap()
                .into_value()
        ),
        deleted(
            s_repairs_budgeted(&base, &sigma, &limited, &unlimited())
                .unwrap()
                .into_value()
        )
    );

    let mut group = c.benchmark_group("warm_session_reads");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("certain_card", "warm"), |b| {
        b.iter(|| {
            let out = session.certain_with_class(&q, &card, &unlimited());
            out.unwrap().into_value().len()
        })
    });
    group.bench_function(BenchmarkId::new("certain_card", "one_shot"), |b| {
        b.iter(|| {
            let out = consistent_answers_budgeted(&base, &sigma, &q, &card, &unlimited());
            out.unwrap().into_value().len()
        })
    });
    group.bench_function(BenchmarkId::new("possible", "warm"), |b| {
        b.iter(|| {
            let out = session.possible(&q, &subset, &unlimited());
            out.unwrap().into_value().len()
        })
    });
    group.bench_function(BenchmarkId::new("possible", "one_shot"), |b| {
        b.iter(|| {
            let out = possible_answers_budgeted(&base, &sigma, &q, &subset, &unlimited());
            out.unwrap().into_value().len()
        })
    });
    group.bench_function(BenchmarkId::new("repairs_limit_4", "warm"), |b| {
        b.iter(|| {
            let out = session.repairs(&subset, Some(4), &unlimited());
            out.unwrap().into_value().len()
        })
    });
    group.bench_function(BenchmarkId::new("repairs_limit_4", "one_shot"), |b| {
        b.iter(|| {
            let out = s_repairs_budgeted(&base, &sigma, &limited, &unlimited());
            out.unwrap().into_value().len()
        })
    });
    bench_mutate_mix_session(&mut group);
    group.finish();
}

/// The four writes of one `mutate_mix` cycle on `session`, which leave its
/// content as they found it: a conflicting insert (the first order's
/// customer in another city), the second order's amount raised above 9 900,
/// the delete of the inserted order, and the amount put back.
fn write_cycle(session: &mut CqaSession, oid: &mut i64) {
    let unlimited = Budget::unlimited();
    let (row, raised, amount) = {
        let db = session.db();
        let orders = db.relation("Orders").expect("F18 has Orders");
        let tids: Vec<Tid> = orders.tids().take(2).collect();
        let first = orders.get(tids[0]).expect("a live row");
        let raised = tids[1];
        let amount = orders.get(raised).expect("a live row").at(4).clone();
        let other = db
            .relation("Cities")
            .expect("F18 has Cities")
            .tuples()
            .map(|t| t.at(0).clone())
            .find(|city| city != first.at(2))
            .expect("another city");
        *oid += 1;
        let row = Tuple::new([
            Value::Int(*oid),
            first.at(1).clone(),
            other,
            first.at(3).clone(),
            Value::Int(100),
        ]);
        (row, raised, amount)
    };
    let (inserted, _) = session.insert("Orders", row, &unlimited).expect("insert");
    session
        .update(raised, 4, Value::Int(9_950), &unlimited)
        .expect("raise");
    session.delete(inserted, &unlimited).expect("delete");
    session
        .update(raised, 4, amount, &unlimited)
        .expect("restore");
}

/// A warm 2 000-order F18 session: its two `mutate_mix` planner reads and
/// its four-write cycle, gated on the one-shot planner's output.
fn bench_mutate_mix_session(group: &mut criterion::BenchmarkGroup<'_>) {
    let (db, sigma) = f18_columnar(&f18_data(2_000, 11));
    let mut session = CqaSession::new(db, sigma.clone()).expect("F18 Σ is denial-class");
    let reads = [
        "Q(c, r) :- Orders(o, c, x, s, a), Cities(x, r), a < 300",
        "Q(o, x) :- Orders(o, c, x, s, a), Cities(x, r), a > 9600",
    ]
    .map(|text| UnionQuery::single(parse_query(text).expect("query")));
    let unlimited = Budget::unlimited;
    let mut oid = 10_000_000;
    let check = |session: &mut CqaSession| {
        for q in &reads {
            let warm = session.certain(q, &unlimited()).unwrap().into_value();
            let one_shot = answer_consistently_budgeted(session.db(), &sigma, q, &unlimited())
                .unwrap()
                .into_value();
            assert_eq!(
                (warm.answers, warm.strategy),
                (one_shot.answers, one_shot.strategy)
            );
        }
    };
    check(&mut session);
    write_cycle(&mut session, &mut oid);
    check(&mut session);
    for (i, q) in reads.iter().enumerate() {
        group.bench_function(
            BenchmarkId::new(format!("mutate_mix_read_{i}"), "warm"),
            |b| {
                b.iter(|| {
                    let out = session.certain(q, &unlimited());
                    out.unwrap().into_value().answers.len()
                })
            },
        );
        group.bench_function(
            BenchmarkId::new(format!("mutate_mix_read_{i}"), "one_shot"),
            |b| {
                b.iter(|| {
                    let out = answer_consistently_budgeted(session.db(), &sigma, q, &unlimited());
                    out.unwrap().into_value().answers.len()
                })
            },
        );
    }
    group.bench_function(BenchmarkId::new("mutate_mix_write_cycle", "warm"), |b| {
        b.iter(|| write_cycle(&mut session, &mut oid))
    });
    check(&mut session);
}

criterion_group!(benches, bench_f20, bench_warm_reads);
criterion_main!(benches);
