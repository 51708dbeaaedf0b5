//! Plan-cache and join-order equivalence, property-tested: the subplan
//! cache is a pure memoisation — certain and possible answers folded over
//! the listed repairs, one evaluation per repair view, must be
//! *byte-identical* with sharing on and off, at 1 and 4 threads, and
//! budgeted reads must agree under random step budgets (same answers, same
//! truncation outcome, because budget ticks are charged before evaluation
//! and a cache hit never moves a truncation point). Independently, any
//! *admissible* join order — any permutation of a query's atoms — must
//! produce the same answer set as the planner's cost-based choice: the
//! orderer only moves work, never answers.

use cqa_constraints::{ConstraintSet, KeyConstraint};
use cqa_core::{
    c_repairs, certain_over, consistent_answers_budgeted, possible_over, s_repairs, RepairClass,
};
use cqa_exec::{with_plan_cache, with_threads, Budget};
use cqa_query::{
    eval_cq, eval_cq_ordered, parse_query, parse_ucq, reset_plan_cache, NullSemantics, UnionQuery,
};
use cqa_relation::{tuple, Database, DeltaView, RelationSchema, Tuple};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A two-relation instance with key-group conflicts in `T` under
/// `key T(K)`, plus a clean dimension relation `D` to give the join
/// orderer a real choice. `groups[k]` is the size of key group `k`.
fn key_instance(groups: &[u8]) -> (Database, ConstraintSet) {
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("T", ["K", "V"]))
        .unwrap();
    db.create_relation(RelationSchema::new("D", ["V", "W"]))
        .unwrap();
    for (k, &size) in groups.iter().enumerate() {
        for v in 0..i64::from(size.max(1)) {
            db.insert("T", tuple![k as i64, v]).unwrap();
        }
    }
    for v in 0..4i64 {
        db.insert("D", tuple![v, v * 10]).unwrap();
    }
    let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
    (db, sigma)
}

/// The query pool: joins, projections, a Boolean query and two constant
/// comparisons (range probes once `T` is large enough), all over the
/// shared `T`/`D` schema so the cache sees repeated (query, content) keys.
fn query_pool() -> Vec<UnionQuery> {
    [
        "Q(x) :- T(x, y)",
        "Q(x, w) :- T(x, y), D(y, w)",
        "Q() :- T(x, y), D(y, w)",
        "Q(y) :- T(x, y), T(z, y)",
        "Q(x, y) :- T(x, y), x >= 2",
        "Q(x, w) :- T(x, y), D(y, w), y < 2",
    ]
    .iter()
    .map(|q| parse_ucq(q).unwrap())
    .collect()
}

/// Certain and possible answers folded over the listed repairs of `class`:
/// one evaluation of `query` per repair view, through the subplan cache.
fn per_repair(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: &RepairClass,
) -> (BTreeSet<Tuple>, BTreeSet<Tuple>) {
    let repairs = match class {
        RepairClass::Cardinality => c_repairs(db, sigma),
        _ => s_repairs(db, sigma),
    }
    .unwrap();
    let views: Vec<DeltaView<'_>> = repairs.iter().map(|r| r.view()).collect();
    (certain_over(&views, query), possible_over(&views, query))
}

/// Deterministic Fisher–Yates over an splitmix-style stream: proptest's
/// stand-in has no permutation strategy, so a seed drives the shuffle.
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Certain and possible answers are byte-identical with the subplan
    /// cache on and off, at 1 and 4 threads. The cache-on pass runs twice
    /// (cold, then warm) so hits — not just misses — are exercised.
    #[test]
    fn answers_identical_with_cache_on_and_off(
        groups in proptest::collection::vec(1u8..4, 1..6),
        class_pick in 0usize..2,
    ) {
        let (db, sigma) = key_instance(&groups);
        let class = if class_pick == 0 { RepairClass::Subset } else { RepairClass::Cardinality };
        for query in &query_pool() {
            for threads in [1usize, 4] {
                let (off_c, off_p) = with_threads(threads, || {
                    with_plan_cache(false, || per_repair(&db, &sigma, query, &class))
                });
                reset_plan_cache();
                let ((cold_c, cold_p), (warm_c, warm_p)) =
                    with_threads(threads, || with_plan_cache(true, || {
                        let cold = per_repair(&db, &sigma, query, &class);
                        (cold, per_repair(&db, &sigma, query, &class))
                    }));
                prop_assert_eq!(&off_c, &cold_c, "certain drifted cache on/off");
                prop_assert_eq!(&off_p, &cold_p, "possible drifted cache on/off");
                prop_assert_eq!(&cold_c, &warm_c, "certain drifted cold/warm");
                prop_assert_eq!(&cold_p, &warm_p, "possible drifted cold/warm");
            }
        }
    }

    /// Under a random step budget the cache must not move the truncation
    /// point: the same budget yields the same answers *and* the same
    /// truncation outcome with sharing on and off (ticks are charged
    /// before evaluation, so a hit costs what a miss costs in steps).
    #[test]
    fn budgeted_truncation_agrees_with_cache_on_and_off(
        groups in proptest::collection::vec(2u8..4, 2..5),
        steps in 1u64..2000,
    ) {
        let (db, sigma) = key_instance(&groups);
        let query = parse_ucq("Q(x) :- T(x, y)").unwrap();
        let run = |cache_on: bool| {
            reset_plan_cache();
            with_plan_cache(cache_on, || {
                let budget = Budget::steps(steps);
                consistent_answers_budgeted(
                    &db, &sigma, &query, &RepairClass::Subset, &budget,
                ).unwrap()
            })
        };
        let off = run(false);
        let on = run(true);
        prop_assert_eq!(
            off.truncation().is_some(),
            on.truncation().is_some(),
            "cache moved the truncation point at {} steps", steps
        );
        prop_assert_eq!(off.into_value(), on.into_value(), "budgeted answers drifted");
    }

    /// Any admissible join order gives the same answer set: a random
    /// permutation of the atoms, fed through `eval_cq_ordered`, matches
    /// the planner's own order under both null semantics. Each query runs
    /// on the instance as generated and with `T` padded past the index
    /// threshold by clean keys, where the comparison queries range-probe.
    #[test]
    fn any_admissible_join_order_is_answer_preserving(
        groups in proptest::collection::vec(1u8..5, 1..6),
        seed in proptest::prelude::any::<u64>(),
    ) {
        let (db, _) = key_instance(&groups);
        let mut padded = db.clone();
        for k in 0..40i64 {
            padded.insert("T", tuple![100 + k, k % 6 - 1]).unwrap();
        }
        let cqs = ["Q(x, w) :- T(x, y), D(y, w)", "Q(y) :- T(x, y), T(z, y), D(y, w)"]
            .into_iter()
            .map(|text| parse_query(text).unwrap())
            .chain(query_pool().into_iter().flat_map(|q| q.disjuncts));
        for cq in cqs {
            let order = permutation(cq.atoms.len(), seed);
            for db in [&db, &padded] {
                for mode in [NullSemantics::Sql, NullSemantics::Structural] {
                    let planned = eval_cq(db, &cq, mode);
                    let forced = eval_cq_ordered(db, &cq, mode, &order);
                    prop_assert_eq!(&planned, &forced,
                        "order {:?} drifted on {} under {:?}", &order, cq, mode);
                }
            }
        }
    }
}

/// A non-permutation order (out-of-range or duplicated indices) must fall
/// back to the planner, never panic or drop atoms.
#[test]
fn inadmissible_orders_fall_back_to_the_planner() {
    let (db, _) = key_instance(&[2, 3]);
    let cq = parse_query("Q(x, w) :- T(x, y), D(y, w)").unwrap();
    let expect = eval_cq(&db, &cq, NullSemantics::Sql);
    for bad in [vec![], vec![0], vec![0, 0], vec![0, 7], vec![1, 0, 1]] {
        let got = eval_cq_ordered(&db, &cq, NullSemantics::Sql, &bad);
        assert_eq!(expect, got, "bad order {bad:?} changed answers");
    }
}
