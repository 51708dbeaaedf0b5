//! Property tests for the dictionary-encoded columnar engine (PR 7).
//!
//! Three contracts are exercised on random inputs:
//!
//! * **Dictionary round-trip** — `resolve(intern(v))` is `v` (structural
//!   equality; integral floats canonicalize to ints and compare equal),
//!   interning is idempotent, and vid equality holds exactly when the
//!   underlying values are equal.
//! * **Order agreement** — `ValueDict::cmp_vids` is the total [`Value`]
//!   order seen through ids; sorting by vids-resolved order can therefore
//!   never diverge from the row-oriented engine's value sort.
//! * **Columnar ≡ row reference** — denial-constraint violations (hitting
//!   the rank lane and the generic evaluator's scans, hash probes and
//!   range probes) and CQA joins computed by the id-space engine equal a
//!   naive Value-level nested-loop reference, and budgeted repair/CQA
//!   outcomes are byte-identical at 1 and 4 threads under random step
//!   budgets.
//! * **Maintained ≡ rebuilt** — after every write of a random write
//!   sequence, each cached hash index, sorted index and the column
//!   statistics equal what a fresh build over the new rows gives.

use cqa_constraints::{ConstraintSet, DenialConstraint, KeyConstraint};
use cqa_core::{RepairClass, RepairOptions};
use cqa_exec::{with_threads, Budget};
use cqa_query::plan::Access;
use cqa_query::{parse_query, CmpOp, NullSemantics, UnionQuery};
use cqa_relation::{
    sql_eq, tuple, Database, Facts, RelationSchema, Tid, Truth, Tuple, Value, ValueDict,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Values drawn to collide often: small ints, a few strings, bools,
/// labelled nulls, and floats — including integral floats like `2.0`,
/// which the dictionary canonicalizes to `Int(2)` (they compare equal).
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-4i64..8).prop_map(Value::Int),
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
        (0u32..3).prop_map(Value::Null),
        (-2.0f64..4.0).prop_map(Value::Float),
        (-4i64..8).prop_map(|i| Value::Float(i as f64)),
    ]
}

/// An `R(A,B,C)`, `S(A)` instance from random cell values.
fn instance(r_rows: &[(Value, Value, Value)], s_rows: &[Value]) -> Database {
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("R", ["A", "B", "C"]))
        .unwrap();
    db.create_relation(RelationSchema::new("S", ["A"])).unwrap();
    for (a, b, c) in r_rows {
        db.insert("R", Tuple::new([a.clone(), b.clone(), c.clone()]))
            .unwrap();
    }
    for a in s_rows {
        db.insert("S", Tuple::new([a.clone()])).unwrap();
    }
    db
}

/// One write of a random write sequence on `R`. Indexes pick among the
/// rows present at the time of the write, modulo their count.
#[derive(Debug, Clone)]
enum Write {
    Insert(Value, Value, Value),
    Delete(usize),
    /// Set one cell of a present row.
    Update(usize, usize, Value),
    /// Insert a copy of a present row with one cell replaced, then update
    /// that cell back: the update collides with the original row and the
    /// set shrinks.
    Collide(usize, usize, Value),
}

fn arb_write() -> impl Strategy<Value = Write> {
    prop_oneof![
        (arb_value(), arb_value(), arb_value()).prop_map(|(a, b, c)| Write::Insert(a, b, c)),
        (0usize..100).prop_map(Write::Delete),
        (0usize..100, 0usize..3, arb_value()).prop_map(|(i, c, v)| Write::Update(i, c, v)),
        (0usize..100, 0usize..3, arb_value()).prop_map(|(i, c, v)| Write::Collide(i, c, v)),
    ]
}

/// The `i`-th present row of `R` (modulo the row count), if any.
fn pick(db: &Database, i: usize) -> Option<(Tid, Tuple)> {
    let rows: Vec<(Tid, Tuple)> = db.facts_in("R").map(|(t, r)| (t, r.clone())).collect();
    rows.get(i % rows.len().max(1)).cloned()
}

/// Build (or touch) every cache the maintenance contract covers.
fn touch_caches(db: &Database) {
    let _ = db.hash_index("R", &[1]);
    let _ = db.hash_index("R", &[0, 2]);
    let _ = db.sorted_index("R", 1);
    let _ = db.column_stats("R");
}

/// SQL-semantics equality: true only for equal non-null values.
fn joins(a: &Value, b: &Value) -> bool {
    sql_eq(a, b) == Truth::True
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn intern_resolve_round_trips(vs in vec(arb_value(), 0..40)) {
        let d = ValueDict::new();
        for v in &vs {
            let vid = d.intern(v);
            let back = d.resolve(vid).unwrap();
            prop_assert_eq!(&back, v);
            prop_assert_eq!(d.intern(&back), vid);
            prop_assert_eq!(d.lookup(v), Some(vid));
            prop_assert_eq!(d.is_null(vid), v.is_null());
        }
    }

    #[test]
    fn vid_equality_iff_value_equality(a in arb_value(), b in arb_value()) {
        let d = ValueDict::new();
        let (va, vb) = (d.intern(&a), d.intern(&b));
        prop_assert_eq!(va == vb, a == b);
    }

    #[test]
    fn cmp_vids_is_the_value_order(vs in vec(arb_value(), 2..24)) {
        let d = ValueDict::new();
        let vids: Vec<_> = vs.iter().map(|v| d.intern(v)).collect();
        for (i, a) in vs.iter().enumerate() {
            for (j, b) in vs.iter().enumerate() {
                prop_assert_eq!(d.cmp_vids(vids[i], vids[j]), a.cmp(b));
            }
        }
        // Sorting ids through the dictionary is the value sort.
        let mut by_vid = vids.clone();
        by_vid.sort_by(|x, y| d.cmp_vids(*x, *y));
        let resolved: Vec<Value> = by_vid.iter().map(|v| d.resolve(*v).unwrap()).collect();
        let mut by_value = vs.clone();
        by_value.sort();
        prop_assert_eq!(resolved, by_value);
    }

    /// Constant comparisons (`R(x,y,z), x op K`, either orientation)
    /// against a Value-level filter under SQL comparison semantics. From
    /// `INDEX_THRESHOLD` rows on the evaluator range-probes the sorted index
    /// on `x`; below it, it scans.
    #[test]
    fn range_violations_match_row_reference(
        r_rows in vec((arb_value(), arb_value(), arb_value()), 0..80),
        k in -3i64..7,
        op_pick in 0usize..5,
        flip in any::<bool>(),
    ) {
        let db = instance(&r_rows, &[]);
        let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq][op_pick];
        let body = if flip {
            format!("R(x, y, z), {k} {} x", op.flipped())
        } else {
            format!("R(x, y, z), x {op} {k}")
        };
        let dc = DenialConstraint::parse("cmp", &body).unwrap();
        let bound = Value::Int(k);
        let expect = |facts: &dyn Facts| -> BTreeSet<BTreeSet<Tid>> {
            facts
                .facts_in("R")
                .filter(|(_, t)| t.get(0).is_some_and(|a| !a.is_null() && op.eval(a, &bound)))
                .map(|(tid, _)| BTreeSet::from([tid]))
                .collect()
        };
        prop_assert_eq!(dc.violations(&db), expect(&db), "{}", body);
        let access = cqa_query::plan::explain(&db, dc.body()).steps[0].access.clone();
        let indexed = db.relation_len("R") >= cqa_query::plan::INDEX_THRESHOLD;
        prop_assert_eq!(matches!(access, Access::RangeProbe { col: 0, .. }), indexed);
        // A repair view: every third row deleted, and the first rows again
        // with `x` moved by one (new values included) as its overlay.
        let deleted: BTreeSet<Tid> = db.tids().into_iter().step_by(3).collect();
        let inserted: Vec<(String, Tuple)> = r_rows
            .iter()
            .take(3)
            .map(|(a, b, c)| {
                let x = match a {
                    Value::Int(i) => Value::Int(i + 1),
                    other => other.clone(),
                };
                ("R".to_string(), Tuple::new([x, b.clone(), c.clone()]))
            })
            .collect();
        let view = cqa_relation::DeltaView::new(&db, &deleted, &inserted);
        prop_assert_eq!(dc.violations(&view), expect(&view), "{} on a view", body);
    }

    /// Every cached hash index (one and two columns), the sorted index and
    /// the column statistics of `R` stay equal to a fresh build (what a
    /// `clone()`, which starts with an empty cache, builds) after each
    /// write of a random sequence of inserts, deletes and one-cell updates.
    #[test]
    fn maintained_indexes_equal_fresh_builds(
        r_rows in vec((arb_value(), arb_value(), arb_value()), 0..80),
        writes in vec(arb_write(), 0..12),
    ) {
        let mut db = instance(&r_rows, &[]);
        for write in &writes {
            touch_caches(&db);
            match write {
                Write::Insert(a, b, c) => {
                    db.insert("R", Tuple::new([a.clone(), b.clone(), c.clone()])).unwrap();
                }
                Write::Delete(i) => {
                    if let Some((tid, _)) = pick(&db, *i) {
                        db.delete(tid).unwrap();
                    }
                }
                Write::Update(i, col, v) => {
                    if let Some((tid, _)) = pick(&db, *i) {
                        db.update_value(tid, *col, v.clone()).unwrap();
                    }
                }
                Write::Collide(i, col, v) => {
                    let Some((tid, row)) = pick(&db, *i) else { continue };
                    let mut cells: Vec<Value> = row.iter().cloned().collect();
                    let original = std::mem::replace(&mut cells[*col], v.clone());
                    let copy = db.insert("R", Tuple::new(cells)).unwrap();
                    touch_caches(&db);
                    let before = db.relation_len("R");
                    db.update_value(copy, *col, original).unwrap();
                    if copy != tid {
                        // The copy now equals the original row: one of the
                        // two leaves the set.
                        prop_assert_eq!(db.relation_len("R"), before - 1);
                    }
                }
            }
            let fresh = db.clone();
            for cols in [&[1usize][..], &[0, 2]] {
                prop_assert_eq!(
                    db.hash_index("R", cols).unwrap(),
                    fresh.hash_index("R", cols).unwrap()
                );
            }
            prop_assert_eq!(db.sorted_index("R", 1).unwrap(), fresh.sorted_index("R", 1).unwrap());
            prop_assert_eq!(db.column_stats("R").unwrap(), fresh.column_stats("R").unwrap());
        }
    }

    /// Hash-join fast path (`R(x,y,z), S(x)`) and the CQA join built on the
    /// same id-space machinery, against nested-loop references.
    #[test]
    fn join_violations_and_answers_match_row_reference(
        r_rows in vec((arb_value(), arb_value(), arb_value()), 0..25),
        s_rows in vec(arb_value(), 0..12),
    ) {
        let db = instance(&r_rows, &s_rows);
        let dc = DenialConstraint::parse("j", "R(x, y, z), S(x)").unwrap();
        let mut expect: BTreeSet<BTreeSet<Tid>> = BTreeSet::new();
        let mut answers: BTreeSet<Tuple> = BTreeSet::new();
        for (rt, r) in db.facts_in("R") {
            for (st, s) in db.facts_in("S") {
                let (Some(rx), Some(sx)) = (r.get(0), s.get(0)) else { continue };
                if joins(rx, sx) {
                    expect.insert(BTreeSet::from([rt, st]));
                    if let (Some(x), Some(z)) = (r.get(0), r.get(2)) {
                        answers.insert(Tuple::new([x.clone(), z.clone()]));
                    }
                }
            }
        }
        prop_assert_eq!(dc.violations(&db), expect);
        let q = parse_query("Q(x, z) :- R(x, y, z), S(x)").unwrap();
        prop_assert_eq!(cqa_query::eval_cq(&db, &q, NullSemantics::Sql), answers);
    }

    /// Self-join with a two-variable comparison — exercises the generic
    /// backtracking evaluator over columnar rows.
    #[test]
    fn self_join_violations_match_row_reference(
        r_rows in vec((arb_value(), arb_value(), arb_value()), 0..20),
    ) {
        let db = instance(&r_rows, &[]);
        let dc = DenialConstraint::parse("lt", "R(x, y, z), R(x, u, w), y < u").unwrap();
        let rows: Vec<(Tid, Tuple)> = db.facts_in("R").map(|(t, r)| (t, r.clone())).collect();
        let mut expect: BTreeSet<BTreeSet<Tid>> = BTreeSet::new();
        for (t1, r1) in &rows {
            for (t2, r2) in &rows {
                let (Some(x1), Some(x2)) = (r1.get(0), r2.get(0)) else { continue };
                let (Some(y), Some(u)) = (r1.get(1), r2.get(1)) else { continue };
                if joins(x1, x2) && !y.is_null() && !u.is_null() && CmpOp::Lt.eval(y, u) {
                    expect.insert(BTreeSet::from([*t1, *t2]));
                }
            }
        }
        prop_assert_eq!(dc.violations(&db), expect);
    }

    /// Budgeted repair enumeration and CQA are byte-identical at 1 and 4
    /// threads for any step budget (logical truncation is deterministic).
    #[test]
    fn budgeted_outcomes_are_thread_count_invariant(
        groups in vec(1u8..4, 1..5),
        steps in 1u64..2000,
    ) {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["K", "V"])).unwrap();
        for (k, &size) in groups.iter().enumerate() {
            for v in 0..size.max(1) {
                db.insert("T", tuple![k as i64, v as i64]).unwrap();
            }
        }
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
        let base = Arc::new(db.clone());
        let q = UnionQuery::single(parse_query("Q(k, v) :- T(k, v)").unwrap());
        let class = RepairClass::Subset;

        let run_cqa = || {
            let budget = Budget::steps(steps);
            let out = cqa_core::consistent_answers_budgeted(&db, &sigma, &q, &class, &budget)
                .unwrap();
            (out.is_exact(), out.into_value())
        };
        prop_assert_eq!(with_threads(1, run_cqa), with_threads(4, run_cqa));

        let run_repairs = || {
            let budget = Budget::steps(steps);
            let out = cqa_core::s_repairs_budgeted(&base, &sigma, &RepairOptions::default(), &budget)
                .unwrap();
            let exact = out.is_exact();
            let deltas: Vec<_> = out.into_value().iter().map(|r| r.delta().clone()).collect();
            (exact, deltas)
        };
        prop_assert_eq!(with_threads(1, run_repairs), with_threads(4, run_repairs));
    }
}
