//! The cqa-exec determinism contract, property-tested: every parallelized
//! entry point returns byte-identical results at any thread count. Each
//! property runs the same computation under `with_threads(1)` (the exact
//! sequential code path), `with_threads(2)` and `with_threads(8)` and
//! asserts equality — on random instances, so scheduling races that leak
//! into results would surface as shrunk counterexamples.

use cqa_constraints::{ConflictHypergraph, ConstraintSet, DenialConstraint, KeyConstraint};
use cqa_exec::with_threads;
use cqa_query::{parse_query, UnionQuery};
use cqa_relation::{tuple, Database, RelationSchema, Tid};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Run `f` at 1, 2 and 8 threads and return the three results.
fn at_thread_counts<R>(f: impl Fn() -> R) -> [R; 3] {
    [
        with_threads(1, &f),
        with_threads(2, &f),
        with_threads(8, &f),
    ]
}

/// A `T(K, V)` instance with key-group conflicts: `groups` maps each key to
/// its value count (size ≥ 2 means a violation of `key T(K)`).
fn key_instance(groups: &[u8]) -> (Database, ConstraintSet) {
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("T", ["K", "V"]))
        .unwrap();
    for (k, &size) in groups.iter().enumerate() {
        for v in 0..size.max(1) {
            db.insert("T", tuple![k as i64, v as i64]).unwrap();
        }
    }
    let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
    (db, sigma)
}

/// Random small hypergraphs (same shape as tests/property_invariants.rs).
fn arb_hypergraph() -> impl Strategy<Value = ConflictHypergraph> {
    (
        2usize..8,
        proptest::collection::vec(proptest::collection::btree_set(1u64..8, 1..4), 0..8),
    )
        .prop_map(|(n, edges)| {
            let nodes: BTreeSet<Tid> = (1..=n as u64).map(Tid).collect();
            let edges: Vec<BTreeSet<Tid>> = edges
                .into_iter()
                .map(|e| {
                    e.into_iter()
                        .filter(|v| *v <= n as u64)
                        .map(Tid)
                        .collect::<BTreeSet<Tid>>()
                })
                .filter(|e: &BTreeSet<Tid>| !e.is_empty())
                .collect();
            ConflictHypergraph::new(nodes, edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn certain_and_possible_answers_are_thread_count_invariant(
        groups in proptest::collection::vec(1u8..4, 1..6),
    ) {
        let (db, sigma) = key_instance(&groups);
        let instances: Vec<Database> = cqa_core::s_repairs(&db, &sigma)
            .unwrap()
            .into_iter()
            .map(|r| r.into_db())
            .collect();
        let q = UnionQuery::single(parse_query("Q(k, v) :- T(k, v)").unwrap());
        let [a, b, c] = at_thread_counts(|| cqa_core::certain_over(&instances, &q));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
        let [a, b, c] = at_thread_counts(|| cqa_core::possible_over(&instances, &q));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
        let class = cqa_core::RepairClass::Subset;
        let qb = UnionQuery::single(parse_query("Q() :- T(k, k)").unwrap());
        let [a, b, c] =
            at_thread_counts(|| cqa_core::certainly_true(&db, &sigma, &qb, &class).unwrap());
        prop_assert_eq!(a, b);
        prop_assert_eq!(a, c);
    }

    #[test]
    fn hitting_set_search_is_thread_count_invariant(g in arb_hypergraph()) {
        let [a, b, c] = at_thread_counts(|| g.minimal_hitting_sets(None));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
        let [a, b, c] = at_thread_counts(|| g.minimum_hitting_set_size());
        prop_assert_eq!(a, b);
        prop_assert_eq!(a, c);
        let [a, b, c] = at_thread_counts(|| g.minimum_hitting_set());
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
        let [a, b, c] = at_thread_counts(|| g.minimum_hitting_sets());
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    #[test]
    fn grounding_is_thread_count_invariant(groups in proptest::collection::vec(1u8..4, 1..5)) {
        let (db, sigma) = key_instance(&groups);
        let [a, b, c] = at_thread_counts(|| {
            let mut rp = cqa_asp::RepairProgram::build(&db, &sigma).unwrap();
            rp.add_c_repair_weak_constraints();
            rp.ground().unwrap()
        });
        // GroundProgram has no PartialEq; identical numbering is part of the
        // contract, so compare the interned tables field-by-field.
        for other in [&b, &c] {
            prop_assert_eq!(&a.rules, &other.rules);
            prop_assert_eq!(&a.weak, &other.weak);
            prop_assert_eq!(&a.atom_table, &other.atom_table);
        }
    }

    #[test]
    fn repair_enumeration_is_thread_count_invariant(
        groups in proptest::collection::vec(1u8..4, 1..5),
    ) {
        let (db, sigma) = key_instance(&groups);
        let [a, b, c] = at_thread_counts(|| {
            cqa_core::s_repairs(&db, &sigma)
                .unwrap()
                .into_iter()
                .map(|r| (r.deleted, r.inserted))
                .collect::<Vec<_>>()
        });
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }
}

#[test]
fn actual_causes_are_thread_count_invariant() {
    // A denser, fixed instance for the causality path: the Example 3.5
    // κ-scenario plus a wide star.
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("R", ["A", "B"]))
        .unwrap();
    db.create_relation(RelationSchema::new("S", ["A"])).unwrap();
    for (a, b) in [(4, 3), (2, 1), (3, 3), (1, 4), (3, 2)] {
        db.insert("R", tuple![a, b]).unwrap();
    }
    for a in [4, 2, 3, 1] {
        db.insert("S", tuple![a]).unwrap();
    }
    let q = UnionQuery::single(parse_query("Q() :- S(x), R(x, y), S(y)").unwrap());
    let [a, b, c] = at_thread_counts(|| cqa_causality::actual_causes(&db, &q));
    assert_eq!(a, b);
    assert_eq!(a, c);
    assert!(!a.is_empty());
}

#[test]
fn denial_violations_are_thread_count_invariant() {
    // The rank lane is sequential but shares the determinism contract
    // with everything downstream of it.
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("T", ["K", "V"]))
        .unwrap();
    for i in 0..40i64 {
        db.insert("T", tuple![i / 3, i]).unwrap();
    }
    let dc = DenialConstraint::parse("fd", "T(x, y), T(x, z), y != z").unwrap();
    let [a, b, c] = at_thread_counts(|| dc.violations(&db));
    assert_eq!(a, b);
    assert_eq!(a, c);
    assert!(!a.is_empty());
}

// ---------------------------------------------------------------------------
// Truncated runs: the determinism contract extends to budgeted execution.
// A logical budget (steps / items) forces the sequential code paths, so the
// *partial* result — which prefix of the search got explored — is also
// byte-identical at any thread count. Each closure builds a fresh `Budget`
// because budgets latch: a tripped budget stays exhausted forever.
// ---------------------------------------------------------------------------

use cqa_core::RepairOptions;
use cqa_exec::Budget;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn truncated_repair_enumeration_is_thread_count_invariant(
        groups in proptest::collection::vec(2u8..4, 2..6),
        steps in 1u64..400,
    ) {
        let (db, sigma) = key_instance(&groups);
        let base = Arc::new(db);
        let [a, b, c] = at_thread_counts(|| {
            let budget = Budget::steps(steps);
            let out =
                cqa_core::s_repairs_budgeted(&base, &sigma, &RepairOptions::default(), &budget)
                    .unwrap();
            let trunc = out.truncation();
            let repairs: Vec<_> = out
                .into_value()
                .into_iter()
                .map(|r| (r.deleted, r.inserted))
                .collect();
            (trunc, repairs)
        });
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    #[test]
    fn truncated_cqa_is_thread_count_invariant(
        groups in proptest::collection::vec(2u8..4, 2..6),
        steps in 1u64..400,
    ) {
        let (db, sigma) = key_instance(&groups);
        let q = UnionQuery::single(parse_query("Q(k) :- T(k, v)").unwrap());
        let class = cqa_core::RepairClass::Subset;
        let [a, b, c] = at_thread_counts(|| {
            let budget = Budget::steps(steps);
            let out = cqa_core::consistent_answers_budgeted(&db, &sigma, &q, &class, &budget)
                .unwrap();
            (out.truncation(), out.into_value())
        });
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    #[test]
    fn truncated_hitting_set_search_is_thread_count_invariant(
        g in arb_hypergraph(),
        steps in 1u64..200,
    ) {
        let [a, b, c] = at_thread_counts(|| {
            let budget = Budget::steps(steps);
            let out = g.minimal_hitting_sets_budgeted(None, &budget);
            (out.truncation(), out.into_value())
        });
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
        let [a, b, c] = at_thread_counts(|| {
            let budget = Budget::steps(steps);
            let out = g.minimum_hitting_sets_budgeted(&budget);
            (out.truncation(), out.into_value())
        });
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    #[test]
    fn truncated_causes_are_thread_count_invariant(
        groups in proptest::collection::vec(2u8..4, 2..5),
        steps in 1u64..200,
    ) {
        let (db, _) = key_instance(&groups);
        let q = UnionQuery::single(
            parse_query("Q() :- T(x, y), T(x, z), y != z").unwrap(),
        );
        let [a, b, c] = at_thread_counts(|| {
            let budget = Budget::steps(steps);
            let out = cqa_causality::actual_causes_budgeted(&db, &q, &budget);
            (out.truncation(), out.into_value())
        });
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }
}
