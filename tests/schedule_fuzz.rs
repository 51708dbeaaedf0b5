//! Schedule-perturbation fuzzing: the dynamic half of the workspace audit
//! (F17). The static rules (L001–L005) argue determinism from the shape of
//! the code; this suite *attacks* it — `cqa_exec::with_schedule_seed` arms
//! seeded yield/spin jitter before every pool cursor claim and seeded
//! steal-order shuffling in the branch queue, and each of the four parallel
//! hot paths (CQA folds, hitting-set search, grounding, responsibility)
//! must return byte-identical results across 16 perturbed 4-thread
//! schedules, the unperturbed 4-thread schedule, and the sequential
//! reference. Budgeted variants assert full `Outcome` equality, truncation
//! included.
//!
//! Run with: `cargo test --features schedule-fuzz --test schedule_fuzz`
#![cfg(feature = "schedule-fuzz")]

use cqa_constraints::components::PAR_MIN_EDGES;
use cqa_constraints::{ConflictHypergraph, ConstraintSet, KeyConstraint};
use cqa_core::{RepairClass, RepairOptions};
use cqa_exec::{with_schedule_seed, with_threads, Budget};
use cqa_query::{parse_query, UnionQuery};
use cqa_relation::{tuple, Database, RelationSchema, Tid};
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::sync::Arc;

const SEEDS: std::ops::RangeInclusive<u64> = 1..=16;

/// Assert `f` is schedule-independent: the unperturbed 4-thread run must
/// equal the sequential reference and every seeded 4-thread run.
fn assert_schedule_invariant<R: PartialEq + Debug>(label: &str, f: impl Fn() -> R) {
    let reference = with_threads(1, &f);
    let baseline = with_threads(4, &f);
    assert_eq!(baseline, reference, "{label}: 4 threads vs sequential");
    for seed in SEEDS {
        let got = with_schedule_seed(seed, || with_threads(4, &f));
        assert_eq!(got, baseline, "{label}: seed={seed}");
    }
}

/// The shared inconsistent instance: `T(K, V)` under `key T(K)` with mixed
/// group sizes, so repair enumeration has real breadth (2·3·2·3·2 = 72
/// subset repairs) and certain answers quantify over all of them.
fn key_instance() -> (Database, ConstraintSet) {
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("T", ["K", "V"]))
        .unwrap();
    for (k, size) in [2, 3, 2, 3, 2, 1, 1].into_iter().enumerate() {
        for v in 0..size {
            db.insert("T", tuple![k as i64, v as i64]).unwrap();
        }
    }
    let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
    (db, sigma)
}

/// One key group of four rows plus two clean rows: a single conflict
/// component, which the budgeted reads fold as a product of one factor.
fn one_component_instance() -> (Database, ConstraintSet) {
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("T", ["K", "V"]))
        .unwrap();
    for (k, v) in [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (2, 0)] {
        db.insert("T", tuple![k, v]).unwrap();
    }
    let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
    (db, sigma)
}

/// A hypergraph whose hitting-set search tree has enough branches for the
/// queue to shuffle: 10 vertices, overlapping triples.
fn hypergraph() -> ConflictHypergraph {
    let nodes: BTreeSet<Tid> = (1..=10u64).map(Tid).collect();
    let edges: Vec<BTreeSet<Tid>> = [
        [1u64, 2, 3],
        [3, 4, 5],
        [5, 6, 7],
        [7, 8, 9],
        [9, 10, 1],
        [2, 5, 8],
        [1, 6, 9],
        [4, 8, 10],
    ]
    .into_iter()
    .map(|e| e.into_iter().map(Tid).collect())
    .collect();
    ConflictHypergraph::new(nodes, edges)
}

/// The pooled per-repair driver: certain and possible answers folded over
/// the 72 listed repair views, in chunks on the pool.
#[test]
fn cqa_folds_are_schedule_invariant() {
    let (db, sigma) = key_instance();
    let q = UnionQuery::single(parse_query("Q(k, v) :- T(k, v)").unwrap());
    let repairs = cqa_core::s_repairs(&db, &sigma).unwrap();
    let views: Vec<_> = repairs.iter().map(|r| r.view()).collect();
    assert_eq!(views.len(), 72);
    assert_schedule_invariant("certain_over", || cqa_core::certain_over(&views, &q));
    assert_schedule_invariant("possible_over", || cqa_core::possible_over(&views, &q));
}

#[test]
fn hitting_set_search_is_schedule_invariant() {
    let g = hypergraph();
    assert_schedule_invariant("minimal_hitting_sets", || g.minimal_hitting_sets(None));
    assert_schedule_invariant("minimum_hitting_sets", || g.minimum_hitting_sets());
}

#[test]
fn factored_hitting_set_search_is_schedule_invariant() {
    // Enough two-edge path components to clear PAR_MIN_EDGES, so the
    // per-component searches run on the pool.
    let n = PAR_MIN_EDGES as u64 / 2 + 1;
    let edges: Vec<BTreeSet<Tid>> = (0..n)
        .flat_map(|i| {
            [[3 * i, 3 * i + 1], [3 * i + 1, 3 * i + 2]]
                .map(|e| e.into_iter().map(Tid).collect::<BTreeSet<Tid>>())
        })
        .collect();
    let g = ConflictHypergraph::new((0..3 * n).map(Tid).collect(), edges);
    let comps = g.components();
    assert_schedule_invariant("minimal_hitting_sets_factored", || {
        comps.minimal_hitting_sets_factored(&Budget::unlimited())
    });
    assert_schedule_invariant("minimum_hitting_sets_factored", || {
        comps.minimum_hitting_sets_factored(&Budget::unlimited())
    });
}

#[test]
fn grounding_is_schedule_invariant() {
    let (db, sigma) = key_instance();
    assert_schedule_invariant("ground", || {
        let mut rp = cqa_asp::RepairProgram::build(&db, &sigma).unwrap();
        rp.add_c_repair_weak_constraints();
        let g = rp.ground().unwrap();
        // GroundProgram has no PartialEq; identical interning is part of
        // the contract, so compare the tables field by field.
        (g.rules.clone(), g.weak.clone(), g.atom_table.clone())
    });
}

#[test]
fn responsibility_is_schedule_invariant() {
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("R", ["A", "B"]))
        .unwrap();
    db.create_relation(RelationSchema::new("S", ["A"])).unwrap();
    for (a, b) in [(4, 3), (2, 1), (3, 3), (1, 4), (3, 2), (2, 4), (4, 1)] {
        db.insert("R", tuple![a, b]).unwrap();
    }
    for a in [4, 2, 3, 1] {
        db.insert("S", tuple![a]).unwrap();
    }
    let q = UnionQuery::single(parse_query("Q() :- S(x), R(x, y), S(y)").unwrap());
    assert_schedule_invariant("actual_causes", || cqa_causality::actual_causes(&db, &q));
}

// ---------------------------------------------------------------------------
// Budgeted variants: a Truncated outcome — including *which* prefix of the
// search got explored — must be identical under every perturbed schedule.
// Each closure builds a fresh Budget because budgets latch.
// ---------------------------------------------------------------------------

/// Step budgets chosen to cover hard truncation, mid-search truncation,
/// and comfortable completion.
const STEP_BUDGETS: [u64; 4] = [3, 37, 311, 1_000_000];

#[test]
fn truncated_repair_enumeration_is_schedule_invariant() {
    let (db, sigma) = key_instance();
    let base = Arc::new(db);
    let mut saw_truncated = false;
    for steps in STEP_BUDGETS {
        assert_schedule_invariant(&format!("s_repairs steps={steps}"), || {
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
        let probe = Budget::steps(steps);
        saw_truncated |=
            cqa_core::s_repairs_budgeted(&base, &sigma, &RepairOptions::default(), &probe)
                .unwrap()
                .truncation()
                .is_some();
    }
    assert!(
        saw_truncated,
        "no budget actually truncated — weaken STEP_BUDGETS"
    );
}

#[test]
fn truncated_cqa_is_schedule_invariant() {
    let (db, sigma) = key_instance();
    let q = UnionQuery::single(parse_query("Q(k) :- T(k, v)").unwrap());
    let class = RepairClass::Subset;
    for steps in STEP_BUDGETS {
        assert_schedule_invariant(&format!("consistent_answers steps={steps}"), || {
            let budget = Budget::steps(steps);
            let out =
                cqa_core::consistent_answers_budgeted(&db, &sigma, &q, &class, &budget).unwrap();
            (out.truncation(), out.into_value())
        });
    }
    // A single conflict component takes the same factored reads.
    let (db, sigma) = one_component_instance();
    let rows = UnionQuery::single(parse_query("Q(k, v) :- T(k, v)").unwrap());
    for class in [RepairClass::Subset, RepairClass::Cardinality] {
        for steps in STEP_BUDGETS {
            let label = format!("one component, {class:?}, steps={steps}");
            assert_schedule_invariant(&format!("consistent_answers {label}"), || {
                let budget = Budget::steps(steps);
                cqa_core::consistent_answers_budgeted(&db, &sigma, &rows, &class, &budget).unwrap()
            });
            assert_schedule_invariant(&format!("possible_answers {label}"), || {
                let budget = Budget::steps(steps);
                cqa_core::possible_answers_budgeted(&db, &sigma, &rows, &class, &budget).unwrap()
            });
        }
        for text in ["Q() :- T(1, v)", "Q() :- T(0, 2)"] {
            let boolean = UnionQuery::single(parse_query(text).unwrap());
            assert_schedule_invariant(&format!("certainly_true {text}, {class:?}"), || {
                cqa_core::certainly_true(&db, &sigma, &boolean, &class).unwrap()
            });
        }
    }
}

#[test]
fn truncated_hitting_set_search_is_schedule_invariant() {
    let g = hypergraph();
    for steps in STEP_BUDGETS {
        assert_schedule_invariant(&format!("minimal_hitting_sets steps={steps}"), || {
            let budget = Budget::steps(steps);
            let out = g.minimal_hitting_sets_budgeted(None, &budget);
            (out.truncation(), out.into_value())
        });
    }
}

#[test]
fn truncated_responsibility_is_schedule_invariant() {
    let (db, _) = key_instance();
    let q = UnionQuery::single(parse_query("Q() :- T(x, y), T(x, z), y != z").unwrap());
    for steps in STEP_BUDGETS {
        assert_schedule_invariant(&format!("actual_causes steps={steps}"), || {
            let budget = Budget::steps(steps);
            let out = cqa_causality::actual_causes_budgeted(&db, &q, &budget);
            (out.truncation(), out.into_value())
        });
    }
}
