//! Property tests for delta-driven incremental maintenance (PR 8).
//!
//! The contract under test: after ANY sequence of inserts, deletes and
//! in-place updates, a delta-maintained [`IncrementalState`] is
//! **byte-identical** to recompute-from-scratch — same violation sets, same
//! canonical hyper-graph edge order, same component factorization and
//! frozen core — and the incremental planner returns the same consistent
//! answers as the batch planner. This must hold at any thread count and
//! under arbitrary step budgets (a budget that latches mid-delta falls back
//! to a full recompute, never to truncated state).

use cqa_constraints::{Constraint, ConstraintSet, DenialConstraint, KeyConstraint};
use cqa_core::{
    answer_consistently, answer_consistently_incremental, IncrementalState, MaintenanceDecision,
};
use cqa_exec::{with_threads, Budget};
use cqa_relation::{tuple, Database, RelationSchema, Tid, Value};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One random mutation. Tid-valued operations select from the instance's
/// live tids by index so delete/update stay meaningful as the instance
/// shrinks and grows.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    Delete(usize),
    Update(usize, usize, i64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Keys collide often (0..6) so violations appear and disappear.
        ((0i64..6), (0i64..12)).prop_map(|(k, v)| Op::Insert(k, v)),
        (0usize..64).prop_map(Op::Delete),
        ((0usize..64), (0usize..2), (0i64..12)).prop_map(|(s, c, v)| Op::Update(s, c, v)),
    ]
}

fn apply(db: &mut Database, op: &Op) {
    match op {
        Op::Insert(k, v) => {
            db.insert("T", tuple![*k, *v]).unwrap();
        }
        Op::Delete(sel) => {
            let tids: Vec<Tid> = db.tids().into_iter().collect();
            if let Some(&t) = tids.get(sel % tids.len().max(1)) {
                db.delete(t).unwrap();
            }
        }
        Op::Update(sel, col, val) => {
            let tids: Vec<Tid> = db.tids().into_iter().collect();
            if let Some(&t) = tids.get(sel % tids.len().max(1)) {
                db.update_value(t, col % 2, Value::int(*val)).unwrap();
            }
        }
    }
}

fn initial() -> (Database, ConstraintSet) {
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("T", ["K", "V"]))
        .unwrap();
    for (k, v) in [(0, 1), (1, 2), (2, 3)] {
        db.insert("T", tuple![k, v]).unwrap();
    }
    // A key (a two-atom body) plus a comparison denial (a one-atom body):
    // the pinned delta join runs on both shapes every step.
    let sigma = ConstraintSet::from_iter([
        Constraint::Key(KeyConstraint::new("T", ["K"])),
        Constraint::Denial(DenialConstraint::parse("big", "T(k, v), v > 10").unwrap()),
    ]);
    (db, sigma)
}

/// Maintained state must equal a from-scratch build, byte for byte.
fn assert_identical(state: &IncrementalState, db: &Database, sigma: &ConstraintSet) {
    let scratch = IncrementalState::new(db, sigma).unwrap();
    assert_eq!(state.violations(), scratch.violations());
    assert!(
        state.graph() == scratch.graph(),
        "maintained graph diverged from scratch:\n  maintained: {:?}\n  scratch: {:?}",
        state.graph(),
        scratch.graph()
    );
    assert_eq!(*state.components(), *scratch.components());
    assert_eq!(state.epoch(), db.epoch());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random mutation batches, refreshed under a random step budget, at 1
    /// and 4 threads: maintained state ≡ scratch after every refresh, and
    /// the full run (violations + decisions + answers) is thread-invariant.
    #[test]
    fn incremental_state_matches_scratch_under_mutations(
        batches in vec(vec(arb_op(), 1..5), 1..7),
        steps in 1u64..400,
    ) {
        let query = cqa_query::parse_ucq("Q(k, v) :- T(k, v)").unwrap();
        let run = |threads: usize| {
            with_threads(threads, || {
                let (mut db, sigma) = initial();
                let mut state = IncrementalState::new(&db, &sigma).unwrap();
                let mut trace = Vec::new();
                for batch in &batches {
                    for op in batch {
                        apply(&mut db, op);
                    }
                    let budget = Budget::steps(steps);
                    let decision = state.refresh_budgeted(&db, &sigma, &budget).unwrap().clone();
                    // Byte-identity against recompute-from-scratch, every step.
                    assert_identical(&state, &db, &sigma);
                    trace.push((state.violations().clone(), decision));
                }
                trace
            })
        };
        prop_assert_eq!(run(1), run(4));

        // The incremental planner agrees with the batch planner on the
        // final instance (exercising the planner's own refresh path).
        let answers = |threads: usize| {
            with_threads(threads, || {
                let (mut db, sigma) = initial();
                let mut state = IncrementalState::new(&db, &sigma).unwrap();
                for op in batches.iter().flatten() {
                    apply(&mut db, op);
                }
                let q = query.clone();
                let incr = answer_consistently_incremental(
                    &db, &sigma, &q, &mut state, &Budget::unlimited(),
                )
                .unwrap()
                .into_value();
                let batch = answer_consistently(&db, &sigma, &q).unwrap();
                (incr.answers, batch.answers)
            })
        };
        let (incr, batch) = answers(1);
        prop_assert_eq!(&incr, &batch);
        let (incr4, batch4) = answers(4);
        prop_assert_eq!(&incr4, &batch4);
        prop_assert_eq!(incr, incr4);
    }

    /// Deleting every tuple (and re-inserting some) keeps the maintained
    /// node set, frozen core and components exact.
    #[test]
    fn drain_and_refill_stays_exact(refill in vec((0i64..4, 0i64..12), 0..6)) {
        let (mut db, sigma) = initial();
        let mut state = IncrementalState::new(&db, &sigma).unwrap();
        for t in db.tids() {
            db.delete(t).unwrap();
        }
        state.refresh(&db, &sigma).unwrap();
        assert_identical(&state, &db, &sigma);
        prop_assert!(state.is_consistent());
        for (k, v) in &refill {
            db.insert("T", tuple![*k, *v]).unwrap();
        }
        state.refresh(&db, &sigma).unwrap();
        assert_identical(&state, &db, &sigma);
    }
}

/// Overflowing the bounded change log compacts old entries away; a state
/// cached before the retained window must take the full-recompute path and
/// still end up exact.
#[test]
fn log_compaction_falls_back_to_exact_recompute() {
    let (mut db, sigma) = initial();
    let mut state = IncrementalState::new(&db, &sigma).unwrap();
    // Distinct tuples (set semantics would swallow duplicates without
    // bumping the epoch): enough real changes to overflow the bounded log.
    for i in 0..(2 * cqa_relation::changes::DEFAULT_LOG_CAPACITY as i64 + 16) {
        db.insert("T", tuple![i + 100, i % 7]).unwrap();
    }
    match state.refresh(&db, &sigma).unwrap() {
        MaintenanceDecision::Recompute { .. } => {}
        other => panic!("expected recompute after log compaction, got {other:?}"),
    }
    assert_identical(&state, &db, &sigma);
}

/// A zero-step budget latches on the first logged change: the refresh must
/// discard the partial delta and recompute exactly.
#[test]
fn exhausted_budget_never_leaves_partial_state() {
    let (mut db, sigma) = initial();
    let mut state = IncrementalState::new(&db, &sigma).unwrap();
    db.insert("T", tuple![0, 7]).unwrap();
    db.insert("T", tuple![1, 8]).unwrap();
    match state
        .refresh_budgeted(&db, &sigma, &Budget::steps(1))
        .unwrap()
    {
        MaintenanceDecision::Recompute { reason } => {
            assert!(reason.contains("budget"), "reason: {reason}");
        }
        other => panic!("expected budget fallback, got {other:?}"),
    }
    assert_identical(&state, &db, &sigma);
}

/// Unused-import guard: `BTreeSet` backs the shared `assert_identical`
/// comparisons through the public accessors.
#[test]
fn violations_are_canonical_sets() {
    let (mut db, sigma) = initial();
    db.insert("T", tuple![0, 5]).unwrap();
    let state = IncrementalState::new(&db, &sigma).unwrap();
    let expect: BTreeSet<BTreeSet<Tid>> = [[Tid(1), Tid(4)].into()].into();
    assert_eq!(state.violations(), &expect);
}
