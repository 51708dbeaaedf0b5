//! Conflict-component factorization against the per-repair definition,
//! property-tested on random multi-component instances, at 1 and 4
//! threads:
//!
//! * the routed CQA entries, plain and `_budgeted`, which fold per conflict
//!   component (witness slices, or the lazy cross-product when a witness
//!   spans components), equal the certain and possible answers folded over
//!   the listed repairs (`certain_over`/`possible_over` over the views of
//!   `s_repairs`/`c_repairs`), and truncated reads stay on the sound side;
//! * the S- and C-repair listings under an unlimited budget, which expand
//!   the per-component families, equal the same listings under a step
//!   budget, which takes one search over the whole graph;
//! * the component-restricted contingency search equals a brute force over
//!   all deletion subsets.

use cqa_constraints::{ConstraintSet, KeyConstraint};
use cqa_core::{
    c_repairs, c_repairs_budgeted, certain_over, consistent_answers, consistent_answers_budgeted,
    possible_answers, possible_answers_budgeted, possible_over, s_repairs, s_repairs_budgeted,
    s_repairs_with, RepairClass, RepairOptions,
};
use cqa_exec::{with_threads, Budget};
use cqa_query::{holds_ucq, parse_query, parse_ucq, NullSemantics, UnionQuery};
use cqa_relation::{tuple, Database, DeltaView, RelationSchema, Tid, Tuple, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A `T(K, V)` instance with key-group conflicts under `key T(K)`: every key
/// group of size ≥ 2 becomes one connected component of the conflict graph,
/// so `groups` with two or more such entries exercises the factored paths.
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

/// [`key_instance`] with SQL nulls: a flagged group's last row stores a
/// null `V`.
fn key_instance_with_nulls(groups: &[(u8, bool)]) -> (Database, ConstraintSet) {
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("T", ["K", "V"]))
        .unwrap();
    for (k, &(size, null)) in groups.iter().enumerate() {
        let size = size.max(1);
        for v in 0..size {
            let value = if null && v + 1 == size {
                Value::NULL
            } else {
                Value::Int(i64::from(v))
            };
            db.insert("T", Tuple::new([Value::Int(k as i64), value]))
                .unwrap();
        }
    }
    let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
    (db, sigma)
}

/// The query shapes the witness-slice fold must get right.
fn routed_queries() -> Vec<(&'static str, UnionQuery)> {
    let single = |text| UnionQuery::single(parse_query(text).unwrap());
    vec![
        // Answers with a null V are dropped.
        ("projection", single("Q(k, v) :- T(k, v)")),
        ("constant head", single("Q(k, 'tag') :- T(k, v)")),
        ("comparison", single("Q(k) :- T(k, v), v > 0")),
        // Both atoms map to one tuple (v = w) or to two rows of one group.
        ("self-join", single("Q(k, v) :- T(k, v), T(k, w)")),
        // A null V never joins itself, so its row answers nothing here.
        ("null self-join", single("Q(k) :- T(k, v), T(k, v)")),
        // One answer reached through two disjuncts in different repairs.
        (
            "union",
            parse_ucq("Q(k) :- T(k, 0)\nQ(k) :- T(k, v), v >= 1").unwrap(),
        ),
        // Joins on V across keys span components: the lazy-product fold.
        ("spanning", single("Q(x, z) :- T(x, y), T(z, y)")),
    ]
}

/// The comparable core of a repair set: sorted `(deleted, inserted)` deltas.
type Deltas = Vec<(BTreeSet<Tid>, usize)>;

fn deltas(repairs: Vec<cqa_core::Repair>) -> Deltas {
    let mut out: Deltas = repairs
        .into_iter()
        .map(|r| (r.deleted, r.inserted.len()))
        .collect();
    out.sort();
    out
}

/// The S- or C-repair listing under `budget`, which must come back exact.
fn listing(base: &Arc<Database>, sigma: &ConstraintSet, minimum: bool, budget: &Budget) -> Deltas {
    let options = RepairOptions::default();
    let out = if minimum {
        c_repairs_budgeted(base, sigma, &options, budget)
    } else {
        s_repairs_budgeted(base, sigma, &options, budget)
    }
    .unwrap();
    assert!(out.is_exact(), "listing truncated");
    deltas(out.into_value())
}

/// The per-repair fold: certain and possible answers folded over the
/// listed repairs of `class`, one query evaluation per repair.
fn per_repair(
    db: &Database,
    sigma: &ConstraintSet,
    q: &UnionQuery,
    class: &RepairClass,
) -> (BTreeSet<Tuple>, BTreeSet<Tuple>) {
    let repairs = match class {
        RepairClass::Cardinality => c_repairs(db, sigma),
        RepairClass::SubsetDeletionsOnly => {
            s_repairs_with(db, sigma, &RepairOptions::deletions_only())
        }
        _ => s_repairs(db, sigma),
    }
    .unwrap();
    let views: Vec<DeltaView<'_>> = repairs.iter().map(|r| r.view()).collect();
    (certain_over(&views, q), possible_over(&views, q))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The listings under an unlimited budget expand the per-component
    /// families; under a step budget they take one search over the whole
    /// graph. Both give the same S- and C-repairs, at 1 and 4 threads.
    #[test]
    fn factored_repair_sets_match_the_sequential_search(
        groups in proptest::collection::vec(1u8..4, 1..6),
    ) {
        let (db, sigma) = key_instance(&groups);
        let base = Arc::new(db);
        let whole_graph = Budget::steps(1_000_000);
        for minimum in [false, true] {
            let searched = listing(&base, &sigma, minimum, &whole_graph);
            for threads in [1, 4] {
                let expanded =
                    with_threads(threads, || listing(&base, &sigma, minimum, &Budget::unlimited()));
                prop_assert_eq!(
                    &expanded,
                    &searched,
                    "{} at {} thread(s)",
                    if minimum { "C-repairs" } else { "S-repairs" },
                    threads
                );
            }
        }
    }

    /// The routed certain/possible entries, plain and budgeted, agree with
    /// the per-repair fold over the listed repairs, for both repair
    /// classes, for per-component *and* spanning (self-join) queries, at 1
    /// and 4 threads.
    #[test]
    fn factored_cqa_matches_the_monolithic_fold(
        groups in proptest::collection::vec(1u8..4, 1..6),
    ) {
        let (db, sigma) = key_instance(&groups);
        let queries = [
            UnionQuery::single(parse_query("Q(k, v) :- T(k, v)").unwrap()),
            UnionQuery::single(parse_query("Q(k) :- T(k, v)").unwrap()),
            // Joins on V across keys: witnesses span components, which must
            // route the fold through the lazy cross-product.
            UnionQuery::single(parse_query("Q(x, z) :- T(x, y), T(z, y)").unwrap()),
        ];
        for class in [RepairClass::Subset, RepairClass::Cardinality] {
            for q in &queries {
                let want = per_repair(&db, &sigma, q, &class);
                for threads in [1, 4] {
                    let (plain, budgeted) = with_threads(threads, || {
                        let plain = (
                            consistent_answers(&db, &sigma, q, &class).unwrap(),
                            possible_answers(&db, &sigma, q, &class).unwrap(),
                        );
                        let unlimited = Budget::unlimited;
                        let c = consistent_answers_budgeted(&db, &sigma, q, &class, &unlimited())
                            .unwrap();
                        let p = possible_answers_budgeted(&db, &sigma, q, &class, &unlimited())
                            .unwrap();
                        prop_assert!(c.is_exact() && p.is_exact());
                        Ok((plain, (c.into_value(), p.into_value())))
                    })?;
                    prop_assert_eq!(&plain, &want);
                    prop_assert_eq!(&budgeted, &want);
                }
            }
        }
    }

    /// Under a random step budget the routed folds stay deterministic
    /// across thread counts, and degrade to the documented sound bounds for
    /// monotone queries: truncated certain ⊆ exact certain and truncated
    /// possible ⊇ exact possible.
    #[test]
    fn truncated_factored_cqa_is_deterministic_and_sound(
        groups in proptest::collection::vec(2u8..4, 2..5),
        steps in 1u64..300,
    ) {
        let (db, sigma) = key_instance(&groups);
        let q = UnionQuery::single(parse_query("Q(k) :- T(k, v)").unwrap());
        let class = RepairClass::Subset;
        let run = |threads: usize| {
            with_threads(threads, || {
                let budget = Budget::steps(steps);
                let c = consistent_answers_budgeted(&db, &sigma, &q, &class, &budget).unwrap();
                let budget = Budget::steps(steps);
                let p = possible_answers_budgeted(&db, &sigma, &q, &class, &budget).unwrap();
                (
                    c.truncation().is_some(),
                    c.into_value(),
                    p.truncation().is_some(),
                    p.into_value(),
                )
            })
        };
        let (a, b) = (run(1), run(4));
        prop_assert_eq!(&a, &b);
        let (exact_certain, exact_possible) = per_repair(&db, &sigma, &q, &class);
        let (c_trunc, certain, p_trunc, possible) = a;
        if c_trunc {
            prop_assert!(certain.is_subset(&exact_certain));
        } else {
            prop_assert_eq!(&certain, &exact_certain);
        }
        if p_trunc {
            prop_assert!(possible.is_superset(&exact_possible));
        } else {
            prop_assert_eq!(&possible, &exact_possible);
        }
    }

    /// The routed entries equal the per-repair fold over the listed repairs
    /// whenever they come back exact, for every deletion-based class, under
    /// unlimited, deadline and step budgets, at 1 and 4 threads; truncated
    /// answers stay on the sound side (every query here is monotone and
    /// every class deletion-only).
    #[test]
    fn routed_budgeted_entries_match_the_monolithic_reference(
        groups in proptest::collection::vec((1u8..4, any::<bool>()), 1..5),
        steps in 1u64..400,
    ) {
        let (db, sigma) = key_instance_with_nulls(&groups);
        let budget = |kind: &str| match kind {
            "deadline" => Budget::deadline_ms(60_000),
            "expired deadline" => Budget::deadline_ms(0),
            "steps" => Budget::steps(steps),
            _ => Budget::unlimited(),
        };
        for class in [
            RepairClass::Subset,
            RepairClass::SubsetDeletionsOnly,
            RepairClass::Cardinality,
        ] {
            for (shape, q) in routed_queries() {
                let (certain, possible) = per_repair(&db, &sigma, &q, &class);
                prop_assert!(certain.is_subset(&possible));
                prop_assert!(possible.iter().all(|t| !t.has_null()), "{} kept a null", shape);
                for threads in [1, 4] {
                    let plain = with_threads(threads, || {
                        (
                            consistent_answers(&db, &sigma, &q, &class).unwrap(),
                            possible_answers(&db, &sigma, &q, &class).unwrap(),
                        )
                    });
                    let context = format!("{shape}, {class:?}, {threads} thread(s)");
                    prop_assert_eq!(&plain.0, &certain, "plain certain: {}", context);
                    prop_assert_eq!(&plain.1, &possible, "plain possible: {}", context);
                    for name in ["unlimited", "deadline", "expired deadline", "steps"] {
                        let (c, p) = with_threads(threads, || {
                            let c = consistent_answers_budgeted(
                                &db, &sigma, &q, &class, &budget(name),
                            )
                            .unwrap();
                            let p = possible_answers_budgeted(
                                &db, &sigma, &q, &class, &budget(name),
                            )
                            .unwrap();
                            (c, p)
                        });
                        let context = format!("{shape}, {class:?}, {name}, {threads} thread(s)");
                        if c.is_exact() {
                            prop_assert_eq!(c.value(), &certain, "certain: {}", context);
                        } else {
                            prop_assert!(c.value().is_subset(&certain), "certain: {}", context);
                        }
                        if p.is_exact() {
                            prop_assert_eq!(p.value(), &possible, "possible: {}", context);
                        } else {
                            prop_assert!(p.value().is_superset(&possible), "possible: {}", context);
                        }
                    }
                }
            }
        }
    }

    /// The component-restricted contingency search reports the same
    /// responsibilities as a brute-force search over *all* deletion subsets,
    /// and its witness Γ is a genuine minimum contingency set. Byte-level
    /// cause lists also agree between 1 and 4 threads.
    #[test]
    fn factored_responsibilities_match_brute_force(
        groups in proptest::collection::vec(1u8..4, 1..5),
    ) {
        let (db, _) = key_instance(&groups);
        // "Some key is violated": witnesses are pairs inside one key group,
        // so each size-≥2 group is one component of the support hyper-graph.
        let q = UnionQuery::single(parse_query("Q() :- T(x, y), T(x, z), y != z").unwrap());
        let causes_1 = with_threads(1, || cqa_causality::actual_causes(&db, &q));
        let causes_4 = with_threads(4, || cqa_causality::actual_causes(&db, &q));
        prop_assert_eq!(&causes_1, &causes_4);
        let tids: Vec<Tid> = db.tids().into_iter().collect();
        for &tid in &tids {
            let (rho, gamma) = cqa_causality::responsibility(&db, &q, tid);
            let oracle = brute_force_responsibility(&db, &q, &tids, tid);
            prop_assert!(
                (rho - oracle).abs() < 1e-12,
                "responsibility of {:?}: factored {} vs brute force {}",
                tid, rho, oracle,
            );
            if rho > 0.0 {
                // Γ itself must witness ρ: |Γ| matches, Q survives deleting
                // Γ, and additionally deleting `tid` refutes Q.
                prop_assert!((rho - 1.0 / (1.0 + gamma.len() as f64)).abs() < 1e-12);
                prop_assert!(!gamma.contains(&tid));
                prop_assert!(holds_without(&db, &q, &gamma));
                let mut and_tid = gamma.clone();
                and_tid.insert(tid);
                prop_assert!(!holds_without(&db, &q, &and_tid));
            }
            let listed = causes_1.iter().find(|c| c.tid == tid);
            match listed {
                Some(c) => prop_assert!((c.responsibility - rho).abs() < 1e-12),
                None => prop_assert!(rho == 0.0),
            }
        }
    }
}

fn holds_without(db: &Database, q: &UnionQuery, deleted: &BTreeSet<Tid>) -> bool {
    holds_ucq(
        &DeltaView::new(db, deleted, &[]),
        q,
        NullSemantics::Structural,
    )
}

/// Brute-force responsibility: the exact minimum over *every* Γ ⊆ D ∖ {tid},
/// with no component reasoning at all.
fn brute_force_responsibility(db: &Database, q: &UnionQuery, tids: &[Tid], tid: Tid) -> f64 {
    let others: Vec<Tid> = tids.iter().copied().filter(|t| *t != tid).collect();
    let mut best: Option<usize> = None;
    for mask in 0u32..(1u32 << others.len()) {
        let size = mask.count_ones() as usize;
        if best.is_some_and(|b| size >= b) {
            continue;
        }
        let gamma: BTreeSet<Tid> = others
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, t)| *t)
            .collect();
        if !holds_without(db, q, &gamma) {
            continue;
        }
        let mut and_tid = gamma.clone();
        and_tid.insert(tid);
        if !holds_without(db, q, &and_tid) {
            best = Some(size);
        }
    }
    best.map_or(0.0, |b| 1.0 / (1.0 + b as f64))
}
