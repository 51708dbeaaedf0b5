//! Conflict-component factorization equivalence, property-tested: the
//! factored code paths (per-component hitting-set search, lazy cross-product
//! expansion, component-wise certain/possible folds, component-restricted
//! contingency search) must be *byte-identical* to the monolithic ones on
//! random multi-component instances — at 1 and 4 threads, and sound under
//! random step budgets. The monolithic oracle is obtained by forcing the
//! legacy sequential search (a step budget disables the factored gate) or by
//! brute force over all deletion subsets.

use cqa_constraints::{ConstraintSet, KeyConstraint};
use cqa_core::{
    consistent_answers, consistent_answers_budgeted, consistent_answers_factored_budgeted,
    factored_c_repairs_budgeted, factored_s_repairs_budgeted, possible_answers,
    possible_answers_budgeted, possible_answers_factored_budgeted, RepairClass, RepairOptions,
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

/// The monolithic S-repair oracle: a generous *step* budget forces the
/// sequential depth-first search, bypassing the factored gate entirely.
fn monolithic_s_repairs(base: &Arc<Database>, sigma: &ConstraintSet) -> Deltas {
    let budget = Budget::steps(1_000_000);
    let out =
        cqa_core::s_repairs_budgeted(base, sigma, &RepairOptions::default(), &budget).unwrap();
    assert!(
        out.truncation().is_none(),
        "oracle budget too small for the sequential search"
    );
    deltas(out.into_value())
}

fn monolithic_c_repairs(base: &Arc<Database>, sigma: &ConstraintSet) -> Deltas {
    let budget = Budget::steps(1_000_000);
    let out =
        cqa_core::c_repairs_budgeted(base, sigma, &RepairOptions::default(), &budget).unwrap();
    assert!(out.truncation().is_none());
    deltas(out.into_value())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Factored enumeration expands to exactly the sequential repair sets,
    /// at 1 and 4 threads.
    #[test]
    fn factored_repair_sets_match_the_sequential_search(
        groups in proptest::collection::vec(1u8..4, 1..6),
    ) {
        let (db, sigma) = key_instance(&groups);
        let base = Arc::new(db);
        let mono_s = monolithic_s_repairs(&base, &sigma);
        let mono_c = monolithic_c_repairs(&base, &sigma);
        for threads in [1, 4] {
            let fact_s = with_threads(threads, || {
                let out = factored_s_repairs_budgeted(&base, &sigma, &Budget::unlimited())
                    .unwrap()
                    .expect("key constraints are denial-class");
                prop_assert!(out.truncation().is_none());
                Ok(deltas(out.into_value().expand().unwrap()))
            })?;
            prop_assert_eq!(&fact_s, &mono_s, "S-repairs at {} thread(s)", threads);
            let fact_c = with_threads(threads, || {
                let out = factored_c_repairs_budgeted(&base, &sigma, &Budget::unlimited())
                    .unwrap()
                    .expect("key constraints are denial-class");
                prop_assert!(out.truncation().is_none());
                Ok(deltas(out.into_value().expand().unwrap()))
            })?;
            prop_assert_eq!(&fact_c, &mono_c, "C-repairs at {} thread(s)", threads);
        }
    }

    /// Truncated factored enumeration stays deterministic across thread
    /// counts and never invents repairs: the partial expansion is a subset of
    /// the full sequential repair set.
    #[test]
    fn truncated_factored_enumeration_is_deterministic_and_sound(
        groups in proptest::collection::vec(2u8..4, 2..5),
        steps in 1u64..200,
    ) {
        let (db, sigma) = key_instance(&groups);
        let base = Arc::new(db);
        let run = |threads: usize| {
            with_threads(threads, || {
                let budget = Budget::steps(steps);
                let out = factored_s_repairs_budgeted(&base, &sigma, &budget)
                    .unwrap()
                    .expect("key constraints are denial-class");
                let truncated = out.truncation().is_some();
                (truncated, deltas(out.into_value().expand().unwrap()))
            })
        };
        let (a, b) = (run(1), run(4));
        prop_assert_eq!(&a, &b);
        let mono = monolithic_s_repairs(&base, &sigma);
        let mono: BTreeSet<_> = mono.into_iter().collect();
        for delta in &a.1 {
            prop_assert!(mono.contains(delta), "truncated expansion invented {:?}", delta);
        }
        if !a.0 {
            prop_assert_eq!(a.1.len(), mono.len());
        }
    }

    /// The component-wise certain/possible folds agree with the monolithic
    /// fold over the full repair set, for both repair classes, for
    /// per-component *and* spanning (self-join) queries, at 1 and 4 threads.
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
                let mono_certain = consistent_answers(&db, &sigma, q, &class).unwrap();
                let mono_possible = possible_answers(&db, &sigma, q, &class).unwrap();
                for threads in [1, 4] {
                    let (certain, possible) = with_threads(threads, || {
                        let c = consistent_answers_factored_budgeted(
                            &db, &sigma, q, &class, &Budget::unlimited(),
                        )
                        .unwrap()
                        .expect("denial-class, deletion-based");
                        let p = possible_answers_factored_budgeted(
                            &db, &sigma, q, &class, &Budget::unlimited(),
                        )
                        .unwrap()
                        .expect("denial-class, deletion-based");
                        prop_assert!(c.truncation().is_none());
                        prop_assert!(p.truncation().is_none());
                        Ok((c.into_value().0, p.into_value().0))
                    })?;
                    prop_assert_eq!(&certain, &mono_certain);
                    prop_assert_eq!(&possible, &mono_possible);
                }
            }
        }
    }

    /// Under a random step budget the factored folds stay deterministic
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
                let c = consistent_answers_factored_budgeted(&db, &sigma, &q, &class, &budget)
                    .unwrap()
                    .expect("denial-class, deletion-based");
                let budget = Budget::steps(steps);
                let p = possible_answers_factored_budgeted(&db, &sigma, &q, &class, &budget)
                    .unwrap()
                    .expect("denial-class, deletion-based");
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
        let exact_certain = consistent_answers(&db, &sigma, &q, &class).unwrap();
        let exact_possible = possible_answers(&db, &sigma, &q, &class).unwrap();
        let (c_trunc, (certain, _), p_trunc, (possible, _)) = a;
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

    /// The routed budgeted entries equal the unbudgeted monolithic
    /// reference whenever they come back exact, for every deletion-based
    /// class, under unlimited, deadline and step budgets, at 1 and 4
    /// threads; truncated answers stay on the sound side (every query here
    /// is monotone and every class deletion-only).
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
                let certain = consistent_answers(&db, &sigma, &q, &class).unwrap();
                let possible = possible_answers(&db, &sigma, &q, &class).unwrap();
                prop_assert!(certain.is_subset(&possible));
                prop_assert!(possible.iter().all(|t| !t.has_null()), "{} kept a null", shape);
                for threads in [1, 4] {
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
