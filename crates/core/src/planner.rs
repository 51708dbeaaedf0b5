//! A ConsEx-style consistency extractor (§3.3 of the paper, \[43\]): one
//! entry point that *plans* how to answer a query consistently, choosing
//! the cheapest sound-and-complete strategy available:
//!
//! 1. **FO rewriting** (attack graph) when Σ is a set of primary keys, the
//!    query is a self-join-free CQ with an acyclic attack graph, and no
//!    relation the query reads holds a SQL null — evaluated directly on the
//!    inconsistent instance, no repairs;
//! 2. **repair enumeration** otherwise (the reference semantics), per
//!    conflict component when Σ is denial-class.
//!
//! The chosen strategy is reported so callers can log/inspect it, mirroring
//! how ConsEx surfaced its magic-set rewriting decisions.

use crate::cqa::{answers_budgeted, Base, RepairClass, Side};
use crate::delta::IncrementalState;
use crate::factored::Factorization;
use crate::rewrite::keys::{rewrite_key_query, KeyPositions, KeyRewriteError};
use cqa_analysis::{lint_constraints, lint_query, DiagCode, Diagnostic};
use cqa_constraints::{ConflictHypergraph, Constraint, ConstraintSet};
use cqa_exec::{Budget, Outcome};
use cqa_query::{eval_fo, ConjunctiveQuery, NullSemantics, Term, UnionQuery};
use cqa_relation::{Database, RelationError, Tuple, Value};
use std::collections::BTreeSet;

/// How the planner answered the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy {
    /// Evaluated a certain FO rewriting on the inconsistent instance.
    FoRewriting,
    /// Enumerated repairs and intersected answers: Σ with tgds, whose
    /// repairs do not factor per conflict component.
    RepairEnumeration {
        /// Why rewriting was not used.
        reason: String,
    },
    /// Enumerated repairs **per conflict component** and folded
    /// component-locally over one witness scan of the query (or over the
    /// lazy cross-product when a query witness spans components) — never
    /// materializing the product.
    FactoredEnumeration {
        /// Why rewriting was not used.
        reason: String,
        /// The factorization shape (component count, product size avoided…).
        factorization: Factorization,
    },
    /// The instance was consistent: plain evaluation.
    DirectEvaluation,
}

/// The planner's result.
#[derive(Debug, Clone)]
pub struct PlannedAnswer {
    /// The consistent answers.
    pub answers: BTreeSet<Tuple>,
    /// The strategy used.
    pub strategy: Strategy,
    /// Static-analysis findings for Σ and the query (strategy-independent;
    /// see `cqa-analysis` for the code catalog).
    pub diagnostics: Vec<Diagnostic>,
}

/// Lint Σ (against the live schemas) and every disjunct of the query.
pub fn plan_diagnostics(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
) -> Vec<Diagnostic> {
    let mut out = lint_constraints(sigma, Some(db));
    out.extend(query_lints(query));
    out
}

/// The query half of [`plan_diagnostics`]: every disjunct's lints.
fn query_lints(query: &UnionQuery) -> impl Iterator<Item = Diagnostic> + '_ {
    query.disjuncts.iter().flat_map(lint_query)
}

/// Extract the key positions from Σ if Σ consists solely of key constraints
/// (at most one per relation).
fn keys_only(db: &Database, sigma: &ConstraintSet) -> Option<KeyPositions> {
    let mut keys = KeyPositions::new();
    for c in &sigma.constraints {
        let Constraint::Key(k) = c else {
            return None;
        };
        let schema = db.relation(&k.relation)?.schema().clone();
        let positions = schema.positions_of(k.key.iter().map(String::as_str)).ok()?;
        if keys.insert(k.relation.clone(), positions).is_some() {
            return None; // two keys on one relation: out of the dichotomy
        }
    }
    Some(keys)
}

/// The answers of `cq` from those of its FO rewriting, which bind only the
/// head variables: every constant head term is put back in its place. An
/// answer holding a null is not certain, so a null constant leaves none.
fn with_head_constants(cq: &ConjunctiveQuery, answers: BTreeSet<Tuple>) -> BTreeSet<Tuple> {
    if cq.head.iter().all(|t| t.as_var().is_some()) {
        return answers;
    }
    answers
        .into_iter()
        .map(|t| {
            let mut values = t.iter().cloned();
            Tuple::new(cq.head.iter().map(|term| match term {
                Term::Const(c) => c.clone(),
                Term::Var(_) => values.next().unwrap_or(Value::NULL),
            }))
        })
        .filter(|t| !t.has_null())
        .collect()
}

/// The first relation `cq` reads that holds a SQL null. The FO rewriting
/// compares keys and join values structurally, while CQA evaluates repairs
/// under SQL semantics, where a null joins nothing, makes no key conflict
/// and never appears in a certain answer; the two agree only when the
/// relations the query reads are null-free.
fn null_holding_relation<'q>(db: &Database, cq: &'q ConjunctiveQuery) -> Option<&'q str> {
    cq.atoms
        .iter()
        .chain(&cq.negated)
        .map(|atom| atom.relation.as_str())
        .find(|name| {
            db.relation(name)
                .is_some_and(|rel| rel.tuples().any(Tuple::has_null))
        })
}

/// Answer `query` consistently with the best available strategy.
pub fn answer_consistently(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
) -> Result<PlannedAnswer, RelationError> {
    Ok(answer_consistently_budgeted(db, sigma, query, &Budget::unlimited())?.into_value())
}

/// Budget-aware [`answer_consistently`]. The polynomial strategies (direct
/// evaluation on a consistent instance, FO rewriting) always produce an
/// [`Outcome::Exact`] answer — a budget never degrades them. Only the
/// repair-enumeration fallback is metered; on truncation it reports the
/// sound under-approximation of
/// [`consistent_answers_budgeted`](crate::cqa::consistent_answers_budgeted).
pub fn answer_consistently_budgeted(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    budget: &Budget,
) -> Result<Outcome<PlannedAnswer>, RelationError> {
    let diagnostics = plan_diagnostics(db, sigma, query);
    let consistent = sigma.is_satisfied(db)?;
    let base = Base::Borrowed(db);
    plan_with(base, sigma, query, budget, consistent, None, diagnostics)
}

/// [`answer_consistently_budgeted`] against a delta-maintained
/// [`IncrementalState`]: the state is refreshed (incrementally when the
/// change log permits, from scratch otherwise), the maintained hyper-graph
/// is handed to the repair fallback instead of being rebuilt, and the
/// refresh decision is reported as the A007 `incremental-maintenance`
/// diagnostic. Answers are identical to [`answer_consistently_budgeted`]
/// on the same instance — only the work to get there changes.
pub fn answer_consistently_incremental(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    state: &mut IncrementalState,
    budget: &Budget,
) -> Result<Outcome<PlannedAnswer>, RelationError> {
    incremental_with(Base::Borrowed(db), sigma, query, state, budget)
}

/// [`answer_consistently_incremental`] over a lent instance: a session lends
/// its `Arc`, which a monolithic fold's repairs then share without a copy.
pub(crate) fn incremental_with(
    base: Base<'_>,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    state: &mut IncrementalState,
    budget: &Budget,
) -> Result<Outcome<PlannedAnswer>, RelationError> {
    let db = base.db();
    let decision = state.refresh_budgeted(db, sigma, budget)?.clone();
    // [`plan_diagnostics`], with Σ's half kept on the state.
    let mut diagnostics = state.sigma_lints(db, sigma).to_vec();
    diagnostics.extend(query_lints(query));
    diagnostics.push(incremental_diagnostic(&decision));
    // Σ is denial-class (IncrementalState::new enforces it), so the
    // instance is consistent exactly when the maintained graph is edgeless.
    let consistent = state.is_consistent();
    plan_with(
        base,
        sigma,
        query,
        budget,
        consistent,
        Some(state.graph()),
        diagnostics,
    )
}

/// The shared planning core: strategy selection given an already-settled
/// consistency verdict and, optionally, a prebuilt conflict hyper-graph for
/// the repair fallback (the incremental path supplies its maintained one).
fn plan_with(
    base: Base<'_>,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    budget: &Budget,
    consistent: bool,
    prebuilt: Option<&ConflictHypergraph>,
    diagnostics: Vec<Diagnostic>,
) -> Result<Outcome<PlannedAnswer>, RelationError> {
    let db = base.db();
    // Consistent instance: certain answers are the plain answers.
    if consistent {
        return Ok(Outcome::Exact(PlannedAnswer {
            answers: cqa_query::eval_ucq(db, query, NullSemantics::Sql)
                .into_iter()
                .filter(|t| !t.has_null())
                .collect(),
            strategy: Strategy::DirectEvaluation,
            diagnostics,
        }));
    }

    // Rewriting path: keys-only Σ, single self-join-free CQ.
    if let Some(keys) = keys_only(db, sigma) {
        if let [cq] = &query.disjuncts[..] {
            match rewrite_key_query(cq, &keys) {
                Ok(fo) => {
                    if let Some(relation) = null_holding_relation(db, cq) {
                        let reason = format!(
                            "relation {relation} holds SQL nulls: the FO rewriting is exact \
                             only on null-free relations"
                        );
                        return fallback(base, sigma, query, reason, diagnostics, budget, prebuilt);
                    }
                    let answers = eval_fo(db, &fo, NullSemantics::Structural);
                    return Ok(Outcome::Exact(PlannedAnswer {
                        answers: with_head_constants(cq, answers),
                        strategy: Strategy::FoRewriting,
                        diagnostics,
                    }));
                }
                Err(KeyRewriteError::CyclicAttackGraph { witness }) => {
                    let reason = format!(
                        "attack graph cyclic at atoms {} and {}: CQA is coNP-complete",
                        witness.0, witness.1
                    );
                    return fallback(base, sigma, query, reason, diagnostics, budget, prebuilt);
                }
                Err(e) => {
                    return fallback(
                        base,
                        sigma,
                        query,
                        e.to_string(),
                        diagnostics,
                        budget,
                        prebuilt,
                    );
                }
            }
        }
        return fallback(
            base,
            sigma,
            query,
            "query is a union, not a single CQ".into(),
            diagnostics,
            budget,
            prebuilt,
        );
    }
    // Non-key Σ: say *why* in terms of what the lints recognized.
    let mut reason = "Σ is not a set of primary keys".to_string();
    if diagnostics.iter().any(|d| d.code == DiagCode::FdIsKey) {
        reason.push_str(
            "; some FDs cover their whole schema (C004 fd-is-key): \
             declaring them as keys would open the FO-rewriting path",
        );
    }
    if diagnostics
        .iter()
        .any(|d| d.code == DiagCode::SubsumedConstraint || d.code == DiagCode::DuplicateConstraint)
    {
        reason.push_str("; Σ contains redundant constraints (C001/C003)");
    }
    fallback(base, sigma, query, reason, diagnostics, budget, prebuilt)
}

#[allow(clippy::too_many_arguments)]
fn fallback(
    base: Base<'_>,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    reason: String,
    mut diagnostics: Vec<Diagnostic>,
    budget: &Budget,
    prebuilt: Option<&ConflictHypergraph>,
) -> Result<Outcome<PlannedAnswer>, RelationError> {
    // Per-repair folds share answer sets through the subplan cache:
    // snapshot its counters so A008 can report this fold's delta.
    let cache_on = cqa_exec::plan_cache_enabled();
    let cache_before = cqa_query::plan_cache_stats();
    let out = answers_budgeted(
        base,
        sigma,
        query,
        &RepairClass::Subset,
        Side::Certain,
        prebuilt,
        budget,
    )?;
    Ok(out.map(|(answers, factorization)| {
        if let Some(f) = &factorization {
            diagnostics.push(factorization_diagnostic(f));
        }
        diagnostics.push(fold_diagnostic(
            factorization.as_ref(),
            cache_on,
            &cache_before,
        ));
        let strategy = match factorization {
            Some(factorization) => Strategy::FactoredEnumeration {
                reason,
                factorization,
            },
            None => Strategy::RepairEnumeration { reason },
        };
        PlannedAnswer {
            answers,
            strategy,
            diagnostics,
        }
    }))
}

/// The A008 informational finding describing which fold answered: the
/// component fold over witness slices, which evaluates nothing per repair,
/// or a per-repair fold (lazy product, monolithic, or the core fallback of
/// a truncated enumeration) with the subplan-cache hits and misses accrued
/// between the pre-fold snapshot and now (counters are process-wide, so
/// concurrent folds may contribute).
fn fold_diagnostic(
    factorization: Option<&Factorization>,
    cache_on: bool,
    before: &cqa_query::PlanCacheStats,
) -> Diagnostic {
    let message = match factorization {
        Some(Factorization {
            witnesses: Some(n), ..
        }) => format!(
            "component fold over witness slices: one scan of the query over the instance \
             sliced {n} witnesses by component; no per-repair evaluation"
        ),
        _ if !cache_on => {
            "subplan sharing disabled for this run: every repair re-evaluated the query".to_string()
        }
        _ => {
            let fold = match factorization {
                Some(f) if f.spanning => "lazy-product fold",
                Some(_) => "core fallback",
                None => "monolithic fold",
            };
            let after = cqa_query::plan_cache_stats();
            format!(
                "subplan cache over the {fold}: {} hits, {} misses, {} resident entries",
                after.hits.saturating_sub(before.hits),
                after.misses.saturating_sub(before.misses),
                after.entries,
            )
        }
    };
    Diagnostic::new(DiagCode::PlanCache, message)
}

/// The A007 informational finding describing how the incremental planner
/// revalidated its cached conflict state.
fn incremental_diagnostic(decision: &crate::delta::MaintenanceDecision) -> Diagnostic {
    Diagnostic::new(DiagCode::IncrementalMaintenance, decision.describe())
}

/// The A006 informational finding describing a factorized run.
fn factorization_diagnostic(f: &Factorization) -> Diagnostic {
    let product = match f.product_repairs {
        Some(p) => p.to_string(),
        None => "> usize::MAX".to_string(),
    };
    let components = match f.components {
        1 => "1 component".to_string(),
        n => format!("{n} independent components"),
    };
    Diagnostic::new(
        DiagCode::ConflictComponents,
        format!(
            "conflict hyper-graph has {components} (largest: {} tuples): \
             folded {} component-local repairs instead of a product of {}{}",
            f.largest,
            f.factored_repairs,
            product,
            if f.spanning {
                "; a query witness spans components, so answers were folded \
                 over the lazy cross-product"
            } else {
                ""
            },
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_constraints::{DenialConstraint, KeyConstraint};
    use cqa_query::parse_query;
    use cqa_relation::{tuple, RelationSchema, Value};

    fn employee() -> (Database, ConstraintSet) {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Employee", ["Name", "Salary"]))
            .unwrap();
        db.insert("Employee", tuple!["page", 5000]).unwrap();
        db.insert("Employee", tuple!["page", 8000]).unwrap();
        db.insert("Employee", tuple!["smith", 3000]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("Employee", ["Name"])]);
        (db, sigma)
    }

    #[test]
    fn rewritable_query_uses_rewriting() {
        let (db, sigma) = employee();
        let q = UnionQuery::single(parse_query("Q(x, y) :- Employee(x, y)").unwrap());
        let planned = answer_consistently(&db, &sigma, &q).unwrap();
        assert_eq!(planned.strategy, Strategy::FoRewriting);
        assert_eq!(planned.answers, [tuple!["smith", 3000]].into());
        // And it agrees with the reference semantics.
        let reference =
            crate::cqa::consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
        assert_eq!(planned.answers, reference);
    }

    #[test]
    fn sql_nulls_keep_the_planner_off_the_fo_rewriting() {
        // Under SQL semantics (1, NULL) and (1, 'b') make no key conflict,
        // NULL joins nothing, and an answer holding a null is never certain.
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["K", "V"]))
            .unwrap();
        db.create_relation(RelationSchema::new("S", ["W"])).unwrap();
        for (k, v) in [
            (1, None),
            (1, Some("b")),
            (2, Some("a")),
            (2, Some("c")),
            (3, None),
        ] {
            let v = v.map_or(Value::NULL, Value::str);
            db.insert("R", Tuple::new([Value::Int(k), v])).unwrap();
        }
        db.insert("S", Tuple::new([Value::NULL])).unwrap();
        db.insert("S", tuple!["a"]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("R", ["K"])]);
        for (text, expected) in [
            ("Q(x, y) :- R(x, y)", BTreeSet::from([tuple![1, "b"]])),
            ("Q(x) :- R(x, y), S(y)", BTreeSet::new()),
            ("Q(y) :- R(x, y)", BTreeSet::from([tuple!["b"]])),
        ] {
            let q = UnionQuery::single(parse_query(text).unwrap());
            let planned = answer_consistently(&db, &sigma, &q).unwrap();
            assert_eq!(planned.answers, expected, "{text}");
            let reference =
                crate::cqa::consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
            assert_eq!(planned.answers, reference, "{text}");
            match &planned.strategy {
                Strategy::FactoredEnumeration {
                    reason,
                    factorization,
                } => {
                    assert!(reason.contains("relation R holds SQL nulls"), "{reason}");
                    assert_eq!(factorization.components, 1, "{text}");
                }
                other => panic!("{text}: expected repair enumeration, got {other:?}"),
            }
        }
    }

    #[test]
    fn cyclic_query_falls_back() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["A", "B"]))
            .unwrap();
        db.create_relation(RelationSchema::new("S", ["A", "B"]))
            .unwrap();
        db.insert("R", tuple![1, 2]).unwrap();
        db.insert("R", tuple![1, 3]).unwrap();
        db.insert("S", tuple![2, 1]).unwrap();
        let sigma = ConstraintSet::from_iter([
            KeyConstraint::new("R", ["A"]),
            KeyConstraint::new("S", ["A"]),
        ]);
        let q = UnionQuery::single(parse_query("Q() :- R(x, y), S(y, x)").unwrap());
        let planned = answer_consistently(&db, &sigma, &q).unwrap();
        match &planned.strategy {
            Strategy::FactoredEnumeration { reason, .. } => {
                assert!(reason.contains("coNP"), "reason: {reason}");
            }
            other => panic!("expected fallback, got {other:?}"),
        }
    }

    #[test]
    fn non_key_constraints_fall_back() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("S", ["A"])).unwrap();
        db.insert("S", tuple!["a"]).unwrap();
        db.insert("S", tuple!["b"]).unwrap();
        let sigma =
            ConstraintSet::from_iter([DenialConstraint::parse("d", "S(x), S(y), x != y").unwrap()]);
        let q = UnionQuery::single(parse_query("Q(x) :- S(x)").unwrap());
        let planned = answer_consistently(&db, &sigma, &q).unwrap();
        assert!(matches!(
            planned.strategy,
            Strategy::FactoredEnumeration { .. }
        ));
        assert!(planned.answers.is_empty()); // each singleton repair differs
                                             // One conflict component is a factorization with one factor.
        let a006 = planned
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::ConflictComponents)
            .expect("A006 diagnostic");
        assert!(
            a006.message
                .starts_with("conflict hyper-graph has 1 component (largest: 2 tuples)"),
            "{}",
            a006.message
        );
    }

    #[test]
    fn consistent_instance_short_circuits() {
        let (mut db, sigma) = employee();
        db.delete(cqa_relation::Tid(2)).unwrap();
        let q = UnionQuery::single(parse_query("Q(x) :- Employee(x, y)").unwrap());
        let planned = answer_consistently(&db, &sigma, &q).unwrap();
        assert_eq!(planned.strategy, Strategy::DirectEvaluation);
        assert_eq!(planned.answers.len(), 2);
    }

    #[test]
    fn fd_covering_schema_enriches_the_reason() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Employee", ["Name", "Salary"]))
            .unwrap();
        db.insert("Employee", tuple!["page", 5000]).unwrap();
        db.insert("Employee", tuple!["page", 8000]).unwrap();
        // The same key, but declared as an FD: outside the keys-only fast
        // path, yet the analysis recognizes it (C004).
        let fd = cqa_constraints::FunctionalDependency::new("Employee", ["Name"], ["Salary"]);
        let sigma = ConstraintSet::from_iter([fd]);
        let q = UnionQuery::single(parse_query("Q(x) :- Employee(x, y)").unwrap());
        let planned = answer_consistently(&db, &sigma, &q).unwrap();
        match &planned.strategy {
            Strategy::FactoredEnumeration { reason, .. } => {
                assert!(reason.contains("fd-is-key"), "reason: {reason}");
            }
            other => panic!("expected fallback, got {other:?}"),
        }
        assert!(planned
            .diagnostics
            .iter()
            .any(|d| d.code == cqa_analysis::DiagCode::FdIsKey));
    }

    #[test]
    fn planner_reports_query_lints() {
        let (db, sigma) = employee();
        let q = UnionQuery::single(parse_query("Q() :- Employee(x, y), Employee(u, w)").unwrap());
        let planned = answer_consistently(&db, &sigma, &q).unwrap();
        assert!(planned
            .diagnostics
            .iter()
            .any(|d| d.code == cqa_analysis::DiagCode::CartesianProduct));
    }

    #[test]
    fn union_queries_fall_back_with_reason() {
        let (db, sigma) = employee();
        let q = cqa_query::parse_ucq("Q(x) :- Employee(x, y)\nQ(x) :- Employee(x, 3000)").unwrap();
        let planned = answer_consistently(&db, &sigma, &q).unwrap();
        match &planned.strategy {
            Strategy::FactoredEnumeration { reason, .. } => assert!(reason.contains("union")),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn incremental_planner_matches_batch_and_reports_a007() {
        let (mut db, sigma) = employee();
        let mut state = IncrementalState::new(&db, &sigma).unwrap();
        let q = cqa_query::parse_ucq("Q(x) :- Employee(x, y)\nQ(x) :- Employee(x, 3000)").unwrap();
        // Mutate: a second conflicting name group appears.
        db.insert("Employee", tuple!["smith", 3500]).unwrap();
        let budget = Budget::unlimited();
        let incr = answer_consistently_incremental(&db, &sigma, &q, &mut state, &budget)
            .unwrap()
            .into_value();
        let batch = answer_consistently(&db, &sigma, &q).unwrap();
        assert_eq!(incr.answers, batch.answers);
        assert_eq!(incr.strategy, batch.strategy);
        let a007 = incr
            .diagnostics
            .iter()
            .find(|d| d.code == DiagCode::IncrementalMaintenance)
            .expect("A007 diagnostic");
        assert!(a007.message.contains("incrementally"), "{}", a007.message);
        // A second call with no new mutations reports a fresh cache.
        let again = answer_consistently_incremental(&db, &sigma, &q, &mut state, &budget)
            .unwrap()
            .into_value();
        assert_eq!(again.answers, batch.answers);
        assert!(again
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::IncrementalMaintenance && d.message.contains("current")));
        // Consistent after removing the conflicts: direct evaluation.
        db.delete(cqa_relation::Tid(2)).unwrap();
        db.delete(cqa_relation::Tid(4)).unwrap();
        let direct = answer_consistently_incremental(&db, &sigma, &q, &mut state, &budget)
            .unwrap()
            .into_value();
        assert_eq!(direct.strategy, Strategy::DirectEvaluation);
    }

    #[test]
    fn multi_component_fallback_uses_factored_enumeration() {
        let (mut db, sigma) = employee();
        // A second violating name group: two conflict components.
        db.insert("Employee", tuple!["smith", 3500]).unwrap();
        let q = cqa_query::parse_ucq("Q(x) :- Employee(x, y)\nQ(x) :- Employee(x, 3000)").unwrap();
        let planned = answer_consistently(&db, &sigma, &q).unwrap();
        match &planned.strategy {
            Strategy::FactoredEnumeration {
                reason,
                factorization,
            } => {
                assert!(reason.contains("union"), "reason: {reason}");
                assert_eq!(factorization.components, 2);
                assert_eq!(factorization.product_repairs, Some(4));
                assert_eq!(factorization.factored_repairs, 4);
            }
            other => panic!("expected factored fallback, got {other:?}"),
        }
        // The A006 finding rides along in the diagnostics, and A008 says the
        // component fold ran over witness slices.
        assert!(planned
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::ConflictComponents));
        assert!(planned
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::PlanCache && d.message.contains("witness slices")));
        // And the answers agree with the reference semantics.
        let reference =
            crate::cqa::consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
        assert_eq!(planned.answers, reference);
    }

    #[test]
    fn spanning_query_reports_the_lazy_product_fold() {
        let (mut db, sigma) = employee();
        db.insert("Employee", tuple!["smith", 3500]).unwrap();
        // The self-join pairs rows of both conflict groups: witnesses span
        // components, so the fold evaluates the query per product repair.
        let q =
            UnionQuery::single(parse_query("Q(x, u) :- Employee(x, y), Employee(u, w)").unwrap());
        let planned =
            cqa_exec::with_plan_cache(true, || answer_consistently(&db, &sigma, &q)).unwrap();
        match &planned.strategy {
            Strategy::FactoredEnumeration { factorization, .. } => {
                assert!(factorization.spanning);
                assert_eq!(factorization.witnesses, None);
            }
            other => panic!("expected factored fallback, got {other:?}"),
        }
        assert!(planned
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::PlanCache && d.message.contains("lazy-product fold")));
        let reference =
            crate::cqa::consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
        assert_eq!(planned.answers, reference);
    }
}
