//! A session facade over the planner and the delta-maintained conflict
//! state: the library-level object a long-running service (`cqa-server`)
//! holds per tenant.
//!
//! A [`CqaSession`] owns a loaded [`Database`] plus the warm expensive
//! artifacts — the delta-maintained [`IncrementalState`] (violations,
//! conflict hyper-graph and primed component factorization)
//! and, inside the database itself, the shared base-index cache. Mutations
//! go through the change-log pipeline and bring the state up to date
//! **incrementally**. Every read — [`certain`](CqaSession::certain),
//! [`certain_with_class`](CqaSession::certain_with_class),
//! [`possible`](CqaSession::possible) and [`repairs`](CqaSession::repairs)
//! — then refreshes the state and reads the maintained hyper-graph instead
//! of rebuilding violations, graph and components, and its delta repairs
//! share the session's own `Arc` of the instance instead of a copy. The
//! facade is deliberately thin: every answer it produces is byte-identical
//! to the corresponding one-shot library call on the same instance
//! (`tests/server_equivalence.rs` pins this through the wire,
//! `tests/incremental_equivalence.rs` pins the state).
//!
//! The maintained graph's components keep the block shape the first read
//! detects (see `ConflictHypergraph` in `cqa-constraints`), so a warm read
//! emits the families of every component no write has touched since the
//! last read without detecting again. A write rebuilds the components it
//! touches, with empty caches, and carries the others over by pointer;
//! nothing is filled when the session is built. The families themselves
//! are not kept: every read emits them.
//!
//! # Budget discipline
//!
//! Maintenance after a mutation is metered by the *mutation* request's
//! budget (a latch falls back to an exact full recompute — never truncated
//! state). Query-time refresh runs unbudgeted — it is incremental and
//! cheap by construction — so a query request's budget meters exactly the
//! same work it would meter on the one-shot path. The cached shape costs
//! no budget either way — detecting it never ticked — so truncation
//! outcomes (value, reason and `explored`) are identical between a warm
//! session and the one-shot call under the same logical budget.

use crate::cqa::{answers_budgeted, Base, RepairClass, Side};
use crate::crepair::{c_repairs_budgeted, denial_class_c_repairs};
use crate::delta::{IncrementalState, MaintenanceDecision};
use crate::planner::{answer_consistently_budgeted, incremental_with, PlannedAnswer};
use crate::repair::Repair;
use crate::srepair::{denial_class_s_repairs, s_repairs_budgeted, RepairOptions};
use cqa_constraints::{ConflictHypergraph, ConstraintSet};
use cqa_exec::{Budget, Outcome};
use cqa_query::UnionQuery;
use cqa_relation::{Database, RelationError, Tid, Tuple, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One tenant's loaded instance plus warm CQA artifacts. See the module
/// docs for the maintenance and budget discipline.
#[derive(Debug, Clone)]
pub struct CqaSession {
    /// The instance. `Arc` so repair enumeration shares the base without
    /// cloning; mutations go through [`Arc::make_mut`], which is a no-op
    /// while no enumeration borrow is alive (the session serializes its
    /// callers, so that is the steady state).
    db: Arc<Database>,
    sigma: ConstraintSet,
    /// Delta-maintained conflict state; `None` when Σ is not denial-class
    /// (tgds present), in which case every query falls back to the batch
    /// planner.
    state: Option<IncrementalState>,
}

impl CqaSession {
    /// Open a session over a loaded instance and constraint set, building
    /// the warm conflict state once (for denial-class Σ).
    pub fn new(db: Database, sigma: ConstraintSet) -> Result<CqaSession, RelationError> {
        let state = if sigma.is_denial_class() {
            Some(IncrementalState::new(&db, &sigma)?)
        } else {
            None
        };
        Ok(CqaSession {
            db: Arc::new(db),
            sigma,
            state,
        })
    }

    /// Open a session from codec-format database text and Σ-format
    /// constraint text — the wire-level entry point. Errors are rendered to
    /// strings (the two sub-crates have distinct error types).
    pub fn from_text(db_text: &str, sigma_text: &str) -> Result<CqaSession, String> {
        let db = cqa_relation::load(db_text).map_err(|e| e.to_string())?;
        let sigma = cqa_constraints::parse_constraints(sigma_text).map_err(|e| e.to_string())?;
        CqaSession::new(db, sigma).map_err(|e| e.to_string())
    }

    /// The live instance.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The session's constraint set.
    pub fn sigma(&self) -> &ConstraintSet {
        &self.sigma
    }

    /// The instance's mutation epoch.
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }

    /// Is the instance currently consistent w.r.t. Σ? Reads the maintained
    /// state when available (O(1)), falls back to full satisfaction
    /// checking otherwise.
    pub fn is_consistent(&self) -> Result<bool, RelationError> {
        match &self.state {
            Some(state) if state.epoch() == self.db.epoch() => Ok(state.is_consistent()),
            _ => self.sigma.is_satisfied(self.db.as_ref()),
        }
    }

    /// Number of maintained violation sets (denial-class Σ only; `None`
    /// when the state is cold or Σ has tgds).
    pub fn violation_count(&self) -> Option<usize> {
        match &self.state {
            Some(state) if state.epoch() == self.db.epoch() => Some(state.violations().len()),
            _ => None,
        }
    }

    /// Insert a tuple and bring the conflict state up to date through the
    /// delta pipeline. Returns the tid and the maintenance decision.
    pub fn insert(
        &mut self,
        relation: &str,
        tuple: Tuple,
        budget: &Budget,
    ) -> Result<(Tid, MaintenanceDecision), RelationError> {
        let tid = Arc::make_mut(&mut self.db).insert(relation, tuple)?;
        let decision = self.maintain(budget)?;
        Ok((tid, decision))
    }

    /// Delete a tuple by tid; maintains the conflict state like
    /// [`insert`](CqaSession::insert).
    pub fn delete(
        &mut self,
        tid: Tid,
        budget: &Budget,
    ) -> Result<(String, Tuple, MaintenanceDecision), RelationError> {
        let (relation, tuple) = Arc::make_mut(&mut self.db).delete(tid)?;
        let decision = self.maintain(budget)?;
        Ok((relation, tuple, decision))
    }

    /// Update one attribute in place; maintains the conflict state like
    /// [`insert`](CqaSession::insert).
    pub fn update(
        &mut self,
        tid: Tid,
        position: usize,
        value: Value,
        budget: &Budget,
    ) -> Result<MaintenanceDecision, RelationError> {
        Arc::make_mut(&mut self.db).update_value(tid, position, value)?;
        self.maintain(budget)
    }

    /// Bring the maintained state up to the instance's epoch. A budget
    /// latch mid-delta falls back to an exact full recompute (never
    /// truncated state). With tgds in Σ there is nothing to maintain.
    pub fn maintain(&mut self, budget: &Budget) -> Result<MaintenanceDecision, RelationError> {
        match &mut self.state {
            Some(state) => Ok(state
                .refresh_budgeted(&self.db, &self.sigma, budget)?
                .clone()),
            None => Ok(MaintenanceDecision::Recompute {
                reason: "Σ contains tgds: no incremental conflict state is maintained".into(),
            }),
        }
    }

    /// Bring the maintained state up to the instance's epoch before a
    /// read, unbudgeted (see the module docs), so that the request budget
    /// meters exactly the read's own work.
    fn refresh(&mut self) -> Result<(), RelationError> {
        if let Some(state) = &mut self.state {
            state.refresh(&self.db, &self.sigma)?;
        }
        Ok(())
    }

    /// The maintained conflict hyper-graph; `None` when Σ has tgds.
    fn graph(&self) -> Option<&ConflictHypergraph> {
        self.state.as_ref().map(IncrementalState::graph)
    }

    /// Certain answers under the planner (subset repairs), against the warm
    /// maintained hyper-graph when available. Byte-identical to
    /// [`answer_consistently_budgeted`] on the same instance and budget.
    pub fn certain(
        &mut self,
        query: &UnionQuery,
        budget: &Budget,
    ) -> Result<Outcome<PlannedAnswer>, RelationError> {
        self.refresh()?;
        let base = Base::Shared(&self.db);
        match &mut self.state {
            Some(state) => incremental_with(base, &self.sigma, query, state, budget),
            None => answer_consistently_budgeted(&self.db, &self.sigma, query, budget),
        }
    }

    /// Certain answers over an explicit repair class (the non-planned
    /// reference semantics), against the warm maintained hyper-graph when
    /// available. Byte-identical to
    /// [`consistent_answers_budgeted`](crate::consistent_answers_budgeted)
    /// on the same instance and budget.
    pub fn certain_with_class(
        &mut self,
        query: &UnionQuery,
        class: &RepairClass,
        budget: &Budget,
    ) -> Result<Outcome<BTreeSet<Tuple>>, RelationError> {
        self.answers(query, class, Side::Certain, budget)
    }

    /// Possible answers over a repair class, against the warm maintained
    /// hyper-graph when available. Byte-identical to
    /// [`possible_answers_budgeted`](crate::possible_answers_budgeted) on
    /// the same instance and budget.
    pub fn possible(
        &mut self,
        query: &UnionQuery,
        class: &RepairClass,
        budget: &Budget,
    ) -> Result<Outcome<BTreeSet<Tuple>>, RelationError> {
        self.answers(query, class, Side::Possible, budget)
    }

    /// One side of CQA over `class`, routed as the one-shot entries route
    /// it, from the maintained graph.
    fn answers(
        &mut self,
        query: &UnionQuery,
        class: &RepairClass,
        side: Side,
        budget: &Budget,
    ) -> Result<Outcome<BTreeSet<Tuple>>, RelationError> {
        self.refresh()?;
        let base = Base::Shared(&self.db);
        let out = answers_budgeted(base, &self.sigma, query, class, side, self.graph(), budget)?;
        Ok(out.map(|(answers, _)| answers))
    }

    /// Enumerate delta repairs of the session's instance, from the warm
    /// maintained hyper-graph when available. Subset and cardinality
    /// classes share the session's `Arc`ed base — zero instance clones.
    /// Byte-identical to [`s_repairs_budgeted`] and [`c_repairs_budgeted`]
    /// on the same instance and budget; the cardinality class ignores
    /// `limit`. [`RepairClass::AttributeNull`] has no delta representation;
    /// callers route it to [`attribute_repairs`](CqaSession::attribute_repairs)
    /// instead (passing it here behaves as [`RepairClass::Subset`]).
    pub fn repairs(
        &mut self,
        class: &RepairClass,
        limit: Option<usize>,
        budget: &Budget,
    ) -> Result<Outcome<Vec<Repair>>, RelationError> {
        self.refresh()?;
        let cardinality = matches!(class, RepairClass::Cardinality);
        let options = if cardinality {
            RepairOptions::default()
        } else {
            RepairOptions {
                limit,
                allow_insertions: !matches!(class, RepairClass::SubsetDeletionsOnly),
                ..Default::default()
            }
        };
        match (self.graph(), cardinality) {
            (Some(g), true) => denial_class_c_repairs(&self.db, g, &options, budget),
            (Some(g), false) => denial_class_s_repairs(&self.db, g, &options, budget),
            (None, true) => c_repairs_budgeted(&self.db, &self.sigma, &options, budget),
            (None, false) => s_repairs_budgeted(&self.db, &self.sigma, &options, budget),
        }
    }

    /// Attribute-based null repairs (polynomial, always exact).
    pub fn attribute_repairs(
        &self,
    ) -> Result<Vec<crate::attr_repair::AttributeRepair>, RelationError> {
        crate::attr_repair::attribute_repairs(&self.db, &self.sigma)
    }

    /// How the last maintenance call revalidated the warm state (for
    /// diagnostics endpoints); `None` when Σ has tgds.
    pub fn last_maintenance(&self) -> Option<&MaintenanceDecision> {
        self.state.as_ref().map(IncrementalState::last_decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cqa::{consistent_answers_budgeted, possible_answers_budgeted};
    use cqa_constraints::KeyConstraint;
    use cqa_query::parse_query;
    use cqa_relation::{tuple, RelationSchema};

    fn employee_session() -> CqaSession {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Employee", ["Name", "Salary"]))
            .unwrap();
        db.insert("Employee", tuple!["page", 5000]).unwrap();
        db.insert("Employee", tuple!["page", 8000]).unwrap();
        db.insert("Employee", tuple!["smith", 3000]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("Employee", ["Name"])]);
        CqaSession::new(db, sigma).unwrap()
    }

    #[test]
    fn mutations_maintain_and_queries_match_one_shot() {
        let mut session = employee_session();
        assert!(!session.is_consistent().unwrap());
        assert_eq!(session.violation_count(), Some(1));
        let budget = Budget::unlimited();
        // Mutate: a new conflicting group, maintained incrementally.
        let (tid, decision) = session
            .insert("Employee", tuple!["smith", 3500], &budget)
            .unwrap();
        assert!(matches!(decision, MaintenanceDecision::Incremental { .. }));
        assert_eq!(session.violation_count(), Some(2));
        // Warm certain answers == one-shot planner on the same instance.
        let q = cqa_query::UnionQuery::single(parse_query("Q(x) :- Employee(x, y)").unwrap());
        let warm = session.certain(&q, &budget).unwrap().into_value();
        let cold = crate::planner::answer_consistently(session.db(), session.sigma(), &q).unwrap();
        assert_eq!(warm.answers, cold.answers);
        assert_eq!(warm.strategy, cold.strategy);
        // Delete the new tuple: back to one violation.
        let (rel, _, decision) = session.delete(tid, &budget).unwrap();
        assert_eq!(rel, "Employee");
        assert!(matches!(decision, MaintenanceDecision::Incremental { .. }));
        assert_eq!(session.violation_count(), Some(1));
    }

    #[test]
    fn from_text_round_trips_and_repairs_share_the_base() {
        let mut session =
            CqaSession::from_text("@relation T(K, V)\n1, 1\n1, 2\n", "key T(K)\n").unwrap();
        let budget = Budget::unlimited();
        let repairs = session
            .repairs(&RepairClass::Subset, None, &budget)
            .unwrap()
            .into_value();
        assert_eq!(repairs.len(), 2);
        // A mutation while no enumeration borrow is alive must not clone —
        // the repairs above hold `Arc`s of the base, so release them first.
        drop(repairs);
        let before = Arc::as_ptr(&session.db);
        session.insert("T", tuple![2, 7], &budget).unwrap();
        assert_eq!(before, Arc::as_ptr(&session.db));
    }

    /// The deleted tids of each repair, in order.
    fn deletions(out: Outcome<Vec<Repair>>) -> Outcome<Vec<BTreeSet<Tid>>> {
        out.map(|repairs| repairs.into_iter().map(|r| r.deleted).collect())
    }

    #[test]
    fn query_budget_trajectory_matches_one_shot() {
        // Same budget, warm vs cold: identical truncation outcome — value,
        // reason and `explored` — for every read. The facade must not
        // consume budget before planning, and what an unlimited read leaves
        // on the maintained graph must not move a capped or born-exhausted
        // read's cut. Three pair components take the
        // factored routes; one group of three takes the monolithic ones.
        let dc = "dc T(x, y), T(x, z), y != z\n";
        for db in [
            "@relation T(K, V)\n1, 1\n1, 2\n2, 1\n2, 2\n3, 1\n3, 2\n",
            "@relation T(K, V)\n1, 1\n1, 2\n1, 3\n2, 1\n",
        ] {
            let mut session = CqaSession::from_text(db, dc).unwrap();
            let q = UnionQuery::single(parse_query("Q(x) :- T(x, y)").unwrap());
            let q2 = UnionQuery::single(parse_query("Q(x, y) :- T(x, y)").unwrap());
            let (subset, card) = (RepairClass::Subset, RepairClass::Cardinality);
            let limited = RepairOptions {
                limit: Some(2),
                ..RepairOptions::default()
            };
            let unlimited = Budget::unlimited();
            session.certain(&q, &unlimited).unwrap();
            session.certain_with_class(&q2, &card, &unlimited).unwrap();
            session.possible(&q2, &subset, &unlimited).unwrap();
            session.repairs(&subset, None, &unlimited).unwrap();
            session.repairs(&card, None, &unlimited).unwrap();
            // Step budgets, then a born-exhausted deadline (`None`).
            for steps in [Some(1u64), Some(5), Some(50), Some(5000), None] {
                let budget = || steps.map_or_else(|| Budget::deadline_ms(0), Budget::steps);
                let ctx = format!("steps {steps:?} over {db:?}");
                let warm = session.certain(&q, &budget()).unwrap();
                let cold =
                    answer_consistently_budgeted(session.db(), session.sigma(), &q, &budget())
                        .unwrap();
                assert_eq!(warm.truncation(), cold.truncation(), "certain, {ctx}");
                assert_eq!(warm.value().answers, cold.value().answers, "certain, {ctx}");

                let warm = session.certain_with_class(&q2, &card, &budget()).unwrap();
                let (db, sigma) = (session.db(), session.sigma());
                let cold = consistent_answers_budgeted(db, sigma, &q2, &card, &budget());
                assert_eq!(warm, cold.unwrap(), "certain_with_class, {ctx}");

                let warm = session.possible(&q2, &subset, &budget()).unwrap();
                let (db, sigma) = (session.db(), session.sigma());
                let cold = possible_answers_budgeted(db, sigma, &q2, &subset, &budget());
                assert_eq!(warm, cold.unwrap(), "possible, {ctx}");

                let base = Arc::clone(&session.db);
                let sigma = session.sigma().clone();
                let reads = [
                    (subset.clone(), Some(2), &limited),
                    (subset.clone(), None, &RepairOptions::default()),
                    (card.clone(), None, &RepairOptions::default()),
                ];
                for (class, limit, options) in reads {
                    let warm = session.repairs(&class, limit, &budget()).unwrap();
                    let cold = match class {
                        RepairClass::Cardinality => {
                            c_repairs_budgeted(&base, &sigma, options, &budget())
                        }
                        _ => s_repairs_budgeted(&base, &sigma, options, &budget()),
                    };
                    assert_eq!(
                        deletions(warm),
                        deletions(cold.unwrap()),
                        "repairs {class:?} limit {limit:?}, {ctx}"
                    );
                }
            }
        }
    }

    #[test]
    fn warm_reads_share_component_graphs_and_a_write_replaces_only_its_own() {
        // Three key groups of two: components {1, 2}, {3, 4} and {5, 6}.
        let mut session = CqaSession::from_text(
            "@relation T(K, V)\n1, 1\n1, 2\n2, 1\n2, 2\n3, 1\n3, 2\n",
            "key T(K)\n",
        )
        .unwrap();
        let q = UnionQuery::single(parse_query("Q(x, y) :- T(x, y)").unwrap());
        let unlimited = Budget::unlimited;
        let components = |session: &CqaSession| session.state.as_ref().unwrap().components();
        let reads = |session: &mut CqaSession| {
            let possible = session.possible(&q, &RepairClass::Subset, &unlimited());
            let card = session.certain_with_class(&q, &RepairClass::Cardinality, &unlimited());
            (possible.unwrap(), card.unwrap())
        };
        let first = reads(&mut session);
        let before = components(&session);
        assert!(before
            .components
            .iter()
            .all(|c| c.graph().is_block_shaped()));
        assert_eq!(reads(&mut session), first);
        // A read builds no graph and no components: the second one reads
        // the same component graphs, with the shapes the first detected.
        assert!(Arc::ptr_eq(&before, &components(&session)));
        // A third tuple in key 2 touches the middle component only.
        let (tid, _) = session.insert("T", tuple![2, 3], &unlimited()).unwrap();
        reads(&mut session);
        let after = components(&session);
        let same =
            |i: usize| std::ptr::eq(before.components[i].graph(), after.components[i].graph());
        assert!(same(0) && same(2) && !same(1));
        let minimal = after.components[1].graph().minimal_hitting_sets(None);
        let mut keep_one: Vec<BTreeSet<Tid>> = vec![
            [Tid(3), Tid(4)].into(),
            [Tid(3), tid].into(),
            [Tid(4), tid].into(),
        ];
        keep_one.sort();
        assert_eq!(minimal, keep_one, "delete two of the three key-2 tuples");
    }

    #[test]
    fn tgd_sigma_disables_incremental_state_but_not_queries() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["A"])).unwrap();
        db.create_relation(RelationSchema::new("S", ["A"])).unwrap();
        db.insert("R", tuple![1]).unwrap();
        let tgd = cqa_constraints::Tgd::parse("t", "S(x) :- R(x)").unwrap();
        let sigma = ConstraintSet::from_iter([cqa_constraints::Constraint::Tgd(tgd)]);
        let mut session = CqaSession::new(db, sigma).unwrap();
        assert_eq!(session.violation_count(), None);
        assert!(session.last_maintenance().is_none());
        let budget = Budget::unlimited();
        assert!(matches!(
            session.maintain(&budget).unwrap(),
            MaintenanceDecision::Recompute { .. }
        ));
        let q = cqa_query::UnionQuery::single(parse_query("Q(x) :- R(x)").unwrap());
        let answers = session.certain(&q, &budget).unwrap().into_value();
        assert_eq!(answers.answers.len(), 0); // S(1) missing: not consistent-certain
    }
}
