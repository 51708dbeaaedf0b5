//! Delta-driven maintenance of the violation → hypergraph → components
//! pipeline ([`IncrementalState`]).
//!
//! The paper defines repairs against a fixed inconsistent instance; a system
//! under ingest mutates that instance constantly, and recomputing violations
//! and the conflict hyper-graph from scratch per mutation is the dominant
//! cost. Following Lopatenko–Bertossi's incremental repair semantics
//! (arXiv:1605.07159), denial bodies are negation-free conjunctions and
//! hence **monotone**: after a batch of mutations with touched-tid set `Δ`,
//!
//! * every old violation set disjoint from `Δ` is still a violation set, and
//! * every violation set that is new (or re-validated) intersects `Δ`,
//!
//! so the new violation set is exactly
//! `{v ∈ old : v ∩ Δ = ∅} ∪ violations_delta(Δ)`, where
//! [`cqa_constraints::ConstraintSet::denial_violations_delta`] pins each
//! body atom in turn to the touched tuples and lets the evaluator join them
//! against the indexed base. The conflict hyper-graph and its component
//! factorization are then maintained structurally:
//! [`ConflictHypergraph::apply_violation_delta`] drops the edges that touch
//! `Δ`, merges in the new sets that no surviving edge dominates, and
//! rebuilds **only the touched components** (union-find merge on edge add,
//! bounded split-on-delete), carrying everything else over verbatim.
//!
//! **Contract.** After every [`IncrementalState::refresh_budgeted`] the
//! maintained state is byte-identical to recompute-from-scratch — at any
//! thread count, and regardless of the budget: a budget that latches
//! mid-delta falls back to a full recompute rather than leaving partial
//! state (the refresh is reported as [`MaintenanceDecision::Recompute`],
//! never a truncated artifact). Enforced by `tests/incremental_equivalence.rs`
//! over random mutation sequences.

use cqa_analysis::{lint_constraints, Diagnostic};
use cqa_constraints::{ConflictComponents, ConflictHypergraph, ConstraintSet};
use cqa_exec::Budget;
use cqa_relation::{Change, Database, RelationError, Tid};
use std::collections::BTreeSet;
use std::sync::Arc;

/// How a [`IncrementalState::refresh_budgeted`] call revalidated the cache.
/// Reported by the planner as the A007 `incremental-maintenance` diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintenanceDecision {
    /// The instance's epoch matched the cached epoch: nothing to do.
    Fresh,
    /// The logged changes were applied incrementally.
    Incremental {
        /// Number of change records applied.
        changes: usize,
        /// Tids touched by those changes (dirty set size).
        touched: usize,
    },
    /// The pipeline was recomputed from scratch.
    Recompute {
        /// Why incremental maintenance was not possible.
        reason: String,
    },
}

impl MaintenanceDecision {
    /// One-line rendering for diagnostics and logs.
    pub fn describe(&self) -> String {
        match self {
            MaintenanceDecision::Fresh => {
                "cached conflict state is current (epoch unchanged)".to_string()
            }
            MaintenanceDecision::Incremental { changes, touched } => format!(
                "applied {changes} logged change(s) touching {touched} tuple(s) \
                 incrementally to violations, hyper-graph and components"
            ),
            MaintenanceDecision::Recompute { reason } => {
                format!("recomputed violations and conflict state from scratch: {reason}")
            }
        }
    }
}

/// Incrementally maintained conflict state for one `(Database, Σ)` pair:
/// the denial violation sets, the conflict hyper-graph built over them, and
/// (primed inside the graph) the component factorization. Bound to one
/// database identity via the mutation epoch — refresh it only against the
/// database it was built from (or a clone, which carries the epoch along) —
/// and to one Σ.
#[derive(Debug, Clone)]
pub struct IncrementalState {
    epoch: u64,
    violations: BTreeSet<BTreeSet<Tid>>,
    graph: ConflictHypergraph,
    last: MaintenanceDecision,
    /// Σ's lints against the schema, once a planner read asked for them.
    sigma_lints: Option<Vec<Diagnostic>>,
}

impl IncrementalState {
    /// Build the full pipeline once. Errors if Σ is not denial-class (tgd
    /// inconsistencies are not coexistence conflicts) — same condition as
    /// [`cqa_constraints::ConstraintSet::conflict_hypergraph`].
    pub fn new(db: &Database, sigma: &ConstraintSet) -> Result<IncrementalState, RelationError> {
        if !sigma.is_denial_class() {
            return Err(RelationError::Parse(
                "incremental maintenance requires denial-class constraints only (no tgds)".into(),
            ));
        }
        let (violations, graph) = Self::full(db, sigma)?;
        Ok(IncrementalState {
            epoch: db.epoch(),
            violations,
            graph,
            last: MaintenanceDecision::Recompute {
                reason: "initial build".into(),
            },
            sigma_lints: None,
        })
    }

    fn full(
        db: &Database,
        sigma: &ConstraintSet,
    ) -> Result<(BTreeSet<BTreeSet<Tid>>, ConflictHypergraph), RelationError> {
        let violations = sigma.denial_violations(db)?;
        let graph = ConflictHypergraph::new(db.tids(), violations.iter().cloned());
        let _ = graph.components(); // prime the factorization
        Ok((violations, graph))
    }

    /// [`IncrementalState::refresh_budgeted`] with an unlimited budget.
    pub fn refresh(
        &mut self,
        db: &Database,
        sigma: &ConstraintSet,
    ) -> Result<&MaintenanceDecision, RelationError> {
        self.refresh_budgeted(db, sigma, &Budget::unlimited())
    }

    /// Bring the state up to `db.epoch()`. Applies the logged delta when the
    /// change log still covers the cached epoch and the budget allows it;
    /// falls back to a full recompute otherwise. Either way the resulting
    /// state is **exact** — never a truncated artifact.
    pub fn refresh_budgeted(
        &mut self,
        db: &Database,
        sigma: &ConstraintSet,
        budget: &Budget,
    ) -> Result<&MaintenanceDecision, RelationError> {
        if db.epoch() == self.epoch {
            self.last = MaintenanceDecision::Fresh;
            return Ok(&self.last);
        }
        let Some(changes) = db.changes_since(self.epoch) else {
            return self.recompute(
                db,
                sigma,
                "the change log no longer covers the cached epoch \
                 (compacted away or a structural change intervened)",
            );
        };
        // One budget step per logged change; a latch mid-delta discards the
        // partial work and recomputes exactly (`Outcome::Truncated` state is
        // not a thing this type produces).
        let mut dirty: BTreeSet<Tid> = BTreeSet::new();
        for c in changes {
            if !budget.tick() {
                return self.recompute(db, sigma, "the budget latched mid-delta");
            }
            dirty.insert(c.tid());
        }
        // Monotone-body maintenance identity: keep the old sets untouched
        // by the dirty tids, re-derive everything involving them. Retention
        // is in place — the kept sets (the overwhelming majority under a
        // small delta) are never re-cloned — and the graph is maintained
        // from the delta alone, never re-canonicalizing the full edge list.
        let delta = sigma.denial_violations_delta(db, &dirty)?;
        // The node set moves into the next graph, patched by the changes;
        // it is taken only now, so an error above leaves the state whole.
        let mut nodes = std::mem::take(&mut self.graph.nodes);
        for c in changes {
            match c {
                Change::Insert { tid, .. } => {
                    nodes.insert(*tid);
                }
                Change::Delete { tid, .. } => {
                    nodes.remove(tid);
                }
                Change::Update { .. } => {}
            }
        }
        debug_assert_eq!(nodes, db.tids(), "maintained node set drifted");
        self.graph = self.graph.apply_violation_delta(nodes, &dirty, &delta);
        self.violations
            .retain(|v| v.iter().all(|t| !dirty.contains(t)));
        self.violations.extend(delta);
        self.epoch = db.epoch();
        self.last = MaintenanceDecision::Incremental {
            changes: changes.len(),
            touched: dirty.len(),
        };
        Ok(&self.last)
    }

    fn recompute(
        &mut self,
        db: &Database,
        sigma: &ConstraintSet,
        reason: &str,
    ) -> Result<&MaintenanceDecision, RelationError> {
        let (violations, graph) = Self::full(db, sigma)?;
        self.violations = violations;
        self.graph = graph;
        self.epoch = db.epoch();
        // A structural change (a new relation) may change the schema the
        // lints read.
        self.sigma_lints = None;
        // A structural reset means the instance drifted past what the
        // change log describes; the subplan cache's stamp keys stay sound
        // regardless, but entries for the abandoned states will never hit
        // again — drop them rather than letting dead weight ride to the
        // eviction cap.
        cqa_query::plan::reset_plan_cache();
        self.last = MaintenanceDecision::Recompute {
            reason: reason.into(),
        };
        Ok(&self.last)
    }

    /// The epoch the state is current at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The maintained denial violation sets (union over Σ's denials).
    pub fn violations(&self) -> &BTreeSet<BTreeSet<Tid>> {
        &self.violations
    }

    /// The maintained conflict hyper-graph (components primed).
    pub fn graph(&self) -> &ConflictHypergraph {
        &self.graph
    }

    /// The maintained component factorization.
    pub fn components(&self) -> Arc<ConflictComponents> {
        self.graph.components()
    }

    /// Is the instance consistent w.r.t. Σ's denials? (Denial-class Σ is
    /// satisfied exactly when there is no violation set.)
    pub fn is_consistent(&self) -> bool {
        self.graph.edge_count() == 0
    }

    /// Σ's lints against the instance's schema
    /// ([`cqa_analysis::lint_constraints`]), computed on the first call and
    /// kept: they read only Σ and the schema, and the writes an incremental
    /// refresh applies change neither. A recompute drops them.
    pub(crate) fn sigma_lints(&mut self, db: &Database, sigma: &ConstraintSet) -> &[Diagnostic] {
        self.sigma_lints
            .get_or_insert_with(|| lint_constraints(sigma, Some(db)))
    }

    /// How the last refresh revalidated the cache.
    pub fn last_decision(&self) -> &MaintenanceDecision {
        &self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_constraints::{DenialConstraint, KeyConstraint};
    use cqa_relation::{tuple, RelationSchema, Value};

    fn setup() -> (Database, ConstraintSet) {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Emp", ["Name", "Dept", "Sal"]))
            .unwrap();
        db.insert("Emp", tuple!["ann", "d1", 10]).unwrap();
        db.insert("Emp", tuple!["ann", "d2", 11]).unwrap();
        db.insert("Emp", tuple!["bob", "d1", 12]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("Emp", ["Name"])]);
        (db, sigma)
    }

    fn scratch(db: &Database, sigma: &ConstraintSet) -> IncrementalState {
        IncrementalState::new(db, sigma).unwrap()
    }

    /// The maintained state must equal a from-scratch build, byte for byte.
    fn assert_identical(state: &IncrementalState, db: &Database, sigma: &ConstraintSet) {
        let fresh = scratch(db, sigma);
        assert_eq!(state.violations, fresh.violations);
        assert_eq!(state.graph, fresh.graph);
        assert_eq!(*state.components(), *fresh.components());
        assert_eq!(state.epoch, db.epoch());
    }

    #[test]
    fn refresh_is_fresh_without_mutations() {
        let (db, sigma) = setup();
        let mut state = scratch(&db, &sigma);
        assert_eq!(
            state.refresh(&db, &sigma).unwrap(),
            &MaintenanceDecision::Fresh
        );
        assert_identical(&state, &db, &sigma);
    }

    #[test]
    fn insert_delete_update_maintain_incrementally() {
        let (mut db, sigma) = setup();
        let mut state = scratch(&db, &sigma);
        // Insert a new conflicting tuple.
        let t = db.insert("Emp", tuple!["bob", "d9", 13]).unwrap();
        match state.refresh(&db, &sigma).unwrap() {
            MaintenanceDecision::Incremental { changes: 1, .. } => {}
            other => panic!("expected incremental, got {other:?}"),
        }
        assert_identical(&state, &db, &sigma);
        assert!(!state.is_consistent());
        // Delete it again plus one of the ann duplicates: consistent now.
        db.delete(t).unwrap();
        db.delete(cqa_relation::Tid(2)).unwrap();
        state.refresh(&db, &sigma).unwrap();
        assert_identical(&state, &db, &sigma);
        assert!(state.is_consistent());
        // An in-place update re-creating the conflict.
        db.update_value(cqa_relation::Tid(3), 0, Value::str("ann"))
            .unwrap();
        state.refresh(&db, &sigma).unwrap();
        assert_identical(&state, &db, &sigma);
        assert!(!state.is_consistent());
    }

    #[test]
    fn budget_latch_falls_back_to_exact_recompute() {
        let (mut db, sigma) = setup();
        let mut state = scratch(&db, &sigma);
        for i in 0..5 {
            db.insert("Emp", tuple![format!("p{i}"), "d", i]).unwrap();
        }
        // 2 steps for 5 changes: the delta path latches and recomputes.
        match state
            .refresh_budgeted(&db, &sigma, &Budget::steps(2))
            .unwrap()
        {
            MaintenanceDecision::Recompute { reason } => {
                assert!(reason.contains("budget"), "reason: {reason}");
            }
            other => panic!("expected recompute, got {other:?}"),
        }
        assert_identical(&state, &db, &sigma);
    }

    #[test]
    fn compacted_log_forces_recompute() {
        let (mut db, sigma) = setup();
        let mut state = scratch(&db, &sigma);
        // Push far past the default log capacity so the cached epoch falls
        // out of the retained window.
        for i in 0..(2 * cqa_relation::changes::DEFAULT_LOG_CAPACITY + 10) {
            db.insert("Emp", tuple![format!("q{i}"), "d", 1]).unwrap();
        }
        match state.refresh(&db, &sigma).unwrap() {
            MaintenanceDecision::Recompute { reason } => {
                assert!(reason.contains("change log"), "reason: {reason}");
            }
            other => panic!("expected recompute, got {other:?}"),
        }
        assert_identical(&state, &db, &sigma);
    }

    #[test]
    fn structural_change_forces_recompute() {
        let (mut db, sigma) = setup();
        let mut state = scratch(&db, &sigma);
        db.create_relation(RelationSchema::new("New", ["X"]))
            .unwrap();
        assert!(matches!(
            state.refresh(&db, &sigma).unwrap(),
            MaintenanceDecision::Recompute { .. }
        ));
        assert_identical(&state, &db, &sigma);
    }

    #[test]
    fn tgds_are_rejected() {
        let (db, _) = setup();
        let tgd = cqa_constraints::Tgd::parse("t", "Dept(d) :- Emp(n, d, s)").unwrap();
        let sigma = ConstraintSet::from_iter([cqa_constraints::Constraint::Tgd(tgd)]);
        assert!(IncrementalState::new(&db, &sigma).is_err());
    }

    #[test]
    fn comparison_denials_maintain_too() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Acct", ["Id", "Bal"]))
            .unwrap();
        db.insert("Acct", tuple![1, 100]).unwrap();
        db.insert("Acct", tuple![2, 50]).unwrap();
        let sigma =
            ConstraintSet::from_iter(
                [DenialConstraint::parse("pos", "Acct(i, b), b < 0").unwrap()],
            );
        let mut state = scratch(&db, &sigma);
        assert!(state.is_consistent());
        let t = db.insert("Acct", tuple![3, -7]).unwrap();
        state.refresh(&db, &sigma).unwrap();
        assert_identical(&state, &db, &sigma);
        assert_eq!(state.violations(), &[[t].into()].into());
    }
}
