//! C-repairs (§4.1): repairs minimizing the *number* of changes `|D Δ D'|`.
//!
//! Every C-repair is an S-repair (a strictly smaller delta would contradict
//! cardinality minimality), so the general path filters the S-repair set; for
//! denial-class Σ the minimum-hitting-set branch-and-bound of
//! `cqa-constraints` avoids enumerating all S-repairs first. It runs per
//! conflict component at any component count: the global minima are the
//! products of the per-component minima.

// audit:exponential — minimum-cardinality search over the repair lattice; every search loop must thread a Budget.
use crate::repair::{sort_by_delta, Repair};
use crate::srepair::{s_repairs_budgeted, RepairOptions};
use cqa_constraints::{ConflictHypergraph, ConstraintSet};
use cqa_exec::{Budget, Outcome};
use cqa_relation::{Database, RelationError};
use std::sync::Arc;

/// All C-repairs of `db` with respect to `sigma`.
///
/// Clones `db` once into a shared [`Arc`] base; callers that already hold
/// one call [`c_repairs_budgeted`] with [`Budget::unlimited`].
pub fn c_repairs(db: &Database, sigma: &ConstraintSet) -> Result<Vec<Repair>, RelationError> {
    let base = Arc::new(db.clone());
    let options = RepairOptions::default();
    Ok(c_repairs_budgeted(&base, sigma, &options, &Budget::unlimited())?.into_value())
}

/// Budget-aware C-repair enumeration.
///
/// For denial-class Σ a truncated result is a sound subset of the true
/// C-repair family if the minimum-size proof finished, and empty otherwise
/// (never a list of wrong-sized repairs — see
/// [`ConflictHypergraph::minimum_hitting_sets_budgeted`]). For general Σ
/// the truncated result filters the repairs found so far by their smallest
/// observed delta size; a deeper, unexplored branch could in principle beat
/// that size, so treat a truncated general result as "best found so far".
///
/// [`ConflictHypergraph::minimum_hitting_sets_budgeted`]:
/// cqa_constraints::ConflictHypergraph::minimum_hitting_sets_budgeted
pub fn c_repairs_budgeted(
    db: &Arc<Database>,
    sigma: &ConstraintSet,
    options: &RepairOptions,
    budget: &Budget,
) -> Result<Outcome<Vec<Repair>>, RelationError> {
    if sigma.is_denial_class() {
        let graph = sigma.conflict_hypergraph(&**db)?;
        return denial_class_c_repairs(db, &graph, options, budget);
    }
    let all = s_repairs_budgeted(
        db,
        sigma,
        &RepairOptions {
            limit: None,
            ..options.clone()
        },
        budget,
    )?
    .into_value();
    let explored = all.len() as u64;
    let min = all.iter().map(Repair::delta_size).min().unwrap_or(0);
    let filtered: Vec<Repair> = all.into_iter().filter(|r| r.delta_size() == min).collect();
    Ok(budget.outcome_with(filtered, explored))
}

/// The denial-class path: minimum hitting sets of `graph`, the conflict
/// hyper-graph of `db`. Sorted by delta.
pub(crate) fn denial_class_c_repairs(
    db: &Arc<Database>,
    graph: &ConflictHypergraph,
    options: &RepairOptions,
    budget: &Budget,
) -> Result<Outcome<Vec<Repair>>, RelationError> {
    // The global minima are exactly the products of the per-component
    // minimum families, so the output is byte-identical to one search
    // over the whole graph; a logical cap keeps that search, as in
    // `denial_class_s_repairs`.
    if options.limit.is_none() && !budget.forces_sequential() {
        let factored = crate::factored::FactoredRepairSet::enumerate_minimum(db, graph, budget);
        let repairs = factored.value().expand_budgeted(budget)?;
        let explored = repairs.len() as u64;
        return Ok(budget.outcome_with(repairs, explored));
    }
    let hitting_sets = graph.minimum_hitting_sets_budgeted(budget);
    let explored = hitting_sets.value().len() as u64;
    let mut out: Vec<Repair> = hitting_sets
        .into_value()
        .into_iter()
        .map(|hs| Repair::from_delta(db, hs, Vec::new()))
        .collect::<Result<_, _>>()?;
    sort_by_delta(&mut out);
    Ok(budget.outcome_with(out, explored))
}

/// The minimum number of changes needed to restore consistency
/// (`|D Δ D'|` for any C-repair; 0 iff `db ⊨ sigma`).
pub fn min_repair_distance(db: &Database, sigma: &ConstraintSet) -> Result<usize, RelationError> {
    if sigma.is_denial_class() {
        return minimum_deletions(db, sigma);
    }
    Ok(c_repairs(db, sigma)?
        .first()
        .map(Repair::delta_size)
        .unwrap_or(0))
}

/// The fewest deletions that remove every violation of Σ's denials: the
/// sum of the per-component minimum hitting-set sizes of the conflict
/// hyper-graph (edges never cross components, so the minima add).
pub(crate) fn minimum_deletions(
    db: &Database,
    sigma: &ConstraintSet,
) -> Result<usize, RelationError> {
    Ok(sigma
        .conflict_hypergraph(db)?
        .components()
        .minimum_hitting_set_size_budgeted(&Budget::unlimited())
        .into_value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_constraints::{DenialConstraint, KeyConstraint, Tgd};
    use cqa_relation::{tuple, RelationSchema, Tid};
    use std::collections::BTreeSet;

    /// Example 4.1: Figure 1's hyper-graph.
    fn example_4_1() -> (Database, ConstraintSet) {
        let mut db = Database::new();
        for r in ["A", "B", "C", "D", "E"] {
            db.create_relation(RelationSchema::new(r, ["X"])).unwrap();
            db.insert(r, tuple!["a"]).unwrap();
        }
        let sigma = ConstraintSet::from_iter([
            DenialConstraint::parse("d1", "B(x), E(x)").unwrap(),
            DenialConstraint::parse("d2", "B(x), C(x), D(x)").unwrap(),
            DenialConstraint::parse("d3", "A(x), C(x)").unwrap(),
        ]);
        (db, sigma)
    }

    #[test]
    fn example_4_1_c_repairs_are_d2_d3_d4() {
        let (db, sigma) = example_4_1();
        let crs = c_repairs(&db, &sigma).unwrap();
        assert_eq!(crs.len(), 3);
        // tids in insertion order: A=1, B=2, C=3, D=4, E=5.
        let kept: BTreeSet<BTreeSet<Tid>> = crs
            .iter()
            .map(|r| db.tids().difference(&r.deleted).copied().collect())
            .collect();
        assert!(kept.contains(&[Tid(3), Tid(4), Tid(5)].into())); // {C, D, E}
        assert!(kept.contains(&[Tid(1), Tid(2), Tid(4)].into())); // {A, B, D}
        assert!(kept.contains(&[Tid(1), Tid(4), Tid(5)].into())); // {A, D, E}
                                                                  // D1 = {B, C} is an S-repair but not a C-repair.
        assert!(!kept.contains(&[Tid(2), Tid(3)].into()));
        assert_eq!(min_repair_distance(&db, &sigma).unwrap(), 2);
    }

    #[test]
    fn example_3_1_both_repairs_are_c_repairs() {
        // Both S-repairs of the Supply example delete/insert a single tuple.
        let mut db = Database::new();
        db.create_relation(RelationSchema::new(
            "Supply",
            ["Company", "Receiver", "Item"],
        ))
        .unwrap();
        db.create_relation(RelationSchema::new("Articles", ["Item"]))
            .unwrap();
        db.insert("Supply", tuple!["C1", "R1", "I1"]).unwrap();
        db.insert("Supply", tuple!["C2", "R2", "I2"]).unwrap();
        db.insert("Supply", tuple!["C2", "R1", "I3"]).unwrap();
        db.insert("Articles", tuple!["I1"]).unwrap();
        db.insert("Articles", tuple!["I2"]).unwrap();
        let sigma =
            ConstraintSet::from_iter([Tgd::parse("ID", "Articles(z) :- Supply(x, y, z)").unwrap()]);
        let crs = c_repairs(&db, &sigma).unwrap();
        assert_eq!(crs.len(), 2);
        assert!(crs.iter().all(|r| r.delta_size() == 1));
    }

    #[test]
    fn key_conflicts_c_equals_s() {
        // Pure key conflicts: every S-repair deletes one tuple per group, so
        // S-repairs and C-repairs coincide.
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["K", "V"]))
            .unwrap();
        db.insert("T", tuple![1, 10]).unwrap();
        db.insert("T", tuple![1, 20]).unwrap();
        db.insert("T", tuple![2, 30]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
        let s = crate::srepair::s_repairs(&db, &sigma).unwrap();
        let c = c_repairs(&db, &sigma).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn consistent_instance_min_distance_zero() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["K"])).unwrap();
        db.insert("T", tuple![1]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
        assert_eq!(min_repair_distance(&db, &sigma).unwrap(), 0);
        let crs = c_repairs(&db, &sigma).unwrap();
        assert_eq!(crs.len(), 1);
        assert_eq!(crs[0].delta_size(), 0);
    }

    #[test]
    fn asymmetric_conflict_sizes() {
        // One tuple in conflict with three others: C-repair deletes the hub.
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["A", "B"]))
            .unwrap();
        db.insert("R", tuple!["hub", 0]).unwrap();
        db.insert("R", tuple!["hub", 1]).unwrap();
        db.insert("R", tuple!["hub", 2]).unwrap();
        db.insert("R", tuple!["hub", 3]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("R", ["A"])]);
        let crs = c_repairs(&db, &sigma).unwrap();
        // Min hitting set deletes 3 of the 4; all 4 choices are minimum.
        assert_eq!(min_repair_distance(&db, &sigma).unwrap(), 3);
        assert_eq!(crs.len(), 4);
    }
}
