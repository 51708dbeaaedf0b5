//! Incremental repairs under updates (§4.1 of the paper; Lopatenko–Bertossi
//! \[87\] "just started to scratch the surface in this direction").
//!
//! When a *consistent* instance receives new tuples, every fresh violation
//! of a denial-class Σ must involve at least one new tuple (denial bodies
//! are monotone). The incremental engine therefore builds the conflict
//! hyper-graph from the new violations only and repairs locally, instead of
//! re-enumerating from scratch. Results provably coincide with the full
//! engine (tested), but the work is proportional to the *update's* conflict
//! neighbourhood.

use crate::repair::Repair;
use crate::srepair::{denial_class_s_repairs, RepairOptions};
use cqa_constraints::{ConflictHypergraph, ConstraintSet};
use cqa_exec::Budget;
use cqa_relation::{Database, DeltaView, Facts, RelationError, Tid, Tuple};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The result of an incremental repair round.
#[derive(Debug, Clone)]
pub struct IncrementalRepairs {
    /// The updated (possibly inconsistent) instance, shared as the base of
    /// the returned repairs (deref-coerces to `&Database`).
    pub updated: Arc<Database>,
    /// Tids assigned to the inserted tuples.
    pub new_tids: Vec<Tid>,
    /// The repairs of the updated instance.
    pub repairs: Vec<Repair>,
}

/// Insert `new_tuples` into consistent `db` and repair incrementally.
///
/// Requires `db ⊨ sigma` (errors otherwise) and denial-class Σ.
pub fn repairs_after_insert(
    db: &Database,
    sigma: &ConstraintSet,
    new_tuples: &[(String, Tuple)],
) -> Result<IncrementalRepairs, RelationError> {
    if !sigma.is_denial_class() {
        return Err(RelationError::Parse(
            "incremental repairs support denial-class constraints only".into(),
        ));
    }
    if !sigma.is_satisfied(db)? {
        return Err(RelationError::Parse(
            "incremental repairs start from a consistent instance".into(),
        ));
    }
    let (updated, new_tids) = db.with_changes(&BTreeSet::new(), new_tuples)?;
    let updated = Arc::new(updated);

    // Every violation of the updated instance involves a new tuple (denial
    // bodies are monotone and `db` was consistent), so the delta join over
    // the new tids finds them all — no full rescan. Debug builds assert the
    // locality property against the reference scan.
    let new_set: BTreeSet<Tid> = new_tids.iter().copied().collect();
    let violations = sigma.denial_violations_delta(&*updated, &new_set)?;
    debug_assert_eq!(violations, sigma.denial_violations(&*updated)?);

    let graph = ConflictHypergraph::new(updated.tids(), violations);
    let options = RepairOptions::default();
    let repairs = denial_class_s_repairs(&updated, &graph, &options, &Budget::unlimited())?;
    Ok(IncrementalRepairs {
        updated,
        new_tids,
        repairs: repairs.into_value(),
    })
}

/// Is the updated instance still consistent after inserting `new_tuples`
/// (no repair needed)?
///
/// For denial-class Σ nothing is materialized: the insertions are overlaid
/// as a [`DeltaView`] and only the delta join runs — by monotonicity the
/// updated instance satisfies Σ iff the base did and no new violation
/// touches an inserted tuple. Σ with tgds falls back to materializing.
pub fn insert_preserves_consistency(
    db: &Database,
    sigma: &ConstraintSet,
    new_tuples: &[(String, Tuple)],
) -> Result<bool, RelationError> {
    if sigma.is_denial_class() {
        if !sigma.is_satisfied(db)? {
            return Ok(false);
        }
        let deleted = BTreeSet::new();
        let view = DeltaView::new(db, &deleted, new_tuples);
        let touched: BTreeSet<Tid> = new_tuples
            .iter()
            .map(|(name, _)| name.as_str())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .flat_map(|name| view.overlay_rows(name).iter().map(|(tid, _)| *tid))
            .collect();
        return Ok(sigma.denial_violations_delta(&view, &touched)?.is_empty());
    }
    let (updated, _) = db.with_changes(&BTreeSet::new(), new_tuples)?;
    sigma.is_satisfied(&updated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srepair::s_repairs;
    use cqa_constraints::KeyConstraint;
    use cqa_relation::{tuple, RelationSchema};

    fn base() -> (Database, ConstraintSet) {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["K", "V"]))
            .unwrap();
        db.insert("T", tuple![1, 10]).unwrap();
        db.insert("T", tuple![2, 20]).unwrap();
        db.insert("T", tuple![3, 30]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
        (db, sigma)
    }

    #[test]
    fn conflicting_insert_produces_local_repairs() {
        let (db, sigma) = base();
        let inc = repairs_after_insert(&db, &sigma, &[("T".into(), tuple![1, 99])]).unwrap();
        assert_eq!(inc.repairs.len(), 2);
        // Each repair deletes exactly one of the conflicting pair; tuples
        // 2 and 3 are never touched.
        for r in &inc.repairs {
            assert_eq!(r.deleted.len(), 1);
            assert!(!r.deleted.contains(&Tid(2)));
            assert!(!r.deleted.contains(&Tid(3)));
            assert!(sigma.is_satisfied(r.db()).unwrap());
        }
    }

    #[test]
    fn incremental_agrees_with_full_engine() {
        let (db, sigma) = base();
        let new = vec![
            ("T".to_string(), tuple![1, 99]),
            ("T".to_string(), tuple![2, 88]),
        ];
        let inc = repairs_after_insert(&db, &sigma, &new).unwrap();
        let full = s_repairs(&inc.updated, &sigma).unwrap();
        let a: BTreeSet<BTreeSet<Tid>> = inc.repairs.iter().map(|r| r.deleted.clone()).collect();
        let b: BTreeSet<BTreeSet<Tid>> = full.iter().map(|r| r.deleted.clone()).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4); // 2 × 2 independent choices
    }

    #[test]
    fn clean_insert_yields_one_trivial_repair() {
        let (db, sigma) = base();
        assert!(insert_preserves_consistency(&db, &sigma, &[("T".into(), tuple![4, 40])]).unwrap());
        let inc = repairs_after_insert(&db, &sigma, &[("T".into(), tuple![4, 40])]).unwrap();
        assert_eq!(inc.repairs.len(), 1);
        assert_eq!(inc.repairs[0].delta_size(), 0);
    }

    #[test]
    fn inconsistent_start_is_rejected() {
        let (mut db, sigma) = base();
        db.insert("T", tuple![1, 11]).unwrap();
        assert!(repairs_after_insert(&db, &sigma, &[]).is_err());
    }

    #[test]
    fn consistency_check_runs_on_the_view_without_materializing() {
        let (db, sigma) = base();
        // Conflicting insert: detected by the delta join over the overlay.
        assert!(
            !insert_preserves_consistency(&db, &sigma, &[("T".into(), tuple![1, 99])]).unwrap()
        );
        // An inconsistent base never becomes consistent by inserting.
        let (mut dirty, _) = base();
        dirty.insert("T", tuple![1, 11]).unwrap();
        assert!(
            !insert_preserves_consistency(&dirty, &sigma, &[("T".into(), tuple![9, 9])]).unwrap()
        );
        // Σ with a tgd takes the materializing fallback.
        let mut with_tgd = sigma.clone();
        with_tgd.push(cqa_constraints::Tgd::parse("t", "T(v, v) :- T(k, v)").unwrap());
        assert!(
            !insert_preserves_consistency(&db, &with_tgd, &[("T".into(), tuple![4, 40])]).unwrap()
        );
    }

    #[test]
    fn duplicate_insert_is_a_noop() {
        let (db, sigma) = base();
        let inc = repairs_after_insert(&db, &sigma, &[("T".into(), tuple![1, 10])]).unwrap();
        assert_eq!(inc.updated.total_tuples(), 3); // set semantics
        assert_eq!(inc.repairs.len(), 1);
        assert_eq!(inc.repairs[0].delta_size(), 0);
    }
}
