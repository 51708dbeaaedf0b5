//! Repair-based inconsistency measures (§8; Bertossi \[16, 17\]).
//!
//! The paper closes where it began: "measuring the degree of inconsistency of
//! a database … repairs can be used as a basis for such a task". The measure
//! implemented here is the cardinality-repair measure of \[17\]:
//!
//! `inc(D, Σ) = |D ∖ D'| / |D|` for any C-repair `D'` obtained by deletions —
//! i.e. the fraction of the database that must go to restore consistency.
//! We also expose the S-repair *core gap*: the fraction of tuples that fail
//! to persist in every S-repair.

use cqa_constraints::ConstraintSet;
use cqa_relation::{Database, RelationError};

/// The cardinality-repair inconsistency degree: minimum fraction of tuples
/// whose deletion restores consistency. `0.0` iff consistent; defined for
/// denial-class Σ (deletions always suffice there).
pub fn inconsistency_degree(db: &Database, sigma: &ConstraintSet) -> Result<f64, RelationError> {
    let n = db.total_tuples();
    if n == 0 {
        return Ok(0.0);
    }
    Ok(crate::crepair::minimum_deletions(db, sigma)? as f64 / n as f64)
}

/// The core gap: fraction of tuples that do *not* persist across all
/// S-repairs (1 − |core| / |D|). Always ≥ the inconsistency degree.
pub fn core_gap(db: &Database, sigma: &ConstraintSet) -> Result<f64, RelationError> {
    let n = db.total_tuples();
    if n == 0 {
        return Ok(0.0);
    }
    let core = crate::srepair::consistent_core(db, sigma)?;
    Ok(1.0 - core.len() as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_constraints::KeyConstraint;
    use cqa_relation::{tuple, RelationSchema};

    fn db_with_conflicts(pairs: usize, clean: usize) -> Database {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["K", "V"]))
            .unwrap();
        for i in 0..pairs {
            db.insert("T", tuple![i as i64, 0]).unwrap();
            db.insert("T", tuple![i as i64, 1]).unwrap();
        }
        for i in 0..clean {
            db.insert("T", tuple![(1000 + i) as i64, 0]).unwrap();
        }
        db
    }

    #[test]
    fn consistent_db_measures_zero() {
        let db = db_with_conflicts(0, 5);
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
        assert_eq!(inconsistency_degree(&db, &sigma).unwrap(), 0.0);
        assert_eq!(core_gap(&db, &sigma).unwrap(), 0.0);
    }

    #[test]
    fn degree_grows_with_conflicts() {
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
        let low = inconsistency_degree(&db_with_conflicts(1, 8), &sigma).unwrap();
        let high = inconsistency_degree(&db_with_conflicts(4, 2), &sigma).unwrap();
        assert!(low < high);
        assert!((low - 0.1).abs() < 1e-9); // 1 deletion out of 10 tuples
        assert!((high - 0.4).abs() < 1e-9); // 4 deletions out of 10
    }

    #[test]
    fn core_gap_dominates_degree() {
        let db = db_with_conflicts(2, 3);
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
        let deg = inconsistency_degree(&db, &sigma).unwrap();
        let gap = core_gap(&db, &sigma).unwrap();
        assert!(gap >= deg);
        // Both tuples of each conflicting pair fall out of the core.
        assert!((gap - 4.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn empty_db_is_consistent() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["K", "V"]))
            .unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
        assert_eq!(inconsistency_degree(&db, &sigma).unwrap(), 0.0);
    }
}
