//! Inconsistency-tolerant semantics from the OBDA world (§8 of the paper;
//! Lembo et al. \[79\], Bienvenu \[29\]): **AR** and **IAR** answers, expressed
//! over relational repairs.
//!
//! * **AR** ("ABox Repair") semantics is exactly consistent query
//!   answering: true in every repair.
//! * **IAR** ("Intersection of ABox Repairs") semantics evaluates the query
//!   over the *intersection* of all repairs — the consistent core. IAR is a
//!   sound approximation of AR (`IAR ⊆ AR`) computable without enumerating
//!   answers per repair, which is why the OBDA literature uses it as the
//!   tractable fallback.

use crate::cqa::{consistent_answers, core_answers, RepairClass};
use crate::srepair::consistent_core;
use cqa_constraints::ConstraintSet;
use cqa_query::UnionQuery;
use cqa_relation::{Database, RelationError, Tid, Tuple};
use std::collections::BTreeSet;

/// AR answers: true in every repair (an alias of CQA, named for the OBDA
/// correspondence).
pub fn ar_answers(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
) -> Result<BTreeSet<Tuple>, RelationError> {
    consistent_answers(db, sigma, query, &RepairClass::Subset)
}

/// IAR answers: evaluate over the intersection of all S-repairs, as a view
/// of `db` without the tuples some S-repair deletes.
pub fn iar_answers(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
) -> Result<BTreeSet<Tuple>, RelationError> {
    let core = consistent_core(db, sigma)?;
    let conflicted: BTreeSet<Tid> = db.tids().difference(&core).copied().collect();
    Ok(core_answers(db, &conflicted, query))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_constraints::KeyConstraint;
    use cqa_query::{parse_query, NullSemantics};
    use cqa_relation::{tuple, RelationSchema};

    fn db() -> (Database, ConstraintSet) {
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
    fn iar_is_contained_in_ar() {
        let (db, sigma) = db();
        // Projection query: AR keeps `page` (some salary in every repair)
        // but IAR drops it (no page row is in the core).
        let q = UnionQuery::single(parse_query("Q(x) :- Employee(x, y)").unwrap());
        let ar = ar_answers(&db, &sigma, &q).unwrap();
        let iar = iar_answers(&db, &sigma, &q).unwrap();
        assert!(iar.is_subset(&ar));
        assert!(ar.contains(&tuple!["page"]));
        assert!(!iar.contains(&tuple!["page"]));
        assert!(iar.contains(&tuple!["smith"]));
    }

    #[test]
    fn on_full_rows_ar_and_iar_agree_for_keys() {
        let (db, sigma) = db();
        let q = UnionQuery::single(parse_query("Q(x, y) :- Employee(x, y)").unwrap());
        let ar = ar_answers(&db, &sigma, &q).unwrap();
        let iar = iar_answers(&db, &sigma, &q).unwrap();
        // A full row is in every key repair iff its key group is a
        // singleton iff it is in the core.
        assert_eq!(ar, iar);
        assert_eq!(ar, [tuple!["smith", 3000]].into());
    }

    #[test]
    fn consistent_db_both_equal_plain_eval() {
        let (mut db, sigma) = db();
        db.delete(cqa_relation::Tid(2)).unwrap();
        let q = UnionQuery::single(parse_query("Q(x, y) :- Employee(x, y)").unwrap());
        let plain = cqa_query::eval_ucq(&db, &q, NullSemantics::Structural);
        assert_eq!(ar_answers(&db, &sigma, &q).unwrap(), plain);
        assert_eq!(iar_answers(&db, &sigma, &q).unwrap(), plain);
    }
}
