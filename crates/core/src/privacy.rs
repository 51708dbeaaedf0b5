//! Data privacy through secrecy views and null-based virtual updates
//! (§4.3 of the paper; Bertossi–Li \[24\]).
//!
//! A *secrecy view* is a conjunctive query whose contents must stay hidden.
//! The mechanism of \[24\]: demand — as an integrity constraint — that the
//! view be **empty**, and *virtually* repair the instance with the
//! attribute-level null updates of §4.3. User queries are then answered
//! certainly over the class of virtual repairs: on every repair the view is
//! empty (a null never satisfies a join), so nothing a user can ask reveals
//! a secret tuple, while everything not implicated in a secret keeps its
//! exact answers.

use crate::attr_repair::attribute_repairs;
use crate::cqa::certain_over;
use cqa_constraints::{ConstraintSet, DenialConstraint};
use cqa_query::{ConjunctiveQuery, NullSemantics, UnionQuery};
use cqa_relation::{Database, RelationError, Tuple};
use std::collections::BTreeSet;

/// A secrecy view: a conjunctive query whose answers must be hidden.
#[derive(Debug, Clone)]
pub struct SecrecyView {
    /// The view definition.
    pub view: ConjunctiveQuery,
}

impl SecrecyView {
    /// Define a secrecy view.
    pub fn new(view: ConjunctiveQuery) -> SecrecyView {
        SecrecyView { view }
    }

    /// The emptiness constraint: `¬∃x̄ body(view)`. A view with negated
    /// atoms is rejected, as [`DenialConstraint::new`] rejects any negated
    /// body.
    fn emptiness_constraint(&self) -> Result<DenialConstraint, RelationError> {
        let mut body = self.view.clone();
        body.head.clear();
        DenialConstraint::new("secrecy", body)
    }

    /// The virtual repairs: minimal attribute-null updates under which the
    /// view is empty.
    pub fn virtual_instances(&self, db: &Database) -> Result<Vec<Database>, RelationError> {
        let sigma = ConstraintSet::from_iter([self.emptiness_constraint()?]);
        Ok(attribute_repairs(db, &sigma)?
            .into_iter()
            .map(|r| r.db)
            .collect())
    }

    /// Answer a user query without leaking the view: certain answers over
    /// the virtual repairs (SQL null semantics, null-containing answers
    /// dropped).
    pub fn secure_answers(
        &self,
        db: &Database,
        query: &UnionQuery,
    ) -> Result<BTreeSet<Tuple>, RelationError> {
        Ok(certain_over(&self.virtual_instances(db)?, query))
    }

    /// Sanity predicate used by tests and audits: the view is empty on every
    /// virtual instance.
    pub fn is_hidden_everywhere(&self, db: &Database) -> Result<bool, RelationError> {
        let view_q = UnionQuery::single(self.view.clone());
        for inst in self.virtual_instances(db)? {
            if !cqa_query::eval_ucq(&inst, &view_q, NullSemantics::Sql)
                .into_iter()
                .filter(|t| !t.has_null())
                .collect::<BTreeSet<_>>()
                .is_empty()
            {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::parse_query;
    use cqa_relation::{tuple, RelationSchema};

    /// Personnel data where the salary of managers is secret.
    fn db() -> Database {
        let mut d = Database::new();
        d.create_relation(RelationSchema::new("Emp", ["Name", "Salary"]))
            .unwrap();
        d.create_relation(RelationSchema::new("Mgr", ["Name"]))
            .unwrap();
        d.insert("Emp", tuple!["page", 5000]).unwrap();
        d.insert("Emp", tuple!["smith", 3000]).unwrap();
        d.insert("Mgr", tuple!["page"]).unwrap();
        d
    }

    fn secret() -> SecrecyView {
        // V(n, s): Emp(n, s) ∧ Mgr(n) — manager salaries.
        SecrecyView::new(parse_query("V(n, s) :- Emp(n, s), Mgr(n)").unwrap())
    }

    #[test]
    fn view_is_empty_on_every_virtual_instance() {
        let db = db();
        let view = secret();
        assert!(!view.virtual_instances(&db).unwrap().is_empty());
        assert!(view.is_hidden_everywhere(&db).unwrap());
    }

    #[test]
    fn secret_data_is_not_answerable() {
        let db = db();
        let view = secret();
        // Asking for page's salary through the view join yields nothing…
        let q = UnionQuery::single(parse_query("Q(s) :- Emp('page', s), Mgr('page')").unwrap());
        assert!(view.secure_answers(&db, &q).unwrap().is_empty());
        // …and even the plain page row is not *certain* (some repair nulls
        // its cells, others null the Mgr tuple — the salary is protected
        // whenever the join is).
        let q2 = UnionQuery::single(parse_query("Q(s) :- Emp('page', s)").unwrap());
        let ans = view.secure_answers(&db, &q2).unwrap();
        assert!(!ans.contains(&tuple![5000]) || ans.is_empty());
    }

    #[test]
    fn non_secret_data_is_fully_answerable() {
        let db = db();
        let view = secret();
        let q = UnionQuery::single(parse_query("Q(s) :- Emp('smith', s)").unwrap());
        let ans = view.secure_answers(&db, &q).unwrap();
        assert_eq!(ans, [tuple![3000]].into());
    }

    #[test]
    fn empty_view_changes_nothing() {
        let mut d = db();
        let tid = d.relation("Mgr").unwrap().tid_of(&tuple!["page"]).unwrap();
        d.delete(tid).unwrap();
        let view = secret();
        // View already empty: the only virtual instance is D itself.
        let instances = view.virtual_instances(&d).unwrap();
        assert_eq!(instances.len(), 1);
        assert!(instances[0].same_content(&d));
        let q = UnionQuery::single(parse_query("Q(n, s) :- Emp(n, s)").unwrap());
        assert_eq!(view.secure_answers(&d, &q).unwrap().len(), 2);
    }

    #[test]
    fn negated_views_rejected() {
        let v = SecrecyView::new(parse_query("V(n) :- Mgr(n), not Emp(n, n)").unwrap());
        assert!(v.virtual_instances(&db()).is_err());
    }
}
