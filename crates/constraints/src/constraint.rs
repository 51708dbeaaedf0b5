//! The umbrella constraint type and constraint sets.

use crate::cfd::ConditionalFd;
use crate::denial::DenialConstraint;
use crate::fd::{FunctionalDependency, KeyConstraint};
use crate::hypergraph::ConflictHypergraph;
use crate::ind::{Tgd, TgdViolation};
use cqa_relation::{Database, Facts, RelationError, Tid};
use std::collections::BTreeSet;
use std::fmt;

/// Any integrity constraint the workspace understands.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// A denial constraint `¬∃x̄ body`.
    Denial(DenialConstraint),
    /// A functional dependency `R: X → Y`.
    Fd(FunctionalDependency),
    /// A key constraint.
    Key(KeyConstraint),
    /// A conditional functional dependency.
    Cfd(ConditionalFd),
    /// A tuple-generating dependency (inclusion dependency).
    Tgd(Tgd),
}

impl Constraint {
    /// Does the constraint belong to the *denial class* (violations are sets
    /// of coexisting tuples; deletions always repair, insertions never
    /// break)? Tgds are the exception: they can demand insertions.
    pub fn is_denial_class(&self) -> bool {
        !matches!(self, Constraint::Tgd(_))
    }

    /// Compile to denial constraints, if in the denial class.
    pub fn to_denials(
        &self,
        db: &Database,
    ) -> Result<Option<Vec<DenialConstraint>>, RelationError> {
        match self {
            Constraint::Denial(d) => Ok(Some(vec![d.clone()])),
            Constraint::Fd(fd) => {
                let schema = db.require_relation(&fd.relation)?.schema().clone();
                fd.to_denials(&schema).map(Some)
            }
            Constraint::Key(kc) => {
                let schema = db.require_relation(&kc.relation)?.schema().clone();
                kc.to_denials(&schema).map(Some)
            }
            Constraint::Cfd(cfd) => {
                let schema = db.require_relation(&cfd.relation)?.schema().clone();
                cfd.to_denials(&schema).map(Some)
            }
            Constraint::Tgd(_) => Ok(None),
        }
    }

    /// Is the constraint satisfied by the visible facts?
    pub fn is_satisfied<F: Facts + ?Sized>(&self, facts: &F) -> Result<bool, RelationError> {
        match self {
            Constraint::Denial(d) => Ok(d.is_satisfied(facts)),
            Constraint::Fd(fd) => fd.is_satisfied(facts),
            Constraint::Key(kc) => kc.is_satisfied(facts),
            Constraint::Cfd(cfd) => cfd.is_satisfied(facts),
            Constraint::Tgd(t) => Ok(t.is_satisfied(facts)),
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Denial(d) => d.fmt(f),
            Constraint::Fd(fd) => fd.fmt(f),
            Constraint::Key(kc) => kc.fmt(f),
            Constraint::Cfd(cfd) => cfd.fmt(f),
            Constraint::Tgd(t) => write!(f, "tgd {}", t.name),
        }
    }
}

impl From<DenialConstraint> for Constraint {
    fn from(d: DenialConstraint) -> Self {
        Constraint::Denial(d)
    }
}
impl From<FunctionalDependency> for Constraint {
    fn from(d: FunctionalDependency) -> Self {
        Constraint::Fd(d)
    }
}
impl From<KeyConstraint> for Constraint {
    fn from(d: KeyConstraint) -> Self {
        Constraint::Key(d)
    }
}
impl From<ConditionalFd> for Constraint {
    fn from(d: ConditionalFd) -> Self {
        Constraint::Cfd(d)
    }
}
impl From<Tgd> for Constraint {
    fn from(d: Tgd) -> Self {
        Constraint::Tgd(d)
    }
}

/// An ordered set of constraints (the paper's Σ).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConstraintSet {
    /// The constraints, in declaration order.
    pub constraints: Vec<Constraint>,
}

impl ConstraintSet {
    /// Empty Σ.
    pub fn new() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// Add one constraint.
    pub fn push(&mut self, c: impl Into<Constraint>) {
        self.constraints.push(c.into());
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// True iff Σ is empty.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Do all constraints hold (`D ⊨ Σ`)?
    pub fn is_satisfied<F: Facts + ?Sized>(&self, facts: &F) -> Result<bool, RelationError> {
        for c in &self.constraints {
            if !c.is_satisfied(facts)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Is every constraint in the denial class?
    pub fn is_denial_class(&self) -> bool {
        self.constraints.iter().all(Constraint::is_denial_class)
    }

    /// The tgds of Σ.
    pub fn tgds(&self) -> impl Iterator<Item = &Tgd> {
        self.constraints.iter().filter_map(|c| match c {
            Constraint::Tgd(t) => Some(t),
            _ => None,
        })
    }

    /// Compile every denial-class constraint of Σ to denial constraints.
    pub fn all_denials(&self, db: &Database) -> Result<Vec<DenialConstraint>, RelationError> {
        let mut out = Vec::new();
        for c in &self.constraints {
            if let Some(ds) = c.to_denials(db)? {
                out.extend(ds);
            }
        }
        Ok(out)
    }

    /// All denial-class violation sets of the visible facts against Σ.
    ///
    /// Denial compilation only needs schemas, which live on the base, so the
    /// check itself runs on the (possibly virtual) view.
    pub fn denial_violations<F: Facts + ?Sized>(
        &self,
        facts: &F,
    ) -> Result<BTreeSet<BTreeSet<Tid>>, RelationError> {
        let mut out = BTreeSet::new();
        for d in self.all_denials(facts.base())? {
            // A merge of two sorted sets (a move when `out` is empty), not
            // one tree insertion per violation set.
            out.append(&mut d.violations(facts));
        }
        Ok(out)
    }

    /// The denial-class violation sets involving at least one tuple from
    /// `touched`: the union over Σ's denials of
    /// [`DenialConstraint::violations_delta`]. Together with the retained
    /// old sets (those disjoint from `touched`) this reconstitutes
    /// [`ConstraintSet::denial_violations`] exactly — the incremental
    /// maintenance identity `cqa-core`'s delta pipeline is built on.
    pub fn denial_violations_delta<F: Facts + ?Sized>(
        &self,
        facts: &F,
        touched: &BTreeSet<Tid>,
    ) -> Result<BTreeSet<BTreeSet<Tid>>, RelationError> {
        let mut out = BTreeSet::new();
        for d in self.all_denials(facts.base())? {
            out.extend(d.violations_delta(facts, touched));
        }
        Ok(out)
    }

    /// All tgd violations of the visible facts against Σ.
    pub fn tgd_violations<F: Facts + ?Sized>(&self, facts: &F) -> Vec<TgdViolation> {
        self.tgds().flat_map(|t| t.violations(facts)).collect()
    }

    /// Build the conflict hyper-graph (§4.1) for the denial-class part of Σ.
    ///
    /// Errors if Σ contains a tgd: tgd inconsistencies are not representable
    /// as coexistence conflicts (they may require insertions).
    pub fn conflict_hypergraph<F: Facts + ?Sized>(
        &self,
        facts: &F,
    ) -> Result<ConflictHypergraph, RelationError> {
        if !self.is_denial_class() {
            return Err(RelationError::Parse(
                "conflict hypergraphs require denial-class constraints only (no tgds)".into(),
            ));
        }
        Ok(ConflictHypergraph::new(
            facts.visible_tids(),
            self.denial_violations(facts)?,
        ))
    }
}

/// Σ from anything convertible (`ConstraintSet::from_iter([...])` keeps
/// working through this std trait impl).
impl<C: Into<Constraint>> FromIterator<C> for ConstraintSet {
    fn from_iter<T: IntoIterator<Item = C>>(items: T) -> ConstraintSet {
        ConstraintSet {
            constraints: items.into_iter().map(Into::into).collect(),
        }
    }
}

impl fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.constraints {
            writeln!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_relation::{tuple, Database, RelationSchema, Value};

    /// Example 4.1's instance: D = {A(a), B(a), C(a), D(a), E(a)}.
    fn example_4_1() -> (Database, ConstraintSet) {
        let mut db = Database::new();
        for r in ["A", "B", "C", "D", "E"] {
            db.create_relation(RelationSchema::new(r, ["X"])).unwrap();
        }
        for r in ["A", "B", "C", "D", "E"] {
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
    fn example_4_1_hypergraph_matches_figure_1() {
        let (db, sigma) = example_4_1();
        let g = sigma.conflict_hypergraph(&db).unwrap();
        // tids: A(a)=1, B(a)=2, C(a)=3, D(a)=4, E(a)=5 in insertion order.
        assert_eq!(g.edge_count(), 3);
        let edges: BTreeSet<BTreeSet<Tid>> = g.edges.iter().cloned().collect();
        assert!(edges.contains(&[Tid(2), Tid(5)].into()));
        assert!(edges.contains(&[Tid(2), Tid(3), Tid(4)].into()));
        assert!(edges.contains(&[Tid(1), Tid(3)].into()));
        // The four S-repairs of Example 4.1:
        let repairs = g.maximal_independent_sets(None);
        assert_eq!(repairs.len(), 4);
    }

    #[test]
    fn mixed_sigma_satisfaction() {
        let (db, mut sigma) = example_4_1();
        assert!(!sigma.is_satisfied(&db).unwrap());
        assert!(sigma.is_denial_class());
        sigma.push(Tgd::parse("t", "B(x) :- A(x)").unwrap());
        assert!(!sigma.is_denial_class());
        assert!(sigma.conflict_hypergraph(&db).is_err());
        assert_eq!(sigma.tgds().count(), 1);
    }

    #[test]
    fn constraint_set_with_fd_and_cfd() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["A", "B"]))
            .unwrap();
        db.insert("T", tuple![1, 10]).unwrap();
        db.insert("T", tuple![1, 20]).unwrap();
        let sigma = ConstraintSet::from_iter([Constraint::Fd(FunctionalDependency::new(
            "T",
            ["A"],
            ["B"],
        ))]);
        assert!(!sigma.is_satisfied(&db).unwrap());
        let g = sigma.conflict_hypergraph(&db).unwrap();
        assert_eq!(g.edge_count(), 1);
        let cfd_sigma = ConstraintSet::from_iter([Constraint::Cfd(ConditionalFd::new(
            "T",
            vec![("A", Some(Value::int(999)))],
            "B",
            None,
        ))]);
        assert!(cfd_sigma.is_satisfied(&db).unwrap());
    }

    #[test]
    fn empty_sigma_always_satisfied() {
        let (db, _) = example_4_1();
        let sigma = ConstraintSet::new();
        assert!(sigma.is_satisfied(&db).unwrap());
        assert!(sigma.is_empty());
        let g = sigma.conflict_hypergraph(&db).unwrap();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.isolated_nodes().len(), 5);
    }
}
