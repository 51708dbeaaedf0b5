//! Factored repair sets: one repair family per conflict component, never
//! the expanded cross-product.
//!
//! Every repair of a denial-class instance is the frozen core plus an
//! independent choice of one component-local repair per connected component
//! of the conflict hyper-graph (`cqa-constraints::components`). A
//! [`FactoredRepairSet`] keeps exactly that: the shared base instance, the
//! factorization, and the per-component deletion families. The monolithic
//! family is recoverable two ways, both without ever *storing* the product:
//!
//! * [`FactoredRepairSet::deltas`] — a lazy odometer iterator yielding the
//!   combined deletion sets one at a time, in canonical (component-major)
//!   order; the component-spanning CQA fold streams over it.
//! * [`FactoredRepairSet::expand`] — materializes `Vec<Repair>` for callers
//!   whose API contract is the full list (`s_repairs` itself). The *search*
//!   still paid `Σ_c cost(c)` instead of the monolithic product-shaped
//!   tree.
//!
//! The component-aware certain/possible folds in [`crate::cqa`] avoid even
//! the lazy iteration when no query witness spans two components: one scan
//! of the query's witnesses, sliced by component, is folded over the
//! `Σ_c |family_c|` local deletion sets instead of evaluating the query
//! over `∏_c |family_c|` repairs.
//!
//! Every denial-class consumer takes this form at any component count: a
//! consistent instance is a product of no factors, a lone component a
//! product of one.

// audit:exponential — per-component repair families multiply out; every search loop must thread a Budget.
use crate::repair::Repair;
use cqa_constraints::{ConflictComponents, ConflictHypergraph, ConstraintSet, FactoredFamilies};
use cqa_exec::{Budget, Outcome};
use cqa_relation::{Database, RelationError, Tid};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Shape summary of a factorized run, surfaced through the planner's
/// diagnostics and `repairctl analyze --components`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Factorization {
    /// Number of connected components of the conflict hyper-graph.
    pub components: usize,
    /// Tuple count of the largest component.
    pub largest: usize,
    /// Total count of component-local repairs stored (`Σ_c |family_c|`).
    pub factored_repairs: usize,
    /// Size of the monolithic repair family (`∏_c |family_c|`); `None` when
    /// it overflows `usize` — the case factorization exists to avoid.
    pub product_repairs: Option<usize>,
    /// Did some query witness span two components, forcing the fold back
    /// onto (lazy) product iteration?
    pub spanning: bool,
    /// Witnesses of the query over the whole instance that the component
    /// fold sliced, when that fold ran; `None` when the answers came from
    /// the lazy product, or from a fallback before any fold.
    pub witnesses: Option<usize>,
}

impl Factorization {
    /// The shape of `families` over `components`.
    pub(crate) fn of(
        components: &ConflictComponents,
        families: &FactoredFamilies,
        spanning: bool,
        witnesses: Option<usize>,
    ) -> Factorization {
        Factorization {
            components: components.components.len(),
            largest: components.largest_component(),
            factored_repairs: families.factored_len(),
            product_repairs: families.product_len(),
            spanning,
            witnesses,
        }
    }
}

/// A repair family in factored form: frozen core + one deletion family per
/// conflict component. Deletion-only by construction (denial-class Σ).
#[derive(Debug, Clone)]
pub struct FactoredRepairSet {
    base: Arc<Database>,
    components: Arc<ConflictComponents>,
    families: FactoredFamilies,
}

impl FactoredRepairSet {
    /// Enumerate all **minimal** hitting sets per component (the S-repair
    /// factorization) of `graph`, which must have been built from `base`.
    /// Soundness under truncation matches
    /// [`ConflictComponents::minimal_hitting_sets_factored`].
    pub fn enumerate_minimal(
        base: &Arc<Database>,
        graph: &ConflictHypergraph,
        budget: &Budget,
    ) -> Outcome<FactoredRepairSet> {
        let components = graph.components();
        components
            .minimal_hitting_sets_factored(budget)
            .map(|families| FactoredRepairSet {
                base: Arc::clone(base),
                components,
                families,
            })
    }

    /// Enumerate all **minimum** hitting sets per component (the C-repair
    /// factorization): the global minima are exactly the cross-products of
    /// the per-component minimum families, so the minimum distance is the
    /// sum of the per-component optima. Empty families when the budget died
    /// during a size proof (mirroring the monolithic contract).
    pub fn enumerate_minimum(
        base: &Arc<Database>,
        graph: &ConflictHypergraph,
        budget: &Budget,
    ) -> Outcome<FactoredRepairSet> {
        let components = graph.components();
        components
            .minimum_hitting_sets_factored(budget)
            .map(|(_, families)| FactoredRepairSet {
                base: Arc::clone(base),
                components,
                families,
            })
    }

    /// The shared base instance.
    pub fn base(&self) -> &Arc<Database> {
        &self.base
    }

    /// The underlying factorization (frozen core + component graphs).
    pub fn components(&self) -> &Arc<ConflictComponents> {
        &self.components
    }

    /// The per-component deletion families, canonical component order.
    pub fn families(&self) -> &FactoredFamilies {
        &self.families
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.components.components.len()
    }

    /// Size of the monolithic family (`None` on overflow).
    pub fn product_len(&self) -> Option<usize> {
        self.families.product_len()
    }

    /// Total component-local sets stored (the factored representation size).
    pub fn factored_len(&self) -> usize {
        self.families.factored_len()
    }

    /// The shape summary for diagnostics.
    pub fn factorization(&self, spanning: bool) -> Factorization {
        Factorization::of(&self.components, &self.families, spanning, None)
    }

    /// Lazy iterator over the combined (global) deletion sets of the
    /// cross-product, in component-major order. Nothing product-sized is
    /// ever stored; each item is built from the current odometer position.
    pub fn deltas(&self) -> ProductDeltas<'_> {
        ProductDeltas::over(&self.families.families)
    }

    /// Materialize the monolithic repair list (sorted by delta, the
    /// [`crate::s_repairs`] output order). The output is byte-identical to
    /// the monolithic enumeration whenever the families are exact, because
    /// the global minimal (resp. minimum) hitting sets are exactly the
    /// unions of one local set per component.
    pub fn expand(&self) -> Result<Vec<Repair>, RelationError> {
        self.expand_budgeted(&Budget::unlimited())
    }

    /// [`expand`](FactoredRepairSet::expand) under a meter: each product
    /// position charges one item before it is materialized, so a budget
    /// that exhausts (or is cancelled — e.g. the client hung up) stops the
    /// odometer instead of expanding the full cross-product. The prefix
    /// kept is a sound subset of the true family; an unexhausted budget
    /// yields output byte-identical to [`expand`].
    ///
    /// [`expand`]: FactoredRepairSet::expand
    pub fn expand_budgeted(&self, budget: &Budget) -> Result<Vec<Repair>, RelationError> {
        let mut out = Vec::new();
        for deleted in self.deltas() {
            if !budget.charge_item() {
                break;
            }
            out.push(Repair::from_delta(&self.base, deleted, Vec::new())?);
        }
        crate::repair::sort_by_delta(&mut out);
        Ok(out)
    }
}

/// Odometer iterator over the cross-product of per-component deletion
/// families; see [`FactoredRepairSet::deltas`]. With zero components it
/// yields the single empty delta (the consistent instance's one repair).
#[derive(Debug)]
pub struct ProductDeltas<'a> {
    families: &'a [Vec<BTreeSet<Tid>>],
    indices: Vec<usize>,
    done: bool,
}

impl<'a> ProductDeltas<'a> {
    /// The odometer over the cross-product of `families`, at its start.
    pub(crate) fn over(families: &'a [Vec<BTreeSet<Tid>>]) -> ProductDeltas<'a> {
        ProductDeltas {
            families,
            indices: vec![0; families.len()],
            done: families.iter().any(Vec::is_empty),
        }
    }

    /// How many deltas remain (including the one `next` would yield now);
    /// `None` on overflow.
    pub fn remaining_len(&self) -> Option<usize> {
        if self.done {
            return Some(0);
        }
        // Position value of the odometer + remaining suffix product.
        let mut total: usize = 1;
        let mut consumed: usize = 0;
        for (i, family) in self.families.iter().enumerate() {
            total = total.checked_mul(family.len())?;
            consumed = consumed
                .checked_mul(family.len())?
                .checked_add(self.indices[i])?;
        }
        total.checked_sub(consumed)
    }
}

impl Iterator for ProductDeltas<'_> {
    type Item = BTreeSet<Tid>;

    fn next(&mut self) -> Option<BTreeSet<Tid>> {
        if self.done {
            return None;
        }
        let mut combined = BTreeSet::new();
        for (family, &i) in self.families.iter().zip(&self.indices) {
            combined.extend(family[i].iter().copied());
        }
        // Advance the odometer, least-significant (last) component first.
        self.done = true;
        for pos in (0..self.indices.len()).rev() {
            self.indices[pos] += 1;
            if self.indices[pos] < self.families[pos].len() {
                self.done = false;
                break;
            }
            self.indices[pos] = 0;
        }
        Some(combined)
    }
}

/// Factored S-repair enumeration straight from Σ: `None` when Σ is not
/// denial-class (insertions may be needed; there is no hitting-set
/// factorization to speak of).
pub fn factored_s_repairs_budgeted(
    db: &Arc<Database>,
    sigma: &ConstraintSet,
    budget: &Budget,
) -> Result<Option<Outcome<FactoredRepairSet>>, RelationError> {
    if !sigma.is_denial_class() {
        return Ok(None);
    }
    let graph = sigma.conflict_hypergraph(&**db)?;
    Ok(Some(FactoredRepairSet::enumerate_minimal(
        db, &graph, budget,
    )))
}

/// Factored C-repair enumeration straight from Σ; `None` when Σ is not
/// denial-class.
pub fn factored_c_repairs_budgeted(
    db: &Arc<Database>,
    sigma: &ConstraintSet,
    budget: &Budget,
) -> Result<Option<Outcome<FactoredRepairSet>>, RelationError> {
    if !sigma.is_denial_class() {
        return Ok(None);
    }
    let graph = sigma.conflict_hypergraph(&**db)?;
    Ok(Some(FactoredRepairSet::enumerate_minimum(
        db, &graph, budget,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srepair::{s_repairs, RepairOptions};
    use cqa_constraints::KeyConstraint;
    use cqa_relation::{tuple, RelationSchema, Tuple, Value};

    /// Two independent key groups (2 rows each) plus a clean row: two pair
    /// components, frozen core of one tuple, 4 monolithic repairs.
    fn two_group_db() -> (Database, ConstraintSet) {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["K", "V"]))
            .unwrap();
        db.insert("T", tuple![1, 10]).unwrap();
        db.insert("T", tuple![1, 11]).unwrap();
        db.insert("T", tuple![2, 20]).unwrap();
        db.insert("T", tuple![2, 21]).unwrap();
        db.insert("T", tuple![3, 30]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
        (db, sigma)
    }

    #[test]
    fn factored_expansion_matches_monolithic_s_repairs() {
        let (db, sigma) = two_group_db();
        let base = Arc::new(db.clone());
        let fx = factored_s_repairs_budgeted(&base, &sigma, &Budget::unlimited())
            .unwrap()
            .expect("denial-class")
            .into_value();
        assert_eq!(fx.component_count(), 2);
        assert_eq!(fx.product_len(), Some(4));
        assert_eq!(fx.factored_len(), 4); // 2 + 2
        let expanded = fx.expand().unwrap();
        let monolithic = s_repairs(&db, &sigma).unwrap();
        assert_eq!(expanded.len(), monolithic.len());
        for (a, b) in expanded.iter().zip(&monolithic) {
            assert_eq!(a.delta(), b.delta());
        }
    }

    #[test]
    fn lazy_deltas_cover_the_product_exactly_once() {
        let (db, sigma) = two_group_db();
        let base = Arc::new(db.clone());
        let fx = factored_s_repairs_budgeted(&base, &sigma, &Budget::unlimited())
            .unwrap()
            .unwrap()
            .into_value();
        let mut iter = fx.deltas();
        assert_eq!(iter.remaining_len(), Some(4));
        let all: BTreeSet<BTreeSet<Tid>> = iter.by_ref().collect();
        assert_eq!(all.len(), 4);
        assert_eq!(iter.remaining_len(), Some(0));
        for d in &all {
            assert_eq!(d.len(), 2); // one deletion per component
        }
    }

    /// Regression: `expand` used to run the full cross-product regardless
    /// of the budget, so a cancelled (or born-exhausted) request kept
    /// burning CPU to the end of a possibly exponential expansion. The
    /// budgeted variant must stop at the meter and keep a sound prefix.
    #[test]
    fn cancelled_expansion_stops_instead_of_running_the_product_out() {
        let (db, sigma) = two_group_db();
        let base = Arc::new(db);
        let budget = Budget::unlimited();
        let fx = factored_s_repairs_budgeted(&base, &sigma, &budget)
            .unwrap()
            .unwrap()
            .into_value();
        assert_eq!(fx.product_len(), Some(4));
        budget.cancel_token().cancel();
        assert!(
            fx.expand_budgeted(&budget).unwrap().is_empty(),
            "a cancelled budget must stop the expansion immediately"
        );
        // Born-exhausted deadline: same contract through the repair API.
        let exhausted = Budget::new(cqa_exec::Limits {
            deadline_ms: Some(0),
            ..cqa_exec::Limits::default()
        });
        let out =
            crate::s_repairs_budgeted(&base, &sigma, &crate::RepairOptions::default(), &exhausted)
                .unwrap();
        assert!(out.is_truncated());
        assert!(out.value().is_empty());
    }

    #[test]
    fn zero_components_yield_the_trivial_repair() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["K", "V"]))
            .unwrap();
        db.insert("T", tuple![1, 10]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
        let base = Arc::new(db);
        let fx = factored_s_repairs_budgeted(&base, &sigma, &Budget::unlimited())
            .unwrap()
            .unwrap()
            .into_value();
        assert_eq!(fx.component_count(), 0);
        let deltas: Vec<_> = fx.deltas().collect();
        assert_eq!(deltas, vec![BTreeSet::new()]);
        assert_eq!(fx.expand().unwrap().len(), 1);
    }

    #[test]
    fn minimum_factorization_crosses_only_minima() {
        // Component 1: hub row in conflict with 3 others (min deletes the
        // hub, 1 way... actually min hitting set of a star of 3 pair-edges
        // is the hub alone). Component 2: plain pair (2 minima).
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["K", "V"]))
            .unwrap();
        db.insert("T", tuple![1, 0]).unwrap(); // hub group: 4 rows
        db.insert("T", tuple![1, 1]).unwrap();
        db.insert("T", tuple![1, 2]).unwrap();
        db.insert("T", tuple![1, 3]).unwrap();
        db.insert("T", tuple![2, 0]).unwrap(); // pair group
        db.insert("T", tuple![2, 1]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
        let base = Arc::new(db.clone());
        let fx = factored_c_repairs_budgeted(&base, &sigma, &Budget::unlimited())
            .unwrap()
            .unwrap()
            .into_value();
        // Key group of 4: minimum deletes 3 (4 choices); pair: deletes 1
        // (2 choices) → 8 C-repairs, each of delta size 4.
        assert_eq!(fx.product_len(), Some(8));
        let expanded = fx.expand().unwrap();
        let monolithic = crate::crepair::c_repairs(&db, &sigma).unwrap();
        assert_eq!(expanded.len(), monolithic.len());
        for (a, b) in expanded.iter().zip(&monolithic) {
            assert_eq!(a.delta(), b.delta());
        }
    }

    #[test]
    fn non_denial_sigma_has_no_factorization() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("A", ["X"])).unwrap();
        db.create_relation(RelationSchema::new("B", ["X"])).unwrap();
        db.insert("A", tuple!["a"]).unwrap();
        let sigma =
            ConstraintSet::from_iter([cqa_constraints::Tgd::parse("t", "B(x) :- A(x)").unwrap()]);
        let base = Arc::new(db);
        assert!(
            factored_s_repairs_budgeted(&base, &sigma, &Budget::unlimited())
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn options_limit_is_not_used_here() {
        // Guard against silent contract drift: the factored path has no
        // `limit` notion, so `s_repairs` routes limited calls monolithically
        // (covered by srepair tests); this just pins the default.
        assert!(RepairOptions::default().limit.is_none());
    }

    /// Regression: under a deadline the metered expansion stopped on time,
    /// but then the kept prefix was sorted by materialized deltas — a cloned
    /// relation name and row per deleted tid per repair, compared column by
    /// column — and those were dropped again, so the call returned more
    /// than ten deadlines late on this instance. It must now return within
    /// a few deadlines.
    #[test]
    fn deadline_expansion_returns_promptly() {
        // Wide rows whose leading columns all agree: ordering two deltas
        // by content compares every pad column of every deleted row.
        let pads = 32;
        let mut columns: Vec<String> = (0..pads).map(|i| format!("Pad{i}")).collect();
        columns.extend(["Id".to_string(), "Version".to_string()]);
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Orders", columns))
            .unwrap();
        let pad = Value::str("p".repeat(256));
        for k in 0..64 {
            for v in 0..2 {
                let mut row = vec![pad.clone(); pads];
                row.extend([Value::Int(k), Value::Int(v)]);
                db.insert("Orders", Tuple::new(row)).unwrap();
            }
        }
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("Orders", ["Id"])]);
        let base = Arc::new(db);
        // 64 components of 2: a 2^64 product the deadline must cut.
        let deadline_ms = 300u64;
        let started = std::time::Instant::now();
        let out = crate::s_repairs_budgeted(
            &base,
            &sigma,
            &RepairOptions::default(),
            &Budget::deadline_ms(deadline_ms),
        )
        .unwrap();
        assert!(out.is_truncated());
        assert!(!out.value().is_empty());
        drop(out);
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(3 * deadline_ms),
            "a {deadline_ms} ms deadline returned (and dropped) after {elapsed:?}"
        );
    }
}
