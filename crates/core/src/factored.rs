//! Factored repair families: one family per conflict component, never the
//! expanded cross-product.
//!
//! Every repair of a denial-class instance is the frozen core plus an
//! independent choice of one component-local repair per connected component
//! of the conflict hyper-graph (`cqa-constraints::components`), whose
//! `FactoredFamilies` hold exactly those per-component deletion families.
//! The repair family is recoverable from them two ways, both without ever
//! *storing* the product:
//!
//! * `ProductDeltas` — a lazy odometer yielding the combined deletion sets
//!   one at a time, in canonical (component-major) order; the
//!   component-spanning CQA fold streams over it.
//! * `expand` — materializes the sorted `Vec<Repair>` that the S- and
//!   C-repair listings return. The *search* still paid `Σ_c cost(c)`
//!   instead of the monolithic product-shaped tree.
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
use cqa_constraints::{ConflictComponents, FactoredFamilies};
use cqa_exec::Budget;
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

/// The repairs of `base` that `families` factor, sorted by delta (the
/// [`crate::s_repairs`] output order). Each product position charges one
/// item before it is materialized, so a budget that exhausts (or is
/// cancelled — e.g. the client hung up) stops the odometer instead of
/// expanding the full cross-product. The prefix kept is a sound subset of
/// the family. With exact families and an unexhausted budget the output is
/// byte-identical to one search over the whole graph, because the global
/// minimal (resp. minimum) hitting sets are exactly the unions of one local
/// set per component.
pub(crate) fn expand(
    base: &Arc<Database>,
    families: &FactoredFamilies,
    budget: &Budget,
) -> Result<Vec<Repair>, RelationError> {
    let mut out = Vec::new();
    for deleted in ProductDeltas::over(&families.families) {
        if !budget.charge_item() {
            break;
        }
        out.push(Repair::from_delta(base, deleted, Vec::new())?);
    }
    crate::repair::sort_by_delta(&mut out);
    Ok(out)
}

/// Odometer iterator over the cross-product of per-component deletion
/// families. With zero components it yields the single empty delta (the
/// consistent instance's one repair).
#[derive(Debug)]
pub(crate) struct ProductDeltas<'a> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srepair::{s_repairs, RepairOptions};
    use cqa_constraints::{ConstraintSet, KeyConstraint};
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

    /// The per-component minimal families of `db`'s conflict hyper-graph.
    fn minimal_families(db: &Database, sigma: &ConstraintSet) -> FactoredFamilies {
        let graph = sigma.conflict_hypergraph(db).unwrap();
        let families = graph
            .components()
            .minimal_hitting_sets_factored(&Budget::unlimited());
        families.into_value()
    }

    /// The listing of one search over the whole graph: a step budget takes
    /// the S- and C-repair listings off the factored expansion.
    fn whole_graph_listing(
        base: &Arc<Database>,
        sigma: &ConstraintSet,
        minimum: bool,
    ) -> Vec<Repair> {
        let (options, budget) = (RepairOptions::default(), Budget::steps(1_000_000));
        let out = if minimum {
            crate::c_repairs_budgeted(base, sigma, &options, &budget)
        } else {
            crate::s_repairs_budgeted(base, sigma, &options, &budget)
        };
        let out = out.unwrap();
        assert!(out.is_exact());
        out.into_value()
    }

    fn same_deltas(a: &[Repair], b: &[Repair]) {
        assert_eq!(a.len(), b.len());
        for (a, b) in a.iter().zip(b) {
            assert_eq!(a.delta(), b.delta());
        }
    }

    #[test]
    fn factored_expansion_matches_monolithic_s_repairs() {
        let (db, sigma) = two_group_db();
        let base = Arc::new(db.clone());
        let families = minimal_families(&db, &sigma);
        assert_eq!(families.families.len(), 2);
        assert_eq!(families.product_len(), Some(4));
        assert_eq!(families.factored_len(), 4); // 2 + 2
        let expanded = expand(&base, &families, &Budget::unlimited()).unwrap();
        same_deltas(&expanded, &whole_graph_listing(&base, &sigma, false));
        same_deltas(&expanded, &s_repairs(&db, &sigma).unwrap());
    }

    #[test]
    fn lazy_deltas_cover_the_product_exactly_once() {
        let (db, sigma) = two_group_db();
        let families = minimal_families(&db, &sigma);
        let all: Vec<BTreeSet<Tid>> = ProductDeltas::over(&families.families).collect();
        assert_eq!(all.len(), 4);
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), 4);
        for d in &all {
            assert_eq!(d.len(), 2); // one deletion per component
        }
    }

    /// Regression: `expand` used to run the full cross-product regardless
    /// of the budget, so a cancelled (or born-exhausted) request kept
    /// burning CPU to the end of a possibly exponential expansion. It must
    /// stop at the meter and keep a sound prefix.
    #[test]
    fn cancelled_expansion_stops_instead_of_running_the_product_out() {
        let (db, sigma) = two_group_db();
        let families = minimal_families(&db, &sigma);
        let base = Arc::new(db);
        assert_eq!(families.product_len(), Some(4));
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        assert!(
            expand(&base, &families, &budget).unwrap().is_empty(),
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
        let families = minimal_families(&db, &sigma);
        assert!(families.families.is_empty());
        let deltas: Vec<_> = ProductDeltas::over(&families.families).collect();
        assert_eq!(deltas, vec![BTreeSet::new()]);
        let base = Arc::new(db.clone());
        assert_eq!(
            expand(&base, &families, &Budget::unlimited())
                .unwrap()
                .len(),
            1
        );
        assert_eq!(s_repairs(&db, &sigma).unwrap().len(), 1);
    }

    #[test]
    fn minimum_factorization_crosses_only_minima() {
        // Component 1: a key group of four rows, pairwise in conflict (a
        // minimum hitting set keeps one row). Component 2: a plain pair.
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["K", "V"]))
            .unwrap();
        db.insert("T", tuple![1, 0]).unwrap(); // group of 4 rows
        db.insert("T", tuple![1, 1]).unwrap();
        db.insert("T", tuple![1, 2]).unwrap();
        db.insert("T", tuple![1, 3]).unwrap();
        db.insert("T", tuple![2, 0]).unwrap(); // pair group
        db.insert("T", tuple![2, 1]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["K"])]);
        let graph = sigma.conflict_hypergraph(&db).unwrap();
        let (size, families) = graph
            .components()
            .minimum_hitting_sets_factored(&Budget::unlimited())
            .into_value();
        // Key group of 4: minimum deletes 3 (4 choices); pair: deletes 1
        // (2 choices) → 8 C-repairs, each of delta size 4.
        assert_eq!(size, 4);
        assert_eq!(families.product_len(), Some(8));
        let base = Arc::new(db.clone());
        let expanded = expand(&base, &families, &Budget::unlimited()).unwrap();
        same_deltas(&expanded, &whole_graph_listing(&base, &sigma, true));
        same_deltas(&expanded, &crate::crepair::c_repairs(&db, &sigma).unwrap());
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
