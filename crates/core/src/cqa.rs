//! Consistent query answering (§3.1): certain answers over the class of
//! repairs.
//!
//! `Cons(Q, D, Σ) = ⋂ { Q(D') : D' repair of D }` is the model-theoretic
//! definition. [`certain_over`] and [`possible_over`] compute it literally,
//! over an explicit list of instances or repair views, and
//! `tests/oracle.rs` checks every entry point of this module against it,
//! with the repairs derived from their definition on small instances.
//!
//! Query evaluation over repairs always uses SQL null semantics: deletion
//! repairs of null-free instances are unaffected, and null-introducing
//! repairs (tuple- and attribute-level, §4.2–4.3) get the intended "nulls
//! don't join" behaviour. Certain answers containing a null are discarded —
//! a null is not a certain value.
//!
//! Every answer over a list of repairs — certain and possible answers and
//! aggregate ranges (§3.1–3.2) — is one fold
//! over that list, and one private driver runs them all, budgeted or not
//! (the unbudgeted entry points pass `Budget::unlimited()`). Since the
//! repair class can be exponentially large (§3.1), the driver spreads
//! per-repair query evaluation across the `cqa-exec` pool in chunks and
//! folds the results in repair order, so results are byte-identical at
//! every thread count.
//!
//! Every certain and possible read, budgeted or not, and `certainly_true`
//! take one route. For denial-class Σ under a deletion-based class it goes
//! through the conflict-component factorization at any component count: a
//! consistent instance is a product of no factors and a single conflict
//! component a product of one. Only tgds and the attribute-null class fold
//! the query over the enumerated repair class.

// audit:exponential — folds over the (worst-case exponential) repair family; every search loop must thread a Budget.
use crate::attr_repair::attribute_repairs;
use crate::crepair::c_repairs_budgeted;
use crate::factored::{Factorization, ProductDeltas};
use crate::repair::Repair;
use crate::srepair::{s_repairs_budgeted, RepairOptions};
use cqa_constraints::{ConflictComponents, ConflictHypergraph, ConstraintSet};
use cqa_exec::{Budget, Outcome};
use cqa_query::eval::{for_each_witness_vids, AnswerKeys};
use cqa_query::{
    eval_aggregate, eval_ucq, AggOp, AggregateQuery, ConjunctiveQuery, NullSemantics, UnionQuery,
};
use cqa_relation::{Database, DeltaView, Facts, RelationError, Tid, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

/// Which class of repairs CQA quantifies over.
#[derive(Debug, Clone)]
pub enum RepairClass {
    /// S-repairs (⊆-minimal symmetric difference), the default of \[3\].
    Subset,
    /// S-repairs restricted to deletions (the semantics of \[48\]).
    SubsetDeletionsOnly,
    /// C-repairs (minimum cardinality), §4.1.
    Cardinality,
    /// Attribute-based null repairs, §4.3.
    AttributeNull,
}

/// The instance a CQA route reads. The `&Database` entry points lend it,
/// and the monolithic fold copies it into the base its delta repairs share;
/// a session lends the `Arc` it holds, which the repairs share as it is.
#[derive(Clone, Copy)]
pub(crate) enum Base<'a> {
    /// A borrowed instance, copied when delta repairs need a shared base.
    Borrowed(&'a Database),
    /// An instance already behind an `Arc`.
    Shared(&'a Arc<Database>),
}

impl<'a> Base<'a> {
    /// The instance.
    pub(crate) fn db(self) -> &'a Database {
        match self {
            Base::Borrowed(db) => db,
            Base::Shared(db) => db,
        }
    }

    /// The base delta repairs share: the lent `Arc`, or a copy.
    fn shared(self) -> Arc<Database> {
        match self {
            Base::Borrowed(db) => Arc::new(db.clone()),
            Base::Shared(db) => Arc::clone(db),
        }
    }
}

/// The chosen repair class, kept as copy-on-write deltas when the semantics
/// allows it. Attribute-null repairs mutate cell values in place, so they
/// have no delta representation and stay materialized.
enum RepairSet {
    /// Lazy delta repairs sharing one `Arc`'d base (S/C classes).
    Delta(Vec<Repair>),
    /// Materialized instances (attribute-null class).
    Materialized(Vec<Database>),
}

impl RepairSet {
    fn len(&self) -> usize {
        match self {
            RepairSet::Delta(r) => r.len(),
            RepairSet::Materialized(d) => d.len(),
        }
    }

    /// Run `fold` over every repair, in order, through [`drive`]. Delta
    /// repairs are evaluated as zero-clone views.
    fn fold<A: Fold>(&self, fold: A, budget: &Budget) -> Option<A> {
        match self {
            RepairSet::Delta(reps) => drive(reps, fold, budget, |f, r| f.eval(&r.view())),
            RepairSet::Materialized(dbs) => drive(dbs, fold, budget, |f, db| f.eval(*db)),
        }
    }
}

/// Which side of CQA a fold computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// Certain answers: the intersection over repairs.
    Certain,
    /// Possible answers: the union over repairs.
    Possible,
}

/// One CQA answer as a fold over a list of repairs (§3.1–3.2): what each
/// repair contributes, how contributions combine, and when the result is
/// settled, that is, when no later repair can change it. There are three
/// cases: certain answers (an intersection, settled when empty), possible
/// answers (a union, never settled) and aggregate ranges.
trait Fold: Sync {
    /// One repair's contribution.
    type Here: Send;
    /// Evaluate the fold's query over one repair.
    fn eval<F: Facts + ?Sized>(&self, inst: &F) -> Self::Here;
    /// Combine the next repair's contribution.
    fn absorb(&mut self, here: Self::Here);
    /// Can no later repair change the result?
    fn settled(&self) -> bool;
}

/// Certain or possible answers: the intersection or union of the
/// null-filtered `Q(D')`.
struct Answers<'q> {
    side: Side,
    query: &'q UnionQuery,
    /// Resolved on the coordinating thread; see [`sql_answers`].
    cache_on: bool,
    /// The answers so far; `None` before the first repair.
    acc: Option<BTreeSet<Tuple>>,
}

impl<'q> Answers<'q> {
    fn new(side: Side, query: &'q UnionQuery) -> Answers<'q> {
        Answers {
            side,
            query,
            cache_on: cqa_exec::plan_cache_enabled(),
            acc: None,
        }
    }

    /// The answers folded so far (empty over no repair).
    fn into_set(self) -> BTreeSet<Tuple> {
        self.acc.unwrap_or_default()
    }
}

impl Fold for Answers<'_> {
    type Here = Arc<BTreeSet<Tuple>>;

    fn eval<F: Facts + ?Sized>(&self, inst: &F) -> Self::Here {
        sql_answers(inst, self.query, self.cache_on)
    }

    fn absorb(&mut self, here: Self::Here) {
        match (&mut self.acc, self.side) {
            (None, _) => self.acc = Some((*here).clone()),
            (Some(acc), Side::Certain) => acc.retain(|t| here.contains(t)),
            (Some(acc), Side::Possible) => acc.extend(here.iter().cloned()),
        }
    }

    fn settled(&self) -> bool {
        self.side == Side::Certain && self.acc.as_ref().is_some_and(BTreeSet::is_empty)
    }
}

/// Range semantics \[5\]: per group of an aggregate, the least and greatest
/// value over the repairs, kept only for the groups present in every
/// repair. A scalar aggregate is the single group `()`.
struct Ranges<'q> {
    query: &'q AggregateQuery,
    /// The ranges so far; `None` before the first repair.
    acc: Option<BTreeMap<Tuple, (Value, Value)>>,
}

impl Fold for Ranges<'_> {
    type Here = BTreeMap<Tuple, Value>;

    fn eval<F: Facts + ?Sized>(&self, inst: &F) -> Self::Here {
        let mut groups = eval_aggregate(inst, self.query, NullSemantics::Sql);
        // A scalar count over no rows is 0; other aggregates have no value.
        if self.query.group_by.is_empty()
            && groups.is_empty()
            && matches!(self.query.op, AggOp::Count | AggOp::CountDistinct)
        {
            groups.insert(Tuple::new([]), Value::Int(0));
        }
        groups
    }

    fn absorb(&mut self, here: Self::Here) {
        let Some(ranges) = &mut self.acc else {
            self.acc = Some(here.into_iter().map(|(k, v)| (k, (v.clone(), v))).collect());
            return;
        };
        // Groups absent from this repair are not certain: drop them.
        ranges.retain(|k, _| here.contains_key(k));
        for (k, v) in here {
            if let Some((lo, hi)) = ranges.get_mut(&k) {
                if v < *lo {
                    *lo = v.clone();
                }
                if v > *hi {
                    *hi = v;
                }
            }
        }
    }

    fn settled(&self) -> bool {
        self.acc.as_ref().is_some_and(BTreeMap::is_empty)
    }
}

/// The per-repair fold driver: runs `fold` over `items` in input order,
/// evaluating each item with `eval`, until the items run out or the fold is
/// settled. `items` may be the enumerated repairs, an explicit instance
/// list or the lazy [`ProductDeltas`] odometer.
///
/// Under a logical budget it ticks once per item before evaluating it, in
/// input order, so the cut point is schedule-independent and a plan-cache
/// hit never moves it. Otherwise it evaluates chunks of `threads() × 8`
/// items on the pool and reads the clock before each chunk; the barrier
/// between chunks lets a settled fold stop after at most one chunk of
/// wasted work. `None` when the budget fired: a partial fold is discarded,
/// since it may over-approximate (certain) or under-approximate (possible)
/// and under a deadline its value would depend on scheduling.
fn drive<A: Fold, T: Sync>(
    items: impl IntoIterator<Item = T>,
    mut fold: A,
    budget: &Budget,
    eval: impl Fn(&A, &T) -> A::Here + Sync,
) -> Option<A> {
    let mut items = items.into_iter();
    if budget.forces_sequential() {
        for item in items {
            if fold.settled() {
                break;
            }
            if !budget.tick() {
                return None;
            }
            let here = eval(&fold, &item);
            fold.absorb(here);
        }
        return Some(fold);
    }
    let chunk = cqa_exec::threads() * 8;
    while !fold.settled() {
        let batch: Vec<T> = items.by_ref().take(chunk).collect();
        if batch.is_empty() {
            break;
        }
        if !budget.check_deadline() {
            return None;
        }
        let heres = cqa_exec::par_map(&batch, |item| eval(&fold, item));
        for here in heres {
            fold.absorb(here);
        }
    }
    Some(fold)
}

/// Null-filtered SQL-semantics answers of `query` over one instance, via
/// the shared subplan cache ([`cqa_query::plan`]) when `cache_on`. Every
/// certain and possible fold funnels through here: certain folds intersect
/// against the filtered set (equivalent to filtering per site — the
/// accumulator is already null-free) and possible folds union it, so the
/// cached unit is exactly the unit the folds consume. Repairs that leave a
/// query's relations untouched share one entry — that is where the 2^k
/// fold's speedup comes from. Callers resolve `cache_on` once on the
/// coordinating thread ([`cqa_exec::plan_cache_enabled`], the sanctioned
/// ambient read) so pool workers never consult thread-local state.
fn sql_answers<F: Facts + ?Sized>(
    inst: &F,
    query: &UnionQuery,
    cache_on: bool,
) -> Arc<BTreeSet<Tuple>> {
    cqa_query::plan::cached_certain_answers(inst, query, NullSemantics::Sql, cache_on)
}

/// `Q(core)`: the null-filtered SQL answers of `query` over the view of
/// `db` without the `conflicted` tids — the consistent core when
/// `conflicted` holds every tuple some repair deletes.
pub(crate) fn core_answers(
    db: &Database,
    conflicted: &BTreeSet<Tid>,
    query: &UnionQuery,
) -> BTreeSet<Tuple> {
    let core = DeltaView::new(db, conflicted, &[]);
    (*sql_answers(&core, query, cqa_exec::plan_cache_enabled())).clone()
}

/// Materialize the chosen repair class.
///
/// Kept for callers that genuinely need owned instances (e.g. the virtual
/// integration crate); CQA itself answers over [`DeltaView`]s and never
/// materializes a repair.
pub fn repairs_of(
    db: &Database,
    sigma: &ConstraintSet,
    class: &RepairClass,
) -> Result<Vec<Database>, RelationError> {
    let set = repair_set_budgeted(Base::Borrowed(db), sigma, class, &Budget::unlimited())?;
    Ok(match set.into_value() {
        RepairSet::Delta(reps) => reps.into_iter().map(Repair::into_db).collect(),
        RepairSet::Materialized(dbs) => dbs,
    })
}

/// The consistent (certain) answers to `query` over the chosen repair class:
/// [`consistent_answers_budgeted`] under [`Budget::unlimited`], so always
/// exact.
///
/// ```
/// use cqa_relation::{tuple, Database, RelationSchema};
/// use cqa_constraints::{ConstraintSet, KeyConstraint};
/// use cqa_query::{parse_query, UnionQuery};
/// use cqa_core::{consistent_answers, RepairClass};
///
/// let mut db = Database::new();
/// db.create_relation(RelationSchema::new("Emp", ["Name", "Salary"]))?;
/// db.insert("Emp", tuple!["page", 5000])?;
/// db.insert("Emp", tuple!["page", 8000])?;
/// db.insert("Emp", tuple!["smith", 3000])?;
/// let sigma = ConstraintSet::from_iter([KeyConstraint::new("Emp", ["Name"])]);
///
/// let q = UnionQuery::single(parse_query("Q(x, y) :- Emp(x, y)")?);
/// let certain = consistent_answers(&db, &sigma, &q, &RepairClass::Subset)?;
/// assert_eq!(certain, [tuple!["smith", 3000]].into());
/// # Ok::<(), cqa_relation::RelationError>(())
/// ```
pub fn consistent_answers(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: &RepairClass,
) -> Result<BTreeSet<Tuple>, RelationError> {
    let unlimited = Budget::unlimited();
    let base = Base::Borrowed(db);
    let out = answers_budgeted(base, sigma, query, class, Side::Certain, None, &unlimited)?;
    Ok(out.into_value().0)
}

/// Certain answers over an explicit list of instances or repair views (used
/// directly by the virtual data integration crate, whose "repairs" are
/// virtual global instances).
pub fn certain_over<F: Facts>(instances: &[F], query: &UnionQuery) -> BTreeSet<Tuple> {
    let fold = Answers::new(Side::Certain, query);
    let folded = drive(instances, fold, &Budget::unlimited(), |f, inst| {
        f.eval(*inst)
    });
    folded.map_or_else(BTreeSet::new, Answers::into_set)
}

/// The possible (brave) answers, returned by at least one repair:
/// [`possible_answers_budgeted`] under [`Budget::unlimited`].
pub fn possible_answers(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: &RepairClass,
) -> Result<BTreeSet<Tuple>, RelationError> {
    let unlimited = Budget::unlimited();
    let base = Base::Borrowed(db);
    let out = answers_budgeted(base, sigma, query, class, Side::Possible, None, &unlimited)?;
    Ok(out.into_value().0)
}

/// Possible (brave) answers over an explicit list of instances or views.
pub fn possible_over<F: Facts>(instances: &[F], query: &UnionQuery) -> BTreeSet<Tuple> {
    let fold = Answers::new(Side::Possible, query);
    let folded = drive(instances, fold, &Budget::unlimited(), |f, inst| {
        f.eval(*inst)
    });
    folded.map_or_else(BTreeSet::new, Answers::into_set)
}

/// Is a Boolean query certainly (consistently) true — true in *every* repair?
///
/// This is the certain read of the query's Boolean projection (every head
/// emptied), routed like [`consistent_answers_budgeted`]: the query holds
/// in every repair iff the empty answer `()` is certain. The empty answer
/// holds no null, so SQL null semantics drops none, and the certain fold
/// settles at the first repair without a witness. The two readings differ
/// only over an empty repair family (vacuous truth against no certain
/// answer), which none of these classes produces: the empty instance
/// satisfies every denial and tgd, so some repair always exists.
pub fn certainly_true(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: &RepairClass,
) -> Result<bool, RelationError> {
    let boolean = UnionQuery {
        disjuncts: query
            .disjuncts
            .iter()
            .map(|cq| ConjunctiveQuery {
                head: Vec::new(),
                ..cq.clone()
            })
            .collect(),
    };
    let base = Base::Borrowed(db);
    let unlimited = Budget::unlimited();
    let out = answers_budgeted(
        base,
        sigma,
        &boolean,
        class,
        Side::Certain,
        None,
        &unlimited,
    )?;
    Ok(!out.into_value().0.is_empty())
}

/// Range-semantics CQA for scalar aggregates \[5\]: the greatest lower bound
/// and least upper bound of the aggregate value across all repairs.
///
/// Returns `None` when some repair yields no aggregate value (empty body for
/// `Min`/`Max`/`Sum`/`Avg`), since no finite range is certain then.
pub fn consistent_aggregate_range(
    db: &Database,
    sigma: &ConstraintSet,
    query: &AggregateQuery,
    class: &RepairClass,
) -> Result<Option<(Value, Value)>, RelationError> {
    debug_assert!(
        query.group_by.is_empty(),
        "range semantics is for scalar aggregates"
    );
    Ok(consistent_aggregate_ranges(db, sigma, query, class)?
        .into_values()
        .next())
}

/// Range-semantics CQA for *grouped* aggregates: for every group key that
/// appears in **every** repair (only those have certain ranges), the
/// greatest lower / least upper bound of its aggregate value. A scalar
/// aggregate is the one group `()`, and a scalar count over no rows is 0.
pub fn consistent_aggregate_ranges(
    db: &Database,
    sigma: &ConstraintSet,
    query: &AggregateQuery,
    class: &RepairClass,
) -> Result<BTreeMap<Tuple, (Value, Value)>, RelationError> {
    let unlimited = Budget::unlimited();
    let set = repair_set_budgeted(Base::Borrowed(db), sigma, class, &unlimited)?.into_value();
    let fold = set.fold(Ranges { query, acc: None }, &unlimited);
    Ok(fold.and_then(|f| f.acc).unwrap_or_default())
}

/// Is every disjunct free of negated atoms? Negation-free UCQs (with
/// comparisons) are monotone: adding tuples to an instance can only add
/// answers. Monotonicity is what makes the truncation fallbacks `Q(core)`
/// (certain) and `Q(D)` (possible) sound.
fn is_monotone(query: &UnionQuery) -> bool {
    query.disjuncts.iter().all(|cq| cq.negated.is_empty())
}

/// Do all repairs of the chosen class stay *inside* the original instance
/// (no insertions)? True for denial-class Σ under the S/C classes, for the
/// explicit deletion-only semantics, and for attribute-null repairs (which
/// only null out cells — under SQL null semantics a nulled cell can satisfy
/// strictly fewer join conditions, never more).
fn deletion_only_semantics(sigma: &ConstraintSet, class: &RepairClass) -> bool {
    match class {
        RepairClass::SubsetDeletionsOnly | RepairClass::AttributeNull => true,
        RepairClass::Subset | RepairClass::Cardinality => sigma.is_denial_class(),
    }
}

/// Is the repair family a product of per-component families over the
/// frozen core? True for denial-class Σ under the deletion-based classes
/// (S, S-deletions-only, C): every repair deletes one hitting set of the
/// conflict hyper-graph, which splits per connected component.
fn factorable(sigma: &ConstraintSet, class: &RepairClass) -> bool {
    !matches!(class, RepairClass::AttributeNull) && sigma.is_denial_class()
}

/// The sound **over-approximation** of the possible answers used when a
/// budget fires: `Q(D)` itself. Under deletion-only repair semantics every
/// repair is a sub-instance of `D`, so for a monotone query
/// `Q(D') ⊆ Q(D)` for every repair — the union over repairs is contained in
/// `Q(D)`. When repairs may insert tuples (tgds) or the query is
/// non-monotone this bound is unavailable, and the fallback is the union
/// over the repairs that *were* enumerated (a lower bound, flagged as such
/// by the outcome tag).
fn possible_fallback(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: &RepairClass,
    explored: &RepairSet,
) -> BTreeSet<Tuple> {
    if deletion_only_semantics(sigma, class) && is_monotone(query) {
        (*sql_answers(db, query, cqa_exec::plan_cache_enabled())).clone()
    } else {
        let fold = Answers::new(Side::Possible, query);
        explored
            .fold(fold, &Budget::unlimited())
            .map_or_else(BTreeSet::new, Answers::into_set)
    }
}

/// Enumerate the chosen repair class under a budget. The attribute-null
/// class is not yet metered during enumeration (its repair space is tamed
/// by per-cell minimality rather than search); the query-evaluation fold on
/// top of it still honours deadlines.
fn repair_set_budgeted(
    base: Base<'_>,
    sigma: &ConstraintSet,
    class: &RepairClass,
    budget: &Budget,
) -> Result<Outcome<RepairSet>, RelationError> {
    if let RepairClass::AttributeNull = class {
        let dbs: Vec<Database> = attribute_repairs(base.db(), sigma)?
            .into_iter()
            .map(|r| r.db)
            .collect();
        let n = dbs.len() as u64;
        return Ok(budget.outcome_with(RepairSet::Materialized(dbs), n));
    }
    // Delta repairs share one `Arc` of the instance as their base.
    let base = base.shared();
    let options = match class {
        RepairClass::SubsetDeletionsOnly => RepairOptions::deletions_only(),
        _ => RepairOptions::default(),
    };
    let repairs = match class {
        RepairClass::Cardinality => c_repairs_budgeted(&base, sigma, &options, budget)?,
        _ => s_repairs_budgeted(&base, sigma, &options, budget)?,
    };
    Ok(repairs.map(RepairSet::Delta))
}

/// The monolithic fold of one side over the enumerated repair class: the
/// route of Σ or classes outside the factorization ([`factorable`]), that
/// is tgds and the attribute-null class.
///
/// On truncation the partial fold is discarded: intersecting `Q` over the
/// repairs explored so far is *not* sound for certain answers, since
/// dropping repairs from an intersection can only grow it. Certain answers
/// fall back to the empty set, which is trivially sound: a budget that can
/// fire reaches this fold only for tgds or the attribute-null class, for
/// which no consistent-core bound is derived. Possible answers fall back to
/// [`possible_fallback`]. `explored` counts the enumerated repairs; the
/// certain side reports the enumeration's own count instead when the
/// enumeration itself was cut.
fn monolithic(
    base: Base<'_>,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: &RepairClass,
    side: Side,
    budget: &Budget,
) -> Result<Outcome<BTreeSet<Tuple>>, RelationError> {
    let db = base.db();
    let set = repair_set_budgeted(base, sigma, class, budget)?;
    let enumerated = set.truncation().map(|(_, n)| n);
    let set = set.into_value();
    // An exhausted budget stops the fold before its first repair.
    match set.fold(Answers::new(side, query), budget) {
        Some(fold) if !budget.exhausted() => Ok(Outcome::Exact(fold.into_set())),
        _ => {
            let (fallback, explored) = match side {
                Side::Certain => (BTreeSet::new(), enumerated.unwrap_or(set.len() as u64)),
                Side::Possible => (
                    possible_fallback(db, sigma, query, class, &set),
                    set.len() as u64,
                ),
            };
            Ok(budget.outcome_with(fallback, explored))
        }
    }
}

// ---------------------------------------------------------------------------
// Conflict-component factorization (§4.1 + Lopatenko–Bertossi locality).
//
// When Σ is denial-class, every repair of a deletion-based class is the
// frozen core plus one independent local deletion set `h` per conflict
// component `c`. A witness of a monotone query survives in a repair exactly
// when none of its tuples is deleted. So if no witness of Q over D touches
// two components, write A(c,h) for the answers of the witnesses that touch
// `c` and avoid `h`: then Q(core ∪ comp_c ∖ h) = Q(core) ∪ A(c,h), and
//
//   certain  = Q(core) ∪ ⋃_c ⋂_{h ∈ family_c} A(c,h)
//   possible = Q(core) ∪ ⋃_c ⋃_{h ∈ family_c} A(c,h)
//
// Both are set operations over the witnesses of *one* scan of Q over D,
// sliced by component — no query evaluation per repair (CAvSAT computes
// the witnesses once in the same way). When a witness does span two
// components (or the query is non-monotone), the fold degrades to
// streaming over the *lazy* cross-product — the same set of repairs the
// S- and C-repair listings expand, never materialized as a list.
// ---------------------------------------------------------------------------

/// The witnesses of a monotone query over the whole instance, sliced by
/// conflict component, in id space from witness to answer: answers are
/// dense ids into `answers`, which are in `Tuple` order.
struct WitnessSlices {
    /// `Q(core)`: the answer ids of the witnesses inside the frozen core,
    /// ascending and distinct.
    core: Vec<usize>,
    /// Per component (canonical order), the range of `entries` that is its
    /// slice.
    slices: Vec<Range<usize>>,
    /// The distinct `(component, conflicted tids, answer)` triples of the
    /// witnesses touching one component, grouped by component.
    entries: Vec<SliceEntry>,
    /// The conflicted tids of every entry, back to back.
    tids: Vec<Tid>,
    /// The distinct null-free answers, in `Tuple` order.
    answers: Vec<Tuple>,
    /// Witnesses the scan visited.
    witnesses: usize,
}

/// One distinct witness of a component's slice.
struct SliceEntry {
    component: usize,
    /// Where its conflicted tids (ascending) lie in [`WitnessSlices::tids`].
    tids: Range<usize>,
    /// Its answer id (a key id until the keys are resolved).
    answer: usize,
}

impl WitnessSlices {
    /// Scan the witnesses of `query` over `db` once, in id space, and slice
    /// them by component. `None` when some witness touches two components.
    /// Each witness interns its head vids ([`AnswerKeys`]) and appends its
    /// conflicted tids to one arena. Each distinct key is then resolved
    /// once and the answers sorted into dense ids, so vid order never
    /// reaches the output, and one sort groups the entries by component
    /// and removes duplicates.
    fn scan(
        db: &Database,
        query: &UnionQuery,
        components: &ConflictComponents,
    ) -> Option<WitnessSlices> {
        let index = components.component_index();
        let mut keys = AnswerKeys::new(&query.disjuncts);
        let mut witnesses = 0usize;
        let mut core_keys: Vec<usize> = Vec::new();
        let mut entries: Vec<SliceEntry> = Vec::new();
        let mut tids: Vec<Tid> = Vec::new();
        let mut touched: Vec<(usize, Tid)> = Vec::new();
        for (d, cq) in query.disjuncts.iter().enumerate() {
            let mut spanning = false;
            for_each_witness_vids(db, cq, NullSemantics::Sql, &mut |bindings, witness| {
                witnesses += 1;
                let Some(key) = keys.intern(d, bindings) else {
                    return true; // unbound head variable: no answer
                };
                // Frozen-core tuples belong to every repair; only the
                // conflicted ones decide where the witness survives.
                touched.clear();
                touched.extend(witness.iter().filter_map(|&t| Some((index.get(t)?, t))));
                touched.sort_unstable();
                touched.dedup();
                match touched.first() {
                    None => core_keys.push(key),
                    Some(&(c, _)) if touched.iter().all(|&(o, _)| o == c) => {
                        let start = tids.len();
                        tids.extend(touched.iter().map(|&(_, t)| t));
                        entries.push(SliceEntry {
                            component: c,
                            tids: start..tids.len(),
                            answer: key,
                        });
                    }
                    Some(_) => {
                        spanning = true;
                        return false; // stop the scan
                    }
                }
                true
            });
            if spanning {
                return None;
            }
        }
        // Under SQL semantics an answer containing a null is never
        // returned, so it is dropped here with all of its witnesses.
        let resolved = keys.resolve(db, |t| !t.has_null());
        let answer_of = |key: usize| resolved.of_key.get(key).copied().flatten();
        let mut core: Vec<usize> = core_keys.into_iter().filter_map(answer_of).collect();
        core.sort_unstable();
        core.dedup();
        entries.retain_mut(|e| match answer_of(e.answer) {
            Some(a) => {
                e.answer = a;
                true
            }
            None => false,
        });
        let tids_of = |e: &SliceEntry| tids.get(e.tids.clone()).unwrap_or(&[]);
        entries.sort_unstable_by(|a, b| {
            (a.component, tids_of(a), a.answer).cmp(&(b.component, tids_of(b), b.answer))
        });
        entries.dedup_by(|a, b| {
            (a.component, a.answer) == (b.component, b.answer) && tids_of(a) == tids_of(b)
        });
        let mut slices = Vec::with_capacity(components.components.len());
        let mut start = 0;
        for c in 0..components.components.len() {
            let len = entries
                .get(start..)
                .map_or(0, |rest| rest.partition_point(|e| e.component == c));
            slices.push(start..start + len);
            start += len;
        }
        Some(WitnessSlices {
            core,
            slices,
            entries,
            tids,
            answers: resolved.answers,
            witnesses,
        })
    }

    /// Resolve answer ids, given in ascending order.
    fn tuples(&self, ids: impl IntoIterator<Item = usize>) -> BTreeSet<Tuple> {
        ids.into_iter()
            .filter_map(|id| self.answers.get(id).cloned())
            .collect()
    }

    /// Fold one side over the component families (canonical order):
    /// `Q(core)` plus, per component, the intersection (certain) or union
    /// (possible) of `A(c,h)` over its local deletion sets `h`. Each
    /// component's sets of answers are bitsets over the distinct answers of
    /// its own slice. `None` when the budget fired mid-fold.
    fn fold(
        &self,
        families: &[Vec<BTreeSet<Tid>>],
        side: Side,
        budget: &Budget,
    ) -> Option<BTreeSet<Tuple>> {
        let sequential = budget.forces_sequential();
        let mut out = self.core.clone();
        // Scratch sized by one component's slice: its distinct answer ids,
        // each entry's bit among them, `A(c,h)` and the accumulator.
        let mut local: Vec<usize> = Vec::new();
        let mut bit_of: Vec<usize> = Vec::new();
        let mut here: Vec<u64> = Vec::new();
        let mut acc: Vec<u64> = Vec::new();
        for (family, slice) in families.iter().zip(&self.slices) {
            // A logical budget ticks once per component-local repair in
            // canonical order, so the cut point is schedule-independent;
            // other budgets read the clock once per component.
            if !sequential && !budget.check_deadline() {
                return None;
            }
            let entries = self.entries.get(slice.clone()).unwrap_or(&[]);
            local.clear();
            local.extend(entries.iter().map(|e| e.answer));
            local.sort_unstable();
            local.dedup();
            bit_of.clear();
            bit_of.extend(
                entries
                    .iter()
                    .map(|e| local.binary_search(&e.answer).unwrap_or_default()),
            );
            let words = local.len().div_ceil(64);
            let mut folded = false;
            for h in family {
                if sequential && !budget.tick() {
                    return None;
                }
                // A(c,h): the answers of this component's witnesses none of
                // whose tuples `h` deletes.
                here.clear();
                here.resize(words, 0);
                for (e, &bit) in entries.iter().zip(&bit_of) {
                    let survives = self
                        .tids
                        .get(e.tids.clone())
                        .is_some_and(|ts| ts.iter().all(|t| !h.contains(t)));
                    if let Some(word) = here.get_mut(bit / 64).filter(|_| survives) {
                        *word |= 1 << (bit % 64);
                    }
                }
                if !folded {
                    acc.clone_from(&here);
                    folded = true;
                } else {
                    for (a, w) in acc.iter_mut().zip(&here) {
                        match side {
                            Side::Certain => *a &= w,
                            Side::Possible => *a |= w,
                        }
                    }
                }
                // Certain: once Q(core) ∪ acc is empty, no later local
                // repair of this component can add to it.
                if side == Side::Certain && self.core.is_empty() && acc.iter().all(|&w| w == 0) {
                    break;
                }
            }
            if folded {
                out.extend(
                    local
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| acc.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1))
                        .map(|(_, &a)| a),
                );
            }
        }
        out.sort_unstable();
        out.dedup();
        Some(self.tuples(out))
    }
}

/// `Q(core)` over the factorization: the answers over the tuples in no
/// conflict component. Every repair keeps them all, so for a monotone query
/// `Q(core) ⊆ Q(D')` for every repair `D'`, hence `Q(core)` is a sound
/// under-approximation of the certain answers. Empty for non-monotone
/// queries, where that argument does not apply.
fn factored_core_answers(
    db: &Database,
    components: &ConflictComponents,
    query: &UnionQuery,
) -> BTreeSet<Tuple> {
    if !is_monotone(query) {
        return BTreeSet::new();
    }
    let conflicted: BTreeSet<Tid> = components
        .components
        .iter()
        .flat_map(|c| c.tids().iter().copied())
        .collect();
    core_answers(db, &conflicted, query)
}

/// The factored fold of one side over `graph`, the conflict hyper-graph of
/// `db`. The caller guarantees the factorization applies ([`factorable`]).
/// Per-component families first; then the witness-slice fold, or the
/// lazy-product fold through [`drive`] when a witness spans components or
/// the query is not monotone. On truncation, certain falls back to
/// `Q(core)` and possible to `Q(D)` (both empty for a non-monotone query),
/// with `explored` counting the components enumerated exactly.
fn factored_with(
    db: &Database,
    graph: &ConflictHypergraph,
    query: &UnionQuery,
    class: &RepairClass,
    side: Side,
    budget: &Budget,
) -> RoutedAnswers {
    let components = graph.components();
    let families = match class {
        RepairClass::Cardinality => {
            components
                .minimum_hitting_sets_factored(budget)
                .into_value()
                .1
        }
        _ => components
            .minimal_hitting_sets_factored(budget)
            .into_value(),
    };
    let explored = families.exact_components();
    let fallback = |slices: Option<&WitnessSlices>| match (side, slices) {
        (Side::Certain, Some(ws)) => ws.tuples(ws.core.iter().copied()),
        (Side::Certain, None) => factored_core_answers(db, &components, query),
        (Side::Possible, _) if is_monotone(query) => eval_ucq(db, query, NullSemantics::Sql)
            .into_iter()
            .filter(|t| !t.has_null())
            .collect(),
        (Side::Possible, _) => BTreeSet::new(),
    };
    if budget.exhausted() {
        let info = Factorization::of(&components, &families, false, None);
        return budget.outcome_with((fallback(None), Some(info)), explored);
    }
    let slices = if is_monotone(query) {
        WitnessSlices::scan(db, query, &components)
    } else {
        None
    };
    let folded = match &slices {
        Some(ws) => ws.fold(&families.families, side, budget),
        None => {
            let product = ProductDeltas::over(&families.families);
            drive(product, Answers::new(side, query), budget, |f, deleted| {
                f.eval(&DeltaView::new(db, deleted, &[]))
            })
            .map(Answers::into_set)
        }
    };
    let info = Some(Factorization::of(
        &components,
        &families,
        slices.is_none(),
        slices.as_ref().map(|ws| ws.witnesses),
    ));
    match folded {
        Some(answers) if !budget.exhausted() => Outcome::Exact((answers, info)),
        _ => budget.outcome_with((fallback(slices.as_ref()), info), explored),
    }
}

/// A routed CQA result: the answer set, plus the [`Factorization`] when the
/// factored route answered.
pub(crate) type RoutedAnswers = Outcome<(BTreeSet<Tuple>, Option<Factorization>)>;

/// The one certain/possible route, shared by [`consistent_answers`],
/// [`possible_answers`], their `_budgeted` forms, [`certainly_true`], the
/// planner's fallback and a session's class reads.
/// When the factorization applies ([`factorable`]) the factored fold
/// answers, at any component count, and its [`Factorization`] comes back;
/// otherwise the monolithic fold over the enumerated repair class does.
/// `prebuilt`, when given, is the conflict hyper-graph of the instance;
/// either way the graph is built at most once per request.
pub(crate) fn answers_budgeted(
    base: Base<'_>,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: &RepairClass,
    side: Side,
    prebuilt: Option<&ConflictHypergraph>,
    budget: &Budget,
) -> Result<RoutedAnswers, RelationError> {
    if !factorable(sigma, class) {
        let answers = monolithic(base, sigma, query, class, side, budget)?;
        return Ok(answers.map(|answers| (answers, None)));
    }
    let db = base.db();
    let owned;
    let graph = match prebuilt {
        Some(g) => g,
        None => {
            owned = sigma.conflict_hypergraph(db)?;
            &owned
        }
    };
    Ok(factored_with(db, graph, query, class, side, budget))
}

/// Budget-aware [`consistent_answers`]: the anytime entry point.
///
/// An [`Outcome::Exact`] result equals the unbudgeted answer bit for bit.
/// An [`Outcome::Truncated`] result is a **sound under-approximation** of
/// the certain answers. For denial-class Σ under a deletion-based class
/// (S, S-deletions-only, C) the read is factored at any component count:
/// a truncated result is `Q(core)`, the answers over the tuples in no
/// conflict (empty for a non-monotone query), and `explored` counts the
/// conflict components enumerated exactly. Otherwise (tgds, the
/// attribute-null class) it is empty and `explored` counts the repairs
/// fully enumerated before the budget fired.
pub fn consistent_answers_budgeted(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: &RepairClass,
    budget: &Budget,
) -> Result<Outcome<BTreeSet<Tuple>>, RelationError> {
    let base = Base::Borrowed(db);
    let out = answers_budgeted(base, sigma, query, class, Side::Certain, None, budget)?;
    Ok(out.map(|(answers, _)| answers))
}

/// Budget-aware [`possible_answers`].
///
/// An [`Outcome::Exact`] result equals the unbudgeted answer. A truncated
/// result is a **sound over-approximation** (`Q(D)`) whenever the repair
/// semantics is deletion-only and the query monotone. Routed like
/// [`consistent_answers_budgeted`], with `explored` counted the same way.
/// Past those bounds, on the factored route (denial-class Σ, a
/// deletion-based class) a truncated non-monotone read is empty; on the
/// monolithic one (tgds, the attribute-null class) it is the union over
/// the repairs explored so far. Either is a lower bound, which is why the
/// outcome tag matters.
pub fn possible_answers_budgeted(
    db: &Database,
    sigma: &ConstraintSet,
    query: &UnionQuery,
    class: &RepairClass,
    budget: &Budget,
) -> Result<Outcome<BTreeSet<Tuple>>, RelationError> {
    let base = Base::Borrowed(db);
    let out = answers_budgeted(base, sigma, query, class, Side::Possible, None, budget)?;
    Ok(out.map(|(answers, _)| answers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_constraints::{KeyConstraint, Tgd};
    use cqa_query::{parse_query, AggOp};
    use cqa_relation::{tuple, RelationSchema};

    fn supply() -> (Database, ConstraintSet) {
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
        (db, sigma)
    }

    fn employee() -> (Database, ConstraintSet) {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Employee", ["Name", "Salary"]))
            .unwrap();
        db.insert("Employee", tuple!["page", 5000]).unwrap();
        db.insert("Employee", tuple!["page", 8000]).unwrap();
        db.insert("Employee", tuple!["smith", 3000]).unwrap();
        db.insert("Employee", tuple!["stowe", 7000]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("Employee", ["Name"])]);
        (db, sigma)
    }

    #[test]
    fn example_3_2_consistent_answers() {
        let (db, sigma) = supply();
        let q = UnionQuery::single(parse_query("Q(z) :- Supply(x, y, z)").unwrap());
        let ans = consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&tuple!["I1"]));
        assert!(ans.contains(&tuple!["I2"]));
        // Possible answers include I3 (it survives in the insertion repair).
        let poss = possible_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
        assert!(poss.contains(&tuple!["I3"]));
    }

    #[test]
    fn example_3_3_q1_and_q2() {
        let (db, sigma) = employee();
        let q1 = UnionQuery::single(parse_query("Q(x, y) :- Employee(x, y)").unwrap());
        let ans1 = consistent_answers(&db, &sigma, &q1, &RepairClass::Subset).unwrap();
        assert_eq!(ans1, [tuple!["smith", 3000], tuple!["stowe", 7000]].into());
        let q2 = UnionQuery::single(parse_query("Q(x) :- Employee(x, y)").unwrap());
        let ans2 = consistent_answers(&db, &sigma, &q2, &RepairClass::Subset).unwrap();
        assert_eq!(
            ans2,
            [tuple!["page"], tuple!["smith"], tuple!["stowe"]].into()
        );
    }

    #[test]
    fn boolean_certainty() {
        let (db, sigma) = employee();
        let yes = UnionQuery::single(parse_query("Q() :- Employee('smith', y)").unwrap());
        assert!(certainly_true(&db, &sigma, &yes, &RepairClass::Subset).unwrap());
        let no = UnionQuery::single(parse_query("Q() :- Employee('page', 5000)").unwrap());
        assert!(!certainly_true(&db, &sigma, &no, &RepairClass::Subset).unwrap());
        // But it is possibly true.
        let poss = possible_answers(&db, &sigma, &no, &RepairClass::Subset).unwrap();
        assert!(!poss.is_empty());
    }

    #[test]
    fn aggregate_range_semantics() {
        let (db, sigma) = employee();
        let body = parse_query("Q() :- Employee(n, s)").unwrap();
        let s = body.vars.lookup("s").unwrap();
        let sum = AggregateQuery {
            body,
            group_by: vec![],
            target: Some(s),
            op: AggOp::Sum,
        };
        let (lo, hi) = consistent_aggregate_range(&db, &sigma, &sum, &RepairClass::Subset)
            .unwrap()
            .unwrap();
        // Repairs keep page at 5000 or 8000: totals 15000 and 18000.
        assert_eq!(lo, Value::Int(15000));
        assert_eq!(hi, Value::Int(18000));
    }

    #[test]
    fn aggregate_count_range() {
        let (db, sigma) = employee();
        let body = parse_query("Q() :- Employee(n, s)").unwrap();
        let count = AggregateQuery {
            body,
            group_by: vec![],
            target: None,
            op: AggOp::Count,
        };
        let (lo, hi) = consistent_aggregate_range(&db, &sigma, &count, &RepairClass::Subset)
            .unwrap()
            .unwrap();
        assert_eq!(lo, Value::Int(3));
        assert_eq!(hi, Value::Int(3));
    }

    #[test]
    fn grouped_aggregate_ranges() {
        // Employees grouped by department; one department has a conflicted
        // salary, the other is clean.
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Emp", ["Name", "Dept", "Salary"]))
            .unwrap();
        db.insert("Emp", tuple!["page", "cs", 5000]).unwrap();
        db.insert("Emp", tuple!["page", "cs", 8000]).unwrap();
        db.insert("Emp", tuple!["smith", "cs", 3000]).unwrap();
        db.insert("Emp", tuple!["stowe", "math", 7000]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("Emp", ["Name"])]);
        let body = parse_query("Q() :- Emp(n, d, s)").unwrap();
        let (d, s) = (
            body.vars.lookup("d").unwrap(),
            body.vars.lookup("s").unwrap(),
        );
        let agg = AggregateQuery {
            body,
            group_by: vec![d],
            target: Some(s),
            op: AggOp::Sum,
        };
        let ranges = consistent_aggregate_ranges(&db, &sigma, &agg, &RepairClass::Subset).unwrap();
        assert_eq!(
            ranges.get(&tuple!["cs"]),
            Some(&(Value::Int(8000), Value::Int(11000)))
        );
        // The clean department has a point interval.
        assert_eq!(
            ranges.get(&tuple!["math"]),
            Some(&(Value::Int(7000), Value::Int(7000)))
        );
    }

    #[test]
    fn grouped_ranges_drop_uncertain_groups() {
        // A department whose *only* employee is conflicted on Dept itself:
        // it vanishes from some repairs, so it has no certain range.
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Emp", ["Name", "Dept", "Salary"]))
            .unwrap();
        db.insert("Emp", tuple!["page", "cs", 5000]).unwrap();
        db.insert("Emp", tuple!["page", "math", 5000]).unwrap();
        db.insert("Emp", tuple!["smith", "cs", 3000]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("Emp", ["Name"])]);
        let body = parse_query("Q() :- Emp(n, d, s)").unwrap();
        let (d, s) = (
            body.vars.lookup("d").unwrap(),
            body.vars.lookup("s").unwrap(),
        );
        let agg = AggregateQuery {
            body,
            group_by: vec![d],
            target: Some(s),
            op: AggOp::Sum,
        };
        let ranges = consistent_aggregate_ranges(&db, &sigma, &agg, &RepairClass::Subset).unwrap();
        // math exists only in the repair keeping (page, math): not certain.
        assert!(!ranges.contains_key(&tuple!["math"]));
        // cs is present in both repairs (smith always; page sometimes).
        assert_eq!(
            ranges.get(&tuple!["cs"]),
            Some(&(Value::Int(3000), Value::Int(8000)))
        );
    }

    #[test]
    fn cardinality_class_can_differ_from_subset() {
        // Figure 1 instance: query "B(a) holds?" — true in D1 and D3 but D1
        // is not a C-repair; under C-repairs the answer set differs.
        let mut db = Database::new();
        for r in ["A", "B", "C", "D", "E"] {
            db.create_relation(RelationSchema::new(r, ["X"])).unwrap();
            db.insert(r, tuple!["a"]).unwrap();
        }
        let sigma = ConstraintSet::from_iter([
            cqa_constraints::DenialConstraint::parse("d1", "B(x), E(x)").unwrap(),
            cqa_constraints::DenialConstraint::parse("d2", "B(x), C(x), D(x)").unwrap(),
            cqa_constraints::DenialConstraint::parse("d3", "A(x), C(x)").unwrap(),
        ]);
        let q = UnionQuery::single(parse_query("Q() :- D(x)").unwrap());
        // D(a) is in D2, D3, D4 (all C-repairs) but not in D1 = {B, C}.
        assert!(!certainly_true(&db, &sigma, &q, &RepairClass::Subset).unwrap());
        assert!(certainly_true(&db, &sigma, &q, &RepairClass::Cardinality).unwrap());
    }

    #[test]
    fn attribute_null_class_certain_answers() {
        // Example 4.4 + the query Q(x): S(x). Beyond the paper's two
        // showcased repairs, the full class of minimal attribute repairs
        // also contains ones that null S(a4) or R's join cells; only a2 is
        // never touched, so Cons(Q) = {a2}.
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["A", "B"]))
            .unwrap();
        db.create_relation(RelationSchema::new("S", ["A"])).unwrap();
        db.insert("R", tuple!["a4", "a3"]).unwrap();
        db.insert("R", tuple!["a2", "a1"]).unwrap();
        db.insert("R", tuple!["a3", "a3"]).unwrap();
        db.insert("S", tuple!["a4"]).unwrap();
        db.insert("S", tuple!["a2"]).unwrap();
        db.insert("S", tuple!["a3"]).unwrap();
        let sigma = ConstraintSet::from_iter([cqa_constraints::DenialConstraint::parse(
            "kappa",
            "S(x), R(x, y), S(y)",
        )
        .unwrap()]);
        let q = UnionQuery::single(parse_query("Q(x) :- S(x)").unwrap());
        let ans = consistent_answers(&db, &sigma, &q, &RepairClass::AttributeNull).unwrap();
        assert_eq!(ans, [tuple!["a2"]].into());
        // The possible answers do include a4 and a3 (kept by some repairs).
        let poss = possible_answers(&db, &sigma, &q, &RepairClass::AttributeNull).unwrap();
        assert!(poss.contains(&tuple!["a4"]));
        assert!(poss.contains(&tuple!["a3"]));
        // No null sneaks into answers.
        assert!(poss.iter().all(|t| !t.has_null()));
    }

    #[test]
    fn consistent_db_cqa_equals_plain_eval() {
        let (mut db, sigma) = employee();
        db.delete(cqa_relation::Tid(2)).unwrap();
        let q = UnionQuery::single(parse_query("Q(x, y) :- Employee(x, y)").unwrap());
        let cons = consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
        let plain = cqa_query::eval_ucq(&db, &q, NullSemantics::Structural);
        assert_eq!(cons, plain);
    }

    /// Two independent key-violation groups plus clean rows: 2 components,
    /// 4 monolithic S-repairs (2×2).
    fn two_component_employee() -> (Database, ConstraintSet) {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Employee", ["Name", "Salary"]))
            .unwrap();
        db.insert("Employee", tuple!["page", 5000]).unwrap();
        db.insert("Employee", tuple!["page", 8000]).unwrap();
        db.insert("Employee", tuple!["miller", 1000]).unwrap();
        db.insert("Employee", tuple!["miller", 2000]).unwrap();
        db.insert("Employee", tuple!["smith", 3000]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("Employee", ["Name"])]);
        (db, sigma)
    }

    /// The per-repair fold over the listed repairs of `class`: the
    /// definition the routed reads must equal.
    fn per_repair(
        db: &Database,
        sigma: &ConstraintSet,
        q: &UnionQuery,
        class: &RepairClass,
        side: Side,
    ) -> BTreeSet<Tuple> {
        let repairs = match class {
            RepairClass::Cardinality => crate::c_repairs(db, sigma).unwrap(),
            _ => crate::s_repairs(db, sigma).unwrap(),
        };
        let views: Vec<_> = repairs.iter().map(Repair::view).collect();
        match side {
            Side::Certain => certain_over(&views, q),
            Side::Possible => possible_over(&views, q),
        }
    }

    /// The routed unlimited read of one side, with its [`Factorization`]
    /// (`None` off the factored route).
    fn routed_once(
        db: &Database,
        sigma: &ConstraintSet,
        q: &UnionQuery,
        class: &RepairClass,
        side: Side,
    ) -> (BTreeSet<Tuple>, Option<Factorization>) {
        let base = Base::Borrowed(db);
        let out = answers_budgeted(base, sigma, q, class, side, None, &Budget::unlimited());
        let out = out.unwrap();
        assert!(out.is_exact());
        out.into_value()
    }

    #[test]
    fn factored_certain_matches_monolithic_per_component_path() {
        let (db, sigma) = two_component_employee();
        for q in [
            "Q(x, y) :- Employee(x, y)",
            "Q(x) :- Employee(x, y)",
            "Q(y) :- Employee('page', y)",
        ] {
            let q = UnionQuery::single(parse_query(q).unwrap());
            for class in [RepairClass::Subset, RepairClass::Cardinality] {
                for side in [Side::Certain, Side::Possible] {
                    let (fact, info) = routed_once(&db, &sigma, &q, &class, side);
                    let info = info.expect("denial-class");
                    assert_eq!(fact, per_repair(&db, &sigma, &q, &class, side));
                    assert_eq!(info.components, 2);
                    assert!(!info.spanning, "single-atom witnesses never span");
                    assert!(info.witnesses.is_some(), "the witness-slice fold ran");
                }
            }
        }
    }

    #[test]
    fn spanning_query_falls_back_to_lazy_product_and_agrees() {
        let (db, sigma) = two_component_employee();
        // A self-join across names joins witnesses from both conflict
        // components, so the per-component fold is unsound and the lazy
        // cross-product fold must take over.
        let q =
            UnionQuery::single(parse_query("Q(x, u) :- Employee(x, y), Employee(u, w)").unwrap());
        let class = RepairClass::Subset;
        for side in [Side::Certain, Side::Possible] {
            let (fact, info) = routed_once(&db, &sigma, &q, &class, side);
            let info = info.expect("denial-class");
            assert!(info.spanning);
            assert_eq!(info.witnesses, None);
            assert_eq!(fact, per_repair(&db, &sigma, &q, &class, side));
        }
    }

    #[test]
    fn factored_fold_is_not_applicable_outside_the_denial_class() {
        let (db, sigma) = supply();
        let q = UnionQuery::single(parse_query("Q(z) :- Supply(x, y, z)").unwrap());
        let (_, info) = routed_once(&db, &sigma, &q, &RepairClass::Subset, Side::Certain);
        assert!(info.is_none());
        let (db, sigma) = two_component_employee();
        let q = UnionQuery::single(parse_query("Q(x) :- Employee(x, y)").unwrap());
        let class = RepairClass::AttributeNull;
        let (_, info) = routed_once(&db, &sigma, &q, &class, Side::Certain);
        assert!(info.is_none());
    }

    #[test]
    fn factored_truncation_degrades_to_the_sound_bounds() {
        let (db, sigma) = two_component_employee();
        let q = UnionQuery::single(parse_query("Q(x) :- Employee(x, y)").unwrap());
        // One step: enumeration is cut immediately; certain degrades to the
        // frozen-core answers, possible to Q(D).
        let class = RepairClass::Subset;
        let out = consistent_answers_budgeted(&db, &sigma, &q, &class, &Budget::steps(1)).unwrap();
        assert!(out.is_truncated());
        assert_eq!(out.into_value(), [tuple!["smith"]].into());
        let out = possible_answers_budgeted(&db, &sigma, &q, &class, &Budget::steps(1)).unwrap();
        assert!(out.is_truncated());
        assert_eq!(
            out.into_value(),
            [tuple!["page"], tuple!["miller"], tuple!["smith"]].into()
        );
    }

    /// One key group of three salaries plus two clean rows: a single
    /// conflict component, which the budgeted entries fold as a product of
    /// one factor.
    fn one_component_employee() -> (Database, ConstraintSet) {
        let (mut db, sigma) = employee();
        db.insert("Employee", tuple!["page", 9000]).unwrap();
        (db, sigma)
    }

    /// Unary facts A(a), B(a), C(a), D(a) (tids 1–4) under the denials
    /// `A(x), B(x), D(x)` and `B(x), C(x)`, plus a tgd over two empty
    /// relations that sends Σ to the general search. That search records
    /// the non-minimal delta {A, B} before {B}, so a search cut after {B}
    /// holds three candidates but only two minimal repairs.
    fn tgd_search_instance() -> (Database, ConstraintSet) {
        let mut db = Database::new();
        for r in ["A", "B", "C", "D", "E", "F"] {
            db.create_relation(RelationSchema::new(r, ["X"])).unwrap();
        }
        for r in ["A", "B", "C", "D"] {
            db.insert(r, tuple!["a"]).unwrap();
        }
        let mut sigma = ConstraintSet::from_iter([Tgd::parse("t", "F(x) :- E(x)").unwrap()]);
        for (name, body) in [("d1", "A(x), B(x), D(x)"), ("d2", "B(x), C(x)")] {
            sigma.push(cqa_constraints::DenialConstraint::parse(name, body).unwrap());
        }
        (db, sigma)
    }

    /// Every outcome of `run` under `Budget::steps(n)` for n = 1, 2, … up
    /// to the first exact one, as `n: reason explored: answers` lines, one
    /// per n at which the outcome changes.
    fn cut_points(run: impl Fn(&Budget) -> Outcome<BTreeSet<Tuple>>) -> Vec<String> {
        let mut lines = Vec::new();
        let mut last = String::new();
        for n in 1u64.. {
            let out = run(&Budget::steps(n));
            let answers: Vec<String> = out.value().iter().map(Tuple::to_string).collect();
            let status = match out.truncation() {
                Some((reason, explored)) => format!("{} {explored}", reason.as_str()),
                None => "exact".to_string(),
            };
            let line = format!("{status}: {}", answers.join(" "));
            if line != last {
                lines.push(format!("{n}: {line}"));
                last = line;
            }
            if out.is_exact() {
                return lines;
            }
        }
        lines
    }

    /// [`cut_points`] of the routed budgeted entry for one side.
    fn routed(
        db: &Database,
        sigma: &ConstraintSet,
        query: &UnionQuery,
        side: Side,
        class: RepairClass,
    ) -> Vec<String> {
        cut_points(|budget| {
            match side {
                Side::Certain => consistent_answers_budgeted(db, sigma, query, &class, budget),
                Side::Possible => possible_answers_budgeted(db, sigma, query, &class, budget),
            }
            .unwrap()
        })
    }

    /// Pins where a step budget cuts each fold, and the whole `Outcome` it
    /// then reports: the witness-slice fold over one component, the
    /// monolithic certain and possible folds over the general search (whose
    /// two sides count `explored` differently once the search is cut), and
    /// the lazy-product fold. The employee components are block-shaped (a
    /// K₃ key group, and single edges), so their families are read off the
    /// classes at one tick per set rather than searched; the fold then
    /// ticks once per set again, and `explored` counts the components
    /// enumerated exactly.
    #[test]
    fn step_budgets_cut_every_fold_at_pinned_points() {
        let q = |text| UnionQuery::single(parse_query(text).unwrap());
        let (db, sigma) = one_component_employee();
        let names = q("Q(x) :- Employee(x, y)");
        assert_eq!(
            routed(&db, &sigma, &names, Side::Certain, RepairClass::Subset),
            [
                "1: step-limit 0: (smith) (stowe)",
                "3: step-limit 1: (smith) (stowe)",
                "6: exact: (page) (smith) (stowe)",
            ]
        );
        assert_eq!(
            routed(&db, &sigma, &names, Side::Possible, RepairClass::Subset),
            [
                "1: step-limit 0: (page) (smith) (stowe)",
                "3: step-limit 1: (page) (smith) (stowe)",
                "6: exact: (page) (smith) (stowe)",
            ]
        );
        assert_eq!(
            routed(&db, &sigma, &names, Side::Certain, RepairClass::Cardinality),
            [
                "1: step-limit 0: (smith) (stowe)",
                "4: step-limit 1: (smith) (stowe)",
                "7: exact: (page) (smith) (stowe)",
            ]
        );
        assert_eq!(
            routed(
                &db,
                &sigma,
                &names,
                Side::Possible,
                RepairClass::Cardinality
            ),
            [
                "1: step-limit 0: (page) (smith) (stowe)",
                "4: step-limit 1: (page) (smith) (stowe)",
                "7: exact: (page) (smith) (stowe)",
            ]
        );

        let (db, sigma) = tgd_search_instance();
        let tags =
            cqa_query::parse_ucq("Q('A') :- A(x)\nQ('B') :- B(x)\nQ('C') :- C(x)\nQ('D') :- D(x)")
                .unwrap();
        assert_eq!(
            routed(&db, &sigma, &tags, Side::Certain, RepairClass::Subset),
            [
                "1: step-limit 0: ",
                "3: step-limit 1: ",
                "4: step-limit 2: ",
                "5: step-limit 3: ",
                "11: exact: ",
            ]
        );
        assert_eq!(
            routed(&db, &sigma, &tags, Side::Possible, RepairClass::Subset),
            [
                "1: step-limit 0: ",
                "3: step-limit 1: (C) (D)",
                "4: step-limit 2: (B) (C) (D)",
                "5: step-limit 2: (A) (B) (C) (D)",
                "8: step-limit 3: (A) (B) (C) (D)",
                "11: exact: (A) (B) (C) (D)",
            ]
        );
        assert_eq!(
            routed(&db, &sigma, &tags, Side::Certain, RepairClass::Cardinality),
            [
                "1: step-limit 0: ",
                "3: step-limit 1: ",
                "4: step-limit 2: ",
                "8: step-limit 1: ",
                "9: exact: (A) (C) (D)",
            ]
        );
        assert_eq!(
            routed(&db, &sigma, &tags, Side::Possible, RepairClass::Cardinality),
            [
                "1: step-limit 0: ",
                "3: step-limit 1: (C) (D)",
                "4: step-limit 2: (B) (C) (D)",
                "5: step-limit 1: (A) (C) (D)",
                "9: exact: (A) (C) (D)",
            ]
        );

        // Every witness of this join spans both components, so the lazy
        // product answers.
        let (db, sigma) = two_component_employee();
        let pairs = q("Q(x, u) :- Employee(x, 5000), Employee(u, 1000)");
        let product = |side| routed(&db, &sigma, &pairs, side, RepairClass::Subset);
        assert_eq!(
            product(Side::Certain),
            [
                "1: step-limit 0: ",
                "2: step-limit 1: ",
                "4: step-limit 2: ",
                "5: exact: ",
            ]
        );
        assert_eq!(
            product(Side::Possible),
            [
                "1: step-limit 0: (page, miller)",
                "2: step-limit 1: (page, miller)",
                "4: step-limit 2: (page, miller)",
                "8: exact: (page, miller)",
            ]
        );
    }
}
