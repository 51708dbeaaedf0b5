//! Cost-based join planning and the repair-family subplan cache.
//!
//! Two pieces live here, both feeding the CQA folds in `cqa-core`:
//!
//! 1. **A cardinality-estimate-driven join orderer** ([`join_order`]).
//!    `access` is the one place that decides how the evaluator reaches
//!    an atom's candidate rows ([`Access`]): a hash probe on every column
//!    a constant or an earlier atom binds, else a range probe of a sorted
//!    index when a `var op const` comparison bounds one of the atom's
//!    columns, else a scan. `access_estimate` costs the probe from
//!    [`cqa_relation::ColumnStats`] (`rows / Π distinct(bound column)`,
//!    exact distinct counts kept current across writes) or by the exact
//!    number of rows in the range, in saturating `u128` integer
//!    arithmetic. [`explain`] orders the atoms greedily with a one-step
//!    lookahead: a candidate scores its estimate times one plus the
//!    cheapest atom that could follow it, so a selective probe goes first
//!    even when a small relation scans cheaper. No floats, no clocks, no
//!    randomness: the same query over the same content always yields the
//!    same order, and the totally ordered tie-break ending in the atom
//!    index is stable under relation insertion order. Ordering only
//!    changes *how fast* answers arrive, never *which* answers: evaluation
//!    is a bind-and-filter join whose output is a set.
//!
//! 2. **A shared subplan cache** ([`cached_certain_answers`]). The 2^k /
//!    per-component repair folds evaluate near-identical UCQs over views
//!    that differ by tiny deltas. Entries are keyed by a 128-bit
//!    fingerprint folding the query fragment, the null semantics, and
//!    [`Facts::plan_fingerprint`] — content stamps of the mentioned
//!    relations plus the view's delta *scoped to those relations*. Stamps
//!    are globally unique and re-minted on every mutation over an
//!    append-only `ValueDict`, so a stale entry can never be keyed like a
//!    live one: equal key ⟹ identical visible content ⟹ identical
//!    answers. Cached values are the **null-filtered answer sets** the
//!    certain/possible folds consume, shared as `Arc`s across repairs,
//!    components, incremental refreshes, and warm server sessions.
//!
//! This module never reads the environment or the clock (L005); whether
//! the cache is consulted is decided by the caller (see
//! `cqa_exec::plan_cache_enabled`, the sanctioned ambient read).

use crate::ast::{Atom, CmpOp, ConjunctiveQuery, Term, UnionQuery, Var};
use crate::eval::NullSemantics;
use cqa_relation::fxhash::{FxHashMap, FxHasher};
use cqa_relation::{Facts, Tuple, Value};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Relations at or above this many visible rows use indexed probes (hash
/// or range) in the evaluator; smaller ones are scanned.
pub const INDEX_THRESHOLD: usize = 32;

/// `base^exp` in saturating `u128` arithmetic — shared with the
/// `cqa-analysis` grounding estimator so both size models agree.
pub fn saturating_pow(base: u128, exp: u32) -> u128 {
    let mut out: u128 = 1;
    for _ in 0..exp {
        out = out.saturating_mul(base);
    }
    out
}

/// How the evaluator reaches one atom's candidate rows. Every candidate is
/// still matched against the atom and re-checked against the body's
/// comparisons, so an access path only narrows what is visited.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Access {
    /// Visit every visible row.
    Scan,
    /// Probe the base's hash index on these columns (ascending), each
    /// bound by a constant or by an earlier atom.
    HashProbe(Vec<usize>),
    /// Visit the rows of the base's sorted index on `col` whose value lies
    /// between `lo` and `hi`: the combined bounds of the body's `var op
    /// const` comparisons on that column. Under SQL semantics the probe
    /// skips nulls.
    RangeProbe {
        /// The compared column.
        col: usize,
        /// Lower bound, in structural [`Value`] order.
        lo: Bound<Value>,
        /// Upper bound, in structural [`Value`] order.
        hi: Bound<Value>,
    },
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Access::Scan => f.write_str("scan"),
            Access::HashProbe(cols) => {
                let cols: Vec<String> = cols.iter().map(usize::to_string).collect();
                write!(f, "hash probe on column(s) {}", cols.join(", "))
            }
            Access::RangeProbe { col, lo, hi } => {
                write!(f, "range probe on column {col}, ")?;
                match lo {
                    Bound::Unbounded => f.write_str("(-inf")?,
                    Bound::Included(v) => write!(f, "[{v}")?,
                    Bound::Excluded(v) => write!(f, "({v}")?,
                }
                match hi {
                    Bound::Unbounded => f.write_str(", +inf)"),
                    Bound::Included(v) => write!(f, ", {v}]"),
                    Bound::Excluded(v) => write!(f, ", {v})"),
                }
            }
        }
    }
}

/// One step of a chosen join order, for observability (`repairctl analyze
/// --plan`, the `repaird` `/health` endpoint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// Index of the atom in the query's body.
    pub atom: usize,
    /// The atom's relation name.
    pub relation: String,
    /// Estimated rows this step visits.
    pub estimate: u128,
    /// How the step reaches its candidate rows.
    pub access: Access,
}

/// A chosen join order plus its per-step estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanExplain {
    /// Atom indexes in evaluation order.
    pub order: Vec<usize>,
    /// Per-step details, aligned with `order`.
    pub steps: Vec<PlanStep>,
}

impl PlanExplain {
    /// Estimated total intermediate-result size: the product of the
    /// per-step estimates (saturating).
    pub fn estimated_witnesses(&self) -> u128 {
        self.steps
            .iter()
            .fold(1u128, |acc, s| acc.saturating_mul(s.estimate.max(1)))
    }

    /// Render the order as `R ⋈ S ⋈ T` for human consumption.
    pub fn describe(&self) -> String {
        self.steps
            .iter()
            .map(|s| s.relation.as_str())
            .collect::<Vec<_>>()
            .join(" ⋈ ")
    }
}

/// The columns of `atom` whose value is known once `bound` is: constants
/// and variables bound by earlier atoms, ascending.
fn bound_columns(atom: &Atom, bound: &BTreeSet<Var>) -> Vec<usize> {
    atom.terms
        .iter()
        .enumerate()
        .filter_map(|(pos, t)| match t {
            Term::Const(_) => Some(pos),
            Term::Var(v) => bound.contains(v).then_some(pos),
        })
        .collect()
}

/// The tighter of two lower bounds (`upper` false) or upper bounds.
fn tighter(a: Bound<Value>, b: Bound<Value>, upper: bool) -> Bound<Value> {
    let (x, y) = match (&a, &b) {
        (Bound::Unbounded, _) => return b,
        (_, Bound::Unbounded) => return a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            (x, y)
        }
    };
    match (x.cmp(y), upper) {
        (CmpOrdering::Less, false) | (CmpOrdering::Greater, true) => b,
        (CmpOrdering::Greater, false) | (CmpOrdering::Less, true) => a,
        (CmpOrdering::Equal, _) if matches!(a, Bound::Excluded(_)) => a,
        (CmpOrdering::Equal, _) => b,
    }
}

/// The range probe the body's `var op const` comparisons allow on `atom`:
/// the lowest column some comparison bounds, with every bound on that
/// column combined. `!=` and null constants never bound a range.
fn range_probe(cq: &ConjunctiveQuery, atom: &Atom) -> Option<Access> {
    let mut found: Option<(usize, Bound<Value>, Bound<Value>)> = None;
    for c in &cq.comparisons {
        let (var, op, konst) = match (&c.left, &c.right) {
            (Term::Var(v), Term::Const(k)) => (*v, c.op, k),
            (Term::Const(k), Term::Var(v)) => (*v, c.op.flipped(), k),
            _ => continue,
        };
        if konst.is_null() {
            continue;
        }
        let Some(&col) = atom.positions_of(var).first() else {
            continue;
        };
        let (lo, hi) = match op {
            CmpOp::Eq => (
                Bound::Included(konst.clone()),
                Bound::Included(konst.clone()),
            ),
            CmpOp::Lt => (Bound::Unbounded, Bound::Excluded(konst.clone())),
            CmpOp::Le => (Bound::Unbounded, Bound::Included(konst.clone())),
            CmpOp::Gt => (Bound::Excluded(konst.clone()), Bound::Unbounded),
            CmpOp::Ge => (Bound::Included(konst.clone()), Bound::Unbounded),
            CmpOp::Ne => continue,
        };
        found = match found {
            Some((at, l, h)) if at == col => {
                Some((col, tighter(l, lo, false), tighter(h, hi, true)))
            }
            Some((at, l, h)) if at < col => Some((at, l, h)),
            _ => Some((col, lo, hi)),
        };
    }
    found.map(|(col, lo, hi)| Access::RangeProbe { col, lo, hi })
}

/// The base row positions a [`Access::RangeProbe`] of `relation`'s column
/// `col` visits, in value order, nulls skipped when `skip_nulls`. `None`
/// when the base has no such relation or column.
pub(crate) fn range_positions<F: Facts + ?Sized>(
    facts: &F,
    relation: &str,
    col: usize,
    (lo, hi): (&Bound<Value>, &Bound<Value>),
    skip_nulls: bool,
) -> Option<Vec<u32>> {
    let sorted = facts.base().sorted_index(relation, col)?;
    let run = sorted.range(facts.base().dict(), lo.as_ref(), hi.as_ref());
    // Nulls sort below every other value, so they are a prefix of any run.
    let nulls = if skip_nulls {
        run.partition_point(|&(vid, _)| facts.vid_is_null(vid))
    } else {
        0
    };
    Some(
        run.get(nulls..)
            .unwrap_or(&[])
            .iter()
            .map(|&(_, pos)| pos)
            .collect(),
    )
}

/// How the evaluator reaches atom `atom_idx` of `cq` once the variables in
/// `bound` are known. This is the one decision point: [`explain`] costs
/// orders with it (through `access_estimate`) and the evaluator follows
/// it.
///
/// Relations below [`INDEX_THRESHOLD`] rows are scanned. Otherwise an atom
/// with a bound column probes the hash index on all of them; one without
/// takes a range probe when a comparison bounds one of its columns; any
/// other atom is scanned.
pub(crate) fn access<F: Facts + ?Sized>(
    facts: &F,
    cq: &ConjunctiveQuery,
    atom_idx: usize,
    bound: &BTreeSet<Var>,
) -> Access {
    let Some(atom) = cq.atoms.get(atom_idx) else {
        return Access::Scan;
    };
    if facts.relation_len(&atom.relation) < INDEX_THRESHOLD {
        return Access::Scan;
    }
    let bound_cols = bound_columns(atom, bound);
    if !bound_cols.is_empty() {
        return Access::HashProbe(bound_cols);
    }
    range_probe(cq, atom).unwrap_or(Access::Scan)
}

/// `access` for atom `atom_idx`, with the rows it is estimated to visit.
/// A bound column is costed from the relation's
/// [`cqa_relation::ColumnStats`], a range probe by the exact number of
/// non-null rows in its range (plus the view's overlay), and a scan by the
/// visible row count.
fn access_estimate<F: Facts + ?Sized>(
    facts: &F,
    cq: &ConjunctiveQuery,
    atom_idx: usize,
    bound: &BTreeSet<Var>,
) -> (Access, u128) {
    let access = access(facts, cq, atom_idx, bound);
    let Some(atom) = cq.atoms.get(atom_idx) else {
        return (access, 0);
    };
    let size = facts.relation_len(&atom.relation);
    let bound_cols = bound_columns(atom, bound);
    if size == 0 {
        return (access, 0);
    }
    let est = if !bound_cols.is_empty() {
        // Distinct counts come from the shared base columns; the view's
        // delta is tiny by construction, so clamping the base estimate to
        // the view's visible size keeps it honest.
        match facts.base().column_stats(&atom.relation) {
            Some(stats) if stats.rows() > 0 => {
                stats.probe_estimate(&bound_cols).min(size as u128).max(1)
            }
            // Overlay-only or empty-in-base relation: a bound column still
            // filters, assume the probe halves the scan as a mild preference.
            _ => ((size as u128) / 2).max(1),
        }
    } else if let Access::RangeProbe { col, lo, hi } = &access {
        let overlay = facts.overlay_rows(&atom.relation).len();
        match range_positions(facts, &atom.relation, *col, (lo, hi), true) {
            Some(rows) => (rows.len() + overlay).min(size) as u128,
            None => size as u128,
        }
    } else {
        size as u128
    };
    (access, est)
}

/// Pick a cost-based greedy join order for `cq`'s positive atoms.
///
/// See [`explain`] for the selection rule. Every component of its key is
/// content-derived and the last component is a strict total order, so the
/// choice is deterministic and independent of relation insertion order
/// (pinned by `stable_tie_break_under_relation_insertion_order`).
pub fn join_order<F: Facts + ?Sized>(facts: &F, cq: &ConjunctiveQuery) -> Vec<usize> {
    explain(facts, cq).order
}

/// [`join_order`] with per-step estimates and access paths.
///
/// Each step picks, among the atoms left, the one minimizing `(score,
/// estimate, fewer bound columns, larger size, larger atom index)`, where
/// the score is the atom's estimate times one plus the cheapest estimate
/// of any other atom left once its variables are bound: the rows this step
/// and the next one visit. The lookahead is one step deep, so planning
/// stays polynomial in the body size.
pub fn explain<F: Facts + ?Sized>(facts: &F, cq: &ConjunctiveQuery) -> PlanExplain {
    let n = cq.atoms.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    let mut steps = Vec::with_capacity(n);
    let mut bound: BTreeSet<Var> = BTreeSet::new();
    // Selection key: (score, estimate, inverted bound-column count, size,
    // atom index) — see the comparison site.
    type Key = (u128, u128, usize, usize, usize);
    while !remaining.is_empty() {
        let mut best: Option<(usize, Key, Access)> = None;
        for (slot, &i) in remaining.iter().enumerate() {
            let Some(atom) = cq.atoms.get(i) else {
                continue;
            };
            let (access, est) = access_estimate(facts, cq, i, &bound);
            let mut after = bound.clone();
            after.extend(atom.vars());
            let next = remaining
                .iter()
                .filter(|&&j| j != i)
                .map(|&j| access_estimate(facts, cq, j, &after).1)
                .min()
                .unwrap_or(0);
            // Minimized lexicographically: fewer rows visited over this
            // step and the next, then the cheaper step itself, then *more*
            // bound columns (inverted), then the smaller relation, then
            // the earlier atom. The atom index makes the order total, so no
            // iteration order can perturb the outcome.
            let score = est.saturating_mul(next.saturating_add(1));
            let bound_cols = bound_columns(atom, &bound).len();
            let size = facts.relation_len(&atom.relation);
            let key = (score, est, usize::MAX - bound_cols, size, i);
            if best.as_ref().is_none_or(|(_, k, _)| key < *k) {
                best = Some((slot, key, access));
            }
        }
        // `remaining` is non-empty, so `best` is always set.
        let Some((slot, (_, est, _, _, atom_idx), access)) = best else {
            break;
        };
        let Some(atom) = cq.atoms.get(atom_idx) else {
            break;
        };
        order.push(atom_idx);
        steps.push(PlanStep {
            atom: atom_idx,
            relation: atom.relation.clone(),
            estimate: est,
            access,
        });
        bound.extend(atom.vars());
        remaining.remove(slot);
    }
    PlanExplain { order, steps }
}

// ---------------------------------------------------------------------------
// Query fingerprints
// ---------------------------------------------------------------------------

fn hash_both<T: Hash + ?Sized>(item: &T, h1: &mut FxHasher, h2: &mut FxHasher) {
    item.hash(h1);
    item.hash(h2);
}

fn hash_cq(cq: &ConjunctiveQuery, h1: &mut FxHasher, h2: &mut FxHasher) {
    // Field-by-field structural hash (ConjunctiveQuery itself carries a
    // VarTable that doesn't implement Hash and doesn't affect semantics
    // beyond variable indexes, which the terms already encode).
    hash_both(&cq.head, h1, h2);
    hash_both(&cq.atoms, h1, h2);
    hash_both(&cq.negated, h1, h2);
    hash_both(&cq.comparisons, h1, h2);
}

/// A 128-bit structural fingerprint of a union query: equal queries (same
/// disjuncts, atoms, terms, comparisons) always collide, differing ones
/// practically never (two independent seeded lanes).
pub fn ucq_signature(query: &UnionQuery) -> (u64, u64) {
    let mut h1 = FxHasher::default();
    let mut h2 = FxHasher::default();
    h2.write_u64(0x9e37_79b9_7f4a_7c15);
    hash_both(&query.disjuncts.len(), &mut h1, &mut h2);
    for cq in &query.disjuncts {
        hash_cq(cq, &mut h1, &mut h2);
    }
    (h1.finish(), h2.finish())
}

/// Every relation a union query mentions (positive and negated atoms),
/// sorted and deduplicated — the scope of the cache key's data
/// fingerprint.
pub fn mentioned_relations(query: &UnionQuery) -> Vec<&str> {
    let mut rels: Vec<&str> = query
        .disjuncts
        .iter()
        .flat_map(|cq| {
            cq.atoms
                .iter()
                .chain(cq.negated.iter())
                .map(|a| a.relation.as_str())
        })
        .collect();
    rels.sort_unstable();
    rels.dedup();
    rels
}

// ---------------------------------------------------------------------------
// The subplan cache
// ---------------------------------------------------------------------------

/// Hit/miss/size snapshot of the process-wide subplan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to evaluate.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl PlanCacheStats {
    /// Hits as a share of all lookups, in percent ×100 (integer — the
    /// workspace keeps floats out of reporting math too). 0 when idle.
    pub fn hit_permille(&self) -> u64 {
        (self.hits * 1000)
            .checked_div(self.hits + self.misses)
            .unwrap_or(0)
    }
}

/// Entries the cache holds before wholesale eviction. Eviction clears the
/// whole map (deterministic — no recency bookkeeping, no clock): a cleared
/// entry is simply recomputed on next use, so answers never change.
const PLAN_CACHE_CAP: usize = 8192;

/// Cache key → shared answer set; the key is the folded 128-bit
/// (query, content, semantics) fingerprint.
type CacheMap = FxHashMap<(u64, u64), Arc<BTreeSet<Tuple>>>;

struct PlanCache {
    map: RwLock<CacheMap>,
    hits: AtomicU64,
    misses: AtomicU64,
}

static CACHE: OnceLock<PlanCache> = OnceLock::new();

fn cache() -> &'static PlanCache {
    CACHE.get_or_init(|| PlanCache {
        map: RwLock::new(FxHashMap::default()),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
    })
}

/// Snapshot the cache counters (process-wide).
pub fn plan_cache_stats() -> PlanCacheStats {
    let c = cache();
    let entries = c.map.read().unwrap_or_else(|e| e.into_inner()).len();
    PlanCacheStats {
        hits: c.hits.load(Ordering::Relaxed),
        misses: c.misses.load(Ordering::Relaxed),
        entries,
    }
}

/// Drop every cached entry and zero the counters. Used by tests, the bench
/// harness, and `cqa-core`'s incremental maintenance on structural resets.
pub fn reset_plan_cache() {
    let c = cache();
    c.map.write().unwrap_or_else(|e| e.into_inner()).clear();
    c.hits.store(0, Ordering::Relaxed);
    c.misses.store(0, Ordering::Relaxed);
}

/// The full cache key: query fragment × semantics × visible-content
/// fingerprint of the mentioned relations. `None` when the view cannot
/// certify a fingerprint — the caller then evaluates uncached.
fn cache_key<F: Facts + ?Sized>(
    facts: &F,
    query: &UnionQuery,
    mode: NullSemantics,
) -> Option<(u64, u64)> {
    let rels = mentioned_relations(query);
    let (d1, d2) = facts.plan_fingerprint(&rels)?;
    let (q1, q2) = ucq_signature(query);
    let mut h1 = FxHasher::default();
    let mut h2 = FxHasher::default();
    h2.write_u64(0x9e37_79b9_7f4a_7c15);
    let mode_tag: u8 = match mode {
        NullSemantics::Structural => 0,
        NullSemantics::Sql => 1,
    };
    hash_both(&(q1, q2, d1, d2, mode_tag), &mut h1, &mut h2);
    Some((h1.finish(), h2.finish()))
}

/// The null-filtered answer set of `query` over `facts` — the unit every
/// certain/possible CQA fold consumes — via the subplan cache when
/// `enabled` and the view can certify a content fingerprint.
///
/// Certain folds intersect (`retain`) against it and possible folds union
/// null-free answers into it, so the filtered set is exactly equivalent to
/// filtering at each fold site. Budgeted folds are unaffected: budget
/// ticks are charged per repair *before* evaluation, so a cache hit
/// changes elapsed work but never truncation points.
pub fn cached_certain_answers<F: Facts + ?Sized>(
    facts: &F,
    query: &UnionQuery,
    mode: NullSemantics,
    enabled: bool,
) -> Arc<BTreeSet<Tuple>> {
    let compute = || -> BTreeSet<Tuple> {
        crate::eval::eval_ucq(facts, query, mode)
            .into_iter()
            .filter(|t| !t.has_null())
            .collect()
    };
    let key = if enabled {
        cache_key(facts, query, mode)
    } else {
        None
    };
    let Some(key) = key else {
        return Arc::new(compute());
    };
    let c = cache();
    {
        let map = c.map.read().unwrap_or_else(|e| e.into_inner());
        if let Some(found) = map.get(&key) {
            c.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(found);
        }
    }
    c.misses.fetch_add(1, Ordering::Relaxed);
    let computed = Arc::new(compute());
    let mut map = c.map.write().unwrap_or_else(|e| e.into_inner());
    if map.len() >= PLAN_CACHE_CAP {
        map.clear();
    }
    // Two threads may race to the same key; both computed identical
    // content (the key certifies it), so keeping the first is sound.
    Arc::clone(map.entry(key).or_insert(computed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_query, parse_ucq};
    use cqa_relation::{tuple, Database, RelationSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Big", ["A", "B"]))
            .unwrap();
        db.create_relation(RelationSchema::new("Small", ["A"]))
            .unwrap();
        for i in 0..100i64 {
            db.insert("Big", tuple![i % 10, i]).unwrap();
        }
        for i in 0..3i64 {
            db.insert("Small", tuple![i]).unwrap();
        }
        db
    }

    #[test]
    fn orderer_starts_from_the_cheapest_access() {
        let d = db();
        let q = parse_query("Q(a, b) :- Big(a, b), Small(a)").unwrap();
        let plan = explain(&d, &q);
        // Small (3 rows) scans cheaper than Big (100 rows); once `a` is
        // bound, Big is probed through its column-0 index (~10 rows). With
        // the lookahead Small scores 3 × (1 + 10), Big 100 × (1 + 1).
        assert_eq!(plan.order, vec![1, 0]);
        assert_eq!(plan.steps[1].access, Access::HashProbe(vec![0]));
        assert!(plan.steps[1].estimate <= 10);
        assert!(!plan.describe().is_empty());
        assert!(plan.estimated_witnesses() >= 1);
    }

    #[test]
    fn constants_make_probes_attractive() {
        let d = db();
        let q = parse_query("Q(b) :- Big(3, b)").unwrap();
        let plan = explain(&d, &q);
        assert_eq!(plan.steps[0].access, Access::HashProbe(vec![0]));
        assert!(plan.steps[0].estimate <= 10);
    }

    #[test]
    fn stable_tie_break_under_relation_insertion_order() {
        // Two identical-statistics relations: the tie must resolve by atom
        // index regardless of which relation was created first.
        let build = |flip: bool| {
            let mut d = Database::new();
            let names = if flip { ["T2", "T1"] } else { ["T1", "T2"] };
            for n in names {
                d.create_relation(RelationSchema::new(n, ["A"])).unwrap();
            }
            for i in 0..5i64 {
                d.insert("T1", tuple![i]).unwrap();
                d.insert("T2", tuple![i]).unwrap();
            }
            d
        };
        let q = parse_query("Q(x) :- T1(x), T2(x)").unwrap();
        let a = join_order(&build(false), &q);
        let b = join_order(&build(true), &q);
        assert_eq!(a, b);
        assert_eq!(a, vec![0, 1]); // tie → earliest atom first
    }

    /// 2 000 orders over 50 cities, amounts spread below 10 000.
    fn orders_db() -> Database {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new(
            "Orders",
            ["OID", "Cust", "City", "Status", "Amount"],
        ))
        .unwrap();
        db.create_relation(RelationSchema::new("Cities", ["City", "Region"]))
            .unwrap();
        for i in 0..2_000i64 {
            let cust = i % 200;
            let city = format!("city{}", cust % 50);
            let amount = (i * 7_919) % 10_000;
            db.insert("Orders", tuple![i, cust, city.as_str(), "open", amount])
                .unwrap();
        }
        for c in 0..50i64 {
            db.insert("Cities", tuple![format!("city{c}").as_str(), c % 5])
                .unwrap();
        }
        db
    }

    #[test]
    fn range_probed_atom_goes_first_with_its_exact_count() {
        let d = orders_db();
        let q = parse_query("Q(c, r) :- Orders(o, c, x, s, a), Cities(x, r), a < 300").unwrap();
        let plan = explain(&d, &q);
        let below = (0..2_000i64).filter(|i| (i * 7_919) % 10_000 < 300).count();
        // 60 orders then one city each, against 50 cities then 40 orders
        // each: the lookahead starts from the range probe.
        assert_eq!(plan.order, vec![0, 1]);
        assert_eq!(
            plan.steps[0].access,
            Access::RangeProbe {
                col: 4,
                lo: Bound::Unbounded,
                hi: Bound::Excluded(Value::Int(300)),
            }
        );
        assert_eq!(plan.steps[0].estimate, below as u128);
        assert_eq!(plan.steps[1].access, Access::HashProbe(vec![0]));
        assert_eq!(plan.steps[1].estimate, 1);
        // Bounds on one column combine; `!=` and nulls never bound a range.
        let both = parse_query("Q(o) :- Orders(o, c, x, s, a), a >= 100, 300 > a, a != 5").unwrap();
        let step = &explain(&d, &both).steps[0];
        assert_eq!(
            step.access,
            Access::RangeProbe {
                col: 4,
                lo: Bound::Included(Value::Int(100)),
                hi: Bound::Excluded(Value::Int(300)),
            }
        );
        let inside = (0..2_000i64)
            .filter(|i| (100..300).contains(&((i * 7_919) % 10_000)))
            .count();
        assert_eq!(step.estimate, inside as u128);
        // Two bounds on one side: the tighter wins, `>` over `>=` on a tie.
        let tight = parse_query(
            "Q(o) :- Orders(o, c, x, s, a), a >= 100, a > 150, a >= 150, 300 > a, a <= 250",
        )
        .unwrap();
        assert_eq!(
            explain(&d, &tight).steps[0].access,
            Access::RangeProbe {
                col: 4,
                lo: Bound::Excluded(Value::Int(150)),
                hi: Bound::Included(Value::Int(250)),
            }
        );
        for text in [
            "Q(o) :- Orders(o, c, x, s, a), a != 5",
            "Q(o) :- Orders(o, c, x, s, a), a < o",
        ] {
            let q = parse_query(text).unwrap();
            assert_eq!(explain(&d, &q).steps[0].access, Access::Scan, "{text}");
        }
        // Below the index threshold (Small has 3 rows) the filter scans.
        let small = parse_query("Q(a) :- Small(a), a < 2").unwrap();
        assert_eq!(explain(&db(), &small).steps[0].access, Access::Scan);
    }

    #[test]
    fn range_estimates_skip_nulls() {
        let mut d = Database::new();
        d.create_relation(RelationSchema::new("N", ["K", "V"]))
            .unwrap();
        for i in 0..40i64 {
            let v = if i % 4 == 0 {
                Value::NULL
            } else {
                Value::Int(i)
            };
            d.insert("N", cqa_relation::Tuple::new([Value::Int(i), v]))
                .unwrap();
        }
        // Nulls sort below every value, so they sit inside `v < 10`'s
        // range; the estimate counts only the non-null rows a SQL probe
        // visits (1, 2, 3, 5, 6, 7, 9).
        let q = parse_query("Q(k) :- N(k, v), v < 10").unwrap();
        let step = &explain(&d, &q).steps[0];
        assert!(matches!(step.access, Access::RangeProbe { col: 1, .. }));
        assert_eq!(step.estimate, 7);
    }

    #[test]
    fn signatures_distinguish_queries_and_modes() {
        let q1 = parse_ucq("Q(x) :- Big(x, y)").unwrap();
        let q2 = parse_ucq("Q(x) :- Big(y, x)").unwrap();
        assert_eq!(ucq_signature(&q1), ucq_signature(&q1));
        assert_ne!(ucq_signature(&q1), ucq_signature(&q2));
        let d = db();
        let k_sql = cache_key(&d, &q1, NullSemantics::Sql).unwrap();
        let k_struct = cache_key(&d, &q1, NullSemantics::Structural).unwrap();
        assert_ne!(k_sql, k_struct);
    }

    #[test]
    fn mentioned_relations_are_sorted_and_deduped() {
        let q = parse_ucq("Q(x) :- Small(x), Big(x, y), not Small(y)\nQ(x) :- Big(x, x)").unwrap();
        assert_eq!(mentioned_relations(&q), vec!["Big", "Small"]);
    }

    #[test]
    fn cache_hits_on_identical_content_and_misses_after_mutation() {
        reset_plan_cache();
        let mut d = db();
        let q = parse_ucq("Q(a) :- Big(a, b), Small(a)").unwrap();
        let first = cached_certain_answers(&d, &q, NullSemantics::Sql, true);
        let again = cached_certain_answers(&d, &q, NullSemantics::Sql, true);
        assert!(Arc::ptr_eq(&first, &again));
        let s = plan_cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        // Uncached evaluation agrees byte for byte.
        let reference = cached_certain_answers(&d, &q, NullSemantics::Sql, false);
        assert_eq!(*first, *reference);
        // A mutation re-mints the stamp: next lookup misses and sees the
        // new row.
        d.insert("Small", tuple![7]).unwrap();
        let after = cached_certain_answers(&d, &q, NullSemantics::Sql, true);
        assert_eq!(plan_cache_stats().misses, 2);
        assert!(after.len() > first.len());
        reset_plan_cache();
        assert_eq!(plan_cache_stats(), PlanCacheStats::default());
    }

    #[test]
    fn hit_permille_is_integer_math() {
        let s = PlanCacheStats {
            hits: 3,
            misses: 1,
            entries: 0,
        };
        assert_eq!(s.hit_permille(), 750);
        assert_eq!(PlanCacheStats::default().hit_permille(), 0);
    }
}
