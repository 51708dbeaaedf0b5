//! Evaluation of conjunctive queries (with safe negation and comparisons)
//! and unions thereof, with optional witness (provenance) extraction.
//!
//! The evaluator is a bind-and-filter join in the cost-based atom order of
//! [`crate::plan::explain`] that runs entirely in **id space**: atom
//! constants are resolved to [`Vid`]s once per query, and joins compare
//! word-sized vids instead of values. Each atom takes its candidates the way
//! `plan::access` decides: a probe of the base instance's shared
//! *multi-column* hash index ([`cqa_relation::Database::hash_index`]) on
//! every bound position at once, a range of the base's sorted index
//! ([`cqa_relation::Database::sorted_index`]) for an atom bounded only by
//! `var op const` comparisons, or a scan.
//! Values reappear only at the emission boundary — a [`Witness`] resolves its
//! vid assignment back through the dictionary — so answers are byte-identical
//! to the old value-space evaluator. This keeps the code honest and
//! auditable, which matters more here than raw speed: repairs and CQA are
//! *defined* in terms of query answers, so the evaluator is the trusted base
//! of the whole workspace.
//!
//! Every entry point is generic over [`Facts`], so the same code path
//! evaluates plain [`cqa_relation::Database`]s and zero-clone [`cqa_relation::DeltaView`]
//! repair views: indexed probes hit the base's cached buckets, filter deleted
//! tids, and union the insert overlay (whose novel values carry per-view
//! extension vids that can never alias base ids).

use crate::ast::{Atom, Comparison, ConjunctiveQuery, Term, UnionQuery, Var};
use crate::plan::Access;
use cqa_relation::fxhash::{FxHasher, WordHashMap};
use cqa_relation::{sql_eq, Facts, HashIndex, Relation, Tid, Truth, Tuple, Value, Vid, VidRow};
use std::collections::BTreeSet;
use std::hash::Hasher;
use std::sync::Arc;

/// How nulls behave during matching (see `cqa-relation::value`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NullSemantics {
    /// Nulls are ordinary constants: `NULL = NULL` holds (label-wise). The
    /// right choice for null-free instances and for model-theoretic checks.
    #[default]
    Structural,
    /// SQL three-valued semantics: a comparison or join involving any null is
    /// *unknown* and therefore never satisfied. The right choice when
    /// querying null-based repairs (§4.2–4.3 of the paper).
    Sql,
}

impl NullSemantics {
    /// Can `a` be considered equal to `b` for joining/selection?
    #[inline]
    pub fn values_join(self, a: &Value, b: &Value) -> bool {
        match self {
            NullSemantics::Structural => a == b,
            NullSemantics::Sql => sql_eq(a, b) == Truth::True,
        }
    }

    /// Evaluate a comparison under this semantics.
    pub fn cmp(self, op: crate::ast::CmpOp, a: &Value, b: &Value) -> bool {
        match self {
            NullSemantics::Structural => op.eval(a, b),
            NullSemantics::Sql => {
                if a.is_null() || b.is_null() {
                    false
                } else {
                    op.eval(a, b)
                }
            }
        }
    }
}

/// A partial assignment of values to a query's variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bindings {
    slots: Vec<Option<Value>>,
}

impl Bindings {
    /// All-unbound assignment for `n_vars` variables.
    pub fn new(n_vars: usize) -> Bindings {
        Bindings {
            slots: vec![None; n_vars],
        }
    }

    /// Value bound to `v`, if any.
    pub fn get(&self, v: Var) -> Option<&Value> {
        self.slots.get(v.0 as usize).and_then(Option::as_ref)
    }

    /// Bind `v` (overwrites).
    pub fn set(&mut self, v: Var, value: Value) {
        let i = v.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        self.slots[i] = Some(value);
    }

    /// Unbind `v`.
    pub fn unset(&mut self, v: Var) {
        if let Some(slot) = self.slots.get_mut(v.0 as usize) {
            *slot = None;
        }
    }

    /// Resolve a term to a value under this assignment.
    pub fn resolve(&self, term: &Term) -> Option<Value> {
        match term {
            Term::Const(v) => Some(v.clone()),
            Term::Var(v) => self.get(*v).cloned(),
        }
    }

    /// Project the given head terms into an answer tuple. `None` if some head
    /// variable is unbound.
    pub fn project(&self, head: &[Term]) -> Option<Tuple> {
        head.iter()
            .map(|t| self.resolve(t))
            .collect::<Option<Vec<_>>>()
            .map(Tuple::new)
    }
}

/// One satisfying assignment of a CQ's positive body: the answer projection
/// plus the tids of the matched atoms (in atom order). This is the
/// "violation witness" used to build conflict hyper-graphs, and the
/// "explanation witness" used by causality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Full variable assignment.
    pub bindings: Bindings,
    /// Matched tuple ids, one per positive atom, in the query's atom order.
    pub tids: Vec<Tid>,
}

/// Try to extend `bindings` by matching `atom` against `tuple`.
///
/// Returns the list of variables newly bound on success so the caller can
/// backtrack cheaply.
pub fn match_atom(
    atom: &Atom,
    tuple: &Tuple,
    bindings: &mut Bindings,
    mode: NullSemantics,
) -> Option<Vec<Var>> {
    debug_assert_eq!(atom.terms.len(), tuple.arity());
    let mut newly = Vec::new();
    for (term, value) in atom.terms.iter().zip(tuple.iter()) {
        match term {
            Term::Const(c) => {
                if !mode.values_join(c, value) {
                    for v in newly {
                        bindings.unset(v);
                    }
                    return None;
                }
            }
            Term::Var(v) => match bindings.get(*v) {
                Some(bound) => {
                    if !mode.values_join(bound, value) {
                        for v in newly {
                            bindings.unset(v);
                        }
                        return None;
                    }
                }
                None => {
                    bindings.set(*v, value.clone());
                    newly.push(*v);
                }
            },
        }
    }
    Some(newly)
}

/// A vid-space variable assignment (one slot per variable). This is what the
/// evaluator joins on internally; the public value-level [`Bindings`] is
/// materialized from it only at the witness-emission boundary.
#[derive(Debug, Clone)]
pub struct VidBindings {
    slots: Vec<Option<Vid>>,
}

impl VidBindings {
    /// All-unbound assignment for `n_vars` variables.
    pub fn new(n_vars: usize) -> VidBindings {
        VidBindings {
            slots: vec![None; n_vars],
        }
    }

    /// Vid bound to `v`, if any.
    #[inline]
    pub fn get(&self, v: Var) -> Option<Vid> {
        self.slots.get(v.0 as usize).copied().flatten()
    }

    /// Bind `v` (overwrites).
    pub fn set(&mut self, v: Var, vid: Vid) {
        let i = v.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        if let Some(slot) = self.slots.get_mut(i) {
            *slot = Some(vid);
        }
    }

    /// Unbind `v`.
    pub fn unset(&mut self, v: Var) {
        if let Some(slot) = self.slots.get_mut(v.0 as usize) {
            *slot = None;
        }
    }

    /// Resolve a term to a *value* through the view's dictionary (comparison
    /// filters operate on values, not ids).
    pub fn resolve_value<F: Facts + ?Sized>(&self, facts: &F, term: &Term) -> Option<Value> {
        match term {
            Term::Const(v) => Some(v.clone()),
            Term::Var(v) => self.get(*v).and_then(|vid| facts.resolve_vid(vid)),
        }
    }

    /// Materialize the public value-level assignment (emission boundary).
    pub fn to_bindings<F: Facts + ?Sized>(&self, facts: &F) -> Bindings {
        let mut cache = WordHashMap::default();
        self.to_bindings_cached(facts, &mut cache)
    }

    /// Like [`Self::to_bindings`], but each distinct vid resolves through
    /// the dictionary at most once per `cache` lifetime. An evaluation emits
    /// many witnesses over few distinct vids (a join key repeats across its
    /// whole bucket), so keeping one cache per query turns the per-witness
    /// dictionary-lock round-trips into word-sized map hits. Lookups are
    /// point reads — the cache is never iterated, so hash order cannot
    /// reach the output.
    pub fn to_bindings_cached<F: Facts + ?Sized>(
        &self,
        facts: &F,
        cache: &mut WordHashMap<Vid, Value>,
    ) -> Bindings {
        let mut out = Bindings::new(self.slots.len());
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(vid) = slot {
                if let Some(value) = resolve_vid_cached(facts, *vid, cache) {
                    out.set(Var(i as u32), value);
                }
            }
        }
        out
    }
}

/// Resolve `vid` through `cache`, falling back to the view's dictionary and
/// memoizing the hit. Sound because a vid's resolution never changes within
/// an evaluation (the dictionary is append-only). Inline vids (small ints,
/// bools, null labels) decode without the dictionary, so they skip the
/// cache.
fn resolve_vid_cached<F: Facts + ?Sized>(
    facts: &F,
    vid: Vid,
    cache: &mut WordHashMap<Vid, Value>,
) -> Option<Value> {
    if let Some(v) = vid.inline_value() {
        return Some(v);
    }
    if let Some(v) = cache.get(&vid) {
        return Some(v.clone());
    }
    let v = facts.resolve_vid(vid)?;
    cache.insert(vid, v.clone());
    Some(v)
}

/// An atom's constant terms resolved to vids, once per evaluation.
pub struct AtomVids {
    /// Aligned with the atom's terms; `Some` only at `Const` positions.
    consts: Vec<Option<Vid>>,
    /// True when no visible row can ever match this atom: a constant the
    /// view has never stored, or (under SQL semantics) a null constant.
    unmatchable: bool,
}

impl AtomVids {
    /// Resolve `atom`'s constants against the view's dictionary.
    pub fn resolve<F: Facts + ?Sized>(facts: &F, atom: &Atom, mode: NullSemantics) -> AtomVids {
        resolve_atom_consts(facts, atom, mode)
    }

    /// Can this atom never match a visible row?
    pub fn is_unmatchable(&self) -> bool {
        self.unmatchable
    }
}

fn resolve_atom_consts<F: Facts + ?Sized>(facts: &F, atom: &Atom, mode: NullSemantics) -> AtomVids {
    let mut unmatchable = false;
    let consts = atom
        .terms
        .iter()
        .map(|t| match t {
            Term::Const(c) => {
                if mode == NullSemantics::Sql && c.is_null() {
                    unmatchable = true;
                }
                let vid = facts.vid_of(c);
                if vid.is_none() {
                    unmatchable = true;
                }
                vid
            }
            Term::Var(_) => None,
        })
        .collect();
    AtomVids {
        consts,
        unmatchable,
    }
}

/// One-position join check in vid space. Vid equality *is* structural value
/// equality (the dictionary canonicalizes), so SQL semantics only adds the
/// null rejection.
#[inline]
fn vids_join<F: Facts + ?Sized>(
    facts: &F,
    mode: NullSemantics,
    expected: Vid,
    actual: Vid,
) -> bool {
    expected == actual && (mode == NullSemantics::Structural || !facts.vid_is_null(actual))
}

/// Vid-space [`match_atom`]: extend `bindings` by matching `atom` against an
/// id-space row. Returns the newly bound variables for cheap backtracking.
/// `av` must be [`AtomVids::resolve`]d for the same atom and mode.
pub fn match_atom_vids<F: Facts + ?Sized>(
    facts: &F,
    atom: &Atom,
    av: &AtomVids,
    row: &VidRow<'_>,
    bindings: &mut VidBindings,
    mode: NullSemantics,
) -> Option<Vec<Var>> {
    if av.unmatchable || row.arity() != atom.terms.len() {
        return None;
    }
    let mut newly = Vec::new();
    for (pos, term) in atom.terms.iter().enumerate() {
        let Some(actual) = row.at(pos) else {
            for v in newly {
                bindings.unset(v);
            }
            return None;
        };
        let ok = match term {
            Term::Const(_) => av
                .consts
                .get(pos)
                .copied()
                .flatten()
                .is_some_and(|expected| vids_join(facts, mode, expected, actual)),
            Term::Var(v) => match bindings.get(*v) {
                Some(expected) => vids_join(facts, mode, expected, actual),
                None => {
                    bindings.set(*v, actual);
                    newly.push(*v);
                    true
                }
            },
        };
        if !ok {
            for v in newly {
                bindings.unset(v);
            }
            return None;
        }
    }
    Some(newly)
}

/// Does any visible row match `atom` under `bindings`? (Used for negation.)
fn atom_has_match_vids<F: Facts + ?Sized>(
    facts: &F,
    atom: &Atom,
    av: &AtomVids,
    bindings: &VidBindings,
    mode: NullSemantics,
) -> bool {
    if av.unmatchable {
        return false;
    }
    // Fast path: fully bound atom → id-space membership probe. Under SQL
    // semantics a null key can never join, so bail before the probe.
    let full: Option<Vec<Vid>> = atom
        .terms
        .iter()
        .enumerate()
        .map(|(i, t)| match t {
            Term::Const(_) => av.consts.get(i).copied().flatten(),
            Term::Var(v) => bindings.get(*v),
        })
        .collect();
    if let Some(key) = full {
        if mode == NullSemantics::Sql && key.iter().any(|&k| facts.vid_is_null(k)) {
            return false;
        }
        return facts.contains_vids(&atom.relation, &key);
    }
    let mut scratch = bindings.clone();
    facts.vid_rows(&atom.relation).any(|(_, row)| {
        match match_atom_vids(facts, atom, av, &row, &mut scratch, mode) {
            Some(newly) => {
                for v in newly {
                    scratch.unset(v);
                }
                true
            }
            None => false,
        }
    })
}

/// Evaluate a comparison once both sides are bound; `None` if not yet bound.
fn try_comparison_vids<F: Facts + ?Sized>(
    c: &Comparison,
    facts: &F,
    bindings: &VidBindings,
    mode: NullSemantics,
) -> Option<bool> {
    let a = bindings.resolve_value(facts, &c.left)?;
    let b = bindings.resolve_value(facts, &c.right)?;
    Some(mode.cmp(c.op, &a, &b))
}

/// Pick the join order for `cq`'s positive atoms.
///
/// Delegates to the cost-based planner ([`crate::plan::join_order`]), which
/// scores candidate atoms by estimated access cost from column statistics
/// and breaks every tie down to the atom index — a strict total order, so
/// the chosen order is stable under relation insertion order. (The
/// boundness-greedy heuristic this replaced used `max_by_key` over a
/// `swap_remove`-perturbed worklist, where equally-scored atoms resolved
/// by whichever the perturbed iteration visited last.)
fn atom_order<F: Facts + ?Sized>(facts: &F, cq: &ConjunctiveQuery) -> Vec<usize> {
    crate::plan::join_order(facts, cq)
}

/// Evaluate the positive part of `cq` and call `sink` for every witness that
/// also passes the comparisons and negated atoms.
///
/// `sink` returns `true` to continue enumeration, `false` to stop early
/// (used by Boolean queries).
pub fn for_each_witness<F: Facts + ?Sized>(
    facts: &F,
    cq: &ConjunctiveQuery,
    mode: NullSemantics,
    sink: &mut dyn FnMut(&Witness) -> bool,
) {
    // Materialize values at this boundary only; the enumeration below stays
    // in id space. One resolve cache spans every witness of the query.
    let mut cache: WordHashMap<Vid, Value> = WordHashMap::default();
    for_each_witness_vids(facts, cq, mode, &mut |bindings, tids| {
        let witness = Witness {
            bindings: bindings.to_bindings_cached(facts, &mut cache),
            tids: tids.to_vec(),
        };
        sink(&witness)
    });
}

/// The id-space core of [`for_each_witness`]: `sink` receives the raw vid
/// assignment and the matched tids, with **no** dictionary access on the
/// emission path. Callers that only need a projection (or just existence)
/// skip the per-witness value materialization entirely and resolve at the
/// very end — resolve, then sort, so id order never shapes the output.
pub fn for_each_witness_vids<F: Facts + ?Sized>(
    facts: &F,
    cq: &ConjunctiveQuery,
    mode: NullSemantics,
    sink: &mut dyn FnMut(&VidBindings, &[Tid]) -> bool,
) {
    let order = atom_order(facts, cq);
    for_each_witness_vids_ordered(facts, cq, mode, &order, sink);
}

/// [`for_each_witness_vids`] with a caller-supplied join order. Any
/// permutation of `0..cq.atoms.len()` is admissible — the evaluator scans
/// when probe variables are unbound — and every admissible order yields the
/// same witness *set* (enumeration order differs). Anything that is not a
/// permutation falls back to the planner's order. Exercised by the
/// plan-equivalence suite to pin answer/order independence.
pub fn for_each_witness_vids_ordered<F: Facts + ?Sized>(
    facts: &F,
    cq: &ConjunctiveQuery,
    mode: NullSemantics,
    order: &[usize],
    sink: &mut dyn FnMut(&VidBindings, &[Tid]) -> bool,
) {
    let n = cq.atoms.len();
    let planned;
    let order = {
        let mut seen = vec![false; n];
        let valid = order.len() == n
            && order.iter().all(|&i| match seen.get_mut(i) {
                Some(s) => !std::mem::replace(s, true),
                None => false,
            });
        if valid {
            order
        } else {
            planned = atom_order(facts, cq);
            planned.as_slice()
        }
    };
    evaluate(facts, cq, mode, order, None, sink);
}

/// [`for_each_witness_vids`] restricted to the witnesses whose atom `pin`
/// matched one of `rows`, which must be visible rows of that atom's
/// relation. The rows replace the pinned atom's candidates, the atom goes
/// first in the join order, and every later probe is computed with its
/// variables already bound. This is the delta join of incremental
/// violation maintenance: pin each atom in turn to the touched rows.
///
/// The other atoms follow in declared order, each reached as
/// `plan::access` decides. The order itself is not planned: the
/// planner is not pin-aware (it ranks atoms as if nothing were bound), and
/// no workload yet has a delta body of three or more atoms to measure a
/// pin-aware plan against. An out-of-range `pin` yields nothing.
pub fn for_each_witness_vids_pinned<F: Facts + ?Sized>(
    facts: &F,
    cq: &ConjunctiveQuery,
    mode: NullSemantics,
    pin: usize,
    rows: &[(Tid, VidRow<'_>)],
    sink: &mut dyn FnMut(&VidBindings, &[Tid]) -> bool,
) {
    let n = cq.atoms.len();
    if pin >= n || rows.is_empty() {
        return;
    }
    let order: Vec<usize> = std::iter::once(pin)
        .chain((0..n).filter(|&i| i != pin))
        .collect();
    evaluate(facts, cq, mode, &order, Some(rows), sink);
}

/// The evaluator core behind [`for_each_witness_vids_ordered`] and
/// [`for_each_witness_vids_pinned`]: `order` is a permutation of the atoms,
/// and `pinned`, when given, replaces the candidate rows of `order[0]`.
fn evaluate<F: Facts + ?Sized>(
    facts: &F,
    cq: &ConjunctiveQuery,
    mode: NullSemantics,
    order: &[usize],
    pinned: Option<&[(Tid, VidRow<'_>)]>,
    sink: &mut dyn FnMut(&VidBindings, &[Tid]) -> bool,
) {
    // Resolve every atom constant to a vid once. A positive atom whose
    // constant the view has never stored (or, under SQL semantics, whose
    // constant is a null) can match nothing: the whole CQ is empty.
    let atom_vids: Vec<AtomVids> = cq
        .atoms
        .iter()
        .map(|a| resolve_atom_consts(facts, a, mode))
        .collect();
    if atom_vids.iter().any(|av| av.unmatchable) {
        return;
    }
    let neg_vids: Vec<AtomVids> = cq
        .negated
        .iter()
        .map(|a| resolve_atom_consts(facts, a, mode))
        .collect();

    // Access planning: for each atom (in join order), the access path
    // `plan::access` picks once the earlier atoms' variables are bound. A
    // hash probe keys on *every* bound position; deleted tids are filtered
    // and the insert overlay unioned. Under SQL semantics null probe keys
    // bail out before the lookup, so nulls never join, and a range probe
    // skips null cells.
    let mut accesses: Vec<Access> = vec![Access::Scan; cq.atoms.len()];
    {
        let mut bound: BTreeSet<Var> = BTreeSet::new();
        for &idx in order {
            let Some(atom) = cq.atoms.get(idx) else {
                continue;
            };
            if let Some(slot) = accesses.get_mut(idx) {
                *slot = crate::plan::access(facts, cq, idx, &bound);
            }
            bound.extend(atom.vars());
        }
    }

    struct Eval<'a, 'b, F: Facts + ?Sized> {
        facts: &'a F,
        cq: &'a ConjunctiveQuery,
        order: &'b [usize],
        accesses: &'b [Access],
        atom_vids: &'b [AtomVids],
        neg_vids: &'b [AtomVids],
        /// The first atom's candidate rows, for a pinned evaluation.
        pinned: Option<&'b [(Tid, VidRow<'b>)]>,
        mode: NullSemantics,
        /// Each atom's base relation, if the base has it.
        relations: Vec<Option<&'a Relation>>,
        /// Shared base indexes, one per hash-probed atom, cloned out of the
        /// base's cache on first use so recursion re-probes lock-free.
        indexes: Vec<Option<Arc<HashIndex>>>,
        /// The base positions of each range-probed atom's candidates, in
        /// tid order, gathered on first use (they do not depend on the
        /// bindings).
        ranges: Vec<Option<Arc<[u32]>>>,
        /// Per-evaluation vid → value memo (point reads only): comparisons
        /// and witness emission resolve each distinct vid once per query
        /// instead of once per candidate row.
        resolve_cache: WordHashMap<Vid, Value>,
    }

    impl<'a, 'b, F: Facts + ?Sized> Eval<'a, 'b, F> {
        fn recurse(
            &mut self,
            depth: usize,
            bindings: &mut VidBindings,
            tids: &mut Vec<Tid>,
            sink: &mut dyn FnMut(&VidBindings, &[Tid]) -> bool,
        ) -> bool {
            let facts: &'a F = self.facts;
            if depth == self.order.len() {
                // All positive atoms matched: check filters.
                let cq = self.cq;
                let mode = self.mode;
                {
                    let cache = &mut self.resolve_cache;
                    for c in &cq.comparisons {
                        let mut resolve = |t: &Term| match t {
                            Term::Const(v) => Some(v.clone()),
                            Term::Var(v) => bindings
                                .get(*v)
                                .and_then(|vid| resolve_vid_cached(facts, vid, cache)),
                        };
                        match (resolve(&c.left), resolve(&c.right)) {
                            (Some(a), Some(b)) if mode.cmp(c.op, &a, &b) => {}
                            // Unbound comparison variables are a safety
                            // violation; treat as failure rather than panic.
                            _ => return true,
                        }
                    }
                }
                for (neg, av) in self.cq.negated.iter().zip(self.neg_vids) {
                    if atom_has_match_vids(facts, neg, av, bindings, self.mode) {
                        return true;
                    }
                }
                // Emission: hand over the id-space assignment as-is.
                return sink(bindings, tids);
            }
            let atom_idx = self.order[depth];
            let atom: &'a Atom = &self.cq.atoms[atom_idx];
            let av: &'b AtomVids = &self.atom_vids[atom_idx];
            let access: &'b Access = &self.accesses[atom_idx];
            let step = |tid: Tid,
                        row: &VidRow<'_>,
                        this: &mut Self,
                        bindings: &mut VidBindings,
                        tids: &mut Vec<Tid>,
                        sink: &mut dyn FnMut(&VidBindings, &[Tid]) -> bool|
             -> bool {
                if let Some(newly) = match_atom_vids(facts, atom, av, row, bindings, this.mode) {
                    if let Some(t) = tids.get_mut(atom_idx) {
                        *t = tid;
                    }
                    let pruned = this.cq.comparisons.iter().any(|c| {
                        matches!(
                            try_comparison_vids(c, facts, bindings, this.mode),
                            Some(false)
                        )
                    });
                    let keep_going = if pruned {
                        true
                    } else {
                        this.recurse(depth + 1, bindings, tids, sink)
                    };
                    for v in newly {
                        bindings.unset(v);
                    }
                    keep_going
                } else {
                    true
                }
            };

            // Candidate rows: the pinned rows, else those of the atom's
            // access path.
            if depth == 0 {
                if let Some(rows) = self.pinned {
                    for (tid, row) in rows {
                        if !step(*tid, row, self, bindings, tids, sink) {
                            return false;
                        }
                    }
                    return true;
                }
            }
            // The visible rows at some base positions of `rel`, then the
            // view's insert overlay. Overlay rows are few: the full match
            // in `step` filters them instead of pre-probing.
            let visit = |rel: &'a Relation,
                         positions: &[u32],
                         this: &mut Self,
                         bindings: &mut VidBindings,
                         tids: &mut Vec<Tid>,
                         sink: &mut dyn FnMut(&VidBindings, &[Tid]) -> bool|
             -> bool {
                let store = rel.store();
                for &pos in positions {
                    let pos = pos as usize;
                    let (Some(tid), Some(row)) = (store.tid_at(pos), store.row(pos)) else {
                        continue;
                    };
                    if !facts.is_deleted(tid) && !step(tid, &row, this, bindings, tids, sink) {
                        return false;
                    }
                }
                for (tid, row) in facts.overlay_rows(&atom.relation) {
                    if !step(*tid, &VidRow::Slice(row), this, bindings, tids, sink) {
                        return false;
                    }
                }
                true
            };
            // A relation the base lacks is scanned (its overlay rows).
            let rel = self.relations.get(atom_idx).copied().flatten();
            match (access, rel) {
                (Access::HashProbe(cols), Some(rel)) => {
                    let key: Option<Vec<Vid>> = cols
                        .iter()
                        .map(|&pos| match atom.terms.get(pos) {
                            Some(Term::Const(_)) => av.consts.get(pos).copied().flatten(),
                            Some(Term::Var(v)) => bindings.get(*v),
                            None => None,
                        })
                        .collect();
                    // A probe variable unbound at runtime falls back to a
                    // scan.
                    if let Some(key) = key {
                        if self.mode == NullSemantics::Sql
                            && key.iter().any(|&k| facts.vid_is_null(k))
                        {
                            return true; // null never joins: no matches
                        }
                        let index = self
                            .indexes
                            .get(atom_idx)
                            .cloned()
                            .flatten()
                            .or_else(|| facts.base().hash_index(&atom.relation, cols));
                        if let Some(index) = index {
                            if let Some(cached) = self.indexes.get_mut(atom_idx) {
                                *cached = Some(Arc::clone(&index));
                            }
                            return visit(rel, index.rows_for(&key), self, bindings, tids, sink);
                        }
                    }
                }
                (Access::RangeProbe { col, lo, hi }, Some(rel)) => {
                    let positions = self.ranges.get(atom_idx).cloned().flatten().or_else(|| {
                        let skip_nulls = self.mode == NullSemantics::Sql;
                        let mut positions = crate::plan::range_positions(
                            facts,
                            &atom.relation,
                            *col,
                            (lo, hi),
                            skip_nulls,
                        )?;
                        // Value order to tid order: the rows come out as a
                        // scan's would.
                        positions.sort_unstable();
                        Some(positions.into())
                    });
                    if let Some(positions) = positions {
                        if let Some(cached) = self.ranges.get_mut(atom_idx) {
                            *cached = Some(Arc::clone(&positions));
                        }
                        return visit(rel, &positions, self, bindings, tids, sink);
                    }
                }
                _ => {}
            }
            for (tid, row) in facts.vid_rows(&atom.relation) {
                if !step(tid, &row, self, bindings, tids, sink) {
                    return false;
                }
            }
            true
        }
    }

    let mut eval = Eval {
        facts,
        cq,
        order,
        accesses: &accesses,
        atom_vids: &atom_vids,
        neg_vids: &neg_vids,
        pinned,
        mode,
        relations: cq
            .atoms
            .iter()
            .map(|a| facts.base().relation(&a.relation))
            .collect(),
        indexes: vec![None; cq.atoms.len()],
        ranges: vec![None; cq.atoms.len()],
        resolve_cache: WordHashMap::default(),
    };
    let mut bindings = VidBindings::new(cq.vars.len());
    let mut tids: Vec<Tid> = vec![Tid(0); cq.atoms.len()];
    eval.recurse(0, &mut bindings, &mut tids, sink);
}

/// All witnesses of `cq` over the visible facts.
pub fn witnesses<F: Facts + ?Sized>(
    facts: &F,
    cq: &ConjunctiveQuery,
    mode: NullSemantics,
) -> Vec<Witness> {
    let mut out = Vec::new();
    for_each_witness(facts, cq, mode, &mut |w| {
        out.push(w.clone());
        true
    });
    out
}

/// Evaluate a conjunctive query: the set of answer tuples.
///
/// A Boolean query returns either the empty set (false) or the set containing
/// the empty tuple (true); see [`holds`].
pub fn eval_cq<F: Facts + ?Sized>(
    facts: &F,
    cq: &ConjunctiveQuery,
    mode: NullSemantics,
) -> BTreeSet<Tuple> {
    // Deduplicate answers in id space, so no witness touches the
    // dictionary; values reappear once per distinct answer.
    let mut keys = AnswerKeys::new(std::slice::from_ref(cq));
    for_each_witness_vids(facts, cq, mode, &mut |bindings, _| {
        keys.intern(0, bindings);
        true
    });
    keys.resolve(facts, |_| true).answers.into_iter().collect()
}

/// [`eval_cq`] under a caller-supplied join order (see
/// [`for_each_witness_vids_ordered`] for admissibility). The answer set is
/// identical for every admissible order; only evaluation cost varies.
pub fn eval_cq_ordered<F: Facts + ?Sized>(
    facts: &F,
    cq: &ConjunctiveQuery,
    mode: NullSemantics,
    order: &[usize],
) -> BTreeSet<Tuple> {
    let mut keys = AnswerKeys::new(std::slice::from_ref(cq));
    for_each_witness_vids_ordered(facts, cq, mode, order, &mut |bindings, _| {
        keys.intern(0, bindings);
        true
    });
    keys.resolve(facts, |_| true).answers.into_iter().collect()
}

/// The distinct answer keys of the witnesses of a union's disjuncts, in id
/// space. A witness's key is the vids it binds to its disjunct's head
/// *variables*, in head order; constant head terms are filled back in by
/// [`AnswerKeys::resolve`]. Each distinct key is stored once in one flat
/// arena and found again through an open-addressed table of key ids,
/// hashed over the disjunct and the key's vids, so a repeated key costs one
/// probe and allocates nothing. Vid equality is value equality, so the
/// distinct keys of one disjunct are its distinct answers; two disjuncts
/// may still share an answer, which `resolve` merges.
pub struct AnswerKeys<'q> {
    disjuncts: &'q [ConjunctiveQuery],
    /// Every key's vids, back to back.
    arena: Vec<Vid>,
    /// Per key id: its disjunct, and where its vids end in `arena` (they
    /// start where the previous key's end).
    keys: Vec<(usize, usize)>,
    /// Key ids, [`NO_KEY`] where free. Empty before the first key, then a
    /// power of two at least twice the key count.
    slots: Vec<usize>,
}

/// A free slot of [`AnswerKeys`]' table.
const NO_KEY: usize = usize::MAX;

/// The distinct answers of an [`AnswerKeys`], in `Tuple` order, and the
/// answer of each key.
pub struct ResolvedAnswers {
    /// The distinct answers, sorted: answer ids index this list.
    pub answers: Vec<Tuple>,
    /// Per key id, the id of its answer; `None` when a vid of the key did
    /// not resolve or the answer was not kept.
    pub of_key: Vec<Option<usize>>,
}

impl<'q> AnswerKeys<'q> {
    /// No keys yet, for witnesses of `disjuncts`.
    pub fn new(disjuncts: &'q [ConjunctiveQuery]) -> AnswerKeys<'q> {
        AnswerKeys {
            disjuncts,
            arena: Vec::new(),
            keys: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Intern the key of a witness of disjunct `disjunct` with variable
    /// assignment `bindings`: its key id, dense from 0 in first-seen order.
    /// `None` when a head variable is unbound, so the witness projects no
    /// answer, or when there is no such disjunct.
    pub fn intern(&mut self, disjunct: usize, bindings: &VidBindings) -> Option<usize> {
        let cq = self.disjuncts.get(disjunct)?;
        let start = self.arena.len();
        for t in &cq.head {
            if let Term::Var(v) = t {
                let Some(vid) = bindings.get(*v) else {
                    self.arena.truncate(start);
                    return None;
                };
                self.arena.push(vid);
            }
        }
        if 2 * (self.keys.len() + 1) > self.slots.len() {
            self.grow();
        }
        let key = self.arena.get(start..).unwrap_or(&[]);
        let mask = self.slots.len().wrapping_sub(1);
        let mut at = key_hash(disjunct, key) & mask;
        while let Some(&k) = self.slots.get(at).filter(|&&k| k != NO_KEY) {
            if self.keys.get(k).is_some_and(|&(d, _)| d == disjunct) && self.key(k) == key {
                self.arena.truncate(start);
                return Some(k);
            }
            at = (at + 1) & mask;
        }
        let k = self.keys.len();
        self.keys.push((disjunct, self.arena.len()));
        if let Some(slot) = self.slots.get_mut(at) {
            *slot = k;
        }
        Some(k)
    }

    /// The vids of key `k`.
    fn key(&self, k: usize) -> &[Vid] {
        let start = k
            .checked_sub(1)
            .and_then(|p| self.keys.get(p))
            .map_or(0, |&(_, end)| end);
        let end = self.keys.get(k).map_or(start, |&(_, end)| end);
        self.arena.get(start..end).unwrap_or(&[])
    }

    /// Double the table (to 16 slots from none) and re-place every key.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(16);
        let mask = size - 1;
        let mut slots = vec![NO_KEY; size];
        for (k, &(d, _)) in self.keys.iter().enumerate() {
            let mut at = key_hash(d, self.key(k)) & mask;
            while slots.get(at).is_some_and(|&s| s != NO_KEY) {
                at = (at + 1) & mask;
            }
            if let Some(slot) = slots.get_mut(at) {
                *slot = k;
            }
        }
        self.slots = slots;
    }

    /// Resolve each key once into its answer tuple, each distinct vid
    /// through the dictionary at most once, and sort the answers `keep`
    /// accepts into dense ids. The order is the tuples' `Value` order, never
    /// the id order.
    pub fn resolve<F: Facts + ?Sized>(
        &self,
        facts: &F,
        keep: impl Fn(&Tuple) -> bool,
    ) -> ResolvedAnswers {
        let mut cache: WordHashMap<Vid, Value> = WordHashMap::default();
        let mut resolved: Vec<(Tuple, usize)> = Vec::with_capacity(self.keys.len());
        for (k, &(d, _)) in self.keys.iter().enumerate() {
            let answer = self
                .disjuncts
                .get(d)
                .and_then(|cq| resolve_answer(facts, cq, self.key(k), &mut cache));
            if let Some(t) = answer.filter(|t| keep(t)) {
                resolved.push((t, k));
            }
        }
        // Equal answers (of different disjuncts) are adjacent and share one
        // id, so their relative order does not matter.
        resolved.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut answers: Vec<Tuple> = Vec::with_capacity(resolved.len());
        let mut of_key = vec![None; self.keys.len()];
        for (t, k) in resolved {
            if answers.last() != Some(&t) {
                answers.push(t);
            }
            if let Some(slot) = of_key.get_mut(k) {
                *slot = answers.len().checked_sub(1);
            }
        }
        ResolvedAnswers { answers, of_key }
    }
}

/// The table hash of a key of disjunct `disjunct`. The Fx mix ends in a
/// multiply, which leaves its entropy in the high bits; the table masks
/// low ones, so the high half is folded down.
fn key_hash(disjunct: usize, key: &[Vid]) -> usize {
    let mut h = FxHasher::default();
    h.write_usize(disjunct);
    for vid in key {
        h.write_u32(vid.raw());
    }
    let h = h.finish();
    (h ^ (h >> 32)) as usize
}

/// Resolve the key vids of a witness of `cq` into its answer tuple, each
/// distinct vid through `cache` at most once. `None` when a vid does not
/// resolve.
fn resolve_answer<F: Facts + ?Sized>(
    facts: &F,
    cq: &ConjunctiveQuery,
    key: &[Vid],
    cache: &mut WordHashMap<Vid, Value>,
) -> Option<Tuple> {
    let mut vids = key.iter();
    let mut vals = Vec::with_capacity(cq.head.len());
    for t in &cq.head {
        vals.push(match t {
            Term::Const(v) => v.clone(),
            Term::Var(_) => resolve_vid_cached(facts, *vids.next()?, cache)?,
        });
    }
    Some(Tuple::new(vals))
}

/// Evaluate a union of conjunctive queries.
pub fn eval_ucq<F: Facts + ?Sized>(
    facts: &F,
    q: &UnionQuery,
    mode: NullSemantics,
) -> BTreeSet<Tuple> {
    let mut out = BTreeSet::new();
    for cq in &q.disjuncts {
        out.extend(eval_cq(facts, cq, mode));
    }
    out
}

/// Does a Boolean CQ hold? (Stops at the first witness.)
pub fn holds<F: Facts + ?Sized>(facts: &F, cq: &ConjunctiveQuery, mode: NullSemantics) -> bool {
    let mut found = false;
    for_each_witness_vids(facts, cq, mode, &mut |_, _| {
        found = true;
        false
    });
    found
}

/// Does a Boolean UCQ hold?
pub fn holds_ucq<F: Facts + ?Sized>(facts: &F, q: &UnionQuery, mode: NullSemantics) -> bool {
    q.disjuncts.iter().any(|cq| holds(facts, cq, mode))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use cqa_relation::{tuple, Database, RelationSchema};

    fn db() -> Database {
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
        db
    }

    #[test]
    fn projection_query() {
        let q = parse_query("Q(z) :- Supply(x, y, z)").unwrap();
        let ans = eval_cq(&db(), &q, NullSemantics::Structural);
        let items: Vec<String> = ans.iter().map(|t| t.at(0).render().into_owned()).collect();
        assert_eq!(items, vec!["I1", "I2", "I3"]);
    }

    #[test]
    fn join_query_example_2_2() {
        // The rewritten query of Example 2.2 returns only I1, I2.
        let q = parse_query("Q(z) :- Supply(x, y, z), Articles(z)").unwrap();
        let ans = eval_cq(&db(), &q, NullSemantics::Structural);
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&tuple!["I1"]));
        assert!(ans.contains(&tuple!["I2"]));
    }

    #[test]
    fn negation_as_anti_join() {
        let q = parse_query("Q(z) :- Supply(x, y, z), not Articles(z)").unwrap();
        let ans = eval_cq(&db(), &q, NullSemantics::Structural);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&tuple!["I3"]));
    }

    #[test]
    fn comparisons_filter() {
        let mut d = Database::new();
        d.create_relation(RelationSchema::new("N", ["V"])).unwrap();
        for i in 0..10 {
            d.insert("N", tuple![i]).unwrap();
        }
        let q = parse_query("Q(x) :- N(x), x >= 7").unwrap();
        let ans = eval_cq(&d, &q, NullSemantics::Structural);
        assert_eq!(ans.len(), 3);
    }

    #[test]
    fn boolean_query_short_circuits() {
        let q = parse_query("Q() :- Supply(x, y, z)").unwrap();
        assert!(holds(&db(), &q, NullSemantics::Structural));
        let q2 = parse_query("Q() :- Supply(x, y, 'nope')").unwrap();
        assert!(!holds(&db(), &q2, NullSemantics::Structural));
    }

    #[test]
    fn witnesses_carry_tids() {
        let q = parse_query("Q(z) :- Supply(x, y, z), Articles(z)").unwrap();
        let ws = witnesses(&db(), &q, NullSemantics::Structural);
        assert_eq!(ws.len(), 2);
        for w in &ws {
            assert_eq!(w.tids.len(), 2);
        }
        // tids are in atom order: Supply tid first, Articles tid second.
        let first = &ws[0];
        assert!(first.tids[0].0 <= 3);
        assert!(first.tids[1].0 >= 4);
    }

    #[test]
    fn repeated_variable_forces_join() {
        let mut d = Database::new();
        d.create_relation(RelationSchema::new("R", ["A", "B"]))
            .unwrap();
        d.insert("R", tuple!["a", "a"]).unwrap();
        d.insert("R", tuple!["a", "b"]).unwrap();
        let q = parse_query("Q(x) :- R(x, x)").unwrap();
        let ans = eval_cq(&d, &q, NullSemantics::Structural);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&tuple!["a"]));
    }

    #[test]
    fn sql_mode_nulls_never_join() {
        let mut d = Database::new();
        d.create_relation(RelationSchema::new("R", ["A", "B"]))
            .unwrap();
        d.create_relation(RelationSchema::new("S", ["A"])).unwrap();
        d.insert("R", Tuple::new(vec![Value::str("a"), Value::NULL]))
            .unwrap();
        d.insert("S", Tuple::new(vec![Value::NULL])).unwrap();
        // Join on the null value fails under SQL semantics…
        let q = parse_query("Q(x) :- R(x, y), S(y)").unwrap();
        assert!(eval_cq(&d, &q, NullSemantics::Sql).is_empty());
        // …but succeeds structurally (labels equal).
        assert_eq!(eval_cq(&d, &q, NullSemantics::Structural).len(), 1);
        // Repeated variable on a null also fails in SQL mode.
        let q2 = parse_query("Q() :- R(x, y), S(z), y = z").unwrap();
        assert!(!holds(&d, &q2, NullSemantics::Sql));
    }

    #[test]
    fn missing_relation_means_no_matches() {
        let q = parse_query("Q(x) :- Nothing(x)").unwrap();
        assert!(eval_cq(&db(), &q, NullSemantics::Structural).is_empty());
    }

    #[test]
    fn union_query() {
        let a = parse_query("Q(z) :- Articles(z)").unwrap();
        let b = parse_query("Q(z) :- Supply(x, y, z)").unwrap();
        let u = UnionQuery {
            disjuncts: vec![a, b],
        };
        let ans = eval_ucq(&db(), &u, NullSemantics::Structural);
        assert_eq!(ans.len(), 3);
        assert!(holds_ucq(&db(), &u, NullSemantics::Structural));
    }

    #[test]
    fn constants_in_head() {
        let q = parse_query("Q('tag', z) :- Articles(z)").unwrap();
        let ans = eval_cq(&db(), &q, NullSemantics::Structural);
        assert!(ans.contains(&tuple!["tag", "I1"]));
    }
}

#[cfg(test)]
mod index_tests {
    //! The probe-index fast path only engages for relations with ≥ 32
    //! tuples; these tests cross-check it against a naive nested-loop
    //! reference on instances big enough to trigger it.

    use super::*;
    use crate::parser::parse_query;
    use cqa_relation::{tuple, Database, RelationSchema};

    fn big_db(n: usize) -> Database {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["A", "B"]))
            .unwrap();
        db.create_relation(RelationSchema::new("S", ["B", "C"]))
            .unwrap();
        for i in 0..n as i64 {
            db.insert("R", tuple![i % 17, i]).unwrap();
            db.insert("S", tuple![i, i % 13]).unwrap();
        }
        db
    }

    /// Naive reference: nested loops, no ordering heuristics, no indexes.
    fn reference_join(db: &Database, mode: NullSemantics) -> BTreeSet<Tuple> {
        let r = db.relation("R").unwrap();
        let s = db.relation("S").unwrap();
        let mut out = BTreeSet::new();
        for (_, tr) in r.iter() {
            for (_, ts) in s.iter() {
                if mode.values_join(tr.at(1), ts.at(0)) {
                    out.insert(Tuple::new(vec![tr.at(0).clone(), ts.at(1).clone()]));
                }
            }
        }
        out
    }

    #[test]
    fn indexed_join_matches_nested_loop_reference() {
        let db = big_db(120); // well above INDEX_THRESHOLD
        let q = parse_query("Q(a, c) :- R(a, b), S(b, c)").unwrap();
        for mode in [NullSemantics::Structural, NullSemantics::Sql] {
            let fast = eval_cq(&db, &q, mode);
            let slow = reference_join(&db, mode);
            assert_eq!(fast, slow);
            assert_eq!(fast.len(), slow.len());
        }
    }

    #[test]
    fn indexed_join_with_nulls_under_sql_semantics() {
        let mut db = big_db(80);
        // Null join keys on both sides: must never match in SQL mode.
        db.insert("R", Tuple::new(vec![Value::int(999), Value::NULL]))
            .unwrap();
        db.insert("S", Tuple::new(vec![Value::NULL, Value::int(999)]))
            .unwrap();
        let q = parse_query("Q(a, c) :- R(a, b), S(b, c)").unwrap();
        let fast = eval_cq(&db, &q, NullSemantics::Sql);
        let slow = reference_join(&db, NullSemantics::Sql);
        assert_eq!(fast, slow);
        assert!(!fast.iter().any(|t| t.at(0) == &Value::int(999)));
        // Structurally the two nulls have equal labels (both 0) and join.
        let structural = eval_cq(&db, &q, NullSemantics::Structural);
        assert!(structural.iter().any(|t| t.at(0) == &Value::int(999)));
    }

    #[test]
    fn indexed_constant_probe() {
        let db = big_db(200);
        let q = parse_query("Q(b) :- R(3, b)").unwrap();
        let ans = eval_cq(&db, &q, NullSemantics::Structural);
        // i % 17 == 3 for i in 0..200.
        let expected: BTreeSet<Tuple> = (0..200i64)
            .filter(|i| i % 17 == 3)
            .map(|i| tuple![i])
            .collect();
        assert_eq!(ans, expected);
    }

    #[test]
    fn range_probe_matches_a_value_filter_under_both_semantics() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("N", ["K", "V"]))
            .unwrap();
        for i in 0..60i64 {
            let v = match i % 5 {
                0 => Value::NULL,
                1 => Value::str("s"),
                _ => Value::Int(i % 13),
            };
            db.insert("N", Tuple::new([Value::Int(i), v])).unwrap();
        }
        for (text, op, k) in [
            ("Q(k) :- N(k, v), v < 4", crate::ast::CmpOp::Lt, 4),
            ("Q(k) :- N(k, v), 9 <= v", crate::ast::CmpOp::Ge, 9),
            ("Q(k) :- N(k, v), v = 7", crate::ast::CmpOp::Eq, 7),
        ] {
            let q = parse_query(text).unwrap();
            assert!(matches!(
                crate::plan::explain(&db, &q).steps[0].access,
                Access::RangeProbe { col: 1, .. }
            ));
            for mode in [NullSemantics::Sql, NullSemantics::Structural] {
                // Structurally a null sorts below every value, so `v < 4`
                // holds for it; under SQL no comparison with a null does.
                let expect: BTreeSet<Tuple> = db
                    .relation("N")
                    .unwrap()
                    .tuples()
                    .filter(|t| mode.cmp(op, t.at(1), &Value::Int(k)))
                    .map(|t| Tuple::new([t.at(0).clone()]))
                    .collect();
                assert_eq!(eval_cq(&db, &q, mode), expect, "{text} {mode:?}");
            }
        }
    }

    #[test]
    fn early_exit_with_index() {
        let db = big_db(100);
        let q = parse_query("Q() :- R(a, b), S(b, c)").unwrap();
        assert!(holds(&db, &q, NullSemantics::Structural));
        let q2 = parse_query("Q() :- R(a, b), S(b, 'nothing')").unwrap();
        assert!(!holds(&db, &q2, NullSemantics::Structural));
    }

    #[test]
    fn witnesses_through_the_index_carry_correct_tids() {
        let db = big_db(64);
        let q = parse_query("Q(a) :- R(a, b), S(b, c)").unwrap();
        let mut count = 0usize;
        for_each_witness(&db, &q, NullSemantics::Structural, &mut |w| {
            // Verify the tids really point at matching tuples.
            let (rel_r, tr) = db.get(w.tids[0]).unwrap();
            let (rel_s, ts) = db.get(w.tids[1]).unwrap();
            assert_eq!(rel_r, "R");
            assert_eq!(rel_s, "S");
            assert_eq!(tr.at(1), ts.at(0));
            count += 1;
            true
        });
        assert_eq!(count, 64); // each R row joins exactly its S twin
    }
}
