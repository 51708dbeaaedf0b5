//! Denial constraints: `¬∃x̄ (A₁ ∧ … ∧ Aₙ ∧ comparisons)`.
//!
//! Denial constraints (DCs) are the workhorse class of the paper: keys, FDs
//! and CFDs all compile into them, every violation is a *set of tuples that
//! jointly must not coexist*, and those sets are exactly the hyper-edges of
//! the conflict hyper-graph of §4.1 (Figure 1).

use cqa_query::{
    parse_query, Atom, CmpOp, Comparison, ConjunctiveQuery, NullSemantics, Term, Var, VarTable,
};
use cqa_relation::fxhash::WordHashMap;
use cqa_relation::{Facts, RelationError, Tid, Value, Vid, VidRow};
use std::collections::BTreeSet;
use std::fmt;

/// A denial constraint. Internally a Boolean conjunctive query (the *body*);
/// the constraint holds iff the body has no witness.
#[derive(Debug, Clone, PartialEq)]
pub struct DenialConstraint {
    /// Optional human-readable name (`κ`, `KC`, …) used in reports.
    pub name: String,
    body: ConjunctiveQuery,
}

impl DenialConstraint {
    /// Build from an explicit Boolean CQ body.
    pub fn new(name: impl Into<String>, body: ConjunctiveQuery) -> Result<Self, RelationError> {
        if !body.is_boolean() {
            return Err(RelationError::Parse(
                "denial constraint body must be Boolean (empty head)".into(),
            ));
        }
        // A negated body is not monotone, which incremental maintenance
        // (`violations_delta`) relies on.
        if !body.negated.is_empty() {
            return Err(RelationError::Parse(
                "denial constraint body must be negation-free".into(),
            ));
        }
        body.check_safety().map_err(RelationError::Parse)?;
        Ok(DenialConstraint {
            name: name.into(),
            body,
        })
    }

    /// Parse from a comma-separated body, e.g. `"S(x), R(x, y), S(y)"`,
    /// meaning `¬∃x∃y (S(x) ∧ R(x, y) ∧ S(y))` (Example 3.5's κ).
    ///
    /// ```
    /// use cqa_constraints::DenialConstraint;
    /// let kappa = DenialConstraint::parse("kappa", "S(x), R(x, y), S(y)")?;
    /// assert_eq!(kappa.atoms().len(), 3); // S(x), R(x, y), S(y)
    /// # Ok::<(), cqa_relation::RelationError>(())
    /// ```
    pub fn parse(name: impl Into<String>, body: &str) -> Result<Self, RelationError> {
        DenialConstraint::new(name, parse_query(&format!("Q() :- {body}"))?)
    }

    /// The Boolean body as a conjunctive query.
    pub fn body(&self) -> &ConjunctiveQuery {
        &self.body
    }

    /// Body atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.body.atoms
    }

    /// Body comparisons.
    pub fn comparisons(&self) -> &[Comparison] {
        &self.body.comparisons
    }

    /// Variable names of the body.
    pub fn vars(&self) -> &VarTable {
        &self.body.vars
    }

    /// Is the constraint satisfied by the visible facts?
    ///
    /// Evaluated under SQL null semantics: a null never satisfies a join or a
    /// comparison, so null-based repairs (§4.3) really do restore consistency.
    /// Generic over [`Facts`], so repair views check without materializing.
    pub fn is_satisfied<F: Facts + ?Sized>(&self, facts: &F) -> bool {
        !cqa_query::holds(facts, &self.body, NullSemantics::Sql)
    }

    /// All violation sets: for every witness of the body, the set of matched
    /// tids. Duplicate sets (e.g. the two symmetric matches of an FD pair)
    /// are collapsed.
    ///
    /// Two lanes compute these sets, chosen by the body's shape. Two atoms
    /// of distinct variables that share a join key, the shape every FD and
    /// key compiles to, run a flat id-space join over ranked comparison
    /// columns. Every other body runs the generic evaluator, whose access
    /// paths probe the base's cached hash indexes and, for an atom bounded
    /// by `var op const` comparisons (such as `Acct(i, b), b < 0`), range-
    /// probe its sorted index. Values never leave the dictionary on the
    /// join path, and under SQL semantics a null never joins and never
    /// satisfies a comparison.
    pub fn violations<F: Facts + ?Sized>(&self, facts: &F) -> BTreeSet<BTreeSet<Tid>> {
        if let Some(out) = self.violations_rank_lane(facts) {
            return out;
        }
        let mut out = BTreeSet::new();
        // Only the matched tids are needed: stay in id space, skip the
        // per-witness value materialization.
        cqa_query::eval::for_each_witness_vids(
            facts,
            &self.body,
            NullSemantics::Sql,
            &mut |_, tids| {
                out.insert(tids.iter().copied().collect());
                true
            },
        );
        out
    }

    /// The violation sets involving at least one tuple from `touched`:
    /// exactly `{v ∈ violations(facts) : v ∩ touched ≠ ∅}`. Each body atom
    /// in turn is pinned to the touched rows of its relation, and the
    /// evaluator joins only those against the rest of the instance
    /// ([`cqa_query::eval::for_each_witness_vids_pinned`]) instead of
    /// rescanning every relation.
    ///
    /// This is the primitive behind incremental violation maintenance:
    /// denial bodies are negation-free conjunctions (the constructors
    /// reject negation), hence *monotone* — after a mutation, every
    /// violation set not intersecting the touched tids survives verbatim,
    /// and every new one involves a touched tid, so `old sets disjoint from
    /// touched ∪ violations_delta(touched)` is the full violation set of
    /// the new instance.
    pub fn violations_delta<F: Facts + ?Sized>(
        &self,
        facts: &F,
        touched: &BTreeSet<Tid>,
    ) -> BTreeSet<BTreeSet<Tid>> {
        let mut out = BTreeSet::new();
        if touched.is_empty() {
            return out;
        }
        for (pin, atom) in self.body.atoms.iter().enumerate() {
            let rows = delta_rows(facts, &atom.relation, touched);
            cqa_query::eval::for_each_witness_vids_pinned(
                facts,
                &self.body,
                NullSemantics::Sql,
                pin,
                &rows,
                &mut |_, tids| {
                    out.insert(tids.iter().copied().collect());
                    true
                },
            );
        }
        out
    }

    /// The rank lane. It takes a body of two atoms that share a join key,
    /// where every term of both atoms is a variable and no variable
    /// repeats *within* an atom. A row pair then matches exactly
    /// when its join key matches (vid equality is value equality), so the
    /// per-pair `match_atom_vids` re-check is redundant and the comparisons
    /// only ever read whole columns or constants. The lane runs as flat
    /// passes over id-space arrays:
    ///
    /// 1. **Gather.** Each side's visible rows are read once through
    ///    [`Facts::vid_rows`] into a [`LaneSide`]: tids, join-key cells and
    ///    one column per comparison slot, every cell numbered by first
    ///    encounter in a [`CellDict`] that tests null-ness once per
    ///    distinct vid. A self-join that reads the same key and comparison
    ///    columns on both sides gathers once and uses the result twice.
    /// 2. **Rank.** Every distinct non-null comparison vid is resolved
    ///    once, and the values, with the comparison constants, are sorted
    ///    into a dense rank table in [`Value`] order. Equal values collapse
    ///    to one rank, so rank comparison coincides with [`CmpOp::eval`] on
    ///    the resolved values. A null or unresolvable cell gets
    ///    [`NO_RANK`]; it falsifies every comparison that reads it (the SQL
    ///    semantics), so its row can never pair and drops out of both
    ///    sides, as does a row with a null join key.
    /// 3. **Group.** Build-side rows are grouped by join key, by first
    ///    encounter: the key cell's number for one key column, a hashed
    ///    slice of cell numbers otherwise. A counting sort lays the groups
    ///    out as contiguous runs: the tids plus one rank column per
    ///    comparison slot.
    /// 4. **Pair.** Each probe row scans its key's run. When the body's
    ///    comparisons are exactly one column of one row against one column
    ///    of the other (the FD and key shapes, `y != z`), the probe rank is
    ///    compared against the run's rank column in a tight loop; other
    ///    shapes evaluate the compiled comparisons per pair.
    ///
    /// Matches are collected as ordered tid pairs, sorted and deduplicated
    /// before any set is built; a row paired with itself yields a
    /// singleton. `None` means the body is not of this shape and the
    /// evaluator runs instead.
    fn violations_rank_lane<F: Facts + ?Sized>(
        &self,
        facts: &F,
    ) -> Option<BTreeSet<BTreeSet<Tid>>> {
        let [a0, a1] = self.body.atoms.as_slice() else {
            return None;
        };
        let (key_pos0, key_pos1) = join_key(a0, a1)?;
        let (key_pos0, key_pos1) = (key_pos0.as_slice(), key_pos1.as_slice());
        for atom in [a0, a1] {
            let mut seen = BTreeSet::new();
            for t in &atom.terms {
                let Term::Var(v) = t else { return None };
                if !seen.insert(*v) {
                    return None;
                }
            }
        }
        let width = key_pos1.len();
        // A null constant falsifies its comparison under SQL semantics, and
        // with it the whole conjunctive body: no violations at all.
        for c in &self.body.comparisons {
            if [&c.left, &c.right]
                .into_iter()
                .any(|t| matches!(t, Term::Const(k) if k.is_null()))
            {
                return Some(BTreeSet::new());
            }
        }

        // Compile each comparison operand to a column slot of one of the two
        // rows (shared variables read a0's copy: the join key made the vids
        // equal) or to an interned constant.
        fn slot(cols: &mut Vec<usize>, p: usize) -> usize {
            match cols.iter().position(|&c| c == p) {
                Some(i) => i,
                None => {
                    cols.push(p);
                    cols.len() - 1
                }
            }
        }
        let mut cols0: Vec<usize> = Vec::new();
        let mut cols1: Vec<usize> = Vec::new();
        let mut consts: Vec<Value> = Vec::new();
        let mut compiled: Vec<(CmpOp, RankSrc, RankSrc)> = Vec::new();
        for c in &self.body.comparisons {
            let mut side = |t: &Term| -> Option<RankSrc> {
                match t {
                    Term::Var(v) => {
                        if let Some(&p) = a0.positions_of(*v).first() {
                            Some(RankSrc::Row0(slot(&mut cols0, p)))
                        } else if let Some(&p) = a1.positions_of(*v).first() {
                            Some(RankSrc::Row1(slot(&mut cols1, p)))
                        } else {
                            None // unbound comparison variable: not this shape
                        }
                    }
                    Term::Const(k) => {
                        consts.push(k.clone());
                        Some(RankSrc::Const(consts.len() - 1))
                    }
                }
            };
            let l = side(&c.left)?;
            let r = side(&c.right)?;
            compiled.push((c.op, l, r));
        }

        // 1. Gather, the build side (a1) first.
        let mut keys = CellDict::default();
        let mut cells = CellDict::default();
        let mut build =
            LaneSide::gather(facts, &a1.relation, key_pos1, &cols1, &mut keys, &mut cells);
        let shared = a0.relation == a1.relation && key_pos0 == key_pos1 && cols0 == cols1;
        let mut probe = (!shared).then(|| {
            LaneSide::gather(facts, &a0.relation, key_pos0, &cols0, &mut keys, &mut cells)
        });

        // 2. Rank: resolve each distinct comparison vid once.
        let values: Vec<Option<Value>> = cells
            .vids
            .iter()
            .zip(&cells.null)
            .map(|(&vid, &null)| if null { None } else { facts.resolve_vid(vid) })
            .collect();
        let mut domain: Vec<&Value> = values.iter().flatten().chain(&consts).collect();
        domain.sort_unstable();
        domain.dedup();
        let rank_of = |v: &Value| domain.binary_search(&v).map_or(NO_RANK, |i| i as u32);
        let cell_rank: Vec<u32> = values
            .iter()
            .map(|v| v.as_ref().map_or(NO_RANK, rank_of))
            .collect();
        let const_ranks: Vec<u32> = consts.iter().map(rank_of).collect();
        build.rank(&cell_rank);
        if let Some(p) = probe.as_mut() {
            p.rank(&cell_rank);
        }
        let probe = probe.as_ref().unwrap_or(&build);

        // 3. Group the build side by join key, then counting-sort it into
        // contiguous runs.
        let mut by_slice: WordHashMap<&[u32], u32> = WordHashMap::default();
        let build_groups = build.groups(width, |key| {
            let next = by_slice.len() as u32;
            *by_slice.entry(key).or_insert(next)
        });
        let probe_owned: Vec<u32>;
        let probe_groups: &[u32] = if shared {
            &build_groups
        } else {
            probe_owned = probe.groups(width, |key| by_slice.get(key).copied().unwrap_or(NO_GROUP));
            &probe_owned
        };
        let n_groups = if width == 1 {
            keys.vids.len()
        } else {
            by_slice.len()
        };
        let runs = Runs::sort(&build, &build_groups, n_groups);

        // 4. Pair each probe row with its key's run.
        let kernel = match compiled.as_slice() {
            [(op, RankSrc::Row0(i), RankSrc::Row1(j))] => Some((*op, *i, *j)),
            [(op, RankSrc::Row1(j), RankSrc::Row0(i))] => Some((op.flipped(), *i, *j)),
            _ => None,
        };
        let mut pairs: Vec<(Tid, Tid)> = Vec::new();
        for (row, (&group, &tid0)) in probe_groups.iter().zip(&probe.tids).enumerate() {
            let Some((range, tids)) = runs.run(group) else {
                continue;
            };
            if let Some((op, i, j)) = kernel {
                let (Some(&rank0), Some(ranks)) = (
                    probe.cols.get(i).and_then(|c| c.get(row)),
                    runs.cols.get(j).and_then(|c| c.get(range)),
                ) else {
                    continue;
                };
                scan_run(op, rank0, tid0, tids, ranks, &mut pairs);
                continue;
            }
            for (at, &tid1) in range.zip(tids) {
                let operand = |s: &RankSrc| {
                    match *s {
                        RankSrc::Row0(i) => probe.cols.get(i).and_then(|c| c.get(row)),
                        RankSrc::Row1(j) => runs.cols.get(j).and_then(|c| c.get(at)),
                        RankSrc::Const(k) => const_ranks.get(k),
                    }
                    .copied()
                    .filter(|&r| r != NO_RANK)
                };
                let ok = compiled
                    .iter()
                    .all(|(op, l, r)| match (operand(l), operand(r)) {
                        (Some(a), Some(b)) => rank_cmp(*op, a, b),
                        _ => false, // a null operand never satisfies SQL cmp
                    });
                if ok {
                    pairs.push(ordered(tid0, tid1));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        Some(
            pairs
                .into_iter()
                .map(|(lo, hi)| BTreeSet::from([lo, hi]))
                .collect(),
        )
    }
}

/// A compiled comparison operand of the rank lane: a comparison-column slot
/// of the probe row, of the run row, or an interned constant.
enum RankSrc {
    Row0(usize),
    Row1(usize),
    Const(usize),
}

/// The rank of a null or unresolvable comparison cell, and the number of a
/// cell the row does not have. It satisfies no comparison and joins no
/// key, so a row holding one never pairs.
const NO_RANK: u32 = u32::MAX;

/// The group of a row that cannot join: a null join key or a
/// [`NO_RANK`] comparison cell.
const NO_GROUP: u32 = u32::MAX;

/// The distinct vids of one cell family (join keys or comparison values) of
/// the rank lane, numbered by first encounter. Null-ness is tested once per
/// distinct vid: [`Facts::vid_is_null`] takes the dictionary's read lock
/// for table vids.
#[derive(Default)]
struct CellDict {
    number: WordHashMap<Vid, u32>,
    vids: Vec<Vid>,
    null: Vec<bool>,
}

impl CellDict {
    /// The number of `vid`, assigned on first encounter.
    fn cell<F: Facts + ?Sized>(&mut self, facts: &F, vid: Vid) -> u32 {
        let (vids, null) = (&mut self.vids, &mut self.null);
        *self.number.entry(vid).or_insert_with(|| {
            let n = vids.len() as u32;
            vids.push(vid);
            null.push(facts.vid_is_null(vid));
            n
        })
    }

    fn is_null(&self, cell: u32) -> bool {
        self.null.get(cell as usize).copied().unwrap_or(true)
    }
}

/// One side of the rank lane, gathered in one pass over its visible rows:
/// row-aligned tids, join-key cell numbers (row-major, one per key column),
/// one column per comparison slot (cell numbers, then ranks once
/// [`LaneSide::rank`] ran), and whether the row can join at all.
struct LaneSide {
    tids: Vec<Tid>,
    keys: Vec<u32>,
    cols: Vec<Vec<u32>>,
    live: Vec<bool>,
}

impl LaneSide {
    fn gather<F: Facts + ?Sized>(
        facts: &F,
        relation: &str,
        key_pos: &[usize],
        cols: &[usize],
        keys: &mut CellDict,
        cells: &mut CellDict,
    ) -> LaneSide {
        let mut side = LaneSide {
            tids: Vec::new(),
            keys: Vec::new(),
            cols: vec![Vec::new(); cols.len()],
            live: Vec::new(),
        };
        for (tid, row) in facts.vid_rows(relation) {
            let mut live = true;
            for &p in key_pos {
                let key = row.at(p).map_or(NO_RANK, |vid| keys.cell(facts, vid));
                live &= !keys.is_null(key); // null never joins
                side.keys.push(key);
            }
            for (&p, col) in cols.iter().zip(&mut side.cols) {
                col.push(row.at(p).map_or(NO_RANK, |vid| cells.cell(facts, vid)));
            }
            side.tids.push(tid);
            side.live.push(live);
        }
        side
    }

    /// Replace every comparison cell number by its rank; a row with an
    /// unranked cell stops being live.
    fn rank(&mut self, cell_rank: &[u32]) {
        for col in &mut self.cols {
            for (cell, live) in col.iter_mut().zip(&mut self.live) {
                *cell = cell_rank.get(*cell as usize).copied().unwrap_or(NO_RANK);
                if *cell == NO_RANK {
                    *live = false;
                }
            }
        }
    }

    /// Each row's group: [`NO_GROUP`] for a row that cannot join, the key
    /// cell's number for a one-column key, and `slice_group` of the key
    /// cells otherwise.
    fn groups<'s>(
        &'s self,
        width: usize,
        mut slice_group: impl FnMut(&'s [u32]) -> u32,
    ) -> Vec<u32> {
        self.keys
            .chunks_exact(width)
            .zip(&self.live)
            .map(|(key, &live)| match key {
                _ if !live => NO_GROUP,
                [cell] => *cell,
                _ => slice_group(key),
            })
            .collect()
    }
}

/// The build side counting-sorted by group: group `g`'s rows occupy
/// positions `starts[g]..starts[g + 1]` of `tids` and of every rank column.
struct Runs {
    starts: Vec<u32>,
    tids: Vec<Tid>,
    cols: Vec<Vec<u32>>,
}

impl Runs {
    fn sort(side: &LaneSide, groups: &[u32], n_groups: usize) -> Runs {
        let mut starts = vec![0u32; n_groups + 1];
        for &g in groups.iter().filter(|&&g| g != NO_GROUP) {
            if let Some(count) = starts.get_mut(g as usize + 1) {
                *count += 1;
            }
        }
        let mut total = 0u32;
        for start in &mut starts {
            total += *start;
            *start = total;
        }
        let len = total as usize;
        let mut runs = Runs {
            tids: vec![Tid(0); len],
            cols: vec![vec![0; len]; side.cols.len()],
            starts,
        };
        let mut next = runs.starts.clone();
        for (row, (&g, &tid)) in groups.iter().zip(&side.tids).enumerate() {
            let Some(at) = next.get_mut(g as usize) else {
                continue;
            };
            let pos = *at as usize;
            *at += 1;
            if let Some(dst) = runs.tids.get_mut(pos) {
                *dst = tid;
            }
            for (run_col, col) in runs.cols.iter_mut().zip(&side.cols) {
                if let (Some(dst), Some(&rank)) = (run_col.get_mut(pos), col.get(row)) {
                    *dst = rank;
                }
            }
        }
        runs
    }

    /// The positions and tids of group `g`'s run; `None` for
    /// [`NO_GROUP`].
    fn run(&self, g: u32) -> Option<(std::ops::Range<usize>, &[Tid])> {
        if g == NO_GROUP {
            return None;
        }
        let lo = *self.starts.get(g as usize)? as usize;
        let hi = *self.starts.get(g as usize + 1)? as usize;
        Some((lo..hi, self.tids.get(lo..hi)?))
    }
}

/// The rank lane's FD/key kernel: pair `tid0`, whose compared cell has rank
/// `rank0`, with every run row whose rank `r` satisfies `rank0 op r`. One
/// monomorphic loop per operator keeps the scan a plain word compare.
fn scan_run(
    op: CmpOp,
    rank0: u32,
    tid0: Tid,
    tids: &[Tid],
    ranks: &[u32],
    pairs: &mut Vec<(Tid, Tid)>,
) {
    fn scan(
        tid0: Tid,
        tids: &[Tid],
        ranks: &[u32],
        pairs: &mut Vec<(Tid, Tid)>,
        hit: impl Fn(u32) -> bool,
    ) {
        for (&tid1, &r) in tids.iter().zip(ranks) {
            if hit(r) {
                pairs.push(ordered(tid0, tid1));
            }
        }
    }
    match op {
        CmpOp::Eq => scan(tid0, tids, ranks, pairs, |r| rank0 == r),
        CmpOp::Ne => scan(tid0, tids, ranks, pairs, |r| rank0 != r),
        CmpOp::Lt => scan(tid0, tids, ranks, pairs, |r| rank0 < r),
        CmpOp::Le => scan(tid0, tids, ranks, pairs, |r| rank0 <= r),
        CmpOp::Gt => scan(tid0, tids, ranks, pairs, |r| rank0 > r),
        CmpOp::Ge => scan(tid0, tids, ranks, pairs, |r| rank0 >= r),
    }
}

/// The join key of a two-atom body: every variable shared between the
/// atoms, at its first position in each. `None` for a cross product:
/// nothing to join on.
fn join_key(a0: &Atom, a1: &Atom) -> Option<(Vec<usize>, Vec<usize>)> {
    let vars0: BTreeSet<Var> = a0.vars().collect();
    let vars1: BTreeSet<Var> = a1.vars().collect();
    let (key_pos0, key_pos1): (Vec<usize>, Vec<usize>) = vars1
        .intersection(&vars0)
        .filter_map(|&v| Some((*a0.positions_of(v).first()?, *a1.positions_of(v).first()?)))
        .unzip();
    (!key_pos0.is_empty()).then_some((key_pos0, key_pos1))
}

/// A tid pair in ascending order: the canonical form of the set `{a, b}`.
fn ordered(a: Tid, b: Tid) -> (Tid, Tid) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// [`CmpOp`] on ranks. Sound because the rank table is sorted in `Value`
/// order with equal values collapsed: rank order *is* the value order.
fn rank_cmp(op: CmpOp, a: u32, b: u32) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// The visible rows of `relation` whose tid is in `touched`: base rows
/// still present (and not view-deleted) plus matching overlay rows. The
/// order is irrelevant — every consumer inserts into a [`BTreeSet`].
fn delta_rows<'f, F: Facts + ?Sized>(
    facts: &'f F,
    relation: &str,
    touched: &BTreeSet<Tid>,
) -> Vec<(Tid, VidRow<'f>)> {
    let mut rows = Vec::new();
    if let Some(rel) = facts.base().relation(relation) {
        for &tid in touched {
            if facts.is_deleted(tid) {
                continue;
            }
            if let Some(row) = rel.vid_row_of(tid) {
                rows.push((tid, row));
            }
        }
    }
    for (tid, row) in facts.overlay_rows(relation) {
        if touched.contains(tid) {
            rows.push((*tid, VidRow::Slice(row)));
        }
    }
    rows
}

impl fmt::Display for DenialConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render ¬∃(body) reusing the CQ display, stripping the `Q() :- `.
        let body = self.body.to_string();
        let body = body.strip_prefix("Q() :- ").unwrap_or(&body);
        write!(f, "{}: not exists ({body})", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::eval::for_each_witness;
    use cqa_relation::{tuple, Database, RelationSchema};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The instance of Example 3.5.
    pub(crate) fn example_3_5_db() -> Database {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["A", "B"]))
            .unwrap();
        db.create_relation(RelationSchema::new("S", ["A"])).unwrap();
        db.insert("R", tuple!["a4", "a3"]).unwrap(); // ι1
        db.insert("R", tuple!["a2", "a1"]).unwrap(); // ι2
        db.insert("R", tuple!["a3", "a3"]).unwrap(); // ι3
        db.insert("S", tuple!["a4"]).unwrap(); // ι4
        db.insert("S", tuple!["a2"]).unwrap(); // ι5
        db.insert("S", tuple!["a3"]).unwrap(); // ι6
        db
    }

    #[test]
    fn example_3_5_kappa_is_violated() {
        let db = example_3_5_db();
        let kappa = DenialConstraint::parse("kappa", "S(x), R(x, y), S(y)").unwrap();
        assert!(!kappa.is_satisfied(&db));
        let viols = kappa.violations(&db);
        // Two violations: {S(a4), R(a4,a3), S(a3)} = {ι4, ι1, ι6}
        //             and {S(a3), R(a3,a3), S(a3)} = {ι3, ι6}.
        assert_eq!(viols.len(), 2);
        assert!(viols.contains(&[Tid(4), Tid(1), Tid(6)].into()));
        assert!(viols.contains(&[Tid(3), Tid(6)].into()));
    }

    #[test]
    fn satisfied_after_deleting_a_witness_tuple() {
        let mut db = example_3_5_db();
        db.delete(Tid(6)).unwrap(); // S(a3)
        let kappa = DenialConstraint::parse("kappa", "S(x), R(x, y), S(y)").unwrap();
        assert!(kappa.is_satisfied(&db));
        assert!(kappa.violations(&db).is_empty());
    }

    #[test]
    fn null_does_not_witness_a_denial() {
        let mut db = example_3_5_db();
        // Null out the join attribute of ι6 (the left repair of Example 4.4).
        db.update_value(Tid(6), 0, cqa_relation::Value::NULL)
            .unwrap();
        db.update_value(Tid(3), 1, cqa_relation::Value::NULL)
            .unwrap();
        db.update_value(Tid(1), 1, cqa_relation::Value::NULL)
            .unwrap();
        let kappa = DenialConstraint::parse("kappa", "S(x), R(x, y), S(y)").unwrap();
        assert!(kappa.is_satisfied(&db));
    }

    #[test]
    fn rejects_non_boolean_and_negated_bodies() {
        assert!(DenialConstraint::parse("bad", "S(x), not R(x, x)").is_err());
        let q = parse_query("Q(x) :- S(x)").unwrap();
        assert!(DenialConstraint::new("bad", q).is_err());
        // `new` rejects negation too: a negated body is not monotone, so
        // maintaining its violations from the touched tuples would be wrong.
        let negated = parse_query("Q() :- R(x), not S(x)").unwrap();
        assert!(DenialConstraint::new("bad", negated).is_err());
    }

    #[test]
    fn display() {
        let kappa = DenialConstraint::parse("kappa", "S(x), R(x, y), S(y)").unwrap();
        assert_eq!(kappa.to_string(), "kappa: not exists (S(x), R(x, y), S(y))");
    }

    #[test]
    fn two_atom_joins_agree_with_generic_evaluator() {
        // Two-atom self-joins over an instance with multi-column join keys,
        // repeated values, nulls and comparisons: whichever lane a body
        // takes must produce exactly the generic evaluator's witnesses.
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["A", "B", "C"]))
            .unwrap();
        for i in 0..120u64 {
            let a = i % 10;
            let b = (i * 7) % 4;
            let c = if i % 13 == 0 {
                cqa_relation::Value::NULL
            } else {
                cqa_relation::Value::Int((i % 3) as i64)
            };
            db.insert(
                "R",
                cqa_relation::Tuple::new([
                    cqa_relation::Value::Int(a as i64),
                    cqa_relation::Value::Int(b as i64),
                    c,
                ]),
            )
            .unwrap();
        }
        for (body, rank_lane) in [
            ("R(x, y, u), R(x, z, v), y != z", true), // FD A → B
            ("R(x, y, u), R(x, y, v), u != v", true), // FD AB → C (two join columns)
            ("R(x, y, 0), R(y, z, 1)", false),        // non-self-join columns + consts
            ("R(x, x, u), R(x, y, v)", false),        // repeated variable in one atom
        ] {
            let dc = DenialConstraint::parse("dc", body).unwrap();
            let fast = dc.violations(&db);
            let mut generic = BTreeSet::new();
            for_each_witness(&db, dc.body(), NullSemantics::Sql, &mut |w| {
                generic.insert(w.tids.iter().copied().collect());
                true
            });
            assert_eq!(fast, generic, "{body}");
            assert_eq!(dc.violations_rank_lane(&db).is_some(), rank_lane, "{body}");
        }
        // Three atoms or no shared variable: the rank lane must decline.
        let three = DenialConstraint::parse("t", "R(x, y, u), R(y, z, v), R(z, x, w)").unwrap();
        assert!(three.violations_rank_lane(&db).is_none());
        let cross = DenialConstraint::parse("c", "R(x, y, u), R(z, w, t)").unwrap();
        assert!(cross.violations_rank_lane(&db).is_none());
    }

    /// The witness sets of `dc` by the generic evaluator.
    fn generic_sets<F: Facts + ?Sized>(
        dc: &DenialConstraint,
        facts: &F,
    ) -> BTreeSet<BTreeSet<Tid>> {
        let mut generic = BTreeSet::new();
        for_each_witness(facts, dc.body(), NullSemantics::Sql, &mut |w| {
            generic.insert(w.tids.iter().copied().collect());
            true
        });
        generic
    }

    /// A random cell: ints, integral and fractional floats, strings, inline
    /// nulls (plain and labelled) and a table-resident null label (≥ 2³⁰).
    /// With `novel`, also values the base never stores.
    fn random_value(rng: &mut SmallRng, novel: bool) -> Value {
        match rng.gen_range(0..if novel { 8 } else { 7 }) {
            0 | 1 => Value::Int(rng.gen_range(-2..3)),
            2 => Value::Float(rng.gen_range(-2..3) as f64), // canonicalizes to Int
            3 => Value::Float(rng.gen_range(-2..2) as f64 + 0.5),
            4 => Value::str(["a", "b", "c"][rng.gen_range(0..3)]),
            5 => [Value::NULL, Value::Null(7)][rng.gen_range(0..2)].clone(),
            6 => Value::Null(1 << 30),
            _ => [
                Value::str("novel"),
                Value::Int(1_000),
                Value::Float(9.25),
                Value::Null((1 << 30) + 5),
            ][rng.gen_range(0..4)]
            .clone(),
        }
    }

    fn random_row(rng: &mut SmallRng, arity: usize, novel: bool) -> cqa_relation::Tuple {
        cqa_relation::Tuple::new((0..arity).map(|_| random_value(rng, novel)))
    }

    /// Bodies that must all take the rank lane: FD and key self-joins on one
    /// and on two key columns, a `T`–`S` join on different key positions,
    /// `<=` (a row pairs with itself: singleton sets), two comparisons,
    /// constants present in and absent from the data, no comparison.
    const LANE_BODIES: &[&str] = &[
        "T(x, y, u), T(x, z, v), y != z",
        "T(x, y, u), T(x, z, v), y < z",
        "T(x, y, u), T(x, z, v), y <= z",
        "T(x, y, u), T(x, y, v), u != v",
        "T(x, y, u), T(x, y, v), u >= v",
        "T(x, y, u), S(w, x), u < w",
        "S(x, y), T(u, x, v), y != v",
        "T(x, y, u), T(x, z, v), y < z, u >= v",
        "T(x, y, u), T(x, z, v), y < z, u >= 2",
        "T(x, y, u), T(x, z, v), y > 1",
        "T(x, y, u), T(x, z, v), z != 'b'",
        "T(x, y, u), T(x, z, v), y < 100",
        "T(x, y, u), T(x, z, v), 'zzz' > y",
        "T(x, y, u), T(x, z, v)",
    ];

    /// Bodies that leave the rank lane for the evaluator: a constant in an
    /// atom, a repeated variable, three atoms, one atom compared against a
    /// constant (a range probe from the index threshold on, and `!=`, which
    /// the probe declines), and a cross product.
    const OTHER_BODIES: &[&str] = &[
        "T(x, y, 1), T(x, z, v), y != z",
        "T(x, x, u), T(x, z, v)",
        "S(x, y), T(y, z, u), S(z, w)",
        "T(x, y, u), u > 0",
        "T(x, y, u), u != 0",
        "T(x, y, u), S(z, w), u < z",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Over random instances, on the database and on a repair view
        /// with random deletions and overlay rows (novel values included),
        /// every [`LANE_BODIES`] body takes the rank lane, and every body's
        /// violations, through whichever lane its shape selects, and its
        /// violation delta over a random touched set reproduce the generic
        /// evaluator exactly. `T` holds up to 80 rows, so it falls on both
        /// sides of the evaluator's index threshold.
        #[test]
        fn rank_lane_agrees_with_generic_evaluator(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut db = Database::new();
            db.create_relation(RelationSchema::new("T", ["A", "B", "C"])).unwrap();
            db.create_relation(RelationSchema::new("S", ["A", "B"])).unwrap();
            for _ in 0..rng.gen_range(0..81) {
                db.insert("T", random_row(&mut rng, 3, false)).unwrap();
            }
            for _ in 0..rng.gen_range(0..15) {
                db.insert("S", random_row(&mut rng, 2, false)).unwrap();
            }
            let deleted: BTreeSet<Tid> = db.tids().into_iter().filter(|_| rng.gen_bool(0.2)).collect();
            let inserted: Vec<(String, cqa_relation::Tuple)> = (0..rng.gen_range(0..8))
                .map(|_| {
                    if rng.gen_bool(0.7) {
                        ("T".to_string(), random_row(&mut rng, 3, true))
                    } else {
                        ("S".to_string(), random_row(&mut rng, 2, true))
                    }
                })
                .collect();
            let view = cqa_relation::DeltaView::new(&db, &deleted, &inserted);
            // Touched tids: deleted and visible base tids of both relations,
            // overlay tids and one tid nothing holds.
            let overlay = (0..inserted.len() as u64).map(|i| Tid(db.tid_watermark() + i));
            let touched: BTreeSet<Tid> = db
                .tids()
                .into_iter()
                .map(|t| (t, if deleted.contains(&t) { 0.5 } else { 0.15 }))
                .chain(overlay.map(|t| (t, 0.5)))
                .filter(|&(_, p)| rng.gen_bool(p))
                .map(|(t, _)| t)
                .chain([Tid(db.tid_watermark() + 100)])
                .collect();
            for body in LANE_BODIES.iter().chain(OTHER_BODIES) {
                let dc = DenialConstraint::parse("dc", body).unwrap();
                let facts: [&dyn Facts; 2] = [&db, &view];
                for facts in facts {
                    let generic = generic_sets(&dc, facts);
                    if LANE_BODIES.contains(body) {
                        let lane = dc.violations_rank_lane(facts);
                        prop_assert!(lane.is_some(), "{} should take the rank lane", body);
                        prop_assert_eq!(lane.unwrap(), generic.clone(), "{}", body);
                    }
                    prop_assert_eq!(dc.violations(facts), generic.clone(), "{}", body);
                    let expected: BTreeSet<BTreeSet<Tid>> = generic
                        .into_iter()
                        .filter(|v| !v.is_disjoint(&touched))
                        .collect();
                    prop_assert_eq!(dc.violations_delta(facts, &touched), expected, "{} delta", body);
                }
            }
        }
    }

    #[test]
    fn rank_lane_declines_other_shapes() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["A", "B", "C"]))
            .unwrap();
        for i in 0..60i64 {
            db.insert("T", tuple![i % 6, i % 4, i % 3]).unwrap();
        }
        // Constants or repeated variables inside an atom decline the lane
        // (the evaluator handles them).
        for body in ["T(x, y, 0), T(x, z, v)", "T(x, x, u), T(x, z, v)"] {
            let dc = DenialConstraint::parse("dc", body).unwrap();
            assert!(
                dc.violations_rank_lane(&db).is_none(),
                "{body} should decline the rank lane"
            );
            // `violations` still answers, through the evaluator.
            assert_eq!(dc.violations(&db), generic_sets(&dc, &db), "{body}");
        }
        // A null comparison constant short-circuits to "no violations".
        let nullk = DenialConstraint::new("n", {
            let mut q = parse_query("Q() :- T(x, y, u), T(x, z, v)").unwrap();
            q.comparisons.push(cqa_query::Comparison {
                left: Term::Var(q.vars.lookup("y").unwrap()),
                op: CmpOp::Lt,
                right: Term::Const(cqa_relation::Value::NULL),
            });
            q
        })
        .unwrap();
        assert!(nullk.violations(&db).is_empty());
    }

    /// Reference semantics of `violations_delta`: filter the full set.
    fn delta_reference(
        dc: &DenialConstraint,
        db: &Database,
        touched: &BTreeSet<Tid>,
    ) -> BTreeSet<BTreeSet<Tid>> {
        dc.violations(db)
            .into_iter()
            .filter(|v| v.iter().any(|t| touched.contains(t)))
            .collect()
    }

    #[test]
    fn violations_delta_matches_filtered_full_scan() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["A", "B", "C"]))
            .unwrap();
        db.create_relation(RelationSchema::new("S", ["A"])).unwrap();
        for i in 0..80u64 {
            let c = if i % 13 == 0 {
                cqa_relation::Value::NULL
            } else {
                cqa_relation::Value::Int((i % 3) as i64)
            };
            db.insert(
                "R",
                cqa_relation::Tuple::new([
                    cqa_relation::Value::Int((i % 8) as i64),
                    cqa_relation::Value::Int((i * 7 % 5) as i64),
                    c,
                ]),
            )
            .unwrap();
        }
        for i in 0..6i64 {
            db.insert("S", tuple![i]).unwrap();
        }
        let all = db.tids();
        let shapes = [
            "R(x, y, u), R(x, z, v), y != z", // FD, rank lane
            "R(x, y, u), R(x, y, v), u != v", // two join columns
            "R(x, y, u), u >= 2",             // single atom + cmp
            "S(x), R(x, y, u), S(y)",         // three atoms (kappa shape)
            "R(x, y, u), S(z)",               // cross product
        ];
        for body in shapes {
            let dc = DenialConstraint::parse("dc", body).unwrap();
            // Empty delta, full delta, and a few partial windows.
            assert!(dc.violations_delta(&db, &BTreeSet::new()).is_empty());
            assert_eq!(dc.violations_delta(&db, &all), dc.violations(&db), "{body}");
            for window in [
                [Tid(1), Tid(2), Tid(3)].into(),
                [Tid(40), Tid(81)].into(),
                [Tid(83)].into(),
                [Tid(999)].into(), // unknown tid: nothing pinned
            ] as [BTreeSet<Tid>; 4]
            {
                assert_eq!(
                    dc.violations_delta(&db, &window),
                    delta_reference(&dc, &db, &window),
                    "{body} / {window:?}"
                );
            }
        }
    }

    #[test]
    fn violations_delta_sees_view_overlays_and_deletions() {
        use cqa_relation::DeltaView;
        let db = example_3_5_db();
        let kappa = DenialConstraint::parse("kappa", "S(x), R(x, y), S(y)").unwrap();
        // Delete ι6 and insert S(a1): the view's violations change shape.
        let dels: BTreeSet<Tid> = [Tid(6)].into();
        let ins = [("S".to_string(), tuple!["a1"])];
        let view = DeltaView::new(&db, &dels, &ins);
        let full: BTreeSet<BTreeSet<Tid>> = kappa.violations(&view);
        let visible: BTreeSet<Tid> = view.visible_tids();
        assert_eq!(kappa.violations_delta(&view, &visible), full);
        // A delta pinned to the overlay tid finds the overlay's violations.
        let overlay_tid = Tid(db.tid_watermark());
        let pinned = kappa.violations_delta(&view, &[overlay_tid].into());
        let expected: BTreeSet<BTreeSet<Tid>> = full
            .iter()
            .filter(|v| v.contains(&overlay_tid))
            .cloned()
            .collect();
        assert_eq!(pinned, expected);
        // The deleted tid pins nothing.
        assert!(kappa.violations_delta(&view, &dels).is_empty());
    }

    /// The single-column filter reference: the singleton violation sets of
    /// the rows of `relation` whose column `col` is non-null and satisfies
    /// `value op bound` in value order.
    fn filter_reference(
        db: &Database,
        relation: &str,
        col: usize,
        op: CmpOp,
        bound: &Value,
    ) -> BTreeSet<BTreeSet<Tid>> {
        db.facts_in(relation)
            .filter(|(_, t)| {
                t.get(col)
                    .is_some_and(|v| !v.is_null() && op.eval(v, bound))
            })
            .map(|(tid, _)| BTreeSet::from([tid]))
            .collect()
    }

    /// The access path the evaluator takes for a one-atom body.
    fn first_access(db: &Database, dc: &DenialConstraint) -> cqa_query::Access {
        cqa_query::plan::explain(db, dc.body()).steps[0]
            .access
            .clone()
    }

    #[test]
    fn comparison_constraints() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Acct", ["Id", "Balance"]))
            .unwrap();
        // Enough accounts to cross the evaluator's index threshold.
        for i in 0..40i64 {
            let balance = if i == 1 { -5 } else { 100 + i };
            db.insert("Acct", tuple![i, balance]).unwrap();
        }
        let positive = DenialConstraint::parse("pos", "Acct(i, b), b < 0").unwrap();
        // The body's one atom range-probes the sorted index on Balance.
        assert!(matches!(
            first_access(&db, &positive),
            cqa_query::Access::RangeProbe { col: 1, .. }
        ));
        let viols = positive.violations(&db);
        assert_eq!(viols.len(), 1);
        assert!(viols.contains(&[Tid(2)].into()));
        assert_eq!(
            viols,
            filter_reference(&db, "Acct", 1, CmpOp::Lt, &Value::Int(0))
        );
    }

    #[test]
    fn sorted_range_agrees_with_generic_evaluator() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("M", ["K", "V"]))
            .unwrap();
        for i in 0..60i64 {
            let v = if i % 11 == 0 {
                Value::NULL
            } else {
                Value::Int(i % 7 - 3)
            };
            db.insert("M", cqa_relation::Tuple::new([Value::Int(i), v]))
                .unwrap();
        }
        for (body, op, k) in [
            ("M(k, v), v < 0", CmpOp::Lt, 0),
            ("M(k, v), v <= -1", CmpOp::Le, -1),
            ("M(k, v), v > 2", CmpOp::Gt, 2),
            ("M(k, v), v >= 3", CmpOp::Ge, 3),
            ("M(k, v), v = 1", CmpOp::Eq, 1),
            ("M(k, v), 0 > v", CmpOp::Lt, 0), // flipped orientation
        ] {
            let dc = DenialConstraint::parse("dc", body).unwrap();
            assert!(
                matches!(
                    first_access(&db, &dc),
                    cqa_query::Access::RangeProbe { col: 1, .. }
                ),
                "{body}"
            );
            assert_eq!(
                dc.violations(&db),
                filter_reference(&db, "M", 1, op, &Value::Int(k)),
                "{body}"
            );
        }
        // `!=` and var-var comparisons decline the range probe and scan.
        let ne = DenialConstraint::parse("ne", "M(k, v), v != 0").unwrap();
        assert_eq!(first_access(&db, &ne), cqa_query::Access::Scan);
        assert_eq!(
            ne.violations(&db),
            filter_reference(&db, "M", 1, CmpOp::Ne, &Value::Int(0))
        );
        let vv = DenialConstraint::parse("vv", "M(k, v), k < v").unwrap();
        assert_eq!(first_access(&db, &vv), cqa_query::Access::Scan);
        let mut generic = BTreeSet::new();
        for_each_witness(&db, vv.body(), NullSemantics::Sql, &mut |w| {
            generic.insert(w.tids.iter().copied().collect());
            true
        });
        assert_eq!(vv.violations(&db), generic);
    }
}
