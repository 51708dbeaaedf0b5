//! S-repair enumeration (§3.1): consistent instances at ⊆-minimal symmetric
//! difference from the original.
//!
//! Two engines:
//!
//! * **Denial-class fast path** — when Σ contains only denial-class
//!   constraints (DCs, FDs, keys, CFDs), deletions are the only useful
//!   actions and S-repairs are exactly the complements of minimal hitting
//!   sets of the conflict hyper-graph, enumerated per conflict component
//!   and crossed at the end at any component count. Only a listing with a
//!   `limit` or a logical cap keeps one search over the whole graph.
//! * **General search** — with tgds in Σ, violations may be fixed by
//!   *insertions* too (Example 2.1's two repairs). The engine explores the
//!   delta space: pick the first violation of the current candidate, branch
//!   over its repair actions (delete a witness tuple / insert the demanded
//!   head tuple), re-check, and finally keep the ⊆-minimal deltas. Inserted
//!   existential positions take the plain SQL `NULL` (§4.2).

// audit:exponential — delta-space repair search branches per violation; every search loop must thread a Budget.
use crate::repair::{retain_subset_minimal, sort_by_delta, Repair};
use cqa_constraints::{ConflictHypergraph, ConstraintSet};
use cqa_exec::{Budget, Outcome};
use cqa_relation::fxhash::{FxHashSet, FxHasher};
use cqa_relation::{Database, Facts, RelationError, Tid, Tuple, Value, ValueDict};
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// 128-bit fingerprint of a delta's canonical form, used to deduplicate
/// search states without materializing (or cloning) the `BTreeSet<Change>`
/// the state would become. `deleted` is already canonical (a sorted set of
/// tids); `inserted` is canonicalized by sort + dedup, which is exactly the
/// normalization `Repair::from_delta` applies when building the delta set,
/// so two states collide iff their deltas are equal (up to a ~2⁻¹²⁸ hash
/// collision — two independently seeded 64-bit FxHashers).
///
/// Tuple values are hashed as dictionary [`cqa_relation::Vid`]s — one
/// word per cell instead of re-hashing string bytes on every state. The
/// fingerprint set is membership-only (never iterated, never ordered), so
/// hashing schedule-dependent ids is safe: equal values always intern to
/// equal vids within the process.
fn delta_fingerprint(
    dict: &ValueDict,
    deleted: &BTreeSet<Tid>,
    inserted: &[(String, Tuple)],
) -> (u64, u64) {
    let mut canonical: Vec<&(String, Tuple)> = inserted.iter().collect();
    canonical.sort();
    canonical.dedup();
    let mut h1 = FxHasher::default();
    let mut h2 = FxHasher::default();
    h2.write_u64(0x9e37_79b9_7f4a_7c15); // domain-separate the second hash
    for h in [&mut h1, &mut h2] {
        deleted.hash(h);
        h.write_usize(canonical.len());
        for (rel, tuple) in &canonical {
            rel.hash(h);
            for v in tuple.iter() {
                h.write_u32(dict.intern(v).raw());
            }
            h.write_u8(0xfe); // row separator
        }
    }
    (h1.finish(), h2.finish())
}

/// Options for the general S-repair search.
#[derive(Debug, Clone)]
pub struct RepairOptions {
    /// Allow insertions to satisfy tgds (set `false` for the deletion-only
    /// semantics of \[48\]).
    pub allow_insertions: bool,
    /// Tuples that may never be deleted (e.g. trusted peer data in the peer
    /// data-exchange setting of §4.2 \[25\]). If a violation can only be fixed
    /// by deleting protected tuples (and insertion is unavailable), no
    /// repair keeps them and the result omits that branch.
    pub protected: BTreeSet<Tid>,
    /// Hard cap on insertions per branch; exceeding it aborts the branch.
    /// Guards against non-terminating chases under cyclic tgds.
    pub max_insertions_per_branch: usize,
    /// Stop after this many distinct repairs have been found (`None` = all).
    pub limit: Option<usize>,
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions {
            allow_insertions: true,
            protected: BTreeSet::new(),
            max_insertions_per_branch: 10_000,
            limit: None,
        }
    }
}

impl RepairOptions {
    /// Deletion-only semantics.
    pub fn deletions_only() -> RepairOptions {
        RepairOptions {
            allow_insertions: false,
            ..RepairOptions::default()
        }
    }
}

/// Enumerate all S-repairs of `db` with respect to `sigma`.
///
/// Chooses the fast hyper-graph path when possible, the general search
/// otherwise. Results are deterministic (sorted by delta).
///
/// ```
/// use cqa_relation::{tuple, Database, RelationSchema};
/// use cqa_constraints::{ConstraintSet, KeyConstraint};
///
/// let mut db = Database::new();
/// db.create_relation(RelationSchema::new("Emp", ["Name", "Salary"]))?;
/// db.insert("Emp", tuple!["page", 5000])?;
/// db.insert("Emp", tuple!["page", 8000])?; // key conflict
/// let sigma = ConstraintSet::from_iter([KeyConstraint::new("Emp", ["Name"])]);
///
/// let repairs = cqa_core::s_repairs(&db, &sigma)?;
/// assert_eq!(repairs.len(), 2); // keep one of the two page rows
/// # Ok::<(), cqa_relation::RelationError>(())
/// ```
pub fn s_repairs(db: &Database, sigma: &ConstraintSet) -> Result<Vec<Repair>, RelationError> {
    s_repairs_with(db, sigma, &RepairOptions::default())
}

/// Enumerate S-repairs with explicit options.
///
/// The original instance is cloned **once** into a shared [`Arc`] base; the
/// enumerated repairs are copy-on-write deltas over it. Callers that already
/// hold an `Arc<Database>` call [`s_repairs_budgeted`] with
/// [`Budget::unlimited`] to skip even that clone.
pub fn s_repairs_with(
    db: &Database,
    sigma: &ConstraintSet,
    options: &RepairOptions,
) -> Result<Vec<Repair>, RelationError> {
    let base = Arc::new(db.clone());
    Ok(s_repairs_budgeted(&base, sigma, options, &Budget::unlimited())?.into_value())
}

/// Budget-aware S-repair enumeration: the anytime entry point behind
/// `repairctl --timeout-ms/--max-repairs`.
///
/// On truncation the carried repairs are always *consistent* instances at
/// delta-minimal-so-far distance:
///
/// * **Denial-class Σ** — every returned repair corresponds to a verified
///   minimal hitting set, so a truncated result is a sound subset of the
///   true S-repair family.
/// * **General Σ (tgds)** — returned repairs are consistent and pairwise
///   ⊆-incomparable, but a branch cut off by the budget could in principle
///   have produced a smaller delta, so ⊆-minimality against the *full*
///   family is not guaranteed for truncated results.
pub fn s_repairs_budgeted(
    db: &Arc<Database>,
    sigma: &ConstraintSet,
    options: &RepairOptions,
    budget: &Budget,
) -> Result<Outcome<Vec<Repair>>, RelationError> {
    if sigma.is_denial_class() {
        let graph = sigma.conflict_hypergraph(&**db)?;
        return denial_class_s_repairs(db, &graph, options, budget);
    }
    Ok(
        general_s_repairs(db, sigma, options, budget)?.map(|mut repairs| {
            sort_by_delta(&mut repairs);
            repairs
        }),
    )
}

/// The fast path: deletions only, via minimal hitting sets of `graph`, the
/// conflict hyper-graph of `db`. Sorted by delta.
pub(crate) fn denial_class_s_repairs(
    db: &Arc<Database>,
    graph: &ConflictHypergraph,
    options: &RepairOptions,
    budget: &Budget,
) -> Result<Outcome<Vec<Repair>>, RelationError> {
    let reduced;
    let graph = if options.protected.is_empty() {
        graph
    } else {
        // Protected tuples cannot be deleted: remove them from the edges; an
        // edge made empty can no longer be repaired, so no repair exists.
        let mut edges = Vec::with_capacity(graph.edges.len());
        for e in &graph.edges {
            let r: BTreeSet<Tid> = e.difference(&options.protected).copied().collect();
            if r.is_empty() {
                return Ok(budget.outcome_with(Vec::new(), 0));
            }
            edges.push(r);
        }
        reduced = ConflictHypergraph::new(graph.nodes.clone(), edges);
        &reduced
    };
    // Every repair is one minimal hitting set per conflict component, so
    // the families are enumerated per component and the cross-product is
    // expanded at the end, byte-identical to one search over the whole
    // graph at any component count. A `limit` or a logical cap keeps that
    // whole-graph DFS: its prefix and item cap mean "the first N repairs
    // found", while the families charge one item per component-local set,
    // so a cap would latch inside them before the expansion listed one
    // repair. A deadline's truncated expansion is still a sound subset.
    if options.limit.is_none() && !budget.forces_sequential() {
        let factored = crate::factored::FactoredRepairSet::enumerate_minimal(db, graph, budget);
        let repairs = factored.value().expand_budgeted(budget)?;
        let explored = repairs.len() as u64;
        return Ok(budget.outcome_with(repairs, explored));
    }
    let hitting_sets = graph.minimal_hitting_sets_budgeted(options.limit, budget);
    let explored = hitting_sets.value().len() as u64;
    let mut repairs = hitting_sets
        .into_value()
        .into_iter()
        .map(|hs| Repair::from_delta(db, hs, Vec::new()))
        .collect::<Result<Vec<Repair>, RelationError>>()?;
    sort_by_delta(&mut repairs);
    Ok(budget.outcome_with(repairs, explored))
}

/// The general search over deltas, handling tgds.
fn general_s_repairs(
    db: &Arc<Database>,
    sigma: &ConstraintSet,
    options: &RepairOptions,
    budget: &Budget,
) -> Result<Outcome<Vec<Repair>>, RelationError> {
    // A search node is a delta. Deltas are explored depth-first; consistent
    // leaves are collected and minimized at the end. `seen` prunes deltas
    // explored before (the same delta is reachable along many orders).
    struct Search<'a> {
        original: &'a Arc<Database>,
        sigma: &'a ConstraintSet,
        options: &'a RepairOptions,
        budget: &'a Budget,
        found: Vec<Repair>,
        seen: FxHashSet<(u64, u64)>,
        error: Option<RelationError>,
    }

    impl Search<'_> {
        fn step(&mut self, deleted: &BTreeSet<Tid>, inserted: &Vec<(String, Tuple)>) {
            if self.error.is_some() {
                return;
            }
            // The search is strictly depth-first on one thread, so a step
            // budget cuts it at a schedule-independent point.
            if !self.budget.tick() {
                return;
            }
            if self
                .options
                .limit
                .is_some_and(|l| self.found.len() >= l * 4)
            {
                // Heuristic early stop: collect a few times the requested
                // limit before minimization (supersets get filtered).
                return;
            }
            // Dedup on the fingerprint *before* building the candidate: the
            // same delta is reachable along many branch orders, and a
            // duplicate must not pay for re-validation and re-checking.
            if !self
                .seen
                .insert(delta_fingerprint(self.original.dict(), deleted, inserted))
            {
                return;
            }
            let repair = match Repair::from_delta(self.original, deleted.clone(), inserted.clone())
            {
                Ok(r) => r,
                Err(e) => {
                    self.error = Some(e);
                    return;
                }
            };
            // Prune: a superset of an already-consistent delta cannot be
            // ⊆-minimal.
            if self
                .found
                .iter()
                .any(|f| f.delta().is_subset(repair.delta()) && f.delta() != repair.delta())
            {
                return;
            }
            // Constraint checks run on a zero-clone view of the candidate;
            // nothing is materialized anywhere in the search.
            let current = repair.view();

            // 1. Denial-class violations first (they only ever need
            //    deletions).
            let denial_viols = match self.sigma.denial_violations(&current) {
                Ok(v) => v,
                Err(e) => {
                    self.error = Some(e);
                    return;
                }
            };
            if let Some(viol) = denial_viols.into_iter().next() {
                for tid in viol {
                    // Deleting an inserted tuple would just mean "don't
                    // insert it"; that delta is reachable on another branch.
                    if self.options.protected.contains(&tid) {
                        continue; // protected: not a deletion candidate
                    }
                    if self.original.get(tid).is_some() {
                        let mut d2 = deleted.clone();
                        d2.insert(tid);
                        self.step(&d2, inserted);
                    } else {
                        // The violating tuple was inserted by us: drop that
                        // insertion instead.
                        if let Some((rel, tuple)) = current.get_fact(tid) {
                            let rel = rel.to_string();
                            let tuple = tuple.clone();
                            let mut i2 = inserted.clone();
                            if let Some(pos) = i2.iter().position(|(r, t)| *r == rel && *t == tuple)
                            {
                                i2.remove(pos);
                                self.step(deleted, &i2);
                            }
                        }
                    }
                }
                return;
            }

            // 2. Tgd violations: delete a body tuple or insert the head.
            let tgd_viols = self.sigma.tgd_violations(&current);
            if let Some(viol) = tgd_viols.into_iter().next() {
                for tid in &viol.body_tids {
                    if self.options.protected.contains(tid) {
                        continue; // protected: not a deletion candidate
                    }
                    if self.original.get(*tid).is_some() {
                        let mut d2 = deleted.clone();
                        d2.insert(*tid);
                        self.step(&d2, inserted);
                    } else if let Some((rel, tuple)) = current.get_fact(*tid) {
                        let rel = rel.to_string();
                        let tuple = tuple.clone();
                        let mut i2 = inserted.clone();
                        if let Some(pos) = i2.iter().position(|(r, t)| *r == rel && *t == tuple) {
                            i2.remove(pos);
                            self.step(deleted, &i2);
                        }
                    }
                }
                if self.options.allow_insertions {
                    if inserted.len() >= self.options.max_insertions_per_branch {
                        self.error = Some(RelationError::Parse(format!(
                            "repair search exceeded max_insertions_per_branch ({}); \
                             the tgd set is likely cyclic",
                            self.options.max_insertions_per_branch
                        )));
                        return;
                    }
                    let head: Tuple = Tuple::new(
                        viol.required_head
                            .iter()
                            .map(|v| v.clone().unwrap_or(Value::NULL)),
                    );
                    let mut i2 = inserted.clone();
                    i2.push((viol.head_relation.clone(), head));
                    self.step(deleted, &i2);
                }
                return;
            }

            // Consistent: record (still unmaterialized).
            drop(current);
            self.found.push(repair);
            let _ = self.budget.charge_item();
        }
    }

    let mut search = Search {
        original: db,
        sigma,
        options,
        budget,
        found: Vec::new(),
        seen: FxHashSet::default(),
        error: None,
    };
    search.step(&BTreeSet::new(), &Vec::new());
    if let Some(e) = search.error {
        return Err(e);
    }
    let explored = search.found.len() as u64;
    let mut minimal = retain_subset_minimal(search.found);
    if let Some(l) = options.limit {
        minimal.truncate(l);
    }
    Ok(budget.outcome_with(minimal, explored))
}

/// Tuples that persist across every S-repair — the "consistent core" of D
/// (exactly the data the paper calls consistent in Example 3.1).
///
/// For denial-class Σ this avoids repair enumeration: since the reduced
/// (antichain) conflict hyper-graph puts every edge vertex into *some*
/// minimal hitting set, the core is exactly the isolated nodes. With tgds
/// the core is computed by intersecting the enumerated repairs.
pub fn consistent_core(
    db: &Database,
    sigma: &ConstraintSet,
) -> Result<BTreeSet<Tid>, RelationError> {
    if sigma.is_denial_class() {
        return Ok(sigma.conflict_hypergraph(db)?.isolated_nodes());
    }
    let repairs = s_repairs(db, sigma)?;
    let mut core = db.tids();
    for r in &repairs {
        core = core.difference(&r.deleted).copied().collect();
        // Inserted tuples are not part of the original instance's core.
    }
    Ok(core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_constraints::{DenialConstraint, KeyConstraint, Tgd};
    use cqa_relation::{tuple, RelationSchema};

    fn supply_db() -> Database {
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

    fn supply_sigma() -> ConstraintSet {
        ConstraintSet::from_iter([Tgd::parse("ID", "Articles(z) :- Supply(x, y, z)").unwrap()])
    }

    #[test]
    fn example_3_1_two_s_repairs() {
        let db = supply_db();
        let repairs = s_repairs(&db, &supply_sigma()).unwrap();
        assert_eq!(repairs.len(), 2);
        // D1: delete Supply(C2, R1, I3); D2: insert Articles(I3).
        let d1 = repairs
            .iter()
            .find(|r| r.is_deletion_only())
            .expect("deletion repair");
        assert_eq!(d1.deleted, [Tid(3)].into());
        let d2 = repairs
            .iter()
            .find(|r| !r.is_deletion_only())
            .expect("insertion repair");
        assert!(d2.deleted.is_empty());
        assert_eq!(d2.inserted, vec![("Articles".to_string(), tuple!["I3"])]);
        // And the non-minimal D3 (deleting two Supply tuples) is absent.
        assert!(repairs.iter().all(|r| r.deleted.len() <= 1));
    }

    #[test]
    fn example_3_1_consistent_core() {
        let db = supply_db();
        let core = consistent_core(&db, &supply_sigma()).unwrap();
        // First two Supply tuples and both Articles tuples persist.
        assert_eq!(core, [Tid(1), Tid(2), Tid(4), Tid(5)].into());
    }

    #[test]
    fn deletions_only_semantics() {
        let db = supply_db();
        let repairs =
            s_repairs_with(&db, &supply_sigma(), &RepairOptions::deletions_only()).unwrap();
        assert_eq!(repairs.len(), 1);
        assert!(repairs[0].is_deletion_only());
        assert_eq!(repairs[0].deleted, [Tid(3)].into());
    }

    #[test]
    fn example_3_3_key_repairs() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Employee", ["Name", "Salary"]))
            .unwrap();
        db.insert("Employee", tuple!["page", 5000]).unwrap();
        db.insert("Employee", tuple!["page", 8000]).unwrap();
        db.insert("Employee", tuple!["smith", 3000]).unwrap();
        db.insert("Employee", tuple!["stowe", 7000]).unwrap();
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("Employee", ["Name"])]);
        let repairs = s_repairs(&db, &sigma).unwrap();
        assert_eq!(repairs.len(), 2);
        for r in &repairs {
            assert_eq!(r.deleted.len(), 1);
            assert!(r.deleted.iter().all(|t| t.0 <= 2)); // one of the page rows
            assert!(sigma.is_satisfied(r.db()).unwrap());
        }
    }

    #[test]
    fn example_3_5_three_s_repairs() {
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
        let sigma =
            ConstraintSet::from_iter([
                DenialConstraint::parse("kappa", "S(x), R(x, y), S(y)").unwrap()
            ]);
        let repairs = s_repairs(&db, &sigma).unwrap();
        assert_eq!(repairs.len(), 3);
        let deltas: BTreeSet<BTreeSet<Tid>> = repairs.iter().map(|r| r.deleted.clone()).collect();
        // D1 deletes ι6; D2 deletes {ι1, ι3}; D3 deletes {ι3, ι4}.
        assert!(deltas.contains(&[Tid(6)].into()));
        assert!(deltas.contains(&[Tid(1), Tid(3)].into()));
        assert!(deltas.contains(&[Tid(3), Tid(4)].into()));
    }

    #[test]
    fn consistent_db_has_one_trivial_repair() {
        let mut db = supply_db();
        db.insert("Articles", tuple!["I3"]).unwrap();
        let repairs = s_repairs(&db, &supply_sigma()).unwrap();
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0].delta_size(), 0);
    }

    #[test]
    fn interacting_constraints_key_on_target_of_tgd() {
        // Inserting Articles(I3, NULL) could collide with a key on Articles;
        // here we add a DC forbidding item I3 in Articles entirely, so the
        // only repair deletes the Supply tuple.
        let db = supply_db();
        let mut sigma = supply_sigma();
        sigma.push(DenialConstraint::parse("noI3", "Articles('I3')").unwrap());
        let repairs = s_repairs(&db, &sigma).unwrap();
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0].deleted, [Tid(3)].into());
        assert!(repairs[0].inserted.is_empty());
    }

    #[test]
    fn existential_tgd_inserts_null() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new(
            "Supply",
            ["Company", "Receiver", "Item"],
        ))
        .unwrap();
        db.create_relation(RelationSchema::new("Articles", ["Item", "Cost"]))
            .unwrap();
        db.insert("Supply", tuple!["C2", "R1", "I3"]).unwrap();
        let sigma =
            ConstraintSet::from_iter([
                Tgd::parse("ID'", "Articles(z, v) :- Supply(x, y, z)").unwrap()
            ]);
        let repairs = s_repairs(&db, &sigma).unwrap();
        assert_eq!(repairs.len(), 2);
        let ins = repairs.iter().find(|r| !r.is_deletion_only()).unwrap();
        let t = &ins.inserted[0].1;
        assert_eq!(t.at(0), &Value::str("I3"));
        assert!(t.at(1).is_null());
    }

    #[test]
    fn cascading_tgds_chase_through() {
        // A(x) -> B(x) -> C(x): repairing by insertion cascades.
        let mut db = Database::new();
        for r in ["A", "B", "C"] {
            db.create_relation(RelationSchema::new(r, ["X"])).unwrap();
        }
        db.insert("A", tuple!["a"]).unwrap();
        let sigma = ConstraintSet::from_iter([
            Tgd::parse("t1", "B(x) :- A(x)").unwrap(),
            Tgd::parse("t2", "C(x) :- B(x)").unwrap(),
        ]);
        let repairs = s_repairs(&db, &sigma).unwrap();
        // Either delete A(a), or insert B(a) and C(a).
        assert_eq!(repairs.len(), 2);
        let ins = repairs.iter().find(|r| !r.is_deletion_only()).unwrap();
        assert_eq!(ins.inserted.len(), 2);
        for r in &repairs {
            assert!(sigma.is_satisfied(r.db()).unwrap());
        }
    }

    #[test]
    fn limit_caps_results() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["A", "B"]))
            .unwrap();
        for i in 0..6 {
            db.insert("T", tuple![i / 2, i]).unwrap();
        }
        let sigma = ConstraintSet::from_iter([KeyConstraint::new("T", ["A"])]);
        let all = s_repairs(&db, &sigma).unwrap();
        assert_eq!(all.len(), 8); // 2^3 key groups
        let some = s_repairs_with(
            &db,
            &sigma,
            &RepairOptions {
                limit: Some(3),
                ..RepairOptions::default()
            },
        )
        .unwrap();
        assert_eq!(some.len(), 3);
    }

    #[test]
    fn every_repair_is_consistent_and_minimal() {
        let db = supply_db();
        let sigma = supply_sigma();
        for r in s_repairs(&db, &sigma).unwrap() {
            assert!(sigma.is_satisfied(r.db()).unwrap());
        }
    }
}
