//! Actual causes, contingency sets and responsibility for query answers
//! (§7 of the paper; Meliou et al. \[91\], Bertossi–Salimi \[26\]).
//!
//! For a Boolean UCQ `Q` true in `D`:
//!
//! * τ ∈ D is a **counterfactual cause** if `D ∖ {τ} ⊭ Q`;
//! * τ is an **actual cause** if some contingency set Γ makes it
//!   counterfactual in `D ∖ Γ`;
//! * its **responsibility** is `1 / (1 + |Γ|)` for the smallest such Γ.
//!
//! The implementation works on the *support hyper-graph*: each witness of
//! `Q` contributes its matched tid-set as a hyper-edge (the exact dual of
//! the conflict hyper-graph of the DC `κ(Q) = ¬Q`). With superset edges
//! dropped, every vertex of an edge is an actual cause (the poly-time result
//! for CQs/UCQs the paper cites), and responsibility is computed by a
//! branch-and-bound minimum hitting set through the candidate tuple — the
//! `FP^NP(log n)`-flavoured part. That search runs inside the candidate's
//! own connected component of the support hyper-graph, at any component
//! count; every other component contributes one fixed minimum hitting set
//! to Γ.

// audit:exponential — contingency-set search per candidate cause; every search loop must thread a Budget.
use cqa_constraints::{ConflictComponents, ConflictHypergraph};
use cqa_exec::{Budget, Outcome};
use cqa_query::{witnesses, NullSemantics, UnionQuery};
use cqa_relation::{Database, DeltaView, Facts, Tid};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// An actual cause for a query answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Cause {
    /// The causing tuple.
    pub tid: Tid,
    /// `1 / (1 + |Γ|)` for a smallest contingency set Γ.
    pub responsibility: f64,
    /// One smallest contingency set.
    pub min_contingency: BTreeSet<Tid>,
    /// Is it a counterfactual cause (`Γ = ∅`)?
    pub counterfactual: bool,
}

impl fmt::Display for Cause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (ρ = {}", self.tid, self.responsibility)?;
        if self.counterfactual {
            write!(f, ", counterfactual")?;
        }
        if !self.min_contingency.is_empty() {
            write!(f, ", Γ = {{")?;
            for (i, t) in self.min_contingency.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
            write!(f, "}}")?;
        }
        write!(f, ")")
    }
}

/// The support hyper-graph of a Boolean UCQ: one edge per witness (matched
/// tid-set), superset edges dropped.
pub fn support_hypergraph<F: Facts + ?Sized>(facts: &F, query: &UnionQuery) -> ConflictHypergraph {
    let mut edges: Vec<BTreeSet<Tid>> = Vec::new();
    for cq in &query.disjuncts {
        for w in witnesses(facts, cq, NullSemantics::Structural) {
            edges.push(w.tids.into_iter().collect());
        }
    }
    ConflictHypergraph::new(facts.visible_tids(), edges)
}

/// All actual causes of a Boolean UCQ being true in `db`, with
/// responsibilities and minimum contingency sets. Empty if `Q` is false.
///
/// For a non-Boolean query and a specific answer `ā`, substitute the answer
/// constants into the head first (causes are defined per answer).
///
/// ```
/// use cqa_relation::{tuple, Database, RelationSchema, Tid};
/// use cqa_query::{parse_query, UnionQuery};
///
/// let mut db = Database::new();
/// db.create_relation(RelationSchema::new("P", ["A"]))?;
/// db.insert("P", tuple!["a"])?; // ι1
/// db.insert("P", tuple!["b"])?; // ι2
/// let q = UnionQuery::single(parse_query("Q() :- P(x)")?);
///
/// // Two independent witnesses: each tuple is an actual cause with ρ = ½.
/// let causes = cqa_causality::actual_causes(&db, &q);
/// assert_eq!(causes.len(), 2);
/// assert!(causes.iter().all(|c| c.responsibility == 0.5));
/// # Ok::<(), cqa_relation::RelationError>(())
/// ```
pub fn actual_causes<F: Facts + ?Sized>(facts: &F, query: &UnionQuery) -> Vec<Cause> {
    actual_causes_budgeted(facts, query, &Budget::unlimited()).into_value()
}

/// Budget-aware [`actual_causes`].
///
/// One step is charged per candidate tuple, one item per cause emitted, and
/// the nested minimum-hitting-set searches share the same budget. A
/// truncated result is a *sound subset* of the actual causes: every listed
/// tuple really is a cause and its contingency set is a genuine witness,
/// but (a) further causes may have been skipped and (b) a contingency set
/// found after the budget latched may be larger than minimum, so the
/// reported responsibility is then a **lower bound**. Under a step or item
/// budget candidates are processed sequentially in tid order, so the
/// truncated value is independent of the thread count.
pub fn actual_causes_budgeted<F: Facts + ?Sized>(
    facts: &F,
    query: &UnionQuery,
    budget: &Budget,
) -> Outcome<Vec<Cause>> {
    let graph = support_hypergraph(facts, query);
    if graph.edges.is_empty() {
        return budget.outcome_with(Vec::new(), 0); // Q false: no causes
    }
    // Every vertex of the (antichain) edge set is an actual cause, and each
    // candidate's responsibility (the FP^NP(log n)-flavoured part) only
    // reads the shared graph — compute them in parallel, in candidate
    // order. The nested hitting-set search inside runs inline on its
    // worker (`cqa-exec` reports 1 thread inside the pool).
    let candidates: Vec<Tid> = graph
        .edges
        .iter()
        .flatten()
        .copied()
        .collect::<BTreeSet<Tid>>()
        .into_iter()
        .collect();
    // Responsibility is component-local (§4.1 locality dual): compute the
    // shared cross-component context once, not per candidate.
    let ctx = CompCtx::build(&graph, budget);
    let compute = |tid: Tid| {
        let (rho, gamma) = responsibility_factored(&ctx, tid, budget);
        debug_assert!(rho > 0.0);
        Cause {
            tid,
            responsibility: rho,
            counterfactual: gamma.is_empty(),
            min_contingency: gamma,
        }
    };
    let causes: Vec<Cause> = if budget.forces_sequential() || cqa_exec::threads() <= 1 {
        let mut out = Vec::new();
        for &tid in &candidates {
            if !budget.tick() {
                break;
            }
            out.push(compute(tid));
            if !budget.charge_item() {
                break;
            }
        }
        out
    } else {
        cqa_exec::par_map(&candidates, |&tid| {
            if !budget.tick() {
                return None;
            }
            let c = compute(tid);
            let _ = budget.charge_item();
            Some(c)
        })
        .into_iter()
        .flatten()
        .collect()
    };
    let explored = causes.len() as u64;
    budget.outcome_with(causes, explored)
}

/// The responsibility of `tid` (0.0 when it is not an actual cause), with a
/// witnessing minimum contingency set.
pub fn responsibility<F: Facts + ?Sized>(
    facts: &F,
    query: &UnionQuery,
    tid: Tid,
) -> (f64, BTreeSet<Tid>) {
    let graph = support_hypergraph(facts, query);
    if graph.edges.is_empty() || !graph.edges.iter().any(|e| e.contains(&tid)) {
        return (0.0, BTreeSet::new());
    }
    let unlimited = Budget::unlimited();
    responsibility_factored(&CompCtx::build(&graph, &unlimited), tid, &unlimited)
}

/// Shared cross-component context for the responsibility search: the
/// component decomposition of the support hyper-graph (with its kept
/// tid → component index), and one **minimum** hitting set per component. A
/// candidate's global contingency set is its component-local optimum plus
/// every *other* component's fixed minimum — those minima do not depend on
/// the candidate, so they are computed once per graph and shared by all
/// candidates.
struct CompCtx {
    components: Arc<ConflictComponents>,
    minima: Vec<BTreeSet<Tid>>,
}

impl CompCtx {
    /// The context of `graph`. Its minima pad the Γ of a candidate in
    /// another component, so a graph of one component computes none: it
    /// runs no search beyond the candidates' own.
    fn build(graph: &ConflictHypergraph, budget: &Budget) -> CompCtx {
        let components = graph.components();
        let minimum = |c: &cqa_constraints::ComponentGraph| {
            c.graph().minimum_hitting_set_budgeted(budget).into_value()
        };
        let minima: Vec<BTreeSet<Tid>> = if components.components.len() < 2 {
            Vec::new()
        } else if budget.forces_sequential() || cqa_exec::threads() <= 1 {
            components.components.iter().map(minimum).collect()
        } else {
            cqa_exec::par_map(&components.components, minimum)
        };
        CompCtx { components, minima }
    }
}

/// Smallest contingency set for `tid`, searched inside its own conflict
/// component only.
///
/// Γ must (a) break every support not containing `tid` — otherwise `Q`
/// survives `D ∖ (Γ ∪ {τ})` — while (b) leaving some support `e ∋ τ`
/// untouched apart from τ itself, otherwise `Q` is already false in
/// `D ∖ Γ`. So: for each candidate private support `e ∋ τ`, forbid the
/// vertices of `e ∖ {τ}` and hit the remaining supports of the component
/// minimally; take the best `e`. (Equivalently: ρ(τ) = 1 / min{|H| : H
/// minimal hitting set of the supports with τ ∈ H} — the S-repair
/// connection of §7.) Supports in other components are hit by their fixed
/// shared minima from [`CompCtx`]: the global minimum splits as the local
/// minimum plus the other components' minima, so ρ equals a search over
/// the whole graph, though the Γ *witness* may be a different, equally
/// small set.
///
/// Once the budget latches, remaining private supports are skipped and the
/// inner searches fall back to greedy witnesses: Γ stays a valid
/// contingency set, possibly above minimum size.
fn responsibility_factored(ctx: &CompCtx, tid: Tid, budget: &Budget) -> (f64, BTreeSet<Tid>) {
    let Some(comp) = ctx.components.component_index().get(tid) else {
        // Not on any support edge: not a cause.
        return (0.0, BTreeSet::new());
    };
    let local = ctx.components.components[comp].graph();
    let others: Vec<&BTreeSet<Tid>> = local.edges.iter().filter(|e| !e.contains(&tid)).collect();
    let mut best: Option<BTreeSet<Tid>> = None;
    for e in local.edges.iter().filter(|e| e.contains(&tid)) {
        if best.is_some() && budget.exhausted() {
            break;
        }
        let mut forbidden = e.clone();
        forbidden.remove(&tid);
        // Γ may not use `forbidden` vertices; an edge losing all its
        // vertices makes this private support infeasible. Other
        // components' supports are disjoint from `forbidden`, so only the
        // local ones can.
        let mut reduced: Vec<BTreeSet<Tid>> = Vec::with_capacity(others.len());
        let mut feasible = true;
        for f in &others {
            let r: BTreeSet<Tid> = f.difference(&forbidden).copied().collect();
            if r.is_empty() {
                feasible = false;
                break;
            }
            reduced.push(r);
        }
        if !feasible {
            continue;
        }
        let sub = ConflictHypergraph::new(local.nodes.clone(), reduced);
        let gamma = sub.minimum_hitting_set_budgeted(budget).into_value();
        if best.as_ref().is_none_or(|b| gamma.len() < b.len()) {
            best = Some(gamma);
        }
    }
    match best {
        Some(mut gamma) => {
            for (d, h) in ctx.minima.iter().enumerate() {
                if d != comp {
                    gamma.extend(h.iter().copied());
                }
            }
            let rho = 1.0 / (1.0 + gamma.len() as f64);
            (rho, gamma)
        }
        None => (0.0, BTreeSet::new()),
    }
}

/// The most responsible actual causes (MRACs): causes of maximum
/// responsibility. Via the C-repair connection, these are the tuples of the
/// minimum hitting sets of the support hyper-graph.
pub fn most_responsible_causes<F: Facts + ?Sized>(facts: &F, query: &UnionQuery) -> Vec<Cause> {
    let causes = actual_causes(facts, query);
    let Some(max) = causes
        .iter()
        .map(|c| c.responsibility)
        .max_by(f64::total_cmp)
    else {
        return Vec::new();
    };
    causes
        .into_iter()
        .filter(|c| c.responsibility == max)
        .collect()
}

/// Generic causality for any *monotone* Boolean query given as a closure
/// (e.g. a Datalog query: materialize and test). Breadth-first search over
/// contingency sets by size — exponential, as expected for Datalog causality
/// (the paper notes cause computation is NP-complete there).
///
/// `max_contingency` bounds `|Γ|`; `None` searches up to `|D| − 1`.
pub fn actual_causes_monotone(
    db: &Database,
    holds: &dyn Fn(&dyn Facts) -> bool,
    max_contingency: Option<usize>,
) -> Vec<Cause> {
    actual_causes_monotone_budgeted(db, holds, max_contingency, &Budget::unlimited()).into_value()
}

/// Budget-aware [`actual_causes_monotone`]: one step per query probe. The
/// search is sequential and visits candidates in tid order and contingency
/// sets smallest-first, so a truncated result is a sound subset of the
/// causes — each listed cause was fully verified, with a genuinely minimum
/// contingency set, before the budget latched — and is deterministic for
/// step/item budgets.
pub fn actual_causes_monotone_budgeted(
    db: &Database,
    holds: &dyn Fn(&dyn Facts) -> bool,
    max_contingency: Option<usize>,
    budget: &Budget,
) -> Outcome<Vec<Cause>> {
    if !budget.tick() || !holds(db) {
        return budget.outcome_with(Vec::new(), 0);
    }
    let tids: Vec<Tid> = db.tids().into_iter().collect();
    let cap = max_contingency.unwrap_or(tids.len().saturating_sub(1));

    /// Visit every `k`-subset of `pool[start..]`; `visit` returns `true` to
    /// stop early (a smallest contingency set was found).
    fn combos(
        pool: &[Tid],
        k: usize,
        start: usize,
        cur: &mut Vec<Tid>,
        visit: &mut dyn FnMut(&[Tid]) -> bool,
    ) -> bool {
        if cur.len() == k {
            return visit(cur);
        }
        for i in start..pool.len() {
            cur.push(pool[i]);
            if combos(pool, k, i + 1, cur, visit) {
                return true;
            }
            cur.pop();
        }
        false
    }

    // Probe `D ∖ Γ` through a zero-clone deletion view over `db`; the
    // exponentially many probes never materialize an instance.
    let without = |excluded: &BTreeSet<Tid>| -> bool { holds(&DeltaView::new(db, excluded, &[])) };

    let mut out = Vec::new();
    'candidates: for &tid in &tids {
        let others: Vec<Tid> = tids.iter().copied().filter(|&t| t != tid).collect();
        'sizes: for k in 0..=cap.min(others.len()) {
            let mut cur = Vec::with_capacity(k);
            let mut found: Option<BTreeSet<Tid>> = None;
            combos(&others, k, 0, &mut cur, &mut |gamma_slice| {
                // `true` stops the enumeration; with `found` still `None`
                // the exhaustion check below abandons this candidate.
                if !budget.tick() {
                    return true;
                }
                let gamma: BTreeSet<Tid> = gamma_slice.iter().copied().collect();
                if !without(&gamma) {
                    return false; // (b) fails: Q must survive D ∖ Γ
                }
                let mut with_tid = gamma.clone();
                with_tid.insert(tid);
                if without(&with_tid) {
                    return false; // (d) fails: removing τ must kill Q
                }
                found = Some(gamma);
                true
            });
            if let Some(gamma) = found {
                out.push(Cause {
                    tid,
                    responsibility: 1.0 / (1.0 + k as f64),
                    counterfactual: k == 0,
                    min_contingency: gamma,
                });
                let _ = budget.charge_item();
                break 'sizes;
            }
            if budget.exhausted() {
                break 'candidates;
            }
        }
    }
    let explored = out.len() as u64;
    budget.outcome_with(out, explored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_query::{parse_query, UnionQuery};
    use cqa_relation::{tuple, RelationSchema};

    /// Example 3.5/7.1's instance.
    fn example_db() -> Database {
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

    fn q() -> UnionQuery {
        UnionQuery::single(parse_query("Q() :- S(x), R(x, y), S(y)").unwrap())
    }

    #[test]
    fn example_7_1_causes_and_responsibilities() {
        let db = example_db();
        let causes = actual_causes(&db, &q());
        let by_tid = |t: u64| causes.iter().find(|c| c.tid == Tid(t));
        // S(a3) = ι6 is a counterfactual cause with ρ = 1.
        let i6 = by_tid(6).expect("ι6 is a cause");
        assert!(i6.counterfactual);
        assert_eq!(i6.responsibility, 1.0);
        // R(a4, a3) = ι1, R(a3, a3) = ι3, S(a4) = ι4: actual causes, ρ = ½.
        for t in [1, 3, 4] {
            let c = by_tid(t).unwrap_or_else(|| panic!("ι{t} should be a cause"));
            assert!(!c.counterfactual);
            assert_eq!(c.responsibility, 0.5, "ι{t}");
            assert_eq!(c.min_contingency.len(), 1);
        }
        // ι2 and ι5 are not causes.
        assert!(by_tid(2).is_none());
        assert!(by_tid(5).is_none());
        assert_eq!(causes.len(), 4);
    }

    #[test]
    fn example_7_1_contingency_sets() {
        let db = example_db();
        let causes = actual_causes(&db, &q());
        let i1 = causes.iter().find(|c| c.tid == Tid(1)).unwrap();
        // The paper: R(a4, a3) has contingency set {R(a3, a3)} = {ι3} — or
        // symmetric alternatives through the S tuples; the minimum size is 1.
        assert_eq!(i1.min_contingency.len(), 1);
    }

    #[test]
    fn mrac_is_the_counterfactual_cause() {
        let db = example_db();
        let mracs = most_responsible_causes(&db, &q());
        assert_eq!(mracs.len(), 1);
        assert_eq!(mracs[0].tid, Tid(6));
    }

    #[test]
    fn false_query_has_no_causes() {
        let mut db = example_db();
        db.delete(Tid(6)).unwrap();
        assert!(actual_causes(&db, &q()).is_empty());
        assert_eq!(responsibility(&db, &q(), Tid(1)).0, 0.0);
    }

    #[test]
    fn non_cause_has_zero_responsibility() {
        let db = example_db();
        assert_eq!(responsibility(&db, &q(), Tid(2)).0, 0.0);
        let (rho, gamma) = responsibility(&db, &q(), Tid(6));
        assert_eq!(rho, 1.0);
        assert!(gamma.is_empty());
    }

    #[test]
    fn ucq_causes_union_supports() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("P", ["A"])).unwrap();
        db.create_relation(RelationSchema::new("Q", ["A"])).unwrap();
        db.insert("P", tuple!["a"]).unwrap(); // ι1
        db.insert("Q", tuple!["b"]).unwrap(); // ι2
        let u = cqa_query::parse_ucq("Ans() :- P(x)\nAns() :- Q(x)").unwrap();
        let causes = actual_causes(&db, &u);
        // Both are causes with ρ = 1/2 (delete the other first).
        assert_eq!(causes.len(), 2);
        assert!(causes.iter().all(|c| c.responsibility == 0.5));
    }

    #[test]
    fn monotone_generic_agrees_with_hypergraph_path() {
        let db = example_db();
        let query = q();
        let generic = actual_causes_monotone(
            &db,
            &|d: &dyn Facts| cqa_query::holds_ucq(d, &query, NullSemantics::Structural),
            None,
        );
        let fast = actual_causes(&db, &query);
        let gs: BTreeSet<(Tid, String)> = generic
            .iter()
            .map(|c| (c.tid, format!("{:.3}", c.responsibility)))
            .collect();
        let fs: BTreeSet<(Tid, String)> = fast
            .iter()
            .map(|c| (c.tid, format!("{:.3}", c.responsibility)))
            .collect();
        assert_eq!(gs, fs);
    }

    #[test]
    fn budgeted_causes_exact_with_ample_budget() {
        let db = example_db();
        let outcome = actual_causes_budgeted(&db, &q(), &Budget::steps(1_000_000));
        assert!(outcome.is_exact());
        let exact = actual_causes(&db, &q());
        assert_eq!(outcome.value().len(), exact.len());
    }

    #[test]
    fn budgeted_causes_truncate_to_sound_subset() {
        let db = example_db();
        let exact = actual_causes(&db, &q());
        // A two-step budget: at most the first candidates get processed.
        let outcome = actual_causes_budgeted(&db, &q(), &Budget::steps(2));
        assert!(outcome.is_truncated());
        for c in outcome.value() {
            let reference = exact
                .iter()
                .find(|e| e.tid == c.tid)
                .expect("truncated cause must be a real cause");
            // Responsibility under truncation is a lower bound.
            assert!(c.responsibility <= reference.responsibility + 1e-9);
        }
    }

    #[test]
    fn budgeted_monotone_causes_are_verified() {
        let db = example_db();
        let query = q();
        let holds = |d: &dyn Facts| cqa_query::holds_ucq(d, &query, NullSemantics::Structural);
        let exact = actual_causes_monotone(&db, &holds, None);
        let outcome = actual_causes_monotone_budgeted(&db, &holds, None, &Budget::steps(10));
        assert!(outcome.is_truncated());
        for c in outcome.value() {
            let reference = exact.iter().find(|e| e.tid == c.tid).expect("real cause");
            assert_eq!(c.responsibility, reference.responsibility);
        }
    }

    /// The contingency search over the whole support graph, with no
    /// component reasoning: the reference the per-component search is
    /// compared against.
    fn responsibility_in_graph(graph: &ConflictHypergraph, tid: Tid) -> (f64, BTreeSet<Tid>) {
        let others: Vec<&BTreeSet<Tid>> =
            graph.edges.iter().filter(|e| !e.contains(&tid)).collect();
        let mut best: Option<BTreeSet<Tid>> = None;
        for e in graph.edges.iter().filter(|e| e.contains(&tid)) {
            let forbidden: BTreeSet<Tid> = e.iter().copied().filter(|&t| t != tid).collect();
            let reduced: Option<Vec<BTreeSet<Tid>>> = others
                .iter()
                .map(|f| {
                    let r: BTreeSet<Tid> = f.difference(&forbidden).copied().collect();
                    (!r.is_empty()).then_some(r)
                })
                .collect();
            let Some(reduced) = reduced else {
                continue;
            };
            let gamma = ConflictHypergraph::new(graph.nodes.clone(), reduced).minimum_hitting_set();
            if best.as_ref().is_none_or(|b| gamma.len() < b.len()) {
                best = Some(gamma);
            }
        }
        best.map_or((0.0, BTreeSet::new()), |g| {
            (1.0 / (1.0 + g.len() as f64), g)
        })
    }

    #[test]
    fn multi_component_responsibilities_match_the_monolithic_search() {
        // Example 7.1's support component {ι1, ι3, ι4, ι6} plus a disjoint
        // joint witness {ι7, ι8} from a second disjunct: two components.
        let mut db = example_db();
        db.create_relation(RelationSchema::new("U", ["A"])).unwrap();
        db.create_relation(RelationSchema::new("V", ["A"])).unwrap();
        db.insert("U", tuple!["e"]).unwrap(); // ι7
        db.insert("V", tuple!["e"]).unwrap(); // ι8
        let u = cqa_query::parse_ucq("Q() :- S(x), R(x, y), S(y)\nQ() :- U(x), V(x)").unwrap();
        let graph = support_hypergraph(&db, &u);
        assert_eq!(graph.components().components.len(), 2);
        let causes = actual_causes(&db, &u);
        let by_tid = |t: u64| {
            causes
                .iter()
                .find(|c| c.tid == Tid(t))
                .unwrap_or_else(|| panic!("ι{t} should be a cause"))
        };
        // ι6 was counterfactual in Example 7.1; the second component now
        // also needs breaking, so ρ drops to ½ — likewise for ι7/ι8, whose
        // contingency must break the first component (delete ι6).
        for t in [6, 7, 8] {
            assert_eq!(by_tid(t).responsibility, 0.5, "ι{t}");
        }
        for t in [1, 3, 4] {
            assert_eq!(by_tid(t).responsibility, 1.0 / 3.0, "ι{t}");
        }
        assert_eq!(causes.len(), 6);
        for c in &causes {
            // Monolithic reference search on the same graph: equal ρ and
            // |Γ| (the Γ witness itself may legitimately differ).
            let (rho, gamma) = responsibility_in_graph(&graph, c.tid);
            assert_eq!(c.responsibility, rho, "ι{}", c.tid.0);
            assert_eq!(c.min_contingency.len(), gamma.len(), "ι{}", c.tid.0);
            // The factored Γ is a genuine contingency witness: Q survives
            // D ∖ Γ and dies in D ∖ (Γ ∪ {τ}).
            let holds = |excluded: &BTreeSet<Tid>| {
                cqa_query::holds_ucq(
                    &DeltaView::new(&db, excluded, &[]),
                    &u,
                    NullSemantics::Structural,
                )
            };
            assert!(holds(&c.min_contingency), "ι{}", c.tid.0);
            let mut with_tid = c.min_contingency.clone();
            with_tid.insert(c.tid);
            assert!(!holds(&with_tid), "ι{}", c.tid.0);
        }
    }

    #[test]
    fn datalog_style_causality_via_generic_path() {
        // Reachability 1→3 over edges; each edge on the unique path is a
        // counterfactual cause.
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("E", ["From", "To"]))
            .unwrap();
        db.insert("E", tuple![1, 2]).unwrap();
        db.insert("E", tuple![2, 3]).unwrap();
        db.insert("E", tuple![9, 9]).unwrap(); // irrelevant
        let program =
            cqa_query::parse_program("Path(x, y) :- E(x, y).\nPath(x, z) :- E(x, y), Path(y, z).")
                .unwrap();
        let goal = parse_query("Q() :- Path(1, 3)").unwrap();
        let holds = |d: &dyn Facts| {
            // Datalog evaluation wants an owned instance: snapshot the view.
            let out = program.evaluate(&d.snapshot()).unwrap();
            cqa_query::holds(&out, &goal, NullSemantics::Structural)
        };
        let causes = actual_causes_monotone(&db, &holds, None);
        assert_eq!(causes.len(), 2);
        assert!(causes.iter().all(|c| c.counterfactual));
    }
}
