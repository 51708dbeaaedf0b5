//! A definition-level oracle for consistent query answering (PAPER.md
//! §3–4). Repairs are taken as the maximal consistent subsets of the
//! instance, Bertossi–Schwind's characterization (cs/0211042), and C-repairs
//! as the largest ones. On random instances of at most eight facts the
//! oracle enumerates every subset and checks Σ by evaluating each denial
//! body directly under SQL null semantics. It uses no conflict hyper-graph,
//! hitting sets, repair views or plan cache. Certain, possible, IAR and
//! aggregate-range answers then follow from their definitions, and the
//! library's CQA entry points (AR answers and `cqa-cleaning`'s quality
//! answers included), the planner and every read of a `CqaSession` —
//! before the first write and after each write of a random write sequence —
//! are compared with them by content. The session keeps
//! each conflict component's graph, with its cached block shape, across the
//! writes that do not touch it, so a shape a write should have dropped
//! fails here.
//!
//! The cases reach both routes a component's repair family takes: key
//! groups are block-shaped and read off their classes, while the `R(x, y),
//! S(y)` denial joins key groups into paths such as s₁–r₁–r₂–s₂ that the
//! hitting-set search answers. The library test counts both kinds.
//!
//! Under random step budgets and a born-expired deadline, every budgeted
//! library route and every session read is checked against the same
//! definitions: an exact outcome equals them, a truncated certain set is a
//! subset of the certain answers, a truncated possible set a superset of
//! the possible answers for a monotone query (every class here repairs by
//! deletions only, where the entries promise `Q(D)`) and a subset
//! otherwise, and a truncated listing holds definition repairs only. That
//! test counts the instances with zero, one and several conflict
//! components it reaches, since a budgeted denial-class read folds per
//! component at any count.
//!
//! The answers the witness-slice fold builds are ids of interned head keys.
//! The queries include a union whose disjuncts share answers, so that one
//! answer reached through two disjuncts must take one id, and a constant
//! head term; in every other case `R`'s key column holds strings, so that
//! answers resolve through the dictionary.

use cqa_cleaning::{quality_answers, quality_answers_with_threshold};
use cqa_constraints::{ConstraintSet, DenialConstraint, KeyConstraint};
use cqa_core::{
    answer_consistently, answer_consistently_budgeted, ar_answers, c_repairs, c_repairs_budgeted,
    certainly_true, consistent_aggregate_range, consistent_aggregate_ranges, consistent_answers,
    consistent_answers_budgeted, iar_answers, possible_answers, possible_answers_budgeted,
    s_repairs, s_repairs_budgeted, CqaSession, RepairClass, RepairOptions,
};
use cqa_exec::{Budget, Outcome};
use cqa_query::{
    eval_aggregate, eval_ucq, holds, parse_query, parse_ucq, AggOp, AggregateQuery, NullSemantics,
    UnionQuery,
};
use cqa_relation::{Database, RelationSchema, Tid, Tuple, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Random instances per test. One debug-build run of this file takes
/// about ten seconds on two cores.
const CASES: u64 = 100;

type Fact = (String, Tuple);

/// A value from `{0, 1, 2, NULL}`.
fn value(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..4) {
        3 => Value::NULL,
        v => Value::Int(v),
    }
}

/// A key of `R`: a value, as a string `kᵢ` when the case keys `R` by
/// strings. It draws from `rng` exactly as [`value`] does.
fn key(rng: &mut SmallRng, strings: bool) -> Value {
    match value(rng) {
        Value::Int(i) if strings => Value::str(format!("k{i}")),
        v => v,
    }
}

/// Does case `seed` key `R` by strings? Every other case does.
fn string_keys(seed: u64) -> bool {
    seed % 2 == 1
}

fn fact(rng: &mut SmallRng, strings: bool) -> Fact {
    if rng.gen_bool(0.7) {
        ("R".into(), Tuple::new([key(rng, strings), value(rng)]))
    } else {
        ("S".into(), Tuple::new([value(rng)]))
    }
}

/// An instance of `R(K, V)` and `S(W)` holding exactly `facts`.
fn instance<'a>(facts: impl IntoIterator<Item = &'a Fact>) -> Database {
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("R", ["K", "V"]))
        .unwrap();
    db.create_relation(RelationSchema::new("S", ["W"])).unwrap();
    for (relation, tuple) in facts {
        db.insert(relation, tuple.clone()).unwrap();
    }
    db
}

/// Case `seed`: at most eight distinct facts under `key R(K)`, with the
/// denial `R(x, y), S(y)` half of the time.
fn case(seed: u64) -> (Vec<Fact>, ConstraintSet) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut facts: Vec<Fact> = Vec::new();
    for _ in 0..rng.gen_range(1..9) {
        let f = fact(&mut rng, string_keys(seed));
        if !facts.contains(&f) {
            facts.push(f);
        }
    }
    let mut sigma = ConstraintSet::from_iter([KeyConstraint::new("R", ["K"])]);
    if rng.gen_bool(0.5) {
        sigma.push(DenialConstraint::parse("rs", "R(x, y), S(y)").unwrap());
    }
    (facts, sigma)
}

/// The repairs of one instance, by definition.
struct Oracle {
    /// The S-repairs: the maximal consistent subsets.
    s_repairs: Vec<BTreeSet<Fact>>,
    /// The C-repairs: the largest consistent subsets.
    c_repairs: Vec<BTreeSet<Fact>>,
}

impl Oracle {
    fn new(db: &Database, sigma: &ConstraintSet) -> Oracle {
        let facts: Vec<Fact> = db
            .facts()
            .map(|(relation, _, tuple)| (relation.to_string(), tuple.clone()))
            .collect();
        let denials = sigma.all_denials(db).unwrap();
        let subset = |mask: u32| -> BTreeSet<Fact> {
            facts
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, f)| f.clone())
                .collect()
        };
        let consistent: Vec<u32> = (0..1u32 << facts.len())
            .filter(|&mask| {
                let d = instance(&subset(mask));
                denials
                    .iter()
                    .all(|dc| !holds(&d, dc.body(), NullSemantics::Sql))
            })
            .collect();
        let maximal = consistent
            .iter()
            .filter(|&&m| !consistent.iter().any(|&o| o != m && o & m == m));
        let largest = consistent.iter().map(|m| m.count_ones()).max();
        let c_repairs = consistent
            .iter()
            .filter(|m| Some(m.count_ones()) == largest);
        Oracle {
            s_repairs: maximal.map(|&m| subset(m)).collect(),
            c_repairs: c_repairs.map(|&m| subset(m)).collect(),
        }
    }

    fn repairs(&self, class: &RepairClass) -> Vec<Database> {
        let family = match class {
            RepairClass::Cardinality => &self.c_repairs,
            _ => &self.s_repairs,
        };
        family.iter().map(instance).collect()
    }

    /// The facts every S-repair keeps.
    fn core(&self) -> Database {
        let mut core = self.s_repairs.first().cloned().unwrap_or_default();
        for r in &self.s_repairs {
            core.retain(|f| r.contains(f));
        }
        instance(&core)
    }
}

/// `Q(D')` under SQL semantics, without the answers that hold a null.
fn answers(db: &Database, q: &UnionQuery) -> BTreeSet<Tuple> {
    eval_ucq(db, q, NullSemantics::Sql)
        .into_iter()
        .filter(|t| !t.has_null())
        .collect()
}

fn certain(repairs: &[Database], q: &UnionQuery) -> BTreeSet<Tuple> {
    let mut per_repair = repairs.iter().map(|r| answers(r, q));
    let first = per_repair.next().unwrap_or_default();
    per_repair.fold(first, |acc, here| &acc & &here)
}

fn possible(repairs: &[Database], q: &UnionQuery) -> BTreeSet<Tuple> {
    repairs.iter().flat_map(|r| answers(r, q)).collect()
}

/// The scalar aggregate over one repair: a count over no rows is 0, and
/// any other aggregate over no rows has no value.
fn scalar(db: &Database, agg: &AggregateQuery) -> Option<Value> {
    let value = eval_aggregate(db, agg, NullSemantics::Sql)
        .into_values()
        .next();
    match agg.op {
        AggOp::Count | AggOp::CountDistinct => Some(value.unwrap_or(Value::Int(0))),
        _ => value,
    }
}

/// Range semantics: the least and greatest value over the repairs, or none
/// when some repair has no value.
fn range(repairs: &[Database], agg: &AggregateQuery) -> Option<(Value, Value)> {
    let values = repairs
        .iter()
        .map(|r| scalar(r, agg))
        .collect::<Option<Vec<Value>>>()?;
    Some((values.iter().min()?.clone(), values.iter().max()?.clone()))
}

/// Grouped range semantics over the groups present in every repair.
fn ranges(repairs: &[Database], agg: &AggregateQuery) -> BTreeMap<Tuple, (Value, Value)> {
    let per_repair: Vec<_> = repairs
        .iter()
        .map(|r| eval_aggregate(r, agg, NullSemantics::Sql))
        .collect();
    let Some(first) = per_repair.first() else {
        return BTreeMap::new();
    };
    first
        .keys()
        .filter_map(|group| {
            let values = per_repair
                .iter()
                .map(|r| r.get(group))
                .collect::<Option<Vec<&Value>>>()?;
            let lo = (*values.iter().min()?).clone();
            let hi = (*values.iter().max()?).clone();
            Some((group.clone(), (lo, hi)))
        })
        .collect()
}

/// A full row, a projection on each column, a join with `S`, a self-join
/// on `V` whose witnesses span key groups, a negated `S` atom, a union
/// whose disjuncts share answers (`V` and `W` range over the same values),
/// and a constant head term.
fn queries() -> Vec<(&'static str, UnionQuery)> {
    [
        "Q(x, y) :- R(x, y)",
        "Q(x) :- R(x, y)",
        "Q(y) :- R(x, y)",
        "Q(w) :- S(w)",
        "Q(x) :- R(x, y), S(y)",
        "Q(x, z) :- R(x, y), R(z, y)",
        "Q(x) :- R(x, y), not S(y)",
        "Q(y) :- R(x, y)\nQ(w) :- S(w)",
        "Q(x, 7) :- R(x, y)",
    ]
    .into_iter()
    .map(|text| (text, parse_ucq(text).unwrap()))
    .collect()
}

fn boolean_queries() -> Vec<(&'static str, UnionQuery)> {
    [
        "Q() :- R(x, y)",
        "Q() :- R(x, 1)",
        "Q() :- R(x, y), S(y)",
        "Q() :- R(x, y), not S(y)",
    ]
    .into_iter()
    .map(|text| (text, UnionQuery::single(parse_query(text).unwrap())))
    .collect()
}

/// A count, a sum and a max over `R`, scalar and grouped by `K`.
fn aggregates(grouped: bool) -> Vec<AggregateQuery> {
    [AggOp::Count, AggOp::Sum, AggOp::Max]
        .into_iter()
        .map(|op| {
            let body = parse_query("Q() :- R(k, v)").unwrap();
            let (k, v) = (body.vars.lookup("k"), body.vars.lookup("v"));
            AggregateQuery {
                group_by: if grouped {
                    k.into_iter().collect()
                } else {
                    vec![]
                },
                target: if op == AggOp::Count { None } else { v },
                op,
                body,
            }
        })
        .collect()
}

const CLASSES: [RepairClass; 3] = [
    RepairClass::Subset,
    RepairClass::SubsetDeletionsOnly,
    RepairClass::Cardinality,
];

fn contents(repairs: Vec<cqa_core::Repair>) -> BTreeSet<BTreeSet<Fact>> {
    repairs.iter().map(|r| r.db().content_set()).collect()
}

#[test]
fn library_routes_match_the_definitions() {
    let unlimited = Budget::unlimited;
    let (mut blocks, mut searched) = (0, 0);
    for seed in 0..CASES {
        let (facts, sigma) = case(seed);
        let db = instance(&facts);
        let oracle = Oracle::new(&db, &sigma);
        let ctx = format!("case {seed}: {facts:?} under {sigma:?}");
        for c in &sigma
            .conflict_hypergraph(&db)
            .unwrap()
            .components()
            .components
        {
            if c.graph().is_block_shaped() {
                blocks += 1;
            } else {
                searched += 1;
            }
        }
        assert_eq!(
            contents(s_repairs(&db, &sigma).unwrap()),
            oracle.s_repairs.iter().cloned().collect(),
            "S-repairs, {ctx}"
        );
        assert_eq!(
            contents(c_repairs(&db, &sigma).unwrap()),
            oracle.c_repairs.iter().cloned().collect(),
            "C-repairs, {ctx}"
        );
        let core = oracle.core();
        let subset = oracle.repairs(&RepairClass::Subset);
        for (text, q) in queries() {
            let iar = iar_answers(&db, &sigma, &q).unwrap();
            assert_eq!(iar, answers(&core, &q), "IAR {text}, {ctx}");
            let ar = ar_answers(&db, &sigma, &q).unwrap();
            assert_eq!(ar, certain(&subset, &q), "AR {text}, {ctx}");
            // The core is inside every repair, so only a negated atom can
            // give the core an answer some repair lacks.
            if monotone(&q) {
                assert!(iar.is_subset(&ar), "IAR ⊆ AR {text}, {ctx}");
            }
        }
        for class in &CLASSES {
            let repairs = oracle.repairs(class);
            for (text, q) in queries() {
                let want = (certain(&repairs, &q), possible(&repairs, &q));
                let ctx = format!("{text}, {class:?}, {ctx}");
                let got = (
                    consistent_answers(&db, &sigma, &q, class).unwrap(),
                    possible_answers(&db, &sigma, &q, class).unwrap(),
                );
                assert_eq!(got, want, "certain and possible, {ctx}");
                let budgeted = (
                    consistent_answers_budgeted(&db, &sigma, &q, class, &unlimited()).unwrap(),
                    possible_answers_budgeted(&db, &sigma, &q, class, &unlimited()).unwrap(),
                );
                assert!(budgeted.0.is_exact() && budgeted.1.is_exact(), "{ctx}");
                let budgeted = (budgeted.0.into_value(), budgeted.1.into_value());
                assert_eq!(budgeted, want, "budgeted certain and possible, {ctx}");
                let quality = quality_answers(&db, &sigma, &q, class).unwrap();
                assert_eq!(quality, want.0, "quality answers, {ctx}");
                let everywhere: BTreeSet<Tuple> =
                    quality_answers_with_threshold(&db, &sigma, &q, class, 1.0)
                        .unwrap()
                        .into_iter()
                        .map(|(t, fraction)| {
                            assert_eq!(fraction, 1.0, "{t} at threshold 1, {ctx}");
                            t
                        })
                        .collect();
                assert_eq!(everywhere, want.0, "quality answers at threshold 1, {ctx}");
            }
            for (text, q) in boolean_queries() {
                let want = repairs.iter().all(|r| !answers(r, &q).is_empty());
                let got = certainly_true(&db, &sigma, &q, class).unwrap();
                assert_eq!(got, want, "certainly true {text}, {class:?}, {ctx}");
            }
            for agg in aggregates(false) {
                let got = consistent_aggregate_range(&db, &sigma, &agg, class).unwrap();
                let want = range(&repairs, &agg);
                assert_eq!(got, want, "{:?} range, {class:?}, {ctx}", agg.op);
            }
            for agg in aggregates(true) {
                let got = consistent_aggregate_ranges(&db, &sigma, &agg, class).unwrap();
                let want = ranges(&repairs, &agg);
                assert_eq!(got, want, "grouped {:?} ranges, {class:?}, {ctx}", agg.op);
            }
        }
    }
    assert!(
        blocks > 0 && searched > 0,
        "the cases reach {blocks} block-shaped and {searched} searched components"
    );
}

/// Every read of `session` against the definitions over its instance: the
/// planned certain answers, certain answers under the C-repairs, possible
/// answers under the S- and C-repairs, the S- and C-repair lists as sets,
/// and an S-repair listing cut at `limit`, which holds `min(limit, n)`
/// definition repairs.
fn check_session_reads(session: &mut CqaSession, sigma: &ConstraintSet, limit: usize, ctx: &str) {
    let budget = Budget::unlimited();
    let oracle = Oracle::new(session.db(), sigma);
    let subset = oracle.repairs(&RepairClass::Subset);
    let card = oracle.repairs(&RepairClass::Cardinality);
    for (text, q) in queries() {
        let planned = session.certain(&q, &budget).unwrap().into_value();
        assert_eq!(
            planned.answers,
            certain(&subset, &q),
            "session {text} via {:?}, {ctx}",
            planned.strategy
        );
        let got = session
            .certain_with_class(&q, &RepairClass::Cardinality, &budget)
            .unwrap();
        assert_eq!(
            got.into_value(),
            certain(&card, &q),
            "session C-certain {text}, {ctx}"
        );
        for (class, repairs) in [
            (RepairClass::Subset, &subset),
            (RepairClass::Cardinality, &card),
        ] {
            let got = session.possible(&q, &class, &budget).unwrap().into_value();
            assert_eq!(
                got,
                possible(repairs, &q),
                "session {class:?} possible {text}, {ctx}"
            );
        }
    }
    for (class, family) in [
        (RepairClass::Subset, &oracle.s_repairs),
        (RepairClass::Cardinality, &oracle.c_repairs),
    ] {
        let got = session.repairs(&class, None, &budget).unwrap().into_value();
        assert_eq!(
            contents(got),
            family.iter().cloned().collect(),
            "session {class:?} repairs, {ctx}"
        );
    }
    let listed = session
        .repairs(&RepairClass::Subset, Some(limit), &budget)
        .unwrap()
        .into_value();
    assert_eq!(
        listed.len(),
        limit.min(oracle.s_repairs.len()),
        "session repairs cut at {limit}, {ctx}"
    );
    for repair in contents(listed) {
        assert!(
            oracle.s_repairs.contains(&repair),
            "session repairs cut at {limit} list {repair:?}, {ctx}"
        );
    }
}

/// Facts for a session that starts with two or three conflicting key
/// groups of two `R` facts, so that its reads take the factored routes,
/// plus up to two facts of `case`'s kind.
fn grouped_facts(rng: &mut SmallRng, strings: bool) -> Vec<Fact> {
    let mut facts: Vec<Fact> = Vec::new();
    for k in 0..rng.gen_range(2..4) {
        let v = rng.gen_range(0..3);
        let k = if strings {
            Value::str(format!("k{k}"))
        } else {
            Value::Int(k)
        };
        for w in [v, (v + 1 + rng.gen_range(0..2)) % 3] {
            facts.push(("R".into(), Tuple::new([k.clone(), Value::Int(w)])));
        }
    }
    for _ in 0..rng.gen_range(0..3) {
        let f = fact(rng, strings);
        if !facts.contains(&f) {
            facts.push(f);
        }
    }
    facts
}

/// A warm session over `db` under up to four random writes: an insert, an
/// insert into an existing key group, a delete or a one-cell update, which
/// may collide with an existing fact and shrink the set. Every read runs
/// before the first write, which fills the component graphs' cached
/// shapes, and after each write. `strings` is whether the case keys `R` by
/// strings.
fn check_session(
    rng: &mut SmallRng,
    db: &Database,
    sigma: &ConstraintSet,
    strings: bool,
    ctx: &str,
) {
    let mut session = CqaSession::new(db.clone(), sigma.clone()).unwrap();
    let budget = Budget::unlimited();
    check_session_reads(&mut session, sigma, rng.gen_range(1..4), ctx);
    let mut writes: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(1..5) {
        let tids: Vec<Tid> = session.db().tids().into_iter().collect();
        let keys: Vec<Value> = session
            .db()
            .facts()
            .filter(|(relation, _, _)| *relation == "R")
            .map(|(_, _, tuple)| tuple.at(0).clone())
            .collect();
        let write = match rng.gen_range(0..4) {
            0 if !tids.is_empty() => {
                let victim = tids[rng.gen_range(0..tids.len())];
                session.delete(victim, &budget).unwrap();
                format!("delete {victim:?}")
            }
            1 if !tids.is_empty() => {
                let target = tids[rng.gen_range(0..tids.len())];
                let arity = session.db().get(target).unwrap().1.arity();
                let position = rng.gen_range(0..arity);
                let v = value(rng);
                session
                    .update(target, position, v.clone(), &budget)
                    .unwrap();
                format!("update {target:?}[{position}] := {v:?}")
            }
            2 if !keys.is_empty() => {
                // A fact joining an existing key group: its conflict
                // component grows and keeps its smallest tid.
                let key = keys[rng.gen_range(0..keys.len())].clone();
                let tuple = Tuple::new([key, value(rng)]);
                session.insert("R", tuple.clone(), &budget).unwrap();
                format!("insert R{tuple}")
            }
            _ => {
                // Inserting a fact already present is a no-op.
                let (relation, tuple) = fact(rng, strings);
                session.insert(&relation, tuple.clone(), &budget).unwrap();
                format!("insert {relation}{tuple}")
            }
        };
        writes.push(write);
        let limit = rng.gen_range(1..4);
        check_session_reads(
            &mut session,
            sigma,
            limit,
            &format!("after {writes:?}, {ctx}"),
        );
    }
}

#[test]
fn planner_and_sessions_match_the_definitions() {
    for seed in 0..CASES {
        let (facts, sigma) = case(seed);
        let db = instance(&facts);
        let repairs = Oracle::new(&db, &sigma).repairs(&RepairClass::Subset);
        let ctx = format!("case {seed}: {facts:?} under {sigma:?}");
        for (text, q) in queries() {
            let planned = answer_consistently(&db, &sigma, &q).unwrap();
            assert_eq!(
                planned.answers,
                certain(&repairs, &q),
                "planner {text} via {:?}, {ctx}",
                planned.strategy
            );
        }
        // Sessions over the case's instance and over one with several
        // conflicting key groups.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e55_1011);
        let strings = string_keys(seed);
        check_session(&mut rng, &db, &sigma, strings, &ctx);
        let grouped = grouped_facts(&mut rng, strings);
        let ctx = format!("grouped case {seed}: {grouped:?} under {sigma:?}");
        check_session(&mut rng, &instance(&grouped), &sigma, strings, &ctx);
    }
}

/// What [`truncated_outcomes_match_the_definitions`] reached: the exact and
/// truncated outcomes it checked, and the instances its budgeted routes
/// read, by conflict-component count (zero, one, several).
#[derive(Default)]
struct Reached {
    exact: usize,
    truncated: usize,
    components: [usize; 3],
}

impl Reached {
    /// Count `db` by its conflict-component count.
    fn instance(&mut self, db: &Database, sigma: &ConstraintSet) {
        let graph = sigma.conflict_hypergraph(db).unwrap();
        let count = graph.components().components.len();
        if let Some(slot) = self.components.get_mut(count.min(2)) {
            *slot += 1;
        }
    }

    /// An answer set against the definition's `want`: equal when exact;
    /// when truncated, a superset if `over` and a subset otherwise.
    fn answers(
        &mut self,
        got: &Outcome<BTreeSet<Tuple>>,
        want: &BTreeSet<Tuple>,
        over: bool,
        ctx: &str,
    ) {
        let got_set = got.value();
        if got.is_exact() {
            self.exact += 1;
            assert_eq!(got_set, want, "exact {ctx}");
        } else if over {
            self.truncated += 1;
            assert!(
                got_set.is_superset(want),
                "truncated {ctx}: {got_set:?} misses some of {want:?}"
            );
        } else {
            self.truncated += 1;
            assert!(
                got_set.is_subset(want),
                "truncated {ctx}: {got_set:?} is not within {want:?}"
            );
        }
    }

    /// A repair listing against the definition's `family`: every listed
    /// repair is one of it; an exact listing holds all of it, or
    /// `min(limit, |family|)` of it under a `limit`.
    fn listing(
        &mut self,
        got: Outcome<Vec<cqa_core::Repair>>,
        family: &[BTreeSet<Fact>],
        limit: Option<usize>,
        ctx: &str,
    ) {
        let exact = got.is_exact();
        let count = got.value().len();
        let listed = contents(got.into_value());
        for repair in &listed {
            assert!(family.contains(repair), "{ctx} lists {repair:?}");
        }
        if exact {
            self.exact += 1;
            match limit {
                None => assert_eq!(count, family.len(), "exact {ctx}"),
                Some(l) => assert_eq!(count, l.min(family.len()), "exact {ctx}"),
            }
            assert_eq!(listed.len(), count, "{ctx} lists a repair twice");
        } else {
            self.truncated += 1;
        }
    }
}

/// Does `q` read no negated atom?
fn monotone(q: &UnionQuery) -> bool {
    q.disjuncts.iter().all(|cq| cq.negated.is_empty())
}

/// Every budgeted library route over one instance under `budget`, against
/// the definitions.
fn check_library_budgeted(
    reached: &mut Reached,
    db: &Database,
    sigma: &ConstraintSet,
    budget: &dyn Fn() -> Budget,
    ctx: &str,
) {
    reached.instance(db, sigma);
    let oracle = Oracle::new(db, sigma);
    for class in &CLASSES {
        let repairs = oracle.repairs(class);
        for (text, q) in queries() {
            let ctx = format!("{text}, {class:?}, {ctx}");
            let got = consistent_answers_budgeted(db, sigma, &q, class, &budget()).unwrap();
            reached.answers(
                &got,
                &certain(&repairs, &q),
                false,
                &format!("certain {ctx}"),
            );
            let got = possible_answers_budgeted(db, sigma, &q, class, &budget()).unwrap();
            let over = monotone(&q);
            reached.answers(
                &got,
                &possible(&repairs, &q),
                over,
                &format!("possible {ctx}"),
            );
        }
    }
    let subset = oracle.repairs(&RepairClass::Subset);
    for (text, q) in queries() {
        let planned = answer_consistently_budgeted(db, sigma, &q, &budget())
            .unwrap()
            .map(|p| p.answers);
        reached.answers(
            &planned,
            &certain(&subset, &q),
            false,
            &format!("planner {text}, {ctx}"),
        );
    }
    let base = Arc::new(db.clone());
    for limit in [None, Some(1), Some(2)] {
        let options = RepairOptions {
            limit,
            ..RepairOptions::default()
        };
        let got = s_repairs_budgeted(&base, sigma, &options, &budget()).unwrap();
        reached.listing(
            got,
            &oracle.s_repairs,
            limit,
            &format!("S-repairs {limit:?}, {ctx}"),
        );
    }
    let got = c_repairs_budgeted(&base, sigma, &RepairOptions::default(), &budget()).unwrap();
    reached.listing(got, &oracle.c_repairs, None, &format!("C-repairs, {ctx}"));
}

/// Every read of a fresh session over `db` under `budget`, against the
/// definitions.
fn check_session_budgeted(
    reached: &mut Reached,
    db: &Database,
    sigma: &ConstraintSet,
    budget: &dyn Fn() -> Budget,
    ctx: &str,
) {
    reached.instance(db, sigma);
    let mut session = CqaSession::new(db.clone(), sigma.clone()).unwrap();
    let oracle = Oracle::new(db, sigma);
    let subset = oracle.repairs(&RepairClass::Subset);
    let card = oracle.repairs(&RepairClass::Cardinality);
    for (text, q) in queries() {
        let ctx = format!("session {text}, {ctx}");
        let planned = session.certain(&q, &budget()).unwrap().map(|p| p.answers);
        reached.answers(
            &planned,
            &certain(&subset, &q),
            false,
            &format!("certain {ctx}"),
        );
        let got = session
            .certain_with_class(&q, &RepairClass::Cardinality, &budget())
            .unwrap();
        reached.answers(
            &got,
            &certain(&card, &q),
            false,
            &format!("C-certain {ctx}"),
        );
        for (class, repairs) in [
            (RepairClass::Subset, &subset),
            (RepairClass::Cardinality, &card),
        ] {
            let got = session.possible(&q, &class, &budget()).unwrap();
            let want = possible(repairs, &q);
            let ctx = format!("{class:?} possible {ctx}");
            reached.answers(&got, &want, monotone(&q), &ctx);
        }
    }
    for limit in [None, Some(2)] {
        let got = session
            .repairs(&RepairClass::Subset, limit, &budget())
            .unwrap();
        let ctx = format!("session S-repairs {limit:?}, {ctx}");
        reached.listing(got, &oracle.s_repairs, limit, &ctx);
    }
    let got = session
        .repairs(&RepairClass::Cardinality, None, &budget())
        .unwrap();
    reached.listing(
        got,
        &oracle.c_repairs,
        None,
        &format!("session C-repairs, {ctx}"),
    );
}

#[test]
fn truncated_outcomes_match_the_definitions() {
    let mut reached = Reached::default();
    for seed in 0..CASES {
        let (facts, sigma) = case(seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0b0d_6e75);
        let steps = rng.gen_range(1..48);
        let grouped = grouped_facts(&mut rng, string_keys(seed));
        for (name, budget) in [
            (
                "steps",
                &(move || Budget::steps(steps)) as &dyn Fn() -> Budget,
            ),
            ("expired deadline", &|| Budget::deadline_ms(0)),
        ] {
            let ctx = format!("{name} {steps}, case {seed}: {facts:?} under {sigma:?}");
            check_library_budgeted(&mut reached, &instance(&facts), &sigma, budget, &ctx);
            check_session_budgeted(&mut reached, &instance(&facts), &sigma, budget, &ctx);
            let ctx = format!("{name} {steps}, grouped case {seed}: {grouped:?}");
            check_session_budgeted(&mut reached, &instance(&grouped), &sigma, budget, &ctx);
        }
    }
    let [zero, one, several] = reached.components;
    assert!(
        zero > 0 && one > 0 && several > 0,
        "the budgeted routes read {zero} instances with no conflict component, {one} with one \
         and {several} with several"
    );
    assert!(
        reached.exact > 0 && reached.truncated > 0,
        "{} exact and {} truncated outcomes",
        reached.exact,
        reached.truncated
    );
}
