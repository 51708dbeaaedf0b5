//! The experiment harness: regenerates every table/figure of DESIGN.md's
//! experiment index as printed tables (E-series: exact paper examples;
//! F-series: scaling shapes for the survey's complexity claims).
//!
//! Run with `cargo run --release --bin harness` (optionally
//! `harness F2 F4 …` to select experiments). Output is recorded in
//! EXPERIMENTS.md.

use cqa_bench::{dc_instance, key_conflict_instance, star_instance, timed, university_sources};
use cqa_constraints::{ConstraintSet, DenialConstraint, FunctionalDependency, KeyConstraint};
use cqa_core::RepairClass;
use cqa_query::{parse_program, parse_query, AggOp, AggregateQuery, NullSemantics, UnionQuery};
use cqa_relation::{tuple, Database, Facts, RelationSchema, Tuple};
use std::collections::BTreeSet;

fn main() {
    // `--threads N` configures the cqa-exec pool (1 = sequential); all
    // other arguments select experiments by name.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args: Vec<String> = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            let n: usize = it
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .expect("--threads expects a positive number");
            cqa_exec::set_threads(n);
        } else {
            args.push(a.to_uppercase());
        }
    }
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    println!("inconsistent-db experiment harness");
    println!("==================================");
    println!("threads: {}\n", cqa_exec::ExecConfig::current());

    if want("E") || args.is_empty() {
        e_series();
    }
    if want("F1") {
        f1_repair_explosion();
    }
    if want("F2") {
        f2_rewriting_vs_enumeration();
    }
    if want("F3") {
        f3_s_vs_c_repairs();
    }
    if want("F4") {
        f4_asp_overhead();
    }
    if want("F5") {
        f5_responsibility_scaling();
    }
    if want("F6") {
        f6_aggregate_cqa();
    }
    if want("F7") {
        f7_attr_vs_tuple();
    }
    if want("F8") {
        f8_inconsistency_measure();
    }
    if want("F9") {
        f9_grounding();
    }
    if want("F10") {
        f10_integration();
    }
    if want("F11") {
        f11_conp_query();
    }
    if want("F13") {
        f13_parallel_speedup();
    }
    if want("F14") {
        f14_views();
    }
    if want("F15") {
        f15_budgets();
    }
    if want("F16") {
        f16_components();
    }
    if want("F17") {
        f17_audit();
    }
    if want("F18") {
        f18_columnar_storage();
    }
    if want("F19") {
        f19_incremental_maintenance();
    }
    if want("F20") {
        f20_server();
    }
    if want("F21") {
        f21_plan_cache();
    }
}

/// E-series: one line per paper example, checked programmatically.
/// One E-series check: label + the closure asserting the paper's output.
type Check = (&'static str, Box<dyn Fn() -> bool>);

fn e_series() {
    println!("E-series: exact reproduction of the paper's examples");
    println!("----------------------------------------------------");
    let checks: Vec<Check> = vec![
        (
            "E1  Ex 2.1/2.2  residue rewriting -> {I1, I2}",
            Box::new(e1),
        ),
        (
            "E2  Ex 3.1/3.2  two S-repairs; Cons(Q) = {I1, I2}",
            Box::new(e2),
        ),
        ("E3  Ex 3.3/3.4  key repairs + SQL rewriting", Box::new(e3)),
        (
            "E4  Ex 3.5      3 stable models = 3 S-repairs",
            Box::new(e4),
        ),
        (
            "E5  Ex 4.1      Fig. 1 hypergraph; 4 S-, 3 C-repairs",
            Box::new(e5),
        ),
        (
            "E6  Ex 4.2      weak constraints -> C-repair {ι6}",
            Box::new(e6),
        ),
        ("E7  Ex 4.3      delete vs insert(I3, NULL)", Box::new(e7)),
        (
            "E8  Ex 4.4      attr repairs {ι6[1]}, {ι1[2], ι3[2]}",
            Box::new(e8),
        ),
        ("E9  Ex 5.1/5.2  GAV/LAV + global CQA", Box::new(e9)),
        (
            "E10 §6          CFD violated, FDs hold, cleaner fixes",
            Box::new(e10),
        ),
        (
            "E11 Ex 7.1      causes ρ: ι6=1, ι1=ι3=ι4=1/2",
            Box::new(e11),
        ),
        (
            "E12 Ex 7.2      causes via repair programs agree",
            Box::new(e12),
        ),
        (
            "E13 Ex 7.3      attribute causes ι6[1], ι1[2], ι3[2]",
            Box::new(e13),
        ),
        (
            "E14 Ex 7.4      responsibilities under ψ: 1, 0, 1/3",
            Box::new(e14),
        ),
    ];
    for (label, check) in checks {
        let (ok, secs) = timed(check);
        println!(
            "  [{}] {label}   ({:.1} ms)",
            if ok { "ok" } else { "FAIL" },
            secs * 1e3
        );
    }
    println!();
}

fn supply_db() -> (Database, ConstraintSet) {
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
    let sigma = ConstraintSet::from_iter([cqa_constraints::Tgd::parse(
        "ID",
        "Articles(z) :- Supply(x, y, z)",
    )
    .unwrap()]);
    (db, sigma)
}

fn rs_db() -> (Database, ConstraintSet) {
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
    let sigma =
        ConstraintSet::from_iter(
            [DenialConstraint::parse("kappa", "S(x), R(x, y), S(y)").unwrap()],
        );
    (db, sigma)
}

fn employee_db() -> (Database, ConstraintSet) {
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

fn e1() -> bool {
    let (db, sigma) = supply_db();
    let q = parse_query("Q(z) :- Supply(x, y, z)").unwrap();
    let rr = cqa_core::residue_rewrite(&q, &sigma).unwrap();
    cqa_query::eval_fo(&db, &rr.query, NullSemantics::Structural)
        == [tuple!["I1"], tuple!["I2"]].into()
}

fn e2() -> bool {
    let (db, sigma) = supply_db();
    let repairs = cqa_core::s_repairs(&db, &sigma).unwrap();
    let q = UnionQuery::single(parse_query("Q(z) :- Supply(x, y, z)").unwrap());
    let cons = cqa_core::consistent_answers(&db, &sigma, &q, &RepairClass::Subset).unwrap();
    repairs.len() == 2 && cons == [tuple!["I1"], tuple!["I2"]].into()
}

fn e3() -> bool {
    let (db, sigma) = employee_db();
    let q1 = UnionQuery::single(parse_query("Q(x, y) :- Employee(x, y)").unwrap());
    let cons = cqa_core::consistent_answers(&db, &sigma, &q1, &RepairClass::Subset).unwrap();
    let fo =
        cqa_query::parse_fo("x, y : Employee(x, y) & !exists z (Employee(x, z) & z != y)").unwrap();
    cons == cqa_query::eval_fo(&db, &fo, NullSemantics::Structural)
        && cons == [tuple!["smith", 3000], tuple!["stowe", 7000]].into()
}

fn e4() -> bool {
    let (db, sigma) = rs_db();
    let rp = cqa_asp::RepairProgram::build(&db, &sigma).unwrap();
    rp.s_repair_models().unwrap().len() == 3
}

fn e5() -> bool {
    let mut db = Database::new();
    for r in ["A", "B", "C", "D", "E"] {
        db.create_relation(RelationSchema::new(r, ["X"])).unwrap();
        db.insert(r, tuple!["a"]).unwrap();
    }
    let sigma = ConstraintSet::from_iter([
        DenialConstraint::parse("d1", "B(x), E(x)").unwrap(),
        DenialConstraint::parse("d2", "B(x), C(x), D(x)").unwrap(),
        DenialConstraint::parse("d3", "A(x), C(x)").unwrap(),
    ]);
    let g = sigma.conflict_hypergraph(&db).unwrap();
    g.maximal_independent_sets(None).len() == 4
        && cqa_core::c_repairs(&db, &sigma).unwrap().len() == 3
}

fn e6() -> bool {
    let (db, sigma) = rs_db();
    let mut rp = cqa_asp::RepairProgram::build(&db, &sigma).unwrap();
    rp.add_c_repair_weak_constraints();
    let models = rp.c_repair_models().unwrap();
    models.len() == 1 && models[0].deleted == [cqa_relation::Tid(6)].into()
}

fn e7() -> bool {
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("Supply", ["C", "R", "I"]))
        .unwrap();
    db.create_relation(RelationSchema::new("Articles", ["I", "Cost"]))
        .unwrap();
    db.insert("Supply", tuple!["C2", "R1", "I3"]).unwrap();
    let sigma = ConstraintSet::from_iter([cqa_constraints::Tgd::parse(
        "IDp",
        "Articles(z, v) :- Supply(x, y, z)",
    )
    .unwrap()]);
    let repairs = cqa_core::null_tuple_repairs(&db, &sigma).unwrap();
    repairs.len() == 2
        && repairs.iter().any(|r| {
            r.repair
                .inserted
                .first()
                .is_some_and(|(_, t)| t.at(1).is_null())
        })
}

fn e8() -> bool {
    let (db, sigma) = rs_db();
    let repairs = cqa_core::attribute_repairs(&db, &sigma).unwrap();
    use cqa_core::attr_repair::CellChange;
    use cqa_relation::Tid;
    let sets: Vec<_> = repairs.iter().map(|r| r.changes.clone()).collect();
    sets.contains(
        &[CellChange {
            tid: Tid(6),
            position: 0,
        }]
        .into(),
    ) && sets.contains(
        &[
            CellChange {
                tid: Tid(1),
                position: 1,
            },
            CellChange {
                tid: Tid(3),
                position: 1,
            },
        ]
        .into(),
    )
}

fn e9() -> bool {
    let sources = university_sources(2, 1, 7);
    let views = parse_program(
        "Stds(x, y, 'cu', z) :- CUstds(x, y), SpecCU(x, z).\n\
         Stds(x, y, 'ou', z) :- OUstds(x, y), SpecOU(x, z).",
    )
    .unwrap();
    let system = cqa_integration::GlobalSystem::new(
        cqa_integration::GavMediator::new(sources, views),
        vec![RelationSchema::new(
            "Stds",
            ["Number", "Name", "Univ", "Field"],
        )],
        ConstraintSet::from_iter([FunctionalDependency::new("Stds", ["Number"], ["Name"])]),
    );
    !system.is_globally_consistent().unwrap()
        && !system
            .consistent_answers(
                &UnionQuery::single(parse_query("Q(x, y) :- Stds(x, y, u, z)").unwrap()),
                &RepairClass::Subset,
            )
            .unwrap()
            .is_empty()
}

fn e10() -> bool {
    let db = cqa_bench::cfd_customers(10, 0.9, 11);
    let cfd = cqa_constraints::ConditionalFd::new(
        "Cust",
        vec![("CC", Some(cqa_relation::Value::int(44))), ("Zip", None)],
        "Street",
        None,
    );
    let spec = cqa_cleaning::CleaningSpec::new().with_cfd(cfd);
    let result = cqa_cleaning::clean(&db, &spec, &cqa_cleaning::CostModel::uniform()).unwrap();
    spec.is_clean(&result.db).unwrap()
}

fn e11() -> bool {
    let (db, _) = rs_db();
    let q = UnionQuery::single(parse_query("Q() :- S(x), R(x, y), S(y)").unwrap());
    let causes = cqa_causality::actual_causes(&db, &q);
    causes.len() == 4
        && causes
            .iter()
            .find(|c| c.tid == cqa_relation::Tid(6))
            .is_some_and(|c| c.responsibility == 1.0)
}

fn e12() -> bool {
    let (db, _) = rs_db();
    let q = UnionQuery::single(parse_query("Q() :- S(x), R(x, y), S(y)").unwrap());
    let a = cqa_causality::causes_via_asp(&db, &q).unwrap();
    let d = cqa_causality::actual_causes(&db, &q);
    a.len() == d.len()
}

fn e13() -> bool {
    let (db, _) = rs_db();
    let q = UnionQuery::single(parse_query("Q() :- S(x), R(x, y), S(y)").unwrap());
    let causes = cqa_causality::attribute_causes(&db, &q).unwrap();
    causes
        .iter()
        .any(|c| c.cell.tid == cqa_relation::Tid(6) && c.counterfactual)
}

fn e14() -> bool {
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("Dep", ["DName", "TStaff"]))
        .unwrap();
    db.create_relation(RelationSchema::new("Course", ["CName", "TStaff", "DName"]))
        .unwrap();
    db.insert("Dep", tuple!["Computing", "John"]).unwrap();
    db.insert("Dep", tuple!["Philosophy", "Patrick"]).unwrap();
    db.insert("Dep", tuple!["Math", "Kevin"]).unwrap();
    db.insert("Course", tuple!["COM08", "John", "Computing"])
        .unwrap();
    db.insert("Course", tuple!["Math01", "Kevin", "Math"])
        .unwrap();
    db.insert("Course", tuple!["HIST02", "Patrick", "Philosophy"])
        .unwrap();
    db.insert("Course", tuple!["Math08", "Eli", "Math"])
        .unwrap();
    db.insert("Course", tuple!["COM01", "John", "Computing"])
        .unwrap();
    let psi = ConstraintSet::from_iter([cqa_constraints::Tgd::parse(
        "psi",
        "Course(u, y, x) :- Dep(x, y)",
    )
    .unwrap()]);
    let q_c = UnionQuery::single(parse_query("Q() :- Course(z, 'John', y)").unwrap());
    let causes = cqa_causality::causes_under_ics(&db, &psi, &q_c, None).unwrap();
    causes.len() == 2
        && causes
            .iter()
            .all(|c| (c.responsibility - 1.0 / 3.0).abs() < 1e-12)
}

// ---------------------------------------------------------------- F-series

/// Certain answers by their definition (§3.1): list every S-repair, then
/// fold the query over their views, one evaluation per repair.
fn per_repair_certain(db: &Database, sigma: &ConstraintSet, q: &UnionQuery) -> BTreeSet<Tuple> {
    let repairs = cqa_core::s_repairs(db, sigma).unwrap();
    let views: Vec<_> = repairs.iter().map(|r| r.view()).collect();
    cqa_core::certain_over(&views, q)
}

/// Possible answers the same way: the union over the listed S-repairs.
fn per_repair_possible(db: &Database, sigma: &ConstraintSet, q: &UnionQuery) -> BTreeSet<Tuple> {
    let repairs = cqa_core::s_repairs(db, sigma).unwrap();
    let views: Vec<_> = repairs.iter().map(|r| r.view()).collect();
    cqa_core::possible_over(&views, q)
}

fn f1_repair_explosion() {
    println!("F1: exponentially many repairs (§3.1)");
    println!("--------------------------------------");
    println!("  conflicts |   repairs | enumerate (ms)");
    for k in [2usize, 4, 6, 8, 10, 12] {
        let (db, sigma) = key_conflict_instance(50, k, 2, 1);
        let (repairs, secs) = timed(|| cqa_core::s_repairs(&db, &sigma).unwrap());
        println!("  {k:>9} | {:>9} | {:>12.2}", repairs.len(), secs * 1e3);
    }
    println!();
}

fn f2_rewriting_vs_enumeration() {
    println!("F2: FO rewriting vs repair enumeration (§3.2)");
    println!("---------------------------------------------");
    println!("  enumeration lists every S-repair and evaluates the query on each one");
    println!("  conflicts | rewriting (ms) | enumeration (ms) | equal");
    let q = parse_query("Q(k, v) :- T(k, v)").unwrap();
    let keys: cqa_core::rewrite::keys::KeyPositions = [("T".to_string(), vec![0usize])].into();
    for k in [2usize, 4, 6, 8, 10, 12] {
        let (db, sigma) = key_conflict_instance(500, k, 2, 2);
        let fo = cqa_core::rewrite_key_query(&q, &keys).unwrap();
        let (via_rw, t_rw) = timed(|| cqa_query::eval_fo(&db, &fo, NullSemantics::Structural));
        let (via_rep, t_rep) =
            timed(|| per_repair_certain(&db, &sigma, &UnionQuery::single(q.clone())));
        println!(
            "  {k:>9} | {:>14.2} | {:>16.2} | {}",
            t_rw * 1e3,
            t_rep * 1e3,
            via_rw == via_rep
        );
    }
    println!();
}

fn f3_s_vs_c_repairs() {
    println!("F3: one S-repair (greedy) vs C-repair (B&B) vs full enumeration (§4.1)");
    println!("-----------------------------------------------------------------------");
    println!("  |R| x |S| | edges | greedy-S (ms) | min-C (ms) | enumerate-all (ms) | #S");
    for (n_r, n_s, dom) in [(15, 8, 6), (25, 12, 8), (40, 16, 10)] {
        let (db, sigma) = dc_instance(n_r, n_s, dom, 3);
        let g = sigma.conflict_hypergraph(&db).unwrap();
        let (_, t_greedy) = timed(|| g.greedy_hitting_set());
        let (_, t_min) = timed(|| g.minimum_hitting_set_size());
        let (all, t_all) = timed(|| g.minimal_hitting_sets(None));
        println!(
            "  {:>4} x {:<3} | {:>5} | {:>13.3} | {:>10.3} | {:>18.2} | {}",
            n_r,
            n_s,
            g.edge_count(),
            t_greedy * 1e3,
            t_min * 1e3,
            t_all * 1e3,
            all.len()
        );
    }
    println!();
}

fn f4_asp_overhead() {
    println!("F4: repair programs vs direct engine (§3.3)");
    println!("-------------------------------------------");
    println!("  |R| x |S| | direct (ms) | ASP ground+solve (ms) | models == repairs");
    for (n_r, n_s, dom) in [(6, 4, 4), (10, 6, 5), (14, 8, 6)] {
        let (db, sigma) = dc_instance(n_r, n_s, dom, 4);
        let (direct, t_direct) = timed(|| cqa_core::s_repairs(&db, &sigma).unwrap());
        let (asp, t_asp) = timed(|| {
            let rp = cqa_asp::RepairProgram::build(&db, &sigma).unwrap();
            rp.s_repair_models().unwrap()
        });
        println!(
            "  {:>4} x {:<3} | {:>11.2} | {:>21.2} | {}",
            n_r,
            n_s,
            t_direct * 1e3,
            t_asp * 1e3,
            direct.len() == asp.len()
        );
        let rp = cqa_asp::RepairProgram::build(&db, &sigma).unwrap();
        let g = rp.ground().unwrap();
        println!(
            "             analysis: {}",
            cqa_asp::analyze_ground(&g).classification_line()
        );
    }
    println!();
}

fn f5_responsibility_scaling() {
    println!("F5: responsibility computation (§7)");
    println!("-----------------------------------");
    println!("  width | hub ρ | spoke ρ | direct (ms) | via repairs (ms)");
    for width in [2usize, 4, 8, 12, 16] {
        let db = star_instance(width);
        let q = UnionQuery::single(parse_query("Q() :- Hub(x), Spoke(x, y)").unwrap());
        let (direct, t_direct) = timed(|| cqa_causality::actual_causes(&db, &q));
        let (via, t_via) = timed(|| cqa_causality::causes_via_repairs(&db, &q).unwrap());
        let hub = direct
            .iter()
            .find(|c| c.tid == cqa_relation::Tid(1))
            .map(|c| c.responsibility)
            .unwrap_or(0.0);
        let spoke = direct
            .iter()
            .find(|c| c.tid == cqa_relation::Tid(2))
            .map(|c| c.responsibility)
            .unwrap_or(0.0);
        assert_eq!(direct.len(), via.len());
        println!(
            "  {width:>5} | {hub:>5.2} | {spoke:>7.3} | {:>11.2} | {:>16.2}",
            t_direct * 1e3,
            t_via * 1e3
        );
    }
    println!();
}

fn f6_aggregate_cqa() {
    println!("F6: aggregate CQA with range semantics (§3.2, [5])");
    println!("--------------------------------------------------");
    println!("  conflicts | glb SUM | lub SUM | width | time (ms)");
    for k in [1usize, 2, 4, 6, 8] {
        let (db, sigma) = key_conflict_instance(20, k, 2, 6);
        let body = parse_query("Q() :- T(k, v)").unwrap();
        let v = body.vars.lookup("v").unwrap();
        let agg = AggregateQuery {
            body,
            group_by: vec![],
            target: Some(v),
            op: AggOp::Sum,
        };
        let ((lo, hi), secs) = timed(|| {
            cqa_core::consistent_aggregate_range(&db, &sigma, &agg, &RepairClass::Subset)
                .unwrap()
                .unwrap()
        });
        let (lo_f, hi_f) = (lo.as_f64().unwrap(), hi.as_f64().unwrap());
        println!(
            "  {k:>9} | {lo_f:>7.0} | {hi_f:>7.0} | {:>5.0} | {:>9.2}",
            hi_f - lo_f,
            secs * 1e3
        );
    }
    println!();
}

fn f7_attr_vs_tuple() {
    println!("F7: attribute repairs change less than tuple repairs (§4.3)");
    println!("------------------------------------------------------------");
    println!("  |R| x |S| | avg tuples deleted (S) | avg cells nulled (attr)");
    for (n_r, n_s, dom) in [(8, 5, 4), (12, 6, 5), (16, 8, 6)] {
        let (db, sigma) = dc_instance(n_r, n_s, dom, 8);
        let s = cqa_core::s_repairs(&db, &sigma).unwrap();
        let a = cqa_core::attribute_repairs(&db, &sigma).unwrap();
        let avg_s = s.iter().map(|r| r.delta_size()).sum::<usize>() as f64 / s.len() as f64;
        let avg_a = a.iter().map(|r| r.changes.len()).sum::<usize>() as f64 / a.len() as f64;
        println!("  {n_r:>4} x {n_s:<3} | {avg_s:>22.2} | {avg_a:>23.2}");
    }
    println!();
}

fn f8_inconsistency_measure() {
    println!("F8: repair-based inconsistency degree (§8, [16, 17])");
    println!("-----------------------------------------------------");
    println!("  conflict pairs (of 20 groups) | degree | core gap");
    for dirty in [0usize, 2, 5, 10, 15, 20] {
        let (db, sigma) = key_conflict_instance(20 - dirty, dirty, 2, 9);
        let deg = cqa_core::inconsistency_degree(&db, &sigma).unwrap();
        let gap = cqa_core::core_gap(&db, &sigma).unwrap();
        println!("  {dirty:>29} | {deg:>6.3} | {gap:>8.3}");
    }
    println!();
}

fn f9_grounding() {
    println!("F9: grounding size and stable-model counts (§3.3)");
    println!("--------------------------------------------------");
    println!("  |R| x |S| | ground atoms | ground rules | models | ground (ms)");
    for (n_r, n_s, dom) in [(6, 4, 4), (12, 8, 6), (20, 12, 8), (30, 16, 10)] {
        let (db, sigma) = dc_instance(n_r, n_s, dom, 10);
        let rp = cqa_asp::RepairProgram::build(&db, &sigma).unwrap();
        let (g, t_ground) = timed(|| rp.ground().unwrap());
        let models = cqa_asp::stable_models_with_limit(&g, Some(2000));
        println!(
            "  {:>4} x {:<3} | {:>12} | {:>12} | {:>6} | {:>10.2}",
            n_r,
            n_s,
            g.atom_count(),
            g.rules.len(),
            models.len(),
            t_ground * 1e3
        );
        println!(
            "             analysis: {}",
            cqa_asp::analyze_ground(&g).classification_line()
        );
    }
    println!();
}

fn f10_integration() {
    println!("F10: GAV vs LAV mediation (§5)");
    println!("------------------------------");
    println!("  students/univ | GAV answer (ms) | LAV answer (ms) | GAV rows");
    for n in [50usize, 100, 200, 400] {
        let sources = university_sources(n, n / 10, 11);
        let views = parse_program(
            "Stds(x, y, 'cu', z) :- CUstds(x, y), SpecCU(x, z).\n\
             Stds(x, y, 'ou', z) :- OUstds(x, y), SpecOU(x, z).",
        )
        .unwrap();
        let gav = cqa_integration::GavMediator::new(sources.clone(), views);
        let q = UnionQuery::single(parse_query("Q(y) :- Stds(x, y, u, z)").unwrap());
        let (gav_ans, t_gav) = timed(|| gav.answer(&q).unwrap());
        let lav = cqa_integration::LavMediator::new(
            sources,
            vec![RelationSchema::new(
                "Stds",
                ["Number", "Name", "Univ", "Field"],
            )],
            vec![
                cqa_integration::LavMapping::parse("CUstds(x, y) :- Stds(x, y, 'cu', z)").unwrap(),
                cqa_integration::LavMapping::parse("OUstds(x, y) :- Stds(x, y, 'ou', z)").unwrap(),
            ],
        );
        let (_lav_ans, t_lav) = timed(|| lav.certain_answers(&q).unwrap());
        println!(
            "  {n:>13} | {:>15.2} | {:>15.2} | {:>8}",
            t_gav * 1e3,
            t_lav * 1e3,
            gav_ans.len()
        );
    }
    println!();
}

fn f13_parallel_speedup() {
    use cqa_exec::with_threads;
    println!("F13: parallel speedup — sequential vs 4 worker threads (cqa-exec)");
    println!("------------------------------------------------------------------");
    println!("  workload                       | seq (ms) | 4 thr (ms) | speedup | equal");

    // F1-shaped: certain answers by enumeration over 2^13 repairs.
    let (db, sigma) = key_conflict_instance(60, 13, 2, 1);
    let instances: Vec<cqa_relation::Database> = cqa_core::s_repairs(&db, &sigma)
        .unwrap()
        .into_iter()
        .map(|r| r.into_db())
        .collect();
    let q = UnionQuery::single(parse_query("Q(k, v) :- T(k, v)").unwrap());
    let (seq, t_seq) = timed(|| with_threads(1, || cqa_core::certain_over(&instances, &q)));
    let (par, t_par) = timed(|| with_threads(4, || cqa_core::certain_over(&instances, &q)));
    row("certain_over, 8192 repairs", t_seq, t_par, seq == par);

    // F3-shaped: minimal hitting sets of a dense conflict hypergraph.
    let (db, sigma) = dc_instance(40, 16, 10, 3);
    let g = sigma.conflict_hypergraph(&db).unwrap();
    let (seq, t_seq) = timed(|| with_threads(1, || g.minimal_hitting_sets(None)));
    let (par, t_par) = timed(|| with_threads(4, || g.minimal_hitting_sets(None)));
    row("minimal_hitting_sets, 40x16", t_seq, t_par, seq == par);
    let (seq, t_seq) = timed(|| with_threads(1, || g.minimum_hitting_set()));
    let (par, t_par) = timed(|| with_threads(4, || g.minimum_hitting_set()));
    row("minimum_hitting_set, 40x16", t_seq, t_par, seq == par);

    // F5-shaped: per-candidate responsibility over a wide star.
    let db = star_instance(16);
    let q = UnionQuery::single(parse_query("Q() :- Hub(x), Spoke(x, y)").unwrap());
    let (seq, t_seq) = timed(|| with_threads(1, || cqa_causality::actual_causes(&db, &q)));
    let (par, t_par) = timed(|| with_threads(4, || cqa_causality::actual_causes(&db, &q)));
    row("actual_causes, width 16", t_seq, t_par, seq == par);
    println!();

    fn row(label: &str, t_seq: f64, t_par: f64, equal: bool) {
        println!(
            "  {label:<30} | {:>8.2} | {:>10.2} | {:>6.2}x | {equal}",
            t_seq * 1e3,
            t_par * 1e3,
            t_seq / t_par
        );
    }
}

fn f14_views() {
    println!("F14: zero-clone repair views vs materialized enumeration");
    println!("---------------------------------------------------------");
    println!("  workload                          | materialized (ms) | views (ms) | speedup | view = materialized");

    fn row(label: &str, t_mat: f64, t_view: f64, equal: bool) {
        println!(
            "  {label:<33} | {:>17.2} | {:>10.2} | {:>6.2}x | {equal}",
            t_mat * 1e3,
            t_view * 1e3,
            t_mat / t_view
        );
    }

    // F1-shaped: enumerate 2^12 repairs of a 300-clean-tuple instance. The
    // seed materialized every repair inside `from_delta`; the view path
    // returns lazy deltas over one shared base.
    let (db, sigma) = key_conflict_instance(300, 12, 2, 1);
    let (mat, t_mat) = timed(|| {
        cqa_core::s_repairs(&db, &sigma)
            .unwrap()
            .into_iter()
            .map(|r| r.into_db())
            .collect::<Vec<Database>>()
    });
    let (lazy, t_view) = timed(|| cqa_core::s_repairs(&db, &sigma).unwrap());
    let equal = mat.len() == lazy.len()
        && mat
            .iter()
            .zip(&lazy)
            .all(|(m, r)| r.view().snapshot().same_content(m));
    row("F1 enumerate, 12 conf, 300 clean", t_mat, t_view, equal);

    // F2-shaped: certain answers over the same class, folded per repair —
    // per-repair joins probe the base's shared column indexes through the
    // views.
    let q = UnionQuery::single(parse_query("Q(k, v) :- T(k, v)").unwrap());
    let (ans_mat, t_mat) = timed(|| {
        let dbs: Vec<Database> = cqa_core::s_repairs(&db, &sigma)
            .unwrap()
            .into_iter()
            .map(|r| r.into_db())
            .collect();
        cqa_core::certain_over(&dbs, &q)
    });
    let (ans_view, t_view) = timed(|| per_repair_certain(&db, &sigma, &q));
    row(
        "F2 CQA, 12 conf, 300 clean",
        t_mat,
        t_view,
        ans_mat == ans_view,
    );

    // F3-shaped: denial-constraint instance; CQA folded over the
    // hitting-set repairs of a dense conflict hypergraph.
    let (db, sigma) = dc_instance(40, 16, 10, 3);
    let q = UnionQuery::single(parse_query("Q(x, y) :- R(x, y), S(y)").unwrap());
    let (ans_mat, t_mat) = timed(|| {
        let dbs: Vec<Database> = cqa_core::s_repairs(&db, &sigma)
            .unwrap()
            .into_iter()
            .map(|r| r.into_db())
            .collect();
        cqa_core::certain_over(&dbs, &q)
    });
    let (ans_view, t_view) = timed(|| per_repair_certain(&db, &sigma, &q));
    row(
        "F3 DC CQA, 40x16 dom 10",
        t_mat,
        t_view,
        ans_mat == ans_view,
    );
    println!();
}

fn f11_conp_query() {
    use cqa_core::rewrite::keys::{rewrite_key_query, KeyPositions, KeyRewriteError};
    println!("F11: coNP-complete CQA — the attack-cyclic query (§3.2, [48])");
    println!("--------------------------------------------------------------");
    let q = parse_query("Q() :- R(x, y), S(y, x)").unwrap();
    let keys: KeyPositions = [
        ("R".to_string(), vec![0usize]),
        ("S".to_string(), vec![0usize]),
    ]
    .into();
    match rewrite_key_query(&q, &keys) {
        Err(KeyRewriteError::CyclicAttackGraph { .. }) => {
            println!("  rewriting: refused (attack graph cyclic) — as the dichotomy demands")
        }
        other => println!("  UNEXPECTED: {other:?}"),
    }
    println!("  conflicts | repairs | enumeration CQA (ms)");
    for k in [2usize, 4, 6, 8] {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["A", "B"]))
            .unwrap();
        db.create_relation(RelationSchema::new("S", ["A", "B"]))
            .unwrap();
        for i in 0..k as i64 {
            db.insert("R", tuple![i, i]).unwrap();
            db.insert("R", tuple![i, i + 1]).unwrap();
            db.insert("S", tuple![i, i]).unwrap();
            db.insert("S", tuple![i + 1, 1_000 + i]).unwrap();
        }
        let sigma = ConstraintSet::from_iter([
            KeyConstraint::new("R", ["A"]),
            KeyConstraint::new("S", ["A"]),
        ]);
        let n_repairs = cqa_core::s_repairs(&db, &sigma).unwrap().len();
        let (certain, secs) = timed(|| {
            cqa_core::certainly_true(
                &db,
                &sigma,
                &UnionQuery::single(q.clone()),
                &RepairClass::Subset,
            )
            .unwrap()
        });
        println!(
            "  {k:>9} | {n_repairs:>7} | {:>19.2}  (certain: {certain})",
            secs * 1e3
        );
    }
    println!();
}

fn f15_budgets() {
    use cqa_exec::{with_threads, Budget, Limits, Outcome};
    println!("F15: graceful degradation under execution budgets (anytime CQA)");
    println!("----------------------------------------------------------------");
    println!("  workload: F11 attack-cyclic query plus an R atom over another key,");
    println!("  k = 12 key-conflict pairs: witnesses span the 12 conflict components,");
    println!("  so CQA must fold the query over all 2^12 = 4096 product repairs");

    // The F11 hard instance at k = 12 conflicts: every conflict pair lives
    // in R (S stays consistent), so the repair family is exactly 2^k.
    // Three tiers of answers separate the approximation levels: 3 clean
    // rows (provable from the consistent core alone), 6 conflict pairs
    // whose *both* branches witness the query (certain, but only the full
    // fold proves it), and 6 pairs where one branch kills the answer (not
    // certain). Exact = 9 answers; the truncated core fallback = 3. The
    // query's extra `R(u, v), u != x` atom holds in every repair (the clean
    // rows supply it) but joins each witness to tuples of other
    // components; without it the component fold would answer exactly from
    // one witness scan and no budget would ever cut it.
    let k = 12usize;
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("R", ["A", "B"]))
        .unwrap();
    db.create_relation(RelationSchema::new("S", ["A", "B"]))
        .unwrap();
    for i in 0..k as i64 {
        db.insert("R", tuple![i, i]).unwrap();
        db.insert("S", tuple![i, i]).unwrap();
        if i < 6 {
            db.insert("R", tuple![i, i + 100]).unwrap();
            db.insert("S", tuple![i + 100, i]).unwrap();
        } else {
            db.insert("R", tuple![i, i + 200]).unwrap();
        }
    }
    for i in 300..303i64 {
        db.insert("R", tuple![i, i]).unwrap();
        db.insert("S", tuple![i, i]).unwrap();
    }
    let sigma = ConstraintSet::from_iter([
        KeyConstraint::new("R", ["A"]),
        KeyConstraint::new("S", ["A"]),
    ]);
    let q = UnionQuery::single(parse_query("Q(x) :- R(x, y), S(y, x), R(u, v), u != x").unwrap());
    let class = RepairClass::Subset;

    println!("  budget            | outcome            | answers | time (ms)");
    let run = |budget: &Budget| {
        timed(|| cqa_core::consistent_answers_budgeted(&db, &sigma, &q, &class, budget).unwrap())
    };
    let describe =
        |o: &Outcome<std::collections::BTreeSet<cqa_relation::Tuple>>| match o.truncation() {
            None => "exact".to_string(),
            Some((reason, _)) => format!("truncated ({reason})"),
        };
    let (exact, t) = run(&Budget::unlimited());
    println!(
        "  {:<17} | {:<18} | {:>7} | {:>9.2}",
        "unlimited",
        describe(&exact),
        exact.value().len(),
        t * 1e3
    );
    for steps in [100_000u64, 10_000, 1_000, 100] {
        let (got, t) = run(&Budget::steps(steps));
        // Soundness: every truncated answer is a true certain answer.
        assert!(got.value().is_subset(exact.value()), "unsound truncation");
        println!(
            "  {:<17} | {:<18} | {:>7} | {:>9.2}",
            format!("steps = {steps}"),
            describe(&got),
            got.value().len(),
            t * 1e3
        );
    }
    let (got, t) = run(&Budget::new(Limits {
        deadline_ms: Some(50),
        ..Limits::default()
    }));
    assert!(got.value().is_subset(exact.value()), "unsound truncation");
    println!(
        "  {:<17} | {:<18} | {:>7} | {:>9.2}",
        "deadline = 50 ms",
        describe(&got),
        got.value().len(),
        t * 1e3
    );

    // Deterministic truncation: the same logical budget truncates at the
    // same point at 1, 2 and 8 threads — byte-identical partial results.
    let at = |threads: usize, steps: u64| {
        with_threads(threads, || {
            let budget = Budget::steps(steps);
            let o =
                cqa_core::consistent_answers_budgeted(&db, &sigma, &q, &class, &budget).unwrap();
            (o.truncation(), o.into_value())
        })
    };
    let deterministic = [1_000u64, 10_000]
        .iter()
        .all(|&s| at(1, s) == at(2, s) && at(1, s) == at(8, s));
    println!("  deterministic truncation across 1/2/8 threads: {deterministic}");
    println!();
}

fn f16_components() {
    use cqa_exec::{with_threads, Budget};
    println!("F16: conflict-component factorization — replicated F11-style workload");
    println!("----------------------------------------------------------------------");
    println!("  m independent key groups of 4 (plus 20 clean rows): the conflict");
    println!("  graph has m components, the repair family is the 4^m cross-product.");
    println!("  The per-repair fold lists every product repair and evaluates the");
    println!("  query on each one; consistent_answers slices one witness scan over");
    println!("  the 4m component-local repairs.");
    println!("  m | components | product | factored | per-repair (ms) | factored (ms) | speedup | equal | 1/2/8-thread identical");
    let q = UnionQuery::single(parse_query("Q(k, v) :- T(k, v)").unwrap());
    let class = RepairClass::Subset;
    for m in 1usize..=6 {
        let (db, sigma) = key_conflict_instance(20, m, 4, 1);
        // The shape, read as `repairctl analyze --components` reads it.
        let components = sigma.conflict_hypergraph(&db).unwrap().components();
        let families = components.minimal_hitting_sets_factored(&Budget::unlimited());
        assert!(families.is_exact());
        let families = families.into_value();
        let (per_repair, t_per_repair) = timed(|| per_repair_certain(&db, &sigma, &q));
        let (answers, t_fact) =
            timed(|| cqa_core::consistent_answers(&db, &sigma, &q, &class).unwrap());
        let equal = answers == per_repair;
        let identical = [1usize, 2, 8].iter().all(|&t| {
            let got = with_threads(t, || {
                cqa_core::consistent_answers(&db, &sigma, &q, &class).unwrap()
            });
            got == answers
        });
        println!(
            "  {m} | {:>10} | {:>7} | {:>8} | {:>15.2} | {:>13.2} | {:>6.2}x | {equal} | {identical}",
            components.components.len(),
            families
                .product_len()
                .map_or_else(|| "overflow".to_string(), |n| n.to_string()),
            families.factored_len(),
            t_per_repair * 1e3,
            t_fact * 1e3,
            t_per_repair / t_fact,
        );
    }
    println!();
}

fn f17_audit() {
    use std::path::Path;
    println!("F17: workspace audit & schedule perturbation (the determinism contract, enforced)");
    println!("---------------------------------------------------------------------------------");

    // Static half: the L-series audit over the workspace's own sources.
    // CI runs this as `repairctl audit --deny`; the harness line records
    // that the full pass stays well under its 1-second target.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (report, t) =
        timed(|| cqa_audit::audit_workspace(&root).expect("workspace sources are readable"));
    let baseline_text = std::fs::read_to_string(root.join("audit.baseline")).unwrap_or_default();
    let baseline = cqa_audit::Baseline::parse(&baseline_text).expect("audit.baseline parses");
    let outcome = baseline.apply(report.findings.clone());
    println!(
        "  static half (L001-L006): {} files, {} KiB lexed",
        report.files,
        report.bytes / 1024
    );
    println!(
        "  findings: {} active, {} suppressed by baseline, {} stale entries",
        outcome.active.len(),
        outcome.suppressed,
        outcome.stale.len()
    );
    println!(
        "  audit wall time: {:.1} ms; within 1 s target: {}",
        t * 1e3,
        t < 1.0
    );

    // Dynamic half: seeded schedule perturbation against two parallel hot
    // paths. Compiled only under the schedule-fuzz feature so production
    // builds carry no hooks; the full four-path suite is
    // tests/schedule_fuzz.rs at the workspace root.
    f17_perturbation();
    println!();
}

#[cfg(feature = "schedule-fuzz")]
fn f17_perturbation() {
    use cqa_exec::{with_schedule_seed, with_threads};
    use cqa_relation::Tid;
    use std::collections::BTreeSet;

    let nodes: BTreeSet<Tid> = (1..=10u64).map(Tid).collect();
    let edges: Vec<BTreeSet<Tid>> = [
        [1u64, 2, 3],
        [3, 4, 5],
        [5, 6, 7],
        [7, 8, 9],
        [9, 10, 1],
        [2, 5, 8],
        [1, 6, 9],
        [4, 8, 10],
    ]
    .into_iter()
    .map(|e| e.into_iter().map(Tid).collect())
    .collect();
    let g = cqa_constraints::ConflictHypergraph::new(nodes, edges);

    let (db, sigma) = key_conflict_instance(20, 5, 3, 1);
    let q = UnionQuery::single(parse_query("Q(k, v) :- T(k, v)").unwrap());

    let hs_ref = with_threads(4, || g.minimal_hitting_sets(None));
    let cqa_ref = with_threads(4, || per_repair_certain(&db, &sigma, &q));
    let ((hs_ok, cqa_ok), t) = timed(|| {
        let hs = (1..=16u64).all(|seed| {
            with_schedule_seed(seed, || with_threads(4, || g.minimal_hitting_sets(None))) == hs_ref
        });
        let cqa = (1..=16u64).all(|seed| {
            with_schedule_seed(seed, || {
                with_threads(4, || per_repair_certain(&db, &sigma, &q))
            }) == cqa_ref
        });
        (hs, cqa)
    });
    println!(
        "  dynamic half: 16 perturbed 4-thread schedules per hot path ({:.1} ms)",
        t * 1e3
    );
    println!("  hitting-set search identical across seeds: {hs_ok}");
    println!("  per-repair CQA fold identical across seeds: {cqa_ok}");
}

#[cfg(not(feature = "schedule-fuzz"))]
fn f17_perturbation() {
    println!("  dynamic half: rebuild with `--features schedule-fuzz` to run seeded");
    println!("  perturbation here (CI runs the full suite: tests/schedule_fuzz.rs)");
}

fn f18_columnar_storage() {
    use cqa_bench::rowstore::f18_rowdb;
    use cqa_bench::{f18_columnar, f18_data};
    use cqa_relation::Value;

    println!("F18: dictionary-encoded columnar storage vs the row-oriented baseline");
    println!("---------------------------------------------------------------------");
    println!("  workload: Orders(OID, Cust, City, Status, Amount) + Cities(City, Region),");
    println!("  200 customers / 50 cities (heavy string repetition), FD Cust -> City");
    println!("  (1% dirty) and the comparison denial Amount > 9900.\n");
    println!("  n orders | row KiB | col KiB | mem ratio | viol row/col (ms) | join row/col (ms) | equal");

    for n in [5_000usize, 50_000] {
        let data = f18_data(n, 18);
        let (mut db, sigma) = f18_columnar(&data);
        let mut row = f18_rowdb(&data);
        // Both engines compact after the bulk load, so the comparison is
        // retained bytes, not allocator growth policy.
        db.shrink_to_fit();
        row.shrink_to_fit();
        let denials = sigma.all_denials(&db).unwrap();

        // Retained storage, analytically accounted on both sides: row boxes
        // + one Arc<str> block per string cell vs columns + spines + the
        // shared dictionary (strings counted once).
        let row_bytes = row.heap_bytes();
        let col_bytes = db.heap_bytes() + db.dict().heap_bytes();

        let q = parse_query("Q(c, r) :- Orders(o, c, x, s, a), Cities(x, r)").unwrap();
        // Warm both engines once: the first columnar call builds the shared
        // sorted/hash indexes (one-time, cached on the base), so the timed
        // runs below compare steady-state query latency on both sides.
        for dc in &denials {
            let _ = dc.violations(&db);
        }
        let _ = row.fd_violations("Orders", 1, 2);
        let _ = row.range_violations("Orders", 4, &Value::Int(9900));
        let _ = cqa_query::eval_cq(&db, &q, NullSemantics::Sql);
        let _ = row.join("Orders", 2, "Cities", 0, &[(0, 1), (1, 1)]);

        let (cv, t_cv) = timed(|| {
            denials
                .iter()
                .map(|dc| dc.violations(&db))
                .collect::<Vec<_>>()
        });
        let (rv, t_rv) = timed(|| {
            vec![
                row.fd_violations("Orders", 1, 2),
                row.range_violations("Orders", 4, &Value::Int(9900)),
            ]
        });

        let (cj, t_cj) = timed(|| cqa_query::eval_cq(&db, &q, NullSemantics::Sql));
        let (rj, t_rj) = timed(|| row.join("Orders", 2, "Cities", 0, &[(0, 1), (1, 1)]));

        println!(
            "  {n:>8} | {:>7} | {:>7} | {:>8.1}x | {:>7.1} / {:>6.1} | {:>7.1} / {:>6.1} | {}",
            row_bytes / 1024,
            col_bytes / 1024,
            row_bytes as f64 / col_bytes as f64,
            t_rv * 1e3,
            t_cv * 1e3,
            t_rj * 1e3,
            t_cj * 1e3,
            cv == rv && cj == rj
        );
    }
    println!();
}

fn f19_incremental_maintenance() {
    use cqa_bench::{f18_columnar, f18_data, F18Data};
    use cqa_core::{answer_consistently_incremental, IncrementalState};
    use cqa_exec::{with_threads, Budget};
    use cqa_relation::{Tid, Value};

    println!("F19: delta-driven incremental maintenance vs recompute-from-scratch");
    println!("--------------------------------------------------------------------");
    println!("  workload: the F18 Orders/Cities instance (FD Cust -> City, 1% dirty,");
    println!("  plus the comparison denial Amount > 9900). Each step applies ONE");
    println!("  tuple-level mutation (conflicting insert / amount update / delete)");
    println!("  and brings violations + hyper-graph + components up to date, either");
    println!("  through the change-log delta path or by full recompute. Maintained");
    println!("  state is asserted byte-identical to scratch after every step.\n");
    println!("  n orders | steps | incr (ms/upd) | scratch (ms/upd) | speedup | upd/s incr | upd/s scratch | identical");

    // One tuple-level mutation, deterministic in `i`, shared by the timing
    // loop and the thread-invariance replays.
    fn apply_op(db: &mut Database, data: &F18Data, n: usize, i: usize) {
        match i % 3 {
            0 => {
                // Existing customer, a different city: a fresh FD conflict.
                let cust = data.orders[(i * 97) % data.orders.len()].1.as_str();
                let city = data.cities[(i * 13 + 7) % data.cities.len()].0.as_str();
                db.insert(
                    "Orders",
                    tuple![1_000_000 + i as i64, cust, city, "late", 500],
                )
                .unwrap();
            }
            1 => {
                // Push an amount over the 9900 threshold (single-tuple
                // violation); the tid may have been deleted by an earlier
                // step, in which case the op is a no-op.
                let _ = db.update_value(Tid((i * 41 % n + 1) as u64), 4, Value::int(99_000));
            }
            _ => {
                let _ = db.delete(Tid((i * 29 % n + 1) as u64));
            }
        }
    }

    for n in [5_000usize, 50_000] {
        let data = f18_data(n, 19);
        let (mut db, sigma) = f18_columnar(&data);
        db.shrink_to_fit();
        let mut state = IncrementalState::new(&db, &sigma).unwrap();

        let steps = 12usize;
        let (mut t_inc, mut t_full) = (0.0f64, 0.0f64);
        let mut identical = true;
        for i in 0..steps {
            apply_op(&mut db, &data, n, i);
            let (_, s_inc) = timed(|| {
                state.refresh(&db, &sigma).unwrap();
            });
            let (scratch, s_full) = timed(|| IncrementalState::new(&db, &sigma).unwrap());
            t_inc += s_inc;
            t_full += s_full;
            identical &= state.violations() == scratch.violations()
                && state.graph() == scratch.graph()
                && *state.components() == *scratch.components();
        }
        println!(
            "  {n:>8} | {steps:>5} | {:>13.2} | {:>16.2} | {:>6.1}x | {:>10.0} | {:>13.0} | {identical}",
            t_inc / steps as f64 * 1e3,
            t_full / steps as f64 * 1e3,
            t_full / t_inc,
            steps as f64 / t_inc,
            steps as f64 / t_full,
        );
    }

    // Thread invariance: the same mutation script replayed through the
    // incremental planner at 1, 2 and 8 threads must produce byte-identical
    // violation sets, component factorizations and consistent answers.
    let n = 5_000usize;
    let data = f18_data(n, 19);
    let q =
        UnionQuery::single(parse_query("Q(c, r) :- Orders(o, c, x, s, a), Cities(x, r)").unwrap());
    let replay = |threads: usize| {
        with_threads(threads, || {
            let (mut db, sigma) = f18_columnar(&data);
            let mut state = IncrementalState::new(&db, &sigma).unwrap();
            for i in 0..12 {
                apply_op(&mut db, &data, n, i);
                state.refresh(&db, &sigma).unwrap();
            }
            let planned =
                answer_consistently_incremental(&db, &sigma, &q, &mut state, &Budget::unlimited())
                    .unwrap()
                    .into_value();
            (
                state.violations().clone(),
                (*state.components()).clone(),
                planned.answers,
            )
        })
    };
    let r1 = replay(1);
    let invariant = r1 == replay(2) && r1 == replay(8);
    println!(
        "\n  violations/components/CQA answers identical at 1/2/8 threads (n = {n}): {invariant}"
    );
    println!();
}

fn f20_server() {
    use cqa_exec::{with_threads, AdmissionGate, CancelToken, ServiceGroup};
    use cqa_server::{api, start, Json, Request, ServerConfig, ServerState, SessionStore};
    use std::sync::{mpsc, RwLock};

    println!("F20: repaird — multi-tenant CQA serving (sessions, warm caches, admission)");
    println!("---------------------------------------------------------------------------");
    println!("  a real repaird instance on loopback: 64 tenant sessions under a");
    println!("  64-client concurrent burst, session reuse vs create-query-delete");
    println!("  one-shots, deadline-truncated tails on a 2^14-repair tenant, a");
    println!("  starved admission gate, and a 1/2/8-thread transcript replay.\n");

    // Tenant workload: 4 000 clean keys plus 12 key-conflict pairs; the
    // query is a key lookup the planned certain path answers exactly.
    let (db, _sigma) = key_conflict_instance(4_000, 12, 2, 7);
    let create_body = format!(
        "{{\"db\": {}, \"constraints\": {}}}",
        Json::str(cqa_relation::save(&db).as_str()),
        Json::str("key T(K)\n")
    );
    let query_body = r#"{"query": "Q(y) :- T(5, y)"}"#;

    let handle = start(ServerConfig {
        max_sessions: 256,
        max_inflight: 128,
        ..ServerConfig::default()
    })
    .expect("start repaird");
    let addr = handle.addr();

    // Cold one-shots: connect, load the tenant, ask, tear down — per shot.
    let cold_shots = 24usize;
    let mut cold = Vec::new();
    for _ in 0..cold_shots {
        let (_, secs) = timed(|| {
            let mut client = F20Client::connect(addr);
            let (status, reply) = client.request("POST", "/sessions", &create_body);
            assert_eq!(status, 200, "{reply}");
            let id = f20_session_id(&reply);
            let (status, reply) =
                client.request("POST", &format!("/sessions/{id}/query"), query_body);
            assert_eq!(status, 200, "{reply}");
            assert!(!reply.contains("truncated"), "{reply}");
            let (status, _) = client.request("DELETE", &format!("/sessions/{id}"), "");
            assert_eq!(status, 200);
        });
        cold.push(secs);
    }

    // Multi-tenancy burst: 64 live sessions, one concurrent client each,
    // 16 queries per client — demonstrates concurrent session isolation
    // and that the gate drains back to zero afterwards.
    let tenants = 64usize;
    let per_client = 16usize;
    let mut ids = Vec::new();
    for _ in 0..tenants {
        let (status, reply) = f20_request(addr, "POST", "/sessions", &create_body);
        assert_eq!(status, 200, "{reply}");
        ids.push(f20_session_id(&reply));
    }
    let (tx, rx) = mpsc::channel::<usize>();
    let mut clients = ServiceGroup::new();
    for &id in &ids {
        let tx = tx.clone();
        let spawned = clients.spawn("f20-warm-client", move || {
            let mut client = F20Client::connect(addr);
            let mut served = 0usize;
            for _ in 0..per_client {
                let (status, reply) =
                    client.request("POST", &format!("/sessions/{id}/query"), query_body);
                assert_eq!(status, 200, "{reply}");
                served += 1;
            }
            tx.send(served).expect("report served count");
        });
        assert!(spawned, "could not spawn a warm client");
    }
    drop(tx);
    let (served, burst_secs) = timed(|| {
        assert!(clients.join_all().is_empty(), "a warm client panicked");
        rx.iter().sum::<usize>()
    });
    let (status, reply) = f20_request(addr, "GET", "/health", "");
    assert_eq!(status, 200, "{reply}");
    println!(
        "  multi-tenancy: {tenants} live sessions, {served} queries from {tenants} concurrent clients"
    );
    println!(
        "  burst wall time {:.2} s ({:.0} queries/s); drained after — health inflight 0: {}",
        burst_secs,
        served as f64 / burst_secs,
        reply.contains("\"inflight\":0")
    );

    // Session reuse, measured without queueing: one serial keep-alive
    // client against one live session, vs the serial cold one-shots above.
    let mut warm = Vec::new();
    let mut warm_client = F20Client::connect(addr);
    for _ in 0..32 {
        let (_, secs) = timed(|| {
            let (status, reply) =
                warm_client.request("POST", &format!("/sessions/{}/query", ids[0]), query_body);
            assert_eq!(status, 200, "{reply}");
        });
        warm.push(secs);
    }
    warm.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    cold.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let warm_p50 = f20_percentile(&warm, 0.50);
    let cold_p50 = f20_percentile(&cold, 0.50);
    println!(
        "  warm query     p50 {:>7.2} ms   p99 {:>7.2} ms  (serial, live session)",
        warm_p50 * 1e3,
        f20_percentile(&warm, 0.99) * 1e3
    );
    println!(
        "  cold one-shot  p50 {:>7.2} ms   (create + query + delete, {cold_shots} shots)",
        cold_p50 * 1e3
    );
    println!(
        "  session-reuse speedup (cold p50 / warm p50): {:.1}x; >= 5x: {}",
        cold_p50 / warm_p50,
        cold_p50 >= 5.0 * warm_p50
    );
    // Warm sessions ride the fleet-wide subplan cache. The key lookup above
    // is answered by the planner's polynomial path, so the demonstration
    // uses a small fold-class tenant and a query joining keys that share a
    // value: its witnesses span components, so possible answers fold the
    // query over the 2^6 product repairs, and the second ask replays them
    // entirely from cache — /health exposes the hit/miss counters it just
    // accrued.
    let (small_db, _) = key_conflict_instance(200, 6, 2, 9);
    let small_body = format!(
        "{{\"db\": {}, \"constraints\": {}}}",
        Json::str(cqa_relation::save(&small_db).as_str()),
        Json::str("key T(K)\n")
    );
    let (status, reply) = f20_request(addr, "POST", "/sessions", &small_body);
    assert_eq!(status, 200, "{reply}");
    let fold_id = f20_session_id(&reply);
    let fold_body = r#"{"query": "Q(x) :- T(x, y), T(z, y), x != z", "kind": "possible"}"#;
    for _ in 0..2 {
        let (status, reply) = f20_request(
            addr,
            "POST",
            &format!("/sessions/{fold_id}/query"),
            fold_body,
        );
        assert_eq!(status, 200, "{reply}");
    }
    let (status, _) = f20_request(addr, "DELETE", &format!("/sessions/{fold_id}"), "");
    assert_eq!(status, 200);
    let (status, reply) = f20_request(addr, "GET", "/health", "");
    assert_eq!(status, 200);
    let cache_json = reply
        .split("\"plan_cache\":")
        .nth(1)
        .and_then(|rest| rest.split('}').next())
        .map(|s| format!("{s}}}"))
        .unwrap_or_else(|| "missing".to_string());
    println!("  subplan cache after warm re-asks: {cache_json}");

    // Graceful degradation: a 2^14-repair tenant with a 60 ms deadline on
    // cardinality-class certain answers for keys that share a value. Those
    // witnesses span components, so the fold runs over the lazy product
    // and the deadline cuts it. Every reply must come back promptly as a
    // 200 whose body carries the deadline truncation; the slack on the
    // bound covers the last parallel chunk in flight when the clock fires,
    // not open-ended computation.
    let (hard, _s) = key_conflict_instance(200, 14, 2, 3);
    let hard_body = format!(
        "{{\"db\": {}, \"constraints\": {}}}",
        Json::str(cqa_relation::save(&hard).as_str()),
        Json::str("key T(K)\n")
    );
    let (status, reply) = f20_request(addr, "POST", "/sessions", &hard_body);
    assert_eq!(status, 200, "{reply}");
    let hard_id = f20_session_id(&reply);
    let timeout_ms = 60u64;
    let deadline_query = format!(
        "{{\"query\": \"Q(x) :- T(x, y), T(z, y), x != z\", \"class\": \"cardinality\", \"timeout_ms\": {timeout_ms}}}"
    );
    // 2 untimed warmups (first-touch lazy artifacts), then 56 timed
    // queries: with nearest-rank p99 that index is the second-largest
    // sample, so one noisy-neighbour scheduling outlier on a shared
    // single-core box doesn't define the tail.
    let mut tail = Vec::new();
    let mut tail_client = F20Client::connect(addr);
    for i in 0..58 {
        let (_, secs) = timed(|| {
            let (status, reply) = tail_client.request(
                "POST",
                &format!("/sessions/{hard_id}/query"),
                &deadline_query,
            );
            assert_eq!(status, 200, "{reply}");
            assert!(
                reply.contains("\"truncated\":{\"reason\":\"deadline\""),
                "{reply}"
            );
        });
        if i >= 2 {
            tail.push(secs);
        }
    }
    tail.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let tail_p99 = f20_percentile(&tail, 0.99);
    println!(
        "\n  graceful degradation: 2^14-repair tenant, timeout_ms = {timeout_ms}, 56 queries,"
    );
    println!(
        "  every reply a 200 with a deadline truncation: p50 {:.1} ms, p99 {:.1} ms;",
        f20_percentile(&tail, 0.50) * 1e3,
        tail_p99 * 1e3
    );
    println!(
        "  p99 within timeout + 200 ms teardown slack: {}",
        tail_p99 <= timeout_ms as f64 / 1e3 + 0.200
    );
    handle.shutdown();
    let _ = handle.join();

    // Admission control: a deliberately tiny gate (2 permits) against 10
    // simultaneous heavy queries. Overflow is an immediate 429 +
    // Retry-After — never a dropped connection — and every client is
    // served after backoff.
    let small = start(ServerConfig {
        max_inflight: 2,
        max_sessions: 64,
        ..ServerConfig::default()
    })
    .expect("start repaird");
    let addr2 = small.addr();
    let mut storm_ids = Vec::new();
    for _ in 0..10 {
        let (status, reply) = f20_request(addr2, "POST", "/sessions", &hard_body);
        assert_eq!(status, 200, "{reply}");
        storm_ids.push(f20_session_id(&reply));
    }
    let (tx, rx) = mpsc::channel::<u64>();
    let mut stormers = ServiceGroup::new();
    for &id in &storm_ids {
        let tx = tx.clone();
        let spawned = stormers.spawn("f20-storm-client", move || {
            // The degradation block's spanning query: heavy enough to hold
            // a permit for its whole 250 ms deadline.
            let body = r#"{"query": "Q(x) :- T(x, y), T(z, y), x != z", "class": "cardinality", "timeout_ms": 250}"#;
            // One keep-alive connection per client: a 429 must leave the
            // connection usable for the retry.
            let mut client = F20Client::connect(addr2);
            let mut refused = 0u64;
            loop {
                let (status, reply) =
                    client.request("POST", &format!("/sessions/{id}/query"), body);
                match status {
                    200 => break,
                    429 => {
                        assert!(reply.contains("retry_after"), "{reply}");
                        refused += 1;
                        std::thread::sleep(std::time::Duration::from_millis(40));
                    }
                    other => panic!("unexpected status {other}: {reply}"),
                }
            }
            tx.send(refused).expect("report refusals");
        });
        assert!(spawned, "could not spawn a storm client");
    }
    drop(tx);
    assert!(stormers.join_all().is_empty(), "a storm client panicked");
    let refused_per_client: Vec<u64> = rx.iter().collect();
    let refusals: u64 = refused_per_client.iter().sum();
    let (status, reply) = f20_request(addr2, "GET", "/health", "");
    assert_eq!(status, 200, "{reply}");
    println!("\n  admission control: 10 clients vs a 2-permit gate, {refusals} refusals;");
    println!(
        "  every client served after 429 + Retry-After backoff: {}",
        refused_per_client.len() == storm_ids.len() && refusals > 0
    );
    println!(
        "  gate drained — health reports inflight 0 and refused {refusals}: {}",
        reply.contains("\"inflight\":0") && reply.contains(&format!("\"refused\":{refusals}"))
    );
    small.shutdown();
    let _ = small.join();

    // Thread invariance: one fixed tenant script dispatched straight into
    // the request handler (no sockets), replayed at 1, 2 and 8 worker
    // threads. The transcript — statuses, bodies, truncation points, even
    // error replies — must be byte-identical.
    let script: Vec<(&str, String, String)> = vec![
        (
            "POST",
            "/sessions".to_string(),
            format!(
                "{{\"db\": {}, \"constraints\": {}}}",
                Json::str("@relation T(K, V)\n0, 1\n0, 2\n1, 1\n2, 5\n"),
                Json::str("key T(K)\n")
            ),
        ),
        (
            "POST",
            "/sessions/1/query".to_string(),
            r#"{"query": "Q(x) :- T(x, y)"}"#.to_string(),
        ),
        (
            "POST",
            "/sessions/1/repairs".to_string(),
            r#"{"class": "subset", "budget_steps": 2}"#.to_string(),
        ),
        (
            "POST",
            "/sessions/1/mutate".to_string(),
            r#"{"ops": [{"op": "insert", "relation": "T", "row": [1, 9]}, {"op": "delete", "tid": 4}]}"#
                .to_string(),
        ),
        (
            "POST",
            "/sessions/1/query".to_string(),
            r#"{"query": "Q(x) :- T(x, y), T(z, y), x != z", "class": "cardinality", "budget_steps": 3}"#
                .to_string(),
        ),
        (
            "POST",
            "/sessions/1/query".to_string(),
            r#"{"query": "Q(x) :- T(x, y)", "kind": "possible"}"#.to_string(),
        ),
        (
            "POST",
            "/sessions/1/causes".to_string(),
            r#"{"query": "Q() :- T(1, y)"}"#.to_string(),
        ),
        ("DELETE", "/sessions/9".to_string(), String::new()),
    ];
    let replay = |threads: usize| {
        with_threads(threads, || {
            let state = ServerState {
                config: ServerConfig::default(),
                sessions: SessionStore::new(8),
                gate: AdmissionGate::new(8),
                stop: CancelToken::new(),
            };
            let slot = RwLock::new(None);
            script
                .iter()
                .map(|(method, path, body)| {
                    let req = Request {
                        method: (*method).to_string(),
                        path: path.clone(),
                        body: body.clone().into_bytes(),
                        close: false,
                    };
                    let reply = api::handle(&state, &req, &slot);
                    format!("{} {}", reply.status, reply.body)
                })
                .collect::<Vec<String>>()
        })
    };
    let t1 = replay(1);
    let identical = t1 == replay(2) && t1 == replay(8);
    let truncates = t1.concat().contains("truncated");
    println!(
        "\n  transcripts byte-identical at 1/2/8 threads (incl. truncation): {}",
        identical && truncates
    );
    println!();
}

/// A keep-alive client connection to repaird. Warm clients hold one of
/// these across queries (no per-request connect/accept cost); one-shot
/// callers build a fresh one per exchange.
struct F20Client {
    writer: std::net::TcpStream,
    reader: std::io::BufReader<std::net::TcpStream>,
}

impl F20Client {
    fn connect(addr: std::net::SocketAddr) -> F20Client {
        let writer = std::net::TcpStream::connect(addr).expect("connect");
        let _ = writer.set_nodelay(true);
        let reader = std::io::BufReader::new(writer.try_clone().expect("clone socket"));
        F20Client { writer, reader }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        use std::io::{BufRead, Read, Write};
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes()).expect("write head");
        self.writer.write_all(body.as_bytes()).expect("write body");
        let mut status_line = String::new();
        self.reader
            .read_line(&mut status_line)
            .expect("status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("numeric status");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header line");
            if line.trim_end().is_empty() {
                break;
            }
            if let Some(v) = line
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .and_then(|v| v.parse().ok())
            {
                content_length = v;
            }
        }
        let mut reply = vec![0u8; content_length];
        self.reader.read_exact(&mut reply).expect("body");
        (status, String::from_utf8(reply).expect("utf8 body"))
    }
}

/// One HTTP request on a fresh loopback connection; returns status + body.
fn f20_request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    F20Client::connect(addr).request(method, path, body)
}

/// Pull the `"session":N` id out of a create reply.
fn f20_session_id(reply: &str) -> u64 {
    reply
        .split("\"session\":")
        .nth(1)
        .expect("session id in reply")
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric session id")
}

/// Nearest-rank percentile over an ascending-sorted sample.
fn f20_percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// F21: the repair-family subplan cache — the same UCQ folded over the
/// same 2^k repair family with sharing on vs off. The fold answers certain
/// *and* possible three times (a session re-asking), so with sharing on
/// only the first certain pass evaluates: every later pass — possible over
/// the identical views, and both re-asks — hits the cache on the
/// (query fingerprint, content fingerprint) key. Row equality is asserted
/// before any time is reported.
fn f21_plan_cache() {
    println!("F21: cost-based planning — repair-family subplan sharing on vs off");
    println!("-------------------------------------------------------------------");
    println!("  5 000 clean keys + k conflict pairs (2^k S-repairs); certain +");
    println!("  possible for the same query, each folded over the listed repairs");
    println!("  (one evaluation per repair), asked 3 times per run.\n");
    println!("  k  | repairs | off (ms) | on (ms) | speedup | equal | hits | misses");

    let q = UnionQuery::single(parse_query("Q(x) :- T(x, y)").unwrap());
    let mut largest_speedup = 0.0f64;
    for k in [6usize, 8, 10] {
        let (db, sigma) = key_conflict_instance(5_000, k, 2, 21);
        let run = |on: bool| {
            cqa_query::reset_plan_cache();
            cqa_exec::with_plan_cache(on, || {
                timed(|| {
                    let mut last = None;
                    for _ in 0..3 {
                        let c = per_repair_certain(&db, &sigma, &q);
                        let p = per_repair_possible(&db, &sigma, &q);
                        last = Some((c, p));
                    }
                    last.expect("three passes ran")
                })
            })
        };
        let (rows_off, t_off) = run(false);
        let (rows_on, t_on) = run(true);
        let stats = cqa_query::plan_cache_stats();
        let speedup = t_off / t_on;
        largest_speedup = speedup; // the last (largest) family is the gate
        println!(
            "  {:>2} | {:>7} | {:>8.1} | {:>7.1} | {:>6.1}x | {:>5} | {:>4} | {:>6}",
            k,
            1usize << k,
            t_off * 1e3,
            t_on * 1e3,
            speedup,
            rows_off == rows_on,
            stats.hits,
            stats.misses
        );
        assert!(rows_off == rows_on, "sharing changed answers at k={k}");
    }
    println!(
        "\n  sharing >= 3x at the largest family: {}\n",
        largest_speedup >= 3.0
    );
}
