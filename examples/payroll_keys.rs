//! Keys and consistent query answering in depth (Examples 3.3–3.4 and the
//! §3.2 theory): repairs, SQL-style rewriting, the attack graph, aggregate
//! CQA with range semantics, and a case where rewriting is impossible.
//!
//! Run with `cargo run --example payroll_keys`.

use inconsistent_db::core::rewrite::keys::KeyRewriteError;
use inconsistent_db::core::{consistent_aggregate_range, count_key_repairs};
use inconsistent_db::prelude::*;
use inconsistent_db::query::{AggOp, AggregateQuery};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::new();
    db.create_relation(RelationSchema::new("Employee", ["Name", "Salary"]))?;
    db.insert("Employee", tuple!["page", 5000])?;
    db.insert("Employee", tuple!["page", 8000])?;
    db.insert("Employee", tuple!["smith", 3000])?;
    db.insert("Employee", tuple!["stowe", 7000])?;
    println!("{db}");

    let key = KeyConstraint::new("Employee", ["Name"]);
    let sigma = ConstraintSet::from_iter([key.clone()]);

    // Repair counting: product of key-group sizes (poly time).
    println!(
        "Number of repairs (product formula): {}",
        count_key_repairs(&db, &key)?
    );

    // Example 3.4: the rewriting is exactly the SQL pattern from the paper —
    //   SELECT Name, Salary FROM Employee e WHERE NOT EXISTS (
    //     SELECT * FROM Employee e2 WHERE e2.Name = e.Name AND e2.Salary <> e.Salary)
    let q1 = parse_query("Q(x, y) :- Employee(x, y)")?;
    let keys = [("Employee".to_string(), vec![0usize])].into();
    let rewritten = rewrite_key_query(&q1, &keys)?;
    println!("\nCertain rows via the FO rewriting:");
    for t in eval_fo(&db, &rewritten, NullSemantics::Structural) {
        println!("  {t}");
    }
    // The same rewriting, rendered as the SQL the paper prints — ready to
    // run on any DBMS against the original, inconsistent table:
    println!(
        "\nAs SQL:\n  {}",
        inconsistent_db::query::fo_to_sql(&rewritten, &q1.head, &db)?
    );

    // The attack-graph test: a two-atom chain query is rewritable…
    let chain = parse_query("Q(x) :- Employee(x, y), Bonus(y, z)")?;
    let keys2 = [
        ("Employee".to_string(), vec![0usize]),
        ("Bonus".to_string(), vec![0usize]),
    ]
    .into();
    match rewrite_key_query(&chain, &keys2) {
        Ok(_) => println!("\nchain query: attack graph acyclic → FO-rewritable ✓"),
        Err(e) => println!("\nchain query unexpectedly not rewritable: {e}"),
    }

    // …but the classic cyclic query is coNP-complete, and the library says so.
    let cyc = parse_query("Q() :- Pred(x, y), Succ(y, x)")?;
    let keys3 = [
        ("Pred".to_string(), vec![0usize]),
        ("Succ".to_string(), vec![0usize]),
    ]
    .into();
    match rewrite_key_query(&cyc, &keys3) {
        Err(KeyRewriteError::CyclicAttackGraph { .. }) => {
            println!("cyclic query: attack graph cyclic → fall back to repair enumeration ✓")
        }
        other => println!("unexpected: {other:?}"),
    }

    // Aggregate CQA with range semantics [5]: the certain SUM is an interval.
    let body = parse_query("Q() :- Employee(n, s)")?;
    let s = body.vars.lookup("s").expect("var s");
    let sum = AggregateQuery {
        body,
        group_by: vec![],
        target: Some(s),
        op: AggOp::Sum,
    };
    if let Some((lo, hi)) = consistent_aggregate_range(&db, &sigma, &sum, &RepairClass::Subset)? {
        println!("\nSUM(Salary) over all repairs lies in [{lo}, {hi}]");
    }

    // Possible vs certain answers.
    let q_sal = UnionQuery::single(parse_query("Q(y) :- Employee('page', y)")?);
    let certain = consistent_answers(&db, &sigma, &q_sal, &RepairClass::Subset)?;
    let possible = possible_answers(&db, &sigma, &q_sal, &RepairClass::Subset)?;
    println!(
        "\npage's salary — certain: {:?}, possible: {:?}",
        certain.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
        possible.iter().map(|t| t.to_string()).collect::<Vec<_>>()
    );

    Ok(())
}
