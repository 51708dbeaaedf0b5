//! Rendering first-order queries as SQL.
//!
//! Example 3.4 of the paper ends by showing that the consistent-answer
//! rewriting *is* an ordinary SQL query with a `NOT EXISTS` subselect —
//! "posed to and answered from the original instance as usual". This module
//! makes that concrete: it renders the fragment of [`FoQuery`] that the
//! rewriters emit (conjunctions of atoms and comparisons, with arbitrarily
//! nested `¬∃` blocks) into executable SQL, so a rewriting produced by
//! `cqa-core` can be shipped to any relational DBMS.

use crate::ast::{Atom, CmpOp, Comparison, Fo, FoQuery, Term, Var};
use cqa_relation::{Database, RelationError, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render a value as a SQL literal.
fn sql_literal(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        Value::Null(_) => "NULL".to_string(),
    }
}

fn sql_op(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "<>",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn has_atoms(fo: &Fo) -> bool {
    match fo {
        Fo::Atom(_) => true,
        Fo::Cmp(_) => false,
        Fo::And(parts) | Fo::Or(parts) => parts.iter().any(has_atoms),
        Fo::Not(g) => has_atoms(g),
        Fo::Exists(_, g) => has_atoms(g),
    }
}

/// One query scope: its FROM aliases and the column each variable first
/// bound to (variables from enclosing scopes stay visible — correlated
/// subqueries).
struct Scope<'a> {
    db: &'a Database,
    alias_counter: &'a mut usize,
    from: Vec<String>,
    conditions: Vec<String>,
    bindings: BTreeMap<Var, String>,
}

impl<'a> Scope<'a> {
    fn child(&mut self) -> (Vec<String>, Vec<String>, BTreeMap<Var, String>) {
        // Children share the alias counter and *see* the parent bindings.
        (Vec::new(), Vec::new(), self.bindings.clone())
    }

    fn add_atom(&mut self, atom: &Atom) -> Result<(), RelationError> {
        let rel = self.db.require_relation(&atom.relation)?;
        let schema = rel.schema().clone();
        *self.alias_counter += 1;
        let alias = format!("t{}", self.alias_counter);
        self.from.push(format!("{} AS {alias}", atom.relation));
        for (pos, term) in atom.terms.iter().enumerate() {
            let col = format!("{alias}.{}", schema.attribute_name(pos));
            match term {
                Term::Const(c) => self.conditions.push(format!("{col} = {}", sql_literal(c))),
                Term::Var(v) => match self.bindings.get(v) {
                    Some(prev) => self.conditions.push(format!("{col} = {prev}")),
                    None => {
                        self.bindings.insert(*v, col);
                    }
                },
            }
        }
        Ok(())
    }

    fn term_ref(&self, t: &Term) -> Result<String, RelationError> {
        match t {
            Term::Const(c) => Ok(sql_literal(c)),
            Term::Var(v) => self.bindings.get(v).cloned().ok_or_else(|| {
                RelationError::Parse(
                    "SQL rendering: comparison variable not bound by any atom in scope".into(),
                )
            }),
        }
    }

    fn add_comparison(&mut self, c: &Comparison) -> Result<(), RelationError> {
        let left = self.term_ref(&c.left)?;
        let right = self.term_ref(&c.right)?;
        self.conditions
            .push(format!("{left} {} {right}", sql_op(c.op)));
        Ok(())
    }

    /// Process one conjunct; atoms extend FROM, everything else becomes a
    /// WHERE condition.
    fn add(&mut self, fo: &Fo) -> Result<(), RelationError> {
        match fo {
            Fo::Atom(a) => self.add_atom(a),
            Fo::Cmp(c) => self.add_comparison(c),
            Fo::And(parts) => {
                // Atoms first so comparisons/negations see their bindings.
                for p in parts.iter().filter(|p| matches!(p, Fo::Atom(_))) {
                    self.add(p)?;
                }
                for p in parts.iter().filter(|p| !matches!(p, Fo::Atom(_))) {
                    self.add(p)?;
                }
                Ok(())
            }
            Fo::Exists(_, inner) => self.add(inner),
            other => {
                let cond = self.condition(other)?;
                self.conditions.push(cond);
                Ok(())
            }
        }
    }

    /// Render a subformula as a single SQL condition. Atom-bearing
    /// subformulas become (correlated) `EXISTS` subselects; pure
    /// comparison trees render in place.
    fn condition(&mut self, fo: &Fo) -> Result<String, RelationError> {
        match fo {
            Fo::Cmp(c) => {
                let left = self.term_ref(&c.left)?;
                let right = self.term_ref(&c.right)?;
                Ok(format!("{left} {} {right}", sql_op(c.op)))
            }
            Fo::Not(g) => {
                let inner = self.condition(g)?;
                // Cosmetic: `NOT EXISTS (…)` reads better than
                // `NOT (EXISTS (…))` and is what the paper prints.
                if inner.starts_with("EXISTS (") {
                    Ok(format!("NOT {inner}"))
                } else {
                    Ok(format!("NOT ({inner})"))
                }
            }
            // The empty conjunction is true; the key rewriting emits it
            // when an atom has no non-key position to compare.
            Fo::And(parts) if parts.is_empty() => Ok("TRUE".to_string()),
            Fo::And(parts) if !has_atoms(fo) => {
                let rendered: Vec<String> = parts
                    .iter()
                    .map(|p| self.condition(p))
                    .collect::<Result<_, _>>()?;
                Ok(rendered.join(" AND "))
            }
            Fo::Exists(_, g) => self.render_exists(g),
            Fo::Atom(_) | Fo::And(_) => self.render_exists(fo),
            Fo::Or(_) => Err(RelationError::Parse(
                "SQL rendering: disjunction is outside the rewriting fragment".into(),
            )),
        }
    }

    /// Render `EXISTS (SELECT 1 FROM … WHERE …)` for a subformula.
    fn render_exists(&mut self, fo: &Fo) -> Result<String, RelationError> {
        let (from, conditions, bindings) = self.child();
        let mut sub = Scope {
            db: self.db,
            alias_counter: self.alias_counter,
            from,
            conditions,
            bindings,
        };
        sub.add(fo)?;
        if sub.from.is_empty() {
            return Err(RelationError::Parse(
                "SQL rendering: negated subformula has no atoms".into(),
            ));
        }
        let mut s = String::from("EXISTS (SELECT 1 FROM ");
        s.push_str(&sub.from.join(", "));
        if !sub.conditions.is_empty() {
            s.push_str(" WHERE ");
            s.push_str(&sub.conditions.join(" AND "));
        }
        s.push(')');
        Ok(s)
    }
}

/// Render an [`FoQuery`] of the rewriting fragment as SQL against the
/// schemas of `db`, selecting `head`: one select item per head term, in
/// head order, a variable (one of `q.free`) as the column it binds and a
/// constant as its literal. The FO rewriting of a conjunctive query keeps
/// only the head's variables, so its caller passes the query's head. An
/// empty head renders as `SELECT EXISTS (…)`.
pub fn fo_to_sql(q: &FoQuery, head: &[Term], db: &Database) -> Result<String, RelationError> {
    let mut counter = 0usize;
    let mut scope = Scope {
        db,
        alias_counter: &mut counter,
        from: Vec::new(),
        conditions: Vec::new(),
        bindings: BTreeMap::new(),
    };
    scope.add(&q.formula)?;
    if scope.from.is_empty() {
        return Err(RelationError::Parse(
            "SQL rendering: query has no atoms".into(),
        ));
    }
    let mut s = if head.is_empty() {
        String::from("SELECT EXISTS (SELECT 1")
    } else {
        let mut select_items = Vec::with_capacity(head.len());
        for term in head {
            select_items.push(match term {
                Term::Const(c) => sql_literal(c),
                Term::Var(v) => {
                    let col = scope.bindings.get(v).ok_or_else(|| {
                        RelationError::Parse(format!(
                            "SQL rendering: free variable `{}` not bound by an atom",
                            q.vars.name(*v)
                        ))
                    })?;
                    format!("{col} AS {}", q.vars.name(*v))
                }
            });
        }
        format!("SELECT DISTINCT {}", select_items.join(", "))
    };
    let _ = write!(s, " FROM {}", scope.from.join(", "));
    if !scope.conditions.is_empty() {
        let _ = write!(s, " WHERE {}", scope.conditions.join(" AND "));
    }
    if head.is_empty() {
        s.push(')');
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::VarTable;
    use crate::parser::parse_fo;
    use cqa_relation::{tuple, RelationSchema};

    /// The head of a parsed FO query: its free variables.
    fn head(q: &FoQuery) -> Vec<Term> {
        q.free.iter().map(|&v| Term::Var(v)).collect()
    }

    fn employee_db() -> Database {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Employee", ["Name", "Salary"]))
            .unwrap();
        db.insert("Employee", tuple!["page", 5000]).unwrap();
        db
    }

    #[test]
    fn example_3_4_renders_the_papers_sql() {
        // Q'(x, y): Employee(x, y) ∧ ¬∃z(Employee(x, z) ∧ z ≠ y)
        let q = parse_fo("x, y : Employee(x, y) & !exists z (Employee(x, z) & z != y)").unwrap();
        let sql = fo_to_sql(&q, &head(&q), &employee_db()).unwrap();
        assert_eq!(
            sql,
            "SELECT DISTINCT t1.Name AS x, t1.Salary AS y FROM Employee AS t1 \
             WHERE NOT EXISTS (SELECT 1 FROM Employee AS t2 \
             WHERE t2.Name = t1.Name AND t2.Salary <> t1.Salary)"
        );
    }

    #[test]
    fn join_with_constants() {
        let mut db = employee_db();
        db.create_relation(RelationSchema::new("Dept", ["Name", "Unit"]))
            .unwrap();
        let q = parse_fo("x : exists y (Employee(x, y) & Dept(x, 'cs'))").unwrap();
        let sql = fo_to_sql(&q, &head(&q), &db).unwrap();
        assert_eq!(
            sql,
            "SELECT DISTINCT t1.Name AS x FROM Employee AS t1, Dept AS t2 \
             WHERE t2.Name = t1.Name AND t2.Unit = 'cs'"
        );
    }

    #[test]
    fn boolean_query_renders_exists() {
        let q = parse_fo("exists x, y (Employee(x, y))").unwrap();
        let sql = fo_to_sql(&q, &head(&q), &employee_db()).unwrap();
        assert_eq!(sql, "SELECT EXISTS (SELECT 1 FROM Employee AS t1)");
    }

    #[test]
    fn nested_not_exists() {
        // The two-atom key rewriting shape: R ∧ ∀-block containing another
        // ∃-block.
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["K", "V"]))
            .unwrap();
        db.create_relation(RelationSchema::new("S", ["K", "V"]))
            .unwrap();
        let q =
            parse_fo("x : exists y (R(x, y) & !exists z (R(x, z) & !exists w (S(z, w))))").unwrap();
        let sql = fo_to_sql(&q, &head(&q), &db).unwrap();
        assert!(sql.contains("NOT EXISTS (SELECT 1 FROM R AS t2"));
        assert!(sql.contains("NOT EXISTS (SELECT 1 FROM S AS t3"));
    }

    #[test]
    fn generated_key_rewritings_are_renderable() {
        // The exact shape `rewrite_key_query` emits for a single-atom query:
        // ∃y (Emp(x, y) ∧ ¬∃v (Emp(x, v) ∧ ¬(v = y))).
        let q = parse_fo("x : exists y (Emp(x, y) & !exists v (Emp(x, v) & !(v = y)))").unwrap();
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("Emp", ["A", "B"]))
            .unwrap();
        let sql = fo_to_sql(&q, &head(&q), &db).unwrap();
        assert_eq!(
            sql,
            "SELECT DISTINCT t1.A AS x FROM Emp AS t1 \
             WHERE NOT EXISTS (SELECT 1 FROM Emp AS t2 \
             WHERE t2.A = t1.A AND NOT (t2.B = t1.B))"
        );
    }

    #[test]
    fn string_literals_escape_quotes() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("P", ["N"])).unwrap();
        // (The query parser has no quote-escape syntax; the escaping under
        // test is the *renderer's*, exercised directly below.)
        let q2 = parse_fo("x : P(x)").unwrap();
        let sql = fo_to_sql(&q2, &head(&q2), &db).unwrap();
        assert_eq!(sql, "SELECT DISTINCT t1.N AS x FROM P AS t1");
        assert_eq!(sql_literal(&Value::str("o'brien")), "'o''brien'");
    }

    #[test]
    fn unknown_relation_is_an_error() {
        let q = parse_fo("x : Nothing(x)").unwrap();
        assert!(fo_to_sql(&q, &head(&q), &employee_db()).is_err());
    }

    #[test]
    fn disjunction_rejected_with_clear_message() {
        let q = parse_fo("x : Employee(x, 'a') | Employee(x, 'b')").unwrap();
        let e = fo_to_sql(&q, &head(&q), &employee_db()).unwrap_err();
        assert!(e.to_string().contains("disjunction"));
    }

    /// The key rewriting of a query over `R(x, y)` under `key R(K)`, as the
    /// rewriter emits it: `∃x ∃y (R(x, y) ∧ ¬∃v (R(x, v) ∧ ¬⋀∅))`, with `x`
    /// free when `x_free`. `y` is existential, so no position outside the
    /// key is compared and the innermost conjunction is empty.
    fn key_rewriting(x_free: bool) -> (FoQuery, Var) {
        let mut vars = VarTable::new();
        let (x, y, v) = (vars.var("x"), vars.var("y"), vars.var("v"));
        let r = |a, b| Fo::Atom(Atom::new("R", vec![Term::Var(a), Term::Var(b)]));
        let blocked = Fo::Exists(
            vec![v],
            Box::new(Fo::And(vec![r(x, v), Fo::Not(Box::new(Fo::And(vec![])))])),
        );
        let body = Fo::And(vec![r(x, y), Fo::Not(Box::new(blocked))]);
        let bound = if x_free { vec![y] } else { vec![x, y] };
        let free = if x_free { vec![x] } else { vec![] };
        let formula = Fo::Exists(bound, Box::new(body));
        (
            FoQuery {
                vars,
                free,
                formula,
            },
            x,
        )
    }

    /// The select items of `sql`, split at its top-level commas.
    fn select_items(sql: &str) -> Vec<&str> {
        let list = sql
            .strip_prefix("SELECT DISTINCT ")
            .and_then(|rest| rest.split(" FROM ").next())
            .unwrap_or_default();
        list.split(", ").collect()
    }

    fn balanced(sql: &str) -> bool {
        let mut depth = 0i32;
        for c in sql.chars() {
            match c {
                '(' => depth += 1,
                ')' => depth -= 1,
                _ => {}
            }
            if depth < 0 {
                return false;
            }
        }
        depth == 0
    }

    #[test]
    fn key_rewritings_render_every_head_term_and_no_empty_parentheses() {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("R", ["K", "V"]))
            .unwrap();
        let seven = Term::Const(Value::Int(7));
        // Q(x) :- R(x, y), Q(x, 7) :- R(x, y) and Q(7) :- R(x, y).
        let (with_x, x) = key_rewriting(true);
        let (without_x, _) = key_rewriting(false);
        let cases = [
            (&with_x, vec![Term::Var(x)], vec!["t1.K AS x"]),
            (
                &with_x,
                vec![Term::Var(x), seven.clone()],
                vec!["t1.K AS x", "7"],
            ),
            (&without_x, vec![seven], vec!["7"]),
        ];
        for (q, head, items) in cases {
            let sql = fo_to_sql(q, &head, &db).unwrap();
            assert!(!sql.contains("()"), "{sql}");
            assert!(balanced(&sql), "{sql}");
            assert_eq!(select_items(&sql), items, "{sql}");
            assert!(
                sql.ends_with(
                    " FROM R AS t1 WHERE NOT EXISTS (SELECT 1 FROM R AS t2 \
                     WHERE t2.K = t1.K AND NOT (TRUE))"
                ),
                "{sql}"
            );
        }
        let (q, _) = key_rewriting(false);
        assert_eq!(
            fo_to_sql(&q, &[], &db).unwrap(),
            "SELECT EXISTS (SELECT 1 FROM R AS t1 WHERE NOT EXISTS \
             (SELECT 1 FROM R AS t2 WHERE t2.K = t1.K AND NOT (TRUE)))"
        );
    }
}
