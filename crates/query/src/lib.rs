#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Untrusted input must never panic the process: unwraps/expects are banned
// outside tests (allow-listed per site where an invariant is locally proven).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # cqa-query
//!
//! Query languages and evaluation over `cqa-relation` databases:
//!
//! * **Conjunctive queries** (with safe negation and comparisons) and unions
//!   thereof — the language for which repairs, CQA and causality are studied
//!   in the paper; evaluation can surface *witnesses* (matched tuple ids),
//!   which is how constraint violations and causes are extracted.
//! * **Full first-order queries** — the target language of consistent-answer
//!   rewritings (Examples 2.2 and 3.4).
//! * **Stratified Datalog with negation** — the view-definition language of
//!   virtual data integration (§5) and the monotone-query language of §7.
//! * **Aggregates** — the basis of range-semantics CQA for aggregation \[5\].
//! * **Magic sets** — goal-directed Datalog rewriting, as ConsEx used for
//!   repair-program optimization (§3.3).
//!
//! Evaluation is parameterized by [`NullSemantics`]: structural (nulls are
//! constants) or SQL three-valued (nulls never join), the latter implementing
//! the "logical reconstruction of SQL nulls" the paper relies on for
//! null-based repairs.

pub mod aggregate;
pub mod ast;
pub mod datalog;
pub mod eval;
pub mod fo;
pub mod magic;
pub mod parser;
pub mod plan;
pub mod sql;

pub use aggregate::{eval_aggregate, eval_scalar, AggOp, AggregateQuery};
pub use ast::{
    Atom, CmpOp, Comparison, ConjunctiveQuery, Fo, FoQuery, Term, UnionQuery, Var, VarTable,
};
pub use datalog::{Literal, Program, Rule};
pub use eval::{
    eval_cq, eval_cq_ordered, eval_ucq, for_each_witness, holds, holds_ucq, match_atom,
    match_atom_vids, witnesses, AtomVids, Bindings, NullSemantics, VidBindings, Witness,
};
pub use fo::{eval_fo, holds_fo};
pub use magic::{magic_rewrite, MagicProgram};
pub use parser::{parse_fo, parse_program, parse_query, parse_ucq};
pub use plan::{
    cached_certain_answers, join_order, plan_cache_stats, reset_plan_cache, ucq_signature, Access,
    PlanCacheStats, PlanExplain, PlanStep,
};
pub use sql::fo_to_sql;
