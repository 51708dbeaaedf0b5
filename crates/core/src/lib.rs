#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # cqa-core
//!
//! The paper's primary contribution: **database repairs and consistent query
//! answering** (Arenas–Bertossi–Chomicki, PODS'99, as surveyed in Bertossi,
//! PODS'19).
//!
//! * [`srepair`] — S-repairs (⊆-minimal symmetric difference) for denial
//!   constraints, FDs/keys/CFDs and tgds, with deletions and null-padded
//!   insertions (§3.1, §4.2).
//! * [`crepair`] — cardinality repairs (§4.1).
//! * [`attr_repair`] — attribute-based null repairs (§4.3).
//! * [`nullrepair`] — tuple-level null repairs for tgds (§4.2).
//! * [`cqa`] — certain/possible answers over a repair class; aggregate CQA
//!   with range semantics (§3.1–3.2).
//! * [`rewrite`] — first-order rewritings: the 1999 residue method and the
//!   Koutris–Wijsen attack-graph rewriting for keys (§2.2, §3.2).
//! * [`checking`] — repair checking and counting (§3.2).
//! * [`delta`] — delta-driven incremental maintenance of violations and the
//!   conflict hyper-graph under updates (incremental repair semantics, §7).
//! * [`measures`] — repair-based inconsistency degrees (§8).

pub mod attr_repair;
pub mod checking;
pub mod cqa;
pub mod crepair;
pub mod delta;
pub mod factored;
pub mod incremental;
pub mod measures;
pub mod nullrepair;
pub mod planner;
pub mod prioritized;
pub mod privacy;
pub mod repair;
pub mod rewrite;
pub mod session;
pub mod srepair;
pub mod tolerant;
pub mod update_repair;

pub use attr_repair::{attribute_repairs, AttributeRepair, CellChange};
pub use checking::{
    count_key_repairs, count_s_repairs, is_c_repair, is_repair, is_s_repair, symmetric_difference,
    RepairSemantics,
};
pub use cqa::{
    certain_over, certainly_true, consistent_aggregate_range, consistent_aggregate_ranges,
    consistent_answers, consistent_answers_budgeted, possible_answers, possible_answers_budgeted,
    possible_over, repairs_of, RepairClass,
};
pub use crepair::{c_repairs, c_repairs_budgeted, min_repair_distance};
pub use delta::{IncrementalState, MaintenanceDecision};
pub use factored::Factorization;
pub use incremental::{insert_preserves_consistency, repairs_after_insert, IncrementalRepairs};
pub use measures::{core_gap, inconsistency_degree};
pub use nullrepair::{has_solution, null_tuple_repairs, NullTupleRepair, RepairStyle};
pub use planner::{
    answer_consistently, answer_consistently_budgeted, answer_consistently_incremental,
    plan_diagnostics, PlannedAnswer, Strategy,
};
pub use prioritized::{globally_optimal_repairs, pareto_optimal_repairs, PriorityRelation};
pub use privacy::SecrecyView;
pub use repair::{retain_subset_minimal, Change, Repair};
pub use rewrite::{attack_graph, residue_rewrite, rewrite_key_query, KeyRewriteError};
pub use session::CqaSession;
pub use srepair::{consistent_core, s_repairs, s_repairs_budgeted, s_repairs_with, RepairOptions};
pub use tolerant::{ar_answers, iar_answers};
pub use update_repair::{min_change_update_repair, update_repairs, CellUpdate, UpdateRepair};
