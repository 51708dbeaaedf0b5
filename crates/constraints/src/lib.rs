#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Untrusted input must never panic the process: unwraps/expects are banned
// outside tests (allow-listed per site where an invariant is locally proven).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # cqa-constraints
//!
//! Integrity constraints for the `inconsistent-db` workspace: denial
//! constraints, functional dependencies, key constraints, conditional
//! functional dependencies (§6), and inclusion dependencies / tgds (§2, §4.2)
//! — plus violation detection and the conflict hyper-graph of §4.1.
//!
//! Everything in the *denial class* (DCs, FDs, keys, CFDs) compiles down to
//! [`DenialConstraint`]s, whose violations are sets of jointly inconsistent
//! tuples; those sets are the hyper-edges of [`ConflictHypergraph`], on which
//! the repair algorithms of `cqa-core` operate. Tgds are kept separate
//! because their violations can be fixed by insertions, not only deletions.

pub mod cfd;
pub mod components;
pub mod constraint;
pub mod denial;
pub mod fd;
pub mod hypergraph;
pub mod ind;
pub mod parser;

pub use cfd::{CfdLhs, ConditionalFd, Pattern};
pub use components::{ComponentGraph, ComponentIndex, ConflictComponents, FactoredFamilies};
pub use constraint::{Constraint, ConstraintSet};
pub use denial::DenialConstraint;
pub use fd::{FunctionalDependency, KeyConstraint};
pub use hypergraph::ConflictHypergraph;
pub use ind::{InclusionDependency, Tgd, TgdViolation};
pub use parser::parse_constraints;
