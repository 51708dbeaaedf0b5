//! The shared diagnostic framework: stable codes, severities, messages, and
//! source context. Every static-analysis pass in the workspace reports
//! findings as [`Diagnostic`]s so tooling (the CLI `analyze` command, the
//! planner, the harness) can render them uniformly.

use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Structural information (classifications, recognized patterns).
    Info,
    /// Probably a mistake or a performance hazard; execution still sound.
    Warning,
    /// The input is rejected (unsafe rules, unsatisfiable constraints).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes. `A…` = ASP program analysis, `G…` = grounding,
/// `C…` = constraint-set lints, `Q…` = query lints, `L…` = workspace audit
/// lints (the `cqa-audit` static pass over this repository's own sources).
/// Codes never change meaning once shipped; new checks get new codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagCode {
    /// A001: a head/negated/comparison variable not bound by a positive
    /// body atom.
    UnsafeVariable,
    /// A002: recursion through default negation (the program is not
    /// stratified; stable-model search is required).
    RecursionThroughNegation,
    /// A003: two head disjuncts of one rule depend on each other through
    /// positive recursion (the program is not head-cycle-free).
    HeadCycle,
    /// A004: a rule is repeated verbatim.
    DuplicateRule,
    /// A005: a positive body predicate with no defining rule or fact — the
    /// rule can never fire.
    UndefinedPredicate,
    /// A006: the conflict hyper-graph splits into independent connected
    /// components — repair search and CQA factorize per component instead of
    /// exploring the cross-product.
    ConflictComponents,
    /// A007: how the planner revalidated cached conflict state against the
    /// instance's mutation epoch — applied the logged delta incrementally,
    /// found the cache current, or fell back to a full recompute (and why).
    IncrementalMaintenance,
    /// A008: which fold answered the repair family — the component fold
    /// over witness slices (with the witness count), or a per-repair fold
    /// with the subplan-cache hits/misses it accrued (or a note that
    /// sharing was disabled for the run).
    PlanCache,
    /// G001: the estimated grounding size exceeds the blow-up threshold.
    GroundingBlowup,
    /// C001: a constraint is repeated verbatim.
    DuplicateConstraint,
    /// C002: a denial constraint no (or only an empty) instance satisfies.
    UnsatisfiableConstraint,
    /// C003: a denial constraint implied by another via a body homomorphism.
    SubsumedConstraint,
    /// C004: a functional dependency whose attributes cover the whole
    /// schema — it is a key in disguise.
    FdIsKey,
    /// C005: inclusion dependencies form a cycle; insertion-based repairs
    /// may cascade.
    IndCycle,
    /// C006: a constraint whose comparisons are contradictory — it can
    /// never be violated.
    VacuousConstraint,
    /// Q001: an unsafe query variable.
    UnsafeQueryVariable,
    /// Q002: the query body is disconnected — a Cartesian product.
    CartesianProduct,
    /// Q003: the query's attack graph under the given keys is acyclic —
    /// certain answers are FO-rewritable and CQA runs in polynomial time.
    FoRewritable,
    /// Q004: the attack graph has a cycle (a pair of mutually attacking
    /// atoms witnesses it) — CQA for this query is coNP-complete and the
    /// planner must fall back to repair enumeration or a certificate
    /// backend.
    AttackCycle,
    /// L001: iteration over a hash container flows into collected/emitted
    /// order without an intervening sort or BTree rebuild, inside a
    /// determinism-contract crate.
    NondeterministicIteration,
    /// L002: a recursive or worklist function in a module marked
    /// `audit:exponential` does not thread a `Budget` (or the module never
    /// consults one) — the path cannot be cancelled or truncated.
    UnbudgetedExponentialPath,
    /// L003: `unwrap`/`expect`/`panic!`-family macros or slice indexing in
    /// non-test code of an input-surface crate, where untrusted input must
    /// never panic the process.
    PanicSurface,
    /// L004: raw `std::thread::spawn` or an ad-hoc `Mutex` outside
    /// `cqa-exec` — all parallelism must go through the pool so the
    /// cancellation and determinism contracts hold.
    AdHocParallelism,
    /// L005: `Instant::now`/`SystemTime::now`/environment reads outside the
    /// sanctioned modules (`cqa-exec` budget/config, the bench harness).
    AmbientAuthority,
    /// L006: `unsafe` code anywhere in the workspace (comment/string-aware;
    /// subsumes the old CI grep).
    UnsafeCode,
    /// E001: user-supplied input (a database/Σ file, query string, or
    /// command-line flag) failed to parse or validate. Always an error:
    /// execution cannot proceed, but the process reports and exits instead
    /// of panicking.
    InvalidInput,
}

impl DiagCode {
    /// Every defined code (documentation + CLI catalog order).
    pub const ALL: [DiagCode; 26] = [
        DiagCode::UnsafeVariable,
        DiagCode::RecursionThroughNegation,
        DiagCode::HeadCycle,
        DiagCode::DuplicateRule,
        DiagCode::UndefinedPredicate,
        DiagCode::ConflictComponents,
        DiagCode::IncrementalMaintenance,
        DiagCode::PlanCache,
        DiagCode::GroundingBlowup,
        DiagCode::DuplicateConstraint,
        DiagCode::UnsatisfiableConstraint,
        DiagCode::SubsumedConstraint,
        DiagCode::FdIsKey,
        DiagCode::IndCycle,
        DiagCode::VacuousConstraint,
        DiagCode::UnsafeQueryVariable,
        DiagCode::CartesianProduct,
        DiagCode::FoRewritable,
        DiagCode::AttackCycle,
        DiagCode::NondeterministicIteration,
        DiagCode::UnbudgetedExponentialPath,
        DiagCode::PanicSurface,
        DiagCode::AdHocParallelism,
        DiagCode::AmbientAuthority,
        DiagCode::UnsafeCode,
        DiagCode::InvalidInput,
    ];

    /// The stable code string, e.g. `"A001"`.
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::UnsafeVariable => "A001",
            DiagCode::RecursionThroughNegation => "A002",
            DiagCode::HeadCycle => "A003",
            DiagCode::DuplicateRule => "A004",
            DiagCode::UndefinedPredicate => "A005",
            DiagCode::ConflictComponents => "A006",
            DiagCode::IncrementalMaintenance => "A007",
            DiagCode::PlanCache => "A008",
            DiagCode::GroundingBlowup => "G001",
            DiagCode::DuplicateConstraint => "C001",
            DiagCode::UnsatisfiableConstraint => "C002",
            DiagCode::SubsumedConstraint => "C003",
            DiagCode::FdIsKey => "C004",
            DiagCode::IndCycle => "C005",
            DiagCode::VacuousConstraint => "C006",
            DiagCode::UnsafeQueryVariable => "Q001",
            DiagCode::CartesianProduct => "Q002",
            DiagCode::FoRewritable => "Q003",
            DiagCode::AttackCycle => "Q004",
            DiagCode::NondeterministicIteration => "L001",
            DiagCode::UnbudgetedExponentialPath => "L002",
            DiagCode::PanicSurface => "L003",
            DiagCode::AdHocParallelism => "L004",
            DiagCode::AmbientAuthority => "L005",
            DiagCode::UnsafeCode => "L006",
            DiagCode::InvalidInput => "E001",
        }
    }

    /// Short kebab-case name, e.g. `"unsafe-variable"`.
    pub fn name(self) -> &'static str {
        match self {
            DiagCode::UnsafeVariable => "unsafe-variable",
            DiagCode::RecursionThroughNegation => "recursion-through-negation",
            DiagCode::HeadCycle => "head-cycle",
            DiagCode::DuplicateRule => "duplicate-rule",
            DiagCode::UndefinedPredicate => "undefined-predicate",
            DiagCode::ConflictComponents => "conflict-components",
            DiagCode::IncrementalMaintenance => "incremental-maintenance",
            DiagCode::PlanCache => "plan-cache",
            DiagCode::GroundingBlowup => "grounding-blowup",
            DiagCode::DuplicateConstraint => "duplicate-constraint",
            DiagCode::UnsatisfiableConstraint => "unsatisfiable-constraint",
            DiagCode::SubsumedConstraint => "subsumed-constraint",
            DiagCode::FdIsKey => "fd-is-key",
            DiagCode::IndCycle => "ind-cycle",
            DiagCode::VacuousConstraint => "vacuous-constraint",
            DiagCode::UnsafeQueryVariable => "unsafe-query-variable",
            DiagCode::CartesianProduct => "cartesian-product",
            DiagCode::FoRewritable => "fo-rewritable",
            DiagCode::AttackCycle => "attack-cycle",
            DiagCode::NondeterministicIteration => "nondeterministic-iteration",
            DiagCode::UnbudgetedExponentialPath => "unbudgeted-exponential-path",
            DiagCode::PanicSurface => "panic-surface",
            DiagCode::AdHocParallelism => "ad-hoc-parallelism",
            DiagCode::AmbientAuthority => "ambient-authority",
            DiagCode::UnsafeCode => "unsafe-code",
            DiagCode::InvalidInput => "invalid-input",
        }
    }

    /// The severity this code carries unless overridden.
    pub fn default_severity(self) -> Severity {
        match self {
            DiagCode::UnsafeVariable
            | DiagCode::UnsatisfiableConstraint
            | DiagCode::UnsafeQueryVariable
            | DiagCode::UnsafeCode
            | DiagCode::InvalidInput => Severity::Error,
            DiagCode::DuplicateRule
            | DiagCode::UndefinedPredicate
            | DiagCode::GroundingBlowup
            | DiagCode::DuplicateConstraint
            | DiagCode::SubsumedConstraint
            | DiagCode::IndCycle
            | DiagCode::VacuousConstraint
            | DiagCode::CartesianProduct
            | DiagCode::NondeterministicIteration
            | DiagCode::UnbudgetedExponentialPath
            | DiagCode::PanicSurface
            | DiagCode::AdHocParallelism
            | DiagCode::AmbientAuthority => Severity::Warning,
            DiagCode::RecursionThroughNegation
            | DiagCode::HeadCycle
            | DiagCode::FdIsKey
            | DiagCode::FoRewritable
            | DiagCode::AttackCycle
            | DiagCode::ConflictComponents
            | DiagCode::IncrementalMaintenance
            | DiagCode::PlanCache => Severity::Info,
        }
    }

    /// One-line description for the code catalog.
    pub fn summary(self) -> &'static str {
        match self {
            DiagCode::UnsafeVariable => {
                "a head/negated/comparison variable is not bound by a positive body atom"
            }
            DiagCode::RecursionThroughNegation => {
                "recursion through default negation: the program is not stratified"
            }
            DiagCode::HeadCycle => {
                "head disjuncts depend on each other through positive recursion (not head-cycle-free)"
            }
            DiagCode::DuplicateRule => "a rule is repeated verbatim",
            DiagCode::UndefinedPredicate => {
                "a positive body predicate has no defining rule or fact: the rule can never fire"
            }
            DiagCode::ConflictComponents => {
                "the conflict hyper-graph has independent components: repairs and CQA factorize"
            }
            DiagCode::IncrementalMaintenance => {
                "how cached conflict state was revalidated: incremental delta, current, or full recompute"
            }
            DiagCode::PlanCache => {
                "which fold answered the repair family: witness slices (witness count), or per-repair evaluation with subplan-cache hits/misses"
            }
            DiagCode::GroundingBlowup => {
                "the estimated grounding size exceeds the blow-up threshold"
            }
            DiagCode::DuplicateConstraint => "a constraint is repeated verbatim",
            DiagCode::UnsatisfiableConstraint => {
                "no (or only an empty) instance satisfies this denial constraint"
            }
            DiagCode::SubsumedConstraint => {
                "a denial constraint is implied by another (body homomorphism): it is redundant"
            }
            DiagCode::FdIsKey => {
                "a functional dependency covering every attribute of its relation is a key"
            }
            DiagCode::IndCycle => {
                "inclusion dependencies form a cycle: insertion-based repairs may cascade"
            }
            DiagCode::VacuousConstraint => {
                "the constraint's comparisons are contradictory: it can never be violated"
            }
            DiagCode::UnsafeQueryVariable => "an unsafe query variable",
            DiagCode::CartesianProduct => {
                "the query body is disconnected and evaluates a Cartesian product"
            }
            DiagCode::FoRewritable => {
                "the attack graph is acyclic: certain answers are FO-rewritable (PTIME route)"
            }
            DiagCode::AttackCycle => {
                "the attack graph is cyclic: CQA is coNP-complete (witness pair reported)"
            }
            DiagCode::NondeterministicIteration => {
                "hash-container iteration flows into output order without a sort or BTree rebuild"
            }
            DiagCode::UnbudgetedExponentialPath => {
                "a recursive/worklist function on an exponential path does not thread a Budget"
            }
            DiagCode::PanicSurface => {
                "unwrap/expect/panic!/indexing in non-test code of an input-surface crate"
            }
            DiagCode::AdHocParallelism => {
                "thread spawning or ad-hoc locking outside the cqa-exec pool"
            }
            DiagCode::AmbientAuthority => {
                "clock or environment access outside the sanctioned modules"
            }
            DiagCode::UnsafeCode => "unsafe code is banned workspace-wide",
            DiagCode::InvalidInput => {
                "user-supplied input failed to parse; the process reports and exits, never panics"
            }
        }
    }
}

/// One analysis finding: a stable code, a severity, a human message, and
/// optional source context (the offending rule/constraint text and index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: DiagCode,
    /// Severity (defaults to [`DiagCode::default_severity`]).
    pub severity: Severity,
    /// Human-readable explanation of this specific finding.
    pub message: String,
    /// Source context: the offending rule / constraint, pretty-printed.
    pub context: Option<String>,
    /// Index of the offending rule or constraint in its program/set.
    pub index: Option<usize>,
}

impl Diagnostic {
    /// A diagnostic with the code's default severity and no context.
    pub fn new(code: DiagCode, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            context: None,
            index: None,
        }
    }

    /// Attach pretty-printed source context.
    pub fn with_context(mut self, context: impl Into<String>) -> Diagnostic {
        self.context = Some(context.into());
        self
    }

    /// Attach the rule/constraint index.
    pub fn with_index(mut self, index: usize) -> Diagnostic {
        self.index = Some(index);
        self
    }

    /// Override the default severity.
    pub fn with_severity(mut self, severity: Severity) -> Diagnostic {
        self.severity = severity;
        self
    }

    /// Is this an error?
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity,
            self.code.code(),
            self.code.name(),
            self.message
        )?;
        if let Some(ctx) = &self.context {
            let loc = match self.index {
                Some(i) => format!("{i}: "),
                None => String::new(),
            };
            write!(f, "\n  --> {loc}{ctx}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for c in DiagCode::ALL {
            assert!(seen.insert(c.code()), "duplicate code {}", c.code());
            assert!(!c.name().is_empty());
            assert!(!c.summary().is_empty());
        }
        assert_eq!(DiagCode::UnsafeVariable.code(), "A001");
        assert_eq!(DiagCode::SubsumedConstraint.code(), "C003");
    }

    #[test]
    fn display_includes_code_severity_and_context() {
        let d = Diagnostic::new(DiagCode::UnsafeVariable, "variable `x` is unbound")
            .with_context("p(x) :- not q(x).")
            .with_index(2);
        let s = d.to_string();
        assert!(s.contains("error[A001] unsafe-variable"), "{s}");
        assert!(s.contains("--> 2: p(x) :- not q(x)."), "{s}");
    }
}
