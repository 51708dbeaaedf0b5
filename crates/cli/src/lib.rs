#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Untrusted input must never panic the process: unwraps/expects are banned
// outside tests (allow-listed per site where an invariant is locally proven).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! `repairctl` — command-line repairs and consistent query answering.
//!
//! Databases are text files in the `cqa-relation` codec format; constraint
//! sets use the `cqa-constraints` Σ-file format. Run `repairctl help` for
//! the command reference. The dispatcher lives in a library so the test
//! suite can drive it end-to-end without spawning processes.

use cqa_analysis::{DiagCode, Diagnostic};
use cqa_constraints::{parse_constraints, ConstraintSet};
use cqa_core::{RepairClass, Strategy};
use cqa_exec::{Budget, Limits, Outcome};
use cqa_query::{parse_query, UnionQuery};
use cqa_relation::Database;
use std::fmt::Write as _;
use std::sync::Arc;

/// Parsed command-line options: positionals and `--flag [value]` pairs.
struct Opts {
    flags: Vec<(String, Option<String>)>,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut flags = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it
                    .peek()
                    .filter(|v| !v.starts_with("--"))
                    .map(|v| (*v).clone());
                if value.is_some() {
                    it.next();
                }
                flags.push((name.to_string(), value));
            } else {
                // Positional arguments are currently unused; tolerate them
                // so `repairctl cqa extra` degrades gracefully.
            }
        }
        Opts { flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.flag(name)
            .ok_or_else(|| format!("missing required option --{name} <value>"))
    }
}

/// Render a user-input failure through the shared diagnostic machinery
/// (`error[E001] invalid-input: …` with the offending file or flag as
/// source context), so bad input is *reported* — uniformly with the
/// `analyze` lints — and the process exits nonzero instead of panicking.
fn input_error(message: impl Into<String>, context: &str) -> String {
    Diagnostic::new(DiagCode::InvalidInput, message)
        .with_context(context)
        .to_string()
}

fn load_db(opts: &Opts) -> Result<Database, String> {
    let path = opts.require("db")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| input_error(format!("reading: {e}"), path))?;
    cqa_relation::load(&text).map_err(|e| input_error(e.to_string(), path))
}

fn load_sigma(opts: &Opts) -> Result<ConstraintSet, String> {
    let path = opts.require("constraints")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| input_error(format!("reading: {e}"), path))?;
    parse_constraints(&text).map_err(|e| input_error(e.to_string(), path))
}

fn load_query(opts: &Opts) -> Result<UnionQuery, String> {
    let q = opts.require("query")?;
    parse_query(q)
        .map(UnionQuery::single)
        .map_err(|e| input_error(e.to_string(), &format!("--query {q}")))
}

/// Parse one optional non-negative integer flag.
fn u64_flag(opts: &Opts, name: &str) -> Result<Option<u64>, String> {
    if !opts.has(name) {
        return Ok(None);
    }
    let v = opts.require(name)?;
    v.parse::<u64>().map(Some).map_err(|_| {
        input_error(
            format!("expected a non-negative integer, got `{v}`"),
            &format!("--{name}"),
        )
    })
}

/// Build the execution [`Budget`] from the global flags. With no flag set,
/// `CQA_BUDGET_STEPS` (if present) applies; otherwise the budget is
/// unlimited and every budgeted path reduces to the exact one.
fn budget_from(opts: &Opts) -> Result<Budget, String> {
    let limits = Limits {
        deadline_ms: u64_flag(opts, "timeout-ms")?,
        steps: u64_flag(opts, "budget-steps")?,
        items: u64_flag(opts, "max-repairs")?,
    };
    if limits.is_unlimited() {
        Ok(Budget::from_env().unwrap_or_else(Budget::unlimited))
    } else {
        Ok(Budget::new(limits))
    }
}

/// Report a truncated outcome. Exact outcomes print nothing, so with an
/// ample (or absent) budget the output is byte-identical to the
/// unbudgeted run — the determinism suites rely on this.
fn note_truncation<T>(out: &mut String, outcome: &Outcome<T>) {
    if let Some((reason, explored)) = outcome.truncation() {
        let _ = writeln!(out, "truncated: {reason} (explored {explored})");
    }
}

fn repair_class(opts: &Opts) -> Result<RepairClass, String> {
    match opts.flag("class").unwrap_or("subset") {
        "subset" | "s" => Ok(RepairClass::Subset),
        "cardinality" | "c" => Ok(RepairClass::Cardinality),
        "attribute" | "attr" => Ok(RepairClass::AttributeNull),
        "deletions" => Ok(RepairClass::SubsetDeletionsOnly),
        other => Err(format!(
            "unknown repair class `{other}` (use subset|cardinality|attribute|deletions)"
        )),
    }
}

/// Run a command; returns the process exit code. All output goes to `out`.
pub fn run(args: &[String], out: &mut String) -> Result<i32, String> {
    let Some((cmd, rest)) = args.split_first() else {
        out.push_str(HELP);
        return Ok(2);
    };
    let opts = Opts::parse(rest);
    // `--threads N` is accepted by every subcommand: it configures the
    // global `cqa-exec` pool (N = 1 forces the exact sequential code
    // paths). Without the flag the `CQA_THREADS` environment variable, and
    // then the detected core count, apply.
    if opts.has("threads") {
        let n: usize = opts
            .require("threads")?
            .parse()
            .map_err(|_| "--threads expects a positive number".to_string())?;
        if n == 0 {
            return Err("--threads expects a positive number".into());
        }
        cqa_exec::set_threads(n);
    }
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            out.push_str(HELP);
            Ok(0)
        }
        "analyze" => cmd_analyze(&opts, out),
        "audit" => cmd_audit(&opts, out),
        "check" => cmd_check(&opts, out),
        "repairs" => cmd_repairs(&opts, out),
        "cqa" => cmd_cqa(&opts, out),
        "causes" => cmd_causes(&opts, out),
        "measure" => cmd_measure(&opts, out),
        "clean" => cmd_clean(&opts, out),
        "asp" => cmd_asp(&opts, out),
        "serve" => cmd_serve(&opts, out),
        "sql" => cmd_sql(&opts, out),
        other => Err(format!("unknown command `{other}`; see `repairctl help`")),
    }
}

const HELP: &str = "\
repairctl — database repairs and consistent query answering

USAGE:
  repairctl <command> --db <file.idb> [--constraints <sigma.txt>] [options]

GLOBAL OPTIONS:
  --threads N      worker threads for repair enumeration / CQA / hitting-set
                   search (1 = sequential; default: $CQA_THREADS, else cores)
  --timeout-ms N   wall-clock budget; on expiry the command reports a sound
                   partial (anytime) result flagged by a `truncated:` line.
                   N = 0 truncates *immediately* (it is not \"unlimited\"):
                   enumeration-backed paths return their sound seed
                   approximation, while polynomial paths (FO rewriting)
                   still answer exactly — they are budget-exempt
  --budget-steps N logical-step budget — deterministic: the same N truncates
                   at the same point at any thread count
                   (default: $CQA_BUDGET_STEPS, else unlimited)
  --max-repairs N  stop after N repairs / models have been enumerated

  Budgets apply to the exponential commands (repairs, cqa, causes, asp).
  Exceeding one is not an error: certain answers degrade to a sound
  under-approximation, possible answers to an over-approximation, repair
  lists to a verified subset.

COMMANDS:
  analyze   [--program F.asp] [--constraints F [--db F]] [--query \"…\"]
            [--catalog] [--components] [--plan] [--deny]
                                            static analysis & diagnostics:
                                            classification (stratified /
                                            head-cycle-free / full), strata,
                                            grounding estimate, lints;
                                            with --query + keys-only
                                            --constraints + --db, reports the
                                            CQA dichotomy (Q003 FO-rewritable
                                            / Q004 coNP witness);
                                            --components adds the conflict-
                                            component histogram, the block-
                                            shaped count, frozen-core
                                            fraction and product-size savings;
                                            --plan (with --query + --db) prints
                                            the cost-based join order, per-step
                                            cardinality estimates, and the
                                            subplan-cache hit/miss counters
  audit     [--root DIR] [--baseline F] [--deny] [--print-baseline]
                                            L-series workspace invariant
                                            lints over this repository's own
                                            sources (L001 hash-order leak,
                                            L002 unbudgeted exponential path,
                                            L003 panic surface, L004 ad-hoc
                                            parallelism, L005 ambient clock/
                                            env, L006 unsafe); baseline
                                            defaults to <root>/audit.baseline
  check     --db F --constraints F          consistency + violation report
  repairs   --db F --constraints F          enumerate repairs
            [--class subset|cardinality|attribute|deletions] [--limit N]
  cqa       --db F --constraints F --query \"Q(x) :- R(x, y)\"
            [--class …] [--possible]        consistent (or possible) answers
  causes    --db F --query \"Q() :- …\"       causes + responsibilities
  measure   --db F --constraints F          inconsistency degree / core gap
  clean     --db F --constraints F [--out F] cost-based FD/CFD cleaning
  asp       --db F --constraints F [--c-repairs]
                                            repair program + stable models
  serve     [--port N] [--host H] [--max-inflight N] [--max-sessions N]
            [--default-timeout-ms N] [--max-timeout-ms N]
                                            run repaird, the multi-tenant CQA
                                            server (HTTP/1.1 + JSON over
                                            loopback by default; port 0 picks
                                            a free port, printed on stdout);
                                            blocks until POST /shutdown;
                                            per-request budgets honour the
                                            same truncation contract as the
                                            one-shot commands
  sql       --db F --constraints F --query … print the certain FO rewriting
                                            as a DBMS-ready SQL statement
  help                                       this text

EXIT CODES (analyze, audit):
  0  clean, or only info/warning diagnostics without --deny
  1  an error-severity diagnostic fired; with --deny, any diagnostic at
     warning or above (audit: any unbaselined finding or stale baseline
     entry) — this is the CI gate
  2  usage or input error (bad flags, unreadable files, parse failures)
  Other commands keep their documented meanings (e.g. `check` exits 1 on an
  inconsistent instance); usage/input errors are always exit 2.

FILES:
  databases:   @relation R(A, B) headers + one tuple per line
  constraints: key/fd/dc/tgd/cfd lines (see cqa-constraints docs)
";

fn cmd_analyze(opts: &Opts, out: &mut String) -> Result<i32, String> {
    use cqa_analysis::{DiagCode, Diagnostic};

    if opts.has("catalog") {
        let _ = writeln!(out, "diagnostic code catalog:");
        for code in DiagCode::ALL {
            let _ = writeln!(
                out,
                "  {} {:<26} [{}] {}",
                code.code(),
                code.name(),
                code.default_severity(),
                code.summary()
            );
        }
        return Ok(0);
    }

    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut analyzed_anything = false;
    let mut sigma_db: Option<(ConstraintSet, Option<Database>)> = None;

    // ASP program analysis (classification, strata, grounding estimate).
    if let Some(path) = opts.flag("program") {
        analyzed_anything = true;
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let program = cqa_asp::parse_asp(&text).map_err(|e| format!("{path}: {e}"))?;
        let analysis = cqa_asp::analyze_program(&program);
        let _ = writeln!(out, "program: {path}");
        let _ = writeln!(
            out,
            "  {} rules, {} weak constraint(s)",
            program.rules.len(),
            program.weak.len()
        );
        let _ = writeln!(out, "  {}", analysis.classification_line());
        if let Err(d) = program.check_safety() {
            diagnostics.push(d);
        }
        diagnostics.extend(analysis.diagnostics);
    }

    // Constraint-set lints (schema-aware when --db is given).
    if opts.has("constraints") {
        analyzed_anything = true;
        let sigma = load_sigma(opts)?;
        let db = if opts.has("db") {
            Some(load_db(opts)?)
        } else {
            None
        };
        let _ = writeln!(
            out,
            "constraints: {} constraint(s)",
            sigma.constraints.len()
        );
        diagnostics.extend(cqa_analysis::lint_constraints(&sigma, db.as_ref()));

        // Conflict-component factorization report (needs the instance).
        if opts.has("components") {
            let Some(db) = db.as_ref() else {
                return Err("--components needs --db <file> to build the conflict graph".into());
            };
            let budget = budget_from(opts)?;
            let graph = sigma.conflict_hypergraph(db).map_err(|e| e.to_string())?;
            let components = graph.components();
            let conflicted: usize = components.components.iter().map(|c| c.node_count()).sum();
            let total = db.tids().len();
            // The frozen core: every tuple outside the components.
            let core = total.saturating_sub(conflicted);
            let _ = writeln!(
                out,
                "conflict components: {} ({} conflicted tuple(s); frozen core {}/{} = {:.1}%)",
                components.components.len(),
                conflicted,
                core,
                total,
                if total == 0 {
                    100.0
                } else {
                    100.0 * core as f64 / total as f64
                },
            );
            // Component-size histogram (tuples per component).
            let mut histogram: std::collections::BTreeMap<usize, usize> =
                std::collections::BTreeMap::new();
            for c in &components.components {
                *histogram.entry(c.node_count()).or_default() += 1;
            }
            for (size, count) in &histogram {
                let _ = writeln!(out, "  {count} component(s) of {size} tuple(s)");
            }
            let blocks = components
                .components
                .iter()
                .filter(|c| c.graph().is_block_shaped())
                .count();
            let _ = writeln!(
                out,
                "  block-shaped: {blocks} of {} (families read off their classes, not searched)",
                components.components.len(),
            );
            // Estimated product-size savings: enumerate the per-component
            // S-repair families (budgeted) and compare Σ against ∏.
            let families = components.minimal_hitting_sets_factored(&budget);
            note_truncation(out, &families);
            let families = families.into_value();
            let factored = families.factored_len();
            let product = families.product_len();
            let product_str = match product {
                Some(p) => p.to_string(),
                None => "> usize::MAX".to_string(),
            };
            let savings = match product {
                Some(p) if factored > 0 => format!("{:.1}×", p as f64 / factored as f64),
                _ => "∞".to_string(),
            };
            let _ = writeln!(
                out,
                "  repair families: {factored} component-local vs {product_str} \
                 cross-product (estimated savings {savings})",
            );
            if components.components.len() >= 2 {
                diagnostics.push(Diagnostic::new(
                    DiagCode::ConflictComponents,
                    format!(
                        "repair search factorizes over {} independent components \
                         (largest: {} tuples)",
                        components.components.len(),
                        components.largest_component(),
                    ),
                ));
            }
        }
        sigma_db = Some((sigma, db));
    }

    // Query lints, plus — when Σ is keys-only and the schema is at hand —
    // the Koutris–Wijsen dichotomy verdict (Q003/Q004).
    if let Some(q) = opts.flag("query") {
        analyzed_anything = true;
        match parse_query(q) {
            Ok(cq) => {
                diagnostics.extend(cqa_analysis::lint_query(&cq));
                if let Some((sigma, Some(db))) = &sigma_db {
                    if let Some(keys) = keys_only(db, sigma) {
                        diagnostics.extend(cqa_core::rewrite::keys::rewritability_diagnostic(
                            &cq, &keys,
                        ));
                    }
                }
                // Cost-based plan report: the chosen join order with its
                // per-step cardinality estimates, plus the subplan-cache
                // counters that govern repair-family sharing.
                if opts.has("plan") {
                    let db_owned;
                    let db = match &sigma_db {
                        Some((_, Some(db))) => db,
                        _ if opts.has("db") => {
                            db_owned = load_db(opts)?;
                            &db_owned
                        }
                        _ => {
                            return Err(
                                "--plan needs --db <file> for cardinality statistics".into()
                            );
                        }
                    };
                    let plan = cqa_query::plan::explain(db, &cq);
                    let _ = writeln!(out, "join order: {}", plan.describe());
                    for step in &plan.steps {
                        let _ = writeln!(
                            out,
                            "  atom {}: {:<16} ~{} row(s) via {}",
                            step.atom, step.relation, step.estimate, step.access,
                        );
                    }
                    let _ = writeln!(out, "  estimated witnesses: {}", plan.estimated_witnesses());
                    let stats = cqa_query::plan_cache_stats();
                    let _ = writeln!(
                        out,
                        "subplan cache: {} (hits {}, misses {}, entries {})",
                        if cqa_exec::plan_cache_enabled() {
                            "enabled"
                        } else {
                            "disabled"
                        },
                        stats.hits,
                        stats.misses,
                        stats.entries,
                    );
                }
            }
            Err(e) => return Err(input_error(e.to_string(), &format!("--query {q}"))),
        }
    }

    if !analyzed_anything {
        return Err(
            "analyze needs at least one of --program, --constraints, --query (or --catalog)".into(),
        );
    }

    if diagnostics.is_empty() {
        let _ = writeln!(out, "no diagnostics");
        return Ok(0);
    }
    let _ = writeln!(out, "{} diagnostic(s):", diagnostics.len());
    let mut worst_is_error = false;
    let mut any_deniable = false;
    for d in &diagnostics {
        worst_is_error |= d.is_error();
        any_deniable |= d.severity >= cqa_analysis::Severity::Warning;
        let _ = writeln!(out, "{d}");
    }
    // Exit semantics (documented under EXIT CODES in `--help`): errors
    // always fail; with --deny, warnings fail too, so CI can gate on lints.
    Ok(if worst_is_error || (opts.has("deny") && any_deniable) {
        1
    } else {
        0
    })
}

/// Σ as key positions, if it consists solely of key constraints (at most
/// one per relation) whose attributes resolve against the schema.
fn keys_only(
    db: &Database,
    sigma: &ConstraintSet,
) -> Option<cqa_core::rewrite::keys::KeyPositions> {
    let mut keys = cqa_core::rewrite::keys::KeyPositions::new();
    for c in &sigma.constraints {
        let cqa_constraints::Constraint::Key(k) = c else {
            return None;
        };
        let schema = db.relation(&k.relation)?.schema().clone();
        let positions = schema.positions_of(k.key.iter().map(String::as_str)).ok()?;
        if keys.insert(k.relation.clone(), positions).is_some() {
            return None; // two keys on one relation: outside the dichotomy
        }
    }
    Some(keys)
}

/// `repairctl audit` — run the L-series workspace lints (see `cqa-audit`)
/// and match the result against the checked-in baseline.
fn cmd_audit(opts: &Opts, out: &mut String) -> Result<i32, String> {
    use std::path::PathBuf;

    // Workspace root: --root, else the current directory, else (when the
    // binary runs from somewhere else entirely, e.g. `cargo run` out of a
    // subdirectory) the compile-time workspace location.
    let root: PathBuf = match opts.flag("root") {
        Some(dir) => PathBuf::from(dir),
        None => {
            let cwd = PathBuf::from(".");
            if cwd.join("crates").is_dir() {
                cwd
            } else {
                PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
            }
        }
    };
    if !root.join("crates").is_dir() {
        return Err(input_error(
            "not a workspace root (no crates/ directory); pass --root <dir>",
            &root.display().to_string(),
        ));
    }

    let report = cqa_audit::audit_workspace(&root)
        .map_err(|e| input_error(e, &root.display().to_string()))?;

    if opts.has("print-baseline") {
        out.push_str(&cqa_audit::Baseline::render(&report.findings));
        return Ok(0);
    }

    let baseline_path: PathBuf = match opts.flag("baseline") {
        Some(p) => PathBuf::from(p),
        None => root.join("audit.baseline"),
    };
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => cqa_audit::Baseline::parse(&text)
            .map_err(|e| input_error(e, &baseline_path.display().to_string()))?,
        // A missing *default* baseline means "empty"; a missing explicit
        // --baseline is a user error.
        Err(e) if opts.has("baseline") => {
            return Err(input_error(
                format!("reading: {e}"),
                &baseline_path.display().to_string(),
            ));
        }
        Err(_) => cqa_audit::Baseline::default(),
    };
    let outcome = baseline.apply(report.findings);

    let _ = writeln!(
        out,
        "audited {} file(s), {} KiB: {} finding(s) ({} suppressed by baseline, {} stale entr{})",
        report.files,
        report.bytes / 1024,
        outcome.active.len(),
        outcome.suppressed,
        outcome.stale.len(),
        if outcome.stale.len() == 1 { "y" } else { "ies" },
    );
    let mut worst_is_error = false;
    for f in &outcome.active {
        let d = f.to_diagnostic();
        worst_is_error |= d.is_error();
        let _ = writeln!(out, "{d}");
    }
    for s in &outcome.stale {
        let _ = writeln!(out, "stale: {s}");
    }
    let deny_hit = opts.has("deny") && (!outcome.active.is_empty() || !outcome.stale.is_empty());
    Ok(if worst_is_error || deny_hit { 1 } else { 0 })
}

fn cmd_check(opts: &Opts, out: &mut String) -> Result<i32, String> {
    let db = load_db(opts)?;
    let sigma = load_sigma(opts)?;
    let ok = sigma.is_satisfied(&db).map_err(|e| e.to_string())?;
    let _ = writeln!(out, "consistent: {ok}");
    if !ok {
        let denial = sigma.denial_violations(&db).map_err(|e| e.to_string())?;
        let tgd = sigma.tgd_violations(&db);
        let _ = writeln!(out, "denial-class violations: {}", denial.len());
        for v in denial.iter().take(20) {
            let tids: Vec<String> = v.iter().map(|t| t.to_string()).collect();
            let _ = writeln!(out, "  {{{}}}", tids.join(", "));
        }
        let _ = writeln!(out, "tgd violations: {}", tgd.len());
        return Ok(1);
    }
    Ok(0)
}

fn cmd_repairs(opts: &Opts, out: &mut String) -> Result<i32, String> {
    let db = load_db(opts)?;
    let sigma = load_sigma(opts)?;
    let class = repair_class(opts)?;
    let budget = budget_from(opts)?;
    let limit: Option<usize> = match opts.flag("limit") {
        Some(n) => Some(
            n.parse()
                .map_err(|_| "--limit expects a number".to_string())?,
        ),
        None => None,
    };
    match class {
        RepairClass::AttributeNull => {
            // Attribute repairs are computed in polynomial time; no budget
            // is needed and the result is always exact.
            let repairs = cqa_core::attribute_repairs(&db, &sigma).map_err(|e| e.to_string())?;
            let _ = writeln!(out, "{} attribute repairs", repairs.len());
            for r in repairs.iter().take(limit.unwrap_or(usize::MAX)) {
                let _ = writeln!(out, "  {r}");
            }
        }
        RepairClass::Cardinality => {
            let base = Arc::new(db);
            let repairs = cqa_core::c_repairs_budgeted(
                &base,
                &sigma,
                &cqa_core::RepairOptions::default(),
                &budget,
            )
            .map_err(|e| e.to_string())?;
            note_truncation(out, &repairs);
            let repairs = repairs.into_value();
            let _ = writeln!(out, "{} C-repairs", repairs.len());
            for r in repairs.iter().take(limit.unwrap_or(usize::MAX)) {
                let _ = writeln!(out, "  {r}");
            }
        }
        _ => {
            let options = cqa_core::RepairOptions {
                limit,
                allow_insertions: !matches!(class, RepairClass::SubsetDeletionsOnly),
                ..Default::default()
            };
            let base = Arc::new(db);
            let repairs = cqa_core::s_repairs_budgeted(&base, &sigma, &options, &budget)
                .map_err(|e| e.to_string())?;
            note_truncation(out, &repairs);
            let repairs = repairs.into_value();
            let _ = writeln!(out, "{} S-repairs", repairs.len());
            for r in &repairs {
                let _ = writeln!(out, "  {r}");
            }
        }
    }
    Ok(0)
}

fn cmd_cqa(opts: &Opts, out: &mut String) -> Result<i32, String> {
    let db = load_db(opts)?;
    let sigma = load_sigma(opts)?;
    let query = load_query(opts)?;
    let class = repair_class(opts)?;
    let budget = budget_from(opts)?;
    if opts.has("possible") {
        let answers = cqa_core::possible_answers_budgeted(&db, &sigma, &query, &class, &budget)
            .map_err(|e| e.to_string())?;
        note_truncation(out, &answers);
        let answers = answers.into_value();
        let _ = writeln!(out, "{} possible answers", answers.len());
        for t in &answers {
            let _ = writeln!(out, "  {t}");
        }
        return Ok(0);
    }
    // The planner reports its strategy for the default class.
    if matches!(class, RepairClass::Subset) {
        let planned = cqa_core::answer_consistently_budgeted(&db, &sigma, &query, &budget)
            .map_err(|e| e.to_string())?;
        note_truncation(out, &planned);
        let planned = planned.into_value();
        let strategy = match &planned.strategy {
            Strategy::FoRewriting => "FO rewriting (no repairs materialized)".to_string(),
            Strategy::DirectEvaluation => "direct evaluation (instance consistent)".to_string(),
            Strategy::RepairEnumeration { reason } => {
                format!("repair enumeration ({reason})")
            }
            Strategy::FactoredEnumeration {
                reason,
                factorization,
            } => {
                let product = match factorization.product_repairs {
                    Some(p) => p.to_string(),
                    None => "> usize::MAX".to_string(),
                };
                let noun = match factorization.components {
                    1 => "component",
                    _ => "components",
                };
                format!(
                    "factored repair enumeration over {} conflict {noun} \
                     ({}; folded {} component-local repairs, not {})",
                    factorization.components, reason, factorization.factored_repairs, product,
                )
            }
        };
        let _ = writeln!(out, "strategy: {strategy}");
        for d in &planned.diagnostics {
            let _ = writeln!(out, "note: {d}");
        }
        let _ = writeln!(out, "{} consistent answers", planned.answers.len());
        for t in &planned.answers {
            let _ = writeln!(out, "  {t}");
        }
    } else {
        let answers = cqa_core::consistent_answers_budgeted(&db, &sigma, &query, &class, &budget)
            .map_err(|e| e.to_string())?;
        note_truncation(out, &answers);
        let answers = answers.into_value();
        let _ = writeln!(out, "{} consistent answers", answers.len());
        for t in &answers {
            let _ = writeln!(out, "  {t}");
        }
    }
    Ok(0)
}

fn cmd_causes(opts: &Opts, out: &mut String) -> Result<i32, String> {
    let db = load_db(opts)?;
    let query = load_query(opts)?;
    let budget = budget_from(opts)?;
    if query.disjuncts.iter().any(|q| !q.is_boolean()) {
        return Err("causes are computed for Boolean queries; bind the answer constants".into());
    }
    let causes = cqa_causality::actual_causes_budgeted(&db, &query, &budget);
    note_truncation(out, &causes);
    let truncated = causes.is_truncated();
    let causes = causes.into_value();
    if causes.is_empty() {
        let _ = writeln!(
            out,
            "{}",
            if truncated {
                "no causes found within budget"
            } else {
                "query is false: no causes"
            }
        );
        return Ok(1);
    }
    let _ = writeln!(out, "{} actual causes", causes.len());
    for c in &causes {
        // Causes come from the support hypergraph of this very instance,
        // but print defensively: an unknown tid is reported, not a panic.
        match db.get(c.tid) {
            Some((rel, tuple)) => {
                let _ = writeln!(out, "  {} = {rel}{tuple}  {c}", c.tid);
            }
            None => {
                let _ = writeln!(out, "  {} = <tuple not in instance>  {c}", c.tid);
            }
        }
    }
    Ok(0)
}

fn cmd_measure(opts: &Opts, out: &mut String) -> Result<i32, String> {
    let db = load_db(opts)?;
    let sigma = load_sigma(opts)?;
    let degree = cqa_core::inconsistency_degree(&db, &sigma).map_err(|e| e.to_string())?;
    let gap = cqa_core::core_gap(&db, &sigma).map_err(|e| e.to_string())?;
    let _ = writeln!(out, "tuples: {}", db.total_tuples());
    let _ = writeln!(out, "inconsistency degree (C-repair): {degree:.4}");
    let _ = writeln!(out, "core gap (S-repairs): {gap:.4}");
    Ok(0)
}

fn cmd_clean(opts: &Opts, out: &mut String) -> Result<i32, String> {
    let db = load_db(opts)?;
    let sigma = load_sigma(opts)?;
    let mut spec = cqa_cleaning::CleaningSpec::new();
    for c in &sigma.constraints {
        match c {
            cqa_constraints::Constraint::Fd(fd) => spec.fds.push(fd.clone()),
            cqa_constraints::Constraint::Cfd(cfd) => spec.cfds.push(cfd.clone()),
            cqa_constraints::Constraint::Key(k) => {
                let schema = db
                    .require_relation(&k.relation)
                    .map_err(|e| e.to_string())?
                    .schema()
                    .clone();
                spec.fds.push(k.to_fd(&schema));
            }
            other => {
                return Err(format!(
                    "the cleaner handles FDs/keys/CFDs only; Σ contains: {other}"
                ))
            }
        }
    }
    let result = cqa_cleaning::clean(&db, &spec, &cqa_cleaning::CostModel::uniform())
        .map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "{} fixes, total cost {:.3}, {} round(s)",
        result.fixes.len(),
        result.total_cost,
        result.rounds
    );
    for f in &result.fixes {
        let _ = writeln!(out, "  {f}");
    }
    if let Some(path) = opts.flag("out") {
        std::fs::write(path, cqa_relation::save(&result.db))
            .map_err(|e| format!("writing {path}: {e}"))?;
        let _ = writeln!(out, "cleaned instance written to {path}");
    }
    Ok(0)
}

fn cmd_sql(opts: &Opts, out: &mut String) -> Result<i32, String> {
    use cqa_core::rewrite::keys::KeyPositions;
    let db = load_db(opts)?;
    let sigma = load_sigma(opts)?;
    let query = load_query(opts)?;
    let [cq] = &query.disjuncts[..] else {
        return Err("sql rendering needs a single conjunctive query".into());
    };
    // Keys-only Σ → attack-graph rewriting → SQL.
    let mut keys = KeyPositions::new();
    for c in &sigma.constraints {
        let cqa_constraints::Constraint::Key(k) = c else {
            return Err("sql rendering supports key-only constraint sets".into());
        };
        let schema = db
            .require_relation(&k.relation)
            .map_err(|e| e.to_string())?
            .schema()
            .clone();
        let positions = schema
            .positions_of(k.key.iter().map(String::as_str))
            .map_err(|e| e.to_string())?;
        keys.insert(k.relation.clone(), positions);
    }
    let fo = cqa_core::rewrite_key_query(cq, &keys).map_err(|e| e.to_string())?;
    let sql = cqa_query::fo_to_sql(&fo, &cq.head, &db).map_err(|e| e.to_string())?;
    let _ = writeln!(out, "{sql}");
    Ok(0)
}

/// `repairctl serve`: run `repaird`, the multi-tenant CQA server, until a
/// client posts `/shutdown`.
///
/// The listening line goes straight to stdout (not the buffered `out`):
/// callers scripting the server need the bound address *before* the
/// process blocks in the serve loop.
fn cmd_serve(opts: &Opts, out: &mut String) -> Result<i32, String> {
    let defaults = cqa_server::ServerConfig::default();
    let port = match u64_flag(opts, "port")? {
        Some(p) => {
            u16::try_from(p).map_err(|_| input_error(format!("port {p} out of range"), "--port"))?
        }
        None => defaults.port,
    };
    let usize_flag = |name: &str, fallback: usize| -> Result<usize, String> {
        match u64_flag(opts, name)? {
            Some(v) => usize::try_from(v)
                .map_err(|_| input_error(format!("{v} out of range"), &format!("--{name}"))),
            None => Ok(fallback),
        }
    };
    let config = cqa_server::ServerConfig {
        host: opts
            .flag("host")
            .unwrap_or(defaults.host.as_str())
            .to_string(),
        port,
        max_inflight: usize_flag("max-inflight", defaults.max_inflight)?,
        max_sessions: usize_flag("max-sessions", defaults.max_sessions)?,
        default_timeout_ms: u64_flag(opts, "default-timeout-ms")?,
        max_timeout_ms: u64_flag(opts, "max-timeout-ms")?.unwrap_or(defaults.max_timeout_ms),
        max_body_bytes: defaults.max_body_bytes,
    };
    let handle = cqa_server::start(config).map_err(|e| input_error(e, "serve"))?;
    println!("repaird listening on {}", handle.addr());
    let dropped = handle.join();
    let _ = writeln!(out, "repaird stopped ({dropped} sessions dropped)");
    Ok(0)
}

fn cmd_asp(opts: &Opts, out: &mut String) -> Result<i32, String> {
    let db = load_db(opts)?;
    let sigma = load_sigma(opts)?;
    let budget = budget_from(opts)?;
    let mut rp = cqa_asp::RepairProgram::build(&db, &sigma).map_err(|e| e.to_string())?;
    if opts.has("c-repairs") {
        rp.add_c_repair_weak_constraints();
    }
    let _ = writeln!(out, "% generated repair program\n{}", rp.program);
    let models = if opts.has("c-repairs") {
        rp.c_repair_models_budgeted(&budget)
            .map_err(|e| e.to_string())?
    } else {
        rp.s_repair_models_budgeted(&budget)
            .map_err(|e| e.to_string())?
    };
    // Output is an ASP document: keep the status line a comment.
    if let Some((reason, explored)) = models.truncation() {
        let _ = writeln!(out, "% truncated: {reason} (explored {explored})");
    }
    let models = models.into_value();
    let _ = writeln!(out, "% {} repair model(s)", models.len());
    for m in &models {
        let deleted: Vec<String> = m.deleted.iter().map(|t| t.to_string()).collect();
        let inserted: Vec<String> = m.inserted.iter().map(|(r, t)| format!("+{r}{t}")).collect();
        let _ = writeln!(
            out,
            "%   delete {{{}}} {}",
            deleted.join(", "),
            inserted.join(" ")
        );
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_files(dir: &std::path::Path) -> (String, String) {
        let db_path = dir.join("emp.idb");
        let sigma_path = dir.join("sigma.txt");
        std::fs::write(
            &db_path,
            "@relation Employee(Name, Salary)\n\
             'page', 5000\n\
             'page', 8000\n\
             'smith', 3000\n",
        )
        .unwrap();
        std::fs::write(&sigma_path, "key Employee(Name)\n").unwrap();
        (
            db_path.to_string_lossy().into_owned(),
            sigma_path.to_string_lossy().into_owned(),
        )
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("repairctl-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_cmd(args: &[&str]) -> (i32, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = String::new();
        let code = run(&args, &mut out).unwrap();
        (code, out)
    }

    #[test]
    fn check_reports_inconsistency() {
        let dir = tmpdir("check");
        let (db, sigma) = write_files(&dir);
        let (code, out) = run_cmd(&["check", "--db", &db, "--constraints", &sigma]);
        assert_eq!(code, 1);
        assert!(out.contains("consistent: false"));
        assert!(out.contains("denial-class violations: 1"));
    }

    #[test]
    fn repairs_listing() {
        let dir = tmpdir("repairs");
        let (db, sigma) = write_files(&dir);
        let (code, out) = run_cmd(&["repairs", "--db", &db, "--constraints", &sigma]);
        assert_eq!(code, 0);
        assert!(out.contains("2 S-repairs"));
        assert!(out.contains("- Employee(page, 5000)") || out.contains("- Employee(page, 8000)"));
    }

    #[test]
    fn cqa_uses_rewriting_strategy() {
        let dir = tmpdir("cqa");
        let (db, sigma) = write_files(&dir);
        let (code, out) = run_cmd(&[
            "cqa",
            "--db",
            &db,
            "--constraints",
            &sigma,
            "--query",
            "Q(x, y) :- Employee(x, y)",
        ]);
        assert_eq!(code, 0);
        assert!(out.contains("strategy: FO rewriting"), "{out}");
        assert!(out.contains("(smith, 3000)"));
        assert!(!out.contains("(page, 5000)"));
    }

    #[test]
    fn possible_answers_flag() {
        let dir = tmpdir("poss");
        let (db, sigma) = write_files(&dir);
        let (_, out) = run_cmd(&[
            "cqa",
            "--db",
            &db,
            "--constraints",
            &sigma,
            "--query",
            "Q(y) :- Employee('page', y)",
            "--possible",
        ]);
        assert!(out.contains("2 possible answers"));
    }

    #[test]
    fn causes_command() {
        let dir = tmpdir("causes");
        let (db, _) = write_files(&dir);
        let (code, out) = run_cmd(&[
            "causes",
            "--db",
            &db,
            "--query",
            "Q() :- Employee(x, y), Employee(x, z), y != z",
        ]);
        assert_eq!(code, 0);
        assert!(out.contains("2 actual causes"));
        assert!(out.contains("ρ = 1")); // both are counterfactual here
    }

    #[test]
    fn measure_and_asp() {
        let dir = tmpdir("measure");
        let (db, sigma) = write_files(&dir);
        let (_, out) = run_cmd(&["measure", "--db", &db, "--constraints", &sigma]);
        assert!(out.contains("inconsistency degree"));
        let (_, asp_out) = run_cmd(&["asp", "--db", &db, "--constraints", &sigma]);
        assert!(asp_out.contains("% 2 repair model(s)"), "{asp_out}");
        let (_, c_out) = run_cmd(&["asp", "--db", &db, "--constraints", &sigma, "--c-repairs"]);
        assert!(c_out.contains("repair model(s)"));
    }

    #[test]
    fn clean_writes_output_file() {
        let dir = tmpdir("clean");
        let (db, sigma) = write_files(&dir);
        let out_path = dir.join("cleaned.idb").to_string_lossy().into_owned();
        let (code, out) = run_cmd(&[
            "clean",
            "--db",
            &db,
            "--constraints",
            &sigma,
            "--out",
            &out_path,
        ]);
        assert_eq!(code, 0);
        assert!(out.contains("fixes"));
        let cleaned = cqa_relation::load(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        let spec_sigma = parse_constraints("key Employee(Name)").unwrap();
        assert!(spec_sigma.is_satisfied(&cleaned).unwrap());
    }

    #[test]
    fn sql_command_renders_rewriting() {
        let dir = tmpdir("sql");
        let (db, sigma) = write_files(&dir);
        let (code, out) = run_cmd(&[
            "sql",
            "--db",
            &db,
            "--constraints",
            &sigma,
            "--query",
            "Q(x, y) :- Employee(x, y)",
        ]);
        assert_eq!(code, 0);
        assert!(out.starts_with("SELECT DISTINCT"), "{out}");
        assert!(out.contains("NOT EXISTS"), "{out}");
    }

    #[test]
    fn sql_command_selects_every_head_term_of_a_key_rewriting() {
        let dir = tmpdir("sql-head");
        let db = dir.join("r.idb");
        std::fs::write(&db, "@relation R(K, V)\n1, 2\n1, 3\n2, 4\n").unwrap();
        let sigma = dir.join("r.sigma");
        std::fs::write(&sigma, "key R(K)\n").unwrap();
        let (db, sigma) = (db.to_string_lossy(), sigma.to_string_lossy());
        let blocked = "FROM R AS t1 WHERE NOT EXISTS \
                       (SELECT 1 FROM R AS t2 WHERE t2.K = t1.K AND NOT (TRUE))";
        for (query, select) in [
            ("Q(x) :- R(x, y)", "SELECT DISTINCT t1.K AS x"),
            ("Q(x, 7) :- R(x, y)", "SELECT DISTINCT t1.K AS x, 7"),
            ("Q(7) :- R(x, y)", "SELECT DISTINCT 7"),
        ] {
            let (code, out) = run_cmd(&[
                "sql",
                "--db",
                &db,
                "--constraints",
                &sigma,
                "--query",
                query,
            ]);
            assert_eq!(code, 0, "{query}: {out}");
            assert_eq!(out, format!("{select} {blocked}\n"), "{query}");
        }
    }

    #[test]
    fn analyze_catalog_documents_every_code() {
        let (code, out) = run_cmd(&["analyze", "--catalog"]);
        assert_eq!(code, 0);
        for c in [
            "A001", "A002", "A003", "A004", "A005", "A006", "G001", "C001", "C002", "C003", "C004",
            "C005", "C006", "Q001", "Q002", "Q003", "Q004", "L001", "L002", "L003", "L004", "L005",
            "L006", "E001",
        ] {
            assert!(out.contains(c), "catalog missing {c}:\n{out}");
        }
    }

    #[test]
    fn analyze_reports_fo_rewritable_dichotomy() {
        let dir = tmpdir("dichotomy-ptime");
        let (db, sigma) = write_files(&dir);
        let (code, out) = run_cmd(&[
            "analyze",
            "--db",
            &db,
            "--constraints",
            &sigma,
            "--query",
            "Q(x, y) :- Employee(x, y)",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("Q003"), "{out}");
        assert!(out.contains("FO-rewritable"), "{out}");
    }

    #[test]
    fn analyze_plan_prints_join_order_and_cache_counters() {
        let dir = tmpdir("analyze-plan");
        let (db, sigma) = write_files(&dir);
        let (code, out) = run_cmd(&[
            "analyze",
            "--db",
            &db,
            "--constraints",
            &sigma,
            "--query",
            "Q(x, y) :- Employee(x, y)",
            "--plan",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("join order: Employee"), "{out}");
        assert!(out.contains("estimated witnesses:"), "{out}");
        assert!(out.contains("subplan cache:"), "{out}");
        assert!(out.contains("hits"), "{out}");

        // Without --db the flag is an input error, not a panic.
        let args: Vec<String> = ["analyze", "--query", "Q(x) :- R(x)", "--plan"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run(&args, &mut String::new()).unwrap_err();
        assert!(err.contains("--plan needs --db"), "{err}");
    }

    #[test]
    fn analyze_reports_conp_witness_pair() {
        let dir = tmpdir("dichotomy-conp");
        let db_path = dir.join("rs.idb");
        let sigma_path = dir.join("rs-sigma.txt");
        std::fs::write(
            &db_path,
            "@relation R(A, B)\n1, 2\n@relation S(A, B)\n2, 1\n",
        )
        .unwrap();
        std::fs::write(&sigma_path, "key R(A)\nkey S(A)\n").unwrap();
        let (code, out) = run_cmd(&[
            "analyze",
            "--db",
            &db_path.to_string_lossy(),
            "--constraints",
            &sigma_path.to_string_lossy(),
            "--query",
            "Q() :- R(x, y), S(y, x)",
        ]);
        assert_eq!(code, 0, "{out}"); // Q004 is informational
        assert!(out.contains("Q004"), "{out}");
        assert!(out.contains("coNP-complete"), "{out}");
        assert!(out.contains("attack each"), "{out}");
    }

    #[test]
    fn analyze_deny_turns_warnings_into_exit_1() {
        let dir = tmpdir("deny");
        let path = dir.join("dup.asp");
        // A004 duplicate-rule is a warning: exit 0 normally, 1 under --deny.
        std::fs::write(&path, "p(x) :- r(x).\np(x) :- r(x).\nr(1).\n").unwrap();
        let p = path.to_string_lossy();
        let (code, out) = run_cmd(&["analyze", "--program", &p]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("A004"), "{out}");
        let (code, _) = run_cmd(&["analyze", "--program", &p, "--deny"]);
        assert_eq!(code, 1);
    }

    /// A miniature workspace for `audit` tests: one crate with an L006 hit.
    fn write_mini_workspace(dir: &std::path::Path) -> String {
        let src = dir.join("crates/x/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
        )
        .unwrap();
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn audit_finds_unsafe_and_baseline_absorbs_it() {
        let dir = tmpdir("audit");
        let root = write_mini_workspace(&dir);
        // Unbaselined: L006 is error severity → exit 1 even without --deny.
        let (code, out) = run_cmd(&["audit", "--root", &root]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("L006"), "{out}");
        assert!(out.contains("crates/x/src/lib.rs:1"), "{out}");
        // A justified baseline entry absorbs it.
        let baseline = dir.join("audit.baseline");
        std::fs::write(&baseline, "L006 crates/x/src/lib.rs f 1 -- test fixture\n").unwrap();
        let (code, out) = run_cmd(&[
            "audit",
            "--root",
            &root,
            "--baseline",
            &baseline.to_string_lossy(),
            "--deny",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("1 suppressed"), "{out}");
    }

    #[test]
    fn audit_deny_fails_on_stale_baseline_entries() {
        let dir = tmpdir("audit-stale");
        let root = write_mini_workspace(&dir);
        let baseline = dir.join("stale.baseline");
        std::fs::write(
            &baseline,
            "L006 crates/x/src/lib.rs f 1 -- test fixture\n\
             L004 crates/gone/src/lib.rs <module> 1 -- no longer exists\n",
        )
        .unwrap();
        let b = baseline.to_string_lossy();
        let (code, out) = run_cmd(&["audit", "--root", &root, "--baseline", &b]);
        assert_eq!(code, 0, "{out}"); // stale is only fatal under --deny
        assert!(out.contains("stale"), "{out}");
        let (code, _) = run_cmd(&["audit", "--root", &root, "--baseline", &b, "--deny"]);
        assert_eq!(code, 1);
    }

    #[test]
    fn audit_print_baseline_emits_template() {
        let dir = tmpdir("audit-print");
        let root = write_mini_workspace(&dir);
        let (code, out) = run_cmd(&["audit", "--root", &root, "--print-baseline"]);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("L006 crates/x/src/lib.rs f 1 -- TODO: justify"),
            "{out}"
        );
    }

    #[test]
    fn audit_on_this_workspace_is_clean_under_deny() {
        // The real gate CI runs; the audit crate's self_audit test covers the
        // same ground, but this exercises it end-to-end through the CLI.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (code, out) = run_cmd(&["audit", "--root", &root.to_string_lossy(), "--deny"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("0 finding(s)"), "{out}");
    }

    /// Two independent key groups + a clean row: 2 components, 4-repair
    /// product vs 4 component-local repairs.
    fn write_two_component_files(dir: &std::path::Path) -> (String, String) {
        let db_path = dir.join("emp2.idb");
        let sigma_path = dir.join("sigma.txt");
        std::fs::write(
            &db_path,
            "@relation Employee(Name, Salary)\n\
             'page', 5000\n\
             'page', 8000\n\
             'miller', 1000\n\
             'miller', 2000\n\
             'smith', 3000\n",
        )
        .unwrap();
        std::fs::write(&sigma_path, "key Employee(Name)\n").unwrap();
        (
            db_path.to_string_lossy().into_owned(),
            sigma_path.to_string_lossy().into_owned(),
        )
    }

    #[test]
    fn analyze_components_reports_the_factorization() {
        let dir = tmpdir("analyze-components");
        let (db, sigma) = write_two_component_files(&dir);
        let (code, out) = run_cmd(&[
            "analyze",
            "--constraints",
            &sigma,
            "--db",
            &db,
            "--components",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("conflict components: 2 (4 conflicted tuple(s); frozen core 1/5 = 20.0%)"),
            "{out}"
        );
        assert!(out.contains("2 component(s) of 2 tuple(s)"), "{out}");
        assert!(out.contains("block-shaped: 2 of 2"), "{out}");
        assert!(
            out.contains("repair families: 4 component-local vs 4 cross-product"),
            "{out}"
        );
        assert!(out.contains("[A006] conflict-components"), "{out}");
    }

    #[test]
    fn analyze_components_requires_a_database() {
        let dir = tmpdir("analyze-components-nodb");
        let (_, sigma) = write_two_component_files(&dir);
        let args: Vec<String> = ["analyze", "--constraints", &sigma, "--components"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut out = String::new();
        let err = run(&args, &mut out).unwrap_err();
        assert!(err.contains("--components needs --db"), "{err}");
    }

    #[test]
    fn cqa_reports_the_factored_strategy() {
        let dir = tmpdir("cqa-factored");
        let (db, sigma) = write_two_component_files(&dir);
        // A union query keeps the planner off the FO-rewriting path; with
        // two components the factored fold takes over.
        let (code, out) = run_cmd(&[
            "cqa",
            "--db",
            &db,
            "--constraints",
            &sigma,
            "--query",
            "Q(x) :- Employee(x, y)",
            "--class",
            "subset",
        ]);
        assert_eq!(code, 0, "{out}");
        // Keys-only Σ with an acyclic query still rewrites — force the
        // enumeration path with a denial constraint instead.
        assert!(out.contains("strategy: FO rewriting"), "{out}");
        let dc_sigma = dir.join("dc.txt");
        std::fs::write(&dc_sigma, "dc Employee(x, y), Employee(x, z), y != z\n").unwrap();
        let (code, out) = run_cmd(&[
            "cqa",
            "--db",
            &db,
            "--constraints",
            &dc_sigma.to_string_lossy(),
            "--query",
            "Q(x) :- Employee(x, y)",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("strategy: factored repair enumeration over 2 conflict components"),
            "{out}"
        );
        // One conflict component: the same route, named in the singular.
        let one = dir.join("one.idb");
        std::fs::write(
            &one,
            "@relation Employee(Name, Salary)\n'page', 5000\n'page', 8000\n'smith', 3000\n",
        )
        .unwrap();
        let (code, single) = run_cmd(&[
            "cqa",
            "--db",
            &one.to_string_lossy(),
            "--constraints",
            &dc_sigma.to_string_lossy(),
            "--query",
            "Q(x) :- Employee(x, y)",
        ]);
        assert_eq!(code, 0, "{single}");
        assert!(
            single.contains("strategy: factored repair enumeration over 1 conflict component ("),
            "{single}"
        );
        assert!(
            out.contains("folded 4 component-local repairs, not 4"),
            "{out}"
        );
        assert!(out.contains("3 consistent answers"), "{out}");
    }

    #[test]
    fn analyze_program_classifies_and_lints() {
        let dir = tmpdir("analyze-prog");
        let path = dir.join("prog.asp");
        std::fs::write(
            &path,
            "e(1, 2).\ne(2, 3).\n\
             t(x, y) :- e(x, y).\n\
             t(x, y) :- e(x, y).\n\
             q(x) :- t(x, y), ghost(x).\n\
             a :- not b().\nb :- not a().\n",
        )
        .unwrap();
        let (code, out) = run_cmd(&["analyze", "--program", &path.to_string_lossy()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("class="), "{out}");
        // A002 recursion through negation, A004 duplicate, A005 undefined.
        assert!(out.contains("[A002] recursion-through-negation"), "{out}");
        assert!(out.contains("[A004] duplicate-rule"), "{out}");
        assert!(out.contains("[A005] undefined-predicate"), "{out}");
        // Diagnostics carry source context.
        assert!(out.contains("--> 3: t(x, y) :- e(x, y)."), "{out}");
    }

    #[test]
    fn analyze_unsafe_program_errors() {
        let dir = tmpdir("analyze-unsafe");
        let path = dir.join("bad.asp");
        std::fs::write(&path, "p(x) :- q(y).\n").unwrap();
        let (code, out) = run_cmd(&["analyze", "--program", &path.to_string_lossy()]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("error[A001] unsafe-variable"), "{out}");
        assert!(out.contains("`x`"), "{out}");
    }

    #[test]
    fn analyze_constraints_and_query() {
        let dir = tmpdir("analyze-sigma");
        let (db, _) = write_files(&dir);
        let sigma_path = dir.join("lints.sigma");
        std::fs::write(
            &sigma_path,
            "dc S(x), R(x, y), S(y)\n\
             dc S(x), R(x, y)\n\
             dc S(x), R(x, y)\n\
             dc R(x, y), x < y, x > y\n\
             fd Employee: Name -> Salary\n",
        )
        .unwrap();
        let (code, out) = run_cmd(&[
            "analyze",
            "--constraints",
            &sigma_path.to_string_lossy(),
            "--db",
            &db,
            "--query",
            "Q(x, y) :- Employee(x, s), Cities(y, c)",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("[C001] duplicate-constraint"), "{out}");
        assert!(out.contains("[C003] subsumed-constraint"), "{out}");
        assert!(out.contains("[C004] fd-is-key"), "{out}");
        assert!(out.contains("[C006] vacuous-constraint"), "{out}");
        assert!(out.contains("[Q002] cartesian-product"), "{out}");
    }

    #[test]
    fn threads_flag_accepted_everywhere() {
        let dir = tmpdir("threads");
        let (db, sigma) = write_files(&dir);
        // Results are identical at any thread count (determinism contract);
        // `--threads` merely configures the pool.
        let (code, out) = run_cmd(&[
            "repairs",
            "--db",
            &db,
            "--constraints",
            &sigma,
            "--threads",
            "2",
        ]);
        assert_eq!(code, 0);
        assert!(out.contains("2 S-repairs"), "{out}");
        let args: Vec<String> = vec!["check".into(), "--threads".into(), "0".into()];
        assert!(run(&args, &mut String::new()).is_err());
        // Restore the default so parallel-running tests are unaffected.
        cqa_exec::set_threads(0);
    }

    /// A database with `k` independent key conflicts: 2^k S-repairs.
    fn write_conflict_files(dir: &std::path::Path, k: usize) -> (String, String) {
        let db_path = dir.join("conflicts.idb");
        let sigma_path = dir.join("conflicts.sigma");
        let mut text = String::from("@relation T(K, V)\n");
        for i in 0..k {
            let _ = writeln!(text, "{i}, 1\n{i}, 2");
        }
        std::fs::write(&db_path, text).unwrap();
        std::fs::write(&sigma_path, "key T(K)\n").unwrap();
        (
            db_path.to_string_lossy().into_owned(),
            sigma_path.to_string_lossy().into_owned(),
        )
    }

    #[test]
    fn step_budget_truncates_repairs() {
        let dir = tmpdir("budget-steps");
        let (db, sigma) = write_conflict_files(&dir, 8);
        let (code, out) = run_cmd(&[
            "repairs",
            "--db",
            &db,
            "--constraints",
            &sigma,
            "--budget-steps",
            "10",
        ]);
        assert_eq!(code, 0);
        assert!(out.contains("truncated: step-limit"), "{out}");
        // Still a well-formed listing of (a subset of the) repairs.
        assert!(out.contains("S-repairs"), "{out}");
        assert!(!out.contains("256 S-repairs"), "{out}");
    }

    #[test]
    fn max_repairs_caps_enumeration() {
        let dir = tmpdir("budget-items");
        let (db, sigma) = write_conflict_files(&dir, 8);
        let (code, out) = run_cmd(&[
            "repairs",
            "--db",
            &db,
            "--constraints",
            &sigma,
            "--max-repairs",
            "3",
        ]);
        assert_eq!(code, 0);
        assert!(out.contains("truncated: item-limit"), "{out}");
        let n: usize = out
            .lines()
            .find_map(|l| l.strip_suffix(" S-repairs").and_then(|n| n.parse().ok()))
            .unwrap();
        assert!(n <= 3, "{out}");
    }

    #[test]
    fn ample_budget_output_is_byte_identical() {
        let dir = tmpdir("budget-ample");
        let (db, sigma) = write_conflict_files(&dir, 4);
        for cmd in ["repairs", "cqa", "asp"] {
            let mut base = vec![cmd, "--db", db.as_str(), "--constraints", sigma.as_str()];
            if cmd == "cqa" {
                base.extend_from_slice(&["--query", "Q(x) :- T(x, y)"]);
            }
            let (_, plain) = run_cmd(&base);
            let mut budgeted_args = base.clone();
            budgeted_args.extend_from_slice(&[
                "--budget-steps",
                "100000000",
                "--timeout-ms",
                "600000",
            ]);
            let (_, budgeted) = run_cmd(&budgeted_args);
            assert_eq!(plain, budgeted, "{cmd} output changed under ample budget");
            assert!(!plain.contains("truncated:"), "{plain}");
        }
    }

    #[test]
    fn cqa_deadline_reports_sound_underapproximation() {
        let dir = tmpdir("budget-deadline");
        let (db, _) = write_conflict_files(&dir, 8);
        // A denial constraint (not a key) rules the FO rewriting out, so
        // the planner must enumerate repairs — the budgetable path.
        let sigma_path = dir.join("dc.sigma");
        std::fs::write(&sigma_path, "dc T(x, y), T(x, z), y != z\n").unwrap();
        let sigma = sigma_path.to_string_lossy().into_owned();
        // steps=1 exhausts immediately: certain answers fall back to the
        // consistent core (T restricted to unconflicted keys = none here),
        // a sound under-approximation, and the status line says so.
        let (code, out) = run_cmd(&[
            "cqa",
            "--db",
            &db,
            "--constraints",
            &sigma,
            "--query",
            "Q(x) :- T(x, y)",
            "--budget-steps",
            "1",
        ]);
        assert_eq!(code, 0);
        assert!(out.contains("truncated: step-limit"), "{out}");
        // Every reported answer must be a true certain answer (soundness).
        let (_, exact) = run_cmd(&[
            "cqa",
            "--db",
            &db,
            "--constraints",
            &sigma,
            "--query",
            "Q(x) :- T(x, y)",
        ]);
        for line in out.lines().filter(|l| l.starts_with("  ")) {
            assert!(exact.contains(line), "unsound answer {line}:\n{exact}");
        }
    }

    /// Regression: `--timeout-ms 0` must mean "a budget born exhausted"
    /// (truncate immediately), not "no deadline". The repairs command goes
    /// through enumeration, so zero budget yields the empty sound subset
    /// and a `truncated: deadline` line.
    #[test]
    fn timeout_zero_truncates_immediately_not_unlimited() {
        let dir = tmpdir("timeout-zero");
        let (db, sigma) = write_conflict_files(&dir, 4);
        let (code, out) = run_cmd(&[
            "repairs",
            "--db",
            &db,
            "--constraints",
            &sigma,
            "--timeout-ms",
            "0",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("truncated: deadline (explored 0)"),
            "zero timeout must truncate before exploring anything: {out}"
        );
        // The FO-rewritable polynomial path stays exact even at zero
        // budget — it is deliberately budget-exempt.
        let (code, out) = run_cmd(&[
            "cqa",
            "--db",
            &db,
            "--constraints",
            &sigma,
            "--query",
            "Q(x) :- T(x, y)",
            "--timeout-ms",
            "0",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(!out.contains("truncated"), "{out}");
    }

    /// Regression: a near-infinite `--timeout-ms` used to overflow the
    /// deadline computation (`now + u64::MAX ms`); it must behave exactly
    /// like an unlimited run.
    #[test]
    fn huge_timeout_behaves_as_unlimited() {
        let dir = tmpdir("timeout-huge");
        let (db, sigma) = write_conflict_files(&dir, 3);
        let (_, plain) = run_cmd(&["repairs", "--db", &db, "--constraints", &sigma]);
        let (code, budgeted) = run_cmd(&[
            "repairs",
            "--db",
            &db,
            "--constraints",
            &sigma,
            "--timeout-ms",
            "18446744073709551615",
        ]);
        assert_eq!(code, 0, "{budgeted}");
        assert_eq!(plain, budgeted, "u64::MAX timeout must not perturb output");
        assert!(!budgeted.contains("truncated"), "{budgeted}");
    }

    #[test]
    fn bad_inputs_become_diagnostics_not_panics() {
        let dir = tmpdir("bad-input");
        // Truncated file: a string cut off mid-escape.
        let db_path = dir.join("broken.idb");
        std::fs::write(&db_path, "@relation R(A)\n'x''").unwrap();
        let sigma_path = dir.join("sigma.txt");
        std::fs::write(&sigma_path, "key R(A)\n").unwrap();
        let args: Vec<String> = vec![
            "check".into(),
            "--db".into(),
            db_path.to_string_lossy().into_owned(),
            "--constraints".into(),
            sigma_path.to_string_lossy().into_owned(),
        ];
        let err = run(&args, &mut String::new()).unwrap_err();
        assert!(err.contains("error[E001] invalid-input"), "{err}");
        assert!(err.contains("unterminated string"), "{err}");
        // Malformed query string.
        let good_db = dir.join("good.idb");
        std::fs::write(&good_db, "@relation R(A)\n1\n").unwrap();
        let args: Vec<String> = vec![
            "causes".into(),
            "--db".into(),
            good_db.to_string_lossy().into_owned(),
            "--query".into(),
            "Q() :- R(".into(),
        ];
        let err = run(&args, &mut String::new()).unwrap_err();
        assert!(err.contains("error[E001] invalid-input"), "{err}");
        // Bad budget flag value.
        let args: Vec<String> = vec![
            "repairs".into(),
            "--db".into(),
            db_path.to_string_lossy().into_owned(),
            "--constraints".into(),
            sigma_path.to_string_lossy().into_owned(),
            "--timeout-ms".into(),
            "soon".into(),
        ];
        let err = run(&args, &mut String::new()).unwrap_err();
        assert!(err.contains("error[E001] invalid-input"), "{err}");
    }

    #[test]
    fn help_and_errors() {
        let (code, out) = run_cmd(&["help"]);
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
        let args: Vec<String> = vec!["nonsense".into()];
        assert!(run(&args, &mut String::new()).is_err());
        let args: Vec<String> = vec!["check".into()];
        assert!(run(&args, &mut String::new()).is_err()); // missing --db
    }
}

#[cfg(test)]
mod shipped_data_tests {
    //! Guard the sample files under `examples/data/` against bit-rot: every
    //! shipped database/Σ pair must parse and produce the documented
    //! results.

    use super::*;

    fn data(file: &str) -> String {
        format!("{}/../../examples/data/{file}", env!("CARGO_MANIFEST_DIR"))
    }

    fn run_ok(args: &[String]) -> (i32, String) {
        let mut out = String::new();
        let code = run(args, &mut out).unwrap();
        (code, out)
    }

    #[test]
    fn payroll_sample_has_two_repairs() {
        let (code, out) = run_ok(&[
            "repairs".into(),
            "--db".into(),
            data("payroll.idb"),
            "--constraints".into(),
            data("payroll.sigma"),
        ]);
        assert_eq!(code, 0);
        assert!(out.contains("2 S-repairs"), "{out}");
    }

    #[test]
    fn supply_sample_repairs_by_delete_or_insert() {
        let (_, out) = run_ok(&[
            "repairs".into(),
            "--db".into(),
            data("supply.idb"),
            "--constraints".into(),
            data("supply.sigma"),
        ]);
        assert!(out.contains("+ Articles(I3)"), "{out}");
        assert!(out.contains("- Supply(C2, R1, I3)"), "{out}");
    }

    #[test]
    fn customers_sample_cleans() {
        let (code, out) = run_ok(&[
            "clean".into(),
            "--db".into(),
            data("customers.idb"),
            "--constraints".into(),
            data("customers.sigma"),
        ]);
        assert_eq!(code, 0);
        assert!(out.contains("1 fixes"), "{out}");
    }

    #[test]
    fn conflict_sample_matches_example_3_5() {
        let (_, out) = run_ok(&[
            "asp".into(),
            "--db".into(),
            data("conflict.idb"),
            "--constraints".into(),
            data("conflict.sigma"),
        ]);
        assert!(out.contains("% 3 repair model(s)"), "{out}");
        let (_, causes) = run_ok(&[
            "causes".into(),
            "--db".into(),
            data("conflict.idb"),
            "--query".into(),
            "Q() :- S(x), R(x, y), S(y)".into(),
        ]);
        assert!(causes.contains("4 actual causes"), "{causes}");
    }
}
