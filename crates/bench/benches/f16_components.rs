//! F16: conflict-component factorization vs the per-repair fold over the
//! cross-product, on the replicated key-conflict workload. With `m`
//! independent key groups of size `g` the conflict graph has `m` components
//! and the repair family is the `g^m` cross-product; the factored paths pay
//! `Σ = m·g` while the per-repair fold and the whole-graph search pay
//! `Π = g^m`. Answers are asserted byte-identical before each measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cqa_bench::key_conflict_instance;
use cqa_core::{RepairClass, RepairOptions};
use cqa_exec::Budget;
use cqa_query::{parse_query, UnionQuery};
use std::sync::Arc;

fn query() -> UnionQuery {
    UnionQuery::single(parse_query("Q(k, v) :- T(k, v)").unwrap())
}

/// Certain answers by their definition: list every S-repair of the full
/// cross-product, then fold the query over their views, one evaluation per
/// repair.
fn cqa_per_repair(
    db: &cqa_relation::Database,
    sigma: &cqa_constraints::ConstraintSet,
    q: &UnionQuery,
) -> std::collections::BTreeSet<cqa_relation::Tuple> {
    let repairs = cqa_core::s_repairs(db, sigma).unwrap();
    let views: Vec<_> = repairs.iter().map(|r| r.view()).collect();
    cqa_core::certain_over(&views, q)
}

/// `consistent_answers`, the component-wise certain fold: one witness scan
/// of the query, sliced by component and folded over each component's
/// local repair family.
fn cqa_factored(
    db: &cqa_relation::Database,
    sigma: &cqa_constraints::ConstraintSet,
    q: &UnionQuery,
) -> std::collections::BTreeSet<cqa_relation::Tuple> {
    cqa_core::consistent_answers(db, sigma, q, &RepairClass::Subset).unwrap()
}

fn bench_cqa(c: &mut Criterion) {
    let mut group = c.benchmark_group("f16_components_cqa");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    let q = query();
    for m in [2usize, 4, 6] {
        let (db, sigma) = key_conflict_instance(20, m, 4, 1);
        assert_eq!(
            cqa_per_repair(&db, &sigma, &q),
            cqa_factored(&db, &sigma, &q)
        );
        group.bench_with_input(BenchmarkId::new("per_repair", m), &m, |b, _| {
            b.iter(|| cqa_per_repair(&db, &sigma, &q))
        });
        group.bench_with_input(BenchmarkId::new("factored", m), &m, |b, _| {
            b.iter(|| cqa_factored(&db, &sigma, &q))
        });
    }
    group.finish();
}

fn bench_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("f16_components_enumeration");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    // The search itself: Σ-shaped per-component hitting-set enumeration vs
    // the Π-shaped sequential DFS (expansion excluded on the factored side —
    // CQA and the CLI never materialize the product).
    for m in [4usize, 6] {
        let (db, sigma) = key_conflict_instance(20, m, 4, 1);
        let base = Arc::new(db);
        group.bench_with_input(BenchmarkId::new("sequential_dfs", m), &m, |b, _| {
            b.iter(|| {
                let out = cqa_core::s_repairs_budgeted(
                    &base,
                    &sigma,
                    &RepairOptions::default(),
                    &Budget::steps(1_000_000_000),
                )
                .unwrap();
                assert!(out.truncation().is_none());
                out.into_value().len()
            })
        });
        group.bench_with_input(BenchmarkId::new("factored_families", m), &m, |b, _| {
            b.iter(|| {
                let graph = sigma.conflict_hypergraph(&*base).unwrap();
                let out = graph
                    .components()
                    .minimal_hitting_sets_factored(&Budget::unlimited());
                assert!(out.truncation().is_none());
                out.into_value().factored_len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cqa, bench_enumeration);
criterion_main!(benches);
