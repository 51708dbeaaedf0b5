//! F13: the cqa-exec scoped pool vs the exact sequential code paths, on
//! the hot loops it parallelizes — repair-enumeration CQA (F1 shape),
//! hitting-set search (F3 shape) and responsibility (F5 shape) — plus the
//! denial-constraint rank lane vs the generic witness evaluator.
//! `with_threads` pins the count per measurement, so the two sides of each
//! comparison run the same binary on the same inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cqa_bench::{dc_instance, key_conflict_instance, star_instance};
use cqa_constraints::DenialConstraint;
use cqa_exec::with_threads;
use cqa_query::{parse_query, NullSemantics, UnionQuery};
use cqa_relation::{tuple, Database, RelationSchema};
use std::collections::BTreeSet;

fn bench_cqa(c: &mut Criterion) {
    let mut group = c.benchmark_group("f13_parallel_cqa");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    for k in [8usize, 10, 12] {
        let (db, sigma) = key_conflict_instance(60, k, 2, 1);
        let instances: Vec<Database> = cqa_core::s_repairs(&db, &sigma)
            .unwrap()
            .into_iter()
            .map(|r| r.into_db())
            .collect();
        let q = UnionQuery::single(parse_query("Q(k, v) :- T(k, v)").unwrap());
        for threads in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("certain_over_{threads}thr"), k),
                &k,
                |b, _| b.iter(|| with_threads(threads, || cqa_core::certain_over(&instances, &q))),
            );
        }
    }
    group.finish();
}

fn bench_hitting_sets(c: &mut Criterion) {
    let mut group = c.benchmark_group("f13_parallel_hitting_sets");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    for (n_r, n_s, dom) in [(25usize, 12usize, 8usize), (40, 16, 10)] {
        let (db, sigma) = dc_instance(n_r, n_s, dom, 3);
        let g = sigma.conflict_hypergraph(&db).unwrap();
        let label = format!("{n_r}x{n_s}");
        for threads in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("minimal_all_{threads}thr"), &label),
                &label,
                |b, _| b.iter(|| with_threads(threads, || g.minimal_hitting_sets(None).len())),
            );
        }
    }
    group.finish();
}

fn bench_responsibility(c: &mut Criterion) {
    let mut group = c.benchmark_group("f13_parallel_responsibility");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    for width in [12usize, 16] {
        let db = star_instance(width);
        let q = UnionQuery::single(parse_query("Q() :- Hub(x), Spoke(x, y)").unwrap());
        for threads in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("actual_causes_{threads}thr"), width),
                &width,
                |b, _| b.iter(|| with_threads(threads, || cqa_causality::actual_causes(&db, &q))),
            );
        }
    }
    group.finish();
}

/// The generic evaluator, which the rank lane bypasses for binary denial
/// constraints: enumerate every witness of the body and collect its tids.
fn violations_generic(
    dc: &DenialConstraint,
    db: &Database,
) -> BTreeSet<BTreeSet<cqa_relation::Tid>> {
    let mut out = BTreeSet::new();
    cqa_query::for_each_witness(db, dc.body(), NullSemantics::Sql, &mut |w| {
        out.insert(w.tids.iter().copied().collect());
        true
    });
    out
}

fn bench_violations_rank_lane(c: &mut Criterion) {
    let mut group = c.benchmark_group("f13_violations_rank_lane");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    // FD-shaped self-join T(K)→V over n tuples in groups of 4 per key: the
    // rank lane pairs each tuple with its key's run of ranks, while the
    // generic evaluator probes the cached hash index once per tuple and
    // compares resolved values per pair.
    let dc = DenialConstraint::parse("fd", "T(x, y), T(x, z), y != z").unwrap();
    for n in [200usize, 400, 800] {
        let mut db = Database::new();
        db.create_relation(RelationSchema::new("T", ["K", "V"]))
            .unwrap();
        for i in 0..n {
            db.insert("T", tuple![(i / 4) as i64, i as i64]).unwrap();
        }
        assert_eq!(dc.violations(&db), violations_generic(&dc, &db));
        group.bench_with_input(BenchmarkId::new("rank_lane", n), &n, |b, _| {
            b.iter(|| dc.violations(&db).len())
        });
        group.bench_with_input(BenchmarkId::new("generic", n), &n, |b, _| {
            b.iter(|| violations_generic(&dc, &db).len())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cqa,
    bench_hitting_sets,
    bench_responsibility,
    bench_violations_rank_lane
);
criterion_main!(benches);
