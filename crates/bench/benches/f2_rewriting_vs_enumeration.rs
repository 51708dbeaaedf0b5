//! F2: the crossover the paper's §3.2 story is about — FO rewriting answers
//! CQA in polynomial time on the inconsistent instance, while the
//! model-theoretic definition (enumerate all repairs, evaluate the query on
//! each, intersect) blows up exponentially in the number of conflicts.

use cqa_bench::key_conflict_instance;
use cqa_core::rewrite::keys::KeyPositions;
use cqa_query::{parse_query, NullSemantics, UnionQuery};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Certain answers by their definition: list every S-repair, then fold the
/// query over their views, one evaluation per repair.
fn per_repair_certain(
    db: &cqa_relation::Database,
    sigma: &cqa_constraints::ConstraintSet,
    q: &UnionQuery,
) -> std::collections::BTreeSet<cqa_relation::Tuple> {
    let repairs = cqa_core::s_repairs(db, sigma).unwrap();
    let views: Vec<_> = repairs.iter().map(|r| r.view()).collect();
    cqa_core::certain_over(&views, q)
}

fn bench(c: &mut Criterion) {
    let q = parse_query("Q(k, v) :- T(k, v)").unwrap();
    let keys: KeyPositions = [("T".to_string(), vec![0usize])].into();
    let fo = cqa_core::rewrite_key_query(&q, &keys).unwrap();

    let mut group = c.benchmark_group("f2_rewriting_vs_enumeration");
    // Scaling probes, not micro-benchmarks: few samples, short windows.
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    for k in [2usize, 5, 8, 11] {
        let (db, sigma) = key_conflict_instance(300, k, 2, 2);
        group.bench_with_input(BenchmarkId::new("fo_rewriting", k), &k, |b, _| {
            b.iter(|| cqa_query::eval_fo(&db, &fo, NullSemantics::Structural).len())
        });
        group.bench_with_input(BenchmarkId::new("repair_enumeration", k), &k, |b, _| {
            b.iter(|| per_repair_certain(&db, &sigma, &UnionQuery::single(q.clone())).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
