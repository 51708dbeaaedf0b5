//! F21: repair-family subplan sharing, as a criterion smoke benchmark.
//!
//! One iteration = the F21 harness unit of work: certain *and* possible
//! answers for the same key-lookup UCQ, each folded over the listed repairs
//! of a 2^k S-repair family (one evaluation per repair), asked three times
//! (a warm session re-asking). With sharing on, only the first certain pass
//! evaluates the query per repair; every later pass hits the (query
//! fingerprint, content fingerprint) cache. The cache is reset at the top of
//! each iteration, so `sharing_on` measures within-family sharing, not
//! residue from previous iterations. Row equality between the two sides is
//! asserted once before any measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cqa_bench::key_conflict_instance;
use cqa_core::{certain_over, possible_over, s_repairs};
use cqa_exec::with_plan_cache;
use cqa_query::{parse_query, reset_plan_cache, UnionQuery};

/// `fold` over the views of freshly listed S-repairs.
fn over_listed_repairs<R>(
    db: &cqa_relation::Database,
    sigma: &cqa_constraints::ConstraintSet,
    fold: impl FnOnce(&[cqa_relation::DeltaView<'_>]) -> R,
) -> R {
    let repairs = s_repairs(db, sigma).unwrap();
    let views: Vec<_> = repairs.iter().map(|r| r.view()).collect();
    fold(&views)
}

fn family_fold(
    db: &cqa_relation::Database,
    sigma: &cqa_constraints::ConstraintSet,
    q: &UnionQuery,
) -> (
    std::collections::BTreeSet<cqa_relation::Tuple>,
    std::collections::BTreeSet<cqa_relation::Tuple>,
) {
    let mut last = None;
    for _ in 0..3 {
        let c = over_listed_repairs(db, sigma, |views| certain_over(views, q));
        let p = over_listed_repairs(db, sigma, |views| possible_over(views, q));
        last = Some((c, p));
    }
    last.expect("three passes ran")
}

fn bench_f21(c: &mut Criterion) {
    let q = UnionQuery::single(parse_query("Q(x) :- T(x, y)").unwrap());
    for k in [6usize, 8] {
        let (db, sigma) = key_conflict_instance(2_000, k, 2, 21);

        // Equality gate: sharing must be answer-invariant before it is timed.
        reset_plan_cache();
        let on = with_plan_cache(true, || family_fold(&db, &sigma, &q));
        let off = with_plan_cache(false, || family_fold(&db, &sigma, &q));
        assert_eq!(on, off, "subplan sharing changed answers at k={k}");

        let mut group = c.benchmark_group("f21_plan_cache");
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("sharing_on", k), &k, |b, _| {
            b.iter(|| {
                reset_plan_cache();
                with_plan_cache(true, || family_fold(&db, &sigma, &q))
            })
        });
        group.bench_with_input(BenchmarkId::new("sharing_off", k), &k, |b, _| {
            b.iter(|| with_plan_cache(false, || family_fold(&db, &sigma, &q)))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_f21);
criterion_main!(benches);
