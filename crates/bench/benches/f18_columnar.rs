//! F18: dictionary-encoded columnar storage vs the row-oriented baseline.
//!
//! The same generated workload (`Orders`/`Cities`, heavy string repetition)
//! is loaded into [`cqa_relation::Database`] (dictionary + columns + typed
//! indexes) and into the preserved row store (`cqa_bench::rowstore`), and
//! both run violation detection (an FD-shaped self-join plus a comparison
//! range scan) and the CQA equi-join. Answers are asserted byte-identical
//! before any measurement; memory is reported by the harness (`F18`
//! section), not here.
//!
//! `codec_load` times the text codec's load of the 5 000-order instance
//! (about 950 KiB, the body of a `repaird` tenant creation), after checking
//! that the loaded content equals the generated instance.
//!
//! `conflict_build` times `IncrementalState::new` (violations, conflict
//! hyper-graph and its components) on that loaded instance, the conflict
//! state a `repaird` tenant creation builds, after checking that its
//! violation sets equal the row engine's FD and range violations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cqa_bench::rowstore::{f18_rowdb, RowDb};
use cqa_bench::{f18_columnar, f18_data};
use cqa_constraints::DenialConstraint;
use cqa_core::IncrementalState;
use cqa_query::{parse_query, ConjunctiveQuery, NullSemantics};
use cqa_relation::{Database, Tid, Tuple, Value};
use std::collections::BTreeSet;

fn columnar_violations(
    db: &Database,
    denials: &[DenialConstraint],
) -> Vec<BTreeSet<BTreeSet<Tid>>> {
    denials.iter().map(|dc| dc.violations(db)).collect()
}

fn row_violations(db: &RowDb) -> Vec<BTreeSet<BTreeSet<Tid>>> {
    vec![
        db.fd_violations("Orders", 1, 2),
        db.range_violations("Orders", 4, &Value::Int(9900)),
    ]
}

fn join_query() -> ConjunctiveQuery {
    parse_query("Q(c, r) :- Orders(o, c, x, s, a), Cities(x, r)").unwrap()
}

fn columnar_join(db: &Database, q: &ConjunctiveQuery) -> BTreeSet<Tuple> {
    cqa_query::eval_cq(db, q, NullSemantics::Sql)
}

fn row_join(db: &RowDb) -> BTreeSet<Tuple> {
    db.join("Orders", 2, "Cities", 0, &[(0, 1), (1, 1)])
}

fn bench_f18(c: &mut Criterion) {
    let q = join_query();
    for n in [2_000usize, 8_000] {
        let data = f18_data(n, 18);
        let (db, sigma) = f18_columnar(&data);
        let denials = sigma.all_denials(&db).unwrap();
        let row = f18_rowdb(&data);
        // Equality gates: both engines agree before either is timed.
        assert_eq!(columnar_violations(&db, &denials), row_violations(&row));
        assert_eq!(columnar_join(&db, &q), row_join(&row));

        let mut group = c.benchmark_group("f18_violations");
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("columnar", n), &n, |b, _| {
            b.iter(|| columnar_violations(&db, &denials))
        });
        group.bench_with_input(BenchmarkId::new("rowstore", n), &n, |b, _| {
            b.iter(|| row_violations(&row))
        });
        group.finish();

        let mut group = c.benchmark_group("f18_cqa_join");
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::new("columnar", n), &n, |b, _| {
            b.iter(|| columnar_join(&db, &q))
        });
        group.bench_with_input(BenchmarkId::new("rowstore", n), &n, |b, _| {
            b.iter(|| row_join(&row))
        });
        group.finish();
    }
}

fn bench_codec_load(c: &mut Criterion) {
    let (db, _) = f18_columnar(&f18_data(5_000, 18));
    let text = cqa_relation::save(&db);
    let loaded = cqa_relation::load(&text).unwrap();
    assert!(loaded.same_content(&db));

    let mut group = c.benchmark_group("codec_load");
    group.sample_size(20);
    group.bench_with_input(BenchmarkId::new("f18", 5_000), &text, |b, text| {
        b.iter(|| cqa_relation::load(text).unwrap())
    });
    group.finish();
}

fn bench_conflict_build(c: &mut Criterion) {
    let data = f18_data(5_000, 18);
    let (db, sigma) = f18_columnar(&data);
    let loaded = cqa_relation::load(&cqa_relation::save(&db)).unwrap();
    let expected: BTreeSet<BTreeSet<Tid>> = row_violations(&f18_rowdb(&data))
        .into_iter()
        .flatten()
        .collect();
    let state = IncrementalState::new(&loaded, &sigma).unwrap();
    assert_eq!(state.violations(), &expected);

    let mut group = c.benchmark_group("conflict_build");
    group.sample_size(20);
    group.bench_with_input(BenchmarkId::new("f18", 5_000), &loaded, |b, db| {
        b.iter(|| IncrementalState::new(db, &sigma).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_f18, bench_codec_load, bench_conflict_build);
criterion_main!(benches);
