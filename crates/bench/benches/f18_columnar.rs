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
//!
//! `write_then_read` times one `Amount` update on a warm 2 000-order
//! `CqaSession`, followed by its two `mutate_mix` reads: the write's index
//! and statistics upkeep, its conflict-state delta and the reads that
//! follow it. Before timing it checks that the session's answers after a
//! write equal `answer_consistently` on a fresh load of the same rows.
//!
//! `certain_50k` times the two `mutate_mix` reads on a warm 50 000-order
//! `CqaSession`, the size whose per-component hitting-set families took
//! the search 16.5–18.1 s per read on a 2-vCPU host before block-shaped
//! components were read off their classes. Before timing it checks every
//! component's families: each minimal set is a minimal hitting set of its
//! component, and each minimum set is a hitting set of the component's
//! smallest minimal size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cqa_bench::rowstore::{f18_rowdb, RowDb};
use cqa_bench::{f18_columnar, f18_data};
use cqa_constraints::{ConflictHypergraph, DenialConstraint};
use cqa_core::{answer_consistently, CqaSession, IncrementalState};
use cqa_exec::Budget;
use cqa_query::{parse_query, parse_ucq, ConjunctiveQuery, NullSemantics, UnionQuery};
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

/// The two `mutate_mix` reads: joins of `Orders` with `Cities`, each
/// filtered by a constant comparison on `Amount` that keeps about 3% of the
/// orders.
const MUTATE_MIX_READS: [&str; 2] = [
    "Q(c, r) :- Orders(o, c, x, s, a), Cities(x, r), a < 300",
    "Q(o, x) :- Orders(o, c, x, s, a), Cities(x, r), a > 9600",
];

fn bench_write_then_read(c: &mut Criterion) {
    let (db, sigma) = f18_columnar(&f18_data(2_000, 18));
    let queries: Vec<UnionQuery> = MUTATE_MIX_READS
        .iter()
        .map(|q| parse_ucq(q).unwrap())
        .collect();
    let mut session = CqaSession::new(db, sigma.clone()).unwrap();
    // The written order alternates between an amount above the 9 900 cap
    // (a new conflict) and its own, so the conflicts stay level.
    let tid = session
        .db()
        .relation("Orders")
        .unwrap()
        .tids()
        .nth(7)
        .unwrap();
    let own = session.db().get(tid).unwrap().1.at(4).clone();
    let budget = Budget::unlimited();
    let mut raised = false;
    let mut write_then_read = |session: &mut CqaSession| {
        raised = !raised;
        let amount = if raised {
            Value::Int(9_950)
        } else {
            own.clone()
        };
        session.update(tid, 4, amount, &budget).unwrap();
        queries
            .iter()
            .map(|q| session.certain(q, &budget).unwrap().into_value().answers)
            .collect::<Vec<BTreeSet<Tuple>>>()
    };
    // Equality gate, after a raising and a lowering write.
    for _ in 0..2 {
        let answers = write_then_read(&mut session);
        let fresh = cqa_relation::load(&cqa_relation::save(session.db())).unwrap();
        for (q, got) in queries.iter().zip(&answers) {
            assert_eq!(
                got,
                &answer_consistently(&fresh, &sigma, q).unwrap().answers
            );
        }
    }

    let mut group = c.benchmark_group("write_then_read");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("f18", 2_000), |b| {
        b.iter(|| write_then_read(&mut session))
    });
    group.finish();
}

/// How many tuples of `set` each edge of `g` holds.
fn hits(g: &ConflictHypergraph, set: &BTreeSet<Tid>) -> Vec<usize> {
    g.edges
        .iter()
        .map(|e| e.iter().filter(|t| set.contains(t)).count())
        .collect()
}

/// `set` hits every edge, and each of its tuples alone hits some edge.
fn is_minimal_hitting_set(g: &ConflictHypergraph, set: &BTreeSet<Tid>) -> bool {
    let hits = hits(g, set);
    hits.iter().all(|&h| h > 0)
        && set.iter().all(|t| {
            g.edges
                .iter()
                .zip(&hits)
                .any(|(e, &h)| h == 1 && e.contains(t))
        })
}

fn bench_certain_50k(c: &mut Criterion) {
    let (db, sigma) = f18_columnar(&f18_data(50_000, 7));
    let queries: Vec<UnionQuery> = MUTATE_MIX_READS
        .iter()
        .map(|q| parse_ucq(q).unwrap())
        .collect();
    let components = sigma.conflict_hypergraph(&db).unwrap().components();
    let unlimited = Budget::unlimited();
    let minimal = components
        .minimal_hitting_sets_factored(&unlimited)
        .into_value();
    let (_, minimum) = components
        .minimum_hitting_sets_factored(&unlimited)
        .into_value();
    for ((component, minimal), minimum) in components
        .components
        .iter()
        .zip(&minimal.families)
        .zip(&minimum.families)
    {
        let g = component.graph();
        assert!(minimal.iter().all(|h| is_minimal_hitting_set(g, h)));
        let smallest = minimal.iter().map(BTreeSet::len).min();
        assert!(!minimum.is_empty());
        assert!(minimum
            .iter()
            .all(|h| Some(h.len()) == smallest && hits(g, h).iter().all(|&n| n > 0)));
    }
    let mut session = CqaSession::new(db, sigma).unwrap();
    let budget = Budget::unlimited();

    let mut group = c.benchmark_group("certain_50k");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("f18", 50_000), |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| session.certain(q, &budget).unwrap().into_value().answers)
                .collect::<Vec<BTreeSet<Tuple>>>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_f18,
    bench_codec_load,
    bench_conflict_build,
    bench_write_then_read,
    bench_certain_50k
);
criterion_main!(benches);
