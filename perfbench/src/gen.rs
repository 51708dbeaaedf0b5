//! Seeded inputs: tenant codec text, Σ text and the per-client op streams.
//!
//! Everything the server receives is generated here from `--seed`: the
//! same seed gives byte-identical tenants and request bodies (pinned by the
//! tests at the bottom). The instances come from `cqa_bench::workload`'s
//! generators, rendered to codec text with `cqa_relation::save`.

use cqa_bench::{f18_columnar, f18_data, key_conflict_instance, F18Data};
use cqa_relation::{Database, Tid, Tuple, Value};
use cqa_server::Json;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Closed-loop clients, each on its own keep-alive connection.
pub const CLIENTS: usize = 2;

/// Orders per tenant on `ingest` (a create body of about 950 KiB).
pub const INGEST_ORDERS: usize = 5_000;
/// Distinct tenants the `ingest` creates cycle through.
pub const INGEST_TENANTS: usize = 4;
/// Clean keys per `fold_read` tenant.
pub const FOLD_CLEAN: usize = 500;
/// Conflicting key pairs per `fold_read` tenant: 2^10 S-repairs.
pub const FOLD_CONFLICTS: usize = 10;
/// Orders per `mutate_mix` tenant.
pub const MUTATE_ORDERS: usize = 2_000;
/// `certain` reads after each `mutate` on `mutate_mix`.
pub const READS_PER_WRITE: usize = 4;

/// Σ of the F18 tenants, as text: the FD-shaped denial on `Cust → City`
/// and the comparison denial `Amount > 9900` (`cqa_bench::f18_columnar`).
pub const F18_SIGMA: &str = "dc Orders(o, c, x, s, a), Orders(p, c, y, t, b), x < y\n\
                             dc Orders(o, c, x, s, a), a > 9900\n";
/// Σ of the key-conflict tenants.
pub const KEY_SIGMA: &str = "key T(K)\n";

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Create-then-delete of MB-sized F18 tenants.
    Ingest,
    /// Read-only folds over 2^10-repair key-conflict tenants.
    FoldRead,
    /// One write, then planner reads, on warm F18 tenants.
    MutateMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "fold_read" => Some(Workload::FoldRead),
            "mutate_mix" => Some(Workload::MutateMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::FoldRead => "fold_read",
            Workload::MutateMix => "mutate_mix",
        }
    }

    /// Loops per client and per second of `--seconds`. At `--seconds 10`
    /// each of the timed loop's rounds holds at least 100 ops, so a round's
    /// p90 has ten samples beyond it. The op count of a run follows from
    /// `--seconds` alone, so it is the same on every commit.
    pub fn loops_per_second(self) -> f64 {
        match self {
            Workload::Ingest => 36.0,
            Workload::FoldRead => 7.5,
            Workload::MutateMix => 13.0,
        }
    }
}

/// The fewest loops per client. Every loop issues each of its workload's
/// op types at least once, so a run has at least 100 of every op type it
/// reports and its p90 at least 10 samples beyond it.
pub const MIN_LOOPS: usize = 100_usize.div_ceil(CLIENTS);

/// The request types a run times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// `POST /sessions`, then `DELETE /sessions/<id>`.
    Create,
    /// Planner route, subset class.
    Certain,
    /// Certain answers, cardinality class.
    CertainCard,
    /// Possible answers, subset class.
    Possible,
    /// `POST /repairs`, subset class, small limit.
    Repairs,
    /// `POST /mutate` with one tuple-level op.
    Mutate,
}

impl OpKind {
    pub const ALL: [OpKind; 6] = [
        OpKind::Create,
        OpKind::Certain,
        OpKind::CertainCard,
        OpKind::Possible,
        OpKind::Repairs,
        OpKind::Mutate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Create => "create",
            OpKind::Certain => "certain",
            OpKind::CertainCard => "certain_card",
            OpKind::Possible => "possible",
            OpKind::Repairs => "repairs",
            OpKind::Mutate => "mutate",
        }
    }

    /// The request path suffix under `/sessions/<id>`.
    pub fn verb(self) -> &'static str {
        match self {
            OpKind::Certain | OpKind::CertainCard | OpKind::Possible => "query",
            OpKind::Repairs => "repairs",
            OpKind::Mutate => "mutate",
            OpKind::Create => "",
        }
    }
}

/// One timed operation: its type, the tenant it targets (an index into
/// [`Plan::tenants`]) and its request body.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: OpKind,
    pub tenant: usize,
    pub body: Arc<str>,
}

/// One tenant's generated inputs.
#[derive(Debug, Clone)]
pub struct TenantInput {
    pub db_text: String,
    pub sigma_text: &'static str,
    pub create_body: Arc<str>,
}

impl TenantInput {
    fn new(db: &cqa_relation::Database, sigma_text: &'static str) -> TenantInput {
        let db_text = cqa_relation::save(db);
        let create_body = format!(
            "{{\"db\": {}, \"constraints\": {}}}",
            Json::str(db_text.as_str()),
            Json::str(sigma_text)
        );
        TenantInput {
            db_text,
            sigma_text,
            create_body: create_body.into(),
        }
    }
}

/// Everything one run sends, generated from the seed.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    /// Tenant inputs. On `ingest` the creates cycle through them; on the
    /// other workloads tenant `i` is created during set-up and serves
    /// client `i` for the whole run.
    pub tenants: Vec<TenantInput>,
    /// Untimed warm-up ops per client (read-only on resident tenants).
    pub warmup: Vec<Vec<Op>>,
    /// The timed op stream per client.
    pub streams: Vec<Vec<Op>>,
    /// A read query over the tenants' schema, for the per-layer probes of
    /// `query` and `relation` on requests that carry no query.
    pub probe_query: String,
}

impl Plan {
    /// Tenants created during set-up, one per client (none on `ingest`).
    pub fn resident(&self) -> bool {
        self.workload != Workload::Ingest
    }

    pub fn ops(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }
}

fn rng_for(seed: u64, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
}

fn op(kind: OpKind, tenant: usize, body: String) -> Op {
    Op {
        kind,
        tenant,
        body: body.into(),
    }
}

fn query_body(kind: OpKind, query: &str) -> String {
    let q = Json::str(query);
    match kind {
        OpKind::CertainCard => format!("{{\"query\": {q}, \"class\": \"cardinality\"}}"),
        OpKind::Possible => format!("{{\"query\": {q}, \"kind\": \"possible\"}}"),
        _ => format!("{{\"query\": {q}}}"),
    }
}

/// Generate the run's inputs: `loops` loops per client.
pub fn plan(workload: Workload, seed: u64, loops: usize) -> Plan {
    match workload {
        Workload::Ingest => ingest_plan(seed, loops),
        Workload::FoldRead => fold_read_plan(seed, loops),
        Workload::MutateMix => mutate_mix_plan(seed, loops),
    }
}

/// The `mutate_mix` read pool: two joins of `Orders` with `Cities`.
/// Amounts are uniform below 10 000, so each filter keeps about 3% of the
/// orders on every seed.
const F18_QUERIES: [&str; 2] = [
    "Q(c, r) :- Orders(o, c, x, s, a), Cities(x, r), a < 300",
    "Q(o, x) :- Orders(o, c, x, s, a), Cities(x, r), a > 9600",
];

/// `f18_data` with both conflict sources pinned to exactly 1% of the
/// orders: the seed still picks which orders violate `Cust → City` and
/// which carry an amount above 9900, but not how many, so the conflict
/// work per request does not swing from seed to seed.
fn f18_pinned(n: usize, seed: u64) -> F18Data {
    let mut data = f18_data(n, seed);
    // A customer's home city is the one most of its orders name.
    let mut votes: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    for (_, cust, city, _, _) in &data.orders {
        *votes
            .entry(cust.clone())
            .or_default()
            .entry(city.clone())
            .or_default() += 1;
    }
    let home: BTreeMap<String, String> = votes
        .into_iter()
        .filter_map(|(cust, cities)| Some((cust, cities.into_iter().max_by_key(|(_, n)| *n)?.0)))
        .collect();
    for order in &mut data.orders {
        order.2 = home[&order.1].clone();
        if order.4 > 9_900 {
            order.4 -= 100;
        }
    }
    let k = n / 100;
    let mut rng = rng_for(seed, 0x18);
    let mut picks: Vec<usize> = (0..n).collect();
    for i in 0..2 * k {
        picks.swap(i, rng.gen_range(i..n));
    }
    for &i in &picks[..k] {
        let order = &mut data.orders[i];
        order.2 = loop {
            let (city, _) = &data.cities[rng.gen_range(0..data.cities.len())];
            if *city != order.2 {
                break city.clone();
            }
        };
    }
    for &i in &picks[k..2 * k] {
        data.orders[i].4 = rng.gen_range(9_901..10_000);
    }
    data
}

fn ingest_plan(seed: u64, loops: usize) -> Plan {
    let tenants: Vec<TenantInput> = (0..INGEST_TENANTS)
        .map(|i| {
            let data = f18_pinned(INGEST_ORDERS, seed.wrapping_add(i as u64));
            TenantInput::new(&f18_columnar(&data).0, F18_SIGMA)
        })
        .collect();
    let create = |t: usize| Op {
        kind: OpKind::Create,
        tenant: t,
        body: Arc::clone(&tenants[t].create_body),
    };
    let mut streams = Vec::new();
    let mut warmup = Vec::new();
    for client in 0..CLIENTS {
        let mut rng = rng_for(seed, 0x1000 + client as u64);
        streams.push(
            (0..loops)
                .map(|_| create(rng.gen_range(0..INGEST_TENANTS)))
                .collect(),
        );
        warmup.push(vec![create(client % INGEST_TENANTS)]);
    }
    Plan {
        workload: Workload::Ingest,
        tenants,
        warmup,
        streams,
        probe_query: F18_QUERIES[0].to_string(),
    }
}

/// One `fold_read` read. Every query text is distinct (through `nonce`,
/// a constant no value equals), so the folds' working set exceeds the
/// subplan cache; the selection itself is fixed, so every query has the
/// same answer count on every seed: the 25 highest clean keys, plus the
/// conflicting keys.
fn fold_read_op(rng: &mut SmallRng, kind: OpKind, tenant: usize, nonce: i64) -> Op {
    let body = match kind {
        OpKind::Certain => query_body(
            kind,
            &format!("Q(x) :- T(x, y), T(x, z), x >= {FOLD_FROM}, z != {nonce}"),
        ),
        OpKind::CertainCard | OpKind::Possible => query_body(
            kind,
            &format!("Q(x, y) :- T(x, y), x >= {FOLD_FROM}, y != {nonce}"),
        ),
        _ => format!(
            "{{\"class\": \"subset\", \"limit\": {}}}",
            rng.gen_range(1..9u32)
        ),
    };
    op(kind, tenant, body)
}

/// The lowest clean key `fold_read` queries select.
const FOLD_FROM: usize = FOLD_CLEAN - 25;

/// Op types of one `fold_read` loop. `certain` appears twice so that the
/// pooled p50 falls inside its mode rather than between two modes.
const FOLD_LOOP: [OpKind; 5] = [
    OpKind::Repairs,
    OpKind::Certain,
    OpKind::Certain,
    OpKind::Possible,
    OpKind::CertainCard,
];

fn fold_read_plan(seed: u64, loops: usize) -> Plan {
    let tenants: Vec<TenantInput> = (0..CLIENTS)
        .map(|i| {
            let (db, _) =
                key_conflict_instance(FOLD_CLEAN, FOLD_CONFLICTS, 2, seed.wrapping_add(i as u64));
            TenantInput::new(&db, KEY_SIGMA)
        })
        .collect();
    let mut streams = Vec::new();
    let mut warmup = Vec::new();
    for client in 0..CLIENTS {
        let mut rng = rng_for(seed, 0x2000 + client as u64);
        // Values stay below 10^6; nonces start above it, apart per client.
        let mut nonce = 2_000_000 * (client as i64 + 1) + rng.gen_range(0..1_000_000i64);
        let mut next = || {
            nonce += 1;
            nonce
        };
        warmup.push(
            FOLD_LOOP[1..]
                .iter()
                .chain(&FOLD_LOOP[..1])
                .map(|&k| fold_read_op(&mut rng, k, client, next()))
                .collect(),
        );
        let mut stream = Vec::with_capacity(loops * FOLD_LOOP.len());
        for _ in 0..loops {
            let mut kinds = FOLD_LOOP;
            // Seeded Fisher–Yates: the op order varies, the mix does not.
            for i in (1..kinds.len()).rev() {
                kinds.swap(i, rng.gen_range(0..i + 1));
            }
            stream.extend(
                kinds
                    .iter()
                    .map(|&k| fold_read_op(&mut rng, k, client, next())),
            );
        }
        streams.push(stream);
    }
    Plan {
        workload: Workload::FoldRead,
        tenants,
        warmup,
        streams,
        probe_query: format!("Q(x) :- T(x, y), T(x, z), x >= {FOLD_FROM}"),
    }
}

fn mutate_mix_plan(seed: u64, loops: usize) -> Plan {
    let data: Vec<F18Data> = (0..CLIENTS)
        .map(|i| f18_pinned(MUTATE_ORDERS, seed.wrapping_add(1_000 + i as u64)))
        .collect();
    let tenants: Vec<TenantInput> = data
        .iter()
        .map(|d| TenantInput::new(&f18_columnar(d).0, F18_SIGMA))
        .collect();
    let mut streams = Vec::new();
    let mut warmup = Vec::new();
    for client in 0..CLIENTS {
        let mut rng = rng_for(seed, 0x3000 + client as u64);
        warmup.push(
            F18_QUERIES
                .iter()
                .map(|q| op(OpKind::Certain, client, query_body(OpKind::Certain, q)))
                .collect(),
        );
        let writes = mutations(&tenants[client].db_text, &data[client], &mut rng, loops);
        let mut stream = Vec::with_capacity(loops * (1 + READS_PER_WRITE));
        for write in writes {
            stream.push(op(OpKind::Mutate, client, write));
            // Alternating reads: each write is followed by exactly one
            // cache-missing and one cache-hitting read of each query.
            for q in F18_QUERIES.iter().cycle().take(READS_PER_WRITE) {
                stream.push(op(OpKind::Certain, client, query_body(OpKind::Certain, q)));
            }
        }
        streams.push(stream);
    }
    Plan {
        workload: Workload::MutateMix,
        tenants,
        warmup,
        streams,
        probe_query: F18_QUERIES[0].to_string(),
    }
}

/// `n` single-op mutation bodies, in a four-step cycle that leaves the
/// conflicts where it found them: a conflicting insert (an existing
/// customer, another city), an amount update above 9900 on another order,
/// the delete of the inserted order, and the update back to the old
/// amount. The seed picks the rows. The tenant's conflict work so stays
/// level over the run instead of growing with every write. A mirror of the
/// tenant supplies the tids and the old amounts.
fn mutations(db_text: &str, data: &F18Data, rng: &mut SmallRng, n: usize) -> Vec<String> {
    let mut mirror = cqa_relation::load(db_text).expect("generated codec text loads");
    let orders: Vec<Tid> = mirror
        .relation("Orders")
        .expect("F18 tenants have Orders")
        .tids()
        .collect();
    let amount_of =
        |db: &Database, tid: Tid| match db.relation("Orders").and_then(|r| r.get(tid)?.get(4)) {
            Some(Value::Int(a)) => *a,
            other => unreachable!("F18 amounts are integers, got {other:?}"),
        };
    let mut inserted = Tid(0);
    let mut raised = (Tid(0), 0i64);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let op = match i % 4 {
            0 => {
                let (_, cust, city, status, _) = &data.orders[rng.gen_range(0..data.orders.len())];
                let other = loop {
                    let (c, _) = &data.cities[rng.gen_range(0..data.cities.len())];
                    if c != city {
                        break c;
                    }
                };
                let oid = 1_000_000 + i as i64;
                let amount = rng.gen_range(0..9_900i64);
                let row = Tuple::new(vec![
                    Value::Int(oid),
                    Value::str(cust),
                    Value::str(other),
                    Value::str(status),
                    Value::Int(amount),
                ]);
                inserted = mirror.insert("Orders", row).expect("mirror insert");
                let row = Json::Array(vec![
                    Json::Int(oid),
                    Json::str(cust.as_str()),
                    Json::str(other.as_str()),
                    Json::str(status.as_str()),
                    Json::Int(amount),
                ]);
                format!("{{\"op\": \"insert\", \"relation\": \"Orders\", \"row\": {row}}}")
            }
            1 => {
                let tid = loop {
                    let t = orders[rng.gen_range(0..orders.len())];
                    if amount_of(&mirror, t) <= 9_900 {
                        break t;
                    }
                };
                raised = (tid, amount_of(&mirror, tid));
                let value = rng.gen_range(9_901..10_000i64);
                mirror
                    .update_value(tid, 4, Value::Int(value))
                    .expect("mirror update");
                format!(
                    "{{\"op\": \"update\", \"tid\": {}, \"position\": 4, \"value\": {value}}}",
                    tid.0
                )
            }
            2 => {
                mirror.delete(inserted).expect("mirror delete");
                format!("{{\"op\": \"delete\", \"tid\": {}}}", inserted.0)
            }
            _ => {
                let (tid, value) = raised;
                mirror
                    .update_value(tid, 4, Value::Int(value))
                    .expect("mirror update");
                format!(
                    "{{\"op\": \"update\", \"tid\": {}, \"position\": 4, \"value\": {value}}}",
                    tid.0
                )
            }
        };
        out.push(format!("{{\"ops\": [{op}]}}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(p: &Plan) -> Vec<String> {
        let mut out: Vec<String> = p
            .tenants
            .iter()
            .map(|t| t.create_body.to_string())
            .collect();
        for stream in p.warmup.iter().chain(&p.streams) {
            out.extend(
                stream
                    .iter()
                    .map(|o| format!("{:?} {} {}", o.kind, o.tenant, o.body)),
            );
        }
        out.push(p.probe_query.clone());
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        for w in [Workload::Ingest, Workload::FoldRead, Workload::MutateMix] {
            let a = fingerprint(&plan(w, 7, 6));
            assert_eq!(a, fingerprint(&plan(w, 7, 6)), "{}", w.name());
            assert_ne!(a, fingerprint(&plan(w, 8, 6)), "{}", w.name());
        }
    }

    #[test]
    fn streams_hold_the_requested_mix() {
        let p = plan(Workload::MutateMix, 3, 5);
        for s in &p.streams {
            assert_eq!(s.len(), 5 * (1 + READS_PER_WRITE));
            assert_eq!(s.iter().filter(|o| o.kind == OpKind::Mutate).count(), 5);
        }
        let p = plan(Workload::FoldRead, 3, 5);
        for s in &p.streams {
            assert_eq!(s.iter().filter(|o| o.kind == OpKind::Certain).count(), 10);
            let queries: Vec<&str> = s
                .iter()
                .filter(|o| o.kind != OpKind::Repairs)
                .map(|o| &*o.body)
                .collect();
            let distinct: std::collections::BTreeSet<&str> = queries.iter().copied().collect();
            assert_eq!(
                distinct.len(),
                queries.len(),
                "fold_read query texts are distinct"
            );
        }
    }

    #[test]
    fn pinned_f18_has_exactly_one_percent_of_each_conflict() {
        for seed in [1, 2] {
            let data = f18_pinned(1_000, seed);
            let cap = data.orders.iter().filter(|o| o.4 > 9_900).count();
            assert_eq!(cap, 10, "seed {seed}");
            let mut homes: BTreeMap<&str, BTreeMap<&str, usize>> = BTreeMap::new();
            for (_, cust, city, _, _) in &data.orders {
                *homes.entry(cust).or_default().entry(city).or_default() += 1;
            }
            let off_home: usize = homes
                .values()
                .map(|cities| cities.values().sum::<usize>() - cities.values().max().unwrap())
                .sum();
            assert_eq!(off_home, 10, "seed {seed}");
        }
    }

    #[test]
    fn f18_sigma_text_matches_the_generator() {
        let data = f18_data(300, 5);
        let (db, sigma) = f18_columnar(&data);
        let parsed = cqa_constraints::parse_constraints(F18_SIGMA).unwrap();
        assert_eq!(
            parsed.denial_violations(&db).unwrap(),
            sigma.denial_violations(&db).unwrap()
        );
    }
}
