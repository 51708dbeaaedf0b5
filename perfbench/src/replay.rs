//! The traced run: the timed op streams replayed in-process, with no
//! sockets, through the public calls `repaird`'s handler makes, in the
//! order it makes them. Each request is a span whose children time one
//! layer's call each: JSON parse, codec load, Σ parse, session build,
//! refresh, the `core` CQA entry, rendering through `cqa_server::wire`.
//! Calls that measure a layer nested inside a `core` entry (the database
//! copy, `eval_ucq`, the constraint pipeline, hitting sets) run as probes,
//! after and outside the request span. The replay runs with spans off,
//! on, and off again; the traced request wall time over the mean untraced
//! one is the tracing overhead. The traced replies must equal the loopback
//! replies byte for byte.

use crate::client::{session_id, Sample};
use crate::gen::{Op, OpKind, Plan, CLIENTS};
use crate::{gate, metric, render, stats, Args, Metric};
use cqa_constraints::{parse_constraints, ConflictHypergraph, ConstraintSet};
use cqa_core::planner::Strategy;
use cqa_core::{
    answer_consistently_incremental, consistent_answers_budgeted, possible_answers_budgeted,
    s_repairs_budgeted, IncrementalState, MaintenanceDecision, RepairClass, RepairOptions,
};
use cqa_exec::{Budget, Outcome};
use cqa_query::{eval_ucq, parse_query, plan_cache_stats, NullSemantics, UnionQuery};
use cqa_relation::Database;
use cqa_server::json::parse;
use cqa_server::wire::{budget_from_body, BudgetPolicy};
use cqa_server::{Json, ServerConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Probed requests per op type (probes cost more than the request).
const PROBES_PER_KIND: usize = 48;

/// One timed interval. Request spans have no parent; layer calls have
/// their request span as parent; probes have neither.
struct Span {
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    probe: bool,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder. With `on == false` it records nothing but
/// still sums request wall time, so traced and untraced replays are timed
/// alike.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Option<(usize, Instant)>,
    requests: u64,
    request_ns: u64,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: None,
            requests: 0,
            request_ns: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record<R>(&mut self, name: &'static str, probe: bool, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            request: self.requests,
            parent: if probe {
                None
            } else {
                self.open.map(|(i, _)| i)
            },
            probe,
            start_ns,
            end_ns,
        });
        out
    }

    /// A layer call inside the open request span.
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.record(name, false, f)
    }

    /// A probe: timed outside any request span.
    fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.record(name, true, f)
    }

    fn begin(&mut self, name: &'static str) {
        self.requests += 1;
        let index = self.spans.len();
        if self.on {
            let now = self.now();
            self.spans.push(Span {
                name,
                request: self.requests,
                parent: None,
                probe: false,
                start_ns: now,
                end_ns: now,
            });
        }
        self.open = Some((index, Instant::now()));
    }

    /// Close the open request span.
    fn end(&mut self) {
        let (index, started) = self.open.take().expect("a request span is open");
        let ns = started.elapsed().as_nanos() as u64;
        self.request_ns += ns;
        if self.on {
            self.spans[index].end_ns = self.now();
        }
    }
}

/// A tenant as the server holds it: `CqaSession`'s three fields, driven
/// through the same public calls the session makes.
struct Live {
    db: Arc<Database>,
    sigma: ConstraintSet,
    state: IncrementalState,
}

/// What one replay measured besides spans.
#[derive(Default)]
struct Counters {
    /// In-process time per timed op (ms), by op type.
    op_ms: BTreeMap<OpKind, Vec<f64>>,
    /// Reply bytes per timed op, by op type.
    reply_bytes: BTreeMap<OpKind, Vec<f64>>,
    cache_hits: u64,
    cache_misses: u64,
    recomputes: u64,
    refreshes: u64,
    truncations: u64,
    factored_repairs: Vec<f64>,
    product_repairs: Vec<f64>,
    /// Per create probe: violation sets, hyper-edges, components, largest.
    shapes: Vec<[f64; 4]>,
    heap_kib: Vec<f64>,
    /// `eval_ucq` on a fresh copy minus the same call on the warm base.
    index_rebuild_ms: Vec<f64>,
    probed: BTreeMap<OpKind, usize>,
}

struct Replay<'a> {
    plan: &'a Plan,
    tracer: Tracer,
    tenants: Vec<Option<Live>>,
    policy: BudgetPolicy,
    counters: Counters,
}

fn text<'j>(body: &'j Json, key: &str) -> &'j str {
    body.get(key)
        .and_then(Json::as_str)
        .expect("generated bodies carry this field")
}

fn to_ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl<'a> Replay<'a> {
    fn new(plan: &'a Plan, traced: bool) -> Replay<'a> {
        let config = ServerConfig::default();
        Replay {
            plan,
            tracer: Tracer::new(traced),
            tenants: (0..plan.tenants.len()).map(|_| None).collect(),
            policy: BudgetPolicy {
                default_timeout_ms: config.default_timeout_ms,
                max_timeout_ms: config.max_timeout_ms,
            },
            counters: Counters::default(),
        }
    }

    /// Should this request be probed? Probes run only when tracing.
    fn probe_this(&mut self, kind: OpKind) -> bool {
        let n = self.counters.probed.entry(kind).or_default();
        *n += 1;
        self.tracer.on && *n <= PROBES_PER_KIND
    }

    /// `POST /sessions`, rendered with the loopback's session id.
    fn create(&mut self, tenant: usize, session: u64) -> (String, Live) {
        let body_text = &*self.plan.tenants[tenant].create_body;
        let tr = &mut self.tracer;
        tr.begin("create");
        let body = tr.call("server.json_parse", || {
            parse(body_text).expect("generated body")
        });
        let db = tr.call("relation.load", || {
            cqa_relation::load(text(&body, "db")).expect("generated codec text")
        });
        let sigma = tr.call("constraints.parse", || {
            parse_constraints(text(&body, "constraints")).expect("generated Σ")
        });
        let state = tr.call("core.session_new", || {
            IncrementalState::new(&db, &sigma).expect("denial-class Σ")
        });
        let reply = tr.call("server.render", || {
            render::created(
                session,
                db.epoch(),
                state.is_consistent(),
                state.violations().len(),
            )
        });
        tr.end();
        let live = Live {
            db: Arc::new(db),
            sigma,
            state,
        };
        if self.probe_this(OpKind::Create) {
            self.probe_constraints(&live);
            let q = UnionQuery::single(parse_query(&self.plan.probe_query).expect("probe query"));
            self.probe_query(&live.db, &q);
        }
        (reply, live)
    }

    /// The batch constraint pipeline `CqaSession::new` runs, one call each.
    fn probe_constraints(&mut self, live: &Live) {
        let tr = &mut self.tracer;
        let violations = tr.probe("constraints.violations", || {
            live.sigma.denial_violations(&*live.db).expect("violations")
        });
        let graph = tr.probe("constraints.hypergraph", || {
            ConflictHypergraph::new(live.db.tids(), violations.iter().cloned())
        });
        let components = tr.probe("constraints.components", || graph.components());
        self.probe_hitting_sets(&graph);
        self.counters.shapes.push([
            violations.len() as f64,
            graph.edge_count() as f64,
            components.components.len() as f64,
            components.largest_component() as f64,
        ]);
    }

    fn probe_hitting_sets(&mut self, graph: &ConflictHypergraph) {
        let components = graph.components();
        self.tracer.probe("constraints.min_hitting_sets", || {
            components.minimum_hitting_sets_factored(&Budget::unlimited())
        });
    }

    /// Q(D) on the warm base, the database copy, and Q on the copy, whose
    /// indexes start empty.
    fn probe_query(&mut self, db: &Arc<Database>, q: &UnionQuery) {
        let _ = eval_ucq(&**db, q, NullSemantics::Sql);
        self.counters
            .heap_kib
            .push((db.heap_bytes() + db.dict().heap_bytes()) as f64 / 1024.0);
        let tr = &mut self.tracer;
        let warm = Instant::now();
        tr.probe("query.eval", || eval_ucq(&**db, q, NullSemantics::Sql));
        let warm = to_ms(warm.elapsed());
        let copy = tr.probe("relation.clone", || Database::clone(db));
        let fresh = Instant::now();
        let _ = eval_ucq(&copy, q, NullSemantics::Sql);
        self.counters
            .index_rebuild_ms
            .push(to_ms(fresh.elapsed()) - warm);
    }

    /// `DELETE /sessions/<id>`: the session is dropped.
    fn delete(&mut self, live: Live, session: u64) {
        let tr = &mut self.tracer;
        tr.begin("delete");
        tr.call("core.session_drop", || drop(live));
        tr.call("server.render", || render::deleted(session));
        tr.end();
    }

    fn note_outcome<T>(&mut self, outcome: &Outcome<T>) {
        if outcome.is_truncated() {
            self.counters.truncations += 1;
        }
    }

    /// A read op on a resident tenant.
    fn read(&mut self, op: &Op) -> String {
        let mut live = self.tenants[op.tenant].take().expect("resident tenant");
        let tr = &mut self.tracer;
        tr.begin(op.kind.name());
        let body = tr.call("server.json_parse", || {
            parse(&op.body).expect("generated body")
        });
        let budget = budget_from_body(&body, &self.policy);
        let query =
            || UnionQuery::single(parse_query(text(&body, "query")).expect("generated query"));
        let q = (op.kind != OpKind::Repairs).then(|| tr.call("query.parse", query));
        let (db, sigma) = (&live.db, &live.sigma);
        let fail = "replayed call";
        let reply = match (op.kind, &q) {
            (OpKind::Certain, Some(q)) => {
                tr.call("core.refresh", || {
                    live.state.refresh(db, sigma).map(|_| ()).expect(fail)
                });
                let out = tr.call("core.certain", || {
                    answer_consistently_incremental(db, sigma, q, &mut live.state, &budget)
                        .expect(fail)
                });
                let reply = tr.call("server.render", || render::planned(&out));
                if let Strategy::FactoredEnumeration { factorization, .. } = &out.value().strategy {
                    self.counters
                        .factored_repairs
                        .push(factorization.factored_repairs as f64);
                    let product = factorization
                        .product_repairs
                        .map_or(f64::INFINITY, |p| p as f64);
                    self.counters.product_repairs.push(product);
                }
                self.note_outcome(&out);
                reply
            }
            (OpKind::CertainCard, Some(q)) => {
                let out = tr.call("core.certain_card", || {
                    consistent_answers_budgeted(db, sigma, q, &RepairClass::Cardinality, &budget)
                        .expect(fail)
                });
                let reply = tr.call("server.render", || render::answers(&out));
                self.note_outcome(&out);
                reply
            }
            (OpKind::Possible, Some(q)) => {
                let out = tr.call("core.possible", || {
                    possible_answers_budgeted(db, sigma, q, &RepairClass::Subset, &budget)
                        .expect(fail)
                });
                let reply = tr.call("server.render", || render::answers(&out));
                self.note_outcome(&out);
                reply
            }
            _ => {
                let limit = body.get("limit").and_then(Json::as_u64).map(|n| n as usize);
                let options = RepairOptions {
                    limit,
                    ..RepairOptions::default()
                };
                let out = tr.call("core.repairs", || {
                    s_repairs_budgeted(db, sigma, &options, &budget).expect(fail)
                });
                let reply = tr.call("server.render", || render::repairs(&out, limit));
                self.note_outcome(&out);
                reply
            }
        };
        self.tracer.end();
        if self.probe_this(op.kind) {
            if let Some(q) = &q {
                self.probe_query(&live.db, q);
            }
            if op.kind == OpKind::CertainCard {
                let graph = live.state.graph().clone();
                self.probe_hitting_sets(&graph);
            }
        }
        self.tenants[op.tenant] = Some(live);
        reply
    }

    /// `POST /mutate`: the database call, then the delta refresh. Generated
    /// bodies carry one op, so this is the server's per-op refresh.
    fn mutate(&mut self, op: &Op) -> String {
        let mut live = self.tenants[op.tenant].take().expect("resident tenant");
        let tr = &mut self.tracer;
        tr.begin("mutate");
        let body = tr.call("server.json_parse", || {
            parse(&op.body).expect("generated body")
        });
        let budget = budget_from_body(&body, &self.policy);
        let results = tr.call("relation.mutate", || {
            gate::apply_mutation(Arc::make_mut(&mut live.db), &body)
        });
        let decision = tr.call("core.delta_refresh", || {
            live.state
                .refresh_budgeted(&live.db, &live.sigma, &budget)
                .expect("maintenance of a generated mutation")
                .clone()
        });
        self.counters.refreshes += 1;
        if matches!(decision, MaintenanceDecision::Recompute { .. }) {
            self.counters.recomputes += 1;
        }
        let consistent = live.state.is_consistent();
        let epoch = live.db.epoch();
        let reply = tr.call("server.render", || {
            render::mutated(epoch, consistent, decision.describe(), results)
        });
        tr.end();
        self.tenants[op.tenant] = Some(live);
        reply
    }

    /// Run one op; returns the reply of its main request and the op's
    /// in-process time.
    fn op(&mut self, op: &Op, sample: &Sample) -> String {
        let before = plan_cache_stats();
        let requests_ns = self.tracer.request_ns;
        let reply = match op.kind {
            OpKind::Create => {
                let session = session_id(&sample.reply).unwrap_or(0);
                let (reply, live) = self.create(op.tenant, session);
                self.delete(live, session);
                reply
            }
            OpKind::Mutate => self.mutate(op),
            _ => self.read(op),
        };
        let after = plan_cache_stats();
        self.counters.cache_hits += after.hits.saturating_sub(before.hits);
        self.counters.cache_misses += after.misses.saturating_sub(before.misses);
        let ms = (self.tracer.request_ns - requests_ns) as f64 / 1e6;
        self.counters.op_ms.entry(op.kind).or_default().push(ms);
        self.counters
            .reply_bytes
            .entry(op.kind)
            .or_default()
            .push(reply.len() as f64);
        reply
    }

    /// Replay set-up (resident tenants and warm-up) and then the timed
    /// streams, clients interleaved op by op. Returns the replies and the
    /// index of the first span of the timed streams.
    fn run(&mut self, sessions: &[u64], samples: &[Vec<Sample>]) -> (Vec<Vec<String>>, usize) {
        cqa_query::reset_plan_cache();
        if self.plan.resident() {
            for (tenant, &session) in sessions.iter().enumerate() {
                let (_, live) = self.create(tenant, session);
                self.tenants[tenant] = Some(live);
            }
            for op in self.plan.warmup.iter().flatten() {
                let _ = self.read(op);
            }
        } else {
            for op in self.plan.warmup.iter().flatten() {
                let (_, live) = self.create(op.tenant, 0);
                self.delete(live, 0);
            }
        }
        // Only the timed streams count from here on; the set-up creates'
        // probes stay, they describe the resident tenants.
        let setup = std::mem::take(&mut self.counters);
        self.counters = Counters {
            shapes: setup.shapes,
            heap_kib: setup.heap_kib,
            index_rebuild_ms: setup.index_rebuild_ms,
            ..Counters::default()
        };
        self.tracer.request_ns = 0;
        let first = self.tracer.spans.len();
        let mut replies: Vec<Vec<String>> = vec![Vec::new(); CLIENTS];
        let plan = self.plan;
        let mut cursors: Vec<_> = plan
            .streams
            .iter()
            .zip(samples)
            .map(|(ops, samples)| ops.iter().zip(samples))
            .collect();
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (client, cursor) in cursors.iter_mut().enumerate() {
                if let Some((op, sample)) = cursor.next() {
                    replies[client].push(self.op(op, sample));
                    progressed = true;
                }
            }
        }
        (replies, first)
    }
}

/// The traced run's per-layer metrics and whether its answers and span
/// accounting held.
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub correct: bool,
}

/// Check that every child span lies inside its request span and that the
/// children do not overlap, so self time plus the children account for
/// the request. Returns the request self time in ns.
fn request_self_ns(spans: &[Span], request: usize, children: &[usize]) -> Option<u64> {
    let parent = &spans[request];
    let mut covered = 0u64;
    let mut cursor = parent.start_ns;
    for &c in children {
        let child = &spans[c];
        if child.start_ns < cursor || child.end_ns < child.start_ns || child.end_ns > parent.end_ns
        {
            return None;
        }
        covered += child.end_ns - child.start_ns;
        cursor = child.end_ns;
    }
    Some(parent.end_ns - parent.start_ns - covered)
}

fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("index\trequest\tname\tparent\tprobe\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}",
            s.request,
            s.name,
            u8::from(s.probe),
            s.start_ns,
            s.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// Replay the timed streams untraced, traced and untraced again, check the
/// traced replies against the loopback ones, and derive the per-layer
/// metrics.
pub fn traced(
    plan: &Plan,
    samples: &[Vec<Sample>],
    sessions: &[u64],
    args: &Args,
) -> Result<Layers, String> {
    // Untraced replays before and after the traced one, so that drift and
    // warm-up over the three cancel out of the overhead.
    let untraced = || {
        let mut replay = Replay::new(plan, false);
        let _ = replay.run(sessions, samples);
        replay.tracer.request_ns
    };
    let before_ns = untraced();
    let mut replay = Replay::new(plan, true);
    let (replies, first) = replay.run(sessions, samples);
    let untraced_ns = (before_ns + untraced()) / 2;
    let Replay {
        tracer, counters, ..
    } = replay;
    let spans = tracer.spans;
    let mut correct = true;

    let mut mismatches = 0usize;
    for (client, replies) in replies.iter().enumerate() {
        for (i, reply) in replies.iter().enumerate() {
            let loopback = &samples[client][i].reply;
            if reply != loopback {
                mismatches += 1;
                if mismatches <= 3 {
                    eprintln!("perfbench: trace: client {client} op {i}: replayed {reply:.200} but loopback {loopback:.200}");
                }
            }
        }
    }
    correct &= mismatches == 0;

    // Layer busy time and request self time over the timed streams.
    let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().skip(first) {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(i);
        }
    }
    let mut busy_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut self_ns = 0u64;
    let mut bad_requests = 0usize;
    for (i, s) in spans.iter().enumerate().skip(first) {
        if s.probe || s.parent.is_some() {
            continue;
        }
        let kids = children.get(&i).map_or(&[][..], Vec::as_slice);
        match request_self_ns(&spans, i, kids) {
            Some(ns) => self_ns += ns,
            None => bad_requests += 1,
        }
        for &c in kids {
            let child = &spans[c];
            let layer = child.name.split('.').next().unwrap_or(child.name);
            *busy_ns.entry(layer).or_default() += child.end_ns - child.start_ns;
            *busy_ns.entry(child.name).or_default() += child.end_ns - child.start_ns;
        }
    }
    if bad_requests > 0 {
        eprintln!("perfbench: trace: {bad_requests} request spans whose children do not nest");
        correct = false;
    }
    let ops = plan.ops() as f64;
    let per_op = |key: &str| busy_ns.get(key).copied().unwrap_or(0) as f64 / 1e6 / ops;
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &spans {
        by_name
            .entry(s.name)
            .or_default()
            .push((s.end_ns - s.start_ns) as f64 / 1e6);
    }
    let mean_of = |name: &str| by_name.get(name).map_or(0.0, |v| stats::mean(v));
    let p50_of = |name: &str| by_name.get(name).map_or(0.0, |v| stats::median(v));
    let all =
        |m: &BTreeMap<OpKind, Vec<f64>>| -> Vec<f64> { m.values().flatten().copied().collect() };
    let loopback: Vec<f64> = samples.iter().flatten().map(|s| s.ms).collect();
    let handle_ms = stats::mean(&all(&counters.op_ms));
    let shape = |i: usize| stats::mean(&counters.shapes.iter().map(|s| s[i]).collect::<Vec<_>>());
    let lookups = counters.cache_hits + counters.cache_misses;

    let metrics = vec![
        metric("server.handle_ms", handle_ms, "ms"),
        metric("server.wire_ms", stats::mean(&loopback) - handle_ms, "ms"),
        metric("server.json_parse_ms", per_op("server.json_parse"), "ms"),
        metric("server.render_ms", per_op("server.render"), "ms"),
        metric(
            "server.reply_bytes",
            stats::mean(&all(&counters.reply_bytes)),
            "bytes",
        ),
        metric("relation.load_ms", mean_of("relation.load"), "ms"),
        metric("relation.heap_kib", stats::mean(&counters.heap_kib), "KiB"),
        metric("relation.clone_ms", mean_of("relation.clone"), "ms"),
        metric(
            "relation.index_rebuild_ms",
            stats::mean(&counters.index_rebuild_ms),
            "ms",
        ),
        metric("constraints.parse_ms", mean_of("constraints.parse"), "ms"),
        metric(
            "constraints.violations_ms",
            mean_of("constraints.violations"),
            "ms",
        ),
        metric("constraints.violation_sets", shape(0), "count"),
        metric(
            "constraints.hypergraph_ms",
            mean_of("constraints.hypergraph"),
            "ms",
        ),
        metric("constraints.hyperedges", shape(1), "count"),
        metric(
            "constraints.components_ms",
            mean_of("constraints.components"),
            "ms",
        ),
        metric("constraints.components", shape(2), "count"),
        metric("constraints.largest_component", shape(3), "count"),
        metric(
            "constraints.min_hitting_sets_ms",
            mean_of("constraints.min_hitting_sets"),
            "ms",
        ),
        metric("core.session_new_ms", mean_of("core.session_new"), "ms"),
        metric("core.busy_ms", per_op("core"), "ms"),
        metric("query.eval_ms", mean_of("query.eval"), "ms"),
        metric("query.plan_cache_hits", counters.cache_hits as f64, "count"),
        metric(
            "query.plan_cache_misses",
            counters.cache_misses as f64,
            "count",
        ),
        metric(
            "query.plan_cache_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                counters.cache_hits as f64 / lookups as f64
            },
            "ratio",
        ),
        metric("unattributed_ms", self_ns as f64 / 1e6 / ops, "ms"),
        metric(
            "trace.overhead_frac",
            tracer.request_ns as f64 / untraced_ns.max(1) as f64 - 1.0,
            "ratio",
        ),
    ];

    // The human-readable breakdown: layer busy time per op, then per op
    // type, then the counters that are not in the result line.
    println!("per layer (traced in-process replay, ms per op; self time of the request as `unattributed`):");
    for layer in ["server", "relation", "constraints", "core", "query"] {
        println!(
            "  {layer:<14} {:>10.4} ms  {:>5.1}%",
            per_op(layer),
            100.0 * per_op(layer) / handle_ms
        );
    }
    let unattributed = self_ns as f64 / 1e6 / ops;
    println!(
        "  {:<14} {unattributed:>10.4} ms  {:>5.1}%",
        "unattributed",
        100.0 * unattributed / handle_ms
    );
    let mut detail = Vec::new();
    for (kind, times) in &counters.op_ms {
        let name = kind.name();
        let wire: Vec<f64> = samples
            .iter()
            .flatten()
            .filter(|s| s.kind == *kind)
            .map(|s| s.ms)
            .collect();
        let handle = stats::median(times);
        detail.push(metric(format!("server.handle_ms.{name}"), handle, "ms"));
        detail.push(metric(
            format!("server.wire_ms.{name}"),
            stats::median(&wire) - handle,
            "ms",
        ));
        let bytes = counters
            .reply_bytes
            .get(kind)
            .map_or(0.0, |b| stats::mean(b));
        detail.push(metric(format!("server.reply_bytes.{name}"), bytes, "bytes"));
        if *kind != OpKind::Create && *kind != OpKind::Mutate {
            detail.push(metric(
                format!("core.{name}_ms"),
                p50_of(&format!("core.{name}")),
                "ms",
            ));
        }
    }
    detail.push(metric(
        "core.delta_refresh_ms",
        mean_of("core.delta_refresh"),
        "ms",
    ));
    detail.push(metric(
        "core.delta_refreshes",
        counters.refreshes as f64,
        "count",
    ));
    detail.push(metric(
        "core.delta_recomputes",
        counters.recomputes as f64,
        "count",
    ));
    detail.push(metric(
        "core.factored_repairs",
        stats::mean(&counters.factored_repairs),
        "count",
    ));
    detail.push(metric(
        "core.product_repairs",
        stats::mean(&counters.product_repairs),
        "count",
    ));
    detail.push(metric(
        "exec.truncations",
        counters.truncations as f64,
        "count",
    ));
    detail.push(metric(
        "trace.request_spans_checked",
        (spans.len() - first) as f64,
        "count",
    ));
    crate::print_table("per op type and counters:", &detail);
    crate::print_table("per-layer metrics:", &metrics);

    let path = std::path::Path::new(".perfbench").join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    write_spans(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans: {} written to {}", spans.len(), path.display());
    correct &= counters.truncations == 0;
    Ok(Layers { metrics, correct })
}
