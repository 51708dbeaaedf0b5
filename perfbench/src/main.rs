//! `perfbench`: the repository benchmark. It starts `repaird` in-process,
//! drives it over loopback keep-alive connections with a closed loop of
//! two clients on one seeded workload, checks every reply, and prints the
//! end-to-end metrics. With `--trace 1` it also replays the same op
//! streams in-process, timing the public call of each layer the request
//! handler makes, and prints the per-layer metrics instead.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fold_read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
//! when every reply passed the correctness gate.

mod client;
mod gate;
mod gen;
mod render;
mod replay;
mod stats;

use client::{closed_loop, run_op, session_id, Client, LoopResult, Sample};
use cqa_server::{start, ServerConfig, ServerHandle};
use gen::{OpKind, Plan, Workload, CLIENTS, MIN_LOOPS};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Rounds of the timed loop; the headline figures are medians over them.
const ROUNDS: usize = 7;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value} (use ingest|fold_read|mutate_mix)")
                })?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A named metric with its unit, as printed.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// A started server with its tenants loaded and warmed.
struct Setup {
    server: ServerHandle,
    plan: Plan,
    /// Session id per tenant (resident workloads only).
    sessions: Vec<u64>,
}

fn set_up(args: &Args, loops: usize) -> Result<Setup, String> {
    let server = start(ServerConfig {
        max_inflight: 64,
        max_sessions: 256,
        ..ServerConfig::default()
    })?;
    let addr = server.addr();
    let plan = gen::plan(args.workload, args.seed, loops);
    let io = |e: std::io::Error| format!("set-up: {e}");
    let mut sessions = Vec::new();
    if plan.resident() {
        let mut client = Client::connect(addr).map_err(io)?;
        for tenant in &plan.tenants {
            let (status, reply) = client
                .request("POST", "/sessions", &tenant.create_body)
                .map_err(io)?;
            let id = session_id(&reply).filter(|_| status == 200);
            sessions.push(id.ok_or_else(|| format!("set-up create: {status} {reply}"))?);
        }
    }
    for ops in &plan.warmup {
        let mut client = Client::connect(addr).map_err(io)?;
        for op in ops {
            let s = run_op(&mut client, op, &sessions);
            if s.status != 200 || !s.complete {
                return Err(format!(
                    "warm-up {}: {} {}",
                    op.kind.name(),
                    s.status,
                    s.reply
                ));
            }
        }
    }
    Ok(Setup {
        server,
        plan,
        sessions,
    })
}

fn stop(server: ServerHandle) {
    server.shutdown();
    let _ = server.join();
}

/// The headline metrics: mean latency and throughput over the whole loop,
/// and the median over the rounds of each round's p90 of all ops. Then the
/// report-only figures: the median round p50 and the per-op latencies.
///
/// `ingest` latencies are bimodal (about 13 ms and 21 ms per create on a
/// 2-core machine, switching within seconds), so a p50 or a median of round
/// rates jumps between the modes from run to run; the means move smoothly
/// with the share of each mode.
fn end_to_end(timed: &LoopResult) -> (Vec<Metric>, Vec<Metric>) {
    let (mut p50, mut p90, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    for (r, secs) in timed.round_s.iter().enumerate() {
        let ms: Vec<f64> = timed.round(r).map(|s| s.ms).collect();
        p50.push(stats::percentile(&ms, 0.5));
        p90.push(stats::percentile(&ms, 0.9));
        rate.push(ms.len() as f64 / secs);
    }
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "rounds: p50_ms [{}] p90_ms [{}] ops/s [{}]",
        fmt(&p50),
        fmt(&p90),
        fmt(&rate)
    );
    let all: Vec<&Sample> = timed.samples.iter().flatten().collect();
    let all_ms: Vec<f64> = all.iter().map(|s| s.ms).collect();
    let headline = vec![
        metric("latency_mean_ms", stats::mean(&all_ms), "ms"),
        metric("latency_p90_ms", stats::median(&p90), "ms"),
        metric(
            "throughput_ops",
            all.len() as f64 / timed.round_s.iter().sum::<f64>(),
            "ops/s",
        ),
    ];
    let mut per_op = vec![metric("latency_p50_ms", stats::median(&p50), "ms")];
    for kind in OpKind::ALL {
        let op_ms: Vec<f64> = all
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.ms)
            .collect();
        if !op_ms.is_empty() {
            per_op.push(metric(
                format!("{}_p50_ms", kind.name()),
                stats::percentile(&op_ms, 0.5),
                "ms",
            ));
            per_op.push(metric(
                format!("{}_p90_ms", kind.name()),
                stats::percentile(&op_ms, 0.9),
                "ms",
            ));
            per_op.push(metric(
                format!("{}_ops", kind.name()),
                op_ms.len() as f64,
                "count",
            ));
        }
    }
    (headline, per_op)
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<i32, String> {
    let loops =
        ((args.seconds as f64 * args.workload.loops_per_second()).ceil() as usize).max(MIN_LOOPS);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = setup.take() {
            stop(old.server);
        }
        let start = Instant::now();
        setup = Some(set_up(args, loops)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Setup {
        server,
        plan,
        sessions,
    } = setup.expect("at least one set-up ran");
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}; {CLIENTS} closed-loop clients, {loops} loops each, {} ops",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.ops()
    );

    let timed = closed_loop(server.addr(), &plan.streams, &sessions, ROUNDS);
    let rss = stats::peak_rss_mib().unwrap_or(0.0);
    let (failed, reasons) = gate::check(&plan, &timed.samples);
    let attempted = plan.ops();
    for reason in &reasons {
        eprintln!("perfbench: gate: {reason}");
    }
    let (headline, per_op) = end_to_end(&timed);
    let mut e2e = vec![metric("setup_s", stats::median(&setup_s), "s")];
    e2e.extend(headline);
    e2e.push(metric("rss_peak_mib", rss, "MiB"));
    let mut detail = per_op;
    detail.push(metric(
        "error_frac",
        failed as f64 / attempted as f64,
        "ratio",
    ));
    print_table("end-to-end (loopback, untraced):", &e2e);
    print_table("per op:", &detail);

    let mut correct = failed == 0;
    let reported = if args.trace {
        let layers = replay::traced(&plan, &timed.samples, &sessions, args)?;
        correct &= layers.correct;
        layers.metrics
    } else {
        e2e
    };
    stop(server);
    println!("{}", result_line(correct, attempted, failed, &reported));
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <ingest|fold_read|mutate_mix> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
