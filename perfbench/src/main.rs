//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-sparse|log-powerlaw|build-cyclic --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates its inputs from the seed, sets up the indexes
//! and the HTTP server several times (timing each), then measures for
//! `--seconds`: rounds of closed-loop HTTP load on one keep-alive
//! connection, alternating with the query log on every index and path.
//! Every answer is checked. It prints each metric with its unit and
//! sample count, then, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! The whole run is pinned to one CPU (see `pin.rs`).
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` reports the
//! per-layer metrics instead: it records spans around the calls into
//! each layer, times the layers' public functions directly, reports the
//! tracing overhead (traced minus untraced end-to-end numbers from the
//! same run) and writes the spans to `perfbench/out/`.

mod inputs;
mod layers;
mod measure;
mod pin;
mod report;
mod setup;
mod trace;

use inputs::{Inputs, Workload};
use measure::{rounds, LoadClient, LogPath, LogRunner, Measured, Traffic, LATENCIES};
use report::{median, slow_decile, Report, Tally};
use setup::Setup;
use std::process::ExitCode;
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Untimed warm-up before measuring: scratch pools, caches, the
/// server's first connection.
const WARMUP_SECONDS: f64 = 0.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a whole number")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve-sparse|log-powerlaw|build-cyclic \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let cpu = pin::pin_to_one_cpu().map_err(|e| format!("pinning to one CPU: {e}"))?;
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} | pinned to CPU {cpu}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let inputs = Inputs::generate(w, args.seed);
    println!(
        "inputs: graph n={} m={} | {} labeled, n={} m={} | {} log pairs ({:.1}% reachable) | \
         uniform pairs {:.1}% reachable | {} lcr queries",
        inputs.graph.num_vertices(),
        inputs.graph.num_edges(),
        inputs.labeled.len(),
        inputs.labeled[0].num_vertices(),
        inputs.labeled[0].num_edges(),
        inputs.log.len(),
        percent(&inputs.log_truth),
        percent(&inputs.check_truth),
        inputs.lcr.len(),
    );

    let mut tracer = args.trace.then(Tracer::new);
    let mut setup_times = Vec::new();
    let setup = loop {
        let (setup, took) =
            Setup::run(w, &inputs, tracer.as_mut()).map_err(|e| format!("set-up: {e}"))?;
        setup_times.push(took.as_secs_f64());
        if args.trace || setup_times.len() == SETUP_REPEATS {
            break setup;
        }
        setup.shutdown();
    };

    let mut tally = Tally::default();
    check_builds(&setup, &inputs, &mut tally);

    let traffic = Traffic::new(&inputs, &setup, &mut inputs::stream(args.seed, 7));
    let addr = setup.server.addr().to_string();
    let mut client = LoadClient::new(addr, &traffic, inputs::stream(args.seed, 8));
    let mut log = LogRunner::new(&setup, &inputs);
    rounds(WARMUP_SECONDS, &mut client, &mut log, None);
    client.latency_us = Default::default();
    let overflows_before = reach_graph::scratch_overflow_count();

    let mut out = Report::default();
    if let Some(tracer) = tracer.as_mut() {
        // Untraced then traced halves of the same run; their difference
        // is the tracing overhead.
        let half = args.seconds / 2.0;
        let m = rounds(half, &mut client, &mut log, None);
        let plain = end_to_end(&m, None)?;
        client.latency_us = Default::default();
        let (sent, failed, reconnects) = (client.sent, client.failed, client.reconnects);
        let m = rounds(half, &mut client, &mut log, Some(tracer));
        let traced = end_to_end(&m, None)?;

        layers::graph(&setup, &inputs, &mut out, &mut tally);
        out.push(
            "graph.scratch_overflows",
            (reach_graph::scratch_overflow_count() - overflows_before) as f64,
            "count",
            1,
        );
        layers::builds(&setup, &mut out);
        layers::queries(&setup, &inputs, tracer, &mut out, &mut tally)?;
        layers::engine(&setup, &traffic, &mut out, &mut tally);
        layers::http(&setup, &traffic, &mut out).map_err(|e| format!("http probe: {e}"))?;
        let healthz = &client.latency_us[2];
        out.quantile("server.healthz_us_p50", healthz, 0.5, "us")?;
        layers::server(&setup, &mut out)?;
        out.push("loadgen.sent", (client.sent - sent) as f64, "count", 1);
        out.push(
            "loadgen.failed",
            (client.failed - failed) as f64,
            "count",
            1,
        );
        out.push(
            "loadgen.reconnects",
            (client.reconnects - reconnects) as f64,
            "count",
            1,
        );
        out.quantile("loadgen.query_p99_us", &client.latency_us[0], 0.99, "us")?;
        out.quantile("loadgen.batch_p99_us", &client.latency_us[1], 0.99, "us")?;

        out.push("trace.spans", tracer.spans_closed() as f64, "count", 1);
        // how much worse the traced half read than the untraced half
        for (name, rate) in [
            ("requests_per_s", true),
            ("query_p50_us", false),
            ("pairs_per_s.BFL", true),
            ("batch_pairs_per_s.BFL", true),
        ] {
            let (a, b) = plain
                .get(name)
                .zip(traced.get(name))
                .expect("both halves report it");
            let worse = if rate { (a - b) / a } else { (b - a) / a };
            out.push(format!("trace.overhead_share.{name}"), worse, "share", 2);
        }
        write_spans(args, tracer)?;
    } else {
        let m = rounds(args.seconds, &mut client, &mut log, None);
        out = end_to_end(&m, Some(&setup_times))?;
        out.push("index_bytes", setup.index_bytes() as f64, "bytes", 1);
    }
    tally.add(client.sent, client.failed);
    tally.add(log.answered, log.wrong);
    setup.shutdown();

    if !args.trace {
        let share = (tally.attempted - tally.failed) as f64 / tally.attempted as f64;
        out.push("correct_share", share, "share", tally.attempted as usize);
    }
    print!("{}", out.table());
    println!(
        "checked {} answers, {} wrong or failed",
        tally.attempted, tally.failed
    );
    out.json(tally.failed == 0, tally.attempted, tally.failed)
}

fn percent(truth: &[bool]) -> f64 {
    100.0 * truth.iter().filter(|&&r| r).count() as f64 / truth.len() as f64
}

/// The end-to-end metrics of one measured stretch; `setup_s` when the
/// set-up times are given.
///
/// Every rate and latency quantile is taken per round and reported as
/// the slow decile over the run's rounds: the 10th percentile of a
/// rate, the 90th of a latency. Virtual machines on a shared host
/// switch between a fast and a slow state that last from a second to
/// over half a minute: on a 2-vCPU x86-64 VM, `/query` p50 read about
/// 11 µs in one and 18 µs in the other, and per-pair rates moved by
/// 1.3x. The share of fast rounds ranged from none to nine in ten from
/// one 40-second run to the next. A median or a mean over rounds
/// follows that share; the slow decile moves only when nine rounds in
/// ten are fast.
fn end_to_end(m: &Measured, setup_times: Option<&[f64]>) -> Result<Report, String> {
    if m.short_rounds > 0 {
        return Err(format!(
            "{} round latency quantiles had fewer than 10 samples beyond them",
            m.short_rounds
        ));
    }
    let mut out = Report::default();
    if let Some(times) = setup_times {
        out.push("setup_s", median(times), "s", times.len());
    }
    let rate = &m.requests_per_s;
    out.push("requests_per_s", slow_decile(rate, true), "1/s", rate.len());
    for ((name, _, _), per_round) in LATENCIES.iter().zip(&m.latency_us) {
        out.push(*name, slow_decile(per_round, false), "us", per_round.len());
    }
    for (path, rates) in LogPath::all().into_iter().zip(&m.path_rates) {
        out.push(path.metric(), slow_decile(rates, true), "1/s", rates.len());
    }
    Ok(out)
}

/// Every built index answers the check pairs once, against BFS and
/// `lcr_bfs`.
fn check_builds(setup: &Setup, inputs: &Inputs, tally: &mut Tally) {
    let plain =
        std::iter::once(setup.service.index()).chain(setup.plain.iter().map(|b| b.index.as_ref()));
    for index in plain {
        for (&(s, t), &want) in inputs.pool.iter().zip(&inputs.check_truth) {
            tally.check(index.query(s, t), want);
        }
    }
    for built in &setup.lcr {
        let lcr = inputs.lcr.iter().zip(&inputs.lcr_truth);
        let on_graph = lcr.filter(|((g, ..), _)| *g == built.graph);
        for (&(_, s, t, mask), &want) in on_graph.take(inputs.check_truth.len()) {
            tally.check(built.index.query(s, t, mask), want);
        }
    }
}

/// Writes the spans of a traced run under `perfbench/out/`, one file
/// per workload, and prints the largest self times.
fn write_spans(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", args.workload.name()));
    let header = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    std::fs::write(&path, tracer.to_json(&header))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} (self time, largest first)", path.display());
    for (name, count, total, own) in tracer.self_times().into_iter().take(12) {
        println!(
            "  {name:<28} n={count:<8} total={:>10.3}ms self={:>10.3}ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    Ok(())
}
