//! Per-layer metrics of the traced run: timed calls into each layer's
//! public functions, made from outside, plus the counts the layers
//! expose.

use crate::inputs::Inputs;
use crate::measure::{logged_indexes, Traffic, BATCH};
use crate::report::{median, Report, Tally};
use crate::setup::{Setup, ENGINE_THREADS, LCR_TIMED, SERVED};
use crate::trace::Tracer;
use reach_core::bfl::build_bfl_shared;
use reach_core::parallel::chunks;
use reach_core::pipeline::BuildOpts;
use reach_core::{Certainty, Condensed, QueryEngine, ReachFilter};
use reach_graph::traverse::{batch_reaches, bibfs_reaches};
use reach_graph::VisitMap;
use reach_server::http::{read_request, write_response};
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Wall-clock budget of each probe below.
const PROBE: Duration = Duration::from_millis(300);
/// Most calls any one probe makes.
const PROBE_CALLS: usize = 4_000;

/// Calls `f(i)` for `i = 0, 1, …` until [`PROBE`] has passed (at least
/// `min` calls, at most [`PROBE_CALLS`]), returning each call's time in
/// `scale` units (1e3 for microseconds from nanoseconds).
fn probe(min: usize, scale: f64, mut f: impl FnMut(usize)) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < PROBE_CALLS && (times.len() < min || start.elapsed() < PROBE) {
        let t0 = Instant::now();
        f(times.len());
        times.push(t0.elapsed().as_nanos() as f64 / scale);
    }
    times
}

fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// The registry name with only the characters metric names allow.
pub fn metric_name(index: &str) -> String {
    index
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || "_.-".contains(*c))
        .collect()
}

/// graph layer (`traverse`, `prepare`/`condense`): online search on the
/// query log and the shared condensation.
pub fn graph(setup: &Setup, inputs: &Inputs, out: &mut Report, tally: &mut Tally) {
    let g = setup.prepared.graph();
    let (log, truth) = (&inputs.log, &inputs.log_truth);
    let mut visit = VisitMap::new(g.num_vertices());
    let bibfs = probe(1_000, 1.0, |i| {
        let k = i % log.len();
        tally.check(bibfs_reaches(g, log[k].0, log[k].1, &mut visit), truth[k]);
    });
    out.push("graph.bibfs_ns_p50", median(&bibfs), "ns", bibfs.len());
    let chunks_n = log.len() / BATCH;
    let msbfs = probe(16, 1e3, |i| {
        let k = (i % chunks_n) * BATCH;
        let got = batch_reaches(g, &log[k..k + BATCH]);
        for (a, &b) in got.iter().zip(&truth[k..k + BATCH]) {
            tally.check(*a, b);
        }
    });
    out.push(
        "graph.msbfs_us_per_batch",
        median(&msbfs),
        "us",
        msbfs.len(),
    );
    out.push(
        "graph.condense_ms",
        ms(setup.prepared.condense_timing().total()),
        "ms",
        1,
    );
    let sccs = setup.prepared.condensation().scc().num_components();
    out.push("graph.sccs", sccs as f64, "count", 1);
}

/// reach-core `pipeline` and reach-labeled builds, from the reports of
/// the traced set-up.
pub fn builds(setup: &Setup, out: &mut Report) {
    for name in [SERVED, "PLL"] {
        let r = setup
            .reports()
            .find(|r| r.name == name)
            .expect("always built");
        out.push(format!("build.{name}.label_ms"), ms(r.label), "ms", 1);
        out.push(
            format!("build.{name}.bytes"),
            r.size_bytes as f64,
            "bytes",
            1,
        );
    }
    let reports: Vec<_> = setup.reports().collect();
    let label: Duration = reports.iter().map(|r| r.label).sum();
    let bytes: usize = reports.iter().map(|r| r.size_bytes).sum();
    let reused = reports.iter().filter(|r| r.reused_condensation()).count();
    out.push("build.all.label_ms", ms(label), "ms", reports.len());
    out.push("build.all.bytes", bytes as f64, "bytes", reports.len());
    out.push("build.indexes", reports.len() as f64, "count", 1);
    out.push("build.condense_reused", reused as f64, "count", 1);

    let timed = setup.timed_lcr();
    let lcr_name = metric_name(LCR_TIMED);
    let total: Duration = timed.iter().map(|b| b.report.total).sum();
    let bytes: usize = timed.iter().map(|b| b.report.size_bytes).sum();
    out.push(
        format!("lcr.{lcr_name}.build_ms"),
        ms(total),
        "ms",
        timed.len(),
    );
    out.push(
        format!("lcr.{lcr_name}.bytes"),
        bytes as f64,
        "bytes",
        timed.len(),
    );
    let total: Duration = setup.lcr.iter().map(|b| b.report.total).sum();
    let bytes: usize = setup.lcr.iter().map(|b| b.report.size_bytes).sum();
    out.push("lcr.all.build_ms", ms(total), "ms", setup.lcr.len());
    out.push("lcr.all.bytes", bytes as f64, "bytes", setup.lcr.len());
}

/// reach-core query paths: per-call times from the traced log spans,
/// the BFL filter's verdicts and guided-search work per pair.
pub fn queries(
    setup: &Setup,
    inputs: &Inputs,
    tracer: &Tracer,
    out: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    for name in logged_indexes() {
        let ns: Vec<f64> = tracer
            .durations_ns(&format!("query.{name}"))
            .iter()
            .map(|&d| d as f64)
            .collect();
        out.quantile(format!("query.{name}.p50_ns"), &ns, 0.5, "ns")?;
        out.quantile(format!("query.{name}.p99_ns"), &ns, 0.99, "ns")?;
    }
    let lcr_ns: Vec<f64> = tracer
        .durations_ns(&format!("lcr.query.{LCR_TIMED}"))
        .iter()
        .map(|&d| d as f64)
        .collect();
    out.quantile(
        format!("lcr.{}.query_ns_p50", metric_name(LCR_TIMED)),
        &lcr_ns,
        0.5,
        "ns",
    )?;

    // The registry's BFL is a boxed trait object; rebuild it with the
    // same options as a concrete type to reach its filter and counters.
    let opts = BuildOpts::default();
    let bfl = Condensed::from_prepared(&setup.prepared, |dag| {
        build_bfl_shared(dag.shared_graph(), dag, opts.bfl_bits, opts.seed)
    });
    let cond = bfl.condensation();
    let (mut decided, mut expanded) = (0usize, 0usize);
    for (&(s, t), &want) in inputs.log.iter().zip(&inputs.log_truth) {
        if cond.same_component(s, t) {
            decided += 1;
            tally.check(true, want);
            continue;
        }
        let (cs, ct) = (cond.component_of(s), cond.component_of(t));
        decided += usize::from(bfl.inner().filter().certain(cs, ct) != Certainty::Unknown);
        let (got, stats) = bfl.inner().query_counted(cs, ct);
        expanded += stats.expanded;
        tally.check(got, want);
    }
    let pairs = inputs.log.len();
    out.push(
        "query.BFL.filter_decided_share",
        decided as f64 / pairs as f64,
        "share",
        pairs,
    );
    out.push(
        "query.BFL.expanded_per_pair",
        expanded as f64 / pairs as f64,
        "count",
        pairs,
    );
    Ok(())
}

/// reach-core `query_engine`: a 64-pair `/batch` payload through the
/// sharded engine against the index's own batch call.
pub fn engine(setup: &Setup, traffic: &Traffic, out: &mut Report, tally: &mut Tally) {
    let index = setup.service.index();
    let engine = QueryEngine::new(ENGINE_THREADS);
    let (mut run, mut direct) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for i in 0.. {
        if i >= 2 * PROBE_CALLS || (i >= 32 && start.elapsed() >= PROBE) {
            break;
        }
        let pairs = traffic.batch_pairs(i);
        let t0 = Instant::now();
        let a = engine.run(index, pairs);
        run.push(t0.elapsed().as_nanos() as f64 / 1e3);
        let t0 = Instant::now();
        let b = index.query_batch(pairs);
        direct.push(t0.elapsed().as_nanos() as f64 / 1e3);
        for (x, y) in a.into_iter().zip(b) {
            tally.check(x, y);
        }
    }
    out.push("engine.run64_us_p50", median(&run), "us", run.len());
    out.push(
        "engine.direct64_us_p50",
        median(&direct),
        "us",
        direct.len(),
    );
    // QueryEngine::run spawns one scoped thread per shard when it shards
    let threads = if ENGINE_THREADS > 1 {
        chunks(BATCH, ENGINE_THREADS).len()
    } else {
        0
    };
    out.push(
        "engine.threads_spawned_per_batch",
        threads as f64,
        "count",
        1,
    );
}

/// reach-server `http`: parsing and writing replayed requests over a
/// loopback socket pair, and `IndexService::query` on the same
/// payloads. (`IndexService::query_batch` is `QueryEngine::run`, timed
/// by [`engine`].)
pub fn http(setup: &Setup, traffic: &Traffic, out: &mut Report) -> std::io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut client = TcpStream::connect(listener.local_addr()?)?;
    let (mut server, _) = listener.accept()?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    let mut reader = BufReader::new(server.try_clone()?);
    let mut sink = client.try_clone()?;
    let (mut parse, mut write) = (Vec::new(), Vec::new());
    std::thread::scope(|scope| -> std::io::Result<()> {
        let drain = scope.spawn(move || std::io::copy(&mut sink, &mut std::io::sink()));
        let start = Instant::now();
        let mut i = 0;
        let result = loop {
            if i >= PROBE_CALLS || (i >= 100 && start.elapsed() >= PROBE) {
                break Ok(());
            }
            let req = traffic.request(i as u64, i);
            if let Err(e) = client.write_all(req.raw().as_bytes()) {
                break Err(e);
            }
            let t0 = Instant::now();
            let request = read_request(&mut reader, 1 << 20);
            parse.push(t0.elapsed().as_nanos() as f64 / 1e3);
            if request.is_err() {
                break Err(std::io::Error::other("a replayed request did not parse"));
            }
            let t0 = Instant::now();
            if let Err(e) = write_response(&mut server, 200, req.expect, true) {
                break Err(e);
            }
            write.push(t0.elapsed().as_nanos() as f64 / 1e3);
            i += 1;
        };
        server.shutdown(Shutdown::Both)?;
        drain.join().expect("the drain thread does not panic")?;
        result
    })?;
    out.push("server.parse_us_p50", median(&parse), "us", parse.len());
    out.push("server.write_us_p50", median(&write), "us", write.len());

    let svc = &setup.service;
    let query = probe(100, 1e3, |i| {
        let (s, t) = traffic.batch_pairs(i / BATCH)[i % BATCH];
        std::hint::black_box(svc.query(s, t));
    });
    out.push(
        "server.eval.query_us_p50",
        median(&query),
        "us",
        query.len(),
    );
    Ok(())
}

/// reach-server `metrics`: what the running server counted, read from
/// its exposition (its latency histograms have power-of-two buckets,
/// so the handled time is reported as the mean, not a bucket bound).
pub fn server(setup: &Setup, out: &mut Report) -> Result<(), String> {
    let m = setup.server.metrics();
    let text = m.render("");
    let value = |key: &str| -> Result<f64, String> {
        text.lines()
            .find_map(|l| l.strip_prefix(key).and_then(|v| v.trim().parse().ok()))
            .ok_or_else(|| format!("the server exposition has no {key}"))
    };
    for ep in ["query", "batch"] {
        let sum = value(&format!(
            "reach_request_latency_us_sum{{endpoint=\"{ep}\"}}"
        ))?;
        let count = value(&format!(
            "reach_request_latency_us_count{{endpoint=\"{ep}\"}}"
        ))?;
        out.push(
            format!("server.handled.{ep}_us_mean"),
            sum / count,
            "us",
            count as usize,
        );
    }
    let non200 = m.total_responses() - m.responses_with_status(200);
    out.push("server.non200", non200 as f64, "count", 1);
    out.push(
        "server.queue_full",
        m.queue_full_rejects() as f64,
        "count",
        1,
    );
    out.push(
        "server.connections",
        value("reach_connections_total")?,
        "count",
        1,
    );
    Ok(())
}
