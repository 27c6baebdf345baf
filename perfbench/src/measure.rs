//! The timed phases: a closed-loop HTTP client and the in-process
//! query log, interleaved in rounds so that drift on a shared machine
//! touches every metric alike.

use crate::inputs::Inputs;
use crate::report::quantile;
use crate::setup::{Setup, ENGINE_THREADS, LCR_TIMED, LOGGED, SERVED};
use crate::trace::Tracer;
use rand::rngs::SmallRng;
use rand::Rng;
use reach_core::QueryEngine;
use reach_graph::VertexId;
use reach_server::Client;
use std::time::{Duration, Instant};

/// Pairs per `/batch` request and per engine call on the query log.
pub const BATCH: usize = 64;
/// Distinct `/batch` bodies the client cycles through.
const BATCH_BODIES: usize = 512;
/// Length of one round. Each round gives one rate per path and one
/// value per latency quantile; a run reports the slow decile of each.
pub const ROUND_SECONDS: f64 = 0.5;
/// Share of each round spent on HTTP load; the rest is split evenly
/// over the query-log paths.
const SERVE_SHARE: f64 = 0.5;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// The indexes the query log compares, in metric order.
pub fn logged_indexes() -> [&'static str; 3] {
    [SERVED, LOGGED[0], LOGGED[1]]
}

/// One way of answering the query log, timed per round.
#[derive(Clone, Copy)]
pub enum LogPath {
    /// `ReachIndex::query` per pair.
    PerPair(&'static str),
    /// `QueryEngine::run` over 64-pair chunks.
    Batch(&'static str),
    /// `LcrIndex::query` per label-constrained pair.
    Lcr,
}

impl LogPath {
    pub fn all() -> Vec<LogPath> {
        let names = logged_indexes();
        let mut paths: Vec<_> = names.iter().map(|&n| LogPath::PerPair(n)).collect();
        paths.extend(names.iter().map(|&n| LogPath::Batch(n)));
        paths.push(LogPath::Lcr);
        paths
    }

    /// The end-to-end metric this path's rate is reported as.
    pub fn metric(self) -> String {
        match self {
            LogPath::PerPair(n) => format!("pairs_per_s.{n}"),
            LogPath::Batch(n) => format!("batch_pairs_per_s.{n}"),
            LogPath::Lcr => "lcr_pairs_per_s".to_string(),
        }
    }

    /// The span recorded around each call on this path.
    fn span(self) -> String {
        match self {
            LogPath::PerPair(n) => format!("query.{n}"),
            LogPath::Batch(n) => format!("engine.run.{n}"),
            LogPath::Lcr => format!("lcr.query.{LCR_TIMED}"),
        }
    }
}

/// One request of the mix, with the body the server must answer.
pub struct Request<'a> {
    /// Index into [`ENDPOINTS`].
    pub endpoint: usize,
    pub method: &'static str,
    pub path: &'static str,
    pub body: &'a str,
    pub expect: &'a str,
}

impl Request<'_> {
    /// The request as a client sends it.
    pub fn raw(&self) -> String {
        format!(
            "{} {} HTTP/1.1\r\nHost: reach\r\nContent-Length: {}\r\n\r\n{}",
            self.method,
            self.path,
            self.body.len(),
            self.body
        )
    }
}

/// Endpoints in the order the client records them.
pub const ENDPOINTS: [&str; 3] = ["query", "batch", "healthz"];

/// The 8/1/1 mix of `/query`, `/batch` and `/healthz` requests.
pub struct Traffic {
    queries: Vec<(String, &'static str)>,
    batches: Vec<Batch>,
}

struct Batch {
    body: String,
    expect: String,
    pairs: Vec<(VertexId, VertexId)>,
}

impl Traffic {
    /// Request bodies and expected responses, from the verdicts the
    /// service gives before timing starts.
    pub fn new(inputs: &Inputs, setup: &Setup, rng: &mut SmallRng) -> Traffic {
        let verdict = |&(s, t): &(VertexId, VertexId)| {
            if setup.service.query(s, t) {
                "true\n"
            } else {
                "false\n"
            }
        };
        let line = |&(s, t): &(VertexId, VertexId)| format!("{} {}", s.0, t.0);
        let pool = &inputs.pool;
        let queries = pool.iter().map(|p| (line(p), verdict(p))).collect();
        let batches = (0..BATCH_BODIES)
            .map(|_| {
                let start = rng.random_range(0..pool.len());
                let pairs: Vec<_> = (0..BATCH).map(|k| pool[(start + k) % pool.len()]).collect();
                Batch {
                    body: pairs.iter().map(|p| line(p) + "\n").collect(),
                    expect: pairs.iter().map(verdict).collect(),
                    pairs,
                }
            })
            .collect();
        Traffic { queries, batches }
    }

    /// Request `seq` of the stream: `/batch` and `/healthz` take one
    /// slot in ten each; `pick` chooses the payload.
    pub fn request(&self, seq: u64, pick: usize) -> Request<'_> {
        match seq % 10 {
            8 => {
                let batch = &self.batches[pick % self.batches.len()];
                Request {
                    endpoint: 1,
                    method: "POST",
                    path: "/batch",
                    body: &batch.body,
                    expect: &batch.expect,
                }
            }
            9 => Request {
                endpoint: 2,
                method: "GET",
                path: "/healthz",
                body: "",
                expect: "ok\n",
            },
            _ => {
                let (body, expect) = &self.queries[pick % self.queries.len()];
                Request {
                    endpoint: 0,
                    method: "POST",
                    path: "/query",
                    body,
                    expect,
                }
            }
        }
    }

    /// The pairs of the `i`-th `/batch` payload.
    pub fn batch_pairs(&self, i: usize) -> &[(VertexId, VertexId)] {
        &self.batches[i % self.batches.len()].pairs
    }
}

/// One closed-loop keep-alive connection with no think time.
pub struct LoadClient<'a> {
    addr: String,
    traffic: &'a Traffic,
    client: Option<Client>,
    rng: SmallRng,
    /// Client-side latency per endpoint, microseconds.
    pub latency_us: [Vec<f64>; 3],
    pub sent: u64,
    pub failed: u64,
    pub reconnects: u64,
}

impl<'a> LoadClient<'a> {
    pub fn new(addr: String, traffic: &'a Traffic, rng: SmallRng) -> LoadClient<'a> {
        LoadClient {
            addr,
            traffic,
            client: None,
            rng,
            latency_us: Default::default(),
            sent: 0,
            failed: 0,
            reconnects: 0,
        }
    }

    /// Sends requests until `budget` has passed; returns how many and
    /// the time they took.
    pub fn run(&mut self, budget: Duration, mut tracer: Option<&mut Tracer>) -> (u64, Duration) {
        let names = tracer
            .as_mut()
            .map(|t| ENDPOINTS.map(|e| t.name_id(&format!("http.{e}"))));
        let start = Instant::now();
        let mut count = 0;
        while count == 0 || start.elapsed() < budget {
            let mut client = match self.client.take() {
                Some(c) => c,
                None => match Client::connect(&self.addr, CLIENT_TIMEOUT) {
                    Ok(c) => {
                        if self.sent > 0 {
                            self.reconnects += 1;
                        }
                        c
                    }
                    Err(_) => {
                        self.sent += 1;
                        self.failed += 1;
                        count += 1;
                        continue;
                    }
                },
            };
            let req = self
                .traffic
                .request(self.sent, self.rng.random_range(0..usize::MAX));
            let span = match (&mut tracer, &names) {
                (Some(t), Some(ids)) => Some(t.open_id(ids[req.endpoint], self.sent)),
                _ => None,
            };
            let t0 = Instant::now();
            let response = client.request(req.method, req.path, req.body);
            let us = t0.elapsed().as_nanos() as f64 / 1e3;
            if let (Some(t), Some(span)) = (&mut tracer, span) {
                t.close(span);
            }
            self.sent += 1;
            count += 1;
            match response {
                Ok(r) if r.status == 200 && r.body == req.expect => {
                    self.latency_us[req.endpoint].push(us)
                }
                _ => self.failed += 1,
            }
            if client.is_open() {
                self.client = Some(client);
            }
        }
        (count, start.elapsed())
    }
}

/// Answers the query log on every [`LogPath`], checking each answer.
pub struct LogRunner<'a> {
    setup: &'a Setup,
    inputs: &'a Inputs,
    engine: QueryEngine,
    cursor: Vec<usize>,
    pub answered: u64,
    pub wrong: u64,
}

impl<'a> LogRunner<'a> {
    pub fn new(setup: &'a Setup, inputs: &'a Inputs) -> LogRunner<'a> {
        LogRunner {
            setup,
            inputs,
            engine: QueryEngine::new(ENGINE_THREADS),
            cursor: vec![0; LogPath::all().len()],
            answered: 0,
            wrong: 0,
        }
    }

    /// Answers pairs on `path` (slot `slot` of [`LogPath::all`]) until
    /// `budget` has passed, continuing where the last slice stopped.
    /// Returns pairs answered and the time taken.
    pub fn run(
        &mut self,
        slot: usize,
        path: LogPath,
        budget: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> (u64, Duration) {
        let name = tracer.as_mut().map(|t| t.name_id(&path.span()));
        let (log, truth) = (&self.inputs.log, &self.inputs.log_truth);
        let mut cursor = self.cursor[slot];
        let index = match path {
            LogPath::PerPair(name) | LogPath::Batch(name) => Some(self.setup.plain(name)),
            LogPath::Lcr => None,
        };
        let lcr: Vec<_> = self
            .setup
            .timed_lcr()
            .iter()
            .map(|b| b.index.as_ref())
            .collect();
        let mut count = 0u64;
        let mut wrong = 0u64;
        let start = Instant::now();
        while count == 0 || start.elapsed() < budget {
            let span = match (&mut tracer, name) {
                (Some(t), Some(id)) => Some(t.open_id(id, cursor as u64)),
                _ => None,
            };
            match (path, index) {
                (LogPath::PerPair(_), Some(index)) => {
                    let (s, t) = log[cursor];
                    wrong += u64::from(index.query(s, t) != truth[cursor]);
                    cursor = (cursor + 1) % log.len();
                    count += 1;
                }
                (LogPath::Batch(_), Some(index)) => {
                    let end = (cursor + BATCH).min(log.len());
                    let got = self.engine.run(index, &log[cursor..end]);
                    wrong += got
                        .iter()
                        .zip(&truth[cursor..end])
                        .filter(|(a, b)| a != b)
                        .count() as u64;
                    count += (end - cursor) as u64;
                    cursor = end % log.len();
                }
                _ => {
                    let (g, s, t, mask) = self.inputs.lcr[cursor];
                    wrong += u64::from(lcr[g].query(s, t, mask) != self.inputs.lcr_truth[cursor]);
                    cursor = (cursor + 1) % self.inputs.lcr.len();
                    count += 1;
                }
            }
            if let (Some(t), Some(span)) = (&mut tracer, span) {
                t.close(span);
            }
        }
        let elapsed = start.elapsed();
        self.cursor[slot] = cursor;
        self.answered += count;
        self.wrong += wrong;
        (count, elapsed)
    }
}

/// Client-side latency quantiles taken in every round:
/// (metric, index into [`ENDPOINTS`], quantile).
pub const LATENCIES: [(&str, usize, f64); 4] = [
    ("query_p50_us", 0, 0.5),
    ("query_p90_us", 0, 0.9),
    ("batch_p50_us", 1, 0.5),
    ("batch_p90_us", 1, 0.9),
];

/// Per-round figures from one measured stretch.
pub struct Measured {
    pub requests_per_s: Vec<f64>,
    /// Per [`LATENCIES`] entry.
    pub latency_us: [Vec<f64>; 4],
    /// Rounds with fewer than 10 samples beyond a latency quantile.
    pub short_rounds: usize,
    /// Per [`LogPath::all`] slot.
    pub path_rates: Vec<Vec<f64>>,
}

/// Runs rounds of about [`ROUND_SECONDS`] for `seconds`: a serve slice,
/// then one slice per log path. The client and runner accumulate
/// latencies and correctness counts across calls.
pub fn rounds(
    seconds: f64,
    client: &mut LoadClient,
    log: &mut LogRunner,
    mut tracer: Option<&mut Tracer>,
) -> Measured {
    let paths = LogPath::all();
    let rounds = (seconds / ROUND_SECONDS).round().max(1.0) as usize;
    let round = seconds / rounds as f64;
    let serve_slice = Duration::from_secs_f64(round * SERVE_SHARE);
    let log_slice = Duration::from_secs_f64(round * (1.0 - SERVE_SHARE) / paths.len() as f64);
    let mut m = Measured {
        requests_per_s: Vec::new(),
        latency_us: Default::default(),
        short_rounds: 0,
        path_rates: vec![Vec::new(); paths.len()],
    };
    for r in 0..rounds {
        let span = tracer.as_mut().map(|t| t.open("round", r as u64));
        let before = client.latency_us.each_ref().map(Vec::len);
        let (n, d) = client.run(serve_slice, tracer.as_deref_mut());
        m.requests_per_s.push(n as f64 / d.as_secs_f64());
        for (i, &(_, ep, q)) in LATENCIES.iter().enumerate() {
            match quantile(&client.latency_us[ep][before[ep]..], q) {
                Some(v) => m.latency_us[i].push(v),
                None => m.short_rounds += 1,
            }
        }
        for (slot, &path) in paths.iter().enumerate() {
            let (n, d) = log.run(slot, path, log_slice, tracer.as_deref_mut());
            m.path_rates[slot].push(n as f64 / d.as_secs_f64());
        }
        if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
            t.close(span);
        }
    }
    m
}
