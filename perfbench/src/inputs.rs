//! Workload definitions and input generation.
//!
//! Every graph, query log and request stream is derived from the one
//! workload seed given on the command line, so the same seed gives the
//! same inputs. The expected answers are computed here, by a plain BFS
//! that shares no code with the indexes under test (and `lcr_bfs` for
//! label-constrained pairs), before anything is timed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reach_graph::generators::{
    label_edges, power_law_dag, random_dag, random_digraph, LabelDistribution,
};
use reach_graph::{DiGraph, LabelSet, LabeledGraph, VertexId};
use reach_labeled::online::lcr_bfs;
use std::sync::Arc;

/// Vertex count of the sparse DAG served over HTTP. Every workload
/// also builds PLL for the query log, and PLL on a sparse random DAG
/// grows fast: on a 2-vCPU x86-64 VM it took 1.9 s at 25k vertices,
/// 8.7 s at 50k and 41 s at 100k.
const SPARSE_N: usize = 25_000;
/// Vertex count of the power-law DAG of the query log.
const POWERLAW_N: usize = 100_000;
/// Vertex count of the cyclic graphs (plain and labeled).
const CYCLIC_N: usize = 5_000;
/// Edge labels on the labeled graphs, Zipf-distributed.
const LABELS: usize = 8;
/// Labeled graphs the label-constrained queries span. P2H+ query cost
/// follows the graph drawn: at n=5000 its index took 4.0 MB on one
/// seed and 6.0 MB on another, and a query 0.64 µs against 0.87 µs.
/// Spreading the queries over several graphs averages that out.
const LCR_GRAPHS: usize = 4;
/// Pairs the HTTP requests draw from (uniform, like `loadgen`).
const POOL: usize = 4_096;
/// Query-log sources; each asks about [`TARGETS_PER_SOURCE`] targets.
const LOG_SOURCES: usize = 4_096;
/// Targets per source: the locality the batch path exploits.
const TARGETS_PER_SOURCE: usize = 8;
/// Chance that a log pair is drawn from the source's reachable set.
const LOG_POSITIVE_SHARE: f64 = 0.21;
/// Label-constrained queries per labeled graph, half of them
/// satisfiable.
const LCR_QUERIES: usize = 4_096;
/// Pairs each built index is checked on against the BFS oracle.
const CHECK_PAIRS: usize = 256;

/// The benchmark's workloads. Each runs the same phases (set-up, HTTP
/// load, query log); the input decides which layer does the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// BFL served over loopback on a sparse DAG: HTTP and engine bound.
    ServeSparse,
    /// A query log with locality on a power-law DAG: query bound.
    LogPowerlaw,
    /// Every feasible index over one giant SCC: build bound.
    BuildCyclic,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeSparse,
        Workload::LogPowerlaw,
        Workload::BuildCyclic,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSparse => "serve-sparse",
            Workload::LogPowerlaw => "log-powerlaw",
            Workload::BuildCyclic => "build-cyclic",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether set-up builds every feasible plain index, not just the
    /// three the query log compares.
    pub fn builds_everything(self) -> bool {
        self == Workload::BuildCyclic
    }
}

/// One stream of random numbers per input, all derived from the
/// workload seed (SplitMix64 finaliser over seed and stream number).
/// Streams 1–6 make the inputs below, and 12–36 the labeled graphs
/// after the first; `main` takes 7 for the `/batch` payloads and 8 for
/// the client's picks.
pub fn stream(seed: u64, id: u64) -> SmallRng {
    let mut z = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    SmallRng::seed_from_u64(z ^ (z >> 31))
}

/// Everything a run feeds the program, with the expected answers.
pub struct Inputs {
    pub graph: Arc<DiGraph>,
    /// [`LCR_GRAPHS`] labeled cyclic graphs.
    pub labeled: Vec<Arc<LabeledGraph>>,
    /// Uniform pairs the HTTP requests draw from.
    pub pool: Vec<(VertexId, VertexId)>,
    /// The query log: [`TARGETS_PER_SOURCE`] consecutive pairs share a
    /// source, so each 64-pair chunk holds 8 sources.
    pub log: Vec<(VertexId, VertexId)>,
    pub log_truth: Vec<bool>,
    /// Label-constrained queries as (labeled graph, source, target,
    /// allowed labels), grouped by graph.
    pub lcr: Vec<(usize, VertexId, VertexId, LabelSet)>,
    pub lcr_truth: Vec<bool>,
    /// Whether each of the first [`CHECK_PAIRS`] pool pairs is
    /// reachable; every built index answers them once.
    pub check_truth: Vec<bool>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = stream(seed, 1);
        let graph = match workload {
            Workload::ServeSparse => random_dag(SPARSE_N, 3 * SPARSE_N, &mut rng).into_graph(),
            Workload::LogPowerlaw => power_law_dag(POWERLAW_N, 3, &mut rng).into_graph(),
            Workload::BuildCyclic => random_digraph(CYCLIC_N, 4 * CYCLIC_N, &mut rng),
        };
        // build-cyclic labels its own graph first; every other labeled
        // graph is a separate cyclic graph of the same size
        let (mut labeled, mut lcr, mut lcr_truth) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..LCR_GRAPHS {
            let id = 10 * k as u64;
            let unlabeled = match workload {
                Workload::BuildCyclic if k == 0 => graph.clone(),
                _ => random_digraph(CYCLIC_N, 4 * CYCLIC_N, &mut stream(seed, 2 + id)),
            };
            let g = label_edges(
                &unlabeled,
                LABELS,
                LabelDistribution::Zipf,
                &mut stream(seed, 3 + id),
            );
            let (queries, truth) = lcr_queries(&g, &mut stream(seed, 6 + id));
            lcr.extend(queries.into_iter().map(|(s, t, mask)| (k, s, t, mask)));
            lcr_truth.extend(truth);
            labeled.push(Arc::new(g));
        }

        let mut bfs = Bfs::new(graph.num_vertices());
        let n = graph.num_vertices() as u32;
        let mut rng = stream(seed, 4);
        let pool: Vec<_> = (0..POOL)
            .map(|_| {
                (
                    VertexId(rng.random_range(0..n)),
                    VertexId(rng.random_range(0..n)),
                )
            })
            .collect();
        let check_truth = pool[..CHECK_PAIRS]
            .iter()
            .map(|&(s, t)| bfs.reaches(&graph, s, t))
            .collect();

        let (log, log_truth) = query_log(&graph, &mut bfs, &mut stream(seed, 5));
        Inputs {
            graph: Arc::new(graph),
            labeled,
            pool,
            log,
            log_truth,
            lcr,
            lcr_truth,
            check_truth,
        }
    }
}

/// Sources are drawn among vertices that reach something. Per source,
/// each target is drawn from the source's reachable set
/// with probability [`LOG_POSITIVE_SHARE`] and otherwise by rejection
/// from the rest (falling back to a reachable one when the source
/// reaches nearly everything, as in one giant SCC).
fn query_log(
    g: &DiGraph,
    bfs: &mut Bfs,
    rng: &mut SmallRng,
) -> (Vec<(VertexId, VertexId)>, Vec<bool>) {
    let n = g.num_vertices() as u32;
    let mut log = Vec::with_capacity(LOG_SOURCES * TARGETS_PER_SOURCE);
    let mut truth = Vec::with_capacity(log.capacity());
    for _ in 0..LOG_SOURCES {
        // a source that reaches nothing could only ask negatives
        let (mut s, mut reached) = (VertexId(0), Vec::new());
        for _ in 0..64 {
            s = VertexId(rng.random_range(0..n));
            reached = bfs.closure(g, s);
            if !reached.is_empty() {
                break;
            }
        }
        for _ in 0..TARGETS_PER_SOURCE {
            let negative = (!rng.random_bool(LOG_POSITIVE_SHARE) || reached.is_empty())
                .then(|| {
                    (0..64)
                        .map(|_| VertexId(rng.random_range(0..n)))
                        .find(|&t| t != s && !bfs.is_marked(t))
                })
                .flatten();
            let (t, reach) = match negative {
                Some(t) => (t, false),
                None if reached.is_empty() => (s, true),
                None => (reached[rng.random_range(0..reached.len())], true),
            };
            log.push((s, t));
            truth.push(reach);
        }
    }
    (log, truth)
}

/// Random pairs and non-empty label masks, classified by `lcr_bfs` and
/// kept so that half are satisfiable.
fn lcr_queries(
    g: &LabeledGraph,
    rng: &mut SmallRng,
) -> (Vec<(VertexId, VertexId, LabelSet)>, Vec<bool>) {
    let n = g.num_vertices() as u32;
    let (mut queries, mut truth) = (Vec::new(), Vec::new());
    let mut want = [LCR_QUERIES / 2, LCR_QUERIES - LCR_QUERIES / 2];
    let mut budget = 100 * LCR_QUERIES;
    while want != [0, 0] && budget > 0 {
        budget -= 1;
        let s = VertexId(rng.random_range(0..n));
        let t = VertexId(rng.random_range(0..n));
        let mask = LabelSet(rng.random_range(1..1u64 << LABELS));
        let reach = lcr_bfs(g, s, t, mask);
        if want[reach as usize] > 0 || budget == 0 {
            want[reach as usize] = want[reach as usize].saturating_sub(1);
            queries.push((s, t, mask));
            truth.push(reach);
        }
    }
    (queries, truth)
}

/// The oracle: breadth-first search with an epoch-stamped visited set.
pub struct Bfs {
    stamp: Vec<u32>,
    epoch: u32,
    queue: Vec<VertexId>,
}

impl Bfs {
    pub fn new(n: usize) -> Bfs {
        Bfs {
            stamp: vec![0; n],
            epoch: 0,
            queue: Vec::new(),
        }
    }

    /// Every vertex reachable from `s` by a non-empty path, except `s`.
    /// Leaves them marked until the next search.
    fn closure(&mut self, g: &DiGraph, s: VertexId) -> Vec<VertexId> {
        self.search(g, s, None);
        self.queue.retain(|&v| v != s);
        std::mem::take(&mut self.queue)
    }

    fn is_marked(&self, v: VertexId) -> bool {
        self.stamp[v.index()] == self.epoch
    }

    pub fn reaches(&mut self, g: &DiGraph, s: VertexId, t: VertexId) -> bool {
        s == t || self.search(g, s, Some(t))
    }

    /// Visits from `s` in BFS order into `self.queue`; stops early when
    /// `target` is found.
    fn search(&mut self, g: &DiGraph, s: VertexId, target: Option<VertexId>) -> bool {
        self.epoch += 1;
        self.queue.clear();
        self.queue.push(s);
        self.stamp[s.index()] = self.epoch;
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for &v in g.out_neighbors(u) {
                if Some(v) == target {
                    return true;
                }
                if self.stamp[v.index()] != self.epoch {
                    self.stamp[v.index()] = self.epoch;
                    self.queue.push(v);
                }
            }
        }
        false
    }
}
