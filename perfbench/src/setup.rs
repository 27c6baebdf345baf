//! Set-up: from handing the generated graph to `PreparedGraph` until
//! the last index is built and the server is accepting connections.

use crate::inputs::{Inputs, Workload};
use crate::trace::Tracer;
use reach_core::pipeline::{build_plain_with_report, BuildOpts, BuildReport, PLAIN_REGISTRY};
use reach_core::{IndexService, ReachIndex};
use reach_graph::PreparedGraph;
use reach_labeled::pipeline::build_lcr;
use reach_labeled::LcrIndex;
use reach_server::{ServerConfig, ServerHandle, Services};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The index the server answers with.
pub const SERVED: &str = "BFL";
/// The plain indexes the query log compares, besides the served one.
pub const LOGGED: [&str; 2] = ["PLL", "online-BiBFS"];
/// The labeled index the query log times.
pub const LCR_TIMED: &str = "P2H+";
/// HTTP workers and batch-engine threads (the `loadgen` setting).
pub const WORKERS: usize = 2;
pub const ENGINE_THREADS: usize = 2;

pub struct Built<I: ?Sized> {
    pub name: &'static str,
    /// The labeled graph a labeled index covers (an index into
    /// `Inputs::labeled`); 0 for plain indexes.
    pub graph: usize,
    pub index: Box<I>,
    pub report: BuildReport,
}

pub struct Setup {
    pub prepared: Arc<PreparedGraph>,
    pub service: Arc<IndexService>,
    /// Every other plain index, in registry order.
    pub plain: Vec<Built<dyn ReachIndex>>,
    pub lcr: Vec<Built<dyn LcrIndex>>,
    pub server: ServerHandle,
}

impl Setup {
    /// Builds everything the workload serves and queries, recording one
    /// span per build when `tracer` is given.
    pub fn run(
        workload: Workload,
        inputs: &Inputs,
        mut tracer: Option<&mut Tracer>,
    ) -> std::io::Result<(Setup, Duration)> {
        let opts = BuildOpts::default();
        let start = Instant::now();
        let root = tracer.as_mut().map(|t| t.open("setup", 0));
        let mut span = |name: &str, f: &mut dyn FnMut()| match tracer.as_mut() {
            Some(t) => {
                let id = t.open(name, 0);
                f();
                t.close(id);
            }
            None => f(),
        };

        let prepared = PreparedGraph::new_shared(Arc::clone(&inputs.graph));
        let mut service = None;
        span(&format!("build.{SERVED}"), &mut || {
            service = Some(
                IndexService::build(SERVED, Arc::clone(&prepared), &opts, ENGINE_THREADS)
                    .expect("the served index is in the registry"),
            )
        });
        let service = Arc::new(service.expect("built above"));

        let mut plain = Vec::new();
        for name in plain_set(workload, &prepared) {
            span(&format!("build.{name}"), &mut || {
                let (index, report) = build_plain_with_report(name, &prepared, &opts);
                plain.push(Built {
                    name,
                    graph: 0,
                    index,
                    report,
                });
            });
        }

        let mut lcr = Vec::new();
        for (name, graph) in lcr_set(workload, inputs.labeled.len()) {
            span(&format!("lcr.{name}"), &mut || {
                let t0 = Instant::now();
                let index = build_lcr(name, &inputs.labeled[graph], &opts);
                let built = t0.elapsed();
                lcr.push(Built {
                    name,
                    graph,
                    report: BuildReport {
                        name,
                        condense: Duration::ZERO,
                        order: Duration::ZERO,
                        label: built,
                        total: built,
                        size_bytes: index.size_bytes(),
                        size_entries: index.size_entries(),
                    },
                    index,
                });
            });
        }

        let mut server = None;
        span("server.start", &mut || {
            server = Some(reach_server::start(
                Services {
                    plain: Arc::clone(&service),
                    lcr: None,
                },
                ServerConfig {
                    workers: WORKERS,
                    ..ServerConfig::default()
                },
            ))
        });
        let server = server.expect("started above")?;
        let elapsed = start.elapsed();
        if let (Some(t), Some(root)) = (tracer, root) {
            t.close(root);
        }
        Ok((
            Setup {
                prepared,
                service,
                plain,
                lcr,
                server,
            },
            elapsed,
        ))
    }

    /// Looks up a built plain index by registry name.
    pub fn plain(&self, name: &str) -> &dyn ReachIndex {
        if name == SERVED {
            return self.service.index();
        }
        let built = self.plain.iter().find(|b| b.name == name);
        built
            .expect("only built indexes are queried")
            .index
            .as_ref()
    }

    /// The [`LCR_TIMED`] builds, one per labeled graph, in graph order.
    pub fn timed_lcr(&self) -> Vec<&Built<dyn LcrIndex>> {
        self.lcr.iter().filter(|b| b.name == LCR_TIMED).collect()
    }

    /// Every plain build report, the served index first.
    pub fn reports(&self) -> impl Iterator<Item = &BuildReport> {
        std::iter::once(self.service.report()).chain(self.plain.iter().map(|b| &b.report))
    }

    /// Heap bytes of every index built.
    pub fn index_bytes(&self) -> usize {
        self.reports().map(|r| r.size_bytes).sum::<usize>()
            + self.lcr.iter().map(|b| b.report.size_bytes).sum::<usize>()
    }

    pub fn shutdown(self) {
        self.server.shutdown_and_join();
    }
}

/// The plain indexes built besides the served one: the logged pair, or
/// on build-cyclic every registry entry feasible at this size except
/// the online baselines it does not query.
fn plain_set(workload: Workload, prepared: &PreparedGraph) -> Vec<&'static str> {
    let (n, m) = (prepared.num_vertices(), prepared.num_edges());
    PLAIN_REGISTRY
        .iter()
        .filter(|spec| spec.name != SERVED)
        .filter(|spec| {
            LOGGED.contains(&spec.name)
                || (workload.builds_everything()
                    && !spec.name.starts_with("online-")
                    && (spec.feasible)(n, m))
        })
        .map(|spec| spec.name)
        .collect()
}

/// The labeled indexes built, with the labeled graph each covers:
/// the timed one on every graph and, on build-cyclic, `Landmark index`
/// on the first, which labels the workload's own graph.
fn lcr_set(workload: Workload, graphs: usize) -> Vec<(&'static str, usize)> {
    let mut set: Vec<_> = (0..graphs).map(|g| (LCR_TIMED, g)).collect();
    if workload.builds_everything() {
        set.push(("Landmark index", 0));
    }
    set
}
