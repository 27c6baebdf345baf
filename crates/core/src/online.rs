//! Index-free online traversal, packaged as [`ReachIndex`] baselines
//! (§2.3: BFS, DFS, BiBFS).
//!
//! These are the comparators every index must beat; the `claims`
//! harness uses them to reproduce the survey's "an order of magnitude
//! faster than using only graph traversal" observation.
//!
//! Batches of BFS and DFS run the multi-source bit-parallel sweep
//! ([`traverse::batch_reaches`]). Batches of BiBFS go through the same
//! word grouping but sweep only the words that carry `MIN_SWEEP_PAIRS`
//! pairs or more and answer every other pair by bidirectional search on
//! one pooled [`VisitMap`]: the
//! sweep must exhaust a source's whole forward closure for every
//! negative pair, which a bidirectional search rarely does.

use crate::index::{Completeness, Dynamism, Framework, IndexMeta, InputClass, ReachIndex};
use reach_graph::traverse::{self, VisitMap};
use reach_graph::{DiGraph, ScratchPool, VertexId};
use std::sync::Arc;

/// Fewest pairs a word of 64 distinct sources must carry before an
/// online-BiBFS batch answers it with one MS-BFS sweep instead of one
/// bidirectional search per pair. The sweep costs about one traversal
/// per word whatever its pairs; the searches cost per pair. Measured on
/// one pinned core of a 2-vCPU x86-64 VM, 30 words of 64 sources × `r`
/// uniform targets each, every answer checked, the sweep took this
/// share of the pooled searches' time (below 1 = sweep faster):
///
/// | graph                        | r=1  | r=2  | r=4  | r=8  | r=16 |
/// |------------------------------|------|------|------|------|------|
/// | sparse DAG, 25k, 3n edges    | 4.0  | 2.0  | 1.0  | 0.54 | 0.27 |
/// | sparse DAG, 100k, 3n edges   | 4.5  | 2.2  | 1.4  | 0.71 | 0.38 |
/// | digraph, 5k, 4n edges (SCC)  | 11   | 5.9  | 2.9  | 1.6  | 0.85 |
///
/// 256 pairs (`r = 4`) is the break-even on sparse DAGs: full words
/// of the `throughput` workload (512 pairs) keep the sweep, and small
/// batches such as a 64-pair `/batch` get bidirectional search.
const MIN_SWEEP_PAIRS: usize = 256;

/// Which traversal strategy an [`OnlineSearch`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Breadth-first search from the source.
    Bfs,
    /// Depth-first search from the source.
    Dfs,
    /// Bidirectional BFS from both endpoints.
    BiBfs,
}

/// An online-traversal "index": no precomputation, every query is a
/// fresh traversal.
pub struct OnlineSearch {
    graph: Arc<DiGraph>,
    strategy: Strategy,
    visit: ScratchPool<VisitMap>,
}

impl OnlineSearch {
    /// Wraps `graph` with the chosen traversal strategy.
    pub fn new(graph: Arc<DiGraph>, strategy: Strategy) -> Self {
        OnlineSearch {
            graph,
            strategy,
            visit: ScratchPool::new(),
        }
    }

    /// The traversal strategy in use.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }
}

impl ReachIndex for OnlineSearch {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        let visit = &mut *self
            .visit
            .checkout(|| VisitMap::new(self.graph.num_vertices()));
        match self.strategy {
            Strategy::Bfs => traverse::bfs_reaches(&self.graph, s, t, visit),
            Strategy::Dfs => traverse::dfs_reaches(&self.graph, s, t, visit),
            Strategy::BiBfs => traverse::bibfs_reaches(&self.graph, s, t, visit),
        }
    }

    /// Batch evaluation. Pairs are grouped by source, 64 distinct
    /// sources to a machine word ([`traverse::batch_reaches_with`]).
    /// BFS and DFS sweep every word: one bit-parallel traversal serves
    /// its 64 sources. BiBFS sweeps only the words with at least
    /// [`MIN_SWEEP_PAIRS`] pairs and answers every other pair by
    /// [`traverse::bibfs_reaches`] on one checked-out map.
    fn query_batch(&self, pairs: &[(VertexId, VertexId)]) -> Vec<bool> {
        let g = &*self.graph;
        match self.strategy {
            Strategy::Bfs | Strategy::Dfs => traverse::batch_reaches(g, pairs),
            Strategy::BiBfs => {
                let visit = &mut *self.visit.checkout(|| VisitMap::new(g.num_vertices()));
                traverse::batch_reaches_with(g, pairs, MIN_SWEEP_PAIRS, |s, t| {
                    traverse::bibfs_reaches(g, s, t, visit)
                })
            }
        }
    }

    fn meta(&self) -> IndexMeta {
        IndexMeta {
            name: match self.strategy {
                Strategy::Bfs => "online-BFS",
                Strategy::Dfs => "online-DFS",
                Strategy::BiBfs => "online-BiBFS",
            },
            citation: "[50]",
            framework: Framework::Other,
            completeness: Completeness::Partial,
            input: InputClass::General,
            dynamism: Dynamism::InsertDelete,
        }
    }

    fn size_bytes(&self) -> usize {
        0
    }

    fn size_entries(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> Arc<DiGraph> {
        Arc::new(DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3)]))
    }

    #[test]
    fn all_strategies_agree() {
        let g = graph();
        let idxs = [
            OnlineSearch::new(g.clone(), Strategy::Bfs),
            OnlineSearch::new(g.clone(), Strategy::Dfs),
            OnlineSearch::new(g.clone(), Strategy::BiBfs),
        ];
        for s in g.vertices() {
            for t in g.vertices() {
                let answers: Vec<bool> = idxs.iter().map(|i| i.query(s, t)).collect();
                assert!(answers.windows(2).all(|w| w[0] == w[1]));
            }
        }
    }

    #[test]
    fn bibfs_words_on_both_sides_of_the_sweep_floor_are_exact() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(91);
        let g = Arc::new(reach_graph::generators::random_digraph(300, 450, &mut rng));
        let idx = OnlineSearch::new(g, Strategy::BiBfs);
        // sources 0..64 fill exactly one word: searched, then swept
        for len in [MIN_SWEEP_PAIRS - 1, MIN_SWEEP_PAIRS] {
            let pairs: Vec<(VertexId, VertexId)> = (0..len)
                .map(|i| (VertexId(i as u32 % 64), VertexId(rng.random_range(0..300))))
                .collect();
            let batch = idx.query_batch(&pairs);
            for (i, &(s, t)) in pairs.iter().enumerate() {
                assert_eq!(batch[i], idx.query(s, t), "{len} pairs, at {s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn zero_index_footprint() {
        let idx = OnlineSearch::new(graph(), Strategy::Bfs);
        assert_eq!(idx.size_bytes(), 0);
        assert_eq!(idx.size_entries(), 0);
    }

    #[test]
    fn metas_are_distinct() {
        let g = graph();
        let a = OnlineSearch::new(g.clone(), Strategy::Bfs).meta();
        let b = OnlineSearch::new(g, Strategy::BiBfs).meta();
        assert_ne!(a.name, b.name);
    }
}
