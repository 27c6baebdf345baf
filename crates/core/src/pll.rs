//! PLL \[49\]: pruned landmark labeling for reachability.
//!
//! Processes vertices in degree-descending priority order; from each
//! hop `v` a forward and a backward BFS label the visited vertices —
//! but a visit is *pruned* whenever the labels built so far already
//! answer `Qr(v, u)` (resp. `Qr(u, v)`), which is the survey's
//! *"search space … pruned according to the total order"*. Pruning
//! makes the labels dramatically smaller than the canonical TOL label
//! sets while remaining a complete 2-hop cover. Works directly on
//! general graphs.

use crate::audit::{self, Violation};
use crate::index::{Completeness, Dynamism, Framework, IndexMeta, InputClass, ReachIndex};
use crate::tol::sorted_intersects;
use reach_graph::{DiGraph, VertexId};

/// The pruned-landmark-labeling index.
///
/// ```
/// use reach_core::pll::Pll;
/// use reach_core::ReachIndex;
/// use reach_graph::{DiGraph, VertexId};
///
/// // works directly on cyclic graphs
/// let g = DiGraph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 3)]);
/// let pll = Pll::build(&g);
/// assert!(pll.query(VertexId(0), VertexId(3)));
/// assert!(pll.query(VertexId(1), VertexId(0)));
/// assert!(!pll.query(VertexId(3), VertexId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct Pll {
    rank_of: Vec<u32>,
    vertex_at: Vec<VertexId>,
    lin: Vec<Vec<u32>>,
    lout: Vec<Vec<u32>>,
}

/// Scratch one build reuses across every hop's search.
struct BuildScratch {
    queue: Vec<VertexId>,
    seen: Vec<bool>,
    /// `in_fixed[h]`: rank `h` is in the current search's fixed label.
    in_fixed: Vec<bool>,
}

impl Pll {
    /// Builds the index with the degree-descending order.
    pub fn build(g: &DiGraph) -> Self {
        let mut order: Vec<VertexId> = g.vertices().collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v.0));
        Self::build_with_order(g, &order)
    }

    /// Builds the index with an explicit priority order.
    pub fn build_with_order(g: &DiGraph, order: &[VertexId]) -> Self {
        assert_eq!(order.len(), g.num_vertices());
        let n = g.num_vertices();
        let mut rank_of = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank_of[v.index()] = r as u32;
        }
        let mut pll = Pll {
            rank_of,
            vertex_at: order.to_vec(),
            lin: vec![Vec::new(); n],
            lout: vec![Vec::new(); n],
        };
        let mut scratch = BuildScratch {
            queue: Vec::new(),
            seen: vec![false; n],
            in_fixed: vec![false; n],
        };
        for r in 0..n as u32 {
            pll.pruned_bfs(g, r, true, &mut scratch);
            pll.pruned_bfs(g, r, false, &mut scratch);
        }
        pll
    }

    /// The forward (labelling `Lin`) or backward (labelling `Lout`)
    /// BFS of hop `w`, rank `r`. A visit to `x` is pruned when a
    /// higher-priority hop already covers the pair, i.e. when the hop's
    /// *fixed* label (`Lout(w)` forward, `Lin(w)` backward) meets `x`'s
    /// label. The fixed label cannot change during its own search — the
    /// forward search only appends to `Lin`, the backward one only to
    /// `Lout` — so it is loaded once into a rank-indexed table and the
    /// check scans only `x`'s label.
    fn pruned_bfs(&mut self, g: &DiGraph, r: u32, forward: bool, s: &mut BuildScratch) {
        let w = self.vertex_at[r as usize];
        let (fixed, grown) = if forward {
            (&self.lout[w.index()], &mut self.lin)
        } else {
            (&self.lin[w.index()], &mut self.lout)
        };
        for &h in fixed {
            s.in_fixed[h as usize] = true;
        }
        s.queue.clear();
        s.queue.push(w);
        s.seen[w.index()] = true;
        let mut head = 0;
        while head < s.queue.len() {
            let x = s.queue[head];
            head += 1;
            // prune: the pair (w, x) is already covered by a
            // higher-priority hop. A vertex ranked above `w` lies on
            // the path itself, so its own searches covered the pair.
            let label = &mut grown[x.index()];
            if self.rank_of[x.index()] < r || label.iter().any(|&h| s.in_fixed[h as usize]) {
                continue;
            }
            label.push(r); // ranks ascend across hops
            let adj = if forward {
                g.out_neighbors(x)
            } else {
                g.in_neighbors(x)
            };
            for &y in adj {
                if !s.seen[y.index()] {
                    s.seen[y.index()] = true;
                    s.queue.push(y);
                }
            }
        }
        for &h in fixed {
            s.in_fixed[h as usize] = false;
        }
        for &x in &s.queue {
            s.seen[x.index()] = false;
        }
    }

    /// The in-label of `x` (hop ranks, sorted ascending).
    pub fn lin(&self, x: VertexId) -> &[u32] {
        &self.lin[x.index()]
    }

    /// The out-label of `x` (hop ranks, sorted ascending).
    pub fn lout(&self, x: VertexId) -> &[u32] {
        &self.lout[x.index()]
    }

    /// The rank of `v` in the priority order.
    pub fn rank_of(&self, v: VertexId) -> u32 {
        self.rank_of[v.index()]
    }

    /// The vertex holding rank `r`.
    pub fn vertex_at(&self, r: u32) -> VertexId {
        self.vertex_at[r as usize]
    }
}

impl ReachIndex for Pll {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        s == t || sorted_intersects(&self.lout[s.index()], &self.lin[t.index()])
    }

    fn meta(&self) -> IndexMeta {
        IndexMeta {
            name: "PLL",
            citation: "[49]",
            framework: Framework::TwoHop,
            completeness: Completeness::Complete,
            input: InputClass::General,
            dynamism: Dynamism::Static,
        }
    }

    fn size_bytes(&self) -> usize {
        4 * self.size_entries() + 48 * self.lin.len()
    }

    fn size_entries(&self) -> usize {
        self.lin.iter().map(Vec::len).sum::<usize>() + self.lout.iter().map(Vec::len).sum::<usize>()
    }

    /// Pruning must leave a *complete and sound* 2-hop cover: the
    /// shared validator checks label order, hub soundness against
    /// true closures, and witness coverage for reachable pairs.
    fn check_invariants(&self, graph: &DiGraph) -> Vec<Violation> {
        let mut out = Vec::new();
        if graph.num_vertices() != self.lin.len() {
            out.push(Violation {
                index: "PLL",
                rule: "graph-mismatch",
                detail: format!(
                    "index covers {} vertices, graph has {}",
                    self.lin.len(),
                    graph.num_vertices()
                ),
            });
            return out;
        }
        audit::check_two_hop_cover(
            "PLL",
            graph,
            |x| self.lout(x),
            |x| self.lin(x),
            |r| self.vertex_at(r),
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::fixtures;
    use reach_graph::generators::{power_law_dag, random_dag, random_digraph};

    /// The merge-pruned builder the rank-indexed one replaced: every
    /// visit merge-walks the hop's fixed label against the visited
    /// vertex's. Returns `(lin, lout)`.
    fn reference_labels(g: &DiGraph, order: &[VertexId]) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let n = g.num_vertices();
        let mut lin = vec![Vec::new(); n];
        let mut lout = vec![Vec::new(); n];
        let mut seen = vec![false; n];
        for (r, &w) in order.iter().enumerate() {
            for forward in [true, false] {
                let mut queue = vec![w];
                seen[w.index()] = true;
                let mut head = 0;
                while head < queue.len() {
                    let x = queue[head];
                    head += 1;
                    let (from, to) = if forward { (w, x) } else { (x, w) };
                    if sorted_intersects(&lout[from.index()], &lin[to.index()]) {
                        continue;
                    }
                    let (label, adj) = if forward {
                        (&mut lin[x.index()], g.out_neighbors(x))
                    } else {
                        (&mut lout[x.index()], g.in_neighbors(x))
                    };
                    label.push(r as u32);
                    for &y in adj {
                        if !seen[y.index()] {
                            seen[y.index()] = true;
                            queue.push(y);
                        }
                    }
                }
                for &x in &queue {
                    seen[x.index()] = false;
                }
            }
        }
        (lin, lout)
    }

    /// Asserts that `pll` carries exactly the reference labels for its
    /// own order.
    fn assert_reference_labels(g: &DiGraph, pll: &Pll) {
        let order: Vec<VertexId> = (0..g.num_vertices() as u32)
            .map(|r| pll.vertex_at(r))
            .collect();
        let (lin, lout) = reference_labels(g, &order);
        for x in g.vertices() {
            assert_eq!(pll.lin(x), lin[x.index()], "lin({x:?})");
            assert_eq!(pll.lout(x), lout[x.index()], "lout({x:?})");
        }
    }

    fn check_exact(g: &DiGraph) {
        let pll = Pll::build(g);
        let tc = TransitiveClosure::build(g);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(pll.query(s, t), tc.reaches(s, t), "at {s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn exact_on_figure1() {
        check_exact(&fixtures::figure1a());
        let pll = Pll::build(&fixtures::figure1a());
        assert!(pll.query(fixtures::A, fixtures::G));
        assert!(!pll.query(fixtures::G, fixtures::A));
    }

    #[test]
    fn exact_on_cyclic_graphs() {
        let mut rng = SmallRng::seed_from_u64(101);
        for _ in 0..5 {
            check_exact(&random_digraph(45, 130, &mut rng));
        }
    }

    #[test]
    fn exact_on_power_law_dags() {
        let mut rng = SmallRng::seed_from_u64(102);
        check_exact(power_law_dag(150, 2, &mut rng).graph());
    }

    #[test]
    fn labels_are_sound() {
        let mut rng = SmallRng::seed_from_u64(103);
        let g = random_digraph(40, 110, &mut rng);
        let pll = Pll::build(&g);
        let tc = TransitiveClosure::build(&g);
        for x in g.vertices() {
            for &r in pll.lin(x) {
                assert!(tc.reaches(pll.vertex_at(r), x));
            }
            for &r in pll.lout(x) {
                assert!(tc.reaches(x, pll.vertex_at(r)));
            }
        }
    }

    #[test]
    fn labels_are_sorted() {
        let mut rng = SmallRng::seed_from_u64(104);
        let g = random_digraph(40, 110, &mut rng);
        let pll = Pll::build(&g);
        for x in g.vertices() {
            assert!(pll.lin(x).windows(2).all(|w| w[0] < w[1]));
            assert!(pll.lout(x).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn pruning_beats_canonical_tol_on_hub_graphs() {
        // PLL's coverage-based pruning must produce labels no larger
        // than the canonical restricted-closure labels of DL (same order).
        let mut rng = SmallRng::seed_from_u64(105);
        let g = power_law_dag(300, 3, &mut rng).into_graph();
        let pll = Pll::build(&g);
        let dl = crate::tol::build_dl(&g);
        assert!(
            pll.size_entries() <= dl.size_entries(),
            "pll {} > dl {}",
            pll.size_entries(),
            dl.size_entries()
        );
    }

    #[test]
    fn labels_equal_the_reference_on_random_dags() {
        let mut rng = SmallRng::seed_from_u64(106);
        for (n, m) in [(60, 120), (200, 600), (400, 800)] {
            let g = random_dag(n, m, &mut rng).into_graph();
            assert_reference_labels(&g, &Pll::build(&g));
        }
        let g = power_law_dag(300, 3, &mut rng).into_graph();
        assert_reference_labels(&g, &Pll::build(&g));
    }

    #[test]
    fn labels_equal_the_reference_on_random_digraphs() {
        let mut rng = SmallRng::seed_from_u64(107);
        for (n, m) in [(45, 130), (150, 300), (300, 1200)] {
            let g = random_digraph(n, m, &mut rng);
            assert_reference_labels(&g, &Pll::build(&g));
            // an order unrelated to degree: the ascending vertex ids
            let order: Vec<VertexId> = g.vertices().collect();
            assert_reference_labels(&g, &Pll::build_with_order(&g, &order));
        }
    }

    #[test]
    fn labels_equal_the_reference_when_a_hop_prunes_itself() {
        // 0 is the hub (rank 0) of the cycle 0 -> 1 -> 2 -> 0, so hop
        // 1's forward search finds (1, 1) covered through hop 0 and
        // prunes at its own root.
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (0, 3), (0, 4), (4, 5)]);
        let pll = Pll::build(&g);
        assert_eq!(pll.rank_of(VertexId(0)), 0);
        assert_reference_labels(&g, &pll);
        let self_pruned = |pll: &Pll, g: &DiGraph| {
            g.vertices()
                .filter(|&v| !pll.lin(v).contains(&pll.rank_of(v)))
                .count()
        };
        assert!(self_pruned(&pll, &g) >= 2, "1 and 2 prune at their roots");
        // and on random graphs with large SCCs
        let mut rng = SmallRng::seed_from_u64(108);
        let g = random_digraph(200, 500, &mut rng);
        let pll = Pll::build(&g);
        assert!(self_pruned(&pll, &g) > 0);
        assert_reference_labels(&g, &pll);
    }
}
