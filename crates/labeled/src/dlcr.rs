//! DLCR \[10\]: label-constrained 2-hop under edge insertions *and*
//! deletions (§4.1.3).
//!
//! DLCR extends P2H+ with dynamic maintenance. The update problem the
//! survey describes — inserting entries can make old ones redundant,
//! deleting entries can make previously-redundant ones necessary again
//! (the `RIE` bookkeeping) — is solved here by keeping each hop's
//! entries *locally canonical*: hop `w` records the minimal label-set
//! antichain over paths whose interior vertices all have lower
//! priority than `w`. Entries then depend only on the hop's own
//! restricted closure, never on other hops' labels, so an edge update
//! touches exactly the hops whose restricted closure contains an
//! endpoint — no cross-hop redundancy cascade exists by construction
//! (completeness follows from the highest-priority-vertex-on-the-path
//! argument; cf. [`reach_core::tol`] for the plain-graph analogue).

use crate::audit::check_label_entries;
use crate::lcr::{
    Completeness, ConstraintClass, Dynamism, InputClass, LabeledIndexMeta, LcrFramework, LcrIndex,
};
use crate::p2h::{entries_join, entry_insert, entry_present, LabelEntry};
use reach_core::audit::Violation;
use reach_graph::{Label, LabelSet, LabeledGraph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The DLCR index. Owns a mutable copy of the labeled graph.
pub struct Dlcr {
    out_adj: Vec<Vec<(VertexId, Label)>>,
    in_adj: Vec<Vec<(VertexId, Label)>>,
    rank_of: Vec<u32>,
    vertex_at: Vec<VertexId>,
    lin: Vec<Vec<LabelEntry>>,
    lout: Vec<Vec<LabelEntry>>,
}

impl Dlcr {
    /// Builds the index with the degree-descending hop order.
    pub fn build(g: &LabeledGraph) -> Self {
        let n = g.num_vertices();
        let mut order: Vec<VertexId> = g.vertices().collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v.0));
        let mut rank_of = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank_of[v.index()] = r as u32;
        }
        let mut idx = Dlcr {
            out_adj: g.vertices().map(|v| g.out_edges(v).collect()).collect(),
            in_adj: g.vertices().map(|v| g.in_edges(v).collect()).collect(),
            rank_of,
            vertex_at: order,
            lin: vec![Vec::new(); n],
            lout: vec![Vec::new(); n],
        };
        for r in 0..n as u32 {
            idx.restricted_label_bfs(r, true);
            idx.restricted_label_bfs(r, false);
        }
        idx
    }

    /// (Re)runs hop `r`'s restricted label-BFS from scratch.
    fn restricted_label_bfs(&mut self, r: u32, forward: bool) {
        let w = self.vertex_at[r as usize];
        self.extend_hop(r, w, LabelSet::EMPTY, forward);
    }

    /// Resumes hop `r`'s restricted label-BFS from `(start, start_ls)`.
    /// Borrows are split up front so the inner loop never clones
    /// adjacency lists.
    fn extend_hop(&mut self, r: u32, start: VertexId, start_ls: LabelSet, forward: bool) {
        let w = self.vertex_at[r as usize];
        let (adjacency, table) = if forward {
            (&self.out_adj, &mut self.lin)
        } else {
            (&self.in_adj, &mut self.lout)
        };
        let mut heap: BinaryHeap<Reverse<(usize, u64, u32)>> = BinaryHeap::new();
        if entry_insert(&mut table[start.index()], r, start_ls) {
            heap.push(Reverse((start_ls.len(), start_ls.0, start.0)));
        }
        while let Some(Reverse((_, bits, x))) = heap.pop() {
            let x = VertexId(x);
            let ls = LabelSet(bits);
            if !entry_present(&table[x.index()], r, ls) {
                continue; // evicted by a dominating set
            }
            // interior restriction: only lower-priority vertices are
            // passed through
            if x != w && self.rank_of[x.index()] < r {
                continue;
            }
            for &(y, l) in &adjacency[x.index()] {
                let nls = ls.insert(l);
                if entry_insert(&mut table[y.index()], r, nls) {
                    heap.push(Reverse((nls.len(), nls.0, y.0)));
                }
            }
        }
    }

    /// Removes every entry of hop `r`.
    fn clear_hop(&mut self, r: u32) {
        for entries in self.lin.iter_mut().chain(self.lout.iter_mut()) {
            entries.retain(|&(er, _)| er != r);
        }
    }

    /// Hops whose restricted closure can change through an edge at
    /// `end` (entries at `end` where `end` may serve as interior).
    fn affected_hops(&self, end: VertexId, forward: bool) -> Vec<(u32, LabelSet)> {
        let table = if forward { &self.lin } else { &self.lout };
        table[end.index()]
            .iter()
            .copied()
            .filter(|&(r, _)| self.vertex_at[r as usize] == end || self.rank_of[end.index()] > r)
            .collect()
    }

    /// Inserts the labeled edge `u -l-> v`.
    pub fn insert_edge(&mut self, u: VertexId, l: Label, v: VertexId) {
        if self.out_adj[u.index()].contains(&(v, l)) {
            return;
        }
        self.out_adj[u.index()].push((v, l));
        self.in_adj[v.index()].push((u, l));
        for (r, ls) in self.affected_hops(u, true) {
            self.extend_hop(r, v, ls.insert(l), true);
        }
        for (r, ls) in self.affected_hops(v, false) {
            self.extend_hop(r, u, ls.insert(l), false);
        }
    }

    /// Deletes the labeled edge `u -l-> v`, recomputing exactly the
    /// hops whose restricted closure could shrink.
    pub fn delete_edge(&mut self, u: VertexId, l: Label, v: VertexId) {
        let Some(p) = self.out_adj[u.index()].iter().position(|&e| e == (v, l)) else {
            return;
        };
        let fwd: Vec<u32> = self
            .affected_hops(u, true)
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        let bwd: Vec<u32> = self
            .affected_hops(v, false)
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        self.out_adj[u.index()].remove(p);
        let q = self.in_adj[v.index()]
            .iter()
            .position(|&e| e == (u, l))
            .unwrap();
        self.in_adj[v.index()].remove(q);
        let mut hops: Vec<u32> = fwd.into_iter().chain(bwd).collect();
        hops.sort_unstable();
        hops.dedup();
        for &r in &hops {
            self.clear_hop(r);
        }
        for r in hops {
            self.restricted_label_bfs(r, true);
            self.restricted_label_bfs(r, false);
        }
    }
}

impl LcrIndex for Dlcr {
    fn query(&self, s: VertexId, t: VertexId, allowed: LabelSet) -> bool {
        s == t || entries_join(&self.lout[s.index()], &self.lin[t.index()], allowed)
    }

    fn meta(&self) -> LabeledIndexMeta {
        LabeledIndexMeta {
            name: "DLCR",
            citation: "[10]",
            framework: LcrFramework::TwoHop,
            constraint: ConstraintClass::Alternation,
            completeness: Completeness::Complete,
            input: InputClass::General,
            dynamism: Dynamism::InsertDelete,
        }
    }

    /// The same 12-bytes-per-entry count as
    /// [`P2hPlus`](crate::p2h::P2hPlus), which understates the 16 bytes
    /// an entry occupies.
    fn size_bytes(&self) -> usize {
        12 * self.size_entries() + 48 * self.lin.len()
    }

    fn size_entries(&self) -> usize {
        self.lin.iter().map(Vec::len).sum::<usize>() + self.lout.iter().map(Vec::len).sum::<usize>()
    }

    /// Rank-sorted lists, one antichain of label sets per rank, and
    /// sampled hop entries proven by constrained search.
    fn check_invariants(&self, graph: &LabeledGraph) -> Vec<Violation> {
        check_label_entries("DLCR", graph, &self.rank_of, &self.lin, &self.lout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::lcr_bfs;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use reach_graph::fixtures;
    use reach_graph::generators::{random_labeled_digraph, LabelDistribution};

    fn check_exact(g: &LabeledGraph, idx: &Dlcr) {
        let nl = g.num_labels();
        for s in g.vertices() {
            for t in g.vertices() {
                for mask in 0..(1u64 << nl) {
                    let allowed = LabelSet(mask);
                    assert_eq!(
                        idx.query(s, t, allowed),
                        lcr_bfs(g, s, t, allowed),
                        "at {s:?}->{t:?} under {allowed:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_on_figure1() {
        let g = fixtures::figure1b();
        check_exact(&g, &Dlcr::build(&g));
    }

    #[test]
    fn exact_on_random_cyclic_graphs() {
        let mut rng = SmallRng::seed_from_u64(261);
        for _ in 0..3 {
            let g = random_labeled_digraph(22, 60, 3, LabelDistribution::Uniform, &mut rng);
            check_exact(&g, &Dlcr::build(&g));
        }
    }

    #[test]
    fn insertions_match_rebuild() {
        let mut rng = SmallRng::seed_from_u64(262);
        let g = random_labeled_digraph(15, 25, 3, LabelDistribution::Uniform, &mut rng);
        let mut idx = Dlcr::build(&g);
        let mut edges: Vec<(u32, u8, u32)> = g.edges().map(|(u, l, v)| (u.0, l.0, v.0)).collect();
        for _ in 0..15 {
            let u = rng.random_range(0..15u32);
            let mut v = rng.random_range(0..14u32);
            if v >= u {
                v += 1;
            }
            let l = rng.random_range(0..3u8);
            idx.insert_edge(VertexId(u), Label(l), VertexId(v));
            if !edges.contains(&(u, l, v)) {
                edges.push((u, l, v));
            }
            let g2 = LabeledGraph::from_edges(15, 3, &edges);
            check_exact(&g2, &idx);
        }
    }

    #[test]
    fn deletions_match_rebuild() {
        let mut rng = SmallRng::seed_from_u64(263);
        let g = random_labeled_digraph(14, 45, 3, LabelDistribution::Uniform, &mut rng);
        let mut idx = Dlcr::build(&g);
        let mut edges: Vec<(u32, u8, u32)> = g.edges().map(|(u, l, v)| (u.0, l.0, v.0)).collect();
        for _ in 0..20 {
            if edges.is_empty() {
                break;
            }
            let i = rng.random_range(0..edges.len());
            let (u, l, v) = edges.swap_remove(i);
            idx.delete_edge(VertexId(u), Label(l), VertexId(v));
            let g2 = LabeledGraph::from_edges(14, 3, &edges);
            check_exact(&g2, &idx);
        }
    }

    #[test]
    fn mixed_updates_match_rebuild() {
        let mut rng = SmallRng::seed_from_u64(264);
        let g = random_labeled_digraph(12, 24, 2, LabelDistribution::Uniform, &mut rng);
        let mut idx = Dlcr::build(&g);
        let mut edges: Vec<(u32, u8, u32)> = g.edges().map(|(u, l, v)| (u.0, l.0, v.0)).collect();
        for _ in 0..30 {
            if rng.random_bool(0.5) || edges.is_empty() {
                let u = rng.random_range(0..12u32);
                let mut v = rng.random_range(0..11u32);
                if v >= u {
                    v += 1;
                }
                let l = rng.random_range(0..2u8);
                if !edges.contains(&(u, l, v)) {
                    idx.insert_edge(VertexId(u), Label(l), VertexId(v));
                    edges.push((u, l, v));
                }
            } else {
                let i = rng.random_range(0..edges.len());
                let (u, l, v) = edges.swap_remove(i);
                idx.delete_edge(VertexId(u), Label(l), VertexId(v));
            }
            let g2 = LabeledGraph::from_edges(12, 2, &edges);
            check_exact(&g2, &idx);
        }
    }

    #[test]
    fn duplicate_and_missing_updates_are_noops() {
        let g = fixtures::figure1b();
        let mut idx = Dlcr::build(&g);
        let before = idx.size_entries();
        idx.insert_edge(fixtures::A, fixtures::FRIEND_OF, fixtures::D);
        assert_eq!(idx.size_entries(), before);
        idx.delete_edge(fixtures::B, fixtures::FOLLOWS, fixtures::A);
        check_exact(&g, &idx);
    }

    #[test]
    fn check_invariants_hold_through_updates() {
        let mut rng = SmallRng::seed_from_u64(265);
        let g = random_labeled_digraph(40, 100, 3, LabelDistribution::Uniform, &mut rng);
        let mut idx = Dlcr::build(&g);
        let mut edges: Vec<(u32, u8, u32)> = g.edges().map(|(u, l, v)| (u.0, l.0, v.0)).collect();
        for step in 0..20 {
            if step % 2 == 0 {
                let (u, v, l) = (
                    rng.random_range(0..40u32),
                    rng.random_range(0..40u32),
                    rng.random_range(0..3u8),
                );
                if u != v && !edges.contains(&(u, l, v)) {
                    idx.insert_edge(VertexId(u), Label(l), VertexId(v));
                    edges.push((u, l, v));
                }
            } else {
                let (u, l, v) = edges.swap_remove(rng.random_range(0..edges.len()));
                idx.delete_edge(VertexId(u), Label(l), VertexId(v));
            }
            let g2 = LabeledGraph::from_edges(40, 3, &edges);
            let v = idx.check_invariants(&g2);
            assert!(v.is_empty(), "after step {step}: {v:#?}");
        }
    }
}
