//! P2H+ \[33\]: 2-hop labeling with sufficient path-label sets (§4.1.3).
//!
//! The 2-hop framework carries over to LCR queries by attaching an
//! SPLS to every label entry: `(h, S) ∈ Lout(s)` certifies an `s → h`
//! path with label set `S`, and a query `Qr(s, t, α)` succeeds iff a
//! common hop has `S1 ∪ S2 ⊆ α`. Hops are processed in
//! degree-descending order; each hop's label-BFS expands states in
//! ascending label-set size (the paper's prioritization of edges whose
//! labels are already present) and prunes states already covered by
//! higher-priority hops, so the index contains no redundancy.

use crate::audit::check_label_entries;
use crate::lcr::{
    Completeness, ConstraintClass, Dynamism, InputClass, LabeledIndexMeta, LcrFramework, LcrIndex,
};
use reach_core::audit::Violation;
use reach_graph::{LabelSet, LabeledGraph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One label entry: `(hop rank, path-label set)`.
pub(crate) type LabelEntry = (u32, LabelSet);

/// Tests whether `lout_s` and `lin_t` share a hop whose combined label
/// sets fit inside `allowed`. Both lists are sorted by rank.
pub(crate) fn entries_join(lout_s: &[LabelEntry], lin_t: &[LabelEntry], allowed: LabelSet) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < lout_s.len() && j < lin_t.len() {
        let (ri, _) = lout_s[i];
        let (rj, _) = lin_t[j];
        match ri.cmp(&rj) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let i_end = lout_s[i..].iter().take_while(|&&(r, _)| r == ri).count() + i;
                let j_end = lin_t[j..].iter().take_while(|&&(r, _)| r == ri).count() + j;
                for &(_, s1) in &lout_s[i..i_end] {
                    if !s1.is_subset_of(allowed) {
                        continue;
                    }
                    for &(_, s2) in &lin_t[j..j_end] {
                        if s1.union(s2).is_subset_of(allowed) {
                            return true;
                        }
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    false
}

/// Inserts `(rank, ls)` into a sorted entry list unless a same-rank
/// entry already dominates it; evicts dominated same-rank entries.
/// Returns `true` if inserted.
pub(crate) fn entry_insert(entries: &mut Vec<LabelEntry>, rank: u32, ls: LabelSet) -> bool {
    let seg_start = entries.partition_point(|&(r, _)| r < rank);
    let seg_end = entries.partition_point(|&(r, _)| r <= rank);
    for &(_, existing) in &entries[seg_start..seg_end] {
        if existing.is_subset_of(ls) {
            return false;
        }
    }
    let mut w = seg_start;
    for i in seg_start..seg_end {
        if !ls.is_subset_of(entries[i].1) {
            entries[w] = entries[i];
            w += 1;
        }
    }
    entries.drain(w..seg_end);
    entries.insert(w, (rank, ls));
    true
}

/// Whether `(rank, ls)` is currently present verbatim.
pub(crate) fn entry_present(entries: &[LabelEntry], rank: u32, ls: LabelSet) -> bool {
    let seg = entries.partition_point(|&(r, _)| r < rank);
    entries[seg..]
        .iter()
        .take_while(|&&(r, _)| r == rank)
        .any(|&(_, s)| s == ls)
}

/// The P2H+ index.
///
/// ```
/// use reach_graph::{Label, LabelSet, LabeledGraph, VertexId};
/// use reach_labeled::p2h::P2hPlus;
/// use reach_labeled::LcrIndex;
///
/// // 0 -a-> 1 -b-> 2
/// let g = LabeledGraph::from_edges(3, 2, &[(0, 0, 1), (1, 1, 2)]);
/// let idx = P2hPlus::build(&g);
/// assert!(idx.query(VertexId(0), VertexId(2), LabelSet::full(2)));
/// assert!(!idx.query(VertexId(0), VertexId(2), LabelSet::singleton(Label(0))));
/// ```
pub struct P2hPlus {
    rank_of: Vec<u32>,
    lin: Vec<Vec<LabelEntry>>,
    lout: Vec<Vec<LabelEntry>>,
}

/// Scratch one build reuses across every hop's search.
struct BuildScratch {
    heap: BinaryHeap<Reverse<(usize, u64, u32)>>,
    /// `runs[h]`: the index range of rank `h`'s entries in the
    /// current search's fixed list (empty when it has none).
    runs: Vec<(u32, u32)>,
}

impl BuildScratch {
    fn load(&mut self, fixed: &[LabelEntry]) {
        let mut a = 0;
        while a < fixed.len() {
            let h = fixed[a].0;
            let b = a + fixed[a..].iter().take_while(|&&(r, _)| r == h).count();
            self.runs[h as usize] = (a as u32, b as u32);
            a = b;
        }
    }

    fn unload(&mut self, fixed: &[LabelEntry]) {
        for &(h, _) in fixed {
            self.runs[h as usize] = (0, 0);
        }
    }
}

impl P2hPlus {
    /// Builds the index with the degree-descending hop order.
    pub fn build(g: &LabeledGraph) -> Self {
        let n = g.num_vertices();
        let mut order: Vec<VertexId> = g.vertices().collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v.0));
        let mut rank_of = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank_of[v.index()] = r as u32;
        }
        let mut idx = P2hPlus {
            rank_of,
            lin: vec![Vec::new(); n],
            lout: vec![Vec::new(); n],
        };
        let mut scratch = BuildScratch {
            heap: BinaryHeap::new(),
            runs: vec![(0, 0); n],
        };
        for (r, &w) in order.iter().enumerate() {
            idx.labeled_bfs(g, w, r as u32, true, &mut scratch);
            idx.labeled_bfs(g, w, r as u32, false, &mut scratch);
        }
        idx
    }

    /// Hop `w`'s (rank `r`) forward (labelling `Lin`) or backward
    /// (labelling `Lout`) label-BFS. A state `(x, ls)` is pruned when a
    /// higher-priority hop already covers it: some same-rank pair of
    /// entries, one in the hop's *fixed* list (`Lout(w)` forward,
    /// `Lin(w)` backward) and one in `x`'s, both fit inside `ls`. The
    /// fixed list cannot change during its own search — the forward
    /// search only inserts into `Lin`, the backward one only into
    /// `Lout` — so its rank runs are loaded once into a rank-indexed
    /// table and the check scans only `x`'s list.
    fn labeled_bfs(
        &mut self,
        g: &LabeledGraph,
        w: VertexId,
        r: u32,
        forward: bool,
        s: &mut BuildScratch,
    ) {
        let (fixed, grown) = if forward {
            (&self.lout[w.index()], &mut self.lin)
        } else {
            (&self.lin[w.index()], &mut self.lout)
        };
        let rank_of = &self.rank_of;
        s.load(fixed);
        let runs = &s.runs;
        // records in `entries` (`x`'s list) that the hop reaches `x`
        // (forward) or is reached from it (backward) under `ls`,
        // unless that is redundant; `true` if recorded
        let try_add = |entries: &mut Vec<LabelEntry>, x: VertexId, ls: LabelSet| {
            // a vertex ranked above `w` lies on the path itself, so its
            // own searches covered the state
            let covered = rank_of[x.index()] < r
                || entries.iter().any(|&(h, s2)| {
                    s2.is_subset_of(ls) && {
                        let (a, b) = runs[h as usize];
                        fixed[a as usize..b as usize]
                            .iter()
                            .any(|&(_, s1)| s1.is_subset_of(ls))
                    }
                });
            !covered && entry_insert(entries, r, ls)
        };
        let heap = &mut s.heap;
        if try_add(&mut grown[w.index()], w, LabelSet::EMPTY) {
            heap.push(Reverse((0, 0, w.0)));
        }
        while let Some(Reverse((_, bits, x))) = heap.pop() {
            let x = VertexId(x);
            let ls = LabelSet(bits);
            if !entry_present(&grown[x.index()], r, ls) {
                continue; // evicted by a smaller set
            }
            if forward {
                for (y, l) in g.out_edges(x) {
                    let nls = ls.insert(l);
                    if try_add(&mut grown[y.index()], y, nls) {
                        heap.push(Reverse((nls.len(), nls.0, y.0)));
                    }
                }
            } else {
                for (y, l) in g.in_edges(x) {
                    let nls = ls.insert(l);
                    if try_add(&mut grown[y.index()], y, nls) {
                        heap.push(Reverse((nls.len(), nls.0, y.0)));
                    }
                }
            }
        }
        s.unload(fixed);
    }

    /// The in-entries of `x` (sorted by rank).
    pub fn lin(&self, x: VertexId) -> &[LabelEntry] {
        &self.lin[x.index()]
    }

    /// The out-entries of `x` (sorted by rank).
    pub fn lout(&self, x: VertexId) -> &[LabelEntry] {
        &self.lout[x.index()]
    }

    /// The priority rank of `v`.
    pub fn rank_of(&self, v: VertexId) -> u32 {
        self.rank_of[v.index()]
    }
}

impl LcrIndex for P2hPlus {
    fn query(&self, s: VertexId, t: VertexId, allowed: LabelSet) -> bool {
        s == t || entries_join(&self.lout[s.index()], &self.lin[t.index()], allowed)
    }

    fn meta(&self) -> LabeledIndexMeta {
        LabeledIndexMeta {
            name: "P2H+",
            citation: "[33]",
            framework: LcrFramework::TwoHop,
            constraint: ConstraintClass::Alternation,
            completeness: Completeness::Complete,
            input: InputClass::General,
            dynamism: Dynamism::Static,
        }
    }

    /// Counts 12 bytes per entry, but an entry — a `u32` rank
    /// and the `u64` inside [`LabelSet`] — occupies 16 once aligned, so
    /// the entry bytes are understated by a quarter. perfbench's
    /// `index_bytes` sums this figure, so the fix belongs with a change
    /// that re-baselines that metric.
    fn size_bytes(&self) -> usize {
        12 * self.size_entries() + 48 * self.lin.len()
    }

    fn size_entries(&self) -> usize {
        self.lin.iter().map(Vec::len).sum::<usize>() + self.lout.iter().map(Vec::len).sum::<usize>()
    }

    /// Rank-sorted lists, one antichain of label sets per rank, and
    /// sampled hop entries proven by constrained search.
    fn check_invariants(&self, graph: &LabeledGraph) -> Vec<Violation> {
        check_label_entries("P2H+", graph, &self.rank_of, &self.lin, &self.lout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::lcr_bfs;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::fixtures;
    use reach_graph::generators::{
        label_edges, random_dag, random_labeled_digraph, LabelDistribution,
    };
    use reach_graph::Label;

    /// The merge-pruned builder the rank-indexed one replaced: every
    /// state merge-walks the hop's fixed list against the visited
    /// vertex's with [`entries_join`]. Returns `(lin, lout)`.
    fn reference_entries(
        g: &LabeledGraph,
        order: &[VertexId],
    ) -> (Vec<Vec<LabelEntry>>, Vec<Vec<LabelEntry>>) {
        let n = g.num_vertices();
        let mut lin: Vec<Vec<LabelEntry>> = vec![Vec::new(); n];
        let mut lout: Vec<Vec<LabelEntry>> = vec![Vec::new(); n];
        for (r, &w) in order.iter().enumerate() {
            let r = r as u32;
            for forward in [true, false] {
                let try_add =
                    |lin: &mut [Vec<LabelEntry>], lout: &mut [Vec<LabelEntry>], x: VertexId, ls| {
                        let (from, to) = if forward { (w, x) } else { (x, w) };
                        if entries_join(&lout[from.index()], &lin[to.index()], ls) {
                            return false;
                        }
                        let table = if forward { lin } else { lout };
                        entry_insert(&mut table[x.index()], r, ls)
                    };
                let mut heap = BinaryHeap::new();
                if try_add(&mut lin, &mut lout, w, LabelSet::EMPTY) {
                    heap.push(Reverse((0, 0, w.0)));
                }
                while let Some(Reverse((_, bits, x))) = heap.pop() {
                    let x = VertexId(x);
                    let ls = LabelSet(bits);
                    let table = if forward { &lin } else { &lout };
                    if !entry_present(&table[x.index()], r, ls) {
                        continue;
                    }
                    let next: Vec<(VertexId, Label)> = if forward {
                        g.out_edges(x).collect()
                    } else {
                        g.in_edges(x).collect()
                    };
                    for (y, l) in next {
                        let nls = ls.insert(l);
                        if try_add(&mut lin, &mut lout, y, nls) {
                            heap.push(Reverse((nls.len(), nls.0, y.0)));
                        }
                    }
                }
            }
        }
        (lin, lout)
    }

    /// Asserts that P2H+ builds exactly the reference entries on `g`.
    fn assert_reference_entries(g: &LabeledGraph) {
        let idx = P2hPlus::build(g);
        let mut order: Vec<VertexId> = g.vertices().collect();
        order.sort_by_key(|&v| idx.rank_of(v));
        let (lin, lout) = reference_entries(g, &order);
        for x in g.vertices() {
            assert_eq!(idx.lin(x), lin[x.index()], "lin({x:?})");
            assert_eq!(idx.lout(x), lout[x.index()], "lout({x:?})");
        }
    }

    fn check_exact(g: &LabeledGraph) {
        let idx = P2hPlus::build(g);
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
        check_exact(&fixtures::figure1b());
    }

    #[test]
    fn paper_claims_hold() {
        let g = fixtures::figure1b();
        let idx = P2hPlus::build(&g);
        assert!(!idx.query(
            fixtures::A,
            fixtures::G,
            LabelSet::from_labels([fixtures::FRIEND_OF, fixtures::FOLLOWS])
        ));
        assert!(idx.query(
            fixtures::L,
            fixtures::M,
            LabelSet::singleton(fixtures::WORKS_FOR)
        ));
    }

    #[test]
    fn exact_on_random_cyclic_graphs() {
        let mut rng = SmallRng::seed_from_u64(251);
        for _ in 0..4 {
            check_exact(&random_labeled_digraph(
                25,
                70,
                3,
                LabelDistribution::Uniform,
                &mut rng,
            ));
        }
    }

    #[test]
    fn exact_on_denser_alphabets() {
        let mut rng = SmallRng::seed_from_u64(252);
        check_exact(&random_labeled_digraph(
            18,
            60,
            5,
            LabelDistribution::Zipf,
            &mut rng,
        ));
    }

    #[test]
    fn entries_are_rank_sorted_antichains() {
        let mut rng = SmallRng::seed_from_u64(253);
        let g = random_labeled_digraph(30, 90, 3, LabelDistribution::Uniform, &mut rng);
        let idx = P2hPlus::build(&g);
        for x in g.vertices() {
            for entries in [idx.lin(x), idx.lout(x)] {
                assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0), "rank sorted");
                for (i, &(ri, si)) in entries.iter().enumerate() {
                    for (j, &(rj, sj)) in entries.iter().enumerate() {
                        if i != j && ri == rj {
                            assert!(!si.is_subset_of(sj), "antichain per rank");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn entry_insert_unit() {
        let mut e: Vec<LabelEntry> = Vec::new();
        assert!(entry_insert(&mut e, 1, LabelSet(0b11)));
        assert!(!entry_insert(&mut e, 1, LabelSet(0b111)), "dominated");
        assert!(entry_insert(&mut e, 1, LabelSet(0b01)), "evicts superset");
        assert_eq!(e, vec![(1, LabelSet(0b01))]);
        assert!(entry_insert(&mut e, 0, LabelSet(0b10)));
        assert_eq!(e[0].0, 0, "sorted by rank");
    }

    #[test]
    fn entries_join_unit() {
        let lout = vec![(1u32, LabelSet(0b01)), (3, LabelSet(0b10))];
        let lin = vec![(2u32, LabelSet(0b01)), (3, LabelSet(0b01))];
        assert!(entries_join(&lout, &lin, LabelSet(0b11)));
        assert!(
            !entries_join(&lout, &lin, LabelSet(0b01)),
            "rank 3 needs both bits"
        );
        assert!(!entries_join(&lout, &[], LabelSet(0b11)));
    }

    #[test]
    fn entries_equal_the_reference_on_labeled_digraphs() {
        let mut rng = SmallRng::seed_from_u64(254);
        for dist in [LabelDistribution::Uniform, LabelDistribution::Zipf] {
            for k in [3, 8] {
                for (n, m) in [(40, 120), (150, 450)] {
                    assert_reference_entries(&random_labeled_digraph(n, m, k, dist, &mut rng));
                }
            }
        }
    }

    #[test]
    fn entries_equal_the_reference_on_labeled_dags() {
        let mut rng = SmallRng::seed_from_u64(255);
        for dist in [LabelDistribution::Uniform, LabelDistribution::Zipf] {
            for k in [3, 8] {
                let dag = random_dag(200, 600, &mut rng);
                assert_reference_entries(&label_edges(dag.graph(), k, dist, &mut rng));
            }
        }
    }

    #[test]
    fn entries_equal_the_reference_inside_an_scc() {
        // 0 is the hub (rank 0) of the cycle 0 -> 1 -> 2 -> 0 (all
        // label 0). Hop 1 (rank 1) labels its root under {} but finds
        // (2, {0}) already covered through hop 0, so its search stops
        // at its first step around the cycle.
        let g = LabeledGraph::from_edges(
            6,
            2,
            &[
                (0, 0, 1),
                (1, 0, 2),
                (2, 0, 0),
                (0, 1, 3),
                (0, 1, 4),
                (4, 0, 5),
            ],
        );
        let idx = P2hPlus::build(&g);
        assert_eq!((idx.rank_of(VertexId(0)), idx.rank_of(VertexId(1))), (0, 1));
        assert!(idx.lin(VertexId(1)).contains(&(1, LabelSet::EMPTY)));
        assert!(idx.lin(VertexId(2)).iter().all(|&(h, _)| h != 1));
        assert_reference_entries(&g);
    }

    #[test]
    fn check_invariants_catches_broken_entries() {
        let g = random_labeled_digraph(
            60,
            180,
            3,
            LabelDistribution::Uniform,
            &mut SmallRng::seed_from_u64(257),
        );
        let rules = |idx: &P2hPlus| -> Vec<&'static str> {
            idx.check_invariants(&g).iter().map(|v| v.rule).collect()
        };
        let x = VertexId(0);
        let fresh = || P2hPlus::build(&g);
        assert_eq!(rules(&fresh()), Vec::<&str>::new());

        let mut idx = fresh();
        idx.lin[x.index()].insert(0, (u32::MAX, LabelSet::EMPTY));
        assert!(rules(&idx).contains(&"lcr2hop-entry-order"));

        let mut idx = fresh();
        let &(h, set) = idx.lin[x.index()]
            .last()
            .expect("every vertex is its own hop under {}");
        idx.lin[x.index()].push((h, set.insert(Label(2)).insert(Label(1))));
        assert!(rules(&idx).contains(&"lcr2hop-antichain"));

        // a hop entry no path backs: rank 0 reaching another vertex
        // under no labels at all (the first entry of a sampled vertex's
        // list is always proven)
        let mut idx = fresh();
        let hub = g.vertices().find(|&v| idx.rank_of(v) == 0).unwrap();
        let target = if hub == x { VertexId(2) } else { x };
        idx.lin[target.index()].insert(0, (0, LabelSet::EMPTY));
        assert!(rules(&idx).contains(&"lcr2hop-soundness"));

        let other = LabeledGraph::from_edges(3, 3, &[(0, 0, 1)]);
        assert_eq!(
            idx.check_invariants(&other)
                .iter()
                .map(|v| v.rule)
                .collect::<Vec<_>>(),
            ["graph-mismatch"]
        );
    }
}
