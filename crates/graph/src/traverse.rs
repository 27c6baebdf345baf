//! Online traversal primitives: BFS, DFS, and bidirectional BFS.
//!
//! These are the index-free baselines of §2.3 of the survey and the
//! fallback machinery behind every *partial* index. Every traversal
//! runs on a [`VisitMap`]: an epoch-stamped visited set, so repeated
//! queries reuse one buffer without an `O(n)` clear per query, plus the
//! frontier and queue buffers the searches push into. A caller that
//! keeps its map (a [`ScratchPool`](crate::ScratchPool) slot) therefore
//! allocates nothing per query once the buffers have grown.

use crate::digraph::DiGraph;
use crate::vertex::VertexId;

/// A reusable visited-set over `0..n` vertices, with the frontier
/// buffers of the searches in this module.
///
/// Marking is `O(1)` and resetting between queries is `O(1)` (bump the
/// epoch); the backing array is only rewritten lazily as vertices are
/// marked. The bidirectional search uses two distinct marks per epoch.
/// Each search clears the buffers when it starts, so an early exit that
/// leaves them full does not leak into the next search.
#[derive(Debug, Clone)]
pub struct VisitMap {
    marks: Marks,
    bufs: Frontiers,
}

/// The epoch-stamped marks of a [`VisitMap`].
#[derive(Debug, Clone)]
struct Marks {
    stamp: Vec<u64>,
    epoch: u64,
}

/// The buffers of a [`VisitMap`]: BFS and DFS use `fwd` as their queue
/// or stack; bidirectional search uses all three.
#[derive(Debug, Clone, Default)]
struct Frontiers {
    fwd: Vec<VertexId>,
    bwd: Vec<VertexId>,
    next: Vec<VertexId>,
}

/// Which search frontier marked a vertex (for bidirectional search).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The forward frontier (from the source).
    Forward,
    /// The backward frontier (from the target).
    Backward,
}

impl Marks {
    #[inline]
    fn want(&self, side: Side) -> u64 {
        match side {
            Side::Forward => self.epoch,
            Side::Backward => self.epoch + 1,
        }
    }

    #[inline]
    fn mark(&mut self, v: VertexId, side: Side) -> bool {
        let want = self.want(side);
        let s = &mut self.stamp[v.index()];
        if *s == want {
            false
        } else {
            *s = want;
            true
        }
    }

    #[inline]
    fn is_marked(&self, v: VertexId, side: Side) -> bool {
        self.stamp[v.index()] == self.want(side)
    }
}

impl VisitMap {
    /// Creates a visit map for vertex ids `0..n`.
    pub fn new(n: usize) -> Self {
        // epoch starts at 2 so that a zeroed stamp never matches
        // either the forward mark (epoch) or the backward mark (epoch+1)
        VisitMap {
            marks: Marks {
                stamp: vec![0; n],
                epoch: 2,
            },
            bufs: Frontiers::default(),
        }
    }

    /// Starts a fresh traversal: all vertices become unvisited.
    #[inline]
    pub fn reset(&mut self) {
        self.marks.epoch += 2;
    }

    /// Marks `v` as visited by `side`. Returns `true` if it was not
    /// already marked by that side.
    #[inline]
    pub fn mark(&mut self, v: VertexId, side: Side) -> bool {
        self.marks.mark(v, side)
    }

    /// Whether `v` has been marked by `side` in the current traversal.
    #[inline]
    pub fn is_marked(&self, v: VertexId, side: Side) -> bool {
        self.marks.is_marked(v, side)
    }

    /// Number of vertices the map covers.
    pub fn len(&self) -> usize {
        self.marks.stamp.len()
    }

    /// Whether the map covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.marks.stamp.is_empty()
    }

    /// Starts a search: a fresh epoch and empty buffers (capacity kept),
    /// split so the search can mark vertices while it walks a frontier.
    fn begin(&mut self) -> (&mut Marks, &mut Frontiers) {
        self.reset();
        self.bufs.fwd.clear();
        self.bufs.bwd.clear();
        self.bufs.next.clear();
        (&mut self.marks, &mut self.bufs)
    }
}

/// Statistics from a single traversal, used by the `claims` harness to
/// reproduce the survey's "online traversal visits a large portion of
/// the graph" observation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Vertices popped from the frontier.
    pub visited: usize,
    /// Edges relaxed.
    pub edges_scanned: usize,
}

/// Breadth-first reachability: does `t` lie in the forward closure of `s`?
pub fn bfs_reaches(g: &DiGraph, s: VertexId, t: VertexId, visit: &mut VisitMap) -> bool {
    bfs_reaches_counted(g, s, t, visit).0
}

/// [`bfs_reaches`] with traversal statistics.
pub fn bfs_reaches_counted(
    g: &DiGraph,
    s: VertexId,
    t: VertexId,
    visit: &mut VisitMap,
) -> (bool, TraversalStats) {
    let mut stats = TraversalStats::default();
    if s == t {
        return (true, stats);
    }
    let (marks, bufs) = visit.begin();
    marks.mark(s, Side::Forward);
    let queue = &mut bufs.fwd;
    queue.push(s);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        stats.visited += 1;
        for &v in g.out_neighbors(u) {
            stats.edges_scanned += 1;
            if v == t {
                return (true, stats);
            }
            if marks.mark(v, Side::Forward) {
                queue.push(v);
            }
        }
    }
    (false, stats)
}

/// Depth-first reachability with an explicit stack.
pub fn dfs_reaches(g: &DiGraph, s: VertexId, t: VertexId, visit: &mut VisitMap) -> bool {
    if s == t {
        return true;
    }
    let (marks, bufs) = visit.begin();
    marks.mark(s, Side::Forward);
    let stack = &mut bufs.fwd;
    stack.push(s);
    while let Some(u) = stack.pop() {
        for &v in g.out_neighbors(u) {
            if v == t {
                return true;
            }
            if marks.mark(v, Side::Forward) {
                stack.push(v);
            }
        }
    }
    false
}

/// Bidirectional BFS: expands the smaller of the forward frontier from
/// `s` and the backward frontier from `t`, answering when they meet.
pub fn bibfs_reaches(g: &DiGraph, s: VertexId, t: VertexId, visit: &mut VisitMap) -> bool {
    pruned_bibfs_reaches(g, s, t, visit, |_| None, |_| None)
}

/// [`bibfs_reaches`] with per-vertex certificates, the pruned search
/// of PReaCH. `ahead(v)` is asked once for each vertex the forward
/// frontier newly reaches: `Some(true)` if `v` certainly reaches `t`
/// (the search answers `true`), `Some(false)` if it certainly does not
/// (`v` is not expanded), `None` to expand it. `behind(v)` answers the
/// same for "`s` reaches `v`" on the backward frontier.
pub fn pruned_bibfs_reaches(
    g: &DiGraph,
    s: VertexId,
    t: VertexId,
    visit: &mut VisitMap,
    mut ahead: impl FnMut(VertexId) -> Option<bool>,
    mut behind: impl FnMut(VertexId) -> Option<bool>,
) -> bool {
    if s == t {
        return true;
    }
    let (marks, bufs) = visit.begin();
    marks.mark(s, Side::Forward);
    marks.mark(t, Side::Backward);
    // Double-buffered frontiers: `next` is drained by the swap and
    // reused every level, and all three live in the map across queries.
    let Frontiers { fwd, bwd, next } = bufs;
    fwd.push(s);
    bwd.push(t);
    while !fwd.is_empty() && !bwd.is_empty() {
        if fwd.len() <= bwd.len() {
            for &u in fwd.iter() {
                for &v in g.out_neighbors(u) {
                    if marks.is_marked(v, Side::Backward) {
                        return true;
                    }
                    if marks.mark(v, Side::Forward) {
                        match ahead(v) {
                            Some(true) => return true,
                            Some(false) => {}
                            None => next.push(v),
                        }
                    }
                }
            }
            std::mem::swap(fwd, next);
        } else {
            for &u in bwd.iter() {
                for &v in g.in_neighbors(u) {
                    if marks.is_marked(v, Side::Forward) {
                        return true;
                    }
                    if marks.mark(v, Side::Backward) {
                        match behind(v) {
                            Some(true) => return true,
                            Some(false) => {}
                            None => next.push(v),
                        }
                    }
                }
            }
            std::mem::swap(bwd, next);
        }
        next.clear();
    }
    false
}

/// Collects the full forward closure of `s` (including `s` itself).
pub fn forward_closure(g: &DiGraph, s: VertexId) -> Vec<VertexId> {
    let mut visit = VisitMap::new(g.num_vertices());
    let mut out = Vec::new();
    forward_closure_with(g, s, &mut visit, &mut out);
    out
}

/// Collects the full backward closure of `s` (including `s` itself).
pub fn backward_closure(g: &DiGraph, s: VertexId) -> Vec<VertexId> {
    let mut visit = VisitMap::new(g.num_vertices());
    let mut out = Vec::new();
    backward_closure_with(g, s, &mut visit, &mut out);
    out
}

/// [`forward_closure`] into caller-owned scratch: the epoch-stamped
/// `visit` map is reset in O(1) and `out` is cleared, so repeated
/// closures (one per landmark in the HL-style builders) stop paying an
/// O(n) allocation each.
pub fn forward_closure_with(
    g: &DiGraph,
    s: VertexId,
    visit: &mut VisitMap,
    out: &mut Vec<VertexId>,
) {
    closure_with(g, s, true, visit, out)
}

/// [`backward_closure`] into caller-owned scratch (see
/// [`forward_closure_with`]).
pub fn backward_closure_with(
    g: &DiGraph,
    s: VertexId,
    visit: &mut VisitMap,
    out: &mut Vec<VertexId>,
) {
    closure_with(g, s, false, visit, out)
}

fn closure_with(
    g: &DiGraph,
    s: VertexId,
    forward: bool,
    visit: &mut VisitMap,
    out: &mut Vec<VertexId>,
) {
    visit.reset();
    visit.mark(s, Side::Forward);
    out.clear();
    out.push(s);
    let mut head = 0;
    while head < out.len() {
        let u = out[head];
        head += 1;
        let neighbors = if forward {
            g.out_neighbors(u)
        } else {
            g.in_neighbors(u)
        };
        for &v in neighbors {
            if visit.mark(v, Side::Forward) {
                out.push(v);
            }
        }
    }
}

/// Multi-source bit-parallel BFS: computes, for up to 64 sources at
/// once, which of them reach each vertex.
///
/// `masks[v]` has bit `i` set iff `sources[i]` reaches `v` (every
/// source reaches itself). One frontier expansion serves all 64
/// sources — the MS-BFS idea: reachability from source `i` is one bit
/// lane of a `u64` word, and an edge relaxation ORs whole words, so a
/// batch of queries costs roughly one traversal instead of 64.
///
/// Works on arbitrary digraphs (the propagation is a monotone
/// fixpoint, so cycles are harmless).
///
/// # Panics
/// Panics if more than 64 sources are given.
pub fn ms_bfs_masks(g: &DiGraph, sources: &[VertexId]) -> Vec<u64> {
    let mut masks = vec![0u64; g.num_vertices()];
    ms_bfs_masks_into(g, sources, &mut masks);
    masks
}

/// [`ms_bfs_masks`] into a caller-owned buffer (zeroed here), so
/// word-batched callers reuse one allocation.
pub fn ms_bfs_masks_into(g: &DiGraph, sources: &[VertexId], masks: &mut Vec<u64>) {
    assert!(
        sources.len() <= 64,
        "one u64 word carries at most 64 sources"
    );
    let n = g.num_vertices();
    masks.clear();
    masks.resize(n, 0);
    let mut in_frontier = vec![false; n];
    let mut cur: Vec<VertexId> = Vec::with_capacity(sources.len());
    for (i, &s) in sources.iter().enumerate() {
        masks[s.index()] |= 1u64 << i;
        if !in_frontier[s.index()] {
            in_frontier[s.index()] = true;
            cur.push(s);
        }
    }
    let mut next: Vec<VertexId> = Vec::new();
    while !cur.is_empty() {
        for &u in &cur {
            in_frontier[u.index()] = false;
        }
        for &u in &cur {
            let mu = masks[u.index()];
            for &v in g.out_neighbors(u) {
                let add = mu & !masks[v.index()];
                if add != 0 {
                    masks[v.index()] |= add;
                    if !in_frontier[v.index()] {
                        in_frontier[v.index()] = true;
                        next.push(v);
                    }
                }
            }
        }
        std::mem::swap(&mut cur, &mut next);
        next.clear();
    }
}

/// Answers a batch of reachability pairs with word-batched MS-BFS:
/// distinct sources are packed 64 per `u64` word, one bit-parallel
/// traversal per word, then each pair reads one bit.
///
/// Equivalent to `pairs.map(|(s, t)| bfs_reaches(g, s, t, ..))` but
/// amortizes frontier expansion across sources — the batch evaluation
/// path of the online baselines. This is [`batch_reaches_with`] with a
/// floor of 0: every word is swept.
pub fn batch_reaches(g: &DiGraph, pairs: &[(VertexId, VertexId)]) -> Vec<bool> {
    batch_reaches_with(g, pairs, 0, |_, _| {
        unreachable!("a floor of 0 sweeps every word")
    })
}

/// Answers a batch word by word. Pair indices are sorted by source and
/// cut into words of 64 distinct sources. A word that carries at least
/// `min_sweep_pairs` pairs is answered by one [`ms_bfs_masks_into`]
/// sweep; every pair of a smaller word by `search(s, t)`. Self-pairs
/// are `true` and join no word.
///
/// The sweep costs about one traversal per word whatever its pairs, a
/// per-pair search costs per pair, so the floor picks the cheaper side
/// by word shape.
pub fn batch_reaches_with(
    g: &DiGraph,
    pairs: &[(VertexId, VertexId)],
    min_sweep_pairs: usize,
    mut search: impl FnMut(VertexId, VertexId) -> bool,
) -> Vec<bool> {
    let mut out = vec![false; pairs.len()];
    let mut order: Vec<usize> = Vec::with_capacity(pairs.len());
    for (i, &(s, t)) in pairs.iter().enumerate() {
        if s == t {
            out[i] = true;
        } else {
            order.push(i);
        }
    }
    order.sort_unstable_by_key(|&i| pairs[i].0);
    let mut sources: Vec<VertexId> = Vec::with_capacity(64);
    let mut masks: Vec<u64> = Vec::new();
    let mut k = 0;
    while k < order.len() {
        // one word: the pairs of the next 64 distinct sources
        sources.clear();
        let mut end = k;
        while end < order.len() {
            let s = pairs[order[end]].0;
            if sources.last() != Some(&s) {
                if sources.len() == 64 {
                    break;
                }
                sources.push(s);
            }
            end += 1;
        }
        let word = &order[k..end];
        if word.len() >= min_sweep_pairs {
            ms_bfs_masks_into(g, &sources, &mut masks);
            // `word` is sorted by source, so lanes advance in order
            let mut lane = 0;
            for &i in word {
                let (s, t) = pairs[i];
                while sources[lane] != s {
                    lane += 1;
                }
                out[i] = masks[t.index()] >> lane & 1 == 1;
            }
        } else {
            for &i in word {
                let (s, t) = pairs[i];
                out[i] = search(s, t);
            }
        }
        k = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_and_branch() -> DiGraph {
        // 0 -> 1 -> 2 -> 3, 1 -> 4, 5 isolated
        DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (1, 4)])
    }

    #[test]
    fn bfs_basic() {
        let g = chain_and_branch();
        let mut vm = VisitMap::new(g.num_vertices());
        assert!(bfs_reaches(&g, VertexId(0), VertexId(3), &mut vm));
        assert!(bfs_reaches(&g, VertexId(0), VertexId(4), &mut vm));
        assert!(!bfs_reaches(&g, VertexId(3), VertexId(0), &mut vm));
        assert!(!bfs_reaches(&g, VertexId(0), VertexId(5), &mut vm));
        assert!(bfs_reaches(&g, VertexId(5), VertexId(5), &mut vm));
    }

    #[test]
    fn dfs_agrees_with_bfs() {
        let g = chain_and_branch();
        let mut vm = VisitMap::new(g.num_vertices());
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    bfs_reaches(&g, s, t, &mut vm),
                    dfs_reaches(&g, s, t, &mut vm)
                );
            }
        }
    }

    #[test]
    fn bibfs_agrees_with_bfs() {
        let g = chain_and_branch();
        let mut vm = VisitMap::new(g.num_vertices());
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    bfs_reaches(&g, s, t, &mut vm),
                    bibfs_reaches(&g, s, t, &mut vm),
                    "mismatch for {s:?}->{t:?}"
                );
            }
        }
    }

    #[test]
    fn bibfs_on_cycle() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let mut vm = VisitMap::new(4);
        assert!(bibfs_reaches(&g, VertexId(1), VertexId(0), &mut vm));
        assert!(bibfs_reaches(&g, VertexId(0), VertexId(3), &mut vm));
        assert!(!bibfs_reaches(&g, VertexId(3), VertexId(0), &mut vm));
    }

    #[test]
    fn visit_map_reset_is_cheap_and_correct() {
        let mut vm = VisitMap::new(3);
        assert!(vm.mark(VertexId(0), Side::Forward));
        assert!(!vm.mark(VertexId(0), Side::Forward));
        assert!(vm.is_marked(VertexId(0), Side::Forward));
        vm.reset();
        assert!(!vm.is_marked(VertexId(0), Side::Forward));
        assert!(vm.mark(VertexId(0), Side::Forward));
    }

    #[test]
    fn visit_map_sides_are_independent() {
        let mut vm = VisitMap::new(2);
        // In this map a vertex holds one stamp, so marking the same vertex
        // from the other side overwrites — bidirectional search checks
        // the opposite side *before* marking, which is all it needs.
        assert!(vm.mark(VertexId(1), Side::Forward));
        assert!(vm.is_marked(VertexId(1), Side::Forward));
        assert!(!vm.is_marked(VertexId(1), Side::Backward));
    }

    #[test]
    fn closures() {
        let g = chain_and_branch();
        let mut fwd = forward_closure(&g, VertexId(1));
        fwd.sort();
        assert_eq!(
            fwd,
            vec![VertexId(1), VertexId(2), VertexId(3), VertexId(4)]
        );
        let mut bwd = backward_closure(&g, VertexId(3));
        bwd.sort();
        assert_eq!(
            bwd,
            vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)]
        );
    }

    #[test]
    fn closure_with_reuses_scratch() {
        let g = chain_and_branch();
        let mut vm = VisitMap::new(g.num_vertices());
        let mut out = Vec::new();
        for _ in 0..3 {
            forward_closure_with(&g, VertexId(1), &mut vm, &mut out);
            let mut got = out.clone();
            got.sort();
            assert_eq!(
                got,
                vec![VertexId(1), VertexId(2), VertexId(3), VertexId(4)]
            );
            backward_closure_with(&g, VertexId(3), &mut vm, &mut out);
            assert_eq!(out.len(), 4);
        }
    }

    #[test]
    fn ms_bfs_masks_match_per_source_bfs() {
        let g = chain_and_branch();
        let sources: Vec<VertexId> = g.vertices().collect();
        let masks = ms_bfs_masks(&g, &sources);
        let mut vm = VisitMap::new(g.num_vertices());
        for (i, &s) in sources.iter().enumerate() {
            for t in g.vertices() {
                assert_eq!(
                    masks[t.index()] >> i & 1 == 1,
                    bfs_reaches(&g, s, t, &mut vm),
                    "source {s:?} target {t:?}"
                );
            }
        }
    }

    #[test]
    fn ms_bfs_handles_cycles() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let masks = ms_bfs_masks(&g, &[VertexId(3), VertexId(1)]);
        assert_eq!(masks[VertexId(3).index()], 0b11, "1 reaches 3, 3 itself");
        assert_eq!(masks[VertexId(0).index()], 0b10, "1 reaches 0 via cycle");
    }

    #[test]
    fn batch_reaches_agrees_with_bfs_on_random_digraphs() {
        use crate::generators::random_digraph;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(77);
        for trial in 0..4 {
            let g = random_digraph(120, 320, &mut rng);
            let n = g.num_vertices() as u32;
            // more than 64 distinct sources, repeated sources, self-pairs
            let pairs: Vec<(VertexId, VertexId)> = (0..600)
                .map(|_| {
                    (
                        VertexId(rng.random_range(0..n)),
                        VertexId(rng.random_range(0..n)),
                    )
                })
                .collect();
            let got = batch_reaches(&g, &pairs);
            let mut vm = VisitMap::new(g.num_vertices());
            for (i, &(s, t)) in pairs.iter().enumerate() {
                assert_eq!(
                    got[i],
                    bfs_reaches(&g, s, t, &mut vm),
                    "trial {trial} pair {s:?}->{t:?}"
                );
            }
        }
    }

    #[test]
    fn the_sweep_floor_routes_whole_words() {
        use crate::generators::random_digraph;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        let g = random_digraph(200, 500, &mut SmallRng::seed_from_u64(79));
        // 130 distinct sources: words of 64, 64 and 2 sources
        let mut pairs: Vec<(VertexId, VertexId)> = (0..130u32)
            .flat_map(|s| [(s, (s * 7 + 3) % 200), (s, (s * 13 + 1) % 200)])
            .map(|(s, t)| (VertexId(s), VertexId(t)))
            .collect();
        pairs.push((VertexId(5), VertexId(5)));
        let truth = batch_reaches(&g, &pairs);
        let mut vm = VisitMap::new(g.num_vertices());
        for (i, &(s, t)) in pairs.iter().enumerate() {
            assert_eq!(truth[i], bfs_reaches(&g, s, t, &mut vm), "{s:?}->{t:?}");
        }
        // floor 128: the two full words (128 pairs each) are swept and
        // only the last word's 4 pairs are searched; the self-pair never is
        for (floor, searched) in [(0, 0), (128, 4), (129, 260)] {
            let mut calls = 0;
            let got = batch_reaches_with(&g, &pairs, floor, |s, t| {
                calls += 1;
                bfs_reaches(&g, s, t, &mut vm)
            });
            assert_eq!(got, truth, "floor {floor}");
            assert_eq!(calls, searched, "floor {floor}");
        }
    }

    #[test]
    fn a_reused_map_answers_like_a_fresh_one() {
        use crate::generators::random_digraph;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        type Search = fn(&DiGraph, VertexId, VertexId, &mut VisitMap) -> bool;
        let searches: [(&str, Search); 3] = [
            ("bfs", bfs_reaches),
            ("dfs", dfs_reaches),
            ("bibfs", bibfs_reaches),
        ];
        let mut rng = SmallRng::seed_from_u64(78);
        for trial in 0..6 {
            let g = random_digraph(80, rng.random_range(80..240), &mut rng);
            let fresh = |s, t| bfs_reaches(&g, s, t, &mut VisitMap::new(g.num_vertices()));
            let n = g.num_vertices() as u32;
            let (mut pos, mut neg) = (Vec::new(), Vec::new());
            while pos.len() < 30 || neg.len() < 30 {
                let (s, t) = (
                    VertexId(rng.random_range(0..n)),
                    VertexId(rng.random_range(0..n)),
                );
                match (s != t, fresh(s, t)) {
                    (true, true) => pos.push((s, t)),
                    (_, false) => neg.push((s, t)),
                    _ => {}
                }
            }
            for (name, search) in searches {
                let mut shared = VisitMap::new(g.num_vertices());
                // a positive exits early with full buffers; the next
                // (negative) search on the same map must not inherit them
                for (&(ps, pt), &(ns, nt)) in pos.iter().zip(&neg) {
                    assert!(search(&g, ps, pt, &mut shared), "{name} trial {trial}");
                    assert!(
                        !search(&g, ns, nt, &mut shared),
                        "{name} trial {trial}: {ns:?}->{nt:?} after {ps:?}->{pt:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn traversal_stats_count_work() {
        let g = chain_and_branch();
        let mut vm = VisitMap::new(g.num_vertices());
        let (ok, stats) = bfs_reaches_counted(&g, VertexId(0), VertexId(5), &mut vm);
        assert!(!ok);
        // Visits 0,1,2,3,4 and scans all 4 edges.
        assert_eq!(stats.visited, 5);
        assert_eq!(stats.edges_scanned, 4);
    }
}
