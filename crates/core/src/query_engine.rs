//! Concurrent batch-query execution over any [`ReachIndex`].
//!
//! The survey's experiments measure per-query latency; real deployments
//! care about *throughput* — answering a large batch of `(s, t)` pairs
//! as fast as possible. [`QueryEngine`] shards a pair list into
//! contiguous chunks (via [`crate::parallel::chunks`], the same
//! splitter the parallel builders use), evaluates each chunk with
//! [`ReachIndex::query_batch`] on its own scoped thread, and writes
//! answers into disjoint slices of the output — so results are in
//! input order and bit-identical for every thread count.
//!
//! A shard must carry real work before it earns a thread. Spawning and
//! joining the scoped threads costs tens of microseconds per call
//! (55–70 µs on a 2-vCPU x86-64 VM, measured on 64-pair BFL batches
//! whose pairs cost 0.1–0.7 µs each), which dwarfs a small batch. So
//! [`QueryEngine::shards`] caps the shard count at
//! `len / MIN_SHARD_PAIRS`, and a batch too small for two shards is
//! answered by one `query_batch` call on the calling thread, with no
//! source sort, no per-shard copy and no spawn.
//!
//! This is what the `ReachIndex: Send + Sync` bound buys: one shared
//! `&dyn ReachIndex` serves all workers with no cloning and no locks
//! (per-query scratch comes from each index's lock-free
//! [`reach_graph::ScratchPool`]).

use crate::index::ReachIndex;
use crate::parallel::chunks;
use reach_graph::VertexId;

/// The fewest pairs a shard is given before `run` spawns threads.
///
/// On a 2-vCPU x86-64 VM (`throughput --n 100000`, medians of 3 runs),
/// 4096-pair batches split into two 2048-pair shards ran slower than
/// on one thread for the O(1)-lookup indexes (BFL 1.05× vs 1.49× over
/// the per-pair loop, GRAIL 0.85× vs 1.18×), while 65536-pair batches
/// gained from sharding (PLL 1.67× vs 1.00×, online-BiBFS 2.69× vs
/// 1.73×). Traversal-bound online search still gains from 2048-pair
/// shards (online-BiBFS 2.36× vs 1.72×); the floor gives that up so
/// that lookups never pay for a spawn.
const MIN_SHARD_PAIRS: usize = 4096;

/// A batch-query executor with a fixed worker-thread count.
#[derive(Debug, Clone, Copy)]
pub struct QueryEngine {
    threads: usize,
}

impl QueryEngine {
    /// An engine running batches on up to `threads` worker threads
    /// (`threads <= 1` evaluates on the calling thread).
    pub fn new(threads: usize) -> Self {
        QueryEngine {
            threads: threads.max(1),
        }
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The number of shards [`QueryEngine::run`] splits a batch of
    /// `len` pairs into: the thread count, capped at
    /// `len / MIN_SHARD_PAIRS` so that no shard is much smaller than
    /// `MIN_SHARD_PAIRS`. 1 means the calling thread answers the whole
    /// batch.
    pub fn shards(&self, len: usize) -> usize {
        self.threads.min(len / MIN_SHARD_PAIRS).max(1)
    }

    /// Answers every pair, in input order.
    ///
    /// Output is identical to `index.query_batch(pairs)` — and
    /// therefore to the per-pair `index.query` loop — regardless of the
    /// thread count; only wall-clock time changes. A panic in the index
    /// reaches the caller with its own payload.
    ///
    /// Sharding is *locality-aware*: pair indices are sorted by source
    /// before being chunked, so all pairs sharing a source land in the
    /// same shard and the batch overrides keep their amortization
    /// (64-sources-per-word packing in the multi-source BFS,
    /// one-traversal-per-source-group in guided search) instead of
    /// re-traversing the same source in every shard. Answers are
    /// scattered back to input positions, so the sort never shows in
    /// the output.
    pub fn run(&self, index: &dyn ReachIndex, pairs: &[(VertexId, VertexId)]) -> Vec<bool> {
        let shards = self.shards(pairs.len());
        if shards == 1 {
            return index.query_batch(pairs);
        }
        let mut order: Vec<u32> = (0..pairs.len() as u32).collect();
        order.sort_by_key(|&i| pairs[i as usize].0 .0);
        let ranges = chunks(pairs.len(), shards);
        let mut out = vec![false; pairs.len()];
        std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .map(|range| {
                    let idxs = &order[range.clone()];
                    scope.spawn(move || {
                        let shard: Vec<(VertexId, VertexId)> =
                            idxs.iter().map(|&i| pairs[i as usize]).collect();
                        index.query_batch(&shard)
                    })
                })
                .collect();
            for (range, handle) in ranges.iter().zip(handles) {
                let answers = handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                for (&i, a) in order[range.clone()].iter().zip(answers) {
                    out[i as usize] = a;
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{Completeness, Dynamism, Framework, IndexMeta, InputClass};
    use crate::online::{OnlineSearch, Strategy};
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use reach_graph::generators::random_digraph;
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    /// Batch sizes on both sides of the sharding floor: one below it
    /// (answered inline at any thread count) and two above it.
    const SIZES: [usize; 3] = [
        MIN_SHARD_PAIRS - 1,
        2 * MIN_SHARD_PAIRS,
        3 * MIN_SHARD_PAIRS + 7,
    ];

    fn workload(n: u32, q: usize, rng: &mut SmallRng) -> Vec<(VertexId, VertexId)> {
        (0..q)
            .map(|_| {
                (
                    VertexId(rng.random_range(0..n)),
                    VertexId(rng.random_range(0..n)),
                )
            })
            .collect()
    }

    #[test]
    fn engine_matches_per_pair_queries() {
        let mut rng = SmallRng::seed_from_u64(401);
        let g = Arc::new(random_digraph(120, 360, &mut rng));
        let idx = OnlineSearch::new(g.clone(), Strategy::Bfs);
        let tc = TransitiveClosure::build(&g);
        for q in SIZES {
            let pairs = workload(120, q, &mut rng);
            let got = QueryEngine::new(4).run(&idx, &pairs);
            for (i, &(s, t)) in pairs.iter().enumerate() {
                assert_eq!(got[i], tc.reaches(s, t), "q={q} pair {i}: {s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn output_is_identical_for_every_thread_count() {
        let mut rng = SmallRng::seed_from_u64(402);
        let g = Arc::new(random_digraph(90, 250, &mut rng));
        let idx = OnlineSearch::new(g, Strategy::BiBfs);
        for q in SIZES {
            let pairs = workload(90, q, &mut rng);
            let reference: Vec<bool> = pairs.iter().map(|&(s, t)| idx.query(s, t)).collect();
            for threads in [1, 2, 3, 4, 8, 16] {
                assert_eq!(
                    QueryEngine::new(threads).run(&idx, &pairs),
                    reference,
                    "q={q} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn degenerate_batches() {
        let g = Arc::new(random_digraph(10, 20, &mut SmallRng::seed_from_u64(403)));
        let idx = OnlineSearch::new(g, Strategy::Dfs);
        let engine = QueryEngine::new(8);
        assert!(engine.run(&idx, &[]).is_empty());
        let one = [(VertexId(0), VertexId(0))];
        assert_eq!(engine.run(&idx, &one), vec![true]);
    }

    #[test]
    fn threads_zero_clamps_to_one() {
        assert_eq!(QueryEngine::new(0).threads(), 1);
    }

    /// A test index answering `s == t` that records the thread of every
    /// `query_batch` call and panics on the pair `poison`.
    struct Probe {
        poison: Option<(VertexId, VertexId)>,
        ran_on: Mutex<Vec<ThreadId>>,
    }

    impl Probe {
        fn new(poison: Option<(VertexId, VertexId)>) -> Self {
            Probe {
                poison,
                ran_on: Mutex::new(Vec::new()),
            }
        }

        fn threads_used(&self) -> Vec<ThreadId> {
            self.ran_on.lock().unwrap().clone()
        }
    }

    impl ReachIndex for Probe {
        fn query(&self, s: VertexId, t: VertexId) -> bool {
            if self.poison == Some((s, t)) {
                panic!("probe index poisoned at {s:?}->{t:?}");
            }
            s == t
        }

        fn query_batch(&self, pairs: &[(VertexId, VertexId)]) -> Vec<bool> {
            self.ran_on
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            pairs.iter().map(|&(s, t)| self.query(s, t)).collect()
        }

        fn meta(&self) -> IndexMeta {
            IndexMeta {
                name: "probe",
                citation: "",
                framework: Framework::Other,
                completeness: Completeness::Complete,
                input: InputClass::General,
                dynamism: Dynamism::Static,
            }
        }

        fn size_bytes(&self) -> usize {
            0
        }

        fn size_entries(&self) -> usize {
            0
        }
    }

    fn diagonal(q: usize) -> Vec<(VertexId, VertexId)> {
        (0..q as u32).map(|i| (VertexId(i), VertexId(i))).collect()
    }

    #[test]
    fn small_batches_run_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let engine = QueryEngine::new(8);
        assert_eq!(engine.shards(64), 1);
        let probe = Probe::new(None);
        assert_eq!(engine.run(&probe, &diagonal(64)), vec![true; 64]);
        assert_eq!(probe.threads_used(), vec![caller]);

        let engine = QueryEngine::new(2);
        let q = 2 * MIN_SHARD_PAIRS;
        assert_eq!(engine.shards(q), 2);
        let probe = Probe::new(None);
        assert_eq!(engine.run(&probe, &diagonal(q)), vec![true; q]);
        let used = probe.threads_used();
        assert_eq!(used.len(), 2);
        assert!(used.iter().all(|&id| id != caller), "{used:?}");
    }

    #[test]
    #[should_panic(expected = "probe index poisoned at")]
    fn a_shard_panic_reaches_the_caller_with_its_own_message() {
        let pairs = diagonal(2 * MIN_SHARD_PAIRS);
        let probe = Probe::new(Some(pairs[MIN_SHARD_PAIRS + 5]));
        QueryEngine::new(2).run(&probe, &pairs);
    }
}
