//! The labeled side of the index-invariant audit subsystem.
//!
//! Path-constrained indexes answer `Qr(s, t, (l1 ∪ l2 ∪ …)*)`; their
//! invariants are behavioral rather than interval-shaped, so the audit
//! here is a sampled differential against the online label-constrained
//! BFS of §2.3, plus two structural laws every LCR oracle must obey:
//! *reflexivity* (the empty path satisfies any constraint) and
//! *monotonicity* (enlarging the allowed label set can only add
//! reachable pairs). Per-technique structural hooks plug in via
//! [`LcrIndex::check_invariants`].

use crate::lcr::LcrIndex;
use crate::online::lcr_bfs;
use crate::p2h::LabelEntry;
use crate::pipeline::{lcr_spec, LcrSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reach_core::audit::{AuditConfig, AuditOutcome, Violation};
use reach_core::pipeline::BuildOpts;
use reach_graph::{Label, LabelSet, LabeledGraph, VertexId};
use std::sync::Arc;

/// Caps per finding category, mirroring the plain-side audit.
const MAX_PER_RULE: usize = 5;

/// Audits a built LCR index against `g`: sampled differential vs the
/// online constrained BFS (with empty, full, and random label masks),
/// reflexivity under the empty constraint, label-set monotonicity on
/// sampled triples, and the index's own structural
/// [`check_invariants`](LcrIndex::check_invariants) hook.
pub fn audit_lcr_index(idx: &dyn LcrIndex, g: &LabeledGraph, cfg: &AuditConfig) -> AuditOutcome {
    let name = idx.meta().name;
    let mut violations = Vec::new();
    let triples = sample_triples(g, cfg);

    // Differential: agree with the §2.3 online baseline on every
    // sampled (s, t, allowed) triple.
    let mut false_pos = 0usize;
    let mut false_neg = 0usize;
    for &(s, t, allowed) in &triples {
        let claimed = idx.query(s, t, allowed);
        let truth = lcr_bfs(g, s, t, allowed);
        if claimed == truth {
            continue;
        }
        if claimed {
            false_pos += 1;
            if false_pos <= MAX_PER_RULE {
                violations.push(Violation {
                    index: name,
                    rule: "lcr-soundness",
                    detail: format!(
                        "claims {s:?} reaches {t:?} under {allowed:?}, but no such path exists"
                    ),
                });
            }
        } else {
            false_neg += 1;
            if false_neg <= MAX_PER_RULE {
                violations.push(Violation {
                    index: name,
                    rule: "lcr-completeness",
                    detail: format!(
                        "denies {s:?} reaches {t:?} under {allowed:?}, but a path exists"
                    ),
                });
            }
        }
    }
    overflow_note(name, "lcr-soundness", "triples", false_pos, &mut violations);
    overflow_note(
        name,
        "lcr-completeness",
        "triples",
        false_neg,
        &mut violations,
    );

    // Reflexivity: the empty path satisfies every constraint, even the
    // empty label set.
    for v in reach_core::audit::sample_vertices(g.num_vertices(), 64) {
        if !idx.query(v, v, LabelSet::EMPTY) {
            violations.push(Violation {
                index: name,
                rule: "lcr-self",
                detail: format!("{v:?} does not reach itself under the empty constraint"),
            });
        }
    }

    // Monotonicity: reachable under `a` implies reachable under any
    // superset of `a`.
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5EED);
    let full = LabelSet::full(g.num_labels());
    let mut non_monotone = 0usize;
    for &(s, t, a) in &triples {
        if !idx.query(s, t, a) {
            continue;
        }
        let wider = LabelSet(a.0 | (rng.random_range(0..=u64::MAX) & full.0));
        if !idx.query(s, t, wider) {
            non_monotone += 1;
            if non_monotone <= MAX_PER_RULE {
                violations.push(Violation {
                    index: name,
                    rule: "lcr-monotonicity",
                    detail: format!(
                        "{s:?} reaches {t:?} under {a:?} but not under the superset {wider:?}"
                    ),
                });
            }
        }
    }
    overflow_note(
        name,
        "lcr-monotonicity",
        "triples",
        non_monotone,
        &mut violations,
    );

    // Per-technique structural invariants.
    violations.extend(idx.check_invariants(g));

    AuditOutcome {
        name,
        pairs_checked: triples.len(),
        violations,
    }
}

/// Builds `spec` over `g` and audits the result.
pub fn audit_lcr_spec(
    spec: &LcrSpec,
    g: &Arc<LabeledGraph>,
    opts: &BuildOpts,
    cfg: &AuditConfig,
) -> AuditOutcome {
    let idx = (spec.build)(g, opts);
    audit_lcr_index(idx.as_ref(), g, cfg)
}

/// [`audit_lcr_spec`] by registry name; `None` for unknown names.
pub fn audit_lcr(
    name: &str,
    g: &Arc<LabeledGraph>,
    opts: &BuildOpts,
    cfg: &AuditConfig,
) -> Option<AuditOutcome> {
    lcr_spec(name).map(|spec| audit_lcr_spec(spec, g, opts, cfg))
}

fn overflow_note(
    index: &'static str,
    rule: &'static str,
    what: &str,
    count: usize,
    out: &mut Vec<Violation>,
) {
    if count > MAX_PER_RULE {
        out.push(Violation {
            index,
            rule,
            detail: format!("... and {} more such {what}", count - MAX_PER_RULE),
        });
    }
}

/// Sampled vertices whose entries [`check_label_entries`] proves by
/// search, and entries per list it proves at each.
const SOUNDNESS_VERTICES: usize = 32;
const SOUNDNESS_ENTRIES: usize = 8;

/// Shared validator for the label-set 2-hop family (P2H+, DLCR),
/// whose lists hold `(hop rank, label set)` entries:
/// - each list is sorted by rank, and every rank names a vertex;
/// - the label sets of one rank in one list form an antichain under
///   `⊆` (a dominated set is redundant);
/// - hops are sound: on a bounded sample, `(h, S) ∈ Lin(x)` has an
///   `h → x` path inside `S`, and `(h, S) ∈ Lout(x)` an `x → h` one.
pub(crate) fn check_label_entries(
    name: &'static str,
    g: &LabeledGraph,
    rank_of: &[u32],
    lin: &[Vec<LabelEntry>],
    lout: &[Vec<LabelEntry>],
) -> Vec<Violation> {
    let n = g.num_vertices();
    let mut out = Vec::new();
    if rank_of.len() != n || lin.len() != n || lout.len() != n {
        out.push(Violation {
            index: name,
            rule: "graph-mismatch",
            detail: format!("index covers {} vertices, graph has {n}", lin.len()),
        });
        return out;
    }
    let mut vertex_at = vec![VertexId(0); n];
    for v in g.vertices() {
        vertex_at[rank_of[v.index()] as usize] = v;
    }
    // (name, list, whether its hops lie before `x` on their paths)
    let lists = |x: VertexId| {
        [
            ("lin", &lin[x.index()], true),
            ("lout", &lout[x.index()], false),
        ]
    };

    let mut bad_order = 0usize;
    let mut not_antichain = 0usize;
    for x in g.vertices() {
        for (kind, entries, _) in lists(x) {
            let sorted = entries.windows(2).all(|w| w[0].0 <= w[1].0);
            if !sorted || entries.iter().any(|&(h, _)| h as usize >= n) {
                bad_order += 1;
                if bad_order <= MAX_PER_RULE {
                    out.push(Violation {
                        index: name,
                        rule: "lcr2hop-entry-order",
                        detail: format!(
                            "{kind}({x:?}) is not sorted by in-range ranks: {entries:?}"
                        ),
                    });
                }
                continue;
            }
            for run in entries.chunk_by(|a, b| a.0 == b.0) {
                let dominated = run.iter().enumerate().any(|(i, &(_, si))| {
                    run.iter()
                        .enumerate()
                        .any(|(j, &(_, sj))| i != j && sj.is_subset_of(si))
                });
                if dominated {
                    not_antichain += 1;
                    if not_antichain <= MAX_PER_RULE {
                        out.push(Violation {
                            index: name,
                            rule: "lcr2hop-antichain",
                            detail: format!(
                                "{kind}({x:?}) holds comparable sets for rank {}: {run:?}",
                                run[0].0
                            ),
                        });
                    }
                }
            }
        }
    }
    overflow_note(name, "lcr2hop-entry-order", "lists", bad_order, &mut out);
    overflow_note(name, "lcr2hop-antichain", "lists", not_antichain, &mut out);
    if bad_order > 0 {
        return out; // ranks out of range would name no hop
    }

    let mut unsound = 0usize;
    for x in reach_core::audit::sample_vertices(n, SOUNDNESS_VERTICES) {
        for (kind, entries, hop_first) in lists(x) {
            let step = entries.len().div_ceil(SOUNDNESS_ENTRIES).max(1);
            for &(h, set) in entries.iter().step_by(step) {
                let hop = vertex_at[h as usize];
                let (s, t) = if hop_first { (hop, x) } else { (x, hop) };
                if lcr_bfs(g, s, t, set) {
                    continue;
                }
                unsound += 1;
                if unsound <= MAX_PER_RULE {
                    out.push(Violation {
                        index: name,
                        rule: "lcr2hop-soundness",
                        detail: format!(
                            "{kind}({x:?}) lists hop {hop:?} (rank {h}) under {set:?}, \
                             but no {s:?} -> {t:?} path stays inside it"
                        ),
                    });
                }
            }
        }
    }
    overflow_note(name, "lcr2hop-soundness", "entries", unsound, &mut out);
    out
}

/// Seeded triple sample: half uniform targets, half manufactured
/// positives (short random constrained walks whose traversed labels
/// seed the mask). Masks cycle through empty, full, and random subsets
/// so both degenerate constraints stay covered.
fn sample_triples(g: &LabeledGraph, cfg: &AuditConfig) -> Vec<(VertexId, VertexId, LabelSet)> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let full = LabelSet::full(g.num_labels());
    let mut triples = Vec::with_capacity(cfg.pairs);
    while triples.len() < cfg.pairs {
        let s = VertexId(rng.random_range(0..n as u32));
        let mask = match triples.len() % 4 {
            0 => LabelSet::EMPTY,
            1 => full,
            _ => LabelSet(rng.random_range(0..=u64::MAX) & full.0),
        };
        if triples.len() % 2 == 0 {
            triples.push((s, VertexId(rng.random_range(0..n as u32)), mask));
        } else {
            // walk forward along allowed-by-construction edges,
            // accumulating their labels into the mask
            let mut cur = s;
            let mut walked = mask;
            for _ in 0..rng.random_range(1..6usize) {
                let outs: Vec<(VertexId, Label)> = g.out_edges(cur).collect();
                if outs.is_empty() {
                    break;
                }
                let (next, l) = outs[rng.random_range(0..outs.len())];
                walked = walked.insert(l);
                cur = next;
            }
            triples.push((s, cur, walked));
        }
    }
    triples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcr::{
        Completeness, ConstraintClass, Dynamism, InputClass, LabeledIndexMeta, LcrFramework,
    };
    use crate::pipeline::{lcr_feasible, lcr_names};
    use reach_graph::generators::{random_labeled_digraph, LabelDistribution};

    fn meta(name: &'static str) -> LabeledIndexMeta {
        LabeledIndexMeta {
            name,
            citation: "[-]",
            framework: LcrFramework::Gtc,
            constraint: ConstraintClass::Alternation,
            completeness: Completeness::Complete,
            input: InputClass::General,
            dynamism: Dynamism::Static,
        }
    }

    /// Ground truth that forgets one label: paths needing it vanish.
    struct DropsLabel {
        g: LabeledGraph,
        dropped: Label,
    }

    impl LcrIndex for DropsLabel {
        fn query(&self, s: VertexId, t: VertexId, allowed: LabelSet) -> bool {
            let narrowed = LabelSet(allowed.0 & !LabelSet::singleton(self.dropped).0);
            lcr_bfs(&self.g, s, t, narrowed)
        }
        fn meta(&self) -> LabeledIndexMeta {
            meta("DropsLabel")
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn size_entries(&self) -> usize {
            0
        }
    }

    #[test]
    fn audit_catches_a_dropped_label() {
        let mut rng = SmallRng::seed_from_u64(21);
        let g = random_labeled_digraph(40, 120, 3, LabelDistribution::Uniform, &mut rng);
        let idx = DropsLabel {
            g: g.clone(),
            dropped: Label(0),
        };
        let outcome = audit_lcr_index(&idx, &g, &AuditConfig::default());
        assert!(outcome
            .violations
            .iter()
            .any(|v| v.rule == "lcr-completeness"));
    }

    #[test]
    fn every_lcr_registry_index_audits_clean() {
        let mut rng = SmallRng::seed_from_u64(22);
        let g = Arc::new(random_labeled_digraph(
            60,
            180,
            3,
            LabelDistribution::Uniform,
            &mut rng,
        ));
        let opts = BuildOpts::default();
        let cfg = AuditConfig {
            pairs: 300,
            seed: 23,
        };
        for name in lcr_names() {
            if !lcr_feasible(name, g.num_vertices()) {
                continue;
            }
            let outcome = audit_lcr(name, &g, &opts, &cfg).expect("registry name");
            assert!(
                outcome.is_clean(),
                "{name} violations: {:#?}",
                outcome.violations
            );
        }
    }

    #[test]
    fn unknown_names_are_not_audited() {
        let g = Arc::new(LabeledGraph::from_edges(2, 1, &[(0, 0, 1)]));
        assert!(audit_lcr(
            "no such index",
            &g,
            &BuildOpts::default(),
            &AuditConfig::default()
        )
        .is_none());
    }
}
