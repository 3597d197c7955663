//! Property tests pinning the CSR graph engine to its retained
//! references: the flat `offsets`/`targets` representation against the
//! legacy `Vec<Vec<VertexId>>` adjacency ([`liquid::graph::reference`]),
//! the zero-clone sub-CSR shard slices against the old cloned slices,
//! the adaptive intersection kernel against the per-element
//! binary-search filter, and the CSR fill's head-only sort against
//! `sort_unstable`.

use liquid::graph::{intersect_count, reference::VecGraph, sort_head, Graph, GraphConfig};
use proptest::prelude::*;

/// Generator configs of two shapes: sparse (up to 2 048 vertices, m < 8)
/// and dense (64–256 vertices, m = 8–16). Dense configs draw duplicate
/// endpoints often, so the generator's redraw-and-rewind path runs on
/// most batches.
fn arb_cfg() -> impl Strategy<Value = GraphConfig> {
    let cfg = |(vertices, edges_per_vertex, seed)| GraphConfig {
        vertices,
        edges_per_vertex,
        seed,
    };
    prop_oneof![
        (64u32..2_048, 1u32..8, any::<u64>()).prop_map(cfg),
        (64u32..=256, 8u32..=16, any::<u64>()).prop_map(cfg),
    ]
}

/// A list shaped like a generated adjacency list before its sort: an
/// unsorted head followed by an ascending tail. Head and tail are drawn
/// from one small universe, so they overlap on most cases.
fn arb_head_then_tail() -> impl Strategy<Value = Vec<u32>> {
    (
        prop::collection::vec(0u32..64, 0..12),
        prop::collection::vec(0u32..64, 0..24),
    )
        .prop_map(|(mut head, mut tail)| {
            tail.sort_unstable();
            head.extend(tail);
            head
        })
}

/// A sorted, duplicate-free id list — the only shape the intersection
/// kernels are defined over (adjacency lists are stored this way).
fn arb_sorted_ids() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..512, 0..96).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

proptest! {
    /// The CSR engine and the retained Vec-of-Vecs reference agree on
    /// every query surface — neighbors, degree, has_edge, edge_count —
    /// across random generator configs. The generators share the RNG
    /// accept/reject stream, so the graphs must be identical, not just
    /// isomorphic.
    #[test]
    fn csr_matches_vec_reference(cfg in arb_cfg()) {
        let csr = Graph::generate(&cfg);
        let vec = VecGraph::generate(&cfg);
        prop_assert_eq!(csr.vertex_count(), vec.vertex_count());
        prop_assert_eq!(csr.edge_count(), vec.edge_count());
        for v in 0..cfg.vertices {
            prop_assert_eq!(csr.neighbors(v), vec.neighbors(v), "neighbors({})", v);
            prop_assert_eq!(csr.degree(v), vec.degree(v), "degree({})", v);
        }
        // has_edge spot-checks: every real edge plus a probe ring of
        // non-neighbors around each vertex.
        for v in (0..cfg.vertices).step_by(7) {
            for &t in csr.neighbors(v) {
                prop_assert!(csr.has_edge(v, t) && vec.has_edge(v, t));
            }
            let probe = (v + 1) % cfg.vertices;
            prop_assert_eq!(csr.has_edge(v, probe), vec.has_edge(v, probe));
        }
    }

    /// The head-only sort equals a full sort on arbitrary lists and on
    /// head-then-ascending-tail lists whose head overlaps the tail.
    #[test]
    fn sort_head_matches_sort_unstable(
        any_list in prop::collection::vec(any::<u32>(), 0..48),
        shaped in arb_head_then_tail(),
    ) {
        for list in [any_list, shaped] {
            let mut want = list.clone();
            want.sort_unstable();
            let mut got = list.clone();
            sort_head(&mut got);
            prop_assert_eq!(got, want, "input {:?}", list);
        }
    }

    /// Sub-CSR shard slices expose exactly the owned rows the legacy
    /// cloned slices held, across every shard count the cluster spawns.
    #[test]
    fn shard_slices_match_cloned_reference(cfg in arb_cfg()) {
        let csr = Graph::generate(&cfg);
        let vec = VecGraph::generate(&cfg);
        for n_shards in 1..=8usize {
            for shard in 0..n_shards {
                let sub = csr.shard_slice(shard, n_shards);
                let cloned = vec.shard_slice_cloned(shard, n_shards);
                prop_assert_eq!(sub.shard(), shard);
                prop_assert_eq!(sub.total_vertices(), cfg.vertices);
                let mut owned = 0usize;
                for v in 0..cfg.vertices {
                    if Graph::owner(v, n_shards) == shard {
                        let (cv, list) = &cloned[owned];
                        prop_assert_eq!(*cv, v);
                        prop_assert_eq!(
                            sub.neighbors(v),
                            Some(list.as_slice()),
                            "shard {}/{} vertex {}", shard, n_shards, v
                        );
                        prop_assert_eq!(sub.degree(v), Some(list.len() as u32));
                        owned += 1;
                    } else {
                        prop_assert_eq!(sub.neighbors(v), None);
                        prop_assert_eq!(sub.degree(v), None);
                    }
                }
                prop_assert_eq!(owned, cloned.len());
            }
        }
    }

    /// The adaptive merge/gallop/filter kernel equals the legacy
    /// binary-search filter on arbitrary sorted sets — including the
    /// empty, disjoint, subset, and identical shapes below.
    #[test]
    fn intersect_matches_binary_filter(a in arb_sorted_ids(), b in arb_sorted_ids()) {
        prop_assert_eq!(
            intersect_count(&a, &b),
            VecGraph::intersect_count_binary(&a, &b)
        );
        prop_assert_eq!(
            intersect_count(&b, &a),
            VecGraph::intersect_count_binary(&a, &b)
        );
    }

    /// Skew stress for the gallop path: a short probe list against a
    /// long base drawn from the same universe, both directions.
    #[test]
    fn intersect_matches_on_skewed_pairs(
        short in prop::collection::vec(0u32..100_000, 0..12),
        base in prop::collection::vec(0u32..100_000, 256..1_024),
    ) {
        let norm = |mut v: Vec<u32>| { v.sort_unstable(); v.dedup(); v };
        let (short, base) = (norm(short), norm(base));
        prop_assert_eq!(
            intersect_count(&short, &base),
            VecGraph::intersect_count_binary(&short, &base)
        );
    }
}

#[test]
fn sort_head_edge_shapes() {
    let cases: &[&[u32]] = &[
        &[],
        &[5],
        &[1, 2, 3],          // already sorted: no head
        &[3, 2, 1],          // descending: one-element tail
        &[9, 4, 7, 10, 11],  // generated shape: head below the tail
        &[9, 4, 12, 10, 11], // head max above the tail min
        &[4, 4, 1, 4, 4],    // duplicates across the cut
        &[u32::MAX, 0, 0, u32::MAX],
    ];
    for &list in cases {
        let mut want = list.to_vec();
        want.sort_unstable();
        let mut got = list.to_vec();
        sort_head(&mut got);
        assert_eq!(got, want, "{list:?}");
    }
}

#[test]
fn intersect_edge_shapes() {
    let cases: &[(&[u32], &[u32], u64)] = &[
        (&[], &[], 0),
        (&[], &[1, 2, 3], 0),
        (&[5], &[], 0),
        (&[1, 3, 5], &[2, 4, 6], 0),              // disjoint
        (&[2, 4], &[1, 2, 3, 4, 5], 2),           // subset
        (&[7, 8, 9], &[7, 8, 9], 3),              // identical
        (&[0, u32::MAX], &[u32::MAX], 1),         // boundary values
    ];
    for &(a, b, want) in cases {
        assert_eq!(intersect_count(a, b), want, "{a:?} ∩ {b:?}");
        assert_eq!(intersect_count(b, a), want, "{b:?} ∩ {a:?}");
        assert_eq!(VecGraph::intersect_count_binary(a, b), want);
    }
    // The gallop threshold exactly: short of 8 against 128 elements
    // (ratio 16) with matches at the window edges the exponential scan
    // stops on.
    let base: Vec<u32> = (0..128).map(|i| i * 3).collect();
    let short: Vec<u32> = vec![0, 3, 93, 189, 285, 333, 378, 381];
    assert_eq!(
        intersect_count(&short, &base),
        VecGraph::intersect_count_binary(&short, &base)
    );
}
