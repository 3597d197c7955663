//! The graph-engine scale benchmark behind `BENCH_graph.json`.
//!
//! Prices the CSR graph engine against the retained Vec-of-Vecs
//! reference (`liquid::graph::reference::VecGraph`, the pre-CSR adjacency
//! representation) at 100k and 1M vertices — and 4M with `GRAPH_SCALE_XL`
//! set, kept out of the default run to bound CI memory. Both generators
//! draw the identical preferential-attachment edge sequence (the CSR
//! generator's stamp-array dedup replays the legacy RNG accept/reject
//! stream bit-for-bit), so every row compares the same graph.
//!
//! Four metrics per scale, each in the `csr` (after) vs `vecvec`/`binary`
//! (before) pairing `scripts/check.sh` gates on:
//!
//! * `build/*` — full generate-and-assemble wall time, the min of
//!   [`BUILDS`] builds per representation, so both sides of the ADR-001 G2
//!   ratio are read the same way.
//! * `bytes_per_edge/*` — resident heap bytes per stored adjacency entry,
//!   malloc chunk overhead included (counts, not nanoseconds; the ADR-001
//!   G1 target requires csr <= 0.5x vecvec, no tolerance).
//! * `neighbors/*` — random-vertex frontier walk: sum every neighbor of a
//!   shuffled vertex sample through the O(1)-slice API.
//! * `intersect/*` — adjacency-list intersection over random vertex
//!   pairs: the adaptive merge/gallop kernel vs the retained per-element
//!   binary-search filter.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, fmt_ns, Criterion};
use liquid::graph::{intersect_count, reference, Graph, GraphConfig, VertexId};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Prints a single-measurement row in criterion's line format so the
/// check.sh awk block ingests it alongside the timed rows. `bytes_per_edge`
/// rows carry counts; fmt_ns's unit scaling is undone by the parser's ns
/// normalization, so the JSON number equals the raw value.
fn report_row(id: &str, value: f64, iters: u64) {
    println!(
        "{id:<44} time: [{} {} {}]  ({} iters)",
        fmt_ns(value),
        fmt_ns(value),
        fmt_ns(value),
        iters
    );
}

/// Builds timed per representation for the `build/*` rows.
const BUILDS: usize = 3;

/// Runs `build` [`BUILDS`] times and returns the last result with the
/// fastest wall time in ns. The previous result is dropped before each
/// build, so two graphs never share the heap.
fn min_build<T>(build: impl Fn() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..BUILDS {
        drop(last.take());
        let t = Instant::now();
        let built = build();
        best = best.min(t.elapsed().as_nanos() as f64);
        last = Some(built);
    }
    (last.expect("BUILDS > 0"), best)
}

fn bench_graph_scale(c: &mut Criterion) {
    let mut scales: Vec<(&str, u32)> = vec![("100k", 100_000), ("1m", 1_000_000)];
    if std::env::var("GRAPH_SCALE_XL").is_ok() {
        scales.push(("4m", 4_000_000));
    }

    for (label, vertices) in scales {
        // m = 4 matches scenarios/liquid_mega.scn: small adjacency lists
        // are where the Vec-of-Vecs representation wastes the most (header
        // + chunk overhead + growth slack per vertex), i.e. the regime the
        // CSR engine exists for.
        let cfg = GraphConfig {
            vertices,
            edges_per_vertex: 4,
            seed: 0x11D,
        };

        let (graph, csr_build_ns) = min_build(|| Graph::generate(&cfg));
        let (vecg, vec_build_ns) = min_build(|| reference::VecGraph::generate(&cfg));
        assert_eq!(
            graph.edge_count(),
            vecg.edge_count(),
            "generators diverged at {label}"
        );
        report_row(
            &format!("graph_scale/build/csr_{label}"),
            csr_build_ns,
            BUILDS as u64,
        );
        report_row(
            &format!("graph_scale/build/vecvec_{label}"),
            vec_build_ns,
            BUILDS as u64,
        );

        let entries = (2 * graph.edge_count()) as f64;
        report_row(
            &format!("graph_scale/bytes_per_edge/csr_{label}"),
            graph.csr().heap_bytes() as f64 / entries,
            1,
        );
        report_row(
            &format!("graph_scale/bytes_per_edge/vecvec_{label}"),
            vecg.heap_bytes() as f64 / entries,
            1,
        );

        // A shuffled vertex sample: random access, the worst case for both
        // representations and the shape shard frontier walks take.
        let mut rng = SmallRng::seed_from_u64(0xF00D ^ u64::from(vertices));
        let ids: Vec<VertexId> = (0..4096).map(|_| rng.random_range(0..vertices)).collect();
        c.bench_function(&format!("graph_scale/neighbors/csr_{label}"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &v in &ids {
                    for &t in graph.neighbors(v) {
                        acc += u64::from(t);
                    }
                }
                black_box(acc)
            })
        });
        c.bench_function(&format!("graph_scale/neighbors/vecvec_{label}"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &v in &ids {
                    for &t in vecg.neighbors(v) {
                        acc += u64::from(t);
                    }
                }
                black_box(acc)
            })
        });

        // Random adjacency-list pairs, the CountIntersect shard kernel's
        // input shape: mostly short-vs-short lists with the occasional hub
        // (preferential attachment's heavy tail) where galloping pays.
        let pairs: Vec<(VertexId, VertexId)> = (0..2048)
            .map(|_| (rng.random_range(0..vertices), rng.random_range(0..vertices)))
            .collect();
        c.bench_function(&format!("graph_scale/intersect/adaptive_{label}"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &(u, v) in &pairs {
                    acc += intersect_count(graph.neighbors(u), graph.neighbors(v));
                }
                black_box(acc)
            })
        });
        c.bench_function(&format!("graph_scale/intersect/binary_{label}"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &(u, v) in &pairs {
                    acc += reference::VecGraph::intersect_count_binary(
                        vecg.neighbors(u),
                        vecg.neighbors(v),
                    );
                }
                black_box(acc)
            })
        });
    }
}

criterion_group!(benches, bench_graph_scale);
criterion_main!(benches);
