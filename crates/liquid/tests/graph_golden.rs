//! Golden graphs: `Graph::generate` at the two shapes the cluster
//! benchmark serves (200 k and 1 M vertices, m = 10, seed `0x11D`) is
//! pinned by a content hash, its edge count and its underfill count.
//! Any change to the generator or the CSR build that alters a single
//! adjacency entry fails here, so speed work on either must keep the
//! graph bit-identical.

use liquid::graph::{Graph, GraphConfig};

/// FNV-1a 64 over every vertex's degree followed by its sorted neighbor
/// list, all as little-endian `u32`, in vertex order.
fn content_hash(g: &Graph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in 0..g.vertex_count() {
        eat(g.degree(v));
        for &u in g.neighbors(v) {
            eat(u);
        }
    }
    h
}

fn check(vertices: u32, hash: u64, edges: u64, underfilled: u64) {
    let g = Graph::generate(&GraphConfig {
        vertices,
        edges_per_vertex: 10,
        seed: 0x11D,
    });
    let got = (content_hash(&g), g.edge_count(), g.stats().underfilled);
    assert_eq!(
        got,
        (hash, edges, underfilled),
        "{vertices}-vertex graph: (hash, edges, underfilled) = ({:#018x}, {}, {})",
        got.0,
        got.1,
        got.2
    );
}

#[test]
fn golden_200k() {
    check(200_000, 0x36ba_9935_3eec_d8e3, 1_999_945, 0);
}

#[test]
fn golden_1m() {
    check(1_000_000, 0xc8d7_4cc5_eb93_646c, 9_999_945, 0);
}
