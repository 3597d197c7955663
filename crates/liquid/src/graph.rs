//! The in-memory graph store and its synthetic generator.
//!
//! LIquid serves LinkedIn's Economic Graph; we substitute a synthetic
//! social-style graph grown by preferential attachment (Barabási–Albert),
//! whose power-law degree distribution gives per-query work the same
//! heavy-tailed spread that makes per-type processing-time distributions
//! lognormal-ish in production (§5.3). The graph is partitioned across
//! shards by vertex id, like LIquid "breaks up the graph into multiple data
//! shards and assigns them to separate shard hosts".
//!
//! Storage is compressed sparse row ([`CsrGraph`]): one flat `offsets`
//! array plus one flat `targets` array, built by a two-pass counting build
//! (degree count → prefix sum → fill → head-only sort) parallelized across
//! worker threads.
//! Each shard's slice is a sub-CSR with owned vertices remapped to dense
//! local indices — no per-vertex clones at cluster startup. The legacy
//! `Vec<Vec<VertexId>>` storage survives only as [`reference::VecGraph`],
//! the proptest/bench baseline (a CI grep gate bans it everywhere else).
//! See DESIGN.md S37.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Vertex identifier.
pub type VertexId = u32;

/// Heap bookkeeping charged per live allocation when the graph structures
/// report their footprint: the allocator's per-chunk header (16 bytes for
/// glibc malloc). One-allocation-per-vertex storage pays it n times; CSR
/// pays it twice. Declared here so [`GraphStats`] and the `graph_scale`
/// bench price both layouts with the same formula (ADR-001).
pub const ALLOC_CHUNK_OVERHEAD: usize = 16;

/// Synthetic graph parameters.
#[derive(Debug, Clone)]
pub struct GraphConfig {
    /// Number of vertices.
    pub vertices: u32,
    /// Edges attached per new vertex (preferential attachment `m`).
    pub edges_per_vertex: u32,
    /// Generator seed.
    pub seed: u64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        Self {
            vertices: 200_000,
            edges_per_vertex: 10,
            seed: 0x11D,
        }
    }
}

/// Storage summary for a built graph: what the structure holds and what it
/// costs. `bytes_per_edge` is heap bytes (including
/// [`ALLOC_CHUNK_OVERHEAD`] per live allocation) divided by stored
/// adjacency entries (2× the undirected edge count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphStats {
    /// Vertex count.
    pub vertices: u64,
    /// Undirected edge count.
    pub edges: u64,
    /// Heap bytes held by the storage, chunk overhead included.
    pub heap_bytes: u64,
    /// `heap_bytes / (2 * edges)` — amortized cost per stored entry.
    pub bytes_per_edge: f64,
    /// Vertices the generator attached with fewer than `m` edges because
    /// the rejection-sampling guard exhausted (should be 0 on any sane
    /// config; surfaced instead of silently under-connecting).
    pub underfilled: u64,
}

impl GraphStats {
    /// The one-line rendering shared by the CLI report and log output:
    /// `graph_stats vertices=… edges=… bytes=… bytes_per_edge=… underfilled=…`.
    pub fn render_line(&self) -> String {
        format!(
            "graph_stats vertices={} edges={} bytes={} bytes_per_edge={:.2} underfilled={}",
            self.vertices, self.edges, self.heap_bytes, self.bytes_per_edge, self.underfilled
        )
    }
}

/// An undirected graph in compressed-sparse-row form: the neighbors of `v`
/// are `targets[offsets[v] as usize .. offsets[v + 1] as usize]`, sorted.
///
/// `u32` offsets index *stored entries* (2× undirected edges), so the
/// representation holds up to 2³²−1 entries ≈ 2.1 B undirected edges —
/// ~214 M vertices at the default mean degree 20. Past that the offsets
/// (not the ids) must widen to `u64`; see DESIGN.md S37.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// `vertex_count + 1` running entry offsets.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists.
    targets: Vec<VertexId>,
}

impl CsrGraph {
    /// Builds the CSR from an undirected edge stream (each edge listed
    /// once, no self-loops, no duplicates) via the two-pass counting
    /// build: degree count → prefix sum → fill, then a per-vertex
    /// [`sort_head`]. The fill writes each list in stream order, so for a
    /// generated stream only the vertex's own `m` draws need sorting; any
    /// other stream still comes out fully sorted. All passes are
    /// parallelized across worker threads when the input is large enough
    /// to pay for them.
    pub fn from_edges(n: usize, edges: &[[VertexId; 2]]) -> Self {
        Self::from_edges_with_threads(n, edges, auto_threads(edges.len()))
    }

    /// [`Self::from_edges`] with an explicit worker-thread count — the
    /// parallel fill partitions vertices into contiguous ranges of
    /// roughly equal entry counts, so the single-core CI host and an
    /// 8-way build produce byte-identical output (covered by test).
    pub fn from_edges_with_threads(n: usize, edges: &[[VertexId; 2]], threads: usize) -> Self {
        let entries = edges
            .len()
            .checked_mul(2)
            .expect("edge count overflows usize");
        assert!(
            entries <= u32::MAX as usize,
            "CSR u32 offsets hold at most {} stored entries, got {entries} \
             (widen offsets to u64 past ~2.1B undirected edges)",
            u32::MAX
        );
        let threads = threads.max(1);

        // Pass 1: degree count. Each worker counts an edge chunk into a
        // local array; locals are summed into the global counts.
        let mut degree = vec![0u32; n];
        if threads == 1 || edges.is_empty() {
            for e in edges {
                degree[e[0] as usize] += 1;
                degree[e[1] as usize] += 1;
            }
        } else {
            let chunk = edges.len().div_ceil(threads);
            let locals: Vec<Vec<u32>> = std::thread::scope(|s| {
                let handles: Vec<_> = edges
                    .chunks(chunk)
                    .map(|part| {
                        s.spawn(move || {
                            let mut local = vec![0u32; n];
                            for e in part {
                                local[e[0] as usize] += 1;
                                local[e[1] as usize] += 1;
                            }
                            local
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("degree worker")).collect()
            });
            for local in locals {
                for (d, l) in degree.iter_mut().zip(local) {
                    *d += l;
                }
            }
        }

        // Prefix sum → offsets.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut running = 0u32;
        offsets.push(0);
        for &d in &degree {
            running += d;
            offsets.push(running);
        }
        debug_assert_eq!(running as usize, entries);

        // Pass 2: fill + per-vertex head sort. Vertices are partitioned into
        // contiguous ranges holding roughly equal entry counts (balanced
        // despite power-law hubs); each worker owns a disjoint slice of
        // `targets`, scans the whole edge stream, and keeps only the
        // endpoints that land in its range.
        let mut targets = vec![0 as VertexId; entries];
        let bounds = entry_balanced_ranges(&offsets, threads);
        std::thread::scope(|s| {
            let mut rest: &mut [VertexId] = &mut targets;
            let mut consumed = 0usize;
            for w in bounds.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                let base = offsets[lo] as usize;
                let end = offsets[hi] as usize;
                let (mine, tail) = rest.split_at_mut(end - consumed);
                rest = tail;
                consumed = end;
                let offsets = &offsets;
                s.spawn(move || {
                    let mut cursor: Vec<u32> =
                        offsets[lo..hi].iter().map(|&o| o - base as u32).collect();
                    for e in edges {
                        let (a, b) = (e[0] as usize, e[1] as usize);
                        if (lo..hi).contains(&a) {
                            mine[cursor[a - lo] as usize] = e[1];
                            cursor[a - lo] += 1;
                        }
                        if (lo..hi).contains(&b) {
                            mine[cursor[b - lo] as usize] = e[0];
                            cursor[b - lo] += 1;
                        }
                    }
                    let mut start = 0usize;
                    for v in lo..hi {
                        let len = (offsets[v + 1] - offsets[v]) as usize;
                        sort_head(&mut mine[start..start + len]);
                        start += len;
                    }
                });
            }
        });

        Self { offsets, targets }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of stored adjacency entries (2× undirected edges).
    #[inline]
    pub fn entry_count(&self) -> u64 {
        self.targets.len() as u64
    }

    /// The sorted neighbor list of `v` — an O(1) slice into flat storage.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree of `v`, straight off the offsets — no list access.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Whether the edge `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Heap bytes held by the two flat arrays, chunk overhead included.
    pub fn heap_bytes(&self) -> usize {
        vec_heap_bytes::<u32>(self.offsets.capacity()) + vec_heap_bytes::<VertexId>(self.targets.capacity())
    }
}

/// Heap cost of one `Vec<T>` buffer: payload plus the allocator chunk
/// header, zero for the no-allocation empty case.
fn vec_heap_bytes<T>(capacity: usize) -> usize {
    if capacity == 0 {
        0
    } else {
        capacity * std::mem::size_of::<T>() + ALLOC_CHUNK_OVERHEAD
    }
}

/// Worker threads for a CSR build: all available cores (capped at 8 — the
/// degree-count pass holds one `u32` array per worker) once the input is
/// big enough to amortize thread spawn, else 1.
fn auto_threads(edge_count: usize) -> usize {
    if edge_count < 1 << 16 {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(8)
}

/// Splits `0..n` into at most `parts` contiguous vertex ranges of roughly
/// equal *entry* counts (offsets are the running entry totals, so the
/// boundary for the k-th cut is the first vertex past k/parts of all
/// entries). Returns the boundary list `[0, …, n]`.
fn entry_balanced_ranges(offsets: &[u32], parts: usize) -> Vec<usize> {
    let n = offsets.len() - 1;
    let total = offsets[n] as usize;
    let mut bounds = vec![0usize];
    let mut v = 0usize;
    for k in 1..parts {
        let want = (total * k / parts) as u32;
        while v < n && offsets[v] < want {
            v += 1;
        }
        if v > *bounds.last().unwrap() && v < n {
            bounds.push(v);
        }
    }
    bounds.push(n);
    bounds
}

/// Vertices whose endpoint draws [`Graph::generate`] takes in one batch
/// before loading any of them.
const LOOKAHEAD: usize = 8;

/// Sorts `list` ascending by sorting only its unsorted head. The longest
/// non-decreasing suffix is the tail; the head is sorted together with
/// the prefix of the tail that lies below the head's maximum, and the rest
/// of the tail stays in place. The result equals `list.sort_unstable()`
/// for any input.
///
/// A generated adjacency list is the vertex's own draws (unsorted, all
/// below it) followed by its later attachers (ascending, all above it),
/// so the CSR fill sorts `m` entries per vertex instead of the whole list.
pub fn sort_head(list: &mut [VertexId]) {
    let mut cut = list.len().saturating_sub(1);
    while cut > 0 && list[cut - 1] <= list[cut] {
        cut -= 1;
    }
    let Some(&max) = list[..cut].iter().max() else {
        return;
    };
    let overlap = list[cut..].partition_point(|&x| x < max);
    list[..cut + overlap].sort_unstable();
}

/// An undirected preferential-attachment graph on CSR storage.
#[derive(Debug, Clone)]
pub struct Graph {
    csr: CsrGraph,
    /// Undirected edge count, cached at build (was an O(n) sum per call).
    edges: u64,
    /// Vertices attached with fewer than `m` edges (guard exhaustion).
    underfilled: u32,
}

impl Graph {
    /// Generates a preferential-attachment graph.
    ///
    /// New vertices connect to `m` endpoints drawn uniformly from every
    /// prior edge endpoint, so the probability of attaching to a vertex is
    /// proportional to its degree — yielding a power-law degree
    /// distribution. The endpoints are read straight out of the edge list
    /// (endpoint `k` is `edges[k / 2][k % 2]`, the same values in the same
    /// order the legacy endpoint pool held), so there is no pool to build.
    ///
    /// Duplicate-target rejection is O(1) via a stamp array, with the same
    /// accept/reject sequence as the legacy `targets.contains` scan. A
    /// vertex whose `16 * m` draw guard exhausts before collecting `m`
    /// distinct targets is counted in [`GraphStats::underfilled`] instead
    /// of silently under-connecting.
    ///
    /// Draws are taken before the endpoints they index are loaded, so the
    /// cache misses of a batch overlap instead of queueing behind one
    /// another. The RNG stream is unchanged, so seeded graphs are
    /// bit-identical to the legacy generator's:
    ///
    /// * the draw ranges of up to [`LOOKAHEAD`] vertices are known in
    ///   advance if each attaches from exactly its first `m` draws, so a
    ///   batch draws those `m` indices per vertex up front and saves the
    ///   RNG state after each vertex;
    /// * a vertex left short restores its saved state, redraws one index
    ///   at a time as the legacy loop did, and ends the batch, whose later
    ///   draws are discarded.
    pub fn generate(cfg: &GraphConfig) -> Self {
        let n = cfg.vertices as usize;
        let m = cfg.edges_per_vertex.max(1) as usize;
        assert!(n > m, "need more vertices than edges per vertex");
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        // Each undirected edge once, newer endpoint first.
        let mut edges: Vec<[VertexId; 2]> = Vec::with_capacity(n * m);

        // Seed clique over the first m+1 vertices.
        for a in 0..=m {
            for b in (a + 1)..=m {
                edges.push([a as VertexId, b as VertexId]);
            }
        }

        // stamp[t] == v marks t as already chosen for the vertex being
        // attached — O(1) dedup instead of scanning the chosen list.
        let mut stamp = vec![VertexId::MAX; n];
        let mut draws: Vec<usize> = Vec::with_capacity(LOOKAHEAD * m);
        let mut saved: Vec<SmallRng> = Vec::with_capacity(LOOKAHEAD);
        let mut underfilled = 0u32;
        // Accepts the endpoints `draws` index for vertex `v`, in draw order.
        let attach =
            |edges: &mut Vec<[VertexId; 2]>, stamp: &mut [VertexId], v: usize, draws: &[usize]| {
                for &k in draws {
                    let t = edges[k >> 1][k & 1];
                    if t as usize != v && stamp[t as usize] != v as VertexId {
                        stamp[t as usize] = v as VertexId;
                        edges.push([v as VertexId, t]);
                    }
                }
            };
        let mut v = m + 1;
        while v < n {
            let base = edges.len();
            draws.clear();
            saved.clear();
            for i in 0..LOOKAHEAD.min(n - v) {
                let endpoints = 2 * (base + i * m);
                draws.extend((0..m).map(|_| rng.random_range(0..endpoints)));
                saved.push(rng.clone());
            }
            for (first, after) in draws.chunks(m).zip(&saved) {
                let before = edges.len();
                attach(&mut edges, &mut stamp, v, first);
                let short = edges.len() - before < m;
                if short {
                    // Rewind to just after this vertex's first m draws and
                    // redraw one at a time, as the legacy loop did.
                    rng = after.clone();
                    let mut guard = m;
                    while edges.len() - before < m && guard < 16 * m {
                        let k = rng.random_range(0..2 * before);
                        guard += 1;
                        attach(&mut edges, &mut stamp, v, &[k]);
                    }
                    if edges.len() - before < m {
                        underfilled += 1;
                    }
                }
                v += 1;
                if short {
                    break;
                }
            }
        }
        debug_assert_eq!(
            underfilled, 0,
            "generator guard exhausted on {underfilled} vertices \
             (too few endpoints for m={m}?)"
        );
        drop(stamp);

        let edge_count = edges.len() as u64;
        let csr = CsrGraph::from_edges(n, &edges);
        Self {
            csr,
            edges: edge_count,
            underfilled,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> u32 {
        self.csr.vertex_count()
    }

    /// Number of undirected edges (cached at build time).
    #[inline]
    pub fn edge_count(&self) -> u64 {
        self.edges
    }

    /// The sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.csr.neighbors(v)
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        self.csr.degree(v)
    }

    /// Whether the edge `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.csr.has_edge(u, v)
    }

    /// The CSR storage itself (bench and stats access).
    #[inline]
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// Storage summary: counts, heap footprint, generator health.
    pub fn stats(&self) -> GraphStats {
        let heap_bytes = self.csr.heap_bytes() as u64;
        let entries = self.csr.entry_count().max(1);
        GraphStats {
            vertices: self.vertex_count() as u64,
            edges: self.edges,
            heap_bytes,
            bytes_per_edge: heap_bytes as f64 / entries as f64,
            underfilled: self.underfilled as u64,
        }
    }

    /// Extracts the shard-local slice: a sub-CSR over the vertices owned
    /// by `shard` out of `n_shards` (ownership = `v % n_shards`, dense
    /// local index = `v / n_shards`). Two flat allocations per shard —
    /// no per-vertex neighbor-list clones.
    pub fn shard_slice(&self, shard: usize, n_shards: usize) -> ShardData {
        assert!(shard < n_shards);
        let n = self.vertex_count() as usize;
        let owned_count = if n > shard {
            (n - shard).div_ceil(n_shards)
        } else {
            0
        };

        let mut offsets = Vec::with_capacity(owned_count + 1);
        let mut running = 0u32;
        offsets.push(0);
        let mut v = shard;
        while v < n {
            running += self.csr.degree(v as VertexId);
            offsets.push(running);
            v += n_shards;
        }

        let mut targets = Vec::with_capacity(running as usize);
        let mut v = shard;
        while v < n {
            targets.extend_from_slice(self.csr.neighbors(v as VertexId));
            v += n_shards;
        }

        ShardData {
            n_shards,
            shard,
            vertices: self.vertex_count(),
            offsets,
            targets,
        }
    }

    /// The shard owning vertex `v` under modulo partitioning.
    #[inline]
    pub fn owner(v: VertexId, n_shards: usize) -> usize {
        v as usize % n_shards
    }
}

/// One shard's slice of the graph: a sub-CSR over owned vertices only,
/// remapped to dense local indices (`v / n_shards`). Neighbor ids stay
/// global — neighbors may live on any shard.
#[derive(Debug, Clone)]
pub struct ShardData {
    n_shards: usize,
    shard: usize,
    vertices: u32,
    /// `owned_count + 1` running entry offsets over owned vertices.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists of owned vertices.
    targets: Vec<VertexId>,
}

impl ShardData {
    /// The shard index this slice belongs to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Total vertices in the full graph.
    pub fn total_vertices(&self) -> u32 {
        self.vertices
    }

    /// Dense local index of `v`, `None` if this shard does not own it.
    #[inline]
    fn local(&self, v: VertexId) -> Option<usize> {
        if Graph::owner(v, self.n_shards) != self.shard {
            return None;
        }
        let idx = (v as usize) / self.n_shards;
        (idx + 1 < self.offsets.len()).then_some(idx)
    }

    /// Sorted neighbors of an owned vertex; `None` if `v` is not owned here.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> Option<&[VertexId]> {
        let idx = self.local(v)?;
        let lo = self.offsets[idx] as usize;
        let hi = self.offsets[idx + 1] as usize;
        Some(&self.targets[lo..hi])
    }

    /// Degree of an owned vertex, O(1) off the offsets — lets frontier
    /// walks pre-size their output before touching any neighbor list.
    #[inline]
    pub fn degree(&self, v: VertexId) -> Option<u32> {
        let idx = self.local(v)?;
        Some(self.offsets[idx + 1] - self.offsets[idx])
    }

    /// Heap bytes held by the sub-CSR, chunk overhead included.
    pub fn heap_bytes(&self) -> usize {
        vec_heap_bytes::<u32>(self.offsets.capacity()) + vec_heap_bytes::<VertexId>(self.targets.capacity())
    }
}

/// `|a ∩ b|` for sorted duplicate-free slices, picking a strategy from
/// the operand shapes:
///
/// * **linear merge** when both lists are long and comparably sized —
///   merge costs ~(short + long) branch-free steps vs the filter's
///   ~short · log2(long) probes, so it wins once long/short drops below
///   the log factor;
/// * **galloping** (exponential probe + binary search in the located
///   window) from the shorter into the longer when a non-trivial probe
///   list meets a heavily skewed base — the monotone cursor makes the
///   whole probe O(short · log(long / short));
/// * the **per-element `binary_search` filter** otherwise — for the
///   tiny, cache-resident lists that dominate low-degree graphs, its
///   conditional-move probes beat both alternatives' bookkeeping.
///
/// The shard `CountIntersect` kernel and the broker-side QT5 fallback
/// both land here; equivalence with the legacy filter is
/// property-tested in `tests/graph_csr.rs`.
pub fn intersect_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return 0;
    }
    let ratio = long.len() / short.len();
    if long.len() >= 64 && ratio < 4 {
        intersect_count_merge(short, long)
    } else if ratio >= 16 && short.len() >= 8 {
        intersect_count_gallop(short, long)
    } else {
        intersect_count_filter(short, long)
    }
}

/// Per-element binary-search filter, the small-case strategy (and the
/// legacy kernel, retained verbatim in [`reference::VecGraph`]).
fn intersect_count_filter(short: &[VertexId], long: &[VertexId]) -> u64 {
    short.iter().filter(|x| long.binary_search(x).is_ok()).count() as u64
}

/// Linear merge intersection count for sorted slices. The cursor
/// advances are computed from comparisons instead of branched on — a
/// three-way branch on random data mispredicts almost every step, and
/// the misprediction stalls cost more than the extra arithmetic.
fn intersect_count_merge(a: &[VertexId], b: &[VertexId]) -> u64 {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0u64;
    while i < a.len() && j < b.len() {
        let x = a[i];
        let y = b[j];
        count += u64::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    count
}

/// Galloping intersection count: for each element of the (short) probe
/// list, exponentially advance a cursor through the (long) base list to
/// bracket it, then binary-search the bracket. The cursor never moves
/// backwards, so the whole probe costs O(short · log(long / short)).
fn intersect_count_gallop(probe: &[VertexId], base: &[VertexId]) -> u64 {
    let mut count = 0u64;
    let mut lo = 0usize;
    for &x in probe {
        if lo >= base.len() {
            break;
        }
        // Exponential search for the window containing x. The scan stops
        // at the first probe with base[hi] >= x, so the bracket must
        // include index hi itself — x may sit exactly there.
        let mut step = 1usize;
        let mut hi = lo;
        while hi < base.len() && base[hi] < x {
            lo = hi + 1;
            hi += step;
            step *= 2;
        }
        let hi = (hi + 1).min(base.len());
        match base[lo..hi].binary_search(&x) {
            Ok(pos) => {
                count += 1;
                lo += pos + 1;
            }
            Err(pos) => lo += pos,
        }
    }
    count
}

/// The legacy graph layer, retained as the equivalence/bench baseline.
pub mod reference {
    use super::{vec_heap_bytes, GraphConfig, VertexId, ALLOC_CHUNK_OVERHEAD};
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    /// The pre-CSR storage: one heap-allocated `Vec` per vertex, built by
    /// the legacy push → sort → dedup path with the O(m²)
    /// `targets.contains` rejection scan. This is the *only* permitted
    /// `Vec<Vec<VertexId>>` outside tests (CI grep gate in
    /// scripts/check.sh); it exists so proptests can check the CSR
    /// engine against an independent implementation and so the
    /// `graph_scale` bench has an honest "before" for build time,
    /// bytes/edge, and kernel throughput.
    #[derive(Debug, Clone)]
    pub struct VecGraph {
        adjacency: Vec<Vec<VertexId>>,
    }

    impl VecGraph {
        /// The legacy generator, byte-for-byte: same RNG, same
        /// accept/reject sequence, same silent truncation on guard
        /// exhaustion, same per-list sort + dedup.
        pub fn generate(cfg: &GraphConfig) -> Self {
            let n = cfg.vertices as usize;
            let m = cfg.edges_per_vertex.max(1) as usize;
            assert!(n > m, "need more vertices than edges per vertex");
            let mut rng = SmallRng::seed_from_u64(cfg.seed);
            let mut adjacency: Vec<Vec<VertexId>> = vec![Vec::new(); n];
            let mut pool: Vec<VertexId> = Vec::with_capacity(2 * n * m);

            for a in 0..=m {
                for b in (a + 1)..=m {
                    adjacency[a].push(b as VertexId);
                    adjacency[b].push(a as VertexId);
                    pool.push(a as VertexId);
                    pool.push(b as VertexId);
                }
            }

            for v in (m + 1)..n {
                let mut targets = Vec::with_capacity(m);
                let mut guard = 0;
                while targets.len() < m && guard < 16 * m {
                    let t = pool[rng.random_range(0..pool.len())];
                    guard += 1;
                    if t as usize != v && !targets.contains(&t) {
                        targets.push(t);
                    }
                }
                for &t in &targets {
                    adjacency[v].push(t);
                    adjacency[t as usize].push(v as VertexId);
                    pool.push(v as VertexId);
                    pool.push(t);
                }
            }

            for list in &mut adjacency {
                list.sort_unstable();
                list.dedup();
            }
            Self { adjacency }
        }

        /// Number of vertices.
        pub fn vertex_count(&self) -> u32 {
            self.adjacency.len() as u32
        }

        /// Number of undirected edges — the legacy O(n) sum.
        pub fn edge_count(&self) -> u64 {
            self.adjacency.iter().map(|l| l.len() as u64).sum::<u64>() / 2
        }

        /// The sorted neighbor list of `v`.
        pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
            &self.adjacency[v as usize]
        }

        /// Degree of `v`.
        pub fn degree(&self, v: VertexId) -> u32 {
            self.adjacency[v as usize].len() as u32
        }

        /// Whether the edge `(u, v)` exists.
        pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
            self.adjacency[u as usize].binary_search(&v).is_ok()
        }

        /// The legacy shard slice: owned adjacency lists *cloned* into
        /// `(vertex, neighbors)` pairs — the startup-memory-doubling
        /// path the sub-CSR replaced, kept for the equivalence suite.
        pub fn shard_slice_cloned(
            &self,
            shard: usize,
            n_shards: usize,
        ) -> Vec<(VertexId, Vec<VertexId>)> {
            assert!(shard < n_shards);
            self.adjacency
                .iter()
                .enumerate()
                .filter(|(v, _)| v % n_shards == shard)
                .map(|(v, list)| (v as VertexId, list.clone()))
                .collect()
        }

        /// Heap bytes held by the per-vertex layout, chunk overhead
        /// included: the outer buffer of `Vec` headers plus every
        /// non-empty inner buffer at its *actual* capacity (push-growth
        /// slack and all).
        pub fn heap_bytes(&self) -> usize {
            let outer = if self.adjacency.capacity() == 0 {
                0
            } else {
                self.adjacency.capacity() * std::mem::size_of::<Vec<VertexId>>()
                    + ALLOC_CHUNK_OVERHEAD
            };
            outer
                + self
                    .adjacency
                    .iter()
                    .map(|l| vec_heap_bytes::<VertexId>(l.capacity()))
                    .sum::<usize>()
        }

        /// The legacy intersection kernel: filter the shorter list
        /// through per-element `binary_search` on the longer. Retained
        /// as the bench baseline and the proptest oracle for
        /// [`super::intersect_count`].
        pub fn intersect_count_binary(a: &[VertexId], b: &[VertexId]) -> u64 {
            if a.len() <= b.len() {
                a.iter().filter(|x| b.binary_search(x).is_ok()).count() as u64
            } else {
                b.iter().filter(|x| a.binary_search(x).is_ok()).count() as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Graph {
        Graph::generate(&GraphConfig {
            vertices: 2_000,
            edges_per_vertex: 4,
            seed: 7,
        })
    }

    #[test]
    fn generation_produces_connected_adjacency() {
        let g = small();
        assert_eq!(g.vertex_count(), 2_000);
        // Every vertex has at least one neighbor (attached at creation).
        for v in 0..g.vertex_count() {
            assert!(g.degree(v) >= 1, "vertex {v} isolated");
        }
        // Roughly m edges per vertex.
        let e = g.edge_count();
        assert!(e > 6_000 && e < 9_000, "edges={e}");
        assert_eq!(g.stats().underfilled, 0);
    }

    #[test]
    fn adjacency_is_symmetric_and_sorted() {
        let g = small();
        for v in 0..g.vertex_count() {
            let ns = g.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "unsorted at {v}");
            for &u in ns {
                assert!(g.has_edge(u, v), "asymmetric edge {v}-{u}");
                assert_ne!(u, v, "self loop at {v}");
            }
        }
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let g = Graph::generate(&GraphConfig {
            vertices: 20_000,
            edges_per_vertex: 4,
            seed: 3,
        });
        let mut degrees: Vec<u32> = (0..g.vertex_count()).map(|v| g.degree(v)).collect();
        degrees.sort_unstable();
        let median = degrees[degrees.len() / 2];
        let max = *degrees.last().unwrap();
        // Power-law: the hubs dwarf the median vertex.
        assert!(max > 20 * median, "median={median} max={max}");
    }

    #[test]
    fn shard_slices_partition_the_graph() {
        let g = small();
        let n_shards = 4;
        let slices: Vec<ShardData> = (0..n_shards).map(|s| g.shard_slice(s, n_shards)).collect();
        for v in 0..g.vertex_count() {
            let owner = Graph::owner(v, n_shards);
            for (s, slice) in slices.iter().enumerate() {
                let got = slice.neighbors(v);
                if s == owner {
                    assert_eq!(got.unwrap(), g.neighbors(v));
                    assert_eq!(slice.degree(v), Some(g.degree(v)));
                } else {
                    assert!(got.is_none());
                    assert!(slice.degree(v).is_none());
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        for v in 0..a.vertex_count() {
            assert_eq!(a.neighbors(v), b.neighbors(v));
        }
    }

    #[test]
    fn generation_matches_legacy_reference() {
        // The CSR pipeline (stamp dedup + draw-then-load lookahead +
        // counting build) must reproduce the legacy push/sort/dedup graph
        // exactly, seed for seed. The dense configs redraw often, so the
        // lookahead's rewind path runs on most batches.
        let sparse = [7, 21, 0x11D].map(|seed| (3_000, 5, seed));
        let dense = [(64, 16, 1), (100, 12, 2), (128, 8, 3), (200, 10, 4), (256, 16, 0x11D)];
        for (vertices, edges_per_vertex, seed) in sparse.into_iter().chain(dense) {
            let cfg = GraphConfig {
                vertices,
                edges_per_vertex,
                seed,
            };
            let csr = Graph::generate(&cfg);
            let legacy = reference::VecGraph::generate(&cfg);
            assert_eq!(csr.vertex_count(), legacy.vertex_count());
            assert_eq!(csr.edge_count(), legacy.edge_count());
            for v in 0..csr.vertex_count() {
                assert_eq!(csr.neighbors(v), legacy.neighbors(v), "vertex {v}");
            }
        }
    }

    #[test]
    fn parallel_build_matches_single_threaded() {
        let cfg = GraphConfig {
            vertices: 5_000,
            edges_per_vertex: 6,
            seed: 13,
        };
        let g = Graph::generate(&cfg);
        let edges: Vec<[VertexId; 2]> = (0..g.vertex_count())
            .flat_map(|v| {
                g.neighbors(v)
                    .iter()
                    .filter(move |&&u| u > v)
                    .map(move |&u| [v, u])
                    .collect::<Vec<_>>()
            })
            .collect();
        let n = g.vertex_count() as usize;
        let single = CsrGraph::from_edges_with_threads(n, &edges, 1);
        for threads in [2, 3, 8] {
            let multi = CsrGraph::from_edges_with_threads(n, &edges, threads);
            assert_eq!(single.offsets, multi.offsets, "threads={threads}");
            assert_eq!(single.targets, multi.targets, "threads={threads}");
        }
    }

    #[test]
    fn csr_is_at_most_half_the_reference_footprint() {
        // The ADR-001 G1 claim at test scale: flat CSR storage costs at
        // most half the per-vertex Vec layout, chunk overhead included.
        let cfg = GraphConfig {
            vertices: 30_000,
            edges_per_vertex: 4,
            seed: 11,
        };
        let csr = Graph::generate(&cfg);
        let legacy = reference::VecGraph::generate(&cfg);
        let csr_bytes = csr.stats().heap_bytes as f64;
        let legacy_bytes = legacy.heap_bytes() as f64;
        assert!(
            csr_bytes <= 0.5 * legacy_bytes,
            "csr={csr_bytes} legacy={legacy_bytes}"
        );
    }

    #[test]
    fn intersect_kernels_agree_on_graph_lists() {
        let g = small();
        for v in (0..g.vertex_count()).step_by(17) {
            for u in g.neighbors(v).iter().take(3) {
                let a = g.neighbors(v);
                let b = g.neighbors(*u);
                assert_eq!(
                    intersect_count(a, b),
                    reference::VecGraph::intersect_count_binary(a, b)
                );
            }
        }
    }

    #[test]
    fn stats_render_line_shape() {
        let line = small().stats().render_line();
        assert!(line.starts_with("graph_stats vertices=2000 edges="), "{line}");
        assert!(line.contains("bytes_per_edge="), "{line}");
        assert!(line.ends_with("underfilled=0"), "{line}");
    }
}
