//! The broker→shard data-path benchmark behind `BENCH_datapath.json`.
//!
//! Measures the per-query cost of the fan-out/fan-in pipeline at 4 shards
//! under the published QT1..QT11 mix. The transports come from the
//! scenario's `param.transport` sweep. Every transport sends one batch per
//! (round, shard) with shared `Arc` payloads; the queue-based ones
//! (`channels`, `tcp`) report as `batched`, and `rings`, the
//! thread-per-core SPSC data path, is keyed `inproc/rings` next to its
//! channel sibling.
//!
//! Two metrics per transport: wall-clock time per query
//! (criterion), and global-allocator allocation events per query
//! (`*_allocs` rows, printed in the same line format so
//! `scripts/check.sh` parses both into one JSON file — those entries are
//! counts, not nanoseconds).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bouncer_bench::liquidstudy::{liquid_mix, liquid_slos};
use bouncer_bench::simstudy::scenario_path;
use bouncer_core::spec::{PolicyEnv, ScenarioSpec};
use criterion::{black_box, criterion_group, criterion_main, fmt_ns, Criterion};
use liquid::broker::BrokerConfig;
use liquid::cluster::{Cluster, ClusterConfig, TransportKind};
use liquid::graph::GraphConfig;
use liquid::query::{Query, QueryKind};
use liquid::shard::ShardConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Counts allocation events (alloc + realloc) across every thread — the
/// broker engines, shard engines, and transport threads all work on behalf
/// of the measured queries, so their allocations are part of the data path.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

fn datapath_spec() -> ScenarioSpec {
    let path = scenario_path("liquid_datapath.scn");
    ScenarioSpec::load(&path).unwrap_or_else(|e| panic!("cannot load {}: {e}", path.display()))
}

fn cluster_config(spec: &ScenarioSpec, transport: TransportKind) -> ClusterConfig {
    ClusterConfig {
        n_shards: spec.liquid().unwrap_or_else(|e| panic!("{e}")).shards as usize,
        n_brokers: 1,
        // A smaller graph than the study default keeps smoke runs quick
        // while the BFS- and network-heavy mix still dominates the fan-out.
        graph: GraphConfig {
            vertices: 20_000,
            edges_per_vertex: 8,
            seed: 0x11D,
        },
        shard: ShardConfig {
            engines: 2,
            ..ShardConfig::default()
        },
        broker: BrokerConfig {
            engines: 2,
            ..BrokerConfig::default()
        },
        transport,
        tcp_connections: 2,
        // Pin the shard tier's AcceptFraction out of reach, mirroring
        // `policy = always` on the broker: this bench measures transport
        // cost of serviced queries, and on an oversubscribed host the
        // inflated processing times would otherwise trip probabilistic
        // sheds that perturb the measured path.
        shard_max_utilization: 1e9,
        ..ClusterConfig::default()
    }
}

/// Queries drawn from the published mix — the same distribution the
/// overload points (1.25×–2.08× capacity) replay, so per-query cost is
/// weighted exactly like the §5.4 study traffic.
fn mix_queries(seed: u64, vertices: u32, count: usize) -> Vec<Query> {
    let mix = liquid_mix();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let class = mix.sample_class(&mut rng);
            let kind = QueryKind::from_index(class.ty.index() - 1).expect("kind");
            Query::random(kind, vertices, &mut rng)
        })
        .collect()
}

/// Allocation events per query over `passes` sequential sweeps of the mix,
/// after warm-up sweeps so pools and hash sets reach steady state. Scratch
/// capacities (payload pools, visited sets, reply buffers) approach their
/// high-water marks asymptotically, and the rings transport rotates
/// through `RING_CAP` per-slot staging buffers — a pass whose message
/// count is not a multiple of the ring capacity starts each sweep at a
/// different slot alignment, so one clean sweep does not prove every
/// slot has met its worst-case batch. Warm-up therefore repeats until 8
/// consecutive sweeps (one full rotation period) allocate nothing, or 48
/// sweeps, whichever comes first (the queue-based paths allocate on
/// every query and would never converge).
fn allocs_per_query(cluster: &Cluster, queries: &[Query], passes: usize) -> (f64, u64) {
    // Resolved once up front: `env::var` allocates its result, which would
    // otherwise pollute the very windows this function measures.
    let debug = std::env::var("ALLOC_DEBUG").is_ok();
    let mut clean = 0u32;
    for pass in 0..48 {
        let before = ALLOC_EVENTS.load(Ordering::SeqCst);
        for &q in queries {
            black_box(cluster.execute(q));
        }
        let grew = ALLOC_EVENTS.load(Ordering::SeqCst) - before;
        if debug {
            println!("warmup pass {pass}: {grew} allocs");
        }
        if grew == 0 {
            clean += 1;
            if clean >= 8 {
                break;
            }
        } else {
            clean = 0;
        }
    }
    let before = ALLOC_EVENTS.load(Ordering::SeqCst);
    let mut executed = 0u64;
    for _ in 0..passes {
        for &q in queries {
            black_box(cluster.execute(q));
            executed += 1;
        }
    }
    let after = ALLOC_EVENTS.load(Ordering::SeqCst);
    ((after - before) as f64 / executed as f64, executed)
}

/// Prints an allocation-count row in criterion's line format so the
/// check.sh awk block ingests it alongside the timing rows. The value is
/// a count; fmt_ns's unit scaling is undone by the parser's ns
/// normalization, so the JSON number equals the raw count.
fn report_allocs(id: &str, per_query: f64, iters: u64) {
    println!(
        "{id:<44} time: [{} {} {}]  ({} iters)",
        fmt_ns(per_query),
        fmt_ns(per_query),
        fmt_ns(per_query),
        iters
    );
}

fn bench_datapath(c: &mut Criterion) {
    let smoke = std::env::var("CRITERION_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .is_some_and(|ms| ms <= 100);
    let n_queries = if smoke { 48 } else { 192 };
    let alloc_passes = if smoke { 2 } else { 5 };
    let spec = datapath_spec();
    println!("scenario: {}", spec.tag());
    let broker_policy = spec.first_policy().unwrap_or_else(|e| panic!("{e}")).clone();

    let sweep: Vec<String> = spec
        .sparam("transport")
        .unwrap_or_else(|e| panic!("{e}"))
        .to_vec();
    for name in &sweep {
        let (transport, key) = match name.as_str() {
            "channels" => (TransportKind::InProc, "inproc/batched"),
            "rings" => (TransportKind::Rings, "inproc/rings"),
            "tcp" => (TransportKind::Tcp, "tcp/batched"),
            other => panic!("unknown transport `{other}` in param.transport"),
        };
        let policy = broker_policy.clone();
        let seed = spec.seed;
        let cluster = Cluster::spawn(&cluster_config(&spec, transport), move |reg, engines| {
            let env = PolicyEnv {
                registry: reg,
                slos: liquid_slos(reg),
                parallelism: engines,
            };
            policy.build(&env, seed)
        });
        let queries = mix_queries(spec.seed, cluster.vertices(), n_queries);

        let mut i = 0usize;
        c.bench_function(&format!("liquid_datapath/{key}"), |b| {
            b.iter(|| {
                let q = queries[i % queries.len()];
                i += 1;
                black_box(cluster.execute(q))
            })
        });

        let (per_query, executed) = allocs_per_query(&cluster, &queries, alloc_passes);
        report_allocs(&format!("liquid_datapath/{key}_allocs"), per_query, executed);
        cluster.shutdown();
    }
}

criterion_group!(benches, bench_datapath);
criterion_main!(benches);
