//! End-to-end distributed tracing over a small in-process cluster.
//!
//! Run with:
//! ```sh
//! cargo run --release --example traced_cluster -- /tmp/traces.jsonl
//! cargo run --release -p bouncer-cli -- trace-report --traces-in /tmp/traces.jsonl
//! ```
//!
//! Spawns a 2-shard / 1-broker LIquid cluster with a [`Tracer`] attached,
//! runs a few hundred fan-out queries through it, and writes every span to
//! a JSONL file (the first argument; a temp path by default). Feed the
//! file to the CLI's `trace-report` subcommand for the critical-path
//! latency breakdown; `scripts/check.sh` does exactly that, with
//! `--strict` gating on complete span trees. Each round's trees carry one
//! `subquery` span per (round, shard) batch.

use std::sync::Arc;

use bouncer_repro::core::obs::{JsonlSink, Tracer, TracerConfig};
use bouncer_repro::core::policy::AlwaysAccept;
use bouncer_repro::liquid::cluster::{Cluster, ClusterConfig, TransportKind};
use bouncer_repro::liquid::graph::GraphConfig;
use bouncer_repro::liquid::query::{Query, QueryKind};

fn main() {
    let path = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("bouncer-traced-cluster.jsonl"));
    let sink = Arc::new(JsonlSink::create(&path).expect("cannot create trace log"));
    let tracer = Arc::new(Tracer::new(sink, TracerConfig::default()));

    let cfg = ClusterConfig {
        n_shards: 2,
        n_brokers: 1,
        transport: TransportKind::InProc,
        graph: GraphConfig {
            vertices: 2_000,
            edges_per_vertex: 4,
            seed: 21,
        },
        tracer: Some(tracer.clone()),
        ..ClusterConfig::default()
    };
    let cluster = Cluster::spawn(&cfg, |_reg, _p| Arc::new(AlwaysAccept::new()));

    // A mix of single-round (QT1), two-round (QT5/QT7), and three-round
    // (QT10) plans, so the report has rounds, stragglers, and aggregation
    // segments to show.
    let kinds = [
        QueryKind::Qt1Degree,
        QueryKind::Qt5MutualCount,
        QueryKind::Qt7TwoHopCount,
        QueryKind::Qt10Distance3,
    ];
    let vertices = cluster.vertices();
    let mut ok = 0u64;
    const N: u64 = 200;
    for i in 0..N {
        let q = Query {
            kind: kinds[i as usize % kinds.len()],
            u: (i as u32 * 13) % vertices,
            v: (i as u32 * 13 + 7) % vertices,
        };
        if matches!(
            cluster.execute(q),
            bouncer_repro::liquid::broker::ClientOutcome::Ok(_)
        ) {
            ok += 1;
        }
    }
    cluster.shutdown();
    tracer.flush();

    println!(
        "ran {N} queries ({ok} ok); {} traces sampled, {} dropped",
        tracer.sampled_total(),
        tracer.dropped_total()
    );
    println!("spans written to {} (JSONL)", path.display());
    println!(
        "analyze with: cargo run --release -p bouncer-cli -- trace-report --traces-in {}",
        path.display()
    );
}
