//! Demand conservation: a query's enqueue must be accounted (and its
//! `Enqueued` event emitted) before any engine can dequeue it, on the rings
//! and the channel data paths alike, and Bouncer's per-type `queued`
//! counter must return to exactly zero at quiescence.
//!
//! Rings producers publish into SPSC rings that the engines drain without a
//! lock. If a producer published first and accounted second, a fast engine
//! could run `dequeued_external` for a query whose `enqueued_external` had
//! not happened yet, wrapping Bouncer's unsigned `queued` and, if a demand
//! re-anchor read it then, rejecting every type for seconds.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bouncer_core::obs::{Event, EventSink};
use bouncer_core::policy::{AlwaysAccept, Bouncer, BouncerConfig};
use bouncer_core::slo::{Slo, SloConfig};
use bouncer_metrics::time::millis;
use liquid::broker::{kind_type_id, BrokerConfig};
use liquid::cluster::{Cluster, ClusterConfig, TransportKind};
use liquid::graph::GraphConfig;
use liquid::query::{Query, QueryKind};
use liquid::shard::ShardConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn config(transport: TransportKind) -> ClusterConfig {
    ClusterConfig {
        n_shards: 2,
        n_brokers: 1,
        graph: GraphConfig {
            vertices: 2_000,
            edges_per_vertex: 4,
            seed: 5,
        },
        transport,
        shard_max_utilization: 1e9,
        ..ClusterConfig::default()
    }
}

/// Tracks one gate's queue depth from its event stream. The `Enqueued`
/// emission stalls before counting, which widens the window between a
/// producer's publish and its accounting into milliseconds: if the
/// publish came first, the engine's `Dequeued` lands inside the stall and
/// the depth goes negative.
#[derive(Debug, Default)]
struct DepthProbe {
    depth: AtomicI64,
    min: AtomicI64,
}

impl EventSink for DepthProbe {
    fn emit(&self, event: &Event) {
        match event {
            Event::Enqueued { .. } => {
                std::thread::sleep(Duration::from_millis(1));
                self.depth.fetch_add(1, Ordering::SeqCst);
            }
            Event::Dequeued { .. } | Event::Expired { .. } => {
                let depth = self.depth.fetch_sub(1, Ordering::SeqCst) - 1;
                self.min.fetch_min(depth, Ordering::SeqCst);
            }
            _ => {}
        }
    }
}

/// Sends `queries` QT1 queries through a cluster whose broker and shard
/// sinks are [`DepthProbe`]s, then checks that no engine dequeued a query
/// before its `Enqueued` reached the sink.
fn assert_enqueue_seen_before_dequeue(transport: TransportKind, queries: usize) {
    let broker_probe = Arc::new(DepthProbe::default());
    let shard_probe = Arc::new(DepthProbe::default());
    let cfg = ClusterConfig {
        broker: BrokerConfig {
            sink: Some(broker_probe.clone()),
            ..BrokerConfig::default()
        },
        shard: ShardConfig {
            sink: Some(shard_probe.clone()),
            ..ShardConfig::default()
        },
        ..config(transport)
    };
    let cluster = Cluster::spawn(&cfg, |_reg, _p| Arc::new(AlwaysAccept::new()));
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..queries {
        let q = Query::random(QueryKind::Qt1Degree, cluster.vertices(), &mut rng);
        cluster.execute(q);
    }
    cluster.shutdown();
    for (tier, probe) in [("broker", &broker_probe), ("shard", &shard_probe)] {
        assert_eq!(
            probe.min.load(Ordering::SeqCst),
            0,
            "{tier}: an engine dequeued a query before its enqueue was accounted"
        );
        assert_eq!(probe.depth.load(Ordering::SeqCst), 0, "{tier}: depth at quiescence");
    }
}

#[test]
fn rings_account_enqueue_before_the_engine_can_dequeue() {
    assert_enqueue_seen_before_dequeue(TransportKind::Rings, 50);
}

/// The channel hosts' `Gate::offer` must emit `Admitted`/`Enqueued` under
/// the queue lock, before an engine's `take` can pop the query and emit
/// its `Dequeued`.
#[test]
fn channel_gates_emit_enqueue_before_the_engine_can_dequeue() {
    assert_enqueue_seen_before_dequeue(TransportKind::InProc, 200);
}

/// 100 k cheap queries from 8 closed-loop clients through a live Bouncer on
/// rings. Debug builds check every `queued` decrement; at quiescence every
/// per-type count must be back to exactly zero.
#[test]
fn bouncer_queued_returns_to_zero_under_concurrent_rings_clients() {
    const CLIENTS: u64 = 8;
    const PER_CLIENT: usize = 12_500;
    let bouncer: Arc<Mutex<Option<Arc<Bouncer>>>> = Arc::default();
    let slot = Arc::clone(&bouncer);
    let cluster = Cluster::spawn(&config(TransportKind::Rings), move |registry, engines| {
        let slos = SloConfig::uniform(registry, Slo::p50_p90(millis(18), millis(50)));
        let policy = Arc::new(Bouncer::new(slos, BouncerConfig::with_parallelism(engines)));
        *slot.lock().unwrap() = Some(Arc::clone(&policy));
        policy
    });
    let vertices = cluster.vertices();
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let cluster = &cluster;
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(c);
                let kinds = &QueryKind::ALL[..3];
                for i in 0..PER_CLIENT {
                    cluster.execute(Query::random(kinds[i % kinds.len()], vertices, &mut rng));
                }
            });
        }
    });
    let bouncer = bouncer.lock().unwrap().take().expect("policy built");
    for kind in QueryKind::ALL {
        assert_eq!(bouncer.queued_count(kind_type_id(kind)), 0, "{kind:?} queued at quiescence");
    }
    cluster.shutdown();
}
