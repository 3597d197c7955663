//! Transport and topology equivalence: every data path must be
//! observably identical for the same query stream.
//!
//! The same randomized query mix runs through clusters that differ only in
//! transport (rings, channels, tcp) or replica topology, and every
//! per-query outcome must match exactly: results for serviced queries, and
//! the admission decision itself (`Ok` / `Rejected` / `ShardRejected` /
//! ...). Queries are submitted sequentially (closed loop) so admission
//! decisions are deterministic: the shard tier is pinned to admit
//! everything, and any deviation between two paths would surface as a
//! mismatched outcome rather than racy noise.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bouncer_core::policy::{AdmissionPolicy, Decision, RejectReason};
use bouncer_core::types::TypeId;
use bouncer_metrics::Nanos;
use liquid::broker::{BrokerConfig, ClientOutcome};
use liquid::cluster::{Cluster, ClusterConfig, TransportKind};
use liquid::graph::GraphConfig;
use liquid::query::{Query, QueryKind};
use liquid::shard::ShardConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn config(transport: TransportKind) -> ClusterConfig {
    ClusterConfig {
        n_shards: 3,
        n_brokers: 1,
        graph: GraphConfig {
            vertices: 1_500,
            edges_per_vertex: 4,
            seed: 11,
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
        // The shard tier's AcceptFraction sheds probabilistically once
        // measured utilization crosses the target — which scheduler noise
        // can trigger even unloaded. Equivalence needs admission decisions
        // that depend only on the injected broker policy, so pin the
        // target out of reach.
        shard_max_utilization: 1e9,
        ..ClusterConfig::default()
    }
}

fn run_mix(cluster: &Cluster, queries: &[Query]) -> Vec<ClientOutcome> {
    queries.iter().map(|&q| cluster.execute(q)).collect()
}

/// Deterministically rejects every `n`-th query, so admission parity is
/// exercised on both the accept and the reject branch. Closed-loop
/// submission makes the call sequence (and therefore the decision
/// sequence) identical across clusters.
#[derive(Debug)]
struct RejectEveryNth {
    n: u64,
    calls: AtomicU64,
}

impl AdmissionPolicy for RejectEveryNth {
    fn name(&self) -> &str {
        "reject-every-nth"
    }
    fn admit(&self, _ty: TypeId, _now: Nanos) -> Decision {
        if self.calls.fetch_add(1, Ordering::Relaxed).is_multiple_of(self.n) {
            Decision::Reject(RejectReason::PredictedSloViolation)
        } else {
            Decision::Accept
        }
    }
}

fn random_mix_seeded(seed: u64, vertices: u32, per_kind: usize) -> Vec<Query> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut queries = Vec::new();
    for _ in 0..per_kind {
        for kind in QueryKind::ALL {
            queries.push(Query::random(kind, vertices, &mut rng));
        }
    }
    queries
}

/// The transport equivalence matrix: the thread-per-core rings data path
/// and the TCP transport must be observably identical to the channel path
/// — same results byte for byte (`ClientOutcome` derives `Eq` over the
/// full response payload) and the same admission decision per query —
/// across several fixed query-mix seeds.
#[test]
fn rings_equals_channels_across_seeds() {
    for seed in [0xA11CEu64, 0x0B0B, 0xC0FFEE] {
        let policy = |_reg: &_, _p: u32| -> Arc<dyn AdmissionPolicy> {
            Arc::new(RejectEveryNth {
                n: 5,
                calls: AtomicU64::new(0),
            })
        };
        let channels = Cluster::spawn(&config(TransportKind::InProc), policy);
        let vertices = channels.vertices();
        let queries = random_mix_seeded(seed, vertices, 4);
        let want = run_mix(&channels, &queries);
        channels.shutdown();
        // Sanity: both branches of the matrix actually ran — the policy
        // rejected some queries and the shards serviced the rest.
        let rejected = want
            .iter()
            .filter(|o| matches!(o, ClientOutcome::Rejected(_)))
            .count();
        let serviced = want
            .iter()
            .filter(|o| matches!(o, ClientOutcome::Ok(_)))
            .count();
        assert!(rejected > 0 && serviced > 0, "{rejected}/{serviced}");
        assert_eq!(rejected + serviced, queries.len());

        for transport in [TransportKind::Rings, TransportKind::Tcp] {
            let cluster = Cluster::spawn(&config(transport), policy);
            assert_eq!(cluster.vertices(), vertices);
            let got = run_mix(&cluster, &queries);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g, w,
                    "query #{i} {:?} diverged between {transport:?} and channels \
                     (seed {seed:#x})",
                    queries[i]
                );
            }
            cluster.shutdown();
        }
    }
}

/// The replica-group invariant: replication must never change what a
/// client observes. At `R = 1` the router normalizes every strategy to
/// primary-only — provably the flat data path — and at `R = 2` the
/// replicas materialize the same partition, so the per-query outcome
/// sequence (results *and* admission decisions, `ClientOutcome` derives
/// `Eq` over the full payload) must be byte-identical to the unreplicated
/// baseline under every routing strategy. Hedges may or may not fire on a
/// given round; either way the winner carries the same answer.
fn assert_replication_transparent(transport: TransportKind, seeds: &[u64]) {
    use liquid::broker::RouteStrategy;
    let policy = |_reg: &_, _p: u32| -> Arc<dyn AdmissionPolicy> {
        Arc::new(RejectEveryNth {
            n: 5,
            calls: AtomicU64::new(0),
        })
    };
    for &seed in seeds {
        let flat = Cluster::spawn(&config(transport), policy);
        let queries = random_mix_seeded(seed, flat.vertices(), 2);
        let want = run_mix(&flat, &queries);
        flat.shutdown();
        // The baseline itself must exercise both admission branches.
        assert!(want.iter().any(|o| matches!(o, ClientOutcome::Rejected(_))));
        assert!(want.iter().any(|o| matches!(o, ClientOutcome::Ok(_))));

        for (replicas, strategy) in [
            (1, RouteStrategy::LoadBalanced),
            (1, RouteStrategy::Hedged),
            (2, RouteStrategy::PrimaryOnly),
            (2, RouteStrategy::LoadBalanced),
            (2, RouteStrategy::Hedged),
        ] {
            let cfg = ClusterConfig {
                replicas,
                strategy,
                ..config(transport)
            };
            let cluster = Cluster::spawn(&cfg, policy);
            let got = run_mix(&cluster, &queries);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g, w,
                    "query #{i} {:?} diverged from the flat baseline \
                     (R={replicas}, {strategy:?}, {transport:?}, seed {seed:#x})",
                    queries[i]
                );
            }
            cluster.shutdown();
        }
    }
}

#[test]
fn replication_transparent_in_proc() {
    assert_replication_transparent(TransportKind::InProc, &[0xA11CE, 0x0B0B, 0xC0FFEE]);
}

#[test]
fn replication_transparent_over_rings() {
    assert_replication_transparent(TransportKind::Rings, &[0xA11CE, 0x0B0B, 0xC0FFEE]);
}

#[test]
fn replication_transparent_over_tcp() {
    assert_replication_transparent(TransportKind::Tcp, &[0xA11CE, 0x0B0B, 0xC0FFEE]);
}
