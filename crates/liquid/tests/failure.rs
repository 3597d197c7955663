//! Failure injection: the cluster's behavior when pieces go away.
//!
//! The paper motivates admission control partly with "unplanned reduction
//! in the system's capacity … from network outages, node failures" (§1);
//! these tests check that our substrate degrades the way a production
//! system must — failed sub-queries become failed queries, not hangs or
//! panics, and the surviving hosts keep serving.

use std::sync::Arc;
use std::time::Duration;

use bouncer_core::obs::TraceContext;
use bouncer_core::policy::AlwaysAccept;
use bouncer_metrics::MonotonicClock;
use crossbeam::channel::Receiver;
use liquid::broker::{Broker, BrokerConfig, ClientOutcome, RouteStrategy};
use liquid::graph::{Graph, GraphConfig};
use liquid::query::{Query, QueryKind, SubQuery};
use liquid::shard::{ShardConfig, ShardHost, SubOutcome};
use liquid::transport::{
    CancelHandle, InProcShardClient, ShardClient, TcpShardClient, TcpShardServer,
};

fn graph() -> Graph {
    Graph::generate(&GraphConfig {
        vertices: 5_000,
        edges_per_vertex: 5,
        seed: 13,
    })
}

fn spawn_shards(g: &Graph, n: usize) -> Vec<Arc<ShardHost>> {
    let clock: Arc<MonotonicClock> = Arc::new(MonotonicClock::new());
    (0..n)
        .map(|s| {
            ShardHost::spawn(
                Arc::new(g.shard_slice(s, n)),
                Arc::new(AlwaysAccept::new()),
                clock.clone(),
                ShardConfig::default(),
            )
        })
        .collect()
}

/// A dead shard (closed gate) fails queries that need it, while queries
/// answerable by the surviving shard still succeed.
#[test]
fn queries_survive_a_shard_outage_partially() {
    let g = graph();
    let shards = spawn_shards(&g, 2);
    let clients: Vec<Arc<dyn ShardClient>> = shards
        .iter()
        .map(|h| Arc::new(InProcShardClient::new(Arc::clone(h))) as Arc<dyn ShardClient>)
        .collect();
    let broker = Broker::spawn(
        clients,
        Arc::new(AlwaysAccept::new()),
        Arc::new(MonotonicClock::new()),
        BrokerConfig {
            subquery_timeout: Duration::from_millis(500),
            ..BrokerConfig::default()
        },
    );

    // Kill shard 1 (odd vertices).
    Arc::clone(&shards[1]).shutdown();

    // Degree of an even vertex: shard 0 answers.
    let ok = broker.execute(Query {
        kind: QueryKind::Qt1Degree,
        u: 4,
        v: 0,
    });
    assert!(matches!(ok, ClientOutcome::Ok(_)), "{ok:?}");

    // Degree of an odd vertex: the dead shard can't answer. Its closed
    // gate refuses the sub-query, which surfaces to the client as a
    // shard-side rejection — the same fail-fast signal as load shedding,
    // and the right trigger for client failover either way. No hang.
    let dead = broker.execute(Query {
        kind: QueryKind::Qt1Degree,
        u: 5,
        v: 0,
    });
    assert!(
        matches!(dead, ClientOutcome::ShardRejected | ClientOutcome::Failed),
        "{dead:?}"
    );

    broker.shutdown();
    Arc::clone(&shards[0]).shutdown();
}

/// Submissions to a closed shard host fail fast as rejections, not hangs.
#[test]
fn closed_shard_rejects_submissions_immediately() {
    let g = graph();
    let shards = spawn_shards(&g, 1);
    let host = Arc::clone(&shards[0]);
    Arc::clone(&host).shutdown();
    let rx = host.submit_batch(vec![SubQuery::Degree(0)], None);
    // The gate is closed: the push fails and a rejection is delivered.
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(1)).unwrap(),
        vec![SubOutcome::Rejected]
    );
}

/// Dropping a TCP shard server mid-conversation fails in-flight and future
/// requests with errors instead of deadlocking the broker-side client.
#[test]
fn tcp_disconnect_fails_pending_requests() {
    let g = graph();
    let shards = spawn_shards(&g, 1);
    let server = TcpShardServer::serve(Arc::clone(&shards[0]), "127.0.0.1:0").unwrap();
    let client = TcpShardClient::connect(server.addr(), 1).unwrap();

    // Healthy round trip first.
    let rx = client.submit_batch(vec![SubQuery::Degree(2)], None);
    assert!(matches!(
        rx.recv_timeout(Duration::from_secs(2)).unwrap()[..],
        [SubOutcome::Ok(_)]
    ));

    // Take the backend down: stop accepting AND close the shard host so the
    // per-connection handlers drain and sockets die.
    server.stop();
    Arc::clone(&shards[0]).shutdown();

    // New submissions either error on write or get failed by the reader
    // thread's drain path; either way the channel resolves quickly.
    let rx = client.submit_batch(vec![SubQuery::Degree(4)], None);
    match rx.recv_timeout(Duration::from_secs(5)).as_deref() {
        Ok([SubOutcome::Error]) | Ok([SubOutcome::Rejected]) => {}
        Ok(other) => panic!("unexpected outcome after disconnect: {other:?}"),
        Err(_) => panic!("request hung after server shutdown"),
    }
}

/// A client wrapper that delays every batch reply by `delay`, turning the
/// wrapped replica into a straggler. The submission still reaches the real
/// host immediately (the queue and cancel bookkeeping stay honest); only
/// the broker-visible reply is late.
struct StragglerClient {
    inner: Arc<dyn ShardClient>,
    delay: Duration,
}

impl ShardClient for StragglerClient {
    fn submit_batch(
        &self,
        subs: Vec<SubQuery>,
        ctx: Option<TraceContext>,
    ) -> Receiver<Vec<SubOutcome>> {
        self.submit_batch_cancellable(subs, ctx).0
    }

    fn submit_batch_cancellable(
        &self,
        subs: Vec<SubQuery>,
        ctx: Option<TraceContext>,
    ) -> (Receiver<Vec<SubOutcome>>, CancelHandle) {
        let (inner_rx, handle) = self.inner.submit_batch_cancellable(subs, ctx);
        let (tx, rx) = crossbeam::channel::bounded(1);
        let delay = self.delay;
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            if let Ok(outcomes) = inner_rx.recv() {
                let _ = tx.send(outcomes);
            }
        });
        (rx, handle)
    }
}

/// Hedged fan-out masks a straggling replica: with every primary reply
/// held back far beyond the hedge delay, queries complete through the
/// second replica well inside the sub-query timeout, and the broker both
/// fires and resolves hedges (cancelling the losers).
#[test]
fn hedged_fanout_masks_a_straggling_replica() {
    let g = graph();
    let n_shards = 2;
    let replicas = 2;
    let clock: Arc<MonotonicClock> = Arc::new(MonotonicClock::new());
    let slices: Vec<_> = (0..n_shards)
        .map(|s| Arc::new(g.shard_slice(s, n_shards)))
        .collect();
    // Physical hosts, replica-major: both replicas of a shard share the
    // same Arc'd partition.
    let hosts: Vec<Arc<ShardHost>> = (0..n_shards * replicas)
        .map(|p| {
            ShardHost::spawn(
                Arc::clone(&slices[p / replicas]),
                Arc::new(AlwaysAccept::new()),
                clock.clone(),
                ShardConfig::default(),
            )
        })
        .collect();
    // The primary of shard `s` is replica `s % R`; wrap exactly that one
    // in a straggler so every hedged round must win through the other.
    let groups: Vec<Vec<Arc<dyn ShardClient>>> = (0..n_shards)
        .map(|s| {
            (0..replicas)
                .map(|r| {
                    let inner: Arc<dyn ShardClient> =
                        Arc::new(InProcShardClient::new(Arc::clone(&hosts[s * replicas + r])));
                    if r == s % replicas {
                        Arc::new(StragglerClient {
                            inner,
                            delay: Duration::from_millis(80),
                        }) as Arc<dyn ShardClient>
                    } else {
                        inner
                    }
                })
                .collect()
        })
        .collect();
    let broker = Broker::spawn_replicated(
        groups,
        RouteStrategy::Hedged,
        Arc::new(AlwaysAccept::new()),
        Arc::new(MonotonicClock::new()),
        BrokerConfig {
            subquery_timeout: Duration::from_secs(2),
            ..BrokerConfig::default()
        },
    );

    for u in 0..20 {
        let got = broker.execute(Query {
            kind: QueryKind::Qt1Degree,
            u,
            v: 0,
        });
        assert!(matches!(got, ClientOutcome::Ok(_)), "u={u}: {got:?}");
    }
    let hc = broker.hedge_counters();
    assert!(hc.hedges >= 20, "expected a hedge per query, got {hc:?}");
    assert!(hc.cancels >= 20, "every hedge resolves by cancelling: {hc:?}");

    broker.shutdown();
    for h in hosts {
        h.shutdown();
    }
}

/// A broker closed while clients wait resolves their channels (drop side)
/// rather than leaving them blocked forever.
#[test]
fn broker_shutdown_resolves_waiting_clients() {
    let g = graph();
    let shards = spawn_shards(&g, 1);
    let clients: Vec<Arc<dyn ShardClient>> = shards
        .iter()
        .map(|h| Arc::new(InProcShardClient::new(Arc::clone(h))) as Arc<dyn ShardClient>)
        .collect();
    let broker = Broker::spawn(
        clients,
        Arc::new(AlwaysAccept::new()),
        Arc::new(MonotonicClock::new()),
        BrokerConfig::default(),
    );
    let rx = broker.submit(Query {
        kind: QueryKind::Qt1Degree,
        u: 2,
        v: 0,
    });
    // The submitted query may complete or the channel may drop on close —
    // but it must resolve within the timeout.
    broker.shutdown();
    match rx.recv_timeout(Duration::from_secs(2)) {
        Ok(_) => {}
        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {}
        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
            panic!("client left hanging across broker shutdown")
        }
    }
    Arc::clone(&shards[0]).shutdown();
}
