//! Cluster orchestration: spawn shards and brokers, wire transports, probe
//! capacity.
//!
//! Mirrors the paper's §5.4 deployment: every broker is configured with the
//! same (pluggable) admission policy, while "the shards always run
//! AcceptFraction" guarding CPU, their limiting resource.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bouncer_core::control::{ControlTap, Controller};
use bouncer_core::obs::recorder::DEFAULT_RING_CAPACITY;
use bouncer_core::obs::{
    Event, EventSink, HealthConfig, HealthSampler, Recorder, RecorderSink, Tracer,
};
use bouncer_core::policy::{AcceptFraction, AcceptFractionConfig, AdmissionPolicy};
use bouncer_core::spec::ControllerSpec;
use bouncer_core::types::TypeRegistry;
use bouncer_metrics::{Clock, MonotonicClock, Nanos};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::broker::{liquid_registry, Broker, BrokerConfig, ClientOutcome, RouteStrategy};
use crate::graph::{Graph, GraphConfig, GraphStats};
use crate::query::Query;
use crate::shard::{ShardConfig, ShardHost};
use crate::transport::{InProcShardClient, ShardClient, TcpShardClient, TcpShardServer};
use crate::wire::BufferPool;

/// How brokers reach shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Direct in-process calls (default for experiments).
    InProc,
    /// Real TCP over loopback with framed multiplexing.
    Tcp,
    /// Thread-per-core in-process data path: clients reach broker engines
    /// over submission lanes and each broker engine owns a private SPSC
    /// ring pair to every shard, so a query's steady-state round trip
    /// acquires no shared lock and allocates nothing (see
    /// `docs/adr/001-performance-targets.md`). Queries must be submitted
    /// through [`Cluster::execute`] / [`Cluster::execute_on`]; the
    /// channel-style `submit_tagged` path does not exist in this mode.
    Rings,
}

/// Closed-loop retuning of the broker tier (ADAPTIVE.md): one controller
/// observes the merged broker event stream and stages its law's parameter
/// into every broker policy; each broker installs the value at its own
/// tick boundary.
#[derive(Debug, Clone)]
pub struct ClusterController {
    /// The control law and its gains (the scenario `controller =` line).
    pub spec: ControllerSpec,
    /// Initial parameter value the loop starts from (normally the value
    /// the broker policies were built with).
    pub initial: f64,
    /// Per-type SLO tail targets scoring completions for the attainment
    /// signal, indexed by `TypeId::index()`
    /// (see [`bouncer_core::control::slo_tail_targets`]). Types beyond
    /// the vector — or `None` entries — never count as misses.
    pub slo_tails: Vec<Option<Nanos>>,
}

/// Cluster parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of *logical* shards (graph partitions).
    pub n_shards: usize,
    /// Replicas per logical shard (R). Each replica is a full engine group
    /// (its own host, gate and engine threads) materializing the same
    /// partition; all R replicas share one `Arc`'d CSR build, so memory
    /// grows with partitions, not with R. Physical hosts are laid out
    /// replica-major: host `s * R + r` is replica `r` of shard `s`.
    pub replicas: usize,
    /// How brokers route each round's per-shard batch among the shard's
    /// replicas. Normalized to [`RouteStrategy::PrimaryOnly`] when
    /// `replicas == 1`.
    pub strategy: RouteStrategy,
    /// Number of broker hosts.
    pub n_brokers: usize,
    /// Synthetic graph parameters.
    pub graph: GraphConfig,
    /// Per-shard host configuration.
    pub shard: ShardConfig,
    /// Per-broker host configuration.
    pub broker: BrokerConfig,
    /// Broker→shard transport.
    pub transport: TransportKind,
    /// AcceptFraction utilization threshold on shards (the paper uses 80 %).
    pub shard_max_utilization: f64,
    /// Connections per broker→shard pair for the TCP transport.
    pub tcp_connections: usize,
    /// Optional cluster-wide observability sink, installed on every broker
    /// and shard gate unless that host's own config already names one.
    pub sink: Option<Arc<dyn EventSink>>,
    /// Optional cluster-wide tracer, installed on every broker and shard
    /// unless that host's own config already names one. Every host shares
    /// the cluster clock, so span timestamps are directly comparable.
    pub tracer: Option<Arc<Tracer>>,
    /// Optional adaptive controller over the broker tier. Only broker
    /// gate events feed it (the shard tier keeps its static
    /// AcceptFraction guard), and it interposes on the broker sink, so
    /// the downstream sink still sees every event.
    pub controller: Option<ClusterController>,
    /// Optional always-on flight recorder + health sampler + incident
    /// triggers over the merged cluster event stream. The sampler chain
    /// interposes in front of [`ClusterConfig::sink`] on both tiers
    /// (broker-side it sits *under* the controller tap, so
    /// `controller_decision` events reach the recorder), and a background
    /// probe thread advances wall-clock windows, snapshots SPSC ring
    /// occupancy (rings mode) and re-emits `pool_stats` (TCP mode) every
    /// interval. Empty `type_names` are filled in from the LIquid
    /// registry; set `slo_tails` for attainment scoring.
    pub health: Option<HealthConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            n_shards: 2,
            replicas: 1,
            strategy: RouteStrategy::PrimaryOnly,
            n_brokers: 1,
            graph: GraphConfig::default(),
            shard: ShardConfig::default(),
            broker: BrokerConfig::default(),
            transport: TransportKind::InProc,
            shard_max_utilization: 0.8,
            tcp_connections: 4,
            sink: None,
            tracer: None,
            controller: None,
            health: None,
        }
    }
}

/// A running mini-LIquid cluster.
pub struct Cluster {
    registry: TypeRegistry,
    vertices: u32,
    graph_stats: GraphStats,
    clock: Arc<dyn Clock>,
    brokers: Vec<Arc<Broker>>,
    shards: Vec<Arc<ShardHost>>,
    servers: Vec<TcpShardServer>,
    round_robin: AtomicUsize,
    controller: Option<Arc<Controller>>,
    /// Encode-buffer pools of the TCP shard clients (empty off-TCP);
    /// snapshotted into `pool_stats` events at shutdown.
    pools: Vec<Arc<BufferPool>>,
    sink: Option<Arc<dyn EventSink>>,
    /// Health sampler + its wall-clock probe thread, when configured.
    health: Option<Arc<HealthSampler>>,
    probe: Option<HealthProbe>,
}

/// The background thread driving wall-clock health windows: every
/// interval it re-emits `pool_stats` snapshots and calls
/// [`HealthSampler::probe`] with the live lane-ring occupancy.
struct HealthProbe {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

impl Cluster {
    /// Builds the graph, spawns the shard tier (AcceptFraction policies),
    /// then the broker tier with policies from `broker_policy` (called once
    /// per broker with the type registry and the broker's engine count —
    /// Bouncer and MaxQWT need the parallelism `P`).
    pub fn spawn(
        cfg: &ClusterConfig,
        broker_policy: impl Fn(&TypeRegistry, u32) -> Arc<dyn AdmissionPolicy>,
    ) -> Self {
        assert!(cfg.n_shards > 0 && cfg.n_brokers > 0);
        assert!(cfg.replicas > 0, "a shard needs at least one replica");
        let registry = liquid_registry();
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let graph = Graph::generate(&cfg.graph);
        let vertices = graph.vertex_count();
        let graph_stats = graph.stats();
        // One CSR build per logical partition, shared by that shard's R
        // replica hosts — replication multiplies engines, not storage.
        let slices: Vec<Arc<crate::graph::ShardData>> = (0..cfg.n_shards)
            .map(|s| Arc::new(graph.shard_slice(s, cfg.n_shards)))
            .collect();

        let mut shard_cfg = cfg.shard.clone();
        if shard_cfg.tracer.is_none() {
            shard_cfg.tracer = cfg.tracer.clone();
        }
        let mut broker_cfg = cfg.broker.clone();
        if broker_cfg.tracer.is_none() {
            broker_cfg.tracer = cfg.tracer.clone();
        }
        // Health chain: sampler → recorder → user sink, shared by both
        // tiers so the sampler folds the merged stream. It must sit
        // *under* the controller tap (wired next) so decision events flow
        // down into the recorder and the backoff trigger.
        let health = cfg.health.clone().map(|mut health| {
            if health.type_names.is_empty() {
                health.type_names = (0..registry.len())
                    .map(|i| {
                        registry
                            .name(bouncer_core::types::TypeId::from_index(i as u32))
                            .to_string()
                    })
                    .collect();
            }
            let recorder = Recorder::new(DEFAULT_RING_CAPACITY);
            let rec_sink: Arc<dyn EventSink> =
                Arc::new(RecorderSink::new(Arc::clone(&recorder), cfg.sink.clone()));
            HealthSampler::new(health, recorder, rec_sink)
        });
        // Hosts without their own sink get the cluster-wide one — behind
        // the sampler when health is on.
        let cluster_sink: Option<Arc<dyn EventSink>> = match &health {
            Some(sampler) => Some(sampler.clone()),
            None => cfg.sink.clone(),
        };
        if shard_cfg.sink.is_none() {
            shard_cfg.sink = cluster_sink.clone();
        }
        if broker_cfg.sink.is_none() {
            broker_cfg.sink = cluster_sink;
        }
        // The Observe tap interposes on the (shared) broker sink: every
        // broker gate event folds into the controller's telemetry and is
        // forwarded downstream untouched.
        let controller = cfg.controller.as_ref().map(|cc| {
            let controller = Arc::new(Controller::new(cc.spec.clone(), cc.initial));
            let tap = Arc::new(ControlTap::new(
                Arc::clone(&controller),
                cc.slo_tails.clone(),
                broker_cfg.sink.take(),
            ));
            controller.attach_sink(tap.clone());
            broker_cfg.sink = Some(tap);
            controller
        });

        // Rings mode wires the whole topology (per-engine ring pairs and
        // client lanes) up front, before any host thread starts.
        let mut broker_rigs = Vec::new();
        let shard_policy = || {
            Arc::new(AcceptFraction::new(AcceptFractionConfig::new(
                cfg.shard_max_utilization,
                cfg.shard.engines,
            )))
        };
        // The physical shard tier: `n_shards * replicas` hosts in
        // replica-major order, host `s * R + r` cloning shard `s`'s Arc'd
        // slice. At R=1 this is exactly the old flat tier.
        let shards: Vec<Arc<ShardHost>> = if cfg.transport == TransportKind::Rings {
            let (brigs, srigs) = crate::rings::build_topology(
                cfg.n_brokers,
                cfg.broker.engines as usize,
                cfg.n_shards,
                cfg.shard.engines as usize,
                cfg.replicas,
            );
            broker_rigs = brigs;
            srigs
                .into_iter()
                .enumerate()
                .map(|(p, rig)| {
                    ShardHost::spawn_rings(
                        Arc::clone(&slices[p / cfg.replicas]),
                        shard_policy(),
                        clock.clone(),
                        shard_cfg.clone(),
                        rig,
                    )
                })
                .collect()
        } else {
            (0..cfg.n_shards * cfg.replicas)
                .map(|p| {
                    ShardHost::spawn(
                        Arc::clone(&slices[p / cfg.replicas]),
                        shard_policy(),
                        clock.clone(),
                        shard_cfg.clone(),
                    )
                })
                .collect()
        };

        let mut servers = Vec::new();
        let mut pools: Vec<Arc<BufferPool>> = Vec::new();
        // One client per *physical* host, regrouped into per-logical-shard
        // replica groups for the broker's routing layer.
        let make_client_groups = |servers: &mut Vec<TcpShardServer>,
                                  pools: &mut Vec<Arc<BufferPool>>|
         -> Vec<Vec<Arc<dyn ShardClient>>> {
            let physical: Vec<Arc<dyn ShardClient>> = match cfg.transport {
                TransportKind::InProc => shards
                    .iter()
                    .map(|h| {
                        Arc::new(InProcShardClient::new(Arc::clone(h))) as Arc<dyn ShardClient>
                    })
                    .collect(),
                TransportKind::Tcp => {
                    if servers.is_empty() {
                        for h in &shards {
                            servers.push(
                                TcpShardServer::serve(Arc::clone(h), "127.0.0.1:0")
                                    .expect("failed to serve shard"),
                            );
                        }
                    }
                    servers
                        .iter()
                        .map(|s| {
                            let client = Arc::new(
                                TcpShardClient::connect(s.addr(), cfg.tcp_connections)
                                    .expect("failed to connect shard"),
                            );
                            pools.push(Arc::clone(client.pool()));
                            client as Arc<dyn ShardClient>
                        })
                        .collect()
                }
                TransportKind::Rings => unreachable!("rings mode does not use shard clients"),
            };
            physical
                .chunks(cfg.replicas)
                .map(|group| group.to_vec())
                .collect()
        };

        let mut broker_rigs = broker_rigs.into_iter();
        let brokers: Vec<Arc<Broker>> = (0..cfg.n_brokers)
            .map(|_| {
                let policy = broker_policy(&registry, cfg.broker.engines);
                if let Some(c) = &controller {
                    c.attach_policy(Arc::clone(&policy));
                }
                if cfg.transport == TransportKind::Rings {
                    Broker::spawn_rings(
                        shards.clone(),
                        cfg.replicas,
                        cfg.strategy,
                        policy,
                        clock.clone(),
                        broker_cfg.clone(),
                        broker_rigs.next().expect("one rig per broker"),
                    )
                } else {
                    Broker::spawn_replicated(
                        make_client_groups(&mut servers, &mut pools),
                        cfg.strategy,
                        policy,
                        clock.clone(),
                        broker_cfg.clone(),
                    )
                }
            })
            .collect();

        let sink = broker_cfg.sink.clone();
        // One-shot storage summary: what the cluster just loaded and what
        // it costs, on the same stream as the query lifecycle events.
        if let Some(sink) = &sink {
            if sink.enabled() {
                sink.emit(&Event::GraphStats {
                    at: clock.now(),
                    vertices: graph_stats.vertices,
                    edges: graph_stats.edges,
                    heap_bytes: graph_stats.heap_bytes,
                    bytes_per_edge: graph_stats.bytes_per_edge,
                });
            }
        }
        // The wall-clock probe: wakes every sampler interval, re-emits
        // the transport pool counters as `pool_stats` and hands the
        // sampler the live lane-ring occupancy. Under load the event
        // stream closes windows by itself; on an idle cluster this
        // heartbeat is what keeps samples flowing.
        let probe = health.as_ref().map(|sampler| {
            let sampler = Arc::clone(sampler);
            let interval = Duration::from_nanos(sampler.interval().max(1));
            let clock = Arc::clone(&clock);
            let brokers: Vec<Arc<Broker>> = brokers.clone();
            let pools = pools.clone();
            let rings = cfg.transport == TransportKind::Rings;
            let stop = Arc::new(AtomicBool::new(false));
            let stop_flag = Arc::clone(&stop);
            let handle = std::thread::Builder::new()
                .name("health-probe".into())
                .spawn(move || {
                    let tick = Duration::from_millis(5).min(interval);
                    let mut elapsed = Duration::ZERO;
                    while !stop_flag.load(Ordering::Acquire) {
                        std::thread::sleep(tick);
                        elapsed += tick;
                        if elapsed < interval {
                            continue;
                        }
                        elapsed = Duration::ZERO;
                        let now = clock.now();
                        for pool in &pools {
                            pool.emit_stats("shard_client", sampler.as_ref(), now);
                        }
                        let occupancy = rings.then(|| {
                            brokers.iter().filter_map(|b| b.ring_occupancy()).sum()
                        });
                        sampler.probe(clock.now(), occupancy);
                    }
                })
                .expect("failed to spawn health probe");
            HealthProbe { stop, handle }
        });
        Self {
            registry,
            vertices,
            graph_stats,
            clock,
            brokers,
            shards,
            servers,
            round_robin: AtomicUsize::new(0),
            controller,
            pools,
            sink,
            health,
            probe,
        }
    }

    /// Aggregated hit/miss/occupancy counters over every transport
    /// encode-buffer pool in the cluster (all zeros off-TCP). Feed this to
    /// [`bouncer_core::obs::render_prometheus_full`] for the
    /// `bouncer_buffer_pool_*` metric family.
    pub fn pool_counters(&self) -> bouncer_core::obs::PoolCounters {
        let mut agg = bouncer_core::obs::PoolCounters::default();
        for pool in &self.pools {
            let c = pool.counters();
            agg.hits += c.hits;
            agg.misses += c.misses;
            agg.pooled += c.pooled;
        }
        agg
    }

    /// The adaptive controller over the broker tier, when one was
    /// configured ([`ClusterConfig::controller`]).
    pub fn controller(&self) -> Option<&Arc<Controller>> {
        self.controller.as_ref()
    }

    /// The health sampler (and, through it, the flight recorder), when
    /// one was configured ([`ClusterConfig::health`]).
    pub fn health(&self) -> Option<&Arc<HealthSampler>> {
        self.health.as_ref()
    }

    /// The clock every host in this cluster stamps events and spans with.
    /// Traced clients ([`crate::front::TcpBrokerClient::connect_traced`])
    /// must share it for their span timestamps to be comparable.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The cluster's query-type registry (`default` + QT1..QT11).
    pub fn registry(&self) -> &TypeRegistry {
        &self.registry
    }

    /// Vertices in the stored graph.
    pub fn vertices(&self) -> u32 {
        self.vertices
    }

    /// Storage summary of the graph this cluster serves (also emitted as
    /// a `graph_stats` event at spawn when a sink is configured).
    pub fn graph_stats(&self) -> GraphStats {
        self.graph_stats
    }

    /// Executes a query on the next broker, round-robin — standing in for
    /// the load balancer spreading traffic "evenly divided among the
    /// brokers" (§5.4).
    pub fn execute(&self, q: Query) -> ClientOutcome {
        let idx = self.round_robin.fetch_add(1, Ordering::Relaxed) % self.brokers.len();
        self.brokers[idx].execute(q)
    }

    /// Executes a query on a specific broker.
    pub fn execute_on(&self, broker: usize, q: Query) -> ClientOutcome {
        self.brokers[broker].execute(q)
    }

    /// Offers a query on the next broker (round-robin) with the outcome
    /// delivered as `(token, outcome)` on `tx` — the open-loop submission
    /// path (see [`Broker::submit_tagged`]).
    ///
    /// # Panics
    /// In [`TransportKind::Rings`] mode, which has no channel-style
    /// submission path — use [`Cluster::execute`].
    pub fn submit_tagged(
        &self,
        q: Query,
        tx: crossbeam::channel::Sender<(u64, ClientOutcome)>,
        token: u64,
    ) {
        let idx = self.round_robin.fetch_add(1, Ordering::Relaxed) % self.brokers.len();
        self.brokers[idx].submit_tagged(q, tx, token);
    }

    /// The broker hosts.
    pub fn brokers(&self) -> &[Arc<Broker>] {
        &self.brokers
    }

    /// The *physical* shard hosts, replica-major (`[s * R + r]`; with
    /// `replicas == 1` this is one host per logical shard, as before).
    pub fn shards(&self) -> &[Arc<ShardHost>] {
        &self.shards
    }

    /// Cluster-wide hedge telemetry, summed over the brokers (all zeros
    /// under non-hedged strategies). Feed to
    /// [`bouncer_core::obs::render_prometheus_full`] for the
    /// `bouncer_hedges_total` / `bouncer_hedge_cancels_total` counters.
    pub fn hedge_counters(&self) -> bouncer_core::obs::HedgeCounters {
        let mut agg = bouncer_core::obs::HedgeCounters::default();
        for b in &self.brokers {
            let c = b.hedge_counters();
            agg.hedges += c.hedges;
            agg.cancels += c.cancels;
        }
        agg
    }

    /// Resets statistics on every host (e.g. after warm-up).
    pub fn reset_stats(&self) {
        for b in &self.brokers {
            b.stats().reset(0);
        }
        for s in &self.shards {
            s.stats().reset(0);
        }
    }

    /// Measures the cluster's saturation throughput: `workers` closed-loop
    /// clients hammer random queries (drawn by `sample`) for `duration`,
    /// and the completion rate is the capacity estimate — the empirical
    /// stand-in for the paper's absolute rate axis (its 36K–180K QPS are
    /// normalized to this in our experiments; see DESIGN.md §1).
    pub fn probe_capacity<F>(&self, duration: Duration, workers: usize, sample: F) -> f64
    where
        F: Fn(&mut SmallRng) -> Query + Sync,
    {
        let completed = AtomicU64::new(0);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let completed = &completed;
                let sample = &sample;
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0xCAFE + w as u64);
                    while start.elapsed() < duration {
                        let q = sample(&mut rng);
                        if matches!(self.execute(q), ClientOutcome::Ok(_)) {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        completed.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
    }

    /// Stops every host and TCP server, then snapshots each transport
    /// buffer pool into a final `pool_stats` event.
    pub fn shutdown(self) {
        if let Some(probe) = self.probe {
            probe.stop.store(true, Ordering::Release);
            let _ = probe.handle.join();
        }
        for server in &self.servers {
            server.stop();
        }
        for b in self.brokers {
            b.shutdown();
        }
        for s in self.shards {
            s.shutdown();
        }
        if let Some(sink) = &self.sink {
            if sink.enabled() {
                let now = self.clock.now();
                for pool in &self.pools {
                    pool.emit_stats("shard_client", sink.as_ref(), now);
                }
                sink.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryKind;
    use bouncer_core::policy::AlwaysAccept;

    fn tiny_config() -> ClusterConfig {
        ClusterConfig {
            n_shards: 2,
            n_brokers: 2,
            graph: GraphConfig {
                vertices: 1_000,
                edges_per_vertex: 3,
                seed: 4,
            },
            shard: ShardConfig {
                engines: 2,
                ..ShardConfig::default()
            },
            broker: BrokerConfig {
                engines: 2,
                ..BrokerConfig::default()
            },
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn cluster_answers_queries_in_proc() {
        let cluster = Cluster::spawn(&tiny_config(), |_reg, _p| Arc::new(AlwaysAccept::new()));
        for u in 0..20 {
            let out = cluster.execute(Query {
                kind: QueryKind::Qt1Degree,
                u,
                v: 0,
            });
            assert!(matches!(out, ClientOutcome::Ok(_)), "{out:?}");
        }
        // Round robin touched both brokers.
        let b0 = cluster.brokers()[0].stats().snapshot(1, 1).total_received();
        let b1 = cluster.brokers()[1].stats().snapshot(1, 1).total_received();
        assert_eq!(b0 + b1, 20);
        assert!(b0 > 0 && b1 > 0);
        cluster.shutdown();
    }

    #[test]
    fn cluster_answers_queries_over_tcp() {
        let cfg = ClusterConfig {
            transport: TransportKind::Tcp,
            tcp_connections: 2,
            ..tiny_config()
        };
        let cluster = Cluster::spawn(&cfg, |_reg, _p| Arc::new(AlwaysAccept::new()));
        for u in 0..20 {
            let out = cluster.execute(Query {
                kind: QueryKind::Qt5MutualCount,
                u,
                v: u + 1,
            });
            assert!(matches!(out, ClientOutcome::Ok(_)), "{out:?}");
        }
        cluster.shutdown();
    }

    #[test]
    fn tcp_cluster_snapshots_buffer_pools_at_shutdown() {
        use bouncer_core::obs::{Event, MemorySink};
        let sink = Arc::new(MemorySink::new());
        let cfg = ClusterConfig {
            transport: TransportKind::Tcp,
            tcp_connections: 2,
            sink: Some(sink.clone()),
            ..tiny_config()
        };
        let cluster = Cluster::spawn(&cfg, |_reg, _p| Arc::new(AlwaysAccept::new()));
        for u in 0..20 {
            let out = cluster.execute(Query {
                kind: QueryKind::Qt1Degree,
                u,
                v: 0,
            });
            assert!(matches!(out, ClientOutcome::Ok(_)), "{out:?}");
        }
        // The live aggregate sees every encode-buffer request: the first
        // get() per pool misses, steady state hits.
        let agg = cluster.pool_counters();
        assert!(agg.hits + agg.misses >= 20, "{agg:?}");
        assert!(agg.hits > 0, "{agg:?}");
        cluster.shutdown();

        // One pool_stats snapshot per shard client (2 shards x 2 brokers),
        // consistent with the live aggregate taken before shutdown.
        let events = sink.events();
        let snaps: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, Event::PoolStats { .. }))
            .collect();
        assert_eq!(snaps.len(), 4, "events={}", events.len());
        let (mut hits, mut misses) = (0, 0);
        for e in &snaps {
            if let Event::PoolStats {
                pool,
                hits: h,
                misses: m,
                ..
            } = e
            {
                assert_eq!(*pool, "shard_client");
                hits += h;
                misses += m;
            }
        }
        assert_eq!((hits, misses), (agg.hits, agg.misses));
    }

    #[test]
    fn cluster_answers_queries_over_rings() {
        let cfg = ClusterConfig {
            transport: TransportKind::Rings,
            ..tiny_config()
        };
        let cluster = Cluster::spawn(&cfg, |_reg, _p| Arc::new(AlwaysAccept::new()));
        for kind in QueryKind::ALL {
            for u in 0..5 {
                let out = cluster.execute(Query { kind, u, v: u + 13 });
                assert!(matches!(out, ClientOutcome::Ok(_)), "{kind:?} {out:?}");
            }
        }
        // Both tiers accounted the traffic through their gates.
        let b0 = cluster.brokers()[0].stats().snapshot(1, 1).total_received();
        let b1 = cluster.brokers()[1].stats().snapshot(1, 1).total_received();
        assert_eq!(b0 + b1, (QueryKind::ALL.len() * 5) as u64);
        let shard_recv: u64 = cluster
            .shards()
            .iter()
            .map(|s| s.stats().snapshot(1, 1).total_received())
            .sum();
        assert!(shard_recv > 0, "shard gates saw no ring traffic");
        cluster.shutdown();
    }

    #[test]
    fn rings_rejects_early_when_policy_says_no() {
        use bouncer_core::policy::{Decision, RejectReason};
        use bouncer_core::types::TypeId;
        struct RejectAll;
        impl AdmissionPolicy for RejectAll {
            fn name(&self) -> &str {
                "reject-all"
            }
            fn admit(&self, _ty: TypeId, _now: Nanos) -> Decision {
                Decision::Reject(RejectReason::PredictedSloViolation)
            }
        }
        let cfg = ClusterConfig {
            transport: TransportKind::Rings,
            ..tiny_config()
        };
        let cluster = Cluster::spawn(&cfg, |_reg, _p| Arc::new(RejectAll));
        let out = cluster.execute(Query {
            kind: QueryKind::Qt1Degree,
            u: 1,
            v: 0,
        });
        assert!(matches!(out, ClientOutcome::Rejected(_)), "{out:?}");
        cluster.shutdown();
    }

    #[test]
    fn tcp_and_inproc_agree_on_results() {
        let inproc = Cluster::spawn(&tiny_config(), |_reg, _p| Arc::new(AlwaysAccept::new()));
        let tcp_cfg = ClusterConfig {
            transport: TransportKind::Tcp,
            ..tiny_config()
        };
        let tcp = Cluster::spawn(&tcp_cfg, |_reg, _p| Arc::new(AlwaysAccept::new()));
        for kind in [
            QueryKind::Qt1Degree,
            QueryKind::Qt5MutualCount,
            QueryKind::Qt7TwoHopCount,
            QueryKind::Qt10Distance3,
        ] {
            for u in [3u32, 77, 500] {
                let q = Query { kind, u, v: u + 9 };
                assert_eq!(inproc.execute(q), tcp.execute(q), "{kind:?} u={u}");
            }
        }
        inproc.shutdown();
        tcp.shutdown();
    }

    #[test]
    fn cluster_sink_observes_query_lifecycles() {
        use bouncer_core::obs::MemorySink;
        let sink = Arc::new(MemorySink::new());
        let cfg = ClusterConfig {
            sink: Some(sink.clone()),
            ..tiny_config()
        };
        let cluster = Cluster::spawn(&cfg, |_reg, _p| Arc::new(AlwaysAccept::new()));
        for u in 0..10 {
            let out = cluster.execute(Query {
                kind: QueryKind::Qt1Degree,
                u,
                v: 0,
            });
            assert!(matches!(out, ClientOutcome::Ok(_)), "{out:?}");
        }
        cluster.shutdown();

        let events = sink.events();
        let count = |n: &str| events.iter().filter(|e| e.name() == n).count();
        // Every broker query and every shard sub-query passes a gate, so at
        // least the 10 client queries show up, and nothing was shed.
        assert!(count("admitted") >= 10, "events={}", events.len());
        assert_eq!(count("admitted"), count("completed"));
        assert_eq!(count("rejected"), 0);
        // Wall-clock timestamps are non-decreasing per emitting gate; the
        // merged stream at least starts at a real (nonzero) time.
        assert!(events.iter().all(|e| e.at() > 0));
    }

    #[test]
    fn cluster_tracer_produces_rooted_span_trees() {
        use bouncer_core::obs::{Event, MemorySink, SpanKind, Tracer, TracerConfig};
        use std::collections::HashSet;
        let sink = Arc::new(MemorySink::new());
        let tracer = Arc::new(Tracer::new(sink.clone(), TracerConfig::default()));
        let cfg = ClusterConfig {
            tracer: Some(tracer.clone()),
            ..tiny_config()
        };
        let cluster = Cluster::spawn(&cfg, |_reg, _p| Arc::new(AlwaysAccept::new()));
        for u in 0..10 {
            let out = cluster.execute(Query {
                kind: QueryKind::Qt7TwoHopCount,
                u,
                v: 0,
            });
            assert!(matches!(out, ClientOutcome::Ok(_)), "{out:?}");
        }
        cluster.shutdown();
        assert_eq!(tracer.sampled_total(), 10);

        let events = sink.events();
        let spans: Vec<_> = events
            .iter()
            .filter_map(|e| match *e {
                Event::Span {
                    trace,
                    span,
                    parent,
                    kind,
                    start,
                    end,
                    ..
                } => Some((trace, span, parent, kind, start, end)),
                _ => None,
            })
            .collect();
        let roots: Vec<_> = spans.iter().filter(|s| s.2.is_none()).collect();
        assert_eq!(roots.len(), 10, "one root per traced query");
        assert!(roots.iter().all(|s| matches!(s.3, SpanKind::Query)));
        // Every parent reference resolves within the same trace: no orphans.
        for &(trace, _, parent, kind, start, end) in &spans {
            let ids: HashSet<_> = spans
                .iter()
                .filter(|s| s.0 == trace)
                .map(|s| s.1)
                .collect();
            if let Some(p) = parent {
                assert!(ids.contains(&p), "orphan {kind:?} in {trace:?}");
            }
            assert!(end >= start);
        }
        // QT7 is a two-round plan: shard spans and at least two rounds
        // should appear somewhere in the stream.
        let kind_count = |pred: fn(&SpanKind) -> bool| {
            spans.iter().filter(|s| pred(&s.3)).count()
        };
        assert!(kind_count(|k| matches!(k, SpanKind::Round(_))) >= 2);
        assert!(kind_count(|k| matches!(k, SpanKind::ShardQueue { .. })) > 0);
        assert!(kind_count(|k| matches!(k, SpanKind::ShardService { .. })) > 0);
        assert!(kind_count(|k| matches!(k, SpanKind::SubQuery { .. })) > 0);
    }

    #[test]
    fn cluster_controller_retunes_broker_policies() {
        use bouncer_core::obs::MemorySink;
        let spec = ControllerSpec::parse("aimd interval=40ms step=0.01").unwrap();
        let sink = Arc::new(MemorySink::new());
        let cfg = ClusterConfig {
            sink: Some(sink.clone()),
            controller: Some(ClusterController {
                spec,
                initial: 0.5,
                // No tail targets: every completion attains, so AIMD
                // additively raises max_utilization each interval.
                slo_tails: Vec::new(),
            }),
            ..tiny_config()
        };
        let cluster = Cluster::spawn(&cfg, |_reg, p| {
            Arc::new(AcceptFraction::new(AcceptFractionConfig::new(0.5, p)))
        });
        let controller = Arc::clone(cluster.controller().expect("controller wired"));
        let deadline = Instant::now() + Duration::from_millis(400);
        let mut u = 0u32;
        while Instant::now() < deadline {
            let _ = cluster.execute(Query {
                kind: QueryKind::Qt1Degree,
                u: u % 1_000,
                v: 0,
            });
            u += 1;
        }
        cluster.shutdown();

        let decisions = controller.decisions();
        assert!(!decisions.is_empty(), "no closed intervals in 400ms");
        assert!(
            controller.current_value() > 0.5,
            "attaining load should raise max_utilization, got {}",
            controller.current_value()
        );
        // Decisions reached the event stream through the tap, and the
        // downstream sink still saw the broker lifecycle events.
        let events = sink.events();
        let count = |n: &str| events.iter().filter(|e| e.name() == n).count();
        assert_eq!(count("controller_decision"), decisions.len());
        assert!(count("admitted") > 0);
    }

    #[test]
    fn rings_cluster_health_samples_and_dumps_incidents_under_wall_clock() {
        use bouncer_core::obs::postmortem::{analyze, parse_dump};
        use bouncer_core::obs::{Event, MemorySink};

        let dir = std::env::temp_dir().join(format!(
            "bouncer-cluster-health-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let sink = Arc::new(MemorySink::new());
        let mut health = HealthConfig {
            interval: bouncer_metrics::time::millis(20),
            dump_dir: Some(dir.clone()),
            ..HealthConfig::default()
        };
        // Deterministic CI hook: the first window close trips the dump.
        health.trigger.force_at = Some(1);
        let cfg = ClusterConfig {
            transport: TransportKind::Rings,
            sink: Some(sink.clone()),
            health: Some(health),
            ..tiny_config()
        };
        let cluster = Cluster::spawn(&cfg, |_reg, _p| Arc::new(AlwaysAccept::new()));
        let sampler = Arc::clone(cluster.health().expect("health wired"));
        for u in 0..50 {
            let out = cluster.execute(Query {
                kind: QueryKind::Qt1Degree,
                u,
                v: 0,
            });
            assert!(matches!(out, ClientOutcome::Ok(_)), "{out:?}");
        }
        // Let the probe thread close a few wall-clock windows even though
        // traffic has stopped.
        let deadline = Instant::now() + Duration::from_secs(5);
        while (sampler.samples() < 2 || sampler.incidents() < 1) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        cluster.shutdown();

        assert!(sampler.samples() >= 2, "samples={}", sampler.samples());
        assert_eq!(sampler.incidents(), 1, "forced trigger fires once");
        let counters = sampler.health_counters(0);
        assert!(
            counters.ring_occupancy.is_some(),
            "rings mode reports lane-ring occupancy"
        );

        // The downstream sink saw the sampler's own windows alongside the
        // per-query lifecycle events.
        let events = sink.events();
        assert!(events.iter().any(|e| matches!(e, Event::HealthSample { .. })));
        assert!(events.iter().any(|e| matches!(e, Event::Incident { .. })));

        // The dump reconstructs: real traffic, and the engines' park /
        // resume breadcrumbs from both tiers made it into the rings.
        let paths = sampler.incident_paths();
        assert_eq!(paths.len(), 1);
        let dump =
            parse_dump(&std::fs::read_to_string(&paths[0]).unwrap()).expect("parseable dump");
        assert_eq!(dump.header.reason, "forced");
        assert!(dump.header.records > 0);
        let analysis = analyze(&dump);
        assert!(
            analysis.engine_transitions.0 > 0,
            "engine park transitions recorded"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capacity_probe_reports_positive_throughput() {
        let cluster = Cluster::spawn(&tiny_config(), |_reg, _p| Arc::new(AlwaysAccept::new()));
        let qps = cluster.probe_capacity(Duration::from_millis(300), 4, |rng| {
            Query::random(QueryKind::Qt1Degree, 1_000, rng)
        });
        assert!(qps > 100.0, "qps={qps}");
        cluster.shutdown();
    }
}
