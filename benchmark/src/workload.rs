//! The four workloads, the cluster each one runs against, and the
//! correctness gate every run passes before it measures anything.
//!
//! The cluster shape is fixed (default `ClusterConfig`: 1 broker × 4
//! engines, 2 shards × 2 engines, R = 1) and brokers always run
//! Bouncer + acceptance-allowance 0.05 with SLO {p50 18 ms, p90 50 ms}, the
//! paper's §5.4 setup. A workload chooses only the traffic, the way it
//! enters, and the graph size; the program never sees a workload name.

use std::sync::Arc;

use bouncer_core::obs::{MemorySink, Tracer, TracerConfig};
use bouncer_core::policy::AdmissionPolicy;
use bouncer_core::slo::{Slo, SloConfig};
use bouncer_core::spec::{PolicyEnv, PolicySpec};
use bouncer_core::types::TypeRegistry;
use bouncer_metrics::time::millis;
use bouncer_workload::mix::LIQUID_MIX_PROPORTIONS;
use crossbeam::channel::{unbounded, Receiver, Sender};
use liquid::broker::ClientOutcome;
use liquid::cluster::{Cluster, ClusterConfig, TransportKind};
use liquid::front::{RemoteOutcome, TcpBrokerClient, TcpBrokerServer};
use liquid::graph::{intersect_count, Graph, GraphConfig};
use liquid::query::{Query, QueryKind};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// SLO targets every type is held to (§5.4).
pub const SLO_P50_MS: u64 = 18;
/// See [`SLO_P50_MS`].
pub const SLO_P90_MS: u64 = 50;
/// Acceptance allowance of the broker policy.
pub const ALLOWANCE: f64 = 0.05;
/// Seeds the policy's coin flips; `--seed` seeds the query stream only.
const POLICY_SEED: u64 = 7;
/// Every workload serves the same generated graph family.
pub const GRAPH_SEED: u64 = 0x11D;
/// Edges attached per vertex.
pub const GRAPH_DEGREE: u32 = 10;
/// The traced pass keeps one query in this many.
pub const TRACE_SAMPLE_EVERY: u64 = 16;
/// Queries of the correctness gate, and the seed of their arguments. Fixed,
/// so the answers' checksum is comparable across workloads, seeds and runs.
pub const VERIFY_QUERIES: usize = 500;
const VERIFY_SEED: u64 = 0xC0FFEE;
/// Times the gate asks a rejected query again before giving up.
const VERIFY_RETRIES: usize = 400;

/// How traffic is offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// One pacer thread sends at Poisson instants and never waits; one
    /// collector thread times replies from the intended instant.
    Open {
        /// Offered rate, absolute, so every commit sees the same traffic.
        qps: f64,
    },
    /// `clients` threads, each sending its next query when the previous
    /// reply lands. Enough of them to keep both cores busy: on this
    /// two-core host only saturated regimes repeat (README.md, "Why the
    /// closed loops are saturated").
    Closed {
        /// Client threads (and, through the front door, connections).
        clients: usize,
    },
}

/// How a query enters the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `Cluster::submit_tagged` (channels transport).
    Tagged,
    /// `Cluster::execute` (the only entry of the rings transport).
    Execute,
    /// `TcpBrokerClient::execute` through a `TcpBrokerServer`, one
    /// connection per client.
    FrontDoor,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Open or closed loop.
    pub drive: Drive,
    /// Broker→shard transport of the cluster.
    pub transport: TransportKind,
    /// Client→broker entry.
    pub entry: Entry,
    /// Vertices of the served graph.
    pub vertices: u32,
    /// Query kinds with their shares (sum to 1).
    pub mix: Vec<(QueryKind, f64)>,
}

fn published_mix() -> Vec<(QueryKind, f64)> {
    QueryKind::ALL
        .iter()
        .zip(LIQUID_MIX_PROPORTIONS)
        .map(|(&kind, (name, share))| {
            assert_eq!(kind.name(), name, "mix table out of order");
            (kind, share)
        })
        .collect()
}

fn equal_mix(kinds: &[QueryKind]) -> Vec<(QueryKind, f64)> {
    kinds
        .iter()
        .map(|&k| (k, 1.0 / kinds.len() as f64))
        .collect()
}

/// The benchmark's workloads, in `BENCHMARK.json` order. README.md says why
/// each exists and which layer it isolates.
pub fn all() -> Vec<Workload> {
    use QueryKind::*;
    vec![
        Workload {
            name: "mix_overload",
            drive: Drive::Open { qps: 4000.0 },
            transport: TransportKind::InProc,
            entry: Entry::Tagged,
            vertices: 200_000,
            mix: published_mix(),
        },
        Workload {
            name: "mix_closed_tcp",
            drive: Drive::Closed { clients: 16 },
            transport: TransportKind::Tcp,
            entry: Entry::FrontDoor,
            vertices: 200_000,
            mix: published_mix(),
        },
        Workload {
            name: "cheap_closed_rings",
            drive: Drive::Closed { clients: 8 },
            transport: TransportKind::Rings,
            entry: Entry::Execute,
            vertices: 200_000,
            mix: equal_mix(&[Qt1Degree, Qt2EdgeExists, Qt3NeighborsPage]),
        },
        Workload {
            name: "heavy_closed_rings",
            drive: Drive::Closed { clients: 8 },
            transport: TransportKind::Rings,
            entry: Entry::Execute,
            vertices: 1_000_000,
            mix: equal_mix(&[
                Qt7TwoHopCount,
                Qt8TriangleCount,
                Qt9CommonNetwork,
                Qt10Distance3,
                Qt11Distance4,
            ]),
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The graph this workload's cluster generates.
    pub fn graph_config(&self) -> GraphConfig {
        GraphConfig {
            vertices: self.vertices,
            edges_per_vertex: GRAPH_DEGREE,
            seed: GRAPH_SEED,
        }
    }

    /// A seeded stream of this workload's queries.
    pub fn stream(&self, seed: u64) -> QueryStream {
        let mut acc = 0.0;
        let cumulative = self
            .mix
            .iter()
            .map(|&(kind, share)| {
                acc += share;
                (kind, acc)
            })
            .collect();
        QueryStream {
            rng: SmallRng::seed_from_u64(seed),
            cumulative,
            vertices: self.vertices,
        }
    }
}

/// Draws queries of a workload's mix with uniform random vertex arguments.
pub struct QueryStream {
    rng: SmallRng,
    cumulative: Vec<(QueryKind, f64)>,
    vertices: u32,
}

impl QueryStream {
    /// The next query.
    pub fn next_query(&mut self) -> Query {
        let x: f64 = self.rng.random();
        let kind = self
            .cumulative
            .iter()
            .find(|&&(_, upto)| x < upto)
            .unwrap_or_else(|| self.cumulative.last().expect("empty mix"))
            .0;
        Query::random(kind, self.vertices, &mut self.rng)
    }

    /// The next Poisson inter-arrival gap at `qps`, in nanoseconds.
    pub fn next_gap_ns(&mut self, qps: f64) -> u64 {
        poisson_gap_ns(&mut self.rng, qps)
    }
}

/// One exponential inter-arrival gap (inverse CDF), in nanoseconds.
pub fn poisson_gap_ns(rng: &mut SmallRng, qps: f64) -> u64 {
    let u: f64 = 1.0 - rng.random::<f64>(); // (0, 1]
    (-u.ln() / qps * 1e9) as u64
}

/// The §5.4 broker policy: Bouncer + acceptance allowance.
pub fn broker_policy(registry: &TypeRegistry, engines: u32) -> Arc<dyn AdmissionPolicy> {
    let env = PolicyEnv {
        registry,
        slos: SloConfig::uniform(
            registry,
            Slo::p50_p90(millis(SLO_P50_MS), millis(SLO_P90_MS)),
        ),
        parallelism: engines,
    };
    PolicySpec::allowance(ALLOWANCE).build(&env, POLICY_SEED)
}

/// What a client saw for one query, whatever the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// Serviced; scalar answer.
    Ok(u64),
    /// Turned away by admission control (broker or shard tier). Not a
    /// failure: it is the policy doing its job.
    Rejected,
    /// Error, expired, timed out, or connection lost.
    Failed,
}

impl From<ClientOutcome> for Reply {
    fn from(o: ClientOutcome) -> Self {
        match o {
            ClientOutcome::Ok(v) => Reply::Ok(v),
            ClientOutcome::Rejected(_) | ClientOutcome::ShardRejected => Reply::Rejected,
            ClientOutcome::Expired | ClientOutcome::Failed => Reply::Failed,
        }
    }
}

impl From<RemoteOutcome> for Reply {
    fn from(o: RemoteOutcome) -> Self {
        match o {
            RemoteOutcome::Ok(v) => Reply::Ok(v),
            RemoteOutcome::Rejected => Reply::Rejected,
            RemoteOutcome::Error => Reply::Failed,
        }
    }
}

/// The spans of a traced system, kept in memory until the run ends.
pub struct Tracing {
    /// The tracer installed on every host (and front-door client).
    pub tracer: Arc<Tracer>,
    /// Where its spans land.
    pub sink: Arc<MemorySink>,
}

/// A running cluster plus, for the front-door workload, its TCP server.
pub struct System {
    /// The cluster under test.
    pub cluster: Cluster,
    front: Option<TcpBrokerServer>,
    entry: Entry,
    /// Present in the traced pass.
    pub tracing: Option<Tracing>,
}

impl System {
    /// Generates the graph, spawns the cluster and, for the front-door
    /// entry, binds the broker's TCP server. With `traced`, every host
    /// records spans for one query in [`TRACE_SAMPLE_EVERY`].
    pub fn spawn(w: &Workload, traced: bool) -> System {
        let tracing = traced.then(|| {
            let sink = Arc::new(MemorySink::new());
            let tracer = Arc::new(Tracer::new(
                sink.clone(),
                TracerConfig {
                    sample_every: TRACE_SAMPLE_EVERY,
                    slo_violation_ns: None,
                },
            ));
            Tracing { tracer, sink }
        });
        let cfg = ClusterConfig {
            transport: w.transport,
            graph: w.graph_config(),
            tracer: tracing.as_ref().map(|t| t.tracer.clone()),
            ..ClusterConfig::default()
        };
        let cluster = Cluster::spawn(&cfg, broker_policy);
        let front = (w.entry == Entry::FrontDoor).then(|| {
            TcpBrokerServer::serve(Arc::clone(&cluster.brokers()[0]), "127.0.0.1:0")
                .expect("cannot bind the broker front door")
        });
        System {
            cluster,
            front,
            entry: w.entry,
            tracing,
        }
    }

    /// A client of this system's entry; one per load-generator thread.
    pub fn client(&self) -> Client<'_> {
        match self.entry {
            Entry::Execute => Client::Execute(&self.cluster),
            Entry::Tagged => {
                let (tx, rx) = unbounded();
                Client::Tagged(&self.cluster, tx, rx)
            }
            Entry::FrontDoor => {
                let addr = self.front.as_ref().expect("front door bound").addr();
                let client = match &self.tracing {
                    None => TcpBrokerClient::connect(addr, 1),
                    Some(t) => TcpBrokerClient::connect_traced(
                        addr,
                        1,
                        t.tracer.clone(),
                        self.cluster.clock().clone(),
                    ),
                };
                Client::FrontDoor(client.expect("cannot connect to the broker front door"))
            }
        }
    }

    /// Stops the front door and every host, joining their threads.
    pub fn shutdown(self) {
        if let Some(front) = &self.front {
            front.stop();
        }
        self.cluster.shutdown();
    }
}

/// Sends one query and waits for its reply.
pub enum Client<'a> {
    /// `Cluster::execute`.
    Execute(&'a Cluster),
    /// `Cluster::submit_tagged` on a private reply channel.
    Tagged(
        &'a Cluster,
        Sender<(u64, ClientOutcome)>,
        Receiver<(u64, ClientOutcome)>,
    ),
    /// `TcpBrokerClient::execute`.
    FrontDoor(TcpBrokerClient),
}

impl Client<'_> {
    /// Sends `q` and blocks until its reply.
    pub fn call(&self, q: Query) -> Reply {
        match self {
            Client::Execute(cluster) => cluster.execute(q).into(),
            Client::Tagged(cluster, tx, rx) => {
                cluster.submit_tagged(q, tx.clone(), 0);
                rx.recv().map_or(Reply::Failed, |(_, o)| o.into())
            }
            Client::FrontDoor(client) => client.execute(q).into(),
        }
    }
}

/// The fixed query list of the correctness gate: every kind in turn. Half
/// of the pairwise queries aim at vertices the reference graph says are
/// adjacent (QT2) or share a neighbor (QT5), so a wrong answer cannot hide
/// behind "random pairs are never connected".
fn verify_queries(reference: &Graph) -> Vec<Query> {
    let mut rng = SmallRng::seed_from_u64(VERIFY_SEED);
    let n = reference.vertex_count();
    (0..VERIFY_QUERIES)
        .map(|i| {
            let kind = QueryKind::ALL[i % QueryKind::ALL.len()];
            let mut q = Query::random(kind, n, &mut rng);
            let near = reference.neighbors(q.u);
            if i % 2 == 0 && !near.is_empty() {
                let hop = near[i % near.len()];
                match kind {
                    QueryKind::Qt2EdgeExists => q.v = hop,
                    QueryKind::Qt5MutualCount => {
                        let two = reference.neighbors(hop);
                        let v = two[i % two.len()];
                        if v != q.u {
                            q.v = v;
                        }
                    }
                    _ => {}
                }
            }
            q
        })
        .collect()
}

/// What the reference graph says a query's answer is, for the kinds whose
/// definition is a single graph primitive.
fn expected(reference: &Graph, q: Query) -> Option<u64> {
    match q.kind {
        QueryKind::Qt1Degree => Some(u64::from(reference.degree(q.u))),
        QueryKind::Qt2EdgeExists => Some(u64::from(reference.has_edge(q.u, q.v))),
        QueryKind::Qt5MutualCount => Some(intersect_count(
            reference.neighbors(q.u),
            reference.neighbors(q.v),
        )),
        _ => None,
    }
}

/// Runs the correctness gate through `client`: every query must be
/// serviced, and QT1/QT2/QT5 must equal what an identically seeded
/// `Graph::generate` says. Returns the checksum of all answers, which is
/// the same number for every transport serving the same graph.
///
/// A rejection is the policy's right, not a wrong answer: a cold Bouncer
/// judges a type it has not seen 16 times by the all-types histogram, which
/// the gate's own heavy queries fill, so a cheap query can be turned away
/// on an idle cluster. Rejected queries are asked again (the acceptance
/// allowance lets one in twenty through at worst) up to [`VERIFY_RETRIES`].
pub fn verify(client: &Client<'_>, reference: &Graph) -> Result<u64, String> {
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    for (i, q) in verify_queries(reference).into_iter().enumerate() {
        let mut reply = client.call(q);
        for _ in 0..VERIFY_RETRIES {
            if reply != Reply::Rejected {
                break;
            }
            reply = client.call(q);
        }
        let Reply::Ok(value) = reply else {
            return Err(format!(
                "verify query {i} ({q:?}) was not serviced: {reply:?}"
            ));
        };
        if let Some(want) = expected(reference, q) {
            if value != want {
                return Err(format!(
                    "verify query {i} ({q:?}): got {value}, want {want}"
                ));
            }
        }
        // FNV-1a over the answer's bytes, order-sensitive.
        for b in value.to_le_bytes() {
            checksum = (checksum ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Ok(checksum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacer_mean_gap_is_the_reciprocal_rate() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 100_000u64;
        let total: u64 = (0..n).map(|_| poisson_gap_ns(&mut rng, 4000.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean / 250_000.0 - 1.0).abs() < 0.02, "mean gap {mean} ns");
    }

    #[test]
    fn mixes_sum_to_one_and_streams_repeat() {
        for w in all() {
            let total: f64 = w.mix.iter().map(|m| m.1).sum();
            assert!((total - 1.0).abs() < 1e-3, "{}: {total}", w.name);
            let a: Vec<Query> = {
                let mut s = w.stream(9);
                (0..100).map(|_| s.next_query()).collect()
            };
            let mut s = w.stream(9);
            let b: Vec<Query> = (0..100).map(|_| s.next_query()).collect();
            assert_eq!(a, b);
            assert!(a.iter().all(|q| w.mix.iter().any(|m| m.0 == q.kind)));
        }
    }

    #[test]
    fn verify_list_covers_every_kind_and_hits_real_edges() {
        let g = Graph::generate(&GraphConfig {
            vertices: 5_000,
            edges_per_vertex: GRAPH_DEGREE,
            seed: GRAPH_SEED,
        });
        let qs = verify_queries(&g);
        assert_eq!(qs.len(), VERIFY_QUERIES);
        for kind in QueryKind::ALL {
            assert!(qs.iter().any(|q| q.kind == kind));
        }
        let edges = qs
            .iter()
            .filter(|q| q.kind == QueryKind::Qt2EdgeExists && g.has_edge(q.u, q.v))
            .count();
        let mutual = qs
            .iter()
            .filter(|q| q.kind == QueryKind::Qt5MutualCount)
            .filter(|&&q| expected(&g, q).unwrap() > 0)
            .count();
        assert!(edges >= 10 && mutual >= 10, "edges={edges} mutual={mutual}");
    }
}
