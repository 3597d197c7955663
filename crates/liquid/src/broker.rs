//! A broker host: the cluster's query entry point.
//!
//! "When a broker receives a query from a client, the broker sends
//! sub-queries to the shard hosts to fetch data from them. Answering a
//! query involves one or more communication rounds between the broker and
//! the shards. At the end of each round, the broker accumulates the shards'
//! responses and processes the sub-query results before starting the next
//! round." (§5.1)
//!
//! The broker runs the admission policy under evaluation; a query's broker
//! *processing time* spans all of its rounds, so it includes shard-side
//! queueing — which is why the paper's Figure 13 sees per-type processing
//! time rise with load on the real system but not in the ideal simulator.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bouncer_core::framework::{Gate, ServerStats, TakeOutcome, Ticker};
use bouncer_core::obs::{
    new_span_id, Event, EventSink, HedgeCounters, QueryTrace, SpanId, SpanKind,
    SpanStatus, TraceContext, Tracer,
};
use bouncer_core::policy::{AdmissionPolicy, RejectReason};
use bouncer_core::types::{TypeId, TypeRegistry};
use bouncer_metrics::spsc::{RingProbe, Waker};
use bouncer_metrics::{Clock, Nanos};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::graph::VertexId;
use crate::query::{Query, QueryKind, RepBatch, RepStatus, SubQuery, SubResponse};
use crate::rings::{BrokerEngineRig, BrokerRig, LaneReq, LaneSet, ShardPortRings, ShardRep};
use crate::shard::{engine_state, host_gate, ShardHost, SubOutcome};
use crate::transport::{CancelHandle, ShardClient};

/// Builds the type registry for the LIquid workload: `default` plus
/// QT1..QT11 in cost order (ids 1..=11).
pub fn liquid_registry() -> TypeRegistry {
    let mut reg = TypeRegistry::new();
    for kind in QueryKind::ALL {
        reg.register(kind.name());
    }
    reg
}

/// The registered [`TypeId`] of a query kind in [`liquid_registry`] order.
#[inline]
pub fn kind_type_id(kind: QueryKind) -> TypeId {
    TypeId::from_index(kind.index() as u32 + 1)
}

/// Outcome of a client query, as delivered to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientOutcome {
    /// Serviced; scalar result.
    Ok(u64),
    /// Rejected by the broker's admission policy (early rejection, §2).
    Rejected(RejectReason),
    /// A shard rejected one of the query's sub-queries mid-plan.
    ShardRejected,
    /// The query expired in the broker's queue before an engine picked it
    /// up; it was dropped undone (§5.1 expiration enforcement).
    Expired,
    /// Execution failed (transport error, bad vertex).
    Failed,
}

/// Query-plan failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanError {
    ShardRejected,
    ShardFailed,
}

/// How a job's outcome travels back to the submitter.
enum Responder {
    /// Dedicated one-shot channel per query ([`Broker::submit`]).
    Oneshot(Sender<ClientOutcome>),
    /// Shared channel with a caller-chosen token ([`Broker::submit_tagged`]);
    /// lets one collector thread service any number of in-flight queries —
    /// a truly open-loop load generator needs this, since at overload the
    /// in-flight population exceeds any reasonable thread count.
    Tagged(Sender<(u64, ClientOutcome)>, u64),
}

impl Responder {
    fn send(self, outcome: ClientOutcome) {
        match self {
            Responder::Oneshot(tx) => {
                let _ = tx.send(outcome);
            }
            Responder::Tagged(tx, token) => {
                let _ = tx.send((token, outcome));
            }
        }
    }
}

struct Job {
    query: Query,
    respond: Responder,
    /// Buffered trace, present only when the broker has an enabled tracer.
    trace: Option<QueryTrace>,
}

/// How a broker routes each round's per-shard sub-query group among that
/// shard's replicas. With one replica per shard every strategy degenerates
/// to the flat (pre-replication) cluster, and the broker normalizes the
/// strategy to [`RouteStrategy::PrimaryOnly`] so the R=1 data path — and
/// its event stream — is byte-identical to the unreplicated one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouteStrategy {
    /// Always the shard's *primary* replica, `s mod R`. Staggering the
    /// primary across groups spreads distinct shards over distinct replica
    /// groups, so even primary-only routing uses the whole cluster.
    #[default]
    PrimaryOnly,
    /// The replica with the fewest in-flight sub-query groups from this
    /// broker (ties break to the primary). Purely local accounting: no
    /// coordination with other brokers, like the paper's per-broker
    /// admission state.
    LoadBalanced,
    /// Send to the primary; if no reply arrives within a quantile-based
    /// hedge delay, duplicate the group to the next replica and take
    /// whichever reply lands first. The loser is cancelled: a cancel
    /// honored at dequeue refunds its queued demand, so hedging charges
    /// the extra replica's gate only while the duplicate is actually
    /// queued (replication-aware admission).
    Hedged,
}

/// Shared routing state for one broker's engines: the replica layout, the
/// per-replica in-flight counters behind [`RouteStrategy::LoadBalanced`],
/// and the hedge telemetry counters.
struct Router {
    /// Replicas per logical shard (R). Physical index = `s * R + r`.
    replicas: usize,
    strategy: RouteStrategy,
    /// In-flight sub-query groups per *physical* replica, `[s * R + r]`.
    in_flight: Vec<AtomicUsize>,
    hedges: AtomicU64,
    hedge_cancels: AtomicU64,
    /// The gate's sink; routing events ride the same stream as lifecycle
    /// events.
    sink: Arc<dyn EventSink>,
}

impl Router {
    fn new(
        n_shards: usize,
        replicas: usize,
        strategy: RouteStrategy,
        sink: Arc<dyn EventSink>,
    ) -> Self {
        // R=1 makes every strategy PrimaryOnly; normalizing keeps the flat
        // path free of hedge plumbing (and provably event-identical).
        let strategy = if replicas == 1 { RouteStrategy::PrimaryOnly } else { strategy };
        Self {
            replicas,
            strategy,
            in_flight: (0..n_shards * replicas).map(|_| AtomicUsize::new(0)).collect(),
            hedges: AtomicU64::new(0),
            hedge_cancels: AtomicU64::new(0),
            sink,
        }
    }

    /// Shard `s`'s primary replica.
    #[inline]
    fn primary(&self, s: usize) -> usize {
        s % self.replicas
    }

    /// Physical index of `(shard, replica)` in the flattened client/port
    /// vectors.
    #[inline]
    fn phys(&self, s: usize, r: usize) -> usize {
        s * self.replicas + r
    }

    /// Whether this broker races hedged duplicates (R > 1 and hedged).
    #[inline]
    fn hedging(&self) -> bool {
        self.strategy == RouteStrategy::Hedged && self.replicas > 1
    }

    /// The replica the *first* send of a group goes to, per strategy.
    fn pick(&self, s: usize) -> usize {
        match self.strategy {
            RouteStrategy::PrimaryOnly | RouteStrategy::Hedged => self.primary(s),
            RouteStrategy::LoadBalanced => {
                let primary = self.primary(s);
                let mut best = primary;
                let mut best_load = self.in_flight[self.phys(s, primary)].load(Ordering::Relaxed);
                for r in 0..self.replicas {
                    if r == primary {
                        continue;
                    }
                    let load = self.in_flight[self.phys(s, r)].load(Ordering::Relaxed);
                    // Strict `<`: ties (including the all-idle case) keep
                    // the primary.
                    if load < best_load {
                        best = r;
                        best_load = load;
                    }
                }
                best
            }
        }
    }

    #[inline]
    fn begin(&self, s: usize, r: usize) {
        self.in_flight[self.phys(s, r)].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn end(&self, s: usize, r: usize) {
        self.in_flight[self.phys(s, r)].fetch_sub(1, Ordering::Relaxed);
    }

    /// Emits `replica_routed` — only on replicated clusters, so R=1 event
    /// streams stay byte-identical to pre-replication ones (the clock is
    /// not even read on the flat path).
    fn note_routed(&self, clock: &Arc<dyn Clock>, s: usize, r: usize) {
        if self.replicas > 1 && self.sink.enabled() {
            self.sink.emit(&Event::ReplicaRouted {
                at: clock.now(),
                shard: s as u32,
                replica: r as u32,
            });
        }
    }

    fn note_hedge_fired(&self, at: Nanos, s: usize, primary: usize, hedge: usize, delay: Nanos) {
        self.hedges.fetch_add(1, Ordering::Relaxed);
        if self.sink.enabled() {
            self.sink.emit(&Event::HedgeFired {
                at,
                shard: s as u32,
                primary: primary as u32,
                hedge: hedge as u32,
                delay,
            });
        }
    }

    fn note_hedge_cancelled(&self, at: Nanos, s: usize, replica: usize) {
        self.hedge_cancels.fetch_add(1, Ordering::Relaxed);
        if self.sink.enabled() {
            self.sink.emit(&Event::HedgeCancelled {
                at,
                shard: s as u32,
                replica: replica as u32,
            });
        }
    }
}

/// Hedge-delay window size (samples of batch round-trip latency).
const HEDGE_WINDOW: usize = 128;
/// Below this many samples the window is too noisy; use the default delay.
const HEDGE_MIN_SAMPLES: usize = 32;
/// Hedge delay until the window warms up: 1ms.
const HEDGE_DELAY_DEFAULT: Nanos = 1_000_000;
/// Clamp floor: hedging under 200µs would duplicate healthy traffic.
const HEDGE_DELAY_MIN: Nanos = 200_000;
/// Clamp ceiling: past 5ms a straggler is better served by the sub-query
/// timeout machinery than by a duplicate.
const HEDGE_DELAY_MAX: Nanos = 5_000_000;

/// Per-engine estimator of the hedge delay: a ring of recent sub-query
/// batch round-trip latencies whose p95 (clamped to
/// [`HEDGE_DELAY_MIN`], [`HEDGE_DELAY_MAX`]) is the wait before firing a
/// duplicate. Engine-private — no locks on the data path; each engine
/// adapts to the latency it actually observes.
struct HedgeDelay {
    samples: Vec<Nanos>,
    /// Next write slot (ring).
    next: usize,
    /// Lifetime samples recorded (saturating at usize::MAX is fine).
    seen: usize,
    /// Scratch for the quantile sort.
    sorted: Vec<Nanos>,
}

impl Default for HedgeDelay {
    fn default() -> Self {
        Self {
            samples: Vec::with_capacity(HEDGE_WINDOW),
            next: 0,
            seen: 0,
            sorted: Vec::with_capacity(HEDGE_WINDOW),
        }
    }
}

impl HedgeDelay {
    fn record(&mut self, latency: Nanos) {
        if self.samples.len() < HEDGE_WINDOW {
            self.samples.push(latency);
        } else {
            self.samples[self.next] = latency;
        }
        self.next = (self.next + 1) % HEDGE_WINDOW;
        self.seen = self.seen.saturating_add(1);
    }

    /// The current hedge delay.
    fn current(&mut self) -> Duration {
        if self.seen < HEDGE_MIN_SAMPLES {
            return Duration::from_nanos(HEDGE_DELAY_DEFAULT);
        }
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.samples);
        self.sorted.sort_unstable();
        let idx = (self.sorted.len() * 95) / 100;
        let p95 = self.sorted[idx.min(self.sorted.len() - 1)];
        Duration::from_nanos(p95.clamp(HEDGE_DELAY_MIN, HEDGE_DELAY_MAX))
    }
}

/// Broker configuration.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Engine threads (`|PU|` on the broker).
    pub engines: u32,
    /// `L_limit` on the FIFO queue (the paper uses 800).
    pub max_queue_len: Option<usize>,
    /// Policy maintenance period.
    pub tick_period: Duration,
    /// Per-sub-query wait bound, guarding engines against stuck shards.
    pub subquery_timeout: Duration,
    /// Expiration time given to every admitted query (`None` = queries
    /// never expire — the paper's evaluation uses "generous expiration
    /// times to ensure they do not time out").
    pub query_deadline: Option<Duration>,
    /// Optional observability sink for this host's gate (lifecycle events
    /// with wall-clock timestamps, plus the policy's interval events).
    pub sink: Option<Arc<dyn EventSink>>,
    /// Optional distributed tracer. The broker roots a [`QueryTrace`] per
    /// offered query (joining an incoming sampled context when present),
    /// records admission/queue/round/sub-query spans, and finalizes at the
    /// outcome. `None` keeps tracing entirely off the admission path.
    pub tracer: Option<Arc<Tracer>>,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        Self {
            engines: 4,
            max_queue_len: Some(800),
            tick_period: Duration::from_millis(100),
            subquery_timeout: Duration::from_secs(10),
            query_deadline: None,
            sink: None,
            tracer: None,
        }
    }
}

/// A running broker host.
pub struct Broker {
    gate: Arc<Gate<Job>>,
    /// Engine threads, joined (exactly once) by [`Broker::shutdown`]. Held
    /// behind a mutex so shutdown joins regardless of how many `Arc` clones
    /// of the broker are still alive.
    engines: Mutex<Vec<JoinHandle<()>>>,
    _ticker: Ticker,
    parallelism: u32,
    query_deadline: Option<Duration>,
    tracer: Option<Arc<Tracer>>,
    /// Replica routing state shared by the engines.
    router: Arc<Router>,
    /// Present iff the broker was spawned in rings mode
    /// ([`Broker::spawn_rings`]): the client-facing lane set plus the
    /// engine stop/wake plumbing. `None` = channel mode.
    rings: Option<RingsFront>,
}

/// Client-side state of a rings-mode broker: submission lanes plus the
/// handles shutdown needs to stop parked engines.
struct RingsFront {
    lanes: Arc<LaneSet>,
    stop: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    /// Occupancy probes over the lane request rings (health sampling).
    lane_probes: Vec<RingProbe<LaneReq>>,
}

/// How long a rings-mode client waits for its reply slot before declaring
/// the broker engine dead. Far beyond any plan's worst case (a plan runs at
/// most a handful of rounds, each bounded by `subquery_timeout`); a closed
/// ring returns immediately, so clean shutdown never waits this long.
const RINGS_CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

impl Broker {
    /// Spawns a broker over the given shard connections, gating admissions
    /// with `policy` (the policy under evaluation in §5.4). The flat,
    /// unreplicated entry point: one client per logical shard. Delegates to
    /// [`Broker::spawn_replicated`] with one replica per shard, which is
    /// byte-identical to the pre-replication data path.
    pub fn spawn(
        shards: Vec<Arc<dyn ShardClient>>,
        policy: Arc<dyn AdmissionPolicy>,
        clock: Arc<dyn Clock>,
        cfg: BrokerConfig,
    ) -> Arc<Self> {
        let groups = shards.into_iter().map(|c| vec![c]).collect();
        Self::spawn_replicated(groups, RouteStrategy::PrimaryOnly, policy, clock, cfg)
    }

    /// Spawns a broker over replica groups: `shard_groups[s]` holds the R
    /// clients materializing logical shard `s` (every group the same
    /// length), and `strategy` picks which replica services each round's
    /// per-shard sub-query group.
    pub fn spawn_replicated(
        shard_groups: Vec<Vec<Arc<dyn ShardClient>>>,
        strategy: RouteStrategy,
        policy: Arc<dyn AdmissionPolicy>,
        clock: Arc<dyn Clock>,
        cfg: BrokerConfig,
    ) -> Arc<Self> {
        assert!(cfg.engines > 0);
        assert!(!shard_groups.is_empty());
        let replicas = shard_groups[0].len();
        assert!(replicas > 0, "a shard needs at least one replica");
        assert!(
            shard_groups.iter().all(|g| g.len() == replicas),
            "every logical shard must have the same replica count"
        );
        let n_shards = shard_groups.len();
        let gate: Arc<Gate<Job>> = host_gate(
            policy.clone(),
            liquid_registry().len(),
            clock.clone(),
            cfg.max_queue_len,
            cfg.sink.clone(),
        );
        // Flatten replica-major: physical index `s * R + r`.
        let shards: Vec<Arc<dyn ShardClient>> = shard_groups.into_iter().flatten().collect();
        let shards = Arc::new(shards);
        let router = Arc::new(Router::new(n_shards, replicas, strategy, Arc::clone(gate.sink())));
        // A tracer whose sink is disabled behaves as no tracer at all.
        let tracer = cfg.tracer.filter(|t| t.enabled());
        let engines = (0..cfg.engines)
            .map(|i| {
                let gate = Arc::clone(&gate);
                let shards = Arc::clone(&shards);
                let router = Arc::clone(&router);
                let timeout = cfg.subquery_timeout;
                let tracer = tracer.clone();
                std::thread::Builder::new()
                    .name(format!("broker-engine{i}"))
                    .spawn(move || {
                        let port = ChannelPort(&shards);
                        let exec =
                            Exec::new(port, &router, timeout, gate.clock(), tracer.as_deref());
                        engine_loop(&gate, exec)
                    })
                    .expect("failed to spawn broker engine")
            })
            .collect();
        let ticker = Ticker::spawn(policy, clock, cfg.tick_period);
        Arc::new(Self {
            gate,
            engines: Mutex::new(engines),
            _ticker: ticker,
            parallelism: cfg.engines,
            query_deadline: cfg.query_deadline,
            tracer,
            router,
            rings: None,
        })
    }

    /// Spawns a broker on the thread-per-core data path: engines service
    /// client *lanes* and talk to the shards over per-engine SPSC ring
    /// pairs instead of channels. `hosts` are the in-process shard hosts
    /// (rings mode has no remote transport), index-aligned with the ring
    /// ports in `rig`; the rig comes from
    /// [`crate::rings::build_topology`] and the matching
    /// [`crate::shard::ShardHost::spawn_rings`] calls.
    ///
    /// The gate still performs admission/accounting exactly as in channel
    /// mode, but in rings mode its FIFO is bypassed: an admitted query is
    /// pushed straight onto a lane's request ring (single producer), and
    /// the servicing engine replays the dequeue against the gate when it
    /// pops. One caveat follows from this: queue-length-based policies see
    /// the (tiny, bounded) ring depth rather than a broker-wide queue
    /// length, so `MaxQL`-style limits are not meaningful in rings mode.
    /// `hosts` are the *physical* in-process shard hosts in replica-major
    /// `[s * replicas + r]` order (matching the rig from
    /// [`crate::rings::build_topology`] with the same `replicas`).
    pub(crate) fn spawn_rings(
        hosts: Vec<Arc<ShardHost>>,
        replicas: usize,
        strategy: RouteStrategy,
        policy: Arc<dyn AdmissionPolicy>,
        clock: Arc<dyn Clock>,
        cfg: BrokerConfig,
        rig: BrokerRig,
    ) -> Arc<Self> {
        assert!(cfg.engines > 0);
        assert!(!hosts.is_empty());
        assert!(replicas > 0);
        assert_eq!(
            hosts.len() % replicas,
            0,
            "physical host count must be a multiple of the replica count"
        );
        assert_eq!(
            rig.engines.len(),
            cfg.engines as usize,
            "ring topology engine count must match BrokerConfig.engines"
        );
        let n_shards = hosts.len() / replicas;
        let gate: Arc<Gate<Job>> = host_gate(
            policy.clone(),
            liquid_registry().len(),
            clock.clone(),
            cfg.max_queue_len,
            cfg.sink.clone(),
        );
        let hosts = Arc::new(hosts);
        let router = Arc::new(Router::new(n_shards, replicas, strategy, Arc::clone(gate.sink())));
        let tracer = cfg.tracer.filter(|t| t.enabled());
        let stop = Arc::new(AtomicBool::new(false));
        let wakers: Vec<Arc<Waker>> = rig.engines.iter().map(|e| Arc::clone(&e.waker)).collect();
        let lane_probes = rig.lane_probes;
        let engines = rig
            .engines
            .into_iter()
            .enumerate()
            .map(|(i, mut engine_rig)| {
                let gate = Arc::clone(&gate);
                let hosts = Arc::clone(&hosts);
                let router = Arc::clone(&router);
                let timeout = cfg.subquery_timeout;
                let deadline = cfg.query_deadline;
                let tracer = tracer.clone();
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("broker-ring{i}"))
                    .spawn(move || {
                        let port = RingPort::new(std::mem::take(&mut engine_rig.ports), &hosts);
                        let exec =
                            Exec::new(port, &router, timeout, gate.clock(), tracer.as_deref());
                        rings_engine_loop(&gate, i as u32, engine_rig, exec, deadline, &stop)
                    })
                    .expect("failed to spawn broker ring engine")
            })
            .collect();
        let ticker = Ticker::spawn(policy, clock, cfg.tick_period);
        Arc::new(Self {
            gate,
            engines: Mutex::new(engines),
            _ticker: ticker,
            parallelism: cfg.engines,
            query_deadline: cfg.query_deadline,
            tracer,
            router,
            rings: Some(RingsFront {
                lanes: rig.lanes,
                stop,
                wakers,
                lane_probes,
            }),
        })
    }

    /// Offers a client query; the returned channel yields its outcome. A
    /// broker-side rejection is delivered immediately.
    pub fn submit(&self, query: Query) -> Receiver<ClientOutcome> {
        self.submit_with_ctx(query, None)
    }

    /// Like [`Broker::submit`], joining an incoming trace context (the
    /// front server's path; in-process callers pass `None`).
    pub fn submit_with_ctx(
        &self,
        query: Query,
        ctx: Option<TraceContext>,
    ) -> Receiver<ClientOutcome> {
        let (tx, rx) = bounded(1);
        self.offer(query, Responder::Oneshot(tx), ctx);
        rx
    }

    /// Offers a client query whose outcome is delivered on a *shared*
    /// channel as `(token, outcome)`. Rejections are delivered immediately,
    /// like [`Broker::submit`].
    pub fn submit_tagged(&self, query: Query, tx: Sender<(u64, ClientOutcome)>, token: u64) {
        self.offer(query, Responder::Tagged(tx, token), None);
    }

    /// [`Broker::submit_tagged`] with an incoming trace context.
    pub fn submit_tagged_with_ctx(
        &self,
        query: Query,
        tx: Sender<(u64, ClientOutcome)>,
        token: u64,
        ctx: Option<TraceContext>,
    ) {
        self.offer(query, Responder::Tagged(tx, token), ctx);
    }

    fn offer(&self, query: Query, respond: Responder, ctx: Option<TraceContext>) {
        assert!(
            self.rings.is_none(),
            "channel submission (submit/submit_tagged) is not supported on a \
             rings-mode broker; use execute()"
        );
        let ty = kind_type_id(query.kind);
        let trace = self
            .tracer
            .as_ref()
            .map(|t| t.begin(Some(ty), self.gate.clock().now(), ctx));
        let deadline = self
            .query_deadline
            .map(|d| self.gate.clock().now() + d.as_nanos() as u64);
        if let Err((reason, job)) =
            self.gate
                .offer_with_deadline(ty, Job { query, respond, trace }, deadline)
        {
            if let (Some(tracer), Some(mut qt)) = (self.tracer.as_ref(), job.trace) {
                // Early rejections are always emitted, whatever head
                // sampling decided.
                let now = self.gate.clock().now();
                qt.record_child(SpanKind::Admission, qt.start(), now);
                tracer.finish(qt, SpanStatus::Rejected, now);
            }
            job.respond.send(ClientOutcome::Rejected(reason));
        }
    }

    /// Convenience: submit and wait. In rings mode this is the *only*
    /// submission path: the calling thread claims a lane, performs the
    /// admission decision inline, pushes onto the lane's request ring and
    /// parks on the reply ring — no shared lock anywhere on the round trip.
    pub fn execute(&self, query: Query) -> ClientOutcome {
        if self.rings.is_some() {
            return self.execute_rings(query, None);
        }
        match self.submit(query).recv() {
            Ok(outcome) => outcome,
            Err(_) => ClientOutcome::Failed,
        }
    }

    /// Emits the always-sampled trace of a query rejected before it reached
    /// an engine (mirrors the early-reject arm of [`Broker::offer`]).
    fn trace_early_reject(&self, ty: TypeId, ctx: Option<TraceContext>) {
        if let Some(tracer) = self.tracer.as_ref() {
            let now = self.gate.clock().now();
            let mut qt = tracer.begin(Some(ty), now, ctx);
            qt.record_child(SpanKind::Admission, qt.start(), now);
            tracer.finish(qt, SpanStatus::Rejected, now);
        }
    }

    /// The rings-mode submission path (see [`Broker::execute`]).
    fn execute_rings(&self, query: Query, ctx: Option<TraceContext>) -> ClientOutcome {
        let rings = self.rings.as_ref().expect("broker not in rings mode");
        let ty = kind_type_id(query.kind);
        // Claim the lane *before* admitting so the admission timestamp is
        // taken right next to the ring push it accounts for.
        let mut lane = rings.lanes.claim();
        match self.gate.admit_external(ty) {
            Err(reason) => {
                self.trace_early_reject(ty, ctx);
                ClientOutcome::Rejected(reason)
            }
            Ok(now) => {
                // Account inside the fill closure: it runs only once the
                // ring has room, and before the slot is published, so the
                // engine's `dequeued_external` can never run ahead of this
                // query's `enqueued_external`.
                let depth = lane.req.len() + 1;
                let gate = &self.gate;
                let pushed = lane.req.try_push(|slot| {
                    slot.query = query;
                    slot.enqueued_at = now;
                    slot.ctx = ctx;
                    gate.enqueued_external(ty, now, depth);
                });
                if !pushed {
                    // The bounded ring is the lane's queue; full = QueueFull.
                    self.gate.reject_full_external(ty, now);
                    self.trace_early_reject(ty, ctx);
                    return ClientOutcome::Rejected(RejectReason::QueueFull);
                }
                match lane.rep.pop_wait(RINGS_CLIENT_TIMEOUT, |slot| {
                    std::mem::replace(&mut slot.outcome, ClientOutcome::Failed)
                }) {
                    Some(outcome) => outcome,
                    // Ring closed (engine gone) or pathological stall.
                    None => ClientOutcome::Failed,
                }
            }
        }
    }

    /// This broker's statistics (per QT type).
    pub fn stats(&self) -> &Arc<ServerStats> {
        self.gate.stats()
    }

    /// The admission policy behind the gate.
    pub fn policy(&self) -> &Arc<dyn AdmissionPolicy> {
        self.gate.policy()
    }

    /// The distributed tracer, when one was configured with an enabled sink.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// The clock this broker timestamps with.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        self.gate.clock()
    }

    /// Engine parallelism (`|PU|`).
    pub fn parallelism(&self) -> u32 {
        self.parallelism
    }

    /// Replicas per logical shard (R; 1 on a flat broker).
    pub fn replicas(&self) -> usize {
        self.router.replicas
    }

    /// The routing strategy in effect (normalized to
    /// [`RouteStrategy::PrimaryOnly`] at R=1).
    pub fn strategy(&self) -> RouteStrategy {
        self.router.strategy
    }

    /// Hedge telemetry: duplicates fired and losers cancelled by this
    /// broker's engines since spawn.
    pub fn hedge_counters(&self) -> HedgeCounters {
        HedgeCounters {
            hedges: self.router.hedges.load(Ordering::Relaxed),
            cancels: self.router.hedge_cancels.load(Ordering::Relaxed),
        }
    }

    /// Current FIFO queue length.
    pub fn queue_len(&self) -> usize {
        self.gate.queue_len()
    }

    /// Total occupancy across this broker's lane request rings — the
    /// rings-mode analogue of [`Broker::queue_len`], read lock-free off
    /// the rings' own indices. `None` on a channel-mode broker.
    pub fn ring_occupancy(&self) -> Option<u64> {
        self.rings
            .as_ref()
            .map(|r| r.lane_probes.iter().map(|p| p.len() as u64).sum())
    }

    /// Stops the engines and waits for them to exit.
    ///
    /// Always joins, no matter how many `Arc` clones of the broker are
    /// still held elsewhere (the seed only joined when the caller happened
    /// to hold the last strong reference, silently leaking the engine
    /// threads otherwise). Idempotent: later calls find no handles left.
    pub fn shutdown(&self) {
        self.gate.close();
        if let Some(rings) = self.rings.as_ref() {
            rings.stop.store(true, Ordering::Release);
            for waker in &rings.wakers {
                waker.wake();
            }
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.engines.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Number of engine threads not yet joined — 0 after
    /// [`Broker::shutdown`] returns.
    pub fn engines_running(&self) -> usize {
        self.engines.lock().len()
    }
}

/// The channel-mode engine loop. `exec` is the engine's one executor: its
/// scratch buffers (sub-query batches, reply accumulators, plan frontiers)
/// live for the thread's lifetime and are reused across queries.
fn engine_loop(gate: &Gate<Job>, mut exec: Exec<'_, ChannelPort<'_>>) {
    loop {
        match gate.take(Some(Duration::from_millis(100))) {
            TakeOutcome::Query(admitted) => {
                let Job { query, respond, trace } = admitted.payload;
                let (ty, enqueued_at, dequeued_at) =
                    (admitted.ty, admitted.enqueued_at, admitted.dequeued_at);
                respond.send(serve(&mut exec, gate, trace, query, ty, enqueued_at, dequeued_at));
            }
            TakeOutcome::Expired(admitted) => {
                // Dropped undone: reply with a timeout error immediately.
                let Job { respond, trace, .. } = admitted.payload;
                if let (Some(tracer), Some(mut qt)) = (exec.tracer, trace) {
                    let now = gate.clock().now();
                    queue_spans(&mut qt, admitted.enqueued_at, now);
                    tracer.finish(qt, SpanStatus::Expired, now);
                }
                respond.send(ClientOutcome::Expired);
            }
            TakeOutcome::TimedOut => {}
            TakeOutcome::Closed => return,
        }
    }
}

/// The admission span covers the gate offer; the queue span covers
/// enqueue→engine pickup. Both timestamps come from the gate's own
/// bookkeeping, so channel and rings traces are rebuilt alike.
fn queue_spans(qt: &mut QueryTrace, enqueued_at: Nanos, dequeued_at: Nanos) {
    qt.record_child(SpanKind::Admission, qt.start(), enqueued_at);
    qt.record_child(SpanKind::BrokerQueue, enqueued_at, dequeued_at);
}

/// Runs one admitted query on either engine loop: the plan under its
/// trace (when sampled), the gate's completion, the trace's finish.
fn serve<P: Port>(
    exec: &mut Exec<'_, P>,
    gate: &Gate<Job>,
    trace: Option<QueryTrace>,
    query: Query,
    ty: TypeId,
    enqueued_at: Nanos,
    dequeued_at: Nanos,
) -> ClientOutcome {
    if let Some(mut qt) = trace {
        queue_spans(&mut qt, enqueued_at, dequeued_at);
        exec.trace = Some(PlanTrace::new(qt, dequeued_at));
    }
    let result = execute_plan(exec, query);
    gate.complete(ty, enqueued_at, dequeued_at);
    if let (Some(pt), Some(tracer)) = (exec.trace.take(), exec.tracer) {
        pt.finish(tracer, plan_status(&result), gate.clock().now());
    }
    plan_outcome(result)
}

fn plan_status(result: &Result<u64, PlanError>) -> SpanStatus {
    match result {
        Ok(_) => SpanStatus::Ok,
        Err(PlanError::ShardRejected) => SpanStatus::Rejected,
        Err(PlanError::ShardFailed) => SpanStatus::Failed,
    }
}

fn plan_outcome(result: Result<u64, PlanError>) -> ClientOutcome {
    match result {
        Ok(value) => ClientOutcome::Ok(value),
        Err(PlanError::ShardRejected) => ClientOutcome::ShardRejected,
        Err(PlanError::ShardFailed) => ClientOutcome::Failed,
    }
}

/// The rings-mode engine loop: sweeps this engine's client lanes for
/// requests, replays each dequeue against the gate, runs the plan over
/// the engine's private shard ring ports, and pushes the outcome back on
/// the lane's reply ring. Between requests the engine parks on its waker
/// (woken by lane pushes and shard replies), so an idle cluster burns no
/// CPU while a loaded one runs lock-free.
///
/// `rig`'s shard ports already live in `exec`.
fn rings_engine_loop(
    gate: &Gate<Job>,
    engine: u32,
    rig: BrokerEngineRig,
    mut exec: Exec<'_, RingPort<'_>>,
    query_deadline: Option<Duration>,
    stop: &AtomicBool,
) {
    let BrokerEngineRig {
        mut lane_reqs,
        mut lane_reps,
        waker,
        ..
    } = rig;
    waker.register_current();
    // Flight-recorder breadcrumb state: emit `engine_state` only on
    // park/resume *transitions* (a 1ms park timeout re-park is not one),
    // so an idle cluster leaves two records, not a 1kHz stream.
    let mut idle = false;
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let mut worked = false;
        for l in 0..lane_reqs.len() {
            let Some((query, enqueued_at, ctx)) =
                lane_reqs[l].try_pop(|slot| (slot.query, slot.enqueued_at, slot.ctx))
            else {
                continue;
            };
            worked = true;
            let ty = kind_type_id(query.kind);
            let deadline = query_deadline.map(|d| enqueued_at + d.as_nanos() as u64);
            let (dequeued_at, expired) = gate.dequeued_external(ty, enqueued_at, deadline);
            let outcome = if expired {
                if let Some(tracer) = exec.tracer {
                    let mut qt = tracer.begin(Some(ty), enqueued_at, ctx);
                    queue_spans(&mut qt, enqueued_at, dequeued_at);
                    tracer.finish(qt, SpanStatus::Expired, dequeued_at);
                }
                ClientOutcome::Expired
            } else {
                // The trace roots engine-side: a QueryTrace cannot cross
                // the ring.
                let trace = exec.tracer.map(|t| t.begin(Some(ty), enqueued_at, ctx));
                serve(&mut exec, gate, trace, query, ty, enqueued_at, dequeued_at)
            };
            // The lane protocol allows one outstanding request per lane, so
            // the reply slot is always free.
            let pushed = lane_reps[l].try_push(|slot| slot.outcome = outcome);
            assert!(pushed, "lane reply ring full (protocol violation)");
        }
        if worked {
            if idle {
                idle = false;
                engine_state(gate, engine, false);
            }
            continue;
        }
        waker.prepare_park();
        if stop.load(Ordering::Acquire) || lane_reqs.iter().any(|r| !r.is_empty()) {
            waker.cancel_park();
            continue;
        }
        if !idle {
            idle = true;
            engine_state(gate, engine, true);
        }
        waker.park(Duration::from_millis(1));
    }
}

/// Query-plan caps: bound the fan-out of the expensive templates so costs
/// are heavy-tailed but finite, like production queries with result limits.
const PAGE: usize = 64;
const DEGREE_SAMPLE: usize = 32;
const TWO_HOP_CAP: usize = 192;
const TRIANGLE_CAP: usize = 32;
const COMMON_CAP: usize = 128;
const BFS3_CAP: usize = 512;
const BFS4_CAP: usize = 1024;

/// Per-query trace state while the engine runs the plan: segments the
/// execution into fan-out rounds (a round opens at the first send after the
/// previous round closed, and closes when every sub-query of the round has
/// been waited for) with [`SpanKind::Aggregation`] spans filling the
/// broker-compute gaps between rounds.
struct PlanTrace {
    qt: QueryTrace,
    /// Pre-minted id of the [`SpanKind::BrokerService`] span (recorded at
    /// finish); rounds and aggregation spans parent under it.
    service_span: SpanId,
    service_start: Nanos,
    round_idx: u16,
    /// The open round, as `(span id, start)`.
    round: Option<(SpanId, Nanos)>,
    /// Sub-queries sent in the open round and not yet waited for, as
    /// `(span id, shard, sent at)`. Drained entries become
    /// [`SpanKind::SubQuery`] spans; anything still here at finish is
    /// recorded then, so eagerly-emitted shard spans always find their
    /// parent even when an error path abandons receivers.
    outstanding: Vec<(SpanId, u16, Nanos)>,
    /// Where the current between-rounds aggregation segment began.
    segment_start: Nanos,
}

impl PlanTrace {
    fn new(qt: QueryTrace, dequeued_at: Nanos) -> Self {
        Self {
            qt,
            service_span: new_span_id(),
            service_start: dequeued_at,
            round_idx: 0,
            round: None,
            outstanding: Vec::new(),
            segment_start: dequeued_at,
        }
    }

    /// Called per sub-query send; returns the sub-query's span id (the
    /// parent shard-side spans attach under).
    fn on_send(&mut self, shard: u16, now: Nanos) -> SpanId {
        if self.round.is_none() {
            if self.round_idx > 0 {
                // The gap since the previous round closed was broker
                // compute: reply aggregation / frontier construction.
                self.qt.record(
                    SpanKind::Aggregation(self.round_idx - 1),
                    new_span_id(),
                    self.service_span,
                    self.segment_start,
                    now,
                );
            }
            self.round = Some((new_span_id(), now));
        }
        let sub_span = new_span_id();
        self.outstanding.push((sub_span, shard, now));
        sub_span
    }

    /// Called once per sub-query wait (success or failure).
    fn on_recv(&mut self, sub_span: SpanId, now: Nanos) {
        let Some(pos) = self.outstanding.iter().position(|&(s, _, _)| s == sub_span) else {
            return;
        };
        let (span, shard, sent_at) = self.outstanding.swap_remove(pos);
        let (round_span, _) = self.round.expect("recv with no open round");
        self.qt
            .record(SpanKind::SubQuery { shard }, span, round_span, sent_at, now);
        if self.outstanding.is_empty() {
            self.close_round(now);
        }
    }

    /// Records the span of a hedged duplicate that lost its race, covering
    /// send → cancel. Recorded eagerly at cancel time under the open round
    /// (the winner's [`SpanKind::SubQuery`] span closes separately via
    /// [`PlanTrace::on_recv`]), so losers are visible in traces without
    /// ever landing on the critical path.
    fn on_hedge_cancel(&mut self, shard: u16, sent_at: Nanos, now: Nanos) {
        if let Some((round_span, _)) = self.round {
            self.qt.record(
                SpanKind::HedgeSubQuery { shard },
                new_span_id(),
                round_span,
                sent_at,
                now,
            );
        }
    }

    fn close_round(&mut self, now: Nanos) {
        if let Some((round_span, round_start)) = self.round.take() {
            self.qt.record(
                SpanKind::Round(self.round_idx),
                round_span,
                self.service_span,
                round_start,
                now,
            );
            self.round_idx += 1;
            self.segment_start = now;
        }
    }

    /// Records the service span, any abandoned sub-queries and the still
    /// open round, then hands the trace to the tracer's sampling decision.
    fn finish(mut self, tracer: &Tracer, status: SpanStatus, now: Nanos) {
        for (span, shard, sent_at) in std::mem::take(&mut self.outstanding) {
            if let Some((round_span, _)) = self.round {
                self.qt
                    .record(SpanKind::SubQuery { shard }, span, round_span, sent_at, now);
            }
        }
        self.close_round(now);
        let root = self.qt.root_span();
        self.qt.record(
            SpanKind::BrokerService,
            self.service_span,
            root,
            self.service_start,
            now,
        );
        tracer.finish(self.qt, status, now);
    }
}

/// What [`Port::send`] made of one per-shard group.
enum Sent<T> {
    /// On its way; [`Port::poll`] the ticket for the reply.
    InFlight(T),
    /// Refused before it left (rings admission or a full request ring):
    /// every item counts as rejected by the shard.
    Rejected,
    /// The port is unusable: a rings port whose earlier reply never came.
    Failed,
}

/// An engine's end of the broker→shard transport, as the one round
/// machine ([`Exec::run_round`]) drives it. `phys` is a physical replica
/// index (`s * R + r`). Neither transport can block on two replies at
/// once, so a hedge race polls.
trait Port {
    /// One in-flight group.
    type Ticket;

    /// Sends `group` to replica `phys`, taking its sub-queries and leaving
    /// an empty buffer behind. Only a `cancellable` send gets a ticket that
    /// [`Port::cancel`] can stop before the shard executes it.
    fn send(
        &mut self,
        phys: usize,
        group: &mut Vec<SubQuery>,
        ctx: Option<TraceContext>,
        cancellable: bool,
    ) -> Sent<Self::Ticket>;

    /// Waits up to `wait` (zero: just looks) for `ticket`'s reply.
    /// `Ok(true)`: the reply is staged in `resp` (one status per item of
    /// kinds `tags`) and the request's buffer is back in `hand_back`.
    /// `Ok(false)`: no reply yet. `Err`: none can ever be used.
    fn poll(
        &mut self,
        ticket: &Self::Ticket,
        wait: Duration,
        resp: &mut RepBatch,
        tags: &[SubTag],
        hand_back: &mut Vec<SubQuery>,
    ) -> Result<bool, PlanError>;

    /// Gives `ticket` up: a shard that has not started the group skips it.
    /// A reply arriving within `drain` is discarded; a port that
    /// correlates replies by order and sees none in time is unusable from
    /// then on.
    fn cancel(&mut self, ticket: Self::Ticket, drain: Duration);
}

/// Channel mode: one [`ShardClient`] per physical replica (in process or
/// TCP).
struct ChannelPort<'a>(&'a [Arc<dyn ShardClient>]);

struct ChannelTicket {
    rx: Receiver<Vec<SubOutcome>>,
    cancel: Option<CancelHandle>,
}

impl Port for ChannelPort<'_> {
    type Ticket = ChannelTicket;

    fn send(
        &mut self,
        phys: usize,
        group: &mut Vec<SubQuery>,
        ctx: Option<TraceContext>,
        cancellable: bool,
    ) -> Sent<ChannelTicket> {
        let subs = std::mem::take(group);
        let client = &self.0[phys];
        // Only hedged rounds cancel, so only they pay for a cancel flag.
        let (rx, cancel) = if cancellable {
            let (rx, cancel) = client.submit_batch_cancellable(subs, ctx);
            (rx, Some(cancel))
        } else {
            (client.submit_batch(subs, ctx), None)
        };
        Sent::InFlight(ChannelTicket { rx, cancel })
    }

    fn poll(
        &mut self,
        ticket: &ChannelTicket,
        wait: Duration,
        resp: &mut RepBatch,
        tags: &[SubTag],
        _hand_back: &mut Vec<SubQuery>,
    ) -> Result<bool, PlanError> {
        let outcomes = match ticket.rx.recv_timeout(wait) {
            Ok(outcomes) => outcomes,
            Err(RecvTimeoutError::Timeout) => return Ok(false),
            Err(RecvTimeoutError::Disconnected) => return Err(PlanError::ShardFailed),
        };
        // A reply of the wrong width is a protocol violation.
        if outcomes.len() != tags.len() {
            return Err(PlanError::ShardFailed);
        }
        for (outcome, &tag) in outcomes.into_iter().zip(tags) {
            if let Err(e) = stage_outcome(resp, tag, outcome) {
                // The race's other reply may still stage here.
                resp.clear();
                return Err(e);
            }
        }
        Ok(true)
    }

    fn cancel(&mut self, ticket: ChannelTicket, _drain: Duration) {
        // Replies correlate by channel: dropping the receiver discards
        // any late one.
        if let Some(cancel) = ticket.cancel {
            cancel.cancel();
        }
    }
}

/// Rings mode: this engine's private SPSC ring pair to every physical
/// replica, plus the hosts whose gates admit each batch producer-side.
struct RingPort<'a> {
    rings: Vec<ShardPortRings>,
    hosts: &'a [Arc<ShardHost>],
    /// Per pair: a reply never came. The ring protocol allows one
    /// outstanding request per pair and correlates replies by order, so a
    /// pair whose reply is missing can never be trusted again.
    poisoned: Vec<bool>,
    /// Where a cancelled loser's reply is drained, leaving the winner's
    /// response alone without allocating.
    discard: ShardRep,
}

struct RingTicket {
    phys: usize,
    /// Planted in the request slot; flipped to cancel.
    cancel: Option<Arc<AtomicBool>>,
}

impl<'a> RingPort<'a> {
    fn new(rings: Vec<ShardPortRings>, hosts: &'a [Arc<ShardHost>]) -> Self {
        assert_eq!(rings.len(), hosts.len(), "one ring port per physical shard host");
        // Moved into an allocation of the engine's own thread. The rig's
        // Vec was allocated next to the other engines' by the thread that
        // built the topology, and the ring ends' cached indices, written
        // on every push and pop, would share cache lines across engines.
        let mut own = Vec::with_capacity(rings.len());
        own.extend(rings);
        Self {
            poisoned: vec![false; own.len()],
            rings: own,
            hosts,
            discard: ShardRep::default(),
        }
    }
}

impl Port for RingPort<'_> {
    type Ticket = RingTicket;

    /// Admits at the replica's gate, then *swaps* the group into the ring
    /// slot: no copy, no allocation.
    fn send(
        &mut self,
        phys: usize,
        group: &mut Vec<SubQuery>,
        ctx: Option<TraceContext>,
        cancellable: bool,
    ) -> Sent<RingTicket> {
        if self.poisoned[phys] {
            return Sent::Failed;
        }
        let host = &self.hosts[phys];
        let Ok(now) = host.ring_admit() else {
            return Sent::Rejected;
        };
        let cancel = cancellable.then(|| Arc::new(AtomicBool::new(false)));
        let planted = cancel.clone();
        let req = &mut self.rings[phys].req;
        let depth = req.len() + 1;
        let pushed = req.try_push(|slot| {
            std::mem::swap(&mut slot.subs, group);
            slot.enqueued_at = now;
            slot.ctx = ctx;
            slot.cancel = planted;
            host.ring_enqueued(now, depth);
        });
        if !pushed {
            // A full request ring is the shard refusing work at its
            // (bounded) queue: a full-queue rejection, exactly like the
            // channel-mode gate.
            host.ring_reject_full(now);
            return Sent::Rejected;
        }
        Sent::InFlight(RingTicket { phys, cancel })
    }

    fn poll(
        &mut self,
        ticket: &RingTicket,
        wait: Duration,
        resp: &mut RepBatch,
        _tags: &[SubTag],
        hand_back: &mut Vec<SubQuery>,
    ) -> Result<bool, PlanError> {
        let got = self.rings[ticket.phys].rep.pop_wait(wait, |out| {
            std::mem::swap(&mut out.batch, resp);
            std::mem::swap(&mut out.subs, hand_back);
        });
        Ok(got.is_some())
    }

    fn cancel(&mut self, ticket: RingTicket, drain: Duration) {
        if let Some(flag) = &ticket.cancel {
            flag.store(true, Ordering::Release);
        }
        let discard = &mut self.discard;
        let rep = &mut self.rings[ticket.phys].rep;
        let drained = rep.pop_wait(drain, |out| std::mem::swap(out, discard));
        self.discard.batch.clear();
        self.discard.subs.clear();
        if drained.is_none() {
            self.poisoned[ticket.phys] = true;
        }
    }
}

/// Per-shard read cursors into the round's [`RepBatch`] response.
#[derive(Clone, Copy, Default)]
struct Cursor {
    status: usize,
    list: usize,
    count: usize,
    scalar: usize,
}

/// The sub-query kind staged for a round item, recorded at [`Exec::stage`]
/// time. Channel mode needs it to demultiplex `SubResponse`s into the
/// [`RepBatch`] lanes (`Degree` and `CountIntersect` both come back as
/// `Count`, but land in different lanes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SubTag {
    Neighbors,
    NeighborsMany,
    Degree,
    DegreeMany,
    HasEdge,
    CountIntersect,
}

fn tag_of(sub: &SubQuery) -> SubTag {
    match sub {
        SubQuery::Neighbors(_) => SubTag::Neighbors,
        SubQuery::NeighborsMany(_) => SubTag::NeighborsMany,
        SubQuery::Degree(_) => SubTag::Degree,
        SubQuery::DegreeMany(_) => SubTag::DegreeMany,
        SubQuery::HasEdge(_, _) => SubTag::HasEdge,
        SubQuery::CountIntersect(_, _) => SubTag::CountIntersect,
    }
}

/// An engine's reusable buffers. Everything here is allocated once per
/// engine thread and recycled across queries, which is what makes the
/// steady-state data path allocation-free in rings mode: after warm-up
/// every round runs entirely in buffers that already have capacity.
#[derive(Default)]
struct Scratch {
    /// Per-shard sub-query groups for the round being staged. Invariant:
    /// empty (but with retained capacity) between rounds. In rings mode
    /// these buffers circulate through the ring slots and come back via
    /// the reply's hand-back field.
    per_shard: Vec<Vec<SubQuery>>,
    /// Per-shard [`SubTag`]s, parallel to `per_shard` (the subs themselves
    /// move into the transport at send time).
    tags: Vec<Vec<SubTag>>,
    /// Shards used this round, in first-use order.
    shard_order: Vec<usize>,
    /// Owning shard per staged item, in staging order.
    slots: Vec<usize>,
    /// Per-engine hedge-delay estimator (hedged strategy only).
    hedge: HedgeDelay,
    /// Copies of each in-flight group's sub-queries for its duplicate,
    /// parallel to the round's flights (hedged strategy only: the
    /// originals move into the transport at send time).
    hedge_copies: Vec<Vec<SubQuery>>,
    /// Per-shard responses for the round just run.
    resp: Vec<RepBatch>,
    /// Per-shard read cursors into `resp`.
    cur: Vec<Cursor>,
    /// Per-shard vertex grouping for `NeighborsMany`/`DegreeMany`
    /// fan-out, as a flat two-pass counting layout (the CSR build in
    /// miniature): `group_ids` holds the staged vertices grouped by
    /// owning shard, `group_starts[s]..group_ends[s]` shard `s`'s range.
    /// One buffer instead of a Vec-of-Vecs keeps the grouping pass in a
    /// single allocation whatever the shard count.
    group_ids: Vec<VertexId>,
    group_starts: Vec<usize>,
    group_ends: Vec<usize>,
    /// Pool of payload allocations for `*Many`/`CountIntersect`
    /// sub-queries. An entry whose strong count has returned to 1 is free
    /// for reuse (`Arc::get_mut` + `clear`).
    payloads: Vec<Arc<Vec<VertexId>>>,
    // Plan-level working buffers (frontiers, neighbor lists, visited sets).
    nu: Vec<VertexId>,
    nv: Vec<VertexId>,
    frontier: Vec<VertexId>,
    next: Vec<VertexId>,
    seen: HashSet<VertexId>,
    seen2: HashSet<VertexId>,
}

impl Scratch {
    fn new(n_shards: usize) -> Self {
        Self {
            per_shard: (0..n_shards).map(|_| Vec::new()).collect(),
            tags: (0..n_shards).map(|_| Vec::new()).collect(),
            resp: (0..n_shards).map(|_| RepBatch::default()).collect(),
            cur: vec![Cursor::default(); n_shards],
            group_starts: vec![0; n_shards],
            group_ends: vec![0; n_shards],
            ..Default::default()
        }
    }

    /// A cleared, unshared payload buffer: recycled from the pool when an
    /// earlier round's payload has been released by every shard, freshly
    /// allocated otherwise. Callers push the `Arc` back into
    /// `self.payloads` after staging clones of it.
    fn acquire_payload(&mut self) -> Arc<Vec<VertexId>> {
        for i in 0..self.payloads.len() {
            if Arc::strong_count(&self.payloads[i]) == 1 {
                let mut arc = self.payloads.swap_remove(i);
                Arc::get_mut(&mut arc).expect("strong count was 1").clear();
                return arc;
            }
        }
        Arc::new(Vec::new())
    }
}

/// One in-flight group of a round: `(shard, replica, ticket, sub-query
/// span, sent at)`.
type Flight<T> = (usize, usize, T, Option<SpanId>, Nanos);

/// The per-engine plan executor: owns the scratch buffers and the shard
/// port, runs communication rounds, and exposes cursor-based readers over
/// the per-shard [`RepBatch`] responses. Replaces the channel-only
/// `PlanCtx` (whose per-round `Vec<(usize, SubQuery)>` / reassembled
/// `Vec<SubResponse>` allocations dominated the broker-side profile).
struct Exec<'a, P: Port> {
    port: P,
    n_shards: usize,
    router: &'a Router,
    /// Per-group reply deadline (see [`Exec::run_round`]).
    timeout: Duration,
    clock: &'a Arc<dyn Clock>,
    tracer: Option<&'a Tracer>,
    /// The running query's trace, if the broker traces.
    trace: Option<PlanTrace>,
    /// The round's in-flight groups, in send order.
    flights: Vec<Flight<P::Ticket>>,
    scratch: Scratch,
}

fn trace_send(
    trace: &mut Option<PlanTrace>,
    clock: &Arc<dyn Clock>,
    shard: usize,
) -> (Option<TraceContext>, Option<SpanId>) {
    match trace.as_mut() {
        Some(pt) => {
            let sub_span = pt.on_send(shard as u16, clock.now());
            (Some(pt.qt.ctx_for(sub_span)), Some(sub_span))
        }
        None => (None, None),
    }
}

fn trace_recv(trace: &mut Option<PlanTrace>, clock: &Arc<dyn Clock>, sub_span: Option<SpanId>) {
    if let (Some(pt), Some(span)) = (trace.as_mut(), sub_span) {
        pt.on_recv(span, clock.now());
    }
}

/// Demultiplexes one channel-mode [`SubOutcome`] into the shard's
/// [`RepBatch`] lanes, converging the two transports on one response
/// layout. A response shape that contradicts the tag is a protocol
/// violation and fails the plan.
fn stage_outcome(rep: &mut RepBatch, tag: SubTag, outcome: SubOutcome) -> Result<(), PlanError> {
    let resp = match outcome {
        SubOutcome::Rejected => {
            rep.status.push(RepStatus::Rejected);
            return Ok(());
        }
        SubOutcome::Error => {
            rep.status.push(RepStatus::Error);
            return Ok(());
        }
        SubOutcome::Cancelled => {
            rep.status.push(RepStatus::Cancelled);
            return Ok(());
        }
        SubOutcome::Ok(resp) => resp,
    };
    match (tag, resp) {
        (SubTag::Neighbors, SubResponse::Ids(ids)) => rep.lists.push(&ids),
        (SubTag::NeighborsMany, SubResponse::IdLists(lists)) => {
            for list in lists.iter() {
                rep.lists.push(list);
            }
        }
        (SubTag::Degree, SubResponse::Count(c)) => rep.counts.push(c as u32),
        (SubTag::DegreeMany, SubResponse::Counts(counts)) => rep.counts.extend_from_slice(&counts),
        (SubTag::HasEdge, SubResponse::Flag(b)) => rep.scalars.push(b as u64),
        (SubTag::CountIntersect, SubResponse::Count(c)) => rep.scalars.push(c),
        _ => return Err(PlanError::ShardFailed),
    }
    rep.status.push(RepStatus::Ok);
    Ok(())
}

impl<'a, P: Port> Exec<'a, P> {
    fn new(
        port: P,
        router: &'a Router,
        timeout: Duration,
        clock: &'a Arc<dyn Clock>,
        tracer: Option<&'a Tracer>,
    ) -> Self {
        let n_shards = router.in_flight.len() / router.replicas;
        Self {
            port,
            n_shards,
            router,
            timeout,
            clock,
            tracer,
            trace: None,
            flights: Vec::new(),
            scratch: Scratch::new(n_shards),
        }
    }

    fn shard_of(&self, v: VertexId) -> usize {
        v as usize % self.n_shards
    }

    /// Begins staging a round. (Defensive clears: the buffers are already
    /// empty between rounds, including on error paths.)
    fn round_begin(&mut self) {
        let sc = &mut self.scratch;
        sc.slots.clear();
        sc.shard_order.clear();
        for s in 0..self.n_shards {
            sc.per_shard[s].clear();
            sc.tags[s].clear();
        }
    }

    /// Stages one sub-query for shard `s` in the round being built.
    fn stage(&mut self, s: usize, sub: SubQuery) {
        let sc = &mut self.scratch;
        if sc.per_shard[s].is_empty() {
            sc.shard_order.push(s);
        }
        sc.tags[s].push(tag_of(&sub));
        sc.per_shard[s].push(sub);
        sc.slots.push(s);
    }

    /// Runs the staged round, the one fan-out round of every transport and
    /// strategy. Every per-shard group goes out, to the replica the
    /// broker's [`RouteStrategy`] picks, before any is waited for. Then
    /// every group is gathered, even after an error, so the round's spans
    /// close and every ring pair is left with no reply outstanding.
    /// Finally the per-item statuses are scanned **in staging order**: the
    /// first rejection (or error) wins. On `Ok`, the responses are readable
    /// via [`Exec::next_list`] / [`Exec::next_count`] / [`Exec::next_scalar`].
    ///
    /// The deadline rule: a group must answer by `sent_at + timeout`. When
    /// hedging, a group still silent after the engine's hedge delay gets
    /// one untraced duplicate on the next replica; only if that duplicate
    /// is actually sent does the deadline move to `fired_at + timeout`.
    /// Then the first reply wins and the loser is cancelled and drained.
    /// A group that misses its deadline fails the round.
    fn run_round(&mut self) -> Result<(), PlanError> {
        let Exec {
            port,
            router,
            timeout,
            clock,
            trace,
            flights,
            scratch: sc,
            ..
        } = self;
        let (router, timeout, clock) = (*router, *timeout, *clock);
        let hedging = router.hedging();
        let timeout_ns = timeout.as_nanos() as Nanos;
        let until = |at: Nanos| Duration::from_nanos(at.saturating_sub(clock.now()));
        let mut first_err = None;
        for oi in 0..sc.shard_order.len() {
            let s = sc.shard_order[oi];
            sc.resp[s].clear();
            sc.cur[s] = Cursor::default();
            // The duplicate's copy, taken before the original moves into
            // the transport. Cheap: sub-queries share payloads via `Arc`.
            let copy = if hedging { sc.per_shard[s].clone() } else { Vec::new() };
            let r = router.pick(s);
            let (ctx, sub_span) = trace_send(trace, clock, s);
            let sent_at = clock.now();
            match port.send(router.phys(s, r), &mut sc.per_shard[s], ctx, hedging) {
                Sent::InFlight(ticket) => {
                    router.begin(s, r);
                    router.note_routed(clock, s, r);
                    flights.push((s, r, ticket, sub_span, sent_at));
                    if hedging {
                        sc.hedge_copies.push(copy);
                    }
                }
                Sent::Rejected => {
                    // It never reached the shard: every item is rejected.
                    let n = sc.per_shard[s].len();
                    sc.resp[s].status.resize(n, RepStatus::Rejected);
                    sc.per_shard[s].clear();
                    trace_recv(trace, clock, sub_span);
                }
                Sent::Failed => {
                    sc.per_shard[s].clear();
                    trace_recv(trace, clock, sub_span);
                    first_err = first_err.or(Some(PlanError::ShardFailed));
                }
            }
        }
        let delay = if hedging { sc.hedge.current() } else { timeout };
        for (i, (s, r, ticket, sub_span, sent_at)) in flights.drain(..).enumerate() {
            let deadline = sent_at + timeout_ns;
            // Alone on the primary: wait out the hedge delay, then fire one
            // duplicate on the next replica, charging *its* gate. Unhedged,
            // or when the duplicate cannot be sent, wait until the deadline.
            let mut wait_until = sent_at + delay.min(timeout).as_nanos() as Nanos;
            let mut duplicate = None;
            let alone = loop {
                let got = port.poll(
                    &ticket,
                    until(wait_until),
                    &mut sc.resp[s],
                    &sc.tags[s],
                    &mut sc.per_shard[s],
                );
                if got != Ok(false) || wait_until >= deadline {
                    break got;
                }
                wait_until = deadline;
                let hr = (r + 1) % router.replicas;
                // Untraced: the loser appears only as the broker-side
                // `hedge_subquery` span, never as shard-side spans that
                // would pollute the winner's attribution.
                let phys = router.phys(s, hr);
                if let Sent::InFlight(dup) = port.send(phys, &mut sc.hedge_copies[i], None, true) {
                    let fired_at = clock.now();
                    router.begin(s, hr);
                    router.note_hedge_fired(fired_at, s, r, hr, delay.as_nanos() as Nanos);
                    duplicate = Some((hr, dup, fired_at));
                    break got;
                }
            };
            match duplicate {
                None => {
                    router.end(s, r);
                    match alone {
                        Ok(true) if hedging => sc.hedge.record(clock.now().saturating_sub(sent_at)),
                        Ok(true) => {}
                        failed => {
                            port.cancel(ticket, Duration::ZERO);
                            let e = failed.err().unwrap_or(PlanError::ShardFailed);
                            first_err = first_err.or(Some(e));
                        }
                    }
                }
                Some((hr, dup, fired_at)) => {
                    let deadline = fired_at + timeout_ns;
                    // Whether the primary (0) or the duplicate (1) can still answer.
                    let mut live = [true, true];
                    let primary_won = 'race: loop {
                        let racers =
                            [(&ticket, &mut sc.per_shard[s]), (&dup, &mut sc.hedge_copies[i])];
                        for (k, (t, hand_back)) in racers.into_iter().enumerate() {
                            if !live[k] {
                                continue;
                            }
                            let resp = &mut sc.resp[s];
                            match port.poll(t, Duration::ZERO, resp, &sc.tags[s], hand_back) {
                                Ok(true) => break 'race Some(k == 0),
                                Ok(false) => {}
                                Err(_) => live[k] = false,
                            }
                        }
                        if live == [false, false] || clock.now() >= deadline {
                            break None;
                        }
                        // A nap, not a yield: it hands the core to the
                        // shard engines whose replies the race waits on (a
                        // yield-spinning engine competes with them on a
                        // one-core host), and 20us is far below the 200us
                        // minimum hedge delay already waited.
                        std::thread::sleep(Duration::from_micros(20));
                    };
                    let now = clock.now();
                    match primary_won {
                        Some(primary_won) => {
                            let (loser, loser_r, loser_sent, winner_sent) = if primary_won {
                                (dup, hr, fired_at, sent_at)
                            } else {
                                (ticket, r, sent_at, fired_at)
                            };
                            router.note_hedge_cancelled(now, s, loser_r);
                            if let Some(pt) = trace.as_mut() {
                                pt.on_hedge_cancel(s as u16, loser_sent, now);
                            }
                            sc.hedge.record(now.saturating_sub(winner_sent));
                            // A loser cancelled at dequeue answers at once.
                            port.cancel(loser, timeout);
                        }
                        None => {
                            port.cancel(ticket, Duration::ZERO);
                            port.cancel(dup, Duration::ZERO);
                            first_err = first_err.or(Some(PlanError::ShardFailed));
                        }
                    }
                    router.end(s, r);
                    router.end(s, hr);
                }
            }
            trace_recv(trace, clock, sub_span);
            // Drop the handed-back sub-queries now (releasing their payload
            // `Arc`s back to the pool deterministically) but keep the buffer.
            sc.per_shard[s].clear();
        }
        sc.hedge_copies.clear();
        if let Some(e) = first_err {
            return Err(e);
        }
        for ii in 0..sc.slots.len() {
            let s = sc.slots[ii];
            let k = sc.cur[s].status;
            sc.cur[s].status += 1;
            match sc.resp[s].status.get(k).copied() {
                Some(RepStatus::Ok) => {}
                Some(RepStatus::Rejected) => return Err(PlanError::ShardRejected),
                // A `Cancelled` status on the winning reply would mean the
                // broker raced its own cancel — treat it like an error.
                Some(RepStatus::Error) | Some(RepStatus::Cancelled) | None => {
                    return Err(PlanError::ShardFailed)
                }
            }
        }
        Ok(())
    }

    /// The next unread neighbor list from shard `s`'s response.
    fn next_list(&mut self, s: usize) -> Result<&[VertexId], PlanError> {
        let i = self.scratch.cur[s].list;
        self.scratch.cur[s].list += 1;
        self.scratch.resp[s].lists.get(i).ok_or(PlanError::ShardFailed)
    }

    /// The next unread degree count from shard `s`'s response.
    fn next_count(&mut self, s: usize) -> Result<u32, PlanError> {
        let i = self.scratch.cur[s].count;
        self.scratch.cur[s].count += 1;
        self.scratch.resp[s]
            .counts
            .get(i)
            .copied()
            .ok_or(PlanError::ShardFailed)
    }

    /// The next unread scalar (flag / intersection count) from shard `s`.
    fn next_scalar(&mut self, s: usize) -> Result<u64, PlanError> {
        let i = self.scratch.cur[s].scalar;
        self.scratch.cur[s].scalar += 1;
        self.scratch.resp[s]
            .scalars
            .get(i)
            .copied()
            .ok_or(PlanError::ShardFailed)
    }

    fn degree(&mut self, v: VertexId) -> Result<u64, PlanError> {
        let s = self.shard_of(v);
        self.round_begin();
        self.stage(s, SubQuery::Degree(v));
        self.run_round()?;
        Ok(self.next_count(s)? as u64)
    }

    fn has_edge(&mut self, u: VertexId, v: VertexId) -> Result<bool, PlanError> {
        let s = self.shard_of(u);
        self.round_begin();
        self.stage(s, SubQuery::HasEdge(u, v));
        self.run_round()?;
        Ok(self.next_scalar(s)? != 0)
    }

    /// Runs a one-vertex `Neighbors` round; the list is readable (borrowed
    /// from the response buffer, no copy) via `next_list(s)` for the
    /// returned shard `s`.
    fn neighbors_round(&mut self, v: VertexId) -> Result<usize, PlanError> {
        let s = self.shard_of(v);
        self.round_begin();
        self.stage(s, SubQuery::Neighbors(v));
        self.run_round()?;
        Ok(s)
    }

    /// `Neighbors` round with the list copied into a caller buffer (for
    /// plans that need it across later rounds).
    fn neighbors_into(&mut self, v: VertexId, out: &mut Vec<VertexId>) -> Result<(), PlanError> {
        let s = self.neighbors_round(v)?;
        out.clear();
        let list = self.next_list(s)?;
        out.extend_from_slice(list);
        Ok(())
    }

    /// Both neighbor lists in one parallel round (one batch when both
    /// vertices live on the same shard), copied into caller buffers.
    fn neighbors_pair_into(
        &mut self,
        u: VertexId,
        v: VertexId,
        nu: &mut Vec<VertexId>,
        nv: &mut Vec<VertexId>,
    ) -> Result<(), PlanError> {
        let su = self.shard_of(u);
        let sv = self.shard_of(v);
        self.round_begin();
        self.stage(su, SubQuery::Neighbors(u));
        self.stage(sv, SubQuery::Neighbors(v));
        self.run_round()?;
        nu.clear();
        nu.extend_from_slice(self.next_list(su)?);
        nv.clear();
        nv.extend_from_slice(self.next_list(sv)?);
        Ok(())
    }

    /// One communication round: neighbor lists for every frontier vertex,
    /// grouped per owning shard (one `NeighborsMany` each, sharing a
    /// pooled payload buffer) and issued in parallel. Calls `each` once
    /// per frontier vertex, **in frontier order**, with that vertex's
    /// neighbor list — the lists stay in the round's flattened response
    /// buffers, so no per-vertex `Vec` is ever materialized broker-side.
    fn for_each_neighbors<F: FnMut(&[VertexId])>(
        &mut self,
        frontier: &[VertexId],
        mut each: F,
    ) -> Result<(), PlanError> {
        self.round_begin();
        self.stage_many(frontier, SubTag::NeighborsMany);
        self.run_round()?;
        for &v in frontier {
            let s = self.shard_of(v);
            each(self.next_list(s)?);
        }
        Ok(())
    }

    /// One `DegreeMany` round over `vs`; read back with
    /// `next_count(shard_of(v))` in `vs` order.
    fn degrees_many_round(&mut self, vs: &[VertexId]) -> Result<(), PlanError> {
        self.round_begin();
        self.stage_many(vs, SubTag::DegreeMany);
        self.run_round()
    }

    /// Groups `vs` per owning shard and stages one `*Many` sub-query per
    /// non-empty group, each carrying a pooled payload buffer. The
    /// grouping is a two-pass counting fill into one flat buffer —
    /// count per shard, prefix-sum into ranges, place each vertex at its
    /// shard's cursor — so staging order within a shard preserves `vs`
    /// order (the read-back contract) without per-shard Vecs.
    fn stage_many(&mut self, vs: &[VertexId], tag: SubTag) {
        let mut ids = std::mem::take(&mut self.scratch.group_ids);
        let mut starts = std::mem::take(&mut self.scratch.group_starts);
        let mut ends = std::mem::take(&mut self.scratch.group_ends);
        ids.clear();
        ids.resize(vs.len(), 0);
        ends.iter_mut().for_each(|e| *e = 0);
        for &v in vs {
            ends[self.shard_of(v)] += 1;
        }
        let mut acc = 0usize;
        for s in 0..ends.len() {
            let count = ends[s];
            starts[s] = acc;
            // `ends[s]` doubles as shard s's fill cursor until the
            // placement pass completes it back into the exclusive end.
            ends[s] = acc;
            acc += count;
        }
        for &v in vs {
            let s = self.shard_of(v);
            ids[ends[s]] = v;
            ends[s] += 1;
        }
        for s in 0..starts.len() {
            let g = &ids[starts[s]..ends[s]];
            if g.is_empty() {
                continue;
            }
            let mut payload = self.scratch.acquire_payload();
            Arc::get_mut(&mut payload)
                .expect("pooled payload is unshared")
                .extend_from_slice(g);
            let sub = match tag {
                SubTag::NeighborsMany => SubQuery::NeighborsMany(Arc::clone(&payload)),
                SubTag::DegreeMany => SubQuery::DegreeMany(Arc::clone(&payload)),
                _ => unreachable!("stage_many is only for *Many sub-queries"),
            };
            self.scratch.payloads.push(payload);
            self.stage(s, sub);
        }
        self.scratch.group_ids = ids;
        self.scratch.group_starts = starts;
        self.scratch.group_ends = ends;
    }
}

fn execute_plan<P: Port>(exec: &mut Exec<'_, P>, q: Query) -> Result<u64, PlanError> {
    match q.kind {
        QueryKind::Qt1Degree => exec.degree(q.u),
        QueryKind::Qt2EdgeExists => Ok(exec.has_edge(q.u, q.v)? as u64),
        QueryKind::Qt3NeighborsPage => {
            let s = exec.neighbors_round(q.u)?;
            let n = exec.next_list(s)?;
            Ok(n.len().min(PAGE) as u64)
        }
        QueryKind::Qt4NeighborsFull => {
            let s = exec.neighbors_round(q.u)?;
            let n = exec.next_list(s)?;
            // Broker-side post-processing: checksum the full list.
            let checksum: u64 = n
                .iter()
                .fold(0u64, |acc, &v| acc.wrapping_mul(31).wrapping_add(v as u64));
            Ok(n.len() as u64 ^ (checksum & 0xFF)) // len dominates; checksum folds in
        }
        QueryKind::Qt5MutualCount => {
            let mut nu = std::mem::take(&mut exec.scratch.nu);
            let mut nv = std::mem::take(&mut exec.scratch.nv);
            let prep = exec.neighbors_pair_into(q.u, q.v, &mut nu, &mut nv);
            let result = prep.map(|()| sorted_intersection_count(&nu, &nv));
            exec.scratch.nu = nu;
            exec.scratch.nv = nv;
            result
        }
        QueryKind::Qt6NeighborDegrees => {
            let mut sample = std::mem::take(&mut exec.scratch.frontier);
            sample.clear();
            let prep = exec.neighbors_round(q.u).and_then(|s| {
                let n = exec.next_list(s)?;
                sample.extend(n.iter().copied().take(DEGREE_SAMPLE));
                Ok(())
            });
            let result = prep.and_then(|()| {
                if sample.is_empty() {
                    return Ok(0);
                }
                exec.degrees_many_round(&sample)?;
                let mut sum = 0u64;
                for &v in &sample {
                    let s = exec.shard_of(v);
                    sum += exec.next_count(s)? as u64;
                }
                Ok(sum)
            });
            exec.scratch.frontier = sample;
            result
        }
        QueryKind::Qt7TwoHopCount => {
            let mut frontier = std::mem::take(&mut exec.scratch.frontier);
            let mut seen = std::mem::take(&mut exec.scratch.seen);
            seen.clear();
            let result = exec.neighbors_into(q.u, &mut frontier).and_then(|()| {
                frontier.truncate(TWO_HOP_CAP);
                if frontier.is_empty() {
                    return Ok(0);
                }
                exec.for_each_neighbors(&frontier, |list| seen.extend(list.iter().copied()))?;
                seen.remove(&q.u);
                Ok(seen.len() as u64)
            });
            exec.scratch.frontier = frontier;
            exec.scratch.seen = seen;
            result
        }
        QueryKind::Qt8TriangleCount => {
            // One shared, reference-counted neighbor list: every shard's
            // intersection sub-query borrows the same (pooled) allocation
            // instead of cloning the full list per target.
            let mut nu = std::mem::take(&mut exec.scratch.nu);
            let result = exec.neighbors_into(q.u, &mut nu).and_then(|()| {
                let mut payload = exec.scratch.acquire_payload();
                Arc::get_mut(&mut payload)
                    .expect("pooled payload is unshared")
                    .extend_from_slice(&nu);
                exec.round_begin();
                for &w in nu.iter().take(TRIANGLE_CAP) {
                    let s = exec.shard_of(w);
                    exec.stage(s, SubQuery::CountIntersect(w, Arc::clone(&payload)));
                }
                exec.scratch.payloads.push(payload);
                exec.run_round()?;
                let mut total = 0u64;
                for &w in nu.iter().take(TRIANGLE_CAP) {
                    let s = exec.shard_of(w);
                    total += exec.next_scalar(s)?;
                }
                Ok(total / 2) // each triangle counted from both endpoints
            });
            exec.scratch.nu = nu;
            result
        }
        QueryKind::Qt9CommonNetwork => {
            let mut nu = std::mem::take(&mut exec.scratch.nu);
            let mut nv = std::mem::take(&mut exec.scratch.nv);
            let mut network_u = std::mem::take(&mut exec.scratch.seen);
            let mut network_v = std::mem::take(&mut exec.scratch.seen2);
            network_u.clear();
            network_v.clear();
            let result = exec
                .neighbors_pair_into(q.u, q.v, &mut nu, &mut nv)
                .and_then(|()| {
                    nu.truncate(COMMON_CAP);
                    nv.truncate(COMMON_CAP);
                    if !nu.is_empty() {
                        exec.for_each_neighbors(&nu, |list| {
                            network_u.extend(list.iter().copied())
                        })?;
                    }
                    let mut overlap = 0u64;
                    if !nv.is_empty() {
                        exec.for_each_neighbors(&nv, |list| {
                            for &w in list {
                                if network_v.insert(w) && network_u.contains(&w) {
                                    overlap += 1;
                                }
                            }
                        })?;
                    }
                    Ok(overlap)
                });
            exec.scratch.nu = nu;
            exec.scratch.nv = nv;
            exec.scratch.seen = network_u;
            exec.scratch.seen2 = network_v;
            result
        }
        QueryKind::Qt10Distance3 => bfs_distance(exec, q.u, q.v, 3, BFS3_CAP),
        QueryKind::Qt11Distance4 => bfs_distance(exec, q.u, q.v, 4, BFS4_CAP),
    }
}

/// Bounded breadth-first distance search: one communication round per hop,
/// exactly the multi-round broker/shard interaction of §5.1.
fn bfs_distance<P: Port>(
    exec: &mut Exec<'_, P>,
    from: VertexId,
    to: VertexId,
    max_hops: u32,
    frontier_cap: usize,
) -> Result<u64, PlanError> {
    if from == to {
        return Ok(0);
    }
    let mut visited = std::mem::take(&mut exec.scratch.seen);
    let mut frontier = std::mem::take(&mut exec.scratch.frontier);
    let mut next = std::mem::take(&mut exec.scratch.next);
    visited.clear();
    frontier.clear();
    visited.insert(from);
    frontier.push(from);
    let mut result = Ok(u64::MAX);
    for hop in 1..=max_hops {
        frontier.truncate(frontier_cap);
        next.clear();
        let mut found = false;
        let round = exec.for_each_neighbors(&frontier, |list| {
            if found {
                return;
            }
            for &w in list {
                if w == to {
                    found = true;
                    return;
                }
                if visited.insert(w) {
                    next.push(w);
                }
            }
        });
        if let Err(e) = round {
            result = Err(e);
            break;
        }
        if found {
            result = Ok(hop as u64);
            break;
        }
        if next.is_empty() {
            break;
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    exec.scratch.seen = visited;
    exec.scratch.frontier = frontier;
    exec.scratch.next = next;
    result
}

/// `|a ∩ b|` for sorted slices: the broker-local fallback rides the same
/// adaptive merge/gallop kernel as the shard `CountIntersect` path.
fn sorted_intersection_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    crate::graph::intersect_count(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, GraphConfig};
    use crate::shard::{ShardConfig, ShardHost};
    use crate::transport::InProcShardClient;
    use bouncer_core::policy::AlwaysAccept;
    use bouncer_metrics::MonotonicClock;

    fn mini_cluster(n_shards: usize) -> (Graph, Vec<Arc<ShardHost>>, Arc<Broker>) {
        let g = Graph::generate(&GraphConfig {
            vertices: 2_000,
            edges_per_vertex: 4,
            seed: 21,
        });
        let clock: Arc<MonotonicClock> = Arc::new(MonotonicClock::new());
        let hosts: Vec<Arc<ShardHost>> = (0..n_shards)
            .map(|s| {
                ShardHost::spawn(
                    Arc::new(g.shard_slice(s, n_shards)),
                    Arc::new(AlwaysAccept::new()),
                    clock.clone(),
                    ShardConfig::default(),
                )
            })
            .collect();
        let clients: Vec<Arc<dyn ShardClient>> = hosts
            .iter()
            .map(|h| Arc::new(InProcShardClient::new(Arc::clone(h))) as Arc<dyn ShardClient>)
            .collect();
        let broker = Broker::spawn(
            clients,
            Arc::new(AlwaysAccept::new()),
            clock,
            BrokerConfig::default(),
        );
        (g, hosts, broker)
    }

    fn teardown(hosts: Vec<Arc<ShardHost>>, broker: Arc<Broker>) {
        broker.shutdown();
        for h in hosts {
            h.shutdown();
        }
    }

    #[test]
    fn degree_and_edge_queries_match_graph() {
        let (g, hosts, broker) = mini_cluster(4);
        for u in [0u32, 7, 100, 999] {
            let got = broker.execute(Query {
                kind: QueryKind::Qt1Degree,
                u,
                v: 0,
            });
            assert_eq!(got, ClientOutcome::Ok(g.degree(u) as u64));
        }
        let u = 10;
        let v = g.neighbors(u)[0];
        assert_eq!(
            broker.execute(Query {
                kind: QueryKind::Qt2EdgeExists,
                u,
                v
            }),
            ClientOutcome::Ok(1)
        );
        teardown(hosts, broker);
    }

    #[test]
    fn mutual_count_matches_bruteforce() {
        let (g, hosts, broker) = mini_cluster(4);
        let u = 5;
        let v = 6;
        let expected = g
            .neighbors(u)
            .iter()
            .filter(|n| g.neighbors(v).binary_search(n).is_ok())
            .count() as u64;
        assert_eq!(
            broker.execute(Query {
                kind: QueryKind::Qt5MutualCount,
                u,
                v
            }),
            ClientOutcome::Ok(expected)
        );
        teardown(hosts, broker);
    }

    #[test]
    fn two_hop_count_matches_bruteforce() {
        let (g, hosts, broker) = mini_cluster(3);
        let u = 50;
        // Brute force with the same cap semantics.
        let frontier: Vec<u32> = g.neighbors(u).iter().copied().take(TWO_HOP_CAP).collect();
        let mut seen: HashSet<u32> = HashSet::new();
        for &w in &frontier {
            seen.extend(g.neighbors(w).iter().copied());
        }
        seen.remove(&u);
        assert_eq!(
            broker.execute(Query {
                kind: QueryKind::Qt7TwoHopCount,
                u,
                v: 0
            }),
            ClientOutcome::Ok(seen.len() as u64)
        );
        teardown(hosts, broker);
    }

    #[test]
    fn bfs_distance_finds_neighbors_at_hop_one() {
        let (g, hosts, broker) = mini_cluster(4);
        let u = 30;
        let v = g.neighbors(u)[0];
        assert_eq!(
            broker.execute(Query {
                kind: QueryKind::Qt10Distance3,
                u,
                v
            }),
            ClientOutcome::Ok(1)
        );
        assert_eq!(
            broker.execute(Query {
                kind: QueryKind::Qt11Distance4,
                u,
                v
            }),
            ClientOutcome::Ok(1)
        );
        teardown(hosts, broker);
    }

    #[test]
    fn bfs_distance_two_for_neighbor_of_neighbor() {
        let (g, hosts, broker) = mini_cluster(2);
        // Find a vertex at exact distance 2 from u: neighbor-of-neighbor
        // that is not a direct neighbor.
        let u = 40;
        let mut target = None;
        'outer: for &w in g.neighbors(u) {
            for &x in g.neighbors(w) {
                if x != u && g.neighbors(u).binary_search(&x).is_err() {
                    target = Some(x);
                    break 'outer;
                }
            }
        }
        let v = target.expect("graph should have a 2-hop vertex");
        assert_eq!(
            broker.execute(Query {
                kind: QueryKind::Qt10Distance3,
                u,
                v
            }),
            ClientOutcome::Ok(2)
        );
        teardown(hosts, broker);
    }

    #[test]
    fn all_query_kinds_execute_successfully() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let (g, hosts, broker) = mini_cluster(4);
        let mut rng = SmallRng::seed_from_u64(77);
        for kind in QueryKind::ALL {
            for _ in 0..5 {
                let q = Query::random(kind, g.vertex_count(), &mut rng);
                match broker.execute(q) {
                    ClientOutcome::Ok(_) => {}
                    other => panic!("{kind:?} -> {other:?}"),
                }
            }
        }
        let snap = broker.stats().snapshot(1, broker.parallelism());
        assert_eq!(
            snap.per_type.iter().map(|t| t.completed).sum::<u64>(),
            55
        );
        teardown(hosts, broker);
    }

    #[test]
    fn broker_rejection_is_early() {
        let (g, hosts, _ignored) = mini_cluster(2);
        let clients: Vec<Arc<dyn ShardClient>> = hosts
            .iter()
            .map(|h| Arc::new(InProcShardClient::new(Arc::clone(h))) as Arc<dyn ShardClient>)
            .collect();
        // A broker whose policy rejects everything after the queue holds 0
        // entries (MaxQL(1) with an engine that we keep busy is racy; use a
        // 0-capacity gate via max_queue_len=0 instead).
        let broker = Broker::spawn(
            clients,
            Arc::new(AlwaysAccept::new()),
            Arc::new(MonotonicClock::new()),
            BrokerConfig {
                engines: 1,
                max_queue_len: Some(0),
                ..BrokerConfig::default()
            },
        );
        // With a zero-length queue every offer is rejected as QueueFull.
        let out = broker.execute(Query {
            kind: QueryKind::Qt1Degree,
            u: 0,
            v: 0,
        });
        assert_eq!(out, ClientOutcome::Rejected(RejectReason::QueueFull));
        let _ = g;
        teardown(hosts, broker);
    }

    #[test]
    fn shutdown_joins_engines_even_with_extra_arc_clones() {
        let (_g, hosts, broker) = mini_cluster(2);
        assert_eq!(
            broker.engines_running(),
            BrokerConfig::default().engines as usize
        );
        // Keep extra strong references alive across shutdown — the seed's
        // `Arc::get_mut` guard silently skipped the joins in this case.
        let extra_broker = Arc::clone(&broker);
        let extra_hosts: Vec<_> = hosts.iter().map(Arc::clone).collect();
        teardown(hosts, broker);
        assert_eq!(extra_broker.engines_running(), 0);
        for h in &extra_hosts {
            assert_eq!(h.engines_running(), 0);
        }
        // Idempotent: a second shutdown finds nothing left to join.
        extra_broker.shutdown();
        assert_eq!(extra_broker.engines_running(), 0);
    }

    #[test]
    fn sorted_intersection_counts() {
        assert_eq!(sorted_intersection_count(&[1, 2, 3], &[2, 3, 4]), 2);
        assert_eq!(sorted_intersection_count(&[], &[1]), 0);
        assert_eq!(sorted_intersection_count(&[5], &[5]), 1);
    }

    /// Tracks one shard host's queue depth from its event stream and, while
    /// `slow` is set, stalls every dequeue so the host replies late.
    #[derive(Debug, Default)]
    struct StallingProbe {
        slow: AtomicBool,
        depth: std::sync::atomic::AtomicI64,
    }

    impl EventSink for StallingProbe {
        fn emit(&self, event: &Event) {
            match event {
                Event::Enqueued { .. } => {
                    self.depth.fetch_add(1, Ordering::SeqCst);
                }
                Event::Dequeued { .. } | Event::Expired { .. } => {
                    self.depth.fetch_sub(1, Ordering::SeqCst);
                    if self.slow.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
                _ => {}
            }
        }
    }

    /// The rings twin of `tests/failure.rs::hedged_fanout_masks_a_straggling_replica`:
    /// with the primary replica stalling every dequeue, each query's hedge
    /// fires and wins, every race cancels and drains its loser, demand
    /// returns to zero on both replicas, and no ring port is left poisoned.
    #[test]
    fn rings_hedge_race_masks_a_straggling_replica() {
        let g = Graph::generate(&GraphConfig {
            vertices: 2_000,
            edges_per_vertex: 4,
            seed: 21,
        });
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let replicas = 2;
        let broker_cfg = BrokerConfig {
            subquery_timeout: Duration::from_secs(2),
            ..BrokerConfig::default()
        };
        let shard_engines = ShardConfig::default().engines as usize;
        let (mut brigs, srigs) = crate::rings::build_topology(
            1,
            broker_cfg.engines as usize,
            1,
            shard_engines,
            replicas,
        );
        let slice = Arc::new(g.shard_slice(0, 1));
        // Shard 0's primary is replica 0: only that host stalls.
        let probes: Vec<Arc<StallingProbe>> = (0..replicas)
            .map(|r| {
                let probe = StallingProbe::default();
                probe.slow.store(r == 0, Ordering::SeqCst);
                Arc::new(probe)
            })
            .collect();
        let hosts: Vec<Arc<ShardHost>> = srigs
            .into_iter()
            .zip(&probes)
            .map(|(rig, probe)| {
                ShardHost::spawn_rings(
                    Arc::clone(&slice),
                    Arc::new(AlwaysAccept::new()),
                    clock.clone(),
                    ShardConfig {
                        sink: Some(probe.clone()),
                        ..ShardConfig::default()
                    },
                    rig,
                )
            })
            .collect();
        let broker = Broker::spawn_rings(
            hosts.clone(),
            replicas,
            RouteStrategy::Hedged,
            Arc::new(AlwaysAccept::new()),
            clock,
            broker_cfg,
            brigs.remove(0),
        );
        let qt1 = |u| Query {
            kind: QueryKind::Qt1Degree,
            u,
            v: 0,
        };
        for u in 0..20 {
            assert_eq!(broker.execute(qt1(u)), ClientOutcome::Ok(g.degree(u) as u64), "u={u}");
        }
        let hc = broker.hedge_counters();
        assert!(hc.hedges >= 20, "expected a hedge per query, got {hc:?}");
        assert_eq!(hc.cancels, hc.hedges, "every race cancels its loser: {hc:?}");
        for (r, probe) in probes.iter().enumerate() {
            assert_eq!(probe.depth.load(Ordering::SeqCst), 0, "replica {r} depth at quiescence");
        }
        // Back at full speed: a poisoned port would fail these.
        probes[0].slow.store(false, Ordering::SeqCst);
        for u in 20..40 {
            assert_eq!(broker.execute(qt1(u)), ClientOutcome::Ok(g.degree(u) as u64), "u={u}");
        }
        teardown(hosts, broker);
    }

    #[test]
    fn registry_and_type_ids_line_up() {
        let reg = liquid_registry();
        assert_eq!(reg.len(), 12);
        for kind in QueryKind::ALL {
            let ty = kind_type_id(kind);
            assert_eq!(reg.name(ty), kind.name());
        }
    }
}
