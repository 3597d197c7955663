//! A shard host: one slice of the graph plus the admission-controlled query
//! engine that serves sub-queries over it.
//!
//! "Brokers and shards implement the admission control framework described
//! in §3. They run a configurable number of query engine processes that
//! cycle between obtaining an admitted (sub-)query from the FIFO queue and
//! processing it." In the paper's evaluation, shards — where CPU is the
//! limiting resource — always run the AcceptFraction policy (§5.4).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bouncer_core::framework::{Gate, GateConfig, ServerStats, TakeOutcome, Ticker};
use bouncer_core::obs::{null_sink, Event, EventSink, SpanKind, TraceContext, Tracer};
use bouncer_core::policy::{AdmissionPolicy, RejectReason};
use bouncer_core::types::DEFAULT_TYPE;
use bouncer_metrics::spsc::Waker;
use bouncer_metrics::{Clock, Nanos};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::graph::{self, ShardData};
use crate::query::{IdLists, RepBatch, RepStatus, SubQuery, SubResponse};
use crate::rings::{ShardEngineRig, ShardRig};

/// Outcome of a sub-query as observed by the calling broker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubOutcome {
    /// The shard serviced the sub-query.
    Ok(SubResponse),
    /// The shard's admission control rejected it.
    Rejected,
    /// The shard failed to process it (bad vertex, internal error).
    Error,
    /// The caller cancelled it (a hedged duplicate whose twin won) before
    /// an engine executed it. The dequeue already refunded the batch's
    /// demand, and no processing time is recorded.
    Cancelled,
}

/// A unit of admitted work: a round's whole batch from one broker. A batch
/// is one gate offer (one admission decision, one FIFO entry) and one reply
/// send, so fan-out cost does not scale channel allocations with the number
/// of sub-queries.
struct Job {
    subs: Vec<SubQuery>,
    reply: Sender<Vec<SubOutcome>>,
    /// Trace context of the parent (per-shard) sub-query span.
    ctx: Option<TraceContext>,
    /// Cancellation token, set by the broker when a hedged twin won.
    /// Checked once, at dequeue — after the demand refund, before any
    /// execution.
    cancel: Option<Arc<AtomicBool>>,
}

impl Job {
    /// Replies `outcome` for every item without executing any.
    fn answer_all(self, outcome: SubOutcome) {
        let _ = self.reply.send(vec![outcome; self.subs.len()]);
    }
}

/// Configuration for a shard host.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Engine threads (`|PU|` on this host).
    pub engines: u32,
    /// `L_limit` on the FIFO queue.
    pub max_queue_len: Option<usize>,
    /// Policy maintenance period.
    pub tick_period: Duration,
    /// Optional observability sink for this host's gate (lifecycle events
    /// with wall-clock timestamps, plus the policy's interval events).
    pub sink: Option<Arc<dyn EventSink>>,
    /// Optional tracer. Shard engines emit `shard_queue` / `shard_service`
    /// spans for sub-queries whose incoming context has the `sampled` bit
    /// set; without a tracer the per-sub-query cost is one `Option` test.
    pub tracer: Option<Arc<Tracer>>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            engines: 2,
            max_queue_len: Some(800),
            tick_period: Duration::from_millis(100),
            sink: None,
            tracer: None,
        }
    }
}

/// The admission gate of a cluster host, broker or shard: `policy` over
/// `n_types` stats slots, a FIFO of at most `max_queue_len`, and
/// lifecycle events into `sink` (the null sink when `None`).
pub(crate) fn host_gate<J>(
    policy: Arc<dyn AdmissionPolicy>,
    n_types: usize,
    clock: Arc<dyn Clock>,
    max_queue_len: Option<usize>,
    sink: Option<Arc<dyn EventSink>>,
) -> Arc<Gate<J>> {
    let cfg = GateConfig { max_queue_len };
    Arc::new(Gate::new_with_sink(policy, n_types, clock, cfg, sink.unwrap_or_else(null_sink)))
}

/// Emits a rings engine's `engine_state` park/resume breadcrumb through
/// its host gate's sink (a no-op unless an observing sink — recorder,
/// JSONL — is attached).
pub(crate) fn engine_state<J>(gate: &Gate<J>, engine: u32, parked: bool) {
    let sink = gate.sink();
    if sink.enabled() {
        sink.emit(&Event::EngineState {
            at: gate.clock().now(),
            engine,
            parked,
        });
    }
}

/// Shutdown handle for rings-mode engines: they wait on SPSC wakers, not
/// on the gate's FIFO, so shutdown must set the flag and wake them.
struct RingsShutdown {
    stop: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
}

/// A running shard host.
pub struct ShardHost {
    gate: Arc<Gate<Job>>,
    /// Engine threads, joined (exactly once) by [`ShardHost::shutdown`].
    /// Held behind a mutex so shutdown joins regardless of how many `Arc`
    /// clones of the host are still alive.
    engines: Mutex<Vec<JoinHandle<()>>>,
    _ticker: Ticker,
    parallelism: u32,
    rings: Option<RingsShutdown>,
}

impl ShardHost {
    /// Spawns the shard's engine threads over `data`, gating admissions
    /// with `policy`. `data` is shared, not owned: replica hosts of the
    /// same logical shard pass clones of one `Arc` and serve one CSR build.
    pub fn spawn(
        data: Arc<ShardData>,
        policy: Arc<dyn AdmissionPolicy>,
        clock: Arc<dyn Clock>,
        cfg: ShardConfig,
    ) -> Arc<Self> {
        assert!(cfg.engines > 0);
        // Shard-side stats are type-oblivious, like its policy.
        let gate: Arc<Gate<Job>> =
            host_gate(policy.clone(), 1, clock.clone(), cfg.max_queue_len, cfg.sink.clone());
        let tracer = cfg.tracer.filter(|t| t.enabled());
        let engines = (0..cfg.engines)
            .map(|i| {
                let gate = Arc::clone(&gate);
                let data = Arc::clone(&data);
                let tracer = tracer.clone();
                std::thread::Builder::new()
                    .name(format!("shard{}-engine{}", data.shard(), i))
                    .spawn(move || engine_loop(&gate, &data, tracer.as_deref()))
                    .expect("failed to spawn shard engine")
            })
            .collect();
        let ticker = Ticker::spawn(policy, clock, cfg.tick_period);
        Arc::new(Self {
            gate,
            engines: Mutex::new(engines),
            _ticker: ticker,
            parallelism: cfg.engines,
            rings: None,
        })
    }

    /// Spawns the shard in rings mode: one engine thread per
    /// [`ShardEngineRig`], each servicing its own set of SPSC ring pairs
    /// instead of the gate's shared FIFO. The gate still runs the
    /// admission policy and stats; its internal queue stays empty
    /// (admission and dequeue are driven through the gate's external
    /// hooks, producer-side by the broker and consumer-side here).
    pub(crate) fn spawn_rings(
        data: Arc<ShardData>,
        policy: Arc<dyn AdmissionPolicy>,
        clock: Arc<dyn Clock>,
        cfg: ShardConfig,
        rig: ShardRig,
    ) -> Arc<Self> {
        assert_eq!(
            rig.engines.len(),
            cfg.engines as usize,
            "ring topology must match engine count"
        );
        let gate: Arc<Gate<Job>> =
            host_gate(policy.clone(), 1, clock.clone(), cfg.max_queue_len, cfg.sink.clone());
        let tracer = cfg.tracer.filter(|t| t.enabled());
        let stop = Arc::new(AtomicBool::new(false));
        let wakers: Vec<Arc<Waker>> = rig.engines.iter().map(|e| Arc::clone(&e.waker)).collect();
        let engines = rig
            .engines
            .into_iter()
            .enumerate()
            .map(|(i, engine_rig)| {
                let gate = Arc::clone(&gate);
                let data = Arc::clone(&data);
                let tracer = tracer.clone();
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("shard{}-ring{}", data.shard(), i))
                    .spawn(move || {
                        rings_engine_loop(&gate, i as u32, &data, engine_rig, &stop, tracer.as_deref())
                    })
                    .expect("failed to spawn shard ring engine")
            })
            .collect();
        let ticker = Ticker::spawn(policy, clock, cfg.tick_period);
        Arc::new(Self {
            gate,
            engines: Mutex::new(engines),
            _ticker: ticker,
            parallelism: cfg.engines,
            rings: Some(RingsShutdown { stop, wakers }),
        })
    }

    /// Rings-mode admission: runs the policy and, on acceptance, returns
    /// the timestamp to stamp on the request. Called by the *broker*
    /// engine (the ring producer) before pushing a round's batch.
    pub(crate) fn ring_admit(&self) -> Result<Nanos, RejectReason> {
        self.gate.admit_external(DEFAULT_TYPE)
    }

    /// Rings-mode enqueue bookkeeping. Called from inside the ring push's
    /// fill closure, so it runs only for a push that succeeds and before
    /// the shard engine can see (and dequeue) the batch.
    pub(crate) fn ring_enqueued(&self, enqueued_at: Nanos, queue_len: usize) {
        self.gate.enqueued_external(DEFAULT_TYPE, enqueued_at, queue_len);
    }

    /// Rings-mode queue-full rejection: the request ring had no room.
    pub(crate) fn ring_reject_full(&self, at: Nanos) {
        self.gate.reject_full_external(DEFAULT_TYPE, at);
    }

    /// Offers a round's sub-queries as **one** admission unit; the returned
    /// channel yields one outcome per sub-query, in submission order. A
    /// rejection rejects the whole batch and is delivered immediately (the
    /// early rejection of §2). An empty batch resolves immediately without
    /// touching the gate.
    ///
    /// When `ctx` is sampled, the serving engine emits a single
    /// `shard_queue` / `shard_service` span pair for the whole batch,
    /// parented under `ctx.parent` (the broker's per-shard sub-query span).
    pub fn submit_batch(
        &self,
        subs: Vec<SubQuery>,
        ctx: Option<TraceContext>,
    ) -> Receiver<Vec<SubOutcome>> {
        self.submit_batch_inner(subs, ctx, None)
    }

    /// [`ShardHost::submit_batch`] plus a cancellation token. Setting the
    /// returned flag before an engine dequeues the batch makes the engine
    /// skip execution and reply [`SubOutcome::Cancelled`] per item — the
    /// dequeue's demand refund still happens, and no processing time is
    /// recorded, so cancelled work never pollutes the policy's estimates.
    /// Setting the flag after dequeue is a harmless no-op (the batch
    /// executes and replies normally); a reply always arrives either way.
    pub fn submit_batch_cancellable(
        &self,
        subs: Vec<SubQuery>,
        ctx: Option<TraceContext>,
    ) -> (Receiver<Vec<SubOutcome>>, Arc<AtomicBool>) {
        let cancel = Arc::new(AtomicBool::new(false));
        let rx = self.submit_batch_inner(subs, ctx, Some(Arc::clone(&cancel)));
        (rx, cancel)
    }

    fn submit_batch_inner(
        &self,
        subs: Vec<SubQuery>,
        ctx: Option<TraceContext>,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Receiver<Vec<SubOutcome>> {
        let (tx, rx) = bounded(1);
        if subs.is_empty() {
            let _ = tx.send(Vec::new());
            return rx;
        }
        // The sender moves into the job; a rejection replies through the
        // job the gate hands back.
        if let Err((_reason, job)) = self.gate.offer(
            DEFAULT_TYPE,
            Job {
                subs,
                reply: tx,
                ctx,
                cancel,
            },
        ) {
            job.answer_all(SubOutcome::Rejected);
        }
        rx
    }

    /// This host's statistics.
    pub fn stats(&self) -> &Arc<ServerStats> {
        self.gate.stats()
    }

    /// Engine parallelism (`|PU|`).
    pub fn parallelism(&self) -> u32 {
        self.parallelism
    }

    /// Current FIFO queue length.
    pub fn queue_len(&self) -> usize {
        self.gate.queue_len()
    }

    /// Stops the engines and waits for them to exit.
    ///
    /// Always joins, no matter how many `Arc` clones of the host are still
    /// held elsewhere (the seed only joined when the caller happened to
    /// hold the last strong reference, silently leaking the engine threads
    /// otherwise). Idempotent: later calls find no handles left.
    pub fn shutdown(&self) {
        self.gate.close();
        if let Some(rings) = &self.rings {
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
    /// [`ShardHost::shutdown`] returns.
    pub fn engines_running(&self) -> usize {
        self.engines.lock().len()
    }
}

/// Emits a served batch's `shard_queue` / `shard_service` span pair when
/// its context is sampled: one pair per batch, matching its one FIFO
/// entry. Eager, before the reply, so the broker never finalizes a trace
/// whose shard spans are still in flight.
fn emit_spans(
    tracer: Option<&Tracer>,
    gate: &Gate<Job>,
    shard: u16,
    ctx: Option<TraceContext>,
    enqueued_at: Nanos,
    dequeued_at: Nanos,
) {
    if let (Some(tracer), Some(ctx)) = (tracer, ctx) {
        if ctx.sampled {
            tracer.emit_span(
                ctx.trace,
                SpanKind::ShardQueue { shard },
                ctx.parent,
                enqueued_at,
                dequeued_at,
            );
            tracer.emit_span(
                ctx.trace,
                SpanKind::ShardService { shard },
                ctx.parent,
                dequeued_at,
                gate.clock().now(),
            );
        }
    }
}

fn engine_loop(gate: &Gate<Job>, data: &ShardData, tracer: Option<&Tracer>) {
    let shard = data.shard() as u16;
    loop {
        match gate.take(Some(Duration::from_millis(100))) {
            TakeOutcome::Query(admitted) => {
                let (ty, enqueued_at, dequeued_at) =
                    (admitted.ty, admitted.enqueued_at, admitted.dequeued_at);
                let job = admitted.payload;
                // A cancelled batch stops here: the dequeue above already
                // refunded its demand, and skipping `complete` keeps it out
                // of the processing-time average — the same shape as the
                // expiry path.
                if job.cancel.as_ref().is_some_and(|c| c.load(Ordering::Acquire)) {
                    job.answer_all(SubOutcome::Cancelled);
                    continue;
                }
                // Items run sequentially in submission order, as if
                // submitted back-to-back to an idle FIFO.
                let outcomes: Vec<SubOutcome> = job
                    .subs
                    .iter()
                    .map(|sub| match execute(data, sub) {
                        Some(resp) => SubOutcome::Ok(resp),
                        None => SubOutcome::Error,
                    })
                    .collect();
                gate.complete(ty, enqueued_at, dequeued_at);
                emit_spans(tracer, gate, shard, job.ctx, enqueued_at, dequeued_at);
                let _ = job.reply.send(outcomes);
            }
            TakeOutcome::Expired(admitted) => {
                // Shards do not currently set sub-query deadlines; if one
                // arrives expired, answer with an error rather than waste
                // engine time on it.
                admitted.payload.answer_all(SubOutcome::Error);
            }
            TakeOutcome::TimedOut => {}
            TakeOutcome::Closed => return,
        }
    }
}

/// Rings-mode engine loop: sweep this engine's ring pairs, execute each
/// popped batch straight into the reply slot's [`RepBatch`], and park on
/// the engine waker when every ring is empty. Steady state touches no lock
/// and allocates nothing: request `subs` buffers and reply batches live in
/// the ring slots and are cleared, not dropped.
fn rings_engine_loop(
    gate: &Gate<Job>,
    engine: u32,
    data: &ShardData,
    mut rig: ShardEngineRig,
    stop: &AtomicBool,
    tracer: Option<&Tracer>,
) {
    let shard = data.shard() as u16;
    rig.waker.register_current();
    // Shard engines get a distinct `engine_state` index space from broker
    // engines: shard s engine i reports as 1000·(s+1)+i. Transitions
    // only — see the broker loop's breadcrumb note.
    let engine = 1000 * (data.shard() as u32 + 1) + engine;
    let mut idle = false;
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let mut worked = false;
        for (req, rep) in rig.ports.iter_mut() {
            // Execute inside the pop closure: the slot is ours until the
            // closure returns, and with at most one outstanding request
            // per pair nothing waits on the slot being released early.
            // The `subs` buffer travels back inside the reply so the
            // broker reclaims it (and the payload `Arc`s it holds) the
            // moment it pops — no cross-thread drop races.
            let serviced = req.try_pop(|slot| {
                let subs = std::mem::take(&mut slot.subs);
                let enqueued_at = slot.enqueued_at;
                let ctx = slot.ctx;
                let cancelled = slot
                    .cancel
                    .take()
                    .is_some_and(|c| c.load(Ordering::Acquire));
                let (dequeued_at, _expired) =
                    gate.dequeued_external(DEFAULT_TYPE, enqueued_at, None);
                let pushed = rep.try_push(|out| {
                    out.batch.clear();
                    if cancelled {
                        // Cancelled after the demand refund, before any
                        // execution: per-item Cancelled statuses, no
                        // payload (the RepBatch layout contract), and no
                        // `complete` below so the processing-time average
                        // never sees the batch.
                        out.batch
                            .status
                            .resize(subs.len(), RepStatus::Cancelled);
                    } else {
                        for sub in &subs {
                            execute_into(data, sub, &mut out.batch);
                        }
                    }
                    out.subs = subs;
                });
                // Reply capacity == request capacity and the broker pops
                // every reply before reusing the pair, so this cannot fail.
                assert!(pushed, "shard reply ring full");
                if !cancelled {
                    gate.complete(DEFAULT_TYPE, enqueued_at, dequeued_at);
                    emit_spans(tracer, gate, shard, ctx, enqueued_at, dequeued_at);
                }
            });
            worked |= serviced.is_some();
        }
        if worked {
            if idle {
                idle = false;
                engine_state(gate, engine, false);
            }
            continue;
        }
        rig.waker.prepare_park();
        if stop.load(Ordering::Acquire) || rig.ports.iter().any(|(req, _)| !req.is_empty()) {
            rig.waker.cancel_park();
            continue;
        }
        if !idle {
            idle = true;
            engine_state(gate, engine, true);
        }
        rig.waker.park(Duration::from_millis(1));
    }
}

/// Executes a sub-query against the shard's slice. `None` on a sub-query
/// for a vertex this shard does not own.
fn execute(data: &ShardData, sub: &SubQuery) -> Option<SubResponse> {
    match sub {
        SubQuery::Neighbors(v) => data.neighbors(*v).map(|l| SubResponse::Ids(l.to_vec())),
        SubQuery::Degree(v) => data
            .neighbors(*v)
            .map(|l| SubResponse::Count(l.len() as u64)),
        SubQuery::HasEdge(u, v) => data
            .neighbors(*u)
            .map(|l| SubResponse::Flag(l.binary_search(v).is_ok())),
        SubQuery::NeighborsMany(vs) => {
            // Degree-prefetched frontier walk: the sub-CSR offsets give
            // every owned degree in O(1), so the flattened response is
            // sized exactly (two allocations, no regrows) before any
            // neighbor list is touched — and unowned vertices bail out
            // before allocating at all.
            let mut total = 0usize;
            for v in vs.iter() {
                total += data.degree(*v)? as usize;
            }
            let mut lists = IdLists::with_capacity(vs.len(), total);
            for v in vs.iter() {
                lists.push(data.neighbors(*v)?);
            }
            Some(SubResponse::IdLists(lists))
        }
        SubQuery::DegreeMany(vs) => {
            let mut counts = Vec::with_capacity(vs.len());
            for v in vs.iter() {
                counts.push(data.neighbors(*v)?.len() as u32);
            }
            Some(SubResponse::Counts(counts))
        }
        SubQuery::CountIntersect(v, ids) => {
            let neighbors = data.neighbors(*v)?;
            // Both sides sorted: adaptive merge/gallop intersection.
            Some(SubResponse::Count(graph::intersect_count(neighbors, ids)))
        }
    }
}

/// [`execute`]'s staging twin for the rings path: appends one status plus
/// the item's payload to `rep` per the [`RepBatch`] layout contract. Keeps
/// `execute`'s all-or-none-per-item semantics — a failed `*Many` item
/// rolls back its partial payload and contributes only an `Error` status.
fn execute_into(data: &ShardData, sub: &SubQuery, rep: &mut RepBatch) {
    match sub {
        SubQuery::Neighbors(v) => match data.neighbors(*v) {
            Some(l) => {
                rep.lists.push(l);
                rep.status.push(RepStatus::Ok);
            }
            None => rep.status.push(RepStatus::Error),
        },
        SubQuery::Degree(v) => match data.neighbors(*v) {
            Some(l) => {
                rep.counts.push(l.len() as u32);
                rep.status.push(RepStatus::Ok);
            }
            None => rep.status.push(RepStatus::Error),
        },
        SubQuery::HasEdge(u, v) => match data.neighbors(*u) {
            Some(l) => {
                rep.scalars.push(u64::from(l.binary_search(v).is_ok()));
                rep.status.push(RepStatus::Ok);
            }
            None => rep.status.push(RepStatus::Error),
        },
        SubQuery::NeighborsMany(vs) => {
            let mark = rep.lists.len();
            let mut ok = true;
            // Degree prefetch: reserve the exact flattened size up front
            // so the staging buffers regrow at most once per batch.
            let total: Option<usize> = vs
                .iter()
                .try_fold(0usize, |acc, v| Some(acc + data.degree(*v)? as usize));
            if let Some(total) = total {
                rep.lists.reserve(vs.len(), total);
            }
            for v in vs.iter() {
                match data.neighbors(*v) {
                    Some(l) => rep.lists.push(l),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                rep.status.push(RepStatus::Ok);
            } else {
                rep.lists.truncate_lists(mark);
                rep.status.push(RepStatus::Error);
            }
        }
        SubQuery::DegreeMany(vs) => {
            let mark = rep.counts.len();
            let mut ok = true;
            for v in vs.iter() {
                match data.neighbors(*v) {
                    Some(l) => rep.counts.push(l.len() as u32),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                rep.status.push(RepStatus::Ok);
            } else {
                rep.counts.truncate(mark);
                rep.status.push(RepStatus::Error);
            }
        }
        SubQuery::CountIntersect(v, ids) => match data.neighbors(*v) {
            Some(neighbors) => {
                rep.scalars.push(graph::intersect_count(neighbors, ids));
                rep.status.push(RepStatus::Ok);
            }
            None => rep.status.push(RepStatus::Error),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, GraphConfig};
    use bouncer_core::policy::{AlwaysAccept, MaxQueueLength};
    use bouncer_metrics::MonotonicClock;

    fn graph() -> Graph {
        Graph::generate(&GraphConfig {
            vertices: 1_000,
            edges_per_vertex: 4,
            seed: 1,
        })
    }

    fn spawn_shard(shard: usize, n_shards: usize) -> (Graph, Arc<ShardHost>) {
        let g = graph();
        let host = ShardHost::spawn(
            Arc::new(g.shard_slice(shard, n_shards)),
            Arc::new(AlwaysAccept::new()),
            Arc::new(MonotonicClock::new()),
            ShardConfig::default(),
        );
        (g, host)
    }

    /// Submits `sub` as a batch of one and waits for its outcome.
    fn submit_one(host: &ShardHost, sub: SubQuery) -> SubOutcome {
        let mut outcomes = host.submit_batch(vec![sub], None).recv().unwrap();
        assert_eq!(outcomes.len(), 1);
        outcomes.pop().unwrap()
    }

    #[test]
    fn serves_neighbors_and_degree() {
        let (g, host) = spawn_shard(0, 2);
        let v = 4; // owned by shard 0 of 2
        match submit_one(&host, SubQuery::Neighbors(v)) {
            SubOutcome::Ok(SubResponse::Ids(ids)) => assert_eq!(ids, g.neighbors(v)),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            submit_one(&host, SubQuery::Degree(v)),
            SubOutcome::Ok(SubResponse::Count(g.degree(v) as u64))
        );
        host.shutdown();
    }

    #[test]
    fn unowned_vertex_is_an_error() {
        let (_g, host) = spawn_shard(0, 2);
        // Odd vertices belong to shard 1.
        assert_eq!(submit_one(&host, SubQuery::Neighbors(3)), SubOutcome::Error);
        host.shutdown();
    }

    #[test]
    fn batched_subqueries_preserve_order() {
        let (g, host) = spawn_shard(1, 2);
        let vs = vec![1, 3, 5, 7];
        match submit_one(&host, SubQuery::NeighborsMany(vs.clone().into())) {
            SubOutcome::Ok(SubResponse::IdLists(lists)) => {
                assert_eq!(lists.len(), vs.len());
                for (v, l) in vs.iter().zip(lists.iter()) {
                    assert_eq!(l, g.neighbors(*v));
                }
            }
            other => panic!("{other:?}"),
        }
        host.shutdown();
    }

    #[test]
    fn batch_submission_yields_per_item_outcomes_in_order() {
        let (g, host) = spawn_shard(0, 2);
        let subs = vec![
            SubQuery::Degree(4),
            SubQuery::Neighbors(3), // unowned (odd -> shard 1): Error slot
            SubQuery::HasEdge(4, g.neighbors(4)[0]),
            SubQuery::Neighbors(6),
        ];
        let outcomes = host.submit_batch(subs, None).recv().unwrap();
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[0], SubOutcome::Ok(SubResponse::Count(g.degree(4) as u64)));
        assert_eq!(outcomes[1], SubOutcome::Error);
        assert_eq!(outcomes[2], SubOutcome::Ok(SubResponse::Flag(true)));
        assert_eq!(
            outcomes[3],
            SubOutcome::Ok(SubResponse::Ids(g.neighbors(6).to_vec()))
        );
        // An empty batch resolves immediately.
        assert_eq!(host.submit_batch(Vec::new(), None).recv().unwrap(), Vec::new());
        host.shutdown();
    }

    #[test]
    fn rejected_batch_rejects_every_item() {
        let g = graph();
        let host = ShardHost::spawn(
            Arc::new(g.shard_slice(0, 1)),
            Arc::new(MaxQueueLength::new(1)),
            Arc::new(MonotonicClock::new()),
            ShardConfig {
                engines: 1,
                ..ShardConfig::default()
            },
        );
        // Saturate the single engine so later batches hit the queue limit.
        let receivers: Vec<_> = (0..64)
            .map(|_| host.submit_batch(vec![SubQuery::NeighborsMany(Arc::new((0..1000).collect())); 4], None))
            .collect();
        let outcomes: Vec<Vec<SubOutcome>> =
            receivers.into_iter().map(|rx| rx.recv().unwrap()).collect();
        assert!(outcomes
            .iter()
            .any(|os| os.iter().all(|o| *o == SubOutcome::Rejected)));
        assert!(outcomes
            .iter()
            .any(|os| os.iter().all(|o| matches!(o, SubOutcome::Ok(_)))));
        // No partial batches: rejection is all-or-nothing.
        assert!(outcomes
            .iter()
            .all(|os| !os.contains(&SubOutcome::Rejected)
                || os.iter().all(|o| *o == SubOutcome::Rejected)));
        host.shutdown();
    }

    #[test]
    fn cancelled_batch_replies_cancelled_without_executing() {
        let g = graph();
        let host = ShardHost::spawn(
            Arc::new(g.shard_slice(0, 1)),
            Arc::new(AlwaysAccept::new()),
            Arc::new(MonotonicClock::new()),
            ShardConfig {
                engines: 1,
                ..ShardConfig::default()
            },
        );
        // Park heavy batches in front of the single engine so the
        // cancellable batches sit queued long after their flags are set.
        let heavy: Vec<_> = (0..8)
            .map(|_| {
                host.submit_batch(
                    vec![SubQuery::NeighborsMany(Arc::new((0..1000).collect())); 32],
                    None,
                )
            })
            .collect();
        let pending: Vec<_> = (0..4)
            .map(|_| host.submit_batch_cancellable(vec![SubQuery::Degree(0); 3], None))
            .collect();
        for (_, cancel) in &pending {
            cancel.store(true, Ordering::Release);
        }
        for rx in heavy {
            assert!(rx.recv().unwrap().iter().all(|o| matches!(o, SubOutcome::Ok(_))));
        }
        for (rx, _) in pending {
            assert_eq!(rx.recv().unwrap(), vec![SubOutcome::Cancelled; 3]);
        }
        // Cancelled batches never reach `complete`: only the heavy ones
        // count as completed work.
        let snap = host.stats().snapshot(1_000_000_000, host.parallelism());
        assert_eq!(snap.per_type[0].completed, 8);
        host.shutdown();
    }

    #[test]
    fn uncancelled_cancellable_batch_executes_normally() {
        let (g, host) = spawn_shard(0, 1);
        let (rx, _cancel) = host.submit_batch_cancellable(vec![SubQuery::Degree(2)], None);
        assert_eq!(
            rx.recv().unwrap(),
            vec![SubOutcome::Ok(SubResponse::Count(g.degree(2) as u64))]
        );
        host.shutdown();
    }

    #[test]
    fn count_intersect_matches_bruteforce() {
        let (g, host) = spawn_shard(0, 1);
        let v = 10;
        let ids: Vec<u32> = (0..500).collect();
        let expected = g.neighbors(v).iter().filter(|n| **n < 500).count() as u64;
        assert_eq!(
            submit_one(&host, SubQuery::CountIntersect(v, ids.into())),
            SubOutcome::Ok(SubResponse::Count(expected))
        );
        host.shutdown();
    }

    #[test]
    fn admission_rejection_is_delivered_immediately() {
        let g = graph();
        // A policy that admits one query then blocks on queue length while
        // no engines drain (0 engines impossible; use limit 0 via MaxQL(1)
        // plus a pre-filled queue instead: simplest is MaxQL(1) and two
        // rapid submissions).
        let host = ShardHost::spawn(
            Arc::new(g.shard_slice(0, 1)),
            Arc::new(MaxQueueLength::new(1)),
            Arc::new(MonotonicClock::new()),
            ShardConfig {
                engines: 1,
                ..ShardConfig::default()
            },
        );
        // Saturate: many submissions; at least some must be rejected
        // immediately while the single engine is busy.
        let receivers: Vec<_> = (0..64)
            .map(|_| {
                host.submit_batch(vec![SubQuery::NeighborsMany(Arc::new((0..1000).collect()))], None)
            })
            .collect();
        let outcomes: Vec<_> = receivers.into_iter().flat_map(|rx| rx.recv().unwrap()).collect();
        assert!(outcomes.contains(&SubOutcome::Rejected));
        assert!(outcomes.iter().any(|o| matches!(o, SubOutcome::Ok(_))));
        host.shutdown();
    }

    #[test]
    fn shutdown_joins_engines_even_with_extra_arc_clones() {
        let (_g, host) = spawn_shard(0, 1);
        assert_eq!(host.engines_running(), ShardConfig::default().engines as usize);
        // Keep a second strong reference alive across shutdown — the seed's
        // `Arc::get_mut` guard silently skipped the joins in this case.
        let extra = Arc::clone(&host);
        host.shutdown();
        assert_eq!(extra.engines_running(), 0);
        // Idempotent: a second shutdown finds nothing left to join.
        extra.shutdown();
        assert_eq!(extra.engines_running(), 0);
    }

    #[test]
    fn stats_record_completions() {
        let (_g, host) = spawn_shard(0, 1);
        for v in 0..50 {
            let _ = submit_one(&host, SubQuery::Degree(v));
        }
        let snap = host.stats().snapshot(1_000_000_000, host.parallelism());
        assert_eq!(snap.per_type[0].completed, 50);
        host.shutdown();
    }
}
