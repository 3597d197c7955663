//! The admission gate: policy + FIFO queue + statistics, wired together.
//!
//! [`Gate`] is the runtime embodiment of Figure 1. Its five hooks are the
//! only code that does Figure 1's accounting (stats, policy hooks, events):
//! [`Gate::admit_external`] (Point 1: receive + admit),
//! [`Gate::enqueued_external`] or [`Gate::reject_full_external`] (enqueue,
//! or the `L_limit` safeguard), [`Gate::dequeued_external`] (Point 2:
//! dequeue or expire) and [`Gate::complete`] (Point 3).
//!
//! Every host drives those hooks, differing only in where its queue lives:
//! - channel and TCP hosts use the gate's own FIFO queue through
//!   [`Gate::offer`] and [`Gate::take`], which are nothing but compositions
//!   of the hooks around a push and a pop;
//! - the rings data path calls the hooks around its SPSC rings;
//! - the §5.3 simulator calls them around its simulated queue, under a
//!   `ManualClock` set to each event's virtual time.
//!
//! A query is accounted, and its `Admitted`/`Enqueued` events emitted,
//! before any engine can pop it: `offer` runs `enqueued_external` under the
//! queue lock, as rings runs it inside the ring push. So on channel hosts
//! emission happens under the queue lock, and an [`EventSink`] must never
//! call back into a gate.

use std::sync::Arc;
use std::time::Duration;

use bouncer_metrics::{Clock, Nanos};

use crate::framework::queue::{AdmissionQueue, Entry, PopOutcome};
use crate::framework::stats::ServerStats;
use crate::obs::{null_sink, Event, EventSink};
use crate::policy::{AdmissionPolicy, RejectReason};
use crate::types::TypeId;

/// Gate configuration.
#[derive(Debug, Clone, Default)]
pub struct GateConfig {
    /// The `L_limit` queue-length safeguard (§5.4). `None` = unbounded.
    pub max_queue_len: Option<usize>,
}

/// A query handed to an engine thread by [`Gate::take`].
#[derive(Debug)]
pub struct Admitted<T> {
    /// The query's type.
    pub ty: TypeId,
    /// When the query entered the queue.
    pub enqueued_at: Nanos,
    /// When the engine thread dequeued it (wait = dequeued − enqueued).
    pub dequeued_at: Nanos,
    /// Caller payload.
    pub payload: T,
}

/// Outcome of [`Gate::take`].
#[derive(Debug)]
pub enum TakeOutcome<T> {
    /// A query to process.
    Query(Admitted<T>),
    /// An admitted query whose deadline passed while it waited; the host
    /// should reply with a timeout error without processing it ("brokers
    /// and shards also enforce expiration times for admitted queries",
    /// §5.1).
    Expired(Admitted<T>),
    /// The gate was closed and the queue drained.
    Closed,
    /// The timeout elapsed.
    TimedOut,
}

/// The admission-controlled entrance of a host.
///
/// ```
/// use std::sync::Arc;
/// use bouncer_core::framework::{Gate, GateConfig, TakeOutcome};
/// use bouncer_core::policy::MaxQueueLength;
/// use bouncer_core::types::DEFAULT_TYPE;
/// use bouncer_metrics::MonotonicClock;
///
/// let gate: Gate<&str> = Gate::new(
///     Arc::new(MaxQueueLength::new(128)),
///     1,
///     Arc::new(MonotonicClock::new()),
///     GateConfig::default(),
/// );
/// gate.offer(DEFAULT_TYPE, "payload").unwrap();
/// if let TakeOutcome::Query(q) = gate.take(None) {
///     // ... process ...
///     gate.complete(q.ty, q.enqueued_at, q.dequeued_at);
/// }
/// assert_eq!(gate.stats().snapshot(1, 1).per_type[0].completed, 1);
/// ```
pub struct Gate<T> {
    policy: Arc<dyn AdmissionPolicy>,
    queue: AdmissionQueue<T>,
    stats: Arc<ServerStats>,
    clock: Arc<dyn Clock>,
    sink: Arc<dyn EventSink>,
}

impl<T> Gate<T> {
    /// Creates a gate in front of `policy`, tracking `n_types` query types,
    /// with observability disabled (the [`NullSink`]).
    ///
    /// [`NullSink`]: crate::obs::NullSink
    pub fn new(
        policy: Arc<dyn AdmissionPolicy>,
        n_types: usize,
        clock: Arc<dyn Clock>,
        cfg: GateConfig,
    ) -> Self {
        Self::new_with_sink(policy, n_types, clock, cfg, null_sink())
    }

    /// Like [`Gate::new`], emitting query-lifecycle events into `sink`.
    /// The sink is also handed to the policy (via
    /// [`AdmissionPolicy::attach_sink`]) for its per-interval maintenance
    /// events.
    pub fn new_with_sink(
        policy: Arc<dyn AdmissionPolicy>,
        n_types: usize,
        clock: Arc<dyn Clock>,
        cfg: GateConfig,
        sink: Arc<dyn EventSink>,
    ) -> Self {
        policy.attach_sink(Arc::clone(&sink));
        Self {
            policy,
            queue: AdmissionQueue::new(cfg.max_queue_len),
            stats: Arc::new(ServerStats::new(n_types)),
            clock,
            sink,
        }
    }

    /// Offers an incoming query to the policy. On acceptance the query is
    /// enqueued; on rejection the reason is returned together with the
    /// payload so the host can reply with an error response immediately
    /// (the early rejection of §2).
    pub fn offer(&self, ty: TypeId, payload: T) -> Result<(), (RejectReason, T)> {
        self.offer_with_deadline(ty, payload, None)
    }

    /// Like [`Gate::offer`], with an absolute expiration time: if the query
    /// is still queued past `deadline`, engines drop it undone.
    pub fn offer_with_deadline(
        &self,
        ty: TypeId,
        payload: T,
        deadline: Option<Nanos>,
    ) -> Result<(), (RejectReason, T)> {
        let now = match self.admit_external(ty) {
            Ok(now) => now,
            Err(reason) => return Err((reason, payload)),
        };
        let entry = Entry {
            ty,
            enqueued_at: now,
            deadline,
            payload,
        };
        // Account and emit under the queue lock, before an engine can pop
        // the entry: its `dequeued_external` must never run first.
        self.queue
            .push_with(entry, |queue_len| self.enqueued_external(ty, now, queue_len))
            .map_err(|entry| {
                // The L_limit safeguard overrode the policy.
                self.reject_full_external(ty, now);
                (RejectReason::QueueFull, entry.payload)
            })
    }

    /// Producer-side admission bookkeeping (Point 1): receive accounting,
    /// the policy decision, and rejection stats/events — without touching
    /// the gate's own mutex-guarded queue, so hosts whose queue lives
    /// outside the gate (the SPSC rings, the simulator) call it directly;
    /// [`Gate::offer`] is built on it. On acceptance the caller must either
    /// publish the query to its external queue, reporting
    /// [`Gate::enqueued_external`] with the returned timestamp before the
    /// query becomes visible to consumers, or report
    /// [`Gate::reject_full_external`] if the queue had no room (the
    /// external queue's bound plays the role of `L_limit`).
    pub fn admit_external(&self, ty: TypeId) -> Result<Nanos, RejectReason> {
        let now = self.clock.now();
        self.stats.on_received(ty);
        match self.policy.admit(ty, now) {
            crate::policy::Decision::Reject(reason) => {
                self.stats.on_rejected(ty, reason);
                if self.sink.enabled() {
                    self.sink.emit(&Event::Rejected { at: now, ty, reason });
                }
                Err(reason)
            }
            crate::policy::Decision::Accept => Ok(now),
        }
    }

    /// Completes an [`Gate::admit_external`] acceptance for a query being
    /// published to the external queue: accepted stats, the policy's
    /// enqueue hook, and the admitted/enqueued events. Call it once the
    /// publish is certain to succeed but before a consumer can pop the
    /// query (for an SPSC ring, inside the push's fill closure), so the
    /// consumer's [`Gate::dequeued_external`] never runs first. `queue_len`
    /// is the external queue's length with this query included.
    pub fn enqueued_external(&self, ty: TypeId, enqueued_at: Nanos, queue_len: usize) {
        self.stats.on_accepted(ty);
        self.policy.on_enqueued(ty, enqueued_at);
        if self.sink.enabled() {
            self.sink.emit(&Event::Admitted { at: enqueued_at, ty });
            self.sink.emit(&Event::Enqueued {
                at: enqueued_at,
                ty,
                queue_len,
            });
        }
    }

    /// Reports that the external queue was full for a query the policy had
    /// accepted — the external-queue analogue of the `L_limit` safeguard
    /// overriding the policy.
    pub fn reject_full_external(&self, ty: TypeId, at: Nanos) {
        self.stats.on_rejected(ty, RejectReason::QueueFull);
        if self.sink.enabled() {
            self.sink.emit(&Event::Rejected {
                at,
                ty,
                reason: RejectReason::QueueFull,
            });
        }
    }

    /// Consumer-side bookkeeping when an engine pops a query from the
    /// external queue (Point 2), mirroring [`Gate::take`] exactly: the
    /// policy's dequeue hook always runs; then either the dequeued/started
    /// events fire (`expired == false`, proceed and [`Gate::complete`]), or
    /// the query is past `deadline` and only the expired stats/event fire
    /// (`expired == true`, drop it undone without completing). Returns
    /// `(dequeued_at, expired)`.
    pub fn dequeued_external(
        &self,
        ty: TypeId,
        enqueued_at: Nanos,
        deadline: Option<Nanos>,
    ) -> (Nanos, bool) {
        let now = self.clock.now();
        let wait = now.saturating_sub(enqueued_at);
        self.policy.on_dequeued(ty, wait, now);
        if deadline.is_some_and(|d| now > d) {
            self.stats.on_expired(ty);
            if self.sink.enabled() {
                self.sink.emit(&Event::Expired { at: now, ty, wait });
            }
            (now, true)
        } else {
            if self.sink.enabled() {
                self.sink.emit(&Event::Dequeued { at: now, ty, wait });
                self.sink.emit(&Event::Started { at: now, ty });
            }
            (now, false)
        }
    }

    /// Engine-thread side: dequeues the next admitted query, recording its
    /// queue wait (Point 2).
    pub fn take(&self, timeout: Option<Duration>) -> TakeOutcome<T> {
        match self.queue.pop(timeout) {
            PopOutcome::Entry(entry) => {
                let (dequeued_at, expired) =
                    self.dequeued_external(entry.ty, entry.enqueued_at, entry.deadline);
                let admitted = Admitted {
                    ty: entry.ty,
                    enqueued_at: entry.enqueued_at,
                    dequeued_at,
                    payload: entry.payload,
                };
                if expired {
                    TakeOutcome::Expired(admitted)
                } else {
                    TakeOutcome::Query(admitted)
                }
            }
            PopOutcome::Closed => TakeOutcome::Closed,
            PopOutcome::TimedOut => TakeOutcome::TimedOut,
        }
    }

    /// Engine-thread side: reports a processed query (Point 3), feeding the
    /// policy's processing-time measurements and the host statistics.
    pub fn complete(&self, ty: TypeId, enqueued_at: Nanos, dequeued_at: Nanos) {
        let now = self.clock.now();
        let processing = now.saturating_sub(dequeued_at);
        let wait = dequeued_at.saturating_sub(enqueued_at);
        self.policy.on_completed(ty, processing, now);
        self.stats.on_completed(ty, wait, processing);
        if self.sink.enabled() {
            self.sink.emit(&Event::Completed {
                at: now,
                ty,
                wait,
                processing,
                rt: wait.saturating_add(processing),
            });
        }
    }

    /// Runs policy maintenance; hosts call this from a [`Ticker`] or their
    /// own timer loop.
    ///
    /// [`Ticker`]: crate::framework::Ticker
    pub fn tick(&self) {
        self.policy.on_tick(self.clock.now());
    }

    /// The host statistics recorder.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// The admission policy behind the gate.
    pub fn policy(&self) -> &Arc<dyn AdmissionPolicy> {
        &self.policy
    }

    /// The clock this gate stamps times with.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The event sink lifecycle events are emitted into.
    pub fn sink(&self) -> &Arc<dyn EventSink> {
        &self.sink
    }

    /// Current FIFO queue length.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Closes the gate: engine threads drain and exit, new offers fail.
    pub fn close(&self) {
        self.queue.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AlwaysAccept, Decision, MaxQueueLength};
    use bouncer_metrics::{ManualClock, MonotonicClock};

    #[test]
    fn offer_take_complete_round_trip() {
        let clock = Arc::new(ManualClock::new());
        let gate: Gate<&str> = Gate::new(
            Arc::new(AlwaysAccept::new()),
            1,
            clock.clone(),
            GateConfig::default(),
        );
        gate.offer(TypeId(0), "q1").unwrap();
        clock.set(1_000_000); // 1ms queue wait
        let q = match gate.take(None) {
            TakeOutcome::Query(q) => q,
            other => panic!("{other:?}"),
        };
        assert_eq!(q.payload, "q1");
        clock.set(5_000_000); // 4ms processing
        gate.complete(q.ty, q.enqueued_at, q.dequeued_at);

        let snap = gate.stats().snapshot(clock.now(), 1);
        assert_eq!(snap.per_type[0].completed, 1);
        let rt = snap.per_type[0].response.value_at_quantile(0.5).unwrap();
        assert!(rt.abs_diff(5_000_000) < 200_000, "rt={rt}");
        let wait = snap.per_type[0].wait.value_at_quantile(0.5).unwrap();
        assert!(wait.abs_diff(1_000_000) < 50_000, "wait={wait}");
    }

    #[test]
    fn rejection_returns_payload_and_reason() {
        let clock = Arc::new(ManualClock::new());
        let gate: Gate<u32> = Gate::new(
            Arc::new(MaxQueueLength::new(1)),
            1,
            clock,
            GateConfig::default(),
        );
        gate.offer(TypeId(0), 1).unwrap();
        let (reason, payload) = gate.offer(TypeId(0), 2).unwrap_err();
        assert_eq!(reason, RejectReason::QueueLengthLimit);
        assert_eq!(payload, 2);
        let snap = gate.stats().snapshot(1, 1);
        assert_eq!(snap.total_rejected(), 1);
    }

    #[test]
    fn queue_full_safeguard_overrides_policy() {
        let clock = Arc::new(ManualClock::new());
        let gate: Gate<u32> = Gate::new(
            Arc::new(AlwaysAccept::new()),
            1,
            clock,
            GateConfig {
                max_queue_len: Some(1),
            },
        );
        gate.offer(TypeId(0), 1).unwrap();
        let (reason, _) = gate.offer(TypeId(0), 2).unwrap_err();
        assert_eq!(reason, RejectReason::QueueFull);
    }

    #[test]
    fn policy_sees_queue_through_hooks() {
        // MaxQL's view of the queue must match the gate's real queue.
        let clock = Arc::new(ManualClock::new());
        let policy = Arc::new(MaxQueueLength::new(100));
        let gate: Gate<u32> = Gate::new(policy.clone(), 1, clock, GateConfig::default());
        for i in 0..5 {
            gate.offer(TypeId(0), i).unwrap();
        }
        assert_eq!(policy.queue_len(), 5);
        assert_eq!(gate.queue_len(), 5);
        if let TakeOutcome::Query(q) = gate.take(None) {
            gate.complete(q.ty, q.enqueued_at, q.dequeued_at);
        }
        assert_eq!(policy.queue_len(), 4);
    }

    #[test]
    fn expired_queries_are_dropped_undone() {
        let clock = Arc::new(ManualClock::new());
        let gate: Gate<u32> = Gate::new(
            Arc::new(AlwaysAccept::new()),
            1,
            clock.clone(),
            GateConfig::default(),
        );
        gate.offer_with_deadline(TypeId(0), 1, Some(1_000_000)).unwrap();
        gate.offer_with_deadline(TypeId(0), 2, Some(10_000_000)).unwrap();
        clock.set(5_000_000); // past the first deadline, not the second
        match gate.take(None) {
            TakeOutcome::Expired(q) => assert_eq!(q.payload, 1),
            other => panic!("{other:?}"),
        }
        match gate.take(None) {
            TakeOutcome::Query(q) => assert_eq!(q.payload, 2),
            other => panic!("{other:?}"),
        }
        let snap = gate.stats().snapshot(clock.now(), 1);
        assert_eq!(snap.per_type[0].expired, 1);
        assert_eq!(snap.per_type[0].completed, 0);
    }

    #[test]
    fn sink_sees_the_full_lifecycle() {
        use crate::obs::MemorySink;

        let clock = Arc::new(ManualClock::new());
        let sink = Arc::new(MemorySink::new());
        let gate: Gate<&str> = Gate::new_with_sink(
            Arc::new(MaxQueueLength::new(1)),
            1,
            clock.clone(),
            GateConfig::default(),
            sink.clone(),
        );
        gate.offer(TypeId(0), "served").unwrap();
        let (_, _) = gate.offer(TypeId(0), "shed").unwrap_err();
        clock.set(2_000_000);
        let q = match gate.take(None) {
            TakeOutcome::Query(q) => q,
            other => panic!("{other:?}"),
        };
        clock.set(3_000_000);
        gate.complete(q.ty, q.enqueued_at, q.dequeued_at);

        let names: Vec<&str> = sink.events().iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            ["admitted", "enqueued", "rejected", "dequeued", "started", "completed"]
        );
        match sink.events()[5] {
            Event::Completed { wait, processing, rt, .. } => {
                assert_eq!(wait, 2_000_000);
                assert_eq!(processing, 1_000_000);
                assert_eq!(rt, 3_000_000);
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn external_hooks_mirror_the_internal_path_exactly() {
        use crate::obs::MemorySink;

        // Drive one gate through offer/take/complete and a second through
        // the external-queue hooks at the same clock readings; events and
        // stats must match field for field.
        let run = |external: bool| {
            let clock = Arc::new(ManualClock::new());
            let sink = Arc::new(MemorySink::new());
            let gate: Gate<&str> = Gate::new_with_sink(
                Arc::new(MaxQueueLength::new(1)),
                1,
                clock.clone(),
                GateConfig::default(),
                sink.clone(),
            );
            if external {
                let enq = gate.admit_external(TypeId(0)).unwrap();
                gate.enqueued_external(TypeId(0), enq, 1);
                // Queue "full" from the second query's perspective: the
                // policy rejects on queue length 1 just like the internal
                // path (policy saw on_enqueued), keeping streams aligned.
                let _ = gate.admit_external(TypeId(0)).unwrap_err();
                clock.set(2_000_000);
                let (deq, expired) = gate.dequeued_external(TypeId(0), enq, None);
                assert!(!expired);
                clock.set(3_000_000);
                gate.complete(TypeId(0), enq, deq);
            } else {
                gate.offer(TypeId(0), "served").unwrap();
                let _ = gate.offer(TypeId(0), "shed").unwrap_err();
                clock.set(2_000_000);
                let q = match gate.take(None) {
                    TakeOutcome::Query(q) => q,
                    other => panic!("{other:?}"),
                };
                clock.set(3_000_000);
                gate.complete(q.ty, q.enqueued_at, q.dequeued_at);
            }
            let snap = gate.stats().snapshot(clock.now(), 1);
            (sink.events(), snap.per_type[0].completed, snap.total_rejected())
        };
        let (internal_events, internal_done, internal_rej) = run(false);
        let (external_events, external_done, external_rej) = run(true);
        assert_eq!(format!("{internal_events:?}"), format!("{external_events:?}"));
        assert_eq!(internal_done, external_done);
        assert_eq!(internal_rej, external_rej);
    }

    #[test]
    fn external_expiry_mirrors_take() {
        let clock = Arc::new(ManualClock::new());
        let gate: Gate<u32> = Gate::new(
            Arc::new(AlwaysAccept::new()),
            1,
            clock.clone(),
            GateConfig::default(),
        );
        let enq = gate.admit_external(TypeId(0)).unwrap();
        gate.enqueued_external(TypeId(0), enq, 1);
        clock.set(5_000_000);
        let (_, expired) = gate.dequeued_external(TypeId(0), enq, Some(1_000_000));
        assert!(expired);
        let snap = gate.stats().snapshot(clock.now(), 1);
        assert_eq!(snap.per_type[0].expired, 1);
        assert_eq!(snap.per_type[0].completed, 0);
    }

    #[test]
    fn external_queue_full_records_the_safeguard_rejection() {
        let clock = Arc::new(ManualClock::new());
        let gate: Gate<u32> = Gate::new(
            Arc::new(AlwaysAccept::new()),
            1,
            clock,
            GateConfig::default(),
        );
        let at = gate.admit_external(TypeId(0)).unwrap();
        gate.reject_full_external(TypeId(0), at);
        let snap = gate.stats().snapshot(1, 1);
        assert_eq!(snap.total_rejected(), 1);
    }

    #[test]
    fn threaded_engine_drains_gate() {
        let clock = Arc::new(MonotonicClock::new());
        let gate: Arc<Gate<u64>> = Arc::new(Gate::new(
            Arc::new(AlwaysAccept::new()),
            1,
            clock,
            GateConfig::default(),
        ));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    loop {
                        match gate.take(None) {
                            TakeOutcome::Query(q) => {
                                gate.complete(q.ty, q.enqueued_at, q.dequeued_at);
                                n += 1;
                            }
                            TakeOutcome::Expired(_) => unreachable!("no deadlines set"),
                            TakeOutcome::Closed => return n,
                            TakeOutcome::TimedOut => {}
                        }
                    }
                })
            })
            .collect();
        for i in 0..1_000 {
            gate.offer(TypeId(0), i).unwrap();
        }
        // Wait for the queue to drain before closing so nothing is lost.
        while gate.queue_len() > 0 {
            std::thread::yield_now();
        }
        gate.close();
        let done: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(done, 1_000);
        let decision = gate.policy().admit(TypeId(0), 0);
        assert_eq!(decision, Decision::Accept);
    }
}
