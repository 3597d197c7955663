//! The event loop: arrivals, completions, and periodic ticks over a FIFO
//! queue drained by `P` simulated engine processes.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use crate::queue::{SimDiscipline, SimQueue};

use bouncer_core::framework::{Gate, GateConfig};
use bouncer_core::obs::{
    null_sink, Event as ObsEvent, EventSink, QueryTrace, SpanKind, SpanStatus, Tracer,
};
use bouncer_core::policy::AdmissionPolicy;
use bouncer_core::types::TypeId;
use bouncer_metrics::time::{millis, Nanos, SECOND};
use bouncer_metrics::ManualClock;
use bouncer_workload::dist::Exponential;
use bouncer_workload::mix::QueryMix;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::result::SimResult;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// `P`: number of query-engine processes (the paper simulates 100).
    pub parallelism: u32,
    /// Offered traffic rate, queries per second.
    pub rate_qps: f64,
    /// Queries generated *after* warm-up; the paper's runs produce 1.5 M.
    pub measured_queries: u64,
    /// Warm-up queries preceding measurement ("preceded by a warm-up phase
    /// to avoid capturing cold start effects").
    pub warmup_queries: u64,
    /// RNG seed (arrivals, types, processing times, policy coin flips are
    /// separate draws from this stream, so runs are reproducible).
    pub seed: u64,
    /// How often policy maintenance runs (histogram swaps etc.).
    pub tick_interval: Nanos,
    /// Optional `L_limit` bound on the FIFO queue (§5.4 uses 800; the
    /// simulation study leaves it unbounded).
    pub max_queue_len: Option<usize>,
    /// Queue service discipline (the paper's deployment is FIFO; the
    /// priority and SJF variants support the §7 scheduling ablation).
    pub discipline: SimDiscipline,
    /// Optional time-varying rate: `(from_time, multiplier)` steps applied
    /// on top of `rate_qps`, sorted by time. Models the traffic surges that
    /// motivate the paper (§1): e.g. `[(0, 1.0), (10s, 1.5), (30s, 1.0)]`
    /// is a 20-second 1.5× surge. Empty = constant rate.
    pub rate_steps: Vec<(Nanos, f64)>,
    /// Optional mid-run traffic-mix shift: from the given virtual time on,
    /// arrivals sample the second mix instead of `mix`. Models the mix
    /// drift the adaptive control plane reacts to; the two mixes must come
    /// from the same type registry. `None` = static mix.
    pub mix_shift: Option<(Nanos, QueryMix)>,
    /// Content hash of the scenario this run was constructed from
    /// (`ScenarioSpec::content_hash`), stamped into the [`SimResult`] and
    /// emitted as a `scenario` event at stream start when observing.
    /// `None` for ad-hoc configs assembled outside the spec layer.
    pub scenario_hash: Option<u64>,
    /// Optional observability sink; lifecycle events are emitted with
    /// virtual-time timestamps, and the sink is attached to the policy for
    /// its per-interval maintenance events. `None` (the default) costs
    /// nothing on the arrival/completion paths.
    pub sink: Option<Arc<dyn EventSink>>,
    /// Optional distributed tracer: each simulated query becomes a span
    /// tree (root + admission + queue + service) stamped with *virtual*
    /// time, so `trace-report` reads simulator and threaded-host traces
    /// identically. Subject to the tracer's sampling policy.
    pub tracer: Option<Arc<Tracer>>,
}

impl SimConfig {
    /// The §5.3 setup: `P = 100`, 1.5 M measured queries, 100 k warm-up,
    /// 100 ms ticks, unbounded queue.
    pub fn paper(rate_qps: f64, seed: u64) -> Self {
        Self {
            parallelism: 100,
            rate_qps,
            measured_queries: 1_500_000,
            warmup_queries: 100_000,
            seed,
            tick_interval: millis(100),
            max_queue_len: None,
            discipline: SimDiscipline::Fifo,
            rate_steps: Vec::new(),
            mix_shift: None,
            scenario_hash: None,
            sink: None,
            tracer: None,
        }
    }

    /// A scaled-down variant for tests and quick sweeps: same shape, fewer
    /// queries.
    pub fn quick(rate_qps: f64, seed: u64) -> Self {
        Self {
            measured_queries: 150_000,
            warmup_queries: 30_000,
            ..Self::paper(rate_qps, seed)
        }
    }
}

/// A pending event in virtual time. Ordering: earliest first; sequence
/// number breaks ties deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    at: Nanos,
    seq: u64,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A query of the given type and processing time arrives.
    Arrival { ty: TypeId, pt: Nanos },
    /// An engine process finishes the query it started.
    Completion {
        ty: TypeId,
        enqueued_at: Nanos,
        dequeued_at: Nanos,
        /// Key into the in-flight trace table, when tracing.
        trace: Option<u32>,
    },
    /// Periodic policy maintenance.
    Tick,
}

/// Runs one simulation: drives `policy` with Poisson arrivals from `mix`
/// until `cfg.measured_queries` post-warm-up queries have arrived, then
/// drains, and returns the measured statistics.
///
/// The policy sits behind a [`Gate`] over a [`ManualClock`] set to each
/// event's virtual time, and every Figure 1 measurement point goes through
/// the gate's hooks, the same ones the threaded hosts run; [`SimQueue`]
/// is the gate's external queue, as the SPSC rings are on the rings path.
pub fn run(policy: Arc<dyn AdmissionPolicy>, mix: &QueryMix, cfg: &SimConfig) -> SimResult {
    assert!(cfg.parallelism > 0 && cfg.rate_qps > 0.0);
    let n_types = mix.max_type_index().max(
        cfg.mix_shift
            .as_ref()
            .map(|(_, m)| m.max_type_index())
            .unwrap_or(0),
    );
    let clock = Arc::new(ManualClock::new());
    let sink: Arc<dyn EventSink> = cfg.sink.clone().unwrap_or_else(null_sink);
    let gate: Gate<()> = Gate::new_with_sink(
        policy,
        n_types,
        clock.clone(),
        GateConfig::default(),
        Arc::clone(&sink),
    );
    let stats = gate.stats();
    stats.disable(); // warm-up first
    let observing = sink.enabled();
    if observing {
        if let Some(hash) = cfg.scenario_hash {
            sink.emit(&ObsEvent::Scenario { at: 0, hash });
        }
    }
    let tracer = cfg.tracer.as_deref().filter(|t| t.enabled());
    // In-flight query traces, keyed by a dense counter the events carry.
    let mut traces: HashMap<u32, QueryTrace> = HashMap::new();
    let mut next_trace_key: u32 = 0;

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    debug_assert!(
        cfg.rate_steps.windows(2).all(|w| w[0].0 <= w[1].0),
        "rate_steps must be sorted by time"
    );
    // Current rate multiplier per the surge profile (step function).
    let multiplier_at = |now: Nanos| -> f64 {
        cfg.rate_steps
            .iter()
            .rev()
            .find(|&&(from, _)| now >= from)
            .map(|&(_, m)| m)
            .unwrap_or(1.0)
    };
    let gap_at = |now: Nanos, rng: &mut SmallRng| -> Nanos {
        let rate = cfg.rate_qps * multiplier_at(now);
        let arrivals = Exponential::new(rate / SECOND as f64); // events per ns
        (arrivals.sample(rng) as Nanos).max(1)
    };
    // Draws the next arrival: its time, type, and processing time. With a
    // mix shift configured the arrival *time* picks the mix, so the gap is
    // drawn first; without one the original draw order is preserved (same
    // seed, same run).
    let next_arrival = |now: Nanos, rng: &mut SmallRng| -> (Nanos, TypeId, Nanos) {
        match &cfg.mix_shift {
            None => {
                let class = mix.sample_class(rng);
                let pt = class.sample_processing(rng);
                (now + gap_at(now, rng), class.ty, pt)
            }
            Some((shift_at, shifted)) => {
                let at = now + gap_at(now, rng);
                let class = if at >= *shift_at {
                    shifted.sample_class(rng)
                } else {
                    mix.sample_class(rng)
                };
                let pt = class.sample_processing(rng);
                (at, class.ty, pt)
            }
        }
    };

    let mut heap: BinaryHeap<Reverse<(EventKey, u64)>> = BinaryHeap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut seq = 0u64;
    let mut schedule = |heap: &mut BinaryHeap<Reverse<(EventKey, u64)>>,
                        events: &mut Vec<Event>,
                        at: Nanos,
                        ev: Event| {
        let idx = events.len() as u64;
        events.push(ev);
        heap.push(Reverse((EventKey { at, seq }, idx)));
        seq += 1;
    };

    let mut queue = SimQueue::new(cfg.discipline.clone());
    let mut idle = cfg.parallelism;

    let total_arrivals = cfg.warmup_queries + cfg.measured_queries;
    let mut generated = 0u64;
    let mut measuring_since: Option<Nanos> = None;

    // Seed the event stream.
    {
        let (at, ty, pt) = next_arrival(0, &mut rng);
        schedule(&mut heap, &mut events, at, Event::Arrival { ty, pt });
    }
    schedule(&mut heap, &mut events, cfg.tick_interval, Event::Tick);

    let mut now: Nanos = 0;
    let mut in_flight = 0u64; // queued + processing

    while let Some(Reverse((key, idx))) = heap.pop() {
        now = key.at;
        clock.set(now);
        match events[idx as usize] {
            Event::Tick => {
                gate.tick();
                if observing {
                    // The virtual-time heartbeat: time-driven sinks (the
                    // health sampler) advance their windows on this even
                    // when no queries flow.
                    sink.emit(&ObsEvent::Tick { at: now });
                }
                // Keep ticking while work remains.
                if generated < total_arrivals || in_flight > 0 {
                    schedule(&mut heap, &mut events, now + cfg.tick_interval, Event::Tick);
                }
            }
            Event::Arrival { ty, pt } => {
                generated += 1;
                if generated == cfg.warmup_queries + 1 && measuring_since.is_none() {
                    stats.reset(now);
                    stats.enable();
                    measuring_since = Some(now);
                }

                let accepted = match gate.admit_external(ty) {
                    Err(_) => false,
                    Ok(_) if cfg.max_queue_len.is_some_and(|limit| queue.len() >= limit) => {
                        gate.reject_full_external(ty, now);
                        false
                    }
                    Ok(_) => true,
                };
                // The admission span is instantaneous in virtual time: the
                // simulated decision costs nothing (the ideal-system
                // contrast the paper's Fig. 13 draws).
                let qt = tracer.map(|t| t.begin(Some(ty), now, None));
                if accepted {
                    in_flight += 1;
                    let trace = qt.map(|qt| {
                        let key = next_trace_key;
                        next_trace_key = next_trace_key.wrapping_add(1);
                        traces.insert(key, qt);
                        key
                    });
                    if idle > 0 {
                        // An idle process picks it up immediately: the
                        // query passes straight through the empty queue.
                        idle -= 1;
                        gate.enqueued_external(ty, now, 1);
                        gate.dequeued_external(ty, now, None);
                        schedule(
                            &mut heap,
                            &mut events,
                            now + pt,
                            Event::Completion {
                                ty,
                                enqueued_at: now,
                                dequeued_at: now,
                                trace,
                            },
                        );
                    } else {
                        gate.enqueued_external(ty, now, queue.len() + 1);
                        queue.push_traced(ty, pt, now, trace);
                    }
                } else if let (Some(tracer), Some(mut qt)) = (tracer, qt) {
                    qt.record_child(SpanKind::Admission, now, now);
                    tracer.finish(qt, SpanStatus::Rejected, now);
                }

                if generated < total_arrivals {
                    let (at, ty, pt) = next_arrival(now, &mut rng);
                    schedule(&mut heap, &mut events, at, Event::Arrival { ty, pt });
                }
            }
            Event::Completion {
                ty,
                enqueued_at,
                dequeued_at,
                trace,
            } => {
                gate.complete(ty, enqueued_at, dequeued_at);
                in_flight -= 1;
                if let Some(key) = trace {
                    if let (Some(tracer), Some(mut qt)) = (tracer, traces.remove(&key)) {
                        qt.record_child(SpanKind::Admission, qt.start(), qt.start());
                        qt.record_child(SpanKind::BrokerQueue, enqueued_at, dequeued_at);
                        qt.record_child(SpanKind::BrokerService, dequeued_at, now);
                        tracer.finish(qt, SpanStatus::Ok, now);
                    }
                }

                if let Some(next) = queue.pop() {
                    gate.dequeued_external(next.ty, next.enqueued_at, None);
                    schedule(
                        &mut heap,
                        &mut events,
                        now + next.pt,
                        Event::Completion {
                            ty: next.ty,
                            enqueued_at: next.enqueued_at,
                            dequeued_at: now,
                            trace: next.trace,
                        },
                    );
                } else {
                    idle += 1;
                }
            }
        }
    }

    sink.flush();
    if let Some(tracer) = tracer {
        tracer.flush();
    }

    let started = measuring_since.unwrap_or(0);
    SimResult {
        policy_name: gate.policy().name().to_owned(),
        rate_qps: cfg.rate_qps,
        stats: stats.snapshot(now, cfg.parallelism),
        duration: now.saturating_sub(started),
        scenario_hash: cfg.scenario_hash,
    }
}
