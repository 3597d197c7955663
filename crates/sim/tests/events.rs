//! Observability contract of the simulator: the ordered lifecycle events
//! one admitted and one rejected query leave behind, plus the per-interval
//! policy events that ride on the tick schedule.

use std::sync::Arc;

use bouncer_core::prelude::*;
use bouncer_metrics::time::millis;
use bouncer_sim::{run, SimConfig};
use bouncer_workload::mix::paper_table1_mix;
use bouncer_workload::QueryMix;

fn table1() -> (TypeRegistry, QueryMix) {
    let mut reg = TypeRegistry::new();
    let mix = paper_table1_mix(&mut reg);
    (reg, mix)
}

/// A one-query config so every event in the sink belongs to that query.
fn one_query(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::quick(100.0, seed);
    cfg.parallelism = 1;
    cfg.warmup_queries = 0;
    cfg.measured_queries = 1;
    cfg
}

#[test]
fn admitted_query_emits_the_full_lifecycle_in_order() {
    let (_reg, mix) = table1();
    let sink = Arc::new(MemorySink::new());
    let mut cfg = one_query(11);
    cfg.sink = Some(sink.clone());

    let result = run(Arc::new(AlwaysAccept::new()), &mix, &cfg);
    assert_eq!(result.stats.total_rejected(), 0);

    // Maintenance ticks ride the same sink; the query's own trail is
    // everything else.
    let events: Vec<Event> = sink
        .events()
        .into_iter()
        .filter(|e| !matches!(e, Event::Tick { .. }))
        .collect();
    let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
    assert_eq!(
        names,
        ["admitted", "enqueued", "dequeued", "started", "completed"],
        "one admitted query must leave exactly this trail"
    );

    // The engine was idle, so the queue was passed through with zero wait.
    match events[1] {
        Event::Enqueued { queue_len, .. } => assert_eq!(queue_len, 1),
        ref other => panic!("expected Enqueued, got {other:?}"),
    }
    match events[4] {
        Event::Completed {
            wait,
            processing,
            rt,
            ..
        } => {
            assert_eq!(wait, 0);
            assert!(processing > 0);
            assert_eq!(rt, wait + processing);
        }
        ref other => panic!("expected Completed, got {other:?}"),
    }

    // Timestamps are virtual and non-decreasing; all events carry the
    // query's type.
    assert!(events.windows(2).all(|w| w[0].at() <= w[1].at()));
    assert!(events.iter().all(|e| e.ty().is_some()));
}

#[test]
fn rejected_query_emits_a_single_rejection() {
    let (_reg, mix) = table1();
    let sink = Arc::new(MemorySink::new());
    let mut cfg = one_query(12);
    // The `L_limit` safeguard with a zero-length queue bound turns every
    // query away before it can reach the (idle) engine.
    cfg.max_queue_len = Some(0);
    cfg.sink = Some(sink.clone());

    let result = run(Arc::new(AlwaysAccept::new()), &mix, &cfg);
    assert_eq!(result.stats.total_rejected(), 1);

    let events: Vec<Event> = sink
        .events()
        .into_iter()
        .filter(|e| !matches!(e, Event::Tick { .. }))
        .collect();
    let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
    assert_eq!(
        names,
        ["rejected"],
        "a shed query leaves nothing but the rejection"
    );
    match events[0] {
        Event::Rejected { reason, .. } => assert_eq!(reason, RejectReason::QueueFull),
        ref other => panic!("expected Rejected, got {other:?}"),
    }
}

#[test]
fn policy_rejections_carry_the_policy_reason() {
    let (_reg, mix) = table1();
    let sink = Arc::new(MemorySink::new());
    // Overload a tiny cluster so MaxQL has to shed.
    let mut cfg = SimConfig::quick(mix.qps_full_load(4) * 2.0, 13);
    cfg.parallelism = 4;
    cfg.warmup_queries = 0;
    cfg.measured_queries = 2_000;
    cfg.sink = Some(sink.clone());

    let result = run(Arc::new(MaxQueueLength::new(2)), &mix, &cfg);
    assert!(result.stats.total_rejected() > 0, "expected shedding");

    let events = sink.events();
    let rejected: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Rejected { reason, .. } => Some(*reason),
            _ => None,
        })
        .collect();
    assert_eq!(rejected.len() as u64, result.stats.total_rejected());
    assert!(rejected
        .iter()
        .all(|&r| r == RejectReason::QueueLengthLimit));

    // Event counts reconcile with the aggregate statistics.
    let count = |name: &str| events.iter().filter(|e| e.name() == name).count() as u64;
    let accepted: u64 = result.stats.per_type.iter().map(|t| t.accepted).sum();
    let completed: u64 = result.stats.per_type.iter().map(|t| t.completed).sum();
    assert_eq!(count("admitted"), accepted);
    assert_eq!(count("enqueued"), accepted);
    assert_eq!(count("completed"), completed);
}

#[test]
fn traced_simulation_produces_exact_virtual_time_breakdowns() {
    use bouncer_core::obs::trace_report::{assemble, breakdown, parse_spans};
    use bouncer_core::obs::{Tracer, TracerConfig};

    let (_reg, mix) = table1();
    let sink = Arc::new(MemorySink::new());
    let tracer = Arc::new(Tracer::new(sink.clone(), TracerConfig::default()));
    // Overloaded enough that queueing (and some shedding) appears.
    let mut cfg = SimConfig::quick(mix.qps_full_load(4) * 1.5, 15);
    cfg.parallelism = 4;
    cfg.warmup_queries = 0;
    cfg.measured_queries = 1_000;
    cfg.tracer = Some(tracer.clone());
    let result = run(Arc::new(MaxQueueLength::new(8)), &mix, &cfg);
    assert!(result.stats.total_rejected() > 0, "expected shedding");

    assert_eq!(tracer.sampled_total(), 1_000, "sample_every=1 keeps all");
    assert_eq!(tracer.dropped_total(), 0);

    // Round-trip through the JSONL encoding, exactly as `trace-report`
    // consumes a file.
    let lines: Vec<String> = sink.events().iter().map(|e| e.to_json()).collect();
    let spans = parse_spans(&lines.join("\n")).unwrap();
    let assembly = assemble(spans);
    assert_eq!(assembly.traces.len(), 1_000);
    assert_eq!(assembly.orphan_spans, 0);
    assert_eq!(assembly.rootless_traces, 0);

    let mut rejected = 0u64;
    for tree in &assembly.traces {
        assert!(tree.is_complete());
        let b = breakdown(tree).expect("rooted tree");
        // Virtual time is exact: the components must sum to the root
        // duration to the nanosecond.
        assert_eq!(b.component_sum(), b.total, "inexact breakdown");
        if b.status == "rejected" {
            rejected += 1;
        } else {
            assert_eq!(b.admission, 0, "simulated admission is instantaneous");
            assert_eq!(b.total, b.broker_queue + b.broker_compute);
        }
    }
    assert_eq!(rejected, result.stats.total_rejected());
}

#[test]
fn policies_emit_interval_events_through_the_attached_sink() {
    let (reg, mix) = table1();

    // Bouncer swaps its dual-buffer histograms every interval.
    let sink = Arc::new(MemorySink::new());
    let mut cfg = SimConfig::quick(mix.qps_full_load(8), 14);
    cfg.parallelism = 8;
    cfg.warmup_queries = 0;
    cfg.measured_queries = 5_000;
    cfg.sink = Some(sink.clone());
    let slos = SloConfig::uniform(&reg, Slo::p50_p90(millis(18), millis(50)));
    run(
        Arc::new(Bouncer::new(slos, BouncerConfig::with_parallelism(8))),
        &mix,
        &cfg,
    );
    let swaps = sink
        .events()
        .iter()
        .filter(|e| matches!(e, Event::HistogramSwap { policy: "bouncer", .. }))
        .count();
    assert!(swaps > 0, "bouncer must report histogram swaps");

    // MaxQWT reports its moving-average refresh on the same tick schedule.
    let sink = Arc::new(MemorySink::new());
    cfg.sink = Some(sink.clone());
    run(Arc::new(MaxQueueWaitTime::new(millis(20), 8)), &mix, &cfg);
    let refreshes = sink
        .events()
        .iter()
        .filter(|e| matches!(e, Event::MovingAvgRefresh { policy: "maxqwt", .. }))
        .count();
    assert!(refreshes > 0, "maxqwt must report moving-average refreshes");
}
