//! Per-layer numbers read during the traced pass: host statistics, and the
//! program's own spans reduced to a latency budget.

use bouncer_core::framework::StatsSnapshot;
use bouncer_core::obs::trace_report::{assemble, breakdown, Breakdown, SpanRecord};
use bouncer_core::obs::Event;
use bouncer_metrics::HistogramSnapshot;

use crate::driver::{Raw, Summary};
use crate::report::Metric;
use crate::stats::quantile;
use crate::workload::Tracing;

/// One host's per-type histograms folded into one.
fn merged(
    snap: &StatsSnapshot,
    pick: fn(&bouncer_core::framework::TypeStats) -> &HistogramSnapshot,
) -> Option<HistogramSnapshot> {
    let mut types = snap.per_type.iter().map(pick);
    let mut acc = types.next()?.clone();
    for h in types {
        acc.merge(h);
    }
    Some(acc)
}

fn quantile_ms(h: Option<&HistogramSnapshot>, q: f64) -> f64 {
    h.and_then(|h| h.value_at_quantile(q))
        .map_or(0.0, |ns| ns as f64 / 1e6)
}

/// Broker and shard tier counters over the traced window.
pub fn host_metrics(raw: &Raw) -> Vec<Metric> {
    let broker_wait = merged(&raw.broker, |t| &t.wait);
    let broker_pt = merged(&raw.broker, |t| &t.processing);
    let completed: u64 = raw.broker.per_type.iter().map(|t| t.completed).sum();
    let shard_received: u64 = raw.shards.iter().map(|s| s.total_received()).sum();
    let shard_rejected: u64 = raw.shards.iter().map(|s| s.total_rejected()).sum();
    let n_shards = raw.shards.len().max(1) as f64;
    // Every shard host sees the same kind of traffic: the tier is reported
    // as its mean host.
    let shard_mean =
        |f: &dyn Fn(&StatsSnapshot) -> f64| raw.shards.iter().map(f).sum::<f64>() / n_shards;
    vec![
        Metric::new(
            "broker.queue_wait_p50_ms",
            "ms",
            quantile_ms(broker_wait.as_ref(), 0.5),
        ),
        Metric::new(
            "broker.queue_wait_p99_ms",
            "ms",
            quantile_ms(broker_wait.as_ref(), 0.99),
        ),
        Metric::new(
            "broker.pt_p50_ms",
            "ms",
            quantile_ms(broker_pt.as_ref(), 0.5),
        ),
        Metric::new("broker.utilization", "ratio", raw.broker.utilization),
        Metric::new(
            "broker.batches_per_query",
            "ratio",
            if completed == 0 {
                0.0
            } else {
                shard_received as f64 / completed as f64
            },
        ),
        Metric::new(
            "shard.queue_wait_p50_ms",
            "ms",
            shard_mean(&|s| quantile_ms(merged(s, |t| &t.wait).as_ref(), 0.5)),
        ),
        Metric::new(
            "shard.pt_p50_ms",
            "ms",
            shard_mean(&|s| quantile_ms(merged(s, |t| &t.processing).as_ref(), 0.5)),
        ),
        Metric::new("shard.utilization", "ratio", shard_mean(&|s| s.utilization)),
        Metric::new("shard.rejected", "count", shard_rejected as f64),
    ]
}

/// The spans a traced system collected, as the records `trace_report`
/// consumes.
fn span_records(tracing: &Tracing) -> Vec<SpanRecord> {
    tracing
        .sink
        .events()
        .iter()
        .filter_map(|e| match *e {
            Event::Span {
                trace,
                span,
                parent,
                kind,
                start,
                end,
                ty,
                status,
                ..
            } => Some(SpanRecord {
                trace: trace.0,
                span: span.0,
                parent: parent.map(|p| p.0),
                kind: kind.label().to_owned(),
                round: kind.round(),
                shard: kind.shard(),
                start,
                end,
                status: status.label().to_owned(),
                ty: ty.map(|t| t.index() as u64),
            }),
            _ => None,
        })
        .collect()
}

/// The latency budget of the traced window: the median of each component
/// `trace_report::breakdown` attributes, over serviced traces rooted inside
/// the window, and how much of what a client waits for the spans explain:
/// the median over traces of one trace's eight components summed, against
/// the benchmark's own client-side median. (Summing the eight medians
/// instead would mean little: on a mix of kinds each query is mostly one
/// component, a different one per kind, and the medians of all eight are
/// small.) The program's rings-mode root span opens after the admission
/// decision and closes before the reply crosses the lane, so on a
/// fast-path workload the spans cannot reach 100 %.
pub fn span_metrics(tracing: &Tracing, raw: &Raw) -> Vec<Metric> {
    let assembly = assemble(span_records(tracing));
    let budgets: Vec<Breakdown> = assembly
        .traces
        .iter()
        .filter(|t| {
            t.root
                .is_some_and(|r| t.spans[r].start >= raw.window_start_clock)
        })
        .filter_map(breakdown)
        .filter(|b| b.status == "ok")
        .collect();
    let median_us = |pick: fn(&Breakdown) -> u64| {
        let mut v: Vec<u64> = budgets.iter().map(pick).collect();
        quantile(&mut v, 0.5).map_or(0.0, |ns| ns as f64 / 1e3)
    };
    let parts = [
        ("span.admission_us", median_us(|b| b.admission)),
        ("span.broker_queue_us", median_us(|b| b.broker_queue)),
        ("span.shard_queue_us", median_us(|b| b.shard_queue)),
        ("span.shard_service_us", median_us(|b| b.shard_service)),
        ("span.transport_us", median_us(|b| b.transport)),
        ("span.aggregation_us", median_us(|b| b.aggregation)),
        ("span.broker_compute_us", median_us(|b| b.broker_compute)),
        ("span.other_us", median_us(|b| b.other)),
    ];
    let sum_us = median_us(Breakdown::component_sum);
    let mut client = raw.serviced_latencies_ns();
    let client_us = quantile(&mut client, 0.5).map_or(0.0, |ns| ns as f64 / 1e3);
    let rounds_mean = if budgets.is_empty() {
        0.0
    } else {
        budgets.iter().map(|b| b.rounds as f64).sum::<f64>() / budgets.len() as f64
    };

    let mut out: Vec<Metric> = parts
        .iter()
        .map(|&(n, v)| Metric::new(n, "us", v))
        .collect();
    out.push(Metric::new("span.rounds_mean", "count", rounds_mean));
    out.push(Metric::new(
        "span.sum_over_client_pct",
        "%",
        if client_us == 0.0 {
            0.0
        } else {
            100.0 * sum_us / client_us
        },
    ));
    out.push(Metric::new("span.traces", "count", budgets.len() as f64));
    out
}

/// Policy outcomes and generator validity of the traced window.
pub fn traffic_metrics(raw: &Raw, s: &Summary, lag_p99_ms: f64) -> Vec<Metric> {
    vec![
        Metric::new("gen.lag_p99_ms", "ms", lag_p99_ms),
        Metric::new("gen.sent", "count", raw.attempted as f64),
        Metric::new("policy.rejected_pct", "%", s.rejected_pct()),
        Metric::new("policy.rejected_pct_max_type", "%", s.rejected_pct_max_type),
        Metric::new("policy.late_pct", "%", s.late_pct()),
    ]
}
