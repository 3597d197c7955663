//! Pins the simulator's output: one seeded overload run whose JSONL event
//! stream and measured totals must not move by a single byte.
//!
//! The run is shaped to cross every branch of the event loop: Bouncer's
//! own rejections, the `L_limit` `QueueFull` safeguard, arrivals that find
//! an idle engine (pass-through) and arrivals that wait in the queue, the
//! warm-up reset, and the ticks that drive Bouncer's histogram swaps.
//! The constants were captured from the simulator before it was rebuilt
//! on the gate's hooks; any change to hook order, event order or a single
//! timestamp changes the hash.

use std::sync::Arc;

use bouncer_core::framework::TypeStats;
use bouncer_core::prelude::*;
use bouncer_core::spec::kv::fnv1a64;
use bouncer_metrics::time::millis;
use bouncer_sim::{run, SimConfig};
use bouncer_workload::mix::paper_table1_mix;

const EVENTS_HASH: u64 = 5_200_614_340_794_372_164;
const EVENTS_LEN: usize = 76_868;
/// `(received, accepted, completed, policy rejections, QueueFull rejections)`
/// over the measured window.
const TOTALS: (u64, u64, u64, u64, u64) = (16_000, 11_339, 11_353, 436, 4_225);
const DURATION_NS: u64 = 9_627_266_916;

#[test]
fn seeded_overload_run_is_byte_identical() {
    let mut reg = TypeRegistry::new();
    let mix = paper_table1_mix(&mut reg);
    let parallelism = 8;
    let slos = SloConfig::uniform(&reg, Slo::p50_p90(millis(18), millis(50)));
    let policy = Bouncer::new(slos, BouncerConfig::with_parallelism(parallelism));

    let sink = Arc::new(MemorySink::new());
    let mut cfg = SimConfig::quick(mix.qps_full_load(parallelism) * 1.4, 2024);
    cfg.parallelism = parallelism;
    cfg.warmup_queries = 4_000;
    cfg.measured_queries = 16_000;
    cfg.max_queue_len = Some(6);
    cfg.sink = Some(sink.clone());
    let result = run(Arc::new(policy), &mix, &cfg);

    let events = sink.events();
    let count = |pred: &dyn Fn(&Event) -> bool| events.iter().filter(|e| pred(e)).count();
    // The shape the constants rely on: every branch was taken.
    assert!(count(&|e| matches!(e, Event::Dequeued { wait: 0, .. })) > 0);
    assert!(count(&|e| matches!(e, Event::Enqueued { queue_len, .. } if *queue_len > 1)) > 0);
    assert!(count(&|e| matches!(e, Event::Dequeued { wait, .. } if *wait > 0)) > 0);
    assert!(
        count(&|e| matches!(
            e,
            Event::Rejected {
                reason: RejectReason::QueueFull,
                ..
            }
        )) > 0
    );
    assert!(
        count(
            &|e| matches!(e, Event::Rejected { reason, .. } if *reason != RejectReason::QueueFull)
        ) > 0
    );
    assert!(count(&|e| e.name() == "histogram_swap") > 0);
    assert!(count(&|e| matches!(e, Event::Tick { .. })) > 0);

    let mut jsonl = String::new();
    for e in &events {
        jsonl.push_str(&e.to_json());
        jsonl.push('\n');
    }
    let hash = fnv1a64(jsonl.as_bytes());

    // `received` counts only the measured queries: the warm-up reset ran.
    let s = &result.stats;
    let sum = |f: &dyn Fn(&TypeStats) -> u64| s.per_type.iter().map(f).sum::<u64>();
    let queue_full = sum(&|t| t.rejected_by_reason[RejectReason::QueueFull.index()]);
    let totals = (
        s.total_received(),
        sum(&|t| t.accepted),
        sum(&|t| t.completed),
        s.total_rejected() - queue_full,
        queue_full,
    );
    assert_eq!(
        (hash, events.len(), totals, result.duration),
        (EVENTS_HASH, EVENTS_LEN, TOTALS, DURATION_NS),
        "simulator output moved"
    );
}
