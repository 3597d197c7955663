//! Behavioral tests of the simulator against queueing-theory ground truth
//! and the paper's qualitative claims (§5.3).

use bouncer_core::prelude::*;
use bouncer_metrics::time::millis;
use bouncer_sim::{run, SimConfig};
use bouncer_workload::mix::paper_table1_mix;
use bouncer_workload::QueryMix;
use std::sync::Arc;

fn table1() -> (TypeRegistry, QueryMix) {
    let mut reg = TypeRegistry::new();
    let mix = paper_table1_mix(&mut reg);
    (reg, mix)
}

fn quick(rate_factor: f64, seed: u64, mix: &QueryMix) -> SimConfig {
    let full = mix.qps_full_load(100);
    let mut cfg = SimConfig::quick(full * rate_factor, seed);
    cfg.measured_queries = 120_000;
    cfg.warmup_queries = 30_000;
    cfg
}

/// The paper's Bouncer setup for the simulation study (Table 2).
fn paper_bouncer(reg: &TypeRegistry) -> Bouncer {
    let slos = SloConfig::uniform(reg, Slo::p50_p90(millis(18), millis(50)));
    Bouncer::new(slos, BouncerConfig::with_parallelism(100))
}

#[test]
fn underload_has_no_rejections_and_low_latency() {
    let (reg, mix) = table1();
    let b = paper_bouncer(&reg);
    let r = run(Arc::new(b), &mix, &quick(0.8, 1, &mix));
    assert_eq!(r.stats.total_rejected(), 0, "no rejections at 0.8x");
    // At 80% load the system is stable; slow queries' rt_p50 should be near
    // their pt_p50 of 12.51ms, well under the 18ms SLO.
    let slow = reg.resolve("slow").unwrap();
    let rt50 = r.response_ms(slow, 0.5).unwrap();
    assert!(rt50 < 18.0, "rt50={rt50}");
    let util = r.utilization_pct();
    assert!((util - 80.0).abs() < 5.0, "util={util}");
}

#[test]
fn unprotected_system_collapses_under_overload() {
    let (reg, mix) = table1();
    let r = run(Arc::new(AlwaysAccept::new()), &mix, &quick(1.2, 2, &mix));
    let slow = reg.resolve("slow").unwrap();
    // With no admission control at 1.2x capacity the queue grows without
    // bound and response times explode far beyond any SLO.
    let rt50 = r.response_ms(slow, 0.5).unwrap();
    assert!(rt50 > 200.0, "rt50={rt50}");
    assert_eq!(r.stats.total_rejected(), 0);
}

#[test]
fn bouncer_keeps_slow_queries_within_slo_under_overload() {
    let (reg, mix) = table1();
    let b = paper_bouncer(&reg);
    let r = run(Arc::new(b), &mix, &quick(1.2, 3, &mix));
    let slow = reg.resolve("slow").unwrap();
    let rt50 = r.response_ms(slow, 0.5).unwrap();
    // Figure 6: Bouncer keeps rt_p50 at/under the 18ms SLO (small histogram
    // quantization slack).
    assert!(rt50 <= 19.0, "rt50={rt50}");
    // And it does so by rejecting mostly slow queries (Table 3).
    let fast = reg.resolve("fast").unwrap();
    assert!(r.rejection_pct(slow) > 20.0);
    assert_eq!(r.rejection_pct(fast), 0.0);
    // While keeping the engine near fully utilized (Figure 7).
    assert!(r.utilization_pct() > 90.0, "util={}", r.utilization_pct());
}

#[test]
fn maxql_plateaus_but_violates_slo() {
    let (reg, mix) = table1();
    let p = MaxQueueLength::new(400);
    let r = run(Arc::new(p), &mix, &quick(1.3, 4, &mix));
    let slow = reg.resolve("slow").unwrap();
    let rt50 = r.response_ms(slow, 0.5).unwrap();
    // Figure 6: MaxQL plateaus around 40ms — above the SLO, bounded by the
    // queue cap. Accept a generous band around the paper's value.
    assert!(rt50 > 19.0, "rt50={rt50}");
    assert!(rt50 < 80.0, "rt50={rt50}");
}

#[test]
fn maxqwt_plateaus_near_its_wait_limit() {
    let (reg, mix) = table1();
    let p = MaxQueueWaitTime::new(millis(15), 100);
    let r = run(Arc::new(p), &mix, &quick(1.3, 5, &mix));
    let slow = reg.resolve("slow").unwrap();
    let rt50 = r.response_ms(slow, 0.5).unwrap();
    // Figure 6: MaxQWT plateaus around ~22ms (15ms wait + slow pt_p50);
    // above the 18ms SLO because it ignores per-type percentiles.
    assert!(rt50 > 18.0 && rt50 < 40.0, "rt50={rt50}");
}

#[test]
fn accept_fraction_caps_utilization_at_threshold() {
    let (_reg, mix) = table1();
    let p = AcceptFraction::new(AcceptFractionConfig::new(0.95, 100));
    let r = run(Arc::new(p), &mix, &quick(1.3, 6, &mix));
    let util = r.utilization_pct();
    // Figure 7: AcceptFraction is limited by its 95% threshold. The drain
    // phase and update lag add a little measurement slack on top.
    assert!(util < 98.5, "util={util}");
    assert!(util > 85.0, "util={util}");
    assert!(r.overall_rejection_pct() > 5.0);
}

#[test]
fn bouncer_rejects_fewer_overall_than_type_oblivious_policies() {
    let (reg, mix) = table1();
    let cfg = quick(1.3, 7, &mix);

    let bouncer = paper_bouncer(&reg);
    let b = run(Arc::new(bouncer), &mix, &cfg);

    let maxql = MaxQueueLength::new(400);
    let q = run(Arc::new(maxql), &mix, &cfg);

    let af = AcceptFraction::new(AcceptFractionConfig::new(0.95, 100));
    let a = run(Arc::new(af), &mix, &cfg);

    // Figure 8: Bouncer reports the lowest rejection percentage.
    assert!(
        b.overall_rejection_pct() < q.overall_rejection_pct(),
        "bouncer={} maxql={}",
        b.overall_rejection_pct(),
        q.overall_rejection_pct()
    );
    assert!(
        b.overall_rejection_pct() < a.overall_rejection_pct(),
        "bouncer={} af={}",
        b.overall_rejection_pct(),
        a.overall_rejection_pct()
    );
}

#[test]
fn starvation_basic_vs_allowance() {
    let (reg, mix) = table1();
    let slow = reg.resolve("slow").unwrap();
    let cfg = quick(1.5, 8, &mix);

    // Basic Bouncer at 1.5x: slow queries starve (>90% rejected, Table 3).
    let basic = paper_bouncer(&reg);
    let rb = run(Arc::new(basic), &mix, &cfg);
    assert!(rb.rejection_pct(slow) > 90.0, "basic={}", rb.rejection_pct(slow));

    // Acceptance allowance with A=0.1 caps rejections near 90%.
    let aa = AcceptanceAllowance::new(paper_bouncer(&reg), reg.len(), 0.1, 99);
    let ra = run(Arc::new(aa), &mix, &cfg);
    assert!(
        ra.rejection_pct(slow) < 92.0,
        "allowance={}",
        ra.rejection_pct(slow)
    );
    assert!(ra.rejection_pct(slow) < rb.rejection_pct(slow));
}

#[test]
fn same_seed_same_result() {
    let (reg, mix) = table1();
    let cfg = {
        let mut c = quick(1.1, 42, &mix);
        c.measured_queries = 40_000;
        c.warmup_queries = 10_000;
        c
    };
    let r1 = run(Arc::new(paper_bouncer(&reg)), &mix, &cfg);
    let r2 = run(Arc::new(paper_bouncer(&reg)), &mix, &cfg);
    assert_eq!(r1.stats.total_received(), r2.stats.total_received());
    assert_eq!(r1.stats.total_rejected(), r2.stats.total_rejected());
    assert_eq!(r1.duration, r2.duration);
}

#[test]
fn policies_work_behind_arc_dyn() {
    let (reg, mix) = table1();
    let p: Arc<dyn AdmissionPolicy> = Arc::new(paper_bouncer(&reg));
    let cfg = {
        let mut c = quick(1.0, 11, &mix);
        c.measured_queries = 20_000;
        c.warmup_queries = 5_000;
        c
    };
    let r = run(Arc::new(p), &mix, &cfg);
    assert!(r.stats.total_received() > 0);
}

#[test]
fn queue_limit_produces_queue_full_rejections() {
    let (_reg, mix) = table1();
    let mut cfg = quick(1.4, 12, &mix);
    cfg.max_queue_len = Some(50);
    cfg.measured_queries = 60_000;
    cfg.warmup_queries = 10_000;
    let r = run(Arc::new(AlwaysAccept::new()), &mix, &cfg);
    let quf: u64 = r
        .stats
        .per_type
        .iter()
        .map(|t| t.rejected_by_reason[RejectReason::QueueFull.index()])
        .sum();
    assert!(quf > 0, "queue-full rejections expected");
}
