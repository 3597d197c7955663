//! Cross-crate integration tests: the policies from `bouncer-core` driven
//! through the simulator, the workload generator, and the LIquid-like
//! cluster — the full paths the paper's two studies exercise.

use std::sync::Arc;
use std::time::Duration;

use bouncer_repro::core::prelude::*;
use bouncer_repro::metrics::time::millis;
use bouncer_repro::sim::{run, SimConfig};
use bouncer_repro::workload::generator::{run_open_loop, LoadGenConfig, QueryOutcome};
use bouncer_repro::workload::mix::paper_table1_mix;
use liquid::broker::{kind_type_id, ClientOutcome};
use liquid::cluster::{Cluster, ClusterConfig};
use liquid::graph::GraphConfig;
use liquid::query::{Query, QueryKind};

fn small_cluster_config() -> ClusterConfig {
    ClusterConfig {
        n_shards: 2,
        n_brokers: 1,
        graph: GraphConfig {
            vertices: 20_000,
            edges_per_vertex: 6,
            seed: 3,
        },
        ..ClusterConfig::default()
    }
}

/// The headline claim, end to end in simulation: under overload, Bouncer
/// keeps serviced slow queries within their SLO, rejects fewer overall than
/// a type-oblivious baseline, and utilization stays high.
#[test]
fn bouncer_headline_claims_in_simulation() {
    let mut registry = TypeRegistry::new();
    let mix = paper_table1_mix(&mut registry);
    let slow = registry.resolve("slow").unwrap();
    let rate = mix.qps_full_load(100) * 1.25;

    let slos = SloConfig::uniform(&registry, Slo::p50_p90(millis(18), millis(50)));
    let bouncer = Bouncer::new(slos, BouncerConfig::with_parallelism(100));
    let cfg = SimConfig::quick(rate, 77);
    let b = run(Arc::new(bouncer), &mix, &cfg);

    let maxql = MaxQueueLength::new(400);
    let q = run(Arc::new(maxql), &mix, &cfg);

    let b_rt = b.response_ms(slow, 0.5).unwrap();
    let q_rt = q.response_ms(slow, 0.5).unwrap();
    assert!(b_rt <= 19.0, "bouncer rt50={b_rt}");
    assert!(q_rt > 19.0, "maxql rt50={q_rt}");
    assert!(b.overall_rejection_pct() < q.overall_rejection_pct());
    assert!(b.utilization_pct() > 85.0);
}

/// Full real-system path: open-loop generator -> broker (Bouncer+AA) ->
/// shards (AcceptFraction) over the in-process transport.
#[test]
fn cluster_under_bouncer_answers_and_sheds() {
    let cluster = Cluster::spawn(&small_cluster_config(), |registry, engines| {
        let slos = SloConfig::uniform(registry, Slo::p50_p90(millis(18), millis(50)));
        let bouncer = Bouncer::new(slos, BouncerConfig::with_parallelism(engines));
        Arc::new(AcceptanceAllowance::new(bouncer, registry.len(), 0.05, 3))
    });
    let vertices = cluster.vertices();

    let mix = bouncer_bench_mix();
    let report = run_open_loop(
        &mix,
        cluster.registry().len(),
        &LoadGenConfig {
            rate_qps: 400.0,
            duration: Duration::from_secs(2),
            workers: 16,
            seed: 5,
        },
        |ty, rng| {
            let kind = QueryKind::from_index(ty.index() - 1).unwrap();
            match cluster.execute(Query::random(kind, vertices, rng)) {
                ClientOutcome::Ok(_) => QueryOutcome::Ok,
                ClientOutcome::Rejected(_) | ClientOutcome::ShardRejected => {
                    QueryOutcome::Rejected
                }
                ClientOutcome::Expired | ClientOutcome::Failed => QueryOutcome::Error,
            }
        },
    );

    assert!(report.total_sent() > 400, "sent={}", report.total_sent());
    let errors: u64 = report.per_type.iter().map(|t| t.errors).sum();
    assert_eq!(errors, 0, "no transport/execution errors expected");
    // Some queries serviced; cheap types never starved.
    let qt1 = &report.per_type[kind_type_id(QueryKind::Qt1Degree).index()];
    assert!(qt1.ok > 0);
    cluster.shutdown();
}

/// The same policy object type-checks and behaves across both "deployments"
/// (virtual-time simulator and wall-clock cluster) — the design property
/// that lets the paper evaluate one implementation twice.
#[test]
fn one_policy_impl_serves_both_studies() {
    // Simulator leg.
    let mut registry = TypeRegistry::new();
    let mix = paper_table1_mix(&mut registry);
    let slos = SloConfig::uniform(&registry, Slo::p50_p90(millis(18), millis(50)));
    let policy: Arc<dyn AdmissionPolicy> = Arc::new(Bouncer::new(
        slos,
        BouncerConfig::with_parallelism(100),
    ));
    let mut cfg = SimConfig::quick(mix.qps_full_load(100), 1);
    cfg.measured_queries = 20_000;
    cfg.warmup_queries = 5_000;
    let r = run(Arc::new(policy), &mix, &cfg);
    assert!(r.stats.total_received() > 0);

    // Cluster leg with an identically constructed policy.
    let cluster = Cluster::spawn(&small_cluster_config(), |registry, engines| {
        let slos = SloConfig::uniform(registry, Slo::p50_p90(millis(18), millis(50)));
        Arc::new(Bouncer::new(slos, BouncerConfig::with_parallelism(engines)))
    });
    let out = cluster.execute(Query {
        kind: QueryKind::Qt1Degree,
        u: 1,
        v: 2,
    });
    assert!(matches!(out, ClientOutcome::Ok(_)));
    cluster.shutdown();
}

/// Overload on the cluster produces early rejections at the broker tier
/// (the paper: "the brokers, not the shards, produced the vast majority of
/// rejections").
#[test]
fn overload_produces_broker_side_early_rejections() {
    let cluster = Cluster::spawn(&small_cluster_config(), |registry, engines| {
        let slos = SloConfig::uniform(registry, Slo::p50_p90(millis(5), millis(15)));
        Arc::new(Bouncer::new(slos, BouncerConfig::with_parallelism(engines)))
    });
    let vertices = cluster.vertices();
    let mix = bouncer_bench_mix();

    let report = run_open_loop(
        &mix,
        cluster.registry().len(),
        &LoadGenConfig {
            rate_qps: 12_000.0, // far beyond this small cluster's capacity
            duration: Duration::from_secs(2),
            workers: 64,
            seed: 9,
        },
        |ty, rng| {
            let kind = QueryKind::from_index(ty.index() - 1).unwrap();
            match cluster.execute(Query::random(kind, vertices, rng)) {
                ClientOutcome::Ok(_) => QueryOutcome::Ok,
                ClientOutcome::Rejected(_) | ClientOutcome::ShardRejected => {
                    QueryOutcome::Rejected
                }
                ClientOutcome::Expired | ClientOutcome::Failed => QueryOutcome::Error,
            }
        },
    );
    assert!(
        report.overall_rejection_ratio() > 0.05,
        "expected shedding, got {:.3}",
        report.overall_rejection_ratio()
    );
    let broker_rejections: u64 = cluster
        .brokers()
        .iter()
        .map(|b| b.stats().snapshot(1, 1).total_rejected())
        .sum();
    assert!(broker_rejections > 0);
    cluster.shutdown();
}

/// Helper: the published QT mix wired to the liquid registry ids.
fn bouncer_bench_mix() -> bouncer_repro::workload::QueryMix {
    use bouncer_repro::workload::dist::LogNormal;
    use bouncer_repro::workload::mix::{QueryClass, QueryMix, LIQUID_MIX_PROPORTIONS};
    QueryMix::new(
        LIQUID_MIX_PROPORTIONS
            .iter()
            .enumerate()
            .map(|(i, &(name, prop))| QueryClass {
                ty: kind_type_id(QueryKind::ALL[i]),
                name: name.to_owned(),
                proportion: prop,
                processing_ms: LogNormal::new(0.0, 0.0),
            })
            .collect(),
    )
}
