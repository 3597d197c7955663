//! The §5.4 real-system study setup, shared by the Figure 11–13 benches.
//!
//! The paper drives a 16-shard / 12-broker production cluster at 36K–180K
//! QPS with a wrk2-derived generator, the published QT1..QT11 mix, brokers
//! running the policy under evaluation and shards running AcceptFraction
//! (80 %), `L_limit = 800`, SLO `{p50 = 18 ms, p90 = 90 ms}` — our scaled
//! stand-in keeps every one of those structural choices and replaces the
//! absolute rate axis with multiples of the mini-cluster's *measured*
//! capacity (the paper's own observation anchors the mapping: "shards
//! report high CPU utilization at rates ≥ 108K QPS", i.e. the third of the
//! five points sits at the knee).
//!
//! Since the scenario-spec refactor the cluster shape, traffic points, and
//! broker policies all come from a `scenarios/*.scn` file: the fixture is
//! built with [`LiquidStudy::load`], and [`LiquidStudy::run_point`] builds
//! each broker's policy through [`PolicySpec::build`] — no bench declares
//! its own policy factory.

use std::sync::Arc;
use std::time::Duration;

use bouncer_core::policy::AlwaysAccept;
use bouncer_core::slo::{Slo, SloConfig};
use bouncer_core::spec::{
    defaults, PolicyEnv, PolicySpec, ScenarioSpec, StrategySpec, TransportSpec,
};
use bouncer_core::types::TypeRegistry;
use bouncer_metrics::histogram::HistogramSnapshot;
use bouncer_metrics::time::millis_f64;
use bouncer_workload::dist::{Exponential, LogNormal};
use bouncer_workload::generator::{LoadReport, TypeReport};
use bouncer_workload::mix::{QueryClass, QueryMix, LIQUID_MIX_PROPORTIONS};
use liquid::broker::{kind_type_id, liquid_registry, ClientOutcome, RouteStrategy};
use liquid::cluster::{Cluster, ClusterConfig, TransportKind};
use liquid::query::{Query, QueryKind};

use crate::runmode::RunMode;
use crate::simstudy::scenario_path;

/// The shared fixture: the scenario, the cluster shape it maps to, and the
/// measured capacity anchor.
pub struct LiquidStudy {
    spec: ScenarioSpec,
    /// Cluster shape used by every run.
    pub cluster_cfg: ClusterConfig,
    /// The QT1..QT11 registry.
    pub registry: TypeRegistry,
    /// Measured admitted-throughput capacity (QPS) of this machine.
    pub capacity_qps: f64,
    /// Generator mix with the published proportions.
    pub mix: QueryMix,
    /// Worker threads for the closed-loop capacity probe.
    pub workers: usize,
}

impl LiquidStudy {
    /// The default §5.4 fixture shape (2 shards, 1 broker, the five
    /// capacity-relative traffic points).
    pub fn new(mode: &RunMode) -> Self {
        Self::from_spec(
            ScenarioSpec::parse("name = liquid_study\nruntime = liquid\npolicy = always\n")
                .expect("default spec"),
            mode,
        )
    }

    /// Loads a liquid scenario file from `scenarios/` by file name.
    pub fn load(file_name: &str, mode: &RunMode) -> Self {
        let path = scenario_path(file_name);
        let spec = ScenarioSpec::load(&path)
            .unwrap_or_else(|e| panic!("cannot load {}: {e}", path.display()));
        Self::from_spec(spec, mode)
    }

    /// Builds the fixture from a spec (which must select the liquid
    /// runtime) and probes capacity once with pass-through brokers.
    pub fn from_spec(spec: ScenarioSpec, mode: &RunMode) -> Self {
        let liquid = spec.liquid().unwrap_or_else(|e| panic!("{e}")).clone();
        let mut cluster_cfg = ClusterConfig {
            n_shards: liquid.shards as usize,
            n_brokers: liquid.brokers as usize,
            transport: match liquid.transport {
                TransportSpec::Channels => TransportKind::InProc,
                TransportSpec::Tcp => TransportKind::Tcp,
                // Rings clusters take queries through `Cluster::execute`
                // only; the study driver's submit/poll loop has no
                // equivalent there yet.
                TransportSpec::Rings => panic!(
                    "rings transport is not supported by the rate study driver; \
                     use channels or tcp"
                ),
            },
            shard_max_utilization: liquid.shard_max_utilization,
            replicas: liquid.replicas as usize,
            strategy: match liquid.strategy {
                StrategySpec::PrimaryOnly => RouteStrategy::PrimaryOnly,
                StrategySpec::LoadBalanced => RouteStrategy::LoadBalanced,
                StrategySpec::Hedged => RouteStrategy::Hedged,
            },
            ..ClusterConfig::default()
        };
        cluster_cfg.graph.vertices = liquid.graph_vertices;
        cluster_cfg.graph.edges_per_vertex = liquid.graph_edges_per_vertex;
        let registry = liquid_registry();
        let mix = liquid_mix();

        let probe_cluster =
            Cluster::spawn(&cluster_cfg, |_reg, _p| Arc::new(AlwaysAccept::new()));
        let vertices = probe_cluster.vertices();
        let probe_mix = mix.clone();
        let probe_time = if mode.full {
            Duration::from_secs(10)
        } else {
            Duration::from_secs(4)
        };
        let capacity_qps = probe_cluster.probe_capacity(probe_time, 16, move |rng| {
            let class = probe_mix.sample_class(rng);
            let kind = QueryKind::from_index(class.ty.index() - 1).expect("kind");
            Query::random(kind, vertices, rng)
        });
        probe_cluster.shutdown();

        Self {
            spec,
            cluster_cfg,
            registry,
            capacity_qps,
            mix,
            workers: 12,
        }
    }

    /// The scenario this fixture was resolved from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// `"{name} {hash}"` — the banner tag benches stamp on table titles.
    pub fn tag(&self) -> String {
        self.spec.tag()
    }

    /// The scenario's traffic points: `(label, factor)` with factors
    /// relative to the measured saturation capacity.
    pub fn rate_points(&self) -> &[(String, f64)] {
        &self.spec.liquid().expect("checked in from_spec").rate_points
    }

    /// The scenario's policy labeled `label`.
    pub fn policy(&self, label: &str) -> &PolicySpec {
        self.spec.policy(label).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs one (policy, rate) data point: spawn the cluster with brokers
    /// built through the spec registry, warm up, measure, tear down.
    pub fn run_point(
        &self,
        policy: &PolicySpec,
        rate_qps: f64,
        seed: u64,
        mode: &RunMode,
    ) -> LiquidPoint {
        let cluster = Cluster::spawn(&self.cluster_cfg, |reg, engines| {
            let env = PolicyEnv {
                registry: reg,
                slos: liquid_slos(reg),
                parallelism: engines,
            };
            policy.build(&env, seed)
        });
        let n_types = self.registry.len();

        // Warm-up at the same rate (the paper warms the cluster one minute
        // before each run), then reset host statistics and measure.
        let _ = drive_cluster(&cluster, &self.mix, rate_qps, mode.liquid_warmup, seed, n_types);
        cluster.reset_stats();

        let client = drive_cluster(
            &cluster,
            &self.mix,
            rate_qps,
            mode.liquid_measure,
            seed ^ 0xFEED,
            n_types,
        );

        // Merge broker-side statistics across brokers.
        let mut broker_rt: Vec<Option<HistogramSnapshot>> = vec![None; n_types];
        let mut broker_pt: Vec<Option<HistogramSnapshot>> = vec![None; n_types];
        let mut received = vec![0u64; n_types];
        let mut rejected = vec![0u64; n_types];
        for broker in cluster.brokers() {
            let snap = broker.stats().snapshot(1, broker.parallelism());
            for (i, t) in snap.per_type.iter().enumerate() {
                received[i] += t.received;
                rejected[i] += t.rejected();
                merge_into(&mut broker_rt[i], &t.response);
                merge_into(&mut broker_pt[i], &t.processing);
            }
        }
        let shard_rejections: u64 = cluster
            .shards()
            .iter()
            .map(|s| s.stats().snapshot(1, 1).total_rejected())
            .sum();

        cluster.shutdown();
        LiquidPoint {
            client,
            broker_rt: broker_rt.into_iter().collect(),
            broker_pt: broker_pt.into_iter().collect(),
            received,
            rejected,
            shard_rejections,
        }
    }
}

/// Drives a cluster truly open-loop: one pacing thread submits queries at
/// the intended Poisson instants *without waiting for responses* (tagged
/// submission), and one collector thread measures latencies from the
/// intended send times. Unlike a pool of blocking workers, this sustains
/// the intended rate even when the system under test holds seconds of
/// queued work — which is exactly the regime the non-early-rejecting
/// policies (MaxQL, AcceptFraction) enter at overload.
pub fn drive_cluster(
    cluster: &Cluster,
    mix: &QueryMix,
    rate_qps: f64,
    duration: std::time::Duration,
    seed: u64,
    n_types: usize,
) -> LoadReport {
    use bouncer_metrics::AtomicHistogram;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    struct Counters {
        sent: AtomicU64,
        ok: AtomicU64,
        rejected: AtomicU64,
        errors: AtomicU64,
        latency: AtomicHistogram,
    }
    let counters: Vec<Counters> = (0..n_types)
        .map(|_| Counters {
            sent: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency: AtomicHistogram::new(),
        })
        .collect();

    let epoch = Instant::now();
    let (tx, rx) = crossbeam::channel::unbounded::<(u64, ClientOutcome)>();
    let vertices = cluster.vertices();

    std::thread::scope(|scope| {
        // Collector: one thread services any number of in-flight queries.
        // Tokens pack (type index << 56 | intended nanos) so latency can be
        // computed without a lookup table.
        let counters_ref = &counters;
        let collector = scope.spawn(move || {
            // The channel disconnects once the submitter's sender and every
            // in-flight Responder clone have dropped; a timeout bounds the
            // drain if an engine wedges.
            while let Ok((token, outcome)) =
                rx.recv_timeout(std::time::Duration::from_secs(30))
            {
                let ty = (token >> 56) as usize;
                let intended_ns = token & ((1 << 56) - 1);
                let c = &counters_ref[ty.min(counters_ref.len() - 1)];
                match outcome {
                    ClientOutcome::Ok(_) => {
                        let now_ns = epoch.elapsed().as_nanos() as u64;
                        c.ok.fetch_add(1, Ordering::Relaxed);
                        c.latency.record(now_ns.saturating_sub(intended_ns));
                    }
                    ClientOutcome::Rejected(_) | ClientOutcome::ShardRejected => {
                        c.rejected.fetch_add(1, Ordering::Relaxed);
                    }
                    ClientOutcome::Expired | ClientOutcome::Failed => {
                        c.errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        });

        // Submitter: paced, non-blocking.
        let mut rng = SmallRng::seed_from_u64(seed);
        let gaps = Exponential::new(rate_qps);
        let deadline = duration;
        let mut intended = std::time::Duration::from_secs_f64(gaps.sample(&mut rng));
        while intended < deadline {
            let target = epoch + intended;
            let now = Instant::now();
            if now < target {
                std::thread::sleep(target - now);
            }
            let class = mix.sample_class(&mut rng);
            let kind = QueryKind::from_index(class.ty.index() - 1).expect("kind");
            let q = Query::random(kind, vertices, &mut rng);
            counters[class.ty.index()].sent.fetch_add(1, Ordering::Relaxed);
            let token = ((class.ty.index() as u64) << 56) | intended.as_nanos() as u64;
            cluster.submit_tagged(q, tx.clone(), token);
            intended += std::time::Duration::from_secs_f64(gaps.sample(&mut rng));
        }
        drop(tx);
        let _ = collector.join();
    });

    LoadReport {
        per_type: counters
            .iter()
            .map(|c| TypeReport {
                sent: c.sent.load(Ordering::Relaxed),
                ok: c.ok.load(Ordering::Relaxed),
                rejected: c.rejected.load(Ordering::Relaxed),
                errors: c.errors.load(Ordering::Relaxed),
                latency: c.latency.snapshot(),
            })
            .collect(),
        elapsed: epoch.elapsed(),
    }
}

fn merge_into(slot: &mut Option<HistogramSnapshot>, snap: &HistogramSnapshot) {
    match slot {
        Some(acc) => acc.merge(snap),
        None => *slot = Some(snap.clone()),
    }
}

/// One (policy, rate) measurement.
#[derive(Debug)]
pub struct LiquidPoint {
    /// Client-side (wrk2-style) per-type results.
    pub client: LoadReport,
    /// Broker-side response-time distributions per type (merged).
    pub broker_rt: Vec<Option<HistogramSnapshot>>,
    /// Broker-side processing-time distributions per type (merged).
    pub broker_pt: Vec<Option<HistogramSnapshot>>,
    /// Broker-side received counts per type.
    pub received: Vec<u64>,
    /// Broker-side rejected counts per type.
    pub rejected: Vec<u64>,
    /// Rejections produced by the shard tier (the paper confirms brokers
    /// produce the vast majority).
    pub shard_rejections: u64,
}

impl LiquidPoint {
    /// Client-observed overall rejection percentage.
    pub fn overall_rejection_pct(&self) -> f64 {
        self.client.overall_rejection_ratio() * 100.0
    }

    /// Client-observed latency quantile for a type, in ms.
    pub fn client_latency_ms(&self, kind: QueryKind, q: f64) -> Option<f64> {
        self.client.per_type[kind_type_id(kind).index()]
            .latency
            .value_at_quantile(q)
            .map(|ns| ns as f64 / 1e6)
    }

    /// Broker-observed response-time quantile for a type, in ms.
    pub fn broker_rt_ms(&self, kind: QueryKind, q: f64) -> Option<f64> {
        self.broker_rt[kind_type_id(kind).index()]
            .as_ref()?
            .value_at_quantile(q)
            .map(|ns| ns as f64 / 1e6)
    }

    /// Broker-observed processing-time quantile for a type, in ms.
    pub fn broker_pt_ms(&self, kind: QueryKind, q: f64) -> Option<f64> {
        self.broker_pt[kind_type_id(kind).index()]
            .as_ref()?
            .value_at_quantile(q)
            .map(|ns| ns as f64 / 1e6)
    }
}

/// The generator mix: published proportions; the lognormal column is unused
/// by the generator (costs come from actually executing the queries).
pub fn liquid_mix() -> QueryMix {
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

/// The §5.4 SLO configuration: `{p50 = 18 ms, p90 = 50 ms}` for every type.
pub fn liquid_slos(registry: &TypeRegistry) -> SloConfig {
    SloConfig::uniform(
        registry,
        Slo::p50_p90(
            millis_f64(defaults::SLO_P50_MS),
            millis_f64(defaults::SLO_P90_MS),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_lines_up_with_kinds() {
        let mix = liquid_mix();
        assert_eq!(mix.classes().len(), 11);
        for (i, c) in mix.classes().iter().enumerate() {
            assert_eq!(c.ty, kind_type_id(QueryKind::ALL[i]));
            assert_eq!(c.name, QueryKind::ALL[i].name());
        }
        // QT11 dominates, like the published mix.
        assert!(mix.classes()[10].proportion > 0.27);
    }

    #[test]
    fn scenario_policies_build_for_brokers() {
        let spec = ScenarioSpec::parse(
            "name = t\nruntime = liquid\n\
             policy.aa = bouncer+aa A=0.05\npolicy.maxql = maxql limit=800\n\
             policy.maxqwt = maxqwt wait=12ms\npolicy.af = acceptfraction util=0.8\n",
        )
        .unwrap();
        let reg = liquid_registry();
        let env = PolicyEnv {
            registry: &reg,
            slos: liquid_slos(&reg),
            parallelism: 8,
        };
        for (label, p) in &spec.policies {
            let policy = p.build(&env, 1);
            assert!(!policy.name().is_empty(), "{label}");
        }
    }

    #[test]
    fn default_spec_has_the_five_paper_points() {
        let spec =
            ScenarioSpec::parse("name = t\nruntime = liquid\npolicy = always\n").unwrap();
        let points = &spec.liquid().unwrap().rate_points;
        assert_eq!(points.len(), 5);
        assert_eq!(points[0].0, "36K-analog");
        assert!((points[2].1 - 1.25).abs() < 1e-9);
    }

    #[test]
    fn slos_cover_all_types() {
        let reg = liquid_registry();
        let slos = liquid_slos(&reg);
        assert_eq!(slos.n_types(), 12);
    }
}
