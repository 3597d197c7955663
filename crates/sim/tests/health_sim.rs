//! End-to-end health sampling under *virtual* time: an overload surge in
//! the simulator must advance the sampler's windows off event timestamps
//! alone (no wall clock), fire the rejection-spike trigger, write an
//! incident dump, and that dump must reconstruct the whole episode —
//! queue-depth rise, attainment dip, and the controller's corrective
//! decisions — through the `postmortem` analyzer.

use std::fs;
use std::sync::Arc;

use bouncer_core::obs::postmortem::{analyze, parse_dump, render_report};
use bouncer_core::obs::{HealthConfig, MemorySink};
use bouncer_core::spec::ScenarioSpec;
use bouncer_metrics::time::{millis, secs};
use bouncer_sim::{run, ScenarioSim};

/// Constant sustainable load for 2 virtual seconds, then a 3× surge: the
/// AIMD loop has settled decisions on record before the overload hits.
fn surge_spec() -> ScenarioSpec {
    let text = "name = health_surge\n\
         seed = 97\n\
         measured = 260000\n\
         warmup = 2000\n\
         slo.default = p50=18ms p90=50ms\n\
         workload = paper_table1\n\
         runtime = sim\n\
         sim.rate_factors = 1.0\n\
         sim.rate_steps = 2s:3.0\n\
         controller = aimd target_attain=0.95 interval=500ms step=0.02 backoff=0.85 min=0.3\n\
         policy.adaptive = acceptfraction util=0.9\n";
    ScenarioSpec::parse(text).expect("valid spec")
}

#[test]
fn sim_surge_dumps_an_incident_that_postmortem_reconstructs() {
    let dir = std::env::temp_dir().join(format!("bouncer-health-sim-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();

    let scenario = ScenarioSim::new(surge_spec()).expect("valid scenario");
    let policy = scenario.build_policy("adaptive", 5).expect("policy");
    let mut cfg = scenario.sim_config_at_factor(1.0, 5);
    cfg.sink = Some(Arc::new(MemorySink::new()));

    let mut health = HealthConfig {
        interval: millis(100),
        dump_dir: Some(dir.clone()),
        ..HealthConfig::default()
    };
    health.trigger.rejection_rate = Some(0.3);
    health.trigger.cooldown = secs(30); // one dump tells the story
    let sampler = scenario.attach_health(health, &mut cfg);
    scenario
        .attach_controller("adaptive", &policy, &mut cfg)
        .expect("controller wiring")
        .expect("spec has a controller");

    run(policy, scenario.mix(), &cfg);

    // Virtual-time windows closed and scored attainment without any wall
    // clock involvement.
    assert!(
        sampler.samples() > 10,
        "expected many 100ms windows, got {}",
        sampler.samples()
    );
    assert_eq!(sampler.incidents(), 1, "the surge fires exactly one dump");
    let paths = sampler.incident_paths();
    assert_eq!(paths.len(), 1);
    // The AIMD loop reacts to the surge before a full window crosses the
    // rejection threshold, so the corrective backoff is what trips the
    // trigger — and its decision record is the freshest thing in the
    // rings when they drain.
    let name = paths[0].file_name().unwrap().to_str().unwrap().to_string();
    assert!(
        name.contains("controller_backoff"),
        "unexpected trigger: {name}"
    );

    let dump = parse_dump(&fs::read_to_string(&paths[0]).unwrap()).expect("parseable dump");
    assert_eq!(dump.header.reason, "controller_backoff");
    assert_eq!(
        dump.header.scenario_hash.as_deref(),
        Some(format!("{:016x}", scenario.spec().content_hash()).as_str()),
        "dump is stamped with the scenario that produced it"
    );
    assert!(!dump.samples.is_empty(), "trailing health samples present");
    assert!(dump.header.records > 0, "flight recorder drained records");

    // One timeline shows the whole episode: depth rises into the surge,
    // attainment dips, and the controller had corrective decisions on
    // record before the trigger fired.
    let analysis = analyze(&dump);
    assert!(
        analysis.peak_depth > 0,
        "queue depth must rise during the surge"
    );
    assert!(
        analysis.min_attainment.is_some_and(|a| a < 1.0),
        "attainment dips under overload: {:?}",
        analysis.min_attainment
    );
    assert!(
        analysis.max_rejection.is_some_and(|r| r > 0.0),
        "the shed load that provoked the backoff is visible: {:?}",
        analysis.max_rejection
    );
    assert!(
        !analysis.actions.is_empty(),
        "controller decisions appear on the timeline"
    );
    assert!(
        analysis.types.iter().any(|t| t.rejected > 0),
        "per-type ledger shows the shed load"
    );

    let report = render_report(&dump);
    assert!(report.contains("incident: controller_backoff"));
    assert!(report.contains("controller actions:"));
    assert!(report.contains("max_utilization"));

    let _ = fs::remove_dir_all(&dir);
}
