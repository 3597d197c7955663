//! The query-lifecycle observability layer, end to end.
//!
//! Run with:
//! ```sh
//! cargo run --release --example observability
//! ```
//!
//! Runs a short overloaded simulation with Bouncer at the door — the
//! `bouncer` policy of `scenarios/overload_surge.scn` — and two consumers
//! attached:
//!
//! * a [`JsonlSink`] capturing every lifecycle and policy event as one JSON
//!   object per line (what the CLI's `--events-out` writes), and
//! * [`render_prometheus`], turning the run's final `StatsSnapshot` into
//!   the Prometheus text exposition format (what `--metrics-out` writes).
//!
//! The event log is then re-read to reconstruct a per-type admit/reject
//! tally — the kind of offline diagnosis OBSERVABILITY.md walks through.

use std::path::Path;
use std::sync::Arc;

use bouncer_repro::core::obs::{parse_json, render_prometheus, validate_prometheus, JsonlSink};
use bouncer_repro::sim::{run, ScenarioSim};

fn main() {
    let path = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/overload_surge.scn"
    ));
    let scenario = ScenarioSim::load(path).unwrap_or_else(|e| panic!("{e}"));
    let spec = scenario.spec();
    let registry = scenario.registry();
    println!("scenario: {}", spec.tag());

    let capacity = scenario.full_load();
    let factor = scenario.sim_spec().rate_factors[0];

    // 1. A JSONL event log on disk, exactly like `--events-out`.
    let events_path = std::env::temp_dir().join("bouncer-observability-demo.jsonl");
    let sink = JsonlSink::create(&events_path).expect("cannot create event log");

    let bouncer = scenario
        .build_policy("bouncer", spec.seed)
        .unwrap_or_else(|e| panic!("{e}"));
    let mut cfg = scenario.sim_config_at_factor(factor, spec.seed);
    cfg.measured_queries = 100_000;
    cfg.warmup_queries = 20_000;
    cfg.sink = Some(Arc::new(sink));

    println!(
        "running bouncer at {factor}x of capacity ({:.0} QPS), events -> {}\n",
        capacity * factor,
        events_path.display()
    );
    let result = run(bouncer, scenario.mix(), &cfg);

    // 2. Re-read the log: every line is one JSON event.
    let log = std::fs::read_to_string(&events_path).expect("event log vanished");
    let mut admitted = vec![0u64; registry.len()];
    let mut rejected = vec![0u64; registry.len()];
    let mut swaps = 0u64;
    for line in log.lines() {
        let v = parse_json(line).expect("sink wrote invalid JSON");
        let event = v.get("event").and_then(|e| e.as_str()).unwrap();
        let ty = v.get("type").and_then(|t| t.as_u64()).map(|t| t as usize);
        match (event, ty) {
            ("admitted", Some(t)) => admitted[t] += 1,
            ("rejected", Some(t)) => rejected[t] += 1,
            ("histogram_swap", _) => swaps += 1,
            _ => {}
        }
    }
    println!(
        "{} events logged ({} bouncer histogram swaps)\n",
        log.lines().count(),
        swaps
    );
    println!("{:<14} {:>10} {:>10} {:>10}", "type", "admitted", "rejected", "shed%");
    for (ty, name) in registry.iter() {
        let (a, r) = (admitted[ty.index()], rejected[ty.index()]);
        if a + r == 0 {
            continue;
        }
        println!(
            "{:<14} {:>10} {:>10} {:>9.1}%",
            name,
            a,
            r,
            100.0 * r as f64 / (a + r) as f64
        );
    }

    // 3. The same run's aggregate statistics as Prometheus text.
    let names: Vec<&str> = registry.iter().map(|(_, n)| n).collect();
    let metrics = render_prometheus(&result.stats, &names);
    let samples = validate_prometheus(&metrics).expect("renderer produced invalid text");
    println!("\nprometheus exposition ({samples} samples); excerpt:");
    for line in metrics
        .lines()
        .filter(|l| l.contains("rejected") || l.contains("utilization"))
        .take(12)
    {
        println!("  {line}");
    }

    let _ = std::fs::remove_file(&events_path);
}
