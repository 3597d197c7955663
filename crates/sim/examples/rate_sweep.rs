//! Sweeps basic Bouncer across traffic rates and prints the headline
//! metrics per rate — a quick way to see the policy's behavior around and
//! beyond saturation (compare with the paper's Table 3 "basic" rows).
//!
//! ```sh
//! cargo run --release -p bouncer-sim --example rate_sweep
//! ```
use std::sync::Arc;

use bouncer_core::prelude::*;
use bouncer_metrics::time::millis;
use bouncer_sim::{run, SimConfig};
use bouncer_workload::mix::paper_table1_mix;

fn main() {
    let mut reg = TypeRegistry::new();
    let mix = paper_table1_mix(&mut reg);
    let full = mix.qps_full_load(100);
    let slow = reg.resolve("slow").unwrap();
    let msl = reg.resolve("medium slow").unwrap();
    for factor in [0.9, 0.95, 1.0, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3, 1.35, 1.4, 1.45, 1.5] {
        let slos = SloConfig::uniform(&reg, Slo::p50_p90(millis(18), millis(50)));
        let b = Bouncer::new(slos, BouncerConfig::with_parallelism(100));
        let mut cfg = SimConfig::quick(full * factor, 3);
        cfg.measured_queries = 200_000;
        cfg.warmup_queries = 50_000;
        let r = run(Arc::new(b), &mix, &cfg);
        println!("f={factor}: util={:.1}% rej_all={:.2}% rej_slow={:.1}% rej_msl={:.2}% rt50_slow={:.1}ms rt50_msl={:.1}ms",
            r.utilization_pct(), r.overall_rejection_pct(), r.rejection_pct(slow), r.rejection_pct(msl),
            r.response_ms(slow, 0.5).unwrap_or(0.0), r.response_ms(msl, 0.5).unwrap_or(0.0));
    }
}
