//! Ablation (§7 extension): queue service disciplines under Bouncer, from
//! `scenarios/abl_scheduling.scn`.
//!
//! The paper's LIquid serves admitted queries FIFO; §7 plans priority-based
//! service, and Gatekeeper (§6) argues for SJF. This ablation runs the
//! Table 1 mix at overload under basic Bouncer with three disciplines:
//!
//! * FIFO (the paper's deployment),
//! * priority-by-type with *slow* queries prioritized (the starvation-prone
//!   type gets the queue's preference),
//! * oracle shortest-job-first.
//!
//! Expected: prioritizing slow queries almost eliminates their queue wait
//! (rt_p50 drops well under the SLO) at the cost of cheap queries now
//! waiting behind them; oracle SJF protects the cheap queries instead and
//! shifts the waiting onto the long ones — the starvation-by-scheduling
//! that Gatekeeper's aging mechanism (§6) exists to counter. Rejection
//! totals barely move: admission is decided before the queue, so the
//! discipline mostly redistributes waiting, not load.

use std::sync::Arc;

use bouncer_bench::runmode::RunMode;
use bouncer_bench::simstudy::{SimStudy, TYPE_NAMES};
use bouncer_bench::table::{ms_opt, pct, Table};
use bouncer_metrics::time::as_millis_f64;
use bouncer_sim::{run, SimDiscipline};

fn main() {
    let mode = RunMode::from_env();
    println!("{}", mode.banner());
    let study = SimStudy::load("abl_scheduling.scn");
    let seed = study.spec().seed;
    let policy = study.scenario().build_policy("", seed).unwrap();

    // slow (type index 4) gets top priority, medium slow next.
    let priorities = vec![0u8, 0, 0, 1, 2];
    let disciplines: Vec<(&str, SimDiscipline)> = vec![
        ("FIFO", SimDiscipline::Fifo),
        ("priority(slow)", SimDiscipline::PriorityByType(priorities)),
        ("SJF(oracle)", SimDiscipline::ShortestJobFirst),
    ];

    for &factor in study.rate_factors() {
        let mut table = Table::new(vec![
            "discipline",
            "rej_all %",
            "rej_slow %",
            "slow rt_p50",
            "slow wait_p90",
            "fast rt_p50",
        ]);
        for (name, discipline) in &disciplines {
            let mut cfg = study.scenario().sim_config_at_factor(factor, seed);
            cfg.measured_queries = mode.sim_measured;
            cfg.warmup_queries = mode.sim_warmup;
            cfg.discipline = discipline.clone();
            let r = run(Arc::clone(&policy), study.mix(), &cfg);
            let slow = study.ty("slow");
            let fast = study.ty("fast");
            let wait90 = r.stats.per_type[slow.index()]
                .wait
                .value_at_quantile(0.9)
                .map(as_millis_f64);
            table.row(vec![
                name.to_string(),
                pct(r.overall_rejection_pct()),
                pct(r.rejection_pct(slow)),
                ms_opt(r.response_ms(slow, 0.5)),
                ms_opt(wait90),
                ms_opt(r.response_ms(fast, 0.5)),
            ]);
            eprint!(".");
        }
        table.print_tagged(
            &format!(
                "Scheduling ablation — Bouncer at {factor:.1}x QPS_full_load ({})",
                TYPE_NAMES.join(", ")
            ),
            &study.tag(),
        );
    }
    eprintln!();
    println!("FIFO is the paper's baseline; priority-by-type implements the §7");
    println!("extension; oracle SJF shows why Gatekeeper needed an aging scheme.");
}
