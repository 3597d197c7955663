//! Figure 3 (§4): the starvation example.
//!
//! `scenarios/fig03_starvation.scn` declares two query types with the
//! *same* SLO {p50 = 18 ms, p90 = 50 ms}: FAST queries (cheap) and SLOW
//! queries (whose processing times sit close to the SLO, so the objective
//! is much tighter for them). Driving the simulated broker hard, basic
//! Bouncer starves the SLOW type — the paper observed ~99 % SLOW
//! rejections vs <10 % FAST — and the starvation avoidance strategies cap
//! or relieve it.

use bouncer_bench::runmode::RunMode;
use bouncer_bench::simstudy::SimStudy;
use bouncer_bench::table::{ms_opt, pct, Table};

fn main() {
    let mode = RunMode::from_env();
    println!("{}", mode.banner());
    let study = SimStudy::load("fig03_starvation.scn");
    let fast = study.ty("FAST");
    let slow = study.ty("SLOW");
    let factor = study.rate_factors()[0]; // "traffic at a high rate"

    let mut table = Table::new(vec![
        "policy",
        "FAST rej %",
        "SLOW rej %",
        "FAST rt_p50",
        "SLOW rt_p50",
        "SLOW rt_p90",
    ]);

    let policies = [
        ("basic", "Bouncer (basic)"),
        ("aa", "Bouncer + allowance(0.05)"),
        ("htu", "Bouncer + underserved(1.0)"),
    ];
    for (label, display) in policies {
        let policy = study.scenario().build_policy(label, 7).unwrap();
        let r = study.run_once(policy, factor, study.spec().seed, &mode);
        table.row(vec![
            display.to_owned(),
            pct(r.rejection_pct(fast)),
            pct(r.rejection_pct(slow)),
            ms_opt(r.response_ms(fast, 0.5)),
            ms_opt(r.response_ms(slow, 0.5)),
            ms_opt(r.response_ms(slow, 0.9)),
        ]);
        eprint!(".");
    }
    eprintln!();

    table.print_tagged(
        "Figure 3 — query starvation at high load (same SLO for FAST and SLOW)",
        &study.tag(),
    );
    println!("paper: basic Bouncer rejects ~99% of SLOW while <10% of FAST; the");
    println!("starvation-avoidance strategies keep letting some SLOW queries in.");
}
