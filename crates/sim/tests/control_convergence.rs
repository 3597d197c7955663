//! Convergence behavior of the adaptive control plane (ADAPTIVE.md):
//! under constant load an AIMD controller must settle into a bounded
//! sawtooth (no runaway, no sustained drift), and a mid-run traffic-mix
//! shift must trigger re-convergence to a new operating point within a
//! bounded number of decision intervals.

use std::sync::Arc;

use bouncer_core::control::Controller;
use bouncer_core::spec::ScenarioSpec;
use bouncer_sim::{run, ScenarioSim};

/// A Table-1-shaped custom workload behind the AcceptFraction guard with
/// an AIMD controller on `max_utilization` — the `adaptive_shift.scn`
/// study, sized down for a test and with the shift made optional.
fn adaptive_spec(shift: bool) -> String {
    let shift_lines = if shift { "sim.shift_at = 4s\n" } else { "" };
    let pshift = |v: f64| {
        if shift {
            format!(" pshift={v}")
        } else {
            String::new()
        }
    };
    format!(
        "name = control_convergence\n\
         seed = 45232\n\
         measured = 300000\n\
         warmup = 10000\n\
         slo.default = p50=18ms p90=50ms\n\
         workload = custom\n\
         class.fast = p=0.4 p50=0.38ms p90=2.7ms{}\n\
         class.medium fast = p=0.2 p50=2.22ms p90=4.27ms{}\n\
         class.medium slow = p=0.3 p50=7.4ms p90=26.44ms{}\n\
         class.slow = p=0.1 p50=12.51ms p90=44.26ms{}\n\
         runtime = sim\n\
         sim.rate_factors = 1.05\n\
         {}controller = aimd target_attain=0.95 interval=1s step=0.02 backoff=0.85 min=0.5\n\
         policy.adaptive = acceptfraction util=0.8\n",
        pshift(0.25),
        pshift(0.10),
        pshift(0.20),
        pshift(0.45),
        shift_lines,
    )
}

/// Runs the scenario closed-loop and returns the controller.
fn run_adaptive(shift: bool) -> Arc<Controller> {
    let spec = ScenarioSpec::parse(&adaptive_spec(shift)).expect("valid spec");
    let scenario = ScenarioSim::new(spec).expect("valid scenario");
    let policy = scenario.build_policy("adaptive", 1).expect("policy");
    let mut cfg = scenario.sim_config_at_factor(1.05, 1);
    let controller = scenario
        .attach_controller("adaptive", &policy, &mut cfg)
        .expect("controller wiring")
        .expect("spec has a controller");
    run(policy, scenario.mix(), &cfg);
    controller
}

#[test]
fn aimd_reaches_a_bounded_steady_state_under_constant_load() {
    let controller = run_adaptive(false);
    let decisions = controller.decisions();
    assert!(
        decisions.len() >= 10,
        "expected a decision every second, got {}",
        decisions.len()
    );
    let spec = controller.spec();
    for d in &decisions {
        assert!(
            (spec.min..=spec.max).contains(&d.value),
            "decision {} outside [{}, {}]",
            d.value,
            spec.min,
            spec.max
        );
    }
    // After a settling prefix the sawtooth stays inside a bounded band:
    // additive climbs and multiplicative backoffs orbit the knee instead
    // of oscillating rail to rail or drifting monotonically.
    let tail: Vec<f64> = decisions[decisions.len() / 2..]
        .iter()
        .map(|d| d.value)
        .collect();
    let (lo, hi) = tail
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    assert!(
        hi - lo < 0.35,
        "steady-state band [{lo:.3}, {hi:.3}] wider than a bounded sawtooth"
    );
    // ...and the system it steers actually attains: most late intervals
    // sit at or above the 0.95 attainment setpoint's backoff threshold.
    let attaining = decisions[decisions.len() / 2..]
        .iter()
        .filter(|d| d.attainment >= 0.90)
        .count();
    assert!(
        attaining * 3 >= tail.len() * 2,
        "only {attaining}/{} late intervals attained 0.90",
        tail.len()
    );
}

#[test]
fn mix_shift_triggers_reconvergence_within_bounded_intervals() {
    let constant = run_adaptive(false);
    let shifted = run_adaptive(true);
    let decisions = shifted.decisions();
    let shift_at = 4_000_000_000u64; // sim.shift_at = 4s
    let split = decisions
        .iter()
        .position(|d| d.at > shift_at)
        .expect("decisions continue past the shift");
    assert!(split >= 2, "need pre-shift decisions, split={split}");
    assert!(
        decisions.len() - split >= 10,
        "need post-shift decisions, got {}",
        decisions.len() - split
    );

    // The disturbance registers: the admitted load overshoots the
    // halved capacity until the loop reacts, so within N = 6 intervals
    // of the shift at least one decision is a backoff (the constant-load
    // twin of this run climbs monotonically through the same window).
    let react = &decisions[split..(split + 6).min(decisions.len())];
    let backed_off = react
        .windows(2)
        .any(|w| w[1].value < w[0].value)
        || react[0].value < decisions[split - 1].value;
    assert!(
        backed_off,
        "no backoff within 6 intervals of the shift: {:?}",
        react.iter().map(|d| d.value).collect::<Vec<_>>()
    );
    let constant = constant.decisions();
    let cwin = &constant[split..(split + 6).min(constant.len())];
    assert!(
        cwin.windows(2).all(|w| w[1].value >= w[0].value),
        "constant-load control did not climb through the same window"
    );

    // ...and re-convergence happens within N = 10 intervals of the
    // shift: from there on, intervals attain the SLO tail again (0.90 is
    // exactly a met p90 target) instead of staying in the post-shift
    // degradation.
    let recovered = &decisions[(split + 10).min(decisions.len() - 1)..];
    let attaining = recovered.iter().filter(|d| d.attainment >= 0.90).count();
    assert!(
        attaining * 3 >= recovered.len() * 2,
        "only {attaining}/{} intervals attained after the re-convergence \
         window: {:?}",
        recovered.len(),
        recovered.iter().map(|d| d.attainment).collect::<Vec<_>>()
    );
}
