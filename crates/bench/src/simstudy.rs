//! The §5.3 simulation-study harness, shared by the figure/table benches.
//!
//! Since the scenario-spec refactor this is a thin wrapper around
//! [`ScenarioSim`]: every bench loads its declarative `.scn` file from
//! `scenarios/`, and all policies are built through the spec registry
//! ([`PolicySpec::build`]) — the Table 2 parameters live in the scenario
//! files and `bouncer_core::spec::defaults`, not here. What this module
//! adds is the study's multi-seed averaging ([`SimStudy::run_avg`]) and
//! the [`RunMode`] sizing (quick vs paper-scale).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bouncer_core::policy::AdmissionPolicy;
use bouncer_core::slo::SloConfig;
use bouncer_core::spec::{PolicySpec, ScenarioSpec};
use bouncer_core::types::{TypeId, TypeRegistry};
use bouncer_sim::{run, ScenarioSim, SimResult};
use bouncer_workload::QueryMix;

use crate::runmode::RunMode;

pub use bouncer_core::spec::defaults::{PARALLELISM, SIM_RATE_FACTORS as RATE_FACTORS, TYPE_NAMES};

/// Absolute path of a checked-in scenario file (`scenarios/<name>` under
/// the workspace root), so benches find their specs regardless of the
/// directory `cargo bench` runs from.
pub fn scenario_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(name)
}

/// Shared study fixture: a resolved sim scenario.
pub struct SimStudy {
    scenario: ScenarioSim,
}

impl SimStudy {
    /// The default §5.3 fixture (Table 1 mix, `P = 100`, Table 3 sweep) —
    /// the same shape every sim scenario file starts from.
    pub fn new() -> Self {
        Self::from_spec(
            ScenarioSpec::parse("name = sim_study\nseed = 45232\n").expect("default spec"),
        )
    }

    /// Loads a scenario file from `scenarios/` by file name.
    pub fn load(file_name: &str) -> Self {
        let path = scenario_path(file_name);
        let spec = ScenarioSpec::load(&path)
            .unwrap_or_else(|e| panic!("cannot load {}: {e}", path.display()));
        Self::from_spec(spec)
    }

    /// Resolves an in-memory scenario (must select the sim runtime).
    pub fn from_spec(spec: ScenarioSpec) -> Self {
        let scenario =
            ScenarioSim::new(spec).unwrap_or_else(|e| panic!("invalid scenario: {e}"));
        Self { scenario }
    }

    /// The resolved scenario fixture.
    pub fn scenario(&self) -> &ScenarioSim {
        &self.scenario
    }

    /// The scenario spec this study runs.
    pub fn spec(&self) -> &ScenarioSpec {
        self.scenario.spec()
    }

    /// `"{name} {hash}"` — the banner tag benches stamp on table titles.
    pub fn tag(&self) -> String {
        self.spec().tag()
    }

    /// The type registry (default + workload types).
    pub fn registry(&self) -> &TypeRegistry {
        self.scenario.registry()
    }

    /// The resolved query mix.
    pub fn mix(&self) -> &QueryMix {
        self.scenario.mix()
    }

    /// `QPS_full_load` at the scenario's parallelism (≈ 15.1 kQPS for the
    /// Table 1 mix at `P = 100`).
    pub fn full_load(&self) -> f64 {
        self.scenario.full_load()
    }

    /// The scenario's rate sweep (multiples of `QPS_full_load`).
    pub fn rate_factors(&self) -> &[f64] {
        &self.scenario.sim_spec().rate_factors
    }

    /// The resolved SLO table.
    pub fn slos(&self) -> SloConfig {
        self.scenario.slos().clone()
    }

    /// Resolves a workload type by name.
    pub fn ty(&self, name: &str) -> TypeId {
        self.registry().resolve(name).expect("unknown type")
    }

    /// The scenario's policy labeled `label`.
    pub fn policy(&self, label: &str) -> &PolicySpec {
        self.spec()
            .policy(label)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// One simulation run of an already-built policy at
    /// `factor × QPS_full_load`, sized by `mode`.
    pub fn run_once(
        &self,
        policy: Arc<dyn AdmissionPolicy>,
        factor: f64,
        seed: u64,
        mode: &RunMode,
    ) -> SimResult {
        let mut cfg = self.scenario.sim_config_at_factor(factor, seed);
        cfg.measured_queries = mode.sim_measured;
        cfg.warmup_queries = mode.sim_warmup;
        run(policy, self.mix(), &cfg)
    }

    /// Averages `mode.runs` seeded runs of the scenario's policy labeled
    /// `label`, optionally closing the loop: with `adaptive` the
    /// scenario's `controller` line is wired in (Observe tap + staged
    /// parameter updates), without it the same policy runs open-loop at
    /// its spec'd parameter — the static baselines of an adaptive study.
    pub fn run_avg_labeled(
        &self,
        label: &str,
        factor: f64,
        mode: &RunMode,
        adaptive: bool,
    ) -> AvgResult {
        let mut acc = AvgResult::zero(self.registry().len());
        for i in 0..mode.runs {
            let seed = self.spec().seed + 7919 * i;
            let policy = self
                .scenario
                .build_policy(label, seed)
                .unwrap_or_else(|e| panic!("{e}"));
            let mut cfg = self.scenario.sim_config_at_factor(factor, seed);
            cfg.measured_queries = mode.sim_measured;
            cfg.warmup_queries = mode.sim_warmup;
            if adaptive {
                self.scenario
                    .attach_controller(label, &policy, &mut cfg)
                    .unwrap_or_else(|e| panic!("{e}"));
            }
            let result = run(policy, self.mix(), &cfg);
            acc.add(&result, self.registry());
        }
        acc.finish(mode.runs);
        acc
    }

    /// Averages `mode.runs` seeded runs of a policy spec. Seeds derive
    /// from the scenario's base seed (`seed + 7919·i`), and the policy is
    /// rebuilt through the registry per run so probabilistic policies vary
    /// with the seed.
    pub fn run_avg(&self, policy: &PolicySpec, factor: f64, mode: &RunMode) -> AvgResult {
        let mut acc = AvgResult::zero(self.registry().len());
        for i in 0..mode.runs {
            let seed = self.spec().seed + 7919 * i;
            let result = self.run_once(self.scenario.build(policy, seed), factor, seed, mode);
            acc.add(&result, self.registry());
        }
        acc.finish(mode.runs);
        acc
    }
}

impl Default for SimStudy {
    fn default() -> Self {
        Self::new()
    }
}

/// Metrics averaged over seeded runs (the paper reports 5-run averages).
#[derive(Debug, Clone)]
pub struct AvgResult {
    /// Per-type rejection percentage, indexed by `TypeId::index()`.
    pub rej_pct: Vec<f64>,
    /// Overall rejection percentage.
    pub rej_all_pct: f64,
    /// Per-type median response time (ms) of serviced queries; `NaN` when a
    /// type had none.
    pub rt_p50_ms: Vec<f64>,
    /// Per-type p90 response time (ms).
    pub rt_p90_ms: Vec<f64>,
    /// Per-type median processing time (ms).
    pub pt_p50_ms: Vec<f64>,
    /// Engine utilization percentage.
    pub util_pct: f64,
    counts: Vec<u64>, // runs contributing response-time samples per type
}

impl AvgResult {
    fn zero(n_types: usize) -> Self {
        Self {
            rej_pct: vec![0.0; n_types],
            rej_all_pct: 0.0,
            rt_p50_ms: vec![0.0; n_types],
            rt_p90_ms: vec![0.0; n_types],
            pt_p50_ms: vec![0.0; n_types],
            util_pct: 0.0,
            counts: vec![0; n_types],
        }
    }

    fn add(&mut self, r: &SimResult, registry: &TypeRegistry) {
        for (ty, _) in registry.iter() {
            let i = ty.index();
            self.rej_pct[i] += r.rejection_pct(ty);
            if let Some(p50) = r.response_ms(ty, 0.5) {
                self.rt_p50_ms[i] += p50;
                self.rt_p90_ms[i] += r.response_ms(ty, 0.9).unwrap_or(p50);
                self.pt_p50_ms[i] += r.processing_ms(ty, 0.5).unwrap_or(0.0);
                self.counts[i] += 1;
            }
        }
        self.rej_all_pct += r.overall_rejection_pct();
        self.util_pct += r.utilization_pct();
    }

    fn finish(&mut self, runs: u64) {
        let n = runs as f64;
        for v in &mut self.rej_pct {
            *v /= n;
        }
        self.rej_all_pct /= n;
        self.util_pct /= n;
        for i in 0..self.rt_p50_ms.len() {
            let c = self.counts[i] as f64;
            if c > 0.0 {
                self.rt_p50_ms[i] /= c;
                self.rt_p90_ms[i] /= c;
                self.pt_p50_ms[i] /= c;
            } else {
                self.rt_p50_ms[i] = f64::NAN;
                self.rt_p90_ms[i] = f64::NAN;
                self.pt_p50_ms[i] = f64::NAN;
            }
        }
    }

    /// Median response time (ms) for `ty`, `None` if no run serviced it.
    pub fn rt_p50(&self, ty: TypeId) -> Option<f64> {
        let v = self.rt_p50_ms[ty.index()];
        (!v.is_nan()).then_some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runmode::RunMode;
    use std::time::Duration;

    fn tiny_mode() -> RunMode {
        RunMode {
            sim_measured: 30_000,
            sim_warmup: 10_000,
            runs: 2,
            liquid_measure: Duration::from_secs(1),
            liquid_warmup: Duration::from_secs(1),
            full: false,
        }
    }

    #[test]
    fn fixture_matches_paper_capacity() {
        let s = SimStudy::new();
        assert!((s.full_load() - 15_100.0).abs() < 1_000.0);
        assert_eq!(s.registry().len(), 5);
        assert_eq!(s.spec().seed, 45232);
        assert_eq!(s.rate_factors(), &RATE_FACTORS);
    }

    #[test]
    fn run_avg_aggregates_metrics() {
        let s = SimStudy::new();
        let avg = s.run_avg(&PolicySpec::parse("bouncer").unwrap(), 1.2, &tiny_mode());
        let slow = s.ty("slow");
        assert!(avg.rej_pct[slow.index()] > 10.0);
        assert!(avg.util_pct > 50.0);
        assert!(avg.rt_p50(slow).is_some() || avg.rej_pct[slow.index()] > 99.0);
    }

    #[test]
    fn checked_in_scenarios_load() {
        // Every sim bench's scenario file resolves through the registry.
        for file in [
            "fig03_starvation.scn",
            "fig06_policies.scn",
            "fig09_strategies.scn",
            "fig10_param_rt.scn",
            "fig14_maxqwt_pertype.scn",
            "table3_rejections.scn",
            "table4_allowance.scn",
            "table5_underserved.scn",
            "abl_scheduling.scn",
            "abl_histogram_modes.scn",
            "abl_literature.scn",
            "adaptive_shift.scn",
        ] {
            let s = SimStudy::load(file);
            assert!(!s.spec().policies.is_empty(), "{file} has no policies");
        }
    }

    #[test]
    fn every_checked_in_scenario_parses() {
        // The whole scenarios/ directory, liquid and sim alike, parses —
        // the same invariant scripts/check.sh enforces via scenario-hash.
        let dir = scenario_path("");
        let mut seen = 0usize;
        for entry in std::fs::read_dir(&dir).expect("scenarios/ directory") {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("scn") {
                continue;
            }
            bouncer_core::spec::ScenarioSpec::load(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            seen += 1;
        }
        assert!(seen >= 20, "expected the checked-in scenario set, saw {seen}");
    }
}
