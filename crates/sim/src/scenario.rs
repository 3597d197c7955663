//! Running simulator experiments from a [`ScenarioSpec`] — the registry
//! path every sim-side consumer (CLI, study benches, examples) constructs
//! through.
//!
//! [`ScenarioSim::new`] resolves a spec once — registering the workload's
//! types, building the mix and SLO table, computing `QPS_full_load` — and
//! then stamps every [`SimConfig`] it hands out with the scenario's content
//! hash, so results and event streams name the spec that produced them.

use std::sync::Arc;

use bouncer_core::control::{slo_tail_targets, ControlParam, ControlTap, Controller};
use bouncer_core::obs::recorder::DEFAULT_RING_CAPACITY;
use bouncer_core::obs::{HealthConfig, HealthSampler, Recorder, RecorderSink};
use bouncer_core::policy::AdmissionPolicy;
use bouncer_core::slo::SloConfig;
use bouncer_core::slo_spec::SpecError;
use bouncer_core::spec::{DisciplineSpec, PolicyEnv, PolicySpec, ScenarioSpec, SimSpec};
use bouncer_core::types::TypeRegistry;
use bouncer_metrics::time::millis_f64;
use bouncer_workload::mix::{build_mix, build_shift_mix, QueryMix};

use crate::engine::{run, SimConfig};
use crate::queue::SimDiscipline;
use crate::result::SimResult;

/// A sim scenario resolved against its workload: the fixture experiments
/// build policies and [`SimConfig`]s from.
pub struct ScenarioSim {
    spec: ScenarioSpec,
    registry: TypeRegistry,
    mix: QueryMix,
    shift_mix: Option<QueryMix>,
    slos: SloConfig,
    full_load: f64,
}

impl ScenarioSim {
    /// Resolves `spec` (which must select the sim runtime): registers the
    /// workload types, builds the mix (and the post-shift mix, for
    /// workloads with `pshift` classes) and SLO table, and computes
    /// `QPS_full_load` for the spec's parallelism.
    pub fn new(spec: ScenarioSpec) -> Result<ScenarioSim, SpecError> {
        let sim = spec.sim()?.clone();
        let mut registry = TypeRegistry::new();
        let mix = build_mix(&spec.workload, &mut registry)?;
        let shift_mix = build_shift_mix(&spec.workload, &mut registry)?;
        let slos = spec.slos(&registry)?;
        let full_load = mix.qps_full_load(sim.parallelism);
        Ok(ScenarioSim {
            spec,
            registry,
            mix,
            shift_mix,
            slos,
            full_load,
        })
    }

    /// Loads and resolves a `.scn` file.
    pub fn load(path: &std::path::Path) -> Result<ScenarioSim, SpecError> {
        ScenarioSim::new(ScenarioSpec::load(path)?)
    }

    /// The scenario this fixture was resolved from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The sim runtime parameters.
    pub fn sim_spec(&self) -> &SimSpec {
        self.spec.sim().expect("checked in new()")
    }

    /// The registry populated by the workload.
    pub fn registry(&self) -> &TypeRegistry {
        &self.registry
    }

    /// The resolved query mix.
    pub fn mix(&self) -> &QueryMix {
        &self.mix
    }

    /// The resolved SLO table.
    pub fn slos(&self) -> &SloConfig {
        &self.slos
    }

    /// `QPS_full_load` for the spec's mix and parallelism.
    pub fn full_load(&self) -> f64 {
        self.full_load
    }

    /// The policy-construction environment for this scenario.
    pub fn policy_env(&self) -> PolicyEnv<'_> {
        PolicyEnv {
            registry: &self.registry,
            slos: self.slos.clone(),
            parallelism: self.sim_spec().parallelism,
        }
    }

    /// Builds the policy labeled `label` (`""` for the unlabeled line).
    pub fn build_policy(&self, label: &str, seed: u64) -> Result<Arc<dyn AdmissionPolicy>, SpecError> {
        Ok(self.spec.policy(label)?.build(&self.policy_env(), seed))
    }

    /// Builds an explicit policy spec in this scenario's environment (for
    /// sweeps that vary a parameter around a scenario's base policy).
    pub fn build(&self, policy: &PolicySpec, seed: u64) -> Arc<dyn AdmissionPolicy> {
        policy.build(&self.policy_env(), seed)
    }

    /// A [`SimConfig`] for this scenario at an absolute offered rate: the
    /// paper's §5.3 shape, overridden by the spec's parallelism, queue
    /// limit, discipline, rate steps, and run lengths, and stamped with
    /// the scenario's content hash.
    pub fn sim_config(&self, rate_qps: f64, seed: u64) -> SimConfig {
        let sim = self.sim_spec();
        let mut cfg = SimConfig::paper(rate_qps, seed);
        cfg.parallelism = sim.parallelism;
        cfg.max_queue_len = sim.queue_limit.map(|l| l as usize);
        cfg.discipline = match &sim.discipline {
            DisciplineSpec::Fifo => SimDiscipline::Fifo,
            DisciplineSpec::Priority(levels) => SimDiscipline::PriorityByType(levels.clone()),
            DisciplineSpec::ShortestJobFirst => SimDiscipline::ShortestJobFirst,
        };
        cfg.rate_steps = sim
            .rate_steps
            .iter()
            .map(|&(at_ms, factor)| (millis_f64(at_ms), factor))
            .collect();
        if let (Some(at_ms), Some(shifted)) = (sim.shift_at, &self.shift_mix) {
            cfg.mix_shift = Some((millis_f64(at_ms), shifted.clone()));
        }
        if let Some(measured) = self.spec.measured {
            cfg.measured_queries = measured;
        }
        if let Some(warmup) = self.spec.warmup {
            cfg.warmup_queries = warmup;
        }
        cfg.scenario_hash = Some(self.spec.content_hash());
        cfg
    }

    /// A [`SimConfig`] at a multiple of `QPS_full_load`.
    pub fn sim_config_at_factor(&self, factor: f64, seed: u64) -> SimConfig {
        self.sim_config(self.full_load * factor, seed)
    }

    /// Wires up the scenario's adaptive control plane, when its spec has a
    /// `controller` line: builds a [`Controller`] seeded from the labeled
    /// policy's own value of the controlled parameter, attaches `policy`
    /// as the Act target, and interposes a [`ControlTap`] between the
    /// engine and `cfg.sink` as the Observe step. Returns the controller
    /// for post-run inspection of its decision history; `Ok(None)` when
    /// the scenario is static. Runners evaluating statically-tuned
    /// variants of an adaptive scenario simply skip this call.
    pub fn attach_controller(
        &self,
        label: &str,
        policy: &Arc<dyn AdmissionPolicy>,
        cfg: &mut SimConfig,
    ) -> Result<Option<Arc<Controller>>, SpecError> {
        let Some(cspec) = &self.spec.controller else {
            return Ok(None);
        };
        let param = cspec.law.param();
        let initial = initial_param(self.spec.policy(label)?, param)
            .unwrap_or((cspec.min + cspec.max) / 2.0);
        let controller = Arc::new(Controller::new(cspec.clone(), initial));
        controller.attach_policy(Arc::clone(policy));
        let tails = slo_tail_targets(&self.slos, self.registry.len());
        let tap = Arc::new(ControlTap::new(
            Arc::clone(&controller),
            tails,
            cfg.sink.take(),
        ));
        controller.attach_sink(tap.clone());
        cfg.sink = Some(tap);
        Ok(Some(controller))
    }

    /// Wires the flight recorder and health sampler into `cfg`'s sink
    /// chain: the recorder captures every event into per-thread rings and
    /// the sampler folds periodic `health_sample`/`type_health` windows,
    /// resolving the scenario's SLO tail targets and type names so
    /// attainment scoring and incident-dump headers need no extra setup
    /// from the caller (who fills in `health.interval`, `dump_dir`, and
    /// trigger thresholds). Call *before* [`ScenarioSim::attach_controller`]
    /// so the control tap sits outermost and its `controller_decision`
    /// events flow down through the sampler and into the recorder.
    ///
    /// Returns the sampler for post-run inspection (`health_counters`,
    /// `incident_paths`, the recorder itself).
    pub fn attach_health(&self, mut health: HealthConfig, cfg: &mut SimConfig) -> Arc<HealthSampler> {
        health.slo_tails = slo_tail_targets(&self.slos, self.registry.len());
        health.type_names = (0..self.registry.len())
            .map(|i| {
                self.registry
                    .name(bouncer_core::types::TypeId::from_index(i as u32))
                    .to_string()
            })
            .collect();
        let recorder = Recorder::new(DEFAULT_RING_CAPACITY);
        let rec_sink: Arc<dyn bouncer_core::obs::EventSink> =
            Arc::new(RecorderSink::new(Arc::clone(&recorder), cfg.sink.take()));
        let sampler = HealthSampler::new(health, recorder, rec_sink);
        cfg.sink = Some(sampler.clone());
        sampler
    }

    /// Runs the labeled policy at `factor × QPS_full_load` — the
    /// `ScenarioSpec::run` entry point for single runs. Scenarios with a
    /// `controller` line run closed-loop.
    pub fn run(&self, label: &str, factor: f64, seed: u64) -> Result<SimResult, SpecError> {
        let policy = self.build_policy(label, seed)?;
        let mut cfg = self.sim_config_at_factor(factor, seed);
        self.attach_controller(label, &policy, &mut cfg)?;
        Ok(run(policy, &self.mix, &cfg))
    }
}

/// The labeled policy's own value of `param`, used to seed the controller
/// so the loop starts from the operator's configuration rather than a
/// band edge. `None` when the policy doesn't carry the parameter.
fn initial_param(policy: &PolicySpec, param: ControlParam) -> Option<f64> {
    match (param, policy) {
        (ControlParam::MaxUtilization, PolicySpec::AcceptFraction { max_utilization }) => {
            Some(*max_utilization)
        }
        (ControlParam::Allowance, PolicySpec::BouncerAllowance { allowance, .. }) => {
            Some(*allowance)
        }
        (ControlParam::Alpha, PolicySpec::BouncerUnderserved { alpha, .. }) => Some(*alpha),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(extra: &str) -> ScenarioSpec {
        let text = format!(
            "name = tiny\nseed = 7\nmeasured = 4000\nwarmup = 1000\n\
             slo.default = p50=18ms p90=50ms\nworkload = paper_table1\n\
             runtime = sim\nsim.rate_factors = 1.2\npolicy = bouncer\n\
             policy.maxql = maxql limit=400\n{extra}"
        );
        ScenarioSpec::parse(&text).unwrap()
    }

    #[test]
    fn resolves_and_runs_a_scenario() {
        let sim = ScenarioSim::new(tiny_spec("")).unwrap();
        assert!(sim.full_load() > 10_000.0, "full_load={}", sim.full_load());
        let result = sim.run("", 1.2, 7).unwrap();
        assert_eq!(result.policy_name, "bouncer");
        assert_eq!(result.scenario_hash, Some(sim.spec().content_hash()));
        assert!(result.stats.total_received() > 0);
        let result = sim.run("maxql", 1.2, 7).unwrap();
        assert_eq!(result.policy_name, "maxql");
        assert!(sim.run("nope", 1.2, 7).is_err());
    }

    #[test]
    fn spec_runtime_knobs_reach_the_sim_config() {
        let spec = tiny_spec(
            "sim.parallelism = 8\nsim.queue_limit = 50\n\
             sim.discipline = priority:0,0,0,1,2\nsim.rate_steps = 1s:1.5\n",
        );
        let sim = ScenarioSim::new(spec).unwrap();
        let cfg = sim.sim_config(1000.0, 3);
        assert_eq!(cfg.parallelism, 8);
        assert_eq!(cfg.max_queue_len, Some(50));
        assert_eq!(cfg.measured_queries, 4000);
        assert_eq!(cfg.warmup_queries, 1000);
        assert_eq!(cfg.rate_steps, vec![(bouncer_metrics::time::secs(1), 1.5)]);
        assert!(matches!(cfg.discipline, SimDiscipline::PriorityByType(_)));
        assert_eq!(cfg.scenario_hash, Some(sim.spec().content_hash()));
    }

    #[test]
    fn liquid_scenarios_are_rejected() {
        let spec = ScenarioSpec::parse("name = l\nruntime = liquid\npolicy = always\n").unwrap();
        assert!(ScenarioSim::new(spec).is_err());
    }

    fn adaptive_spec() -> ScenarioSpec {
        ScenarioSpec::parse(
            "name = adaptive\nseed = 3\nmeasured = 60000\nwarmup = 5000\n\
             slo.default = p50=18ms p90=50ms\nworkload = custom\n\
             class.FAST = p=0.85 p50=2ms p90=5ms pshift=0.45\n\
             class.SLOW = p=0.15 p50=14ms p90=40ms pshift=0.55\n\
             runtime = sim\nsim.parallelism = 20\nsim.rate_factors = 1.4\n\
             sim.shift_at = 2s\n\
             controller = budget target_attain=0.95 step=0.25\n\
             policy = bouncer+aa A=0.05\n",
        )
        .unwrap()
    }

    #[test]
    fn mix_shift_reaches_the_sim_config() {
        let sim = ScenarioSim::new(adaptive_spec()).unwrap();
        let cfg = sim.sim_config(1000.0, 3);
        let (at, shifted) = cfg.mix_shift.as_ref().expect("shift configured");
        assert_eq!(*at, bouncer_metrics::time::secs(2));
        let slow = shifted
            .classes()
            .iter()
            .find(|c| c.name == "SLOW")
            .expect("SLOW survives the shift");
        assert!((slow.proportion - 0.55).abs() < 1e-9);
        // Without `sim.shift_at` the pshift columns alone change nothing.
        let mut spec = adaptive_spec();
        if let bouncer_core::spec::RuntimeSpec::Sim(s) = &mut spec.runtime {
            s.shift_at = None;
        }
        let cfg = ScenarioSim::new(spec).unwrap().sim_config(1000.0, 3);
        assert!(cfg.mix_shift.is_none());
    }

    #[test]
    fn adaptive_scenarios_run_closed_loop() {
        let sim = ScenarioSim::new(adaptive_spec()).unwrap();
        let policy = sim.build_policy("", 3).unwrap();
        let mut cfg = sim.sim_config_at_factor(1.4, 3);
        let controller = sim
            .attach_controller("", &policy, &mut cfg)
            .unwrap()
            .expect("spec has a controller");
        // Seeded from the policy's own A, not the band midpoint.
        assert_eq!(controller.current_value(), 0.05);
        let result = run(policy, sim.mix(), &cfg);
        assert!(result.stats.total_received() > 0);
        assert!(
            !controller.decisions().is_empty(),
            "the loop must have closed at least one interval"
        );
        // Static scenarios wire nothing.
        let sim = ScenarioSim::new(tiny_spec("")).unwrap();
        let policy = sim.build_policy("", 7).unwrap();
        let mut cfg = sim.sim_config(1000.0, 7);
        assert!(sim.attach_controller("", &policy, &mut cfg).unwrap().is_none());
        assert!(cfg.sink.is_none(), "no tap interposed without a controller");
    }
}
