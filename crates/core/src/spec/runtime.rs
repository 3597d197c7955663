//! Declarative runtime specifications: the discrete-event simulator or the
//! mini-LIquid cluster, with the knobs each one exposes.

use crate::slo_spec::SpecError;
use crate::spec::defaults;
use crate::spec::kv::{fmt_f64, parse_duration_ms, render_duration_ms};

/// Queue discipline in spec form (`sim.discipline = fifo | priority:0,0,1 |
/// sjf`), mirroring the simulator's `SimDiscipline`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DisciplineSpec {
    /// First-come, first-served (the paper's deployment).
    Fifo,
    /// Higher-priority types first; `priorities[TypeId::index()]`.
    Priority(Vec<u8>),
    /// Shortest processing time first (oracle SJF).
    ShortestJobFirst,
}

impl DisciplineSpec {
    fn parse(v: &str) -> Result<Self, SpecError> {
        if v == "fifo" {
            Ok(DisciplineSpec::Fifo)
        } else if v == "sjf" {
            Ok(DisciplineSpec::ShortestJobFirst)
        } else if let Some(list) = v.strip_prefix("priority:") {
            let priorities = list
                .split(',')
                .map(|p| {
                    p.parse()
                        .map_err(|_| SpecError(format!("bad priority level `{p}`")))
                })
                .collect::<Result<Vec<u8>, _>>()?;
            Ok(DisciplineSpec::Priority(priorities))
        } else {
            Err(SpecError(format!(
                "discipline must be `fifo`, `sjf`, or `priority:<levels>`, got `{v}`"
            )))
        }
    }

    fn render(&self) -> String {
        match self {
            DisciplineSpec::Fifo => "fifo".into(),
            DisciplineSpec::ShortestJobFirst => "sjf".into(),
            DisciplineSpec::Priority(levels) => {
                let list: Vec<String> = levels.iter().map(|l| l.to_string()).collect();
                format!("priority:{}", list.join(","))
            }
        }
    }
}

/// The simulator runtime (`runtime = sim`) and its `sim.*` keys.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// Engine parallelism `P` (`sim.parallelism`).
    pub parallelism: u32,
    /// Offered-rate sweep as multiples of `QPS_full_load`
    /// (`sim.rate_factors`, space-separated).
    pub rate_factors: Vec<f64>,
    /// Absolute offered rate override, QPS (`sim.rate_qps`). When set, the
    /// sweep factors are ignored by single-point runners (the CLI).
    pub rate_qps: Option<f64>,
    /// Bounded-queue `L_limit` (`sim.queue_limit`); `None` = unbounded.
    pub queue_limit: Option<u64>,
    /// Queue discipline (`sim.discipline`).
    pub discipline: DisciplineSpec,
    /// Piecewise rate schedule as `offset:factor` pairs
    /// (`sim.rate_steps = 10s:1.5 20s:0.8`), offsets in simulated time.
    pub rate_steps: Vec<(f64, f64)>,
    /// Mid-run traffic-mix shift offset, milliseconds of simulated time
    /// (`sim.shift_at = 15s`). From this instant arrivals sample the
    /// classes' `pshift` proportions instead of `p` (see `ClassSpec`);
    /// without `pshift` columns the mix is unchanged.
    pub shift_at: Option<f64>,
}

impl Default for SimSpec {
    fn default() -> Self {
        Self {
            parallelism: defaults::PARALLELISM,
            rate_factors: defaults::SIM_RATE_FACTORS.to_vec(),
            rate_qps: None,
            queue_limit: None,
            discipline: DisciplineSpec::Fifo,
            rate_steps: Vec::new(),
            shift_at: None,
        }
    }
}

/// Broker→shard transport in spec form (`liquid.transport`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportSpec {
    /// In-process shared-queue channels (canonical spelling `channels`;
    /// `inproc` is accepted as a legacy alias).
    Channels,
    /// Thread-per-core SPSC rings, in process.
    Rings,
    /// Loopback TCP.
    Tcp,
}

/// Broker→replica routing strategy in spec form (`liquid.strategy`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StrategySpec {
    /// Every sub-query goes to the shard's primary replica.
    #[default]
    PrimaryOnly,
    /// Route to the replica with the fewest in-flight sub-queries.
    LoadBalanced,
    /// Primary first, then a duplicate to a second replica after a
    /// quantile-based delay; first reply wins, the loser is cancelled.
    Hedged,
}

impl StrategySpec {
    /// The canonical spec spelling.
    pub fn render(self) -> &'static str {
        match self {
            StrategySpec::PrimaryOnly => "primary-only",
            StrategySpec::LoadBalanced => "load-balanced",
            StrategySpec::Hedged => "hedged",
        }
    }

    fn parse(value: &str) -> Result<Self, SpecError> {
        match value {
            "primary-only" => Ok(StrategySpec::PrimaryOnly),
            "load-balanced" => Ok(StrategySpec::LoadBalanced),
            "hedged" => Ok(StrategySpec::Hedged),
            other => Err(SpecError(format!(
                "liquid.strategy must be `primary-only`, `load-balanced`, or \
                 `hedged`, got `{other}`"
            ))),
        }
    }
}

/// The mini-LIquid cluster runtime (`runtime = liquid`) and its
/// `liquid.*` keys.
#[derive(Debug, Clone, PartialEq)]
pub struct LiquidSpec {
    /// Number of shard hosts (`liquid.shards`).
    pub shards: u32,
    /// Replicas per shard group (`liquid.replicas`); 1 = unreplicated.
    pub replicas: u32,
    /// Broker→replica routing strategy (`liquid.strategy`).
    pub strategy: StrategySpec,
    /// Number of broker hosts (`liquid.brokers`).
    pub brokers: u32,
    /// Broker→shard transport (`liquid.transport = channels | rings | tcp`).
    pub transport: TransportSpec,
    /// Shard-tier AcceptFraction threshold (`liquid.shard_max_utilization`).
    pub shard_max_utilization: f64,
    /// Traffic points as `label:factor` pairs, factors relative to measured
    /// saturation capacity (`liquid.rate_factors = 36K-analog:0.42 …`).
    pub rate_points: Vec<(String, f64)>,
    /// Synthetic graph vertex count (`liquid.graph_vertices`).
    pub graph_vertices: u32,
    /// Preferential-attachment edges added per vertex
    /// (`liquid.graph_edges_per_vertex`).
    pub graph_edges_per_vertex: u32,
}

impl Default for LiquidSpec {
    fn default() -> Self {
        Self {
            shards: 2,
            replicas: 1,
            strategy: StrategySpec::PrimaryOnly,
            brokers: 1,
            transport: TransportSpec::Channels,
            shard_max_utilization: defaults::LIQUID_SHARD_MAX_UTILIZATION,
            rate_points: defaults::LIQUID_RATE_LABELS
                .iter()
                .zip(defaults::LIQUID_RATE_FACTORS)
                .map(|(&label, factor)| (label.to_string(), factor))
                .collect(),
            graph_vertices: 200_000,
            graph_edges_per_vertex: 10,
        }
    }
}

/// A serializable runtime choice: where the scenario runs.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeSpec {
    /// The discrete-event simulator (§5.3 studies).
    Sim(SimSpec),
    /// The mini-LIquid cluster (§5.4 studies).
    Liquid(LiquidSpec),
}

impl RuntimeSpec {
    /// The `runtime =` value naming this choice.
    pub fn kind_name(&self) -> &'static str {
        match self {
            RuntimeSpec::Sim(_) => "sim",
            RuntimeSpec::Liquid(_) => "liquid",
        }
    }

    /// The sim runtime, if that is the selected kind.
    pub fn as_sim(&self) -> Option<&SimSpec> {
        match self {
            RuntimeSpec::Sim(s) => Some(s),
            RuntimeSpec::Liquid(_) => None,
        }
    }

    /// The liquid runtime, if that is the selected kind.
    pub fn as_liquid(&self) -> Option<&LiquidSpec> {
        match self {
            RuntimeSpec::Liquid(l) => Some(l),
            RuntimeSpec::Sim(_) => None,
        }
    }

    /// Applies one `sim.<key> = value` or `liquid.<key> = value` line.
    pub fn apply_key(&mut self, key: &str, value: &str) -> Result<(), SpecError> {
        match (self, key.split_once('.')) {
            (RuntimeSpec::Sim(sim), Some(("sim", sub))) => sim.apply_key(sub, value),
            (RuntimeSpec::Liquid(liquid), Some(("liquid", sub))) => {
                liquid.apply_key(sub, value)
            }
            (rt, _) => Err(SpecError(format!(
                "key `{key}` does not apply to runtime `{}`",
                rt.kind_name()
            ))),
        }
    }

    /// Renders the `runtime =` line plus all non-default sub-keys, one
    /// rendered line per vector entry.
    pub fn render_lines(&self, out: &mut Vec<String>) {
        out.push(format!("runtime = {}", self.kind_name()));
        match self {
            RuntimeSpec::Sim(sim) => sim.render_lines(out),
            RuntimeSpec::Liquid(liquid) => liquid.render_lines(out),
        }
    }
}

impl SimSpec {
    fn apply_key(&mut self, key: &str, value: &str) -> Result<(), SpecError> {
        match key {
            "parallelism" => {
                self.parallelism = value.parse().map_err(|_| {
                    SpecError(format!("sim.parallelism must be a positive integer, got `{value}`"))
                })?;
                if self.parallelism == 0 {
                    return Err(SpecError("sim.parallelism must be >= 1".into()));
                }
            }
            "rate_factors" => {
                self.rate_factors = parse_f64_list("sim.rate_factors", value)?;
                if self.rate_factors.is_empty() {
                    return Err(SpecError("sim.rate_factors must not be empty".into()));
                }
            }
            "rate_qps" => {
                self.rate_qps = Some(parse_pos_f64("sim.rate_qps", value)?);
            }
            "queue_limit" => {
                self.queue_limit = Some(value.parse().map_err(|_| {
                    SpecError(format!("sim.queue_limit must be an integer, got `{value}`"))
                })?);
            }
            "discipline" => self.discipline = DisciplineSpec::parse(value)?,
            "rate_steps" => {
                self.rate_steps = value
                    .split_whitespace()
                    .map(|tok| {
                        let (at, factor) = tok.split_once(':').ok_or_else(|| {
                            SpecError(format!(
                                "sim.rate_steps entries are `offset:factor`, got `{tok}`"
                            ))
                        })?;
                        Ok((parse_duration_ms(at)?, parse_pos_f64("rate step factor", factor)?))
                    })
                    .collect::<Result<Vec<_>, SpecError>>()?;
            }
            "shift_at" => {
                self.shift_at = Some(parse_duration_ms(value)?);
            }
            other => {
                return Err(SpecError(format!(
                    "unknown key `sim.{other}` (parallelism, rate_factors, rate_qps, \
                     queue_limit, discipline, rate_steps, shift_at)"
                )))
            }
        }
        Ok(())
    }

    fn render_lines(&self, out: &mut Vec<String>) {
        let d = SimSpec::default();
        if self.parallelism != d.parallelism {
            out.push(format!("sim.parallelism = {}", self.parallelism));
        }
        if self.rate_factors != d.rate_factors {
            out.push(format!(
                "sim.rate_factors = {}",
                render_f64_list(&self.rate_factors)
            ));
        }
        if let Some(qps) = self.rate_qps {
            out.push(format!("sim.rate_qps = {}", fmt_f64(qps)));
        }
        if let Some(limit) = self.queue_limit {
            out.push(format!("sim.queue_limit = {limit}"));
        }
        if self.discipline != d.discipline {
            out.push(format!("sim.discipline = {}", self.discipline.render()));
        }
        if !self.rate_steps.is_empty() {
            let steps: Vec<String> = self
                .rate_steps
                .iter()
                .map(|&(at_ms, factor)| {
                    format!("{}:{}", render_duration_ms(at_ms), fmt_f64(factor))
                })
                .collect();
            out.push(format!("sim.rate_steps = {}", steps.join(" ")));
        }
        if let Some(at_ms) = self.shift_at {
            out.push(format!("sim.shift_at = {}", render_duration_ms(at_ms)));
        }
    }
}

impl LiquidSpec {
    fn apply_key(&mut self, key: &str, value: &str) -> Result<(), SpecError> {
        match key {
            "shards" => self.shards = parse_pos_u32("liquid.shards", value)?,
            "replicas" => self.replicas = parse_pos_u32("liquid.replicas", value)?,
            "strategy" => self.strategy = StrategySpec::parse(value)?,
            "brokers" => self.brokers = parse_pos_u32("liquid.brokers", value)?,
            "transport" => {
                self.transport = match value {
                    "channels" | "inproc" => TransportSpec::Channels,
                    "rings" => TransportSpec::Rings,
                    "tcp" => TransportSpec::Tcp,
                    other => {
                        return Err(SpecError(format!(
                            "liquid.transport must be `channels`, `rings`, or `tcp` \
                             (`inproc` is a legacy alias for `channels`), got `{other}`"
                        )))
                    }
                }
            }
            "shard_max_utilization" => {
                self.shard_max_utilization =
                    parse_pos_f64("liquid.shard_max_utilization", value)?;
            }
            "rate_factors" => {
                self.rate_points = value
                    .split_whitespace()
                    .map(|tok| {
                        let (label, factor) = tok.split_once(':').ok_or_else(|| {
                            SpecError(format!(
                                "liquid.rate_factors entries are `label:factor`, got `{tok}`"
                            ))
                        })?;
                        Ok((
                            label.to_string(),
                            parse_pos_f64("liquid rate factor", factor)?,
                        ))
                    })
                    .collect::<Result<Vec<_>, SpecError>>()?;
                if self.rate_points.is_empty() {
                    return Err(SpecError("liquid.rate_factors must not be empty".into()));
                }
            }
            "graph_vertices" => {
                self.graph_vertices = parse_pos_u32("liquid.graph_vertices", value)?;
            }
            "graph_edges_per_vertex" => {
                self.graph_edges_per_vertex =
                    parse_pos_u32("liquid.graph_edges_per_vertex", value)?;
            }
            other => {
                return Err(SpecError(format!(
                    "unknown key `liquid.{other}` (shards, replicas, strategy, \
                     brokers, transport, shard_max_utilization, \
                     rate_factors, graph_vertices, graph_edges_per_vertex)"
                )))
            }
        }
        Ok(())
    }

    fn render_lines(&self, out: &mut Vec<String>) {
        let d = LiquidSpec::default();
        if self.shards != d.shards {
            out.push(format!("liquid.shards = {}", self.shards));
        }
        if self.replicas != d.replicas {
            out.push(format!("liquid.replicas = {}", self.replicas));
        }
        if self.strategy != d.strategy {
            out.push(format!("liquid.strategy = {}", self.strategy.render()));
        }
        if self.brokers != d.brokers {
            out.push(format!("liquid.brokers = {}", self.brokers));
        }
        if self.transport != d.transport {
            out.push(
                match self.transport {
                    TransportSpec::Channels => "liquid.transport = channels",
                    TransportSpec::Rings => "liquid.transport = rings",
                    TransportSpec::Tcp => "liquid.transport = tcp",
                }
                .to_string(),
            );
        }
        if self.shard_max_utilization != d.shard_max_utilization {
            out.push(format!(
                "liquid.shard_max_utilization = {}",
                fmt_f64(self.shard_max_utilization)
            ));
        }
        if self.rate_points != d.rate_points {
            let points: Vec<String> = self
                .rate_points
                .iter()
                .map(|(label, factor)| format!("{label}:{}", fmt_f64(*factor)))
                .collect();
            out.push(format!("liquid.rate_factors = {}", points.join(" ")));
        }
        if self.graph_vertices != d.graph_vertices {
            out.push(format!("liquid.graph_vertices = {}", self.graph_vertices));
        }
        if self.graph_edges_per_vertex != d.graph_edges_per_vertex {
            out.push(format!(
                "liquid.graph_edges_per_vertex = {}",
                self.graph_edges_per_vertex
            ));
        }
    }
}

pub(crate) fn parse_f64_list(key: &str, value: &str) -> Result<Vec<f64>, SpecError> {
    value
        .split_whitespace()
        .map(|tok| {
            let v: f64 = tok
                .parse()
                .map_err(|_| SpecError(format!("`{key}`: bad number `{tok}`")))?;
            if !v.is_finite() {
                return Err(SpecError(format!("`{key}`: number must be finite")));
            }
            Ok(v)
        })
        .collect()
}

pub(crate) fn render_f64_list(values: &[f64]) -> String {
    let rendered: Vec<String> = values.iter().map(|&v| fmt_f64(v)).collect();
    rendered.join(" ")
}

fn parse_pos_f64(key: &str, value: &str) -> Result<f64, SpecError> {
    let v: f64 = value
        .parse()
        .map_err(|_| SpecError(format!("`{key}` must be a number, got `{value}`")))?;
    if !v.is_finite() || v <= 0.0 {
        return Err(SpecError(format!("`{key}` must be > 0, got `{value}`")));
    }
    Ok(v)
}

fn parse_pos_u32(key: &str, value: &str) -> Result<u32, SpecError> {
    let v: u32 = value
        .parse()
        .map_err(|_| SpecError(format!("`{key}` must be a positive integer, got `{value}`")))?;
    if v == 0 {
        return Err(SpecError(format!("`{key}` must be >= 1")));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_keys_round_trip() {
        let mut rt = RuntimeSpec::Sim(SimSpec::default());
        for (k, v) in [
            ("sim.parallelism", "8"),
            ("sim.rate_factors", "1.2 1.4"),
            ("sim.queue_limit", "400"),
            ("sim.discipline", "priority:0,0,0,1,2"),
            ("sim.rate_steps", "10s:1.5 20s:0.8"),
            ("sim.shift_at", "15s"),
        ] {
            rt.apply_key(k, v).unwrap_or_else(|e| panic!("{k}: {e}"));
        }
        let mut lines = Vec::new();
        rt.render_lines(&mut lines);
        assert_eq!(
            lines,
            vec![
                "runtime = sim",
                "sim.parallelism = 8",
                "sim.rate_factors = 1.2 1.4",
                "sim.queue_limit = 400",
                "sim.discipline = priority:0,0,0,1,2",
                "sim.rate_steps = 10s:1.5 20s:0.8",
                "sim.shift_at = 15s",
            ]
        );
        // Re-applying the rendered keys reproduces the same spec.
        let mut rt2 = RuntimeSpec::Sim(SimSpec::default());
        for line in &lines[1..] {
            let (k, v) = line.split_once(" = ").unwrap();
            rt2.apply_key(k, v).unwrap();
        }
        assert_eq!(rt, rt2);
    }

    #[test]
    fn liquid_keys_round_trip() {
        let mut rt = RuntimeSpec::Liquid(LiquidSpec::default());
        for (k, v) in [
            ("liquid.shards", "4"),
            ("liquid.replicas", "2"),
            ("liquid.strategy", "hedged"),
            ("liquid.transport", "tcp"),
            ("liquid.rate_factors", "low:0.5 high:1.5"),
            ("liquid.graph_vertices", "1000000"),
            ("liquid.graph_edges_per_vertex", "4"),
        ] {
            rt.apply_key(k, v).unwrap_or_else(|e| panic!("{k}: {e}"));
        }
        let liquid = rt.as_liquid().unwrap();
        assert_eq!(liquid.shards, 4);
        assert_eq!(liquid.replicas, 2);
        assert_eq!(liquid.strategy, StrategySpec::Hedged);
        assert_eq!(liquid.transport, TransportSpec::Tcp);
        assert_eq!(
            liquid.rate_points,
            vec![("low".to_string(), 0.5), ("high".to_string(), 1.5)]
        );
        assert_eq!(liquid.graph_vertices, 1_000_000);
        assert_eq!(liquid.graph_edges_per_vertex, 4);
        // Non-default graph keys render, and the rendered keys re-apply to
        // reproduce the same spec.
        let mut lines = Vec::new();
        rt.render_lines(&mut lines);
        assert!(lines.contains(&"liquid.graph_vertices = 1000000".to_string()));
        assert!(lines.contains(&"liquid.graph_edges_per_vertex = 4".to_string()));
        let mut rt2 = RuntimeSpec::Liquid(LiquidSpec::default());
        for line in &lines[1..] {
            let (k, v) = line.split_once(" = ").unwrap();
            rt2.apply_key(k, v).unwrap();
        }
        assert_eq!(rt, rt2);
    }

    #[test]
    fn liquid_transport_spellings_and_render() {
        let mut rt = RuntimeSpec::Liquid(LiquidSpec::default());
        // Canonical spellings, plus the legacy `inproc` alias.
        for (spelling, want) in [
            ("channels", TransportSpec::Channels),
            ("inproc", TransportSpec::Channels),
            ("rings", TransportSpec::Rings),
            ("tcp", TransportSpec::Tcp),
        ] {
            rt.apply_key("liquid.transport", spelling).unwrap();
            assert_eq!(rt.as_liquid().unwrap().transport, want, "{spelling}");
        }
        // Channels is the default, so it renders no transport line; the
        // others render their canonical spelling (never `inproc`).
        let lines_of = |spec: TransportSpec| {
            let rt = RuntimeSpec::Liquid(LiquidSpec {
                transport: spec,
                ..LiquidSpec::default()
            });
            let mut lines = Vec::new();
            rt.render_lines(&mut lines);
            lines
        };
        assert!(lines_of(TransportSpec::Channels)
            .iter()
            .all(|l| !l.contains("transport")));
        assert!(lines_of(TransportSpec::Rings).contains(&"liquid.transport = rings".to_string()));
        assert!(lines_of(TransportSpec::Tcp).contains(&"liquid.transport = tcp".to_string()));
    }

    #[test]
    fn rejects_mismatched_and_unknown_keys() {
        let mut sim = RuntimeSpec::Sim(SimSpec::default());
        assert!(sim.apply_key("liquid.shards", "4").is_err());
        assert!(sim.apply_key("sim.bogus", "1").is_err());
        assert!(sim.apply_key("sim.parallelism", "0").is_err());
        assert!(sim.apply_key("sim.discipline", "lifo").is_err());
        let mut liquid = RuntimeSpec::Liquid(LiquidSpec::default());
        assert!(liquid.apply_key("sim.parallelism", "8").is_err());
        assert!(liquid.apply_key("liquid.transport", "carrier-pigeon").is_err());
        assert!(liquid.apply_key("liquid.replicas", "0").is_err());
        assert!(liquid.apply_key("liquid.strategy", "round-robin").is_err());
        // The unknown-key message advertises the replica keys.
        let err = liquid.apply_key("liquid.bogus", "1").unwrap_err();
        assert!(err.to_string().contains("replicas"), "{err}");
        assert!(err.to_string().contains("strategy"), "{err}");
    }

    #[test]
    fn liquid_strategy_spellings_and_render() {
        let mut rt = RuntimeSpec::Liquid(LiquidSpec::default());
        for (spelling, want) in [
            ("primary-only", StrategySpec::PrimaryOnly),
            ("load-balanced", StrategySpec::LoadBalanced),
            ("hedged", StrategySpec::Hedged),
        ] {
            rt.apply_key("liquid.strategy", spelling).unwrap();
            assert_eq!(rt.as_liquid().unwrap().strategy, want, "{spelling}");
            assert_eq!(want.render(), spelling);
        }
        // Defaults (replicas = 1, primary-only) render no lines; non-default
        // values render canonically.
        let mut lines = Vec::new();
        RuntimeSpec::Liquid(LiquidSpec::default()).render_lines(&mut lines);
        assert!(lines
            .iter()
            .all(|l| !l.contains("replicas") && !l.contains("strategy")));
        let mut lines = Vec::new();
        RuntimeSpec::Liquid(LiquidSpec {
            replicas: 3,
            strategy: StrategySpec::LoadBalanced,
            ..LiquidSpec::default()
        })
        .render_lines(&mut lines);
        assert!(lines.contains(&"liquid.replicas = 3".to_string()));
        assert!(lines.contains(&"liquid.strategy = load-balanced".to_string()));
    }
}
