//! Resolves the effective scenario (file + flag overrides), runs the
//! simulation through the spec registry, renders results.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bouncer_core::obs::HealthConfig;
use bouncer_core::prelude::*;
use bouncer_core::slo_spec::parse_slo_entries;
use bouncer_core::spec::SloEntrySpec;
use bouncer_metrics::time::{as_millis_f64, millis_f64};
use bouncer_sim::{run, ScenarioSim};

use crate::args::{Args, ParseError};

const ALLOWED: &[&str] = &[
    "scenario",
    "policy",
    "rate-factor",
    "rate-qps",
    "queries",
    "warmup",
    "seed",
    "parallelism",
    "slo-p50-ms",
    "slo-p90-ms",
    "slo-spec",
    "allowance",
    "alpha",
    "queue-limit",
    "wait-limit-ms",
    "max-utilization",
    "controller",
    "no-controller",
    "events-out",
    "metrics-out",
    "traces-out",
    "trace-sample",
    "trace-slo-ms",
    "health-interval-ms",
    "incident-dir",
    "trigger-rejection",
    "trigger-attainment",
    "trigger-force-ms",
    "help",
];

/// Policy parameter flags and the one policy each applies to. A supplied
/// flag whose policy is not selected is an error (exit 2), not a silent
/// no-op.
const PARAM_FLAGS: &[(&str, &str)] = &[
    ("allowance", "bouncer+aa"),
    ("alpha", "bouncer+htu"),
    ("queue-limit", "maxql"),
    ("wait-limit-ms", "maxqwt"),
    ("max-utilization", "acceptfraction"),
];

const TRACE_REPORT_ALLOWED: &[&str] = &["traces-in", "strict", "help"];

const TRACE_REPORT_HELP: &str = "\
bouncer-sim-cli trace-report — reconstruct span trees from a trace JSONL
file and break each query's latency down along its critical path

USAGE:
    bouncer-sim-cli trace-report --traces-in <path> [--strict]

FLAGS:
    --traces-in <path>  span JSONL, as written by --traces-out or any
                        JsonlSink attached to a Tracer
    --strict            exit non-zero when any span tree is incomplete
                        (orphaned spans or traces without a root)

The report aggregates per-component latency (admission, broker queue,
shard queue, shard service, transport, aggregation) at p50/p95/p99 and
names the straggler shard per fan-out round — the Fig. 13 diagnosis of
where milliseconds go as load rises. With the cluster's batched fan-out
(the default), one subquery span covers a round's whole batch to a
shard; the straggler is still the round's latest reply, so the
breakdown needs no special handling. See OBSERVABILITY.md.
";

const POSTMORTEM_ALLOWED: &[&str] = &["dump-in", "help"];

const POSTMORTEM_HELP: &str = "\
bouncer-sim-cli postmortem — reconstruct an incident episode from a
flight-recorder dump

USAGE:
    bouncer-sim-cli postmortem --dump-in <path>

FLAGS:
    --dump-in <path>   an incident dump (incident-*.jsonl), as written by
                       the health sampler's trigger engine under
                       --incident-dir (or a cluster's dump directory)

The report lays the episode out on one timeline: the queue-depth curve,
admissions/rejections/completions per bucket, the attainment dip and
rejection spike from the trailing health samples, per-type ledgers with
processing-time estimate drift, and every controller decision the flight
recorder caught — the Fig. 13 diagnosis of what the system did while the
incident unfolded. See OBSERVABILITY.md for the dump format and a worked
walkthrough.
";

const SCENARIO_HASH_HELP: &str = "\
bouncer-sim-cli scenario-hash — print the canonical content hash of
scenario files

USAGE:
    bouncer-sim-cli scenario-hash <path.scn> [more paths...]

Prints `<hash>  <file>` per scenario, where <hash> is the FNV-1a 64 hash
of the canonical serialization (comments and key order do not affect it).
scripts/check.sh diffs this output against scenarios/MANIFEST.
";

const GRAPH_STATS_HELP: &str = "\
bouncer-sim-cli graph-stats — build a liquid scenario's graph and report
its in-memory footprint

USAGE:
    bouncer-sim-cli graph-stats <path.scn> [more paths...]

Loads each scenario (runtime = liquid), generates its preferential-
attachment graph, and prints the `graph_stats` line: vertex count,
undirected edge count, resident heap bytes of the CSR representation,
and amortized bytes per stored adjacency entry. The same line is emitted
as a `graph_stats` observability event when a cluster spawns with an
event sink attached.
";

const HELP: &str = "\
bouncer-sim-cli — drive the paper's simulation study from the command line

USAGE:
    bouncer-sim-cli [--scenario <path>] [--policy <name>] [flags...]

SCENARIOS:
    --scenario <path>   load a declarative scenario (.scn, flat key=value;
                        see DESIGN.md). The run is constructed through the
                        spec registry, and the scenario's content hash is
                        printed in the report and stamped into the event
                        stream. All flags below OVERRIDE the loaded spec;
                        without --scenario they override the built-in
                        default scenario (paper workload, Bouncer, 1.2x).
                        The run uses the scenario's first policy and first
                        rate factor.

POLICIES (--policy):
    bouncer (default)   SLO-aware admission control (the paper's policy)
    bouncer+aa          Bouncer + acceptance-allowance (--allowance, default 0.05)
    bouncer+htu         Bouncer + helping-the-underserved (--alpha, default 1.0)
    maxql               max queue length (--queue-limit, default 400)
    maxqwt              max queue wait time (--wait-limit-ms, default 15)
    acceptfraction      utilization threshold (--max-utilization, default 0.95)
    gatekeeper          literature capacity baseline
    always              no admission control

    A parameter flag supplied alongside a policy it does not apply to
    (e.g. --allowance with --policy maxql) is an error.

WORKLOAD:
    the paper's Table 1 mix (fast/medium fast/medium slow/slow), P engine
    processes (--parallelism, default 100), Poisson arrivals.

RATES:
    --rate-factor <f>   multiple of QPS_full_load (default 1.2)
    --rate-qps <qps>    absolute rate (overrides --rate-factor)

RUN SHAPE:
    --queries <n>       measured queries (default 300000)
    --warmup <n>        warm-up queries (default 50000)
    --seed <n>          RNG seed (default 42)

SLOs (uniform across types, like the paper's study):
    --slo-p50-ms <ms>   default 18
    --slo-p90-ms <ms>   default 50
    --slo-spec <spec>   per-type SLOs in the paper's notation, overriding
                        the uniform flags, e.g.
                        'slow:{p50=25ms,p90=80ms},default:{p50=18ms,p90=50ms}'
                        (types: fast, medium fast, medium slow, slow)

ADAPTIVE CONTROL (see ADAPTIVE.md):
    --controller <line>   run closed-loop: a control law retunes the
                          policy's parameter from live telemetry at
                          interval boundaries. The line is the scenario
                          `controller =` grammar, e.g.
                          'budget target_attain=0.95 step=0.25' (laws:
                          aimd -> max_utilization, budget -> allowance,
                          gradient -> alpha). Overrides the scenario's
                          controller line.
    --no-controller       strip the scenario's controller (run the same
                          scenario statically, e.g. for comparisons)

OBSERVABILITY (see OBSERVABILITY.md for formats):
    --events-out <path>   write every query-lifecycle and policy event as
                          JSONL (one JSON object per line, virtual-time
                          timestamps; starts with a `scenario` event naming
                          the run's content hash)
    --metrics-out <path>  write the run's final statistics in the
                          Prometheus text exposition format
    --traces-out <path>   write distributed-tracing spans as JSONL
                          (virtual-time span trees; feed to trace-report)
    --trace-sample <n>    head-sample 1 in n queries (default 1 = all;
                          0 = never; rejected queries are always kept)
    --trace-slo-ms <ms>   also keep every trace whose response time
                          exceeds this bound, regardless of sampling

HEALTH & INCIDENTS (always-on; see OBSERVABILITY.md):
    every run carries the flight recorder (per-thread rings of compact
    event records) and the health sampler (periodic health_sample rows:
    queue depth, in-flight, attainment, rejection rate per window).
    --health-interval-ms <ms>  sample window length (default 250,
                          virtual-time)
    --incident-dir <dir>  arm the incident trigger engine: SLO bursts,
                          rejection spikes, and controller backoffs drain
                          the recorder plus trailing health samples into
                          incident-*.jsonl dumps here (feed to postmortem)
    --trigger-rejection <r>    rejection-rate threshold (default 0.5)
    --trigger-attainment <a>   SLO-attainment floor (off by default)
    --trigger-force-ms <ms>    force one dump once virtual time crosses
                          this — a deterministic CI hook

SUBCOMMANDS:
    trace-report          analyze a span JSONL file; see
                          `bouncer-sim-cli trace-report --help`
    postmortem            reconstruct an incident episode from a dump;
                          see `bouncer-sim-cli postmortem --help`
    scenario-hash         print canonical content hashes of .scn files;
                          see `bouncer-sim-cli scenario-hash --help`
    graph-stats           build a liquid scenario's graph and report its
                          footprint; see `bouncer-sim-cli graph-stats --help`
";

/// Which policy the user picked, with its parameters resolved — since the
/// scenario-spec refactor, simply the spec layer's [`PolicySpec`].
pub type PolicyChoice = PolicySpec;

/// Resolves `--policy` plus its parameter flags against a base policy (the
/// scenario's, when one is loaded). Flags override the base; a parameter
/// flag that does not apply to the selected policy is an error rather than
/// a silent no-op.
pub fn policy_spec_from_args(args: &Args, base: &PolicySpec) -> Result<PolicySpec, ParseError> {
    let kind = args.str_or("policy", base.kind_name());
    for &(flag, applies_to) in PARAM_FLAGS {
        if args.get(flag).is_some() && kind != applies_to {
            return Err(ParseError(format!(
                "--{flag} applies only to --policy {applies_to}, \
                 but the selected policy is `{kind}`"
            )));
        }
    }
    let mut spec = if kind == base.kind_name() {
        base.clone()
    } else {
        // The bare policy name parses to that policy with its defaults.
        PolicySpec::parse(kind).map_err(|e| ParseError(e.to_string()))?
    };
    match &mut spec {
        PolicySpec::BouncerAllowance { allowance, .. } => {
            *allowance = args.f64_or("allowance", *allowance)?;
        }
        PolicySpec::BouncerUnderserved { alpha, .. } => {
            *alpha = args.f64_or("alpha", *alpha)?;
        }
        PolicySpec::MaxQl { limit } => {
            *limit = args.u64_or("queue-limit", *limit)?;
        }
        PolicySpec::MaxQwt { wait_ms } => {
            *wait_ms = args.f64_or("wait-limit-ms", *wait_ms)?;
        }
        PolicySpec::MaxQwtPerType { .. } => {
            // Per-type limits come only from scenario files; a single
            // --wait-limit-ms flag collapses them to one uniform limit.
            if args.get("wait-limit-ms").is_some() {
                spec = PolicySpec::MaxQwt {
                    wait_ms: args.f64_or("wait-limit-ms", 0.0)?,
                };
            }
        }
        PolicySpec::AcceptFraction { max_utilization } => {
            *max_utilization = args.f64_or("max-utilization", *max_utilization)?;
        }
        PolicySpec::Bouncer(_) | PolicySpec::Gatekeeper { .. } | PolicySpec::Always => {}
    }
    Ok(spec)
}

/// Runs the CLI against raw arguments; returns the text to print and a
/// process exit code.
pub fn run_cli<I, S>(raw: I) -> (String, i32)
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    // Subcommands dispatch on the first raw argument, before flag parsing
    // (the flag parser rejects positionals).
    let raw: Vec<String> = raw.into_iter().map(Into::into).collect();
    if raw.first().map(String::as_str) == Some("trace-report") {
        return match run_trace_report(&raw[1..]) {
            Ok(out) => out,
            Err(e) => (format!("error: {e}\n\n{TRACE_REPORT_HELP}"), 2),
        };
    }
    if raw.first().map(String::as_str) == Some("postmortem") {
        return match run_postmortem(&raw[1..]) {
            Ok(out) => out,
            Err(e) => (format!("error: {e}\n\n{POSTMORTEM_HELP}"), 2),
        };
    }
    if raw.first().map(String::as_str) == Some("scenario-hash") {
        return match run_scenario_hash(&raw[1..]) {
            Ok(out) => (out, 0),
            Err(e) => (format!("error: {e}\n\n{SCENARIO_HASH_HELP}"), 2),
        };
    }
    if raw.first().map(String::as_str) == Some("graph-stats") {
        return match run_graph_stats(&raw[1..]) {
            Ok(out) => (out, 0),
            Err(e) => (format!("error: {e}\n\n{GRAPH_STATS_HELP}"), 2),
        };
    }
    match run_inner(raw) {
        Ok(report) => (report, 0),
        Err(e) => (format!("error: {e}\n\n{HELP}"), 2),
    }
}

/// The `scenario-hash` subcommand: `<hash>  <file>` per scenario, in the
/// order given — the golden output scripts/check.sh diffs against
/// scenarios/MANIFEST.
fn run_scenario_hash(paths: &[String]) -> Result<String, ParseError> {
    if paths.iter().any(|p| p == "--help") {
        return Ok(SCENARIO_HASH_HELP.to_owned());
    }
    if paths.is_empty() {
        return Err(ParseError(
            "scenario-hash requires at least one <path.scn>".into(),
        ));
    }
    let mut out = String::new();
    for path in paths {
        let spec = ScenarioSpec::load(Path::new(path)).map_err(|e| ParseError(e.to_string()))?;
        out.push_str(&format!("{}  {path}\n", spec.hash_hex()));
    }
    Ok(out)
}

/// The `graph-stats` subcommand: build each liquid scenario's graph and
/// print its `graph_stats` line (vertices, edges, heap bytes, bytes per
/// stored adjacency entry).
fn run_graph_stats(paths: &[String]) -> Result<String, ParseError> {
    use liquid::graph::{Graph, GraphConfig};

    if paths.iter().any(|p| p == "--help") {
        return Ok(GRAPH_STATS_HELP.to_owned());
    }
    if paths.is_empty() {
        return Err(ParseError(
            "graph-stats requires at least one <path.scn>".into(),
        ));
    }
    let mut out = String::new();
    for path in paths {
        let spec = ScenarioSpec::load(Path::new(path)).map_err(|e| ParseError(e.to_string()))?;
        let liquid_spec = spec.liquid().map_err(|e| ParseError(e.to_string()))?;
        let graph = Graph::generate(&GraphConfig {
            vertices: liquid_spec.graph_vertices,
            edges_per_vertex: liquid_spec.graph_edges_per_vertex,
            ..GraphConfig::default()
        });
        out.push_str(&format!("{path}: {}\n", graph.stats().render_line()));
    }
    Ok(out)
}

/// The `trace-report` subcommand: span JSONL in, critical-path latency
/// breakdown out. Returns `(text, exit_code)`; with `--strict`, incomplete
/// span trees exit 1 so scripts can gate on trace integrity.
fn run_trace_report(raw: &[String]) -> Result<(String, i32), ParseError> {
    use bouncer_core::obs::trace_report::{analyze, parse_spans, render_report};

    let args = Args::parse(raw.iter().cloned(), TRACE_REPORT_ALLOWED)?;
    if args.flag("help") {
        return Ok((TRACE_REPORT_HELP.to_owned(), 0));
    }
    let path = args
        .get("traces-in")
        .ok_or_else(|| ParseError("trace-report requires --traces-in <path>".into()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| ParseError(format!("--traces-in `{path}`: {e}")))?;
    let records = parse_spans(&text).map_err(ParseError)?;
    if records.is_empty() {
        return Err(ParseError(format!("`{path}` contains no span records")));
    }
    let report = analyze(records);
    let mut out = render_report(&report);
    let code = if args.flag("strict") && !report.all_complete() {
        out.push_str(&format!(
            "\nstrict: FAILED — {} orphan span(s), {} rootless trace(s), \
             {}/{} trees complete\n",
            report.orphan_spans,
            report.rootless_traces,
            report.complete,
            report.traces,
        ));
        1
    } else {
        0
    };
    Ok((out, code))
}

/// The `postmortem` subcommand: incident dump in, episode timeline out.
/// The analysis itself lives in `bouncer_core::obs::postmortem`; this is
/// the thin file-in/report-out shell around it.
fn run_postmortem(raw: &[String]) -> Result<(String, i32), ParseError> {
    use bouncer_core::obs::postmortem::{parse_dump, render_report};

    let args = Args::parse(raw.iter().cloned(), POSTMORTEM_ALLOWED)?;
    if args.flag("help") {
        return Ok((POSTMORTEM_HELP.to_owned(), 0));
    }
    let path = args
        .get("dump-in")
        .ok_or_else(|| ParseError("postmortem requires --dump-in <path>".into()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| ParseError(format!("--dump-in `{path}`: {e}")))?;
    let dump = parse_dump(&text).map_err(ParseError)?;
    Ok((render_report(&dump), 0))
}

/// Folds the command-line flags into the base scenario (loaded from
/// `--scenario`, or the built-in CLI default). The returned spec *is* the
/// run: its canonical hash names exactly what executes.
fn effective_scenario(args: &Args) -> Result<ScenarioSpec, ParseError> {
    let mut spec = match args.get("scenario") {
        Some(path) => {
            ScenarioSpec::load(Path::new(path)).map_err(|e| ParseError(e.to_string()))?
        }
        None => ScenarioSpec::cli_default(),
    };

    {
        let sim = match &mut spec.runtime {
            RuntimeSpec::Sim(sim) => sim,
            RuntimeSpec::Liquid(_) => {
                return Err(ParseError(format!(
                    "scenario `{}` targets the liquid cluster; the CLI runs \
                     sim scenarios (run liquid scenarios via the benches)",
                    spec.name
                )))
            }
        };
        if args.get("parallelism").is_some() {
            sim.parallelism = args.u64_or("parallelism", 0)? as u32;
        }
        if sim.parallelism == 0 {
            return Err(ParseError("--parallelism must be positive".into()));
        }
        if args.get("rate-qps").is_some() {
            sim.rate_qps = Some(args.f64_or("rate-qps", 0.0)?);
        } else if args.get("rate-factor").is_some() {
            sim.rate_qps = None;
            sim.rate_factors = vec![args.f64_or("rate-factor", 0.0)?];
        }
    }
    if args.get("queries").is_some() {
        spec.measured = Some(args.u64_or("queries", 0)?);
    }
    if args.get("warmup").is_some() {
        spec.warmup = Some(args.u64_or("warmup", 0)?);
    }
    if args.get("seed").is_some() {
        spec.seed = args.u64_or("seed", 0)?;
    }

    if let Some(notation) = args.get("slo-spec") {
        let entries = parse_slo_entries(notation).map_err(|e| ParseError(e.to_string()))?;
        spec.slos = entries
            .into_iter()
            .map(|(name, slo)| SloEntrySpec {
                name,
                targets: slo
                    .targets()
                    .iter()
                    .map(|&(p, target)| {
                        // Snap float noise from quantile→percent so p90
                        // renders as `p90`.
                        let pct = (p.quantile() * 100.0 * 1e9).round() / 1e9;
                        (pct, as_millis_f64(target))
                    })
                    .collect(),
            })
            .collect();
    } else if args.get("slo-p50-ms").is_some() || args.get("slo-p90-ms").is_some() {
        spec.slos = vec![SloEntrySpec {
            name: "default".into(),
            targets: vec![
                (50.0, args.f64_or("slo-p50-ms", 18.0)?),
                (90.0, args.f64_or("slo-p90-ms", 50.0)?),
            ],
        }];
    }

    if args.flag("no-controller") {
        spec.controller = None;
    }
    if let Some(line) = args.get("controller") {
        spec.controller =
            Some(ControllerSpec::parse(line).map_err(|e| ParseError(e.to_string()))?);
    }

    let base = spec
        .first_policy()
        .map_err(|e| ParseError(e.to_string()))?
        .clone();
    let policy_given = args.get("policy").is_some()
        || PARAM_FLAGS.iter().any(|&(flag, _)| args.get(flag).is_some());
    if policy_given {
        let resolved = policy_spec_from_args(args, &base)?;
        spec.policies[0].1 = resolved;
    }
    Ok(spec)
}

fn run_inner<I, S>(raw: I) -> Result<String, ParseError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let args = Args::parse(raw, ALLOWED)?;
    if args.flag("help") {
        return Ok(HELP.to_owned());
    }

    let spec = effective_scenario(&args)?;
    let tag = spec.tag();
    let seed = spec.seed;
    let label = spec.policies[0].0.clone();
    let scenario = ScenarioSim::new(spec).map_err(|e| ParseError(e.to_string()))?;
    let full_load = scenario.full_load();
    let sim_spec = scenario.sim_spec();
    let rate = match sim_spec.rate_qps {
        Some(qps) => qps,
        None => full_load * sim_spec.rate_factors[0],
    };
    if rate <= 0.0 {
        return Err(ParseError("the rate must be positive".into()));
    }

    let policy = scenario
        .build_policy(&label, seed)
        .map_err(|e| ParseError(e.to_string()))?;
    let mut cfg = scenario.sim_config(rate, seed);
    let mut jsonl: Option<Arc<JsonlSink>> = None;
    if let Some(path) = args.get("events-out") {
        let sink = Arc::new(
            JsonlSink::create(path)
                .map_err(|e| ParseError(format!("--events-out `{path}`: {e}")))?,
        );
        jsonl = Some(Arc::clone(&sink));
        cfg.sink = Some(sink);
    }
    let tracer = match args.get("traces-out") {
        Some(path) => {
            let sink = JsonlSink::create(path)
                .map_err(|e| ParseError(format!("--traces-out `{path}`: {e}")))?;
            let tcfg = TracerConfig {
                sample_every: args.u64_or("trace-sample", 1)?,
                slo_violation_ns: match args.get("trace-slo-ms") {
                    Some(_) => Some(millis_f64(args.f64_or("trace-slo-ms", 0.0)?)),
                    None => None,
                },
            };
            let tracer = Arc::new(Tracer::new(Arc::new(sink), tcfg));
            cfg.tracer = Some(tracer.clone());
            Some(tracer)
        }
        None => None,
    };
    // The health chain (recorder + sampler) interposes in front of the
    // user sink; the controller tap then wraps the chain, so decision
    // events flow down through the sampler and the recorder.
    let mut health = HealthConfig::default();
    let interval_ms = args.f64_or("health-interval-ms", 250.0)?;
    if !interval_ms.is_finite() || interval_ms <= 0.0 {
        return Err(ParseError("--health-interval-ms must be positive".into()));
    }
    health.interval = millis_f64(interval_ms);
    if let Some(dir) = args.get("incident-dir") {
        std::fs::create_dir_all(dir)
            .map_err(|e| ParseError(format!("--incident-dir `{dir}`: {e}")))?;
        health.dump_dir = Some(PathBuf::from(dir));
    }
    if args.get("trigger-rejection").is_some() {
        health.trigger.rejection_rate = Some(args.f64_or("trigger-rejection", 0.5)?);
    }
    if args.get("trigger-attainment").is_some() {
        health.trigger.attainment = Some(args.f64_or("trigger-attainment", 0.0)?);
    }
    if args.get("trigger-force-ms").is_some() {
        health.trigger.force_at = Some(millis_f64(args.f64_or("trigger-force-ms", 0.0)?));
    }
    let sampler = scenario.attach_health(health, &mut cfg);
    // After the sinks, so the Observe tap wraps the JSONL event stream.
    let controller = scenario
        .attach_controller(&label, &policy, &mut cfg)
        .map_err(|e| ParseError(e.to_string()))?;
    let result = run(Arc::clone(&policy), scenario.mix(), &cfg);
    let dropped_writes = jsonl.as_ref().map_or(0, |j| j.dropped_writes());

    if let Some(path) = args.get("metrics-out") {
        let names: Vec<&str> = scenario.registry().iter().map(|(_, name)| name).collect();
        let counters = tracer.as_ref().map(|t| TraceCounters {
            sampled: t.sampled_total(),
            dropped: t.dropped_total(),
        });
        let text = render_prometheus_full(
            &result.stats,
            &names,
            counters.as_ref(),
            None,
            Some(&sampler.health_counters(dropped_writes)),
            // The simulator has no replica tier; hedge counters are a
            // cluster-side export.
            None,
        );
        std::fs::write(path, text)
            .map_err(|e| ParseError(format!("--metrics-out `{path}`: {e}")))?;
    }

    let mut out = String::new();
    out.push_str(&format!("scenario: {tag}\n"));
    out.push_str(&format!(
        "policy: {}   rate: {:.0} QPS ({:.2}x of full load {:.0})\n",
        policy.name(),
        rate,
        rate / full_load,
        full_load,
    ));
    out.push_str(&format!(
        "measured {} queries over {:.2}s simulated; utilization {:.1}%\n\n",
        result.stats.total_received(),
        result.duration as f64 / 1e9,
        result.utilization_pct(),
    ));
    out.push_str(&format!(
        "{:<14} {:>9} {:>10} {:>12} {:>12} {:>12}\n",
        "type", "received", "rejected%", "rt_p50(ms)", "rt_p90(ms)", "pt_p50(ms)"
    ));
    for (ty, name) in scenario.registry().iter() {
        let t = &result.stats.per_type[ty.index()];
        if t.received == 0 {
            continue;
        }
        out.push_str(&format!(
            "{:<14} {:>9} {:>10.2} {:>12.1} {:>12.1} {:>12.1}\n",
            name,
            t.received,
            100.0 * t.rejection_ratio(),
            t.response.value_at_quantile(0.5).map(as_millis_f64).unwrap_or(f64::NAN),
            t.response.value_at_quantile(0.9).map(as_millis_f64).unwrap_or(f64::NAN),
            t.processing.value_at_quantile(0.5).map(as_millis_f64).unwrap_or(f64::NAN),
        ));
    }
    out.push_str(&format!(
        "\noverall: {:.2}% rejected\n",
        result.overall_rejection_pct()
    ));
    if let Some(c) = &controller {
        out.push_str(&format!(
            "controller: {} on {} — {} decision(s), final value {}\n",
            c.spec().law.name(),
            c.spec().law.param().label(),
            c.decisions().len(),
            c.current_value(),
        ));
    }
    out.push_str(&format!(
        "health: {} sample(s), peak queue depth {}; flight recorder: {} \
         record(s) across {} ring(s)\n",
        sampler.samples(),
        sampler.peak_queue_depth(),
        sampler.recorder().total_written(),
        sampler.recorder().ring_count(),
    ));
    for path in sampler.incident_paths() {
        out.push_str(&format!(
            "incident dump: {} — analyze with `postmortem --dump-in {}`\n",
            path.display(),
            path.display(),
        ));
    }
    if let Some(path) = args.get("events-out") {
        out.push_str(&format!("events written to {path} (JSONL)\n"));
    }
    if dropped_writes > 0 {
        out.push_str(&format!(
            "WARNING: {dropped_writes} event line(s) dropped writing --events-out \
             (I/O errors; the log is incomplete)\n"
        ));
    }
    if let Some(path) = args.get("metrics-out") {
        out.push_str(&format!("metrics written to {path} (Prometheus text)\n"));
    }
    if let (Some(path), Some(t)) = (args.get("traces-out"), tracer.as_ref()) {
        out.push_str(&format!(
            "traces written to {path} (JSONL; {} sampled, {} dropped) — \
             analyze with `trace-report --traces-in {path}`\n",
            t.sampled_total(),
            t.dropped_total(),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_prints_usage() {
        let (out, code) = run_cli(["--help"]);
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
        assert!(out.contains("bouncer+aa"));
        assert!(out.contains("--scenario"));
    }

    #[test]
    fn unknown_policy_is_an_error() {
        let (out, code) = run_cli(["--policy", "nope"]);
        assert_eq!(code, 2);
        assert!(out.contains("unknown policy"));
    }

    #[test]
    fn policy_choice_resolves_parameters() {
        let base = ScenarioSpec::cli_default().first_policy().unwrap().clone();
        let args = Args::parse(
            ["--policy", "bouncer+aa", "--allowance", "0.1"],
            ALLOWED,
        )
        .unwrap();
        assert_eq!(
            policy_spec_from_args(&args, &base).unwrap(),
            PolicySpec::allowance(0.1)
        );
        let args = Args::parse(["--policy", "maxqwt", "--wait-limit-ms", "12"], ALLOWED).unwrap();
        assert_eq!(
            policy_spec_from_args(&args, &base).unwrap(),
            PolicySpec::MaxQwt { wait_ms: 12.0 }
        );
    }

    #[test]
    fn inapplicable_parameter_flags_are_rejected() {
        // The headline bugfix: --allowance with --policy maxql used to be
        // silently ignored; now it exits 2 with a clear message.
        let (out, code) = run_cli(["--policy", "maxql", "--allowance", "0.1"]);
        assert_eq!(code, 2, "{out}");
        assert!(
            out.contains("--allowance applies only to --policy bouncer+aa"),
            "{out}"
        );
        // Same for the default policy (bouncer) with a maxql knob.
        let (out, code) = run_cli(["--queue-limit", "400"]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("--queue-limit applies only to"), "{out}");
        // The matching policy keeps working.
        let (out, code) = run_cli([
            "--policy", "maxql", "--queue-limit", "5", "--queries", "4000", "--warmup", "500",
        ]);
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn small_run_produces_a_report_with_scenario_hash() {
        let (out, code) = run_cli([
            "--policy",
            "bouncer",
            "--queries",
            "20000",
            "--warmup",
            "5000",
            "--rate-factor",
            "1.2",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("policy: bouncer"));
        assert!(out.contains("slow"));
        assert!(out.contains("overall:"));
        // The report names the effective scenario and its 16-hex hash.
        let first = out.lines().next().unwrap();
        assert!(first.starts_with("scenario: cli "), "{first}");
        let hash = first.rsplit(' ').next().unwrap();
        assert_eq!(hash.len(), 16, "{first}");
        assert!(hash.chars().all(|c| c.is_ascii_hexdigit()), "{first}");
    }

    #[test]
    fn rate_qps_overrides_factor() {
        let (out, code) = run_cli([
            "--rate-qps",
            "5000",
            "--queries",
            "5000",
            "--warmup",
            "1000",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("rate: 5000 QPS"));
    }

    #[test]
    fn slo_spec_flag_is_parsed_and_validated() {
        let (out, code) = run_cli([
            "--slo-spec",
            "slow:{p50=25ms,p90=80ms},default:{p50=18ms,p90=50ms}",
            "--queries",
            "10000",
            "--warmup",
            "2000",
        ]);
        assert_eq!(code, 0, "{out}");
        let (out, code) = run_cli(["--slo-spec", "bogus:{p50=1ms}"]);
        assert_eq!(code, 2);
        assert!(out.contains("unknown query type"), "{out}");
    }

    #[test]
    fn controller_flag_runs_closed_loop_and_reports() {
        let base = [
            "--policy",
            "bouncer+aa",
            "--allowance",
            "0.05",
            "--rate-factor",
            "1.4",
            "--queries",
            "30000",
            "--warmup",
            "5000",
        ];
        let mut adaptive = base.to_vec();
        adaptive.extend([
            "--controller",
            "budget target_attain=0.95 step=0.25 interval=250ms",
        ]);
        let (out, code) = run_cli(adaptive);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("controller: budget on allowance"), "{out}");

        // The same run without the flag stays open-loop.
        let (out, code) = run_cli(base);
        assert_eq!(code, 0, "{out}");
        assert!(!out.contains("controller:"), "{out}");

        // A malformed law is rejected at parse time.
        let (out, code) = run_cli(["--controller", "pid step=1"]);
        assert_eq!(code, 2);
        assert!(out.contains("unknown control law"), "{out}");
    }

    #[test]
    fn scenario_file_run_is_byte_identical_to_equivalent_flags() {
        // Build the spec the flag-driven run resolves to, write it out as
        // a .scn file, and check the two invocations render the very same
        // report (same hash line included).
        let mut spec = ScenarioSpec::cli_default();
        spec.seed = 7;
        spec.measured = Some(20_000);
        spec.warmup = Some(4_000);
        match &mut spec.runtime {
            RuntimeSpec::Sim(sim) => sim.rate_factors = vec![1.3],
            RuntimeSpec::Liquid(_) => unreachable!(),
        }
        spec.policies[0].1 = PolicySpec::MaxQl { limit: 50 };

        let path = std::env::temp_dir().join(format!(
            "bouncer-cli-scenario-{}.scn",
            std::process::id()
        ));
        std::fs::write(&path, spec.render()).unwrap();

        let (from_file, code_file) = run_cli(["--scenario", path.to_str().unwrap()]);
        let (from_flags, code_flags) = run_cli([
            "--policy",
            "maxql",
            "--queue-limit",
            "50",
            "--rate-factor",
            "1.3",
            "--queries",
            "20000",
            "--warmup",
            "4000",
            "--seed",
            "7",
        ]);
        assert_eq!(code_file, 0, "{from_file}");
        assert_eq!(code_flags, 0, "{from_flags}");
        assert_eq!(from_file, from_flags);
        assert!(from_file.contains(&spec.hash_hex()), "{from_file}");

        // Flag overrides on top of the file shift the hash.
        let (overridden, code) =
            run_cli(["--scenario", path.to_str().unwrap(), "--seed", "8"]);
        assert_eq!(code, 0, "{overridden}");
        assert!(!overridden.contains(&spec.hash_hex()), "{overridden}");

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scenario_hash_subcommand_prints_stable_hashes() {
        let spec = ScenarioSpec::cli_default();
        let path = std::env::temp_dir().join(format!(
            "bouncer-cli-hash-{}.scn",
            std::process::id()
        ));
        std::fs::write(&path, spec.render()).unwrap();
        let (out, code) = run_cli(["scenario-hash", path.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        assert_eq!(
            out,
            format!("{}  {}\n", spec.hash_hex(), path.to_str().unwrap())
        );
        let (out, code) = run_cli(["scenario-hash"]);
        assert_eq!(code, 2);
        assert!(out.contains("scenario-hash requires"), "{out}");
        let (_, code) = run_cli(["scenario-hash", "/nonexistent/file.scn"]);
        assert_eq!(code, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn graph_stats_subcommand_reports_footprint() {
        let path = std::env::temp_dir().join(format!(
            "bouncer-cli-graph-stats-{}.scn",
            std::process::id()
        ));
        std::fs::write(
            &path,
            "name = graph_stats_test\n\
             seed = 1\n\
             runtime = liquid\n\
             liquid.graph_vertices = 3000\n\
             liquid.graph_edges_per_vertex = 4\n\
             policy = always\n",
        )
        .unwrap();
        let (out, code) = run_cli(["graph-stats", path.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("graph_stats vertices=3000 edges="), "{out}");
        assert!(out.contains("bytes_per_edge="), "{out}");

        // No paths, sim scenarios, and missing files are all errors.
        let (out, code) = run_cli(["graph-stats"]);
        assert_eq!(code, 2);
        assert!(out.contains("graph-stats requires"), "{out}");
        let sim_path = std::env::temp_dir().join(format!(
            "bouncer-cli-graph-stats-sim-{}.scn",
            std::process::id()
        ));
        std::fs::write(&sim_path, ScenarioSpec::cli_default().render()).unwrap();
        let (_, code) = run_cli(["graph-stats", sim_path.to_str().unwrap()]);
        assert_eq!(code, 2);
        let (_, code) = run_cli(["graph-stats", "/nonexistent/file.scn"]);
        assert_eq!(code, 2);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&sim_path);
    }

    #[test]
    fn events_and_metrics_flags_write_valid_files() {
        use bouncer_core::obs::{parse_json, validate_prometheus};

        let dir = std::env::temp_dir();
        let events_path = dir.join(format!("bouncer-cli-events-{}.jsonl", std::process::id()));
        let metrics_path = dir.join(format!("bouncer-cli-metrics-{}.prom", std::process::id()));

        let (out, code) = run_cli([
            "--policy",
            "maxql",
            "--queue-limit",
            "5",
            "--rate-factor",
            "1.5",
            "--queries",
            "20000",
            "--warmup",
            "2000",
            "--events-out",
            events_path.to_str().unwrap(),
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("events written to"));
        assert!(out.contains("metrics written to"));

        // Every JSONL line parses, the stream opens with the scenario
        // event, and the overload run shed something.
        let events = std::fs::read_to_string(&events_path).unwrap();
        let first = parse_json(events.lines().next().unwrap()).unwrap();
        assert_eq!(
            first.get("event").and_then(|e| e.as_str()),
            Some("scenario")
        );
        let hash = first
            .get("scenario_hash")
            .and_then(|h| h.as_str())
            .expect("scenario event carries the hash");
        assert_eq!(hash.len(), 16);
        assert!(out.contains(hash), "report and events agree on the hash");
        let mut rejected = 0usize;
        let mut lines = 0usize;
        for line in events.lines() {
            let v = parse_json(line).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
            assert!(v.get("event").and_then(|e| e.as_str()).is_some());
            assert!(v.get("at_ns").and_then(|a| a.as_u64()).is_some());
            if v.get("event").and_then(|e| e.as_str()) == Some("rejected") {
                assert_eq!(
                    v.get("reason").and_then(|r| r.as_str()),
                    Some("queue-length-limit")
                );
                rejected += 1;
            }
            lines += 1;
        }
        assert!(lines > 20_000, "expected a full event log, got {lines} lines");
        assert!(rejected > 0, "the 1.5x run should have shed queries");

        // The metrics file passes the strict format checker and reconciles
        // with the log.
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        let samples = validate_prometheus(&metrics).expect("invalid Prometheus text");
        assert!(samples > 0);
        assert!(metrics.contains("bouncer_queries_rejected_total"));
        assert!(metrics.contains("reason=\"queue-length-limit\""));

        let _ = std::fs::remove_file(&events_path);
        let _ = std::fs::remove_file(&metrics_path);
    }

    #[test]
    fn traces_out_flag_writes_spans_trace_report_reads_them() {
        let dir = std::env::temp_dir();
        let traces_path = dir.join(format!("bouncer-cli-traces-{}.jsonl", std::process::id()));
        let metrics_path = dir.join(format!("bouncer-cli-tmetrics-{}.prom", std::process::id()));

        let (out, code) = run_cli([
            "--policy",
            "maxql",
            "--queue-limit",
            "5",
            "--rate-factor",
            "1.5",
            "--queries",
            "5000",
            "--warmup",
            "500",
            "--trace-sample",
            "10",
            "--traces-out",
            traces_path.to_str().unwrap(),
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("traces written to"));

        // The sampler counters ride along in the Prometheus file.
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(metrics.contains("bouncer_trace_sampled_total"));
        assert!(metrics.contains("bouncer_trace_dropped_total"));

        // The subcommand reads the file back and renders the breakdown;
        // sim traces are complete by construction, so --strict passes.
        let (report, code) = run_cli([
            "trace-report",
            "--traces-in",
            traces_path.to_str().unwrap(),
            "--strict",
        ]);
        assert_eq!(code, 0, "{report}");
        assert!(report.contains("trace-report"), "{report}");
        assert!(report.contains("broker queue"), "{report}");

        let _ = std::fs::remove_file(&traces_path);
        let _ = std::fs::remove_file(&metrics_path);
    }

    #[test]
    fn trace_report_requires_input_and_flags_incomplete_trees() {
        let (out, code) = run_cli(["trace-report"]);
        assert_eq!(code, 2);
        assert!(out.contains("--traces-in"), "{out}");

        let (out, code) = run_cli(["trace-report", "--help"]);
        assert_eq!(code, 0);
        assert!(out.contains("--strict"), "{out}");

        // A span whose parent never appears is an incomplete tree.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("bouncer-cli-orphans-{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            "{\"event\":\"span\",\"at_ns\":5,\"trace\":1,\"span\":2,\"parent\":99,\
             \"kind\":\"broker_queue\",\"start_ns\":0,\"end_ns\":5,\"status\":\"ok\"}\n",
        )
        .unwrap();
        let (out, code) = run_cli(["trace-report", "--traces-in", path.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        let (out, code) =
            run_cli(["trace-report", "--traces-in", path.to_str().unwrap(), "--strict"]);
        assert_eq!(code, 1);
        assert!(out.contains("strict: FAILED"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn forced_trigger_writes_incident_dump_and_postmortem_reads_it() {
        let dir = std::env::temp_dir().join(format!(
            "bouncer-cli-incidents-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Overload (queue cap 5 at 1.5x) with a forced dump once virtual
        // time crosses 100ms — the deterministic CI hook.
        let (out, code) = run_cli([
            "--policy",
            "maxql",
            "--queue-limit",
            "5",
            "--rate-factor",
            "1.5",
            "--queries",
            "20000",
            "--warmup",
            "2000",
            "--health-interval-ms",
            "50",
            "--incident-dir",
            dir.to_str().unwrap(),
            "--trigger-force-ms",
            "100",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("health: "), "{out}");
        assert!(out.contains("flight recorder: "), "{out}");
        assert!(out.contains("incident dump: "), "{out}");

        let dump = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("incident-") && n.contains("forced"))
            })
            .expect("a forced incident dump on disk");
        // The report points at the dump by path.
        assert!(out.contains(dump.to_str().unwrap()), "{out}");

        // The postmortem subcommand reconstructs the episode.
        let (report, code) = run_cli(["postmortem", "--dump-in", dump.to_str().unwrap()]);
        assert_eq!(code, 0, "{report}");
        assert!(report.contains("incident: forced"), "{report}");
        assert!(report.contains("peak queue depth"), "{report}");
        assert!(report.contains("rejected"), "{report}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn postmortem_requires_input_and_prints_help() {
        let (out, code) = run_cli(["postmortem"]);
        assert_eq!(code, 2);
        assert!(out.contains("--dump-in"), "{out}");

        let (out, code) = run_cli(["postmortem", "--help"]);
        assert_eq!(code, 0);
        assert!(out.contains("flight-recorder dump"), "{out}");

        let (_, code) = run_cli(["postmortem", "--dump-in", "/nonexistent/dump.jsonl"]);
        assert_eq!(code, 2);
    }

    #[test]
    fn metrics_out_carries_health_families() {
        use bouncer_core::obs::validate_prometheus;

        let metrics_path = std::env::temp_dir().join(format!(
            "bouncer-cli-hmetrics-{}.prom",
            std::process::id()
        ));
        let (out, code) = run_cli([
            "--policy",
            "maxql",
            "--queue-limit",
            "5",
            "--rate-factor",
            "1.5",
            "--queries",
            "10000",
            "--warmup",
            "1000",
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        validate_prometheus(&metrics).expect("invalid Prometheus text");
        assert!(metrics.contains("bouncer_queue_depth"), "{metrics}");
        assert!(metrics.contains("bouncer_in_flight"), "{metrics}");
        assert!(metrics.contains("bouncer_events_dropped_total"), "{metrics}");
        assert!(metrics.contains("bouncer_incidents_total"), "{metrics}");
        assert!(metrics.contains("bouncer_slo_attainment_ratio"), "{metrics}");
        let _ = std::fs::remove_file(&metrics_path);
    }

    #[test]
    fn invalid_health_interval_rejected() {
        let (out, code) = run_cli(["--health-interval-ms", "0"]);
        assert_eq!(code, 2);
        assert!(out.contains("--health-interval-ms"), "{out}");
    }

    #[test]
    fn invalid_parallelism_rejected() {
        let (out, code) = run_cli(["--parallelism", "0"]);
        assert_eq!(code, 2);
        assert!(out.contains("parallelism"));
    }
}
