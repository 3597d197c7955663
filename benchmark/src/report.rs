//! Metric names and units, the result line the contract asks for, and the
//! provenance-stamped result files `compare` reads.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// The end-to-end metrics every untraced run reports: `(name, unit)`.
/// `BENCHMARK.json` carries the same list with directions and bounds; a unit
/// test holds the two together.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("goodput_qps", "1/s"),
    ("rt_p50_ms", "ms"),
    ("rt_p99_ms", "ms"),
    ("slo_ratio_worst", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports: `(name, unit)`, grouped
/// by the module they price. README.md says which end-to-end metric each
/// should move, and where.
pub const PER_LAYER: [(&str, &str); 50] = [
    // Read during the traced window.
    ("gen.lag_p99_ms", "ms"),
    ("gen.sent", "count"),
    ("policy.rejected_pct", "%"),
    ("policy.rejected_pct_max_type", "%"),
    ("policy.late_pct", "%"),
    ("broker.queue_wait_p50_ms", "ms"),
    ("broker.queue_wait_p99_ms", "ms"),
    ("broker.pt_p50_ms", "ms"),
    ("broker.utilization", "ratio"),
    ("broker.batches_per_query", "ratio"),
    ("shard.queue_wait_p50_ms", "ms"),
    ("shard.pt_p50_ms", "ms"),
    ("shard.utilization", "ratio"),
    ("shard.rejected", "count"),
    ("span.admission_us", "us"),
    ("span.broker_queue_us", "us"),
    ("span.shard_queue_us", "us"),
    ("span.shard_service_us", "us"),
    ("span.transport_us", "us"),
    ("span.aggregation_us", "us"),
    ("span.broker_compute_us", "us"),
    ("span.other_us", "us"),
    ("span.rounds_mean", "count"),
    ("span.sum_over_client_pct", "%"),
    ("span.traces", "count"),
    ("trace.overhead_pct", "%"),
    ("host.cpu_ms_per_kquery", "ms"),
    // Timed from outside, in isolation.
    ("policy.admit_ns", "ns"),
    ("gate.cycle_ns", "ns"),
    ("obs.recorder_record_ns", "ns"),
    ("metrics.hist_record_ns", "ns"),
    ("metrics.spsc_roundtrip_ns", "ns"),
    ("wire.query_encode_ns", "ns"),
    ("wire.query_decode_ns", "ns"),
    ("wire.batch_encode_ns", "ns"),
    ("wire.batch_decode_ns", "ns"),
    ("wire.reply_encode_ns", "ns"),
    ("wire.reply_decode_ns", "ns"),
    ("wire.batch_bytes", "B"),
    ("front.rtt_us", "us"),
    ("transport.inproc_rtt_us", "us"),
    ("transport.tcp_rtt_us", "us"),
    ("transport.rings_qt1_rtt_us", "us"),
    ("transport.channels_qt1_rtt_us", "us"),
    ("shard.batch_service_us", "us"),
    ("graph.generate_s", "s"),
    ("graph.shard_slice_ms", "ms"),
    ("graph.bytes_per_edge", "B"),
    ("graph.neighbors_ns", "ns"),
    ("graph.intersect_ns", "ns"),
];

/// Orders `got` like `table` and checks it is exactly that set of finite
/// values, so a run can never print a metric `BENCHMARK.json` does not
/// list, or miss one it does.
pub fn conform(
    table: &[(&'static str, &'static str)],
    got: &[Metric],
) -> Result<Vec<Metric>, String> {
    if got.len() != table.len() {
        return Err(format!(
            "measured {} metrics, expected {}",
            got.len(),
            table.len()
        ));
    }
    table
        .iter()
        .map(|&(name, unit)| {
            let m = got
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != unit {
                return Err(format!(
                    "metric {name} measured in {}, listed in {unit}",
                    m.unit
                ));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {name} is {}", m.value));
            }
            Ok(m.clone())
        })
        .collect()
}

/// Counts of one measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Queries sent in the window.
    pub attempted: u64,
    /// Serviced.
    pub ok: u64,
    /// Turned away by admission control (not a failure).
    pub rejected: u64,
    /// Error, expired, timed out, never answered, or wrong answer.
    pub failed: u64,
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{}` on f64 prints the shortest text that reads back to the same
        // value: every digit measured, and never an exponent.
        write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("write to String");
    }
    out.push('}');
    out
}

/// The one-line result the benchmark contract reads off standard output.
/// `correct` is always true here: a run whose answers were wrong has
/// already exited non-zero without a result.
pub fn contract_line(counts: Counts, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        counts.attempted,
        counts.failed,
        metrics_json(metrics)
    )
}

/// Where and on what a result was measured. A number without this is not
/// comparable to anything.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// Uncommitted changes in the work tree.
    pub dirty: bool,
    /// Host name.
    pub hostname: String,
    /// Processors the kernel lists.
    pub nproc: usize,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// `rustc --version`.
    pub rustc: String,
}

fn command_stdout(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The benchmark package's directory (`benchmark/`), fixed at build time;
/// the benchmark is always built where it runs.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

impl Provenance {
    /// Reads the stamp off this host and checkout.
    pub fn read() -> Provenance {
        let dir = package_dir();
        let commit = command_stdout("git", &["rev-parse", "HEAD"], &dir);
        let dirty =
            command_stdout("git", &["status", "--porcelain"], &dir).is_some_and(|s| !s.is_empty());
        let nproc = std::fs::read_to_string("/proc/cpuinfo")
            .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
            .unwrap_or(0);
        Provenance {
            commit: commit.unwrap_or_else(|| "unknown".into()),
            dirty,
            hostname: std::fs::read_to_string("/proc/sys/kernel/hostname")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_owned()),
            nproc,
            available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rustc: command_stdout("rustc", &["--version"], &dir)
                .unwrap_or_else(|| "unknown".into()),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"commit\": \"{}\", \"dirty\": {}, \"hostname\": \"{}\", \"nproc\": {}, \
             \"available_parallelism\": {}, \"rustc\": \"{}\"}}",
            escape(&self.commit),
            self.dirty,
            escape(&self.hostname),
            self.nproc,
            self.available_parallelism,
            escape(&self.rustc)
        )
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars().filter(|c| !c.is_control()) {
        if matches!(c, '"' | '\\') {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

/// Everything one run measured, as kept in a result file.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Traced pass or not.
    pub traced: bool,
    /// Query-stream seed.
    pub seed: u64,
    /// Measured seconds asked for.
    pub seconds: u64,
    /// Warm-up seconds before each window.
    pub warmup_seconds: u64,
    /// Window counts.
    pub counts: Counts,
    /// Checksum of the correctness gate's answers.
    pub checksum: u64,
    /// The run's metrics.
    pub metrics: Vec<Metric>,
}

impl RunRecord {
    /// One JSON object, one line.
    pub fn json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"seconds\": {}, \
             \"warmup_seconds\": {}, \"attempted\": {}, \"ok\": {}, \"rejected\": {}, \
             \"failed\": {}, \"checksum\": \"{:016x}\", \"metrics\": {}}}",
            self.workload,
            u8::from(self.traced),
            self.seed,
            self.seconds,
            self.warmup_seconds,
            self.counts.attempted,
            self.counts.ok,
            self.counts.rejected,
            self.counts.failed,
            self.checksum,
            metrics_json(&self.metrics)
        )
    }
}

/// The fixed cluster shape, recorded in every result file.
fn cluster_shape_json() -> String {
    use crate::workload::{ALLOWANCE, GRAPH_DEGREE, GRAPH_SEED, SLO_P50_MS, SLO_P90_MS};
    let cfg = liquid::cluster::ClusterConfig::default();
    format!(
        "{{\"brokers\": {}, \"broker_engines\": {}, \"shards\": {}, \"shard_engines\": {}, \
         \"replicas\": {}, \"policy\": \"bouncer+aa A={ALLOWANCE}\", \"slo_p50_ms\": {SLO_P50_MS}, \
         \"slo_p90_ms\": {SLO_P90_MS}, \"graph_seed\": {GRAPH_SEED}, \"graph_degree\": {GRAPH_DEGREE}}}",
        cfg.n_brokers, cfg.broker.engines, cfg.n_shards, cfg.shard.engines, cfg.replicas
    )
}

/// A result file: the stamp, the shape, and one line per run.
pub fn result_file_json(provenance: &Provenance, runs: &[String]) -> String {
    let mut out = format!(
        "{{\"provenance\": {},\n \"cluster\": {},\n \"runs\": [\n",
        provenance.json(),
        cluster_shape_json()
    );
    for (i, run) in runs.iter().enumerate() {
        out.push_str("  ");
        out.push_str(run);
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str(" ]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bouncer_core::obs::parse_json;

    #[test]
    fn contract_line_is_the_four_keys() {
        let line = contract_line(
            Counts {
                attempted: 10,
                ok: 7,
                rejected: 2,
                failed: 1,
            },
            &[
                Metric::new("setup_s", "s", 0.8127),
                Metric::new("goodput_qps", "1/s", 3301.25),
            ],
        );
        let v = parse_json(&line).unwrap();
        let bouncer_core::obs::JsonValue::Object(map) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(10));
        assert_eq!(v.get("failed").unwrap().as_u64(), Some(1));
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn conform_orders_and_rejects() {
        let table = [("a", "s"), ("b", "ms")];
        let got = [Metric::new("b", "ms", 2.0), Metric::new("a", "s", 1.0)];
        let ordered = conform(&table, &got).unwrap();
        assert_eq!(ordered[0].name, "a");
        assert!(conform(&table, &got[..1]).is_err());
        assert!(conform(&table, &[got[0].clone(), Metric::new("a", "ms", 1.0)]).is_err());
        assert!(conform(&table, &[got[0].clone(), Metric::new("a", "s", f64::NAN)]).is_err());
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// runs print. They must name the same metrics in the same units, and
    /// the workloads the binary accepts.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let v = parse_json(text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let bouncer_core::obs::JsonValue::Array(items) = v.get(key).unwrap() else {
                panic!("{key} is not an array")
            };
            items
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_owned(),
                        m.get("unit")
                            .map_or(String::new(), |u| u.as_str().unwrap().to_owned()),
                    )
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|w| w.0).collect();
        let ours: Vec<String> = crate::workload::all()
            .iter()
            .map(|w| w.name.to_owned())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_file_parses_back() {
        let p = Provenance {
            commit: "abc".into(),
            dirty: true,
            hostname: "h\"ost".into(),
            nproc: 2,
            available_parallelism: 2,
            rustc: "rustc 1.95.0".into(),
        };
        let run = RunRecord {
            workload: "w".into(),
            traced: false,
            seed: 1,
            seconds: 2,
            warmup_seconds: 1,
            counts: Counts {
                attempted: 3,
                ok: 3,
                rejected: 0,
                failed: 0,
            },
            checksum: 0xdead_beef,
            metrics: vec![Metric::new("setup_s", "s", 1.5)],
        };
        let v = parse_json(&result_file_json(&p, &[run.json(), run.json()])).unwrap();
        assert_eq!(
            v.get("provenance")
                .unwrap()
                .get("hostname")
                .unwrap()
                .as_str(),
            Some("h\"ost")
        );
        let bouncer_core::obs::JsonValue::Array(runs) = v.get("runs").unwrap() else {
            panic!()
        };
        assert_eq!(runs.len(), 2);
        assert_eq!(
            runs[0].get("checksum").unwrap().as_str(),
            Some("00000000deadbeef")
        );
    }
}
