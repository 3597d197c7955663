//! The cluster benchmark: goodput at SLO end to end, and a per-layer
//! latency budget, over four workloads that each load a different layer.
//!
//! ```text
//! cluster-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//!     one run of one workload; the last line of standard output is the
//!     result object BENCHMARK.json's contract describes
//! cluster-benchmark all [--seed <n>] [--seconds <s>] [--sets <k>] [--trace <0|1|both>]
//!     every workload, untraced then traced (one process per run), checks
//!     the answers agree across transports, writes benchmark/out/*.json
//! cluster-benchmark probes
//!     the isolated per-layer probes alone
//! cluster-benchmark compare <a> <b> [--layers]
//!     two result files (or directories of them) side by side
//! ```
//!
//! README.md has the reasons behind every workload and metric.

mod compare;
mod driver;
mod layers;
mod probes;
mod procfs;
mod report;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use liquid::graph::Graph;

use driver::{check_regime, drive, lag_p99_ms, Phase, Summary};
use report::{
    conform, contract_line, Counts, Metric, Provenance, RunRecord, END_TO_END, PER_LAYER,
};
use workload::{verify, System, Workload};

/// Traffic before each measured window. Bouncer swaps its histograms once a
/// second and needs 16 completions of a type before it trusts that type's
/// own estimate; where admission is active (every workload but
/// `cheap_closed_rings`) what it rejects keeps settling for a few swaps.
const WARMUP: Duration = Duration::from_secs(5);
/// The traced pass spends this share of `--seconds` on an untraced window
/// first, as the base of `trace.overhead_pct`; the rest is traced.
const UNTRACED_SHARE: f64 = 0.25;
/// An untraced run sets the system up this many times and reports the
/// median, so `setup_s` is a steady number. The first system is measured.
const SETUPS: usize = 3;
/// Defaults of the `all` subcommand, equal to BENCHMARK.json's.
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: u64 = 20;

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<PathBuf>,
}

/// Spawns the system and passes the correctness gate through its own entry.
/// Returns the system, the answers' checksum and how long the spawn took.
/// The gate is not part of `setup_s`: it is the benchmark's work, three
/// times the program's on the 200 k graph, and 500 one-at-a-time queries on
/// an idle cluster are timed by the scheduler's wake-ups, not by the code.
fn set_up(w: &Workload, traced: bool, reference: &Graph) -> Result<(System, u64, f64), String> {
    let t = Instant::now();
    let sys = System::spawn(w, traced);
    let spawned = t.elapsed().as_secs_f64();
    let checksum = verify(&sys.client(), reference)?;
    println!(
        "  set up in {spawned:.3} s, correctness gate passed in {:.3} s",
        t.elapsed().as_secs_f64() - spawned
    );
    Ok((sys, checksum, spawned))
}

/// Reduces a measurement and checks it: counts balance, regime held.
fn reduce(w: &Workload, raw: &driver::Raw) -> Result<(Summary, f64), String> {
    let summary = Summary::of(raw)?;
    if summary.attempted != summary.ok + summary.rejected + summary.failed {
        return Err(format!("{}: counts do not add up: {summary:?}", w.name));
    }
    let lag = lag_p99_ms(raw);
    println!(
        "  measured {:>4.1} s: attempted {} ok {} rejected {} failed {} late {}, pacer lag p99 {lag:.2} ms",
        raw.window.as_secs_f64(),
        summary.attempted,
        summary.ok,
        summary.rejected,
        summary.failed,
        summary.late
    );
    check_regime(w, &summary, lag)?;
    Ok((summary, lag))
}

fn counts_of(s: &Summary) -> Counts {
    Counts {
        attempted: s.attempted,
        ok: s.ok,
        rejected: s.rejected,
        failed: s.failed,
    }
}

/// The untraced pass: set up, measure one window, then set up and tear down
/// again until `setup_s` has its [`SETUPS`] samples.
fn run_untraced(args: &RunArgs, reference: &Graph) -> Result<(Counts, u64, Vec<Metric>), String> {
    let w = &args.workload;
    let (sys, checksum, seconds) = set_up(w, false, reference)?;
    let mut setups = vec![seconds];
    let phase = Phase {
        warmup: WARMUP,
        window: Duration::from_secs(args.seconds),
    };
    let raw = drive(&sys, w, args.seed, phase);
    sys.shutdown();
    // Read here: the measured system was this process's first, so the peak
    // owes nothing to what earlier set-ups left in the allocator, and what
    // the reduction below allocates is the benchmark's, not the program's.
    let peak_rss_mb = procfs::peak_rss_mb();
    while setups.len() < SETUPS {
        let (sys, again, seconds) = set_up(w, false, reference)?;
        sys.shutdown();
        if again != checksum {
            return Err(format!(
                "{}: the same 500 queries gave different answers",
                w.name
            ));
        }
        setups.push(seconds);
    }
    let (summary, _) = reduce(w, &raw)?;
    let metrics = vec![
        Metric::new("setup_s", "s", stats::median(&setups)),
        Metric::new("goodput_qps", "1/s", summary.goodput_qps),
        Metric::new("rt_p50_ms", "ms", summary.rt_p50_ms),
        Metric::new("rt_p99_ms", "ms", summary.rt_p99_ms),
        Metric::new("slo_ratio_worst", "ratio", summary.slo_ratio_worst),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb),
    ];
    Ok((
        counts_of(&summary),
        checksum,
        conform(&END_TO_END, &metrics)?,
    ))
}

/// The traced pass: an untraced base window, then the same traffic on a
/// system with the tracer on, then the isolated probes.
fn run_traced(args: &RunArgs, reference: &Graph) -> Result<(Counts, u64, Vec<Metric>), String> {
    let w = &args.workload;
    let base_s = ((args.seconds as f64 * UNTRACED_SHARE).round() as u64).max(1);
    let traced_s = args.seconds.saturating_sub(base_s).max(1);

    let phase = |seconds| Phase {
        warmup: WARMUP,
        window: Duration::from_secs(seconds),
    };

    let (sys, _, _) = set_up(w, false, reference)?;
    let base_raw = drive(&sys, w, args.seed, phase(base_s));
    sys.shutdown();
    let (base, _) = reduce(w, &base_raw)?;

    let (sys, checksum, _) = set_up(w, true, reference)?;
    let raw = drive(&sys, w, args.seed, phase(traced_s));
    let (summary, lag) = reduce(w, &raw)?;
    let tracing = sys.tracing.as_ref().expect("traced system");
    let mut metrics = layers::traffic_metrics(&raw, &summary, lag);
    metrics.extend(layers::host_metrics(&raw));
    metrics.extend(layers::span_metrics(tracing, &raw));
    sys.shutdown();

    metrics.push(Metric::new(
        "trace.overhead_pct",
        "%",
        100.0 * (base.goodput_qps - summary.goodput_qps) / base.goodput_qps,
    ));
    // CPU per serviced query is priced on the untraced window: tracing
    // spends CPU of its own.
    metrics.push(Metric::new(
        "host.cpu_ms_per_kquery",
        "ms",
        base_raw.cpu.as_secs_f64() * 1e3 / (base.ok as f64 / 1e3),
    ));
    metrics.extend(probes::run());
    Ok((
        counts_of(&summary),
        checksum,
        conform(&PER_LAYER, &metrics)?,
    ))
}

fn run(args: &RunArgs) -> Result<(), String> {
    let w = &args.workload;
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    // The oracle of the correctness gate: the same generator and seed the
    // cluster uses, built here, outside the timed set-up.
    let reference = Graph::generate(&w.graph_config());
    let (counts, checksum, metrics) = if args.traced {
        run_traced(args, &reference)?
    } else {
        run_untraced(args, &reference)?
    };
    for m in &metrics {
        println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = &args.out {
        let record = RunRecord {
            workload: w.name.to_owned(),
            traced: args.traced,
            seed: args.seed,
            seconds: args.seconds,
            warmup_seconds: WARMUP.as_secs(),
            counts,
            checksum,
            metrics: metrics.clone(),
        };
        std::fs::write(path, record.json() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", contract_line(counts, &metrics));
    Ok(())
}

/// `all`: each workload in a process of its own (so `peak_rss_mb` is that
/// workload's), every run's record gathered into one stamped result file.
fn run_all(seed: u64, seconds: u64, sets: u64, passes: &[bool]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out_dir = report::package_dir().join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let scratch = out_dir.join(format!("run-{stamp}.tmp.json"));
    let mut records = Vec::new();
    let mut checksums: Vec<(String, u32, String)> = Vec::new();
    for set in 0..sets {
        for w in workload::all() {
            for &traced in passes {
                let status = Command::new(&exe)
                    .args(["--workload", w.name])
                    .args(["--seed", &(seed + set).to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&scratch)
                    .status()
                    .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
                if !status.success() {
                    return Err(format!(
                        "{} (trace {}) failed: {status}",
                        w.name,
                        u8::from(traced)
                    ));
                }
                let line = std::fs::read_to_string(&scratch)
                    .map_err(|e| format!("cannot read {}: {e}", scratch.display()))?;
                let line = line.trim().to_owned();
                let parsed = bouncer_core::obs::parse_json(&line)?;
                let checksum = parsed
                    .get("checksum")
                    .and_then(|c| c.as_str())
                    .ok_or("run record without checksum")?;
                checksums.push((w.name.to_owned(), w.vertices, checksum.to_owned()));
                records.push(line);
            }
        }
    }
    let _ = std::fs::remove_file(&scratch);
    // channels ≡ tcp ≡ rings: workloads serving the same graph must have
    // given the same 500 answers, whatever carried them.
    for (name, vertices, checksum) in &checksums {
        let (first, _, want) = checksums.iter().find(|c| c.1 == *vertices).expect("self");
        if checksum != want {
            return Err(format!(
                "answers differ on the {vertices}-vertex graph: {name} {checksum}, {first} {want}"
            ));
        }
    }
    let path = out_dir.join(format!("result-{stamp}.json"));
    std::fs::write(
        &path,
        report::result_file_json(&Provenance::read(), &records),
    )
    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "answers agree across transports; results in {}",
        path.display()
    );
    Ok(())
}

fn usage() -> String {
    "usage:\n  cluster-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]\n  \
     cluster-benchmark all [--seed <n>] [--seconds <s>] [--sets <k>] [--trace <0|1|both>]\n  \
     cluster-benchmark probes\n  cluster-benchmark compare <a> <b> [--layers]\n\
     workloads: mix_overload mix_closed_tcp cheap_closed_rings heavy_closed_rings"
        .into()
}

/// Value of `--flag` in `args`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a value\n{}", usage())),
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("probes") => {
            probes::run();
            Ok(())
        }
        Some("compare") => {
            let [a, b] = [args.get(1), args.get(2)].map(|p| p.map(PathBuf::from));
            let (a, b) = a.zip(b).ok_or_else(usage)?;
            compare::run(&a, &b, args.iter().any(|f| f == "--layers"))
        }
        Some("all") => {
            let passes: &[bool] = match flag::<String>(args, "--trace")?.as_deref() {
                None | Some("both") => &[false, true],
                Some("0") => &[false],
                Some("1") => &[true],
                Some(_) => return Err(usage()),
            };
            run_all(
                flag(args, "--seed")?.unwrap_or(DEFAULT_SEED),
                flag(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS),
                flag(args, "--sets")?.unwrap_or(1),
                passes,
            )
        }
        _ => {
            let name: String = flag(args, "--workload")?.ok_or_else(usage)?;
            let workload = workload::by_name(&name)
                .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
            let seconds: u64 = flag(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
            if seconds == 0 {
                return Err("--seconds must be at least 1".into());
            }
            run(&RunArgs {
                workload,
                seed: flag(args, "--seed")?.unwrap_or(DEFAULT_SEED),
                seconds,
                traced: match flag::<u8>(args, "--trace")? {
                    None | Some(0) => false,
                    Some(1) => true,
                    Some(_) => return Err(usage()),
                },
                out: flag(args, "--out")?,
            })
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
