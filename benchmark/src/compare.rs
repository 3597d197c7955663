//! `compare <a> <b>`: two sets of results side by side, one row per
//! (metric, workload), judged by the bounds `BENCHMARK.json` fixes.

use std::collections::BTreeMap;
use std::path::Path;

use bouncer_core::obs::{parse_json, JsonValue};

use crate::report::package_dir;
use crate::stats::{median, quartile_spread};

/// Values of one side, keyed by (workload, metric).
type Side = BTreeMap<(String, String), Vec<f64>>;

/// What `BENCHMARK.json` fixes for one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Lower values are better.
    pub lower_is_better: bool,
    /// Share of the base's median by which the metric may get worse.
    pub bound: f64,
}

/// The outcome of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// One side's own runs spread wider than the bound: the data cannot
    /// carry a verdict either way.
    Unresolved,
}

/// Judges one (metric, workload) pair: `a` is the base, `b` the candidate.
pub fn verdict(a: &[f64], b: &[f64], rule: Rule) -> Verdict {
    if quartile_spread(a) > rule.bound || quartile_spread(b) > rule.bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = if rule.lower_is_better {
        mb - ma
    } else {
        ma - mb
    };
    if worse_by / ma.abs() > rule.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn array<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    match v.get(key) {
        Some(JsonValue::Array(items)) => Ok(items),
        _ => Err(format!("no array `{key}`")),
    }
}

/// Adds one result file's runs to `side`. `traced` selects which pass.
fn load_file(path: &Path, traced: bool, side: &mut Side) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    for run in array(&doc, "runs").map_err(|e| format!("{}: {e}", path.display()))? {
        if run.get("trace").and_then(JsonValue::as_u64) != Some(u64::from(traced)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("run without workload")?;
        let Some(JsonValue::Object(metrics)) = run.get("metrics") else {
            return Err("run without metrics".into());
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or("metric without value")?;
            side.entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(())
}

/// Loads a result file, or every `*.json` of a directory of them.
fn load(path: &Path, traced: bool) -> Result<Side, String> {
    let mut side = Side::new();
    if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        for file in files {
            load_file(&file, traced, &mut side)?;
        }
    } else {
        load_file(path, traced, &mut side)?;
    }
    if side.is_empty() {
        return Err(format!(
            "{}: no {} runs",
            path.display(),
            if traced { "traced" } else { "untraced" }
        ));
    }
    Ok(side)
}

/// The end-to-end rules of a `BENCHMARK.json`, in its order.
pub fn rules(benchmark_json: &str) -> Result<Vec<(String, Rule)>, String> {
    let doc = parse_json(benchmark_json)?;
    array(&doc, "end_to_end")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(JsonValue::as_str)
                .ok_or("metric without better")?;
            let bound = m
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or("metric without bound")?;
            Ok((
                name.to_owned(),
                Rule {
                    lower_is_better: better == "lower",
                    bound,
                },
            ))
        })
        .collect()
}

fn row(name: &str, workload: &str, a: &[f64], b: &[f64], rule: Option<Rule>) {
    let (ma, mb) = (median(a), median(b));
    let judged = rule.map_or(String::from("-"), |r| {
        format!("{:?}", verdict(a, b, r)).to_lowercase()
    });
    println!(
        "{name:<30} {workload:<20} {ma:>12.4} {mb:>12.4}  b/a {:>6.3}  spread {:>5.1}%/{:>5.1}%  bound {:>5}  {judged}  (n {}/{})",
        mb / ma,
        100.0 * quartile_spread(a),
        100.0 * quartile_spread(b),
        rule.map_or(String::from("-"), |r| format!("{:.0}%", 100.0 * r.bound)),
        a.len(),
        b.len()
    );
}

/// Prints the comparison; errors when a pair is worse than its bound, so a
/// script can gate on the exit code.
pub fn run(a: &Path, b: &Path, with_layers: bool) -> Result<(), String> {
    let json_path = package_dir().join("../BENCHMARK.json");
    let rules = rules(
        &std::fs::read_to_string(&json_path)
            .map_err(|e| format!("{}: {e}", json_path.display()))?,
    )?;
    let (side_a, side_b) = (load(a, false)?, load(b, false)?);
    println!(
        "a = {} (base), b = {}; medians, ratio b over a",
        a.display(),
        b.display()
    );
    let mut worse = 0;
    for (name, rule) in &rules {
        for w in crate::workload::all() {
            let key = (w.name.to_owned(), name.clone());
            let (Some(va), Some(vb)) = (side_a.get(&key), side_b.get(&key)) else {
                println!("{name:<30} {:<20} missing on one side", w.name);
                continue;
            };
            row(name, w.name, va, vb, Some(*rule));
            worse += usize::from(verdict(va, vb, *rule) == Verdict::Worse);
        }
    }
    if with_layers {
        let (layers_a, layers_b) = (load(a, true)?, load(b, true)?);
        println!("per-layer metrics carry no bound:");
        for (key, va) in &layers_a {
            if let Some(vb) = layers_b.get(key) {
                row(&key.1, &key.0, va, vb, None);
            }
        }
    }
    if worse > 0 {
        return Err(format!(
            "{worse} (metric, workload) pairs are worse than their bound"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        lower_is_better: true,
        bound: 0.10,
    };
    const HIGHER: Rule = Rule {
        lower_is_better: false,
        bound: 0.10,
    };

    #[test]
    fn verdicts_on_hand_made_pairs() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Latency up 5 %: inside the bound. Up 20 %: worse. Down: fine.
        assert_eq!(verdict(&base, &base.map(|v| v * 1.05), LOWER), Verdict::Ok);
        assert_eq!(
            verdict(&base, &base.map(|v| v * 1.20), LOWER),
            Verdict::Worse
        );
        assert_eq!(verdict(&base, &base.map(|v| v * 0.50), LOWER), Verdict::Ok);
        // Goodput is the other way round.
        assert_eq!(
            verdict(&base, &base.map(|v| v * 0.80), HIGHER),
            Verdict::Worse
        );
        assert_eq!(verdict(&base, &base.map(|v| v * 1.50), HIGHER), Verdict::Ok);
        // A side that swings more than the bound cannot carry a verdict,
        // however far apart the medians are.
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(&base, &noisy.map(|v| v * 3.0), LOWER),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&noisy, &base, LOWER), Verdict::Unresolved);
        // Single runs have no spread to show and are judged on the values.
        assert_eq!(verdict(&[100.0], &[111.0], LOWER), Verdict::Worse);
        assert_eq!(verdict(&[100.0], &[109.0], LOWER), Verdict::Ok);
    }

    #[test]
    fn rules_come_from_benchmark_json() {
        let rules = rules(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(rules.len(), crate::report::END_TO_END.len());
        let goodput = rules.iter().find(|r| r.0 == "goodput_qps").unwrap().1;
        assert!(!goodput.lower_is_better);
        assert!(rules.iter().all(|r| r.1.bound > 0.0 && r.1.bound <= 0.25));
        let setup = rules.iter().find(|r| r.0 == "setup_s").unwrap().1;
        assert!(
            rules.iter().all(|r| r.1.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn result_files_load_by_pass() {
        let dir =
            std::env::temp_dir().join(format!("cluster-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |n: u32, v: f64| {
            let text = format!(
                "{{\"provenance\": {{}}, \"runs\": [\
                 {{\"workload\": \"w\", \"trace\": 0, \"metrics\": {{\"m\": {{\"value\": {v}, \"unit\": \"s\"}}}}}},\
                 {{\"workload\": \"w\", \"trace\": 1, \"metrics\": {{\"l\": {{\"value\": 7, \"unit\": \"ns\"}}}}}}]}}"
            );
            std::fs::write(dir.join(format!("result-{n}.json")), text).unwrap();
        };
        file(1, 1.5);
        file(2, 2.5);
        let untraced = load(&dir, false).unwrap();
        assert_eq!(untraced[&("w".to_owned(), "m".to_owned())], vec![1.5, 2.5]);
        assert!(!untraced.contains_key(&("w".to_owned(), "l".to_owned())));
        let traced = load(&dir.join("result-1.json"), true).unwrap();
        assert_eq!(traced[&("w".to_owned(), "l".to_owned())], vec![7.0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
