//! `run` and `trace`: every workload in its own sequential child
//! process (so `VmHWM` is that workload's alone), the results gathered
//! into one JSON file that `compare` reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::harness::out_dir;
use crate::json::{self, Value};
use crate::metrics::{number, WORKLOADS};
use crate::stats;

/// The samples of one workload over the sets of a suite run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WorkloadResult {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Metric name to `(unit, one value per set)`, in emission order.
    pub metrics: Vec<(String, String, Vec<f64>)>,
}

pub type SuiteResult = BTreeMap<String, WorkloadResult>;

pub struct SuiteArgs {
    pub seed: u64,
    pub sets: u32,
    pub trace: bool,
    pub out: Option<PathBuf>,
}

/// Runs `sets` sets of every workload and writes the result file;
/// returns whether every run was correct.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let started = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut result = SuiteResult::new();
    for set in 0..args.sets {
        for workload in &WORKLOADS {
            let child_started = Instant::now();
            let output = Command::new(&exe)
                .args(["--workload", workload.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &crate::RUN_SECONDS.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            if set == 0 {
                print!("{stdout}");
            }
            if !output.status.success() {
                return Err(format!("{} exited with {}", workload.name, output.status));
            }
            let line = stdout.lines().last().unwrap_or_default();
            absorb(result.entry(workload.name.to_string()).or_default(), line)
                .map_err(|e| format!("{}: {e}", workload.name))?;
            eprintln!(
                "set {}/{} {} done in {:.1} s",
                set + 1,
                args.sets,
                workload.name,
                child_started.elapsed().as_secs_f64()
            );
        }
    }
    let path = args.out.clone().unwrap_or_else(|| {
        let kind = if args.trace { "trace" } else { "run" };
        out_dir().join(format!("{kind}-{}.json", args.seed))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, to_json(args.seed, args.trace, &result))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    summary(&result);
    println!(
        "wrote {} ({} set(s) of {} workloads) in {:.1} s",
        path.display(),
        args.sets,
        WORKLOADS.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(result.values().all(|w| w.correct && w.failed == 0))
}

/// Adds one run's result line to its workload's samples.
fn absorb(into: &mut WorkloadResult, line: &str) -> Result<(), String> {
    let doc = json::parse(line)?;
    let field = |key: &str| {
        doc.get(key)
            .ok_or_else(|| format!("result line lacks {key}"))
    };
    let first = into.metrics.is_empty();
    into.correct = (first || into.correct) && field("correct")? == &Value::Bool(true);
    into.attempted += field("attempted")?.as_f64().unwrap_or(0.0) as u64;
    into.failed += field("failed")?.as_f64().unwrap_or(0.0) as u64;
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?;
    for (i, (name, entry)) in metrics.iter().enumerate() {
        let value = entry
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metric {name} has no value"))?;
        let unit = entry
            .get("unit")
            .and_then(Value::as_str)
            .unwrap_or_default();
        if first {
            into.metrics
                .push((name.clone(), unit.to_string(), vec![value]));
        } else if into.metrics.get(i).is_some_and(|m| m.0 == *name) {
            into.metrics[i].2.push(value);
        } else {
            return Err(format!("metric {name} is out of place"));
        }
    }
    Ok(())
}

fn summary(result: &SuiteResult) {
    for (workload, w) in result {
        println!(
            "== {workload}: {} attempted, {} failed, correct: {}",
            w.attempted, w.failed, w.correct
        );
        for (name, unit, values) in &w.metrics {
            let (q1, q2, q3) = stats::quartiles(values);
            println!(
                "{name:<36} {q2:>16.4} {unit:<10} [{q1:.4}, {q3:.4}] n={}",
                values.len()
            );
        }
    }
}

pub fn to_json(seed: u64, trace: bool, result: &SuiteResult) -> String {
    let mut out = format!("{{\"seed\": {seed}, \"trace\": {trace}, \"workloads\": {{");
    for (i, (workload, w)) in result.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        write!(
            out,
            "{sep}\n{}: {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            json::quote(workload),
            w.correct,
            w.attempted,
            w.failed
        )
        .expect("writing to a String cannot fail");
        for (j, (name, unit, values)) in w.metrics.iter().enumerate() {
            let sep = if j > 0 { "," } else { "" };
            let values: Vec<String> = values.iter().map(|v| number(*v)).collect();
            write!(
                out,
                "{sep}\n  {}: {{\"unit\": {}, \"values\": [{}]}}",
                json::quote(name),
                json::quote(unit),
                values.join(", ")
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
    }
    out.push_str("\n}}\n");
    out
}

pub fn from_json(text: &str) -> Result<SuiteResult, String> {
    let doc = json::parse(text)?;
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("result file has no workloads object")?;
    let mut result = SuiteResult::new();
    for (name, entry) in workloads {
        let count = |key: &str| entry.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let mut w = WorkloadResult {
            attempted: count("attempted"),
            failed: count("failed"),
            correct: entry.get("correct") == Some(&Value::Bool(true)),
            metrics: Vec::new(),
        };
        let metrics = entry
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{name} has no metrics object"))?;
        for (metric, m) in metrics {
            let values = m
                .get("values")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("{name}/{metric} has no values"))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| format!("{name}/{metric}: not a number"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or_default();
            w.metrics.push((metric.clone(), unit.to_string(), values));
        }
        result.insert(name.clone(), w);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_accumulate_and_files_round_trip() {
        let mut w = WorkloadResult::default();
        let line = |setup: f64, failed: u64| {
            format!(
                "{{\"correct\": {}, \"attempted\": 10, \"failed\": {failed}, \"metrics\": \
                 {{\"setup_s\": {{\"value\": {setup}, \"unit\": \"s\"}}, \
                 \"peak_rss_mb\": {{\"value\": 37.5, \"unit\": \"MiB\"}}}}}}",
                failed == 0
            )
        };
        absorb(&mut w, &line(0.25, 0)).unwrap();
        absorb(&mut w, &line(0.5, 0)).unwrap();
        assert!(w.correct);
        assert_eq!((w.attempted, w.failed), (20, 0));
        assert_eq!(
            w.metrics[0],
            ("setup_s".into(), "s".into(), vec![0.25, 0.5])
        );
        absorb(&mut w, &line(0.75, 2)).unwrap();
        assert!(!w.correct);
        assert_eq!(w.failed, 2);
        assert!(absorb(&mut w, "{\"correct\": true}").is_err());

        let mut suite = SuiteResult::new();
        suite.insert("resident_lfu".into(), w);
        let text = to_json(2007, false, &suite);
        assert_eq!(from_json(&text).unwrap(), suite);
    }
}
