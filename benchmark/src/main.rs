//! The repo benchmark (see README.md). One run of one workload:
//!
//! ```text
//! cablevod-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints every metric by name with its unit, checks the outputs, and
//! ends with one JSON line. `run`, `trace`, `compare` and `golden` are
//! the ledger commands built on it.

mod alloc;
mod calib;
mod compare;
mod golden;
mod grid;
mod harness;
mod json;
mod layers;
mod metrics;
mod offline;
mod serve;
mod span;
mod stats;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{out_dir, Outcome};
use span::Tracer;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// How long one run measures; `BENCHMARK.json` says the same and the
/// ledger commands pass it on.
pub const RUN_SECONDS: u32 = 20;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: u64 = 5;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// No workload runs more threads than the host has cores: a result
/// measured while threads share a core says nothing about this one.
pub fn check_cores(threads: usize) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if threads > cores {
        return Err(format!(
            "the workload runs {threads} threads but the host has {cores} core(s)"
        ));
    }
    Ok(())
}

/// Writes the spans of a traced run to `out/trace-<workload>.json` and
/// prints their totals by name.
pub fn write_span_file(workload: &str, tracer: &Tracer) -> Result<(), String> {
    let spans = tracer.snapshot();
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, span::to_json(workload, &spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "{:<28} {:>8} {:>14} {:>14}",
        "span", "count", "total ms", "self ms"
    );
    for (name, count, total_ns, self_ns) in span::totals_by_name(&spans) {
        println!(
            "{name:<28} {count:>8} {:>14.3} {:>14.3}",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    println!("{} spans written to {}", spans.len(), path.display());
    Ok(())
}

fn run_workload(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "resident_lfu" => offline::run(offline::Kind::ResidentLfu, args),
        "stream_serial" => offline::run(offline::Kind::StreamSerial, args),
        "stream_sharded" => offline::run(offline::Kind::StreamSharded, args),
        "grid_zoo" => grid::run(args),
        "serve_socket" => serve::run(args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    }
}

const USAGE: &str = "usage:
  cablevod-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  cablevod-benchmark run     [--seed <n>] [--sets <k>] [--out <file>]
  cablevod-benchmark trace   [--seed <n>] [--sets <k>] [--out <file>]
  cablevod-benchmark compare <A.json> <B.json>
  cablevod-benchmark golden      (prints golden.json afresh)
  cablevod-benchmark manifest    (prints BENCHMARK.json from the metric tables)
workloads: resident_lfu stream_serial stream_sharded grid_zoo serve_socket";

/// `--flag value` pairs, in any order.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown argument {flag}\n{USAGE}"));
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.0.iter().rev().find(|(f, _)| f == flag) {
            None => Ok(None),
            Some((_, value)) => value
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot read {value:?}")),
        }
    }

    fn require<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.get(flag)?
            .ok_or_else(|| format!("{flag} is required\n{USAGE}"))
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some(command @ ("run" | "trace")) => {
            let flags = Flags::parse(&args[1..], &["--seed", "--sets", "--out"])?;
            suite::run(&suite::SuiteArgs {
                seed: flags.get("--seed")?.unwrap_or(golden::GOLDEN_SEED),
                sets: flags.get("--sets")?.unwrap_or(1),
                trace: command == "trace",
                out: flags.get::<PathBuf>("--out")?,
            })
        }
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err(format!("compare takes two result files\n{USAGE}"));
            };
            let load = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("read {path}: {e}"))
                    .and_then(|text| suite::from_json(&text).map_err(|e| format!("{path}: {e}")))
            };
            Ok(compare::compare(&load(a)?, &load(b)?))
        }
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            Ok(true)
        }
        Some("golden") => {
            print!("{}", golden::regenerate()?);
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => {
            let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"])?;
            let seconds: f64 = flags.require("--seconds")?;
            if !(seconds > 0.0 && seconds <= 600.0) {
                return Err(format!("--seconds {seconds} is outside 0..=600"));
            }
            let run = RunArgs {
                workload: flags.require("--workload")?,
                seed: flags.require("--seed")?,
                seconds,
                trace: match flags.require::<u8>("--trace")? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                },
            };
            let started = Instant::now();
            let outcome = run_workload(&run)?;
            println!(
                "== {} seed {} ({} s box, trace {}): {} attempted, {} failed, correct: {}, {:.1} s in all",
                run.workload,
                run.seed,
                run.seconds,
                u8::from(run.trace),
                outcome.attempted,
                outcome.failed,
                outcome.correct,
                started.elapsed().as_secs_f64()
            );
            for (name, unit, value) in outcome.metrics.rows() {
                println!("{name:<36} {value:>18.4} {unit}");
            }
            println!("{}", outcome.to_json());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("cablevod-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
