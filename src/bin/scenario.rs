//! `cablevod-scenario` — run any experiment from a declarative spec file.
//!
//! ```text
//! cablevod-scenario SPEC_FILE [--out FILE] [--print-spec]
//!                   [--checkpoint FILE] [--resume] [--keep-going]
//!                   [--job-retry NxBASE] [--job-timeout SECS]
//! cablevod-scenario --list-strategies
//! ```
//!
//! Loads a [`Scenario`] spec (format documented in
//! `cablevod_sim::scenario`), executes it through the crash-safe grid
//! executor with the plugin-aware strategy registry
//! ([`StrategyRegistry::with_plugins`], so out-of-tree strategies
//! installed via `cablevod_cache::register_plugin` are nameable from
//! spec files), and prints **one JSON object per cell** to stdout
//! followed by a final `{"done":true,...}` line — machine-parseable, so
//! CI (and any downstream harness) can assert on the sweep without
//! knowing the experiment:
//!
//! ```text
//! {"scenario":"smoke","series":"LFU","point":"1GB","strategy":"LFU","threads":1,
//!  "sessions":1234,"segment_requests":5678,"peak_gbps":1.234,"q05_gbps":...,
//!  "q95_gbps":...,"hit_rate":0.42,...,"coax_mbps":48.2,"coax_q05_mbps":...,
//!  "coax_q95_mbps":...,"busy_misses":17,"wall_ms":12,"decoded_chunks":0,
//!  "decoded_bytes":0,"peak_rss_kb":53600,"fastpath":false}
//! {"scenario":"smoke","done":true,"jobs":6}
//! ```
//!
//! `peak_gbps` is the peak-hour central-server rate (mean, with
//! `q05_gbps` / `q95_gbps` bars) every caching figure plots; `coax_mbps`
//! the peak-hour coax rate of Fig 14 (same bars); `busy_misses` the
//! requests whose peer had no free stream slot (the ablations' second
//! row).
//!
//! One human-readable status line per finished cell goes to stderr
//! (`[3/6] LFU x 1GB: ok (5807 sessions/s)` — with `, fastpath`
//! appended when a streaming cell replayed through a matching
//! neighborhood index), so long grids show per-cell progress and
//! throughput without polluting the machine-readable stream. After the
//! last one, stderr gets the grid as a markdown table, series x point,
//! of the server peak in Gb/s and the coax peak in Mb/s, each as
//! mean [q05, q95] ([`Figure::peak_pivot`]).
//!
//! * `--out FILE` additionally writes the same lines to `FILE`;
//! * `--print-spec` parses the file, prints its canonical re-rendered
//!   spec ([`Scenario::to_spec_string`]) and exits — a round-trip checker
//!   for hand-written specs;
//! * `--checkpoint FILE` journals every completed cell to `FILE` (CRC-
//!   framed JSONL, see the scenario module's "Crash safety & resume"
//!   docs). With a checkpoint the per-cell lines drop the
//!   nondeterministic telemetry fields (`wall_ms`, `decoded_chunks`,
//!   `decoded_bytes`, `peak_rss_kb`, `fastpath`), so an interrupted run resumed with
//!   `--resume` produces output **byte-identical** to an uninterrupted
//!   one;
//! * `--resume` replays cells already journaled in `--checkpoint` and
//!   runs only the missing ones;
//! * `--keep-going` finishes the remaining cells after a cell fails
//!   (default: stop scheduling new cells on the first failure);
//! * `--job-retry NxBASE` retries a failed cell up to `N` more times
//!   with doubling backoff from `BASE` (e.g. `2x500ms`, `3x5s`);
//! * `--job-timeout SECS` fails any single attempt that runs longer;
//! * `--list-strategies` prints every registered strategy name with its
//!   capability bits (`feed`, `schedule`, `prefetch`, `fetch-model`) and
//!   exits — the quick way to see what a spec file's `series` lines may
//!   name, plugins included.
//!
//! A run with any failed or skipped cell exits nonzero; the failed cells
//! are named (with their errors) in a `failed_cells` array on the final
//! line.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use cablevod::Figure;
use cablevod_cache::StrategyRegistry;
use cablevod_sim::{
    json_string, CellOutcome, CellResult, JobRetry, ResilienceOptions, RunOutcome, Scenario,
};

/// The per-cell result line. With `deterministic` (any `--checkpoint`
/// run) the nondeterministic telemetry tail is omitted so interrupted
/// and uninterrupted runs compare byte-for-byte.
fn completed_json(
    scenario: &str,
    cell: &CellOutcome,
    o: &RunOutcome,
    deterministic: bool,
) -> String {
    let report = &o.report;
    let t = &o.telemetry;
    // Degradation counters are zero (not null) on healthy runs so the
    // schema is fixed either way.
    let deg = report.degradation.as_ref();
    let head = format!(
        "{{\"scenario\":{},\"series\":{},\"point\":{},\"strategy\":{},\
         \"threads\":{},\"sessions\":{},\"segment_requests\":{},\"peak_gbps\":{:.6},\
         \"q05_gbps\":{:.6},\"q95_gbps\":{:.6},\"hit_rate\":{:.6},\
         \"blocked_sessions\":{},\"interrupted_sessions\":{},\"retries\":{},\
         \"delayed_hits\":{},\"inflight_misses\":{},\"coax_mbps\":{:.6},\
         \"coax_q05_mbps\":{:.6},\"coax_q95_mbps\":{:.6},\"busy_misses\":{}",
        json_string(scenario),
        json_string(&cell.series),
        json_string(&cell.point),
        json_string(&t.strategy),
        t.threads,
        report.sessions,
        report.segment_requests,
        report.server_peak.mean.as_gbps(),
        report.server_peak.q05.as_gbps(),
        report.server_peak.q95.as_gbps(),
        report.hit_rate(),
        deg.map_or(0, |d| d.blocked_sessions),
        deg.map_or(0, |d| d.interrupted_sessions),
        deg.map_or(0, |d| d.retries),
        report.cache.delayed_hits,
        report.cache.inflight_misses,
        report.coax_peak.mean.as_mbps(),
        report.coax_peak.q05.as_mbps(),
        report.coax_peak.q95.as_mbps(),
        report.cache.miss_peer_busy,
    );
    if deterministic {
        format!("{head}}}")
    } else {
        // `fastpath` rides in the nondeterministic tail: whether the
        // decode-once index matched is a property of the run setup, not
        // of the results, and checkpoint-mode output must stay byte-
        // comparable between fast-path and blocked-replay runs.
        format!(
            "{head},\"wall_ms\":{},\"decoded_chunks\":{},\"decoded_bytes\":{},\
             \"peak_rss_kb\":{},\"fastpath\":{}}}",
            t.wall.as_millis(),
            t.decode.chunks,
            t.decode.bytes,
            t.peak_rss_kb
                .map_or("null".to_string(), |kb| kb.to_string()),
            t.fastpath,
        )
    }
}

fn cell_json(scenario: &str, cell: &CellOutcome, deterministic: bool) -> String {
    match &cell.result {
        CellResult::Completed { outcome, .. } => {
            completed_json(scenario, cell, outcome, deterministic)
        }
        CellResult::Failed { error, .. } => format!(
            "{{\"scenario\":{},\"series\":{},\"point\":{},\"failed\":true,\"error\":{}}}",
            json_string(scenario),
            json_string(&cell.series),
            json_string(&cell.point),
            json_string(error),
        ),
        CellResult::Skipped => format!(
            "{{\"scenario\":{},\"series\":{},\"point\":{},\"skipped\":true}}",
            json_string(scenario),
            json_string(&cell.series),
            json_string(&cell.point),
        ),
    }
}

/// Parses `NxBASE` (e.g. `2x500ms`, `3x5s`) into a [`JobRetry`].
fn parse_job_retry(text: &str) -> Result<JobRetry, String> {
    let err = || format!("--job-retry wants NxBASE (e.g. 3x5s, 2x500ms), got {text:?}");
    let (count, base) = text.split_once('x').ok_or_else(err)?;
    let count: u8 = count.parse().map_err(|_| err())?;
    let base = if let Some(ms) = base.strip_suffix("ms") {
        Duration::from_millis(ms.parse().map_err(|_| err())?)
    } else if let Some(secs) = base.strip_suffix('s') {
        Duration::from_secs(secs.parse().map_err(|_| err())?)
    } else {
        return Err(err());
    };
    Ok(JobRetry::new(count, base))
}

/// Parses `--job-timeout`'s whole seconds. Zero is refused: every attempt
/// would time out at once, and each would leave its cell computing on an
/// abandoned thread.
fn parse_job_timeout(text: &str) -> Result<Duration, String> {
    match text.parse() {
        Ok(secs) if secs > 0 => Ok(Duration::from_secs(secs)),
        _ => Err(format!(
            "--job-timeout wants a whole number of seconds above 0, got {text:?}"
        )),
    }
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("cablevod-scenario: {message}");
    std::process::exit(1);
}

const USAGE: &str = "usage: cablevod-scenario SPEC_FILE [--out FILE] [--print-spec] \
                     [--checkpoint FILE] [--resume] [--keep-going] \
                     [--job-retry NxBASE] [--job-timeout SECS] | --list-strategies";

/// `--list-strategies`: one line per registered name with its capability
/// bits, plugins included. Sorted (registry order), stable for scripts.
fn list_strategies(registry: &StrategyRegistry) {
    for name in registry.names() {
        let factory = registry
            .get(name)
            .expect("names() yields only registered entries");
        let mut caps = Vec::new();
        if factory.needs_feed() {
            caps.push("feed");
        }
        if factory.schedule_lookahead().is_some() {
            caps.push("schedule");
        }
        if factory.fetch_model().is_some() {
            caps.push("fetch-model");
        }
        let caps = if caps.is_empty() {
            "-".to_string()
        } else {
            caps.join(",")
        };
        println!("{name:<16} {:<16} {caps}", factory.name());
    }
}

fn main() {
    let mut spec_path = None;
    let mut out_path = None;
    let mut print_spec = false;
    let mut options = ResilienceOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = Some(args.next().unwrap_or_else(|| fail("--out needs a value"))),
            "--print-spec" => print_spec = true,
            "--list-strategies" => {
                list_strategies(&StrategyRegistry::with_plugins());
                return;
            }
            "--checkpoint" => {
                options.checkpoint = Some(
                    args.next()
                        .unwrap_or_else(|| fail("--checkpoint needs a path"))
                        .into(),
                )
            }
            "--resume" => options.resume = true,
            "--keep-going" => options.keep_going = true,
            "--job-retry" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| fail("--job-retry needs NxBASE"));
                options.retry = parse_job_retry(&value).unwrap_or_else(|e| fail(e));
            }
            "--job-timeout" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| fail("--job-timeout needs seconds"));
                options.timeout = Some(parse_job_timeout(&value).unwrap_or_else(|e| fail(e)));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if spec_path.is_none() && !other.starts_with('-') => {
                spec_path = Some(other.to_string())
            }
            other => fail(format!("unknown argument {other:?}")),
        }
    }
    let spec_path = spec_path.unwrap_or_else(|| fail(USAGE));
    if options.resume && options.checkpoint.is_none() {
        fail("--resume needs --checkpoint");
    }

    let scenario = Scenario::load(&spec_path).unwrap_or_else(|e| fail(e));
    if print_spec {
        match scenario.to_spec_string() {
            Ok(text) => print!("{text}"),
            Err(e) => fail(e),
        }
        return;
    }

    let deterministic = options.checkpoint.is_some();
    let registry = StrategyRegistry::with_plugins();
    let finished = AtomicUsize::new(0);
    let total = scenario.job_count();
    let progress = |cell: &CellOutcome| {
        let k = finished.fetch_add(1, Ordering::SeqCst) + 1;
        let status = match &cell.result {
            CellResult::Completed { replayed: true, .. } => "replayed".to_string(),
            CellResult::Completed {
                outcome,
                attempts,
                replayed: false,
            } => {
                // Per-cell throughput (and the streaming fast-path marker)
                // go to stderr, not the JSON stream: rates are wall-clock
                // noise, and checkpoint-mode stdout must stay byte-stable.
                let ok = if *attempts > 1 {
                    format!("ok after {attempts} attempts")
                } else {
                    "ok".to_string()
                };
                let fast = if outcome.telemetry.fastpath {
                    ", fastpath"
                } else {
                    ""
                };
                format!("{ok} ({:.0} sessions/s{fast})", outcome.sessions_per_sec())
            }
            CellResult::Failed { error, attempts } => {
                format!("FAILED after {attempts} attempt(s): {error}")
            }
            CellResult::Skipped => "skipped".to_string(),
        };
        eprintln!("[{k}/{total}] {} x {}: {status}", cell.series, cell.point);
    };
    let grid = scenario
        .execute_resilient(&registry, &options, &progress)
        .unwrap_or_else(|e| fail(e));
    let pivot = Figure::peak_pivot(
        scenario.name.as_str(),
        grid.completed()
            .map(|(cell, o)| (cell.series.as_str(), cell.point.as_str(), &o.report)),
    );
    eprint!("\n{}", pivot.to_markdown());

    let mut lines: Vec<String> = grid
        .cells
        .iter()
        .map(|cell| cell_json(&scenario.name, cell, deterministic))
        .collect();
    let failed: Vec<&CellOutcome> = grid.failed().collect();
    let mut done = format!(
        "{{\"scenario\":{},\"done\":true,\"jobs\":{}",
        json_string(&scenario.name),
        grid.cells.len()
    );
    if !failed.is_empty() {
        let named: Vec<String> = failed
            .iter()
            .map(|cell| {
                let error = match &cell.result {
                    CellResult::Failed { error, .. } => error.as_str(),
                    _ => unreachable!("failed() yields only Failed cells"),
                };
                format!(
                    "{{\"series\":{},\"point\":{},\"error\":{}}}",
                    json_string(&cell.series),
                    json_string(&cell.point),
                    json_string(error),
                )
            })
            .collect();
        done.push_str(&format!(
            ",\"failed\":{},\"failed_cells\":[{}]",
            failed.len(),
            named.join(",")
        ));
    }
    done.push('}');
    lines.push(done);
    let body = lines.join("\n");
    println!("{body}");
    if let Some(path) = out_path {
        std::fs::write(&path, format!("{body}\n"))
            .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
    }
    if !grid.is_complete() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cell error carrying control characters (a panic message, an I/O
    /// error with a path) still prints as one RFC 8259 line.
    #[test]
    fn failed_cell_line_escapes_control_characters() {
        let cell = CellOutcome {
            key: cablevod_sim::CellKey {
                point: 0,
                series: 0,
            },
            series: "S".into(),
            point: "P".into(),
            result: CellResult::Failed {
                error: "open\t/tmp/x\r: \u{1}".into(),
                attempts: 1,
            },
        };
        let line = cell_json("grid", &cell, true);
        assert!(
            line.ends_with(r#""error":"open\t/tmp/x\r: \u0001"}"#),
            "{line}"
        );
    }

    /// `--job-timeout 0` would time out every attempt at once; it, and
    /// anything that is not whole seconds, is refused naming the flag.
    #[test]
    fn job_timeout_refuses_zero_and_non_numbers_by_name() {
        assert_eq!(parse_job_timeout("30"), Ok(Duration::from_secs(30)));
        for bad in ["0", "", "-1", "1.5", "5s", "ten"] {
            let err = parse_job_timeout(bad).expect_err(bad);
            assert!(err.starts_with("--job-timeout "), "{bad:?}: {err}");
        }
    }
}
