//! The scenario executor: jobs and the one cell loop (`run_grid`) behind
//! every `execute*` entry point. The execution model and the per-cell
//! bulkhead contract (`catch_unwind`, retry, watchdog timeout, journal
//! append before report) are in the [module docs](super).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use cablevod_cache::{StrategyFactory, StrategyRegistry};
use cablevod_trace::record::Trace;
use cablevod_trace::source::TraceSource;

use super::checkpoint::{CellKey, CellRecord, CheckpointJournal, JournalHeader};
use super::{config_err, AxisPoint, OwnedSource, Scenario, SourceSpec, StrategyRef};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::runner::{default_threads, run_indexed};
use crate::simulation::{RunOutcome, RunTelemetry, Simulation, ThreadPolicy};

/// One labelled result of a scenario sweep.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The series-axis label this job ran under.
    pub series: String,
    /// The point-axis label this job ran under.
    pub point: String,
    /// The run's report and telemetry.
    pub outcome: RunOutcome,
}

impl ScenarioOutcome {
    /// The job's simulation report.
    pub fn report(&self) -> &crate::report::SimReport {
        &self.outcome.report
    }
}

/// One resolved job of the cross product, tagged with its stable cell
/// identity (see the module docs' cell-identity contract).
#[derive(Clone)]
struct Job {
    cell: CellKey,
    series: String,
    point: String,
    config: SimConfig,
    factory: Arc<dyn StrategyFactory>,
    source: Option<SourceSpec>,
    threads: ThreadPolicy,
}

/// Bounded exponential backoff for failed *jobs* — the executor-level
/// mirror of the plant-level
/// [`RetryPolicy`](crate::config::RetryPolicy): `max_retries` additional
/// attempts after the first, waiting `base_backoff * 2^attempt` between
/// them. The default is no retries (panics are usually deterministic;
/// retry is for flaky environments — disk pressure, OOM-killed
/// stragglers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobRetry {
    max_retries: u8,
    base_backoff: Duration,
}

impl JobRetry {
    /// A policy with `max_retries` extra attempts and `base_backoff`
    /// before the first retry.
    pub fn new(max_retries: u8, base_backoff: Duration) -> Self {
        JobRetry {
            max_retries,
            base_backoff,
        }
    }

    /// No retries: one attempt per cell (the default).
    pub fn none() -> Self {
        JobRetry::default()
    }

    /// Extra attempts after the first.
    pub fn max_retries(&self) -> u8 {
        self.max_retries
    }

    /// Backoff before the first retry.
    pub fn base_backoff(&self) -> Duration {
        self.base_backoff
    }

    /// The wait before retry number `attempt` (zero-based):
    /// `base * 2^attempt`, saturating.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_backoff.saturating_mul(factor)
    }
}

/// Knobs of one [`Scenario::execute_resilient`] run.
#[derive(Debug, Clone, Default)]
pub struct ResilienceOptions {
    /// Journal completed cells here (and replay them on
    /// [`ResilienceOptions::resume`]). `None` runs without a journal —
    /// isolation, retry and timeout still apply.
    pub checkpoint: Option<PathBuf>,
    /// Replay cells already journaled at
    /// [`ResilienceOptions::checkpoint`] instead of re-running them. An
    /// absent journal file starts a fresh run; a journal written by a
    /// different scenario (fingerprint mismatch) is refused.
    pub resume: bool,
    /// Per-cell retry policy.
    pub retry: JobRetry,
    /// Per-attempt wall-clock limit; `None` waits forever. Timed-out
    /// attempts count as failures (and retry, if attempts remain).
    pub timeout: Option<Duration>,
    /// Keep running remaining cells after a cell exhausts its retries
    /// (default: stop scheduling new cells on the first failure).
    pub keep_going: bool,
}

/// Terminal state of one grid cell.
#[derive(Debug, Clone)]
pub enum CellResult {
    /// The cell has a report.
    Completed {
        /// The cell's run result (telemetry is zeroed for replayed
        /// cells — nothing ran). Boxed: a full report dwarfs the other
        /// variants.
        outcome: Box<RunOutcome>,
        /// Replayed from the checkpoint journal without running.
        replayed: bool,
        /// Live attempts spent (zero for replayed cells).
        attempts: u32,
    },
    /// Every attempt failed; the error text is from the last one.
    Failed {
        /// The last attempt's failure (panic message, timeout, or
        /// simulation error).
        error: String,
        /// Attempts spent.
        attempts: u32,
    },
    /// Never scheduled: an earlier cell failed without `keep_going`.
    Skipped,
}

/// One cell's identity, labels, and terminal state.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Stable grid identity.
    pub key: CellKey,
    /// Series-axis label.
    pub series: String,
    /// Point-axis label.
    pub point: String,
    /// What happened.
    pub result: CellResult,
}

/// Each cell's outcome in job order, a failed cell's paired with its
/// typed error.
type CellRuns = Vec<(CellOutcome, Option<SimError>)>;

/// Every cell of a resilient grid run, in job (point-major) order.
#[derive(Debug, Clone)]
pub struct GridOutcome {
    /// Per-cell outcomes, index `i` = cell
    /// `(i / series_len, i % series_len)`.
    pub cells: Vec<CellOutcome>,
    /// The shared source's record count and the wall time materializing
    /// it took (generation, import, re-chunk); `None` when no live cell
    /// needed it, as in a fully journaled resume.
    pub source: Option<(u64, Duration)>,
}

impl GridOutcome {
    /// Whether every cell completed (live or replayed).
    pub fn is_complete(&self) -> bool {
        self.cells
            .iter()
            .all(|cell| matches!(cell.result, CellResult::Completed { .. }))
    }

    /// Cells that exhausted their retries, in grid order.
    pub fn failed(&self) -> impl Iterator<Item = &CellOutcome> {
        self.cells
            .iter()
            .filter(|cell| matches!(cell.result, CellResult::Failed { .. }))
    }

    /// Completed cells with their run outcomes, in grid order.
    pub fn completed(&self) -> impl Iterator<Item = (&CellOutcome, &RunOutcome)> {
        self.cells.iter().filter_map(|cell| match &cell.result {
            CellResult::Completed { outcome, .. } => Some((cell, outcome.as_ref())),
            _ => None,
        })
    }
}

/// The scenario-level workload the cells of one grid run share.
enum Shared<'a> {
    /// The caller's resident trace ([`Scenario::execute_on`]): borrowed,
    /// not copied, so its cells run inline. Those callers cannot set a
    /// timeout; only [`Scenario::execute_resilient`] takes one.
    Provided(&'a Trace),
    /// The scenario's own source, materialized when a live cell needs
    /// it. Owned, so an attempt under `timeout` can take a clone onto a
    /// watchdog thread and be abandoned there.
    Own {
        source: Option<Arc<OwnedSource>>,
        timeout: Option<Duration>,
    },
}

/// What a cell sees of the shared workload: the source to replay, and
/// the resident trace a [`SourceSpec::Scaled`] override scales.
type SharedView<'a> = Option<(&'a dyn TraceSource, Option<&'a Trace>)>;

fn view(owned: Option<&OwnedSource>) -> SharedView<'_> {
    owned.map(|owned| (owned.source(), owned.resident()))
}

/// Why an attempt failed: the simulation's own typed error, or a
/// bulkhead event — a panic, a timeout — that has only a message.
enum AttemptError {
    Sim(SimError),
    Bulkhead(String),
}

impl Scenario {
    /// Executes the scenario's own source with the built-in registry.
    ///
    /// # Errors
    ///
    /// Fails for a [`SourceSpec::Provided`] scenario source when any job
    /// actually needs it (a scenario whose every point carries its own
    /// source runs fine), and returns the lowest-index failed cell's
    /// error — a panicking cell's as a [`SimError::Config`] naming the
    /// cell. The first failure stops the grid: cells before it complete
    /// normally, cells not yet started do not run.
    pub fn execute(&self) -> Result<Vec<ScenarioOutcome>, SimError> {
        self.execute_with(&StrategyRegistry::builtin())
    }

    /// [`Scenario::execute`] with an explicit strategy registry.
    ///
    /// # Errors
    ///
    /// As for [`Scenario::execute`].
    pub fn execute_with(
        &self,
        registry: &StrategyRegistry,
    ) -> Result<Vec<ScenarioOutcome>, SimError> {
        self.execute_plain(None, registry)
    }

    /// Executes against a caller-provided resident trace (ignoring the
    /// scenario's own [`SourceSpec`]) with the built-in registry.
    ///
    /// # Errors
    ///
    /// Propagates job failures, as [`Scenario::execute`] does.
    pub fn execute_on(&self, trace: &Trace) -> Result<Vec<ScenarioOutcome>, SimError> {
        self.execute_on_with(trace, &StrategyRegistry::builtin())
    }

    /// [`Scenario::execute_on`] with an explicit strategy registry.
    ///
    /// # Errors
    ///
    /// Propagates job failures, as [`Scenario::execute`] does.
    pub fn execute_on_with(
        &self,
        trace: &Trace,
        registry: &StrategyRegistry,
    ) -> Result<Vec<ScenarioOutcome>, SimError> {
        self.execute_plain(Some(trace), registry)
    }

    /// The cell loop with default options as a `Result`: every cell's
    /// outcome, or the lowest-index failed cell's error (a cell is only
    /// ever skipped after a failure, so skipped cells just drop out).
    fn execute_plain(
        &self,
        provided: Option<&Trace>,
        registry: &StrategyRegistry,
    ) -> Result<Vec<ScenarioOutcome>, SimError> {
        self.run_grid(provided, registry, &ResilienceOptions::default(), &|_| {})?
            .0
            .into_iter()
            .filter_map(|(cell, error)| match cell.result {
                CellResult::Completed { outcome, .. } => Some(Ok(ScenarioOutcome {
                    series: cell.series,
                    point: cell.point,
                    outcome: *outcome,
                })),
                CellResult::Failed { .. } => {
                    Some(Err(error.expect("a failed cell carries its typed error")))
                }
                CellResult::Skipped => None,
            })
            .collect()
    }

    /// Resolves the point-major cross product into concrete jobs — the
    /// single source of truth for cell identity and ordering: job `i` is
    /// cell `(i / series_len, i % series_len)`, so journaled cells always
    /// replay into the same grid slot.
    fn resolved_jobs(&self, registry: &StrategyRegistry) -> Result<Vec<Job>, SimError> {
        let implicit_series = [AxisPoint::new(self.base.strategy().label())];
        let implicit_point = [AxisPoint::new("default")];
        let series: &[AxisPoint] = if self.series.is_empty() {
            &implicit_series
        } else {
            &self.series
        };
        let points: &[AxisPoint] = if self.points.is_empty() {
            &implicit_point
        } else {
            &self.points
        };

        let mut jobs = Vec::with_capacity(series.len() * points.len());
        for (point_idx, point) in points.iter().enumerate() {
            for (series_idx, entry) in series.iter().enumerate() {
                let mut config = point.patch.apply(entry.patch.apply(self.base.clone()));
                let strategy_ref = point.strategy.as_ref().or(entry.strategy.as_ref());
                let factory = match strategy_ref {
                    None => config.strategy().factory(),
                    Some(StrategyRef::Spec(spec)) => {
                        config = config.with_strategy(*spec);
                        spec.factory()
                    }
                    Some(StrategyRef::Named(name)) => registry.resolve(name)?,
                };
                jobs.push(Job {
                    cell: CellKey {
                        point: point_idx as u32,
                        series: series_idx as u32,
                    },
                    series: entry.label.clone(),
                    point: point.label.clone(),
                    config,
                    factory,
                    source: point.source.clone().or_else(|| entry.source.clone()),
                    threads: self.threads,
                });
            }
        }
        Ok(jobs)
    }

    /// Executes the grid with per-cell fault isolation and (optionally)
    /// a checkpoint journal — see the [module docs](self) and the
    /// crate's "Crash safety & resume" section.
    ///
    /// `progress` is called once per cell as it reaches a terminal
    /// state, from whichever worker finished it (concurrently under a
    /// parallel sweep).
    ///
    /// # Errors
    ///
    /// Fails *before running anything* for an unusable journal (corrupt,
    /// mid-journal damage, or written by a different scenario), an
    /// unresolvable strategy name, or a [`SourceSpec::Provided`] scenario
    /// source that a live cell actually needs. Per-cell failures do not
    /// error: they come back as [`CellResult::Failed`] /
    /// [`CellResult::Skipped`] in the [`GridOutcome`].
    pub fn execute_resilient(
        &self,
        registry: &StrategyRegistry,
        options: &ResilienceOptions,
        progress: &(dyn Fn(&CellOutcome) + Sync),
    ) -> Result<GridOutcome, SimError> {
        let (cells, source) = self.run_grid(None, registry, options, progress)?;
        Ok(GridOutcome {
            cells: cells.into_iter().map(|(cell, _)| cell).collect(),
            source,
        })
    }

    /// The one cell loop behind every `execute*` entry point: each cell's
    /// outcome in job order, a failed cell's paired with its typed error,
    /// and what materializing the shared source cost, if it was.
    /// `provided` replaces the scenario's own source (and is only ever
    /// passed with default options).
    fn run_grid(
        &self,
        provided: Option<&Trace>,
        registry: &StrategyRegistry,
        options: &ResilienceOptions,
        progress: &(dyn Fn(&CellOutcome) + Sync),
    ) -> Result<(CellRuns, Option<(u64, Duration)>), SimError> {
        if options.resume && options.checkpoint.is_none() {
            return Err(config_err(
                "resume needs a checkpoint path (set ResilienceOptions::checkpoint)".into(),
            ));
        }
        let jobs = self.resolved_jobs(registry)?;

        // Built only for a journal: the fingerprint renders the whole spec.
        let header = || JournalHeader {
            scenario: self.name.clone(),
            fingerprint: self.fingerprint(),
            cells: jobs.len() as u32,
        };
        let mut replay: BTreeMap<CellKey, CellRecord> = BTreeMap::new();
        let journal = match &options.checkpoint {
            None => None,
            Some(path) if options.resume && path.exists() => {
                let header = header();
                let loaded = CheckpointJournal::load(path)?;
                if *loaded.header() != header {
                    return Err(config_err(format!(
                        "checkpoint {} was written by a different scenario \
                         (fingerprint {:08x}, this spec is {:08x}) — delete the \
                         journal or restore the original spec",
                        path.display(),
                        loaded.header().fingerprint,
                        header.fingerprint
                    )));
                }
                for record in loaded.cells() {
                    let job = jobs
                        .iter()
                        .find(|job| job.cell == record.key)
                        .ok_or_else(|| {
                            config_err(format!(
                                "checkpoint {}: cell ({}) is outside the {}-cell grid",
                                path.display(),
                                record.key,
                                jobs.len()
                            ))
                        })?;
                    if job.series != record.series || job.point != record.point {
                        return Err(config_err(format!(
                            "checkpoint {}: cell ({}) was {:?} x {:?} when journaled \
                             but is {:?} x {:?} in this spec",
                            path.display(),
                            record.key,
                            record.series,
                            record.point,
                            job.series,
                            job.point
                        )));
                    }
                    replay.insert(record.key, record.clone());
                }
                Some(loaded)
            }
            Some(path) => Some(CheckpointJournal::create(path, header())?),
        };

        let mut materialized = None;
        let shared = match provided {
            Some(trace) => Shared::Provided(trace),
            None => {
                // The shared workload is materialized only when a live
                // (non-replayed) cell needs it — either as its workload
                // outright, or as the resident base of a `scaled`
                // override — so a fully journaled resume rebuilds nothing
                // at all.
                let needs_shared = jobs.iter().any(|job| {
                    !replay.contains_key(&job.cell)
                        && (job.source.is_none()
                            || matches!(job.source, Some(SourceSpec::Scaled { .. })))
                });
                let source = if needs_shared {
                    if matches!(self.source, SourceSpec::Provided) {
                        return Err(config_err(
                            "a `provided` source has no workload of its own: \
                             run it through Scenario::execute_on, or give every \
                             axis point its own source"
                                .into(),
                        ));
                    }
                    let started = Instant::now();
                    let source = self.source.materialize(None)?;
                    materialized = Some((source.source().record_count(), started.elapsed()));
                    Some(Arc::new(source))
                } else {
                    None
                };
                Shared::Own {
                    source,
                    timeout: options.timeout,
                }
            }
        };

        // Every cell — serial or sharded engine — is an independent job
        // on the shared pool. A sharded cell's own workers draw from the
        // same process-wide ledger as the sweep (see [`crate::runner`]),
        // so small cells pack around a big sharded job instead of the
        // sweep serializing behind it.
        let width = self
            .sweep_width
            .unwrap_or_else(default_threads)
            .clamp(1, jobs.len().max(1));
        let concurrent_shared = width > 1;
        let journal = journal.map(Mutex::new);
        let stop = AtomicBool::new(false);

        let run_cell = |i: usize| {
            let job = &jobs[i];
            let (result, error) = run_one_cell(
                job,
                &replay,
                &shared,
                options,
                &journal,
                &stop,
                concurrent_shared,
            );
            let outcome = CellOutcome {
                key: job.cell,
                series: job.series.clone(),
                point: job.point.clone(),
                result,
            };
            progress(&outcome);
            (outcome, error)
        };
        Ok((run_indexed(jobs.len(), width, run_cell), materialized))
    }
}

/// Builds the [`RunOutcome`] of a journaled cell: the exact report, with
/// zeroed telemetry (nothing ran on resume).
fn replay_outcome(record: &CellRecord) -> Box<RunOutcome> {
    Box::new(RunOutcome {
        report: record.report.clone(),
        telemetry: RunTelemetry {
            wall: Duration::ZERO,
            decode: Default::default(),
            peak_rss_kb: None,
            threads: record.threads as usize,
            strategy: record.strategy.clone(),
            fastpath: false,
        },
    })
}

/// Drives one cell to a terminal state (replay, attempts loop, journal
/// append) — the bulkhead around one grid job. A failed cell also hands
/// back its typed error, for the entry points that return a `Result`.
fn run_one_cell(
    job: &Job,
    replay: &BTreeMap<CellKey, CellRecord>,
    shared: &Shared<'_>,
    options: &ResilienceOptions,
    journal: &Option<Mutex<CheckpointJournal>>,
    stop: &AtomicBool,
    concurrent_shared: bool,
) -> (CellResult, Option<SimError>) {
    // Replay wins over the stop flag: journaled cells stay completed
    // even in a run that fails elsewhere, keeping resume monotone.
    if let Some(record) = replay.get(&job.cell) {
        let replayed = CellResult::Completed {
            outcome: replay_outcome(record),
            replayed: true,
            attempts: 0,
        };
        return (replayed, None);
    }
    if stop.load(Ordering::SeqCst) {
        return (CellResult::Skipped, None);
    }
    let mut attempts = 0u32;
    let failure = loop {
        attempts += 1;
        match run_attempt(job, shared) {
            Ok(mut outcome) => {
                // Decode counters live on the source; concurrent jobs over
                // the one shared source would each see the others' decode
                // work in their before/after delta, so per-job attribution
                // only exists when a job owns its source or ran alone —
                // report zero (not a wrong number) otherwise.
                if concurrent_shared && job.source.is_none() {
                    outcome.telemetry.decode = Default::default();
                }
                if let Some(journal) = journal {
                    let record = CellRecord {
                        key: job.cell,
                        series: job.series.clone(),
                        point: job.point.clone(),
                        strategy: outcome.telemetry.strategy.clone(),
                        threads: outcome.telemetry.threads as u64,
                        report: outcome.report.clone(),
                    };
                    let mut guard = journal.lock().unwrap_or_else(PoisonError::into_inner);
                    if let Err(e) = guard.append(record) {
                        // A result that cannot reach the journal fails
                        // the cell: dropping checkpoint durability
                        // silently would void the crash-safety contract.
                        break AttemptError::Sim(e);
                    }
                }
                let completed = CellResult::Completed {
                    outcome: Box::new(outcome),
                    replayed: false,
                    attempts,
                };
                return (completed, None);
            }
            Err(error) => {
                if attempts > u32::from(options.retry.max_retries()) {
                    break error;
                }
                std::thread::sleep(options.retry.backoff(attempts - 1));
            }
        }
    };
    if !options.keep_going {
        stop.store(true, Ordering::SeqCst);
    }
    let (error, typed) = match failure {
        AttemptError::Sim(e) => (e.to_string(), e),
        AttemptError::Bulkhead(text) => {
            let named = format!("cell {:?} x {:?}: {text}", job.series, job.point);
            (text, config_err(named))
        }
    };
    (CellResult::Failed { error, attempts }, Some(typed))
}

/// One attempt: inline under `catch_unwind` without a timeout, on an
/// abandonable watchdog thread with one.
fn run_attempt(job: &Job, shared: &Shared<'_>) -> Result<RunOutcome, AttemptError> {
    let (source, limit) = match shared {
        Shared::Provided(trace) => {
            return catch_run(job, Some((*trace as &dyn TraceSource, Some(*trace))))
        }
        Shared::Own {
            source,
            timeout: None,
        } => return catch_run(job, view(source.as_deref())),
        Shared::Own {
            source,
            timeout: Some(limit),
        } => (source.clone(), *limit),
    };
    // Everything the watchdog thread touches is an owned clone —
    // `'static`, so a timed-out attempt can be abandoned on it without
    // dangling borrows.
    let job = job.clone();
    let (tx, rx) = mpsc::channel();
    let name = format!("cell-{}x{}", job.cell.point, job.cell.series);
    let handle = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let _ = tx.send(catch_run(&job, view(source.as_deref())));
        })
        .map_err(|e| AttemptError::Bulkhead(format!("cannot spawn cell worker: {e}")))?;
    match rx.recv_timeout(limit) {
        Ok(result) => {
            let _ = handle.join();
            result
        }
        // The straggler keeps its owned clones alive; we just stop
        // waiting for it.
        Err(mpsc::RecvTimeoutError::Timeout) => Err(AttemptError::Bulkhead(format!(
            "cell timed out after {:.1}s (straggler abandoned)",
            limit.as_secs_f64()
        ))),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(AttemptError::Bulkhead(
            "cell worker exited without a result".into(),
        )),
    }
}

/// Runs the attempt body, catching panics — the bulkhead wall itself.
fn catch_run(job: &Job, shared: SharedView<'_>) -> Result<RunOutcome, AttemptError> {
    match catch_unwind(AssertUnwindSafe(|| simulate_cell(job, shared))) {
        Ok(result) => result.map_err(AttemptError::Sim),
        // `&*payload` derefs the box before unsizing: coercing
        // `&Box<dyn Any>` directly would downcast against the Box, not
        // the payload inside it.
        Err(payload) => Err(AttemptError::Bulkhead(panic_message(&*payload))),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        format!("job panicked: {text}")
    } else if let Some(text) = payload.downcast_ref::<String>() {
        format!("job panicked: {text}")
    } else {
        "job panicked".into()
    }
}

/// The attempt body: builds and runs one cell's [`Simulation`].
fn simulate_cell(job: &Job, shared: SharedView<'_>) -> Result<RunOutcome, SimError> {
    let sim = |source: &dyn TraceSource| {
        Simulation::over(source)
            .config(job.config.clone())
            .strategy_factory(job.factory.clone())
            .thread_policy(job.threads)
            .run()
    };
    match &job.source {
        None => sim(shared
            .expect("run_grid materializes the workload of every live cell without its own")
            .0),
        // Materialized inside the attempt, dropped with it: a sweep
        // holds at most one override source per worker, and none
        // outlives its cell.
        Some(spec) => sim(spec
            .materialize(shared.and_then(|(_, base)| base))?
            .source()),
    }
}
