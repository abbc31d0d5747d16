//! Crash-safe executor acceptance: [`Scenario::execute_resilient`] must
//! match the plain executor report-for-report, journal every completed
//! cell, replay journaled cells without re-running their jobs, isolate a
//! panicking cell to itself, time out stragglers, retry flaky cells, and
//! refuse a checkpoint written by a different scenario.

mod helpers;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cablevod_cache::{
    CacheError, CacheStrategy, StrategyContext, StrategyFactory, StrategyRegistry, StrategySpec,
};
use cablevod_hfc::units::DataSize;
use cablevod_sim::{
    AxisPoint, CellOutcome, CellResult, CheckpointJournal, ConfigPatch, JobRetry,
    ResilienceOptions, Scenario, SimConfig, SimReport, SourceSpec,
};
use helpers::tiny_config;

static SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_journal(tag: &str) -> PathBuf {
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ckpt_{tag}_{}_{n}.cvj", std::process::id()))
}

/// A journal dropped from disk when the guard goes out of scope.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

fn base_config() -> SimConfig {
    SimConfig::paper_default()
        .with_neighborhood_size(60)
        .with_per_peer_storage(DataSize::from_gigabytes(1))
        .with_warmup_days(1)
}

/// A 2×2 grid over a small synthetic workload.
fn grid_scenario(name: &str) -> Scenario {
    Scenario::new(
        name,
        SourceSpec::Synth(tiny_config(120, 20, 3, 7)),
        base_config(),
    )
    .with_series(vec![
        AxisPoint::new("LRU").with_strategy(StrategySpec::Lru),
        AxisPoint::new("LFU").with_strategy(StrategySpec::default_lfu()),
    ])
    .with_points(vec![
        AxisPoint::new("1GB")
            .with_patch(ConfigPatch::default().with_per_peer_storage(DataSize::from_gigabytes(1))),
        AxisPoint::new("2GB")
            .with_patch(ConfigPatch::default().with_per_peer_storage(DataSize::from_gigabytes(2))),
    ])
}

fn ignore_progress(_: &CellOutcome) {}

/// Completed reports of a grid, in cell order; panics on non-completed
/// cells.
fn reports(grid: &cablevod_sim::GridOutcome) -> Vec<SimReport> {
    grid.cells
        .iter()
        .map(|cell| match &cell.result {
            CellResult::Completed { outcome, .. } => outcome.report.clone(),
            other => panic!("cell {} not completed: {other:?}", cell.key),
        })
        .collect()
}

/// A factory that counts its builds and delegates to a built-in
/// strategy — observes whether a cell's job actually ran.
#[derive(Debug)]
struct CountingFactory {
    builds: Arc<AtomicU64>,
    inner: Arc<dyn StrategyFactory>,
}

impl StrategyFactory for CountingFactory {
    fn name(&self) -> &str {
        "Counting"
    }
    fn build(&self, ctx: StrategyContext) -> Result<Box<dyn CacheStrategy>, CacheError> {
        self.builds.fetch_add(1, Ordering::SeqCst);
        self.inner.build(ctx)
    }
}

/// A factory that panics on build — a poisoned cell.
#[derive(Debug)]
struct BoomFactory;

impl StrategyFactory for BoomFactory {
    fn name(&self) -> &str {
        "Boom"
    }
    fn build(&self, _: StrategyContext) -> Result<Box<dyn CacheStrategy>, CacheError> {
        panic!("boom: poisoned cell");
    }
}

/// A factory that fails its first `fail_first` builds, then delegates.
#[derive(Debug)]
struct FlakyFactory {
    fail_first: u64,
    calls: AtomicU64,
    inner: Arc<dyn StrategyFactory>,
}

impl StrategyFactory for FlakyFactory {
    fn name(&self) -> &str {
        "Flaky"
    }
    fn build(&self, ctx: StrategyContext) -> Result<Box<dyn CacheStrategy>, CacheError> {
        if self.calls.fetch_add(1, Ordering::SeqCst) < self.fail_first {
            return Err(CacheError::InconsistentState {
                reason: "flaky: transient build failure".into(),
            });
        }
        self.inner.build(ctx)
    }
}

/// A factory that sleeps past any reasonable timeout before building.
#[derive(Debug)]
struct SleepyFactory;

impl StrategyFactory for SleepyFactory {
    fn name(&self) -> &str {
        "Sleepy"
    }
    fn build(&self, ctx: StrategyContext) -> Result<Box<dyn CacheStrategy>, CacheError> {
        std::thread::sleep(Duration::from_secs(2));
        StrategySpec::Lru.factory().build(ctx)
    }
}

/// The resilient executor over a healthy grid matches the plain executor
/// report-for-report, journals every cell, and the journal loads back.
#[test]
fn resilient_matches_plain_execute_and_journals_every_cell() {
    let scenario = grid_scenario("healthy");
    let plain = scenario.execute().expect("plain run");

    let path = temp_journal("healthy");
    let _guard = TempFile(path.clone());
    let options = ResilienceOptions {
        checkpoint: Some(path.clone()),
        ..ResilienceOptions::default()
    };
    let grid = scenario
        .execute_resilient(&StrategyRegistry::builtin(), &options, &ignore_progress)
        .expect("resilient run");
    assert!(grid.is_complete());
    assert_eq!(grid.cells.len(), plain.len());
    for (cell, plain) in grid.cells.iter().zip(&plain) {
        assert_eq!(cell.series, plain.series);
        assert_eq!(cell.point, plain.point);
    }
    assert_eq!(
        reports(&grid),
        plain.iter().map(|o| o.report().clone()).collect::<Vec<_>>()
    );

    let journal = CheckpointJournal::load(&path).expect("journal loads");
    assert_eq!(journal.header().scenario, "healthy");
    assert_eq!(journal.header().fingerprint, scenario.fingerprint());
    assert_eq!(journal.cells().len(), 4);
}

/// Resume replays journaled cells without running their jobs: after a
/// full checkpointed run, a resume rebuilds nothing and every cell
/// reports `replayed`, with reports identical to the live run.
#[test]
fn resume_replays_without_rerunning_jobs() {
    let builds = Arc::new(AtomicU64::new(0));
    let mut registry = StrategyRegistry::builtin();
    registry.register(
        "counting",
        Arc::new(CountingFactory {
            builds: builds.clone(),
            inner: StrategySpec::default_lfu().factory(),
        }),
    );
    let scenario = Scenario::new(
        "counted",
        SourceSpec::Synth(tiny_config(120, 20, 3, 7)),
        base_config(),
    )
    .with_series(vec![
        AxisPoint::new("Counting").with_strategy_named("counting")
    ])
    .with_points(vec![
        AxisPoint::new("1GB")
            .with_patch(ConfigPatch::default().with_per_peer_storage(DataSize::from_gigabytes(1))),
        AxisPoint::new("2GB")
            .with_patch(ConfigPatch::default().with_per_peer_storage(DataSize::from_gigabytes(2))),
    ]);

    let path = temp_journal("replay");
    let _guard = TempFile(path.clone());
    let options = ResilienceOptions {
        checkpoint: Some(path.clone()),
        ..ResilienceOptions::default()
    };
    let live = scenario
        .execute_resilient(&registry, &options, &ignore_progress)
        .expect("live run");
    assert!(live.is_complete());
    let live_builds = builds.load(Ordering::SeqCst);
    assert!(live_builds >= 2, "each live cell builds its strategy");
    let (records, _) = live.source.expect("a live run materializes its source");
    assert!(records > 0);

    let resumed = scenario
        .execute_resilient(
            &registry,
            &ResilienceOptions {
                resume: true,
                ..options
            },
            &ignore_progress,
        )
        .expect("resumed run");
    assert!(resumed.is_complete());
    for cell in &resumed.cells {
        match &cell.result {
            CellResult::Completed { replayed, .. } => assert!(replayed, "cell {}", cell.key),
            other => panic!("cell {} not completed: {other:?}", cell.key),
        }
    }
    assert_eq!(
        builds.load(Ordering::SeqCst),
        live_builds,
        "a fully journaled resume must not build anything"
    );
    assert_eq!(resumed.source, None, "nor materialize its source");
    assert_eq!(reports(&resumed), reports(&live));
}

/// A panicking cell poisons only itself: with `keep_going` the healthy
/// cells complete, the poisoned ones carry the panic text, and the grid
/// reports incomplete.
#[test]
fn panicking_cell_poisons_only_its_cell() {
    let mut registry = StrategyRegistry::builtin();
    registry.register("boom", Arc::new(BoomFactory));
    let scenario = Scenario::new(
        "poisoned",
        SourceSpec::Synth(tiny_config(120, 20, 3, 7)),
        base_config(),
    )
    .with_series(vec![
        AxisPoint::new("LFU").with_strategy(StrategySpec::default_lfu()),
        AxisPoint::new("Boom").with_strategy_named("boom"),
    ])
    .with_points(vec![
        AxisPoint::new("1GB")
            .with_patch(ConfigPatch::default().with_per_peer_storage(DataSize::from_gigabytes(1))),
        AxisPoint::new("2GB")
            .with_patch(ConfigPatch::default().with_per_peer_storage(DataSize::from_gigabytes(2))),
    ]);

    let options = ResilienceOptions {
        keep_going: true,
        ..ResilienceOptions::default()
    };
    let grid = scenario
        .execute_resilient(&registry, &options, &ignore_progress)
        .expect("grid runs despite poison");
    assert!(!grid.is_complete());
    assert_eq!(grid.cells.len(), 4);
    for cell in &grid.cells {
        match (&cell.series[..], &cell.result) {
            ("LFU", CellResult::Completed { outcome, .. }) => {
                assert!(outcome.report.sessions > 0)
            }
            ("Boom", CellResult::Failed { error, attempts }) => {
                assert!(error.contains("boom"), "panic text survives: {error}");
                assert_eq!(*attempts, 1);
            }
            other => panic!("unexpected cell state: {other:?}"),
        }
    }
    assert_eq!(grid.failed().count(), 2);

    // The plain entry points are the same loop behind the same bulkhead:
    // the panic comes back as an `Err` naming the lowest-index failed
    // cell, not as an unwind through the pool.
    let err = scenario
        .execute_with(&registry)
        .expect_err("a panicking cell is an error");
    let text = err.to_string();
    assert!(text.contains("boom"), "panic text survives: {text}");
    assert!(text.contains("\"Boom\" x \"1GB\""), "no cell in: {text}");
}

/// Without `keep_going` the first exhausted cell stops the grid: later
/// cells are skipped, not run.
#[test]
fn first_failure_stops_scheduling_without_keep_going() {
    let mut registry = StrategyRegistry::builtin();
    registry.register("boom", Arc::new(BoomFactory));
    let scenario = Scenario::new(
        "halts",
        SourceSpec::Synth(tiny_config(120, 20, 3, 7)),
        base_config(),
    )
    .with_sweep_width(1)
    .with_series(vec![
        AxisPoint::new("Boom").with_strategy_named("boom"),
        AxisPoint::new("LFU").with_strategy(StrategySpec::default_lfu()),
    ]);

    let grid = scenario
        .execute_resilient(&registry, &ResilienceOptions::default(), &ignore_progress)
        .expect("grid runs");
    assert!(matches!(grid.cells[0].result, CellResult::Failed { .. }));
    assert!(
        matches!(grid.cells[1].result, CellResult::Skipped),
        "cells after a failure are skipped, got {:?}",
        grid.cells[1].result
    );
}

/// Journaled cells survive a partial failure, and a resume under a fixed
/// registry completes exactly the missing cells — converging on the same
/// reports as an uninterrupted healthy run.
#[test]
fn failed_cells_recover_on_resume_after_fix() {
    let scenario = Scenario::new(
        "recovers",
        SourceSpec::Synth(tiny_config(120, 20, 3, 7)),
        base_config(),
    )
    .with_series(vec![
        AxisPoint::new("LRU").with_strategy(StrategySpec::Lru),
        AxisPoint::new("Patched").with_strategy_named("patched"),
    ])
    .with_points(vec![
        AxisPoint::new("1GB")
            .with_patch(ConfigPatch::default().with_per_peer_storage(DataSize::from_gigabytes(1))),
        AxisPoint::new("2GB")
            .with_patch(ConfigPatch::default().with_per_peer_storage(DataSize::from_gigabytes(2))),
    ]);

    let path = temp_journal("recover");
    let _guard = TempFile(path.clone());
    let options = ResilienceOptions {
        checkpoint: Some(path.clone()),
        keep_going: true,
        ..ResilienceOptions::default()
    };

    // First run: "patched" panics, so only the LRU cells journal.
    let mut broken = StrategyRegistry::builtin();
    broken.register("patched", Arc::new(BoomFactory));
    let crashed = scenario
        .execute_resilient(&broken, &options, &ignore_progress)
        .expect("crashing run");
    assert_eq!(crashed.failed().count(), 2);
    assert_eq!(
        CheckpointJournal::load(&path).expect("loads").cells().len(),
        2
    );

    // Second run under a fixed registry: LRU cells replay, the formerly
    // poisoned cells run live; the grid completes.
    let mut fixed = StrategyRegistry::builtin();
    fixed.register("patched", StrategySpec::default_lfu().factory());
    let resumed = scenario
        .execute_resilient(
            &fixed,
            &ResilienceOptions {
                resume: true,
                ..options
            },
            &ignore_progress,
        )
        .expect("recovery run");
    assert!(resumed.is_complete());

    // Byte-for-byte the same reports as a run that never crashed.
    let fresh = scenario
        .execute_resilient(&fixed, &ResilienceOptions::default(), &ignore_progress)
        .expect("uninterrupted run");
    assert_eq!(reports(&resumed), reports(&fresh));
}

/// A flaky cell succeeds on its retry under a [`JobRetry`] policy.
#[test]
fn flaky_cell_succeeds_on_retry() {
    let mut registry = StrategyRegistry::builtin();
    registry.register(
        "flaky",
        Arc::new(FlakyFactory {
            fail_first: 1,
            calls: AtomicU64::new(0),
            inner: StrategySpec::Lru.factory(),
        }),
    );
    let scenario = Scenario::new(
        "flaky",
        SourceSpec::Synth(tiny_config(120, 20, 3, 7)),
        base_config(),
    )
    .with_series(vec![AxisPoint::new("Flaky").with_strategy_named("flaky")]);

    let options = ResilienceOptions {
        retry: JobRetry::new(1, Duration::from_millis(1)),
        ..ResilienceOptions::default()
    };
    let grid = scenario
        .execute_resilient(&registry, &options, &ignore_progress)
        .expect("grid runs");
    match &grid.cells[0].result {
        CellResult::Completed {
            attempts, replayed, ..
        } => {
            assert_eq!(*attempts, 2, "first attempt fails, second succeeds");
            assert!(!replayed);
        }
        other => panic!("expected completion after retry, got {other:?}"),
    }
}

/// A per-attempt timeout marks a straggling cell failed instead of
/// hanging the grid.
#[test]
fn timeout_marks_straggler_failed() {
    let mut registry = StrategyRegistry::builtin();
    registry.register("sleepy", Arc::new(SleepyFactory));
    let scenario = Scenario::new(
        "straggler",
        SourceSpec::Synth(tiny_config(120, 20, 3, 7)),
        base_config(),
    )
    .with_series(vec![AxisPoint::new("Sleepy").with_strategy_named("sleepy")]);

    let options = ResilienceOptions {
        timeout: Some(Duration::from_millis(100)),
        ..ResilienceOptions::default()
    };
    let grid = scenario
        .execute_resilient(&registry, &options, &ignore_progress)
        .expect("grid runs");
    match &grid.cells[0].result {
        CellResult::Failed { error, .. } => {
            assert!(error.contains("timed out"), "got {error:?}")
        }
        other => panic!("expected timeout failure, got {other:?}"),
    }
}

/// A checkpoint written by a different scenario is refused on resume.
#[test]
fn foreign_checkpoint_is_refused() {
    let path = temp_journal("foreign");
    let _guard = TempFile(path.clone());
    let options = ResilienceOptions {
        checkpoint: Some(path.clone()),
        ..ResilienceOptions::default()
    };
    let registry = StrategyRegistry::builtin();
    grid_scenario("first")
        .execute_resilient(&registry, &options, &ignore_progress)
        .expect("first run");

    let err = grid_scenario("second")
        .execute_resilient(
            &registry,
            &ResilienceOptions {
                resume: true,
                ..options
            },
            &ignore_progress,
        )
        .expect_err("foreign journal must be refused");
    assert!(err.to_string().contains("different scenario"), "got {err}");
}

/// Resume without a checkpoint path is a configuration error.
#[test]
fn resume_without_checkpoint_errors() {
    let err = grid_scenario("lost")
        .execute_resilient(
            &StrategyRegistry::builtin(),
            &ResilienceOptions {
                resume: true,
                ..ResilienceOptions::default()
            },
            &ignore_progress,
        )
        .expect_err("resume without checkpoint");
    assert!(err.to_string().contains("checkpoint"), "got {err}");
}

/// The progress callback fires exactly once per cell, with the terminal
/// state.
#[test]
fn progress_fires_once_per_cell() {
    let seen: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let progress = |cell: &CellOutcome| {
        seen.lock()
            .unwrap()
            .push(format!("{} x {}", cell.series, cell.point));
    };
    let grid = grid_scenario("progress")
        .execute_resilient(
            &StrategyRegistry::builtin(),
            &ResilienceOptions::default(),
            &progress,
        )
        .expect("grid runs");
    let mut seen = seen.into_inner().unwrap();
    seen.sort();
    let mut expected: Vec<String> = grid
        .cells
        .iter()
        .map(|c| format!("{} x {}", c.series, c.point))
        .collect();
    expected.sort();
    assert_eq!(seen, expected);
}

/// The committed specs keep their fingerprints: the config-key table
/// renders them byte-for-byte as before, so older journals still resume.
#[test]
fn committed_spec_fingerprints_are_pinned() {
    for (spec, fingerprint) in [
        ("smoke", 0x8584_a3af_u32),
        ("degraded_plant", 0x3984_000f),
        ("flash_crowd_outage", 0xeb15_850d),
        ("strategy_zoo", 0x1eef_ef2a),
        ("sweep_fastpath", 0x529f_a4f2),
    ] {
        let scenario = Scenario::load(format!("scenarios/{spec}.scn")).expect("spec loads");
        assert_eq!(scenario.fingerprint(), fingerprint, "{spec}.scn");
    }
}
