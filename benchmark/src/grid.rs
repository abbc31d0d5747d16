//! The `grid_zoo` workload: one timed iteration is one pass of
//! `Scenario::execute_resilient` over `grid_zoo.scn` with a checkpoint
//! journal — the way a researcher spends host time.

use std::time::Instant;

use cablevod_cache::StrategyRegistry;
use cablevod_sim::{
    CellKey, CellRecord, CheckpointJournal, JournalHeader, ResilienceOptions, Scenario, SimReport,
    SourceSpec,
};

use crate::calib::{normalise, Calibrator};
use crate::harness::{
    offline_end_to_end, timed_loop, traced_rows, verdict, IterOut, Outcome, TempDir,
};
use crate::layers;
use crate::metrics::{Ledger, GRID_SERIES};
use crate::offline::{calib_rows, report_counts, report_crc, report_json_us};
use crate::span::Tracer;
use crate::stats;
use crate::{check_cores, RunArgs, SETUP_REPS};

const SPEC: &str = include_str!("../grid_zoo.scn");
/// Discarded passes before timing.
const WARMUPS: u32 = 1;

/// The committed spec with the run's seed.
pub fn scenario(seed: u64) -> Result<Scenario, String> {
    let mut scenario = Scenario::from_spec_str(SPEC).map_err(|e| format!("grid_zoo.scn: {e}"))?;
    match &mut scenario.source {
        SourceSpec::Synth(synth) => synth.seed = seed,
        other => {
            return Err(format!(
                "grid_zoo.scn: expected a synth source, found {other:?}"
            ))
        }
    }
    Ok(scenario)
}

/// Cell labels in job (point-major) order, `<point>/<series>`.
pub fn cell_labels(scenario: &Scenario) -> Vec<String> {
    scenario
        .points
        .iter()
        .flat_map(|p| {
            scenario
                .series
                .iter()
                .map(move |s| format!("{}/{}", p.label, s.label))
        })
        .collect()
}

/// One cell of one pass.
struct Cell {
    series: usize,
    report: SimReport,
    wall_s: f64,
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let registry = StrategyRegistry::with_plugins();
    let tracer = Tracer::new(args.trace);
    let tmp = TempDir::create()?;
    let mut calib = Calibrator::new();

    // Set-up: load the spec and materialise its source once, as every
    // pass will again (the resident copy sizes the denominators and
    // feeds the layer probes).
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let (made, _, norm_s) = calib.timed(|| -> Result<_, String> {
            let scenario = scenario(args.seed)?;
            let generating = Instant::now();
            let owned = {
                let _span = tracer.span("trace.generate", None, rep);
                scenario.source.materialize(None)
            }
            .map_err(|e| format!("materialise source: {e}"))?;
            Ok((scenario, owned, generating.elapsed().as_secs_f64()))
        });
        let (scenario, owned, generating_s) = made?;
        generate_s.push(generating_s);
        setup_s.push(norm_s);
        last = Some((scenario, owned));
    }
    let (scenario, owned) = last.expect("SETUP_REPS is at least one");
    let width = scenario.sweep_width.unwrap_or(1);
    check_cores(width)?;
    let labels = cell_labels(&scenario);
    let series_len = scenario.series.len();

    let journal = tmp.join("grid.cvj");
    let options = ResilienceOptions {
        checkpoint: Some(journal),
        ..ResilienceOptions::default()
    };
    let mut passes: Vec<(u64, Vec<Cell>)> = Vec::new();
    let mut pass = |tracer: &Tracer, group: u64| -> Result<IterOut, String> {
        let span = tracer.span("sim.grid.pass", None, group);
        let parent = span.id();
        let grid = scenario
            .execute_resilient(&registry, &options, &|cell| {
                if let cablevod_sim::CellResult::Completed { outcome, .. } = &cell.result {
                    let ns = u64::try_from(outcome.telemetry.wall.as_nanos()).unwrap_or(u64::MAX);
                    tracer.span_ended_now("sim.grid.cell", parent, group, ns);
                }
            })
            .map_err(|e| format!("grid pass: {e}"))?;
        drop(span);
        if let Some(cell) = grid.failed().next() {
            return Err(format!("cell {}/{} failed", cell.point, cell.series));
        }
        let cells: Vec<Cell> = grid
            .completed()
            .map(|(cell, outcome)| Cell {
                series: cell.key.series as usize,
                report: outcome.report.clone(),
                wall_s: outcome.telemetry.wall.as_secs_f64(),
            })
            .collect();
        if cells.len() != labels.len() {
            return Err(format!(
                "{} of {} cells completed",
                cells.len(),
                labels.len()
            ));
        }
        let out = IterOut {
            sessions: cells.iter().map(|c| c.report.sessions).sum(),
            crcs: cells.iter().map(|c| report_crc(&c.report)).collect(),
        };
        passes.push((group, cells));
        Ok(out)
    };

    // The reference: the plain executor over the same spec.
    let reference = |scenario: &Scenario| -> Result<Vec<u32>, String> {
        scenario
            .execute_with(&registry)
            .map(|cells| cells.iter().map(|c| report_crc(c.report())).collect())
            .map_err(|e| format!("reference grid: {e}"))
    };
    if !args.trace {
        let timed = timed_loop(&mut calib, args.seconds, WARMUPS, |g| pass(&tracer, g));
        let metrics = offline_end_to_end("grid_zoo", &setup_s, &timed, &calib)?;
        let expected = reference(&scenario)?;
        return Ok(verdict(
            "grid_zoo", args.seed, &labels, &timed, &expected, metrics,
        ));
    }

    // Spans on in every other pass (see `offline::run`).
    let quiet = Tracer::new(false);
    let both = timed_loop(&mut calib, args.seconds / 2.0, WARMUPS, |g| {
        pass(if g % 2 == 0 { &quiet } else { &tracer }, g)
    });
    let (untraced, traced) = both.split_by_parity(WARMUPS);
    let expected = {
        let _span = tracer.span("sim.grid.reference", None, 0);
        reference(&scenario)?
    };

    let mut m = Ledger::per_layer();
    traced_rows(&mut m, &untraced, &traced);

    // Per-series cell time and the executor's own share, per traced
    // pass at that pass's host speed.
    let traced_passes: Vec<&[Cell]> = passes
        .iter()
        .filter(|(group, _)| *group >= u64::from(WARMUPS) && group % 2 == 1)
        .map(|(_, cells)| cells.as_slice())
        .collect();
    let mut series_ms: Vec<Vec<f64>> = vec![Vec::new(); series_len];
    let mut overhead_pct = Vec::new();
    for (cells, (&raw_s, &calib_ms)) in traced_passes
        .iter()
        .zip(traced.raw_s.iter().zip(&traced.calib_ms))
    {
        let mut per_series = vec![0.0; series_len];
        for cell in *cells {
            per_series[cell.series] += cell.wall_s;
        }
        for (samples, wall_s) in series_ms.iter_mut().zip(per_series) {
            samples.push(normalise(wall_s, calib_ms) * 1e3);
        }
        let busy_s: f64 = cells.iter().map(|c| c.wall_s).sum::<f64>() / width as f64;
        overhead_pct.push((raw_s - busy_s) / raw_s * 100.0);
    }
    let points = scenario.points.len().max(1) as f64;
    let cells = *traced_passes.last().ok_or("no traced pass completed")?;
    let per_cell_sessions = cells[0].report.sessions.max(1) as f64;
    for (name, samples) in GRID_SERIES.iter().zip(&series_ms) {
        m.set(
            &format!("sim.cell_ms.{name}"),
            stats::median(samples) / points,
        );
    }
    m.set("sim.grid_overhead_pct", stats::median(&overhead_pct));
    let series_ns = |label: &str| {
        let i = scenario.series.iter().position(|s| s.label == label);
        i.map_or(0.0, |i| {
            stats::median(&series_ms[i]) * 1e6 / points / per_cell_sessions
        })
    };
    m.set("sim.lifecycle_ns_per_session", series_ns("no-cache"));
    m.set(
        "cache.strategy_ns_per_session",
        series_ns("lfu") - series_ns("no-cache"),
    );

    // Counts over every cell; the simulated plant figures from the
    // default cell (`lfu` at the last point) against its `no-cache`.
    let find = |series: &str| {
        let s = scenario.series.iter().position(|a| a.label == series)?;
        cells[(scenario.points.len() - 1) * series_len..]
            .iter()
            .find(|c| c.series == s)
    };
    let (lfu, bare) = find("lfu")
        .zip(find("no-cache"))
        .ok_or("grid_zoo.scn has no lfu or no-cache series")?;
    report_counts(&mut m, &lfu.report, &bare.report);
    let mut total = cablevod_cache::IndexStats::default();
    for cell in cells {
        total += cell.report.cache;
    }
    let sum =
        |pick: fn(&SimReport) -> u64| cells.iter().map(|c| pick(&c.report)).sum::<u64>() as f64;
    m.set("sim.sessions", sum(|r| r.sessions));
    m.set("sim.segment_requests", sum(|r| r.segment_requests));
    m.set("sim.viewer_overcommits", sum(|r| r.viewer_overcommits));
    m.set("sim.cells_completed", cells.len() as f64);
    m.set("cache.hits", total.hits as f64);
    m.set("cache.misses", total.misses() as f64);
    m.set("cache.admissions", total.admissions as f64);
    m.set("cache.evictions", total.evictions as f64);
    m.set("cache.capture_fills", total.capture_fills as f64);
    m.set("cache.delayed_hits", total.delayed_hits as f64);
    m.set("cache.inflight_misses", total.inflight_misses as f64);
    m.set(
        "cache.evictions_per_admission",
        total.evictions as f64 / total.admissions.max(1) as f64,
    );

    // Direct-call probes with the grid's own source.
    let resident = owned.resident().ok_or("a synth source is resident")?;
    m.set(
        "trace.synth_ns_per_session",
        stats::median(&generate_s) * 1e9 / resident.len().max(1) as f64,
    );
    let config = &scenario.base;
    m.set(
        "cache.lfu_on_access_ns",
        layers::lfu_on_access_ns(resident, config, &mut calib, &tracer)?,
    );
    m.set(
        "hfc.meter_record_ns",
        layers::meter_record_ns(resident, config, &mut calib, &tracer),
    );
    m.set(
        "hfc.topology_build_ms",
        layers::topology_build_ms(resident.user_count(), config, &mut calib, &tracer)?,
    );
    m.set(
        "sim.report_json_us",
        report_json_us(&lfu.report, &mut calib, &tracer)?,
    );
    m.set(
        "sim.journal_append_us_per_cell",
        journal_append_us(&scenario, cells, &labels, &tmp, &mut calib, &tracer)?,
    );
    calib_rows(&mut m, &calib);

    crate::write_span_file("grid_zoo", &tracer)?;
    Ok(verdict(
        "grid_zoo", args.seed, &labels, &traced, &expected, m,
    ))
}

/// `sim.journal_append_us_per_cell`: a fresh journal and one append per
/// cell of the grid, as a pass pays them.
fn journal_append_us(
    scenario: &Scenario,
    cells: &[Cell],
    labels: &[String],
    tmp: &TempDir,
    calib: &mut Calibrator,
    tracer: &Tracer,
) -> Result<f64, String> {
    let _span = tracer.span("sim.journal.append", None, 0);
    let series_len = scenario.series.len();
    let records: Vec<CellRecord> = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let (point, series) = labels[i].split_once('/').unwrap_or(("", &labels[i]));
            CellRecord {
                key: CellKey {
                    point: (i / series_len) as u32,
                    series: (i % series_len) as u32,
                },
                series: series.to_string(),
                point: point.to_string(),
                strategy: series.to_string(),
                threads: 1,
                report: cell.report.clone(),
            }
        })
        .collect();
    let header = JournalHeader {
        scenario: scenario.name.clone(),
        fingerprint: scenario.fingerprint(),
        cells: records.len() as u32,
    };
    let path = tmp.join("probe.cvj");
    let (written, _, norm) = calib.timed(|| {
        let mut journal = CheckpointJournal::create(&path, header)?;
        records.into_iter().try_for_each(|r| journal.append(r))
    });
    written.map_err(|e| format!("journal probe: {e}"))?;
    Ok(norm * 1e6 / cells.len().max(1) as f64)
}
