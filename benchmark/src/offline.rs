//! The three single-simulation workloads: `resident_lfu`,
//! `stream_serial`, `stream_sharded`. Each timed iteration is one
//! `Simulation::run` over the workload's source.

use std::path::Path;
use std::time::Instant;

use cablevod_cache::StrategySpec;
use cablevod_hfc::units::DataSize;
use cablevod_sim::{
    report_from_json_str, report_to_json_string, RunOutcome, SimConfig, SimReport, Simulation,
};
use cablevod_trace::checksum::crc32;
use cablevod_trace::columnar::{ColumnarReader, DEFAULT_CHUNK_SIZE};
use cablevod_trace::rechunk::{import_chunk_size, rechunk_by_neighborhood};
use cablevod_trace::record::Trace;
use cablevod_trace::source::TraceSource;
use cablevod_trace::synth::{generate, generate_to_disk, SynthConfig};

use crate::alloc;
use crate::calib::Calibrator;
use crate::harness::{
    offline_end_to_end, timed_loop, traced_rows, verdict, IterOut, Outcome, TempDir,
};
use crate::layers;
use crate::metrics::Ledger;
use crate::span::Tracer;
use crate::stats;
use crate::{check_cores, RunArgs, SETUP_REPS};

/// Users of the resident workload: 141k sessions, ~0.2 s an iteration.
pub const RESIDENT_USERS: u32 = 10_000;
/// Users of the two streaming workloads: 20x the repo's bench trace,
/// 423 k records in 7 time-major chunks. (At 50x an iteration lasts 3 s,
/// four fit in a run, and the run-to-run spread is 20 %.)
pub const STREAM_USERS: u32 = 30_000;
const NEIGHBORHOOD: u32 = 500;
/// Workers of `stream_sharded`.
const SHARD_THREADS: usize = 2;
/// The rechunker's buffer budget, as the repo's own streaming bench
/// sets it.
const RECHUNK_BUDGET: u64 = 64 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ResidentLfu,
    StreamSerial,
    StreamSharded,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::ResidentLfu => "resident_lfu",
            Kind::StreamSerial => "stream_serial",
            Kind::StreamSharded => "stream_sharded",
        }
    }

    fn users(self) -> u32 {
        match self {
            Kind::ResidentLfu => RESIDENT_USERS,
            Kind::StreamSerial | Kind::StreamSharded => STREAM_USERS,
        }
    }

    fn threads(self) -> Option<usize> {
        match self {
            Kind::StreamSharded => Some(SHARD_THREADS),
            Kind::ResidentLfu | Kind::StreamSerial => None,
        }
    }

    /// Discarded iterations before timing: caches fill and the page
    /// cache holds the file.
    fn warmups(self) -> u32 {
        match self {
            Kind::ResidentLfu => 3,
            Kind::StreamSerial => 1,
            Kind::StreamSharded => 2,
        }
    }
}

/// The synthetic workload every benchmark trace is cut from: the
/// PowerInfo-calibrated generator, 400 programs, 6 days.
pub fn synth(users: u32, seed: u64) -> SynthConfig {
    SynthConfig {
        users,
        programs: 400,
        days: 6,
        seed,
        ..SynthConfig::powerinfo()
    }
}

/// The paper's default configuration at the repo's bench shape:
/// 500-peer neighbourhoods, 2 GB per peer, 3 warm-up days, `lfu`.
pub fn base_config() -> SimConfig {
    SimConfig::paper_default()
        .with_neighborhood_size(NEIGHBORHOOD)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3)
}

pub fn report_crc(report: &SimReport) -> u32 {
    crc32(report_to_json_string(report).as_bytes())
}

/// What each step of one set-up took, in seconds.
#[derive(Clone, Copy, Default)]
struct SetupTimes {
    generate_s: f64,
    open_s: f64,
    rechunk_s: f64,
}

struct Setup {
    source: Box<dyn TraceSource>,
    times: SetupTimes,
}

fn timed_step<T>(
    tracer: &Tracer,
    name: &'static str,
    group: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let _span = tracer.span(name, None, group);
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

fn open(path: &Path) -> Result<ColumnarReader, String> {
    ColumnarReader::open(path).map_err(|e| format!("open {}: {e}", path.display()))
}

/// Everything before the first warm-up: generate, and for the streaming
/// workloads write, open and (sharded) rechunk and reopen.
fn set_up(kind: Kind, seed: u64, dir: &Path, tracer: &Tracer, rep: u64) -> Result<Setup, String> {
    let synth = synth(kind.users(), seed);
    if kind == Kind::ResidentLfu {
        let (trace, generate_s) = timed_step(tracer, "trace.generate", rep, || generate(&synth));
        return Ok(Setup {
            source: Box::new(trace),
            times: SetupTimes {
                generate_s,
                ..SetupTimes::default()
            },
        });
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let time_major = dir.join("time-major.cvtc");
    let (written, generate_s) = timed_step(tracer, "trace.generate", rep, || {
        generate_to_disk(&synth, &time_major, DEFAULT_CHUNK_SIZE)
    });
    written.map_err(|e| format!("generate to disk: {e}"))?;
    let (reader, mut open_s) = timed_step(tracer, "trace.open", rep, || open(&time_major));
    let mut reader = reader?;
    let mut rechunk_s = 0.0;
    if kind == Kind::StreamSharded {
        let nbhd_major = dir.join("nbhd-major.cvtc");
        let chunk = import_chunk_size(
            reader.user_count(),
            NEIGHBORHOOD,
            DEFAULT_CHUNK_SIZE,
            RECHUNK_BUDGET,
        );
        let (done, secs) = timed_step(tracer, "trace.rechunk", rep, || {
            rechunk_by_neighborhood(&reader, &nbhd_major, NEIGHBORHOOD, chunk)
        });
        done.map_err(|e| format!("rechunk: {e}"))?;
        rechunk_s = secs;
        let (reopened, secs) = timed_step(tracer, "trace.open", rep, || open(&nbhd_major));
        reader = reopened?;
        open_s += secs;
    }
    Ok(Setup {
        source: Box::new(reader),
        times: SetupTimes {
            generate_s,
            open_s,
            rechunk_s,
        },
    })
}

fn simulate(
    source: &dyn TraceSource,
    config: &SimConfig,
    threads: Option<usize>,
) -> Result<RunOutcome, String> {
    let sim = Simulation::over(source).config(config.clone());
    let sim = match threads {
        Some(n) => sim.threads(n),
        None => sim.serial(),
    };
    sim.run().map_err(|e| format!("simulation: {e}"))
}

pub fn run(kind: Kind, args: &RunArgs) -> Result<Outcome, String> {
    check_cores(kind.threads().unwrap_or(1))?;
    let tracer = Tracer::new(args.trace);
    let tmp = TempDir::create()?;
    let mut calib = Calibrator::new();
    let config = base_config();

    // Set up several times and report the median; one set-up's files
    // exist at a time.
    let dir = tmp.join("setup");
    let mut times = Vec::new();
    let mut setup_norm_s = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let _ = std::fs::remove_dir_all(&dir);
        let (setup, _, norm_s) = calib.timed(|| set_up(kind, args.seed, &dir, &tracer, rep));
        let setup = setup?;
        times.push(setup.times);
        setup_norm_s.push(norm_s);
        last = Some(setup);
    }
    let setup = last.expect("SETUP_REPS is at least one");
    let source: &dyn TraceSource = setup.source.as_ref();
    let records = source.record_count();

    let mut last: Option<RunOutcome> = None;
    let mut iterate = |tracer: &Tracer, group: u64| {
        let _span = tracer.span("sim.run", None, group);
        let outcome = simulate(source, &config, kind.threads())?;
        let out = IterOut {
            sessions: outcome.report.sessions,
            crcs: vec![report_crc(&outcome.report)],
        };
        last = Some(outcome);
        Ok(out)
    };

    if !args.trace {
        let timed = timed_loop(&mut calib, args.seconds, kind.warmups(), |g| {
            iterate(&tracer, g)
        });
        let metrics = offline_end_to_end(kind.name(), &setup_norm_s, &timed, &calib)?;
        let expected = reference_crc(&reference_trace(kind, args.seed), &config)?;
        return Ok(verdict(
            kind.name(),
            args.seed,
            &label(),
            &timed,
            &[expected],
            metrics,
        ));
    }

    // The traced run measures for half as long, spans on in every other
    // iteration; the difference between the two halves is what tracing
    // costs.
    let quiet = Tracer::new(false);
    let both = timed_loop(&mut calib, args.seconds / 2.0, kind.warmups(), |g| {
        iterate(if g % 2 == 0 { &quiet } else { &tracer }, g)
    });
    let (untraced, traced) = both.split_by_parity(kind.warmups());
    let outcome = last.take().ok_or("no iteration completed")?;
    let sessions = outcome.report.sessions.max(1) as f64;

    let mut m = Ledger::per_layer();
    traced_rows(&mut m, &untraced, &traced);
    m.set(
        "trace.synth_ns_per_session",
        stats::median(&column(&times, |t| t.generate_s)) * 1e9 / records.max(1) as f64,
    );
    m.set(
        "trace.open_ms",
        stats::median(&column(&times, |t| t.open_s)) * 1e3,
    );
    m.set(
        "trace.rechunk_ns_per_record",
        stats::median(&column(&times, |t| t.rechunk_s)) * 1e9 / records.max(1) as f64,
    );
    m.set(
        "trace.decode_chunks",
        outcome.telemetry.decode.chunks as f64,
    );
    m.set("trace.decode_bytes", outcome.telemetry.decode.bytes as f64);

    // Layer isolation. The resident copy of the same records is also the
    // correctness reference.
    let reference = reference_trace(kind, args.seed);
    let expected = {
        let _span = tracer.span("sim.run.reference", None, 0);
        reference_crc(&reference, &config)?
    };
    let no_cache = config.clone().with_strategy(StrategySpec::NoCache);
    let mut probe = |source: &dyn TraceSource, config: &SimConfig, threads, name| {
        rerun(&mut calib, &tracer, source, config, threads, name)
    };
    let (bare, own_no_cache_s) = probe(source, &no_cache, kind.threads(), "sim.run.no_cache")?;
    m.set(
        "sim.lifecycle_ns_per_session",
        own_no_cache_s * 1e9 / sessions,
    );
    m.set(
        "cache.strategy_ns_per_session",
        (traced.norm_median_s() - own_no_cache_s) * 1e9 / sessions,
    );
    match kind {
        Kind::ResidentLfu => {}
        Kind::StreamSerial => {
            let (_, resident_s) = probe(&reference, &no_cache, None, "sim.run.no_cache.resident")?;
            let decode_ns = layers::decode_ns_per_record(source, &mut calib, &tracer)?;
            m.set("trace.decode_ns_per_record", decode_ns);
            m.set(
                "sim.supply_merge_ns_per_session",
                (own_no_cache_s - resident_s) * 1e9 / sessions - decode_ns,
            );
        }
        Kind::StreamSharded => {
            let (_, serial_s) = probe(&reference, &config, None, "sim.run.resident")?;
            let (_, one_shard_s) = probe(&reference, &config, Some(1), "sim.run.one_shard")?;
            let decode_ns = layers::decode_ns_per_record(source, &mut calib, &tracer)?;
            m.set("trace.decode_ns_per_record", decode_ns);
            m.set(
                "sim.shard_overhead_ns_per_session",
                (one_shard_s - serial_s) * 1e9 / sessions,
            );
        }
    }
    m.set(
        "cache.lfu_on_access_ns",
        layers::lfu_on_access_ns(&reference, &config, &mut calib, &tracer)?,
    );
    m.set(
        "hfc.meter_record_ns",
        layers::meter_record_ns(&reference, &config, &mut calib, &tracer),
    );
    m.set(
        "hfc.topology_build_ms",
        layers::topology_build_ms(reference.user_count(), &config, &mut calib, &tracer)?,
    );
    m.set(
        "sim.report_json_us",
        report_json_us(&outcome.report, &mut calib, &tracer)?,
    );
    if kind.threads().is_none() {
        let (counted, allocs, bytes) = alloc::counted(|| simulate(source, &config, None));
        counted?;
        m.set("host.allocs_per_session", allocs as f64 / sessions);
        m.set("host.alloc_bytes_per_session", bytes as f64 / sessions);
    }
    report_counts(&mut m, &outcome.report, &bare.report);
    calib_rows(&mut m, &calib);

    crate::write_span_file(kind.name(), &tracer)?;
    Ok(verdict(
        kind.name(),
        args.seed,
        &label(),
        &traced,
        &[expected],
        m,
    ))
}

/// A layer-isolation rerun: the first run's outcome and the faster of
/// two runs, in seconds at reference host speed.
fn rerun(
    calib: &mut Calibrator,
    tracer: &Tracer,
    source: &dyn TraceSource,
    config: &SimConfig,
    threads: Option<usize>,
    name: &'static str,
) -> Result<(RunOutcome, f64), String> {
    let _span = tracer.span(name, None, 0);
    let (first, _, a) = calib.timed(|| simulate(source, config, threads));
    let (_, _, b) = calib.timed(|| simulate(source, config, threads));
    first.map(|outcome| (outcome, a.min(b)))
}

/// The one report of a single-simulation workload, as `golden.json`
/// labels it.
fn label() -> [String; 1] {
    ["report".to_string()]
}

/// The same records as a resident trace (the generator writes the
/// identical sequence to disk and to memory).
fn reference_trace(kind: Kind, seed: u64) -> Trace {
    generate(&synth(kind.users(), seed))
}

/// The reference report: the serial engine's direct entry point over the
/// resident records. Both streaming workloads must reproduce it, which
/// also makes `stream_sharded`'s report equal `stream_serial`'s.
fn reference_crc(reference: &Trace, config: &SimConfig) -> Result<u32, String> {
    cablevod_sim::run(reference, config)
        .map(|report| report_crc(&report))
        .map_err(|e| format!("reference run: {e}"))
}

/// `sim.report_json_us`: encode one report and parse it back strictly.
pub fn report_json_us(
    report: &SimReport,
    calib: &mut Calibrator,
    tracer: &Tracer,
) -> Result<f64, String> {
    const ROUNDS: u32 = 20;
    let _span = tracer.span("sim.report.json", None, 0);
    let (parsed, _, norm) = calib.timed(|| {
        (0..ROUNDS).try_for_each(|_| report_from_json_str(&report_to_json_string(report)).map(drop))
    });
    parsed.map_err(|e| format!("report JSON round trip: {e}"))?;
    Ok(norm * 1e6 / f64::from(ROUNDS))
}

/// The counts and simulated outputs of `report`; `bare` is the same
/// workload's `no-cache` run.
pub fn report_counts(m: &mut Ledger, report: &SimReport, bare: &SimReport) {
    m.set("sim.sessions", report.sessions as f64);
    m.set("sim.segment_requests", report.segment_requests as f64);
    m.set("sim.viewer_overcommits", report.viewer_overcommits as f64);
    let cache = &report.cache;
    m.set("cache.hits", cache.hits as f64);
    m.set("cache.misses", cache.misses() as f64);
    m.set("cache.admissions", cache.admissions as f64);
    m.set("cache.evictions", cache.evictions as f64);
    m.set("cache.capture_fills", cache.capture_fills as f64);
    m.set("cache.delayed_hits", cache.delayed_hits as f64);
    m.set("cache.inflight_misses", cache.inflight_misses as f64);
    if cache.admissions > 0 {
        m.set(
            "cache.evictions_per_admission",
            cache.evictions as f64 / cache.admissions as f64,
        );
    }
    m.set(
        "hfc.server_peak_mean_mbps",
        report.server_peak.mean.as_mbps(),
    );
    m.set(
        "hfc.server_savings_pct",
        report.savings_vs(bare.server_peak.mean) * 100.0,
    );
    m.set("hfc.coax_peak_mean_mbps", report.coax_peak.mean.as_mbps());
}

pub fn calib_rows(m: &mut Ledger, calib: &Calibrator) {
    let (q1, q2, q3) = stats::quartiles(calib.samples_ms());
    m.set("host.calib_ms_p50", q2);
    m.set("host.calib_ms_iqr", q3 - q1);
}

fn column(times: &[SetupTimes], pick: impl Fn(&SetupTimes) -> f64) -> Vec<f64> {
    times.iter().map(pick).collect()
}
