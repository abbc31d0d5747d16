//! Shared helpers for the cross-crate integration tests, a `mod helpers;`
//! in each test that uses them.

// Each test crate compiles every helper and calls only some.
#![allow(dead_code)]

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cablevod_cache::{StrategyFactory, StrategySpec};
use cablevod_hfc::units::{SimDuration, SimTime};
use cablevod_serve::{ClockSource, ServeStats, Server, ServerConfig};
use cablevod_sim::engine::online::serve_serial;
use cablevod_sim::{OnlineSpec, SimConfig, SimError, SimReport};
use cablevod_trace::record::Trace;
use cablevod_trace::synth::{generate, SynthConfig};

/// A mid-sized deterministic workload shared by the integration tests:
/// big enough that caches, quantiles and placement all engage, small
/// enough to keep the suite fast.
pub fn medium_trace() -> Trace {
    generate(&SynthConfig {
        users: 2_000,
        programs: 500,
        days: 8,
        ..SynthConfig::powerinfo()
    })
}

/// A deliberately tiny workload for property tests that run many cases.
pub fn tiny_config(users: u32, programs: u32, days: u64, seed: u64) -> SynthConfig {
    SynthConfig {
        users,
        programs,
        days,
        seed,
        ..SynthConfig::powerinfo()
    }
}

/// A socket server over a tiny plant (`lru`) on its own thread, paced by
/// `clock`, until `term` is raised; joins to its final counters and
/// report. Returns the Unix socket it listens at.
pub fn spawn_serve(
    tag: &str,
    mut clock: impl ClockSource + Send + 'static,
    term: &Arc<AtomicBool>,
    server_config: ServerConfig,
) -> (PathBuf, JoinHandle<(ServeStats, SimReport)>) {
    let path =
        std::env::temp_dir().join(format!("cablevod-serve-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = Server::unix(&path).expect("bind unix socket");
    let term = Arc::clone(term);
    let thread = std::thread::spawn(move || {
        let shape = generate(&tiny_config(120, 20, 2, 5));
        let spec = OnlineSpec {
            catalog: shape.catalog(),
            user_count: shape.user_count(),
            days: shape.days(),
            capacity: 1 << 16,
            schedule_records: None,
        };
        let strategy = StrategySpec::Lru.factory();
        serve_serial(&spec, &SimConfig::default(), strategy.as_ref(), |engine| {
            server.run(engine, &mut clock, &term, &server_config)
        })
        .expect("serve run")
    });
    (path, thread)
}

/// Replays `trace` through the online engine under `strategy` — advanced
/// to the second before each new second's first session, so a
/// continuation due at that second waits at the horizon for the
/// sessions that start then — and returns the drained report.
pub fn serve_trace(
    trace: &Trace,
    config: &SimConfig,
    strategy: &dyn StrategyFactory,
) -> Result<SimReport, SimError> {
    serve_trace_every(trace, config, strategy, 1)
}

/// [`serve_trace`] with a coarser clock: advanced only when a session
/// starts in a later window of `every` seconds than the last, to the
/// second before that window, so one advance takes many sessions and
/// continuations.
pub fn serve_trace_every(
    trace: &Trace,
    config: &SimConfig,
    strategy: &dyn StrategyFactory,
    every: u64,
) -> Result<SimReport, SimError> {
    let spec = OnlineSpec::from_source(trace);
    let ((), report) = serve_serial(&spec, config, strategy, |engine| {
        let mut window = None;
        for &rec in trace.records() {
            let at = SimTime::from_secs(rec.start.as_secs() / every * every);
            if window.is_some_and(|last| last != at) {
                engine.advance_to(at.saturating_sub(SimDuration::from_secs(1)))?;
            }
            window = Some(at);
            engine.submit(rec)?;
        }
        Ok(())
    })?;
    Ok(report)
}

/// Connects to a server that may still be binding, with a 30 s read
/// timeout so a reply that never comes fails the test, not hangs it.
pub fn connect_with_retry(path: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("read timeout");
                return stream;
            }
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => panic!("connect {}: {e}", path.display()),
        }
    }
}
