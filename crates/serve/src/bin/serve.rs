//! `cablevod-serve`: run the engine as an online admission/placement
//! service (wire protocol and tier design in the `cablevod_serve` crate
//! docs).
//!
//! Two ingress modes:
//!
//! * `--socket PATH` / `--tcp ADDR` — serve newline-framed requests over
//!   a Unix or TCP socket until SIGTERM/SIGINT, then drain and flush the
//!   final JSON line.
//! * `--replay FILE.cvtc` — replay a columnar trace against the clock
//!   (`--accel` for as-fast-as-possible) and flush the same final line.
//!
//! The final stdout line is
//! `{"serve": {...counters...}, "report": {...SimReport...}}` — the
//! `report` half is the canonical checkpoint-journal encoding, so online
//! runs diff cleanly against offline ones.

#![deny(unsafe_code)]

use std::process::ExitCode;
use std::sync::atomic::AtomicBool;

use cablevod_cache::StrategyRegistry;
use cablevod_serve::clock::{AcceleratedClock, ClockSource, WallClock};
use cablevod_serve::replay::{replay_trace, DecisionTier};
use cablevod_serve::server::{Server, ServerConfig};
use cablevod_sim::engine::online::{serve_serial, OnlineSpec};
use cablevod_sim::{report_to_json_string, SimConfig};
use cablevod_trace::record::Trace;
use cablevod_trace::synth::{generate, SynthConfig};
use cablevod_trace::ColumnarReader;

/// SIGTERM/SIGINT both land here; the serve loop polls it every tick.
static TERM: AtomicBool = AtomicBool::new(false);

/// Installs the shutdown flag via the two libc entry points the signal
/// path needs, declared directly — the build environment vendors
/// stand-ins and cannot grow a `libc`/`signal-hook` dependency (same
/// idiom as the trace crate's mmap shim).
#[cfg(unix)]
#[allow(unsafe_code)]
mod sig {
    use std::os::raw::c_int;
    use std::sync::atomic::Ordering;

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;

    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }

    extern "C" fn on_term(_signum: c_int) {
        super::TERM.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        // SAFETY: `on_term` is async-signal-safe (one atomic store).
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
            signal(SIGINT, on_term as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    pub(super) fn install() {}
}

struct Args {
    socket: Option<String>,
    tcp: Option<String>,
    replay: Option<String>,
    strategy: String,
    accel: bool,
    queue_cap: usize,
    capacity: u64,
    max_sessions: Option<u64>,
    users: u32,
    programs: u32,
    days: u64,
    seed: u64,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let synth = SynthConfig::smoke_test();
        let mut args = Args {
            socket: None,
            tcp: None,
            replay: None,
            strategy: "lru".into(),
            accel: false,
            queue_cap: 1024,
            capacity: 1 << 20,
            max_sessions: None,
            users: synth.users,
            programs: synth.programs,
            days: synth.days,
            seed: synth.seed,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--socket" => args.socket = Some(value("--socket")?),
                "--tcp" => args.tcp = Some(value("--tcp")?),
                "--replay" => args.replay = Some(value("--replay")?),
                "--strategy" => args.strategy = value("--strategy")?,
                "--accel" => args.accel = true,
                "--queue-cap" => args.queue_cap = parse(&value("--queue-cap")?)?,
                "--capacity" => args.capacity = parse(&value("--capacity")?)?,
                "--max-sessions" => args.max_sessions = Some(parse(&value("--max-sessions")?)?),
                "--users" => args.users = parse(&value("--users")?)?,
                "--programs" => args.programs = parse(&value("--programs")?)?,
                "--days" => args.days = parse(&value("--days")?)?,
                "--seed" => args.seed = parse(&value("--seed")?)?,
                "--help" | "-h" => return Err(USAGE.into()),
                other => return Err(format!("unknown flag {other}\n{USAGE}")),
            }
        }
        if args.socket.is_some() as u8 + args.tcp.is_some() as u8 + args.replay.is_some() as u8 != 1
        {
            return Err(format!(
                "exactly one of --socket, --tcp, --replay is required\n{USAGE}"
            ));
        }
        Ok(args)
    }
}

const USAGE: &str = "usage: cablevod-serve (--socket PATH | --tcp ADDR | --replay FILE.cvtc)
    [--strategy NAME] [--accel] [--queue-cap N] [--capacity N]
    [--max-sessions N] [--users N] [--programs N] [--days N] [--seed N]";

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("could not parse value {text}"))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("cablevod-serve: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    sig::install();

    let registry = StrategyRegistry::with_plugins();
    let strategy = registry
        .resolve(&args.strategy)
        .map_err(|e| format!("unknown strategy {:?}: {e}", args.strategy))?;
    let config = SimConfig::default();

    if let Some(path) = &args.replay {
        let reader = ColumnarReader::open(path).map_err(|e| e.to_string())?;
        let trace = reader.read_trace().map_err(|e| e.to_string())?;
        let mut clock: Box<dyn ClockSource> = if args.accel {
            Box::new(AcceleratedClock::default())
        } else {
            Box::new(WallClock::default())
        };
        let outcome = replay_trace(
            &trace,
            &config,
            strategy.as_ref(),
            DecisionTier::Serial,
            clock.as_mut(),
        )
        .map_err(|e| e.to_string())?;
        println!(
            "{{\"serve\":{{\"admitted\":{},\"shed\":0,\"epoch\":{},\
             \"decision_p50_ns\":{},\"decision_p99_ns\":{},\"decision_p999_ns\":{}}},\
             \"report\":{}}}",
            outcome.submitted,
            outcome.epoch,
            outcome.latency.p50_ns(),
            outcome.latency.p99_ns(),
            outcome.latency.p999_ns(),
            report_to_json_string(&outcome.report),
        );
        return Ok(());
    }

    // Socket modes: a synthetic catalog/population fixes the plant shape;
    // sessions come from the wire.
    let synth = SynthConfig {
        users: args.users,
        programs: args.programs,
        days: args.days,
        seed: args.seed,
        ..SynthConfig::smoke_test()
    };
    let shape: Trace = generate(&synth);
    let spec = OnlineSpec {
        catalog: shape.catalog(),
        user_count: shape.user_count(),
        days: args.days,
        capacity: args.capacity,
        schedule_records: None,
    };
    let server = if let Some(path) = &args.socket {
        Server::unix(path).map_err(|e| format!("bind {path}: {e}"))?
    } else {
        let addr = args.tcp.as_deref().unwrap_or_default();
        Server::tcp(addr).map_err(|e| format!("bind {addr}: {e}"))?
    };
    let server_config = ServerConfig {
        queue_cap: args.queue_cap,
        max_sessions: args.max_sessions,
    };
    let mut clock: Box<dyn ClockSource> = if args.accel {
        Box::new(AcceleratedClock::default())
    } else {
        Box::new(WallClock::default())
    };

    let (stats, report) = serve_serial(&spec, &config, strategy.as_ref(), |engine| {
        server.run(engine, clock.as_mut(), &TERM, &server_config)
    })
    .map_err(|e| e.to_string())?;
    if let Some(path) = &args.socket {
        let _ = std::fs::remove_file(path);
    }
    println!(
        "{{\"serve\":{},\"report\":{}}}",
        stats.json(),
        report_to_json_string(&report),
    );
    Ok(())
}
