//! Online-serve acceptance tests: loopback equivalence between the
//! clocked online engine and the offline replay, explicit overload
//! shedding at the socket ingress, a serve loop that waits on its sockets
//! and its clock (not on a timer), and epoch-correctness of the front
//! tier's response cache.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use cablevod_cache::StrategySpec;
use cablevod_hfc::units::{SimDuration, SimTime};
use cablevod_serve::clock::{AcceleratedClock, ClockSource, WallClock};
use cablevod_serve::replay::{replay_trace, DecisionTier};
use cablevod_serve::server::ServerConfig;
use cablevod_serve::ResponseCache;
use cablevod_sim::{
    report_from_json_str, report_to_json_string, run, AdmissionMode, FaultPlan, RetryPolicy,
    SimConfig,
};
use cablevod_tests::{connect_with_retry, spawn_serve, tiny_config};
use cablevod_trace::synth::generate;

/// Every strategy family the decision tier can serve online without a
/// future schedule, plus Oracle (replay mode carries the records).
fn zoo() -> Vec<(&'static str, StrategySpec)> {
    vec![
        ("no_cache", StrategySpec::NoCache),
        ("lru", StrategySpec::Lru),
        (
            "lfu",
            StrategySpec::Lfu {
                history: SimDuration::from_days(2),
            },
        ),
        (
            "global_lfu",
            StrategySpec::GlobalLfu {
                history: SimDuration::from_days(2),
                lag: SimDuration::from_hours(6),
            },
        ),
        (
            "oracle",
            StrategySpec::Oracle {
                lookahead: SimDuration::from_days(2),
            },
        ),
        ("prior_storing", StrategySpec::default_prior_storing()),
    ]
}

/// An accelerated-clock serve run over a committed trace produces a
/// final report byte-identical to the offline replay — per strategy.
#[test]
fn loopback_matches_offline_replay() {
    let trace = generate(&tiny_config(300, 60, 4, 7));
    for (name, spec) in zoo() {
        let config = SimConfig::default().with_strategy(spec);
        let offline = run(&trace, &config).expect("offline replay");
        let offline_bytes = report_to_json_string(&offline);

        let tier = DecisionTier::Serial;
        let mut clock = AcceleratedClock::default();
        let outcome = replay_trace(&trace, &config, spec.factory().as_ref(), tier, &mut clock)
            .unwrap_or_else(|e| panic!("{name} {tier:?} serve run: {e}"));
        assert_eq!(
            outcome.report, offline,
            "{name} {tier:?}: online report diverged from offline"
        );
        assert_eq!(
            report_to_json_string(&outcome.report),
            offline_bytes,
            "{name} {tier:?}: canonical JSON bytes diverged"
        );
        assert_eq!(outcome.submitted, trace.len() as u64, "{name} {tier:?}");
        assert!(
            outcome.latency.count() == trace.len() as u64,
            "{name} {tier:?}: one latency sample per session"
        );
    }
}

/// Fault plans and enforcing admission/retry ride through the online
/// tier unchanged.
#[test]
fn loopback_matches_offline_under_faults() {
    let trace = generate(&tiny_config(240, 30, 3, 11));
    let neighborhoods = 240u32.div_ceil(60);
    let config = SimConfig::default()
        .with_strategy(StrategySpec::Lru)
        .with_faults(FaultPlan::seeded(
            42,
            neighborhoods,
            SimDuration::from_days(3),
            4,
            2,
        ))
        .with_admission(AdmissionMode::Enforcing)
        .with_retry(RetryPolicy::paper_default());
    let offline = run(&trace, &config).expect("offline replay");
    assert!(offline.degradation.is_some(), "fault plan must engage");

    let tier = DecisionTier::Serial;
    let mut clock = AcceleratedClock::default();
    let outcome = replay_trace(
        &trace,
        &config,
        config.strategy().factory().as_ref(),
        tier,
        &mut clock,
    )
    .expect("online serve run");
    assert_eq!(outcome.report, offline, "{tier:?} under faults");
}

/// The canonical report encoding round-trips (the serve bin's final
/// line must be parseable back into the same report).
#[test]
fn report_json_round_trips() {
    let trace = generate(&tiny_config(200, 40, 3, 3));
    let config = SimConfig::default();
    let report = run(&trace, &config).expect("offline replay");
    let text = report_to_json_string(&report);
    let back = report_from_json_str(&text).expect("parse back");
    assert_eq!(back, report);
}

/// A full ingress queue sheds with an explicit `OVERLOADED` reply —
/// deterministic counts, nothing blocked, nothing silently dropped —
/// and the shed/admitted split shows up in the final stats and report.
#[test]
fn overload_sheds_explicitly_and_drains_on_term() {
    const QUEUE_CAP: usize = 4;
    const EXTRA: usize = 3;

    // A pinned accelerated clock: simulated "now" stays 0, so once the
    // first (empty) advance lands, the ingress queue can only drain
    // again at shutdown.
    let term = Arc::new(AtomicBool::new(false));
    let server_config = ServerConfig {
        queue_cap: QUEUE_CAP,
        max_sessions: None,
    };
    let (path, server_thread) =
        spawn_serve("ovl", AcceleratedClock::default(), &term, server_config);

    // Wait for the socket to accept, then pin the first empty advance by
    // completing one STATS round-trip before any SESSION is sent.
    let mut stream = connect_with_retry(&path);
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut line = String::new();

    stream.write_all(b"STATS\n").expect("send STATS");
    reader.read_line(&mut line).expect("STATS reply");
    assert!(line.starts_with("STATS "), "unexpected: {line}");

    // Burst: the queue holds QUEUE_CAP, the rest must shed immediately.
    let mut burst = String::new();
    for i in 0..(QUEUE_CAP + EXTRA) {
        burst.push_str(&format!("SESSION {i} 0 600\n"));
    }
    stream.write_all(burst.as_bytes()).expect("send burst");

    // The shed count is observable while the queue is still parked
    // (never blocked indefinitely): poll STATS on a second connection.
    let mut stats = connect_with_retry(&path);
    let mut stats_reader = BufReader::new(stats.try_clone().expect("clone stream"));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        stats.write_all(b"STATS\n").expect("poll STATS");
        let mut reply = String::new();
        stats_reader.read_line(&mut reply).expect("STATS reply");
        if reply.contains(&format!("\"shed\":{EXTRA}")) {
            assert!(
                reply.contains(&format!("\"queued\":{QUEUE_CAP}")),
                "queue should be parked full: {reply}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "shed count never reached {EXTRA}: {reply}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // SIGTERM equivalent: drain. Every queued session is admitted, every
    // shed one got its explicit reply, in request order.
    term.store(true, Ordering::SeqCst);
    let mut replies = Vec::new();
    for _ in 0..(QUEUE_CAP + EXTRA) {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("drain reply");
        replies.push(reply.trim().to_string());
    }
    let admitted = replies
        .iter()
        .filter(|r| r.starts_with("ADMITTED "))
        .count();
    let overloaded = replies
        .iter()
        .filter(|r| r.as_str() == "OVERLOADED")
        .count();
    assert_eq!(
        admitted, QUEUE_CAP,
        "all queued sessions admitted: {replies:?}"
    );
    assert_eq!(
        overloaded, EXTRA,
        "all overflow shed explicitly: {replies:?}"
    );

    let (stats, report) = server_thread.join().expect("server thread");
    assert_eq!(stats.shed, EXTRA as u64);
    assert_eq!(stats.admitted, QUEUE_CAP as u64);
    assert_eq!(
        report.sessions, QUEUE_CAP as u64,
        "shed sessions never reach the report"
    );
    let _ = std::fs::remove_file(&path);
}

/// A request on an idle connection is answered when it arrives, not when
/// a timer next fires. Each request is sent after a pause long enough
/// for the loop to have gone idle, so a loop that sleeps a millisecond
/// whenever a pass found nothing answers from mid-sleep — half a
/// millisecond in the median — and one that waits on the socket answers
/// in the time a wake-up takes.
#[test]
fn an_idle_connection_is_answered_without_waiting_for_a_timer() {
    const ROUND_TRIPS: usize = 100;
    let term = Arc::new(AtomicBool::new(false));
    let (path, server) = spawn_serve(
        "rtt",
        AcceleratedClock::default(),
        &term,
        ServerConfig::default(),
    );
    let mut stream = connect_with_retry(&path);
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));

    let mut waits = Vec::with_capacity(ROUND_TRIPS);
    let mut line = String::new();
    for i in 0..ROUND_TRIPS {
        // Pauses of 2.0 to 2.9 ms: no fixed phase against a 1 ms timer.
        std::thread::sleep(Duration::from_micros(2000 + 100 * (i as u64 % 10)));
        let t0 = Instant::now();
        stream.write_all(b"LOOKUP 0 3\n").expect("send LOOKUP");
        line.clear();
        reader.read_line(&mut line).expect("LOOKUP reply");
        waits.push(t0.elapsed());
        assert!(line.starts_with("ABSENT "), "unexpected: {line}");
    }
    term.store(true, Ordering::SeqCst);
    let (stats, _) = server.join().expect("server thread");
    assert_eq!(stats.lookups, ROUND_TRIPS as u64);
    // The median, so that a few host stalls do not decide.
    waits.sort_unstable();
    let median = waits[ROUND_TRIPS / 2];
    assert!(
        median < Duration::from_micros(250),
        "median round trip {median:?}, all {ROUND_TRIPS} in {:?}",
        waits.iter().sum::<Duration>()
    );
    let _ = std::fs::remove_file(&path);
}

/// A wall clock that counts how often it is read.
struct CountingWallClock {
    inner: WallClock,
    reads: Arc<AtomicU64>,
}

impl ClockSource for CountingWallClock {
    fn now(&mut self) -> SimTime {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.now()
    }

    fn wait_until(&mut self, t: SimTime) {
        self.inner.wait_until(t);
    }

    fn until_next_tick(&mut self) -> Option<Duration> {
        self.inner.until_next_tick()
    }
}

/// Under a wall clock an idle server wakes for the tick, not every
/// millisecond; a connection still gets it out of the wait at once, and
/// a `term` raised by a thread is seen at the next wake-up.
#[test]
fn an_idle_wall_clock_server_wakes_once_a_tick() {
    let term = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let clock = CountingWallClock {
        inner: WallClock::default(),
        reads: Arc::clone(&reads),
    };
    let (path, server) = spawn_serve("tick", clock, &term, ServerConfig::default());
    drop(connect_with_retry(&path));
    let before = reads.load(Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(200));
    let idle_reads = reads.load(Ordering::Relaxed) - before;
    assert!(
        idle_reads <= 10,
        "{idle_reads} clock reads in an idle 200 ms"
    );

    term.store(true, Ordering::SeqCst);
    let t0 = Instant::now();
    let _wake = UnixStream::connect(&path).expect("connect");
    let (stats, _) = server.join().expect("server thread");
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "a connection did not end the wait"
    );
    assert_eq!((stats.admitted, stats.shed), (0, 0));
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Under randomized interleavings of lookups, inserts and placement
    /// changes, the response cache never serves an epoch-stale answer.
    #[test]
    fn response_cache_never_serves_stale(
        ops in prop::collection::vec((0u8..3, 0u32..6, 0u32..1_000), 1..120),
    ) {
        let mut cache: ResponseCache<u32, (u64, u32)> = ResponseCache::new();
        // Model: what was inserted per key, and at which epoch.
        let mut model: std::collections::HashMap<u32, (u64, u32)> =
            std::collections::HashMap::new();
        let mut epoch = 0u64;
        for (op, key, val) in ops {
            match op {
                // Placement changed: bump the epoch.
                0 => {
                    epoch += 1;
                    cache.advance_epoch(epoch);
                }
                // Decision-tier answer cached at the current epoch.
                1 => {
                    cache.insert(key, (epoch, val));
                    model.insert(key, (epoch, val));
                }
                // Front-tier lookup: a hit must be the value inserted at
                // the *current* epoch — never an older one.
                _ => {
                    if let Some((stamped, got)) = cache.get(&key) {
                        let (model_epoch, model_val) =
                            model.get(&key).copied().expect("hit implies insert");
                        prop_assert_eq!(stamped, epoch, "epoch-stale answer served");
                        prop_assert_eq!(model_epoch, epoch);
                        prop_assert_eq!(got, model_val);
                    }
                }
            }
        }
        prop_assert_eq!(cache.epoch(), epoch);
    }
}
