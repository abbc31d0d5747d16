//! Online-serve acceptance tests: loopback equivalence between the
//! online engine and the offline replay — clocked in-process and through
//! the socket — explicit overload shedding at the socket ingress, a
//! serve loop that answers a session when it arrives, waits on its
//! sockets and its clock (not on a timer) and makes only the system calls
//! `poll` asked for, and epoch-correctness of the front tier's response
//! cache.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use cablevod_cache::StrategySpec;
use cablevod_hfc::ids::{ProgramId, UserId};
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
use cablevod_trace::record::{SessionRecord, Trace};
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

/// A clock the test moves: simulated "now" is whatever was last stored.
/// It cannot say when it next ticks, so the serve loop looks at it every
/// millisecond.
#[derive(Clone, Default)]
struct ScriptedClock(Arc<AtomicU64>);

impl ScriptedClock {
    fn set(&self, secs: u64) {
        self.0.store(secs, Ordering::SeqCst);
    }
}

impl ClockSource for ScriptedClock {
    fn now(&mut self) -> SimTime {
        SimTime::from_secs(self.0.load(Ordering::SeqCst))
    }

    fn wait_until(&mut self, t: SimTime) {
        self.0.fetch_max(t.as_secs(), Ordering::SeqCst);
    }
}

/// One connection and its line reader.
struct Line {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Line {
    fn open(path: &std::path::Path) -> Line {
        let stream = connect_with_retry(path);
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Line { stream, reader }
    }

    fn send(&mut self, requests: &str) {
        self.stream.write_all(requests.as_bytes()).expect("send");
    }

    fn reply(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reply");
        line.trim_end().to_string()
    }

    fn ask(&mut self, request: &str) -> String {
        self.send(&format!("{request}\n"));
        self.reply()
    }

    /// The number after `"key":` in a `STATS` reply.
    fn stat(&mut self, key: &str) -> u64 {
        let reply = self.ask("STATS");
        let tail = reply
            .split(&format!("\"{key}\":"))
            .nth(1)
            .unwrap_or_else(|| panic!("no {key} in {reply}"));
        let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().expect("a number")
    }

    /// Waits until the engine has been advanced over everything staged.
    fn await_advance(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.stat("queued") != 0 {
            assert!(
                Instant::now() < deadline,
                "the staged sessions never advanced"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// A `SESSION` is answered when it is read: `ADMITTED <gidx>` says the
/// decision tier holds it, which is true at once, whenever the clock next
/// ticks. Here it never does (a pinned clock), and `term` is not raised
/// until the reply has come.
#[test]
fn a_session_is_answered_on_arrival_whatever_the_clock_does() {
    let term = Arc::new(AtomicBool::new(false));
    let (path, server) = spawn_serve(
        "arrival",
        AcceleratedClock::default(),
        &term,
        ServerConfig::default(),
    );
    let mut line = Line::open(&path);
    let short = Some(Duration::from_secs(5));
    line.stream.set_read_timeout(short).expect("read timeout");
    // The first, empty advance is behind us once a reply has come: from
    // here on this clock gives the engine no reason to advance again.
    assert_eq!(line.stat("queued"), 0);
    assert_eq!(line.ask("SESSION 7 3 600"), "ADMITTED 0");
    assert_eq!(line.ask("SESSION 8 3 600 30"), "ADMITTED 1");
    // Refused on arrival too, and by the decision tier itself.
    assert!(line.ask("SESSION 7 9999 600").starts_with("ERR "));
    assert_eq!(line.stat("queued"), 2);
    term.store(true, Ordering::SeqCst);
    let (stats, report) = server.join().expect("server thread");
    assert_eq!((stats.sessions_seen, stats.admitted), (3, 2));
    assert_eq!((stats.shed, stats.session_errors), (0, 1));
    assert_eq!(stats.decision.count(), 2, "one sample per admitted session");
    assert_eq!(report.sessions, 2);
    let _ = std::fs::remove_file(&path);
}

/// Under a wall clock a session start costs the work, not the wait for
/// the next second: twenty of them spread over two seconds, at every
/// phase of the tick, are each answered within a tenth of one.
#[test]
fn under_a_wall_clock_no_session_waits_for_the_tick() {
    let term = Arc::new(AtomicBool::new(false));
    let (path, server) = spawn_serve("wall", WallClock::default(), &term, ServerConfig::default());
    let mut line = Line::open(&path);
    for i in 0..20 {
        std::thread::sleep(Duration::from_millis(100));
        let t0 = Instant::now();
        let reply = line.ask(&format!("SESSION {i} 2 900"));
        let waited = t0.elapsed();
        assert_eq!(reply, format!("ADMITTED {i}"));
        assert!(
            waited < Duration::from_millis(100),
            "session {i} waited {waited:?}"
        );
    }
    term.store(true, Ordering::SeqCst);
    drop(UnixStream::connect(&path));
    let (stats, report) = server.join().expect("server thread");
    assert_eq!((stats.admitted, report.sessions), (20, 20));
    let _ = std::fs::remove_file(&path);
}

/// Global indexes follow the order the server read the lines in, across
/// connections; replies stay in request order on each; and a `LOOKUP`
/// right behind a `SESSION` does not see that admission yet — an
/// admission's placement effects become visible at the next tick's
/// advance, which is what moves the epoch.
#[test]
fn admissions_are_indexed_in_arrival_order_and_seen_from_the_next_tick() {
    let term = Arc::new(AtomicBool::new(false));
    let clock = ScriptedClock::default();
    let (path, server) = spawn_serve("order", clock.clone(), &term, ServerConfig::default());
    let (mut a, mut b) = (Line::open(&path), Line::open(&path));
    for turn in 0..3 {
        assert_eq!(
            a.ask(&format!("SESSION {turn} 1 600")),
            format!("ADMITTED {}", 2 * turn)
        );
        assert_eq!(
            b.ask(&format!("SESSION {} 1 600", 50 + turn)),
            format!("ADMITTED {}", 2 * turn + 1)
        );
    }
    clock.set(1);
    a.await_advance();
    let epoch = a.stat("epoch");

    // One write, two requests: answered in order, the lookup at the
    // epoch that held before the admission.
    a.send("SESSION 9 4 600\nLOOKUP 0 4\n");
    assert_eq!(a.reply(), "ADMITTED 6");
    assert_eq!(a.reply(), format!("ABSENT {epoch}"));
    assert_eq!(b.stat("queued"), 1);
    clock.set(2);
    a.await_advance();
    let after = a.ask("LOOKUP 0 4");
    let seen_at: u64 = after
        .split(' ')
        .nth(1)
        .and_then(|e| e.parse().ok())
        .unwrap_or_else(|| panic!("unexpected: {after}"));
    assert!(after.starts_with("PLACED "), "unexpected: {after}");
    assert_eq!(seen_at, epoch + 1, "the next tick's epoch");

    term.store(true, Ordering::SeqCst);
    let (stats, report) = server.join().expect("server thread");
    assert_eq!((stats.admitted, stats.lookups, report.sessions), (7, 2, 7));
    let _ = std::fs::remove_file(&path);
}

/// The socket path against the offline engine: bursts of sessions with
/// the clock moved between them. The server stamps each arrival
/// `max(now, last advanced horizon + 1, last stamp)`; the drained report
/// must equal `cablevod_sim::run` over the same records carrying those
/// stamps.
#[test]
fn the_socket_path_matches_the_offline_run_over_the_stamps_it_assigns() {
    let term = Arc::new(AtomicBool::new(false));
    let clock = ScriptedClock::default();
    let (path, server) = spawn_serve("equiv", clock.clone(), &term, ServerConfig::default());
    let mut line = Line::open(&path);
    // The first, empty advance lands at second 0 before anything is
    // staged, so the first burst is stamped 1.
    line.await_advance();

    let mut records = Vec::new();
    let mut user = 0u32;
    let mut at = 0;
    for (burst, now) in [0u64, 0, 900, 4_000, 4_001, 90_000].into_iter().enumerate() {
        // Once the advance to a new `now` has run, arrivals are stamped
        // after it; two bursts inside one second share a stamp.
        if now != at {
            clock.set(now);
            line.await_advance();
            at = now;
        }
        let stamp = SimTime::from_secs(now + 1);
        let mut requests = String::new();
        for i in 0..8u32 {
            let (program, secs, offset) = (
                (user + i) % 20,
                300 + 450 * u64::from(i),
                60 * (burst as u64 % 3),
            );
            requests.push_str(&format!("SESSION {user} {program} {secs} {offset}\n"));
            let mut rec = SessionRecord::new(
                UserId::new(user),
                ProgramId::new(program),
                stamp,
                SimDuration::from_secs(secs),
            );
            rec.offset = SimDuration::from_secs(offset);
            records.push(rec);
            user += 1;
        }
        line.send(&requests);
        for gidx in records.len() - 8..records.len() {
            assert_eq!(line.reply(), format!("ADMITTED {gidx}"));
        }
    }
    term.store(true, Ordering::SeqCst);
    let (stats, online) = server.join().expect("server thread");
    assert_eq!(stats.admitted, records.len() as u64);

    let shape = generate(&tiny_config(120, 20, 2, 5));
    let (_, catalog, users, days) = shape.into_parts();
    let trace =
        Trace::new(records.clone(), catalog, users, days).expect("records within the plant");
    assert_eq!(trace.records(), &records[..], "submitted in trace order");
    let config = SimConfig::default().with_strategy(StrategySpec::Lru);
    let offline = run(&trace, &config).expect("offline replay");
    assert_eq!(online, offline);
    let _ = std::fs::remove_file(&path);
}

/// The serve loop acts on what `poll` reported, and its deterministic
/// work counters say so: one `accept` per connection (never one per
/// pass), at most one read and one write per wake-up (200 pipelined
/// requests are 2.4 KB; no read fills the 64 KiB input buffer).
#[test]
fn the_loop_makes_no_system_call_poll_did_not_ask_for() {
    const REQUESTS: usize = 200;
    let term = Arc::new(AtomicBool::new(false));
    let (path, server) = spawn_serve(
        "counters",
        AcceleratedClock::default(),
        &term,
        ServerConfig::default(),
    );
    let mut line = Line::open(&path);
    line.send(&"LOOKUP 0 3\n".repeat(REQUESTS));
    for _ in 0..REQUESTS {
        assert!(line.reply().starts_with("ABSENT "));
    }
    // Idle for a while: passes go by (the clock cannot say when it
    // ticks, so the wait is a millisecond), system calls do not.
    std::thread::sleep(Duration::from_millis(100));
    term.store(true, Ordering::SeqCst);
    let (stats, _) = server.join().expect("server thread");
    assert_eq!(stats.lookups, REQUESTS as u64);
    assert_eq!((stats.connections, stats.accept_calls), (1, 1));
    // The requests arrive in one piece or a few, and every read is one
    // `poll` asked for.
    assert!(
        (1..=REQUESTS as u64).contains(&stats.read_calls) && stats.read_calls + 10 <= stats.passes,
        "{} reads in {} passes",
        stats.read_calls,
        stats.passes
    );
    assert!(
        stats.write_calls <= stats.read_calls,
        "{} writes after {} reads",
        stats.write_calls,
        stats.read_calls
    );
    assert_eq!(stats.dropped_replies, 0);
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
