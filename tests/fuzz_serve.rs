//! Wire-protocol hardening corpus (the `tests/fuzz_decoders.rs`
//! treatment for the serve socket): connections are fed garbage and
//! non-UTF-8 bytes, NULs, CRLF, lines cut across writes, an oversize
//! line, a burst that is never read back, mid-line disconnects, a client
//! that stalls through a drain and one that says half a line and no
//! more, several connections at once. The server must never panic or
//! hang, must answer every complete line exactly once and in order, and
//! must keep `admitted + shed + ERR == SESSION sent`.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use cablevod_hfc::units::SimTime;
use cablevod_serve::server::{ServerConfig, DRAIN_DEADLINE, MAX_LINE, SLOW_READER_DEADLINE};
use cablevod_serve::{ClockSource, ServeStats};
use cablevod_sim::SimReport;
use cablevod_tests::{connect_with_retry, spawn_serve};

/// One millisecond of wall time is one simulated second, so queued
/// sessions get their verdict within a millisecond or two.
struct MillisClock(Instant);

impl ClockSource for MillisClock {
    fn now(&mut self) -> SimTime {
        SimTime::from_secs(u64::try_from(self.0.elapsed().as_millis()).unwrap_or(u64::MAX))
    }

    fn wait_until(&mut self, t: SimTime) {
        while self.now() < t {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

fn spawn(tag: &str, term: &Arc<AtomicBool>) -> (PathBuf, JoinHandle<(ServeStats, SimReport)>) {
    spawn_serve(
        tag,
        MillisClock(Instant::now()),
        term,
        ServerConfig::default(),
    )
}

/// xorshift64: the corpus is a pure function of the case's seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What the reply to a request line must look like.
#[derive(Debug)]
enum Expect {
    Exactly(String),
    /// A `SESSION`: `ADMITTED <n>`, `OVERLOADED` or `ERR <reason>`.
    Session,
    /// A `LOOKUP`: `PLACED <e> <p>`, `ABSENT <e>` or `ERR <reason>`.
    Lookup,
    Stats,
}

/// The protocol's framing and dispatch, restated: lossy UTF-8, trailing
/// `\r` dropped, the first whitespace-separated word picks the request.
fn expect(line: &[u8]) -> Expect {
    let text = String::from_utf8_lossy(line);
    match text.trim_end_matches('\r').split_whitespace().next() {
        Some("SESSION") => Expect::Session,
        Some("LOOKUP") => Expect::Lookup,
        Some("STATS") => Expect::Stats,
        Some(other) => Expect::Exactly(format!("ERR unknown request {other}")),
        None => Expect::Exactly("ERR empty request".into()),
    }
}

/// One request line (without its newline) of a random family.
fn fuzz_line(rng: &mut Rng) -> Vec<u8> {
    let mut line = match rng.below(10) {
        // Well-formed requests; some users, programs and neighbourhoods
        // lie outside the plant (120 users, 20 programs).
        0 | 1 => format!(
            "SESSION {} {} {}",
            rng.below(130),
            rng.below(22),
            1 + rng.below(7200)
        )
        .into_bytes(),
        2 => format!("LOOKUP {} {}", rng.below(4), rng.below(22)).into_bytes(),
        3 => b"STATS".to_vec(),
        // Malformed arguments.
        4 => match rng.below(4) {
            0 => b"SESSION".to_vec(),
            1 => b"SESSION 1 -2 x".to_vec(),
            2 => b"LOOKUP 99999999999999999999 1".to_vec(),
            _ => b"SESSION 1 2 18446744073709551616".to_vec(),
        },
        // Nothing, or only blanks.
        5 => vec![b' '; rng.below(3) as usize],
        // A tagged unknown word: its echo proves the reply order.
        6 => format!("X{} tail", rng.next()).into_bytes(),
        // Arbitrary bytes: NULs, controls, broken UTF-8.
        _ => {
            let len = rng.below(80) as usize;
            (0..len)
                .map(|_| match rng.below(256) as u8 {
                    b'\n' => 0,
                    byte => byte,
                })
                .collect()
        }
    };
    if rng.below(4) == 0 {
        line.push(b'\r');
    }
    line
}

/// Reads until `want` reply lines have come (or the server hangs up);
/// returns them without their newlines.
fn read_replies(stream: &mut UnixStream, want: usize) -> Vec<Vec<u8>> {
    let mut bytes = Vec::new();
    let mut lines = 0;
    let mut chunk = [0u8; 4096];
    while lines < want {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                lines += chunk[..n].iter().filter(|&&b| b == b'\n').count();
                bytes.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => panic!("reply {} of {want} never came: {e}", lines + 1),
        }
    }
    assert_eq!(bytes.last().copied().unwrap_or(b'\n'), b'\n');
    bytes
        .split(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .take(want.min(lines))
        .collect()
}

/// Writes `burst` to a non-blocking `stream` until the server has taken
/// nothing for 300 ms (it has stopped reading) or all of it is sent;
/// returns how much was.
fn write_until_stuck(stream: &mut UnixStream, burst: &[u8]) -> usize {
    stream.set_nonblocking(true).expect("non-blocking");
    let mut sent = 0;
    let mut stuck_since = None;
    while sent < burst.len() {
        match stream.write(&burst[sent..]) {
            Ok(n) => {
                sent += n;
                stuck_since = None;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let since = *stuck_since.get_or_insert_with(Instant::now);
                if since.elapsed() > Duration::from_millis(300) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("send: {e}"),
        }
    }
    sent
}

/// What the clients of one test saw, for the conservation law.
#[derive(Debug, Default)]
struct Seen {
    sessions_sent: u64,
    admitted: u64,
    shed: u64,
    session_errors: u64,
    /// `LOOKUP`s with two numbers: the ones the server counts.
    lookups_sent: u64,
}

impl Seen {
    /// Checks one reply against its request and books it.
    fn book(&mut self, request: &[u8], reply: &[u8]) -> Result<(), String> {
        let reply = String::from_utf8(reply.to_vec())
            .map_err(|_| format!("reply is not UTF-8: {reply:?}"))?;
        let number = |word: Option<&str>| word.is_some_and(|w| w.parse::<u64>().is_ok());
        let mut words = reply.split(' ');
        let head = words.next().unwrap_or_default();
        let ok = match expect(request) {
            Expect::Exactly(text) => reply == text,
            Expect::Stats => head == "STATS" && reply.ends_with('}'),
            Expect::Lookup => {
                let request = String::from_utf8_lossy(request);
                let mut args = request.split_whitespace().skip(1);
                let mut arg = || args.next().is_some_and(|w| w.parse::<u32>().is_ok());
                if arg() && arg() {
                    self.lookups_sent += 1;
                }
                match head {
                    "PLACED" => number(words.next()) && number(words.next()),
                    "ABSENT" => number(words.next()),
                    _ => head == "ERR",
                }
            }
            Expect::Session => {
                self.sessions_sent += 1;
                match head {
                    "ADMITTED" => {
                        self.admitted += 1;
                        number(words.next())
                    }
                    "OVERLOADED" => {
                        self.shed += 1;
                        true
                    }
                    _ => {
                        self.session_errors += 1;
                        head == "ERR"
                    }
                }
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "request {:?} was answered {reply:?}",
                String::from_utf8_lossy(request)
            ))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Up to three connections at once, each sending its own random
    /// lines in writes cut at random places, the connections' writes
    /// interleaved: every connection gets one reply per line, in order.
    #[test]
    fn every_complete_line_is_answered_once_and_in_order(
        seed in 1u64..u64::MAX,
        conns in 1usize..4,
    ) {
        let term = Arc::new(AtomicBool::new(false));
        let (path, server) = spawn(&format!("fuzz-{seed:x}"), &term);
        let mut rng = Rng(seed);
        let mut streams = Vec::new();
        let mut scripts: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut unsent: Vec<Vec<u8>> = Vec::new();
        for _ in 0..conns {
            streams.push(connect_with_retry(&path));
            let lines: Vec<Vec<u8>> = (0..1 + rng.below(60)).map(|_| fuzz_line(&mut rng)).collect();
            unsent.push(lines.iter().flat_map(|l| l.iter().copied().chain([b'\n'])).collect());
            scripts.push(lines);
        }
        // Round-robin, a random cut at a time (often mid-line).
        while unsent.iter().any(|bytes| !bytes.is_empty()) {
            for (stream, bytes) in streams.iter_mut().zip(&mut unsent) {
                let cut = bytes.len().min(1 + rng.below(48) as usize);
                stream.write_all(&bytes[..cut]).expect("send");
                bytes.drain(..cut);
            }
        }
        let mut seen = Seen::default();
        for (stream, lines) in streams.iter_mut().zip(&scripts) {
            let replies = read_replies(stream, lines.len());
            prop_assert_eq!(replies.len(), lines.len());
            for (line, reply) in lines.iter().zip(&replies) {
                if let Err(what) = seen.book(line, reply) {
                    prop_assert!(false, "seed {}: {}", seed, what);
                }
            }
        }
        // Nothing more than was asked for: the connections are quiet.
        for stream in &mut streams {
            stream.set_nonblocking(true).expect("non-blocking");
            let mut extra = [0u8; 64];
            match stream.read(&mut extra) {
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                other => prop_assert!(false, "seed {}: a reply nobody asked for: {:?}", seed, other),
            }
        }
        term.store(true, Ordering::SeqCst);
        let (stats, report) = server.join().expect("server thread");
        prop_assert_eq!(stats.admitted + stats.shed + seen.session_errors, seen.sessions_sent);
        prop_assert_eq!((stats.admitted, stats.shed), (seen.admitted, seen.shed));
        prop_assert_eq!(stats.lookups, seen.lookups_sent);
        prop_assert_eq!(report.sessions, stats.admitted);
        let _ = std::fs::remove_file(&path);
    }
}

/// A line over the cap is answered `ERR line too long` — without waiting
/// for its newline — and the connection is closed; a line of exactly the
/// cap is a line like any other; other connections never notice.
#[test]
fn an_oversize_line_is_refused_and_its_connection_closed() {
    let term = Arc::new(AtomicBool::new(false));
    let (path, server) = spawn("fuzz-oversize", &term);

    let mut at_cap = connect_with_retry(&path);
    let word = vec![b'A'; MAX_LINE];
    at_cap.write_all(&word).expect("send");
    at_cap.write_all(b"\nSTATS\n").expect("send");
    let replies = read_replies(&mut at_cap, 2);
    let echo = format!("ERR unknown request {}", String::from_utf8_lossy(&word));
    assert_eq!(replies[0], echo.as_bytes());
    assert!(replies[1].starts_with(b"STATS {"));

    for tail in [&b""[..], &b"\nSTATS\n"[..]] {
        let mut over = connect_with_retry(&path);
        over.write_all(b"STATS\n").expect("send");
        over.write_all(&vec![b'A'; MAX_LINE + 1]).expect("send");
        // The server may already have hung up on the tail.
        let _ = over.write_all(tail);
        let mut all = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match over.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => all.extend_from_slice(&chunk[..n]),
                // Closed with our bytes unread: a reset, after the data.
                Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
                Err(e) => panic!("the connection was not closed: {e}"),
            }
        }
        let text = String::from_utf8(all).expect("UTF-8 replies");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text:?}");
        assert!(lines[0].starts_with("STATS {"), "{text:?}");
        assert_eq!(lines[1], "ERR line too long");
    }

    at_cap.write_all(b"STATS\n").expect("send");
    assert!(read_replies(&mut at_cap, 1)[0].starts_with(b"STATS {"));
    term.store(true, Ordering::SeqCst);
    server.join().expect("server thread");
    let _ = std::fs::remove_file(&path);
}

/// A client that pipelines a megabyte of requests and never reads a
/// reply is stopped by back-pressure — the server stops reading it, so
/// its own socket fills — while another connection is served as usual;
/// when it goes away the server drops what it was owed and drains.
#[test]
fn a_client_that_never_reads_is_back_pressured_not_buffered() {
    const BURST: usize = 1 << 20;
    let term = Arc::new(AtomicBool::new(false));
    let (path, server) = spawn("fuzz-burst", &term);

    // STATS: 6 bytes in, about 115 out — a megabyte of them is owed
    // some 20 MiB of replies.
    let mut greedy = connect_with_retry(&path);
    let burst = b"STATS\n".repeat(BURST / 6);
    let sent = write_until_stuck(&mut greedy, &burst);
    assert!(
        sent < burst.len(),
        "the server read all {sent} bytes of a client that reads nothing"
    );

    let mut polite = connect_with_retry(&path);
    let t0 = Instant::now();
    polite.write_all(b"LOOKUP 0 1\nSTATS\n").expect("send");
    let replies = read_replies(&mut polite, 2);
    assert!(replies[0].starts_with(b"ABSENT "));
    assert!(replies[1].starts_with(b"STATS {"));
    assert!(t0.elapsed() < Duration::from_secs(5));

    drop(greedy);
    term.store(true, Ordering::SeqCst);
    let (stats, _) = server.join().expect("server thread");
    assert_eq!((stats.admitted, stats.shed, stats.lookups), (0, 0, 1));
    let _ = std::fs::remove_file(&path);
}

/// Clients that vanish mid-line, or with replies unread, cost nothing:
/// the partial line is never run, and the server drains on `term` with
/// its books balanced.
#[test]
fn mid_line_disconnects_are_not_requests() {
    let term = Arc::new(AtomicBool::new(false));
    let (path, server) = spawn("fuzz-hangup", &term);

    for i in 0..20u32 {
        let mut client = connect_with_retry(&path);
        // A complete session, then half of another, then gone.
        let lines = format!("SESSION {i} 1 60\nSESSION {} 1", 100 + i);
        client.write_all(lines.as_bytes()).expect("send");
        if i % 2 == 0 {
            let reply = read_replies(&mut client, 1);
            assert!(reply[0].starts_with(b"ADMITTED "), "{reply:?}");
        }
    }
    // Every connection above has been read to its end before this one
    // is answered (one loop, in accept order)...
    let mut last = connect_with_retry(&path);
    last.write_all(b"SESSION 50 1 60\n").expect("send");
    assert!(read_replies(&mut last, 1)[0].starts_with(b"ADMITTED "));
    term.store(true, Ordering::SeqCst);
    let (stats, report) = server.join().expect("server thread");
    // ...so the 21 complete sessions are in, and no half line is.
    assert_eq!((stats.admitted, stats.shed), (21, 0));
    assert_eq!(report.sessions, 21);
    let _ = std::fs::remove_file(&path);
}

/// A client that pipelines, reads nothing and never hangs up cannot hold
/// a drain: `DRAIN_DEADLINE` after `term` the server drops what that
/// client is still owed, counts it, and returns with its books balanced.
#[test]
fn a_stalled_client_cannot_hold_a_drain_past_its_deadline() {
    let term = Arc::new(AtomicBool::new(false));
    let (path, server) = spawn("fuzz-stall", &term);

    // Sessions (11 bytes back each) and STATS (some 115): written until
    // the server has stopped reading, so it owes more than the socket
    // will ever take.
    let mut stalled = connect_with_retry(&path);
    let burst: Vec<u8> = (0..1 << 16)
        .flat_map(|i| format!("SESSION {} {} 60\nSTATS\n", i % 130, i % 22).into_bytes())
        .collect();
    let sent = write_until_stuck(&mut stalled, &burst);
    assert!(sent < burst.len(), "the server read all {sent} bytes");

    term.store(true, Ordering::SeqCst);
    let draining = Instant::now();
    let (stats, report) = server.join().expect("server thread");
    let drained_in = draining.elapsed();
    assert!(
        drained_in >= DRAIN_DEADLINE / 2 && drained_in < DRAIN_DEADLINE + Duration::from_secs(2),
        "drained in {drained_in:?}"
    );
    assert!(stats.dropped_replies > 0, "what it was owed is counted");
    assert!(stats.sessions_seen > 0 && stats.admitted > 0);
    assert_eq!(
        stats.admitted + stats.shed + stats.session_errors,
        stats.sessions_seen
    );
    assert_eq!(report.sessions, stats.admitted);
    // It never hung up: the connection is still open on its side.
    drop(stalled);
    let _ = std::fs::remove_file(&path);
}

/// A client that connects and says nothing, and one that says half a
/// line and no more, hold nothing up: other connections are served, the
/// half line is never run, and with nothing owed a drain does not wait.
#[test]
fn a_silent_client_holds_nothing_up() {
    let term = Arc::new(AtomicBool::new(false));
    let (path, server) = spawn("fuzz-silent", &term);

    let mute = connect_with_retry(&path);
    let mut half = connect_with_retry(&path);
    half.write_all(b"SESSION 1 1").expect("send");
    let mut polite = connect_with_retry(&path);
    polite.write_all(b"SESSION 2 1 60\nSTATS\n").expect("send");
    let replies = read_replies(&mut polite, 2);
    assert_eq!(replies[0], b"ADMITTED 0");
    assert!(replies[1].starts_with(b"STATS {"));

    term.store(true, Ordering::SeqCst);
    let draining = Instant::now();
    let (stats, report) = server.join().expect("server thread");
    assert!(draining.elapsed() < DRAIN_DEADLINE / 2);
    assert_eq!((stats.connections, stats.sessions_seen), (3, 1));
    assert_eq!((stats.admitted, stats.dropped_replies), (1, 0));
    assert_eq!(report.sessions, 1);
    drop((mute, half));
    let _ = std::fs::remove_file(&path);
}

/// A client over the cap whose socket takes nothing is not kept for
/// ever, drain or no drain: `SLOW_READER_DEADLINE` after its socket last
/// took a byte the server closes it and counts what it was owed.
#[test]
fn a_client_that_never_reads_is_closed_at_the_slow_reader_deadline() {
    let term = Arc::new(AtomicBool::new(false));
    let (path, server) = spawn("fuzz-slow", &term);

    let mut slow = connect_with_retry(&path);
    let sent = write_until_stuck(&mut slow, &b"STATS\n".repeat(1 << 17));
    assert!(sent < 6 << 17, "the server read all {sent} bytes");
    let stuck = Instant::now();

    // Closed by the server, not by us: after what the socket held comes
    // the end of the stream (a reset, if requests of ours went unread).
    slow.set_nonblocking(false).expect("blocking");
    let mut chunk = [0u8; 1 << 16];
    std::thread::sleep(SLOW_READER_DEADLINE);
    loop {
        match slow.read(&mut chunk) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
            Err(e) => panic!("the connection was not closed: {e}"),
        }
    }
    assert!(stuck.elapsed() < SLOW_READER_DEADLINE + Duration::from_secs(3));

    term.store(true, Ordering::SeqCst);
    let (stats, _) = server.join().expect("server thread");
    assert_eq!(stats.slow_readers_closed, 1);
    assert!(stats.dropped_replies > 0);
    let _ = std::fs::remove_file(&path);
}
