//! The `serve_socket` workload: `Server::unix` + `serve_serial` on one
//! thread, one client thread on one connection — the only true socket
//! path: line framing, the ingress queue, per-tick batching through the
//! decision tier, reply flush, the idle sleep.
//!
//! The client replays a trace's records in order as `SESSION` lines,
//! every fifth request a `LOOKUP` of the preceding session's
//! neighbourhood and program. Open-loop phases at fixed rates time each
//! request from the instant it was *due*; a closed-loop phase then
//! finds the saturation rate. The measuring time is cut into rounds that
//! each run every phase once, and a metric is the median over rounds of
//! the round's value, so a slow stretch of the host moves some rounds of
//! every phase, not one phase's whole measurement.
//!
//! The clock trap: under `WallClock` the server batches once per *wall
//! second* and under a never-waited `AcceleratedClock` it withholds
//! replies until drain, so neither yields a latency. The benchmark
//! paces the server with its own `ClockSource`: one millisecond of wall
//! time is one simulated second.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cablevod_cache::StrategySpec;
use cablevod_hfc::units::SimTime;
use cablevod_serve::{
    replay_trace, AcceleratedClock, ClockSource, DecisionTier, ServeStats, Server, ServerConfig,
};
use cablevod_sim::{serve_serial, OnlineSpec, SimConfig, SimError, SimReport};
use cablevod_trace::rechunk::neighborhood_groups;
use cablevod_trace::record::Trace;
use cablevod_trace::synth::generate;

use crate::calib::{normalise, Calibrator};
use crate::harness::{peak_rss_mb, Outcome, TempDir};
use crate::layers;
use crate::metrics::{Ledger, SERVE_RATES};
use crate::offline::{base_config, calib_rows, synth};
use crate::span::{SpanId, Tracer};
use crate::stats;
use crate::{check_cores, RunArgs, SETUP_REPS};

const USERS: u32 = 15_000;
/// Large enough that a 100 ms host stall at 100k req/s cannot shed (a
/// 4096-entry queue did, in probe runs).
const QUEUE_CAP: usize = 65_536;
/// Sessions the engine's feed is sized for; every run stays far below.
const ENGINE_CAPACITY: u64 = 1 << 22;
/// Requests in flight in the closed loop.
const CLOSED_OUTSTANDING: usize = 512;
/// The measuring time is cut into this many rounds, each running every
/// phase once: the host's speed moves in plateaus of seconds to minutes,
/// and a phase measured in one stretch sits on one plateau, while a
/// phase spread over the run sees the same mix of them every run.
const ROUNDS: u32 = 10;
/// Closed-loop windows in a round, each with a calibration sample on
/// both sides: long enough for a hundred batches, short enough that
/// calibration brackets it tightly.
const CLOSED_WINDOWS_PER_ROUND: u32 = 2;
/// A closed-loop window is a fixed number of requests, this many per
/// second of its share of the round (about today's saturation rate, so
/// it lasts about its share), not a fixed time: the sessions it leaves
/// active in the engine are work for the open-loop phases of the next
/// round, and their number must not depend on how fast the window ran.
const CLOSED_NOMINAL_RATE: f64 = 200_000.0;
/// The latency limit a rate must meet at its windowed p99.
const LATENCY_LIMIT_US: f64 = 20_000.0;
/// How long the client waits for owed replies before calling them
/// unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Shares of a round (and so of the measuring time): the three
/// open-loop rates, then the closed loop.
const PHASE_SHARES: [f64; 4] = [1.0 / 8.0, 3.0 / 8.0, 2.0 / 8.0, 2.0 / 8.0];

/// One millisecond of wall time is one simulated second.
struct BenchClock {
    started: Instant,
}

impl ClockSource for BenchClock {
    fn now(&mut self) -> SimTime {
        SimTime::from_secs(u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX))
    }

    fn wait_until(&mut self, t: SimTime) {
        while self.now() < t {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// An open-loop send schedule: request `i` is due `i / rate` seconds
/// after the phase starts, whatever the system under test is doing.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start_ns: u64,
    interval_ns: f64,
    total: u64,
}

impl OpenLoop {
    pub fn new(start_ns: u64, rate_per_s: u32, total: u64) -> Self {
        OpenLoop {
            start_ns,
            interval_ns: 1e9 / f64::from(rate_per_s),
            total,
        }
    }

    /// When request `i` is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.start_ns + (i as f64 * self.interval_ns) as u64
    }

    /// How many requests are due at or before `now_ns`.
    pub fn due_by(&self, now_ns: u64) -> u64 {
        if now_ns < self.start_ns {
            return 0;
        }
        let due = ((now_ns - self.start_ns) as f64 / self.interval_ns) as u64 + 1;
        due.min(self.total)
    }
}

/// A request awaiting its reply.
#[derive(Debug, Clone, Copy)]
struct Owed {
    due_ns: u64,
    lookup: bool,
}

/// What the replies of one phase added up to.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub sessions_sent: u64,
    pub lookups_sent: u64,
    pub admitted: u64,
    pub shed: u64,
    pub errors: u64,
    /// Replies that do not answer the request at the head of the line:
    /// malformed, or out of order.
    pub malformed: u64,
    pub unanswered: u64,
    /// `(round, latency in µs)`.
    pub samples: Vec<(u32, f64)>,
    /// How late the generator sent a request, at worst.
    pub late_ns_max: u64,
    /// Per open-loop round: how long after the last request was due the
    /// last reply arrived, in µs.
    pub tails_us: Vec<f64>,
}

impl Tally {
    pub fn sent(&self) -> u64 {
        self.sessions_sent + self.lookups_sent
    }

    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.malformed + self.unanswered
    }

    fn absorb(&mut self, other: &Tally) {
        self.sessions_sent += other.sessions_sent;
        self.lookups_sent += other.lookups_sent;
        self.admitted += other.admitted;
        self.shed += other.shed;
        self.errors += other.errors;
        self.malformed += other.malformed;
        self.unanswered += other.unanswered;
        self.late_ns_max = self.late_ns_max.max(other.late_ns_max);
    }

    /// Books one reply line against the request it must answer.
    pub fn classify(&mut self, lookup: bool, line: &[u8]) {
        let mut words = line.split(|b| *b == b' ');
        let head = words.next().unwrap_or_default();
        let numbers = words
            .map(|w| {
                std::str::from_utf8(w)
                    .ok()
                    .and_then(|w| w.parse::<u64>().ok())
            })
            .collect::<Option<Vec<u64>>>();
        match (lookup, head, numbers.as_deref()) {
            (false, b"ADMITTED", Some([_])) => self.admitted += 1,
            (false, b"OVERLOADED", Some([])) => self.shed += 1,
            (true, b"PLACED", Some([_, _])) | (true, b"ABSENT", Some([_])) => {}
            (_, b"ERR", _) => self.errors += 1,
            _ => self.malformed += 1,
        }
    }
}

/// The requests the client cycles through, rendered once.
struct Script {
    bytes: Vec<u8>,
    /// `ends[i]` is one past request `i`'s newline.
    ends: Vec<usize>,
    lookup: Vec<bool>,
    /// The distinct `(neighbourhood, program)` pairs the lookups ask.
    lookup_keys: Vec<(u32, u32)>,
}

impl Script {
    fn render(trace: &Trace, neighborhood_size: u32) -> Result<Script, String> {
        let groups = neighborhood_groups(trace.user_count(), neighborhood_size)
            .map_err(|e| format!("neighbourhood groups: {e}"))?;
        let mut script = Script {
            bytes: Vec::new(),
            ends: Vec::new(),
            lookup: Vec::new(),
            lookup_keys: Vec::new(),
        };
        for (i, rec) in trace.records().iter().enumerate() {
            writeln!(
                script.bytes,
                "SESSION {} {} {} {}",
                rec.user.value(),
                rec.program.value(),
                rec.duration.as_secs(),
                rec.offset.as_secs()
            )
            .expect("writing to a Vec cannot fail");
            script.ends.push(script.bytes.len());
            script.lookup.push(false);
            if i % 4 == 3 {
                let key = (groups[rec.user.index()], rec.program.value());
                writeln!(script.bytes, "LOOKUP {} {}", key.0, key.1)
                    .expect("writing to a Vec cannot fail");
                script.ends.push(script.bytes.len());
                script.lookup.push(true);
                script.lookup_keys.push(key);
            }
        }
        script.lookup_keys.sort_unstable();
        script.lookup_keys.dedup();
        if script.ends.is_empty() {
            return Err("the serve trace is empty".into());
        }
        Ok(script)
    }

    fn len(&self) -> u64 {
        self.ends.len() as u64
    }

    /// The bytes of requests `from..to` of one cycle.
    fn slice(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 { 0 } else { self.ends[from - 1] };
        &self.bytes[start..self.ends[to - 1]]
    }
}

/// The client end of the one connection.
struct Client<'a> {
    stream: UnixStream,
    script: &'a Script,
    origin: Instant,
    /// Requests sent so far, over every phase (the script cycles).
    cursor: u64,
    owed: VecDeque<Owed>,
    inbuf: Vec<u8>,
}

impl<'a> Client<'a> {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sends the next `count` requests, each stamped by `due_ns` of its
    /// index within the batch and booked under `round`; replies are
    /// read while the socket is full.
    fn send(
        &mut self,
        count: u64,
        due_ns: impl Fn(u64) -> u64,
        tally: &mut Tally,
        round: u32,
    ) -> Result<(), String> {
        let cycle = self.script.len();
        let mut i = 0;
        while i < count {
            let from = ((self.cursor + i) % cycle) as usize;
            let run = (count - i).min(cycle - from as u64);
            let to = from + run as usize;
            for k in 0..run {
                let lookup = self.script.lookup[from + k as usize];
                if lookup {
                    tally.lookups_sent += 1;
                } else {
                    tally.sessions_sent += 1;
                }
                self.owed.push_back(Owed {
                    due_ns: due_ns(i + k),
                    lookup,
                });
            }
            let script = self.script;
            let mut bytes = script.slice(from, to);
            while !bytes.is_empty() {
                match self.stream.write(bytes) {
                    Ok(0) => return Err("the server closed the connection".into()),
                    Ok(n) => bytes = &bytes[n..],
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        self.pump(tally, round)?;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("socket write: {e}")),
                }
            }
            i += run;
        }
        self.cursor += count;
        Ok(())
    }

    /// Reads every reply the socket holds and books each against the
    /// oldest owed request; returns how many arrived.
    fn pump(&mut self, tally: &mut Tally, round: u32) -> Result<u64, String> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("the server closed the connection".into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("socket read: {e}")),
            }
        }
        let now = self.now_ns();
        let mut arrived = 0;
        let mut consumed = 0;
        while let Some(len) = self.inbuf[consumed..].iter().position(|b| *b == b'\n') {
            let line = &self.inbuf[consumed..consumed + len];
            consumed += len + 1;
            arrived += 1;
            match self.owed.pop_front() {
                Some(owed) => {
                    tally.classify(owed.lookup, line);
                    tally
                        .samples
                        .push((round, now.saturating_sub(owed.due_ns) as f64 / 1e3));
                }
                None => tally.malformed += 1,
            }
        }
        self.inbuf.drain(..consumed);
        Ok(arrived)
    }

    /// Waits for every owed reply; what never comes is unanswered.
    fn settle(&mut self, tally: &mut Tally, round: u32) -> Result<(), String> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while !self.owed.is_empty() {
            self.pump(tally, round)?;
            if Instant::now() >= deadline {
                tally.unanswered += self.owed.len() as u64;
                self.owed.clear();
            }
        }
        Ok(())
    }

    /// One round of an open-loop phase: `count` requests at `rate` per
    /// second, booked in `tally` after the `round`s before it.
    fn open_loop(
        &mut self,
        rate: u32,
        count: u64,
        round: u32,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let schedule = OpenLoop::new(self.now_ns(), rate, count);
        let mut sent = 0;
        while sent < count {
            let now = self.now_ns();
            let due = schedule.due_by(now);
            if due > sent {
                tally.late_ns_max = tally.late_ns_max.max(now - schedule.due_ns(sent));
                self.send(due - sent, |i| schedule.due_ns(sent + i), tally, round)?;
                sent = due;
            }
            self.pump(tally, round)?;
        }
        self.settle(tally, round)?;
        let tail_ns = self.now_ns().saturating_sub(schedule.due_ns(count - 1));
        tally.tails_us.push(tail_ns as f64 / 1e3);
        Ok(())
    }

    /// One closed-loop window: `requests` requests with
    /// `CLOSED_OUTSTANDING` of them in flight, then the line drains.
    /// Returns the tally and the window's wall seconds.
    fn closed_loop_window(
        &mut self,
        requests: u64,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> Result<(Tally, f64), String> {
        let mut tally = Tally::default();
        let start = self.now_ns();
        while tally.sent() < requests {
            let room = (CLOSED_OUTSTANDING - self.owed.len()) as u64;
            if room > 0 {
                let _span = tracer.span("serve.client.send", parent, self.cursor);
                let now = self.now_ns();
                self.send(room.min(requests - tally.sent()), |_| now, &mut tally, 0)?;
            }
            self.pump(&mut tally, 0)?;
        }
        self.settle(&mut tally, 0)?;
        let wall = (self.now_ns() - start) as f64 / 1e9;
        tally.samples.clear();
        Ok((tally, wall))
    }
}

/// The path to bind and connect at: relative to the working directory
/// when the socket lies below it, because a Unix socket address holds
/// about a hundred bytes and a checkout's absolute path may not fit.
fn socket_address(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

/// What the server thread hands back when it has drained.
type Served = Result<(ServeStats, SimReport), SimError>;

fn serve(server: Server, trace: &Trace, config: &SimConfig, term: &AtomicBool) -> Served {
    let spec = OnlineSpec {
        catalog: trace.catalog(),
        user_count: trace.user_count(),
        days: trace.days(),
        capacity: ENGINE_CAPACITY,
        schedule_records: None,
    };
    let strategy = config.strategy().factory();
    let server_config = ServerConfig {
        queue_cap: QUEUE_CAP,
        max_sessions: None,
    };
    let mut clock = BenchClock {
        started: Instant::now(),
    };
    serve_serial(&spec, config, strategy.as_ref(), |engine| {
        server.run(engine, &mut clock, term, &server_config)
    })
}

/// The phases of one round, in requests and seconds.
struct Plan {
    /// Per open-loop rate: `(rate, requests in a round)`.
    open: [(u32, u64); 3],
    closed_window_requests: u64,
}

impl Plan {
    fn new(seconds: f64) -> Plan {
        let round_s = seconds / f64::from(ROUNDS);
        let count =
            |i: usize| ((f64::from(SERVE_RATES[i]) * round_s * PHASE_SHARES[i]) as u64).max(1);
        Plan {
            open: [
                (SERVE_RATES[0], count(0)),
                (SERVE_RATES[1], count(1)),
                (SERVE_RATES[2], count(2)),
            ],
            closed_window_requests: ((CLOSED_NOMINAL_RATE * round_s * PHASE_SHARES[3]
                / f64::from(CLOSED_WINDOWS_PER_ROUND)) as u64)
                .max(1),
        }
    }
}

/// Everything the client measured between connect and drain.
struct Measured {
    /// Per open-loop rate, over all rounds.
    open: [Tally; 3],
    /// Per closed-loop window: `(tally, wall seconds, calibration ms,
    /// spans on)`.
    closed: Vec<(Tally, f64, f64, bool)>,
    drain_s: f64,
    stats: ServeStats,
    report: SimReport,
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    check_cores(2)?;
    let tracer = Tracer::new(args.trace);
    let quiet = Tracer::new(false);
    let tmp = TempDir::create()?;
    let mut calib = Calibrator::new();
    let config = base_config().with_strategy(StrategySpec::Lru);
    let socket = socket_address(&tmp.join("serve.sock"));
    // The traced run measures for half as long.
    let plan = Plan::new(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });

    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut measured = None;
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let calib_before = calib.sample_ms();
        let started = Instant::now();
        let trace = {
            let _span = tracer.span("trace.generate", None, rep);
            generate(&synth(USERS, args.seed))
        };
        generate_s.push(started.elapsed().as_secs_f64());
        let script = Script::render(&trace, config.neighborhood_size())?;
        let term = AtomicBool::new(false);
        let result = std::thread::scope(|scope| -> Result<Option<Measured>, String> {
            let server = {
                let _span = tracer.span("serve.bind", None, rep);
                Server::unix(&socket).map_err(|e| format!("bind {}: {e}", socket.display()))?
            };
            let handle = scope.spawn(|| serve(server, &trace, &config, &term));
            // From here on the server thread must be told to stop
            // whatever happens, or the scope never ends.
            let client = connect(&socket, &script);
            let raw_s = started.elapsed().as_secs_f64();
            setup_s.push(normalise(
                raw_s,
                (calib_before + calib.sample_for(raw_s)) / 2.0,
            ));
            let phases = match (client, last) {
                (Ok(mut client), true) => {
                    drive(&mut client, &plan, &mut calib, &tracer, &quiet).map(Some)
                }
                (Ok(_), false) => Ok(None),
                (Err(e), _) => Err(e),
            };
            let draining = Instant::now();
            term.store(true, Ordering::SeqCst);
            let served = {
                let _span = tracer.span("serve.drain", None, rep);
                handle.join()
            };
            let drain_s = draining.elapsed().as_secs_f64();
            let (stats, report) = served
                .map_err(|_| "the server thread panicked".to_string())?
                .map_err(|e| format!("serve: {e}"))?;
            Ok(phases?.map(|(open, closed)| Measured {
                open,
                closed,
                drain_s,
                stats,
                report,
            }))
        });
        let _ = std::fs::remove_file(&socket);
        if let Some(m) = result? {
            measured = Some(m);
            kept = Some((trace, script));
        }
    }
    let m = measured.ok_or("SETUP_REPS is at least one")?;
    let (trace, script) = kept.ok_or("SETUP_REPS is at least one")?;

    // Totals and conservation.
    let mut total = Tally::default();
    for tally in m.open.iter().chain(m.closed.iter().map(|w| &w.0)) {
        total.absorb(tally);
    }
    let mut broken = Vec::new();
    let mut law = |holds: bool, what: String| {
        if !holds {
            broken.push(what);
        }
    };
    law(
        m.stats.admitted + m.stats.shed + total.errors == total.sessions_sent,
        format!(
            "admitted {} + shed {} + ERR {} != SESSION sent {}",
            m.stats.admitted, m.stats.shed, total.errors, total.sessions_sent
        ),
    );
    law(
        m.report.sessions == m.stats.admitted,
        format!(
            "report.sessions {} != admitted {}",
            m.report.sessions, m.stats.admitted
        ),
    );
    law(
        m.stats.lookups == total.lookups_sent,
        format!(
            "lookups {} != LOOKUP sent {}",
            m.stats.lookups, total.lookups_sent
        ),
    );
    law(
        total.admitted == m.stats.admitted && total.shed == m.stats.shed,
        format!(
            "client saw {} ADMITTED / {} OVERLOADED, server counted {} / {}",
            total.admitted, total.shed, m.stats.admitted, m.stats.shed
        ),
    );
    for what in &broken {
        eprintln!("serve_socket: conservation broken: {what}");
    }
    let attempted = total.sent();
    let failed = (total.failed() + broken.len() as u64).min(attempted);

    // The closed loop, window by window at that window's host speed.
    let rate = |pick: fn(&Tally) -> u64, spans: bool, norm: bool| {
        let rates: Vec<f64> = m
            .closed
            .iter()
            .filter(|w| w.3 == spans)
            .map(|(tally, wall_s, calib_ms, _)| {
                let secs = if norm {
                    normalise(*wall_s, *calib_ms)
                } else {
                    *wall_s
                };
                pick(tally) as f64 / secs
            })
            .collect();
        stats::median(&rates)
    };
    // A phase's latency percentile: the median over rounds of each
    // round's percentile; over all rounds at once where a round is too
    // short to carry it.
    let latency = |phase: usize, p: f64| -> f64 {
        let samples = &m.open[phase].samples;
        stats::window_percentile(samples, p).unwrap_or_else(|| {
            stats::percentile(&samples.iter().map(|s| s.1).collect::<Vec<f64>>(), p)
        })
    };

    if !args.trace {
        let rss = peak_rss_mb()?;
        eprintln!(
            "serve_socket: closed loop raw {:.0} req/s over {} windows, calibration {:.3} ms; \
             open loop worst lateness {:.3} ms",
            rate(Tally::sent, false, false),
            m.closed.len(),
            stats::median(&m.closed.iter().map(|w| w.2).collect::<Vec<f64>>()),
            total.late_ns_max as f64 / 1e6
        );
        let mut metrics = Ledger::end_to_end();
        metrics.set("setup_s", stats::median(&setup_s));
        metrics.set("norm_sessions_per_s", rate(|t| t.admitted, false, true));
        metrics.set("answer_ms_p50", latency(1, 50.0) / 1e3);
        metrics.set("peak_rss_mb", rss);
        return Ok(Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        });
    }

    let mut l = Ledger::per_layer();
    let raw_req_rate = rate(Tally::sent, false, false);
    l.set("serve.norm_req_per_s_max", rate(Tally::sent, false, true));
    l.set("host.raw_req_per_s_max", raw_req_rate);
    l.set(
        "host.raw_sessions_per_s",
        rate(|t| t.admitted, false, false),
    );
    l.set(
        "host.trace_overhead_pct",
        (rate(Tally::sent, false, true) / rate(Tally::sent, true, true) - 1.0) * 100.0,
    );
    l.set("host.iterations", m.closed.len() as f64);
    l.set("host.generator_late_ms_max", total.late_ns_max as f64 / 1e6);

    // The decision tier alone: the same records replayed in-process.
    let strategy = config.strategy().factory();
    let (replayed, _, replay_s) = {
        let _span = tracer.span("sim.online.replay", None, 0);
        calib.timed(|| {
            let mut clock = AcceleratedClock::default();
            replay_trace(
                &trace,
                &config,
                strategy.as_ref(),
                DecisionTier::Serial,
                &mut clock,
            )
        })
    };
    let replayed = replayed.map_err(|e| format!("in-process replay: {e}"))?;
    let online_ns = replay_s * 1e9 / replayed.submitted.max(1) as f64;
    l.set("sim.online_ns_per_session", online_ns);
    l.set(
        "serve.socket_ns_per_request",
        1e9 / raw_req_rate - online_ns,
    );
    l.set("serve.decision_ns_mean", m.stats.decision.mean_ns() as f64);
    l.set("serve.lookup_ns_mean", m.stats.lookup.mean_ns() as f64);
    l.set(
        "serve.cache_hit_share",
        m.stats.cache_hits as f64 / m.stats.lookups.max(1) as f64,
    );
    l.set(
        "serve.queue_offer_pop_ns",
        layers::queue_offer_pop_ns(trace.records(), &mut calib, &tracer),
    );
    l.set(
        "serve.response_cache_get_ns",
        layers::response_cache_get_ns(&script.lookup_keys, &mut calib, &tracer),
    );
    l.set(
        "serve.hist_record_ns",
        layers::hist_record_ns(&mut calib, &tracer),
    );

    // Latency at each fixed rate, and the highest rate that meets the
    // limit with nothing shed and no backlog left growing.
    let mut max_rate_ok = 0.0;
    let mut windowed = Vec::new();
    for (phase, (rate, _)) in plan.open.iter().enumerate() {
        let p99w = latency(phase, 99.0);
        windowed.push(p99w);
        let tally = &m.open[phase];
        if p99w <= LATENCY_LIMIT_US
            && tally.failed() == 0
            && stats::median(&tally.tails_us) <= LATENCY_LIMIT_US
        {
            max_rate_ok = f64::from(*rate);
        }
    }
    l.set("serve.idle_floor_us", latency(0, 50.0));
    l.set("serve.latency_p90_us.r50000", latency(1, 90.0));
    l.set("serve.latency_p99w_us.r50000", windowed[1]);
    l.set("serve.latency_p50_us.r100000", latency(2, 50.0));
    l.set("serve.latency_p99w_us.r100000", windowed[2]);
    l.set("serve.max_rate_ok", max_rate_ok);
    l.set("serve.drain_ms", m.drain_s * 1e3);
    l.set("serve.admitted", m.stats.admitted as f64);
    l.set("serve.shed", m.stats.shed as f64);
    l.set("serve.lookups", m.stats.lookups as f64);
    l.set("serve.epoch", m.stats.epoch as f64);

    l.set(
        "trace.synth_ns_per_session",
        stats::median(&generate_s) * 1e9 / trace.len().max(1) as f64,
    );
    l.set(
        "hfc.topology_build_ms",
        layers::topology_build_ms(trace.user_count(), &config, &mut calib, &tracer)?,
    );
    calib_rows(&mut l, &calib);

    crate::write_span_file("serve_socket", &tracer)?;
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: l,
    })
}

fn connect<'a>(socket: &Path, script: &'a Script) -> Result<Client<'a>, String> {
    let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    Ok(Client {
        stream,
        script,
        origin: Instant::now(),
        cursor: 0,
        owed: VecDeque::new(),
        inbuf: Vec::new(),
    })
}

/// The measured rounds: in each, the three open-loop rates, then
/// closed-loop windows with a calibration sample on both sides of each.
/// In a traced run the windows alternate spans on and off, which is what
/// tracing costs.
#[allow(clippy::type_complexity)]
fn drive(
    client: &mut Client<'_>,
    plan: &Plan,
    calib: &mut Calibrator,
    tracer: &Tracer,
    quiet: &Tracer,
) -> Result<([Tally; 3], Vec<(Tally, f64, f64, bool)>), String> {
    let mut open: [Tally; 3] = Default::default();
    let mut closed = Vec::new();
    for round in 0..ROUNDS {
        for (tally, &(rate, count)) in open.iter_mut().zip(&plan.open) {
            let _span = tracer.span("serve.phase.open_loop", None, u64::from(rate));
            client.open_loop(rate, count, round, tally)?;
        }
        let mut before = calib.sample_ms();
        for window in 0..CLOSED_WINDOWS_PER_ROUND {
            // On in every other window, and first in every other round.
            let spans = tracer.enabled() && (round + window) % 2 == 1;
            let tracer = if spans { tracer } else { quiet };
            let id = u64::from(round * CLOSED_WINDOWS_PER_ROUND + window);
            let span = tracer.span("serve.phase.closed_loop", None, id);
            let (tally, wall_s) =
                client.closed_loop_window(plan.closed_window_requests, tracer, span.id())?;
            drop(span);
            let after = calib.sample_for(wall_s);
            closed.push((tally, wall_s, (before + after) / 2.0, spans));
            before = after;
        }
    }
    Ok((open, closed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_due_times_and_lateness_on_a_fake_clock() {
        // 1000 req/s from t = 5 ms: request i is due at 5 ms + i ms.
        let schedule = OpenLoop::new(5_000_000, 1_000, 10);
        assert_eq!(schedule.due_ns(0), 5_000_000);
        assert_eq!(schedule.due_ns(3), 8_000_000);
        // Before the phase nothing is due; at its start exactly one is.
        assert_eq!(schedule.due_by(4_999_999), 0);
        assert_eq!(schedule.due_by(5_000_000), 1);
        assert_eq!(schedule.due_by(5_999_999), 1);
        assert_eq!(schedule.due_by(7_000_000), 3);
        // Never more than the phase holds.
        assert_eq!(schedule.due_by(1_000_000_000), 10);

        // A generator stalled until t = 9.5 ms finds 5 requests due and
        // sends them all at once; the oldest is 4.5 ms late, and each is
        // still timed from its own due instant.
        let now = 9_500_000;
        let due = schedule.due_by(now);
        assert_eq!(due, 5);
        let late: Vec<u64> = (0..due).map(|i| now - schedule.due_ns(i)).collect();
        assert_eq!(late, [4_500_000, 3_500_000, 2_500_000, 1_500_000, 500_000]);
        assert_eq!(late.iter().max(), Some(&4_500_000));
    }

    #[test]
    fn replies_are_booked_against_the_request_they_answer() {
        let mut tally = Tally::default();
        tally.classify(false, b"ADMITTED 17");
        tally.classify(false, b"OVERLOADED");
        tally.classify(false, b"ERR draining");
        tally.classify(true, b"PLACED 3 41");
        tally.classify(true, b"ABSENT 3");
        assert_eq!((tally.admitted, tally.shed, tally.errors), (1, 1, 1));
        assert_eq!(tally.malformed, 0);
        // A reply of the wrong kind for the request at the head of the
        // line means replies are out of order; junk is junk.
        tally.classify(true, b"ADMITTED 17");
        tally.classify(false, b"PLACED 3 41");
        tally.classify(false, b"ADMITTED");
        tally.classify(false, b"ADMITTED x");
        tally.classify(true, b"");
        assert_eq!(tally.malformed, 5);
        assert_eq!(tally.failed(), 1 + 1 + 5);
    }

    #[test]
    fn the_plan_scales_with_the_time_box() {
        // 20 s in 10 rounds of 2 s: 1/8, 3/8 and 1/4 of a round at the
        // three rates, then 1/4 of it in two closed-loop windows at the
        // nominal 200 000 req/s.
        let plan = Plan::new(20.0);
        assert_eq!(
            plan.open,
            [(1_000, 250), (50_000, 37_500), (100_000, 50_000)]
        );
        assert_eq!(plan.closed_window_requests, 50_000);
        assert_eq!(Plan::new(10.0).closed_window_requests, 25_000);
        let least = Plan::new(0.0001);
        assert_eq!((least.open[0].1, least.closed_window_requests), (1, 1));
    }

    #[test]
    fn the_script_interleaves_a_lookup_after_every_fourth_session() {
        let trace = generate(&cablevod_trace::synth::SynthConfig {
            users: 200,
            programs: 40,
            days: 1,
            ..cablevod_trace::synth::SynthConfig::smoke_test()
        });
        let script = Script::render(&trace, 100).unwrap();
        let text = String::from_utf8(script.bytes.clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, script.len());
        assert_eq!(lines.len(), trace.len() + trace.len() / 4);
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(line.starts_with("LOOKUP "), i % 5 == 4, "line {i}: {line}");
            assert_eq!(script.lookup[i], i % 5 == 4);
        }
        assert_eq!(
            script.slice(0, 2),
            format!("{}\n{}\n", lines[0], lines[1]).as_bytes()
        );
        assert_eq!(script.slice(4, 5), format!("{}\n", lines[4]).as_bytes());
    }
}
