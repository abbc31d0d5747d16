//! The socket front end: newline-framed requests over a TCP or Unix
//! socket, a bounded ingress queue with explicit shedding, an
//! epoch-invalidated response cache, and a drain-on-shutdown path.
//!
//! The wire protocol is specified in the [crate docs](crate). The serve
//! loop is single-threaded and its sockets are non-blocking: each pass
//! accepts new connections, reads and frames request lines, answers
//! `LOOKUP`/`STATS` immediately (through the response cache), and
//! batches `SESSION` admissions through the decision tier **at most once
//! per simulated second** — the engine's native granularity. Within a
//! second the bounded [`IngressQueue`] absorbs arrivals; when it is full,
//! further sessions are shed with an explicit `OVERLOADED` reply. Nothing
//! ever blocks on the decision tier and nothing is silently dropped.
//!
//! # What the loop blocks on
//!
//! A pass that found nothing to do ends in one `poll(2)` over the
//! listener (`POLLIN`) and every open connection (`POLLIN`, plus
//! `POLLOUT` only while reply bytes are waiting for the socket), so a
//! request is read when it arrives, not when a timer fires. What wakes
//! the loop: a readable or writable descriptor, a signal (`EINTR` — how
//! the bin's SIGTERM gets in), or the timeout, which is how long the
//! [`ClockSource`] says it is until its next second
//! ([`ClockSource::until_next_tick`]) and one millisecond for a clock
//! that cannot say. So the tick, the `term` flag and `max_sessions` are
//! looked at once a second under a [`WallClock`](crate::WallClock) and
//! every millisecond under a clock somebody else moves. A `term` raised
//! by another thread, or by a signal that lands between the check and
//! the wait, is seen at the next wake-up.
//!
//! Three things stay out of the poll set, because each would turn the
//! wait into a spin: a connection whose read side has ended (end of file
//! is always readable) — it is kept only until its owed replies are
//! written; the listener after an `accept` that failed for a reason
//! other than "none waiting" (`EMFILE`: the waiting connection stays
//! readable), until the next pass tries again; and a connection under
//! back-pressure (below).
//!
//! # Failing closed at the socket
//!
//! * A request line longer than [`MAX_LINE`] bytes is answered
//!   `ERR line too long` and the connection is closed: what follows an
//!   unframed line cannot be framed.
//! * A connection owed more than [`MAX_OWED`] (reply bytes not yet taken
//!   by its socket plus replies not yet rendered) is neither polled for
//!   input nor read until the client has read some: the client's writes
//!   block in its own socket buffer, and a client that never reads costs
//!   the server a bounded amount of memory. What is read ahead of framing
//!   is bounded the same way, per connection and pass.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::raw::c_short;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cablevod_hfc::ids::{ProgramId, UserId};
use cablevod_hfc::units::{SimDuration, SimTime};
use cablevod_sim::engine::online::{OnlineEngine, OnlinePlacement};
use cablevod_sim::SimError;
use cablevod_trace::record::SessionRecord;

use crate::cache::ResponseCache;
use crate::clock::ClockSource;
use crate::hist::LatencyHistogram;

/// The longest request line accepted, in bytes before the newline. Wire
/// lines are under 64 bytes; a longer one is answered `ERR line too long`
/// and its connection closed.
pub const MAX_LINE: usize = 4096;

/// Back-pressure threshold per connection: reply bytes its socket has not
/// taken yet plus replies not yet rendered. Above it the connection is
/// not read until the client has read some.
pub const MAX_OWED: usize = 64 * 1024;

/// How much of a connection's input is read ahead of framing, per pass.
const READ_AHEAD: usize = 16 * MAX_LINE;

/// The longest wait under a clock that cannot say when it next ticks.
const UNKNOWN_TICK_WAIT: Duration = Duration::from_millis(1);

/// `poll(2)`, declared directly against libc — the build environment
/// vendors stand-ins and cannot grow a `libc`/`mio` dependency (same
/// idiom as the trace crate's mmap shim and the bin's signal shim).
#[allow(unsafe_code)]
mod poll {
    use std::os::raw::{c_int, c_short};
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    pub(super) const POLLIN: c_short = 0x001;
    pub(super) const POLLOUT: c_short = 0x004;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NfdsT = std::os::raw::c_uint;

    /// `struct pollfd`.
    #[repr(C)]
    pub(super) struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    impl PollFd {
        pub(super) fn new(fd: RawFd, events: c_short) -> Self {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }

        #[cfg(test)]
        pub(super) fn interest(&self) -> (RawFd, c_short) {
            (self.fd, self.events)
        }
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }

    /// Blocks until a descriptor in `fds` is ready for what it asks, a
    /// signal arrives, or `timeout` (rounded up to a millisecond, at
    /// least one) has passed; returns how many are ready. A timeout,
    /// `EINTR` and any other error all read 0: every return is only a
    /// wake-up, and the caller finds out what happened from its
    /// non-blocking sockets.
    pub(super) fn wait(fds: &mut [PollFd], timeout: Duration) -> usize {
        let millis = c_int::try_from(timeout.as_micros().div_ceil(1000))
            .unwrap_or(c_int::MAX)
            .max(1);
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // `pollfd`s and `nfds` is its length, so the kernel reads and
        // writes only inside it; the descriptors need not even be open
        // (`poll` reports `POLLNVAL` for one that is not).
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, millis) };
        usize::try_from(ready).unwrap_or(0)
    }
}

/// Admission verdict from the ingress queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// The session was queued; it will reach the decision tier at the
    /// next batch.
    Queued,
    /// The queue was full; the session was shed (and counted).
    Shed,
}

/// The bounded admission queue between the socket and the decision
/// tier. Overflow is shed explicitly — the caller gets [`Admit::Shed`]
/// back immediately and the shed counter feeds the final report.
#[derive(Debug)]
pub struct IngressQueue {
    cap: usize,
    queue: VecDeque<(u64, SessionRecord)>,
    shed: u64,
}

impl IngressQueue {
    /// A queue admitting at most `cap` pending sessions.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        IngressQueue {
            cap: cap.max(1),
            queue: VecDeque::new(),
            shed: 0,
        }
    }

    /// Offers one session (tagged with a reply ticket); sheds when full.
    pub fn offer(&mut self, ticket: u64, rec: SessionRecord) -> Admit {
        if self.queue.len() >= self.cap {
            self.shed += 1;
            Admit::Shed
        } else {
            self.queue.push_back((ticket, rec));
            Admit::Queued
        }
    }

    /// Pops the oldest pending session.
    pub fn pop(&mut self) -> Option<(u64, SessionRecord)> {
        self.queue.pop_front()
    }

    /// Pending sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Sessions shed so far.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed
    }
}

/// Tunables for [`Server::run`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Ingress queue capacity (sessions pending decision).
    pub queue_cap: usize,
    /// Begin draining once this many sessions have been admitted
    /// (`None` = run until signalled).
    pub max_sessions: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_cap: 1024,
            max_sessions: None,
        }
    }
}

/// Final service counters, flushed as the `"serve"` half of the shutdown
/// JSON line.
#[derive(Debug)]
pub struct ServeStats {
    /// Sessions admitted through the decision tier.
    pub admitted: u64,
    /// Sessions shed at the ingress queue.
    pub shed: u64,
    /// `LOOKUP` requests served.
    pub lookups: u64,
    /// Lookups answered by the response cache at the current epoch.
    pub cache_hits: u64,
    /// Lookups that found only a stale-epoch entry (subset of misses).
    pub cache_stale: u64,
    /// The placement epoch at shutdown.
    pub epoch: u64,
    /// Decision latency (submit + advance per session batch).
    pub decision: LatencyHistogram,
    /// Lookup latency (cache hit or decision-tier read).
    pub lookup: LatencyHistogram,
}

impl ServeStats {
    /// The counters as one JSON object (the `"serve"` value of the final
    /// output line and the `STATS` reply payload).
    #[must_use]
    pub fn json(&self) -> String {
        format!(
            "{{\"admitted\":{},\"shed\":{},\"lookups\":{},\"cache_hits\":{},\
             \"cache_stale\":{},\"epoch\":{},\
             \"decision_p50_ns\":{},\"decision_p99_ns\":{},\"decision_p999_ns\":{},\
             \"lookup_p50_ns\":{},\"lookup_p99_ns\":{},\"lookup_p999_ns\":{}}}",
            self.admitted,
            self.shed,
            self.lookups,
            self.cache_hits,
            self.cache_stale,
            self.epoch,
            self.decision.p50_ns(),
            self.decision.p99_ns(),
            self.decision.p999_ns(),
            self.lookup.p50_ns(),
            self.lookup.p99_ns(),
            self.lookup.p999_ns(),
        )
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Unix(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }
}

enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Unix(s) => s.as_raw_fd(),
            Stream::Tcp(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A reply owed to a connection, in request order.
enum Reply {
    /// Computed synchronously; ready to flush.
    Ready(String),
    /// A queued `SESSION` awaiting its decision-tier verdict; resolved
    /// by ticket when the batch is submitted.
    Await(u64),
}

struct Conn {
    stream: Stream,
    inbuf: Vec<u8>,
    pending: VecDeque<Reply>,
    out: Vec<u8>,
    /// The read side has ended (end of file, an error, an oversize line);
    /// the connection lives on until what it is owed has been written.
    closed: bool,
}

impl Conn {
    fn new(stream: Stream) -> Self {
        Conn {
            stream,
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            out: Vec::new(),
            closed: false,
        }
    }

    /// Whether more input is wanted: the read side is open and the
    /// client is not over [`MAX_OWED`]. The poll set and [`read_conn`]
    /// both ask here, so a connection is never read while it is not
    /// polled, nor polled while it would not be read.
    fn wants_read(&self) -> bool {
        !self.closed && self.owed() <= MAX_OWED
    }

    /// Reply bytes the socket has not taken plus replies not yet
    /// rendered: what [`MAX_OWED`] bounds.
    fn owed(&self) -> usize {
        self.out.len() + self.pending.len()
    }

    /// The `poll` events this connection waits on; 0 keeps it out of the
    /// set (`poll` reports a hang-up whatever was asked for, so a
    /// descriptor with nothing to wait for must not be in it).
    fn interest(&self) -> c_short {
        let mut events = 0;
        if self.wants_read() {
            events |= poll::POLLIN;
        }
        if !self.out.is_empty() {
            events |= poll::POLLOUT;
        }
        events
    }
}

/// The socket server: accepts connections, frames requests, and runs the
/// serve loop against an online engine (see module docs).
pub struct Server {
    listener: Listener,
    conns: Vec<Conn>,
    /// The last `accept` failed for a reason other than "none waiting".
    accept_stalled: bool,
    /// The poll set, rebuilt for every wait and kept for its allocation.
    fds: Vec<poll::PollFd>,
}

impl Server {
    /// Binds a Unix-domain listener at `path`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (existing socket file, permissions).
    pub fn unix(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Ok(Server::over(Listener::Unix(listener)))
    }

    /// Binds a TCP listener at `addr` (e.g. `127.0.0.1:7070`).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn tcp(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server::over(Listener::Tcp(listener)))
    }

    fn over(listener: Listener) -> Self {
        Server {
            listener,
            conns: Vec::new(),
            accept_stalled: false,
            fds: Vec::new(),
        }
    }

    /// Runs the serve loop until `term` is raised (SIGTERM/SIGINT in the
    /// bin) or `config.max_sessions` is reached, then drains: stops
    /// accepting work, pushes every queued session through the decision
    /// tier, answers every owed reply, and returns the final counters.
    ///
    /// # Errors
    ///
    /// Propagates `advance_to` failures, which indicate a broken engine
    /// (what `submit` rejects — unknown users and programs, capacity
    /// exhaustion — is answered on the wire as `ERR`, and a full queue
    /// as `OVERLOADED`, instead).
    pub fn run(
        mut self,
        engine: &mut dyn OnlineEngine,
        clock: &mut dyn ClockSource,
        term: &AtomicBool,
        config: &ServerConfig,
    ) -> Result<ServeStats, SimError> {
        let mut queue = IngressQueue::new(config.queue_cap);
        let mut cache: ResponseCache<(u32, u32), OnlinePlacement> = ResponseCache::new();
        let mut decision = LatencyHistogram::new();
        let mut lookup_hist = LatencyHistogram::new();
        let mut lookups: u64 = 0;
        let mut admitted: u64 = 0;
        let mut next_ticket: u64 = 0;
        let mut resolved: HashMap<u64, String> = HashMap::new();
        // Arrival stamps are monotone and strictly after the last
        // advanced horizon (the decision tier's ordering contract).
        let mut next_stamp = SimTime::from_secs(0);
        let mut last_horizon: Option<SimTime> = None;
        let mut draining = false;

        loop {
            let mut worked = false;
            if !draining {
                worked |= self.accept();
                if term.load(Ordering::SeqCst) || config.max_sessions.is_some_and(|m| admitted >= m)
                {
                    draining = true;
                }
            }

            // Read and answer what can be answered synchronously.
            for conn in &mut self.conns {
                worked |= read_conn(conn);
                // Frame in place: lines are borrowed from `inbuf` behind
                // a cursor and the consumed prefix is dropped once.
                let mut cursor = 0;
                while conn.owed() <= MAX_OWED {
                    let reply = match next_frame(&conn.inbuf[cursor..]) {
                        Frame::Line(len) => {
                            let text = String::from_utf8_lossy(&conn.inbuf[cursor..cursor + len]);
                            cursor += len + 1;
                            handle_line(
                                text.trim_end_matches('\r'),
                                draining,
                                engine,
                                clock,
                                &mut queue,
                                &mut cache,
                                &mut lookup_hist,
                                &mut lookups,
                                &mut next_ticket,
                                &mut next_stamp,
                                last_horizon,
                            )
                        }
                        Frame::Partial => break,
                        Frame::TooLong => {
                            conn.closed = true;
                            cursor = conn.inbuf.len();
                            Reply::Ready("ERR line too long".into())
                        }
                    };
                    conn.pending.push_back(reply);
                    worked = true;
                }
                conn.inbuf.drain(..cursor);
            }

            // Batch admissions through the decision tier at most once
            // per simulated second (always while draining).
            let now = clock.now();
            let due = last_horizon.is_none_or(|h| now > h);
            if (due || draining) && !queue.is_empty() {
                let horizon = next_stamp.max(now);
                let t0 = Instant::now();
                let mut batch: u64 = 0;
                while let Some((ticket, rec)) = queue.pop() {
                    match engine.submit(rec) {
                        Ok(gidx) => {
                            admitted += 1;
                            batch += 1;
                            resolved.insert(ticket, format!("ADMITTED {gidx}"));
                        }
                        Err(SimError::Config { reason }) => {
                            resolved.insert(ticket, format!("ERR {reason}"));
                        }
                        // `submit` rejects before it changes anything
                        // (a user or program the plant does not have),
                        // so the request fails, not the service.
                        Err(rejected) => {
                            resolved.insert(ticket, format!("ERR {rejected}"));
                        }
                    }
                }
                if engine.advance_to(horizon)? {
                    cache.advance_epoch(engine.epoch());
                }
                last_horizon = Some(horizon);
                if batch > 0 {
                    let per_session = u64::try_from(t0.elapsed().as_nanos() / u128::from(batch))
                        .unwrap_or(u64::MAX);
                    for _ in 0..batch {
                        decision.record(per_session);
                    }
                }
                worked = true;
            } else if due && !draining {
                // An empty second still moves the engine's horizon along
                // so timed faults and expiries fire on schedule.
                if engine.advance_to(now)? {
                    cache.advance_epoch(engine.epoch());
                }
                last_horizon = Some(now);
            }

            worked |= self.flush(&mut resolved);
            self.conns
                .retain(|c| !(c.closed && c.pending.is_empty() && c.out.is_empty()));

            if draining && queue.is_empty() && self.conns.iter().all(|c| c.pending.is_empty()) {
                break;
            }
            if !worked {
                let timeout = clock.until_next_tick().unwrap_or(UNKNOWN_TICK_WAIT);
                poll::wait(self.poll_set(draining), timeout);
            }
        }

        Ok(ServeStats {
            admitted,
            shed: queue.shed(),
            lookups,
            cache_hits: cache.hits(),
            cache_stale: cache.stale(),
            epoch: engine.epoch(),
            decision,
            lookup: lookup_hist,
        })
    }

    fn accept(&mut self) -> bool {
        let mut accepted = false;
        loop {
            let stream = match &self.listener {
                Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
                Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            };
            match stream {
                Ok(stream) => {
                    let ok = match &stream {
                        Stream::Unix(s) => s.set_nonblocking(true).is_ok(),
                        Stream::Tcp(s) => s.set_nonblocking(true).is_ok(),
                    };
                    if ok {
                        self.conns.push(Conn::new(stream));
                        accepted = true;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                    ) => {}
                Err(e) => {
                    self.accept_stalled = e.kind() != ErrorKind::WouldBlock;
                    break;
                }
            }
        }
        accepted
    }

    /// Rebuilds the poll set (see the module docs for who is in it).
    fn poll_set(&mut self, draining: bool) -> &mut [poll::PollFd] {
        self.fds.clear();
        if !draining && !self.accept_stalled {
            self.fds
                .push(poll::PollFd::new(self.listener.as_raw_fd(), poll::POLLIN));
        }
        for conn in &self.conns {
            let events = conn.interest();
            if events != 0 {
                self.fds
                    .push(poll::PollFd::new(conn.stream.as_raw_fd(), events));
            }
        }
        &mut self.fds
    }

    /// Flushes owed replies in request order, stopping at the first
    /// still-unresolved ticket, then drains each connection's write
    /// buffer as far as the socket allows.
    fn flush(&mut self, resolved: &mut HashMap<u64, String>) -> bool {
        let mut worked = false;
        for conn in &mut self.conns {
            loop {
                match conn.pending.front() {
                    Some(Reply::Ready(_)) => {
                        if let Some(Reply::Ready(text)) = conn.pending.pop_front() {
                            conn.out.extend_from_slice(text.as_bytes());
                            conn.out.push(b'\n');
                        }
                    }
                    Some(Reply::Await(ticket)) => match resolved.remove(ticket) {
                        Some(text) => {
                            conn.pending.pop_front();
                            conn.out.extend_from_slice(text.as_bytes());
                            conn.out.push(b'\n');
                        }
                        None => break,
                    },
                    None => break,
                }
            }
            while !conn.out.is_empty() {
                match conn.stream.write(&conn.out) {
                    Ok(n) if n > 0 => {
                        conn.out.drain(..n);
                        worked = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    // The peer is gone: what it was owed is dropped,
                    // which may lift its back-pressure, so look again.
                    Ok(_) | Err(_) => {
                        conn.closed = true;
                        conn.out.clear();
                        worked = true;
                    }
                }
            }
        }
        worked
    }
}

/// Reads what the socket holds, up to [`READ_AHEAD`] buffered bytes,
/// unless the connection does not want input.
fn read_conn(conn: &mut Conn) -> bool {
    let mut any = false;
    let mut tmp = [0u8; 4096];
    while conn.wants_read() && conn.inbuf.len() < READ_AHEAD {
        match conn.stream.read(&mut tmp) {
            Ok(0) => conn.closed = true,
            Ok(n) => {
                conn.inbuf.extend_from_slice(&tmp[..n]);
                any = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => conn.closed = true,
        }
    }
    any
}

/// What the unframed bytes of a connection start with.
#[derive(Debug, PartialEq, Eq)]
enum Frame {
    /// A complete line of this many bytes, then its newline.
    Line(usize),
    /// No newline yet, and still room for one.
    Partial,
    /// More than [`MAX_LINE`] bytes without a newline.
    TooLong,
}

fn next_frame(rest: &[u8]) -> Frame {
    let window = &rest[..rest.len().min(MAX_LINE + 1)];
    match window.iter().position(|&b| b == b'\n') {
        Some(len) => Frame::Line(len),
        None if window.len() > MAX_LINE => Frame::TooLong,
        None => Frame::Partial,
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_line(
    line: &str,
    draining: bool,
    engine: &mut dyn OnlineEngine,
    clock: &mut dyn ClockSource,
    queue: &mut IngressQueue,
    cache: &mut ResponseCache<(u32, u32), OnlinePlacement>,
    lookup_hist: &mut LatencyHistogram,
    lookups: &mut u64,
    next_ticket: &mut u64,
    next_stamp: &mut SimTime,
    last_horizon: Option<SimTime>,
) -> Reply {
    let mut parts = line.split_whitespace();
    match parts.next() {
        Some("SESSION") => {
            if draining {
                return Reply::Ready("ERR draining".into());
            }
            let (Some(user), Some(program), Some(duration)) = (
                parse_u32(parts.next()),
                parse_u32(parts.next()),
                parse_u64(parts.next()),
            ) else {
                return Reply::Ready(
                    "ERR usage: SESSION <user> <program> <duration_secs> [<offset_secs>]".into(),
                );
            };
            let offset = parse_u64(parts.next()).unwrap_or(0);
            // Stamp strictly after the last advanced horizon, never
            // regressing (the decision tier's ordering contract).
            let floor = last_horizon.map_or(0, |h| h.as_secs() + 1);
            let stamp = SimTime::from_secs(clock.now().as_secs().max(floor)).max(*next_stamp);
            *next_stamp = stamp;
            let mut rec = SessionRecord::new(
                UserId::new(user),
                ProgramId::new(program),
                stamp,
                SimDuration::from_secs(duration),
            );
            rec.offset = SimDuration::from_secs(offset);
            let ticket = *next_ticket;
            *next_ticket += 1;
            match queue.offer(ticket, rec) {
                Admit::Queued => Reply::Await(ticket),
                Admit::Shed => Reply::Ready("OVERLOADED".into()),
            }
        }
        Some("LOOKUP") => {
            let (Some(nbhd), Some(program)) = (parse_u32(parts.next()), parse_u32(parts.next()))
            else {
                return Reply::Ready("ERR usage: LOOKUP <nbhd> <program>".into());
            };
            let t0 = Instant::now();
            *lookups += 1;
            let placement = match cache.get(&(nbhd, program)) {
                Some(hit) => hit,
                None => match engine.lookup(nbhd, ProgramId::new(program)) {
                    Ok(fresh) => {
                        cache.insert((nbhd, program), fresh);
                        fresh
                    }
                    Err(SimError::Config { reason }) => {
                        return Reply::Ready(format!("ERR {reason}"));
                    }
                    Err(_) => return Reply::Ready("ERR lookup failed".into()),
                },
            };
            let reply = match placement.location {
                Some(peer) => format!("PLACED {} {}", cache.epoch(), peer.value()),
                None => format!("ABSENT {}", cache.epoch()),
            };
            lookup_hist.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            Reply::Ready(reply)
        }
        Some("STATS") => Reply::Ready(format!(
            "STATS {{\"admitted\":{},\"queued\":{},\"shed\":{},\"lookups\":{},\
             \"cache_hits\":{},\"epoch\":{}}}",
            engine.submitted(),
            queue.len(),
            queue.shed(),
            *lookups,
            cache.hits(),
            engine.epoch(),
        )),
        Some(other) => Reply::Ready(format!("ERR unknown request {other}")),
        None => Reply::Ready("ERR empty request".into()),
    }
}

fn parse_u32(token: Option<&str>) -> Option<u32> {
    token.and_then(|t| t.parse().ok())
}

fn parse_u64(token: Option<&str>) -> Option<u64> {
    token.and_then(|t| t.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Conn, UnixStream) {
        let (ours, theirs) = UnixStream::pair().expect("socket pair");
        ours.set_nonblocking(true).expect("non-blocking");
        (Conn::new(Stream::Unix(ours)), theirs)
    }

    fn over_the_cap(conn: &mut Conn) {
        for ticket in 0..=MAX_OWED as u64 {
            conn.pending.push_back(Reply::Await(ticket));
        }
    }

    #[test]
    fn frames_lines_in_place_and_caps_their_length() {
        assert_eq!(next_frame(b""), Frame::Partial);
        assert_eq!(next_frame(b"STATS"), Frame::Partial);
        assert_eq!(next_frame(b"STATS\nLOOKUP 0 1\n"), Frame::Line(5));
        assert_eq!(next_frame(b"\n"), Frame::Line(0));
        assert_eq!(next_frame(b"STATS\r\n"), Frame::Line(6));
        // Exactly MAX_LINE bytes is a line, with or without its newline
        // yet; one more is not, however far away the newline is.
        let mut line = vec![b'x'; MAX_LINE];
        assert_eq!(next_frame(&line), Frame::Partial);
        line.push(b'\n');
        assert_eq!(next_frame(&line), Frame::Line(MAX_LINE));
        line.insert(0, b'x');
        assert_eq!(next_frame(&line), Frame::TooLong);
        assert_eq!(next_frame(&vec![0u8; 3 * MAX_LINE]), Frame::TooLong);
    }

    #[test]
    fn pollout_is_asked_for_only_while_bytes_are_owed() {
        let (mut conn, _peer) = pair();
        assert_eq!(conn.interest(), poll::POLLIN);
        conn.out.extend_from_slice(b"ABSENT 0\n");
        assert_eq!(conn.interest(), poll::POLLIN | poll::POLLOUT);
        // A reply still waiting for its verdict is not bytes to write.
        conn.out.clear();
        conn.pending.push_back(Reply::Await(0));
        assert_eq!(conn.interest(), poll::POLLIN);
    }

    #[test]
    fn a_closed_connection_is_never_polled_for_input() {
        let (mut conn, peer) = pair();
        drop(peer);
        assert!(!read_conn(&mut conn));
        assert!(conn.closed, "end of file ends the read side");
        // Still owed a verdict: kept, but with nothing to wait for it
        // stays out of the set (end of file is always readable).
        conn.pending.push_back(Reply::Await(0));
        assert_eq!(conn.interest(), 0);
        conn.out.extend_from_slice(b"ADMITTED 0\n");
        assert_eq!(conn.interest(), poll::POLLOUT);
    }

    #[test]
    fn a_back_pressured_connection_is_neither_polled_nor_read() {
        let (mut conn, mut peer) = pair();
        peer.write_all(b"STATS\n").expect("send");
        over_the_cap(&mut conn);
        assert!(!conn.wants_read());
        assert_eq!(conn.interest(), 0);
        assert!(!read_conn(&mut conn));
        assert!(conn.inbuf.is_empty(), "left in the socket for later");
        // Reply bytes count against the same cap, and keep POLLOUT on.
        conn.pending.clear();
        conn.out.resize(MAX_OWED + 1, b'x');
        assert_eq!(conn.interest(), poll::POLLOUT);
        assert!(!read_conn(&mut conn));
        // Once the client has read some, the request is picked up.
        conn.out.truncate(MAX_OWED);
        assert_eq!(conn.interest(), poll::POLLIN | poll::POLLOUT);
        assert!(read_conn(&mut conn));
        assert_eq!(conn.inbuf, b"STATS\n");
    }

    #[test]
    fn reading_ahead_of_framing_is_bounded() {
        let (mut conn, mut peer) = pair();
        peer.set_nonblocking(true).expect("non-blocking");
        let burst = vec![b'x'; 4 * READ_AHEAD];
        let mut sent = 0;
        while sent < burst.len() {
            match peer.write(&burst[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => panic!("send: {e}"),
            }
        }
        assert!(read_conn(&mut conn));
        // Everything the socket took (its buffer may be the smaller), up
        // to the bound and the one chunk that crosses it.
        assert!(conn.inbuf.len() >= sent.min(READ_AHEAD));
        assert!(conn.inbuf.len() < READ_AHEAD + 4096);
    }

    #[test]
    fn the_poll_set_holds_the_listener_and_the_connections_that_wait() {
        let path =
            std::env::temp_dir().join(format!("cablevod-pollset-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut server = Server::unix(&path).expect("bind");
        let listener = server.listener.as_raw_fd();
        let (open, _open_peer) = pair();
        let (mut owing, _owing_peer) = pair();
        owing.out.extend_from_slice(b"ABSENT 0\n");
        let (mut parked, _parked_peer) = pair();
        parked.closed = true;
        parked.pending.push_back(Reply::Await(0));
        let (open_fd, owing_fd) = (open.stream.as_raw_fd(), owing.stream.as_raw_fd());
        server.conns.extend([open, owing, parked]);

        let set = |server: &mut Server, draining: bool| -> Vec<(RawFd, c_short)> {
            let fds = server.poll_set(draining);
            fds.iter().map(poll::PollFd::interest).collect()
        };
        let conns = [
            (open_fd, poll::POLLIN),
            (owing_fd, poll::POLLIN | poll::POLLOUT),
        ];
        let mut with_listener = vec![(listener, poll::POLLIN)];
        with_listener.extend(conns);
        assert_eq!(set(&mut server, false), with_listener);
        // No accepting while draining, nor right after a failed accept.
        assert_eq!(set(&mut server, true), conns);
        server.accept_stalled = true;
        assert_eq!(set(&mut server, false), conns);
        // The next accept that finds nobody waiting lifts the stall.
        assert!(!server.accept());
        assert_eq!(set(&mut server, false), with_listener);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_wait_ends_on_readiness_or_on_the_timeout() {
        let (conn, mut peer) = pair();
        let fd = conn.stream.as_raw_fd();
        let t0 = Instant::now();
        let ready = poll::wait(
            &mut [poll::PollFd::new(fd, poll::POLLIN)],
            Duration::from_millis(20),
        );
        assert_eq!(ready, 0, "nothing to read yet");
        assert!(t0.elapsed() >= Duration::from_millis(20));
        // Writable at once; readable as soon as the peer has written.
        let mut fds = [poll::PollFd::new(fd, poll::POLLOUT)];
        assert_eq!(poll::wait(&mut fds, Duration::from_secs(30)), 1);
        peer.write_all(b"STATS\n").expect("send");
        let t0 = Instant::now();
        let mut fds = [poll::PollFd::new(fd, poll::POLLIN)];
        assert_eq!(poll::wait(&mut fds, Duration::from_secs(30)), 1);
        assert!(t0.elapsed() < Duration::from_secs(10));
        // An empty set is a plain timed wait.
        assert_eq!(poll::wait(&mut [], Duration::from_micros(1)), 0);
    }
}
