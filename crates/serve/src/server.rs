//! The socket front end: newline-framed requests over a TCP or Unix
//! socket, answered as they are read, with explicit shedding, an
//! epoch-invalidated response cache, and a drain-on-shutdown path that
//! ends in bounded time.
//!
//! The wire protocol is specified in the [crate docs](crate). The serve
//! loop is single-threaded and its sockets are non-blocking. Every reply
//! is known when its line is read, so every line is answered on arrival:
//! `LOOKUP`/`STATS` through the response cache, and a `SESSION` by being
//! stamped and handed to the decision tier's `submit` at once — its
//! `ADMITTED <gidx>` is rendered straight into the connection's reply
//! bytes. What is batched is the **advance**: `advance_to` runs at most
//! once per simulated second — the engine's native granularity — and no
//! reply carries anything it computes. Between two advances at most
//! `queue_cap` sessions are staged; further ones are shed with an
//! explicit `OVERLOADED` reply. Nothing ever blocks on the decision tier
//! and nothing is silently dropped.
//!
//! # What the loop blocks on
//!
//! Every pass begins with one `poll(2)` over the listener (`POLLIN`) and
//! every open connection (`POLLIN`, plus `POLLOUT` only after a write
//! that would have blocked), and then acts on what `poll` reported: one
//! `accept` if the listener was readable, one read — straight into the
//! connection's input buffer — on each readable connection, one write of
//! the replies that read produced. So a request is read when it arrives,
//! not when a timer fires, and an idle pass makes no system call but the
//! `poll`. What wakes the loop: a ready descriptor, a signal (`EINTR` —
//! how the bin's SIGTERM gets in), or the timeout, which is how long the
//! [`ClockSource`] says it is until its next second
//! ([`ClockSource::until_next_tick`]) and one millisecond for a clock
//! that cannot say — cut short by the nearest of the two deadlines below.
//! So the tick, the `term` flag and `max_sessions` are looked at once a
//! second under a [`WallClock`](crate::WallClock) and every millisecond
//! under a clock somebody else moves. A `term` raised by another thread,
//! or by a signal that lands between the check and the wait, is seen at
//! the next wake-up.
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
//! * A connection owed more than [`MAX_OWED`] reply bytes its socket has
//!   not taken is neither polled for input nor read until the client has
//!   read some: the client's writes block in its own socket buffer, and a
//!   client that never reads costs the server a bounded amount of memory.
//!   What is read ahead of framing is bounded by the input buffer.
//! * A connection over [`MAX_OWED`] whose socket has taken nothing for
//!   [`SLOW_READER_DEADLINE`] is closed and what it was owed dropped.
//! * A drain that still owes replies [`DRAIN_DEADLINE`] after it began
//!   drops them and returns. Both deadlines are measured on
//!   [`Instant`], not on the [`ClockSource`], and every dropped reply is
//!   counted ([`ServeStats::dropped_replies`]).

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::raw::c_short;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cablevod_hfc::ids::{PeerId, ProgramId, UserId};
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
/// taken yet. Above it the connection is not read until the client has
/// read some.
pub const MAX_OWED: usize = 64 * 1024;

/// How long a connection over [`MAX_OWED`] may go without its socket
/// taking a byte before it is closed and what it is owed dropped.
pub const SLOW_READER_DEADLINE: Duration = Duration::from_secs(5);

/// How long a drain waits for sockets to take the replies they are owed
/// before it drops them and returns.
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(2);

/// A connection's input buffer: how much is read ahead of framing.
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
        /// An entry waiting for `events` on `fd`; one that waits for
        /// nothing holds descriptor -1, which `poll` skips (it reports a
        /// hang-up on a real one whatever was asked for).
        pub(super) fn new(fd: RawFd, events: c_short) -> Self {
            PollFd {
                fd: if events == 0 { -1 } else { fd },
                events,
                revents: 0,
            }
        }

        /// Whether the last wait found something to read here: input, end
        /// of file, a hang-up or an error (a read tells which).
        pub(super) fn readable(&self) -> bool {
            self.revents & !POLLOUT != 0
        }

        /// Whether the last wait found room to write here, or a hang-up
        /// or an error (a write tells which).
        pub(super) fn writable(&self) -> bool {
            self.revents & !POLLIN != 0
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
    /// `EINTR` and any other error all read 0 (and leave every entry
    /// "not ready"): every return is only a wake-up.
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

/// Admission verdict from an [`IngressQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// The session was queued.
    Queued,
    /// The queue was full; the session was shed.
    Shed,
}

/// A bounded queue of sessions tagged with a reply ticket. The server no
/// longer holds one — a session goes to the decision tier as it is read
/// and `queue_cap` bounds what is staged between two advances — and the
/// type remains only because the frozen repo benchmark
/// (`benchmark/src/layers.rs`) times it; it goes with the benchmark
/// refresh that can change both sides (ROADMAP item 3).
#[derive(Debug)]
pub struct IngressQueue {
    cap: usize,
    queue: VecDeque<(u64, SessionRecord)>,
}

impl IngressQueue {
    /// A queue admitting at most `cap` pending sessions.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        IngressQueue {
            cap: cap.max(1),
            queue: VecDeque::new(),
        }
    }

    /// Offers one session (tagged with a reply ticket); sheds when full.
    pub fn offer(&mut self, ticket: u64, rec: SessionRecord) -> Admit {
        if self.queue.len() >= self.cap {
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
}

/// Tunables for [`Server::run`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// How many sessions may be staged between two advances of the
    /// decision tier; further ones are shed.
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
/// JSON line. The server holds itself to two laws when it drains
/// (`debug_assert!`): `admitted + shed + session_errors == sessions_seen`,
/// and the decision tier was handed exactly `admitted` sessions.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// `SESSION` lines read.
    pub sessions_seen: u64,
    /// Sessions admitted through the decision tier.
    pub admitted: u64,
    /// Sessions shed because `queue_cap` were already staged.
    pub shed: u64,
    /// `SESSION` lines answered `ERR`.
    pub session_errors: u64,
    /// `LOOKUP` requests served.
    pub lookups: u64,
    /// Lookups answered by the response cache at the current epoch.
    pub cache_hits: u64,
    /// Lookups that found only a stale-epoch entry (subset of misses).
    pub cache_stale: u64,
    /// The placement epoch at shutdown.
    pub epoch: u64,
    /// Replies rendered and never delivered: the peer was gone, or one of
    /// the two deadlines passed.
    pub dropped_replies: u64,
    /// Connections closed at [`SLOW_READER_DEADLINE`].
    pub slow_readers_closed: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Passes of the serve loop: one `poll` each.
    pub passes: u64,
    /// `accept` calls: one per pass that found the listener readable.
    pub accept_calls: u64,
    /// Socket reads: one per readable connection and pass.
    pub read_calls: u64,
    /// Socket writes.
    pub write_calls: u64,
    /// Engine time per admitted session: per advance, the time spent in
    /// `submit` since the last one plus the `advance_to`, divided among
    /// the sessions it staged.
    pub decision: LatencyHistogram,
    /// Lookup latency (cache hit or decision-tier read).
    pub lookup: LatencyHistogram,
}

impl ServeStats {
    /// The counters as one JSON object (the `"serve"` value of the final
    /// output line).
    #[must_use]
    pub fn json(&self) -> String {
        format!(
            "{{\"sessions_seen\":{},\"admitted\":{},\"shed\":{},\"session_errors\":{},\
             \"lookups\":{},\"cache_hits\":{},\"cache_stale\":{},\"epoch\":{},\
             \"dropped_replies\":{},\"slow_readers_closed\":{},\"connections\":{},\
             \"passes\":{},\"accept_calls\":{},\"read_calls\":{},\"write_calls\":{},\
             \"decision_p50_ns\":{},\"decision_p99_ns\":{},\"decision_p999_ns\":{},\
             \"lookup_p50_ns\":{},\"lookup_p99_ns\":{},\"lookup_p999_ns\":{}}}",
            self.sessions_seen,
            self.admitted,
            self.shed,
            self.session_errors,
            self.lookups,
            self.cache_hits,
            self.cache_stale,
            self.epoch,
            self.dropped_replies,
            self.slow_readers_closed,
            self.connections,
            self.passes,
            self.accept_calls,
            self.read_calls,
            self.write_calls,
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

struct Conn {
    stream: Stream,
    /// Input not yet framed: `inbuf[..filled]`. Allocated ([`READ_AHEAD`]
    /// bytes) at the first read and never resized, so a read lands
    /// straight in it.
    inbuf: Vec<u8>,
    filled: usize,
    /// Replies in request order; `out[sent..]` is what the socket has not
    /// taken yet.
    out: Vec<u8>,
    sent: usize,
    /// Since when the socket has refused every byte offered. While set,
    /// nothing is written until `poll` reports room.
    blocked_since: Option<Instant>,
    /// The read side has ended (end of file, an error, an oversize line);
    /// the connection lives on until what it is owed has been written.
    closed: bool,
}

impl Conn {
    fn new(stream: Stream) -> Self {
        Conn {
            stream,
            inbuf: Vec::new(),
            filled: 0,
            out: Vec::new(),
            sent: 0,
            blocked_since: None,
            closed: false,
        }
    }

    /// Whether more input is wanted: the read side is open and the
    /// client is not over [`MAX_OWED`]. The poll set and [`Conn::fill`]
    /// both ask here, so a connection is never read while it is not
    /// polled, nor polled while it would not be read.
    fn wants_read(&self) -> bool {
        !self.closed && self.owed() <= MAX_OWED
    }

    /// Reply bytes the socket has not taken: what [`MAX_OWED`] bounds.
    fn owed(&self) -> usize {
        self.out.len() - self.sent
    }

    /// The `poll` events this connection waits on; 0 keeps it out of the
    /// set.
    fn interest(&self) -> c_short {
        let mut events = 0;
        if self.wants_read() {
            events |= poll::POLLIN;
        }
        if self.blocked_since.is_some() {
            events |= poll::POLLOUT;
        }
        events
    }

    /// One read of what the socket holds, into the free part of the
    /// input buffer, unless the connection does not want input. A short
    /// read has emptied the socket; after a full one it stays readable
    /// and the next pass reads on.
    fn fill(&mut self, stats: &mut ServeStats) {
        if self.inbuf.is_empty() {
            self.inbuf = vec![0; READ_AHEAD];
        }
        while self.wants_read() && self.filled < self.inbuf.len() {
            stats.read_calls += 1;
            match self.stream.read(&mut self.inbuf[self.filled..]) {
                Ok(0) => self.closed = true,
                Ok(n) => {
                    self.filled += n;
                    break;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.closed = true,
            }
        }
    }

    /// Answers every complete line of the input buffer, in order, into
    /// `out`, and drops what it consumed. Returns whether it stopped for
    /// back-pressure — lines may be left — and not for want of a line.
    fn frame(&mut self, service: &mut Service<'_>) -> bool {
        let mut head = 0;
        let backed_up = loop {
            if self.owed() > MAX_OWED {
                break true;
            }
            match next_frame(&self.inbuf[head..self.filled]) {
                Frame::Line(len) => {
                    service.answer(&self.inbuf[head..head + len], &mut self.out);
                    head += len + 1;
                }
                Frame::Partial => break false,
                Frame::TooLong => {
                    self.closed = true;
                    head = self.filled;
                    self.out.extend_from_slice(b"ERR line too long\n");
                }
            }
        };
        self.inbuf.copy_within(head..self.filled, 0);
        self.filled -= head;
        backed_up
    }

    /// Writes owed bytes until the socket has them all or would block.
    fn flush(&mut self, stats: &mut ServeStats) {
        while self.sent < self.out.len() {
            stats.write_calls += 1;
            match self.stream.write(&self.out[self.sent..]) {
                Ok(n) if n > 0 => {
                    self.sent += n;
                    self.blocked_since = None;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.blocked_since.get_or_insert_with(Instant::now);
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // The peer is gone.
                Ok(_) | Err(_) => self.abandon(stats),
            }
        }
        // The cursor moves per write; the bytes behind it are dropped
        // once the socket has everything, or once per MAX_OWED sent.
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        } else if self.sent >= MAX_OWED {
            self.out.drain(..self.sent);
            self.sent = 0;
        }
    }

    /// Serves the connection for one pass: reads if `poll` said there is
    /// something to read, answers what is framed, and writes the answers
    /// unless the socket is known to be full.
    fn serve(&mut self, readable: bool, writable: bool, service: &mut Service<'_>) {
        if readable {
            self.fill(&mut service.stats);
        }
        loop {
            let backed_up = self.frame(service);
            if self.blocked_since.is_none() || writable {
                self.flush(&mut service.stats);
            }
            if !backed_up || self.owed() > MAX_OWED {
                break;
            }
        }
    }

    /// How long until [`SLOW_READER_DEADLINE`] closes this connection,
    /// if it is on its way there: over [`MAX_OWED`] and blocked.
    fn deadline_in(&self) -> Option<Duration> {
        let since = self.blocked_since.filter(|_| self.owed() > MAX_OWED)?;
        Some(SLOW_READER_DEADLINE.saturating_sub(since.elapsed()))
    }

    /// Closes the connection and drops, counted, what it is owed.
    fn abandon(&mut self, stats: &mut ServeStats) {
        let lost = self.out[self.sent..].iter().filter(|&&b| b == b'\n');
        stats.dropped_replies += lost.count() as u64;
        self.out.clear();
        self.sent = 0;
        self.blocked_since = None;
        self.closed = true;
    }
}

/// What a request line is answered from: the decision tier, the clock
/// that stamps arrivals, the response cache and the books.
struct Service<'a> {
    engine: &'a mut dyn OnlineEngine,
    clock: &'a mut dyn ClockSource,
    cache: ResponseCache<(u32, u32), OnlinePlacement>,
    queue_cap: u64,
    /// Arrival stamps are monotone and strictly after the last advanced
    /// horizon (the decision tier's ordering contract).
    next_stamp: SimTime,
    last_horizon: Option<SimTime>,
    /// Sessions submitted since the last advance, and the time `submit`
    /// took for them.
    staged: u64,
    submit_ns: u64,
    /// Since when the server is draining, once it is.
    draining_since: Option<Instant>,
    stats: ServeStats,
}

impl Service<'_> {
    /// Answers one request line into `out`. Words are separated by ASCII
    /// white space.
    fn answer(&mut self, line: &[u8], out: &mut Vec<u8>) {
        let mut words = line
            .split(|b| matches!(b, b'\t'..=b'\r' | b' '))
            .filter(|word| !word.is_empty());
        // Writing to a `Vec` cannot fail.
        let _ = match words.next() {
            Some(b"SESSION") => {
                self.stats.sessions_seen += 1;
                match self.session(&mut words) {
                    Ok(Some(gidx)) => writeln!(out, "ADMITTED {gidx}"),
                    Ok(None) => {
                        self.stats.shed += 1;
                        writeln!(out, "OVERLOADED")
                    }
                    Err(reason) => {
                        self.stats.session_errors += 1;
                        writeln!(out, "ERR {reason}")
                    }
                }
            }
            Some(b"LOOKUP") => match self.lookup(&mut words) {
                Ok((epoch, Some(peer))) => writeln!(out, "PLACED {epoch} {}", peer.value()),
                Ok((epoch, None)) => writeln!(out, "ABSENT {epoch}"),
                Err(reason) => writeln!(out, "ERR {reason}"),
            },
            Some(b"STATS") => writeln!(
                out,
                "STATS {{\"sessions_seen\":{},\"admitted\":{},\"queued\":{},\"shed\":{},\
                 \"session_errors\":{},\"lookups\":{},\"cache_hits\":{},\"epoch\":{}}}",
                self.stats.sessions_seen,
                self.stats.admitted,
                self.staged,
                self.stats.shed,
                self.stats.session_errors,
                self.stats.lookups,
                self.cache.hits(),
                self.engine.epoch(),
            ),
            // The word is echoed as text, so it ends where text does.
            _ => match String::from_utf8_lossy(line).split_whitespace().next() {
                Some(other) => writeln!(out, "ERR unknown request {other}"),
                None => writeln!(out, "ERR empty request"),
            },
        };
    }

    /// The one place a session is submitted: stamped, shed if `queue_cap`
    /// are staged already (`None`), otherwise handed to the decision tier
    /// at once, which names its global index or says why not.
    fn session<'l>(
        &mut self,
        args: &mut impl Iterator<Item = &'l [u8]>,
    ) -> Result<Option<u64>, String> {
        if self.draining_since.is_some() {
            return Err("draining".into());
        }
        let (Some(user), Some(program), Some(duration)) = (
            number(args.next()),
            number(args.next()),
            number(args.next()),
        ) else {
            return Err("usage: SESSION <user> <program> <duration_secs> [<offset_secs>]".into());
        };
        let offset = number(args.next()).unwrap_or(0);
        if self.staged >= self.queue_cap {
            return Ok(None);
        }
        // Stamp strictly after the last advanced horizon, never
        // regressing (the decision tier's ordering contract).
        let floor = self.last_horizon.map_or(0, |h| h.as_secs() + 1);
        let stamp = SimTime::from_secs(self.clock.now().as_secs().max(floor)).max(self.next_stamp);
        self.next_stamp = stamp;
        let mut rec = SessionRecord::new(
            UserId::new(user),
            ProgramId::new(program),
            stamp,
            SimDuration::from_secs(duration),
        );
        rec.offset = SimDuration::from_secs(offset);
        let t0 = Instant::now();
        let verdict = self.engine.submit(rec);
        self.submit_ns += nanos_since(t0);
        match verdict {
            Ok(gidx) => {
                self.staged += 1;
                self.stats.admitted += 1;
                Ok(Some(gidx))
            }
            // `submit` rejects before it changes anything (a user or
            // program the plant does not have), so the request fails,
            // not the service.
            Err(SimError::Config { reason }) => Err(reason),
            Err(rejected) => Err(rejected.to_string()),
        }
    }

    /// A placement, through the response cache, and the epoch it holds
    /// at.
    fn lookup<'l>(
        &mut self,
        args: &mut impl Iterator<Item = &'l [u8]>,
    ) -> Result<(u64, Option<PeerId>), String> {
        let (Some(nbhd), Some(program)) = (number(args.next()), number(args.next())) else {
            return Err("usage: LOOKUP <nbhd> <program>".into());
        };
        let t0 = Instant::now();
        self.stats.lookups += 1;
        let placement = match self.cache.get(&(nbhd, program)) {
            Some(hit) => hit,
            None => match self.engine.lookup(nbhd, ProgramId::new(program)) {
                Ok(fresh) => {
                    self.cache.insert((nbhd, program), fresh);
                    fresh
                }
                Err(SimError::Config { reason }) => return Err(reason),
                Err(_) => return Err("lookup failed".into()),
            },
        };
        self.stats.lookup.record(nanos_since(t0));
        Ok((self.cache.epoch(), placement.location))
    }

    /// The one place the engine is advanced: at most once per simulated
    /// second (an empty second still moves the horizon along, so timed
    /// faults and expiries fire on schedule), and once more for what a
    /// drain finds staged.
    fn tick(&mut self) -> Result<(), SimError> {
        let now = self.clock.now();
        let due = self.last_horizon.is_none_or(|h| now > h);
        if !(due || self.draining_since.is_some() && self.staged > 0) {
            return Ok(());
        }
        let horizon = self.next_stamp.max(now);
        let t0 = Instant::now();
        if self.engine.advance_to(horizon)? {
            self.cache.advance_epoch(self.engine.epoch());
        }
        self.last_horizon = Some(horizon);
        if let Some(per_session) = (self.submit_ns + nanos_since(t0)).checked_div(self.staged) {
            for _ in 0..self.staged {
                self.stats.decision.record(per_session);
            }
        }
        self.staged = 0;
        self.submit_ns = 0;
        Ok(())
    }

    /// Closes the books: checks the two laws and fills in what the cache
    /// and the engine counted.
    fn finish(mut self, submitted_before: u64) -> ServeStats {
        let stats = &mut self.stats;
        debug_assert_eq!(
            stats.admitted + stats.shed + stats.session_errors,
            stats.sessions_seen,
            "every SESSION line is admitted, shed or refused"
        );
        debug_assert_eq!(
            self.engine.submitted() - submitted_before,
            stats.admitted,
            "the decision tier holds what was admitted"
        );
        stats.cache_hits = self.cache.hits();
        stats.cache_stale = self.cache.stale();
        stats.epoch = self.engine.epoch();
        self.stats
    }
}

fn nanos_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A decimal field of a request line.
fn number<T: std::str::FromStr>(word: Option<&[u8]>) -> Option<T> {
    std::str::from_utf8(word?).ok()?.parse().ok()
}

/// The socket server: accepts connections, frames requests, and runs the
/// serve loop against an online engine (see module docs).
pub struct Server {
    listener: Listener,
    conns: Vec<Conn>,
    /// The last `accept` failed for a reason other than "none waiting".
    accept_stalled: bool,
    /// The poll set, rebuilt for every wait and kept for its allocation:
    /// the listener, then one entry per connection, in order.
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
    /// accepting work, advances the decision tier over every staged
    /// session, writes every owed reply it can within
    /// [`DRAIN_DEADLINE`], and returns the final counters.
    ///
    /// # Errors
    ///
    /// Propagates `advance_to` failures, which indicate a broken engine
    /// (what `submit` rejects — unknown users and programs, capacity
    /// exhaustion — is answered on the wire as `ERR`, and a session
    /// beyond `queue_cap` as `OVERLOADED`, instead).
    pub fn run(
        mut self,
        engine: &mut dyn OnlineEngine,
        clock: &mut dyn ClockSource,
        term: &AtomicBool,
        config: &ServerConfig,
    ) -> Result<ServeStats, SimError> {
        let submitted_before = engine.submitted();
        let mut service = Service {
            engine,
            clock,
            cache: ResponseCache::new(),
            queue_cap: config.queue_cap.max(1) as u64,
            next_stamp: SimTime::from_secs(0),
            last_horizon: None,
            staged: 0,
            submit_ns: 0,
            draining_since: None,
            stats: ServeStats::default(),
        };

        loop {
            service.stats.passes += 1;
            let tick = service.clock.until_next_tick();
            self.wait(tick.unwrap_or(UNKNOWN_TICK_WAIT), service.draining_since);

            let draining = service.draining_since.is_some();
            if !draining && (self.fds[0].readable() || self.accept_stalled) {
                self.accept(&mut service.stats);
            }
            // A connection accepted in this pass was not polled in it.
            for (conn, fd) in self.conns.iter_mut().zip(&self.fds[1..]) {
                if fd.readable() || fd.writable() {
                    conn.serve(fd.readable(), fd.writable(), &mut service);
                }
            }

            let full = config
                .max_sessions
                .is_some_and(|m| service.stats.admitted >= m);
            if !draining && (full || term.load(Ordering::SeqCst)) {
                service.draining_since = Some(Instant::now());
            }
            service.tick()?;

            let expired = service
                .draining_since
                .is_some_and(|since| since.elapsed() >= DRAIN_DEADLINE);
            for conn in &mut self.conns {
                let slow = conn.deadline_in() == Some(Duration::ZERO);
                if slow || expired {
                    service.stats.slow_readers_closed += u64::from(slow);
                    conn.abandon(&mut service.stats);
                }
            }
            self.conns.retain(|c| !(c.closed && c.owed() == 0));
            if service.draining_since.is_some() && self.conns.iter().all(|c| c.owed() == 0) {
                break;
            }
        }
        Ok(service.finish(submitted_before))
    }

    /// One `accept`: the listener stays readable while more are waiting.
    fn accept(&mut self, stats: &mut ServeStats) {
        stats.accept_calls += 1;
        let stream = match &self.listener {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        };
        self.accept_stalled = match stream {
            Ok(stream) => {
                let ok = match &stream {
                    Stream::Unix(s) => s.set_nonblocking(true).is_ok(),
                    Stream::Tcp(s) => s.set_nonblocking(true).is_ok(),
                };
                if ok {
                    stats.connections += 1;
                    self.conns.push(Conn::new(stream));
                }
                false
            }
            Err(e) => !matches!(
                e.kind(),
                ErrorKind::WouldBlock | ErrorKind::Interrupted | ErrorKind::ConnectionAborted
            ),
        };
    }

    /// Rebuilds the poll set (see the module docs for who is in it) and
    /// waits on it: for `tick` at most, less if a deadline is nearer.
    fn wait(&mut self, tick: Duration, draining_since: Option<Instant>) {
        let mut timeout = tick;
        if let Some(since) = draining_since {
            timeout = timeout.min(DRAIN_DEADLINE.saturating_sub(since.elapsed()));
        }
        self.fds.clear();
        let listening = draining_since.is_none() && !self.accept_stalled;
        self.fds.push(poll::PollFd::new(
            self.listener.as_raw_fd(),
            if listening { poll::POLLIN } else { 0 },
        ));
        for conn in &self.conns {
            self.fds
                .push(poll::PollFd::new(conn.stream.as_raw_fd(), conn.interest()));
            if let Some(left) = conn.deadline_in() {
                timeout = timeout.min(left);
            }
        }
        poll::wait(&mut self.fds, timeout);
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Conn, UnixStream) {
        let (ours, theirs) = UnixStream::pair().expect("socket pair");
        ours.set_nonblocking(true).expect("non-blocking");
        (Conn::new(Stream::Unix(ours)), theirs)
    }

    /// The client reads some of what its socket holds; returns how much.
    fn take(peer: &mut UnixStream) -> usize {
        let n = peer.read(&mut [0u8; 16 * 1024]).expect("the client reads");
        assert!(n > 0, "the server hung up");
        n
    }

    /// Offers the socket reply bytes until it refuses them, then owes it
    /// `more` beyond that.
    fn block(conn: &mut Conn, more: usize) {
        let mut stats = ServeStats::default();
        while conn.blocked_since.is_none() {
            conn.out.extend_from_slice(&[b'x'; 4096]);
            conn.flush(&mut stats);
        }
        let owed = conn.owed();
        conn.out
            .resize(conn.out.len() + more.saturating_sub(owed), b'x');
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
        let (mut conn, mut peer) = pair();
        let mut stats = ServeStats::default();
        assert_eq!(conn.interest(), poll::POLLIN);
        // Owed bytes the socket has not been offered yet are written, not
        // waited for; and a socket that took them is not waited for.
        conn.out.extend_from_slice(b"ABSENT 0\n");
        assert_eq!(conn.interest(), poll::POLLIN);
        conn.flush(&mut stats);
        assert_eq!((conn.owed(), stats.write_calls), (0, 1));
        assert_eq!(conn.interest(), poll::POLLIN);
        // Only a write that would have blocked asks for POLLOUT, until
        // the socket takes a byte again.
        block(&mut conn, 0);
        assert_eq!(conn.interest(), poll::POLLIN | poll::POLLOUT);
        while conn.owed() > 0 {
            take(&mut peer);
            conn.flush(&mut stats);
        }
        assert_eq!(conn.interest(), poll::POLLIN);
    }

    #[test]
    fn the_flush_cursor_moves_per_write_and_the_buffer_stays_bounded() {
        let (mut conn, mut peer) = pair();
        let mut stats = ServeStats::default();
        block(&mut conn, MAX_OWED);
        let mut read = 0;
        // A client that reads a little at a time, for ever owed more:
        // what is behind the cursor is dropped once per MAX_OWED, so the
        // buffer holds at most what is owed and that.
        for _ in 0..200 {
            read += take(&mut peer);
            conn.flush(&mut stats);
            let owed = conn.owed();
            conn.out
                .resize(conn.out.len() + MAX_OWED.saturating_sub(owed), b'x');
            assert!(conn.sent < MAX_OWED && conn.out.len() <= 2 * MAX_OWED);
        }
        assert!(read > 2 * MAX_OWED, "the cursor wrapped at least twice");
        assert_eq!(stats.dropped_replies, 0);
    }

    #[test]
    fn a_closed_connection_is_never_polled_for_input() {
        let (mut conn, peer) = pair();
        let mut stats = ServeStats::default();
        drop(peer);
        conn.fill(&mut stats);
        assert!(conn.closed, "end of file ends the read side");
        assert_eq!((conn.filled, stats.read_calls), (0, 1));
        // With nothing to wait for it stays out of the set (end of file
        // is always readable): descriptor -1, which `poll` skips.
        assert_eq!(conn.interest(), 0);
        let fd = poll::PollFd::new(conn.stream.as_raw_fd(), conn.interest());
        assert_eq!(fd.interest(), (-1, 0));
        // Owed a reply, it is written to, not waited for; the peer is
        // gone, so the reply is dropped, and counted.
        conn.out.extend_from_slice(b"ADMITTED 0\n");
        assert_eq!(conn.interest(), 0);
        conn.flush(&mut stats);
        assert_eq!((conn.owed(), stats.dropped_replies), (0, 1));
    }

    #[test]
    fn a_back_pressured_connection_is_neither_polled_nor_read() {
        let (mut conn, mut peer) = pair();
        let mut stats = ServeStats::default();
        peer.write_all(b"STATS\n").expect("send");
        block(&mut conn, MAX_OWED + 1);
        assert!(!conn.wants_read());
        assert_eq!(conn.interest(), poll::POLLOUT);
        conn.fill(&mut stats);
        assert_eq!((conn.filled, stats.read_calls), (0, 0));
        // Once the client has read some, the request is picked up.
        while conn.owed() > MAX_OWED {
            take(&mut peer);
            conn.flush(&mut stats);
        }
        assert_ne!(conn.interest() & poll::POLLIN, 0);
        conn.fill(&mut stats);
        assert_eq!(&conn.inbuf[..conn.filled], b"STATS\n");
        assert_eq!(stats.read_calls, 1);
    }

    #[test]
    fn a_slow_reader_is_closed_at_the_deadline_and_what_it_is_owed_counted() {
        let (mut conn, _peer) = pair();
        let mut stats = ServeStats::default();
        // Blocked but under the cap: an idle client, no deadline runs.
        block(&mut conn, 0);
        if conn.owed() <= MAX_OWED {
            assert_eq!(conn.deadline_in(), None);
        }
        // Over the cap: the deadline runs from when the socket last took
        // a byte, and falls to zero.
        block(&mut conn, MAX_OWED + 1);
        let left = conn.deadline_in().expect("on its way to the deadline");
        assert!(left > SLOW_READER_DEADLINE / 2 && left <= SLOW_READER_DEADLINE);
        let long_ago = Instant::now().checked_sub(SLOW_READER_DEADLINE);
        conn.blocked_since = Some(long_ago.expect("the host has been up for five seconds"));
        assert_eq!(conn.deadline_in(), Some(Duration::ZERO));
        conn.out.extend_from_slice(b"ADMITTED 1\nADMITTED 2\nADMIT");
        conn.abandon(&mut stats);
        assert!(conn.closed);
        assert_eq!((conn.owed(), conn.interest()), (0, 0));
        assert_eq!(stats.dropped_replies, 2, "whole replies, by their newlines");
    }

    #[test]
    fn reading_ahead_of_framing_is_bounded() {
        let (mut conn, mut peer) = pair();
        let mut stats = ServeStats::default();
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
        // One read takes everything the socket holds (its buffer may be
        // the smaller), up to the input buffer; a full buffer is not read
        // into again.
        conn.fill(&mut stats);
        assert_eq!(conn.filled, sent.min(READ_AHEAD));
        conn.fill(&mut stats);
        assert_eq!(conn.inbuf.len(), READ_AHEAD);
        assert!(conn.filled <= READ_AHEAD);
        assert!(stats.read_calls <= 2);
    }

    #[test]
    fn the_poll_set_holds_the_listener_and_the_connections_that_wait() {
        let path =
            std::env::temp_dir().join(format!("cablevod-pollset-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut server = Server::unix(&path).expect("bind");
        let mut stats = ServeStats::default();
        let listener = server.listener.as_raw_fd();
        let (open, _open_peer) = pair();
        let (mut blocked, _blocked_peer) = pair();
        block(&mut blocked, 0);
        let (mut parked, _parked_peer) = pair();
        parked.closed = true;
        let (open_fd, blocked_fd) = (open.stream.as_raw_fd(), blocked.stream.as_raw_fd());
        server.conns.extend([open, blocked, parked]);

        // One entry per connection, in order, behind the listener's; who
        // waits for nothing holds descriptor -1.
        let set = |server: &mut Server, draining: Option<Instant>| -> Vec<(RawFd, c_short)> {
            server.wait(Duration::from_millis(1), draining);
            server.fds.iter().map(poll::PollFd::interest).collect()
        };
        let conns = [
            (open_fd, poll::POLLIN),
            (blocked_fd, poll::POLLIN | poll::POLLOUT),
            (-1, 0),
        ];
        let mut with_listener = vec![(listener, poll::POLLIN)];
        with_listener.extend(conns);
        let mut without_listener = vec![(-1, 0)];
        without_listener.extend(conns);
        assert_eq!(set(&mut server, None), with_listener);
        assert!(server.fds.iter().all(|fd| !fd.readable() && !fd.writable()));
        // No accepting while draining, nor right after a failed accept.
        assert_eq!(set(&mut server, Some(Instant::now())), without_listener);
        server.accept_stalled = true;
        assert_eq!(set(&mut server, None), without_listener);
        // The next accept that finds nobody waiting lifts the stall.
        server.accept(&mut stats);
        assert_eq!((stats.accept_calls, stats.connections), (1, 0));
        assert_eq!(set(&mut server, None), with_listener);
        // A connection is what makes the listener readable, once.
        let _client = UnixStream::connect(&path).expect("connect");
        server.wait(Duration::from_secs(30), None);
        assert!(server.fds[0].readable());
        server.accept(&mut stats);
        assert_eq!((stats.accept_calls, stats.connections), (2, 1));
        server.wait(Duration::from_millis(1), None);
        assert!(!server.fds[0].readable());
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
        assert!(fds[0].writable() && !fds[0].readable());
        peer.write_all(b"STATS\n").expect("send");
        let t0 = Instant::now();
        let mut fds = [poll::PollFd::new(fd, poll::POLLIN)];
        assert_eq!(poll::wait(&mut fds, Duration::from_secs(30)), 1);
        assert!(fds[0].readable() && !fds[0].writable());
        assert!(t0.elapsed() < Duration::from_secs(10));
        // A hang-up reads as both: a read or a write tells which.
        drop(peer);
        let mut fds = [poll::PollFd::new(fd, poll::POLLIN)];
        assert_eq!(poll::wait(&mut fds, Duration::from_secs(30)), 1);
        assert!(fds[0].readable());
        // An empty set, or one of skipped entries, is a plain timed wait.
        assert_eq!(poll::wait(&mut [], Duration::from_micros(1)), 0);
        let mut fds = [poll::PollFd::new(fd, 0)];
        assert_eq!(poll::wait(&mut fds, Duration::from_micros(1)), 0);
    }
}
