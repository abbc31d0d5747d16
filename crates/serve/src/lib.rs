//! `cablevod-serve`: the engine as a long-running online
//! admission/placement service.
//!
//! Offline, the simulator answers "what would the plant have done" by
//! replaying a finished trace. This crate answers the paper's deployment
//! question directly — can a head-end admit and place VoD sessions for a
//! whole plant *in real time*? — by standing the same engine up as a
//! persistent service with three tiers:
//!
//! * **Ingress tier** ([`clock`], [`server`]) — a [`ClockSource`] seam
//!   ([`WallClock`] for production pacing, [`AcceleratedClock`] for tests
//!   and benches) plus a bound on the sessions staged between two
//!   advances of the decision tier, with explicit overload shedding.
//!   Sessions arrive either by replaying a `.cvtc` trace against the
//!   clock ([`replay`]) or as newline-framed requests over a TCP/Unix
//!   socket ([`server`]).
//! * **Decision tier** (`cablevod_sim::engine::online`) — the offline
//!   blocked replay with the socket as its decoder: at every tick the
//!   engine's ingress moves the sessions submitted since into one block,
//!   and each neighborhood's `SessionDriver` is stepped through it by
//!   the blocked replay's own per-shard step, up to the live clock. All
//!   nine registry strategies, fault plans, and enforcing admission/retry
//!   run unchanged; the final report is byte-identical to the offline
//!   replay's.
//! * **Front tier** ([`cache`], [`hist`]) — a repeat-lookup
//!   [`ResponseCache`] with epoch-based invalidation and per-request
//!   [`LatencyHistogram`]s (p50/p99/p999), plus a drain-on-SIGTERM path
//!   that flushes a final `SimReport` so online and offline accounting
//!   stay comparable.
//!
//! # Wire protocol
//!
//! The socket protocol is line-oriented UTF-8: one request per line
//! (terminated by `\n`), one reply line per request, in order, per
//! connection. Fields are decimal integers separated by ASCII white
//! space.
//!
//! ## Requests
//!
//! | Request | Meaning |
//! |---|---|
//! | `SESSION <user> <program> <duration_secs> [<offset_secs>]` | Ask to start a session. The server stamps the arrival with its clock. |
//! | `LOOKUP <nbhd> <program>` | Where is `program` placed in neighborhood `nbhd` right now? |
//! | `STATS` | Service counters snapshot. |
//!
//! ## Replies
//!
//! | Reply | Meaning |
//! |---|---|
//! | `ADMITTED <gidx>` | The decision tier holds the session, with global index `gidx` — sent **on arrival**: the line is stamped and submitted when it is read, and indexes follow the order lines were read in, across connections. The session starts at the next advance. |
//! | `OVERLOADED` | As many sessions as the server allows were already staged for the next advance; the request was **shed** — counted, never silently dropped, never blocked. |
//! | `PLACED <epoch> <peer>` | The program's first segment is cached on `peer`; answer valid as of placement `epoch`. |
//! | `ABSENT <epoch>` | The program is not currently placed in that neighborhood, as of `epoch`. |
//! | `STATS <json>` | One JSON object of service counters. |
//! | `ERR <reason>` | The request was malformed, named a user, program or neighborhood the plant does not have, or violated the ordering contract. `ERR line too long` also closes the connection. |
//!
//! ## Epoch semantics
//!
//! The decision tier's placement epoch increments whenever an advance
//! processed at least one event (a conservative over-approximation of
//! "placement changed"). `PLACED`/`ABSENT` replies carry the epoch they
//! were computed at; the front tier's [`ResponseCache`] stores answers
//! stamped with it and **never** serves an entry whose epoch is older
//! than current — stale entries fall through to the decision tier and
//! are re-filled. The property test in `tests/serve.rs` pins this under
//! randomized interleavings.
//!
//! Only an advance changes placement, and the server advances the
//! decision tier at most once per simulated second. So an admission's
//! placement effects are visible from the epoch of the **next tick's
//! advance**: a `LOOKUP` sent right behind a `SESSION` is answered behind
//! its `ADMITTED`, in order, at the epoch that held before it.
//!
//! ## Shed and drain behavior
//!
//! `queue_cap` ([`ServerConfig`]) bounds how many sessions may be staged
//! between two advances of the decision tier — what one simulated second
//! may admit. `SESSION` requests beyond it are answered `OVERLOADED`
//! immediately (back-pressure is explicit; the serve loop never blocks on
//! the decision tier) and counted in the final stats as `shed`. On
//! SIGTERM/SIGINT the server stops accepting work (a `SESSION` read from
//! then on is answered `ERR draining`), advances the decision tier over
//! what is staged, writes the replies it still owes — for at most
//! [`server::DRAIN_DEADLINE`]; what no socket took by then is dropped and
//! counted — and writes one final JSON line
//! `{"serve": {...counters...}, "report": {...}}` where `report` is the
//! canonical `SimReport` encoding (`cablevod_sim::report_to_json_string`)
//! — byte-comparable with offline runs. The server checks its own books
//! as it drains: `admitted + shed + session_errors == sessions_seen`, and
//! the decision tier holds exactly what was admitted.
//!
//! ## What the loop waits on, the two caps and the two deadlines
//!
//! The serve loop sleeps on nothing but its work: every pass begins with
//! one `poll(2)` over the listener and the open connections (input
//! always; output only after a write that would have blocked), for as
//! long as the [`ClockSource`] says it is until its next second
//! ([`ClockSource::until_next_tick`]; one millisecond for a clock that
//! cannot say), and then does what `poll` reported and nothing else: an
//! idle pass makes no other system call. A request, a writable socket, a
//! signal or the tick wakes it; a request that arrives on an idle server
//! is read and answered at once. `term` raised by another thread is seen
//! at the next wake-up — the next tick at the latest.
//!
//! The socket fails closed, in space and in time, with four constants of
//! [`server`]:
//!
//! * a request line longer than [`server::MAX_LINE`] (4 KiB; wire lines
//!   are under 64 bytes) is answered `ERR line too long` and the
//!   connection is closed;
//! * a connection owed more than [`server::MAX_OWED`] (64 KiB of reply
//!   bytes its socket has not taken) is not read until its client has
//!   read some — back-pressure through the client's own socket buffer, so
//!   a client that pipelines without reading costs the server a bounded
//!   amount of memory and is never answered out of order;
//! * such a connection whose socket takes nothing for
//!   [`server::SLOW_READER_DEADLINE`] is closed;
//! * a drain returns [`server::DRAIN_DEADLINE`] after it began at the
//!   latest.
//!
//! Replies dropped at either deadline, or because their client was gone,
//! are counted (`dropped_replies` in the final line). A client that says
//! nothing holds a descriptor and nothing else, and never a drain.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod clock;
pub mod hist;
pub mod replay;
pub mod server;

pub use cache::ResponseCache;
pub use clock::{AcceleratedClock, ClockSource, WallClock};
pub use hist::LatencyHistogram;
pub use replay::{replay_trace, DecisionTier, ReplayOutcome};
pub use server::{IngressQueue, ServeStats, Server, ServerConfig};
