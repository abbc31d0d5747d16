//! The cache-strategy abstraction.
//!
//! The index server delegates *what to cache* to a [`CacheStrategy`]; it
//! keeps *where it is cached* (placement) to itself. Strategies operate at
//! whole-program granularity — exactly the paper's LRU/LFU/Oracle, which
//! reason about files — while the index server maps programs onto 5-minute
//! segments spread over peers.
//!
//! Capacity is accounted in **slots**: one slot holds one segment at the
//! nominal segment size. Fixed-extent allocation keeps strategy accounting
//! and physical placement exactly consistent (no fragmentation), at the
//! cost of charging a program's final runt segment as a full one (so a
//! cost converts back to a segment count exactly — see
//! `IndexServer::length_from_cost`).
//!
//! # The open factory interface
//!
//! Strategies are *instantiated* through the [`StrategyFactory`] trait:
//! the engine hands each neighborhood's [`StrategyContext`] (its slot
//! capacity, identity, and — when the factory declares a
//! [`schedule_lookahead`](StrategyFactory::schedule_lookahead) — the
//! window its future access schedule arrives through) to a factory and
//! gets a boxed [`CacheStrategy`] back. [`StrategySpec`] is the
//! declarative, serializable selection of the nine built-ins — the
//! paper's five and the literature four — and is itself their factory:
//! each variant's name, capabilities and construction are declared once,
//! in its [`StrategyFactory`] implementation. Out-of-tree strategies
//! implement [`StrategyFactory`] and register by name in a
//! [`StrategyRegistry`](crate::registry::StrategyRegistry): the replay
//! engine never needs to know the strategy's type, only the capabilities
//! ([`needs_feed`](StrategyFactory::needs_feed) /
//! [`schedule_lookahead`](StrategyFactory::schedule_lookahead) /
//! [`history_window`](StrategyFactory::history_window)) and the
//! optional [`fetch_model`](StrategyFactory::fetch_model) that decide
//! whether the global popularity feed, the Oracle's access schedule, the
//! hand-back of the windowed LFU's past accesses and delayed-hit
//! accounting are wired up for the run.
//!
//! # Strategy lifecycle
//!
//! The index server drives every strategy through the same hook
//! sequence, on every driver combination (serial/sharded ×
//! resident/streaming, offline and online):
//!
//! 1. **`sync_global`** — when the global feed has published events
//!    before an access (and the factory declared
//!    [`needs_feed`](StrategyFactory::needs_feed)), the strategy sees
//!    them first: the global LFU ingests those its batching lag makes
//!    visible, the prior-storing server builds its prediction state from
//!    all of them. The caller keeps the consumption cursor and hands over
//!    the unread events as one slice; each event reaches the strategy
//!    until the strategy says it consumed it, and never after.
//! 2. **`prepare`** — the one fallible access-path hook; the Oracle
//!    checks here that the look-ahead it was handed
//!    ([`extend_schedule`](CacheStrategy::extend_schedule), by the record
//!    supply as it reads ahead) reaches the access's horizon, and a
//!    windowed LFU that the accesses leaving its history were handed back
//!    ([`extend_history`](CacheStrategy::extend_history), by the record
//!    supply as it reads behind, before the feed sync).
//! 3. **`on_access`** — the access itself; all admissions and evictions
//!    materialize through the returned [`CacheOp`]s, including those the
//!    feed decided on earlier (the ops channel is the only way content
//!    moves).
//!
//! For any access, feed events published before it are delivered via
//! `sync_global` before `prepare` and `on_access` run — this ordering
//! contract is what makes every driver bit-identical.
//!
//! # Delayed-hit accounting
//!
//! When a factory supplies a [`FetchModel`] with nonzero latency, the
//! index server tracks misses in flight: a miss on a program whose fetch
//! (started by an earlier miss) is still within the model's latency
//! window is counted as a *delayed hit* rather than a second full-cost
//! miss, and first misses are counted as *in-flight misses*. The
//! accounting is observational — request resolution and cache
//! trajectories are unchanged, so a zero-latency model is byte-identical
//! to no model at all.

use std::fmt;
use std::sync::Arc;

use cablevod_hfc::ids::{NeighborhoodId, ProgramId};
use cablevod_hfc::units::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::arc::ArcCache;
use crate::delayed::DelayedLfu;
use crate::error::CacheError;
use crate::event::AccessEvent;
use crate::feed::{FeedEvent, GlobalLfu};
use crate::fetch::FetchModel;
use crate::history::HistoryWindow;
use crate::lfu::WindowedLfu;
use crate::lru::Lru;
use crate::oracle::Oracle;
use crate::schedule::ScheduleWindow;
use crate::tlru::Tlru;

/// An admission/eviction decision emitted by a strategy.
///
/// The index server executes ops in order; strategies emit evictions before
/// the admissions they make room for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// Place this program's segments on peers.
    Admit(ProgramId),
    /// Delete this program's segments from peers.
    Evict(ProgramId),
}

/// How admitted content becomes present on its assigned peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FillPolicy {
    /// Segments are captured off the coax while being broadcast for a
    /// viewer (§IV-B.1, Fig 4 step 4): until a segment has been broadcast
    /// once after admission, requests for it still miss.
    #[default]
    OnBroadcast,
    /// Segments are present the moment the program is admitted. Used by the
    /// Oracle bound and by the proactive-push ablation.
    Prefetch,
}

/// A cache-contents policy at program granularity.
///
/// Implementations must maintain the invariant
/// `used_slots() <= capacity_slots()`; the index server relies on it for
/// placement to always succeed.
pub trait CacheStrategy: fmt::Debug + Send {
    /// Short human-readable name ("LRU", "LFU", ...).
    fn name(&self) -> &'static str;

    /// Checks that everything an access at `now` will need is in hand —
    /// the one fallible hook in the access path. The index server calls
    /// it immediately before [`on_access`](CacheStrategy::on_access);
    /// strategies whose auxiliary state is fed from outside (the Oracle's
    /// look-ahead) check coverage here so the access hook itself stays
    /// infallible. The default is a no-op.
    ///
    /// # Errors
    ///
    /// [`CacheError::Schedule`] when the state handed over falls short of
    /// what the access needs.
    fn prepare(&mut self, _now: SimTime) -> Result<(), CacheError> {
        Ok(())
    }

    /// Takes the next stretch of this neighborhood's future accesses, in
    /// time order, after which every access before `covered` has been
    /// handed over. Called when the factory declares a
    /// [`schedule_lookahead`](StrategyFactory::schedule_lookahead), by the
    /// record supply as it reads ahead. The default ignores the events.
    ///
    /// # Errors
    ///
    /// [`CacheError::Schedule`] for events that break the time order.
    fn extend_schedule(
        &mut self,
        _events: &[AccessEvent],
        _covered: SimTime,
    ) -> Result<(), CacheError> {
        Ok(())
    }

    /// Takes the next stretch of this neighborhood's past accesses as they
    /// leave the strategy's history window, in time order, after which
    /// every access before `covered` has been handed back. Called when the
    /// factory declares a
    /// [`history_window`](StrategyFactory::history_window), by the record
    /// supply as it reads behind the replay (see [`crate::history`]). The
    /// default ignores the events: a strategy built without a
    /// [`HistoryWindow`] keeps its own accesses.
    ///
    /// # Errors
    ///
    /// [`CacheError::History`] for events that break the time order.
    fn extend_history(
        &mut self,
        _events: &[AccessEvent],
        _covered: SimTime,
    ) -> Result<(), CacheError> {
        Ok(())
    }

    /// Observes one program access in this neighborhood and appends any
    /// admissions/evictions to `ops`. `cost` is the program's size in
    /// slots.
    fn on_access(&mut self, program: ProgramId, cost: u32, now: SimTime, ops: &mut Vec<CacheOp>);

    /// Whether `program` is currently in the cache contents.
    fn contains(&self, program: ProgramId) -> bool;

    /// The slot cost this strategy associates with `program`, if known.
    /// The index server uses it to reconstruct storage footprints for
    /// programs admitted without a direct local access (Oracle prefetch,
    /// global-feed admissions).
    fn cost_of(&self, program: ProgramId) -> Option<u32>;

    /// Slots currently occupied.
    fn used_slots(&self) -> u64;

    /// Total slot capacity.
    fn capacity_slots(&self) -> u64;

    /// How admitted content is materialized.
    fn fill_policy(&self) -> FillPolicy {
        FillPolicy::OnBroadcast
    }

    /// Observes the system-wide accesses published before the access
    /// about to happen — the one feed hook (see the module-level
    /// lifecycle docs). Called only when the factory declares
    /// [`needs_feed`](StrategyFactory::needs_feed): the global LFU
    /// ingests the events its batching lag makes visible at `now`, the
    /// prior-storing server all of them; admissions still materialize
    /// through the [`on_access`](CacheStrategy::on_access) ops channel.
    ///
    /// `events` is the feed's unread published prefix: from the caller's
    /// cursor up to and including the triggering access's own event,
    /// which reproduces the serial engine's grow-as-you-go visibility
    /// exactly however far ahead the run's [`Feed`](crate::feed::Feed)
    /// is published. Returns how many of them, from the front, the
    /// strategy consumed: the caller moves its cursor that far and hands
    /// the rest over again at the next sync. The default consumes them
    /// all and looks at none.
    fn sync_global(&mut self, events: &[FeedEvent], _now: SimTime) -> usize {
        events.len()
    }

    /// Heap bytes the strategy holds, from its collections' capacities
    /// (an ordered set at its keys' size). Test builds only: what the
    /// per-subscriber memory pin in `index.rs` reads.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        unimplemented!("{} does not account its bytes", self.name())
    }
}

/// A strategy that never caches anything — the paper's no-cache baseline
/// run through the identical pipeline.
#[derive(Debug, Clone, Default)]
pub struct NoCache;

impl CacheStrategy for NoCache {
    fn name(&self) -> &'static str {
        "No cache"
    }
    fn on_access(&mut self, _: ProgramId, _: u32, _: SimTime, _: &mut Vec<CacheOp>) {}
    fn contains(&self, _: ProgramId) -> bool {
        false
    }
    fn cost_of(&self, _: ProgramId) -> Option<u32> {
        None
    }
    fn used_slots(&self) -> u64 {
        0
    }
    fn capacity_slots(&self) -> u64 {
        0
    }
}

/// Declarative strategy selection, used by simulation configs.
///
/// # Examples
///
/// ```
/// use cablevod_cache::strategy::StrategySpec;
/// use cablevod_hfc::units::SimDuration;
///
/// let spec = StrategySpec::Lfu { history: SimDuration::from_days(3) };
/// let strategy = spec.build(100, cablevod_hfc::ids::NeighborhoodId::new(0), None)?;
/// assert_eq!(strategy.name(), "LFU");
/// # Ok::<(), cablevod_cache::error::CacheError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrategySpec {
    /// Never cache.
    NoCache,
    /// Least-recently-used over programs (§IV-B.2).
    Lru,
    /// Windowed least-frequently-used with the given history length
    /// (§IV-B.2); history zero degenerates to LRU, as in Fig 11.
    Lfu {
        /// History window N.
        history: SimDuration,
    },
    /// LFU fed with system-wide popularity, batched with the given lag
    /// (Fig 13); `lag` zero means instantaneous global knowledge.
    GlobalLfu {
        /// History window N.
        history: SimDuration,
        /// Batching delay for remote accesses.
        lag: SimDuration,
    },
    /// The unimplementable upper bound: caches the programs most accessed
    /// in the *next* `lookahead` (the paper uses three days).
    Oracle {
        /// Future window.
        lookahead: SimDuration,
    },
    /// Adaptive Replacement Cache (Megiddo & Modha): twin
    /// recency/frequency lists with ghost-extension feedback steering the
    /// split adaptively.
    Arc {
        /// Ghost-list bound as an entry count; `0` derives the bound from
        /// the slot capacity (the classic "ghosts mirror the cache"
        /// configuration).
        ghost: u32,
    },
    /// Time-aware LRU: plain LRU whose entries additionally expire after
    /// a time-to-use, refreshed on every hit.
    Tlru {
        /// Time-to-use after which an unrefreshed entry expires.
        ttl: SimDuration,
    },
    /// Prior-storing server (Tsang): predicts upcoming popularity from
    /// the global feed *before* first local access and pushes predicted
    /// content proactively (prefetch fill).
    PriorStoring {
        /// Popularity-prediction history window.
        horizon: SimDuration,
    },
    /// Delayed-hits-aware windowed LFU: a miss on a program whose fetch
    /// is still in flight counts as one access of double weight, not a
    /// fresh independent miss, so popularity tracks *fetch* pressure.
    DelayedLfu {
        /// History window N.
        history: SimDuration,
        /// Modeled central-server fetch latency in milliseconds.
        latency_ms: u64,
    },
}

impl StrategySpec {
    /// The default LFU: a one-week history. The paper leaves the default
    /// unspecified; on the calibrated synthetic workload histories of one
    /// to seven days perform within a few percent of each other (Fig 11),
    /// so the default sits at the long end the paper's Fig 11 favours.
    pub fn default_lfu() -> Self {
        StrategySpec::Lfu {
            history: SimDuration::from_days(7),
        }
    }

    /// The paper's Oracle (3-day look-ahead).
    pub fn default_oracle() -> Self {
        StrategySpec::Oracle {
            lookahead: SimDuration::from_days(3),
        }
    }

    /// The default ARC: ghost bound derived from capacity.
    pub fn default_arc() -> Self {
        StrategySpec::Arc { ghost: 0 }
    }

    /// The default TLRU: one-day time-to-use.
    pub fn default_tlru() -> Self {
        StrategySpec::Tlru {
            ttl: SimDuration::from_days(1),
        }
    }

    /// The default prior-storing server: one-day prediction horizon.
    pub fn default_prior_storing() -> Self {
        StrategySpec::PriorStoring {
            horizon: SimDuration::from_days(1),
        }
    }

    /// The default delayed-hits LFU: the LFU default history with a
    /// 200 ms modeled fetch latency.
    pub fn default_delayed_lfu() -> Self {
        StrategySpec::DelayedLfu {
            history: SimDuration::from_days(7),
            latency_ms: 200,
        }
    }

    /// Instantiates the strategy for a neighborhood with
    /// `capacity_slots` total slots. Oracle strategies need the
    /// [`ScheduleWindow`] the neighborhood's future accesses arrive
    /// through.
    ///
    /// A convenience over this spec's own [`StrategyFactory::build`] —
    /// the interface out-of-tree strategies implement.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::MissingSchedule`] for
    /// [`StrategySpec::Oracle`] without a schedule.
    pub fn build(
        &self,
        capacity_slots: u64,
        home: NeighborhoodId,
        schedule: Option<ScheduleWindow>,
    ) -> Result<Box<dyn CacheStrategy>, CacheError> {
        StrategyFactory::build(
            self,
            StrategyContext {
                capacity_slots,
                home,
                schedule,
                history: None,
            },
        )
    }

    /// This spec as a shareable factory (the spec is its own — see its
    /// [`StrategyFactory`] implementation).
    pub fn factory(&self) -> Arc<dyn StrategyFactory> {
        Arc::new(*self)
    }

    /// Display label used in reports and figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            StrategySpec::NoCache => "No cache",
            StrategySpec::Lru => "LRU",
            StrategySpec::Lfu { .. } => "LFU",
            StrategySpec::GlobalLfu { .. } => "Global LFU",
            StrategySpec::Oracle { .. } => "Oracle",
            StrategySpec::Arc { .. } => "ARC",
            StrategySpec::Tlru { .. } => "TLRU",
            StrategySpec::PriorStoring { .. } => "Prior storing",
            StrategySpec::DelayedLfu { .. } => "Delayed LFU",
        }
    }

    /// The compact textual form used by scenario spec files:
    /// `no-cache`, `lru`, `lfu:7d`, `global-lfu:7d:30m`, `oracle:3d`,
    /// `arc:512`, `tlru:30m`, `prior-storing:1d`, `delayed-lfu:3d:200ms`
    /// (durations print the largest exact unit of d/h/m/s; latencies the
    /// largest exact unit of s/ms). [`StrategySpec::parse`] is the
    /// inverse.
    pub fn compact(&self) -> String {
        match *self {
            StrategySpec::NoCache => "no-cache".into(),
            StrategySpec::Lru => "lru".into(),
            StrategySpec::Lfu { history } => format!("lfu:{}", fmt_duration(history)),
            StrategySpec::GlobalLfu { history, lag } => {
                format!("global-lfu:{}:{}", fmt_duration(history), fmt_duration(lag))
            }
            StrategySpec::Oracle { lookahead } => format!("oracle:{}", fmt_duration(lookahead)),
            StrategySpec::Arc { ghost } => format!("arc:{ghost}"),
            StrategySpec::Tlru { ttl } => format!("tlru:{}", fmt_duration(ttl)),
            StrategySpec::PriorStoring { horizon } => {
                format!("prior-storing:{}", fmt_duration(horizon))
            }
            StrategySpec::DelayedLfu {
                history,
                latency_ms,
            } => format!(
                "delayed-lfu:{}:{}",
                fmt_duration(history),
                fmt_latency(latency_ms)
            ),
        }
    }

    /// Parses the compact form produced by [`StrategySpec::compact`].
    /// Parameters may be omitted: `lfu` is [`StrategySpec::default_lfu`],
    /// `oracle` is [`StrategySpec::default_oracle`], `global-lfu`
    /// defaults to a 7-day history with a 30-minute lag, and `arc`,
    /// `tlru`, `prior-storing`, and `delayed-lfu` take their
    /// `default_*` parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownStrategy`] for unknown names or
    /// malformed parameters.
    pub fn parse(text: &str) -> Result<StrategySpec, CacheError> {
        let unknown = || CacheError::UnknownStrategy { name: text.into() };
        let mut parts = text.split(':');
        let head = parts.next().unwrap_or_default();
        let mut duration = |default: SimDuration| match parts.next() {
            None => Ok(default),
            Some(p) => parse_duration(p).ok_or_else(unknown),
        };
        let spec = match head {
            "no-cache" => StrategySpec::NoCache,
            "lru" => StrategySpec::Lru,
            "lfu" => StrategySpec::Lfu {
                history: duration(SimDuration::from_days(7))?,
            },
            "global-lfu" => StrategySpec::GlobalLfu {
                history: duration(SimDuration::from_days(7))?,
                lag: duration(SimDuration::from_minutes(30))?,
            },
            "oracle" => StrategySpec::Oracle {
                lookahead: duration(SimDuration::from_days(3))?,
            },
            "arc" => StrategySpec::Arc {
                ghost: match parts.next() {
                    None => 0,
                    Some(p) => p.parse().map_err(|_| unknown())?,
                },
            },
            "tlru" => StrategySpec::Tlru {
                ttl: duration(SimDuration::from_days(1))?,
            },
            "prior-storing" => StrategySpec::PriorStoring {
                horizon: duration(SimDuration::from_days(1))?,
            },
            "delayed-lfu" => StrategySpec::DelayedLfu {
                history: duration(SimDuration::from_days(7))?,
                latency_ms: match parts.next() {
                    None => 200,
                    Some(p) => parse_latency(p).ok_or_else(unknown)?,
                },
            },
            _ => return Err(unknown()),
        };
        if parts.next().is_some() {
            return Err(unknown());
        }
        Ok(spec)
    }
}

/// Formats a duration as its largest exact unit (`3d`, `12h`, `30m`,
/// `45s`; zero is `0s`).
fn fmt_duration(d: SimDuration) -> String {
    let secs = d.as_secs();
    if secs == 0 {
        "0s".into()
    } else if secs.is_multiple_of(86_400) {
        format!("{}d", secs / 86_400)
    } else if secs.is_multiple_of(3_600) {
        format!("{}h", secs / 3_600)
    } else if secs.is_multiple_of(60) {
        format!("{}m", secs / 60)
    } else {
        format!("{secs}s")
    }
}

/// Parses `<n>[dhms]` (a bare number is seconds).
fn parse_duration(text: &str) -> Option<SimDuration> {
    let (digits, unit) = match text.char_indices().last()? {
        (i, c) if c.is_ascii_alphabetic() => (&text[..i], &text[i..]),
        _ => (text, "s"),
    };
    let n: u64 = digits.parse().ok()?;
    let secs = match unit {
        "d" => 86_400,
        "h" => 3_600,
        "m" => 60,
        "s" => 1,
        _ => return None,
    };
    n.checked_mul(secs).map(SimDuration::from_secs)
}

/// Formats a millisecond latency as its largest exact unit (`2s`,
/// `200ms`; zero is `0ms`).
fn fmt_latency(ms: u64) -> String {
    if ms > 0 && ms.is_multiple_of(1_000) {
        format!("{}s", ms / 1_000)
    } else {
        format!("{ms}ms")
    }
}

/// Parses `<n>ms` / `<n>s` (a bare number is milliseconds).
fn parse_latency(text: &str) -> Option<u64> {
    if let Some(digits) = text.strip_suffix("ms") {
        digits.parse().ok()
    } else if let Some(digits) = text.strip_suffix('s') {
        digits.parse::<u64>().ok()?.checked_mul(1_000)
    } else {
        text.parse().ok()
    }
}

/// Everything the engine provides when instantiating a strategy for one
/// neighborhood.
#[derive(Debug)]
pub struct StrategyContext {
    /// Total slot capacity of the neighborhood's cooperative cache.
    pub capacity_slots: u64,
    /// The neighborhood this strategy instance serves.
    pub home: NeighborhoodId,
    /// The window the neighborhood's future access schedule arrives
    /// through. The engine supplies it only when the factory declares a
    /// [`schedule_lookahead`](StrategyFactory::schedule_lookahead).
    pub schedule: Option<ScheduleWindow>,
    /// The window the neighborhood's own accesses are handed back through
    /// as they leave the strategy's history. The engine supplies it only
    /// when the factory declares a
    /// [`history_window`](StrategyFactory::history_window); without it a
    /// windowed strategy keeps its own accesses.
    pub history: Option<HistoryWindow>,
}

/// An open constructor of [`CacheStrategy`] instances — the seam that
/// lets new caching/admission policies slot into the engine without
/// touching the replay core or the [`StrategySpec`] enum (see the module
/// docs).
///
/// A factory is instantiated once per *run* and called once per
/// *neighborhood*; it carries the strategy's parameters (history lengths,
/// admission thresholds, ...) itself.
pub trait StrategyFactory: fmt::Debug + Send + Sync {
    /// Human-readable strategy name, used in reports and telemetry.
    fn name(&self) -> &str;

    /// Whether built strategies consume the system-wide access feed
    /// (see [`CacheStrategy::sync_global`]). When `true` the engine wires
    /// up the global popularity feed carrier for the run.
    fn needs_feed(&self) -> bool {
        false
    }

    /// How far into the future built strategies look in an access
    /// schedule; `None` (the default) when they need none. With
    /// `Some(lookahead)` the engine passes each neighborhood an empty
    /// window as [`StrategyContext::schedule`] and feeds it through
    /// [`CacheStrategy::extend_schedule`]: on every plan the record supply
    /// keeps it `lookahead` ahead of the replay.
    fn schedule_lookahead(&self) -> Option<SimDuration> {
        None
    }

    /// How far into the past built strategies remember their
    /// neighborhood's accesses; `None` (the default) when they keep no
    /// such history. With `Some(window)` the engine passes each
    /// neighborhood an empty [`HistoryWindow`] as
    /// [`StrategyContext::history`] and hands every access back through
    /// [`CacheStrategy::extend_history`] by the time it is `window` old,
    /// so the strategy need not copy its own accesses.
    fn history_window(&self) -> Option<SimDuration> {
        None
    }

    /// The fetch-latency model built strategies' index servers should
    /// account delayed hits under; `None` (the default) means instant
    /// fetches and no in-flight tracking.
    fn fetch_model(&self) -> Option<FetchModel> {
        None
    }

    /// Builds the strategy instance for one neighborhood.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] when the context is unusable (e.g.
    /// [`CacheError::MissingSchedule`] when a required schedule is
    /// absent).
    fn build(&self, ctx: StrategyContext) -> Result<Box<dyn CacheStrategy>, CacheError>;
}

/// The one declaration of every built-in: its name, what the engine must
/// wire up for it, and how it is built.
impl StrategyFactory for StrategySpec {
    fn name(&self) -> &str {
        self.label()
    }

    fn needs_feed(&self) -> bool {
        matches!(
            self,
            StrategySpec::GlobalLfu { .. } | StrategySpec::PriorStoring { .. }
        )
    }

    fn schedule_lookahead(&self) -> Option<SimDuration> {
        match *self {
            StrategySpec::Oracle { lookahead } => Some(lookahead),
            _ => None,
        }
    }

    fn history_window(&self) -> Option<SimDuration> {
        match *self {
            StrategySpec::Lfu { history }
            | StrategySpec::GlobalLfu { history, .. }
            | StrategySpec::PriorStoring { horizon: history }
            | StrategySpec::DelayedLfu { history, .. } => Some(history),
            _ => None,
        }
    }

    fn fetch_model(&self) -> Option<FetchModel> {
        match *self {
            StrategySpec::DelayedLfu { latency_ms, .. } => {
                Some(FetchModel::with_latency_ms(latency_ms))
            }
            _ => None,
        }
    }

    fn build(&self, ctx: StrategyContext) -> Result<Box<dyn CacheStrategy>, CacheError> {
        let slots = ctx.capacity_slots;
        let history = ctx.history;
        Ok(match *self {
            StrategySpec::NoCache => Box::new(NoCache),
            StrategySpec::Lru => Box::new(Lru::new(slots)),
            StrategySpec::Lfu { history: window } => {
                Box::new(WindowedLfu::new(slots, window).fed_by(history))
            }
            StrategySpec::GlobalLfu {
                history: window,
                lag,
            } => Box::new(GlobalLfu::new(slots, window, lag, ctx.home).fed_by(history)),
            StrategySpec::Oracle { lookahead } => {
                let schedule = ctx.schedule.ok_or(CacheError::MissingSchedule)?;
                Box::new(Oracle::new(slots, lookahead, schedule))
            }
            StrategySpec::Arc { ghost } => Box::new(ArcCache::new(slots, ghost)),
            StrategySpec::Tlru { ttl } => Box::new(Tlru::new(slots, ttl)),
            StrategySpec::PriorStoring { horizon } => {
                Box::new(GlobalLfu::prior_storing(slots, horizon, ctx.home).fed_by(history))
            }
            StrategySpec::DelayedLfu {
                history: window,
                latency_ms,
            } => Box::new(DelayedLfu::new(slots, window, latency_ms).fed_by(history)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn no_cache_never_admits() {
        let mut s = NoCache;
        let mut ops = Vec::new();
        s.on_access(ProgramId::new(0), 5, SimTime::EPOCH, &mut ops);
        assert!(ops.is_empty());
        assert!(!s.contains(ProgramId::new(0)));
        assert_eq!(s.capacity_slots(), 0);
    }

    #[test]
    fn spec_builds_each_strategy() {
        let home = NeighborhoodId::new(0);
        for (spec, name) in [
            (StrategySpec::NoCache, "No cache"),
            (StrategySpec::Lru, "LRU"),
            (StrategySpec::default_lfu(), "LFU"),
            (
                StrategySpec::GlobalLfu {
                    history: SimDuration::from_days(3),
                    lag: SimDuration::from_minutes(30),
                },
                "Global LFU",
            ),
            (StrategySpec::default_arc(), "ARC"),
            (StrategySpec::default_tlru(), "TLRU"),
            (StrategySpec::default_prior_storing(), "Prior storing"),
            (StrategySpec::default_delayed_lfu(), "Delayed LFU"),
        ] {
            let s = spec
                .build(10, home, None)
                .expect("buildable without schedule");
            assert_eq!(s.name(), name);
            assert_eq!(spec.label(), name);
        }
    }

    /// What the engine wires up for each built-in, variant by variant
    /// (the table `cablevod-scenario --list-strategies` prints).
    #[test]
    fn capabilities_by_variant() {
        let day = SimDuration::from_days(1);
        let days = SimDuration::from_days;
        for (text, feed, lookahead, history, fetch_ms) in [
            ("no-cache", false, None, None, None),
            ("lru", false, None, None, None),
            ("lfu:7d", false, None, Some(days(7)), None),
            ("global-lfu:3d:30m", true, None, Some(days(3)), None),
            ("oracle:1d", false, Some(day), None, None),
            ("arc", false, None, None, None),
            ("tlru", false, None, None, None),
            ("prior-storing", true, None, Some(day), None),
            (
                "delayed-lfu:7d:350ms",
                false,
                None,
                Some(days(7)),
                Some(350),
            ),
        ] {
            let spec = StrategySpec::parse(text).expect("parses");
            let factory = spec.factory();
            assert_eq!(factory.name(), spec.label(), "{text}");
            assert_eq!(factory.needs_feed(), feed, "{text}");
            assert_eq!(factory.schedule_lookahead(), lookahead, "{text}");
            assert_eq!(factory.history_window(), history, "{text}");
            assert_eq!(
                factory.fetch_model(),
                fetch_ms.map(FetchModel::with_latency_ms),
                "{text}"
            );
        }
    }

    #[test]
    fn compact_round_trips_every_variant() {
        for spec in [
            StrategySpec::NoCache,
            StrategySpec::Lru,
            StrategySpec::Lfu {
                history: SimDuration::from_hours(36),
            },
            StrategySpec::GlobalLfu {
                history: SimDuration::from_days(7),
                lag: SimDuration::from_secs(45),
            },
            StrategySpec::Oracle {
                lookahead: SimDuration::ZERO,
            },
            StrategySpec::Arc { ghost: 512 },
            StrategySpec::Tlru {
                ttl: SimDuration::from_minutes(30),
            },
            StrategySpec::PriorStoring {
                horizon: SimDuration::from_hours(12),
            },
            StrategySpec::DelayedLfu {
                history: SimDuration::from_days(3),
                latency_ms: 200,
            },
            StrategySpec::DelayedLfu {
                history: SimDuration::from_days(7),
                latency_ms: 2_000,
            },
        ] {
            let text = spec.compact();
            assert_eq!(StrategySpec::parse(&text).expect("parses"), spec, "{text}");
        }
        assert_eq!(
            StrategySpec::parse("lfu").expect("bare lfu"),
            StrategySpec::default_lfu()
        );
        assert_eq!(
            StrategySpec::parse("oracle").expect("bare oracle"),
            StrategySpec::default_oracle()
        );
        assert_eq!(
            StrategySpec::parse("arc").expect("bare arc"),
            StrategySpec::default_arc()
        );
        assert_eq!(
            StrategySpec::parse("tlru").expect("bare tlru"),
            StrategySpec::default_tlru()
        );
        assert_eq!(
            StrategySpec::parse("prior-storing").expect("bare prior-storing"),
            StrategySpec::default_prior_storing()
        );
        assert_eq!(
            StrategySpec::parse("delayed-lfu").expect("bare delayed-lfu"),
            StrategySpec::default_delayed_lfu()
        );
        assert!(StrategySpec::parse("warp-drive").is_err());
        assert!(StrategySpec::parse("lfu:sevendays").is_err());
        assert!(StrategySpec::parse("lru:1d:2d").is_err());
        assert!(StrategySpec::parse("arc:lots").is_err());
        assert!(StrategySpec::parse("delayed-lfu:3d:fast").is_err());
        assert!(StrategySpec::parse("tlru:30m:extra").is_err());
        // A literal beyond what seconds can hold is an error naming the
        // text, not a wrapped (or, in a debug build, panicking) product.
        let err = StrategySpec::parse("oracle:300000000000000d").unwrap_err();
        assert!(
            matches!(&err, CacheError::UnknownStrategy { name }
                if name == "oracle:300000000000000d"),
            "{err}"
        );
        assert!(StrategySpec::parse("lfu:18446744073709551615h").is_err());
        assert_eq!(
            StrategySpec::parse("oracle:18446744073709551615s").expect("fits"),
            StrategySpec::Oracle {
                lookahead: SimDuration::from_secs(u64::MAX)
            }
        );
        // Likewise a latency beyond what milliseconds can hold; the
        // largest that fits still parses.
        let err = StrategySpec::parse("delayed-lfu:7d:18446744073709552s").unwrap_err();
        assert!(
            matches!(&err, CacheError::UnknownStrategy { name }
                if name == "delayed-lfu:7d:18446744073709552s"),
            "{err}"
        );
        assert_eq!(
            StrategySpec::parse("delayed-lfu:7d:18446744073709551s").expect("fits"),
            StrategySpec::DelayedLfu {
                history: SimDuration::from_days(7),
                latency_ms: 18_446_744_073_709_551_000,
            }
        );
    }

    #[test]
    fn oracle_requires_schedule() {
        let err = StrategySpec::default_oracle()
            .build(10, NeighborhoodId::new(0), None)
            .unwrap_err();
        assert!(matches!(err, CacheError::MissingSchedule));

        let schedule = ScheduleWindow::new(Arc::new([]));
        let s = StrategySpec::default_oracle()
            .build(10, NeighborhoodId::new(0), Some(schedule))
            .expect("schedule provided");
        assert_eq!(s.name(), "Oracle");
        assert_eq!(s.fill_policy(), FillPolicy::Prefetch);
    }
}
