//! Global popularity feeds (Fig 13).
//!
//! §VI-A: "One final way to increase the data available to the LFU
//! algorithm is to use access data from peers outside the neighborhood."
//! The paper evaluates an LFU whose counts are fed with *system-wide*
//! accesses — instantaneously, in 30-minute batches, in 2-hour batches —
//! against the purely local LFU.
//!
//! The engine publishes every access into one carrier, the
//! [`WatermarkFeed`]; [`GlobalLfu`] is a windowed LFU that counts local
//! accesses immediately and remote accesses once their batch boundary has
//! passed.
//!
//! # One carrier, one consumption contract
//!
//! Consumers read the feed through the [`FeedEvents`] trait: a dense
//! sequence of events addressed by **global sequence number** (the global
//! record index of the access that produced the event). Every plan carries
//! it in a [`WatermarkFeed`] (see [`crate::watermark`]), published by the
//! run's one producer ahead of every consumer: the resident plan's pass
//! over its records, the blocked replay's decoder, the online ingress.
//!
//! Every driver reads it through a [`SharedFeed`]: strategy syncs, bounded
//! per session by the session's own record index, and the retirement of
//! its consumer once the driver is through. Every sync reports the
//! strategy's consumption cursor back so the carrier can reclaim.

use cablevod_hfc::ids::{NeighborhoodId, ProgramId};
use cablevod_hfc::units::{SimDuration, SimTime};

use crate::error::CacheError;
use crate::event::AccessEvent;
use crate::history::HistoryWindow;
use crate::index::IndexServer;
use crate::lfu::WindowedLfu;
use crate::strategy::{CacheOp, CacheStrategy, FillPolicy};
use crate::watermark::{FeedView, WatermarkFeed};

/// One access published to the global feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedEvent {
    /// When the access happened.
    pub time: SimTime,
    /// The neighborhood it happened in.
    pub neighborhood: NeighborhoodId,
    /// The accessed program.
    pub program: ProgramId,
    /// The program's size in slots.
    pub cost: u32,
}

/// Read access to the system-wide event sequence, addressed by global
/// sequence number.
///
/// Implementations guarantee that events `0..published()` exist and are in
/// non-decreasing time order; consumers additionally bound themselves with
/// the explicit `limit` the engine passes to
/// [`CacheStrategy::sync_global`].
pub trait FeedEvents {
    /// The event with sequence number `seq`.
    ///
    /// # Panics
    ///
    /// May panic when `seq >= published()`.
    fn event_at(&self, seq: usize) -> FeedEvent;

    /// Number of leading events guaranteed present: every `seq` below this
    /// is safe to read.
    fn published(&self) -> usize;
}

/// The append-only system-wide access stream: the plain carrier this
/// crate's unit tests publish into by hand.
#[cfg(test)]
#[derive(Debug, Clone, Default)]
pub(crate) struct GlobalFeed {
    events: Vec<FeedEvent>,
}

#[cfg(test)]
impl GlobalFeed {
    /// Creates an empty feed.
    pub(crate) fn new() -> Self {
        GlobalFeed::default()
    }

    /// Publishes one access, no older than the newest published one.
    pub(crate) fn publish(&mut self, event: FeedEvent) {
        debug_assert!(
            self.events
                .last()
                .is_none_or(|last| last.time <= event.time),
            "feed events must be published in time order"
        );
        self.events.push(event);
    }

    /// All published events, oldest first.
    pub(crate) fn events(&self) -> &[FeedEvent] {
        &self.events
    }

    /// Number of published events.
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
impl FeedEvents for GlobalFeed {
    fn event_at(&self, seq: usize) -> FeedEvent {
        self.events[seq]
    }

    fn published(&self) -> usize {
        self.events.len()
    }
}

/// How a driver reads a shared [`WatermarkFeed`]: one instance serves
/// the one consumer its driver syncs, the driver's own neighborhood. All
/// sequence numbers are global record indices.
#[derive(Debug)]
pub struct SharedFeed<'a> {
    feed: &'a WatermarkFeed,
    /// Kept from sync to sync, so the segment the consumer reads from
    /// stays cached and a sync takes no lock on the feed's directory.
    view: FeedView<'a>,
    consumer: usize,
}

impl<'a> SharedFeed<'a> {
    /// A provider syncing (and eventually finishing) `consumer`.
    pub fn new(feed: &'a WatermarkFeed, consumer: usize) -> Self {
        SharedFeed {
            feed,
            view: feed.view(),
            consumer,
        }
    }

    /// Feeds `index`'s strategy every newly visible event up to and
    /// including `seq`, at session-start time `now`, and reports its
    /// cursor back to the carrier. Events `0..=seq` must be published —
    /// the run's producer works ahead of its consumers, so for a driver
    /// about to start record `seq` they are.
    pub fn sync(&mut self, index: &mut IndexServer, now: SimTime, seq: u64) {
        self.view.catch_up();
        debug_assert!(
            self.view.published() as u64 > seq,
            "the producer publishes ahead of every consumer"
        );
        let cursor = index.sync_feed(&self.view, now, seq as usize + 1);
        self.feed.note_consumed(self.consumer, cursor);
    }

    /// Marks the consumer as done: nothing more will be read.
    pub fn finish(&mut self) {
        self.feed.finish_consumer(self.consumer);
    }
}

/// Windowed LFU with a global popularity feed.
///
/// Remote accesses become visible at batch boundaries: an event at time `t`
/// with lag `L > 0` is visible once `floor(now / L) > floor(t / L)`; with
/// `L = 0` it is visible immediately. Local accesses are always counted
/// immediately (they arrive through [`CacheStrategy::on_access`]).
///
/// The [prior-storing server](crate::prior) is this strategy at lag zero
/// with prefetch fill ([`GlobalLfu::prior_storing`]).
#[derive(Debug)]
pub struct GlobalLfu {
    pub(crate) core: WindowedLfu,
    home: NeighborhoodId,
    lag: SimDuration,
    cursor: usize,
    name: &'static str,
    fill: FillPolicy,
}

impl GlobalLfu {
    /// Creates a global LFU for neighborhood `home`.
    pub fn new(
        capacity_slots: u64,
        window: SimDuration,
        lag: SimDuration,
        home: NeighborhoodId,
    ) -> Self {
        GlobalLfu {
            core: WindowedLfu::new(capacity_slots, window),
            home,
            lag,
            cursor: 0,
            name: "Global LFU",
            fill: FillPolicy::OnBroadcast,
        }
    }

    /// Creates a [prior-storing server](crate::prior) for neighborhood
    /// `home` with prediction horizon `horizon`: every published access
    /// counts the moment the feed carries it (no batching lag), and
    /// pushed content is present the moment it is admitted — the whole
    /// point of storing prior to first access.
    pub fn prior_storing(capacity_slots: u64, horizon: SimDuration, home: NeighborhoodId) -> Self {
        GlobalLfu {
            name: "Prior storing",
            fill: FillPolicy::Prefetch,
            ..GlobalLfu::new(capacity_slots, horizon, SimDuration::ZERO, home)
        }
    }

    /// Has the neighborhood's own accesses handed back through `history`
    /// (see [`WindowedLfu::fed_by`]); the remote events the feed makes
    /// visible stay in the strategy's ring, as no supply of this
    /// neighborhood can hand them back.
    pub fn fed_by(mut self, history: Option<HistoryWindow>) -> Self {
        self.core = self.core.fed_by(history);
        self
    }

    /// The batching lag.
    pub fn lag(&self) -> SimDuration {
        self.lag
    }

    /// Number of feed events consumed so far.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// The instant before which every remote event is visible at `now`:
    /// with lag `L > 0` an event at `t` is visible once `⌊now/L⌋ > ⌊t/L⌋`,
    /// that is once `t < ⌊now/L⌋·L`; with `L = 0` once `t <= now`. One
    /// bound a sync, compared against every event it reads.
    fn visible_before(lag: SimDuration, now: SimTime) -> SimTime {
        match lag.as_secs() {
            0 => now.saturating_add(SimDuration::from_secs(1)),
            lag => SimTime::from_secs(now.as_secs() / lag * lag),
        }
    }
}

impl CacheStrategy for GlobalLfu {
    fn name(&self) -> &'static str {
        self.name
    }

    fn prepare(&mut self, now: SimTime) -> Result<(), CacheError> {
        self.core.check_history(now)
    }

    fn extend_history(
        &mut self,
        events: &[AccessEvent],
        covered: SimTime,
    ) -> Result<(), CacheError> {
        self.core.hand_back(events, covered)
    }

    fn on_access(&mut self, program: ProgramId, cost: u32, now: SimTime, ops: &mut Vec<CacheOp>) {
        self.core.record(program, cost, now);
        self.core.expire(now);
        self.core.ensure_candidate(program, cost);
        self.core.rebalance(ops);
    }

    fn contains(&self, program: ProgramId) -> bool {
        self.core.contains(program)
    }

    fn cost_of(&self, program: ProgramId) -> Option<u32> {
        self.core.cost_of(program)
    }

    fn used_slots(&self) -> u64 {
        self.core.used_slots()
    }

    fn capacity_slots(&self) -> u64 {
        self.core.capacity_slots()
    }

    fn fill_policy(&self) -> FillPolicy {
        self.fill
    }

    /// Ingests newly visible remote accesses — the feed is in time order,
    /// so they reach the window as one sorted run. Counts only —
    /// rebalancing happens at the next local access, when admissions can
    /// actually be placed. Returns the post-sync cursor: everything below
    /// it has been consumed and will never be read again.
    fn sync_global(&mut self, feed: &dyn FeedEvents, now: SimTime, limit: usize) -> u64 {
        let limit = limit.min(feed.published());
        let home = self.home;
        let visible_before = Self::visible_before(self.lag, now);
        let cursor = &mut self.cursor;
        self.core.record_run(std::iter::from_fn(|| {
            while *cursor < limit {
                let ev = feed.event_at(*cursor);
                if ev.time >= visible_before {
                    break;
                }
                *cursor += 1;
                if ev.neighborhood != home {
                    return Some((ev.program, ev.cost, ev.time));
                } // else: counted locally at access time
            }
            None
        }));
        self.core.expire(now);
        self.cursor as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(secs: u64, nbhd: u32, program: u32) -> FeedEvent {
        FeedEvent {
            time: SimTime::from_secs(secs),
            neighborhood: NeighborhoodId::new(nbhd),
            program: ProgramId::new(program),
            cost: 1,
        }
    }

    fn lfu(lag_secs: u64) -> GlobalLfu {
        GlobalLfu::new(
            4,
            SimDuration::from_days(1),
            SimDuration::from_secs(lag_secs),
            NeighborhoodId::new(0),
        )
    }

    #[test]
    fn zero_lag_sees_remote_events_immediately() {
        let mut feed = GlobalFeed::new();
        feed.publish(ev(100, 1, 7));
        let mut s = lfu(0);
        s.sync_global(&feed, SimTime::from_secs(100), feed.len());
        assert_eq!(s.cursor(), 1);
        // Remote count is pending; a local access triggers admission of the
        // remotely-hot program alongside the local one.
        let mut ops = Vec::new();
        s.on_access(ProgramId::new(3), 1, SimTime::from_secs(101), &mut ops);
        assert!(ops.contains(&CacheOp::Admit(ProgramId::new(3))));
        assert!(
            ops.contains(&CacheOp::Admit(ProgramId::new(7))),
            "ops {ops:?}"
        );
    }

    #[test]
    fn lagged_events_wait_for_batch_boundary() {
        let lag = 1_800; // 30 minutes
        let mut feed = GlobalFeed::new();
        feed.publish(ev(lag + 10, 1, 7)); // batch 1
        let mut s = lfu(lag);
        // Still inside batch 1: not visible.
        s.sync_global(&feed, SimTime::from_secs(2 * lag - 1), feed.len());
        assert_eq!(s.cursor(), 0);
        // After the boundary: visible.
        s.sync_global(&feed, SimTime::from_secs(2 * lag), feed.len());
        assert_eq!(s.cursor(), 1);
    }

    #[test]
    fn own_neighborhood_events_are_skipped() {
        let mut feed = GlobalFeed::new();
        feed.publish(ev(10, 0, 7)); // home neighborhood
        feed.publish(ev(11, 2, 8));
        let mut s = lfu(0);
        s.sync_global(&feed, SimTime::from_secs(20), feed.len());
        assert_eq!(s.cursor(), 2);
        // Program 7 was home-published: not counted via the feed.
        let mut ops = Vec::new();
        s.on_access(ProgramId::new(1), 1, SimTime::from_secs(21), &mut ops);
        assert!(ops.contains(&CacheOp::Admit(ProgramId::new(8))));
        assert!(
            !ops.contains(&CacheOp::Admit(ProgramId::new(7))),
            "ops {ops:?}"
        );
    }

    #[test]
    fn limit_bounds_consumption_like_serial_publication() {
        // A shard reading a feed published in full ahead of it must not
        // look past the bound, even when later events are time-visible.
        let mut feed = GlobalFeed::new();
        feed.publish(ev(10, 1, 7));
        feed.publish(ev(10, 2, 8)); // same time, "published later"
        let mut s = lfu(0);
        s.sync_global(&feed, SimTime::from_secs(10), 1);
        assert_eq!(s.cursor(), 1, "second event is beyond the bound");
        // The next sync (bound advanced) picks it up.
        s.sync_global(&feed, SimTime::from_secs(10), feed.len());
        assert_eq!(s.cursor(), 2);
        // A bound beyond the feed is clamped.
        s.sync_global(&feed, SimTime::from_secs(11), 99);
        assert_eq!(s.cursor(), 2);
    }

    #[test]
    fn cursor_never_rereads() {
        let mut feed = GlobalFeed::new();
        feed.publish(ev(10, 1, 7));
        let mut s = lfu(0);
        s.sync_global(&feed, SimTime::from_secs(20), feed.len());
        s.sync_global(&feed, SimTime::from_secs(30), feed.len());
        assert_eq!(s.cursor(), 1, "event consumed exactly once");
    }

    #[test]
    fn remote_counts_expire_with_the_window() {
        let mut feed = GlobalFeed::new();
        feed.publish(ev(10, 1, 7));
        let mut s = GlobalLfu::new(
            4,
            SimDuration::from_hours(1),
            SimDuration::ZERO,
            NeighborhoodId::new(0),
        );
        s.sync_global(&feed, SimTime::from_secs(20), feed.len());
        // Two hours later the remote access is stale; only the fresh local
        // program gets admitted.
        let mut ops = Vec::new();
        s.on_access(ProgramId::new(1), 4, SimTime::from_secs(7_200), &mut ops);
        assert_eq!(ops, vec![CacheOp::Admit(ProgramId::new(1))]);
    }
}
