//! Global popularity feeds (Fig 13).
//!
//! §VI-A: "One final way to increase the data available to the LFU
//! algorithm is to use access data from peers outside the neighborhood."
//! The paper evaluates an LFU whose counts are fed with *system-wide*
//! accesses — instantaneously, in 30-minute batches, in 2-hour batches —
//! against the purely local LFU.
//!
//! The engine publishes every access into one carrier, the [`Feed`];
//! [`GlobalLfu`] is a windowed LFU that counts local accesses immediately
//! and remote accesses once their batch boundary has passed.
//!
//! # One carrier, read as slices
//!
//! A [`Feed`] is the dense sequence of events addressed by **global
//! sequence number** (the global record index of the access that produced
//! the event), in global order, which never goes back in time: what a
//! strategy's batching lag lets it see of the events it is handed is a
//! prefix of them. A run's one producer appends to it through `&mut` in a
//! phase where no driver runs — the resident survey before any shard
//! starts, the blocked replay's decoder between pool passes, the online
//! ingress between clock advances — and the drivers then read it through
//! `&`: each keeps its own consumption cursor and hands its strategy the
//! unread published prefix up to the session it is about to start as one
//! slice ([`CacheStrategy::sync_global`]). The borrow checker is what
//! keeps a read and a write apart.
//!
//! # Retention
//!
//! A streaming or online run drops the events below the smallest cursor
//! of its live drivers after every pass ([`Feed::reclaim`]), so what it
//! retains is what some driver has yet to read: one block (or one
//! advance's submissions) plus what a strategy's batching lag still keeps
//! invisible — provided every driver keeps reading, which is why a parked
//! driver syncs at every edge (the engine's idle sweep). A resident run
//! holds the trace already and never reclaims: its feed is a `Vec` sized
//! to the record count, 24 B an event.

use std::ops::Range;

use cablevod_hfc::ids::{NeighborhoodId, ProgramId};
use cablevod_hfc::units::{SimDuration, SimTime};

use crate::error::CacheError;
use crate::event::AccessEvent;
use crate::history::HistoryWindow;
use crate::lfu::WindowedLfu;
use crate::strategy::{CacheOp, CacheStrategy, FillPolicy};

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

/// The run's global popularity feed: the events of sequence numbers
/// `floor..end`, the ones below the floor dropped (see the module docs).
#[derive(Debug, Default)]
pub struct Feed {
    /// The sequence number of `events[0]`.
    floor: u64,
    events: Vec<FeedEvent>,
    /// The most events retained before any reclaim so far.
    peak: usize,
}

impl Feed {
    /// An empty feed with room for `events` events.
    pub fn with_capacity(events: usize) -> Self {
        Feed {
            events: Vec::with_capacity(events),
            ..Feed::default()
        }
    }

    /// Publishes the event of sequence number [`end`](Feed::end).
    pub fn push(&mut self, event: FeedEvent) {
        self.events.push(event);
    }

    /// The sequence number the next event gets: every one below it is
    /// published.
    pub fn end(&self) -> u64 {
        self.floor + self.events.len() as u64
    }

    /// The events of sequence numbers `seqs`, in order.
    ///
    /// # Panics
    ///
    /// Panics if `seqs` reaches below the floor or past [`end`](Feed::end).
    pub fn events(&self, seqs: Range<u64>) -> &[FeedEvent] {
        assert!(
            seqs.start >= self.floor,
            "feed event {} was read below the floor {}",
            seqs.start,
            self.floor
        );
        let at = |seq: u64| (seq - self.floor) as usize;
        &self.events[at(seqs.start)..at(seqs.end)]
    }

    /// Drops every event below the smallest of `cursors`, each a reader's
    /// next sequence number — every event, when no reader is left.
    pub fn reclaim(&mut self, cursors: impl IntoIterator<Item = u64>) {
        self.peak = self.peak.max(self.events.len());
        let gone = cursors
            .into_iter()
            .min()
            .unwrap_or(u64::MAX)
            .saturating_sub(self.floor)
            .min(self.events.len() as u64);
        self.events.drain(..gone as usize);
        self.floor += gone;
    }

    /// The most events the feed has held at once.
    pub fn peak_retained(&self) -> usize {
        self.peak.max(self.events.len())
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

    /// Ingests the newly visible remote accesses at the front of
    /// `events` — the feed is in time order, so they are a prefix, and
    /// reach the window as one sorted run. Counts only — rebalancing
    /// happens at the next local access, when admissions can actually be
    /// placed. Returns the length of that prefix.
    fn sync_global(&mut self, events: &[FeedEvent], now: SimTime) -> usize {
        let home = self.home;
        let visible_before = Self::visible_before(self.lag, now);
        let visible = events
            .iter()
            .position(|ev| ev.time >= visible_before)
            .unwrap_or(events.len());
        self.core.record_run(
            events[..visible]
                .iter()
                // The home neighborhood's own are counted at access time.
                .filter(|ev| ev.neighborhood != home)
                .map(|ev| (ev.program, ev.cost, ev.time)),
        );
        self.core.expire(now);
        visible
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
    fn a_feed_event_is_24_bytes() {
        // What a resident run's feed holds a record, beside the trace.
        assert_eq!(std::mem::size_of::<FeedEvent>(), 24);
    }

    #[test]
    fn reads_in_order_across_a_reclaim() {
        let mut feed = Feed::with_capacity(4);
        for seq in 0..10u64 {
            feed.push(ev(seq, 1, seq as u32));
        }
        assert_eq!(feed.events(2..5), &[ev(2, 1, 2), ev(3, 1, 3), ev(4, 1, 4)]);
        feed.reclaim([6, 9]);
        for seq in 10..14u64 {
            feed.push(ev(seq, 1, seq as u32));
        }
        assert_eq!(feed.end(), 14);
        let tail: Vec<u32> = feed
            .events(6..14)
            .iter()
            .map(|e| e.program.value())
            .collect();
        assert_eq!(tail, (6..14).collect::<Vec<_>>());
        assert!(feed.events(14..14).is_empty());
        // With no reader left everything published goes, and the
        // sequence numbers carry on.
        feed.reclaim([]);
        feed.push(ev(14, 1, 14));
        assert_eq!(feed.events(14..15), &[ev(14, 1, 14)]);
        assert_eq!(feed.peak_retained(), 10);
    }

    #[test]
    #[should_panic(expected = "below the floor")]
    fn reading_below_the_floor_panics() {
        let mut feed = Feed::default();
        for seq in 0..12u64 {
            feed.push(ev(seq, 0, 1));
        }
        feed.reclaim([8]);
        feed.events(7..12);
    }

    #[test]
    fn retention_stays_bounded_under_a_trailing_consumer() {
        // A trace-length stream through the carrier, reclaimed below the
        // slower of two cursors that trail publication by a bounded lag
        // (as a global LFU's trails it by its batching lag): what is
        // retained stays within the lag plus two reclaim periods while
        // the published events grow a thousandfold past it.
        let (total, lag, period) = (100_000u64, 100u64, 64u64);
        let mut feed = Feed::default();
        let mut cursors = [0u64; 2];
        for seq in 0..total {
            feed.push(ev(seq, (seq % 2) as u32, (seq % 97) as u32));
            cursors[(seq % 2) as usize] = seq.saturating_sub(lag);
            if seq % period == 0 {
                feed.reclaim(cursors);
            }
        }
        let peak = feed.peak_retained() as u64;
        assert!(
            peak <= lag + 2 * period,
            "retention leaked: {peak} events retained for a {total} event stream"
        );
        // The retained suffix is still readable.
        assert_eq!(
            feed.events(total - 1..total)[0].time,
            SimTime::from_secs(total - 1)
        );
    }

    #[test]
    fn zero_lag_sees_remote_events_immediately() {
        let feed = [ev(100, 1, 7)];
        let mut s = lfu(0);
        assert_eq!(s.sync_global(&feed, SimTime::from_secs(100)), 1);
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
        let feed = [ev(lag + 10, 1, 7)]; // batch 1
        let mut s = lfu(lag);
        // Still inside batch 1: not visible.
        assert_eq!(s.sync_global(&feed, SimTime::from_secs(2 * lag - 1)), 0);
        // After the boundary: visible.
        assert_eq!(s.sync_global(&feed, SimTime::from_secs(2 * lag)), 1);
    }

    #[test]
    fn own_neighborhood_events_are_skipped() {
        let feed = [ev(10, 0, 7), ev(11, 2, 8)]; // the first is home's
        let mut s = lfu(0);
        assert_eq!(s.sync_global(&feed, SimTime::from_secs(20)), 2);
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
        // A shard reading a feed published in full ahead of it reads no
        // further than the slice it is handed, even when later events
        // are time-visible.
        let feed = [ev(10, 1, 7), ev(10, 2, 8)]; // same time, "published later"
        let mut s = lfu(0);
        assert_eq!(s.sync_global(&feed[..1], SimTime::from_secs(10)), 1);
        assert_eq!(s.core.count_of(ProgramId::new(8)), 0, "beyond the slice");
        // The next sync (slice extended) picks it up.
        assert_eq!(s.sync_global(&feed[1..], SimTime::from_secs(10)), 1);
        assert_eq!(s.core.count_of(ProgramId::new(8)), 1);
    }

    #[test]
    fn cursor_never_rereads() {
        let feed = [ev(10, 1, 7)];
        let mut s = lfu(0);
        let cursor = s.sync_global(&feed, SimTime::from_secs(20));
        assert_eq!(s.sync_global(&feed[cursor..], SimTime::from_secs(30)), 0);
        assert_eq!(
            s.core.count_of(ProgramId::new(7)),
            1,
            "event consumed exactly once"
        );
    }

    #[test]
    fn remote_counts_expire_with_the_window() {
        let feed = [ev(10, 1, 7)];
        let mut s = GlobalLfu::new(
            4,
            SimDuration::from_hours(1),
            SimDuration::ZERO,
            NeighborhoodId::new(0),
        );
        s.sync_global(&feed, SimTime::from_secs(20));
        // Two hours later the remote access is stale; only the fresh local
        // program gets admitted.
        let mut ops = Vec::new();
        s.on_access(ProgramId::new(1), 4, SimTime::from_secs(7_200), &mut ops);
        assert_eq!(ops, vec![CacheOp::Admit(ProgramId::new(1))]);
    }
}
