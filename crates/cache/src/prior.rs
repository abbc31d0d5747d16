//! Prior-storing server (Tsang et al., PAPERS.md): proactive placement
//! of *predicted*-popular content before first local access.
//!
//! Where [`GlobalLfu`](crate::feed::GlobalLfu) ingests remote accesses
//! only once their batch boundary has passed, a prior-storing server
//! consumes every published access the moment the feed carries it — the
//! same [`CacheStrategy::sync_global`] hook, without the visibility gate —
//! and pushes content for the programs it predicts will be popular
//! (prefetch fill, so pushed segments are servable without a capture
//! step). Popularity prediction is the windowed-LFU count over the
//! prediction horizon; admissions still materialize through the ordinary
//! [`on_access`](CacheStrategy::on_access) ops channel, where placement
//! can actually happen.

use cablevod_hfc::ids::{NeighborhoodId, ProgramId};
use cablevod_hfc::units::{SimDuration, SimTime};

use crate::feed::FeedEvents;
use crate::lfu::WindowedLfu;
use crate::strategy::{CacheOp, CacheStrategy, FillPolicy};

/// The prior-storing strategy (see the module docs).
#[derive(Debug)]
pub struct PriorStoring {
    core: WindowedLfu,
    home: NeighborhoodId,
    cursor: usize,
}

impl PriorStoring {
    /// Creates a prior-storing server for neighborhood `home` with
    /// prediction horizon `horizon`.
    pub fn new(capacity_slots: u64, horizon: SimDuration, home: NeighborhoodId) -> Self {
        PriorStoring {
            core: WindowedLfu::new(capacity_slots, horizon),
            home,
            cursor: 0,
        }
    }

    /// Number of feed events consumed so far.
    pub fn cursor(&self) -> usize {
        self.cursor
    }
}

impl CacheStrategy for PriorStoring {
    fn name(&self) -> &'static str {
        "Prior storing"
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

    /// Pushed content is present the moment it is admitted — the whole
    /// point of storing prior to first access.
    fn fill_policy(&self) -> FillPolicy {
        FillPolicy::Prefetch
    }

    /// Consumes the published prefix immediately (no batching lag —
    /// prediction acts on an access as soon as it is public), skipping
    /// home events, which arrive through
    /// [`on_access`](CacheStrategy::on_access). Idempotent via the
    /// cursor, which it returns: everything below it has been consumed
    /// and will never be read again.
    fn sync_global(&mut self, feed: &dyn FeedEvents, now: SimTime, limit: usize) -> u64 {
        let limit = limit.min(feed.published());
        while self.cursor < limit {
            let ev = feed.event_at(self.cursor);
            self.cursor += 1;
            if ev.neighborhood == self.home {
                continue; // counted locally at access time
            }
            self.core.record(ev.program, ev.cost, ev.time);
        }
        self.core.expire(now);
        self.cursor as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::{FeedEvent, GlobalFeed};

    fn ev(secs: u64, nbhd: u32, program: u32) -> FeedEvent {
        FeedEvent {
            time: SimTime::from_secs(secs),
            neighborhood: NeighborhoodId::new(nbhd),
            program: ProgramId::new(program),
            cost: 1,
        }
    }

    fn prior() -> PriorStoring {
        PriorStoring::new(4, SimDuration::from_days(1), NeighborhoodId::new(0))
    }

    #[test]
    fn feed_window_predicts_before_first_local_access() {
        let mut feed = GlobalFeed::new();
        feed.publish(ev(100, 1, 7));
        let mut s = prior();
        s.sync_global(&feed, SimTime::from_secs(100), feed.len());
        assert_eq!(s.cursor(), 1);
        // The predicted program is admitted alongside the local one at
        // the next access — through the ordinary ops channel.
        let mut ops = Vec::new();
        s.on_access(ProgramId::new(3), 1, SimTime::from_secs(101), &mut ops);
        assert!(ops.contains(&CacheOp::Admit(ProgramId::new(3))));
        assert!(
            ops.contains(&CacheOp::Admit(ProgramId::new(7))),
            "ops {ops:?}"
        );
        assert_eq!(s.fill_policy(), FillPolicy::Prefetch);
    }

    #[test]
    fn windows_are_idempotent_under_redelivery() {
        let mut feed = GlobalFeed::new();
        feed.publish(ev(10, 1, 7));
        let mut s = prior();
        for _ in 0..3 {
            s.sync_global(&feed, SimTime::from_secs(20), feed.len());
        }
        assert_eq!(s.cursor(), 1, "event consumed exactly once");
        assert_eq!(s.core.count_of(ProgramId::new(7)), 1);
    }

    #[test]
    fn home_events_are_skipped() {
        let mut feed = GlobalFeed::new();
        feed.publish(ev(10, 0, 7)); // home neighborhood
        feed.publish(ev(11, 2, 8));
        let mut s = prior();
        s.sync_global(&feed, SimTime::from_secs(20), feed.len());
        assert_eq!(s.cursor(), 2);
        assert_eq!(s.core.count_of(ProgramId::new(7)), 0);
        assert_eq!(s.core.count_of(ProgramId::new(8)), 1);
    }

    #[test]
    fn limit_bounds_the_window() {
        let mut feed = GlobalFeed::new();
        feed.publish(ev(10, 1, 7));
        feed.publish(ev(10, 2, 8));
        let mut s = prior();
        s.sync_global(&feed, SimTime::from_secs(10), 1);
        assert_eq!(s.cursor(), 1);
        s.sync_global(&feed, SimTime::from_secs(10), 99);
        assert_eq!(s.cursor(), 2, "clamped to published");
    }

    #[test]
    fn sync_global_reports_the_prefetch_cursor() {
        let mut feed = GlobalFeed::new();
        feed.publish(ev(10, 1, 7));
        let mut s = prior();
        assert_eq!(s.sync_global(&feed, SimTime::from_secs(10), feed.len()), 1);
        assert_eq!(s.sync_global(&feed, SimTime::from_secs(10), feed.len()), 1);
    }

    #[test]
    fn predictions_expire_with_the_horizon() {
        let mut feed = GlobalFeed::new();
        feed.publish(ev(10, 1, 7));
        let mut s = PriorStoring::new(4, SimDuration::from_hours(1), NeighborhoodId::new(0));
        s.sync_global(&feed, SimTime::from_secs(20), feed.len());
        // Two hours later the prediction is stale: only the fresh local
        // program is admitted.
        let mut ops = Vec::new();
        s.on_access(ProgramId::new(1), 4, SimTime::from_secs(7_200), &mut ops);
        assert_eq!(ops, vec![CacheOp::Admit(ProgramId::new(1))]);
    }
}
