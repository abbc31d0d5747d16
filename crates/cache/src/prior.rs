//! Prior-storing server (Tsang et al., PAPERS.md): proactive placement
//! of *predicted*-popular content before first local access.
//!
//! Where the paper's [`GlobalLfu`](crate::feed::GlobalLfu) ingests remote
//! accesses only once their batch boundary has passed, a prior-storing
//! server consumes every published access the moment the feed carries it
//! — the same [`sync_global`](crate::strategy::CacheStrategy::sync_global)
//! hook at lag zero, whose visibility gate (`event.time <= now`) every
//! published prefix passes — and pushes content for the programs it
//! predicts will be popular (prefetch fill, so pushed segments are
//! servable without a capture step). Popularity prediction is the windowed-LFU count over the
//! prediction horizon; admissions still materialize through the ordinary
//! [`on_access`](crate::strategy::CacheStrategy::on_access) ops channel,
//! where placement can actually happen.
//!
//! So it is not a second implementation:
//! [`GlobalLfu::prior_storing`](crate::feed::GlobalLfu::prior_storing)
//! builds it, under its own name (`"Prior storing"`, which journals
//! carry). This module holds the statement above and the tests of it.

#[cfg(test)]
mod tests {
    use crate::feed::{FeedEvent, GlobalFeed, GlobalLfu};
    use crate::strategy::{CacheOp, CacheStrategy, FillPolicy};
    use cablevod_hfc::ids::{NeighborhoodId, ProgramId};
    use cablevod_hfc::units::{SimDuration, SimTime};

    fn ev(secs: u64, nbhd: u32, program: u32) -> FeedEvent {
        FeedEvent {
            time: SimTime::from_secs(secs),
            neighborhood: NeighborhoodId::new(nbhd),
            program: ProgramId::new(program),
            cost: 1,
        }
    }

    fn prior() -> GlobalLfu {
        GlobalLfu::prior_storing(4, SimDuration::from_days(1), NeighborhoodId::new(0))
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
        let mut s = GlobalLfu::prior_storing(4, SimDuration::from_hours(1), NeighborhoodId::new(0));
        s.sync_global(&feed, SimTime::from_secs(20), feed.len());
        // Two hours later the prediction is stale: only the fresh local
        // program is admitted.
        let mut ops = Vec::new();
        s.on_access(ProgramId::new(1), 4, SimTime::from_secs(7_200), &mut ops);
        assert_eq!(ops, vec![CacheOp::Admit(ProgramId::new(1))]);
    }
}
