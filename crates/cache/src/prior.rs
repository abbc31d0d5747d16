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
    use crate::feed::{FeedEvent, GlobalLfu};
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
        let feed = [ev(100, 1, 7)];
        let mut s = prior();
        assert_eq!(s.sync_global(&feed, SimTime::from_secs(100)), 1);
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
    fn a_sync_consumes_each_event_once() {
        // The caller moves its cursor past what a sync returns, so the
        // next syncs are handed only what follows.
        let feed = [ev(10, 1, 7)];
        let mut s = prior();
        let mut cursor = 0;
        for _ in 0..3 {
            cursor += s.sync_global(&feed[cursor..], SimTime::from_secs(20));
        }
        assert_eq!(cursor, 1);
        assert_eq!(s.core.count_of(ProgramId::new(7)), 1);
    }

    #[test]
    fn home_events_are_skipped() {
        let feed = [ev(10, 0, 7), ev(11, 2, 8)]; // the first is home's
        let mut s = prior();
        assert_eq!(s.sync_global(&feed, SimTime::from_secs(20)), 2);
        assert_eq!(s.core.count_of(ProgramId::new(7)), 0);
        assert_eq!(s.core.count_of(ProgramId::new(8)), 1);
    }

    #[test]
    fn limit_bounds_the_window() {
        let feed = [ev(10, 1, 7), ev(10, 2, 8)];
        let mut s = prior();
        assert_eq!(s.sync_global(&feed[..1], SimTime::from_secs(10)), 1);
        assert_eq!(s.core.count_of(ProgramId::new(8)), 0);
        assert_eq!(s.sync_global(&feed[1..], SimTime::from_secs(10)), 1);
        assert_eq!(s.core.count_of(ProgramId::new(8)), 1);
    }

    #[test]
    fn sync_global_reports_the_prefetch_cursor() {
        // At lag zero every published event at or before `now` is
        // visible, and one after it is not.
        let feed = [ev(10, 1, 7), ev(11, 1, 8)];
        let mut s = prior();
        assert_eq!(s.sync_global(&feed, SimTime::from_secs(10)), 1);
        assert_eq!(s.sync_global(&feed[1..], SimTime::from_secs(11)), 1);
    }

    #[test]
    fn predictions_expire_with_the_horizon() {
        let feed = [ev(10, 1, 7)];
        let mut s = GlobalLfu::prior_storing(4, SimDuration::from_hours(1), NeighborhoodId::new(0));
        s.sync_global(&feed, SimTime::from_secs(20));
        // Two hours later the prediction is stale: only the fresh local
        // program is admitted.
        let mut ops = Vec::new();
        s.on_access(ProgramId::new(1), 4, SimTime::from_secs(7_200), &mut ops);
        assert_eq!(ops, vec![CacheOp::Admit(ProgramId::new(1))]);
    }
}
