//! Feed glue: constructing the right [`FeedProvider`] carrier for each
//! entry driver.
//!
//! The lifecycle core never touches a concrete feed type — it syncs
//! through [`FeedProvider`] (see [`cablevod_cache::feed`]). This module is
//! the engine-side selection logic:
//!
//! * **resident runs** precompute the whole [`GlobalFeed`] in one pass
//!   over the record slice ([`build_feed`]) and hand every driver a
//!   [`PrecomputedFeed`](cablevod_cache::PrecomputedFeed) over it —
//!   consumption is bounded per session by its own record index, which
//!   equals grow-as-you-go publication exactly;
//! * **streaming and online runs** share one
//!   [`WatermarkFeed`](cablevod_cache::WatermarkFeed): the run's one
//!   producer — the blocked replay's decoder, the online ingress —
//!   publishes through its
//!   [`FeedProducer`](cablevod_cache::FeedProducer) ahead of every
//!   driver, drivers consume through
//!   [`SharedFeed`](cablevod_cache::SharedFeed) handles, and every sync
//!   reports the strategy's cursor back so the carrier keeps its memory
//!   O(unconsumed window) instead of O(trace). A run whose strategy takes
//!   no feed ([`StrategyFactory::needs_feed`]) builds none.
//!
//! [`FeedProvider`]: cablevod_cache::FeedProvider

use cablevod_cache::{GlobalFeed, StrategyFactory};
use cablevod_hfc::segment::Segmenter;
use cablevod_trace::record::SessionRecord;

use super::lifecycle::{feed_event, SessionCtx};
use crate::config::SimConfig;

/// Builds the full global feed from a resident record slice (a pure
/// function of the trace — see the module docs of [`super`]), or `None`
/// when the strategy ignores it.
pub(super) fn build_feed(
    records: &[SessionRecord],
    ctxs: &[SessionCtx],
    config: &SimConfig,
    segmenter: &Segmenter,
    strategy: &dyn StrategyFactory,
) -> Option<GlobalFeed> {
    strategy.needs_feed().then(|| {
        let mut feed = GlobalFeed::new();
        for (rec, ctx) in records.iter().zip(ctxs) {
            feed.publish(feed_event(rec, ctx, config, segmenter));
        }
        feed
    })
}
