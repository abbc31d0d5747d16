//! Per-neighborhood sharding: shard scheduling and the two ways shards
//! run — every replay the `Simulation` builder composes, at every worker
//! count, one included.
//!
//! The paper's unit of isolation is the neighborhood: per-event state
//! (cache, boxes, coax) is neighborhood-local, the shared central-server
//! meter merges because bucket accounting is commutative
//! ([`RateMeter::merge`](cablevod_hfc::meter::RateMeter::merge)), and the
//! one thing that crosses neighborhoods — the global popularity feed — is
//! always published into one [`Feed`] from one place, while no shard runs
//! (all of it by the resident plan's survey, block by block between pool
//! passes by the decoding thread on streaming runs), and read by every
//! shard through `&` and a cursor of its own. Each shard is therefore
//! one [`SessionDriver`] over its own neighborhood, built by the one
//! constructor every driver comes from, and what a shard may read never
//! depends on how far another has got. A shard reads its
//! `(global index, record)` pairs front to back, in ascending global
//! index:
//!
//! * as independent jobs ([`run_jobs`]): every shard streams its own chunk
//!   runs through a [`StreamSupply`] — a resident trace's strides, which
//!   the survey cut from each neighborhood's record indices after it
//!   validated the records and published the feed if the strategy takes
//!   one; or a matched neighborhood-major file's chunks under a feed-less
//!   strategy. One loop runs both on the work-stealing pool; each shard
//!   is built when started and dropped when done — on one worker, inline
//!   on the caller's thread, so one neighborhood's plant, index and
//!   cursors are alive at a time;
//! * every other streaming replay is **blocked** ([`run_blocked`]): the
//!   caller's thread decodes and publishes the next block and groups its
//!   records by neighborhood, then one pass of the pool steps every shard
//!   through it — a shard's run is its slice of the block — and on to its
//!   edge, where the shard parks until the next pass; after the pass the
//!   feed drops what every shard has consumed. A shard may move to
//!   another worker between blocks; nothing else is shared.
//!
//! The blocked replay's loop ([`BlockLoop`]) is also the online engine's:
//! its ingress fills a block at every advance of the live clock, and one
//! pass on one worker — a plain loop on the caller's thread — steps each
//! neighborhood's driver through it (see [`super::online`]).
//!
//! Both draw their workers from the pool in [`runner`], which sizes them
//! from the process-wide permit ledger, so a sharded run composes with a
//! concurrently executing sweep instead of oversubscribing the machine
//! (and the caller's own thread always works, so a dry ledger just means
//! a single-worker run).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cablevod_cache::Feed;
use cablevod_hfc::units::SimTime;
use cablevod_trace::source::TraceSource;

use super::lifecycle::{SessionDriver, Step};
use super::report::NeighborhoodOutcome;
use super::stream::{Block, BlockSupply, ChunkSource, Demux, StreamSupply};
use super::{shard_plans, DriverParts, Replay};
use crate::error::SimError;
use crate::runner;

/// Runs every shard of `parts`' plant as an independent job on the
/// work-stealing pool, `threads` at once: shard `n` builds its driver
/// around a [`StreamSupply`] over its own `runs[n]` of `chunks` — reading
/// `feed`, published in full already, when the strategy takes one — runs
/// it out and is dropped with it. Returns every shard's ending in
/// neighborhood order.
pub(super) fn run_jobs<C: ChunkSource + Sync + ?Sized>(
    parts: &DriverParts<'_>,
    chunks: &C,
    runs: &[Vec<Vec<u32>>],
    feed: Option<&Feed>,
    threads: usize,
) -> Vec<Result<NeighborhoodOutcome, SimError>> {
    runner::run_indexed(parts.topo.neighborhood_count(), threads, |n| {
        let supply = StreamSupply::new(chunks, &runs[n], parts);
        let mut driver = parts.driver(n, supply)?;
        driver.run(feed)?;
        Ok(driver.into_outcome())
    })
}

/// What a streaming run says about itself beside its report.
pub(super) struct Streamed {
    /// Whether the replay took the sweep fast path
    /// ([`super::fastpath_layout`]).
    pub(super) fastpath: bool,
    /// The most feed events the run retained at once (`None` when it
    /// carried no feed), which the idle-neighborhood regression test
    /// asserts stays bounded.
    pub(super) peak_feed_events: Option<usize>,
}

/// The streaming driver, at any worker count: shards are supplied as the
/// source's layout and the strategy dictate (see [`super::shard_plans`]).
/// `threads` is how many run at once and nothing else — `1` is the plan on
/// the caller's thread. Returns every shard's ending in neighborhood order.
pub(super) fn run_streaming<S: TraceSource + ?Sized>(
    source: &S,
    parts: &DriverParts<'_>,
    threads: usize,
) -> Result<(Vec<Result<NeighborhoodOutcome, SimError>>, Streamed), SimError> {
    let nbhd_count = parts.topo.neighborhood_count();
    let mut streamed = Streamed {
        fastpath: false,
        peak_feed_events: None,
    };
    let outcomes = match shard_plans(source, parts.config, nbhd_count, parts.strategy) {
        Replay::Runs(runs) => {
            streamed.fastpath = true;
            run_jobs(parts, source, &runs, None, threads)
        }
        Replay::Blocked(runs) => {
            let (outcomes, peak) = run_blocked(source, &runs, parts, threads)?;
            streamed.peak_feed_events = peak;
            outcomes.into_iter().map(Ok).collect()
        }
    };
    Ok((outcomes, streamed))
}

/// The blocked replay (see the module docs): the [`Demux`] decodes
/// `runs` — together every record of `source` — block by block into the
/// block loop, on `threads` workers, which runs every driver out at the
/// final block. Returns every shard's outcome in neighborhood order and
/// the feed's peak, or the failure that ended the run (see
/// [`BlockLoop::pass`]).
fn run_blocked<S: TraceSource + ?Sized>(
    source: &S,
    runs: &[Vec<u32>],
    parts: &DriverParts<'_>,
    threads: usize,
) -> Result<(Vec<NeighborhoodOutcome>, Option<usize>), SimError> {
    let mut blocks = BlockLoop::new(parts, threads)?;
    let mut demux = Demux::new(
        source,
        runs,
        parts.topo,
        parts.config,
        parts.segmenter,
        parts.strategy,
    );
    while let Step::Horizon { .. } = blocks.pass(|block, feed| {
        demux.fill(block, feed)?;
        Ok(block.edge)
    })? {}
    Ok(blocks.finish())
}

/// A shard of the blocked replay, or a neighborhood of the online engine.
pub(super) type BlockDriver<'a> = SessionDriver<'a, BlockSupply<'a>>;

/// The one loop that steps drivers through [`Block`]s, on both plans that
/// have them: [`run_blocked`], whose decoder fills each block from a
/// file, and the online engine, whose ingress fills one at every advance
/// of the live clock (see [`super::online`]). It owns every
/// neighborhood's driver, the block and the run's feed.
pub(super) struct BlockLoop<'a> {
    /// Every neighborhood's driver, in neighborhood order, beside the
    /// error its step in the current pass returned, if it failed.
    shards: Vec<(BlockDriver<'a>, Option<SimError>)>,
    /// The block the drivers are stepped through, refilled in place.
    block: Arc<Block>,
    /// The run's feed, under a strategy that takes one; the online
    /// ingress publishes into it between passes.
    pub(super) feed: Option<Feed>,
    /// How many drivers a pass steps at once.
    threads: usize,
}

impl<'a> BlockLoop<'a> {
    /// Builds every neighborhood's driver of `parts`' plant, on `threads`
    /// workers, each over a [`BlockSupply`] that has no block yet.
    pub(super) fn new(parts: &DriverParts<'a>, threads: usize) -> Result<Self, SimError> {
        let shards = runner::run_indexed(parts.topo.neighborhood_count(), threads, |n| {
            let supply = BlockSupply::new(n, parts.catalog, parts.topo, &parts.segmenter);
            Ok((parts.driver(n, supply)?, None))
        })
        .into_iter()
        .collect::<Result<_, SimError>>()?;
        Ok(BlockLoop {
            shards,
            block: Arc::default(),
            feed: parts.strategy.needs_feed().then(Feed::default),
            threads,
        })
    }

    /// One pass. `fill` refills the block, publishing its feed events,
    /// and says where a parked driver runs its idle sweep: the blocked
    /// replay's is the edge; the online engine's is the clock's "now", a
    /// second short of it, so what a lookup reads between advances is the
    /// index as of "now". Then every driver, on the pool, is handed its
    /// run of the block, stepped through it and on to — strictly before —
    /// the block's edge, carrying its continuation queue into the next
    /// block, and, parked there, runs the idle sweep. Then the feed drops
    /// what every driver has consumed.
    ///
    /// Returns [`Step::Done`] after the final block, which has no edge and
    /// runs every driver out, and otherwise whether any driver progressed.
    ///
    /// # Errors
    ///
    /// The failure that ended the run: `fill`'s, else the
    /// lowest-numbered neighborhood's, at any worker count.
    pub(super) fn pass(
        &mut self,
        fill: impl FnOnce(&mut Block, Option<&mut Feed>) -> Result<Option<SimTime>, SimError>,
    ) -> Result<Step, SimError> {
        let filling = Arc::get_mut(&mut self.block).expect("every driver let go of the last block");
        let sweep = fill(filling, self.feed.as_mut())?;
        let (block, feed) = (&self.block, self.feed.as_ref());
        // Flags, not a step kept per driver and gathered after: on one
        // worker the pass stays one loop over the drivers.
        let (progressed, failed) = (AtomicBool::new(false), AtomicBool::new(false));
        runner::for_each(self.shards.iter_mut(), self.threads, |(driver, error)| {
            driver.supply_mut().attach(block);
            let stepped = driver.step(feed).and_then(|step| {
                if let (Step::Horizon { .. }, Some(at)) = (&step, sweep) {
                    driver.sync_published(at, feed)?;
                }
                Ok(step)
            });
            match stepped {
                Ok(Step::Horizon { progressed: true }) => progressed.store(true, Ordering::Relaxed),
                Ok(_) => {}
                Err(e) => {
                    *error = Some(e);
                    failed.store(true, Ordering::Relaxed);
                }
            }
        });
        if failed.into_inner() {
            let lowest = self.shards.iter_mut().find_map(|(_, error)| error.take());
            return Err(lowest.expect("a failed step left its error"));
        }
        let progressed = progressed.into_inner();
        if let Some(feed) = self.feed.as_mut() {
            feed.reclaim(self.shards.iter().map(|(driver, _)| driver.feed_cursor()));
        }
        Ok(match self.block.edge {
            Some(_) => Step::Horizon { progressed },
            None => Step::Done,
        })
    }

    /// Neighborhood `n`'s driver, if the plant has one.
    pub(super) fn driver(&self, n: usize) -> Option<&BlockDriver<'a>> {
        self.shards.get(n).map(|(driver, _)| driver)
    }

    /// After the final pass: every driver's outcome in neighborhood order,
    /// and the most events the feed retained at once (`None` when the run
    /// carried no feed).
    pub(super) fn finish(self) -> (Vec<NeighborhoodOutcome>, Option<usize>) {
        debug_assert!(
            self.block.edge.is_none(),
            "the final block ran every driver out"
        );
        let peak = self.feed.as_ref().map(Feed::peak_retained);
        let outcomes = self
            .shards
            .into_iter()
            .map(|(driver, _)| driver.into_outcome())
            .collect();
        (outcomes, peak)
    }
}
