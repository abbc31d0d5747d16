//! Per-neighborhood sharding: shard scheduling and the two ways shards
//! run — every replay the `Simulation` builder composes, at every worker
//! count, one included.
//!
//! The paper's unit of isolation is the neighborhood: per-event state
//! (cache, boxes, coax) is neighborhood-local, the shared central-server
//! meter merges because bucket accounting is commutative
//! ([`RateMeter::merge`](cablevod_hfc::meter::RateMeter::merge)), and the
//! one thing that crosses neighborhoods — the global popularity feed — is
//! always published into one [`WatermarkFeed`] from one place, ahead of
//! every shard that reads it (all of it by the resident plan's survey,
//! block by block by the decoding thread on streaming runs). Each shard
//! is therefore one [`SessionDriver`] over its own neighborhood, built by
//! the one constructor every driver comes from, and what a shard may read
//! never depends on how far another has got. A shard reads its
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
//!   records by neighborhood, then one pass of the pool steps every live
//!   shard through it — a shard's run is its slice of the block — and on
//!   to its edge, where the shard parks until the next pass. A shard may
//!   move to another worker between blocks; nothing else is shared.
//!
//! Both draw their workers from the pool in [`runner`], which sizes them
//! from the process-wide permit ledger, so a sharded run composes with a
//! concurrently executing sweep instead of oversubscribing the machine
//! (and the caller's own thread always works, so a dry ledger just means
//! a single-worker run).

use std::sync::{Arc, Mutex};

use cablevod_cache::WatermarkFeed;
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
    feed: Option<&WatermarkFeed>,
    threads: usize,
) -> Vec<Result<NeighborhoodOutcome, SimError>> {
    runner::run_indexed(parts.topo.neighborhood_count(), threads, |n| {
        let supply = StreamSupply::new(chunks, &runs[n], parts);
        let mut driver = parts.driver(n, supply, feed)?;
        driver.run()?;
        Ok(driver.into_outcome())
    })
}

/// What a streaming run says about itself beside its report.
pub(super) struct Streamed {
    /// Whether the replay took the sweep fast path
    /// ([`super::fastpath_layout`]).
    pub(super) fastpath: bool,
    /// The watermark feed's peak live slot count (`None` when the run
    /// carried no feed), which the idle-neighborhood regression test
    /// asserts stays bounded.
    pub(super) peak_feed_slots: Option<usize>,
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
        peak_feed_slots: None,
    };
    let outcomes = match shard_plans(source, parts.config, nbhd_count, parts.strategy) {
        Replay::Runs(runs) => {
            streamed.fastpath = true;
            run_jobs(parts, source, &runs, None, threads)
        }
        Replay::Blocked(runs) => {
            let feed = parts
                .strategy
                .needs_feed()
                .then(|| WatermarkFeed::new(source.record_count(), nbhd_count));
            let outcomes = run_blocked(source, &runs, parts, feed.as_ref(), threads)?;
            streamed.peak_feed_slots = feed.as_ref().map(WatermarkFeed::peak_live_slots);
            outcomes.into_iter().map(Ok).collect()
        }
    };
    Ok((outcomes, streamed))
}

/// The blocked replay (see the module docs): the caller's thread decodes
/// `runs` — together every record of `source` — block by block, and after
/// each block one pool pass on `threads` workers steps every live shard
/// through it: a shard runs through its run of the block and on to —
/// strictly before — the block's edge, carrying its continuation queue
/// into the next block, and the final block has no edge and runs every
/// shard out. Returns every shard's outcome in neighborhood order, or the
/// failure that ended the run: the decoder's, else the lowest-numbered
/// neighborhood's of the pass it failed in, at any worker count.
fn run_blocked<S: TraceSource + ?Sized>(
    source: &S,
    runs: &[Vec<u32>],
    parts: &DriverParts<'_>,
    feed: Option<&WatermarkFeed>,
    threads: usize,
) -> Result<Vec<NeighborhoodOutcome>, SimError> {
    let nbhd_count = parts.topo.neighborhood_count();
    // A shard is its driver until it ends; the lock is never contended —
    // a pass steps each shard once — and lets a pass hand it to whichever
    // worker claims its index.
    let shards: Vec<Mutex<Option<BlockDriver<'_>>>> =
        runner::run_indexed(nbhd_count, threads, |n| {
            let supply = BlockSupply::new(n, source.catalog(), parts.topo, &parts.segmenter);
            parts
                .driver(n, supply, feed)
                .map(|driver| Mutex::new(Some(driver)))
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
    let mut outcomes: Vec<Option<NeighborhoodOutcome>> = (0..nbhd_count).map(|_| None).collect();
    let mut demux = Demux::new(
        source,
        runs,
        parts.topo,
        parts.config,
        parts.segmenter,
        feed,
        parts.strategy,
    );
    let mut block = Arc::new(Block::default());
    loop {
        demux.fill(Arc::get_mut(&mut block).expect("every shard let go of the last block"))?;
        let endings = runner::run_indexed(nbhd_count, threads, |n| {
            let mut shard = shards[n].lock().expect("a shard's step panicked");
            let driver = shard.as_mut()?;
            driver.supply_mut().attach(&block);
            let ending = driver.step().and_then(|step| {
                if let (Step::Horizon { .. }, Some((edge, published))) = (&step, block.edge()) {
                    driver.sync_published(edge, published)?;
                }
                Ok(step)
            });
            match ending {
                Ok(Step::Horizon { .. }) => None,
                Ok(Step::Done) => shard.take().map(|driver| Ok(driver.into_outcome())),
                Err(e) => {
                    *shard = None;
                    Some(Err(e))
                }
            }
        });
        for (n, ending) in endings.into_iter().enumerate() {
            if let Some(ending) = ending {
                outcomes[n] = Some(ending?);
            }
        }
        if block.edge().is_none() {
            break;
        }
    }
    Ok(outcomes
        .into_iter()
        .map(|outcome| outcome.expect("the final block runs every shard out"))
        .collect())
}

/// A shard of the blocked replay.
type BlockDriver<'a> = SessionDriver<'a, BlockSupply<'a>>;
