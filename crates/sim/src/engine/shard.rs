//! Per-neighborhood sharding: shard scheduling and the two sharded entry
//! drivers — every replay the `Simulation` builder composes, at every
//! worker count, one included.
//!
//! The paper's unit of isolation is the neighborhood: per-event state
//! (cache, boxes, coax) is neighborhood-local, the shared central-server
//! meter merges because bucket accounting is commutative
//! ([`RateMeter::merge`](cablevod_hfc::meter::RateMeter::merge)), and the
//! one thing that crosses neighborhoods — the global popularity feed — is
//! always published from one place, ahead of every shard that reads it
//! (precomputed on resident runs, by the decoding thread on streaming
//! runs). Each shard is therefore one [`SessionDriver`] over its own
//! neighborhood, built by the one constructor every driver comes from,
//! and what a shard may read never depends on how far another has got. What a
//! shard reads is always one contiguous run of `(global index, record)`
//! pairs, front to back, in ascending global index:
//!
//! * resident ([`run_sharded_resident`]): one pass over the records
//!   validates them and lists each neighborhood's record indices; a shard
//!   copies its own records out through that list once, when it starts,
//!   and replays the copy. Streaming over a matched neighborhood-major
//!   file under a feed-less strategy: a shard decodes its own chunk runs.
//!   Either way shards are independent jobs on the work-stealing pool
//!   ([`runner::run_indexed`]), built when started and dropped when done
//!   — on one worker, inline on the caller's thread, so one
//!   neighborhood's plant, index and records are alive at a time;
//! * every other streaming replay is **blocked** ([`run_blocked`]): shards
//!   are cooperative tasks striped over the workers, advancing block by
//!   block, each parked at the block's edge until the caller's thread has
//!   decoded and published the next one and grouped its records by
//!   neighborhood — a shard's run is its slice of the block. The only
//!   synchronization is the pair of barrier waits a block.
//!
//! Both size their worker sets from the process-wide permit ledger in
//! [`runner`], so a sharded run composes with a concurrently executing
//! sweep instead of oversubscribing the machine (and the caller's own
//! thread always drives, so a dry ledger just means a single-worker run).

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, PoisonError};

use cablevod_cache::{SharedFeed, StrategyFactory, WatermarkFeed};
use cablevod_trace::record::SessionRecord;
use cablevod_trace::source::TraceSource;

use super::lifecycle::{SessionDriver, Step, ABORTED};
use super::report::{merge_outcomes, NeighborhoodOutcome};
use super::stream::{Block, BlockSupply, Demux, GatheredSupply, StreamSupply};
use super::{build_topology, shard_plans, DriverParts, Replay};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::report::SimReport;
use crate::runner;

/// The resident per-neighborhood plan, at any worker count: one pass
/// over the records validates them, builds the feed if the strategy takes
/// one and lists each neighborhood's record indices; then every shard is
/// a job on the work-stealing pool that gathers its own records into one
/// contiguous run ([`GatheredSupply`]), replays it front to back
/// interleaved with its continuation queue, with the precomputed feed
/// shared read-only, and is dropped, plant and all, when done. With
/// `threads == 1` the jobs run inline on the caller's thread, one
/// neighborhood's working set alive at a time.
pub(super) fn run_sharded_resident<S: TraceSource + ?Sized>(
    records: &[SessionRecord],
    source: &S,
    config: &SimConfig,
    strategy: &dyn StrategyFactory,
    threads: usize,
) -> Result<SimReport, SimError> {
    config.validate()?;
    let topo = build_topology(source, config)?;
    let parts = DriverParts::new(&topo, source.catalog(), config, strategy)?;

    let (members, feed) = parts.survey(records)?;

    let outcomes = runner::run_indexed(members.len(), threads, |n| {
        let supply = GatheredSupply::gather(
            records,
            &members[n],
            parts.catalog,
            parts.topo,
            &parts.segmenter,
        );
        let provider = feed.as_ref().map(cablevod_cache::PrecomputedFeed::new);
        let mut driver = parts.driver(n, supply, provider, None)?;
        driver.run()?;
        Ok(driver.into_outcome())
    });
    merge_outcomes(outcomes, source.days(), config)
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
/// the caller's thread.
pub(super) fn run_streaming<S: TraceSource + ?Sized>(
    source: &S,
    config: &SimConfig,
    strategy: &dyn StrategyFactory,
    threads: usize,
) -> Result<(SimReport, Streamed), SimError> {
    config.validate()?;
    let topo = build_topology(source, config)?;
    let nbhd_count = topo.neighborhood_count();

    let replay = shard_plans(source, config, nbhd_count, strategy);
    // A strategy that looks ahead is fed its future by whoever supplies
    // its neighborhood's records, as the replay goes.
    let lookahead = strategy.schedule_lookahead();
    let parts = DriverParts::new(&topo, source.catalog(), config, strategy)?;

    let mut streamed = Streamed {
        fastpath: false,
        peak_feed_slots: None,
    };
    let outcomes = match &replay {
        Replay::Runs(runs) => {
            streamed.fastpath = true;
            runner::run_indexed(nbhd_count, threads, |n| {
                let supply =
                    StreamSupply::new(source, &runs[n], &topo, &parts.segmenter, lookahead);
                let mut driver = parts.driver(n, supply, None::<SharedFeed<'_>>, None)?;
                driver.run()?;
                Ok(driver.into_outcome())
            })
        }
        Replay::Blocked(runs) => {
            let feed = strategy
                .needs_feed()
                .then(|| WatermarkFeed::new(source.record_count(), nbhd_count));
            let outcomes = run_blocked(source, runs, &parts, feed.as_ref(), threads)?;
            streamed.peak_feed_slots = feed.as_ref().map(WatermarkFeed::peak_live_slots);
            outcomes
        }
    };

    let report = merge_outcomes(outcomes, source.days(), config)?;
    Ok((report, streamed))
}

/// The blocked replay (see the module docs): the caller's thread decodes
/// `runs` — together every record of `source` — block by block, and
/// `threads` workers, the caller among them, each carry a stripe of
/// shards through every block. Returns every shard's outcome in
/// neighborhood order, or the failure that ended the run.
fn run_blocked<S: TraceSource + ?Sized>(
    source: &S,
    runs: &[Vec<u32>],
    parts: &DriverParts<'_>,
    feed: Option<&WatermarkFeed>,
    threads: usize,
) -> Result<Vec<Result<NeighborhoodOutcome, SimError>>, SimError> {
    let nbhd_count = parts.topo.neighborhood_count();
    // Workers beyond the caller come from the shared ledger
    // ([`runner::take_permits`]): a sharded job started while a sweep
    // holds the machine begins with fewer workers instead of
    // oversubscribing, and each permit returns the moment its worker's
    // shards drain. Shard tasks cannot migrate between workers, so the
    // split is fixed at entry; the caller always drives stripe 0.
    let permits = runner::take_permits(threads.clamp(1, nbhd_count) - 1);
    let workers = 1 + permits.len();
    let env = ShardEnv {
        source,
        parts,
        feed,
        aborted: AtomicBool::new(false),
        panicked: Mutex::new(None),
        workers,
        blocks: BlockExchange::new(workers),
    };
    let mut demux = Demux::new(
        source,
        runs,
        parts.topo,
        parts.config,
        parts.segmenter,
        feed,
        parts.strategy.schedule_lookahead(),
    );
    let worker_results: Vec<ShardResults> = std::thread::scope(|scope| {
        let handles: Vec<_> = permits
            .into_iter()
            .zip(1..workers)
            .map(|(permit, w)| {
                let env = &env;
                scope.spawn(move || {
                    let results = env.drive(w, None);
                    drop(permit);
                    results
                })
            })
            .collect();
        let mine = env.drive(0, Some(&mut demux));
        let mut all: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect();
        all.push(mine);
        all
    });

    let ShardEnv {
        aborted, panicked, ..
    } = env;
    if let Some(payload) = panicked
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        resume_unwind(payload);
    }
    let mut results: ShardResults = worker_results.into_iter().flatten().collect();

    // Prefer the real failure — the decoder's, else a shard's — over the
    // abort sentinel the other shards raised while bailing out.
    if aborted.into_inner() {
        if let Some(e) = demux.into_failure() {
            return Err(e);
        }
        let mut sentinel = None;
        for (_, result) in results {
            match result {
                Err(SimError::Config { reason }) if reason == ABORTED => {
                    sentinel = Some(SimError::Config { reason });
                }
                Err(e) => return Err(e),
                Ok(_) => {}
            }
        }
        return Err(sentinel.expect("abort flag implies at least one error"));
    }

    debug_assert_eq!(
        results.len(),
        nbhd_count,
        "every shard reports exactly once"
    );
    results.sort_unstable_by_key(|&(nbhd, _)| nbhd);
    Ok(results.into_iter().map(|(_, outcome)| outcome).collect())
}

/// A shard of the blocked replay.
type BlockDriver<'a> = SessionDriver<'a, SharedFeed<'a>, BlockSupply<'a>>;

/// What one worker hands back: each of its shards' endings.
type ShardResults = Vec<(usize, Result<NeighborhoodOutcome, SimError>)>;

/// How the workers of a blocked replay pass each [`Block`] around: the
/// caller's thread refills the one block in place while it is the only
/// holder, a barrier opens it to every worker, and a second barrier —
/// passed once every shard is parked at the block's edge and has let go
/// of it — hands it back.
struct BlockExchange {
    block: Mutex<Arc<Block>>,
    barrier: Barrier,
}

impl BlockExchange {
    fn new(workers: usize) -> Self {
        BlockExchange {
            block: Mutex::new(Arc::default()),
            barrier: Barrier::new(workers),
        }
    }

    /// Refills the block through `fill`. The caller's thread only, while
    /// every other worker waits in [`open`](Self::open).
    fn refill(&self, fill: impl FnOnce(&mut Block)) {
        let mut block = self.block.lock().expect("block exchange poisoned");
        fill(Arc::get_mut(&mut block).expect("every shard let go of the last block"));
    }

    /// Waits for the next block to be filled.
    fn open(&self) -> Arc<Block> {
        self.barrier.wait();
        Arc::clone(&self.block.lock().expect("block exchange poisoned"))
    }

    /// Called by every worker once its shards are through with `block`.
    fn release(&self, block: Arc<Block>) {
        drop(block);
        self.barrier.wait();
    }
}

/// Everything the workers of one blocked replay share.
struct ShardEnv<'a, S: TraceSource + ?Sized> {
    source: &'a S,
    parts: &'a DriverParts<'a>,
    feed: Option<&'a WatermarkFeed>,
    /// Raised by whoever fails first — a shard, the decoder, a panicking
    /// worker; every driver checks it at step entry and the decoder
    /// answers it with an empty, final block.
    aborted: AtomicBool,
    /// The first panic a worker caught (see [`turn`](Self::turn)).
    panicked: Mutex<Option<Box<dyn Any + Send>>>,
    workers: usize,
    blocks: BlockExchange,
}

impl<'a, S: TraceSource + ?Sized> ShardEnv<'a, S> {
    /// Runs one stretch of a worker's work between two barrier waits. A
    /// panic in it must not keep the worker from the next barrier — its
    /// siblings, and with them the caller's `thread::scope`, would wait
    /// there forever — so it is caught, turned into an abort, and kept
    /// for the caller's thread to resume once every worker is out.
    /// `false` when `work` panicked.
    fn turn(&self, work: impl FnOnce()) -> bool {
        let Err(payload) = catch_unwind(AssertUnwindSafe(work)) else {
            return true;
        };
        self.aborted.store(true, Ordering::Relaxed);
        self.panicked
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert(payload);
        false
    }

    /// Builds the drivers of worker `w`'s stripe (neighborhoods `w`,
    /// `w + workers`, ...).
    fn tasks(&'a self, w: usize, results: &mut ShardResults) -> Vec<(usize, BlockDriver<'a>)> {
        let mut tasks = Vec::new();
        for nbhd in (w..self.parts.topo.neighborhood_count()).step_by(self.workers) {
            let supply = BlockSupply::new(
                nbhd,
                self.source.catalog(),
                self.parts.topo,
                &self.parts.segmenter,
            );
            let feed = self.feed.map(|f| SharedFeed::new(f, nbhd));
            let driver = self.parts.driver(nbhd, supply, feed, Some(&self.aborted));
            match driver {
                Ok(driver) => tasks.push((nbhd, driver)),
                Err(e) => {
                    self.aborted.store(true, Ordering::Relaxed);
                    results.push((nbhd, Err(e)));
                }
            }
        }
        tasks
    }

    /// Carries worker `w`'s stripe of shards to their endings: block by
    /// block, every shard runs through its run of the block and on to —
    /// strictly before — the block's edge, carrying its continuation queue
    /// into the next block; the final block has no edge and runs every
    /// shard out. `demux` is `Some` on the caller's thread, which decodes
    /// the next block while the others wait for it.
    fn drive(&'a self, w: usize, mut demux: Option<&mut Demux<'_, S>>) -> ShardResults {
        let nbhd_count = self.parts.topo.neighborhood_count();
        let mut results = Vec::new();
        let mut tasks = Vec::new();
        self.turn(|| tasks = self.tasks(w, &mut results));
        loop {
            if let Some(demux) = demux.as_deref_mut() {
                self.blocks.refill(|block| {
                    if !self.turn(|| demux.next_block(block, &self.aborted)) {
                        block.reset(nbhd_count);
                    }
                });
            }
            let block = self.blocks.open();
            if !self.turn(|| self.run_block(&mut tasks, &block, &mut results)) {
                // The decoder must own the block again to close the run:
                // drop the drivers and whatever hold they have on it.
                tasks.clear();
            }
            let last = block.edge().is_none();
            self.blocks.release(block);
            if last {
                debug_assert!(tasks.is_empty(), "the final block runs every shard out");
                return results;
            }
        }
    }

    /// Steps every shard of a stripe through `block`. One parked at the
    /// block's edge syncs its index against the published prefix (see
    /// [`SessionDriver::sync_published`]); one that is through — with its
    /// outcome, or with the failure that also aborts its siblings — is
    /// filed and dropped from the stripe.
    fn run_block(
        &self,
        tasks: &mut Vec<(usize, BlockDriver<'a>)>,
        block: &Arc<Block>,
        results: &mut ShardResults,
    ) {
        let mut i = 0;
        while i < tasks.len() {
            let driver = &mut tasks[i].1;
            driver.supply_mut().attach(block);
            match driver.step() {
                Ok(Step::Horizon { .. }) => {
                    if let Some((edge, published)) = block.edge() {
                        driver.sync_published(edge, published);
                    }
                    i += 1;
                }
                ending => {
                    let (nbhd, driver) = tasks.swap_remove(i);
                    results.push((
                        nbhd,
                        match ending {
                            Ok(_) => Ok(driver.into_outcome()),
                            Err(e) => {
                                self.aborted.store(true, Ordering::Relaxed);
                                Err(e)
                            }
                        },
                    ));
                }
            }
        }
    }
}
