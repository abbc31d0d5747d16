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

use cablevod_cache::WatermarkFeed;
use cablevod_trace::source::TraceSource;

use super::lifecycle::{SessionDriver, Step, ABORTED};
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
        let mut driver = parts.driver(n, supply, feed, None)?;
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
            outcomes
        }
    };
    Ok((outcomes, streamed))
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
        parts.strategy,
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
type BlockDriver<'a> = SessionDriver<'a, BlockSupply<'a>>;

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
            let driver = self
                .parts
                .driver(nbhd, supply, self.feed, Some(&self.aborted));
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
            let ending = driver.step().and_then(|step| {
                if let (Step::Horizon { .. }, Some((edge, published))) = (&step, block.edge()) {
                    driver.sync_published(edge, published)?;
                }
                Ok(step)
            });
            match ending {
                Ok(Step::Horizon { .. }) => i += 1,
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
