//! Per-neighborhood sharding: isolated plant slices, shard scheduling,
//! and the two sharded entry drivers.
//!
//! The paper's unit of isolation is the neighborhood: per-event state
//! (cache, boxes, coax) is neighborhood-local, the shared central-server
//! meter merges because bucket accounting is commutative
//! ([`RateMeter::merge`]), and global-feed visibility is reproduced by the
//! provider seam (precomputed bounds on resident runs, the watermark
//! frontier on streaming runs). Each shard therefore runs the **same**
//! [`SessionDriver`] lifecycle as the serial engine, against a
//! [`ShardPlant`] instead of the whole topology:
//!
//! * resident: shards are independent jobs on the work-stealing pool
//!   ([`runner::run_indexed`]) — no shard ever waits on another;
//! * streaming ([`run_streaming`] — every streaming replay, on one worker
//!   or many): shards are cooperative tasks striped over the workers.
//!   Over a time-major source they advance block by block, each parked at
//!   the block's edge until the caller's thread has decoded and
//!   demultiplexed the next one (`ShardEnv::drive_blocks`); over a
//!   neighborhood-major source each decodes its own chunk runs and parks
//!   whenever the watermark frontier has not reached the record it must
//!   start next (`ShardEnv::drive_runs`), so any worker count is
//!   deadlock-free (see the frontier-liveness note in [`super`]).
//!
//! Both drivers size their worker sets from the process-wide permit
//! ledger in [`runner`], so a sharded run composes with a concurrently
//! executing sweep instead of oversubscribing the machine (and the
//! caller's own thread always drives, so a dry ledger just means a
//! single-worker run).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use cablevod_cache::{IndexStats, SharedFeed, StrategyFactory, WatermarkFeed};
use cablevod_hfc::coax::CoaxNetwork;
use cablevod_hfc::ids::{NeighborhoodId, PeerId};
use cablevod_hfc::meter::RateMeter;
use cablevod_hfc::segment::Segmenter;
use cablevod_hfc::stb::{SetTopBox, StbStore};
use cablevod_hfc::topology::Topology;
use cablevod_hfc::units::SimTime;
use cablevod_trace::record::SessionRecord;
use cablevod_trace::source::TraceSource;

use super::fault::FaultingPlant;
use super::feed::build_feed;
use super::lifecycle::{
    EngineCounters, RecordSupply, SegmentPlant, SessionDriver, Step, UserMap, ABORTED,
};
use super::report::merge_outcomes;
use super::stream::{Block, BlockSupply, Demux, ResidentSupply, StreamSupply};
use super::{
    build_index, build_schedules, build_topology, precompute_sessions, shard_plans, Replay,
    StreamPlan,
};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::report::{DegradationReport, SimReport};
use crate::runner;

/// One neighborhood's set-top boxes, addressed by global [`PeerId`]
/// through a shared peer-to-local-position table (no hashing).
pub(super) struct ShardStbs<'a> {
    /// The neighborhood whose members these boxes are.
    id: NeighborhoodId,
    stbs: Vec<SetTopBox>,
    /// `positions[peer.index()]` is the peer's slot in `stbs`; only
    /// meaningful for this shard's members, so membership is checked
    /// against `nbhd_of` first.
    positions: &'a [u32],
    /// Every peer's neighborhood ([`Topology::peer_neighborhoods`]):
    /// upholds the [`StbStore`] contract that a foreign peer is
    /// `UnknownPeer`, never silently another member's box.
    nbhd_of: &'a [NeighborhoodId],
}

impl StbStore for ShardStbs<'_> {
    fn stb_mut(&mut self, peer: PeerId) -> Result<&mut SetTopBox, cablevod_hfc::error::HfcError> {
        if self.nbhd_of.get(peer.index()) != Some(&self.id) {
            return Err(cablevod_hfc::error::HfcError::UnknownPeer { peer });
        }
        self.stbs
            .get_mut(self.positions[peer.index()] as usize)
            .ok_or(cablevod_hfc::error::HfcError::UnknownPeer { peer })
    }
}

/// One neighborhood's isolated slice of the plant: its boxes, its coax
/// meter, and a private central-server meter that is merged into the
/// shared one after the shard completes. (No fiber meter: [`SimReport`]
/// never reads fiber data, so shards skip that bucket-split work; the
/// serial path keeps it only because its [`Topology`] owns the links.)
pub(super) struct ShardPlant<'a> {
    id: NeighborhoodId,
    stbs: ShardStbs<'a>,
    pub(super) coax: CoaxNetwork,
    pub(super) server: RateMeter,
}

impl<'a> ShardPlant<'a> {
    pub(super) fn build(
        n: usize,
        topo: &'a Topology,
        config: &SimConfig,
        positions: &'a [u32],
    ) -> Result<Self, SimError> {
        let id = NeighborhoodId::new(n as u32);
        let stbs: Vec<SetTopBox> = topo
            .neighborhood(id)?
            .members()
            .iter()
            .map(|&p| SetTopBox::new(p, config.per_peer_storage(), config.stream_slots()))
            .collect();
        Ok(ShardPlant {
            id,
            stbs: ShardStbs {
                id,
                stbs,
                positions,
                nbhd_of: topo.peer_neighborhoods(),
            },
            coax: CoaxNetwork::new(*config.coax_spec()),
            server: RateMeter::hourly(),
        })
    }
}

impl SegmentPlant for ShardPlant<'_> {
    fn stbs(&mut self) -> &mut dyn StbStore {
        &mut self.stbs
    }

    fn record_miss(
        &mut self,
        nbhd: NeighborhoodId,
        start: SimTime,
        end: SimTime,
        size: cablevod_hfc::units::DataSize,
    ) -> Result<(), SimError> {
        debug_assert_eq!(
            nbhd, self.id,
            "shard received a foreign neighborhood's miss"
        );
        self.server.record(start, end, size);
        Ok(())
    }

    fn record_broadcast(
        &mut self,
        nbhd: NeighborhoodId,
        start: SimTime,
        end: SimTime,
        size: cablevod_hfc::units::DataSize,
    ) -> Result<(), SimError> {
        debug_assert_eq!(
            nbhd, self.id,
            "shard received a foreign neighborhood's broadcast"
        );
        self.coax.record_broadcast(start, end, size);
        Ok(())
    }
}

/// What one shard hands back for the deterministic merge.
pub(super) struct ShardOutcome {
    pub(super) coax: CoaxNetwork,
    pub(super) server: RateMeter,
    pub(super) stats: IndexStats,
    pub(super) counters: EngineCounters,
    /// This shard's one-neighborhood degradation section, `None` exactly
    /// when the serial engine's would be (default counting admission over
    /// an empty fault plan).
    pub(super) degradation: Option<DegradationReport>,
}

impl ShardOutcome {
    pub(super) fn from_driver<F, R>(
        driver: SessionDriver<'_, FaultingPlant<ShardPlant<'_>>, F, R>,
    ) -> Self
    where
        F: cablevod_cache::FeedProvider,
        R: super::lifecycle::RecordSupply<F>,
    {
        let (plant, indexes, counters) = driver.into_parts();
        let (plant, degradation) = plant.into_parts();
        ShardOutcome {
            coax: plant.coax,
            server: plant.server,
            stats: *indexes[0].stats(),
            counters,
            degradation,
        }
    }
}

/// The resident sharded driver: every shard replays its own record subset
/// (in trace order, interleaved with its continuation heap — exactly the
/// relative order the serial engine would process them in) over the
/// work-stealing pool, with the precomputed global feed shared read-only.
pub(super) fn run_parallel_resident<S: TraceSource + ?Sized>(
    records: &[SessionRecord],
    source: &S,
    config: &SimConfig,
    strategy: &dyn StrategyFactory,
    threads: usize,
) -> Result<SimReport, SimError> {
    config.validate()?;
    let segmenter = Segmenter::new(config.segment_len(), config.stream_rate());
    let catalog = source.catalog();

    // The topology is built once for membership, capacities and placement
    // determinism, then only read; every shard owns fresh mutable state.
    let topo = build_topology(source, config)?;
    let users = UserMap::from_topology(&topo);

    let ctxs = precompute_sessions(records, catalog, &users, &segmenter)?;
    let schedules = build_schedules(records, catalog, &topo, config, &segmenter, strategy)?;
    let feed = build_feed(records, &ctxs, config, &segmenter, strategy);
    let positions = topo.local_positions();

    let nbhd_count = topo.neighborhood_count();
    let mut shard_records: Vec<Vec<u32>> = vec![Vec::new(); nbhd_count];
    for (i, ctx) in ctxs.iter().enumerate() {
        shard_records[ctx.nbhd as usize].push(i as u32);
    }

    let outcomes = runner::run_indexed(nbhd_count, threads, |n| {
        let index = build_index(n, &topo, config, &segmenter, schedules.window(n)?, strategy)?;
        let plant = FaultingPlant::new(
            ShardPlant::build(n, &topo, config, &positions)?,
            config,
            n as u32,
            1,
        );
        let supply = ResidentSupply::new(records, &ctxs, Some(&shard_records[n]));
        let mut driver = SessionDriver::new(
            supply,
            feed.as_ref().map(cablevod_cache::PrecomputedFeed::new),
            plant,
            vec![index],
            n as u32,
            config,
            segmenter,
            None,
        );
        driver.run()?;
        Ok(ShardOutcome::from_driver(driver))
    });

    let days = source.days().max(1);
    let warmup = config.warmup_days().min(days - 1);
    merge_outcomes(outcomes, days, warmup, nbhd_count)
}

/// The streaming driver, at any worker count: shards are supplied as the
/// source's layout dictates (see [`super::shard_plans`]) and striped over
/// the workers. `threads` is how many run at once and nothing else —
/// `1` is the plan on the caller's thread.
pub(super) fn run_streaming<S: TraceSource + ?Sized>(
    source: &S,
    config: &SimConfig,
    strategy: &dyn StrategyFactory,
    threads: usize,
) -> Result<SimReport, SimError> {
    Ok(run_streaming_observed(source, config, strategy, threads)?.0)
}

/// [`run_streaming`] plus retention observability: also returns the
/// watermark feed's peak live slot count (`None` when the strategy takes
/// no feed), which the idle-neighborhood regression test asserts stays
/// bounded.
pub(super) fn run_streaming_observed<S: TraceSource + ?Sized>(
    source: &S,
    config: &SimConfig,
    strategy: &dyn StrategyFactory,
    threads: usize,
) -> Result<(SimReport, Option<usize>), SimError> {
    config.validate()?;
    let total = source.record_count();
    let segmenter = Segmenter::new(config.segment_len(), config.stream_rate());
    let topo = build_topology(source, config)?;
    let nbhd_count = topo.neighborhood_count();

    let plan = shard_plans(source, &topo, config, &segmenter, strategy)?;
    let users = UserMap::from_topology(&topo);
    // Blocked replay publishes centrally (one producer); shards that
    // decode their own runs each publish their own records.
    let blocked = matches!(plan.replay, Replay::Blocked);
    let producers = if blocked { 1 } else { nbhd_count };
    let feed =
        super::feed::wants_feed(strategy).then(|| WatermarkFeed::new(total, producers, nbhd_count));
    let positions = topo.local_positions();
    let aborted = AtomicBool::new(false);

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
        topo: &topo,
        users: &users,
        config,
        strategy,
        segmenter,
        plan: &plan,
        positions: &positions,
        feed: feed.as_ref(),
        aborted: &aborted,
        workers,
        blocks: BlockExchange::new(workers),
    };
    let mut demux = blocked.then(|| {
        Demux::new(
            source,
            users.clone(),
            config,
            segmenter,
            nbhd_count,
            feed.as_ref(),
        )
    });
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
        let mine = env.drive(0, demux.as_mut());
        let mut all: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect();
        all.push(mine);
        all
    });

    let mut results: ShardResults = worker_results.into_iter().flatten().collect();

    // Prefer the real failure — the decoder's, else a shard's — over the
    // abort sentinel the other shards raised while bailing out.
    if aborted.load(Ordering::Relaxed) {
        if let Some(e) = demux.and_then(Demux::into_failure) {
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
    let days = source.days().max(1);
    let warmup = config.warmup_days().min(days - 1);
    let report = merge_outcomes(
        results.into_iter().map(|(_, outcome)| outcome),
        days,
        warmup,
        nbhd_count,
    )?;
    Ok((report, feed.as_ref().map(WatermarkFeed::peak_live_slots)))
}

/// A streaming shard's driver over supply `R`.
type ShardDriver<'a, R> = SessionDriver<'a, FaultingPlant<ShardPlant<'a>>, SharedFeed<'a>, R>;

/// What one worker hands back: each of its shards' endings.
type ShardResults = Vec<(usize, Result<ShardOutcome, SimError>)>;

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

    /// The next block; `demux` is `Some` on the caller's thread only.
    fn next<S: TraceSource + ?Sized>(
        &self,
        demux: Option<&mut Demux<'_, S>>,
        aborted: &AtomicBool,
    ) -> Arc<Block> {
        if let Some(demux) = demux {
            let mut block = self.block.lock().expect("block exchange poisoned");
            let block = Arc::get_mut(&mut block).expect("every shard let go of the last block");
            demux.next_block(block, aborted);
        }
        self.barrier.wait();
        Arc::clone(&self.block.lock().expect("block exchange poisoned"))
    }

    /// Called by every worker once its shards are through with `block`.
    fn release(&self, block: Arc<Block>) {
        drop(block);
        self.barrier.wait();
    }
}

/// Everything the workers of one streaming run share.
struct ShardEnv<'a, S: TraceSource + ?Sized> {
    source: &'a S,
    topo: &'a Topology,
    users: &'a UserMap,
    config: &'a SimConfig,
    strategy: &'a dyn StrategyFactory,
    segmenter: Segmenter,
    plan: &'a StreamPlan,
    positions: &'a [u32],
    feed: Option<&'a WatermarkFeed>,
    aborted: &'a AtomicBool,
    workers: usize,
    blocks: BlockExchange,
}

impl<'a, S: TraceSource + ?Sized> ShardEnv<'a, S> {
    /// Drives worker `w`'s stripe of shards (neighborhoods `w`,
    /// `w + workers`, ...) to their endings.
    fn drive(&'a self, w: usize, demux: Option<&mut Demux<'_, S>>) -> ShardResults {
        match &self.plan.replay {
            Replay::Blocked => self.drive_blocks(w, demux),
            Replay::Runs { runs, filtered } => self.drive_runs(w, runs, *filtered),
        }
    }

    /// Builds the drivers of worker `w`'s stripe, each over the supply
    /// `supply(nbhd)` and publishing — if its supply publishes at all —
    /// as `producer(nbhd)`.
    fn tasks<R: RecordSupply<SharedFeed<'a>>>(
        &'a self,
        w: usize,
        producer: impl Fn(usize) -> usize,
        supply: impl Fn(usize) -> R,
        results: &mut ShardResults,
    ) -> Vec<(usize, ShardDriver<'a, R>)> {
        let mut tasks = Vec::new();
        for nbhd in (w..self.topo.neighborhood_count()).step_by(self.workers) {
            let built = (|| {
                let index = build_index(
                    nbhd,
                    self.topo,
                    self.config,
                    &self.segmenter,
                    self.plan.schedules.window(nbhd)?,
                    self.strategy,
                )?;
                let plant = FaultingPlant::new(
                    ShardPlant::build(nbhd, self.topo, self.config, self.positions)?,
                    self.config,
                    nbhd as u32,
                    1,
                );
                let provider = self
                    .feed
                    .map(|f| SharedFeed::new(f, producer(nbhd), nbhd..nbhd + 1));
                Ok::<_, SimError>(SessionDriver::new(
                    supply(nbhd),
                    provider,
                    plant,
                    vec![index],
                    nbhd as u32,
                    self.config,
                    self.segmenter,
                    Some(self.aborted),
                ))
            })();
            match built {
                Ok(driver) => tasks.push((nbhd, driver)),
                Err(e) => {
                    // Do NOT finish this shard's feed watermark: its events were
                    // never published, and raising the mark would let siblings
                    // pass the frontier check into unpublished slots. The abort
                    // flag unparks them instead (checked at every step entry).
                    self.aborted.store(true, Ordering::Relaxed);
                    results.push((nbhd, Err(e)));
                }
            }
        }
        tasks
    }

    /// Files task `i`'s ending — its outcome, or the failure that also
    /// aborts its siblings — and drops it from the stripe.
    fn retire<R: RecordSupply<SharedFeed<'a>>>(
        &self,
        tasks: &mut Vec<(usize, ShardDriver<'a, R>)>,
        i: usize,
        ending: Result<Step, SimError>,
        results: &mut ShardResults,
    ) {
        let (nbhd, driver) = tasks.swap_remove(i);
        results.push((
            nbhd,
            match ending {
                Ok(_) => Ok(ShardOutcome::from_driver(driver)),
                Err(e) => {
                    // As at build failure: leave the watermark where honest
                    // publication got to, and rely on the abort flag — a
                    // finished mark over unpublished slots would turn this
                    // error into sibling panics on empty feed slots.
                    self.aborted.store(true, Ordering::Relaxed);
                    Err(e)
                }
            },
        ));
    }

    /// The blocked replay of a time-major source: block by block, every
    /// shard of the stripe runs through its run of the block and on to —
    /// strictly before — the block's edge, carrying its continuation heap
    /// into the next block; the final block has no edge and runs every
    /// shard out. Between blocks a shard syncs its index against the
    /// published prefix (see [`SessionDriver::sync_published`]).
    fn drive_blocks(&'a self, w: usize, mut demux: Option<&mut Demux<'_, S>>) -> ShardResults {
        let mut results = Vec::new();
        let supply = |nbhd| {
            BlockSupply::new(
                nbhd,
                self.source.catalog(),
                self.users.clone(),
                &self.segmenter,
            )
        };
        let mut tasks = self.tasks(w, |_| 0, supply, &mut results);
        loop {
            let block = self.blocks.next(demux.as_deref_mut(), self.aborted);
            let mut i = 0;
            while i < tasks.len() {
                let driver = &mut tasks[i].1;
                driver.supply_mut().attach(&block);
                match driver.step() {
                    Ok(Step::Horizon { .. }) => {
                        if let Some((edge, published)) = block.edge() {
                            driver.sync_published(edge, published);
                        }
                        i += 1;
                    }
                    Ok(Step::Blocked { .. }) => {
                        unreachable!("a block is published before its shards run")
                    }
                    ending => self.retire(&mut tasks, i, ending, &mut results),
                }
            }
            let last = block.edge().is_none();
            self.blocks.release(block);
            if last {
                debug_assert!(tasks.is_empty(), "the final block runs every shard out");
                return results;
            }
        }
    }

    /// Shards that decode their own chunk runs (a neighborhood-major
    /// source — see [`super::stream`]), synchronizing global-feed
    /// visibility through the watermark protocol: round-robin, yielding
    /// the CPU only when every task is parked on the feed frontier.
    fn drive_runs(&'a self, w: usize, runs: &'a [Vec<Vec<u32>>], filtered: bool) -> ShardResults {
        let mut results = Vec::new();
        let supply = |nbhd: usize| {
            StreamSupply::new(
                self.source,
                runs[nbhd].iter().map(Vec::as_slice),
                filtered.then_some(nbhd as u32),
                self.users.clone(),
                self.config,
                self.segmenter,
            )
        };
        let mut tasks = self.tasks(w, |nbhd| nbhd, supply, &mut results);
        while !tasks.is_empty() {
            let mut any_progress = false;
            let mut i = 0;
            while i < tasks.len() {
                match tasks[i].1.step() {
                    Ok(Step::Blocked { progressed }) => {
                        any_progress |= progressed;
                        i += 1;
                    }
                    Ok(Step::Horizon { .. }) => {
                        unreachable!("a chunk-run supply never pauses between blocks")
                    }
                    ending => {
                        self.retire(&mut tasks, i, ending, &mut results);
                        any_progress = true;
                    }
                }
            }
            if !any_progress {
                std::thread::yield_now();
            }
        }
        results
    }
}
