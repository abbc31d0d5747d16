//! The **online** decision tier: the engine as a long-running
//! admission/placement service.
//!
//! Offline, a run is a closed computation: the supply scans a finished
//! trace and the driver burns through every event. Online, sessions
//! arrive over time — from a paced trace replay or a socket — and the
//! engine must answer *between* events. The online engine is the blocked
//! replay with the caller as its decoder: one `SessionDriver` per
//! neighborhood, built by the same constructor as every shard
//! (`DriverParts::driver`), each over a `BlockSupply` and stepped through
//! each block by the blocked replay's own per-shard step
//! (`shard::step_shard`); the blocks come from the `Ingress` instead of
//! a file. Three public seams:
//!
//! * **submit** — hand the engine one session request. The ingress
//!   computes the record's context (exactly `session_ctx`, like every
//!   other producer) and appends its feed event to the engine's own
//!   [`Feed`] — the ingress is the run's one feed producer, and no driver
//!   runs while it publishes — then stages the session until an advance
//!   reaches its start.
//! * **advance_to** — a block edge at the live clock's "now": the ingress
//!   moves the staged sessions that start before the second after "now"
//!   into the next block, grouped by neighborhood (`Block::group`, the
//!   decoder's grouping), with that second as its edge; every driver
//!   processes every event before the edge in exactly the order the
//!   offline engine would and parks there, then runs the idle sweep at
//!   "now"; then the feed drops what every driver has consumed.
//! * **lookup** — read a neighborhood's current placement for a program
//!   straight from its driver's [`IndexServer`], without disturbing the
//!   lifecycle.
//!
//! What crosses a neighborhood's edge with its sessions rides in the
//! block, as it does from the decoder: under a strategy that looks ahead,
//! the first block the ingress fills hands each neighborhood its whole
//! future of [`OnlineSpec::schedule_records`], covered to the end of
//! time; under one that remembers its past, the ingress keeps one
//! trailing ring of the accesses submitted, and each block hands every
//! neighborhood its accesses that leave the history window by the block's
//! sweep, trimming the ring there. When the session ends the ingress
//! fills one last block with every session still staged and no edge,
//! which runs every driver out.
//!
//! Every strategy in the registry, fault plans, and enforcing
//! admission/retry work unchanged — they live below the seams this
//! module plugs into. There is one engine, [`serve_serial`]. Its final
//! [`SimReport`], the drivers' outcomes folded in neighborhood order, is
//! **byte-identical** to the offline replay of the same session sequence
//! — the loopback equivalence tests pin this per strategy.
//!
//! # Ordering contract
//!
//! The offline engine processes events in global time order with records
//! tie-breaking ahead of continuations. To reproduce that order exactly,
//! submissions must respect two monotonicity rules, both enforced with
//! explicit errors:
//!
//! 1. session start times never decrease across submissions (the trace
//!    is sorted; a live ingress stamps arrivals with a monotone clock);
//! 2. a session's start is strictly **after** the last advanced horizon
//!    (events at or before the horizon are already processed — a
//!    submission "in the past" can no longer be interleaved correctly).
//!
//! The epoch counter increments whenever an `advance_to` processed at
//! least one event, in any neighborhood — a conservative over-approximation of "placement
//! state changed" that is always safe for front-tier response caches
//! (they may re-ask the decision tier needlessly, but can never serve a
//! stale placement as fresh).

use std::collections::VecDeque;
use std::sync::Arc;

use cablevod_cache::{AccessEvent, Feed, IndexServer, StrategyFactory};
use cablevod_hfc::ids::{PeerId, ProgramId, SegmentId};
use cablevod_hfc::segment::Segmenter;
use cablevod_hfc::topology::Topology;
use cablevod_hfc::units::{SimDuration, SimTime};
use cablevod_trace::catalog::ProgramCatalog;
use cablevod_trace::record::SessionRecord;
use cablevod_trace::source::TraceSource;

use super::lifecycle::{feed_event, session_ctx, PendingSession, Step};
use super::report::merge_outcomes;
use super::shard::{step_shard, BlockDriver};
use super::stream::{past, Block, BlockSupply};
use super::{build_topology_for, DriverParts};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::report::SimReport;

/// The static shape of an online serving session: everything the engine
/// must know up front that an offline run would read from its trace
/// source.
#[derive(Debug, Clone, Copy)]
pub struct OnlineSpec<'a> {
    /// The program catalog sessions are validated and sized against.
    pub catalog: &'a ProgramCatalog,
    /// Number of subscribers (fixes the topology, like
    /// [`TraceSource::user_count`]).
    pub user_count: u32,
    /// Accounting horizon in days for the final report (peak windows,
    /// hourly profiles). The online analogue of [`TraceSource::days`].
    pub days: u64,
    /// Upper bound on sessions ever submitted: the ingress bound, a
    /// submission beyond it is rejected with an explicit error.
    pub capacity: u64,
    /// Resident records for strategies that need an offline access
    /// schedule (Oracle). `None` means such strategies are rejected —
    /// a socket ingress cannot see the future.
    pub schedule_records: Option<&'a [SessionRecord]>,
}

impl<'a> OnlineSpec<'a> {
    /// The spec for replaying `source` online: same catalog, users, days
    /// and capacity as the offline run, with resident records (when the
    /// source has them) available for Oracle schedules.
    pub fn from_source<S: TraceSource + ?Sized>(source: &'a S) -> Self {
        OnlineSpec {
            catalog: source.catalog(),
            user_count: source.user_count(),
            days: source.days(),
            capacity: source.record_count(),
            schedule_records: source.resident_records(),
        }
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.capacity > u64::from(u32::MAX) {
            return Err(SimError::Config {
                reason: "online sessions beyond 2^32 are not supported".into(),
            });
        }
        Ok(())
    }
}

/// A neighborhood's current placement answer for one program, read
/// straight off its [`IndexServer`] between steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnlinePlacement {
    /// When the program was admitted into the neighborhood cache, if it
    /// currently is.
    pub admitted_at: Option<SimTime>,
    /// The peer holding the program's first segment, if placed.
    pub location: Option<PeerId>,
}

impl OnlinePlacement {
    fn read(index: &IndexServer, program: ProgramId) -> Self {
        OnlinePlacement {
            admitted_at: index.admitted_at(program),
            location: index.location_of(SegmentId::new(program, 0)),
        }
    }
}

/// The online engine the serving callback drives (see the module docs
/// for the ordering contract).
pub trait OnlineEngine {
    /// Submits one session request and returns its global index.
    ///
    /// # Errors
    ///
    /// Rejects submissions beyond [`OnlineSpec::capacity`], starts that
    /// regress, starts at or before the advanced horizon, and records
    /// referencing unknown users or programs.
    fn submit(&mut self, rec: SessionRecord) -> Result<u64, SimError>;

    /// Processes every pending event at or before `now`; returns whether
    /// any event was processed (and hence whether the epoch was bumped).
    ///
    /// # Errors
    ///
    /// Rejects regressing horizons and propagates lifecycle failures.
    fn advance_to(&mut self, now: SimTime) -> Result<bool, SimError>;

    /// The placement answer for `program` in neighborhood `nbhd`, as of
    /// the last advance.
    ///
    /// # Errors
    ///
    /// Rejects unknown neighborhoods.
    fn lookup(&self, nbhd: u32, program: ProgramId) -> Result<OnlinePlacement, SimError>;

    /// The placement epoch: incremented whenever an advance processed at
    /// least one event. Response caches key their entries on this.
    fn epoch(&self) -> u64;

    /// Sessions submitted so far.
    fn submitted(&self) -> u64;

    /// Number of neighborhoods the plant serves.
    fn neighborhoods(&self) -> usize;
}

/// Runs the online engine (one driver per neighborhood) for the duration
/// of `session`, then drains every remaining event and returns the
/// callback's value together with the final report.
///
/// The report is byte-identical to [`run`](super::run) over the same
/// session sequence.
///
/// # Errors
///
/// Returns [`SimError::Config`] for invalid configurations and specs
/// (including schedule-needing strategies without
/// [`OnlineSpec::schedule_records`]), and propagates callback and
/// lifecycle failures.
pub fn serve_serial<T>(
    spec: &OnlineSpec<'_>,
    config: &SimConfig,
    strategy: &dyn StrategyFactory,
    session: impl FnOnce(&mut dyn OnlineEngine) -> Result<T, SimError>,
) -> Result<(T, SimReport), SimError> {
    let (value, report, _) = serve(spec, config, strategy, session)?;
    Ok((value, report))
}

/// [`serve_serial`], saying beside the report the most events the feed
/// retained at once (`None` when the run carried no feed) — what the
/// idle-neighborhood regression test asserts stays bounded.
pub(super) fn serve<T>(
    spec: &OnlineSpec<'_>,
    config: &SimConfig,
    strategy: &dyn StrategyFactory,
    session: impl FnOnce(&mut dyn OnlineEngine) -> Result<T, SimError>,
) -> Result<(T, SimReport, Option<usize>), SimError> {
    config.validate()?;
    spec.validate()?;
    if spec.schedule_records.is_none() && strategy.schedule_lookahead().is_some() {
        return Err(SimError::Config {
            reason: "this strategy needs an offline access schedule; \
                     serve it from a replayed trace, not a live ingress"
                .into(),
        });
    }
    let topo = build_topology_for(spec.user_count, config)?;
    let parts = DriverParts::new(&topo, spec.catalog, config, strategy)?;
    let drivers = (0..topo.neighborhood_count())
        .map(|n| {
            let supply = BlockSupply::new(n, spec.catalog, &topo, &parts.segmenter);
            parts.driver(n, supply)
        })
        .collect::<Result<_, _>>()?;
    let mut engine = SerialOnline {
        drivers,
        ingress: Ingress::new(&parts, spec)?,
        epoch: 0,
    };

    let value = session(&mut engine)?;
    // The drain: one last block, with no edge, runs every driver out.
    let (drivers, mut ingress) = (engine.drivers, engine.ingress);
    ingress.fill(None)?;
    let feed = ingress.feed.as_ref();
    let outcomes = drivers.into_iter().map(|mut driver| {
        match step_shard(&mut driver, &ingress.block, None, feed)? {
            Step::Done => Ok(driver.into_outcome()),
            Step::Horizon { .. } => unreachable!("the last block has no edge"),
        }
    });
    let report = merge_outcomes(outcomes, spec.days, config)?;
    Ok((value, report, feed.map(Feed::peak_retained)))
}

/// The online engine's decoder (see the module docs): enforces the
/// ordering contract and the capacity, computes each submission's context
/// and publishes its feed event, stages it, and at each advance fills the
/// [`Block`] every driver is stepped through next.
pub(super) struct Ingress<'s> {
    topo: &'s Topology,
    catalog: &'s ProgramCatalog,
    config: &'s SimConfig,
    segmenter: Segmenter,
    /// The run's feed, under a strategy that takes one.
    feed: Option<Feed>,
    /// The block the drivers are stepped through, refilled in place.
    pub(super) block: Arc<Block>,
    /// Sessions submitted and not yet moved into a block, in submission
    /// order.
    staged: VecDeque<PendingSession>,
    /// Scratch for [`Block::group`]: each moved record's neighborhood.
    dest: Vec<u32>,
    /// Under a strategy that looks ahead: each neighborhood's accesses of
    /// [`OnlineSpec::schedule_records`], until the first block hands
    /// them over.
    future: Option<Vec<Vec<AccessEvent>>>,
    /// Under a strategy that remembers its past: its history window, and
    /// the trailing ring — every access submitted and not yet handed back,
    /// with its neighborhood, in submission order.
    behind: Option<(SimDuration, VecDeque<(u32, AccessEvent)>)>,
    capacity: u64,
    next_gidx: u64,
    last_start: Option<SimTime>,
    advanced: Option<SimTime>,
}

impl<'s> Ingress<'s> {
    pub(super) fn new(parts: &DriverParts<'s>, spec: &OnlineSpec<'_>) -> Result<Self, SimError> {
        let strategy = parts.strategy;
        let future = match spec.schedule_records {
            Some(records) if strategy.schedule_lookahead().is_some() => {
                let mut future = vec![Vec::new(); parts.topo.neighborhood_count()];
                for rec in records {
                    future[parts.topo.neighborhood_of_user(rec.user)?.index()]
                        .push(AccessEvent::new(rec.start, rec.program)?);
                }
                Some(future)
            }
            _ => None,
        };
        Ok(Ingress {
            topo: parts.topo,
            catalog: parts.catalog,
            config: parts.config,
            segmenter: parts.segmenter,
            feed: strategy.needs_feed().then(Feed::default),
            block: Arc::default(),
            staged: VecDeque::new(),
            dest: Vec::new(),
            future,
            behind: strategy
                .history_window()
                .map(|window| (window, VecDeque::new())),
            capacity: spec.capacity,
            next_gidx: 0,
            last_start: None,
            advanced: None,
        })
    }

    /// Admits one submission: enforces the ordering contract, computes
    /// the session context, publishes its feed event and stages it.
    pub(super) fn admit(&mut self, rec: SessionRecord) -> Result<u64, SimError> {
        if self.next_gidx >= self.capacity {
            return Err(SimError::Config {
                reason: format!(
                    "online session capacity exhausted ({} submitted)",
                    self.capacity
                ),
            });
        }
        if self.last_start.is_some_and(|last| rec.start < last) {
            return Err(SimError::Config {
                reason: "session start times must not decrease across submissions".into(),
            });
        }
        if self.advanced.is_some_and(|h| rec.start <= h) {
            return Err(SimError::Config {
                reason: "session starts at or before the advanced horizon cannot be \
                         interleaved; stamp arrivals after the last advance"
                    .into(),
            });
        }
        let seg_len = self.segmenter.segment_len().as_secs();
        let ctx = session_ctx(&rec, self.catalog, self.topo, seg_len)?;
        if let Some((_, ring)) = self.behind.as_mut() {
            ring.push_back((ctx.nbhd, AccessEvent::new(rec.start, rec.program)?));
        }
        if let Some(feed) = self.feed.as_mut() {
            feed.push(feed_event(&rec, &ctx, self.config, &self.segmenter));
        }
        let gidx = self.next_gidx;
        self.next_gidx += 1;
        self.last_start = Some(rec.start);
        self.staged.push_back(PendingSession { gidx, rec, ctx });
        Ok(gidx)
    }

    /// Fills the next block: at an advance to `now`, every staged session
    /// that starts at or before it, with the second after it as the edge
    /// and what leaves the history window by `now`; at the drain
    /// (`None`), every staged session, with no edge and what leaves the
    /// window by the last one's start.
    ///
    /// # Errors
    ///
    /// Rejects a regressing `now`.
    pub(super) fn fill(&mut self, now: Option<SimTime>) -> Result<(), SimError> {
        if let Some(now) = now {
            if self.advanced.is_some_and(|h| now < h) {
                return Err(SimError::Config {
                    reason: "advance horizons must not regress".into(),
                });
            }
            self.advanced = Some(now);
        }
        let nbhd_count = self.topo.neighborhood_count();
        let block = Arc::get_mut(&mut self.block).expect("every driver let go of the last block");
        block.reset(nbhd_count);
        block.edge = now.map(past);
        self.dest.clear();
        while let Some(session) = self
            .staged
            .pop_front_if(|s| block.edge.is_none_or(|edge| s.rec.start < edge))
        {
            block.records.push((session.gidx, session.rec));
            self.dest.push(session.ctx.nbhd);
        }
        block.group(&mut self.dest);
        // The whole future, in the first block; the next lets go of it.
        let future = self.future.take();
        block.covered = future.is_some().then_some(SimTime::MAX);
        block.ahead = future.unwrap_or_default();
        if let Some((window, ring)) = self.behind.as_mut() {
            block.behind.resize_with(nbhd_count, Vec::new);
            // By the sweep at `now`; at the drain, by the last access.
            let swept = now.or(self.last_start);
            if let Some(until) = swept.and_then(|at| at.checked_sub(*window)) {
                while let Some((n, access)) = ring.pop_front_if(|(_, a)| a.at() <= until) {
                    block.behind[n as usize].push(access);
                }
                block.behind_covered = Some(past(until));
            }
        }
        Ok(())
    }
}

/// The online engine: one [`SessionDriver`](super::lifecycle::SessionDriver)
/// per neighborhood, in neighborhood order, and the ingress that feeds
/// them.
struct SerialOnline<'s> {
    drivers: Vec<BlockDriver<'s>>,
    ingress: Ingress<'s>,
    epoch: u64,
}

impl OnlineEngine for SerialOnline<'_> {
    fn submit(&mut self, rec: SessionRecord) -> Result<u64, SimError> {
        self.ingress.admit(rec)
    }

    fn advance_to(&mut self, now: SimTime) -> Result<bool, SimError> {
        self.ingress.fill(Some(now))?;
        let ingress = &self.ingress;
        let mut progressed = false;
        for driver in &mut self.drivers {
            let step = step_shard(driver, &ingress.block, Some(now), ingress.feed.as_ref())?;
            progressed |= matches!(step, Step::Horizon { progressed: true });
        }
        if let Some(feed) = self.ingress.feed.as_mut() {
            feed.reclaim(self.drivers.iter().map(BlockDriver::feed_cursor));
        }
        if progressed {
            self.epoch += 1;
        }
        Ok(progressed)
    }

    fn lookup(&self, nbhd: u32, program: ProgramId) -> Result<OnlinePlacement, SimError> {
        let driver = self
            .drivers
            .get(nbhd as usize)
            .ok_or_else(|| SimError::Config {
                reason: format!("unknown neighborhood {nbhd}"),
            })?;
        Ok(OnlinePlacement::read(driver.index(), program))
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn submitted(&self) -> u64 {
        self.ingress.next_gidx
    }

    fn neighborhoods(&self) -> usize {
        self.drivers.len()
    }
}
