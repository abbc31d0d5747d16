//! The **online** decision tier: the engine as a long-running
//! admission/placement service.
//!
//! Offline, a run is a closed computation: the supply scans a finished
//! trace and the driver burns through every event. Online, sessions
//! arrive over time — from a paced trace replay or a socket — and the
//! engine must answer *between* events. The online engine is the blocked
//! streaming replay with the caller as its decoder: one `SessionDriver`
//! per neighborhood, built by the same constructor as every shard
//! (`DriverParts::driver`), each over a `LiveSupply` —
//! a `RecordSupply` fed by the caller instead of a file scan — and
//! stepped from one advance of the live clock to the next. Three public
//! seams:
//!
//! * **submit** — hand the engine one session request. The record's
//!   context is computed at ingress (exactly `session_ctx`, like every
//!   other supply), its feed event is published into a shared
//!   [`WatermarkFeed`] and the watermark is advanced past it — the
//!   ingress is the run's one feed producer, ahead of every driver. The
//!   session is then staged on its neighborhood's supply (which, under a
//!   strategy that looks ahead, holds that neighborhood's records of the
//!   replayed trace as its future, and hands them over whole through
//!   `read_ahead` the first time its driver steps).
//! * **advance_to** — a block edge at the live clock's "now": every
//!   supply releases the sessions that start at or before it, every
//!   driver processes every event at or before it in exactly the order
//!   the offline engine would and parks just past it, then syncs its
//!   index against the published feed (the blocked replay's idle sweep).
//! * **lookup** — read a neighborhood's current placement for a program
//!   straight from its driver's [`IndexServer`], without disturbing the
//!   lifecycle.
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

use cablevod_cache::{AccessEvent, FeedProducer, IndexServer, StrategyFactory, WatermarkFeed};
use cablevod_hfc::ids::{PeerId, ProgramId, SegmentId};
use cablevod_hfc::segment::Segmenter;
use cablevod_hfc::topology::Topology;
use cablevod_hfc::units::{SimDuration, SimTime};
use cablevod_trace::catalog::ProgramCatalog;
use cablevod_trace::record::SessionRecord;
use cablevod_trace::source::TraceSource;

use super::lifecycle::{
    feed_event, session_ctx, PendingSession, RecordSupply, SessionDriver, Step,
};
use super::report::merge_outcomes;
use super::stream::past;
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
    /// Upper bound on sessions ever submitted (sizes the shared feed; a
    /// submission beyond it is rejected with an explicit error).
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

/// [`serve_serial`], saying beside the report how many slots the
/// watermark feed held live at its peak (`None` when the run carried no
/// feed) — what the idle-neighborhood regression test asserts stays
/// bounded.
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
    let nbhd_count = topo.neighborhood_count();
    let parts = DriverParts::new(&topo, spec.catalog, config, strategy)?;

    let wfeed = strategy
        .needs_feed()
        .then(|| WatermarkFeed::new(spec.capacity, nbhd_count));
    // Under a strategy that looks ahead, each driver's future is its own
    // neighborhood's records of the schedule, gathered in one pass.
    let ahead = spec
        .schedule_records
        .filter(|_| strategy.schedule_lookahead().is_some());
    let mut futures = vec![Vec::new(); nbhd_count];
    for rec in ahead.unwrap_or_default() {
        futures[topo.neighborhood_of_user(rec.user)?.index()]
            .push(AccessEvent::new(rec.start, rec.program)?);
    }
    let drivers = futures
        .into_iter()
        .enumerate()
        .map(|(n, future)| {
            let supply = LiveSupply {
                staged: VecDeque::new(),
                edge: Some(SimTime::EPOCH),
                future: ahead.map(|_| future),
                past: strategy.history_window().map(|_| VecDeque::new()),
                handed: 0,
                leaving: Vec::new(),
            };
            parts.driver(n, supply, wfeed.as_ref())
        })
        .collect::<Result<_, _>>()?;
    let mut engine = SerialOnline {
        drivers,
        ingress: Ingress::new(&topo, spec, config, parts.segmenter, wfeed.as_ref()),
        epoch: 0,
    };

    let value = session(&mut engine)?;
    let outcomes = engine.drivers.into_iter().map(|mut driver| {
        driver.supply_mut().edge = None;
        driver.run()?;
        Ok(driver.into_outcome())
    });
    let report = merge_outcomes(outcomes, spec.days, config)?;
    Ok((
        value,
        report,
        wfeed.as_ref().map(WatermarkFeed::peak_live_slots),
    ))
}

/// One neighborhood's [`RecordSupply`]: the sessions the ingress routed
/// to it (published at submit — see [`Ingress::admit`]), released up to
/// the horizon the engine last advanced to.
struct LiveSupply {
    staged: VecDeque<PendingSession>,
    /// The second after the last advanced horizon: sessions starting
    /// before it are released and continuations run while they are
    /// before it (see [`RecordSupply::resumes_at`]). `None` once the
    /// engine drains: everything is released, and the supply is through
    /// once it is empty.
    edge: Option<SimTime>,
    /// The neighborhood's accesses of [`OnlineSpec::schedule_records`],
    /// under a strategy that looks ahead, until they are handed over.
    future: Option<Vec<AccessEvent>>,
    /// Under a strategy that remembers its past: the sessions taken and
    /// not yet handed back, as access events — the history no index keeps
    /// a copy of.
    past: Option<VecDeque<AccessEvent>>,
    /// How many of `staged`'s front sessions were handed back before they
    /// were taken (a zero window's same-second burst).
    handed: usize,
    /// Scratch for one hand-back.
    leaving: Vec<AccessEvent>,
}

impl RecordSupply for LiveSupply {
    fn peek(&mut self) -> Result<Option<(SimTime, u64)>, SimError> {
        Ok(self
            .staged
            .front()
            .filter(|p| self.edge.is_none_or(|edge| p.rec.start < edge))
            .map(|p| (p.rec.start, p.gidx)))
    }

    fn take(&mut self) -> PendingSession {
        let session = self.staged.pop_front().expect("a session is staged");
        if self.handed > 0 {
            self.handed -= 1;
        } else if let Some(past) = self.past.as_mut() {
            let rec = &session.rec;
            past.push_back(
                AccessEvent::new(rec.start, rec.program)
                    .expect("the ingress computed this session's context"),
            );
        }
        session
    }

    fn resumes_at(&self) -> Option<SimTime> {
        self.edge
    }

    /// Hands the whole schedule over at the first call: it is in memory
    /// already, and there is nothing further along to read.
    fn read_ahead(
        &mut self,
        sink: impl FnOnce(&[AccessEvent], SimTime) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        match self.future.take() {
            Some(future) => sink(&future, SimTime::MAX),
            None => Ok(()),
        }
    }

    fn read_behind(
        &mut self,
        until: SimTime,
        sink: impl FnOnce(&[AccessEvent], SimTime) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        let Some(kept) = self.past.as_mut() else {
            return Ok(());
        };
        self.leaving.clear();
        while let Some(&event) = kept.front().filter(|e| e.at() <= until) {
            self.leaving.push(event);
            kept.pop_front();
        }
        // Released sessions not taken yet can leave too, under a zero
        // window: the rest of the second being replayed.
        for session in self.staged.iter().skip(self.handed) {
            if session.rec.start > until {
                break;
            }
            self.leaving
                .push(AccessEvent::new(session.rec.start, session.rec.program)?);
            self.handed += 1;
        }
        sink(&self.leaving, past(until))
    }
}

/// Ingress bookkeeping: context computation, feed publication, capacity
/// and monotonicity enforcement.
struct Ingress<'s> {
    topo: &'s Topology,
    catalog: &'s ProgramCatalog,
    config: &'s SimConfig,
    segmenter: Segmenter,
    seg_len: u64,
    producer: Option<FeedProducer<'s>>,
    capacity: u64,
    next_gidx: u64,
    last_start: Option<SimTime>,
    advanced: Option<SimTime>,
}

impl<'s> Ingress<'s> {
    fn new(
        topo: &'s Topology,
        spec: &OnlineSpec<'s>,
        config: &'s SimConfig,
        segmenter: Segmenter,
        wfeed: Option<&'s WatermarkFeed>,
    ) -> Self {
        Ingress {
            topo,
            catalog: spec.catalog,
            config,
            segmenter,
            seg_len: segmenter.segment_len().as_secs(),
            producer: wfeed.map(WatermarkFeed::producer_handle),
            capacity: spec.capacity,
            next_gidx: 0,
            last_start: None,
            advanced: None,
        }
    }

    /// Admits one submission: enforces the ordering contract, computes
    /// the session context, publishes its feed event and advances the
    /// watermark past it.
    fn admit(&mut self, rec: SessionRecord) -> Result<PendingSession, SimError> {
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
        let ctx = session_ctx(&rec, self.catalog, self.topo, self.seg_len)?;
        let gidx = self.next_gidx;
        if let Some(feed) = self.producer.as_mut() {
            feed.publish(gidx, feed_event(&rec, &ctx, self.config, &self.segmenter));
            feed.advance(gidx + 1);
        }
        self.next_gidx += 1;
        self.last_start = Some(rec.start);
        Ok(PendingSession { gidx, rec, ctx })
    }

    fn note_advance(&mut self, now: SimTime) -> Result<(), SimError> {
        if self.advanced.is_some_and(|h| now < h) {
            return Err(SimError::Config {
                reason: "advance horizons must not regress".into(),
            });
        }
        self.advanced = Some(now);
        Ok(())
    }
}

/// The online engine: one [`SessionDriver`] per neighborhood, in
/// neighborhood order.
struct SerialOnline<'s> {
    drivers: Vec<SessionDriver<'s, LiveSupply>>,
    ingress: Ingress<'s>,
    epoch: u64,
}

impl OnlineEngine for SerialOnline<'_> {
    fn submit(&mut self, rec: SessionRecord) -> Result<u64, SimError> {
        let pending = self.ingress.admit(rec)?;
        let driver = &mut self.drivers[pending.ctx.nbhd as usize];
        driver.supply_mut().staged.push_back(pending);
        Ok(pending.gidx)
    }

    fn advance_to(&mut self, now: SimTime) -> Result<bool, SimError> {
        self.ingress.note_advance(now)?;
        let edge = now.saturating_add(SimDuration::from_secs(1));
        let mut progressed = false;
        for driver in &mut self.drivers {
            driver.supply_mut().edge = Some(edge);
            // An open supply always resumes, so the driver parks.
            progressed |= matches!(driver.step()?, Step::Horizon { progressed: true });
            driver.sync_published(now, self.ingress.next_gidx)?;
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
