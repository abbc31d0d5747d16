//! The **one** session-lifecycle implementation.
//!
//! [`SessionDriver`] owns the discrete-event loop every engine entry
//! point runs: interleave the next trace record with the continuation
//! queue in time order, start sessions (viewer slot accounting, feed sync,
//! strategy update, first segment), and resolve segment requests against
//! the cache and the plant. One driver owns exactly one neighborhood — a
//! shard of an offline replay, or a neighborhood of the online engine —
//! as its [`IndexServer`], its [`Plant`] and its [`AdmissionControl`], all
//! built in one place ([`DriverParts::driver`](super::DriverParts::driver)).
//! It is generic
//! over one seam, and that seam — not copies of this loop — is what
//! distinguishes the entry drivers: the [`RecordSupply`], where sessions
//! come from — a merged stream of chunks the supply reads itself,
//! gathered out of a resident trace or decoded from a file, or its slice
//! of each block fed to it from outside, by a file's decoder or the
//! online ingress (see [`super::stream`], [`super::online`]) — and
//! what crosses the neighborhood's edge with them: the Oracle's future,
//! read ahead, and the windowed LFU's past, read behind. The global
//! popularity feed, the one thing that crosses it from other
//! neighborhoods, is read the same way on every plan: the driver keeps
//! its own cursor into the run's [`Feed`], and whoever runs it hands it
//! the feed, published ahead of it, by `&` at every step — so nothing is
//! published while a driver reads — and reclaims below the cursors of
//! its drivers between steps.
//!
//! The loop can run to completion ([`SessionDriver::run`]) or stop and
//! resume ([`SessionDriver::step`]): every driver fed block by block —
//! a shard of the blocked streaming replay, once a block in one pool
//! pass, or a neighborhood of the online engine, once an advance of the
//! live clock — is stepped through each block to its edge, by one block
//! loop (`shard::BlockLoop`). The supply alone says where the
//! driver parks ([`RecordSupply::resumes_at`]): at the edge of the block
//! it was last handed — for the online engine's, the second after the
//! live clock's "now".
//!
//! # Continuations in arrival order
//!
//! A session's pending segment request (or backoff retry) waits in a
//! [`ContinuationQueue`] keyed `(time, global index, segment)`, which pops
//! in exactly the order a binary heap over those keys would: the key is
//! unique, because a session has at most one continuation outstanding, so
//! any structure that always pops the least key leaves no tie to break.
//! What makes the queue cheap is the paper's own schedule: requests fall
//! one segment apart (§IV-B.1) and events are handled in time order, so
//! almost every continuation is pushed in key order and costs a deque
//! append. A continuation pushed at the same second as a session start
//! is inserted a few places from the back; a backoff retry or a first
//! segment cut short by an unaligned seek offset may fall back to a heap.
//! The fallback changes what a push costs, never the order of pops (see
//! [`super::queue`]).

use cablevod_cache::{AccessEvent, Feed, FeedEvent, IndexServer, Resolution};
use cablevod_hfc::ids::{NeighborhoodId, PeerId, SegmentId};
use cablevod_hfc::plant::Plant;
use cablevod_hfc::segment::Segmenter;
use cablevod_hfc::topology::Topology;
use cablevod_hfc::units::{SimDuration, SimTime};
use cablevod_trace::catalog::ProgramCatalog;
use cablevod_trace::record::SessionRecord;

use crate::config::SimConfig;
use crate::error::SimError;

use super::fault::{AdmissionControl, Verdict};
use super::queue::ContinuationQueue;
use super::report::NeighborhoodOutcome;

/// Sentinel segment index marking a retry event on the continuation queue
/// (a refused session's backoff re-attempt, not a segment request). Real
/// segment indices never reach it — every run refuses, before any driver
/// exists, a catalog with a program of more copies than a `u16` counts
/// (`DriverParts::new`), so a real index is below `u16::MAX` — and it
/// sorts after every real segment at the same `(time, gidx)`, on every
/// driver, so retry ordering is deterministic across drivers.
pub(super) const RETRY_SEG: u16 = u16::MAX;

/// Everything the hot loop needs about one session, computed once when
/// its supply stages it, so the event loop never re-queries the catalog or
/// the topology during event processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct SessionCtx {
    /// Dense neighborhood index of the session's user.
    pub nbhd: u32,
    /// The viewer's own set-top box.
    pub home: PeerId,
    /// Full program length from the catalog.
    pub length: SimDuration,
    /// Seconds actually streamed (duration clamped to the post-seek tail).
    pub watched: SimDuration,
    /// Clamped seek offset in seconds.
    pub offset: u64,
    /// Absolute index of the first requested segment.
    pub first_seg: u16,
}

/// Computes one session's context (pure function of record, catalog and
/// topology — every engine path shares it, so contexts are identical no
/// matter when they are computed).
///
/// It is also where every record enters the engine — each supply, the
/// resident survey and the online ingress call it before anything else
/// sees the record — so it is where a record is refused: a dangling
/// program, an unknown user, and a start at or past the second an
/// [`AccessEvent`] can carry ([`AccessEvent::HORIZON`], 2^32 s), which is
/// [`CacheError::BeyondHorizon`](cablevod_cache::CacheError::BeyondHorizon)
/// rather than a strategy history holding a truncated time.
pub(super) fn session_ctx(
    rec: &SessionRecord,
    catalog: &ProgramCatalog,
    topo: &Topology,
    seg_len: u64,
) -> Result<SessionCtx, SimError> {
    AccessEvent::secs(rec.start)?;
    let length = catalog.length(rec.program).ok_or(SimError::Trace(
        cablevod_trace::TraceError::DanglingProgram {
            program: rec.program,
        },
    ))?;
    let nbhd = topo.neighborhood_of_user(rec.user)?;
    let home = topo.home_peer(rec.user)?;
    let offset = rec.offset.min(length).as_secs();
    Ok(SessionCtx {
        nbhd: nbhd.index() as u32,
        home,
        length,
        watched: rec.watched(length),
        offset,
        // The offset is clamped to the program, and every run's catalog
        // check (`DriverParts::new`) bounds the program's segments.
        first_seg: u16::try_from(offset / seg_len)
            .expect("the catalog check bounds every segment index"),
    })
}

/// The feed event an access publishes (pure function of the record — every
/// feed carrier emits exactly this).
pub(super) fn feed_event(
    rec: &SessionRecord,
    ctx: &SessionCtx,
    config: &SimConfig,
    segmenter: &Segmenter,
) -> FeedEvent {
    FeedEvent {
        time: rec.start,
        neighborhood: NeighborhoodId::new(ctx.nbhd),
        program: rec.program,
        cost: segmenter.segment_count(ctx.length) * u32::from(config.replication()),
    }
}

/// Mutable per-run tallies.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct EngineCounters {
    pub sessions: u64,
    pub segment_requests: u64,
    pub viewer_overcommits: u64,
}

impl EngineCounters {
    pub(super) fn absorb(&mut self, other: EngineCounters) {
        self.sessions += other.sessions;
        self.segment_requests += other.segment_requests;
        self.viewer_overcommits += other.viewer_overcommits;
    }
}

/// One staged session: its global record index, the record, and the
/// precomputed context.
#[derive(Debug, Clone, Copy)]
pub(super) struct PendingSession {
    pub gidx: u64,
    pub rec: SessionRecord,
    pub ctx: SessionCtx,
}

/// Where a driver's sessions come from, in the order it must start them
/// (ascending global index). There are two (see [`super::stream`]): the
/// one supply that reads its own chunks, and the one fed its slice of
/// each block from outside. A supply owns its staging: the decoding of
/// what it reads itself, and context computation.
pub(super) trait RecordSupply {
    /// Stages (if necessary) and describes the next session as
    /// `(start time, global index)`; `None` when the supply has nothing
    /// to stage, for now or for good (see
    /// [`resumes_at`](RecordSupply::resumes_at)).
    ///
    /// # Errors
    ///
    /// Propagates source read and context computation failures.
    fn peek(&mut self) -> Result<Option<(SimTime, u64)>, SimError>;

    /// Consumes the session [`peek`](RecordSupply::peek) described.
    ///
    /// # Panics
    ///
    /// May panic if nothing is staged.
    fn take(&mut self) -> PendingSession;

    /// With nothing staged: `Some(edge)` when the supply will stage more
    /// sessions later, none of them starting before `edge` — the edge of
    /// the block it was last handed — and the driver then parks with
    /// [`Step::Horizon`] once its continuations reach `edge` (a session
    /// sorts ahead of a continuation at the same second, so one due
    /// exactly at `edge` has to wait for it). `None`, the default, means
    /// exhausted for good: a supply reading its own chunks, or one handed
    /// the final block.
    fn resumes_at(&self) -> Option<SimTime> {
        None
    }

    /// Called after every [`peek`](RecordSupply::peek). Under a strategy
    /// that looks into the future, every supply reads ahead of its
    /// sessions (see [`super::stream::RunCursor`]) and hands `sink` what
    /// it has passed since the last call: the neighborhood's accesses in
    /// time order, and the instant before which every one of them has now
    /// been handed over — at least `lookahead` past the staged session's
    /// start, [`SimTime::MAX`] once the supply has no session left to
    /// stage. The default hands over nothing.
    ///
    /// # Errors
    ///
    /// Propagates `sink`'s failure.
    fn read_ahead(
        &mut self,
        _sink: impl FnOnce(&[AccessEvent], SimTime) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        Ok(())
    }

    /// Called before every access the driver publishes and every idle
    /// sweep, under a strategy that remembers its past (see
    /// [`super::stream::RunCursor`]): hands `sink` the neighborhood's
    /// accesses starting at or before `until` — the trailing edge of the
    /// strategy's history window — that it has not handed back yet, in
    /// time order, and the instant before which every one of them has now
    /// been handed back, past `until`. It may hand back accesses the
    /// driver has yet to make (a zero window's same-second burst); the
    /// strategy retires each only once it has counted it. The default
    /// hands back nothing.
    ///
    /// # Errors
    ///
    /// Propagates `sink`'s failure.
    fn read_behind(
        &mut self,
        _until: SimTime,
        _sink: impl FnOnce(&[AccessEvent], SimTime) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        Ok(())
    }
}

/// One slab entry: the session plus its admission bookkeeping.
#[derive(Debug, Clone, Copy)]
struct ActiveSlot {
    rec: SessionRecord,
    ctx: SessionCtx,
    /// Backoff retries this session has spent (enforcing admission).
    retries: u8,
    /// Whether a counting-mode would-interrupt was already tallied, so
    /// a session streaming through an outage is counted once.
    outage_noted: bool,
}

/// Slab of in-flight sessions: the driver retains only records whose
/// continuation events are still queued, keyed by a reusable slot id
/// carried alongside the queue entry (the slot never participates in event
/// ordering — keys stay `(time, global index, segment)`).
#[derive(Debug, Default)]
pub(super) struct ActiveSessions {
    slots: Vec<ActiveSlot>,
    free: Vec<u32>,
}

impl ActiveSessions {
    pub(super) fn insert(&mut self, rec: SessionRecord, ctx: SessionCtx) -> u32 {
        let entry = ActiveSlot {
            rec,
            ctx,
            retries: 0,
            outage_noted: false,
        };
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = entry;
            slot
        } else {
            self.slots.push(entry);
            (self.slots.len() - 1) as u32
        }
    }

    pub(super) fn get(&self, slot: u32) -> (SessionRecord, SessionCtx) {
        let entry = &self.slots[slot as usize];
        (entry.rec, entry.ctx)
    }

    pub(super) fn remove(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// Retries this session has spent so far.
    fn retries(&self, slot: u32) -> u8 {
        self.slots[slot as usize].retries
    }

    fn bump_retries(&mut self, slot: u32) {
        self.slots[slot as usize].retries += 1;
    }

    /// Shifts the session's start to its admitted-after-retry time, so
    /// segment scheduling runs from when playback actually began.
    fn shift_start(&mut self, slot: u32, start: SimTime) {
        self.slots[slot as usize].rec.start = start;
    }

    /// Marks the session's would-interrupt as tallied; `true` the first
    /// time.
    fn note_outage(&mut self, slot: u32) -> bool {
        let entry = &mut self.slots[slot as usize];
        !std::mem::replace(&mut entry.outage_noted, true)
    }

    /// Sessions holding a slot: playing, or waiting out a retry backoff.
    pub(super) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slots ever allocated (high-water mark of concurrent sessions).
    #[cfg(test)]
    pub(super) fn allocated(&self) -> usize {
        self.slots.len()
    }

    /// Slots currently free for reuse.
    #[cfg(test)]
    pub(super) fn free_count(&self) -> usize {
        self.free.len()
    }
}

/// What one [`SessionDriver::step`] call ended with.
pub(super) enum Step {
    /// The driver processed every one of its events.
    Done,
    /// Every event before its supply's edge
    /// ([`RecordSupply::resumes_at`]) has been processed and the driver
    /// is parked there until it is stepped again: at the edge of the
    /// block the supply was last handed — by the blocked replay's pool
    /// pass (see [`super::shard`]), or by the online engine's advance,
    /// whose blocks end a second past the live clock's "now" (see
    /// [`super::online`]). Unlike [`Step::Done`] more records may still
    /// arrive. `progressed` reports whether any events were processed.
    Horizon { progressed: bool },
}

/// The single discrete-event loop (see the module docs). One instance
/// drives one neighborhood.
pub(super) struct SessionDriver<'a, R> {
    supply: R,
    /// The sequence number of the first feed event the strategy has yet
    /// to consume, under a strategy that takes the feed.
    feed_cursor: u64,
    /// The boxes and meters of this driver's neighborhood.
    plant: Plant<'a>,
    /// Its admission control, when a fault plan or enforcing admission
    /// is active; `None` otherwise, and the lifecycle takes its original
    /// (pre-fault, byte-identical) path.
    admission: Option<AdmissionControl>,
    /// Its index server.
    index: IndexServer,
    /// The strategy's history window, when it remembers its past: how
    /// far behind each access the supply hands accesses back.
    history: Option<SimDuration>,
    active: ActiveSessions,
    /// Continuation events: (segment start, global record index, segment
    /// index, active-session slot). The slot is payload, not key — ties on
    /// it are impossible because a session has at most one outstanding
    /// continuation. Popped least first, exactly as a heap would pop
    /// them; a push costs a deque append when it arrives in key order, as
    /// all but retries and cut-short seeks do (see the module docs).
    queue: ContinuationQueue<(SimTime, u32, u16, u32)>,
    counters: EngineCounters,
    config: &'a SimConfig,
    segmenter: Segmenter,
    /// Debug builds only (zero otherwise): the bits every segment request
    /// so far offered the plant, held against what the neighborhood's coax
    /// carried when the run ends
    /// ([`into_outcome`](Self::into_outcome)).
    offered_bits: u64,
    /// Debug builds only (zero otherwise): the sessions that ran out of
    /// segments, zero-length ones included, held against the sessions
    /// that started playback when the run ends
    /// ([`into_outcome`](Self::into_outcome)).
    completed: u64,
}

impl<'a, R: RecordSupply> SessionDriver<'a, R> {
    /// A driver for `index`'s neighborhood, `plant` being its boxes and
    /// meters, handing accesses back `history` behind the replay for a
    /// strategy that remembers its past.
    pub(super) fn new(
        supply: R,
        plant: Plant<'a>,
        index: IndexServer,
        history: Option<SimDuration>,
        config: &'a SimConfig,
        segmenter: Segmenter,
    ) -> Self {
        SessionDriver {
            supply,
            feed_cursor: 0,
            admission: AdmissionControl::build(config, index.home()),
            plant,
            index,
            history,
            active: ActiveSessions::default(),
            queue: ContinuationQueue::default(),
            counters: EngineCounters::default(),
            config,
            segmenter,
            offered_bits: 0,
            completed: 0,
        }
    }

    /// Processes events until the driver completes or its supply pauses.
    /// The supply is the one pacing rule: it stages only the sessions it
    /// has released, and while it will release more
    /// ([`RecordSupply::resumes_at`]) continuations run strictly before
    /// its edge and the driver then parks with [`Step::Horizon`] instead
    /// of finishing — so only a supply that is through for good lets the
    /// driver finish. Under a strategy that takes the feed, `feed` is the
    /// run's, published through every session the supply stages.
    pub(super) fn step(&mut self, feed: Option<&Feed>) -> Result<Step, SimError> {
        let mut progressed = false;
        loop {
            let staged = self.supply.peek()?;
            let index = &mut self.index;
            self.supply
                .read_ahead(|events, covered| Ok(index.extend_schedule(events, covered)?))?;
            let take_record = match (staged, self.queue.peek()) {
                (None, None) => {
                    if self.supply.resumes_at().is_some() {
                        return Ok(Step::Horizon { progressed });
                    }
                    return Ok(Step::Done);
                }
                (Some(_), None) => true,
                (None, Some(&(t, _, _, _))) => {
                    if self.supply.resumes_at().is_some_and(|edge| t >= edge) {
                        return Ok(Step::Horizon { progressed });
                    }
                    false
                }
                (Some((start, _)), Some(&(t, _, _, _))) => start <= t,
            };

            if take_record {
                let session = self.supply.take();
                self.start_session(&session, feed)?;
            } else {
                let (at, gidx, seg_idx, slot) = self.queue.pop().expect("peeked entry exists");
                if seg_idx == RETRY_SEG {
                    self.retry_session(at, gidx, slot)?;
                } else {
                    let (rec, ctx) = self.active.get(slot);
                    if self.interrupt(at, slot) {
                        self.active.remove(slot);
                    } else {
                        let cont = self.process_segment(&rec, &ctx, seg_idx)?;
                        self.resume_or_complete(cont, gidx, slot);
                    }
                }
            }
            progressed = true;
        }
    }

    /// Runs to completion. Only valid for drivers whose supply never
    /// pauses (a shard's own chunk runs, resident strides or a file's; a
    /// driver fed block by block is stepped once a block instead).
    pub(super) fn run(&mut self, feed: Option<&Feed>) -> Result<(), SimError> {
        match self.step(feed)? {
            Step::Done => Ok(()),
            Step::Horizon { .. } => unreachable!("this supply never pauses between blocks"),
        }
    }

    /// The neighborhood's index server (online lookups read placement
    /// through it between steps).
    pub(super) fn index(&self) -> &IndexServer {
        &self.index
    }

    /// The continuation queue's pushes so far, and how many of them fell
    /// back to its heap.
    #[cfg(test)]
    pub(super) fn queue_counts(&self) -> (u64, u64) {
        (self.queue.pushed(), self.queue.spilled())
    }

    /// The supply, for a caller that hands it work between steps (the
    /// next block).
    pub(super) fn supply_mut(&mut self) -> &mut R {
        &mut self.supply
    }

    /// The idle sweep: syncs the driver's index against every event of
    /// `feed`, at time `now`. Called when the driver is parked, by the
    /// step that parked it — at a block's edge on the blocked replay, at
    /// the live clock's "now" online — where no session still to
    /// start begins before `now`, so it consumes exactly what the
    /// neighborhood's next session would consume first anyway, and a
    /// neighborhood with no session since the last pause still moves its
    /// cursor and with it the feed's reclamation floor.
    ///
    /// # Errors
    ///
    /// Propagates a failed history hand-back.
    pub(super) fn sync_published(
        &mut self,
        now: SimTime,
        feed: Option<&Feed>,
    ) -> Result<(), SimError> {
        self.read_behind(now)?;
        if let Some(feed) = feed.filter(|feed| feed.end() > 0) {
            self.sync_feed(feed, now, feed.end());
        }
        Ok(())
    }

    /// How far the strategy has consumed the feed: no event below this
    /// is read again.
    pub(super) fn feed_cursor(&self) -> u64 {
        self.feed_cursor
    }

    /// Hands the strategy the feed's events from the cursor up to
    /// `published`, at `now`, and moves the cursor past what it consumed.
    fn sync_feed(&mut self, feed: &Feed, now: SimTime, published: u64) {
        let events = feed.events(self.feed_cursor..published);
        self.feed_cursor += self.index.sync_feed(events, now) as u64;
    }

    /// Has the supply hand the index every access that leaves the
    /// strategy's history window by `now` (see
    /// [`RecordSupply::read_behind`]) — nothing while the window still
    /// reaches back past the epoch, or when the strategy keeps no history.
    fn read_behind(&mut self, now: SimTime) -> Result<(), SimError> {
        let Some(until) = self.history.and_then(|window| now.checked_sub(window)) else {
            return Ok(());
        };
        let index = &mut self.index;
        self.supply.read_behind(until, |events, covered| {
            Ok(index.extend_history(events, covered)?)
        })
    }

    /// Handles one session start: admission, viewer slot accounting, feed
    /// sync, strategy update, and the first segment request.
    fn start_session(
        &mut self,
        session: &PendingSession,
        feed: Option<&Feed>,
    ) -> Result<(), SimError> {
        let PendingSession { gidx, rec, ctx } = session;
        debug_assert_eq!(
            ctx.nbhd,
            self.index.home().value(),
            "a session of another neighborhood"
        );
        self.counters.sessions += 1;
        let verdict = match self.admission.as_mut() {
            Some(ctl) => ctl.try_admit(rec.start, rec.start + ctx.watched, 0),
            None => Verdict::Admit,
        };
        match verdict {
            Verdict::Admit => self.admit_session(*gidx, rec, ctx, feed),
            Verdict::Retry { at } => {
                // The request itself still drives the feed and the
                // strategy's popularity at its original time — only
                // playback waits for the backoff.
                self.publish_access(*gidx, rec, ctx, feed)?;
                let slot = self.active.insert(*rec, *ctx);
                self.active.bump_retries(slot);
                self.queue.push((at, *gidx as u32, RETRY_SEG, slot));
                Ok(())
            }
            Verdict::Blocked => self.publish_access(*gidx, rec, ctx, feed),
        }
    }

    /// The viewer's own playback occupies one of its box's slots for the
    /// whole session; playback is never blocked, overcommit is counted
    /// (`viewer_overcommits`, see `crate::report`). One prune of the box
    /// per session start.
    fn occupy_viewer_slot(
        &mut self,
        rec: &SessionRecord,
        ctx: &SessionCtx,
    ) -> Result<(), SimError> {
        let end = rec.start + ctx.watched;
        if self
            .plant
            .start_stream_unchecked(ctx.home, rec.start, end)?
        {
            self.counters.viewer_overcommits += 1;
        }
        Ok(())
    }

    /// The admitted-session path: the whole pre-fault lifecycle, byte
    /// for byte.
    fn admit_session(
        &mut self,
        gidx: u64,
        rec: &SessionRecord,
        ctx: &SessionCtx,
        feed: Option<&Feed>,
    ) -> Result<(), SimError> {
        self.occupy_viewer_slot(rec, ctx)?;
        self.publish_access(gidx, rec, ctx, feed)?;

        let cont = if ctx.watched.as_secs() > 0 {
            self.process_segment(rec, ctx, ctx.first_seg)?
        } else {
            None
        };
        match cont {
            Some((t, seg)) => {
                let slot = self.active.insert(*rec, *ctx);
                self.queue.push((t, gidx as u32, seg, slot));
            }
            None => self.note_completed(),
        }
        Ok(())
    }

    /// Queues a playing session's next segment, or retires its slot when
    /// it has run out of segments.
    fn resume_or_complete(&mut self, cont: Option<(SimTime, u16)>, gidx: u32, slot: u32) {
        match cont {
            Some((t, seg)) => self.queue.push((t, gidx, seg, slot)),
            None => {
                self.active.remove(slot);
                self.note_completed();
            }
        }
    }

    /// Counts one session that ran out of segments (debug builds only).
    fn note_completed(&mut self) {
        if cfg!(debug_assertions) {
            self.completed += 1;
        }
    }

    /// Publishes one access: feed consumption up to the record and the
    /// strategy's popularity update, at the record's own time. Fired
    /// exactly once per trace record — whether, and whenever, the
    /// session is admitted — so popularity stays request-driven and
    /// independent of the admission outcome.
    fn publish_access(
        &mut self,
        gidx: u64,
        rec: &SessionRecord,
        ctx: &SessionCtx,
        feed: Option<&Feed>,
    ) -> Result<(), SimError> {
        self.read_behind(rec.start)?;
        if let Some(feed) = feed {
            // Events up to and including this record are published (see
            // the module docs on feed exactness); the sync reads no
            // further.
            self.sync_feed(feed, rec.start, gidx + 1);
        }
        self.index
            .on_program_access(rec.program, ctx.length, rec.start, &mut self.plant)?;
        Ok(())
    }

    /// Handles one backoff retry: re-attempts admission with the
    /// session's spent retries; on success, playback starts now (the
    /// session's start shifts to the admitted time, the watched program
    /// span is unchanged).
    fn retry_session(&mut self, at: SimTime, gidx: u32, slot: u32) -> Result<(), SimError> {
        let (_, ctx) = self.active.get(slot);
        let retries = self.active.retries(slot);
        let ctl = self
            .admission
            .as_mut()
            .expect("retry events exist only under admission control");
        match ctl.try_admit(at, at + ctx.watched, retries) {
            Verdict::Admit => {
                self.active.shift_start(slot, at);
                let (rec, ctx) = self.active.get(slot);
                self.occupy_viewer_slot(&rec, &ctx)?;
                // No publish_access here: the request already drove the
                // feed and popularity at its original time.
                let cont = if ctx.watched.as_secs() > 0 {
                    self.process_segment(&rec, &ctx, ctx.first_seg)?
                } else {
                    None
                };
                self.resume_or_complete(cont, gidx, slot);
                Ok(())
            }
            Verdict::Retry { at } => {
                self.active.bump_retries(slot);
                self.queue.push((at, gidx, RETRY_SEG, slot));
                Ok(())
            }
            Verdict::Blocked => {
                self.active.remove(slot);
                Ok(())
            }
        }
    }

    /// Degraded-plant check for one continuation event. Under enforcing
    /// admission an active outage drops the session (returns `true`);
    /// under counting it tallies the would-interrupt once per session
    /// and lets playback continue. Interrupted sessions keep their
    /// viewer-STB slot and channel occupancy until their nominal end —
    /// both are pruned lazily by end time, a deliberate simplification
    /// documented in the crate's fault model.
    fn interrupt(&mut self, at: SimTime, slot: u32) -> bool {
        let Some(ctl) = self.admission.as_mut() else {
            return false;
        };
        if !ctl.outage_now(at) {
            return false;
        }
        if ctl.enforcing() {
            ctl.tally_interrupt();
            true
        } else {
            if self.active.note_outage(slot) {
                ctl.tally_interrupt();
            }
            false
        }
    }

    /// Resolves one segment request and returns the session's next one.
    ///
    /// `seg_idx` is the *absolute* segment index within the program;
    /// sessions that seek (`offset > 0`) start mid-program, so the
    /// playback span is `[offset, offset + watched_total)` in program
    /// positions.
    fn process_segment(
        &mut self,
        rec: &SessionRecord,
        ctx: &SessionCtx,
        seg_idx: u16,
    ) -> Result<Option<(SimTime, u16)>, SimError> {
        let seg_len = self.segmenter.segment_len().as_secs();
        let span_end = ctx.offset + ctx.watched.as_secs();
        let k = u64::from(seg_idx);
        // Overlap of this segment's positions with the playback span.
        let overlap_start = ctx.offset.max(k * seg_len);
        let overlap_end = span_end.min((k + 1) * seg_len);
        debug_assert!(overlap_start < overlap_end, "segment outside playback span");
        let watched = overlap_end - overlap_start;
        let start = rec.start + SimDuration::from_secs(overlap_start - ctx.offset);
        let end = start + SimDuration::from_secs(watched);
        let size = self.config.stream_rate() * SimDuration::from_secs(watched);
        let segment = SegmentId::new(rec.program, seg_idx);

        self.counters.segment_requests += 1;
        if cfg!(debug_assertions) {
            self.offered_bits += size.as_bits();
        }
        let resolution =
            self.index
                .resolve_segment(segment, rec.start, start, end, &mut self.plant)?;
        if let Resolution::Miss(_) = resolution {
            // Fig 4: central server -> fiber -> headend rebroadcast.
            self.plant.record_miss(start, end, size);
        }
        // Broadcast medium: the segment crosses the coax either way
        // (§VI-B).
        self.plant.record_broadcast(start, end, size);

        let next_pos = (k + 1) * seg_len;
        Ok((next_pos < span_end).then(|| {
            (
                rec.start + SimDuration::from_secs(next_pos - ctx.offset),
                seg_idx + 1,
            )
        }))
    }

    /// Ends a completed run: what the report fold reads of it (the boxes
    /// and the strategy state are dropped here).
    pub(super) fn into_outcome(self) -> NeighborhoodOutcome {
        let nbhd = self.index.home();
        // Conservation: the boxes hold exactly the slots the index
        // server's ledger has placed — the placement record lives only in
        // the ledger, the boxes keep bytes (see `cablevod_cache::index`),
        // and every admission and eviction checked its own peers against
        // it on the way.
        debug_assert_eq!(
            self.plant.stored(),
            self.index.nominal_segment() * self.index.placed_slots(),
            "{nbhd}: the boxes and the ledger disagree"
        );
        let (coax, server) = self.plant.into_meters();
        // Conservation: offered bits = server + peer bits, and both cross
        // the coax (§VI-B) — so the coax carries exactly what the segment
        // requests offered, on every plan, whatever was admitted, refused
        // or interrupted on the way.
        debug_assert_eq!(
            coax.total().as_bits(),
            self.offered_bits,
            "{nbhd}: the coax did not carry the offered load"
        );
        // Conservation: every session that started playback ran out of
        // segments, was dropped by an enforcing outage, or is still in the
        // slab — and a finished driver's slab is empty (a session waiting
        // out a retry backoff holds a slot but has not started).
        let (started, dropped) = match &self.admission {
            Some(ctl) => (ctl.admitted(), ctl.dropped()),
            None => (self.counters.sessions, 0),
        };
        debug_assert_eq!(
            self.active.len(),
            0,
            "{nbhd}: a finished driver holds sessions"
        );
        debug_assert_eq!(
            started,
            self.completed + dropped + self.active.len() as u64,
            "{nbhd}: a session that started playback went missing"
        );
        NeighborhoodOutcome {
            coax,
            server,
            stats: *self.index.stats(),
            counters: self.counters,
            degradation: self.admission.map(AdmissionControl::into_report),
        }
    }
}
