//! The index server (§IV-B).
//!
//! One index server runs at each headend. It:
//!
//! * monitors every request in its neighborhood and feeds the cache
//!   strategy ("The index server also monitors all requests in the
//!   neighborhood to calculate file popularity and populate the cache");
//! * places admitted programs' segments on peers and tracks every location
//!   ("placement is not probabilistic \[...\] keeps track of where each
//!   program is located");
//! * resolves segment requests into the hit flow of Fig 5 (instruct a peer
//!   to broadcast) or the miss flow of Fig 4 (fetch from the central
//!   server, broadcast, and optionally let a placed peer capture the
//!   broadcast into its cache).
//!
//! # The one placement record
//!
//! Which copy of which segment sits on which peer is recorded here and
//! nowhere else: per admitted program, one 4-byte entry per copy holding
//! the hosting peer's ledger index and whether the copy's bytes are
//! present yet (`CachedProgram`). The peers' boxes keep only the bytes
//! they hold. The two are held to a conservation law, checked in O(1) a
//! copy whenever content moves: a peer holds exactly the nominal segment
//! size times the slots the ledger has placed on it
//! ([`SlotLedger::placed`]). A broken law is
//! [`CacheError::InconsistentState`], in release builds too, so an
//! admission of a program already admitted, an eviction of one that is
//! not, a release of an unplaced slot and a box whose bytes drifted from
//! its placements are each refused where they happen.

use cablevod_hfc::ids::{NeighborhoodId, PeerId, ProgramId, SegmentId};
use cablevod_hfc::plant::Plant;
use cablevod_hfc::segment::Segmenter;
use cablevod_hfc::units::{DataSize, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::error::CacheError;
use crate::event::AccessEvent;
use crate::feed::FeedEvent;
use crate::fetch::FetchModel;
use crate::placement::SlotLedger;
use crate::slots::ProgramSlots;
use crate::strategy::{CacheOp, CacheStrategy, FillPolicy};

/// Why a segment request could not be served from the neighborhood cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MissReason {
    /// The program is not in the cache contents at all.
    Uncached,
    /// The program is admitted but this segment has not yet been captured
    /// off a broadcast.
    NotMaterialized,
    /// The hosting peer is already serving its maximum concurrent streams
    /// (§V-C).
    PeerBusy,
}

/// Outcome of resolving one segment request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Served by a peer over the coax (cache hit, Fig 5).
    PeerHit(PeerId),
    /// Served by the central server over fiber + headend broadcast
    /// (cache miss, Fig 4).
    Miss(MissReason),
}

impl Resolution {
    /// Whether this is a cache hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, Resolution::PeerHit(_))
    }
}

/// Counters kept by the index server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexStats {
    /// Segment requests served by peers.
    pub hits: u64,
    /// Misses on programs outside the cache contents.
    pub miss_uncached: u64,
    /// Misses on admitted-but-not-yet-captured segments.
    pub miss_not_materialized: u64,
    /// Misses because the hosting peer was slot-saturated.
    pub miss_peer_busy: u64,
    /// Programs admitted.
    pub admissions: u64,
    /// Programs evicted.
    pub evictions: u64,
    /// Segments captured off miss broadcasts.
    pub capture_fills: u64,
    /// Misses that coalesced onto a fetch already in flight (zero unless
    /// a nonzero-latency [`FetchModel`] is
    /// configured). Subsets of the `miss_*` counters — resolution is
    /// unchanged, only the modeled cost differs.
    pub delayed_hits: u64,
    /// Misses that started a modeled central-server fetch (zero unless a
    /// nonzero-latency fetch model is configured).
    pub inflight_misses: u64,
}

impl std::ops::AddAssign for IndexStats {
    fn add_assign(&mut self, rhs: IndexStats) {
        self.hits += rhs.hits;
        self.miss_uncached += rhs.miss_uncached;
        self.miss_not_materialized += rhs.miss_not_materialized;
        self.miss_peer_busy += rhs.miss_peer_busy;
        self.admissions += rhs.admissions;
        self.evictions += rhs.evictions;
        self.capture_fills += rhs.capture_fills;
        self.delayed_hits += rhs.delayed_hits;
        self.inflight_misses += rhs.inflight_misses;
    }
}

impl IndexStats {
    /// Total segment requests resolved.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses()
    }

    /// Total misses of any kind.
    pub fn misses(&self) -> u64 {
        self.miss_uncached + self.miss_not_materialized + self.miss_peer_busy
    }

    /// Fraction of requests served by peers (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.requests() == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests() as f64
        }
    }
}

/// Placement and fill state of one admitted program.
///
/// `copies[k]` is synthetic segment index `k` (replica `j` of real
/// segment `i` lives at `k = i + j * count`). One boxed slice of
/// length `count * replication`, so a hit reads everything it needs about
/// a copy from one 4-byte [`Placed`]. 32 bytes, and the copies behind
/// them.
#[derive(Debug, Clone, Default)]
struct CachedProgram {
    length: SimDuration,
    admitted_at: SimTime,
    copies: Box<[Placed]>,
}

/// One placed copy of a segment: the hosting peer's *ledger index* — what
/// [`SlotLedger::place`] handed out and [`SlotLedger::release`] takes
/// back, and, the ledger numbering the members in member order (checked
/// once, [`IndexServer::check_plant`]), its box's position in the
/// [`Plant`], so neither an eviction nor a hit looks a peer id up — in the
/// low 31 bits, and in the top bit whether the copy's bytes are actually
/// present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placed(u32);

impl Placed {
    const PRESENT: u32 = 1 << 31;

    /// Ledger indexes this layout can name: every one below `PRESENT`.
    const INDEXES: usize = Self::PRESENT as usize;

    fn new(slot: u32, present: bool) -> Self {
        Placed(if present { slot | Self::PRESENT } else { slot })
    }

    /// The hosting peer's ledger index.
    fn slot(self) -> u32 {
        self.0 & !Self::PRESENT
    }

    /// Whether the copy's bytes are on the peer.
    fn present(self) -> bool {
        self.0 & Self::PRESENT != 0
    }

    fn materialize(&mut self) {
        self.0 |= Self::PRESENT;
    }
}

/// The per-neighborhood cache orchestrator.
///
/// Program ids are dense catalog indices (see `cablevod_hfc::ids`), so the
/// placement record is a `ProgramSlots` map (`slots.rs`): a 4-byte slot
/// per program id in front of a record per *admitted* program, recycled
/// when it is evicted — the hot path does no hashing, and a hit is two
/// array loads before the copy. Peer mutation goes through the [`Plant`]
/// holding this neighborhood's boxes.
#[derive(Debug)]
pub struct IndexServer {
    home: NeighborhoodId,
    strategy: Box<dyn CacheStrategy>,
    segmenter: Segmenter,
    nominal_segment: DataSize,
    ledger: SlotLedger,
    fill: FillPolicy,
    /// Replicas of segment `i` of a `count`-segment program are stored
    /// under synthetic segment indices `i + j * count` for replica `j` —
    /// ids stay unique per (peer, segment) with zero extra structure.
    replication: u8,
    /// The admitted programs' placement records.
    programs: ProgramSlots<CachedProgram>,
    cached_count: usize,
    stats: IndexStats,
    ops: Vec<CacheOp>,
    /// Modeled central-server fetch latency; instant unless the strategy
    /// factory supplied one.
    fetch: FetchModel,
    /// Start time of the newest modeled fetch, for every program ever
    /// fetched. Only populated under a nonzero-latency model; a stale
    /// start is overwritten when a later miss starts a new fetch.
    inflight: ProgramSlots<SimTime>,
}

impl IndexServer {
    /// Creates the index server for `home` with a single copy of each
    /// cached segment (the paper's configuration).
    ///
    /// The strategy's capacity must not exceed `ledger.total_slots()` —
    /// the invariant that makes placement infallible.
    ///
    /// # Panics
    ///
    /// Panics if the capacities disagree.
    pub fn new(
        home: NeighborhoodId,
        strategy: Box<dyn CacheStrategy>,
        segmenter: Segmenter,
        ledger: SlotLedger,
    ) -> Self {
        IndexServer::with_replication(home, strategy, segmenter, ledger, 1)
    }

    /// Creates an index server storing `replication` copies of every
    /// cached segment (ablation A5). Extra copies multiply slot cost but
    /// give busy-peer misses alternative sources.
    ///
    /// # Panics
    ///
    /// Panics if the capacities disagree, `replication` is zero, or the
    /// ledger has more peers than a copy can name (2^31).
    pub fn with_replication(
        home: NeighborhoodId,
        strategy: Box<dyn CacheStrategy>,
        segmenter: Segmenter,
        ledger: SlotLedger,
        replication: u8,
    ) -> Self {
        assert!(replication >= 1, "replication factor must be at least 1");
        assert!(
            ledger.peer_count() <= Placed::INDEXES,
            "a ledger of {} peers is more than a copy can name",
            ledger.peer_count()
        );
        assert!(
            strategy.capacity_slots() <= ledger.total_slots(),
            "strategy capacity ({}) must not exceed ledger slots ({})",
            strategy.capacity_slots(),
            ledger.total_slots()
        );
        let nominal_segment = segmenter.stream_rate() * segmenter.segment_len();
        let fill = strategy.fill_policy();
        IndexServer {
            home,
            strategy,
            segmenter,
            nominal_segment,
            ledger,
            fill,
            replication,
            programs: ProgramSlots::default(),
            cached_count: 0,
            stats: IndexStats::default(),
            ops: Vec::new(),
            fetch: FetchModel::instant(),
            inflight: ProgramSlots::default(),
        }
    }

    /// Sets the modeled fetch latency (builder style). With the default
    /// [`FetchModel::instant`] no in-flight tracking happens and reports
    /// are identical to servers without a model.
    pub fn with_fetch_model(mut self, fetch: FetchModel) -> Self {
        self.fetch = fetch;
        self
    }

    /// The modeled fetch latency in effect.
    pub fn fetch_model(&self) -> FetchModel {
        self.fetch
    }

    /// This server's neighborhood.
    pub fn home(&self) -> NeighborhoodId {
        self.home
    }

    /// Overrides the fill policy the strategy chose (ablation A1 —
    /// e.g. LFU with proactive push instead of capture-on-broadcast).
    pub fn set_fill_policy(&mut self, fill: FillPolicy) {
        self.fill = fill;
    }

    /// The fill policy in effect.
    pub fn fill_policy(&self) -> FillPolicy {
        self.fill
    }

    /// The active strategy.
    pub fn strategy(&self) -> &dyn CacheStrategy {
        self.strategy.as_ref()
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// Number of programs currently admitted.
    pub fn cached_programs(&self) -> usize {
        self.cached_count
    }

    /// Slots this neighborhood's ledger has placed and not released —
    /// what its boxes hold, in nominal segments.
    pub fn placed_slots(&self) -> u64 {
        self.ledger.total_slots() - self.ledger.total_free()
    }

    /// The bytes one placed slot occupies on its peer: the nominal
    /// segment.
    pub fn nominal_segment(&self) -> DataSize {
        self.nominal_segment
    }

    /// When `program` was admitted, if it is currently cached.
    pub fn admitted_at(&self, program: ProgramId) -> Option<SimTime> {
        self.programs.get(program).map(|e| e.admitted_at)
    }

    /// Where `segment` is placed, if admitted.
    pub fn location_of(&self, segment: SegmentId) -> Option<PeerId> {
        self.programs
            .get(segment.program())
            .and_then(|e| e.copies.get(usize::from(segment.index())))
            .map(|copy| self.ledger.peer(copy.slot()))
    }

    /// Whether `segment`'s content is actually present on its peer.
    pub fn is_materialized(&self, segment: SegmentId) -> bool {
        self.programs
            .get(segment.program())
            .and_then(|e| e.copies.get(usize::from(segment.index())))
            .is_some_and(|copy| copy.present())
    }

    /// Checks that every ledger index is its peer's box position in
    /// `plant` — the ledger numbers the neighborhood's members in member
    /// order — so that hits, admissions and evictions reach a copy's box
    /// by its ledger index ([`Plant::try_start_stream_at`] and its twins).
    /// Called once, when a driver puts the two together.
    ///
    /// # Errors
    ///
    /// [`CacheError::InconsistentState`] naming the first peer whose box
    /// sits elsewhere, or in no box of `plant`.
    pub fn check_plant(&self, plant: &Plant<'_>) -> Result<(), CacheError> {
        for index in 0..self.ledger.peer_count() as u32 {
            let peer = self.ledger.peer(index);
            if plant.position(peer) != Some(index) {
                return Err(CacheError::InconsistentState {
                    reason: format!(
                        "{peer} is ledger index {index} but sits at box position {:?}",
                        plant.position(peer)
                    ),
                });
            }
        }
        Ok(())
    }

    /// Hands the strategy the feed's unread published prefix, `events`,
    /// at `now`, and returns how many of them it consumed (see
    /// [`CacheStrategy::sync_global`]): the caller's cursor moves that
    /// far. No-op for local strategies, which consume everything.
    pub fn sync_feed(&mut self, events: &[FeedEvent], now: SimTime) -> usize {
        self.strategy.sync_global(events, now)
    }

    /// Hands the strategy the next stretch of this neighborhood's future
    /// accesses (see [`CacheStrategy::extend_schedule`]).
    ///
    /// # Errors
    ///
    /// Propagates the strategy's rejection of out-of-order events.
    pub fn extend_schedule(
        &mut self,
        events: &[AccessEvent],
        covered: SimTime,
    ) -> Result<(), CacheError> {
        self.strategy.extend_schedule(events, covered)
    }

    /// Hands the strategy the next stretch of this neighborhood's past
    /// accesses as they leave its history window (see
    /// [`CacheStrategy::extend_history`]).
    ///
    /// # Errors
    ///
    /// Propagates the strategy's rejection of out-of-order events.
    pub fn extend_history(
        &mut self,
        events: &[AccessEvent],
        covered: SimTime,
    ) -> Result<(), CacheError> {
        self.strategy.extend_history(events, covered)
    }

    /// Observes a program access (session start): updates the strategy and
    /// executes any admissions/evictions it decides on, mutating peer
    /// storage through `plant`.
    ///
    /// # Errors
    ///
    /// [`CacheError::BeyondHorizon`], before the strategy sees anything,
    /// for an access at or past [`AccessEvent::HORIZON`]. Otherwise
    /// propagates placement/storage failures; these indicate broken
    /// invariants, not recoverable conditions.
    pub fn on_program_access(
        &mut self,
        program: ProgramId,
        length: SimDuration,
        now: SimTime,
        plant: &mut Plant<'_>,
    ) -> Result<(), CacheError> {
        AccessEvent::secs(now)?;
        let cost = self
            .segmenter
            .segment_count(length)
            .saturating_mul(u32::from(self.replication));
        // The fallible checks first (the event horizon above, the
        // Oracle's look-ahead coverage), then the infallible access hook.
        self.strategy.prepare(now)?;
        let mut ops = std::mem::take(&mut self.ops);
        ops.clear();
        self.strategy.on_access(program, cost, now, &mut ops);
        let executed = self.execute_ops(&ops, program, length, now, plant);
        self.ops = ops; // the buffer survives a failed execution too
        executed
    }

    /// Executes the strategy's decisions for an access to `program`.
    fn execute_ops(
        &mut self,
        ops: &[CacheOp],
        program: ProgramId,
        length: SimDuration,
        now: SimTime,
        plant: &mut Plant<'_>,
    ) -> Result<(), CacheError> {
        for op in ops {
            match *op {
                CacheOp::Evict(p) => self.execute_evict(p, plant)?,
                CacheOp::Admit(p) => {
                    // The strategy may admit programs other than the one
                    // being accessed (global feeds, Oracle prefetch); their
                    // length comes through the access that taught the
                    // strategy their cost, which for non-accessed programs
                    // is reconstructed from the cost it used.
                    let len = if p == program {
                        length
                    } else {
                        self.length_from_cost(p)?
                    };
                    self.execute_admit(p, len, now, plant)?;
                }
            }
        }
        Ok(())
    }

    /// Resolves one segment request at `now` streaming until `end`
    /// (Figs 4–5), for a session that began at `session_start`. On a miss
    /// of an admitted-but-cold segment the placed peer captures the
    /// broadcast (fill-on-broadcast, §IV-B.1).
    ///
    /// Under push fill, content admitted at or after `session_start`
    /// cannot serve this session: the admission was triggered *by* this
    /// session, and the push is physically the very stream being watched.
    /// Sessions starting after the admission hit normally. This reproduces
    /// the paper's per-session accounting (the first access to a newly
    /// cached program is a miss; subsequent accesses hit).
    ///
    /// # Errors
    ///
    /// Propagates unknown-peer failures from the plant (broken
    /// invariants).
    #[inline]
    pub fn resolve_segment(
        &mut self,
        segment: SegmentId,
        session_start: SimTime,
        now: SimTime,
        end: SimTime,
        plant: &mut Plant<'_>,
    ) -> Result<Resolution, CacheError> {
        let program = segment.program();
        let Some(entry) = self.programs.get_mut(program) else {
            self.note_modeled_fetch(program, now);
            self.stats.miss_uncached += 1;
            return Ok(Resolution::Miss(MissReason::Uncached));
        };
        // Causality: content pushed by an admission triggered during this
        // session cannot serve it — the push *is* the server stream this
        // session is watching (see the method docs).
        if self.fill == FillPolicy::Prefetch && entry.admitted_at >= session_start {
            self.note_modeled_fetch(program, now);
            self.stats.miss_not_materialized += 1;
            return Ok(Resolution::Miss(MissReason::NotMaterialized));
        }
        let seg_pos = usize::from(segment.index());
        let Some(mut copy) = entry.copies.get(seg_pos).copied().filter(|c| c.present()) else {
            // Fig 4, step 4: the assigned peer(s) read the miss broadcast.
            if self.fill == FillPolicy::OnBroadcast {
                if let Some(copy) = entry.copies.get_mut(seg_pos) {
                    copy.materialize();
                    self.stats.capture_fills += 1;
                }
            }
            self.note_modeled_fetch(program, now);
            self.stats.miss_not_materialized += 1;
            return Ok(Resolution::Miss(MissReason::NotMaterialized));
        };
        // Try each replica in placement order until one has a free slot.
        // The first is the copy just read; only the others need the
        // program's segment count to be found.
        for replica in 0..self.replication {
            if replica > 0 {
                let count = self.segmenter.segment_count(entry.length) as usize;
                let pos = seg_pos + usize::from(replica) * count;
                copy = *entry
                    .copies
                    .get(pos)
                    .ok_or_else(|| CacheError::InconsistentState {
                        reason: format!(
                            "admitted segment {segment} has no location for replica {replica}"
                        ),
                    })?;
            }
            if plant.try_start_stream_at(copy.slot(), now, end)? {
                self.stats.hits += 1;
                return Ok(Resolution::PeerHit(self.ledger.peer(copy.slot())));
            }
        }
        self.stats.miss_peer_busy += 1;
        Ok(Resolution::Miss(MissReason::PeerBusy))
    }

    /// Delayed-hit accounting for a central-server fetch (Fig 4 step 2),
    /// a no-op under an instant model: a miss covered by an outstanding
    /// fetch coalesces onto it (a *delayed hit*), any other miss starts a
    /// new fetch. Peer-busy misses never reach the central server, so
    /// they are not accounted here.
    fn note_modeled_fetch(&mut self, program: ProgramId, now: SimTime) {
        if self.fetch.is_instant() {
            return;
        }
        match self.inflight.get(program).copied() {
            Some(start) if self.fetch.covers(start, now) => self.stats.delayed_hits += 1,
            _ => {
                *self.inflight.get_or_insert(program) = now;
                self.stats.inflight_misses += 1;
            }
        }
    }

    fn execute_admit(
        &mut self,
        program: ProgramId,
        length: SimDuration,
        now: SimTime,
        plant: &mut Plant<'_>,
    ) -> Result<(), CacheError> {
        if self.programs.get(program).is_some() {
            return Err(CacheError::InconsistentState {
                reason: format!("admit of already-admitted {program}"),
            });
        }
        let count = self.segmenter.segment_count(length);
        let total = count
            .checked_mul(u32::from(self.replication))
            .and_then(|total| u16::try_from(total).ok())
            .ok_or_else(|| CacheError::InconsistentState {
                reason: format!(
                    "admit of {program}: {count} segments x {} copies is more than an index counts",
                    self.replication
                ),
            })?;
        let prefetch = self.fill == FillPolicy::Prefetch;
        let mut copies = Vec::with_capacity(usize::from(total));
        self.ledger.place(program, total, |slot| {
            copies.push(Placed::new(slot, prefetch))
        })?;
        for copy in &copies {
            plant.store_at(copy.slot(), self.nominal_segment)?;
        }
        // Checked once every copy is stored: a peer given several copies of
        // the program agrees with its ledger only after the last of them.
        for copy in &copies {
            self.check_books(copy.slot(), plant.stb_at(copy.slot())?.used())?;
        }
        let record = CachedProgram {
            length,
            admitted_at: now,
            copies: copies.into_boxed_slice(),
        };
        self.programs.insert(program, record);
        self.cached_count += 1;
        self.stats.admissions += 1;
        Ok(())
    }

    fn execute_evict(
        &mut self,
        program: ProgramId,
        plant: &mut Plant<'_>,
    ) -> Result<(), CacheError> {
        let Some(entry) = self.programs.remove(program) else {
            return Err(CacheError::InconsistentState {
                reason: format!("evict of unadmitted {program}"),
            });
        };
        for copy in &entry.copies {
            self.ledger.release(copy.slot())?;
            let used = plant.delete_at(copy.slot(), self.nominal_segment)?;
            self.check_books(copy.slot(), used)?;
        }
        self.cached_count -= 1;
        self.stats.evictions += 1;
        Ok(())
    }

    /// The conservation law between the one placement record and the
    /// boxes (see the module docs): the peer at ledger index `slot`, now
    /// holding `used` bytes, holds one nominal segment per slot the ledger
    /// has placed there.
    fn check_books(&self, slot: u32, used: DataSize) -> Result<(), CacheError> {
        let placed = self.ledger.placed(slot);
        if used == self.nominal_segment * u64::from(placed) {
            return Ok(());
        }
        Err(CacheError::InconsistentState {
            reason: format!(
                "{} holds {used} for {placed} placed segments of {}",
                self.ledger.peer(slot),
                self.nominal_segment
            ),
        })
    }

    /// Reconstructs a program length from the slot cost the strategy
    /// knows. Costs charge runt segments as full slots, so
    /// `cost × segment_len` yields a segment count identical to the true
    /// length's — storage accounting stays exact.
    fn length_from_cost(&self, program: ProgramId) -> Result<SimDuration, CacheError> {
        let cost = self
            .strategy
            .cost_of(program)
            .ok_or_else(|| CacheError::InconsistentState {
                reason: format!("strategy admitted {program} without a known cost"),
            })?;
        Ok(self.segmenter.segment_len() * u64::from(cost / u32::from(self.replication)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementPolicy;
    use crate::strategy::StrategySpec;
    use cablevod_hfc::topology::{Topology, TopologyConfig};
    use cablevod_hfc::units::BitRate;
    use std::sync::OnceLock;

    const PEERS: u32 = 6;

    /// Per-peer storage of exactly 3 nominal segments.
    fn three_segment_storage() -> DataSize {
        let nominal = BitRate::STREAM_MPEG2_SD * SimDuration::from_minutes(5);
        nominal * 3
    }

    /// The one neighborhood every test places on: six peers of three
    /// slots each. Immutable, so shared; each test mutates a [`Plant`] of
    /// its own.
    fn topo() -> &'static Topology {
        static TOPO: OnceLock<Topology> = OnceLock::new();
        TOPO.get_or_init(|| {
            Topology::build(
                TopologyConfig::new(PEERS, PEERS).with_per_peer_storage(three_segment_storage()),
            )
            .expect("valid topology")
        })
    }

    /// A fresh plant and a balanced ledger over its peers' slots.
    fn plant_and_ledger() -> (Plant<'static>, SlotLedger) {
        let topo = topo();
        let nominal = BitRate::STREAM_MPEG2_SD * SimDuration::from_minutes(5);
        let slots = (topo.config().per_peer_storage().as_bits() / nominal.as_bits()) as u32;
        let members = topo
            .neighborhood(NeighborhoodId::new(0))
            .expect("exists")
            .members()
            .iter()
            .map(|&p| (p, slots))
            .collect::<Vec<_>>();
        (
            Plant::over(topo, NeighborhoodId::new(0)).expect("the one neighborhood"),
            SlotLedger::new(members, PlacementPolicy::Balanced),
        )
    }

    fn build(spec: StrategySpec) -> (IndexServer, Plant<'static>) {
        let (plant, ledger) = plant_and_ledger();
        let home = NeighborhoodId::new(0);
        let strategy = spec
            .build(ledger.total_slots(), home, None)
            .expect("buildable");
        (
            IndexServer::new(home, strategy, Segmenter::paper_default(), ledger),
            plant,
        )
    }

    fn ten_minutes() -> SimDuration {
        SimDuration::from_minutes(10) // 2 segments
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn seg(p: u32, i: u16) -> SegmentId {
        SegmentId::new(ProgramId::new(p), i)
    }

    /// Segments placed, counted on the ledger's side, after checking the
    /// boxes hold exactly their bytes.
    fn placed(index: &IndexServer, plant: &Plant<'_>) -> u64 {
        let slots = index.placed_slots();
        assert_eq!(plant.stored(), index.nominal_segment() * slots);
        slots
    }

    #[test]
    fn admission_places_all_segments() {
        let (mut index, mut plant) = build(StrategySpec::Lru);
        index
            .on_program_access(ProgramId::new(0), ten_minutes(), t(0), &mut plant)
            .expect("admit");
        assert_eq!(index.cached_programs(), 1);
        assert!(index.location_of(seg(0, 0)).is_some());
        assert!(index.location_of(seg(0, 1)).is_some());
        assert!(
            !index.is_materialized(seg(0, 0)),
            "fill-on-broadcast starts cold"
        );
        // Peer storage reflects the placement.
        let stored = placed(&index, &plant);
        assert_eq!(stored, 2);
    }

    #[test]
    fn cold_miss_captures_then_hits() {
        let (mut index, mut plant) = build(StrategySpec::Lru);
        index
            .on_program_access(ProgramId::new(0), ten_minutes(), t(0), &mut plant)
            .expect("admit");
        let end = t(300);
        let r = index
            .resolve_segment(seg(0, 0), t(0), t(0), end, &mut plant)
            .expect("resolve");
        assert_eq!(r, Resolution::Miss(MissReason::NotMaterialized));
        assert!(index.is_materialized(seg(0, 0)), "broadcast captured");
        // Second request: now a peer hit.
        let r = index
            .resolve_segment(seg(0, 0), t(400), t(400), t(700), &mut plant)
            .expect("resolve");
        assert!(r.is_hit(), "{r:?}");
        assert_eq!(index.stats().hits, 1);
        assert_eq!(index.stats().miss_not_materialized, 1);
        assert_eq!(index.stats().capture_fills, 1);
    }

    #[test]
    fn unknown_program_misses_uncached() {
        let (mut index, mut plant) = build(StrategySpec::Lru);
        let r = index
            .resolve_segment(seg(9, 0), t(0), t(0), t(300), &mut plant)
            .expect("resolve");
        assert_eq!(r, Resolution::Miss(MissReason::Uncached));
        assert_eq!(index.stats().miss_uncached, 1);
    }

    #[test]
    fn busy_peer_triggers_miss() {
        let (mut index, mut plant) = build(StrategySpec::Lru);
        index
            .on_program_access(ProgramId::new(0), ten_minutes(), t(0), &mut plant)
            .expect("admit");
        // Materialize.
        index
            .resolve_segment(seg(0, 0), t(0), t(0), t(300), &mut plant)
            .expect("capture");
        // Two concurrent hits saturate the peer's two slots.
        let end = t(1_000);
        assert!(index
            .resolve_segment(seg(0, 0), t(500), t(500), end, &mut plant)
            .expect("hit")
            .is_hit());
        assert!(index
            .resolve_segment(seg(0, 0), t(500), t(500), end, &mut plant)
            .expect("hit")
            .is_hit());
        let r = index
            .resolve_segment(seg(0, 0), t(500), t(500), end, &mut plant)
            .expect("resolve");
        assert_eq!(r, Resolution::Miss(MissReason::PeerBusy));
        assert_eq!(index.stats().miss_peer_busy, 1);
        // After the streams end the peer serves again.
        assert!(index
            .resolve_segment(seg(0, 0), t(1_001), t(1_001), t(1_300), &mut plant)
            .expect("hit")
            .is_hit());
    }

    #[test]
    fn eviction_frees_peer_storage() {
        let (mut index, mut plant) = build(StrategySpec::Lru);
        // Capacity: 6 peers x 3 slots = 18 slots; a 10-minute program costs
        // 2. Ten programs (20 slots) forces evictions.
        for p in 0..10u32 {
            index
                .on_program_access(
                    ProgramId::new(p),
                    ten_minutes(),
                    t(u64::from(p) * 100),
                    &mut plant,
                )
                .expect("access");
        }
        assert!(index.stats().evictions >= 1);
        let stored = placed(&index, &plant);
        assert_eq!(
            stored,
            index.cached_programs() as u64 * 2,
            "stb storage mirrors admissions"
        );
        assert!(stored <= 18);
        // Program 0 (least recent) must be gone; its segments no longer
        // resolve to peers.
        assert_eq!(
            index
                .resolve_segment(seg(0, 0), t(5_000), t(5_000), t(5_300), &mut plant)
                .expect("resolve"),
            Resolution::Miss(MissReason::Uncached)
        );
    }

    #[test]
    fn oracle_prefetch_materializes_instantly() {
        let (mut plant, ledger) = plant_and_ledger();
        let segmenter = Segmenter::paper_default();
        let home = NeighborhoodId::new(0);
        let schedule = crate::schedule::ScheduleWindow::new(vec![2].into());
        let strategy = StrategySpec::default_oracle()
            .build(ledger.total_slots(), home, Some(schedule))
            .expect("oracle");
        let mut index = IndexServer::new(home, strategy, segmenter, ledger);
        index
            .extend_schedule(
                &[
                    AccessEvent::new(t(0), ProgramId::new(0)).unwrap(),
                    AccessEvent::new(t(10), ProgramId::new(0)).unwrap(),
                ],
                SimTime::MAX,
            )
            .expect("in order");
        index
            .on_program_access(ProgramId::new(0), ten_minutes(), t(0), &mut plant)
            .expect("admit");
        assert!(index.is_materialized(seg(0, 0)), "oracle prefetches");
        // Causality: the access that triggered the admission cannot be
        // served by the just-pushed content...
        assert_eq!(
            index
                .resolve_segment(seg(0, 0), t(0), t(0), t(300), &mut plant)
                .expect("resolve"),
            Resolution::Miss(MissReason::NotMaterialized)
        );
        // ...but any later access hits without a capture step.
        assert!(index
            .resolve_segment(seg(0, 0), t(10), t(10), t(310), &mut plant)
            .expect("hit")
            .is_hit());
        assert_eq!(index.stats().capture_fills, 0, "prefetch needs no capture");
    }

    #[test]
    fn replication_places_copies_and_survives_busy_peers() {
        let (mut plant, ledger) = plant_and_ledger();
        let segmenter = Segmenter::paper_default();
        let home = NeighborhoodId::new(0);
        let strategy = StrategySpec::Lru
            .build(ledger.total_slots(), home, None)
            .expect("lru");
        let mut index = IndexServer::with_replication(home, strategy, segmenter, ledger, 2);
        index
            .on_program_access(ProgramId::new(0), ten_minutes(), t(0), &mut plant)
            .expect("admit");
        // 2 segments x 2 replicas = 4 slots placed.
        let stored = placed(&index, &plant);
        assert_eq!(stored, 4);
        // Materialize segment 0, then saturate the first replica's peer:
        // the second replica still serves.
        index
            .resolve_segment(seg(0, 0), t(0), t(0), t(300), &mut plant)
            .expect("capture");
        let mut hits = 0;
        for _ in 0..4 {
            if index
                .resolve_segment(seg(0, 0), t(500), t(500), t(900), &mut plant)
                .expect("resolve")
                .is_hit()
            {
                hits += 1;
            }
        }
        assert_eq!(
            hits, 4,
            "two replicas x two slots serve four concurrent streams"
        );
        assert_eq!(
            index
                .resolve_segment(seg(0, 0), t(500), t(500), t(900), &mut plant)
                .expect("resolve"),
            Resolution::Miss(MissReason::PeerBusy)
        );
        // Eviction releases every replica.
        for p in 1..10u32 {
            index
                .on_program_access(
                    ProgramId::new(p),
                    ten_minutes(),
                    t(1_000 + u64::from(p)),
                    &mut plant,
                )
                .expect("access");
        }
        let stored = placed(&index, &plant);
        assert_eq!(stored, index.cached_programs() as u64 * 4);
    }

    #[test]
    fn modeled_fetch_coalesces_same_window_misses() {
        let (index, mut plant) = build(StrategySpec::NoCache);
        let mut index = index.with_fetch_model(crate::fetch::FetchModel::with_latency_ms(200));
        // Two misses in the same second: the second coalesces onto the
        // first's in-flight fetch.
        index
            .resolve_segment(seg(0, 0), t(10), t(10), t(310), &mut plant)
            .expect("miss");
        index
            .resolve_segment(seg(0, 0), t(10), t(10), t(310), &mut plant)
            .expect("miss");
        assert_eq!(index.stats().inflight_misses, 1);
        assert_eq!(index.stats().delayed_hits, 1);
        assert_eq!(index.stats().miss_uncached, 2, "resolution unchanged");
        // A second later the 200 ms fetch has landed: a fresh fetch.
        index
            .resolve_segment(seg(0, 0), t(11), t(11), t(311), &mut plant)
            .expect("miss");
        assert_eq!(index.stats().inflight_misses, 2);
        assert_eq!(index.stats().delayed_hits, 1);
        // A different program never coalesces.
        index
            .resolve_segment(seg(1, 0), t(11), t(11), t(311), &mut plant)
            .expect("miss");
        assert_eq!(index.stats().inflight_misses, 3);
    }

    #[test]
    fn instant_fetch_model_counts_nothing() {
        let (mut index, mut plant) = build(StrategySpec::NoCache);
        assert!(index.fetch_model().is_instant());
        for _ in 0..3 {
            index
                .resolve_segment(seg(0, 0), t(10), t(10), t(310), &mut plant)
                .expect("miss");
        }
        assert_eq!(index.stats().inflight_misses, 0);
        assert_eq!(index.stats().delayed_hits, 0);
        assert_eq!(index.stats().miss_uncached, 3);
    }

    #[test]
    fn busy_peer_misses_skip_fetch_accounting() {
        let (index, mut plant) = build(StrategySpec::Lru);
        let mut index = index.with_fetch_model(crate::fetch::FetchModel::with_latency_ms(500));
        index
            .on_program_access(ProgramId::new(0), ten_minutes(), t(0), &mut plant)
            .expect("admit");
        index
            .resolve_segment(seg(0, 0), t(0), t(0), t(300), &mut plant)
            .expect("capture");
        assert_eq!(index.stats().inflight_misses, 1, "cold miss fetched");
        // Saturate the hosting peer's two slots, then miss busy.
        let end = t(1_000);
        for _ in 0..2 {
            assert!(index
                .resolve_segment(seg(0, 0), t(500), t(500), end, &mut plant)
                .expect("hit")
                .is_hit());
        }
        let r = index
            .resolve_segment(seg(0, 0), t(500), t(500), end, &mut plant)
            .expect("resolve");
        assert_eq!(r, Resolution::Miss(MissReason::PeerBusy));
        assert_eq!(
            index.stats().inflight_misses,
            1,
            "busy-peer miss never reaches the central server"
        );
        assert_eq!(index.stats().delayed_hits, 0);
    }

    #[test]
    fn a_placed_copy_is_four_bytes() {
        assert_eq!(std::mem::size_of::<Placed>(), 4);
        let last = Placed::PRESENT - 1;
        let mut copy = Placed::new(last, false);
        assert_eq!((copy.slot(), copy.present()), (last, false));
        copy.materialize();
        assert_eq!((copy.slot(), copy.present()), (last, true));
        assert_eq!(copy, Placed::new(last, true));
    }

    /// The boxes keep bytes and the index the placements; bytes put on or
    /// taken off a box behind the index's back break the law between them,
    /// and the next move on that box is refused.
    #[test]
    fn a_box_whose_bytes_drift_from_its_placements_is_refused() {
        let access = |index: &mut IndexServer, plant: &mut Plant<'_>, p: u32| {
            index.on_program_access(ProgramId::new(p), ten_minutes(), t(u64::from(p)), plant)
        };
        // A stray byte on a host: the next admission that lands there (six
        // peers of three slots, two-slot programs, balanced placement —
        // program 3 comes back to the first peer) finds it.
        let (mut index, mut plant) = build(StrategySpec::Lru);
        access(&mut index, &mut plant, 0).expect("admit");
        let host = index.location_of(seg(0, 0)).expect("placed");
        plant.store(host, DataSize::from_bytes(1)).expect("fits");
        let err = (1..4)
            .find_map(|p| access(&mut index, &mut plant, p).err())
            .expect("an admission onto the host is refused");
        assert!(
            matches!(&err, CacheError::InconsistentState { reason } if reason.contains(&host.to_string())),
            "{err}"
        );

        // A segment's bytes taken off its host: found the same way.
        let (mut index, mut plant) = build(StrategySpec::Lru);
        access(&mut index, &mut plant, 0).expect("admit");
        let host = index.location_of(seg(0, 0)).expect("placed");
        plant.delete(host, index.nominal_segment()).expect("held");
        let err = (1..4)
            .find_map(|p| access(&mut index, &mut plant, p).err())
            .expect("an admission onto the host is refused");
        assert!(
            matches!(&err, CacheError::InconsistentState { reason } if reason.contains(&host.to_string())),
            "{err}"
        );
    }

    #[test]
    fn an_access_past_the_event_horizon_is_refused_before_the_strategy_sees_it() {
        let (mut index, mut plant) = build(StrategySpec::default_lfu());
        let program = ProgramId::new(0);
        let err = index
            .on_program_access(program, ten_minutes(), AccessEvent::HORIZON, &mut plant)
            .unwrap_err();
        assert!(matches!(err, CacheError::BeyondHorizon { .. }), "{err}");
        assert!(!index.strategy().contains(program));
        assert_eq!(index.cached_programs(), 0);
        let last = SimTime::from_secs(u64::from(u32::MAX));
        index
            .on_program_access(program, ten_minutes(), last, &mut plant)
            .expect("the last second an event carries");
        assert_eq!(index.cached_programs(), 1);
    }

    /// Heap and inline bytes of one index server, from capacities: its
    /// tables, its ledger and its strategy.
    fn index_bytes(index: &IndexServer) -> usize {
        use std::mem::size_of;
        let IndexServer {
            home: _,
            strategy,
            segmenter: _,
            nominal_segment: _,
            ledger,
            fill: _,
            replication: _,
            programs,
            cached_count: _,
            stats: _,
            ops,
            fetch: _,
            inflight,
        } = index;
        let copies: usize = programs
            .records()
            .iter()
            .map(|program| program.copies.len() * size_of::<Placed>())
            .sum();
        size_of::<IndexServer>()
            + programs.heap_bytes()
            + copies
            + ops.capacity() * size_of::<CacheOp>()
            + inflight.heap_bytes()
            + ledger.heap_bytes()
            + std::mem::size_of_val(&**strategy)
            + strategy.heap_bytes()
    }

    /// The repo benchmark's catalog: every workload draws from 400
    /// programs.
    const BENCHMARK_CATALOG: u32 = 400;

    /// The paper's catalog (§V-A).
    const PAPER_CATALOG: u32 = 8_278;

    /// What the plant and the index servers hold per subscriber after an
    /// `lfu` replay at the shape of the repo benchmark's streamed trace
    /// (500-peer neighborhoods, 2 GB a peer, a catalog of `programs`,
    /// `tenths` tenths of a session a subscriber-day over six days, all
    /// inside the week-long history), counted from capacities so the
    /// figure is deterministic: the boxes at their size — heap-free here,
    /// as no viewer stream overcommits a box — and each index server's
    /// tables, ledger and strategy. A strategy built with a history window
    /// (`fed`) keeps none of its accesses; one built without keeps them
    /// all in its ring. Returns the subscribers, the boxes' bytes and the
    /// index servers'. The plant's coax and server meters are per
    /// neighborhood, not per subscriber, and are left out.
    fn plant_and_index_bytes(tenths: u64, fed: bool, programs: u32) -> (usize, usize, usize) {
        use crate::history::HistoryWindow;
        use crate::strategy::{StrategyContext, StrategyFactory};
        use cablevod_hfc::stb::SetTopBox;
        const NBHD: u32 = 500;
        const NBHDS: u32 = 4;
        const DAYS: u64 = 6;
        let users = NBHD * NBHDS;
        let topo = Topology::build(
            TopologyConfig::new(users, NBHD).with_per_peer_storage(DataSize::from_gigabytes(2)),
        )
        .expect("valid");
        let mut plants: Vec<Plant<'_>> = (0..NBHDS)
            .map(|n| Plant::over(&topo, NeighborhoodId::new(n)).expect("exists"))
            .collect();
        let segmenter = Segmenter::paper_default();
        let nominal = segmenter.stream_rate() * segmenter.segment_len();
        let slots = (topo.config().per_peer_storage().as_bits() / nominal.as_bits()) as u32;
        let mut indexes: Vec<IndexServer> = (0..NBHDS)
            .map(|n| {
                let home = NeighborhoodId::new(n);
                let members = topo.neighborhood(home).expect("exists").members();
                let ledger = SlotLedger::new(
                    members.iter().map(|&p| (p, slots)),
                    PlacementPolicy::Balanced,
                );
                let strategy = StrategyFactory::build(
                    &StrategySpec::default_lfu(),
                    StrategyContext {
                        capacity_slots: ledger.total_slots(),
                        home,
                        schedule: None,
                        history: fed.then(HistoryWindow::new),
                    },
                )
                .expect("buildable");
                IndexServer::new(home, strategy, segmenter, ledger)
            })
            .collect();
        // Programs skewed toward low ids, 30 to 120 minutes long;
        // neighborhoods drawn uniformly.
        let sessions = u64::from(users) * DAYS * tenths / 10;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..sessions {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            let program = (f64::from(programs) * u * u * u) as u32;
            let length = SimDuration::from_minutes(30 * (1 + u64::from(program % 4)));
            let now = t(i * DAYS * 86_400 / sessions);
            let n = (x % u64::from(NBHDS)) as usize;
            indexes[n]
                .on_program_access(ProgramId::new(program), length, now, &mut plants[n])
                .expect("placement holds");
        }
        let boxes = users as usize * std::mem::size_of::<SetTopBox>();
        let servers: usize = indexes.iter().map(index_bytes).sum();
        (users as usize, boxes, servers)
    }

    /// The benchmark trace's 2.4 sessions a subscriber-day over its
    /// 400-program catalog, every access kept in the strategy's own ring,
    /// its largest term.
    #[test]
    fn plant_and_index_cost_a_few_hundred_bytes_a_subscriber() {
        let (users, boxes, servers) = plant_and_index_bytes(24, false, BENCHMARK_CATALOG);
        let per_subscriber = (boxes + servers) / users;
        assert!(
            per_subscriber <= 320,
            "{per_subscriber} B a subscriber: {boxes} B of boxes, {servers} B of index servers"
        );
    }

    /// An index whose accesses the record supply hands back keeps no term
    /// per access: at the same shape, over the benchmark's 400-program
    /// catalog, it costs well under the ring's bound, and the same
    /// subscribers making twice the sessions move its bytes by under a
    /// byte an added session — its tables are by program and peer, and
    /// only the few programs the doubled run alone saw add to them (a
    /// ring of 8-byte events would add 8 B an access).
    #[test]
    fn an_engine_fed_lfu_index_keeps_nothing_per_access() {
        let (users, boxes, servers) = plant_and_index_bytes(24, true, BENCHMARK_CATALOG);
        let per_subscriber = (boxes + servers) / users;
        assert!(
            per_subscriber <= 180,
            "{per_subscriber} B a subscriber: {boxes} B of boxes, {servers} B of index servers"
        );
        let (_, _, doubled) = plant_and_index_bytes(48, true, BENCHMARK_CATALOG);
        // Six days at 2.4 more sessions a subscriber-day.
        let added_sessions = users * 6 * 24 / 10;
        assert!(
            doubled.abs_diff(servers) < added_sessions,
            "twice the accesses moved the index servers' bytes from {servers} B to {doubled} B"
        );
    }

    /// The same replay over the paper's 8 278-program catalog. An index
    /// keeps a 4-byte slot a program id in each of its two slot maps (the
    /// strategy's and the placement record's) and a record only for the
    /// programs its neighborhood keeps something about, so the catalog
    /// costs each neighborhood 8 B an id, not a record an id. It reads
    /// 469 B a subscriber; with a 40-byte LFU entry and a 40-byte
    /// placement entry an id it read 1 888 B.
    #[test]
    fn a_paper_catalog_index_pays_a_slot_an_id_not_a_record() {
        let (users, boxes, servers) = plant_and_index_bytes(24, true, PAPER_CATALOG);
        let per_subscriber = (boxes + servers) / users;
        assert!(
            per_subscriber <= 480,
            "{per_subscriber} B a subscriber: {boxes} B of boxes, {servers} B of index servers"
        );
    }

    /// A ledger numbering the members in another order than the plant's
    /// boxes is refused before any copy reaches a box by its index.
    #[test]
    fn a_ledger_out_of_member_order_is_refused() {
        let (plant, ledger) = plant_and_ledger();
        let index = IndexServer::new(
            NeighborhoodId::new(0),
            StrategySpec::Lru
                .build(ledger.total_slots(), NeighborhoodId::new(0), None)
                .expect("builds"),
            Segmenter::paper_default(),
            ledger,
        );
        index.check_plant(&plant).expect("member order");
        let members = topo()
            .neighborhood(NeighborhoodId::new(0))
            .expect("exists")
            .members();
        let slots = |peers: &mut dyn Iterator<Item = &PeerId>| -> SlotLedger {
            SlotLedger::new(peers.map(|&p| (p, 3)), PlacementPolicy::Balanced)
        };
        for ledger in [
            slots(&mut members.iter().rev()),
            slots(&mut members.iter().skip(1)),
        ] {
            let index = IndexServer::new(
                NeighborhoodId::new(0),
                StrategySpec::Lru
                    .build(ledger.total_slots(), NeighborhoodId::new(0), None)
                    .expect("builds"),
                Segmenter::paper_default(),
                ledger,
            );
            let err = index.check_plant(&plant).unwrap_err();
            assert!(matches!(err, CacheError::InconsistentState { .. }), "{err}");
        }
    }

    #[test]
    fn capacity_mismatch_panics() {
        let segmenter = Segmenter::paper_default();
        let ledger = SlotLedger::new(vec![(PeerId::new(0), 3)], PlacementPolicy::Balanced);
        let strategy = StrategySpec::Lru
            .build(999, NeighborhoodId::new(0), None)
            .expect("ok");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            IndexServer::new(NeighborhoodId::new(0), strategy, segmenter, ledger)
        }));
        assert!(result.is_err(), "mismatched capacities must panic");
    }
}
