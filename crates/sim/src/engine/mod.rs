//! The trace-driven discrete-event simulation (§V-B).
//!
//! > "A discrete event simulation is dictated by each download event from
//! > the trace data. When an event occurs, the user who initiated the event
//! > locates the specified program in the simulated topology. This program
//! > will either be cached within the neighborhood by one of the peers, or
//! > it will be housed on a central server. In either case, the download
//! > consumes neighborhood bandwidth, and in the latter case, it also
//! > consumes server bandwidth."
//!
//! Sessions are simulated at segment granularity: a session of watched
//! length `d` issues `ceil(d / segment)` segment requests at segment
//! boundaries, each resolved independently against the neighborhood cache
//! (placement spreads a program's segments over many peers, so consecutive
//! segments can come from different peers, and a busy peer misses only the
//! segments it actually hosts).
//!
//! # Architecture: one lifecycle, one seam, thin drivers
//!
//! There is exactly **one** session-lifecycle implementation —
//! `lifecycle::SessionDriver` — and it owns exactly one neighborhood, the
//! paper's unit of isolation. Every entry point is a thin composition of
//! pluggable pieces around one driver per neighborhood:
//!
//! ```text
//!  run / replay /                (mod.rs, shard.rs, online.rs — the entry
//!  online::serve_serial           drivers)
//!  ───────────────────────────────────────────────────────────────────────
//!        │ compose, through DriverParts::driver (mod.rs — the one place a
//!        ▼ driver is built, for one neighborhood)
//!  SessionDriver                 (lifecycle.rs — THE event loop: record/queue
//!        │                        interleave, session start, segment resolve)
//!        │ is generic over
//!        ├─► RecordSupply        (stream.rs — where sessions come from, and
//!        │                        the Oracle's future and the LFU's past
//!        │                        with them: read ahead, read behind)
//!        │     StreamSupply        gidx-ordered merge over the shard's own
//!        │                         chunk runs: a resident trace's strides
//!        │                         or a file's chunks (the sweep fast path)
//!        │     BlockSupply         the neighborhood's contiguous run of each
//!        │                         grouped block, fed from outside: by the
//!        │                         decoder (the blocked replay) or by the
//!        │                         ingress (online.rs)
//!        │ reads, under a strategy that takes the feed, through its own
//!        │ cursor,
//!        ├── Feed                (cablevod_cache::feed — the global
//!        │                        popularity feed, the run's one, handed
//!        │                        to every step published ahead of it)
//!        │ and owns, for its neighborhood of the one Topology,
//!        ├── Plant                (cablevod_hfc::plant — its boxes, coax
//!        │                         network and server meter)
//!        ├── AdmissionControl     (fault.rs — its fault overlay)
//!        └── IndexServer          built over a
//!        ▼
//!  ScheduleWindow                (cablevod_cache::schedule — how the Oracle
//!                                 sees its future: a buffer the record
//!                                 supply keeps fed as it reads ahead)
//!  HistoryWindow                 (cablevod_cache::history — how a windowed
//!                                 LFU lets go of its past: the record supply
//!                                 hands each access back as it leaves)
//!  ───────────────────────────────────────────────────────────────────────
//!        │ results flow into
//!        ▼
//!  report.rs                     (merge_outcomes — the one bit-exact fold of
//!                                 every neighborhood's meters and counters)
//! ```
//!
//! The drivers pick a supply. **The plan follows the data,
//! never the worker count**: the source decides between resident and
//! streaming, and — for streaming — what the engine can observe of the
//! file and the strategy decides the supply (`shard_plans`). Every replay
//! — [`run`], a [`Simulation`](crate::Simulation) at any worker count, the
//! online engine — is one driver per neighborhood; `serial()` and
//! `threads(n)` say how many shards run at once and nothing else, and
//! every shard walks its records in ascending global index:
//!
//! | plan      | entry                              | supply                                  | feed producer (and reclaim)                  | look-ahead and history hand-back          | scheduling                               |
//! |-----------|------------------------------------|-----------------------------------------|----------------------------------------------|-------------------------------------------|------------------------------------------|
//! | resident  | `run` or `Simulation`, resident    | `StreamSupply` over the survey's strides | the survey, before any shard starts (never) | the shard's own two cursors               | work-stealing pool (one worker: inline, a shard built when started, dropped when done) |
//! | streaming | `run` or `Simulation`, chunked     | `StreamSupply` over the file's chunks (sweep fast path) | none (takes no feed)             | the shard's own two cursors               | work-stealing pool                       |
//! |           |                                    | `BlockSupply` (blocked replay)          | the decoder, a block before each pass (after each pass) | the decoder's two cursors, per block | the block loop on the work-stealing pool, one pass a block: every shard stepped to the block's edge |
//! | online    | `online::serve_serial`             | `BlockSupply` (the ingress's blocks)    | the ingress, at each submit (after each advance) | the ingress: the replayed schedule, whole, in the first block; the submitted accesses' trailing ring, per block | the same block loop on one worker, one pass an advance: every driver stepped to the second after "now" |
//!
//! Every driver reads the feed the same way — a cursor of its own into
//! the run's one `Feed`, handed to it by `&` — and is handed its future
//! and its past the same way, through its supply's `read_ahead` and
//! `read_behind`: the rows differ in the supply alone. The resident plan and the fast path
//! share one supply over two chunk sources, and one job loop
//! (`shard::run_jobs`); they differ in where a chunk comes from and in
//! the feed, which only the resident plan can carry. The blocked replay
//! and the online engine share the other supply and one block loop
//! (`shard::BlockLoop`), which owns their drivers, the block and the
//! feed; they differ in who fills the blocks — the
//! decoder from a file, the ingress from submissions — and in where a
//! parked driver runs its idle sweep: at the block's edge, or online at
//! the clock's "now", a second short of it.
//!
//! Every driver keeps its pending segment requests and retries in one
//! continuation queue (`queue.rs`, contract in `lifecycle.rs`): it pops
//! in exactly a heap's order, and a push that arrives in key order, or a
//! few places short of it, costs a deque operation — on the benchmark's
//! traces every push does.
//!
//! A resident shard reads its records a stride at a time: each of its
//! cursors gathers the next at most `stream::STRIDE` (4 096) records of
//! its neighborhood into one contiguous buffer and walks it front to
//! back. Reaching each record through a per-neighborhood index as it
//! replays read about 30 % slower on the `resident_lfu` benchmark
//! workload, and gathering the whole run at once holds 40 B a record of
//! the neighborhood's load; a stride holds 160 KiB a cursor whatever the
//! load, and costs one chunk step in 4 096 records.
//!
//! # Trace layouts and decode work
//!
//! Chunked sources come in two layouts (see [`cablevod_trace::columnar`]),
//! and a streaming replay is sharded per neighborhood over either:
//!
//! * The **blocked** replay is the general plan. The caller's thread walks
//!   the records in global order, each chunk decoded **once** — a
//!   **time-major** file's chunks partition that order, so each is a block
//!   as it stands; a **neighborhood-major** file's cell runs are merged
//!   back into it by their stored sequence numbers, a chunk's worth of
//!   records a block. It computes the records' contexts, publishes the
//!   block's feed events, and moves the block's records into neighborhood-grouped order, in place;
//!   then every shard runs through its own contiguous run of the block
//!   and on to — strictly before — the start of the last record the block
//!   decoded, and carries its continuation queue into
//!   the next block (records sort ahead of continuations at an equal
//!   second, and the next block may start at that very second). A
//!   neighborhood's sessions are thus replayed a block's worth at a
//!   stretch against its own working set, instead of one global queue
//!   hopping between all of them, and decode work is one pass over the
//!   file at any worker count.
//! * The **sweep fast path**: a neighborhood-major file (re-chunked at
//!   import, [`cablevod_trace::rechunk`]) groups each chunk under one
//!   neighborhood and carries a per-neighborhood chunk index. When the
//!   index matches the configured neighborhood size *and* the strategy
//!   takes no feed, nothing couples the shards: each is handed exactly
//!   its own chunks and streams them end to end as an independent job —
//!   each chunk again decoded once per run. At a different neighborhood
//!   size, or under a strategy that takes the feed, the same file replays
//!   blocked, so every layout stays replayable at every size under every
//!   strategy.
//!
//! Counter-based tests enforce decode-once on every layout.
//!
//! What a streaming run holds of the file is the chunks being decoded:
//! a mapped reader releases each chunk's pages once the chunk is decoded
//! (`cablevod_trace::columnar`, "Chunk fetch"), so the resident set is
//! bounded by chunk size plus session concurrency, not by trace length.
//!
//! # One feed producer
//!
//! Serial feed exactness: a serial replay of the whole trace would publish
//! the feed one record at a time, so at record `r` a strategy can only
//! ever see events `0..=r`. Every plan publishes into one [`Feed`] and
//! hands every strategy the events from its driver's cursor up to its own
//! record index, so an event published early is never visible early.
//! Every run has **one** producer, and it publishes in a phase where no
//! driver runs: the resident plan's one pass over its records
//! (`DriverParts::survey`, which also validates them) publishes all of
//! them before any shard starts; the decoding thread publishes a whole
//! block between two pool passes; the online ingress publishes a session
//! when it is submitted, between two advances. The producer writes
//! through `&mut` and the drivers read through `&`, so the borrow checker
//! is what keeps them apart; no driver ever waits on the feed, and a
//! shard about to start the session with global index `g` consumes
//! events `0..=g` exactly like the serial engine. After each pass (each
//! advance) the feed drops the events below the smallest cursor of the
//! live drivers, so on a streaming or online run feed memory is bounded
//! by consumption, not trace length; a resident run holds the trace
//! already, and its feed, whole, 24 B a record beside it.
//!
//! Idle-neighborhood retention: a neighborhood between (or without)
//! sessions never syncs on its own — its stalled cursor would floor the
//! reclamation and pin everything published since. The blocked replay
//! therefore runs an **idle sweep** at every block's end: each shard,
//! parked at the edge, syncs its index against the published feed, which
//! consumes exactly what the neighborhood's next session would consume
//! first anyway (so results stay bit-identical) and keeps the retained
//! events one block plus what the batching lag keeps invisible, not
//! O(trace). The online engine runs the same sweep at every advance of
//! its clock, and retains one advance's submissions plus the lag's.
//!
//! # The Oracle's look-ahead
//!
//! Oracle is inherently offline — it needs the future — but only the next
//! `lookahead` of it, and that is further along the very records being
//! replayed. So the place that stages a neighborhood's records in order
//! reads them a second time `lookahead` ahead of the replay and hands the
//! neighborhood's `(time, program)` pairs to its index server before the
//! access that needs them (`RecordSupply::read_ahead`, see `stream.rs`):
//! on a streaming run the blocked replay's decoder, or the shard's own
//! supply on the sweep fast path, keeps a second cursor over the same
//! chunk runs — no pre-pass, no second file, each chunk decoded twice; a
//! resident run's supply does the same over its strides, each gathered
//! twice; the online ingress hands each neighborhood the schedule it was
//! given, whole, in the first block it fills.
//! The offline plans' [`ScheduleWindow`] is bounded by the look-ahead
//! span plus one hand-over, and every plan shows the Oracle the identical
//! event sequence, so reports stay bit-identical.
//!
//! # The history's trailing cursor
//!
//! The windowed LFU family (§IV-B.2's "history of all events that occur
//! within the last N hours") has to take each of its neighborhood's
//! accesses back out of its counts when it is N hours old — and those
//! accesses are the very records being replayed, N hours further back.
//! So the look-ahead has a mirror image: under a strategy that declares a
//! history window, every supply hands its neighborhood's accesses back
//! to the index server as they leave the window
//! (`RecordSupply::read_behind`, which the
//! driver calls before every access it publishes and every idle sweep),
//! through a [`HistoryWindow`], and the strategy
//! keeps a copy only of what no supply can hand back (remote feed events,
//! the delayed-hits LFU's double weight). A resident or fast-path shard
//! keeps a trailing cursor over its own runs; the blocked replay's
//! decoder keeps one over the chunk runs, `window` behind each block's
//! edge, and groups what it passes by neighborhood beside the block's
//! records, like the look-ahead's slice, for each shard to hand back
//! access by access; the online ingress keeps one trailing ring of the
//! accesses submitted and slices what leaves the window by each advance
//! into that advance's block the same way. The trailing cursor reads
//! nothing until the window's edge reaches the first record, so a window
//! that covers the whole run reads every chunk once; a shorter one reads
//! a second time every chunk (or stride) its edge has passed — all of
//! them, for a zero window — while holding one chunk a run instead of
//! every neighborhood's copy of its window. The events and
//! the instant at which each leaves are the ones the strategy's own copy
//! would give, so reports stay bit-identical; the reference model's
//! strategies keep their own copies, which holds the hand-back to an
//! independent history.
//!
//! Whichever path runs, the report is **bit-identical**, and what it is
//! held to is not another plan: a deliberately naive whole-plant
//! simulator in `tests/reference/` — one loop over the trace, one event
//! map for every neighborhood, none of this module's machinery — must
//! produce the same report as `Simulation` on one worker, on several, and
//! streamed on one and on several, across every registered strategy,
//! admission modes, fault plans, placements and replication
//! (`tests/builder.rs`). Chunk sizes, chunk layouts and shard counts are
//! swept against one another in `engine/tests.rs` and
//! `tests/streaming.rs`.

mod fault;
mod lifecycle;
pub mod online;
mod queue;
mod report;
mod shard;
mod stream;

#[cfg(test)]
mod tests;

use std::sync::Arc;

use cablevod_cache::{
    Feed, HistoryWindow, IndexServer, PlacementPolicy, ScheduleWindow, SlotLedger, StrategyContext,
    StrategyFactory,
};
use cablevod_hfc::ids::{NeighborhoodId, PeerId};
use cablevod_hfc::plant::Plant;
use cablevod_hfc::segment::Segmenter;
use cablevod_hfc::topology::{Topology, TopologyConfig};
use cablevod_trace::catalog::ProgramCatalog;
use cablevod_trace::record::SessionRecord;
use cablevod_trace::source::TraceSource;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::report::SimReport;

use lifecycle::{feed_event, session_ctx, RecordSupply, SessionDriver};
use report::merge_outcomes;
use stream::Strides;

/// Runs one simulation of the workload in `source` under `config` and
/// returns the measured report: the config's own strategy, one worker,
/// no telemetry. Public because callers that want only the report (the
/// repo benchmark's reference runs, most tests) say it shorter this way.
///
/// It is `Simulation::over(source).config(config.clone()).run()?.report`:
/// one driver per neighborhood, on the caller's thread, whatever the
/// source — a resident [`Trace`](cablevod_trace::record::Trace) replayed
/// one neighborhood after the other, or a chunked source (an on-disk
/// [`ColumnarReader`](cablevod_trace::columnar::ColumnarReader) in either
/// chunk layout, a [`ChunkedTrace`](cablevod_trace::source::ChunkedTrace))
/// streamed with bounded resident memory: the chunks being decoded plus
/// session concurrency, never the file, whose mapped pages leave the
/// process chunk by chunk as they are decoded (see the module docs). The
/// builder produces bit-identical reports at any worker count.
///
/// Deterministic: identical inputs produce identical reports.
///
/// # Errors
///
/// Returns [`SimError::Config`] for invalid configurations, and
/// propagates trace-source failures and broken-invariant failures from
/// the cache and plant layers.
///
/// # Examples
///
/// ```
/// use cablevod_sim::{run, SimConfig};
/// use cablevod_trace::synth::{generate, SynthConfig};
///
/// let trace = generate(&SynthConfig { users: 300, programs: 60, days: 3,
///     ..SynthConfig::smoke_test() });
/// let report = run(&trace, &SimConfig::paper_default().with_neighborhood_size(100)
///     .with_warmup_days(1))?;
/// assert!(report.sessions > 0);
/// # Ok::<(), cablevod_sim::SimError>(())
/// ```
pub fn run<S: TraceSource + ?Sized>(source: &S, config: &SimConfig) -> Result<SimReport, SimError> {
    let strategy = config.strategy().factory();
    Ok(replay(source, config, strategy.as_ref(), 1)?.0)
}

/// The one way in to the per-neighborhood plans, with an explicit
/// strategy factory and worker count: [`run`] on one worker, and the
/// entry the [`Simulation`](crate::Simulation) builder uses so
/// registry-resolved (out-of-tree) strategies ride the same drivers as
/// the built-ins. The plan follows the data — resident
/// or streamed, and for a streamed source its layout and the strategy —
/// never `workers`, which is how many shards run at once (`1`: all of
/// them on the caller's thread, one after the other). Beside the report
/// it says whether the replay took the sweep fast path (see
/// [`fastpath_layout`]), surfaced as
/// [`RunTelemetry::fastpath`](crate::RunTelemetry).
pub(crate) fn replay<S: TraceSource + ?Sized>(
    source: &S,
    config: &SimConfig,
    strategy: &dyn StrategyFactory,
    workers: usize,
) -> Result<(SimReport, bool), SimError> {
    check_record_count(source)?;
    config.validate()?;
    let topo = build_topology(source, config)?;
    let parts = DriverParts::new(&topo, source.catalog(), config, strategy)?;
    let (outcomes, fastpath) = match source.resident_records() {
        Some(records) => {
            let (strides, feed) = parts.survey(records)?;
            let outcomes = shard::run_jobs(&parts, &strides, &strides.runs, feed.as_ref(), workers);
            (outcomes, false)
        }
        None => {
            let (outcomes, streamed) = shard::run_streaming(source, &parts, workers)?;
            (outcomes, streamed.fastpath)
        }
    };
    Ok((merge_outcomes(outcomes, source.days(), config)?, fastpath))
}

/// The source's chunk index for `config`'s neighborhood size, when shards
/// can replay straight from it — the **sweep fast path**: the index covers
/// all `nbhd_count` groups, so every chunk belongs to exactly one shard,
/// and the strategy takes no feed, so shards share nothing and each can
/// stream its own cell runs end to end (no central decode, no block
/// edges). The one predicate behind the plan ([`shard_plans`]) and,
/// through it, the `fastpath` telemetry flag.
fn fastpath_layout<'s, S: TraceSource + ?Sized>(
    source: &'s S,
    config: &SimConfig,
    nbhd_count: usize,
    strategy: &dyn StrategyFactory,
) -> Option<&'s cablevod_trace::source::NeighborhoodLayout> {
    source
        .neighborhood_layout_for(config.neighborhood_size())
        .filter(|layout| layout.group_count() == nbhd_count && !strategy.needs_feed())
}

/// Session indices ride in `u32` continuation keys on every path
/// (resident and streaming), so traces beyond 2^32 records are rejected
/// up front rather than silently wrapping.
fn check_record_count<S: TraceSource + ?Sized>(source: &S) -> Result<(), SimError> {
    if source.record_count() > u64::from(u32::MAX) {
        return Err(SimError::Config {
            reason: "traces beyond 2^32 records are not supported".into(),
        });
    }
    Ok(())
}

fn build_topology<S: TraceSource + ?Sized>(
    source: &S,
    config: &SimConfig,
) -> Result<Topology, SimError> {
    build_topology_for(source.user_count(), config)
}

/// Places a subscriber count with no trace in hand (the online tier
/// knows its population from an [`online::OnlineSpec`], not a source),
/// and notes on the topology how `config` equips every box and wire.
fn build_topology_for(users: u32, config: &SimConfig) -> Result<Topology, SimError> {
    Ok(Topology::build(
        TopologyConfig::new(users, config.neighborhood_size())
            .with_per_peer_storage(config.per_peer_storage())
            .with_stream_slots(config.stream_slots())
            .with_coax_spec(*config.coax_spec()),
    )?)
}

/// Refuses a catalog with a program whose copies an index server cannot
/// count. A program's `count` segments are stored as `count × replication`
/// copies, each named by a `u16` segment index (replica `j` of segment `i`
/// is `i + j × count`, see `cablevod_cache::index`), and the lifecycle
/// keeps `u16::MAX` for its retry sentinel; so at most `u16::MAX` copies a
/// program fit, and one more would wrap an index into another segment's —
/// or into a retry.
fn check_catalog(
    catalog: &ProgramCatalog,
    segmenter: &Segmenter,
    replication: u8,
) -> Result<(), SimError> {
    for (program, info) in catalog.iter() {
        let count = segmenter.segment_count(info.length);
        let copies = u64::from(count) * u64::from(replication);
        if copies > u64::from(u16::MAX) {
            return Err(SimError::Config {
                reason: format!(
                    "{program} has {count} segments of {} s; at replication {replication} \
                     that is {copies} copies, more than the {} an index counts",
                    segmenter.segment_len().as_secs(),
                    u16::MAX
                ),
            });
        }
    }
    Ok(())
}

/// What every driver of one run is built from: who lives where, and how a
/// neighborhood's index server is configured on it. Box and coax
/// parameters are the topology's ([`build_topology_for`] copied them there),
/// read from that one place by the [`Plant`] and the slot ledgers alike.
struct DriverParts<'a> {
    topo: &'a Topology,
    catalog: &'a ProgramCatalog,
    config: &'a SimConfig,
    segmenter: Segmenter,
    /// Program slot costs, indexed by program — the one table every
    /// [`ScheduleWindow`] of the run shares — or `None` under a strategy
    /// that never looks ahead, whose index servers get no window.
    costs: Option<Arc<[u32]>>,
    strategy: &'a dyn StrategyFactory,
}

impl<'a> DriverParts<'a> {
    /// The parts of one run, after [`check_catalog`] has refused a catalog
    /// the index servers cannot carry — on every plan, before any driver
    /// exists.
    fn new(
        topo: &'a Topology,
        catalog: &'a ProgramCatalog,
        config: &'a SimConfig,
        strategy: &'a dyn StrategyFactory,
    ) -> Result<Self, SimError> {
        let segmenter = Segmenter::new(config.segment_len(), config.stream_rate());
        check_catalog(catalog, &segmenter, config.replication())?;
        let costs = strategy.schedule_lookahead().map(|_| {
            catalog
                .iter()
                .map(|(_, info)| {
                    segmenter.segment_count(info.length) * u32::from(config.replication())
                })
                .collect()
        });
        Ok(DriverParts {
            topo,
            catalog,
            config,
            segmenter,
            costs,
            strategy,
        })
    }

    /// The one pass a resident run makes over its records before any
    /// driver is built. It computes every record's context — which is
    /// what rejects a dangling program or an unknown user before anything
    /// runs — and lists each neighborhood's record indices, ascending, cut
    /// into [`Strides`]: the chunks its shard gathers. Under a
    /// strategy that takes the feed it is also the run's one feed
    /// producer: it publishes every record's event into a [`Feed`] sized
    /// to the record count, before any shard runs (see the module docs).
    fn survey<'r>(
        &self,
        records: &'r [SessionRecord],
    ) -> Result<(Strides<'r>, Option<Feed>), SimError> {
        let seg_len = self.segmenter.segment_len().as_secs();
        let mut members = vec![Vec::new(); self.topo.neighborhood_count()];
        let mut feed = self
            .strategy
            .needs_feed()
            .then(|| Feed::with_capacity(records.len()));
        for (gidx, rec) in (0u32..).zip(records) {
            let ctx = session_ctx(rec, self.catalog, self.topo, seg_len)?;
            if let Some(feed) = feed.as_mut() {
                feed.push(feed_event(rec, &ctx, self.config, &self.segmenter));
            }
            members[ctx.nbhd as usize].push(gidx);
        }
        Ok((Strides::new(records, members), feed))
    }

    /// Builds the index server for neighborhood `n`, configured the same
    /// whichever driver asks (including the per-neighborhood placement RNG
    /// stream). Under a strategy that looks ahead it gets an empty
    /// [`ScheduleWindow`] over `costs`, and under one that remembers its
    /// past an empty [`HistoryWindow`], for the driver to feed.
    fn index(&self, n: usize) -> Result<IndexServer, SimError> {
        let config = self.config;
        let nominal = config.stream_rate() * config.segment_len();
        let id = NeighborhoodId::new(n as u32);
        let slots = (self.topo.config().per_peer_storage().as_bits() / nominal.as_bits()) as u32;
        let members: Vec<(PeerId, u32)> = self
            .topo
            .neighborhood(id)?
            .members()
            .iter()
            .map(|&p| (p, slots))
            .collect();
        // Give each neighborhood's random placement its own stream.
        let placement = match config.placement() {
            PlacementPolicy::Random { seed } => PlacementPolicy::Random {
                seed: seed ^ ((n as u64) << 32),
            },
            other => other,
        };
        let ledger = SlotLedger::new(members, placement);
        let fetch = self.strategy.fetch_model();
        let strategy = self.strategy.build(StrategyContext {
            capacity_slots: ledger.total_slots(),
            home: id,
            schedule: self
                .costs
                .as_ref()
                .map(|costs| ScheduleWindow::new(Arc::clone(costs))),
            history: self.strategy.history_window().map(|_| HistoryWindow::new()),
        })?;
        let mut index = IndexServer::with_replication(
            id,
            strategy,
            self.segmenter,
            ledger,
            config.replication(),
        );
        if let Some(fetch) = fetch {
            index = index.with_fetch_model(fetch);
        }
        if let Some(fill) = config.fill_override() {
            index.set_fill_policy(fill);
        }
        Ok(index)
    }

    /// The one place a [`SessionDriver`] is built: the driver owning
    /// neighborhood `n` — its index server, its [`Plant`] and (inside
    /// [`SessionDriver::new`]) its admission control — around `supply`.
    /// Here too the index's ledger is checked against the plant's boxes
    /// once, so that every copy reaches its box by its ledger index
    /// ([`IndexServer::check_plant`]).
    fn driver<R: RecordSupply>(
        &self,
        n: usize,
        supply: R,
    ) -> Result<SessionDriver<'a, R>, SimError> {
        let index = self.index(n)?;
        let plant = Plant::over(self.topo, NeighborhoodId::new(n as u32))?;
        index.check_plant(&plant)?;
        Ok(SessionDriver::new(
            supply,
            plant,
            index,
            self.strategy.history_window(),
            self.config,
            self.segmenter,
        ))
    }
}

/// The chunk runs that together hold every record of the source, each
/// gidx-ascending (what the blocked replay's decoder and its look-ahead
/// read): one run over all chunks for time-major sources,
/// one run per placement cell for neighborhood-major sources (any group
/// size — a sequence-number merge restores global order).
fn serial_runs<S: TraceSource + ?Sized>(source: &S) -> Vec<Vec<u32>> {
    match source.neighborhood_layout() {
        Some(layout) => layout.runs.iter().flatten().cloned().collect(),
        None => vec![(0..source.chunk_count() as u32).collect()],
    }
}

/// How a streaming replay's shards get their records — decided by what
/// the engine can observe (does the file's grouping match the plant, does
/// the strategy take the feed), never by an option or the worker count.
enum Replay {
    /// The caller's thread decodes these runs ([`serial_runs`]) once, in
    /// global order, publishes centrally and demultiplexes into
    /// per-neighborhood runs (`stream::Block`).
    Blocked(Vec<Vec<u32>>),
    /// The sweep fast path ([`fastpath_layout`]): shard `n` merges the
    /// gidx-sorted chunk runs listed for it, decoding them itself.
    Runs(Vec<Vec<Vec<u32>>>),
}

/// Plans a streaming replay.
///
/// * **Matched neighborhood-major source under a feed-less strategy**
///   ([`fastpath_layout`]): each shard gets exactly its group's chunks
///   straight from the file's chunk index and runs as an independent job.
/// * **Everything else** — a time-major source, a neighborhood-major one
///   whose grouping disagrees with the plant, or any file under a
///   strategy that takes the feed: the blocked replay.
///
/// Either way there is no pre-pass and no filtering, and each chunk is
/// decoded once for the whole run — twice under a strategy that looks
/// ahead, whose future is read off the same runs by a second cursor, and
/// a second time, as far as the history window's edge has come, under one
/// that remembers its past.
fn shard_plans<S: TraceSource + ?Sized>(
    source: &S,
    config: &SimConfig,
    nbhd_count: usize,
    strategy: &dyn StrategyFactory,
) -> Replay {
    match fastpath_layout(source, config, nbhd_count, strategy) {
        Some(layout) => Replay::Runs(layout.runs.clone()),
        None => Replay::Blocked(serial_runs(source)),
    }
}
