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
//! # Architecture: one lifecycle, three seams, three thin drivers
//!
//! There is exactly **one** session-lifecycle implementation —
//! `lifecycle::SessionDriver` — and every entry point is a thin
//! composition of pluggable pieces around it:
//!
//! ```text
//!  run / run_parallel            (mod.rs, shard.rs — the three entry drivers)
//!  ───────────────────────────────────────────────────────────────────────
//!        │ compose
//!        ▼
//!  SessionDriver                 (lifecycle.rs — THE event loop: record/heap
//!        │                        interleave, session start, segment resolve)
//!        │ is generic over
//!        ├─► RecordSupply        (stream.rs — where sessions come from)
//!        │     ResidentSupply      resident slice (+ optional shard subset)
//!        │     BlockSupply         one neighborhood's run of each decoded,
//!        │                         demultiplexed block (time-major sources)
//!        │     StreamSupply        gidx-ordered merge over a shard's own
//!        │                         chunk runs (neighborhood-major sources)
//!        ├─► FeedProvider        (feed.rs glue; cablevod_cache::feed — how
//!        │     PrecomputedFeed     the global popularity feed is carried)
//!        │     SharedFeed          over GlobalFeed / WatermarkFeed
//!        └─► SegmentPlant        (lifecycle.rs, shard.rs — whose bytes get
//!              Topology            accounted: the whole plant, or)
//!              ShardPlant          (one neighborhood's isolated slice)
//!        │ its index servers are built from
//!        ▼
//!  ScheduleSource                (schedule.rs glue; cablevod_cache::schedule
//!        ResidentSchedules        — how the Oracle sees its future: resident
//!        SpilledSchedules           zero-copy windows, or bounded windows
//!                                   over the on-disk schedule sidecar)
//!  ───────────────────────────────────────────────────────────────────────
//!        │ results flow into
//!        ▼
//!  report.rs                     (assemble_serial_report / merge_outcomes —
//!                                 bit-exact fold of meters and counters)
//! ```
//!
//! The three drivers pick one of each. The source decides between resident
//! and streaming, and — for streaming — its chunk layout decides the
//! supply; the worker count (`run` is one worker, `run_parallel(n)` is
//! `n`) never picks an algorithm on a streaming source:
//!
//! | driver             | supply                          | feed              | plant        | scheduling                        |
//! |--------------------|---------------------------------|-------------------|--------------|-----------------------------------|
//! | serial resident    | `ResidentSupply` (all)          | `PrecomputedFeed` | `Topology`   | inline, one global event heap     |
//! | sharded resident   | `ResidentSupply` (subset)       | `PrecomputedFeed` | `ShardPlant` | work-stealing pool                |
//! | streaming          | `BlockSupply` (time-major)      | `SharedFeed`      | `ShardPlant` | cooperative tasks, parked at block edges |
//! |                    | `StreamSupply` (neighborhood-major) | `SharedFeed`  | `ShardPlant` | cooperative tasks, parked on the feed frontier |
//!
//! # Trace layouts and decode work
//!
//! Chunked sources come in two layouts (see [`cablevod_trace::columnar`]),
//! and a streaming replay is sharded per neighborhood over either:
//!
//! * **Time-major** chunks partition the global order. The replay is
//!   *neighborhood-blocked*: the caller's thread decodes each chunk
//!   **once**, computes the records' contexts, publishes the block's feed
//!   events and advances the watermark past the block, and sorts the
//!   block's record positions by neighborhood; then every shard runs
//!   through its own run of the block and on to — strictly before — the
//!   block's last start time, and carries its continuation heap into the
//!   next block (records sort ahead of continuations at an equal second,
//!   and the next block may start at that very second). A neighborhood's
//!   sessions are thus replayed a block's worth at a stretch against its
//!   own working set, instead of one global heap hopping between all of
//!   them, and decode work is one pass over the file at any worker count.
//! * A **neighborhood-major** file (re-chunked at import,
//!   [`cablevod_trace::rechunk`]) groups each chunk under one neighborhood
//!   and carries a per-neighborhood chunk index plus per-record global
//!   sequence numbers. When its neighborhood size matches, each shard is
//!   handed exactly its own chunks and streams them end to end — each
//!   chunk again decoded once per run, with no pre-pass scan for
//!   non-Oracle strategies. At a *different* neighborhood size one
//!   pre-pass prunes, per shard, the chunk runs holding its records, and
//!   each shard replays those through `stream::StreamSupply`'s filtered
//!   sequence-number merge, so every layout stays replayable at every
//!   size.
//!
//! Counter-based tests enforce both decode-once claims.
//!
//! # Watermark-ordered global feeds
//!
//! Serial feed exactness: the serial engine publishes the feed one record
//! at a time, so at record `r` a strategy can only ever see events
//! `0..=r`. The resident drivers reproduce that bound against a feed
//! precomputed in full; the streaming driver publishes into a shared
//! [`WatermarkFeed`](cablevod_cache::WatermarkFeed) and bounds every
//! consumer by its own record index, so an early-published event is never
//! visible early. Who publishes follows the layout. The blocked replay
//! has **one** producer — the decoding thread publishes a whole block and
//! moves its watermark past it before any shard runs, so shards never
//! wait on one another. Shards that decode their own chunk runs each
//! publish their own records' events as they stage them — chunk-at-a-time
//! on single-run supplies, record-at-a-time on merges (see `stream.rs`) —
//! and a shard about to start the session with global index `g` first
//! waits until the cross-shard minimum watermark (the *frontier*) passes
//! `g`, then consumes events `0..=g` exactly like the serial engine.
//!
//! Frontier liveness: among parked shards, the one waiting at the globally
//! smallest record index `g` needs every other shard's watermark above
//! `g`; every other parked shard's watermark is past its own staged head,
//! which is at a larger index, exhausted shards sit at `u64::MAX`, and
//! running shards advance in bounded time — so some shard can always
//! proceed, at any worker count (shards are cooperative tasks multiplexed
//! onto workers, parked when blocked). Feed memory stays bounded by
//! consumption, not trace length: every sync reports the strategy's
//! cursor back and the carrier reclaims fully consumed segments (see
//! [`cablevod_cache::watermark`]).
//!
//! Idle-neighborhood retention: a neighborhood between (or without)
//! sessions never syncs on its own — its stalled cursor would floor the
//! carrier's reclamation and pin the whole retained window. The blocked
//! replay therefore runs an **idle sweep** at every block's end: each
//! shard, parked at the edge, syncs its index against the published
//! prefix, which consumes exactly what the neighborhood's next session
//! would consume first anyway (so results stay bit-identical) and keeps
//! live feed slots O(block + visibility lag), not O(trace). (The serial
//! online engine, one driver answering for every neighborhood, paces the
//! same sweep by records instead — see `lifecycle.rs`.)
//!
//! # Windowed Oracle schedules
//!
//! Oracle is inherently offline — it needs the whole future — but the
//! future no longer needs to be resident. Streaming runs spill the
//! per-neighborhood `(time, program)` schedules to an on-disk **schedule
//! sidecar** ([`cablevod_trace::schedule`]) during the single pre-pass
//! scan they already perform (matched neighborhood-major sources scan
//! run by run; everything else merges to global time order), then replay
//! them through [`ScheduleWindow`]s whose resident state is bounded by
//! the look-ahead span plus one sidecar chunk. Resident runs keep
//! zero-copy windows over in-memory [`AccessSchedule`]s — the hot path
//! is untouched. Either carrier feeds the Oracle the identical event
//! sequence, so reports stay bit-identical (see the `schedule` submodule).
//!
//! Whichever path runs, the report is **bit-identical** — property tests
//! enforce `run == run_parallel == streaming run == streaming
//! run_parallel` across strategies, chunk sizes, chunk layouts and shard
//! counts.

mod fault;
mod feed;
mod lifecycle;
pub mod online;
mod report;
mod schedule;
mod shard;
mod stream;

#[cfg(test)]
mod tests;

use std::sync::Arc;

use cablevod_cache::{
    AccessSchedule, IndexServer, PlacementPolicy, ScheduleWindow, SlotLedger, StrategyContext,
    StrategyFactory,
};
use cablevod_hfc::ids::{NeighborhoodId, PeerId, ProgramId};
use cablevod_hfc::segment::Segmenter;
use cablevod_hfc::topology::{Topology, TopologyConfig};
use cablevod_hfc::units::SimTime;
use cablevod_trace::catalog::ProgramCatalog;
use cablevod_trace::record::SessionRecord;
use cablevod_trace::source::TraceSource;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::report::SimReport;

use fault::FaultingPlant;
use feed::build_feed;
use lifecycle::{session_ctx, SessionCtx, SessionDriver, UserMap};
use report::assemble_serial_report;
use schedule::{scan_runs, spill_from_scan, ScheduleSupply, SidecarSpill};
use stream::ResidentSupply;

/// Runs one simulation of the workload in `source` under `config` and
/// returns the measured report.
///
/// A two-line shorthand: it hands the config's own strategy factory to
/// the driver the [`Simulation`](crate::Simulation) builder composes, so
/// `Simulation::over(source).config(config.clone()).run()?.report` is
/// the same report, with telemetry beside it. Public because callers
/// that want only the report (the repo benchmark's reference runs, most
/// tests) say it shorter this way.
///
/// This is the one-worker path. A resident
/// [`Trace`](cablevod_trace::record::Trace) takes the serial reference
/// driver — one global event heap against the whole plant, over the
/// classic precomputed hot path. Chunked sources (an on-disk
/// [`ColumnarReader`](cablevod_trace::columnar::ColumnarReader) in either
/// chunk layout, a [`ChunkedTrace`](cablevod_trace::source::ChunkedTrace))
/// stream through the engine with bounded resident memory, sharded per
/// neighborhood on the caller's thread (see the module docs). All produce
/// bit-identical reports; [`run_parallel`] matches them too.
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
    run_with(source, config, config.strategy().factory().as_ref())
}

/// [`run`] with an explicit strategy factory — the entry the
/// [`Simulation`](crate::Simulation) builder uses so registry-resolved
/// (out-of-tree) strategies ride the same drivers as the built-ins.
pub(crate) fn run_with<S: TraceSource + ?Sized>(
    source: &S,
    config: &SimConfig,
    strategy: &dyn StrategyFactory,
) -> Result<SimReport, SimError> {
    check_record_count(source)?;
    match source.resident_records() {
        Some(records) => run_resident(records, source, config, strategy),
        None => shard::run_streaming(source, config, strategy, 1),
    }
}

/// Runs one simulation sharded per neighborhood over `threads` workers,
/// producing a report **bit-identical** to [`run`]'s — the same shorthand
/// as [`run`], for `Simulation::over(source).config(..).threads(threads)`.
///
/// Correctness rests on the paper's own isolation structure — see the
/// module docs; thread count affects wall-clock only, never results (and,
/// over a streaming source, not the replay plan either: `run` is this
/// with one worker).
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
/// use cablevod_sim::{run, run_parallel, SimConfig};
/// use cablevod_trace::synth::{generate, SynthConfig};
///
/// let trace = generate(&SynthConfig { users: 300, programs: 60, days: 3,
///     ..SynthConfig::smoke_test() });
/// let config = SimConfig::paper_default().with_neighborhood_size(100).with_warmup_days(1);
/// assert_eq!(run_parallel(&trace, &config, 4)?, run(&trace, &config)?);
/// # Ok::<(), cablevod_sim::SimError>(())
/// ```
pub fn run_parallel<S: TraceSource + ?Sized>(
    source: &S,
    config: &SimConfig,
    threads: usize,
) -> Result<SimReport, SimError> {
    run_parallel_with(
        source,
        config,
        config.strategy().factory().as_ref(),
        threads,
    )
}

/// [`run_parallel`] with an explicit strategy factory (see [`run_with`]).
pub(crate) fn run_parallel_with<S: TraceSource + ?Sized>(
    source: &S,
    config: &SimConfig,
    strategy: &dyn StrategyFactory,
    threads: usize,
) -> Result<SimReport, SimError> {
    check_record_count(source)?;
    match source.resident_records() {
        Some(records) => shard::run_parallel_resident(records, source, config, strategy, threads),
        None => shard::run_streaming(source, config, strategy, threads),
    }
}

/// The source's chunk-index layout for `config`'s neighborhood size, if
/// it covers all `nbhd_count` groups — the **sweep fast path**: streaming
/// replays read each shard's cell runs straight from the index (no
/// pre-pass scan, no filtering) and Oracle spills can skip the global
/// merge when every group is a single run.
fn fastpath_layout<'s, S: TraceSource + ?Sized>(
    source: &'s S,
    config: &SimConfig,
    nbhd_count: usize,
) -> Option<&'s cablevod_trace::source::NeighborhoodLayout> {
    source
        .neighborhood_layout_for(config.neighborhood_size())
        .filter(|layout| layout.group_count() == nbhd_count)
}

/// Whether a streaming replay of `source` under `config` hits the sweep
/// fast path (see [`fastpath_layout`]; the neighborhood count mirrors
/// [`Topology::build`]'s `ceil(users / size)`). Surfaced by the
/// [`Simulation`](crate::Simulation) builder as
/// [`RunTelemetry::fastpath`](crate::RunTelemetry).
pub(crate) fn streaming_fastpath<S: TraceSource + ?Sized>(source: &S, config: &SimConfig) -> bool {
    let nbhd_count = u64::from(source.user_count())
        .div_ceil(u64::from(config.neighborhood_size().max(1)))
        .max(1) as usize;
    fastpath_layout(source, config, nbhd_count).is_some()
}

/// Session indices ride in `u32` heap entries on every path (resident and
/// streaming), so traces beyond 2^32 records are rejected up front rather
/// than silently wrapping.
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

/// Builds the plant for a subscriber count with no trace in hand (the
/// online tier knows its population from an [`online::OnlineSpec`], not
/// a source).
fn build_topology_for(users: u32, config: &SimConfig) -> Result<Topology, SimError> {
    Ok(Topology::build(
        TopologyConfig::new(users, config.neighborhood_size())
            .with_per_peer_storage(config.per_peer_storage())
            .with_stream_slots(config.stream_slots())
            .with_coax_spec(*config.coax_spec()),
    )?)
}

/// Precomputes the per-session context table (one pass; resident paths
/// only — streaming paths compute contexts at ingestion).
fn precompute_sessions(
    records: &[SessionRecord],
    catalog: &ProgramCatalog,
    users: &UserMap,
    segmenter: &Segmenter,
) -> Result<Vec<SessionCtx>, SimError> {
    let seg_len = segmenter.segment_len().as_secs();
    records
        .iter()
        .map(|rec| session_ctx(rec, catalog, users, seg_len))
        .collect()
}

/// Program slot costs, indexed by program — what Oracle schedules charge.
fn schedule_costs(catalog: &ProgramCatalog, config: &SimConfig, segmenter: &Segmenter) -> Vec<u32> {
    catalog
        .iter()
        .map(|(_, info)| {
            u32::from(segmenter.segment_count(info.length)) * u32::from(config.replication())
        })
        .collect()
}

/// Builds the per-neighborhood Oracle schedules from per-neighborhood
/// event lists.
fn schedules_from_events(
    per_nbhd: Vec<Vec<(SimTime, ProgramId)>>,
    costs: &[u32],
) -> Vec<Option<Arc<AccessSchedule>>> {
    per_nbhd
        .into_iter()
        .map(|events| {
            Some(Arc::new(AccessSchedule::from_events(
                events,
                costs.to_vec(),
            )))
        })
        .collect()
}

/// Builds the per-neighborhood Oracle schedules from a resident record
/// slice (a no-schedule supply for strategies that do not need them).
/// The scan walks the records in trace order, so each neighborhood's
/// event list arrives pre-sorted and
/// [`AccessSchedule::from_events`] skips its sort.
fn build_schedules(
    records: &[SessionRecord],
    catalog: &ProgramCatalog,
    topo: &Topology,
    config: &SimConfig,
    segmenter: &Segmenter,
    strategy: &dyn StrategyFactory,
) -> Result<ScheduleSupply, SimError> {
    if !strategy.needs_schedule() {
        return Ok(ScheduleSupply::none(topo.neighborhood_count()));
    }
    let mut per_nbhd: Vec<Vec<(SimTime, ProgramId)>> = vec![Vec::new(); topo.neighborhood_count()];
    for r in records {
        let nbhd = topo.neighborhood_of_user(r.user)?;
        per_nbhd[nbhd.index()].push((r.start, r.program));
    }
    let costs = schedule_costs(catalog, config, segmenter);
    Ok(ScheduleSupply::Resident(
        cablevod_cache::ResidentSchedules::new(schedules_from_events(per_nbhd, &costs)),
    ))
}

/// Builds the index server for neighborhood `n`. Shared by every driver so
/// shard-local caches are configured exactly like serial ones (including
/// the per-neighborhood placement RNG stream).
fn build_index(
    n: usize,
    topo: &Topology,
    config: &SimConfig,
    segmenter: &Segmenter,
    schedule: Option<ScheduleWindow>,
    strategy: &dyn StrategyFactory,
) -> Result<IndexServer, SimError> {
    let nominal = config.stream_rate() * config.segment_len();
    let id = NeighborhoodId::new(n as u32);
    let members: Vec<(PeerId, u32)> = topo
        .neighborhood(id)?
        .members()
        .iter()
        .map(|&p| {
            Ok::<_, SimError>((
                p,
                (topo.stb(p)?.capacity().as_bits() / nominal.as_bits()) as u32,
            ))
        })
        .collect::<Result<_, _>>()?;
    // Give each neighborhood's random placement its own stream.
    let placement = match config.placement() {
        PlacementPolicy::Random { seed } => PlacementPolicy::Random {
            seed: seed ^ ((n as u64) << 32),
        },
        other => other,
    };
    let ledger = SlotLedger::new(members, placement);
    let fetch = strategy.fetch_model();
    let strategy = strategy.build(StrategyContext {
        capacity_slots: ledger.total_slots(),
        home: id,
        schedule,
    })?;
    let mut index =
        IndexServer::with_replication(id, strategy, *segmenter, ledger, config.replication());
    if let Some(fetch) = fetch {
        index = index.with_fetch_model(fetch);
    }
    if let Some(fill) = config.fill_override() {
        index.set_fill_policy(fill);
    }
    Ok(index)
}

/// Builds every neighborhood's index server from a schedule supply.
fn build_indexes(
    topo: &Topology,
    config: &SimConfig,
    segmenter: &Segmenter,
    schedules: &ScheduleSupply,
    strategy: &dyn StrategyFactory,
) -> Result<Vec<IndexServer>, SimError> {
    (0..topo.neighborhood_count())
        .map(|n| build_index(n, topo, config, segmenter, schedules.window(n)?, strategy))
        .collect()
}

/// The classic serial driver over a fully resident record slice:
/// precomputed contexts, schedules and feed; whole-plant accounting.
fn run_resident<S: TraceSource + ?Sized>(
    records: &[SessionRecord],
    source: &S,
    config: &SimConfig,
    strategy: &dyn StrategyFactory,
) -> Result<SimReport, SimError> {
    config.validate()?;
    let segmenter = Segmenter::new(config.segment_len(), config.stream_rate());
    let catalog = source.catalog();

    let mut topo = build_topology(source, config)?;
    let users = UserMap::from_topology(&topo);
    let ctxs = precompute_sessions(records, catalog, &users, &segmenter)?;
    let schedules = build_schedules(records, catalog, &topo, config, &segmenter, strategy)?;
    let feed = build_feed(records, &ctxs, config, &segmenter, strategy);
    let indexes = build_indexes(&topo, config, &segmenter, &schedules, strategy)?;

    let supply = ResidentSupply::new(records, &ctxs, None);
    let provider = feed.as_ref().map(cablevod_cache::PrecomputedFeed::new);
    let nbhd_count = topo.neighborhood_count();
    let plant = FaultingPlant::new(&mut topo, config, 0, nbhd_count);
    let mut driver =
        SessionDriver::new(supply, provider, plant, indexes, 0, config, segmenter, None);
    driver.run()?;
    let (plant, indexes, counters) = driver.into_parts();
    let (_, degradation) = plant.into_parts();

    let days = source.days().max(1);
    let warmup = config.warmup_days().min(days - 1);
    Ok(assemble_serial_report(
        &topo,
        &indexes,
        counters,
        days,
        warmup,
        degradation,
    ))
}

/// The chunk runs a whole-source scan visits (the Oracle schedule spill,
/// the mismatched-layout pre-pass): one run over all chunks for
/// time-major sources, one run per placement cell for neighborhood-major
/// sources (any group size — each cell run is gidx-ascending and a
/// sequence-number merge restores global order).
fn serial_runs<S: TraceSource + ?Sized>(source: &S) -> Vec<Vec<u32>> {
    match source.neighborhood_layout() {
        Some(layout) => layout.runs.iter().flatten().cloned().collect(),
        None => vec![(0..source.chunk_count() as u32).collect()],
    }
}

/// How a streaming replay's shards get their records — decided by the
/// source's chunk layout alone, never by the worker count.
enum Replay {
    /// Time-major source: each chunk is decoded once, centrally, and
    /// demultiplexed into per-neighborhood runs (`stream::Block`).
    Blocked,
    /// Neighborhood-major source: shard `n` merges the gidx-sorted chunk
    /// runs `runs[n]`, decoding them itself.
    Runs {
        runs: Vec<Vec<Vec<u32>>>,
        /// Whether chunks can contain foreign records (false on the
        /// matched fast path, where a chunk's records all belong to its
        /// one shard).
        filtered: bool,
    },
}

/// The one streaming plan: how shards are supplied, and the Oracle
/// schedule supply (when the strategy needs one).
struct StreamPlan {
    replay: Replay,
    schedules: ScheduleSupply,
}

/// Plans a streaming replay.
///
/// * **Time-major source**: the blocked replay — no pre-pass, no
///   filtering, each chunk decoded once for the whole run.
/// * **Matched neighborhood-major source** (its group size equals the
///   configured neighborhood size): each shard gets exactly its group's
///   chunks straight from the file's chunk index — again no pre-pass, no
///   filtering, each chunk decoded once for the whole run.
/// * **Mismatched neighborhood-major source**: one streaming pre-pass
///   builds, per shard, the pruned chunk runs holding at least one of
///   its records (one run per source group, so each run stays
///   gidx-sorted even though the source's grouping disagrees with the
///   configured neighborhood size).
///
/// Oracle schedules are spilled straight to the windowed on-disk sidecar
/// (see [`schedule`]) by one counted scan — the mismatched pre-pass when
/// there is one, a scan of their own otherwise; no scan holds per-record
/// state in memory.
fn shard_plans<S: TraceSource + ?Sized>(
    source: &S,
    topo: &Topology,
    config: &SimConfig,
    segmenter: &Segmenter,
    strategy: &dyn StrategyFactory,
) -> Result<StreamPlan, SimError> {
    let nbhd_count = topo.neighborhood_count();
    let needs_schedule = strategy.needs_schedule();

    let matched = fastpath_layout(source, config, nbhd_count);
    if matched.is_some() || source.neighborhood_layout().is_none() {
        let replay = match matched {
            // Each shard merges its group's cell runs straight from the
            // file's chunk index (a single-index file has one run per
            // group; a multi-index file may have several, one per
            // placement cell).
            Some(layout) => Replay::Runs {
                runs: layout.runs.clone(),
                filtered: false,
            },
            None => Replay::Blocked,
        };
        let schedules = if needs_schedule {
            ScheduleSupply::Spilled(spill_from_scan(source, topo, config, segmenter)?)
        } else {
            ScheduleSupply::none(nbhd_count)
        };
        return Ok(StreamPlan { replay, schedules });
    }

    let group_lists = serial_runs(source);
    let mut shard_runs: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); group_lists.len()]; nbhd_count];
    let schedules = if needs_schedule {
        // One merged-order scan builds the pruned chunk runs AND spills
        // the schedules (the sidecar needs per-neighborhood time order,
        // which only the merge provides when the source's grouping
        // disagrees with the configured neighborhood size).
        let costs = schedule_costs(source.catalog(), config, segmenter);
        let mut spill = SidecarSpill::create(nbhd_count, costs)?;
        scan_runs(source, &group_lists, true, |g, chunk, rec| {
            let n = topo.neighborhood_of_user(rec.user)?.index();
            if shard_runs[n][g].last() != Some(&chunk) {
                shard_runs[n][g].push(chunk);
            }
            spill.push(n as u32, rec.start, rec.program)
        })?;
        ScheduleSupply::Spilled(spill.into_schedules()?)
    } else {
        let mut buf = Vec::new();
        let mut seen = vec![u32::MAX; nbhd_count];
        for (g, chunks) in group_lists.iter().enumerate() {
            for &chunk in chunks {
                source.read_chunk(chunk as usize, &mut buf)?;
                for r in &buf {
                    let n = topo.neighborhood_of_user(r.user)?.index();
                    if seen[n] != chunk {
                        seen[n] = chunk;
                        shard_runs[n][g].push(chunk);
                    }
                }
            }
        }
        ScheduleSupply::none(nbhd_count)
    };
    for runs in &mut shard_runs {
        runs.retain(|run| !run.is_empty());
    }
    Ok(StreamPlan {
        replay: Replay::Runs {
            runs: shard_runs,
            filtered: true,
        },
        schedules,
    })
}
