//! Report assembly: turning a completed run's meters and counters into a
//! [`SimReport`], identically whichever driver produced them.

use cablevod_cache::{IndexServer, IndexStats};
use cablevod_hfc::meter::{RateMeter, RateStats, PEAK_END_HOUR, PEAK_START_HOUR};
use cablevod_hfc::topology::Topology;

use super::lifecycle::EngineCounters;
use super::shard::ShardOutcome;
use crate::error::SimError;
use crate::report::{DegradationReport, NeighborhoodDegradation, SimReport};

/// The conservation laws a report can be held to without its trace,
/// asserted on every report a debug build assembles — so every test
/// checks them on every driver, strategy and fault plan. Release builds
/// compile this away.
fn debug_assert_conserved(report: SimReport) -> SimReport {
    let cache = &report.cache;
    debug_assert_eq!(
        cache.requests(),
        report.segment_requests,
        "every segment request resolves to exactly one hit or miss"
    );
    debug_assert!(
        cache.evictions <= cache.admissions,
        "{} evictions of {} admissions",
        cache.evictions,
        cache.admissions
    );
    debug_assert!(
        cache.delayed_hits + cache.inflight_misses <= cache.misses(),
        "modeled fetches ({} delayed + {} in flight) exceed {} misses",
        cache.delayed_hits,
        cache.inflight_misses,
        cache.misses()
    );
    debug_assert_eq!(
        report.server_total.as_bits() == 0,
        cache.misses() == 0,
        "the central server serves bytes exactly when something misses"
    );
    report
}

/// Assembles the serial report from the whole-plant topology and indexes.
pub(super) fn assemble_serial_report(
    topo: &Topology,
    indexes: &[IndexServer],
    counters: EngineCounters,
    days: u64,
    warmup: u64,
    degradation: Option<DegradationReport>,
) -> SimReport {
    let server_peak = topo.server().peak_stats(warmup, days);
    let server_hourly = topo.server().meter().hourly_profile();
    let mut coax_samples = Vec::new();
    let mut coax_per_neighborhood = Vec::with_capacity(topo.neighborhood_count());
    for nbhd in topo.neighborhoods() {
        let stats = nbhd.coax().peak_stats(warmup, days);
        coax_per_neighborhood.push(stats.mean);
        coax_samples.extend(nbhd.coax().meter().window_samples(
            warmup,
            days,
            PEAK_START_HOUR,
            PEAK_END_HOUR,
        ));
    }
    let mut cache = IndexStats::default();
    for index in indexes {
        cache += *index.stats();
    }
    debug_assert_conserved(SimReport {
        server_peak,
        server_total: topo.server().total(),
        server_hourly,
        coax_peak: RateStats::from_samples(&coax_samples),
        coax_per_neighborhood,
        cache,
        sessions: counters.sessions,
        segment_requests: counters.segment_requests,
        viewer_overcommits: counters.viewer_overcommits,
        degradation,
        measured_from_day: warmup,
        measured_to_day: days,
    })
}

/// Merges shard outcomes, in neighborhood order, into the report the
/// serial engine would produce. Bit-exact: the server meter folds with
/// [`RateMeter::merge`] (commutative bucket accounting), cache counters
/// fold with `IndexStats + IndexStats`, and coax statistics are collected
/// in neighborhood order.
pub(super) fn merge_outcomes(
    outcomes: impl IntoIterator<Item = Result<ShardOutcome, SimError>>,
    days: u64,
    warmup: u64,
    nbhd_count: usize,
) -> Result<SimReport, SimError> {
    let mut server = RateMeter::hourly();
    let mut coax_samples = Vec::new();
    let mut coax_per_neighborhood = Vec::with_capacity(nbhd_count);
    let mut cache = IndexStats::default();
    let mut counters = EngineCounters::default();
    // Shards agree on whether admission control ran (it is a pure function
    // of the shared config), so this is `Some` for all shards or none.
    let mut degradation: Option<(Vec<NeighborhoodDegradation>, Vec<u64>)> = None;
    for outcome in outcomes {
        let shard = outcome?;
        server.merge(&shard.server);
        if let Some(deg) = shard.degradation {
            let (nbhds, hist) = degradation.get_or_insert_with(|| (Vec::new(), Vec::new()));
            nbhds.extend(deg.per_neighborhood);
            if hist.len() < deg.retry_histogram.len() {
                hist.resize(deg.retry_histogram.len(), 0);
            }
            for (slot, count) in hist.iter_mut().zip(&deg.retry_histogram) {
                *slot += count;
            }
        }
        let stats = shard.coax.peak_stats(warmup, days);
        coax_per_neighborhood.push(stats.mean);
        coax_samples.extend(shard.coax.meter().window_samples(
            warmup,
            days,
            PEAK_START_HOUR,
            PEAK_END_HOUR,
        ));
        cache += shard.stats;
        counters.absorb(shard.counters);
    }
    Ok(debug_assert_conserved(SimReport {
        server_peak: server.peak_stats(warmup, days),
        server_total: server.total(),
        server_hourly: server.hourly_profile(),
        coax_peak: RateStats::from_samples(&coax_samples),
        coax_per_neighborhood,
        cache,
        sessions: counters.sessions,
        segment_requests: counters.segment_requests,
        viewer_overcommits: counters.viewer_overcommits,
        degradation: degradation.map(|(nbhds, hist)| DegradationReport::from_parts(nbhds, hist)),
        measured_from_day: warmup,
        measured_to_day: days,
    }))
}
