//! Report assembly: folding what every driver of a run hands back — its
//! neighborhood range's meters and counters — into a [`SimReport`],
//! identically whichever drivers produced them.

use cablevod_cache::IndexStats;
use cablevod_hfc::coax::CoaxNetwork;
use cablevod_hfc::meter::{RateMeter, RateStats, PEAK_END_HOUR, PEAK_START_HOUR};

use super::lifecycle::EngineCounters;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::report::{DegradationReport, NeighborhoodDegradation, SimReport};

/// What one driver hands back for the deterministic fold: the end state
/// of its neighborhood range.
pub(super) struct RangeOutcome {
    /// The range's coax networks, in neighborhood order.
    pub(super) coax: Vec<CoaxNetwork>,
    /// What the central server streamed to the range.
    pub(super) server: RateMeter,
    /// The range's index servers' counters, summed.
    pub(super) stats: IndexStats,
    pub(super) counters: EngineCounters,
    /// The range's degradation section, `None` exactly when admission
    /// control was inactive (default counting admission over an empty
    /// fault plan).
    pub(super) degradation: Option<DegradationReport>,
}

/// The conservation laws a run can be held to without its trace, asserted
/// on every report a debug build assembles — so every test checks them on
/// every driver, strategy and fault plan. `broadcasts` and `coax_bits` are
/// the plant's own tallies over every coax network. Release builds compile
/// this away.
fn debug_assert_conserved(report: &SimReport, broadcasts: u64, coax_bits: u64) {
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
    debug_assert_eq!(
        broadcasts, report.segment_requests,
        "the segment crosses the coax either way (§VI-B)"
    );
    debug_assert!(
        report.server_total.as_bits() <= coax_bits,
        "the server streamed {} bits, the coax carried {coax_bits}: every miss is also a broadcast",
        report.server_total.as_bits()
    );
}

/// Folds the outcomes of a run's drivers, in neighborhood order and
/// together covering every neighborhood — one whole-plant outcome, or one
/// per shard — into the run's report. Bit-exact whichever it is: the
/// server meter folds with [`RateMeter::merge`] (commutative bucket
/// accounting), cache counters fold with `IndexStats + IndexStats`, and
/// coax statistics are collected in neighborhood order. `days` is the
/// source's accounting horizon.
pub(super) fn merge_outcomes(
    outcomes: impl IntoIterator<Item = Result<RangeOutcome, SimError>>,
    days: u64,
    config: &SimConfig,
) -> Result<SimReport, SimError> {
    let days = days.max(1);
    let warmup = config.warmup_days().min(days - 1);
    let mut server = RateMeter::hourly();
    let mut coax_samples = Vec::new();
    let mut coax_per_neighborhood = Vec::new();
    let (mut broadcasts, mut coax_bits) = (0, 0);
    let mut cache = IndexStats::default();
    let mut counters = EngineCounters::default();
    // Drivers agree on whether admission control ran (it is a pure function
    // of the shared config), so this is `Some` for all of them or none.
    let mut degradation: Option<(Vec<NeighborhoodDegradation>, Vec<u64>)> = None;
    for outcome in outcomes {
        let range = outcome?;
        server.merge(&range.server);
        if let Some(deg) = range.degradation {
            let (nbhds, hist) = degradation.get_or_insert_with(|| (Vec::new(), Vec::new()));
            nbhds.extend(deg.per_neighborhood);
            if hist.len() < deg.retry_histogram.len() {
                hist.resize(deg.retry_histogram.len(), 0);
            }
            for (slot, count) in hist.iter_mut().zip(&deg.retry_histogram) {
                *slot += count;
            }
        }
        for coax in &range.coax {
            coax_per_neighborhood.push(coax.peak_stats(warmup, days).mean);
            coax_samples.extend(coax.meter().window_samples(
                warmup,
                days,
                PEAK_START_HOUR,
                PEAK_END_HOUR,
            ));
            broadcasts += coax.broadcasts();
            coax_bits += coax.total().as_bits();
        }
        cache += range.stats;
        counters.absorb(range.counters);
    }
    let report = SimReport {
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
    };
    debug_assert_conserved(&report, broadcasts, coax_bits);
    Ok(report)
}
