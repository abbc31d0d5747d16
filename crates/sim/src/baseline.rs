//! Non-cooperative baselines.
//!
//! * [`no_cache_peak`] — the centralized service the
//!   paper draws as the 17 Gb/s reference line in Fig 15: every session is
//!   served by the central server. Computed analytically from the trace
//!   (no simulation needed — there is no contention to model).
//! * [`headend_config`] — §VI-B's "more centralized approach": a proxy
//!   cache of the same total capacity located *at the headend*. On a
//!   broadcast coax this is behaviorally the peer cache without the
//!   per-STB stream-slot limit, so it is expressed as a config transform
//!   and run through the same engine (experiment E-M2).

use cablevod_hfc::meter::{RateMeter, RateStats};
use cablevod_hfc::units::BitRate;
use cablevod_trace::record::Trace;

use crate::config::SimConfig;

/// Peak-window (7–11 PM) statistics of the no-cache server load over the
/// measured day range — the paper's "with no cache, central servers must
/// support 17 Gb/s".
pub fn no_cache_peak(trace: &Trace, rate: BitRate, from_day: u64, to_day: u64) -> RateStats {
    let mut meter = RateMeter::hourly();
    for r in trace.iter() {
        let length = trace.catalog().length(r.program).unwrap_or(r.duration);
        let watched = r.watched(length);
        meter.record(r.start, r.start + watched, rate * watched);
    }
    meter.peak_stats(from_day, to_day)
}

/// Transforms a peer-cache configuration into its headend-cache
/// equivalent: identical total capacity, no per-peer stream-slot limits
/// (a headend server is not slot-bound), same strategy.
///
/// The difference between `run(trace, config)` and
/// `run(trace, headend_config(config))` isolates exactly the cost of the
/// paper's 2-streams-per-STB constraint; coax load is identical by the
/// broadcast argument of §VI-B.
pub fn headend_config(config: &SimConfig) -> SimConfig {
    config.clone().with_stream_slots(u8::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use cablevod_hfc::units::DataSize;
    use cablevod_trace::synth::{generate, SynthConfig};

    fn small_trace() -> Trace {
        generate(&SynthConfig {
            users: 600,
            programs: 150,
            days: 6,
            ..SynthConfig::smoke_test()
        })
    }

    #[test]
    fn no_cache_peak_matches_engine_no_cache_run() {
        let trace = small_trace();
        let analytic = no_cache_peak(&trace, BitRate::STREAM_MPEG2_SD, 2, trace.days());
        let config = SimConfig::paper_default()
            .with_neighborhood_size(200)
            .with_strategy(cablevod_cache::StrategySpec::NoCache)
            .with_warmup_days(2);
        let simulated = run(&trace, &config).expect("runs");
        assert_eq!(analytic.mean, simulated.server_peak.mean);
        assert_eq!(analytic.q95, simulated.server_peak.q95);
    }

    #[test]
    fn headend_cache_never_does_worse_than_peer_cache() {
        let trace = small_trace();
        let peer_cfg = SimConfig::paper_default()
            .with_neighborhood_size(200)
            .with_per_peer_storage(DataSize::from_gigabytes(2))
            .with_warmup_days(2);
        let peer = run(&trace, &peer_cfg).expect("runs");
        let headend = run(&trace, &headend_config(&peer_cfg)).expect("runs");
        assert!(
            headend.server_total <= peer.server_total,
            "removing the slot limit cannot increase misses"
        );
        assert_eq!(headend.cache.miss_peer_busy, 0);
        // Broadcast coax: identical traffic either way.
        assert_eq!(headend.coax_peak.mean, peer.coax_peak.mean);
    }
}
