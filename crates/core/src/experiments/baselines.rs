//! Architectural comparison: §IV-A quantified (multicast). §VI-B's
//! centralization argument (headend cache) is a sweep:
//! `scenarios/paper/headend.scn`.

use cablevod_cache::FillPolicy;
use cablevod_hfc::units::{BitRate, SimDuration};
use cablevod_sim::{baseline, multicast, run, SimConfig, SimError};
use cablevod_trace::analyze;
use cablevod_trace::record::Trace;

use crate::experiments::default_warmup;
use crate::figure::{Figure, FigureRow};

/// E-M1 — why not multicast, quantified. Compares, on the identical
/// trace: unicast (no cache), an *ideal* multicast lower bound (each
/// program streamed at most once concurrently, free sharing), a realistic
/// batching/patching multicast, and the paper's cooperative cache.
///
/// The paper's §IV-A argument is that skewed popularity and short sessions
/// starve multicast of sharing opportunities; the sharing factor and
/// mid-stream departure statistics reported in the notes make that
/// concrete.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn multicast_comparison(trace: &Trace) -> Result<Figure, SimError> {
    let mut fig = Figure::new(
        "multicast",
        "Why not multicast: server load by architecture (same trace)",
        "Architecture",
        "Average server rate, peak hours (Gb/s)",
    );
    let warmup = default_warmup(trace);
    let rate = BitRate::STREAM_MPEG2_SD;

    let unicast = baseline::no_cache_peak(trace, rate, warmup, trace.days());
    fig.push(FigureRow::with_bars(
        "server load",
        "unicast (no cache)",
        unicast.mean.as_gbps(),
        unicast.q05.as_gbps(),
        unicast.q95.as_gbps(),
    ));

    let batched = multicast::batched_multicast_peak(
        trace,
        rate,
        SimDuration::from_minutes(10),
        warmup,
        trace.days(),
    );
    fig.push(FigureRow::with_bars(
        "server load",
        "batching multicast (10 min window)",
        batched.server_peak.mean.as_gbps(),
        batched.server_peak.q05.as_gbps(),
        batched.server_peak.q95.as_gbps(),
    ));

    let ideal = multicast::ideal_multicast_peak(trace, rate, warmup, trace.days());
    fig.push(FigureRow::with_bars(
        "server load",
        "ideal multicast (lower bound)",
        ideal.server_peak.mean.as_gbps(),
        ideal.server_peak.q05.as_gbps(),
        ideal.server_peak.q95.as_gbps(),
    ));

    let cache_config = SimConfig::paper_default()
        .with_warmup_days(warmup)
        .with_fill_override(FillPolicy::Prefetch);
    let cache = run(trace, &cache_config)?;
    fig.push(FigureRow::with_bars(
        "server load",
        "cooperative cache (LFU, 10 TB)",
        cache.server_peak.mean.as_gbps(),
        cache.server_peak.q05.as_gbps(),
        cache.server_peak.q95.as_gbps(),
    ));

    fig.note(format!(
        "sharing factors: ideal multicast {:.2} viewers/stream, batching {:.2} members/group — \
         the skew of Fig 2 leaves most programs without concurrent viewers",
        ideal.mean_sharing, batched.mean_sharing
    ));
    // Mid-stream departures (§IV-A's second argument).
    if let Some(popular) = analyze::most_popular_program(trace) {
        let ecdf = analyze::session_length_ecdf(trace, popular);
        if let Some(length) = trace.catalog().length(popular) {
            if !ecdf.is_empty() {
                let gone_by_half = ecdf.cdf(length.as_secs() as f64 / 2.0);
                fig.note(format!(
                    "mid-stream attrition: {:.0}% of the most popular program's sessions end \
                     before the halfway mark (paper: 87%)",
                    gone_by_half * 100.0
                ));
            }
        }
    }
    fig.note(
        "if the cooperative cache beats even the ideal multicast bound, the paper's \
         architectural choice holds on this workload",
    );
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cablevod_trace::synth::{generate, SynthConfig};

    fn smoke() -> Trace {
        generate(&SynthConfig {
            users: 800,
            programs: 200,
            days: 6,
            ..SynthConfig::smoke_test()
        })
    }

    #[test]
    fn multicast_ordering_holds() {
        let fig = multicast_comparison(&smoke()).expect("runs");
        let unicast = fig
            .value_of("server load", "unicast (no cache)")
            .expect("row");
        let batched = fig
            .value_of("server load", "batching multicast (10 min window)")
            .expect("row");
        let ideal = fig
            .value_of("server load", "ideal multicast (lower bound)")
            .expect("row");
        assert!(ideal <= batched + 1e-9, "bound must not exceed batching");
        assert!(
            batched <= unicast + 1e-9,
            "batching must not exceed unicast"
        );
    }
}
