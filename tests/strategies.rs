//! Cross-strategy orderings the paper's evaluation relies on.

mod helpers;

use cablevod_cache::{FillPolicy, StrategySpec};
use cablevod_hfc::units::{DataSize, SimDuration};
use cablevod_sim::{baseline, run, SimConfig};
use helpers::medium_trace;

fn config(gb: u64) -> SimConfig {
    SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(gb))
        .with_warmup_days(4)
        .with_fill_override(FillPolicy::Prefetch)
}

#[test]
fn oracle_dominates_the_frequency_strategies() {
    // The paper's Oracle is "the files used most frequently in the next
    // three days" — a clairvoyant *frequency* criterion. It dominates the
    // frequency-estimating strategies (LFU and global LFU); pure recency
    // (LRU) optimizes a different objective and can win at tiny caches
    // under free push-fill, so it is compared separately below.
    let trace = medium_trace();
    let oracle = run(
        &trace,
        &config(2).with_strategy(StrategySpec::default_oracle()),
    )
    .expect("runs");
    for strategy in [
        StrategySpec::default_lfu(),
        StrategySpec::GlobalLfu {
            history: SimDuration::from_days(7),
            lag: SimDuration::ZERO,
        },
    ] {
        let report = run(&trace, &config(2).with_strategy(strategy)).expect("runs");
        assert!(
            oracle.server_total.as_bits() as f64 <= report.server_total.as_bits() as f64 * 1.02,
            "oracle {} must not lose to {:?} {}",
            oracle.server_total,
            strategy,
            report.server_total
        );
    }
}

#[test]
fn bigger_cache_never_hurts_much() {
    let trace = medium_trace();
    let mut previous: Option<u64> = None;
    for gb in [1u64, 2, 4, 8] {
        let report = run(&trace, &config(gb)).expect("runs");
        if let Some(prev) = previous {
            assert!(
                report.server_total.as_bits() <= prev + prev / 20,
                "{gb} GB/peer regressed: {} -> {}",
                prev,
                report.server_total.as_bits()
            );
        }
        previous = Some(report.server_total.as_bits());
    }
}

#[test]
fn lfu_beats_lru_under_deployable_fill() {
    // The paper: "the LFU algorithm performs the same, if not better than,
    // the LRU algorithm in all cases". Under the deployable
    // capture-on-broadcast fill, every LRU churn admission resets
    // materialized segments, so LFU's stability pays directly.
    let trace = medium_trace();
    let capture = |strategy| {
        config(1)
            .with_strategy(strategy)
            .with_fill_override(cablevod_cache::FillPolicy::OnBroadcast)
    };
    let lfu = run(&trace, &capture(StrategySpec::default_lfu())).expect("runs");
    let lru = run(&trace, &capture(StrategySpec::Lru)).expect("runs");
    assert!(
        lfu.server_total.as_bits() as f64 <= lru.server_total.as_bits() as f64 * 1.05,
        "lfu {} vs lru {}",
        lfu.server_total,
        lru.server_total
    );
}

#[test]
fn global_feed_does_not_hurt() {
    let trace = medium_trace();
    let history = SimDuration::from_days(7);
    let local = run(
        &trace,
        &config(1).with_strategy(StrategySpec::Lfu { history }),
    )
    .expect("runs");
    let global = run(
        &trace,
        &config(1).with_strategy(StrategySpec::GlobalLfu {
            history,
            lag: SimDuration::ZERO,
        }),
    )
    .expect("runs");
    assert!(
        global.server_total.as_bits() as f64 <= local.server_total.as_bits() as f64 * 1.1,
        "global {} vs local {}",
        global.server_total,
        local.server_total
    );
}

#[test]
fn savings_match_the_baseline_identity() {
    let trace = medium_trace();
    let report = run(&trace, &config(4)).expect("runs");
    let no_cache = baseline::no_cache_peak(
        &trace,
        cablevod_hfc::units::BitRate::STREAM_MPEG2_SD,
        report.measured_from_day,
        report.measured_to_day,
    );
    let savings = report.savings_vs(no_cache.mean);
    assert!((0.0..1.0).contains(&savings), "savings {savings}");
    // The savings formula must be consistent with raw rates.
    let recomputed = 1.0 - report.server_peak.mean.as_bps() as f64 / no_cache.mean.as_bps() as f64;
    assert!((savings - recomputed).abs() < 1e-12);
}

#[test]
fn more_stream_slots_monotonically_help() {
    let trace = medium_trace();
    let mut previous: Option<u64> = None;
    for slots in [1u8, 2, 4] {
        let report = run(&trace, &config(4).with_stream_slots(slots)).expect("runs");
        if let Some(prev) = previous {
            assert!(
                report.server_total.as_bits() <= prev,
                "slots {slots} regressed"
            );
        }
        previous = Some(report.server_total.as_bits());
    }
}
