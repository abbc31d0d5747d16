//! Cross-crate end-to-end tests: the full pipeline through the public API.

mod helpers;

use cablevod_cache::StrategySpec;
use cablevod_hfc::units::DataSize;
use cablevod_sim::{baseline, SimConfig, SimReport, Simulation};
use cablevod_trace::io;
use cablevod_trace::record::Trace;
use helpers::medium_trace;

fn config() -> SimConfig {
    SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_warmup_days(4)
}

fn simulate(trace: &Trace, config: &SimConfig) -> SimReport {
    Simulation::over(trace)
        .config(config.clone())
        .run()
        .expect("pipeline runs")
        .report
}

/// The share of the no-cache peak the cache removes, over the report's
/// own measured days.
fn savings(trace: &Trace, config: &SimConfig, report: &SimReport) -> f64 {
    let no_cache = baseline::no_cache_peak(
        trace,
        config.stream_rate(),
        report.measured_from_day,
        report.measured_to_day,
    );
    report.savings_vs(no_cache.mean)
}

#[test]
fn full_pipeline_produces_sane_evaluation() {
    let trace = medium_trace();
    let config = config().with_per_peer_storage(DataSize::from_gigabytes(4));
    let report = simulate(&trace, &config);
    let savings = savings(&trace, &config, &report);

    assert_eq!(report.sessions as usize, trace.len());
    assert!(savings > 0.0 && savings < 1.0, "savings {savings}");
    assert!(report.hit_rate() > 0.1, "hit rate {}", report.hit_rate());
    assert!(report.server_peak.q05 <= report.server_peak.mean);
    assert!(report.server_peak.mean <= report.server_peak.q95);
    assert_eq!(report.measured_from_day, 4);
    assert_eq!(report.measured_to_day, trace.days());
}

#[test]
fn evaluation_is_deterministic_end_to_end() {
    let trace = medium_trace();
    let a = simulate(&trace, &config());
    let b = simulate(&trace, &config());
    assert_eq!(a, b);
    assert_eq!(
        savings(&trace, &config(), &a),
        savings(&trace, &config(), &b)
    );
}

#[test]
fn trace_survives_csv_round_trip_and_simulates_identically() {
    let trace = medium_trace();

    let mut records_csv = Vec::new();
    let mut catalog_csv = Vec::new();
    io::write_records(&trace, &mut records_csv).expect("write records");
    io::write_catalog(trace.catalog(), &mut catalog_csv).expect("write catalog");

    let catalog = io::read_catalog(catalog_csv.as_slice()).expect("read catalog");
    let restored = io::read_records(records_csv.as_slice(), catalog).expect("read records");

    let original = simulate(&trace, &config());
    let roundtrip = simulate(&restored, &config());
    assert_eq!(original.server_total, roundtrip.server_total);
    assert_eq!(original.cache, roundtrip.cache);
}

#[test]
fn strategy_choice_flows_through_the_facade() {
    let trace = medium_trace();
    let base = config().with_per_peer_storage(DataSize::from_gigabytes(1));

    let no_cache = base.clone().with_strategy(StrategySpec::NoCache);
    let none = simulate(&trace, &no_cache);
    let none_savings = savings(&trace, &no_cache, &none);
    let lfu_savings = savings(&trace, &base, &simulate(&trace, &base));
    assert_eq!(none.cache.hits, 0);
    assert!(
        none_savings.abs() < 1e-9,
        "no-cache saves nothing: {none_savings}"
    );
    assert!(lfu_savings > none_savings);
}

#[test]
fn viewer_overcommit_is_rare_but_counted() {
    let trace = medium_trace();
    let report = simulate(&trace, &config());
    // Overcommit (a viewer exceeding 2 concurrent streams) happens but is
    // a tiny fraction of sessions for a realistic workload.
    assert!(
        (report.viewer_overcommits as f64) < 0.2 * report.sessions as f64,
        "{} overcommits / {} sessions",
        report.viewer_overcommits,
        report.sessions
    );
}
