//! Quickstart: build a workload, deploy the paper's system, measure the
//! server-load savings.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cablevod_sim::{baseline, SimConfig, Simulation};
use cablevod_trace::synth::{generate, SynthConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic workload with the PowerInfo trace's statistical
    //    fingerprint: skewed + decaying popularity, short sessions, evening
    //    peak. Scaled down so the example runs in seconds.
    let workload = SynthConfig {
        users: 5_000,
        programs: 1_200,
        days: 14,
        ..SynthConfig::powerinfo()
    };
    let trace = generate(&workload);
    println!(
        "workload: {} sessions by {} users over {} days ({} programs)",
        trace.len(),
        trace.user_count(),
        trace.days(),
        trace.catalog().len()
    );

    // 2. The paper's deployment: coax neighborhoods of set-top boxes, each
    //    contributing 10 GB and two stream slots to a cooperative cache run
    //    by the headend's index server.
    let config = SimConfig::paper_default().with_warmup_days(7);

    // 3. Simulate and compare against the no-cache centralized service
    //    over the same measured days.
    let report = Simulation::over(&trace)
        .config(config.clone())
        .run()?
        .report;
    let no_cache = baseline::no_cache_peak(
        &trace,
        config.stream_rate(),
        report.measured_from_day,
        report.measured_to_day,
    );
    println!(
        "no cache:        {} at the central servers (7-11 PM)",
        no_cache.mean
    );
    println!(
        "cooperative:     {} (hit rate {:.1}%)",
        report.server_peak.mean,
        report.hit_rate() * 100.0
    );
    println!(
        "savings:         {:.1}%",
        report.savings_vs(no_cache.mean) * 100.0
    );
    println!(
        "coax usage:      {} mean / {} in poor cases",
        report.coax_peak.mean, report.coax_peak.q95
    );
    Ok(())
}
