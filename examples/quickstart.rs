//! Quickstart: build a workload, deploy the paper's system, measure the
//! server-load savings.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cablevod::VodSystem;
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
    let system = VodSystem::paper_default().with_warmup_days(7);

    // 3. Simulate and compare against the no-cache centralized service.
    let outcome = system.evaluate(&trace)?;
    println!(
        "no cache:        {} at the central servers (7-11 PM)",
        outcome.baseline_peak
    );
    println!(
        "cooperative:     {} (hit rate {:.1}%)",
        outcome.report.server_peak.mean,
        outcome.report.hit_rate() * 100.0
    );
    println!("savings:         {:.1}%", outcome.savings * 100.0);
    println!(
        "coax usage:      {} mean / {} in poor cases",
        outcome.report.coax_peak.mean, outcome.report.coax_peak.q95
    );
    Ok(())
}
