//! Capacity planning: the question a cable operator actually asks.
//!
//! "I have N subscribers per headend and can provision X GB per set-top
//! box — how much central server capacity do I still need, and does the
//! coax hold?" This example sweeps both knobs on one workload and prints a
//! planning table, the operator-facing view of the paper's Figs 8–10 and
//! 14.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use cablevod::VodSystem;
use cablevod_hfc::units::DataSize;
use cablevod_sim::baseline;
use cablevod_trace::synth::{generate, SynthConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = generate(&SynthConfig {
        users: 6_000,
        programs: 1_500,
        days: 14,
        ..SynthConfig::powerinfo()
    });
    let no_cache = baseline::no_cache_peak(
        &trace,
        cablevod_hfc::units::BitRate::STREAM_MPEG2_SD,
        7,
        trace.days(),
    );
    println!(
        "workload: {} sessions / {} users",
        trace.len(),
        trace.user_count()
    );
    println!(
        "without any cache the servers must sustain {}\n",
        no_cache.mean
    );

    println!(
        "{:>12} {:>10} {:>14} {:>10} {:>14} {:>12}",
        "neighborhood", "GB/peer", "server peak", "savings", "coax mean", "coax 95%"
    );
    for neighborhood in [250u32, 500, 1_000] {
        for gb in [1u64, 5, 10] {
            let system = VodSystem::paper_default()
                .with_neighborhood_size(neighborhood)
                .with_per_peer_storage(DataSize::from_gigabytes(gb))
                .with_warmup_days(7);
            let outcome = system.evaluate(&trace)?;
            println!(
                "{:>12} {:>10} {:>14} {:>9.1}% {:>14} {:>12}",
                neighborhood,
                gb,
                outcome.report.server_peak.mean.to_string(),
                outcome.savings * 100.0,
                outcome.report.coax_peak.mean.to_string(),
                outcome.report.coax_peak.q95.to_string(),
            );
        }
    }
    println!(
        "\nreading: bigger neighborhoods + more per-peer storage shrink the server bill;\n\
         coax stays far under the {} VoD headroom either way.",
        cablevod_hfc::coax::CoaxSpec::paper_default().vod_headroom()
    );
    Ok(())
}
