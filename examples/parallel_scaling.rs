//! Sharded-engine scaling scenario: the Criterion bench workload scaled to
//! 10x its user count (15,000 users, ~200k sessions), simulated one driver
//! per neighborhood through the [`Simulation`] front door — serially, then
//! on several workers — with wall time, throughput and peak RSS from the
//! built-in [`RunOutcome`](cablevod_sim::RunOutcome) telemetry instead of
//! hand-rolled timers.
//!
//! Every worker count must produce a bit-identical report — this example
//! asserts it — while shard memory stays bounded by the largest
//! neighborhood, not the whole plant. What the plan itself is held to is
//! the naive reference model in `tests/reference/`.
//!
//! ```text
//! cargo run --release --example parallel_scaling
//! ```

use cablevod_hfc::units::DataSize;
use cablevod_sim::{SimConfig, Simulation};
use cablevod_trace::synth::{generate, SynthConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 10x the bench workload's 1,500 users (`bench_trace` in benches/engine.rs).
    let trace = generate(&SynthConfig {
        users: 15_000,
        programs: 400,
        days: 6,
        ..SynthConfig::powerinfo()
    });
    let config = SimConfig::paper_default()
        .with_neighborhood_size(500)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(3);
    println!(
        "workload: {} sessions / {} users in {} neighborhoods of {}",
        trace.len(),
        trace.user_count(),
        trace.user_count().div_ceil(config.neighborhood_size()),
        config.neighborhood_size(),
    );

    let serial = Simulation::over(&trace).config(config.clone()).run()?;
    println!(
        "serial (one worker): {:?} ({:.0} sessions/s)",
        serial.telemetry.wall,
        serial.sessions_per_sec(),
    );

    for threads in [2usize, 4, 8] {
        let parallel = Simulation::over(&trace)
            .config(config.clone())
            .threads(threads)
            .run()?;
        assert_eq!(
            parallel.report, serial.report,
            "sharded report must be bit-identical"
        );
        println!(
            "sharded x{threads}: {:?} ({:.0} sessions/s, {:.2}x vs serial, bit-identical)",
            parallel.telemetry.wall,
            parallel.sessions_per_sec(),
            serial.telemetry.wall.as_secs_f64() / parallel.telemetry.wall.as_secs_f64()
        );
    }

    if let Some(kb) = serial.telemetry.peak_rss_kb {
        println!("peak RSS: {:.1} MiB", kb as f64 / 1024.0);
    }
    println!("\n{}", serial.report);
    Ok(())
}
