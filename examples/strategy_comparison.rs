//! Strategy comparison: LRU vs windowed LFU vs global-feed LFU vs the
//! clairvoyant Oracle, plus the two fill accountings.
//!
//! ```text
//! cargo run --release --example strategy_comparison
//! ```

use cablevod::VodSystem;
use cablevod_cache::{FillPolicy, StrategySpec};
use cablevod_hfc::units::{DataSize, SimDuration};
use cablevod_sim::SimConfig;
use cablevod_trace::synth::{generate, SynthConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = generate(&SynthConfig {
        users: 6_000,
        programs: 1_500,
        days: 14,
        ..SynthConfig::powerinfo()
    });

    // A deliberately tight cache (2 GB/peer) so strategy quality matters —
    // the paper: "differences are most pronounced in small caches".
    let base = SimConfig::paper_default()
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(7);

    let history = SimDuration::from_days(7);
    let strategies: Vec<(&str, StrategySpec)> = vec![
        ("LRU", StrategySpec::Lru),
        ("LFU (7-day history)", StrategySpec::Lfu { history }),
        (
            "Global LFU (30 min lag)",
            StrategySpec::GlobalLfu {
                history,
                lag: SimDuration::from_minutes(30),
            },
        ),
        ("Oracle (3-day lookahead)", StrategySpec::default_oracle()),
    ];

    println!(
        "{:<26} {:>14} {:>10} {:>10} {:>12}",
        "strategy", "server peak", "savings", "hit rate", "evictions"
    );
    for fill in [FillPolicy::Prefetch, FillPolicy::OnBroadcast] {
        println!(
            "--- fill: {} ---",
            match fill {
                FillPolicy::Prefetch => "proactive push (the paper's accounting)",
                FillPolicy::OnBroadcast => "capture-on-broadcast (deployable mechanism)",
            }
        );
        for (name, spec) in &strategies {
            let system =
                VodSystem::from_config(base.clone().with_strategy(*spec).with_fill_override(fill));
            let outcome = system.evaluate(&trace)?;
            println!(
                "{:<26} {:>14} {:>9.1}% {:>9.1}% {:>12}",
                name,
                outcome.report.server_peak.mean.to_string(),
                outcome.savings * 100.0,
                outcome.report.hit_rate() * 100.0,
                outcome.report.cache.evictions,
            );
        }
    }
    println!("\nexpected ordering: Oracle <= Global LFU <= LFU <= LRU (server peak)");
    Ok(())
}
