// Calibration sweep over workload knobs (kept as a maintenance tool; the
// targets are in the `SynthConfig` field docs, `cablevod_trace::synth`).
use cablevod_cache::StrategySpec;
use cablevod_hfc::units::{BitRate, DataSize, SimDuration};
use cablevod_sim::{baseline, SimConfig, Simulation};
use cablevod_trace::record::Trace;
use cablevod_trace::synth::{generate, SynthConfig};

/// Upper bound on cacheable byte share: programs ranked by watched bytes in
/// the measurement window, greedily filling `fraction` of catalog bytes.
fn knapsack_bound(trace: &Trace, from_day: u64, fraction: f64) -> f64 {
    let catalog = trace.catalog();
    let mut bytes = vec![0u64; catalog.len()];
    let mut total_watched = 0u64;
    for r in trace.iter().filter(|r| r.start.day() >= from_day) {
        let len = catalog.length(r.program).expect("valid");
        let w = r.duration.min(len).as_secs();
        bytes[r.program.index()] += w;
        total_watched += w;
    }
    let sizes: Vec<u64> = catalog
        .iter()
        .map(|(_, info)| info.length.as_secs())
        .collect();
    let budget = (sizes.iter().sum::<u64>() as f64 * fraction) as u64;
    let mut order: Vec<usize> = (0..bytes.len()).collect();
    // Density order: watched seconds per stored second.
    order.sort_unstable_by(|&a, &b| (bytes[b] * sizes[a]).cmp(&(bytes[a] * sizes[b])));
    let mut used = 0u64;
    let mut captured = 0u64;
    for i in order {
        if used + sizes[i] > budget {
            continue;
        }
        used += sizes[i];
        captured += bytes[i];
    }
    captured as f64 / total_watched.max(1) as f64
}

fn main() {
    let floors = std::env::args().nth(1).unwrap_or_else(|| "0.015".into());
    for floor in floors.split(',') {
        let floor: f64 = floor.parse().expect("floor list");
        let cfg = SynthConfig {
            zipf_exponent: 0.8,
            decay_floor: floor,
            ..SynthConfig::experiment_default()
        };
        let trace = generate(&cfg);
        let nocache = baseline::no_cache_peak(&trace, BitRate::STREAM_MPEG2_SD, 14, trace.days());
        println!(
            "floor={floor}: nocache {:.1} | knapsack bound @3.6% {:.1}% @36% {:.1}%",
            nocache.mean.as_gbps(),
            100.0 * knapsack_bound(&trace, 14, 0.036),
            100.0 * knapsack_bound(&trace, 14, 0.36),
        );
        for (gb, lru, prefetch) in [
            (1u64, false, true),
            (10, false, true),
            (1, true, true),
            (10, true, true),
        ] {
            let strategy = if lru {
                StrategySpec::Lru
            } else {
                StrategySpec::Lfu {
                    history: SimDuration::from_days(7),
                }
            };
            let mut config = SimConfig::paper_default()
                .with_per_peer_storage(DataSize::from_gigabytes(gb))
                .with_strategy(strategy);
            if prefetch {
                config = config.with_fill_override(cablevod_cache::FillPolicy::Prefetch);
            }
            let r = Simulation::over(&trace)
                .config(config)
                .run()
                .expect("runs")
                .report;
            let reqs = r.cache.requests() as f64;
            println!(
                "  {gb}GB {} fill={}: {:.2} Gb/s ({:.0}%) | hit {:.1}% uncached {:.1}% cold {:.1}% busy {:.1}% | adm {} evict {}",
                if lru { "LRU" } else { "LFU" },
                if prefetch { "push" } else { "bcast" },
                r.server_peak.mean.as_gbps(),
                r.savings_vs(nocache.mean) * 100.0,
                100.0 * r.cache.hits as f64 / reqs,
                100.0 * r.cache.miss_uncached as f64 / reqs,
                100.0 * r.cache.miss_not_materialized as f64 / reqs,
                100.0 * r.cache.miss_peer_busy as f64 / reqs,
                r.cache.admissions,
                r.cache.evictions,
            );
        }
    }
}
