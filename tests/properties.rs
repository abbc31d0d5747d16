//! Property-based tests over the public API: generator, scaling and
//! simulation invariants under randomized parameters.

mod helpers;

use proptest::prelude::*;

use cablevod_cache::StrategySpec;
use cablevod_hfc::units::DataSize;
use cablevod_sim::{run, SimConfig, Simulation};
use cablevod_trace::scale;
use cablevod_trace::synth::generate;
use helpers::tiny_config;

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Generated traces always satisfy their structural invariants.
    #[test]
    fn generator_invariants(
        users in 20u32..200,
        programs in 5u32..60,
        days in 2u64..6,
        seed in 0u64..1_000,
    ) {
        let trace = generate(&tiny_config(users, programs, days, seed));
        prop_assert!(trace.is_sorted());
        prop_assert_eq!(trace.user_count(), users);
        prop_assert_eq!(trace.catalog().len(), programs as usize);
        for r in trace.iter() {
            let len = trace.catalog().length(r.program).expect("valid program");
            prop_assert!(r.duration <= len);
            let intro = trace.catalog().introduced_day(r.program).expect("valid program");
            prop_assert!(r.start.day() as i64 >= intro);
            prop_assert!(r.start.day() < days);
        }
    }

    /// User scaling multiplies events and users exactly, preserving
    /// programs and durations; jitter stays within 60 seconds.
    #[test]
    fn user_scaling_invariants(
        factor in 1u32..5,
        seed in 0u64..1_000,
    ) {
        let trace = generate(&tiny_config(50, 20, 3, seed));
        let scaled = scale::scale_users(&trace, factor, seed).expect("valid factor");
        prop_assert_eq!(scaled.len(), trace.len() * factor as usize);
        prop_assert_eq!(scaled.user_count(), trace.user_count() * factor);
        prop_assert!(scaled.is_sorted());
        // Program popularity is exactly multiplied.
        let count = |t: &cablevod_trace::record::Trace, p: u32| {
            t.iter().filter(|r| r.program.value() == p).count()
        };
        for p in 0..20u32 {
            prop_assert_eq!(count(&scaled, p), count(&trace, p) * factor as usize);
        }
    }

    /// Catalog scaling preserves event count and maps each event to a copy
    /// of its original program.
    #[test]
    fn catalog_scaling_invariants(
        factor in 1u32..5,
        seed in 0u64..1_000,
    ) {
        let trace = generate(&tiny_config(50, 20, 3, seed));
        let scaled = scale::scale_catalog(&trace, factor, seed).expect("valid factor");
        prop_assert_eq!(scaled.len(), trace.len());
        prop_assert_eq!(scaled.catalog().len(), trace.catalog().len() * factor as usize);
        let base = trace.catalog().len() as u32;
        for (orig, new) in trace.iter().zip(scaled.iter()) {
            prop_assert_eq!(new.program.value() % base, orig.program.value());
            prop_assert_eq!(new.start, orig.start);
            prop_assert_eq!(new.duration, orig.duration);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The simulation engine upholds its accounting identities for
    /// arbitrary small worlds and every strategy.
    #[test]
    fn engine_invariants(
        users in 50u32..250,
        nbhd in 20u32..120,
        gb in 1u64..6,
        strategy_pick in 0usize..4,
        seed in 0u64..500,
    ) {
        let trace = generate(&tiny_config(users, 30, 3, seed));
        let strategy = [
            StrategySpec::NoCache,
            StrategySpec::Lru,
            StrategySpec::default_lfu(),
            StrategySpec::default_oracle(),
        ][strategy_pick];
        let config = SimConfig::paper_default()
            .with_neighborhood_size(nbhd)
            .with_per_peer_storage(DataSize::from_gigabytes(gb))
            .with_warmup_days(1)
            .with_strategy(strategy);
        let report = run(&trace, &config).expect("engine runs");

        // Offered load bounds the server load.
        let offered: u64 = trace
            .iter()
            .map(|r| {
                let len = trace.catalog().length(r.program).expect("valid");
                r.watched(len).as_secs()
                    * cablevod_hfc::units::BitRate::STREAM_MPEG2_SD.as_bps()
            })
            .sum();
        prop_assert!(report.server_total.as_bits() <= offered);
        prop_assert_eq!(report.sessions as usize, trace.len());
        prop_assert_eq!(report.cache.requests(), report.segment_requests);
        prop_assert!(report.cache.evictions <= report.cache.admissions);
        // Quantile ordering.
        prop_assert!(report.server_peak.q05 <= report.server_peak.q95);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The sharded engine is bit-identical to the serial reference for
    /// every strategy, at shard-pool sizes 1, 2 and one-worker-per-
    /// neighborhood, on randomized small worlds.
    #[test]
    fn parallel_engine_is_bit_identical(
        users in 60u32..250,
        nbhd in 25u32..120,
        gb in 1u64..5,
        strategy_pick in 0usize..4,
        seed in 0u64..500,
    ) {
        let trace = generate(&tiny_config(users, 30, 3, seed));
        let strategy = [
            StrategySpec::NoCache,
            StrategySpec::Lru,
            StrategySpec::default_lfu(),
            StrategySpec::default_oracle(),
        ][strategy_pick];
        let config = SimConfig::paper_default()
            .with_neighborhood_size(nbhd)
            .with_per_peer_storage(DataSize::from_gigabytes(gb))
            .with_warmup_days(1)
            .with_strategy(strategy);
        let serial = run(&trace, &config).expect("serial engine runs");
        let neighborhoods = users.div_ceil(nbhd) as usize;
        for threads in [1, 2, neighborhoods] {
            let parallel = Simulation::over(&trace)
                .config(config.clone())
                .threads(threads)
                .run()
                .expect("parallel engine runs");
            prop_assert_eq!(&parallel.report, &serial, "threads = {}", threads);
        }
    }
}
