//! Front-door equivalence and extension properties: the [`Simulation`]
//! builder must be a zero-behavior-change facade (bit-identical to the
//! `run` / `run_parallel` shorthands across all five strategies ×
//! serial/sharded × resident/streaming), [`Scenario`]
//! specs must round-trip through the spec-file format, and an
//! out-of-tree strategy registered through the [`StrategyFactory`]
//! interface must run end-to-end without touching the cache crate's
//! [`StrategySpec`] enum.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use cablevod_cache::{
    CacheError, CacheOp, CacheStrategy, StrategyContext, StrategyFactory, StrategyRegistry,
    StrategySpec,
};
use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::{DataSize, SimDuration, SimTime};
use cablevod_sim::{run, run_parallel, AxisPoint, Scenario, SimConfig, Simulation, SourceSpec};
use cablevod_tests::tiny_config;
use cablevod_trace::source::ChunkedTrace;
use cablevod_trace::synth::generate;

/// The same strategy matrix as `tests/streaming.rs`: the paper's four
/// plus Global LFU (the feed-consuming path).
fn strategy(pick: usize) -> StrategySpec {
    [
        StrategySpec::NoCache,
        StrategySpec::Lru,
        StrategySpec::default_lfu(),
        StrategySpec::default_oracle(),
        StrategySpec::GlobalLfu {
            history: SimDuration::from_days(3),
            lag: SimDuration::from_minutes(30),
        },
    ][pick]
}

fn config_for(nbhd: u32, gb: u64, spec: StrategySpec) -> SimConfig {
    SimConfig::paper_default()
        .with_neighborhood_size(nbhd)
        .with_per_peer_storage(DataSize::from_gigabytes(gb))
        .with_warmup_days(1)
        .with_strategy(spec)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// `Simulation` output is bit-identical to `run` / `run_parallel` on
    /// every driver: serial/sharded × resident/streaming, all five
    /// strategies.
    #[test]
    fn builder_is_bit_identical_to_legacy_entry_points(
        users in 60u32..220,
        nbhd in 25u32..120,
        gb in 1u64..5,
        strategy_pick in 0usize..5,
        seed in 0u64..500,
    ) {
        let trace = generate(&tiny_config(users, 30, 3, seed));
        let config = config_for(nbhd, gb, strategy(strategy_pick));

        // Resident serial: `run` vs builder.
        let legacy = run(&trace, &config).expect("run");
        let built = Simulation::over(&trace)
            .config(config.clone())
            .run()
            .expect("builder run");
        prop_assert_eq!(&built.report, &legacy);

        // Resident sharded: `run_parallel` vs builder.
        let legacy_parallel = run_parallel(&trace, &config, 3).expect("run_parallel");
        let built_parallel = Simulation::over(&trace)
            .config(config.clone())
            .threads(3)
            .run()
            .expect("builder parallel run");
        prop_assert_eq!(&built_parallel.report, &legacy_parallel);
        prop_assert_eq!(&built_parallel.report, &legacy);

        // Streaming serial + sharded through the builder.
        let chunked = ChunkedTrace::new(&trace, 64);
        let streamed = Simulation::over(&chunked)
            .config(config.clone())
            .run()
            .expect("builder streaming run");
        prop_assert_eq!(&streamed.report, &legacy);
        let streamed_parallel = Simulation::over(&chunked)
            .config(config.clone())
            .threads(2)
            .run()
            .expect("builder streaming parallel run");
        prop_assert_eq!(&streamed_parallel.report, &legacy);
    }
}

/// A minimal out-of-tree strategy: admits programs first-come
/// first-served while capacity remains and never evicts — a toy
/// "prior-storing server" (Tsang 2015), deliberately *not* a
/// [`StrategySpec`] variant.
#[derive(Debug)]
struct StickyCache {
    capacity: u64,
    used: u64,
    contents: BTreeMap<usize, u32>,
}

impl CacheStrategy for StickyCache {
    fn name(&self) -> &'static str {
        "Sticky"
    }

    fn on_access(&mut self, program: ProgramId, cost: u32, _now: SimTime, ops: &mut Vec<CacheOp>) {
        if self.contents.contains_key(&program.index()) {
            return;
        }
        if self.used + u64::from(cost) <= self.capacity {
            self.contents.insert(program.index(), cost);
            self.used += u64::from(cost);
            ops.push(CacheOp::Admit(program));
        }
    }

    fn contains(&self, program: ProgramId) -> bool {
        self.contents.contains_key(&program.index())
    }

    fn cost_of(&self, program: ProgramId) -> Option<u32> {
        self.contents.get(&program.index()).copied()
    }

    fn used_slots(&self) -> u64 {
        self.used
    }

    fn capacity_slots(&self) -> u64 {
        self.capacity
    }
}

#[derive(Debug)]
struct StickyFactory;

impl StrategyFactory for StickyFactory {
    fn name(&self) -> &str {
        "Sticky"
    }
    fn build(&self, ctx: StrategyContext) -> Result<Box<dyn CacheStrategy>, CacheError> {
        Ok(Box::new(StickyCache {
            capacity: ctx.capacity_slots,
            used: 0,
            contents: BTreeMap::new(),
        }))
    }
}

/// An out-of-tree strategy registered by name runs through every driver
/// without any cache-crate enum change, and behaves deterministically.
#[test]
fn custom_strategy_registers_and_runs_everywhere() {
    let trace = generate(&tiny_config(200, 30, 3, 42));
    let config = config_for(60, 1, StrategySpec::NoCache);

    let run_sticky = |threads: Option<usize>| {
        let mut sim = Simulation::over(&trace)
            .config(config.clone())
            .register("prior-storing", Arc::new(StickyFactory))
            .strategy_named("prior-storing");
        if let Some(n) = threads {
            sim = sim.threads(n);
        }
        sim.run().expect("custom strategy runs")
    };

    let serial = run_sticky(None);
    assert_eq!(serial.telemetry.strategy, "Sticky");
    assert!(serial.report.cache.hits > 0, "sticky cache produces hits");

    // Sharded runs agree bit-for-bit, like every built-in.
    for threads in [1, 2, 4] {
        assert_eq!(run_sticky(Some(threads)).report, serial.report);
    }

    // Sticky beats nothing: fewer server bytes than the no-cache run.
    let no_cache = run(&trace, &config).expect("no-cache runs");
    assert!(serial.report.server_total < no_cache.server_total);

    // The same name drives a Scenario through a custom registry.
    let mut registry = StrategyRegistry::builtin();
    registry.register("prior-storing", Arc::new(StickyFactory));
    let outcomes = Scenario::provided("custom", config.clone())
        .with_series(vec![
            AxisPoint::new("Sticky").with_strategy_named("prior-storing")
        ])
        .execute_on_with(&trace, &registry)
        .expect("scenario with custom strategy runs");
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].report(), &serial.report);
}

/// Scenario specs survive a full save → load file round-trip, and the
/// loaded scenario executes to the same reports.
#[test]
fn scenario_spec_file_round_trips_and_reruns() {
    let scenario = Scenario::new(
        "round-trip",
        SourceSpec::Synth(tiny_config(150, 25, 3, 9)),
        config_for(50, 2, StrategySpec::default_lfu()),
    )
    .with_series(vec![
        AxisPoint::new("LRU").with_strategy(StrategySpec::Lru),
        AxisPoint::new("LFU").with_strategy(StrategySpec::default_lfu()),
    ])
    .with_points(vec![
        AxisPoint::new("x1").with_source(SourceSpec::Scaled {
            population: 1,
            catalog: 1,
            seed: 3,
        }),
        AxisPoint::new("x2").with_source(SourceSpec::Scaled {
            population: 2,
            catalog: 1,
            seed: 3,
        }),
    ]);

    let mut path = std::env::temp_dir();
    path.push(format!("scn_roundtrip_{}.scn", std::process::id()));
    scenario.save(&path).expect("saves");
    let loaded = Scenario::load(&path).expect("loads");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, scenario);

    let original = scenario.execute().expect("original runs");
    let reloaded = loaded.execute().expect("reloaded runs");
    assert_eq!(original.len(), reloaded.len());
    for (a, b) in original.iter().zip(&reloaded) {
        assert_eq!(a.series, b.series);
        assert_eq!(a.point, b.point);
        assert_eq!(a.report(), b.report());
    }
}
