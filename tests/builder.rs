//! Front-door equivalence and extension properties: every way through
//! the [`Simulation`] builder — one worker or several, resident or
//! streamed — must be bit-identical to the whole-plant reference driver
//! behind `cablevod_sim::run`, a different driver since resident runs
//! replay per neighborhood (all nine registered strategies × counting /
//! enforcing admission over a seeded fault plan); [`Scenario`]
//! specs must round-trip through the spec-file format, and an
//! out-of-tree strategy registered through the [`StrategyFactory`]
//! interface must run end-to-end without touching the cache crate's
//! [`StrategySpec`] enum.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;

use cablevod_cache::{
    CacheError, CacheOp, CacheStrategy, StrategyContext, StrategyFactory, StrategyRegistry,
    StrategySpec,
};
use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::{DataSize, SimDuration, SimTime};
use cablevod_sim::{
    run, run_parallel, AdmissionMode, AxisPoint, FaultPlan, RetryPolicy, Scenario, SimConfig,
    Simulation, SourceSpec,
};
use cablevod_tests::tiny_config;
use cablevod_trace::source::ChunkedTrace;
use cablevod_trace::synth::generate;

/// One spec per registered strategy, with the parameters `tests/zoo.rs`
/// and `tests/streaming.rs` use to make each one's distinctive machinery
/// engage on a three-day trace (a history shorter than the trace, a feed
/// lag, a TTU that expires, a fetch latency coarse enough to coalesce).
fn all_strategies() -> [StrategySpec; 9] {
    [
        StrategySpec::NoCache,
        StrategySpec::Lru,
        StrategySpec::default_lfu(),
        StrategySpec::default_oracle(),
        StrategySpec::GlobalLfu {
            history: SimDuration::from_days(3),
            lag: SimDuration::from_minutes(30),
        },
        StrategySpec::Arc { ghost: 0 },
        StrategySpec::Tlru {
            ttl: SimDuration::from_minutes(30),
        },
        StrategySpec::PriorStoring {
            horizon: SimDuration::from_days(1),
        },
        StrategySpec::DelayedLfu {
            history: SimDuration::from_days(3),
            latency_ms: 10_000,
        },
    ]
}

fn config_for(nbhd: u32, gb: u64, spec: StrategySpec) -> SimConfig {
    SimConfig::paper_default()
        .with_neighborhood_size(nbhd)
        .with_per_peer_storage(DataSize::from_gigabytes(gb))
        .with_warmup_days(1)
        .with_strategy(spec)
}

/// The matrix below is the registry: a strategy registered later must be
/// added to it.
#[test]
fn the_parity_matrix_covers_every_registered_strategy() {
    let matrix: BTreeSet<String> = all_strategies()
        .iter()
        .map(|spec| spec.compact().split(':').next().unwrap_or("").to_string())
        .collect();
    let registry = StrategyRegistry::builtin();
    let registered: BTreeSet<String> = registry.names().map(str::to_string).collect();
    assert_eq!(matrix, registered);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// `run` over a resident trace is the whole-plant driver — one event
    /// heap, every neighborhood — and everything the builder composes is
    /// a per-neighborhood plan: resident on one worker (`serial()`, the
    /// default) and on three, streamed on one and on two. All of them,
    /// and the `run_parallel` shorthand, reproduce the reference bit for
    /// bit under every registered strategy, counting and enforcing
    /// admission, over a seeded fault plan.
    #[test]
    fn builder_is_bit_identical_to_legacy_entry_points(
        users in 60u32..220,
        nbhd in 25u32..120,
        gb in 1u64..5,
        seed in 0u64..500,
        plan_seed in 0u64..200,
    ) {
        let trace = generate(&tiny_config(users, 30, 3, seed));
        let chunked = ChunkedTrace::new(&trace, 64);
        let faults = FaultPlan::seeded(
            plan_seed,
            users.div_ceil(nbhd),
            SimDuration::from_days(3),
            4,
            2,
        );
        for spec in all_strategies() {
            for admission in [AdmissionMode::Counting, AdmissionMode::Enforcing] {
                let config = config_for(nbhd, gb, spec)
                    .with_faults(faults.clone())
                    .with_admission(admission)
                    .with_retry(RetryPolicy::paper_default());
                let what = format!("{} under {admission:?}", spec.compact());

                let reference = run(&trace, &config).expect("whole-plant run");
                prop_assert!(reference.degradation.is_some(), "{}", &what);

                let serial = Simulation::over(&trace)
                    .config(config.clone())
                    .serial()
                    .run()
                    .expect("builder, one worker");
                prop_assert_eq!(&serial.report, &reference, "serial, {}", &what);
                prop_assert_eq!(serial.telemetry.threads, 1);

                let sharded = Simulation::over(&trace)
                    .config(config.clone())
                    .threads(3)
                    .run()
                    .expect("builder, three workers");
                prop_assert_eq!(&sharded.report, &reference, "threads(3), {}", &what);
                let shorthand = run_parallel(&trace, &config, 3).expect("run_parallel");
                prop_assert_eq!(&shorthand, &reference, "run_parallel, {}", &what);

                let streamed = Simulation::over(&chunked)
                    .config(config.clone())
                    .run()
                    .expect("builder, streaming");
                prop_assert_eq!(&streamed.report, &reference, "streamed, {}", &what);
                let streamed_parallel = Simulation::over(&chunked)
                    .config(config)
                    .threads(2)
                    .run()
                    .expect("builder, streaming on two workers");
                prop_assert_eq!(
                    &streamed_parallel.report,
                    &reference,
                    "streamed threads(2), {}",
                    &what
                );
            }
        }
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
