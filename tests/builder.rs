//! Front-door properties. Every way through the [`Simulation`] builder —
//! one worker or several, resident or streamed — must reproduce, report
//! for report, the naive whole-plant reference model in `reference/`
//! (all nine registered strategies × counting / enforcing admission ×
//! healthy / seeded fault plans × balanced / first-fit placement × one or
//! two replicas). [`Scenario`] specs must round-trip through the
//! spec-file format, and an out-of-tree strategy registered through the
//! [`StrategyFactory`] interface must run end-to-end without touching the
//! cache crate's [`StrategySpec`] enum.

mod helpers;
mod reference;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;

use cablevod_cache::{
    CacheError, CacheOp, CacheStrategy, FillPolicy, PlacementPolicy, StrategyContext,
    StrategyFactory, StrategyRegistry, StrategySpec,
};
use cablevod_hfc::channels::QAM256_CHANNEL_RATE;
use cablevod_hfc::coax::CoaxSpec;
use cablevod_hfc::ids::ProgramId;
use cablevod_hfc::units::{BitRate, DataSize, SimDuration, SimTime};
use cablevod_sim::{
    run, AdmissionMode, AxisPoint, FaultPlan, RetryPolicy, Scenario, SimConfig, Simulation,
    SourceSpec,
};
use cablevod_trace::record::Trace;
use cablevod_trace::source::ChunkedTrace;
use cablevod_trace::synth::{generate, SynthConfig};
use helpers::tiny_config;

/// One spec per registered strategy, with the parameters `tests/zoo.rs`
/// and `tests/streaming.rs` use to make each one's distinctive machinery
/// engage on a three-day trace (a history shorter than the trace, a TTU
/// that expires), the global LFU's feed `lag` — zero shows it an access in
/// the very second it happens, so only the record-index bound keeps a
/// later record's access of the same second out of sight — and the
/// delayed LFU's fetch `latency_ms`, coarse enough to coalesce. Plain LFU
/// comes twice: at its week-long default, which never lets an access go
/// on a three-day trace, and with a day's history, so that the engine
/// hands its accesses back as they leave (the model's LFU keeps its own).
fn all_strategies(lag: SimDuration, latency_ms: u64) -> [StrategySpec; 10] {
    [
        StrategySpec::NoCache,
        StrategySpec::Lru,
        StrategySpec::default_lfu(),
        StrategySpec::Lfu {
            history: SimDuration::from_days(1),
        },
        StrategySpec::default_oracle(),
        StrategySpec::GlobalLfu {
            history: SimDuration::from_days(3),
            lag,
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
            latency_ms,
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
    let matrix: BTreeSet<String> = all_strategies(SimDuration::ZERO, 0)
        .iter()
        .map(|spec| spec.compact().split(':').next().unwrap_or("").to_string())
        .collect();
    let registry = StrategyRegistry::builtin();
    let registered: BTreeSet<String> = registry.names().map(str::to_string).collect();
    assert_eq!(matrix, registered);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The reference model against everything the builder composes: the
    /// resident plan on one worker (`serial()`, the default) and on
    /// three, and the streamed plan on one and on two — every one a
    /// driver per neighborhood, every one held to the model bit for bit
    /// across the whole matrix (see the module docs). Each case draws a
    /// small trace with seeks on or off segment boundaries, its start
    /// times to the second or rounded down to 5 minutes or an hour (so
    /// sessions start together and continuations fall on their second),
    /// and, for the run, a fill override, the coax (the paper's, or two
    /// channels for video on demand — eight streams, which small traces
    /// overrun), the global LFU's lag, the delayed LFU's fetch latency (10
    /// seconds, or a segment's 300, which a coarse clock's misses land
    /// exactly on) and the warm-up.
    #[test]
    fn builder_is_bit_identical_to_the_reference_model(
        users in 60u32..220,
        nbhd in 25u32..120,
        gb in 1u64..5,
        seed in 0u64..500,
        plan_seed in 0u64..200,
        shape in (0usize..3, 0usize..3),
        knobs in (0usize..3, 0usize..2, 0usize..2, 0usize..2, 0u64..4),
    ) {
        let (boundary, granule) = shape;
        let (fill, narrow, lag, latency, warmup) = knobs;
        let trace = coarse(
            generate(&SynthConfig {
                seek_prob: 0.3,
                seek_boundary_secs: [60, 120, 300][boundary],
                ..tiny_config(users, 30, 3, seed)
            }),
            [1, 300, 3_600][granule],
        );
        let chunked = ChunkedTrace::new(&trace, 64);
        let seeded = FaultPlan::seeded(
            plan_seed,
            users.div_ceil(nbhd),
            SimDuration::from_days(3),
            4,
            2,
        );
        let fill = [None, Some(FillPolicy::OnBroadcast), Some(FillPolicy::Prefetch)][fill];
        let coax = [
            CoaxSpec::paper_default(),
            CoaxSpec {
                // 88 QAM channels, 86 of them television.
                downstream: BitRate::from_bps(88 * QAM256_CHANNEL_RATE.as_bps()),
                ..CoaxSpec::paper_default()
            },
        ][narrow];
        let lag = [SimDuration::ZERO, SimDuration::from_minutes(30)][lag];
        for spec in all_strategies(lag, [10_000, 300_000][latency]) {
            for admission in [AdmissionMode::Counting, AdmissionMode::Enforcing] {
                for faults in [FaultPlan::empty(), seeded.clone()] {
                    for placement in [PlacementPolicy::Balanced, PlacementPolicy::FirstFit] {
                        for replication in [1, 2] {
                            let mut config = config_for(nbhd, gb, spec)
                                .with_warmup_days(warmup)
                                .with_faults(faults.clone())
                                .with_admission(admission)
                                .with_retry(RetryPolicy::paper_default())
                                .with_placement(placement)
                                .with_replication(replication)
                                .with_coax_spec(coax);
                            if let Some(fill) = fill {
                                config = config.with_fill_override(fill);
                            }
                            let what = format!(
                                "{} under {admission:?}, {} fault events, {placement:?}, \
                                 replication {replication}, fill {fill:?}, {coax:?}",
                                spec.compact(),
                                faults.events().len()
                            );
                            let model = reference::simulate(&trace, &config);
                            let resident = || Simulation::over(&trace).config(config.clone());
                            let streamed = || Simulation::over(&chunked).config(config.clone());
                            for (how, outcome) in [
                                ("serial", resident().serial().run()),
                                ("threads(3)", resident().threads(3).run()),
                                ("streamed", streamed().run()),
                                ("streamed threads(2)", streamed().threads(2).run()),
                            ] {
                                let outcome = outcome.expect("the engine runs");
                                prop_assert_eq!(&outcome.report, &model, "{}, {}", how, &what);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `trace` with every start rounded down to a multiple of `granule`
/// seconds (the order stays time order).
fn coarse(trace: Trace, granule: u64) -> Trace {
    let (mut records, catalog, users, days) = trace.into_parts();
    for rec in &mut records {
        rec.start = SimTime::from_secs(rec.start.as_secs() / granule * granule);
    }
    Trace::new(records, catalog, users, days).expect("still a trace")
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
