//! The strategy-zoo guarantees: every literature strategy added by the
//! open-lifecycle seams (ARC, TLRU, prior-storing, delayed-hits LFU) is
//! bit-identical across all four drivers (serial/sharded ×
//! resident/streaming) and every worker count; a zero-latency
//! [`FetchModel`] is observationally inert for the paper's five seed
//! strategies (and a nonzero one touches *only* the delayed-hit
//! counters); the widened spec grammar round-trips; and the committed
//! `scenarios/strategy_zoo.scn` matrix loads, round-trips, and names
//! every cell CI races head-to-head.

mod helpers;

use std::sync::Arc;

use proptest::prelude::*;

use cablevod_cache::strategy::{StrategyContext, StrategyFactory};
use cablevod_cache::{CacheError, CacheStrategy, FetchModel, StrategySpec};
use cablevod_hfc::units::{DataSize, SimDuration};
use cablevod_sim::{run, Scenario, SimConfig, Simulation};
use cablevod_trace::record::Trace;
use cablevod_trace::source::ChunkedTrace;
use cablevod_trace::synth::generate;
use helpers::tiny_config;

/// The four literature strategies this PR adds, with parameters that
/// exercise their distinctive machinery on a small trace: a tight TTU so
/// TLRU actually expires, and a fetch latency coarse enough (10 s at
/// 1-second trace resolution) that misses coalesce into delayed hits.
fn new_specs() -> [StrategySpec; 4] {
    [
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

/// The paper's five seed strategies (the pre-PR report baseline).
fn legacy(pick: usize) -> StrategySpec {
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

/// Every new strategy produces one report, whichever of the four drivers
/// (and worker counts) computes it: resident serial is the reference,
/// resident sharded, streaming serial and streaming sharded must match
/// bit-for-bit — merged delayed-hit/prefetch counters included.
#[test]
fn new_strategies_are_bit_identical_on_all_four_drivers() {
    let trace: Trace = generate(&tiny_config(300, 40, 4, 29));
    for spec in new_specs() {
        let config = config_for(60, 2, spec);
        let resident = run(&trace, &config).expect("resident serial runs");
        for threads in [1, 2, 5] {
            let sharded = Simulation::over(&trace)
                .config(config.clone())
                .threads(threads)
                .run()
                .expect("resident sharded runs");
            assert_eq!(
                sharded.report, resident,
                "resident sharded, {spec:?}, {threads} threads"
            );
        }
        for chunk in [1usize, 64, trace.len()] {
            let source = ChunkedTrace::new(&trace, chunk);
            let streamed = run(&source, &config).expect("streaming serial runs");
            assert_eq!(
                streamed, resident,
                "streaming serial, {spec:?}, chunk {chunk}"
            );
            for threads in [1, 2, 5] {
                let sharded = Simulation::over(&source)
                    .config(config.clone())
                    .threads(threads)
                    .run()
                    .expect("streaming sharded runs");
                assert_eq!(
                    sharded.report, resident,
                    "streaming sharded, {spec:?}, chunk {chunk}, {threads} threads"
                );
            }
        }
        if let StrategySpec::DelayedLfu { .. } = spec {
            assert!(
                resident.cache.inflight_misses > 0,
                "the 10 s fetch model must actually track in-flight misses"
            );
        } else {
            assert_eq!(
                resident.cache.inflight_misses, 0,
                "{spec:?} models no fetches"
            );
            assert_eq!(resident.cache.delayed_hits, 0, "{spec:?} models no fetches");
        }
    }
}

/// A factory wrapper that forces a [`FetchModel`] onto any built-in
/// strategy — the seam an out-of-tree policy would use — so the
/// properties below can vary the model without varying the policy.
#[derive(Debug)]
struct WithFetchModel {
    inner: Arc<dyn StrategyFactory>,
    fetch: FetchModel,
}

impl StrategyFactory for WithFetchModel {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn needs_feed(&self) -> bool {
        self.inner.needs_feed()
    }
    fn schedule_lookahead(&self) -> Option<SimDuration> {
        self.inner.schedule_lookahead()
    }
    fn fetch_model(&self) -> Option<FetchModel> {
        Some(self.fetch)
    }
    fn build(&self, ctx: StrategyContext) -> Result<Box<dyn CacheStrategy>, CacheError> {
        self.inner.build(ctx)
    }
}

fn run_with_model(
    trace: &Trace,
    config: &SimConfig,
    spec: StrategySpec,
    fetch: FetchModel,
) -> cablevod_sim::SimReport {
    Simulation::over(trace)
        .config(config.clone())
        .strategy_factory(Arc::new(WithFetchModel {
            inner: spec.factory(),
            fetch,
        }))
        .run()
        .expect("fetch-model run")
        .report
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The fetch model is accounting-only: a zero-latency model leaves
    /// every legacy strategy's report byte-identical to the seed run,
    /// and a nonzero one changes nothing *but* the two delayed-hit
    /// counters — resolution, trajectory and every other field hold.
    #[test]
    fn zero_latency_fetch_model_is_inert_for_legacy_strategies(
        users in 80u32..240,
        gb in 1u64..4,
        pick in 0usize..5,
        seed in 0u64..300,
    ) {
        let trace = generate(&tiny_config(users, 30, 3, seed));
        let spec = legacy(pick);
        let config = config_for(60, gb, spec);
        let baseline = run(&trace, &config).expect("seed run");
        prop_assert_eq!(baseline.cache.delayed_hits, 0);
        prop_assert_eq!(baseline.cache.inflight_misses, 0);

        let instant = run_with_model(&trace, &config, spec, FetchModel::instant());
        prop_assert_eq!(&instant, &baseline, "zero latency must be byte-identical");

        let latent = run_with_model(&trace, &config, spec, FetchModel::with_latency_ms(10_000));
        let mut scrubbed = latent.clone();
        scrubbed.cache.delayed_hits = 0;
        scrubbed.cache.inflight_misses = 0;
        prop_assert_eq!(
            &scrubbed, &baseline,
            "a nonzero latency may only touch the delayed-hit counters"
        );
    }
}

/// The widened grammar round-trips through compact form for every new
/// strategy, including non-default parameters.
#[test]
fn widened_grammar_round_trips() {
    for text in [
        "arc",
        "arc:512",
        "tlru:30m",
        "prior-storing:1d",
        "delayed-lfu:3d:200ms",
        "delayed-lfu:3d:10s",
    ] {
        let spec = StrategySpec::parse(text).expect("parses");
        let rendered = spec.compact();
        assert_eq!(
            StrategySpec::parse(&rendered).expect("compact form reparses"),
            spec,
            "round-trip through {rendered:?}"
        );
    }
}

/// The committed zoo matrix: loads, renders back to an equal spec, and
/// covers all nine registered strategies at two cache sizes (18 cells).
#[test]
fn zoo_scenario_loads_and_round_trips() {
    let scenario = Scenario::load("scenarios/strategy_zoo.scn").expect("zoo spec loads");
    assert_eq!(scenario.name, "strategy_zoo");
    assert_eq!(scenario.job_count(), 18, "9 strategies x 2 cache sizes");
    let text = scenario.to_spec_string().expect("renders");
    let back = Scenario::from_spec_str(&text).expect("reparses");
    assert_eq!(back, scenario, "spec round-trip");
}

/// A typo'd strategy deep in a spec file is a one-glance fix: the error
/// names the line number, the offending text, and the unknown name.
#[test]
fn unknown_strategy_in_a_spec_names_the_line() {
    let spec = "\
name = bad
threads = serial

[source]
kind = synth
preset = smoke_test

[config]
strategy = warp-drive:9
";
    let err = Scenario::from_spec_str(spec).expect_err("unknown strategy must fail");
    let text = err.to_string();
    assert!(text.contains("spec line 9"), "no line number in: {text}");
    assert!(
        text.contains("warp-drive"),
        "offending name missing in: {text}"
    );
}
