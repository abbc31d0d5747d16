//! Declarative experiment descriptions: [`Scenario`] specs and their
//! one executor.
//!
//! A [`Scenario`] is data — a trace source ([`SourceSpec`]), a base
//! [`SimConfig`], two sweep axes ([`AxisPoint`]s for figure *series* and
//! *points*, each able to patch the config, switch the strategy, or even
//! swap the trace source), and a [`ThreadPolicy`]. One cell loop
//! ([`exec`]) turns any such description into labelled results, which is
//! how the paper's sweeps are spec files (`scenarios/paper/*.scn`) and
//! how the `cablevod-scenario` binary runs any experiment from a spec
//! file end-to-end. The model and
//! the config-key table live here; [`source`] holds workload
//! descriptions, [`spec`] the `.scn` codec, [`checkpoint`] the journal.
//!
//! # Execution model
//!
//! The job list is the cross product `points × series` (point-major, so
//! figure rows group naturally). Every cell — serial or sharded engine
//! ([`ThreadPolicy`]) — is an independent job fanned out over up to
//! [`Scenario::sweep_width`] workers of the shared pool; a sharded
//! cell's own workers draw from the same process-wide ledger (see
//! [`crate::runner`]), so small cells pack around a big sharded job.
//! Either way results come back in job order and are bit-identical to
//! running each job by hand.
//!
//! A point that carries its own [`AxisPoint::source`] materializes that
//! source *inside its job* and drops it before the job returns — a sweep
//! over differently-scaled traces ([`SourceSpec::Scaled`], the Fig 15–16
//! shape) holds at most one scaled trace per in-flight job, never the
//! whole grid.
//!
//! There is one executor; journal, retry, timeout, `keep_going` and a
//! progress hook are its options. [`Scenario::execute_resilient`] takes
//! them all and reports every cell's terminal state in a
//! [`GridOutcome`]; [`Scenario::execute`] / [`Scenario::execute_on`]
//! (and their `_with` registry variants) are the same loop with
//! [`ResilienceOptions::default`], returning the completed cells or the
//! first failed cell's error.
//!
//! # The spec-file format
//!
//! [`Scenario::to_spec_string`] / [`Scenario::from_spec_str`] round-trip
//! a scenario through a small line-based text format (written for the
//! offline build environment — the serde derives on these types are the
//! vendored markers):
//!
//! ```text
//! name = smoke
//! threads = serial            # serial | auto | engine:<n>
//! sweep_width = 2             # optional cap on concurrent sweep jobs
//!
//! [source]
//! kind = synth                # synth | synth-disk | columnar | csv | scaled | provided
//! preset = smoke_test         # synth presets: powerinfo | experiment_default | smoke_test
//! users = 400
//! days = 3
//!
//! [config]
//! strategy = lfu:7d           # StrategySpec::parse grammar (built-ins only here;
//!                             # axis entries may use strategy=@name for registry entries)
//! neighborhood_size = 100     # every other key: the config-key table, below
//! per_peer_storage_gb = 2
//! warmup_days = 1
//! admission = enforcing       # counting (default) | enforcing
//! retry = 3x30s               # <max_retries>x<base_backoff_secs>s
//!
//! [faults]                    # optional degraded-plant plan (crate-level "Fault model" docs):
//! outage = start=3600 end=5400 nbhd=2      # seconds; omit nbhd= for plant-wide
//! derate = start=0 end=86400 permille=500 nbhd=0
//! seeded = seed=42 neighborhoods=4 outages=3 derates=2 horizon_days=3
//!                             # seeded entries expand to explicit events at parse
//!                             # time, so a re-rendered spec lists them explicitly
//!
//! [series]                    # one labelled axis entry per line:
//! LRU = strategy=lru          #   label = key=value ...  [| source key=value ...]
//! LFU = strategy=lfu:7d
//!
//! [points]
//! 1GB = per_peer_storage_gb=1
//! 2GB = per_peer_storage_gb=2
//! ```
//!
//! Fields the format cannot express (a custom coax envelope, exotic
//! synth-generator parameters) make [`Scenario::to_spec_string`] fail
//! rather than silently drop them — such scenarios stay programmatic.
//!
//! # The config-key table
//!
//! The swept [`SimConfig`] fields are declared **once**, in the
//! `config_keys!` invocation below: a row gives the [`ConfigPatch`] field
//! and setter, the `SimConfig` setter and getter, and the `.scn` key
//! with its parse and render. `[config]` and an axis entry are both a
//! `ConfigPatch` parsed by one function (`[config]` applies its patch to
//! [`SimConfig::paper_default`] and renders every row, an axis entry only
//! the rows it sets), so **adding a swept field is adding one row**.
//! `strategy` stays outside the table: `[config]` takes a built-in
//! [`StrategySpec`], an axis entry a [`StrategyRef`].
//!
//! # Crash safety & resume
//!
//! With a [`ResilienceOptions::checkpoint`] (the `cablevod-scenario`
//! `--checkpoint`/`--resume` flags) a grid survives panics, stragglers,
//! and hard kills:
//!
//! * **Cell-identity contract** — every job is one *cell* of the
//!   point-major cross product, identified by a stable, hashable
//!   [`CellKey`] `{point, series}`: indices into [`Scenario::points`] /
//!   [`Scenario::series`] in declaration order (implicit axes count as
//!   one entry at index 0). Cell `(p, s)` is job number
//!   `p * series_len + s`, and this mapping is part of the spec format's
//!   compatibility surface — reordering axis entries changes cell
//!   identities (and the spec fingerprint with them).
//! * **Journal record format** — the checkpoint journal is JSONL: one
//!   `CVJ1 <crc32-hex> <json>` line per record, a header first (scenario
//!   name, [`Scenario::fingerprint`], cell count), then one record per
//!   *completed* cell carrying its integer-exact
//!   [`SimReport`](crate::SimReport). The CRC-32 (same polynomial as the
//!   columnar trace format) covers the JSON body bytes.
//! * **CRC coverage & the torn-tail rule** — the journal is published by
//!   write-temp-then-rename so it is always absent or valid; on load, a
//!   corrupt *final* record (torn or bit-flipped tail) is detected and
//!   dropped — never trusted — while corruption *before* a valid record
//!   fails the whole load. Details in [`checkpoint`].
//! * **Isolation, retry, timeout** — each cell runs under
//!   `catch_unwind`, so one panicking job poisons only its own cell
//!   (journal or not); failed cells retry with bounded exponential
//!   backoff ([`JobRetry`], the executor-level mirror of the plant-level
//!   [`RetryPolicy`]); an optional per-attempt wall-clock timeout runs
//!   the cell on a watchdog thread and abandons a straggler there as
//!   failed. A completed cell is journaled *before* it is reported. The
//!   first cell to exhaust its retries stops the grid (cells in flight
//!   finish, unscheduled ones report [`CellResult::Skipped`]); with
//!   `keep_going` the rest of the grid completes and the failures are
//!   listed in the [`GridOutcome`] (`failed_cells` in the binary).
//!
//! Because every report field is an exact integer, a resumed grid's
//! final report is **byte-identical** to an uninterrupted run — replayed
//! cells skip their jobs entirely, including [`SourceSpec::Scaled`]
//! trace builds.

pub mod checkpoint;
pub mod exec;
pub mod source;
pub mod spec;

use cablevod_cache::{FillPolicy, PlacementPolicy, StrategySpec};
use cablevod_hfc::units::{DataSize, SimDuration};
use serde::{Deserialize, Serialize};

use crate::config::{AdmissionMode, RetryPolicy, SimConfig};
use crate::error::SimError;
use crate::simulation::ThreadPolicy;

pub use checkpoint::{
    json_string, report_from_json_str, report_to_json_string, CellKey, CellRecord,
    CheckpointJournal, JournalHeader,
};
pub use exec::{
    CellOutcome, CellResult, GridOutcome, JobRetry, ResilienceOptions, ScenarioOutcome,
};
pub use source::{OwnedSource, SourceSpec};

/// A serializable description of a whole experiment (see module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (reports and telemetry).
    pub name: String,
    /// Where the workload comes from.
    pub source: SourceSpec,
    /// The configuration every job starts from.
    pub base: SimConfig,
    /// The figure-series axis (strategies, fill modes, ...). Empty means
    /// one implicit series labelled after the base strategy.
    pub series: Vec<AxisPoint>,
    /// The figure-point (x) axis. Empty means one implicit point
    /// labelled `default`.
    pub points: Vec<AxisPoint>,
    /// How each job runs (see the module docs for sweep scheduling).
    pub threads: ThreadPolicy,
    /// Cap on concurrently running sweep jobs under
    /// [`ThreadPolicy::Serial`] (`None` = one per core). Points that
    /// materialize their own sources hold one workload per in-flight
    /// job, so a sweep over large per-point sources bounds its peak
    /// memory (and temp-disk footprint) with this knob — `Some(1)`
    /// reproduces a strict one-at-a-time sweep.
    pub sweep_width: Option<usize>,
}

/// One labelled entry on a scenario axis.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AxisPoint {
    /// Row/column label in figures and reports.
    pub label: String,
    /// Configuration overrides this entry applies on top of the base.
    pub patch: ConfigPatch,
    /// Strategy override (point-level wins over series-level).
    pub strategy: Option<StrategyRef>,
    /// Trace-source override: materialized inside the job and dropped
    /// with it (the Fig 15–16 scaled-trace shape).
    pub source: Option<SourceSpec>,
}

impl AxisPoint {
    /// A no-op entry with just a label.
    pub fn new(label: impl Into<String>) -> Self {
        AxisPoint {
            label: label.into(),
            ..AxisPoint::default()
        }
    }

    /// Sets the config patch.
    #[must_use]
    pub fn with_patch(mut self, patch: ConfigPatch) -> Self {
        self.patch = patch;
        self
    }

    /// Overrides the strategy with a built-in spec.
    #[must_use]
    pub fn with_strategy(mut self, spec: StrategySpec) -> Self {
        self.strategy = Some(StrategyRef::Spec(spec));
        self
    }

    /// Overrides the strategy with a registry name.
    #[must_use]
    pub fn with_strategy_named(mut self, name: impl Into<String>) -> Self {
        self.strategy = Some(StrategyRef::Named(name.into()));
        self
    }

    /// Overrides the trace source for this entry's jobs.
    #[must_use]
    pub fn with_source(mut self, source: SourceSpec) -> Self {
        self.source = Some(source);
        self
    }
}

/// How an axis entry names its strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StrategyRef {
    /// A built-in [`StrategySpec`].
    Spec(StrategySpec),
    /// A name resolved against the executor's
    /// [`StrategyRegistry`](cablevod_cache::StrategyRegistry)
    /// (out-of-tree strategies).
    Named(String),
}

/// Declares the swept [`SimConfig`] fields (module docs, "The config-key
/// table"). `alias` is a second, parse-only spelling of a key; `unset` is
/// how a row without a value reads in `[config]`.
macro_rules! config_keys {
    ($(
        #[$doc:meta]
        $field:ident: $ty:ty {
            set: $setter:ident, config: $with:ident / $get:ident,
            key: $key:literal, parse: $parse:expr, render: $render:expr
            $(, alias: $alias:literal, parse: $alias_parse:expr)?
            $(, unset: $unset:literal)?
        }
    )*) => {
        /// Optional overrides of the commonly swept [`SimConfig`] fields.
        #[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
        pub struct ConfigPatch {
            $(#[$doc] pub $field: Option<$ty>,)*
        }

        impl ConfigPatch {
            $(
                #[doc = concat!("Sets the `", stringify!($field), "` override.")]
                #[must_use]
                pub fn $setter(mut self, value: $ty) -> Self {
                    self.$field = Some(value);
                    self
                }
            )*

            /// Applies the set fields on top of `base`.
            pub fn apply(&self, mut base: SimConfig) -> SimConfig {
                $(if let Some(v) = self.$field {
                    base = base.$with(v);
                })*
                base
            }

            /// Every table field as `config` has it. (`Option::from` is
            /// `Some` for the plain getters and the identity for the one
            /// that is already optional.)
            pub(crate) fn of(config: &SimConfig) -> Self {
                ConfigPatch {
                    $($field: Option::from(config.$get()),)*
                }
            }

            /// Sets the field that the `.scn` pair `key = value` names.
            pub(crate) fn set_key(&mut self, key: &str, value: &str) -> Result<(), SimError> {
                let bad = || config_err(format!("bad value {key} = {value:?}"));
                $(
                    if key == $key {
                        $(if value == $unset {
                            self.$field = None;
                            return Ok(());
                        })?
                        self.$field = Some($parse(value).ok_or_else(bad)?);
                        return Ok(());
                    }
                    $(if key == $alias {
                        self.$field = Some($alias_parse(value).ok_or_else(bad)?);
                        return Ok(());
                    })?
                )*
                Err(config_err(format!("unknown config key {key:?}")))
            }

            /// The `.scn` pairs of the set fields, in table order; with
            /// `every_row`, also of unset fields that have an `unset`
            /// spelling.
            pub(crate) fn pairs(&self, every_row: bool) -> Vec<(String, String)> {
                let mut out = Vec::new();
                $(match self.$field {
                    Some(v) => out.push(($key.to_string(), $render(v))),
                    None => {$(
                        if every_row {
                            out.push(($key.to_string(), $unset.to_string()));
                        }
                    )?}
                })*
                out
            }
        }
    };
}

config_keys! {
    /// Overrides [`SimConfig::neighborhood_size`].
    neighborhood_size: u32 {
        set: with_neighborhood_size, config: with_neighborhood_size / neighborhood_size,
        key: "neighborhood_size", parse: number, render: (|v: u32| v.to_string())
    }
    /// Overrides [`SimConfig::per_peer_storage`].
    per_peer_storage: DataSize {
        set: with_per_peer_storage, config: with_per_peer_storage / per_peer_storage,
        key: "per_peer_storage_bytes",
        parse: (|v| number(v).map(DataSize::from_bytes)),
        render: (|v: DataSize| v.as_bytes().to_string()),
        alias: "per_peer_storage_gb", parse: (|v| number(v).map(DataSize::from_gigabytes))
    }
    /// Overrides [`SimConfig::stream_slots`].
    stream_slots: u8 {
        set: with_stream_slots, config: with_stream_slots / stream_slots,
        key: "stream_slots", parse: number, render: (|v: u8| v.to_string())
    }
    /// Overrides [`SimConfig::segment_len`].
    segment_len: SimDuration {
        set: with_segment_len, config: with_segment_len / segment_len,
        key: "segment_len_secs",
        parse: (|v| number(v).map(SimDuration::from_secs)),
        render: (|v: SimDuration| v.as_secs().to_string())
    }
    /// Overrides [`SimConfig::warmup_days`].
    warmup_days: u64 {
        set: with_warmup_days, config: with_warmup_days / warmup_days,
        key: "warmup_days", parse: number, render: (|v: u64| v.to_string())
    }
    /// Overrides [`SimConfig::replication`].
    replication: u8 {
        set: with_replication, config: with_replication / replication,
        key: "replication", parse: number, render: (|v: u8| v.to_string())
    }
    /// Overrides [`SimConfig::placement`].
    placement: PlacementPolicy {
        set: with_placement, config: with_placement / placement,
        key: "placement", parse: parse_placement, render: placement_string
    }
    /// Overrides the fill policy ([`SimConfig::with_fill_override`]).
    fill: FillPolicy {
        set: with_fill, config: with_fill_override / fill_override,
        key: "fill", parse: parse_fill, render: fill_string, unset: "default"
    }
    /// Overrides [`SimConfig::admission`].
    admission: AdmissionMode {
        set: with_admission, config: with_admission / admission,
        key: "admission", parse: parse_admission, render: admission_string
    }
    /// Overrides [`SimConfig::retry`].
    retry: RetryPolicy {
        set: with_retry, config: with_retry / retry,
        key: "retry", parse: parse_retry, render: retry_string
    }
}

fn config_err(reason: String) -> SimError {
    SimError::Config { reason }
}

fn number<T: std::str::FromStr>(text: &str) -> Option<T> {
    text.parse().ok()
}

fn placement_string(policy: PlacementPolicy) -> String {
    match policy {
        PlacementPolicy::Balanced => "balanced".into(),
        PlacementPolicy::FirstFit => "first-fit".into(),
        PlacementPolicy::Random { seed } => format!("random:{seed}"),
    }
}

fn parse_placement(text: &str) -> Option<PlacementPolicy> {
    match text {
        "balanced" => Some(PlacementPolicy::Balanced),
        "first-fit" => Some(PlacementPolicy::FirstFit),
        _ => Some(PlacementPolicy::Random {
            seed: number(text.strip_prefix("random:")?)?,
        }),
    }
}

fn fill_string(fill: FillPolicy) -> String {
    match fill {
        FillPolicy::OnBroadcast => "on-broadcast".into(),
        FillPolicy::Prefetch => "prefetch".into(),
    }
}

fn parse_fill(text: &str) -> Option<FillPolicy> {
    match text {
        "on-broadcast" => Some(FillPolicy::OnBroadcast),
        "prefetch" => Some(FillPolicy::Prefetch),
        _ => None,
    }
}

fn admission_string(mode: AdmissionMode) -> String {
    match mode {
        AdmissionMode::Counting => "counting".into(),
        AdmissionMode::Enforcing => "enforcing".into(),
    }
}

fn parse_admission(text: &str) -> Option<AdmissionMode> {
    match text {
        "counting" => Some(AdmissionMode::Counting),
        "enforcing" => Some(AdmissionMode::Enforcing),
        _ => None,
    }
}

/// `3x30s` — three retries, 30-second base backoff.
fn retry_string(retry: RetryPolicy) -> String {
    format!(
        "{}x{}s",
        retry.max_retries(),
        retry.base_backoff().as_secs()
    )
}

fn parse_retry(text: &str) -> Option<RetryPolicy> {
    let (max, backoff) = text.split_once('x')?;
    Some(RetryPolicy::new(
        number(max)?,
        SimDuration::from_secs(number(backoff.strip_suffix('s')?)?),
    ))
}

impl Scenario {
    /// A scenario with no axes over `source` and `base`.
    pub fn new(name: impl Into<String>, source: SourceSpec, base: SimConfig) -> Self {
        Scenario {
            name: name.into(),
            source,
            base,
            series: Vec::new(),
            points: Vec::new(),
            threads: ThreadPolicy::Serial,
            sweep_width: None,
        }
    }

    /// A scenario whose workload is supplied at execution time
    /// ([`Scenario::execute_on`]).
    pub fn provided(name: impl Into<String>, base: SimConfig) -> Self {
        Scenario::new(name, SourceSpec::Provided, base)
    }

    /// Sets the series axis.
    #[must_use]
    pub fn with_series(mut self, series: Vec<AxisPoint>) -> Self {
        self.series = series;
        self
    }

    /// Sets the point axis.
    #[must_use]
    pub fn with_points(mut self, points: Vec<AxisPoint>) -> Self {
        self.points = points;
        self
    }

    /// Sets the thread policy.
    #[must_use]
    pub fn with_threads(mut self, threads: ThreadPolicy) -> Self {
        self.threads = threads;
        self
    }

    /// Caps concurrently running sweep jobs (see
    /// [`Scenario::sweep_width`]).
    #[must_use]
    pub fn with_sweep_width(mut self, width: usize) -> Self {
        self.sweep_width = Some(width.max(1));
        self
    }

    /// The number of grid cells this scenario resolves to: `points x
    /// series`, with empty axes counting as one implicit entry.
    pub fn job_count(&self) -> usize {
        self.points.len().max(1) * self.series.len().max(1)
    }

    /// A stable identity of this scenario description: the CRC-32 of its
    /// canonical spec rendering (or of its debug form for scenarios the
    /// spec format cannot express). Two scenarios with equal fingerprints
    /// have the same grid shape, cell identities, and per-cell
    /// configuration — which is what lets a checkpoint journal refuse to
    /// resume under a different spec.
    pub fn fingerprint(&self) -> u32 {
        let text = self
            .to_spec_string()
            .unwrap_or_else(|_| format!("{self:?}"));
        cablevod_trace::checksum::crc32(text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cablevod_hfc::units::BitRate;
    use cablevod_trace::scale;
    use cablevod_trace::synth::{generate, SynthConfig};

    fn smoke_synth() -> SynthConfig {
        SynthConfig {
            users: 300,
            programs: 60,
            days: 3,
            ..SynthConfig::smoke_test()
        }
    }

    fn base_config() -> SimConfig {
        SimConfig::paper_default()
            .with_neighborhood_size(100)
            .with_per_peer_storage(DataSize::from_gigabytes(2))
            .with_warmup_days(1)
    }

    #[test]
    fn execute_produces_the_cross_product_in_order() {
        let scenario = Scenario::new("grid", SourceSpec::Synth(smoke_synth()), base_config())
            .with_series(vec![
                AxisPoint::new("LRU").with_strategy(StrategySpec::Lru),
                AxisPoint::new("LFU").with_strategy(StrategySpec::default_lfu()),
            ])
            .with_points(vec![
                AxisPoint::new("1GB").with_patch(
                    ConfigPatch::default().with_per_peer_storage(DataSize::from_gigabytes(1)),
                ),
                AxisPoint::new("2GB").with_patch(
                    ConfigPatch::default().with_per_peer_storage(DataSize::from_gigabytes(2)),
                ),
            ]);
        let outcomes = scenario.execute().expect("runs");
        let labels: Vec<(&str, &str)> = outcomes
            .iter()
            .map(|o| (o.series.as_str(), o.point.as_str()))
            .collect();
        assert_eq!(
            labels,
            vec![
                ("LRU", "1GB"),
                ("LFU", "1GB"),
                ("LRU", "2GB"),
                ("LFU", "2GB")
            ]
        );
        // Jobs are real, distinct simulations of the same workload.
        assert!(outcomes.iter().all(|o| o.report().sessions > 0));
        assert_eq!(outcomes[0].report().sessions, outcomes[3].report().sessions);
    }

    #[test]
    fn execute_matches_direct_runs_bit_for_bit() {
        let trace = generate(&smoke_synth());
        let one_gb = DataSize::from_gigabytes(1);
        // Each point with the config a by-hand run of it uses: a strategy
        // switch, and a strategy switch plus a config patch.
        let points = [
            (
                AxisPoint::new("lru").with_strategy(StrategySpec::Lru),
                base_config().with_strategy(StrategySpec::Lru),
            ),
            (
                AxisPoint::new("oracle").with_strategy(StrategySpec::default_oracle()),
                base_config().with_strategy(StrategySpec::default_oracle()),
            ),
            (
                AxisPoint::new("lru-1gb")
                    .with_strategy(StrategySpec::Lru)
                    .with_patch(ConfigPatch::default().with_per_peer_storage(one_gb)),
                base_config()
                    .with_strategy(StrategySpec::Lru)
                    .with_per_peer_storage(one_gb),
            ),
        ];
        let scenario = Scenario::provided("direct", base_config())
            .with_points(points.iter().map(|(point, _)| point.clone()).collect());
        let outcomes = scenario.execute_on(&trace).expect("runs");
        assert_eq!(outcomes.len(), points.len());
        for (o, (point, config)) in outcomes.iter().zip(&points) {
            assert_eq!(o.point, point.label);
            let direct = crate::engine::run(&trace, config).expect("runs");
            assert_eq!(o.report(), &direct, "point {}", o.point);
        }
    }

    #[test]
    fn scaled_points_materialize_inside_their_jobs() {
        let trace = generate(&smoke_synth());
        let scenario = Scenario::provided("scaling", base_config()).with_points(vec![
            AxisPoint::new("x1").with_source(SourceSpec::Scaled {
                population: 1,
                catalog: 1,
                seed: 7,
            }),
            AxisPoint::new("x2").with_source(SourceSpec::Scaled {
                population: 2,
                catalog: 1,
                seed: 7,
            }),
        ]);
        let outcomes = scenario.execute_on(&trace).expect("runs");
        assert_eq!(outcomes.len(), 2);
        assert!(
            outcomes[1].report().sessions > outcomes[0].report().sessions,
            "doubling the population must add sessions"
        );
        let direct = crate::engine::run(
            &scale::scale(&trace, 2, 1, 7).expect("scales"),
            &base_config(),
        )
        .expect("runs");
        assert_eq!(outcomes[1].report(), &direct);
    }

    #[test]
    fn provided_sources_cannot_self_materialize() {
        let scenario = Scenario::provided("nope", base_config());
        assert!(scenario.execute().is_err());
    }

    #[test]
    fn malformed_fault_entry_names_line_number_and_text() {
        let spec = "name = broken\n\n[faults]\noutage = start=10 end=never\n";
        let err = Scenario::from_spec_str(spec).expect_err("bad fault field");
        let text = err.to_string();
        assert!(text.contains("spec line 4"), "no line number in: {text}");
        assert!(
            text.contains("outage = start=10 end=never"),
            "no line text in: {text}"
        );
        assert!(text.contains("bad fault field end"), "no cause in: {text}");
    }

    #[test]
    fn bad_series_override_names_line_number_and_text() {
        // One parser serves both sections, so a bad value reads the same
        // on an axis and in `[config]`: line number, line text, key.
        for (section, line) in [
            ("series", "LFU = warmup_days=threeish"),
            ("config", "warmup_days = threeish"),
        ] {
            let spec = format!("name = broken\n\n[{section}]\n{line}\n");
            let err = Scenario::from_spec_str(&spec).expect_err("bad value");
            let text = err.to_string();
            assert!(text.contains("spec line 4"), "no line number in: {text}");
            assert!(text.contains(line), "no line text in: {text}");
            assert!(
                text.contains("bad value warmup_days = \"threeish\""),
                "no key in: {text}"
            );
        }
    }

    /// Every key of the table, and the `_gb` alias, parses in `[config]`
    /// and on an axis to the same value.
    #[test]
    fn every_config_key_parses_the_same_in_config_and_on_an_axis() {
        let mut every = ConfigPatch::of(
            &base_config()
                .with_placement(PlacementPolicy::Random { seed: 9 })
                .with_fill_override(FillPolicy::Prefetch)
                .with_admission(AdmissionMode::Enforcing)
                .with_retry(RetryPolicy::new(2, SimDuration::from_secs(45))),
        )
        .pairs(true);
        assert_eq!(every.len(), 10, "one pair per table row");
        every.push(("per_peer_storage_gb".into(), "3".into()));
        for (key, value) in every {
            let spec = format!(
                "name = parity\n\n[config]\n{key} = {value}\n\n[points]\nP = {key}={value}\n"
            );
            let scenario = Scenario::from_spec_str(&spec).expect("both sections parse");
            let patch = &scenario.points[0].patch;
            assert_eq!(patch.pairs(false).len(), 1, "{key} sets one field");
            assert_eq!(
                scenario.base,
                patch.apply(SimConfig::paper_default()),
                "{key} = {value}"
            );
        }
    }

    #[test]
    fn spec_round_trips() {
        let scenario = Scenario::new(
            "round-trip",
            SourceSpec::Synth(smoke_synth()),
            base_config()
                .with_strategy(StrategySpec::default_oracle())
                .with_placement(PlacementPolicy::Random { seed: 9 })
                .with_fill_override(FillPolicy::Prefetch),
        )
        .with_threads(ThreadPolicy::Fixed(4))
        .with_sweep_width(2)
        .with_series(vec![
            AxisPoint::new("LRU").with_strategy(StrategySpec::Lru),
            AxisPoint::new("custom").with_strategy_named("prior-storing"),
        ])
        .with_points(vec![
            AxisPoint::new("small").with_patch(
                ConfigPatch::default()
                    .with_per_peer_storage(DataSize::from_gigabytes(1))
                    .with_neighborhood_size(50)
                    .with_fill(FillPolicy::OnBroadcast),
            ),
            AxisPoint::new("x3").with_source(SourceSpec::Scaled {
                population: 3,
                catalog: 2,
                seed: 11,
            }),
        ]);
        let text = scenario.to_spec_string().expect("serializes");
        let parsed = Scenario::from_spec_str(&text).expect("parses");
        assert_eq!(parsed, scenario, "spec text:\n{text}");
    }

    #[test]
    fn spec_round_trips_multi_size_rechunk() {
        let scenario = Scenario::new(
            "rechunk-sweep",
            SourceSpec::SynthDisk {
                synth: smoke_synth(),
                chunk_records: 256,
                rechunk: vec![60, 100],
            },
            base_config(),
        )
        .with_points(vec![
            AxisPoint::new("N60").with_patch(ConfigPatch::default().with_neighborhood_size(60)),
            AxisPoint::new("N100").with_patch(ConfigPatch::default().with_neighborhood_size(100)),
        ]);
        let text = scenario.to_spec_string().expect("serializes");
        assert!(text.contains("rechunk = 60,100"), "spec text:\n{text}");
        let parsed = Scenario::from_spec_str(&text).expect("parses");
        assert_eq!(parsed, scenario, "spec text:\n{text}");

        // A single size must serialize exactly as the pre-multi-index
        // scalar form did, so existing checkpoint fingerprints hold.
        let columnar = Scenario::new(
            "rechunk-columnar",
            SourceSpec::Columnar {
                path: "trace.cvtc".into(),
                rechunk: vec![80],
            },
            base_config(),
        );
        let text = columnar.to_spec_string().expect("serializes");
        assert!(text.contains("rechunk = 80\n"), "spec text:\n{text}");
        let parsed = Scenario::from_spec_str(&text).expect("parses");
        assert_eq!(parsed, columnar, "spec text:\n{text}");
    }

    #[test]
    fn spec_parse_rejects_malformed_input() {
        assert!(Scenario::from_spec_str("name = x\n[wat]\n").is_err());
        assert!(Scenario::from_spec_str("name = x\nnot a pair\n").is_err());
        assert!(
            Scenario::from_spec_str("threads = serial\n").is_err(),
            "missing name"
        );
        assert!(Scenario::from_spec_str("name = x\n[config]\nstrategy = warp-drive\n").is_err());
    }

    #[test]
    fn spec_rejects_inexpressible_scenarios() {
        let custom_rate = Scenario::provided(
            "x",
            SimConfig::paper_default().with_stream_rate(BitRate::from_bps(1)),
        );
        assert!(custom_rate.to_spec_string().is_err());

        // Names/labels the line format cannot carry fail loudly instead
        // of corrupting on round-trip.
        let hash_name = Scenario::provided("smoke # v2", SimConfig::paper_default());
        assert!(hash_name.to_spec_string().is_err());
        let eq_label = Scenario::provided("ok", SimConfig::paper_default())
            .with_points(vec![AxisPoint::new("cap=1")]);
        assert!(eq_label.to_spec_string().is_err());
        let pipe_label = Scenario::provided("ok", SimConfig::paper_default())
            .with_series(vec![AxisPoint::new("a|b")]);
        assert!(pipe_label.to_spec_string().is_err());
    }

    #[test]
    fn sweep_width_one_bounds_in_flight_override_sources() {
        // Behavioral floor: width 1 must produce the same results as the
        // default parallel sweep, in order (the memory bound itself is
        // what the scaling specs, `scenarios/paper/fig15.scn` and kin,
        // rely on).
        let trace = generate(&smoke_synth());
        let points = vec![
            AxisPoint::new("x1").with_source(SourceSpec::Scaled {
                population: 1,
                catalog: 1,
                seed: 5,
            }),
            AxisPoint::new("x2").with_source(SourceSpec::Scaled {
                population: 2,
                catalog: 1,
                seed: 5,
            }),
        ];
        let wide = Scenario::provided("wide", base_config())
            .with_points(points.clone())
            .execute_on(&trace)
            .expect("wide sweep runs");
        let narrow = Scenario::provided("narrow", base_config())
            .with_points(points)
            .with_sweep_width(1)
            .execute_on(&trace)
            .expect("width-1 sweep runs");
        assert_eq!(wide.len(), narrow.len());
        for (a, b) in wide.iter().zip(&narrow) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.report(), b.report());
        }
    }
}
