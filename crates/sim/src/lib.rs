//! # cablevod-sim — the trace-driven discrete-event simulator
//!
//! Reimplements the evaluation machinery of §V of *"Deploying
//! Video-on-Demand Services on Cable Networks"*, behind **one front
//! door**:
//!
//! * [`Simulation`] — the builder every run goes through:
//!   `Simulation::over(source).config(cfg).threads(n).run()` composes the
//!   per-neighborhood drivers over a resident or streaming
//!   [`TraceSource`](cablevod_trace::source::TraceSource) and returns a
//!   [`RunOutcome`] — the measured [`SimReport`] plus [`simulation::
//!   RunTelemetry`] (wall time, trace decode work, peak RSS). Out-of-tree
//!   cache strategies register on the builder by name through the open
//!   [`StrategyFactory`](cablevod_cache::StrategyFactory) /
//!   [`StrategyRegistry`](cablevod_cache::StrategyRegistry) interface;
//! * [`Scenario`] — a serializable description of a whole experiment
//!   (trace source, base config, series/point sweep axes, thread policy)
//!   with a generic executor; spec files round-trip through
//!   [`Scenario::to_spec_string`] and drive the `cablevod-scenario`
//!   binary end-to-end. There is one executor, every cell of it behind
//!   a `catch_unwind` bulkhead; [`Scenario::execute_resilient`] adds the
//!   optional extras — bounded retry, per-attempt timeouts, and a
//!   CRC-framed checkpoint journal ([`CheckpointJournal`]) that lets a
//!   killed grid resume to a byte-identical final report (see the
//!   [`scenario`] module's "Crash safety & resume" section);
//! * [`engine`] — the discrete-event core behind the facade: session
//!   records drive segment-granularity requests against per-neighborhood
//!   cooperative caches with exact byte accounting; every run — the
//!   builder's at any worker count, [`engine::run`], the online engine —
//!   is one driver per neighborhood, and all of them are held to a naive
//!   whole-plant reference model in the repo's tests (**bit-identical**,
//!   property-tested);
//! * [`config`] / [`report`] — the swept parameters and measured results;
//! * [`baseline`] — the no-cache centralized service and the
//!   headend-cache equivalence transform;
//! * [`multicast`] — the §IV-A "why not multicast" bounds;
//! * [`runner`] — the worker pool and permit ledger the sweep and shard
//!   layers share.
//!
//! # Fault model
//!
//! The paper's evaluation assumes a perfect plant; this crate can also
//! degrade it deterministically. A [`FaultPlan`] is a set of timed
//! [`FaultEvent`]s — segment/fiber-node **outages** and coax capacity
//! **derates** (a remaining-capacity permille), each scoped to one
//! neighborhood or plant-wide, active over a half-open `[start, end)`
//! window. Plans are normalized at construction (events sorted by a total
//! key), so declaration order never matters, and [`FaultPlan::seeded`]
//! expands a seed into a reproducible random plan; the same plan replayed
//! serial vs. sharded and resident vs. streaming yields **bit-identical**
//! reports, degradation section included, because every fault decision is
//! a pure function of per-neighborhood state at event timestamps.
//!
//! What a refused admission *does* depends on [`AdmissionMode`]:
//!
//! * **Counting** (default) — the refusal-worthy start or interruption is
//!   tallied in [`SimReport::degradation`] but the session proceeds
//!   exactly as on a healthy plant, so all pre-fault figures stay
//!   bit-identical. With an empty plan the degradation section is `None`
//!   and reports are byte-for-byte the same as before faults existed.
//! * **Enforcing** — a session that hits an outage or an exhausted
//!   channel budget is refused: the set-top box retries with bounded
//!   exponential backoff ([`RetryPolicy`]) and is **blocked** when
//!   retries run out; sessions in flight when their neighborhood's
//!   segment goes down are **interrupted** (dropped at the next segment
//!   boundary). Popularity stays request-driven: refused sessions still
//!   count as demand at their original request time.
//!
//! The consequences land in [`DegradationReport`]: blocked/interrupted
//! totals, a retries-before-admission histogram, and per-neighborhood
//! outage seconds plus time-to-recover (lag from each outage's end to the
//! first admitted session).
//!
//! # Examples
//!
//! ```
//! use cablevod_sim::{Scenario, Simulation, SimConfig, SourceSpec};
//! use cablevod_trace::synth::{generate, SynthConfig};
//!
//! let synth = SynthConfig { users: 300, programs: 60, days: 3,
//!     ..SynthConfig::smoke_test() };
//! let config = SimConfig::paper_default()
//!     .with_neighborhood_size(100)
//!     .with_warmup_days(1);
//!
//! // One run through the front door, with telemetry:
//! let trace = generate(&synth);
//! let outcome = Simulation::over(&trace).config(config.clone()).run()?;
//! println!("peak server load: {} in {:?}",
//!     outcome.report.server_peak.mean, outcome.telemetry.wall);
//!
//! // The same run as a declarative, serializable scenario:
//! let scenario = Scenario::new("quickstart", SourceSpec::Synth(synth), config);
//! let spec_text = scenario.to_spec_string()?;            // runnable by cablevod-scenario
//! assert_eq!(Scenario::from_spec_str(&spec_text)?, scenario);
//! assert_eq!(scenario.execute()?[0].report(), &outcome.report);
//! # Ok::<(), cablevod_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod config;
pub mod engine;
pub mod error;
pub mod multicast;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod simulation;

pub use cablevod_hfc::fault::{FaultEvent, FaultKind, FaultPlan, FaultTimeline};
pub use config::{AdmissionMode, RetryPolicy, SimConfig};
pub use engine::online::{serve_serial, OnlineEngine, OnlinePlacement, OnlineSpec};
pub use engine::run;
pub use error::SimError;
pub use multicast::MulticastStats;
pub use report::{DegradationReport, NeighborhoodDegradation, SimReport};
pub use scenario::{
    json_string, report_from_json_str, report_to_json_string, AxisPoint, CellKey, CellOutcome,
    CellRecord, CellResult, CheckpointJournal, ConfigPatch, GridOutcome, JobRetry, JournalHeader,
    OwnedSource, ResilienceOptions, Scenario, ScenarioOutcome, SourceSpec, StrategyRef,
};
pub use simulation::{peak_rss_kb, RunOutcome, RunTelemetry, Simulation, ThreadPolicy};
