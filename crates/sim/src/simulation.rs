//! The front door: the [`Simulation`] builder and its [`RunOutcome`].
//!
//! Every way of running one simulation — on one worker or several, over
//! a resident [`Trace`](cablevod_trace::record::Trace) or streaming from
//! an on-disk columnar file — goes through one facade:
//!
//! ```
//! use cablevod_sim::{Simulation, SimConfig};
//! use cablevod_trace::synth::{generate, SynthConfig};
//!
//! let trace = generate(&SynthConfig { users: 300, programs: 60, days: 3,
//!     ..SynthConfig::smoke_test() });
//! let outcome = Simulation::over(&trace)
//!     .config(SimConfig::paper_default().with_neighborhood_size(100).with_warmup_days(1))
//!     .threads(2)
//!     .run()?;
//! assert!(outcome.report.sessions > 0);
//! println!("{:.0} sessions/s, strategy {}", outcome.sessions_per_sec(),
//!     outcome.telemetry.strategy);
//! # Ok::<(), cablevod_sim::SimError>(())
//! ```
//!
//! The builder is a zero-cost composition layer: it resolves the strategy
//! factory and the thread policy, calls the per-neighborhood engine
//! drivers — the replay plan follows the data, never the worker count —
//! and wraps the [`SimReport`], **bit-identical** at every worker count
//! (and to [`run`](crate::run), its one-worker shorthand), together with
//! the run telemetry ([`RunTelemetry`]: wall time, trace decode work, peak
//! RSS) that callers previously scraped by hand.
//!
//! Out-of-tree strategies enter here too: [`Simulation::register`] puts a
//! [`StrategyFactory`] into the builder's
//! [`StrategyRegistry`] and
//! [`Simulation::strategy_named`] selects any registered (or built-in
//! spec-grammar) name — no engine or cache-crate change required.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cablevod_cache::{StrategyFactory, StrategyRegistry, StrategySpec};
use cablevod_trace::source::{DecodeStats, TraceSource};

use crate::config::SimConfig;
use crate::engine;
use crate::error::SimError;
use crate::report::SimReport;
use crate::runner::default_threads;

use serde::{Deserialize, Serialize};

/// How many engine workers a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ThreadPolicy {
    /// One worker, the caller's thread. The replay is sharded per
    /// neighborhood all the same — the plan follows the data (resident or
    /// streamed, the file's layout, the strategy), never the worker count
    /// — with every shard on that one worker: over a resident source one
    /// neighborhood after the other, each built when started and dropped
    /// when done; over a streaming source block by block.
    #[default]
    Serial,
    /// Sharded per neighborhood over at most this many workers.
    Fixed(usize),
    /// Sharded per neighborhood, one worker per available core.
    Auto,
}

impl ThreadPolicy {
    /// The worker count to hand the sharded drivers; `None`
    /// ([`ThreadPolicy::Serial`]) is one, the caller's thread.
    pub fn worker_count(self) -> Option<usize> {
        match self {
            ThreadPolicy::Serial => None,
            ThreadPolicy::Fixed(n) => Some(n.max(1)),
            ThreadPolicy::Auto => Some(default_threads()),
        }
    }
}

/// Peak resident set of this process in kilobytes, from the kernel's
/// `VmHWM` line (Linux; `None` elsewhere). This is a process-lifetime
/// high-water mark: monotone across runs, so compare successive readings
/// rather than attributing one reading to one run.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// What one run measured about *itself* (the report measures the plant).
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// Wall-clock time of the run (excluding source materialization).
    pub wall: Duration,
    /// Chunk-decode work this run added to the source's counters —
    /// [`TraceSource::decode_stats`] after minus before. Zero for
    /// resident sources.
    pub decode: DecodeStats,
    /// Process peak RSS after the run (see [`peak_rss_kb`]).
    pub peak_rss_kb: Option<u64>,
    /// Resolved engine worker count (1 = [`ThreadPolicy::Serial`]).
    pub threads: usize,
    /// Resolved strategy name ([`StrategyFactory::name`]).
    pub strategy: String,
    /// Whether the replay took the sweep fast path: the source carried a
    /// per-neighborhood chunk index matching the configured neighborhood
    /// size and the strategy takes no global feed, so every shard
    /// streamed its own chunks straight from the index as an independent
    /// job. Read off the plan the run actually used. `false` for resident
    /// sources (they decode no chunks) and for every other streaming
    /// replay — a time-major file, a mismatched index, a feed-carrying
    /// strategy — which is decoded centrally, block by block (each chunk
    /// once there too).
    pub fastpath: bool,
}

/// A [`SimReport`] bundled with its [`RunTelemetry`].
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The measured simulation results (bit-identical to [`run`](crate::run)
    /// for the same inputs).
    pub report: SimReport,
    /// What the run itself cost.
    pub telemetry: RunTelemetry,
}

impl RunOutcome {
    /// Replay throughput: sessions simulated per wall-clock second.
    pub fn sessions_per_sec(&self) -> f64 {
        self.report.sessions as f64 / self.telemetry.wall.as_secs_f64().max(f64::EPSILON)
    }
}

/// Which strategy a [`Simulation`] resolves at [`Simulation::run`].
#[derive(Debug, Clone)]
enum StrategyChoice {
    /// The config's [`StrategySpec`] (the default).
    FromConfig,
    /// A name resolved against the builder's registry.
    Named(String),
    /// An explicit factory instance.
    Factory(Arc<dyn StrategyFactory>),
}

/// The single entry-point builder over serial/parallel ×
/// resident/streaming simulation (see the module docs).
#[derive(Debug)]
pub struct Simulation<'a, S: TraceSource + ?Sized> {
    source: &'a S,
    config: SimConfig,
    threads: ThreadPolicy,
    registry: StrategyRegistry,
    strategy: StrategyChoice,
}

impl<'a, S: TraceSource + ?Sized> Simulation<'a, S> {
    /// Starts a simulation over `source` with the paper's default
    /// configuration, one worker, and the built-in strategy registry.
    pub fn over(source: &'a S) -> Self {
        Simulation {
            source,
            config: SimConfig::paper_default(),
            threads: ThreadPolicy::Serial,
            registry: StrategyRegistry::builtin(),
            strategy: StrategyChoice::FromConfig,
        }
    }

    /// Sets the full simulation configuration.
    #[must_use]
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs sharded over at most `threads` workers (fewer when the plant
    /// has fewer neighborhoods or the process-wide worker ledger is dry).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = ThreadPolicy::Fixed(threads);
        self
    }

    /// Runs on one worker, the caller's thread (the default): the same
    /// per-neighborhood replay plan `threads(n)` runs, over a resident
    /// source and a streaming one alike, with every shard on that one
    /// worker — see [`ThreadPolicy::Serial`].
    #[must_use]
    pub fn serial(mut self) -> Self {
        self.threads = ThreadPolicy::Serial;
        self
    }

    /// Sets the thread policy directly (spec-file plumbing).
    #[must_use]
    pub fn thread_policy(mut self, policy: ThreadPolicy) -> Self {
        self.threads = policy;
        self
    }

    /// Selects a built-in strategy spec (shorthand for rewriting the
    /// config).
    #[must_use]
    pub fn strategy(mut self, spec: StrategySpec) -> Self {
        self.config = self.config.with_strategy(spec);
        self.strategy = StrategyChoice::FromConfig;
        self
    }

    /// Selects the strategy by name, resolved against the builder's
    /// registry at [`Simulation::run`] (exact registrations first, then
    /// the [`StrategySpec::parse`] grammar, so `"lfu:3d"` needs no
    /// registration).
    #[must_use]
    pub fn strategy_named(mut self, name: impl Into<String>) -> Self {
        self.strategy = StrategyChoice::Named(name.into());
        self
    }

    /// Selects an explicit strategy factory instance.
    #[must_use]
    pub fn strategy_factory(mut self, factory: Arc<dyn StrategyFactory>) -> Self {
        self.strategy = StrategyChoice::Factory(factory);
        self
    }

    /// Registers an out-of-tree strategy factory under `name` in the
    /// builder's registry (select it with
    /// [`Simulation::strategy_named`]).
    #[must_use]
    pub fn register(mut self, name: impl Into<String>, factory: Arc<dyn StrategyFactory>) -> Self {
        self.registry.register(name, factory);
        self
    }

    /// Replaces the builder's whole strategy registry.
    #[must_use]
    pub fn registry(mut self, registry: StrategyRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Runs the simulation and returns the report with run telemetry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for invalid configurations,
    /// [`SimError::Cache`] for unresolvable strategy names, and
    /// propagates trace-source and engine failures.
    pub fn run(self) -> Result<RunOutcome, SimError> {
        let factory: Arc<dyn StrategyFactory> = match &self.strategy {
            StrategyChoice::FromConfig => self.config.strategy().factory(),
            StrategyChoice::Named(name) => self.registry.resolve(name)?,
            StrategyChoice::Factory(factory) => factory.clone(),
        };
        let workers = self.threads.worker_count().unwrap_or(1);
        let decode_before = self.source.decode_stats();
        let started = Instant::now();
        let (report, fastpath) =
            engine::replay(self.source, &self.config, factory.as_ref(), workers)?;
        let wall = started.elapsed();
        Ok(RunOutcome {
            report,
            telemetry: RunTelemetry {
                wall,
                decode: self.source.decode_stats() - decode_before,
                peak_rss_kb: peak_rss_kb(),
                threads: workers,
                strategy: factory.name().to_string(),
                fastpath,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cablevod_hfc::units::DataSize;
    use cablevod_trace::source::ChunkedTrace;
    use cablevod_trace::synth::{generate, SynthConfig};

    fn smoke() -> cablevod_trace::record::Trace {
        generate(&SynthConfig {
            users: 300,
            programs: 60,
            days: 3,
            ..SynthConfig::smoke_test()
        })
    }

    fn config() -> SimConfig {
        SimConfig::paper_default()
            .with_neighborhood_size(100)
            .with_per_peer_storage(DataSize::from_gigabytes(2))
            .with_warmup_days(1)
    }

    #[test]
    fn builder_matches_run_on_all_four_drivers() {
        let trace = smoke();
        let config = config();
        let serial = crate::engine::run(&trace, &config).expect("serial run");
        let built = Simulation::over(&trace)
            .config(config.clone())
            .run()
            .expect("builder serial");
        assert_eq!(built.report, serial);
        assert_eq!(built.telemetry.threads, 1);
        assert_eq!(built.telemetry.strategy, "LFU");

        let sharded = Simulation::over(&trace)
            .config(config.clone())
            .threads(3)
            .run()
            .expect("builder sharded");
        assert_eq!(sharded.report, serial);
        assert_eq!(sharded.telemetry.threads, 3);

        let chunked = ChunkedTrace::new(&trace, 64);
        let streamed = Simulation::over(&chunked)
            .config(config.clone())
            .run()
            .expect("builder streaming");
        assert_eq!(streamed.report, serial);

        let streamed_sharded = Simulation::over(&chunked)
            .config(config)
            .threads(2)
            .run()
            .expect("builder streaming sharded");
        assert_eq!(streamed_sharded.report, serial);
    }

    #[test]
    fn named_strategies_resolve_through_the_registry() {
        let trace = smoke();
        let by_spec = Simulation::over(&trace)
            .config(config())
            .strategy(StrategySpec::Lru)
            .run()
            .expect("spec run");
        let by_name = Simulation::over(&trace)
            .config(config())
            .strategy_named("lru")
            .run()
            .expect("named run");
        assert_eq!(by_name.report, by_spec.report);
        assert_eq!(by_name.telemetry.strategy, "LRU");

        let err = Simulation::over(&trace)
            .config(config())
            .strategy_named("no-such-policy")
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Cache(_)), "{err}");
    }

    #[test]
    fn thread_policy_resolves_workers() {
        assert_eq!(ThreadPolicy::Serial.worker_count(), None);
        assert_eq!(ThreadPolicy::Fixed(4).worker_count(), Some(4));
        assert_eq!(ThreadPolicy::Fixed(0).worker_count(), Some(1));
        assert!(ThreadPolicy::Auto.worker_count().unwrap_or(0) >= 1);
    }
}
