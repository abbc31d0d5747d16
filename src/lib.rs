//! # cablevod — peer-to-peer video-on-demand over cable networks
//!
//! A full reproduction of *"Deploying Video-on-Demand Services on Cable
//! Networks"* (Allen, Zhao, Wolski — ICDCS 2007): set-top boxes on each
//! coaxial neighborhood organized into a cooperative proxy cache by an
//! index server at the headend, evaluated by trace-driven simulation
//! against a PowerInfo-calibrated workload.
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | `cablevod-hfc` | cable plant: topology, set-top boxes, coax/fiber, units |
//! | `cablevod-trace` | workload: synthetic PowerInfo model, scaling, analytics |
//! | `cablevod-cache` | cooperative cache: index server, LRU/LFU/Oracle/global LFU |
//! | `cablevod-sim` | discrete-event engine ([`Simulation`](cablevod_sim::Simulation)), baselines, scenario grids |
//! | `cablevod-serve` | the online tier: the `cablevod-serve` bin on a socket |
//! | `cablevod` (this crate) | the non-sweep figures ([`experiments`]), [`Figure`], the `cablevod-scenario` bin that runs every sweep, examples, Criterion benches |
//!
//! ## Quickstart
//!
//! One run goes through [`Simulation`](cablevod_sim::Simulation); what
//! the cache saves is its peak against the no-cache baseline over the
//! same measured days:
//!
//! ```
//! use cablevod_sim::{baseline, SimConfig, Simulation};
//! use cablevod_trace::synth::{generate, SynthConfig};
//!
//! // A small synthetic workload with the PowerInfo fingerprint.
//! let trace = generate(&SynthConfig { users: 300, programs: 60, days: 3,
//!     ..SynthConfig::smoke_test() });
//!
//! // The paper's deployment: 1,000-peer neighborhoods, 10 GB per set-top
//! // box, two stream slots, LFU caching.
//! let config = SimConfig::paper_default()
//!     .with_neighborhood_size(100)
//!     .with_warmup_days(1);
//! let report = Simulation::over(&trace).config(config.clone()).run()?.report;
//! let no_cache = baseline::no_cache_peak(
//!     &trace,
//!     config.stream_rate(),
//!     report.measured_from_day,
//!     report.measured_to_day,
//! );
//! println!(
//!     "peak server load {} (no cache: {}), savings {:.0}%",
//!     report.server_peak.mean,
//!     no_cache.mean,
//!     report.savings_vs(no_cache.mean) * 100.0,
//! );
//! # Ok::<(), cablevod_sim::SimError>(())
//! ```
//!
//! ## Reproducing the paper
//!
//! Every figure of the evaluation that is a sweep — Figs 8–11 and 13–16,
//! Table 16(a), the ablations A1–A5 and the headend comparison — is a
//! spec file under `scenarios/paper/`, with the paper's published values
//! in its header comment. This crate's `cablevod-scenario` bin runs one,
//! prints a JSON line per cell and, on stderr, the grid as a markdown
//! table ([`Figure::peak_pivot`]):
//!
//! ```text
//! cargo run --release -p cablevod --bin cablevod-scenario -- scenarios/paper/fig08.scn
//! ```
//!
//! The specs run at the paper's full population over 21 days. A
//! different scale is a `[source]` edit (the users, days or preset
//! lines, with `warmup_days` in `[config]` to match), the way CI edits
//! the `threads` line. The figures that are not sweeps — the trace
//! analytics of Figs 2, 3, 6, 7 and 12 and the multicast comparison —
//! are functions in [`experiments`]; `examples/trace_analytics.rs`
//! prints them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod figure;

pub use figure::{Figure, FigureRow};
