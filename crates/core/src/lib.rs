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
//! | `cablevod-sim` | discrete-event engine, baselines, parallel sweeps |
//! | `cablevod` (this crate) | public façade ([`VodSystem`]), the non-sweep figures ([`experiments`]) and [`Figure`] |
//! | `cablevod-bench` | the `cablevod-scenario` bin that runs every sweep, Criterion benches |
//!
//! ## Quickstart
//!
//! ```
//! use cablevod::VodSystem;
//! use cablevod_trace::synth::{generate, SynthConfig};
//!
//! // A small synthetic workload with the PowerInfo fingerprint.
//! let trace = generate(&SynthConfig { users: 300, programs: 60, days: 3,
//!     ..SynthConfig::smoke_test() });
//!
//! // The paper's deployment: 1,000-peer neighborhoods, 10 GB per set-top
//! // box, two stream slots, LFU caching.
//! let system = VodSystem::paper_default()
//!     .with_neighborhood_size(100)
//!     .with_warmup_days(1);
//! let outcome = system.evaluate(&trace)?;
//! println!(
//!     "peak server load {} (no cache: {}), savings {:.0}%",
//!     outcome.report.server_peak.mean,
//!     outcome.baseline_peak,
//!     outcome.savings * 100.0,
//! );
//! # Ok::<(), cablevod_sim::SimError>(())
//! ```
//!
//! ## Reproducing the paper
//!
//! Every figure of the evaluation that is a sweep — Figs 8–11 and 13–16,
//! Table 16(a), the ablations A1–A5 and the headend comparison — is a
//! spec file under `scenarios/paper/`, with the paper's published values
//! in its header comment. The `cablevod-scenario` bin (in
//! `cablevod-bench`) runs one, prints a JSON line per cell and, on
//! stderr, the grid as a markdown table ([`Figure::peak_pivot`]):
//!
//! ```text
//! cargo run --release -p cablevod-bench --bin cablevod-scenario -- scenarios/paper/fig08.scn
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
pub mod system;

pub use figure::{Figure, FigureRow};
pub use system::{Evaluation, VodSystem};

// Re-export the layered crates so `cablevod` is a one-stop dependency.
pub use cablevod_cache as cache;
pub use cablevod_hfc as hfc;
pub use cablevod_sim as sim;
pub use cablevod_trace as trace;
