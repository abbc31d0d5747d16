//! Shared helpers for the Criterion benches: one deliberately small
//! workload, so the whole suite finishes in minutes. The paper-scale
//! sweeps are spec files (`scenarios/paper/`) that the
//! `cablevod-scenario` bin runs.

use std::sync::OnceLock;

use cablevod_trace::record::Trace;
use cablevod_trace::synth::{generate, SynthConfig};

/// The shared bench workload: ~1,500 users over 6 days — large enough for
/// caches and quantiles to be meaningful, small enough for Criterion.
pub fn bench_trace() -> &'static Trace {
    static TRACE: OnceLock<Trace> = OnceLock::new();
    TRACE.get_or_init(|| {
        generate(&SynthConfig {
            users: 1_500,
            programs: 400,
            days: 6,
            ..SynthConfig::powerinfo()
        })
    })
}
