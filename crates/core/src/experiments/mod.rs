//! The paper's figures that are not sweeps: the workload analytics of
//! Figs 2, 3, 6, 7 and 12 (functions of the trace alone, no simulation)
//! and the multicast comparison of §IV-A (analytic bounds beside one
//! cache run). Each returns a rendered [`Figure`](crate::Figure) whose
//! notes record the paper's published expectations next to the measured
//! outcome.
//!
//! Every figure that *is* a sweep — Figs 8–11 and 13–16, Table 16(a),
//! the ablations A1–A5 and the headend comparison — is a spec file under
//! `scenarios/paper/`, run by the `cablevod-scenario` bin.

pub mod baselines;
pub mod workload;

pub use baselines::multicast_comparison;
pub use workload::{fig02, fig03, fig06, fig07, fig12};

use cablevod_trace::record::Trace;

/// Default warm-up for a trace: half its length, at most the engine's
/// 14-day default. Experiments measure only after the warm-up.
pub fn default_warmup(trace: &Trace) -> u64 {
    (trace.days() / 2).min(14)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cablevod_trace::synth::{generate, SynthConfig};

    #[test]
    fn warmup_is_half_trace_capped() {
        let trace = generate(&SynthConfig {
            users: 50,
            programs: 20,
            days: 6,
            ..SynthConfig::smoke_test()
        });
        assert_eq!(default_warmup(&trace), 3);
        let long = generate(&SynthConfig {
            users: 50,
            programs: 20,
            days: 60,
            ..SynthConfig::smoke_test()
        });
        assert_eq!(default_warmup(&long), 14);
    }
}
