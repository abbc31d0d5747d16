//! One harness per paper figure/table, named after it (`fig02` … `fig16c`,
//! `table16a`; the re-exports below are the index), plus the ablations
//! A1–A5 and the two architectural baselines that go beyond the paper.
//!
//! Each function takes the workload (and whatever parameters the paper
//! sweeps), describes the sweep as a declarative
//! [`Scenario`](cablevod_sim::Scenario) — a series axis × a points axis —
//! runs it through the generic executor, and maps the labelled outcomes
//! onto a rendered [`Figure`] whose notes record
//! the paper's published expectations next to the measured outcome. The
//! harnesses own no sweep machinery of their own: they are data plus one
//! runner.

pub mod ablations;
pub mod baselines;
pub mod caching;
pub mod feasibility;
pub mod scaling;
pub mod workload;

pub use ablations::{
    ablation_fill_mode, ablation_placement, ablation_replication, ablation_segment_length,
    ablation_stream_slots,
};
pub use baselines::{headend_comparison, multicast_comparison};
pub use caching::{fig08, fig09, fig10, fig11, fig13};
pub use feasibility::fig14;
pub use scaling::{
    fig15, fig15_with_table, fig16b, fig16c, out_of_core_scaling, scaling_grid, table16a,
    OutOfCoreCell,
};
pub use workload::{fig02, fig03, fig06, fig07, fig12};

use cablevod_sim::ScenarioOutcome;
use cablevod_trace::record::Trace;

use crate::figure::{Figure, FigureRow};

/// Default warm-up for a trace: half its length, at most the engine's
/// 14-day default. Experiments measure only after the warm-up.
pub fn default_warmup(trace: &Trace) -> u64 {
    (trace.days() / 2).min(14)
}

/// Maps scenario outcomes onto the standard peak-server-load rows (mean
/// with 5 %/95 % bars, in Gb/s): series label → figure series, point
/// label → x label.
pub(crate) fn push_peak_rows(fig: &mut Figure, outcomes: &[ScenarioOutcome]) {
    for o in outcomes {
        let peak = &o.report().server_peak;
        fig.push(FigureRow::with_bars(
            o.series.clone(),
            o.point.clone(),
            peak.mean.as_gbps(),
            peak.q05.as_gbps(),
            peak.q95.as_gbps(),
        ));
    }
}

/// The busy-miss share of all cache requests, in percent — the secondary
/// row several ablations report next to the server load.
pub(crate) fn busy_miss_pct(outcome: &ScenarioOutcome) -> f64 {
    let report = outcome.report();
    100.0 * report.cache.miss_peer_busy as f64 / report.cache.requests().max(1) as f64
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
