//! Ablations A1–A5 of the system's design choices: fill mode, stream
//! slots, segment length, placement, replication.
//!
//! These go beyond the paper: each isolates one mechanism of the system
//! and quantifies its contribution on the default workload. Every
//! ablation is a [`Scenario`] whose series/points axes patch exactly the
//! mechanism under study.

use cablevod_cache::{FillPolicy, PlacementPolicy};
use cablevod_hfc::units::SimDuration;
use cablevod_sim::{AxisPoint, ConfigPatch, Scenario, SimConfig, SimError};
use cablevod_trace::record::Trace;

use crate::experiments::{busy_miss_pct, default_warmup, push_peak_rows};
use crate::figure::{Figure, FigureRow};

fn base(trace: &Trace) -> SimConfig {
    SimConfig::paper_default().with_warmup_days(default_warmup(trace))
}

/// The prefetch-fill base every ablation except A1 uses (A1 is *about*
/// the fill policy).
fn prefetch_base(trace: &Trace) -> SimConfig {
    base(trace).with_fill_override(FillPolicy::Prefetch)
}

/// A1 — fill policy: capture-on-broadcast (the deployable mechanism of
/// Fig 4) vs proactive push (the paper's accounting, where recomputed
/// cache contents are simply present). The gap is the true cost of
/// admitted-but-cold content.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn ablation_fill_mode(trace: &Trace) -> Result<Figure, SimError> {
    let mut fig = Figure::new(
        "ablation_fill",
        "A1 — cache fill: capture-on-broadcast vs proactive push (LFU)",
        "Per-peer storage",
        "Average server rate, peak hours (Gb/s)",
    );
    let scenario = Scenario::provided("a1-fill", base(trace))
        .with_series(vec![
            AxisPoint::new("capture-on-broadcast")
                .with_patch(ConfigPatch::default().with_fill(FillPolicy::OnBroadcast)),
            AxisPoint::new("proactive push")
                .with_patch(ConfigPatch::default().with_fill(FillPolicy::Prefetch)),
        ])
        .with_points(
            [1u64, 10]
                .into_iter()
                .map(|gb| {
                    AxisPoint::new(format!("{gb} GB")).with_patch(
                        ConfigPatch::default().with_per_peer_storage(
                            cablevod_hfc::units::DataSize::from_gigabytes(gb),
                        ),
                    )
                })
                .collect(),
        );
    push_peak_rows(&mut fig, &scenario.execute_on(trace)?);
    fig.note(
        "capture-on-broadcast charges the server for the first post-admission broadcast of \
         every segment; push materializes contents at recomputation time without server cost \
         (the paper's implicit model — compare Fig 8)",
    );
    Ok(fig)
}

/// Runs a single-knob ablation sweep and pushes the standard
/// server-load + busy-miss rows for each point.
fn knob_ablation(
    trace: &Trace,
    name: &str,
    base: SimConfig,
    points: Vec<AxisPoint>,
    fig: &mut Figure,
) -> Result<(), SimError> {
    let scenario = Scenario::provided(name, base).with_points(points);
    for outcome in scenario.execute_on(trace)? {
        let peak = &outcome.report().server_peak;
        fig.push(FigureRow::with_bars(
            "server load",
            outcome.point.clone(),
            peak.mean.as_gbps(),
            peak.q05.as_gbps(),
            peak.q95.as_gbps(),
        ));
        fig.push(FigureRow::point(
            "busy-miss %",
            outcome.point.clone(),
            busy_miss_pct(&outcome),
        ));
    }
    Ok(())
}

/// A2 — the two-stream STB limit (§V-C): 1, 2 (paper), 4 and effectively
/// unlimited slots.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn ablation_stream_slots(trace: &Trace) -> Result<Figure, SimError> {
    let mut fig = Figure::new(
        "ablation_slots",
        "A2 — per-STB concurrent stream limit",
        "Stream slots per STB",
        "Average server rate, peak hours (Gb/s)",
    );
    let points = [1u8, 2, 4, u8::MAX]
        .into_iter()
        .map(|slots| {
            let label = if slots == u8::MAX {
                "unlimited".to_string()
            } else {
                slots.to_string()
            };
            AxisPoint::new(label).with_patch(ConfigPatch::default().with_stream_slots(slots))
        })
        .collect();
    knob_ablation(trace, "a2-slots", prefetch_base(trace), points, &mut fig)?;
    fig.note("paper fixes 2 slots; the delta to 'unlimited' is the entire slot-contention cost");
    Ok(fig)
}

/// A3 — segment length (§IV-B.1 fixes 5 minutes): 1, 5 and 10 minutes.
/// Shorter segments spread serving load over more peers (fewer busy
/// misses) at the price of more placement state.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn ablation_segment_length(trace: &Trace) -> Result<Figure, SimError> {
    let mut fig = Figure::new(
        "ablation_segment",
        "A3 — segment length",
        "Segment length",
        "Average server rate, peak hours (Gb/s)",
    );
    let points = [1u64, 5, 10]
        .into_iter()
        .map(|minutes| {
            AxisPoint::new(format!("{minutes} min")).with_patch(
                ConfigPatch::default().with_segment_len(SimDuration::from_minutes(minutes)),
            )
        })
        .collect();
    knob_ablation(trace, "a3-segment", prefetch_base(trace), points, &mut fig)?;
    fig.note("paper uses 5-minute segments");
    Ok(fig)
}

/// A4 — placement policy (§IV-B.1's load balancing vs random vs
/// first-fit). First-fit concentrates segments on few peers, colliding
/// with the 2-slot limit.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn ablation_placement(trace: &Trace) -> Result<Figure, SimError> {
    let mut fig = Figure::new(
        "ablation_placement",
        "A4 — segment placement policy",
        "Placement",
        "Average server rate, peak hours (Gb/s)",
    );
    let points = [
        ("balanced (paper)", PlacementPolicy::Balanced),
        ("random", PlacementPolicy::Random { seed: 7 }),
        ("first-fit", PlacementPolicy::FirstFit),
    ]
    .into_iter()
    .map(|(name, policy)| {
        AxisPoint::new(name).with_patch(ConfigPatch::default().with_placement(policy))
    })
    .collect();
    knob_ablation(
        trace,
        "a4-placement",
        prefetch_base(trace),
        points,
        &mut fig,
    )?;
    fig.note("paper: 'the index server places data to balance load'");
    Ok(fig)
}

/// A5 — replication factor: one copy (paper) vs two. Extra copies halve
/// effective capacity but give slot-saturated segments a second source.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn ablation_replication(trace: &Trace) -> Result<Figure, SimError> {
    let mut fig = Figure::new(
        "ablation_replication",
        "A5 — segment replication factor",
        "Copies",
        "Average server rate, peak hours (Gb/s)",
    );
    let points = [1u8, 2]
        .into_iter()
        .map(|replication| {
            AxisPoint::new(format!("{replication}"))
                .with_patch(ConfigPatch::default().with_replication(replication))
        })
        .collect();
    knob_ablation(
        trace,
        "a5-replication",
        prefetch_base(trace),
        points,
        &mut fig,
    )?;
    fig.note("paper stores a single copy; busy misses are rare enough that replication mostly costs capacity");
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cablevod_trace::synth::{generate, SynthConfig};

    fn smoke() -> Trace {
        generate(&SynthConfig {
            users: 800,
            programs: 200,
            days: 6,
            ..SynthConfig::smoke_test()
        })
    }

    #[test]
    fn fill_mode_push_never_loses() {
        let fig = ablation_fill_mode(&smoke()).expect("runs");
        for gb in ["1 GB", "10 GB"] {
            let capture = fig.value_of("capture-on-broadcast", gb).expect("row");
            let push = fig.value_of("proactive push", gb).expect("row");
            assert!(
                push <= capture + 1e-9,
                "{gb}: push {push} vs capture {capture}"
            );
        }
    }

    #[test]
    fn more_slots_cannot_hurt() {
        let fig = ablation_stream_slots(&smoke()).expect("runs");
        let one = fig.value_of("server load", "1").expect("row");
        let unlimited = fig.value_of("server load", "unlimited").expect("row");
        assert!(
            unlimited <= one + 1e-9,
            "1 slot {one} vs unlimited {unlimited}"
        );
        let busy_unlimited = fig.value_of("busy-miss %", "unlimited").expect("row");
        assert_eq!(busy_unlimited, 0.0);
    }

    #[test]
    fn first_fit_has_more_busy_misses_than_balanced() {
        let fig = ablation_placement(&smoke()).expect("runs");
        let balanced = fig
            .value_of("busy-miss %", "balanced (paper)")
            .expect("row");
        let first_fit = fig.value_of("busy-miss %", "first-fit").expect("row");
        assert!(
            first_fit >= balanced,
            "balanced {balanced}% vs first-fit {first_fit}%"
        );
    }
}
