//! Fault-injection acceptance tests: one seeded [`FaultPlan`] replayed
//! over every driver combination must produce bit-identical reports
//! (degradation section included); enforcing admission must actually
//! block and interrupt sessions where counting mode only tallies; and
//! the default counting mode over a healthy plant must stay byte-
//! identical to a run that never heard of faults.

mod helpers;

use proptest::prelude::*;

use cablevod_hfc::ids::NeighborhoodId;
use cablevod_hfc::units::{DataSize, SimDuration, SimTime};
use cablevod_sim::{
    run, AdmissionMode, FaultEvent, FaultKind, FaultPlan, RetryPolicy, Scenario, SimConfig,
    Simulation, SourceSpec,
};
use cablevod_trace::source::ChunkedTrace;
use cablevod_trace::synth::generate;
use helpers::tiny_config;

fn base_config() -> SimConfig {
    SimConfig::paper_default()
        .with_neighborhood_size(60)
        .with_per_peer_storage(DataSize::from_gigabytes(2))
        .with_warmup_days(1)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// A seeded fault plan under enforcing admission replays bit-
    /// identically on serial/sharded × resident/streaming.
    #[test]
    fn seeded_plan_is_bit_identical_across_drivers(
        users in 120u32..240,
        seed in 0u64..200,
        plan_seed in 0u64..200,
    ) {
        let trace = generate(&tiny_config(users, 30, 3, seed));
        let neighborhoods = users.div_ceil(60);
        let config = base_config()
            .with_faults(FaultPlan::seeded(
                plan_seed,
                neighborhoods,
                SimDuration::from_days(3),
                4,
                2,
            ))
            .with_admission(AdmissionMode::Enforcing)
            .with_retry(RetryPolicy::paper_default());

        let serial = run(&trace, &config).expect("serial resident");
        prop_assert!(serial.degradation.is_some(), "fault plan must produce a section");

        let sharded = Simulation::over(&trace)
            .config(config.clone())
            .threads(3)
            .run()
            .expect("sharded resident");
        prop_assert_eq!(&sharded.report, &serial);

        let chunked = ChunkedTrace::new(&trace, 64);
        let streamed = Simulation::over(&chunked)
            .config(config.clone())
            .run()
            .expect("serial streaming");
        prop_assert_eq!(&streamed.report, &serial);

        let streamed_parallel = Simulation::over(&chunked)
            .config(config)
            .threads(2)
            .run()
            .expect("sharded streaming");
        prop_assert_eq!(&streamed_parallel.report, &serial);
    }

    /// Counting mode (the default) with a fault plan tallies degradation
    /// but leaves every other figure byte-identical to the healthy run.
    #[test]
    fn counting_mode_preserves_healthy_figures(
        users in 120u32..240,
        seed in 0u64..200,
        plan_seed in 0u64..200,
    ) {
        let trace = generate(&tiny_config(users, 30, 3, seed));
        let healthy = run(&trace, &base_config()).expect("healthy run");
        prop_assert!(healthy.degradation.is_none(), "healthy default has no section");

        let neighborhoods = users.div_ceil(60);
        let faulted_config = base_config().with_faults(FaultPlan::seeded(
            plan_seed,
            neighborhoods,
            SimDuration::from_days(3),
            4,
            2,
        ));
        let mut counted = run(&trace, &faulted_config).expect("counting run");
        prop_assert!(counted.degradation.is_some());
        counted.degradation = None;
        prop_assert_eq!(&counted, &healthy);
    }
}

/// A mid-stream outage under enforcing admission interrupts in-flight
/// sessions and blocks starts for the outage window; the same plan under
/// counting admission tallies without changing the trajectory.
#[test]
fn enforcing_outage_blocks_and_interrupts() {
    let trace = generate(&tiny_config(180, 30, 3, 2));
    // Neighborhood 0 is dark from day-1 noon to day-2 noon: long enough
    // that retries cannot ride it out, landing mid-stream for sessions
    // started before noon.
    let plan = FaultPlan::new(vec![FaultEvent {
        scope: Some(NeighborhoodId::new(0)),
        start: SimTime::from_secs(86_400 + 43_200),
        end: SimTime::from_secs(2 * 86_400 + 43_200),
        kind: FaultKind::Outage,
    }])
    .expect("valid plan");

    let healthy = run(&trace, &base_config()).expect("healthy run");
    let enforcing = run(
        &trace,
        &base_config()
            .with_faults(plan.clone())
            .with_admission(AdmissionMode::Enforcing),
    )
    .expect("enforcing run");
    let counting = run(&trace, &base_config().with_faults(plan)).expect("counting run");

    // Every trace record is still a session in both modes.
    assert_eq!(enforcing.sessions, healthy.sessions);
    assert_eq!(counting.sessions, healthy.sessions);

    let deg = enforcing.degradation.as_ref().expect("enforcing section");
    assert!(
        deg.blocked_sessions > 0,
        "day-long outage must block starts"
    );
    assert!(
        deg.interrupted_sessions > 0,
        "sessions in flight at outage start must be interrupted"
    );
    assert!(deg.retries > 0, "blocked starts retry before giving up");
    // Blocked and interrupted sessions stop requesting segments.
    assert!(enforcing.segment_requests < healthy.segment_requests);
    // Degradation is confined to the dark neighborhood.
    assert!(deg.per_neighborhood[0].blocked_sessions > 0);
    assert!(deg.per_neighborhood[0].outage_secs == 86_400);
    for nbhd in &deg.per_neighborhood[1..] {
        assert_eq!(nbhd.blocked_sessions, 0);
        assert_eq!(nbhd.interrupted_sessions, 0);
        assert_eq!(nbhd.outage_secs, 0);
    }
    // The retry histogram counts admissions, so it never exceeds the
    // session count, and first-try admissions dominate a one-outage run.
    let admitted: u64 = deg.retry_histogram.iter().sum();
    assert!(admitted <= enforcing.sessions);
    assert!(deg.retry_histogram[0] > 0);

    // Counting mode: same refusal-worthy tallies appear, main figures
    // stay byte-identical to the healthy run.
    let mut counted = counting.clone();
    let cdeg = counted.degradation.take().expect("counting section");
    assert!(cdeg.blocked_sessions > 0);
    assert!(cdeg.interrupted_sessions > 0);
    assert_eq!(cdeg.retries, 0, "counting mode never schedules retries");
    assert_eq!(&counted, &healthy);
}

/// Retry exhaustion inside a long outage: every session whose whole
/// retry ladder lands in the dark window is counted blocked **exactly
/// once**, and the retry bookkeeping balances — total retries equal the
/// full ladder for each blocked session plus the histogram-weighted
/// retries of the admitted ones, so no retry sentinel is ever dropped,
/// double-counted, or left behind in the heap.
#[test]
fn retry_exhaustion_counts_blocked_once_and_drains_the_heap() {
    let trace = generate(&tiny_config(180, 30, 3, 2));
    // Neighborhood 0 dark for a full day: with the paper ladder
    // (3 retries at +30/+90/+210s cumulative) every session requesting
    // more than 210s before the outage ends exhausts inside the window.
    let plan = FaultPlan::new(vec![FaultEvent {
        scope: Some(NeighborhoodId::new(0)),
        start: SimTime::from_secs(86_400 + 43_200),
        end: SimTime::from_secs(2 * 86_400 + 43_200),
        kind: FaultKind::Outage,
    }])
    .expect("valid plan");
    let retry = RetryPolicy::paper_default();
    let config = base_config()
        .with_faults(plan)
        .with_admission(AdmissionMode::Enforcing)
        .with_retry(retry);

    let report = run(&trace, &config).expect("enforcing run");
    let deg = report.degradation.as_ref().expect("degradation section");
    assert!(deg.blocked_sessions > 0, "day-long outage must block");

    // The balance invariant: a blocked session spends the whole ladder
    // (max_retries attempts); an admitted session that needed i retries
    // lands in histogram bucket i. Any sentinel left in the heap, any
    // session blocked twice, or any lost retry breaks this equality.
    let ladder = u64::from(retry.max_retries());
    let admitted_retries: u64 = deg
        .retry_histogram
        .iter()
        .enumerate()
        .map(|(bucket, count)| bucket as u64 * count)
        .sum();
    assert_eq!(
        deg.retries,
        deg.blocked_sessions * ladder + admitted_retries,
        "retry ledger must balance: {} blocked x {ladder} + {admitted_retries} admitted-after-retry",
        deg.blocked_sessions
    );

    // Blocked sessions are counted in exactly one neighborhood, once.
    let per_nbhd_blocked: u64 = deg
        .per_neighborhood
        .iter()
        .map(|n| n.blocked_sessions)
        .sum();
    assert_eq!(per_nbhd_blocked, deg.blocked_sessions);
    assert_eq!(
        deg.per_neighborhood[0].blocked_sessions,
        deg.blocked_sessions
    );

    // Heap hygiene is driver-independent: sharded and streaming drivers
    // drain the same retry heap to the same report, bit for bit.
    let sharded = Simulation::over(&trace)
        .config(config)
        .threads(3)
        .run()
        .expect("sharded run");
    assert_eq!(sharded.report, report);
}

/// An outage extending past the end of the trace: sessions near the end
/// retry beyond the final request, and those still-pending sentinels
/// must drain cleanly — the run terminates with each such session
/// blocked exactly once, never admitted after the horizon.
#[test]
fn outage_past_trace_end_still_drains_pending_retries() {
    let trace = generate(&tiny_config(180, 30, 3, 2));
    // Dark from day-2 noon to day 5 — far past the 3-day trace.
    let plan = FaultPlan::new(vec![FaultEvent {
        scope: Some(NeighborhoodId::new(0)),
        start: SimTime::from_secs(86_400 + 43_200),
        end: SimTime::from_secs(5 * 86_400),
        kind: FaultKind::Outage,
    }])
    .expect("valid plan");
    let retry = RetryPolicy::paper_default();
    let config = base_config()
        .with_faults(plan)
        .with_admission(AdmissionMode::Enforcing)
        .with_retry(retry);

    let report = run(&trace, &config).expect("run terminates");
    let deg = report.degradation.as_ref().expect("degradation section");
    // Every affected start is blocked: the outage never lifts within the
    // trace, so no retry can ever succeed in neighborhood 0.
    assert!(deg.blocked_sessions > 0);
    assert_eq!(
        deg.per_neighborhood[0].blocked_sessions,
        deg.blocked_sessions
    );
    assert_eq!(
        deg.per_neighborhood[0].recoveries_measured, 0,
        "an outage that outlives the trace has no recovery to measure"
    );
    let admitted_retries: u64 = deg
        .retry_histogram
        .iter()
        .enumerate()
        .map(|(bucket, count)| bucket as u64 * count)
        .sum();
    assert_eq!(
        deg.retries,
        deg.blocked_sessions * u64::from(retry.max_retries()) + admitted_retries,
        "pending sentinels past the horizon still resolve exactly once"
    );
    let sharded = Simulation::over(&trace)
        .config(config)
        .threads(3)
        .run()
        .expect("sharded run");
    assert_eq!(sharded.report, report);
}

/// The default configuration (counting mode, empty plan) produces no
/// degradation section at all — pre-fault reports are untouched.
#[test]
fn empty_plan_counting_has_no_section() {
    let trace = generate(&tiny_config(120, 20, 3, 5));
    let report = run(&trace, &base_config()).expect("default run");
    assert!(report.degradation.is_none());
}

/// Retry backoff doubles per attempt from the configured base.
#[test]
fn retry_backoff_ladder() {
    let retry = RetryPolicy::paper_default();
    assert_eq!(retry.max_retries(), 3);
    assert_eq!(retry.backoff(0), SimDuration::from_secs(30));
    assert_eq!(retry.backoff(1), SimDuration::from_secs(60));
    assert_eq!(retry.backoff(2), SimDuration::from_secs(120));
}

/// Scenario specs round-trip fault plans and admission knobs.
#[test]
fn scenario_spec_roundtrips_faults() {
    let plan = FaultPlan::new(vec![
        FaultEvent {
            scope: Some(NeighborhoodId::new(1)),
            start: SimTime::from_secs(3_600),
            end: SimTime::from_secs(7_200),
            kind: FaultKind::Outage,
        },
        FaultEvent {
            scope: None,
            start: SimTime::from_secs(0),
            end: SimTime::from_secs(86_400),
            kind: FaultKind::Derate { permille: 500 },
        },
    ])
    .expect("valid plan");
    let config = base_config()
        .with_faults(plan)
        .with_admission(AdmissionMode::Enforcing)
        .with_retry(RetryPolicy::new(4, SimDuration::from_secs(15)));
    let scenario = Scenario::new(
        "degraded",
        SourceSpec::Synth(tiny_config(120, 20, 3, 5)),
        config,
    );
    let text = scenario.to_spec_string().expect("render spec");
    assert!(text.contains("[faults]"));
    assert!(text.contains("admission = enforcing"));
    assert!(text.contains("retry = 4x15s"));
    let parsed = Scenario::from_spec_str(&text).expect("parse spec");
    assert_eq!(parsed, scenario);
}
