//! Fault overlay for the engine: the [`AdmissionControl`] a driver
//! consults at session starts, retries, and segment continuations.
//!
//! Every driver builds one for the one neighborhood it owns, so every
//! driver consults the same degraded-plant state machine. It never
//! touches byte accounting.
//!
//! Determinism: all admission state (fault timeline, channel occupancy,
//! retry tallies) is **per neighborhood**, the engine's unit of isolation,
//! so a neighborhood's decisions depend on its own event order alone. When
//! the control is inactive ([`AdmissionMode::Counting`] with an empty
//! [`FaultPlan`](cablevod_hfc::fault::FaultPlan) — the default) the driver
//! holds no control at all and the lifecycle takes its original path, byte
//! for byte.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use cablevod_hfc::channels::ChannelPlan;
use cablevod_hfc::fault::{FaultTimeline, FULL_CAPACITY_PERMILLE};
use cablevod_hfc::ids::NeighborhoodId;
use cablevod_hfc::units::SimTime;

use crate::config::{AdmissionMode, RetryPolicy, SimConfig};
use crate::report::NeighborhoodDegradation;

/// What the admission control decides about one session attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Verdict {
    /// The session starts now.
    Admit,
    /// The plant refused; the set-top box retries at `at`.
    Retry {
        /// When the retry fires.
        at: SimTime,
    },
    /// The plant refused and retries are exhausted (or disabled).
    Blocked,
}

/// The degraded-plant admission state machine of the neighborhood one
/// driver owns: its fault timeline, its channel occupancy, and its
/// degradation tallies.
#[derive(Debug)]
pub(super) struct AdmissionControl {
    mode: AdmissionMode,
    retry: RetryPolicy,
    /// Healthy channel budget in concurrent streams (free QAM channels ×
    /// streams per channel); derates scale it down.
    budget: u64,
    timeline: FaultTimeline,
    /// End times (seconds) of admitted sessions, pruned lazily — the
    /// same pattern as [`cablevod_hfc::stb::SetTopBox`]'s stream slots.
    occupancy: BinaryHeap<Reverse<u64>>,
    /// Outage recovery instants not yet measured, in time order.
    pending_recoveries: VecDeque<u64>,
    /// The tallies, `outage_secs` filled in when the run ends.
    tally: NeighborhoodDegradation,
    /// `admitted_after[k]` — sessions admitted after exactly `k` retries.
    admitted_after: Vec<u64>,
}

impl AdmissionControl {
    /// Builds the control for neighborhood `nbhd`. Returns `None` — no
    /// overlay at all — when the config is the default counting mode over
    /// a healthy plant, so those runs keep their original byte-identical
    /// path.
    pub(super) fn build(config: &SimConfig, nbhd: NeighborhoodId) -> Option<Self> {
        if config.admission() == AdmissionMode::Counting && config.faults().is_empty() {
            return None;
        }
        let plan = ChannelPlan::from_spec(config.coax_spec());
        let budget = u64::from(plan.free_channels())
            * u64::from(plan.streams_per_channel(config.stream_rate()));
        let timeline = config.faults().timeline(nbhd);
        Some(AdmissionControl {
            mode: config.admission(),
            retry: config.retry(),
            budget,
            occupancy: BinaryHeap::new(),
            pending_recoveries: timeline.outage_ends().map(|t| t.as_secs()).collect(),
            timeline,
            tally: NeighborhoodDegradation::default(),
            admitted_after: vec![0; usize::from(config.retry().max_retries()) + 1],
        })
    }

    /// Whether refusals really block/interrupt (vs only being counted).
    pub(super) fn enforcing(&self) -> bool {
        self.mode == AdmissionMode::Enforcing
    }

    /// Streams concurrently admitted at `t` (sessions ending at or
    /// before `t` free their slot first).
    fn occupancy_at(&mut self, t: u64) -> u64 {
        while self.occupancy.peek().is_some_and(|&Reverse(end)| end <= t) {
            self.occupancy.pop();
        }
        self.occupancy.len() as u64
    }

    /// Measures time-to-recover: the first admission at or after an
    /// outage's recovery instant records how long the neighborhood took
    /// to carry a session again.
    fn note_admission(&mut self, t: u64) {
        while self.pending_recoveries.front().is_some_and(|&end| end <= t) {
            let end = self.pending_recoveries.pop_front().expect("peeked");
            let lag = t - end;
            self.tally.recoveries_measured += 1;
            self.tally.recovery_lag_total_secs += lag;
            self.tally.recovery_lag_max_secs = self.tally.recovery_lag_max_secs.max(lag);
        }
    }

    /// Decides one session attempt at `start` (planned end `end`).
    /// `retries_used` is how many retries the session has already spent.
    ///
    /// In counting mode a refusal is tallied as a blocked-worthy start
    /// but the session is admitted anyway — the trajectory, and with it
    /// every pre-existing metric, is unchanged.
    pub(super) fn try_admit(&mut self, start: SimTime, end: SimTime, retries_used: u8) -> Verdict {
        let t = start.as_secs();
        let outage = self.timeline.outage_at(start).is_some();
        let capacity = self.budget * u64::from(self.timeline.capacity_permille_at(start))
            / u64::from(FULL_CAPACITY_PERMILLE);
        let refused = outage || self.occupancy_at(t) >= capacity;

        if refused && self.enforcing() {
            if retries_used < self.retry.max_retries() {
                self.tally.retries += 1;
                return Verdict::Retry {
                    at: start + self.retry.backoff(retries_used),
                };
            }
            self.tally.blocked_sessions += 1;
            return Verdict::Blocked;
        }
        if refused {
            // Counting mode: the violation is measured, not enforced.
            self.tally.blocked_sessions += 1;
        }
        self.note_admission(t);
        self.admitted_after[usize::from(retries_used)] += 1;
        self.occupancy.push(Reverse(end.as_secs()));
        Verdict::Admit
    }

    /// Whether an outage is active at `t` (no tally).
    pub(super) fn outage_now(&self, t: SimTime) -> bool {
        self.timeline.outage_at(t).is_some()
    }

    /// Tallies one interrupted (enforcing) or interruption-worthy
    /// (counting) session.
    pub(super) fn tally_interrupt(&mut self) {
        self.tally.interrupted_sessions += 1;
    }

    /// Ends the run: the neighborhood's degradation tallies, and its
    /// retry histogram (`[k]`: sessions admitted after exactly `k`
    /// retries).
    pub(super) fn into_report(self) -> (NeighborhoodDegradation, Vec<u64>) {
        let tally = NeighborhoodDegradation {
            outage_secs: self.timeline.outage_secs(),
            ..self.tally
        };
        (tally, self.admitted_after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cablevod_hfc::fault::{FaultEvent, FaultKind, FaultPlan};
    use cablevod_hfc::units::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn outage_plan(nbhd: u32, start: u64, end: u64) -> FaultPlan {
        FaultPlan::new(vec![FaultEvent {
            scope: Some(NeighborhoodId::new(nbhd)),
            start: t(start),
            end: t(end),
            kind: FaultKind::Outage,
        }])
        .expect("valid plan")
    }

    fn nbhd(n: u32) -> NeighborhoodId {
        NeighborhoodId::new(n)
    }

    #[test]
    fn default_config_builds_no_control() {
        let config = SimConfig::paper_default();
        assert!(AdmissionControl::build(&config, nbhd(0)).is_none());
    }

    #[test]
    fn enforcing_outage_retries_then_blocks() {
        let config = SimConfig::paper_default()
            .with_admission(AdmissionMode::Enforcing)
            .with_retry(RetryPolicy::new(2, SimDuration::from_secs(10)))
            .with_faults(outage_plan(0, 100, 1_000));
        let mut ctl = AdmissionControl::build(&config, nbhd(0)).expect("active");

        // Refused during the outage: retry at +10s, +20s, then blocked.
        assert_eq!(
            ctl.try_admit(t(200), t(500), 0),
            Verdict::Retry { at: t(210) }
        );
        assert_eq!(
            ctl.try_admit(t(210), t(500), 1),
            Verdict::Retry { at: t(230) }
        );
        assert_eq!(ctl.try_admit(t(230), t(500), 2), Verdict::Blocked);
        // After recovery: admitted, and the recovery lag is measured.
        assert_eq!(ctl.try_admit(t(1_050), t(1_500), 0), Verdict::Admit);
        let (nbhd, histogram) = ctl.into_report();
        assert_eq!(nbhd.blocked_sessions, 1);
        assert_eq!(nbhd.retries, 2);
        assert_eq!(histogram, vec![1, 0, 0]);
        assert_eq!(nbhd.outage_secs, 900);
        assert_eq!(nbhd.recoveries_measured, 1);
        assert_eq!(nbhd.recovery_lag_total_secs, 50);
        assert_eq!(nbhd.recovery_lag_max_secs, 50);
    }

    #[test]
    fn counting_mode_admits_but_tallies() {
        let config = SimConfig::paper_default().with_faults(outage_plan(0, 100, 1_000));
        let mut ctl = AdmissionControl::build(&config, nbhd(0)).expect("active: plan is non-empty");
        assert!(!ctl.enforcing());
        assert_eq!(ctl.try_admit(t(200), t(500), 0), Verdict::Admit);
        assert_eq!(ctl.try_admit(t(2_000), t(2_500), 0), Verdict::Admit);
        let (report, histogram) = ctl.into_report();
        assert_eq!(
            report.blocked_sessions, 1,
            "violation counted, not enforced"
        );
        assert_eq!(report.retries, 0);
        assert_eq!(histogram[0], 2, "both admitted at once");
    }

    #[test]
    fn channel_budget_exhaustion_refuses_admission() {
        // Derate neighborhood 0 to 1 permille: paper budget 160 streams
        // -> floor(160 * 1 / 1000) = 0 concurrent streams.
        let config = SimConfig::paper_default()
            .with_admission(AdmissionMode::Enforcing)
            .with_retry(RetryPolicy::new(0, SimDuration::from_secs(30)))
            .with_faults(
                FaultPlan::new(vec![FaultEvent {
                    scope: Some(NeighborhoodId::new(0)),
                    start: t(0),
                    end: t(10_000),
                    kind: FaultKind::Derate { permille: 1 },
                }])
                .expect("valid"),
            );
        let mut ctl = AdmissionControl::build(&config, nbhd(0)).expect("active");
        assert_eq!(ctl.try_admit(t(100), t(500), 0), Verdict::Blocked);
        // Neighborhood 1 is healthy and admits freely.
        let mut healthy = AdmissionControl::build(&config, nbhd(1)).expect("active");
        assert_eq!(healthy.try_admit(t(100), t(500), 0), Verdict::Admit);
        // After the derate lifts, occupancy frees as sessions end.
        assert_eq!(ctl.try_admit(t(10_500), t(11_000), 0), Verdict::Admit);
    }

    #[test]
    fn occupancy_frees_when_sessions_end() {
        let config = SimConfig::paper_default()
            .with_admission(AdmissionMode::Enforcing)
            .with_retry(RetryPolicy::new(0, SimDuration::from_secs(30)))
            .with_faults(
                FaultPlan::new(vec![FaultEvent {
                    scope: None,
                    start: t(0),
                    end: t(100_000),
                    // 160 * 7 / 1000 = 1 concurrent stream.
                    kind: FaultKind::Derate { permille: 7 },
                }])
                .expect("valid"),
            );
        let mut ctl = AdmissionControl::build(&config, nbhd(3)).expect("active");
        assert_eq!(ctl.try_admit(t(100), t(500), 0), Verdict::Admit);
        assert_eq!(ctl.try_admit(t(200), t(600), 0), Verdict::Blocked);
        // The first session ended at 500: its slot is free again.
        assert_eq!(ctl.try_admit(t(500), t(900), 0), Verdict::Admit);
    }
}
