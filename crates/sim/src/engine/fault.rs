//! Fault overlay for the engine: the [`AdmissionControl`] a driver
//! consults at session starts, retries, and segment continuations.
//!
//! Every driver builds one for the neighborhood range it owns — all of
//! them (whole-plant) or exactly one (a shard) — so every driver
//! combination consults the same degraded-plant state machine. It never
//! touches byte accounting.
//!
//! Determinism: all admission state (fault timelines, channel occupancy,
//! retry tallies) is **strictly per-neighborhood**, matching the engine's
//! unit of isolation, so the whole-plant and sharded drivers make identical
//! decisions in identical per-neighborhood event order. When the control
//! is inactive ([`AdmissionMode::Counting`] with an empty
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
use crate::report::{DegradationReport, NeighborhoodDegradation};

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

/// One neighborhood's admission state: its fault timeline, its channel
/// occupancy, and its degradation tallies.
#[derive(Debug)]
struct FaultState {
    timeline: FaultTimeline,
    /// End times (seconds) of admitted sessions, pruned lazily — the
    /// same pattern as [`cablevod_hfc::stb::SetTopBox`]'s stream slots.
    occupancy: BinaryHeap<Reverse<u64>>,
    /// Outage recovery instants not yet measured, in time order.
    pending_recoveries: VecDeque<u64>,
    blocked: u64,
    interrupted: u64,
    retries: u64,
    recoveries_measured: u64,
    recovery_lag_total_secs: u64,
    recovery_lag_max_secs: u64,
    /// `admitted_after[k]` — sessions admitted after exactly `k` retries.
    admitted_after: Vec<u64>,
}

impl FaultState {
    fn new(timeline: FaultTimeline, max_retries: u8) -> Self {
        let pending_recoveries = timeline.outage_ends().map(|t| t.as_secs()).collect();
        FaultState {
            timeline,
            occupancy: BinaryHeap::new(),
            pending_recoveries,
            blocked: 0,
            interrupted: 0,
            retries: 0,
            recoveries_measured: 0,
            recovery_lag_total_secs: 0,
            recovery_lag_max_secs: 0,
            admitted_after: vec![0; usize::from(max_retries) + 1],
        }
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
            self.recoveries_measured += 1;
            self.recovery_lag_total_secs += lag;
            self.recovery_lag_max_secs = self.recovery_lag_max_secs.max(lag);
        }
    }

    fn into_degradation(self) -> NeighborhoodDegradation {
        NeighborhoodDegradation {
            blocked_sessions: self.blocked,
            interrupted_sessions: self.interrupted,
            retries: self.retries,
            outage_secs: self.timeline.outage_secs(),
            recoveries_measured: self.recoveries_measured,
            recovery_lag_total_secs: self.recovery_lag_total_secs,
            recovery_lag_max_secs: self.recovery_lag_max_secs,
        }
    }
}

/// The degraded-plant admission state machine for the contiguous
/// neighborhood range one driver owns (all of them serially, exactly one
/// per shard).
#[derive(Debug)]
pub(super) struct AdmissionControl {
    mode: AdmissionMode,
    retry: RetryPolicy,
    /// Healthy channel budget in concurrent streams (free QAM channels ×
    /// streams per channel); derates scale it down per neighborhood.
    budget: u64,
    /// First neighborhood index this control covers.
    base: u32,
    states: Vec<FaultState>,
}

impl AdmissionControl {
    /// Builds the control for neighborhoods `base..base + count`.
    /// Returns `None` — no overlay at all — when the config is the
    /// default counting mode over a healthy plant, so those runs keep
    /// their original byte-identical path.
    pub(super) fn build(config: &SimConfig, base: u32, count: usize) -> Option<Self> {
        if config.admission() == AdmissionMode::Counting && config.faults().is_empty() {
            return None;
        }
        let plan = ChannelPlan::from_spec(config.coax_spec());
        let budget = u64::from(plan.free_channels())
            * u64::from(plan.streams_per_channel(config.stream_rate()));
        let max_retries = config.retry().max_retries();
        let states = (0..count)
            .map(|i| {
                let nbhd = NeighborhoodId::new(base + i as u32);
                FaultState::new(config.faults().timeline(nbhd), max_retries)
            })
            .collect();
        Some(AdmissionControl {
            mode: config.admission(),
            retry: config.retry(),
            budget,
            base,
            states,
        })
    }

    /// Whether refusals really block/interrupt (vs only being counted).
    pub(super) fn enforcing(&self) -> bool {
        self.mode == AdmissionMode::Enforcing
    }

    fn state(&mut self, nbhd: u32) -> &mut FaultState {
        &mut self.states[(nbhd - self.base) as usize]
    }

    /// Decides one session attempt at `start` (planned end `end`).
    /// `retries_used` is how many retries the session has already spent.
    ///
    /// In counting mode a refusal is tallied as a blocked-worthy start
    /// but the session is admitted anyway — the trajectory, and with it
    /// every pre-existing metric, is unchanged.
    pub(super) fn try_admit(
        &mut self,
        nbhd: u32,
        start: SimTime,
        end: SimTime,
        retries_used: u8,
    ) -> Verdict {
        let enforcing = self.enforcing();
        let (max_retries, backoff) = (self.retry.max_retries(), self.retry.backoff(retries_used));
        let budget = self.budget;
        let state = self.state(nbhd);
        let t = start.as_secs();
        let outage = state.timeline.outage_at(start).is_some();
        let capacity = budget * u64::from(state.timeline.capacity_permille_at(start))
            / u64::from(FULL_CAPACITY_PERMILLE);
        let refused = outage || state.occupancy_at(t) >= capacity;

        if refused && enforcing {
            if retries_used < max_retries {
                state.retries += 1;
                return Verdict::Retry {
                    at: start + backoff,
                };
            }
            state.blocked += 1;
            return Verdict::Blocked;
        }
        if refused {
            // Counting mode: the violation is measured, not enforced.
            state.blocked += 1;
        }
        state.note_admission(t);
        state.admitted_after[usize::from(retries_used)] += 1;
        state.occupancy.push(Reverse(end.as_secs()));
        Verdict::Admit
    }

    /// Whether an outage is active for `nbhd` at `t` (no tally).
    pub(super) fn outage_now(&mut self, nbhd: u32, t: SimTime) -> bool {
        self.state(nbhd).timeline.outage_at(t).is_some()
    }

    /// Tallies one interrupted (enforcing) or interruption-worthy
    /// (counting) session.
    pub(super) fn tally_interrupt(&mut self, nbhd: u32) {
        self.state(nbhd).interrupted += 1;
    }

    /// Folds the control into the report's degradation section.
    pub(super) fn into_report(self) -> DegradationReport {
        let mut histogram = vec![0u64; usize::from(self.retry.max_retries()) + 1];
        let per_neighborhood: Vec<NeighborhoodDegradation> = self
            .states
            .into_iter()
            .map(|state| {
                for (slot, n) in histogram.iter_mut().zip(&state.admitted_after) {
                    *slot += n;
                }
                state.into_degradation()
            })
            .collect();
        DegradationReport::from_parts(per_neighborhood, histogram)
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

    #[test]
    fn default_config_builds_no_control() {
        let config = SimConfig::paper_default();
        assert!(AdmissionControl::build(&config, 0, 4).is_none());
    }

    #[test]
    fn enforcing_outage_retries_then_blocks() {
        let config = SimConfig::paper_default()
            .with_admission(AdmissionMode::Enforcing)
            .with_retry(RetryPolicy::new(2, SimDuration::from_secs(10)))
            .with_faults(outage_plan(0, 100, 1_000));
        let mut ctl = AdmissionControl::build(&config, 0, 1).expect("active");

        // Refused during the outage: retry at +10s, +20s, then blocked.
        assert_eq!(
            ctl.try_admit(0, t(200), t(500), 0),
            Verdict::Retry { at: t(210) }
        );
        assert_eq!(
            ctl.try_admit(0, t(210), t(500), 1),
            Verdict::Retry { at: t(230) }
        );
        assert_eq!(ctl.try_admit(0, t(230), t(500), 2), Verdict::Blocked);
        // After recovery: admitted, and the recovery lag is measured.
        assert_eq!(ctl.try_admit(0, t(1_050), t(1_500), 0), Verdict::Admit);
        let report = ctl.into_report();
        assert_eq!(report.blocked_sessions, 1);
        assert_eq!(report.retries, 2);
        assert_eq!(report.retry_histogram, vec![1, 0, 0]);
        let nbhd = &report.per_neighborhood[0];
        assert_eq!(nbhd.outage_secs, 900);
        assert_eq!(nbhd.recoveries_measured, 1);
        assert_eq!(nbhd.recovery_lag_total_secs, 50);
        assert_eq!(nbhd.recovery_lag_max_secs, 50);
    }

    #[test]
    fn counting_mode_admits_but_tallies() {
        let config = SimConfig::paper_default().with_faults(outage_plan(0, 100, 1_000));
        let mut ctl = AdmissionControl::build(&config, 0, 1).expect("active: plan is non-empty");
        assert!(!ctl.enforcing());
        assert_eq!(ctl.try_admit(0, t(200), t(500), 0), Verdict::Admit);
        assert_eq!(ctl.try_admit(0, t(2_000), t(2_500), 0), Verdict::Admit);
        let report = ctl.into_report();
        assert_eq!(
            report.blocked_sessions, 1,
            "violation counted, not enforced"
        );
        assert_eq!(report.retries, 0);
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
        let mut ctl = AdmissionControl::build(&config, 0, 2).expect("active");
        assert_eq!(ctl.try_admit(0, t(100), t(500), 0), Verdict::Blocked);
        // Neighborhood 1 is healthy and admits freely.
        assert_eq!(ctl.try_admit(1, t(100), t(500), 0), Verdict::Admit);
        // After the derate lifts, occupancy frees as sessions end.
        assert_eq!(ctl.try_admit(0, t(10_500), t(11_000), 0), Verdict::Admit);
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
        let mut ctl = AdmissionControl::build(&config, 3, 1).expect("active");
        assert_eq!(ctl.try_admit(3, t(100), t(500), 0), Verdict::Admit);
        assert_eq!(ctl.try_admit(3, t(200), t(600), 0), Verdict::Blocked);
        // The first session ended at 500: its slot is free again.
        assert_eq!(ctl.try_admit(3, t(500), t(900), 0), Verdict::Admit);
    }
}
